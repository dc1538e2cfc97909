"""Span recorder for the traced run.

Spans are recorded from the benchmark's side. For the traced pass the
public functions of qheat.system, kernel, steady, thermo, cli and models
are replaced by wrappers, and so are the names qheat.cli imported from
those modules, so calls made inside compute_point and render_sweep get
spans too. The originals come back when the pass ends. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

WRAPPED = {
    "system": ("SystemSpec", "make_single_qubit", "make_coupled_qubits"),
    "kernel": ("build_kernel", "combine_kernels", "check_trace_condition"),
    "steady": ("assemble_liouvillian", "solve_steady_state",
               "svd_steady_state", "evolve", "gibbs_state",
               "positivity_report"),
    "thermo": ("reservoir_current", "law_checks"),
    "cli": ("main", "render_sweep", "compute_point"),
    "models": ("single_qubit_closed", "coupled_lindblad_closed",
               "coupled_redfield_closed", "limit_currents"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into Tracer.spans; None for a top span
    thread: int
    point: int              # one id per point (bench item or pool task)
    dim: int | None         # level count, when the first argument has one


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._points = itertools.count()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, dim=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
            point = self.spans[parent].point
        else:
            # A pool thread's first span belongs to the span the main
            # thread is waiting in (render_sweep); each pool task is a point.
            parent = self._main_stack[-1] if stack is not self._main_stack \
                and self._main_stack else None
            point = next(self._points)
        span = Span(name, 0.0, 0.0, parent, threading.get_ident(), point, dim)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = perf_counter()
        return index

    def close(self, index):
        self.spans[index].end = perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, getattr(args[0], "dim", None) if args else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced


@contextmanager
def installed(tracer):
    """Put traced wrappers in place of the public functions, then restore."""
    saved, wrappers = [], {}
    try:
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(f"qheat.{module_name}")
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = tracer.wrap(original,
                                                     f"{module_name}.{name}")
                saved.append((module, name, original))
                setattr(module, name, wrappers[id(original)])
        cli = importlib.import_module("qheat.cli")
        for name, value in list(vars(cli).items()):
            if id(value) in wrappers:
                saved.append((cli, name, value))
                setattr(cli, name, wrappers[id(value)])
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def self_times(spans, windows):
    """Self time of every span, and the traced time no span covers.

    windows are the (start, end) intervals that were traced. A span's
    self time is its duration minus the union of its children's
    intervals. Where spans of several threads are open at once (the
    render_sweep pool), each instant is split evenly among the open spans
    that have no open child, so the self times and the uncovered time add
    up to the traced time.
    """
    root = len(spans)
    events = sorted([(s.start, 1, i) for i, s in enumerate(spans)]
                    + [(s.end, 0, i) for i, s in enumerate(spans)])
    own = [0.0] * (root + 1)
    open_children = [0] * (root + 1)
    leaves = {root}
    last = windows[0][0] if windows else 0.0
    for t, opening, i in events:
        if t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
            last = t
        parent = root if spans[i].parent is None else spans[i].parent
        if opening:
            open_children[parent] += 1
            leaves.discard(parent)
            leaves.add(i)
        else:
            leaves.discard(i)
            open_children[parent] -= 1
            if open_children[parent] == 0:
                leaves.add(parent)
    own = own[:root]
    return own, sum(end - start for start, end in windows) - sum(own)
