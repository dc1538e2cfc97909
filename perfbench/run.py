"""qheat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qheat checkout: the program is imported from
that checkout's src/ directory and from nowhere else. Workloads are
defined in workloads.py, output checks in verify.py and the span
recorder in tracing.py; README.md explains the metrics.

--trace 0 measures the end-to-end metrics: setup_s from separate
set-up processes, the rest from whole workload cycles run until the
timed calls add up to --seconds, with times scaled to a reference
machine speed (calibration.py). --trace 1 runs each cycle untraced and
then traced, with spans on every public function, until the untraced
cycles add up to half of --seconds, and reports per-layer metrics per
cycle.

Standard output: an environment line, a detail line, and last the
result object. The exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

import calibration

SETUP_PROBES = 5
REFERENCE_CYCLES = 32       # points cycles run one call at a time for the pool inflation
KERNEL_NS = (2, 4, 5, 6, 7, 8, 9, 10)
DOMAIN_ERRORS = (ValueError, LookupError, RuntimeError)


def import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qheat", "__init__.py")):
        sys.exit("perfbench: no src/qheat here; run from the root of a qheat "
                 "checkout")
    sys.path.insert(0, src)
    import qheat
    if os.path.dirname(os.path.abspath(qheat.__file__)) != os.path.join(src, "qheat"):
        sys.exit(f"perfbench: imported qheat from {qheat.__file__}, not {src}")


class Tally:
    """Outcomes and timings of the calls of one pass.

    With a gauge, every call also gets its time at the reference speed.
    """

    def __init__(self, gauge=None):
        self.attempted = self.failed = self.rejected = self.checks = 0
        self.busy = 0.0
        self.samples = []       # [item, seconds, seconds at reference speed]
        self.failures = []
        self.gauge = gauge
        self._unscaled = 0

    def add(self, load, item, seconds, out, err):
        self.attempted += item.rows
        self.busy += seconds
        self.samples.append([item, seconds, None])
        self.judge(load, item, out, err)
        if self.gauge:
            self.scale()

    def scale(self, final=False):
        """Scale the calls since the last speed sample, once they add up."""
        pending = self.samples[self._unscaled:]
        measured = sum(s[1] for s in pending)
        if pending and (final or measured >= calibration.SEGMENT_S):
            factor = self.gauge.factor(measured)
            for s in pending:
                s[2] = s[1] * factor
            self._unscaled = len(self.samples)

    def judge(self, load, item, out, err):
        if err is not None:
            if load.may_reject(item) and isinstance(err, DOMAIN_ERRORS):
                self.rejected += item.rows
                return
            fails = [f"{type(err).__name__}: {err}"]
        else:
            checks, fails = load.check(item, out)
            self.checks += checks
        if fails:
            self.failed += item.rows
            self.failures += [f"{item.label}: {f}" for f in fails[:3]]


def run_cycle(load, c, tally, tracer=None, items=None):
    """Run cycle c; return its wall interval.

    When tracing, each item gets a bench.point span, its check a
    bench.check span, and items maps the bench.point span to the item.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    start = perf_counter()
    for item in load.cycle(c):
        if tracer:
            point = tracer.open("bench.point")
            items[point] = item
        t0 = perf_counter()
        try:
            out, err = load.run(item), None
        except Exception as exc:        # judged, and counted, below
            out, err = None, exc
        elapsed = perf_counter() - t0
        with span("bench.check"):
            tally.add(load, item, elapsed, out, err)
        if tracer:
            tracer.close(point)
    return start, perf_counter()


def setup_seconds(args, gauge):
    """Median time from starting a set-up process to the end of its warm-up.

    Returns the median at the reference speed and the raw times.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
        raw.append(float(proc.stdout.split()[-1]) - t0)
        scaled.append(raw[-1] * gauge.factor(raw[-1]))
    return statistics.median(scaled), raw


def timing_metrics(samples, column, cycle_length):
    """Throughput and per-point latencies from one timing column.

    Throughput is the median over cycles of points per second. A call
    that yields several points (a preset figure) counts as that many
    points, each taking the call's time per point.
    """
    import numpy as np

    per_point, nmax, rates = [], [], []
    n_max = max(s[0].n for s in samples)
    for s in samples:
        item = s[0]
        ms = [1e3 * s[column] / item.rows] * item.rows
        per_point += ms
        if item.mode == "lindblad" and item.n == n_max:
            nmax += ms
    for c in range(0, len(samples), cycle_length):
        cycle = samples[c:c + cycle_length]
        rates.append(sum(s[0].rows for s in cycle) / sum(s[column] for s in cycle))
    p50, p95 = np.percentile(per_point, [50, 95])
    return {"points_per_s": statistics.median(rates),
            "point_ms_p50": float(p50), "point_ms_p95": float(p95),
            "nmax_point_ms": statistics.median(nmax)}


def with_units(values, section):
    """Attach the units BENCHMARK.json gives; its metric list must match."""
    with open("BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} are "
                           f"not both measured and declared in {section}")
    return {name: {"value": values[name], "unit": declared[name]}
            for name in declared}


def per_label(tally):
    """Median seconds per call and call count of each cycle slot."""
    by = defaultdict(list)
    for item, seconds, _ in tally.samples:
        by[item.label].append(seconds)
    return {label: {"median_s": statistics.median(v), "calls": len(v)}
            for label, v in sorted(by.items())}


def layer_metrics(load, tracer, windows, cycles, items, tally, plain_wall,
                  serial_means):
    """Per-layer metrics of the traced cycles, per workload cycle."""
    import workloads
    from tracing import self_times

    spans = tracer.spans
    own, uncovered = self_times(spans, windows)
    self_s, dur_s, calls, dims = (defaultdict(float), defaultdict(float),
                                  defaultdict(int), defaultdict(list))
    pool_busy = pool_expected = 0.0
    for i, s in enumerate(spans):
        self_s[s.name] += own[i]
        dur_s[s.name] += s.end - s.start
        calls[s.name] += 1
        dims[s.name, s.dim].append(s.end - s.start)
        if s.name == "cli.compute_point" and s.parent is not None \
                and spans[s.parent].name == "cli.render_sweep":
            pool_busy += s.end - s.start
            top = s.parent
            while spans[top].parent is not None:
                top = spans[top].parent
            pool_expected += serial_means[items[top].mode]

    def per_cycle(total):
        return total / cycles

    def layer(*names):
        return per_cycle(sum(self_s[n] for n in names))

    def median_ms(name, n):
        return 1e3 * statistics.median(dims[name, n]) if dims[name, n] else 0.0

    entries = sum(len(v) * n ** 4 for (name, n), v in dims.items()
                  if name == "kernel.build_kernel")
    wall = sum(end - start for start, end in windows)
    m = {
        "system.build_s": layer("system.SystemSpec", "system.make_single_qubit",
                                "system.make_coupled_qubits"),
        "kernel.build_s": layer("kernel.build_kernel"),
        "kernel.build_calls": per_cycle(calls["kernel.build_kernel"]),
        "kernel.build_entries": per_cycle(entries),
        "kernel.build_ns_per_entry": (1e9 * self_s["kernel.build_kernel"] / entries
                                      if entries else 0.0),
        **{f"kernel.build_ms.n{n}": median_ms("kernel.build_kernel", n)
           for n in KERNEL_NS},
        "kernel.combine_s": layer("kernel.combine_kernels"),
        "steady.assemble_s": layer("steady.assemble_liouvillian"),
        "steady.solve_s": layer("steady.solve_steady_state"),
        "steady.solve_calls": per_cycle(calls["steady.solve_steady_state"]),
        **{f"steady.solve_ms.n{n}": median_ms("steady.solve_steady_state", n)
           for n in KERNEL_NS},
        "steady.evolve_s": layer("steady.evolve"),
        "steady.evolve_steps": per_cycle(calls["steady.evolve"]
                                         * workloads.EVOLVE_STEPS),
        "steady.positivity_s": layer("steady.positivity_report"),
        "thermo.current_s": layer("thermo.reservoir_current"),
        "thermo.law_s": layer("thermo.law_checks"),
        "cli.main_self_s": layer("cli.main"),
        "cli.render_sweep_s": per_cycle(dur_s["cli.render_sweep"]),
        "cli.render_sweep_self_s": layer("cli.render_sweep"),
        "cli.compute_point_busy_s": per_cycle(pool_busy),
        "cli.compute_point_self_s": layer("cli.compute_point"),
        "cli.pool_concurrency": (pool_busy / dur_s["cli.render_sweep"]
                                 if pool_busy else 0.0),
        "cli.pool_point_inflation": pool_busy / pool_expected if pool_busy else 0.0,
        # both passes write the presets
        "cli.preset_cells_changed": getattr(load, "cells_changed", 0) / (2 * cycles),
        "cli.preset_files_differing": getattr(load, "files_differing", 0) / (2 * cycles),
        "models.oracle_s": layer(*(f"models.{n}" for n in
                                   ("single_qubit_closed", "coupled_lindblad_closed",
                                    "coupled_redfield_closed", "limit_currents"))),
        "models.checks": per_cycle(tally.checks),
        "bench.check_s": layer("bench.check"),
        "trace.wall_s": per_cycle(wall),
        "trace.overhead_s": per_cycle(wall - plain_wall),
        "trace.unattributed_s": per_cycle(uncovered + self_s["bench.point"]),
        "trace.spans": per_cycle(len(spans)),
        "rejected_share": tally.rejected / tally.attempted,
        "failed_share": tally.failed / tally.attempted,
    }
    return m


def serial_point_means(seed):
    """Mean traced compute_point span per mode, calls made one at a time.

    The calls use the points workload's coupled draws, so the pool's
    compute_point spans in presets can be set against the same mode's
    cost without a pool.
    """
    import workloads
    from tracing import Tracer, installed

    points = workloads.Points(seed)
    serial = Tracer()
    with installed(serial):
        for c in range(REFERENCE_CYCLES):
            for item in points.cycle(c):
                if item.n == 4:
                    with serial.span(item.mode):
                        points.run(item)
    return {mode: statistics.fmean(s.end - s.start for s in serial.spans
                                   if s.name == mode)
            for mode in ("lindblad", "redfield")}


def traced_run(load, args):
    """Alternate untraced and traced runs of each cycle.

    Alternating keeps drift of the machine's speed out of the overhead
    estimate. Stops when the untraced cycles have taken half the time.
    """
    from tracing import Tracer, installed

    plain, traced, tracer, items = Tally(), Tally(), Tracer(), {}
    plain_wall, windows, cycles = 0.0, [], 0
    while plain_wall < args.seconds / 2:
        start, end = run_cycle(load, cycles, plain)
        plain_wall += end - start
        with installed(tracer):
            windows.append(run_cycle(load, cycles, traced, tracer, items))
        cycles += 1
    means = serial_point_means(args.seed) if load.name == "presets" else None
    metrics = layer_metrics(load, tracer, windows, cycles, items, traced,
                            plain_wall, means)
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.rejected += traced.rejected
    plain.failures += traced.failures
    return plain, metrics, {"cycles": cycles, "spans": len(tracer.spans)}


def environment(args):
    import numpy
    from concurrent.futures import ThreadPoolExecutor

    src = os.path.join(os.getcwd(), "src", "qheat")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pool = ThreadPoolExecutor()     # starts no thread until work is submitted
    workers = pool._max_workers     # the default render_sweep gets
    pool.shutdown()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_thread_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "render_sweep_workers": workers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"have {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        load = workloads.WORKLOADS[args.workload](args.seed)
        load.warm_up()
        load.close()
        print(time.time())
        return 0

    if not args.trace:
        gauge = calibration.Gauge()
        setup, setup_raw = setup_seconds(args, gauge)
    load = workloads.WORKLOADS[args.workload](args.seed)
    try:
        load.warm_up()
        if args.trace:
            tally, values, detail = traced_run(load, args)
            metrics = with_units(values, "per_layer")
        else:
            tally, cycles = Tally(gauge), 0
            while tally.busy < args.seconds:
                run_cycle(load, cycles, tally)
                cycles += 1
            tally.scale(final=True)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = with_units({"setup_s": setup, "peak_rss_mb": rss_mb,
                                  **timing_metrics(tally.samples, 2, len(load.slots))},
                                 "end_to_end")
            detail = {"raw": {"setup_s": statistics.median(setup_raw),
                              "setup_samples_s": setup_raw,
                              **timing_metrics(tally.samples, 1, len(load.slots))},
                      "cycles": cycles, "calls": len(tally.samples),
                      "per_label": per_label(tally)}
    finally:
        load.close()
    detail.update(rejected=tally.rejected, failures=tally.failures[:20])
    for counter in ("cells_changed", "files_differing"):
        if hasattr(load, counter):
            detail[f"preset_{counter}"] = getattr(load, counter)
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"detail": detail}))
    for line in tally.failures[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
