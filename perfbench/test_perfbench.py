"""Tests of the benchmark's own checks and span accounting.

    python3 -m pytest perfbench -q      # from the root of the checkout

Each output check must pass on the program's real output and trip when
one state entry, one current or one CSV cell is perturbed.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from qheat import cli  # noqa: E402
from qheat.steady import DensityMatrix  # noqa: E402


def _perturbed_state(rho, i, j, delta):
    entries = np.array(rho.entries)
    entries[i, j] += delta
    return DensityMatrix(dim=rho.dim, entries=entries)


@pytest.mark.parametrize("slot", [0, 1, 2])    # single, coupled lindblad, redfield
def test_closed_form_check_trips_on_state_and_current(slot):
    item = workloads.Points(0).cycle(0)[slot]
    (model, params), mode = item.params, item.mode
    point = cli.compute_point(model, mode, params)
    n, fails = verify.check_point(model, mode, params, point)
    assert n >= 4 and fails == []

    bad_state = replace(point, rho=_perturbed_state(point.rho, 0, 0, 1e-8))
    assert verify.check_point(model, mode, params, bad_state)[1]

    bad_current = replace(point, currents={**point.currents,
                                           "A": point.currents["A"] + 1e-8})
    assert verify.check_point(model, mode, params, bad_current)[1]


def test_residual_and_first_law_checks_trip():
    load = workloads.Scaling(0)
    item = load.cycle(0)[0]
    assert item.mode == "lindblad"
    liou, rho, q_a, q_b = load.run(item)
    assert load.check(item, (liou, rho, q_a, q_b))[1] == []
    bad = _perturbed_state(rho, 1, 1, 1e-8)
    assert any("residual" in f for f in verify.check_steady(
        liou.matrix, bad, q_a, q_b)[1])
    assert any("first law" in f for f in verify.check_steady(
        liou.matrix, rho, q_a + 1e-8, q_b)[1])


def test_redfield_scaling_draws_are_rejected_not_failed():
    load = workloads.Scaling(0)
    item = load.cycle(0)[1]
    assert item.mode == "redfield" and load.may_reject(item)
    with pytest.raises(RuntimeError):
        load.run(item)


def test_relaxation_check_trips():
    load = workloads.Relax(0)
    item = load.cycle(0)[0]
    liou, rho_t = load.run(item)
    assert load.check(item, (liou, rho_t))[1] == []
    assert load.check(item, (liou, _perturbed_state(rho_t, 0, 0, 1e-5)))[1]


def _reference(fig="fig4"):
    with open(os.path.join(HERE, "reference", f"{fig}.csv")) as fh:
        return fh.read()


def _edit_cell(text, row, col, new):
    lines = text.splitlines(keepends=True)
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    cells = lines[body[row]].rstrip("\n").split(",")
    cells[col] = new(cells[col])
    lines[body[row]] = ",".join(cells) + "\n"
    return "".join(lines)


def test_csv_compare_counts_changes_and_trips_beyond_tolerance():
    ref = _reference()
    header = ref.splitlines()[2].split(",")
    assert verify.compare_csv(ref, ref) == (101, 0, [])

    q_a = header.index("q_A")
    last_digit = _edit_cell(ref, 5, q_a, lambda c: c[:-1] + str((int(c[-1]) + 1) % 10))
    rows, changed, fails = verify.compare_csv(last_digit, ref)
    assert (changed, fails) == (1, [])

    far = _edit_cell(ref, 5, q_a, lambda c: repr(float(c) + 1e-6))
    assert verify.compare_csv(far, ref)[2]

    for col in ("status", "second_law"):
        flipped = _edit_cell(ref, 7, header.index(col), lambda c: c + "x")
        assert verify.compare_csv(flipped, ref)[2]

    short = "".join(ref.splitlines(keepends=True)[:-1])
    assert verify.compare_csv(short, ref)[2]


def test_presets_reference_matches_program_output(tmp_path):
    out = tmp_path / "fig4.csv"
    assert cli.main(["preset", "fig4", "--out", str(out)]) == 0
    assert out.read_text() == _reference("fig4")


def _span(name, start, end, parent=None, thread=0):
    return tracing.Span(name, start, end, parent, thread, 0, None)


def test_self_time_is_span_minus_children_and_adds_up():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, parent=0),
             _span("c", 3.0, 6.0, parent=0), _span("d", 2.0, 3.0, parent=1)]
    own, uncovered = tracing.self_times(spans, [(0.0, 12.0)])
    # a: 10 minus the union [1, 6] of b and c; b and c overlap on [3, 4]
    assert own[0] == pytest.approx(5.0)
    assert own[3] == pytest.approx(1.0)
    assert sum(own) + uncovered == pytest.approx(12.0)
    assert uncovered == pytest.approx(2.0)


def test_tracing_sees_calls_inside_compute_point_and_restores():
    original = cli.build_kernel
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.build_kernel is not original
        cli.compute_point("single", "lindblad",
                          dict(w0=1.0, ga=1.0, gb=1.0, ta=2.0, tb=1.0))
    assert cli.build_kernel is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.compute_point"
    assert names.count("kernel.build_kernel") == 2
    assert all(s.parent == 0 for s in tracer.spans[1:] if s.name.startswith("kernel"))
    assert all(s.end >= s.start for s in tracer.spans)


def test_pool_threads_hang_under_render_sweep():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        cli.render_sweep("single", "lindblad",
                         dict(w0=1.0, ga=1.0, gb=1.0, ta=1.0, tb=1.0),
                         "ta", 0.5, 1.5, 8)
    top = tracer.spans[0]
    points = [s for s in tracer.spans if s.name == "cli.compute_point"]
    assert top.name == "cli.render_sweep" and len(points) == 8
    assert all(s.parent == 0 for s in points)
    assert len({s.point for s in points}) == 8
    own, uncovered = tracing.self_times(tracer.spans, [(top.start, top.end)])
    assert sum(own) + uncovered == pytest.approx(top.end - top.start)


def test_same_seed_same_inputs():
    for name, load in workloads.WORKLOADS.items():
        a, b = load(5), load(5)
        try:
            assert repr(a.cycle(3)) == repr(b.cycle(3)), name
        finally:
            a.close()
            b.close()


def test_refuses_to_run_without_the_program(tmp_path):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        (tmp_path / "BENCHMARK.json").write_text(fh.read())
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "points", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") and json.loads(line).get("correct")
                   for line in proc.stdout.splitlines())
