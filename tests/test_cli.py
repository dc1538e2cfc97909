import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qheat import (BathSpec, DensityMatrix, SteadyPoint, cli, kernel,
                   make_coupled_qubits, make_single_qubit, steady,
                   steady_point)
from qheat.cli import (PRESETS, UsageError, compute_point, main, parse_range,
                       render_sweep)

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _fresh_process_env():
    """Environment for a `python -m qheat.cli` subprocess that imports
    this checkout's package."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [
                str(SRC_DIR), os.environ.get("PYTHONPATH")]))}


def read_csv_text(text):
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    rows = [r for r in csv.reader(io.StringIO(text))
            if r and not r[0].startswith("#")]
    return comments, rows[0], rows[1:]


@pytest.fixture(scope="module")
def fig3_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig3") / "fig3.csv"
    assert main(["preset", "fig3", "--out", str(path)]) == 0
    return path.read_text()


@pytest.fixture(scope="module")
def fig4_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig4") / "fig4.csv"
    assert main(["preset", "fig4", "--out", str(path)]) == 0
    return path.read_text()


@pytest.fixture(scope="module")
def fig5_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig5") / "fig5.csv"
    assert main(["preset", "fig5", "--out", str(path)]) == 0
    return path.read_text()


def test_parse_range():
    assert parse_range("0.5:1.5:101") == (0.5, 1.5, 101)
    for bad in ("0.5:1.5", "1:2:3:4", "a:b:c", "0.5:1.5:1", "2:1:10", "1:1:10"):
        with pytest.raises(UsageError):
            parse_range(bad)


def test_preset_definitions():
    assert PRESETS["fig3"]["count"] == 161
    assert PRESETS["fig4"]["count"] == 101
    assert PRESETS["fig5"]["count"] == 161
    assert PRESETS["fig5"]["mode"] == "redfield"
    assert PRESETS["fig5"]["ta"] - PRESETS["fig5"]["tb"] == 10.0
    assert (PRESETS["fig3"]["start"], PRESETS["fig3"]["stop"]) == (0.05, 8.0)


def test_single_point_report(capsys):
    assert main(["single", "--ta", "2", "--tb", "1"]) == 0
    out = capsys.readouterr().out
    assert "q_A = 0.153597942859" in out
    assert "second law: pass" in out
    assert "conservation residual" in out
    assert "rho_11" in out and "rho_22" in out


def test_equilibrium_point_report(capsys):
    assert main(["single"]) == 0
    out = capsys.readouterr().out
    assert "second law: not-applicable" in out
    assert "coherences: none above 1e-12" in out


def test_coupled_point_report(capsys):
    assert main(["coupled", "--ta", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "q_A = 0.0534080691642" in out
    assert "rho_44" in out


def test_point_invalid_parameters_exit_one(capsys):
    assert main(["coupled", "--lambda", "3"]) == 1
    assert "lam" in capsys.readouterr().err
    assert main(["single", "--ta", "-1"]) == 1
    assert "temperature" in capsys.readouterr().err


def test_residual_error_names_the_generator_scale(capsys):
    """At T_A = 1e7 the rates, and so the solve's rounding, outgrow the
    absolute residual bound; the message says so with ||M||_inf."""
    assert main(["coupled", "--ta", "1e7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the residual itself is rounding, so only its place is pinned
    assert re.fullmatch(r"qheat: steady-state residual \S+ exceeds the absolute "
                        r"bound 1e-10; the generator has \|\|M\|\|_inf "
                        r"2\.286e\+07\n", captured.err)


def test_strict_positivity_point_exit(capsys):
    argv = ["coupled", "--mode", "redfield", "--ta", "10.5", "--tb", "0.5"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--strict-positivity"]) == 2
    captured = capsys.readouterr()
    assert "fails positivity" in captured.err
    assert "min population" in captured.out    # report still printed


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qheat" in capsys.readouterr().out


def test_argparse_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["single", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_non_finite_generator_exits_one_naming_the_cause(capsys):
    """T = 1e308 or g = 1e308 overflows the kernel into inf and NaN
    entries. The build refuses it, naming the reservoir and its bath,
    before any numpy warning or 'SVD did not converge'."""
    cases = {("--ta", "1e308"): "temperature 1e+308 with spectral density "
                                "SpectralDensity.constant(1.0)",
             ("--ga", "1e308"): "temperature 1 with spectral density "
                                "SpectralDensity.constant(1e+308)"}
    for flag, bath in cases.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["single", *flag]) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"qheat: kernel of reservoir 'A' overflows to "
                                f"inf or NaN at {bath}\n")


def test_sweep_requires_var_and_range(capsys):
    assert main(["sweep", "--model", "single", "--var", "ta"]) == 1
    assert "range" in capsys.readouterr().err
    assert main(["sweep", "--model", "single", "--var", "w1",
                 "--range", "1:2:3"]) == 1
    assert "cannot sweep" in capsys.readouterr().err


def test_sweep_csv_structure(tmp_path):
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "single", "--var", "ta",
                 "--range", "0.5:2.5:5", "--out", str(path)]) == 0
    comments, header, rows = read_csv_text(path.read_text())
    assert comments[0].startswith("# qheat ")
    assert "model=single" in comments[1] and "var=ta" in comments[1]
    assert header == ["ta", "pop_1", "pop_2", "q_A", "q_B",
                      "conservation_residual", "min_population",
                      "second_law", "status"]
    assert len(rows) == 5
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0, 2.5]
    assert all(r[-1] == "ok" for r in rows)
    assert all(float(r[5]) < 1e-8 for r in rows)


def test_sweep_no_header(tmp_path):
    path = tmp_path / "bare.csv"
    assert main(["sweep", "--model", "single", "--var", "ta",
                 "--range", "0.5:2.5:3", "--no-header",
                 "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert not any(ln.startswith("#") for ln in lines)
    assert lines[0].startswith("ta,pop_1")


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "--model", "single", "--var", "ta",
                 "--range", "1:2:2", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# qheat ")
    assert "ta,pop_1" in out


def test_preset_bytes_are_deterministic(tmp_path, fig4_csv):
    path = tmp_path / "again.csv"
    assert main(["preset", "fig4", "--out", str(path)]) == 0
    assert path.read_text() == fig4_csv


def test_fig4_currents_cross_zero_at_equal_temperatures(fig4_csv):
    _, header, rows = read_csv_text(fig4_csv)
    ta = [float(r[0]) for r in rows]
    qa = [float(r[header.index("q_A")]) for r in rows]
    qb = [float(r[header.index("q_B")]) for r in rows]
    at_one = qa[ta.index(1.0)]
    assert abs(at_one) < 1e-12
    assert qa[0] < 0 < qa[-1]
    assert max(abs(a + b) for a, b in zip(qa, qb)) < 1e-10


def test_fig3_population_profile(fig3_csv):
    _, header, rows = read_csv_text(fig3_csv)
    first, mid, last = rows[0], rows[len(rows) // 2], rows[-1]
    assert float(first[0]) == 0.05
    assert float(first[header.index("pop_1")]) > 0.99
    # approach toward equal population at the hot end
    def spread(row):
        pops = [float(row[header.index(f"pop_{i}")]) for i in range(1, 5)]
        return max(abs(p - 0.25) for p in pops)
    assert spread(last) < 0.05
    assert spread(last) < spread(mid) < spread(first)


def test_fig5_negative_population_window(fig5_csv):
    _, header, rows = read_csv_text(fig5_csv)
    col = header.index("min_population")
    tm = [float(r[0]) for r in rows]
    min_pop = [float(r[col]) for r in rows]
    assert all(r[-1] == "ok" for r in rows)
    assert min(min_pop) < 0
    negative = [t for t, m in zip(tm, min_pop) if m < 0]
    assert 5.5 <= max(negative) <= 6.5
    assert all(m >= 0 for t, m in zip(tm, min_pop) if t > 6.5)


@pytest.mark.parametrize("fig", ["fig3", "fig4", "fig5"])
def test_presets_match_stored_reference(fig, tmp_path):
    """The paper figures, byte for byte, against the stored seed output."""
    path = tmp_path / f"{fig}.csv"
    assert main(["preset", fig, "--out", str(path)]) == 0
    assert path.read_bytes() == (REFERENCE_DIR / f"{fig}.csv").read_bytes()


def test_fig5_strict_positivity_exit(tmp_path):
    path = tmp_path / "fig5.csv"
    assert main(["preset", "fig5", "--strict-positivity",
                 "--out", str(path)]) == 2
    assert path.exists()    # output still written


def test_sweep_error_rows_continue(tmp_path, capsys):
    path = tmp_path / "partial.csv"
    assert main(["sweep", "--model", "coupled", "--var", "lambda",
                 "--range", "1.0:2.0:3", "--out", str(path)]) == 0
    assert "2 grid point(s)" in capsys.readouterr().err
    _, header, rows = read_csv_text(path.read_text())
    assert rows[0][-1] == "ok"
    assert rows[1][-1].startswith("error:")
    assert rows[2][-1].startswith("error:")
    assert rows[1][1] == ""    # data cells empty on error rows
    assert main(["sweep", "--model", "coupled", "--var", "lambda",
                 "--range", "1.0:2.0:3", "--out", str(path),
                 "--strict-positivity"]) == 2


def test_tm_sweeps_mean_temperature(tmp_path):
    path = tmp_path / "tm.csv"
    assert main(["sweep", "--model", "coupled", "--var", "tm",
                 "--ta", "2", "--tb", "1", "--range", "2:3:2",
                 "--out", str(path)]) == 0
    _, header, rows = read_csv_text(path.read_text())
    # mean temperature 2 with a fixed difference of 1
    point = compute_point("coupled", "lindblad",
                          dict(w1=1.0, w2=2.0, lam=0.5, g=1.0,
                               ta=2.5, tb=1.5))
    for i in range(4):
        got = float(rows[0][header.index(f"pop_{i + 1}")])
        assert abs(got - point.rho.populations[i]) < 1e-10
    assert abs(float(rows[0][header.index("q_A")])
               - point.currents["A"]) < 1e-10


def test_config_file_values_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ta": 3.0, "tb": 1.5, "w0": 2.0}))
    assert main(["single", "--config", str(cfg), "--ta", "2.0"]) == 0
    out = capsys.readouterr().out
    params = next(ln for ln in out.splitlines() if ln.startswith("parameters:"))
    assert "ta=2" in params      # flag beats config
    assert "tb=1.5" in params    # config fills the gap
    assert "w0=2" in params


def test_config_rejections(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1.0}))
    assert main(["single", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    cfg.write_text("{not json")
    assert main(["single", "--config", str(cfg)]) == 1
    assert main(["single", "--config", str(tmp_path / "missing.json")]) == 1


def test_unwritable_output_path(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["single", "--out", str(target)]) == 1


def test_render_sweep_programmatic():
    text, n_bad, min_pop = render_sweep(
        "single", "lindblad", dict(w0=1.0, ga=1.0, gb=1.0, ta=2.0, tb=1.0),
        "ta", 1.0, 2.0, 3)
    _, header, rows = read_csv_text(text)
    assert len(rows) == 3
    assert n_bad == 0
    assert min_pop > 0
    with pytest.raises(UsageError):
        render_sweep("single", "lindblad",
                     dict(w0=1.0, ga=1.0, gb=1.0, ta=2.0, tb=1.0),
                     "w1", 1.0, 2.0, 3)


def test_compute_point_rejects_unknown_model():
    with pytest.raises(ValueError):
        compute_point("triple", "lindblad", {})


@pytest.mark.parametrize("model, params, system", [
    ("single", dict(w0=1.3, ga=0.7, gb=1.1, ta=2.0, tb=0.5),
     make_single_qubit(1.3)),
    ("coupled", dict(w1=1.0, w2=2.0, lam=0.5, g=0.8, ta=1.5, tb=1.0),
     make_coupled_qubits(1.0, 2.0, 0.5)[0]),
])
@pytest.mark.parametrize("mode", ["lindblad", "redfield"])
def test_compute_point_is_the_steady_point(model, params, system, mode):
    couplings = ((params["ga"], params["gb"]) if model == "single"
                 else (params["g"], params["g"]))
    baths = {r: BathSpec(temperature=params[t], spectral_density=g, label=r)
             for r, t, g in zip("AB", ("ta", "tb"), couplings)}
    point = compute_point(model, mode, params)
    ref = steady_point(system, baths, mode)
    assert isinstance(point, SteadyPoint)
    assert np.array_equal(point.rho.entries, ref.rho.entries)
    assert point.currents == ref.currents
    n = point.rho.dim
    rho = DensityMatrix(dim=n, entries=np.eye(n) / n)
    moved = dataclasses.replace(point, rho=rho)
    assert moved.rho is rho and moved.currents is point.currents


def _per_point_csv(model, mode, params, var, start, stop, count):
    """The sweep CSV built one grid point at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli._sweep_columns(model, var))
    half = 0.5 * (params["ta"] - params["tb"])
    for value in np.linspace(start, stop, count):
        value = float(value)
        p = dict(params)
        if var == "tm":
            p["ta"], p["tb"] = value + half, value - half
        else:
            p[cli._PARAM_KEY.get(var, var)] = value
        writer.writerow(cli._point_row(model, mode, value, p))
    return buf.getvalue()


_COUPLED = dict(w1=1.0, w2=2.0, lam=0.5, g=1.0, ta=1.0, tb=1.0)
_SINGLE = dict(w0=1.0, ga=1.0, gb=1.0, ta=2.0, tb=1.0)


@pytest.mark.parametrize("model, mode, params, var, start, stop, count", [
    ("coupled", "lindblad", _COUPLED, "ta", 0.5, 1.5, 11),
    ("single", "redfield", _SINGLE, "gb", -0.5, 2.0, 11),
    ("coupled", "redfield", _COUPLED, "g", -0.5, 2.0, 11),
    # T_B = T - 5 is negative below T = 5: error rows inside the batch
    ("coupled", "redfield", dict(_COUPLED, ta=10.0, tb=0.0), "tm", 3.0, 8.0, 21),
    # a near-degenerate system makes every batched build raise
    ("coupled", "lindblad", dict(_COUPLED, w2=1.0, lam=1e-13), "ta", 0.5, 1.5, 3),
    # system parameters run point by point, each row on its own system
    ("single", "lindblad", _SINGLE, "w0", 0.5, 2.0, 7),
    ("coupled", "redfield", dict(_COUPLED, ta=1.5), "w2", 1.5, 3.0, 7),
    # lambda >= sqrt(w1 w2) = 1.414 is refused: error rows past the crossing
    ("coupled", "lindblad", dict(_COUPLED, ta=1.5), "lambda", 0.1, 2.0, 11),
])
def test_bath_sweeps_equal_per_point_rows(model, mode, params, var, start,
                                          stop, count):
    text, _, _ = render_sweep(model, mode, params, var, start, stop, count,
                              comments=False)
    assert text == _per_point_csv(model, mode, params, var, start, stop, count)


def test_bath_sweep_longer_than_chunk(monkeypatch):
    calls, solves, per_point = [], [], []
    real_build = kernel.build_kernel
    real_solve = steady.solve_steady_state
    real_point = cli._point_row

    def counting_build(system, bath, reservoir, mode):
        if isinstance(bath, list):
            calls.append(len(bath))
        return real_build(system, bath, reservoir, mode)

    def counting_solve(liou, **kwargs):
        solves.append(liou.matrix.shape[:-2])
        return real_solve(liou, **kwargs)

    def counting_point(model, mode, value, params):
        per_point.append(params["tb"])
        return real_point(model, mode, value, params)

    # steady_point looks each layer up on its module
    monkeypatch.setattr(kernel, "build_kernel", counting_build)
    monkeypatch.setattr(steady, "solve_steady_state", counting_solve)
    monkeypatch.setattr(cli, "_point_row", counting_point)
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 4)
    params = dict(_COUPLED, ta=3.0, tb=1.0)
    text, n_bad, _ = render_sweep("coupled", "lindblad", params, "tm",
                                  -1.0, 4.0, 21, comments=False)
    # grid step 0.25; T_B = T - 1 is negative below T = 1, at 8 points
    assert n_bad == 8
    # 13 valid points: one build per reservoir and one stacked solve per
    # chunk of 4; only the 8 invalid points are solved one at a time
    assert calls == [4, 4, 4, 4, 4, 4, 1, 1]
    assert solves == [(4,), (4,), (4,), (1,)]
    assert len(per_point) == 8 and all(tb < 0 for tb in per_point)
    monkeypatch.undo()
    assert text == _per_point_csv("coupled", "lindblad", params, "tm",
                                  -1.0, 4.0, 21)


@pytest.mark.parametrize("cfg, argv", [
    ({"ta": "abc"}, ["single"]),
    ({"ta": "2"}, ["sweep", "--var", "tm", "--range", "1:2:2"]),
    ({"model": "triple"}, ["sweep", "--var", "ta", "--range", "1:2:2"]),
    ({"no-header": "false"}, ["sweep", "--var", "ta", "--range", "1:2:2"]),
    ({"ta": True}, ["single"]),
])
def test_config_values_pass_the_flag_checks(cfg, argv, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(path)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    key, = cfg
    assert f"error: argument --{key}: " in captured.err
    assert "Traceback" not in captured.err


def test_config_with_every_sweep_key_equals_flags(tmp_path):
    by_flags, by_config = tmp_path / "flags.csv", tmp_path / "config.csv"
    values = {"model": "coupled", "mode": "redfield", "w1": 1.5, "w2": 2.5,
              "lambda": 0.25, "g": 0.75, "ta": 2.0, "tb": 0.5, "var": "ta",
              "range": "-0.5:1:4"}
    argv = [f"--{key}={value}" for key, value in values.items()]
    assert main(["sweep", *argv, "--no-header", "--strict-positivity",
                 "--out", str(by_flags)]) == 2
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps({**values, "no-header": True,
                               "strict-positivity": True,
                               "out": str(by_config)}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    text = by_config.read_text()
    assert text == by_flags.read_text()
    assert text.startswith("ta,pop_1")
    assert "error: temperature must be >= 0, got -0.5" in text


@pytest.mark.parametrize("model", ["single", "coupled"])
def test_every_table_flag_is_a_flag_a_config_key_and_a_sweep_var(
        model, tmp_path, capsys):
    cfg = tmp_path / "one.json"
    for flag in cli._MODEL_FLAGS[model]:
        for command in ([model], ["sweep", "--model", model, "--var", "ta",
                                  "--range", "0.5:0.6:2"]):
            assert main(command + [f"--{flag}", "0.55"]) == 0
            by_flag = capsys.readouterr().out
            cfg.write_text(json.dumps({flag: 0.55}))
            assert main(command + ["--config", str(cfg)]) == 0
            assert capsys.readouterr().out == by_flag
            assert f"{cli._PARAM_KEY.get(flag, flag)}=0.55" in by_flag
        assert main(["sweep", "--model", model, "--var", flag,
                     "--range", "0.5:0.6:2", "--no-header"]) == 0
        assert capsys.readouterr().out.startswith(f"{flag},pop_1")


def test_sweep_rejects_parameters_of_the_other_model(tmp_path, capsys):
    argv = ["sweep", "--model", "single", "--var", "ta", "--range", "1:2:2"]
    assert main(argv + ["--w1", "3"]) == 1
    assert "model 'single' has no parameter --w1" in capsys.readouterr().err
    cfg = tmp_path / "w1.json"
    cfg.write_text(json.dumps({"w1": 3.0}))
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "model 'single' has no parameter --w1" in captured.err
    assert captured.out == ""
    assert main(["sweep", "--var", "ta", "--range", "1:2:2", "--ga", "2"]) == 1
    assert "model 'coupled' has no parameter --ga" in capsys.readouterr().err


def test_non_finite_inputs_are_rejected(capsys):
    assert main(["single", "--ta", "inf"]) == 1
    assert "temperature must be finite, got inf" in capsys.readouterr().err
    assert main(["single", "--ga", "nan"]) == 1
    assert "spectral density must be finite, got nan" in capsys.readouterr().err
    assert main(["coupled", "--w1", "nan"]) == 1
    assert "levels must be finite" in capsys.readouterr().err
    assert main(["sweep", "--model", "single", "--var", "tb", "--ta", "inf",
                 "--range", "1:2:2", "--no-header"]) == 0
    captured = capsys.readouterr()
    _, _, rows = read_csv_text(captured.out)
    assert [r[-1] for r in rows] == ["error: temperature must be finite, got inf"] * 2
    assert "2 grid point(s)" in captured.err
    # a non-finite range bound is refused before any grid is built
    for spec, message in (("-inf:1:3", "range start must be finite, got -inf"),
                          ("0:inf:3", "range stop must be finite, got inf"),
                          ("nan:1:3", "range start must be finite, got nan")):
        assert main(["sweep", "--var", "ta", f"--range={spec}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qheat: {message}\n"


# ------------------------------------------------ output file, in place

def _stdout_of(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("old", [b"stale line\n" * 5000, b"x"])
def test_out_rewrites_existing_file_exactly(old, tmp_path, capsys):
    """A longer old file leaves no stale tail; a shorter one is extended."""
    want = _stdout_of(["single", "--ta", "2"], capsys)
    path = tmp_path / "out.txt"
    path.write_bytes(old)
    assert main(["single", "--ta", "2", "--out", str(path)]) == 0
    assert path.read_bytes() == want


def test_out_keeps_the_inode_and_hard_links(tmp_path, capsys):
    want = _stdout_of(["coupled"], capsys)
    path, link = tmp_path / "out.txt", tmp_path / "link.txt"
    path.write_bytes(b"old contents, longer than nothing\n" * 100)
    os.link(path, link)
    inode = os.stat(path).st_ino
    assert main(["coupled", "--out", str(path)]) == 0
    assert os.stat(path).st_ino == inode
    assert link.read_bytes() == want


def test_out_opens_without_truncating(monkeypatch, tmp_path):
    flags, real_open = [], os.open

    def spy(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(os, "open", spy)
    cli._write_output(str(tmp_path / "out.txt"), "text\n")
    assert flags and not any(f & os.O_TRUNC for f in flags)


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_out_to_null_device(capsys):
    assert main(["single", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_out_directory_is_an_error(tmp_path, capsys):
    with pytest.raises(OSError) as exc:
        open(tmp_path, "w")     # the message of a plain truncating open
    want = f"qheat: cannot write {str(tmp_path)!r}: {exc.value}\n"
    assert main(["single", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == want


def test_preset_twice_onto_one_path_equals_reference(tmp_path):
    path = tmp_path / "fig4.csv"
    path.write_bytes((REFERENCE_DIR / "fig5.csv").read_bytes())    # longer
    for _ in range(2):
        assert main(["preset", "fig4", "--out", str(path)]) == 0
    assert path.read_bytes() == (REFERENCE_DIR / "fig4.csv").read_bytes()


# ------------------------------------------------ one parser per process

def test_shared_parser_equals_fresh_processes(tmp_path, capsys):
    """Invocations run through main in one process print exactly what
    each prints in a fresh process, so no flag value carries over."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ta": 3.0, "w0": 2.0}))
    invocations = [["single", "--ta", "3"], ["single"],
                   ["single", "--config", str(cfg), "--tb", "1.5"], ["single"],
                   ["single", "--bogus"], ["sweep", "--var", "ta"],
                   ["coupled", "--lambda", "0.3", "--mode", "redfield"],
                   ["coupled"], ["preset", "fig4", "--no-header"],
                   ["preset", "fig4"]]
    env = _fresh_process_env()
    for argv in invocations:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "qheat.cli", *argv],
                               capture_output=True, env=env, check=False)
        assert (captured.out.encode(), captured.err.encode(), code) == \
            (fresh.stdout, fresh.stderr, fresh.returncode), argv


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built, build = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    try:
        for argv in (["single"], ["single", "--ta", "2"], ["coupled"]):
            assert main(argv) == 0
        with pytest.raises(SystemExit):
            main(["single", "--bogus"])
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert built == [1]
