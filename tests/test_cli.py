import argparse
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qheat import (BathSpec, __version__, bath, cli, kernel,
                   make_coupled_qubits, make_single_qubit, steady,
                   steady_point)
from qheat.cli import (PRESETS, UsageError, compute_point, main, parse_range,
                       render_sweep)
from qheat.steady import DensityMatrix
from qheat.thermo import SteadyPoint, law_checks

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


_FIRST_LAW_BREAKERS = [
    # q_A is lost to cancellation at T_A = 1e14: |q_A + q_B| = 4.0e-4
    ("single", "lindblad", ["--ta", "1e14", "--tb", "1"], "ta", "1e14:2e14:2"),
    ("single", "redfield", ["--ta", "1e14", "--tb", "1"], "ta", "1e14:2e14:2"),
    # the same cancellation in the pair, |q_A + q_B| = 1.5e-4 at |q_A| = 1;
    # redfield points this hot fail the steady-state residual bound first
    ("coupled", "lindblad", ["--lambda", "0.01", "--ta", "1e14", "--tb", "1e6"],
     "ta", "1e14:2e14:2"),
]


@pytest.mark.parametrize("model, mode, flags, var, grid", _FIRST_LAW_BREAKERS)
def test_point_command_refuses_what_a_sweep_marks_as_an_error(
        model, mode, flags, var, grid, capsys):
    """One first-law rule: a point whose |q_A + q_B| reaches
    CONSERVATION_ROW_TOL is refused by the point command with the
    message of its sweep row, with exit code 1, or 2 under
    --strict-positivity as for the other RuntimeError refusals."""
    sweep_flags = [f for i, f in enumerate(flags)
                   if f != f"--{var}" and flags[i - 1] != f"--{var}"]
    assert main(["sweep", "--model", model, "--mode", mode, *sweep_flags,
                 "--var", var, f"--range={grid}", "--no-header"]) == 0
    status = read_csv_text(capsys.readouterr().out)[2][0][-1]   # first row
    assert status.startswith("error: conservation residual ")
    for strict, code in (([], 1), (["--strict-positivity"], 2)):
        assert main([model, "--mode", mode, *flags, *strict]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"qheat: {status.removeprefix('error: ')}\n"
    if model == "single":
        assert status == "error: conservation residual 3.996e-04"


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


def test_point_report_lists_each_coherence_in_row_major_order(capsys):
    assert main(["coupled", "--ta", "2", "--mode", "redfield"]) == 0
    out = capsys.readouterr().out
    rho = compute_point("coupled", "redfield", dict(
        w1=1.0, w2=2.0, lam=0.5, g=1.0, ta=2.0, tb=1.0)).rho.entries
    listed = out.split("coherences:\n")[1].split("q_A")[0]
    assert listed == "".join(f"  rho_{i + 1}{j + 1} = {z.real:.12g}"
                             f"{z.imag:+.12g}j\n"
                             for i, j in ((1, 2), (2, 1)) for z in [rho[i, j]])


@pytest.mark.parametrize("argv", [
    ["coupled", "--lambda", "0", "--ta", "2", "--tb", "1"],
    ["coupled", "--lambda", "0", "--ta", "2", "--tb", "1", "--mode",
     "redfield"],
    ["single", "--gb", "0", "--ta", "2", "--tb", "1"],
])
def test_vanishing_current_passes_the_second_law(argv, capsys):
    """Two uncoupled qubits, or a qubit with B's coupling off, each at
    equilibrium with its own bath: q_A is rounding noise that runs
    against the bias here, and has no direction to judge."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    q_a = float(re.search(r"^q_A = (\S+)$", out, re.M).group(1))
    assert -1e-10 <= q_a < 0
    assert "second law: pass\n" in out


@pytest.mark.parametrize("mode", ["lindblad", "redfield"])
@pytest.mark.parametrize("params", [dict(w1=1.0, w2=2.0, lam=0.0, g=1.0),
                                    dict(w0=1.0, ga=1.0, gb=0.0)])
def test_vanishing_current_sweep_passes_the_second_law(params, mode):
    model = "coupled" if "lam" in params else "single"
    text, n_bad, _ = render_sweep(model, mode, dict(params, ta=1.0, tb=1.0),
                                  "ta", 0.5, 3.0, 11)
    _, header, rows = read_csv_text(text)
    law = header.index("second_law")
    assert n_bad == 0
    assert [row[law] for row in rows] == \
        ["pass"] * 2 + ["not-applicable"] + ["pass"] * 8


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


def test_rounding_trace_residual_is_not_a_leak(capsys):
    """At T_A = 1e4 the generator's trace residual, 1.8e-12, exceeds
    TRACE_TOL but is rounding of ||M||_inf 2.3e4, far inside
    TRACE_TOL * max(1, ||M||_inf): the point is accepted, not refused
    as leaking trace."""
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    baths = {r: BathSpec(temperature=t, spectral_density=1.0)
             for r, t in (("A", 1e4), ("B", 1.0))}
    m = steady_point(system, baths, "lindblad").liouvillian.matrix
    residual = np.abs(m[::5].sum(axis=0)).max()
    scale = np.linalg.norm(m, np.inf)
    assert kernel.TRACE_TOL < residual <= kernel.TRACE_TOL * scale
    assert main(["coupled", "--ta", "1e4"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "q_A = 0.999108261584\n" in captured.out


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


def test_pyproject_version_is_the_package_version():
    """The version is written in pyproject.toml and in qheat/__init__.py;
    read with a regex, since tomllib is absent on Python 3.10."""
    pyproject = (SRC_DIR.parent / "pyproject.toml").read_text()
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    versions = re.findall(r'^version = "([^"]+)"$', project, flags=re.M)
    assert versions == [__version__]


def test_argparse_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["single", "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def _model_options(*flags):
    """Options of model flags given as (flag, help text with default)."""
    return [((f"--{flag}",), argparse.SUPPRESS, text) for flag, text in flags]


_SINGLE_FLAGS = [("w0", "qubit splitting (default 1)"),
                 ("ga", "reservoir A coupling (default 1)"),
                 ("gb", "reservoir B coupling (default 1)"),
                 ("ta", "temperature of A (default 1)"),
                 ("tb", "temperature of B (default 1)")]
_COUPLED_FLAGS = [("w1", "qubit 1 splitting (default 1)"),
                  ("w2", "qubit 2 splitting (default 2)"),
                  ("lambda", "flip-flop coupling (default 0.5)"),
                  ("g", "coupling of both reservoirs (default 1)"),
                  ("ta", "temperature of A (default 1)"),
                  ("tb", "temperature of B (default 1)")]
_HELP = [(("-h", "--help"), argparse.SUPPRESS, "show this help message and exit")]
_MODE = [(("--mode",), "lindblad", "kernel mode (default lindblad)")]
_COMMON = [
    (("--out",), None, "output path; '-' or unset writes to stdout"),
    (("--config",), None,
     "JSON file with values for any flag; explicit flags win"),
    (("--strict-positivity",), False,
     "exit 2 when the steady state is not positive"),
    (("--no-header",), False, "omit the '#' comment lines from CSV output")]


def test_parser_options_in_help_order():
    """Each command's options, in --help order: option strings (or the
    positional's name), default and help text."""
    def options(parser):
        return [(tuple(a.option_strings) or a.dest, a.default, a.help)
                for a in parser._actions]

    parser = cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    assert options(parser) == _HELP + [
        (("--version",), argparse.SUPPRESS,
         "show program's version number and exit"),
        ("command", None, None)]
    assert list(sub.choices) == ["single", "coupled", "sweep", "preset"]
    assert options(sub.choices["single"]) == \
        _HELP + _model_options(*_SINGLE_FLAGS) + _MODE + _COMMON
    assert options(sub.choices["coupled"]) == \
        _HELP + _model_options(*_COUPLED_FLAGS) + _MODE + _COMMON
    # sweep: every model's flags, each once, in first-seen order
    assert options(sub.choices["sweep"]) == _HELP + [
        (("--model",), "coupled", "model to sweep (default coupled)"),
        *_model_options(*_SINGLE_FLAGS, *_COUPLED_FLAGS[:4]), *_MODE,
        (("--var",), None, "swept parameter name; 'tm' sweeps the mean "
                           "temperature at fixed T_A - T_B"),
        (("--range",), None, "inclusive linear grid, e.g. 0.5:1.5:101; "
                             "write --range=-1:4:21 for a negative start"),
        *_COMMON]
    assert options(sub.choices["preset"]) == \
        _HELP + [("name", None, None)] + _COMMON


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


@pytest.mark.parametrize("fig", ["fig3", "fig4", "fig5"])
def test_a_preset_reads_no_positivity(fig, tmp_path, positivity_calls):
    """A sweep row's min_population is the minimum of the populations it
    prints: no preset takes an eigendecomposition, and its bytes are the
    stored reference's."""
    path = tmp_path / f"{fig}.csv"
    assert main(["preset", fig, "--out", str(path)]) == 0
    assert positivity_calls == []
    assert path.read_bytes() == (REFERENCE_DIR / f"{fig}.csv").read_bytes()


def test_a_sweep_with_error_rows_reads_no_positivity(positivity_calls):
    # T_B = 0.5 is refused nowhere, T_A below 0 is: error rows, and
    # redfield rows past T_A = 10 with a negative min_population
    params = dict(_COUPLED, tb=0.5)
    text, n_bad, min_pop = render_sweep("coupled", "redfield", params, "ta",
                                        -1.0, 12.0, 27, comments=False)
    assert positivity_calls == []
    assert n_bad == 2 and min_pop < 0
    assert text == _per_point_csv("coupled", "redfield", params, "ta",
                                  -1.0, 12.0, 27)


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
    capsys.readouterr()
    cfg.write_text("[1, 2]")
    assert main(["single", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == \
        f"qheat: config {str(cfg)!r} must hold a JSON object\n"


@pytest.mark.parametrize("key", ["out", "ta", "mode", "no-header"])
def test_config_null_is_refused_naming_its_key(key, tmp_path, capsys,
                                               monkeypatch):
    """A JSON null, array or object is no flag value, nor is true or false
    for a flag that is no switch: each is refused before any flag is
    parsed, and --out null, true or [1] writes no file of that name."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    refused = ["null", "[1]", '{"a": 1}']
    if key != "no-header":
        refused += ["true", "false"]
    for text in refused:
        cfg.write_text(json.dumps({"tb": 1.5, key: json.loads(text)}))
        assert main(["single", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", (
            f"qheat: config {str(cfg)!r} sets {key!r} to {text}; give a value "
            f"or leave the key out\n"))
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


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
    with pytest.raises(ValueError, match="^unknown model 'triple'; "
                                         "valid: single, coupled$"):
        compute_point("triple", "lindblad", {})


def test_compute_point_rejects_unknown_mode_before_any_build(monkeypatch):
    monkeypatch.setattr(cli, "make_coupled_qubits", None)
    with pytest.raises(ValueError, match="^unknown mode 'bogus'; "
                                         "valid: redfield, lindblad$"):
        compute_point("coupled", "bogus", _COUPLED)


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


def _point_row(model, mode, value, params):
    """Cells of one grid point solved alone by compute_point, each number
    as format(x, ".12g"); an error it raises becomes an error row."""
    try:
        point = compute_point(model, mode, params)
    except (ValueError, LookupError, RuntimeError) as exc:
        n_cols = len(cli._MODELS[model].columns("x"))
        return [cli._fmt(value)] + [""] * (n_cols - 2) + [f"error: {exc}"]
    report = law_checks((params["ta"], point.currents["A"]),
                        (params["tb"], point.currents["B"]))
    resid = report.conservation_residual
    numbers = [value, *point.rho.populations.tolist()]
    if model == "coupled":
        rho23 = complex(point.rho.entries[1, 2])
        numbers += [rho23.real, rho23.imag]
    numbers += [point.currents["A"], point.currents["B"], resid,
                point.positivity.min_population]
    status = "ok"
    if resid >= cli.CONSERVATION_ROW_TOL:
        status = f"error: conservation residual {resid:.3e}"
    return [format(x, ".12g") for x in numbers] + [report.second_law, status]


def _csv_line(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


_AWKWARD = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 0.1 + 0.2,
            999999999999.5]


@pytest.mark.parametrize("n_numbers", [8, 12])     # single, coupled rows
def test_solved_lines_equal_csv_writer_lines(n_numbers):
    """Every row of a solved chunk is the line csv.writer writes for its
    cells format(x, ".12g"), the verdict and the status."""
    rows = [[_AWKWARD[(i + j) % len(_AWKWARD)] for j in range(n_numbers)]
            + [law, status]
            for i in range(len(_AWKWARD))
            for law, status in (("pass", "ok"), ("not-applicable", "ok"),
                                ("fail", "error: conservation residual "
                                         "1.000e-07"))]
    lines = cli._solved_lines([list(column) for column in zip(*rows)])
    assert lines == [_csv_line([format(x, ".12g") for x in row[:-2]]
                               + row[-2:]) for row in rows]


def test_error_line_quotes_its_message():
    exc = ValueError('bad value, "quoted"')
    coupled = cli._MODELS["coupled"]
    blanks = [""] * (len(coupled.columns("x")) - 2)
    want = _csv_line(["0.5", *blanks, 'error: bad value, "quoted"'])
    assert cli._error_line(coupled, 0.5, exc) == want
    assert want.endswith(',"error: bad value, ""quoted"""\n')


def _per_point_csv(model, mode, params, var, start, stop, count):
    """The sweep CSV built one grid point at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli._MODELS[model].columns(var))
    key_of = {f.name: k for k, f in cli._MODELS[model].flags.items()}
    half = 0.5 * (params["ta"] - params["tb"])
    for value in np.linspace(start, stop, count):
        value = float(value)
        p = dict(params)
        if var == "tm":
            p["ta"], p["tb"] = value + half, value - half
        else:
            p[key_of[var]] = value
        writer.writerow(_point_row(model, mode, value, p))
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
    # system parameters run one one-entry chunk per point
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


@pytest.mark.parametrize("params, var, start, stop, count", [
    (dict(_COUPLED, ta=10.0, tb=0.0), "tm", 3.0, 8.0, 21),     # fig5's window
    (dict(_COUPLED, ta=1.5), "lambda", 0.1, 2.0, 11),
])
def test_sweep_summary_reads_as_the_printed_cells(params, var, start, stop,
                                                  count):
    """n_bad counts the rows whose status is not ok, and the worst
    min_population is the smallest such cell of an ok row as printed,
    so --strict-positivity judges the number a reader of the CSV sees."""
    text, n_bad, min_pop = render_sweep("coupled", "redfield", params, var,
                                        start, stop, count, comments=False)
    _, header, rows = read_csv_text(text)
    ok = [float(r[header.index("min_population")]) for r in rows
          if r[-1] == "ok"]
    assert n_bad == len(rows) - len(ok) > 0
    assert min_pop == min(ok)


def test_bath_sweep_longer_than_chunk(monkeypatch):
    calls, solves, temperatures = [], [], []
    real_build = kernel.build_kernel
    real_solve = steady.solve_steady_state
    real_steady_point = cli.steady_point

    def counting_build(system, bath, reservoir, mode):
        calls.append(len(bath.temperatures))    # a sweep's BathColumns
        return real_build(system, bath, reservoir, mode)

    def counting_solve(liou, **kwargs):
        solves.append(liou.matrix.shape[:-2])
        return real_solve(liou, **kwargs)

    def spying_steady_point(system, baths, mode):
        temperatures.extend(baths["B"].temperatures)
        return real_steady_point(system, baths, mode)

    # steady_point looks each layer up on its module
    monkeypatch.setattr(kernel, "build_kernel", counting_build)
    monkeypatch.setattr(steady, "solve_steady_state", counting_solve)
    monkeypatch.setattr(cli, "steady_point", spying_steady_point)
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 4)
    params = dict(_COUPLED, ta=3.0, tb=1.0)
    text, n_bad, _ = render_sweep("coupled", "lindblad", params, "tm",
                                  -1.0, 4.0, 21, comments=False)
    # grid step 0.25; T_B = T - 1 is negative below T = 1, at 8 points
    assert n_bad == 8
    # 13 valid points: one build per reservoir and one stacked solve per
    # chunk of 4; the 8 invalid points never reach steady_point
    assert calls == [4, 4, 4, 4, 4, 4, 1, 1]
    assert solves == [(4,), (4,), (4,), (1,)]
    assert len(temperatures) == 13 and min(temperatures) >= 0
    monkeypatch.undo()
    assert text == _per_point_csv("coupled", "lindblad", params, "tm",
                                  -1.0, 4.0, 21)


@pytest.mark.parametrize("model, params, var, start, stop, count, chunk, "
                         "n_refused, lengths", [
    # T_B = T - 1 is refused below T = 1, at the first 8 of 21 points
    ("coupled", dict(_COUPLED, ta=3.0, tb=1.0), "tm", -1.0, 4.0, 21, 5, 8,
     [2, 5, 5, 1]),
    # g_A = -0.55 + 0.25 k is refused at the first 3 of 13 points
    ("single", _SINGLE, "ga", -0.55, 2.45, 13, 4, 3, [1, 4, 4, 1]),
])
def test_a_failing_run_splits_in_halves_off_the_chunk_boundaries(
        model, params, var, start, stop, count, chunk, n_refused, lengths,
        monkeypatch):
    """Refused points that end inside a run of SWEEP_CHUNK points: the
    run is split in halves until each refused point is a one-point run,
    so only the points that pass their checks reach steady_point, in the
    pinned runs, and every row is that of its point solved alone."""
    seen = []
    real_steady_point = cli.steady_point

    def spying_steady_point(system, baths, mode):
        seen.append(len(baths["A"].temperatures))
        return real_steady_point(system, baths, mode)

    monkeypatch.setattr(cli, "steady_point", spying_steady_point)
    monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
    text, n_bad, _ = render_sweep(model, "lindblad", params, var, start,
                                  stop, count, comments=False)
    assert n_bad == n_refused and sum(seen) == count - n_refused
    assert seen == lengths
    monkeypatch.undo()
    assert text == _per_point_csv(model, "lindblad", params, var, start,
                                  stop, count)


def test_system_sweep_is_one_one_entry_call_per_point(monkeypatch):
    lengths = []
    real_steady_point = cli.steady_point

    def spying_steady_point(system, baths, mode):
        lengths.append({r: len(b.temperatures) for r, b in baths.items()})
        return real_steady_point(system, baths, mode)

    monkeypatch.setattr(cli, "steady_point", spying_steady_point)
    _, n_bad, _ = render_sweep("coupled", "redfield", dict(_COUPLED, ta=1.5),
                               "w2", 1.5, 3.0, 7, comments=False)
    assert n_bad == 0
    assert lengths == [{"A": 1, "B": 1}] * 7


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_builds_bath_objects_independent_of_grid_count(name,
                                                              monkeypatch):
    """A preset's chunk hands its baths over as columns: the BathSpecs and
    SpectralDensities a sweep builds do not grow with its grid."""
    built = []
    real_post_init = bath.BathSpec.__post_init__
    real_init = bath.SpectralDensity.__init__

    def counting_post_init(self):
        built.append("BathSpec")
        real_post_init(self)

    def counting_init(self, *args, **kwargs):
        built.append("SpectralDensity")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(bath.BathSpec, "__post_init__", counting_post_init)
    monkeypatch.setattr(bath.SpectralDensity, "__init__", counting_init)
    cfg = PRESETS[name]
    params = {k: cfg[k] for k in cli._MODELS[cfg["model"]].flags}
    counts = []
    for count in (cfg["count"], 7):
        built.clear()
        render_sweep(cfg["model"], cfg["mode"], params, cfg["var"],
                     cfg["start"], cfg["stop"], count)
        counts.append((built.count("BathSpec"), built.count("SpectralDensity")))
    assert counts[0] == counts[1] and counts[0][1] <= 2


@pytest.mark.parametrize("model, mode, params, var, start, stop, count", [
    # T_A = T + 5 and T_B = T - 5: T_A < 0 below T = -5, T_B < 0 below 5,
    # and g = -0.5 is refused wherever both temperatures pass
    ("coupled", "lindblad", dict(_COUPLED, ta=10.0, tb=0.0, g=-0.5), "tm",
     -8.0, 8.0, 17),
    ("coupled", "redfield", dict(_COUPLED, ta=10.0, tb=0.0), "tm",
     -8.0, 8.0, 17),
    # g_A across 0, with T_B = -1 refused only past g_A's own check
    ("single", "lindblad", dict(_SINGLE, tb=-1.0), "ga", -1.0, 1.0, 9),
    ("single", "redfield", _SINGLE, "ga", -1.0, 1.0, 9),
])
def test_mixed_sweep_rows_carry_their_one_point_messages(
        model, mode, params, var, start, stop, count):
    """In sweeps where some points are refused, every refused row's status
    is the error its point raises alone, in grid order, and the solved
    rows are those of their points alone."""
    text, n_bad, _ = render_sweep(model, mode, params, var, start, stop,
                                  count, comments=False)
    rows = read_csv_text(text)[2]
    want = read_csv_text(_per_point_csv(model, mode, params, var, start,
                                        stop, count))[2]
    assert rows == want
    errors = [r[-1] for r in rows if r[-1] != "ok"]
    assert n_bad == len(errors) and len(set(errors)) > 1


@pytest.mark.parametrize("ta", [math.inf, -math.inf, math.nan, -0.0])
def test_sweep_rows_of_a_bad_temperature_carry_their_one_point_messages(ta):
    """A temperature the array test flags (inf, -inf, NaN) gets the error
    row its point raises alone, named before a coupling below 0; -0.0,
    which it passes, is solved where the coupling is good."""
    params = dict(_SINGLE, ta=ta)
    text, n_bad, _ = render_sweep("single", "lindblad", params, "ga",
                                  -1.0, 1.0, 5, comments=False)
    assert text == _per_point_csv("single", "lindblad", params, "ga",
                                  -1.0, 1.0, 5)
    rows = read_csv_text(text)[2]
    temperature_errors = sum("temperature" in r[-1] for r in rows)
    assert (n_bad, temperature_errors) == ((2, 0) if ta == 0.0 else (5, 5))


def test_a_sweep_checks_each_temperature_once(monkeypatch, capsys):
    """fig3's 161 points are each checked once per reservoir, by the
    BathColumns of their chunk: 322 calls of the temperature check."""
    calls = []
    check = bath._check_temperature

    def counted(T):
        calls.append(T)
        check(T)

    monkeypatch.setattr(bath, "_check_temperature", counted)
    assert main(["preset", "fig3"]) == 0
    capsys.readouterr()
    assert len(calls) == 2 * PRESETS["fig3"]["count"]


@pytest.mark.parametrize("model, mode, params, message", [
    ("triple", "lindblad", _COUPLED,
     "unknown model 'triple'; valid: single, coupled"),
    ("coupled", "bogus", _COUPLED,
     "unknown mode 'bogus'; valid: redfield, lindblad"),
    ("single", "lindblad", {k: v for k, v in _SINGLE.items() if k != "w0"},
     "model 'single' needs parameters w0"),
    ("coupled", "lindblad", dict(ta=1.0, tb=1.0),
     "model 'coupled' needs parameters w1, w2, lam, g"),
    # keys of no parameter of the model are refused, not echoed and ignored
    ("single", "lindblad", dict(_SINGLE, w1=9.0, lam=3.0),
     "model 'single' has no parameters w1, lam"),
    ("coupled", "lindblad", dict(_COUPLED, ga=0.0, gb=0.0),
     "model 'coupled' has no parameters ga, gb"),
    # missing keys are named first
    ("coupled", "lindblad", dict(ta=1.0, tb=1.0, w0=1.0),
     "model 'coupled' needs parameters w1, w2, lam, g"),
])
def test_render_sweep_refuses_unusable_input(model, mode, params, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        render_sweep(model, mode, params, "ta", 1.0, 2.0, 2)


@pytest.mark.parametrize("model, params, message", [
    ("single", {k: v for k, v in _SINGLE.items() if k != "w0"},
     "model 'single' needs parameters w0"),
    ("coupled", dict(_COUPLED, ga=0.0, gb=0.0),
     "model 'coupled' has no parameters ga, gb"),
    ("coupled", dict(ta=1.0, tb=1.0, w0=1.0),
     "model 'coupled' needs parameters w1, w2, lam, g"),
])
def test_compute_point_refuses_params_not_of_its_model(model, params,
                                                       message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compute_point(model, "lindblad", params)


def test_system_builders_find_the_constructors_when_called(monkeypatch):
    """A caller that rebinds cli's constructor names, as a tracer does,
    sees each system that a point or a sweep builds."""
    calls = []
    for name in ("make_single_qubit", "make_coupled_qubits"):
        def spy(*args, name=name, real=getattr(cli, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(cli, name, spy)
    compute_point("coupled", "lindblad", _COUPLED)
    render_sweep("single", "lindblad", _SINGLE, "w0", 0.5, 1.5, 3)
    assert calls == ["make_coupled_qubits"] + ["make_single_qubit"] * 3


def test_render_sweep_names_bad_params_before_a_bad_var():
    with pytest.raises(UsageError,
                       match="^model 'single' has no parameters lam$"):
        render_sweep("single", "lindblad", dict(_SINGLE, lam=0.5), "w1",
                     1.0, 2.0, 2)


def test_checked_record_is_the_one_model_and_mode_check():
    source = inspect.getsource(cli)
    check = inspect.getsource(cli._checked_record)
    for test in ("not in _MODELS", "not in MODES"):
        assert source.count(test) == check.count(test) == 1, test
    assert "is not None" not in inspect.getsource(cli._Model)
    assert "coherence is" not in source


def test_cli_keeps_no_per_model_branch_or_table():
    """Each model's schema lives in its _MODELS record: the module
    compares no model name and keeps none of the tables it replaced."""
    source = inspect.getsource(cli)
    assert re.search(r"model [=!]= \"", source) is None
    for name in ("_TEMPERATURE_KEY", "_COUPLING_KEY", "_SYSTEM_PARAMS",
                 "_MODEL_FLAGS", "_TEMPERATURES", "_SWEEP_FLAGS",
                 "_PARAM_KEY"):
        assert not hasattr(cli, name)
        assert re.search(rf"\b{name}\b", source) is None, name


@pytest.mark.parametrize("cfg, argv", [
    ({"ta": "abc"}, ["single"]),
    ({"ta": "2"}, ["sweep", "--var", "tm", "--range", "1:2:2"]),
    ({"model": "triple"}, ["sweep", "--var", "ta", "--range", "1:2:2"]),
    ({"no-header": "false"}, ["sweep", "--var", "ta", "--range", "1:2:2"]),
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
    for key, spec in cli._MODELS[model].flags.items():
        flag = spec.name
        for command in ([model], ["sweep", "--model", model, "--var", "ta",
                                  "--range", "0.5:0.6:2"]):
            assert main(command + [f"--{flag}", "0.55"]) == 0
            by_flag = capsys.readouterr().out
            cfg.write_text(json.dumps({flag: 0.55}))
            assert main(command + ["--config", str(cfg)]) == 0
            assert capsys.readouterr().out == by_flag
            assert f"{key}=0.55" in by_flag
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
    each prints in a fresh process, so no flag value carries over. The
    fresh processes all start before the in-process runs, and run
    alongside them."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ta": 3.0, "w0": 2.0}))
    invocations = [["single", "--ta", "3"], ["single"],
                   ["single", "--config", str(cfg), "--tb", "1.5"], ["single"],
                   ["single", "--bogus"], ["sweep", "--var", "ta"],
                   ["coupled", "--lambda", "0.3", "--mode", "redfield"],
                   ["coupled"], ["preset", "fig4", "--no-header"],
                   ["preset", "fig4"]]
    env = _fresh_process_env()
    fresh = [subprocess.Popen([sys.executable, "-m", "qheat.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env)
             for argv in invocations]
    try:
        for argv, process in zip(invocations, fresh):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out, err = process.communicate()
            assert (captured.out.encode(), captured.err.encode(), code) == \
                (out, err, process.returncode), argv
    finally:        # reap the processes a failed assertion left running
        for process in fresh:
            if process.returncode is None:
                process.kill()
                process.communicate()


def test_import_loads_no_scipy():
    """The package declares numpy as its only dependency, so importing it
    and its command line must not pull scipy in, even where it is
    installed."""
    probe = ("import sys, qheat, qheat.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         env=_fresh_process_env(), check=True, text=True)
    assert run.stdout == "[]\n"


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
