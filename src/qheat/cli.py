"""Command line front end.

Subcommands:
    single    one steady-state point of the driven qubit, text report
    coupled   one steady-state point of the coupled-qubit pair
    sweep     linear parameter sweep over either model, CSV output
    preset    canned sweeps fig3 / fig4 / fig5 (see PRESETS)

All physics goes through qheat.thermo.steady_point (kernel build,
nullspace solve, per-reservoir currents), never through the closed
forms, so CLI output exercises the same code path as any library caller:
compute_point returns the SteadyPoint of one steady_point call, and a
sweep over bath parameters is one call per chunk of grid points, its
rows written from the stacked result. Point reports, point rows and
chunk rows all take their first- and second-law verdicts from one
law_checks call on the currents and temperatures.

Sweeps accept the pseudo-variable "tm", the mean temperature: sweeping tm
moves T_A and T_B together, keeping their difference fixed at the value
implied by --ta/--tb.

CSV layout: optional '#' comment lines carrying the tool version and the
full configuration echo (suppressed by --no-header), then a column header
row, then one row per grid point with floats at 12 significant digits.
Grid points with invalid parameters, or whose solve fails a consistency
check, keep their row with the message in the status column while the
rest of the sweep continues. No timestamps anywhere: identical
configurations produce byte-identical files.

Each model parameter has one flag, which is also its config key and its
sweep variable name (see _MODEL_FLAGS). Values must be finite. A range
with a negative start needs the '=' form, --range=-1:4:21, because
argparse reads a bare -1:4:21 as a flag.

Configuration can also come from a JSON file via --config. Its keys are
the flag names. Each entry is parsed as the flag --key=value placed
before the command-line flags, so it passes the checks a flag passes and
explicit flags win. The switches strict-positivity and no-header take
true or false.

--out PATH rewrites an existing file in place and cuts it to the new
length, rather than truncating it first (see _write_output). main
builds its argparse tree once per process and reuses it on every call.

Exit codes: 0 success, 1 usage or configuration error, 2 physics or
numeric failure when --strict-positivity is set.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .bath import BathSpec
# not called here; perfbench/test_perfbench.py reads cli.build_kernel
from .kernel import build_kernel  # noqa: F401
from .steady import POSITIVITY_TOL
from .system import make_coupled_qubits, make_single_qubit
from .thermo import CurrentReport, SteadyPoint, law_checks, steady_point

__all__ = ["PRESETS", "compute_point", "main", "render_sweep"]


class UsageError(Exception):
    """Bad flags or configuration; reported on stderr with exit code 1."""


RESERVOIRS = ("A", "B")
_TEMPERATURE_KEY = {"A": "ta", "B": "tb"}
_COUPLING_KEY = {"single": {"A": "ga", "B": "gb"},
                 "coupled": {"A": "g", "B": "g"}}


# params keys of each model's system; every other parameter sets the baths
_SYSTEM_PARAMS = {"single": ("w0",), "coupled": ("w1", "w2", "lam")}


def _model_system(model: str, params: dict):
    if model not in _SYSTEM_PARAMS:
        raise ValueError(f"unknown model {model!r}")
    args = [params[k] for k in _SYSTEM_PARAMS[model]]
    return (make_single_qubit(*args) if model == "single"
            else make_coupled_qubits(*args)[0])


def _baths(model: str, params: dict) -> dict:
    return {r: BathSpec(temperature=params[_TEMPERATURE_KEY[r]],
                        spectral_density=params[_COUPLING_KEY[model][r]],
                        label=r)
            for r in RESERVOIRS}


def compute_point(model: str, mode: str, params: dict) -> SteadyPoint:
    """The steady_point result at one parameter point.

    params for model "single": w0, ga, gb, ta, tb; for model "coupled":
    w1, w2, lam, g, ta, tb (g applies to both reservoirs).
    """
    return steady_point(_model_system(model, params), _baths(model, params),
                        mode)


def _law_report(currents: dict, ta, tb) -> CurrentReport:
    """law_checks of the two reservoirs' currents at temperatures ta and
    tb: numbers for one point, sequences for a sweep chunk."""
    return law_checks([("A", ta, currents["A"]), ("B", tb, currents["B"])])


# ---------------------------------------------------------------- parsing

# Each model's parameters as flag -> (default, help). The flag name is
# also the config key and the sweep variable; --lambda is stored under
# the params key "lam".
_TEMPERATURES = {"ta": (1.0, "temperature of A"), "tb": (1.0, "temperature of B")}
_MODEL_FLAGS = {
    "single": {"w0": (1.0, "qubit splitting"),
               "ga": (1.0, "reservoir A coupling"),
               "gb": (1.0, "reservoir B coupling"),
               **_TEMPERATURES},
    "coupled": {"w1": (1.0, "qubit 1 splitting"),
                "w2": (2.0, "qubit 2 splitting"),
                "lambda": (0.5, "flip-flop coupling"),
                "g": (1.0, "coupling of both reservoirs"),
                **_TEMPERATURES},
}
_SWEEP_FLAGS = {**_MODEL_FLAGS["single"], **_MODEL_FLAGS["coupled"]}
_PARAM_KEY = {"lambda": "lam"}      # params key of a flag, if not the flag


PRESETS = {
    # populations vs mean temperature in equilibrium (dT = 0)
    "fig3": dict(model="coupled", mode="lindblad", w1=1.0, w2=2.0, lam=0.5,
                 g=1.0, ta=1.0, tb=1.0, var="tm", start=0.05, stop=8.0,
                 count=161),
    # currents vs T_A around the equilibrium crossing at T_A = T_B = 1
    "fig4": dict(model="coupled", mode="lindblad", w1=1.0, w2=2.0, lam=0.5,
                 g=1.0, ta=1.0, tb=1.0, var="ta", start=0.5, stop=1.5,
                 count=101),
    # non-secular populations vs mean temperature at fixed T_A - T_B = 10,
    # so T_A = T + 5 and T_B = T - 5 along the sweep (T_B = 0 at the start)
    "fig5": dict(model="coupled", mode="redfield", w1=1.0, w2=2.0, lam=0.5,
                 g=1.0, ta=10.0, tb=0.0, var="tm", start=5.0, stop=8.0,
                 count=161),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; this tool reserves 2
    # for physics failures, so route usage errors to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def config_tokens(self, path: str) -> list:
        """A JSON config file's entries as --key=value tokens for this
        parser: true/false switch a flag, a string for a text flag goes in
        verbatim, any other value as its JSON text (so "2" is no float)."""
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError(f"config {path!r} must hold a JSON object")
        known = {opt[2:]: action for action in self._actions
                 for opt in action.option_strings
                 if opt.startswith("--") and action.dest not in ("help", "config")}
        unknown = sorted(set(cfg) - set(known))
        if unknown:
            raise UsageError(f"unknown config keys {unknown}; known: {sorted(known)}")
        tokens = []
        for key, value in cfg.items():
            if known[key].nargs == 0 and isinstance(value, bool):
                tokens += [f"--{key}"] if value else []
            elif isinstance(value, str) and known[key].type is None:
                tokens.append(f"--{key}={value}")
            else:
                tokens.append(f"--{key}={json.dumps(value)}")
        return tokens


def _add_model_flags(p, flags: dict) -> None:
    for flag, (default, text) in flags.items():
        p.add_argument(f"--{flag}", type=float, default=argparse.SUPPRESS,
                       help=f"{text} (default {default:g})")
    p.add_argument("--mode", choices=("lindblad", "redfield"),
                   default="lindblad", help="kernel mode (default lindblad)")


def _add_common(p, run):
    p.add_argument("--out", default=None,
                   help="output path; '-' or unset writes to stdout")
    p.add_argument("--config", default=None,
                   help="JSON file with values for any flag; explicit flags win")
    p.add_argument("--strict-positivity", action="store_true",
                   help="exit 2 when the steady state is not positive")
    p.add_argument("--no-header", action="store_true",
                   help="omit the '#' comment lines from CSV output")
    p.set_defaults(parser=p, run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qheat",
                     description="Steady states and heat currents of few-level "
                                 "systems between bosonic heat reservoirs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for model in _MODEL_FLAGS:
        p = sub.add_parser(model, help=f"{model}-qubit steady-state point")
        _add_model_flags(p, _MODEL_FLAGS[model])
        _add_common(p, functools.partial(_point_command, model))

    p = sub.add_parser("sweep", help="linear parameter sweep, CSV output")
    p.add_argument("--model", choices=tuple(_MODEL_FLAGS), default="coupled",
                   help="model to sweep (default coupled)")
    _add_model_flags(p, _SWEEP_FLAGS)
    p.add_argument("--var", default=None,
                   help="swept parameter name; 'tm' sweeps the mean temperature "
                        "at fixed T_A - T_B")
    p.add_argument("--range", dest="range_spec", default=None,
                   metavar="START:STOP:COUNT",
                   help="inclusive linear grid, e.g. 0.5:1.5:101; write "
                        "--range=-1:4:21 for a negative start")
    _add_common(p, _cmd_sweep)

    p = sub.add_parser("preset", help="canned figure sweeps")
    p.add_argument("name", choices=sorted(PRESETS))
    _add_common(p, _cmd_preset)
    return parser


def _model_params(model: str, args) -> dict:
    """The model's parameters: each flag given, else its table default.
    A flag of the other model is refused rather than ignored."""
    given = vars(args)
    foreign = [f for f in _SWEEP_FLAGS if f in given and f not in _MODEL_FLAGS[model]]
    if foreign:
        raise UsageError(f"model {model!r} has no parameter --{foreign[0]}")
    return {_PARAM_KEY.get(flag, flag): given.get(flag, default)
            for flag, (default, _) in _MODEL_FLAGS[model].items()}


# ---------------------------------------------------------------- sweeps

def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _sweep_columns(model: str, var: str):
    if model == "single":
        pops = ["pop_1", "pop_2"]
        cohs = []
    else:
        pops = ["pop_1", "pop_2", "pop_3", "pop_4"]
        cohs = ["rho23_re", "rho23_im"]
    return ([var] + pops + cohs
            + ["q_A", "q_B", "conservation_residual", "min_population",
               "second_law", "status"])


CONSERVATION_ROW_TOL = 1e-8
SWEEP_CHUNK = 256           # grid points per batched kernel build and solve
_POINT_ERRORS = (ValueError, LookupError, RuntimeError)


def _sweep_row(model, value, rho, q_a, q_b, min_population, resid,
               second_law):
    """Row of one solved grid point from plain values: rho the N x N
    steady-state matrix, the two currents, the smallest population, and
    the law checks' conservation residual and second-law verdict."""
    cohs = []
    if model == "coupled":
        cohs = [_fmt(rho[1, 2].real), _fmt(rho[1, 2].imag)]
    status = "ok"
    if resid >= CONSERVATION_ROW_TOL:
        status = f"error: conservation residual {resid:.3e}"
    return ([_fmt(value)] + [_fmt(p) for p in np.diagonal(rho).real] + cohs
            + [_fmt(q_a), _fmt(q_b), _fmt(resid), _fmt(min_population),
               second_law, status])


def _point_row(model, mode, value, params):
    """Row of one grid point solved alone; an error it raises becomes an
    error row."""
    try:
        point = compute_point(model, mode, params)
    except _POINT_ERRORS as exc:
        n_cols = len(_sweep_columns(model, "x"))
        return [_fmt(value)] + [""] * (n_cols - 2) + [f"error: {exc}"]
    report = _law_report(point.currents, params["ta"], params["tb"])
    return _sweep_row(model, value, point.rho.entries, point.currents["A"],
                      point.currents["B"], point.positivity.min_population,
                      report.conservation_residual, report.second_law)


def parse_range(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be START:STOP:COUNT, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad range {spec!r}: {exc}") from exc
    for name, bound in (("start", start), ("stop", stop)):
        if not math.isfinite(bound):
            raise UsageError(f"range {name} must be finite, got {bound}")
    if count < 2:
        raise UsageError(f"range needs count >= 2, got {count}")
    if not start < stop:
        raise UsageError(f"range needs start < stop, got {start} .. {stop}")
    return start, stop, count


def _bath_sweep_rows(model, mode, base_params, points):
    """Rows of a sweep whose grid points differ only in their baths.

    The system is built once. Per chunk of SWEEP_CHUNK grid points one
    steady_point call gets each reservoir's baths as a list, so every
    layer runs once on the chunk's (B, N^2, N^2) stack, law_checks runs
    once on the chunk's current and temperature arrays, and each row is
    written from that entry's plain values (its N x N matrix, currents,
    smallest population, residual and verdict). Stack entries are
    bit-identical to one-point results, so every row equals the row of
    the point solved alone. Points whose baths are invalid, and all points of a chunk in
    which any layer raises, are solved one at a time, so each error row
    carries the message a one-point run gives.
    """
    try:
        system = _model_system(model, base_params)
    except _POINT_ERRORS:
        return [_point_row(model, mode, v, p) for v, p in points]
    rows = [None] * len(points)
    batch = []
    for i, (value, params) in enumerate(points):
        try:
            batch.append((i, _baths(model, params)))
        except _POINT_ERRORS:
            rows[i] = _point_row(model, mode, value, params)
    for start in range(0, len(batch), SWEEP_CHUNK):
        chunk = batch[start:start + SWEEP_CHUNK]
        try:
            stack = steady_point(system, {r: [baths[r] for _, baths in chunk]
                                          for r in RESERVOIRS}, mode)
        except _POINT_ERRORS:
            for i, _ in chunk:
                rows[i] = _point_row(model, mode, *points[i])
            continue
        q, min_pop = stack.currents, stack.positivity.min_population
        params = [points[i][1] for i, _ in chunk]
        report = _law_report(q, [p["ta"] for p in params],
                             [p["tb"] for p in params])
        resid, verdict = report.conservation_residual, report.second_law
        for j, (i, _) in enumerate(chunk):
            rows[i] = _sweep_row(model, points[i][0], stack.rho.entries[j],
                                 q["A"][j], q["B"][j], min_pop[j], resid[j],
                                 verdict[j])
        del stack       # its stacks must not outlive this chunk into the next
    return rows


def render_sweep(model: str, mode: str, base_params: dict, var: str,
                 start: float, stop: float, count: int,
                 comments: bool = True):
    """Run the sweep and return (csv_text, n_error_rows, worst_min_population).

    Sweeps over a system parameter (_SYSTEM_PARAMS) run steady_point per
    point; every other sweep builds the system once and runs steady_point
    once per chunk of grid points, on (B, N^2, N^2) stacks.
    Either way every row equals the one-point row at that grid point,
    and rows follow the grid, so output is deterministic for a fixed
    configuration.
    """
    valid = (*_MODEL_FLAGS.get(model, ()), "tm")
    if var not in valid:
        raise UsageError(f"cannot sweep {var!r} for model {model!r}; "
                         f"valid: {', '.join(valid)}")
    var_param = _PARAM_KEY.get(var, var)
    if var == "tm":
        dt_half = 0.5 * (base_params["ta"] - base_params["tb"])
    points = []
    for value in np.linspace(start, stop, count):
        value = float(value)
        p = dict(base_params)
        if var == "tm":
            p["ta"] = value + dt_half
            p["tb"] = value - dt_half
        else:
            p[var_param] = value
        points.append((value, p))
    if var_param in _SYSTEM_PARAMS.get(model, ()):
        rows = [_point_row(model, mode, v, p) for v, p in points]
    else:
        rows = _bath_sweep_rows(model, mode, base_params, points)

    n_bad = sum(1 for r in rows if r[-1] != "ok")
    min_pop = min((float(r[-3]) for r in rows if r[-1] == "ok"), default=0.0)
    buf = io.StringIO()
    if comments:
        echo = " ".join(
            f"{k}={v}" for k, v in sorted(
                {**{k: _fmt(v) for k, v in base_params.items()},
                 "model": model, "mode": mode, "var": var,
                 "range": f"{_fmt(start)}:{_fmt(stop)}:{count}"}.items()))
        buf.write(f"# qheat {__version__}\n")
        buf.write(f"# {echo}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_sweep_columns(model, var))
    writer.writerows(rows)
    return buf.getvalue(), n_bad, min_pop


# ---------------------------------------------------------------- reports

def format_point_report(model, mode, params, point: SteadyPoint) -> str:
    report = _law_report(point.currents, params["ta"], params["tb"])
    lines = [f"model: {model} (mode {mode})",
             "parameters: " + " ".join(f"{k}={_fmt(v)}"
                                       for k, v in sorted(params.items())),
             "populations:"]
    for i, p in enumerate(point.rho.populations, start=1):
        lines.append(f"  rho_{i}{i} = {_fmt(p)}")
    off = point.rho.coherences
    peak = float(abs(off).max()) if off.size else 0.0
    if peak > 1e-12:
        lines.append("coherences:")
        n = point.rho.dim
        for i in range(n):
            for j in range(n):
                z = point.rho.entries[i, j]
                if i != j and abs(z) > 1e-12:
                    lines.append(f"  rho_{i + 1}{j + 1} = {_fmt(z.real)}"
                                 f"{z.imag:+.12g}j")
    else:
        lines.append(f"coherences: none above 1e-12 (max {peak:.3e})")
    lines += [f"q_A = {_fmt(point.currents['A'])}",
              f"q_B = {_fmt(point.currents['B'])}",
              f"conservation residual = {report.conservation_residual:.3e}",
              f"second law: {report.second_law}",
              f"min population = {_fmt(point.positivity.min_population)}",
              f"min eigenvalue = {_fmt(point.positivity.min_eigenvalue)}",
              f"solver residual = {point.solve_info.residual:.3e}"]
    return "\n".join(lines) + "\n"


def _write_output(path, text) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        # no O_TRUNC: truncating a non-empty file first costs ~20 ms on ext4
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline="") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------- commands

def _point_command(model: str, args) -> int:
    params = _model_params(model, args)
    try:
        point = compute_point(model, args.mode, params)
    except (ValueError, LookupError) as exc:
        print(f"qheat: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"qheat: {exc}", file=sys.stderr)
        return 2 if args.strict_positivity else 1
    _write_output(args.out, format_point_report(model, args.mode, params, point))
    if args.strict_positivity and \
            point.positivity.min_eigenvalue < -POSITIVITY_TOL:
        print(f"qheat: steady state fails positivity: min eigenvalue "
              f"{point.positivity.min_eigenvalue:.6e}", file=sys.stderr)
        return 2
    return 0


def _sweep_from_config(args, model, mode, params, var, start, stop, count) -> int:
    text, n_bad, min_pop = render_sweep(model, mode, params, var, start, stop,
                                        count, comments=not args.no_header)
    _write_output(args.out, text)
    if n_bad:
        print(f"qheat: {n_bad} grid point(s) carry an error marker",
              file=sys.stderr)
    if args.strict_positivity and (n_bad or min_pop < -POSITIVITY_TOL):
        return 2
    return 0


def _cmd_sweep(args) -> int:
    if args.var is None or args.range_spec is None:
        raise UsageError("sweep needs both --var and --range")
    return _sweep_from_config(args, args.model, args.mode,
                              _model_params(args.model, args), args.var,
                              *parse_range(args.range_spec))


def _cmd_preset(args) -> int:
    cfg = dict(PRESETS[args.name])
    params = {k: cfg[k] for k in cfg
              if k not in ("model", "mode", "var", "start", "stop", "count")}
    return _sweep_from_config(args, cfg["model"], cfg["mode"], params,
                              cfg["var"], cfg["start"], cfg["stop"],
                              cfg["count"])


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config entries go first, so the command-line flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + args.parser.config_tokens(args.config) + argv[at:])
        return args.run(args)
    except UsageError as exc:
        print(f"qheat: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
