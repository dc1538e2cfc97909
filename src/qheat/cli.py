"""Command line front end.

Subcommands:
    single    one steady-state point of the driven qubit, text report
    coupled   one steady-state point of the coupled-qubit pair
    sweep     linear parameter sweep over either model, CSV output
    preset    canned sweeps fig3 / fig4 / fig5 (see PRESETS)

All physics goes through qheat.thermo.steady_point (kernel build,
nullspace solve, per-reservoir currents), never through the closed
forms, so CLI output exercises the same code path as any library caller:
compute_point returns the SteadyPoint of one steady_point call. A sweep
has one path, _sweep_rows: each run of consecutive grid points that
share one system hands its grid columns to one BathColumns per reservoir
and is one steady_point call, and a run that raises splits in halves
down to the points that raise. The sweep runs as columns from the grid
to the CSV text, with no dict or bath object per grid point. Point
reports and sweep rows take their first- and second-law verdicts from
one law_checks call on the currents and temperatures, and one first-law
rule (_first_law_error) judges both: a point whose |q_A + q_B| reaches
CONSERVATION_ROW_TOL is an error row in a sweep and is refused by the
point command with the same message.

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

Each model is one record in _MODELS, and each of its parameters has one
flag, which is also its config key and its sweep variable name. A params
dict must hold exactly its model's keys, and values must be finite. A
range with a negative start needs the '=' form, --range=-1:4:21,
because argparse reads a bare -1:4:21 as a flag.

Configuration can also come from a JSON file via --config. Its keys are
the flag names. Each entry is parsed as the flag --key=value placed
before the command-line flags, so it passes the checks a flag passes and
explicit flags win. The switches strict-positivity and no-header take
true or false. A null, an array or an object is refused for any key,
and true or false for any other key (exit 1).

--out PATH rewrites an existing file in place and cuts it to the new
length, rather than truncating it first (see _write_output). main
builds its argparse tree once per process and reuses it on every call.

Exit codes: 0 success, 1 usage or configuration error or a refused
point, 2 physics or numeric failure (a RuntimeError, the first-law
refusal among them) when --strict-positivity is set.
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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bath import BathColumns, BathSpec
from .kernel import MODES
# not called here; perfbench/test_perfbench.py reads cli.build_kernel
from .kernel import build_kernel  # noqa: F401
from .steady import POSITIVITY_TOL
from .system import make_coupled_qubits, make_single_qubit
from .thermo import CurrentReport, SteadyPoint, law_checks, steady_point

__all__ = ["PRESETS", "compute_point", "main", "render_sweep"]


class UsageError(Exception):
    """Bad flags or configuration; reported on stderr with exit code 1."""


RESERVOIRS = ("A", "B")
# A model parameter's flag, which is also its config key and its sweep
# variable, with its default and help text.
_Flag = NamedTuple("_Flag", [("name", str), ("default", float), ("help", str)])
# each reservoir's temperature flag by params key, the same in both models
_TEMPERATURE_FLAGS = {"ta": _Flag("ta", 1.0, "temperature of A"),
                      "tb": _Flag("tb", 1.0, "temperature of B")}


class _Model(NamedTuple):
    """One model's parameter schema and what a sweep row prints of it.
    build_system looks the system constructor up in this module when it
    runs, so a caller that rebinds that name (a tracer) sees each call."""
    flags: dict                 # params key -> _Flag, in --help order
    system_keys: tuple          # params keys of the system, in builder order
    build_system: Callable      # the SystemSpec at those keys' values
    coupling_keys: tuple        # params key of each reservoir's coupling
    n_levels: int               # one population column per level
    coherences: tuple           # (i, j) of each coherence a row prints

    def columns(self, var: str) -> list:
        """A sweep's column header, with var the swept variable."""
        cells = [f"pop_{i}" for i in range(1, self.n_levels + 1)]
        for i, j in self.coherences:
            cells += [f"rho{i + 1}{j + 1}_re", f"rho{i + 1}{j + 1}_im"]
        return [var, *cells, "q_A", "q_B", "conservation_residual",
                "min_population", "second_law", "status"]


_MODELS = {
    "single": _Model(
        flags={"w0": _Flag("w0", 1.0, "qubit splitting"),
               "ga": _Flag("ga", 1.0, "reservoir A coupling"),
               "gb": _Flag("gb", 1.0, "reservoir B coupling"),
               **_TEMPERATURE_FLAGS},
        system_keys=("w0",),
        build_system=lambda w0: make_single_qubit(w0),
        coupling_keys=("ga", "gb"), n_levels=2, coherences=()),
    "coupled": _Model(
        flags={"w1": _Flag("w1", 1.0, "qubit 1 splitting"),
               "w2": _Flag("w2", 2.0, "qubit 2 splitting"),
               "lam": _Flag("lambda", 0.5, "flip-flop coupling"),
               "g": _Flag("g", 1.0, "coupling of both reservoirs"),
               **_TEMPERATURE_FLAGS},
        system_keys=("w1", "w2", "lam"),
        build_system=lambda w1, w2, lam: make_coupled_qubits(w1, w2, lam)[0],
        coupling_keys=("g", "g"), n_levels=4, coherences=((1, 2),)),
}


def _checked_record(model: str, mode: str, params, error) -> _Model:
    """The model's record, once model and mode are known and params holds
    exactly the record's params keys; else error, naming the unknown
    model or mode, the keys params misses or those the model lacks."""
    if model not in _MODELS:
        raise error(f"unknown model {model!r}; valid: {', '.join(_MODELS)}")
    if mode not in MODES:
        raise error(f"unknown mode {mode!r}; valid: {', '.join(MODES)}")
    record = _MODELS[model]
    missing = [k for k in record.flags if k not in params]
    if missing:
        raise error(f"model {model!r} needs parameters {', '.join(missing)}")
    unknown = [str(k) for k in params if k not in record.flags]
    if unknown:
        raise error(f"model {model!r} has no parameters {', '.join(unknown)}")
    return record


def compute_point(model: str, mode: str, params: dict) -> SteadyPoint:
    """The steady_point result at one parameter point.

    params holds exactly the params keys of the model's record in
    _MODELS: w0, ga, gb, ta, tb for "single"; w1, w2, lam, g, ta, tb for
    "coupled" (g applies to both reservoirs). An unknown model or mode,
    or any other params, is a ValueError raised before anything is built.
    """
    record = _checked_record(model, mode, params, ValueError)
    system = record.build_system(*(params[k] for k in record.system_keys))
    baths = {r: BathSpec(temperature=params[t], spectral_density=params[g])
             for r, t, g in zip(RESERVOIRS, _TEMPERATURE_FLAGS,
                                record.coupling_keys)}
    return steady_point(system, baths, mode)


# ---------------------------------------------------------------- parsing

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
        verbatim, any other value as its JSON text (so "2" is no float).
        A null, an array, an object, or true/false for a flag that is no
        switch, is refused with a UsageError naming its key."""
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
            switch = known[key].nargs == 0
            if value is None or isinstance(value, (list, dict)) or \
                    (isinstance(value, bool) and not switch):
                raise UsageError(f"config {path!r} sets {key!r} to "
                                 f"{json.dumps(value)}; give a value or leave "
                                 f"the key out")
            if switch and isinstance(value, bool):
                tokens += [f"--{key}"] if value else []
            elif isinstance(value, str) and known[key].type is None:
                tokens.append(f"--{key}={value}")
            else:
                tokens.append(f"--{key}={json.dumps(value)}")
        return tokens


def _add_model_flags(p, flags) -> None:
    for flag in flags.values():
        p.add_argument(f"--{flag.name}", type=float, default=argparse.SUPPRESS,
                       help=f"{flag.help} (default {flag.default:g})")
    p.add_argument("--mode", choices=sorted(MODES),
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
    for model, record in _MODELS.items():
        p = sub.add_parser(model, help=f"{model}-qubit steady-state point")
        _add_model_flags(p, record.flags)
        _add_common(p, functools.partial(_point_command, model))

    p = sub.add_parser("sweep", help="linear parameter sweep, CSV output")
    p.add_argument("--model", choices=tuple(_MODELS), default="coupled",
                   help="model to sweep (default coupled)")
    _add_model_flags(p, _all_flags())
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


def _all_flags() -> dict:
    """Every model's flags by name, in first-seen order: sweep's flags."""
    return {f.name: f for record in _MODELS.values()
            for f in record.flags.values()}


def _model_params(model: str, args) -> dict:
    """The model's parameters: each flag given, else its record default.
    A flag of the other model is refused rather than ignored."""
    given = vars(args)
    flags = _MODELS[model].flags
    own = {f.name for f in flags.values()}
    foreign = [f for f in _all_flags() if f in given and f not in own]
    if foreign:
        raise UsageError(f"model {model!r} has no parameter --{foreign[0]}")
    return {k: given.get(f.name, f.default) for k, f in flags.items()}


# ---------------------------------------------------------------- sweeps

def _fmt(x) -> str:
    return f"{float(x):.12g}"


CONSERVATION_ROW_TOL = 1e-8
SWEEP_CHUNK = 256           # grid points per batched kernel build and solve
_POINT_ERRORS = (ValueError, LookupError, RuntimeError)


def _first_law_error(residual: float):
    """The refusal of a point whose currents break the first law, |q_A +
    q_B| at or above CONSERVATION_ROW_TOL, or None where they keep it:
    the message of a sweep's error row and of the point command's
    refusal."""
    if residual >= CONSERVATION_ROW_TOL:
        return f"conservation residual {residual:.3e}"
    return None


def _solved_lines(columns) -> list:
    """One CSV line per row of columns, equally long lists: numbers in
    every column but the last two, the second-law verdict and the status
    in those. Each line is the one csv.writer writes for the cells
    format(x, ".12g") and the two texts, as none of them needs quoting:
    a number's cell holds only digits, signs, '.', 'e', 'inf' or 'nan',
    and neither verdicts nor solved statuses hold a comma or a quote."""
    fmt = ",".join(["%.12g"] * (len(columns) - 2) + ["%s", "%s\n"])
    return list(map(fmt.__mod__, zip(*columns)))


def _error_line(record: _Model, value, exc) -> str:
    """CSV line of a grid point whose parameters or solve raised exc,
    written by csv.writer, which quotes a message holding a comma or a
    quote."""
    buf = io.StringIO()
    n_cols = len(record.columns("x"))
    csv.writer(buf, lineterminator="\n").writerow(
        [_fmt(value)] + [""] * (n_cols - 2) + [f"error: {exc}"])
    return buf.getvalue()


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


def _sweep_rows(record: _Model, mode, values, grid):
    """CSV lines of the sweep's grid points in grid order, the number of
    error rows, and the smallest min_population of the ok rows (None if
    there is none).

    values holds the swept variable at each grid point, and grid maps
    each params key of the record to its column of values, one per grid
    point. The grid is cut into runs of consecutive points that share
    one system key (the record.system_keys values), at most SWEEP_CHUNK
    long. A run builds its system once, hands each reservoir's
    temperature and coupling columns to one BathColumns, which checks
    them as BathSpec checks one point, and makes one steady_point call:
    every layer runs once on the run's (B, N^2, N^2) stack and law_checks
    once on its current and temperature arrays. A run that raises, in
    its system, its baths or its solve, is split in halves; a one-point
    run that raises is an error row with the message its point raises
    alone. Stack entries are bit-identical to one-point results, so every
    row equals the row of its point solved alone, and _first_law_error
    marks a row whose currents break the first law as the point command
    refuses it. A solved run's rows are written from its columns by
    _solved_lines.
    """
    lines = [None] * len(values)
    n_bad, ok_pops = 0, []
    runs, start = [], 0
    keys = list(zip(*(grid[k] for k in record.system_keys)))
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i] != keys[start] \
                or i - start == SWEEP_CHUNK:
            runs.append((start, i))
            start = i
    runs.reverse()
    while runs:                 # a stack: split runs are solved next
        lo, hi = runs.pop()
        try:
            system = record.build_system(*keys[lo])
            baths = {r: BathColumns(grid[t][lo:hi], grid[g][lo:hi])
                     for r, t, g in zip(RESERVOIRS, _TEMPERATURE_FLAGS,
                                        record.coupling_keys)}
            stack = steady_point(system, baths, mode)
        except _POINT_ERRORS as exc:
            if hi - lo == 1:
                lines[lo] = _error_line(record, values[lo], exc)
                n_bad += 1
            else:
                mid = (lo + hi) // 2
                runs += [(mid, hi), (lo, mid)]
            continue
        report = law_checks((baths["A"].temperatures, stack.currents["A"]),
                            (baths["B"].temperatures, stack.currents["B"]))
        resid = report.conservation_residual.tolist()
        min_pop = stack.positivity.min_population.tolist()
        status = ["ok" if (e := _first_law_error(r)) is None else f"error: {e}"
                  for r in resid]
        ok = [m for m, s in zip(min_pop, status) if s == "ok"]
        n_bad += hi - lo - len(ok)
        ok_pops += ok
        cohs = []
        for p, q in record.coherences:
            rho_pq = stack.rho.entries[:, p, q]
            cohs += [rho_pq.real.tolist(), rho_pq.imag.tolist()]
        columns = (values[lo:hi], *stack.rho.populations.T.tolist(), *cohs,
                   stack.currents["A"].tolist(), stack.currents["B"].tolist(),
                   resid, min_pop, report.second_law.tolist(), status)
        lines[lo:hi] = _solved_lines(columns)
        del stack       # its stacks must not outlive this run into the next
    return lines, n_bad, min(ok_pops, default=None)


def render_sweep(model: str, mode: str, base_params: dict, var: str,
                 start: float, stop: float, count: int,
                 comments: bool = True):
    """Run the sweep and return (csv_text, n_error_rows, worst_min_population).

    The grid is kept as columns: the swept values, and one list per
    params key of the model's record in _MODELS. Every row comes from
    _sweep_rows and equals the row of its point solved alone. Rows follow
    the grid, so output is deterministic for a fixed configuration. The
    worst min_population is that of the ok rows, as its cell prints it
    (0.0 if no row is ok). An unknown model or mode, base_params missing
    a params key of the model or holding one it lacks, or an unknown
    sweep variable, is a UsageError, in that order.
    """
    record = _checked_record(model, mode, base_params, UsageError)
    key_of = {f.name: k for k, f in record.flags.items()}
    valid = (*key_of, "tm")
    if var not in valid:
        raise UsageError(f"cannot sweep {var!r} for model {model!r}; "
                         f"valid: {', '.join(valid)}")
    values = np.linspace(start, stop, count).tolist()
    grid = {k: [base_params[k]] * count for k in record.flags}
    if var == "tm":
        dt_half = 0.5 * (base_params["ta"] - base_params["tb"])
        grid["ta"] = [value + dt_half for value in values]
        grid["tb"] = [value - dt_half for value in values]
    else:
        grid[key_of[var]] = values
    lines, n_bad, worst = _sweep_rows(record, mode, values, grid)

    # the worst population as its cell prints it, so --strict-positivity
    # judges the number the CSV shows
    min_pop = 0.0 if worst is None else float(format(worst, ".12g"))
    buf = io.StringIO()
    if comments:
        echo = " ".join(
            f"{k}={v}" for k, v in sorted(
                {**{k: _fmt(v) for k, v in base_params.items()},
                 "model": model, "mode": mode, "var": var,
                 "range": f"{_fmt(start)}:{_fmt(stop)}:{count}"}.items()))
        buf.write(f"# qheat {__version__}\n")
        buf.write(f"# {echo}\n")
    csv.writer(buf, lineterminator="\n").writerow(record.columns(var))
    buf.writelines(lines)
    return buf.getvalue(), n_bad, min_pop


# ---------------------------------------------------------------- reports

def format_point_report(model, mode, params, point: SteadyPoint,
                        report: CurrentReport) -> str:
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
        for i, j in np.argwhere(abs(off) > 1e-12):
            z = off[i, j]
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
    """Print one point's report; a point whose solve raises, or whose
    currents break the first law (_first_law_error, the sweep's rule), is
    refused on stderr instead, with exit code 1 (2 for a RuntimeError
    under --strict-positivity)."""
    params = _model_params(model, args)
    try:
        point = compute_point(model, args.mode, params)
        report = law_checks((params["ta"], point.currents["A"]),
                            (params["tb"], point.currents["B"]))
        refusal = _first_law_error(report.conservation_residual)
        if refusal is not None:
            raise RuntimeError(refusal)
    except _POINT_ERRORS as exc:
        print(f"qheat: {exc}", file=sys.stderr)
        strict = args.strict_positivity and isinstance(exc, RuntimeError)
        return 2 if strict else 1
    _write_output(args.out,
                  format_point_report(model, args.mode, params, point, report))
    if args.strict_positivity and not point.positivity.positive:
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
    cfg = PRESETS[args.name]
    params = {k: cfg[k] for k in _MODELS[cfg["model"]].flags}
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
