"""Output checks against references the pipeline does not share.

Every check returns the number of comparisons it made and a list of
failure messages (empty when the output is right). The checks run
outside the timed intervals. The nullspace reference for the relaxation
check is bound here at import time, before any tracing wraps the module
attributes, so check work never shows up as a pipeline span.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from qheat import models
from qheat.steady import solve_steady_state as reference_solve

TOL = 1e-10             # closed forms, residual, first law, CSV cells
RELAX_TOL = 1e-6        # propagated state against the nullspace state
EXACT_COLUMNS = ("second_law", "status")


def agree(a, b, tol=TOL):
    """Relative for large values, absolute below magnitude one."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _compare(pairs):
    fails = [f"{name}: got {got!r}, reference {want!r}"
             for name, got, want in pairs if not agree(got, want)]
    return len(pairs), fails


def check_point(model, mode, params, point):
    """A compute_point result against the closed form of its model."""
    pops = point.rho.populations
    q_a, q_b = point.currents["A"], point.currents["B"]
    p = params
    if model == "single":
        ref = models.single_qubit_closed(p["w0"], p["ga"], p["gb"],
                                         p["ta"], p["tb"])
        return _compare([("rho_minus", pops[0], ref.rho_minus),
                         ("rho_plus", pops[1], ref.rho_plus),
                         ("q_A", q_a, ref.q_a), ("q_B", q_b, ref.q_b)])
    if mode == "lindblad":
        ref = models.coupled_lindblad_closed(p["w1"], p["w2"], p["lam"],
                                             p["g"], p["g"], p["ta"], p["tb"])
        return _compare([*((f"pop_{i + 1}", pops[i], ref.populations[i])
                           for i in range(4)),
                         ("q_A", q_a, ref.q_a), ("q_B", q_b, ref.q_b)])
    ref = models.coupled_redfield_closed(p["w1"], p["w2"], p["lam"], p["g"],
                                         p["ta"], p["tb"])
    rho23 = complex(point.rho.entries[1, 2])
    return _compare([*((f"pop_{i + 1}", pops[i], ref.populations[i])
                       for i in range(4)),
                     ("rho23_re", rho23.real, ref.rho_23.real),
                     ("rho23_im", rho23.imag, ref.rho_23.imag),
                     ("q_A + q_B", q_a + q_b, 0.0)])


def check_steady(matrix, rho, q_a, q_b):
    """Generator residual ||M vec(rho)||_inf and the first law."""
    residual = float(np.max(np.abs(matrix @ rho.entries.reshape(-1))))
    fails = []
    if not residual < TOL:
        fails.append(f"residual {residual:.3e} >= {TOL:g}")
    if not agree(q_a, -q_b):
        fails.append(f"first law: q_A {q_a!r} + q_B {q_b!r} != 0")
    return 2, fails


def check_relax(liouvillian, rho_t):
    """Propagated state against the nullspace steady state."""
    rho_ss = reference_solve(liouvillian)
    gap = float(np.max(np.abs(rho_t.entries - rho_ss.entries)))
    return 1, ([] if gap < RELAX_TOL else
               [f"propagated state off the nullspace state by {gap:.3e}"])


def _close_numbers(cell, want):
    try:
        return agree(float(cell), float(want))
    except ValueError:
        return False


def _table(text):
    return [row for row in csv.reader(io.StringIO(text))
            if row and not row[0].startswith("#")]


def compare_csv(text, ref_text):
    """A preset CSV against the stored seed output.

    Returns (rows compared, cells whose text changed, failures). Numeric
    cells fail beyond 1e-10; second_law and status cells, the column
    header and the row count must match exactly.
    """
    got, ref = _table(text), _table(ref_text)
    if not got or got[0] != ref[0]:
        return 0, 0, [f"header {got[:1]} differs from {ref[0]}"]
    if len(got) != len(ref):
        return 0, 0, [f"{len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0]
    changed, fails = 0, []
    for r, (row, ref_row) in enumerate(zip(got[1:], ref[1:]), start=1):
        if len(row) != len(ref_row):
            fails.append(f"row {r}: {len(row)} cells, reference {len(ref_row)}")
            continue
        for col, cell, want in zip(header, row, ref_row):
            if cell == want:
                continue
            changed += 1
            if col in EXACT_COLUMNS or not _close_numbers(cell, want):
                fails.append(f"row {r} {col}: {cell!r} != {want!r}")
    return len(ref) - 1, changed, fails
