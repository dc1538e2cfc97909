"""Heat currents and thermodynamic law checks.

The mean heat current from reservoir R into the system is read off the
steady state through that reservoir's kernel alone:

    q^R = sum_n E_n sum_{qq'} K^R_{(n,n),(q,q')} rho_{qq'}

Positive q^R means energy flowing from reservoir R into the system. For
two reservoirs the steady state forces q^A + q^B = 0 (first law), and
with both couplings active heat runs from the hot reservoir to the cold
one (second law). Currents are always computed from the joint steady
state through per-reservoir kernels, never from local equilibrium
assumptions.

reservoir_current also takes a stacked kernel and a stacked steady state,
(B, N^2, N^2) and (B, N, N) as built for a sweep chunk, and returns one
current per entry, each bit-identical to the current of that entry alone.

steady_point is the whole pipeline in one call, and every composition in
the package (the CLI's points and sweeps) goes through it: one kernel per
reservoir, their sum, the generator, its trace-one null vector and each
reservoir's current through its own kernel. Given one BathSpec per
reservoir it solves one point; given a BathColumns of B baths per
reservoir it runs each layer once on the (B, N^2, N^2) stack, and every
entry is bit-identical to the one-point result for its baths. The
positivity report, one eigendecomposition per entry, is computed on the
first read of SteadyPoint.positivity, not by steady_point: a caller that
reads only rho and the currents never pays for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernel, steady
from .kernel import SuperKernel, _per_entry
from .steady import DensityMatrix, Liouvillian, PositivityReport, SolveInfo
from .system import SystemSpec

__all__ = [
    "CurrentConsistencyError",
    "CurrentReport",
    "SteadyPoint",
    "law_checks",
    "reservoir_current",
    "steady_point",
]

# the currents' noise: an imaginary part above it is refused, and a
# current at or below it has no direction for the second law
CURRENT_TOL = 1e-10

SECOND_LAW_PASS = "pass"
SECOND_LAW_FAIL = "fail"
SECOND_LAW_NA = "not-applicable"


class CurrentConsistencyError(RuntimeError):
    """The current picked up an imaginary part, which cannot happen for a
    steady state of a hermiticity-preserving kernel; the inputs are
    inconsistent or corrupted."""


def reservoir_current(system: SystemSpec, K_R: SuperKernel,
                      rho: DensityMatrix):
    """Heat current q^R from one reservoir, given the joint steady state.

    rho must be a steady state of the combined generator; that is the
    caller's responsibility and is not re-verified here. A float, or an
    array over the batch axis for stacked inputs; the first entry with an
    imaginary current raises.
    """
    n = system.dim
    if K_R.dim != n:
        raise ValueError(f"kernel dim {K_R.dim} does not match system dim {n}")
    if rho.dim != n:
        raise ValueError(f"state dim {rho.dim} does not match system dim {n}")
    return _current(system.levels, _population_rows(K_R), rho)


def _population_rows(K: SuperKernel) -> np.ndarray:
    """The N population rows (l, l) of a kernel, or of each entry of a
    stack, (N, N^2) or (B, N, N^2): flat rows 0, N+1, 2(N+1), ... of its
    data, the only rows a current reads. A view."""
    return K.data[..., ::K.dim + 1, :]


def _current(levels, pop_rows: np.ndarray, rho: DensityMatrix):
    """q = sum_l E_l K_{(l,l),.} vec(rho) from a kernel's population rows
    (_population_rows), per entry for a stack; the first entry with an
    imaginary current raises. Each row is one (1, N^2) @ (N^2, 1)
    product, the same dot product for a single kernel and for every
    entry of a stack, so a stacked current is bit-identical to the
    current of that entry alone."""
    n = rho.dim
    vec = rho.entries.reshape(rho.entries.shape[:-2] + (1, n * n, 1))
    dots = (pop_rows[..., None, :] @ vec)[..., 0, 0].T      # (N,) or (N, B)
    q = 0j
    for energy, dot in zip(levels, dots):
        q = q + energy * dot
    imaginary = abs(q.imag) > CURRENT_TOL
    if np.count_nonzero(imaginary):
        first = q.imag.reshape(-1)[np.flatnonzero(imaginary)[0]]
        raise CurrentConsistencyError(
            f"current has imaginary part {first:g}; state and kernel are "
            "inconsistent")
    return _per_entry(q.real)


@dataclass(frozen=True)
class CurrentReport:
    """First- and second-law verdicts of two reservoirs' currents. For
    array temperatures or currents both are arrays over the batch axis,
    as in SolveInfo."""

    conservation_residual: float     # |q_1 + q_2|
    second_law: str                  # pass / fail / not-applicable


def law_checks(first, second) -> CurrentReport:
    """First- and second-law verdicts for a two-reservoir steady state.

    first and second are the two reservoirs' (temperature, current)
    pairs, numbers or arrays over a batch axis (a sweep chunk); arrays
    are judged entry by entry. The conservation residual is |q_1 + q_2|;
    for a true steady state it is rounding, which grows with the scale
    of the currents: the coupled pair at omega = (1e8, 2e8), lambda =
    5e7 and T = (1e8, 5e7) has 1.490e-08 at |q_1| = 5.2e6, 2.9e-15 of
    it. It is reported here, not judged; the one rule that judges it is
    cli.CONSERVATION_ROW_TOL (cli._first_law_error). The second-law
    verdict compares the direction of flow with the temperature
    ordering: not-applicable in equilibrium (T_1 = T_2, where both
    currents vanish and no direction is defined); else pass when
    q_1 (T_1 - T_2) >= 0 or when |q_1| <= CURRENT_TOL, a current within
    the noise that has no direction (two uncoupled qubits, or a qubit
    with one coupling off), and fail otherwise.
    """
    t1, q1, t2, q2 = (_per_entry(np.asarray(x, dtype=float))
                      for x in (*first, *second))
    downhill = (q1 * (t1 - t2) >= 0) | (abs(q1) <= CURRENT_TOL)
    verdict = np.where(t1 == t2, SECOND_LAW_NA,
                       np.where(downhill, SECOND_LAW_PASS, SECOND_LAW_FAIL))
    return CurrentReport(conservation_residual=abs(q1 + q2),
                         second_law=_per_entry(verdict, str))


@dataclass(frozen=True, eq=False)
class SteadyPoint:
    """Everything the pipeline computes at one point, or at each entry of
    a stack: per-entry values then carry a leading batch axis, as in
    SolveInfo and PositivityReport, and currents are arrays. positivity
    is computed on its first read and kept."""

    rho: DensityMatrix
    currents: dict                  # reservoir label -> q^R
    liouvillian: Liouvillian
    solve_info: SolveInfo

    @functools.cached_property
    def positivity(self) -> PositivityReport:
        """steady.positivity_report(rho), looked up on its module at the
        first read, so a wrapper put on the module attribute sees it."""
        return steady.positivity_report(self.rho)


def steady_point(system: SystemSpec, baths: dict, mode: str) -> SteadyPoint:
    """Steady state, heat currents and diagnostics of system between baths.

    baths maps each reservoir label to one BathSpec, or for a stack of B
    points to a BathColumns of B baths (build_kernel refuses any other
    form); kernels are combined in the order of baths. Its keys must be
    the labels of system.couplings: a ValueError naming the missing and
    unknown labels is raised before any kernel is built. Each layer
    (build_kernel per reservoir, combine_kernels, assemble_liouvillian,
    solve_steady_state) runs once, looked up on its module at call time,
    so a wrapper put on the module attribute sees every call;
    positivity_report runs only when the result's positivity is first
    read, and at most once. Stacks of unequal length are refused by
    combine_kernels, which names both shapes; the first entry that fails
    a check raises the error it raises alone. Once combined, each
    reservoir's kernel is cut to its N population rows, the only rows
    its current reads; the kernels are let go before the generator is
    built and their sum once it is, so from then on a chunk holds two
    (B, N^2, N^2) stacks at most, the generator and the solve's
    trace-row copy. Each current is
    reservoir_current's formula (_current) on those rows, so it is
    bit-identical to reservoir_current on the whole kernel.
    """
    if baths.keys() != system.couplings.keys():
        missing = [r for r in system.couplings if r not in baths]
        unknown = [r for r in baths if r not in system.couplings]
        raise ValueError(f"baths must match the system's reservoirs "
                         f"{list(system.couplings)}: missing {missing}, "
                         f"unknown {unknown}")
    kernels = [kernel.build_kernel(system, b, r, mode) for r, b in baths.items()]
    total = kernel.combine_kernels(kernels)
    rows = [_population_rows(k).copy() for k in kernels]
    del kernels
    liou = steady.assemble_liouvillian(system, total)
    del total
    rho, info = steady.solve_steady_state(liou, full_output=True)
    return SteadyPoint(
        rho=rho,
        currents={r: _current(system.levels, pop_rows, rho)
                  for r, pop_rows in zip(baths, rows)},
        liouvillian=liou, solve_info=info)
