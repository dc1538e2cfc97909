"""Liouvillian assembly, steady-state solve, time evolution, positivity.

The full generator over the flattened (p, p') index is

    M[(p,p'),(q,q')] = -i (E_p - E_p') delta_{pq} delta_{p'q'} + K[(p,p'),(q,q')]

and the steady state is its one-dimensional nullspace, normalised to unit
trace. solve_steady_state replaces one population row with the trace row
and solves the resulting nonsingular system, which is deterministic and
well conditioned at these dimensions; svd_steady_state extracts the
nullspace directly and serves as an independent verification path. evolve
is a plain fixed-step integrator kept as a dynamical cross-check of the
linear solves. Each step is one product with the one-step propagator

    P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24,

which on a constant generator is classic RK4 exactly, and which is the
matrix whose spectral radius the stability check reads. The steps run
in blocks of EVOLVE_BLOCK states in one preallocated buffer, and the
blow-up check reads every state of a block at once. A zero generator
leaves the state as it is. A generator with inf or NaN entries is
refused when the Liouvillian is built.

Liouvillian and DensityMatrix also hold stacks, (B, N^2, N^2) and
(B, N, N), and assemble_liouvillian, solve_steady_state and
positivity_report act on each entry of a stack at once: a sweep chunk of
B points is one batched SVD, one batched LU solve and one batched
eigvalsh. numpy's stacked linear algebra runs the same LAPACK call per
entry, so every entry is bit-identical to the result for that entry's
matrix alone. Diagnostics are Python scalars for one point and arrays
over the batch axis for a stack (kernel._per_entry), and a failing entry
raises the error its own matrix raises. A Liouvillian is only dim and
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (TRACE_TOL, SuperKernel, _frozen, _per_entry,
                     _trace_residual, pair_index)
from .system import SystemSpec

__all__ = [
    "DegenerateSteadyStateError",
    "DensityMatrix",
    "IntegrationError",
    "Liouvillian",
    "PositivityReport",
    "SolveInfo",
    "SteadyStateResidualError",
    "assemble_liouvillian",
    "evolve",
    "gibbs_state",
    "positivity_report",
    "solve_steady_state",
    "svd_steady_state",
]

RESIDUAL_TOL = 1e-10        # accepted ||M vec(rho)||_inf
NULLSPACE_RTOL = 1e-10      # sigma_i <= rtol * sigma_max counts as zero
TRACE_DRIFT_TOL = 1e-8
RK4_RADIUS_TOL = 1e-9       # one-step propagator radius above 1 + tol
EVOLVE_BLOCK = 64           # evolve steps between blow-up checks
POSITIVITY_TOL = 1e-10


class DegenerateSteadyStateError(RuntimeError):
    """The generator's nullspace is not one-dimensional."""


class SteadyStateResidualError(RuntimeError):
    """The solve left a residual above the absolute tolerance; the
    message names ||M||_inf, the scale its rounding grows with."""


class IntegrationError(RuntimeError):
    """Fixed-step propagation became unstable or lost the trace."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """N x N complex density matrix in the energy basis, or a (B, N, N)
    stack of B of them, whose properties give one value (or row) per
    entry."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = _frozen(self.entries, self.dim, "entries")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        object.__setattr__(self, "entries", m)

    @property
    def populations(self) -> np.ndarray:
        """Diagonal elements as real numbers."""
        return np.real(np.diagonal(self.entries, axis1=-2, axis2=-1)).copy()

    @property
    def coherences(self) -> np.ndarray:
        """Copy of the matrix with the diagonal zeroed."""
        m = self.entries.copy()
        diag = np.arange(self.dim)
        m[..., diag, diag] = 0.0
        return m

    @property
    def trace(self):
        return _per_entry(self.entries.trace(axis1=-2, axis2=-1), complex)

    def hermiticity_defect(self):
        e = self.entries
        return _per_entry(np.abs(e - e.conj().swapaxes(-1, -2)).max(axis=(-2, -1)))

    def validate(self, tol: float = 1e-10) -> None:
        """Raise unless every entry is Hermitian with unit trace, both
        within tol."""
        h = np.max(self.hermiticity_defect())
        if h > tol:
            raise ValueError(f"not Hermitian: defect {h:g} > {tol:g}")
        t = np.max(np.abs(self.trace - 1.0))
        if t > tol:
            raise ValueError(f"trace off unity by {t:g} > {tol:g}")


def gibbs_state(levels, T: float) -> DensityMatrix:
    """Thermal state exp(-E_n/T)/Z; T = 0 collapses onto the lowest level(s)."""
    E = np.asarray([float(e) for e in levels])
    if not math.isfinite(T):
        raise ValueError(f"temperature must be finite, got {T}")
    if T < 0:
        raise ValueError(f"temperature must be >= 0, got {T}")
    if T == 0.0:
        w = (E == E.min()).astype(float)
    else:
        w = np.exp(-(E - E.min()) / T)
    w = w / w.sum()
    return DensityMatrix(dim=len(E), entries=np.diag(w.astype(complex)))


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Full generator M over the flattened pair index; a stack of
    B generators is (B, N^2, N^2). Every entry must be finite. It keeps
    no kernel mode or reservoir label: nothing downstream reads them."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix, self.dim * self.dim, "matrix")
        if not np.isfinite(m).all():
            raise ValueError("generator matrix has non-finite (inf or NaN) "
                             "entries")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SolveInfo:
    """Diagnostics of one steady-state solve. For a stacked solve each
    field is an array over the batch axis."""

    residual: float                 # ||M vec(rho)||_inf after symmetrisation
    hermiticity_defect: float       # asymmetry of the raw solution
    null_singular_values: tuple     # singular values counted as zero


def assemble_liouvillian(system: SystemSpec, K_total: SuperKernel) -> Liouvillian:
    """M = -i E_{pp'} delta + K, for a kernel or each entry of a stack.
    Population rows get no phase term; only dim and matrix are kept."""
    n = system.dim
    if K_total.dim != n:
        raise ValueError(f"kernel dim {K_total.dim} does not match system dim {n}")
    E = system.levels
    phase = np.array([-1j * (E[p] - E[pp]) for p in range(n) for pp in range(n)])
    m = np.array(K_total.data)
    # the diagonal of each (N^2, N^2) matrix, as a strided view of m
    m.reshape(m.shape[:-2] + (-1,))[..., ::n * n + 1] += phase
    m.flags.writeable = False
    return Liouvillian(dim=n, matrix=m)


def _degenerate_message(m: np.ndarray, sv: np.ndarray, null: np.ndarray,
                        n: int) -> str:
    """Why one generator m, with singular values sv and null mask null,
    has no unique steady state."""
    null_sv = [float(x) for x in sv[null]]
    trace_resid = float(_trace_residual(m, n))
    cause = (f" > {TRACE_TOL:g}: the generator does not preserve trace"
             if trace_resid > TRACE_TOL else "")
    return (f"nullspace dimension {len(null_sv)}, need exactly 1; "
            f"singular values below cutoff: {null_sv}, sigma_max {sv[0]:g}; "
            f"trace residual {trace_resid:.3e}{cause}")


def solve_steady_state(L: Liouvillian, full_output: bool = False):
    """Unique trace-one null vector of the generator, as a DensityMatrix.

    The nullspace dimension is checked first through the singular
    spectrum: sigma_i <= 1e-10 sigma_max counts as zero, so every
    sigma_i does when sigma_max is 0. Anything but exactly one null
    direction raises DegenerateSteadyStateError with the offending
    singular values and the generator's trace residual, the largest
    population-row column sum, which is above TRACE_TOL when a kernel
    does not preserve trace. The solve itself replaces the (0,0)
    population row of M with the trace row (ones on the population
    columns) and solves M' x = e_0. The result is symmetrised,
    renormalised, and only accepted if ||M vec(rho)||_inf < 1e-10, an
    absolute bound; the error names ||M||_inf of the failing generator.

    A stacked generator gives a stacked DensityMatrix, each entry
    bit-identical to the solve of that entry alone; the first entry
    that fails a check raises its own error.

    With full_output=True returns (rho, SolveInfo).
    """
    m = L.matrix
    n = L.dim
    d2 = n * n
    sv = np.linalg.svd(m, compute_uv=False)
    null = sv <= NULLSPACE_RTOL * sv[..., :1]
    degenerate = null.sum(axis=-1) != 1
    if np.count_nonzero(degenerate):
        j = np.flatnonzero(degenerate)[0]
        raise DegenerateSteadyStateError(_degenerate_message(
            m.reshape(-1, d2, d2)[j], sv.reshape(-1, d2)[j],
            null.reshape(-1, d2)[j], n))
    row0 = pair_index(n, 0, 0)
    mp = m.copy()
    mp[..., row0, :] = 0.0
    mp[..., row0, ::n + 1] = 1.0        # the population columns (p, p)
    rhs = np.zeros(mp.shape[:-1] + (1,), dtype=complex)   # e_0 columns
    rhs[..., row0, 0] = 1.0
    try:
        x = np.linalg.solve(mp, rhs)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateResidualError(f"trace-row solve failed: {exc}") from exc
    rho = x.reshape(x.shape[:-2] + (n, n))
    rho_h = rho.conj().swapaxes(-1, -2)
    defect = np.abs(rho - rho_h).max(axis=(-2, -1))
    rho = 0.5 * (rho + rho_h)
    rho = rho / rho.trace(axis1=-2, axis2=-1).real[..., None, None]
    residual = np.abs(m @ rho.reshape(x.shape)).max(axis=(-2, -1))
    too_large = residual > RESIDUAL_TOL
    if np.count_nonzero(too_large):
        j = np.flatnonzero(too_large)[0]
        scale = np.linalg.norm(m.reshape(-1, d2, d2)[j], np.inf)
        raise SteadyStateResidualError(
            f"steady-state residual {residual.reshape(-1)[j]:g} exceeds the "
            f"absolute bound {RESIDUAL_TOL:g}; the generator has "
            f"||M||_inf {scale:.3e}")
    out = DensityMatrix(dim=n, entries=rho)
    if not full_output:
        return out
    return out, SolveInfo(
        residual=_per_entry(residual), hermiticity_defect=_per_entry(defect),
        null_singular_values=_per_entry(sv[..., -1], lambda s: (float(s),)))


def svd_steady_state(L: Liouvillian) -> DensityMatrix:
    """Steady state from the SVD null vector; verification path.

    Slower and phase-ambiguous, so the trace-row solver is the primary
    route; this one exists to catch errors the two paths would not share.
    """
    if L.matrix.ndim != 2:
        raise ValueError("svd_steady_state takes one generator, not a stack")
    vh = np.linalg.svd(L.matrix)[2]
    rho = vh[-1, :].conj().reshape(L.dim, L.dim)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError(
            f"null vector is traceless (|tr| = {abs(tr):g}); not a state")
    rho = rho / tr
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return DensityMatrix(dim=L.dim, entries=rho)


def evolve(L: Liouvillian, rho0: DensityMatrix, t_final: float,
           dt: float | None = None) -> DensityMatrix:
    """Propagate d rho/dt = M rho with classic fixed-step RK4.

    An oracle for the steady-state solvers rather than a production
    integrator: constant step, no error control. The default step is
    0.01/||M||_inf. M is constant, so one RK4 step of size h is the
    matrix P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, built once; each
    step is one product with P, the same matrix whose spectral radius is
    checked. The steps go into the rows of one (EVOLVE_BLOCK + 1, N^2)
    buffer; after each block every state in it is checked at once, so
    the states and the result are those of the plain loop y <- P y.
    With the default step, a zero generator returns rho0 unchanged
    (d rho/dt = 0; an explicit dt gives P = I and the same state).
    Raises ValueError for a non-finite t_final or dt, and
    IntegrationError if the step lies outside RK4's stability region (P
    has spectral radius above 1 + 1e-9), any state has a non-finite
    entry or a norm above 1e6 * max(1, ||rho0||), or the trace drifts
    by more than 1e-8 over the whole run.
    """
    if L.matrix.ndim != 2 or rho0.entries.ndim != 2:
        raise ValueError("evolve takes one generator and one state, not stacks")
    if rho0.dim != L.dim:
        raise ValueError(f"state dim {rho0.dim} does not match generator dim {L.dim}")
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if dt is not None and not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    m = L.matrix
    if t_final == 0 or (dt is None and not m.any()):
        return DensityMatrix(dim=rho0.dim, entries=rho0.entries)
    if dt is None:
        dt = 0.01 / float(np.linalg.norm(m, np.inf))
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    steps = max(1, math.ceil(t_final / dt))
    h = t_final / steps
    hm = h * m
    hm2 = hm @ hm
    step = np.eye(len(m)) + hm + hm2 / 2 + hm2 @ (hm / 6 + hm2 / 24)
    radius = float(np.abs(np.linalg.eigvals(step)).max())
    if radius > 1 + RK4_RADIUS_TOL:
        raise IntegrationError(
            f"step size {h:g} is outside the RK4 stability region (one-step "
            f"propagator spectral radius {radius:.6g}); reduce dt")
    y = rho0.entries.reshape(-1).astype(complex)
    stride = L.dim + 1
    trace0 = y[::stride].sum()
    bound = 1e6 * max(1.0, float(np.linalg.norm(y)))
    # row 0 holds the state a block starts from, rows 1..k its k steps
    rows = np.empty((EVOLVE_BLOCK + 1, y.size), dtype=complex)
    rows[0] = y
    pairs = list(zip(rows[:-1], rows[1:]))
    # a state that overflows mid-block ends in the error below, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, EVOLVE_BLOCK):
            k = min(EVOLVE_BLOCK, steps - start)
            for src, dst in pairs[:k]:
                np.matmul(step, src, out=dst)
            block = rows[1:k + 1]
            if not (np.isfinite(block).all()
                    and (np.linalg.norm(block, axis=1) <= bound).all()):
                raise IntegrationError(
                    f"propagation unstable after norm blowup at step size "
                    f"{h:g}; reduce dt")
            rows[0] = rows[k]
    y = rows[0]
    drift = abs(y[::stride].sum() - trace0)
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drifted by {drift:g} (> {TRACE_DRIFT_TOL:g}); reduce dt")
    return DensityMatrix(dim=L.dim, entries=y.reshape(L.dim, L.dim))


@dataclass(frozen=True)
class PositivityReport:
    """Positivity diagnostics of a density matrix, or arrays of them
    over the batch axis of a stacked one.

    A generator outside the quantum dynamical semigroup class (Redfield)
    can push populations negative; min_eigenvalue below -1e-10 is the
    agreed failure signal.
    """

    min_population: float
    min_eigenvalue: float
    hermiticity_defect: float

    @property
    def positive(self) -> bool:
        return self.min_eigenvalue >= -POSITIVITY_TOL


def positivity_report(rho: DensityMatrix) -> PositivityReport:
    """Minimum population, minimum eigenvalue of the Hermitian part, defect;
    per entry for a stacked rho."""
    e = rho.entries
    eigs = np.linalg.eigvalsh(0.5 * (e + e.conj().swapaxes(-1, -2)))
    return PositivityReport(
        min_population=_per_entry(rho.populations.min(axis=-1)),
        min_eigenvalue=_per_entry(eigs[..., 0]),
        hermiticity_defect=rho.hermiticity_defect())
