"""Liouvillian assembly, steady-state solve, time evolution, positivity.

The full generator over the flattened (p, p') index is

    M[(p,p'),(q,q')] = -i (E_p - E_p') delta_{pq} delta_{p'q'} + K[(p,p'),(q,q')]

and the steady state is its one-dimensional nullspace, normalised to unit
trace. solve_steady_state replaces one population row with the trace row
and solves the resulting nonsingular system, which is deterministic and
well conditioned at these dimensions; svd_steady_state extracts the
nullspace directly and serves as an independent verification path. evolve
is a plain fixed-step integrator kept as a dynamical cross-check of the
linear solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import TRACE_TOL, SuperKernel, pair_index
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
NULLSPACE_RTOL = 1e-10      # sigma_i < rtol * sigma_max counts as zero
TRACE_DRIFT_TOL = 1e-8
POSITIVITY_TOL = 1e-10


class DegenerateSteadyStateError(RuntimeError):
    """The generator's nullspace is not one-dimensional."""


class SteadyStateResidualError(RuntimeError):
    """The linear solve went through but left a residual above tolerance."""


class IntegrationError(RuntimeError):
    """Fixed-step propagation became unstable or lost the trace."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """N x N complex density matrix in the energy basis."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def populations(self) -> np.ndarray:
        """Diagonal elements as real numbers."""
        return np.real(np.diagonal(self.entries)).copy()

    @property
    def coherences(self) -> np.ndarray:
        """Copy of the matrix with the diagonal zeroed."""
        m = self.entries.copy()
        np.fill_diagonal(m, 0.0)
        return m

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def validate(self, tol: float = 1e-10) -> None:
        """Raise unless Hermitian with unit trace, both within tol."""
        h = self.hermiticity_defect()
        if h > tol:
            raise ValueError(f"not Hermitian: defect {h:g} > {tol:g}")
        t = abs(self.trace - 1.0)
        if t > tol:
            raise ValueError(f"trace off unity by {t:g} > {tol:g}")


def gibbs_state(levels, T: float) -> DensityMatrix:
    """Thermal state exp(-E_n/T)/Z; T = 0 collapses onto the lowest level(s)."""
    E = np.asarray([float(e) for e in levels])
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
    """Full generator M over the flattened pair index."""

    dim: int
    matrix: np.ndarray
    mode: str
    reservoirs: tuple

    def __post_init__(self):
        d2 = self.dim * self.dim
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (d2, d2):
            raise ValueError(f"matrix must be {d2}x{d2}, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SolveInfo:
    """Diagnostics of one steady-state solve."""

    residual: float                 # ||M vec(rho)||_inf after symmetrisation
    hermiticity_defect: float       # asymmetry of the raw solution
    null_singular_values: tuple     # singular values counted as zero


def assemble_liouvillian(system: SystemSpec, K_total: SuperKernel) -> Liouvillian:
    """M = -i E_{pp'} delta + K. Population rows get no phase term."""
    n = system.dim
    if K_total.dim != n:
        raise ValueError(f"kernel dim {K_total.dim} does not match system dim {n}")
    m = np.array(K_total.data, dtype=complex)
    for p in range(n):
        for pp in range(n):
            i = pair_index(n, p, pp)
            m[i, i] += -1j * (system.levels[p] - system.levels[pp])
    return Liouvillian(dim=n, matrix=m, mode=K_total.mode,
                       reservoirs=K_total.reservoirs)


def solve_steady_state(L: Liouvillian, full_output: bool = False):
    """Unique trace-one null vector of the generator, as a DensityMatrix.

    The nullspace dimension is checked first through the singular
    spectrum; anything but exactly one null direction raises
    DegenerateSteadyStateError with the offending singular values and the
    generator's trace residual, the largest population-row column sum,
    which is above TRACE_TOL when a kernel does not preserve trace. The
    solve itself replaces the (0,0) population row of M with the trace
    row (ones on the population columns) and solves M' x = e_0. The
    result is symmetrised, renormalised, and only accepted if
    ||M vec(rho)||_inf < 1e-10.

    With full_output=True returns (rho, SolveInfo).
    """
    m = L.matrix
    sv = np.linalg.svd(m, compute_uv=False)
    null_sv = [float(x) for x in sv if x < NULLSPACE_RTOL * sv[0]]
    n = L.dim
    if len(null_sv) != 1:
        pop_rows = [pair_index(n, p, p) for p in range(n)]
        trace_resid = float(np.max(np.abs(m[pop_rows, :].sum(axis=0))))
        cause = (f" > {TRACE_TOL:g}: the generator does not preserve trace"
                 if trace_resid > TRACE_TOL else "")
        raise DegenerateSteadyStateError(
            f"nullspace dimension {len(null_sv)}, need exactly 1; "
            f"singular values below cutoff: {null_sv}, sigma_max {sv[0]:g}; "
            f"trace residual {trace_resid:.3e}{cause}")
    mp = np.array(m)
    row0 = pair_index(n, 0, 0)
    mp[row0, :] = 0.0
    for p in range(n):
        mp[row0, pair_index(n, p, p)] = 1.0
    rhs = np.zeros(n * n, dtype=complex)
    rhs[row0] = 1.0
    try:
        x = np.linalg.solve(mp, rhs)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateResidualError(f"trace-row solve failed: {exc}") from exc
    rho = x.reshape(n, n)
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = float(np.max(np.abs(m @ rho.reshape(-1))))
    if residual > RESIDUAL_TOL:
        raise SteadyStateResidualError(
            f"steady-state residual {residual:g} exceeds {RESIDUAL_TOL:g}")
    out = DensityMatrix(dim=n, entries=rho)
    if full_output:
        return out, SolveInfo(residual=residual, hermiticity_defect=defect,
                              null_singular_values=tuple(null_sv))
    return out


def svd_steady_state(L: Liouvillian) -> DensityMatrix:
    """Steady state from the SVD null vector; verification path.

    Slower and phase-ambiguous, so the trace-row solver is the primary
    route; this one exists to catch errors the two paths would not share.
    """
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
    0.01/||M||_inf. Raises IntegrationError if the state norm blows up or
    the trace drifts by more than 1e-8 over the whole run.
    """
    if rho0.dim != L.dim:
        raise ValueError(f"state dim {rho0.dim} does not match generator dim {L.dim}")
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if t_final == 0:
        return DensityMatrix(dim=rho0.dim, entries=rho0.entries)
    m = L.matrix
    if dt is None:
        dt = 0.01 / float(np.linalg.norm(m, np.inf))
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    steps = max(1, math.ceil(t_final / dt))
    h = t_final / steps
    y = rho0.entries.reshape(-1).astype(complex)
    stride = L.dim + 1
    trace0 = y[::stride].sum()
    bound = 1e6 * max(1.0, float(np.linalg.norm(y)))
    for _ in range(steps):
        k1 = m @ y
        k2 = m @ (y + 0.5 * h * k1)
        k3 = m @ (y + 0.5 * h * k2)
        k4 = m @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) > bound:
            raise IntegrationError(
                f"propagation unstable after norm blowup at step size {h:g}; "
                "reduce dt")
    drift = abs(y[::stride].sum() - trace0)
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drifted by {drift:g} (> {TRACE_DRIFT_TOL:g}); reduce dt")
    return DensityMatrix(dim=L.dim, entries=y.reshape(L.dim, L.dim))


@dataclass(frozen=True)
class PositivityReport:
    """Positivity diagnostics of a density matrix.

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
    """Minimum population, minimum eigenvalue of the Hermitian part, defect."""
    herm = 0.5 * (rho.entries + rho.entries.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    return PositivityReport(min_population=float(np.min(rho.populations)),
                            min_eigenvalue=float(eigs[0]),
                            hermiticity_defect=rho.hermiticity_defect())
