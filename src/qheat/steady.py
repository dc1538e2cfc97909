"""Liouvillian assembly, steady-state solve, time evolution, positivity.

The full generator over the flattened (p, p') index is

    M[(p,p'),(q,q')] = -i (E_p - E_p') delta_{pq} delta_{p'q'} + K[(p,p'),(q,q')]

and the steady state is its one-dimensional nullspace, normalised to unit
trace. The module holds:

- DensityMatrix, Liouvillian and gibbs_state: the states and generators
  the other functions take and return. assemble_liouvillian builds M
  from a system and its combined kernel, and a Liouvillian with inf or
  NaN entries is refused when it is built.
- solve_steady_state, the one solve, with SolveInfo for its
  diagnostics and DegenerateSteadyStateError and
  SteadyStateResidualError for its refusals; its docstring gives each
  check and the trace-row solve.
- svd_steady_state, the SVD null vector of one generator, an
  independent verification path for the solve.
- evolve, a fixed-step RK4 integrator kept as a dynamical cross-check
  of the linear solves, with IntegrationError for its refusals; its
  docstring and _block_bounded's give its blow-up check and early stop.
- positivity_report and PositivityReport: the smallest population and
  eigenvalue of a state.

Liouvillian and DensityMatrix also hold stacks, (B, N^2, N^2) and
(B, N, N), and assemble_liouvillian, solve_steady_state and
positivity_report act on each entry of a stack at once: a sweep chunk of
B points is one pass of the nullspace certificate (one gather of its
blocks' cells and one batched det per block size) and one batched LU
solve, and positivity_report, which no sweep calls, is one batched
eigvalsh. numpy's stacked linear algebra runs the same LAPACK call per
entry, so every entry is bit-identical to the result for that entry's
matrix alone. The certificate is the one exception, as its values are
read only against bounds: it proves from dets and norms that an entry
has exactly one null direction, and it takes the connected blocks of
the links any entry of the stack has, so an entry's bounds may differ
in rounding from those of the entry alone. Where it reads (the cells of
every block, where each block's parts start, its size), the plan,
depends only on the pattern of links, so it is cached by that pattern
(_blocks), and a sweep's later chunks and every later point of one
model pay a dict lookup for it. kernel._plan is the second such cache,
under the same rule: it is keyed by the coupling pattern of a kernel
(supports and frequency slots), never by a value, and reads nothing but
its key, so it hits on fresh draws and in CLI sweeps and not only on
repeated inputs. The entries the certificate leaves go through one
batched full SVD, whose values are each entry's own.
Diagnostics are Python scalars for one point and arrays over the batch
axis for a stack (kernel._per_entry), and a failing entry raises the
error its own matrix raises. A Liouvillian is only dim and matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bath import _check_temperature
from .kernel import TRACE_TOL, SuperKernel, _frozen, _per_entry, _trace_residual
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
_FRO_FLOOR = 2.0 ** -256    # a smaller ||M||_F may have lost digits to underflow
TRACE_DRIFT_TOL = 1e-8
RK4_RADIUS_TOL = 1e-9       # one-step propagator radius above 1 + tol
EVOLVE_BLOCK = 64           # evolve steps between blow-up checks
POSITIVITY_TOL = 1e-10


class DegenerateSteadyStateError(RuntimeError):
    """The generator has no unique steady state: it leaks trace (its
    trace residual exceeds TRACE_TOL * max(1, ||M||_inf)), or its
    nullspace is not one-dimensional."""


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

    def hermiticity_defect(self):
        e = self.entries
        return _per_entry(np.abs(e - e.conj().swapaxes(-1, -2)).max(axis=(-2, -1)))


def gibbs_state(levels, T: float) -> DensityMatrix:
    """Thermal state exp(-E_n/T)/Z; T = 0 collapses onto the lowest level(s)."""
    E = np.asarray([float(e) for e in levels])
    _check_temperature(T)
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
        if not np.isfinite(m.view(float)).all():    # both parts finite
            raise ValueError("generator matrix has non-finite (inf or NaN) "
                             "entries")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SolveInfo:
    """Diagnostics of one steady-state solve. For a stacked solve each
    field is an array over the batch axis."""

    residual: float                 # ||M vec(rho)||_inf after symmetrisation


def assemble_liouvillian(system: SystemSpec, K_total: SuperKernel) -> Liouvillian:
    """M = -i E_{pp'} delta + K, for a kernel or each entry of a stack.
    Population rows get no phase term; only dim and matrix are kept."""
    n = system.dim
    if K_total.dim != n:
        raise ValueError(f"kernel dim {K_total.dim} does not match system dim {n}")
    E = np.asarray(system.levels)
    phase = -1j * (E[:, None] - E[None, :]).reshape(-1)     # over (p, p')
    m = np.array(K_total.data)
    # the diagonal of each (N^2, N^2) matrix, as a strided view of m
    m.reshape(m.shape[:-2] + (-1,))[..., ::n * n + 1] += phase
    m.flags.writeable = False
    return Liouvillian(dim=n, matrix=m)


@dataclass(frozen=True, eq=False)
class _BlockPlan:
    """Where _certified reads, for one link pattern of n indices (the
    N^2 of a generator): flat arrays, read-only, built by _blocks. The
    blocks are the connected blocks of the pattern, an index linked to
    nothing being a block of one, laid out in rising size and, within
    one size, in the order of their first index.

    cells: the flat indices of every block's cells in a row-major n x n
        matrix, each s x s block row-major, one block after the other.
    lone: the number of indices linked to nothing; their blocks come
        first, so the first lone cells are their diagonal cells.
    starts: the first of each block's real and imaginary parts in the
        float view of the gathered cells, 2 x its first cell, for
        np.maximum.reduceat and np.add.reduceat.
    part_block: the block of each of those parts.
    half: (s - 1) / 2 of each block, the power of ||b||_F^2 in its bound.
    sizes: per block size s >= 2, in rising s, (s, k, offset): its k
        blocks are the k s^2 cells that start at cells[offset].
    """

    cells: np.ndarray
    lone: int
    starts: np.ndarray
    part_block: np.ndarray
    half: np.ndarray
    sizes: tuple


@functools.lru_cache(maxsize=64)
def _blocks(pattern: bytes, n: int) -> _BlockPlan:
    """The _BlockPlan of a link pattern: pattern holds the bytes of a
    symmetric n x n bool matrix with a false diagonal, index i linked to
    j where it is true.

    The blocks are found by a breadth-first walk. The plan depends only
    on the pattern, never on a value, so it is cached by it, and a solve
    whose pattern was seen before, a later point of one model or a later
    chunk of a sweep, pays only this lookup.
    """
    neighbours = [row.nonzero()[0].tolist()
                  for row in np.frombuffer(pattern, dtype=bool).reshape(n, n)]
    seen = [False] * n
    by_size = {}
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for i in block:             # grows as the walk reaches new indices
            for j in neighbours[i]:
                if not seen[j]:
                    seen[j] = True
                    block.append(j)
        by_size.setdefault(len(block), []).append(sorted(block))
    cells, size, sizes, offset = [], [], [], 0
    for s in sorted(by_size):
        group = np.array(by_size[s])
        cells.append((group[:, :, None] * n + group[:, None, :]).ravel())
        size += [s] * len(group)
        if s > 1:
            sizes.append((s, len(group), offset))
        offset += cells[-1].size
    size = np.array(size)
    area = size * size
    arrays = dict(cells=np.concatenate(cells),
                  starts=2 * (np.cumsum(area) - area),
                  part_block=np.repeat(np.arange(len(size)), 2 * area),
                  half=(size - 1) / 2)
    for a in arrays.values():
        a.flags.writeable = False
    return _BlockPlan(**arrays, lone=len(by_size.get(1, ())),
                      sizes=tuple(sizes))


def _linked_blocks(m: np.ndarray) -> _BlockPlan:
    """The _blocks of the links of m, index i linked to j when M_ij or
    M_ji is nonzero in some entry of the stack.

    Nonzero is read as a cast to bool, which numpy runs on a complex
    entry's two float parts: true where either part is nonzero, NaN
    included, false where both are +-0, as m != 0 is, at a quarter of
    its time on an N^2 x N^2 generator."""
    nz = m.any(axis=0) if m.ndim > 2 else m.astype(bool)
    nz = nz | nz.T
    nz.reshape(-1)[::len(nz) + 1] = False
    return _blocks(nz.tobytes(), len(nz))


def _certified(m: np.ndarray, mp: np.ndarray,
               trace_resid: np.ndarray) -> np.ndarray:
    """Per entry of m, whether its full SVD is sure to count exactly one
    null direction, shown without an SVD; mp is m with the trace row in
    row (0, 0), the matrix the solve factorises.

    With s_1 >= ... >= s_d the singular values of an M of d = N^2 rows:
    - s_{d-1}(M) >= s_min(M'), since M and M' share all rows but one;
    - s_min(M') is the smallest s_min over the blocks b of M''s links
      (_linked_blocks), and for an s x s block s_min(b) is at least
      |det b| / ||b||_F^(s-1): |det b| is the product of its s singular
      values, and each of the s - 1 others is at most ||b||_F. An index
      linked to nothing is a block of one, bounded by |M'_ii| itself;
    - s_d(M) <= ||t^T M|| / ||t|| <= sqrt(N) * trace residual, t being
      ones on the N population indices: t^T M holds the population
      rows' column sums, N^2 of them, each at most the residual;
    - ||M||_F / N <= s_1 <= ||M||_F.
    So where that lower bound on s_min(M') exceeds 2 rtol ||M||_F and
    sqrt(N) * residual is at most rtol ||M||_F / (2N), rtol being
    NULLSPACE_RTOL, s_{d-1} > 2 rtol s_1 and s_d <= rtol s_1 / 2: one
    value lies below the cutoff rtol s_1 and the next above it, each
    with a factor of two to spare for the rounding of the full SVD
    and of these bounds. ||M||_F is one dot product of M's real view
    with itself; where it overflows to inf the first condition fails,
    and an entry with ||M||_F below 2^-256, whose squares may underflow,
    is not certified.

    The block bounds follow the cached _BlockPlan of the links, the same
    code for one point and a stack: one gather of every block's cells;
    each block scaled by the power of two 2^-e that puts its largest
    real or imaginary part in [1/2, 1), which is exact, so neither its
    det nor its norm overflows, with e from one np.maximum.reduceat and
    ||b||_F^2 from one np.add.reduceat; one np.linalg.det per block size
    of two or more on a view of the scaled cells, a block of one being
    its own det; and one expression for every bound, scaled back by
    2^e. A nonzero scaled block has a part of at least 1/2, so the
    floor max(||b||_F^2, 1/4) only turns a zero block's 0 / 0 into 0.
    """
    n = math.isqrt(m.shape[-1])
    parts = m.reshape(m.shape[:-2] + (-1,)).view(float)
    with np.errstate(over="ignore"):
        fro = np.sqrt(np.vecdot(parts, parts))
    plan = _linked_blocks(mp)
    lead = mp.shape[:-2]
    # on a stack the gather is not C-contiguous, which view needs
    parts = np.ascontiguousarray(
        mp.reshape(lead + (-1,))[..., plan.cells]).view(float)
    e = np.frexp(np.maximum.reduceat(np.abs(parts), plan.starts, axis=-1))[1]
    scaled = np.ldexp(parts, (-e)[..., plan.part_block])
    fro2 = np.add.reduceat(scaled * scaled, plan.starts, axis=-1)
    b = scaled.view(complex)
    det = np.concatenate([b[..., :plan.lone]] + [
        np.linalg.det(b[..., o:o + k * s * s].reshape(lead + (k, s, s)))
        for s, k, o in plan.sizes], axis=-1)
    lower = np.ldexp(np.abs(det) / np.maximum(fro2, 0.25) ** plan.half, e)
    cutoff = NULLSPACE_RTOL * fro
    return ((fro >= _FRO_FLOOR) & (lower.min(axis=-1) > 2 * cutoff)
            & (math.sqrt(n) * trace_resid <= cutoff / (2 * n)))


def _refuse_leaky(m: np.ndarray, trace_resid: np.ndarray):
    """Raise the DegenerateSteadyStateError of the first entry of m whose
    trace residual exceeds TRACE_TOL * max(1, ||M||_inf): more than the
    rounding of a sum that grows as about 1e-16 ||M||_inf."""
    scale = np.abs(m).sum(axis=-1).max(axis=-1)
    leaks = trace_resid > TRACE_TOL * np.maximum(1.0, scale)
    if np.count_nonzero(leaks):
        j = np.flatnonzero(leaks)[0]
        raise DegenerateSteadyStateError(
            f"trace residual {trace_resid.reshape(-1)[j]:.3e} exceeds "
            f"{TRACE_TOL:g} * max(1, ||M||_inf), ||M||_inf "
            f"{scale.reshape(-1)[j]:.3e}: the generator does not preserve "
            f"trace")


def _refuse_degenerate(m: np.ndarray, trace_resid: np.ndarray):
    """Raise the DegenerateSteadyStateError of the first entry of the
    (k, d, d) stack m whose singular spectrum has other than one null
    direction.

    The values come from one batched SVD of the stack, which numpy takes
    entry by entry, so they count each entry's null directions and the
    message quotes the same values for a point and for a stack."""
    sv = np.linalg.svd(m, compute_uv=False)
    null = sv <= NULLSPACE_RTOL * sv[:, :1]
    wrong = null.sum(axis=-1) != 1
    if np.count_nonzero(wrong):
        j = np.flatnonzero(wrong)[0]
        null_sv = [float(x) for x in sv[j][null[j]]]
        raise DegenerateSteadyStateError(
            f"nullspace dimension {len(null_sv)}, need exactly 1; "
            f"singular values below cutoff: {null_sv}, sigma_max {sv[j, 0]:g}; "
            f"trace residual {trace_resid[j]:.3e}")


def solve_steady_state(L: Liouvillian, full_output: bool = False):
    """Unique trace-one null vector of the generator, as a DensityMatrix.

    A generator that leaks trace is refused first, before any SVD: when
    an entry's trace residual (the largest population-row column sum)
    exceeds TRACE_TOL * max(1, ||M||_inf), the first such entry raises
    DegenerateSteadyStateError naming that residual, TRACE_TOL and
    ||M||_inf. The relative bound separates a structural leak from the
    rounding of a large generator: coupled at T_A = 1e4 has a residual of
    1.8e-12 at ||M||_inf 2.3e4 and is accepted. Every other generator
    must have exactly one null direction: sigma_i <= 1e-10 sigma_max
    counts as zero, so every sigma_i does when sigma_max is 0.

    The solve replaces the (0,0) population row of M with the trace row
    (ones on the population columns), and this M' is built first,
    because it also certifies the count without an SVD (_certified).
    M' shares all rows of M but one, so the second-smallest singular
    value of M is at least sigma_min(M'), which is bounded from below
    by |det b| / ||b||_F^(s-1) over the s x s blocks b of M''s nonzero
    pattern (the coupled pair's 16 indices fall into blocks of 4, 2, 2,
    2 and 2 in lindblad mode and 6, 4 and 4 in redfield mode, plus
    decoupled ones) and by |M'_ii| over the indices linked to nothing;
    the trace row, which M nearly annihilates, puts the smallest one at
    most sqrt(N) times the trace residual; and ||M||_F / N <= sigma_max
    <= ||M||_F. The blocks come from one cached plan per link pattern
    (_blocks), so the bounds are one gather of their cells, one exact
    power-of-two scaling of each block, one batched det per block size
    and one expression for all of them. An entry whose bounds put the
    smallest value below half the cutoff and the next above twice it
    counts exactly one null direction in its full SVD too, with room
    for rounding, and is passed. The certificate leaves weak couplings,
    degenerate generators and generators far from unit scale (whose
    ||M||_F is below 2^-256 or overflows, or next to whose entries the
    trace row's ones weaken the det bound). The det bound falls as
    g^(s-1), so the coupled pair at T = (2, 1) is certified at g = 1e-3
    but not 3e-4 in lindblad mode, and at 3e-3 but not 1e-3 in redfield
    mode.

    The entries the certificate leaves go through one batched full SVD
    (_refuse_degenerate), whose values are each entry's own. Anything
    but exactly one null direction raises DegenerateSteadyStateError
    with the singular values below the cutoff and the trace residual.
    The cutoff is set by the Bohr frequencies, but the nonzero singular
    values of the population block scale with the couplings g, so very
    weak coupling is refused although its steady state is unique: at
    T = (2, 1), in either mode, the single qubit (omega0 = 1) below
    g = 1.5e-11 and the coupled pair (1, 2, 0.5) below g = 1.8e-10.

    The solve itself is M' x = e_0 on the full matrix. M' is singular
    when the one null vector is traceless, and that LU failure is
    refused as a SteadyStateResidualError. The result is symmetrised to
    (rho + rho^dagger) / 2, which is exactly Hermitian as float addition
    commutes, renormalised, and only accepted if ||M vec(rho)||_inf <
    1e-10, an absolute bound; the error names ||M||_inf of the failing
    generator.

    A stacked generator gives a stacked DensityMatrix, each entry
    bit-identical to the solve of that entry alone. Each check (leak,
    null count, residual) runs on every entry before the next, and the
    first entry that fails the first failing check raises its own error.

    With full_output=True returns (rho, SolveInfo).
    """
    m = L.matrix
    n = L.dim
    trace_resid = _trace_residual(m, n)
    if trace_resid.max() > TRACE_TOL:
        _refuse_leaky(m, trace_resid)
    mp = m.copy()                       # row 0, the pair (0, 0), becomes
    mp[..., 0, :] = 0.0                 # the trace row
    mp[..., 0, ::n + 1] = 1.0           # the population columns (p, p)
    certified = _certified(m, mp, trace_resid)
    if not certified.all():         # the full SVD counts the entries left
        left = np.flatnonzero(~certified)
        _refuse_degenerate(m.reshape((-1,) + m.shape[-2:])[left],
                           trace_resid.reshape(-1)[left])
    rhs = np.zeros(mp.shape[:-1] + (1,), dtype=complex)   # e_0 columns
    rhs[..., 0, 0] = 1.0
    try:
        x = np.linalg.solve(mp, rhs)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateResidualError(f"trace-row solve failed: {exc}") from exc
    rho = x.reshape(x.shape[:-2] + (n, n))
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    rho = rho / rho.trace(axis1=-2, axis2=-1).real[..., None, None]
    residual = np.abs(m @ rho.reshape(x.shape)).max(axis=(-2, -1))
    too_large = residual > RESIDUAL_TOL
    if np.count_nonzero(too_large):
        j = np.flatnonzero(too_large)[0]
        scale = np.abs(m).sum(axis=-1).max(axis=-1)
        raise SteadyStateResidualError(
            f"steady-state residual {residual.reshape(-1)[j]:g} exceeds the "
            f"absolute bound {RESIDUAL_TOL:g}; the generator has "
            f"||M||_inf {scale.reshape(-1)[j]:.3e}")
    rho.flags.writeable = False      # handed over to DensityMatrix as it is
    out = DensityMatrix(dim=n, entries=rho)
    if not full_output:
        return out
    return out, SolveInfo(residual=_per_entry(residual))


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


def _overflow_safe_norm(v: np.ndarray) -> float:
    """||v|| of one vector: np.linalg.norm(v) when its sum of squares is
    finite, as it is for every state below about 1.34e154. Otherwise v
    is scaled by the power of two 2^-e that puts its largest entry in
    [1/2, 1), which is exact, normed and scaled back, so a finite v has
    its true norm (inf only past the largest float); an inf entry keeps
    it inf and a NaN entry NaN."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if norm == math.inf:
            x = np.ravel(v).view(float)     # real and imaginary parts
            e = int(np.frexp(np.abs(x).max())[1])
            norm = float(np.ldexp(np.linalg.norm(x * 2.0 ** -e), e))
    return norm


def _block_bounded(states: np.ndarray, bound: float) -> bool:
    """Whether every row of the C-contiguous complex block states has a
    norm of at most bound; an inf or NaN entry makes its row's norm inf
    or NaN, which fails.

    One dot of the block's real view with itself is the sum of the
    squared norms of its rows. When that sum is at most a finite
    bound^2 / 4, every row's norm is at most bound / 2, with a margin
    far above the dot's rounding, and every entry is finite, since an
    inf or NaN entry makes the sum inf or NaN. Otherwise (a larger,
    inf or NaN sum, or a bound^2 that overflows) the exact per-row
    norms decide, so the answer is always theirs. A row whose squares
    overflow is normed again by _overflow_safe_norm.
    """
    flat = states.view(float).reshape(-1)
    quarter = bound * bound / 4
    if quarter < math.inf and flat.dot(flat) <= quarter:
        return True
    norms = np.linalg.norm(states, axis=1)
    for j in np.flatnonzero(norms == math.inf):
        norms[j] = _overflow_safe_norm(states[j])
    return bool((norms <= bound).all())


def evolve(L: Liouvillian, rho0: DensityMatrix, t_final: float,
           dt: float | None = None) -> DensityMatrix:
    """Propagate d rho/dt = M rho with classic fixed-step RK4.

    An oracle for the steady-state solvers rather than a production
    integrator: constant step, no error control. The default step is
    0.01/||M||_inf. M is constant, so one RK4 step of size h is the
    matrix P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, built once; each
    step is one product with P, the same matrix whose spectral radius is
    checked, taken through P's bound dot method. The steps go into the
    rows of one (EVOLVE_BLOCK + 1, N^2) buffer; after each block every
    state in it is checked at once, by one dot product whose sum of
    squared norms passes the block when it is at most a finite
    bound^2 / 4, and by each state's norm when it is not, so the states,
    the result and every error are those of the plain loop y <- P y
    with each state checked. When, after that check, the
    block's last two states are equal byte for byte, the last one is a
    fixed point of the rounded step and evolve returns it at once: the
    remaining steps would not change a bit. A rounded step that is not
    trace-preserving bit for bit may change the state on every step,
    and then all the steps are taken. With the default step, a zero
    generator returns rho0 unchanged (d rho/dt = 0; an explicit dt gives
    P = I and the same state). Raises ValueError for a non-finite
    t_final, dt or t_final / dt, a negative t_final or an explicit
    dt <= 0 (also at t_final = 0), and IntegrationError if the step lies
    outside RK4's stability region (P has spectral radius above
    1 + 1e-9), any state's norm is not at most 1e6 * max(1, ||rho0||)
    (an inf or NaN entry makes it inf or NaN, so this catches those
    too; a norm whose squares overflow is taken on the state scaled by
    a power of two), or the trace drifts by more than 1e-8 over the
    whole run.
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
    if dt is not None and dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    m = L.matrix
    if t_final == 0 or (dt is None and not m.any()):
        return DensityMatrix(dim=rho0.dim, entries=rho0.entries)
    if dt is None:
        dt = 0.01 / float(np.linalg.norm(m, np.inf))
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_final / dt must be finite, got t_final = "
                         f"{t_final}, dt = {dt}")
    steps = max(1, math.ceil(ratio))
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
    bound = 1e6 * max(1.0, _overflow_safe_norm(y))
    # row 0 holds the state a block starts from, rows 1..k its k steps
    rows = np.empty((EVOLVE_BLOCK + 1, y.size), dtype=complex)
    rows[0] = y
    pairs = list(zip(rows[:-1], rows[1:]))
    dot = step.dot      # the same BLAS product as np.matmul, less dispatch
    # a state that overflows mid-block ends in the error below, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, EVOLVE_BLOCK):
            k = min(EVOLVE_BLOCK, steps - start)
            for src, dst in pairs[:k]:
                dot(src, out=dst)
            if not _block_bounded(rows[1:k + 1], bound):
                raise IntegrationError(
                    f"propagation unstable after norm blowup at step size "
                    f"{h:g}; reduce dt")
            # fl(P y) == y bit for bit: every later step returns these bytes
            fixed = rows[k].tobytes() == rows[k - 1].tobytes()
            rows[0] = rows[k]
            if fixed:
                break
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

    @property
    def positive(self) -> bool:
        return self.min_eigenvalue >= -POSITIVITY_TOL


def positivity_report(rho: DensityMatrix) -> PositivityReport:
    """Minimum population and minimum eigenvalue of the Hermitian part;
    per entry for a stacked rho."""
    e = rho.entries
    eigs = np.linalg.eigvalsh(0.5 * (e + e.conj().swapaxes(-1, -2)))
    return PositivityReport(
        min_population=_per_entry(rho.populations.min(axis=-1)),
        min_eigenvalue=_per_entry(eigs[..., 0]))
