"""Dissipative superoperator construction.

A reservoir couples through one Hermitian operator X = S^1 + S^2 in the
energy basis: S^1 raises the energy and S^2 = (S^1)^dagger lowers it,
so their supports are disjoint and X_xy is whichever is nonzero. The
bath enters through one correlation function D(w): D^{12}(w) at w > 0,
D^{21}(w) at w < 0. The kernel K_{pp',qq'} acts on density matrices
flattened row-major, index (p, p') -> p*N + p'. Both modes evaluate the
Born-approximation kernel

    K_{pp',qq'} = - delta_{p'q'} 1/2 sum_l X_pl  X_lq  D(E_pl)  [E_pl + E_lq = 0]
                  - delta_{pq}   1/2 sum_l X_q'l X_lp' D(E_q'l) [E_q'l + E_lp' = 0]
                  + 1/2 X_pq X_q'p' (D(E_q'p') + D(E_qp))       [E_pq E_q'p' < 0]

with E_pq = E_p - E_q and [x = 0] a Kronecker test with a tolerance
scaled to the energy spread. Each term pairs a raising with a lowering
element, as the vanishing (1,1) and (2,2) correlations demand: two
raising steps through l have E_x > E_l > E_y and never meet the
level-sum bracket, and the transfer bracket keeps the pairs whose
frequencies have opposite sign. The bracket on the two level-sum
(decay) terms applies in both modes; since the intermediate level l
drops out of those brackets, they reduce the level sums to the
frequency-diagonal part whenever the spectrum is nondegenerate. The
transfer term distinguishes the modes: redfield keeps its full
frequency content, lindblad narrows its bracket to the secular
(rotating wave) constraint [E_pq + E_q'p' = 0]. The full secular
projection makes the generator a proper quantum dynamical semigroup
generator, and every lindblad kernel preserves trace on its own.
Redfield mode keeps hermiticity but not positivity, and its surviving
non-secular transfer elements couple the populations to the coherences
of near-degenerate level pairs. It does not preserve trace reservoir by
reservoir: for the coupled pair, one reservoir's kernel leaves a
residual alpha*beta*g in its coherence columns, and only the sum over
reservoirs with equal couplings cancels it. Unequal couplings leave
alpha*beta*|g_A - g_B|, and solve_steady_state refuses such a total as
leaking trace, before any SVD. Acceptance criterion 09a asks for the
per-reservoir property and fails on exactly this residual.

Where redfield mode is valid is an open modelling question. On fig5's
grid (T_A - T_B = 10, mean temperature 5 to 8, 161 points) at fig5's
coupling g = 1, all 161 rows fail the second law and 54 have an
eigenvalue below -1e-10; at g = 0.1, none does either. As g -> 0 the
currents meet lindblad mode's: at g = 0.01 and T = (2, 1), q_A/g of
the coupled pair is 0.1013764 in redfield against 0.1014395 in
lindblad (tests/test_thermo.py pins all of these). Dropping the energy
bracket on the decay terms would make each kernel preserve trace, and
09a pass, but would change acceptance criteria 03 and 06 and
coupled_redfield_closed; which kernel the paper's non-secular figure
means is not settled here. Partial-secular, trace-preserving forms:
Cattaneo et al., NJP 21, 113045 (2019); Trushechkin, PRA 103, 062226
(2021).

build_kernel reads its baths as two columns, the temperatures and one
spectral density per bath: a BathColumns of B baths is that form, and
one BathSpec gives columns of length 1. The bath enters only through
one correlation table D[b, x, y] = D(E_x - E_y) on supp X, of shape
(B, N, N), bath axis first. It is filled from the distinct transition
frequencies w of S^1: each distinct spectral density object is looked
up once per w (a constant once in all), however many baths share it,
and one call of qheat.bath's occupation rule, the one planck_occupation
reads, gives every (bath, w), so that g (1 + n) and g n equal bath_correlation's
D^{12}(w) and D^{21}(-w) byte for byte. Everything after the table is
array algebra over that bath axis, with B = 1 for one bath (the axis is
then dropped from the data) and B for B baths, so the same code yields
a single kernel or one stacked kernel with data of shape
(B, N^2, N^2), and data[i] is bit-identical to the single-bath build of
bath i. A sweep over bath parameters (temperatures, coupling strengths)
thus builds its kernels once per batch instead of once per point, and
hands them over as columns with no per-point object.

The level sum of the two decay terms is one table per batch,

    G[b, x, y] = sum_l [E_xl + E_ly = 0] X_xl X_ly D[b, x, l],

filled by a loop over l alone. The decay terms subtract G[b, p, q]/2 on
the p' = q' diagonal of the (B, N, N, N, N) kernel indexed
[b, p, p', q, q'], and G[b, q', p']/2 on its p = q diagonal. The
transfer term is an outer product over supp X x supp X times
D[b, q', p'] + D[b, q, p], and half of it is added at the pairs its
bracket keeps, at most one term per entry. Lindblad forms it only on
the secular pairs. That drops nothing but +-0 terms: no entry is -0
before the transfer step, so adding them would change no byte, and a D
value that overflows reaches its own always secular pair
(q', p') = (q, p) and the level sum, so the overflow refusal is
unchanged.

The data are byte-identical to those of the six-deep loop over
(p, p', q, q', l, channel) that tests/kernel_oracle.py keeps as the
reference. Two rules keep them so. Every complex product is formed from
real and imaginary parts, (ar br - ai bi) + i (ar bi + ai br), as the
loop's numpy scalar products are: numpy's array complex multiply may
fuse a product into the sum (with numpy 2.4 on x86-64 it rounds
differently in 44 % of random products), which moves entries of
complex-coupled kernels by a few 1e-15. And every sum keeps the loop's
order: the level sum runs over l in sequence, and each entry takes its
decay terms before its transfer term. The loop's extra terms, one per
(l, channel) against one per l here, are +-0, as are the parts where
S^1 + S^2 turns a -0 into +0; a sum that starts at +0 keeps none of
those signs. combine_kernels and check_trace_condition, like the
steady-state and current layers downstream, act on each entry of a
stack as they act on a single kernel.

_frozen (the shape check), _per_entry (a Python scalar for one point, an
array for a stack) and _trace_residual serve every layer. No kernel
carries a reservoir label: steady_point keys kernels and currents by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathColumns, BathSpec, _occupations
from .system import SystemSpec

__all__ = [
    "LINDBLAD",
    "MODES",
    "NearDegeneracyError",
    "REDFIELD",
    "SuperKernel",
    "build_kernel",
    "check_trace_condition",
    "combine_kernels",
    "degeneracy_tolerance",
]

REDFIELD = "redfield"
LINDBLAD = "lindblad"
MODES = (REDFIELD, LINDBLAD)

TRACE_TOL = 1e-12


class NearDegeneracyError(ValueError):
    """Two distinct level energies (either mode) or transition
    frequencies (lindblad mode) sit within the secular tolerance of each
    other, so the Kronecker constraints of the kernel are ambiguous:
    merging or splitting them is a modelling decision, not a numerical
    one."""


def _frozen(values, side: int, what: str) -> np.ndarray:
    """values as a read-only, C-contiguous complex array of shape
    (side, side), or a (B, side, side) stack; any other shape raises a
    ValueError that calls the array what.

    An array that already is one and owns its memory is taken over as
    it is: whoever made it read-only has handed it over, and the layers
    pass their (B, N^2, N^2) stacks on this way instead of copying them.
    Anything else is copied, so a caller's writeable array is never
    aliased or frozen.
    """
    if not (type(values) is np.ndarray and values.dtype == complex
            and values.flags.c_contiguous and values.flags.owndata
            and not values.flags.writeable):
        values = np.array(values, dtype=complex, order="C")
        values.flags.writeable = False
    if values.ndim not in (2, 3) or values.shape[-2:] != (side, side):
        raise ValueError(f"{what} must be {side}x{side} or a (B, {side}, "
                         f"{side}) stack, got {values.shape}")
    return values


def _per_entry(values, cast=float):
    """One value per entry: cast(values), a plain Python value, for one
    point, where values is 0-d, and the array itself for a stack."""
    return cast(values) if np.ndim(values) == 0 else values


def _trace_residual(matrix: np.ndarray, n: int) -> np.ndarray:
    """Largest |sum_p matrix_{(p,p),(q,q')}| over the columns (q, q') of
    an (N^2, N^2) matrix, per entry of a stack; its population rows (p, p)
    sit at flat indices 0, N+1, 2(N+1), ..."""
    return np.max(np.abs(matrix[..., ::n + 1, :].sum(axis=-2)), axis=-1)


def degeneracy_tolerance(levels) -> float:
    """Absolute tolerance for 'equal energy' tests, scaled to the spectrum.

    Transition energies here come from closed-form diagonalisations, so
    the tolerance only has to absorb float rounding, not model error.
    """
    scale = max(abs(float(e)) for e in levels)
    return max(1e-9 * scale, 1e-12)


@dataclass(frozen=True, eq=False)
class SuperKernel:
    """Dense dissipative kernel of one reservoir (or a sum of reservoirs).

    data is the (N^2, N^2) complex matrix over flattened pair indices;
    row (p, p'), column (q, q'). A stack of B kernels of one reservoir,
    one per bath, has (B, N^2, N^2) data. combine_kernels reads mode to
    refuse mixing modes. Immutable after construction.
    """

    dim: int
    data: np.ndarray
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen(self.data, self.dim * self.dim,
                                                 "kernel data"))


def _reject_near_degenerate(values, what: str, eps: float):
    """Refuse two distinct values within eps of each other: sorted, the
    neighbours at a nonzero gap are the consecutive distinct values, and
    the first such pair at most eps apart is named."""
    values = sorted(values)
    for a, b in zip(values, values[1:]):
        if 0 < b - a <= eps:
            raise NearDegeneracyError(
                f"distinct {what} {a:g} and {b:g} differ by {b - a:g}, "
                f"inside the secular tolerance {eps:g}")


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for broadcastable complex arrays, each entry formed from the
    real and imaginary parts as (xr yr - xi yi) + i (xr yi + xi yr).

    numpy's array complex multiply may contract a product and a sum into
    one fused multiply-add, and then rounds differently from its scalar
    complex product; this form rounds each product and each sum on its
    own, as the scalar product does.
    """
    re = x.real * y.real
    out = np.empty(re.shape, dtype=complex)
    np.subtract(re, x.imag * y.imag, out=out.real)
    np.add(x.real * y.imag, x.imag * y.real, out=out.imag)
    return out


def _correlations(temperatures, densities, omegas: list):
    """D^{12}(w) and D^{21}(-w) of each bath, given as the columns of its
    temperatures and spectral densities, at each of the distinct
    frequencies omegas, all > 0: two (B, len(omegas)) arrays.

    Each entry equals bath_correlation(bath, 1, 2, w) or
    bath_correlation(bath, 2, 1, -w) byte for byte: g(w) (1 + n) and
    g(w) n, with the Planck occupations n read from qheat.bath's one
    occupation rule in one call for the whole table rather than a call
    per entry. Each distinct spectral density object is looked up once,
    in the order of its first bath, so the first bath whose table misses
    a frequency raises the SpectralLookupError it raises alone; a column
    of one shared density gives one row of g, broadcast over the baths.
    """
    distinct = list(dict.fromkeys(densities))
    g = np.array([density.at(omegas) for density in distinct])
    if len(distinct) > 1:
        row = {density: i for i, density in enumerate(distinct)}
        g = g[[row[density] for density in densities]]
    occupation = np.array(_occupations(temperatures, omegas)).reshape(
        len(temperatures), len(omegas))
    return g * (1.0 + occupation), g * occupation


def build_kernel(system: SystemSpec,
                 bath: BathSpec | BathColumns,
                 reservoir: str, mode: str) -> SuperKernel:
    """Dissipative kernel of one reservoir in Redfield or Lindblad mode.

    Both modes constrain the two level-sum terms to their energy
    conserving part; lindblad mode additionally applies the secular
    constraint to the transfer term (see the module docstring).

    bath is one BathSpec, giving a kernel with (N^2, N^2) data, or B
    baths as a BathColumns, giving one stacked kernel with
    (B, N^2, N^2) data whose entry data[i] is bit-identical to the data
    of the one-bath build of bath i. Both forms are read as the same two
    columns at the top, temperatures and spectral densities, and run the
    same array algebra over a leading bath axis, of length 1 for one
    bath and dropped at the end; the module docstring derives it. Any
    other object (a list of BathSpecs) raises a TypeError up front.

    The reservoir couples through X = S^1 + S^2, and the bath enters only
    through the correlation table D[b, x, y] = D(E_x - E_y) on supp X.
    Each bath's spectral density is looked up once per distinct
    transition frequency, the occupations come from qheat.bath's one
    occupation rule, and the entries equal those of the scalar
    bath_correlation byte for byte (_correlations). That keeps every
    query at a finite transition frequency and lets tabulated spectral
    densities list only the frequencies the model actually uses; a table
    missing one raises SpectralLookupError, and among B baths the first
    bath that misses one raises the error it raises alone.

    The data match the reference loop byte for byte (see the module
    docstring).

    A kernel with an entry that overflows to inf or NaN is refused with
    a ValueError naming the reservoir and the temperature and spectral
    density of its bath (among B baths, the first such bath).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if reservoir not in system.couplings:
        raise KeyError(
            f"system has no reservoir {reservoir!r}; have {sorted(system.couplings)}")
    # either form of bath as its two columns; batch is () for one BathSpec
    if isinstance(bath, BathSpec):
        temperatures, densities = (bath.temperature,), (bath.spectral_density,)
        batch = ()
    elif isinstance(bath, BathColumns):
        temperatures, densities = bath.temperatures, bath.spectral_densities
        batch = (len(temperatures),)
    else:
        raise TypeError(f"bath must be one BathSpec or one BathColumns, got "
                        f"{type(bath).__name__}")
    n_baths = len(temperatures)
    n = system.dim
    E = np.array(system.levels)
    W = E[:, None] - E                  # W[x, y] = E_x - E_y
    s1 = system.couplings[reservoir]
    x = s1 + s1.conj().T                # X = S^1 + S^2, disjoint supports
    # supp S^1 in row-major order and its frequencies, > 0 (S^1 raises)
    rows, cols = s1.nonzero()
    freqs = W[rows, cols].tolist()
    secular = mode == LINDBLAD
    eps = degeneracy_tolerance(system.levels)
    _reject_near_degenerate(system.levels, "level energies", eps)
    if secular:
        _reject_near_degenerate(freqs, "transition frequencies", eps)

    # the distinct frequencies, and where each of freqs sits among them
    omegas = list(dict.fromkeys(freqs))
    where = {w: i for i, w in enumerate(omegas)}
    slots = [where[w] for w in freqs]

    r = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # D[b, x, y]: D^{12}(E_x - E_y) on supp S^1, D^{21} on its transpose
        emission, absorption = _correlations(temperatures, densities, omegas)
        D = np.zeros((n_baths, n, n))
        D[:, rows, cols] = emission[:, slots]
        D[:, cols, rows] = absorption[:, slots]

        # G[b, x, y] = sum_l [W_xl + W_ly = 0] X_xl X_ly D[b, x, l] in l order;
        # the bracket drops the (1,1) and (2,2) chains, as E_x > E_l > E_y
        resonant = np.abs(W[:, :, None] + W) <= eps            # [x, l, y]
        chain = np.where(resonant, _product(x[:, :, None], x), 0)
        G = np.zeros((n_baths, n, n), dtype=complex)
        for l in range(n):
            G += chain[:, l] * D[:, :, l, None]
        half = 0.5 * G
        # K[b, p, p', q, q'] = - 1/2 G[b, p, q] d_p'q' - 1/2 G[b, q', p'] d_pq
        #     + 1/2 X_pq X_q'p' (D[b, q', p'] + D[b, q, p]) [W_pq W_q'p' < 0]
        data = np.zeros(batch + (n * n, n * n), dtype=complex)
        K = data.reshape(n_baths, n, n, n, n)
        # 0 - half, not -half, so that a zero entry is +0 as in the loop
        K[:, :, r, :, r] = 0.0 - half
        K[:, r, :, r, :] -= half.swapaxes(1, 2)
        # the transfer pairs of supp X x supp X; lindblad keeps only the
        # secular ones: no entry of K is -0 here, so adding the +-0 of a
        # dropped pair would change no byte, and a D value that overflows
        # also reaches its own secular pair (q', p') = (q, p)
        p, q = x.nonzero()
        w = W[p, q]
        keep = (np.abs(w[:, None] + w) <= eps if secular
                else (w[:, None] > 0) != (w > 0))
        i, j = np.nonzero(keep)
        p, q, qp, pp = p[i], q[i], p[j], q[j]
        outer = _product(x[p, q], x[qp, pp])
        K[:, p, pp, q, qp] += 0.5 * (outer * (D[:, qp, pp] + D[:, q, p]))
    if not np.isfinite(data).all():
        finite = np.isfinite(K).reshape(n_baths, -1).all(axis=1)
        j = int(np.argmin(finite))
        raise ValueError(
            f"kernel of reservoir {reservoir!r} overflows to inf or NaN at "
            f"temperature {temperatures[j]:g} with spectral density "
            f"{densities[j]!r}")
    data.flags.writeable = False
    return SuperKernel(dim=n, data=data, mode=mode)


def check_trace_condition(K: SuperKernel):
    """Largest per-column violation of sum_p K_{(p,p),(q,q')} = 0; a
    float, or an array with one value per entry of a stacked kernel.

    Zero (to rounding) for lindblad kernels and for the redfield total
    of reservoirs with equal couplings: there the probability leaving
    one level enters the others. A single redfield kernel of the coupled
    pair gives alpha*beta*g (from its coherence columns), and a redfield
    total with unequal couplings gives alpha*beta*|g_A - g_B|; see
    acceptance criterion 09a.
    """
    return _per_entry(_trace_residual(K.data, K.dim))


def combine_kernels(kernels) -> SuperKernel:
    """Entrywise sum of per-reservoir kernels of equal data shape and
    mode; for stacked kernels, the sum of each entry. The sum keeps dim
    and mode and nothing else. Kernels whose data shapes differ (another
    dimension, a stack beside a single kernel, stacks of unequal length)
    are refused with both shapes named, and Redfield beside Lindblad
    kernels with both modes named.
    """
    kernels = list(kernels)
    if not kernels:
        raise ValueError("need at least one kernel")
    shape = kernels[0].data.shape
    for k in kernels[1:]:
        if k.data.shape != shape:
            raise ValueError(f"kernel data shapes differ: {shape} vs {k.data.shape}")
    modes = {k.mode for k in kernels}
    if len(modes) > 1:
        raise ValueError(f"refusing to combine mixed modes {sorted(modes)}")
    data = kernels[0].data.copy()
    for k in kernels[1:]:
        data += k.data
    data.flags.writeable = False
    return SuperKernel(dim=kernels[0].dim, data=data, mode=kernels[0].mode)
