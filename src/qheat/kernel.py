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
one correlation table of shape (B, 2 F), bath axis first, for the F
distinct transition frequencies w of S^1: D^{12}(w) in the first F
columns and D^{21}(-w) in the last F. D[b, x, y] = D(E_x - E_y) on
supp X is the column of the frequency of (x, y), a D^{12} one on supp
S^1 and a D^{21} one on its transpose. qheat.bath._correlations fills
the two halves, where every bath rule lives: each distinct spectral
density object is looked up once per w (a constant once in all),
however many baths share it, and one call of the occupation rule that
planck_occupation reads gives every (bath, w). build_kernel lays the
halves side by side. The scalar reference, tests/kernel_oracle.py's
bath_correlation, gives the same D^{12}(w) and D^{21}(-w) byte for
byte. Everything after the table is
array algebra over that bath axis, with B = 1 for one bath (the axis is
then dropped from the data) and B for B baths, so the same code yields
a single kernel or one stacked kernel with data of shape
(B, N^2, N^2), and data[i] is bit-identical to the single-bath build of
bath i. A sweep over bath parameters (temperatures, coupling strengths)
thus builds its kernels once per batch instead of once per point, and
hands them over as columns with no per-point object.

The build has two parts. The plan (_plan) is everything that depends on
the coupling pattern alone. Its key is N, the mode, supp S^1 and the
frequency slot of each entry of supp S^1 (entries of one slot share one
frequency, in the order dict.fromkeys gives them); it holds no level
value. From that key alone it lists, as flat read-only index arrays,
the entries of X and the columns of the correlation table each term
reads and the data entries each term writes. The key holds coincidence
patterns, not values, so every point of a model shares one plan, on
fresh draws and in CLI sweeps alike, and so do both reservoirs of the
paper's two models. Plans are cached by their key in a bounded
functools.lru_cache, as steady._blocks caches the blocks of a
generator. Every check of build_kernel (mode, reservoir, bath form,
both near-degeneracy refusals, the spectral lookups) runs before the
lookup, so a cached plan skips none of them.

The apply is the bath algebra. The level sum of the two decay terms,

    G[b, x, y] = sum_l [E_xl + E_ly = 0] X_xl X_ly D[b, x, l],

is formed on G's support only, the (x, y) joined by a chain
x -> l -> y. One _product forms the chain products X_xl X_ly and the
transfer products X_pq X_q'p' together. Each chain times its D is laid
out (B, L, S + 1) with l on the middle axis, and G is one .sum() over
that axis. numpy adds the rows of a middle axis in sequence (it sums
pairwise only along the innermost axis), so this is the loop over l
byte for byte; tests/test_kernel.py pins that order. The decay terms
subtract G[b, p, q]/2 where p' = q' and G[b, q', p']/2 where p = q,
written as (0 - h1) - h2 at the entries G's support reaches. Half the
transfer term X_pq X_q'p' (D[b, q', p'] + D[b, q, p]) is then added at
the flat index of each pair its bracket keeps, at most one pair per
entry: redfield keeps every pair of one raising and one lowering entry
of supp X, lindblad only the secular ones.

One pairing rule stands in for every bracket: two entries of supp X
meet it when one raises and the other lowers, and, for the level sum
and the secular transfer term, when both are of one slot (redfield's
transfer term keeps every raising-lowering pair). The near-degeneracy
refusals make it select what the brackets on the values
W_xy = E_x - E_y select. They put every transition frequency more than
eps from 0, so two raising (or two lowering) steps never meet a
bracket. A raising and a lowering step, of frequencies w1 and w2, have
W_xl + W_ly = +-(w1 - w2) as a chain x -> l -> y and
W_pq + W_q'p' = +-(w1 - w2) as a transfer pair. In lindblad mode the
frequency refusal puts any two distinct frequencies more than eps
apart, tested on these very floats, so either bracket holds exactly
when w1 = w2, in one slot. Redfield mode has no frequency refusal, and
its level sum rests on the level refusal alone: a chain meets its
bracket when E_x = E_y, which is w1 = w2, and the level refusal puts
any two distinct levels more than eps + 4 ulp(max |E|) apart. The
rounded sum fl(fl(E_x - E_l) + fl(E_l - E_y)) is within 2 ulp(max |E|)
of E_x - E_y before its last rounding, which then cannot round it to
eps or below, so the chain lies outside the bracket; and the two
frequencies fall in two slots. The margin is less than 1e-6 of eps.
Every other term in which the plan and the reference loop differ is
+-0: padding reads X_00 = 0, a term the plan drops has a zero product
or a zero D, and adding +-0 changes at most the sign of a zero. A
zero's sign in G never reaches the data, because (0 - h1) - h2 is +0
for zeros h1, h2 of either sign. No entry is -0 before the transfer
step, so a dropped +-0 transfer term would change no byte either. A D
value that overflows reaches its own pair (q', p') = (q, p), which both
modes keep, so the overflow refusal names the same bath as before.

The data are byte-identical to those of the six-deep loop over
(p, p', q, q', l, channel) that tests/kernel_oracle.py keeps as the
reference. Two rules keep them so. Every complex product is formed from
real and imaginary parts, (ar br - ai bi) + i (ar bi + ai br), as the
loop's numpy scalar products are: numpy's array complex multiply may
fuse a product into the sum (with numpy 2.4 on x86-64 it rounds
differently in 44 % of random products), which moves entries of
complex-coupled kernels by a few 1e-15. And every sum keeps the loop's
order: the level sum adds its chains in l order, and each entry takes
its decay terms before its transfer term. The loop's extra terms, one
per (l, channel) against one per chain here, are +-0 (see above), as
are the parts where S^1 + S^2 turns a -0 into +0.
combine_kernels and check_trace_condition, like the steady-state and
current layers downstream, act on each entry of a stack as they act on
a single kernel.

_frozen (the shape check), _per_entry (a Python scalar for one point, an
array for a stack) and _trace_residual serve every layer. No kernel
carries a reservoir label: steady_point keys kernels and currents by it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathColumns, BathSpec, _correlations
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
    """Two distinct level energies (either mode; within the secular
    tolerance plus 4 ulp of the largest |level|) or transition
    frequencies (lindblad mode; within the secular tolerance) sit too
    close, so the Kronecker constraints of the kernel are ambiguous:
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


def _reject_near_degenerate(values, what: str, eps: float, ulps: int = 0):
    """Refuse two distinct values at most eps, plus ulps ulp of the
    largest |value|, apart: sorted, the neighbours at a nonzero gap are
    the consecutive distinct values, and the first such pair within the
    bound is named, with both values and their gap in full (repr) and
    the bound's terms."""
    values = sorted(values)
    top = max(abs(values[0]), abs(values[-1])) if values else 0.0
    bound = eps + ulps * math.ulp(top)
    for a, b in zip(values, values[1:]):
        if 0 < b - a <= bound:
            widened = (f" plus {ulps} ulp of the largest magnitude {top!r}"
                       if ulps else "")
            raise NearDegeneracyError(
                f"distinct {what} {a!r} and {b!r} differ by {b - a!r}, "
                f"within the secular tolerance {eps!r}{widened}")


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


@dataclass(frozen=True, eq=False)
class _Plan:
    """Where build_kernel reads and writes, for one coupling pattern: flat
    index arrays, read-only, built by _plan. S counts the entries (x, y)
    of G's support, the pairs joined by at least one chain x -> l -> y.

    left, right: indices into X = S^1 + S^2 flattened; X[left] X[right]
        is first each chain X_xl X_ly, laid out as chains is, then each
        transfer pair X_pq X_q'p'. Padding reads X_00, which is 0.
    chains: (L, S + 1), row l and column s the column of the correlation
        table that holds D[x, l] for the chain x -> l -> y of support
        entry s = (x, y); where no such chain exists, and in the last
        column, padding, so that the last column's G is 0.
    decay, decay_row, decay_col: the flat data entries the decay terms
        reach, and at each the column of G its two terms subtract,
        G[p, q] where p' = q' and G[q', p'] where p = q, the last column
        where a term is absent.
    transfer, transfer_d: the flat data entry of each transfer pair, and
        the two table columns of D[q', p'] and D[q, p] it sums.
    """

    left: np.ndarray
    right: np.ndarray
    chains: np.ndarray
    decay: np.ndarray
    decay_row: np.ndarray
    decay_col: np.ndarray
    transfer: np.ndarray
    transfer_d: np.ndarray


@functools.lru_cache(maxsize=64)
def _plan(n: int, secular: bool, support_bytes: bytes, slots: tuple) -> _Plan:
    """The _Plan of a kernel of N = n levels: supp S^1 as the bytes of an
    (n, n) bool mask and the frequency slot of each entry of supp S^1 in
    row-major order (entries of one slot share one frequency).

    It reads nothing but its arguments, which hold patterns, not values,
    so systems that share them share a plan: every point of a model, and
    both of its reservoirs where their patterns agree. Every bracket is
    one pairing rule on them: two entries of supp X meet it when one
    raises and the other lowers, and, for the level sum and the secular
    transfer term, when both are of one slot (see the module docstring).
    """
    raising = np.frombuffer(support_bytes, dtype=bool).reshape(n, n)
    m = len(set(slots))
    rows, cols = raising.nonzero()
    # the slot of X_xy on supp X, and its column of the correlation table:
    # D^{12} of the slot on supp S^1, D^{21} on its transpose
    slot = np.zeros((n, n), dtype=np.intp)
    slot[rows, cols] = slot[cols, rows] = slots
    column = slot + m * raising.T
    supp = raising | raising.T

    # G's support: the (x, y) with a chain x -> l -> y, and its chains by
    # l; (x, l) and (l, y) raise and lower by one frequency, so E_x = E_y
    chain = (supp[:, :, None] & supp & (raising[:, :, None] != raising)
             & (slot[:, :, None] == slot))                      # [x, l, y]
    gx, gy = np.nonzero(chain.any(axis=1))
    l, s = np.nonzero(chain[gx, :, gy].T)
    shape = (l.max(initial=-1) + 1, len(gx) + 1)
    left, right, chains = (np.zeros(shape, dtype=np.intp) for _ in range(3))
    left[l, s], right[l, s] = gx[s] * n + l, l * n + gy[s]
    chains[l, s] = column[gx[s], l]

    # the column of G each decay term subtracts at [p, p', q, q']:
    # G[p, q] where p' = q', G[q', p'] where p = q, else the padding one
    r, g = np.arange(n), np.arange(len(gx))[:, None]
    row, col = np.full((2,) + (n,) * 4, len(gx))
    row[gx[:, None], r, gy[:, None], r] = g
    col[r, gy[:, None], r, gx[:, None]] = g
    decay = np.flatnonzero((row < len(gx)) | (col < len(gx)))

    # transfer pairs (p, q), (q', p') of supp X: one raising and one
    # lowering entry, and in lindblad mode of one slot (the secular ones)
    p, q = supp.nonzero()
    up = raising[p, q]
    keep = up[:, None] != up
    if secular:
        keep &= slot[p, q][:, None] == slot[p, q]
    i, j = np.nonzero(keep)
    p, q, qp, pp = p[i], q[i], p[j], q[j]

    nn = n * n
    arrays = dict(
        left=np.concatenate((left.ravel(), p * n + q)),
        right=np.concatenate((right.ravel(), qp * n + pp)),
        chains=chains, decay=decay, decay_row=row.ravel()[decay],
        decay_col=col.ravel()[decay], transfer=(p * n + pp) * nn + q * n + qp,
        transfer_d=np.stack((column[qp, pp], column[q, p])))
    for a in arrays.values():
        a.flags.writeable = False
    return _Plan(**arrays)


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
    through the correlation table, D^{12} and D^{21} per distinct
    transition frequency, which gives D[b, x, y] = D(E_x - E_y) on
    supp X. qheat.bath._correlations fills it: each bath's spectral
    density is looked up once per distinct transition frequency, the
    occupations come from qheat.bath's one occupation rule, and the
    entries equal those of the scalar reference bath_correlation in
    tests/kernel_oracle.py byte for byte. That keeps every
    query at a finite transition frequency and lets tabulated spectral
    densities list only the frequencies the model actually uses; a table
    missing one raises SpectralLookupError, and among B baths the first
    bath that misses one raises the error it raises alone.

    The checks come first: mode, reservoir, bath form, the refusal of
    near-degenerate levels (either mode; a gap up to eps + 4 ulp of the
    largest |level|) and transition frequencies (lindblad; up to eps).
    Then the pattern key (N, mode, supp S^1 and the frequency slot of
    each of its entries) fetches the cached _plan, and
    the apply gathers X on its support and the correlation table per
    slot, forms every product at once, sums the level sum over its l
    axis and writes the decay and transfer terms at the plan's flat
    indices. The data match the reference loop byte for byte (see the
    module docstring).

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
    s1 = system.couplings[reservoir]
    # supp S^1 in row-major order and its frequencies, > 0 (S^1 raises)
    support = s1 != 0
    rows, cols = support.nonzero()
    freqs = (E[rows] - E[cols]).tolist()
    secular = mode == LINDBLAD
    eps = degeneracy_tolerance(system.levels)
    # widened by the rounding of a chain's two frequency differences
    _reject_near_degenerate(system.levels, "level energies", eps, 4)
    if secular:
        _reject_near_degenerate(freqs, "transition frequencies", eps)

    # the distinct frequencies, and the slot of each of freqs among them
    omegas = list(dict.fromkeys(freqs))
    where = {w: i for i, w in enumerate(omegas)}
    slots = tuple(where[w] for w in freqs)
    plan = _plan(n, secular, support.tobytes(), slots)

    with np.errstate(over="ignore", invalid="ignore"):
        # table[b, k]: D^{12} of slot k, then D^{21} of slot k - len(omegas)
        table = np.concatenate(
            _correlations(temperatures, densities, omegas), axis=1)
        x = (s1 + s1.conj().T).ravel()  # X = S^1 + S^2, disjoint supports
        products = _product(x[plan.left], x[plan.right])
        chains = products[:plan.chains.size].reshape(plan.chains.shape)
        # G[b, s] = sum_l X_xl X_ly D[b, x, l], in l order, over the
        # chains of support entry s = (x, y); half is G / 2
        half = 0.5 * (chains * table[:, plan.chains]).sum(axis=1)
        data = np.zeros(batch + (n * n, n * n), dtype=complex)
        flat = data.reshape(n_baths, -1)
        # (0 - half) - half, so that a zero entry is +0 as in the loop
        flat[:, plan.decay] = ((0.0 - half[:, plan.decay_row])
                               - half[:, plan.decay_col])
        flat[:, plan.transfer] += 0.5 * (
            products[plan.chains.size:] * (table[:, plan.transfer_d[0]]
                                           + table[:, plan.transfer_d[1]]))
    if not np.isfinite(data).all():
        finite = np.isfinite(flat).all(axis=1)
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
