"""Dissipative superoperator construction.

The kernel K_{pp',qq'} of one reservoir acts on density matrices
flattened row-major, index (p, p') -> p*N + p'. Both modes evaluate the
Born-approximation kernel

    K_{pp',qq'} = - delta_{p'q'} 1/2 sum_{ab,l} S^a_{pl}  S^b_{lq}  D^{ab}(E_pl)  [E_pl + E_lq = 0]
                  - delta_{pq}   1/2 sum_{ab,l} S^a_{q'l} S^b_{lp'} D^{ab}(E_p'l) [E_q'l + E_lp' = 0]
                  + 1/2 sum_{ab} S^b_{pq} S^a_{q'p'} (D^{ab}(E_q'p') + D^{ab}(E_qp))

with E_pq = E_p - E_q, D^{ab} the bath correlation, and [x = 0] a
Kronecker test with a tolerance scaled to the energy spread. The bracket
on the two level-sum (decay) terms applies in both modes; since the
intermediate level l drops out of those brackets, they reduce the
level sums to the frequency-diagonal part whenever the spectrum is
nondegenerate. The transfer term distinguishes the modes: redfield
keeps its full frequency content, lindblad multiplies in the secular
(rotating wave) constraint [E_pq + E_q'p' = 0] there as well. The full
secular projection makes the generator a proper quantum dynamical
semigroup generator, and every lindblad kernel preserves trace on its
own. Redfield mode keeps hermiticity but not positivity, and its
surviving non-secular transfer elements couple the populations to the
coherences of near-degenerate level pairs. It does not preserve trace
reservoir by reservoir: for the coupled pair, one reservoir's kernel
leaves a residual alpha*beta*g in its coherence columns, and only the
sum over reservoirs with equal couplings cancels it (unequal couplings
leave alpha*beta*|g_A - g_B|). Acceptance criterion 09a asks for the
per-reservoir property and fails on exactly this residual.

build_kernel evaluates the bath only through one correlation table per
channel, filled before the loop: D^{ab}(E_x - E_y) at every (x, y) where
S^a_{xy} is nonzero, each distinct frequency once per bath. For one bath
the table has shape (N, N); for a sequence of B baths it has shape
(N, N, B), and the same loop, with the same products in the same order,
yields one stacked kernel with data of shape (B, N^2, N^2). A sweep over
bath parameters (temperatures, coupling strengths) thus pays the loop
once per batch instead of once per point, and data[i] is bit-identical
to the single-bath build of bath i. combine_kernels and
check_trace_condition, like the steady-state and current layers
downstream, act on each entry of such a stack as they act on a single
kernel.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, bath_correlation
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
    "pair_index",
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


def _frozen(values) -> np.ndarray:
    """values as a read-only, C-contiguous complex array.

    An array that already is one and owns its memory is taken over as
    it is: whoever made it read-only has handed it over, and the layers
    pass their (B, N^2, N^2) stacks on this way instead of copying them.
    Anything else is copied, so a caller's writeable array is never
    aliased or frozen.
    """
    if (type(values) is np.ndarray and values.dtype == complex
            and values.flags.c_contiguous and values.flags.owndata
            and not values.flags.writeable):
        return values
    copy = np.array(values, dtype=complex, order="C")
    copy.flags.writeable = False
    return copy


def pair_index(dim: int, p: int, q: int) -> int:
    """Flat row-major index of the ordered level pair (p, q)."""
    return p * dim + q


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
    one per bath, has (B, N^2, N^2) data. reservoir is a display name
    ("A+B" for a sum); reservoirs holds the individual labels,
    (reservoir,) unless given. Immutable after construction.
    """

    dim: int
    data: np.ndarray
    mode: str
    reservoir: str
    reservoirs: tuple | None = None

    def __post_init__(self):
        d2 = self.dim * self.dim
        data = _frozen(self.data)
        if data.ndim not in (2, 3) or data.shape[-2:] != (d2, d2):
            raise ValueError(f"kernel data must be {d2}x{d2} or a (B, {d2}, {d2}) "
                             f"stack, got {data.shape}")
        object.__setattr__(self, "data", data)
        labels = (self.reservoir,) if self.reservoirs is None else self.reservoirs
        object.__setattr__(self, "reservoirs", tuple(str(r) for r in labels))

    def entry(self, p: int, pp: int, q: int, qp: int) -> complex:
        """K_{(p,pp),(q,qp)} of a single (unstacked) kernel."""
        return complex(self.data[pair_index(self.dim, p, pp),
                                 pair_index(self.dim, q, qp)])


def _reject_near_degenerate(system: SystemSpec, reservoir: str, eps: float,
                            include_frequencies: bool):
    checks = [(sorted(set(system.levels)), "level energies")]
    if include_frequencies:
        s1 = system.couplings[reservoir]
        freqs = sorted({system.levels[p] - system.levels[q]
                        for p, q in zip(*np.nonzero(s1))})
        checks.append((freqs, "transition frequencies"))
    for values, what in checks:
        for a, b in zip(values, values[1:]):
            if b - a <= eps:
                raise NearDegeneracyError(
                    f"distinct {what} {a:g} and {b:g} differ by {b - a:g}, "
                    f"inside the secular tolerance {eps:g}")


def build_kernel(system: SystemSpec, bath: BathSpec | Sequence[BathSpec],
                 reservoir: str, mode: str) -> SuperKernel:
    """Dissipative kernel of one reservoir in Redfield or Lindblad mode.

    Both modes constrain the two level-sum terms to their energy
    conserving part; lindblad mode additionally applies the secular
    constraint to the transfer term (see the module docstring).

    bath is one BathSpec, giving a kernel with (N^2, N^2) data, or a
    sequence of B BathSpecs, giving one stacked kernel with (B, N^2, N^2)
    data whose entry data[i] is bit-identical to the data of
    build_kernel(system, bath[i], ...).

    Before the loop, each channel (a, b) gets one correlation table
    holding D^{ab}(E_x - E_y) at every (x, y) where S^a_{xy} is nonzero,
    of shape (N, N) for one bath and (N, N, B) for a sequence. Each
    distinct frequency is evaluated once per bath by bath_correlation,
    which keeps every query at a finite transition frequency and lets
    tabulated spectral densities list only the frequencies the model
    actually uses; a table missing one raises SpectralLookupError.

    A kernel with an entry that overflows to inf or NaN is refused with
    a ValueError naming the reservoir and the temperature and spectral
    density of its bath (for a sequence, the first such bath).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if reservoir not in system.couplings:
        raise KeyError(
            f"system has no reservoir {reservoir!r}; have {sorted(system.couplings)}")
    if isinstance(bath, BathSpec):
        baths, batch = (bath,), ()
    else:
        baths = tuple(bath)
        if not baths:
            raise ValueError("bath sequence is empty; need at least one BathSpec")
        batch = (len(baths),)
    n = system.dim
    E = system.levels
    secular = mode == LINDBLAD
    eps = degeneracy_tolerance(E)
    _reject_near_degenerate(system, reservoir, eps,
                            include_frequencies=secular)

    # one (S^a, S^b, D^{ab} table) triple per channel; (1,1) and (2,2)
    # correlations vanish
    s = {1: system.s_op(reservoir, 1), 2: system.s_op(reservoir, 2)}
    channels = []
    for a, b in ((1, 2), (2, 1)):
        support = list(zip(*s[a].nonzero()))
        values = {w: np.array([bath_correlation(x, a, b, w)
                               for x in baths]).reshape(batch)
                  for w in dict.fromkeys(E[x] - E[y] for x, y in support)}
        table = np.zeros((n, n) + batch)
        for x, y in support:
            table[x, y] = values[E[x] - E[y]]
        channels.append((s[a], s[b], table))

    # out is data with the pair axes first, so out[row, col] is one entry
    # for one bath and the B entries of a stack for a sequence
    data = np.zeros(batch + (n * n, n * n), dtype=complex)
    out = data.transpose(-2, -1, *range(len(batch)))
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(n):
            for pp in range(n):
                row = pair_index(n, p, pp)
                for q in range(n):
                    for qp in range(n):
                        val = 0j
                        if pp == qp:
                            acc = 0j
                            for l in range(n):
                                if abs((E[p] - E[l]) + (E[l] - E[q])) > eps:
                                    continue
                                for s_a, s_b, D in channels:
                                    prod = s_a[p, l] * s_b[l, q]
                                    if prod != 0:
                                        acc += prod * D[p, l]
                            val -= 0.5 * acc
                        if p == q:
                            acc = 0j
                            for l in range(n):
                                if abs((E[qp] - E[l]) + (E[l] - E[pp])) > eps:
                                    continue
                                # E_q' = E_p' here, so D at (q', l) is D(E_p'l)
                                for s_a, s_b, D in channels:
                                    prod = s_a[qp, l] * s_b[l, pp]
                                    if prod != 0:
                                        acc += prod * D[qp, l]
                            val -= 0.5 * acc
                        if not (secular and abs((E[p] - E[q]) + (E[qp] - E[pp])) > eps):
                            acc = 0j
                            # S^b = (S^a)^dagger, so S^a_qp != 0 wherever S^b_pq is
                            for s_a, s_b, D in channels:
                                prod = s_b[p, q] * s_a[qp, pp]
                                if prod != 0:
                                    acc += prod * (D[qp, pp] + D[q, p])
                            val += 0.5 * acc
                        out[row, pair_index(n, q, qp)] = val
    finite = np.isfinite(data).reshape(len(baths), -1).all(axis=1)
    if not finite.all():
        culprit = baths[int(np.argmin(finite))]
        raise ValueError(
            f"kernel of reservoir {reservoir!r} overflows to inf or NaN at "
            f"temperature {culprit.temperature:g} with spectral density "
            f"{culprit.spectral_density!r}")
    data.flags.writeable = False
    return SuperKernel(dim=n, data=data, mode=mode, reservoir=str(reservoir))


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
    n = K.dim
    pop_rows = [pair_index(n, p, p) for p in range(n)]
    col_sums = K.data[..., pop_rows, :].sum(axis=-2)
    worst = np.max(np.abs(col_sums), axis=-1)
    return float(worst) if worst.ndim == 0 else worst


def combine_kernels(kernels) -> SuperKernel:
    """Entrywise sum of per-reservoir kernels of equal data shape and
    mode; for stacked kernels, the sum of each entry. Kernels whose data
    shapes differ (another dimension, a stack beside a single kernel,
    stacks of unequal length) are refused with both shapes named, and
    Redfield beside Lindblad kernels with both modes named.
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
    return SuperKernel(dim=kernels[0].dim, data=data, mode=kernels[0].mode,
                       reservoir="+".join(k.reservoir for k in kernels),
                       reservoirs=tuple(r for k in kernels for r in k.reservoirs))
