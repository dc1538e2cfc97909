"""The kernel as a six-deep loop over (p, p', q, q', l, channel).

A literal transcription of the formula in the qheat.kernel docstring,
entry by entry, and the reference that tests/test_kernel_oracle.py holds
build_kernel to byte for byte. It keeps the arithmetic the library used
before the array construction: every complex product is a numpy scalar
product, and each sum runs in the loop's (l, channel) order. It skips
the input checks of build_kernel and only returns the data.
"""

import numpy as np

from qheat import BathSpec
from qheat.bath import bath_correlation
from qheat.kernel import LINDBLAD, degeneracy_tolerance


def loop_kernel_data(system, bath, reservoir, mode):
    """Data of build_kernel(system, bath, reservoir, mode), from the loop."""
    if isinstance(bath, BathSpec):
        baths, batch = (bath,), ()
    else:
        baths = tuple(map(BathSpec, bath.temperatures, bath.spectral_densities))
        batch = (len(baths),)
    n = system.dim
    E = system.levels
    secular = mode == LINDBLAD
    eps = degeneracy_tolerance(E)

    # one (S^a, S^b, D^{ab} table) triple per channel; (1,1) and (2,2)
    # correlations vanish
    s = {1: system.couplings[reservoir], 2: system.couplings[reservoir].conj().T}
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
    # for one bath and the B entries of a stack for a BathColumns
    data = np.zeros(batch + (n * n, n * n), dtype=complex)
    out = data.transpose(-2, -1, *range(len(batch)))
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(n):
            for pp in range(n):
                row = p * n + pp
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
                        out[row, q * n + qp] = val
    return data
