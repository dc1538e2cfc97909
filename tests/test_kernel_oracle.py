"""build_kernel against the loop oracle, byte for byte.

The array construction must round every entry as the loop does, which
holds only while each complex product is formed from its real and
imaginary parts and each level sum runs in the loop's order. Any change
of order or of product form shows here as a differing byte, long before
it moves a closed form or a preset cell.
"""

import math

import numpy as np
import pytest

from conftest import columns
from kernel_oracle import loop_kernel_data
from qheat import BathSpec, SystemSpec, make_coupled_qubits, make_single_qubit
from qheat.kernel import MODES, build_kernel

RESERVOIRS = ("A", "B")


def _scaling_system(n, seed=31):
    """Level gaps in [0.5, 1.5] and dense complex raising couplings, drawn
    in the order the benchmark's scaling workload draws them."""
    rng = np.random.default_rng([seed, n])
    couplings = {}
    for r in RESERVOIRS:
        s1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        couplings[r] = np.tril(s1, -1) / math.sqrt(n)
    return SystemSpec(levels=tuple(np.cumsum(rng.uniform(0.5, 1.5, n))),
                      couplings=couplings)


def _degenerate_three_level():
    """Levels 1 and 2 coincide exactly, so the level sums pair distinct
    levels."""
    a = np.zeros((3, 3), dtype=complex)
    a[1, 0] = 1.0
    a[2, 0] = 0.5 - 0.25j
    b = np.zeros((3, 3), dtype=complex)
    b[1, 0] = 0.3j
    b[2, 0] = 0.8
    return SystemSpec(levels=(0.0, 1.0, 1.0), couplings={"A": a, "B": b})


def _ladder(n, spacing, seed=18):
    """Exactly equally spaced levels spacing * i and dense complex raising
    couplings: the transition frequencies coincide exactly, so lindblad's
    secular bracket keeps many pairs off the diagonal."""
    rng = np.random.default_rng([seed, n])
    couplings = {}
    for r in RESERVOIRS:
        s1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        couplings[r] = np.tril(s1, -1)
    return SystemSpec(levels=tuple(spacing * i for i in range(n)),
                      couplings=couplings)


def _negative_zero_parts(n=5, seed=19):
    """Levels and complex raising couplings drawn at random, where every
    supported coupling has a -0.0 real or imaginary part: X = S^1 + S^2
    turns each -0.0 real part into +0.0, so the kernel must not depend
    on the sign of a zero part."""
    rng = np.random.default_rng([seed, n])
    couplings = {}
    for r in RESERVOIRS:
        s1 = np.zeros((n, n), dtype=complex)
        for k, (x, y) in enumerate(zip(*np.tril_indices(n, -1))):
            value = rng.normal()
            s1[x, y] = complex(-0.0, value) if k % 2 else complex(value, -0.0)
        couplings[r] = s1
    return SystemSpec(levels=tuple(np.cumsum(rng.uniform(0.5, 1.5, n))),
                      couplings=couplings)


SYSTEMS = {
    "single": make_single_qubit(1.3),
    "coupled": make_coupled_qubits(1.0, 2.0, 0.5)[0],
    "coupled-resonant": make_coupled_qubits(1.5, 1.5, 0.4)[0],
    "degenerate-3": _degenerate_three_level(),
    # lam = 0: an exact ladder of levels, where omega1 > omega2 makes
    # -beta write a -0.0 coupling and omega1 < omega2 a coupling of 6e-17
    "uncoupled-12": make_coupled_qubits(1.0, 2.0, 0.0)[0],
    "uncoupled-21": make_coupled_qubits(2.0, 1.0, 0.0)[0],
    "negative-zero-parts": _negative_zero_parts(),
    **{f"random-n{n}": _scaling_system(n) for n in range(3, 11)},
    **{f"ladder-{name}-n{n}": _ladder(n, spacing)
       for name, spacing in (("unit", 1.0), ("quarter", 0.25))
       for n in (5, 6)},
}

BATHS = {
    "one": BathSpec(temperature=1.7, spectral_density=0.8),
    "stack": columns(BathSpec(temperature=t, spectral_density=g)
                     for t, g in ((0.0, 1.0), (0.7, 0.0), (2.3, 1.4))),
}


@pytest.mark.parametrize("baths", sorted(BATHS))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", list(SYSTEMS))
def test_kernel_bytes_equal_loop_oracle(name, mode, baths):
    system, bath = SYSTEMS[name], BATHS[baths]
    for r in system.couplings:
        got = build_kernel(system, bath, r, mode).data
        want = loop_kernel_data(system, bath, r, mode)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (r, np.max(np.abs(got - want)))
