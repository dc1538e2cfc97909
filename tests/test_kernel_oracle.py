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
from hypothesis import given
from hypothesis import strategies as st

from conftest import columns
from kernel_oracle import loop_kernel_data
from qheat import BathSpec, SystemSpec, kernel, make_coupled_qubits, make_single_qubit
from qheat.kernel import (LINDBLAD, MODES, NearDegeneracyError, build_kernel,
                          degeneracy_tolerance)
from test_kernel_properties import PROPERTY_SETTINGS, _baths, _parts

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


def _assert_plan_chains_meet_the_bracket(system, r, mode):
    """The chains x -> l -> y of the plan build_kernel takes, read off its
    left and right index arrays (padding reads X_00, which no chain reads,
    as x != l on supp X), are the chains on supp X x supp X that meet the
    level sum's bracket |W_xl + W_ly| <= eps by value, as the loop
    tests it."""
    n, s1 = system.dim, system.couplings[r]
    E = np.array(system.levels)
    support = s1 != 0
    rows, cols = support.nonzero()
    freqs = (E[rows] - E[cols]).tolist()
    where = {w: i for i, w in enumerate(dict.fromkeys(freqs))}
    plan = kernel._plan(n, mode == LINDBLAD, support.tobytes(),
                        tuple(where[w] for w in freqs))
    left = plan.left[:plan.chains.size]
    right = plan.right[:plan.chains.size][left != 0]
    left = left[left != 0]
    got = set(zip(left // n, left % n, right % n))
    W = E[:, None] - E
    supp = support | support.T
    bracket = np.abs(W[:, :, None] + W) <= degeneracy_tolerance(system.levels)
    assert got == set(zip(*np.nonzero(supp[:, :, None] & supp & bracket)))


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
        _assert_plan_chains_meet_the_bracket(system, r, mode)


@st.composite
def twin_systems(draw):
    """One coupling pattern on two spectra of N = 2..4 levels: generic
    levels and an exact ladder, whose transition frequencies coincide, so
    the two share supports and brackets but not frequency slots. Either
    spectrum may have one level doubled (at the same place in both), and
    each reservoir has its own random zero pattern of complex raising
    couplings."""
    n = draw(st.integers(2, 4))
    spacing = draw(st.sampled_from([0.25, 1.0, 3.0]))
    gaps = draw(st.lists(st.floats(0.5, 1.5), min_size=n - 1, max_size=n - 1))
    spectra = [list(np.cumsum([0.0, *gaps])), [spacing * i for i in range(n)]]
    if n > 2 and draw(st.booleans()):   # exactly degenerate: another bracket
        k = draw(st.integers(1, n - 1))
        for levels in spectra:
            levels[k] = levels[k - 1]
    couplings = {}
    for r in RESERVOIRS:
        s1 = np.zeros((n, n), dtype=complex)
        for p, q in zip(*np.tril_indices(n, -1)):
            if spectra[0][p] > spectra[0][q] and draw(st.booleans()):
                s1[p, q] = complex(draw(_parts), draw(_parts))
        couplings[r] = s1
    return [SystemSpec(levels=tuple(levels), couplings=couplings)
            for levels in spectra]


@PROPERTY_SETTINGS
@given(twin_systems(),
       st.one_of(_baths, st.lists(_baths, min_size=3, max_size=3).map(columns)))
def _builds_equal_loop_oracle(systems, bath):
    for system in systems:
        for r in RESERVOIRS:
            for mode in MODES:
                try:
                    got = build_kernel(system, bath, r, mode).data
                except NearDegeneracyError:
                    continue
                want = loop_kernel_data(system, bath, r, mode)
                assert got.tobytes() == want.tobytes()
                _assert_plan_chains_meet_the_bracket(system, r, mode)


def test_plans_cached_by_pattern_give_the_loop_bytes():
    """Is the plan's key enough? Drawn systems share one warm cache, so
    most builds take a plan that another system, with other levels,
    couplings and baths, made; each must still give the loop's bytes,
    and its chains must be those the level sum's bracket selects by
    value."""
    kernel._plan.cache_clear()
    _builds_equal_loop_oracle()
    info = kernel._plan.cache_info()
    assert info.hits > info.misses > 1



@pytest.mark.parametrize("top", [1.0, 3.0, 1e3])
def test_level_gaps_at_the_refusal_bound_give_the_loop_bytes(top):
    """Levels (0, gap, top), every transition coupled, at gaps from one
    ulp of eps above eps to eps + 6 ulp(top). Both modes refuse every gap
    up to eps + 4 ulp(top), naming the two levels, and every wider gap
    gives the loop's bytes: there the pairing rule and the loop's bracket
    agree. Without the 4 ulp(top) margin, redfield builds the gaps just
    above eps, where the rounded sum W_xl + W_ly falls inside the
    loop's bracket and the kernels differ."""
    eps, ulp = degeneracy_tolerance((top,)), math.ulp(top)
    gaps = ([eps + j * math.ulp(eps) for j in range(1, 8)]
            + [eps + k * ulp / 4 for k in range(1, 25)])
    s1 = np.tril(np.ones((3, 3)), -1)
    bath = BATHS["one"]
    for gap in gaps:
        system = SystemSpec(levels=(0.0, gap, top), couplings={"A": s1})
        for mode in MODES:
            if gap <= eps + 4 * ulp:
                with pytest.raises(NearDegeneracyError) as exc:
                    build_kernel(system, bath, "A", mode)
                assert str(exc.value).startswith(
                    f"distinct level energies 0.0 and {gap!r} differ by ")
                continue
            got = build_kernel(system, bath, "A", mode).data
            want = loop_kernel_data(system, bath, "A", mode)
            assert got.tobytes() == want.tobytes(), (gap, mode)
