import dataclasses
import math
import types
import warnings

import numpy as np
import pytest

from conftest import columns
from kernel_oracle import bath_correlation
from qheat import (BathColumns, BathSpec, SpectralDensity, SystemSpec, cli,
                   kernel, make_coupled_qubits, make_single_qubit, steady_point)
from qheat.bath import SpectralLookupError, _correlations, planck_occupation
from qheat.kernel import (MODES, NearDegeneracyError, SuperKernel, build_kernel,
                          check_trace_condition, combine_kernels,
                          degeneracy_tolerance)
from qheat.models import coupled_rates
from qheat.steady import gibbs_state


def entry(K, p, pp, q, qp):
    """K_{(p,pp),(q,qp)} of a single (unstacked) kernel."""
    n = K.dim
    return K.data[p * n + pp, q * n + qp]


def test_degeneracy_tolerance_scaling():
    assert degeneracy_tolerance((-1.5, 1.5)) == 1e-9 * 1.5
    assert degeneracy_tolerance((-1e-6, 1e-6)) == 1e-12   # absolute floor


def test_single_qubit_kernel_entries():
    """Emission and absorption rates plus the coherence decay rate of the
    two-level kernel, checked entry by entry."""
    omega0, g, t = 1.0, 1.3, 0.7
    system = make_single_qubit(omega0)
    bath = BathSpec(temperature=t, spectral_density=g, label="A")
    n = planck_occupation(omega0, t)
    for mode in ("lindblad", "redfield"):
        K = build_kernel(system, bath, "A", mode)
        assert entry(K, 1, 1, 1, 1) == pytest.approx(-g * (1 + n), rel=1e-14)
        assert entry(K, 0, 0, 1, 1) == pytest.approx(+g * (1 + n), rel=1e-14)
        assert entry(K, 1, 1, 0, 0) == pytest.approx(+g * n, rel=1e-14)
        assert entry(K, 0, 0, 0, 0) == pytest.approx(-g * n, rel=1e-14)
        gamma = -0.5 * g * (1 + 2 * n)
        assert entry(K, 0, 1, 0, 1) == pytest.approx(gamma, rel=1e-14)
        assert entry(K, 1, 0, 1, 0) == pytest.approx(gamma, rel=1e-14)
        # populations and coherences do not mix for a two-level system
        assert entry(K, 0, 0, 0, 1) == 0
        assert entry(K, 0, 1, 1, 1) == 0
        assert entry(K, 0, 1, 1, 0) == 0


def test_single_qubit_modes_identical():
    # a nondegenerate two-level system has a single transition frequency,
    # so the secular constraint removes nothing
    system = make_single_qubit(1.7)
    for t, g in ((0.0, 1.0), (0.5, 0.3), (4.0, 2.0)):
        bath = BathSpec(temperature=t, spectral_density=g, label="B")
        kr = build_kernel(system, bath, "B", "redfield")
        kl = build_kernel(system, bath, "B", "lindblad")
        assert np.array_equal(kr.data, kl.data)


def test_trace_condition_lindblad_kernels():
    single = make_single_qubit(1.0)
    coupled, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    bath_a = BathSpec(temperature=1.5, spectral_density=1.0, label="A")
    bath_b = BathSpec(temperature=1.0, spectral_density=0.5, label="B")
    for system in (single, coupled):
        ka = build_kernel(system, bath_a, "A", "lindblad")
        kb = build_kernel(system, bath_b, "B", "lindblad")
        assert check_trace_condition(ka) < 1e-12
        assert check_trace_condition(kb) < 1e-12
        assert check_trace_condition(combine_kernels([ka, kb])) < 1e-12


def test_coupled_population_block_matches_rates():
    """Restricted to the population pairs, each reservoir kernel is the
    classical rate matrix of its four transitions."""
    w1, w2, lam, g, ta, tb = 1.0, 2.0, 0.5, 1.0, 1.5, 1.0
    system, _ = make_coupled_qubits(w1, w2, lam)
    pop = [p * 4 + p for p in range(4)]

    def rate_matrix(r1, r2, r3, r4):
        return np.array([[-(r3 + r4), r2, r1, 0.0],
                         [r4, -(r2 + r3), 0.0, r1],
                         [r3, 0.0, -(r1 + r4), r2],
                         [0.0, r3, r4, -(r1 + r2)]])

    a = coupled_rates(w1, w2, lam, g, 0.0, ta, tb).a
    b = coupled_rates(w1, w2, lam, 0.0, g, ta, tb).b
    bath_a = BathSpec(temperature=ta, spectral_density=g, label="A")
    bath_b = BathSpec(temperature=tb, spectral_density=g, label="B")
    for mode in ("lindblad", "redfield"):
        ka = build_kernel(system, bath_a, "A", mode)
        kb = build_kernel(system, bath_b, "B", mode)
        blk_a = ka.data[np.ix_(pop, pop)]
        blk_b = kb.data[np.ix_(pop, pop)]
        assert np.max(np.abs(blk_a - rate_matrix(*a))) < 1e-13
        assert np.max(np.abs(blk_b - rate_matrix(*b))) < 1e-13
        assert np.max(np.abs(blk_a.imag)) == 0.0


def test_lindblad_population_coherence_decoupling():
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    bath = BathSpec(temperature=1.5, spectral_density=1.0, label="A")
    K = build_kernel(system, bath, "A", "lindblad")
    pop = [p * 4 + p for p in range(4)]
    coh = [i for i in range(16) if i not in pop]
    assert np.all(K.data[np.ix_(pop, coh)] == 0)
    assert np.all(K.data[np.ix_(coh, pop)] == 0)


def test_lindblad_kernel_is_subset_of_redfield():
    # every nonzero secular entry agrees bitwise with the non-secular kernel
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    for t, g in ((1.5, 1.0), (0.3, 0.7)):
        bath = BathSpec(temperature=t, spectral_density=g, label="A")
        kr = build_kernel(system, bath, "A", "redfield")
        kl = build_kernel(system, bath, "A", "lindblad")
        assert np.all((kl.data == 0) | (kr.data == kl.data))
        assert np.any(kr.data != kl.data)


def test_redfield_population_coherence_transfer_entries():
    """The non-secular kernel couples the outer populations to the central
    coherence pair with strength k, and only those."""
    w1, w2, lam, g, ta, tb = 1.0, 2.0, 0.5, 1.0, 1.5, 1.0
    system, _ = make_coupled_qubits(w1, w2, lam)
    bath_a = BathSpec(temperature=ta, spectral_density=g, label="A")
    bath_b = BathSpec(temperature=tb, spectral_density=g, label="B")
    K = combine_kernels([build_kernel(system, bath_a, "A", "redfield"),
                         build_kernel(system, bath_b, "B", "redfield")])
    k = coupled_rates(w1, w2, lam, g, g, ta, tb).k
    assert abs(k) > 1e-3
    for col in ((1, 2), (2, 1)):
        assert entry(K, 0, 0, *col) == pytest.approx(-k, rel=1e-12)
        assert entry(K, 3, 3, *col) == pytest.approx(+k, rel=1e-12)
        assert entry(K, 1, 1, *col) == 0
        assert entry(K, 2, 2, *col) == 0
    for row in ((1, 2), (2, 1)):
        assert entry(K, *row, 0, 0) == pytest.approx(-k, rel=1e-12)
        assert entry(K, *row, 3, 3) == pytest.approx(+k, rel=1e-12)
        assert entry(K, *row, 1, 1) == 0
        assert entry(K, *row, 2, 2) == 0


def test_redfield_per_reservoir_trace_residual():
    """Characterisation: one reservoir's non-secular kernel moves
    probability through the coherence columns at rate alpha beta g, and
    only the uniform-coupling total conserves it."""
    w1, w2, lam = 1.0, 2.0, 0.5
    system, diag = make_coupled_qubits(w1, w2, lam)
    ab = diag.alpha * diag.beta
    bath_a = BathSpec(temperature=1.5, spectral_density=1.0, label="A")
    bath_b = BathSpec(temperature=1.0, spectral_density=1.0, label="B")
    ka = build_kernel(system, bath_a, "A", "redfield")
    kb = build_kernel(system, bath_b, "B", "redfield")
    assert check_trace_condition(ka) == pytest.approx(ab * 1.0, rel=1e-12)
    assert check_trace_condition(kb) == pytest.approx(ab * 1.0, rel=1e-12)
    assert check_trace_condition(combine_kernels([ka, kb])) < 1e-12
    # unequal couplings leave a net violation of alpha beta |gA - gB|
    bath_b2 = BathSpec(temperature=1.0, spectral_density=0.4, label="B")
    kb2 = build_kernel(system, bath_b2, "B", "redfield")
    total = combine_kernels([ka, kb2])
    assert check_trace_condition(total) == pytest.approx(ab * 0.6, rel=1e-10)


def test_trace_check_detects_perturbation():
    system = make_single_qubit(1.0)
    bath = BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    K = build_kernel(system, bath, "A", "lindblad")
    data = np.array(K.data)
    data[0, 3] += 1e-3           # row (0, 0), column (1, 1)
    bad = SuperKernel(dim=2, data=data, mode="lindblad")
    assert check_trace_condition(bad) >= 1e-3 - 1e-12


def test_gibbs_state_annihilated_in_equilibrium():
    """Detailed balance: each secular kernel kills the thermal state at
    its own temperature. The non-secular kernel does so only as the
    equal-temperature uniform-coupling total, because its coherence rows
    see the population imbalance of a single reservoir."""
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    for t in (0.5, 1.5):
        bath = BathSpec(temperature=t, spectral_density=1.0, label="A")
        bath_b = BathSpec(temperature=t, spectral_density=1.0, label="B")
        rho = gibbs_state(system.levels, t).entries.reshape(-1)
        ka = build_kernel(system, bath, "A", "lindblad")
        kb = build_kernel(system, bath_b, "B", "lindblad")
        assert np.max(np.abs(ka.data @ rho)) < 1e-12
        assert np.max(np.abs(kb.data @ rho)) < 1e-12
        ra = build_kernel(system, bath, "A", "redfield")
        rb = build_kernel(system, bath_b, "B", "redfield")
        assert np.max(np.abs(ra.data @ rho)) > 1e-3
        assert np.max(np.abs(combine_kernels([ra, rb]).data @ rho)) < 1e-12


def test_near_degenerate_spectra_rejected():
    # distinct but nearly equal level energies are ambiguous for the
    # energy-matching constraints; both modes refuse
    system, _ = make_coupled_qubits(1.0, 1.0, 1e-13)
    bath = BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    for mode in ("lindblad", "redfield"):
        with pytest.raises(NearDegeneracyError):
            build_kernel(system, bath, "A", mode)
    # a gap above eps = 1e-9 by less than the rounding of a chain's two
    # frequency differences: the level refusal's margin of 4 ulp(1)
    # covers it, so redfield refuses it too instead of building a kernel
    # whose level sum the loop's bracket reads otherwise
    s1 = np.zeros((3, 3))
    s1[1, 0] = s1[2, 0] = s1[2, 1] = 1.0
    band = SystemSpec(levels=(0.0, 1.0000000000000129e-09, 1.0),
                      couplings={"A": s1})
    for mode in ("lindblad", "redfield"):
        with pytest.raises(NearDegeneracyError) as exc:
            build_kernel(band, bath, "A", mode)
        assert str(exc.value) == (
            "distinct level energies 0.0 and 1.0000000000000129e-09 differ "
            "by 1.0000000000000129e-09, within the secular tolerance 1e-09 "
            "plus 4 ulp of the largest magnitude 1.0")


def _degenerate_three_level():
    s1 = np.zeros((3, 3), dtype=complex)
    s1[1, 0] = 1.0
    s1[2, 0] = 1.0
    return SystemSpec(levels=(0.0, 1.0, 1.0), couplings={"A": s1})


def test_exactly_degenerate_levels_allowed():
    # bitwise equal energies are unambiguous and pass the guard
    system = _degenerate_three_level()
    bath = BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    K = build_kernel(system, bath, "A", "lindblad")
    assert check_trace_condition(K) < 1e-12


def test_tabulated_spectral_density_queried_at_transitions_only():
    system, diag = make_coupled_qubits(1.0, 2.0, 0.5)
    bath_t = BathSpec(
        temperature=1.0,
        spectral_density=SpectralDensity.from_table(
            {diag.omega_plus: 1.0, diag.omega_minus: 1.0}),
        label="A")
    bath_c = BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    kt = build_kernel(system, bath_t, "A", "redfield")
    kc = build_kernel(system, bath_c, "A", "redfield")
    assert np.array_equal(kt.data, kc.data)
    # a table missing one transition frequency surfaces as a lookup error
    bath_bad = BathSpec(
        temperature=1.0,
        spectral_density=SpectralDensity.from_table({diag.omega_plus: 1.0}),
        label="A")
    with pytest.raises(LookupError):
        build_kernel(system, bath_bad, "A", "redfield")
    # the column form queries the tables the same way
    kt_batch = build_kernel(system, columns([bath_c, bath_t]), "A", "redfield")
    assert all(np.array_equal(data, kc.data) for data in kt_batch.data)
    with pytest.raises(SpectralLookupError):
        build_kernel(system, columns([bath_c, bath_bad]), "A", "redfield")


class _CountingTable(dict):
    """A spectral-density table that logs each frequency looked up."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def __getitem__(self, omega):
        self.log.append(omega)
        return super().__getitem__(omega)


def _distinct_frequencies(system, reservoir):
    """The distinct E_p - E_q of the reservoir's S^1 support, in its
    row-major order."""
    E = system.levels
    s1 = system.couplings[reservoir]
    return list(dict.fromkeys(E[p] - E[q] for p, q in zip(*s1.nonzero())))


@pytest.mark.parametrize("n_baths", [None, 1, 3])
@pytest.mark.parametrize("name, per_bath", [("single", 2), ("coupled", 4)])
def test_each_frequency_evaluated_once_per_bath(name, per_bath, n_baths,
                                                monkeypatch):
    """Each kernel looks its reservoir's distinct transition frequencies
    up once per bath, for both channels together: per_bath lookups over
    the kernels of both reservoirs, one frequency each for the qubit,
    omega_plus and omega_minus each for the coupled pair."""
    system = _BATCH_SYSTEMS[name]
    want = [w for r in system.couplings
            for w in _distinct_frequencies(system, r)]
    logs, baths = [], []
    for i in range(n_baths or 1):
        density = SpectralDensity.from_table({w: 1.0 + i for w in want})
        logs.append([])
        monkeypatch.setattr(density, "_table",
                            _CountingTable(density._table, logs[-1]))
        baths.append(BathSpec(temperature=0.7 * i, spectral_density=density))
    for mode in ("lindblad", "redfield"):
        for log in logs:
            log.clear()
        for r in system.couplings:
            build_kernel(system, baths[0] if n_baths is None
                         else columns(baths), r, mode)
        for log in logs:
            assert len(log) == per_bath
            assert log == want


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _tables(baths, omegas):
    """qheat.bath._correlations of a list of baths, given as its columns."""
    return _correlations([b.temperature for b in baths],
                         [b.spectral_density for b in baths], omegas)


def test_correlation_tables_equal_bath_correlation_byte_for_byte():
    """The tables against the oracle's scalar bath_correlation: T = 0,
    omega/T > 700 (where exp(-omega/T) is subnormal) and exactly 700,
    seeded temperatures over 1e-3..1e3, g = 0 and a table."""
    rng = np.random.default_rng(18)
    omegas = list(dict.fromkeys([0.71, 0.72, 0.745, 350.0,
                                 *rng.uniform(0.05, 3.0, 12).tolist()]))
    table = SpectralDensity.from_table(
        {w: float(v) for w, v in zip(omegas, rng.uniform(0.0, 2.0, len(omegas)))})
    temps = [0.0, 1e-3, 0.5, 1e-4, *(10.0 ** rng.uniform(-3, 3, 40)).tolist()]
    # three density objects, each shared by many baths and looked up once
    densities = (SpectralDensity.constant(0.0), SpectralDensity.constant(1.3),
                 table)
    baths = [BathSpec(temperature=t, spectral_density=g)
             for t in temps for g in densities]
    emission, absorption = _tables(baths, omegas)
    assert emission.shape == absorption.shape == (len(baths), len(omegas))
    assert _bits(emission) == _bits([[bath_correlation(b, 1, 2, w)
                                      for w in omegas] for b in baths])
    assert _bits(absorption) == _bits([[bath_correlation(b, 2, 1, -w)
                                        for w in omegas] for b in baths])
    # the 700 boundary and the subnormal branch are both reached
    assert 0 < bath_correlation(baths[4], 2, 1, -0.72) < 1e-300


def test_correlation_tables_keep_planck_occupations_edges():
    """The tables' occupations and planck_occupation are one rule at its
    edges: T = 0, and omega/T one ulp below 700 (1/expm1) and one ulp
    above (exp(-omega/T)), byte for byte against the oracle's
    bath_correlation. Where planck_occupation refuses omega/T below 1/DBL_MAX (T = 1e300,
    omega = 2e-12), build_kernel refuses with its overflow error, which
    names the bath."""
    omegas = [float(np.nextafter(700.0, 0.0)), float(np.nextafter(700.0, np.inf))]
    baths = [BathSpec(temperature=t, spectral_density=g)
             for t in (0.0, 1.0) for g in (0.0, 1.3)]
    emission, absorption = _tables(baths, omegas)
    assert _bits(emission) == _bits([[bath_correlation(b, 1, 2, w)
                                      for w in omegas] for b in baths])
    assert _bits(absorption) == _bits([[bath_correlation(b, 2, 1, -w)
                                        for w in omegas] for b in baths])
    with pytest.raises(ValueError, match="^occupation overflows"):
        planck_occupation(2e-12, 1e300)
    hot = BathSpec(temperature=1e300, spectral_density=1.0)
    for mode in ("lindblad", "redfield"):
        with pytest.raises(ValueError) as exc:
            build_kernel(make_single_qubit(2e-12), hot, "A", mode)
        assert str(exc.value) == (
            "kernel of reservoir 'A' overflows to inf or NaN at temperature "
            "1e+300 with spectral density SpectralDensity.constant(1.0)")


@pytest.mark.parametrize("mode", ["lindblad", "redfield"])
def test_overflowing_kernel_names_its_tabulated_density(mode):
    table = SpectralDensity.from_table([(1.0, 1e308)])
    with pytest.raises(ValueError) as exc:
        build_kernel(make_single_qubit(1.0),
                     BathSpec(temperature=1.0, spectral_density=table),
                     "A", mode)
    assert str(exc.value) == (
        "kernel of reservoir 'A' overflows to inf or NaN at temperature 1 "
        "with spectral density SpectralDensity.from_table([(1.0, 1e+308)])")


@pytest.mark.parametrize("mode", ["lindblad", "redfield"])
def test_first_bath_missing_a_frequency_raises_its_own_error(mode):
    """Baths are read in stack order: the first one whose table misses a
    transition frequency raises the error it raises alone, whatever the
    later baths miss."""
    system, diag = make_coupled_qubits(1.0, 2.0, 0.5)
    plus, minus = diag.omega_plus, diag.omega_minus
    full = SpectralDensity.from_table({plus: 1.0, minus: 1.0})
    no_plus = SpectralDensity.from_table({minus: 1.0})
    no_minus = SpectralDensity.from_table({plus: 1.0})

    def baths(*densities):
        return [BathSpec(temperature=1.0, spectral_density=d)
                for d in densities]

    # reservoir A's support meets omega_minus first, so a frequency-major
    # read would blame no_minus in the second stack
    for stack, culprit, missing in (
            (baths(full, no_minus), no_minus, minus),
            (baths(full, no_plus, no_minus), no_plus, plus),
            (baths(no_minus, no_plus), no_minus, minus)):
        with pytest.raises(SpectralLookupError) as alone:
            build_kernel(system, baths(culprit)[0], "A", mode)
        with pytest.raises(SpectralLookupError) as exc:
            build_kernel(system, columns(stack), "A", mode)
        assert str(exc.value) == str(alone.value)
        assert str(exc.value).endswith(f"omega={missing!r}")


@pytest.mark.parametrize("t, g, named", [
    (1e308, 1.0, "temperature 1e+308 with spectral density "
                 "SpectralDensity.constant(1.0)"),
    (1.0, 1e308, "temperature 1 with spectral density "
                 "SpectralDensity.constant(1e+308)"),
])
@pytest.mark.parametrize("system", [make_single_qubit(1.0),
                                    make_coupled_qubits(1.0, 2.0, 0.5)[0]],
                         ids=["single", "coupled"])
def test_overflowing_kernel_names_its_bath(system, t, g, named):
    fine = BathSpec(temperature=2.0, spectral_density=0.5, label="A")
    bad = BathSpec(temperature=t, spectral_density=g, label="A")
    worse = BathSpec(temperature=1e308, spectral_density=1e308, label="A")
    message = f"kernel of reservoir 'A' overflows to inf or NaN at {named}"
    for mode in ("lindblad", "redfield"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                build_kernel(system, bad, "A", mode)
            assert str(exc.value) == message
            # in a stack, the first overflowing bath is named
            stack = columns([fine, bad, fine, worse])
            with pytest.raises(ValueError) as exc:
                build_kernel(system, stack, "A", mode)
            assert str(exc.value) == message


def _random_system(rng, n):
    couplings = {r: np.tril(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)), -1) / np.sqrt(n)
                 for r in ("A", "B")}
    return SystemSpec(levels=tuple(np.cumsum(rng.uniform(0.5, 1.5, n))),
                      couplings=couplings)


_BATCH_SYSTEMS = {
    "single": make_single_qubit(1.3),
    "coupled": make_coupled_qubits(1.0, 2.0, 0.5)[0],
    **{f"random-n{n}": _random_system(np.random.default_rng([7, n]), n)
       for n in range(3, 7)},
    "degenerate-3": _degenerate_three_level(),
}


@pytest.mark.parametrize("mode", ["lindblad", "redfield"])
@pytest.mark.parametrize("name", sorted(_BATCH_SYSTEMS))
def test_batched_build_equals_single_builds(name, mode):
    system = _BATCH_SYSTEMS[name]
    baths = [BathSpec(temperature=t, spectral_density=g, label="A")
             for t in (0.0, 0.05, 0.7, 3.0, 16.0) for g in (0.0, 0.4, 1.0)]
    batch = build_kernel(system, columns(baths), "A", mode)
    d2 = system.dim ** 2
    assert batch.data.shape == (len(baths), d2, d2)
    assert batch.data.flags.c_contiguous
    assert (batch.dim, batch.mode) == (system.dim, mode)
    singles = [build_kernel(system, bath, "A", mode) for bath in baths]
    for data, single in zip(batch.data, singles):
        assert np.array_equal(data, single.data)
    assert np.array_equal(check_trace_condition(batch),
                          [check_trace_condition(k) for k in singles])
    # densities shared by value build the bytes of one density per bath
    shared = {g: SpectralDensity.constant(g) for g in (0.0, 0.4, 1.0)}
    stack = BathColumns(
        [b.temperature for b in baths],
        [shared[b.spectral_density.at([1.0])[0]] for b in baths])
    assert build_kernel(system, stack, "A", mode).data.tobytes() == \
        batch.data.tobytes()


def _bath_spec_refusal(temperatures, densities):
    """The type and message of what the BathSpecs of a column's entries
    raise, every temperature checked before any density, or None where
    each entry makes a BathSpec."""
    one = SpectralDensity.constant(1.0)
    for T, density in [(T, one) for T in temperatures] + list(
            zip(temperatures, densities)):
        try:
            BathSpec(temperature=T, spectral_density=density)
        except Exception as exc:
            return type(exc), str(exc)
    return None


def test_bath_columns_refuse_what_a_bath_refuses():
    """A column refuses what the BathSpecs of its entries refuse, with
    the same type and message: the first refused temperature, else the
    first refused density in bath order. The densities it takes are
    promoted as BathSpec promotes them, one object per distinct value."""
    one = SpectralDensity.constant(1.0)
    for temperatures, densities, message in (
            ([1.0, 2.0], [one],
             "bath columns differ in length: 2 temperatures, 1 spectral "
             "densities"),
            ([], [], "bath columns are empty")):
        with pytest.raises(ValueError) as exc:
            BathColumns(temperatures, densities)
        assert str(exc.value).startswith(message)
    for temperatures, densities in (
            ([1.0, -0.5, math.nan], [one] * 3),
            ([1.0, math.inf], [one] * 2),
            # every temperature is checked before any density, and a
            # one-entry column in BathSpec's order
            ([1.0, math.nan], [None, one]),
            ([-1.0], [-1.0]),
            ([1.0], [None]),
            ([1.0], ["x"]),
            ([1.0] * 2, [math.nan, -1]),
            ([1.0] * 2, [-1, math.nan]),
            ([1.0] * 3, [-0.0, "2.5", None]),
            # unhashable entries, and the first bad entry in bath order
            ([1.0, 2.0], [[1.0], {}]),
            ([1.0] * 4, [one, 2.0, [3.0], 2.0])):
        want = _bath_spec_refusal(temperatures, densities)
        assert want is not None, densities
        with pytest.raises(want[0]) as exc:
            BathColumns(temperatures, densities)
        assert (type(exc.value), str(exc.value)) == want
    densities = [0.0, -0.0, 2, "2.5", one, 2.0, -0.0, 0.0]
    assert _bath_spec_refusal([1.0] * 8, densities) is None
    got = BathColumns([1.0] * 8, densities).spectral_densities
    assert [repr(d) for d in got] == [
        repr(BathSpec(temperature=1.0, spectral_density=d).spectral_density)
        for d in densities]
    assert got[0] is got[7] and got[1] is got[6] and got[2] is got[5]
    assert got[4] is one and len({id(d) for d in got}) == 5


def test_build_kernel_input_validation():
    system = make_single_qubit(1.0)
    bath = BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    with pytest.raises(ValueError):
        build_kernel(system, bath, "A", "secular")
    with pytest.raises(KeyError):
        build_kernel(system, bath, "C", "lindblad")


@pytest.mark.parametrize("form", [list, tuple,
                                  lambda baths: (b for b in baths)],
                         ids=["list", "tuple", "generator"])
def test_baths_other_than_a_spec_or_columns_are_refused(form, monkeypatch):
    """build_kernel, and steady_point through it, take one BathSpec or a
    BathColumns: a list, a tuple or a generator of BathSpecs, empty or
    not, raises a TypeError naming both forms before any bath is read."""
    def unreachable(*args):
        raise AssertionError("a correlation table was filled")
    monkeypatch.setattr(kernel, "_correlations", unreachable)
    system = make_single_qubit(1.0)
    bath = BathSpec(temperature=1.0, spectral_density=1.0)
    for baths in ([], [bath, bath]):
        message = ("bath must be one BathSpec or one BathColumns, got "
                   f"{type(form(baths)).__name__}")
        with pytest.raises(TypeError) as exc:
            build_kernel(system, form(baths), "A", "lindblad")
        assert str(exc.value) == message
        with pytest.raises(TypeError) as exc:
            steady_point(system, {r: form(baths) for r in system.couplings},
                         "lindblad")
        assert str(exc.value) == message


def test_combine_kernels_behaviour():
    system = make_single_qubit(1.0)
    bath_a = BathSpec(temperature=2.0, spectral_density=1.0, label="A")
    bath_b = BathSpec(temperature=1.0, spectral_density=0.5, label="B")
    ka = build_kernel(system, bath_a, "A", "lindblad")
    kb = build_kernel(system, bath_b, "B", "lindblad")
    total = combine_kernels([ka, kb])
    assert np.array_equal(total.data, ka.data + kb.data)
    assert total.mode == "lindblad"
    with pytest.raises(ValueError):
        combine_kernels([])
    other = build_kernel(make_coupled_qubits(1.0, 2.0, 0.5)[0],
                         bath_a, "A", "lindblad")
    with pytest.raises(ValueError, match=r"\(4, 4\) vs \(16, 16\)"):
        combine_kernels([ka, other])
    # a stack beside a single kernel, or stacks of unequal length, are
    # refused in either order instead of broadcasting
    stack3 = build_kernel(system, columns([bath_b] * 3), "B", "lindblad")
    stack1 = build_kernel(system, columns([bath_b]), "B", "lindblad")
    for first, second in ((stack3, ka), (ka, stack3), (stack3, stack1),
                          (stack1, stack3)):
        with pytest.raises(ValueError) as exc:
            combine_kernels([first, second])
        assert str(exc.value) == (f"kernel data shapes differ: "
                                  f"{first.data.shape} vs {second.data.shape}")


def test_reservoir_labels_may_contain_plus():
    """Labels live only in the system's couplings and the keys of
    steady_point's currents, so any string serves and changes no number."""
    hot = BathSpec(temperature=2.0, spectral_density=1.0)
    cold = BathSpec(temperature=0.5, spectral_density=0.7)
    qubit = make_single_qubit(1.0)
    s1 = qubit.couplings["A"]
    for mode in ("lindblad", "redfield"):
        systems = {labels: SystemSpec(levels=qubit.levels,
                                      couplings=dict.fromkeys(labels, s1))
                   for labels in (("hot+1", "B"), ("A", "B"))}
        plus, plain = (steady_point(system, dict(zip(labels, (hot, cold))),
                                    mode)
                       for labels, system in systems.items())
        assert tuple(plus.currents) == ("hot+1", "B")
        for r, r0, bath in (("hot+1", "A", hot), ("B", "B", cold)):
            assert np.array_equal(
                build_kernel(systems["hot+1", "B"], bath, r, mode).data,
                build_kernel(systems["A", "B"], bath, r0, mode).data)
            assert plus.currents[r] == plain.currents[r0]
        assert np.array_equal(plus.rho.entries, plain.rho.entries)


def test_combine_kernels_mixed_modes():
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    bath = BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    kr = build_kernel(system, bath, "A", "redfield")
    kl = build_kernel(system, bath, "A", "lindblad")
    for pair in ([kr, kl], [kl, kr]):
        with pytest.raises(ValueError) as exc:
            combine_kernels(pair)
        assert "lindblad" in str(exc.value) and "redfield" in str(exc.value)


def test_kernel_data_is_immutable():
    system = make_single_qubit(1.0)
    bath = BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    K = build_kernel(system, bath, "A", "lindblad")
    with pytest.raises(ValueError):
        K.data[0, 0] = 1.0
    with pytest.raises(ValueError):
        SuperKernel(dim=2, data=np.zeros((3, 3)), mode="lindblad")


def test_fresh_coupled_draws_share_one_plan_per_mode():
    """The plan cache is keyed by coincidence patterns, not values: both
    reservoirs of 64 coupled pairs, each drawn afresh, make one plan per
    mode."""
    rng = np.random.default_rng(31)
    kernel._plan.cache_clear()
    for mode in MODES:
        for _ in range(64):
            w1, w2 = rng.uniform(0.5, 2.0, 2)
            lam = rng.uniform(0.05, 0.95) * math.sqrt(w1 * w2)
            system, _ = make_coupled_qubits(w1, w2, lam)
            bath = BathSpec(temperature=rng.uniform(0.0, 3.0),
                            spectral_density=rng.uniform(0.1, 2.0))
            for r in system.couplings:
                build_kernel(system, bath, r, mode)
    info = kernel._plan.cache_info()
    assert (info.misses, info.hits) == (2, 254)


def test_a_lambda_sweep_makes_one_plan_and_the_rows_of_fresh_plans(
        tmp_path, monkeypatch):
    """Every point of a system sweep has its own levels and couplings, and
    all of them share one plan; its rows are those of a build that makes
    a fresh plan for every kernel."""
    argv = ["sweep", "--model", "coupled", "--var", "lambda", "--ta", "2",
            "--range", "0:0.9:7", "--out"]
    kernel._plan.cache_clear()
    assert cli.main([*argv, str(tmp_path / "cached.csv")]) == 0
    assert kernel._plan.cache_info().misses == 1
    monkeypatch.setattr(kernel, "_plan", kernel._plan.__wrapped__)
    assert cli.main([*argv, str(tmp_path / "fresh.csv")]) == 0
    cached, fresh = ((tmp_path / f"{name}.csv").read_bytes()
                     for name in ("cached", "fresh"))
    assert cached == fresh and cached.count(b",ok\n") == 7


def _one_transition(levels, *entries):
    s1 = np.zeros((len(levels), len(levels)))
    for p, q, value in entries:
        s1[p, q] = value
    return SystemSpec(levels=levels, couplings={"A": s1})


@pytest.mark.parametrize("cached, near, modes, message", [
    # exactly degenerate levels pass and leave the key of the near ones
    (_one_transition((0.0, 1.0, 1.0), (1, 0, 1.0)),
     _one_transition((0.0, 1.0, 1.0 + 1e-12), (1, 0, 1.0)), MODES,
     "distinct level energies 1.0 and 1.000000000001 differ by "
     "1.000088900582341e-12, within the secular tolerance "
     "1.0000000000010001e-09 plus 4 ulp of the largest magnitude "
     "1.000000000001"),
    # distinct frequencies far apart or within eps have one slot pattern
    (_one_transition((0.0, 1.0, 2.5), (1, 0, 1.0), (2, 1, 0.5)),
     _one_transition((0.0, 1.0, 2.0 + 1e-12), (1, 0, 1.0), (2, 1, 0.5)),
     ("lindblad",),
     "distinct transition frequencies 1.0 and 1.000000000001 differ by "
     "1.000088900582341e-12, within the secular tolerance "
     "2.000000000001e-09"),
])
def test_a_cached_plan_skips_no_near_degeneracy_refusal(cached, near, modes,
                                                        message, monkeypatch):
    """A near-degenerate system whose pattern key is cached is still
    refused, with the message it gets on a cold cache: the refusals run
    before the plan lookup. The patched build leaves a passing analysis
    on near itself, so the refused builds take a fresh system of near's
    levels and couplings; one refused system raises its message on every
    build."""
    bath = BathSpec(temperature=1.0, spectral_density=1.0)
    for mode in modes:
        build_kernel(cached, bath, "A", mode)
        with monkeypatch.context() as m:    # the key of near is cached
            m.setattr(kernel, "_reject_near_degenerate", lambda *args: None)
            misses = kernel._plan.cache_info().misses
            build_kernel(near, bath, "A", mode)
            assert kernel._plan.cache_info().misses == misses
        fresh = SystemSpec(levels=near.levels, couplings=near.couplings)
        for _ in range(2):
            with pytest.raises(NearDegeneracyError) as exc:
                build_kernel(fresh, bath, "A", mode)
            assert str(exc.value) == message


def test_the_frequency_verdict_refuses_lindblad_builds_alone():
    """A system whose transition frequencies are near-degenerate keeps
    the frequency refusal's verdict in its analysis: its redfield builds
    pass and its lindblad builds are refused, in either order."""
    message = ("distinct transition frequencies 1.0 and 1.000000000001 "
               "differ by 1.000088900582341e-12, within the secular "
               "tolerance 2.000000000001e-09")
    bath = BathSpec(temperature=1.0, spectral_density=1.0)
    for order in (MODES, MODES[::-1]):
        near = _one_transition((0.0, 1.0, 2.0 + 1e-12), (1, 0, 1.0),
                               (2, 1, 0.5))
        for mode in order + order:
            if mode == "redfield":
                build_kernel(near, bath, "A", mode)
                continue
            with pytest.raises(NearDegeneracyError) as exc:
                build_kernel(near, bath, "A", mode)
            assert str(exc.value) == message


def _counted_analyses(monkeypatch):
    """The (system, supp S^1) of every kernel._analyse call from here on."""
    calls, real = [], kernel._analyse
    monkeypatch.setattr(kernel, "_analyse", lambda system, support: (
        calls.append((system, support.tobytes())) or real(system, support)))
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_a_points_two_reservoirs_run_one_analysis(mode, monkeypatch):
    """Both reservoirs of each paper model, and of a dense random system,
    share one coupling support, so a point runs the transition analysis
    once; later builds on the same system object run none."""
    calls = _counted_analyses(monkeypatch)
    for model, params in (
            ("single", dict(w0=1.3, ga=1.0, gb=0.5, ta=2.0, tb=1.0)),
            ("coupled", dict(w1=1.0, w2=2.0, lam=0.5, g=1.0, ta=2.0,
                             tb=1.0))):
        cli.compute_point(model, mode, params)
    assert len(calls) == 2
    system = _random_system(np.random.default_rng([7, 6]), 6)
    bath = BathSpec(temperature=1.5, spectral_density=0.8)
    for _ in range(2):
        for r in system.couplings:
            build_kernel(system, bath, r, mode)
    assert len(calls) == 3 and calls[-1][0] is system


def test_reservoirs_of_two_supports_run_one_analysis_each(monkeypatch):
    """Reservoirs A and C share a support and B has its own: the system
    runs one analysis per support over every build in both modes, and
    each kernel equals, byte for byte, the build on a fresh system."""
    levels = (0.0, 1.0, 2.5)
    couplings = {r: np.zeros((3, 3), dtype=complex) for r in "ABC"}
    couplings["A"][1, 0], couplings["A"][2, 1] = 1.0, 0.5j
    couplings["B"][2, 0] = 0.7
    couplings["C"][1, 0], couplings["C"][2, 1] = -0.3, 2.0
    system = SystemSpec(levels=levels, couplings=couplings)
    calls = _counted_analyses(monkeypatch)
    bath = BathSpec(temperature=1.5, spectral_density=0.8)
    for mode in MODES:
        for _ in range(2):
            for r in couplings:
                fresh = SystemSpec(levels=levels, couplings=couplings)
                assert (build_kernel(system, bath, r, mode).data.tobytes()
                        == build_kernel(fresh, bath, r, mode).data.tobytes())
    ours = [support for s, support in calls if s is system]
    assert ours == [(couplings[r] != 0).tobytes() for r in ("A", "B")]


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0),
                                 complex(math.nan, 1.0),
                                 complex(0.0, -math.inf),
                                 complex(1.0, math.nan)])
def test_a_kernel_entry_non_finite_in_one_part_is_refused(bad, monkeypatch):
    """The kernel's finiteness is read on the float view of its data, so
    an entry with inf or NaN in its real or imaginary part alone is
    refused with the message that names its bath. The apply cannot give
    such an entry, since a product with a real factor spreads 0 * inf =
    NaN to the other part, so it is planted where no term writes: entry
    (0, 1), (0, 0) of the single qubit, in the last bath of the data
    np.zeros allocates."""
    planted = types.ModuleType("numpy")
    planted.__dict__.update(np.__dict__)

    def zeros(shape, dtype=float):
        out = np.zeros(shape, dtype)
        if dtype is complex:
            out.reshape(-1, 4, 4)[-1, 1, 0] = bad
        return out

    planted.zeros = zeros
    monkeypatch.setattr(kernel, "np", planted)
    qubit = make_single_qubit(1.0)
    fine, last = (BathSpec(temperature=t, spectral_density=1.0)
                  for t in (1.0, 2.0))
    for mode in MODES:
        for bath in (last, columns([fine, last])):
            with pytest.raises(ValueError) as exc:
                build_kernel(qubit, bath, "A", mode)
            assert str(exc.value) == (
                "kernel of reservoir 'A' overflows to inf or NaN at "
                "temperature 2 with spectral density "
                "SpectralDensity.constant(1.0)")


def test_plans_are_read_only(monkeypatch):
    plans, real = [], kernel._plan
    monkeypatch.setattr(kernel, "_plan",
                        lambda *key: plans.append(real(*key)) or plans[-1])
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    bath = BathSpec(temperature=1.0, spectral_density=1.0)
    for mode in MODES:
        build_kernel(system, bath, "A", mode)
    assert len(plans) == 2
    for plan in plans:
        for field in dataclasses.fields(plan):
            array = getattr(plan, field.name)
            assert array.size
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.left = None


@pytest.mark.parametrize("batch", [1, 3])
def test_a_sum_over_a_middle_axis_adds_in_order(batch):
    """build_kernel's level sum is one .sum() over the l axis of a
    (B, L, S + 1) array, S + 1 >= 3 wherever L > 1, and relies on numpy
    adding its rows l in sequence, as the reference loop does. Along an
    innermost axis numpy sums pairwise instead, and on these terms of
    mixed magnitude and sign that rounds differently."""
    rng = np.random.default_rng(7)
    shape = (batch, 11, 3)
    terms = (rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.integers(-8, 9, shape)
             + 1j * rng.choice([-1.0, 1.0], shape)
             * 10.0 ** rng.integers(-8, 9, shape))
    loop = terms[:, 0].copy()
    for l in range(1, shape[1]):
        loop += terms[:, l]
    assert terms.sum(axis=1).tobytes() == loop.tobytes()
    innermost = np.ascontiguousarray(terms.swapaxes(1, 2)).sum(axis=-1)
    assert innermost.tobytes() != loop.tobytes()
