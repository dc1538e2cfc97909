import math
from pathlib import Path

import numpy as np
import pytest

import qheat
from kernel_oracle import bath_correlation
from qheat import BathSpec, SpectralDensity, kernel
from qheat.bath import SpectralLookupError, _correlations, planck_occupation


def test_occupation_reference_value():
    # 1/(e - 1)
    assert abs(planck_occupation(1.0, 1.0) - 0.5819767068693265) < 1e-15


def test_occupation_zero_temperature():
    assert planck_occupation(1.0, 0.0) == 0.0
    assert planck_occupation(0.3, 0.0) == 0.0


def test_occupation_classical_asymptote():
    # n -> T/omega - 1/2 for T >> omega
    assert abs(planck_occupation(1.0, 100.0) - 99.5) < 0.01
    assert abs(planck_occupation(2.0, 500.0) - (250.0 - 0.5)) < 0.01


def test_occupation_overflow_range():
    # naive 1/(e^x - 1) would overflow here; the rewrite must not
    n = planck_occupation(701.0, 1.0)
    assert n == math.exp(-701.0)
    assert n > 0.0
    # far enough down even the exponential underflows, quietly, to zero
    assert planck_occupation(800.0, 1.0) == 0.0
    # just below the switchover the two expressions agree anyway
    x = 699.0
    assert abs(planck_occupation(x, 1.0) - math.exp(-x)) < 1e-300


def test_occupation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        planck_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        planck_occupation(-1.0, 1.0)
    with pytest.raises(ValueError):
        planck_occupation(1.0, -0.5)


def test_occupation_rejects_underflowing_ratio():
    # omega/T rounds to 0, where 1/(exp(omega/T) - 1) has no float value
    with pytest.raises(ValueError, match="omega 1e-300, T 1e"):
        planck_occupation(1e-300, 1e30)
    # the same omega at a temperature it does not underflow against
    assert planck_occupation(1e-300, 1.0) == 1.0 / math.expm1(1e-300)


@pytest.mark.parametrize("omega", [5e-324, 1e-310])
def test_occupation_rejects_ratio_whose_inverse_overflows(omega):
    # 0 < omega/T < 1/DBL_MAX: 1/expm1(omega/T) is inf, not a float value
    with pytest.raises(ValueError, match=f"omega {omega:g}, T 1$"):
        planck_occupation(omega, 1.0)
    with pytest.raises(ValueError, match=f"omega {omega:g}, T 1$"):
        bath_correlation(BathSpec(temperature=1.0, spectral_density=1.0),
                         1, 2, omega)
    # a ratio just inside the float range still has its value
    assert planck_occupation(1e-300, 1.0) == pytest.approx(1e300, rel=1e-15)


def test_occupation_monotone_in_temperature():
    rng = np.random.default_rng(101)
    for _ in range(100):
        omega = rng.uniform(0.2, 5.0)
        t1 = rng.uniform(0.05, 10.0)
        t2 = t1 + rng.uniform(0.01, 5.0)
        assert planck_occupation(omega, t2) > planck_occupation(omega, t1)


def test_detailed_balance():
    # D^12(omega) = exp(omega/T) D^21(-omega)
    rng = np.random.default_rng(102)
    for _ in range(100):
        omega = rng.uniform(0.2, 5.0)
        t = rng.uniform(0.05, 10.0)
        g = rng.uniform(0.1, 2.0)
        bath = BathSpec(temperature=t, spectral_density=g)
        emit = bath_correlation(bath, 1, 2, omega)
        absorb = bath_correlation(bath, 2, 1, -omega)
        assert abs(emit - math.exp(omega / t) * absorb) <= 1e-12 * emit


def test_correlation_channels():
    bath = BathSpec(temperature=1.0, spectral_density=1.0)
    n = planck_occupation(1.0, 1.0)
    assert bath_correlation(bath, 1, 2, 1.0) == pytest.approx(1.0 + n, rel=1e-15)
    assert bath_correlation(bath, 2, 1, -1.0) == pytest.approx(n, rel=1e-15)
    # wrong-sign queries vanish
    assert bath_correlation(bath, 1, 2, -1.0) == 0.0
    assert bath_correlation(bath, 2, 1, 1.0) == 0.0
    # diagonal channels vanish identically, even at omega = 0
    for omega in (-1.0, 0.0, 1.0):
        assert bath_correlation(bath, 1, 1, omega) == 0.0
        assert bath_correlation(bath, 2, 2, omega) == 0.0


def test_correlation_zero_temperature():
    bath = BathSpec(temperature=0.0, spectral_density=1.5)
    assert bath_correlation(bath, 1, 2, 1.0) == 1.5     # spontaneous emission only
    assert bath_correlation(bath, 2, 1, -1.0) == 0.0    # nothing to absorb


def test_correlation_rejects_zero_frequency_on_active_channel():
    bath = BathSpec(temperature=1.0, spectral_density=1.0)
    with pytest.raises(ValueError):
        bath_correlation(bath, 1, 2, 0.0)
    with pytest.raises(ValueError):
        bath_correlation(bath, 2, 1, 0.0)


def test_correlation_rejects_bad_channel_indices():
    bath = BathSpec(temperature=1.0, spectral_density=1.0)
    with pytest.raises(ValueError):
        bath_correlation(bath, 0, 1, 1.0)
    with pytest.raises(ValueError):
        bath_correlation(bath, 1, 3, 1.0)


def test_spectral_density_constant():
    g = SpectralDensity.constant(0.7)
    assert g(0.1) == 0.7
    assert g(100.0) == 0.7
    with pytest.raises(ValueError):
        g(0.0)
    with pytest.raises(ValueError):
        g(-1.0)
    with pytest.raises(ValueError):
        SpectralDensity.constant(-0.1)


def test_spectral_density_table():
    g = SpectralDensity.from_table({1.0: 0.5, 2.0: 1.5})
    assert g(1.0) == 0.5
    assert g(2.0) == 1.5
    with pytest.raises(SpectralLookupError):
        g(1.5)
    # SpectralLookupError is a LookupError so generic handlers catch it
    assert issubclass(SpectralLookupError, LookupError)
    for missing in (1.5, 3.0):
        with pytest.raises(SpectralLookupError) as one:
            g(missing)
        with pytest.raises(SpectralLookupError) as first:
            g.at([1.0, 2.0, missing, 4.0])
        assert str(one.value) == str(first.value) == (
            f"no tabulated spectral density at omega={missing!r}")
    with pytest.raises(ValueError):
        SpectralDensity.from_table({-1.0: 0.5})
    with pytest.raises(ValueError):
        SpectralDensity.from_table({1.0: -0.5})


def test_spectral_density_needs_exactly_one_form():
    with pytest.raises(ValueError):
        SpectralDensity()
    with pytest.raises(ValueError):
        SpectralDensity(constant=1.0, table={1.0: 1.0})


def test_bath_spec_promotes_bare_numbers():
    bath = BathSpec(temperature=2.0, spectral_density=3)
    assert isinstance(bath.spectral_density, SpectralDensity)
    assert bath.spectral_density(1.0) == 3.0
    with pytest.raises(ValueError):
        BathSpec(temperature=-1.0, spectral_density=1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_rejected(bad):
    with pytest.raises(ValueError, match=f"temperature must be finite, got {bad}"):
        BathSpec(temperature=bad, spectral_density=1.0)
    with pytest.raises(ValueError, match=f"spectral density must be finite, got {bad}"):
        SpectralDensity.constant(bad)
    with pytest.raises(ValueError, match=f"entries must be finite, got {bad} at omega=1.0"):
        SpectralDensity.from_table({1.0: bad})
    with pytest.raises(ValueError, match="entries must be finite"):
        SpectralDensity.from_table({bad: 1.0})
    with pytest.raises(ValueError, match=f"temperature must be finite, got {bad}"):
        planck_occupation(1.0, bad)
    if bad == math.inf:
        assert planck_occupation(bad, 1.0) == 0.0     # the omega -> inf limit
    else:
        with pytest.raises(ValueError, match=f"occupation needs omega > 0, got {bad}"):
            planck_occupation(bad, 1.0)


def test_each_bath_rule_is_written_only_in_bath():
    """The Planck occupation, the temperature check and the correlation
    table live in qheat.bath alone; every other module calls them there.
    No other module reads the occupation rule itself, and build_kernel's
    table builder is qheat.bath's, so the kernel cannot hold a second
    copy of D^{12} = g (1 + n), D^{21} = g n."""
    for path in sorted(Path(qheat.__file__).parent.glob("*.py")):
        if path.name != "bath.py":
            source = path.read_text()
            assert "expm1" not in source, path.name
            assert "temperature must be" not in source, path.name
            assert "_occupations" not in source, path.name
            assert "def _correlations" not in source, path.name
    assert kernel._correlations is _correlations
    assert not hasattr(qheat.bath, "bath_correlation")
    # the CLI hands its grid columns to BathColumns: no copy of a rule
    cli_source = (Path(qheat.__file__).parent / "cli.py").read_text()
    assert "_check_temperature" not in cli_source
    assert "SpectralDensity" not in cli_source
