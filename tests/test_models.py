import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheat import (coupled_lindblad_closed, coupled_redfield_closed,
                   limit_currents, make_coupled_qubits, make_single_qubit,
                   pauli_steady_state, single_qubit_closed)
from qheat.models import coupled_rates
from test_kernel_properties import PROPERTY_SETTINGS

REF = dict(omega1=1.0, omega2=2.0, lam=0.5)


def test_single_qubit_closed_reference():
    out = single_qubit_closed(1.0, 1.0, 1.0, 2.0, 1.0)
    assert abs(out.rho_plus - 0.3399216660850968) < 1e-15
    assert abs(out.q_a - 0.1535979428592492) < 1e-15
    assert out.q_b == -out.q_a
    assert abs(out.rho_plus + out.rho_minus - 1.0) < 1e-15
    assert abs(out.ratio - out.rho_plus / out.rho_minus) < 1e-15


def test_single_qubit_quenched_is_boltzmann():
    out = single_qubit_closed(1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(out.ratio - math.exp(-1.0)) < 1e-15
    assert abs(out.rho_plus - 0.2689414213699951) < 1e-15
    assert out.q_a == 0.0


def test_single_qubit_equilibrium_current_vanishes():
    out = single_qubit_closed(1.3, 0.7, 1.9, 0.8, 0.8)
    assert out.q_a == 0.0


def test_single_qubit_closed_guards():
    with pytest.raises(ValueError):
        single_qubit_closed(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        single_qubit_closed(1.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        single_qubit_closed(1.0, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            "spectral densities must be >= 0, got -1.0, 1.0")):
        single_qubit_closed(1.0, lambda omega: -1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("omega1, omega2, lam, message", [
    (0.0, 2.0, 0.5, "qubit splittings must be > 0, got 0.0, 2.0"),
    (1.0, 2.0, 3.0, "need 0 <= lam < sqrt(omega1*omega2) = 1.41421, "
                    "got lam = 3.0"),
    # omega1 omega2 underflows to 0, and overflows to inf
    (1e-200, 2e-200, 1.5e-200, "need 0 <= lam < sqrt(omega1*omega2) = "
                               "1.41421e-200, got lam = 1.5e-200"),
    (1e160, 4e160, 3e160, "need 0 <= lam < sqrt(omega1*omega2) = 2e+160, "
                          "got lam = 3e+160"),
])
def test_coupled_rates_refuse_unusable_geometry(omega1, omega2, lam, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coupled_rates(omega1, omega2, lam, 1.0, 1.0, 1.0, 1.0)


def test_coupled_lindblad_closed_refuses_no_dissipation():
    with pytest.raises(ValueError, match="^no dissipation on one transition "
                                         "group; steady state undefined$"):
        coupled_lindblad_closed(g_a=0.0, g_b=0.0, t_a=1.0, t_b=1.0, **REF)


@pytest.mark.parametrize("form, args, message", [
    # each raised OverflowError in n_norm's squares
    (coupled_lindblad_closed, (1e-200, 2e-200, 7e-201, 1, 1, 1, 1),
     "normalisation factor leaves the float range at total rate "
     "3.97351e+200, transfer strength 0, e = -1.72047e-200"),
    (coupled_lindblad_closed, (1.0, 1.0, 1e-150, 1e-200, 1e-200, 1.0, 1e300),
     "normalisation factor leaves the float range at total rate 2e+100, "
     "transfer strength -5e+99, e = -2e-150"),
    (coupled_redfield_closed, (1e300, 1e300, 1e200, 1e150, 1e150, 1e-300),
     "normalisation factor leaves the float range at total rate 2e+150, "
     "transfer strength 0, e = -2e+200"),
    # raised ZeroDivisionError: the two rate sums are finite, their product 0
    (coupled_lindblad_closed,
     (1e150, 1e150, 1e-300, 1e-200, 1e-200, 1e-200, 1.0),
     "population normaliser (s1+s3)(s2+s4) = 1e-200 * 1e-200 underflows "
     "to 0"),
])
def test_closed_forms_refuse_values_past_the_float_range(form, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        form(*args)


_LIMIT_PARAMS = {"single": ("omega0", "g_a", "g_b", "t_a", "t_b"),
                 "coupled": ("omega1", "omega2", "lam", "g_a", "g_b", "t_a",
                             "t_b")}


def _limit(model, regime):
    """limit_currents of one model and regime, taking its parameters in
    the order of _LIMIT_PARAMS."""
    def form(*args):
        return limit_currents(model, regime,
                              **dict(zip(_LIMIT_PARAMS[model], args)))
    form.__name__ = f"limit_currents_{model}_{regime}"
    return form


def _pauli_single(omega0, g_a, g_b, t_a, t_b):
    """pauli_steady_state of make_single_qubit(omega0) between two baths."""
    qubit = make_single_qubit(omega0)
    return pauli_steady_state(qubit.levels, qubit.couplings,
                              {"A": g_a, "B": g_b}, {"A": t_a, "B": t_b})


_ARITY = {single_qubit_closed: 5, coupled_lindblad_closed: 7,
          coupled_redfield_closed: 6, _pauli_single: 5,
          **{_limit(model, regime): len(names)
             for model, names in _LIMIT_PARAMS.items()
             for regime in ("high", "low")}}
_extremes = st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x)


def _numbers(value):
    """Every number in a closed form's result: through dataclasses, whose
    q_a and q_b properties count too, dicts, tuples and arrays."""
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
        names += [p for p in ("q_a", "q_b") if p not in names and hasattr(value, p)]
        for name in names:
            yield from _numbers(getattr(value, name))
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (tuple, list, np.ndarray)):
        for v in value:
            yield from _numbers(v)
    elif value is not None:
        yield value


@settings(PROPERTY_SETTINGS, max_examples=500)
@given(st.sampled_from(list(_ARITY)), st.data(), st.booleans(),
       st.booleans())
def test_closed_forms_raise_only_value_errors_at_float_extremes(
        form, data, uniform, numpy_scalars):
    """Parameters drawn log-uniform from 1e-300 to 1e300, as floats or
    as np.float64: a closed form, limit_currents in either model and
    regime, or pauli_steady_state of the single qubit returns only
    finite numbers or refuses with a ValueError, and raises or warns
    nothing else."""
    args = data.draw(st.lists(_extremes, min_size=_ARITY[form],
                              max_size=_ARITY[form]))
    if form is coupled_lindblad_closed and uniform:
        args[4] = args[3]       # g_b = g_a: coupled_rates computes n_norm
    if numpy_scalars:
        args = [np.float64(x) for x in args]
    try:
        result = form(*args)
    except ValueError:
        return
    numbers = list(_numbers(result))
    assert numbers and all(np.isfinite(x) for x in numbers), (args, result)


@pytest.mark.parametrize("form, args, message", [
    (single_qubit_closed, (1.0, 1e300, 1e300, 1.0, 2.0),
     "single_qubit_closed gives a non-finite q_a = -inf at omega0=1.0, "
     "g_a=1e+300, g_b=1e+300, t_a=1.0, t_b=2.0"),
    (coupled_lindblad_closed, (1.0, 2.0, 0.5, 1.0, 1e300, 1e300, 1.0),
     "coupled_lindblad_closed gives a non-finite populations = "
     "(nan, nan, nan, nan) at omega1=1.0, omega2=2.0, lam=0.5, g_a=1.0, "
     "g_b=1e+300, t_a=1e+300, t_b=1.0"),
    # raised ZeroDivisionError: g_a T_A + g_b T_B underflows to 0
    (_limit("single", "high"), (1.0, 1e-200, 1e-200, 1e-200, 1e-200),
     "limit_currents('single', 'high') gives a non-finite q_a = nan at "
     "omega0=1.0, g_a=1e-200, g_b=1e-200, t_a=1e-200, t_b=1e-200"),
    (_limit("single", "high"), (1e300, 1e300, 1e300, 2.0, 1.0),
     "limit_currents('single', 'high') gives a non-finite q_a = inf at "
     "omega0=1e+300, g_a=1e+300, g_b=1e+300, t_a=2.0, t_b=1.0"),
    # warned of two overflows and returned NaN populations and currents
    (_pauli_single, (1.0, 1e300, 1e300, 1e300, 1.0),
     "pauli_steady_state gives a non-finite rate_matrix = "
     "[[-inf, inf], [inf, -inf]] at levels=[-0.5, 0.5], "
     "g={'A': 1e+300, 'B': 1e+300}, t={'A': 1e+300, 'B': 1.0}"),
], ids=["single", "coupled-lindblad", "limit-underflow", "limit-overflow",
        "pauli"])
def test_closed_forms_refuse_non_finite_results_by_name(form, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        form(*args)


def test_low_temperature_limit_takes_t_zero():
    """exp(-w/T) is 0 at T = 0, where limit_currents raised
    ZeroDivisionError: q_A = g_A g_B w0 / (g_A + g_B) (0 - exp(-w0/T_B))."""
    out = limit_currents("single", "low", omega0=1.0, g_a=1.0, g_b=1.0,
                         t_a=0.0, t_b=1.0)
    assert out == {"q_a": -0.5 * math.exp(-1.0), "q_b": 0.5 * math.exp(-1.0)}
    coupled = limit_currents("coupled", "low", g_a=1.0, g_b=1.0, t_a=0.0,
                             t_b=0.0, **REF)
    assert coupled["q_a"] == 0.0


def test_coupled_rates_structure():
    r = coupled_rates(g_a=1.0, g_b=1.0, t_a=1.5, t_b=1.0, **REF)
    assert all(x >= 0 for x in r.a + r.b + r.c + r.d)
    assert all(abs(s - (a + b)) < 1e-15
               for s, a, b in zip(r.s, r.a, r.b))
    assert abs(r.s_sum - sum(r.s)) < 1e-15
    assert r.e == pytest.approx(-2.0 * math.sqrt(0.5), rel=1e-15)
    assert r.omega_plus > r.omega_minus > 0
    # the two transfer-strength expressions are the same number
    k12 = (r.c[0] + r.c[1]) - (r.d[0] + r.d[1])
    k34 = (r.c[2] + r.c[3]) - (r.d[2] + r.d[3])
    assert abs(k12 - k34) < 1e-12
    assert abs(r.k - k12) < 1e-15


def test_coupled_rates_equilibrium_and_uniformity():
    r = coupled_rates(g_a=1.0, g_b=1.0, t_a=1.2, t_b=1.2, **REF)
    assert r.k == 0.0
    # non-uniform couplings have no closed non-secular form
    r = coupled_rates(g_a=1.0, g_b=0.5, t_a=1.5, t_b=1.0, **REF)
    assert r.c is None and r.d is None and r.k is None and r.n_norm is None
    # callable spectral densities are accepted
    r1 = coupled_rates(g_a=lambda w: 1.0, g_b=1.0, t_a=1.5, t_b=1.0, **REF)
    r2 = coupled_rates(g_a=1.0, g_b=1.0, t_a=1.5, t_b=1.0, **REF)
    assert r1.a == r2.a and r1.k == r2.k


def test_coupled_lindblad_reference_point():
    out = coupled_lindblad_closed(g_a=1.0, g_b=1.0, t_a=1.5, t_b=1.0, **REF)
    expected = (0.5623954962371036, 0.3227169660639386,
                0.07299889734654817, 0.04188864035240953)
    assert all(abs(p - e) < 1e-14 for p, e in zip(out.populations, expected))
    assert abs(out.q_a_plus - 0.037062040998273114) < 1e-15
    assert abs(out.q_a_minus - 0.016346028165929935) < 1e-15
    assert abs(out.q_a - 0.05340806916420305) < 1e-15
    assert out.q_b_plus == -out.q_a_plus
    assert out.q_b_minus == -out.q_a_minus
    assert abs(sum(out.populations) - 1.0) < 1e-14


def test_coupled_lindblad_temperature_extremes():
    # equal hot reservoirs flatten the populations, cold ones condense
    hot = coupled_lindblad_closed(g_a=1.0, g_b=1.0, t_a=1e6, t_b=1e6, **REF)
    assert all(abs(p - 0.25) < 1e-5 for p in hot.populations)
    cold = coupled_lindblad_closed(g_a=1.0, g_b=1.0, t_a=0.01, t_b=0.01, **REF)
    assert cold.populations[0] > 1.0 - 1e-10
    # a3 b1 - a1 b3 cancels to rounding noise on each rate scale
    assert abs(hot.q_a) < 1e-9
    assert abs(cold.q_a) < 1e-100


def test_coupled_redfield_reference_point():
    out = coupled_redfield_closed(g=1.0, t_a=1.5, t_b=1.0, **REF)
    expected = (0.5662259911584187, 0.32360859853801865,
                0.07082856572221959, 0.03933684458134304)
    assert all(abs(p - e) < 1e-14 for p, e in zip(out.populations, expected))
    assert abs(out.rho_23 - (-0.022133174075188874 - 0.012542395427795295j)) < 1e-15
    assert out.rho_32 == out.rho_23.conjugate()
    assert abs(sum(out.populations) - 1.0) < 1e-13
    # the normalisation is exactly the closed combination of the rates
    r = out.rates
    s1, s2, s3, s4 = r.s
    n_again = ((r.s_sum ** 2 + 4 * r.e ** 2) * (s1 + s3) * (s2 + s4)
               - 4 * (r.k * r.s_sum) ** 2)
    assert abs(r.n_norm - n_again) <= 1e-12 * abs(n_again)


def test_coupled_redfield_equilibrium_matches_secular():
    red = coupled_redfield_closed(g=1.0, t_a=1.2, t_b=1.2, **REF)
    lin = coupled_lindblad_closed(g_a=1.0, g_b=1.0, t_a=1.2, t_b=1.2, **REF)
    assert red.rho_23 == 0
    assert red.rho_32 == 0
    assert all(abs(p - q) < 1e-15
               for p, q in zip(red.populations, lin.populations))


def test_coupled_redfield_pathology_point():
    out = coupled_redfield_closed(g=1.0, t_a=10.5, t_b=0.5, **REF)
    assert min(out.populations[1], out.populations[3]) < 0


def test_coupled_redfield_guards():
    with pytest.raises(ValueError):
        coupled_redfield_closed(g=0.0, t_a=1.5, t_b=1.0, **REF)
    with pytest.raises(ValueError):
        coupled_redfield_closed(g=-1.0, t_a=1.5, t_b=1.0, **REF)
    with pytest.raises((TypeError, ValueError)):
        coupled_redfield_closed(g=lambda w: 1.0, t_a=1.5, t_b=1.0, **REF)
    # at g = 1e-200 the rates are of order 1e-200 and their products in
    # the normalisation underflow to 0: refused, not divided by
    assert coupled_rates(g_a=1e-200, g_b=1e-200, t_a=1.5, t_b=1.0,
                         **REF).n_norm == 0.0
    with pytest.raises(ValueError, match="^normalisation factor vanished"):
        coupled_redfield_closed(g=1e-200, t_a=1.5, t_b=1.0, **REF)


def test_coherence_correction_shifts_populations():
    """Out of equilibrium the -4k^2 terms move rho_11 away from its
    secular value whenever the transfer strength and the population
    product asymmetry are both alive."""
    ref = coupled_redfield_closed(g=1.0, t_a=1.5, t_b=1.0, **REF)
    lin = coupled_lindblad_closed(g_a=1.0, g_b=1.0, t_a=1.5, t_b=1.0, **REF)
    assert abs(ref.populations[0] - lin.populations[0]) > 1e-6
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(100):
        w1 = rng.uniform(0.2, 5.0)
        w2 = rng.uniform(0.2, 5.0)
        lam = rng.uniform(0.1, 0.9) * math.sqrt(w1 * w2)
        g = rng.uniform(0.1, 2.0)
        ta = rng.uniform(0.05, 10.0)
        tb = rng.uniform(0.05, 10.0)
        red = coupled_redfield_closed(w1, w2, lam, g, ta, tb)
        s1, s2, s3, s4 = red.rates.s
        if abs(red.rates.k) < 1e-3 or abs(s1 * s2 - s3 * s4) < 1e-3:
            continue
        sec = coupled_lindblad_closed(w1, w2, lam, g, g, ta, tb)
        assert abs(red.populations[0] - sec.populations[0]) > 1e-14
        checked += 1
    assert checked > 50


def test_limit_current_expressions():
    out = limit_currents("single", "high", omega0=1.0, g_a=1.0, g_b=2.0,
                         t_a=60.0, t_b=51.0)
    assert out["q_a"] == pytest.approx(
        0.5 * 1.0 * 2.0 * 1.0 * 9.0 / (60.0 + 2.0 * 51.0), rel=1e-14)
    assert out["q_b"] == -out["q_a"]
    out = limit_currents("single", "low", omega0=1.0, g_a=1.0, g_b=1.0,
                         t_a=0.1, t_b=0.08)
    assert out["q_a"] == pytest.approx(
        0.5 * (math.exp(-10.0) - math.exp(-12.5)), rel=1e-14)
    out = limit_currents("coupled", "high", g_a=1.0, g_b=1.0,
                         t_a=130.0, t_b=115.0, **REF)
    assert out["q_a"] == pytest.approx(out["q_a_plus"] + out["q_a_minus"],
                                       rel=1e-14)
    with pytest.raises(ValueError):
        limit_currents("single", "warm", omega0=1.0, g_a=1.0, g_b=1.0,
                       t_a=1.0, t_b=1.0)
    with pytest.raises(ValueError):
        limit_currents("triple", "high", omega0=1.0, g_a=1.0, g_b=1.0,
                       t_a=1.0, t_b=1.0)


def test_exact_currents_approach_high_temperature_limit():
    # both temperatures far above every transition frequency
    exact = single_qubit_closed(1.0, 1.0, 1.0, 60.0, 51.0)
    limit = limit_currents("single", "high", omega0=1.0, g_a=1.0, g_b=1.0,
                           t_a=60.0, t_b=51.0)
    assert abs(exact.q_a - limit["q_a"]) < 0.02 * abs(exact.q_a)
    exact = coupled_lindblad_closed(g_a=1.0, g_b=1.0, t_a=130.0, t_b=115.0,
                                    **REF)
    limit = limit_currents("coupled", "high", g_a=1.0, g_b=1.0,
                           t_a=130.0, t_b=115.0, **REF)
    assert abs(exact.q_a_plus - limit["q_a_plus"]) < 0.02 * abs(exact.q_a_plus)
    assert abs(exact.q_a_minus - limit["q_a_minus"]) < 0.02 * abs(exact.q_a_minus)


def test_exact_currents_approach_low_temperature_limit():
    # both temperatures far below every transition frequency; agreement is
    # on the leading exponential
    exact = single_qubit_closed(1.0, 1.0, 1.0, 0.1, 0.08)
    limit = limit_currents("single", "low", omega0=1.0, g_a=1.0, g_b=1.0,
                           t_a=0.1, t_b=0.08)
    assert abs(exact.q_a - limit["q_a"]) < 0.02 * abs(exact.q_a)
    exact = coupled_lindblad_closed(g_a=1.0, g_b=1.0, t_a=0.079, t_b=0.07,
                                    **REF)
    limit = limit_currents("coupled", "low", g_a=1.0, g_b=1.0,
                           t_a=0.079, t_b=0.07, **REF)
    assert abs(exact.q_a_plus - limit["q_a_plus"]) < 0.02 * abs(exact.q_a_plus)
    assert abs(exact.q_a_minus - limit["q_a_minus"]) < 0.02 * abs(exact.q_a_minus)


def test_pauli_rate_equation_reduces_to_the_qubit_closed_forms():
    """Both closed forms are the Pauli equation of their model; drawn as
    the benchmark's points workload draws them."""
    rng = np.random.default_rng(304)
    worst = 0.0
    for _ in range(100):
        w0, w1, w2 = rng.uniform(0.2, 5.0, size=3)
        lam = rng.uniform(0.05, 0.9) * math.sqrt(w1 * w2)
        ga, gb = rng.uniform(0.05, 2.0, size=2)
        ta, tb = rng.uniform(0.05, 10.0, size=2)
        g, t = {"A": ga, "B": gb}, {"A": ta, "B": tb}
        single = make_single_qubit(w0)
        ref = pauli_steady_state(single.levels, single.couplings, g, t)
        closed = single_qubit_closed(w0, ga, gb, ta, tb)
        diffs = [ref.populations[0] - closed.rho_minus,
                 ref.populations[1] - closed.rho_plus,
                 ref.currents["A"] - closed.q_a, ref.currents["B"] - closed.q_b]
        pair, _ = make_coupled_qubits(w1, w2, lam)
        ref = pauli_steady_state(pair.levels, pair.couplings, g, t)
        closed = coupled_lindblad_closed(w1, w2, lam, ga, gb, ta, tb)
        diffs += list(ref.populations - closed.populations)
        diffs += [ref.currents["A"] - closed.q_a, ref.currents["B"] - closed.q_b]
        worst = max(worst, np.max(np.abs(diffs)))
    assert worst < 1e-12


def test_pauli_steady_state_guards():
    with pytest.raises(ValueError, match="below the diagonal"):
        pauli_steady_state((0.0, 1.0), {"A": [[0.0, 1.0], [0.0, 0.0]]},
                           {"A": 1.0}, {"A": 1.0})
    with pytest.raises(ValueError, match="spectral density must be >= 0"):
        pauli_steady_state((0.0, 1.0), {"A": [[0.0, 0.0], [1.0, 0.0]]},
                           {"A": -1.0}, {"A": 1.0})
