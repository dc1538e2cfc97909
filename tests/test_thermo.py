import dataclasses
import tracemalloc

import numpy as np
import pytest

from qheat import (BathSpec, CurrentConsistencyError, CurrentReport,
                   DensityMatrix, build_kernel, gibbs_state, law_checks, make_coupled_qubits,
                   make_single_qubit, planck_occupation, reservoir_current,
                   steady_point)
from qheat.cli import PRESETS
from qheat.thermo import CURRENT_TOL


def test_single_qubit_current_reference(single_pipeline):
    _, currents, _ = single_pipeline(1.0, 1.0, 1.0, 2.0, 1.0)
    assert abs(currents["A"] - 0.1535979428592492) < 1e-12
    assert abs(currents["A"] + currents["B"]) < 1e-13


def test_equilibrium_currents_vanish(single_pipeline, coupled_pipeline):
    for mode in ("lindblad", "redfield"):
        _, q, _ = single_pipeline(1.0, 1.0, 1.0, 1.3, 1.3, mode=mode)
        assert abs(q["A"]) < 1e-12 and abs(q["B"]) < 1e-12
        _, q, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.3, 1.3,
                                   mode=mode)
        assert abs(q["A"]) < 1e-12 and abs(q["B"]) < 1e-12


def test_coupled_current_reference(coupled_pipeline):
    _, q, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
    assert abs(q["A"] - 0.05340806916420305) < 1e-12
    assert abs(q["A"] + q["B"]) < 1e-13


def test_law_checks_verdicts():
    report = law_checks((2.0, 0.153598), (1.0, -0.153598))
    assert isinstance(report, CurrentReport)
    assert [f.name for f in dataclasses.fields(report)] == \
        ["conservation_residual", "second_law"]
    assert report.conservation_residual < 1e-12
    assert report.second_law == "pass"
    report = law_checks((1.0, 0.0), (1.0, 0.0))
    assert report.second_law == "not-applicable"
    # heat into the colder reservoir's partner is still the right direction
    report = law_checks((1.0, -0.1), (2.0, 0.1))
    assert report.second_law == "pass"
    report = law_checks((2.0, -0.1), (1.0, 0.1))
    assert report.second_law == "fail"
    assert report.conservation_residual == 0.0


def test_law_checks_judge_arrays_entry_by_entry():
    ta, tb = [2.0, 1.0, 1.0, 2.0], [1.0, 1.0, 2.0, 1.0]
    qa, qb = [0.153598, 0.0, -0.1, -0.1], [-0.153598, 0.0, 0.1, 0.2]
    report = law_checks((ta, np.array(qa)), (tb, np.array(qb)))
    assert list(report.second_law) == ["pass", "not-applicable", "pass", "fail"]
    for j in range(4):
        alone = law_checks((ta[j], qa[j]), (tb[j], qb[j]))
        assert report.second_law[j] == alone.second_law
        assert report.conservation_residual[j] == alone.conservation_residual


def test_second_law_passes_a_current_within_the_noise():
    """A current of at most CURRENT_TOL = 1e-10 has no direction, so its
    sign is not judged: it passes in either direction, and just above
    the tolerance the sign decides again. Equal temperatures stay
    not-applicable."""
    assert CURRENT_TOL == 1e-10
    ta = [2.0, 2.0, 2.0, 2.0, 0.5, 0.5, 1.0]
    qa = [-9.42e-17, -1e-10, 1e-10, -1.0000001e-10, 2.8e-17, 1.0000001e-10,
          -1e-16]
    tb = [1.0] * len(ta)
    report = law_checks((ta, np.array(qa)), (tb, -np.array(qa)))
    assert list(report.second_law) == ["pass", "pass", "pass", "fail", "pass",
                                       "fail", "not-applicable"]
    for j in range(len(ta)):
        alone = law_checks((ta[j], qa[j]), (tb[j], -qa[j]))
        assert alone.second_law == report.second_law[j]


def _coupled_kernel_a(mode):
    """Reservoir A's kernel of the coupled pair at g = 1, T_A = 1.5."""
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    return system, build_kernel(
        system, BathSpec(temperature=1.5, spectral_density=1.0), "A", mode)


def test_reservoir_current_input_validation():
    system, kernel_a = _coupled_kernel_a("lindblad")
    wrong_state = DensityMatrix(dim=2, entries=np.eye(2) / 2)
    with pytest.raises(ValueError):
        reservoir_current(system, kernel_a, wrong_state)
    with pytest.raises(ValueError,
                       match="^kernel dim 4 does not match system dim 2$"):
        reservoir_current(make_single_qubit(1.0), kernel_a, wrong_state)


def test_imaginary_current_guard():
    # a corrupted (non-Hermitian) state pushed through the non-secular
    # kernel leaks an imaginary current component; that must raise
    system, kernel_a = _coupled_kernel_a("redfield")
    junk = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    junk[1, 2] = 1j
    with pytest.raises(CurrentConsistencyError):
        reservoir_current(system, kernel_a, DensityMatrix(dim=4, entries=junk))


def test_quenched_reservoir_equilibrates(single_pipeline, coupled_pipeline):
    # with one coupling switched off the currents die and the system
    # thermalises with the remaining reservoir
    omega0, ta = 1.0, 2.0
    rho, q, _ = single_pipeline(omega0, 1.0, 0.0, ta, 1.0)
    assert abs(q["A"]) < 1e-13 and abs(q["B"]) < 1e-13
    ratio = rho.populations[1] / rho.populations[0]
    assert abs(ratio - np.exp(-omega0 / ta)) < 1e-12
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    rho, q, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 0.0, ta, 1.0)
    assert abs(q["A"]) < 1e-13 and abs(q["B"]) < 1e-13
    thermal = gibbs_state(system.levels, ta)
    assert np.max(np.abs(rho.entries - thermal.entries)) < 1e-10


def test_decoupled_qubits_factorise(coupled_pipeline):
    """At lam = 0 each qubit talks only to its own reservoir: the joint
    state is the product of two thermal qubits and nothing flows."""
    w1, w2, ta, tb = 1.0, 2.0, 2.0, 0.7
    rho, q, _ = coupled_pipeline(w1, w2, 0.0, 1.2, 0.8, ta, tb)
    assert abs(q["A"]) < 1e-12 and abs(q["B"]) < 1e-12
    n1 = planck_occupation(w1, ta)
    n2 = planck_occupation(w2, tb)
    p1_up, p1_dn = n1 / (1 + 2 * n1), (1 + n1) / (1 + 2 * n1)
    p2_up, p2_dn = n2 / (1 + 2 * n2), (1 + n2) / (1 + 2 * n2)
    # eigenbasis order for w1 < w2, lam -> 0: (dd, ud, du, uu) by energy
    expected = np.diag([p1_dn * p2_dn, p1_up * p2_dn,
                        p1_dn * p2_up, p1_up * p2_up]).astype(complex)
    assert np.max(np.abs(rho.entries - expected)) < 1e-10


def test_second_law_direction(single_pipeline):
    _, q, _ = single_pipeline(1.0, 1.0, 1.0, 2.0, 1.0)
    report = law_checks((2.0, q["A"]), (1.0, q["B"]))
    assert report.second_law == "pass"
    assert q["A"] > 0
    # swap the bias, the current follows
    _, q, _ = single_pipeline(1.0, 1.0, 1.0, 1.0, 2.0)
    assert q["A"] < 0
    report = law_checks((1.0, q["A"]), (2.0, q["B"]))
    assert report.second_law == "pass"


@pytest.mark.parametrize("mode", ["lindblad", "redfield"])
@pytest.mark.parametrize("model", ["single", "coupled"])
def test_stacked_steady_point_equals_one_point_calls(model, mode):
    if model == "single":
        system, g_b = make_single_qubit(1.0), 0.7
    else:
        # the coupled redfield total keeps trace only at equal couplings
        system, g_b = make_coupled_qubits(1.0, 2.0, 0.5)[0], 1.0
    points = [{"A": BathSpec(temperature=ta, spectral_density=1.0, label="A"),
               "B": BathSpec(temperature=tb, spectral_density=g_b, label="B")}
              for ta, tb in ((1.5, 1.0), (2.0, 0.5), (3.0, 1.2), (0.8, 0.8))]
    stack = steady_point(system, {r: [p[r] for p in points] for r in "AB"},
                         mode)
    assert stack.rho.entries.shape == (len(points), system.dim, system.dim)
    for j, baths in enumerate(points):
        one = steady_point(system, baths, mode)
        assert stack.rho.entries[j].tobytes() == one.rho.entries.tobytes()
        for r in "AB":
            assert stack.currents[r][j].tobytes() == \
                np.float64(one.currents[r]).tobytes()
        assert stack.positivity.min_eigenvalue[j].tobytes() == \
            np.float64(one.positivity.min_eigenvalue).tobytes()


def test_steady_point_refuses_bath_lists_of_unequal_length():
    system = make_single_qubit(1.0)
    bath = BathSpec(temperature=1.0, spectral_density=1.0)
    for a, b, shapes in (([bath] * 3, [bath] * 2, "(3, 4, 4) vs (2, 4, 4)"),
                         ([bath] * 2, [bath] * 3, "(2, 4, 4) vs (3, 4, 4)"),
                         (bath, [bath] * 3, "(4, 4) vs (3, 4, 4)")):
        with pytest.raises(ValueError) as exc:
            steady_point(system, {"A": a, "B": b}, "lindblad")
        assert str(exc.value) == f"kernel data shapes differ: {shapes}"


@pytest.mark.parametrize("g, second_law_fails, non_positive",
                         [(1.0, 161, 54), (0.1, 0, 0)])
def test_redfield_regime_on_the_fig5_grid(g, second_law_fails, non_positive):
    """Redfield mode on fig5's 161 grid points (T_A - T_B = 10) with both
    couplings g: at g = 1, fig5's own coupling, every row fails the
    second law and 54 have an eigenvalue below -1e-10; at g = 0.1 none
    does either. Which kernel is right at g = 1 is an open modelling
    question (see qheat.kernel)."""
    cfg = PRESETS["fig5"]
    system, _ = make_coupled_qubits(cfg["w1"], cfg["w2"], cfg["lam"])
    tm = np.linspace(cfg["start"], cfg["stop"], cfg["count"])
    half = 0.5 * (cfg["ta"] - cfg["tb"])
    temps = {"A": tm + half, "B": tm - half}
    point = steady_point(system, {r: [BathSpec(temperature=t,
                                               spectral_density=g)
                                      for t in temps[r]] for r in temps},
                         "redfield")
    report = law_checks(*((temps[r], point.currents[r]) for r in temps))
    assert np.count_nonzero(report.second_law == "fail") == second_law_fails
    assert np.count_nonzero(point.positivity.min_eigenvalue < -1e-10) \
        == non_positive


def test_redfield_current_meets_lindblad_at_weak_coupling():
    """At g = 0.01 and T = (2, 1), q_A / g of the coupled pair is
    0.1013764 in redfield mode against 0.1014395 in lindblad mode."""
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    baths = {"A": BathSpec(temperature=2.0, spectral_density=0.01),
             "B": BathSpec(temperature=1.0, spectral_density=0.01)}
    q = {mode: steady_point(system, baths, mode).currents["A"] / 0.01
         for mode in ("redfield", "lindblad")}
    assert q["redfield"] == pytest.approx(0.1013764, abs=5e-8)
    assert q["lindblad"] == pytest.approx(0.1014395, abs=5e-8)


@pytest.mark.parametrize("mode", ["lindblad", "redfield"])
def test_steady_point_currents_are_reservoir_currents(mode):
    """steady_point keeps only each kernel's population rows, and its
    currents are those reservoir_current reads off the whole kernels,
    bit for bit, for a stack and for one point."""
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    temps = np.linspace(5.0, 8.0, 7)
    baths = {"A": [BathSpec(temperature=t + 5.0, spectral_density=1.0) for t in temps],
             "B": [BathSpec(temperature=t - 5.0, spectral_density=1.0) for t in temps]}
    for chosen in (baths, {r: b[3] for r, b in baths.items()}):
        point = steady_point(system, chosen, mode)
        for r, b in chosen.items():
            q = reservoir_current(system, build_kernel(system, b, r, mode),
                                  point.rho)
            assert np.asarray(point.currents[r]).tobytes() == np.asarray(q).tobytes()


def test_a_steady_point_chunk_lets_its_kernels_go():
    """A 161-entry coupled chunk, fig5's size, peaks below four
    (B, N^2, N^2) stacks: the kernels and their sum are let go before
    the generator is built, and afterwards only the generator is kept."""
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    temps = np.linspace(5.0, 8.0, 161)
    baths = {"A": [BathSpec(temperature=t + 5.0, spectral_density=1.0) for t in temps],
             "B": [BathSpec(temperature=t - 5.0, spectral_density=1.0) for t in temps]}
    steady_point(system, baths, "redfield")     # caches filled
    stack = 161 * 16 * 16 * 16      # bytes of one complex (161, 16, 16) stack
    tracemalloc.start()
    try:
        point = steady_point(system, baths, "redfield")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * stack and kept < 1.5 * stack
    assert point.liouvillian.matrix.nbytes == stack
