import math
import warnings

import numpy as np
import pytest

from qheat import (BathSpec, DegenerateSteadyStateError, DensityMatrix,
                   IntegrationError, Liouvillian, PositivityReport, SolveInfo,
                   SuperKernel, SystemSpec, assemble_liouvillian,
                   build_kernel, combine_kernels, coupled_rates, evolve,
                   gibbs_state, make_coupled_qubits, make_single_qubit,
                   pair_index, planck_occupation, positivity_report,
                   reservoir_current, solve_steady_state, steady_point,
                   svd_steady_state)
from qheat.steady import EVOLVE_BLOCK


def _liouvillian(system, g_of, t_of, mode):
    return steady_point(system, {r: BathSpec(temperature=t_of[r],
                                             spectral_density=g_of[r], label=r)
                                 for r in g_of}, mode).liouvillian


def test_liouvillian_phase_and_population_rows():
    omega0, ga, gb, ta, tb = 1.0, 1.0, 0.5, 2.0, 1.0
    system = make_single_qubit(omega0)
    L = _liouvillian(system, {"A": ga, "B": gb}, {"A": ta, "B": tb}, "lindblad")
    na = planck_occupation(omega0, ta)
    nb = planck_occupation(omega0, tb)
    gamma = 0.5 * (ga * (1 + 2 * na) + gb * (1 + 2 * nb))
    i10 = pair_index(2, 1, 0)
    i01 = pair_index(2, 0, 1)
    assert abs(L.matrix[i10, i10] - (-1j * omega0 - gamma)) < 1e-14
    assert abs(L.matrix[i01, i01] - (+1j * omega0 - gamma)) < 1e-14
    # population rows carry no phase term
    i00 = pair_index(2, 0, 0)
    assert L.matrix[i00, i00] == pytest.approx(-(ga * na + gb * nb), rel=1e-14)


def test_single_qubit_steady_state_reference(single_pipeline):
    rho, currents, _, _ = single_pipeline(1.0, 1.0, 1.0, 2.0, 1.0)
    assert abs(rho.populations[1] - 0.3399216660850968) < 1e-12
    assert abs(rho.populations.sum() - 1.0) < 1e-13
    assert np.max(np.abs(rho.coherences)) < 1e-14
    assert abs(rho.trace - 1.0) < 1e-13
    rho.validate()


def test_solver_agrees_with_svd_path(single_pipeline, coupled_pipeline):
    cases = []
    _, _, _, liou = single_pipeline(1.0, 1.0, 1.0, 2.0, 1.0)
    cases.append(liou)
    _, _, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
    cases.append(liou)
    _, _, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 10.5, 0.5,
                                     mode="redfield")
    cases.append(liou)
    for L in cases:
        direct = solve_steady_state(L)
        via_svd = svd_steady_state(L)
        assert np.max(np.abs(direct.entries - via_svd.entries)) < 1e-10


def test_equilibrium_steady_state_is_gibbs(single_pipeline, coupled_pipeline):
    t = 0.8
    thermal2 = gibbs_state(make_single_qubit(1.0).levels, t)
    thermal4 = gibbs_state(make_coupled_qubits(1.0, 2.0, 0.5)[0].levels, t)
    for mode in ("lindblad", "redfield"):
        rho, _, _, _ = single_pipeline(1.0, 1.0, 1.0, t, t, mode=mode)
        assert np.max(np.abs(rho.entries - thermal2.entries)) < 1e-12
        rho, _, _, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, t, t, mode=mode)
        assert np.max(np.abs(rho.entries - thermal4.entries)) < 1e-12


def test_population_block_solves_alone(coupled_pipeline):
    """The secular generator never mixes populations and coherences, so the
    4x4 population block must reproduce the full solve's diagonal."""
    rho, _, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
    pop = [pair_index(4, p, p) for p in range(4)]
    block = liou.matrix[np.ix_(pop, pop)].copy()
    block[0, :] = 1.0
    rhs = np.zeros(4, dtype=complex)
    rhs[0] = 1.0
    pops = np.linalg.solve(block, rhs)
    assert np.max(np.abs(pops.imag)) < 1e-14
    assert np.max(np.abs(pops.real - rho.populations)) < 1e-10


def test_redfield_six_state_restriction():
    """The non-secular coupled-qubit generator closes on the four
    populations plus the central coherence pair; its restriction there is
    fixed entirely by the transition rates, the coherence splitting and
    the transfer strength k."""
    w1, w2, lam, g, ta, tb = 1.0, 2.0, 0.5, 1.0, 1.5, 1.0
    system, _ = make_coupled_qubits(w1, w2, lam)
    L = _liouvillian(system, {"A": g, "B": g}, {"A": ta, "B": tb}, "redfield")
    r = coupled_rates(w1, w2, lam, g, g, ta, tb)
    s1, s2, s3, s4 = r.s
    z, e, k = r.s_sum, r.e, r.k
    expected = np.array([
        [-(s3 + s4), s2, s1, 0, -k, -k],
        [s4, -(s2 + s3), 0, s1, 0, 0],
        [s3, 0, -(s1 + s4), s2, 0, 0],
        [0, s3, s4, -(s1 + s2), k, k],
        [-k, 0, 0, k, -0.5 * z - 1j * e, 0],
        [-k, 0, 0, k, 0, -0.5 * z + 1j * e],
    ], dtype=complex)
    idx = [pair_index(4, 0, 0), pair_index(4, 1, 1), pair_index(4, 2, 2),
           pair_index(4, 3, 3), pair_index(4, 1, 2), pair_index(4, 2, 1)]
    assert np.max(np.abs(L.matrix[np.ix_(idx, idx)] - expected)) < 1e-12
    # and it really is closed: no coupling in or out of the block
    rest = [i for i in range(16) if i not in idx]
    assert np.max(np.abs(L.matrix[np.ix_(idx, rest)])) < 1e-15
    assert np.max(np.abs(L.matrix[np.ix_(rest, idx)])) < 1e-15


def test_redfield_spectator_coherences_vanish(coupled_pipeline):
    rho, _, _, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 10.5, 0.5,
                                    mode="redfield")
    live = {(1, 2), (2, 1)}
    for i in range(4):
        for j in range(4):
            if i != j and (i, j) not in live:
                assert abs(rho.entries[i, j]) < 1e-12
    assert abs(rho.entries[1, 2]) > 1e-3


def test_degenerate_nullspace_is_refused():
    # unequal couplings leave the non-secular total kernel leaky, so the
    # generator has no steady state at all; the solver must say so, and
    # name the trace residual alpha*beta*|g_A - g_B| as the cause
    system, diag = make_coupled_qubits(1.0, 2.0, 0.5)
    for g_b, residual in ((0.5, "1.768e-01"), (0.4, "2.121e-01")):
        L = assemble_liouvillian(system, combine_kernels([build_kernel(
            system, BathSpec(temperature=t, spectral_density=g, label=r), r,
            "redfield") for r, g, t in (("A", 1.0, 1.5), ("B", g_b, 1.0))]))
        with pytest.raises(DegenerateSteadyStateError) as exc:
            solve_steady_state(L)
        assert str(exc.value).startswith(
            "nullspace dimension 0, need exactly 1; "
            "singular values below cutoff: [], ")
        assert str(exc.value).endswith(
            f"; trace residual {residual} > 1e-12: "
            "the generator does not preserve trace")
        assert f"{diag.alpha * diag.beta * (1.0 - g_b):.3e}" == residual
    # an all-zero generator has too many steady states; it does preserve
    # trace, so no trace cause is named
    flat = Liouvillian(dim=2, matrix=np.zeros((4, 4)))
    with pytest.raises(DegenerateSteadyStateError) as exc:
        solve_steady_state(flat)
    assert str(exc.value).endswith("; trace residual 0.000e+00")
    # sigma_max is 0 there, so every singular value counts as zero
    assert str(exc.value).startswith("nullspace dimension 4, need exactly 1; ")


def test_gibbs_state_construction():
    rho = gibbs_state((0.0, 1.0), 1.0)
    ratio = rho.populations[1] / rho.populations[0]
    assert abs(ratio - np.exp(-1.0)) < 1e-14
    assert abs(rho.trace - 1.0) < 1e-15
    cold = gibbs_state((0.0, 1.0), 0.0)
    assert np.array_equal(cold.populations, [1.0, 0.0])
    split = gibbs_state((0.3, 0.3, 1.0), 0.0)
    assert np.allclose(split.populations, [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        gibbs_state((0.0, 1.0), -1.0)
    with pytest.raises(ValueError, match="temperature must be finite, got nan"):
        gibbs_state((0.0, 1.0), float("nan"))


def test_evolve_zero_time_is_identity():
    system = make_single_qubit(1.0)
    L = _liouvillian(system, {"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0},
                     "lindblad")
    rho0 = DensityMatrix(dim=2, entries=np.eye(2) / 2)
    out = evolve(L, rho0, 0.0)
    assert np.array_equal(out.entries, rho0.entries)


def test_evolve_relaxes_to_steady_state(coupled_pipeline):
    rho_ss, _, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
    rho0 = DensityMatrix(dim=4, entries=np.eye(4) / 4)
    rho_t = evolve(liou, rho0, 80.0, dt=0.005)
    assert np.max(np.abs(rho_t.entries - rho_ss.entries)) < 1e-6


def test_evolve_coherence_decay():
    omega0, ga, gb, ta, tb = 1.0, 1.0, 1.0, 2.0, 1.0
    system = make_single_qubit(omega0)
    L = _liouvillian(system, {"A": ga, "B": gb}, {"A": ta, "B": tb}, "lindblad")
    na = planck_occupation(omega0, ta)
    nb = planck_occupation(omega0, tb)
    gamma = 0.5 * (ga * (1 + 2 * na) + gb * (1 + 2 * nb))
    rho0 = DensityMatrix(dim=2, entries=np.array([[0.5, 0.25], [0.25, 0.5]]))
    t = 1.0
    out = evolve(L, rho0, t)
    expected = 0.25 * np.exp((-1j * omega0 - gamma) * t)
    assert abs(out.entries[1, 0] - expected) < 1e-8
    assert abs(out.entries[0, 1] - np.conj(expected)) < 1e-8


def test_evolve_guards():
    system = make_single_qubit(1.0)
    L = _liouvillian(system, {"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0},
                     "lindblad")
    rho0 = DensityMatrix(dim=2, entries=np.eye(2) / 2)
    with pytest.raises(ValueError):
        evolve(L, rho0, -1.0)
    with pytest.raises(ValueError):
        evolve(L, rho0, 1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve(L, DensityMatrix(dim=4, entries=np.eye(4) / 4), 1.0)
    # a step far outside the stability region must be caught, not returned
    with pytest.raises(IntegrationError):
        evolve(L, rho0, 50.0, dt=5.0)
    for t_final, dt, name in ((np.inf, None, "t_final"), (np.nan, None, "t_final"),
                              (1.0, np.inf, "dt"), (1.0, np.nan, "dt")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            evolve(L, rho0, t_final, dt=dt)


@pytest.mark.parametrize("model, mode", [("single", "lindblad"),
                                         ("coupled", "lindblad"),
                                         ("coupled", "redfield")])
def test_evolve_rejects_one_unstable_step(model, mode):
    """A single step outside RK4's stability region used to return
    populations like -671.8 and 672.8 without an error."""
    if model == "single":
        system = make_single_qubit(1.0)
    else:
        system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    L = _liouvillian(system, {"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0}, mode)
    rho0 = DensityMatrix(dim=system.dim, entries=np.eye(system.dim) / system.dim)
    with pytest.raises(IntegrationError, match="step size 3 is outside the RK4 "
                                               "stability region"):
        evolve(L, rho0, 3.0, dt=3.0)
    with pytest.raises(IntegrationError, match="spectral radius 1\\."):
        evolve(L, rho0, 0.5, dt=0.5)
    assert evolve(L, rho0, 0.5, dt=0.005).trace == pytest.approx(1.0)


@pytest.mark.parametrize("model, mode", [("single", "lindblad"),
                                         ("coupled", "lindblad"),
                                         ("coupled", "redfield")])
def test_evolve_is_classic_rk4(model, mode):
    """200 steps of the four-stage RK4 step, written out, as reference."""
    if model == "single":
        system = make_single_qubit(1.0)
    else:
        system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    L = _liouvillian(system, {"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0}, mode)
    n = system.dim
    rho0 = DensityMatrix(dim=n, entries=np.eye(n) / n)
    m, h, steps = L.matrix, 0.005, 200
    y = rho0.entries.reshape(-1).astype(complex)
    for _ in range(steps):
        k1 = m @ y
        k2 = m @ (y + 0.5 * h * k1)
        k3 = m @ (y + 0.5 * h * k2)
        k4 = m @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = evolve(L, rho0, steps * h, dt=h)
    assert np.max(np.abs(out.entries - y.reshape(n, n))) < 1e-12


@pytest.mark.parametrize("dt", [None, 0.01])
def test_evolve_zero_generator_keeps_the_state(dt):
    L = Liouvillian(dim=2, matrix=np.zeros((4, 4)))
    rho0 = DensityMatrix(dim=2, entries=np.array([[0.7, 0.1j], [-0.1j, 0.3]]))
    out = evolve(L, rho0, 1.0, dt=dt)
    assert np.array_equal(out.entries, rho0.entries)


def _two_level(entries):
    """2-level Liouvillian whose 4 x 4 generator is zero except `entries`,
    a {(row, column): value} map."""
    m = np.zeros((4, 4), dtype=complex)
    for ij, value in entries.items():
        m[ij] = value
    return Liouvillian(dim=2, matrix=m)


MIXED_QUBIT = DensityMatrix(dim=2, entries=np.eye(2) / 2)


def test_evolve_norm_blowup_raises():
    with pytest.raises(IntegrationError, match="^propagation unstable after "
                       "norm blowup at step size 0.01; reduce dt$"):
        evolve(_two_level({(0, 3): 1e9}), MIXED_QUBIT, 1.0, dt=0.01)


def test_evolve_checks_every_state_of_a_block():
    """The population rho_00 peaks near 3.7e6 (bound 1e6) at step 2 and
    is back below 1e-5 by step 64, the end of the first block: a check of
    the block's last state alone would miss the blow-up and fail on the
    trace instead."""
    L = _two_level({(0, 3): 1e9, (0, 0): -50.0, (3, 3): -50.0})
    with pytest.raises(IntegrationError, match="norm blowup"):
        evolve(L, MIXED_QUBIT, 1.0, dt=0.01)


def test_evolve_trace_drift_raises():
    with pytest.raises(IntegrationError, match=r"^trace drifted by 0\.31606 "
                       r"\(> 1e-08\); reduce dt$"):
        evolve(_two_level({(0, 0): -1.0}), MIXED_QUBIT, 1.0, dt=0.01)


def test_evolve_blowup_raises_without_warnings():
    """A nilpotent generator whose states overflow to inf and then NaN:
    the error comes alone, with no overflow warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="norm blowup"):
            evolve(_two_level({(0, 3): 1e307}), MIXED_QUBIT, 200.0, dt=1.0)


def _relax_generator(model, mode):
    if model == "single":
        system = make_single_qubit(1.0)
    else:
        system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    return _liouvillian(system, {"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0},
                        mode)


@pytest.mark.parametrize("model, mode", [("single", "lindblad"),
                                         ("coupled", "lindblad"),
                                         ("coupled", "redfield")])
def test_evolve_equals_the_plain_propagator_loop(model, mode):
    """Bit for bit, y <- P y once per step, for step counts around the
    block length and for the relax run (t = 80, dt = 0.005)."""
    L = _relax_generator(model, mode)
    n = L.dim
    rho0 = DensityMatrix(dim=n, entries=np.eye(n) / n)
    h = 2.0 ** -7          # t = steps * h is exact, so evolve takes `steps`
    runs = [(steps * h, h) for steps in (1, EVOLVE_BLOCK - 1, EVOLVE_BLOCK,
                                         EVOLVE_BLOCK + 1, 3 * EVOLVE_BLOCK + 5)]
    for t_final, dt in runs + [(80.0, 0.005)]:
        steps = max(1, math.ceil(t_final / dt))
        hm = (t_final / steps) * L.matrix
        hm2 = hm @ hm
        P = np.eye(n * n) + hm + hm2 / 2 + hm2 @ (hm / 6 + hm2 / 24)
        y = rho0.entries.reshape(-1).astype(complex)
        for _ in range(steps):
            y = P @ y
        out = evolve(L, rho0, t_final, dt=dt)
        assert out.entries.tobytes() == y.reshape(n, n).tobytes(), \
            (t_final, dt)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_generator_is_rejected(bad):
    """Used to surface later as 'cannot convert float NaN to integer'
    (evolve, default dt), 'Array must not contain infs or NaNs' (evolve,
    explicit dt) or 'SVD did not converge' (solve_steady_state)."""
    message = r"generator matrix has non-finite \(inf or NaN\) entries"
    with pytest.raises(ValueError, match=message):
        _two_level({(1, 2): bad})
    valid = _relax_generator("single", "lindblad").matrix
    broken = valid.copy()
    broken[0, 0] = bad
    with pytest.raises(ValueError, match=message):
        Liouvillian(dim=2, matrix=np.stack([valid, broken]))
    kernel = SuperKernel(dim=2, data=broken, mode="lindblad")
    with pytest.raises(ValueError, match=message):
        assemble_liouvillian(make_single_qubit(1.0), kernel)


def test_density_matrix_type():
    m = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    rho = DensityMatrix(dim=2, entries=m)
    assert np.array_equal(rho.populations, [0.6, 0.4])
    assert rho.coherences[0, 0] == 0
    assert rho.coherences[0, 1] == 0.1 + 0.2j
    assert rho.trace == pytest.approx(1.0)
    assert rho.hermiticity_defect() < 1e-15
    rho.validate()
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 2.0
    with pytest.raises(ValueError):
        DensityMatrix(dim=2, entries=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        DensityMatrix(dim=2, entries=np.array([[np.nan, 0], [0, 1.0]]))
    lopsided = DensityMatrix(dim=2, entries=np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="Hermitian"):
        lopsided.validate()
    off_trace = DensityMatrix(dim=2, entries=np.eye(2))
    with pytest.raises(ValueError, match="trace"):
        off_trace.validate()


def test_positivity_report_cases(coupled_pipeline):
    clean = positivity_report(gibbs_state((-1.0, 0.0, 1.0), 1.0))
    assert clean.min_population > 0
    assert clean.min_eigenvalue > 0
    assert clean.positive
    # the non-secular steady state at a strong thermal bias is not a state
    rho, _, _, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 10.5, 0.5,
                                    mode="redfield")
    broken = positivity_report(rho)
    assert broken.min_population < 0
    assert broken.min_eigenvalue < -1e-10
    assert not broken.positive
    # the secular kernel keeps the same parameter point positive
    rho, _, _, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 10.5, 0.5)
    assert positivity_report(rho).min_eigenvalue >= -1e-10


def test_solve_info_diagnostics(coupled_pipeline):
    _, _, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
    rho, info = solve_steady_state(liou, full_output=True)
    assert info.residual < 1e-10
    assert len(info.null_singular_values) == 1
    assert info.hermiticity_defect < 1e-10
    assert abs(rho.trace - 1.0) < 1e-13


def test_assemble_liouvillian_guards():
    system = make_single_qubit(1.0)
    other, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    bath = BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    K4 = build_kernel(other, bath, "A", "lindblad")
    with pytest.raises(ValueError):
        assemble_liouvillian(system, K4)
    L = assemble_liouvillian(other, K4)
    with pytest.raises(ValueError):
        L.matrix[0, 0] = 1.0


def _random_lindblad_system(n):
    rng = np.random.default_rng([11, n])
    couplings = {r: np.tril(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)), -1) / np.sqrt(n)
                 for r in ("A", "B")}
    return SystemSpec(levels=tuple(np.cumsum(rng.uniform(0.5, 1.5, n))),
                      couplings=couplings)


def _stack_cases():
    coupled = make_coupled_qubits(1.0, 2.0, 0.5)[0]
    temps = np.linspace(5.0, 8.0, 7)
    yield ("fig4", coupled, "lindblad", {"A": 1.0, "B": 1.0},
           [{"A": t, "B": 1.0} for t in np.linspace(0.5, 1.5, 9)])
    yield ("fig5", coupled, "redfield", {"A": 1.0, "B": 1.0},
           [{"A": t + 5.0, "B": t - 5.0} for t in temps])
    for n in range(3, 7):
        rng = np.random.default_rng([12, n])
        yield (f"random-n{n}", _random_lindblad_system(n), "lindblad",
               {"A": 0.7, "B": 1.3},
               [{"A": a, "B": b} for a, b in rng.uniform(0.2, 4.0, (6, 2))])


@pytest.mark.parametrize("case", list(_stack_cases()), ids=lambda c: c[0])
def test_stacked_tail_equals_per_matrix_calls(case):
    """combine, assemble, solve, currents and positivity on a (B, N^2, N^2)
    stack give, entry by entry, exactly what they give on that entry's
    own 2-D kernels."""
    _, system, mode, g_of, temps = case
    stacks = {r: build_kernel(system, [BathSpec(temperature=t[r],
                                                spectral_density=g_of[r], label=r)
                                       for t in temps], r, mode)
              for r in ("A", "B")}
    L = assemble_liouvillian(system, combine_kernels([stacks["A"], stacks["B"]]))
    rho, info = solve_steady_state(L, full_output=True)
    q = {r: reservoir_current(system, stacks[r], rho) for r in stacks}
    pos = positivity_report(rho)
    assert rho.entries.shape == (len(temps), system.dim, system.dim)
    rho.validate()
    for j in range(len(temps)):
        kernels = {r: SuperKernel(dim=system.dim, data=stacks[r].data[j],
                                  mode=mode) for r in stacks}
        L_j = assemble_liouvillian(system, combine_kernels(
            [kernels["A"], kernels["B"]]))
        assert np.array_equal(L.matrix[j], L_j.matrix)
        rho_j, info_j = solve_steady_state(L_j, full_output=True)
        assert np.array_equal(rho.entries[j], rho_j.entries)
        assert rho.trace[j] == rho_j.trace
        assert np.array_equal(rho.coherences[j], rho_j.coherences)
        assert info_j == SolveInfo(
            residual=float(info.residual[j]),
            hermiticity_defect=float(info.hermiticity_defect[j]),
            null_singular_values=(float(info.null_singular_values[j]),))
        for r in stacks:
            assert float(q[r][j]) == reservoir_current(system, kernels[r], rho_j)
        assert positivity_report(rho_j) == PositivityReport(
            min_population=float(pos.min_population[j]),
            min_eigenvalue=float(pos.min_eigenvalue[j]),
            hermiticity_defect=float(pos.hermiticity_defect[j]))


def test_stacked_solve_raises_the_failing_entrys_message():
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    good = [_liouvillian(system, {"A": 1.0, "B": 1.0}, {"A": ta, "B": 1.0},
                         "redfield") for ta in (1.5, 2.0)]
    leaky = assemble_liouvillian(system, combine_kernels([build_kernel(
        system, BathSpec(temperature=t, spectral_density=g, label=r), r,
        "redfield") for r, g, t in (("A", 1.0, 1.5), ("B", 0.5, 1.0))]))
    with pytest.raises(DegenerateSteadyStateError) as own:
        solve_steady_state(leaky)
    stack = Liouvillian(dim=4, matrix=np.stack(
        [good[0].matrix, leaky.matrix, good[1].matrix]))
    with pytest.raises(DegenerateSteadyStateError) as exc:
        solve_steady_state(stack)
    assert str(exc.value) == str(own.value)
    # an all-zero entry among valid ones: every singular value is null
    single = make_single_qubit(1.0)
    valid = _liouvillian(single, {"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0},
                         "lindblad")
    stack = Liouvillian(dim=2, matrix=np.stack([valid.matrix, np.zeros((4, 4))]))
    with pytest.raises(DegenerateSteadyStateError) as exc:
        solve_steady_state(stack)
    assert str(exc.value) == (
        "nullspace dimension 4, need exactly 1; singular values below "
        "cutoff: [0.0, 0.0, 0.0, 0.0], sigma_max 0; trace residual 0.000e+00")


def test_single_matrix_paths_refuse_stacks():
    system = make_single_qubit(1.0)
    L = _liouvillian(system, {"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0},
                     "lindblad")
    stack = Liouvillian(dim=2, matrix=np.stack([L.matrix, L.matrix]))
    rho = solve_steady_state(L)
    with pytest.raises(ValueError, match="one generator, not a stack"):
        svd_steady_state(stack)
    with pytest.raises(ValueError, match="not stacks"):
        evolve(stack, rho, 1.0, dt=0.01)
    with pytest.raises(ValueError, match="not stacks"):
        evolve(L, DensityMatrix(dim=2, entries=np.stack([rho.entries] * 2)), 1.0)
