import contextlib
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, target
from hypothesis import strategies as st

from conftest import columns
from qheat import (BathSpec, SystemSpec, make_coupled_qubits,
                   make_single_qubit, steady, steady_point)
from qheat.bath import planck_occupation
from qheat.cli import PRESETS
from qheat.cli import main as cli_main
from qheat.kernel import (NearDegeneracyError, SuperKernel, build_kernel,
                          combine_kernels)
from qheat.models import coupled_rates
from qheat.steady import (EVOLVE_BLOCK, DegenerateSteadyStateError,
                          DensityMatrix, IntegrationError, Liouvillian,
                          PositivityReport, SolveInfo,
                          SteadyStateResidualError, assemble_liouvillian,
                          evolve, gibbs_state, positivity_report,
                          solve_steady_state, svd_steady_state)
from qheat.thermo import law_checks, reservoir_current
from test_kernel_properties import (PROPERTY_SETTINGS, _baths, _kernels,
                                    lindblad_systems)


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
    i10, i01, i00 = (p * 2 + q for p, q in ((1, 0), (0, 1), (0, 0)))
    assert abs(L.matrix[i10, i10] - (-1j * omega0 - gamma)) < 1e-14
    assert abs(L.matrix[i01, i01] - (+1j * omega0 - gamma)) < 1e-14
    # population rows carry no phase term
    assert L.matrix[i00, i00] == pytest.approx(-(ga * na + gb * nb), rel=1e-14)


def test_single_qubit_steady_state_reference(single_pipeline):
    rho, currents, _ = single_pipeline(1.0, 1.0, 1.0, 2.0, 1.0)
    assert abs(rho.populations[1] - 0.3399216660850968) < 1e-12
    assert abs(rho.populations.sum() - 1.0) < 1e-13
    assert np.max(np.abs(rho.coherences)) < 1e-14
    assert abs(rho.entries.trace() - 1.0) < 1e-13
    assert rho.hermiticity_defect() <= 1e-10


def test_solver_agrees_with_svd_path(single_pipeline, coupled_pipeline):
    cases = []
    _, _, liou = single_pipeline(1.0, 1.0, 1.0, 2.0, 1.0)
    cases.append(liou)
    _, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
    cases.append(liou)
    _, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 10.5, 0.5,
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
        rho, _, _ = single_pipeline(1.0, 1.0, 1.0, t, t, mode=mode)
        assert np.max(np.abs(rho.entries - thermal2.entries)) < 1e-12
        rho, _, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, t, t, mode=mode)
        assert np.max(np.abs(rho.entries - thermal4.entries)) < 1e-12


def test_population_block_solves_alone(coupled_pipeline):
    """The secular generator never mixes populations and coherences, so the
    4x4 population block must reproduce the full solve's diagonal."""
    rho, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
    pop = [p * 4 + p for p in range(4)]
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
    idx = [p * 4 + q for p, q in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2),
                                  (2, 1))]
    assert np.max(np.abs(L.matrix[np.ix_(idx, idx)] - expected)) < 1e-12
    # and it really is closed: no coupling in or out of the block
    rest = [i for i in range(16) if i not in idx]
    assert np.max(np.abs(L.matrix[np.ix_(idx, rest)])) < 1e-15
    assert np.max(np.abs(L.matrix[np.ix_(rest, idx)])) < 1e-15


def test_redfield_spectator_coherences_vanish(coupled_pipeline):
    rho, _, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 10.5, 0.5,
                                 mode="redfield")
    live = {(1, 2), (2, 1)}
    for i in range(4):
        for j in range(4):
            if i != j and (i, j) not in live:
                assert abs(rho.entries[i, j]) < 1e-12
    assert abs(rho.entries[1, 2]) > 1e-3


def test_degenerate_nullspace_is_refused():
    # unequal couplings leave the non-secular total kernel leaky, so the
    # generator has no steady state at all; the solver must refuse it
    # before any SVD, naming the trace residual alpha*beta*|g_A - g_B|
    # against TRACE_TOL * max(1, ||M||_inf)
    system, diag = make_coupled_qubits(1.0, 2.0, 0.5)
    for g_b, residual, scale in ((0.5, "1.768e-01", "5.633e+00"),
                                 (0.4, "2.121e-01", "5.569e+00")):
        L = assemble_liouvillian(system, combine_kernels([build_kernel(
            system, BathSpec(temperature=t, spectral_density=g, label=r), r,
            "redfield") for r, g, t in (("A", 1.0, 1.5), ("B", g_b, 1.0))]))
        with pytest.raises(DegenerateSteadyStateError) as exc:
            solve_steady_state(L)
        assert str(exc.value) == (
            f"trace residual {residual} exceeds 1e-12 * max(1, ||M||_inf), "
            f"||M||_inf {scale}: the generator does not preserve trace")
        assert f"{diag.alpha * diag.beta * (1.0 - g_b):.3e}" == residual
        assert f"{np.linalg.norm(L.matrix, np.inf):.3e}" == scale
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
    assert abs(rho.entries.trace() - 1.0) < 1e-15
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
    rho_ss, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
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
    # an explicit step is checked also when there is no time to step over
    for dt in (0.0, -1.0):
        with pytest.raises(ValueError, match="dt must be > 0"):
            evolve(L, rho0, 0.0, dt=dt)
    with pytest.raises(ValueError):
        evolve(L, DensityMatrix(dim=4, entries=np.eye(4) / 4), 1.0)
    # a step far outside the stability region must be caught, not returned
    with pytest.raises(IntegrationError):
        evolve(L, rho0, 50.0, dt=5.0)
    for t_final, dt, name in ((np.inf, None, "t_final"), (np.nan, None, "t_final"),
                              (1.0, np.inf, "dt"), (1.0, np.nan, "dt")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            evolve(L, rho0, t_final, dt=dt)


@pytest.mark.parametrize("t_final, dt", [(1.0, 5e-324), (1e308, None)])
def test_evolve_refuses_a_step_count_that_overflows(t_final, dt):
    """t_final / dt is inf here; math.ceil used to raise a bare
    OverflowError: cannot convert float infinity to integer."""
    L = _relax_generator("single", "lindblad")
    with pytest.raises(ValueError, match=r"^t_final / dt must be finite, got "
                       r"t_final = .*, dt = "):
        evolve(L, MIXED_QUBIT, t_final, dt=dt)


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
    assert evolve(L, rho0, 0.5, dt=0.005).entries.trace() == \
        pytest.approx(1.0)


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


def test_evolve_blowup_to_nan_without_inf_raises():
    """The first step's entry 0 is 0.5 + 1e309 - 1e309, inf - inf = NaN,
    and no state ever holds an inf: the norm check alone must catch the
    NaN, with no warning before the error."""
    L = _two_level({(0, 1): 1e308, (0, 2): -1e308})
    rho0 = DensityMatrix(dim=2, entries=np.array([[0.5, 1e3], [1e3, 0.5]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="^propagation unstable "
                           "after norm blowup at step size 0.01; reduce dt$"):
            evolve(L, rho0, 1.0, dt=0.01)


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


class _BlockCounter:
    """Wraps qheat.steady._block_bounded, counting evolve's per-block
    blow-up checks and the states they read. Every step's state is read
    once, so `products` is the number of steps taken."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        self.products = 0
        check = steady._block_bounded

        def counted(states, bound):
            self.blocks += 1
            self.products += len(states)
            return check(states, bound)

        monkeypatch.setattr(steady, "_block_bounded", counted)


def _propagator(L, h):
    hm = h * L.matrix
    hm2 = hm @ hm
    return np.eye(len(hm)) + hm + hm2 / 2 + hm2 @ (hm / 6 + hm2 / 24)


def test_evolve_stops_at_once_on_a_steady_state(monkeypatch):
    """Decay of level 1 into level 0 at rate 1, started in level 0: P y
    is y bit for bit, so the plain loop returns y after any number of
    steps, and evolve stops after its first block of the 10^6."""
    L = _two_level({(0, 3): 1.0, (3, 3): -1.0, (1, 1): -0.5, (2, 2): -0.5})
    rho0 = DensityMatrix(dim=2, entries=np.diag([1.0, 0.0]))
    h = 2.0 ** -7
    P = _propagator(L, h)
    y = rho0.entries.reshape(-1).astype(complex)
    assert (P @ y).tobytes() == y.tobytes()
    counter = _BlockCounter(monkeypatch)
    out = evolve(L, rho0, 10 ** 6 * h, dt=h)
    assert counter.blocks == 1
    assert counter.products <= EVOLVE_BLOCK
    assert out.entries.tobytes() == y.reshape(2, 2).tobytes()


@pytest.mark.parametrize("model, mode", [("single", "lindblad"),
                                         ("coupled", "lindblad"),
                                         ("coupled", "redfield")])
def test_evolve_stops_early_on_the_relax_run(model, mode, monkeypatch):
    """The t = 80, dt = 0.005 runs of the bit-for-bit test above reach
    a fixed point of the rounded step before their 16000th step."""
    L = _relax_generator(model, mode)
    n = L.dim
    counter = _BlockCounter(monkeypatch)
    evolve(L, DensityMatrix(dim=n, entries=np.eye(n) / n), 80.0, dt=0.005)
    assert 0 < counter.products < 16000


def test_evolve_takes_every_step_when_no_step_repeats(monkeypatch):
    """A single-qubit lindblad relax run (w0 = 2.14, g = 0.79 / 1.06,
    T = 0.49 / 0.58) whose rounded step changes the state on each of its
    16000 steps: the populations keep losing ulps, the trace drifts far
    inside its bound, and no fixed point is ever reached. evolve then
    checks all 250 blocks and returns the state after the last step."""
    system = make_single_qubit(2.14)
    L = _liouvillian(system, {"A": 0.79, "B": 1.06}, {"A": 0.49, "B": 0.58},
                     "lindblad")
    rho0 = DensityMatrix(dim=2, entries=np.eye(2) / 2)
    P = _propagator(L, 0.005)
    y = rho0.entries.reshape(-1).astype(complex)
    repeats = 0
    for _ in range(16000):
        z = P @ y
        repeats += z.tobytes() == y.tobytes()
        y = z
    assert repeats == 0
    counter = _BlockCounter(monkeypatch)
    out = evolve(L, rho0, 80.0, dt=0.005)
    assert counter.blocks == 16000 // EVOLVE_BLOCK
    assert counter.products == 16000
    assert out.entries.tobytes() == y.reshape(2, 2).tobytes()


def _outcome(run):
    """The bytes of the state run() returns, or the type and message of
    the IntegrationError it raises."""
    try:
        return run().entries.tobytes()
    except IntegrationError as exc:
        return IntegrationError, str(exc)


def _norm(y):
    """||y||; when its sum of squares overflows, taken on y / s for s the
    power of two at or above its largest entry, and multiplied by s."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(y)
        if norm == np.inf and np.isfinite(y).all():
            s = 2.0 ** math.ceil(math.log2(np.abs(y).max()))
            norm = s * np.linalg.norm(y / s)
    return norm


def _plain_outcome(L, rho0, t_final, dt):
    """evolve's outcome by its definition: the plain loop y <- P y, each
    state's norm compared with the blow-up bound as it is made, and then
    the trace drift; the final state's bytes, or the type and message of
    the error. Norms whose squares overflow are taken on scaled states."""
    n = L.dim
    steps = max(1, math.ceil(t_final / dt))
    h = t_final / steps
    P = _propagator(L, h)
    y = rho0.entries.reshape(-1).astype(complex)
    trace0 = y[::n + 1].sum()
    bound = 1e6 * max(1.0, float(_norm(y)))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            y = P @ y
            if not _norm(y) <= bound:
                return IntegrationError, (
                    f"propagation unstable after norm blowup at step size "
                    f"{h:g}; reduce dt")
    drift = abs(y[::n + 1].sum() - trace0)
    if drift > 1e-8:
        return IntegrationError, f"trace drifted by {drift:g} (> 1e-08); reduce dt"
    return y.tobytes()


def test_evolve_decides_by_state_norms_past_half_the_bound():
    """A coherence fed by a decaying population peaks at a norm of
    7.25e5, between half the bound 1e6 and the bound, at step 3 of 64:
    the block's sum of squared norms exceeds bound^2 / 4, so the states'
    own norms decide, and they pass the block. evolve returns the plain
    loop's bytes."""
    L = _two_level({(0, 3): 50.0, (3, 3): -50.0, (1, 3): 2e8, (1, 1): -50.0})
    h = 2.0 ** -7
    P = _propagator(L, h)
    y = MIXED_QUBIT.entries.reshape(-1).astype(complex)
    norms = []
    for _ in range(EVOLVE_BLOCK):
        y = P @ y
        norms.append(np.linalg.norm(y))
    assert 5e5 < max(norms) <= 1e6
    want = _plain_outcome(L, MIXED_QUBIT, EVOLVE_BLOCK * h, h)
    assert want == y.tobytes()
    assert _outcome(lambda: evolve(L, MIXED_QUBIT, EVOLVE_BLOCK * h, dt=h)) == want


@pytest.mark.parametrize("entries, error", [
    ({(1, 1): -1.0, (2, 2): -1.0}, None),
    ({(0, 3): 1e9}, "propagation unstable after norm blowup at step size "
                    "0.01; reduce dt"),
], ids=["coherence-decay", "blowup"])
def test_evolve_decides_by_state_norms_when_bound_squared_overflows(entries,
                                                                    error):
    """||rho0|| = 7.2e149 makes the bound 7.2e155, finite, and its square
    overflow, so no block passes on the one dot and the states' own norms
    alone decide: a coherence decay returns the plain loop's bytes, and a
    nilpotent generator that carries the states past the bound in the
    first step raises."""
    rho0 = DensityMatrix(dim=2, entries=1e150 * np.array([[0.5, 0.1],
                                                          [0.1, 0.5]]))
    bound = 1e6 * float(np.linalg.norm(rho0.entries))
    assert math.isfinite(bound) and bound * bound == math.inf
    L = _two_level(entries)
    want = _plain_outcome(L, rho0, 1.0, 0.01)
    if error:
        assert want == (IntegrationError, error)
    else:
        assert isinstance(want, bytes)
    assert _outcome(lambda: evolve(L, rho0, 1.0, dt=0.01)) == want


def test_evolve_norms_a_state_whose_squares_overflow():
    """rho0 = 1e150 I/2 gives the bound 7.1e155; a nilpotent generator
    carries rho_00 to 5.0e154 by t = 1, inside the bound but past the
    1.34e154 where its square overflows. The state's norm is taken on
    the state scaled by a power of two, so no blow-up is reported, and
    the run ends on the trace it gained, as in the plain loop."""
    rho0 = DensityMatrix(dim=2, entries=1e150 * np.eye(2) / 2)
    L = _two_level({(0, 3): 1e5})
    want = _plain_outcome(L, rho0, 1.0, 0.01)
    assert want == (IntegrationError, "trace drifted by 5e+154 (> 1e-08); "
                    "reduce dt")
    assert _outcome(lambda: evolve(L, rho0, 1.0, dt=0.01)) == want


@pytest.mark.parametrize("entries, error", [
    ({(1, 1): -1.0, (2, 2): -1.0}, None),
    ({(0, 3): 1e9}, "propagation unstable after norm blowup"),
    ({(0, 3): 1e5}, "trace drifted by 5e+164"),
], ids=["coherence-decay", "blowup", "drift"])
def test_evolve_bound_of_a_state_whose_squares_overflow(entries, error):
    """||rho0|| = 7.2e159: the sum of squares behind the bound overflows.
    With every warning an error, evolve takes the norm on the scaled
    state, so the bound is the finite 7.2e165, and gives the plain
    loop's outcome: a coherence decay returns its bytes, a jump past
    the bound in the first step is a blow-up, and a growth within it
    ends on the trace."""
    rho0 = DensityMatrix(dim=2, entries=1e160 * np.array([[0.5, 0.1],
                                                          [0.1, 0.5]]))
    L = _two_level(entries)
    want = _plain_outcome(L, rho0, 1.0, 0.01)
    if error:
        assert want[0] is IntegrationError and want[1].startswith(error)
    else:
        assert isinstance(want, bytes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(lambda: evolve(L, rho0, 1.0, dt=0.01)) == want


@PROPERTY_SETTINGS
@given(lindblad_systems(max_n=4), st.tuples(_baths, _baths),
       st.integers(1, 3 * EVOLVE_BLOCK + 5),
       st.sampled_from([1.0, 1e150, 1e160]),
       st.data())
def test_evolve_gives_the_plain_loops_outcome(system, baths, steps, scale,
                                              data):
    """On drawn lindblad generators with N = 2..4 and drawn positive
    states, for 1 to 3 EVOLVE_BLOCK + 5 steps of a power-of-two size h
    with h ||M||_inf <= 1, evolve returns the plain loop's bytes or
    raises its error. A state scaled by 1e150 makes bound^2 overflow, so
    its blocks are decided by the states' own norms, and the rounding of
    the steps may drift its trace past 1e-8, which both must report.
    At 1e160 the squares behind each norm overflow too, and both take
    the norms on scaled states."""
    n = system.dim
    liou = assemble_liouvillian(system, combine_kernels(_kernels(system, baths)))
    parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n * n,
                               max_size=2 * n * n))
    a = np.reshape(parts[::2], (n, n)) + 1j * np.reshape(parts[1::2], (n, n))
    rho = a @ a.conj().T + np.eye(n)
    rho0 = DensityMatrix(dim=n, entries=scale * rho / rho.trace().real)
    h = 2.0 ** -math.ceil(math.log2(np.linalg.norm(liou.matrix, np.inf)))
    assert (_outcome(lambda: evolve(liou, rho0, steps * h, dt=h))
            == _plain_outcome(liou, rho0, steps * h, h))


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
    assert rho.hermiticity_defect() < 1e-15
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 2.0
    with pytest.raises(ValueError):
        DensityMatrix(dim=2, entries=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        DensityMatrix(dim=2, entries=np.array([[np.nan, 0], [0, 1.0]]))


def test_positivity_report_cases(coupled_pipeline):
    clean = positivity_report(gibbs_state((-1.0, 0.0, 1.0), 1.0))
    assert clean.min_population > 0
    assert clean.min_eigenvalue > 0
    assert clean.positive
    # the non-secular steady state at a strong thermal bias is not a state
    rho, _, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 10.5, 0.5,
                                 mode="redfield")
    broken = positivity_report(rho)
    assert broken.min_population < 0
    assert broken.min_eigenvalue < -1e-10
    assert not broken.positive
    # the secular kernel keeps the same parameter point positive
    rho, _, _ = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 10.5, 0.5)
    assert positivity_report(rho).min_eigenvalue >= -1e-10


def test_solve_info_diagnostics(coupled_pipeline):
    _, _, liou = coupled_pipeline(1.0, 2.0, 0.5, 1.0, 1.0, 1.5, 1.0)
    rho, info = solve_steady_state(liou, full_output=True)
    assert info.residual < 1e-10
    assert rho.hermiticity_defect() == 0
    assert abs(rho.entries.trace() - 1.0) < 1e-13


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
    stacks = {r: build_kernel(system, columns(BathSpec(temperature=t[r],
                                                       spectral_density=g_of[r])
                                              for t in temps), r, mode)
              for r in ("A", "B")}
    L = assemble_liouvillian(system, combine_kernels([stacks["A"], stacks["B"]]))
    rho, info = solve_steady_state(L, full_output=True)
    q = {r: reservoir_current(system, stacks[r], rho) for r in stacks}
    pos = positivity_report(rho)
    assert rho.entries.shape == (len(temps), system.dim, system.dim)
    traces = rho.entries.trace(axis1=-2, axis2=-1)
    assert np.max(np.abs(traces - 1.0)) <= 1e-10
    assert np.max(rho.hermiticity_defect()) <= 1e-10
    for j in range(len(temps)):
        kernels = {r: SuperKernel(dim=system.dim, data=stacks[r].data[j],
                                  mode=mode) for r in stacks}
        L_j = assemble_liouvillian(system, combine_kernels(
            [kernels["A"], kernels["B"]]))
        assert np.array_equal(L.matrix[j], L_j.matrix)
        rho_j, info_j = solve_steady_state(L_j, full_output=True)
        assert np.array_equal(rho.entries[j], rho_j.entries)
        assert np.array_equal(rho.coherences[j], rho_j.coherences)
        assert info_j == SolveInfo(residual=float(info.residual[j]))
        for r in stacks:
            assert float(q[r][j]) == reservoir_current(system, kernels[r], rho_j)
        assert positivity_report(rho_j) == PositivityReport(
            min_population=float(pos.min_population[j]),
            min_eigenvalue=float(pos.min_eigenvalue[j]))


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


def test_leak_check_runs_on_every_entry_before_the_null_count():
    """A degenerate entry before a leaky one: the leak check reads every
    entry before any null count, so the stack raises the leaky entry's
    own message, as the null count runs on every entry before the
    residual check."""
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    leaky = assemble_liouvillian(system, combine_kernels([build_kernel(
        system, BathSpec(temperature=t, spectral_density=g, label=r), r,
        "redfield") for r, g, t in (("A", 1.0, 1.5), ("B", 0.5, 1.0))]))
    with pytest.raises(DegenerateSteadyStateError) as own:
        solve_steady_state(leaky)
    degenerate = np.zeros((16, 16))
    with pytest.raises(DegenerateSteadyStateError,
                       match="^nullspace dimension 16"):
        solve_steady_state(Liouvillian(dim=4, matrix=degenerate))
    stack = Liouvillian(dim=4, matrix=np.stack([degenerate, leaky.matrix]))
    with pytest.raises(DegenerateSteadyStateError) as exc:
        solve_steady_state(stack)
    assert str(exc.value) == str(own.value)


def test_svd_steady_state_refuses_a_traceless_null_vector():
    # the null vector of diag(1, 0, 1, 1) is the coherence rho_12
    L = Liouvillian(dim=2, matrix=np.diag([1.0, 0, 1, 1]).astype(complex))
    with pytest.raises(DegenerateSteadyStateError) as exc:
        svd_steady_state(L)
    assert str(exc.value) == "null vector is traceless (|tr| = 0); not a state"


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


def _null_count(sv):
    """How many of the singular values sv the nullspace check counts."""
    return np.count_nonzero(
        sv <= steady.NULLSPACE_RTOL * sv.max(axis=-1, keepdims=True), axis=-1)


def _sparse_random_system(rng, n):
    """Gaps in [0.5, 1.5]; complex raising couplings with about 30 % of
    their entries zero."""
    couplings = {}
    for r in ("A", "B"):
        s1 = np.tril(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                     -1) / np.sqrt(n)
        s1[rng.random((n, n)) < 0.3] = 0.0
        couplings[r] = s1
    return SystemSpec(levels=tuple(np.cumsum(rng.uniform(0.5, 1.5, n))),
                      couplings=couplings)


def _certify_nothing(m, mp, trace_resid):
    """The certificate switched off: every entry goes to the full SVD."""
    return np.zeros(m.shape[:-2], dtype=bool)


def _solve_outcome(L):
    """The state bytes of the solve, or its refusal's type and message."""
    try:
        return solve_steady_state(L).entries.tobytes()
    except (DegenerateSteadyStateError, SteadyStateResidualError) as exc:
        return type(exc), str(exc)


def _full_svd_refusal(m):
    """The nullspace refusal of the one generator m, worded from its own
    full SVD, or None where that SVD counts one null direction."""
    sv = np.linalg.svd(m, compute_uv=False)
    null = [float(x) for x in sv[sv <= steady.NULLSPACE_RTOL * sv[0]]]
    if len(null) == 1:
        return None
    residual = float(steady._trace_residual(m, math.isqrt(len(m))))
    return (DegenerateSteadyStateError,
            f"nullspace dimension {len(null)}, need exactly 1; singular values "
            f"below cutoff: {null}, sigma_max {sv[0]:g}; trace residual "
            f"{residual:.3e}")


def _assert_refused_where_the_full_svd_counts_other_than_one(m):
    """Each entry of the stack m alone that keeps its trace is refused
    exactly where its full SVD counts other than one null direction,
    with the message worded from that SVD; the stack raises the message
    of its first leaky entry, else of its first degenerate one, else of
    its first entry refused alone, and otherwise its states are the
    bytes of the one-point solves. Returns the number of leaky,
    degenerate and other entries."""
    n = math.isqrt(m.shape[-1])
    kinds, outcomes = [], []
    for entry in m:
        outcome = _solve_outcome(Liouvillian(dim=n, matrix=entry))
        refusal = _full_svd_refusal(entry)
        scale = np.abs(entry).sum(axis=-1).max()
        if steady._trace_residual(entry, n) > steady.TRACE_TOL * max(1.0, scale):
            assert outcome[0] is DegenerateSteadyStateError
            assert outcome[1].endswith("the generator does not preserve trace")
            kinds.append(0)
        elif refusal is not None:
            assert outcome == refusal
            kinds.append(1)
        else:
            assert isinstance(outcome, bytes) or outcome[0] is SteadyStateResidualError
            kinds.append(2)
        outcomes.append(outcome)
    stacked = _solve_outcome(Liouvillian(dim=n, matrix=m))
    refused = [(k, o) for k, o in zip(kinds, outcomes) if not isinstance(o, bytes)]
    if refused:     # min keeps the first entry of the earliest check
        assert stacked == min(refused, key=lambda ko: ko[0])[1]
    else:
        assert stacked == b"".join(outcomes)
    return np.bincount(kinds, minlength=3)


def test_the_null_count_refuses_exactly_what_the_full_svd_counts_as_other_than_one():
    """On random systems, N = 2..10 in both modes, alone and as stacks of
    four whose T = 0 baths, zero spectral densities and zero coupling
    entries vary the pattern, and on the coupled pair's (B, 16, 16)
    stacks over T = 0..6 and g = 0..2 in both modes, on a pattern the
    block cache has not seen: with the certificate on and switched off,
    a generator that keeps its trace is refused exactly where its full
    SVD counts other than one null direction, with that entry's own
    message, and is otherwise solved to the bytes of its one-point
    solve."""
    rng = np.random.default_rng(17)
    counts = np.zeros(3, dtype=int)
    certified = patterns_differ = decoupled = 0
    certify = steady._certified

    def spy(m, mp, trace_resid):
        nonlocal certified
        verdict = certify(m, mp, trace_resid)
        certified += np.count_nonzero(verdict)
        return verdict

    def check(m):
        nonlocal counts
        for switch in (spy, _certify_nothing):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(steady, "_certified", switch)
                counts += _assert_refused_where_the_full_svd_counts_other_than_one(m)

    for n in range(2, 11):
        for mode in ("lindblad", "redfield"):
            for _ in range(3):
                system = _sparse_random_system(rng, n)
                baths = {r: [BathSpec(temperature=0.0 if rng.random() < 0.3
                                      else rng.uniform(0.2, 4.0),
                                      spectral_density=0.0 if rng.random() < 0.2
                                      else rng.uniform(0.5, 1.5))
                             for _ in range(4)] for r in ("A", "B")}
                m = assemble_liouvillian(system, combine_kernels(
                    [build_kernel(system, columns(baths[r]), r, mode)
                     for r in ("A", "B")])).matrix
                check(m)
                nz = m != 0
                patterns_differ += bool((nz != nz[0]).any())
                off = nz.any(axis=0) & ~np.eye(n * n, dtype=bool)
                decoupled += np.count_nonzero(~(off | off.T).any(axis=0))
    # the draws reach the cases the count must get right
    assert counts.all() and certified > 0
    assert patterns_differ > 0 and decoupled > 0
    pair, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    steady._blocks.cache_clear()
    for mode in ("lindblad", "redfield"):
        baths = {r: [BathSpec(temperature=t, spectral_density=g)
                     for t, g in zip(rng.uniform(0.0, 6.0, 12),
                                     [0.0, *rng.uniform(0.0, 2.0, 11)])]
                 for r in ("A", "B")}
        if mode == "redfield":      # equal couplings keep the trace
            baths["B"] = [BathSpec(temperature=b.temperature,
                                   spectral_density=a.spectral_density)
                          for a, b in zip(baths["A"], baths["B"])]
        m = assemble_liouvillian(pair, combine_kernels(
            [build_kernel(pair, columns(baths[r]), r, mode)
             for r in ("A", "B")])).matrix
        assert m.shape == (12, 16, 16)
        check(m)
    # each mode's stack pattern, then each entry's own, missed the cache
    assert steady._blocks.cache_info().misses >= 2


def _generator(system, g_of, t_of, mode):
    """The assembled generator, not solved."""
    return assemble_liouvillian(system, combine_kernels([build_kernel(
        system, BathSpec(temperature=t_of[r], spectral_density=g_of[r]), r,
        mode) for r in g_of]))


def _unreached_level_liouvillian(t_a):
    """3 levels whose couplings never reach level 2: trace-preserving,
    with one steady state in levels 0 and 1 and another in level 2."""
    s1 = np.zeros((3, 3), dtype=complex)
    s1[1, 0] = 1.0
    system = SystemSpec(levels=(0.0, 1.0, 2.5), couplings={"A": s1, "B": s1})
    return _generator(system, {"A": 1.0, "B": 0.5}, {"A": t_a, "B": 1.0},
                      "lindblad")


def test_trace_preserving_degenerate_message_comes_from_the_full_svd():
    # the message quotes the values of the generator's own full SVD,
    # the rounding-sized null value of the linked block among them
    L = _unreached_level_liouvillian(1.5)
    m = L.matrix
    sv = np.linalg.svd(m, compute_uv=False)
    null = [float(x) for x in sv[sv <= steady.NULLSPACE_RTOL * sv[0]]]
    residual = float(np.abs(m[::4, :].sum(axis=0)).max())
    assert residual <= 1e-12 and len(null) == 2
    expected = (f"nullspace dimension 2, need exactly 1; singular values "
                f"below cutoff: {null}, sigma_max {sv[0]:g}; trace residual "
                f"{residual:.3e}")
    with pytest.raises(DegenerateSteadyStateError) as exc:
        solve_steady_state(L)
    assert str(exc.value) == expected
    # in a stack, the first degenerate entry gives its own message
    stack = Liouvillian(dim=3, matrix=np.stack(
        [_unreached_level_liouvillian(t).matrix for t in (1.5, 3.0)]))
    with pytest.raises(DegenerateSteadyStateError) as exc:
        solve_steady_state(stack)
    assert str(exc.value) == expected


def test_a_traceless_null_vector_fails_the_trace_row_solve():
    """One null direction, but a traceless one: the population block
    [[-1, -1], [1, 1]] preserves trace and has the null vector (1, -1),
    so the trace row makes the solved matrix singular, and the LU
    failure is refused as a SteadyStateResidualError."""
    m = np.diag([-1.0, -1.0, -1.0, 1.0]).astype(complex)
    m[0, 3], m[3, 0] = -1.0, 1.0
    with pytest.raises(SteadyStateResidualError) as exc:
        solve_steady_state(Liouvillian(dim=2, matrix=m))
    assert str(exc.value) == "trace-row solve failed: Singular matrix"


_REFUSALS = {
    NearDegeneracyError: ("within the secular tolerance",),
    DegenerateSteadyStateError: ("does not preserve trace", "need exactly 1"),
    SteadyStateResidualError: ("exceeds the absolute bound",),
}


@PROPERTY_SETTINGS
@given(lindblad_systems(), st.sampled_from(["lindblad", "redfield"]),
       st.tuples(_baths, _baths))
def test_every_returned_point_preserves_trace_and_energy(system, mode, baths):
    """On drawn systems of both modes, with T = 0 baths and unequal
    couplings allowed, every steady point that returns has a generator
    whose trace residual, summed here over its population rows, is at
    most TRACE_TOL * max(1, ||M||_inf), and currents that meet the first
    law, |q_A + q_B| <= 1e-10; every refusal names its cause. The worst
    ratio of each to its bound is the hypothesis target."""
    try:
        point = steady_point(system, dict(zip(("A", "B"), baths)), mode)
    except tuple(_REFUSALS) as exc:
        assert any(c in str(exc) for c in _REFUSALS[type(exc)])
        return
    m = point.liouvillian.matrix
    n = system.dim
    populations = [p * n + p for p in range(n)]
    residual = np.abs(m[populations].sum(axis=0)).max()
    scale = np.abs(m).sum(axis=1).max()
    trace_ratio = residual / (1e-12 * max(1.0, scale))
    first_law = abs(point.currents["A"] + point.currents["B"]) / 1e-10
    target(trace_ratio, label="trace residual / bound")
    target(first_law, label="|q_A + q_B| / 1e-10")
    assert trace_ratio <= 1.0 and first_law <= 1.0


def _lindblad_point(system, baths):
    """The lindblad steady point between baths, or None where a refusal
    that names its cause stops the pipeline."""
    try:
        return steady_point(system, dict(zip(("A", "B"), baths)), "lindblad")
    except tuple(_REFUSALS) as exc:
        assert any(c in str(exc) for c in _REFUSALS[type(exc)])
        return None


@PROPERTY_SETTINGS
@given(lindblad_systems(), st.tuples(_baths, _baths))
def test_every_lindblad_point_meets_the_second_law(system, baths):
    """Heat of a global lindblad generator runs from hot to cold
    (Spohn, J. Math. Phys. 19, 1227, 1978): on drawn systems, with T = 0
    baths and zero couplings allowed, every returned point's verdict is
    pass or not-applicable. The worst q_A (T_A - T_B), the most negative,
    is the hypothesis target."""
    point = _lindblad_point(system, baths)
    if point is None:
        return
    t_a, t_b = (b.temperature for b in baths)
    q = point.currents
    target(-q["A"] * (t_a - t_b), label="-q_A (T_A - T_B)")
    assert law_checks((t_a, q["A"]), (t_b, q["B"])).second_law in \
        ("pass", "not-applicable")


@PROPERTY_SETTINGS
@given(lindblad_systems(), st.tuples(_baths, _baths))
def test_every_lindblad_steady_state_is_positive(system, baths):
    """On the same draws, every returned lindblad steady state has its
    smallest eigenvalue at least -1e-10; the most negative one is the
    hypothesis target."""
    point = _lindblad_point(system, baths)
    if point is None:
        return
    target(-point.positivity.min_eigenvalue, label="-min eigenvalue")
    assert point.positivity.min_eigenvalue >= -1e-10


def test_nullspace_check_makes_one_svd(monkeypatch):
    """The certificate takes one batched det per block size and no SVD
    where it proves one null direction: the N = 10 lindblad generator,
    the coupled pair in either mode and every preset chunk. The coupled
    pair at g = 1e-6 is not certified and is counted by one full SVD of
    a one-entry sub-stack; a leaky generator is refused before any det
    or SVD, and a degenerate one takes one full SVD too."""
    system = _random_lindblad_system(10)
    g_of, t_of = {"A": 1.0, "B": 0.8}, {"A": 2.0, "B": 1.0}
    secular = _generator(system, g_of, t_of, "lindblad")
    leaky = _generator(system, g_of, t_of, "redfield")
    degenerate = _unreached_level_liouvillian(2.0)
    pair, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    calls = []      # (name, matrix shape) of every np.linalg.svd and det call

    def spy(name, f):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return f(a, *args, **kwargs)
        return call

    for name in ("svd", "det"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))

    def svd_calls():
        return [shape for name, shape in calls if name == "svd"]

    solve_steady_state(secular)
    assert svd_calls() == [] and calls
    assert all(shape[-1] < 100 for _, shape in calls)
    # the coupled pair's blocks: [4, 2, 2, 2, 2] secular, [6, 4, 4] not
    for mode, blocks in (("lindblad", {(4, 2, 2), (1, 4, 4)}),
                         ("redfield", {(2, 4, 4), (1, 6, 6)})):
        calls.clear()
        solve_steady_state(_generator(pair, {"A": 1.0, "B": 1.0}, t_of, mode))
        assert svd_calls() == [] and {shape for _, shape in calls} == blocks
        # too weak to certify: the entry alone takes one full SVD
        calls.clear()
        weak = _generator(pair, {"A": 1e-6, "B": 1e-6}, t_of, mode)
        rho = solve_steady_state(weak)
        assert np.abs(weak.matrix @ rho.entries.reshape(-1)).max() < 1e-10
        assert svd_calls() == [(1, 16, 16)]
        assert {shape for name, shape in calls if name == "det"} == blocks
    for fig in PRESETS:
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["preset", fig]) == 0
        assert svd_calls() == [] and len(calls) == 2
        assert {shape[0] for _, shape in calls} == {PRESETS[fig]["count"]}
    calls.clear()
    with pytest.raises(DegenerateSteadyStateError, match="preserve trace"):
        solve_steady_state(leaky)
    assert calls == []      # refused before any det or SVD
    # a degenerate entry the certificate leaves takes one full SVD
    calls.clear()
    with pytest.raises(DegenerateSteadyStateError):
        solve_steady_state(degenerate)
    assert svd_calls() == [(1, 9, 9)]


def test_a_seen_link_pattern_reuses_its_certificate_plan(monkeypatch):
    """A second solve of a link pattern already seen, for one point and
    for a stack, at other temperatures, adds no _blocks miss and reads
    the same plan, as the kernel's _plan is pinned; every array of the
    plan is read-only."""
    plans, real = [], steady._linked_blocks
    monkeypatch.setattr(steady, "_linked_blocks",
                        lambda m: plans.append(real(m)) or plans[-1])
    pair, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    g_of = {"A": 1.0, "B": 1.0}
    steady._blocks.cache_clear()
    for mode in ("lindblad", "redfield"):
        misses = []
        for t_a in (2.0, 3.0):
            stack = [BathSpec(temperature=t, spectral_density=1.0)
                     for t in (t_a, t_a + 0.5, t_a + 4.0)]
            solve_steady_state(_generator(pair, g_of, {"A": t_a, "B": 1.0},
                                          mode))
            solve_steady_state(assemble_liouvillian(pair, combine_kernels(
                [build_kernel(pair, columns(stack), r, mode)
                 for r in ("A", "B")])))
            misses.append(steady._blocks.cache_info().misses)
        assert misses[0] > 0 and misses[1] == misses[0]
        assert plans[-2] is plans[-4] and plans[-1] is plans[-3]
    assert len(plans) == 8
    for plan in plans:
        for field in dataclasses.fields(plan):
            array = getattr(plan, field.name)
            if isinstance(array, np.ndarray):
                assert array.size
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.cells = None


_weak_g = st.one_of(st.just(0.0), st.floats(-14.0, 3.0).map(lambda x: 10.0 ** x))
_wide_t = st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(lambda x: 10.0 ** x))


@st.composite
def _certificate_cases(draw):
    """A generator of the single qubit, the coupled pair or a random
    N = 2..6 system, in either mode, for one point or a stack of four,
    with couplings down to 1e-14 and zero, temperatures from 1e-3 to
    1e8 and zero; the two reservoirs share their coupling in about half
    of the draws, which keeps a redfield pair's trace."""
    system = draw(st.one_of(st.just(make_single_qubit(1.0)),
                            st.just(make_coupled_qubits(1.0, 2.0, 0.5)[0]),
                            lindblad_systems()))
    mode = draw(st.sampled_from(["lindblad", "redfield"]))
    stacked = draw(st.booleans())
    shared = draw(st.booleans())
    entries = []
    for _ in range(4 if stacked else 1):
        g_a = draw(_weak_g)
        g_b = g_a if shared else draw(_weak_g)
        entries.append({"A": BathSpec(temperature=draw(_wide_t), spectral_density=g_a),
                        "B": BathSpec(temperature=draw(_wide_t), spectral_density=g_b)})
    baths = {r: columns(e[r] for e in entries) if stacked else entries[0][r]
             for r in ("A", "B")}
    try:
        return assemble_liouvillian(system, combine_kernels(
            [build_kernel(system, baths[r], r, mode) for r in ("A", "B")]))
    except NearDegeneracyError:
        reject()


@PROPERTY_SETTINGS
@given(_certificate_cases())
def test_the_certificate_passes_only_what_the_full_svd_counts_as_one(L):
    """Every entry the certificate passes has one null direction in its
    full SVD, and the solve's outcome, state bytes or refusal message,
    is the one it gives with the certificate switched off. The smallest
    ratio of the second-smallest singular value to the cutoff among the
    certified entries is the hypothesis target."""
    verdicts = []
    certify = steady._certified

    def spy(m, mp, trace_resid):
        verdicts.append((m, certify(m, mp, trace_resid)))
        return verdicts[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steady, "_certified", spy)
        outcome = _solve_outcome(L)
        patch.setattr(steady, "_certified", _certify_nothing)
        assert _solve_outcome(L) == outcome
    margins = []
    for m, certified in verdicts:
        full = np.linalg.svd(m.reshape((-1,) + m.shape[-2:]), compute_uv=False)
        for sv in full[certified.reshape(-1)]:
            assert _null_count(sv) == 1
            margins.append(sv[-2] / (steady.NULLSPACE_RTOL * sv[0]))
    if margins:
        target(-float(min(margins)), label="-(second value / cutoff)")


def _scaled_coupled_generator(scales):
    """The coupled lindblad pair at T = (2, 1), g = 1, times each scale,
    as one generator or a stack."""
    pair, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    m = _generator(pair, {"A": 1.0, "B": 1.0}, {"A": 2.0, "B": 1.0},
                   "lindblad").matrix
    return Liouvillian(dim=4, matrix=np.squeeze(np.stack([m * s for s in scales])))


@pytest.mark.parametrize("scales, certified", [
    ((1e160,), [False]),        # ||M||_F overflows
    ((1e-300,), [False]),       # ||M||_F below 2^-256
    ((1e6,), [True]),
    ((1e160, 1.0, 1e-300, 1e-3), [False, True, False, True]),
])
def test_the_certificate_of_extreme_generators_warns_nothing(scales, certified):
    """Generators with entries near 1e160 and 1e-300 fall back to the
    full SVD without a warning, and every outcome is the one the solve
    gives with the certificate switched off; in a stack the certified
    entries pass and only the others take the full SVD. The trace row of M' is
    of order one, so far from that scale its det bound is too weak to
    certify: this generator is certified from about 1e-4 to 1e8 times
    its own scale."""
    L = _scaled_coupled_generator(scales)
    verdicts = []
    certify = steady._certified

    def spy(m, mp, trace_resid):
        verdicts.append(certify(m, mp, trace_resid))
        return verdicts[-1]

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(steady, "_certified", spy)
        outcome = _solve_outcome(L)
        patch.setattr(steady, "_certified", _certify_nothing)
        assert _solve_outcome(L) == outcome
    assert np.atleast_1d(verdicts[0]).tolist() == certified


def test_the_point_at_ta_1e160_prints_no_warning(capsys):
    """qheat single --ta 1e160 --tb 1 gives the output and exit code it
    gives with the certificate switched off, and no warning."""
    argv = ["single", "--ta", "1e160", "--tb", "1"]
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        code = cli_main(argv)
        out = capsys.readouterr()
        patch.setattr(steady, "_certified", _certify_nothing)
        assert cli_main(argv) == code == 1
        assert capsys.readouterr() == out
    assert out.err == "qheat: conservation residual 5.000e-01\n"
