"""Release gate: one test per numbered check, each at its stated tolerance.

Run with -v to get one pass/fail line per criterion. One check measures
a property the shipped kernels genuinely do not have and fails by
measurement, not by accident:

  * 09a: the per-reservoir non-secular kernels move weight between the
    population and coherence sectors, so their population column sums do
    not vanish (only the lindblad kernels and the uniform-coupling total
    meet the 1e-12 bound). The measured residuals are printed.

It is kept as a plain failing test rather than weakened; see README.

11b checks the equilibrium sweep's high-temperature end against the
Boltzmann populations, which the steady state must equal when both
reservoirs share a temperature. It once asked for populations within
0.02 of 1/4 at T = 16; no correct program can meet that, because the
Gibbs state of the fig3 system sits 0.0238 from 1/4 there (the
deviation falls off as 1/T and first reaches 0.02 near T = 19.02).
"""

import math
import time
from functools import lru_cache

import numpy as np

from qheat.bath import BathSpec, planck_occupation
from qheat.cli import main as cli_main
from qheat.kernel import build_kernel, check_trace_condition, combine_kernels
from qheat.models import (coupled_lindblad_closed, coupled_redfield_closed,
                          limit_currents, single_qubit_closed)
from qheat.steady import DensityMatrix, evolve, positivity_report
from qheat.system import make_coupled_qubits, make_single_qubit
from qheat.thermo import steady_point

TOL = 1e-10


def agree(a, b, tol=TOL):
    """Relative for large values, absolute below magnitude one."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def deviation(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def run_pipeline(system, g_of, t_of, mode):
    point = steady_point(system, {r: BathSpec(temperature=t_of[r],
                                              spectral_density=g_of[r], label=r)
                                  for r in sorted(g_of)}, mode)
    return point.rho, point.currents, point.kernels, point.liouvillian


@lru_cache(maxsize=None)
def single_draws():
    """100 random single-qubit points: pipeline result + closed form."""
    rng = np.random.default_rng(1001)
    points = []
    start = time.perf_counter()
    for _ in range(100):
        w0 = rng.uniform(0.2, 5.0)
        ga, gb = rng.uniform(0.0, 2.0, size=2)
        ta, tb = rng.uniform(0.05, 10.0, size=2)
        rho, q, _, _ = run_pipeline(make_single_qubit(w0),
                                    {"A": ga, "B": gb}, {"A": ta, "B": tb},
                                    "lindblad")
        points.append(dict(params=(w0, ga, gb, ta, tb), rho=rho, q=q,
                           closed=single_qubit_closed(w0, ga, gb, ta, tb)))
    return points, time.perf_counter() - start


@lru_cache(maxsize=None)
def coupled_lindblad_draws():
    """100 random coupled-pair points under the secular kernel."""
    rng = np.random.default_rng(1002)
    points = []
    start = time.perf_counter()
    for _ in range(100):
        w1, w2 = rng.uniform(0.2, 5.0, size=2)
        lam = rng.uniform(0.0, 0.9 * math.sqrt(w1 * w2))
        ga, gb = rng.uniform(0.0, 2.0, size=2)
        ta, tb = rng.uniform(0.05, 10.0, size=2)
        system, _ = make_coupled_qubits(w1, w2, lam)
        rho, q, _, _ = run_pipeline(system, {"A": ga, "B": gb},
                                    {"A": ta, "B": tb}, "lindblad")
        points.append(dict(
            params=(w1, w2, lam, ga, gb, ta, tb), rho=rho, q=q,
            closed=coupled_lindblad_closed(w1, w2, lam, ga, gb, ta, tb)))
    return points, time.perf_counter() - start


@lru_cache(maxsize=None)
def coupled_redfield_draws():
    """100 random coupled-pair points, non-secular kernel, uniform g."""
    rng = np.random.default_rng(1003)
    points = []
    for _ in range(100):
        w1, w2 = rng.uniform(0.2, 5.0, size=2)
        lam = rng.uniform(0.0, 0.9 * math.sqrt(w1 * w2))
        g = rng.uniform(0.05, 2.0)
        ta, tb = rng.uniform(0.05, 10.0, size=2)
        system, _ = make_coupled_qubits(w1, w2, lam)
        rho, q, _, _ = run_pipeline(system, {"A": g, "B": g},
                                    {"A": ta, "B": tb}, "redfield")
        points.append(dict(params=(w1, w2, lam, g, ta, tb), rho=rho, q=q,
                           closed=coupled_redfield_closed(w1, w2, lam, g,
                                                          ta, tb)))
    return points


def test_criterion_01_single_qubit_matches_closed_form():
    points, elapsed = single_draws()
    worst = 0.0
    for pt in points:
        pops = pt["rho"].populations
        closed = pt["closed"]
        worst = max(worst,
                    deviation(pops[1], closed.rho_plus),
                    deviation(pops[0], closed.rho_minus),
                    deviation(pt["q"]["A"], closed.q_a))
    print(f"criterion 1: worst deviation {worst:.3e}, runtime {elapsed:.2f} s")
    assert worst <= TOL
    assert elapsed < 5.0


def test_criterion_02_coupled_lindblad_matches_closed_form():
    points, elapsed = coupled_lindblad_draws()
    worst = 0.0
    for pt in points:
        pops = pt["rho"].populations
        closed = pt["closed"]
        worst = max(worst,
                    max(deviation(p, c)
                        for p, c in zip(pops, closed.populations)),
                    deviation(pt["q"]["A"], closed.q_a),
                    deviation(pt["q"]["B"], closed.q_b))
    print(f"criterion 2: worst deviation {worst:.3e}, runtime {elapsed:.2f} s")
    assert worst <= TOL
    assert elapsed < 10.0


def test_criterion_03_coupled_redfield_matches_closed_form():
    other = np.ones((4, 4), dtype=bool)
    np.fill_diagonal(other, False)
    other[1, 2] = other[2, 1] = False
    worst = worst_other = 0.0
    for pt in coupled_redfield_draws():
        rho = pt["rho"]
        closed = pt["closed"]
        worst = max(worst,
                    max(deviation(p, c)
                        for p, c in zip(rho.populations, closed.populations)),
                    deviation(rho.entries[1, 2], closed.rho_23),
                    deviation(rho.entries[2, 1], closed.rho_32))
        worst_other = max(worst_other, float(np.abs(rho.entries[other]).max()))
        # normalization identity: N equals the sum of the unnormalized
        # population numerators, so the populations sum to one
        r = closed.rates
        s1, s2, s3, s4 = r.s
        f = r.s_sum ** 2 + 4 * r.e ** 2
        t = (s1 * s2, s1 * s4, s2 * s3, s3 * s4)
        u = ((s1 + s4) * (s2 + s3), (s1 + s4) ** 2,
             (s2 + s3) ** 2, (s1 + s4) * (s2 + s3))
        n_from_sum = sum(f * tn - 4 * r.k ** 2 * un for tn, un in zip(t, u))
        assert abs(n_from_sum - r.n_norm) <= TOL * abs(r.n_norm)
    print(f"criterion 3: worst deviation {worst:.3e}, "
          f"largest spectator coherence {worst_other:.3e}")
    assert worst <= TOL
    assert worst_other < 1e-10


def test_criterion_04_first_law_on_all_draws():
    worst = 0.0
    for pt in (single_draws()[0] + coupled_lindblad_draws()[0]
               + coupled_redfield_draws()):
        worst = max(worst, abs(pt["q"]["A"] + pt["q"]["B"]))
    print(f"criterion 4: worst |q_A + q_B| = {worst:.3e}")
    assert worst < 1e-10


def test_criterion_05_second_law_on_lindblad_draws():
    violations = 0
    for pt in coupled_lindblad_draws()[0]:
        w1, w2, lam, ga, gb, ta, tb = pt["params"]
        product = pt["q"]["A"] * (ta - tb)
        if product < 0:
            violations += 1
        if ta != tb and lam > 0 and ga > 0 and gb > 0:
            assert product > 0, \
                f"no strict heat flow hot-to-cold at {pt['params']}"
    print(f"criterion 5: {violations} second-law violations in 100 draws")
    assert violations == 0


def test_criterion_06_nonsecular_negative_populations():
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    grid = np.linspace(5.0, 8.0, 161)[1:]    # mean temperature on (5, 8]
    assert len(grid) >= 100
    low = []
    for tm in grid:
        rho, _, _, _ = run_pipeline(system, {"A": 1.0, "B": 1.0},
                                    {"A": tm + 5.0, "B": tm - 5.0},
                                    "redfield")
        pops = rho.populations
        low.append(min(pops[1], pops[3]))
    low = np.array(low)
    edge = grid[low < 0].max()
    print(f"criterion 6: min(rho_22, rho_44) = {low.min():.4f}, "
          f"negative up to T = {edge:.4f}")
    assert low.min() < 0
    assert 5.5 <= edge <= 6.5
    # equal temperatures: the non-secular solve loses its coherences and
    # agrees with the secular populations
    rho_r, _, _, _ = run_pipeline(system, {"A": 1.0, "B": 1.0},
                                  {"A": 2.0, "B": 2.0}, "redfield")
    rho_l, _, _, _ = run_pipeline(system, {"A": 1.0, "B": 1.0},
                                  {"A": 2.0, "B": 2.0}, "lindblad")
    assert float(np.abs(rho_r.coherences).max()) < 1e-10
    assert all(agree(p, q)
               for p, q in zip(rho_r.populations, rho_l.populations))


def test_criterion_07_asymptotic_current_formulas():
    worst = 0.0
    # single qubit, temperatures far above / far below the splitting
    for regime, ta, tb in (("high", 60.0, 51.0), ("low", 0.1, 0.08)):
        exact = single_qubit_closed(1.0, 1.0, 2.0, ta, tb).q_a
        approx = limit_currents("single", regime, omega0=1.0, g_a=1.0,
                                g_b=2.0, t_a=ta, t_b=tb)["q_a"]
        worst = max(worst, abs(approx - exact) / abs(exact))
    # coupled pair, branch by branch
    for regime, ta, tb in (("high", 130.0, 115.0), ("low", 0.079, 0.07)):
        exact = coupled_lindblad_closed(1.0, 2.0, 0.5, 1.0, 1.0, ta, tb)
        approx = limit_currents("coupled", regime, omega1=1.0, omega2=2.0,
                                lam=0.5, g_a=1.0, g_b=1.0, t_a=ta, t_b=tb)
        for branch in ("q_a_plus", "q_a_minus", "q_b_plus", "q_b_minus"):
            ex = getattr(exact, branch)
            worst = max(worst, abs(approx[branch] - ex) / abs(ex))
    print(f"criterion 7: worst asymptotic mismatch {100 * worst:.2f} %")
    assert worst < 0.02


def test_criterion_08_decoupled_and_quenched_limits():
    # lam = 0: each qubit equilibrates with its own reservoir and the
    # steady state is the product of the two single-qubit states
    system, _ = make_coupled_qubits(1.0, 2.0, 0.0)
    rho, q, _, _ = run_pipeline(system, {"A": 1.2, "B": 0.8},
                                {"A": 2.0, "B": 0.7}, "lindblad")
    n1 = planck_occupation(1.0, 2.0)
    n2 = planck_occupation(2.0, 0.7)
    p1 = n1 / (1.0 + 2.0 * n1)
    p2 = n2 / (1.0 + 2.0 * n2)
    expected = np.kron(np.diag([1.0 - p2, p2]), np.diag([1.0 - p1, p1]))
    mismatch = float(np.abs(rho.entries - expected).max())
    print(f"criterion 8: product-state mismatch {mismatch:.3e}, "
          f"currents {q['A']:.3e} / {q['B']:.3e}")
    assert mismatch < 1e-10
    assert abs(q["A"]) < 1e-12 and abs(q["B"]) < 1e-12
    # quenched reservoir: detailed balance with the remaining bath alone
    rho1, _, _, _ = run_pipeline(make_single_qubit(1.0),
                                 {"A": 1.3, "B": 0.0}, {"A": 2.0, "B": 0.3},
                                 "lindblad")
    ratio = rho1.populations[1] / rho1.populations[0]
    assert agree(ratio, math.exp(-1.0 / 2.0))


def test_criterion_09a_kernel_trace_condition():
    single = make_single_qubit(1.0)
    coupled, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    residuals = {}
    for name, system in (("single", single), ("coupled", coupled)):
        for mode in ("lindblad", "redfield"):
            parts = []
            for r, t in (("A", 2.0), ("B", 1.0)):
                bath = BathSpec(temperature=t, spectral_density=1.0, label=r)
                parts.append(build_kernel(system, bath, r, mode))
                residuals[f"{name} {mode} {r}"] = \
                    check_trace_condition(parts[-1])
            residuals[f"{name} {mode} total"] = \
                check_trace_condition(combine_kernels(parts))
    for key in sorted(residuals):
        print(f"criterion 9a: trace residual {residuals[key]:.3e}  ({key})")
    worst = max(residuals.values())
    assert worst < 1e-12, \
        f"worst kernel trace residual {worst:.3e} (per-reservoir " \
        f"non-secular kernels exchange weight with the coherence sector)"


def test_criterion_09b_lindblad_steady_states_positive():
    worst = 0.0
    for pt in single_draws()[0] + coupled_lindblad_draws()[0]:
        worst = min(worst, positivity_report(pt["rho"]).min_eigenvalue)
    # the parameter point whose non-secular solve goes negative
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    rho, _, _, _ = run_pipeline(system, {"A": 1.0, "B": 1.0},
                                {"A": 10.5, "B": 0.5}, "lindblad")
    worst = min(worst, positivity_report(rho).min_eigenvalue)
    print(f"criterion 9b: smallest steady-state eigenvalue {worst:.3e}")
    assert worst >= -1e-10


SPOT_POINTS = (
    ("single", "lindblad", dict(w0=1.0, ga=1.0, gb=1.0, ta=2.0, tb=1.0)),
    ("single", "lindblad", dict(w0=0.5, ga=1.5, gb=0.7, ta=0.5, tb=1.5)),
    ("single", "lindblad", dict(w0=3.0, ga=0.6, gb=0.9, ta=3.0, tb=0.4)),
    ("single", "lindblad", dict(w0=2.0, ga=2.0, gb=0.5, ta=1.0, tb=1.0)),
    ("coupled", "lindblad", dict(w1=1.0, w2=2.0, lam=0.5, g=1.0,
                                 ta=2.0, tb=1.0)),
    ("coupled", "lindblad", dict(w1=1.0, w2=2.0, lam=0.9, g=1.5,
                                 ta=1.5, tb=0.5)),
    ("coupled", "lindblad", dict(w1=0.8, w2=2.5, lam=0.6, g=1.0,
                                 ta=3.0, tb=2.0)),
    ("coupled", "lindblad", dict(w1=1.0, w2=3.0, lam=1.0, g=0.8,
                                 ta=1.0, tb=1.0)),
    ("coupled", "redfield", dict(w1=1.0, w2=2.0, lam=0.5, g=1.0,
                                 ta=2.0, tb=1.5)),
    ("coupled", "redfield", dict(w1=1.0, w2=2.0, lam=0.5, g=1.2,
                                 ta=1.2, tb=0.9)),
)


def test_criterion_10_integrator_agrees_with_nullspace():
    worst = 0.0
    for model, mode, p in SPOT_POINTS:
        if model == "single":
            system = make_single_qubit(p["w0"])
            g_of = {"A": p["ga"], "B": p["gb"]}
        else:
            system, _ = make_coupled_qubits(p["w1"], p["w2"], p["lam"])
            g_of = {"A": p["g"], "B": p["g"]}
        rho_ss, _, _, liou = run_pipeline(system, g_of,
                                          {"A": p["ta"], "B": p["tb"]}, mode)
        rho0 = DensityMatrix(dim=system.dim,
                             entries=np.eye(system.dim) / system.dim)
        rho_t = evolve(liou, rho0, 80.0, dt=0.005)
        worst = max(worst, float(np.abs(rho_t.entries - rho_ss.entries).max()))
    print(f"criterion 10: worst propagated-vs-nullspace gap {worst:.3e}")
    assert worst < 1e-6


def test_criterion_11a_presets_regenerate_byte_identically(tmp_path):
    for name in ("fig3", "fig4", "fig5"):
        first = tmp_path / f"{name}_first.csv"
        second = tmp_path / f"{name}_second.csv"
        assert cli_main(["preset", name, "--out", str(first)]) == 0
        assert cli_main(["preset", name, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name


def test_criterion_11b_equilibrium_sweep_endpoints(tmp_path):
    out = tmp_path / "fig3.csv"
    assert cli_main(["preset", "fig3", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    header, first = rows[0], rows[1]
    assert float(first[0]) == 0.05
    assert float(first[header.index("pop_1")]) > 0.99
    # flatness: at equal temperatures the steady state is the Gibbs state,
    # so max |rho_nn - 1/4| is the Boltzmann deviation, which falls off
    # as E_max / (4 T) (0.0238 at T = 16; 0.02 only near T = 19)
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    devs, pops = {}, {}
    for t in (8.0, 16.0):
        rho, _, _, _ = run_pipeline(system, {"A": 1.0, "B": 1.0},
                                    {"A": t, "B": t}, "lindblad")
        pops[t] = rho.populations
        devs[t] = max(abs(p - 0.25) for p in rho.populations)
        weights = [math.exp(-e / t) for e in system.levels]
        boltzmann = max(abs(w / sum(weights) - 0.25) for w in weights)
        print(f"criterion 11b: max |rho_nn - 1/4| = {devs[t]:.4f} at T = {t}"
              f"  (Boltzmann {boltzmann:.4f}, T*dev = {t * devs[t]:.4f})")
        assert agree(devs[t], boltzmann), \
            f"populations {devs[t]:.12g} from 1/4 at T = {t}, " \
            f"Boltzmann {boltzmann:.12g}"
    assert devs[16.0] < devs[8.0]
    # the sweep's high-temperature endpoint is the T = 8 pipeline point
    last = rows[-1]
    assert float(last[0]) == 8.0
    for n, p in enumerate(pops[8.0], start=1):
        assert last[header.index(f"pop_{n}")] == f"{p:.12g}", n


def test_criterion_11c_currents_cross_zero_at_equal_temperatures(tmp_path):
    out = tmp_path / "fig4.csv"
    assert cli_main(["preset", "fig4", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    header = rows[0]
    ta = [float(r[0]) for r in rows[1:]]
    qa = [float(r[header.index("q_A")]) for r in rows[1:]]
    at_crossing = qa[ta.index(1.0)]
    print(f"criterion 11c: q_A = {at_crossing:.3e} at T_A = T_B = 1")
    assert abs(at_crossing) < 1e-12
    assert qa[0] < 0 < qa[-1]
