import math

import numpy as np
import pytest

from qheat import SystemSpec, make_coupled_qubits, make_single_qubit


def test_single_qubit_structure():
    spec = make_single_qubit(1.0)
    assert spec.levels == (-0.5, 0.5)
    assert spec.dim == 2
    assert tuple(spec.couplings) == ("A", "B")
    s1 = spec.couplings["A"]
    assert s1[1, 0] == 1.0
    assert np.count_nonzero(s1) == 1
    assert spec.levels[1] - spec.levels[0] == 1.0
    with pytest.raises(ValueError):
        make_single_qubit(0.0)
    with pytest.raises(ValueError):
        make_single_qubit(-2.0)


def test_coupled_example_geometry():
    _, diag = make_coupled_qubits(1.0, 2.0, 0.5)
    assert diag.omega_m == 1.5
    assert diag.delta_omega == -0.5
    assert abs(diag.omega_plus - 2.2071067811865475) < 1e-15
    assert abs(diag.omega_minus - 0.7928932188134525) < 1e-15
    assert abs(diag.alpha - 0.3826834323650898) < 1e-15
    assert abs(diag.beta - 0.9238795325112867) < 1e-15
    delta = math.sqrt(0.5)
    expected = (-1.5, -delta, delta, 1.5)
    assert all(abs(e - x) < 1e-15 for e, x in zip(diag.energies, expected))


def test_coupled_coupling_matrices():
    spec, diag = make_coupled_qubits(1.0, 2.0, 0.5)
    a, b = diag.alpha, diag.beta
    s1a = spec.couplings["A"]
    s1b = spec.couplings["B"]
    expected_a = np.zeros((4, 4), dtype=complex)
    expected_a[2, 0] = a
    expected_a[3, 1] = a
    expected_a[3, 2] = b
    expected_a[1, 0] = -b
    expected_b = np.zeros((4, 4), dtype=complex)
    expected_b[1, 0] = a
    expected_b[3, 2] = a
    expected_b[2, 0] = b
    expected_b[3, 1] = -b
    assert np.array_equal(s1a, expected_a)
    assert np.array_equal(s1b, expected_b)


def test_coupled_transition_frequency_groups():
    spec, diag = make_coupled_qubits(1.3, 2.4, 0.7)
    E = spec.levels
    groups = {(2, 0): diag.omega_plus, (3, 1): diag.omega_plus,
              (3, 2): diag.omega_minus, (1, 0): diag.omega_minus}
    for label in ("A", "B"):
        s1 = spec.couplings[label]
        nz = {(int(p), int(q)) for p, q in zip(*np.nonzero(s1))}
        assert nz == set(groups)
        for (p, q), omega in groups.items():
            assert abs((E[p] - E[q]) - omega) < 1e-12


def test_coupled_matches_brute_force_diagonalisation():
    """Product-basis Hamiltonian, diagonalised numerically, must reproduce
    the closed-form levels and coupling matrices (up to eigenvector sign,
    which drops out of the elementwise product of the two couplings)."""
    rng = np.random.default_rng(201)
    sz = np.diag([1.0, -1.0])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    eye = np.eye(2)
    for _ in range(50):
        w1 = rng.uniform(0.2, 5.0)
        w2 = rng.uniform(0.2, 5.0)
        lam = rng.uniform(0.0, 0.9) * math.sqrt(w1 * w2)
        spec, _ = make_coupled_qubits(w1, w2, lam)
        h = (0.5 * w1 * np.kron(sz, eye) + 0.5 * w2 * np.kron(eye, sz)
             + lam * (np.kron(sp, sp.T) + np.kron(sp.T, sp)))
        evals, v = np.linalg.eigh(h)
        assert np.max(np.abs(evals - np.asarray(spec.levels))) < 1e-12
        s1_num = v.T @ np.kron(sp, eye) @ v
        s2_num = v.T @ np.kron(eye, sp) @ v
        s1a = spec.couplings["A"].real
        s1b = spec.couplings["B"].real
        assert np.max(np.abs(np.abs(s1_num) - np.abs(s1a))) < 1e-12
        assert np.max(np.abs(np.abs(s2_num) - np.abs(s1b))) < 1e-12
        # sign-invariant cross products pin the relative sign structure
        assert np.max(np.abs(s1_num * s2_num - s1a * s1b)) < 1e-12


def test_coupled_geometry_invariants():
    rng = np.random.default_rng(202)
    for _ in range(100):
        w1 = rng.uniform(0.2, 5.0)
        w2 = rng.uniform(0.2, 5.0)
        lam = rng.uniform(0.0, 0.9) * math.sqrt(w1 * w2)
        spec, diag = make_coupled_qubits(w1, w2, lam)
        assert abs(diag.alpha ** 2 + diag.beta ** 2 - 1.0) < 1e-12
        assert 0.0 <= diag.theta <= math.pi
        assert diag.omega_minus > 0.0
        assert diag.omega_plus >= diag.omega_m >= diag.omega_minus
        assert all(b >= a for a, b in zip(spec.levels, spec.levels[1:]))
        assert abs(sum(spec.levels)) < 1e-12


def test_coupled_decoupling_limit_both_orderings():
    # lam -> 0 concentrates each eigenstate on one product state
    _, diag = make_coupled_qubits(2.0, 1.0, 0.0)
    assert diag.alpha == 1.0
    assert diag.beta == 0.0
    _, diag = make_coupled_qubits(1.0, 2.0, 0.0)
    assert abs(diag.alpha) < 1e-15
    assert abs(diag.beta - 1.0) < 1e-15


def test_coupled_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        make_coupled_qubits(1.0, 2.0, math.sqrt(2.0))
    with pytest.raises(ValueError):
        make_coupled_qubits(1.0, 2.0, 5.0)
    with pytest.raises(ValueError):
        make_coupled_qubits(1.0, 2.0, -0.1)
    with pytest.raises(ValueError):
        make_coupled_qubits(0.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        make_coupled_qubits(1.0, -2.0, 0.1)


def test_system_spec_validation():
    s1 = np.zeros((2, 2), dtype=complex)
    s1[1, 0] = 1.0
    with pytest.raises(ValueError):
        SystemSpec(levels=(1.0, 0.0), couplings={"A": s1})
    with pytest.raises(ValueError):
        SystemSpec(levels=(0.0,), couplings={})
    with pytest.raises(ValueError):
        SystemSpec(levels=(0.0, 1.0), couplings={"A": np.zeros((3, 3))})
    # a nonzero entry must raise the system energy
    lowering = np.zeros((2, 2), dtype=complex)
    lowering[0, 1] = 1.0
    with pytest.raises(ValueError):
        SystemSpec(levels=(0.0, 1.0), couplings={"A": lowering})


def _first_lowering_entry(levels, couplings):
    """The message the per-entry loop gives for the first nonzero entry
    (p, q), row by row and coupling by coupling, with E_p - E_q <= 0."""
    for label, s1 in couplings.items():
        for p, q in zip(*np.nonzero(s1)):
            if levels[p] - levels[q] <= 0:
                return (f"coupling {label!r} entry ({p},{q}) does not raise "
                        f"energy (E_p - E_q = {levels[p] - levels[q]:g})")
    return None


def test_labels_with_one_string_are_refused():
    """Labels are kept as strings, so 1 and "1" would name one reservoir
    and the later coupling would replace the earlier one."""
    s1 = make_single_qubit(1.0).couplings["A"]
    assert tuple(SystemSpec(levels=(0.0, 1.0),
                            couplings={1: s1, "2": s1}).couplings) == ("1", "2")
    for couplings, first, second in (({1: s1, "1": 2 * s1}, "1", "'1'"),
                                     ({"1": s1, 1: 2 * s1}, "'1'", "1")):
        with pytest.raises(ValueError) as exc:
            SystemSpec(levels=(0.0, 1.0), couplings=couplings)
        assert str(exc.value) == (f"reservoir labels {first} and {second} "
                                  "are the same string '1'")


def test_energy_check_names_the_first_lowering_entry():
    rng = np.random.default_rng(5)
    refused = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        # ties make E_p - E_q = 0 below the diagonal too
        levels = tuple(float(e) for e in np.sort(rng.integers(0, 4, n) * 0.5))
        couplings = {r: np.where(rng.random((n, n)) < 0.7, 0.0,
                                 rng.normal(size=(n, n)) + 0j)
                     for r in ("A", "B")}
        couplings["A"] = np.tril(couplings["A"], -1)
        expected = _first_lowering_entry(levels, couplings)
        if expected is None:
            SystemSpec(levels=levels, couplings=couplings)
            continue
        refused += 1
        with pytest.raises(ValueError) as exc:
            SystemSpec(levels=levels, couplings=couplings)
        assert str(exc.value) == expected
    assert 0 < refused < 200


def test_coupling_matrices_are_immutable():
    spec = make_single_qubit(1.0)
    with pytest.raises(ValueError):
        spec.couplings["A"][0, 0] = 5.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_are_rejected(bad):
    s1 = np.zeros((2, 2), dtype=complex)
    s1[1, 0] = 1.0
    with pytest.raises(ValueError, match=r"levels must be finite, got \(0.0, "):
        SystemSpec(levels=(0.0, bad), couplings={"A": s1})
    s1[1, 0] = bad
    with pytest.raises(ValueError, match=r"coupling 'A' entry \(1,0\) must be finite"):
        SystemSpec(levels=(0.0, 1.0), couplings={"A": s1})
    # both model factories build a SystemSpec, which refuses the input
    with pytest.raises(ValueError, match="levels must be finite"):
        make_single_qubit(abs(bad))
    for args in ((abs(bad), 2.0, 0.5), (1.0, abs(bad), 0.5)):
        with pytest.raises(ValueError, match="levels must be finite"):
            make_coupled_qubits(*args)
