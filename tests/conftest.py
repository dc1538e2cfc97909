import pytest

from qheat import BathSpec, make_coupled_qubits, make_single_qubit, steady_point


def _run_pipeline(system, mode, g_of, t_of):
    point = steady_point(system, {r: BathSpec(temperature=t_of[r],
                                              spectral_density=g_of[r], label=r)
                                  for r in system.reservoirs}, mode)
    return point.rho, point.currents, point.kernels, point.liouvillian


@pytest.fixture
def single_pipeline():
    """kernel build -> nullspace solve -> currents, for the single qubit."""
    def run(omega0, ga, gb, ta, tb, mode="lindblad"):
        system = make_single_qubit(omega0)
        return _run_pipeline(system, mode, {"A": ga, "B": gb},
                             {"A": ta, "B": tb})
    return run


@pytest.fixture
def coupled_pipeline():
    """Same pipeline for the coupled pair; per-reservoir couplings allowed."""
    def run(omega1, omega2, lam, ga, gb, ta, tb, mode="lindblad"):
        system, _ = make_coupled_qubits(omega1, omega2, lam)
        return _run_pipeline(system, mode, {"A": ga, "B": gb},
                             {"A": ta, "B": tb})
    return run
