import pytest

from qheat import (BathColumns, BathSpec, make_coupled_qubits, make_single_qubit,
                   steady, steady_point)


def columns(baths):
    """BathSpecs as the BathColumns of a stack, the one form in which
    build_kernel and steady_point take more than one bath."""
    baths = list(baths)
    return BathColumns([b.temperature for b in baths],
                       [b.spectral_density for b in baths])


def _run_pipeline(system, mode, g_of, t_of):
    point = steady_point(system, {r: BathSpec(temperature=t_of[r],
                                              spectral_density=g_of[r], label=r)
                                  for r in system.couplings}, mode)
    return point.rho, point.currents, point.liouvillian


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


@pytest.fixture
def positivity_calls(monkeypatch):
    """The states steady.positivity_report is called on, in call order,
    through a wrapper on the module attribute that returns its value."""
    calls = []
    real = steady.positivity_report

    def counting(rho):
        calls.append(rho)
        return real(rho)

    monkeypatch.setattr(steady, "positivity_report", counting)
    return calls
