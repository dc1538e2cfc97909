"""The pipeline against the Pauli rate equation on random N-level systems.

In lindblad mode, with nondegenerate levels and Bohr frequencies, the
steady state is diagonal, and its populations and currents are those of
the Pauli rate equation, qheat.models.pauli_steady_state. That oracle
shares nothing with the pipeline but planck_occupation.
"""

import math

import numpy as np
import pytest

from qheat import BathSpec, SystemSpec, steady_point
from qheat.models import pauli_steady_state

RESERVOIRS = ("A", "B")
TOL = 1e-10


def _random_system(rng, n):
    """Level gaps in [0.5, 1.5], dense raising couplings per reservoir,
    couplings and temperatures as the benchmark's scaling workload draws
    them."""
    couplings = {}
    for r in RESERVOIRS:
        s1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        couplings[r] = np.tril(s1, -1) / math.sqrt(n)
    levels = np.cumsum(rng.uniform(0.5, 1.5, n))
    g = {r: rng.uniform(0.5, 1.5) for r in RESERVOIRS}
    t = {"A": rng.uniform(1.0, 3.0), "B": rng.uniform(0.5, 1.5)}
    return levels, couplings, g, t


@pytest.mark.parametrize("n", range(2, 11))
def test_lindblad_pipeline_matches_pauli_rate_equation(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(7):
        levels, couplings, g, t = _random_system(rng, n)
        point = steady_point(
            SystemSpec(levels=tuple(levels), couplings=couplings),
            {r: BathSpec(temperature=t[r], spectral_density=g[r])
             for r in RESERVOIRS}, "lindblad")
        ref = pauli_steady_state(levels, couplings, g, t)
        assert np.max(np.abs(point.rho.populations - ref.populations)) < TOL
        assert np.max(np.abs(point.rho.coherences)) < TOL
        for r in RESERVOIRS:
            assert abs(point.currents[r] - ref.currents[r]) < TOL
