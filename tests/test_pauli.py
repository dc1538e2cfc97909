"""The pipeline against the Pauli rate equation on random N-level systems.

In lindblad mode, with nondegenerate levels and Bohr frequencies, the
secular constraint decouples the populations from the coherences, so
the steady state is diagonal and its populations P are the null vector
of the N x N golden-rule rate matrix W = sum_R W^R (Breuer & Petruccione,
The Theory of Open Quantum Systems, section 3.3). Reservoir R, with a
constant spectral density g_R at temperature T_R, moves the system from
q up to p (S^1_pq != 0, so E_p > E_q) at rate |S^1_pq|^2 g_R n(E_p - E_q)
and back down at |S^1_pq|^2 g_R (1 + n), n the Planck occupation. Its heat
current is q^R = sum_p E_p (W^R P)_p. The oracle below shares nothing with
the pipeline but planck_occupation.
"""

import math

import numpy as np
import pytest

from qheat import BathSpec, SystemSpec, steady_point
from qheat.bath import planck_occupation

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


def _rate_matrix(levels, s1, g, temperature):
    """W^R: W[p, q] the rate from level q to level p, columns summing to 0."""
    n = len(levels)
    w = np.zeros((n, n))
    for p in range(n):
        for q in range(p):
            strength = abs(s1[p, q]) ** 2 * g
            occupation = planck_occupation(levels[p] - levels[q], temperature)
            w[p, q] += strength * occupation            # up, q -> p
            w[q, p] += strength * (1.0 + occupation)    # down, p -> q
    return w - np.diag(w.sum(axis=0))


def pauli_steady_state(levels, couplings, g, t):
    """Populations and per-reservoir heat currents of the Pauli equation."""
    rates = {r: _rate_matrix(levels, couplings[r], g[r], t[r])
             for r in couplings}
    vh = np.linalg.svd(sum(rates.values()))[2]
    pops = vh[-1] / vh[-1].sum()
    return pops, {r: float(levels @ (w @ pops)) for r, w in rates.items()}


@pytest.mark.parametrize("n", range(2, 11))
def test_lindblad_pipeline_matches_pauli_rate_equation(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(7):
        levels, couplings, g, t = _random_system(rng, n)
        point = steady_point(
            SystemSpec(levels=tuple(levels), couplings=couplings),
            {r: BathSpec(temperature=t[r], spectral_density=g[r])
             for r in RESERVOIRS}, "lindblad")
        pops, currents = pauli_steady_state(levels, couplings, g, t)
        assert np.max(np.abs(point.rho.populations - pops)) < TOL
        assert np.max(np.abs(point.rho.coherences)) < TOL
        for r in RESERVOIRS:
            assert abs(point.currents[r] - currents[r]) < TOL
