"""Properties every kernel must have, on drawn systems: lindblad kernels
preserve trace and keep the Gibbs state stationary, and kernels of
either mode preserve Hermiticity.

Systems have N = 2..6 levels, gaps in [0.5, 1.5] and complex raising
couplings per reservoir; draws that build_kernel refuses as near
degenerate are rejected, not counted.
"""

import numpy as np
from hypothesis import given, reject, settings, target
from hypothesis import strategies as st

from conftest import columns
from qheat import BathSpec, SystemSpec
from qheat.kernel import (NearDegeneracyError, build_kernel,
                          check_trace_condition, combine_kernels)
from qheat.steady import assemble_liouvillian, gibbs_state

RESERVOIRS = ("A", "B")
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None)

_parts = st.floats(-1.0, 1.0)


@st.composite
def lindblad_systems(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    gaps = draw(st.lists(st.floats(0.5, 1.5), min_size=n - 1, max_size=n - 1))
    couplings = {}
    for r in RESERVOIRS:
        s1 = np.zeros((n, n), dtype=complex)
        for p in range(1, n):
            for q in range(p):
                s1[p, q] = complex(draw(_parts), draw(_parts)) / np.sqrt(n)
        couplings[r] = s1
    return SystemSpec(levels=tuple(np.cumsum([0.0, *gaps])), couplings=couplings)


_baths = st.builds(BathSpec, temperature=st.floats(0.0, 4.0),
                   spectral_density=st.floats(0.0, 1.5))


def _kernels(system, baths):
    try:
        return [build_kernel(system, bath, r, "lindblad")
                for r, bath in zip(RESERVOIRS, baths)]
    except NearDegeneracyError:
        reject()


@PROPERTY_SETTINGS
@given(lindblad_systems(), st.tuples(_baths, _baths))
def test_every_lindblad_kernel_preserves_trace(system, baths):
    for kernel in _kernels(system, baths):
        assert check_trace_condition(kernel) <= 1e-12


@PROPERTY_SETTINGS
@given(lindblad_systems(), st.floats(0.2, 4.0), st.floats(0.0, 1.5),
       st.floats(0.0, 1.5))
def test_gibbs_state_is_stationary_at_equal_temperatures(system, t, g_a, g_b):
    baths = [BathSpec(temperature=t, spectral_density=g) for g in (g_a, g_b)]
    m = assemble_liouvillian(system, combine_kernels(_kernels(system, baths))).matrix
    rho = gibbs_state(system.levels, t).entries.reshape(-1)
    assert np.max(np.abs(m @ rho)) <= 1e-10


@PROPERTY_SETTINGS
@given(lindblad_systems(), st.sampled_from(["lindblad", "redfield"]),
       st.one_of(_baths, st.lists(_baths, min_size=3, max_size=3).map(columns)),
       st.data())
def test_every_kernel_preserves_hermiticity(system, mode, bath, data):
    """K applied to a Hermitian rho is Hermitian, for one bath and for
    each entry of a 3-bath stack, to 1e-12 max(1, ||K||_inf); the
    largest ratio of defect to that bound is the hypothesis target."""
    n = system.dim
    parts = data.draw(st.lists(_parts, min_size=2 * n * n, max_size=2 * n * n))
    a = np.reshape(parts[::2], (n, n)) + 1j * np.reshape(parts[1::2], (n, n))
    rho = (a + a.conj().T).reshape(-1)
    worst = 0.0
    for r in RESERVOIRS:
        try:
            kernel = build_kernel(system, bath, r, mode)
        except NearDegeneracyError:
            reject()
        for k in kernel.data.reshape(-1, n * n, n * n):
            out = (k @ rho).reshape(n, n)
            bound = 1e-12 * max(1.0, np.abs(k).sum(axis=1).max())
            worst = max(worst, np.abs(out - out.conj().T).max() / bound)
    target(worst, label="Hermiticity defect / bound")
    assert worst <= 1.0
