"""Stacked solves against one-point solves, on drawn systems and baths.

A sweep writes every row from one steady_point call on a chunk of grid
points, so each entry of a (B, N^2, N^2) stack must be bit-identical to
the point solved alone: the same rho bytes, currents and smallest
population. A stack that raises must raise the message of one of its
points alone, and a one-entry stack, which a sweep uses for a system
parameter and for the points of a chunk that raised, must equal the
one-point call byte for byte or raise its message.

Systems have N = 2..6 levels (see test_kernel_properties); each
reservoir gets 1-4 baths, with zero temperatures and couplings allowed,
so some draws are refused by the solve.
"""

from hypothesis import given
from hypothesis import strategies as st

from conftest import columns
from qheat import BathSpec, steady_point
from test_kernel_properties import PROPERTY_SETTINGS, RESERVOIRS, lindblad_systems

_POINT_ERRORS = (ValueError, LookupError, RuntimeError)

_bath_lists = st.integers(1, 4).flatmap(lambda b: st.tuples(*[
    st.lists(st.builds(BathSpec, temperature=st.floats(0.0, 4.0),
                       spectral_density=st.floats(0.1, 1.5)),
             min_size=b, max_size=b)
    for _ in RESERVOIRS]))


def _solve(system, baths, mode):
    """The steady_point result, or the type and message it raises."""
    try:
        return steady_point(system, baths, mode)
    except _POINT_ERRORS as exc:
        return type(exc), str(exc)


def _equal(stack, j, point):
    """Entry j of a stacked result equals a one-point result, bytes and all."""
    return (stack.rho.entries[j].tobytes() == point.rho.entries.tobytes()
            and all(stack.currents[r][j] == point.currents[r]
                    for r in RESERVOIRS)
            and stack.positivity.min_population[j]
            == point.positivity.min_population)


@PROPERTY_SETTINGS
@given(lindblad_systems(), st.sampled_from(["lindblad", "redfield"]),
       _bath_lists)
def test_stack_entries_equal_one_point_solves(system, mode, bath_lists):
    n_points = len(bath_lists[0])
    points = [dict(zip(RESERVOIRS, baths)) for baths in zip(*bath_lists)]
    alone = [_solve(system, p, mode) for p in points]
    single = [_solve(system, {r: columns([b]) for r, b in p.items()}, mode)
              for p in points]
    for point, entry in zip(alone, single):
        if isinstance(point, tuple):
            assert entry == point
        else:
            assert not isinstance(entry, tuple) and _equal(entry, 0, point)
    stack = _solve(system, dict(zip(RESERVOIRS, map(columns, bath_lists))), mode)
    if isinstance(stack, tuple):
        assert stack in alone
    else:
        assert stack.rho.entries.shape[0] == n_points
        assert all(not isinstance(p, tuple) and _equal(stack, j, p)
                   for j, p in enumerate(alone))
