"""Mirror and shift runs (relations.py): the scheme commutes with the
reflection and the translation of its domain, to the rounding of the image's
coordinates.  The mirror case is the one that sees a stencil that is not
symmetric, in the residual or at one end of the wide slopes: the x gap
catches the first, the density gap the second."""
import pytest

from pmetraj import Grid, SolverParams, initial_data_from_key

from relations import mirror, relation_gaps, shift

M, STEPS = 64, 5

#: (initial data, m, tau/h): near vacuum at the left wall (min f0 = 1e-4)
#: with a fast and a slow exponent, moderate data at m = 2, and the
#: paper's bump at m = 5/3
CASES = [("poly:1e-4,0,1", 8.0, 100.0), ("poly:1e-4,0,1", 1.05, 100.0),
         ("poly:1e-2,0,1", 2.0, 1.0), ("paper-quadratic", 5.0 / 3.0, 1.0)]

#: (relation, the x bound in ulps of the image domain's larger endpoint)
RELATIONS = {"mirror": (mirror, 4.0), "shift": (shift(5.0), 16.0)}

#: Relative bound on the density gap, node by node.
DENSITY_REL = 1e-11


@pytest.mark.parametrize("name", RELATIONS)
@pytest.mark.parametrize("key, m, k", CASES, ids=[f"{key}-m{m:g}" for key, m, _ in CASES])
def test_image_runs_land_on_the_image_of_the_run(name, key, m, k):
    relation, x_ulps = RELATIONS[name]
    grid = Grid(0.0, 1.0, M)
    params = SolverParams(tau=k * grid.h)
    gaps = relation_gaps(relation, m, grid, initial_data_from_key(key), params,
                         STEPS * params.tau)
    assert gaps.x_ulps <= x_ulps
    assert gaps.density_rel <= DENSITY_REL
    assert gaps.same_newton
