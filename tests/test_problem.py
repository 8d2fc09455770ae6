import math

import numpy as np
import pytest

from pmetraj import (ConfigurationError, DegenerateMeshError, Grid, d_wide,
                     discrete_energy, discrete_mass, initial_data_from_key,
                     is_admissible, make_problem, quadratic_bump,
                     recover_density)
from pmetraj.problem import admissible_rows


def test_initial_data_catalog():
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(initial_data_from_key("paper-quadratic")(x),
                               0.5 - (x - 0.5) ** 2)
    np.testing.assert_allclose(initial_data_from_key("constant:0.75")(x), 0.75)
    np.testing.assert_allclose(initial_data_from_key("poly:0.5,0.25,-0.125")(x),
                               0.5 + 0.25 * x - 0.125 * x ** 2)


@pytest.mark.parametrize("key", ["gaussian", "constant:abc", "poly:1,q", "poly:"])
def test_initial_data_bad_keys(key):
    with pytest.raises(ConfigurationError):
        initial_data_from_key(key)


def test_make_problem_rejects_nonpositive_data():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(ConfigurationError):
        make_problem(2.0, g, initial_data_from_key("constant:0"))
    with pytest.raises(ConfigurationError):
        make_problem(2.0, g, initial_data_from_key("poly:0.1,-1"))
    with pytest.raises(ConfigurationError):
        make_problem(1.0, g, quadratic_bump)


def test_make_problem_samples_both_grids():
    g = Grid(0.0, 1.0, 8)
    spec = make_problem(2.0, g, quadratic_bump)
    np.testing.assert_allclose(spec.f0_nodes, quadratic_bump(g.nodes()))
    np.testing.assert_allclose(spec.f0_cells, quadratic_bump(g.cell_centers()))
    assert spec.f0_min == 0.25


def test_is_admissible():
    g = Grid(0.0, 1.0, 4)
    assert is_admissible(g.nodes(), g)
    twisted = g.nodes().copy()
    twisted[2] = twisted[1]
    assert not is_admissible(twisted, g)
    unpinned = g.nodes() + 0.01
    assert not is_admissible(unpinned, g)
    # the stack form applies the same rule row by row
    stack = np.array([g.nodes(), twisted, unpinned, g.nodes()[::-1]])
    np.testing.assert_array_equal(admissible_rows(stack, g),
                                  [is_admissible(x, g) for x in stack])
    with pytest.raises(ValueError):
        admissible_rows(g.nodes(), g)


def test_recover_density_identity_on_reference():
    for key in ("paper-quadratic", "constant:0.6", "poly:0.3,0.1"):
        g = Grid(0.0, 1.0, 12)
        spec = make_problem(1.5, g, initial_data_from_key(key))
        np.testing.assert_allclose(recover_density(g.nodes(), spec),
                                   spec.f0_nodes, rtol=1e-13)


def test_recover_density_names_degenerate_node():
    g = Grid(0.0, 1.0, 3)
    spec = make_problem(2.0, g, quadratic_bump)
    # strictly increasing but with a nonpositive one-sided wide slope at node 0:
    # the wall node falls back to D_h x of its cell
    x = np.array([0.0, 0.001, 0.999, 1.0])
    assert is_admissible(x, g)
    f = recover_density(x, spec)
    assert f[0] == spec.f0_nodes[0] / ((x[1] - x[0]) / g.h)
    assert np.all(f > 0.0)
    # a trajectory that is not increasing still names the node: there the wall
    # cell's slope is nonpositive too
    crossed = np.array([0.0, -0.1, 0.5, 1.0])
    with pytest.raises(DegenerateMeshError, match="node 0"):
        recover_density(crossed, spec)


def test_recover_density_rejects_crossed_interior_nodes():
    # nodes 1 and 2 cross, yet every wide slope is positive: the cell slopes
    # are checked first, so no density is returned
    g = Grid(0.0, 1.0, 3)
    spec = make_problem(2.0, g, quadratic_bump)
    x = np.array([0.0, 0.5, 0.4, 1.0])
    assert np.all(d_wide(x, g) > 0.0)
    with pytest.raises(DegenerateMeshError, match="node 1 and node 2"):
        recover_density(x, spec)


def test_recover_density_wall_fallback_only_where_stencil_fails():
    g = Grid(0.0, 1.0, 4)
    spec = make_problem(2.0, g, quadratic_bump)
    x = np.array([0.0, 0.3, 0.5, 0.999, 1.0])
    slope = d_wide(x, g)
    assert slope[0] > 0.0 and slope[-1] <= 0.0
    f = recover_density(x, spec)
    assert f[0] == spec.f0_nodes[0] / slope[0]  # the stencil, kept
    np.testing.assert_array_equal(f[1:-1], spec.f0_nodes[1:-1] / slope[1:-1])
    assert f[-1] == spec.f0_nodes[-1] / ((x[-1] - x[-2]) / g.h)


def test_discrete_energy_reference_zero():
    g = Grid(0.0, 1.0, 10)
    spec = make_problem(2.0, g, quadratic_bump)
    assert abs(discrete_energy(g.nodes(), spec)) < 1e-14


def test_discrete_energy_direct_value():
    # f0 = 1, M = 2, x = (0, 0.4, 1): -0.5 (ln 0.8 + ln 1.2)
    g = Grid(0.0, 1.0, 2)
    spec = make_problem(2.0, g, initial_data_from_key("constant:1"))
    expected = -0.5 * (math.log(0.8) + math.log(1.2))
    assert discrete_energy(np.array([0.0, 0.4, 1.0]), spec) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.020410997260127572)


def test_discrete_energy_rejects_crossed_nodes():
    g = Grid(0.0, 1.0, 2)
    spec = make_problem(2.0, g, initial_data_from_key("constant:1"))
    with pytest.raises(DegenerateMeshError):
        discrete_energy(np.array([0.0, -0.1, 1.0]), spec)


def test_discrete_mass_constant_unit():
    g = Grid(0.0, 1.0, 8)
    assert discrete_mass(g.nodes(), np.ones(9)) == pytest.approx(1.0, rel=1e-15)


def test_discrete_mass_matches_trapezoid_oracle():
    g = Grid(0.0, 1.0, 50)
    spec = make_problem(2.0, g, quadratic_bump)
    ours = discrete_mass(g.nodes(), spec.f0_nodes)
    oracle = np.trapezoid(spec.f0_nodes, g.nodes())
    assert ours == pytest.approx(oracle, rel=1e-14)
    # continuum value 5/12 approached quadratically
    assert abs(ours - 5.0 / 12.0) < 1e-4


def test_discrete_mass_shape_mismatch():
    with pytest.raises(ValueError):
        discrete_mass(np.zeros(4), np.zeros(5))
