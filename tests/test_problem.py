import math

import numpy as np
import pytest

from pmetraj import (ConfigurationError, DataScaleError, DegenerateMeshError,
                     Grid, d_wide,
                     discrete_energy, discrete_mass, initial_data_from_key,
                     is_admissible, make_problem, quadratic_bump,
                     recover_density)
from pmetraj.problem import SCALE_LIMIT, min_cell_slope


def test_initial_data_catalog():
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(initial_data_from_key("paper-quadratic")(x),
                               0.5 - (x - 0.5) ** 2)
    np.testing.assert_allclose(initial_data_from_key("constant:0.75")(x), 0.75)
    np.testing.assert_allclose(initial_data_from_key("poly:0.5,0.25,-0.125")(x),
                               0.5 + 0.25 * x - 0.125 * x ** 2)
    # the numbers take the config's grammar (config.parse_number)
    np.testing.assert_array_equal(initial_data_from_key("poly:1/2,0,1")(x), 0.5 + x * x)
    np.testing.assert_array_equal(initial_data_from_key("constant:3/4")(x), 0.75)


@pytest.mark.parametrize("key", ["gaussian", "constant:abc", "poly:1,q", "poly:", "poly:,",
                                 "constant:inf", "constant:nan", "constant:-inf",
                                 "poly:1,0,inf", "poly:nan,1"])
def test_initial_data_bad_keys(key):
    # a non-finite number is refused as bad initial data before any
    # sampling, not as a data scale of the domain
    with pytest.raises(ConfigurationError) as err:
        initial_data_from_key(key)
    assert err.value.key == "initial_data" and not isinstance(err.value, DataScaleError)


def test_make_problem_rejects_nonpositive_data():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(ConfigurationError):
        make_problem(2.0, g, initial_data_from_key("constant:0"))
    with pytest.raises(ConfigurationError):
        make_problem(2.0, g, initial_data_from_key("poly:0.1,-1"))
    with pytest.raises(ConfigurationError):
        make_problem(1.0, g, quadratic_bump)


def test_make_problem_with_a_column_of_exponents_names_the_first_bad_one():
    g = Grid(0.0, 1.0, 16)
    stack = make_problem(np.array([[1.5], [2.0]]), g, quadratic_bump)
    assert stack.m.shape == (2, 1) and stack.mass_factor.shape == (2, 17)
    with pytest.raises(ConfigurationError, match="got 0.5"):
        make_problem(np.array([[2.0], [0.5], [1.0]]), g, quadratic_bump)


def test_make_problem_rejects_one_cell_grid():
    # a Grid of one cell is valid, but S_h's wide difference needs two cells
    with pytest.raises(ConfigurationError, match="M = 1"):
        make_problem(2.0, Grid(0.0, 1.0, 1), quadratic_bump)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("left, right", [(0.0, 1e-300), (0.0, 1e-153), (-1e300, 1e300)])
def test_make_problem_rejects_mesh_width_out_of_range(left, right):
    # h^2 underflows, 1/h^2 overflows, or h^2 overflows: the Hessian
    # assembly would divide by zero or produce inf
    with pytest.raises(ConfigurationError, match="mesh width"):
        make_problem(2.0, Grid(left, right, 100), initial_data_from_key("constant:1"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("right, key, match", [
    (1e-152, "constant:1", r"max f0/h\^2 = 1/1e-308"),
    (1e150, "poly:1e-3,0,1", r"domain length times max f0 = 1e\+150 \* 1e\+300"),
    (1e110, "poly:1,0,0,1", r"max f0/h\^2 = inf"),
], ids=["f0/h^2", "length*f0", "f0-overflows"])
def test_make_problem_rejects_data_scale_beyond_limit(right, key, match):
    # each passes the mesh width check; it used to leak an overflow warning
    # from the Hessian assembly, the energy or the sampling of f0
    with pytest.raises(DataScaleError, match=match):
        make_problem(2.0, Grid(0.0, right, 100), initial_data_from_key(key))


def test_make_problem_data_scale_limit_is_sharp():
    # f0/h^2 at half SCALE_LIMIT is accepted, at twice it is not
    g = Grid(0.0, 1.0, 100)
    f0 = SCALE_LIMIT * g.h * g.h
    make_problem(2.0, g, initial_data_from_key(f"constant:{0.5 * f0!r}"))
    with pytest.raises(DataScaleError):
        make_problem(2.0, g, initial_data_from_key(f"constant:{2.0 * f0!r}"))


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
    assert type(is_admissible(g.nodes(), g)) is bool
    # a stack applies the same rule along the last axis, row by row
    stack = np.array([g.nodes(), twisted, unpinned, g.nodes()[::-1]])
    rows = is_admissible(stack, g)
    assert type(rows) is np.ndarray and rows.shape == (4,)
    np.testing.assert_array_equal(rows, [is_admissible(x, g) for x in stack])
    # and so does a stack with more leading axes: one bool per row
    cube = np.array([stack, stack[::-1]])
    rows = is_admissible(cube, g)
    assert type(rows) is np.ndarray and rows.shape == (2, 4)
    np.testing.assert_array_equal(rows, [[is_admissible(x, g) for x in s] for s in cube])
    for shape in ((4,), (2, 4), (2, 2, 4), ()):
        with pytest.raises(ValueError):
            is_admissible(np.zeros(shape), g)


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
    # a trajectory that is not increasing is refused by the gate, which names
    # its first crossing cell: here the wall cell
    crossed = np.array([0.0, -0.1, 0.5, 1.0])
    with pytest.raises(DegenerateMeshError, match=r"^trajectory: .* at cell 0 \(nodes 0 and 1\)$"):
        recover_density(crossed, spec)


def test_recover_density_rejects_crossed_interior_nodes():
    # nodes 1 and 2 cross, yet every wide slope is positive: the trajectory
    # passes the gate first, so no density is returned
    g = Grid(0.0, 1.0, 3)
    spec = make_problem(2.0, g, quadratic_bump)
    x = np.array([0.0, 0.5, 0.4, 1.0])
    assert np.all(d_wide(x, g) > 0.0)
    with pytest.raises(DegenerateMeshError, match=r"^trajectory: .* at cell 1 \(nodes 1 and 2\)$"):
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


def test_recover_density_copies_a_given_wide_slope_before_the_wall_fix():
    g = Grid(0.0, 1.0, 4)
    spec = make_problem(2.0, g, quadratic_bump)
    x = np.array([0.0, 0.3, 0.5, 0.999, 1.0])
    wide = d_wide(x, g)
    kept = wide.copy()
    f = recover_density(x, spec, np.diff(x) / g.h, wide)
    np.testing.assert_array_equal(f, recover_density(x, spec))
    np.testing.assert_array_equal(wide, kept)  # the wall fix went to a copy


@pytest.mark.parametrize("x", [[0.0, 0.3, 0.5, 0.999, 1.0], [0.0, 0.2, 0.5, 0.8, 1.0]])
def test_recover_density_into_out_is_the_fresh_density(x):
    # with and without the wall fix: out holds the fresh call's bits, the
    # wall fix's copy of wide goes there too, and the given wide is kept
    g = Grid(0.0, 1.0, 4)
    spec = make_problem(2.0, g, quadratic_bump)
    x = np.array(x)
    wide = d_wide(x, g)
    kept = wide.copy()
    out = np.full(5, np.nan)
    f = recover_density(x, spec, np.diff(x) / g.h, wide, out=out)
    assert f is out
    assert f.tobytes() == recover_density(x, spec).tobytes()
    assert wide.tobytes() == kept.tobytes()


def test_min_cell_slope_names_the_first_bad_cell():
    assert min_cell_slope(np.array([2.0, 0.5, 3.0]), "x") == 0.5
    with pytest.raises(DegenerateMeshError,
                       match=r"^x: nonpositive cell slope at cell 1 \(nodes 1 and 2\)$"):
        min_cell_slope(np.array([1.0, -1.0, 0.0]), "x")
    with pytest.raises(DegenerateMeshError, match="at cell 2 "):
        min_cell_slope(np.array([1.0, 2.0, np.nan]), "x")


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
