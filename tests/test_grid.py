import numpy as np
import pytest

from pmetraj import Grid, d_centered_to_nodes, d_forward, d_wide


def test_grid_nodes_and_spacing():
    g = Grid(0.0, 1.0, 4)
    assert g.h == 0.25
    np.testing.assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(g.cell_centers(), [0.125, 0.375, 0.625, 0.875])
    assert g.nodes()[-1] == 1.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 4)


def test_d_forward_identity():
    g = Grid(0.0, 1.0, 7)
    np.testing.assert_allclose(d_forward(g.nodes(), g), np.ones(7), rtol=0, atol=1e-14)


def test_d_forward_quadratic_samples():
    g = Grid(0.0, 1.0, 2)
    np.testing.assert_allclose(d_forward(np.array([0.0, 0.25, 1.0]), g), [0.5, 1.5])


def test_d_forward_constant():
    g = Grid(0.0, 1.0, 5)
    np.testing.assert_array_equal(d_forward(np.full(6, 3.7), g), np.zeros(5))


def test_d_forward_length_mismatch():
    g = Grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        d_forward(np.zeros(5), g)


def test_d_centered_constant_and_ends():
    g = Grid(0.0, 1.0, 6)
    out = d_centered_to_nodes(np.full(6, 2.0), g)
    assert out[0] == 0.0 and out[-1] == 0.0
    np.testing.assert_array_equal(out[1:-1], np.zeros(5))


def test_d_centered_direct_values():
    g = Grid(0.0, 1.0, 3)
    out = d_centered_to_nodes(np.array([1.0, 2.0, 4.0]), g)
    np.testing.assert_allclose(out, [0.0, 3.0, 6.0, 0.0])


def test_d_centered_second_derivative_of_quadratic(rng):
    # chained operators reproduce the analytic second derivative exactly
    for _ in range(5):
        a, b, c = rng.uniform(-2, 2, 3)
        M = int(rng.integers(4, 40))
        g = Grid(0.0, 1.0, M)
        X = g.nodes()
        second = d_centered_to_nodes(d_forward(a * X**2 + b * X + c, g), g)
        np.testing.assert_allclose(second[1:-1], np.full(M - 1, 2 * a),
                                   rtol=1e-10, atol=1e-10)


def test_d_wide_linear_exact_everywhere():
    g = Grid(0.0, 1.0, 9)
    np.testing.assert_allclose(d_wide(g.nodes(), g), np.ones(10), atol=1e-13)
    np.testing.assert_allclose(d_wide(np.full(10, 4.2), g), np.zeros(10), atol=1e-13)


def test_d_wide_one_sided_exact_on_quadratic():
    g = Grid(0.0, 1.0, 2)
    np.testing.assert_allclose(d_wide(np.array([0.0, 0.25, 1.0]), g), [0.0, 1.0, 2.0])


def test_d_wide_quadratic_exact_all_nodes(rng):
    for _ in range(5):
        a, b, c = rng.uniform(-3, 3, 3)
        M = int(rng.integers(2, 50))
        g = Grid(0.0, 1.0, M)
        X = g.nodes()
        np.testing.assert_allclose(d_wide(a * X**2 + b * X + c, g), 2 * a * X + b,
                                   rtol=1e-9, atol=1e-10)


def test_differences_of_a_stack_equal_those_of_its_rows(rng):
    g = Grid(0.0, 1.0, 6)
    stack = rng.standard_normal((2, 3, 7))
    for op in (d_forward, d_wide):
        out = op(stack, g)
        for index in np.ndindex(2, 3):
            np.testing.assert_array_equal(out[index], op(stack[index], g))
    with pytest.raises(ValueError):
        d_wide(stack[..., :-1], g)


def test_d_wide_needs_two_cells():
    g = Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        d_wide(np.array([0.0, 1.0]), g)


def test_summation_by_parts(rng):
    for _ in range(40):
        M = int(rng.integers(3, 200))
        g = Grid(0.0, 1.0, M)
        u = rng.standard_normal(M + 1)
        u[0] = u[-1] = 0.0
        c = rng.uniform(0.2, 3.0, M)
        du = d_forward(u, g)
        lhs = g.h * np.sum(d_centered_to_nodes(c * du, g)[1:-1] * u[1:-1])
        rhs = -g.h * np.sum(c * du * du)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_wide_norm_below_forward_norm(rng):
    # centered values are midpoint averages of adjacent cell slopes, so the
    # interior-node norm is dominated by the cell norm; the one-sided end
    # stencils are excluded (they can amplify: e.g. a single-node spike).
    for _ in range(100):
        M = int(rng.integers(3, 150))
        g = Grid(0.0, 1.0, M)
        f = rng.standard_normal(M + 1)
        f[0] = f[-1] = 0.0
        wide = np.sqrt(g.h * np.sum(d_wide(f, g)[1:-1] ** 2))
        forward = np.sqrt(g.h * np.sum(d_forward(f, g) ** 2))
        assert wide <= forward * (1 + 1e-12)
