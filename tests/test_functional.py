import math
from fractions import Fraction

import numpy as np
import pytest

from pmetraj import _kernels
from pmetraj import (CoefficientOverflowError, DegenerateMeshError, Grid, SolverParams,
                     d_centered_to_nodes, d_forward, d_wide, discrete_energy,
                     initial_data_from_key, is_admissible, make_problem, quadratic_bump,
                     recover_density, restart)
from pmetraj.functional import (SchemeCoefficients, build_coefficients, compute_s_h, eval_F,
                                g_convex_integral, hessian_coefficients, mass_coefficient,
                                q1_oracle, residual, secant_ratio_R, slope_derivative_W)
from pmetraj.newton import LAMBDA_STAR
from pmetraj.checks import FD_REL_TOL, gradient_vs_fd, hessian_vs_fd, random_admissible
from pmetraj._kernels import _LI2_SERIES
from pmetraj.functional import _spence, g_convex_second


# ---------------------------------------------------------------------------
# SolverParams
# ---------------------------------------------------------------------------

def test_params_validation():
    SolverParams(tau=0.1)
    SolverParams(tau=1e150)  # tau^2 = 1e300 is still finite
    with pytest.raises(ValueError):
        SolverParams(tau=0.0)
    with pytest.raises(ValueError):
        SolverParams(tau=0.1, a0=-1.0)
    for bad in ({"tau": math.inf}, {"tau": math.nan}, {"tau": 0.1, "a0": math.nan},
                {"tau": 0.1, "a0": math.inf}, {"tau": 1e300}):  # tau^2 = inf
        with pytest.raises(ValueError):
            SolverParams(**bad)
    assert LAMBDA_STAR == pytest.approx(2.0 - math.sqrt(3.0), abs=0)


# ---------------------------------------------------------------------------
# S_h and the mass coefficient
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
def test_mass_coefficient_overflow_names_m():
    g = Grid(0.0, 1.0, 8)
    spec = make_problem(1e6, g, quadratic_bump)  # f0 <= 1/2, so f0^(2-m) = inf
    with pytest.raises(CoefficientOverflowError, match="m = 1e\\+06"):
        mass_coefficient(np.ones(9), spec, 0.01)


def test_mass_coefficient_of_a_stack_equals_its_rows_and_names_the_first_bad_row():
    g = Grid(0.0, 1.0, 8)
    m = np.array([[1.5], [2.0], [3.7]])
    stack = make_problem(m, g, quadratic_bump)
    rng = np.random.default_rng(4)
    s_h = rng.uniform(0.5, 2.0, (3, 9))
    tau = np.array([[0.01], [0.02], [0.03]])
    mass = mass_coefficient(compute_s_h(s_h, s_h[::-1], tau), stack, tau)
    for i in range(3):
        spec = make_problem(float(m[i, 0]), g, quadratic_bump)
        np.testing.assert_array_equal(spec.mass_factor, stack.mass_factor[i])
        np.testing.assert_array_equal(
            mass[i], mass_coefficient(compute_s_h(s_h[i], s_h[2 - i], float(tau[i, 0])),
                                      spec, float(tau[i, 0])))
    for bad, match in [(np.array([[2.0], [1e6], [1e7]]), "at m = 1e\\+06"),
                       (np.array([[2.0], [8.0], [1e7]]), "at m = 1e\\+07")]:
        with pytest.raises(CoefficientOverflowError, match=match):
            mass_coefficient(np.ones((3, 9)), make_problem(bad, g, quadratic_bump), tau)
    tiny = np.array([[0.01], [1e-310], [1e-320]])
    with pytest.raises(CoefficientOverflowError, match="at tau = 1e-310"):
        mass_coefficient(np.ones((3, 9)), stack, tiny)


def test_s_h_reference_state():
    g = Grid(0.0, 1.0, 8)
    p = SolverParams(tau=0.01)
    unit = d_wide(g.nodes(), g)
    np.testing.assert_allclose(compute_s_h(unit, unit, p.tau), np.ones(9))


def test_s_h_guard_active_everywhere():
    g = Grid(0.0, 1.0, 8)
    p = SolverParams(tau=2.0)  # tau^2 = 4 dominates any unit slope
    unit = d_wide(g.nodes(), g)
    np.testing.assert_allclose(compute_s_h(unit, unit, p.tau), np.full(9, 4.0))


def test_s_h_guard_pointwise():
    # steep x_prev drives the extrapolated slope below tau^2 at one node
    g = Grid(0.0, 1.0, 10)
    p = SolverParams(tau=0.3)
    x_prev = np.array([0.0, 0.1, 0.2, 0.3, 0.35, 0.65, 0.95, 0.96, 0.97, 0.99, 1.0])
    assert np.all(np.diff(x_prev) > 0)
    s = compute_s_h(d_wide(g.nodes(), g), d_wide(x_prev, g), p.tau)
    extrapolated = d_wide(1.5 * g.nodes() - 0.5 * x_prev, g)
    assert extrapolated[5] < p.tau ** 2
    assert s[5] == p.tau ** 2
    assert np.all(s >= p.tau ** 2)


def test_s_h_first_step_collapses_extrapolation():
    g = Grid(0.0, 1.0, 6)
    p = SolverParams(tau=0.01)
    x0 = np.array([0.0, 0.1, 0.3, 0.55, 0.7, 0.9, 1.0])
    np.testing.assert_allclose(compute_s_h(d_wide(x0, g), d_wide(x0, g), p.tau),
                               np.maximum(d_wide(x0, g), p.tau ** 2))


def test_mass_coefficient_values():
    g = Grid(0.0, 1.0, 4)
    spec_unit = make_problem(2.0, g, initial_data_from_key("constant:1"))
    np.testing.assert_allclose(mass_coefficient(np.ones(5), spec_unit, 0.01), np.full(5, 0.5))
    # m = 2 cancels f0 entirely
    spec_any = make_problem(2.0, g, initial_data_from_key("constant:0.41"))
    np.testing.assert_allclose(mass_coefficient(np.ones(5), spec_any, 0.01), np.full(5, 0.5))
    spec_53 = make_problem(5.0 / 3.0, g, initial_data_from_key("constant:0.5"))
    np.testing.assert_allclose(mass_coefficient(np.ones(5), spec_53, 0.01),
                               np.full(5, 0.5 ** (1.0 / 3.0) * 0.6))
    with pytest.raises(ValueError):
        mass_coefficient(np.zeros(5), spec_unit, 0.01)


# ---------------------------------------------------------------------------
# Secant ratio R and its derivative W
# ---------------------------------------------------------------------------

def test_mass_coefficient_guard_lower_bound():
    # with the guard active, S_h >= tau^2 keeps the coefficient above
    # f0^(2-m) tau^(2(m-1)) / m
    g = Grid(0.0, 1.0, 8)
    p = SolverParams(tau=0.4)
    spec = make_problem(1.7, g, quadratic_bump)
    s = compute_s_h(d_wide(g.nodes(), g), d_wide(g.nodes(), g), p.tau)
    mass = mass_coefficient(s, spec, p.tau)
    bound = spec.f0_nodes ** (2.0 - spec.m) * p.tau ** (2.0 * (spec.m - 1.0)) / spec.m
    assert np.all(mass >= bound * (1 - 1e-14))
    assert np.all(mass > 0)


def test_secant_ratio_values():
    assert secant_ratio_R(0.5, 0.5) == pytest.approx(2.0, abs=0)
    assert secant_ratio_R(2.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    with pytest.raises(DegenerateMeshError):
        secant_ratio_R(-1.0, 1.0)


def test_secant_ratio_near_equal_oracle():
    # midpoint branch value vs the 50-digit secant: 1.999999999999...
    r = secant_ratio_R(0.5 * (1 + 1e-12), 0.5)
    assert abs(r - 1.0 / 0.5) < 1e-9
    assert r == pytest.approx(1.999999999999, rel=1e-12)


def test_secant_ratio_matches_high_precision(rng):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for _ in range(50):
            y0 = float(rng.uniform(0.05, 5.0))
            y = y0 * (1.0 + float(rng.uniform(-0.5, 2.0)))
            if y <= 0.0 or y == y0:
                continue
            exact = float((mp.log(y) - mp.log(y0)) / (mp.mpf(y) - mp.mpf(y0)))
            assert secant_ratio_R(y, y0) == pytest.approx(exact, rel=1e-13)


def test_slope_derivative_values():
    assert slope_derivative_W(1.0, 1.0) == pytest.approx(-0.5, abs=0)
    assert slope_derivative_W(2.0, 1.0) == pytest.approx(0.5 + math.log(0.5), rel=1e-14)
    with pytest.raises(DegenerateMeshError):
        slope_derivative_W(1.0, 0.0)


def test_slope_derivative_nonpositive_and_matches_q1(rng):
    for _ in range(1000):
        y = float(rng.uniform(1e-3, 10.0))
        y0 = float(rng.uniform(1e-3, 10.0))
        w = slope_derivative_W(y, y0)
        assert w <= 0.0
        _, d1, _ = q1_oracle(y, y0)
        assert w == pytest.approx(-d1, rel=1e-9, abs=1e-14)
        r = secant_ratio_R(y, y0)
        val, _, _ = q1_oracle(y, y0)
        assert r == pytest.approx(-val, rel=1e-12)


def test_vectorized_r_w(rng):
    y = rng.uniform(0.2, 3.0, 64)
    y0 = rng.uniform(0.2, 3.0, 64)
    r = secant_ratio_R(y, y0)
    w = slope_derivative_W(y, y0)
    for i in range(64):
        assert r[i] == pytest.approx(secant_ratio_R(float(y[i]), float(y0[i])), rel=1e-15)
        assert w[i] == pytest.approx(slope_derivative_W(float(y[i]), float(y0[i])), rel=1e-15)


# ---------------------------------------------------------------------------
# Residual and Hessian
# ---------------------------------------------------------------------------

def _setup(rng, M=24, m=2.0, a0=1.0, damped_start=False):
    g = Grid(0.0, 1.0, M)
    spec = make_problem(m, g, quadratic_bump)
    params = SolverParams(tau=g.h, a0=a0)
    x_curr = random_admissible(rng, g)
    coeffs = build_coefficients(d_forward(x_curr, g), d_wide(x_curr, g),
                                d_wide(random_admissible(rng, g), g), spec, params,
                                damped_start=damped_start)
    return g, spec, params, x_curr, coeffs


def test_residual_zero_for_stationary_constant():
    g = Grid(0.0, 1.0, 16)
    spec = make_problem(2.0, g, initial_data_from_key("constant:0.8"))
    params = SolverParams(tau=g.h)
    X = g.nodes()
    coeffs = build_coefficients(d_forward(X, g), d_wide(X, g), d_wide(X, g), spec, params)
    np.testing.assert_array_equal(residual(X, X, coeffs, spec), np.zeros(17))


def test_residual_equal_states_leaves_only_secant_term(rng):
    g, spec, params, x_curr, coeffs = _setup(rng)
    got = residual(x_curr, x_curr, coeffs, spec)
    expected = d_centered_to_nodes(spec.f0_cells / d_forward(x_curr, g), g)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_residual_rejects_inadmissible(rng):
    g, spec, params, x_curr, coeffs = _setup(rng)
    bad = x_curr.copy()
    bad[3] = bad[2]
    with pytest.raises(DegenerateMeshError):
        residual(bad, x_curr, coeffs, spec)


@pytest.mark.parametrize("damped_start", [False, True])
def test_stacked_eval_F_and_residual_equal_row_calls(rng, damped_start):
    g, spec, params, x_curr, coeffs = _setup(rng, M=16, damped_start=damped_start)
    X = g.nodes()
    # x_curr itself puts every cell of one row on the equal-slope branch
    xs = np.array([random_admissible(rng, g) for _ in range(6)] + [x_curr])
    values = eval_F(xs - X, x_curr, coeffs, spec)
    residuals = residual(xs, x_curr, coeffs, spec)
    assert values.shape == (7,) and residuals.shape == (7, 17)
    for k, x in enumerate(xs):
        value = eval_F(x - X, x_curr, coeffs, spec)
        row = residual(x, x_curr, coeffs, spec)
        assert type(value) is float and value == values[k]
        assert type(row) is np.ndarray and row.shape == (17,)
        np.testing.assert_array_equal(row, residuals[k])


@pytest.mark.parametrize("damped_start", [False, True])
def test_kernels_take_per_row_coefficients(rng, damped_start):
    # k states, each with its own x_curr, slope_curr, mass, f0_cells, tau
    # and a0, stacked as rows: tau and a0 of shape (k, 1) against a (k, M+1)
    # stack, every array with an axis more against a (k, r, M+1) stack of r
    # candidates per state.  Each row gives the bits of its own state's call.
    g = Grid(0.0, 1.0, 16)
    X = g.nodes()
    wave = X + 0.15 * np.sin(2.0 * np.pi * X)  # slopes 0.06 to 1.94
    wave[0], wave[-1] = 0.0, 1.0
    rows = []
    for key in ("paper-quadratic", "constant:0.6", "poly:0.3,0.1"):
        spec = make_problem(float(rng.uniform(1.3, 3.0)), g, initial_data_from_key(key))
        params = SolverParams(tau=10.0 ** rng.uniform(-3.0, -1.0), a0=float(rng.uniform(0.0, 2.0)))
        x_curr = random_admissible(rng, g)
        coeffs = build_coefficients(d_forward(x_curr, g), d_wide(x_curr, g),
                                    d_wide(random_admissible(rng, g), g), spec, params,
                                    damped_start=damped_start)
        # x_curr itself puts every lane on the equal-slope branch
        candidates = [x_curr, random_admissible(rng, g), wave]
        rows.append((candidates, (x_curr, coeffs)))
    x_curr, slope_curr, mass, f0_cells, tau, a0 = (
        np.array(column) for column in zip(*((x, c.slope_curr, c.mass, c.f0_cells, c.tau, c.a0)
                                             for _, (x, c) in rows)))

    def per_row(lead):  # the states' coefficients as rows, lead indexing each array
        return x_curr[lead], SchemeCoefficients(
            mass=mass[lead], slope_curr=slope_curr[lead], f0_cells=f0_cells[lead], h=g.h,
            tau=tau[:, None][lead], a0=a0[:, None][lead], damped_start=damped_start)

    w = np.diff(wave) / g.h / slope_curr
    assert w.min() < 0.5 and w.max() > 2.0  # Spence lanes in all three ranges

    def calls(x, x_curr, coeffs):
        return ([_kernels.residual_interior(x, x_curr, coeffs),
                 *_kernels.hessian_tridiag(x, coeffs),
                 _kernels.step_functional(x, x_curr, coeffs, _kernels.Workspace(x.shape))],
                _kernels.step_constant(coeffs))

    flat = np.array([candidates[j] for j, (candidates, _) in enumerate(rows)])
    stacked = np.array([candidates for candidates, _ in rows])
    got_flat, constants = calls(flat, *per_row(...))
    got_stacked, _ = calls(stacked, *per_row((slice(None), None)))
    assert constants.shape == (3,)
    for s, (candidates, state) in enumerate(rows):
        want, constant = calls(candidates[s], *state)
        assert type(want[-1]) is float and type(constant) is float
        assert constants[s] == constant
        for got, w in zip(got_flat, want):
            assert np.asarray(got[s]).tobytes() == np.asarray(w).tobytes()
        for j, x in enumerate(candidates):
            for got, w in zip(got_stacked, calls(x, *state)[0]):
                assert got.shape[:2] == (3, 3)
                assert np.asarray(got[s, j]).tobytes() == np.asarray(w).tobytes()


def test_stack_with_inadmissible_row_names_it(rng):
    g, spec, params, x_curr, coeffs = _setup(rng, M=16)
    xs = np.array([random_admissible(rng, g) for _ in range(4)])
    xs[2, 5] = xs[2, 4]
    with pytest.raises(DegenerateMeshError, match="row 2:"):
        residual(xs, x_curr, coeffs, spec)
    with pytest.raises(DegenerateMeshError, match="row 2:"):
        eval_F(xs - g.nodes(), x_curr, coeffs, spec)
    # with two leading axes, the row's index along each
    with pytest.raises(DegenerateMeshError, match=r"row \(1, 0\):"):
        residual(xs.reshape(2, 2, g.M + 1), x_curr, coeffs, spec)


def _nan_at_3(x):
    x[3] = math.nan
    return x


def _crossed_at_4(x):
    x[5] = x[4] - 0.01
    return x


# Every entry that takes trajectories from its caller, the diagnostics
# given a bare x among them: its call on a candidate x, the name it gives
# x, and whether it takes stacks alone (the finite-difference oracles), so
# that one trajectory is passed as row 0.
_ENTRIES = {
    "residual": (residual, "candidate trajectory", False),
    "hessian_coefficients": (lambda x, x_curr, coeffs, spec:
                             hessian_coefficients(x, coeffs, spec),
                             "candidate trajectory", False),
    "eval_F": (lambda x, x_curr, coeffs, spec:
               eval_F(x - spec.grid.nodes(), x_curr, coeffs, spec),
               "displaced trajectory", False),
    "gradient_vs_fd": (lambda x, x_curr, coeffs, spec:
                       gradient_vs_fd(x_curr[None], x, coeffs, spec.grid, _kernels.Workspace),
                       "candidate trajectory", True),
    "hessian_vs_fd": (lambda x, x_curr, coeffs, spec:
                      hessian_vs_fd(x_curr[None], x, coeffs, spec.grid, _kernels.Workspace),
                      "candidate trajectory", True),
    "recover_density": (lambda x, x_curr, coeffs, spec: recover_density(x, spec),
                        "trajectory", False),
    "discrete_energy": (lambda x, x_curr, coeffs, spec: discrete_energy(x, spec),
                        "trajectory", False),
}
# The entries that take no base trajectory.
_NO_BASE = ("hessian_coefficients", "recover_density", "discrete_energy")
# The entries that take one trajectory and never a stack (grid.as_trajectory).
_ONE_TRAJECTORY = ("recover_density", "discrete_energy")
# Each fault made from an admissible trajectory, and how it is named.
_FAULTS = {
    "nonfinite node": (_nan_at_3, ": node 3 is nan, not a finite number"),
    "crossing cell": (_crossed_at_4, ": nonpositive cell slope at cell 4 (nodes 4 and 5)"),
    "unpinned ends": (lambda x: 0.5 * x, ": end nodes 0, 0.5 are not the domain's ends"),
    "stack row": (lambda x: np.array([x, x, _crossed_at_4(x.copy())]),
                  " row 2: nonpositive cell slope at cell 4 (nodes 4 and 5)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("entry", _ENTRIES)
def test_each_entry_names_the_first_fault(rng, entry, fault):
    call, name, stacks_only = _ENTRIES[entry]
    make, message = _FAULTS[fault]
    g, spec, params, x_curr, coeffs = _setup(rng, M=16)
    x = make(g.nodes() ** 1.2)
    if stacks_only and x.ndim == 1:
        x, name = x[None], name + " row 0"
    error, want = DegenerateMeshError, name + message
    if entry in _ONE_TRAJECTORY and x.ndim == 2:
        # a stack is refused by its shape, whatever its rows
        error, want = ValueError, f"{name}: shape {x.shape} is not (17,)"
    with pytest.raises(error) as exc:
        call(x, x_curr, coeffs, spec)
    assert str(exc.value) == want


@pytest.mark.filterwarnings("error")
def test_a_cell_slope_that_underflows_to_0_is_refused_by_every_entry():
    # with h = 2, D_h x at cell 0 is 5e-324/2, which rounds to 0, though
    # the nodes are ordered
    g = Grid(0.0, 16.0, 8)
    spec = make_problem(2.0, g, initial_data_from_key("constant:1"))
    X = g.nodes()
    coeffs = build_coefficients(d_forward(X, g), d_wide(X, g), d_wide(X, g), spec,
                                SolverParams(tau=g.h))
    x = X.copy()
    x[1] = 5e-324
    assert is_admissible(x, g)
    fault = ": nonpositive cell slope at cell 0 (nodes 0 and 1)"
    with pytest.raises(DegenerateMeshError) as exc:
        restart(spec, 1, g.h, x, X)
    assert str(exc.value) == "x_curr" + fault
    for entry, (call, name, stacks_only) in _ENTRIES.items():
        row = " row 0" if stacks_only else ""
        # eval_F's X + x_hat cannot hold node 1 at 5e-324: its base can
        if entry != "eval_F":
            with pytest.raises(DegenerateMeshError) as exc:
                call(x[None] if stacks_only else x, X, coeffs, spec)
            assert str(exc.value) == name + row + fault
        if entry not in _NO_BASE:
            with pytest.raises(DegenerateMeshError) as exc:
                call(X[None] if stacks_only else X, x, coeffs, spec)
            assert str(exc.value) == "base trajectory" + row + fault


def _short(x):
    return x[..., :-1]


# Each entry called with one trajectory of the wrong shape on M = 16: the
# call, the name it gives that trajectory, and the shape handed to it.
_WRONG_SHAPES = {
    "residual candidate": (lambda x, coeffs, spec: residual(_short(x), x, coeffs, spec),
                           "candidate trajectory", (16,)),
    "residual base": (lambda x, coeffs, spec: residual(x, _short(x), coeffs, spec),
                      "base trajectory", (16,)),
    "residual scalar": (lambda x, coeffs, spec: residual(0.5, x, coeffs, spec),
                        "candidate trajectory", ()),
    "hessian_coefficients": (lambda x, coeffs, spec:
                             hessian_coefficients(_short(x), coeffs, spec),
                             "candidate trajectory", (16,)),
    "eval_F displacement": (lambda x, coeffs, spec: eval_F(np.zeros(16), x, coeffs, spec),
                            "displaced trajectory", (16,)),
    "eval_F base": (lambda x, coeffs, spec: eval_F(np.zeros(17), _short(x), coeffs, spec),
                    "base trajectory", (16,)),
    "gradient_vs_fd candidate": (lambda x, coeffs, spec: gradient_vs_fd(
        x[None], _short(x[None]), coeffs, spec.grid, _kernels.Workspace),
                                 "candidate trajectory", (1, 16)),
    "gradient_vs_fd base": (lambda x, coeffs, spec: gradient_vs_fd(
        _short(x[None]), x[None], coeffs, spec.grid, _kernels.Workspace),
                            "base trajectory", (1, 16)),
    "hessian_vs_fd candidate": (lambda x, coeffs, spec: hessian_vs_fd(
        x[None], _short(x[None]), coeffs, spec.grid, _kernels.Workspace),
                                "candidate trajectory", (1, 16)),
    "hessian_vs_fd base": (lambda x, coeffs, spec: hessian_vs_fd(
        _short(x[None]), x[None], coeffs, spec.grid, _kernels.Workspace),
                           "base trajectory", (1, 16)),
    "recover_density": (lambda x, coeffs, spec: recover_density(_short(x), spec),
                        "trajectory", (16,)),
    "discrete_energy": (lambda x, coeffs, spec: discrete_energy(x[:, None], spec),
                        "trajectory", (17, 1)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _WRONG_SHAPES)
def test_each_entry_names_a_trajectory_of_the_wrong_shape(rng, case):
    call, name, shape = _WRONG_SHAPES[case]
    g, spec, params, x_curr, coeffs = _setup(rng, M=16)
    with pytest.raises(ValueError) as exc:
        call(x_curr, coeffs, spec)
    want = "(17,)" if case in _ONE_TRAJECTORY else "(17,) or (..., 17)"
    assert str(exc.value) == f"{name}: shape {shape} is not {want}"


def test_gradient_matches_fd(rng):
    for _ in range(5):
        g, spec, params, x_curr, coeffs = _setup(rng, M=16, m=float(rng.uniform(1.3, 2.8)))
        [err] = gradient_vs_fd(x_curr[None], random_admissible(rng, g)[None], coeffs, g,
                               _kernels.Workspace)
        assert err <= FD_REL_TOL, f"gradient FD mismatch {err:.3e}"


def test_gradient_matches_fd_damped_mode(rng):
    # directional probe of the startup functional against its residual
    g, spec, params, x_curr, coeffs = _setup(rng, M=16, damped_start=True)
    x_new = random_admissible(rng, g)
    x_hat = x_new - g.nodes()
    gvec = residual(x_new, x_curr, coeffs, spec)
    direction = np.zeros(g.M + 1)
    direction[1:-1] = np.sin(np.pi * g.nodes()[1:-1])
    eps = 1e-6
    fp = eval_F(x_hat + eps * direction, x_curr, coeffs, spec)
    fm = eval_F(x_hat - eps * direction, x_curr, coeffs, spec)
    fd = (fp - fm) / (2 * eps)
    analytic = g.h * float(np.dot(gvec[1:-1], direction[1:-1]))
    assert fd == pytest.approx(analytic, rel=1e-6)


def test_hessian_matches_fd(rng):
    for _ in range(5):
        g, spec, params, x_curr, coeffs = _setup(rng, M=24, m=float(rng.uniform(1.3, 2.8)))
        [err] = hessian_vs_fd(x_curr[None], random_admissible(rng, g)[None], coeffs, g,
                              _kernels.Workspace)
        assert err <= FD_REL_TOL, f"Hessian FD mismatch {err:.3e}"


def test_hessian_quadratic_form_positive(rng):
    for _ in range(10):
        g, spec, params, x_curr, coeffs = _setup(rng)
        diag, off = hessian_coefficients(random_admissible(rng, g), coeffs, spec)
        v = rng.standard_normal(g.M - 1)
        quad = float(np.sum(diag * v * v) + 2.0 * np.sum(off * v[:-1] * v[1:]))
        assert quad > 0.0


# ---------------------------------------------------------------------------
# Functional value
# ---------------------------------------------------------------------------

def test_eval_F_zero_at_rest():
    g = Grid(0.0, 1.0, 12)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    X = g.nodes()
    coeffs = build_coefficients(d_forward(X, g), d_wide(X, g), d_wide(X, g), spec, params)
    assert eval_F(np.zeros(13), X, coeffs, spec) == 0.0


@pytest.mark.parametrize("damped_start", [False, True])
def test_eval_F_at_zero_is_the_mass_term(rng, damped_start):
    # x_curr != X: at x_hat = 0 the per-step constant must cancel every term
    # of step_functional(X) but the mass term
    g, spec, params, x_curr, coeffs = _setup(rng, M=16, damped_start=damped_start)
    X = g.nodes()
    mass_term = 0.5 / params.tau * g.h * np.sum(coeffs.mass[1:-1] * (X - x_curr)[1:-1] ** 2)
    value = eval_F(np.zeros(g.M + 1), x_curr, coeffs, spec)
    assert value == pytest.approx(mass_term, rel=1e-12, abs=0)


@pytest.mark.parametrize("damped_start", [False, True])
def test_eval_F_makes_one_step_functional_call(rng, monkeypatch, damped_start):
    # eval_F has no formula of its own: one kernel call per 1-D or stacked
    # call, on the trajectory or the stack as it is
    g, spec, params, x_curr, coeffs = _setup(rng, M=16, damped_start=damped_start)
    shapes = []
    original = _kernels.step_functional

    def counting(x_new, *rest):
        shapes.append(np.shape(x_new))
        return original(x_new, *rest)

    monkeypatch.setattr(_kernels, "step_functional", counting)
    xs = np.array([random_admissible(rng, g) for _ in range(3)]) - g.nodes()
    eval_F(xs[0], x_curr, coeffs, spec)
    eval_F(xs, x_curr, coeffs, spec)
    assert shapes == [(17,), (3, 17)]


def test_eval_F_directional_fd(rng):
    g, spec, params, x_curr, coeffs = _setup(rng, M=16)
    x_new = random_admissible(rng, g)
    x_hat = x_new - g.nodes()
    gvec = residual(x_new, x_curr, coeffs, spec)
    direction = np.zeros(g.M + 1)
    direction[1:-1] = rng.standard_normal(g.M - 1)
    direction /= np.max(np.abs(direction))
    eps = 2e-4
    probes = [eval_F(x_hat + k * eps * direction, x_curr, coeffs, spec)
              for k in (-2, -1, 1, 2)]
    fd = (probes[0] - 8 * probes[1] + 8 * probes[2] - probes[3]) / (12 * eps)
    analytic = g.h * float(np.dot(gvec[1:-1], direction[1:-1]))
    assert fd == pytest.approx(analytic, rel=1e-6)


# ---------------------------------------------------------------------------
# G integral and the q1 oracle
# ---------------------------------------------------------------------------

# 20-digit values from a 50-digit adaptive quadrature of the defining integral
G_ORACLE = [
    (0.5, 1.0, -0.44841420692364620244),
    (-0.3, 1.0, 0.32612951007547605633),
    (0.5, 1.2, -0.41007986042791346925),   # removable singularity inside range
    (2.0, 0.7, -1.6788777737097086327),
    (-0.5, 0.8, 0.65355576597884854945),   # singularity inside range
]


@pytest.mark.parametrize("x,x0,expected", G_ORACLE)
def test_g_integral_against_high_precision(x, x0, expected):
    assert g_convex_integral(x, x0) == pytest.approx(expected, rel=1e-11, abs=1e-12)


def test_g_integral_zero_and_domain():
    assert g_convex_integral(0.0, 0.7) == 0.0
    with pytest.raises(ValueError):
        g_convex_integral(-1.0, 0.7)
    with pytest.raises(ValueError):
        g_convex_integral(0.5, 0.0)


def test_g_second_derivative_consistency(rng):
    # closed-form G'' vs central differences of G
    for _ in range(10):
        x = float(rng.uniform(-0.5, 2.0))
        x0 = float(rng.uniform(0.3, 2.0))
        eps = 1e-4
        fd = (g_convex_integral(x + eps, x0) - 2 * g_convex_integral(x, x0)
              + g_convex_integral(x - eps, x0)) / eps ** 2
        assert g_convex_second(x, x0) == pytest.approx(fd, rel=5e-5, abs=1e-7)
        assert g_convex_second(x, x0) >= 0.0


def test_spence_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        # geometric sweep plus the branch edges 1/2 and 2 and the zero at w = 1
        w = np.concatenate((np.geomspace(1e-12, 1e12, 481), [0.5, 1.0, 2.0]))
        got = _spence(w)
        for wi, gi in zip(w, got):
            exact = float(mp.polylog(2, 1 - mp.mpf(float(wi))))
            assert abs(gi - exact) <= 1e-15 * max(1.0, abs(exact)), wi
        assert _spence(np.array([1.0]))[0] == 0.0


def test_g_integral_against_mpmath_quadrature(rng):
    mp = pytest.importorskip("mpmath")
    def integrand(t, x0):
        s = 1 + t - x0
        return (mp.log(1 + t) - mp.log(x0)) / s if s != 0 else 1 / x0

    with mp.workdps(30):
        for k in range(200):
            x0 = float(rng.uniform(0.05, 5.0))
            if k % 4 == 0:   # base slope within 1e-6 of 1 + x: the removable singularity
                x = x0 - 1.0 + float(rng.uniform(-1e-6, 1e-6))
            else:
                x = float(rng.uniform(-0.95, 3.0))
            if x <= -1.0 or x == 0.0:
                continue
            mx, mx0 = mp.mpf(x), mp.mpf(x0)
            inner = [mx0 - 1] if min(x, 0.0) < x0 - 1.0 < max(x, 0.0) else []
            exact = -mp.quad(lambda t: integrand(t, mx0), [0] + inner + [mx])
            assert g_convex_integral(x, x0) == pytest.approx(float(exact), rel=1e-11,
                                                             abs=1e-12)


def test_li2_series_coefficients_are_bernoulli():
    # B_2k/(2k+1)! with the Bernoulli numbers from their defining recurrence
    bern = [Fraction(1)]
    for n in range(1, 2 * len(_LI2_SERIES) + 1):
        bern.append(-sum(math.comb(n + 1, j) * bern[j] for j in range(n)) / (n + 1))
    for k, coeff in enumerate(_LI2_SERIES, start=1):
        assert coeff == float(bern[2 * k] / math.factorial(2 * k + 1))


def test_eval_F_convex_part_matches_scalar_g(rng):
    g, spec, params, x_curr, coeffs = _setup(rng, M=16)
    for _ in range(5):
        x_new = random_admissible(rng, g)
        x_hat = x_new - g.nodes()
        h, tau = g.h, params.tau
        yhat = np.diff(x_hat) / h
        y0 = coeffs.slope_curr
        dx = x_new - x_curr
        rest = (0.5 / tau * h * np.sum(coeffs.mass[1:-1] * dx[1:-1] ** 2)
                + params.a0 * tau * h * np.sum(0.5 * yhat ** 2 - yhat * y0)
                + tau * tau * h * np.sum(-np.log1p(yhat) + yhat / y0))
        cells = h * spec.f0_cells * np.array(
            [g_convex_integral(float(a), float(b)) for a, b in zip(yhat, y0)])
        convex = eval_F(x_hat, x_curr, coeffs, spec) - rest
        # relative to the size of the summands, which may cancel
        scale = float(np.sum(np.abs(cells))) + abs(rest)
        assert abs(convex - float(np.sum(cells))) <= 1e-13 * scale


def test_q1_oracle_values():
    val, d1, d2 = q1_oracle(1.0, 1.0)
    assert val == -1.0 and d1 == 0.5
    assert d2 == pytest.approx(-2.0 / 3.0, rel=1e-14)
    # frozen 50-digit values at (2, 1)
    val, d1, d2 = q1_oracle(2.0, 1.0)
    assert val == pytest.approx(-0.69314718055994530942, rel=1e-15)
    assert d1 == pytest.approx(0.19314718055994530942, rel=1e-13)
    assert d2 == pytest.approx(-0.13629436111989061883, rel=1e-13)
    with pytest.raises(ValueError):
        q1_oracle(-1.0, 1.0)


def test_q1_oracle_against_mpmath(rng):
    mp = pytest.importorskip("mpmath")
    def q1(t, x0):
        return -(mp.log(t) - mp.log(x0)) / (t - x0)

    with mp.workdps(40):
        for _ in range(30):
            x0 = float(rng.uniform(0.1, 5.0))
            x = x0 * (1.0 + float(rng.choice([1e-6, 1e-3, 0.3, 2.0]) * rng.choice([-0.4, 1.0])))
            got = q1_oracle(x, x0)
            want = (float(q1(mp.mpf(x), mp.mpf(x0))),
                    float(mp.diff(lambda t: q1(t, mp.mpf(x0)), mp.mpf(x))),
                    float(mp.diff(lambda t: q1(t, mp.mpf(x0)), mp.mpf(x), 2)))
            for g_, w_ in zip(got, want):
                assert g_ == pytest.approx(w_, rel=1e-9)


def test_q1_oracle_arrays_equal_scalar_calls(rng):
    x0 = rng.uniform(1e-3, 10.0, 400)
    # even lanes inside the series window |x/x0 - 1| < 5e-3, odd lanes anywhere
    x = np.where(np.arange(400) % 2 == 0, x0 * (1.0 + rng.uniform(-6e-3, 6e-3, 400)),
                 rng.uniform(1e-3, 10.0, 400))
    got = q1_oracle(x, x0)
    for i in range(400):
        scalar = q1_oracle(float(x[i]), float(x0[i]))
        assert all(type(v) is float for v in scalar)
        assert scalar == tuple(float(a[i]) for a in got)
    with pytest.raises(ValueError):
        q1_oracle(x, -x0)


def test_q1_sign_properties(rng):
    for _ in range(1000):
        x = float(rng.uniform(1e-3, 10.0))
        x0 = float(rng.uniform(1e-3, 10.0))
        _, d1, d2 = q1_oracle(x, x0)
        assert d1 > 0.0
        assert d2 <= 0.0
