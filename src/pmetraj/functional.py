"""Nonlinear algebra of the scheme.

One time step solves, for the next trajectory x, the interior equations

    mass_i (x_i - xc_i)/tau + d_h[ f0 R(D_h x, D_h xc)
                                   - a0 tau D_h(x - xc)
                                   + tau^2 (1/D_h x - 1/D_h xc) ]_i = 0,

which is the gradient (per node, up to the uniform inner-product weight h) of
the strictly convex functional F: _kernels.step_functional holds its one
formula, and eval_F adds the per-step constant.  R is the logarithmic
secant ratio; its derivative W <= 0 feeds the tridiagonal linearization with
cell coefficients -f0 W + a0 tau + tau^2/(D_h x)^2 > 0, so the linearized
operator is symmetric positive definite on the admissible set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import _spence
from .errors import (CoefficientOverflowError, DegenerateMeshError, require,
                     require_count)
from .grid import as_trajectories
from .problem import ProblemSpec, require_admissible


@dataclass(frozen=True)
class SolverParams:
    """Time step, regularization weight, and the Newton iteration budget.

    The stopping tolerance is the constant newton.TOL_LAMBDA.  tau^2 must
    be finite: it guards S_h and weighs the tau^2 terms of the flux, and
    newton_max_iter is an integer of at least 1 (errors.require_count).  A
    bad field raises ConfigurationError keyed by the field's name."""

    tau: float
    a0: float = 1.0
    newton_max_iter: int = 100

    def __post_init__(self):
        require(self.tau, "tau", "must be positive and finite", lambda t: 0.0 < t < math.inf)
        require(self.tau, "tau", "too large: tau^2 overflows", lambda t: t * t < math.inf)
        require(self.a0, "a0", "must be nonnegative and finite", lambda a: 0.0 <= a < math.inf)
        require_count(self.newton_max_iter, "newton_max_iter", 1)


@dataclass
class SchemeCoefficients:
    """The coefficients of one step, the one record every kernel of
    _kernels reads: with the base trajectory they fix F, its gradient (the
    residual) and its Hessian (the tridiagonal).  mass is formed from the
    guarded slope S_h; damped_start selects the fully implicit first-order
    flux of the opening step (L-stable, so the incompatible-corner transient
    of rough initial data cannot ring).  build_coefficients fills one per
    step; checks._draw_states forms one for a batch of k states, mass and
    slope_curr as (k, ...) rows, tau and a0 as (k, 1) columns and the
    shared f0_cells as it is."""

    mass: np.ndarray        # node field; interior entries feed the scheme
    slope_curr: np.ndarray  # cell field, D_h of the base state
    f0_cells: np.ndarray    # cell field, f0 at the cell midpoints
    h: float
    tau: float
    a0: float
    damped_start: bool


def compute_s_h(wide_curr: np.ndarray, wide_prev: np.ndarray, tau: float) -> np.ndarray:
    """Guarded extrapolated slope S_h = max(D~_h(1.5 x^n - 0.5 x^{n-1}), tau^2).

    d_wide is linear, so S_h is formed as max(1.5 W^n - 0.5 W^{n-1}, tau^2)
    from the wide slopes W^n = D~_h x^n (wide_curr) and W^{n-1} = D~_h
    x^{n-1} (wide_prev).  Stacks of wide slopes, one per row, take tau as a
    column."""
    return np.maximum(1.5 * wide_curr - 0.5 * wide_prev, tau ** 2)


def _require_finite(values, cause, message: str) -> None:
    """Raise CoefficientOverflowError(message.format(c)) unless values, a
    float or an array, are all finite, with c the cause (a float, or one
    per value) of the first that is inf or nan."""
    ok = values < math.inf
    if not ok.all():
        cause = np.ravel(cause)[int(np.argmin(ok))] if np.ndim(cause) else cause
        raise CoefficientOverflowError(message.format(cause))


def mass_coefficient(s_h: np.ndarray, spec: ProblemSpec, tau: float) -> np.ndarray:
    """f0^(2-m) * S_h^(m-1) / m at every node (only interior slots are read),
    as spec.mass_factor * S_h^(m-1).  For a stack of problems (ProblemSpec),
    S_h has one row per problem and tau is a column.

    A large m can overflow the powers, and a small tau the quotient by tau
    that the step forms: a coefficient or quotient that is not finite
    raises CoefficientOverflowError naming m or tau, of the first such row
    of a stack."""
    s_h = np.asarray(s_h, dtype=float)
    if s_h.min() <= 0.0:
        raise ValueError("S_h must be positive (the tau^2 guard should ensure this)")
    m = spec.m
    with np.errstate(over="ignore", invalid="ignore"):
        mass = spec.mass_factor * s_h ** (m - 1.0)
        # a float for one problem, a column for a stack, shaped as tau
        top = mass.max(axis=-1, keepdims=mass.ndim > 1)
        # inf, or nan from inf * 0
        _require_finite(top, m, "mass coefficient f0^(2-m) S_h^(m-1)/m is not finite "
                                "at m = {:g}")
        _require_finite(top / tau, tau, "mass coefficient over the time step, "
                                        "f0^(2-m) S_h^(m-1)/(m tau), is not finite at "
                                        "tau = {:g}")
    return mass


def build_coefficients(slope_curr: np.ndarray, wide_curr: np.ndarray,
                       wide_prev: np.ndarray, spec: ProblemSpec,
                       params: SolverParams,
                       damped_start: bool = False) -> SchemeCoefficients:
    """The step's coefficients from the base state's cell slopes slope_curr
    = D_h x^n and the wide slopes of compute_s_h, spec and params, with the
    opening step's flux when damped_start."""
    return SchemeCoefficients(
        mass=mass_coefficient(compute_s_h(wide_curr, wide_prev, params.tau), spec, params.tau),
        slope_curr=slope_curr, f0_cells=spec.f0_cells, h=spec.grid.h, tau=params.tau,
        a0=params.a0, damped_start=damped_start)


def _secant(y, y0):
    """The secant ratio and its derivative from _kernels._secant_terms, for
    positive slopes; floats for two scalars."""
    scalar = np.isscalar(y) and np.isscalar(y0)
    y, y0 = np.asarray(y, dtype=float), np.asarray(y0, dtype=float)
    if (y <= 0.0).any() or (y0 <= 0.0).any():
        raise DegenerateMeshError("secant ratio requires positive slopes")
    r, w = _kernels._secant_terms(y, y0, y - y0)
    return (float(r), float(w)) if scalar else (r, w)


def secant_ratio_R(y, y0):
    """(ln y - ln y0)/(y - y0); midpoint value 2/(y + y0) when |y - y0| is below
    _kernels.EPS_SWITCH * max(y, y0).  Scalar in, scalar out; arrays broadcast."""
    return _secant(y, y0)[0]


def slope_derivative_W(y, y0):
    """d/dy of the secant ratio: [(1 - y0/y) + ln(y0/y)]/(y - y0)^2, equal branch
    -1/(2 y^2).  Always <= 0."""
    return _secant(y, y0)[1]


def residual(x_new: np.ndarray, x_curr: np.ndarray, coeffs: SchemeCoefficients,
             spec: ProblemSpec) -> np.ndarray:
    """Scheme residual g on nodes with the step's coefficients coeffs, the
    flux form among them; g = 0 is exactly one time step of the scheme and
    g equals the gradient of eval_F divided by the weight h.

    x_new may also be a stack of candidates, one per row (shape (k, M+1));
    the residuals come back as the rows of a (k, M+1) array, each bitwise
    equal to the residual of its row alone.  Both trajectories pass
    problem.require_admissible, as the "candidate trajectory" and the "base
    trajectory": a DegenerateMeshError names the first fault (and the row
    of a stack)."""
    grid = spec.grid
    return _kernels.residual_interior(require_admissible(x_new, grid, "candidate trajectory"),
                                      require_admissible(x_curr, grid, "base trajectory"),
                                      coeffs)


def hessian_coefficients(x_new: np.ndarray, coeffs: SchemeCoefficients,
                         spec: ProblemSpec):
    """Assembled interior tridiagonal (diag of length M-1, offdiag of length M-2)
    of the exact derivative of the residual with coeffs; SPD on the admissible set.
    x_new, one trajectory or a stack as in residual, passes
    problem.require_admissible as the "candidate trajectory"."""
    return _kernels.hessian_tridiag(
        require_admissible(x_new, spec.grid, "candidate trajectory"), coeffs)


# ---------------------------------------------------------------------------
# Convex functional in closed form: _kernels.step_functional is its one
# formula, minimised by the Newton line search; eval_F adds the per-step
# constant, _kernels.step_constant, as the finite-difference oracles do
# ---------------------------------------------------------------------------

def g_convex_integral(x: float, x0: float) -> float:
    """G(x, x0) = integral from x to 0 of (ln(1+t) - ln x0)/(1+t-x0) dt, x > -1.

    Closed form G = spence((1+x)/x0) - spence(1/x0) with spence(w) = Li2(1-w);
    the removable singularity at 1+t = x0 needs no patch.  The convex part of
    F is <f0 G(D_h x_hat, D_h x_curr), 1>.
    """
    if not x > -1.0:
        raise ValueError(f"G is defined for x > -1, got {x}")
    if not x0 > 0.0:
        raise ValueError(f"G needs a positive base slope, got x0={x0}")
    if x == 0.0:
        return 0.0
    top, base = _spence(np.array([(1.0 + x) / x0, 1.0 / x0]))
    return float(top - base)


def g_convex_second(x: float, x0: float) -> float:
    """Closed-form G''(x, x0) >= 0; equals -W(1+x, x0)."""
    return -slope_derivative_W(1.0 + x, x0)


def eval_F(x_hat: np.ndarray, x_curr: np.ndarray, coeffs: SchemeCoefficients,
           spec: ProblemSpec):
    """Value of the convex step functional of coeffs at displacement x_hat = x_new - X.

    F is _kernels.step_functional at X + x_hat (the function the Newton line
    search minimises) plus a closed-form constant of the step,
    -h <f0, spence(1/y0)> - tau^2 h <1/y0, 1> - a0 tau h |1 - y0|^2/2 with
    y0 = D_h x_curr (the last term alone when coeffs.damped_start).  With it
    the convex part is exactly <f0 G(D_h x_hat, y0), 1>, G as in
    g_convex_integral; the terms linear in sum(D_h x_hat) vanish because the
    ends are pinned.  All inner products carry the weight h, so the gradient
    of this value is h times the residual.  At x_hat = 0 only the mass term
    is left:
    F = h <mass, (X - x_curr)^2>/(2 tau), which is 0 when x_curr = X.

    A 1-D x_hat gives a float.  A stack of displacements, one per row (shape
    (k, M+1)), gives the k values as an array, each bitwise equal to the
    float of its row alone.  X + x_hat and x_curr pass
    problem.require_admissible as the "displaced trajectory" and the "base
    trajectory", and step_functional writes into a fresh workspace of
    x_hat's shape.
    """
    grid = spec.grid
    x_hat = as_trajectories(x_hat, grid, "displaced trajectory")
    x_new = require_admissible(grid.nodes() + x_hat, grid, "displaced trajectory")
    x_curr = require_admissible(x_curr, grid, "base trajectory")
    return (_kernels.step_functional(x_new, x_curr, coeffs, _kernels.Workspace(x_new.shape))
            + _kernels.step_constant(coeffs))


# ---------------------------------------------------------------------------
# Analytic oracle for the secant ratio's building block
# ---------------------------------------------------------------------------

def q1_oracle(x, x0):
    """q1(x) = -(ln x - ln x0)/(x - x0) with first and second derivatives.

    Series fallback near x = x0 (limits -1/x0, 1/(2 x0^2), -2/(3 x0^3)).
    The secant ratio satisfies R(y, y0) = -q1(y) at x0 = y0 and
    W(y, y0) = -q1'(y).  Scalars in, floats out; arrays broadcast, and each
    lane takes the series or the closed form as its own scalar call would.
    """
    x, x0 = np.asarray(x, dtype=float), np.asarray(x0, dtype=float)
    if not ((x > 0.0).all() and (x0 > 0.0).all()):
        raise ValueError("q1 needs positive arguments")
    u = (x - x0) / x0
    near = np.abs(u) < 5e-3
    # Both forms run on every lane and np.where keeps one.  The closed form
    # reads x = 2 x0 on the series lanes, so it never divides by zero there;
    # the errstate keeps quiet the lanes a form does not own, where the
    # series can overflow once x/x0 is extreme.  Products, not powers, keep
    # a scalar call bitwise equal to its lane of an array call.
    xc = np.where(near, 2.0 * x0, x)
    s = xc - x0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the closed second derivative loses ~eps/u^2 to cancellation, so the
        # series window is wide and carries enough terms for ~1e-12 there
        series = (
            -(1.0 - u * (1 / 2 - u * (1 / 3 - u * (1 / 4 - u * (1 / 5 - u * (1 / 6 - u / 7)))))) / x0,
            (1 / 2 - u * (2 / 3 - u * (3 / 4 - u * (4 / 5 - u * (5 / 6 - u * (6 / 7 - u * 7 / 8)))))) / (x0 * x0),
            (-2 / 3 + u * (3 / 2 - u * (12 / 5 - u * (10 / 3 - u * (30 / 7 - u * 21 / 4))))) / (x0 * x0 * x0),
        )
        p = np.log1p(s / x0)
        closed = (
            -p / s,
            -(s / xc - p) / (s * s),
            1.0 / (xc * xc * s) + 2.0 * (s / xc - p) / (s * s * s),
        )
    out = tuple(np.where(near, a, b) for a, b in zip(series, closed))
    return tuple(map(float, out)) if out[0].ndim == 0 else out
