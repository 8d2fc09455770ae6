"""Nonlinear algebra of the scheme.

One time step solves, for the next trajectory x, the interior equations

    mass_i (x_i - xc_i)/tau + d_h[ f0 R(D_h x, D_h xc)
                                   - a0 tau D_h(x - xc)
                                   + tau^2 (1/D_h x - 1/D_h xc) ]_i = 0,

which is the gradient (per node, up to the uniform inner-product weight h) of
the strictly convex functional F evaluated by eval_F.  R is the logarithmic
secant ratio; its derivative W <= 0 feeds the tridiagonal linearization with
cell coefficients -f0 W + a0 tau + tau^2/(D_h x)^2 > 0, so the linearized
operator is symmetric positive definite on the admissible set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateMeshError
from .grid import Grid, d_forward, d_wide
from .problem import ProblemSpec, is_admissible

#: Damping threshold below which full Newton steps are taken.
LAMBDA_STAR = 2.0 - math.sqrt(3.0)


@dataclass(frozen=True)
class SolverParams:
    """Time step, regularization weight, and Newton controls."""

    tau: float
    a0: float = 1.0
    eps_switch: float = 1e-8
    newton_tol_lambda: float = 1e-9
    newton_tol_residual: float = 1e-12
    newton_max_iter: int = 100
    lambda_star: float = LAMBDA_STAR
    lambda_prime: float = 0.9
    c_newton: float = 1.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.a0 < 0.0:
            raise ValueError(f"a0 must be nonnegative, got {self.a0}")
        if abs(self.lambda_star - LAMBDA_STAR) > 1e-15:
            raise ValueError("lambda_star is fixed at 2 - sqrt(3)")
        if not (self.lambda_star <= self.lambda_prime < 1.0):
            raise ValueError(
                f"lambda_prime must lie in [{LAMBDA_STAR:.6f}, 1), got {self.lambda_prime}"
            )
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be positive")
        if not self.c_newton > 0.0:
            raise ValueError("c_newton must be positive")


@dataclass
class SchemeCoefficients:
    """Per-step frozen quantities: the guarded slope S_h, the mass coefficient,
    and the cell slopes of the step's base state."""

    mass: np.ndarray        # node field; interior entries feed the scheme
    s_h: np.ndarray         # node field
    slope_curr: np.ndarray  # cell field, D_h of the base state


def compute_s_h(x_curr: np.ndarray, x_prev: np.ndarray, params: SolverParams,
                grid: Grid) -> np.ndarray:
    """Guarded extrapolated slope max(D~_h(1.5 x^n - 0.5 x^{n-1}), tau^2)."""
    extrapolated = d_wide(1.5 * np.asarray(x_curr) - 0.5 * np.asarray(x_prev), grid)
    return np.maximum(extrapolated, params.tau ** 2)


def mass_coefficient(s_h: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """f0^(2-m) * S_h^(m-1) / m at every node (only interior slots are read)."""
    s_h = np.asarray(s_h, dtype=float)
    if np.any(s_h <= 0.0):
        raise ValueError("S_h must be positive (the tau^2 guard should ensure this)")
    m = spec.m
    return spec.f0_nodes ** (2.0 - m) * s_h ** (m - 1.0) / m


def build_coefficients(x_curr: np.ndarray, x_prev: np.ndarray, spec: ProblemSpec,
                       params: SolverParams) -> SchemeCoefficients:
    s_h = compute_s_h(x_curr, x_prev, params, spec.grid)
    return SchemeCoefficients(
        mass=mass_coefficient(s_h, spec),
        s_h=s_h,
        slope_curr=d_forward(x_curr, spec.grid),
    )


def _check_slopes(y, y0):
    if np.any(np.asarray(y) <= 0.0) or np.any(np.asarray(y0) <= 0.0):
        raise DegenerateMeshError("secant ratio requires positive slopes")


def secant_ratio_R(y, y0, eps_switch: float = 1e-8):
    """(ln y - ln y0)/(y - y0); midpoint value 2/(y + y0) when |y - y0| is below
    eps_switch * max(y, y0).  Scalar in, scalar out; arrays broadcast."""
    _check_slopes(y, y0)
    out = _kernels.secant_ratio(y, y0, eps_switch)
    return float(out) if np.isscalar(y) and np.isscalar(y0) else out


def slope_derivative_W(y, y0, eps_switch: float = 1e-8):
    """d/dy of the secant ratio: [(1 - y0/y) + ln(y0/y)]/(y - y0)^2, equal branch
    -1/(2 y^2).  Always <= 0."""
    _check_slopes(y, y0)
    out = _kernels.slope_derivative(y, y0, eps_switch)
    return float(out) if np.isscalar(y) and np.isscalar(y0) else out


def _require_admissible(x, grid, label):
    if not is_admissible(x, grid):
        raise DegenerateMeshError(f"{label} is outside the admissible set")


def residual(x_new: np.ndarray, x_curr: np.ndarray, coeffs: SchemeCoefficients,
             spec: ProblemSpec, params: SolverParams,
             damped_start: bool = False) -> np.ndarray:
    """Scheme residual g on nodes; g = 0 is exactly one time step of the scheme
    and g equals the gradient of eval_F divided by the weight h.

    damped_start selects the fully implicit first-order flux used for the
    opening step (L-stable, so the incompatible-corner transient of rough
    initial data cannot ring)."""
    _require_admissible(x_new, spec.grid, "candidate trajectory")
    _require_admissible(x_curr, spec.grid, "base trajectory")
    return _kernels.residual_interior(
        np.asarray(x_new, dtype=float), np.asarray(x_curr, dtype=float),
        coeffs.slope_curr, coeffs.mass, spec.f0_cells,
        spec.grid.h, params.tau, params.a0, params.eps_switch, damped_start,
    )


def hessian_coefficients(x_new: np.ndarray, coeffs: SchemeCoefficients,
                         spec: ProblemSpec, params: SolverParams,
                         damped_start: bool = False):
    """Assembled interior tridiagonal (diag of length M-1, offdiag of length M-2)
    of the exact derivative of the residual; SPD on the admissible set."""
    _require_admissible(x_new, spec.grid, "candidate trajectory")
    return _kernels.hessian_tridiag(
        np.asarray(x_new, dtype=float), coeffs.slope_curr, coeffs.mass,
        spec.f0_cells, spec.grid.h, params.tau, params.a0, params.eps_switch,
        damped_start,
    )


# ---------------------------------------------------------------------------
# Convex functional in closed form (diagnostics; never inside the Newton loop)
# ---------------------------------------------------------------------------

_PI2_6 = math.pi ** 2 / 6.0

#: B_2k/(2k+1)! for k = 1..9, the odd tail of the Bernoulli series of Li2;
#: at |u| <= ln 2 the first omitted term is below 5e-21.
_LI2_SERIES = (
    0.027777777777777776,     # 1/6 / 3!
    -0.0002777777777777778,   # -1/30 / 5!
    4.72411186696901e-06,     # 1/42 / 7!
    -9.185773074661964e-08,   # -1/30 / 9!
    1.8978869988971e-09,      # 5/66 / 11!
    -4.0647616451442256e-11,  # -691/2730 / 13!
    8.921691020456452e-13,    # 7/6 / 15!
    -1.9939295860721074e-14,  # -3617/510 / 17!
    4.518980029619918e-16,    # 43867/798 / 19!
)


def _spence(w):
    """Spence's function Li2(1 - w) for w > 0, elementwise.

    Every argument is mapped to z in [-1, 1/2], where u = -ln(1 - z) has
    |u| <= ln 2 and one Horner pass of the Bernoulli series
    Li2(z) = u - u^2/4 + sum_k B_2k u^(2k+1)/(2k+1)! is exact to roundoff:
    w in [1/2, 2] directly (z = 1 - w); w < 1/2 by the reflection
    Li2(z) = pi^2/6 - ln z ln(1 - z) - Li2(1 - z); w > 2 by the inversion
    Li2(z) = -Li2(1/z) - pi^2/6 - ln^2(-z)/2.  Each branch reads w clipped
    to its own range, so the lanes it does not own stay finite.
    """
    w = np.asarray(w, dtype=float)
    low = w < 0.5
    high = w > 2.0
    w_high = np.maximum(w, 2.0)
    ln_1mw = np.log1p(-np.minimum(w, 0.5))  # ln(1 - w), reflection lanes
    ln_wm1 = np.log(w_high - 1.0)           # ln(w - 1), inversion lanes
    ln_w = np.log(w)
    u = np.where(low, -ln_1mw, np.where(high, np.log1p(-1.0 / w_high), -ln_w))
    v = u * u
    p = _LI2_SERIES[-1]
    for c in _LI2_SERIES[-2::-1]:
        p = p * v + c
    series = u * (1.0 + u * (-0.25 + u * p))
    offset = np.where(low, _PI2_6 - ln_1mw * ln_w, -_PI2_6 - 0.5 * ln_wm1 * ln_wm1)
    return np.where(low | high, offset - series, series)


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
    return -slope_derivative_W(1.0 + x, x0, eps_switch=1e-8)


def eval_F(x_hat: np.ndarray, x_curr: np.ndarray, coeffs: SchemeCoefficients,
           spec: ProblemSpec, params: SolverParams,
           damped_start: bool = False) -> float:
    """Value of the convex step functional at displacement x_hat = x_new - X.

    All inner products carry the weight h, so the gradient of this value is
    h times the residual.  The convex part <f0 G, 1> is evaluated in closed
    form through the dilogarithm Li2 (see g_convex_integral) in one
    vectorized pass; at rest (x_hat = 0) both spence arguments coincide and
    F is exactly 0.  Intended for verification and monitoring.
    """
    grid = spec.grid
    x_new = grid.nodes() + np.asarray(x_hat, dtype=float)
    _require_admissible(x_new, grid, "displaced trajectory")
    h, tau = grid.h, params.tau

    y0 = coeffs.slope_curr
    yhat = np.diff(x_hat) / h

    dx = x_new - np.asarray(x_curr, dtype=float)
    f1 = 0.5 / tau * h * float(np.sum(coeffs.mass[1:-1] * dx[1:-1] ** 2))
    f3 = params.a0 * tau * h * float(np.sum(0.5 * yhat ** 2 - yhat * y0))
    if damped_start:
        f2 = -h * float(np.sum(spec.f0_cells * np.log1p(yhat)))
        return f1 + f2 + f3
    if not np.all(y0 > 0.0):
        raise ValueError("G needs positive base slopes")
    ends = _spence(np.concatenate(((1.0 + yhat) / y0, 1.0 / y0)))
    f2 = h * float(np.sum(spec.f0_cells * (ends[:yhat.size] - ends[yhat.size:])))
    f4 = tau * tau * h * float(np.sum(-np.log1p(yhat) + yhat / y0))
    return f1 + f2 + f3 + f4


# ---------------------------------------------------------------------------
# Analytic oracle for the secant ratio's building block
# ---------------------------------------------------------------------------

def q1_oracle(x: float, x0: float):
    """q1(x) = -(ln x - ln x0)/(x - x0) with first and second derivatives.

    Series fallback near x = x0 (limits -1/x0, 1/(2 x0^2), -2/(3 x0^3)).
    The secant ratio satisfies R(y, y0) = -q1(y) at x0 = y0 and
    W(y, y0) = -q1'(y).
    """
    if not (x > 0.0 and x0 > 0.0):
        raise ValueError("q1 needs positive arguments")
    u = (x - x0) / x0
    if abs(u) < 5e-3:
        # the closed second derivative loses ~eps/u^2 to cancellation, so the
        # series window is wide and carries enough terms for ~1e-12 there
        val = -(1.0 - u * (1 / 2 - u * (1 / 3 - u * (1 / 4 - u * (1 / 5 - u * (1 / 6 - u / 7)))))) / x0
        d1 = (1 / 2 - u * (2 / 3 - u * (3 / 4 - u * (4 / 5 - u * (5 / 6 - u * (6 / 7 - u * 7 / 8)))))) / x0 ** 2
        d2 = (-2 / 3 + u * (3 / 2 - u * (12 / 5 - u * (10 / 3 - u * (30 / 7 - u * 21 / 4))))) / x0 ** 3
        return val, d1, d2
    s = x - x0
    p = math.log1p(u)
    val = -p / s
    d1 = -(s / x - p) / s ** 2
    d2 = 1.0 / (x * x * s) + 2.0 * (s / x - p) / s ** 3
    return val, d1, d2
