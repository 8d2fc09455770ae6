"""Hot per-iteration kernels: residual assembly, Hessian assembly, the step
functional of the line search, and the tridiagonal solve.

All are whole-array numpy.  The tridiagonal solve is odd-even cyclic
reduction (Buzbee, Golub & Nielson 1970): O(n) work in about log2(n)
vectorized passes, stable without pivoting because every reduced system is a
Schur complement of the SPD input and hence SPD itself.

Numerical note for the assembly: the slope increment d = D_h x_new - D_h x_curr
is formed directly and enters log1p(d/y0)/d and the linear terms, so the
near-cancellation when the trajectory barely moves propagates only through the
smooth derivative of the secant ratio instead of blowing up the assembled
residual at fine meshes.
"""
from __future__ import annotations

import math

import numpy as np

_ONE, _ZERO = np.ones(1), np.zeros(1)  # the padding row of cyclic reduction

#: Relative width of the equal-slope branch: where |y - y0| <= EPS_SWITCH *
#: max(y, y0) the secant ratio and its derivative take their limit values.
EPS_SWITCH = 1e-8


def secant_ratio(y, y0):
    """Elementwise (ln y - ln y0)/(y - y0) with the near-equal midpoint branch."""
    y = np.asarray(y, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    d = y - y0
    near = np.abs(d) <= EPS_SWITCH * np.maximum(y, y0)
    d_safe = np.where(near, 1.0, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.log1p(d_safe / y0) / d_safe
    return np.where(near, 2.0 / (y + y0), exact)


def slope_derivative(y, y0):
    """Elementwise [(1 - y0/y) + ln(y0/y)]/(y - y0)^2, equal branch -1/(2y^2)."""
    y = np.asarray(y, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    d = y - y0
    near = np.abs(d) <= EPS_SWITCH * np.maximum(y, y0)
    d_safe = np.where(near, 1.0, d)
    z = d_safe / y0
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (z / (1.0 + z) - np.log1p(z)) / (d_safe * d_safe)
    return np.where(near, -0.5 / (y * y), exact)


def residual_interior(x_new, x_curr, slope_curr, mass, f0_cells,
                      h, tau, a0, damped_start=False):
    """Scheme residual g on nodes (Dirichlet end slots 0).

    g_i = mass_i (x_new_i - x_curr_i)/tau
          + d_h[ f0 R - a0 tau (y - y0) - tau^2 (y - y0)/(y y0) ]_i
    with y = D_h x_new, y0 = D_h x_curr.  With damped_start the secant average
    R is replaced by the fully implicit 1/y and the tau^2 difference is
    dropped (first-order L-stable step used once at startup).
    """
    y = np.diff(x_new) / h
    y0 = slope_curr
    d = y - y0
    if damped_start:
        flux = f0_cells / y - (a0 * tau) * d
    else:
        flux = (f0_cells * secant_ratio(y, y0) - (a0 * tau) * d
                - (tau * tau) * d / (y * y0))
    g = np.zeros_like(x_new)
    g[1:-1] = mass[1:-1] * (x_new[1:-1] - x_curr[1:-1]) / tau + np.diff(flux) / h
    return g


def hessian_tridiag(x_new, slope_curr, mass, f0_cells, h, tau, a0,
                    damped_start=False):
    """Tridiagonal of the interior linearized system (diag M-1, offdiag M-2).

    Cell coefficient c = -f0 W + a0 tau + tau^2/y^2, all addends nonnegative
    (damped_start: c = f0/y^2 + a0 tau, the exact derivative of the implicit
    flux).
    """
    y = np.diff(x_new) / h
    if damped_start:
        c = f0_cells / (y * y) + a0 * tau
    else:
        w = slope_derivative(y, slope_curr)
        c = -f0_cells * w + a0 * tau + (tau * tau) / (y * y)
    inv_h2 = 1.0 / (h * h)
    diag = mass[1:-1] / tau + (c[:-1] + c[1:]) * inv_h2
    off = -c[1:-1] * inv_h2
    return diag, off


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


def step_functional(x_new, x_curr, slope_curr, mass, f0_cells, h, tau, a0,
                    damped_start=False):
    """The convex step functional F at x_new, up to a constant of the step.

    The residual is the gradient of this value divided by h, as it is of
    functional.eval_F; the two differ by a constant: this one drops the
    spence(1/y0) half of the dilogarithm pass and every term linear in
    sum(D_h x), which the pinned ends hold fixed.  No admissibility check:
    the Newton loop calls it only on admissible iterates.
    """
    y = np.diff(x_new) / h
    d = y - slope_curr
    dx = x_new[1:-1] - x_curr[1:-1]
    value = (0.5 / tau) * np.dot(mass[1:-1], dx * dx) + (0.5 * a0 * tau) * np.dot(d, d)
    if damped_start:
        value -= np.dot(f0_cells, np.log(y))
    else:
        w = y / slope_curr
        value += np.dot(f0_cells, _spence(w)) + (tau * tau) * np.sum(w - np.log(y))
    return h * float(value)


def thomas_spd(diag, off, rhs):
    """Solve the SPD tridiagonal system (diagonal `diag`, off-diagonal `off`)
    by odd-even cyclic reduction (`newton.solve_tridiagonal` looks the
    kernel up under this name).

    Each level eliminates the even-indexed unknowns, leaving the Schur
    complement on the odd ones: again symmetric tridiagonal, half the size,
    and SPD.  An even-length level is padded with one decoupled unit row so
    every kept row has two neighbours.  A diagonal entry that is not positive
    (NaN included) means the input was not SPD and raises ValueError.
    """
    d, e, f = diag, off, rhs
    levels = []
    while True:
        if not (d > 0.0).all():
            raise ValueError("nonpositive pivot in tridiagonal elimination")
        n = d.shape[0]
        if n <= 1:
            break
        if n % 2 == 0:
            d = np.concatenate((d, _ONE))
            e = np.concatenate((e, _ZERO))
            f = np.concatenate((f, _ZERO))
        d_even, f_even = d[0::2], f[0::2]
        e_left, e_right = e[0::2], e[1::2]  # odd row i couples to i-1, i+1
        alpha = e_left / d_even[:-1]
        beta = e_right / d_even[1:]
        levels.append((n, d_even, e_left, e_right, f_even))
        d = d[1::2] - alpha * e_left - beta * e_right
        f = f[1::2] - alpha * f_even[:-1] - beta * f_even[1:]
        e = -beta[:-1] * e_left[1:]
    x = f / d
    for n, d_even, e_left, e_right, f_even in reversed(levels):
        num = f_even.copy()
        num[:-1] -= e_left * x
        num[1:] -= e_right * x
        full = np.empty(d_even.shape[0] + x.shape[0])
        full[0::2] = num / d_even
        full[1::2] = x
        x = full[:n]
    return x


def backend_name() -> str:
    """The kernel lane: numpy is the only one."""
    return "numpy"
