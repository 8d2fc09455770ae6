"""Hot per-iteration kernels: residual assembly, Hessian assembly, the step
functional F (minimised by the line search, checked by the oracles), and
the tridiagonal solve.

All are whole-array numpy, and at the sizes in use their cost is the count of
numpy calls more than the arithmetic.  So the Newton loop assembles with one
fused pass, residual_hessian: the slopes, the equal-slope mask, z = d/y0 and
log1p(z) are formed once, and the residual and both Hessian diagonals come
from them, bitwise equal to residual_interior and hessian_tridiag (which stay
for functional.residual and functional.hessian_coefficients, the oracles'
entry points, and share every formula with the fused pass through the same
helpers).

The tridiagonal solve is odd-even cyclic reduction (Buzbee, Golub & Nielson
1970): O(n) work in about log2(n) vectorized passes, stable without pivoting
because every reduced system is a Schur complement of the SPD input and hence
SPD itself.  Once a level has at most SCALAR_BASE unknowns it is finished by
a Thomas elimination on Python floats, which checks every pivot.

Measured, fastest of repeated calls on a 2-core Xeon with numpy 2.4 (fused
pass against the two separate kernels, reduction with the scalar base
against reduction down to one unknown): assembly 55 -> 30 us at M = 400,
565 -> 345 us at M = 9600, 8.8 -> 4.7 ms at M = 1e5; solve 125 -> 61 us at
n = 399 and 320 -> 249 us at n = 9599.

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
_NONPOSITIVE_PIVOT = "nonpositive pivot in tridiagonal elimination"

#: Cyclic reduction stops at a level of at most this many unknowns and
#: finishes with a Thomas elimination on Python floats.  A level is about two
#: dozen numpy calls (some 20 us) whatever its size, the scalar loop some
#: 0.3 us per unknown; solves at n = 184 to 19999 ran about 10% faster with
#: 64 than with 32, and no faster with 128.
SCALAR_BASE = 64

#: Relative width of the equal-slope branch: where |y - y0| <= EPS_SWITCH *
#: max(y, y0) the secant ratio and its derivative take their limit values.
EPS_SWITCH = 1e-8


def _secant_terms(y, y0, d, ratio=True, derivative=True):
    """The secant ratio R = ln(y/y0)/d and/or its derivative
    W = [z/(1 + z) - log1p(z)]/d^2 (z = d/y0, d = y - y0) from one log1p pass,
    each None when not asked for.

    Where |d| <= EPS_SWITCH * max(y, y0), R and W take their limits 2/(y + y0)
    and -1/(2 y^2); the np.where passes of that branch run only when some lane
    is inside it, and give the same bits as running them on every call.
    """
    near = np.abs(d) <= EPS_SWITCH * np.maximum(y, y0)
    if near.any():
        d_safe = np.where(near, 1.0, d)
    else:
        near, d_safe = None, d
    z = d_safe / y0
    r = w = None
    with np.errstate(divide="ignore", invalid="ignore"):
        log1p_z = np.log1p(z)
        if derivative:
            w = (z / (1.0 + z) - log1p_z) / (d_safe * d_safe)
        if ratio:
            r = log1p_z / d_safe
    if near is not None:
        if ratio:
            r = np.where(near, 2.0 / (y + y0), r)
        if derivative:
            w = np.where(near, -0.5 / (y * y), w)
    return r, w


def _slopes(x_new, slope_curr, h):
    """Cell slopes y = D_h x_new and their increments d = y - y0."""
    y = (x_new[1:] - x_new[:-1]) / h
    return y, y - slope_curr


def _flux(y, y0, d, r, f0_cells, tau, a0, damped_start):
    """Cell flux f0 R - a0 tau d - tau^2 d/(y y0); damped_start: f0/y - a0 tau d."""
    if damped_start:
        return f0_cells / y - (a0 * tau) * d
    return f0_cells * r - (a0 * tau) * d - (tau * tau) * d / (y * y0)


def _cell_coefficient(y, w, f0_cells, tau, a0, damped_start):
    """c = -f0 W + a0 tau + tau^2/y^2, the derivative of the flux in y
    (damped_start: f0/y^2 + a0 tau); every addend is nonnegative."""
    yy = y * y
    if damped_start:
        return f0_cells / yy + a0 * tau
    # a0 tau - f0 W rounds as -f0 W + a0 tau does, without negating f0
    return a0 * tau - f0_cells * w + (tau * tau) / yy


def _interior_residual(x_new, x_curr, mass, flux, h, tau):
    return mass[1:-1] * (x_new[1:-1] - x_curr[1:-1]) / tau + (flux[1:] - flux[:-1]) / h


def _tridiag(c, mass, h, tau):
    inv_h2 = 1.0 / (h * h)
    return mass[1:-1] / tau + (c[:-1] + c[1:]) * inv_h2, c[1:-1] * -inv_h2


def residual_interior(x_new, x_curr, slope_curr, mass, f0_cells,
                      h, tau, a0, damped_start=False):
    """Scheme residual g on nodes (Dirichlet end slots 0).

    g_i = mass_i (x_new_i - x_curr_i)/tau
          + d_h[ f0 R - a0 tau (y - y0) - tau^2 (y - y0)/(y y0) ]_i
    with y = D_h x_new, y0 = D_h x_curr.  With damped_start the secant average
    R is replaced by the fully implicit 1/y and the tau^2 difference is
    dropped (first-order L-stable step used once at startup).
    """
    y, d = _slopes(x_new, slope_curr, h)
    r = None if damped_start else _secant_terms(y, slope_curr, d, derivative=False)[0]
    g = np.zeros_like(x_new)
    g[1:-1] = _interior_residual(
        x_new, x_curr, mass,
        _flux(y, slope_curr, d, r, f0_cells, tau, a0, damped_start), h, tau)
    return g


def hessian_tridiag(x_new, slope_curr, mass, f0_cells, h, tau, a0,
                    damped_start=False):
    """Tridiagonal of the interior linearized system (diag M-1, offdiag M-2),
    from the cell coefficient c of _cell_coefficient."""
    y, d = _slopes(x_new, slope_curr, h)
    w = None if damped_start else _secant_terms(y, slope_curr, d, ratio=False)[1]
    return _tridiag(_cell_coefficient(y, w, f0_cells, tau, a0, damped_start),
                    mass, h, tau)


def residual_hessian(x_new, x_curr, slope_curr, mass, f0_cells, h, tau, a0,
                     damped_start=False):
    """The interior residual, diagonal and off-diagonal at x_new in one pass.

    Bitwise equal to residual_interior(...)[1:-1] and hessian_tridiag(...):
    the slopes, the equal-slope mask, z and log1p(z) are formed once and
    both R and W are derived from them.
    """
    y, d = _slopes(x_new, slope_curr, h)
    r, w = (None, None) if damped_start else _secant_terms(y, slope_curr, d)
    flux = _flux(y, slope_curr, d, r, f0_cells, tau, a0, damped_start)
    del d, r  # drop each cell field once used: at M = 1e5 each is 0.8 MB
    c = _cell_coefficient(y, w, f0_cells, tau, a0, damped_start)
    del y, w
    return (_interior_residual(x_new, x_curr, mass, flux, h, tau),
            *_tridiag(c, mass, h, tau))


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
    """The convex step functional F at x_new, the only formula of F in the
    package: the Newton line search minimises it, and functional.eval_F adds
    a constant of the step to it for the finite-difference oracles.

    F(x) = h [ sum mass (x - x_curr)^2/(2 tau) + a0 tau/2 sum d^2
               + sum f0 spence(y/y0) + tau^2 sum (y/y0 - ln y) ]
    with y = D_h x, y0 = slope_curr and d = y - y0; damped_start replaces
    the last two sums by -sum f0 ln y.  The residual is its gradient divided
    by h.

    x_new may be a stack of shape (k, M+1), one candidate per row: every
    sum runs along the last axis, so each of the k values is bitwise equal
    to its row's own call; a 1-D x_new gives a float.  No admissibility
    check: the Newton loop calls it only on admissible iterates.
    """
    y = (x_new[..., 1:] - x_new[..., :-1]) / h
    d = y - slope_curr
    dx = x_new[..., 1:-1] - x_curr[1:-1]
    value = ((0.5 / tau) * np.add.reduce(mass[1:-1] * (dx * dx), axis=-1)
             + (0.5 * a0 * tau) * np.add.reduce(d * d, axis=-1))
    if damped_start:
        value -= np.add.reduce(f0_cells * np.log(y), axis=-1)
    else:
        w = y / slope_curr
        value += (np.add.reduce(f0_cells * _spence(w), axis=-1)
                  + (tau * tau) * np.add.reduce(w - np.log(y), axis=-1))
    return h * (float(value) if x_new.ndim == 1 else value)


def _thomas_scalar(d, e, f):
    """Thomas elimination on Python floats: lists in, list out.  A pivot
    that is not positive (NaN included) raises ValueError."""
    piv = d[0]
    if not piv > 0.0:
        raise ValueError(_NONPOSITIVE_PIVOT)
    xi = f[0] / piv
    x, ratios = [xi], []
    for d_i, e_i, f_i in zip(d[1:], e, f[1:]):
        ratio = e_i / piv
        piv = d_i - e_i * ratio
        if not piv > 0.0:
            raise ValueError(_NONPOSITIVE_PIVOT)
        xi = (f_i - e_i * xi) / piv
        x.append(xi)
        ratios.append(ratio)
    for i in range(len(ratios) - 1, -1, -1):
        xi = x[i] - ratios[i] * xi
        x[i] = xi
    return x


def thomas_spd(diag, off, rhs):
    """Solve the SPD tridiagonal system (diagonal `diag`, off-diagonal `off`)
    by odd-even cyclic reduction down to SCALAR_BASE unknowns and a scalar
    Thomas elimination of the rest (`newton.solve_tridiagonal` looks the
    kernel up under this name).

    Each level eliminates the even-indexed unknowns, leaving the Schur
    complement on the odd ones: again symmetric tridiagonal, half the size,
    and SPD.  An even-length level is padded with one decoupled unit row so
    every kept row has two neighbours.  A diagonal entry of a level, or a
    pivot of the scalar elimination, that is not positive (NaN included)
    means the input was not SPD and raises ValueError.
    """
    d, e, f = diag, off, rhs
    levels = []
    while d.shape[0] > SCALAR_BASE:
        if not d.min() > 0.0:
            raise ValueError(_NONPOSITIVE_PIVOT)
        n = d.shape[0]
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
    x = np.array(_thomas_scalar(d.tolist(), e.tolist(), f.tolist()))
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
