"""Hot per-iteration kernels: the residual-and-Hessian assembly, the step
functional F (minimised by the line search, checked by the oracles), and
the tridiagonal solve.

All are whole-array numpy, and at the sizes in use their cost is the count of
numpy calls more than the arithmetic.  So residual_hessian is the package's
one assembly: the slopes, the equal-slope mask, z = d/y0 and log1p(z) are
formed once, and the residual and both Hessian diagonals come from them.
The Newton loop and the finite-difference oracles of checks call it and
step_functional, so the oracles check the code Newton runs;
residual_interior and hessian_tridiag are views of it behind
functional.residual and functional.hessian_coefficients.  Every kernel
reads the step's coefficients (mass, slope_curr, f0_cells, h, tau, a0 and
the flux form damped_start) from one record, coeffs: a
functional.SchemeCoefficients, or any object with its fields.  Every kernel
indexes the nodes along the last axis, so one call takes a single
trajectory or a stack of candidates of shape (..., M+1), one per row.  The
record may be stacked too, one state per row (the batch of a flux form in
checks._draw_states): slope_curr and mass as (k, ...) rows, and f0_cells
as rows or one field shared by every row, that broadcast, as x_curr does,
against the stack along its leading axes, and tau and a0 as (k, 1) columns
that broadcast against x_new[..., :1].  A probe-major stack (r, k, M+1) of
r probes of each of k states so takes the states' stacked record as it
is, not repeated per probe.  Every ufunc keeps its operands and their order
whatever the shapes, and every sum runs along the last axis, so each row
gives the bits of its own call with float coefficients, which is how
Newton calls the kernels.

The tridiagonal solve is odd-even cyclic reduction (Buzbee, Golub & Nielson
1970): O(n) work in about log2(n) vectorized passes, stable without pivoting
because every reduced system is a Schur complement of the SPD input and hence
SPD itself.  Once a level has at most SCALAR_BASE unknowns it is finished by
a Thomas elimination on Python floats, which checks every pivot.  The
Workspace pads the system once, with decoupled unit rows, to a length whose
every level is odd (_halvings, at most 3% longer), so one code path
serves every n.  A real row gets the operations it would get unpadded plus
subtractions of exact zeros: the same bits, save perhaps the sign of an
entry of the solution that is exactly zero.

Buffer rule: a Newton iteration, near phase or far, allocates no
cell-sized array.  Every kernel writes into the Workspace it is handed,
one of its input's shape, and makes none: residual_hessian,
step_functional and thomas_spd take it as an argument.  Workspaces are
made by the callers that own them: stepper.restart, once per run, handed
from state to state; _one_off, for the one-off calls of residual_interior,
hessian_tridiag and functional.eval_F, which take one trajectory as a
one-row stack whose workspace carves no cyclic reduction;
newton.solve_tridiagonal when given none; each finite-difference sweep of
checks, which keeps one workspace per shape its oracle uses; and
newton_step on a state that carries none.  Every ufunc
writes with out= in the order of the plain expression, so the results are
bitwise those of the expression.  The scratch is four cell fields (the
assembly forms two of its fields in the buffers of its results diag and
off, and F's Spence passes take three), or the cyclic reduction's
buffers where those are larger: at M = 1e5 a workspace holds 8.18 node
fields.  A result that is a workspace buffer holds until the next call
of its kind with the same workspace (the solution, rhs, lies apart from the
assembly's scratch and outlives assemblies and evaluations of F); what a
caller keeps (newton_step's solution, the residual of residual_interior)
is a fresh array.  A cell field at M = 9600 is 77 KB, and temporaries of
that size, once freed, go back to the system and are faulted in again on
the next iteration.

Numerical note for the assembly: the slope increment d = D_h x_new - D_h x_curr
is formed directly and enters log1p(d/y0)/d and the linear terms, so the
near-cancellation when the trajectory barely moves propagates only through the
smooth derivative of the secant ratio instead of blowing up the assembled
residual at fine meshes.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SingularSystemError

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


def _halvings(n):
    """(p, sizes), the plan of the cyclic reduction of n unknowns: the padded
    length p = (q + 1) 2^j - 1, with j the fewest halvings that leave
    q = n >> j at most SCALAR_BASE, and the sizes p >> k of its reduced
    systems, k = 1..j.  Every level above the base then has an odd length,
    so each kept row has two neighbours, and the base is n >> j long; the
    padding is under n/32.  The reduced systems hold under p unknowns in
    all, so with alpha and beta they take under 4p doubles: under 4.125
    cell fields, 4.125(n + 1) doubles, as p < n + n/32."""
    j = 0
    while n >> j > SCALAR_BASE:
        j += 1
    p = ((n >> j) + 1 << j) - 1
    return p, [p >> k for k in range(1, j + 1)]


class _Level:
    """One level of the cyclic reduction, as views into a Workspace: its
    system (d, e, f) of an odd number of unknowns, and the reduced system on
    its odd rows, written into the next level's buffers.  The level's
    solution replaces f, whose odd entries the reduction consumed."""

    __slots__ = ("d", "d_even", "d_lo", "d_hi", "d_odd", "e_left", "e_left_hi",
                 "e_right", "f", "f_even", "f_lo", "f_hi", "f_odd", "alpha",
                 "beta", "beta_lo", "dk", "ek", "fk")

    def __init__(self, d, e, f, alpha, beta, d_next, e_next, f_next):
        self.d, self.d_even, self.d_odd = d, d[0::2], d[1::2]
        self.d_lo, self.d_hi = self.d_even[:-1], self.d_even[1:]
        self.e_left, self.e_right = e[0::2], e[1::2]  # odd row i couples to i-1, i+1
        self.e_left_hi = self.e_left[1:]
        self.f, self.f_even, self.f_odd = f, f[0::2], f[1::2]
        self.f_lo, self.f_hi = self.f_even[:-1], self.f_even[1:]
        k = d_next.shape[0]
        self.alpha, self.beta, self.beta_lo = alpha[:k], beta[:k], beta[:k - 1]
        self.dk, self.ek, self.fk = d_next, e_next, f_next

    def reduce(self):
        """The Schur complement on the odd rows: d[1::2] - alpha e_left -
        beta e_right, f[1::2] - alpha f_even[:-1] - beta f_even[1:] and
        -beta[:-1] e_left[1:], with alpha = e_left/d_even[:-1] and beta =
        e_right/d_even[1:]; alpha, once used, takes the beta products."""
        if not self.d.min() > 0.0:
            raise SingularSystemError(_NONPOSITIVE_PIVOT)
        alpha, beta, dk, fk = self.alpha, self.beta, self.dk, self.fk
        np.divide(self.e_left, self.d_lo, out=alpha)
        np.divide(self.e_right, self.d_hi, out=beta)
        np.subtract(self.d_odd, np.multiply(alpha, self.e_left, out=dk), out=dk)
        np.subtract(self.f_odd, np.multiply(alpha, self.f_lo, out=fk), out=fk)
        dk -= np.multiply(beta, self.e_right, out=alpha)
        fk -= np.multiply(beta, self.f_hi, out=alpha)
        np.negative(np.multiply(self.beta_lo, self.e_left_hi, out=self.ek), out=self.ek)

    def back_substitute(self, x_odd):
        """The level's solution from that of the reduced system, x_odd."""
        tmp = self.alpha
        self.f_lo -= np.multiply(self.e_left, x_odd, out=tmp)
        self.f_hi -= np.multiply(self.e_right, x_odd, out=tmp)
        self.f_even /= self.d_even
        self.f_odd[:] = x_odd
        return self.f


class Workspace:
    """Every buffer the assembly and the cyclic reduction write, for
    trajectories of one shape: a node field (M+1,), or a stack (..., M+1)
    of candidates for the assembly and F alone.

    cells holds four scratch cell fields and mask the equal-slope lanes.
    residual_hessian forms y, d and z in the first three cells, and its
    results are g (the residual on the interior nodes), diag and off; its
    other two fields lie under those results: flux in the buffer whose
    leading doubles diag takes, contiguous like g (g reads flux before
    diag is written), and c in the one whose [..., 1:-1] is off (diag
    reads c before off is scaled in place).  step_functional writes its
    temporaries into the four cells and mask.  A 1-D workspace also holds
    the cyclic reduction of the n = M-1 interior unknowns (thomas_spd):
    diag, off and rhs, the right-hand side that the solution replaces, are
    the first n rows of the system padded to p with decoupled unit rows
    (_halvings(n) plans p and the reduced systems' sizes), whose pads are
    set here, so the buffers of diag and off are max(p, M) wide.  The last
    cell's flux and c land on the first pad row, and thomas_spd resets that
    row on every solve.  The reduction is carved here: levels, one _Level
    per halving, and base, the (d, e, f) the scalar elimination finishes.
    Their shared elimination factors alpha and beta, then every reduced
    system, are views of the cell scratch, dead while the assembly runs and
    the other way round; the scratch is four cell fields or the
    reduction's buffers, whichever is larger (under 4.125 cell fields).
    rhs lies beside the cells, so the solution holds across the
    assemblies and evaluations of F that newton_step's far phase makes at
    its trial points.  newton_step's ordering guard reuses mask.  A copy
    or an unpickled workspace is a fresh one of the same shape: the
    buffers hold nothing between calls, and copied views would no longer
    share their memory.

    The cells are dead once a step's Newton solve returns, and
    stepper.advance forms the step's density and its pair sums there
    (after_step()).  What advance leaves in the cells holds until the next
    assembly: the docstring of stepper.steps says how long that is in a
    stream of steps.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        *rows, nodes = shape
        M, n = nodes - 1, nodes - 2
        cells = (*rows, M)
        size = math.prod(cells)
        padded, sizes = (0, []) if rows else _halvings(n)  # a stack is never solved
        half = padded // 2
        width = max(padded, M)
        diag, off = np.ones((*rows, width)), np.zeros((*rows, width))
        self.g = np.empty((*rows, n))
        self.flux, self.c = diag[..., :M], off[..., :M]
        self.diag = diag.reshape(-1)[:self.g.size].reshape(self.g.shape)  # contiguous, like g
        self.off = self.c[..., 1:-1]
        self.mask = np.empty(cells, dtype=bool)
        scratch = max(4 * size, 2 * half + sum(3 * k - 1 for k in sizes))
        self._flat = flat = np.empty(scratch + padded)
        self.cells = tuple(flat[:4 * size].reshape(4, *cells))
        if rows:
            return
        rhs = flat[scratch:]
        self.rhs, self._rhs_pad = rhs[:n], rhs[n:]
        alpha, beta, start = flat[:half], flat[half:2 * half], 2 * half
        system, self.levels = (diag[:padded], off[1:padded], rhs), []
        for k in sizes:
            d_end, e_end, f_end = start + k, start + 2 * k - 1, start + 3 * k - 1
            reduced = (flat[start:d_end], flat[d_end:e_end], flat[e_end:f_end])
            self.levels.append(_Level(*system, alpha, beta, *reduced))
            system, start = reduced, f_end
        self.base = system

    def __reduce__(self):
        return Workspace, (self.shape,)

    def after_step(self):
        """(f, pair) of a 1-D workspace: a node field and the cell field
        after it, carved from the cell scratch, for what a step forms after
        its last assembly and solve."""
        nodes = self.shape[-1]
        return self._flat[:nodes], self._flat[nodes:2 * nodes - 1]


def _secant_terms(y, y0, d, out=None):
    """The secant ratio R = ln(y/y0)/d and its derivative
    W = [z/(1 + z) - log1p(z)]/d^2 (z = d/y0, d = y - y0) from one log1p pass.

    Where |d| <= EPS_SWITCH * max(y, y0), R and W take their limits 2/(y + y0)
    and -1/(2 y^2); the passes of that branch run only when some lane is
    inside it, and give the same bits as running them on every call.  out is
    (z, r, w, near), three float buffers and a bool one of the broadcast
    shape, fresh when not given; R comes back in r, W in w.
    """
    if out is None:
        shape = np.broadcast(y, y0, d).shape
        out = (np.empty(shape), np.empty(shape), np.empty(shape),
               np.empty(shape, dtype=bool))
    z, r, w, near = out
    np.less_equal(np.abs(d, out=z),
                  np.multiply(np.maximum(y, y0, out=w), EPS_SWITCH, out=w), out=near)
    any_near = near.any()

    def d_safe():  # d with 1.0 on the equal-slope lanes, formed in z
        if not any_near:
            return d
        np.copyto(z, d)
        np.copyto(z, 1.0, where=near)
        return z

    np.divide(d_safe(), y0, out=z)
    with np.errstate(divide="ignore", invalid="ignore"):
        log1p_z = np.log1p(z, out=r)
        np.divide(z, np.add(z, 1.0, out=w), out=w)
        w -= log1p_z
        ds = d_safe()
        np.divide(log1p_z, ds, out=r)
        w /= np.multiply(ds, ds, out=z)
    if any_near:
        np.copyto(r, np.divide(2.0, np.add(y, y0, out=z), out=z), where=near)
        np.copyto(w, np.divide(-0.5, np.multiply(y, y, out=z), out=z), where=near)
    return r, w


def residual_hessian(x_new, x_curr, coeffs, work):
    """The scheme residual on the interior nodes, and the diagonal and
    off-diagonal of its tridiagonal derivative, at x_new in one pass.

    g_i = mass_i (x_new_i - x_curr_i)/tau
          + d_h[ f0 R - a0 tau (y - y0) - tau^2 (y - y0)/(y y0) ]_i
    with y = D_h x_new, y0 = D_h x_curr; the derivative's cell coefficient
    is c = -f0 W + a0 tau + tau^2/y^2, every addend nonnegative.  With
    damped_start the secant average R is replaced by the fully implicit
    1/y and the tau^2 difference is dropped (the first-order L-stable step
    used once at startup), so c = f0/y^2 + a0 tau.

    Every field is written into work, a Workspace of x_new's shape, and
    the three results are its buffers g, diag and off: they hold until the
    next call with the same work.  flux and c are formed under diag and off
    (work.flux and work.c), so g is formed before diag, and off scales c
    in place.  x_new may be a stack of shape (..., M+1), one candidate per
    row, with stacked coefficients as the module docstring says; the
    results then have its rows, each bitwise equal to its row's own
    call.
    """
    slope_curr, mass, f0_cells, h, tau = (coeffs.slope_curr, coeffs.mass, coeffs.f0_cells,
                                          coeffs.h, coeffs.tau)
    y, d, z = work.cells[:3]
    flux, c = work.flux, work.c
    np.subtract(x_new[..., 1:], x_new[..., :-1], out=y)
    y /= h
    np.subtract(y, slope_curr, out=d)
    a0_tau, tau2 = coeffs.a0 * tau, tau * tau
    if coeffs.damped_start:
        np.divide(f0_cells, y, out=flux)
        flux -= np.multiply(d, a0_tau, out=z)
        np.divide(f0_cells, np.multiply(y, y, out=c), out=c)
        c += a0_tau
    else:
        r, w = _secant_terms(y, slope_curr, d, (z, flux, c, work.mask))
        # flux = f0 R - a0 tau d - tau^2 d/(y y0) over r, then c over w as
        # a0 tau - f0 W + tau^2/y^2 (no negation of f0); d, once used, is
        # scratch
        np.multiply(f0_cells, r, out=flux)
        flux -= np.multiply(d, a0_tau, out=z)
        np.multiply(d, tau2, out=z)
        z /= np.multiply(y, slope_curr, out=d)
        flux -= z
        np.subtract(a0_tau, np.multiply(f0_cells, w, out=c), out=c)
        c += np.divide(tau2, np.multiply(y, y, out=d), out=d)
    g, diag, off = work.g, work.diag, work.off
    tmp = y.reshape(-1)[:g.size].reshape(g.shape)  # contiguous, like g
    np.subtract(x_new[..., 1:-1], x_curr[..., 1:-1], out=g)
    np.multiply(mass[..., 1:-1], g, out=g)
    g /= tau
    g += np.divide(np.subtract(flux[..., 1:], flux[..., :-1], out=tmp), h, out=tmp)
    inv_h2 = 1.0 / (h * h)
    np.add(c[..., :-1], c[..., 1:], out=diag)
    diag *= inv_h2
    diag += np.divide(mass[..., 1:-1], tau, out=tmp)
    np.multiply(off, -inv_h2, out=off)
    return g, diag, off


def _one_off(x_new):
    """(stack, work) of a call given no workspace: x_new as a stack, a 1-D
    trajectory as the one-row stack (1, M+1), and a fresh workspace of its
    shape.  A stack's workspace carves no cyclic reduction, and its row
    gives the bits of the trajectory's own call."""
    stack = x_new[np.newaxis] if x_new.ndim == 1 else x_new
    return stack, Workspace(stack.shape)


def residual_interior(x_new, x_curr, coeffs):
    """The residual of residual_hessian on every node, end slots 0, a fresh
    array; the assembly writes into a fresh workspace (_one_off)."""
    stack, work = _one_off(x_new)
    g = np.zeros_like(stack)
    g[..., 1:-1] = residual_hessian(stack, x_curr, coeffs, work)[0]
    return g[0] if x_new.ndim == 1 else g


def hessian_tridiag(x_new, coeffs):
    """The diagonal and off-diagonal of residual_hessian, the buffers of a
    fresh workspace (_one_off).  They do not depend on the base trajectory,
    so x_new stands in for it."""
    stack, work = _one_off(x_new)
    diag, off = residual_hessian(stack, stack, coeffs, work)[1:]
    return (diag[0], off[0]) if x_new.ndim == 1 else (diag, off)


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


def _spence(w, out=None):
    """Spence's function Li2(1 - w) for w > 0, elementwise.

    Every argument is mapped to z in [-1, 1/2], where u = -ln(1 - z) has
    |u| <= ln 2 and one Horner pass of the Bernoulli series
    Li2(z) = u - u^2/4 + sum_k B_2k u^(2k+1)/(2k+1)! is exact to roundoff:
    w in [1/2, 2] directly (z = 1 - w); w < 1/2 by the reflection
    Li2(z) = pi^2/6 - ln z ln(1 - z) - Li2(1 - z); w > 2 by the inversion
    Li2(z) = -Li2(1/z) - pi^2/6 - ln^2(-z)/2.  Each branch reads w clipped
    to its own range, so the lanes it does not own stay finite.

    The passes of the reflection and the inversion run only when some lane
    is in their range, and give the same bits as running them on every
    lane; the reflection forms ln w a second time rather than keep it
    beside the series.  out is (a, b, c, lanes), three float buffers and a
    bool one of w's shape, fresh when not given; the result comes back in
    c.
    """
    w = np.asarray(w, dtype=float)
    if out is None:
        out = (*(np.empty(w.shape) for _ in range(3)), np.empty(w.shape, dtype=bool))
    u, t, p, lanes = out
    any_low = np.less(w, 0.5, out=lanes).any()
    any_high = np.greater(w, 2.0, out=lanes).any()

    def ln_1mw():  # ln(1 - w) on the reflection lanes, in t
        return np.log1p(np.negative(np.minimum(w, 0.5, out=t), out=t), out=t)

    np.negative(np.log(w, out=u), out=u)
    if any_high:  # lanes holds w > 2
        w_high = np.maximum(w, 2.0, out=t)
        np.copyto(u, np.log1p(np.divide(-1.0, w_high, out=p), out=p), where=lanes)
    if any_low:
        np.less(w, 0.5, out=lanes)
        np.copyto(u, np.negative(ln_1mw(), out=t), where=lanes)
    v = np.multiply(u, u, out=t)
    p.fill(_LI2_SERIES[-1])
    for coef in _LI2_SERIES[-2::-1]:
        p *= v
        p += coef
    # the series u (1 + u (-1/4 + u p)), in p
    p *= u
    p += -0.25
    p *= u
    p += 1.0
    p *= u
    if any_low:  # lanes holds w < 1/2: pi^2/6 - ln(1 - w) ln w - series
        offset = np.multiply(ln_1mw(), np.log(w, out=u), out=t)
        np.copyto(p, np.subtract(np.subtract(_PI2_6, offset, out=t), p, out=t),
                  where=lanes)
    if any_high:  # -pi^2/6 - ln^2(w - 1)/2 - series
        ln_wm1 = np.log(np.subtract(np.maximum(w, 2.0, out=t), 1.0, out=t), out=t)
        offset = np.multiply(np.multiply(ln_wm1, 0.5, out=u), ln_wm1, out=u)
        np.copyto(p, np.subtract(np.subtract(-_PI2_6, offset, out=u), p, out=u),
                  where=np.greater(w, 2.0, out=lanes))
    return p


def step_functional(x_new, x_curr, coeffs, work):
    """The convex step functional F at x_new, the only formula of F in the
    package: the Newton line search minimises it, and functional.eval_F and
    the gradient oracle of checks add step_constant to it.

    F(x) = h [ sum mass (x - x_curr)^2/(2 tau) + a0 tau/2 sum d^2
               + sum f0 spence(y/y0) + tau^2 sum (y/y0 - ln y) ]
    with y = D_h x, y0 = slope_curr and d = y - y0; damped_start replaces
    the last two sums by -sum f0 ln y.  The residual is its gradient divided
    by h.

    Every temporary is written into the cell scratch and the mask of work,
    a Workspace of x_new's shape, in the order of the plain expression, so
    the value is bitwise that of the expression; the assembly's results g,
    diag and off are left as they are.  x_new may be a stack of shape
    (..., M+1), one candidate per row, with stacked coefficients as the
    module docstring says: every sum runs along the last axis, kept as an
    axis of length 1 until the end, so each value is bitwise equal to its
    row's own call; a 1-D x_new gives a float.  No admissibility check:
    the Newton loop calls it only on admissible iterates.
    """
    slope_curr, f0_cells, h, tau = coeffs.slope_curr, coeffs.f0_cells, coeffs.h, coeffs.tau
    y, d, a, b = work.cells
    np.subtract(x_new[..., 1:], x_new[..., :-1], out=y)
    y /= h
    np.subtract(y, slope_curr, out=d)
    dx = a.reshape(-1)[:work.g.size].reshape(work.g.shape)  # contiguous, like g
    np.subtract(x_new[..., 1:-1], x_curr[..., 1:-1], out=dx)
    value = ((0.5 / tau) * _row_sum(np.multiply(coeffs.mass[..., 1:-1],
                                                np.multiply(dx, dx, out=dx), out=dx))
             + (0.5 * coeffs.a0 * tau) * _row_sum(np.multiply(d, d, out=d)))
    if coeffs.damped_start:
        value -= _row_sum(np.multiply(f0_cells, np.log(y, out=y), out=y))
    else:
        w = np.divide(y, slope_curr, out=d)
        # the tau^2 sum first: y is then free for the Spence passes
        flow = (tau * tau) * _row_sum(np.subtract(w, np.log(y, out=y), out=y))
        s = _spence(w, (y, a, b, work.mask))
        value += _row_sum(np.multiply(f0_cells, s, out=s)) + flow
    return h * (float(value) if x_new.ndim == 1 else value[..., 0])


def _row_sum(a):
    """The sum of a along its last axis: an axis of length 1 kept for a
    stack, so (..., 1) coefficients scale it row by row; a numpy scalar for
    one row (0.1 us an operation, 1.2 on a one-element array).  Hot paths
    reduce so, or with the array's min, max, all or any, and difference
    with np.subtract; np.sum, np.max and np.diff make that call, with its
    bits, through Python (np.sum of 67 doubles 2.7 us, this 1.0; numpy 2.4)."""
    return np.add.reduce(a, axis=-1, keepdims=a.ndim > 1)


def step_constant(coeffs):
    """The constant of the step that functional.eval_F and the gradient
    oracle add to step_functional: -h <f0, spence(1/y0)> - tau^2 h <1/y0, 1>
    - a0 tau h |1 - y0|^2/2 with y0 = slope_curr, the last term alone when
    damped_start.  Summed along the last axis: one value per row, with
    tau and a0 per row as in the kernels; a float for one trajectory."""
    y0, h, tau = coeffs.slope_curr, coeffs.h, coeffs.tau
    constant = -0.5 * coeffs.a0 * tau * h * _row_sum((1.0 - y0) ** 2)
    if not coeffs.damped_start:
        if not (y0 > 0.0).all():
            raise ValueError("G needs positive base slopes")
        inv_y0 = 1.0 / y0
        constant -= h * (_row_sum(coeffs.f0_cells * _spence(inv_y0))
                         + tau * tau * _row_sum(inv_y0))
    return float(constant) if y0.ndim == 1 else constant[..., 0]


def _thomas_scalar(d, e, f):
    """Thomas elimination on Python floats: lists in, list out.  A pivot
    that is not positive (NaN included) raises SingularSystemError."""
    piv = d[0]
    if not piv > 0.0:
        raise SingularSystemError(_NONPOSITIVE_PIVOT)
    xi = f[0] / piv
    x, ratios = [xi], []
    for d_i, e_i, f_i in zip(d[1:], e, f[1:]):
        ratio = e_i / piv
        piv = d_i - e_i * ratio
        if not piv > 0.0:
            raise SingularSystemError(_NONPOSITIVE_PIVOT)
        xi = (f_i - e_i * xi) / piv
        x.append(xi)
        ratios.append(ratio)
    for i in range(len(ratios) - 1, -1, -1):
        xi = x[i] - ratios[i] * xi
        x[i] = xi
    return x


def thomas_spd(diag, off, rhs, work):
    """Solve the SPD tridiagonal system (diagonal `diag`, off-diagonal `off`)
    by odd-even cyclic reduction down to SCALAR_BASE unknowns and a scalar
    Thomas elimination of the rest (`newton.solve_tridiagonal` looks the
    kernel up under this name).

    Each level eliminates the even-indexed unknowns, leaving the Schur
    complement on the odd ones: again symmetric tridiagonal, half the size,
    and SPD.  Every level has an odd length, since the workspace pads the
    system with decoupled unit rows (_halvings).  A diagonal entry of
    a level, or a pivot of the scalar elimination, that is not positive
    (NaN included) raises SingularSystemError: the input was not SPD.

    Every level is written into work, a 1-D Workspace for len(diag) + 2
    nodes, and the solution is work.rhs: it holds until the next solve with
    the same work.  Inputs that are not work's own diag, off and rhs are
    copied in, as floats, so the caller's arrays are only read; the pad rows
    of rhs are reset on every solve, so a solve that met a NaN leaves
    nothing behind, and so is the first pad row of diag and off, on which
    the assembly forms its last cell's flux and c.
    """
    levels, (d, e, x) = work.levels, work.base
    for given, own in ((diag, work.diag), (off, work.off), (rhs, work.rhs)):
        if given is not own:
            own[:] = given
    work.flux[-1], work.c[-1] = 1.0, 0.0  # the first pad row of diag and off
    work._rhs_pad.fill(0.0)
    for level in levels:
        level.reduce()
    x[:] = _thomas_scalar(d.tolist(), e.tolist(), x.tolist())
    for level in reversed(levels):
        x = level.back_substitute(x)
    return work.rhs


def backend_name() -> str:
    """The kernel lane: numpy is the only one."""
    return "numpy"
