"""An independent 40-digit solve of one time step.

The scheme's interior residual and its tridiagonal derivative are written
here in mpmath, from the docstrings of functional.py and
_kernels.residual_hessian, and none of the package's kernels is imported:

    g_i = mass_i (x_i - xc_i)/tau + (flux_i - flux_{i-1})/h,   i = 1..M-1,
    flux = f0 R - a0 tau d - tau^2 d/(y y0),  R = ln(y/y0)/d,
    c = -f0 W + a0 tau + tau^2/y^2,           W = [z/(1 + z) - log1p(z)]/d^2,

with y = D_h x, y0 = D_h xc, d = y - y0 and z = d/y0 on the cells; the
opening step's damped flux is f0/y - a0 tau d, with c = f0/y^2 + a0 tau.
The Hessian has diagonal (c_{i-1} + c_i)/h^2 + mass_i/tau and
off-diagonal -c_i/h^2.  F, as functional.eval_F states it, is
h [sum mass (x - xc)^2/(2 tau) + a0 tau/2 sum (d^2 - (1 - y0)^2)
   + sum f0 (Li2(1 - y/y0) - Li2(1 - 1/y0)) + tau^2 sum (y/y0 - ln y - 1/y0)],
or h [sum mass (x - xc)^2/(2 tau) + a0 tau/2 sum (d^2 - (1 - y0)^2)
      - sum f0 ln y] for the damped flux.

The step's coefficients (mass, slope_curr as y0, f0_cells, h, tau, a0) are
data: the mp problem takes the floats build_coefficients made, so what is
compared is the solve.  An mp Newton with an mp Thomas elimination, started
from newton_step's answer, runs until its update is below 1e-35, and the
float answer must lie within two bounds of that minimiser x*: the certified
one, from the report's last decrement through the self-concordant bound
||x - x*||_x <= lam/(1 - lam) (Nesterov & Nemirovskii 1994) converted to
the max norm by the mp Hessian, and a fixed one.  The float assembly and F
are checked at the answer through their public views
(functional.residual and hessian_coefficients over residual_hessian,
eval_F over step_functional and step_constant), relative to the magnitude
of the addends each sums.
"""
import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from pmetraj import (Grid, SolverParams, advance, bootstrap, initial_data_from_key, make_problem,
                     restart)
from pmetraj.functional import build_coefficients, eval_F, hessian_coefficients, residual
from pmetraj.newton import newton_step, self_concordance_a
from pmetraj.newton import TOL_LAMBDA

mp = mpmath.mp
DPS = 40
EPS = 2.0 ** -52

#: Bound on max |x - x*| on every state: 7.5 times the largest error
#: measured, 1.32e-11 on the one-wide-cell state, which stops at a
#: decrement of 3.1e-5, just under the stop rule's threshold.  The others
#: read 1.2e-17 to 6.7e-14.
FIXED_BOUND = 1e-10

#: Rounding of the float answer, added to the certified bound: two ulps of
#: 1.0, 8 times the largest error (5.6e-17) on a state whose certificate is
#: below an ulp.
ROUNDING = 2 * EPS

#: Relative tolerance of the float kernels against the mp values.
RTOL = 1e-12

#: Bound on the decrement of the mp minimiser, its residual in the scale of
#: its Hessian: it reads 1e-40 to 1e-33, highest on the m = 8 states, whose
#: mass coefficients reach 8e16 and so magnify the rounding of x at 40 digits.
MP_DECREMENT = 1e-30


# ---------------------------------------------------------------------------
# The scheme in mpmath
# ---------------------------------------------------------------------------

def _mp(values):
    return [mp.mpf(float(v)) for v in values]


class MpStep:
    """One step's residual, Hessian and F in mp, from the float
    coefficients coeffs and the base trajectory xc."""

    def __init__(self, coeffs, xc):
        self.mass, self.y0 = _mp(coeffs.mass), _mp(coeffs.slope_curr)
        self.f0 = _mp(coeffs.f0_cells)
        self.h, self.tau, self.a0 = (mp.mpf(float(v)) for v in (coeffs.h, coeffs.tau, coeffs.a0))
        self.damped = coeffs.damped_start
        self.xc = _mp(xc)

    def slopes(self, x):
        """y = D_h x, d = y - y0 and z = d/y0 on the cells."""
        y = [(b - a) / self.h for a, b in zip(x[:-1], x[1:])]
        d = [yj - y0j for yj, y0j in zip(y, self.y0)]
        return y, d, [dj / y0j for dj, y0j in zip(d, self.y0)]

    def flux(self, y, d, z):
        """The flux and the magnitude of its addends, per cell."""
        a0_tau, tau2 = self.a0 * self.tau, self.tau ** 2
        flux, size = [], []
        for f0, yj, y0, dj, zj in zip(self.f0, y, self.y0, d, z):
            if self.damped:
                terms = (f0 / yj, -a0_tau * dj)
            else:
                ratio = mp.log1p(zj) / dj if dj else 1 / y0
                terms = (f0 * ratio, -a0_tau * dj, -tau2 * dj / (yj * y0))
            flux.append(mp.fsum(terms))
            size.append(mp.fsum(abs(t) for t in terms))
        return flux, size

    def residual(self, x):
        """g on the interior nodes, and the magnitude of its addends."""
        flux, size = self.flux(*self.slopes(x))
        g, scale = [], []
        for i in range(1, len(x) - 1):
            inertia = self.mass[i] * (x[i] - self.xc[i]) / self.tau
            g.append(inertia + (flux[i] - flux[i - 1]) / self.h)
            scale.append(abs(inertia) + (size[i] + size[i - 1]) / self.h)
        return g, scale

    def cell_coefficients(self, x):
        """c on the cells."""
        y, d, z = self.slopes(x)
        a0_tau, tau2 = self.a0 * self.tau, self.tau ** 2
        c = []
        for f0, yj, y0, dj, zj in zip(self.f0, y, self.y0, d, z):
            if self.damped:
                c.append(f0 / yj ** 2 + a0_tau)
                continue
            if dj:
                with mp.workdps(2 * DPS):  # z/(1 + z) - log1p(z) cancels to z^2/2
                    w = (zj / (1 + zj) - mp.log1p(zj)) / dj ** 2
            else:
                w = -1 / (2 * yj ** 2)
            c.append(-f0 * w + a0_tau + tau2 / yj ** 2)
        return c

    def hessian(self, x):
        """The diagonal and off-diagonal of the residual's derivative."""
        c, inv_h2 = self.cell_coefficients(x), 1 / self.h ** 2
        diag = [(c[i - 1] + c[i]) * inv_h2 + self.mass[i] / self.tau
                for i in range(1, len(x) - 1)]
        return diag, [-cj * inv_h2 for cj in c[1:-1]]

    def functional(self, x):
        """eval_F's value at x, and the magnitude of its addends."""
        y, d, _ = self.slopes(x)
        terms = [self.mass[i] * (x[i] - self.xc[i]) ** 2 / (2 * self.tau)
                 for i in range(1, len(x) - 1)]
        for f0, yj, y0, dj in zip(self.f0, y, self.y0, d):
            terms += [self.a0 * self.tau / 2 * dj ** 2, -self.a0 * self.tau / 2 * (1 - y0) ** 2]
            if self.damped:
                terms.append(-f0 * mp.log(yj))
            else:
                terms += [f0 * mp.polylog(2, 1 - yj / y0), -f0 * mp.polylog(2, 1 - 1 / y0),
                          self.tau ** 2 * yj / y0, -self.tau ** 2 * mp.log(yj),
                          -self.tau ** 2 / y0]
        return self.h * mp.fsum(terms), self.h * mp.fsum(abs(t) for t in terms)


def thomas(diag, off, rhs):
    """The solution of the symmetric tridiagonal system, by Thomas elimination."""
    n = len(diag)
    piv, sol, ratios = [diag[0]], [rhs[0]], []
    for i in range(1, n):
        ratios.append(off[i - 1] / piv[-1])
        piv.append(diag[i] - ratios[-1] * off[i - 1])
        sol.append(rhs[i] - ratios[-1] * sol[-1])
    x = [sol[-1] / piv[-1]]
    for i in range(n - 2, -1, -1):
        x.append((sol[i] - off[i] * x[-1]) / piv[i])
    return x[::-1]


def inverse_diagonal(diag, off):
    """The diagonal of the inverse of the SPD tridiagonal matrix: 1/(p_i +
    q_i - diag_i), with p and q the pivots of the elimination from the top
    and from the bottom."""
    n = len(diag)
    p, q = list(diag), list(diag)
    for i in range(1, n):
        p[i] = diag[i] - off[i - 1] ** 2 / p[i - 1]
    for i in range(n - 2, -1, -1):
        q[i] = diag[i] - off[i] ** 2 / q[i + 1]
    return [1 / (p[i] + q[i] - diag[i]) for i in range(n)]


def mp_solve(step, x, a):
    """The minimiser of the step, by Newton from x (interior updates only)
    until an update is below 1e-35 in every node, and its decrement
    sqrt((h/a) g^T H^-1 g)."""
    for _ in range(8):
        g, _ = step.residual(x)
        delta = thomas(*step.hessian(x), [-gi for gi in g])
        decrement = mp.sqrt(abs(step.h / a * mp.fsum(gi * di for gi, di in zip(g, delta))))
        if max(abs(di) for di in delta) < mp.mpf(10) ** -35:
            return x, decrement
        x = [x[0]] + [xi + di for xi, di in zip(x[1:-1], delta)] + [x[-1]]
    raise AssertionError("mp Newton did not converge")


def hessian_slack(step, x):
    """The relative accuracy each cell's coefficient c of the float Hessian
    can have beyond RTOL.  Outside the equal-slope window (|z| above about
    1e-8), z/(1 + z) - log1p(z) cancels to -z^2/2 and W loses some 4 eps/|z|;
    inside it W takes its limit -1/(2 y^2), off by at most |z|.  So the
    slack is 16 eps/|z|, capped at 1e-7.  The damped flux has no W."""
    if step.damped:
        return [0.0] * (len(x) - 1)
    return [min(1e-7, 16 * EPS / abs(zj)) if zj else 0.0 for zj in step.slopes(x)[2]]


# ---------------------------------------------------------------------------
# The states: every state is made by stepper.restart
# ---------------------------------------------------------------------------

def _setup(key, m, M, tau_over_h, length=1.0):
    grid = Grid(0.0, length, M)
    spec = make_problem(m, grid, initial_data_from_key(key))
    return grid, spec, SolverParams(tau=tau_over_h * grid.h)


def _from_widths(grid, widths):
    """The trajectory whose cells have the given relative widths."""
    widths = np.asarray(widths, dtype=float)
    x = grid.x_left + (grid.x_right - grid.x_left) * np.cumsum(widths / widths.sum())
    return np.concatenate(([grid.x_left], x[:-1], [grid.x_right]))


def _opening(*setup):
    """Step 1 of a run: the bootstrap state, whose step takes the damped flux."""
    grid, spec, params = _setup(*setup)
    return spec, params, restart(spec, 0, 0.0, grid.nodes(), grid.nodes())


def _after_one_step(*setup):
    """Step 2 of a run: the restart from the first step's x^1 and x^0."""
    grid, spec, params = _setup(*setup)
    x1 = advance(bootstrap(spec), spec, params)[0].x_curr
    return spec, params, restart(spec, 1, params.tau, x1.copy(), grid.nodes())


def _still(x_curr, *setup):
    """A state at step 1 that stood still at x_curr(grid) since step 0."""
    grid, spec, params = _setup(*setup)
    return spec, params, restart(spec, 1, params.tau, x_curr(grid), x_curr(grid))


def _wall_compressed(grid):
    """Both wall cells a quarter as wide as the rest."""
    return _from_widths(grid, [0.25] + [1.0] * (grid.M - 2) + [0.25])


def _rippled(grid):
    """The reference map with a ripple of 1e-9 on the interior nodes."""
    x = grid.nodes()
    x[1:-1] += 1e-9 * np.sin(3.0 * np.arange(1, grid.M))
    return x


def _uneven(grid):
    """Cells alternately squeezed and stretched, widths 1 : 12."""
    return _from_widths(grid, [1.0, 12.0] * (grid.M // 2))


def _one_wide_cell(grid):
    """One cell holding 30% of the domain, the rest equal."""
    return _from_widths(grid, [1.0] * 7 + [0.3 / 0.7 * (grid.M - 1)] + [1.0] * (grid.M - 8))


#: poly:1e-4,0,1 on [0, 1/4]: at M <= 32 on [0, 1], tau = 100h is above 1,
#: and the guard tau^2 on S_h would make every mass coefficient 1e10 or more
NEAR_VACUUM_M8 = ("poly:1e-4,0,16", 8.0, 32, 100.0, 0.25)

STATES = {
    "quadratic opening step": lambda: _opening("paper-quadratic", 2.0, 16, 1.0),
    "quadratic step 2": lambda: _after_one_step("paper-quadratic", 2.0, 16, 1.0),
    "near vacuum m=8 tau=100h opening": lambda: _opening(*NEAR_VACUUM_M8),
    "near vacuum m=8 tau=100h step 2": lambda: _after_one_step(*NEAR_VACUUM_M8),
    "near vacuum m=1.05, wall cells compressed":
        lambda: _still(_wall_compressed, "poly:1e-4,0,1", 1.05, 16, 1.0),
    "constant with a 1e-9 ripple": lambda: _still(_rippled, "constant:1", 2.0, 8, 1.0),
    "slope ratios past 2": lambda: _still(_uneven, "constant:1", 2.0, 16, 10.0),
    "one wide cell, z near -1": lambda: _still(_one_wide_cell, "constant:1", 2.0, 32, 1.0),
}


def _solve(name):
    spec, params, state = STATES[name]()
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec,
                                params, damped_start=state.n == 0)
    x, report = newton_step(state, coeffs, spec, params)
    return spec, coeffs, state.x_curr, x.copy(), report


@pytest.mark.parametrize("name", sorted(STATES))
def test_newton_step_is_within_its_bounds_of_the_mp_minimiser(name):
    spec, coeffs, x_curr, x, report = _solve(name)
    assert report.converged
    a = self_concordance_a(spec)
    with mp.workdps(DPS):
        step = MpStep(coeffs, x_curr)
        star, decrement = mp_solve(step, _mp(x), a)
        assert decrement < MP_DECREMENT
        err = max(abs(mp.mpf(float(a)) - b) for a, b in zip(x, star))

        lam = report.lambda_history[-1]
        lam_next = (lam / (1.0 - lam)) ** 2  # the returned point's decrement, at most
        assert lam_next < TOL_LAMBDA
        local = lam_next / (1.0 - lam_next)  # ||x - x*||_x, at most
        # |e_i| <= ||e||_x sqrt((A^-1)_ii), A = (h/a) H(x), the local metric
        widest = max(inverse_diagonal(*step.hessian(_mp(x))))
        certified = local * mp.sqrt(a / spec.grid.h * widest)
    assert err <= certified + ROUNDING, (float(err), float(certified))
    assert err <= FIXED_BOUND, float(err)


@pytest.mark.parametrize("name", sorted(STATES))
def test_assembly_and_functional_match_the_mp_values(name):
    spec, coeffs, x_curr, x, _ = _solve(name)
    g = residual(x, x_curr, coeffs, spec)[1:-1]
    diag, off = hessian_coefficients(x, coeffs, spec)
    value = eval_F(x - spec.grid.nodes(), x_curr, coeffs, spec)
    with mp.workdps(DPS):
        step = MpStep(coeffs, x_curr)
        x_mp = _mp(x)
        g_mp, scale = step.residual(x_mp)
        for got, want, size in zip(g, g_mp, scale):
            assert abs(got - want) <= RTOL * size
        diag_mp, off_mp = step.hessian(x_mp)
        slack = hessian_slack(step, x_mp)
        for i, (got, want) in enumerate(zip(diag, diag_mp)):
            assert abs(got - want) <= (RTOL + max(slack[i], slack[i + 1])) * want
        for got, want, cell in zip(off, off_mp, slack[1:]):
            assert abs(got - want) <= (RTOL + cell) * -want
        value_mp, size = step.functional(x_mp)
        assert abs(value - value_mp) <= RTOL * size


def test_the_states_reach_the_branch_edges():
    """The flux's closed forms are exercised at their edges: equal-slope
    lanes, slope ratios w = y/y0 past 2 (Spence's inversion) and below 1/2
    (its reflection), z = w - 1 near -1, and both flux forms."""
    seen = {"damped": False, "averaged": False}
    ratios = []
    for name in STATES:
        _, coeffs, _, x, _ = _solve(name)
        seen["damped" if coeffs.damped_start else "averaged"] = True
        y = np.diff(x) / coeffs.h
        ratios.append(y / coeffs.slope_curr)
    w = np.concatenate(ratios)
    assert all(seen.values())
    assert (np.abs(w - 1.0) <= 1e-8).any()  # EPS_SWITCH lanes
    assert w.max() > 2.0 and w.min() < 0.5
    assert w.min() < 0.2  # z < -0.8
