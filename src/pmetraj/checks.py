"""Property sweeps behind the `check` command.

Each check returns (name, ok, detail).  The calculus oracles run Newton's
kernels and audit them by independent differencing: finite differences of
F (eval_F's value) for gradients and of the residual for Hessians; analytic
signs audit the secant building blocks, direct summation the identities.

Each sweep is evaluated on arrays: a sign sweep draws all its samples at once
and makes one call.  A finite-difference check draws its FD_STATES states in
one draw, a row of doubles per state, and forms their fields as stacks with
the library's own code (_draw_states), every field the oracles read with
the bits it would have if drawn alone.  It then makes one oracle call per
flux form, on all the states of that form.  The oracles make Newton's
kernel calls, residual_hessian and step_functional, on probe-major stacks
(r, k, M+1) of r probes of each of k states, against which the states'
coefficients, stacked into one record (_rows, see _kernels), broadcast as
they are; each state's error has the bits of its own call.  A failing sweep
still reports its first counterexample in sample or draw order, and a
failing finite-difference check sets the generator to where that state's
draws end, so the sweeps after it draw what they would draw after a
state-by-state check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, functional
from .functional import SchemeCoefficients, SolverParams
from .grid import Grid, d_centered_to_nodes, d_forward, d_wide
from .problem import ProblemSpec, make_problem, quadratic_bump


#: Samples drawn by each analytic sign sweep; these constants set how hard
#: each property is audited, not which property is.
SIGN_SAMPLES = 1000
#: Random states each finite-difference check visits.
FD_STATES = 20
#: Relative mismatch above which a finite-difference oracle fails.
FD_REL_TOL = 1e-6
#: Probe steps of the fourth-order gradient and the central Hessian stencils.
GRADIENT_STEP = 5e-4
HESSIAN_STEP = 1e-6
#: Relative jitter of the cell widths of random_admissible.
WIDTH_JITTER = 0.3


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _admissible_nodes(grid: Grid, jitter: np.ndarray) -> np.ndarray:
    """Strictly increasing nodes with pinned endpoints from cell widths 1 +
    WIDTH_JITTER * jitter, jitter in [-1, 1) of shape (..., M): the nodes
    along the last axis, each row bitwise what its own call gives."""
    gaps = 1.0 + WIDTH_JITTER * jitter
    x = np.zeros(gaps.shape[:-1] + (grid.M + 1,))
    np.cumsum(gaps, axis=-1, out=x[..., 1:])
    x /= x[..., -1:]
    return grid.x_left + (grid.x_right - grid.x_left) * x


def random_admissible(rng: np.random.Generator, grid: Grid) -> np.ndarray:
    """Strictly increasing nodes with pinned endpoints, jittered cell widths."""
    return _admissible_nodes(grid, rng.uniform(-1.0, 1.0, grid.M))


def _uniform(low: float, high: float, u: np.ndarray) -> np.ndarray:
    """Doubles u in [0, 1) mapped onto [low, high) as Generator.uniform maps
    its own draws."""
    return low + (high - low) * u


def _draw_states(rng, M: int) -> list:
    """The FD_STATES random states (spec, x_curr, coeffs, x_new) of a
    finite-difference check on M cells, every odd-numbered one with the
    opening step's flux.  One draw of FD_STATES rows of 3 + 3M doubles takes
    what drawing the states one at a time takes, in the same order (m, tau,
    a0, then the cell widths of x_curr, of the trajectory behind it and of
    x_new), and every field the oracles read gets the bits it would get
    alone: the fields are rows of stacks formed by the library's own code
    (make_problem with a column of exponents, d_forward, d_wide,
    compute_s_h, mass_coefficient), and every rule of make_problem,
    SolverParams and mass_coefficient is checked on every row."""
    grid = Grid(0.0, 1.0, M)
    u = rng.random((FD_STATES, 3 + 3 * M))
    stack = make_problem(_uniform(1.3, 3.0, u[:, :1]), grid, quadratic_bump)
    # Python's power: numpy's array power can differ from it in the last bit
    taus = [10.0 ** e for e in _uniform(-3.0, -1.0, u[:, 1]).tolist()]
    params = [SolverParams(tau=tau, a0=a0)
              for tau, a0 in zip(taus, _uniform(0.0, 2.0, u[:, 2]).tolist())]
    nodes = _admissible_nodes(grid, _uniform(-1.0, 1.0, u[:, 3:]).reshape(FD_STATES, 3, M))
    x_curr, x_new = nodes[:, 0], nodes[:, 2]
    wide = d_wide(nodes[:, :2], grid)
    tau = np.array(taus)[:, None]
    # S_h's floor tau^2 is numpy's tau * tau here, which can differ from a
    # lone state's tau ** 2 in the last bit; in these states the floor has
    # won only at end nodes (40 of 12,000 states), whose mass no kernel reads
    mass = functional.mass_coefficient(
        functional.compute_s_h(wide[:, 0], wide[:, 1], tau), stack, tau)
    return [(ProblemSpec(m=m, grid=grid, f0_nodes=stack.f0_nodes, f0_cells=stack.f0_cells,
                         f0_min=stack.f0_min, mass_factor=factor,
                         energy_scale=stack.energy_scale),
             xc, SchemeCoefficients(mass=ma, slope_curr=slope, f0_cells=stack.f0_cells,
                                    h=grid.h, tau=p.tau, a0=p.a0, damped_start=i % 2 == 1), xn)
            for i, (m, factor, p, xc, ma, slope, xn) in enumerate(zip(
                stack.m[:, 0].tolist(), stack.mass_factor, params, x_curr, mass,
                d_forward(x_curr, grid), x_new))]


def _verdict(name: str, failures) -> CheckResult:
    """name fails with the first detail the iterator failures yields, which
    is read no further, and passes if it yields none."""
    detail = next(failures, None)
    return CheckResult(name, detail is None, detail or "")


# ---------------------------------------------------------------------------
# analytic sign sweeps
# ---------------------------------------------------------------------------

def _sweep(name: str, bad, describe) -> CheckResult:
    """The verdict of a flat mask bad of failing samples: describe(i) of the
    first in sample order."""
    return _verdict(name, map(describe, np.flatnonzero(bad)))


def check_q1_signs(rng) -> CheckResult:
    x, x0 = rng.uniform(1e-3, 10.0, size=(SIGN_SAMPLES, 2)).T
    _, d1, d2 = functional.q1_oracle(x, x0)
    return _sweep("q1 monotone increasing and concave", ~((d1 > 0.0) & (d2 <= 0.0)),
                  lambda i: f"counterexample x={float(x[i])!r}, x0={float(x0[i])!r}: "
                            f"q1'={float(d1[i])!r}, q1''={float(d2[i])!r}")


def check_w_nonpositive(rng) -> CheckResult:
    y, y0 = rng.uniform(1e-3, 10.0, size=(SIGN_SAMPLES, 2)).T
    w = functional.slope_derivative_W(y, y0)
    return _sweep("secant slope derivative W <= 0", ~(w <= 0.0),
                  lambda i: f"counterexample y={float(y[i])!r}, y0={float(y0[i])!r}: "
                            f"W={float(w[i])!r}")


def check_g_second_nonnegative(rng) -> CheckResult:
    """G'' >= 0, and G''(y - 1, y0) = q1'(y) at x0 = y0 (relative 1e-9): the
    closed-form curvature against the q1 oracle's independent closed and
    series forms."""
    y, y0 = rng.uniform(1e-3, 10.0, size=(SIGN_SAMPLES, 2)).T
    gpp = functional.g_convex_second(y - 1.0, y0)
    _, d1, _ = functional.q1_oracle(y, y0)
    negative = ~(gpp >= 0.0)

    def describe(i):
        if negative[i]:
            return (f"counterexample x={float(y[i]) - 1.0!r}, x0={float(y0[i])!r}: "
                    f"G''={float(gpp[i])!r}")
        return (f"G'' and the q1 oracle's q1' disagree at y={float(y[i])!r}, "
                f"y0={float(y0[i])!r}: G''={float(gpp[i])!r}, q1'={float(d1[i])!r}")

    return _sweep("convex-part curvature G'' >= 0",
                  negative | ~(np.abs(gpp - d1) <= 1e-9 * np.abs(d1)), describe)


def check_branch_continuity() -> CheckResult:
    """Both evaluation branches sit within 1e-6 of the equal-slope limit values
    at the switching threshold, for base slopes across [0.1, 10]."""
    eps = _kernels.EPS_SWITCH
    y0 = np.repeat(np.geomspace(0.1, 10.0, 61), 2)
    rel = np.tile((0.9 * eps, 1.1 * eps), 61)  # just inside / outside
    y = y0 * (1.0 + rel)
    dr = np.abs(functional.secant_ratio_R(y, y0) - 1.0 / y0)
    dw = np.abs(functional.slope_derivative_W(y, y0) + 0.5 / y0 ** 2)
    return _sweep("R/W branch continuity at the switch", ~((dr <= 1e-6) & (dw <= 1e-6)),
                  lambda i: f"counterexample y0={float(y0[i])!r}, offset={float(rel[i])!r}: "
                            f"|dR|={dr[i]:.3e}, |dW|={dw[i]:.3e}")


# ---------------------------------------------------------------------------
# calculus oracles
# ---------------------------------------------------------------------------

def _rows(states):
    """The coefficients of k states (spec, x_curr, coeffs, x_new) that share
    the grid and the flux form, stacked into one SchemeCoefficients as a
    probe-major (r, k, M+1) stack takes them: slope_curr, mass and f0_cells
    as (k, ...) rows, tau and a0 as (k, 1) columns."""
    specs, _, coeffs, _ = zip(*states)
    grid, damped_start = specs[0].grid, coeffs[0].damped_start
    if any(s.grid != grid for s in specs) or any(c.damped_start != damped_start
                                                 for c in coeffs):
        raise ValueError("the states of one stack must share the grid and the flux form")
    return SchemeCoefficients(
        mass=np.array([c.mass for c in coeffs]),
        slope_curr=np.array([c.slope_curr for c in coeffs]),
        f0_cells=np.array([c.f0_cells for c in coeffs]), h=grid.h,
        tau=np.array([[c.tau] for c in coeffs]), a0=np.array([[c.a0] for c in coeffs]),
        damped_start=damped_start)


def _verdicts(errors):
    """(err, err <= FD_REL_TOL) for each state's relative error."""
    return [(err, err <= FD_REL_TOL) for err in errors.tolist()]


def gradient_vs_fd(states, work=None):
    """For each state (spec, x_curr, coeffs, x_new), the max
    relative mismatch between h*residual and a fourth-order central
    difference of F, and whether it is within FD_REL_TOL.  The states share
    the grid and the flux form: one residual_hessian call on the k states
    and one step_functional call on their probe-major (4(M-1), k, M+1)
    stack of probes, with stacked coefficients.  Both write into work, a
    Workspace (for_shape serves either shape; fresh when None).
    check_gradient_fd passes the 10 states of a flux form at M = 16, so F
    sees a (60, 10, 17) stack.
    F is eval_F's: step_functional plus step_constant."""
    grid, coeffs = states[0][0].grid, _rows(states)
    x_curr, x_new = (np.array([state[i] for state in states], dtype=float) for i in (1, 3))
    n, X = grid.M - 1, grid.nodes()
    functional._require_admissible(x_new, grid, "candidate trajectory")
    functional._require_admissible(x_curr, grid, "base trajectory")
    work = _kernels.Workspace(x_new.shape) if work is None else work.for_shape(x_new.shape)
    grad = grid.h * _kernels.residual_hessian(x_new, x_curr, coeffs, work)[0]

    # probes[i - 1, j, s] is state s's x_new - X with node i moved by
    # shifts[j], then X added back, as eval_F adds it
    shifts = np.array([-2.0, -1.0, 1.0, 2.0]) * GRADIENT_STEP
    probes = np.tile(x_new - X, (n, 4, 1, 1))
    nodes = np.arange(1, grid.M)
    probes[nodes - 1, :, :, nodes] += shifts[:, None]
    probes = probes.reshape(4 * n, len(states), grid.M + 1)
    probes += X
    functional._require_admissible(probes, grid, "displaced trajectory")
    f = _kernels.step_functional(probes, x_curr, coeffs, work)
    f += _kernels.step_constant(coeffs)
    f = f.reshape(n, 4, -1)
    fd = (f[:, 0] - 8.0 * f[:, 1] + 8.0 * f[:, 2] - f[:, 3]) / (12.0 * GRADIENT_STEP)
    return _verdicts(np.max(np.abs(fd.T - grad), axis=-1) / np.max(np.abs(grad), axis=-1))


def hessian_vs_fd(states, work=None):
    """For each state (spec, x_curr, coeffs, x_new), the max
    relative mismatch between the assembled tridiagonal and central
    differences of the residual, and whether it is within FD_REL_TOL.  The
    comparison is dense, so a coupling outside the tridiagonal counts too.
    The states share the grid and the flux form: one residual_hessian call,
    with stacked coefficients, on a probe-major (1 + 2(M-1), k, M+1) stack
    whose row 0 is the states, whose diagonals are the Hessian (they do
    not depend on the base trajectory), and whose other rows are the
    probes.  It writes into work.for_shape of that stack, work a Workspace
    (fresh when None).  check_hessian_fd passes the 10 states of a flux
    form at M = 24, so the assembly sees a (47, 10, 25) stack."""
    grid, coeffs = states[0][0].grid, _rows(states)
    x_curr, x_new = (np.array([state[i] for state in states], dtype=float) for i in (1, 3))
    n = grid.M - 1
    functional._require_admissible(x_curr, grid, "base trajectory")

    # stack[1 + j] and stack[1 + n + j] are x_new with node j + 1 moved by
    # +HESSIAN_STEP and -HESSIAN_STEP
    stack = np.tile(x_new, (1 + 2 * n, 1, 1))
    i = np.arange(n)
    stack[1 + i, :, i + 1] += HESSIAN_STEP
    stack[1 + n + i, :, i + 1] -= HESSIAN_STEP
    functional._require_admissible(stack, grid, "candidate trajectory")
    work = _kernels.Workspace(stack.shape) if work is None else work.for_shape(stack.shape)
    g, diag, off = _kernels.residual_hessian(stack, x_curr, coeffs, work)
    dense = np.zeros((len(states), n, n))
    dense[:, i, i] = diag[0]
    dense[:, i[:-1], i[1:]] = off[0]
    dense[:, i[1:], i[:-1]] = off[0]
    fd = ((g[1:1 + n] - g[1 + n:]) / (2.0 * HESSIAN_STEP)).transpose(1, 2, 0)  # d g_i / d x_j
    return _verdicts(np.max(np.abs(fd - dense), axis=(1, 2))
                     / np.max(np.abs(dense), axis=(1, 2)))


def _fd_states(rng, name: str, M: int, oracle) -> CheckResult:
    """name over the FD_STATES random states of _draw_states on M cells.
    oracle runs once on the states of each flux form, the even- and the
    odd-numbered ones, through one workspace.  The check fails at the first
    state in draw order where oracle does, and sets rng to where that
    state's draws end (the sweep's start advanced by its 3 + 3M doubles per
    state), as a sweep that stopped there would leave it; else it passes
    with the worst relative error."""
    start = rng.bit_generator.state
    states, results = _draw_states(rng, M), [None] * FD_STATES
    work = _kernels.Workspace((len(states[::2]), M + 1))
    for form in (slice(0, None, 2), slice(1, None, 2)):
        results[form] = oracle(states[form], work)
    for i, (err, ok) in enumerate(results):
        if not ok:
            rng.bit_generator.state = start
            rng.random((i + 1) * (3 + 3 * M))
            spec, _, coeffs = states[i][:3]
            return CheckResult(name, False,
                               f"relative error {err:.3e} at m={spec.m!r}, tau={coeffs.tau!r}")
    return CheckResult(name, True,
                       f"worst relative error {max(err for err, _ in results):.3e}")


def check_gradient_fd(rng) -> CheckResult:
    return _fd_states(rng, "residual matches finite differences of the functional",
                      16, gradient_vs_fd)


def check_hessian_fd(rng) -> CheckResult:
    return _fd_states(rng, "tridiagonal matches finite differences of the residual",
                      24, hessian_vs_fd)


# ---------------------------------------------------------------------------
# discrete identities
# ---------------------------------------------------------------------------

def check_summation_by_parts(rng, trials=50) -> CheckResult:
    def mismatches():
        for _ in range(trials):
            M = int(rng.integers(4, 129))
            grid = Grid(0.0, 1.0, M)
            u = rng.standard_normal(M + 1)
            u[0] = u[-1] = 0.0
            c = rng.uniform(0.5, 2.0, M)
            du = d_forward(u, grid)
            lhs = grid.h * float(np.sum(d_centered_to_nodes(c * du, grid)[1:-1] * u[1:-1]))
            rhs = -grid.h * float(np.sum(c * du * du))
            if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs), 1e-300):
                yield f"mismatch {abs(lhs - rhs):.3e} at M={M}"

    return _verdict("summation by parts", mismatches())


def check_wide_slope_norm(rng, trials=100) -> CheckResult:
    def excesses():
        for _ in range(trials):
            M = int(rng.integers(4, 129))
            grid = Grid(0.0, 1.0, M)
            f = rng.standard_normal(M + 1)
            f[0] = f[-1] = 0.0
            # interior nodes: the centered stencil range (end stencils are one-sided
            # extrapolations and can exceed the cell norm on spiky fields)
            wide = math.sqrt(grid.h * float(np.sum(d_wide(f, grid)[1:-1] ** 2)))
            forward = math.sqrt(grid.h * float(np.sum(d_forward(f, grid) ** 2)))
            if wide > forward * (1.0 + 1e-12):
                yield f"||wide||={wide!r} > ||forward||={forward!r} at M={M}"

    return _verdict("wide-slope norm bounded by forward-slope norm", excesses())


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_q1_signs(rng),
        check_w_nonpositive(rng),
        check_g_second_nonnegative(rng),
        check_branch_continuity(),
        check_gradient_fd(rng),
        check_hessian_fd(rng),
        check_summation_by_parts(rng),
        check_wide_slope_norm(rng),
    ]
