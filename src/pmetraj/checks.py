"""Property sweeps behind the `check` command.

Each check returns (name, ok, detail).  The calculus oracles run Newton's
kernels and audit them by independent differencing: finite differences of
F (eval_F's value) for gradients and of the residual for Hessians; analytic
signs audit the secant building blocks, direct summation the identities.

A sign sweep draws all its samples at once and makes one call.  A
finite-difference check draws its FD_STATES states in one draw, a row of
doubles per state, forms their fields as stacks with the library's own code
(_draw_states), each with the bits it would have alone, and keeps them as
one batch per flux form: (k, M+1) trajectory rows and one stacked record
(see _kernels).  Its one oracle call per batch runs residual_hessian and
step_functional on probe-major (r, k, M+1) stacks of r probes of each of k
states, and returns each row's relative error with the bits of its own
call.  A failing sweep reports its first counterexample in sample or draw
order; a failing finite-difference check leaves the generator where that
state's draws end, as a state-by-state check would.

The identity sweeps call the library's d_forward, d_wide and
d_centered_to_nodes on every trial.  All sweeps reduce as _kernels._row_sum
does.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, functional
from .functional import SchemeCoefficients
from .grid import Grid, d_centered_to_nodes, d_forward, d_wide
from .problem import make_problem, quadratic_bump


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
    """The FD_STATES random states of a finite-difference check on M cells,
    as one batch (m, x_curr, x_new, coeffs) per flux form: the even-numbered
    states, then the odd-numbered ones with the opening step's flux.  m is
    the batch's exponents, x_curr and x_new its (k, M+1) rows, and coeffs
    one record stacked as the kernels take it (see _kernels): mass and
    slope_curr as (k, ...) rows, tau and a0 as (k, 1) columns and the
    shared f0_cells as is.  One draw of FD_STATES rows of 3 + 3M doubles
    takes what drawing the states one at a time takes, in the same order
    (m, tau, a0, then the cell widths of x_curr, of the trajectory behind
    it and of x_new), and every field the oracles read gets the bits it
    would get alone: the fields are rows of stacks formed by the library's
    own code (make_problem with a column of exponents, d_forward, d_wide,
    compute_s_h, mass_coefficient), and every rule of make_problem and
    mass_coefficient is checked on every row."""
    grid = Grid(0.0, 1.0, M)
    u = rng.random((FD_STATES, 3 + 3 * M))
    stack = make_problem(_uniform(1.3, 3.0, u[:, :1]), grid, quadratic_bump)
    # Python's power: numpy's array power can differ from it in the last bit
    tau = np.array([[10.0 ** e] for e in _uniform(-3.0, -1.0, u[:, 1]).tolist()])
    nodes = _admissible_nodes(grid, _uniform(-1.0, 1.0, u[:, 3:]).reshape(FD_STATES, 3, M))
    x_curr, x_new = nodes[:, 0], nodes[:, 2]
    wide = d_wide(nodes[:, :2], grid)
    # S_h's floor tau^2 is numpy's tau * tau here, which can differ from a
    # lone state's tau ** 2 in the last bit; in these states the floor has
    # won only at end nodes (40 of 12,000 states), whose mass no kernel reads
    mass = functional.mass_coefficient(
        functional.compute_s_h(wide[:, 0], wide[:, 1], tau), stack, tau)
    slope, a0 = d_forward(x_curr, grid), _uniform(0.0, 2.0, u[:, 2:3])
    return [(stack.m[odd::2, 0], x_curr[odd::2], x_new[odd::2],
             SchemeCoefficients(mass=mass[odd::2], slope_curr=slope[odd::2],
                                f0_cells=stack.f0_cells, h=grid.h, tau=tau[odd::2],
                                a0=a0[odd::2], damped_start=bool(odd)))
            for odd in (0, 1)]


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

def gradient_vs_fd(x_curr, x_new, coeffs, grid, workspace):
    """For each row of the (k, M+1) stacks x_curr and x_new, the max
    relative mismatch between h*residual and a fourth-order central
    difference of F, with coeffs the rows' record (stacked as _draw_states
    stacks it, or one state's as it is).  One residual_hessian call on the
    rows and one step_functional call on their probe-major (4(M-1), k, M+1)
    stack of probes.  Each writes into workspace(shape), workspace a
    callable from the shape of the stack to a Workspace of it.
    check_gradient_fd passes the 10 states of a flux form at M = 16, so F
    sees a (60, 10, 17) stack.
    F is eval_F's: step_functional plus step_constant."""
    n, X = grid.M - 1, grid.nodes()
    functional._require_admissible(x_new, grid, "candidate trajectory")
    functional._require_admissible(x_curr, grid, "base trajectory")
    grad = grid.h * _kernels.residual_hessian(x_new, x_curr, coeffs, workspace(x_new.shape))[0]

    # probes[i - 1, j, s] is row s's x_new - X with node i moved by
    # shifts[j], then X added back, as eval_F adds it
    shifts = np.array([-2.0, -1.0, 1.0, 2.0]) * GRADIENT_STEP
    probes = np.tile(x_new - X, (n, 4, 1, 1))
    nodes = np.arange(1, grid.M)
    probes[nodes - 1, :, :, nodes] += shifts[:, None]
    probes = probes.reshape(4 * n, *x_new.shape)
    probes += X
    functional._require_admissible(probes, grid, "displaced trajectory")
    f = _kernels.step_functional(probes, x_curr, coeffs, workspace(probes.shape))
    f += _kernels.step_constant(coeffs)
    f = f.reshape(n, 4, -1)
    fd = (f[:, 0] - 8.0 * f[:, 1] + 8.0 * f[:, 2] - f[:, 3]) / (12.0 * GRADIENT_STEP)
    return np.maximum.reduce(np.abs(fd.T - grad), axis=-1) / np.maximum.reduce(np.abs(grad), axis=-1)


def hessian_vs_fd(x_curr, x_new, coeffs, grid, workspace):
    """For each row of the (k, M+1) stacks x_curr and x_new, the max
    relative mismatch between the assembled tridiagonal and central
    differences of the residual, with coeffs the rows' record as in
    gradient_vs_fd.  The comparison is dense, so a coupling outside the
    tridiagonal counts too.  One residual_hessian call on a probe-major
    (1 + 2(M-1), k, M+1) stack whose row 0 is x_new, whose diagonals are
    the Hessian (they do not depend on the base trajectory), and whose
    other rows are the probes.  It writes into workspace(shape) of that
    stack, workspace as in gradient_vs_fd.  check_hessian_fd passes the 10
    states of a flux form at M = 24, so the assembly sees a (47, 10, 25)
    stack."""
    n = grid.M - 1
    functional._require_admissible(x_curr, grid, "base trajectory")

    # stack[1 + j] and stack[1 + n + j] are x_new with node j + 1 moved by
    # +HESSIAN_STEP and -HESSIAN_STEP
    stack = np.tile(x_new, (1 + 2 * n, 1, 1))
    i = np.arange(n)
    stack[1 + i, :, i + 1] += HESSIAN_STEP
    stack[1 + n + i, :, i + 1] -= HESSIAN_STEP
    functional._require_admissible(stack, grid, "candidate trajectory")
    g, diag, off = _kernels.residual_hessian(stack, x_curr, coeffs, workspace(stack.shape))
    dense = np.zeros((len(x_new), n, n))
    dense[:, i, i] = diag[0]
    dense[:, i[:-1], i[1:]] = off[0]
    dense[:, i[1:], i[:-1]] = off[0]
    fd = ((g[1:1 + n] - g[1 + n:]) / (2.0 * HESSIAN_STEP)).transpose(1, 2, 0)  # d g_i / d x_j
    return np.maximum.reduce(np.abs(fd - dense), axis=(1, 2)) / np.maximum.reduce(np.abs(dense), axis=(1, 2))


def _fd_states(rng, name: str, M: int, oracle) -> CheckResult:
    """name over the FD_STATES random states of _draw_states on M cells.
    oracle runs once on the batch of each flux form, the even- and the
    odd-numbered states, and both batches share the one workspace of each
    shape it uses (a Workspace cache, one per sweep).  The check fails at the
    first state in draw order whose relative error exceeds FD_REL_TOL (or
    is nan), and sets rng to where that state's draws end (the sweep's
    start advanced by its 3 + 3M doubles per state), as a sweep that
    stopped there would leave it; else it passes with the worst relative
    error."""
    start = rng.bit_generator.state
    batches, errors, grid = _draw_states(rng, M), np.empty(FD_STATES), Grid(0.0, 1.0, M)
    workspace = functools.lru_cache(_kernels.Workspace)
    for odd, (_, x_curr, x_new, coeffs) in enumerate(batches):
        errors[odd::2] = oracle(x_curr, x_new, coeffs, grid, workspace)
    failed = np.flatnonzero(~(errors <= FD_REL_TOL))
    if failed.size:
        i = int(failed[0])
        rng.bit_generator.state = start
        rng.random((i + 1) * (3 + 3 * M))
        (m, _, _, coeffs), row = batches[i % 2], i // 2
        return CheckResult(name, False, f"relative error {errors[i]:.3e} at "
                                        f"m={float(m[row])!r}, tau={float(coeffs.tau[row, 0])!r}")
    return CheckResult(name, True, f"worst relative error {errors.max():.3e}")


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
            lhs = grid.h * float(np.add.reduce(d_centered_to_nodes(c * du, grid)[1:-1] * u[1:-1]))
            rhs = -grid.h * float(np.add.reduce(c * du * du))
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
            wide = math.sqrt(grid.h * float(np.add.reduce(d_wide(f, grid)[1:-1] ** 2)))
            forward = math.sqrt(grid.h * float(np.add.reduce(d_forward(f, grid) ** 2)))
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
