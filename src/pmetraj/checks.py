"""Property sweeps behind the `check` command.

Each check returns (name, ok, detail); the sweep oracles here are independent
of the assembly path they audit: finite differences of eval_F for gradients
and of residual for Hessians, analytic signs for the secant building blocks,
and direct summation for the discrete identities.

Each sweep is evaluated on arrays: a sign sweep draws all its samples at once
and makes one call, and each finite-difference oracle stacks its probes as
rows and makes one eval_F or residual call per state.  A failing sweep still
reports its first counterexample in sample order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, functional
from .functional import SolverParams
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


def random_admissible(rng: np.random.Generator, grid: Grid) -> np.ndarray:
    """Strictly increasing nodes with pinned endpoints, jittered cell widths."""
    gaps = 1.0 + WIDTH_JITTER * rng.uniform(-1.0, 1.0, grid.M)
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    x /= x[-1]
    return grid.x_left + (grid.x_right - grid.x_left) * x


def _random_setup(rng, M=24, damped_start=False):
    grid = Grid(0.0, 1.0, M)
    m = rng.uniform(1.3, 3.0)
    spec = make_problem(m, grid, quadratic_bump)
    params = SolverParams(
        tau=10.0 ** rng.uniform(-3.0, -1.0),
        a0=float(rng.uniform(0.0, 2.0)),
    )
    x_curr = random_admissible(rng, grid)
    x_prev = random_admissible(rng, grid)
    coeffs = functional.build_coefficients(x_curr, x_prev, spec, params,
                                           damped_start=damped_start)
    return spec, params, x_curr, coeffs


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

def gradient_vs_fd(spec, params, x_curr, coeffs, x_new, work=None):
    """Max relative mismatch between h*residual and a fourth-order central
    difference of the functional, from one eval_F call on all 4(M-1)
    probes.  Both calls write into work, a Workspace for one trajectory
    (fresh workspaces when None)."""
    grid = spec.grid
    n = grid.M - 1
    x_hat = x_new - grid.nodes()
    g = functional.residual(x_new, x_curr, coeffs, spec, params, work)
    grad = grid.h * g[1:-1]

    # probes[i - 1, j] is x_hat with node i moved by shifts[j]
    shifts = np.array([-2.0, -1.0, 1.0, 2.0]) * GRADIENT_STEP
    probes = np.tile(x_hat, (n, 4, 1))
    nodes = np.arange(1, grid.M)
    probes[nodes - 1, :, nodes] += shifts
    f = functional.eval_F(probes.reshape(4 * n, grid.M + 1),
                          x_curr, coeffs, spec, params, work).reshape(n, 4)
    fd = (f[:, 0] - 8.0 * f[:, 1] + 8.0 * f[:, 2] - f[:, 3]) / (12.0 * GRADIENT_STEP)
    err = float(np.max(np.abs(fd - grad))) / float(np.max(np.abs(grad)))
    return err, err <= FD_REL_TOL


def hessian_vs_fd(spec, params, x_curr, coeffs, x_new, work=None):
    """Max relative mismatch between the assembled tridiagonal and central
    differences of the residual, from one residual call on all 2(M-1)
    probes.  The comparison is dense, so a coupling outside the tridiagonal
    counts too.  Both calls write into work, a Workspace for one trajectory
    (fresh workspaces when None)."""
    grid = spec.grid
    n = grid.M - 1
    diag, off = functional.hessian_coefficients(x_new, coeffs, spec, params, work)
    dense = np.diag(diag)
    dense += np.diag(off, 1) + np.diag(off, -1)

    # probes[0, j] and probes[1, j] are x_new with node j + 1 moved by
    # +HESSIAN_STEP and -HESSIAN_STEP
    probes = np.tile(x_new, (2, n, 1))
    cols = np.arange(n)
    probes[0, cols, cols + 1] += HESSIAN_STEP
    probes[1, cols, cols + 1] -= HESSIAN_STEP
    g = functional.residual(probes.reshape(2 * n, grid.M + 1),
                            x_curr, coeffs, spec, params, work)[:, 1:-1]
    fd = ((g[:n] - g[n:]) / (2.0 * HESSIAN_STEP)).T  # fd[i, j] = d g_i / d x_j
    err = float(np.max(np.abs(fd - dense))) / float(np.max(np.abs(dense)))
    return err, err <= FD_REL_TOL


def _fd_states(rng, name: str, M: int, oracle) -> CheckResult:
    """name over FD_STATES random states on M cells, every odd-numbered one
    with the opening step's flux: it fails at the first state where oracle
    does, else passes with the worst relative error.  The states share M,
    so one workspace serves every oracle call."""
    worst = 0.0
    work = _kernels.Workspace((M + 1,))
    for i in range(FD_STATES):
        spec, params, x_curr, coeffs = _random_setup(rng, M, damped_start=i % 2 == 1)
        err, ok = oracle(spec, params, x_curr, coeffs, random_admissible(rng, spec.grid),
                         work)
        if not ok:
            return CheckResult(name, False,
                               f"relative error {err:.3e} at m={spec.m!r}, tau={params.tau!r}")
        worst = max(worst, err)
    return CheckResult(name, True, f"worst relative error {worst:.3e}")


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
