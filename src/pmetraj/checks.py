"""Property sweeps behind the `check` command.

Each check returns (name, ok, detail); the sweep oracles here are independent
of the assembly path they audit: finite differences of F (eval_F's value)
for gradients and of the residual for Hessians, analytic signs for the
secant building blocks, and direct summation for the discrete identities.

Each sweep is evaluated on arrays: a sign sweep draws all its samples at once
and makes one call.  A finite-difference check draws its FD_STATES states in
one draw, a row of doubles per state, and forms their fields as stacks with
the library's own code (_draw_states), every field the oracles read with
the bits it would have if drawn alone.  It then evaluates the states of
each flux form in stacks of FD_STACK: the oracle makes one kernel call on
the stack's states and one on all their probes, (k, M+1) and (k, r, M+1),
with the states' coefficients as per-row arrays (see _kernels), and
returns each state's error with the bits of its own call.  A failing sweep still reports its
first counterexample in sample or draw order, and a failing
finite-difference check sets the generator to where that state's draws
end, so the sweeps after it draw what they would draw after a
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
#: States of one flux form per stacked oracle call (see _fd_states).  In
#: perfbench `check`, 8 alternating runs each on a 2-core Xeon, op_ms_p50
#: went from 13.9 ms one state at a time to 11.8, 10.2 and 9.7 ms with
#: stacks of 2, 5 and 10, and peak_rss_mb rose by 0.16, 0.49 and 1.0 MB:
#: at 5 the stacks' buffers stay near half a megabyte.
FD_STACK = 5


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
    """The FD_STATES random states (spec, params, x_curr, coeffs, x_new) of a
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
             p, xc, SchemeCoefficients(mass=ma, slope_curr=slope, damped_start=i % 2 == 1), xn)
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
    """States (spec, params, x_curr, coeffs, x_new) that share the grid and
    the flux form, as rows: the grid, the flux form, x_new and x_curr of
    shape (k, M+1), and the kernels' coefficients (slope_curr, mass,
    f0_cells, h, tau, a0), k rows each but h, with tau and a0 of shape
    (k, 1)."""
    specs, params, x_curr, coeffs, x_new = zip(*states)
    grid, damped_start = specs[0].grid, coeffs[0].damped_start
    if any(s.grid != grid for s in specs) or any(c.damped_start != damped_start
                                                 for c in coeffs):
        raise ValueError("the states of one stack must share the grid and the flux form")
    return grid, damped_start, np.array(x_new, dtype=float), np.array(x_curr, dtype=float), (
        np.array([c.slope_curr for c in coeffs]), np.array([c.mass for c in coeffs]),
        np.array([s.f0_cells for s in specs]), grid.h,
        np.array([[p.tau] for p in params]), np.array([[p.a0] for p in params]))


def _per_probe(coefficients):
    """Row coefficients of _rows for a (k, r, M+1) stack of r probes per
    state: every array gains an axis of length 1 after the first."""
    return tuple(c[:, None] if isinstance(c, np.ndarray) else c for c in coefficients)


def _verdicts(errors):
    """(err, err <= FD_REL_TOL) for each state's relative error."""
    return [(err, err <= FD_REL_TOL) for err in errors.tolist()]


def gradient_vs_fd(states, work=None):
    """For each state (spec, params, x_curr, coeffs, x_new), the max
    relative mismatch between h*residual and a fourth-order central
    difference of F, and whether it is within FD_REL_TOL.  The states share
    the grid and the flux form: one residual call on the k states and one
    call of F on all 4k(M-1) probes, with per-row coefficients.  Both write
    into work, a Workspace (for_shape serves either shape; fresh workspaces
    when None).
    F is eval_F's: step_functional plus step_constant."""
    grid, damped_start, x_new, x_curr, coefficients = _rows(states)
    slope_curr, _, f0_cells, h, tau, a0 = coefficients
    k, n, X = len(states), grid.M - 1, grid.nodes()
    functional._require_admissible(x_new, grid, "candidate trajectory")
    functional._require_admissible(x_curr, grid, "base trajectory")
    g = _kernels.residual_interior(x_new, x_curr, *coefficients, damped_start, work)
    grad = h * g[:, 1:-1]

    # probes[s, i - 1, j] is state s's x_new - X with node i moved by
    # shifts[j], then X added back, as eval_F adds it
    shifts = np.array([-2.0, -1.0, 1.0, 2.0]) * GRADIENT_STEP
    probes = np.tile((x_new - X)[:, None, None], (1, n, 4, 1))
    nodes = np.arange(1, grid.M)
    probes[:, nodes - 1, :, nodes] += shifts
    probes = probes.reshape(k, 4 * n, grid.M + 1)
    probes += X
    functional._require_admissible(probes, grid, "displaced trajectory")
    f = _kernels.step_functional(probes, x_curr[:, None], *_per_probe(coefficients),
                                 damped_start, work)
    f += _kernels.step_constant(slope_curr, f0_cells, h, tau, a0, damped_start)[:, None]
    f = f.reshape(k, n, 4)
    fd = (f[..., 0] - 8.0 * f[..., 1] + 8.0 * f[..., 2] - f[..., 3]) / (12.0 * GRADIENT_STEP)
    return _verdicts(np.max(np.abs(fd - grad), axis=-1) / np.max(np.abs(grad), axis=-1))


def hessian_vs_fd(states, work=None):
    """For each state (spec, params, x_curr, coeffs, x_new), the max
    relative mismatch between the assembled tridiagonal and central
    differences of the residual, and whether it is within FD_REL_TOL.  The
    comparison is dense, so a coupling outside the tridiagonal counts too.
    The states share the grid and the flux form: one Hessian call on the k
    states and one residual call on all 2k(M-1) probes, with per-row
    coefficients.  Both write into work, a Workspace (for_shape serves
    either shape; fresh workspaces when None)."""
    grid, damped_start, x_new, x_curr, coefficients = _rows(states)
    k, n = len(states), grid.M - 1
    functional._require_admissible(x_new, grid, "candidate trajectory")
    functional._require_admissible(x_curr, grid, "base trajectory")
    diag, off = _kernels.hessian_tridiag(x_new, *coefficients, damped_start, work)
    dense = np.zeros((k, n, n))
    i = np.arange(n)
    dense[:, i, i] = diag
    dense[:, i[:-1], i[1:]] = off
    dense[:, i[1:], i[:-1]] = off

    # probes[s, 0, j] and probes[s, 1, j] are state s's x_new with node
    # j + 1 moved by +HESSIAN_STEP and -HESSIAN_STEP
    probes = np.tile(x_new[:, None, None], (1, 2, n, 1))
    probes[:, 0, i, i + 1] += HESSIAN_STEP
    probes[:, 1, i, i + 1] -= HESSIAN_STEP
    probes = probes.reshape(k, 2 * n, grid.M + 1)
    functional._require_admissible(probes, grid, "candidate trajectory")
    g = _kernels.residual_interior(probes, x_curr[:, None], *_per_probe(coefficients),
                                   damped_start, work)[..., 1:-1]
    fd = ((g[:, :n] - g[:, n:]) / (2.0 * HESSIAN_STEP)).transpose(0, 2, 1)  # d g_i / d x_j
    return _verdicts(np.max(np.abs(fd - dense), axis=(1, 2))
                     / np.max(np.abs(dense), axis=(1, 2)))


def _fd_states(rng, name: str, M: int, oracle) -> CheckResult:
    """name over the FD_STATES random states of _draw_states on M cells.
    oracle runs on the states of each flux form, FD_STACK at a time,
    through one workspace.  The check fails at the first state in draw
    order where oracle does, and sets rng to where that state's draws end
    (the sweep's start advanced by its 3 + 3M doubles per state), as a
    sweep that stopped there would leave it; else it passes with the worst
    relative error."""
    start = rng.bit_generator.state
    states, stacks = _draw_states(rng, M), {}
    for i, (_, _, _, coeffs, _) in enumerate(states):
        stacks.setdefault(coeffs.damped_start, []).append(i)
    results, work = [None] * FD_STATES, _kernels.Workspace((FD_STACK, M + 1))
    for indices in stacks.values():
        for begin in range(0, len(indices), FD_STACK):
            stack = indices[begin:begin + FD_STACK]
            for i, result in zip(stack, oracle([states[i] for i in stack], work)):
                results[i] = result
    for i, (err, ok) in enumerate(results):
        if not ok:
            rng.bit_generator.state = start
            rng.random((i + 1) * (3 + 3 * M))
            spec, params = states[i][:2]
            return CheckResult(name, False,
                               f"relative error {err:.3e} at m={spec.m!r}, tau={params.tau!r}")
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
