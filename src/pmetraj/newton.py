"""Damped Newton inner solver for one time step.

The iteration starts from the first admissible of the quadratic
extrapolation 3 x^n - 3 x^{n-1} + x^{n-2} of the trajectory (O(tau^3) error,
the predictor of BDF codes such as DASSL), the linear one 2 x^n - x^{n-1}
and x^n.  The quadratic start is offered only when the state carries
x^{n-2}, which stepper.advance does after a step that began in the near
phase: from a far-phase step it overshoots.  On the M = 9600 reference of
the m = 2 refinement study it takes 1.44 iterations per step, the linear
start 2.006.  The step is the unique minimiser of a strictly convex
functional, so the start changes the iteration count, not the answer.
The base x^n is admissible in every state (stepper.restart rejects any
other); the start is checked once at entry, and the ordering guard keeps
every later iterate admissible, so the loop calls the kernels unchecked.

Each iteration assembles the residual and the SPD tridiagonal linearization
in one pass (_kernels.residual_hessian), solves it, and measures the scaled
decrement lambda = sqrt((h/a) g^T H^{-1} g).  Every update goes
through the ordering guard, which halves the step (at most 60 times) should
it try to leave the admissible set.  In the far phase (lambda >= LAMBDA_STAR)
the step starts at omega = 1 and is halved until F drops by the Armijo
fraction of the predicted decrease (backtracking, Boyd & Vandenberghe,
Convex Optimization, 9.5); in the near phase the full step is taken without
evaluating F, which keeps the quadratic contraction.

A far-phase trial point c = x + omega delta is assembled first, since the
next iteration needs that assembly if c is accepted.  F is convex and the
segment [x, c] is admissible (the ordered set is convex), so
F(c) <= F(x) + omega h g(c) . delta (the first-order condition, Boyd &
Vandenberghe 3.1.3): once h g(c) . delta <= -ARMIJO_C h g^T H^{-1} g the
Armijo test holds, c is accepted without evaluating F, and its assembly is
reused.  Only when that certificate fails are F(x) (when not known from the
step before) and F(c) evaluated, in the run's workspace, for the Armijo test
itself.  A trial point the certificate accepts passes the test on F too,
so the steps are those of the test on F alone, with most evaluations of F
spared.

The iteration has one stop rule: it ends after the full near-phase step once
(lambda/(1 - lambda))^2 < TOL_LAMBDA.  The rule is certified: a is scaled so
that F is self-concordant, and a full Newton step from a decrement
lambda < 1 then lands at a decrement of at most (lambda/(1 - lambda))^2
(Nesterov & Nemirovskii 1994; Boyd & Vandenberghe, 9.6.4).  So the point
returned is inside the tolerance without being assembled again, and no
rule for a decrement stuck on its roundoff floor is needed: the rule fires
once lambda is below about sqrt(TOL_LAMBDA), some 6 times above the worst
floor seen (5e-6, at M = 1e5, m = 8, min f0 = 1e-4).  At an exact solution (constant
density, residual 0) the decrement is 0 and the full step is zero, so the
point comes back bitwise unchanged after one iteration.  All of these
constants are fixed: the line search changes the iteration count, the
tolerance how tightly the step's minimiser is resolved, and none changes
which scheme is solved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DegenerateMeshError, NonconvergenceError, SpdViolationError
from .functional import SchemeCoefficients, SolverParams
from .grid import Grid
from .problem import ProblemSpec, TrajectoryState, is_admissible

MAX_GUARD_HALVINGS = 60

#: Decrement below which full Newton steps are taken (the near phase).
LAMBDA_STAR = 2.0 - math.sqrt(3.0)
#: Scale of the self-concordance parameter a = h min f0 / (2 C_NEWTON^2).
C_NEWTON = 1.0
#: Share of the predicted decrease h g^T H^{-1} g a far-phase step must win.
ARMIJO_C = 1e-4
#: Shortest far-phase step tried before the line search gives up.
MIN_OMEGA = 2.0 ** -30
#: Stopping tolerance on the certified bound (lambda/(1 - lambda))^2 of the
#: decrement after a full step.
TOL_LAMBDA = 1e-9


@dataclass
class NewtonReport:
    """Diagnostics of one inner solve."""

    iterations: int = 0
    #: the decrement at each assembled iterate; on a "lambda" stop the last
    #: entry is the one before the final full step, whose own decrement is
    #: at most (lambda/(1 - lambda))^2 < TOL_LAMBDA and is not measured
    lambda_history: list = field(default_factory=list)
    #: unscaled residual max-norm at the last assembled point: on a "lambda"
    #: stop the iterate before the final step, on a "line_search" stop the
    #: line search's last and shortest trial point, on a "max_iter"
    #: stop the last iterate or, after a near-phase step, the one before
    #: it.  Not a convergence measure:
    #: it carries the scale of the Hessian (up to f0/h^2), and on converged
    #: steps at M = 1e5, m = 8, min f0 = 1e-4 it reads about 0.2
    final_residual_norm: float = math.inf
    damped_steps: int = 0
    backtracks: int = 0  # Armijo halvings of the far-phase line search
    #: the first iterate: "quadratic" (3 x^n - 3 x^{n-1} + x^{n-2}),
    #: "linear" (2 x^n - x^{n-1}), "current" (x^n) or "given" (x_init)
    start: str = ""
    #: why the iteration ended: "lambda" when it converged, "line_search" or
    #: "max_iter" when it raised
    stop: str = ""
    #: whether the iteration converged, read off stop (a property, not a field)
    converged = property(lambda self: self.stop == "lambda")


def solve_tridiagonal(diag: np.ndarray, offdiag: np.ndarray, rhs: np.ndarray,
                      work: _kernels.Workspace | None = None) -> np.ndarray:
    """Solve the symmetric tridiagonal system with diagonal `diag` and
    off-diagonal entries `offdiag` (one fewer), arrays or sequences of
    numbers.  The solution is a buffer of work (a fresh workspace when not
    given), valid until its next solve.  A nonpositive or NaN pivot raises
    SingularSystemError from the kernel."""
    n = len(diag)
    if len(offdiag) != n - 1 or len(rhs) != n:
        raise ValueError(f"inconsistent tridiagonal system: diag {n}, offdiag "
                         f"{len(offdiag)}, rhs {len(rhs)}")
    if work is None:
        work = _kernels.Workspace((n + 2,))
    elif work.shape != (n + 2,):
        raise ValueError(f"workspace of shape {work.shape} for a system of {n} "
                         f"unknowns, which needs ({n + 2},)")
    return _kernels.thomas_spd(diag, offdiag, rhs, work)


def newton_decrement_lambda(g: np.ndarray, delta: np.ndarray, a: float,
                            grid: Grid) -> float:
    """lambda = sqrt((h/a) * (-g . delta)) for delta solving H delta = -g.

    The factor h reinstates the inner-product weight carried by the functional;
    -g . delta = g^T H^{-1} g >= 0 whenever H is SPD.  A zero residual gives
    +0.0, although -g . delta is then -0.0.
    """
    inner = -float(np.dot(g, delta))
    if inner < -1e-14:
        raise SpdViolationError(
            f"negative curvature inner product {inner:.3e} in decrement"
        )
    return math.sqrt(grid.h / a * max(0.0, inner))  # max keeps 0.0 over -0.0


def self_concordance_a(spec: ProblemSpec) -> float:
    """Self-concordance parameter a = h * min f0 / (2 C_NEWTON^2)."""
    return spec.grid.h * spec.f0_min / (2.0 * C_NEWTON ** 2)


def _guarded_update(x: np.ndarray, delta: np.ndarray, omega: float,
                    cand: np.ndarray, mask: np.ndarray):
    """Apply x += omega*delta on the interior, halving omega while the update
    would cross nodes.  The candidate is written into cand and the ordering
    test into mask (M bools)."""
    cand[0], cand[-1] = x[0], x[-1]
    inner = cand[1:-1]
    for _ in range(MAX_GUARD_HALVINGS + 1):
        np.multiply(delta, omega, out=inner)
        inner += x[1:-1]
        if np.greater(cand[1:], cand[:-1], out=mask).all():
            return omega, cand
        omega *= 0.5
    raise DegenerateMeshError(
        "admissibility safeguard exhausted: no damped step stays inside the "
        "admissible set"
    )


def _extrapolated_start(state: TrajectoryState, x_curr: np.ndarray, grid: Grid):
    """The first admissible of 3 x^n - 3 x^{n-1} + x^{n-2} (when x^{n-2} is
    carried), 2 x^n - x^{n-1} and x^n, with its NewtonReport.start name.

    Every candidate is formed in one buffer, and the end values stay exact:
    3(b - b) + b == 2b - b == b."""
    x = np.empty_like(x_curr)
    if state.x_prev2 is not None:
        np.subtract(x_curr, state.x_prev, out=x)
        x *= 3.0
        x += state.x_prev2
        if is_admissible(x, grid):
            return x, "quadratic"
    np.multiply(x_curr, 2.0, out=x)
    x -= state.x_prev
    if is_admissible(x, grid):
        return x, "linear"
    x[:] = x_curr
    return x, "current"


def newton_step(state: TrajectoryState, coeffs: SchemeCoefficients,
                spec: ProblemSpec, params: SolverParams,
                x_init: np.ndarray | None = None):
    """Solve one implicit step with the step's coefficients coeffs (the
    flux form among them), which every call of the assembly and of F reads,
    from x_init when given, else from the first admissible of
    3 x^n - 3 x^{n-1} + x^{n-2} (when state.x_prev2 is set), 2 x^n - x^{n-1}
    and x^n, which is admissible in every state of stepper.restart or advance.

    Every iteration writes the assembly, the solve and any evaluation of F
    into state.work (a fresh Workspace when the state carries none); the
    Newton step, the workspace's rhs, holds across the assemblies at the far
    phase's trial points.  The iterate goes into one of two node fields of
    this step, the start and one more: the solution returned is one of
    them, which the next state keeps.

    Returns the admissible solution and a NewtonReport.  Raises
    NonconvergenceError (carrying the report) if the iteration budget runs out
    or the far-phase line search finds no decrease of F.
    """
    grid = spec.grid
    x_curr = np.asarray(state.x_curr, dtype=float)
    if x_init is None:
        x, start = _extrapolated_start(state, x_curr, grid)
    else:
        start = "given"
        x = np.array(x_init, dtype=float)
        if not is_admissible(x, grid):
            raise DegenerateMeshError("Newton starting point is outside the admissible set")
    a = self_concordance_a(spec)
    report = NewtonReport(start=start)
    work = state.work if state.work is not None else _kernels.Workspace(x_curr.shape)
    spare = np.empty_like(x)  # the iterate buffer x does not hold

    def finish(stop):  # the residual norm at the last assembled point
        report.stop = stop
        # diag is free once the step is solved
        report.final_residual_norm = float(np.abs(gi, out=work.diag).max())

    def failure(stop, message):
        finish(stop)
        return NonconvergenceError(
            f"{message} (last lambda {report.lambda_history[-1]:.3e}, "
            f"residual {report.final_residual_norm:.3e})",
            report=report,
        )

    f_x = None  # F at x, known after a step accepted on F itself
    assembled = False  # whether gi, diag and off already hold x's assembly
    for _ in range(params.newton_max_iter):
        if not assembled:
            gi, diag, off = _kernels.residual_hessian(x, x_curr, coeffs, work)
        delta = solve_tridiagonal(diag, off, np.negative(gi, out=work.rhs), work)
        lam = newton_decrement_lambda(gi, delta, a, grid)
        report.lambda_history.append(lam)

        if lam < LAMBDA_STAR:
            if (lam / (1.0 - lam)) ** 2 < TOL_LAMBDA:
                finish("lambda")
            omega, cand = _guarded_update(x, delta, 1.0, spare, work.mask)
            x, spare, f_x, assembled = cand, x, None, False
        else:
            armijo = ARMIJO_C * a * lam * lam  # ARMIJO_C h g^T H^{-1} g
            omega = 1.0
            while True:
                omega, cand = _guarded_update(x, delta, omega, spare, work.mask)
                gi, diag, off = _kernels.residual_hessian(cand, x_curr, coeffs, work)
                # F is convex, so F(cand) <= F(x) + omega h g(cand) . delta:
                # Armijo holds, with no evaluation of F, once h g(cand) . delta
                # <= -armijo
                if grid.h * float(np.dot(gi, delta)) <= -armijo:
                    f_x = None
                    break
                if f_x is None:
                    f_x = _kernels.step_functional(x, x_curr, coeffs, work)
                f_cand = _kernels.step_functional(cand, x_curr, coeffs, work)
                if f_cand <= f_x - omega * armijo:
                    f_x = f_cand
                    break
                if omega <= MIN_OMEGA:
                    raise failure("line_search", "line search found no decrease "
                                  f"of F down to step {MIN_OMEGA:.1e}")
                omega *= 0.5
                report.backtracks += 1
            x, spare, assembled = cand, x, True
        report.iterations += 1
        if omega < 1.0:
            report.damped_steps += 1
        if report.stop:
            return x, report

    raise failure("max_iter", f"Newton did not converge in {params.newton_max_iter} iterations")
