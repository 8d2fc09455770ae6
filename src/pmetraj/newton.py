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
Admissibility of the base and the start is checked once at entry: the
ordering guard keeps every later iterate inside the admissible set, so the
loop calls the assembly kernels unchecked.

Each iteration assembles the residual and the SPD tridiagonal linearization
in one pass (_kernels.residual_hessian), solves it, and measures the scaled
decrement lambda = sqrt((h/a) g^T H^{-1} g).  Every update goes
through the ordering guard, which halves the step (at most 60 times) should
it try to leave the admissible set.  In the far phase (lambda >= LAMBDA_STAR)
the step starts at omega = 1 and is halved until F drops by the Armijo
fraction of the predicted decrease (backtracking, Boyd & Vandenberghe,
Convex Optimization, 9.5); in the near phase the full step is taken without
evaluating F, which keeps the quadratic contraction.

The iteration stops when the residual max-norm at an iterate drops below
TOL_RESIDUAL, or after the full near-phase step once (lambda/(1 - lambda))^2
< TOL_LAMBDA.  The second rule is certified: a is scaled so that F is
self-concordant, and a full Newton step from a decrement lambda < 1 then
lands at a decrement of at most (lambda/(1 - lambda))^2 (Nesterov &
Nemirovskii 1994; Boyd & Vandenberghe, 9.6.4).  So the point returned is
inside the tolerance without being assembled again, and no rule for a
decrement stuck on its roundoff floor is needed: the rule fires once lambda
is below about sqrt(TOL_LAMBDA), some 6 times above the worst floor seen
(5e-6, at M = 1e5, m = 8, min f0 = 1e-4).  All of these constants are
fixed: the line search changes the iteration count, the tolerances how
tightly the step's minimiser is resolved, and none changes which scheme is
solved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (DegenerateMeshError, NonconvergenceError,
                     SingularSystemError, SpdViolationError)
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
#: Stopping tolerances on the residual max-norm and on the certified bound
#: (lambda/(1 - lambda))^2 of the decrement after a full step.
TOL_RESIDUAL = 1e-12
TOL_LAMBDA = 1e-9


@dataclass
class NewtonReport:
    """Diagnostics of one inner solve."""

    iterations: int = 0
    #: the decrement at each assembled iterate; on a "lambda" stop the last
    #: entry is the one before the final full step, whose own decrement is
    #: at most (lambda/(1 - lambda))^2 < TOL_LAMBDA and is not measured
    lambda_history: list = field(default_factory=list)
    #: unscaled residual max-norm at the last assembled iterate: the returned
    #: point on a "residual" stop, the one before the final step on a
    #: "lambda" stop.  Not a convergence measure: it carries the scale of
    #: the Hessian (up to f0/h^2), and on converged steps at M = 1e5, m = 8,
    #: min f0 = 1e-4 it reads about 0.2
    final_residual_norm: float = math.inf
    damped_steps: int = 0
    backtracks: int = 0  # Armijo halvings of the far-phase line search
    converged: bool = False
    #: the first iterate: "quadratic" (3 x^n - 3 x^{n-1} + x^{n-2}),
    #: "linear" (2 x^n - x^{n-1}), "current" (x^n) or "given" (x_init)
    start: str = ""
    #: why the iteration ended: "residual" or "lambda" when it converged,
    #: "line_search" or "max_iter" when it raised
    stop: str = ""


def solve_tridiagonal(diag: np.ndarray, offdiag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system with diagonal `diag` and
    off-diagonal entries `offdiag` (one fewer)."""
    diag = np.ascontiguousarray(diag, dtype=float)
    offdiag = np.ascontiguousarray(offdiag, dtype=float)
    rhs = np.ascontiguousarray(rhs, dtype=float)
    n = diag.shape[0]
    if offdiag.shape[0] != n - 1 or rhs.shape[0] != n:
        raise ValueError(
            f"inconsistent tridiagonal system: diag {n}, offdiag {offdiag.shape[0]}, "
            f"rhs {rhs.shape[0]}"
        )
    try:
        return _kernels.thomas_spd(diag, offdiag, rhs)
    except ValueError as exc:
        raise SingularSystemError(str(exc)) from exc


def newton_decrement_lambda(g: np.ndarray, delta: np.ndarray, a: float,
                            grid: Grid) -> float:
    """lambda = sqrt((h/a) * (-g . delta)) for delta solving H delta = -g.

    The factor h reinstates the inner-product weight carried by the functional;
    -g . delta = g^T H^{-1} g >= 0 whenever H is SPD.
    """
    inner = -float(np.dot(g, delta))
    if inner < -1e-14:
        raise SpdViolationError(
            f"negative curvature inner product {inner:.3e} in decrement"
        )
    return math.sqrt(grid.h / a * max(inner, 0.0))


def self_concordance_a(spec: ProblemSpec) -> float:
    """Self-concordance parameter a = h * min f0 / (2 C_NEWTON^2)."""
    return spec.grid.h * spec.f0_min / (2.0 * C_NEWTON ** 2)


def _guarded_update(x: np.ndarray, delta: np.ndarray, omega: float, grid: Grid):
    """Apply x += omega*delta on the interior, halving omega while the update
    would cross nodes."""
    cand = x.copy()
    for _ in range(MAX_GUARD_HALVINGS + 1):
        cand[1:-1] = x[1:-1] + omega * delta
        if (cand[1:] > cand[:-1]).all():
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
                x_init: np.ndarray | None = None,
                damped_start: bool = False):
    """Solve one implicit step from x_init when given, else from the first
    admissible of 3 x^n - 3 x^{n-1} + x^{n-2} (when state.x_prev2 is set),
    2 x^n - x^{n-1} and x^n.

    Returns the admissible solution and a NewtonReport.  Raises
    NonconvergenceError (carrying the report) if the iteration budget runs out
    or the far-phase line search finds no decrease of F.
    """
    grid = spec.grid
    x_curr = np.asarray(state.x_curr, dtype=float)
    if not is_admissible(x_curr, grid):
        raise DegenerateMeshError("base trajectory is outside the admissible set")
    if x_init is None:
        x, start = _extrapolated_start(state, x_curr, grid)
    else:
        start = "given"
        x = np.array(x_init, dtype=float)
        if not is_admissible(x, grid):
            raise DegenerateMeshError("Newton starting point is outside the admissible set")
    a = self_concordance_a(spec)
    report = NewtonReport(start=start)

    def functional_value(y):
        return _kernels.step_functional(
            y, x_curr, coeffs.slope_curr, coeffs.mass, spec.f0_cells, grid.h,
            params.tau, params.a0, damped_start)

    def failure(stop, message):
        report.stop = stop
        return NonconvergenceError(
            f"{message} (last lambda {report.lambda_history[-1]:.3e}, "
            f"residual {report.final_residual_norm:.3e})",
            report=report,
        )

    f_x = None  # F at x, carried over from an accepted far-phase step
    for _ in range(params.newton_max_iter):
        gi, diag, off = _kernels.residual_hessian(
            x, x_curr, coeffs.slope_curr, coeffs.mass, spec.f0_cells, grid.h,
            params.tau, params.a0, damped_start)
        report.final_residual_norm = float(np.max(np.abs(gi)))
        if report.final_residual_norm < TOL_RESIDUAL:
            report.converged = True
            report.stop = "residual"
            return x, report

        delta = solve_tridiagonal(diag, off, -gi)
        del diag, off  # not kept alive through the next assembly
        lam = newton_decrement_lambda(gi, delta, a, grid)
        report.lambda_history.append(lam)

        if lam < LAMBDA_STAR:
            if (lam / (1.0 - lam)) ** 2 < TOL_LAMBDA:
                report.stop = "lambda"
            omega, x = _guarded_update(x, delta, 1.0, grid)
            f_x = None
        else:
            if f_x is None:
                f_x = functional_value(x)
            armijo = ARMIJO_C * a * lam * lam  # ARMIJO_C h g^T H^{-1} g
            omega = 1.0
            while True:
                omega, cand = _guarded_update(x, delta, omega, grid)
                f_cand = functional_value(cand)
                if f_cand <= f_x - omega * armijo:
                    break
                if omega <= MIN_OMEGA:
                    raise failure("line_search", "line search found no decrease "
                                  f"of F down to step {MIN_OMEGA:.1e}")
                omega *= 0.5
                report.backtracks += 1
            x, f_x = cand, f_cand
        report.iterations += 1
        if omega < 1.0:
            report.damped_steps += 1
        if report.stop:
            report.converged = True
            return x, report

    raise failure("max_iter", f"Newton did not converge in {params.newton_max_iter} iterations")
