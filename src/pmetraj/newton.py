"""Damped Newton inner solver for one time step.

The iteration starts from the linear extrapolation 2 x^n - x^{n-1} of the
trajectory when that is admissible, and from x^n otherwise; the step is the
unique minimiser of a strictly convex functional, so the start changes the
iteration count, not the answer.  Admissibility of the base and the start is
checked once at entry: the ordering guard keeps every later iterate inside
the admissible set, so the loop calls the assembly kernels unchecked.

Each iteration assembles the residual and the SPD tridiagonal linearization
in one pass (_kernels.residual_hessian), solves it, and measures the scaled
decrement lambda = sqrt((h/a) g^T H^{-1} g).  Every update goes
through the ordering guard, which halves the step (at most 60 times) should
it try to leave the admissible set.  In the far phase (lambda >= LAMBDA_STAR)
the step starts at omega = 1 and is halved until F drops by the Armijo
fraction of the predicted decrease (backtracking, Boyd & Vandenberghe,
Convex Optimization, 9.5); in the near phase the full step is taken without
evaluating F, which keeps the quadratic contraction.  The iteration stops
when the residual max-norm drops below TOL_RESIDUAL or lambda below
TOL_LAMBDA, or when lambda has reached the roundoff floor: below
FLOOR_LAMBDA it no longer falls by the factor FLOOR_RATIO.  All of these
constants are fixed: the line search and the floor change the iteration
count, the tolerances how tightly the step's minimiser is resolved, and
none changes which scheme is solved.
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
#: Stopping tolerances on the residual max-norm and on the decrement.
TOL_RESIDUAL = 1e-12
TOL_LAMBDA = 1e-9
#: Roundoff floor: a decrement below FLOOR_LAMBDA that is still above
#: FLOOR_RATIO times its predecessor has stopped contracting.
FLOOR_LAMBDA = 1e-4
FLOOR_RATIO = 0.25


@dataclass
class NewtonReport:
    """Diagnostics of one inner solve."""

    iterations: int = 0
    lambda_history: list = field(default_factory=list)
    final_residual_norm: float = math.inf
    damped_steps: int = 0
    backtracks: int = 0  # Armijo halvings of the far-phase line search
    converged: bool = False
    predicted: bool = False  # started from the extrapolation 2 x^n - x^{n-1}
    #: why the iteration ended: "residual", "lambda" or "floor" when it
    #: converged, "line_search" or "max_iter" when it raised
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


def newton_step(state: TrajectoryState, coeffs: SchemeCoefficients,
                spec: ProblemSpec, params: SolverParams,
                x_init: np.ndarray | None = None,
                damped_start: bool = False):
    """Solve one implicit step starting from x^{n+1,0} = 2 x^n - x^{n-1} when
    that is admissible, from x^n otherwise, or from x_init when given.

    Returns the admissible solution and a NewtonReport.  Raises
    NonconvergenceError (carrying the report) if the iteration budget runs out
    or the far-phase line search finds no decrease of F.
    """
    grid = spec.grid
    x_curr = np.asarray(state.x_curr, dtype=float)
    if not is_admissible(x_curr, grid):
        raise DegenerateMeshError("base trajectory is outside the admissible set")
    predicted = False
    if x_init is None:
        x = 2.0 * x_curr - state.x_prev  # end values stay exact: 2b - b == b
        predicted = is_admissible(x, grid)
        if not predicted:
            x = x_curr.copy()
    else:
        x = np.array(x_init, dtype=float)
        if not is_admissible(x, grid):
            raise DegenerateMeshError("Newton starting point is outside the admissible set")
    a = self_concordance_a(spec)
    report = NewtonReport(predicted=predicted)

    def interior_residual(y):
        return _kernels.residual_interior(
            y, x_curr, coeffs.slope_curr, coeffs.mass, spec.f0_cells, grid.h,
            params.tau, params.a0, damped_start)[1:-1]

    def functional_value(y):
        return _kernels.step_functional(
            y, x_curr, coeffs.slope_curr, coeffs.mass, spec.f0_cells, grid.h,
            params.tau, params.a0, damped_start)

    def failure(stop, message):
        report.stop = stop
        report.final_residual_norm = float(np.max(np.abs(interior_residual(x))))
        return NonconvergenceError(
            f"{message} (last lambda {report.lambda_history[-1]:.3e}, "
            f"residual {report.final_residual_norm:.3e})",
            report=report,
        )

    f_x = None  # F at x, carried over from an accepted far-phase step
    lam_prev = math.inf
    for _ in range(params.newton_max_iter):
        gi, diag, off = _kernels.residual_hessian(
            x, x_curr, coeffs.slope_curr, coeffs.mass, spec.f0_cells, grid.h,
            params.tau, params.a0, damped_start)
        gnorm = float(np.max(np.abs(gi)))
        if gnorm < TOL_RESIDUAL:
            report.converged = True
            report.stop = "residual"
            report.final_residual_norm = gnorm
            return x, report

        delta = solve_tridiagonal(diag, off, -gi)
        del diag, off  # not kept alive through the next assembly
        lam = newton_decrement_lambda(gi, delta, a, grid)
        report.lambda_history.append(lam)

        if lam < TOL_LAMBDA:
            report.stop = "lambda"
        elif FLOOR_RATIO * lam_prev < lam < FLOOR_LAMBDA:
            report.stop = "floor"
        if report.stop or lam < LAMBDA_STAR:
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
            report.final_residual_norm = float(np.max(np.abs(interior_residual(x))))
            return x, report
        lam_prev = lam

    raise failure("max_iter", f"Newton did not converge in {params.newton_max_iter} iterations")
