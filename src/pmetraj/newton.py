"""Damped Newton inner solver for one time step.

The iteration starts from the linear extrapolation 2 x^n - x^{n-1} of the
trajectory when that is admissible, and from x^n otherwise; the step is the
unique minimiser of a strictly convex functional, so the start changes the
iteration count, not the answer.  Admissibility of the base and the start is
checked once at entry: the ordering guard keeps every later iterate inside
the admissible set, so the loop calls the assembly kernels unchecked.

Each iteration solves the SPD tridiagonal linearization, measures the scaled
decrement lambda = sqrt((h/a) g^T H^{-1} g), damps by the three-branch rule
omega(lambda), and halves omega further (at most 60 times) should an update
try to leave the admissible set.  Convergence is declared when lambda drops
below its tolerance or the residual max-norm does.  The damping constants
are fixed: like the start, they change the iteration count, not the answer.
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

#: Damping threshold below which full Newton steps are taken.
LAMBDA_STAR = 2.0 - math.sqrt(3.0)
#: Decrement above which the step is scaled by 1/lambda.
LAMBDA_PRIME = 0.9
#: Scale of the self-concordance parameter a = h min f0 / (2 C_NEWTON^2).
C_NEWTON = 1.0


@dataclass
class NewtonReport:
    """Diagnostics of one inner solve."""

    iterations: int = 0
    lambda_history: list = field(default_factory=list)
    final_residual_norm: float = math.inf
    damped_steps: int = 0
    converged: bool = False
    predicted: bool = False  # started from the extrapolation 2 x^n - x^{n-1}


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


def damping_omega(lam: float) -> float:
    """Three-branch damping: 1/lambda above lambda' = 0.9, (1-l)/(l(3-l)) in
    the middle band, full steps below lambda* = 2 - sqrt(3)."""
    if lam > LAMBDA_PRIME:
        return 1.0 / lam
    if lam >= LAMBDA_STAR:
        return (1.0 - lam) / (lam * (3.0 - lam))
    return 1.0


def self_concordance_a(spec: ProblemSpec) -> float:
    """Self-concordance parameter a = h * min f0 / (2 C_NEWTON^2)."""
    return spec.grid.h * spec.f0_min / (2.0 * C_NEWTON ** 2)


def _guarded_update(x: np.ndarray, delta: np.ndarray, omega: float, grid: Grid):
    """Apply x += omega*delta on the interior, halving omega while the update
    would cross nodes."""
    cand = x.copy()
    for _ in range(MAX_GUARD_HALVINGS + 1):
        cand[1:-1] = x[1:-1] + omega * delta
        if np.all(np.diff(cand) > 0.0):
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
    NonconvergenceError (carrying the report) if the iteration budget runs out.
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

    for _ in range(params.newton_max_iter):
        gi = interior_residual(x)
        gnorm = float(np.max(np.abs(gi)))
        if gnorm < params.newton_tol_residual:
            report.converged = True
            report.final_residual_norm = gnorm
            return x, report

        diag, off = _kernels.hessian_tridiag(
            x, coeffs.slope_curr, coeffs.mass, spec.f0_cells, grid.h,
            params.tau, params.a0, damped_start)
        delta = solve_tridiagonal(diag, off, -gi)
        lam = newton_decrement_lambda(gi, delta, a, grid)
        report.lambda_history.append(lam)

        finishing = lam < params.newton_tol_lambda
        omega = 1.0 if finishing else damping_omega(lam)
        omega, x = _guarded_update(x, delta, omega, grid)
        report.iterations += 1
        if omega < 1.0:
            report.damped_steps += 1
        if finishing:
            report.converged = True
            report.final_residual_norm = float(np.max(np.abs(interior_residual(x))))
            return x, report

    report.final_residual_norm = float(np.max(np.abs(interior_residual(x))))
    raise NonconvergenceError(
        f"Newton did not converge in {params.newton_max_iter} iterations "
        f"(last lambda {report.lambda_history[-1]:.3e}, "
        f"residual {report.final_residual_norm:.3e})",
        report=report,
    )
