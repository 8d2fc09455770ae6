"""Outer time loop: bootstrap, per-step Newton solve, energy/admissibility
enforcement, and trace/snapshot emission."""
from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import functional, newton
from .csvio import write_csv_atomic
from .errors import ConfigurationError, EnergyViolationError, SolverError
from .functional import SolverParams
from .grid import d_forward, d_wide
from .newton import NewtonReport
from .problem import (ProblemSpec, TrajectoryState, discrete_energy,
                      discrete_mass, min_cell_slope, recover_density)

#: Absolute slack on the per-step dissipation inequality, absorbing the Newton
#: stopping tolerance.
ENERGY_SLACK = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """One run.  t_final and t_final/tau must be nonnegative and finite,
    snapshot_every nonnegative, or ConfigurationError names the field."""

    spec: ProblemSpec
    params: SolverParams
    t_final: float
    snapshot_every: int = 0
    output_dir: Optional[Path] = None

    def __post_init__(self):
        if not 0.0 <= self.t_final / self.params.tau < math.inf:
            raise ConfigurationError("must be nonnegative with t_final/tau finite, got "
                                     f"{self.t_final!r}/{self.params.tau!r}", key="t_final")
        if self.snapshot_every < 0:
            raise ConfigurationError(f"must be nonnegative, got {self.snapshot_every!r}",
                                     key="snapshot_every")


@dataclass
class StepDiagnostics:
    report: NewtonReport
    energy: float
    dissipation_lhs: float
    dissipation_rhs: float
    mass: float
    min_slope: float


@dataclass
class RunResult:
    final_state: TrajectoryState
    energy_trace: list = field(default_factory=list)  # (n, t, E_h, lhs, rhs, ok)
    mass_trace: list = field(default_factory=list)    # (n, t, mass)
    newton_reports: list = field(default_factory=list)
    min_slopes: list = field(default_factory=list)


def bootstrap(spec: ProblemSpec) -> TrajectoryState:
    """Initial state: trajectory equals the reference map, and the undefined
    pre-initial field is set equal to it so the extrapolated slope collapses
    to the initial slope."""
    x0 = spec.grid.nodes()
    return TrajectoryState(n=0, t=0.0, x_curr=x0.copy(), x_prev=x0.copy())


def advance(state: TrajectoryState, spec: ProblemSpec, params: SolverParams):
    """One accepted time step; asserts the quantified energy dissipation bound.

    The opening step (n == 0) runs the fully implicit first-order flux: the
    averaged flux is not L-stable, so an under-resolved startup transient
    (rough initial data) would otherwise freeze a kink into the wall cells.
    The damped step satisfies the same dissipation bound and costs one O(tau^2)
    local error, preserving second-order accuracy globally.

    Around the Newton solve every field is formed once: the new cell slopes
    D_h x^{n+1} (one min reduction gives the least slope and checks that all
    are positive) feed the energy, the dissipation bound and the mass, and
    the new wide slopes D~_h x^{n+1} the density.  The returned state
    carries the energy and both slope kinds to the next step, which then
    forms S_h without differencing x^n or x^{n-1} again.
    """
    grid = spec.grid
    coeffs = functional.build_coefficients(state.x_curr, state.x_prev, spec, params,
                                           state.slope_curr, state.wide_curr,
                                           state.wide_prev)
    x_new, report = newton.newton_step(state, coeffs, spec, params,
                                       damped_start=(state.n == 0))

    e_old = state.e_curr
    if e_old is None:
        e_old = discrete_energy(state.x_curr, spec)
    slope_new = d_forward(x_new, grid)
    min_slope = min_cell_slope(slope_new)
    e_new = discrete_energy(x_new, spec, slope_new)
    dslope = slope_new - coeffs.slope_curr
    rhs = -params.a0 * params.tau * grid.h * float(np.dot(dslope, dslope))
    lhs = e_new - e_old
    if lhs > rhs + ENERGY_SLACK:
        raise EnergyViolationError(
            f"energy change {lhs:.6e} exceeds dissipation bound {rhs:.6e}"
        )
    wide_new = d_wide(x_new, grid)
    f_new = recover_density(x_new, spec, slope_new, wide_new)

    # The next step may start from the quadratic extrapolation only after a
    # step that began in the near phase: with tau up to 100 h near vacuum it
    # would overshoot into the far phase and cost iterations.
    near = state.n >= 1 and report.lambda_history[0] < newton.LAMBDA_STAR
    new_state = TrajectoryState(
        n=state.n + 1, t=state.t + params.tau,
        x_curr=x_new, x_prev=state.x_curr,
        x_prev2=state.x_prev if near else None,
        e_curr=e_new, slope_curr=slope_new,
        wide_curr=wide_new, wide_prev=state.wide_curr,
    )
    diag = StepDiagnostics(
        report=report,
        energy=e_new,
        dissipation_lhs=lhs,
        dissipation_rhs=rhs,
        # the trapezoid of discrete_mass, with x_{i+1} - x_i = h y_i
        mass=0.5 * grid.h * float(np.dot(f_new[:-1] + f_new[1:], slope_new)),
        min_slope=min_slope,
    )
    return new_state, diag


def _located(exc: SolverError, n: int, t: float) -> SolverError:
    """A copy of exc (same class, same attributes such as a Newton report)
    whose message starts with the step number and the time it reaches."""
    located = copy.copy(exc)
    located.args = (f"step {n} (t = {t:.6g}): {exc}",)
    return located


def _write_snapshot(out_dir: Path, state: TrajectoryState, spec: ProblemSpec) -> None:
    """snap_<n>.csv: reference node, trajectory and density at every node,
    the density from the slopes the state carries."""
    f = recover_density(state.x_curr, spec, state.slope_curr, state.wide_curr)
    rows = zip(range(spec.grid.M + 1), spec.grid.nodes().tolist(),
               state.x_curr.tolist(), f.tolist())
    write_csv_atomic(out_dir / f"snap_{state.n}.csv", ["i", "X", "x", "f"], rows)


def _plan_steps(t_final: float, tau: float):
    """Full steps plus one truncated step when tau does not divide t_final."""
    if t_final <= 0.0:
        return 0, 0.0
    n_full = int(round(t_final / tau))
    if abs(n_full * tau - t_final) <= 1e-9 * tau:
        return n_full, 0.0
    n_full = int(t_final / tau)
    return n_full, t_final - n_full * tau


def run(config: RunConfig) -> RunResult:
    spec, params = config.spec, config.params
    out_dir = Path(config.output_dir) if config.output_dir is not None else None

    state = bootstrap(spec)
    e0 = discrete_energy(state.x_curr, spec)
    m0 = discrete_mass(state.x_curr, recover_density(state.x_curr, spec))
    result = RunResult(final_state=state)
    result.energy_trace.append((0, 0.0, e0, 0.0, 0.0, True))
    result.mass_trace.append((0, 0.0, m0))

    if out_dir is not None:
        _write_snapshot(out_dir, state, spec)

    n_full, tail = _plan_steps(config.t_final, params.tau)
    total_steps = n_full + (1 if tail > 0.0 else 0)
    for k in range(total_steps):
        step_params = params
        if k == n_full:  # truncated final step lands exactly on t_final
            step_params = dataclasses.replace(params, tau=tail)
        try:
            state, diag = advance(state, spec, step_params)
        except SolverError as exc:
            raise _located(exc, state.n + 1, state.t + step_params.tau) from exc
        result.energy_trace.append((
            state.n, state.t, diag.energy,
            diag.dissipation_lhs, diag.dissipation_rhs,
            diag.dissipation_lhs <= diag.dissipation_rhs + ENERGY_SLACK,
        ))
        result.mass_trace.append((state.n, state.t, diag.mass))
        result.newton_reports.append(diag.report)
        result.min_slopes.append(diag.min_slope)
        if out_dir is not None:
            periodic = config.snapshot_every > 0 and state.n % config.snapshot_every == 0
            if periodic or state.n == total_steps:
                _write_snapshot(out_dir, state, spec)

    result.final_state = state
    if out_dir is not None:
        write_csv_atomic(
            out_dir / "energy.csv",
            ["n", "t", "E_h", "dissipation_lhs", "dissipation_rhs"],
            [row[:5] for row in result.energy_trace],
        )
        write_csv_atomic(out_dir / "mass.csv", ["n", "t", "mass"], result.mass_trace)
    return result
