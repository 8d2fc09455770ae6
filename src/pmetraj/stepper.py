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

from . import _kernels, functional, newton
from .csvio import format_columns, write_csv_atomic
from .errors import (ConfigurationError, EnergyViolationError, SolverError, require,
                     require_count)
from .functional import SolverParams
from .grid import as_trajectory, d_forward, d_wide
from .newton import NewtonReport
from .problem import (ProblemSpec, TrajectoryState, discrete_energy,
                      discrete_mass, min_cell_slope, recover_density,
                      require_admissible)

#: Absolute slack on the per-step dissipation inequality, absorbing the Newton
#: stopping tolerance.
ENERGY_SLACK = 1e-10
#: Relative slack added to it, as a share of the larger |E_h| of the step plus
#: ProblemSpec.energy_scale = h sum f0: the difference of two energies cannot
#: be resolved below an ulp of either, nor below the rounding of their terms,
#: which is about eps h sum f0 even where ln(D_h x) and so E_h are near 0.
#: ENERGY_SLACK alone is under that once |E_h| or h sum f0 exceeds about 5e5.
ENERGY_ROUNDING = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RunConfig:
    """One run.  t_final and t_final/tau must be nonnegative and finite,
    snapshot_every an integer >= 0 (errors.require_count), or
    ConfigurationError names the field."""

    spec: ProblemSpec
    params: SolverParams
    t_final: float
    snapshot_every: int = 0
    output_dir: Optional[Path] = None

    def __post_init__(self):
        require(self.t_final, "t_final", "must be nonnegative with t_final/tau finite",
                lambda t: 0.0 <= t / self.params.tau < math.inf)
        require_count(self.snapshot_every, "snapshot_every", 0)


@dataclass
class StepDiagnostics:
    report: NewtonReport
    dissipation_lhs: float
    dissipation_rhs: float
    mass: float
    min_slope: float
    #: f^{n+1} at the nodes, in the cells of the state's workspace when it
    #: carries one: it holds only as long as the docstring of steps says
    density: np.ndarray


@dataclass
class RunResult:
    final_state: TrajectoryState
    energy_trace: list = field(default_factory=list)  # (n, t, E_h, lhs, rhs, ok)
    mass_trace: list = field(default_factory=list)    # (n, t, mass)
    newton_reports: list = field(default_factory=list)
    min_slopes: list = field(default_factory=list)


def restart(spec: ProblemSpec, n: int, t: float, x_curr: np.ndarray,
            x_prev: np.ndarray, x_prev2: np.ndarray | None = None) -> TrajectoryState:
    """The state at step n and time t of x^n = x_curr, x^{n-1} = x_prev and
    x^{n-2} = x_prev2 (for a quadratic Newton start), with every field the
    next step reads and a fresh Workspace.  Each trajectory, an array or a
    sequence of numbers, is converted here to a float array (a float array
    is kept as it is), the one conversion the run makes.

    Every field is checked here, once, before the energy is formed:
    newton_step and the steps after it trust them.  n must be an integer
    >= 0 (errors.require_count) and t a nonnegative finite number, or
    ConfigurationError names the field.  Each trajectory must be one node
    field of shape (M+1,), or ValueError (grid.as_trajectory) names it,
    and admissible with finite nodes, or DegenerateMeshError
    (problem.require_admissible) names it and its first node or cell at
    fault.  At n = 0 there is no x^{-1}: the opening step's x_prev is
    x_curr (bootstrap), and any other x_prev raises ConfigurationError,
    since its wide slopes would enter the opening step's mass
    coefficient; so does any x_prev2, for there is no x^{-2} either."""
    require_count(n, "n", 0)
    require(t, "t", "must be nonnegative and finite", lambda t: 0.0 <= t < math.inf)
    grid = spec.grid
    fields = {"x_curr": x_curr, "x_prev": x_prev, "x_prev2": x_prev2}
    for name, x in fields.items():
        if x is not None:
            fields[name] = require_admissible(as_trajectory(x, grid, name), grid, name)
    x_curr, x_prev, x_prev2 = fields.values()
    if n == 0 and not np.array_equal(x_prev, x_curr):
        raise ConfigurationError("must equal x_curr at n = 0, where there is no x^{-1}",
                                 key="x_prev")
    if n == 0 and x_prev2 is not None:
        raise ConfigurationError("must be None, as n = 0 has no x^{-2}", key="x_prev2")
    slope_curr = d_forward(x_curr, grid)  # positive: the gate refused any other
    return TrajectoryState(n=n, t=t, x_curr=x_curr, x_prev=x_prev, x_prev2=x_prev2,
                           e_curr=discrete_energy(x_curr, spec, slope_curr),
                           slope_curr=slope_curr,
                           wide_curr=d_wide(x_curr, grid), wide_prev=d_wide(x_prev, grid),
                           work=_kernels.Workspace(x_curr.shape))


def bootstrap(spec: ProblemSpec) -> TrajectoryState:
    """The restart at n = 0 from the reference map, with x^{-1} = x^0 so
    that the extrapolated slope collapses to the initial slope."""
    x0 = spec.grid.nodes()
    return restart(spec, 0, 0.0, x0, x0.copy())


def advance(state: TrajectoryState, spec: ProblemSpec, params: SolverParams):
    """One accepted time step; asserts the quantified energy dissipation bound.

    The opening step (n == 0) runs the fully implicit first-order flux: the
    averaged flux is not L-stable, so an under-resolved startup transient
    (rough initial data) would otherwise freeze a kink into the wall cells.
    The damped step satisfies the same dissipation bound and costs one O(tau^2)
    local error, preserving second-order accuracy globally.  The choice is
    made here once, as the damped_start field of the step's coefficients,
    which Newton and the functional read.

    Around the Newton solve every field is formed once: the new cell slopes
    D_h x^{n+1} (one min reduction gives the least slope and checks that all
    are positive) feed the energy, the dissipation bound and the mass, and
    the new wide slopes D~_h x^{n+1} the density; the returned state
    carries the energy and both slope kinds to the next step.  The step's
    coefficients are dropped once Newton returns, and the density and the
    pair sums of the mass go into the cells of the state's workspace,
    which the solve leaves dead (Workspace.after_step), so the step holds
    no more node fields after Newton than in it.  A state that carries no
    workspace (a run's final_state) is given one here, and the new state
    carries it on.
    """
    grid = spec.grid
    if state.work is None:
        state = dataclasses.replace(state, work=_kernels.Workspace(state.x_curr.shape))
    coeffs = functional.build_coefficients(state.slope_curr, state.wide_curr,
                                           state.wide_prev, spec, params,
                                           damped_start=state.n == 0)
    x_new, report = newton.newton_step(state, coeffs, spec, params)
    factor = -coeffs.a0 * coeffs.tau * coeffs.h  # of the dissipation bound
    del coeffs  # its mass is not kept alive beside the new fields

    slope_new = d_forward(x_new, grid)
    min_slope = min_cell_slope(slope_new, "new trajectory")
    e_new = discrete_energy(x_new, spec, slope_new)
    dslope = slope_new - state.slope_curr
    rhs = factor * float(np.dot(dslope, dslope))
    del dslope  # not kept alive beside the density
    lhs = e_new - state.e_curr
    rounding = ENERGY_ROUNDING * (max(abs(state.e_curr), abs(e_new)) + spec.energy_scale)
    if lhs > rhs + ENERGY_SLACK + rounding:
        raise EnergyViolationError(
            f"energy change {lhs:.6e} exceeds dissipation bound {rhs:.6e}"
        )
    wide_new = d_wide(x_new, grid)
    f_new, pairs = state.work.after_step()
    f_new = recover_density(x_new, spec, slope_new, wide_new, out=f_new)
    pairs = np.add(f_new[:-1], f_new[1:], out=pairs)

    # The next step may start from the quadratic extrapolation only after a
    # step that began in the near phase: with tau up to 100 h near vacuum it
    # would overshoot into the far phase and cost iterations.
    near = state.n >= 1 and report.lambda_history[0] < newton.LAMBDA_STAR
    new_state = TrajectoryState(
        n=state.n + 1, t=state.t + params.tau,
        x_curr=x_new, x_prev=state.x_curr,
        x_prev2=state.x_prev if near else None,
        e_curr=e_new, slope_curr=slope_new,
        wide_curr=wide_new, wide_prev=state.wide_curr, work=state.work,
    )
    diag = StepDiagnostics(
        report=report,
        dissipation_lhs=lhs,
        dissipation_rhs=rhs,
        # the trapezoid of discrete_mass, with x_{i+1} - x_i = h y_i
        mass=0.5 * grid.h * float(np.dot(pairs, slope_new)),
        min_slope=min_slope,
        density=f_new,
    )
    return new_state, diag


def _located(exc: SolverError, n: int, t: float) -> SolverError:
    """A copy of exc (same class, same attributes such as a Newton report)
    whose message starts with the step number and the time it reaches."""
    located = copy.copy(exc)
    located.args = (f"step {n} (t = {t:.6g}): {exc}",)
    return located


def _write_snapshot(out_dir: Path, n: int, x: list, f: list,
                    labels: list[str]) -> None:
    """snap_<n>.csv: reference node, trajectory x and density f at every
    node.  labels holds the columns i and X of every row as "i,X" strings:
    they depend on the grid alone, so run formats them once per run, and
    each snapshot formats only x and f, lists of floats (x is of strings at
    n = 0, where it is the reference map X that run formatted)."""
    write_csv_atomic(out_dir / f"snap_{n}.csv", ["i", "X", "x", "f"], (labels, x, f))


def _plan_steps(t_final: float, tau: float):
    """Full steps plus one truncated step when tau does not divide t_final
    (RunConfig's t_final, so t_final/tau is nonnegative and finite)."""
    n_full = int(round(t_final / tau))
    if abs(n_full * tau - t_final) <= 1e-9 * tau:
        return n_full, 0.0
    n_full = int(t_final / tau)
    return n_full, t_final - n_full * tau


def steps(config: RunConfig, state: TrajectoryState):
    """(state, StepDiagnostics) of each step of config's plan after state.

    The plan comes from (t_final, tau), truncated last step included, and
    starts at state.n, so a restarted state continues it.  diag.density
    holds only until the next step is requested.  Errors arrive located
    (_located), raised from the step's SolverError.  advance is looked up
    at every step, so a wrapper set on stepper.advance sees each one.
    """
    spec, params = config.spec, config.params
    n_full, tail = _plan_steps(config.t_final, params.tau)
    for n in range(state.n, n_full + (tail > 0.0)):
        step_params = params if n < n_full else dataclasses.replace(params, tau=tail)
        try:
            state, diag = advance(state, spec, step_params)
        except SolverError as exc:
            raise _located(exc, state.n + 1, state.t + step_params.tau) from exc
        yield state, diag


def run(config: RunConfig) -> RunResult:
    spec = config.spec
    out_dir = Path(config.output_dir) if config.output_dir is not None else None

    state = bootstrap(spec)
    # the initial density, formed once for the initial mass and snap_0.csv
    f = recover_density(state.x_curr, spec, state.slope_curr, state.wide_curr)
    # final_state is set when the run ends: holding the initial state here
    # would keep its two node fields alive through every step
    result = RunResult(final_state=None)
    result.energy_trace.append((0, 0.0, state.e_curr, 0.0, 0.0, True))
    result.mass_trace.append((0, 0.0, discrete_mass(state.x_curr, f)))

    if out_dir is not None:
        # x^0 is the reference map X, formatted once for the labels and the
        # x column of snap_0.csv
        nodes = format_columns((state.x_curr.tolist(),)).splitlines()
        labels = format_columns((range(spec.grid.M + 1), nodes)).splitlines()
        _write_snapshot(out_dir, 0, nodes, f.tolist(), labels)
    del f  # not kept alive through the steps

    snapped = 0  # the step of the last snapshot written
    for state, diag in steps(config, state):
        # advance raises on a step that breaks the dissipation bound
        result.energy_trace.append((state.n, state.t, state.e_curr,
                                    diag.dissipation_lhs, diag.dissipation_rhs, True))
        result.mass_trace.append((state.n, state.t, diag.mass))
        result.newton_reports.append(diag.report)
        result.min_slopes.append(diag.min_slope)
        if (out_dir is not None and config.snapshot_every > 0
                and state.n % config.snapshot_every == 0):
            _write_snapshot(out_dir, state.n, state.x_curr.tolist(),
                            diag.density.tolist(), labels)
            snapped = state.n
    if out_dir is not None and state.n != snapped:  # no step follows: its density holds
        _write_snapshot(out_dir, state.n, state.x_curr.tolist(),
                        diag.density.tolist(), labels)

    result.final_state = dataclasses.replace(state, work=None)  # freed with the run
    if out_dir is not None:
        write_csv_atomic(out_dir / "energy.csv",
                         ["n", "t", "E_h", "dissipation_lhs", "dissipation_rhs"],
                         tuple(zip(*result.energy_trace))[:5])
        write_csv_atomic(out_dir / "mass.csv", ["n", "t", "mass"],
                         tuple(zip(*result.mass_trace)))
    return result
