"""The contract of the package's public surface.

pmetraj exports its API and none of the scheme's internals, which stay
importable from their modules.  Every public entry that takes a node or
cell field is called with each of five inputs in place of one argument: a
field one node short, a 2-row stack, a 0-d value, a field with a NaN node
and the field as a list of floats.  Each call returns the good call's
result bitwise (the list), one result per row, each that row's own call
(a stack, for the entries that take stacks), or raises a ValueError or a
pmetraj error whose message starts with the name it gives the argument.
"""
import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest

import pmetraj
from pmetraj import (DegenerateMeshError, Grid, SolverError, TrajectoryState,
                     d_centered_to_nodes, d_forward, d_wide, density_error_norms,
                     discrete_energy, discrete_mass, is_admissible, make_problem,
                     quadratic_bump, recover_density, restart, trajectory_error_norms)

#: The package's public names other than modules.
API = (
    "CoefficientOverflowError", "ConfigurationError", "ConvergenceReport", "DataScaleError",
    "DegenerateMeshError", "EnergyViolationError", "ErrorRecord", "Grid", "NewtonReport",
    "NonconvergenceError", "ProblemSpec", "RunConfig", "RunResult", "SingularSystemError",
    "SolverError", "SolverParams", "SpdViolationError", "StudyResult", "TrajectoryState",
    "advance", "backend_name", "bootstrap", "convergence_studies", "convergence_study",
    "d_centered_to_nodes", "d_forward", "d_wide", "density_error_norms", "discrete_energy",
    "discrete_mass", "initial_data_from_key", "is_admissible", "make_problem",
    "observed_orders", "quadratic_bump", "recover_density", "refinement_study", "restart",
    "run", "run_many", "steps", "trajectory_error_norms",
)
#: How a step is solved, by module: not the API, but importable from there.
INTERNALS = {
    "functional": ("SchemeCoefficients", "build_coefficients", "compute_s_h",
                   "mass_coefficient", "secant_ratio_R", "slope_derivative_W", "q1_oracle",
                   "g_convex_integral", "residual", "hessian_coefficients", "eval_F"),
    "newton": ("LAMBDA_STAR", "newton_decrement_lambda", "self_concordance_a",
               "solve_tridiagonal", "newton_step"),
}


def test_the_package_exports_its_api_and_no_internal():
    public = {name for name, value in vars(pmetraj).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(API) == 42 and public == set(API)
    for module, names in INTERNALS.items():
        namespace = vars(importlib.import_module(f"pmetraj.{module}"))
        for name in names:
            assert name in namespace and name not in public


GRID, FINE = Grid(0.0, 1.0, 8), Grid(0.0, 1.0, 16)
SPEC = make_problem(2.0, GRID, quadratic_bump)
X = GRID.nodes() + 0.02 * GRID.nodes() * (1.0 - GRID.nodes())
XR = FINE.nodes() + 0.021 * FINE.nodes() * (1.0 - FINE.nodes())
F, FR = recover_density(X, SPEC), 1.0 + quadratic_bump(XR)
CELLS = d_forward(X, GRID)

# Each public entry that takes a field, by the argument that is replaced:
# its call on that argument, the argument's good value, the name the
# entry's messages give it, and its kind: "stacks" for the entries that
# take stacks, "gate" for those that pass it through
# problem.require_admissible, which names a NaN node.
_ENTRIES = {
    "restart x_curr": (lambda v: restart(SPEC, 1, GRID.h, v, X, X), X, "x_curr", "gate"),
    "restart x_prev": (lambda v: restart(SPEC, 1, GRID.h, X, v, X), X, "x_prev", "gate"),
    "restart x_prev2": (lambda v: restart(SPEC, 1, GRID.h, X, X, v), X, "x_prev2", "gate"),
    "recover_density x": (lambda v: recover_density(v, SPEC), X, "trajectory", "gate"),
    "discrete_energy x": (lambda v: discrete_energy(v, SPEC), X, "trajectory", "gate"),
    "discrete_mass x": (lambda v: discrete_mass(v, F), X, "x", None),
    "discrete_mass f": (lambda v: discrete_mass(X, v), F, "f", None),
    "is_admissible x": (lambda v: is_admissible(v, GRID), X, "trajectory", "stacks"),
    "d_forward l": (lambda v: d_forward(v, GRID), X, "field", "stacks"),
    "d_wide l": (lambda v: d_wide(v, GRID), X, "field", "stacks"),
    "d_centered_to_nodes phi": (lambda v: d_centered_to_nodes(v, GRID), CELLS, "field", None),
    "trajectory_error_norms coarse_x": (lambda v: trajectory_error_norms(v, XR, GRID),
                                        X, "coarse_x", None),
    "trajectory_error_norms reference_x": (lambda v: trajectory_error_norms(X, v, GRID),
                                           XR, "reference_x", None),
    "density_error_norms coarse_x": (lambda v: density_error_norms(v, F, XR, FR),
                                     X, "coarse_x", None),
    "density_error_norms coarse_f": (lambda v: density_error_norms(X, v, XR, FR),
                                     F, "coarse_f", None),
    "density_error_norms reference_x": (lambda v: density_error_norms(X, F, v, FR),
                                        XR, "reference_x", None),
    "density_error_norms reference_f": (lambda v: density_error_norms(X, F, XR, v),
                                        FR, "reference_f", None),
}
# An entry that knows no grid cannot tell a short field from a long
# partner: the one whose length sets the other's names the fault.
_SHORT_PARTNER = {"discrete_mass x": "f", "density_error_norms coarse_x": "reference_x"}


def _other(v):
    """A second row for a stack: v with its interior 1% larger, so a
    trajectory stays admissible."""
    w = v.copy()
    w[1:-1] *= 1.01
    return w


def _nan_at_3(v):
    w = v.copy()
    w[3] = math.nan
    return w


_INPUTS = {
    "one node short": lambda v: v[:-1],
    "2-row stack": lambda v: np.stack([v, _other(v)]),
    "0-d value": lambda v: float(v[1]),
    "NaN node": _nan_at_3,
    "list of floats": lambda v: v.tolist(),
}


def _bits(result):
    """A result as nested tuples of its dtypes, shapes and bytes, so that
    == compares bits (a state's workspace left out)."""
    if isinstance(result, TrajectoryState):
        return tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result)
                     if f.name != "work")
    if isinstance(result, tuple):
        return tuple(_bits(r) for r in result)
    if result is None:
        return None
    a = np.asarray(result)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _INPUTS)
@pytest.mark.parametrize("entry", _ENTRIES)
def test_an_entry_gives_its_result_or_names_its_argument(entry, case):
    call, good, name, kind = _ENTRIES[entry]
    field = _INPUTS[case](good)
    names = {name, _SHORT_PARTNER.get(entry, name) if case == "one node short" else name}
    try:
        result = call(field)
    except (ValueError, SolverError) as exc:
        assert str(exc).split(":")[0] in names, f"{type(exc).__name__}: {exc}"
        assert case != "list of floats"
        if case == "NaN node" and kind == "gate":
            assert isinstance(exc, DegenerateMeshError)
            assert str(exc) == f"{name}: node 3 is nan, not a finite number"
        return
    if case == "list of floats":
        assert _bits(result) == _bits(call(good))
    elif case == "2-row stack" and kind == "stacks":
        assert [_bits(r) for r in result] == [_bits(call(row)) for row in field]
    else:
        assert case == "NaN node" and kind != "gate", f"took a {case} and returned {result!r}"


# Calls refused by name, each with its whole message: stacks handed to the
# bare diagnostics, pairs and a short x to discrete_mass, and 0-d or
# stacked trajectories to the error norms.
_PROBES = {
    "recover_density stack": (lambda: recover_density(np.stack([X, _other(X)]), SPEC),
                              "trajectory: shape (2, 9) is not (9,)"),
    "discrete_energy stack": (lambda: discrete_energy(np.stack([X, _other(X)]), SPEC),
                              "trajectory: shape (2, 9) is not (9,)"),
    "discrete_mass 0-d pair": (lambda: discrete_mass(0.5, 0.5),
                               "x: shape () is not one trajectory's (n,)"),
    "discrete_mass stacked pair": (lambda: discrete_mass(np.stack([X, X]), np.stack([F, F])),
                                   "x: shape (2, 9) is not one trajectory's (n,)"),
    "discrete_mass short x": (lambda: discrete_mass(X[:-1], F),
                              "f: shape (9,) is not x's (8,)"),
    "density norms 0-d coarse_x": (lambda: density_error_norms(0.5, 0.5, np.ones(3), np.ones(3)),
                                   "coarse_x: shape () is not one trajectory's (n,), n >= 2"),
    "density norms stacked coarse_x": (
        lambda: density_error_norms(np.stack([X, X]), F, XR, FR),
        "coarse_x: shape (2, 9) is not one trajectory's (n,), n >= 2"),
    "density norms stacked reference_x": (
        lambda: density_error_norms(X, F, XR[None], FR),
        "reference_x: shape (1, 17) is not one trajectory's (n,), n >= 2"),
    "trajectory norms 0-d reference_x": (
        lambda: trajectory_error_norms(X, 0.5, GRID),
        "reference_x: shape () is not one trajectory's (n,), n >= 2"),
    "trajectory norms stacked reference_x": (
        lambda: trajectory_error_norms(X, XR[None], GRID),
        "reference_x: shape (1, 17) is not one trajectory's (n,), n >= 2"),
}


@pytest.mark.parametrize("probe", _PROBES)
def test_a_refused_probe_is_named(probe):
    call, message = _PROBES[probe]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
