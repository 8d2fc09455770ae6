"""The scheme's orders: in time alone, against a solve with a much
smaller step on the same grid, in space alone, against a solve on a much
finer grid with the same small step, and in space and time together
against an exact answer, the decay rate of a small cosine mode of the
density.

Time: at fixed M the spatial error is common to every step size, so the
difference from a tau = h/64 solve is the temporal error of the larger
step, and it must fall at second order.  This is the study that sees the
extrapolated slope S_h: lagging it to max(W^n, tau^2) turns the orders at
m = 2 into 2.46, 2.82 and 0.07, and at m = 8 into 1.08, 1.07 and 1.11.

Space: with tau = 1/6400 the temporal error sits below the spatial error
of M = 50 to 200 cells, so the difference from an M = 1600 solve at the
shared nodes is the spatial error, in the trajectory and in the density,
and it must fall at second order.  At M = 400 the temporal error starts to
show (order 2.07 in x), so that pair is left out.  The trajectory never
reads the wide slope at the walls; the density does, and first-order wall
stencils in grid.d_wide turn its orders into 1.01 and 1.08.

Mode: about the constant state f = 1 the porous medium equation linearises to
the heat equation f_t = m f_xx, so the mode eps cos(pi X) of f0 decays at
the rate m pi^2.  In Lagrangian form the displacement is then
x - X = (eps/pi) (1 - exp(-m pi^2 t)) sin(pi X): from its sine
coefficient a the rate is -ln(1 - pi a/eps)/t.  With eps = 1e-6 the
nonlinear terms, of order eps^2, sit far below the discretisation error,
so the rate's error is that of the scheme, and with tau = h it must fall
at second order.  The terms quadratic in eps (among them the
extrapolated slope S_h) do not reach this rate, so the oracle checks the
linear part of the scheme only.
"""
import math

import numpy as np
import pytest

from pmetraj import (Grid, RunConfig, SolverParams, initial_data_from_key,
                     make_problem, recover_density, run)

EPS = 1e-6
T_FINAL = 0.02
RESOLUTIONS = [50, 100, 200, 400, 800]


def _mode_rate(m, M):
    """The decay rate of the cosine mode, from the solve at M cells and
    tau = h."""
    grid = Grid(0.0, 1.0, M)
    spec = make_problem(m, grid, lambda X: 1.0 + EPS * np.cos(np.pi * X))
    result = run(RunConfig(spec=spec, params=SolverParams(tau=grid.h), t_final=T_FINAL))
    X = grid.nodes()
    a = 2.0 * grid.h * float(np.sum((result.final_state.x_curr - X) * np.sin(np.pi * X)))
    return -math.log1p(-math.pi * a / EPS) / T_FINAL


@pytest.mark.parametrize("m", [2.0, 8.0])
def test_cosine_mode_decays_at_the_linearised_rate_to_second_order(m):
    # measured at m = 2: relative errors 1.63e-1, 4.39e-2, 1.15e-2, 2.93e-3,
    # 7.42e-4, orders 1.89 to 1.98; at m = 8 orders 1.81 to 1.92
    exact = m * math.pi ** 2
    errors = [abs(_mode_rate(m, M) / exact - 1.0) for M in RESOLUTIONS]
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors[:-1], errors[1:])]
    assert all(abs(p - 2.0) <= 0.25 for p in orders), (errors, orders)
    if m == 2.0:
        assert errors[-1] <= 1e-3, errors


TIME_M = 200
TIME_T_FINAL = 0.05
TIME_STEPS = [1, 2, 4, 8]  # tau = h/k
TIME_REFERENCE = 64


def _final_nodes(m, k):
    """The nodes at TIME_T_FINAL of the paper's quadratic bump on TIME_M
    cells with tau = h/k."""
    grid = Grid(0.0, 1.0, TIME_M)
    spec = make_problem(m, grid, initial_data_from_key("paper-quadratic"))
    result = run(RunConfig(spec=spec, params=SolverParams(tau=grid.h / k),
                           t_final=TIME_T_FINAL))
    return result.final_state.x_curr


@pytest.mark.parametrize("m", [2.0, 8.0])
def test_time_refinement_is_second_order(m):
    # measured at m = 2: max errors 8.04e-5, 1.96e-5, 4.71e-6, 1.13e-6,
    # orders 2.038, 2.054, 2.064; at m = 8 orders 1.991, 1.999, 2.014
    reference = _final_nodes(m, TIME_REFERENCE)
    errors = [float(np.max(np.abs(_final_nodes(m, k) - reference))) for k in TIME_STEPS]
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors[:-1], errors[1:])]
    assert all(abs(p - 2.0) <= 0.15 for p in orders), (errors, orders)


SPACE_TAU = 1 / 6400
SPACE_M = [50, 100, 200]
SPACE_REFERENCE = 1600


def _final_fields(M):
    """The nodes and the density at TIME_T_FINAL of the paper's quadratic
    bump with m = 2 on M cells with tau = SPACE_TAU."""
    spec = make_problem(2.0, Grid(0.0, 1.0, M), initial_data_from_key("paper-quadratic"))
    result = run(RunConfig(spec=spec, params=SolverParams(tau=SPACE_TAU),
                           t_final=TIME_T_FINAL))
    x = result.final_state.x_curr
    return x, recover_density(x, spec)


def test_space_refinement_is_second_order():
    # measured: max errors in x 1.51e-5, 3.78e-6, 9.33e-7, orders 2.003,
    # 2.017; in f 5.19e-4, 1.28e-4, 3.15e-5, orders 2.024, 2.015
    reference = _final_fields(SPACE_REFERENCE)
    errors = []
    for M in SPACE_M:
        shared = slice(None, None, SPACE_REFERENCE // M)
        errors.append([float(np.max(np.abs(field - ref[shared])))
                       for field, ref in zip(_final_fields(M), reference)])
    orders = [math.log2(e0 / e1) for coarse, fine in zip(errors[:-1], errors[1:])
              for e0, e1 in zip(coarse, fine)]
    assert all(abs(p - 2.0) <= 0.15 for p in orders), (errors, orders)
