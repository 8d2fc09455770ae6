"""The random states of `pmetraj check` drawn one at a time: the reference
that checks._draw_states, which draws a sweep's states as one batch, must
equal bitwise."""
from pmetraj import functional
from pmetraj.checks import random_admissible
from pmetraj.functional import SolverParams
from pmetraj.grid import Grid, d_forward, d_wide
from pmetraj.problem import make_problem, quadratic_bump


def random_setup(rng, M, damped_start):
    grid = Grid(0.0, 1.0, M)
    m = rng.uniform(1.3, 3.0)
    spec = make_problem(m, grid, quadratic_bump)
    params = SolverParams(
        tau=10.0 ** rng.uniform(-3.0, -1.0),
        a0=float(rng.uniform(0.0, 2.0)),
    )
    x_curr = random_admissible(rng, grid)
    wide_prev = d_wide(random_admissible(rng, grid), grid)
    coeffs = functional.build_coefficients(d_forward(x_curr, grid), d_wide(x_curr, grid),
                                           wide_prev, spec, params, damped_start=damped_start)
    return spec, x_curr, coeffs
