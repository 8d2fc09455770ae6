"""Metamorphic relations of the scheme: a run and the run of its mirror or
shifted image, compared step by step with no reference solution.

The porous medium equation is invariant under the reflection x -> a + b - x
of a domain [a, b] and under a translation x -> x + s (Vazquez, The Porous
Medium Equation, 2007), and so is the scheme: the image of a run is the run
of the image problem, up to the rounding of the image's coordinates.  A
relation maps (grid, f0) to the image problem's (grid, f0) and gives the
maps that carry the base run's trajectory and density onto the image's.
relation_gaps runs both and measures how far apart they land.
"""
from dataclasses import dataclass

import numpy as np

from pmetraj import Grid, RunConfig, bootstrap, make_problem, steps


@dataclass(frozen=True)
class Gaps:
    """The largest gaps of a relation over every step of a run."""

    #: |x_image - x_map(x)| in ulps of the image domain's larger endpoint
    x_ulps: float
    #: |f_image - f_map(f)|/|f_map(f)|, node by node
    density_rel: float
    #: every step took the same Newton iterations from the same start kind
    same_newton: bool


def mirror(grid, f0):
    """The reflection X -> a + b - X of the domain [a, b]: (grid, f0 of the
    image, the map of a trajectory, the map of a density)."""
    ends = grid.x_left + grid.x_right
    return (grid, lambda X: f0(ends - X), lambda x: ends - x[::-1], lambda f: f[::-1])


def shift(s):
    """The translation X -> X + s, as a relation like mirror."""
    def relation(grid, f0):
        image = Grid(grid.x_left + s, grid.x_right + s, grid.M)
        return image, lambda X: f0(X - s), lambda x: x + s, lambda f: f
    return relation


def _run(m, grid, f0, params, t_final):
    """(x, density, iterations, start) of every step of the run."""
    spec = make_problem(m, grid, f0)
    config = RunConfig(spec=spec, params=params, t_final=t_final)
    return [(state.x_curr.copy(), diag.density.copy(), diag.report.iterations,
             diag.report.start)
            for state, diag in steps(config, bootstrap(spec))]


def relation_gaps(relation, m, grid, f0, params, t_final):
    """The Gaps between the run of (m, grid, f0, params, t_final) carried by
    relation and the run of the image problem."""
    image_grid, image_f0, x_map, f_map = relation(grid, f0)
    base = _run(m, grid, f0, params, t_final)
    image = _run(m, image_grid, image_f0, params, t_final)
    assert len(base) == len(image) > 0
    ulp = np.spacing(max(abs(image_grid.x_left), abs(image_grid.x_right)))
    x_gap = density_gap = 0.0
    same = True
    for (x, f, iters, start), (xi, fi, iters_i, start_i) in zip(base, image):
        want_f = f_map(f)
        x_gap = max(x_gap, float(np.abs(xi - x_map(x)).max()) / ulp)
        density_gap = max(density_gap, float((np.abs(fi - want_f) / np.abs(want_f)).max()))
        same = same and (iters, start) == (iters_i, start_i)
    return Gaps(x_gap, density_gap, same)
