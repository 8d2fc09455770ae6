"""Problem definition: exponent, initial density, admissibility, and the
diagnostics that close the loop back to physical quantities (density, energy,
mass).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DegenerateMeshError
from .grid import Grid, d_forward, d_wide, _require_node_field


@dataclass(frozen=True)
class ProblemSpec:
    """Exponent m > 1 plus the initial density sampled at nodes and cell centers.

    The scheme needs f0 both at integer points (mass term) and at half-integer
    points (flux term); both samplings are analytic, never interpolated from
    one another.
    """

    m: float
    grid: Grid
    f0_nodes: np.ndarray
    f0_cells: np.ndarray
    f0_min: float


@dataclass
class TrajectoryState:
    """Current and previous trajectory fields x^n, x^{n-1} at step n."""

    n: int
    t: float
    x_curr: np.ndarray
    x_prev: np.ndarray


def quadratic_bump(x: np.ndarray) -> np.ndarray:
    """Concave quadratic profile 0.5 - (x - 0.5)^2, positive on [0, 1]."""
    return 0.5 - (x - 0.5) ** 2


def initial_data_from_key(key: str) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a catalog key to a sampling callable.

    Accepted keys: ``paper-quadratic``, ``constant:<c>``, ``poly:<c0,c1,...>``.
    """
    key = key.strip()
    if key == "paper-quadratic":
        return quadratic_bump
    if key.startswith("constant:"):
        try:
            c = float(key.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad constant initial data {key!r}") from exc
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if key.startswith("poly:"):
        try:
            coeffs = [float(tok) for tok in key.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"bad polynomial initial data {key!r}") from exc
        if not coeffs:
            raise ConfigurationError(f"empty polynomial initial data {key!r}")
        poly = np.polynomial.Polynomial(coeffs)
        return lambda x: poly(np.asarray(x, dtype=float))
    raise ConfigurationError(
        f"unknown initial data key {key!r} "
        "(expected paper-quadratic, constant:<c>, or poly:<c0,c1,...>)"
    )


def make_problem(m: float, grid: Grid, f0: Callable[[np.ndarray], np.ndarray]) -> ProblemSpec:
    """Sample f0 on the grid and validate m > 1 and strict positivity."""
    if not m > 1.0:
        raise ConfigurationError(f"exponent m must exceed 1, got {m}")
    f0_nodes = np.asarray(f0(grid.nodes()), dtype=float)
    f0_cells = np.asarray(f0(grid.cell_centers()), dtype=float)
    worst = min(f0_nodes.min(), f0_cells.min())
    if not worst > 0.0:
        raise ConfigurationError(
            f"initial density must be strictly positive on the closed domain; "
            f"min sample is {worst:.6g}"
        )
    return ProblemSpec(
        m=float(m),
        grid=grid,
        f0_nodes=f0_nodes,
        f0_cells=f0_cells,
        f0_min=float(f0_nodes.min()),
    )


def is_admissible(x: np.ndarray, grid: Grid) -> bool:
    """Strictly increasing nodes with both endpoints pinned to the domain."""
    x = _require_node_field(x, grid, "trajectory")
    if x[0] != grid.x_left or x[-1] != grid.x_right:
        return False
    return bool(np.all(np.diff(x) > 0.0))


def admissible_rows(xs: np.ndarray, grid: Grid) -> np.ndarray:
    """is_admissible for every row of a stack of trajectories (shape
    (k, M+1)), as one boolean array."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != grid.M + 1:
        raise ValueError(
            f"trajectory stack has shape {xs.shape}, expected (k, {grid.M + 1})")
    return ((xs[:, 0] == grid.x_left) & (xs[:, -1] == grid.x_right)
            & np.all(np.diff(xs) > 0.0, axis=1))


def recover_density(x: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Density at nodes from the conservation map f = f0 / (wide slope of x).

    The cell slopes D_h x must all be positive: a trajectory whose nodes
    cross raises DegenerateMeshError naming the first pair that does.  The
    interior wide slopes are then averages of positive cell slopes.  At a
    wall node the second-order one-sided slope of d_wide is kept where
    it is positive and replaced by D_h x of the wall cell where it is not,
    so every admissible trajectory has a positive density."""
    cells = d_forward(x, spec.grid)
    bad = np.flatnonzero(~(cells > 0.0))
    if bad.size:
        raise DegenerateMeshError(
            f"nonpositive cell slope between node {bad[0]} and node {bad[0] + 1} "
            "while recovering density"
        )
    slope = d_wide(x, spec.grid)
    if not slope[0] > 0.0:
        slope[0] = cells[0]
    if not slope[-1] > 0.0:
        slope[-1] = cells[-1]
    return spec.f0_nodes / slope


def discrete_energy(x: np.ndarray, spec: ProblemSpec) -> float:
    """Discrete free energy E_h(x) = -h * sum f0(cell) ln(D_h x).

    Matches the integral of f ln f in trajectory coordinates up to the
    x-independent constant h * sum f0 ln f0; the scheme dissipates it by at
    least a0 * tau * ||D_h(x_new - x_old)||_2^2 per accepted step.
    """
    slope = d_forward(x, spec.grid)
    bad = np.flatnonzero(slope <= 0.0)
    if bad.size:
        raise DegenerateMeshError(
            f"nonpositive cell slope at cell {bad[0]} in energy evaluation"
        )
    return float(-spec.grid.h * np.sum(spec.f0_cells * np.log(slope)))


def discrete_mass(x: np.ndarray, f: np.ndarray) -> float:
    """Trapezoid of the density over the deformed nodes."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.shape != f.shape:
        raise ValueError("trajectory and density must have equal length")
    return float(np.sum(0.5 * (f[:-1] + f[1:]) * np.diff(x)))
