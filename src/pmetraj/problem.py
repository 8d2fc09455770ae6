"""Problem definition: exponent, initial density, admissibility, and the
diagnostics that close the loop back to physical quantities (density, energy,
mass).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .config import parse_number
from .errors import ConfigurationError, DataScaleError, DegenerateMeshError, require
from .grid import Grid, as_trajectories, as_trajectory, d_forward, d_wide


@dataclass(frozen=True)
class ProblemSpec:
    """Exponent m > 1 plus the initial density sampled at nodes and cell centers.

    The scheme needs f0 both at integer points (mass term) and at half-integer
    points (flux term); both samplings are analytic, never interpolated from
    one another.  mass_factor = f0_nodes^(2-m)/m is the part of the mass
    coefficient that no step changes; it is inf where the power overflows,
    which functional.mass_coefficient reports at the first step.
    energy_scale = h * sum(f0_cells) is the scale of the rounding error of
    E_h = -h sum f0 ln(D_h x): each term carries an error of about eps f0
    from its slope, however close ln(D_h x) is to 0.

    A stack of k problems on one grid that differ only in m (make_problem
    with a column of exponents) has m of shape (k, 1) and mass_factor of
    shape (k, M+1); functional.mass_coefficient takes it with a row of S_h
    per problem.
    """

    m: float
    grid: Grid
    f0_nodes: np.ndarray
    f0_cells: np.ndarray
    f0_min: float
    mass_factor: np.ndarray
    energy_scale: float


@dataclass
class TrajectoryState:
    """The trajectory fields x^n, x^{n-1} at step n, with what the next step
    reads of them: e_curr = E_h(x^n), the cell slopes slope_curr = D_h x^n
    and the wide slopes wide_curr = D~_h x^n, wide_prev = D~_h x^{n-1}, all
    formed by stepper.restart or handed on by stepper.advance.

    x_prev2 is x^{n-2} when the Newton start may extrapolate quadratically
    (newton.newton_step; stepper.advance sets it only after a step that
    began in the near phase), None otherwise.  work is the run's
    _kernels.Workspace, which every Newton iteration of the run writes
    into.  A state with None there (a run's final_state) is given one by
    its next stepper.advance, and the states after it carry that one.
    """

    n: int
    t: float
    x_curr: np.ndarray
    x_prev: np.ndarray
    e_curr: float
    slope_curr: np.ndarray
    wide_curr: np.ndarray
    wide_prev: np.ndarray
    x_prev2: np.ndarray | None = None
    work: _kernels.Workspace | None = None


def quadratic_bump(x: np.ndarray) -> np.ndarray:
    """Concave quadratic profile 0.5 - (x - 0.5)^2, positive on [0, 1]."""
    return 0.5 - (x - 0.5) ** 2


def initial_data_from_key(key: str) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a catalog key to a sampling callable.

    Accepted keys: ``paper-quadratic``, ``constant:<c>``, ``poly:<c0,c1,...>``,
    each number in the config's grammar (config.parse_number: a finite float
    or a fraction a/b), or ConfigurationError with key "initial_data".
    """
    key = key.strip()
    if key == "paper-quadratic":
        return quadratic_bump
    if key.startswith("constant:"):
        try:
            c = parse_number(key.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad constant initial data {key!r}",
                                     key="initial_data") from exc
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if key.startswith("poly:"):
        try:
            coeffs = [parse_number(tok) for tok in key.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"bad polynomial initial data {key!r}",
                                     key="initial_data") from exc
        poly = np.polynomial.Polynomial(coeffs)
        return lambda x: poly(np.asarray(x, dtype=float))
    raise ConfigurationError(
        f"unknown initial data key {key!r} "
        "(expected paper-quadratic, constant:<c>, or poly:<c0,c1,...>)",
        key="initial_data")


#: Bound on the scales the solver forms from the grid and the initial data
#: alone: max f0/h^2, the flux part of the Hessian's entries at unit slope,
#: and (right - left) max f0, the scale of the energy, the mass and F.  It is
#: the square root of the largest float, so either scale can still be
#: multiplied by a factor as large (a slope ratio, tau^2, a sum over the
#: cells) without overflowing.
SCALE_LIMIT = math.sqrt(sys.float_info.max)


def make_problem(m: float, grid: Grid, f0: Callable[[np.ndarray], np.ndarray]) -> ProblemSpec:
    """Sample f0 on the grid and validate m > 1, M >= 2, the mesh width (h^2
    and 1/h^2 scale the Hessian's entries), strict positivity and the data
    scales (SCALE_LIMIT); a ConfigurationError names "m", "M", "domain" or
    "initial_data".

    m may also be a column of k exponents, shape (k, 1): the spec is then the
    stack of k problems of ProblemSpec, sampled once, each row of its
    mass_factor bitwise that of its own call; an error names the first
    exponent of the column that is not above 1."""
    for value in (np.ravel(m).tolist() if np.ndim(m) == 2 else [m]):
        require(value, "m", "exponent must exceed 1", lambda v: v > 1.0)
    if grid.M < 2:
        # the extrapolated slope S_h uses the wide difference, which needs two cells
        raise ConfigurationError(f"the scheme needs at least 2 cells, got M = {grid.M}",
                                 key="M")
    # Python floats: an overflowing product is inf, and no numpy warning
    h, length = float(grid.h), float(grid.x_right - grid.x_left)
    if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
        raise ConfigurationError(
            f"mesh width h = {h:.6g} at M = {grid.M}: h^2 or 1/h^2 is not a "
            "positive finite number", key="domain")
    # A sample that overflows is infinite and fails the scale check below.
    with np.errstate(over="ignore", invalid="ignore"):
        f0_nodes = np.asarray(f0(grid.nodes()), dtype=float)
        f0_cells = np.asarray(f0(grid.cell_centers()), dtype=float)
    worst = min(f0_nodes.min(), f0_cells.min())
    if not worst > 0.0:
        raise ConfigurationError(
            f"initial density must be strictly positive on the closed domain; "
            f"min sample is {worst:.6g}", key="initial_data")
    f0_max = float(max(f0_nodes.max(), f0_cells.max()))
    if f0_max / (h * h) > SCALE_LIMIT:
        raise DataScaleError(
            f"max f0/h^2 = {f0_max:.6g}/{h * h:.6g} at M = {grid.M} exceeds "
            f"{SCALE_LIMIT:.3g}", key="domain")
    if length * f0_max > SCALE_LIMIT:
        raise DataScaleError(
            f"domain length times max f0 = {length:.6g} * {f0_max:.6g} exceeds "
            f"{SCALE_LIMIT:.3g}", key="domain")
    m = float(m) if np.ndim(m) == 0 else np.asarray(m, dtype=float)
    with np.errstate(over="ignore"):  # an overflow fails at the first step
        mass_factor = f0_nodes ** (2.0 - m) / m
    return ProblemSpec(
        m=m,
        grid=grid,
        f0_nodes=f0_nodes,
        f0_cells=f0_cells,
        f0_min=float(f0_nodes.min()),
        mass_factor=mass_factor,
        energy_scale=h * float(f0_cells.sum()),
    )


def is_admissible(x: np.ndarray, grid: Grid) -> bool | np.ndarray:
    """Strictly increasing nodes with both endpoints pinned to the domain,
    along the last axis: a bool for one trajectory (shape (M+1,)), one bool
    per row for a stack of trajectories (shape (..., M+1), the bools of
    shape x.shape[:-1]).  Another shape raises ValueError naming the
    "trajectory" (grid.as_trajectories).  Where h > 1 a cell slope D_h x
    of such a trajectory can still underflow to 0; require_admissible, the
    gate every trajectory the package is handed passes, refuses that too."""
    x = as_trajectories(x, grid, "trajectory")
    ok = ((x[..., 1:] > x[..., :-1]).all(axis=-1)
          & (x[..., 0] == grid.x_left) & (x[..., -1] == grid.x_right))
    return bool(ok) if x.ndim == 1 else ok


def require_admissible(x: np.ndarray, grid: Grid, name: str) -> np.ndarray:
    """x as a float array (a float array is returned as it is) if it is
    admissible, one trajectory or every row of a stack (is_admissible),
    with every cell slope D_h x positive.  A shape that is neither raises
    ValueError naming name (grid.as_trajectories).  Else DegenerateMeshError
    names name, the first bad row of a stack in C order (its index, or its
    index tuple when the stack has two or more leading axes) and that
    trajectory's first fault: a node that is not finite, a cell slope that
    is not positive, or ends that are not the domain's.  An ordered
    trajectory's slope (x_{i+1} - x_i)/h can underflow to 0 only where
    h > 1, so only there is D_h x formed to test it."""
    x = as_trajectories(x, grid, name)
    bad = ~np.asarray(is_admissible(x, grid))
    if grid.h > 1.0:
        with np.errstate(over="ignore", invalid="ignore"):  # only on rows refused above
            bad |= ~(d_forward(x, grid) > 0.0).all(axis=-1)
    if not bad.any():
        return x
    row = tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))
    if row:
        name += f" row {row[0] if len(row) == 1 else row}"
    y = x[row]
    finite = np.isfinite(y)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise DegenerateMeshError(f"{name}: node {i} is {float(y[i])!r}, not a "
                                  "finite number")
    min_cell_slope(d_forward(y, grid), name)
    raise DegenerateMeshError(f"{name}: end nodes {y[0]:.17g}, {y[-1]:.17g} are "
                              "not the domain's ends")


def min_cell_slope(slope: np.ndarray, name: str) -> float:
    """The least cell slope D_h x, which must be positive: one min
    reduction, and only when it fails a scan for the first cell i that is
    not positive (or nan).  The DegenerateMeshError reads "{name}:
    nonpositive cell slope at cell i (nodes i and i+1)", the one wording
    of this fault in the package, whether require_admissible or
    stepper.advance finds it."""
    least = float(slope.min())
    if not least > 0.0:
        i = int(np.flatnonzero(~(slope > 0.0))[0])
        raise DegenerateMeshError(f"{name}: nonpositive cell slope at cell {i} "
                                  f"(nodes {i} and {i + 1})")
    return least


def recover_density(x: np.ndarray, spec: ProblemSpec,
                    cells: np.ndarray | None = None,
                    wide: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Density at nodes from the conservation map f = f0 / (wide slope of x).

    When the cell slopes D_h x (cells) are not given, x must be one
    trajectory (grid.as_trajectory: a stack or a wrong shape raises
    ValueError) and pass require_admissible (a fault raises
    DegenerateMeshError), both naming the "trajectory", and they are formed
    from it.  Given ones are the caller's, checked where they were formed
    (min_cell_slope).  The wide slopes D~_h x (wide) are computed when not
    given.  The interior wide slopes are then averages of positive cell
    slopes.  At a wall node the second-order one-sided slope of d_wide is
    kept where it is positive and replaced by D_h x of the wall cell where
    it is not, so every admissible trajectory has a positive density.  A
    given wide is never written to: it is copied before a wall slope is
    replaced.

    The density is written into out when given (a node field, which
    stepper.advance carves from the run's workspace), else into a fresh
    array; the copy of wide, when the wall rule needs one, is made there
    too."""
    if cells is None:
        x = as_trajectory(x, spec.grid, "trajectory")
        cells = d_forward(require_admissible(x, spec.grid, "trajectory"), spec.grid)
    if wide is None:
        wide = d_wide(x, spec.grid)
    if not (wide[0] > 0.0 and wide[-1] > 0.0):
        if out is None:
            out = np.empty_like(wide)
        out[...] = wide
        wide = out
        if not wide[0] > 0.0:
            wide[0] = cells[0]
        if not wide[-1] > 0.0:
            wide[-1] = cells[-1]
    return np.divide(spec.f0_nodes, wide, out=out)


def discrete_energy(x: np.ndarray, spec: ProblemSpec,
                    slope: np.ndarray | None = None) -> float:
    """Discrete free energy E_h(x) = -h * sum f0(cell) ln(D_h x).

    When slope is not given, x must be one trajectory (grid.as_trajectory)
    and pass require_admissible, both naming the "trajectory", and its
    cell slopes D_h x are formed from it; a given slope is the caller's,
    checked where it was formed (min_cell_slope).
    Matches the integral of f ln f in trajectory coordinates up to the
    x-independent constant h * sum f0 ln f0; the scheme dissipates it by
    at least a0 * tau * ||D_h(x_new - x_old)||_2^2 per accepted step.
    """
    if slope is None:
        x = as_trajectory(x, spec.grid, "trajectory")
        slope = d_forward(require_admissible(x, spec.grid, "trajectory"), spec.grid)
    return -spec.grid.h * float(np.dot(spec.f0_cells, np.log(slope)))


def discrete_mass(x: np.ndarray, f: np.ndarray) -> float:
    """Trapezoid of the density f over the deformed nodes x.  x must be one
    trajectory, 1-D, and f of its shape, else ValueError names x or f.
    Nothing here knows the grid, so x sets the length: a short x and a
    long f are both reported as an f that is not of x's shape."""
    x, f = np.asarray(x, dtype=float), np.asarray(f, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x: shape {x.shape} is not one trajectory's (n,)")
    if f.shape != x.shape:
        raise ValueError(f"f: shape {f.shape} is not x's {x.shape}")
    return float(np.add.reduce(0.5 * (f[:-1] + f[1:]) * np.subtract(x[1:], x[:-1])))
