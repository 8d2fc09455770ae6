"""Uniform reference grid and the three finite-difference operators.

Node fields live on the M+1 integer points X_i, cell fields on the M
half-integer points X_{i-1/2}; the half-integer value at i-1/2 is stored
at array slot i-1.  d_forward and d_wide difference along the last axis, so
a stack of node fields, one per row, gives a stack of results, each row
bitwise the result of its own call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def domain_length(x_left: float, x_right: float) -> float:
    """x_right - x_left, which must be a positive finite number."""
    if not x_right > x_left:
        raise ConfigurationError("right end must exceed left end", key="domain")
    if not x_right - x_left < math.inf:
        raise ConfigurationError("too wide: right - left overflows", key="domain")
    return x_right - x_left


_MAX_DOUBLES = np.iinfo(np.intp).max // 8


def require_cell_count(M: int, key: str) -> None:
    """Reject a cell count whose M + 1 nodes no numpy array of doubles can
    hold: their bytes must be an intp.  The bound is far inside the float
    range, so the mesh width length / M is finite too."""
    if not M + 1 <= _MAX_DOUBLES:  # an int compares exactly
        raise ConfigurationError(
            f"too large: {key} + 1 nodes exceed numpy's array limit ({_MAX_DOUBLES} doubles)",
            key=key)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_left, x_right] with M cells, M >= 1 and M + 1 nodes
    within numpy's array limit (require_cell_count)."""

    x_left: float
    x_right: float
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ConfigurationError(f"needs at least one cell, got M = {self.M}", key="M")
        require_cell_count(self.M, "M")
        domain_length(self.x_left, self.x_right)

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.M

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.M + 1)

    def cell_centers(self) -> np.ndarray:
        x = self.nodes()
        return 0.5 * (x[:-1] + x[1:])


def _require_node_field(l: np.ndarray, grid: Grid) -> np.ndarray:
    """l as floats, with M+1 node values along its last axis."""
    l = np.asarray(l, dtype=float)
    if l.ndim == 0 or l.shape[-1] != grid.M + 1:
        raise ValueError(f"field has shape {l.shape}, expected {grid.M + 1} node values "
                         "along the last axis")
    return l


def _require_cell_field(phi: np.ndarray, grid: Grid) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (grid.M,):
        raise ValueError(f"field has length {phi.shape}, expected {grid.M} cell values")
    return phi


def d_forward(l: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward difference node -> cell: (l_i - l_{i-1})/h at i-1/2."""
    l = _require_node_field(l, grid)
    out = np.subtract(l[..., 1:], l[..., :-1])
    out /= grid.h
    return out


def d_centered_to_nodes(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered difference cell -> node: (phi_{i+1/2} - phi_{i-1/2})/h.

    Defined on interior nodes only; the Dirichlet end slots are set to 0
    and must never enter norms or assembly.
    """
    phi = _require_cell_field(phi, grid)
    out = np.zeros(grid.M + 1)
    out[1:-1] = np.subtract(phi[1:], phi[:-1]) / grid.h
    return out


def d_wide(l: np.ndarray, grid: Grid) -> np.ndarray:
    """Wide (two-cell) difference node -> node, one-sided at both ends.

    Interior: (l_{i+1} - l_{i-1})/2h.  Ends use the second-order
    one-sided stencils (4l_1 - l_2 - 3l_0)/2h and (l_{M-2} - 4l_{M-1} + 3l_M)/2h,
    exact for quadratics at every node.
    """
    l = _require_node_field(l, grid)
    if grid.M < 2:
        raise ValueError("d_wide needs M >= 2")
    two_h = 2.0 * grid.h
    out = np.empty(l.shape)
    np.subtract(l[..., 2:], l[..., :-2], out=out[..., 1:-1])
    out[..., 1:-1] /= two_h
    # the end stencils index the transposes, which gives floats for one
    # field and arrays for a stack
    lt, ends = l.T, out.T
    ends[0] = (4.0 * lt[1] - lt[2] - 3.0 * lt[0]) / two_h
    ends[-1] = (lt[-3] - 4.0 * lt[-2] + 3.0 * lt[-1]) / two_h
    return out
