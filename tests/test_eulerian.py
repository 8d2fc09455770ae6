"""An independent Eulerian reference: the scheme converges to the porous
medium equation, not only to its own finer runs.

Every other accuracy test compares the scheme with itself (its M = 9600
reference, its observed orders) or with a table made by the same scheme,
so an error in a coefficient that keeps the order (a mass coefficient off
by 0.1%, say) converges at second order to the wrong equation and passes
them all.  The reference here shares no code with the scheme.  It solves
f_t = (f^m)_xx on [0, 1] with zero-flux walls by cell-centred finite
volumes, N = 800 cells, BDF2 after one BDF1 step, 100 steps to t = 0.05,
each step by Newton with a Thomas elimination on Python floats; its cells
start from the cell averages of f0 by 3-point Gauss (exact for the
quadratic bump).  Only numpy is used, and nothing of _kernels, functional
or newton: the scheme runs through stepper.steps, and its density at its
nodes is StepDiagnostics.density.

The gap of a run is max |f - f_ref| / max f_ref over the nodes, f_ref the
reference interpolated linearly from its cell centres.  For
`paper-quadratic` at tau = h and t = 0.05:

    m      M = 100   M = 200   M = 400
    2      3.35e-3   8.12e-4   2.05e-4
    5/3    3.59e-3   8.25e-4   2.09e-4

The reference at N = 1600 and 400 steps moves the m = 2 gaps by about 1%,
so it is resolved well below them.  The bound at M = 400, 2.3e-4, holds
today's gaps with a 10% margin; the mass coefficient scaled by 1.001
reads 2.83e-4 and 2.80e-4 there and fails it.

Wall nodes.  The interpolation covers the nodes between the outermost
cell centres, and two nodes at each wall are left out of the interior
gap.  They are compared on their own, against the reference extended to
each wall by (9 f_1 - f_2)/8, the wall value of the even quadratic through
the two outermost cell values (f_x = 0 at a zero-flux wall).  The
densities at the wall nodes come from d_wide's one-sided end stencils;
their gaps fall with h (6.4e-3, 7.2e-4, 1.95e-4 at m = 2; 6.4e-3, 7.4e-4,
2.02e-4 at m = 5/3) and stay under the same bound at M = 400.
"""
import functools
import math

import numpy as np
import pytest

from pmetraj import (Grid, RunConfig, SolverParams, bootstrap, initial_data_from_key,
                     make_problem, steps)

T_FINAL = 0.05
#: Cells and steps of the Eulerian reference.
N_CELLS, N_STEPS = 800, 100
RESOLUTIONS = (100, 200, 400)
#: The gap at M = 400 must be below this, and halving h must cut the
#: interior gap by at least 2^ORDER.
GAP_BOUND = 2.3e-4
ORDER = 1.9
#: 3-point Gauss on [-1, 1], weights halved: an average over the cell.
GAUSS = ((-math.sqrt(0.6), 5.0 / 18.0), (0.0, 8.0 / 18.0), (math.sqrt(0.6), 5.0 / 18.0))

f0 = initial_data_from_key("paper-quadratic")


def _thomas(sub, diag, sup, rhs):
    """The solution of the tridiagonal system with sub[i] = A[i, i-1],
    diag[i] = A[i, i], sup[i] = A[i, i+1] (sub[0] and sup[-1] unused), by
    Thomas elimination on Python floats."""
    n = len(diag)
    ratio, x = [0.0] * n, [0.0] * n
    piv = diag[0]
    ratio[0], x[0] = sup[0] / piv, rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - sub[i] * ratio[i - 1]
        ratio[i] = sup[i] / piv
        x[i] = (rhs[i] - sub[i] * x[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return x


@functools.cache
def _eulerian(m):
    """(centres, f) of the reference at T_FINAL: cell averages f of
    f_t = (f^m)_xx with zero flux at both walls, by BDF2 after one BDF1
    step.  Each step's nonlinear system a f - b = (f^m)_xx is solved by
    Newton, which stops once its update is below 1e-12 of max f."""
    dx, dt = 1.0 / N_CELLS, T_FINAL / N_STEPS
    centres = (np.arange(N_CELLS) + 0.5) * dx
    f = sum(w * f0(centres + 0.5 * dx * xi) for xi, w in GAUSS)
    neighbours = np.full(N_CELLS, 2.0)
    neighbours[[0, -1]] = 1.0
    prev = None
    for _ in range(N_STEPS):
        if prev is None:
            a, b = 1.0 / dt, f / dt
        else:
            a, b = 1.5 / dt, (4.0 * f - prev) / (2.0 * dt)
        g = f.copy()
        for _ in range(20):
            flux = np.zeros(N_CELLS + 1)  # (f^m)_x at the faces, zero at the walls
            flux[1:-1] = np.diff(g ** m) / dx
            residual = a * g - b - np.diff(flux) / dx
            k = m * g ** (m - 1.0) / (dx * dx)  # d (f^m) / df over dx^2
            sub, sup = np.zeros(N_CELLS), np.zeros(N_CELLS)
            sub[1:], sup[:-1] = -k[:-1], -k[1:]
            delta = _thomas(sub.tolist(), (a + neighbours * k).tolist(), sup.tolist(),
                            (-residual).tolist())
            g += delta
            if np.abs(delta).max() <= 1e-12 * g.max():
                break
        else:
            raise AssertionError("the Eulerian Newton solve did not converge")
        prev, f = f, g
    return centres, f


def _lagrangian(m, M):
    """(x, f) of the scheme at T_FINAL with tau = h: node positions and the
    density at them."""
    spec = make_problem(m, Grid(0.0, 1.0, M), f0)
    config = RunConfig(spec=spec, params=SolverParams(tau=spec.grid.h), t_final=T_FINAL)
    for state, diag in steps(config, bootstrap(spec)):
        pass
    assert state.t == pytest.approx(T_FINAL)
    return state.x_curr, diag.density.copy()


@functools.cache
def _gaps(m):
    """For each M of RESOLUTIONS: (interior gap, wall gap), the relative max
    gaps over the nodes two and more from a wall, and over the other four."""
    centres, f = _eulerian(m)
    walls = ((9.0 * f[0] - f[1]) / 8.0, (9.0 * f[-1] - f[-2]) / 8.0)
    xs, fs = np.r_[0.0, centres, 1.0], np.r_[walls[0], f, walls[1]]
    scale = fs.max()
    gaps = []
    for M in RESOLUTIONS:
        x, density = _lagrangian(m, M)
        gap = np.abs(density - np.interp(x, xs, fs)) / scale
        gaps.append((gap[2:-2].max(), gap[[0, 1, -2, -1]].max()))
    return gaps


@pytest.mark.parametrize("m", [2.0, 5.0 / 3.0])
def test_density_converges_to_the_eulerian_reference(m):
    interior = [gap for gap, _ in _gaps(m)]
    orders = [math.log2(coarse / fine) for coarse, fine in zip(interior, interior[1:])]
    assert min(orders) >= ORDER, (interior, orders)
    assert interior[-1] < GAP_BOUND, interior


@pytest.mark.parametrize("m", [2.0, 5.0 / 3.0])
def test_wall_node_densities_meet_the_zero_flux_reference(m):
    walls = [gap for _, gap in _gaps(m)]
    assert walls[0] > walls[1] > walls[2], walls
    assert walls[-1] < GAP_BOUND, walls
