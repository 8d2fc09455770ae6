"""The one assembly pass, the cyclic-reduction tridiagonal solve with its
scalar base, the numpy-only import footprint, and the one module that
imports numbers."""
import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmetraj
from pmetraj import (Grid, RunConfig, SingularSystemError, SolverParams, bootstrap, make_problem,
                     quadratic_bump)
from pmetraj.functional import (SchemeCoefficients, build_coefficients, hessian_coefficients,
                                residual)
from pmetraj.newton import solve_tridiagonal
from pmetraj import _kernels, checks, stepper
from pmetraj._kernels import EPS_SWITCH, SCALAR_BASE

# Both sides of the scalar base: systems the scalar elimination solves
# alone (n <= 64, odd and even, powers of two and their neighbours), and
# ones one, two and four levels above it that the reduction leaves
# unpadded (65, 129, 1023) or pads with unit rows (66 -> 67,
# 1024 and 1025 -> 1039, n = 4224 -> 4351, the largest share of padding,
# 3.0%, and the n = 9599 interior of the M = 9600 reference -> 9727).
SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17,
         SCALAR_BASE - 1, SCALAR_BASE, SCALAR_BASE + 1, SCALAR_BASE + 2,
         2 * SCALAR_BASE + 1, 1023, 1024, 1025, 4224, 9599]
DENSE_MAX = 1025  # a dense 9599 x 9599 matrix would take 737 MB


def _matvec(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _thomas_reference(diag, off, rhs):
    """Plain Thomas elimination, an oracle independent of cyclic reduction."""
    n = diag.shape[0]
    cp = np.zeros(n)
    x = np.empty(n)
    piv = diag[0]
    x[0] = rhs[0] / piv
    for i in range(1, n):
        cp[i - 1] = off[i - 1] / piv
        piv = diag[i] - off[i - 1] * cp[i - 1]
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


def _random_spd(rng, n):
    # SPD by diagonal dominance
    diag = rng.uniform(2.0, 4.0, n)
    off = rng.uniform(-0.9, 0.9, n - 1)
    return diag, off, rng.standard_normal(n)


@pytest.mark.parametrize("n", SIZES)
def test_solve_matches_dense(rng, n):
    diag, off, rhs = _random_spd(rng, n)
    x = solve_tridiagonal(diag, off, rhs)
    assert x.shape == (n,)
    rel_residual = np.max(np.abs(_matvec(diag, off, x) - rhs)) / np.max(np.abs(rhs))
    assert rel_residual <= 1e-12
    if n <= DENSE_MAX:
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        want = np.linalg.solve(dense, rhs)
    else:
        want = _thomas_reference(diag, off, rhs)
    np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("M", [200, 9600])
def test_solve_scheme_hessian_matches_thomas(M):
    spec = make_problem(2.0, Grid(0.0, 1.0, M), quadratic_bump)
    params = SolverParams(tau=spec.grid.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x = state.x_curr.copy()
    x[1:-1] += 1e-3 * spec.grid.h * np.sin(np.pi * x[1:-1])
    rhs = -residual(x, state.x_curr, coeffs, spec)[1:-1]
    diag, off = hessian_coefficients(x, coeffs, spec)
    got = solve_tridiagonal(diag, off, rhs)
    want = _thomas_reference(diag, off, rhs)
    np.testing.assert_allclose(got, want, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(want)))
    # The fine-mesh Hessian is ill conditioned (c/h^2 against mass/tau), so
    # the residual is measured normwise backward: |Ax - b| / (|A| |x| + |b|).
    norm_a = np.max(_matvec(np.abs(diag), np.abs(off), np.ones_like(diag)))
    backward = np.max(np.abs(_matvec(diag, off, got) - rhs)) / (
        norm_a * np.max(np.abs(got)) + np.max(np.abs(rhs)))
    assert backward <= 1e-15


def test_padding_leaves_odd_levels_and_the_unpadded_base():
    # every level the reduction halves has an odd length, so each kept row
    # has two neighbours; the base is n >> j long, as halving n j times
    # leaves it, so it holds no pad row; the pad is under n/32; the plan's
    # sizes are those of halving the padded length in turn; and alpha, beta
    # and the reduced systems take what the workspace's cell scratch is
    # sized by, which is at most 4.12 cell fields of M = n + 1
    for n in range(1, 20001):
        padded, planned = _kernels._halvings(n)
        assert n <= padded and padded - n < n / 32
        sizes = [padded]
        while sizes[-1] > SCALAR_BASE:
            sizes.append(sizes[-1] // 2)
        assert planned == sizes[1:]
        assert all(size % 2 == 1 for size in sizes[:-1])
        assert sizes[-1] == n >> (len(sizes) - 1) <= SCALAR_BASE
        plan = padded // 2 * 2 + sum(3 * size - 1 for size in sizes[1:])
        assert max(4 * (n + 1), plan) <= 4.12 * (n + 1)
    # in the workspace itself alpha, beta and every reduced system are
    # pairwise disjoint runs of the scratch, so apart from rhs beside it,
    # and the scratch is four cell fields or the plan
    def run(a, flat):  # the doubles of flat that a contiguous view of it takes
        start = (a.__array_interface__["data"][0] - flat.__array_interface__["data"][0]) // 8
        return start, start + a.size

    for n in range(1, 20001, 83):
        work = _kernels.Workspace((n + 2,))
        padded, planned = _kernels._halvings(n)
        scratch = max(4 * (n + 1), padded // 2 * 2 + sum(3 * k - 1 for k in planned))
        assert work._flat.size == scratch + padded
        assert [level.dk.size for level in work.levels] == planned
        assert work.base[0].size == n >> len(planned)
        carved = [work.levels[0].alpha, work.levels[0].beta] if work.levels else []
        carved += [a for level in work.levels for a in (level.dk, level.ek, level.fk)]
        runs = sorted(run(a, work._flat) for a in carved)
        assert all(0 <= lo <= hi <= scratch for lo, hi in runs)
        assert all(hi <= lo for (_, hi), (lo, _) in zip(runs, runs[1:]))


@pytest.mark.parametrize("n", [3, 16, 17, 1025])
def test_indefinite_raises_singular(n):
    # diag 1, off 0.9 is indefinite for n >= 3, with a positive input diagonal:
    # the nonpositive pivot only shows in a reduced system.
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(np.ones(n), np.full(n - 1, 0.9), np.ones(n))


@pytest.mark.parametrize("where", ["diag", "off"])
@pytest.mark.parametrize("index", [0, 1, 6])
def test_nan_raises_singular(rng, where, index):
    diag, off, rhs = _random_spd(rng, 9)
    {"diag": diag, "off": off}[where][index] = np.nan
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(diag, off, rhs)


def _shifted_laplacian(n):
    """tridiag(-1, 2 - s, -1) with s between its two smallest eigenvalues
    2 - 2 cos(k pi/(n + 1)), k = 1, 2: exactly one negative eigenvalue.  A
    reduction level above the base sees the diagonal 2 - s and hands on one
    near 1, both positive, so only a pivot of the scalar elimination can show
    that the system is indefinite."""
    lam1, lam2 = (2.0 - 2.0 * math.cos(k * math.pi / (n + 1)) for k in (1, 2))
    return np.full(n, 2.0 - 0.5 * (lam1 + lam2)), np.full(n - 1, -1.0)


def _raised_in_scalar_base(monkeypatch):
    raised = []
    scalar = _kernels._thomas_scalar

    def recording(*args):
        try:
            return scalar(*args)
        except SingularSystemError:
            raised.append(len(args[0]))
            raise

    monkeypatch.setattr(_kernels, "_thomas_scalar", recording)
    return raised


@pytest.mark.parametrize("n", [SCALAR_BASE - 1, SCALAR_BASE + 1, 2 * SCALAR_BASE + 1])
def test_indefinite_caught_in_scalar_base(monkeypatch, n):
    raised = _raised_in_scalar_base(monkeypatch)
    diag, off = _shifted_laplacian(n)
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(diag, off, np.ones(n))
    assert len(raised) == 1 and raised[0] <= SCALAR_BASE


@pytest.mark.parametrize("case", ["scalar base", "reduced level", "nan"])
def test_thomas_spd_raises_singular_where_the_pivot_fails(monkeypatch, rng, case):
    # the kernel raises SingularSystemError itself, at the pivot it finds:
    # no other error is mapped onto it, so it carries no cause
    raised = _raised_in_scalar_base(monkeypatch)
    if case == "scalar base":
        n = SCALAR_BASE - 1
        diag, off = _shifted_laplacian(n)
        rhs = np.ones(n)
    elif case == "reduced level":  # the first reduced diagonal is 1 - 2 * 0.81
        n = 1025
        diag, off, rhs = np.ones(n), np.full(n - 1, 0.9), np.ones(n)
    else:
        n = 9
        diag, off, rhs = _random_spd(rng, n)
        diag[4] = np.nan
    with pytest.raises(SingularSystemError) as err:
        _kernels.thomas_spd(diag, off, rhs, _kernels.Workspace((n + 2,)))
    assert err.value.__cause__ is None
    assert len(raised) == (case != "reduced level")


@pytest.mark.parametrize("n", [SCALAR_BASE + 1, 2 * SCALAR_BASE + 1])
def test_nan_caught_in_scalar_base(monkeypatch, rng, n):
    # a NaN off-diagonal leaves the input diagonal intact: the first
    # diagonal it spoils is that of the reduced system the base receives
    raised = _raised_in_scalar_base(monkeypatch)
    diag, off, rhs = _random_spd(rng, n)
    off[5] = np.nan
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(diag, off, rhs)
    assert len(raised) == 1 and raised[0] <= SCALAR_BASE


def _assembly_inputs(rng, M, equal_cells):
    """A base trajectory and a stack of candidates near it on M cells: row 0
    keeps the base's slope exactly on `equal_cells` cells, rows 1 and 2 on
    none, and row 3, the base itself, on every cell."""
    h = 1.0 / M
    x_curr = np.linspace(0.0, 1.0, M + 1)
    x_curr[1:-1] += 0.3 * h * rng.uniform(-1.0, 1.0, M - 1)
    xs = np.tile(x_curr, (4, 1))
    xs[:3, 1:-1] += 0.2 * h * rng.uniform(-1.0, 1.0, (3, M - 1))
    for i in np.linspace(1, M - 2, equal_cells).astype(int):
        xs[0, i + 1] = xs[0, i] + (x_curr[i + 1] - x_curr[i])
    slope_curr = np.diff(x_curr) / h
    mass = rng.uniform(0.5, 2.0, M + 1)
    f0_cells = rng.uniform(1e-3, 1.0, M)
    return xs, x_curr, slope_curr, mass, f0_cells, h


@pytest.mark.parametrize("damped_start", [False, True])
@pytest.mark.parametrize("equal_cells", [0, 5])
def test_fused_assembly_is_bitwise_equal(rng, equal_cells, damped_start):
    # one assembly for one trajectory or a stack of rows: each row of a
    # stacked residual_interior / hessian_tridiag call equals its own 1-D
    # call bitwise, whether or not the rows take the equal-slope branch
    xs, x_curr, slope_curr, mass, f0_cells, h = _assembly_inputs(rng, 9600, equal_cells)
    y = np.diff(xs) / h
    near = np.abs(y - slope_curr) <= EPS_SWITCH * np.maximum(y, slope_curr)
    assert near.sum(axis=1).tolist() == [equal_cells, 0, 0, 9600]
    coeffs = SchemeCoefficients(mass=mass, slope_curr=slope_curr, f0_cells=f0_cells, h=h,
                                tau=10.0 * h, a0=0.7, damped_start=damped_start)
    for stack in (xs, xs[1:3]):  # with and without equal-slope lanes
        g = _kernels.residual_interior(stack, x_curr, coeffs)
        diag, off = _kernels.hessian_tridiag(stack, coeffs)
        assert g.shape == stack.shape
        assert diag.shape == (len(stack), 9599) and off.shape == (len(stack), 9598)
        for k, x in enumerate(stack):
            want_g = _kernels.residual_interior(x, x_curr, coeffs)
            want_diag, want_off = _kernels.hessian_tridiag(x, coeffs)
            for got, want in ((g[k], want_g), (diag[k], want_diag), (off[k], want_off)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert want_g[0] == want_g[-1] == 0.0


def test_public_residual_and_hessian_run_the_newton_assembly(rng, monkeypatch):
    # functional.residual (one trajectory or a stack) and
    # hessian_coefficients, and so the finite-difference oracles, reach
    # residual_hessian, the assembly the Newton loop calls, with the
    # trajectory or the stack as it is
    g = Grid(0.0, 1.0, 16)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    shapes = []
    assemble = _kernels.residual_hessian

    def recording(x_new, *rest):
        shapes.append(x_new.shape)
        return assemble(x_new, *rest)

    monkeypatch.setattr(_kernels, "residual_hessian", recording)
    x = state.x_curr
    residual(x, state.x_curr, coeffs, spec)
    residual(np.array([x, x, x]), state.x_curr, coeffs, spec)
    hessian_coefficients(x, coeffs, spec)
    assert shapes == [(17,), (3, 17), (17,)]


_PI2_6 = math.pi ** 2 / 6.0


def _spence_plain(w):
    """Li2(1 - w) as plain expressions, every branch on every lane."""
    low, high = w < 0.5, w > 2.0
    w_high = np.maximum(w, 2.0)
    ln_1mw = np.log1p(-np.minimum(w, 0.5))
    ln_wm1 = np.log(w_high - 1.0)
    ln_w = np.log(w)
    u = np.where(low, -ln_1mw, np.where(high, np.log1p(-1.0 / w_high), -ln_w))
    v = u * u
    p = _kernels._LI2_SERIES[-1]
    for c in _kernels._LI2_SERIES[-2::-1]:
        p = p * v + c
    series = u * (1.0 + u * (-0.25 + u * p))
    offset = np.where(low, _PI2_6 - ln_1mw * ln_w, -_PI2_6 - 0.5 * ln_wm1 * ln_wm1)
    return np.where(low | high, offset - series, series)


def _step_functional_plain(x_new, x_curr, slope_curr, mass, f0_cells, h, tau, a0,
                           damped_start):
    """F as plain expressions, each temporary a fresh array."""
    y = (x_new[..., 1:] - x_new[..., :-1]) / h
    d = y - slope_curr
    dx = x_new[..., 1:-1] - x_curr[1:-1]
    value = ((0.5 / tau) * np.add.reduce(mass[1:-1] * (dx * dx), axis=-1)
             + (0.5 * a0 * tau) * np.add.reduce(d * d, axis=-1))
    if damped_start:
        value -= np.add.reduce(f0_cells * np.log(y), axis=-1)
    else:
        w = y / slope_curr
        value += (np.add.reduce(f0_cells * _spence_plain(w), axis=-1)
                  + (tau * tau) * np.add.reduce(w - np.log(y), axis=-1))
    return h * (float(value) if x_new.ndim == 1 else value)


def _jittered(rng, M, jitter):
    widths = 1.0 + jitter * rng.uniform(-1.0, 1.0, M)
    x = np.concatenate(([0.0], np.cumsum(widths)))
    return x / x[-1]


@pytest.mark.parametrize("M", [1, 7, 64, 401])
def test_step_functional_is_bitwise_the_plain_formula(rng, M):
    # F written into a workspace gives the bits of the plain expressions,
    # fresh or reused, for one trajectory and for a (k, M+1) stack, with
    # Spence lanes in one, two or all three branches (w = y/y0 below 1/2,
    # in [1/2, 2], above 2)
    h = 1.0 / M
    branches = set()
    for jitter in (0.2, 0.6, 0.99):
        x_curr = _jittered(rng, M, jitter)
        slope_curr = np.diff(x_curr) / h
        mass = rng.uniform(0.1, 3.0, M + 1)
        f0_cells = rng.uniform(1e-4, 2.0, M)
        tau, a0 = 10.0 ** rng.uniform(-4.0, 0.0), rng.uniform(0.0, 2.0)
        xs = np.array([_jittered(rng, M, jitter) for _ in range(3)])
        w = np.diff(xs) / h / slope_curr
        branches.update(np.where(w < 0.5, -1, np.where(w > 2.0, 1, 0)).ravel().tolist())
        args = (x_curr, slope_curr, mass, f0_cells, h, tau, a0)
        for damped_start in (False, True):
            coeffs = SchemeCoefficients(mass=mass, slope_curr=slope_curr, f0_cells=f0_cells,
                                        h=h, tau=tau, a0=a0, damped_start=damped_start)
            for x_new in (xs[0], xs):
                want = _step_functional_plain(x_new, *args, damped_start)
                work = _kernels.Workspace(x_new.shape)
                for got in (_kernels.step_functional(x_new, x_curr, coeffs,
                                                     _kernels.Workspace(x_new.shape)),
                            _kernels.step_functional(x_new, x_curr, coeffs, work),
                            _kernels.step_functional(x_new, x_curr, coeffs, work)):
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if M > 1:
        assert branches == {-1, 0, 1}


def test_spence_skips_only_the_branches_no_lane_needs():
    # one lane per branch and the edges 1/2 and 2, alone and together
    w = np.array([1e-9, 0.3, 0.5, 1.0, 2.0, 3.0, 1e9])
    for lanes in ([3], [1, 3], [3, 5], [0, 6], list(range(7)), [2, 4]):
        got = _kernels._spence(w[lanes])
        assert got.tobytes() == _spence_plain(w[lanes]).tobytes()


def test_import_pulls_in_numpy_and_stdlib_only():
    """The import footprint keeps start-up time and resident memory small:
    beyond the standard library, pmetraj imports numpy and nothing else (no
    compiled-kernel or LAPACK wrapper packages), and none of the standard
    library's process pools: run_many forks with os and pickle alone."""
    code = ("import sys; before = set(sys.modules); import pmetraj; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(m for m in new - set(sys.stdlib_module_names) "
            "if not m.startswith('_'))); "
            "print(pmetraj.backend_name()); "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'multiprocessing', 'concurrent'}))")
    src = os.path.dirname(os.path.dirname(pmetraj.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["['numpy', 'pmetraj']", "numpy", "[]"]


def test_only_errors_imports_numbers():
    """The count rule has one home: errors.require_count is the one
    numbers.Integral test, and every integer field (M, newton_max_iter,
    snapshot_every, restart's n, a study's counts) goes through it, so no
    other module of the package imports numbers to spell out its own."""
    importers = set()
    for path in sorted(Path(pmetraj.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numbers" for name in names):
                importers.add(path.name)
    assert importers == {"errors.py"}


def test_hot_paths_reduce_with_ufuncs_not_numpy_wrappers(monkeypatch):
    """The check sweeps and a run's steps reduce with the ufunc
    (np.add.reduce, np.maximum.reduce) or the array's own min, max, all or
    any, and difference with np.subtract, as _kernels._row_sum does: numpy's
    Python-level wrappers cost two to three times the call on these short fields.
    Neither the package nor numpy on its behalf calls them here."""
    calls = set()

    def recorder(name, original):
        def call(*args, **kwargs):
            calls.add((name, sys._getframe(1).f_code.co_name))
            return original(*args, **kwargs)
        return call

    for name in ("sum", "min", "max", "all", "any", "diff"):
        monkeypatch.setattr(np, name, recorder(name, getattr(np, name)))
    checks.run_all(0)
    spec = make_problem(2.0, Grid(0.0, 1.0, 64), quadratic_bump)
    result = stepper.run(RunConfig(spec=spec, params=SolverParams(tau=1 / 64), t_final=3 / 64))
    assert result.final_state.n == 3
    assert calls == set()
