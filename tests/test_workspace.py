"""The per-run workspace: kernels that write into reused buffers give the
bits of a fresh call, no result aliases a buffer a later call writes, and a
warm Newton solve allocates only the node fields of its own step."""
import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from pmetraj import (Grid, LAMBDA_STAR, RunConfig, SchemeCoefficients, SolverParams,
                     advance, bootstrap, build_coefficients, eval_F, hessian_coefficients,
                     initial_data_from_key, make_problem, newton_step,
                     quadratic_bump, recover_density, residual, run, solve_tridiagonal, steps)
from pmetraj import _kernels, checks
from pmetraj._kernels import SCALAR_BASE, Workspace

from conftest import state_after

# Both sides of the scalar base, and systems the reduction leaves unpadded
# (65) or pads with unit rows (66 -> 67, 148 and 149 -> 151, 1024 and
# 1025 -> 1039), on one, two and four levels.
SIZES = [5, SCALAR_BASE, SCALAR_BASE + 1, SCALAR_BASE + 2, 148, 149, 1024, 1025]


def _random_spd(rng, n):
    diag = rng.uniform(2.0, 4.0, n)
    off = rng.uniform(-0.9, 0.9, n - 1)
    return diag, off, rng.standard_normal(n)


@pytest.mark.parametrize("n", SIZES)
def test_reused_workspace_solves_bitwise_as_a_fresh_one(rng, n):
    # two systems through one workspace: each solution is the fresh call's,
    # the caller's arrays are read only, and work.rhs is solved in place
    work = Workspace((n + 2,))
    for _ in range(2):
        diag, off, rhs = _random_spd(rng, n)
        kept = [a.copy() for a in (diag, off, rhs)]
        want = _kernels.thomas_spd(diag, off, rhs, Workspace((n + 2,)))
        got = _kernels.thomas_spd(diag, off, rhs, work)
        assert got.tobytes() == want.tobytes()
        for a, b in zip((diag, off, rhs), kept):
            assert a.tobytes() == b.tobytes()
        work.rhs[:] = rhs
        assert _kernels.thomas_spd(diag, off, work.rhs, work).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [SCALAR_BASE + 2, 149, 1025])
def test_a_nan_solve_leaves_nothing_in_the_workspace(rng, n):
    # the solve spreads a NaN of rhs into the pad rows; the next solve
    # through the same workspace still gives the fresh call's bits
    work = Workspace((n + 2,))
    diag, off, rhs = _random_spd(rng, n)
    rhs[n // 2] = np.nan
    assert np.isnan(_kernels.thomas_spd(diag, off, rhs, work)).all()
    diag, off, rhs = _random_spd(rng, n)
    want = _kernels.thomas_spd(diag, off, rhs, Workspace((n + 2,)))
    assert _kernels.thomas_spd(diag, off, rhs, work).tobytes() == want.tobytes()


@pytest.mark.parametrize("damped_start", [False, True])
def test_solution_holds_across_assemblies_and_F(rng, damped_start):
    # newton_step's far phase steps along the solution, work.rhs, while it
    # assembles and evaluates F at trial points in the same workspace
    M = 1025
    h = 1.0 / M
    x_curr = np.linspace(0.0, 1.0, M + 1)
    x_curr[1:-1] += 0.3 * h * rng.uniform(-1.0, 1.0, M - 1)
    coeffs = SchemeCoefficients(slope_curr=np.diff(x_curr) / h, mass=rng.uniform(0.5, 2.0, M + 1),
                                f0_cells=rng.uniform(1e-3, 1.0, M), h=h, tau=10.0 * h, a0=0.7,
                                damped_start=damped_start)
    work = Workspace((M + 1,))
    g, diag, off = _kernels.residual_hessian(x_curr, x_curr, coeffs, work)
    delta = _kernels.thomas_spd(diag, off, np.negative(g, out=work.rhs), work)
    assert delta is work.rhs
    kept = delta.copy()
    for _ in range(2):
        x = x_curr.copy()
        x[1:-1] += 0.2 * h * rng.uniform(-1.0, 1.0, M - 1)
        _kernels.residual_hessian(x, x_curr, coeffs, work)
        _kernels.step_functional(x, x_curr, coeffs, work)
        assert delta.tobytes() == kept.tobytes()


@pytest.mark.parametrize("M", [67, 149, 150, 1025, 1026])
def test_assembled_system_solves_in_place_as_copies(rng, M):
    # the assembly forms its last cell's flux and c on the first pad row of
    # diag and off (n = 66, 148, 149, 1024 and 1025 pad to 67, 151, 151,
    # 1039 and 1039), so the solve of the workspace's own system resets it
    h = 1.0 / M
    x_curr = np.linspace(0.0, 1.0, M + 1)
    x_curr[1:-1] += 0.3 * h * rng.uniform(-1.0, 1.0, M - 1)
    coeffs = SchemeCoefficients(slope_curr=np.diff(x_curr) / h, mass=rng.uniform(0.5, 2.0, M + 1),
                                f0_cells=rng.uniform(1e-3, 1.0, M), h=h, tau=10.0 * h, a0=0.7,
                                damped_start=False)
    x = x_curr.copy()
    x[1:-1] += 0.1 * h * rng.uniform(-1.0, 1.0, M - 1)
    work = Workspace((M + 1,))
    g, diag, off = _kernels.residual_hessian(x, x_curr, coeffs, work)
    want = _kernels.thomas_spd(diag.copy(), off.copy(), -g, Workspace((M + 1,)))
    got = _kernels.thomas_spd(diag, off, np.negative(g, out=work.rhs), work)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda w: pickle.loads(pickle.dumps(w))])
def test_copied_workspace_solves_as_a_fresh_one(rng, clone):
    # a used workspace's views share one array; a copy must not keep views
    # that no longer do
    n = 300
    work = Workspace((n + 2,))
    _kernels.thomas_spd(*_random_spd(rng, n), work)
    twin = clone(work)
    assert twin.shape == work.shape
    diag, off, rhs = _random_spd(rng, n)
    want = _kernels.thomas_spd(diag, off, rhs, Workspace((n + 2,)))
    assert _kernels.thomas_spd(diag, off, rhs, twin).tobytes() == want.tobytes()


@pytest.mark.parametrize("damped_start", [False, True])
def test_reused_workspace_assembles_bitwise_as_a_fresh_one(rng, damped_start):
    # one workspace across candidates with and without equal-slope lanes
    M = 400
    h = 1.0 / M
    x_curr = np.linspace(0.0, 1.0, M + 1)
    x_curr[1:-1] += 0.3 * h * rng.uniform(-1.0, 1.0, M - 1)
    slope_curr = np.diff(x_curr) / h
    mass = rng.uniform(0.5, 2.0, M + 1)
    f0_cells = rng.uniform(1e-3, 1.0, M)
    coeffs = SchemeCoefficients(mass=mass, slope_curr=slope_curr, f0_cells=f0_cells, h=h,
                                tau=10.0 * h, a0=0.7, damped_start=damped_start)
    work = Workspace((M + 1,))
    for moved in (True, False, True):
        x = x_curr.copy()
        if moved:
            x[1:-1] += 0.2 * h * rng.uniform(-1.0, 1.0, M - 1)
        g, diag, off = _kernels.residual_hessian(x, x_curr, coeffs, work)
        want_g = _kernels.residual_interior(x, x_curr, coeffs)
        want_diag, want_off = _kernels.hessian_tridiag(x, coeffs)
        assert g.tobytes() == want_g[1:-1].tobytes()
        assert diag.tobytes() == want_diag.tobytes()
        assert off.tobytes() == want_off.tobytes()


@pytest.mark.parametrize("damped_start", [False, True])
def test_one_workspace_serves_a_trajectory_and_stacks_of_it(rng, damped_start):
    # a check sweep keeps one workspace per shape and hands it to calls on
    # one trajectory and on stacks of probes: every call gives the bits of
    # a fresh workspace
    spec, params = _quad(16)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params,
                                damped_start=damped_start)
    X = spec.grid.nodes()
    x = X.copy()
    x[1:-1] += 0.2 * spec.grid.h * rng.uniform(-1.0, 1.0, spec.grid.M - 1)
    stack = np.array([x, X, 1.0 - x[::-1]])
    works = {y.shape: Workspace(y.shape) for y in (x, stack)}
    for y in (x, stack, x, stack):
        work = works[y.shape]
        got = [*_kernels.residual_hessian(y, state.x_curr, coeffs, work),
               _kernels.step_functional(y, state.x_curr, coeffs, work)]
        want = [_kernels.residual_interior(y, state.x_curr, coeffs)[..., 1:-1],
                *_kernels.hessian_tridiag(y, coeffs),
                _kernels.step_functional(y, state.x_curr, coeffs, Workspace(y.shape))]
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _quad(M=64, m=2.0):
    spec = make_problem(m, Grid(0.0, 1.0, M), quadratic_bump)
    return spec, SolverParams(tau=spec.grid.h)


@pytest.mark.parametrize("damped_start", [False, True])
def test_one_off_calls_carve_no_reduction_and_give_the_newton_bits(monkeypatch,
                                                                   damped_start):
    # residual, hessian_coefficients and eval_F, given no workspace, assemble
    # a one-row stack, whose workspace carves no cyclic reduction, and give
    # the bits of the assembly and F in the 1-D workspace Newton uses
    spec, params = _quad(200)
    state = state_after(spec, params, 3)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev,
                                spec, params, damped_start=damped_start)
    nodes = spec.grid.nodes()
    x_hat = state.x_curr - nodes + 1e-3 * spec.grid.h * np.sin(np.pi * nodes) ** 2
    x = nodes + x_hat
    work = Workspace(x.shape)
    want_g = _kernels.residual_hessian(x, state.x_curr, coeffs, work)[0].copy()
    want_diag, want_off = (a.copy() for a in _kernels.residual_hessian(x, x, coeffs, work)[1:])
    want_F = (_kernels.step_functional(x, state.x_curr, coeffs, work)
              + _kernels.step_constant(coeffs))

    def no_level(*args):
        raise AssertionError("a one-off call carved a cyclic reduction")

    monkeypatch.setattr(_kernels, "_Level", no_level)
    g = residual(x, state.x_curr, coeffs, spec)
    diag, off = hessian_coefficients(x, coeffs, spec)
    value = eval_F(x_hat, state.x_curr, coeffs, spec)
    assert g.shape == x.shape and g[0] == g[-1] == 0.0
    assert g[1:-1].tobytes() == want_g.tobytes()
    assert diag.tobytes() == want_diag.tobytes() and off.tobytes() == want_off.tobytes()
    assert type(value) is float and value == want_F


def _unchanged_after(first, second):
    """first() is unchanged by second(): first's arrays, copied, against
    themselves after second runs."""
    out = first()
    kept = [a.copy() for a in out]
    second()
    return all(a.tobytes() == b.tobytes() for a, b in zip(out, kept))


def test_no_result_aliases_a_reused_buffer(rng):
    spec, params = _quad()
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    xs = [state.x_curr.copy() for _ in range(2)]
    for x in xs:
        x[1:-1] += 0.1 * spec.grid.h * rng.uniform(-1.0, 1.0, spec.grid.M - 1)

    def residual_at(x):
        return lambda: [residual(x, state.x_curr, coeffs, spec)]

    def hessian_at(x):
        return lambda: list(hessian_coefficients(x, coeffs, spec))

    systems = [_random_spd(rng, 100) for _ in range(2)]

    def solve(system):
        return lambda: [solve_tridiagonal(*system)]

    assert _unchanged_after(residual_at(xs[0]), residual_at(xs[1]))
    assert _unchanged_after(hessian_at(xs[0]), hessian_at(xs[1]))
    assert _unchanged_after(solve(systems[0]), solve(systems[1]))

    # newton_step through one workspace, that of two consecutive states
    state_1 = advance(state, spec, params)[0]
    assert state_1.work is state.work is not None
    coeffs_1 = build_coefficients(state_1.slope_curr, state_1.wide_curr, state_1.wide_prev,
                                  spec, params)
    assert _unchanged_after(lambda: [newton_step(state, coeffs, spec, params)[0]],
                            lambda: newton_step(state_1, coeffs_1, spec, params))

    def fields(s):
        return [s.x_curr, s.slope_curr, s.wide_curr]

    assert _unchanged_after(lambda: fields(advance(state, spec, params)[0]),
                            lambda: advance(state_1, spec, params))


@pytest.mark.parametrize("key, m", [("paper-quadratic", 2.0), ("poly:1e-3,0,1", 8.0)])
def test_states_kept_from_a_run_stay_unchanged(key, m):
    # every field of every state, copied when the step made it, against
    # itself after all later steps (the second case takes far-phase steps)
    spec = make_problem(m, Grid(0.0, 1.0, 101), initial_data_from_key(key))
    params = SolverParams(tau=10.0 * spec.grid.h)
    names = ("x_curr", "x_prev", "x_prev2", "slope_curr", "wide_curr", "wide_prev")
    config = RunConfig(spec=spec, params=params, t_final=6 * params.tau)
    kept, far = [], 0
    for state, diag in steps(config, bootstrap(spec)):
        far += sum(lam >= LAMBDA_STAR for lam in diag.report.lambda_history)
        fields = [getattr(state, name) for name in names]
        kept.append((fields, [None if f is None else f.copy() for f in fields]))
    assert far > 0 or key == "paper-quadratic"
    for fields, copies in kept:
        for f, c in zip(fields, copies):
            assert (f is None) == (c is None)
            if f is not None:
                assert f.tobytes() == c.tobytes()


def test_run_shares_one_workspace_and_frees_it():
    spec, params = _quad()
    config = RunConfig(spec=spec, params=params, t_final=3 * params.tau)
    result = run(config)
    states = [state for state, _ in steps(config, bootstrap(spec))]
    assert all(s.work is states[0].work for s in states) and states[0].work is not None
    assert result.final_state.work is None
    np.testing.assert_array_equal(result.final_state.x_curr, states[-1].x_curr)


@pytest.mark.parametrize("key, m", [("paper-quadratic", 2.0), ("poly:1e-3,0,1", 8.0)])
def test_a_state_without_a_workspace_steps_as_the_carried_state(key, m):
    # a run's final_state carries no workspace, so its next step forms the
    # density and the mass's pair sums in fresh arrays, not in the cells:
    # the step gives the bits of one more step of the state the run carried
    spec = make_problem(m, Grid(0.0, 1.0, 101), initial_data_from_key(key))
    params = SolverParams(tau=10.0 * spec.grid.h)
    bare = run(RunConfig(spec=spec, params=params, t_final=3 * params.tau)).final_state
    carried = state_after(spec, params, 3)
    assert bare.work is None and carried.work is not None
    got, got_diag = advance(bare, spec, params)
    want, want_diag = advance(carried, spec, params)
    assert got.work is None
    assert got.x_curr.tobytes() == want.x_curr.tobytes()
    assert got.e_curr == want.e_curr and got_diag.mass == want_diag.mass
    densities = [recover_density(s.x_curr, spec, s.slope_curr, s.wide_curr) for s in (got, want)]
    assert densities[0].tobytes() == densities[1].tobytes()


def test_step_density_lies_in_the_workspace_cells():
    # advance's density is the state's, in the cells of the state's
    # workspace when it carries one and in a fresh array when not
    spec, params = _quad(64)
    state = advance(bootstrap(spec), spec, params)[0]
    for work in (state.work, None):
        new_state, diag = advance(dataclasses.replace(state, work=work), spec, params)
        want = recover_density(new_state.x_curr, spec)
        assert diag.density.tobytes() == want.tobytes()
        assert (work is not None) == np.shares_memory(diag.density, state.work.cells[0])


def test_warm_newton_step_allocates_at_most_three_node_fields():
    # a warm solve allocates its start, the second iterate buffer and a few
    # bool masks: 2.36 node fields at M = 4096, so the bound is 3 (the
    # per-call temporaries of the assembly and the reduction made it 11.8
    # before the workspace)
    M = 4096
    spec, params = _quad(M)
    state = state_after(spec, params, 3)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    newton_step(state, coeffs, spec, params)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        _, report = newton_step(state, coeffs, spec, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations == 3
    assert peak - start <= 3 * 8 * (M + 1)


def test_warm_far_phase_newton_step_allocates_at_most_three_node_fields(monkeypatch):
    # far-phase iterations, and the evaluations of F their line search makes
    # when the convexity certificate fails, write into the workspace too:
    # 2.38 node fields at M = 4096 (17.6 when F formed its temporaries)
    M = 4096
    spec = make_problem(8.0, Grid(0.0, 1.0, M), initial_data_from_key("poly:1e-4,0,1"))
    params = SolverParams(tau=10 * spec.grid.h)
    state = advance(bootstrap(spec), spec, params)[0]
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    newton_step(state, coeffs, spec, params)
    calls, functional = [], _kernels.step_functional

    def counting(*args):
        calls.append(1)
        return functional(*args)

    monkeypatch.setattr(_kernels, "step_functional", counting)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        _, report = newton_step(state, coeffs, spec, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(lam >= LAMBDA_STAR for lam in report.lambda_history) >= 2
    assert len(calls) >= 2
    assert peak - start <= 3 * 8 * (M + 1)


def test_run_peak_memory_in_node_fields():
    # the peak of a short run above what it starts with, in node fields of
    # M + 1 floats, at M = 2e4: 17.31 near vacuum (tau = 10h; 16.20 at
    # M = 1e5) and 17.49 for the quadratic bump (tau = h), whose state
    # carries x^{n-2} (17.20 at M = 1e5, 5 steps).  The peak is Newton's
    # own: after it, advance holds no coefficients and forms the density
    # and the mass in the workspace's cells, whose scratch is four cell
    # fields.  Each bound holds today's peak with about 2.5% to spare, and
    # a change that raises it re-sets the bound
    M = 20_000
    for key, m, k, bound in [("poly:1e-4,0,1", 8.0, 10, 17.8), ("paper-quadratic", 2.0, 1, 17.9)]:
        spec = make_problem(m, Grid(0.0, 1.0, M), initial_data_from_key(key))
        params = SolverParams(tau=k * spec.grid.h)
        config = RunConfig(spec=spec, params=params, t_final=3 * params.tau)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.final_state.n == 3
        assert (peak - start) / (8 * (M + 1)) <= bound, key


def test_workspace_holds_at_most_eight_and_a_half_node_fields():
    # a 1-D workspace with its reduction carved: g, diag, off, the mask, rhs
    # and the cell scratch, which the reduction shares with the assembly
    # and F (four cell fields, 8.42 node fields in all at M = 2e4; five cell
    # fields made it 9.33)
    M = 20_000
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        work = Workspace((M + 1,))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (held - start) / (8 * (M + 1)) <= 8.6


def test_check_sweeps_peak_memory():
    # the peak of a warm checks.run_all(0): 914 KB (the same at seeds 1-4),
    # most of it the finite-difference sweeps' probe stacks and their
    # workspaces, one oracle call per flux form on its batch of 10 states;
    # the bound holds that peak with a 7% margin
    checks.run_all(0)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        results = checks.run_all(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(result.ok for result in results)
    assert peak - start <= 0.96 * 2 ** 20


# ---------------------------------------------------------------------------
# who makes a workspace: the kernels write into the one they are handed
# ---------------------------------------------------------------------------

def _made(monkeypatch):
    """The shapes of the Workspaces made from now on, in order."""
    shapes, init = [], Workspace.__init__

    def counting(self, shape):
        shapes.append(tuple(shape))
        init(self, shape)

    monkeypatch.setattr(Workspace, "__init__", counting)
    return shapes


def test_kernels_take_the_workspace_their_caller_hands_them():
    spec, params = _quad(16)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    with pytest.raises(TypeError):
        _kernels.step_functional(state.x_curr, state.x_curr, coeffs)
    with pytest.raises(TypeError):
        _kernels.thomas_spd(np.full(3, 2.0), np.zeros(2), np.ones(3))


def test_workspaces_are_made_by_their_owners(monkeypatch):
    # a run's one (restart), one per shape a check sweep's oracle uses (both
    # flux forms share them), and one per one-off call
    spec, params = _quad(64)
    made = _made(monkeypatch)
    stream = list(steps(RunConfig(spec=spec, params=params, t_final=5 * params.tau),
                        bootstrap(spec)))
    assert len(stream) == 5 and made == [(65,)]
    made.clear()
    assert all(result.ok for result in checks.run_all(0))
    assert made == [(10, 17), (60, 10, 17), (47, 10, 25)]
    state = stream[-1][0]
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    x = state.x_curr
    for call in (lambda: eval_F(x - spec.grid.nodes(), x, coeffs, spec),
                 lambda: residual(x, x, coeffs, spec),
                 lambda: hessian_coefficients(x, coeffs, spec),
                 lambda: solve_tridiagonal(np.full(3, 2.0), np.zeros(2), np.ones(3))):
        made.clear()
        call()
        assert len(made) == 1


def test_solve_tridiagonal_takes_lists_and_int_arrays_as_floats(rng):
    # the solve's copy-in converts them: the bits of the float-array call
    n = 2 * SCALAR_BASE + 5
    system = (rng.integers(5, 9, n), rng.integers(-2, 3, n - 1), rng.integers(-9, 10, n))
    want = solve_tridiagonal(*(a.astype(float) for a in system)).tobytes()
    assert solve_tridiagonal(*system).tobytes() == want
    assert solve_tridiagonal(*(a.tolist() for a in system)).tobytes() == want
    with pytest.raises(ValueError) as exc:
        solve_tridiagonal(np.ones(3), np.zeros(3), np.ones(3))
    assert str(exc.value) == "inconsistent tridiagonal system: diag 3, offdiag 3, rhs 3"
    # an entry that is not a number is not a singular system
    with pytest.raises(ValueError, match="could not convert"):
        solve_tridiagonal(["a", 2.0], [0.0], [1.0, 1.0])
