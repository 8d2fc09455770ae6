"""The benchmark's hooks into the package.

perfbench/tracing.py and perfbench/hostspeed.py time pmetraj by replacing
module attributes by name.  A renamed or deleted name makes their install()
raise, so installing and restoring both here keeps such a change from
passing the suite unnoticed; the benchmark's own tests run outside it.
"""
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from pmetraj import (Grid, SolverParams, _kernels, analysis, bootstrap, checks, cli, config,
                     functional, make_problem, newton, quadratic_bump, stepper)
from pmetraj.functional import build_coefficients

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PATCHED_MODULES = (_kernels, analysis, checks, cli, config.Config, functional,
                   newton, stepper)


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def _replaced(before):
    """Names whose object differs from the snapshot `before`."""
    return [name for owner, was in zip(PATCHED_MODULES, before)
            for name, value in vars(owner).items()
            if name not in was or value is not was[name]]


def _install_and_restore(hook):
    before = [dict(vars(owner)) for owner in PATCHED_MODULES]
    hook.install()
    try:
        assert _replaced(before)  # the hook did replace attributes
    finally:
        hook.restore()
    assert _replaced(before) == []


def test_tracer_installs_and_restores(perfbench_path):
    import tracing
    tracer = tracing.Tracer()
    _install_and_restore(tracer)
    assert tracer._saved == []


def test_tracer_sees_the_residual_kernel(perfbench_path):
    import tracing
    g = Grid(0.0, 1.0, 8)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    coeffs = build_coefficients(state.slope_curr, state.wide_curr, state.wide_prev, spec, params)
    tracer = tracing.Tracer().install()
    try:
        functional.residual(state.x_curr, state.x_curr, coeffs, spec)
        functional.hessian_coefficients(state.x_curr, coeffs, spec)
    finally:
        tracer.restore()
    assert [span[0] for span in tracer.spans] == [
        "functional.residual", "kernels.residual_interior",
        "functional.hessian_coefficients", "kernels.hessian_tridiag"]
    assert tracer.counts["residual.cells"] == g.M
    assert tracer.counts["hessian.cells"] == g.M


def test_tracer_sees_the_layers_of_one_step(perfbench_path):
    """A traced advance records the step's coefficients and its Newton
    solve under it, and each Newton iteration's tridiagonal solve with the
    kernel under that."""
    import tracing
    g = Grid(0.0, 1.0, 8)
    spec = make_problem(2.0, g, quadratic_bump)
    params = SolverParams(tau=g.h)
    state = bootstrap(spec)
    tracer = tracing.Tracer().install()
    try:
        _, diag = stepper.advance(state, spec, params)
    finally:
        tracer.restore()
    spans = tracer.spans

    def children(parent):
        return [k for k, span in enumerate(spans) if span[3] == parent]

    assert spans[0][0] == "stepper.advance" and spans[0][3] == -1
    step = children(0)
    assert [spans[k][0] for k in step[:2]] == ["functional.build_coefficients",
                                              "newton.newton_step"]
    solves = [k for k in children(step[1]) if spans[k][0] == "newton.solve_tridiagonal"]
    assert len(solves) == diag.report.iterations >= 1
    for k in solves:
        assert [spans[c][0] for c in children(k)] == ["kernels.thomas_spd"]


def test_tracer_sees_every_run_of_a_study(perfbench_path):
    """A traced convergence_study records one stepper.run span per
    resolution directly under its own span, and the reference's time as
    analysis.reference_s, from which perfbench forms
    analysis.reference_share."""
    import tracing
    tracer = tracing.Tracer().install()
    try:
        analysis.convergence_study(2.0, [1 / 10, 1 / 20], 40, 0.1, "paper-quadratic")
    finally:
        tracer.restore()
    spans = tracer.spans
    study = [k for k, span in enumerate(spans) if span[0] == "analysis.convergence_study"]
    assert len(study) == 1 and spans[study[0]][3] == -1
    runs = [span for span in spans if span[0] == "stepper.run" and span[3] == study[0]]
    assert len(runs) == 3
    assert 0.0 < tracer.counts["analysis.reference_s"] <= spans[study[0]][2] - spans[study[0]][1]


def test_host_clock_installs_and_restores(perfbench_path):
    import hostspeed
    clock = hostspeed.HostClock()
    _install_and_restore(clock)
    assert clock._saved == []
    assert np.isfinite(hostspeed.probe())


def _csv_spans(tracer):
    return [span for span in tracer.spans if span[0] == "csvio.write_csv_atomic"]


@pytest.mark.parametrize("snapshot_every", [0, 3])
def test_tracer_sees_every_file_a_run_writes(perfbench_path, tmp_path, snapshot_every):
    """Snapshots, energy.csv and mass.csv all go through the writer that
    the tracer wraps: one csvio span per file, and csvio.bytes the files'
    total size.  A run without an output directory writes and records
    nothing.  Each of a run's 8 steps is one stepper.advance span under it."""
    import tracing
    g = Grid(0.0, 1.0, 20)
    spec = make_problem(2.0, g, quadratic_bump)
    config = stepper.RunConfig(spec=spec, params=SolverParams(tau=g.h),
                               t_final=7.5 * g.h, snapshot_every=snapshot_every)
    out_dir = tmp_path / "out"
    tracer = tracing.Tracer().install()
    try:
        stepper.run(config)
        assert _csv_spans(tracer) == [] and tracer.counts["csvio.bytes"] == 0
        stepper.run(dataclasses.replace(config, output_dir=out_dir))
    finally:
        tracer.restore()
    files = sorted(out_dir.iterdir())
    snapshots = [p.name for p in files if p.name.startswith("snap_")]
    assert len(snapshots) == (4 if snapshot_every else 2)
    assert len(_csv_spans(tracer)) == len(files) == len(snapshots) + 2
    assert tracer.counts["csvio.bytes"] == sum(p.stat().st_size for p in files)
    runs = [k for k, span in enumerate(tracer.spans) if span[0] == "stepper.run"]
    steps = [span[3] for span in tracer.spans if span[0] == "stepper.advance"]
    assert len(runs) == 2 and steps == [runs[0]] * 8 + [runs[1]] * 8


def test_tracer_sees_every_csv_a_convergence_writes(perfbench_path, tmp_path, capsys):
    """A traced `pmetraj convergence` of two exponents on two levels
    records one csvio span under cli.main per CSV it writes, through the
    writer cli looks up; the text tables go through write_text_atomic and
    are not counted."""
    import tracing
    cfg = tmp_path / "study.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text("[problem]\nm = 5/3, 2\ninitial_data = paper-quadratic\n"
                   "[study]\nh_list = 1/10, 1/20\nreference_M = 40\nt_eval = 0.1\n"
                   f"[output]\ndir = {out_dir}\n")
    tracer = tracing.Tracer().install()
    try:
        assert cli.main(["convergence", "--config", str(cfg)]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    csvs = sorted(out_dir.glob("*.csv"))
    assert [p.name for p in csvs] == ["convergence_1.66667.csv", "convergence_2.csv"]
    main = [k for k, span in enumerate(tracer.spans) if span[0] == "cli.main"]
    assert len(main) == 1
    assert [span[3] for span in _csv_spans(tracer)] == main * len(csvs)
    assert tracer.counts["csvio.bytes"] == sum(p.stat().st_size for p in csvs)
