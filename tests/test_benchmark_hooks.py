"""The benchmark's hooks into the package.

perfbench/tracing.py and perfbench/hostspeed.py time pmetraj by replacing
module attributes by name.  A renamed or deleted name makes their install()
raise, so installing and restoring both here keeps such a change from
passing the suite unnoticed; the benchmark's own tests run outside it.
"""
from pathlib import Path

import numpy as np
import pytest

from pmetraj import (Grid, SolverParams, _kernels, analysis, bootstrap,
                     build_coefficients, checks, cli, config, functional,
                     make_problem, newton, quadratic_bump, stepper)

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
    coeffs = build_coefficients(state.x_curr, state.x_prev, spec, params)
    tracer = tracing.Tracer().install()
    try:
        functional.residual(state.x_curr, state.x_curr, coeffs, spec, params)
    finally:
        tracer.restore()
    assert [span[0] for span in tracer.spans] == [
        "functional.residual", "kernels.residual_interior"]
    assert tracer.counts["residual.cells"] == g.M


def test_host_clock_installs_and_restores(perfbench_path):
    import hostspeed
    clock = hostspeed.HostClock()
    _install_and_restore(clock)
    assert clock._saved == []
    assert np.isfinite(hostspeed.probe())
