import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from pmetraj import RunConfig, bootstrap, convergence_studies, steps

try:
    import mpmath
except ImportError:  # the mpmath tests skip; there is no precision to guard
    mpmath = None

#: The refinement study of the acceptance gate (test_acceptance.py): both
#: exponents of the published table at t = 0.05 with tau = h and a0 = 1,
#: against one reference run at M = 9600.
STUDY_M = (5.0 / 3.0, 2.0)
H_LIST = [1.0 / 200, 1.0 / 400, 1.0 / 800, 1.0 / 1600]
REFERENCE_M = 9600
T_EVAL = 0.05


def in_git_checkout():
    """Whether the repository is a git checkout with a commit (the tools'
    --against runs need one)."""
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"],
                              cwd=Path(__file__).resolve().parent.parent,
                              capture_output=True).returncode == 0
    except OSError:  # no git
        return False


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(autouse=True)
def mp_precision_kept():
    """Fail a test that leaves mpmath's working precision changed, which
    every later mpmath user in the session would inherit (work under
    mp.workdps instead); the precision is put back first."""
    if mpmath is None:
        yield
        return
    dps = mpmath.mp.dps
    yield
    left = mpmath.mp.dps
    mpmath.mp.dps = dps
    assert left == dps, f"the test left mpmath.mp.dps at {left}, not {dps}"


@pytest.fixture(autouse=True)
def no_child_left():
    """Error a test that leaves a child process of this one behind, alive
    or unreaped (run_many reaps every child it forks)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({'alive' if pid == 0 else f'pid {pid} unreaped'})")


@pytest.fixture(scope="session")
def studies():
    """The acceptance study, run once per session for every test that reads
    its runs; the runs of both studies are mapped in one call."""
    return dict(zip(STUDY_M, convergence_studies(STUDY_M, H_LIST, REFERENCE_M, T_EVAL,
                                                 "paper-quadratic")))


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked in this process while the test runs."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def state_after(spec, params, n):
    """The state n steps of tau after the bootstrap, read from the stream."""
    state = bootstrap(spec)
    for state, _ in steps(RunConfig(spec=spec, params=params, t_final=n * params.tau), state):
        pass
    return state
