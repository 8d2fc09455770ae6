import numpy as np
import pytest

from pmetraj import RunConfig, bootstrap, convergence_study, steps

#: The refinement study of the acceptance gate (test_acceptance.py): both
#: exponents of the published table at t = 0.05 with tau = h and a0 = 1,
#: against one reference run at M = 9600.
STUDY_M = (5.0 / 3.0, 2.0)
H_LIST = [1.0 / 200, 1.0 / 400, 1.0 / 800, 1.0 / 1600]
REFERENCE_M = 9600
T_EVAL = 0.05


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def studies():
    """The acceptance study, run once per session for every test that reads
    its runs."""
    return {m: convergence_study(m, H_LIST, REFERENCE_M, T_EVAL, "paper-quadratic")
            for m in STUDY_M}


def state_after(spec, params, n):
    """The state n steps of tau after the bootstrap, read from the stream."""
    state = bootstrap(spec)
    for state, _ in steps(RunConfig(spec=spec, params=params, t_final=n * params.tau), state):
        pass
    return state
