"""Bitwise pins of the package's outputs: the sha256 of the check sweeps'
results, of every file the committed solve config writes, of the stdout
and files of the committed refinement study, of tridiagonal solutions over
the sizes the cyclic reduction pads differently, and of the final
trajectories and Newton iteration totals of the near-vacuum corners of the
accepted-input envelope, of a far-phase run and of the quadratic bump at
M = 2e4 and 1e5.

A change that must not move the numerics keeps these digests.  A change
that moves them on purpose re-pins them here and says why in CHANGES.md.
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from pmetraj import (Grid, RunConfig, SolverParams, _kernels, analysis, checks,
                     cli, initial_data_from_key, make_problem, stepper)
from pmetraj.config import Config
from pmetraj.csvio import write_csv_atomic, write_text_atomic

from conftest import H_LIST, REFERENCE_M, STUDY_M, T_EVAL

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: sha256 of repr(checks.run_all(seed)) for seeds 0-9.
RUN_ALL = (
    "a6609e557dbe4e4e568a2d30bd64223ecf55ea53a5aaa29e82635aba2057398e",
    "0cc78a1d1a3c5d36231413d9b11ce6ec9a6702b932feaaa3c91d3c581b2a96a6",
    "10c224012681026484423f92b0c1176f96060c41f23d546387a770d312498e65",
    "aa949d13781395725e56bb1ea43566d410a8b26163cdab4a2d6de458ea1f2eb1",
    "56422dec5971115728b47faa098fc308873d7905ee7f160e0cabd1c79aa7b8a1",
    "28b463169ac8888e49855bc49ce5a629a1ffd9685b64900e983325ec0d820076",
    "a4cd51204fcf949872e7e984ed53f4d6e218f6e83fd7a38e98584654b47334c1",
    "1b93fb40303812c55e2fb898cd4898e3a305a72d8d75611fe36157708d9f8165",
    "81906294ec57207a798d3b2a7c9931a3ff3540819aefef272b55645e5eaef37b",
    "6b637775a61de6df4639d636638c27d07f429a73cce2c399591504181c641ad3",
)

#: sha256 of repr(checks.run_all(seed)) for seeds 10-39, concatenated in
#: seed order.
RUN_ALL_10_39 = "c47f541d691dad35640adbda337621f911b5b53d1a59e3a296c2041d6e2a5d18"

#: sha256 of each file `pmetraj solve --config configs/solve.cfg` writes.
SOLVE_FILES = {
    "energy.csv": "d44e1a373b64717798ad205f3671f291736474f56c205b0356114e0efeb23e8e",
    "mass.csv": "39ad5d6fd8ba5c3c1a5dd9929a1c7b9f1ab25b0f2ee1235ae75b4ac5ecf173ff",
    "snap_0.csv": "e7a71445c1333ad26fca796477f90d54be37ff59d65aedd33a5e10b41b19e85e",
    "snap_2.csv": "ae277e8a1c80c6aeafa72576f89f515bb6149dce0b0e9c8acd5ba127119814d1",
    "snap_4.csv": "29a2e7a95041df451f887c5f4a3fca004ae1786151e4b9393b13dc912ecafb4a",
    "snap_6.csv": "9ba919b4824c867167d971cfa145aa665112fa90d7a177d4d53d23ab6f390f57",
    "snap_8.csv": "6b913853322113b945554b2137d598bc11f73767ab26a4a9a554897a73f7fd1d",
    "snap_10.csv": "808b9057d53ca2b61815515aa748cefa3cb7a35523cb1a3731e0ecb33901871d",
}

#: sha256 of the stdout of `pmetraj convergence --config configs/table.cfg`.
TABLE_STDOUT = "248a466834d6bf3f5366bdeef68d652c6b9eb26ce54eb4f9ca50dcc3c424f768"

#: sha256 of each file that command writes.
TABLE_FILES = {
    "convergence_1.66667.csv": "2da4175b53c827dfd9b344f6d26ec683c0a052ff57a6b621d7ad87aea6df42ae",
    "convergence_1.66667.txt": "38a898cc3cd25b48194e723afe4fac9ca9287d6d74e29f54080a0334c63db390",
    "convergence_2.csv": "986af5c8391f910358cda9bab8518b286eadb36f89e81bd0af9eb7700f1ad521",
    "convergence_2.txt": "f5126ca916cf094e50e8090b3ccdea32ae2ace89292895a08d68ea2d207a63d0",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", range(len(RUN_ALL)))
def test_check_sweeps_are_pinned(seed):
    assert _sha256(repr(checks.run_all(seed)).encode()) == RUN_ALL[seed]


def test_check_sweeps_of_seeds_10_to_39_are_pinned():
    digest = hashlib.sha256()
    for seed in range(10, 40):
        digest.update(repr(checks.run_all(seed)).encode())
    assert digest.hexdigest() == RUN_ALL_10_39


def test_committed_solve_files_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PME_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["solve", "--config", str(CONFIGS / "solve.cfg")]) == 0
    capsys.readouterr()
    written = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert written == SOLVE_FILES


def test_table_config_runs_the_session_study():
    cfg = Config.load(CONFIGS / "table.cfg")
    assert cfg.get_number_list("problem", "m") == list(STUDY_M)
    assert cfg.get_str("problem", "domain") == "0,1"
    assert cfg.get_str("problem", "initial_data") == "paper-quadratic"
    assert cfg.get_number_list("study", "h_list") == H_LIST
    assert cfg.get_int("study", "reference_M") == REFERENCE_M
    assert cfg.get_number("study", "t_eval") == T_EVAL
    assert cfg.get_number("discretization", "A0") == 1.0
    assert "newton" not in cfg.sections


def test_table_study_is_pinned(studies, tmp_path):
    # the session study is the one table.cfg configures (test above),
    # formatted and written as cmd_convergence does
    stdout = ""
    for m, study in studies.items():
        tag = f"{m:g}"
        write_csv_atomic(tmp_path / f"convergence_{tag}.csv", analysis.CSV_HEADER,
                         tuple(zip(*analysis.report_rows(study.report))))
        table = analysis.format_table(study.report)
        write_text_atomic(tmp_path / f"convergence_{tag}.txt", table)
        stdout += table
    assert _sha256(stdout.encode()) == TABLE_STDOUT
    written = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert written == TABLE_FILES


#: Unknown counts of the tridiagonal pin: every size up to 400, then sizes
#: at and around the powers of two and the run sizes (M - 1 of M = 9600,
#: 2e4 and 1e5).
THOMAS_SIZES = (*range(1, 401), 511, 1023, 1024, 1025, 2047, 4224, 8191, 9599,
                19999, 99999)

#: sha256 of the solutions of thomas_spd on two diagonally dominant systems
#: per size in THOMAS_SIZES (diag U(2, 4), off U(-0.9, 0.9), rhs standard
#: normal, generator seed 7), concatenated in draw order.
THOMAS_SOLUTIONS = "02b23f0645ffdefd9f33a13bf866d8b5d1c766dfa69887bb6f38780f493d0a6a"

#: (data key, M, m, tau in units of h, steps): (sha256 of the final x_curr,
#: Newton iterations in all) of the near-vacuum corners at M = 400, then of
#: a run whose every step begins in the far phase and the bump at M = 2e4,
#: then the same two at M = 1e5, the envelope's largest M.
NEAR_VACUUM = {
    ("poly:1e-4,0,1", 400, 1.05, 1, 10):
        ("fd9165c272223733333131360b387533cd0f741778a5418d3633f9f1d0d46fb6", 69),
    ("poly:1e-4,0,1", 400, 1.05, 100, 10):
        ("0ea7603d33735de69e11df390fbc21f1d52076d364a3d398cfc390e2dbea356a", 55),
    ("poly:1e-4,0,1", 400, 8.0, 1, 10):
        ("0fa1f7d74fc5aab11fccd0641d5a4c94a1f9d8553ba01814c1e40a26a8cf5f66", 36),
    ("poly:1e-4,0,1", 400, 8.0, 100, 10):
        ("c5f080386172fa737346b66fa98d8acff54c1cf5c5b2283bf9f4eb3929495990", 60),
    ("poly:1e-4,0,1", 20_000, 8.0, 10, 3):
        ("0c7b47cb9a44722709c4fa9a85d126c029e2868adac4762eff06d7654d71945b", 11),
    ("paper-quadratic", 20_000, 2.0, 1, 3):
        ("4ac3bd0ef341a347209f25fb14a832b776abb9394963e54b45e81ecee9c26cdf", 8),
    ("poly:1e-4,0,1", 100_000, 8.0, 10, 3):
        ("afdc2a7caebe465178b43faf4e4ef42d60cd48cef5ceaa79d4f39ef564cd1364", 11),
    ("paper-quadratic", 100_000, 2.0, 1, 5):
        ("5092933b507366e9396ed59809d446b1c33134a2716a435a532966d274dcaae1", 12),
}


def test_tridiagonal_solutions_are_pinned():
    rng, digest = np.random.default_rng(7), hashlib.sha256()
    for n in THOMAS_SIZES:
        work = _kernels.Workspace((n + 2,))
        for _ in range(2):
            diag, off = rng.uniform(2.0, 4.0, n), rng.uniform(-0.9, 0.9, n - 1)
            rhs = rng.standard_normal(n)
            fresh = _kernels.thomas_spd(diag, off, rhs).tobytes()
            assert _kernels.thomas_spd(diag, off, rhs, work).tobytes() == fresh
            digest.update(fresh)
    assert digest.hexdigest() == THOMAS_SOLUTIONS


@pytest.mark.parametrize("key, M, m, k, steps", NEAR_VACUUM,
                         ids=[f"{m}-{k}" + (f"-M{M}" if M > 20_000 else "")
                              for _, M, m, k, _ in NEAR_VACUUM])
def test_near_vacuum_corners_are_pinned(key, M, m, k, steps):
    spec = make_problem(m, Grid(0.0, 1.0, M), initial_data_from_key(key))
    tau = k / M
    result = stepper.run(RunConfig(spec=spec, params=SolverParams(tau=tau),
                                   t_final=steps * tau))
    assert result.final_state.n == steps
    assert (_sha256(result.final_state.x_curr.tobytes()),
            sum(r.iterations for r in result.newton_reports)) == \
        NEAR_VACUUM[key, M, m, k, steps]
