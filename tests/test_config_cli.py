import csv
import os
import runpy
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from pmetraj import (Grid, RunConfig, SolverParams, analysis, cli, functional,
                     initial_data_from_key, make_problem, quadratic_bump, stepper)
from pmetraj.analysis import study_cell_counts
from pmetraj.config import Config, parse_number
from pmetraj.errors import ConfigurationError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SOLVE_CONFIG = """
# quadratic bump, ten steps
[problem]
m = 2
domain = 0,1
initial_data = paper-quadratic

[discretization]
M = 100
tau = 1/100
t_final = 0.1
A0 = 1.0

[newton]
max_iter = 60

[output]
dir = {out}
snapshot_every = 5
"""

STUDY_CONFIG = """
[problem]
m = 5/3, 2
initial_data = paper-quadratic

[study]
h_list = 1/10, 1/20
reference_M = 80
t_eval = 0.1

[output]
dir = {out}
"""


DATA = "domain = 0,1\ninitial_data = paper-quadratic"


def _write(tmp_path, text, **fmt):
    path = tmp_path / "case.cfg"
    path.write_text(text.format(**fmt))
    return str(path)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_number_fractions():
    assert parse_number("1/200") == pytest.approx(0.005)
    assert parse_number("5/3") == pytest.approx(5.0 / 3.0)
    assert parse_number(" 2.5e-3 ") == 2.5e-3
    with pytest.raises(ValueError):
        parse_number("abc")
    with pytest.raises(ValueError):
        parse_number("1/0")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "inf/2", "1/nan"])
def test_parse_number_rejects_non_finite(token):
    with pytest.raises(ValueError):
        parse_number(token)


def test_config_tracks_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[problem]\nm = 2\n\n[discretization]\nM = twenty\n")
    cfg = Config.load(path)
    assert cfg.get_number("problem", "m") == 2.0
    with pytest.raises(ConfigurationError, match=r"c\.cfg:5: discretization\.M"):
        cfg.get_int("discretization", "M")


def test_config_syntax_errors(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("m = 2\n")
    with pytest.raises(ConfigurationError, match="outside any"):
        Config.load(path)
    path.write_text("[problem]\njust words\n")
    with pytest.raises(ConfigurationError, match=r"c\.cfg:2"):
        Config.load(path)
    path.write_text("[problem]\nm = 2\nm = 3\n")
    with pytest.raises(ConfigurationError, match="duplicate key"):
        Config.load(path)


@pytest.mark.parametrize("content", [b"# caf\xe9\n[problem]\nm = 2\n", None],
                         ids=["latin-1", "missing"])
def test_unreadable_config_is_one_error_line(tmp_path, capsys, content):
    # a file that is not UTF-8 once ended in a UnicodeDecodeError traceback
    path = tmp_path / "case.cfg"
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["solve", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {path}: cannot read config: ")


def test_config_with_byte_order_mark_parses(tmp_path):
    # the mark once made line 1 read '\ufeff[problem]'
    path = tmp_path / "c.cfg"
    path.write_bytes(b"\xef\xbb\xbf[problem]\nm = 2\n")
    cfg = Config.load(path)
    assert cfg.get_number("problem", "m") == 2.0
    assert cfg.sections["problem"]["m"].line == 2


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[problem]\nm = 2\nmm = 3\n")
    cfg = Config.load(path)
    with pytest.raises(ConfigurationError, match=r"c\.cfg:3: unknown key problem\.mm"):
        cfg.reject_unknown({"problem": {"m"}})


def test_config_missing_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[problem]\nm = 2\n")
    cfg = Config.load(path)
    with pytest.raises(ConfigurationError, match=r"study\.h_list: missing"):
        cfg.get_number_list("study", "h_list")


# ---------------------------------------------------------------------------
# committed configs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["solve.cfg", "table.cfg"])
def test_committed_config_matches_schema(name):
    Config.load(CONFIGS / name).reject_unknown(cli._SCHEMA)


def test_readme_config_block_lists_the_schema():
    # the indented example under "### Config format" documents every key
    readme = (CONFIGS.parent / "README.md").read_text()
    lines = readme.split("### Config format", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("    ["))
    documented, keys = {}, None
    for line in lines[start:]:
        if line and not line.startswith("    "):
            break
        entry = line.split("#", 1)[0].strip()
        if entry.startswith("["):
            keys = documented.setdefault(entry.strip("[]"), set())
        elif "=" in entry:
            keys.add(entry.split("=", 1)[0].strip())
    assert documented == cli._SCHEMA


def test_package_runs_as_a_module(monkeypatch, capsys):
    # `python3 -m pmetraj check --seed 0`, in process
    monkeypatch.setattr(sys, "argv", ["pmetraj", "check", "--seed", "0"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("pmetraj", run_name="__main__")
    assert stop.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(line.startswith("PASS  ") for line in lines)


def test_committed_solve_config_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PME_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["solve", "--config", str(CONFIGS / "solve.cfg")]) == 0
    assert capsys.readouterr().out.startswith("solve: 10 steps")
    with open(tmp_path / "energy.csv") as fh:
        assert len(list(csv.reader(fh))) == 12  # header and steps 0..10
    assert (tmp_path / "snap_10.csv").exists() and (tmp_path / "mass.csv").exists()


def test_removed_newton_key_is_rejected(tmp_path, capsys):
    # a damping constant and both stopping tolerances are constants, not keys
    lines = (CONFIGS / "solve.cfg").read_text().splitlines()
    at = lines.index("[newton]") + 1
    for key, value in (("c_newton", "1.0"), ("tol_lambda", "1e-9"),
                       ("tol_residual", "1e-12")):
        path = tmp_path / "old.cfg"
        path.write_text("\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n")
        assert cli.main(["solve", "--config", str(path)]) == 1
        assert f"old.cfg:{at + 1}: unknown key newton.{key}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# library rejections and their config lines
# ---------------------------------------------------------------------------

def _run_config(tau=0.1, **kw):
    spec = make_problem(2.0, Grid(0.0, 1.0, 4), quadratic_bump)
    return RunConfig(spec=spec, params=SolverParams(tau=tau), **kw)


REJECTIONS = {
    "Grid-M": ("M", lambda: Grid(0.0, 1.0, 0)),
    "Grid-M-not-integer": ("M", lambda: Grid(0.0, 1.0, 8.0)),
    "Grid-huge-M": ("M", lambda: Grid(0.0, 1.0, 10 ** 400)),
    "Grid-reversed": ("domain", lambda: Grid(1.0, 0.0, 4)),
    "Grid-too-wide": ("domain", lambda: Grid(-1e308, 1e308, 4)),
    "make_problem-m": ("m", lambda: make_problem(1.0, Grid(0.0, 1.0, 4), quadratic_bump)),
    "make_problem-M": ("M", lambda: make_problem(2.0, Grid(0.0, 1.0, 1), quadratic_bump)),
    "make_problem-h": ("domain", lambda: make_problem(
        2.0, Grid(0.0, 1e-300, 100), quadratic_bump)),
    "make_problem-scale": ("domain", lambda: make_problem(
        2.0, Grid(0.0, 1e-152, 100), initial_data_from_key("constant:1"))),
    "make_problem-f0": ("initial_data", lambda: make_problem(
        2.0, Grid(0.0, 1.0, 4), initial_data_from_key("constant:-1"))),
    "initial_data-unknown": ("initial_data", lambda: initial_data_from_key("bogus")),
    "initial_data-constant": ("initial_data", lambda: initial_data_from_key("constant:x")),
    "initial_data-poly": ("initial_data", lambda: initial_data_from_key("poly:1,q")),
    "SolverParams-tau": ("tau", lambda: SolverParams(tau=0.0)),
    "SolverParams-tau^2": ("tau", lambda: SolverParams(tau=1e300)),
    "SolverParams-a0": ("a0", lambda: SolverParams(tau=0.1, a0=-1.0)),
    "SolverParams-max_iter": ("newton_max_iter",
                              lambda: SolverParams(tau=0.1, newton_max_iter=0)),
    "SolverParams-max_iter-not-integer": ("newton_max_iter",
                                          lambda: SolverParams(tau=0.1, newton_max_iter=2.5)),
    "RunConfig-t_final": ("t_final", lambda: _run_config(t_final=-1.0)),
    "RunConfig-steps": ("t_final", lambda: _run_config(tau=1e-10, t_final=1e300)),
    "RunConfig-snapshot_every": ("snapshot_every",
                                 lambda: _run_config(t_final=1.0, snapshot_every=-1)),
    "RunConfig-snapshot_every-not-integer": (
        "snapshot_every", lambda: _run_config(t_final=1.0, snapshot_every=1.5)),
    "study-h_list": ("h_list", lambda: study_cell_counts([], 40, 0.05, 1.0)),
    "study-reference_M": ("reference_M", lambda: study_cell_counts([0.05], 30, 0.05, 1.0)),
    "study-t_eval": ("t_eval", lambda: study_cell_counts([0.05], 40, 0.0, 1.0)),
    # a value no comparison can take once escaped as a nameless TypeError or
    # numpy's truth-value ValueError, and a float reference count was refused
    # by Grid under its key M
    "SolverParams-tau-string": ("tau", lambda: SolverParams(tau="0.1")),
    "SolverParams-tau-None": ("tau", lambda: SolverParams(tau=None)),
    "SolverParams-tau-array": ("tau", lambda: SolverParams(tau=np.array([0.1, 0.2]))),
    # a one-element array passed, and failed in the run (numpy arrays have no __round__)
    "SolverParams-tau-one-element": ("tau", lambda: SolverParams(tau=np.array([0.1]))),
    "SolverParams-a0-string": ("a0", lambda: SolverParams(tau=0.1, a0="1")),
    "RunConfig-t_final-string": ("t_final", lambda: _run_config(t_final="1")),
    "make_problem-m-string": ("m", lambda: make_problem("2", Grid(0.0, 1.0, 4),
                                                        quadratic_bump)),
    "Grid-domain-string": ("domain", lambda: Grid("0", 1.0, 4)),
    # a one-element end passed, and gave a grid of (M+1, 1) nodes
    "Grid-domain-one-element": ("domain", lambda: Grid(np.array([0.0]), 1.0, 4)),
    "study-h_list-string": ("h_list", lambda: study_cell_counts(["0.05"], 40, 0.05, 1.0)),
    "study-t_eval-string": ("t_eval", lambda: study_cell_counts([0.05], 40, "0.05", 1.0)),
    # an infinite t_eval once raised OverflowError from round(inf)
    "study-t_eval-inf": ("t_eval", lambda: study_cell_counts([0.05], 40, float("inf"), 1.0)),
    "study-reference_M-float": ("reference_M", lambda: analysis.convergence_study(
        2.0, [0.05], 40.0, 0.05, "paper-quadratic")),
}


@pytest.mark.parametrize("key, reject", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_library_rejection_is_a_keyed_value_error(key, reject):
    with pytest.raises(ValueError) as info:
        reject()
    exc = info.value
    assert isinstance(exc, ConfigurationError)
    assert exc.key == key and str(exc) == f"{key}: {exc.reason}"


def test_config_line_map_names_schema_entries():
    # every key a library object rejects with has a config line, and only those
    assert set(cli._CONFIG_LINE) == {key for key, _ in REJECTIONS.values()}
    for entry in cli._CONFIG_LINE.values():
        section, name = entry.split(".")
        assert name in cli._SCHEMA[section], entry


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

def test_cmd_solve_quadratic(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", _write(tmp_path, SOLVE_CONFIG, out=out)])
    assert rc == 0
    assert "steps" in capsys.readouterr().out
    with open(out / "energy.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    energies = [float(r[2]) for r in rows]
    assert len(energies) == 11
    assert all(b <= a for a, b in zip(energies[:-1], energies[1:]))
    assert (out / "snap_0.csv").exists() and (out / "snap_10.csv").exists()


def test_cmd_solve_constant_density_stationary(tmp_path):
    out = tmp_path / "out"
    text = SOLVE_CONFIG.replace("paper-quadratic", "constant:0.7")
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=out)])
    assert rc == 0
    with open(out / "snap_10.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    X = np.array([float(r[1]) for r in rows])
    x = np.array([float(r[2]) for r in rows])
    f = np.array([float(r[3]) for r in rows])
    assert np.max(np.abs(x - X)) <= 1e-12
    assert np.max(np.abs(f - 0.7)) <= 1e-12


def test_cmd_solve_malformed_config_names_key(tmp_path, capsys):
    text = SOLVE_CONFIG.replace("tau = 1/100", "tau = -1/100")
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "discretization.tau" in err


@pytest.mark.parametrize("old, new, key", [
    ("tau = 1/100", "tau = 1/0", "discretization.tau: not a number: '1/0'"),
    ("domain = 0,1", "domain = 0,1/0", "problem.domain: expected two numbers"),
])
def test_cmd_solve_zero_denominator_names_line(tmp_path, capsys, old, new, key):
    text = SOLVE_CONFIG.replace(old, new)
    line = text.splitlines().index(new) + 1
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 1
    assert f"case.cfg:{line}: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("A0 = 1.0", "A0 = nan", "discretization.A0: not a number: 'nan'"),
    ("tau = 1/100", "tau = inf", "discretization.tau: not a number: 'inf'"),
    ("t_final = 0.1", "t_final = nan", "discretization.t_final: not a number: 'nan'"),
    ("tau = 1/100", "tau = 1e300", "discretization.tau: too large: tau^2 overflows"),
    ("domain = 0,1", "domain = 0,1e-300", "problem.domain: mesh width h = 1e-302 at M = 100"),
    ("domain = 0,1", "domain = -1e300,1e300", "problem.domain: mesh width h = 2e+298 at M = 100"),
    (DATA, "domain = 0,1e-152\ninitial_data = constant:1",
     "problem.domain: max f0/h^2 = 1/1e-308 at M = 100 exceeds 1.34e+154"),
    (DATA, "domain = 0,1e150\ninitial_data = poly:1e-3,0,1",
     "problem.domain: domain length times max f0 = 1e+150 * 1e+300 exceeds 1.34e+154"),
    (DATA, "domain = 0,1e110\ninitial_data = poly:1,0,0,1",
     "problem.domain: max f0/h^2 = inf/1e+216 at M = 100 exceeds 1.34e+154"),
    ("m = 2", "m = 1", "problem.m: exponent must exceed 1, got 1.0"),
    ("M = 100", "M = 1", "discretization.M: the scheme needs at least 2 cells, got M = 1"),
    ("domain = 0,1", "domain = 1,0", "problem.domain: right end must exceed left end"),
    ("t_final = 0.1", "t_final = -1", "discretization.t_final: must be nonnegative"),
    ("max_iter = 60", "max_iter = 0", "newton.max_iter: must be an integer >= 1, got 0"),
    ("paper-quadratic", "constant:-1",
     "problem.initial_data: initial density must be strictly positive"),
    ("paper-quadratic", "constant:x",
     "problem.initial_data: bad constant initial data 'constant:x'"),
    ("paper-quadratic", "bogus", "problem.initial_data: unknown initial data key 'bogus'"),
    ("paper-quadratic", "constant:inf",
     "problem.initial_data: bad constant initial data 'constant:inf'"),
    ("paper-quadratic", "constant:nan",
     "problem.initial_data: bad constant initial data 'constant:nan'"),
    ("paper-quadratic", "poly:1,0,inf",
     "problem.initial_data: bad polynomial initial data 'poly:1,0,inf'"),
    ("paper-quadratic", "poly:0,1",
     "problem.initial_data: initial density must be strictly positive"),
    ("tau = 1/100\nt_final = 0.1", "tau = 1e-10\nt_final = 1e300",
     "discretization.t_final: must be nonnegative with t_final/tau finite, got 1e+300"),
])
@pytest.mark.filterwarnings("error")
def test_cmd_solve_non_finite_number_names_line(tmp_path, capsys, old, new, key):
    # each used to slip past the range checks: a pivot error at step 1, a
    # run of 0 steps, a raw ValueError traceback, (tau^2 = inf) a run of 0
    # steps here or an OverflowError traceback when t_final >= tau,
    # (h^2 = 0 or inf) a ZeroDivisionError traceback in the Hessian assembly
    # or an overflow warning from the mass diagnostic, and (f0/h^2 or the
    # length times f0 beyond the float range) an overflow warning from the
    # Hessian assembly, the energy or the sampling of f0.  A rule the library
    # held alone (initial data) gave an error without its line, and a
    # t_final/tau that overflows an OverflowError traceback after snap_0.csv.
    # A non-finite initial-data number was blamed on problem.domain, a key
    # the file need not set, with no line number
    text = SOLVE_CONFIG.replace(old, new)
    name = key.split(":")[0].split(".")[1]
    line = next(i for i, entry in enumerate(text.splitlines(), start=1)
                if entry.startswith(f"{name} = "))
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"case.cfg:{line}: {key}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new, key", [
    ("A0 = 1.0", "A0 = -1", "discretization.A0: must be nonnegative"),
    ("snapshot_every = 5", "snapshot_every = -1",
     "output.snapshot_every: must be an integer >= 0, got -1"),
], ids=["A0", "snapshot_every"])
def test_cmd_solve_negative_value_names_line(tmp_path, capsys, old, new, key):
    text = SOLVE_CONFIG.replace(old, new)
    line = text.splitlines().index(new) + 1
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 1
    assert f"case.cfg:{line}: {key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_cmd_solve_overflowing_mass_coefficient_is_one_error_line(tmp_path, capsys):
    # f0^(2-m) overflows at m = 1e6: named as such at step 1, with no numpy
    # warning and no blame on the admissibility safeguard
    text = SOLVE_CONFIG.replace("m = 2", "m = 1e6")
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: step 1 (t = ")
    assert "mass coefficient" in err and "m = 1e+06" in err


def _tiny_tau_config(m, data, M, tau):
    return (SOLVE_CONFIG.replace("m = 2", f"m = {m}")
            .replace("paper-quadratic", data).replace("M = 100", f"M = {M}")
            .replace("tau = 1/100", f"tau = {tau}")
            .replace("t_final = 0.1", f"t_final = {tau}"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, data, M, tau", [
    (8, "poly:1e-4,0,1", 20, "1e-300"),
    (2, "paper-quadratic", 100, "1e-320"),
], ids=["m8-near-vacuum", "m2-subnormal"])
def test_cmd_solve_tiny_tau_is_one_error_line(tmp_path, capsys, m, data, M, tau):
    # mass/tau overflowed in the Hessian assembly: an overflow warning, an
    # infinite diagonal and exit 0
    text = _tiny_tau_config(m, data, M, tau)
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: step 1 (t = ")
    assert "mass coefficient over the time step" in err and "at tau = " in err


@pytest.mark.filterwarnings("error")
def test_cmd_solve_small_tau_still_steps(tmp_path, capsys):
    # at tau = 1e-200 mass/tau is finite: the one step leaves x^0 in place
    text = _tiny_tau_config(8, "poly:1e-4,0,1", 20, "1e-200")
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 0 and capsys.readouterr().err == ""
    assert (tmp_path / "o" / "snap_1.csv").read_bytes() == \
        (tmp_path / "o" / "snap_0.csv").read_bytes()


@pytest.mark.filterwarnings("error")
def test_cmd_solve_huge_M_names_its_line(tmp_path, capsys):
    # a 401-digit M has no float mesh width: once an OverflowError traceback
    text = SOLVE_CONFIG.replace("M = 100", "M = 1" + "0" * 400)
    line = text.splitlines().index("M = 1" + "0" * 400) + 1
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"case.cfg:{line}: discretization.M: too large" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_cmd_solve_M_beyond_the_array_limit_names_its_line(tmp_path, capsys):
    # 1e21 cells fit a float but no numpy array holds their nodes: once
    # numpy's "Maximum allowed size exceeded" traceback from Grid.nodes
    new = "M = 1" + "0" * 21
    text = SOLVE_CONFIG.replace("M = 100", new)
    line = text.splitlines().index(new) + 1
    rc = cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "o")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"case.cfg:{line}: discretization.M: too large" in err
    assert not (tmp_path / "o").exists()


def test_cmd_solve_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a cell count numpy can index may still not fit in memory (M = 1e14
    # asks for 728 TiB of nodes); the allocation is faked, never made
    def nodes(self):
        raise MemoryError("Unable to allocate 728. TiB for an array with shape "
                          "(100000000000001,) and data type float64")

    monkeypatch.setattr(Grid, "nodes", nodes)
    rc = cli.main(["solve", "--config", _write(tmp_path, SOLVE_CONFIG, out=tmp_path / "o")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: out of memory: Unable to allocate 728. TiB")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
def test_cmd_solve_unwritable_output_is_one_error_line(tmp_path, monkeypatch,
                                                      capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / below if below else blocker
    monkeypatch.setenv("PME_OUTPUT_DIR", str(out))
    rc = cli.main(["solve", "--config",
                   _write(tmp_path, SOLVE_CONFIG, out=tmp_path / "ignored")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot write outputs: ")
    assert str(blocker) in err
    assert blocker.read_text() == "not a directory\n"
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_the_umask_leaves(tmp_path, capsys, umask):
    # every file solve and convergence write is created 0o666 & ~umask, as
    # open() would make it, not private to the user
    previous = os.umask(umask)
    try:
        solve_out, study_out = tmp_path / "solve", tmp_path / "study"
        assert cli.main(["solve", "--config",
                         _write(tmp_path, SOLVE_CONFIG, out=solve_out)]) == 0
        assert cli.main(["convergence", "--config",
                         _write(tmp_path, STUDY_CONFIG, out=study_out)]) == 0
    finally:
        os.umask(previous)
    capsys.readouterr()
    files = sorted(solve_out.iterdir()) + sorted(study_out.iterdir())
    assert sorted({p.suffix for p in files}) == [".csv", ".txt"]
    assert len(files) == 5 + 4  # snapshots 0, 5, 10, energy, mass; 2 studies
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in files} == {
        p.name: 0o666 & ~umask for p in files}


def test_cmd_solve_env_output_override(tmp_path, monkeypatch):
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("PME_OUTPUT_DIR", str(env_out))
    rc = cli.main(["solve", "--config",
                   _write(tmp_path, SOLVE_CONFIG, out=tmp_path / "ignored")])
    assert rc == 0
    assert (env_out / "energy.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cmd_solve_unset_keys_take_the_library_defaults(tmp_path, monkeypatch):
    # with A0, max_iter and snapshot_every unset, stepper.run gets the
    # RunConfig that SolverParams' and RunConfig's own defaults give
    class Captured(Exception):
        pass

    def capture(config):
        seen.append(config)
        raise Captured

    seen = []
    monkeypatch.delenv("PME_OUTPUT_DIR", raising=False)
    monkeypatch.setattr(stepper, "run", capture)
    text = "\n".join(line for line in SOLVE_CONFIG.splitlines()
                     if not line.startswith(("A0 ", "max_iter ", "snapshot_every ")))
    with pytest.raises(Captured):
        cli.main(["solve", "--config", _write(tmp_path, text, out=tmp_path / "out")])
    [got] = seen
    want = RunConfig(spec=got.spec, params=SolverParams(tau=1 / 100), t_final=0.1,
                     output_dir=tmp_path / "out")
    assert got == want
    assert got.spec.m == 2.0 and got.spec.grid == Grid(0.0, 1.0, 100)


# ---------------------------------------------------------------------------
# convergence command
# ---------------------------------------------------------------------------

def test_cmd_convergence_writes_reports(tmp_path, capsys):
    out = tmp_path / "study"
    rc = cli.main(["convergence", "--config", _write(tmp_path, STUDY_CONFIG, out=out)])
    assert rc == 0
    for tag in ("1.66667", "2"):
        with open(out / f"convergence_{tag}.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h", "tau", "err_f_L2", "order", "err_f_inf", "order",
                           "err_x_L2", "order", "err_x_inf", "order"]
        assert len(rows) == 3
        assert rows[1][3] == ""      # coarsest row carries no order
        assert float(rows[2][3]) != 0.0
        assert (out / f"convergence_{tag}.txt").exists()
    assert "m = 2" in capsys.readouterr().out


def test_convergence_bytes_are_the_value_by_value_rendering(tmp_path, monkeypatch):
    """convergence_<m>.csv of a two-level study is 17 significant digits of
    every float of the study's report and "" where it has no order, row by
    row: the order columns mix "" and floats."""
    studies = []
    original = analysis.convergence_studies

    def recording(*args, **kwargs):
        for study in original(*args, **kwargs):
            studies.append(study)
            yield study

    monkeypatch.setattr(analysis, "convergence_studies", recording)
    out = tmp_path / "study"
    assert cli.main(["convergence", "--config", _write(tmp_path, STUDY_CONFIG, out=out)]) == 0
    assert len(studies) == 2
    for study in studies:
        rows = analysis.report_rows(study.report)
        assert len(rows) == 2 and rows[0][3] == "" and isinstance(rows[1][3], float)
        lines = [",".join(analysis.CSV_HEADER)] + [
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
            for row in rows]
        target = out / f"convergence_{study.report.m:g}.csv"
        assert target.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.filterwarnings("error")
def test_cmd_convergence_keeps_the_files_of_the_studies_before_a_failing_one(tmp_path,
                                                                            capsys):
    # with 3 Newton iterations the m = 8 study runs and the m = 2 one fails
    # at its reference's first step; the runs of both are made together,
    # on two processes where run_many forks, and the m = 8 files are written
    # before the m = 2 error is reported
    text = STUDY_CONFIG.replace("m = 5/3, 2", "m = 8, 2").replace(
        "h_list = 1/10, 1/20", "h_list = 1/100, 1/200").replace(
        "reference_M = 80", "reference_M = 800").replace(
        "t_eval = 0.1", "t_eval = 0.05") + "\n[newton]\nmax_iter = 3\n"
    out = tmp_path / "s"
    rc = cli.main(["convergence", "--config", _write(tmp_path, text, out=out)])
    assert rc == 1
    stdout, err = capsys.readouterr()
    assert err.count("\n") == 1
    assert err.startswith("error: step 1 (t = 0.00125): Newton did not converge in 3 ")
    assert sorted(p.name for p in out.iterdir()) == ["convergence_8.csv",
                                                      "convergence_8.txt"]
    assert stdout == (out / "convergence_8.txt").read_text()


def test_cmd_convergence_non_nested_reference(tmp_path, capsys):
    text = STUDY_CONFIG.replace("reference_M = 80", "reference_M = 90")
    rc = cli.main(["convergence", "--config", _write(tmp_path, text, out=tmp_path / "s")])
    assert rc == 1
    assert "does not divide" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("h_list = 1/10, 1/20", "h_list = 0, 1/20", "study.h_list: mesh widths must be positive"),
    ("h_list = 1/10, 1/20", "h_list = -1/10", "study.h_list: mesh widths must be positive"),
    ("h_list = 1/10, 1/20", "h_list = ,", "study.h_list: needs at least one mesh width"),
    ("h_list = 1/10, 1/20", "h_list = 1/10, 0.1, 1/20", "study.h_list: h=0.1 gives M=10 a second time"),
    ("reference_M = 80", "reference_M = 0",
     "study.reference_M: must be an integer >= 2, got 0"),
    ("reference_M = 80", "reference_M = 20",
     "study.reference_M: coarse cell count 20 equals the reference count"),
    ("t_eval = 0.1", "t_eval = 1e-12", "study.t_eval: t_eval=1e-12 is shorter than one step"),
    ("m = 5/3, 2", "m = 2, 1", "problem.m: exponent must exceed 1, got 1.0"),
    ("m = 5/3, 2", "m = 2, 2", "problem.m: m=2.0 writes convergence_2.* a second time"),
    ("m = 5/3, 2", "m = 1.6666666, 1.66666667",
     "problem.m: m=1.66666667 writes convergence_1.66667.* a second time"),
])
@pytest.mark.filterwarnings("error")
def test_cmd_convergence_bad_study_names_line(tmp_path, capsys, old, new, key):
    # each used to give a traceback (ZeroDivisionError, or ValueError from
    # Grid), an error without its line, or a run with an empty table, of
    # zero steps, or with one resolution twice and an order of 0; a bad
    # exponent anywhere in the m list fails before the first study writes,
    # as does one whose file tag repeats an earlier one's (its study once
    # overwrote the earlier study's files)
    text = STUDY_CONFIG.replace(old, new)
    line = text.splitlines().index(new) + 1
    rc = cli.main(["convergence", "--config", _write(tmp_path, text, out=tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"case.cfg:{line}: {key}" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.filterwarnings("error")
def test_cmd_convergence_huge_reference_M_names_its_line(tmp_path, capsys):
    # a 400-digit reference_M has no float step count: once an
    # OverflowError traceback from study_cell_counts
    new = "reference_M = 1" + "0" * 400
    text = STUDY_CONFIG.replace("reference_M = 80", new)
    line = text.splitlines().index(new) + 1
    rc = cli.main(["convergence", "--config", _write(tmp_path, text, out=tmp_path / "s")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"case.cfg:{line}: study.reference_M: too large" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.filterwarnings("error")
def test_cmd_convergence_reference_M_beyond_the_array_limit_names_its_line(tmp_path,
                                                                           capsys):
    # once numpy's "Maximum allowed size exceeded" traceback from Grid.nodes
    new = "reference_M = 1" + "0" * 21
    text = STUDY_CONFIG.replace("reference_M = 80", new)
    line = text.splitlines().index(new) + 1
    rc = cli.main(["convergence", "--config", _write(tmp_path, text, out=tmp_path / "s")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert f"case.cfg:{line}: study.reference_M: too large" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("old, new, key", [
    ("m = 5/3, 2", "m = ,", "problem.m: needs at least one exponent"),
    ("m = 5/3, 2", "m =", "problem.m: needs at least one exponent"),
    ("h_list = 1/10, 1/20", "h_list =", "study.h_list: needs at least one mesh width"),
], ids=["m-comma", "m-blank", "h_list-blank"])
def test_cmd_convergence_empty_number_list_names_line(tmp_path, capsys, old, new, key):
    # an empty m list used to exit 0 having run and written nothing
    text = STUDY_CONFIG.replace(old, new)
    line = text.splitlines().index(new) + 1
    rc = cli.main(["convergence", "--config", _write(tmp_path, text, out=tmp_path / "s")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and f"case.cfg:{line}: {key}" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.filterwarnings("error")
def test_cmd_convergence_data_scale_names_domain_line(tmp_path, capsys):
    # on a domain of length 1e-152 every level has f0/h^2 beyond
    # SCALE_LIMIT; the study builds the reference M = 80 first
    text = STUDY_CONFIG.replace(
        "initial_data = paper-quadratic",
        "domain = 0,1e-152\ninitial_data = constant:1").replace(
        "h_list = 1/10, 1/20", "h_list = 1e-153, 5e-154").replace(
        "t_eval = 0.1", "t_eval = 1e-153")
    line = text.splitlines().index("domain = 0,1e-152") + 1
    rc = cli.main(["convergence", "--config", _write(tmp_path, text, out=tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"case.cfg:{line}: problem.domain: max f0/h^2 = 1/1.5625e-308 at M = 80" in err
    assert not (tmp_path / "s").exists()


def test_cmd_convergence_requires_study_section(tmp_path, capsys):
    text = SOLVE_CONFIG  # no [study]
    rc = cli.main(["convergence", "--config",
                   _write(tmp_path, text, out=tmp_path / "s")])
    assert rc == 1
    assert "[study]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_cmd_check_passes(capsys, seed):
    rc = cli.main(["check", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 8


def test_cmd_check_flipped_sign_is_caught(monkeypatch, capsys):
    original = functional.slope_derivative_W
    monkeypatch.setattr(functional, "slope_derivative_W",
                        lambda y, y0: -original(y, y0))
    rc = cli.main(["check", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "counterexample" in out


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_cmd_check_rejects_bad_seed(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "nonnegative integer" in err


def test_reused_parser_gives_the_same_exits_and_outputs(tmp_path, capsys):
    """One process: solve, a rejected --seed, then the same solve again.
    The parser main builds once serves all three: the rejection exits 2
    with the text a freshly built parser prints, and the second solve
    writes the first one's bytes."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["solve", "--config", _write(tmp_path, SOLVE_CONFIG, out=first)]) == 0
    capsys.readouterr()

    argv = ["check", "--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    reused = capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli._parser.__wrapped__().parse_args(argv)
    assert reused == capsys.readouterr().err
    assert "--seed" in reused and "nonnegative integer" in reused

    assert cli.main(["solve", "--config", _write(tmp_path, SOLVE_CONFIG, out=second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name
