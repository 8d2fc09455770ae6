"""Command-line entry point: `pmetraj solve|convergence|check`."""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from . import analysis, stepper
from .config import Config, parse_number
from .csvio import write_csv_atomic, write_text_atomic
from .errors import ConfigurationError, SolverError
from .functional import SolverParams
from .grid import Grid
from .problem import initial_data_from_key, make_problem

#: Every config parameter, as "section.name", and the key of the
#: ConfigurationError a library object rejects it with (None: no object owns it).
_PARAMETERS = {
    "problem.m": "m", "problem.domain": "domain", "problem.initial_data": "initial_data",
    "discretization.M": "M", "discretization.tau": "tau", "discretization.A0": "a0",
    "discretization.t_final": "t_final", "newton.max_iter": "newton_max_iter",
    "study.h_list": "h_list", "study.reference_M": "reference_M", "study.t_eval": "t_eval",
    "output.dir": None, "output.snapshot_every": "snapshot_every",
}
_SCHEMA: dict[str, set[str]] = {}
for _section, _name in (line.split(".") for line in _PARAMETERS):
    _SCHEMA.setdefault(_section, set()).add(_name)
#: The config line of each parameter a library object rejects, by its key.
_CONFIG_LINE = {key: line for line, key in _PARAMETERS.items() if key is not None}


@contextlib.contextmanager
def _loaded(path):
    """The config at path, checked against _SCHEMA.  A ConfigurationError
    that names a parameter is reported at the parameter's line."""
    cfg = Config.load(path)
    cfg.reject_unknown(_SCHEMA)
    try:
        yield cfg
    except ConfigurationError as exc:
        if exc.key is None:
            raise
        cfg.fail(*_CONFIG_LINE[exc.key].split("."), exc.reason)


def _parse_domain(cfg: Config):
    raw = cfg.get_str("problem", "domain", "0,1")
    parts = raw.split(",")
    if len(parts) != 2:
        cfg.fail("problem", "domain", f"expected 'left,right', got {raw!r}")
    try:
        return parse_number(parts[0]), parse_number(parts[1])
    except ValueError:
        cfg.fail("problem", "domain", f"expected two numbers, got {raw!r}")


def _build_params(cfg: Config, tau: float) -> SolverParams:
    return SolverParams(tau=tau, a0=cfg.get_number("discretization", "A0", 1.0),
                        newton_max_iter=cfg.get_int("newton", "max_iter", 100))


def _output_dir(cfg: Config) -> Path:
    env = os.environ.get("PME_OUTPUT_DIR")
    if env:
        return Path(env)
    return Path(cfg.get_str("output", "dir", "pmetraj-out"))


def cmd_solve(args) -> int:
    with _loaded(args.config) as cfg:
        m_values = cfg.get_number_list("problem", "m")
        if len(m_values) != 1:
            cfg.fail("problem", "m", "solve expects a single exponent")
        grid = Grid(*_parse_domain(cfg), cfg.get_int("discretization", "M"))
        f0 = initial_data_from_key(cfg.get_str("problem", "initial_data"))
        out_dir = _output_dir(cfg)
        config = stepper.RunConfig(
            spec=make_problem(m_values[0], grid, f0),
            params=_build_params(cfg, cfg.get_number("discretization", "tau")),
            t_final=cfg.get_number("discretization", "t_final"),
            snapshot_every=cfg.get_int("output", "snapshot_every", 0),
            output_dir=out_dir,
        )
    result = stepper.run(config)
    total_newton = sum(r.iterations for r in result.newton_reports)
    e_start = result.energy_trace[0][2]
    e_end = result.energy_trace[-1][2]
    print(
        f"solve: {len(result.newton_reports)} steps, {total_newton} Newton iterations, "
        f"E_h drop {e_start - e_end:.6e}, outputs in {out_dir}"
    )
    return 0


def cmd_convergence(args) -> int:
    with _loaded(args.config) as cfg:
        if "study" not in cfg.sections:
            raise ConfigurationError(f"{cfg.path}: convergence needs a [study] section")
        m_values = cfg.get_number_list("problem", "m")
        domain = _parse_domain(cfg)
        h_list = cfg.get_number_list("study", "h_list")
        reference_M = cfg.get_int("study", "reference_M")
        t_eval = cfg.get_number("study", "t_eval")
        initial_key = cfg.get_str("problem", "initial_data")
        out_dir = _output_dir(cfg)
        if not m_values:  # the list parser drops empty tokens
            cfg.fail("problem", "m", "needs at least one exponent")
        tags = [f"{m:g}" for m in m_values]  # each study's file names
        for i, m in enumerate(m_values):  # every tag, before the first study writes
            if tags[i] in tags[:i]:
                cfg.fail("problem", "m", f"m={m} writes convergence_{tags[i]}.* a second time")
        params = _build_params(cfg, tau=1.0)

        # every run of every study is made here; a study whose run failed
        # raises when reached, after the studies before it have written
        studies = analysis.convergence_studies(
            m_values, h_list, reference_M, t_eval, initial_key,
            domain=domain, params_base=params,
        )
        for tag, study in zip(tags, studies):
            write_csv_atomic(out_dir / f"convergence_{tag}.csv", analysis.CSV_HEADER,
                             tuple(zip(*analysis.report_rows(study.report))))
            table = analysis.format_table(study.report)
            write_text_atomic(out_dir / f"convergence_{tag}.txt", table)
            print(table, end="")
    return 0


def cmd_check(args) -> int:
    from . import checks

    results = checks.run_all(args.seed)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        suffix = f": {r.detail}" if (r.detail and not r.ok) else ""
        print(f"{status}  {r.name}{suffix}")
    return 1 if failed else 0


def _seed(text: str) -> int:
    """argparse type of --seed: numpy's generators take no negative seed."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every
    later main call in the process."""
    parser = argparse.ArgumentParser(
        prog="pmetraj",
        description="Second-order Lagrangian trajectory solver for the porous "
                    "medium equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configured solve")
    p_solve.add_argument("--config", required=True, help="path to a config file")

    p_conv = sub.add_parser("convergence", help="run a grid-refinement study")
    p_conv.add_argument("--config", required=True, help="path to a config file")

    p_check = sub.add_parser("check", help="run the property sweeps")
    p_check.add_argument("--seed", type=_seed, default=0,
                         help="sweep RNG seed (a nonnegative integer)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {"solve": cmd_solve, "convergence": cmd_convergence,
               "check": cmd_check}[args.command]
    try:
        return handler(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's own error names the size it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1
    except OSError as exc:
        # Config.load reports read errors as ConfigurationError, so an
        # OSError here comes from writing outputs; its text names the path.
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
