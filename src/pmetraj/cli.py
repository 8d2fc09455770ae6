"""Command-line entry point: `pmetraj solve|convergence|check`."""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import analysis, stepper
from .config import Config, parse_number
from .csvio import write_csv_atomic, write_text_atomic
from .errors import ConfigurationError, DataScaleError, SolverError
from .functional import SolverParams
from .grid import Grid
from .problem import initial_data_from_key, make_problem, mesh_width_ok

_SCHEMA = {
    "problem": {"m", "domain", "initial_data"},
    "discretization": {"M", "tau", "t_final", "A0"},
    "newton": {"max_iter"},
    "study": {"h_list", "reference_M", "t_eval"},
    "output": {"dir", "snapshot_every"},
}


def _parse_domain(cfg: Config):
    raw = cfg.get_str("problem", "domain", "0,1")
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        cfg.fail("problem", "domain", f"expected 'left,right', got {raw!r}")
    try:
        left, right = parse_number(parts[0]), parse_number(parts[1])
    except ValueError:
        cfg.fail("problem", "domain", f"expected two numbers, got {raw!r}")
    if not right > left:
        cfg.fail("problem", "domain", "right end must exceed left end")
    if not right - left < math.inf:
        cfg.fail("problem", "domain", "too wide: right - left overflows")
    return left, right


def _require_mesh_width(cfg: Config, left: float, right: float, M: int) -> None:
    h = (right - left) / M
    if not mesh_width_ok(h):
        cfg.fail("problem", "domain", f"mesh width h = {h:.6g} at M = {M}: "
                 "h^2 or 1/h^2 is not a positive finite number")


def _at_domain_line(cfg: Config, build):
    """build(), with a DataScaleError of make_problem reported at the domain
    line."""
    try:
        return build()
    except DataScaleError as exc:
        cfg.fail("problem", "domain", str(exc))


def _parse_m_values(cfg: Config) -> list[float]:
    values = cfg.get_number_list("problem", "m")
    for v in values:
        if not v > 1.0:
            cfg.fail("problem", "m", f"exponent must exceed 1, got {v!r}")
    return values


def _build_params(cfg: Config, tau: float) -> SolverParams:
    max_iter = cfg.get_int("newton", "max_iter", 100)
    if max_iter < 1:
        cfg.fail("newton", "max_iter", "must be at least 1")
    a0 = cfg.get_number("discretization", "A0", 1.0)
    if not a0 >= 0.0:
        cfg.fail("discretization", "A0", "must be nonnegative")
    return SolverParams(tau=tau, a0=a0, newton_max_iter=max_iter)


def _output_dir(cfg: Config) -> Path:
    env = os.environ.get("PME_OUTPUT_DIR")
    if env:
        return Path(env)
    return Path(cfg.get_str("output", "dir", "pmetraj-out"))


def cmd_solve(args) -> int:
    cfg = Config.load(args.config)
    cfg.reject_unknown(_SCHEMA)
    m_values = _parse_m_values(cfg)
    if len(m_values) != 1:
        cfg.fail("problem", "m", "solve expects a single exponent")
    left, right = _parse_domain(cfg)
    M = cfg.get_int("discretization", "M")
    if M < 2:
        cfg.fail("discretization", "M", "need at least 2 cells")
    _require_mesh_width(cfg, left, right, M)
    tau = cfg.get_number("discretization", "tau")
    cfg.require_positive(tau, "discretization", "tau")
    if not tau * tau < math.inf:
        cfg.fail("discretization", "tau", "too large: tau^2 overflows")
    t_final = cfg.get_number("discretization", "t_final")
    if not t_final >= 0.0:
        cfg.fail("discretization", "t_final", "must be nonnegative")

    grid = Grid(left, right, M)
    f0 = initial_data_from_key(cfg.get_str("problem", "initial_data"))
    spec = _at_domain_line(cfg, lambda: make_problem(m_values[0], grid, f0))
    params = _build_params(cfg, tau)
    snapshot_every = cfg.get_int("output", "snapshot_every", 0)
    if snapshot_every < 0:
        cfg.fail("output", "snapshot_every", "must be nonnegative")
    out_dir = _output_dir(cfg)
    config = stepper.RunConfig(
        spec=spec, params=params, t_final=t_final,
        snapshot_every=snapshot_every, output_dir=out_dir,
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
    cfg = Config.load(args.config)
    cfg.reject_unknown(_SCHEMA)
    if "study" not in cfg.sections:
        raise ConfigurationError(f"{cfg.path}: convergence needs a [study] section")
    m_values = _parse_m_values(cfg)
    left, right = _parse_domain(cfg)
    h_list = cfg.get_number_list("study", "h_list")
    reference_M = cfg.get_int("study", "reference_M")
    t_eval = cfg.get_number("study", "t_eval")
    m_list = analysis.study_cell_counts(
        h_list, reference_M, t_eval, right - left,
        fail=lambda key, message: cfg.fail("study", key, message))
    for M in m_list + [reference_M]:
        _require_mesh_width(cfg, left, right, M)
    initial_key = cfg.get_str("problem", "initial_data")
    params = _build_params(cfg, tau=1.0)
    out_dir = _output_dir(cfg)

    for m in m_values:
        study = _at_domain_line(cfg, lambda: analysis.convergence_study(
            m, h_list, reference_M, t_eval, initial_key,
            domain=(left, right), params_base=params,
        ))
        tag = f"{m:g}"
        write_csv_atomic(out_dir / f"convergence_{tag}.csv",
                         analysis.CSV_HEADER, analysis.report_rows(study.report))
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


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "convergence": cmd_convergence,
               "check": cmd_check}[args.command]
    try:
        return handler(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Config.load reports read errors as ConfigurationError, so an
        # OSError here comes from writing outputs; its text names the path.
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
