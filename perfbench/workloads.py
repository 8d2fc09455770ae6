"""The four benchmark workloads: inputs made from a seed, one operation each,
and the check of every operation's output.

Each workload is a closed loop with one client over a fixed list of
operations, ``ops``, repeated in passes, plus optional ``once`` operations run
a single time: the next operation starts when the previous one has returned
and been checked.  ``pass_seconds`` is the nominal time of one pass over
``ops`` on a 2-core Xeon with numpy 2.4, numba absent; it sizes a run and
nothing else.  Inputs are generated in the constructor, before any timing.  An operation returns the number of cell-steps it
completed (M times accepted steps) and raises ``OutputError`` when its
output is wrong.  The runner counts a ``SolverError`` as a measured
failure; any other exception is a benchmark bug and aborts the run.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
from pathlib import Path

import numpy as np

import pmetraj
from pmetraj import analysis, checks, cli, stepper
from pmetraj.errors import SolverError
from pmetraj.stepper import ENERGY_SLACK

# The m = 2 row of the published refinement table (t = 0.05, tau = h).
TABLE_M2 = {
    "errors": {
        "f_l2": [1.502e-4, 3.599e-5, 8.431e-6, 1.853e-6],
        "f_inf": [3.279e-4, 8.370e-5, 2.005e-5, 4.563e-6],
        "x_l2": [7.642e-5, 1.873e-5, 4.458e-6, 9.871e-7],
        "x_inf": [7.902e-5, 1.938e-5, 4.615e-6, 1.024e-6],
    },
    "orders": {
        "f_l2": [2.061, 2.094, 2.186],
        "f_inf": [1.970, 2.061, 2.136],
        "x_l2": [2.028, 2.071, 2.175],
        "x_inf": [2.028, 2.070, 2.172],
    },
}
ERROR_FACTOR = 2.0
ORDER_WINDOW = 0.20


class OutputError(Exception):
    """An operation returned, but its output failed the benchmark's check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


def _check_run(result, spec) -> int:
    """Every step's dissipation flag set and the final state admissible;
    returns the run's cell-steps."""
    for n, _, _, _, _, ok in result.energy_trace[1:]:
        _require(ok, f"dissipation bound violated at step {n}")
    _require(pmetraj.is_admissible(result.final_state.x_curr, spec.grid),
             "final state outside the admissible set")
    return spec.grid.M * len(result.newton_reports)


class RefineM2:
    """The m = 2 refinement study behind `pmetraj convergence` and the
    acceptance gate.  Deterministic: the seed is unused."""

    pass_seconds = 40.0

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        if smoke:
            self.h_list, self.reference_M, self.t_eval = [1 / 10, 1 / 20], 40, 0.1
        else:
            self.h_list, self.reference_M, self.t_eval = (
                [1 / 200, 1 / 400, 1 / 800, 1 / 1600], 9600, 0.05)
        self.smoke = smoke
        self.ops = [None]

    def run(self, op):
        return analysis.convergence_study(2.0, self.h_list, self.reference_M,
                                          self.t_eval, "paper-quadratic")

    def check(self, op, study) -> int:
        report = study.report
        for key in TABLE_M2["errors"]:
            errors = [rec.norm(key) for rec in report.records]
            _require(all(e > 0.0 and math.isfinite(e) for e in errors),
                     f"{key}: error not positive and finite")
            if self.smoke:
                continue
            for got, want in zip(errors, TABLE_M2["errors"][key]):
                _require(1 / ERROR_FACTOR <= got / want <= ERROR_FACTOR,
                         f"{key}: error {got:.4g} outside x2 of {want:.4g}")
            for got, want in zip(report.orders[key], TABLE_M2["orders"][key]):
                _require(abs(got - want) <= ORDER_WINDOW,
                         f"{key}: order {got:.3f} outside +/-0.20 of {want:.3f}")
        cell_steps = 0
        for key, res in study.runs.items():
            M = self.reference_M if key == "reference" else key
            grid = pmetraj.Grid(0.0, 1.0, M)
            spec = pmetraj.make_problem(2.0, grid, pmetraj.quadratic_bump)
            cell_steps += _check_run(res, spec)
        return cell_steps


# Strides of the fixed permutations that pair the free axes with the grid's
# cells; each is coprime with the deck sizes used here (4 and 30).
STRIDES = (11, 7, 13)


def _stratified(rng, levels: tuple, free: int, jitter: float) -> np.ndarray:
    """Points in [0, 1)^(len(levels) + free), one per cell of the full
    factorial grid over the first axes.  Every coordinate sits at the centre
    of a stratum, moved by the seed by up to `jitter` / 2 of the stratum's
    width: on the grid axes the cell's own stratum, on each free axis one of
    n strata (n the number of cells) given by a fixed permutation, so every
    axis is covered evenly and every seed makes about the same deck."""
    cells = np.array(np.meshgrid(*[np.arange(k) for k in levels], indexing="ij"))
    cells = cells.reshape(len(levels), -1).T
    n = len(cells)
    strata = [cells / np.array(levels)]
    strata += [(STRIDES[j] * np.arange(n) % n)[:, None] / n for j in range(free)]
    widths = np.concatenate([1.0 / np.array(levels), np.full(free, 1.0 / n)])
    centres = np.hstack(strata) + widths / 2
    return centres + widths * jitter * (rng.uniform(size=centres.shape) - 0.5)


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class SolveMix:
    """Many short `pmetraj solve` runs through `pmetraj.cli.main`, snapshots
    on: `configs/solve.cfg` plus a deck of 30 seeded variants, one per cell
    of a 5 x 3 x 2 grid over M in 100-800, m in [1.05, 8] and tau in
    [h, 10h].  f0 is a positive quartic, flat at both walls, with min f0 in
    [0.1, 1] (log scale), max f0 - min f0 in [0, 1], and a shape that mixes
    the smoothstep and the bump by an angle; each of those three is cut into
    30 strata, given to the cells by a fixed permutation.  The seed moves
    every value by up to a twentieth of its stratum, so every seed makes a deck
    of about the same cost.  Near-vacuum data (min f0 below 0.1) and steep
    f0 at a wall, where the solver can fail, belong to `stress`: here no
    operation should fail."""

    LEVELS = (5, 3, 2)  # strata of M, m and tau/h
    JITTER = 0.1        # share of a stratum the seed may move
    pass_seconds = 1.6

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        cfg_dir = work_dir / "configs"
        cfg_dir.mkdir(parents=True)
        root = Path(__file__).resolve().parent.parent
        shutil.copyfile(root / "configs" / "solve.cfg", cfg_dir / "solve.cfg")
        self.ops = [(cfg_dir / "solve.cfg", 10)]
        levels = (2, 2, 1) if smoke else self.LEVELS
        m_lo, m_hi = (20, 60) if smoke else (100, 800)
        points = _stratified(rng, levels, 3, self.JITTER)
        for k, (u_M, u_m, u_tau, u_f, u_a, u_shape) in enumerate(points):
            M = int(m_lo + u_M * (m_hi - m_lo + 1))
            m = float(1.05 + u_m * (8.0 - 1.05))
            tau = float((1.0 + 9.0 * u_tau) / M)
            steps = 10
            # f0 = f0_min + amplitude * (a mix of the smoothstep 3x^2 - 2x^3
            # and the bump 16x^2(1-x)^2, scaled to [0, 1] on the
            # grid's samples): flat at both walls, where a steep f0 trips the
            # wall-slope failure that `stress` measures
            angle = 2.0 * math.pi * u_shape
            shape = np.polynomial.Polynomial(
                math.cos(angle) * np.array([0.0, 0.0, 3.0, -2.0, 0.0])
                + math.sin(angle) * np.array([0.0, 0.0, 16.0, -32.0, 16.0]))
            grid = pmetraj.Grid(0.0, 1.0, M)
            values = shape(np.concatenate((grid.nodes(), grid.cell_centers())))
            low, high = float(values.min()), float(values.max())
            f0_min, amplitude = 10.0 ** (u_f - 1.0), float(u_a)
            coeffs = shape.coef * (amplitude / (high - low))
            coeffs[0] += f0_min - low * amplitude / (high - low)
            path = cfg_dir / f"variant_{k}.cfg"
            path.write_text(
                "[problem]\n"
                f"m = {m!r}\n"
                "domain = 0,1\n"
                f"initial_data = poly:{','.join(repr(float(c)) for c in coeffs)}\n"
                "[discretization]\n"
                f"M = {M}\n"
                f"tau = {tau!r}\n"
                f"t_final = {steps * tau!r}\n"
                "[output]\n"
                "dir = out\n"
                "snapshot_every = 2\n"
            )
            self.ops.append((path, steps))
        self._serial = 0
        self.max_mass_drift = 0.0

    def run(self, op):
        path, _ = op
        self._serial += 1
        out_dir = self.work_dir / f"out_{self._serial}"
        os.environ["PME_OUTPUT_DIR"] = str(out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["solve", "--config", str(path)])
        if code != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            raise SolverError(f"solve exited {code}: {stderr.getvalue().strip()}")
        return stdout.getvalue(), out_dir

    def check(self, op, outcome) -> int:
        stdout, out_dir = outcome
        try:
            _require(stdout.startswith("solve: "), f"unexpected summary {stdout!r}")
            energy = _read_rows(out_dir / "energy.csv")
            steps = len(energy) - 1
            _require(steps == op[1], f"{steps} steps written, {op[1]} planned")
            for n, _, _, lhs, rhs in energy[1:]:
                _require(float(lhs) <= float(rhs) + ENERGY_SLACK,
                         f"dissipation bound violated at step {n}")
            x = np.array([float(r[2]) for r in _read_rows(out_dir / f"snap_{steps}.csv")])
            _require(x[0] == 0.0 and x[-1] == 1.0 and bool(np.all(np.diff(x) > 0.0)),
                     "final snapshot outside the admissible set")
            mass = _read_rows(out_dir / "mass.csv")
            m0, m1 = float(mass[0][2]), float(mass[-1][2])
            self.max_mass_drift = max(self.max_mass_drift, abs(m1 - m0) / m0)
            _require(math.isfinite(self.max_mass_drift), "mass drift not finite")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return (len(x) - 1) * steps


class Stress:
    """The accepted-input envelope with default settings: near-vacuum
    poly:<f0min>,0,1 data at M = 400 for every f0min in {1e-2, 1e-3, 1e-4},
    m in {1.05, 2, 8} and tau in {h, 10h, 100h} (10 steps each); the quadratic
    bump at M = 2e4 and M = 1e5 for 5 steps, run once; and one solve_mix-style
    input whose density recovery fails at the wall.  The seed shuffles the
    order of the cases."""

    pass_seconds = 5.0

    # A solve_mix-style input with min f0 below 0.1: steep f0 at a wall and a
    # large m make the one-sided wide slope at node 0 nonpositive, and density
    # recovery raises DegenerateMeshError.
    WALL_CASE = ("M=185 m=5.85 poly:0.0514,1.54,2.29 tau=8.3h wall slope", 185,
                 5.848100354628676,
                 "poly:0.051364359012875616,1.5399162079072706,2.2923978601752575",
                 0.044858755958061096, 10)

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        if smoke:
            small = [(50, 2.0, f, 1) for f in ("1e-2", "1e-4")]
            large = [2000]
        else:
            small = [(400, m, f, k) for f in ("1e-2", "1e-3", "1e-4")
                     for m in (1.05, 2.0, 8.0) for k in (1, 10, 100)]
            large = [20000, 100000]
        cases = [(f"M={M} m={m:g} f0min={f} tau={k}h", M, m, f"poly:{f},0,1", k / M, 10)
                 for M, m, f, k in small]
        if not smoke:
            cases.append(self.WALL_CASE)
        rng = np.random.default_rng(seed)
        self.ops = [self._case(*cases[i]) for i in rng.permutation(len(cases))]
        self.once = [self._case(f"M={M} m=2 paper-quadratic tau=1h", M, 2.0,
                                "paper-quadratic", 1 / M, 5) for M in large]

    @staticmethod
    def _case(label, M, m, f0, tau, steps):
        spec = pmetraj.make_problem(m, pmetraj.Grid(0.0, 1.0, M),
                                    pmetraj.initial_data_from_key(f0))
        params = pmetraj.SolverParams(tau=tau)
        return label, pmetraj.RunConfig(spec=spec, params=params, t_final=steps * tau)

    def run(self, op):
        return stepper.run(op[1])

    def check(self, op, result) -> int:
        return _check_run(result, op[1].spec)


class Check:
    """`checks.run_all`, the sweeps behind `pmetraj check`, over the sweep
    seeds 1000 * seed + i for i < SWEEPS."""

    SWEEPS = 5
    pass_seconds = 3.0

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.ops = [1000 * seed + i for i in range(1 if smoke else self.SWEEPS)]

    def run(self, op):
        return checks.run_all(op)

    def check(self, op, results) -> int:
        _require(len(results) == 8, f"{len(results)} checks ran, 8 expected")
        bad = [r.name for r in results if not r.ok]
        _require(not bad, f"checks failed: {bad}")
        return 0


WORKLOADS = {"refine_m2": RefineM2, "solve_mix": SolveMix,
             "stress": Stress, "check": Check}
