"""Operation times scaled to the host's speed, measured while they run.

The benchmark runs on a host whose cores it shares.  There a process keeps
its CPU but runs slower, by up to about 2x, whenever the neighbours are
busy: for stretches from a few milliseconds to minutes.  The same
operation's raw wall time therefore varies by tens of percent between runs,
and a 40 s operation cannot be repeated often enough for its fastest run to
help.

So the clock times a fixed piece of work, the probe (``probe``: no pmetraj
code, about 0.05 ms), before and after each operation and every
``PROBE_EVERY`` seconds inside it.  Inside, it probes at the entry of a few
functions the operation calls often (``TICKS``), by replacing the module
attribute each call site looks up.  Each probe gives a speed,
``REFERENCE_PROBE_S`` over the probe's time.  An operation's time is its
wall time without the probes, multiplied by the mean speed during the
operation: the time it would have taken on a host that always runs the
probe in ``REFERENCE_PROBE_S``.  The probes sample the operation's own span
evenly, so a slowdown that lasts a part of it counts in proportion, and a
change to pmetraj moves the operation's time but not the probe's.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from pmetraj import checks, cli, functional, newton, stepper

from tracing import CHECK_FUNCTIONS

# Call sites looked up by name that the workloads call every few
# milliseconds or more often.
TICKS = ((stepper, "advance"), (newton, "solve_tridiagonal"),
         (functional, "residual"), (functional, "eval_F"),
         (functional, "g_convex_integral"),
         (stepper, "write_csv_atomic"), (cli, "write_csv_atomic")) + tuple(
    (checks, fn) for fn in CHECK_FUNCTIONS)

PROBE_EVERY = 0.0025  # seconds of operation time between probes
PROBE_N = 50
# The probe's time on the reference host (a 2-core Xeon, numpy 2.4) when its
# neighbours are idle, rounded.
REFERENCE_PROBE_S = 0.05e-3

_probe_diag = np.linspace(4.0, 5.0, PROBE_N)
_probe_off = np.linspace(0.5, 1.0, PROBE_N - 1)
_probe_rhs = np.linspace(-1.0, 1.0, PROBE_N)


def probe() -> float:
    """Time a fixed piece of work that does not involve pmetraj: a scalar
    tridiagonal elimination over numpy arrays, the same kind of interpreted
    loop as the numpy lane's kernels, and a few vector operations."""
    t0 = time.perf_counter()
    diag, off, rhs = _probe_diag, _probe_off, _probe_rhs
    cp = np.empty(PROBE_N)
    x = np.empty(PROBE_N)
    piv = diag[0]
    x[0] = rhs[0] / piv
    for i in range(1, PROBE_N):
        cp[i - 1] = off[i - 1] / piv
        piv = diag[i] - off[i - 1] * cp[i - 1]
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / piv
    for i in range(PROBE_N - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    np.log1p(np.abs(np.diff(x)) * diag[1:]).sum()
    return time.perf_counter() - t0


def host_speed(probes) -> float:
    """The mean over the probes of REFERENCE_PROBE_S over the probe's time:
    below 1 while the host runs slower than the reference.  A probe that
    the scheduler interrupts counts as one slow sample, not as a long one."""
    return statistics.fmean(REFERENCE_PROBE_S / p for p in probes)


class HostClock:
    """Times operations between ``begin`` and ``end``, probing the host's
    speed as they run."""

    def __init__(self):
        self.times: dict = {}     # op index -> [scaled seconds per run]
        self.speeds: list = []    # host speed during each operation run
        self._probes = None
        self._probe_cost = 0.0
        self._last_probe = 0.0
        self._saved: list = []

    def _probe(self) -> None:
        """Run the probe twice and keep the second time, so that it sees
        warm caches as it does outside an operation."""
        t0 = time.perf_counter()
        probe()
        self._probes.append(probe())
        self._last_probe = time.perf_counter()
        self._probe_cost += self._last_probe - t0

    def _ticked(self, fn):
        def ticked(*args, **kwargs):
            if (self._probes is not None
                    and time.perf_counter() - self._last_probe >= PROBE_EVERY):
                self._probe()
            return fn(*args, **kwargs)
        return ticked

    def install(self) -> "HostClock":
        for owner, attr in TICKS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._ticked(original))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin(self) -> None:
        self._probes = []
        self._probe()
        self._probe_cost = 0.0
        self._start = time.perf_counter()

    def end(self, op_index: int) -> None:
        seconds = time.perf_counter() - self._start - self._probe_cost
        self._probe()
        speed = host_speed(self._probes)
        self._probes = None
        self.speeds.append(speed)
        self.times.setdefault(op_index, []).append(seconds * speed)

    def op_seconds(self) -> list:
        """Each operation's time: the median over its runs."""
        return [statistics.median(self.times[i]) for i in sorted(self.times)]
