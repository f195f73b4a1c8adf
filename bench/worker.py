"""Benchmark worker: one fresh process per workload run (started by run.py).

It imports the program, builds the CLI parser and loads the reference,
then prints "ready" on stdout; the time until that line is set-up time.
With --setup-only it stops there. Otherwise it runs one warm-up round and
then rounds of the workload in a closed loop for --seconds, checking the
outputs of every invocation, and prints one JSON line with the results.
Untraced invocations alternate with a fixed calibration kernel, so their
times can be scaled to a reference host speed. With --trace 1 untraced
and traced rounds alternate, so the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import check
from common import CAL_REF, SCRATCH, SRC
from workloads import DEFAULT_SEED, WORKLOADS, invocations

# A hang (qcme-compare --cap 0 never returns) becomes a failed invocation.
INVOCATION_TIMEOUT_S = 30.0
# Wall-clock budget of one worker, below the 180 s a run may take.
BUDGET_S = 140.0
# Iterations of the calibration kernel (about common.CAL_REF seconds).
CAL_STEPS = 1500

cli = None


class InvocationTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's handler lets it pass."""


@dataclass
class Invocation:
    seconds: float
    stdout: str
    error: str | None


def import_program():
    """Import qubitnet from this checkout's src, never from elsewhere."""
    global cli
    sys.path.insert(0, str(SRC))
    import qubitnet.cli

    where = os.path.realpath(qubitnet.__file__)
    if not where.startswith(str(SRC) + os.sep):
        raise SystemExit(f"qubitnet imported from {where}, not from {SRC}")
    cli = qubitnet.cli
    return cli


def scratch_dir() -> str:
    SCRATCH.mkdir(exist_ok=True)
    return str(SCRATCH)


def invoke(argv: list[str], timeout_s: float) -> Invocation:
    """One CLI invocation with its stdout captured and a time limit."""
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:
            raise InvocationTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    buf = io.StringIO()
    error = None
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            error = f"exit code {rc}"
    except InvocationTimeout:
        error = f"timed out after {timeout_s:.0f} s"
    except SystemExit as exc:  # argparse rejects its input this way
        error = f"exit code {exc.code}"
    finally:
        elapsed = time.perf_counter() - t0
        armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Invocation(elapsed, buf.getvalue(), error)


@dataclass
class Round:
    times: dict[str, float]  # wall seconds per subcommand
    scaled: float  # the round's seconds at reference speed (untraced only)


class Runner:
    """Runs and checks rounds of one workload at one seed."""

    def __init__(self, workload: str, seed: int, reference: dict, deadline: float):
        self.workload = workload
        self.seed = seed
        self.reference = reference.get(workload) if seed == DEFAULT_SEED else None
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrations: list[float] = []
        self._last_calibration = None

    def round(self, tracer=None) -> Round:
        """One round; failures are counted.

        Untraced invocations are each bracketed by calibrations; an
        invocation's seconds scaled by CAL_REF over the mean of the two is
        its time at reference speed. Adjacent calibrations follow the
        host's speed changes, which last seconds to minutes.
        """
        times: dict[str, float] = {}
        scaled = 0.0
        if tracer is None and self._last_calibration is None:
            self._last_calibration = calibrate()
        with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmp:
            for i, argv in enumerate(invocations(self.workload, self.seed, tmp)):
                remaining = self.deadline - time.monotonic()
                timeout = max(1.0, min(INVOCATION_TIMEOUT_S, remaining))
                if tracer is not None:
                    tracer.install()
                try:
                    inv = invoke(argv, timeout)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                times[argv[0]] = times.get(argv[0], 0.0) + inv.seconds
                if tracer is None:
                    before, after = self._last_calibration, calibrate()
                    scaled += inv.seconds * CAL_REF / (0.5 * (before + after))
                    self.calibrations.append(after)
                    self._last_calibration = after
                self.attempted += 1
                problems = [inv.error] if inv.error else self._check(i, argv, inv)
                if problems:
                    self.failed += 1
                    self.problems += [f"{argv[0]}: {p}" for p in problems]
        if tracer is not None:
            self._last_calibration = None
        return Round(times, scaled)

    def _check(self, i: int, argv: list[str], inv: Invocation) -> list[str]:
        digest, problems = check.examine(argv[0], argv[2], inv.stdout)
        if self.reference is not None and not problems:
            problems = check.compare(digest, self.reference[i])
        return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibrate() -> float:
    """Seconds taken by a fixed kernel in the program's own style.

    Small-array numpy calls (elementwise ops on a 5 x 2 ket batch, a cross
    product, 2 x 2 matrix products), scalar math and float formatting, as
    in a network step, an SME step and a CSV row. The kernel never
    changes, so its time tracks the host's speed, which on a shared box
    moves by +-20 % from one minute to the next.
    """
    rng = np.random.default_rng(0)
    kets = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    x = rng.normal(size=(5, 3))
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    u = np.array([[math.cos(0.01), -1j * math.sin(0.01)],
                  [-1j * math.sin(0.01), math.cos(0.01)]])
    gc.collect()
    gc.disable()  # a collection inside the kernel would time the heap, not the host
    try:
        t0 = time.perf_counter()
        for _ in range(CAL_STEPS):
            omega = np.linalg.norm(x, axis=1)
            c, s = np.cos(omega * 1e-3), np.sin(omega * 1e-3)
            a, b = kets[:, 0], kets[:, 1]
            kets = np.stack([c * a - 1j * s * b, c * b - 1j * s * a], axis=1)
            x = x + 1e-3 * np.cross(x, x[::-1])
            rho = u @ rho @ u.conj().T
            rho = rho / np.trace(rho).real
            math.sqrt(max(0.0, float(rho[0, 0].real) * float(rho[1, 1].real)))
            ",".join(repr(float(v)) for v in x[0])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Warm-up round, then a closed loop of rounds until seconds have passed.

    With trace, each untraced round is followed by a traced one.
    """
    end = min(time.monotonic() + seconds, runner.deadline)
    runner.round()  # lazy imports and first-call set-up; checked, not timed
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    plain: list[Round] = []
    traced: list[tuple[float, dict[str, float]]] = []
    last = 0.0
    while not plain or time.monotonic() + last <= end:
        t0 = time.monotonic()
        plain.append(runner.round())
        if tracer is not None:
            tracer.reset()
            wall = sum(runner.round(tracer).times.values())
            traced.append((wall, tracer.metrics(wall)))
        last = time.monotonic() - t0
    walls = [sum(r.times.values()) for r in plain]
    result = {
        "walls": [r.scaled for r in plain],
        "walls_raw": walls,
        "calibrations": runner.calibrations,
    }
    if tracer is not None:
        per_layer = {k: _median([m[k] for _, m in traced]) for k in traced[0][1]}
        for sub in dict.fromkeys(sub for sub, _, _ in WORKLOADS[runner.workload]):
            per_layer[f"cli.{sub.replace('-', '_')}_s"] = _median(
                [r.times[sub] for r in plain])
        per_layer["trace.overhead_frac"] = (
            _median([w for w, _ in traced]) / _median(walls) - 1.0)
        result["per_layer"] = per_layer
        result["absent"] = tracer.absent()
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    started = time.monotonic()

    import_program().build_parser()
    reference = check.load_reference()
    out = sys.stdout
    print("ready", file=out, flush=True)
    if args.setup_only:
        return 0
    runner = Runner(args.workload, args.seed, reference, started + BUDGET_S)
    result = measure(runner, args.seconds, bool(args.trace))
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
