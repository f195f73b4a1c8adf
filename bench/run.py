"""qubitnet benchmark: CLI workloads measured end to end, or traced by layer.

    python3 bench/run.py --workload ensemble --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # table of all four

Each run starts fresh processes from the checkout's src: a few that only
set up (import qubitnet, numpy and scipy, build the CLI parser, load the
reference), timed from spawn to ready, then one worker that runs the
workload in a closed loop and checks every output (see worker.py).

The last stdout line is one JSON object. With --trace 0 it holds the
end-to-end metrics: wall_s, the median round time scaled to reference
host speed (worker.Runner.round); setup_s, the median set-up time; and
peak_rss_mb, the worker's peak resident memory. With --trace 1 it holds
the per-layer metrics of spans.py, in unscaled seconds. The line before
it holds the samples behind each median, the unscaled round times,
fail_frac (failed / attempted invocations), any problems found and the
environment stamp. Exits nonzero without a result if the program cannot
be run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

from common import ROOT, child_env, env_stamp
from spans import metric_specs
from workloads import WORKLOADS

WORKER = ROOT / "bench" / "worker.py"
# Set-up is timed in this many fresh processes per run (the worker is one).
SETUP_SAMPLES = 5
READY_TIMEOUT_S = 60.0
# The worker stops itself well before this; a stuck worker is killed.
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up seconds (spawn to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker not ready (exit code {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exit code {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(detail, result) of one run; result is the benchmark's output object."""
    load_before = os.getloadavg()
    started = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _spawn(base + ["--setup-only"])
        _finish(proc, READY_TIMEOUT_S)
        setups.append(setup)
    proc, setup = _spawn(base + ["--seconds", str(seconds), "--trace", str(int(trace))])
    lines = _finish(proc, RUN_TIMEOUT_S - (time.monotonic() - started)).splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1])
    setups.append(setup)

    if trace:
        per_layer = res["per_layer"]
        metrics = {name: {"value": per_layer.get(name, 0.0), "unit": unit}
                   for name, unit, _ in metric_specs()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "samples": {"wall_s": len(res["walls"]), "setup_s": len(setups)},
        "wall_s_rounds": res["walls"],
        "wall_s_raw_rounds": res["walls_raw"],
        "calibrations_s": res["calibrations"],
        "setup_s_samples": setups,
        "fail_frac": res["failed"] / res["attempted"],
        "problems": res["problems"],
        "absent": res.get("absent", []),
        "env": env_stamp(load_before),
    }
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return detail, result


def _table(seed: int, seconds: int) -> int:
    """Every workload once, untraced, as one line each."""
    worst = 0
    for name in WORKLOADS:
        detail, result = measure(name, seed, seconds, trace=False)
        m = result["metrics"]
        print(f"{name:13s} wall_s {m['wall_s']['value']:.3f} s "
              f"(n={detail['samples']['wall_s']})  "
              f"setup_s {m['setup_s']['value']:.3f} s (n={detail['samples']['setup_s']})  "
              f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB  "
              f"fail_frac {detail['fail_frac']:.3f} "
              f"({result['failed']}/{result['attempted']})", flush=True)
        for problem in detail["problems"]:
            print(f"  {problem}")
        worst = max(worst, result["failed"])
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    try:
        if args.workload == "all":
            return _table(args.seed, args.seconds)
        detail, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
