"""Paths, child-process environment and the environment stamp shared by the
benchmark scripts.

Nothing here imports qubitnet or numpy: the parent process stays light so
that its own start-up never overlaps a measured child.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for CLI outputs; inside the checkout and ignored by git.
SCRATCH = ROOT / ".bench_build"

# Seconds the worker's calibration kernel (worker.calibrate) takes on the
# 2-core Xeon box the reference was recorded on. A time scaled by
# CAL_REF / calibration reads as seconds on that box at its usual speed,
# whatever the host's speed was while it was measured.
CAL_REF = 0.11

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment for a measured child: the checkout's src on the path and
    every BLAS pool capped at nproc, so a BLAS library never starts more
    threads than the box has cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Cached bytecode, as an installed package has: set-up measures imports,
    # not compiling the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cap = nproc()
    for var in BLAS_VARS:
        try:
            held = int(env.get(var, cap))
        except ValueError:
            held = cap
        env[var] = str(min(max(held, 1), cap))
    return env


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_state() -> dict:
    """Commit and dirty flag, or nulls when the checkout is not a git tree."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != ROOT:
        return {"commit": None, "dirty": None}
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head.strip() if head else None,
            "dirty": None if status is None else bool(status.strip())}


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def env_stamp(load_before: tuple[float, float, float]) -> dict:
    """Everything a reader needs to judge where a result came from."""
    load_after = os.getloadavg()
    cores = nproc()
    env = child_env()
    stamp = {
        "nproc": cores,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {v: env[v] for v in BLAS_VARS},
        **git_state(),
    }
    if max(load_before[0], load_after[0]) > cores:
        stamp["warning"] = (f"1-minute load average above nproc={cores}; "
                            "timings are contended")
        print(f"warning: {stamp['warning']}", file=sys.stderr)
    return stamp
