"""sha256 of stdout and of every artifact of a fixed set of CLI runs.

    python3 tools/digest_runs.py                    # this checkout's src/
    python3 tools/digest_runs.py --src OTHER/src    # another tree's code

The runs are `qubitnet --help` and each `<subcommand> --help`, with
COLUMNS=80 so argparse wraps the same way on every terminal, then every
invocation of the benchmark workloads (bench/workloads.py) and every
TINY_RUNS argv of tests/test_cli.py, each at seeds 0, 1 and 7 (a run
that takes no seed runs once), then each of LONG_RUNS once. Each run
writes into a fresh directory and is given a relative --out, so a path
that a summary records reads the same whatever the temporary directory.
One line per file, "<sha256>  <argv> :: <file>", plus "<sha256>  <argv>
:: stdout" and the exit code. Two trees, or two hash seeds, that print
the same lines wrote the same bytes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 7)
# Runs at the acceptance size. coherence-protect: over its 5 000 steps the
# feedback loop grows a one-ulp change in the SME step to about 1e-3; the
# second one pins the drift, SME and Lindblad bytes at rates other than
# the defaults, relaxation off; the third pins the measurement record's
# sqrt(eta gamma_z) away from the defaults. qcme-compare: a 20-member
# geometric network batch (gain 2, chain and complete graph) and a
# 10-member chain-protocol batch (gain 1), each over 20 000 steps (every
# member runs to t_max). min-time-heatmap: the runs kept for their
# settling times alone, 1 024 cells at the defaults, and 32 400 cells of
# which 180 settle at t = 0. sphere-twin-check: 20 geometric networks at
# gain 1 (each step over dt / 2) and their sphere twins, over 5 000 steps.
# grid-run: one unbatched geometric network over 50 000 steps.
LONG_RUNS = [["coherence-protect", "--n-traj", "100", "--dt", "1e-4", "--seed", "0"],
             ["coherence-protect", "--n-traj", "4", "--gamma-r", "0", "--gamma-phi", "3",
              "--eta-z", "0.5", "--seed", "1"],
             ["coherence-protect", "--n-traj", "3", "--gamma-z", "0.4", "--eta-z", "0.7",
              "--seed", "7"],
             ["qcme-compare", "--n-seeds", "10", "--seed", "0"],
             ["min-time-heatmap"],
             ["min-time-heatmap", "--resolution", "180", "--dt", "5e-2"],
             ["sphere-twin-check"],
             ["grid-run"]]


def tiny_runs() -> list[list[str]]:
    """The TINY_RUNS argv of tests/test_cli.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TINY_RUNS" for t in node.targets):
            return [argv for argv, _ in ast.literal_eval(node.value)]
    raise LookupError("tests/test_cli.py holds no TINY_RUNS")


def argvs() -> list[list[str]]:
    """Every distinct argv, without --out, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, invocations

    subcommands = list(dict.fromkeys(argv[0] for argv in tiny_runs()))
    runs = [["--help"], *([sub, "--help"] for sub in subcommands)]
    for seed in SEEDS:
        for workload in WORKLOADS:
            runs += [[a[0], *a[3:]] for a in invocations(workload, seed, "")]
        for argv in tiny_runs():
            if "--seed" in argv:
                i = argv.index("--seed")
                argv = [*argv[:i], *argv[i + 2:], "--seed", str(seed)]
            runs.append(argv)
    distinct = []
    for argv in runs + LONG_RUNS:
        if argv not in distinct:
            distinct.append(argv)
    return distinct


def digest(argv: list[str], main) -> list[str]:
    """Run one argv in a fresh directory, with --out unless it asks for
    --help; the digest lines of its outputs."""
    label = " ".join(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                try:
                    rc = main(argv if "--help" in argv
                              else [argv[0], "--out", "out", *argv[1:]])
                except SystemExit as exc:  # --help exits through argparse
                    rc = exc.code
            files = sorted(Path("out").iterdir()) if Path("out").is_dir() else []
            lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {label} :: {p.name}"
                     for p in files]
        finally:
            os.chdir(cwd)
    text = stdout.getvalue().encode()
    return [f"exit {rc}  {label}",
            f"{hashlib.sha256(text).hexdigest()}  {label} :: stdout", *lines]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the qubitnet package to run")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, os.path.abspath(args.src))
    from qubitnet.cli import main as cli_main

    for argv in argvs():
        print("\n".join(digest(argv, cli_main)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
