"""One-shot Tier-1 durations report (not a benchmark workload).

Runs the repository's Tier-1 verify command once with per-test durations
and writes the total and per-test seconds to bench/tier1_durations.json:

    python3 bench/tier1_durations.py

The suite takes several minutes, so this is run by hand when a change
claims to move the Tier-1 time, never as part of every benchmark run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

from common import ROOT, child_env, env_stamp

OUT = ROOT / "bench" / "tier1_durations.json"
COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "--durations-min=0", "-p", "no:cacheprovider"]
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s\s+(setup|call|teardown)\s+(\S+)")
SUMMARY = re.compile(r"^=*\s*(.*\b(?:passed|failed|error)\b.*?)\s*=*$")


def parse(output: str) -> tuple[dict[str, float], str | None]:
    per_test: dict[str, float] = {}
    summary = None
    for line in output.splitlines():
        m = DURATION.match(line)
        if m:
            per_test[m.group(3)] = per_test.get(m.group(3), 0.0) + float(m.group(1))
            continue
        s = SUMMARY.match(line.strip())
        if s and " in " in s.group(1):
            summary = s.group(1)
    return per_test, summary


def main() -> int:
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    proc = subprocess.run(COMMAND, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True)
    total = time.perf_counter() - t0
    per_test, summary = parse(proc.stdout)
    report = {
        "command": "PYTHONPATH=src " + " ".join(["python"] + COMMAND[1:]),
        "exit_code": proc.returncode,
        "summary": summary,
        "total_s": total,
        "n_tests": len(per_test),
        "per_test_s": dict(sorted(per_test.items(), key=lambda kv: -kv[1])),
        "env": env_stamp(load_before),
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{summary}; wall {total:.1f} s; written to {OUT.relative_to(ROOT)}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
