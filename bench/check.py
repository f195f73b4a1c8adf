"""Output checker for the benchmark's CLI invocations.

Every invocation, at every seed, must leave outputs with no NaN or inf in
any JSON or CSV file and must satisfy the claim its experiment stands for:

- min-time-heatmap: every cell settles no sooner than the minimum time;
- scaling-sweep: every cell settles;
- sphere-twin-check: quantum and sphere trajectories agree to 1e-6;
- coherence-protect: feedback keeps more planar coherence at t = 0.5.

At the default seed the outputs must also match the reference recorded in
bench/reference.json, up to rounding-level movement (RTOL, ATOL); keys
added to the outputs later are ignored. The reference is a digest: every
JSON leaf and, for each CSV, its row count and per-column sum of |value|.
Re-record it, when a change to the workloads calls for it, with

    python3 bench/check.py --record
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Leaves holding an output path, which differs between runs.
SKIP_KEYS = {"csv"}


def _number(text: str):
    """The complex value of a numeric string, else None."""
    try:
        return complex(text.strip())
    except ValueError:
        return None


def _is_finite(value) -> bool:
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, str):
        z = _number(value)
        return z is None or (math.isfinite(z.real) and math.isfinite(z.imag))
    return True


def _leaves(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k not in SKIP_KEYS:
                yield from _leaves(v, f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def _load_json(text: str):
    # NaN and Infinity tokens parse to floats so the finiteness check sees them.
    return json.loads(text, parse_constant=float)


def _csv_digest(path: Path, problems: list[str], row_check) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        sums = [0.0] * len(header)
        rows = 0
        for row in reader:
            rows += 1
            values = {}
            for j, cell in enumerate(row):
                z = _number(cell)
                if z is None:
                    continue
                if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                    problems.append(f"{path.name} row {rows} {header[j]}: {cell}")
                sums[j] += abs(z)
                values[header[j]] = z.real
            if row_check is not None:
                msg = row_check(values)
                if msg:
                    problems.append(f"{path.name} row {rows}: {msg}")
    return {"rows": rows, "abs_sum": dict(zip(header, sums))}


def _heatmap_row(r: dict) -> str | None:
    if not r.get("t1", -math.inf) >= r.get("t_min", math.inf):
        return f"t1={r.get('t1')} below t_min={r.get('t_min')}"
    return None


def _sweep_row(r: dict) -> str | None:
    if not math.isfinite(r.get("settling_time", math.nan)):
        return "cell did not settle"
    return None


ROW_CHECKS = {"min_time_heatmap.csv": _heatmap_row, "scaling.csv": _sweep_row}


def _stdout_check(sub: str, out: dict) -> str | None:
    if sub == "sphere-twin-check" and not out.get("max_deviation", math.inf) < 1e-6:
        return f"twin max_deviation {out.get('max_deviation')} not below 1e-6"
    if sub == "coherence-protect" and not (
            out.get("cxy_fb_at_half", -math.inf) > out.get("cxy_nofb_at_half", math.inf)):
        return (f"feedback coherence {out.get('cxy_fb_at_half')} not above "
                f"no-feedback {out.get('cxy_nofb_at_half')}")
    return None


def examine(sub: str, out_dir: str, stdout_text: str) -> tuple[dict, list[str]]:
    """Digest of one invocation's outputs and the problems found in them."""
    problems: list[str] = []
    try:
        out = _load_json(stdout_text)
    except json.JSONDecodeError:
        return {}, [f"{sub}: stdout is not one JSON object"]
    digest = {"stdout": dict(_leaves(out)), "files": {}}
    msg = _stdout_check(sub, out)
    if msg:
        problems.append(msg)
    for name in sorted(os.listdir(out_dir)):
        path = Path(out_dir) / name
        if name.endswith(".json"):
            digest["files"][name] = dict(_leaves(_load_json(path.read_text())))
        elif name.endswith(".csv"):
            digest["files"][name] = _csv_digest(path, problems, ROW_CHECKS.get(name))
    for where, leaves in [("stdout", digest["stdout"])] + [
            (n, d) for n, d in digest["files"].items() if n.endswith(".json")]:
        for key, value in leaves.items():
            if not _is_finite(value):
                problems.append(f"{where} {key}: {value}")
    return digest, problems


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        za, zb = _number(a), _number(b)
        if za is None or zb is None:
            return a == b
        a, b = za, zb
    if isinstance(a, (str, dict, list)) or isinstance(b, (str, dict, list)):
        return a == b
    return abs(a - b) <= ATOL + RTOL * abs(b)


def compare(digest: dict, ref: dict, prefix: str = "") -> list[str]:
    """Mismatches of digest against the reference; extra keys are ignored."""
    out = []
    for key, want in ref.items():
        if key not in digest:
            out.append(f"{prefix}{key}: missing")
        elif isinstance(want, dict) and isinstance(digest[key], dict):
            out += compare(digest[key], want, f"{prefix}{key}.")
        elif not _close(digest[key], want):
            out.append(f"{prefix}{key}: {digest[key]!r} != reference {want!r}")
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record() -> int:
    """Run one round of every workload at the default seed and save digests."""
    import tempfile

    import worker
    from workloads import DEFAULT_SEED, WORKLOADS, invocations

    worker.import_program()
    reference = {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=worker.scratch_dir()) as tmp:
            digests = []
            for argv in invocations(name, DEFAULT_SEED, tmp):
                inv = worker.invoke(argv, timeout_s=600.0)
                digest, problems = examine(argv[0], argv[2], inv.stdout)
                if inv.error or problems:
                    print(f"{name}: {inv.error or problems}", file=sys.stderr)
                    return 1
                digests.append(digest)
        reference[name] = digests
        print(f"recorded {name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 bench/check.py --record")
    sys.exit(record())
