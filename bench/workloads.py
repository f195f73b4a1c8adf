"""The benchmark's workloads: CLI argv lists handed to qubitnet.cli.main.

One round of a workload runs its invocations in order; the benchmark
repeats rounds in a closed loop (one client, the next invocation starts
when the previous one returns). Sizes are cut from the experiments'
defaults so that one round takes a few seconds on a 2-core box and a run
holds several rounds. Why each workload exists is recorded in
BENCHMARK.json.
"""

from __future__ import annotations

# The CLI's own default master seed; reference outputs are recorded at it.
DEFAULT_SEED = 0

# Each entry is (subcommand, extra args, takes --seed). min-time-heatmap
# has no random input, so it takes no seed.
WORKLOADS: dict[str, list[tuple[str, list[str], bool]]] = {
    # 82 independent runs, N = 2..25: 64 heatmap pairs sampled every step
    # and 16 sweep cells, all stopping early, and 2 quantum/sphere twin
    # pairs. The sweep is the only part whose work depends on the seed.
    "ensemble": [
        ("min-time-heatmap", ["--resolution", "8", "--dt", "2e-2"], False),
        ("scaling-sweep", ["--chain-sizes", "5", "--grid-sides", "3", "4", "5",
                           "--n-seeds", "4"], True),
        ("sphere-twin-check", ["--n-seeds", "2", "--t-max", "1"], True),
    ],
    # Two long single-member runs without early stop, each writing a
    # trajectory CSV.
    "single": [
        ("chain-run", ["--t-max", "8"], True),
        ("grid-run", ["--t-max", "8"], True),
    ],
    # QCME generator, quantum average and product-state rebuild, plus six
    # N = 3 network runs.
    "qcme_compare": [
        ("qcme-compare", ["--n-seeds", "2", "--dt", "8e-3"], True),
    ],
    # Four SME trajectories and the Lindblad reference.
    "coherence": [
        ("coherence-protect", ["--n-traj", "2", "--dt", "4e-4"], True),
    ],
}


def invocations(workload: str, seed: int, out_root: str) -> list[list[str]]:
    """The argv of every CLI invocation in one round, outputs under out_root."""
    argvs = []
    for i, (sub, extra, seeded) in enumerate(WORKLOADS[workload]):
        argv = [sub, "--out", f"{out_root}/{i}-{sub}", *extra]
        if seeded:
            argv += ["--seed", str(seed)]
        argvs.append(argv)
    return argvs
