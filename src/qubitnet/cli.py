"""Command-line entry point: one subcommand per experiment runner.

Exit code 0 on success. On failure the process exits nonzero and prints
a single JSON object {"error": ..., "type": ...} to stderr so scripted
callers can parse the cause.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .decoherence import NoiseParams
from .topology import from_edge_list


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitnet",
        description="Distributed partial consensus experiments for qubit networks",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("min-time-heatmap",
                       help="settling vs minimum-time gap over initial angles")
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--dt", type=float, default=1e-3)

    for kind in ("chain-run", "grid-run"):
        p = sub.add_parser(kind, help=f"single consensus run ({kind})")
        _add_common(p)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--t-max", type=float, default=50.0)
        p.add_argument("--topology", help="edge-list file (1-based 'i j w' lines)")

    p = sub.add_parser("scaling-sweep", help="settling time vs network size")
    _add_common(p)
    p.add_argument("--chain-sizes", type=int, nargs="+",
                   default=[5, 10, 15, 20, 25, 30, 35, 40, 45, 50])
    p.add_argument("--grid-sides", type=int, nargs="+",
                   default=[2, 3, 4, 5, 6, 7, 8, 9, 10])
    p.add_argument("--n-seeds", type=int, default=5)
    p.add_argument("--dt", type=float, default=5e-3)

    p = sub.add_parser("qcme-compare",
                       help="three-protocol convergence comparison at N=3")
    _add_common(p)
    p.add_argument("--n-seeds", type=int, default=10)
    p.add_argument("--cap", type=float, default=experiments.QCME_CAP_ANGLE)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=20.0)

    p = sub.add_parser("coherence-protect",
                       help="measurement-feedback coherence protection ensemble")
    _add_common(p)
    p.add_argument("--n-traj", type=int, default=100)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--t-max", type=float, default=0.5)
    p.add_argument("--gamma-r", type=float, default=10.0)
    p.add_argument("--gamma-phi", type=float, default=10.0)
    p.add_argument("--gamma-z", type=float, default=0.1)
    p.add_argument("--eta-z", type=float, default=1.0)

    p = sub.add_parser("sphere-twin-check",
                       help="quantum vs sphere-ODE trajectory agreement")
    _add_common(p)
    p.add_argument("--n-seeds", type=int, default=20)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=5.0)

    return parser


def _load_topology(path: str | None):
    if path is None:
        return None
    with open(path) as fh:
        return from_edge_list(fh.read())


def run(args: argparse.Namespace) -> dict:
    exp = args.experiment
    if exp == "min-time-heatmap":
        return experiments.run_min_time_heatmap(
            args.out, resolution=args.resolution, dt=args.dt)
    if exp in ("chain-run", "grid-run"):
        return experiments.run_network_experiment(
            exp, args.out, seed=args.seed, dt=args.dt, t_max=args.t_max,
            topology=_load_topology(args.topology))
    if exp == "scaling-sweep":
        return experiments.run_scaling_sweep(
            args.out, chain_sizes=tuple(args.chain_sizes),
            grid_sides=tuple(args.grid_sides), n_seeds=args.n_seeds,
            master_seed=args.seed, dt=args.dt)
    if exp == "qcme-compare":
        return experiments.run_qcme_compare(
            args.out, master_seed=args.seed, n_seeds=args.n_seeds,
            cap=args.cap, dt=args.dt, t_max=args.t_max)
    if exp == "coherence-protect":
        summary = experiments.run_coherence_protect(
            args.out, master_seed=args.seed, n_traj=args.n_traj,
            dt=args.dt, t_max=args.t_max,
            params=NoiseParams(gamma_r=args.gamma_r, gamma_phi=args.gamma_phi,
                               gamma_z=args.gamma_z, eta_z=args.eta_z))
        # strip the in-memory ndarray extras; keep the serializable part
        return {k: v for k, v in summary.items()
                if k in ("csv", "n_traj", "cxy_fb_at_half", "cxy_nofb_at_half",
                         "pooled_se_at_half", "dist_fb_initial", "dist_fb_final")}
    if exp == "sphere-twin-check":
        return experiments.run_sphere_twin_check(
            args.out, master_seed=args.seed, n_seeds=args.n_seeds,
            dt=args.dt, t_max=args.t_max)
    raise ValueError(f"unknown experiment {exp!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = run(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        json.dump({"error": str(exc), "type": type(exc).__name__},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1
    json.dump(result, sys.stdout, indent=2, sort_keys=True, default=str)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
