"""Command-line entry point: one subcommand per experiment runner.

The parser declares flags, types and help text only: an option left out
stays out of the namespace, so the runner's own default applies; --help
shows it, read from the runner's signature (NoiseParams' for the rates).
Any failure, a parse error included, exits 1 with a single JSON object
{"error": ..., "type": ...} on stderr. --help exits 0.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import experiments
from .decoherence import NoiseParams
from .topology import from_edge_list


class _Parser(argparse.ArgumentParser):
    """Raises on a parse error, so main reports it like any other failure."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _runner(exp: str):
    """experiments.run_foo_bar runs foo-bar, run_network_experiment chain-run and grid-run."""
    name = "network_experiment" if exp in ("chain-run", "grid-run") else exp.replace("-", "_")
    return getattr(experiments, "run_" + name)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qubitnet", description="Distributed partial consensus "
                     "experiments for qubit networks")
    sub = parser.add_subparsers(dest="experiment", required=True)

    def add(name: str, help: str, seeded: bool = True):
        """A subcommand; --seed sets its runner's master_seed where seeded."""
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--out", required=True, help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, dest="master_seed", metavar="SEED",
                           help="master seed")
        return p

    p = add("min-time-heatmap", "settling vs minimum-time gap over initial angles", False)
    p.add_argument("--resolution", type=int)
    p.add_argument("--dt", type=float)

    for kind in ("chain-run", "grid-run"):
        p = add(kind, f"single consensus run ({kind})")
        p.add_argument("--dt", type=float)
        p.add_argument("--t-max", type=float)
        p.add_argument("--topology", help="edge-list file (1-based 'i j w' lines)")

    p = add("scaling-sweep", "settling time vs network size")
    p.add_argument("--chain-sizes", type=int, nargs="+")
    p.add_argument("--grid-sides", type=int, nargs="+")
    p.add_argument("--n-seeds", type=int)
    p.add_argument("--dt", type=float)

    p = add("qcme-compare", "three-protocol convergence comparison at N=3")
    p.add_argument("--n-seeds", type=int)
    p.add_argument("--cap", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-max", type=float)

    p = add("coherence-protect", "measurement-feedback coherence protection ensemble")
    p.add_argument("--n-traj", type=int)
    for flag in ("--dt", "--t-max", "--gamma-r", "--gamma-phi", "--gamma-z", "--eta-z"):
        p.add_argument(flag, type=float)

    p = add("sphere-twin-check", "quantum vs sphere-ODE trajectory agreement")
    p.add_argument("--n-seeds", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-max", type=float)

    for name, p in sub.choices.items():
        params = inspect.signature(_runner(name)).parameters.items()
        defaults = vars(NoiseParams()) | {k: v.default for k, v in params}
        for action in p._actions[2:]:  # the options after -h and --out
            action.help = f"{action.help or ''} (default: {defaults[action.dest]})".lstrip()
    return parser


def run(args: argparse.Namespace) -> dict:
    """Call the subcommand's runner with the options that were given."""
    kwargs = vars(args).copy()
    exp = kwargs.pop("experiment")
    if exp in ("chain-run", "grid-run"):
        kwargs["kind"] = exp
    if "topology" in kwargs:
        with open(kwargs["topology"]) as fh:
            kwargs["topology"] = from_edge_list(fh.read())
    rates = {name: kwargs.pop(name) for name in vars(NoiseParams()) if name in kwargs}
    if rates:
        kwargs["params"] = NoiseParams(**rates)
    result = _runner(exp)(out_dir=kwargs.pop("out"), **kwargs)
    if exp == "coherence-protect":
        # strip the in-memory ndarray extras; keep the serializable part
        result = {k: v for k, v in result.items()
                  if k in ("csv", "n_traj", "cxy_fb_at_half", "cxy_nofb_at_half",
                           "pooled_se_at_half", "dist_fb_initial", "dist_fb_final")}
    return result


def main(argv: list[str] | None = None) -> int:
    try:
        result = run(build_parser().parse_args(argv))
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
