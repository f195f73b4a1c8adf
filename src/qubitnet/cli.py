"""Command-line entry point: one subcommand per experiment runner.

Each subcommand's options are read from its runner's signature, one per
keyword parameter: master_seed is --seed, a NoiseParams is its four
rates, and --help shows each default. An option left out stays out of
the namespace, so the runner's own default applies. Any failure, a
parse error or a value leaving the float range included, exits 1 with
a single JSON object {"error": ..., "type": ...} on stderr. --help exits 0.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys

import numpy as np

from . import experiments
from .decoherence import NoiseParams
from .topology import from_edge_list

# the subcommands, in --help order
EXPERIMENTS = {
    "min-time-heatmap": "settling vs minimum-time gap over initial angles",
    "chain-run": "single consensus run (chain-run)",
    "grid-run": "single consensus run (grid-run)",
    "scaling-sweep": "settling time vs network size",
    "qcme-compare": "three-protocol convergence comparison at N=3",
    "coherence-protect": "measurement-feedback coherence protection ensemble",
    "sphere-twin-check": "quantum vs sphere-ODE trajectory agreement",
}
# help text shown before an option's default
_HELP = {"master_seed": "master seed",
         "topology": "edge-list file (1-based 'i j w' lines)"}


class _Parser(argparse.ArgumentParser):
    """Raises on a parse error, so main reports it like any other failure."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _runner(exp: str):
    """experiments.run_foo_bar runs foo-bar; chain-run and grid-run are
    run_network_experiment of that kind."""
    if exp in ("chain-run", "grid-run"):
        return functools.partial(experiments.run_network_experiment, exp)
    return getattr(experiments, "run_" + exp.replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qubitnet", description="Distributed partial consensus "
                     "experiments for qubit networks")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for exp, summary in EXPERIMENTS.items():
        p = sub.add_parser(exp, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--out", required=True, help="output directory")
        # one option per keyword parameter, --seed first, a NoiseParams as its rates
        params = inspect.signature(_runner(exp)).parameters
        defaults = {}
        for name in sorted(params, key=lambda name: name != "master_seed"):
            if name == "params":
                defaults |= vars(NoiseParams())
            elif name != "out_dir":
                defaults[name] = params[name].default
        for name, default in defaults.items():
            flag = "seed" if name == "master_seed" else name
            # a tuple default takes a list of ints, a None one (topology) a path
            many = isinstance(default, tuple)
            kind = int if many else None if default is None else type(default)
            p.add_argument("--" + flag.replace("_", "-"), dest=name, metavar=flag.upper(),
                           type=kind, nargs="+" if many else None,
                           help=f"{_HELP.get(name, '')} (default: {default})".lstrip())
    return parser


def run(args: argparse.Namespace) -> dict:
    """Call the subcommand's runner with the options that were given."""
    kwargs = vars(args).copy()
    exp = kwargs.pop("experiment")
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
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = run(build_parser().parse_args(argv))
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
