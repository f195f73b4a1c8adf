"""Per-layer tracer: timed spans around qubitnet's module-level functions.

The layers are the package modules. install() wraps every function defined
at module level in a layer, and every plain method of the classes defined
there, then rebinds the wrapper under every name that binds the original in
any qubitnet module (the modules import by name, so patching only the
defining module would miss most calls). uninstall() puts every original
back. The callable that protocols.qcme_generator returns is wrapped too.

Each span adds its duration to its caller's child time, so a function's
self time is its own duration minus the spans nested in it. Functions the
benchmark reports on are named in REPORTED; one that no longer exists is
listed as absent and reads 0, so renaming or deleting it never breaks a
trace.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import ModuleType

LAYERS = ("cli", "experiments", "dynamics", "protocols", "metrics",
          "decoherence", "core", "topology")

SUBCOMMANDS = ("min-time-heatmap", "chain-run", "grid-run", "scaling-sweep",
               "qcme-compare", "coherence-protect", "sphere-twin-check")

STEP = "dynamics._step_kets"
CHAIN_AXES = "protocols.chain_axes"
NETWORK = "dynamics.simulate_network"
GENERATOR = "protocols.qcme_generator"

# Functions reported one by one, grouped by the workload whose wall_s they
# should explain.
REPORTED = (
    # network stepping: every network workload
    STEP, CHAIN_AXES, "protocols.geometry_axes", NETWORK,
    # per-sample metrics: ensemble (samples every step) more than single
    "dynamics._bloch_batch", "dynamics._consecutive_v",
    "dynamics._pairwise_error", "dynamics._max_pairwise_angle",
    # sphere twin: ensemble only
    "dynamics._rotate_vectors", "dynamics.simulate_sphere",
    # trajectory I/O: single
    "dynamics.Trajectory.to_csv", "experiments._write_csv",
    # QCME baseline: qcme_compare only
    GENERATOR + ".generator", "metrics.quantum_average",
    "experiments._product_state", "experiments.symmetric_distance_series",
    "dynamics.simulate_qcme",
    # stochastic master equation: coherence only
    "decoherence.sme_step", "decoherence.feedback_hamiltonian",
    "decoherence.lindblad_rhs", "decoherence.simulate_lindblad",
    "decoherence.simulate_protected_pair",
    # guards: should stay flat everywhere
    "dynamics.in_open_hemisphere", "metrics.settling_time",
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for q in REPORTED:
        specs += [(f"{q}.calls", "count", "lower"),
                  (f"{q}.us_per_call", "us", "lower"),
                  (f"{q}.self_s", "s", "lower")]
        if q == STEP:
            specs += [(f"{q}.rows_per_call", "count", "higher"),
                      (f"{q}.us_per_row", "us", "lower")]
        if q == CHAIN_AXES:
            specs.append((f"{q}.calls_per_step", "calls/step", "lower"))
    for layer in LAYERS:
        specs += [(f"{layer}.self_s", "s", "lower"),
                  (f"{layer}.share", "frac", "lower")]
    specs += [(f"cli.{sub.replace('-', '_')}_s", "s", "lower") for sub in SUBCOMMANDS]
    specs.append(("trace.overhead_frac", "frac", "lower"))
    return specs


class Stat:
    __slots__ = ("calls", "total", "own", "rows", "chain_steps")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.rows = 0
        self.chain_steps = 0


def _protocol(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("protocol")


def _rows(args) -> int:
    """Qubit rows in a ket batch: (N, 2) now, (B, N, 2) once batched."""
    return int(getattr(args[0], "size", 0)) // 2 if args else 0


def qubitnet_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qubitnet" or name.startswith("qubitnet."))]


class Tracer:
    """Spans over qubitnet's functions; stats accumulate until reset()."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # per open span: [child seconds, tag]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"qubitnet.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if (inspect.isfunction(fn) and not meth.startswith("__")
                                and fn.__module__ == mod.__name__):
                            self._patch(obj, meth, self.wrap(f"{layer}.{name}.{meth}", fn))
        for mod in qubitnet_modules():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _enclosing_tag(self):
        for frame in reversed(self._stack[:-1]):
            if frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, qual: str, fn):
        stat = self.stats.setdefault(qual, Stat())
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, _protocol(args, kwargs) if qual == NETWORK else None]
            stack.append(frame)
            if qual == STEP:
                stat.rows += _rows(args)
                if self._enclosing_tag() == "chain":
                    stat.chain_steps += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.own += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if qual == GENERATOR and callable(result):
                result = self.wrap(f"{qual}.{result.__name__}", result)
            return result

        return span

    def absent(self) -> list[str]:
        """Reported functions that could not be wrapped."""
        return [q for q in REPORTED
                if q not in self.stats
                and not (q.startswith(GENERATOR + ".") and GENERATOR in self.stats)]

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values for one traced round lasting wall_s seconds."""
        out: dict[str, float] = {}
        for q in REPORTED:
            s = self.stats.get(q, Stat())
            out[f"{q}.calls"] = s.calls
            out[f"{q}.us_per_call"] = 1e6 * s.total / s.calls if s.calls else 0.0
            out[f"{q}.self_s"] = s.own
        step = self.stats.get(STEP, Stat())
        out[f"{STEP}.rows_per_call"] = step.rows / step.calls if step.calls else 0.0
        out[f"{STEP}.us_per_row"] = 1e6 * step.total / step.rows if step.rows else 0.0
        chain_calls = out[f"{CHAIN_AXES}.calls"]
        out[f"{CHAIN_AXES}.calls_per_step"] = (
            chain_calls / step.chain_steps if step.chain_steps else 0.0)
        for layer in LAYERS:
            own = sum(s.own for q, s in self.stats.items()
                      if q.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = own
            out[f"{layer}.share"] = own / wall_s if wall_s > 0 else 0.0
        return out
