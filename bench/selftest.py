"""Self-tests of the benchmark harness (not part of the Tier-1 suite):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

import check
import spans
import worker
from common import ROOT

worker.import_program()

import qubitnet.dynamics as dynamics  # noqa: E402  (path set by import_program)


def _bindings() -> dict[tuple[str, str], object]:
    return {(m.__name__, name): obj
            for m in spans.qubitnet_modules()
            for name, obj in vars(m).items() if callable(obj)}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        now = [0.0]
        tracer = spans.Tracer(clock=lambda: now[0])

        def inner():
            now[0] += 2.0

        def outer():
            now[0] += 1.0
            inner_span()
            inner_span()
            now[0] += 3.0

        inner_span = tracer.wrap("core.inner", inner)
        tracer.wrap("dynamics.outer", outer)()
        stats = tracer.stats
        self.assertEqual(stats["dynamics.outer"].calls, 1)
        self.assertEqual(stats["dynamics.outer"].total, 8.0)
        self.assertEqual(stats["dynamics.outer"].own, 4.0)
        self.assertEqual(stats["core.inner"].calls, 2)
        self.assertEqual(stats["core.inner"].own, 4.0)
        m = tracer.metrics(wall_s=8.0)
        self.assertEqual(m["core.self_s"] + m["dynamics.self_s"], 8.0)
        self.assertEqual(m["dynamics.share"], 0.5)

    def test_exception_keeps_stack_balanced(self):
        tracer = spans.Tracer()

        def boom():
            raise ValueError

        span = tracer.wrap("core.boom", boom)
        with self.assertRaises(ValueError):
            span()
        self.assertEqual(tracer._stack, [])
        self.assertEqual(tracer.stats["core.boom"].calls, 1)


class Patching(unittest.TestCase):
    def test_every_binding_patched_and_restored(self):
        before = _bindings()
        original = dynamics.chain_axes
        tracer = spans.Tracer()
        tracer.install()
        try:
            # chain_axes is defined in protocols and imported by name into
            # dynamics and metrics: all three names must see the wrapper.
            import qubitnet.metrics as metrics
            import qubitnet.protocols as protocols
            self.assertIsNot(dynamics.chain_axes, original)
            self.assertIs(dynamics.chain_axes, protocols.chain_axes)
            self.assertIs(metrics.chain_axes, protocols.chain_axes)
            self.assertTrue(hasattr(dynamics.Trajectory.to_csv, "__wrapped__"))
        finally:
            tracer.uninstall()
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)
        self.assertFalse(hasattr(dynamics.Trajectory.to_csv, "__wrapped__"))

    def test_traced_counts_on_a_small_run(self):
        tracer = spans.Tracer()
        with tempfile.TemporaryDirectory(dir=worker.scratch_dir()) as tmp:
            tracer.install()
            try:
                inv = worker.invoke(["chain-run", "--out", tmp, "--t-max", "0.05"], 60.0)
            finally:
                tracer.uninstall()
        self.assertIsNone(inv.error)
        m = tracer.metrics(inv.seconds)
        # 50 steps of 5 qubits; chain_axes runs once per step and once per
        # sample (W_max), 11 samples at sample_every=5.
        self.assertEqual(m["dynamics._step_kets.calls"], 50)
        self.assertEqual(m["dynamics._step_kets.rows_per_call"], 5.0)
        self.assertEqual(m["protocols.chain_axes.calls"], 61)
        self.assertAlmostEqual(m["protocols.chain_axes.calls_per_step"], 61 / 50)
        self.assertEqual(m["dynamics.Trajectory.to_csv.calls"], 1)
        self.assertGreater(m["cli.self_s"], 0.0)
        self.assertEqual(tracer.absent(), [])

    def test_absent_function_reads_zero(self):
        saved = spans.REPORTED
        spans.REPORTED = saved + ("dynamics._renamed_away",)
        try:
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
            self.assertEqual(tracer.absent(), ["dynamics._renamed_away"])
            m = tracer.metrics(1.0)
            self.assertEqual(m["dynamics._renamed_away.calls"], 0)
            self.assertEqual(m["dynamics._renamed_away.us_per_call"], 0.0)
        finally:
            spans.REPORTED = saved


class Checker(unittest.TestCase):
    def _outputs(self, tmp: Path, value: str, t1: str = "0.5") -> tuple[dict, list[str]]:
        (tmp / "summary.json").write_text(json.dumps({"x": 1.0}))
        (tmp / "min_time_heatmap.csv").write_text(
            f"theta,dphi,t1,t_min,diff\n0.1,0.2,{t1},0.25,{value}\n")
        return check.examine("min-time-heatmap", str(tmp), '{"cells": 1, "csv": "p"}')

    def test_reference_match_perturbation_and_nan(self):
        with tempfile.TemporaryDirectory(dir=worker.scratch_dir()) as tmp:
            tmp = Path(tmp)
            ref, problems = self._outputs(tmp, "0.25")
            self.assertEqual(problems, [])
            self.assertEqual(check.compare(ref, ref), [])
            near, _ = self._outputs(tmp, repr(0.25 * (1 + 1e-12)))
            self.assertEqual(check.compare(near, ref), [])
            moved, _ = self._outputs(tmp, "0.2501")
            self.assertEqual(len(check.compare(moved, ref)), 1)
            _, problems = self._outputs(tmp, "nan")
            self.assertEqual(len(problems), 1)
            _, problems = self._outputs(tmp, "0.25", t1="0.2")
            self.assertIn("below t_min", problems[0])
            self._outputs(tmp, "0.25")
            (tmp / "summary.json").write_text('{"x": NaN}')
            _, problems = check.examine("min-time-heatmap", str(tmp), '{"cells": 1}')
            self.assertEqual(len(problems), 1)

    def test_missing_reference_key_fails(self):
        self.assertEqual(check.compare({"a": 1.0}, {"a": 1.0, "b": 2.0}), ["b: missing"])


class Limits(unittest.TestCase):
    def test_hang_becomes_failed_invocation(self):
        with tempfile.TemporaryDirectory(dir=worker.scratch_dir()) as tmp:
            inv = worker.invoke(["qcme-compare", "--out", tmp, "--cap", "0"], 1.0)
        self.assertIn("timed out", inv.error)
        self.assertLess(inv.seconds, 5.0)

    def test_benchmark_json_lists_every_per_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, spans.metric_specs())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0.0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    sys.exit(unittest.main())
