import argparse
import dataclasses
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qubitnet
from qubitnet import experiments
from qubitnet.cli import build_parser, main
from qubitnet.decoherence import NoiseParams
from qubitnet.topology import from_edge_list


def finite_json(text: str):
    """Parse JSON that must not hold NaN or Infinity."""

    def no_constants(name):
        raise AssertionError(f"{name} written to JSON")

    return json.loads(text, parse_constant=no_constants)


class TestHeatmapRunner:
    def test_writes_grid_and_manifest(self, tmp_path):
        out = tmp_path / "heat"
        res = experiments.run_min_time_heatmap(str(out), resolution=8)
        assert res["cells"] == 64
        lines = (out / "min_time_heatmap.csv").read_text().splitlines()
        assert lines[0] == "theta,dphi,t1,t_min,diff"
        assert len(lines) == 65
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolution"] == 8

    def test_gap_positive_and_worst_near_pole(self, tmp_path):
        out = tmp_path / "heat"
        experiments.run_min_time_heatmap(str(out), resolution=8)
        rows = np.loadtxt(out / "min_time_heatmap.csv", delimiter=",",
                          skiprows=1)
        thetas, dphis, diffs = rows[:, 0], rows[:, 1], rows[:, 4]
        # the closed-loop protocol always needs at least the minimum time
        assert np.all(diffs > -1e-9)
        # column by column the gap shrinks as the pair moves away from
        # the pole: the protocol follows chordal rather than great-circle
        # distance, which is worst for near-pole initial data
        for dphi in np.unique(dphis):
            col = diffs[dphis == dphi]
            th = thetas[dphis == dphi]
            order = np.argsort(th)
            assert col[order][0] > col[order][-1]

    def test_rejects_tiny_resolution(self, tmp_path):
        with pytest.raises(ValueError):
            experiments.run_min_time_heatmap(str(tmp_path), resolution=4)


class TestNetworkRunner:
    def test_chain_run_summary(self, tmp_path):
        out = tmp_path / "chain"
        s = experiments.run_network_experiment("chain-run", str(out), master_seed=1)
        assert s["settling_time"] is not None
        assert s["final_pure_state_error"] < 1e-2
        assert (out / "chain_run.csv").exists()
        assert (out / "summary.json").exists()

    def test_grid_run_summary(self, tmp_path):
        out = tmp_path / "grid"
        s = experiments.run_network_experiment("grid-run", str(out), master_seed=1)
        assert s["settling_time"] is not None
        assert s["final_pure_state_error"] < 1e-2

    def test_all_equal_settles_at_zero(self, tmp_path):
        # force identical initial states by running the simulation
        # directly; the runner path is covered above
        from qubitnet.core import ket_from_bloch
        from qubitnet.dynamics import IntegratorConfig, simulate_network
        from qubitnet.metrics import SettlingSpec, settling_time
        from qubitnet.topology import chain

        kets = np.array([ket_from_bloch([0, 0, 1])] * 5)
        traj = simulate_network(kets, chain(5), "chain",
                                IntegratorConfig(t_max=0.1))
        t2 = settling_time(traj, SettlingSpec(threshold=1e-2, metric="V"))
        assert t2 == 0.0

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            experiments.run_network_experiment("ring-run", str(tmp_path))


class TestScalingSweep:
    def test_cells_independent_of_order(self):
        a = experiments.scaling_cells("chain", 5, [2], master_seed=7)[0]
        _ = experiments.scaling_cells("grid", 3, [0], master_seed=7)[0]
        b = experiments.scaling_cells("chain", 5, [2], master_seed=7)[0]
        assert a == b

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "scale"
        res = experiments.run_scaling_sweep(str(out), chain_sizes=(5,),
                                            grid_sides=(2,), n_seeds=3)
        assert 5 in res["medians"]["chain"]
        assert 4 in res["medians"]["grid"]
        lines = (out / "scaling.csv").read_text().splitlines()
        assert len(lines) == 1 + 6

    def test_needs_three_seeds(self, tmp_path):
        with pytest.raises(ValueError):
            experiments.run_scaling_sweep(str(tmp_path), chain_sizes=(5,),
                                          grid_sides=(), n_seeds=2)

    def test_two_qubit_chain_matches_pair_meeting(self):
        # cross-experiment consistency: a 2-chain settles in a time
        # comparable to the pair meeting time from the same geometry
        from qubitnet.core import ket_from_bloch
        from qubitnet.dynamics import (IntegratorConfig, meeting_time,
                                       simulate_network)
        from qubitnet.topology import chain

        rng = np.random.default_rng([0, 0, 2, 0])
        v = rng.normal(size=(2, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        t2 = experiments.scaling_cells("chain", 2, [0], master_seed=0)[0]
        kets = np.array([ket_from_bloch(u) for u in v])
        cfg = IntegratorConfig(dt=5e-3, t_max=20.0)
        traj = simulate_network(kets, chain(2), "min-time", cfg)
        t1 = meeting_time(traj, angle_tol=1e-2)
        assert t2 is not None and t1 is not None
        # same initial pair, both laws close the same angle at unit rate
        assert abs(t2 - t1) < 2.0


class TestCliInterface:
    def test_twin_check_exit_zero(self, tmp_path, capsys):
        rc = main(["sphere-twin-check", "--out", str(tmp_path / "t"),
                   "--n-seeds", "2", "--t-max", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_deviation"] < 1e-9

    def test_error_is_machine_readable(self, tmp_path, capsys):
        rc = main(["chain-run", "--out", str(tmp_path / "x"),
                   "--topology", str(tmp_path / "missing.edges")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "FileNotFoundError"

    def test_disconnected_topology_rejected(self, tmp_path, capsys):
        edges = tmp_path / "disc.edges"
        edges.write_text("1 2 1.0\n3 4 1.0\n")
        rc = main(["grid-run", "--out", str(tmp_path / "y"),
                   "--topology", str(edges)])
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"

    def test_chain_run_via_cli(self, tmp_path, capsys):
        rc = main(["chain-run", "--out", str(tmp_path / "c"), "--seed", "3",
                   "--t-max", "20"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["settling_metric"] == "V"

    def test_qcme_compare_small(self, tmp_path, capsys):
        rc = main(["qcme-compare", "--out", str(tmp_path / "q"),
                   "--n-seeds", "1", "--t-max", "8"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["medians"]) == {"chain_eq", "chain_geo", "chain_qcme",
                                       "full_geo", "full_qcme"}
        assert (tmp_path / "q" / "qcme_compare_chain.csv").exists()
        assert (tmp_path / "q" / "qcme_compare_full.csv").exists()

    def test_qcme_compare_unsettled_writes_null(self, tmp_path, capsys):
        out = tmp_path / "q"
        assert main(["qcme-compare", "--out", str(out), "--n-seeds", "1",
                     "--t-max", "0.1"]) == 0
        for text in (capsys.readouterr().out, (out / "summary.json").read_text()):
            doc = finite_json(text)
            assert set(doc["medians"]) == set(doc["settling"])
            for k, times in doc["settling"].items():
                assert times == [None]
                assert doc["medians"][k] is None

    def test_qcme_compare_coarse_step_writes_finite_json(self, tmp_path, capsys):
        # the QCME baseline samples its exact flow, so a coarse dt only
        # thins the samples and cannot make the run unstable
        out = tmp_path / "q"
        assert main(["qcme-compare", "--out", str(out), "--n-seeds", "1",
                     "--dt", "1", "--t-max", "10"]) == 0
        for text in (capsys.readouterr().out, (out / "summary.json").read_text()):
            doc = finite_json(text)
            assert set(doc["settling"]) == {"chain_eq", "chain_geo", "chain_qcme",
                                            "full_geo", "full_qcme"}

    def test_qcme_compare_median_counts_unsettled_as_late(self, tmp_path, monkeypatch):
        times = {"chain_eq": [1.0, 2.0, math.inf], "chain_geo": [1.0, math.inf, math.inf],
                 "chain_qcme": [3.0, 1.0, 2.0], "full_geo": [math.inf] * 3,
                 "full_qcme": [1.0, 1.0, 1.0]}
        series = (np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        cells = [{"series": {k: series for k in times},
                  "settling": {k: v[b] for k, v in times.items()}} for b in range(3)]
        monkeypatch.setattr(experiments, "qcme_compare_cells", lambda *a: cells)
        summary = experiments.run_qcme_compare(str(tmp_path / "q"), n_seeds=3)
        assert summary["medians"] == {"chain_eq": 2.0, "chain_geo": None,
                                      "chain_qcme": 2.0, "full_geo": None,
                                      "full_qcme": 1.0}
        assert summary["settling"]["chain_eq"] == [1.0, 2.0, None]
        assert cells[0]["settling"]["full_geo"] == math.inf  # cells keep inf

    def test_coherence_protect_deterministic_bytes(self, tmp_path):
        args = lambda d: ["coherence-protect", "--out", str(d), "--n-traj",
                          "3", "--t-max", "0.02", "--seed", "9"]
        assert main(args(tmp_path / "a")) == 0
        assert main(args(tmp_path / "b")) == 0
        a = (tmp_path / "a" / "coherence_protect.csv").read_bytes()
        b = (tmp_path / "b" / "coherence_protect.csv").read_bytes()
        assert a == b

    def test_coherence_protect_before_half_writes_null(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["coherence-protect", "--out", str(out), "--n-traj", "3",
                     "--t-max", "0.02"]) == 0

        def no_constants(name):
            raise AssertionError(f"{name} written to JSON")

        for text in (capsys.readouterr().out, (out / "summary.json").read_text()):
            doc = json.loads(text, parse_constant=no_constants)
            for key in ("cxy_fb_at_half", "cxy_nofb_at_half", "pooled_se_at_half"):
                assert doc[key] is None
        rows = np.loadtxt(out / "coherence_protect.csv", delimiter=",", skiprows=1)
        assert np.isfinite(rows).all()


class TestTopologyFile:
    def _run(self, tmp_path, capsys, name, argv) -> dict:
        """main on argv with --out tmp_path/name; stdout and every file's bytes."""
        out = tmp_path / name
        assert main([argv[0], "--out", str(out), *argv[1:]]) == 0
        return {"stdout": capsys.readouterr().out.replace(str(out), "OUT"),
                **{p.name: p.read_bytes() for p in out.iterdir()}}

    def test_weighted_chain_is_rejected(self, tmp_path, capsys):
        edges = tmp_path / "weighted.edges"
        edges.write_text("1 2 5.0\n2 3 0.25\n3 4 1\n4 5 1\n")
        out = tmp_path / "c"
        assert main(["chain-run", "--out", str(out), "--topology", str(edges),
                     "--t-max", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        doc = json.loads(captured.err)
        assert doc["type"] == "ValueError" and "unit edge weights" in doc["error"]
        assert not out.exists()

    def test_unit_chain_edge_list_gives_the_default_bytes(self, tmp_path, capsys):
        edges = tmp_path / "chain.edges"
        edges.write_text("1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
        argv = ["chain-run", "--t-max", "0.5", "--seed", "2"]
        default = self._run(tmp_path, capsys, "a", argv)
        listed = self._run(tmp_path, capsys, "b", [*argv, "--topology", str(edges)])
        assert set(listed) == set(default)
        for name in set(default) - {"manifest.json"}:
            assert listed[name] == default[name], name
        manifest = json.loads(listed["manifest.json"])
        assert manifest.pop("edges") == [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0], [4, 5, 1.0]]
        assert manifest == json.loads(default["manifest.json"])

    @pytest.mark.parametrize("sub", ["chain-run", "grid-run"])
    def test_default_topology_is_not_recorded(self, tmp_path, capsys, sub):
        files = self._run(tmp_path, capsys, "a", [sub, "--t-max", "0.1"])
        assert "edges" not in json.loads(files["manifest.json"])

    def test_topology_run_reruns_from_its_manifest(self, tmp_path, capsys):
        # a weighted 4-cycle, one edge given in reverse orientation
        edges = tmp_path / "cycle.edges"
        edges.write_text("1 2 0.5\n2 3 2.0\n3 4 1\n1 4 0.1\n")
        first = self._run(tmp_path, capsys, "a", [
            "grid-run", "--topology", str(edges), "--t-max", "1", "--seed", "3"])
        manifest = json.loads(first["manifest.json"])
        assert manifest["n_qubits"] == 4
        assert manifest["edges"] == [[1, 2, 0.5], [1, 4, 0.1], [2, 3, 2.0], [3, 4, 1.0]]
        rebuilt = tmp_path / "rebuilt.edges"
        argv, left = argv_from_manifest(manifest, rebuilt)
        assert left == DERIVED["grid-run"]
        np.testing.assert_array_equal(from_edge_list(rebuilt.read_text()).weights,
                                      from_edge_list(edges.read_text()).weights)
        again = self._run(tmp_path, capsys, "b", argv)
        assert again == first


# each run's argv and the files it writes
TINY_RUNS = [
    (["min-time-heatmap", "--resolution", "8", "--dt", "2e-2"],
     {"min_time_heatmap.csv", "manifest.json"}),
    (["chain-run", "--t-max", "0.5", "--seed", "4"],
     {"chain_run.csv", "summary.json", "manifest.json"}),
    (["grid-run", "--t-max", "0.5", "--seed", "4"],
     {"grid_run.csv", "summary.json", "manifest.json"}),
    (["scaling-sweep", "--chain-sizes", "3", "--grid-sides", "2", "--n-seeds", "3",
      "--dt", "2e-2", "--seed", "4"],
     {"scaling.csv", "medians.json", "manifest.json"}),
    (["qcme-compare", "--n-seeds", "2", "--dt", "2e-2", "--t-max", "2", "--seed", "4"],
     {"qcme_compare_chain.csv", "qcme_compare_full.csv", "summary.json",
      "manifest.json"}),
    (["coherence-protect", "--n-traj", "2", "--t-max", "0.02", "--seed", "4"],
     {"coherence_protect.csv", "summary.json", "manifest.json"}),
    (["sphere-twin-check", "--n-seeds", "2", "--t-max", "0.5", "--seed", "4"],
     {"twin_check.csv", "manifest.json"}),
]


@pytest.mark.parametrize("argv, names", TINY_RUNS, ids=[run[0][0] for run in TINY_RUNS])
def test_same_seed_same_bytes(tmp_path, capsys, argv, names):
    """A run writes exactly its expected files, and every file, and its
    stdout, repeat byte for byte. Both runs use one --out path, since a
    summary may record its CSV's path."""
    out = tmp_path / "run"

    def run_once() -> dict:
        shutil.rmtree(out, ignore_errors=True)
        assert main([argv[0], "--out", str(out), *argv[1:]]) == 0
        assert {p.name for p in out.iterdir()} == names
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        return {"stdout": capsys.readouterr().out, **files}

    first = run_once()
    assert run_once() == first


# manifest keys that set no option: constants each runner derives and records
DERIVED = {"min-time-heatmap": {"v_threshold"},
           "chain-run": {"gain", "protocol", "n_qubits"},
           "grid-run": {"gain", "protocol", "n_qubits"}}


def argv_from_manifest(manifest: dict, edges_path: Path) -> tuple[list[str], set[str]]:
    """The argv, without --out, that reruns a manifest, and the keys it
    leaves over. A key naming a runner parameter or a NoiseParams rate
    becomes its option, seed or master_seed becomes --seed, and edges
    becomes a --topology file written to edges_path."""
    left = dict(manifest)
    sub = left.pop("experiment")
    runner = (experiments.run_network_experiment if sub in ("chain-run", "grid-run")
              else getattr(experiments, "run_" + sub.replace("-", "_")))
    names = set(inspect.signature(runner).parameters) | set(vars(NoiseParams()))
    argv = [sub]
    if "edges" in left:
        edges_path.write_text("".join(f"{i} {j} {w!r}\n" for i, j, w in left.pop("edges")))
        argv += ["--topology", str(edges_path)]
    for key in sorted(left):
        if key == "seed" or key in names:  # names holds master_seed
            value = left.pop(key)
            flag = "--seed" if key.endswith("seed") else "--" + key.replace("_", "-")
            argv += [flag, *map(repr, value if isinstance(value, list) else [value])]
    return argv, set(left)


@pytest.mark.parametrize("argv, names", TINY_RUNS, ids=[run[0][0] for run in TINY_RUNS])
def test_manifest_reruns_its_run(tmp_path, capsys, argv, names):
    """The argv built from a run's manifest alone writes the same stdout
    and files, and every manifest key it does not map is a derived constant."""
    out = tmp_path / "run"

    def run(args) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        assert main([args[0], "--out", str(out), *args[1:]]) == 0
        return {"stdout": capsys.readouterr().out,
                **{p.name: p.read_bytes() for p in out.iterdir()}}

    first = run(argv)
    again, left = argv_from_manifest(json.loads(first["manifest.json"]),
                                     tmp_path / "run.edges")
    assert left == DERIVED.get(argv[0], set())
    assert run(again) == first


SUBCOMMANDS = [run[0][0] for run in TINY_RUNS]


class TestParsing:
    @pytest.mark.parametrize("argv, message", [
        (["chain-run", "--out", "{out}", "--dt", "abc"],
         "argument --dt: invalid float value: 'abc'"),
        (["scaling-sweep", "--out", "{out}", "--n-seeds", "x"],
         "argument --n-seeds: invalid int value: 'x'"),
        (["chain-run"], "the following arguments are required: --out"),
        (["ring-run", "--out", "{out}"], "argument experiment: invalid choice: 'ring-run'"),
        ([], "the following arguments are required: experiment"),
    ], ids=["bad-float", "bad-int", "no-out", "unknown-subcommand", "no-subcommand"])
    def test_parse_error_is_the_json_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main([a.format(out=out) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        doc = json.loads(captured.err)
        assert doc["type"] == "ArgumentError" and message in doc["error"]
        assert not out.exists()

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: qubitnet {sub}")

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_names_each_default(self, capsys, sub):
        """Every option but --out shows the default that applies when it is
        left out: its runner's keyword default, or NoiseParams' for a rate."""
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        options = capsys.readouterr().out.split("options:")[1]
        shown = {entry.split()[0]: " ".join(entry.split())
                 for entry in re.split(r"\n\s+(?=--)", options)[1:]}  # [0] is -h
        runner = (experiments.run_network_experiment if sub in ("chain-run", "grid-run")
                  else getattr(experiments, "run_" + sub.replace("-", "_")))
        params = inspect.signature(runner).parameters
        defaults = {name: params[name].default for name in params}
        defaults |= {f.name: f.default for f in dataclasses.fields(NoiseParams)}
        assert shown.pop("--out") == "--out OUT output directory" and shown
        for flag, entry in shown.items():
            name = "master_seed" if flag == "--seed" else flag[2:].replace("-", "_")
            assert entry.endswith(f"(default: {defaults[name]})"), entry

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_left_out_options_stay_out(self, sub):
        """The runner's default applies: the parser holds none of its own."""
        args = build_parser().parse_args([sub, "--out", "o"])
        assert vars(args) == {"experiment": sub, "out": "o"}

    def test_option_surface_is_pinned(self):
        """Each subcommand's options in order, with type and nargs: a runner
        parameter renamed or added fails here instead of becoming a flag."""
        out, seed, dt, t_max = ("--out", None, None), ("--seed", int, None), \
            ("--dt", float, None), ("--t-max", float, None)
        network = [out, seed, dt, t_max, ("--topology", None, None)]
        surface = {
            "min-time-heatmap": [out, ("--resolution", int, None), dt],
            "chain-run": network,
            "grid-run": network,
            "scaling-sweep": [out, seed, ("--chain-sizes", int, "+"),
                              ("--grid-sides", int, "+"), ("--n-seeds", int, None), dt],
            "qcme-compare": [out, seed, ("--n-seeds", int, None), ("--cap", float, None),
                             dt, t_max],
            "coherence-protect": [out, seed, ("--n-traj", int, None), dt, t_max,
                                  *((f"--{rate}", float, None) for rate in
                                    ("gamma-r", "gamma-phi", "gamma-z", "eta-z"))],
            "sphere-twin-check": [out, seed, ("--n-seeds", int, None), dt, t_max],
        }
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == list(surface)
        for sub, parser in subparsers.choices.items():
            options = [(a.option_strings[-1], a.type, a.nargs)
                       for a in parser._actions[1:]]  # [0] is -h
            assert options == surface[sub], sub


class TestInputValidation:
    def test_coherence_needs_two_trajectories(self, tmp_path, capsys):
        out = tmp_path / "coh"
        rc = main(["coherence-protect", "--out", str(out), "--n-traj", "1"])
        assert rc != 0
        assert json.loads(capsys.readouterr().err)["type"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("bad", [["--n-seeds", "0"], ["--cap", "nan"]])
    def test_qcme_compare_rejects_before_writing(self, tmp_path, capsys, bad):
        out = tmp_path / "q"
        rc = main(["qcme-compare", "--out", str(out), *bad])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["type"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["--gamma-r", "--gamma-phi", "--gamma-z"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_coherence_rejects_non_finite_rates(self, tmp_path, capsys, rate, value):
        out = tmp_path / "coh"
        rc = main(["coherence-protect", "--out", str(out), rate, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["type"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sphere-twin-check", "--n-seeds", "0"], "at least 1 seed"),
        (["chain-run", "--dt", "-1"], "dt must be positive"),
        (["grid-run", "--t-max", "nan"], "must be finite"),
        (["min-time-heatmap", "--dt", "0"], "dt must be positive"),
    ])
    def test_rejects_before_creating_output(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        rc = main([argv[0], "--out", str(out), *argv[1:]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["type"] == "ValueError" and message in doc["error"]
        assert not out.exists()

    @pytest.mark.parametrize("sizes, message", [
        (["--grid-sides", "1"], "grid sizes must be at least 2, got 1"),
        (["--chain-sizes", "5", "1", "--grid-sides", "2"],
         "chain sizes must be at least 2, got 1"),
    ])
    def test_scaling_sweep_checks_sizes_before_any_cell(self, tmp_path, capsys,
                                                         monkeypatch, sizes, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a sweep cell ran before the sizes were checked")

        monkeypatch.setattr(experiments, "simulate_network", no_run)
        out = tmp_path / "s"
        assert main(["scaling-sweep", "--out", str(out), *sizes]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc == {"error": message, "type": "ValueError"}
        assert not out.exists()

    def test_samples_that_cannot_fit_are_rejected_at_once(self, tmp_path, capsys):
        # 5e10 steps sampled every 5: rejected before the first step
        out = tmp_path / "c"
        t0 = time.perf_counter()
        rc = main(["chain-run", "--out", str(out), "--dt", "1e-9"])
        assert time.perf_counter() - t0 < 5.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["type"] == "ValueError" and "GiB of samples" in doc["error"]
        assert not out.exists()

    def test_coherence_protect_tiny_step_is_rejected_at_once(self, tmp_path, capsys,
                                                             monkeypatch):
        # 5e8 steps sampled every 50: rejected before any noise is drawn
        real_rng = np.random.default_rng

        class Guarded:
            """A generator that refuses large draws, so a regression fails
            here instead of asking for gigabytes."""

            def __init__(self, seed):
                self.rng = real_rng(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def normal(self, loc=0.0, scale=1.0, size=None):
                assert np.prod(size or 1) <= 10**6, f"a draw of {size}"
                return self.rng.normal(loc, scale, size)

        monkeypatch.setattr(np.random, "default_rng", Guarded)
        out = tmp_path / "coh"
        t0 = time.perf_counter()
        rc = main(["coherence-protect", "--out", str(out), "--dt", "1e-9"])
        assert time.perf_counter() - t0 < 5.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["type"] == "ValueError" and "GiB of samples" in doc["error"]
        assert not out.exists()

    def test_run_failing_after_its_ensemble_leaves_no_output(self, tmp_path, capsys,
                                                             monkeypatch):
        # the Lindblad reference runs after the SME ensemble; its failure
        # must not leave the ensemble's table behind
        def fail(*args, **kwargs):
            raise RuntimeError("no reference")

        monkeypatch.setattr(experiments, "simulate_lindblad", fail)
        out = tmp_path / "coh"
        assert main(["coherence-protect", "--out", str(out), "--n-traj", "2",
                     "--t-max", "0.02"]) == 1
        assert json.loads(capsys.readouterr().err)["type"] == "RuntimeError"
        assert not out.exists()

    @pytest.mark.parametrize("argv, edges", [
        (["chain-run", "--dt", "1e308", "--t-max", "1.7e308"], None),
        (["sphere-twin-check", "--n-seeds", "1", "--dt", "1e308", "--t-max", "1.7e308"],
         None),
        (["grid-run"], "1 2 1e200\n2 3 1.0\n"),
    ], ids=["chain-run", "sphere-twin-check", "grid-run"])
    def test_values_leaving_the_float_range_fail(self, tmp_path, capsys, argv, edges):
        # numbers past the float range fail the run instead of writing NaN
        if edges is not None:
            (tmp_path / "big.edges").write_text(edges)
            argv = argv + ["--topology", str(tmp_path / "big.edges")]
        out = tmp_path / "o"
        assert main([argv[0], "--out", str(out), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["type"] == "FloatingPointError"
        assert not out.exists()

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        edges = tmp_path / "disc.edges"
        edges.write_text("1 2 1.0\n3 4 1.0\n")
        out = tmp_path / "y"
        assert main(["grid-run", "--out", str(out), "--topology", str(edges)]) == 1
        assert json.loads(capsys.readouterr().err)["type"] == "ValueError"
        assert not out.exists()


class TestStartup:
    def test_scipy_stays_unloaded(self, tmp_path):
        """With scipy blocked, the CLI imports and runs experiments, and the
        open-hemisphere fallback decides members no trial direction settles."""
        script = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import qubitnet.cli
from qubitnet.dynamics import in_open_hemisphere
runs = [
    ["coherence-protect", "--n-traj", "2", "--dt", "1e-3", "--t-max", "0.05"],
    ["grid-run", "--t-max", "0.1"],
    ["qcme-compare", "--n-seeds", "1", "--dt", "1e-2", "--t-max", "0.5"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert qubitnet.cli.main([argv[0], "--out", sys.argv[1] + "/" + argv[0],
                                  *argv[1:]]) == 0
antipodal = [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.0, -1.0]]
assert in_open_hemisphere(antipodal) is False
# in an open hemisphere, but certified only by a triple normal
triple = [[0.04354210496756797, -0.9861555657875068, -0.1600040160787089],
          [0.8714105060934059, 0.4902245253956084, -0.01799012425429053],
          [-0.8773219041826708, -0.4622821152724274, 0.12884689495887341],
          [-0.9472048933541458, -0.2627727493200254, 0.18372090850188044]]
assert in_open_hemisphere(triple) is True
"""
        src = str(Path(qubitnet.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
