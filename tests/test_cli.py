import json
import math

import numpy as np
import pytest

from qubitnet import experiments
from qubitnet.cli import main


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
        s = experiments.run_network_experiment("chain-run", str(out), seed=1)
        assert s["settling_time"] is not None
        assert s["final_pure_state_error"] < 1e-2
        assert (out / "chain_run.csv").exists()
        assert (out / "summary.json").exists()

    def test_grid_run_summary(self, tmp_path):
        out = tmp_path / "grid"
        s = experiments.run_network_experiment("grid-run", str(out), seed=1)
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
        a = experiments.scaling_cell("chain", 5, seed=2, master_seed=7)
        _ = experiments.scaling_cell("grid", 3, seed=0, master_seed=7)
        b = experiments.scaling_cell("chain", 5, seed=2, master_seed=7)
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
        t2 = experiments.scaling_cell("chain", 2, seed=0, master_seed=0)
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
