import functools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from qubitnet import experiments
from qubitnet.core import density_from_bloch, ket_from_bloch
from qubitnet.dynamics import IntegratorConfig, simulate_network
from qubitnet.metrics import quantum_average
from qubitnet.topology import chain, complete


def _cap_points_loop(rng, n, alpha):
    """cap_points as a standalone rejection loop: the reference draw order."""
    c = rng.normal(size=3)
    c /= np.linalg.norm(c)
    out = []
    while len(out) < n:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if math.acos(min(1.0, max(-1.0, float(v @ c)))) < alpha:
            out.append(v)
    return np.array(out)


def _protected_pair_loop(rng):
    """coherence-protect's initial pair as a standalone rejection loop."""
    pts = []
    while len(pts) < 2:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if math.hypot(v[0], v[1]) > 0.3:
            pts.append(v)
    return np.array(pts)


@pytest.mark.parametrize("alpha", [0.1, 0.8, 2.0, math.pi])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_cap_points_equals_its_rejection_loop(seed, alpha):
    rng, oracle_rng = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
    got = experiments.cap_points(rng, 5, alpha)
    np.testing.assert_array_equal(got, _cap_points_loop(oracle_rng, 5, alpha))
    # both consumed the same draws, rejected ones included
    assert rng.normal() == oracle_rng.normal()


@pytest.mark.parametrize("seed", range(6))
def test_accepted_points_equals_the_protected_pair_loop(seed):
    rng, oracle_rng = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
    got = experiments.accepted_points(rng, 2, lambda v: math.hypot(v[0], v[1]) > 0.3)
    np.testing.assert_array_equal(got, _protected_pair_loop(oracle_rng))
    assert rng.normal() == oracle_rng.normal()


def test_qcme_compare_cells_equal_one_seed_cells():
    seeds = [0, 5, 6]
    kwargs = dict(master_seed=1, dt=2e-2, t_max=5.0)
    cells = experiments.qcme_compare_cells(seeds, **kwargs)
    assert len(cells) == len(seeds)
    for seed, cell in zip(seeds, cells):
        (one,) = experiments.qcme_compare_cells([seed], **kwargs)
        assert cell["settling"] == one["settling"]
        assert list(cell["series"]) == list(one["series"])
        for key, (ts, ds) in one["series"].items():
            np.testing.assert_array_equal(cell["series"][key][0], ts)
            np.testing.assert_array_equal(cell["series"][key][1], ds)
    # the QCME members of a batch stop at different samples, and one
    # seed's chain protocol does not settle by t_max
    assert len({len(c["series"]["full_qcme"][0]) for c in cells}) > 1
    assert any(c["settling"]["chain_eq"] == float("inf") for c in cells)


def test_qcme_compare_geometry_batch_equals_per_topology_runs():
    seeds = [0, 5, 6]
    kwargs = dict(dt=8e-3, t_max=20.0)
    cells = experiments.qcme_compare_cells(seeds, 0, **kwargs)
    kets = np.array([experiments.kets_from_points(experiments.cap_points(
        np.random.default_rng([0, 2, s]), 3, experiments.QCME_CAP_ANGLE))
        for s in seeds])
    cfg = IntegratorConfig(sample_every=20, **kwargs)
    # the chain protocol and the geometric one on both edge sets step as
    # one batch; each equals its own one-protocol, one-topology run
    for key, t, protocol, gain in (("chain_eq", chain(3), "chain", 1.0),
                                   ("chain_geo", chain(3), "geometry", 2.0),
                                   ("full_geo", complete(3), "geometry", 2.0)):
        trajs = simulate_network(kets, t, protocol, cfg, gain=gain)
        for cell, traj in zip(cells, trajs, strict=True):
            ts, ds = cell["series"][key]
            np.testing.assert_array_equal(ts, traj.sample_times)
            np.testing.assert_array_equal(
                ds, experiments.symmetric_distance_series(traj))


def test_symmetric_distance_series_equals_per_sample_loop():
    rng = np.random.default_rng(8)
    points = experiments.cap_points(rng, 3, 1.0)
    cfg = IntegratorConfig(dt=2e-2, t_max=2.0, sample_every=5)
    traj = simulate_network(experiments.kets_from_points(points), complete(3),
                            "geometry", cfg, gain=2.0)
    expect = []
    for u in traj.bloch():
        rho = density_from_bloch(u[0])
        for v in u[1:]:
            rho = np.kron(rho, density_from_bloch(v))
        expect.append(np.linalg.norm(rho - quantum_average(rho), 2))
    got = experiments.symmetric_distance_series(traj)
    assert got.shape == (len(traj.sample_times),)
    np.testing.assert_array_equal(got, expect)
    assert got[-1] < 0.1 * got[0]


# run_calls: module-level functions, so that their partials pickle


def _pid_after(delay, value):
    time.sleep(delay)
    return value, os.getpid()


def _warn(message, category):
    warnings.warn(message, category)
    return message


def _overflow():
    return np.float64(1e308) * 10.0


@pytest.fixture
def two_cores(monkeypatch):
    """An affinity mask of two cores, whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_run_calls_returns_results_in_call_order(two_cores):
    # the first call finishes last, so completion order is not call order
    calls = [functools.partial(_pid_after, delay, value)
             for delay, value in ((0.3, "a"), (0.0, "b"), (0.0, "c"))]
    got = experiments.run_calls(calls)
    assert [value for value, _ in got] == ["a", "b", "c"]
    assert os.getpid() not in {pid for _, pid in got}
    assert multiprocessing.active_children() == []


def test_run_calls_equals_the_serial_path(two_cores):
    calls = [functools.partial(experiments.scaling_cells, kind, size, range(3), 4, 2e-2)
             for kind, size in (("grid", 3), ("chain", 4), ("chain", 3))]
    assert experiments.run_calls(calls) == [call() for call in calls]


@pytest.mark.parametrize("failing, error, message", [
    (functools.partial(experiments.scaling_cells, "ring", 3, [0], 0), ValueError,
     "unknown scaling kind 'ring'"),
    (_overflow, FloatingPointError, "overflow"),
], ids=["ValueError", "FloatingPointError"])
def test_run_calls_raises_a_worker_error_here(two_cores, failing, error, message):
    # forked workers inherit the CLI's errstate
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(error, match=message):
            experiments.run_calls([functools.partial(_pid_after, 0.0, "ok"), failing])
    assert multiprocessing.active_children() == []


def test_run_calls_reissues_worker_warnings_in_call_order(two_cores):
    # one real warning: starts holding an antipodal pair
    kets = np.array([ket_from_bloch(u) for u in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                                                  [1.0, 0.0, 0.0])])
    calls = [functools.partial(_pid_after, 0.2, "late"),
             functools.partial(_warn, "first", UserWarning),
             functools.partial(simulate_network, kets, chain(3), "geometry",
                               IntegratorConfig(dt=1e-2, t_max=0.02)),
             functools.partial(_warn, "last", DeprecationWarning)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = experiments.run_calls(calls)
    assert results[1] == "first" and results[3] == "last"
    assert [w.category for w in caught] == [UserWarning, UserWarning, DeprecationWarning]
    assert str(caught[0].message) == "first" and str(caught[2].message) == "last"
    assert "not strictly inside an open hemisphere" in str(caught[1].message)


def test_run_calls_on_one_core_starts_no_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    got = experiments.run_calls([functools.partial(_pid_after, 0.0, v) for v in "ab"])
    assert got == [("a", os.getpid()), ("b", os.getpid())]
    assert multiprocessing.active_children() == []


def _running(pid):
    """Whether pid is a live process (a zombie has ended)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_end_when_their_parent_is_killed(tmp_path):
    # a parent killed mid-run leaves no worker blocked on its queue
    script = """
import functools, os, sys, time
from qubitnet import experiments
os.sched_getaffinity = lambda pid: {0, 1}
def nap(path):
    with open(path, "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(60)
experiments.run_calls([functools.partial(nap, f"{sys.argv[1]}/{i}") for i in range(2)])
"""
    src = str(Path(experiments.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                            env=dict(os.environ, PYTHONPATH=src))
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = [int(t) for t in (p.read_text() for p in tmp_path.iterdir()) if t]
        assert len(pids) == 2
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
