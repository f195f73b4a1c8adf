import math

import numpy as np
import pytest

from qubitnet import experiments
from qubitnet.core import density_from_bloch
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
    # both edge sets step as one batch; each equals its own topology's run
    for key, t in (("chain_geo", chain(3)), ("full_geo", complete(3))):
        trajs = simulate_network(kets, t, "geometry", cfg, gain=2.0)
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
