import numpy as np

from qubitnet import experiments
from qubitnet.core import density_from_bloch
from qubitnet.dynamics import IntegratorConfig, simulate_network
from qubitnet.metrics import quantum_average
from qubitnet.topology import complete


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
