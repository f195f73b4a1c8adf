import math

import numpy as np
import pytest

from qubitnet import dynamics
from qubitnet.core import bloch_from_ket, ket_from_bloch
from qubitnet.dynamics import (
    IntegratorConfig,
    Trajectory,
    in_open_hemisphere,
    meeting_time,
    simulate_network,
    simulate_qcme,
    simulate_sphere,
    step_ket,
    topology_hash,
)
from qubitnet.metrics import quantum_average
from qubitnet.protocols import chain_axes, geometry_axes
from qubitnet.topology import chain, complete, grid

RNG = np.random.default_rng(11)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def sphere_kets(rng, n):
    return np.array([ket_from_bloch(random_unit(rng)) for _ in range(n)])


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-3, t_max=1e-4)
        with pytest.raises(ValueError):
            IntegratorConfig(sample_every=0)

    @pytest.mark.parametrize("kw", [{"dt": math.nan}, {"dt": math.inf},
                                    {"t_max": math.inf}, {"t_max": math.nan}])
    def test_rejects_non_finite(self, kw):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**kw)


class TestStepKet:
    def test_norm_preserved_over_many_steps(self):
        psi = sphere_kets(RNG, 1)[0]
        for _ in range(1000):
            psi = step_ket(psi, RNG.normal(size=3), 1e-2)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_z_axis_rotation(self):
        # H = z.sigma turns the Bloch vector about z at rate 2
        psi = ket_from_bloch([1, 0, 0])
        psi = step_ket(psi, [0, 0, 1], math.pi / 4)
        np.testing.assert_allclose(bloch_from_ket(psi), [0, 1, 0], atol=1e-12)


class TestHemisphere:
    def test_north_cluster(self):
        u = np.array([[0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8]])
        assert in_open_hemisphere(u)

    def test_antipodal_pair(self):
        u = np.array([[0, 0, 1], [0, 0, -1.0]])
        assert not in_open_hemisphere(u)

    def test_equatorial_triangle(self):
        ang = 2 * math.pi / 3
        u = np.array(
            [[math.cos(k * ang), math.sin(k * ang), 0.0] for k in range(3)]
        )
        assert not in_open_hemisphere(u)

    def test_random_open_cap(self):
        for _ in range(20):
            c = random_unit()
            pts = []
            while len(pts) < 6:
                v = random_unit()
                if v @ c > 0.2:
                    pts.append(v)
            assert in_open_hemisphere(np.array(pts))


class TestSimulateNetwork:
    def test_chain_requires_chain_topology(self):
        kets = sphere_kets(RNG, 3)
        cfg = IntegratorConfig(t_max=0.1)
        with pytest.raises(ValueError):
            simulate_network(kets, complete(3), "chain", cfg)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            simulate_network(sphere_kets(RNG, 2), chain(2), "bogus",
                             IntegratorConfig(t_max=0.1))

    def test_chain_v_decreases_to_zero(self):
        rng = np.random.default_rng(21)
        kets = sphere_kets(rng, 5)
        cfg = IntegratorConfig(dt=1e-3, t_max=50.0, sample_every=10,
                               stop_threshold=1e-10)
        traj = simulate_network(kets, chain(5), "chain", cfg)
        v = traj.metrics["V"]
        assert np.all(np.diff(v) <= 1e-8)
        assert v[-1] < 1e-10

    def test_chain_unitarity_drift(self):
        rng = np.random.default_rng(22)
        kets = sphere_kets(rng, 4)
        cfg = IntegratorConfig(dt=1e-3, t_max=5.0, sample_every=100)
        traj = simulate_network(kets, chain(4), "chain", cfg)
        norms = np.linalg.norm(traj.samples, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_geometry_warns_outside_hemisphere(self):
        kets = np.array([ket_from_bloch([0, 0, 1]), ket_from_bloch([1, 0, 0]),
                         ket_from_bloch([0, 0, -1])])
        with pytest.warns(UserWarning, match="hemisphere"):
            simulate_network(kets, complete(3), "geometry",
                             IntegratorConfig(t_max=0.01))

    def test_min_time_two_qubits_only(self):
        with pytest.raises(ValueError):
            simulate_network(sphere_kets(RNG, 3), chain(3), "min-time",
                             IntegratorConfig(t_max=0.1))

    def test_step_halving_settling_stability(self):
        # halving dt moves the V-threshold settling time by well under 1%
        rng = np.random.default_rng(23)
        kets = sphere_kets(rng, 5)
        times = []
        for dt in (2e-3, 1e-3):
            cfg = IntegratorConfig(dt=dt, t_max=50.0, stop_threshold=1e-2)
            traj = simulate_network(kets, chain(5), "chain", cfg)
            times.append(traj.sample_times[-1])
        assert abs(times[0] - times[1]) / times[1] < 0.01


class TestTwinAgreement:
    def test_quantum_matches_sphere_ode(self):
        rng = np.random.default_rng(31)
        pts = np.array([random_unit(rng) for _ in range(9)])
        pts[:, 2] = np.abs(pts[:, 2])
        kets = np.array([ket_from_bloch(u) for u in pts])
        cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_every=10)
        tq = simulate_network(kets, grid(3), "geometry", cfg)
        tc = simulate_sphere(pts, grid(3), cfg)
        assert np.max(np.abs(tq.bloch() - tc.samples)) < 1e-9


def _assert_same_run(batched, single):
    assert batched.sample_times.shape == single.sample_times.shape
    np.testing.assert_allclose(batched.sample_times, single.sample_times,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(batched.samples, single.samples, rtol=0, atol=1e-12)
    assert batched.metrics.keys() == single.metrics.keys()
    for name in single.metrics:
        np.testing.assert_allclose(batched.metrics[name], single.metrics[name],
                                   rtol=0, atol=1e-12)


def _mixed_batch(rng, n, settled_tol):
    """Unit vectors of three networks: already agreeing, nearly agreeing
    (stops within the run) and spread over a hemisphere (never stops)."""
    c = np.array([0.0, 0.0, 1.0])
    near = c + settled_tol * rng.normal(size=(n, 3))
    spread = rng.normal(size=(n, 3))
    spread[:, 2] = np.abs(spread[:, 2])
    pts = np.array([np.tile(c, (n, 1)), near, spread])
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


class TestBatch:
    """A (B, N, .) batch gives each member exactly its one-member run."""

    def _check(self, run, pts):
        trajs = run(pts)
        assert isinstance(trajs, list) and len(trajs) == len(pts)
        for member, traj in zip(pts, trajs):
            _assert_same_run(traj, run(member))
        n_full = trajs[2].sample_times.size
        # settled at t = 0: stops at the first test, one step later
        assert trajs[0].sample_times.size == 2
        assert 2 < trajs[1].sample_times.size < n_full
        return trajs, n_full

    def test_chain_stops_on_v(self):
        rng = np.random.default_rng(61)
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0, sample_every=2,
                               stop_threshold=0.1)
        pts = _mixed_batch(rng, 4, 1e-2)
        kets = np.array([[ket_from_bloch(u) for u in p] for p in pts])
        trajs, n_full = self._check(
            lambda k: simulate_network(k, chain(4), "chain", cfg), kets)
        assert n_full == 51
        assert trajs[2].metrics["V"][-1] > 0.1

    def test_geometry_stops_on_pure_state_error(self):
        rng = np.random.default_rng(61)
        cfg = IntegratorConfig(dt=1e-2, t_max=0.5, sample_every=5,
                               stop_threshold=1e-2,
                               stop_metric="pure_state_error")
        pts = _mixed_batch(rng, 4, 1e-2)
        kets = np.array([[ket_from_bloch(u) for u in p] for p in pts])
        trajs, n_full = self._check(
            lambda k: simulate_network(k, grid(2), "geometry", cfg, gain=2.0),
            kets)
        assert trajs[2].metrics["pure_state_error"][-1] > 1e-2

    def test_sphere_stops_on_max_angle(self):
        rng = np.random.default_rng(61)
        cfg = IntegratorConfig(dt=1e-2, t_max=0.5, sample_every=5,
                               stop_threshold=2e-2, stop_metric="max_angle")
        pts = _mixed_batch(rng, 4, 1e-2)
        trajs, n_full = self._check(
            lambda x: simulate_sphere(x, grid(2), cfg), pts)
        assert trajs[2].metrics["max_angle"][-1] > 2e-2

    def test_min_time_members_keep_their_axes(self):
        rng = np.random.default_rng(64)
        pts = rng.normal(size=(3, 2, 3))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        kets = np.array([[ket_from_bloch(u) for u in p] for p in pts])
        cfg = IntegratorConfig(dt=1e-2, t_max=0.3)
        trajs = simulate_network(kets, chain(2), "min-time", cfg)
        for member, traj in zip(kets, trajs):
            _assert_same_run(traj, simulate_network(member, chain(2),
                                                    "min-time", cfg))

    def test_hemisphere_warning_names_member(self):
        inside = np.array([[0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8]])
        outside = np.array([[0, 0, 1], [1, 0, 0], [0, 0, -1.0]])
        kets = np.array([[ket_from_bloch(u) for u in p]
                         for p in (inside, outside)])
        with pytest.warns(UserWarning, match=r"members \[1\]"):
            simulate_network(kets, complete(3), "geometry",
                             IntegratorConfig(t_max=0.01))

    @pytest.mark.parametrize("seed, size, n",
                             [(0, 1, 2), (1, 1, 5), (2, 2, 2), (3, 3, 4), (4, 4, 6)])
    def test_kernels_match_per_member_calls(self, seed, size, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(size, n, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        kets = np.array([[ket_from_bloch(u) for u in p] for p in x])
        axes = rng.normal(size=(size, n, 3))
        t = chain(n)
        batched = {
            "chain_axes": chain_axes(kets),
            "geometry_axes": geometry_axes(x, t),
            "step": dynamics._step_kets(kets, axes, 0.1),
            "rotate": dynamics._rotate_vectors(x, axes, 0.1),
            "V": dynamics._consecutive_v(kets),
            "error": dynamics._pairwise_error(x),
            "angle": dynamics._max_pairwise_angle(x),
        }
        for b in range(size):
            single = {
                "chain_axes": chain_axes(kets[b]),
                "geometry_axes": geometry_axes(x[b], t),
                "step": dynamics._step_kets(kets[b], axes[b], 0.1),
                "rotate": dynamics._rotate_vectors(x[b], axes[b], 0.1),
                "V": dynamics._consecutive_v(kets[b]),
                "error": dynamics._pairwise_error(x[b]),
                "angle": dynamics._max_pairwise_angle(x[b]),
            }
            for name, value in single.items():
                np.testing.assert_allclose(batched[name][b], value,
                                           rtol=0, atol=1e-12, err_msg=name)


class TestStopMetric:
    def test_unknown_metric_rejected_before_stepping(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped before validating stop_metric")

        monkeypatch.setattr(dynamics, "_step_kets", no_step)
        kets = np.array([ket_from_bloch(u) for u in
                         ([0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8], [0.6, 0, 0.8])])
        cfg = IntegratorConfig(t_max=0.1, stop_threshold=1e-2, stop_metric="W_max")
        with pytest.raises(ValueError, match="pure_state_error"):
            simulate_network(kets, grid(2), "geometry", cfg)

    def test_sphere_rejects_network_metric(self):
        x = np.array([[0, 0, 1.0], [0.6, 0, 0.8]])
        cfg = IntegratorConfig(t_max=0.1, stop_threshold=1e-2)  # metric "V"
        with pytest.raises(ValueError, match="max_angle"):
            simulate_sphere(x, chain(2), cfg)

    def test_sphere_honours_stop_metric(self):
        # |u_i - u_j| / sqrt(2) falls below the threshold before the
        # angle does, so a pure_state_error stop ends the run earlier
        x = np.array([[0, 0, 1.0], [0.6, 0, 0.8]])
        runs = {}
        for metric in ("pure_state_error", "max_angle"):
            cfg = IntegratorConfig(dt=1e-2, t_max=20.0, stop_threshold=1e-2,
                                   stop_metric=metric)
            traj = simulate_sphere(x, chain(2), cfg)
            series = traj.metrics[metric]
            assert series[-1] < 1e-2 <= series[-2]
            runs[metric] = traj.sample_times[-1]
        assert runs["pure_state_error"] < runs["max_angle"]


class TestSimulateQcme:
    def test_distance_decreases(self):
        rng = np.random.default_rng(41)
        pts = np.array([random_unit(rng) for _ in range(3)])
        rho = np.array([[1.0]])
        for u in pts:
            rho = np.kron(rho, 0.5 * (np.eye(2) + u[0] * np.array([[0, 1], [1, 0]])
                                      + u[1] * np.array([[0, -1j], [1j, 0]])
                                      + u[2] * np.diag([1.0, -1.0])))
        cfg = IntegratorConfig(dt=1e-3, t_max=5.0, sample_every=50)
        traj = simulate_qcme(rho, chain(3), cfg)
        d = traj.metrics["composite_distance"]
        assert d[-1] < 0.1 * d[0]

    def test_symmetrization_is_conserved(self):
        # the permutation average of the state is a constant of motion
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        cfg = IntegratorConfig(dt=1e-3, t_max=1.0, sample_every=1000)
        avg0 = quantum_average(rho)

        from qubitnet.protocols import qcme_generator

        gen = qcme_generator(chain(2))
        r = rho.copy()
        for _ in range(1000):
            k1 = gen(r)
            k2 = gen(r + 5e-4 * k1)
            k3 = gen(r + 5e-4 * k2)
            k4 = gen(r + 1e-3 * k3)
            r = r + (1e-3 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(quantum_average(r), avg0, atol=1e-9)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            simulate_qcme(np.eye(4), chain(2), IntegratorConfig(t_max=0.1))

    @staticmethod
    def _product(points):
        rho = np.array([[1.0]])
        for u in points:
            rho = np.kron(rho, 0.5 * (np.eye(2) + u[0] * np.array([[0, 1], [1, 0]])
                                      + u[1] * np.array([[0, -1j], [1j, 0]])
                                      + u[2] * np.diag([1.0, -1.0])))
        return rho

    def _members(self):
        # a symmetric state, a narrow spread and a wide one
        rng = np.random.default_rng(5)
        u = random_unit(rng)
        near = np.array([u, u + 0.2 * random_unit(rng), u])
        near /= np.linalg.norm(near, axis=1)[:, None]
        wide = np.array([random_unit(rng) for _ in range(3)])
        return np.array([self._product(p) for p in ([u, u, u], near, wide)])

    def test_batch_members_equal_one_member_runs(self):
        rho = self._members()
        cfg = IntegratorConfig(dt=1e-2, t_max=3.0, sample_every=10,
                               stop_threshold=1e-2, stop_metric="composite_distance")
        runs = simulate_qcme(rho, chain(3), cfg)
        assert len(runs) == 3
        for run, member in zip(runs, rho):
            one = simulate_qcme(member, chain(3), cfg)
            assert run.samples is None and one.samples is None
            np.testing.assert_array_equal(run.sample_times, one.sample_times)
            np.testing.assert_array_equal(run.metrics["composite_distance"],
                                          one.metrics["composite_distance"])
        stops = [len(r.sample_times) - 1 for r in runs]
        # the symmetric member stops at the first sample after a step, the
        # narrow spread part way, and the wide spread runs to t_max
        assert stops[0] == 1
        assert 1 < stops[1] < stops[2]
        assert runs[2].sample_times[-1] == pytest.approx(3.0)
        assert runs[2].metrics["composite_distance"][-1] >= 1e-2
        d = runs[1].metrics["composite_distance"]
        assert d[-1] < 1e-2 <= d[-2]

    def test_stop_metric_must_be_the_distance(self):
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0, stop_threshold=1e-2)
        with pytest.raises(ValueError, match="composite_distance"):
            simulate_qcme(self._members()[1], chain(3), cfg)

    def test_positivity_guard_names_the_member(self):
        # RK4 at dt = 1 leaves its stability region on the complete-graph
        # generator; the symmetric member is a fixed point and stays valid
        rho = self._members()[[0, 2]]
        with pytest.raises(RuntimeError, match="batch member 1;"):
            simulate_qcme(rho, complete(3), IntegratorConfig(dt=1.0, t_max=10.0))

    def test_rejects_a_bad_batch_member(self):
        rho = self._members()
        rho[2] *= 1.5
        with pytest.raises(ValueError, match="unit trace"):
            simulate_qcme(rho, chain(3), IntegratorConfig(t_max=0.1))


class TestMeetingTime:
    def test_interpolated_crossing(self):
        # two vectors closing at unit angular rate: angle(t) = 1 - t
        ts = np.arange(0.0, 0.95, 0.05)
        u = np.zeros((ts.size, 2, 3))
        u[:, 0] = [0, 0, 1]
        ang = 1.0 - ts
        u[:, 1, 0] = np.sin(ang)
        u[:, 1, 2] = np.cos(ang)
        traj = Trajectory(sample_times=ts, samples=u)
        got = meeting_time(traj, angle_tol=0.5)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_vertex_between_samples(self):
        # v-shaped dip touching ~2e-7 off-grid; tolerance 1e-6 requires
        # resolving the vertex from the secants
        ts = np.arange(0.0, 2.0, 0.05)
        ang = np.abs(ts - 1.013) + 2e-7
        u = np.zeros((ts.size, 2, 3))
        u[:, 0] = [0, 0, 1]
        u[:, 1, 0] = np.sin(ang)
        u[:, 1, 2] = np.cos(ang)
        traj = Trajectory(sample_times=ts, samples=u)
        got = meeting_time(traj, angle_tol=1e-6)
        assert got == pytest.approx(1.013, abs=1e-6)

    def test_no_meeting(self):
        ts = np.arange(0.0, 1.0, 0.1)
        u = np.zeros((ts.size, 2, 3))
        u[:, 0] = [0, 0, 1]
        u[:, 1] = [1, 0, 0]
        traj = Trajectory(sample_times=ts, samples=u)
        assert meeting_time(traj, angle_tol=1e-3) is None


class TestTrajectoryCsv:
    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(51)
        kets = sphere_kets(rng, 3)
        cfg = IntegratorConfig(dt=1e-3, t_max=0.2, sample_every=10)
        paths = []
        for name in ("a.csv", "b.csv"):
            traj = simulate_network(kets.copy(), chain(3), "chain", cfg)
            p = tmp_path / name
            traj.to_csv(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
        header = paths[0].split(b"\n", 1)[0].decode()
        assert header.startswith("time,q1_x,q1_y,q1_z")

    def test_topology_hash_distinguishes(self):
        assert topology_hash(chain(3)) != topology_hash(complete(3))
        assert topology_hash(chain(3)) == topology_hash(chain(3))
