import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitnet import dynamics
from qubitnet.core import density_from_bloch, ket_from_angles, ket_from_bloch
from qubitnet.decoherence import _coherence
from qubitnet.dynamics import IntegratorConfig, Trajectory, simulate_network, simulate_qcme
from qubitnet.experiments import symmetric_distance_series
from qubitnet.metrics import (
    SettlingSpec,
    lyapunov_decay_terms,
    quantum_average,
    settling_time,
)
from qubitnet.topology import chain, complete

RNG = np.random.default_rng(13)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_kets(n, rng=RNG):
    return np.array([ket_from_bloch(random_unit(rng)) for _ in range(n)])


class TestLyapunov:
    """V is the "V" series of a network run, computed by dynamics._consecutive_v."""

    def test_aligned_chain_is_zero(self):
        psi = ket_from_bloch(random_unit())
        states = np.array([psi] * 4)
        assert dynamics._consecutive_v(states) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair_value(self):
        # Re<psi1|psi2> = cos(pi/4) for antipodal-on-equator half-angle kets
        a = ket_from_angles(0.0, 0.0)
        b = ket_from_angles(math.pi / 2, 0.0)
        states = np.array([a, b])
        expect = 1.0 - math.cos(math.pi / 4)
        assert dynamics._consecutive_v(states) == pytest.approx(expect, abs=1e-12)

    def test_bounds(self):
        for _ in range(50):
            states = random_kets(5)
            v = dynamics._consecutive_v(states)
            assert 0.0 <= v <= 2.0 * 4 + 1e-12

    def test_decay_terms_nonpositive(self):
        for _ in range(30):
            w = lyapunov_decay_terms(random_kets(5))
            assert w.shape == (5,)
            assert np.all(w <= 1e-12)

    def test_decay_terms_batch_equals_member_calls(self):
        kets = np.array([random_kets(5) for _ in range(4)])
        w = lyapunov_decay_terms(kets)
        assert w.shape == (4, 5)
        assert np.all(w <= 0.0)
        for member, row in zip(kets, w):
            np.testing.assert_array_equal(lyapunov_decay_terms(member), row)

    def test_w_max_series_is_max_decay_term(self):
        cfg = IntegratorConfig(dt=1e-2, t_max=2.0, sample_every=5)
        traj = simulate_network(random_kets(5), chain(5), "chain", cfg)
        np.testing.assert_array_equal(traj.metrics["W_max"],
                                      lyapunov_decay_terms(traj.samples).max(-1))

    def test_decay_terms_match_finite_difference(self):
        # sum of W_i equals dV/dt along the closed-loop chain protocol
        rng = np.random.default_rng(5)
        kets = random_kets(4, rng)
        t = chain(4)
        dt = 1e-5
        cfg = IntegratorConfig(dt=dt, t_max=4 * dt, sample_every=1)
        traj = simulate_network(kets, t, "chain", cfg)
        v = traj.metrics["V"]
        dv_dt = (v[2] - v[0]) / (2 * dt)
        w = lyapunov_decay_terms(traj.samples[1])
        assert np.all(w <= 0.0)
        w_sum = w.sum()
        assert dv_dt == pytest.approx(w_sum, rel=1e-4, abs=1e-8)


def pure_state_error(kets):
    """The "pure_state_error" series value of a network run at kets."""
    return dynamics._pairwise_error(dynamics._bloch_batch(kets))


class TestPureStateError:
    def test_identical_states(self):
        psi = ket_from_bloch(random_unit())
        assert pure_state_error(np.array([psi] * 3)) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_pair(self):
        # |rho1 - rho2|_F = sqrt(2) for orthogonal pure states
        a = ket_from_bloch([0, 0, 1])
        b = ket_from_bloch([0, 0, -1])
        got = pure_state_error(np.array([a, b]))
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_matches_bloch_distance(self):
        for _ in range(30):
            us = [random_unit() for _ in range(4)]
            states = np.array([ket_from_bloch(u) for u in us])
            rhos = [np.outer(psi, psi.conj()) for psi in states]
            frobenius = max(np.linalg.norm(a - b, "fro")
                            for a, b in itertools.combinations(rhos, 2))
            bloch = max(np.linalg.norm(a - b) / math.sqrt(2.0)
                        for a, b in itertools.combinations(us, 2))
            assert pure_state_error(states) == pytest.approx(frobenius, abs=1e-12)
            assert pure_state_error(states) == pytest.approx(bloch, abs=1e-12)


class TestSettlingTime:
    def test_first_crossing(self):
        from qubitnet.dynamics import Trajectory

        traj = Trajectory(
            sample_times=np.array([0.0, 1.0, 2.0, 3.0]),
            samples=None,
            metrics={"V": np.array([1.0, 0.5, 0.009, 0.001])},
        )
        spec = SettlingSpec(threshold=1e-2, metric="V")
        assert settling_time(traj, spec) == pytest.approx(2.0)

    def test_never_settles(self):
        from qubitnet.dynamics import Trajectory

        traj = Trajectory(
            sample_times=np.array([0.0, 1.0]),
            samples=None,
            metrics={"V": np.array([1.0, 0.5])},
        )
        assert settling_time(traj, SettlingSpec(threshold=1e-2, metric="V")) is None

    def test_unknown_metric(self):
        from qubitnet.dynamics import Trajectory

        traj = Trajectory(
            sample_times=np.array([0.0]), samples=None, metrics={"V": np.array([1.0])}
        )
        with pytest.raises(ValueError):
            settling_time(traj, SettlingSpec(threshold=1e-2, metric="bogus"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SettlingSpec(threshold=0.0, metric="V")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_spec_rejects_bad_threshold(self, threshold):
        with pytest.raises(ValueError, match="finite and positive"):
            SettlingSpec(threshold=threshold, metric="V")

    def test_spec_sign_follows_the_metric(self):
        # W_max is never above 0, so a settling time on it takes a negative threshold
        assert SettlingSpec(-1e-2, "W_max").threshold == -1e-2
        with pytest.raises(ValueError, match="threshold of W_max must be finite and negative"):
            SettlingSpec(1e-2, "W_max")


class TestQuantumAverage:
    def _product(self, us):
        rho = np.array([[1.0]])
        for u in us:
            rho = np.kron(rho, density_from_bloch(u))
        return rho

    def test_trace_and_hermiticity(self):
        rho = self._product([random_unit() for _ in range(3)])
        avg = quantum_average(rho)
        assert np.trace(avg).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(avg, avg.conj().T, atol=1e-12)

    def test_commutes_with_every_swap(self):
        from qubitnet.protocols import _swap_permutation

        rho = self._product([random_unit() for _ in range(3)])
        avg = quantum_average(rho)
        for j, k in itertools.combinations(range(3), 2):
            perm = _swap_permutation(3, j, k)
            np.testing.assert_allclose(avg, avg[np.ix_(perm, perm)], atol=1e-12)

    def test_fixed_point_of_qcme(self):
        from qubitnet.protocols import qcme_generator

        rho = self._product([random_unit() for _ in range(3)])
        avg = quantum_average(rho)
        gen = qcme_generator(complete(3))
        np.testing.assert_allclose(gen(avg), 0.0, atol=1e-12)

    def test_symmetric_input_unchanged(self):
        u = random_unit()
        rho = self._product([u, u, u])
        np.testing.assert_allclose(quantum_average(rho), rho, atol=1e-12)

    def test_idempotent(self):
        rho = self._product([random_unit() for _ in range(3)])
        avg = quantum_average(rho)
        np.testing.assert_allclose(quantum_average(avg), avg, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            quantum_average(np.eye(2**7) / 2**7)


@st.composite
def hermitian_stacks(draw):
    """(n, H) with H a (B, 2^n, 2^n) stack of random Hermitian matrices."""
    n = draw(st.integers(2, 4))
    b = draw(st.integers(1, 4))
    scale = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(b, 2**n, 2**n)) + 1j * rng.normal(size=(b, 2**n, 2**n))
    return n, scale * (a + np.swapaxes(a.conj(), -1, -2))


class TestQuantumAverageBatch:
    @settings(max_examples=40, deadline=None)
    @given(hermitian_stacks())
    def test_stack_properties(self, case):
        from qubitnet.protocols import _swap_permutation

        n, h = case
        avg = quantum_average(h)
        assert avg.shape == h.shape
        for member, a in zip(h, avg):
            np.testing.assert_array_equal(quantum_average(member), a)
        tol = 1e-12 * np.abs(h).max()
        np.testing.assert_allclose(np.trace(avg, axis1=-2, axis2=-1),
                                   np.trace(h, axis1=-2, axis2=-1), atol=tol)
        np.testing.assert_allclose(quantum_average(avg), avg, atol=tol)
        for j, k in itertools.combinations(range(n), 2):
            perm = _swap_permutation(n, j, k)
            np.testing.assert_allclose(avg[..., perm[:, None], perm], avg, atol=tol)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            quantum_average(np.zeros((2, 8, 4)))


class TestCompositeDistance:
    """The spectral-norm distance to the quantum average, as recorded by
    simulate_qcme and computed by symmetric_distance_series."""

    @staticmethod
    def _distances(points):
        rho0 = np.array([np.kron(density_from_bloch(a), density_from_bloch(b))
                         for a, b in points])
        runs = simulate_qcme(rho0, chain(2), IntegratorConfig(dt=1e-2, t_max=0.1))
        traj = Trajectory(sample_times=np.arange(len(points), dtype=float),
                          samples=np.array(points, dtype=float))
        qcme = [r.metrics["composite_distance"][0] for r in runs]
        return qcme, symmetric_distance_series(traj)

    def test_zero_for_equal(self):
        u = random_unit()
        qcme, product = self._distances([[u, u], [[0, 0, 1], [0, 0, 1]]])
        np.testing.assert_allclose(qcme, 0.0, atol=1e-12)
        np.testing.assert_allclose(product, 0.0, atol=1e-12)

    def test_spectral_norm_of_difference(self):
        # |01><01| averages to (|01><01| + |10><10|) / 2: the difference is
        # diag(0, 1/2, -1/2, 0), spectral norm 1/2
        qcme, product = self._distances([[[0, 0, 1], [0, 0, -1]]])
        assert qcme[0] == pytest.approx(0.5, abs=1e-12)
        assert product[0] == pytest.approx(0.5, abs=1e-12)


class TestCoherence:
    def test_planar_radius(self):
        for p, expect in (([0.6, 0.8, 0.0], 1.0), ([0.3, 0.4, 0.5], 0.5),
                          ([0, 0, 1], 0.0)):
            assert _coherence(density_from_bloch(p)) == pytest.approx(expect, abs=1e-12)
