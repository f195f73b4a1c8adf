import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitnet.core import density_from_bloch
from qubitnet.decoherence import (
    WARM_UP_TIME,
    NoiseParams,
    feedback_hamiltonian,
    lindblad_rhs,
    simulate_lindblad,
    simulate_protected_pair,
    sme_step,
)
from qubitnet.dynamics import IntegratorConfig

RNG = np.random.default_rng(17)


def random_rho(rng=RNG):
    p = rng.normal(size=3)
    p *= rng.uniform(0.2, 1.0) / np.linalg.norm(p)
    return density_from_bloch(p)


class TestNoiseParams:
    def test_defaults(self):
        p = NoiseParams()
        assert p.gamma_r == 10.0
        assert p.gamma_phi == 10.0
        assert p.gamma_z == 0.1
        assert p.eta_z == 1.0
        assert p.gamma_total == pytest.approx(20.1)


class TestLindblad:
    def test_rhs_traceless_hermitian(self):
        p = NoiseParams()
        for _ in range(20):
            out = lindblad_rhs(random_rho(), RNG.normal(size=3), p)
            assert abs(np.trace(out)) < 1e-12
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_pure_dephasing_rate(self):
        # with only gamma_phi = g, rho_01(t) = rho_01(0) exp(-2 g t)
        g = 3.0
        p = NoiseParams(gamma_r=0.0, gamma_phi=g, gamma_z=0.0, eta_z=1.0)
        rho0 = density_from_bloch([0.8, 0.0, 0.2])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.3)
        rho = simulate_lindblad(rho0, np.zeros(3), p, cfg)
        expect = rho0[0, 1] * math.exp(-2.0 * g * 0.3)
        assert rho[0, 1] == pytest.approx(expect, rel=1e-6)
        np.testing.assert_allclose(np.diag(rho), np.diag(rho0), atol=1e-9)

    def test_relaxation_rate_and_target(self):
        # with only gamma_r = g, rho_11(t) = rho_11(0) exp(-4 g t); the
        # state relaxes toward the +z pole
        g = 2.0
        p = NoiseParams(gamma_r=g, gamma_phi=0.0, gamma_z=0.0, eta_z=1.0)
        rho0 = density_from_bloch([0.0, 0.0, -1.0])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.5)
        rho = simulate_lindblad(rho0, np.zeros(3), p, cfg)
        assert rho[1, 1].real == pytest.approx(math.exp(-4.0 * g * 0.5), rel=1e-5)
        assert rho[0, 0].real > 0.98

    def test_matches_reference_integrator(self):
        # independent check against scipy's adaptive ODE solver
        from scipy.integrate import solve_ivp

        p = NoiseParams()
        axis = np.array([1.0, -0.5, 2.0])
        rho0 = random_rho(np.random.default_rng(3))
        cfg = IntegratorConfig(dt=1e-4, t_max=0.2)

        def rhs(_t, y):
            return lindblad_rhs(y.reshape(2, 2), axis, p).ravel()

        sol = solve_ivp(rhs, (0.0, 0.2), rho0.ravel().astype(complex),
                        rtol=1e-10, atol=1e-12)
        ref = sol.y[:, -1].reshape(2, 2)
        got = simulate_lindblad(rho0, axis, p, cfg)
        np.testing.assert_allclose(got, ref, atol=1e-7)

    def test_matrix_power_matches_step_loop(self):
        p = NoiseParams()
        axis = np.array([1.0, -0.5, 2.0])
        rho = random_rho(np.random.default_rng(4))
        cfg = IntegratorConfig(dt=1e-3, t_max=0.3)
        got = simulate_lindblad(rho, axis, p, cfg)
        h = cfg.dt
        for _ in range(300):
            k1 = lindblad_rhs(rho, axis, p)
            k2 = lindblad_rhs(rho + 0.5 * h * k1, axis, p)
            k3 = lindblad_rhs(rho + 0.5 * h * k2, axis, p)
            k4 = lindblad_rhs(rho + h * k3, axis, p)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.testing.assert_allclose(got, rho, rtol=0, atol=1e-12)


class TestSmeStep:
    def test_zero_everything_is_identity(self):
        p = NoiseParams(gamma_r=0.0, gamma_phi=0.0, gamma_z=0.0, eta_z=1.0)
        rho = random_rho()
        out, dy = sme_step(rho, np.zeros(3), p, dW=0.01, dt=1e-3)
        np.testing.assert_allclose(out, rho, atol=1e-12)
        assert dy is None

    def test_hamiltonian_part_is_exact_rotation(self):
        from qubitnet.core import bloch_from_density

        p = NoiseParams(gamma_r=0.0, gamma_phi=0.0, gamma_z=0.0, eta_z=1.0)
        rho = density_from_bloch([1.0, 0.0, 0.0])
        # H = z.sigma for time pi/4 turns x to y (Bloch rate 2|n|)
        out, _ = sme_step(rho, [0, 0, 1], p, dW=0.0, dt=math.pi / 4)
        np.testing.assert_allclose(bloch_from_density(out), [0, 1, 0], atol=1e-12)

    def test_output_increment_formula(self):
        p = NoiseParams()
        rho = density_from_bloch([0.0, 0.0, 0.6])
        dw, dt = 0.02, 1e-3
        _, dy = sme_step(rho, np.zeros(3), p, dW=dw, dt=dt)
        expect = 0.6 * dt + dw / (2.0 * math.sqrt(p.eta_z * p.gamma_z))
        assert dy == pytest.approx(expect, abs=1e-12)

    def test_state_stays_physical(self):
        p = NoiseParams()
        rng = np.random.default_rng(9)
        rho = random_rho(rng)
        for _ in range(2000):
            rho, _ = sme_step(rho, rng.normal(size=3), p,
                              dW=rng.normal(0.0, math.sqrt(1e-4)), dt=1e-4)
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.linalg.eigvalsh(rho).min() > -1e-6


# Bloch vectors strictly inside the ball (|p| <= 0.95), so one step at
# dt <= 1e-5 with |dW| <= 5 sqrt(dt) cannot cross the eigenvalue guard.
bloch_inside = arrays(float, 3, elements=st.floats(-0.548, 0.548))


@st.composite
def sme_batches(draw):
    size = draw(st.integers(1, 6))
    dt = draw(st.floats(1e-7, 1e-5))
    bound = 5.0 * math.sqrt(dt)
    rho = np.array([density_from_bloch(draw(bloch_inside)) for _ in range(size)])
    axes = draw(arrays(float, (size, 3), elements=st.floats(-200.0, 200.0)))
    dw = draw(arrays(float, size, elements=st.floats(-bound, bound)))
    return rho, axes, dw, dt


class TestSmeStepProperties:
    @settings(max_examples=60, deadline=None)
    @given(sme_batches())
    def test_batch_stays_physical(self, batch):
        rho, axes, dw, dt = batch
        out, dy = sme_step(rho, axes, NoiseParams(), dw, dt)
        assert out.shape == rho.shape and dy.shape == dw.shape
        np.testing.assert_allclose(np.trace(out, axis1=1, axis2=2), 1.0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out, np.swapaxes(out, 1, 2).conj())
        assert np.linalg.eigvalsh(out).min() >= -1e-6

    @settings(max_examples=30, deadline=None)
    @given(sme_batches(), st.data())
    def test_guard_names_the_broken_member(self, batch, data):
        rho, axes, dw, dt = batch
        bad = data.draw(st.integers(0, len(rho) - 1))
        # Bloch vector (0, 1.2, 0), outside the ball: eigenvalues 1.1 and -0.1
        rho[bad] = [[0.5, -0.6j], [0.6j, 0.5]]
        with pytest.raises(RuntimeError, match=rf"batch member \({bad},\)"):
            sme_step(rho, axes, NoiseParams(), dw, dt)


class TestFeedbackHamiltonian:
    def test_axis_is_planar_with_expected_gain(self):
        p = NoiseParams()
        rho = density_from_bloch([0.5, 0.3, 0.2])
        c0 = 2.0 * abs(rho[1, 0])
        fb = feedback_hamiltonian(rho, rho, c0, yz_i=0.4, p=p)
        assert not fb.suspended
        assert fb.axis[2] == 0.0
        assert np.linalg.norm(fb.axis) == pytest.approx(
            p.gamma_total * c0 / 0.4, abs=1e-12
        )

    def test_suspended_below_record_floor(self):
        p = NoiseParams()
        rho = density_from_bloch([0.5, 0.0, 0.0])
        fb = feedback_hamiltonian(rho, rho, 0.5, yz_i=1e-4, p=p)
        assert fb.suspended
        np.testing.assert_allclose(fb.axis, 0.0)

    def test_suspended_at_planar_origin(self):
        p = NoiseParams()
        polar = density_from_bloch([0.0, 0.0, 0.9])
        planar = density_from_bloch([0.5, 0.0, 0.0])
        fb = feedback_hamiltonian(polar, planar, 0.5, yz_i=0.5, p=p)
        assert fb.suspended


class TestProtectedPair:
    def test_feedback_needs_measurement(self):
        p = NoiseParams(gamma_z=0.0)
        rho = density_from_bloch([0.6, 0.0, 0.0])
        with pytest.raises(ValueError):
            simulate_protected_pair(rho, rho, p, IntegratorConfig(t_max=0.01),
                                    seed=0, feedback=True)

    def test_deterministic_under_seed(self):
        p = NoiseParams()
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch([0.1, 0.7, -0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.05, sample_every=10)
        t1 = simulate_protected_pair(a, b, p, cfg, seed=42)
        t2 = simulate_protected_pair(a, b, p, cfg, seed=42)
        np.testing.assert_array_equal(t1.coherence, t2.coherence)
        np.testing.assert_array_equal(t1.distance, t2.distance)
        t3 = simulate_protected_pair(a, b, p, cfg, seed=43)
        assert not np.array_equal(t1.coherence, t3.coherence)

    def test_zero_noise_flat_coherence(self):
        p = NoiseParams(gamma_r=0.0, gamma_phi=0.0, gamma_z=0.0, eta_z=1.0)
        a = density_from_bloch([0.6, 0.0, 0.3])
        b = density_from_bloch([0.0, 0.5, 0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.1, sample_every=100)
        traj = simulate_protected_pair(a, b, p, cfg, seed=1, feedback=False)
        spread = np.abs(traj.coherence - traj.coherence[0][None, :])
        assert spread.max() < 1e-12

    def test_records_targets_and_finals(self):
        p = NoiseParams()
        a = density_from_bloch([0.6, 0.0, 0.3])
        b = density_from_bloch([0.0, 0.5, 0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.02, sample_every=10)
        traj = simulate_protected_pair(a, b, p, cfg, seed=5)
        np.testing.assert_allclose(
            traj.target, [2 * abs(a[1, 0]), 2 * abs(b[1, 0])], atol=1e-12
        )
        assert traj.final_rhos.shape == (2, 2, 2)
        for rho in traj.final_rhos:
            assert abs(np.trace(rho).real - 1.0) < 1e-9

    # the second pair has a qubit at the planar origin, so feedback is
    # suspended for both qubits at each of the 200 steps after warm-up
    @pytest.mark.parametrize("bloch_j, suspended", [
        ([0.1, 0.7, -0.1], [0, 0, 0, 0]),
        ([0.0, 0.0, 0.5], [400, 0, 0, 400]),
    ])
    def test_batch_members_match_single_runs(self, bloch_j, suspended):
        p = NoiseParams()
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch(bloch_j)
        cfg = IntegratorConfig(dt=1e-4, t_max=0.03, sample_every=7)
        seeds, flags = [11, 12, 13, 14], [True, False, False, True]
        batch = simulate_protected_pair(a, b, p, cfg, seeds, feedback=flags)
        assert len(batch) == len(seeds)
        for got, seed, fb in zip(batch, seeds, flags):
            one = simulate_protected_pair(a, b, p, cfg, seed, feedback=fb)
            np.testing.assert_array_equal(got.sample_times, one.sample_times)
            for name in ("coherence", "distance", "final_rhos"):
                np.testing.assert_allclose(getattr(got, name), getattr(one, name),
                                           rtol=0, atol=1e-12)
            assert got.suspended_steps == one.suspended_steps
        assert [t.suspended_steps for t in batch] == suspended

    def test_matches_scalar_reference_loop(self):
        # one pair stepped one 2x2 matrix at a time with successive scalar
        # draws, qubit i before qubit j at every step
        p = NoiseParams()
        rhos = [density_from_bloch([0.6, 0.1, 0.2]),
                density_from_bloch([0.1, 0.7, -0.1])]
        cfg = IntegratorConfig(dt=1e-4, t_max=0.02, sample_every=1)
        traj = simulate_protected_pair(rhos[0], rhos[1], p, cfg, seed=21)
        c0 = [2.0 * abs(r[1, 0]) for r in rhos]
        rng = np.random.default_rng(21)
        y_sum = [0.0, 0.0]
        for k in range(200):
            t = k * cfg.dt
            axes = [np.zeros(3), np.zeros(3)]
            if t >= WARM_UP_TIME:
                axes = [feedback_hamiltonian(rhos[q], rhos[1 - q], c0[q],
                                             y_sum[q] / t, p).axis for q in (0, 1)]
            for q in (0, 1):
                rhos[q], dy = sme_step(rhos[q], axes[q], p,
                                       rng.normal(0.0, math.sqrt(cfg.dt)), cfg.dt)
                y_sum[q] += dy
            np.testing.assert_allclose(
                traj.coherence[k + 1], [2.0 * abs(r[1, 0]) for r in rhos],
                rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.final_rhos, rhos, rtol=0, atol=1e-12)

    def test_noise_block_equals_successive_draws(self):
        block = np.random.default_rng(5).normal(0.0, 0.01, size=(300, 2))
        rng = np.random.default_rng(5)
        scalar = [[rng.normal(0.0, 0.01) for _ in (0, 1)] for _ in range(300)]
        np.testing.assert_array_equal(block, scalar)

    def test_rejects_mismatched_feedback_flags(self):
        rho = density_from_bloch([0.6, 0.0, 0.0])
        with pytest.raises(ValueError, match="feedback flags"):
            simulate_protected_pair(rho, rho, NoiseParams(),
                                    IntegratorConfig(t_max=0.01), [1, 2],
                                    feedback=[True])

    def test_rejects_stop_threshold(self):
        rho = density_from_bloch([0.6, 0.0, 0.0])
        cfg = IntegratorConfig(t_max=0.01, stop_threshold=1e-2, stop_metric="distance")
        with pytest.raises(ValueError, match="stop_threshold"):
            simulate_protected_pair(rho, rho, NoiseParams(), cfg, seed=0)
