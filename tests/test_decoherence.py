import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qubitnet import core, decoherence
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
            out = lindblad_rhs(random_rho(), p)
            assert abs(np.trace(out)) < 1e-12
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_pure_dephasing_rate(self):
        # with only gamma_phi = g, rho_01(t) = rho_01(0) exp(-2 g t)
        g = 3.0
        p = NoiseParams(gamma_r=0.0, gamma_phi=g, gamma_z=0.0, eta_z=1.0)
        rho0 = density_from_bloch([0.8, 0.0, 0.2])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.3)
        rho = simulate_lindblad(rho0, p, cfg)
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
        rho = simulate_lindblad(rho0, p, cfg)
        assert rho[1, 1].real == pytest.approx(math.exp(-4.0 * g * 0.5), rel=1e-5)
        assert rho[0, 0].real > 0.98

    def test_matches_reference_integrator(self):
        # independent check against scipy's adaptive ODE solver
        from scipy.integrate import solve_ivp

        p = NoiseParams()
        rho0 = random_rho(np.random.default_rng(3))
        cfg = IntegratorConfig(dt=1e-4, t_max=0.2)

        def rhs(_t, y):
            return lindblad_rhs(y.reshape(2, 2), p).ravel()

        sol = solve_ivp(rhs, (0.0, 0.2), rho0.ravel().astype(complex),
                        rtol=1e-10, atol=1e-12)
        ref = sol.y[:, -1].reshape(2, 2)
        got = simulate_lindblad(rho0, p, cfg)
        np.testing.assert_allclose(got, ref, atol=1e-7)

    def test_matrix_power_matches_step_loop(self):
        p = NoiseParams()
        rho = random_rho(np.random.default_rng(4))
        cfg = IntegratorConfig(dt=1e-3, t_max=0.3)
        got = simulate_lindblad(rho, p, cfg)
        h = cfg.dt
        for _ in range(300):
            k1 = lindblad_rhs(rho, p)
            k2 = lindblad_rhs(rho + 0.5 * h * k1, p)
            k3 = lindblad_rhs(rho + 0.5 * h * k2, p)
            k4 = lindblad_rhs(rho + h * k3, p)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.testing.assert_allclose(got, rho, rtol=0, atol=1e-12)


class TestSmeStep:
    def test_zero_everything_is_identity(self):
        p = NoiseParams(gamma_r=0.0, gamma_phi=0.0, gamma_z=0.0, eta_z=1.0)
        rho = random_rho()
        out = sme_step(rho, np.zeros(3), p, dW=0.01, dt=1e-3)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_hamiltonian_part_is_exact_rotation(self):
        from qubitnet.core import bloch_from_density

        p = NoiseParams(gamma_r=0.0, gamma_phi=0.0, gamma_z=0.0, eta_z=1.0)
        rho = density_from_bloch([1.0, 0.0, 0.0])
        # H = z.sigma for time pi/4 turns x to y (Bloch rate 2|n|)
        out = sme_step(rho, [0, 0, 1], p, dW=0.0, dt=math.pi / 4)
        np.testing.assert_allclose(bloch_from_density(out), [0, 1, 0], atol=1e-12)

    def test_state_stays_physical(self):
        p = NoiseParams()
        rng = np.random.default_rng(9)
        rho = random_rho(rng)
        for _ in range(2000):
            rho = sme_step(rho, rng.normal(size=3), p,
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
        out = sme_step(rho, axes, NoiseParams(), dw, dt)
        assert out.shape == rho.shape
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


# The SME kernels as they were written before their data movement was cut,
# kept as bit-for-bit oracles: the feedback loop grows one ulp to ~1e-3.
# Results are compared with .tobytes(), which, unlike np.array_equal, tells
# -0.0 from 0.0 (summary.json prints complex numbers with the zero's sign).
def axis_matrix_oracle(axis):
    ax, ay, az = np.moveaxis(np.asarray(axis, dtype=float), -1, 0)
    entries = np.stack([az, ax - 1j * ay, ax + 1j * ay, -az], axis=-1)
    return entries.reshape(az.shape + (2, 2))


def expected_z_oracle(rho):
    return (rho[..., 0, 0] - rho[..., 1, 1]).real


def sme_step_oracle(rho, axis, p, dW, dt):
    rho = np.asarray(rho, dtype=complex)
    axis = np.asarray(axis, dtype=float)
    dW = np.asarray(dW, dtype=float)
    z_before = expected_z_oracle(rho)
    omega = np.sqrt(np.vecdot(axis, axis))
    nhat = axis_matrix_oracle(axis / np.where(omega > 0.0, omega, 1.0)[..., None])
    phi = (omega * dt)[..., None, None]
    u = np.cos(phi) * core.I2 - 1j * np.sin(phi) * nhat
    rho = u @ rho @ np.swapaxes(u, -1, -2).conj()
    rho = rho + decoherence.lindblad_rhs(rho, p) * dt
    if p.eta_z * p.gamma_z > 0.0:
        z = expected_z_oracle(rho)[..., None, None]
        innovation = 2.0 * rho * decoherence.SIGMA_Z - (2.0 * z) * rho
        rho = rho + math.sqrt(p.eta_z * p.gamma_z) * innovation * dW[..., None, None]
    rho = 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())
    rho = rho / (rho[..., 0, 0] + rho[..., 1, 1]).real[..., None, None]
    dy = None
    if p.gamma_z > 0.0:
        dy = z_before * dt + dW / (2.0 * math.sqrt(p.eta_z * p.gamma_z))
    return rho, dy


def feedback_oracle(rho_i, rho_j, c0_i, yz_i, p):
    s_i = 2.0 * np.asarray(rho_i, dtype=complex)[..., 1, 0]
    s_j = 2.0 * np.asarray(rho_j, dtype=complex)[..., 1, 0]
    suspended = ((np.abs(yz_i) < decoherence.RECORD_FLOOR)
                 | (np.hypot(s_i.real, s_i.imag) < 1e-9)
                 | (np.hypot(s_j.real, s_j.imag) < 1e-9))
    phi = np.asarray(0.5 * decoherence._LIBM_ATAN2(-s_i.real, s_i.imag)
                     + 0.5 * decoherence._LIBM_ATAN2(-s_j.real, s_j.imag), dtype=float)
    mu = np.where(suspended, 0.0, p.gamma_total * c0_i / np.where(suspended, 1.0, yz_i))
    axis = np.stack([mu * np.cos(phi), mu * np.sin(phi), np.zeros_like(mu)], axis=-1)
    return axis, suspended


def lindblad_oracle(rho0, p, cfg):
    """simulate_lindblad with the zero-axis commutator that its one caller
    passed, added to the drift of the identity cast to complex."""
    rho = np.asarray(np.eye(4).reshape(4, 2, 2), dtype=complex)
    h = axis_matrix_oracle(np.zeros(3))
    hl = cfg.dt * (-1j * (h @ rho - rho @ h) + decoherence.lindblad_rhs(rho, p)).reshape(4, 4).T
    step = sum(np.linalg.matrix_power(hl, n) / math.factorial(n) for n in range(5))
    return (np.linalg.matrix_power(step, cfg.n_steps) @ np.ravel(rho0)).reshape(2, 2)


def protected_pair_oracle(rho0_i, rho0_j, p, cfg, seeds, flags, records=None):
    """The batched step closure with its per-step zero axes, feedback test
    and suspended sum, on whole 1024-step noise blocks; the record y_sum / t
    that the feedback law reads, on every member, goes to records if given."""
    fb_on = np.array(flags, dtype=bool)
    rho0 = np.array([rho0_i, rho0_j], dtype=complex)
    target = decoherence._coherence(rho0)
    rngs = [np.random.default_rng(s) for s in seeds]
    x = np.repeat(rho0[None], len(seeds), axis=0)
    y_sum = np.zeros((len(seeds), 2))
    suspended = np.zeros(len(seeds), dtype=int)
    for k in range(cfg.n_steps):
        if k % 1024 == 0:
            noise = np.stack([rng.normal(0.0, math.sqrt(cfg.dt), (1024, 2))
                              for rng in rngs], axis=1)
        t = k * cfg.dt
        axes = np.zeros(x.shape[:-2] + (3,))
        if t >= WARM_UP_TIME and fb_on.any():
            axis, susp = feedback_oracle(x, x[:, ::-1], target, y_sum / t, p)
            if records is not None:
                records.append(y_sum / t)
            axes = np.where(fb_on[:, None, None], axis, 0.0)
            suspended += (susp & fb_on[:, None]).sum(axis=1)
        x, dy = sme_step_oracle(x, axes, p, noise[k % 1024], cfg.dt)
        y_sum += dy
    return x, suspended


signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def axis_stacks(draw):
    """One (3,) axis or an (M, 2, 3) stack, with signed zeros and zero rows."""
    shape = draw(st.sampled_from([(), (3, 2)]))
    axes = draw(arrays(float, shape + (3,),
                       elements=st.one_of(signed_zero, st.floats(-200.0, 200.0))))
    axes[draw(arrays(bool, shape))] = draw(signed_zero)
    return axes


@st.composite
def feedback_inputs(draw):
    """One (2, 2, 2) pair or an (M, 2, 2, 2) batch of pairs, with
    planar-origin qubits, signed zeros and records below the floor."""
    shape = draw(st.sampled_from([(), (3,)]))
    coord = st.one_of(signed_zero, st.sampled_from([1e-10, -1e-10]),
                      st.floats(-0.57, 0.57))
    record = st.one_of(signed_zero, st.floats(-2e-3, 2e-3), st.floats(-5.0, 5.0))
    pair = density_from_bloch(draw(arrays(float, shape + (2, 3), elements=coord)))
    c0 = draw(arrays(float, (2,), elements=st.floats(0.0, 1.0)))
    return pair, c0, draw(arrays(float, shape + (2,), elements=record))


class TestOracles:
    @settings(max_examples=80, deadline=None)
    @given(feedback_inputs())
    def test_feedback_hamiltonian(self, inputs):
        pair, c0, yz = inputs
        got_axis, got_suspended = feedback_hamiltonian(pair, c0, yz, NoiseParams())
        axis, suspended = feedback_oracle(pair, pair[..., ::-1, :, :], c0, yz, NoiseParams())
        assert got_axis.shape == axis.shape and got_axis.tobytes() == axis.tobytes()
        assert np.shape(got_suspended) == np.shape(suspended)
        assert np.asarray(got_suspended).tobytes() == np.asarray(suspended).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(sme_batches(), axis_stacks())
    def test_sme_step(self, batch, axes):
        rho, _, dw, dt = batch
        axes = np.resize(axes, (len(rho), 3))  # signed-zero rows on a batch
        got = sme_step(rho, axes, NoiseParams(), dw, dt)
        want, _ = sme_step_oracle(rho, axes, NoiseParams(), dw, dt)
        assert got.tobytes() == want.tobytes()

    # sme_step writes its unitary entry by entry: zero, -0, planar, pure-z
    # and tilted axes on states whose off-diagonal is exactly zero (-0 in
    # the last), one at a time and as one batch; at dt = 0.3 the 7.0 axes
    # turn past a quarter turn (cos < 0)
    @pytest.mark.parametrize("p, dt", [(NoiseParams(), 1e-3),
                                       (NoiseParams(gamma_r=0.0, gamma_phi=0.0), 0.3)])
    def test_sme_step_on_zero_entries(self, p, dt):
        states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([0.7, 0.3]),
                  np.array([[0.6, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.4]])]
        axes = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [1.5, -2.0, 0.0],
                [-1.5, 0.0, -0.0], [0.0, -0.0, 7.0], [-0.0, 0.0, -7.0], [2.0, -0.0, -4.0]]
        cases = list(itertools.product(states, axes, [0.0, -0.0, 0.01]))
        batch = tuple(np.array(column) for column in zip(*cases))
        for rho, axis, dw in [*cases, batch]:
            got = sme_step(rho, axis, p, dw, dt)
            want, _ = sme_step_oracle(rho, axis, p, dw, dt)
            assert got.tobytes() == want.tobytes()

    # simulate_lindblad against the form that added the zero-axis
    # commutator, at zero and nonzero rates, on random, pure-z and
    # diagonal states (a -0 off-diagonal in the last)
    @pytest.mark.parametrize("p", [NoiseParams(),
                                   NoiseParams(gamma_r=0.0, gamma_phi=3.0, eta_z=0.5),
                                   NoiseParams(gamma_r=2.0, gamma_phi=0.0, gamma_z=0.0),
                                   NoiseParams(gamma_r=0.0, gamma_phi=0.0, gamma_z=0.0)])
    @pytest.mark.parametrize("dt", [1e-4, 4e-4, 1e-3, 5e-2])
    def test_simulate_lindblad(self, p, dt):
        rng = np.random.default_rng(23)
        states = [*(random_rho(rng) for _ in range(6)),
                  density_from_bloch([0.0, 0.0, 1.0]), density_from_bloch([0.0, 0.0, -0.4]),
                  np.diag([0.7, 0.3]),
                  np.array([[0.6, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.4]])]
        for t_max in (dt, 0.05, 0.5):
            cfg = IntegratorConfig(dt=dt, t_max=t_max)
            for rho in states:
                got, want = simulate_lindblad(rho, p, cfg), lindblad_oracle(rho, p, cfg)
                assert got.tobytes() == want.tobytes()

    # the feedback arm is the leading n_feedback members, none to all;
    # the second pair has a qubit at the planar origin: every feedback
    # member is suspended after warm-up; the 3-step block is forced
    # through the byte bound
    @pytest.mark.parametrize("bloch_j", [[0.1, 0.7, -0.1], [0.0, 0.0, 0.5]])
    @pytest.mark.parametrize("block_steps", [None, 3])
    def test_protected_pair(self, monkeypatch, bloch_j, block_steps):
        p = NoiseParams()
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch(bloch_j)
        cfg = IntegratorConfig(dt=1e-4, t_max=0.03, sample_every=1)
        seeds = [11, 14, 12, 13]
        if block_steps:
            monkeypatch.setattr(decoherence, "_NOISE_BYTES", block_steps * 16 * len(seeds))
            assert decoherence._noise_block(len(seeds)) == block_steps
        for n_feedback in (0, 1, len(seeds) - 1, len(seeds)):
            flags = [True] * n_feedback + [False] * (len(seeds) - n_feedback)
            run = simulate_protected_pair(a, b, p, cfg, seeds, n_feedback)
            x, suspended = protected_pair_oracle(a, b, p, cfg, seeds, flags)
            assert run.final_rhos.tobytes() == x.tobytes()
            assert run.suspended_steps.tolist() == suspended.tolist()

    # the step closure forms the record: at every call the law's yz is, to
    # the byte, the oracle's dy summed over the arm's rows and divided by t;
    # gamma_z 0.4 and eta_z 0.7 pin the record's sqrt(eta gamma_z)
    @pytest.mark.parametrize("n_feedback", [1, 3, 4])
    def test_feedback_reads_the_oracle_record(self, monkeypatch, n_feedback):
        p = NoiseParams(gamma_z=0.4, eta_z=0.7)
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch([0.1, 0.7, -0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.03, sample_every=10)
        seeds = [11, 14, 12, 13]
        law, got = decoherence.feedback_hamiltonian, []

        def recording(pair, c0, yz, p):
            got.append(np.array(yz, copy=True))
            return law(pair, c0, yz, p)

        monkeypatch.setattr(decoherence, "feedback_hamiltonian", recording)
        run = simulate_protected_pair(a, b, p, cfg, seeds, n_feedback)
        flags, want = [True] * n_feedback + [False] * (len(seeds) - n_feedback), []
        x, _ = protected_pair_oracle(a, b, p, cfg, seeds, flags, want)
        assert len(got) == len(want) > 0
        for yz, y in zip(got, want):
            assert yz.shape == (n_feedback, 2) and yz.tobytes() == y[:n_feedback].tobytes()
        assert run.final_rhos.tobytes() == x.tobytes()

    # without a feedback arm the closure forms no record: _expected_z, read
    # outside sme_step, sees no row, and the batch is still the oracle's
    def test_no_arm_reads_no_record(self, monkeypatch):
        step, expected_z, inside, rows = decoherence.sme_step, decoherence._expected_z, [], []

        def sme_step(*args):
            inside.append(True)
            try:
                return step(*args)
            finally:
                inside.pop()

        def recording(rho):
            if not inside:
                rows.append(len(rho))
            return expected_z(rho)

        monkeypatch.setattr(decoherence, "sme_step", sme_step)
        monkeypatch.setattr(decoherence, "_expected_z", recording)
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch([0.1, 0.7, -0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.02, sample_every=10)
        seeds = [11, 14, 12]
        run = simulate_protected_pair(a, b, NoiseParams(), cfg, seeds, 0)
        assert sum(rows) == 0
        x, suspended = protected_pair_oracle(a, b, NoiseParams(), cfg, seeds, [False] * 3)
        assert run.final_rhos.tobytes() == x.tobytes()
        assert run.suspended_steps.tolist() == suspended.tolist() == [0, 0, 0]


class TestFeedbackHamiltonian:
    def test_axis_is_planar_with_expected_gain(self):
        p = NoiseParams()
        rho = density_from_bloch([0.5, 0.3, 0.2])
        c0 = 2.0 * abs(rho[1, 0])
        axis, suspended = feedback_hamiltonian(np.array([rho, rho]), np.array([c0, c0]),
                                               np.array([0.4, 0.8]), p)
        assert not suspended.any()
        assert np.all(axis[:, 2] == 0.0)
        np.testing.assert_allclose(np.linalg.norm(axis, axis=-1),
                                   p.gamma_total * c0 / np.array([0.4, 0.8]),
                                   rtol=0, atol=1e-12)

    def test_suspended_below_record_floor(self):
        # the floor acts on each qubit's own record
        p = NoiseParams()
        rho = density_from_bloch([0.5, 0.0, 0.0])
        axis, suspended = feedback_hamiltonian(np.array([rho, rho]), np.array([0.5, 0.5]),
                                               np.array([1e-4, 0.5]), p)
        assert suspended.tolist() == [True, False]
        np.testing.assert_allclose(axis[0], 0.0)
        assert np.linalg.norm(axis[1]) > 0.0

    def test_suspended_at_planar_origin(self):
        # one qubit at the origin suspends both qubits of its pair
        p = NoiseParams()
        polar = density_from_bloch([0.0, 0.0, 0.9])
        planar = density_from_bloch([0.5, 0.0, 0.0])
        _, suspended = feedback_hamiltonian(np.array([polar, planar]), np.array([0.5, 0.5]),
                                            np.array([0.5, 0.5]), p)
        assert suspended.tolist() == [True, True]


class TestProtectedPair:
    def test_feedback_needs_measurement(self):
        p = NoiseParams(gamma_z=0.0)
        rho = density_from_bloch([0.6, 0.0, 0.0])
        with pytest.raises(ValueError):
            simulate_protected_pair(rho, rho, p, IntegratorConfig(t_max=0.01), [0], 1)

    def test_deterministic_under_seed(self):
        p = NoiseParams()
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch([0.1, 0.7, -0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.05, sample_every=10)
        t1 = simulate_protected_pair(a, b, p, cfg, [42], 1)
        t2 = simulate_protected_pair(a, b, p, cfg, [42], 1)
        np.testing.assert_array_equal(t1.coherence[0], t2.coherence[0])
        np.testing.assert_array_equal(t1.distance[0], t2.distance[0])
        t3 = simulate_protected_pair(a, b, p, cfg, [43], 1)
        assert not np.array_equal(t1.coherence[0], t3.coherence[0])

    def test_zero_noise_flat_coherence(self):
        p = NoiseParams(gamma_r=0.0, gamma_phi=0.0, gamma_z=0.0, eta_z=1.0)
        a = density_from_bloch([0.6, 0.0, 0.3])
        b = density_from_bloch([0.0, 0.5, 0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.1, sample_every=100)
        traj = simulate_protected_pair(a, b, p, cfg, [1], 0)
        coherence = traj.coherence[0]
        spread = np.abs(coherence - coherence[0][None, :])
        assert spread.max() < 1e-12

    def test_records_targets_and_finals(self):
        p = NoiseParams()
        a = density_from_bloch([0.6, 0.0, 0.3])
        b = density_from_bloch([0.0, 0.5, 0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.02, sample_every=10)
        traj = simulate_protected_pair(a, b, p, cfg, [5], 1)
        np.testing.assert_allclose(
            traj.target, [2 * abs(a[1, 0]), 2 * abs(b[1, 0])], atol=1e-12
        )
        assert traj.final_rhos.shape == (1, 2, 2, 2)
        for rho in traj.final_rhos[0]:
            assert abs(np.trace(rho).real - 1.0) < 1e-9

    # the second pair has a qubit at the planar origin, so feedback is
    # suspended for both qubits at each of the 200 steps after warm-up
    @pytest.mark.parametrize("bloch_j, suspended", [
        ([0.1, 0.7, -0.1], [0, 0, 0, 0]),
        ([0.0, 0.0, 0.5], [400, 400, 0, 0]),
    ])
    def test_batch_members_match_single_runs(self, bloch_j, suspended):
        p = NoiseParams()
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch(bloch_j)
        cfg = IntegratorConfig(dt=1e-4, t_max=0.03, sample_every=7)
        seeds = [11, 14, 12, 13]
        batch = simulate_protected_pair(a, b, p, cfg, seeds, 2)
        assert batch.suspended_steps.shape == (len(seeds),)
        for m, seed in enumerate(seeds):
            one = simulate_protected_pair(a, b, p, cfg, [seed], int(m < 2))
            np.testing.assert_array_equal(batch.sample_times, one.sample_times)
            for name in ("coherence", "distance", "final_rhos"):
                np.testing.assert_allclose(getattr(batch, name)[m], getattr(one, name)[0],
                                           rtol=0, atol=1e-12)
            assert batch.suspended_steps[m] == one.suspended_steps[0]
        assert batch.suspended_steps.tolist() == suspended

    def test_matches_scalar_reference_loop(self):
        # one pair stepped one 2x2 matrix at a time with successive scalar
        # draws, qubit i before qubit j at every step
        p = NoiseParams()
        rhos = [density_from_bloch([0.6, 0.1, 0.2]),
                density_from_bloch([0.1, 0.7, -0.1])]
        cfg = IntegratorConfig(dt=1e-4, t_max=0.02, sample_every=1)
        traj = simulate_protected_pair(rhos[0], rhos[1], p, cfg, [21], 1)
        c0 = np.array([2.0 * abs(r[1, 0]) for r in rhos])
        rng = np.random.default_rng(21)
        y_sum = [0.0, 0.0]
        for k in range(200):
            t = k * cfg.dt
            axes = np.zeros((2, 3))
            if t >= WARM_UP_TIME:
                axes, _ = feedback_hamiltonian(np.array(rhos), c0, np.array(y_sum) / t, p)
            for q in (0, 1):
                dw = rng.normal(0.0, math.sqrt(cfg.dt))
                y_sum[q] += (expected_z_oracle(rhos[q]) * cfg.dt
                             + dw / (2.0 * math.sqrt(p.eta_z * p.gamma_z)))
                rhos[q] = sme_step(rhos[q], axes[q], p, dw, cfg.dt)
            np.testing.assert_allclose(
                traj.coherence[0, k + 1], [2.0 * abs(r[1, 0]) for r in rhos],
                rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.final_rhos[0], rhos, rtol=0, atol=1e-12)

    def test_noise_block_equals_successive_draws(self):
        block = np.random.default_rng(5).normal(0.0, 0.01, size=(300, 2))
        rng = np.random.default_rng(5)
        scalar = [[rng.normal(0.0, 0.01) for _ in (0, 1)] for _ in range(300)]
        np.testing.assert_array_equal(block, scalar)

    def test_noise_blocks_keep_each_seeds_stream(self, monkeypatch):
        # 300 steps in blocks of 7, the last one partial, against one block
        p = NoiseParams()
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch([0.1, 0.7, -0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.03, sample_every=9)
        args = (a, b, p, cfg, [31, 32], 1)
        whole = simulate_protected_pair(*args)
        monkeypatch.setattr(decoherence, "_NOISE_BLOCK", 7)
        got = simulate_protected_pair(*args)
        for name in ("coherence", "distance", "final_rhos", "suspended_steps"):
            np.testing.assert_array_equal(getattr(got, name), getattr(whole, name))

    def test_noise_block_is_bounded_in_bytes(self):
        # sizes only, nothing allocated: 200 000 pairs draw 3.2 MB a step,
        # so a 16 MiB block holds 5 steps; small batches keep whole blocks
        assert decoherence._NOISE_BYTES == 16 * 2**20
        assert decoherence._noise_block(200_000) == 5
        assert decoherence._noise_block(200) == decoherence._NOISE_BLOCK == 1024
        assert decoherence._noise_block(10**8) == 1
        for members in (1, 4, 200, 1025, 200_000, 10**6):
            assert decoherence._noise_block(members) * 16 * members <= decoherence._NOISE_BYTES

    def test_rejected_run_draws_no_noise(self, monkeypatch):
        # 5e8 steps: the kept samples are over the limit, and drawing the
        # run's noise before the check would take 8 GB per seed
        class NoDraws:
            def __init__(self, seed):
                pass

            def normal(self, *args, **kwargs):
                raise AssertionError("noise drawn before the sample check")

        monkeypatch.setattr(np.random, "default_rng", NoDraws)
        rho = density_from_bloch([0.6, 0.0, 0.0])
        cfg = IntegratorConfig(dt=1e-9, t_max=0.5, sample_every=50)
        with pytest.raises(ValueError, match="GiB of samples"):
            simulate_protected_pair(rho, rho, NoiseParams(), cfg, [1, 2], 1)

    def test_rejects_empty_seeds(self):
        rho = density_from_bloch([0.6, 0.0, 0.0])
        with pytest.raises(ValueError, match="at least one seed"):
            simulate_protected_pair(rho, rho, NoiseParams(), IntegratorConfig(t_max=0.01), [], 0)

    @pytest.mark.parametrize("n_feedback", [-1, 3, 1.0, "1", None])
    def test_rejects_n_feedback_outside_the_batch(self, n_feedback):
        rho = density_from_bloch([0.6, 0.0, 0.0])
        with pytest.raises(ValueError, match="n_feedback"):
            simulate_protected_pair(rho, rho, NoiseParams(), IntegratorConfig(t_max=0.01),
                                    [1, 2], n_feedback)

    # feedback_hamiltonian sees the leading n_feedback members at each
    # step after warm-up, the very rows that sme_step then steps, and is
    # never called without a feedback arm
    @pytest.mark.parametrize("n_feedback", [0, 1, 3, 4])
    def test_feedback_law_gets_the_leading_block(self, monkeypatch, n_feedback):
        calls = []

        def record(name, fn):
            def wrapper(x, *args):
                calls.append((name, np.array(x, copy=True)))
                return fn(x, *args)
            monkeypatch.setattr(decoherence, name, wrapper)

        record("feedback_hamiltonian", decoherence.feedback_hamiltonian)
        record("sme_step", decoherence.sme_step)
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch([0.1, 0.7, -0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.015, sample_every=5)
        simulate_protected_pair(a, b, NoiseParams(), cfg, [11, 14, 12, 13], n_feedback)
        steps, pair = [], None  # per step, the rows the law saw (or None) and the batch
        for name, x in calls:
            if name == "feedback_hamiltonian":
                pair = x
            else:
                steps.append((pair, x))
                pair = None
        assert len(steps) == cfg.n_steps
        for k, (pair, x) in enumerate(steps):
            if n_feedback and k * cfg.dt >= WARM_UP_TIME:
                assert pair.shape == (n_feedback, 2, 2, 2)
                assert pair.tobytes() == x[:n_feedback].tobytes()
            else:
                assert pair is None

    def test_rejects_stop_threshold(self):
        rho = density_from_bloch([0.6, 0.0, 0.0])
        cfg = IntegratorConfig(t_max=0.01, stop_threshold=1e-2, stop_metric="distance")
        with pytest.raises(ValueError, match="stop_threshold"):
            simulate_protected_pair(rho, rho, NoiseParams(), cfg, [0], 1)
