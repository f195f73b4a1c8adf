import csv
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from qubitnet import decoherence, dynamics
from qubitnet.experiments import _write_csv
from qubitnet.core import (
    MINUS_I_PAULI_REAL,
    PAULI,
    bloch_from_density,
    density_from_bloch,
    ket_from_bloch,
    row_cross,
    so3_from_su2,
    su2_from_axis_angle,
)
from qubitnet.decoherence import NoiseParams, _coherence, simulate_protected_pair
from qubitnet.dynamics import (
    IntegratorConfig,
    Trajectory,
    in_open_hemisphere,
    meeting_time,
    simulate_network,
    simulate_qcme,
    simulate_sphere,
    step_work,
)
from qubitnet.metrics import (
    SettlingSpec,
    lyapunov_decay_terms,
    quantum_average,
    settling_time,
)
from qubitnet.protocols import _CROSS_FORMS, chain_axes, geometry_axes
from qubitnet.topology import Topology, chain, complete, from_edge_list, grid, is_chain

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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_stop_threshold(self, threshold):
        # NaN, 0 and -1 would never stop a run, inf would stop it at the first sample
        with pytest.raises(ValueError, match="threshold of V must be finite and positive"):
            IntegratorConfig(stop_threshold=threshold)

    @pytest.mark.parametrize("threshold", [math.nan, -math.inf, 0.0, 1.0])
    def test_rejects_bad_w_max_stop_threshold(self, threshold):
        # W_max <= 0: a stop on it takes a finite negative threshold
        with pytest.raises(ValueError, match="W_max must be finite and negative"):
            IntegratorConfig(stop_threshold=threshold, stop_metric="W_max")
        assert IntegratorConfig(stop_threshold=-0.05, stop_metric="W_max").stop_threshold == -0.05

    @pytest.mark.parametrize("every", [2.5, 2.0, "2"])
    def test_rejects_non_integer_sample_every(self, every):
        with pytest.raises(ValueError, match="sample_every must be an integer"):
            IntegratorConfig(sample_every=every)

    def test_accepts_numpy_integer_sample_every(self):
        assert IntegratorConfig(sample_every=np.int64(5)).sample_every == 5


class TestStepKet:
    def test_norm_preserved_over_many_steps(self):
        psi = sphere_kets(RNG, 1)
        for _ in range(1000):
            psi = dynamics._step_kets(psi, RNG.normal(size=(1, 3)), 1e-2)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_z_axis_rotation(self):
        # H = z.sigma turns the Bloch vector about z at rate 2
        psi = ket_from_bloch([1, 0, 0])
        psi = dynamics._step_kets(psi, np.array([0.0, 0.0, 1.0]), math.pi / 4)
        np.testing.assert_allclose(dynamics._bloch_batch(psi), [0, 1, 0], atol=1e-12)


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


def lp_open_hemisphere(u: np.ndarray) -> bool:
    """Reference decision: maximize the margin t with u_i . c >= t over the
    box |c_k| <= 1, then judge the solver's own c at unit scale, since the
    LP optimum may break a row by up to the feasibility tolerance.

    HiGHS runs at tolerances of 1e-10 first. On some near-degenerate sets
    it then calls this always-feasible LP infeasible; only then is it run
    again at its default tolerances of 1e-7. A failed solve is no answer.
    """
    for tol in (1e-10, 1e-7):
        res = linprog(c=[0.0, 0.0, 0.0, -1.0],
                      A_ub=np.hstack([-u, np.ones((len(u), 1))]), b_ub=np.zeros(len(u)),
                      bounds=[(-1, 1)] * 3 + [(0, 2)], method="highs",
                      options={"primal_feasibility_tolerance": tol,
                               "dual_feasibility_tolerance": tol})
        if res.success:
            c = res.x[:3]
            return bool((u @ c).min() > 1e-9 * np.linalg.norm(c))
    raise AssertionError(f"no LP solution: {res.message}")


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


angles = st.floats(0.0, 2.0 * math.pi)
coords = st.floats(-1.0, 1.0)


@st.composite
def point_stacks(draw):
    """(B, N, 3) stacks of unit vectors: random sets, points on one great
    circle, sets holding an antipodal pair, and upper-hemisphere draws
    with some rows on the equator (z = 0)."""
    b, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "great_circle", "antipodal", "equator"]))
    if kind == "great_circle":
        theta, phi = draw(angles), draw(angles)
        normal = np.array([math.sin(theta) * math.cos(phi),
                           math.sin(theta) * math.sin(phi), math.cos(theta)])
        e1 = _unit_rows(np.cross(normal, [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9
                                 else [0.0, 1.0, 0.0]))
        e2 = np.cross(normal, e1)
        t = draw(arrays(float, (b, n, 1), elements=angles))
        return np.cos(t) * e1 + np.sin(t) * e2
    v = draw(arrays(float, (b, n, 3), elements=coords).filter(
        lambda v: np.linalg.norm(v, axis=-1).min() > 1e-2))
    if kind == "antipodal":
        v[:, -1] = -v[:, 0]
    elif kind == "equator":
        v[..., 2] = np.abs(v[..., 2])
        v[draw(arrays(bool, (b, n))), 2] = 0.0
        assume(np.linalg.norm(v, axis=-1).min() > 1e-2)
    return _unit_rows(v)


class TestHemisphereMatchesLp:
    @settings(max_examples=150, deadline=None)
    @given(point_stacks())
    # inside, with an exact margin of 1.69e-8 for its certificate; HiGHS at
    # its default tolerances returns a c whose own margin is -1.69e-8
    @example(np.array([[
        [0.8111302045687134, 0.2393150415371588, 0.5336629105815627],
        [-0.8319775073093811, -0.15736399979335716, -0.5320244344955457],
        [0.8303627530540998, -0.33507332291167585, 0.44522305265264933],
        [0.7505709047107532, 0.4011013806743324, 0.52512950728637],
        [-0.2287598335164958, -0.9260594853127337, -0.30013791535195905],
        [-0.166610075565514, -0.9493258535477652, -0.26649860507301143],
        [-0.8008059381993557, -0.2727294601112022, -0.5332246158347362]]]))
    def test_equals_lp_oracle_single_and_batched(self, stack):
        expected = [lp_open_hemisphere(u) for u in stack]
        single = [in_open_hemisphere(u) for u in stack]
        assert all(type(r) is bool for r in single)
        assert single == expected
        batched = in_open_hemisphere(stack)
        assert batched.shape == (len(stack),) and batched.dtype == bool
        assert batched.tolist() == single

    def test_lp_runs_only_for_uncertified_members(self, monkeypatch):
        decided = []

        def lp(u):
            decided.append(u.copy())
            return False

        monkeypatch.setattr(dynamics, "_hemisphere_exact", lp)
        north = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])
        antipodal = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.0, -1.0]])
        assert in_open_hemisphere(np.stack([north, antipodal, north])).tolist() == [
            True, False, True]
        assert len(decided) == 1
        np.testing.assert_array_equal(decided[0], antipodal)

    def test_triple_normal_decides_an_uncertified_member(self, monkeypatch):
        # inside an open hemisphere, but no trial direction, row or pair sum
        # certifies it: only the normal of a triple does
        u = np.array([[0.04354210496756797, -0.9861555657875068, -0.1600040160787089],
                      [0.8714105060934059, 0.4902245253956084, -0.01799012425429053],
                      [-0.8773219041826708, -0.4622821152724274, 0.12884689495887341],
                      [-0.9472048933541458, -0.2627727493200254, 0.18372090850188044]])
        pair_sums = _unit_rows(u[:, None] + u[None]).reshape(-1, 3)
        assert (pair_sums @ u.T).min(axis=1).max() <= 1e-9
        exact, decided = dynamics._hemisphere_exact, []
        monkeypatch.setattr(dynamics, "_hemisphere_exact",
                            lambda v: decided.append(v) or exact(v))
        assert in_open_hemisphere(u) is True
        assert len(decided) == 1
        assert lp_open_hemisphere(u)

    def test_fallback_memory_stays_small(self):
        # 100 points outside every hemisphere: every candidate is tried
        u = _unit_rows(np.random.default_rng(3).normal(size=(100, 3)))
        tracemalloc.start()
        try:
            inside = dynamics._hemisphere_exact(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not inside and not lp_open_hemisphere(u)
        assert peak < 16 * 2**20

    def test_fallback_takes_non_unit_rows(self):
        # mixed-state Bloch vectors 170 degrees apart, one of length 0.1:
        # u_0 + u_1 leans to the long row, only the bisector certifies them
        a = math.radians(170.0)
        u = np.array([[1.0, 0.0, 0.0], [0.1 * math.cos(a), 0.1 * math.sin(a), 0.0]])
        assert in_open_hemisphere(u) is True and lp_open_hemisphere(u)
        assert in_open_hemisphere(np.array([[0.5, 0.0, 0.0], [-0.1, 0.0, 0.0]])) is False


def _cross_terms(a, b):
    """Closed form of the chain cross terms, -Im<a|sigma_p|b> for p = x, y, z."""
    return np.array([-(a.conj() @ PAULI[p] @ b).imag for p in range(3)])


def _step_kets_complex(kets, axes, dt):
    """Reference exp(-i dt n.sigma) on complex kets, by the closed-form formula."""
    omega = np.sqrt((axes * axes).sum(axis=-1))
    phi = omega * dt
    e = axes / np.where(omega > 0.0, omega, 1.0)[..., None]
    c, s = np.cos(phi), np.sin(phi)
    a, b = kets[..., 0], kets[..., 1]
    ex, ey, ez = e[..., 0], e[..., 1], e[..., 2]
    na = ez * a + (ex - 1j * ey) * b
    nb = (ex + 1j * ey) * a - ez * b
    return np.stack([c * a - 1j * s * na, c * b - 1j * s * nb], axis=-1)


# Reference forms of the kernels: the same exact 0/+-1 forms contracted by
# einsum, the cross product written out by component, and Rodrigues on the
# unit axis.
def _step_kets_einsum(kets, axes, dt):
    r = np.ascontiguousarray(kets, dtype=complex).view(float)
    omega = np.sqrt((axes * axes).sum(axis=-1))
    phi = omega * dt
    coef = np.empty(r.shape)
    coef[..., 0] = np.cos(phi)
    np.multiply(axes, (np.sin(phi) / (omega + (omega == 0.0)))[..., None],
                out=coef[..., 1:])
    step = (coef @ dynamics._STEP_FORMS).reshape(r.shape + (4,))
    return np.einsum("...ij,...j->...i", step, r).view(complex)


def _chain_axes_einsum(states):
    r = np.ascontiguousarray(states, dtype=complex).view(float)
    forms = (r[..., :-1, :] @ _CROSS_FORMS).reshape(r.shape[:-2] + (-1, 3, 4))
    c = np.einsum("...pj,...j->...p", forms, r[..., 1:, :])
    out = np.zeros(r.shape[:-1] + (3,))
    out[..., :-1, :] = c
    out[..., 1:, :] -= c
    return out


def _row_cross_components(a, b):
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _rotate_vectors_unit_axis(x, axes, dt):
    """Rodrigues on the unit axis e: x c + (e x x) s + e (e . x)(1 - c)."""
    omega = np.linalg.norm(axes, axis=-1, keepdims=True)
    e = axes / np.where(omega > 0.0, omega, 1.0)
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    return x * c + np.cross(e, x) * s + e * (e * x).sum(axis=-1, keepdims=True) * (1.0 - c)


@st.composite
def ket_batches(draw):
    """(B, N, 2) unit kets, B 1..4, N 2..8."""
    b, n = draw(st.integers(1, 4)), draw(st.integers(2, 8))
    v = draw(arrays(float, (b, n, 4), elements=coords).filter(
        lambda v: np.linalg.norm(v, axis=-1).min() > 1e-2))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v.view(complex)


@st.composite
def axis_batches(draw, shape):
    """Axes of the given (..., 3) shape with sizes up to 1e3 and exact zeros."""
    scale = draw(arrays(float, shape[:-1] + (1,), elements=st.sampled_from(
        [0.0, 1e-3, 1.0, 1e3])))
    return scale * draw(arrays(float, shape, elements=st.one_of(st.just(0.0), coords)))


def _random_batch(rng, size, n):
    kets = rng.normal(size=(size, n, 4))
    kets = (kets / np.linalg.norm(kets, axis=-1, keepdims=True)).view(complex)
    axes = rng.normal(size=(size, n, 3)) * 10.0 ** rng.uniform(-3, 3, size=(size, n, 1))
    axes[rng.random((size, n)) < 0.2] = 0.0
    return kets, axes


def _kernels(kets, axes, dt, t):
    x = dynamics._bloch_batch(kets)
    return {"step": dynamics._step_kets(kets, axes, dt), "chain_axes": chain_axes(kets),
            "V": dynamics._consecutive_v(kets), "bloch": x,
            "geometry_axes": geometry_axes(x, t)}


class TestRealViewKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_step_matches_complex_formula(self, data):
        kets = data.draw(ket_batches())
        axes = data.draw(axis_batches(kets.shape[:-1] + (3,)))
        dt = data.draw(st.floats(0.0, 0.1))
        out = dynamics._step_kets(kets, axes, dt)
        assert out.shape == kets.shape and out.dtype == complex
        np.testing.assert_allclose(out, _step_kets_complex(kets, axes, dt),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, rtol=0, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(ket_batches())
    def test_chain_axes_are_cross_vector_differences(self, kets):
        c = np.array([[_cross_terms(p[i], p[i + 1]) for i in range(len(p) - 1)]
                      for p in kets])
        expected = np.zeros(kets.shape[:-1] + (3,))
        expected[:, :-1] += c
        expected[:, 1:] -= c
        np.testing.assert_allclose(chain_axes(kets), expected, rtol=0, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(ket_batches())
    def test_bloch_and_v_match_scalar_forms(self, kets):
        n = kets.shape[1]
        np.testing.assert_allclose(
            dynamics._bloch_batch(kets),
            [[bloch_from_density(np.outer(psi, psi.conj())) for psi in p] for p in kets],
            rtol=0, atol=1e-14)
        # V = (N-1) - sum_i Re<psi_i|psi_{i+1}>, from the complex overlaps
        overlaps = np.einsum("bij,bij->b", kets[:, :-1].conj(), kets[:, 1:]).real
        np.testing.assert_allclose(dynamics._consecutive_v(kets), n - 1 - overlaps,
                                   rtol=0, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(point_stacks(), st.data())
    def test_geometry_axes_match_projected_axis(self, x, data):
        n = x.shape[1]
        w = data.draw(arrays(float, (n, n), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
        w = np.triu(w, 1) + np.triu(w, 1).T
        t = Topology(weights=w)
        # x_i x ((I - x_i x_i^T) s_i) with s_i = sum_j w_ij x_j
        s = w @ x
        tangent = s - np.einsum("bij,bij->bi", x, s)[..., None] * x
        expected = np.cross(x, tangent)
        np.testing.assert_allclose(geometry_axes(x, t), expected,
                                   rtol=0, atol=1e-14 * (1.0 + w.sum()))

    @pytest.mark.parametrize("layout", ["fortran", "every_other_qubit", "reversed_qubits"])
    def test_strided_input_matches_contiguous_copy(self, layout):
        kets, axes = _random_batch(np.random.default_rng(7), 3, 10)
        strided = {"fortran": np.asfortranarray(kets),
                   "every_other_qubit": kets[:, ::2],
                   "reversed_qubits": kets[:, ::-1]}[layout]
        axes = axes[:, : strided.shape[1]]
        assert not strided.flags.c_contiguous
        t = chain(strided.shape[1])
        got = _kernels(strided, axes, 0.05, t)
        for name, value in _kernels(np.ascontiguousarray(strided), axes, 0.05, t).items():
            np.testing.assert_array_equal(got[name], value, err_msg=name)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 64]), st.integers(2, 8))
    def test_batch_members_equal_one_member_calls(self, seed, size, n):
        kets, axes = _random_batch(np.random.default_rng(seed), size, n)
        t = grid(2) if n == 4 else chain(n)
        batched = _kernels(kets, axes, 0.05, t)
        for b in range(size):
            for name, value in _kernels(kets[b], axes[b], 0.05, t).items():
                np.testing.assert_array_equal(batched[name][b], value, err_msg=name)

    def test_real_forms_act_as_minus_i_pauli(self):
        psi = np.random.default_rng(3).normal(size=4).view(complex)
        for p in range(3):
            np.testing.assert_array_equal(MINUS_I_PAULI_REAL[p] @ psi.view(float),
                                          (-1j * PAULI[p] @ psi).view(float))
        forms = np.concatenate([np.eye(4)[None], MINUS_I_PAULI_REAL])
        assert set(np.unique(forms)) <= {-1.0, 0.0, 1.0}
        # one nonzero per entry across I and the three forms: products are exact
        np.testing.assert_array_equal(np.abs(forms).sum(axis=0), np.ones((4, 4)))


def _assert_within(got, want, scale):
    """|got - want| <= 1e-15 x scale entrywise: room for the last bit that a
    fused multiply-add in another BLAS build may move."""
    err = np.abs(got - want)
    assert got.shape == want.shape and (err <= 1e-15 * scale).all(), (
        f"largest error {err.max():.3g}, scale {np.max(scale):.3g}")


_LAYOUTS = {"contiguous": lambda k: k, "fortran": np.asfortranarray,
            "reversed_qubits": lambda k: k[:, ::-1]}


class TestKernelOracles:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_step_matches_einsum_oracle(self, data):
        kets = _LAYOUTS[data.draw(st.sampled_from(sorted(_LAYOUTS)))](data.draw(ket_batches()))
        axes = data.draw(axis_batches(kets.shape[:-1] + (3,)))
        dt = data.draw(st.floats(0.0, 0.1))
        out = dynamics._step_kets(kets, axes, dt)
        assert out.dtype == complex
        _assert_within(out, _step_kets_einsum(kets, axes, dt), 1.0)

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [0.3, -0.4, 1.2], [0.0, 0.0, 0.0]])
    def test_one_ket_step_matches_einsum_oracle(self, axis):
        psi = ket_from_bloch(random_unit(np.random.default_rng(4)))
        out = dynamics._step_kets(psi, np.array(axis), 0.7)
        assert out.shape == (2,)
        _assert_within(out, _step_kets_einsum(psi, np.array(axis), 0.7), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(_LAYOUTS)), ket_batches())
    def test_chain_axes_match_einsum_oracle(self, layout, kets):
        kets = _LAYOUTS[layout](kets)
        # each cross term is at most 1, so an axis is at most 2
        _assert_within(chain_axes(kets), _chain_axes_einsum(kets), 2.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_row_cross_matches_components_and_np_cross(self, data):
        shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8)), 3)
        a, b = (data.draw(axis_batches(shape)) for _ in range(2))
        if data.draw(st.booleans()):
            a = a + 1j * data.draw(axis_batches(shape))
        if data.draw(st.booleans()):  # strided rows
            a, b = a[:, ::-1], np.asfortranarray(b)[:, ::-1]
        scale = (np.sqrt((np.abs(a) ** 2).sum(axis=-1))
                 * np.sqrt((np.abs(b) ** 2).sum(axis=-1)))[..., None]
        got = row_cross(a, b)
        assert got.dtype == np.result_type(a, b)
        _assert_within(got, _row_cross_components(a, b), scale)
        _assert_within(got, np.cross(a, b), scale)

    @settings(max_examples=100, deadline=None)
    @given(point_stacks(), st.data())
    def test_rotation_matches_unit_axis_rodrigues(self, x, data):
        axes = data.draw(axis_batches(x.shape))
        dt = data.draw(st.floats(0.0, 0.1))
        out = dynamics._rotate_vectors(x, axes, dt)
        _assert_within(out, _rotate_vectors_unit_axis(x, axes, dt), 10.0)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, rtol=0, atol=1e-14)
        # a zero axis leaves its row as it was
        zero = (axes == 0.0).all(axis=-1)
        np.testing.assert_array_equal(out[zero], x[zero])


def _random_su2(rng):
    return su2_from_axis_angle(random_unit(rng), rng.uniform(0.0, 4.0 * math.pi))


class TestKernelProperties:
    @settings(max_examples=50, deadline=None)
    @given(ket_batches(), st.integers(0, 2**32 - 1))
    def test_axes_rotate_with_the_frame(self, kets, seed):
        # turning every ket by one U turns both protocols' axes by so3(U)
        rng = np.random.default_rng(seed)
        u = _random_su2(rng)
        r = so3_from_su2(u)
        turned = kets @ u.T
        np.testing.assert_allclose(chain_axes(turned), chain_axes(kets) @ r.T,
                                   rtol=0, atol=1e-13)
        n = kets.shape[1]
        w = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n, n))
        t = Topology(weights=np.triu(w, 1) + np.triu(w, 1).T)
        np.testing.assert_allclose(
            geometry_axes(dynamics._bloch_batch(turned), t),
            geometry_axes(dynamics._bloch_batch(kets), t) @ r.T, rtol=0, atol=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.sampled_from([1e-3, 1e-2]))
    def test_chain_v_never_rises(self, seed, n, dt):
        kets = np.random.default_rng(seed).normal(size=(8, n, 4))
        kets = (kets / np.linalg.norm(kets, axis=-1, keepdims=True)).view(complex)
        cfg = IntegratorConfig(dt=dt, t_max=300 * dt)
        for run in simulate_network(kets, chain(n), "chain", cfg):
            assert np.diff(run.metrics["V"]).max() <= 1e-12

    def test_sphere_steps_keep_unit_norm(self):
        # no renormalization: the rotation alone holds |x| = 1
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 9, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        cfg = IntegratorConfig(dt=1e-3, t_max=10.0, sample_every=500)
        for run in simulate_sphere(x, grid(3), cfg):
            assert len(run.sample_times) == 21
            assert np.abs(np.linalg.norm(run.samples, axis=-1) - 1.0).max() < 1e-12


class TestSimulateNetwork:
    def test_chain_requires_chain_topology(self):
        kets = sphere_kets(RNG, 3)
        cfg = IntegratorConfig(t_max=0.1)
        with pytest.raises(ValueError):
            simulate_network(kets, complete(3), "chain", cfg)

    @pytest.mark.parametrize("edges", ["1 2 5.0\n2 3 0.25\n3 4 1\n4 5 1\n",
                                       "1 2 1\n2 3 1\n3 4 1\n4 5 0.5\n"])
    def test_chain_rejects_non_unit_weights(self, edges):
        # chain_axes takes no weights, so a weighted chain must not run as
        # if it had unit weights
        weighted = from_edge_list(edges)
        assert is_chain(weighted)
        kets = sphere_kets(RNG, 5)
        cfg = IntegratorConfig(t_max=0.1)
        with pytest.raises(ValueError, match="unit edge weights"):
            simulate_network(kets, weighted, "chain", cfg)
        with pytest.raises(ValueError, match=r"unit edge weights.* \(batch members \[1\]\)$"):
            simulate_network(np.array([kets, kets]), [chain(5), weighted], "chain", cfg)

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
        # settled at t = 0: keeps sample 0 only
        assert trajs[0].sample_times.size == 1
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
        w = rng.uniform(size=(size, n, n))
        w = (w + np.swapaxes(w, -1, -2)) * (1.0 - np.eye(n))
        batched = {
            "chain_axes": chain_axes(kets),
            "geometry_axes": geometry_axes(x, t),
            "geometry_axes_stack": geometry_axes(x, w),
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
                "geometry_axes_stack": geometry_axes(x[b], Topology(w[b])),
                "step": dynamics._step_kets(kets[b], axes[b], 0.1),
                "rotate": dynamics._rotate_vectors(x[b], axes[b], 0.1),
                "V": dynamics._consecutive_v(kets[b]),
                "error": dynamics._pairwise_error(x[b]),
                "angle": dynamics._max_pairwise_angle(x[b]),
            }
            for name, value in single.items():
                np.testing.assert_allclose(batched[name][b], value,
                                           rtol=0, atol=1e-12, err_msg=name)


def _assert_identical_run(batched, single):
    np.testing.assert_array_equal(batched.sample_times, single.sample_times)
    np.testing.assert_array_equal(batched.samples, single.samples)
    assert batched.metrics.keys() == single.metrics.keys()
    for name in single.metrics:
        np.testing.assert_array_equal(batched.metrics[name], single.metrics[name])


class TestTopologyList:
    """A list of B topologies gives each (B, N, .) batch member its own."""

    WEIGHTED = from_edge_list("1 2 0.5\n2 3 2.0\n1 3 0.25\n")

    def _cap_kets(self, rng, size, n=3):
        pts = np.array([0.0, 0.0, 1.0]) + 0.6 * rng.normal(size=(size, n, 3))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        return np.array([[ket_from_bloch(u) for u in p] for p in pts])

    def test_geometry_members_stop_on_their_own_topology(self):
        topologies = [chain(3), complete(3), self.WEIGHTED]
        kets = self._cap_kets(np.random.default_rng(71), 1)[0]
        kets = np.array([kets] * 3)
        cfg = IntegratorConfig(dt=1e-2, t_max=20.0, sample_every=5,
                               stop_threshold=1e-3, stop_metric="pure_state_error")
        trajs = simulate_network(kets, topologies, "geometry", cfg, gain=2.0)
        lengths = [traj.sample_times.size for traj in trajs]
        # every member stops on its own sample, so the weight stack is gathered
        assert len(set(lengths)) == 3 and max(lengths) < 401
        for member, t, traj in zip(kets, topologies, trajs):
            _assert_identical_run(traj, simulate_network(member, t, "geometry",
                                                         cfg, gain=2.0))

    def test_one_element_list(self):
        kets = self._cap_kets(np.random.default_rng(72), 1)
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0, sample_every=5)
        (traj,) = simulate_network(kets, [self.WEIGHTED], "geometry", cfg)
        _assert_identical_run(traj, simulate_network(kets[0], self.WEIGHTED,
                                                     "geometry", cfg))

    def test_chain_protocol_list(self):
        kets = self._cap_kets(np.random.default_rng(73), 3, n=4)
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0, sample_every=5,
                               stop_threshold=0.05)
        listed = simulate_network(kets, [chain(4)] * 3, "chain", cfg)
        for traj, shared in zip(listed, simulate_network(kets, chain(4), "chain", cfg)):
            _assert_identical_run(traj, shared)

    @pytest.mark.parametrize("protocol, topologies, match", [
        ("geometry", [chain(3), complete(3)], "2 topologies"),
        ("geometry", [chain(3), chain(4), complete(3)],
         r"3-node topology \(batch members \[1\]\)"),
        ("geometry", [chain(3), complete(3),
                      Topology(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]]))],
         r"connected topology \(batch members \[2\]\)"),
        ("chain", [chain(3), complete(3), chain(3)],
         r"chain topology \(batch members \[1\]\)"),
    ])
    def test_rejects_a_bad_list(self, protocol, topologies, match):
        kets = self._cap_kets(np.random.default_rng(74), 3)
        with pytest.raises(ValueError, match=match):
            simulate_network(kets, topologies, protocol, IntegratorConfig(t_max=0.1))

    def test_rejects_a_list_with_unbatched_kets(self):
        kets = self._cap_kets(np.random.default_rng(75), 1)[0]
        with pytest.raises(ValueError, match="batch of kets"):
            simulate_network(kets, [chain(3)], "geometry", IntegratorConfig(t_max=0.1))

    @pytest.mark.parametrize("shape", [(4, 3), (4, 2, 3), (8,), (1, 4, 2, 1)])
    def test_rejects_states_of_the_wrong_width(self, shape):
        # four Bloch vectors given as kets: not read as six kets
        with pytest.raises(ValueError, match=r"expected \(N, 2\) states or a \(B, N, 2\) "
                                             rf"batch, got {re.escape(str(shape))}"):
            simulate_network(np.ones(shape), chain(4), "chain", IntegratorConfig(t_max=0.1))

    def test_sphere_rejects_kets(self):
        with pytest.raises(ValueError, match=r"expected \(N, 3\) states"):
            simulate_sphere(np.ones((4, 2)), chain(4), IntegratorConfig(t_max=0.1))


class TestProtocolList:
    """One protocol and one gain per call: a list of either is rejected
    before the first step, and the per-protocol rules hold per call."""

    INSIDE = np.array([[0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8]])
    OUTSIDE = np.array([[0, 0, 1], [1, 0, 0], [0, 0, -1.0]])

    def _kets(self, *points):
        return np.array([[ket_from_bloch(u) for u in p] for p in points])

    @pytest.mark.parametrize("protocols, gains", [(["chain"], 1.0), ("chain", [1.0])])
    def test_rejects_a_list_with_unbatched_kets(self, protocols, gains):
        with pytest.raises(ValueError, match="unknown protocol|one float per call"):
            simulate_network(self._kets(self.INSIDE)[0], chain(3), protocols,
                             IntegratorConfig(t_max=0.1), gain=gains)

    @pytest.mark.parametrize("protocols, gains, match", [
        (["chain", "chain"], 1.0, r"unknown protocol \['chain', 'chain'\]"),
        (["chain", "geometry"], 1.0, r"unknown protocol \['chain', 'geometry'\]"),
        ("chain", [1.0, 1.0], r"one float per call, got \[1.0, 1.0\]"),
        ("geometry", (1.0, 2.0), r"one float per call, got \(1.0, 2.0\)"),
    ], ids=["chain-list", "mixed-list", "gain-list", "gain-tuple"])
    def test_rejects_a_protocol_or_gain_list_before_stepping(self, monkeypatch, protocols,
                                                             gains, match):
        def no_step(*args):
            raise AssertionError("stepped with a protocol or gain list")

        monkeypatch.setattr(dynamics, "_step_kets", no_step)
        kets = self._kets(self.INSIDE, self.INSIDE)
        with pytest.raises(ValueError, match=match):
            simulate_network(kets, chain(3), protocols, IntegratorConfig(t_max=0.1),
                             gain=gains)

    @pytest.mark.parametrize("protocol", ["chain", "geometry"])
    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
    def test_rejects_a_non_finite_gain_before_stepping(self, monkeypatch, protocol, gain):
        def no_step(*args):
            raise AssertionError("stepped with a non-finite gain")

        monkeypatch.setattr(dynamics, "_step_kets", no_step)
        kets = self._kets(self.INSIDE, self.INSIDE)
        with pytest.raises(ValueError, match="gain must be finite"):
            simulate_network(kets, chain(3), protocol, IntegratorConfig(t_max=0.1),
                             gain=gain)
        if np.ndim(gain) == 0:
            with pytest.raises(ValueError, match="gain must be finite"):
                simulate_network(kets[0], chain(3), protocol,
                                 IntegratorConfig(t_max=0.1), gain=gain)

    def test_hemisphere_warning_names_only_geometric_members(self):
        kets = self._kets(self.INSIDE, self.OUTSIDE, self.INSIDE, self.OUTSIDE)
        cfg = IntegratorConfig(t_max=0.01)
        with pytest.warns(UserWarning, match=r"members \[1, 3\] are not"):
            simulate_network(kets, [chain(3), complete(3), complete(3), chain(3)],
                             "geometry", cfg)
        with pytest.warns(UserWarning, match=r"members \[0\] are not"):
            simulate_network(kets[1:3], [complete(3), chain(3)], "geometry", cfg)
        with pytest.warns(UserWarning, match=r"^initial Bloch vectors are not"):
            simulate_network(kets[1], complete(3), "geometry", cfg)
        with warnings.catch_warnings():  # the chain protocol makes no such claim
            warnings.simplefilter("error")
            simulate_network(kets, chain(3), "chain", cfg)

    def test_w_max_only_for_all_chain_batches(self):
        kets = self._kets(self.INSIDE, self.OUTSIDE)
        cfg = IntegratorConfig(dt=1e-2, t_max=0.1)
        for protocol, has in [("chain", True), ("geometry", False)]:
            runs = simulate_network(kets[[0, 0]], chain(3), protocol, cfg)
            runs.append(simulate_network(kets[0], chain(3), protocol, cfg))
            for run in runs:
                assert ("W_max" in run.metrics) == has


class TestStopMetric:
    def test_unknown_metric_rejected_before_stepping(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped before validating stop_metric")

        monkeypatch.setattr(dynamics, "_step_kets", no_step)
        kets = np.array([ket_from_bloch(u) for u in
                         ([0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8], [0.6, 0, 0.8])])
        cfg = IntegratorConfig(t_max=0.1, stop_threshold=-1e-2, stop_metric="W_max")
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


def _hand_stepped(kets, t, protocol, gain, cfg):
    """Every sample of a network run stepped by hand, (S, ..., N, 2): the
    kernels called without a workspace, the axes scaled by a plain multiply."""
    weights = np.array([tb.weights for tb in t]) if isinstance(t, list) else t.weights
    x, snaps = kets, [kets]
    for _ in range(cfg.n_steps):
        if protocol == "chain":
            axes = gain * chain_axes(x)
        else:
            axes = (0.5 * gain) * geometry_axes(dynamics._bloch_batch(x), weights)
        x = dynamics._step_kets(x, axes, cfg.dt)
        snaps.append(x)
    return np.array(snaps)


def _nan_work(made):
    """A step_work that fills every buffer with NaN (masks with True) and
    records each workspace it makes in made."""
    def factory(*args):
        work = step_work(*args)
        for buf in work.values():
            buf[...] = True if buf.dtype == bool else np.nan
        made.append(work)
        return work
    return factory


@st.composite
def workspace_runs(draw):
    """(kets, topology or list, protocol, gain): chain or geometric, one
    network or a batch, one shared topology or a list of them."""
    protocol = draw(st.sampled_from(["chain", "geometry"]))
    gain = draw(st.sampled_from([1.0, 2.0, 0.7]))
    n = draw(st.integers(2, 5))
    size = draw(st.sampled_from([None, 1, 3]))
    listed = size is not None and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # points about +z, reflected into the upper hemisphere as
    # experiments.hemisphere_points does: inside an open hemisphere, so no warning
    pts = np.array([0.0, 0.0, 1.0]) + 0.6 * rng.normal(size=(size or 1, n, 3))
    pts[..., 2] = np.abs(pts[..., 2])
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    kets = np.array([[ket_from_bloch(u) for u in p] for p in pts])
    kets = kets if size else kets[0]
    shared = [chain(n)] if protocol == "chain" else [chain(n), complete(n)]
    t = draw(st.sampled_from(shared))
    if listed:
        t = [draw(st.sampled_from(shared)) for _ in range(size)]
    return kets, t, protocol, gain


class TestStepWorkspace:
    """simulate_network steps every member through one workspace made once
    per run; its bytes are those of the kernels called without one."""

    CFG = IntegratorConfig(dt=1e-2, t_max=2.0)  # 200 steps, every one kept

    @staticmethod
    def _samples(run):
        runs = run if isinstance(run, list) else [run]
        return np.stack([traj.samples for traj in runs], axis=1)  # (S, B, N, 2)

    @settings(max_examples=40, deadline=None)
    @given(workspace_runs())
    def test_equals_the_hand_stepped_kernels(self, case):
        kets, t, protocol, gain = case
        want = _hand_stepped(kets, t, protocol, gain, self.CFG)
        want = want if kets.ndim == 3 else want[:, None]
        got = self._samples(simulate_network(kets, t, protocol, self.CFG, gain=gain))
        assert got.tobytes() == want.tobytes()
        # no buffer is read before it is written: NaN-filled ones change nothing
        made = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "step_work", _nan_work(made))
            run = simulate_network(kets, t, protocol, self.CFG, gain=gain)
        assert self._samples(run).tobytes() == want.tobytes()
        # the kept samples are not views of a workspace: overwriting them all
        # after the run leaves the samples as they were
        kept = [traj.samples for traj in (run if isinstance(run, list) else [run])]
        buffers = [buf for work in made for buf in work.values()]
        assert buffers and not any(np.shares_memory(s, buf) for s in kept for buf in buffers)
        for buf in buffers:
            buf[...] = True if buf.dtype == bool else np.nan
        assert self._samples(run).tobytes() == want.tobytes()

    def test_sphere_equals_the_hand_stepped_kernels(self):
        rng = np.random.default_rng(81)
        x = np.array([0.0, 0.0, 1.0]) + 0.6 * rng.normal(size=(3, 4, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        t = complete(4)
        want = [x]
        for _ in range(self.CFG.n_steps):
            want.append(dynamics._rotate_vectors(want[-1], geometry_axes(want[-1], t),
                                                 self.CFG.dt))
        got = np.stack([traj.samples for traj in simulate_sphere(x, t, self.CFG)], axis=1)
        assert got.tobytes() == np.array(want).tobytes()


def _per_sample_driver(x, step, record, names, cfg):
    """The stepping driver as it was when record(x) gave every series at
    every kept sample: the oracle of the split record, returned as the
    record _integrate returns."""
    stop = None
    if cfg.stop_threshold is not None:
        stop = names.index(cfg.stop_metric)
    single = x.ndim == 2
    steps, snaps, values = [0], [x], [np.stack(record(x))]
    ends = np.full(1 if single else x.shape[0], -1)

    def settled():
        """Stop the members below the threshold at the last sample; True once all are."""
        if stop is None:
            return False
        ends[(ends < 0) & (values[-1][stop] < cfg.stop_threshold)] = len(steps) - 1
        return (ends >= 0).all()

    n_steps = cfg.n_steps
    if not settled():  # sample 0 is tested too, as settling_time reads it
        for k in range(1, n_steps + 1):
            x = step(x)
            if k % cfg.sample_every and k != n_steps:
                continue
            steps.append(k)
            snaps.append(x)
            values.append(np.stack(record(x)))
            if settled():
                break
    if single:  # recorded as a batch of one
        snaps, values = [s[None] for s in snaps], [v[:, None] for v in values]
    series = np.stack(values, axis=-1)  # (names, B, S)
    return np.array(steps) * cfg.dt, np.stack(snaps, axis=1), dict(zip(names, series)), ends


def _network_record(protocol):
    def record(x):
        out = [dynamics._consecutive_v(x),
               dynamics._pairwise_error(dynamics._bloch_batch(x))]
        if protocol == "chain":
            out.append(lyapunov_decay_terms(x).max(axis=-1))
        return out

    return record


def _sphere_record(x):
    return dynamics._max_pairwise_angle(x), dynamics._pairwise_error(x)


def _pair_record(x):
    cxy = _coherence(x)
    d = (x[:, 0] - x[:, 1]).reshape(-1, 4)
    dist = np.sqrt(np.vecdot(d.real, d.real) + np.vecdot(d.imag, d.imag))
    return cxy[:, 0], cxy[:, 1], dist


def _run_and_oracle(run, record, module=dynamics):
    """(result, _integrate record) of run() as it is, and of run() with
    module._integrate swapped for the per-sample oracle driver fed by record."""
    integrate, records = module._integrate, []

    def real(*args):
        records.append(integrate(*args))
        return records[-1]

    def oracle(x, step, series, cfg, per_sample=(), keep_samples=True):
        assert keep_samples
        records.append(_per_sample_driver(x, step, record, tuple(series), cfg))
        return records[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_integrate", real)
        got = run()
        mp.setattr(module, "_integrate", oracle)
        want = run()
    return (got, records[0]), (want, records[1])


_SERIES_NAMES = {"chain": ["V", "pure_state_error", "W_max"],
                 "geometry": ["V", "pure_state_error"],
                 "sphere": ["max_angle", "pure_state_error"]}


@st.composite
def split_runs(draw):
    """A chain, geometry or sphere run: B 1-5 members of N 2-6 qubits
    spread from identical to uniform, sample_every 1-7, no threshold or
    one on any recorded series, and a series block from 1 sample up."""
    kind = draw(st.sampled_from(sorted(_SERIES_NAMES)))
    n, size = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spreads = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]),
                            min_size=size, max_size=size))
    pts = np.array([0.0, 0.0, 1.0]) + (np.array(spreads)[:, None, None]
                                       * rng.normal(size=(size, n, 3)))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    if size == 1 and draw(st.booleans()):
        pts = pts[0]  # a plain (N, 3) run, without a batch axis
    metric = draw(st.sampled_from([None] + _SERIES_NAMES[kind]))
    threshold = None
    if metric is not None:
        threshold = draw(st.floats(1e-4, 1.0)) * (-1.0 if metric == "W_max" else 1.0)
    cfg = IntegratorConfig(dt=0.05, t_max=0.05 * draw(st.integers(1, 40)),
                           sample_every=draw(st.integers(1, 7)),
                           stop_threshold=threshold, stop_metric=metric or "V")
    topology = chain(n) if kind == "chain" else draw(st.sampled_from([chain(n), complete(n)]))
    block = draw(st.sampled_from([1, 40, 300, dynamics._SERIES_BLOCK]))
    return kind, pts, topology, cfg, block


def _assert_ends_at_settling(run, cfg):
    """Each member of a thresholded run ends at its settling time on the
    config's stop, or at n_steps * dt when it never settles."""
    spec = SettlingSpec(cfg.stop_threshold, cfg.stop_metric)
    for traj in run if isinstance(run, list) else [run]:
        settle = settling_time(traj, spec)
        assert traj.sample_times[-1] == (cfg.n_steps * cfg.dt if settle is None else settle)


def _assert_records_equal(got, want):
    """Times, (B, S, ...) samples, (B, S) series in order, and stop samples."""
    (times, samples, metrics, ends), (w_times, w_samples, w_metrics, w_ends) = got, want
    np.testing.assert_array_equal(times, w_times, strict=True)
    np.testing.assert_array_equal(samples, w_samples, strict=True)
    assert list(metrics) == list(w_metrics)
    for name, series in w_metrics.items():
        np.testing.assert_array_equal(metrics[name], series, err_msg=name, strict=True)
    np.testing.assert_array_equal(ends, w_ends, strict=True)


class TestSplitRecord:
    """Series computed after the run over the stacked samples equal the
    series recorded one kept sample at a time."""

    @settings(max_examples=80, deadline=None)
    @given(split_runs())
    def test_equals_per_sample_oracle(self, case):
        kind, pts, topology, cfg, block = case
        if kind == "sphere":
            def run():
                return simulate_sphere(pts, topology, cfg)

            record = _sphere_record
        else:
            kets = np.apply_along_axis(ket_from_bloch, -1, pts)

            def run():
                return simulate_network(kets, topology, kind, cfg)

            record = _network_record(kind)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("ignore", UserWarning)  # outside a hemisphere
            mp.setattr(dynamics, "_SERIES_BLOCK", block)
            (result, got), (_, want) = _run_and_oracle(run, record)
        _assert_records_equal(got, want)
        if cfg.stop_threshold is not None:
            _assert_ends_at_settling(result, cfg)

    def test_protected_pair_equals_per_sample_oracle(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_SERIES_BLOCK", 100)  # 4 samples a block
        a = density_from_bloch([0.6, 0.1, 0.2])
        b = density_from_bloch([0.1, 0.7, -0.1])
        cfg = IntegratorConfig(dt=1e-4, t_max=0.03, sample_every=7)

        def run():
            return simulate_protected_pair(a, b, NoiseParams(), cfg, [11, 12, 13],
                                           feedback=[True, False, True])

        (got, got_record), (want, want_record) = _run_and_oracle(run, _pair_record, decoherence)
        _assert_records_equal(got_record, want_record)
        for name in ("sample_times", "coherence", "distance", "final_rhos",
                     "suspended_steps"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_series_temporaries_stay_small(self):
        """A heatmap-shaped run: 64 two-qubit chain members sampled every
        step, 1 001 samples, no stop. Its allocations peak at the kept
        samples twice (the snapshots and their one stacked copy) plus less
        than 1 MB, the per-sample W_max series included."""
        rng = np.random.default_rng(5)
        kets = np.array([sphere_kets(rng, 2) for _ in range(64)])
        cfg = IntegratorConfig(dt=1e-3, t_max=1.0)
        tracemalloc.start()
        try:
            trajs = simulate_network(kets, chain(2), "chain", cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = trajs[0].sample_times.size * kets.nbytes
        assert trajs[0].sample_times.size == 1001
        assert peak - 2 * kept < 2**20

    def test_stop_sample_per_member(self):
        rng = np.random.default_rng(61)
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0, sample_every=2, stop_threshold=0.1)
        pts = _mixed_batch(rng, 4, 1e-2)
        kets = np.array([[ket_from_bloch(u) for u in p] for p in pts])
        trajs = simulate_network(kets, chain(4), "chain", cfg)
        # settled at t = 0, stopped part way, never stopped
        assert [t.sample_times.size for t in trajs][::2] == [1, 51]
        assert 1 < trajs[1].sample_times.size < 51
        spec = SettlingSpec(cfg.stop_threshold, cfg.stop_metric)
        assert [settling_time(t, spec) for t in trajs] == [0.0, trajs[1].sample_times[-1], None]
        assert simulate_network(kets[0], chain(4), "chain", cfg).sample_times.tolist() == [0.0]
        unbounded = IntegratorConfig(dt=1e-2, t_max=0.1)
        assert simulate_network(kets[0], chain(4), "chain", unbounded).sample_times.size == 11


@st.composite
def stopped_runs(draw):
    """A chain-pair batch or a small 2 x 2 grid batch (or a plain run of
    either) with a stop threshold on V or pure_state_error."""
    grid_run = draw(st.booleans())
    size = draw(st.integers(1, 3 if grid_run else 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = _unit_rows(rng.normal(size=(size, 4 if grid_run else 2, 3)))
    if grid_run:
        pts[..., 2] = np.abs(pts[..., 2])  # in the upper hemisphere
    kets = np.apply_along_axis(ket_from_bloch, -1, pts)
    if size == 1 and draw(st.booleans()):
        kets = kets[0]
    metric = draw(st.sampled_from(["V", "pure_state_error"]))
    cfg = IntegratorConfig(dt=draw(st.sampled_from([1e-2, 5e-2])),
                           t_max=draw(st.sampled_from([0.5, 3.0, 20.0])),
                           sample_every=draw(st.integers(1, 5)),
                           stop_threshold=draw(st.floats(1e-4, 0.5)), stop_metric=metric)
    if grid_run:
        return kets, grid(2), "geometry", 2.0, cfg
    return kets, chain(2), "chain", 1.0, cfg


class TestRunsWithoutSamples:
    """A run that keeps no samples gives each member's settling time at the
    config's stop: settling_time of the run that keeps them."""

    @staticmethod
    def _settling_times(kets, topology, protocol, gain, cfg):
        """The stop-only run's times, checked against the sample-keeping run."""
        want = simulate_network(kets, topology, protocol, cfg, gain=gain)
        got = simulate_network(kets, topology, protocol, cfg, gain=gain, keep_samples=False)
        if kets.ndim == 2:  # an unbatched run gives the bare value
            assert got is None or type(got) is float
            got, want = [got], [want]
        spec = SettlingSpec(cfg.stop_threshold, cfg.stop_metric)
        assert got == [settling_time(w, spec) for w in want]
        _assert_ends_at_settling(want, cfg)
        return got

    @settings(max_examples=40, deadline=None)
    @given(stopped_runs())
    def test_equals_the_sample_keeping_run(self, case):
        self._settling_times(*case)

    def test_settled_at_t0_and_never_settled(self):
        # sample 0 is tested in both modes, as settling_time reads it
        rng = np.random.default_rng(61)
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0, sample_every=2, stop_threshold=0.1)
        kets = np.array([[ket_from_bloch(u) for u in p] for p in _mixed_batch(rng, 4, 1e-2)])
        got = self._settling_times(kets, chain(4), "chain", 1.0, cfg)
        assert got[0] == 0.0 and 0.0 < got[1] < 1.0 and got[2] is None
        assert self._settling_times(kets[0], chain(4), "chain", 1.0, cfg) == [0.0]
        assert self._settling_times(kets[2], chain(4), "chain", 1.0, cfg) == [None]

    @pytest.mark.parametrize("t_max", [0.5, 2.0])
    def test_keeps_no_series(self, t_max):
        """64 chain pairs that never settle, every step sampled: the run's
        allocations peak below one (B, S) float series, however long it runs."""
        rng = np.random.default_rng(5)
        kets = np.array([sphere_kets(rng, 2) for _ in range(64)])
        cfg = IntegratorConfig(dt=1e-3, t_max=t_max, stop_threshold=1e-30)
        tracemalloc.start()
        try:
            got = simulate_network(kets, chain(2), "chain", cfg, keep_samples=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * (cfg.n_steps + 1) * 8
        assert got == [None] * 64

    @pytest.mark.parametrize("keep_samples", [True, False])
    def test_settled_at_t0_takes_no_step(self, monkeypatch, keep_samples):
        def no_step(*args):
            raise AssertionError("stepped a batch settled at t = 0")

        monkeypatch.setattr(dynamics, "_step_kets", no_step)
        # every member agrees at t = 0, so its V is 0 to rounding
        kets = np.tile(sphere_kets(np.random.default_rng(8), 1), (2, 3, 1))
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0, stop_threshold=1e-6)
        got = simulate_network(kets, chain(3), "chain", cfg, keep_samples=keep_samples)
        if keep_samples:
            assert [t.sample_times.tolist() for t in got] == [[0.0], [0.0]]
        else:
            assert got == [0.0, 0.0]

    def test_needs_a_stop_threshold(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a run that records nothing")

        monkeypatch.setattr(dynamics, "_step_kets", no_step)
        kets = sphere_kets(np.random.default_rng(3), 2)
        with pytest.raises(ValueError, match="needs a stop_threshold"):
            simulate_network(kets, chain(2), "chain", IntegratorConfig(t_max=1.0),
                             keep_samples=False)

    def test_limit_is_on_the_kept_stop_series(self, monkeypatch):
        rng = np.random.default_rng(5)
        kets = np.array([sphere_kets(rng, 4) for _ in range(3)])
        cfg = IntegratorConfig(dt=1e-2, t_max=100.0, sample_every=5, stop_threshold=0.1)
        want = simulate_network(kets, chain(4), "chain", cfg, keep_samples=False)
        assert None not in want
        kept = round(max(want) / (cfg.dt * cfg.sample_every)) + 1  # samples to the last stop
        # one 8-byte sample time per kept sample, far less than the kets
        monkeypatch.setattr(dynamics, "_MAX_SAMPLE_BYTES", kept * 8)
        assert simulate_network(kets, chain(4), "chain", cfg, keep_samples=False) == want
        with pytest.raises(ValueError, match="kept samples went over"):
            simulate_network(kets, chain(4), "chain", cfg)
        monkeypatch.setattr(dynamics, "_MAX_SAMPLE_BYTES", kept * 8 - 1)
        with pytest.raises(ValueError, match=f"after {5 * (kept - 1)} of 10000 steps"):
            simulate_network(kets, chain(4), "chain", cfg, keep_samples=False)


class TestSampleBudget:
    def test_rejects_before_the_first_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a run whose samples cannot fit")

        monkeypatch.setattr(dynamics, "_step_kets", no_step)
        kets = sphere_kets(np.random.default_rng(3), 5)
        cfg = IntegratorConfig(dt=1e-9, t_max=50.0, sample_every=5)
        with pytest.raises(ValueError, match="GiB of samples"):
            simulate_network(kets, chain(5), "chain", cfg)

    def test_limit_is_on_the_kept_sample_bytes(self, monkeypatch):
        # 10 steps sampled every 5 keep at most 10 // 5 + 2 = 4 samples
        kets = sphere_kets(np.random.default_rng(3), 3)
        cfg = IntegratorConfig(dt=0.1, t_max=1.0, sample_every=5)
        monkeypatch.setattr(dynamics, "_MAX_SAMPLE_BYTES", 4 * kets.nbytes)
        assert simulate_network(kets, chain(3), "chain", cfg).sample_times.size == 3
        monkeypatch.setattr(dynamics, "_MAX_SAMPLE_BYTES", 4 * kets.nbytes - 1)
        with pytest.raises(ValueError, match="GiB of samples"):
            simulate_network(kets, chain(3), "chain", cfg)

    def test_thresholded_run_is_judged_on_the_samples_it_keeps(self, monkeypatch):
        rng = np.random.default_rng(5)
        kets = np.array([sphere_kets(rng, 4) for _ in range(3)])
        # 10 000 steps could keep 2 002 samples; every member stops long before
        cfg = IntegratorConfig(dt=1e-2, t_max=100.0, sample_every=5, stop_threshold=0.1)
        want = simulate_network(kets, chain(4), "chain", cfg)
        kept = max(t.sample_times.size for t in want)
        spec = SettlingSpec(cfg.stop_threshold)
        assert all(settling_time(t, spec) == t.sample_times[-1] for t in want)
        assert kept < 2002 // 4
        monkeypatch.setattr(dynamics, "_MAX_SAMPLE_BYTES", kept * kets.nbytes)
        got = simulate_network(kets, chain(4), "chain", cfg)
        for g, w in zip(got, want):
            assert np.array_equal(g.sample_times, w.sample_times)
            assert np.array_equal(g.samples, w.samples)
        monkeypatch.setattr(dynamics, "_MAX_SAMPLE_BYTES", kept * kets.nbytes - 1)
        with pytest.raises(ValueError, match=f"after {5 * (kept - 1)} of 10000 steps"):
            simulate_network(kets, chain(4), "chain", cfg)

    def test_settled_run_with_a_huge_step_count_runs(self):
        # 5e10 steps would keep far over the limit; the agreed network stops at once
        kets = np.tile(sphere_kets(np.random.default_rng(8), 1), (3, 1))
        cfg = IntegratorConfig(dt=1e-9, t_max=50.0, stop_threshold=1e-6)
        traj = simulate_network(kets, chain(3), "chain", cfg)
        assert traj.sample_times.tolist() == [0.0]
        assert settling_time(traj, SettlingSpec(cfg.stop_threshold)) == 0.0


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
        r = self._rk4_states(rho, chain(2), cfg.dt, 1000, cfg.sample_every)[-1]
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
        # the symmetric member stops at sample 0, the narrow spread part
        # way, and the wide spread runs to t_max
        assert stops[0] == 0
        assert 0 < stops[1] < stops[2]
        assert runs[2].sample_times[-1] == pytest.approx(3.0)
        assert runs[2].metrics["composite_distance"][-1] >= 1e-2
        d = runs[1].metrics["composite_distance"]
        assert d[-1] < 1e-2 <= d[-2]

    def test_stop_sample_per_member(self):
        rho = self._members()
        cfg = IntegratorConfig(dt=1e-2, t_max=3.0, sample_every=10,
                               stop_threshold=1e-2, stop_metric="composite_distance")
        runs = simulate_qcme(rho, chain(3), cfg)
        # settled at t = 0, stopped part way, never stopped
        spec = SettlingSpec(cfg.stop_threshold, cfg.stop_metric)
        assert [settling_time(r, spec) for r in runs] == [0.0, runs[1].sample_times[-1], None]
        _assert_ends_at_settling(runs, cfg)
        assert simulate_qcme(rho[0], chain(3), cfg).sample_times.tolist() == [0.0]
        unbounded = IntegratorConfig(dt=1e-2, t_max=0.5)
        assert simulate_qcme(rho[0], chain(3), unbounded).sample_times[-1] == 0.5

    def test_stop_metric_must_be_the_distance(self):
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0, stop_threshold=1e-2)
        with pytest.raises(ValueError, match="composite_distance"):
            simulate_qcme(self._members()[1], chain(3), cfg)

    @staticmethod
    def _rk4_states(rho, topology, dt, n_steps, sample_every):
        from qubitnet.protocols import qcme_generator

        gen = qcme_generator(topology)
        out = [rho]
        for k in range(1, n_steps + 1):
            k1 = gen(rho)
            k2 = gen(rho + 0.5 * dt * k1)
            k3 = gen(rho + 0.5 * dt * k2)
            k4 = gen(rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k % sample_every == 0 or k == n_steps:
                out.append(rho)
        return np.array(out)

    def test_matches_rk4(self):
        # the exact flow against classic RK4 on the generator at dt 1e-3,
        # whose global error is far below the tolerance
        rho = self._members()[2]
        cfg = IntegratorConfig(dt=1e-3, t_max=2.0, sample_every=50)
        ref = self._rk4_states(rho, complete(3), cfg.dt, 2000, 50)
        traj = simulate_qcme(rho, complete(3), cfg)
        np.testing.assert_array_equal(traj.sample_times, np.arange(0, 2001, 50) * cfg.dt)
        states = dynamics._qcme_flow(rho[None], complete(3))(traj.sample_times)[0]
        np.testing.assert_allclose(states, ref, rtol=0, atol=1e-10)
        d_ref = np.linalg.norm(ref - quantum_average(rho), 2, axis=(-2, -1))
        np.testing.assert_allclose(traj.metrics["composite_distance"], d_ref,
                                   rtol=0, atol=1e-10)

    def test_last_sample_is_the_last_step(self):
        # t_max = 0.37 is not a multiple of sample_every * dt = 0.1
        cfg = IntegratorConfig(dt=1e-2, t_max=0.37, sample_every=10)
        traj = simulate_qcme(self._members()[2], chain(3), cfg)
        np.testing.assert_array_equal(traj.sample_times,
                                      np.array([0, 10, 20, 30, 37]) * 1e-2)
        assert traj.metrics["composite_distance"].shape == (5,)

    def test_blocks_do_not_change_the_run(self, monkeypatch):
        rho = self._members()
        cfg = IntegratorConfig(dt=1e-2, t_max=3.0, sample_every=10,
                               stop_threshold=1e-2, stop_metric="composite_distance")
        whole = simulate_qcme(rho, chain(3), cfg)
        monkeypatch.setattr(dynamics, "_QCME_BLOCK", 4)
        for run, blocked in zip(whole, simulate_qcme(rho, chain(3), cfg)):
            np.testing.assert_array_equal(run.sample_times, blocked.sample_times)
            # a block size changes the matrix products' shapes, so rounding only
            np.testing.assert_allclose(run.metrics["composite_distance"],
                                       blocked.metrics["composite_distance"],
                                       rtol=0, atol=1e-15)

    def test_rejects_five_qubits(self):
        with pytest.raises(ValueError, match="4 qubits"):
            simulate_qcme(np.eye(32) / 32, chain(5), IntegratorConfig(t_max=0.1))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([chain(2), chain(3), complete(3)]),
           st.floats(1e-3, 1.0), st.data())
    def test_sampled_states_are_valid(self, topology, dt, data):
        # every sample of the flow is a density matrix with the initial
        # quantum average, and the distance to it never grows
        dim = 2**topology.n
        rank = data.draw(st.integers(1, dim))
        size = data.draw(st.integers(1, 3))
        a = data.draw(arrays(float, (size, 2, dim, rank), elements=st.floats(-1, 1)))
        a = a[:, 0] + 1j * a[:, 1]
        rho = a @ np.swapaxes(a.conj(), -1, -2)
        tr = np.trace(rho, axis1=-2, axis2=-1).real
        assume(np.all(tr > 1e-3))
        rho /= tr[:, None, None]
        avg = quantum_average(rho)[:, None]
        states = dynamics._qcme_flow(rho, topology)(np.arange(30) * dt)
        np.testing.assert_allclose(np.trace(states, axis1=-2, axis2=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(states, np.swapaxes(states.conj(), -1, -2), atol=1e-12)
        assert np.linalg.eigvalsh(states).min() >= -1e-12
        np.testing.assert_allclose(quantum_average(states), np.broadcast_to(avg, states.shape),
                                   atol=1e-12)
        d = np.linalg.norm(states - avg, 2, axis=(-2, -1))
        assert np.all(np.diff(d, axis=-1) <= 1e-12)

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

    def test_no_samples_raises_before_writing(self, tmp_path):
        traj = Trajectory(sample_times=np.array([0.0, 1.0]), samples=None,
                          metrics={"V": np.array([1.0, 0.5])})
        p = tmp_path / "none.csv"
        with pytest.raises(ValueError, match="no per-qubit samples"):
            traj.to_csv(p)
        assert not p.exists()

    def test_bloch_of_a_long_run_stays_small(self):
        """20 001 samples of 9 kets: the conversion goes in blocks, so its
        allocations peak at the (S, N, 3) result plus less than 1 MB."""
        samples = np.random.default_rng(6).normal(size=(20001, 9, 4))
        samples = (samples / np.linalg.norm(samples, axis=-1, keepdims=True)).view(complex)
        traj = Trajectory(np.arange(20001) * 1e-3, samples)
        tracemalloc.start()
        try:
            u = traj.bloch()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - u.nbytes < 2**20
        np.testing.assert_array_equal(u, dynamics._bloch_batch(samples))


def csv_writer_rows(path, header, rows):
    """Oracle: the csv.writer loop the table writer replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row])


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                   5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300])
_FLOATS = st.one_of(_SPECIAL_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
_CELLS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-.0123456789", min_size=1),
)


class TestTableWriter:
    @settings(max_examples=200, deadline=None)
    @given(header=st.lists(st.text(alphabet="abcxyz_0123456789", min_size=1), max_size=6),
           rows=st.lists(st.lists(_CELLS, max_size=8), max_size=12))
    def test_runner_table_matches_csv_writer(self, tmp_path_factory, header, rows):
        d = tmp_path_factory.mktemp("table")
        _write_csv(d / "new.csv", header, rows)
        csv_writer_rows(d / "oracle.csv", header, rows)
        assert (d / "new.csv").read_bytes() == (d / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("protocol", ["chain", "geometry", "sphere"])
    def test_trajectory_csv_matches_csv_writer(self, tmp_path, protocol):
        rng = np.random.default_rng(52)
        cfg = IntegratorConfig(dt=1e-2, t_max=0.5, sample_every=3)
        if protocol == "sphere":
            traj = simulate_sphere(np.array([random_unit(rng) for _ in range(4)]),
                                   grid(2), cfg)
        else:
            traj = simulate_network(sphere_kets(rng, 4), chain(4), protocol, cfg)
        traj.to_csv(tmp_path / "new.csv")
        u, names = traj.bloch(), sorted(traj.metrics)
        header = ["time"] + [f"q{i}_{c}" for i in range(1, 5) for c in "xyz"] + names
        rows = [[t, *u[k].ravel(), *(traj.metrics[m][k] for m in names)]
                for k, t in enumerate(traj.sample_times)]
        csv_writer_rows(tmp_path / "oracle.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
