import itertools
import math

import numpy as np
import pytest

from qubitnet.core import (
    bloch_from_ket,
    cross_vector,
    ket_from_angles,
    ket_from_bloch,
    su2_from_axis_angle,
)
from qubitnet.protocols import (
    AntiparallelStatesError,
    ParallelStatesError,
    chain_axes,
    chain_hamiltonian,
    geometry_axes,
    geometry_axis,
    hamiltonian_to_body_frame,
    min_time,
    min_time_pair_hamiltonians,
    min_time_plan,
    _swap_permutation,
    qcme_generator,
    qubit_permutation,
    two_qubit_axis,
    two_qubit_closed_form_axis,
)
from qubitnet.topology import chain, complete

RNG = np.random.default_rng(7)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestTwoQubitAxis:
    def test_orthogonal_pair(self):
        # z cross x = y
        np.testing.assert_allclose(
            two_qubit_axis([0, 0, 1], [1, 0, 0]), [0, 1, 0], atol=1e-12
        )

    def test_parallel_rejected(self):
        with pytest.raises(ParallelStatesError):
            two_qubit_axis([0, 0, 1], [0, 0, 1])

    def test_antiparallel_rejected(self):
        with pytest.raises(AntiparallelStatesError):
            two_qubit_axis([0, 0, 1], [0, 0, -1])

    def test_axis_orthogonal_to_both(self):
        for _ in range(50):
            ua, ub = random_unit(), random_unit()
            axis = two_qubit_axis(ua, ub)
            assert abs(np.dot(axis, ua)) < 1e-9
            assert abs(np.dot(axis, ub)) < 1e-9
            assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)


class TestMinTime:
    def test_right_angle(self):
        assert min_time([0, 0, 1], [1, 0, 0]) == pytest.approx(
            math.pi / 4, abs=1e-12
        )

    def test_matches_half_separation_angle(self):
        for _ in range(20):
            ua, ub = random_unit(), random_unit()
            ang = math.acos(np.clip(np.dot(ua, ub), -1, 1))
            assert min_time(ua, ub) == pytest.approx(ang / 2, abs=1e-10)

    def test_plan_meets_in_the_middle(self):
        for _ in range(50):
            ua, ub = random_unit(), random_unit()
            plan = min_time_plan(ua, ub)
            h_a, h_b = min_time_pair_hamiltonians(ua, ub)
            np.testing.assert_allclose(h_a, -h_b, atol=1e-12)
            # evolve each ket under exp(-i T n.sigma); the Bloch vector
            # turns at angular rate 2 |n| about the axis
            def evolve(u, ham, t):
                norm = np.linalg.norm(ham)
                rot = su2_from_axis_angle(ham / norm, 2 * norm * t)
                return bloch_from_ket(rot @ ket_from_bloch(u))

            pa = evolve(ua, h_a, plan.meet_time)
            pb = evolve(ub, h_b, plan.meet_time)
            np.testing.assert_allclose(pa, pb, atol=1e-9)


class TestChainAxes:
    def test_two_qubit_reduces_to_cross_vector(self):
        for _ in range(30):
            a = ket_from_bloch(random_unit())
            b = ket_from_bloch(random_unit())
            axes = chain_axes(np.array([a, b]))
            c = cross_vector(a, b)
            np.testing.assert_allclose(axes[0], c, atol=1e-13)
            np.testing.assert_allclose(axes[1], -c, atol=1e-13)

    def test_axes_sum_telescopes_to_zero(self):
        for n in (3, 5, 8):
            states = np.array([ket_from_bloch(random_unit()) for _ in range(n)])
            axes = chain_axes(states)
            np.testing.assert_allclose(axes.sum(axis=0), 0.0, atol=1e-12)

    def test_aligned_chain_is_stationary(self):
        psi = ket_from_bloch(random_unit())
        states = np.array([psi] * 5)
        np.testing.assert_allclose(chain_axes(states), 0.0, atol=1e-12)

    def test_chain_hamiltonian_matches_axes(self):
        states = np.array([ket_from_bloch(random_unit()) for _ in range(4)])
        t = chain(4)
        axes = chain_axes(states)
        for i in range(4):
            np.testing.assert_allclose(
                chain_hamiltonian(states, i, t), axes[i], atol=1e-13
            )

    def test_chain_hamiltonian_rejects_non_chain(self):
        states = np.array([ket_from_bloch(random_unit()) for _ in range(3)])
        with pytest.raises(ValueError):
            chain_hamiltonian(states, 0, complete(3))


class TestClosedFormAxis:
    def test_matches_cross_vector(self):
        for _ in range(200):
            ti, tj = RNG.uniform(0, math.pi, size=2)
            fi, fj = RNG.uniform(0, 2 * math.pi, size=2)
            got = two_qubit_closed_form_axis(ti, fi, tj, fj)
            expect = cross_vector(ket_from_angles(ti, fi), ket_from_angles(tj, fj))
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_known_value(self):
        # theta_i = pi/2, theta_j = 0, equal phases zero:
        # axis = (sin 0 sin pi/4, -cos 0 sin pi/4, -sin 0 cos pi/4)
        got = two_qubit_closed_form_axis(math.pi / 2, 0.0, 0.0, 0.0)
        s = math.sin(math.pi / 4)
        np.testing.assert_allclose(got, [0.0, -s, 0.0], atol=1e-12)


class TestGeometryAxes:
    def test_tangency(self):
        t = complete(4)
        x = np.array([random_unit() for _ in range(4)])
        axes = geometry_axes(x, t)
        for i in range(4):
            assert np.linalg.norm(axes[i]) > 0
            # the rotation axis x_i cross target is orthogonal to x_i
            assert abs(np.dot(axes[i], x[i])) < 1e-12

    def test_matches_scalar_version(self):
        t = chain(4)
        x = np.array([random_unit() for _ in range(4)])
        axes = geometry_axes(x, t)
        for i in range(4):
            nbr = [(x[j], t.weights[i, j]) for j in range(4) if t.weights[i, j] > 0]
            np.testing.assert_allclose(axes[i], geometry_axis(x[i], nbr), atol=1e-12)

    def test_consensus_point_is_stationary(self):
        u = random_unit()
        x = np.array([u] * 5)
        np.testing.assert_allclose(geometry_axes(x, complete(5)), 0.0, atol=1e-12)


class TestBodyFrame:
    def test_round_trips_with_rotation(self):
        for _ in range(20):
            r_axis, ang = random_unit(), RNG.uniform(0, 6)
            u = su2_from_axis_angle(r_axis, ang)
            h_world = random_unit() * RNG.uniform(0.1, 2.0)
            h_body = hamiltonian_to_body_frame(h_world, u)
            # rotating the body axis forward recovers the world axis
            from qubitnet.core import so3_from_su2

            np.testing.assert_allclose(so3_from_su2(u) @ h_body, h_world, atol=1e-9)


class TestQcmeGenerator:
    def test_two_qubit_swap_action(self):
        gen = qcme_generator(chain(2))
        # |01><01| maps toward |10><10| at unit rate
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        out = gen(rho)
        expect = np.zeros((4, 4), dtype=complex)
        expect[2, 2] = 1.0
        expect[1, 1] = -1.0
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_symmetric_state_is_fixed(self):
        gen = qcme_generator(complete(3))
        rho1 = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        rho = np.kron(np.kron(rho1, rho1), rho1)
        np.testing.assert_allclose(gen(rho), 0.0, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        gen = qcme_generator(chain(3))
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = gen(rho)
        assert abs(np.trace(out)) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            qcme_generator(chain(13))

    def test_acts_on_each_matrix_of_a_stack(self):
        gen = qcme_generator(chain(3))
        rng = np.random.default_rng(4)
        rho = rng.normal(size=(3, 8, 8)) + 1j * rng.normal(size=(3, 8, 8))
        out = gen(rho)
        for member, o in zip(rho, out):
            np.testing.assert_array_equal(gen(member), o)


class TestQubitPermutation:
    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_relabels_product_factors(self, perm):
        rng = np.random.default_rng(6)
        factors = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                   for _ in range(3)]
        p = qubit_permutation(3, perm)
        rho = np.kron(np.kron(factors[0], factors[1]), factors[2])
        moved = [None] * 3
        for k in range(3):
            moved[perm[k]] = factors[k]
        expect = np.kron(np.kron(moved[0], moved[1]), moved[2])
        np.testing.assert_allclose(rho[p[:, None], p], expect, atol=1e-12)

    @pytest.mark.parametrize("j, k", [(0, 1), (0, 2), (1, 2)])
    def test_swap_exchanges_two_factors(self, j, k):
        rng = np.random.default_rng(9)
        factors = [rng.normal(size=(2, 2)) for _ in range(3)]
        swapped = list(factors)
        swapped[j], swapped[k] = factors[k], factors[j]
        p = _swap_permutation(3, j, k)
        rho = np.kron(np.kron(factors[0], factors[1]), factors[2])
        expect = np.kron(np.kron(swapped[0], swapped[1]), swapped[2])
        np.testing.assert_allclose(rho[p[:, None], p], expect, atol=1e-12)
