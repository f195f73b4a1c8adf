import itertools
import math

import numpy as np
import pytest

from qubitnet.core import (
    PAULI,
    bloch_from_density,
    conjugate,
    decompose,
    density_from_bloch,
    ket_from_angles,
    ket_from_bloch,
    purity,
    so3_from_su2,
    su2_from_axis_angle,
)
from qubitnet.dynamics import _bloch_batch
from qubitnet.protocols import chain_axes

RNG = np.random.default_rng(42)


def random_ket(rng=RNG):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestKetFromAngles:
    def test_poles_and_equator(self):
        np.testing.assert_allclose(ket_from_angles(0.0, 0.0), [1, 0], atol=1e-15)
        np.testing.assert_allclose(ket_from_angles(math.pi, 0.0), [0, 1], atol=1e-15)
        np.testing.assert_allclose(
            ket_from_angles(math.pi / 2, 0.0),
            [1 / math.sqrt(2), 1 / math.sqrt(2)],
            atol=1e-15,
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ket_from_angles(-0.1, 0.0)
        with pytest.raises(ValueError):
            ket_from_angles(math.pi + 0.1, 0.0)
        with pytest.raises(ValueError):
            ket_from_angles(1.0, -0.5)
        with pytest.raises(ValueError):
            ket_from_angles(1.0, 2 * math.pi)


class TestBlochMaps:
    """The ket -> Bloch map is dynamics._bloch_batch, on one ket or a stack."""

    def test_known_kets(self):
        np.testing.assert_allclose(_bloch_batch([1, 0]), [0, 0, 1], atol=1e-12)
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(_bloch_batch([s, s]), [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(_bloch_batch([s, 1j * s]), [0, 1, 0], atol=1e-12)

    def test_round_trip_angles(self):
        for theta in np.linspace(0.01, math.pi - 0.01, 7):
            for phi in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
                u = _bloch_batch(ket_from_angles(theta, phi))
                expected = [
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                ]
                np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_ket_from_bloch_poles(self):
        np.testing.assert_allclose(ket_from_bloch([0, 0, 1]), [1, 0], atol=1e-12)
        np.testing.assert_allclose(ket_from_bloch([0, 0, -1]), [0, 1], atol=1e-12)
        np.testing.assert_allclose(
            ket_from_bloch([1, 0, 0]), ket_from_angles(math.pi / 2, 0.0), atol=1e-12
        )

    def test_round_trip_random_unit(self):
        for _ in range(200):
            u = random_unit()
            np.testing.assert_allclose(_bloch_batch(ket_from_bloch(u)), u, atol=1e-9)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            ket_from_bloch([0, 0, 0.5])


class TestDensity:
    def test_known_points(self):
        np.testing.assert_allclose(density_from_bloch([0, 0, 0]), np.eye(2) / 2)
        np.testing.assert_allclose(density_from_bloch([0, 0, 1]), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(
            density_from_bloch([0, 0, 0.5]), np.diag([0.75, 0.25])
        )

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            density_from_bloch([0, 0, 1.1])

    def test_stack_equals_per_point_calls(self):
        p = RNG.normal(size=(4, 5, 3))
        p *= RNG.uniform(0, 1, size=(4, 5, 1)) / np.linalg.norm(p, axis=-1, keepdims=True)
        p[0, 0] = [0.0, 0.0, 1.0]  # on the sphere
        p[1, 2] = [0.0, -0.0, 0.0]  # the centre, with a signed zero
        got = density_from_bloch(p)
        assert got.shape == (4, 5, 2, 2)
        np.testing.assert_array_equal(
            got, [[density_from_bloch(point) for point in row] for row in p])

    def test_stack_with_one_row_outside_is_rejected(self):
        p = np.zeros((3, 4, 3))
        p[2, 1] = [0.6, 0.0, 0.81]  # |p| = 1.008
        with pytest.raises(ValueError, match="outside the unit ball"):
            density_from_bloch(p)

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 2), ()])
    def test_rejects_a_last_axis_other_than_3(self, shape):
        with pytest.raises(ValueError, match="last axis of length 3"):
            density_from_bloch(np.zeros(shape))

    def test_invariants_random(self):
        for _ in range(100):
            p = RNG.normal(size=3)
            p *= RNG.uniform(0, 1) / np.linalg.norm(p)
            rho = density_from_bloch(p)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-12
            assert 0.5 - 1e-12 <= purity(rho) <= 1.0 + 1e-12


class TestDecompose:
    def test_pure_state(self):
        dec = decompose(np.diag([1.0, 0.0]))
        assert dec.mixed_weight == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(dec.pure_direction, [0, 0, 1], atol=1e-12)

    def test_half_mixed(self):
        dec = decompose(density_from_bloch([0, 0, 0.5]))
        assert dec.mixed_weight == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(dec.pure_direction, [0, 0, 1], atol=1e-12)

    def test_maximally_mixed_rejected(self):
        with pytest.raises(ValueError, match="maximally mixed"):
            decompose(np.eye(2) / 2)

    def test_reconstruction_random(self):
        for _ in range(1000):
            p = RNG.normal(size=3)
            r = RNG.uniform(1e-4, 1.0)
            p *= r / np.linalg.norm(p)
            rho = density_from_bloch(p)
            dec = decompose(rho)
            rebuilt = density_from_bloch((1 - dec.mixed_weight) * dec.pure_direction)
            np.testing.assert_allclose(rebuilt, rho, atol=1e-12)


class TestSU2SO3:
    def test_identity_and_sign(self):
        np.testing.assert_allclose(
            su2_from_axis_angle([0, 1, 0], 0.0), np.eye(2), atol=1e-12
        )
        np.testing.assert_allclose(
            su2_from_axis_angle([0, 0, 1], math.pi),
            -1j * np.diag([1.0, -1.0]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            su2_from_axis_angle([1, 0, 0], 2 * math.pi), -np.eye(2), atol=1e-12
        )

    def test_unitary_invariants(self):
        for _ in range(50):
            u = su2_from_axis_angle(random_unit(), RNG.uniform(0, 4 * math.pi))
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            su2_from_axis_angle([0, 0, 2], 1.0)

    def test_so3_of_global_phase_is_identity(self):
        np.testing.assert_allclose(so3_from_su2(np.eye(2)), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(so3_from_su2(-np.eye(2)), np.eye(3), atol=1e-12)

    def test_so3_rotates_bloch_vectors(self):
        u = su2_from_axis_angle([0, 0, 1], math.pi / 2)
        r = so3_from_su2(u)
        np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)
        for _ in range(20):
            psi = random_ket()
            np.testing.assert_allclose(
                _bloch_batch(u @ psi), r @ _bloch_batch(psi), atol=1e-12
            )

    def test_rotation_invariants(self):
        for _ in range(30):
            r = so3_from_su2(su2_from_axis_angle(random_unit(), RNG.uniform(0, 7)))
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_homomorphism(self):
        for _ in range(30):
            u = su2_from_axis_angle(random_unit(), RNG.uniform(0, 7))
            v = su2_from_axis_angle(random_unit(), RNG.uniform(0, 7))
            np.testing.assert_allclose(
                so3_from_su2(u @ v), so3_from_su2(u) @ so3_from_su2(v), atol=1e-9
            )


class TestConjugate:
    def test_identity_and_maximally_mixed(self):
        rho = density_from_bloch([0.1, 0.2, 0.3])
        np.testing.assert_allclose(conjugate(rho, np.eye(2)), rho, atol=1e-12)
        u = su2_from_axis_angle(random_unit(), 1.23)
        np.testing.assert_allclose(
            conjugate(np.eye(2) / 2, u), np.eye(2) / 2, atol=1e-12
        )

    def test_z_to_x_rotation(self):
        u = su2_from_axis_angle([0, 1, 0], math.pi / 2)
        got = conjugate(density_from_bloch([0, 0, 0.5]), u)
        np.testing.assert_allclose(got, density_from_bloch([0.5, 0, 0]), atol=1e-12)

    def test_preserves_spectrum_purity_mixed_weight(self):
        for _ in range(50):
            p = RNG.normal(size=3)
            p *= RNG.uniform(1e-2, 1.0) / np.linalg.norm(p)
            rho = density_from_bloch(p)
            u = su2_from_axis_angle(random_unit(), RNG.uniform(0, 7))
            out = conjugate(rho, u)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12
            )
            assert abs(purity(out) - purity(rho)) < 1e-12
            assert abs(
                decompose(out).mixed_weight - decompose(rho).mixed_weight
            ) < 1e-12


def cross_terms(a, b):
    """Closed form of the chain cross terms, -Im<a|sigma_p|b> for p = x, y, z."""
    return np.array([-(a.conj() @ PAULI[p] @ b).imag for p in range(3)])


class TestCrossTerm:
    """The cross terms of a ket pair [a, b] are row 0 of chain_axes([a, b])."""

    def test_known_values(self):
        up, down = np.array([1, 0j]), np.array([0, 1 + 0j])
        np.testing.assert_allclose(chain_axes(np.array([up, down]))[0], [0.0, 1.0, 0.0],
                                   atol=1e-12)
        np.testing.assert_allclose(chain_axes(np.array([up, up])), 0.0, atol=1e-12)

    def test_diagonal_vanishes(self):
        for _ in range(20):
            psi = random_ket()
            np.testing.assert_allclose(chain_axes(np.array([psi, psi])), 0.0, atol=1e-12)

    def test_antisymmetry(self):
        for _ in range(50):
            a, b = random_ket(), random_ket()
            np.testing.assert_allclose(chain_axes(np.array([a, b]))[0],
                                       -chain_axes(np.array([b, a]))[0], atol=1e-12)

    def test_vector_matches_scalar(self):
        for _ in range(20):
            a, b = random_ket(), random_ket()
            np.testing.assert_allclose(chain_axes(np.array([a, b]))[0],
                                       cross_terms(a, b), atol=1e-13)


def test_bloch_from_density_matches_pauli_traces():
    for _ in range(20):
        p = RNG.normal(size=3)
        p *= RNG.uniform(0, 1) / np.linalg.norm(p)
        rho = density_from_bloch(p)
        got = bloch_from_density(rho)
        expect = [np.trace(rho @ PAULI[k]).real for k in range(3)]
        np.testing.assert_allclose(got, expect, atol=1e-14)
        np.testing.assert_allclose(got, p, atol=1e-12)
