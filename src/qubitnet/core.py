"""Single-qubit state algebra.

Kets, density matrices, Pauli operators, the Bloch-ball mapping, the
SU(2) <-> SO(3) correspondence, and the convex decomposition of mixed
states into a maximally mixed part and a pure direction.

Conventions: a pure state with polar angle theta and azimuthal angle phi
is the half-angle ket (e^{-i phi/2} cos(theta/2), e^{i phi/2} sin(theta/2));
its Bloch vector is (sin theta cos phi, sin theta sin phi, cos theta).
Global phase is unobservable on the Bloch ball.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

# Tolerance tiers: algebraic identities vs composed mappings.
ATOL_ALGEBRA = 1e-12
ATOL_MAPPING = 1e-9

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


# -i sigma_x, -i sigma_y, -i sigma_z as 4x4 real matrices acting on
# (Re a, Im a, Re b, Im b), the layout of a (..., 2) complex ket array
# viewed as float: an entry x + iy becomes the block [[x, -y], [y, x]].
# Each is a signed permutation matrix, and with the identity the four have
# their nonzeros in disjoint positions: any product that combines them
# with coefficients has one nonzero term per entry, so it is exact.
MINUS_I_PAULI_REAL = np.stack([
    np.kron(m.real, np.eye(2)) + np.kron(m.imag, [[0, -1], [1, 0]]) for m in -1j * PAULI])


class MixedDecomposition(NamedTuple):
    """Convex split rho = P/2 * I + (1-P) * pure(direction)."""

    mixed_weight: float
    pure_direction: np.ndarray


def _as_ket(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(2)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > ATOL_MAPPING:
        raise ValueError(f"ket is not normalized: |psi| = {norm}")
    return psi


def _as_density(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex).reshape(2, 2)
    if np.max(np.abs(rho - rho.conj().T)) > ATOL_ALGEBRA:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > ATOL_ALGEBRA:
        raise ValueError("density matrix trace is not 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -ATOL_ALGEBRA:
        raise ValueError(f"density matrix is not PSD: eigenvalues {eigs}")
    return rho


def ket_from_angles(theta: float, phi: float) -> np.ndarray:
    """Spin-1/2 ket for polar angle theta in [0, pi], azimuth phi in [0, 2*pi)."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta out of [0, pi]: {theta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi out of [0, 2*pi): {phi}")
    return np.array(
        [
            cmath.exp(-0.5j * phi) * math.cos(theta / 2.0),
            cmath.exp(0.5j * phi) * math.sin(theta / 2.0),
        ],
        dtype=complex,
    )


def bloch_from_ket(psi) -> np.ndarray:
    """Pauli expectation vector (<sx>, <sy>, <sz>) of a normalized ket."""
    psi = _as_ket(psi)
    a, b = psi
    ab = a.conjugate() * b
    return np.array(
        [2.0 * ab.real, 2.0 * ab.imag, (abs(a) ** 2 - abs(b) ** 2)]
    )


def ket_from_bloch(u) -> np.ndarray:
    """Inverse Bloch map for a unit vector, phase fixed by the half-angle convention."""
    u = np.asarray(u, dtype=float).reshape(3)
    if abs(np.linalg.norm(u) - 1.0) > ATOL_MAPPING:
        raise ValueError(f"Bloch vector is not unit: |u| = {np.linalg.norm(u)}")
    theta = math.acos(min(1.0, max(-1.0, u[2])))
    phi = math.atan2(u[1], u[0]) % (2.0 * math.pi)
    if phi >= 2.0 * math.pi:  # fold rounding at the branch cut
        phi = 0.0
    return ket_from_angles(theta, phi)


def density_from_bloch(p) -> np.ndarray:
    """Density matrix (I + p . sigma) / 2 for a point p in the closed unit ball."""
    p = np.asarray(p, dtype=float).reshape(3)
    if np.linalg.norm(p) > 1.0 + ATOL_ALGEBRA:
        raise ValueError(f"Bloch point outside the unit ball: |p| = {np.linalg.norm(p)}")
    return 0.5 * (I2 + np.einsum("i,ijk->jk", p, PAULI))


def bloch_from_density(rho) -> np.ndarray:
    """Bloch point of a density matrix, tr(rho sigma_p) per component."""
    rho = _as_density(rho)
    return np.array([np.trace(rho @ PAULI[p]).real for p in range(3)])


def purity(rho) -> float:
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def decompose(rho) -> MixedDecomposition:
    """Split a density matrix into its mixed weight and unit pure direction.

    The maximally mixed state has no pure direction and is rejected.
    """
    p = bloch_from_density(rho)
    r = np.linalg.norm(p)
    if r <= 1e-9:
        raise ValueError("maximally mixed state: pure direction undefined")
    return MixedDecomposition(mixed_weight=float(1.0 - r), pure_direction=p / r)


def su2_from_axis_angle(n, theta: float) -> np.ndarray:
    """exp(-i theta/2 n.sigma) for a unit axis n: rotation of the spin about n."""
    n = np.asarray(n, dtype=float).reshape(3)
    if abs(np.linalg.norm(n) - 1.0) > ATOL_MAPPING:
        raise ValueError(f"rotation axis is not unit: |n| = {np.linalg.norm(n)}")
    ndots = np.einsum("i,ijk->jk", n, PAULI)
    return math.cos(theta / 2.0) * I2 - 1.0j * math.sin(theta / 2.0) * ndots


def so3_from_su2(U) -> np.ndarray:
    """Bloch-ball rotation of a 2x2 unitary: R_pq = tr(sigma_p U sigma_q U†) / 2."""
    U = np.asarray(U, dtype=complex).reshape(2, 2)
    Ud = U.conj().T
    R = np.empty((3, 3))
    for p in range(3):
        for q in range(3):
            R[p, q] = 0.5 * np.trace(PAULI[p] @ U @ PAULI[q] @ Ud).real
    return R


def conjugate(rho, U) -> np.ndarray:
    """U rho U†. Preserves spectrum, purity, and the mixed weight."""
    rho = _as_density(rho)
    U = np.asarray(U, dtype=complex).reshape(2, 2)
    return U @ rho @ U.conj().T


# Row j, as a 3x3 matrix, is the map b -> e_j x b (its column k is e_j x e_k),
# so (a @ _SKEW_FORMS).reshape(..., 3, 3) is the skew matrix [a]_x with
# [a]_x b = a x b. Each column holds one +-1, so building [a]_x is exact.
_SKEW_FORMS = np.cross(np.eye(3)[:, None], np.eye(3)).transpose(0, 2, 1).reshape(3, 9)


def row_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of matching (..., 3) arrays, row by row.

    Two numpy calls whatever the batch: the exact skew matrix [a]_x, then
    one contraction with b. Row i sums the products a_j b_k of np.cross
    with one exact zero, so the values are np.cross's (a fused
    multiply-add in another build could move the last bit).
    """
    return np.einsum("...ij,...j->...i", (a @ _SKEW_FORMS).reshape(a.shape + (3,)), b)

