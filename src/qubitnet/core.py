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


def row_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of matching (..., 3) arrays, row by row.

    The arithmetic of np.cross, written out by component: on the few-row
    arrays of a network step, np.cross's own per-call overhead costs
    more than the products.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(a.shape, np.result_type(a, b))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def cross_term(psi_i, psi_j, p: int) -> float:
    """Re(i <psi_i| sigma_p |psi_j>) for Pauli axis p in {1, 2, 3}.

    The building block of the chain-graph protocol; antisymmetric in its
    ket arguments and zero on the diagonal.
    """
    if p not in (1, 2, 3):
        raise ValueError(f"Pauli axis must be 1, 2 or 3, got {p}")
    psi_i = _as_ket(psi_i)
    psi_j = _as_ket(psi_j)
    val = psi_i.conj() @ (PAULI[p - 1] @ psi_j)
    return float((1.0j * val).real)


def cross_vector(psi_i, psi_j) -> np.ndarray:
    """All three cross terms at once, as a real 3-vector."""
    psi_i = np.asarray(psi_i, dtype=complex)
    psi_j = np.asarray(psi_j, dtype=complex)
    a = psi_i.conj()
    sx = a[0] * psi_j[1] + a[1] * psi_j[0]
    sy = 1.0j * (a[1] * psi_j[0] - a[0] * psi_j[1])
    sz = a[0] * psi_j[0] - a[1] * psi_j[1]
    return np.array([-sx.imag, -sy.imag, -sz.imag])
