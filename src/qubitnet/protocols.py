"""Per-qubit control Hamiltonians for each consensus protocol family.

Every Hamiltonian here is expressed by its Pauli axis: H = axis . sigma.
Under H = n . sigma the Bloch vector rotates about n at angular rate
2|n|, which is why the minimum-time planner carries a 1/2 on its axes
and why the integrator halves the geometric axis (see dynamics).
"""

from __future__ import annotations

import math

import numpy as np

from .core import MINUS_I_PAULI_REAL, row_cross
from .topology import Topology

DEGENERACY_TOL = 1e-9


class ParallelStatesError(ValueError):
    """Both Bloch vectors point the same way: consensus already holds."""


class AntiparallelStatesError(ValueError):
    """Antipodal Bloch vectors: the rotation axis is undefined."""


def _check_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(3)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit vector, |{name}| = {np.linalg.norm(v)}")
    return v


def two_qubit_axis(s_i, s_j) -> np.ndarray:
    """Unit rotation axis normal to the plane of two distinct Bloch vectors."""
    s_i = _check_unit(s_i, "s_i")
    s_j = _check_unit(s_j, "s_j")
    cross = np.cross(s_i, s_j)
    norm = np.linalg.norm(cross)
    if norm <= DEGENERACY_TOL:
        if float(s_i @ s_j) > 0.0:
            raise ParallelStatesError("states are parallel on the Bloch sphere")
        raise AntiparallelStatesError("states are antipodal on the Bloch sphere")
    return cross / norm


def min_time(s_i, s_j) -> float:
    """Minimum meeting time arccos(s_i . s_j) / 2 of the single-rotation plan."""
    s_i = _check_unit(s_i, "s_i")
    s_j = _check_unit(s_j, "s_j")
    dot = min(1.0, max(-1.0, float(s_i @ s_j)))
    return 0.5 * math.acos(dot)


def min_time_pair_hamiltonians(s_i, s_j) -> tuple[np.ndarray, np.ndarray]:
    """Constant axes (+n/2, -n/2) meeting at the geodesic midpoint at t = min_time.

    The 1/2 compensates the factor-2 Bloch rotation rate of H = n . sigma,
    so each vector sweeps at unit angular speed and they coincide exactly
    at arccos(s_i . s_j) / 2.
    """
    axis = two_qubit_axis(s_i, s_j)
    return 0.5 * axis, -0.5 * axis


# For the real view r_i of ket i, row p of (r_i @ _CROSS_FORMS).reshape(3, 4)
# is the bilinear form -Im<psi_i|sigma_p|.>, so c_p = row p . r_{i+1}. Each
# column holds one +-1, so the product is exact.
_CROSS_FORMS = -np.concatenate(MINUS_I_PAULI_REAL, axis=1)


def chain_axes(states: np.ndarray) -> np.ndarray:
    """Chain-protocol axes for all qubits, shape (..., N, 3).

    Axis components are the signed differences of consecutive cross
    terms: the first node gets +c_1, interior node i gets c_i - c_{i-1},
    and the last node gets -c_{N-1}. Leading axes index independent
    networks. The cross terms c_i = -Im<psi_i|sigma|psi_{i+1}> come from
    the real (Re a, Im a, Re b, Im b) view of the kets.
    """
    r = np.ascontiguousarray(states, dtype=complex).view(float)
    forms = (r[..., :-1, :] @ _CROSS_FORMS).reshape(r.shape[:-2] + (-1, 3, 4))
    c = (forms @ r[..., 1:, :, None])[..., 0]  # c_1 .. c_{N-1}
    out = np.zeros(r.shape[:-1] + (3,))
    out[..., :-1, :] = c
    out[..., 1:, :] -= c
    return out


def two_qubit_closed_form_axis(
    theta_i: float, phi_i: float, theta_j: float, phi_j: float
) -> np.ndarray:
    """Closed-form chain axis for qubit i of a two-qubit pair, in half angles.

    Equals the cross-term axis of qubit i computed from the kets of the
    same angles; qubit j's axis is the same expression with the roles
    swapped.
    """
    sp = 0.5 * (phi_i + phi_j)
    dp = 0.5 * (phi_i - phi_j)
    dt = 0.5 * (theta_i - theta_j)
    return np.array(
        [
            math.sin(sp) * math.sin(dt),
            -math.cos(sp) * math.sin(dt),
            -math.sin(dp) * math.cos(dt),
        ]
    )


def geometry_axes(x: np.ndarray, t: Topology | np.ndarray) -> np.ndarray:
    """Geometric-protocol axes x_i x sum_j w_ij x_j for all qubits, shape (..., N, 3).

    Leading axes index independent networks on the topology t, or on
    their own weights when t is an (..., N, N) stack matching them. The
    axis is perpendicular to x_i, and projecting the neighbour sum onto
    the tangent plane at x_i would change nothing, since x_i x x_i = 0.
    A zero axis is a legitimate output at equilibria.
    """
    x = np.asarray(x, dtype=float)
    return row_cross(x, (t.weights if isinstance(t, Topology) else t) @ x)


def qubit_permutation(n: int, perm) -> np.ndarray:
    """Basis-index relabelling of (C^2)^(x n) moving qubit factor k to perm[k].

    With p = qubit_permutation(n, perm), rho[..., p[:, None], p] is rho
    with its qubit factors permuted that way.
    """
    idx = np.arange(2**n)
    out = np.zeros_like(idx)
    for k, src in enumerate(perm):
        # qubit 0 is the most significant bit of the basis index
        out |= ((idx >> (n - 1 - src)) & 1) << (n - 1 - k)
    return out


def _swap_permutation(n: int, j: int, k: int) -> np.ndarray:
    """Basis permutation of (C^2)^(x n) exchanging qubit factors j and k."""
    perm = list(range(n))
    perm[j], perm[k] = k, j
    return qubit_permutation(n, perm)


def qcme_generator(t: Topology):
    """Swap-operator consensus generator on 2^N x 2^N density matrices.

    Returns the map rho -> sum over unordered edges (j,k) of
    w_jk (U_jk rho U_jk† - rho) with U_jk the qubit-swap permutation,
    acting on each matrix of a (..., 2^N, 2^N) stack.
    """
    n = t.n
    if n > 12:
        raise ValueError(f"QCME generator limited to 12 qubits, got {n}")
    terms = [(_swap_permutation(n, j, k), w) for j, k, w in t.edges()]

    def generator(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for perm, w in terms:
            out += w * (rho[..., perm[:, None], perm] - rho)
        return out

    return generator
