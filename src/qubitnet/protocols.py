"""Per-qubit control Hamiltonians for each consensus protocol family.

Every Hamiltonian here is expressed by its Pauli axis: H = axis . sigma.
Under H = n . sigma the Bloch vector rotates about n at angular rate
2|n|, which is why the minimum-time planner carries a 1/2 on its axes
and why the integrator halves the geometric axis (see dynamics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import cross_vector, row_cross, so3_from_su2
from .topology import Topology, is_chain

DEGENERACY_TOL = 1e-9


class ParallelStatesError(ValueError):
    """Both Bloch vectors point the same way: consensus already holds."""


class AntiparallelStatesError(ValueError):
    """Antipodal Bloch vectors: the rotation axis is undefined."""


@dataclass(frozen=True)
class MinTimePlan:
    """Single-rotation plan meeting at the geodesic midpoint."""

    axis: np.ndarray          # unit normal of the plane spanned by the endpoints
    total_angle: float        # angle between the endpoints, in [0, pi]
    meet_time: float          # total_angle / 2

    def __post_init__(self):
        assert abs(self.meet_time - self.total_angle / 2.0) < 1e-15


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


def min_time_plan(s_i, s_j) -> MinTimePlan:
    axis = two_qubit_axis(s_i, s_j)
    t = min_time(s_i, s_j)
    return MinTimePlan(axis=axis, total_angle=2.0 * t, meet_time=t)


def min_time_pair_hamiltonians(s_i, s_j) -> tuple[np.ndarray, np.ndarray]:
    """Constant axes (+n/2, -n/2) meeting at the geodesic midpoint at t = min_time.

    The 1/2 compensates the factor-2 Bloch rotation rate of H = n . sigma,
    so each vector sweeps at unit angular speed and they coincide exactly
    at arccos(s_i . s_j) / 2.
    """
    axis = two_qubit_axis(s_i, s_j)
    return 0.5 * axis, -0.5 * axis


def chain_axes(states: np.ndarray) -> np.ndarray:
    """Chain-protocol axes for all qubits, shape (..., N, 3).

    Axis components are the signed differences of consecutive cross
    terms: the first node gets +c_1, interior node i gets c_i - c_{i-1},
    and the last node gets -c_{N-1}. Leading axes index independent
    networks.
    """
    states = np.asarray(states, dtype=complex)
    n = states.shape[-2]
    a = states[..., :-1, :].conj()
    b = states[..., 1:, :]
    a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    sx = a0 * b1 + a1 * b0
    sy = 1.0j * (a1 * b0 - a0 * b1)
    sz = a0 * b0 - a1 * b1
    c = np.zeros(states.shape[:-2] + (n + 1, 3))
    c[..., 1:n, :] = -np.stack([sx.imag, sy.imag, sz.imag], axis=-1)
    return c[..., 1:, :] - c[..., :-1, :]


def chain_hamiltonian(states, i: int, t: Topology) -> np.ndarray:
    """Axis of the chain-protocol Hamiltonian for qubit i (0-based)."""
    if not is_chain(t):
        raise ValueError("chain protocol requires a chain topology")
    states = np.asarray(states, dtype=complex)
    if states.shape[0] != t.n:
        raise ValueError("number of states does not match the topology")
    if not 0 <= i < t.n:
        raise ValueError(f"node index {i} out of range")
    norms = np.linalg.norm(states, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ValueError("states must be normalized kets")
    return chain_axes(states)[i]


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


WeightFn = Callable[[float], float]


def geometry_axis(x_i, nbrs) -> np.ndarray:
    """Rotation axis x_i x ((I - x_i x_i^T) sum_j w_ij x_j).

    The projection keeps only the tangential part of the weighted
    neighbor sum, so the axis is exactly perpendicular to x_i. A zero
    axis is a legitimate output at equilibria.
    """
    x_i = _check_unit(x_i, "x_i")
    acc = np.zeros(3)
    for x_j, w in nbrs:
        acc += w * _check_unit(x_j, "x_j")
    tangent = acc - (x_i @ acc) * x_i
    return np.cross(x_i, tangent)


def geometry_axes(
    x: np.ndarray, t: Topology, weight_fn: WeightFn | None = None
) -> np.ndarray:
    """Geometric-protocol axes for all qubits, shape (..., N, 3).

    With weight_fn, the static weight a_ij is multiplied by
    weight_fn(|x_i - x_j|); the default keeps the constant graph weights.
    Leading axes index independent networks on the same topology.
    """
    x = np.asarray(x, dtype=float)
    w = t.weights
    if weight_fn is not None:
        d = np.linalg.norm(x[..., :, None, :] - x[..., None, :, :], axis=-1)
        w = w * np.vectorize(weight_fn)(d)
    acc = w @ x
    tangent = acc - (np.einsum("...ij,...ij->...i", x, acc))[..., None] * x
    return row_cross(x, tangent)


def hamiltonian_to_body_frame(axis, U) -> np.ndarray:
    """Axis of U† (axis . sigma) U: the world axis seen in the body frame."""
    R = so3_from_su2(U)
    return R.T @ np.asarray(axis, dtype=float).reshape(3)


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
