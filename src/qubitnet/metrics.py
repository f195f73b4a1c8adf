"""Scalar diagnostics for consensus runs.

Lyapunov function and its decay terms for the chain protocol, pairwise
density-matrix error norms, settling times, composite-state distance,
the permutation quantum average, and the planar coherence function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import bloch_from_density, bloch_from_ket, density_from_bloch
from .protocols import chain_axes, qubit_permutation
from .topology import Topology, is_chain


@dataclass(frozen=True)
class SettlingSpec:
    """Threshold crossing that defines a settling time."""

    threshold: float
    metric: str = "V"

    def __post_init__(self):
        if self.threshold <= 0.0:
            raise ValueError("settling threshold must be positive")


def lyapunov_V(states, t: Topology) -> float:
    """Half the summed squared ket distance over consecutive chain pairs.

    Equals (N-1) - sum Re<psi_i|psi_{i+1}>, in [0, 2(N-1)]. Sensitive to
    global phases by construction.
    """
    states = np.asarray(states, dtype=complex)
    if states.shape[0] < 2:
        raise ValueError("need at least 2 states")
    if not is_chain(t):
        raise ValueError("the Lyapunov function is defined on a chain topology")
    overlaps = np.einsum("ij,ij->i", states[:-1].conj(), states[1:])
    return float(states.shape[0] - 1 - overlaps.real.sum())


def lyapunov_decay_terms(states, t: Topology) -> np.ndarray:
    """Per-qubit decay terms W_i of dV/dt under the chain protocol.

    Each W_i is minus the squared norm of the qubit's protocol axis, so
    W_i <= 0 everywhere and sum W_i = dV/dt along a trajectory.
    """
    states = np.asarray(states, dtype=complex)
    if states.shape[0] < 2:
        raise ValueError("need at least 2 states")
    if not is_chain(t):
        raise ValueError("decay terms are defined on a chain topology")
    return -np.sum(chain_axes(states) ** 2, axis=1)


def pure_state_error(states) -> float:
    """Max pairwise Frobenius distance between the pure densities of the kets."""
    states = np.asarray(states, dtype=complex)
    if states.shape[0] < 2:
        raise ValueError("need at least 2 states")
    rhos = [density_from_bloch(bloch_from_ket(psi)) for psi in states]
    worst = 0.0
    for a, b in itertools.combinations(rhos, 2):
        worst = max(worst, float(np.linalg.norm(a - b, "fro")))
    return worst


def settling_time(traj, spec: SettlingSpec) -> float | None:
    """First sample time at which the chosen metric drops below the threshold."""
    if spec.metric not in traj.metrics:
        raise ValueError(
            f"unknown metric {spec.metric!r}; trajectory has {sorted(traj.metrics)}"
        )
    series = traj.metrics[spec.metric]
    below = np.nonzero(series < spec.threshold)[0]
    if below.size == 0:
        return None
    return float(traj.sample_times[below[0]])


def composite_distance(rho, rho_bar) -> float:
    """Spectral norm of rho - rho_bar."""
    rho = np.asarray(rho, dtype=complex)
    rho_bar = np.asarray(rho_bar, dtype=complex)
    if rho.shape != rho_bar.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {rho_bar.shape}")
    return float(np.linalg.norm(rho - rho_bar, 2))


def quantum_average(rho0) -> np.ndarray:
    """Symmetrization of a composite state over all qubit permutations.

    The permutation-invariant fixed point of the swap-operator consensus
    dynamics on a connected graph. Acts on each matrix of a
    (..., 2^N, 2^N) stack.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[-1] if rho0.ndim >= 2 else 0
    n = dim.bit_length() - 1
    if 2**n != dim or rho0.shape[-2] != dim:
        raise ValueError("expected a 2^N x 2^N matrix or a stack of them")
    if n > 6:
        raise ValueError(f"quantum average limited to 6 qubits, got {n}")
    acc = np.zeros_like(rho0)
    count = 0
    for perm in itertools.permutations(range(n)):
        p = qubit_permutation(n, perm)
        acc += rho0[..., p[:, None], p]
        count += 1
    acc /= count
    return acc


def coherence(rho) -> float:
    """Planar Bloch radius sqrt(<sx>^2 + <sy>^2) of a single-qubit state."""
    p = bloch_from_density(rho)
    return float(math.hypot(p[0], p[1]))
