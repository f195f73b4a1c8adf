"""Diagnostics for consensus runs.

The per-node decay terms of the chain protocol's Lyapunov function,
settling times, and the permutation quantum average. The Lyapunov
function V and the pure-state error are the "V" and "pure_state_error"
series that simulate_network records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .protocols import chain_axes, qubit_permutation


@dataclass(frozen=True)
class SettlingSpec:
    """Threshold crossing that defines a settling time."""

    threshold: float
    metric: str = "V"

    def __post_init__(self):
        # W_max is <= 0, every other series >= 0: other thresholds settle at once or never
        sign, word = (-1.0, "negative") if self.metric == "W_max" else (1.0, "positive")
        if not 0.0 < sign * self.threshold < np.inf:  # NaN fails both comparisons
            raise ValueError(f"threshold of {self.metric} must be finite and {word}")


def lyapunov_decay_terms(kets) -> np.ndarray:
    """Per-qubit decay terms W_i of dV/dt under the chain protocol, shape (..., N).

    Each W_i is minus the squared norm of the qubit's chain-protocol axis,
    so W_i <= 0 everywhere and sum W_i = dV/dt along a chain trajectory.
    kets has shape (..., N, 2); leading axes index independent networks.
    """
    return -np.sum(chain_axes(kets) ** 2, axis=-1)


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
