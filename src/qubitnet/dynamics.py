"""Time integration of qubit networks.

Per-qubit Schrodinger propagation under piecewise-constant
state-dependent Hamiltonians, the equivalent 2-sphere flow, full-network
QCME evolution, and meeting/stop detection.

The synchronous-update contract: at each step every Hamiltonian is
computed from the same state snapshot, then all qubits advance by the
closed-form 2x2 exponential, which is exactly unitary. The 2-sphere twin
integrator applies the identical per-step rotation on Bloch vectors, so
the two discretizations coincide to rounding (the SU(2)/SO(3)
equivalence holds step by step, not only in the continuum limit).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .core import row_cross
from .metrics import quantum_average
from .protocols import (
    chain_axes,
    geometry_axes,
    min_time_pair_hamiltonians,
    qcme_generator,
)
from .topology import Topology, is_chain, is_connected


@dataclass
class IntegratorConfig:
    dt: float = 1e-3
    t_max: float = 50.0
    sample_every: int = 1
    stop_threshold: float | None = None
    # metric series the stop_threshold applies to
    stop_metric: str = "V"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_max)):
            raise ValueError("dt and t_max must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_max < self.dt:
            raise ValueError("t_max must be at least one step")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


@dataclass
class Trajectory:
    """Sampled run: states, times, and named scalar metric series."""

    sample_times: np.ndarray
    samples: np.ndarray | None  # (S, N, 2) complex kets or (S, N, 3) Bloch
    metrics: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.sample_times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")

    def bloch(self) -> np.ndarray:
        """Bloch vectors of every sample, shape (S, N, 3)."""
        if self.samples is None:
            raise ValueError("trajectory has no per-qubit samples")
        if np.iscomplexobj(self.samples):
            return _bloch_batch(self.samples)
        return self.samples

    def to_csv(self, path) -> None:
        """One row per sample: time, per-qubit Bloch components, metrics."""
        names = sorted(self.metrics)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.samples is not None:
                u = self.bloch()
                n = u.shape[1]
                header = ["time"]
                for i in range(1, n + 1):  # CLI reports 1-based qubit indices
                    header += [f"q{i}_x", f"q{i}_y", f"q{i}_z"]
                writer.writerow(header + names)
                for k, t in enumerate(self.sample_times):
                    row = [repr(float(t))]
                    row += [repr(float(v)) for v in u[k].ravel()]
                    row += [repr(float(self.metrics[m][k])) for m in names]
                    writer.writerow(row)
            else:
                writer.writerow(["time"] + names)
                for k, t in enumerate(self.sample_times):
                    row = [repr(float(t))]
                    row += [repr(float(self.metrics[m][k])) for m in names]
                    writer.writerow(row)


def topology_hash(t: Topology) -> str:
    return hashlib.sha256(t.weights.tobytes()).hexdigest()


def write_manifest(path, config: dict) -> None:
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _bloch_batch(kets: np.ndarray) -> np.ndarray:
    a = kets[..., 0]
    b = kets[..., 1]
    ab = a.conj() * b
    return np.stack(
        [2.0 * ab.real, 2.0 * ab.imag, np.abs(a) ** 2 - np.abs(b) ** 2], axis=-1
    )


def step_ket(psi, axis, dt: float) -> np.ndarray:
    """Advance one ket by exp(-i dt (axis . sigma)), closed form."""
    psi = np.asarray(psi, dtype=complex).reshape(2)
    return _step_kets(psi[None, :], np.asarray(axis, float).reshape(1, 3), dt)[0]


def _step_kets(kets: np.ndarray, axes: np.ndarray, dt: float) -> np.ndarray:
    """Vectorized exp(-i dt n.sigma) on a (..., 2) ket batch; exactly unitary."""
    omega = np.linalg.norm(axes, axis=-1)
    phi = omega * dt
    safe = np.where(omega > 0.0, omega, 1.0)
    e = axes / safe[..., None]
    c = np.cos(phi)
    s = np.where(omega > 0.0, np.sin(phi), 0.0)
    a, b = kets[..., 0], kets[..., 1]
    ex, ey, ez = e[..., 0], e[..., 1], e[..., 2]
    na = ez * a + (ex - 1j * ey) * b
    nb = (ex + 1j * ey) * a - ez * b
    return np.stack([c * a - 1j * s * na, c * b - 1j * s * nb], axis=-1)


def _rotate_vectors(x: np.ndarray, axes: np.ndarray, dt: float) -> np.ndarray:
    """Rodrigues rotation of each (..., 3) row of x about its axis by |axis| * dt."""
    shape = x.shape
    x, axes = x.reshape(-1, 3), axes.reshape(-1, 3)
    omega = np.linalg.norm(axes, axis=1)
    phi = omega * dt
    safe = np.where(omega > 0.0, omega, 1.0)
    e = axes / safe[:, None]
    c = np.cos(phi)[:, None]
    s = np.where(omega > 0.0, np.sin(phi), 0.0)[:, None]
    dot = np.einsum("ij,ij->i", e, x)[:, None]
    return (x * c + row_cross(e, x) * s + e * dot * (1.0 - c)).reshape(shape)


def _consecutive_v(kets: np.ndarray) -> np.ndarray:
    """(N-1) - sum of Re<psi_i|psi_{i+1}> over consecutive indices, per network."""
    overlaps = np.einsum("...ij,...ij->...i",
                         kets[..., :-1, :].conj(), kets[..., 1:, :])
    return kets.shape[-2] - 1 - overlaps.real.sum(axis=-1)


def _pairwise_error(u: np.ndarray) -> np.ndarray:
    """Max pairwise |rho'_i - rho'_j|_F = max |u_i - u_j| / sqrt(2), per network."""
    d = u[..., :, None, :] - u[..., None, :, :]
    # sqrt is monotone, so taking it after the max gives the same value
    return np.sqrt((d * d).sum(axis=-1).max(axis=(-2, -1))) / np.sqrt(2.0)


def _max_pairwise_angle(u: np.ndarray) -> np.ndarray:
    """Largest angle between two of the N unit vectors, per network."""
    dots = np.clip(u @ np.swapaxes(u, -1, -2), -1.0, 1.0)
    return np.arccos(dots.min(axis=(-2, -1)))


def in_open_hemisphere(u: np.ndarray) -> bool:
    """True iff some unit vector c has c . u_i > 0 for every row u_i.

    Solved as a small LP: maximize the margin t subject to u_i . c >= t
    with box-bounded c; a strictly positive optimum certifies the open
    hemisphere condition.
    """
    u = np.asarray(u, dtype=float)
    a_ub = np.hstack([-u, np.ones((u.shape[0], 1))])
    res = linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=a_ub,
        b_ub=np.zeros(u.shape[0]),
        bounds=[(-1, 1), (-1, 1), (-1, 1), (0, 2)],
        method="highs",
    )
    return bool(res.success and -res.fun > 1e-9)


PROTOCOLS = ("chain", "geometry", "min-time")


def _batch(states, width: int) -> tuple[np.ndarray, bool]:
    """States as one (N, width) run or a (B, N, width) batch, and whether
    they are a batch."""
    if states.ndim == 3:
        if states.shape[2] != width:
            raise ValueError(f"expected a (B, N, {width}) batch, got {states.shape}")
        return states, True
    return states.reshape(-1, width), False


def _integrate(x, step, record, names, cfg: IntegratorConfig,
               keep_samples: bool = True):
    """Shared stepping driver over one (N, .) run or a batch (B, ...) with
    its members on the leading axis.

    step(x, members) returns the next state of the active rows x, which
    belong to the batch members `members` (a full slice while every
    member is active, so nothing is gathered). record(x) returns, for
    each metric series in names, its values for the active rows. A
    member whose cfg.stop_metric sample falls below cfg.stop_threshold
    stops: its row leaves the batch and its trajectory ends at that
    sample. As in a one-member run, the stop test starts at the first
    sample after a step. A single run is stepped as the plain (N, .)
    array, without a batch axis, and gives one Trajectory; a batch gives
    one per member. With keep_samples False the states are not kept and
    every Trajectory has samples None.
    """
    stop = None
    if cfg.stop_threshold is not None:
        if cfg.stop_metric not in names:
            raise ValueError(f"unknown stop_metric {cfg.stop_metric!r}; "
                             f"this run records {sorted(names)}")
        stop = names.index(cfg.stop_metric)
    single = x.ndim == 2
    size = 1 if single else x.shape[0]
    steps, snaps, values = [0], [x], [np.stack(record(x))]
    members = slice(None)
    ends = np.full(size, -1)  # last sample index of each stopped member
    n_steps = int(round(cfg.t_max / cfg.dt))
    for k in range(1, n_steps + 1):
        x = step(x, members)
        if k % cfg.sample_every and k != n_steps:
            continue
        steps.append(k)
        if keep_samples:
            snaps.append(x)
        values.append(np.stack(record(x)))
        if stop is None:
            continue
        done = values[-1][stop] < cfg.stop_threshold
        if done.all():
            break
        if done.any():
            ids = np.arange(size)[members]
            ends[ids[done]] = len(steps) - 1
            members, x = ids[~done], x[~done]
    times = np.array(steps) * cfg.dt
    if single:
        return Trajectory(sample_times=times,
                          samples=np.array(snaps) if keep_samples else None,
                          metrics=dict(zip(names, np.stack(values, axis=1))))
    ends[ends < 0] = len(steps) - 1

    # Members leave the batch in order and never return, so member b is
    # in samples 0..ends[b]. `take` lists the rows of the sample-major
    # concatenation in member-major order.
    live = np.arange(len(steps)) <= ends[:, None]
    rank = np.cumsum(live.T).reshape(len(steps), size).T - 1
    take = rank[live]
    cuts = np.cumsum(ends + 1)[:-1]
    samples = [None] * size
    if keep_samples:
        flat = np.concatenate(snaps)
        snaps.clear()  # keep one copy of the samples, not two, while regrouping
        samples = np.split(flat[take], cuts)
    series = np.split(np.concatenate(values, axis=1)[:, take], cuts, axis=1)
    return [
        Trajectory(
            sample_times=times[: e + 1],
            samples=samples[b],
            metrics=dict(zip(names, series[b])),
        )
        for b, e in enumerate(ends)
    ]


def simulate_network(
    kets0,
    t: Topology,
    protocol: str,
    cfg: IntegratorConfig,
    gain: float = 1.0,
    weight_fn=None,
) -> Trajectory | list[Trajectory]:
    """Synchronous closed-loop run of a protocol over a qubit network.

    kets0 of shape (N, 2) gives one Trajectory. A (B, N, 2) batch runs
    B independent networks on the same topology in one pass and gives
    one Trajectory per member, each matching its one-member run and cut
    at its own stop sample.

    The geometry branch applies H = (gain/2) n . sigma so that with
    gain 1 the Bloch flow equals the projected-sum sphere flow exactly
    (factor-2 rotation-rate reconciliation); gain 2 reproduces the bare
    H = n . sigma protocol.
    """
    kets, batched = _batch(np.array(kets0, dtype=complex), 2)
    n = kets.shape[-2]
    if n != t.n:
        raise ValueError(f"{n} kets for a {t.n}-node topology")
    if np.max(np.abs(np.linalg.norm(kets, axis=-1) - 1.0)) > 1e-9:
        raise ValueError("initial kets must be normalized")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")

    dt = cfg.dt
    if protocol == "chain":
        if not is_chain(t):
            raise ValueError("chain protocol requires a chain topology")

        def step(x, members):
            return _step_kets(x, gain * chain_axes(x), dt)

    elif protocol == "geometry":
        if not is_connected(t):
            raise ValueError("geometry protocol requires a connected topology")
        outside = [b for b, u in enumerate(_bloch_batch(kets.reshape(-1, n, 2)))
                   if not in_open_hemisphere(u)]
        if outside:
            which = f" of batch members {outside}" if batched else ""
            warnings.warn(
                f"initial Bloch vectors{which} are not strictly inside an open "
                "hemisphere; convergence of the geometric protocol is not guaranteed",
                stacklevel=2,
            )

        def step(x, members):
            axes = (0.5 * gain) * geometry_axes(_bloch_batch(x), t, weight_fn)
            return _step_kets(x, axes, dt)

    else:  # min-time
        if n != 2:
            raise ValueError("min-time protocol is defined for exactly 2 qubits")
        fixed_axes = gain * np.array(
            [np.stack(min_time_pair_hamiltonians(u[0], u[1]))
             for u in _bloch_batch(kets.reshape(-1, 2, 2))]
        ).reshape(kets.shape[:-1] + (3,))

        def step(x, members):
            return _step_kets(x, fixed_axes[members], dt)

    names = ("V", "pure_state_error") + (("W_max",) if protocol == "chain" else ())

    def record(x):
        out = [_consecutive_v(x), _pairwise_error(_bloch_batch(x))]
        if protocol == "chain":
            out.append((-np.sum(chain_axes(x) ** 2, axis=-1)).max(axis=-1))
        return out

    return _integrate(kets, step, record, names, cfg)


def simulate_sphere(
    x0,
    t: Topology,
    cfg: IntegratorConfig,
    gain: float = 1.0,
    weight_fn=None,
) -> Trajectory | list[Trajectory]:
    """Classical twin of the quantum geometric protocol on the 2-sphere.

    Integrates dx_i/dt = (I - x_i x_i^T) sum_j w_ij x_j by rotating each
    vector about the frozen per-step axis x_i x (projected sum), the same
    discrete flow the quantum integrator induces on Bloch vectors. Steps
    stay on the sphere exactly (drift is rounding only). Batching and
    stopping follow simulate_network: x0 of shape (N, 3) gives one
    Trajectory, (B, N, 3) one per member.
    """
    x, _ = _batch(np.array(x0, dtype=float), 3)
    if x.shape[-2] != t.n:
        raise ValueError(f"{x.shape[-2]} vectors for a {t.n}-node topology")
    if np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0)) > 1e-9:
        raise ValueError("initial vectors must be unit")

    def step(x, members):
        x = _rotate_vectors(x, gain * geometry_axes(x, t, weight_fn), cfg.dt)
        x /= np.linalg.norm(x, axis=-1)[..., None]
        return x

    def record(x):
        return _max_pairwise_angle(x), _pairwise_error(x)

    return _integrate(x, step, record, ("max_angle", "pure_state_error"), cfg)


def simulate_qcme(
    rho0, t: Topology, cfg: IntegratorConfig
) -> Trajectory | list[Trajectory]:
    """Full-network QCME run recording the 2-norm distance to the quantum average.

    Classic RK4 on the swap-operator generator; positivity is monitored
    at every sample and a violation beyond 1e-6 aborts the run. rho0 of
    shape (2^N, 2^N) gives one Trajectory; a (B, 2^N, 2^N) batch gives
    one per member, each equal to its one-member run and cut at its own
    stop sample. A run stops on its "composite_distance" series, the
    distance of each member to its own quantum average.
    """
    rho = np.array(rho0, dtype=complex)
    dim = 2**t.n
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix or a (B, {dim}, {dim}) "
                         f"batch for {t.n} qubits")
    if t.n > 6:
        raise ValueError("QCME distance tracking requires at most 6 qubits")
    if np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)) > 1e-9:
        raise ValueError("rho0 must have unit trace")
    if _min_eigenvalue(rho).min() < -1e-9:
        raise ValueError("rho0 must be positive semidefinite")

    gen = qcme_generator(t)
    rho_bar = quantum_average(rho)
    batched = rho.ndim == 3
    dt = cfg.dt
    active = slice(None)  # batch members of the rows being stepped

    def step(x, members):
        nonlocal active
        active = members
        k1 = gen(x)
        k2 = gen(x + 0.5 * dt * k1)
        k3 = gen(x + 0.5 * dt * k2)
        k4 = gen(x + dt * k3)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def record(x):
        bad = np.flatnonzero(_min_eigenvalue(x) < -1e-6)
        if bad.size:
            where = (f" in batch member {np.arange(len(rho))[active][bad[0]]}"
                     if batched else "")
            raise RuntimeError(f"QCME state lost positivity{where}; reduce the step size")
        return (np.linalg.norm(x - rho_bar[active], 2, axis=(-2, -1)),)

    return _integrate(rho, step, record, ("composite_distance",), cfg,
                      keep_samples=False)


def _min_eigenvalue(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix of a stack."""
    return np.linalg.eigvalsh(0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))).min(axis=-1)


def meeting_time(traj: Trajectory, angle_tol: float) -> float | None:
    """Earliest time the max pairwise Bloch angle drops below angle_tol.

    Crossings between samples are linearly interpolated. When the angle
    dips through a minimum sharper than the sampling grid (the generic
    transversal meeting), the two secants around the minimum are
    intersected to resolve the vertex; the vertex must still clear the
    tolerance to count as a meeting.
    """
    u = traj.bloch()
    if u.shape[1] < 2:
        raise ValueError("need at least 2 qubits to detect a meeting")
    angles = _max_pairwise_angle(u)
    ts = traj.sample_times

    below = np.nonzero(angles < angle_tol)[0]
    if below.size:
        k = below[0]
        if k == 0:
            return 0.0
        frac = (angles[k - 1] - angle_tol) / (angles[k - 1] - angles[k])
        return float(ts[k - 1] + frac * (ts[k] - ts[k - 1]))

    k = int(np.argmin(angles))
    if k < 2 or k > len(angles) - 3:
        return None
    # Secants strictly outside the minimum sample: the sample nearest the
    # vertex can sit on either leg of the dip, so it is excluded.
    m1 = (angles[k - 1] - angles[k - 2]) / (ts[k - 1] - ts[k - 2])
    m2 = (angles[k + 2] - angles[k + 1]) / (ts[k + 2] - ts[k + 1])
    if m1 >= 0.0 or m2 <= 0.0:
        return None
    t_star = (angles[k + 1] - angles[k - 1] + m1 * ts[k - 1] - m2 * ts[k + 1]) / (
        m1 - m2
    )
    vertex = angles[k - 1] + m1 * (t_star - ts[k - 1])
    if vertex < angle_tol:
        return float(t_star)
    return None
