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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import MINUS_I_PAULI_REAL, row_cross
from .metrics import SettlingSpec, lyapunov_decay_terms, quantum_average
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
        if not isinstance(self.sample_every, (int, np.integer)) or self.sample_every < 1:
            raise ValueError(f"sample_every must be an integer >= 1, got {self.sample_every!r}")
        if self.stop_threshold is not None:  # a stop is a settling threshold
            SettlingSpec(self.stop_threshold, self.stop_metric)

    @property
    def n_steps(self) -> int:
        """Steps of a run; a t_max off the dt grid is rounded to it."""
        return int(round(self.t_max / self.dt))


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
        if not np.iscomplexobj(self.samples):
            return self.samples
        # at most _SERIES_BLOCK kets a call, so the form temporaries of
        # _bloch_batch stay small whatever the run length
        out = np.empty(self.samples.shape[:-1] + (3,))
        block = max(1, _SERIES_BLOCK // self.samples.shape[1])
        for i in range(0, len(out), block):
            out[i:i + block] = _bloch_batch(self.samples[i:i + block])
        return out

    def to_csv(self, path) -> None:
        """One row per sample: time, per-qubit Bloch components, metrics."""
        u = self.bloch()  # raises before the file exists when there are no samples
        names = sorted(self.metrics)
        qubits = range(1, u.shape[1] + 1)  # CLI reports 1-based qubit indices
        header = ["time"] + [f"q{i}_{c}" for i in qubits for c in "xyz"]
        table = np.column_stack([self.sample_times, u.reshape(len(u), -1)]
                                + [self.metrics[m] for m in names])
        # rows become Python floats one at a time, never the whole table
        write_table(path, header + names, (map(repr, row.tolist()) for row in table))


def write_table(path, header: list[str], rows) -> None:
    """CSV header and rows of cell strings (no comma, quote or line break in
    a cell), comma-joined with \\r\\n line ends: csv.writer's bytes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


# For the real view r of a ket (a, b), row p of (r @ _BLOCH_FORMS).reshape(3, 4)
# is the form M_p with M_p . r the Bloch component p:
#   x = 2 (Re a Re b + Im a Im b),  y = 2 (Re a Im b - Im a Re b),
#   z = |a|^2 - |b|^2.
# Each column holds at most one nonzero (+-1 or +-2), so building M is exact.
_BLOCH_FORMS = np.array([
    # x           y            z
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],  # Re a
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],  # Im a
    [2, 0, 0, 0, 0, -2, 0, 0, 0, 0, -1, 0],  # Re b
    [0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, -1],  # Im b
], dtype=float)


def _bloch_batch(kets: np.ndarray) -> np.ndarray:
    """Bloch vectors of a (..., 2) ket batch, shape (..., 3), from the real view."""
    r = np.ascontiguousarray(kets, dtype=complex).view(float)
    return np.einsum("...pj,...j->...p", (r @ _BLOCH_FORMS).reshape(r.shape[:-1] + (3, 4)), r)


# (cos phi, sin(phi) e) @ _STEP_FORMS is the real 4x4 form of
# exp(-i phi e.sigma) = cos(phi) I - i sin(phi) e.sigma, flattened.
_STEP_FORMS = np.concatenate([np.eye(4)[None], MINUS_I_PAULI_REAL]).reshape(4, 16)


def step_work(lead: tuple) -> dict:
    """Scratch arrays of _step_kets for kets lead + (2,), each written before it is read."""
    def e(*tail):
        return np.empty(lead + tail)
    w = dict(sq=e(3), omega=e(), phi=e(), sin=e(), div=e(), zero=np.empty(lead, bool),
             coef=e(4), step=e(16))
    w.update(sin_col=w["sin"][..., None], cos=w["coef"][..., 0], rot=w["coef"][..., 1:],
             step44=w["step"].reshape(lead + (4, 4)))
    return w


def _step_kets(kets: np.ndarray, axes: np.ndarray, dt: float, work=None) -> np.ndarray:
    """Vectorized exp(-i dt n.sigma) on a (..., 2) ket batch; exactly unitary.

    Works on the real (Re a, Im a, Re b, Im b) view of the kets. Each entry of the real
    step matrix is one coefficient times 0 or +-1, so building it is exact and every row's
    result depends only on that row. Temporaries go into work, a step_work; new kets are returned.
    """
    r = np.ascontiguousarray(kets, dtype=complex).view(float)
    w = step_work(r.shape[:-1]) if work is None else work
    omega, phi, sin = w["omega"], w["phi"], w["sin"]
    np.sqrt(np.add.reduce(np.multiply(axes, axes, out=w["sq"]), -1, out=omega), out=omega)
    np.cos(np.multiply(omega, dt, out=phi), out=w["cos"])
    # sin(0) is exactly 0, so a zero axis (logical_not: omega == 0) gets a zero rotation part
    np.add(omega, np.logical_not(omega, out=w["zero"]), out=w["div"])
    np.divide(np.sin(phi, out=sin), w["div"], out=sin)
    np.multiply(axes, w["sin_col"], out=w["rot"])
    np.matmul(w["coef"], _STEP_FORMS, out=w["step"])
    return (w["step44"] @ r[..., None])[..., 0].view(complex)


def _rotate_vectors(x: np.ndarray, axes: np.ndarray, dt: float) -> np.ndarray:
    """Rodrigues rotation of each (..., 3) row of x about its axis n by |n| * dt.

    Written on the unnormalized axis, x c + (n x x) s/|n| + n (n . x)(1 - c)/|n|^2
    with c, s the cosine and sine of the angle, so no unit axis is formed.
    A zero axis leaves its row unchanged. The rotation keeps |x| to rounding.
    """
    w2 = (axes * axes).sum(axis=-1)
    phi = np.sqrt(w2) * dt
    c = np.cos(phi)
    safe = w2 + (w2 == 0.0)  # a zero axis has c = 1 and n x x = 0: any divisor will do
    s = np.sin(phi) / np.sqrt(safe)
    k = (1.0 - c) * (axes * x).sum(axis=-1) / safe
    return x * c[..., None] + row_cross(axes, x) * s[..., None] + axes * k[..., None]


def _consecutive_v(kets: np.ndarray) -> np.ndarray:
    """(N-1) - sum of Re<psi_i|psi_{i+1}> over consecutive indices, per network.

    Re<psi_i|psi_j> is the real dot product of the kets' real views.
    """
    r = np.ascontiguousarray(kets, dtype=complex).view(float)
    return r.shape[-2] - 1 - np.einsum("...ij,...ij->...", r[..., :-1, :], r[..., 1:, :])


def _pairwise_error(u: np.ndarray) -> np.ndarray:
    """Max pairwise |rho'_i - rho'_j|_F = max |u_i - u_j| / sqrt(2), per network."""
    d = u[..., :, None, :] - u[..., None, :, :]
    # sqrt is monotone, so taking it after the max gives the same value
    return np.sqrt((d * d).sum(axis=-1).max(axis=(-2, -1))) / np.sqrt(2.0)


def _max_pairwise_angle(u: np.ndarray) -> np.ndarray:
    """Largest angle between two of the N unit vectors, per network."""
    dots = np.clip(u @ np.swapaxes(u, -1, -2), -1.0, 1.0)
    return np.arccos(dots.min(axis=(-2, -1)))


def in_open_hemisphere(u: np.ndarray) -> bool | np.ndarray:
    """True iff some unit vector c has c . u_i > 1e-9 for every row u_i.

    u of shape (N, 3) gives a bool, a (B, N, 3) stack a (B,) bool array.
    Trial directions (+-x, +-y, +-z, each row and the normalized row mean)
    settle most members in one batch; _hemisphere_exact decides the rest.
    A set with a nearly antipodal pair can read False while some c has a
    margin up to a few 1e-8 above 1e-9: the pair candidate u_i + u_k
    cancels there and keeps about 7 digits.
    """
    u = np.asarray(u, dtype=float)
    stack = u.reshape((-1,) + u.shape[-2:])
    dirs = np.concatenate([stack, stack.mean(axis=-2, keepdims=True)], axis=-2)
    norms = np.sqrt((dirs * dirs).sum(axis=-1, keepdims=True))
    dirs /= np.where(norms > 0.0, norms, 1.0)
    axis_margins = np.concatenate([stack.min(axis=-2), -stack.max(axis=-2)], axis=-1)
    dir_margins = (stack @ np.swapaxes(dirs, -1, -2)).min(axis=-2)
    inside = np.maximum(axis_margins.max(axis=-1), dir_margins.max(axis=-1)) > 1e-9
    for b in np.flatnonzero(~inside):
        inside[b] = _hemisphere_exact(stack[b])
    return bool(inside[0]) if u.ndim == 2 else inside


def _hemisphere_exact(u: np.ndarray) -> bool:
    """Exact decision for one (N, 3) set, its rows scaled to unit length.

    When max over unit c of min_i c . u_i is positive, c is the centre of
    the smallest cap holding the rows, fixed by at most three rows at the
    same c . u: a row u_k, the direction of u_i + u_k, or the normal
    (u_i - u_k) x (u_j - u_k) turned toward u_k. One k at a time over
    i < j < k keeps each pass to at most N^2 / 2 candidates.
    """
    norms = np.sqrt((u * u).sum(axis=1, keepdims=True))
    u = u / np.where(norms > 0.0, norms, 1.0)  # a zero row stays 0: never inside
    for k in range(len(u)):
        d = u[:k] - u[k]
        i, j = np.triu_indices(k, 1)
        c = np.concatenate([u[k:k + 1], u[:k] + u[k], row_cross(d[i], d[j])])
        c *= np.sign(c @ u[k])[:, None]
        # a zero candidate has margin 0 and certifies nothing
        if ((c @ u.T).min(axis=1) > 1e-9 * np.sqrt((c * c).sum(axis=1))).any():
            return True
    return False


PROTOCOLS = ("chain", "geometry", "min-time")
_QCME_BLOCK = 64  # QCME samples per product, so memory does not grow with t_max / dt
# bound on samples x members x N^2 per stacked series call: the pairwise
# (..., N, N, 3) temporaries then stay about 100 kB whatever the run
_SERIES_BLOCK = 4096
# most bytes the kept samples of one run may take; _integrate says when it checks
_MAX_SAMPLE_BYTES = 2 * 2**30


def _batch(states, width: int) -> tuple[np.ndarray, bool]:
    """States as one (N, width) run or a (B, N, width) batch, and whether
    they are a batch."""
    if states.ndim not in (2, 3) or states.shape[-1] != width:
        raise ValueError(f"expected (N, {width}) states or a (B, N, {width}) batch, "
                         f"got {states.shape}")
    return states, states.ndim == 3


def _integrate(x, step, series, cfg: IntegratorConfig, per_sample=(), keep_samples=True):
    """Shared stepping driver over one (N, .) run or a batch (B, ...) with
    its members on the leading axis. Returns the record (times, (B, S, ...)
    samples or None, {name: (B, S) series}, ends); a single run is stepped
    as the plain (N, .) array but recorded as a batch of one.

    step(x) returns the next state of the whole of x. series maps each
    metric name to a function giving one value per state of a stack of
    states with any leading axes. Member b stops at the first kept sample
    ends[b] (-1: none) whose cfg.stop_metric value falls below
    cfg.stop_threshold, sample 0 included, as settling_time reads it. Stopped
    members are stepped on until the last member stops, which ends the run.

    Only the stop metric (when a threshold is set) and the series named
    in per_sample are evaluated at every kept sample; the others after the
    run over the stacked samples, in blocks of at most _SERIES_BLOCK
    samples x members x N^2, so their temporaries stay small. A run with
    keep_samples False keeps no snapshot and no series, only its ends.

    What a run keeps may take at most _MAX_SAMPLE_BYTES. A run without a stop
    threshold that would keep more is rejected before its first step; a
    run with one raises at the sample that goes over, so a run that stops
    early is not rejected for what it would have kept without a stop.
    """
    stop = None
    if cfg.stop_threshold is not None:
        stop = cfg.stop_metric
        if stop not in series:
            raise ValueError(f"unknown stop_metric {stop!r}; "
                             f"this run records {sorted(series)}")
    elif not keep_samples:
        raise ValueError("a run that keeps no samples needs a stop_threshold")
    n_steps = cfg.n_steps
    limit = f"{_MAX_SAMPLE_BYTES / 2**30:g} GiB limit"
    sample_bytes = (n_steps // cfg.sample_every + 2) * x.nbytes
    if stop is None and sample_bytes > _MAX_SAMPLE_BYTES:
        raise ValueError(f"{n_steps} steps sampled every {cfg.sample_every} would keep "
                         f"{sample_bytes / 2**30:.3g} GiB of samples, over the {limit}; "
                         "raise dt or lower t_max")
    single = x.ndim == 2
    steps, snaps = [0], [x] if keep_samples else []
    live = {m: [f(x)] for m, f in series.items() if keep_samples and m in (stop, *per_sample)}
    kept = x.nbytes if keep_samples else 8  # bytes a sample keeps: its snapshot or its time
    ends = np.full(1 if single else x.shape[0], -1)  # stop sample of each member
    k = 0
    while True:  # test the kept sample at step k, then step to the next one
        if stop is not None:
            value = live[stop][-1] if keep_samples else series[stop](x)
            ends[(ends < 0) & (value < cfg.stop_threshold)] = len(steps) - 1
            if (ends >= 0).all():
                break
        if k == n_steps:
            break
        for k in range(k + 1, min(k + cfg.sample_every, n_steps) + 1):
            x = step(x)
        steps.append(k)
        if keep_samples:
            snaps.append(x)
        if len(steps) * kept > _MAX_SAMPLE_BYTES:
            raise ValueError(f"after {k} of {n_steps} steps the kept samples went over "
                             f"the {limit} with a member not yet below the "
                             f"{stop} threshold; raise dt or the threshold")
        for m in live:
            live[m].append(series[m](x))
    times = np.array(steps) * cfg.dt
    metrics = {m: np.column_stack(values) for m, values in live.items()}  # (B, S)
    del live  # its lists go, like the snapshots, before the samples are copied
    samples = None
    if snaps:
        axis = 0 if single else 1  # one (B, S, ...) copy of the (N, .) or (B, N, ...)
        # snapshots, without the per-snapshot views np.stack would make
        samples = np.concatenate(snaps, axis=axis).reshape(len(ends), len(snaps), *x.shape[axis:])
        del snaps  # so the kept samples are held twice only while they are copied
        block = max(1, _SERIES_BLOCK // (x.size // x.shape[-1] * x.shape[-2]))
        parts = np.split(samples, range(block, len(steps), block), axis=1)
        metrics = {m: metrics[m] if m in metrics
                   else np.concatenate([f(part) for part in parts], axis=-1)
                   for m, f in series.items()}
    return times, samples, metrics, ends


def _members(times, samples, metrics, ends, batched: bool):
    """Member b of a record keeps samples 0 to ends[b], or all when it is -1;
    of a record without series it is the settling time times[ends[b]] or None.
    A single run gives its one member, not a list."""
    if not metrics:
        runs = [None if e < 0 else float(times[e]) for e in ends]
    else:
        cuts = np.where(ends < 0, len(times), ends + 1)  # samples each member keeps
        runs = [Trajectory(times[:c], None if samples is None else samples[b, :c],
                           {m: v[b, :c] for m, v in metrics.items()})
                for b, c in enumerate(cuts)]
    return runs if batched else runs[0]


def simulate_network(
    kets0,
    t: Topology | list[Topology],
    protocol: str,
    cfg: IntegratorConfig,
    gain: float = 1.0,
    keep_samples: bool = True,
) -> Trajectory | list[Trajectory] | float | None | list[float | None]:
    """Synchronous closed-loop run of one consensus protocol over qubit networks.

    kets0 of shape (N, 2) gives one Trajectory. A (B, N, 2) batch runs
    B independent networks in one pass and gives one Trajectory per
    member, each matching its one-member run and cut at its own stop
    sample. Every member runs the one protocol with the one gain; t is
    one topology for all of them or a list of B, one per member. A list
    given as protocol or gain is a ValueError before the first step.

    The gain scales time: a step is exp(-i gain dt H). Geometry takes
    H = n . sigma / 2, so with gain 1 the Bloch flow equals the projected-sum
    sphere flow exactly (factor-2 rotation-rate reconciliation); gain 2
    reproduces the bare H = n . sigma protocol.
    keep_samples False keeps no kets and gives settling times on cfg.stop_metric.
    """
    kets, batched = _batch(np.array(kets0, dtype=complex), 2)
    n = kets.shape[-2]
    listed = not isinstance(t, Topology)
    topologies = list(t) if listed else [t]
    if listed and (not batched or len(topologies) != len(kets)):
        raise ValueError(f"{len(topologies)} topologies need a ({len(topologies)}, N, 2) "
                         f"batch of kets, got {kets.shape}")

    def check(ok, message):
        """Raise naming the batch members whose topology fails ok."""
        bad = [b for b, tb in enumerate(topologies) if not ok(tb)]
        if bad:
            raise ValueError(message + (f" (batch members {bad})" if listed else ""))

    check(lambda tb: tb.n == n, f"{n} kets need a {n}-node topology")
    if np.max(np.abs(np.linalg.norm(kets, axis=-1) - 1.0)) > 1e-9:
        raise ValueError("initial kets must be normalized")
    if protocol not in PROTOCOLS:  # a list of names is none of them
        raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    if np.ndim(gain) or not math.isfinite(gain):
        raise ValueError(f"gain must be finite and one float per call, got {gain!r}")
    series = {"V": _consecutive_v,
              "pure_state_error": lambda x: _pairwise_error(_bloch_batch(x))}
    work, dt = step_work(kets.shape[:-1]), gain * cfg.dt  # one workspace for every step

    if protocol == "chain":
        check(is_chain, "chain protocol requires a chain topology")
        check(lambda tb: np.all(tb.weights[tb.weights > 0] == 1.0),
              "chain protocol requires unit edge weights; chain_axes takes none")
        # W_max stays per sample: bench/selftest.py pins a 50-step chain-run at
        # 61 chain_axes calls (50 steps + 11 samples); stacked, that pin reads 51.
        series["W_max"] = lambda x: lyapunov_decay_terms(x).max(axis=-1)
        axes = chain_axes
    elif protocol == "geometry":
        check(is_connected, "geometry protocol requires a connected topology")
        outside = np.flatnonzero(~in_open_hemisphere(_bloch_batch(kets.reshape(-1, n, 2))))
        if outside.size:
            which = f" of batch members {outside.tolist()}" if batched else ""
            warnings.warn(
                f"initial Bloch vectors{which} are not strictly inside an open "
                "hemisphere; convergence of the geometric protocol is not guaranteed",
                stacklevel=2,
            )
        weights = np.array([tb.weights for tb in topologies]) if listed else t.weights
        dt = 0.5 * dt

        def axes(x):
            return geometry_axes(_bloch_batch(x), weights)
    else:
        if n != 2:
            raise ValueError("min-time protocol is defined for exactly 2 qubits")
        fixed = np.array([np.stack(min_time_pair_hamiltonians(u[0], u[1]))
                          for u in _bloch_batch(kets.reshape(-1, 2, 2))])
        fixed = fixed if batched else fixed[0]  # one network's (2, 3) axes

        def axes(x):
            return fixed

    def step(x):
        return _step_kets(x, axes(x), dt, work)

    return _members(*_integrate(kets, step, series, cfg, ("W_max",), keep_samples), batched)


def simulate_sphere(
    x0,
    t: Topology,
    cfg: IntegratorConfig,
) -> Trajectory | list[Trajectory]:
    """Classical twin of the quantum geometric protocol on the 2-sphere.

    Integrates dx_i/dt = (I - x_i x_i^T) sum_j w_ij x_j by rotating each
    vector about the frozen per-step axis x_i x (projected sum), the same
    discrete flow the quantum integrator induces on Bloch vectors. Steps
    stay on the sphere exactly (drift is rounding only). Batching and
    stopping follow simulate_network: x0 of shape (N, 3) gives one
    Trajectory, (B, N, 3) one per member.
    """
    x, batched = _batch(np.array(x0, dtype=float), 3)
    if x.shape[-2] != t.n:
        raise ValueError(f"{x.shape[-2]} vectors for a {t.n}-node topology")
    if np.max(np.abs(np.linalg.norm(x, axis=-1) - 1.0)) > 1e-9:
        raise ValueError("initial vectors must be unit")

    def step(x):
        return _rotate_vectors(x, geometry_axes(x, t), cfg.dt)

    series = {"max_angle": _max_pairwise_angle, "pure_state_error": _pairwise_error}
    return _members(*_integrate(x, step, series, cfg), batched)


def _qcme_flow(rho: np.ndarray, t: Topology):
    """Map from (K,) times to the (B, K, 2^N, 2^N) states of the exact QCME flow.

    On vec(rho) the generator L = sum w_jk (P_jk - I), P_jk symmetric
    permutations, is real and symmetric: rho(t) = V e^{t Lambda} V^T vec rho
    from one eigh. The flow mixes unitary conjugations, so it keeps positivity.
    """
    dim = rho.shape[-1]
    # row i is L of basis matrix i, so the rows stack to L^T = L
    gen = qcme_generator(t)(np.eye(dim * dim).reshape(-1, dim, dim)).real
    lam, v = np.linalg.eigh(gen.reshape(dim * dim, -1))
    lam = np.minimum(lam, 0.0)  # L <= 0; positive eigenvalues are rounding
    # V is real: each member's real and imaginary parts flow as their own product
    coef = np.stack([rho.real, rho.imag], axis=1).reshape(len(rho), 2, 1, -1) @ v

    def states(times: np.ndarray) -> np.ndarray:
        re, im = np.moveaxis((np.exp(times[:, None] * lam) * coef) @ v.T, 1, 0)
        return (re + 1j * im).reshape(len(rho), len(times), dim, dim)

    return states


def simulate_qcme(
    rho0, t: Topology, cfg: IntegratorConfig
) -> Trajectory | list[Trajectory]:
    """Full-network QCME run recording the 2-norm distance to the quantum average.

    Samples the exact flow (_qcme_flow) on _integrate's grid and stops a
    member as _integrate would, on its "composite_distance" series. rho0 of
    shape (2^N, 2^N), N <= 4, gives one Trajectory; a (B, 2^N, 2^N) batch
    gives one per member, each equal to its one-member run.
    """
    if t.n > 4:
        raise ValueError(f"the exact QCME flow is limited to 4 qubits, got {t.n}")
    if cfg.stop_threshold is not None and cfg.stop_metric != "composite_distance":
        raise ValueError(f"unknown stop_metric {cfg.stop_metric!r}; "
                         "this run records ['composite_distance']")
    rho = np.array(rho0, dtype=complex)
    dim = 2**t.n
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix or a (B, {dim}, {dim}) "
                         f"batch for {t.n} qubits")
    if np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)) > 1e-9:
        raise ValueError("rho0 must have unit trace")
    if np.linalg.eigvalsh(0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))).min() < -1e-9:
        raise ValueError("rho0 must be positive semidefinite")

    batch = rho.reshape(-1, dim, dim)
    states, rho_bar = _qcme_flow(batch, t), quantum_average(batch)[:, None]
    times = np.append(np.arange(0, cfg.n_steps, cfg.sample_every), cfg.n_steps) * cfg.dt
    stop = -math.inf if cfg.stop_threshold is None else cfg.stop_threshold
    d = np.empty((len(batch), len(times)))
    for start in range(0, len(times), _QCME_BLOCK):
        block = slice(start, start + _QCME_BLOCK)
        d[:, block] = np.linalg.norm(states(times[block]) - rho_bar, 2, axis=(-2, -1))
        below = d[:, :block.stop] < stop
        if below.any(axis=1).all():
            break
    ends = np.where(below.any(axis=1), below.argmax(axis=1), -1)
    return _members(times, None, {"composite_distance": d}, ends, rho.ndim == 3)


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
