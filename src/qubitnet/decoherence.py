"""Stochastic master equation with coherence-protection feedback.

A single qubit under relaxation, dephasing, and continuous weak
z-measurement, stepped by Euler-Maruyama on the dissipative and
innovation terms with the Hamiltonian handled by its exact 2x2
exponential (the feedback gain can be large, and the exact unitary keeps
the commutator part unconditionally stable). The two-qubit feedback law
steers both qubits with an equatorial Hamiltonian built from the
measurement record so that their planar coherence holds near its initial
value while the inter-qubit distance shrinks.

Every function acts on (..., 2, 2) stacks of density matrices, so a whole
ensemble of protected pairs steps as one (M, 2, 2, 2) batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import SIGMA_Z
from .dynamics import IntegratorConfig, _integrate

#: warm-up window with feedback off, and the floor on the averaged
#: measurement record; both regularize the early-time 1/Y_z singularity.
WARM_UP_TIME = 0.01
RECORD_FLOOR = 1e-3

_OFF_DIAGONAL = np.array([[0.0, 1.0], [1.0, 0.0]])

# np.arctan2's SIMD kernel differs from libm in the last bit on a few
# percent of inputs, and the feedback loop amplifies one ulp of phase to
# ~1e-3 in coherence within ~1500 steps; libm's atan2, element by element,
# keeps each seed's trajectory that of a loop of scalar math calls.
_LIBM_ATAN2 = np.frompyfunc(math.atan2, 2, 1)

_NOISE_BLOCK = 1024  # noise steps drawn at a time, so none before _integrate's checks
_NOISE_BYTES = 16 * 2**20  # and at most this many bytes of them, whatever the batch


def _noise_block(members: int) -> int:
    return max(1, min(_NOISE_BLOCK, _NOISE_BYTES // (16 * members)))  # 2 float64 a member a step


@dataclass(frozen=True)
class NoiseParams:
    """Rates of the weak-measurement master equation."""

    gamma_r: float = 10.0     # relaxation
    gamma_phi: float = 10.0   # dephasing
    gamma_z: float = 0.1      # measurement strength
    eta_z: float = 1.0        # detection efficiency

    def __post_init__(self):
        rates = (self.gamma_r, self.gamma_phi, self.gamma_z)
        if not all(math.isfinite(r) for r in rates):
            raise ValueError(f"rates must be finite, got {rates}")
        if min(rates) < 0.0:
            raise ValueError("rates must be nonnegative")
        if not 0.0 < self.eta_z <= 1.0:
            raise ValueError("detection efficiency must be in (0, 1]")

    @property
    def gamma_total(self) -> float:
        return self.gamma_r + self.gamma_phi + self.gamma_z


class FeedbackAxis(NamedTuple):
    axis: np.ndarray        # (..., 3)
    suspended: np.ndarray   # (...,) bool


def _drift(rho: np.ndarray, p: NoiseParams) -> np.ndarray:
    """Relaxation, dephasing and measurement back-action, in closed form.

    D[sigma_-](rho) = [[r11, -r01/2], [-r10/2, -r11]] and
    D[sigma_z](rho) = -2 * (off-diagonal part of rho); each entry is the
    value the matrix-product form gives, to the bit.
    """
    off = rho * _OFF_DIAGONAL
    out = 4.0 * p.gamma_r * (rho[..., 1:, 1:] * SIGMA_Z - 0.5 * off)
    out += (p.gamma_phi + p.gamma_z) * (-2.0 * off)
    return out


def _axis_matrix(axis) -> np.ndarray:
    """axis . sigma for every (..., 3) axis."""
    axis = np.asarray(axis, dtype=float)
    ax, az, iay = axis[..., 0], axis[..., 2], 1j * axis[..., 1]
    out = np.empty(az.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = az, -az
    out[..., 0, 1], out[..., 1, 0] = ax - iay, ax + iay
    return out


def _coherence(rho: np.ndarray) -> np.ndarray:
    """Planar coherence 2 |rho_10|; np.hypot, unlike np.abs, is libm's."""
    return 2.0 * np.hypot(rho[..., 1, 0].real, rho[..., 1, 0].imag)


def _expected_z(rho: np.ndarray) -> np.ndarray:
    return rho[..., 0, 0].real - rho[..., 1, 1].real


def lindblad_rhs(rho, axis, p: NoiseParams) -> np.ndarray:
    """Deterministic part of the master equation (innovation dropped)."""
    rho = np.asarray(rho, dtype=complex)
    h = _axis_matrix(axis)
    return -1j * (h @ rho - rho @ h) + _drift(rho, p)


def simulate_lindblad(rho0, axis, p: NoiseParams, cfg: IntegratorConfig) -> np.ndarray:
    """RK4 integration of the deterministic master equation; returns rho(t_max).

    The generator L is linear and constant, so one RK4 step is the fixed
    map R = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24 on vec(rho), and
    n_steps of them are R to the n-th power.
    """
    hl = cfg.dt * lindblad_rhs(np.eye(4).reshape(4, 2, 2), axis, p).reshape(4, 4).T
    step = sum(np.linalg.matrix_power(hl, n) / math.factorial(n) for n in range(5))
    return (np.linalg.matrix_power(step, cfg.n_steps) @ np.ravel(rho0)).reshape(2, 2)


def sme_step(rho, axis, p: NoiseParams, dW, dt: float):
    """One stochastic step of every state in a (..., 2, 2) stack.

    axis is (..., 3) and dW (...), drawn by the caller as Normal(0, dt).
    Returns the new states and the output increments dy (...); with zero
    measurement strength there is no output line and dy is None. The
    states are symmetrized and trace-renormalized after the step; an
    eigenvalue below -1e-6 in any member aborts with a step-size
    diagnostic naming that member's batch index.
    """
    rho = np.asarray(rho, dtype=complex)
    axis = np.asarray(axis, dtype=float)
    dW = np.asarray(dW, dtype=float)
    z_before = _expected_z(rho)

    # vecdot is the dot product np.linalg.norm takes for one vector
    omega = np.sqrt(np.vecdot(axis, axis))
    phi = omega * dt
    # u = cos(phi) I - i sin(phi) nhat.sigma, entry by entry; a zero axis
    # gives sn = 0 and u = I
    sn = np.sin(phi)[..., None] * (axis / np.where(omega > 0.0, omega, 1.0)[..., None])
    u = np.empty(phi.shape + (2, 2), dtype=complex)
    re, im = u.real, u.imag
    re[..., 0, 0] = re[..., 1, 1] = np.cos(phi)
    re[..., 0, 1], re[..., 1, 0] = -sn[..., 1], sn[..., 1]
    im[..., 0, 0], im[..., 1, 1] = -sn[..., 2], sn[..., 2]
    im[..., 0, 1] = im[..., 1, 0] = -sn[..., 0]
    rho = u @ rho @ u.swapaxes(-1, -2).conj()

    rho = rho + _drift(rho, p) * dt
    if p.eta_z * p.gamma_z > 0.0:
        # H[sigma_z](rho) = sigma_z rho + rho sigma_z - 2 <sigma_z> rho
        z = _expected_z(rho)[..., None, None]
        innovation = 2.0 * rho * SIGMA_Z - (2.0 * z) * rho
        rho = rho + math.sqrt(p.eta_z * p.gamma_z) * innovation * dW[..., None, None]

    rho = 0.5 * (rho + rho.swapaxes(-1, -2).conj())
    rho = rho / (rho[..., 0, 0].real + rho[..., 1, 1].real)[..., None, None]
    # closed-form 2x2 eigenvalue bound, cheaper than eigvalsh in the hot loop
    a, d = rho[..., 0, 0].real, rho[..., 1, 1].real
    tr = a + d
    det = a * d - (rho[..., 0, 1] * rho[..., 1, 0]).real
    lam_min = 0.5 * (tr - np.sqrt(np.maximum(0.0, tr * tr - 4.0 * det)))
    if (lam_min < -1e-6).any():
        bad = np.argwhere(lam_min < -1e-6)[0]
        where = f" in batch member {tuple(int(i) for i in bad)}" if bad.size else ""
        raise RuntimeError(f"SME step drove an eigenvalue below -1e-6{where}; reduce dt "
                           f"(dt={dt}, rates total {p.gamma_total})")

    dy = None
    if p.gamma_z > 0.0:
        dy = z_before * dt + dW / (2.0 * math.sqrt(p.eta_z * p.gamma_z))
    return rho, dy


def feedback_hamiltonian(pair, c0, yz, p: NoiseParams) -> FeedbackAxis:
    """Equatorial coherence-protection axes of both qubits of each pair.

    pair is (..., 2, 2, 2), qubit q's partner being qubit 1 - q; c0 and yz
    are (..., 2). mu = Gamma * C_xy(rho_q(0)) / Y_z, rotated to the half-sum
    of the pair's planar phases. Feedback is suspended (zero axis) below the
    record floor or if either qubit of the pair sits at the planar origin.
    """
    s = 2.0 * np.asarray(pair, dtype=complex)[..., 1, 0]  # x + iy of each qubit
    small = np.hypot(s.real, s.imag) < 1e-9
    suspended = (np.abs(yz) < RECORD_FLOOR) | (small | small[..., ::-1])
    half = 0.5 * _LIBM_ATAN2(-s.real, s.imag).astype(float)
    phi = half + half[..., ::-1]  # own phase first, then the partner's
    mu = np.where(suspended, 0.0, p.gamma_total * c0 / np.where(suspended, 1.0, yz))
    axis = np.zeros(mu.shape + (3,))
    axis[..., 0], axis[..., 1] = mu * np.cos(phi), mu * np.sin(phi)
    return FeedbackAxis(axis, suspended)


@dataclass
class PairTrajectory:
    """Per-sample series of a protected-pair ensemble, member axis first."""

    sample_times: np.ndarray
    coherence: np.ndarray        # (M, S, 2)
    distance: np.ndarray         # (M, S) Frobenius distance between the qubits
    target: np.ndarray           # (2,) initial coherence values held by feedback
    suspended_steps: np.ndarray  # (M,) steps with feedback suspended, both qubits counted
    final_rhos: np.ndarray       # (M, 2, 2, 2) end-of-run density matrices


def simulate_protected_pair(
    rho0_i,
    rho0_j,
    p: NoiseParams,
    cfg: IntegratorConfig,
    seeds: list[int],
    feedback: list[bool],
) -> PairTrajectory:
    """Co-evolve two qubits under independent measurement noise.

    Each qubit owns an independent Wiener stream; the feedback axes are
    rebuilt every step from the running measurement averages, with
    feedback off during the warm-up window. A seed's noise, drawn in blocks
    as the run goes, is default_rng(seed).normal(0, sqrt(dt), (n_steps, 2)).

    Each seed, with its feedback flag, steps one pair from the same
    initial states; all pairs step as one batch, and member m of the
    result equals the one-member run of seeds[m]. Every pair runs to
    cfg.t_max, since a cfg.stop_threshold is rejected, so the members
    share one time grid.
    """
    fb_on = np.array(feedback, dtype=bool)
    if fb_on.shape != (len(seeds),):
        raise ValueError(f"{fb_on.size} feedback flags for {len(seeds)} seeds")
    any_feedback = bool(fb_on.any())
    if any_feedback and p.gamma_z == 0.0:
        raise ValueError("feedback needs a measurement channel (gamma_z > 0)")
    if cfg.stop_threshold is not None:
        raise ValueError("protected-pair runs take no stop_threshold; they run to t_max")
    rho0 = np.array([rho0_i, rho0_j], dtype=complex)
    target = _coherence(rho0)
    rngs = [np.random.default_rng(s) for s in seeds]
    noise = np.empty((_noise_block(len(seeds)), len(seeds), 2))
    axes = np.zeros((len(seeds), 2, 3))  # zero in the warm-up and wherever feedback is off

    y_sum = np.zeros((len(seeds), 2))
    suspended = np.zeros((len(seeds), 2), dtype=int)  # per member and qubit
    k = 0

    def step(x):
        nonlocal k, y_sum, suspended
        if k % len(noise) == 0:
            for m, rng in enumerate(rngs):
                noise[:, m] = rng.normal(0.0, math.sqrt(cfg.dt), (len(noise), 2))
        t = k * cfg.dt
        if any_feedback and t >= WARM_UP_TIME:
            fb = feedback_hamiltonian(x, target, y_sum / t, p)
            np.copyto(axes, fb.axis, where=fb_on[:, None, None])
            suspended += fb.suspended & fb_on[:, None]
        x, dy = sme_step(x, axes, p, noise[k % len(noise)], cfg.dt)
        if dy is not None:
            y_sum += dy
        k += 1
        return x

    def distance(x):
        # Frobenius norm as np.linalg.norm computes it for one 2x2 matrix
        d = (x[..., 0, :, :] - x[..., 1, :, :]).reshape(x.shape[:-3] + (4,))
        return np.sqrt(np.vecdot(d.real, d.real) + np.vecdot(d.imag, d.imag))

    series = {"cxy_i": lambda x: _coherence(x[..., 0, :, :]),
              "cxy_j": lambda x: _coherence(x[..., 1, :, :]),
              "distance": distance}
    times, rhos, metrics, _ = _integrate(np.repeat(rho0[None], len(seeds), axis=0),
                                         step, series, cfg)
    return PairTrajectory(times, np.stack([metrics["cxy_i"], metrics["cxy_j"]], axis=-1),
                          metrics["distance"], target, suspended.sum(axis=1), rhos[:, -1].copy())
