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

from .core import I2, SIGMA_Z
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


@dataclass(frozen=True)
class NoiseParams:
    """Rates of the weak-measurement master equation."""

    gamma_r: float = 10.0     # relaxation
    gamma_phi: float = 10.0   # dephasing
    gamma_z: float = 0.1      # measurement strength
    eta_z: float = 1.0        # detection efficiency

    def __post_init__(self):
        if min(self.gamma_r, self.gamma_phi, self.gamma_z) < 0.0:
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
    ax, ay, az = np.moveaxis(np.asarray(axis, dtype=float), -1, 0)
    entries = np.stack([az, ax - 1j * ay, ax + 1j * ay, -az], axis=-1)
    return entries.reshape(az.shape + (2, 2))


def _coherence(rho: np.ndarray) -> np.ndarray:
    """Planar coherence 2 |rho_10|; np.hypot, unlike np.abs, is libm's."""
    return 2.0 * np.hypot(rho[..., 1, 0].real, rho[..., 1, 0].imag)


def _expected_z(rho: np.ndarray) -> np.ndarray:
    return (rho[..., 0, 0] - rho[..., 1, 1]).real


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
    ax = np.zeros(3) if axis is None else axis
    hl = cfg.dt * lindblad_rhs(np.eye(4).reshape(4, 2, 2), ax, p).reshape(4, 4).T
    step = sum(np.linalg.matrix_power(hl, n) / math.factorial(n) for n in range(5))
    n_steps = int(round(cfg.t_max / cfg.dt))
    return (np.linalg.matrix_power(step, n_steps) @ np.ravel(rho0)).reshape(2, 2)


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
    # a zero axis gives nhat = 0 and u = I exactly
    nhat = _axis_matrix(axis / np.where(omega > 0.0, omega, 1.0)[..., None])
    phi = (omega * dt)[..., None, None]
    u = np.cos(phi) * I2 - 1j * np.sin(phi) * nhat
    rho = u @ rho @ np.swapaxes(u, -1, -2).conj()

    rho = rho + _drift(rho, p) * dt
    if p.eta_z * p.gamma_z > 0.0:
        # H[sigma_z](rho) = sigma_z rho + rho sigma_z - 2 <sigma_z> rho
        z = _expected_z(rho)[..., None, None]
        innovation = 2.0 * rho * SIGMA_Z - (2.0 * z) * rho
        rho = rho + math.sqrt(p.eta_z * p.gamma_z) * innovation * dW[..., None, None]

    rho = 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())
    rho = rho / (rho[..., 0, 0] + rho[..., 1, 1]).real[..., None, None]
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


def feedback_hamiltonian(rho_i, rho_j, c0_i, yz_i, p: NoiseParams) -> FeedbackAxis:
    """Equatorial coherence-protection axis for qubit i, over batch axes.

    mu = Gamma * C_xy(rho_i(0)) / Y_z, rotated to the half-sum of the
    planar phases of both qubits (two-argument arctangent). Feedback is
    suspended (zero axis) when the averaged record is below the floor or
    either qubit sits at the planar origin.
    """
    s_i = 2.0 * np.asarray(rho_i, dtype=complex)[..., 1, 0]  # x + iy of qubit i
    s_j = 2.0 * np.asarray(rho_j, dtype=complex)[..., 1, 0]
    suspended = ((np.abs(yz_i) < RECORD_FLOOR) | (np.hypot(s_i.real, s_i.imag) < 1e-9)
                 | (np.hypot(s_j.real, s_j.imag) < 1e-9))
    phi = np.asarray(0.5 * _LIBM_ATAN2(-s_i.real, s_i.imag)
                     + 0.5 * _LIBM_ATAN2(-s_j.real, s_j.imag), dtype=float)
    mu = np.where(suspended, 0.0,
                  p.gamma_total * c0_i / np.where(suspended, 1.0, yz_i))
    axis = np.stack([mu * np.cos(phi), mu * np.sin(phi), np.zeros_like(mu)], axis=-1)
    return FeedbackAxis(axis, suspended)


@dataclass
class PairTrajectory:
    """Per-sample series of a protected-pair run."""

    sample_times: np.ndarray
    coherence: np.ndarray      # (S, 2)
    distance: np.ndarray       # (S,) Frobenius distance between the qubits
    target: np.ndarray         # (2,) initial coherence values held by feedback
    suspended_steps: int
    final_rhos: np.ndarray     # (2, 2, 2) end-of-run density matrices


def simulate_protected_pair(
    rho0_i,
    rho0_j,
    p: NoiseParams,
    cfg: IntegratorConfig,
    seed: int | list[int],
    feedback: bool | list[bool] = True,
) -> PairTrajectory | list[PairTrajectory]:
    """Co-evolve two qubits under independent measurement noise.

    Each qubit owns an independent Wiener stream; the feedback axes are
    rebuilt every step from the running measurement averages. Feedback is
    off during the warm-up window. Deterministic under a fixed seed: the
    noise is default_rng(seed).normal(0, sqrt(dt), size=(n_steps, 2)).

    An int seed gives one PairTrajectory. Seeds with one feedback flag
    each step one pair per seed, all from the same initial states, as one
    batch, and give one PairTrajectory per seed, each equal to its
    one-member run.
    """
    batched = np.ndim(seed) > 0
    seeds = list(seed) if batched else [seed]
    fb_on = np.array(feedback if batched else [feedback], dtype=bool)
    if fb_on.shape != (len(seeds),):
        raise ValueError(f"{fb_on.size} feedback flags for {len(seeds)} seeds")
    if fb_on.any() and p.gamma_z == 0.0:
        raise ValueError("feedback needs a measurement channel (gamma_z > 0)")
    rho0 = np.array([rho0_i, rho0_j], dtype=complex)
    target = _coherence(rho0)
    n_steps, sqrt_dt = int(round(cfg.t_max / cfg.dt)), math.sqrt(cfg.dt)
    noise = np.stack([np.random.default_rng(s).normal(0.0, sqrt_dt, (n_steps, 2))
                      for s in seeds], axis=1)

    y_sum = np.zeros((len(seeds), 2))
    suspended = np.zeros(len(seeds), dtype=int)
    k = 0

    def step(x, members):
        nonlocal k
        t = k * cfg.dt
        on = fb_on[members]
        axes = np.zeros(x.shape[:-2] + (3,))
        if t >= WARM_UP_TIME and on.any():
            fb = feedback_hamiltonian(x, x[:, ::-1], target, y_sum[members] / t, p)
            axes = np.where(on[:, None, None], fb.axis, 0.0)
            suspended[members] += (fb.suspended & on[:, None]).sum(axis=1)
        x, dy = sme_step(x, axes, p, noise[k, members], cfg.dt)
        if dy is not None:
            y_sum[members] += dy
        k += 1
        return x

    def record(x):
        cxy = _coherence(x)
        # Frobenius norm as np.linalg.norm computes it for one 2x2 matrix
        d = (x[:, 0] - x[:, 1]).reshape(-1, 4)
        dist = np.sqrt(np.vecdot(d.real, d.real) + np.vecdot(d.imag, d.imag))
        return cxy[:, 0], cxy[:, 1], dist

    x0 = np.repeat(rho0[None], len(seeds), axis=0)
    runs = _integrate(x0, step, record, ("cxy_i", "cxy_j", "distance"), cfg)
    out = [PairTrajectory(r.sample_times,
                          np.stack([r.metrics["cxy_i"], r.metrics["cxy_j"]], axis=1),
                          r.metrics["distance"], target, int(n), r.samples[-1])
           for r, n in zip(runs, suspended)]
    return out if batched else out[0]
