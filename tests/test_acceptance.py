"""Acceptance suite: one test per headline claim, at fixed tolerances.

Each test prints a single summary line with the measured margin so the
pytest -v output reads as a pass/fail checklist.
"""

import math
import warnings

import numpy as np
import pytest

from qubitnet import experiments
from qubitnet.core import (
    conjugate,
    decompose,
    ket_from_angles,
    ket_from_bloch,
    purity,
    so3_from_su2,
    su2_from_axis_angle,
)
from qubitnet.dynamics import (
    IntegratorConfig,
    in_open_hemisphere,
    meeting_time,
    simulate_network,
    simulate_sphere,
)
from qubitnet.metrics import SettlingSpec, settling_time
from qubitnet.protocols import (
    chain_axes,
    geometry_axes,
    two_qubit_closed_form_axis,
)
from qubitnet.topology import chain, grid


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_minimum_time_law():
    """Pair meeting time equals half the great-circle angle, 1e-3 relative."""
    rng = np.random.default_rng(100)
    worst = 0.0
    checked = 0
    while checked < 100:
        ua, ub = _random_unit(rng), _random_unit(rng)
        dot = float(np.clip(ua @ ub, -1, 1))
        if abs(dot) > 0.999:  # skip degenerate (anti)parallel draws
            continue
        expect = 0.5 * math.acos(dot)
        kets = np.array([ket_from_bloch(ua), ket_from_bloch(ub)])
        cfg = IntegratorConfig(dt=1e-3, t_max=expect + 0.5)
        traj = simulate_network(kets, chain(2), "min-time", cfg)
        got = meeting_time(traj, angle_tol=1e-6)
        assert got is not None
        worst = max(worst, abs(got - expect) / expect)
        checked += 1
    print(f"PASS minimum-time law: max relative error {worst:.3e} < 1e-3")
    assert worst < 1e-3


def test_closed_form_axis_matches_chain_protocol():
    """Two-qubit closed-form axis equals the chain-protocol axis, 1e-10."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        ti, tj = rng.uniform(0.0, math.pi, size=2)
        fi, fj = rng.uniform(0.0, 2.0 * math.pi, size=2)
        closed = two_qubit_closed_form_axis(ti, fi, tj, fj)
        kets = np.array([ket_from_angles(ti, fi), ket_from_angles(tj, fj)])
        worst = max(worst, float(np.max(np.abs(closed - chain_axes(kets)[0]))))
    print(f"PASS closed-form axis: max deviation {worst:.3e} < 1e-10")
    assert worst < 1e-10


def test_chain_convergence():
    """chain(5): V monotone, decay terms nonpositive, finite settling."""
    worst_rise, worst_w, worst_t2 = 0.0, -np.inf, 0.0
    kets = []
    for seed in range(10):
        rng = np.random.default_rng([102, seed])
        kets.append([ket_from_bloch(_random_unit(rng)) for _ in range(5)])
    cfg = IntegratorConfig(dt=1e-3, t_max=50.0, sample_every=10)
    # all seeds as one (10, 5, 2) batch; each member equals its one-seed run
    for traj in simulate_network(np.array(kets), chain(5), "chain", cfg):
        v = traj.metrics["V"]
        worst_rise = max(worst_rise, float(np.max(np.diff(v), initial=0.0)))
        worst_w = max(worst_w, float(np.max(traj.metrics["W_max"])))
        assert traj.metrics["pure_state_error"][-1] < 1e-2
        t2 = settling_time(traj, SettlingSpec(threshold=1e-2, metric="V"))
        assert t2 is not None
        worst_t2 = max(worst_t2, t2)
    print(f"PASS chain convergence: max V rise {worst_rise:.2e} <= 1e-8, "
          f"max W_i {worst_w:.2e} <= 1e-9, max T2 {worst_t2:.2f}")
    assert worst_rise <= 1e-8
    assert worst_w <= 1e-9


def test_quantum_sphere_twin():
    """Quantum geometric runs match the sphere ODE within 1e-6 pointwise."""
    t = grid(3)
    cfg = IntegratorConfig(dt=1e-3, t_max=3.0, sample_every=10)
    worst = 0.0
    pts = []
    for seed in range(20):
        rng = np.random.default_rng([103, seed])
        pts.append([_random_unit(rng) for _ in range(9)])
    pts = np.array(pts)
    pts[..., 2] = np.abs(pts[..., 2])
    kets = np.array([[ket_from_bloch(u) for u in p] for p in pts])
    # all seeds as one (20, 9, 2) and one (20, 9, 3) batch
    quantum = simulate_network(kets, t, "geometry", cfg)
    sphere = simulate_sphere(pts, t, cfg)
    for tq, tc in zip(quantum, sphere):
        worst = max(worst, float(np.max(np.abs(tq.bloch() - tc.samples))))
    print(f"PASS twin check: max pointwise gap {worst:.3e} < 1e-6")
    assert worst < 1e-6


def test_hemisphere_convergence_and_counterexample():
    """Hemisphere initial data stays in a hemisphere and reaches consensus;
    a symmetric non-hemisphere configuration is an equilibrium."""
    t = grid(3)
    kets = []
    for seed in range(20):
        rng = np.random.default_rng([104, seed])
        pts = np.array([_random_unit(rng) for _ in range(9)])
        pts[:, 2] = np.abs(pts[:, 2])
        kets.append([ket_from_bloch(u) for u in pts])
    cfg = IntegratorConfig(dt=1e-3, t_max=50.0, sample_every=10,
                           stop_threshold=1e-2,
                           stop_metric="pure_state_error")
    # all seeds as one (20, 9, 2) batch; each member stops at its own sample
    for traj in simulate_network(np.array(kets), t, "geometry", cfg, gain=2.0):
        assert traj.metrics["pure_state_error"][-1] < 1e-2
        for u in traj.bloch():
            assert in_open_hemisphere(u)

    # checkerboard of antipodal poles: every neighbor sum is parallel to
    # the local state, so the flow vanishes identically
    pts = np.array([[0.0, 0.0, (-1.0) ** (i + i // 3)] for i in range(9)])
    kets = np.array([ket_from_bloch(u) for u in pts])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = simulate_network(
            kets, t, "geometry",
            IntegratorConfig(dt=1e-3, t_max=1.0, sample_every=100), gain=2.0,
        )
    drift = float(np.max(np.abs(traj.bloch() - pts[None])))
    print(f"PASS hemisphere: 20 seeds converged inside a hemisphere; "
          f"checkerboard equilibrium drift {drift:.2e}")
    assert drift < 1e-9
    assert not in_open_hemisphere(pts)


def test_scaling_sub_exponential_and_grid_faster():
    """Chain settling grows sub-exponentially; grids settle faster than
    chains with the same number of qubits."""
    med = {}
    # the 5 seeds of a size run as one batch, with the per-cell streams
    for n in (5, 10, 20, 40, 9, 16, 25):
        vals = experiments.scaling_cells("chain", n, range(5), master_seed=0)
        assert all(v is not None for v in vals)
        med[("chain", n)] = float(np.median(vals))
    for side in (3, 4, 5):
        vals = experiments.scaling_cells("grid", side, range(5), master_seed=0)
        assert all(v is not None for v in vals)
        med[("grid", side * side)] = float(np.median(vals))

    # log-settling-time slope per qubit must fall at the tail; an
    # exponential law would keep it constant
    s_head = (math.log(med[("chain", 20)]) - math.log(med[("chain", 5)])) / 15.0
    s_tail = (math.log(med[("chain", 40)]) - math.log(med[("chain", 20)])) / 20.0
    print(f"PASS scaling: log-slope head {s_head:.4f} -> tail {s_tail:.4f}; "
          f"grid vs chain medians "
          + ", ".join(f"{q}q {med[('grid', q)]:.2f}<{med[('chain', q)]:.2f}"
                      for q in (9, 16, 25)))
    assert s_tail < s_head
    for q in (9, 16, 25):
        assert med[("grid", q)] < med[("chain", q)]


def test_qcme_comparison_ordering():
    """Geometric protocol settles faster than the swap-operator master
    equation on both 3-qubit edge sets; the chain protocol settles slower
    than it on the chain. Medians over 10 seeds."""
    cells = experiments.qcme_compare_cells(range(10), master_seed=0)
    med = {k: float(np.median([c["settling"][k] for c in cells]))
           for k in cells[0]["settling"]}
    print("PASS qcme ordering: "
          f"chain geo {med['chain_geo']:.2f} < qcme {med['chain_qcme']:.2f} "
          f"< protocol {med['chain_eq']:.2f}; "
          f"full geo {med['full_geo']:.2f} < qcme {med['full_qcme']:.2f}")
    assert med["chain_geo"] < med["chain_qcme"]
    assert med["chain_eq"] > med["chain_qcme"]
    assert med["full_geo"] < med["full_qcme"]


def test_invariant_suite():
    """Unitarity, conjugation invariants, homomorphism, frame invariance,
    and step-halving stability."""
    rng = np.random.default_rng(105)

    # unitarity drift over a long closed-loop run
    kets = np.array([ket_from_bloch(_random_unit(rng)) for _ in range(4)])
    cfg = IntegratorConfig(dt=1e-3, t_max=10.0, sample_every=100)
    traj = simulate_network(kets, chain(4), "chain", cfg)
    drift = float(np.max(np.abs(np.linalg.norm(traj.samples, axis=2) - 1.0)))
    assert drift < 1e-9

    # purity and mixed weight are conjugation invariants
    from qubitnet.core import density_from_bloch

    worst_inv = 0.0
    for _ in range(200):
        p = rng.normal(size=3)
        p *= rng.uniform(1e-2, 1.0) / np.linalg.norm(p)
        rho = density_from_bloch(p)
        u = su2_from_axis_angle(_random_unit(rng), rng.uniform(0, 7))
        out = conjugate(rho, u)
        worst_inv = max(worst_inv, abs(purity(out) - purity(rho)),
                        abs(decompose(out).mixed_weight
                            - decompose(rho).mixed_weight))
    assert worst_inv < 1e-12

    # group homomorphism of the double cover
    worst_hom = 0.0
    for _ in range(50):
        u = su2_from_axis_angle(_random_unit(rng), rng.uniform(0, 7))
        v = su2_from_axis_angle(_random_unit(rng), rng.uniform(0, 7))
        worst_hom = max(worst_hom, float(np.max(np.abs(
            so3_from_su2(u @ v) - so3_from_su2(u) @ so3_from_su2(v)))))
    assert worst_hom < 1e-9

    # both protocols commute with a global frame rotation
    worst_frame = 0.0
    t = grid(3)
    for _ in range(50):
        u = su2_from_axis_angle(_random_unit(rng), rng.uniform(0, 7))
        r = so3_from_su2(u)
        states = np.array([ket_from_bloch(_random_unit(rng))
                           for _ in range(5)])
        a1 = chain_axes(states @ u.T) - chain_axes(states) @ r.T
        x = np.array([_random_unit(rng) for _ in range(9)])
        a2 = geometry_axes(x @ r.T, t) - geometry_axes(x, t) @ r.T
        worst_frame = max(worst_frame, float(np.max(np.abs(a1))),
                          float(np.max(np.abs(a2))))
    assert worst_frame < 1e-9

    # halving the step moves the settling time by under 1%
    rng2 = np.random.default_rng(106)
    kets = np.array([ket_from_bloch(_random_unit(rng2)) for _ in range(5)])
    stop = []
    for dt in (2e-3, 1e-3):
        cfg = IntegratorConfig(dt=dt, t_max=50.0, stop_threshold=1e-2)
        traj = simulate_network(kets, chain(5), "chain", cfg)
        stop.append(float(traj.sample_times[-1]))
    halving = abs(stop[0] - stop[1]) / stop[1]
    print(f"PASS invariants: unitarity {drift:.1e}, conjugation {worst_inv:.1e}, "
          f"homomorphism {worst_hom:.1e}, frame {worst_frame:.1e}, "
          f"step-halving {halving:.2%}")
    assert halving < 0.01


def test_coherence_protection_statistics(tmp_path):
    """Feedback beats free decay by >= 3 pooled standard errors at t = 0.5;
    the protected pair draws closer; the feedback-off ensemble mean agrees
    with the deterministic master-equation solution within 3 SE."""
    res = experiments.run_coherence_protect(str(tmp_path / "coh"),
                                            master_seed=0, n_traj=100)
    margin = (res["cxy_fb_at_half"] - res["cxy_nofb_at_half"])
    se_units = margin / res["pooled_se_at_half"]
    assert res["dist_fb_final"] < res["dist_fb_initial"]

    finals = res["finals"]["nofb"][:, 0]  # first qubit, feedback off
    mean_rho = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / math.sqrt(finals.shape[0])
    gap = np.abs(mean_rho - res["lindblad_final"])
    lind_ok = bool(np.all(gap <= 3.0 * np.maximum(np.abs(se), 1e-12)))
    print(f"PASS coherence protection: feedback margin {se_units:.1f} SE "
          f">= 3, distance {res['dist_fb_initial']:.2f} -> "
          f"{res['dist_fb_final']:.2f}, Lindblad agreement within 3 SE: "
          f"{lind_ok}")
    assert se_units >= 3.0
    assert lind_ok
