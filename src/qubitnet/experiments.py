"""Seeded experiment runners behind the CLI.

Every runner writes its artifacts plus a manifest.json holding the full
configuration, so a run can be reproduced byte-for-byte from the manifest
alone. Per-cell random streams are derived from the master seed and the
cell coordinates, which makes sweep results independent of execution
order.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .core import density_from_bloch, ket_from_angles, ket_from_bloch
from .decoherence import NoiseParams, simulate_lindblad, simulate_protected_pair
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    simulate_network,
    simulate_qcme,
    simulate_sphere,
    write_manifest,
)
from .metrics import SettlingSpec, quantum_average, settling_time
from .topology import Topology, chain, complete, grid

QCME_CAP_ANGLE = 0.8  # cap radius (rad) for qcme-compare initial spreads
# Heatmap cells stepped as one batch. A batch returns every member's
# full trajectory at once, about 0.5 MB per cell at the default dt, so
# the 1024 cells of the default map run in batches, not all together.
HEATMAP_BATCH = 64


def sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere (normalized Gaussian draws)."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def hemisphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform on the open upper hemisphere by reflecting z < 0 samples."""
    v = sphere_points(rng, n)
    v[:, 2] = np.abs(v[:, 2])
    return v


def cap_points(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """n unit vectors within angle alpha of a random center direction."""
    c = rng.normal(size=3)
    c /= np.linalg.norm(c)
    out: list[np.ndarray] = []
    while len(out) < n:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if math.acos(min(1.0, max(-1.0, float(v @ c)))) < alpha:
            out.append(v)
    return np.array(out)


def kets_from_points(points: np.ndarray) -> np.ndarray:
    return np.array([ket_from_bloch(u) for u in points])


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row])


def run_min_time_heatmap(
    out_dir: str,
    resolution: int = 32,
    dt: float = 1e-3,
    v_threshold: float = 1e-5,
) -> dict:
    """Settling-versus-minimum-time gap on a polar/azimuthal grid.

    Both qubits start at the same polar angle theta in (0, pi/4) with an
    azimuthal offset dphi in (0, pi/2); the pair is run under the chain
    protocol until V drops below v_threshold. The first settling time is
    compared cell by cell against half the great-circle separation.
    Only the azimuthal difference matters (the protocol commutes with
    rotations about z), so the pair is centered in the allowed phi range.
    """
    if resolution < 8:
        raise ValueError("heatmap resolution must be at least 8")
    os.makedirs(out_dir, exist_ok=True)
    thetas = (np.arange(resolution) + 1.0) / (resolution + 1.0) * (math.pi / 4.0)
    dphis = (np.arange(resolution) + 1.0) / (resolution + 1.0) * (math.pi / 2.0)

    cfg = IntegratorConfig(dt=dt, t_max=20.0, stop_threshold=v_threshold)
    spec = SettlingSpec(threshold=v_threshold, metric="V")
    cells = [(theta, dphi, 0.5 * (math.pi / 2.0 - dphi))
             for theta in thetas for dphi in dphis]
    kets = np.array([[ket_from_angles(theta, phi1),
                      ket_from_angles(theta, phi1 + dphi)]
                     for theta, dphi, phi1 in cells])
    t1s = []
    for i in range(0, len(cells), HEATMAP_BATCH):
        trajs = simulate_network(kets[i:i + HEATMAP_BATCH], chain(2), "chain", cfg)
        t1s += [settling_time(traj, spec) for traj in trajs]
    rows = []
    max_diff = 0.0
    for (theta, dphi, phi1), t1 in zip(cells, t1s):
        s1 = np.array([math.sin(theta) * math.cos(phi1),
                       math.sin(theta) * math.sin(phi1),
                       math.cos(theta)])
        s2 = np.array([math.sin(theta) * math.cos(phi1 + dphi),
                       math.sin(theta) * math.sin(phi1 + dphi),
                       math.cos(theta)])
        t_min = 0.5 * math.acos(min(1.0, max(-1.0, float(s1 @ s2))))
        if t1 is None:
            raise RuntimeError(
                f"cell theta={theta:.4f} dphi={dphi:.4f} did not settle"
            )
        rows.append((theta, dphi, t1, t_min, t1 - t_min))
        max_diff = max(max_diff, t1 - t_min)

    path = os.path.join(out_dir, "min_time_heatmap.csv")
    _write_csv(path, ["theta", "dphi", "t1", "t_min", "diff"], rows)
    write_manifest(os.path.join(out_dir, "manifest.json"), {
        "experiment": "min-time-heatmap",
        "resolution": resolution,
        "dt": dt,
        "v_threshold": v_threshold,
    })
    return {"csv": path, "cells": len(rows), "max_diff": max_diff}


def run_network_experiment(
    kind: str,
    out_dir: str,
    seed: int = 0,
    dt: float = 1e-3,
    t_max: float = 50.0,
    topology: Topology | None = None,
) -> dict:
    """Single seeded consensus run with trajectory CSV and summary JSON.

    kind "chain-run": chain of 5 under the Lyapunov chain protocol from
    uniform-sphere initial states, settling metric V. kind "grid-run":
    3 x 3 grid under the geometric protocol (bare gain 2) from
    hemisphere initial states, settling metric pure_state_error (the
    geometric flow aligns Bloch vectors, not global phases, so V has a
    phase floor on non-chain graphs).
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 0])
    if kind == "chain-run":
        t = topology if topology is not None else chain(5)
        protocol, gain = "chain", 1.0
        points = sphere_points(rng, t.n)
        metric = "V"
    elif kind == "grid-run":
        t = topology if topology is not None else grid(3)
        protocol, gain = "geometry", 2.0
        points = hemisphere_points(rng, t.n)
        metric = "pure_state_error"
    else:
        raise ValueError(f"unknown network experiment kind {kind!r}")

    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=5,
                           stop_threshold=None)
    traj = simulate_network(kets_from_points(points), t, protocol, cfg, gain=gain)
    settle = settling_time(traj, SettlingSpec(threshold=1e-2, metric=metric))
    err_settle = settling_time(
        traj, SettlingSpec(threshold=1e-2, metric="pure_state_error")
    )

    csv_path = os.path.join(out_dir, f"{kind.replace('-', '_')}.csv")
    traj.to_csv(csv_path)
    summary = {
        "kind": kind,
        "seed": seed,
        "n_qubits": t.n,
        "settling_metric": metric,
        "settling_time": settle,
        "pure_state_error_settling_time": err_settle,
        "final_V": float(traj.metrics["V"][-1]),
        "final_pure_state_error": float(traj.metrics["pure_state_error"][-1]),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    write_manifest(os.path.join(out_dir, "manifest.json"), {
        "experiment": kind, "seed": seed, "dt": dt, "t_max": t_max,
        "gain": gain, "protocol": protocol, "n_qubits": t.n,
    })
    return summary


def scaling_cells(kind: str, size: int, seeds, master_seed: int,
                  dt: float = 5e-3) -> list[float | None]:
    """Settling times of the (topology size, seed) sweep cells of one size.

    The seeds run as one batch, but each cell's random stream depends
    only on the master seed and the cell coordinates, so cells can run
    in any order, grouping or in parallel.
    """
    if kind == "chain":
        stream, t, draw = 0, chain(size), sphere_points
        protocol, gain, metric, t_max = "chain", 1.0, "V", 10.0 + 2.0 * size * size
    elif kind == "grid":
        stream, t, draw = 1, grid(size), hemisphere_points
        protocol, gain, metric, t_max = "geometry", 2.0, "pure_state_error", 300.0
    else:
        raise ValueError(f"unknown scaling kind {kind!r}")
    kets = np.array([
        kets_from_points(draw(
            np.random.default_rng([master_seed, stream, size, s]), t.n))
        for s in seeds])
    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=10,
                           stop_threshold=1e-2, stop_metric=metric)
    trajs = simulate_network(kets, t, protocol, cfg, gain=gain)
    spec = SettlingSpec(threshold=1e-2, metric=metric)
    return [settling_time(traj, spec) for traj in trajs]


def scaling_cell(kind: str, size: int, seed: int, master_seed: int,
                 dt: float = 5e-3) -> float | None:
    """Settling time of one (topology size, seed) sweep cell."""
    return scaling_cells(kind, size, [seed], master_seed, dt)[0]


def run_scaling_sweep(
    out_dir: str,
    chain_sizes: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    grid_sides: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10),
    n_seeds: int = 5,
    master_seed: int = 0,
    dt: float = 5e-3,
) -> dict:
    """Median settling times versus network size for chains and grids."""
    if n_seeds < 3:
        raise ValueError("need at least 3 seeds per size for a median")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    medians: dict[str, dict[int, float]] = {"chain": {}, "grid": {}}
    for kind, sizes in (("chain", chain_sizes), ("grid", grid_sides)):
        for size in sizes:
            vals = scaling_cells(kind, size, range(n_seeds), master_seed, dt)
            if any(v is None for v in vals):
                raise RuntimeError(f"{kind} size {size}: a seed did not settle")
            med = float(np.median(vals))
            n_qubits = size if kind == "chain" else size * size
            medians[kind][n_qubits] = med
            for s, v in enumerate(vals):
                rows.append((kind, size, n_qubits, s, v))

    path = os.path.join(out_dir, "scaling.csv")
    _write_csv(path, ["kind", "size", "n_qubits", "seed", "settling_time"], rows)
    with open(os.path.join(out_dir, "medians.json"), "w") as fh:
        json.dump(medians, fh, indent=2, sort_keys=True)
    write_manifest(os.path.join(out_dir, "manifest.json"), {
        "experiment": "scaling-sweep", "chain_sizes": list(chain_sizes),
        "grid_sides": list(grid_sides), "n_seeds": n_seeds,
        "master_seed": master_seed, "dt": dt,
    })
    return {"csv": path, "medians": medians}


def _product_state(points: np.ndarray) -> np.ndarray:
    """Product density matrices of (..., N, 3) Bloch points, (..., 2^N, 2^N)."""
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    # (I + p . sigma) / 2 of every qubit, entry for entry as density_from_bloch
    q = 0.5 * np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=-1)
    q = q.reshape(points.shape[:-1] + (2, 2))
    rho = q[..., 0, :, :]
    for k in range(1, points.shape[-2]):
        d = rho.shape[-1]
        rho = (rho[..., :, None, :, None] * q[..., k, None, :, None, :]).reshape(
            rho.shape[:-2] + (2 * d, 2 * d))
    return rho


def symmetric_distance_series(traj: Trajectory) -> np.ndarray:
    """Per-sample 2-norm distance of the rebuilt product state to its own
    permutation symmetrization.

    For the swap-operator master equation the symmetrization is a
    conserved quantity, so this equals the distance to the fixed average
    state; for the Hamiltonian protocols it vanishes exactly at
    consensus, which puts all three baselines on the same scale. All
    samples are rebuilt, averaged and measured as one stack.
    """
    rho = _product_state(traj.bloch())
    rho -= quantum_average(rho)
    return np.linalg.norm(rho, 2, axis=(-2, -1))


def qcme_compare_cells(seeds, master_seed: int, cap: float = QCME_CAP_ANGLE,
                       dt: float = 1e-3, t_max: float = 20.0) -> list[dict]:
    """Seeds of the three-way convergence-rate comparison at N = 3.

    All seeds run as one batch per protocol and edge set, but each
    seed's initial states depend only on the master seed and the seed,
    so seeds can run in any order or grouping.
    """
    points = np.array([cap_points(np.random.default_rng([master_seed, 2, s]), 3, cap)
                       for s in seeds])
    kets = np.array([kets_from_points(p) for p in points])
    rho0 = _product_state(points)
    t_line, t_tri = chain(3), complete(3)

    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=20)
    qcfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=20,
                            stop_threshold=1e-3, stop_metric="composite_distance")

    def network(topology: Topology, protocol: str, gain: float = 1.0) -> list:
        return [(tr.sample_times, symmetric_distance_series(tr))
                for tr in simulate_network(kets, topology, protocol, cfg, gain=gain)]

    def qcme(topology: Topology) -> list:
        return [(tr.sample_times, tr.metrics["composite_distance"])
                for tr in simulate_qcme(rho0, topology, qcfg)]

    runs = {
        "chain_eq": network(t_line, "chain"),
        "chain_geo": network(t_line, "geometry", gain=2.0),
        "chain_qcme": qcme(t_line),
        "full_geo": network(t_tri, "geometry", gain=2.0),
        "full_qcme": qcme(t_tri),
    }

    def settle(ts: np.ndarray, ds: np.ndarray) -> float:
        idx = np.nonzero(ds < 1e-2)[0]
        return float(ts[idx[0]]) if idx.size else math.inf

    cells = []
    for b in range(len(points)):
        series = {k: member[b] for k, member in runs.items()}
        cells.append({"series": series,
                      "settling": {k: settle(*v) for k, v in series.items()}})
    return cells


def qcme_compare_cell(seed: int, master_seed: int, cap: float = QCME_CAP_ANGLE,
                      dt: float = 1e-3, t_max: float = 20.0) -> dict:
    """One seed of the three-way convergence-rate comparison at N = 3."""
    return qcme_compare_cells([seed], master_seed, cap, dt, t_max)[0]


def run_qcme_compare(
    out_dir: str,
    master_seed: int = 0,
    n_seeds: int = 10,
    cap: float = QCME_CAP_ANGLE,
    dt: float = 1e-3,
    t_max: float = 20.0,
) -> dict:
    """Convergence-rate comparison of the three protocols at N = 3.

    Writes the distance series of the first seed for both edge sets and
    a summary with per-seed settling times and their medians.
    """
    if n_seeds < 1:
        raise ValueError("need at least 1 seed")
    if not math.isfinite(cap):
        raise ValueError(f"cap must be finite, got {cap}")
    os.makedirs(out_dir, exist_ok=True)
    cells = qcme_compare_cells(range(n_seeds), master_seed, cap, dt, t_max)

    first = cells[0]["series"]
    for name, keys in (("chain", ("chain_eq", "chain_geo", "chain_qcme")),
                       ("full", ("full_geo", "full_qcme"))):
        ts = first[keys[0]][0]
        cols = []
        for k in keys:
            tk, dk = first[k]
            # series may stop early; pad with the last value on the
            # common time grid of the longest series
            ts = ts if ts.size >= tk.size else tk
            cols.append((tk, dk))
        rows = []
        for i, t in enumerate(ts):
            row = [t]
            for tk, dk in cols:
                row.append(dk[min(i, dk.size - 1)])
            rows.append(row)
        _write_csv(os.path.join(out_dir, f"qcme_compare_{name}.csv"),
                   ["time"] + list(keys), rows)

    settling = {k: [c["settling"][k] for c in cells] for k in first}
    medians = {k: float(np.median(v)) for k, v in settling.items()}
    summary = {"settling": settling, "medians": medians,
               "n_seeds": n_seeds, "cap": cap}
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    write_manifest(os.path.join(out_dir, "manifest.json"), {
        "experiment": "qcme-compare", "master_seed": master_seed,
        "n_seeds": n_seeds, "cap": cap, "dt": dt, "t_max": t_max,
    })
    return summary


def _protected_pair_initial(rng: np.random.Generator) -> np.ndarray:
    """Two pure initial states with a safely nonzero planar component."""
    pts = []
    while len(pts) < 2:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if math.hypot(v[0], v[1]) > 0.3:
            pts.append(v)
    return np.array(pts)


def run_coherence_protect(
    out_dir: str,
    master_seed: int = 0,
    n_traj: int = 100,
    dt: float = 1e-4,
    t_max: float = 0.5,
    params: NoiseParams | None = None,
) -> dict:
    """Feedback-on versus feedback-off ensembles of the protected pair.

    Emits the per-sample ensemble mean and standard error of the planar
    coherence (averaged over the two qubits) and of the inter-qubit
    distance, for both arms, from the same initial pair.
    """
    if n_traj < 2:
        raise ValueError("need at least 2 trajectories per arm for a standard error")
    os.makedirs(out_dir, exist_ok=True)
    p = params if params is not None else NoiseParams()
    rng = np.random.default_rng([master_seed, 3])
    pts = _protected_pair_initial(rng)
    rho_i = density_from_bloch(pts[0])
    rho_j = density_from_bloch(pts[1])
    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=50)

    # both arms, feedback on then off, as one batch of 2 * n_traj pairs
    arm_flags = (("fb", True), ("nofb", False))
    seeds = [int(np.random.default_rng([master_seed, 4, m, int(fb)]).integers(2**63))
             for _, fb in arm_flags for m in range(n_traj)]
    runs = simulate_protected_pair(rho_i, rho_j, p, cfg, seeds,
                                   feedback=[fb for _, fb in arm_flags
                                             for _ in range(n_traj)])
    times = runs[0].sample_times
    arms: dict[str, dict[str, np.ndarray]] = {}
    finals: dict[str, np.ndarray] = {}
    for a, (arm, _) in enumerate(arm_flags):
        members = runs[a * n_traj:(a + 1) * n_traj]
        cxy = np.array([r.coherence.mean(axis=1) for r in members])
        dist = np.array([r.distance for r in members])
        arms[arm] = {
            "cxy_mean": cxy.mean(axis=0),
            "cxy_se": cxy.std(axis=0, ddof=1) / math.sqrt(n_traj),
            "dist_mean": dist.mean(axis=0),
            "dist_se": dist.std(axis=0, ddof=1) / math.sqrt(n_traj),
        }
        finals[arm] = np.array([r.final_rhos for r in members])

    rows = []
    for i, t in enumerate(times):
        rows.append([t,
                     arms["fb"]["cxy_mean"][i], arms["fb"]["cxy_se"][i],
                     arms["nofb"]["cxy_mean"][i], arms["nofb"]["cxy_se"][i],
                     arms["fb"]["dist_mean"][i], arms["fb"]["dist_se"][i],
                     arms["nofb"]["dist_mean"][i], arms["nofb"]["dist_se"][i]])
    csv_path = os.path.join(out_dir, "coherence_protect.csv")
    _write_csv(csv_path, ["time",
                          "cxy_fb_mean", "cxy_fb_se",
                          "cxy_nofb_mean", "cxy_nofb_se",
                          "dist_fb_mean", "dist_fb_se",
                          "dist_nofb_mean", "dist_nofb_se"], rows)

    # deterministic reference for the feedback-off arm
    rho_lind = simulate_lindblad(rho_i, np.zeros(3), p, cfg)

    # a run that ends before t = 0.5 has no value at t = 0.5: null in JSON
    half = int(np.argmin(np.abs(times - 0.5))) if t_max >= 0.5 else None
    summary = {
        "csv": csv_path,
        "n_traj": n_traj,
        "cxy_fb_at_half": None,
        "cxy_nofb_at_half": None,
        "pooled_se_at_half": None,
        "dist_fb_initial": float(arms["fb"]["dist_mean"][0]),
        "dist_fb_final": float(arms["fb"]["dist_mean"][-1]),
        "nofb_final_rho_mean": [[str(v) for v in row]
                                for row in finals["nofb"].mean(axis=0)[0]],
        "lindblad_final_rho": [[str(v) for v in row] for row in rho_lind],
    }
    if half is not None:
        summary["cxy_fb_at_half"] = float(arms["fb"]["cxy_mean"][half])
        summary["cxy_nofb_at_half"] = float(arms["nofb"]["cxy_mean"][half])
        summary["pooled_se_at_half"] = float(math.hypot(arms["fb"]["cxy_se"][half],
                                                        arms["nofb"]["cxy_se"][half]))
    write_manifest(os.path.join(out_dir, "manifest.json"), {
        "experiment": "coherence-protect", "master_seed": master_seed,
        "n_traj": n_traj, "dt": dt, "t_max": t_max,
        "gamma_r": p.gamma_r, "gamma_phi": p.gamma_phi,
        "gamma_z": p.gamma_z, "eta_z": p.eta_z,
    })
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    summary["finals"] = finals
    summary["lindblad_final"] = rho_lind
    summary["arms"] = arms
    summary["times"] = times
    return summary


def run_sphere_twin_check(
    out_dir: str,
    master_seed: int = 0,
    n_seeds: int = 20,
    dt: float = 1e-3,
    t_max: float = 5.0,
) -> dict:
    """Max pointwise gap between quantum and sphere-ODE trajectories."""
    os.makedirs(out_dir, exist_ok=True)
    t = grid(3)
    worst = 0.0
    rows = []
    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=10)
    pts = np.array([
        hemisphere_points(np.random.default_rng([master_seed, 5, s]), t.n)
        for s in range(n_seeds)])
    kets = np.array([kets_from_points(p) for p in pts])
    quantum = simulate_network(kets, t, "geometry", cfg)
    sphere = simulate_sphere(pts, t, cfg)
    for s, (tq, tc) in enumerate(zip(quantum, sphere)):
        dev = float(np.max(np.abs(tq.bloch() - tc.samples)))
        rows.append((s, dev))
        worst = max(worst, dev)
    _write_csv(os.path.join(out_dir, "twin_check.csv"),
               ["seed", "max_deviation"], rows)
    write_manifest(os.path.join(out_dir, "manifest.json"), {
        "experiment": "sphere-twin-check", "master_seed": master_seed,
        "n_seeds": n_seeds, "dt": dt, "t_max": t_max,
    })
    return {"max_deviation": worst, "per_seed": rows}
