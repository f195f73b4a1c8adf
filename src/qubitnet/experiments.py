"""Seeded experiment runners behind the CLI.

Every runner ends in one `write_run` call, which writes its tables and
JSON documents plus a manifest.json holding the full configuration, so a
run can be reproduced byte-for-byte from the manifest alone. Per-cell
random streams are derived from the master seed and the cell
coordinates, which makes sweep results independent of execution order.
`write_run` is the only code that creates the output directory, and a
runner calls it only once all of its results are computed, so a run
that fails leaves no directory behind.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import threading
import warnings

import numpy as np

from .core import density_from_bloch, ket_from_angles, ket_from_bloch
from .decoherence import NoiseParams, simulate_lindblad, simulate_protected_pair
from .dynamics import (
    _MAX_SAMPLE_BYTES,
    IntegratorConfig,
    Trajectory,
    simulate_network,
    simulate_qcme,
    simulate_sphere,
    write_table,
)
from .metrics import SettlingSpec, quantum_average, settling_time
from .protocols import min_time
from .topology import Topology, chain, complete, grid

QCME_CAP_ANGLE = 0.8  # cap radius (rad) for qcme-compare initial spreads
HEATMAP_V_THRESHOLD = 1e-5  # V at which a heatmap cell counts as settled


def sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere (normalized Gaussian draws)."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def hemisphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform on the open upper hemisphere by reflecting z < 0 samples."""
    v = sphere_points(rng, n)
    v[:, 2] = np.abs(v[:, 2])
    return v


def accepted_points(rng: np.random.Generator, n: int, accept) -> np.ndarray:
    """The first n unit vectors v with accept(v), one rng.normal(size=3) draw per trial."""
    out: list[np.ndarray] = []
    while len(out) < n:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if accept(v):
            out.append(v)
    return np.array(out)


def cap_points(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """n unit vectors within angle alpha of a random center direction."""
    c = accepted_points(rng, 1, lambda v: True)[0]  # the center is the first draw
    return accepted_points(
        rng, n, lambda v: math.acos(min(1.0, max(-1.0, float(v @ c)))) < alpha)


def kets_from_points(points: np.ndarray) -> np.ndarray:
    return np.array([ket_from_bloch(u) for u in points])


def _write_csv(path: str, header: list[str], rows) -> None:
    """Runner table: floats written as repr(float(v)), other cells as str(v)."""
    write_table(path, header,
                ([repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                  for v in row] for row in rows))


def write_run(out_dir: str, manifest: dict, tables=None, docs=None) -> None:
    """Create out_dir and write a run's artifacts into it.

    tables maps a file name to a (header, rows) pair, written by
    _write_csv, or to a Trajectory, written by its to_csv. docs maps a
    file name to a JSON document. manifest.json holds the configuration.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, table in (tables or {}).items():
        path = os.path.join(out_dir, name)
        if isinstance(table, Trajectory):
            table.to_csv(path)
        else:
            _write_csv(path, *table)
    for name, doc in (docs or {}).items():
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _recording(call):
    with warnings.catch_warnings(record=True) as caught:
        return call(), [(w.message, w.filename, w.lineno) for w in caught]


def run_calls(calls: list) -> list:
    """The results of independent calls, in call order, from this process and one
    forked child per further core of the affinity mask, dealt round-robin. Children's
    warnings and errors recur here; an error here kills and reaps every child first."""
    workers = min(len(calls), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else 1)
    if workers < 2 or not hasattr(os, "fork"):
        return [call() for call in calls]
    alive, held = fds = list(os.pipe())  # alive reads empty once this process has gone
    running = []
    try:
        for w in range(1, workers):
            fds += os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork() with threads running: here only the
                # bundled OpenBLAS pool, which its pthread_atfork handler stops first
                warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, "
                                        r"use of fork\(\)", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child sends its calls' records, or its error, and exits
                try:
                    os.close(held)
                    threading.Thread(target=lambda: os.read(alive, 1) or os._exit(1),
                                     daemon=True).start()
                    try:
                        data = pickle.dumps([_recording(call) for call in calls[w::workers]])
                    except BaseException as exc:  # a pickling error too: raised in the parent
                        data = pickle.dumps(exc)
                    with open(fds[-1], "wb") as fh:
                        fh.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            running.append(pid)
            os.close(fds.pop())  # the child's end
        shares = [[_recording(call) for call in calls[::workers]]]
        for pid, fd in zip(list(running), fds[2:]):
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code or not data:
                raise RuntimeError(f"forked worker {pid} sent no results (exit status {code})")
            shares.append(pickle.loads(data))
    finally:
        for pid in running:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    results = []
    for i in range(len(calls)):
        share = shares[i % workers]
        if isinstance(share, BaseException):
            raise share
        result, caught = share[i // workers]
        for message, filename, lineno in caught:
            warnings.warn_explicit(message, type(message), filename, lineno)
        results.append(result)
    return results


def _finite_or_null(x: float) -> float | None:
    """x, or None (JSON null) where it is NaN or infinite."""
    return x if math.isfinite(x) else None


# The two consensus families: sweep random stream, topology builder,
# initial-state draw, protocol, gain and settling metric. Grids settle on
# pure_state_error: the geometric flow aligns Bloch vectors, not global
# phases, so V has a phase floor there.
FAMILIES = {
    "chain": (0, chain, sphere_points, "chain", 1.0, "V"),
    "grid": (1, grid, hemisphere_points, "geometry", 2.0, "pure_state_error"),
}


def run_min_time_heatmap(
    out_dir: str,
    resolution: int = 32,
    dt: float = 1e-3,
) -> dict:
    """Settling-versus-minimum-time gap on a polar/azimuthal grid.

    Both qubits start at the same polar angle theta in (0, pi/4) with an
    azimuthal offset dphi in (0, pi/2); the pair is run under the chain
    protocol until V drops below HEATMAP_V_THRESHOLD. The first settling
    time is compared cell by cell against half the great-circle separation.
    Only the azimuthal difference matters (the protocol commutes with
    rotations about z), so the pair is centered in the allowed phi range.
    """
    # a cell costs about 1 KB while the batch runs (peak RSS 49.1 MB at 16 384 cells,
    # 96.1 MB at 65 536, dt 5e-2), so the sample limit bounds the cells at that cost
    top = math.isqrt(_MAX_SAMPLE_BYTES // 1024)
    if not 8 <= resolution <= top:
        raise ValueError(f"heatmap resolution must be in [8, {top}], got {resolution}")
    cfg = IntegratorConfig(dt=dt, t_max=20.0, stop_threshold=HEATMAP_V_THRESHOLD)
    thetas = (np.arange(resolution) + 1.0) / (resolution + 1.0) * (math.pi / 4.0)
    dphis = (np.arange(resolution) + 1.0) / (resolution + 1.0) * (math.pi / 2.0)

    cells = [(theta, dphi, 0.5 * (math.pi / 2.0 - dphi))
             for theta in thetas for dphi in dphis]
    kets = np.array([[ket_from_angles(theta, phi1),
                      ket_from_angles(theta, phi1 + dphi)]
                     for theta, dphi, phi1 in cells])
    t1s = simulate_network(kets, chain(2), "chain", cfg, keep_samples=False)  # settling times

    def bloch(theta: float, phi: float) -> np.ndarray:
        return np.array([math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi), math.cos(theta)])

    rows = []
    max_diff = 0.0
    for (theta, dphi, phi1), t1 in zip(cells, t1s):
        t_min = min_time(bloch(theta, phi1), bloch(theta, phi1 + dphi))
        if t1 is None:
            raise RuntimeError(
                f"cell theta={theta:.4f} dphi={dphi:.4f} did not settle"
            )
        rows.append((theta, dphi, t1, t_min, t1 - t_min))
        max_diff = max(max_diff, t1 - t_min)

    write_run(out_dir, {
        "experiment": "min-time-heatmap",
        "resolution": resolution,
        "dt": dt,
        "v_threshold": HEATMAP_V_THRESHOLD,
    }, tables={"min_time_heatmap.csv": (["theta", "dphi", "t1", "t_min", "diff"], rows)})
    return {"csv": os.path.join(out_dir, "min_time_heatmap.csv"), "cells": len(rows),
            "max_diff": max_diff}


def run_network_experiment(
    kind: str,
    out_dir: str,
    master_seed: int = 0,
    dt: float = 1e-3,
    t_max: float = 50.0,
    topology: Topology | None = None,
) -> dict:
    """Single seeded consensus run with trajectory CSV and summary JSON.

    kind "chain-run" is a chain of 5, kind "grid-run" a 3 x 3 grid, each
    set up as its entry in FAMILIES. A given topology replaces that
    default, and the manifest records its edges as 1-based [i, j, w].
    """
    family = kind.removesuffix("-run")
    if family == kind or family not in FAMILIES:
        raise ValueError(f"unknown network experiment kind {kind!r}")
    _, build, draw, protocol, gain, metric = FAMILIES[family]
    t = topology if topology is not None else build(5 if family == "chain" else 3)
    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=5)
    points = draw(np.random.default_rng([master_seed, 0]), t.n)
    traj = simulate_network(kets_from_points(points), t, protocol, cfg, gain=gain)
    settle = settling_time(traj, SettlingSpec(threshold=1e-2, metric=metric))
    err_settle = settling_time(
        traj, SettlingSpec(threshold=1e-2, metric="pure_state_error")
    )
    summary = {
        "kind": kind,
        "seed": master_seed,
        "n_qubits": t.n,
        "settling_metric": metric,
        "settling_time": settle,
        "pure_state_error_settling_time": err_settle,
        "final_V": float(traj.metrics["V"][-1]),
        "final_pure_state_error": float(traj.metrics["pure_state_error"][-1]),
    }
    manifest = {
        "experiment": kind, "seed": master_seed, "dt": dt, "t_max": t_max,
        "gain": gain, "protocol": protocol, "n_qubits": t.n,
    }
    if topology is not None:
        manifest["edges"] = [[i + 1, j + 1, w] for i, j, w in t.edges()]
    write_run(out_dir, manifest, tables={f"{kind.replace('-', '_')}.csv": traj},
              docs={"summary.json": summary})
    return summary


def scaling_cells(kind: str, size: int, seeds, master_seed: int,
                  dt: float = 5e-3) -> list[float | None]:
    """Settling times of the (topology size, seed) sweep cells of one size.

    The seeds run as one batch that keeps no samples, but each
    cell's random stream depends only on the master seed and the cell
    coordinates, so cells can run in any order, grouping or in parallel:
    run_scaling_sweep deals the sizes to this process and one forked child
    per further core of the affinity mask (`taskset -c 0`: all here).
    """
    if kind not in FAMILIES:
        raise ValueError(f"unknown scaling kind {kind!r}")
    stream, build, draw, protocol, gain, metric = FAMILIES[kind]
    t = build(size)
    t_max = 10.0 + 2.0 * size * size if kind == "chain" else 300.0
    kets = np.array([
        kets_from_points(draw(
            np.random.default_rng([master_seed, stream, size, s]), t.n))
        for s in seeds])
    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=10,
                           stop_threshold=1e-2, stop_metric=metric)
    return simulate_network(kets, t, protocol, cfg, gain=gain, keep_samples=False)


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
    for kind, sizes in (("chain", chain_sizes), ("grid", grid_sides)):
        if sizes and min(sizes) < 2:
            raise ValueError(f"{kind} sizes must be at least 2, got {min(sizes)}")
    cells = [(kind, size, size if kind == "chain" else size * size)
             for kind, sizes in (("chain", chain_sizes), ("grid", grid_sides)) for size in sizes]
    order = sorted(cells, key=lambda cell: -cell[2])  # largest network first
    settled = dict(zip(order, run_calls([functools.partial(
        scaling_cells, kind, size, range(n_seeds), master_seed, dt) for kind, size, _ in order])))
    for kind, size, _ in (cell for cell in cells if None in settled[cell]):
        raise RuntimeError(f"{kind} size {size}: a seed did not settle")
    medians = {kind: {n: float(np.median(settled[k, s, n])) for k, s, n in cells if k == kind}
               for kind in ("chain", "grid")}
    rows = [(*cell, s, v) for cell in cells for s, v in enumerate(settled[cell])]

    write_run(out_dir, {
        "experiment": "scaling-sweep", "chain_sizes": list(chain_sizes),
        "grid_sides": list(grid_sides), "n_seeds": n_seeds,
        "master_seed": master_seed, "dt": dt,
    }, tables={"scaling.csv": (["kind", "size", "n_qubits", "seed", "settling_time"],
                               rows)},
              docs={"medians.json": medians})
    return {"csv": os.path.join(out_dir, "scaling.csv"), "medians": medians}


def _product_state(points: np.ndarray) -> np.ndarray:
    """Product density matrices of (..., N, 3) Bloch points, (..., 2^N, 2^N)."""
    q = density_from_bloch(points)
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

    Four independent calls through run_calls cover all seeds: the
    geometric protocol (gain 2) as one network batch on the chain and
    the complete graph, the chain protocol (gain 1) as one batch on the
    chain, and one QCME batch per edge set. Each returns (sample times,
    distance series) per member, so the product-state rebuild runs where
    the call runs and only short series come back. Each seed's initial
    states depend only on the master seed and the seed, so seeds can run
    in any order or grouping.
    """
    points = np.array([cap_points(np.random.default_rng([master_seed, 2, s]), 3, cap)
                       for s in seeds])
    kets = np.array([kets_from_points(p) for p in points])
    rho0 = _product_state(points)
    t_line, t_tri = chain(3), complete(3)

    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=20)
    qcfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=20,
                            stop_threshold=1e-3, stop_metric="composite_distance")

    def network(kets, t, protocol: str, gain: float) -> list:
        return [(tr.sample_times, symmetric_distance_series(tr))
                for tr in simulate_network(kets, t, protocol, cfg, gain=gain)]

    def qcme(topology: Topology) -> list:
        return [(tr.sample_times, tr.metrics["composite_distance"])
                for tr in simulate_qcme(rho0, topology, qcfg)]

    size = len(kets)
    geo, chain_eq, chain_qcme, full_qcme = run_calls([  # the heaviest call first
        functools.partial(network, np.concatenate([kets] * 2),
                          [t_line] * size + [t_tri] * size, "geometry", 2.0),
        functools.partial(network, kets, t_line, "chain", 1.0),
        functools.partial(qcme, t_line), functools.partial(qcme, t_tri)])
    runs = {
        "chain_eq": chain_eq,
        "chain_geo": geo[:size],
        "chain_qcme": chain_qcme,
        "full_geo": geo[size:],
        "full_qcme": full_qcme,
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
    cells = qcme_compare_cells(range(n_seeds), master_seed, cap, dt, t_max)
    first = cells[0]["series"]
    tables = {}
    for name, keys in (("chain", ("chain_eq", "chain_geo", "chain_qcme")),
                       ("full", ("full_geo", "full_qcme"))):
        # series may stop early; pad each with its last value on the
        # time grid of the longest series
        ts = max((first[k][0] for k in keys), key=len)
        cols = [first[k][1] for k in keys]
        rows = [[t] + [d[min(i, d.size - 1)] for d in cols] for i, t in enumerate(ts)]
        tables[f"qcme_compare_{name}.csv"] = (["time"] + list(keys), rows)

    # An unsettled seed (math.inf) counts as later than t_max in its median;
    # JSON gets null for it and for a median that is itself unsettled.
    settling = {k: [c["settling"][k] for c in cells] for k in first}
    medians = {k: _finite_or_null(float(np.median(v))) for k, v in settling.items()}
    settling = {k: [_finite_or_null(t) for t in v] for k, v in settling.items()}
    summary = {"settling": settling, "medians": medians,
               "n_seeds": n_seeds, "cap": cap}
    write_run(out_dir, {
        "experiment": "qcme-compare", "master_seed": master_seed,
        "n_seeds": n_seeds, "cap": cap, "dt": dt, "t_max": t_max,
    }, tables=tables, docs={"summary.json": summary})
    return summary


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
    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=50)
    p = params if params is not None else NoiseParams()
    # two pure initial states with a safely nonzero planar component
    rho_i, rho_j = density_from_bloch(accepted_points(
        np.random.default_rng([master_seed, 3]), 2, lambda v: math.hypot(v[0], v[1]) > 0.3))

    # both arms, feedback on then off, as one batch of 2 * n_traj pairs
    arm_flags = {"fb": True, "nofb": False}
    seeds = [int(np.random.default_rng([master_seed, 4, m, int(fb)]).integers(2**63))
             for fb in arm_flags.values() for m in range(n_traj)]
    run = simulate_protected_pair(rho_i, rho_j, p, cfg, seeds, n_traj)
    # (quantity, arm, member, sample) of the two-qubit mean coherence and the distance
    series = np.stack([run.coherence.mean(axis=-1), run.distance]).reshape(2, 2, n_traj, -1)
    stats = np.stack([series.mean(axis=2),
                      series.std(axis=2, ddof=1) / math.sqrt(n_traj)], axis=2)
    cols = dict(zip([f"{q}_{arm}_{stat}" for q in ("cxy", "dist") for arm in arm_flags
                     for stat in ("mean", "se")], stats.reshape(8, -1)))
    finals = dict(zip(arm_flags, run.final_rhos.reshape(2, n_traj, 2, 2, 2)))
    # deterministic reference for the feedback-off arm
    rho_lind = simulate_lindblad(rho_i, p, cfg)

    # a run that ends before t = 0.5 has no value at t = 0.5: null in JSON
    half = int(np.argmin(np.abs(run.sample_times - 0.5))) if t_max >= 0.5 else None
    summary = {
        "csv": os.path.join(out_dir, "coherence_protect.csv"),
        "n_traj": n_traj,
        "cxy_fb_at_half": None,
        "cxy_nofb_at_half": None,
        "pooled_se_at_half": None,
        "dist_fb_initial": float(cols["dist_fb_mean"][0]),
        "dist_fb_final": float(cols["dist_fb_mean"][-1]),
        "nofb_final_rho_mean": [[str(v) for v in row]
                                for row in finals["nofb"].mean(axis=0)[0]],
        "lindblad_final_rho": [[str(v) for v in row] for row in rho_lind],
    }
    if half is not None:
        summary["cxy_fb_at_half"] = float(cols["cxy_fb_mean"][half])
        summary["cxy_nofb_at_half"] = float(cols["cxy_nofb_mean"][half])
        summary["pooled_se_at_half"] = float(math.hypot(cols["cxy_fb_se"][half],
                                                        cols["cxy_nofb_se"][half]))
    write_run(out_dir, {
        "experiment": "coherence-protect", "master_seed": master_seed,
        "n_traj": n_traj, "dt": dt, "t_max": t_max, **vars(p),
    }, tables={"coherence_protect.csv": (["time", *cols],
                                         np.column_stack([run.sample_times, *cols.values()]))},
              docs={"summary.json": summary})
    return {**summary, "finals": finals, "lindblad_final": rho_lind}


def run_sphere_twin_check(
    out_dir: str,
    master_seed: int = 0,
    n_seeds: int = 20,
    dt: float = 1e-3,
    t_max: float = 5.0,
) -> dict:
    """Max pointwise gap between quantum and sphere-ODE trajectories."""
    if n_seeds < 1:
        raise ValueError("need at least 1 seed")
    cfg = IntegratorConfig(dt=dt, t_max=t_max, sample_every=10)
    t = grid(3)
    pts = np.array([
        hemisphere_points(np.random.default_rng([master_seed, 5, s]), t.n)
        for s in range(n_seeds)])
    kets = np.array([kets_from_points(p) for p in pts])
    quantum, sphere = run_calls([functools.partial(simulate_network, kets, t, "geometry", cfg),
                                 functools.partial(simulate_sphere, pts, t, cfg)])
    devs = [float(np.max(np.abs(tq.bloch() - tc.samples)))
            for tq, tc in zip(quantum, sphere)]
    write_run(out_dir, {
        "experiment": "sphere-twin-check", "master_seed": master_seed,
        "n_seeds": n_seeds, "dt": dt, "t_max": t_max,
    }, tables={"twin_check.csv": (["seed", "max_deviation"], enumerate(devs))})
    return {"max_deviation": max(devs)}
