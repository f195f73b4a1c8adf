"""Properties over random connected weighted graphs: the edge-list
(manifest) round trip, the quantum/sphere twin agreement, a geometric
run staying inside an open hemisphere, batches with a topology per
member and unit norm over long runs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubitnet.dynamics import (
    IntegratorConfig,
    in_open_hemisphere,
    simulate_network,
    simulate_sphere,
)
from qubitnet.experiments import hemisphere_points, kets_from_points
from qubitnet.topology import Topology, chain, from_edge_list, is_connected


@st.composite
def connected_graphs(draw, n=None):
    """A random spanning tree on n nodes (2 to 8 if None), each node after
    the first joined to an earlier one of a random order, plus any extra
    edges; every weight in [0.1, 2]."""
    n = draw(st.integers(2, 8)) if n is None else n
    order = draw(st.permutations(range(n)))
    edges = {tuple(sorted((order[k], order[draw(st.integers(0, k - 1))])))
             for k in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= draw(st.sets(st.sampled_from(pairs)))
    weights = np.zeros((n, n))
    for i, j in sorted(edges):
        weights[i, j] = weights[j, i] = draw(st.floats(0.1, 2.0))
    return Topology(weights)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(), st.data())
def test_edge_list_round_trip(t, data):
    """1-based 'i j repr(w)' lines of t.edges(), in random order and
    orientation with comment and blank lines mixed in, give t back."""
    assert is_connected(t)
    lines = []
    for i, j, w in t.edges():
        if data.draw(st.booleans()):
            i, j = j, i
        lines.append(f"{i + 1} {j + 1} {w!r}")
    lines += data.draw(st.lists(st.sampled_from(["", "  ", "# comment", "  # indented"])))
    text = "\n".join(data.draw(st.permutations(lines)))
    assert from_edge_list(text).weights.tobytes() == t.weights.tobytes()


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32 - 1))
def test_twin_agreement(t, seed):
    """The quantum geometric run and the sphere flow agree within 1e-12
    over 500 steps from a hemisphere start."""
    points = hemisphere_points(np.random.default_rng(seed), t.n)
    cfg = IntegratorConfig(dt=1e-2, t_max=5.0, sample_every=10)
    quantum = simulate_network(kets_from_points(points), t, "geometry", cfg)
    sphere = simulate_sphere(points, t, cfg)
    assert cfg.n_steps == 500
    assert np.max(np.abs(quantum.bloch() - sphere.samples)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0]))
def test_geometric_run_stays_in_an_open_hemisphere(t, seed, gain):
    """A geometric run from Bloch vectors inside an open hemisphere keeps
    them inside one at every kept sample over 500 steps."""
    start = hemisphere_points(np.random.default_rng(seed), t.n)
    assume(in_open_hemisphere(start))
    cfg = IntegratorConfig(dt=1e-2, t_max=5.0, sample_every=10)
    traj = simulate_network(kets_from_points(start), t, "geometry", cfg, gain=gain)
    assert cfg.n_steps == 500
    assert np.all(in_open_hemisphere(traj.bloch()))


@st.composite
def mixed_batches(draw, protocols, max_size=4):
    """(kets, topologies, protocol, gain) of a (B, N, 2) batch of one
    protocol drawn from protocols, with a topology per member: chain(N)
    for the chain protocol, connected graphs for the geometric one,
    chain(2) for min-time (N = 2 only); one gain in [0.5, 2] and
    hemisphere starts."""
    n = draw(st.integers(2, 6))
    protocol = draw(st.sampled_from([p for p in protocols if p != "min-time" or n == 2]))
    size = draw(st.integers(1, max_size))
    topologies = [draw(connected_graphs(n)) if protocol == "geometry" else chain(n)
                  for _ in range(size)]
    gain = draw(st.floats(0.5, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kets = np.array([kets_from_points(hemisphere_points(rng, n)) for _ in range(size)])
    return kets, topologies, protocol, gain


@settings(max_examples=30, deadline=None)
@given(mixed_batches(("chain", "geometry", "min-time")), st.sampled_from([None, 0.05]))
def test_mixed_batch_members_equal_their_one_protocol_runs(batch, threshold):
    """Each member of a batch with a topology per member equals its own
    one-member run, bit for bit (-0.0 is not 0.0)."""
    kets, topologies, protocol, gain = batch
    cfg = IntegratorConfig(dt=1e-2, t_max=1.0, sample_every=7,
                           stop_threshold=threshold, stop_metric="pure_state_error")
    runs = simulate_network(kets, topologies, protocol, cfg, gain=gain)
    for member, t, run in zip(kets, topologies, runs, strict=True):
        one = simulate_network(member, t, protocol, cfg, gain=gain)
        assert set(run.metrics) == {"V", "pure_state_error"} | (
            {"W_max"} if protocol == "chain" else set())
        assert run.stop_reason == one.stop_reason
        for got, want in [(run.sample_times, one.sample_times), (run.samples, one.samples),
                          (run.metrics["V"], one.metrics["V"]),
                          (run.metrics["pure_state_error"], one.metrics["pure_state_error"])]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("protocols", [("chain",), ("geometry",)])
@settings(max_examples=1, deadline=None)
@given(data=st.data())
def test_kets_stay_unit_over_ten_thousand_steps(protocols, data):
    """Every ket norm stays within 1e-13 of 1 over 10^4 steps of a chain
    or geometric batch: the step is exactly unitary up to rounding."""
    kets, topologies, protocol, gain = data.draw(mixed_batches(protocols, max_size=6))
    cfg = IntegratorConfig(dt=1e-2, t_max=100.0, sample_every=1000)
    assert cfg.n_steps == 10_000
    for run in simulate_network(kets, topologies, protocol, cfg, gain=gain):
        assert run.sample_times[-1] == 100.0
        assert np.max(np.abs(np.linalg.norm(run.samples, axis=-1) - 1.0)) < 1e-13
