"""Properties over random connected weighted graphs: the edge-list
(manifest) round trip and the quantum/sphere twin agreement."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitnet.dynamics import IntegratorConfig, simulate_network, simulate_sphere
from qubitnet.experiments import hemisphere_points, kets_from_points
from qubitnet.topology import Topology, from_edge_list, is_connected


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2 to 8 nodes, each node after the first
    joined to an earlier one of a random order, plus any extra edges;
    every weight in [0.1, 2]."""
    n = draw(st.integers(2, 8))
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
