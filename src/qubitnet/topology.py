"""Network topologies over qubit indices.

Weighted undirected graphs stored as a symmetric nonnegative weight
matrix with zero diagonal. Node indices are 0-based internally; the
edge-list file format and the CLI report 1-based indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Topology:
    """Weighted undirected graph over qubit indices."""

    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be symmetric (undirected graph)")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("weight matrix must have zero diagonal")
        if np.any(w < 0.0):
            raise ValueError("edge weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def edges(self) -> list[tuple[int, int, float]]:
        """Unordered edges (i, j, weight) with i < j."""
        ii, jj = np.nonzero(np.triu(self.weights))
        return [(int(i), int(j), float(self.weights[i, j])) for i, j in zip(ii, jj)]


def chain(n: int) -> Topology:
    """Path graph on n >= 2 nodes, unit weights."""
    if n < 2:
        raise ValueError(f"chain needs at least 2 nodes, got {n}")
    w = np.zeros((n, n))
    idx = np.arange(n - 1)
    w[idx, idx + 1] = 1.0
    w[idx + 1, idx] = 1.0
    return Topology(w)


def grid(side: int) -> Topology:
    """side x side 4-neighbor lattice, unit weights."""
    if side < 2:
        raise ValueError(f"grid needs side >= 2, got {side}")
    n = side * side
    w = np.zeros((n, n))
    for r in range(side):
        for c in range(side):
            k = r * side + c
            if c + 1 < side:
                w[k, k + 1] = w[k + 1, k] = 1.0
            if r + 1 < side:
                w[k, k + side] = w[k + side, k] = 1.0
    return Topology(w)


def complete(n: int) -> Topology:
    """Complete graph on n >= 2 nodes, unit weights."""
    if n < 2:
        raise ValueError(f"complete graph needs at least 2 nodes, got {n}")
    return Topology(np.ones((n, n)) - np.eye(n))


def from_edge_list(text: str) -> Topology:
    """Parse an edge-list: one ``i j weight`` triple per line, 1-based indices.

    Blank lines and lines starting with ``#`` are ignored. An edge may
    be given once, in either orientation.
    """
    edges: dict[tuple[int, int], tuple[int, float]] = {}  # (i, j), i < j: line, w
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'i j weight', got {line!r}")
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not math.isfinite(w):
            raise ValueError(f"line {lineno}: weight must be finite, got {parts[2]}")
        if i < 1 or j < 1:
            raise ValueError(f"line {lineno}: indices are 1-based, got {i}, {j}")
        if i == j:
            raise ValueError(f"line {lineno}: self-loops are not allowed")
        edge = (min(i, j), max(i, j))
        if edge in edges:
            raise ValueError(f"line {lineno}: duplicate edge {edge[0]} {edge[1]}, "
                             f"first given on line {edges[edge][0]}")
        edges[edge] = (lineno, w)
    if not edges:
        raise ValueError("edge list is empty")
    n = max(j for _, j in edges)
    weights = np.zeros((n, n))
    for (i, j), (_, w) in edges.items():
        weights[i - 1, j - 1] = weights[j - 1, i - 1] = w
    return Topology(weights)


def is_connected(t: Topology) -> bool:
    """Breadth-first reachability over positive-weight edges."""
    seen = np.zeros(t.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(t.weights[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def is_chain(t: Topology) -> bool:
    """True iff the edges are exactly the consecutive pairs (i, i+1)."""
    mask = t.weights > 0
    expected = np.zeros_like(mask)
    idx = np.arange(t.n - 1)
    expected[idx, idx + 1] = True
    expected[idx + 1, idx] = True
    return bool(np.array_equal(mask, expected))

