import numpy as np
import pytest

from qubitnet.topology import (
    Topology,
    chain,
    complete,
    from_edge_list,
    grid,
    is_chain,
    is_connected,
)


class TestConstruction:
    def test_rejects_asymmetric(self):
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        with pytest.raises(ValueError):
            Topology(w)

    def test_rejects_self_loops(self):
        w = np.eye(3)
        with pytest.raises(ValueError):
            Topology(w)

    def test_rejects_negative(self):
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = -1.0
        with pytest.raises(ValueError):
            Topology(w)


class TestFactories:
    def test_chain_structure(self):
        t = chain(4)
        assert t.n == 4
        assert t.edges() == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
        assert is_chain(t)
        assert is_connected(t)

    def test_chain_minimum_size(self):
        with pytest.raises(ValueError):
            chain(1)

    def test_grid_structure(self):
        t = grid(3)
        assert t.n == 9
        # interior node 4 touches its four lattice neighbours
        assert np.flatnonzero(t.weights[4]).tolist() == [1, 3, 5, 7]
        assert np.flatnonzero(t.weights[0]).tolist() == [1, 3]
        assert set(t.weights[t.weights > 0]) == {1.0}
        # 2 * side * (side - 1) lattice edges
        assert len(t.edges()) == 12
        assert is_connected(t)
        assert not is_chain(t)

    def test_complete_structure(self):
        t = complete(4)
        assert len(t.edges()) == 6
        assert all(w == 1.0 for _, _, w in t.edges())
        assert is_connected(t)

    def test_grid_two_is_cycle_not_chain(self):
        t = grid(2)
        assert len(t.edges()) == 4
        assert not is_chain(t)

    @pytest.mark.parametrize("side", range(2, 8))
    def test_grid_matches_lattice_loop(self, side):
        n = side * side
        w = np.zeros((n, n))
        for r in range(side):
            for c in range(side):
                k = r * side + c
                if c + 1 < side:
                    w[k, k + 1] = w[k + 1, k] = 1.0
                if r + 1 < side:
                    w[k, k + side] = w[k + side, k] = 1.0
        assert np.array_equal(grid(side).weights, w)

    @pytest.mark.parametrize("n", range(6))
    def test_is_chain_matches_consecutive_pairs(self, n):
        """Every graph on n nodes, with weights 0 or 0.5: a chain iff its
        edges are exactly the pairs (i, i + 1)."""
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(2 ** len(pairs)):
            w = np.zeros((n, n))
            for b, (i, j) in enumerate(pairs):
                w[i, j] = w[j, i] = 0.5 * (bits >> b & 1)
            edges = {p for b, p in enumerate(pairs) if bits >> b & 1}
            expected = edges == {(i, i + 1) for i in range(n - 1)}
            assert is_chain(Topology(w)) is expected, (n, sorted(edges))


class TestEdgeList:
    def test_parses_one_based_with_comments(self):
        text = "# triangle with one weighted edge\n1 2 1.0\n2 3 0.5\n\n1 3 1.0\n"
        t = from_edge_list(text)
        assert t.n == 3
        assert t.edges() == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 0.5)]

    def test_zero_weight_line_declares_its_nodes(self):
        # node 4 has no edge; the zero-weight line still makes it the fourth
        t = from_edge_list("1 2 1.0\n2 3 1.0\n3 4 0\n")
        assert t.n == 4
        assert not is_connected(t)

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            from_edge_list("1 2 3 4\n")

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            from_edge_list("2 2 1.0\n")

    @pytest.mark.parametrize("second", ["1 2 5", "2 1 5"])
    def test_rejects_duplicate_edge_naming_both_lines(self, second):
        text = f"1 2 1\n# comment\n2 3 1\n{second}\n"
        with pytest.raises(ValueError, match=r"line 4: duplicate edge 1 2, "
                                             r"first given on line 1"):
            from_edge_list(text)

    def test_negative_weight_names_its_line(self):
        with pytest.raises(ValueError,
                           match=r"^line 2: weight must be nonnegative, got -1$"):
            from_edge_list("1 2 1\n2 3 -1\n")

    @pytest.mark.parametrize("line", ["1 2.5 1", "one 2 1", "1 2 heavy",
                                      "1 2 inf", "1 2 nan"])
    def test_unparsable_field_names_its_line(self, line):
        with pytest.raises(ValueError, match=r"^line 3: "):
            from_edge_list(f"1 2 1\n\n{line}\n")


class TestConnectivity:
    def test_disconnected_pair(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert not is_connected(Topology(w))
