import numpy as np
import pytest

from qubitnet.topology import (
    Topology,
    algebraic_connectivity,
    chain,
    complete,
    from_edge_list,
    grid,
    is_chain,
    is_connected,
    laplacian,
    neighbors,
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
        assert neighbors(t, 4) == [(1, 1.0), (3, 1.0), (5, 1.0), (7, 1.0)]
        assert neighbors(t, 0) == [(1, 1.0), (3, 1.0)]
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


class TestEdgeList:
    def test_parses_one_based_with_comments(self):
        text = "# triangle with one weighted edge\n1 2 1.0\n2 3 0.5\n\n1 3 1.0\n"
        t = from_edge_list(text)
        assert t.n == 3
        assert t.edges() == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 0.5)]

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

    def test_laplacian_rows_sum_to_zero(self):
        for t in (chain(5), grid(3), complete(4)):
            lap = laplacian(t)
            np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
            np.testing.assert_allclose(lap, lap.T, atol=1e-12)

    def test_chain_fiedler_value_closed_form(self):
        # second Laplacian eigenvalue of a path: 2 (1 - cos(pi / n))
        for n in (2, 3, 5, 8):
            expect = 2.0 * (1.0 - np.cos(np.pi / n))
            assert algebraic_connectivity(chain(n)) == pytest.approx(expect, abs=1e-10)

    def test_complete_fiedler_value(self):
        assert algebraic_connectivity(complete(5)) == pytest.approx(5.0, abs=1e-10)

    def test_grid_better_connected_than_chain(self):
        for side in (2, 3, 4):
            n = side * side
            assert algebraic_connectivity(grid(side)) > algebraic_connectivity(
                chain(n)
            )

    def test_disconnected_fiedler_value_zero(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert algebraic_connectivity(Topology(w)) == pytest.approx(0.0, abs=1e-12)
