import numpy as np
import pytest
from hypothesis import given, strategies as st

from isingcyl import lattice
from isingcyl.lattice import (
    CylinderGeometry, Edge, per_L, alpha_sign, antiperiodic_wrap,
    tree_distance, edge_tree_distance, d_edge_pair,
)

import steiner_oracle as oracle


class TestPerL:
    def test_examples(self):
        assert per_L(7, 8) == -1
        assert per_L(0, 8) == 0
        assert per_L(4, 8) == 4

    @given(st.integers(-200, 200), st.sampled_from([2, 4, 8, 12, 30]))
    def test_periodic_and_in_window(self, y, L):
        assert per_L(y + L, L) == per_L(y, L)
        r = per_L(y, L)
        assert -L // 2 < r <= L // 2
        assert (r - y) % L == 0

    def test_rejects_odd_L(self):
        with pytest.raises(ValueError):
            per_L(3, 5)


class TestAntiperiodicWrap:
    def test_examples(self):
        assert antiperiodic_wrap(3, 8) == (3, 1.0)
        assert antiperiodic_wrap(-1, 8) == (7, -1.0)
        assert antiperiodic_wrap(8, 8) == (0, -1.0)
        assert antiperiodic_wrap(17, 8) == (1, 1.0)

    @given(st.integers(-200, 200), st.sampled_from([2, 4, 8, 12, 30]))
    def test_one_period_flips_the_sign(self, d, L):
        m, s = antiperiodic_wrap(d, L)
        assert 0 <= m < L and (d - m) % L == 0
        assert antiperiodic_wrap(d + L, L) == (m, -s)
        assert antiperiodic_wrap(d + 2 * L, L) == (m, s)

    def test_elementwise_on_arrays(self):
        d = np.arange(-20, 21)
        m, s = antiperiodic_wrap(d, 6)
        assert [(int(a), float(b)) for a, b in zip(m, s)] == [
            antiperiodic_wrap(int(x), 6) for x in d]


class TestAlphaSign:
    def test_examples(self):
        geom = CylinderGeometry(12, 3)
        assert alpha_sign(((1, 1), (2, 1)), geom) == 0
        assert alpha_sign(((1, 1), (12, 1)), geom) == 1
        assert alpha_sign(((2, 1), (12, 2), (11, 3)), geom) == 1

    def test_empty(self):
        assert alpha_sign((), CylinderGeometry(12, 3)) == 0

    def test_narrow_tuple_trivial(self):
        geom = CylinderGeometry(12, 3)
        assert alpha_sign(((5, 1), (6, 2), (7, 3)), geom) == 0


class TestGeometry:
    def test_counts(self):
        geom = CylinderGeometry(6, 4)
        assert len(geom.sites()) == 24
        edges = geom.edges()
        assert sum(1 for e in edges if e.direction == "h") == 24
        assert sum(1 for e in edges if e.direction == "v") == 18

    def test_validation(self):
        with pytest.raises(ValueError):
            CylinderGeometry(5, 3)
        with pytest.raises(ValueError):
            CylinderGeometry(4, 0)
        with pytest.raises(ValueError):
            Edge((1, 1), "x")
        Edge((4, 2), "v").validate(CylinderGeometry(4, 3))
        with pytest.raises(ValueError):
            Edge((1, 3), "v").validate(CylinderGeometry(4, 3))

    @pytest.mark.parametrize("L, M", [(4.0, 3), (4, 3.0), (True, 3),
                                      (4, True), ("4", 3)])
    def test_sizes_must_be_integers(self, L, M):
        with pytest.raises(ValueError, match="integers"):
            CylinderGeometry(L, M)

    @pytest.mark.parametrize("base", [(1.0, 1), (1, 2.0), (True, 1),
                                      (1, False), ("1", 1)])
    def test_edge_coordinates_must_be_integers(self, base):
        with pytest.raises(ValueError, match="integers"):
            Edge(base, "h").validate(CylinderGeometry(4, 3))

    def test_numpy_integer_edge_coordinates(self):
        Edge((np.int64(2), np.int32(1)), "v").validate(CylinderGeometry(4, 3))

    def test_numpy_integer_sizes(self):
        geom = CylinderGeometry(np.int64(4), np.int32(3))
        assert geom == CylinderGeometry(4, 3)
        assert len(geom.sites()) == 12

    def test_horizontal_wrap(self):
        geom = CylinderGeometry(4, 2)
        a, b = Edge((4, 1), "h").endpoints(geom)
        assert a == (4, 1) and b == (1, 1)


class TestTreeDistance:
    def test_single_edge(self):
        geom = CylinderGeometry(8, 4)
        assert tree_distance((), (Edge((2, 2), "h"),), geom) == 1

    def test_adjacent_sites(self):
        geom = CylinderGeometry(8, 4)
        assert tree_distance(((2, 2), (3, 2)), (), geom) == 1

    def test_two_sites_distance_two(self):
        geom = CylinderGeometry(8, 4)
        assert tree_distance(((1, 1), (3, 1)), (), geom) == 2

    def test_coincident_and_empty(self):
        geom = CylinderGeometry(8, 4)
        assert tree_distance(((2, 2), (2, 2)), (), geom) == 0
        assert tree_distance((), (), geom) == 0

    def test_wraps_around_cylinder(self):
        geom = CylinderGeometry(8, 4)
        # going through the seam is shorter than across
        assert tree_distance(((1, 2), (8, 2)), (), geom) == 1

    def test_steiner_beats_star(self):
        # three corners of an L: Steiner point saves nothing on a grid path,
        # but the tree is smaller than the sum of pairwise distances
        geom = CylinderGeometry(10, 6)
        d = tree_distance(((1, 1), (4, 1), (1, 4)), (), geom)
        assert d == 6
        assert type(d) is int

    def test_symmetry_invariance(self):
        geom = CylinderGeometry(8, 4)
        zs = ((1, 1), (3, 2), (2, 4))
        d0 = tree_distance(zs, (), geom)
        # a translation by three columns, the reflection about the axis
        # between columns L and 1, and the one swapping rows 0 and M+1
        for im in (lambda z: (geom.wrap_x1(z[0] + 3), z[1]),
                   lambda z: (geom.wrap_x1(geom.L + 1 - z[0]), z[1]),
                   lambda z: (z[0], geom.M + 1 - z[1])):
            assert tree_distance(tuple(im(z) for z in zs), (), geom) == d0
        assert tree_distance(tuple(reversed(zs)), (), geom) == d0

    def test_monotone_under_adding_points(self):
        geom = CylinderGeometry(8, 4)
        zs = ((1, 1), (3, 2))
        assert tree_distance(zs, (), geom) <= tree_distance(zs + ((5, 3),), (), geom)

    def test_required_edge_forces_inclusion(self):
        geom = CylinderGeometry(8, 4)
        # site far from the required edge: connect + contain
        d = tree_distance(((5, 2),), (Edge((1, 2), "h"),), geom)
        assert d == 1 + 3

    def test_six_terminals_exact(self):
        # above four terminals the engine stays the exact DP
        geom = CylinderGeometry(8, 4)
        zs = ((1, 1), (3, 1), (5, 1), (7, 1), (1, 3), (5, 3))
        assert tree_distance(zs, (), geom) == oracle.tree_distance(
            zs, (), geom)


class TestEdgeTreeDistance:
    def test_single_site_next_to_boundary(self):
        geom = CylinderGeometry(8, 4)
        assert edge_tree_distance(((1, 1),), (), geom) == 1

    def test_single_site_mid_column(self):
        geom = CylinderGeometry(40, 9)
        assert edge_tree_distance(((1, 5),), (), geom) == 5

    def test_empty(self):
        geom = CylinderGeometry(8, 4)
        assert edge_tree_distance((), (), geom) == 0

    def test_dominates_plain_distance(self):
        geom = CylinderGeometry(8, 4)
        for zs in [((2, 2), (3, 3)), ((1, 1), (5, 2)), ((4, 2),)]:
            assert edge_tree_distance(zs, (), geom) >= tree_distance(zs, (), geom)

    def test_winding_on_tall_cylinder(self):
        # L small, M large: wrapping around the cylinder is cheaper than
        # reaching the boundary rows
        geom = CylinderGeometry(4, 20)
        d = edge_tree_distance(((1, 10),), (), geom)
        assert d == 2  # floor(4/3) + 1 horizontal steps

    def test_closer_of_two_boundaries(self):
        geom = CylinderGeometry(40, 9)
        assert edge_tree_distance(((1, 7),), (), geom) == 3  # row 7 -> row 10

    @pytest.mark.parametrize("L, M, zs", [
        # the winding option: a 2x2 block plus one site, 4 edges
        (4, 20, ((1, 10), (2, 10), (3, 10), (1, 11), (2, 11))),
        # the boundary option through a boundary column near the sites
        (40, 3, tuple((x, 1) for x in range(10, 15))),
    ])
    def test_five_terminals_exact(self, L, M, zs):
        geom = CylinderGeometry(L, M)
        assert edge_tree_distance(zs, (), geom) == oracle.edge_tree_distance(
            zs, (), geom)


def _random_edge(rng, geom):
    if geom.M > 1 and rng.integers(2):
        return Edge((int(rng.integers(1, geom.L + 1)),
                     int(rng.integers(1, geom.M))), "v")
    return Edge((int(rng.integers(1, geom.L + 1)),
                 int(rng.integers(1, geom.M + 1))), "h")


class TestAgainstOracle:
    """The vectorized engine against the pure-Python Dreyfus-Wagner and
    BFS of ``steiner_oracle``."""

    @pytest.mark.parametrize("L, M", [(4, 3), (8, 4), (2, 7)])
    def test_metric_matches_bfs(self, L, M):
        geom = CylinderGeometry(L, M)
        rng = np.random.default_rng(L * 100 + M)
        for n_edges in (0, 1, 3):
            xs = tuple(_random_edge(rng, geom) for _ in range(n_edges))
            _, D = lattice._terminals_and_metric((), xs, geom)
            _, zero = oracle.terminals_and_zero_edges((), xs, geom)
            for v in range(L * (M + 2)):
                assert D[v].tolist() == oracle.bfs_dist(geom, v, zero)

    @pytest.mark.parametrize("L, M", [(8, 4), (12, 5), (2, 7), (4, 20)])
    def test_random_tuples(self, L, M):
        # sites anywhere on the closure, ghost rows included; the required
        # edges include seam-crossing horizontal ones
        geom = CylinderGeometry(L, M)
        rng = np.random.default_rng(L * 100 + M)
        for case in range(9):
            zs = tuple((int(rng.integers(1, L + 1)),
                        int(rng.integers(0, M + 2)))
                       for _ in range(rng.integers(1, 3)))
            xs = ()
            if case % 3 == 0:
                zs += ((int(rng.integers(1, L + 1)), (0, M + 1)[case % 2]),)
            elif case % 3 == 1:
                xs = (Edge((L, int(rng.integers(1, M + 1))), "h"),)
            else:
                xs = (_random_edge(rng, geom),)
            assert (tree_distance(zs, xs, geom)
                    == oracle.tree_distance(zs, xs, geom))
            assert (edge_tree_distance(zs, xs, geom)
                    == oracle.edge_tree_distance(zs, xs, geom))

    @pytest.mark.parametrize("L, M", [(4, 20), (6, 12)])
    def test_winding_branch(self, L, M):
        # sites more than sep rows away from both boundary rows: the
        # boundary option exceeds sep, so the winding option is computed
        geom = CylinderGeometry(L, M)
        sep = L // 3 + 1
        rng = np.random.default_rng(L * 100 + M)
        wound = 0
        for case in range(8):
            zs = tuple((int(rng.integers(1, L + 1)),
                        int(rng.integers(sep + 1, M + 1 - sep)))
                       for _ in range(rng.integers(1, 3)))
            xs = (_random_edge(rng, geom),) if case % 2 else ()
            terms, zero = oracle.terminals_and_zero_edges(zs, xs, geom)
            dp = oracle.steiner_dp(geom, terms, zero)
            boundary = min(dp[:L] + dp[-L:]) + len(xs)
            d = edge_tree_distance(zs, xs, geom)
            assert d == oracle.edge_tree_distance(zs, xs, geom)
            wound += d < boundary
        assert wound > 0


class TestDEdgePair:
    def test_formula_cases(self):
        geom = CylinderGeometry(16, 8)
        # near the bottom boundary: per-distance + distance to row 0
        assert d_edge_pair((1, 1), (2, 1), geom) == 1 + 2
        # mid-cylinder pair: rows 4 and 5, boundary term min(9, 18-9) = 9
        z, zp = (1, 4), (2, 5)
        assert d_edge_pair(z, zp, geom) == min(1 + 9, 16 - 1 + 1)

    def test_symmetric(self):
        geom = CylinderGeometry(16, 8)
        for z, zp in [((1, 1), (5, 3)), ((2, 7), (9, 2))]:
            assert d_edge_pair(z, zp, geom) == d_edge_pair(zp, z, geom)
