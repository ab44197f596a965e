import numpy as np
import pytest
from hypothesis import given, strategies as st

from isingcyl import lattice
from isingcyl.lattice import (
    CylinderGeometry, Edge, per_L, alpha_sign, antiperiodic_wrap,
    tree_distance, tree_distances, edge_tree_distance, d_edge_pair,
)

import steiner_oracle as oracle
import steiner_percall_oracle as percall


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
        sites = geom.sites()
        assert len(set(sites)) == len(sites) == 24
        # every site is the base of a horizontal edge, every site below
        # row M of a vertical one; both endpoints are sites
        edges = [Edge(z, d) for z in sites for d in "hv"
                 if d == "h" or z[1] < geom.M]
        assert len(edges) == 24 + 18
        for e in edges:
            e.validate(geom)
            assert set(e.endpoints(geom)) <= set(sites)

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
            codes = np.array([[2 * oracle.vid(x.base, L) + (x.direction == "v")
                               for x in xs]], dtype=np.int64)
            D = lattice._zero_edge_metrics(lattice._closure_metric(L, M),
                                           codes, L)[0]
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


def _keys(rng, geom, K, n, m, feature):
    """K seeded keys of n sites and m required edges, as (sites, edges)
    arrays, shaped by one feature: sites anywhere on the closure, a
    duplicated site, ghost-row sites, seam-crossing columns with a
    horizontal required edge at x1 = L, or sites on the middle rows spread
    over the circumference (delta_E's winding option)."""
    L, M = geom.L, geom.M
    x1 = rng.integers(1, L + 1, (K, n))
    x2 = rng.integers(0, M + 2, (K, n))
    if feature == "duplicate" and n >= 2:
        x1[:, -1], x2[:, -1] = x1[:, 0], x2[:, 0]
    elif feature == "ghost":
        x2 = np.where(rng.integers(2, size=(K, n)) == 1, 0, M + 1)
    elif feature == "seam":
        x1 = rng.choice([1, 2, L - 1, L], (K, n))
    elif feature == "winding":
        x2 = rng.integers(M // 2, M // 2 + 2, (K, n))
    vertical = rng.integers(2, size=(K, m))
    b1 = rng.integers(1, L + 1, (K, m))
    b2 = rng.integers(0, M + 2 - vertical)
    if feature == "seam" and m:
        b1[:, 0], b2[:, 0], vertical[:, 0] = L, rng.integers(0, M + 2, K), 0
    return (np.stack([x1, x2], axis=-1),
            np.stack([b1, b2, vertical], axis=-1))


def _decode(sites, edges):
    return [(tuple(map(tuple, zs.tolist())),
             tuple(Edge((b1, b2), "hv"[v]) for b1, b2, v in xs.tolist()))
            for zs, xs in zip(sites, edges)]


FEATURES = ("closure", "duplicate", "ghost", "seam", "winding")


class TestBatchedEngine:
    """``tree_distances`` on whole batches against the per-call engine it
    replaced and the pure-Python Dreyfus-Wagner."""

    @pytest.mark.parametrize("L, M", [(12, 5), (16, 8)])
    def test_matches_oracles(self, L, M):
        geom = CylinderGeometry(L, M)
        rng = np.random.default_rng(L * 100 + M)
        wound = 0
        # per-call terminals (sites and both ends of each edge): 0..6
        for n, m in [(n, m) for m in range(3) for n in range(7 - 2 * m)]:
            for feature in FEATURES:
                sites, edges = _keys(rng, geom, 24 // L, n, m, feature)
                keys = _decode(sites, edges)
                plain = tree_distances(sites, edges, geom)
                edge = tree_distances(sites, edges, geom, boundary=True)
                assert plain.tolist() == [
                    percall.tree_distance(zs, xs, geom) for zs, xs in keys]
                assert edge.tolist() == [
                    percall.edge_tree_distance(zs, xs, geom)
                    for zs, xs in keys]
                for (zs, xs), d, de in zip(keys, plain, edge):
                    terms, D = percall.terminals_and_metric(zs, xs, geom)
                    if not terms:
                        continue
                    dp = percall.dreyfus_wagner(D, list(D[terms]))
                    boundary = min(dp[-1][:L].min(), dp[-1][-L:].min())
                    wound += bool(de < boundary + len(xs))
                    # the pure-Python oracle, where it is fast: its
                    # winding option takes one program per vertex
                    if len(terms) <= 3:
                        assert d == oracle.tree_distance(zs, xs, geom)
                        if boundary <= L // 3 + 1:
                            assert de == oracle.edge_tree_distance(
                                zs, xs, geom)
        assert wound > 0

    def test_scalar_calls_match_the_batch(self):
        geom = CylinderGeometry(12, 5)
        rng = np.random.default_rng(3)
        sites, edges = _keys(rng, geom, 40, 3, 1, "seam")
        keys = _decode(sites, edges)
        assert tree_distances(sites, edges, geom).tolist() == [
            tree_distance(zs, xs, geom) for zs, xs in keys]
        assert tree_distances(sites, edges, geom, boundary=True).tolist() == [
            edge_tree_distance(zs, xs, geom) for zs, xs in keys]

    @pytest.mark.parametrize("n, m", [(4, 0), (2, 1), (3, 2)])
    def test_canonical_rows_are_translation_invariant(self, n, m):
        geom = CylinderGeometry(12, 5)
        rng = np.random.default_rng(10 * n + m)
        sites, edges = _keys(rng, geom, 30, n, m, "seam")
        rows, key_row = lattice._canonical_rows(sites, edges, geom)
        # nor does the order of the sites or of the edges matter
        swapped, swapped_row = lattice._canonical_rows(
            sites[:, ::-1], edges[:, ::-1], geom)
        assert np.array_equal(swapped[swapped_row], rows[key_row])
        for a in (1, 5, 11):
            moved_sites, moved_edges = sites.copy(), edges.copy()
            moved_sites[..., 0] = (sites[..., 0] - 1 + a) % geom.L + 1
            moved_edges[..., 0] = (edges[..., 0] - 1 + a) % geom.L + 1
            moved, moved_row = lattice._canonical_rows(
                moved_sites, moved_edges, geom)
            assert np.array_equal(moved[moved_row], rows[key_row])
            # a key and its translate in one batch share one row
            both, both_row = lattice._canonical_rows(
                np.concatenate([sites, moved_sites]),
                np.concatenate([edges, moved_edges]), geom)
            assert len(both) == len(rows)
            assert np.array_equal(both_row[:30], both_row[30:])

    def test_chunked_batches_match(self, monkeypatch):
        # chunks of one row, one min-plus vector at a time
        geom = CylinderGeometry(12, 5)
        rng = np.random.default_rng(8)
        sites, edges = _keys(rng, geom, 12, 3, 1, "winding")
        want = [tree_distances(sites, edges, geom, boundary=b)
                for b in (False, True)]
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", 1)
        got = [tree_distances(sites, edges, geom, boundary=b)
               for b in (False, True)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_empty_batches(self):
        geom = CylinderGeometry(12, 5)
        none = np.zeros((0, 2, 2), dtype=int), np.zeros((0, 1, 3), dtype=int)
        assert tree_distances(*none, geom).shape == (0,)
        bare = np.zeros((3, 0, 2), dtype=int), np.zeros((3, 0, 3), dtype=int)
        assert tree_distances(*bare, geom, boundary=True).tolist() == [0] * 3


class TestClosureValidation:
    """Sites and edges off the closure rows 0..M+1, or with non-integer
    coordinates, raise instead of wrapping onto another row."""

    @pytest.mark.parametrize("dist", [tree_distance, edge_tree_distance])
    @pytest.mark.parametrize("zs, xs", [
        (((1, -1), (1, 1)), ()),
        (((1, 7), (1, 1)), ()),
        (((1.0, 2), (3, 2)), ()),
        (((1, 2.5),), ()),
        (((True, 2),), ()),
        (((1, 2),), (Edge((1, 6), "v"),)),
        (((1, 2),), (Edge((1, -1), "h"),)),
        (((1, 2),), (Edge((1.0, 2), "h"),)),
    ])
    def test_rejects(self, dist, zs, xs):
        with pytest.raises(ValueError):
            dist(zs, xs, CylinderGeometry(12, 5))

    def test_ghost_rows_are_accepted(self):
        geom = CylinderGeometry(12, 5)
        assert tree_distance(((1, 0), (1, 6)), (), geom) == 6
        assert edge_tree_distance((), (Edge((12, 6), "h"),), geom) == 1
        assert tree_distance((), (Edge((3, 5), "v"),), geom) == 1

    def test_batched_arrays(self):
        geom = CylinderGeometry(12, 5)
        edges = np.zeros((2, 0, 3), dtype=int)
        with pytest.raises(ValueError, match="integers"):
            tree_distances(np.ones((2, 1, 2)), edges, geom)
        with pytest.raises(ValueError):
            tree_distances(np.ones((2, 1, 3), dtype=int), edges, geom)
        with pytest.raises(ValueError):
            tree_distances(np.ones((3, 1, 2), dtype=int), edges, geom)
        bad = np.array([[[1, 2, 2]]])
        with pytest.raises(ValueError):
            tree_distances(np.ones((1, 1, 2), dtype=int), bad, geom)


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
