import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import gaussian_oracle as oracle
import propagator_oracle
from isingcyl import freecorr, kernelcalc, propagators
from isingcyl.kernelcalc import FieldLabel, Kernel
from isingcyl.lattice import CylinderGeometry, Edge, per_L
from isingcyl.multiscale import (
    LEQ, CutoffWeight, ScaleCutoff, bulk_edge_split, scale_propagator,
)
from isingcyl.propagators import (
    DoublingError, LazyCriticalTable, ModelParams, NumericalError,
    PropagatorTable, TranslationInvariantTable, _direct_table,
    boundary_residual, coeff_B, coeff_D, critical_propagator_direct,
    critical_propagator_fourier, critical_t2, ghat_matrix,
    horizontal_momenta, infinite_propagator, infinite_propagator_grid,
    massive_propagator, massive_propagator_direct,
    _root_grid, max_block_difference, s_eval,
    s_weights, scaling_propagator, scaling_series, solve_k2_roots,
)

GEOMS = [(4, 3), (8, 3), (4, 5), (8, 5)]
T1S = [0.3, 0.5, math.sqrt(2.0) - 1.0]


def critical_params(t1):
    p = ModelParams.critical(t1)
    assert p.is_critical
    return p


class TestParams:
    def test_critical_line(self):
        for t1 in T1S:
            t2 = critical_t2(t1)
            assert t1 * t2 + t1 + t2 == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(t1=0.0, t2=0.5)
        with pytest.raises(ValueError):
            ModelParams(t1=0.5, t2=1.0)

    @pytest.mark.parametrize("t1", [10 ** 400, -10 ** 400, math.nan],
                             ids=["1e400", "-1e400", "nan"])
    def test_critical_rejects_non_finite_t1(self, t1):
        # 10**400 used to end in OverflowError (int too large to convert)
        with pytest.raises(ValueError, match="t1 must be finite"):
            ModelParams.critical(t1)

    def test_from_beta(self):
        p = ModelParams.from_beta(0.3, 1.0, 2.0)
        assert p.t1 == pytest.approx(math.tanh(0.3))
        assert p.t2 == pytest.approx(math.tanh(0.6))


class TestMomenta:
    def test_horizontal_antiperiodic(self):
        k = horizontal_momenta(8)
        assert len(k) == 8
        # odd multiples of pi/L, symmetric under k -> -k
        assert np.allclose(np.sort(np.abs(k)),
                           np.sort(np.abs(-k)))
        for ki in k:
            m = ki * 8 / np.pi
            assert round(m) % 2 != 0

    def test_root_count_and_symmetry(self):
        p = critical_params(0.5)
        for (L, M) in GEOMS:
            for k1 in horizontal_momenta(L):
                r = solve_k2_roots(k1, M, p)
                assert len(r) == 2 * M + 1
                assert np.allclose(r, -r[::-1])

    def test_b_equals_one_roots(self):
        # sin 4k = sin 3k has positive roots pi/7, 3pi/7, 5pi/7
        p = ModelParams(t1=0.2, t2=0.5)
        k1 = 0.0
        # choose t1, t2 with B(0) = 1: B(0) = t2 (1+t1)^2/(1-t1^2)
        # = t2 (1+t1)/(1-t1); on the critical line this is exactly 1
        p = critical_params(0.5)
        assert coeff_B(0.0, p) == pytest.approx(1.0, abs=1e-14)
        r = solve_k2_roots(0.0, 3, p)
        pos = r[r > 1e-12]
        assert np.allclose(pos, [np.pi / 7, 3 * np.pi / 7, 5 * np.pi / 7],
                           atol=1e-12)

    def test_b_equals_zero_roots(self):
        # B -> 0 turns the condition into sin k2 (M+1) = 0
        class Fake:
            t1, t2 = 0.5, 1e-12
        p = ModelParams(t1=0.5, t2=1e-12)
        r = solve_k2_roots(0.1, 4, p)
        pos = r[r > 1e-12]
        assert np.allclose(pos, np.arange(1, 5) * np.pi / 5, atol=1e-9)

    def test_large_M_root_count(self):
        p = critical_params(0.5)
        for k1 in horizontal_momenta(4):
            r = solve_k2_roots(k1, 128, p)
            assert len(r) == 257

    @pytest.mark.parametrize("case", ["B=1", "B~0", "M=1", "n=256",
                                      "n=512"])
    def test_roots_interlace(self, case):
        # one positive root in each bracket (pi j/M, pi (j+1)/M)
        k1, M, p = {
            "B=1": (0.0, 3, critical_params(0.5)),
            "B~0": (0.1, 4, ModelParams(t1=0.5, t2=1e-12)),
            "M=1": (horizontal_momenta(8), 1, critical_params(0.3)),
            "n=256": (horizontal_momenta(256), 256, critical_params(0.5)),
            # B -> 1 at k1 = pi/L: the first root nears pi/(2M+1)
            "n=512": (horizontal_momenta(512), 512, critical_params(0.5)),
        }[case]
        r = solve_k2_roots(k1, M, p)
        assert r.shape == np.shape(k1) + (2 * M + 1,)
        pos = r[..., M + 1:]
        j = np.arange(M)
        assert np.all(pos > np.pi * j / M)
        assert np.all(pos < np.pi * (j + 1) / M)
        assert np.all(r[..., M] == 0.0)
        assert np.array_equal(r[..., :M], -pos[..., ::-1])
        B = np.asarray(coeff_B(k1, p))[..., None]
        resid = np.sin(pos * (M + 1)) - B * np.sin(pos * M)
        assert np.max(np.abs(resid)) <= 1e-12 * (M + 1)

    def test_vectorized_roots_match_scalar(self):
        p = critical_params(0.3)
        k1 = horizontal_momenta(8)
        rows = solve_k2_roots(k1, 5, p)
        for k, row in zip(k1, rows):
            assert np.array_equal(solve_k2_roots(k, 5, p), row)

    def test_off_critical_roots_rejected(self):
        # B(0) = t2 (1 + t1)/(1 - t1) = 2.7 > 1
        with pytest.raises(ValueError):
            solve_k2_roots(0.0, 3, ModelParams(t1=0.5, t2=0.9))

    def test_momentum_grid_cached(self):
        p = critical_params(0.5)
        roots = _root_grid(4, 3, p)
        assert _root_grid(4, 3, p) is roots
        assert roots.shape == (4, 3 + 1)
        assert not roots.flags.writeable

    @pytest.mark.parametrize("LM", [(2, 1), (8, 5), (34, 3), (64, 64)])
    def test_momentum_grid_mirrors_the_roots(self, LM):
        # the grid solves the L/2 positive k1 only; B is a function of
        # cos k1, so solving every k1 gives the mirrored rows to the bit
        L, M = LM
        p = critical_params(0.3)
        k1 = horizontal_momenta(L)
        assert np.array_equal(coeff_B(k1, p), coeff_B(-k1, p))
        every = solve_k2_roots(k1, M, p)
        assert np.array_equal(every, every[::-1])
        assert np.array_equal(_root_grid(L, M, p), every[:, M:])


ORACLE_T1S = [0.3, math.sqrt(2.0) - 1.0, 0.5, 0.6]
ORACLE_GEOMS = [(4, 5), (8, 3), (64, 16), (256, 256), (512, 64)]


class TestRootOracle:
    """The Newton solve on the phase equation and its slope N_M against
    bracket bisection of the condition and the derivative-over-difference
    N_M of ``propagator_oracle``."""

    @pytest.mark.parametrize("t1", ORACLE_T1S)
    @pytest.mark.parametrize("LM", ORACLE_GEOMS)
    def test_roots_match_bisection(self, t1, LM):
        L, M = LM
        p = critical_params(t1)
        k1 = horizontal_momenta(L)
        roots = solve_k2_roots(k1, M, p)
        ref = propagator_oracle.bisect_k2_roots(k1, M, p)
        assert np.max(np.abs(roots - ref)) <= 1e-13

    @pytest.mark.parametrize("t1", ORACLE_T1S)
    @pytest.mark.parametrize("LM", ORACLE_GEOMS)
    def test_normalization_matches_oracle(self, t1, LM):
        # N_M as the table weights carry it, w = 1/(2 L N_M D) with the
        # positive roots doubled, against the oracle's ratio at the
        # oracle's roots
        L, M = LM
        geom = CylinderGeometry(L, M)
        p = critical_params(t1)
        modes = propagators._critical_modes(geom, p, None)
        k1 = horizontal_momenta(L)
        w = modes.w.copy()
        w[:, 1:] /= 2.0
        N = 1.0 / (2.0 * L * w * coeff_D(k1[:, None], modes.k2, p))
        roots = propagator_oracle.bisect_k2_roots(k1, M, p)[:, M:]
        ref = propagator_oracle.normalization_N(k1[:, None], roots, p, M)
        assert np.max(np.abs(N / ref - 1.0)) <= 1e-14

    @pytest.mark.parametrize("M", [1, 3, 64, 256])
    def test_b_equals_one_raises_no_floating_point_error(self, M):
        # k1 = 0 gives B = 1, q = 0: atan2 and the slope need no special
        # case
        p = critical_params(0.5)
        assert coeff_B(0.0, p) == 1.0
        k1 = np.array([0.0, np.pi / 7])
        with np.errstate(all="raise"):
            roots = solve_k2_roots(k1, M, p)
        ref = propagator_oracle.bisect_k2_roots(k1, M, p)
        assert np.max(np.abs(roots - ref)) <= 1e-13


class TestMomentumSymmetries:
    """Identities of the momentum-space density at quantized momenta."""

    @pytest.mark.parametrize("t1", T1S)
    def test_identities(self, t1):
        p = critical_params(t1)
        for (L, M) in GEOMS:
            for k1 in horizontal_momenta(L):
                for k2 in solve_k2_roots(k1, M, p):
                    g = ghat_matrix(k1, k2, p)
                    gm2 = ghat_matrix(k1, -k2, p)
                    gm1 = ghat_matrix(-k1, k2, p)
                    assert abs(g[0, 0] - gm2[0, 0]) < 1e-12
                    assert abs(g[0, 0] + gm1[0, 0]) < 1e-12
                    assert abs(g[0, 0] - gm1[1, 1]) < 1e-12
                    assert abs(g[0, 1] - gm1[0, 1]) < 1e-12
                    assert abs(g[0, 1] + gm2[1, 0]) < 1e-12
                    # the quantization condition ties the reflection phase
                    phase = np.exp(-2j * k2 * (M + 1))
                    assert abs(g[0, 1] + phase * g[1, 0]) < 1e-11


class TestCriticalPropagator:
    @pytest.mark.parametrize("t1", T1S)
    @pytest.mark.parametrize("LM", GEOMS)
    def test_fourier_equals_direct(self, t1, LM):
        L, M = LM
        geom = CylinderGeometry(L, M)
        p = critical_params(t1)
        tf = critical_propagator_fourier(geom, p)
        td = critical_propagator_direct(geom, p)
        assert max_block_difference(tf, td, geom.sites()) < 1e-10

    def test_table_is_real(self):
        geom = CylinderGeometry(4, 3)
        tf = critical_propagator_fourier(geom, critical_params(0.5))
        assert np.max(np.abs(tf.data.imag)) < 1e-12

    def test_boundary_cancellations(self):
        # phi_+ at row 0 and phi_- at row M+1 are identically zero fields
        for (L, M) in GEOMS:
            geom = CylinderGeometry(L, M)
            tf = critical_propagator_fourier(geom, critical_params(0.5))
            worst = 0.0
            for z in [(1, 2), (L, 1)]:
                for x in range(1, L + 1):
                    blk_d = tf.block((x, 0), z)
                    blk_u = tf.block((x, M + 1), z)
                    worst = max(worst, abs(blk_d[0, 0]), abs(blk_d[0, 1]),
                                abs(blk_u[1, 0]), abs(blk_u[1, 1]))
                    blk_d = tf.block(z, (x, 0))
                    blk_u = tf.block(z, (x, M + 1))
                    worst = max(worst, abs(blk_d[0, 0]), abs(blk_d[1, 0]),
                                abs(blk_u[0, 1]), abs(blk_u[1, 1]))
            assert worst < 1e-12

    def test_antiperiodic_wrap(self):
        geom = CylinderGeometry(4, 3)
        tf = critical_propagator_fourier(geom, critical_params(0.5))
        z, zp = (1, 2), (2, 1)
        assert np.allclose(tf.block((z[0] + 4, z[1]), zp), -tf.block(z, zp))

    def test_lazy_matches_full(self):
        geom = CylinderGeometry(8, 5)
        p = critical_params(0.3)
        tf = critical_propagator_fourier(geom, p)
        tl = LazyCriticalTable(geom, p)
        assert max_block_difference(tf, tl, geom.sites()) < 1e-13

    def test_antisymmetry_of_full_matrix(self):
        geom = CylinderGeometry(4, 3)
        tf = critical_propagator_fourier(geom, critical_params(0.5))
        for z in geom.sites()[::3]:
            for zp in geom.sites()[::2]:
                assert np.allclose(tf.block(z, zp), -tf.block(zp, z).T,
                                   atol=1e-12)

    def test_normalization_factor_example(self):
        # at B = 1 the condition collapses and N = M + 1/2
        p = critical_params(0.5)
        roots = solve_k2_roots(0.0, 3, p)
        for k2 in roots[roots > 0]:
            assert propagator_oracle.normalization_N(
                0.0, k2, p, 3) == pytest.approx(3.5, rel=1e-10)


class TestAgainstFlatSum:
    """The k2-first partial sums against the flat sum over all modes."""

    @pytest.mark.parametrize("LM", [(4, 3), (8, 5), (32, 3), (4, 32),
                                    (32, 32)])
    def test_full_table(self, LM):
        geom = CylinderGeometry(*LM)
        p = critical_params(0.3)
        data = critical_propagator_fourier(geom, p).data
        ref = propagator_oracle.fourier_table_data(geom, p)
        assert data.shape == ref.shape
        assert np.max(np.abs(data - ref)) <= 1e-14

    # LEQ and the deepest scale vanish on a square cylinder (the lowest
    # momentum k1 = pi/L lies outside their support), so LEQ is checked on
    # a wide one
    @pytest.mark.parametrize("LM, scale", [
        ((32, 8), "leq"), ((16, 16), "middle"), ((16, 16), "deepest"),
        ((16, 16), "smooth")])
    def test_weighted_table(self, LM, scale):
        geom = CylinderGeometry(*LM)
        p = critical_params(0.5)
        cut = ScaleCutoff.for_geometry(geom)
        weight = {"leq": cut.weight(LEQ, p), "middle": cut.weight(-2, p),
                  "deepest": cut.weight(cut.h_star + 1, p),
                  "smooth": cut.smooth_weight(p)}[scale]
        data = critical_propagator_fourier(geom, p, weight=weight).data
        ref = propagator_oracle.fourier_table_data(geom, p, weight)
        assert np.max(np.abs(data - ref)) <= 1e-14
        if scale == "deepest":
            assert not np.any(data) and not np.any(ref)
        else:
            assert np.max(np.abs(ref)) > 1e-3

    @pytest.mark.parametrize("LM", [(34, 3), (64, 64)])
    def test_lazy_blocks(self, LM):
        L, M = LM
        geom = CylinderGeometry(L, M)
        p = critical_params(0.5)
        lazy = LazyCriticalTable(geom, p)
        flat = propagator_oracle.FlatLazyTable(geom, p)
        # closure rows 0 and M+1, and raw x1 on both sides of the seam
        sites = [(1, 0), (2, 1), (L, M // 2), (L + 3, M + 1), (-2, M),
                 (2 * L + 1, 2)]
        for z in sites:
            for zp in sites:
                for _ in range(2):  # first evaluation, then cached
                    assert np.max(np.abs(lazy.block(z, zp)
                                         - flat.block(z, zp))) <= 1e-14

    def test_lazy_blocks_at_the_extreme_offsets(self):
        # closure rows 0 and M+1 against each other and against rows 1 and
        # M: the offsets read reach both ends, n = 0 and n = 2M + 2
        L = M = 256
        geom = CylinderGeometry(L, M)
        p = critical_params(0.5)
        lazy = LazyCriticalTable(geom, p)
        flat = propagator_oracle.FlatLazyTable(geom, p)
        rows = (0, 1, M, M + 1)
        for z2 in rows:
            for zp2 in rows:
                for x in (1, 2, L // 2 + 1, L):
                    z, zp = (x, z2), (1, zp2)
                    assert np.max(np.abs(lazy.block(z, zp)
                                         - flat.block(z, zp))) <= 1e-14


class TestCriticalTable:
    """Full tables and lazy blocks are one series: both read the per-offset
    profiles g(d) and r(s) of ``propagators._offset_profiles``."""

    @pytest.mark.parametrize("LM", [(8, 5), (32, 32), (34, 3)])
    def test_lazy_blocks_equal_full_table(self, LM):
        L, M = LM
        geom = CylinderGeometry(L, M)
        p = critical_params(0.5)
        full = critical_propagator_fourier(geom, p).data
        lazy = LazyCriticalTable(geom, p)
        # every residue d1 and row pair, in one call
        z = [(d1, z2) for d1 in range(L) for z2 in range(M + 2)]
        zp = [(0, zp2) for zp2 in range(M + 2)]
        blocks = lazy.blocks(z, zp).reshape(full.shape)
        assert np.max(np.abs(blocks - full)) <= 1e-15

    def test_offset_profiles_are_computed_once(self, monkeypatch):
        # a call computes, in one batch, only the differences d and sums s
        # that no earlier call read
        geom = CylinderGeometry(16, 12)
        p = critical_params(0.5)
        computed = []
        profiles = propagators._offset_profiles

        def recording(modes, d, s):
            computed.append((np.asarray(d).tolist(), np.asarray(s).tolist()))
            return profiles(modes, d, s)
        monkeypatch.setattr(propagators, "_offset_profiles", recording)
        lazy = LazyCriticalTable(geom, p)
        reads = [([(1, 3)], [(1, 5)]),          # d = -2, s = 8
                 ([(1, 4), (2, 6)], [(1, 6)]),  # d = -2, 0; s = 10, 12
                 ([(3, 5)], [(1, 3)]),          # d = 2, s = 8
                 ([(3, 3)], [(1, 5)])]          # both seen before
        got = [lazy.blocks(z, zp) for z, zp in reads]
        assert computed == [([-2], [8]), ([0], [10, 12]), ([2], [])]
        full = critical_propagator_fourier(geom, p)
        for (z, zp), blocks in zip(reads, got):
            assert np.max(np.abs(blocks - full.blocks(z, zp))) <= 1e-15

    def test_memory_is_two_profiles_per_offset(self):
        # once every row pair has been read, the table holds g(d) and r(s)
        # at the 2M + 3 offsets each: 2 (2M + 3) L blocks of 64 bytes,
        # 1.07 MB at 64x64 (a profile per row pair would take 17.8 MB)
        L = M = 64
        tracemalloc.start()
        try:
            lazy = LazyCriticalTable(CylinderGeometry(L, M),
                                     critical_params(0.5))
            before = tracemalloc.get_traced_memory()[0]
            column = [(1, row) for row in range(M + 2)]
            lazy.blocks(column, column)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.05 * 2 * (2 * M + 3) * L * 64

    @pytest.mark.parametrize("z, zp", [
        ((1, -1), (2, 3)),    # numpy would read row M + 1
        ((1, 7), (2, 3)),     # one row past M + 1
        ((2, 3), (1, -1)),
        ((2, 3), (1, 7)),
        ((1, 2.5), (2, 3)),   # not an integer
        ((1, 2.0), (2, 3)),
        ((1.5, 2), (2, 3)),
        ((1, 2), (np.float64(2), 3))])
    @pytest.mark.parametrize("kind", ["full", "lazy"])
    def test_sites_outside_the_closure_raise(self, kind, z, zp):
        geom = CylinderGeometry(8, 5)
        p = critical_params(0.5)
        table = (critical_propagator_fourier(geom, p) if kind == "full"
                 else LazyCriticalTable(geom, p))
        with pytest.raises(ValueError):
            table.block(z, zp)

    def test_lazy_column_checked_on_a_known_row_pair(self):
        # a horizontal coordinate that is not an integer raises on a row
        # pair whose profiles are already known
        table = LazyCriticalTable(CylinderGeometry(8, 5), critical_params(0.5))
        table.block((1, 2), (2, 3))
        for z, zp in (((1.5, 2), (2, 3)), ((1, 2), (2.25, 3))):
            with pytest.raises(ValueError, match="integers"):
                table.block(z, zp)

    def test_weight_must_be_even_in_k2(self):
        # the cylinder and the torus sums are folded onto k2 >= 0
        geom = CylinderGeometry(8, 5)
        p = critical_params(0.5)
        odd = lambda k1, k2: 1.0 + 0.1 * np.sin(k2)  # noqa: E731
        unit = lambda k1, k2: np.ones_like(k2)  # noqa: E731
        with pytest.raises(ValueError, match="even in k2"):
            critical_propagator_fourier(geom, p, weight=odd)
        with pytest.raises(ValueError, match="even in k2"):
            infinite_propagator_grid(p, odd, 16, [0, 1], [0, 1])
        assert np.array_equal(
            critical_propagator_fourier(geom, p, weight=unit).data,
            critical_propagator_fourier(geom, p).data)
        z = [0, 1, -3, 17]
        assert np.array_equal(infinite_propagator_grid(p, unit, 16, z, z),
                              infinite_propagator_grid(p, None, 16, z, z))


class TestOneMomentumSum:
    """The cylinder tables, the lazy blocks and the torus sums are one
    momentum sum: each reaches ``propagators._offset_profiles``."""

    ROUTES = {
        "critical_propagator_fourier":
            lambda geom, p: critical_propagator_fourier(geom, p),
        "LazyCriticalTable.blocks":
            lambda geom, p: LazyCriticalTable(geom, p).blocks(
                [(1, 2)], [(3, 4)]),
        "infinite_propagator_grid":
            lambda geom, p: infinite_propagator_grid(p, None, 32, [0, 1],
                                                     [0, 2]),
        # its scale table is cached before the spy is set, so only the
        # bulk's torus sum can reach the spy
        "bulk_edge_split": lambda geom, p: bulk_edge_split(-1, geom, p),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_reaches_offset_profiles(self, monkeypatch, route):
        geom, p = CylinderGeometry(8, 8), critical_params(0.5)
        scale_propagator(-1, geom, p)
        calls = []
        profiles = propagators._offset_profiles

        def recording(modes, d, s):
            calls.append(len(d) + len(s))
            return profiles(modes, d, s)
        monkeypatch.setattr(propagators, "_offset_profiles", recording)
        self.ROUTES[route](geom, p)
        assert calls


class TestBoundaryResidual:
    @pytest.mark.parametrize("entry, flagged", [
        ((0, 0, 2, 0, 1), True),     # g_{+-}((x, 0), z)
        ((0, 0, 2, 1, 1), False),    # g_{--}((x, 0), z) is unconstrained
        ((0, 4, 2, 1, 0), True),     # g_{-+}((x, M+1), z)
        ((0, 2, 0, 1, 0), True),     # g_{-+}(z, (x, 0))
        ((0, 2, 4, 0, 1), True),     # g_{+-}(z, (x, M+1))
        ((0, 2, 4, 1, 0), False),    # g_{-+}(z, (x, M+1)) is unconstrained
    ])
    def test_each_orientation_is_checked(self, entry, flagged):
        geom = CylinderGeometry(4, 3)
        data = np.zeros((4, 5, 5, 2, 2))
        data[entry] = 1.0
        table = TranslationInvariantTable(geom, "probe", data)
        assert boundary_residual(table, [(1, 2)], [1]) == float(flagged)


def _covariance_table(kind, geom):
    if kind == "full":
        return critical_propagator_fourier(geom, critical_params(0.5))
    if kind == "lazy":
        return LazyCriticalTable(geom, critical_params(0.5))
    if kind == "dense":
        return critical_propagator_direct(geom, ModelParams(t1=0.4, t2=0.3))
    return massive_propagator(geom, critical_params(0.5))


# sites each table type covers on 6x4 (its edge rows, and raw x1 <= 0 and
# x1 > L where it wraps), and sites it rejects: off the table, float and
# bool coordinates
_CLOSURE = [(-6, 0), (0, 1), (1, 5), (3, 2), (6, 4), (7, 0), (15, 3)]
_INTERIOR = [(-6, 1), (0, 4), (1, 2), (3, 3), (6, 1), (7, 4), (15, 3)]
_NOT_INTEGERS = [(1.5, 2), (1, 2.0), (np.float64(2), 1), (True, 2),
                 (1, np.True_)]
_LOOKUPS = {
    "full": (_CLOSURE, [(1, -1), (1, 6)] + _NOT_INTEGERS),
    "lazy": (_CLOSURE, [(1, -1), (1, 6)] + _NOT_INTEGERS),
    "dense": ([(1, 1), (1, 4), (6, 1), (6, 4), (3, 2)],
              [(0, 1), (7, 1), (1, 0), (1, 5)] + _NOT_INTEGERS),
    "massive": (_INTERIOR, [(1, 0), (1, 5)] + _NOT_INTEGERS),
}


class TestBlocks:
    """``blocks`` is the one lookup of each table type; ``block`` is its
    1x1 case."""

    @pytest.mark.parametrize("kind", list(_LOOKUPS))
    def test_blocks_equal_scalar_blocks(self, kind):
        geom = CylinderGeometry(6, 4)
        sites = _LOOKUPS[kind][0]
        got = _covariance_table(kind, geom).blocks(sites, sites[::-1])
        # a fresh table, so that the lazy one computes its profiles anew
        table = _covariance_table(kind, geom)
        ref = np.array([[table.block(z, zp) for zp in sites[::-1]]
                        for z in sites])
        assert got.shape == (len(sites), len(sites), 2, 2)
        assert np.max(np.abs(got - ref)) <= 1e-15
        # unsigned site arrays are read as the same integers
        pos = [z for z in sites if z[0] > 0]
        assert np.array_equal(table.blocks(np.array(pos, dtype=np.uint8),
                                           np.array(pos[::-1], np.uint16)),
                              table.blocks(pos, pos[::-1]))

    @pytest.mark.parametrize("kind", list(_LOOKUPS))
    def test_blocks_and_block_reject_the_same_sites(self, kind):
        geom = CylinderGeometry(6, 4)
        table = _covariance_table(kind, geom)
        sites, bad = _LOOKUPS[kind]
        for z in bad:
            for pair in ((z, sites[0]), (sites[0], z)):
                with pytest.raises(ValueError, match="integers, in"):
                    table.block(*pair)
                with pytest.raises(ValueError, match="integers, in"):
                    table.blocks([sites[1], pair[0]], [pair[1], sites[2]])
        assert table.blocks([], sites).shape == (0, len(sites), 2, 2)


def _terms(rows):
    """The arguments of ``products`` for rows of ``(coeff, omega, site)``
    tuples: the row count and the term arrays."""
    terms = [(i, c, (w, *z)) for i, row in enumerate(rows) for c, w, z in row]
    index, coeffs, fields = zip(*terms) if terms else ((), (), ())
    return (len(rows), np.array(index, dtype=np.int64),
            np.array(coeffs, dtype=complex),
            np.array(fields, dtype=np.int64).reshape(-1, 3))


class TestCovariance:
    """``PropagatorTable.products`` against the pairwise loops of
    ``gaussian_oracle`` on every table type: its strict upper triangle is
    the skew covariance of the rows, fed as term arrays."""

    @pytest.mark.parametrize("kind", ["full", "lazy", "dense", "massive"])
    def test_against_oracle(self, kind):
        geom = CylinderGeometry(6, 4)
        table = _covariance_table(kind, geom)
        # the dense and massive tables cover rows 1..M, the critical ones
        # the closure rows too; all but the dense one take the raw seam
        # coordinate x1 = L+1
        rows_z = (range(1, geom.M + 1) if kind in ("dense", "massive")
                  else range(0, geom.M + 2))
        top_x = geom.L if kind == "dense" else geom.L + 1
        rng = np.random.default_rng(41)
        for _ in range(5):
            rows = [[(complex(*rng.normal(size=2)), int(rng.integers(2)),
                      (int(rng.integers(1, top_x + 1)),
                       int(rng.choice(rows_z))))
                     for _ in range(int(rng.integers(1, 5)))]
                    for _ in range(6)]
            # a repeated field accumulates; an empty row is a zero field
            rows[0].append(rows[0][0])
            rows.append([])
            got = np.triu(table.products(*_terms(rows)), 1)
            ref = oracle.row_covariance(rows, table)
            assert np.max(np.abs(got - np.triu(ref, 1))) < 1e-13 * max(
                1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("kind", ["full", "lazy", "dense", "massive"])
    def test_products_against_oracle(self, kind):
        # every entry, the diagonal and repeated rows included
        geom = CylinderGeometry(6, 4)
        table = _covariance_table(kind, geom)
        rng = np.random.default_rng(42)
        rows = [[(complex(*rng.normal(size=2)), int(rng.integers(2)),
                  (int(rng.integers(1, geom.L + 1)),
                   int(rng.integers(1, geom.M + 1))))
                 for _ in range(int(rng.integers(1, 5)))]
                for _ in range(6)]
        rows += [rows[2], []]
        got = table.products(*_terms(rows))
        ref = oracle.row_products(rows, table)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < 1e-13 * scale

    def test_callers_pass_term_arrays(self, monkeypatch):
        # freecorr and kernelcalc hand products their term arrays as they
        # are, never tuple rows
        seen = []
        products = PropagatorTable.products

        def recording(self, n, *terms):
            seen.append((n, *terms))
            return products(self, n, *terms)
        monkeypatch.setattr(PropagatorTable, "products", recording)
        geom = CylinderGeometry(6, 4)
        corr = freecorr.FreeCorrelator(geom, critical_params(0.5))
        corr._covariance([Edge((6, 1), "h"), Edge((2, 2), "v"),
                          Edge((3, 4), "h")])
        a, b, c, d = (FieldLabel(1, (1, 0), (6, 1)),
                      FieldLabel(-1, (0, 1), (3, 0)),
                      FieldLabel(1, (0, 0), (2, 2)),
                      FieldLabel(-1, (1, 1), (4, 3)))
        kernelcalc.truncated_expectation([(a, b), (c, d)], corr.gc)
        v = Kernel(geom, 4, 4, 0, {((a, b, c, d), ()): 1.0})
        kernelcalc.rg_step({v.sector: v}, corr.gc, s_max=1)
        assert [n for n, *_ in seen] == [6, 6, 4, 4]
        for n, rows, coeffs, fields in seen:
            assert isinstance(n, int)
            assert all(isinstance(x, np.ndarray)
                       for x in (rows, coeffs, fields))
            assert len(rows) == len(coeffs) == len(fields)

    def test_no_rows_or_no_fields(self):
        table = _covariance_table("massive", CylinderGeometry(4, 3))
        assert table.products(*_terms([])).shape == (0, 0)
        assert np.array_equal(table.products(*_terms([[], []])),
                              np.zeros((2, 2)))


class TestTableErrors:
    def test_singular_form_is_numerical_error(self):
        geom = CylinderGeometry(4, 3)
        with pytest.raises(NumericalError):
            _direct_table(geom, critical_params(0.5),
                          lambda g, q: np.zeros((24, 24)), "zero")

    @pytest.mark.parametrize("z, zp", [
        ((1, 0), (2, 2)),     # used to read a row-3 block
        ((1, 4), (2, 2)),     # used to return an empty (0, 2) array
        ((5, 1), (1, 1)),     # used to read (1, 2) with no antiperiodic sign
        ((1, 1), (0, 3)),
        ((1, 1), (2, 4)),
        ((1.0, 1), (2, 2)),   # not an integer
        ((1, 1), (2, np.float64(2)))])
    def test_dense_block_outside_the_lattice_raises(self, z, zp):
        table = critical_propagator_direct(CylinderGeometry(4, 3),
                                           critical_params(0.5))
        with pytest.raises(ValueError, match="columns 1..4 and rows 1..3"):
            table.block(z, zp)
        assert table.block((1, 1), (4, 3)).shape == (2, 2)

    def test_error_hierarchy(self):
        assert issubclass(NumericalError, ArithmeticError)
        assert issubclass(DoublingError, NumericalError)

    def test_doubling_error_reports_last_change(self, monkeypatch):
        # a stand-in torus sum whose entries drift like 1/N, which the
        # O(N^-2), O(N^-4) extrapolation cannot remove
        monkeypatch.setattr(
            propagators, "infinite_propagator_grid",
            lambda params, weight, N, z1, z2: np.full(
                (len(z1), len(z2), 2, 2), 1.0 / N))
        with pytest.raises(DoublingError) as info:
            infinite_propagator([(1, 1)], critical_params(0.5))
        exc = info.value
        change = np.max(np.abs(exc.last[(1, 1)] - exc.prev[(1, 1)]))
        assert change > 1e-10
        assert str(exc) == (f"torus sum did not converge to 1e-10 at "
                            f"N = 2048 (last change {change:.3g})")


class TestMassivePropagator:
    @pytest.mark.parametrize("t1", T1S)
    def test_matches_direct(self, t1):
        geom = CylinderGeometry(8, 3)
        p = critical_params(t1)
        tm = massive_propagator(geom, p)
        td = massive_propagator_direct(geom, p)
        assert max_block_difference(tm, td, geom.sites()) < 1e-12

    def test_row_diagonal(self):
        geom = CylinderGeometry(6, 4)
        tm = massive_propagator(geom, critical_params(0.5))
        assert np.max(np.abs(tm.block((1, 1), (3, 2)))) == 0.0

    def test_t1_zero_limit(self):
        # s_+(y) -> delta_{y,0} as t1 -> 0: the propagator is the identity
        geom = CylinderGeometry(6, 2)
        p = ModelParams(t1=1e-14, t2=0.5)
        tm = massive_propagator(geom, p)
        blk = tm.block((2, 1), (2, 1))
        assert np.allclose(blk, [[0, 1], [-1, 0]], atol=1e-12)
        assert np.max(np.abs(tm.block((3, 1), (2, 1)))) < 1e-12

    def test_s_weights_sum_and_infinite_limit(self):
        geom = CylinderGeometry(64, 2)
        p = ModelParams(t1=0.5, t2=0.3)
        sp, sm = s_weights(geom, p)
        # over one period: s_+ sums to 1/(1+t1); the antiperiodic images of
        # the left-supported s_- flip sign, giving (1+2t1)/(1+t1)
        assert np.sum(sp) == pytest.approx(1.0 / 1.5, abs=1e-12)
        assert np.sum(sm) == pytest.approx(2.0 / 1.5, abs=1e-12)
        # on a long cylinder the kernels approach the geometric-series
        # limit: s_+(y) = (-t1)^y for y >= 0, s_-(y) = (-t1)^(-y) for y <= 0,
        # zero otherwise
        for y in range(-4, 5):
            assert s_eval(sp, y, 64) == pytest.approx(
                (-0.5) ** y if y >= 0 else 0.0, abs=1e-12)
            assert s_eval(sm, y, 64) == pytest.approx(
                (-0.5) ** -y if y <= 0 else 0.0, abs=1e-12)

    def test_s_weights_closed_form(self):
        # the closed form against the defining momentum sum, whose terms
        # reach 1/(1 - t1) = 100 and whose roundoff is ~1e-15 L/(1 - t1)
        for L in (2, 6, 64):
            k1 = horizontal_momenta(L)
            ph = np.exp(-1j * np.outer(np.arange(L), k1)) / L
            for t1 in (1e-14, 0.5, 0.99):
                sp, sm = s_weights(CylinderGeometry(L, 1),
                                   ModelParams(t1=t1, t2=0.5))
                assert np.max(np.abs(
                    sp - ph @ (1.0 / (1.0 + t1 * np.exp(1j * k1))))) < 1e-12
                assert np.max(np.abs(
                    sm - ph @ (1.0 / (1.0 + t1 * np.exp(-1j * k1))))) < 1e-12

    def test_closure_rows_and_wrap_sign(self):
        # xi has no closure rows: rows 0 and M+1 raise, and on rows 1..M a
        # wrap through the seam flips the sign
        geom = CylinderGeometry(6, 4)
        tm = massive_propagator(geom, critical_params(0.5))
        sp, _ = s_weights(geom, critical_params(0.5))
        for row in (1, 3, 4):
            assert tm.block((3, row), (1, row))[0, 1] == sp[2]
            assert tm.block((1, row), (3, row))[0, 1] == -sp[4]
        for row in (0, 5):
            with pytest.raises(ValueError, match="rows 1..4"):
                tm.block((3, row), (1, row))

    @pytest.mark.parametrize("z, zp", [
        ((1, 0), (2, 0)),     # used to return a block of row 0
        ((1, 7), (2, 7)),     # and of row 7
        ((1.5, 1), (2, 1)),   # used to raise a raw IndexError
        ((True, 1), (2, 1)),  # used to be read as column 1
        ((1, 1), (2, True))])
    def test_block_off_rows_1_to_M_or_integers_raises(self, z, zp):
        tm = massive_propagator(CylinderGeometry(4, 3), critical_params(0.5))
        with pytest.raises(ValueError, match="integers, in rows 1..3"):
            tm.block(z, zp)

    def test_memory_is_one_block_per_offset(self):
        # only the row diagonal is stored: a few kB at 256 x 256, where the
        # dense (L, M+2, M+2, 2, 2) table took 1.09 GB
        tracemalloc.start()
        try:
            massive_propagator(CylinderGeometry(256, 256),
                               critical_params(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _fourier_blocks(A, L, M):
    """The horizontal Fourier blocks of a (2LM)^2 row-major coefficient
    matrix, with the basis e^{i k1 x1}/sqrt(L) at each row and omega."""
    U = np.exp(1j * np.outer(np.arange(1, L + 1), horizontal_momenta(L)))
    F = np.einsum("xk,mxwnyv,yq->kmwqnv", U.conj(),
                  A.reshape(M, L, 2, M, L, 2), U) / L
    return F.reshape(L, 2 * M, L, 2 * M)


class TestMomentumBlocks:
    """The 2M x 2M momentum blocks of the partition function against the
    Fourier transform of the dense coefficient matrices."""

    @pytest.mark.parametrize("LM", [(4, 3), (6, 4), (8, 5)])
    def test_critical_blocks(self, LM, monkeypatch):
        # log Z takes log det of each critical block by its row recursion:
        # with the momenta patched to (0, k1), log Z of a 2 x M cylinder is
        # that of the block of k1 plus closed-form terms
        L, M = LM
        geom = CylinderGeometry(L, M)
        for t1, t2 in ((0.5, critical_t2(0.5)), (0.4, 0.7)):
            beta = math.atanh(t1)
            J2 = math.atanh(t2) / beta
            p = ModelParams.from_beta(beta, 1.0, J2)
            F = _fourier_blocks(propagators.build_A_critical(geom, p), L, M)
            for i, k1 in enumerate(horizontal_momenta(L)):
                monkeypatch.setattr(freecorr, "horizontal_momenta",
                                    lambda n, k1=k1: np.array([0.0, k1]))
                got = (freecorr.log_partition_function_free(
                    CylinderGeometry(2, M), beta, 1.0, J2)
                    - 2 * M * math.log(2.0 * math.cosh(beta))
                    - 2 * (M - 1) * math.log(math.cosh(beta * J2))
                    - 2 * M * math.log(abs(1.0 + p.t1 * np.exp(1j * k1))))
                ref = np.linalg.slogdet(F[i, :, i])[1]
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
                F[i, :, i] = 0.0
            # and nothing couples different momenta
            assert np.max(np.abs(F)) < 1e-13

    def test_massive_blocks(self):
        L, M = 8, 3
        p = ModelParams(t1=0.4, t2=0.7)
        F = _fourier_blocks(propagators.build_A_massive(CylinderGeometry(
            L, M), p), L, M)
        k1 = horizontal_momenta(L)
        for i in range(L):
            expected = np.kron(np.eye(M), [[0, 1 + p.t1 * np.exp(1j * k1[i])],
                                           [-1 - p.t1 * np.exp(-1j * k1[i]),
                                            0]])
            assert np.max(np.abs(F[i, :, i] - expected)) < 1e-13


class TestInfinitePropagator:
    def test_antisymmetry(self):
        p = critical_params(0.5)
        g = infinite_propagator([(2, 1), (-2, -1), (0, 3), (0, -3)], p)
        assert np.allclose(g[(2, 1)], -g[(-2, -1)].T, atol=1e-12)
        assert np.allclose(g[(0, 3)], -g[(0, -3)].T, atol=1e-12)

    def test_empty_offset_list_raises(self, monkeypatch):
        # rejected before any torus sum
        monkeypatch.setattr(propagators, "infinite_propagator_grid", None)
        with pytest.raises(ValueError, match="empty offset list"):
            infinite_propagator([], critical_params(0.5))

    @pytest.mark.parametrize("zs", [[(0.5, 1)], [(2, 1.0)], [(True, 1)],
                                    [(1, 2), (np.True_, 2)], [(1, 2, 3)],
                                    [(2 ** 63, 0)]])
    def test_non_integer_offsets_rejected(self, zs, monkeypatch):
        # (0.5, 1) used to sum at a non-lattice offset; rejected before any
        # torus sum
        monkeypatch.setattr(propagators, "infinite_propagator_grid", None)
        with pytest.raises(ValueError, match="torus offsets"):
            infinite_propagator(zs, critical_params(0.5))

    def test_center_of_large_cylinder(self):
        # deep inside a cylinder the finite-volume propagator approaches
        # the infinite-volume one; the massless images make the gap close
        # only like 1/L, so assert decrease plus a loose absolute level
        p = critical_params(0.5)
        gi = infinite_propagator([(-2, 1)], p)[(-2, 1)]
        errs = []
        for n in (64, 128):
            geom = CylinderGeometry(n, n - 1)
            tl = LazyCriticalTable(geom, p)
            z, zp = (n // 2, n // 2), (n // 2 + 2, n // 2 - 1)
            errs.append(np.max(np.abs(tl.block(z, zp) - gi)))
        assert errs[1] < errs[0] < 2e-3


class TestInfiniteTorusSum:
    """The torus sums at requested offsets against the FFT of the whole
    grid and against exactly rounded sums."""

    WEIGHTS = {"none": None,
               "scale-1": CutoffWeight(-1, -2, critical_params(0.5)),
               "leq": CutoffWeight(-3, None, critical_params(0.5)),
               "scale-2": CutoffWeight(-2, -3, critical_params(0.5))}

    # offsets on both sides of 0, at +-N and beyond (antiperiodicity);
    # and the call of bulk_edge_split at 32x32, scale -2: the per_L
    # residues of L = 32 and the row differences -33..33
    CASES = [pytest.param(N, weight, [0, 1, -3, 7, N - 1, N, -N - 2,
                                      2 * N + 3],
                          [0, -1, 2, -N + 1, N + 5, -2 * N],
                          id=f"{weight}-{N}")
             for weight in ("leq", "none", "scale-1")
             for N in (32, 64, 128, 256)] + [
        pytest.param(256, "scale-2", per_L(np.arange(32), 32),
                     np.arange(-33, 34), id="bulk_edge_split")]

    @pytest.mark.parametrize("N, weight, z1, z2", CASES)
    def test_matches_fft_grid(self, N, weight, z1, z2):
        p, w = critical_params(0.5), self.WEIGHTS[weight]
        g = infinite_propagator_grid(p, w, N, z1, z2)
        assert g.shape == (len(z1), len(z2), 2, 2)
        ref = propagator_oracle.fft_torus_grid(p, w, N)
        worst = max(np.max(np.abs(
            g[i, j] - propagator_oracle.torus_lookup(ref, (a, b))))
            for i, a in enumerate(z1) for j, b in enumerate(z2))
        assert worst < 1e-13

    @pytest.mark.parametrize("N", [15, 33])
    def test_odd_size_raises(self, N):
        # the k2 >= 0 half of an odd momentum set is not a mirror image
        with pytest.raises(ValueError, match="must be even"):
            infinite_propagator_grid(critical_params(0.5), None, N, [0], [0])

    @pytest.mark.parametrize("z1, z2", [
        ([0.5], [True]), ([1], [0.5]), ([True], [1]), ([1], [np.True_]),
        (np.array([1.0]), [1]), ([1], np.array([True])), ([[1]], [1]),
        ([1], [2 ** 63])])
    def test_non_integer_offsets_rejected(self, z1, z2):
        # ([0.5], [True]) used to end in an IndexError (the bool offset
        # taken as a mask), ([1], [0.5]) in a TypeError, and ([True], [1])
        # was summed at the offset 1
        with pytest.raises(ValueError, match="torus offsets"):
            infinite_propagator_grid(critical_params(0.5), None, 64, z1, z2)

    def test_offset_lists_and_arrays_agree(self):
        p, z1, z2 = critical_params(0.5), [-3, 0, 5], [2, -1]
        got = infinite_propagator_grid(p, None, 32, z1, z2)
        for a, b in ((np.array(z1), np.array(z2)),
                     (np.array(z1, dtype=np.int32), z2)):
            assert np.array_equal(
                infinite_propagator_grid(p, None, 32, a, b), got)

    @pytest.mark.parametrize("weight", ["none", "scale-1"])
    def test_matches_fsum(self, weight):
        p, w, N = critical_params(0.5), self.WEIGHTS[weight], 16
        zs = [(0, 0), (1, -2), (-5, 3), (9, 17)]
        g = infinite_propagator_grid(p, w, N, [z[0] for z in zs],
                                     [z[1] for z in zs])
        for i, z in enumerate(zs):
            ref = propagator_oracle.fsum_torus_entry(p, w, N, z)
            assert np.max(np.abs(g[i, i] - ref)) < 1e-15

    def test_memory_at_benchmark_offsets(self, monkeypatch):
        # offsets in the box |z_i| <= 4 converge at N = 1024; the torus
        # sums hold O(N^2) reals, not an (N, N, 2, 2) complex grid
        sizes = []
        grid = propagators.infinite_propagator_grid

        def recording(params, weight, N, z1, z2):
            sizes.append(N)
            return grid(params, weight, N, z1, z2)
        monkeypatch.setattr(propagators, "infinite_propagator_grid",
                            recording)
        zs = [(4, 4), (-3, 2), (1, -4), (0, 1), (2, 0)]
        tracemalloc.start()
        try:
            infinite_propagator(zs + [(-a, -b) for a, b in zs],
                                critical_params(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20
        assert max(sizes) >= 1024


def _scaled_pairs(ell1, ell2):
    """Three pairs of points at fixed fractions of an ell1 x ell2
    cylinder: a generic pair, two near opposite walls, a dyadic pair."""
    return [((a * ell1, b * ell2), (c * ell1, d * ell2))
            for (a, b), (c, d) in [((0.2, 0.6), (0.7, 0.3)),
                                   ((0.05, 0.95), (0.9, 0.02)),
                                   ((0.25, 0.5), (0.625, 0.375))]]


class TestScalingPropagator:
    def test_scalar_value(self):
        # g(1, 0) at t2 = 1/3: -1/(2 pi (1/3)(2/3)) = -9/(4 pi)
        assert propagator_oracle.gscal_scalar(
            1.0, 0.0, 1.0 / 3.0) == pytest.approx(
            -9.0 / (4.0 * np.pi), rel=1e-14)

    def test_coincident_points_rejected(self):
        p = critical_params(0.5)
        with pytest.raises(ValueError):
            scaling_propagator((0.5, 0.5), (0.5, 0.5), 1.0, 1.0, p)

    @pytest.mark.parametrize("z, zp", [((0.0, 0.5), (1.0, 0.5)),
                                       ((2.0, 0.25), (0.0, 0.25))])
    def test_points_across_the_seam_coincide(self, z, zp):
        # x = 0 and x = ell1 are one point of the cylinder: rejected
        # before an image lands on the other point and divides 0 by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="distinct points"):
                scaling_propagator(z, zp, z[0] + zp[0], 1.0,
                                   critical_params(0.5))

    @pytest.mark.parametrize("x", [1e200, math.nan, -0.1])
    def test_points_off_the_circumference_raise(self, x):
        # rejected, naming the point, before any image sum overflows
        p = critical_params(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z, zp in [((x, 0.5), (0.2, 0.5)), ((0.2, 0.5), (x, 0.5))]:
                with pytest.raises(ValueError,
                                   match=re.escape(f"point ({x}, 0.5)")):
                    scaling_propagator(z, zp, 1.0, 1.0, p)

    def test_rescaling_covariance(self):
        p = critical_params(0.5)
        z, zp = (0.2, 0.6), (0.7, 0.3)
        base = scaling_propagator(z, zp, 1.0, 1.0, p)
        for xi in (2.0, 0.5):
            scaled = scaling_propagator(
                (z[0] * xi, z[1] * xi), (zp[0] * xi, zp[1] * xi),
                xi, xi, p)
            assert np.allclose(scaled * xi, base, atol=1e-11)

    def test_vertical_reflection_boundary_cancellation(self):
        # the image construction makes the omega' = + column vanish as
        # z2' -> 0 and the omega' = - column vanish as z2' -> ell2,
        # mirroring the lattice boundary cancellation
        p = critical_params(0.5)
        g = scaling_propagator((0.4, 0.5), (0.6, 1e-9), 1.0, 1.0, p)
        assert abs(g[0, 0]) < 1e-7 and abs(g[1, 0]) < 1e-7
        g = scaling_propagator((0.4, 0.5), (0.6, 1.0 - 1e-9), 1.0, 1.0, p)
        assert abs(g[0, 1]) < 1e-7 and abs(g[1, 1]) < 1e-7

    @pytest.mark.parametrize("z, zp, ell1, ell2, p", [
        ((0.25, 0.5), (0.625, 0.375), 1.0, 1.0, critical_params(0.5)),
        ((0.4, 0.5), (0.6, 1e-9), 1.0, 1.0, critical_params(0.5)),
        ((0.4, 0.5), (0.6, 1.0 - 1e-9), 1.0, 1.0, critical_params(0.5)),
        ((0.2, 0.6), (0.7, 0.3), 1.0, 1.0, critical_params(0.3)),
        ((0.05, 0.95), (0.9, 0.02), 1.0, 1.0, critical_params(0.5)),
        ((0.4, 1.2), (1.4, 0.6), 2.0, 1.5,
         ModelParams(0.45, 0.35))])
    def test_matches_scalar_image_loops(self, z, zp, ell1, ell2, p):
        ref = propagator_oracle.image_sum_propagator(z, zp, ell1, ell2, p)
        g = scaling_propagator(z, zp, ell1, ell2, p)
        assert np.allclose(g, ref, atol=1e-15, rtol=0)

    @pytest.mark.skipif(propagator_oracle.LONGDOUBLE_IS_DOUBLE,
                        reason="np.longdouble is plain double here: no "
                               "extra precision to check against")
    @pytest.mark.parametrize("t1", [0.5, math.sqrt(2.0) - 1.0],
                             ids=["t1=0.5", "t1=iso"])
    @pytest.mark.parametrize("ell1, ell2, rtol", [
        # about 3-5 times the largest measured distances, 3.9e-16,
        # 2.8e-16, 1.1e-15, 1.6e-13 and 1.6e-13.  On the tall shapes the
        # oracle is the one that is off, by 1.6e-13 from 40 digits: its
        # terms along the shorter period cancel to the small value of far
        # points (the library is within 1.3e-15 there, see the mpmath test)
        (1.0, 1.0, 2e-15), (2.0, 1.0, 2e-15), (4.0, 1.0, 4e-15),
        (1.0, 4.0, 5e-13), (0.25, 1.0, 5e-13)],
        ids=["1x1", "2x1", "4x1", "1x4", "0.25x1"])
    def test_matches_longdouble_series(self, ell1, ell2, rtol, t1):
        # the oracle takes the closed form along the longer period, the
        # library along the shorter one
        p = critical_params(t1)
        for z, zp in _scaled_pairs(ell1, ell2):
            ref = propagator_oracle.longdouble_series_propagator(
                z, zp, ell1, ell2, p)
            g = scaling_propagator(z, zp, ell1, ell2, p)
            assert np.max(np.abs(g - ref)) <= rtol * np.max(np.abs(ref))

    @pytest.mark.parametrize("t1", [0.5, math.sqrt(2.0) - 1.0],
                             ids=["t1=0.5", "t1=iso"])
    @pytest.mark.parametrize("ell1, ell2", [
        (1.0, 1.0), (2.0, 1.0), (4.0, 1.0), (16.0, 1.0), (1.0, 4.0),
        (0.25, 1.0), (1.0, 2.0)],
        ids=["1x1", "2x1", "4x1", "16x1", "1x4", "0.25x1", "1x2"])
    def test_matches_mpmath_series(self, ell1, ell2, t1):
        pytest.importorskip("mpmath")
        # largest measured distance 3.1e-15 of the largest entry (16x1 at
        # t1 = sqrt 2 - 1; 1.3e-15 on the other shapes): a bound of 3 times
        # that.  On 16x1 a closed form along the longer period loses
        # 2.1e-13 to 2.4e-12 to the cancellation of its terms
        p = critical_params(t1)
        for z, zp in _scaled_pairs(ell1, ell2):
            ref = propagator_oracle.mpmath_series_propagator(
                z, zp, ell1, ell2, p)
            g = scaling_propagator(z, zp, ell1, ell2, p)
            assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("zp", [(0.3001, 0.4002), (0.29998, 0.4)])
    def test_nearby_points_keep_their_digits(self, zp):
        pytest.importorskip("mpmath")
        # 1/sin near z = 0 as (q^2 - 1) would lose ~1e-16/|z| relative;
        # expm1 keeps it: measured 2.2e-16, bound 1e-15
        p = critical_params(math.sqrt(2.0) - 1.0)
        z = (0.3, 0.4)
        ref = propagator_oracle.mpmath_series_propagator(z, zp, 1.0, 1.0, p)
        g = scaling_propagator(z, zp, 1.0, 1.0, p)
        assert np.max(np.abs(g - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_exponentially_small_value_keeps_its_digits(self):
        pytest.importorskip("mpmath")
        # points 40 apart along a 1 x 200 cylinder: the value is ~2e-73,
        # where the image sum returned 5e-18 of roundoff.  Measured 2.1e-14
        # relative: the exponent, ~170, magnifies the rounding of the input
        p = critical_params(0.5)
        z, zp = (0.2, 100.3), (0.7, 60.1)
        ref = propagator_oracle.mpmath_series_propagator(z, zp, 1.0, 200.0,
                                                         p)
        g = scaling_propagator(z, zp, 1.0, 200.0, p)
        assert 1e-74 < np.max(np.abs(ref)) < 1e-72
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ell1, ell2", [
        (1.0, 200.0), (300.0, 1.0), (1e-3, 1e3)],
        ids=["1x200", "300x1", "1e-3x1e3"])
    def test_elongated_cylinders_raise_no_warning(self, ell1, ell2):
        # 1/sin with np.sin overflows on these shapes
        p = critical_params(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z, zp in _scaled_pairs(ell1, ell2):
                g = scaling_propagator(z, zp, ell1, ell2, p)
                assert np.all(np.isfinite(g))

    def test_lattice_limit(self):
        # the rescaled lattice propagator converges to the continuum one
        p = critical_params(0.5)
        z, zp = (0.25, 0.5), (0.625, 0.375)
        target = scaling_propagator(z, zp, 1.0, 1.0, p)
        errs = []
        for n in (16, 32, 64):
            table = LazyCriticalTable(CylinderGeometry(n, n), p)
            blk = table.block((int(z[0] * n), int(z[1] * n)),
                              (int(zp[0] * n), int(zp[1] * n))) * n
            errs.append(np.max(np.abs(blk - target)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01

    def test_scaling_series_reads_nearest_sites(self):
        # non-dyadic points: the sites nearest to n z and n z'
        p = critical_params(0.5)
        z, zp = (0.3, 0.55), (0.7, 0.2)
        sites = {10: ((3, 6), (7, 2)), 34: ((10, 19), (24, 7))}
        target, errs = scaling_series(z, zp, p, list(sites))
        assert np.array_equal(target,
                              scaling_propagator(z, zp, 1.0, 1.0, p))
        for (n, (a, b)), err in zip(sites.items(), errs):
            blk = LazyCriticalTable(CylinderGeometry(n, n), p).block(a, b) * n
            assert err == float(np.max(np.abs(blk - target)))

    @pytest.mark.parametrize("x, y", [
        (0.25, -0.1), (0.25, 0.0), (0.25, 1.0), (0.25, 1.5),
        # a column off the unit circumference, rejected before any sum
        (-0.1, 0.5), (1.5, 0.5)],
        ids=["-0.1", "0.0", "1.0", "1.5", "x=-0.1", "x=1.5"])
    def test_scaling_series_rejects_points_off_the_cylinder(self, x, y):
        p = critical_params(0.5)
        with pytest.raises(ValueError, match="open unit cylinder"):
            scaling_series((0.625, 0.375), (x, y), p, [16])
        with pytest.raises(ValueError, match="open unit cylinder"):
            scaling_series((x, y), (0.625, 0.375), p, [16])
