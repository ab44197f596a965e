import math
import re
import time
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import gaussian_oracle as oracle
import gibbs_oracle
import partition_oracle
from isingcyl import freecorr, propagators, skewlinalg
from isingcyl.lattice import CylinderGeometry, Edge
from isingcyl.freecorr import (
    CorrelationRequest, FreeCorrelator, enumerate_gibbs,
    log_partition_function_free, partition_function_free,
    scaling_correlation,
)
from isingcyl.propagators import (
    LazyCriticalTable, ModelParams, NumericalError, PropagatorTable,
    build_A_massive, critical_propagator_fourier, critical_t2,
    scaling_propagator,
)
from isingcyl.skewlinalg import pfaffian


# the isotropic critical point tanh(beta) = sqrt(2) - 1 and Onsager's bulk
# free energy there, log 2 / 2 + 2 G/pi with Catalan's constant G
BETA_ONSAGER = math.atanh(math.sqrt(2.0) - 1.0)
F_ONSAGER = 0.5 * math.log(2.0) + 2.0 * 0.915965594177219 / math.pi


def critical_beta(t1=0.5):
    """beta, J1, J2 with tanh(beta J1) = t1 on the critical line."""
    beta = math.atanh(t1)
    J2 = math.atanh(critical_t2(t1)) / beta
    return beta, 1.0, J2


class TestEnumeration:
    def test_beta_zero(self):
        geom = CylinderGeometry(4, 2)
        obs = (Edge((1, 1), "h"), Edge((2, 1), "v"))
        rec = enumerate_gibbs(geom, 0.0, observables=obs)
        assert rec.Z == pytest.approx(2.0 ** 8)
        for i in range(len(obs)):
            assert rec.moments[frozenset([i])] == pytest.approx(0.0,
                                                                abs=1e-14)

    def test_two_site_hand_sum(self):
        # L=2, M=1: a double bond between the two spins,
        # Z = 2 e^{2 beta J} + 2 e^{-2 beta J}
        geom = CylinderGeometry(2, 1)
        beta = 0.3
        rec = enumerate_gibbs(geom, beta)
        assert rec.Z == pytest.approx(
            2 * math.exp(2 * beta) + 2 * math.exp(-2 * beta), rel=1e-13)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            enumerate_gibbs(CylinderGeometry(6, 5), 0.1)

    @pytest.mark.parametrize("beta, J1, J2", [
        (math.inf, 1.0, 1.0), (-math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
        (0.3, math.inf, 1.0), (0.3, 1.0, math.nan)])
    def test_non_finite_couplings_rejected(self, beta, J1, J2):
        # beta = inf used to give log Z = nan with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                enumerate_gibbs(CylinderGeometry(4, 3), beta, J1, J2)

    @pytest.mark.parametrize("beta, J1, J2", [
        (10 ** 400, 1.0, 1.0), (-10 ** 400, 1.0, 1.0), (0.3, 10 ** 400, 1.0),
        (0.3, 1.0, -10 ** 400)], ids=["beta", "-beta", "J1", "-J2"])
    def test_integers_beyond_the_float_range_rejected(self, beta, J1, J2):
        # these used to end in OverflowError (int too large to convert)
        geom = CylinderGeometry(4, 3)
        for f in (enumerate_gibbs, log_partition_function_free,
                  partition_function_free):
            with pytest.raises(ValueError, match="must be finite"):
                f(geom, beta, J1, J2)
        with pytest.raises(ValueError, match="must be finite"):
            ModelParams.from_beta(beta, J1, J2)

    def test_moment_subsets_present(self):
        geom = CylinderGeometry(4, 2)
        obs = (Edge((1, 1), "h"), Edge((1, 1), "v"), Edge((3, 2), "h"))
        rec = enumerate_gibbs(geom, 0.25, observables=obs)
        assert len(rec.moments) == 7


    @pytest.mark.parametrize("LM, beta, J1, J2, obs", [
        # L = 2: each row's two horizontal bonds join the same two spins
        ((2, 1), 0.3, 1.0, 1.0, (Edge((2, 1), "h"), Edge((1, 1), "h"))),
        ((2, 3), 0.7, 0.6, -1.1,
         (Edge((2, 2), "h"), Edge((1, 1), "v"), Edge((1, 2), "v"))),
        # M = 1: no vertical bonds
        ((4, 1), 0.5, -0.8, 1.0, (Edge((4, 1), "h"), Edge((1, 1), "h"))),
        ((4, 3), 0.44, 1.3, 0.7,
         (Edge((4, 2), "h"), Edge((1, 2), "v"), Edge((4, 1), "v"))),
        # the enumeration splits at row c = ceil(M/2) + 1 (1-based): rows
        # below c are the top part, c and above the bottom part
        ((4, 3), 0.6, -0.9, 1.2, (Edge((1, 3), "h"), Edge((4, 3), "h"))),
        ((2, 2), 0.8, 1.0, -0.9,
         (Edge((2, 1), "v"), Edge((1, 2), "h"), Edge((1, 1), "h"))),
        ((2, 5), 0.5, 0.8, -1.2,
         (Edge((1, 4), "v"), Edge((2, 5), "h"), Edge((2, 4), "h"))),
        ((2, 5), 0.35, -0.7, 1.1,
         (Edge((2, 3), "v"), Edge((1, 3), "v"), Edge((1, 1), "v"))),
        ((6, 2), 0.3, 1.1, 0.6, (Edge((6, 1), "v"), Edge((3, 1), "v"))),
    ])
    def test_matches_per_configuration_sum(self, LM, beta, J1, J2, obs):
        # wrapping horizontal edges (x1 = L), edges sharing a site, only
        # bottom-part edges (4x3, the first 2x5), vertical edges crossing
        # the cut (2x2, the second 2x5, 6x2) and M = 2 and 5 at L = 2
        geom = CylinderGeometry(*LM)
        rec = enumerate_gibbs(geom, beta, J1, J2, obs)
        log_z, moments, levels = gibbs_oracle.gibbs_sums(geom, beta, J1, J2,
                                                         obs)
        assert rec.configurations == 2 ** (geom.L * geom.M)
        assert rec.levels == len(levels)
        assert abs(rec.log_Z - log_z) <= 1e-12
        assert rec.moments.keys() == moments.keys()
        for s, m in moments.items():
            assert abs(rec.moments[s] - m) <= 1e-12

    @pytest.mark.parametrize("LM", [(4, 6), (6, 4)], ids=["4x6", "6x4"])
    def test_memory_peak(self, LM):
        # the counting keeps each key array within _ENUM_CHUNK entries
        geom = CylinderGeometry(*LM)
        enumerate_gibbs(geom, 0.4)
        tracemalloc.start()
        try:
            enumerate_gibbs(geom, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6

    def test_overflowing_weights(self):
        # exp(beta * energy) exceeds a float; log Z and the moments do not
        geom = CylinderGeometry(4, 3)
        obs = (Edge((1, 1), "h"), Edge((2, 2), "v"))
        rec = enumerate_gibbs(geom, 40.0, observables=obs)
        # the two ground states dominate: log Z = 20 beta + log 2
        assert rec.log_Z == pytest.approx(800.0 + math.log(2.0), rel=1e-15)
        assert all(m == pytest.approx(1.0, abs=1e-15)
                   for m in rec.moments.values())
        with pytest.raises(OverflowError):
            rec.Z


class TestPartitionFunction:
    @pytest.mark.parametrize("LM", [(2, 1), (4, 2), (4, 3)])
    def test_matches_enumeration(self, LM):
        geom = CylinderGeometry(*LM)
        beta_c, J1, J2 = critical_beta(0.5)
        for beta, j1, j2 in [(0.3, 1.0, 1.0), (beta_c, J1, J2),
                             (0.7, 1.0, 0.8)]:
            zp = partition_function_free(geom, beta, j1, j2)
            ze = enumerate_gibbs(geom, beta, j1, j2).Z
            assert zp == pytest.approx(ze, rel=1e-10)

    def test_massive_pfaffian_row_factorization(self):
        # A_m couples fields within a row only, so with the row-major basis
        # its Pfaffian factors over the row-diagonal blocks
        geom = CylinderGeometry(4, 3)
        p = ModelParams(t1=0.4, t2=0.7)
        A = build_A_massive(geom, p)
        full = pfaffian(A)
        n = 2 * geom.L
        prod = 1.0
        for m in range(geom.M):
            prod *= pfaffian(A[m * n:(m + 1) * n, m * n:(m + 1) * n])
        assert full == pytest.approx(prod, rel=1e-12)

    @pytest.mark.parametrize("LM", [(2, 1), (4, 2), (4, 3), (4, 5), (6, 4),
                                    (8, 5)])
    def test_matches_dense_pfaffians(self, LM):
        geom = CylinderGeometry(*LM)
        beta_c, J1, J2 = critical_beta(0.5)
        for beta, j1, j2 in [(beta_c, J1, J2), (BETA_ONSAGER, 1.0, 1.0),
                             (0.3, 1.0, 1.0), (0.7, 1.0, 0.8),
                             (0.5, 0.6, 1.3)]:
            zd = partition_oracle.partition_function_dense(geom, beta, j1, j2)
            zp = partition_function_free(geom, beta, j1, j2)
            assert zp == pytest.approx(zd, rel=1e-12)

    def test_size_cap(self):
        # past L M ~ 1000 Z no longer fits a float, but log Z does
        geom = CylinderGeometry(128, 64)
        assert math.isfinite(log_partition_function_free(geom, 0.3))
        with pytest.raises(OverflowError):
            partition_function_free(geom, 0.3)

    @pytest.mark.parametrize("LM", [(64, 16), (64, 64), (128, 128)])
    def test_onsager_band(self, LM):
        # log Z/(LM) tends to Onsager's critical free energy with an O(1/M)
        # boundary term
        L, M = LM
        log_z = log_partition_function_free(CylinderGeometry(L, M),
                                            BETA_ONSAGER)
        assert M * abs(log_z / (L * M) - F_ONSAGER) <= 1.0

    def test_onsager_boundary_term(self):
        terms = [n * (log_partition_function_free(CylinderGeometry(n, n),
                                                  BETA_ONSAGER) / (n * n)
                      - F_ONSAGER) for n in (64, 128)]
        assert abs(terms[0] - terms[1]) <= 0.01

    def test_512_in_linear_memory(self):
        # the row recursion holds a few numbers per momentum: 512 x 512 in
        # well under a second, where a (L/2, 2M, 2M) block stack would
        # take ~13 GB
        tracemalloc.start()
        try:
            start = time.perf_counter()
            log_z = log_partition_function_free(CylinderGeometry(512, 512),
                                                BETA_ONSAGER)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 512 * abs(log_z / 512 ** 2 - F_ONSAGER) <= 1.0
        assert elapsed < 1.0
        assert peak < 50 << 20

    def test_no_dense_route(self, monkeypatch):
        # log Z never builds a (2LM)^2 coefficient matrix or takes its
        # Pfaffian
        def refuse(*args, **kwargs):
            raise AssertionError("dense route called")
        for module in (freecorr, propagators):
            for name in ("pfaffian", "build_A_critical", "build_A_massive"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        log_z = log_partition_function_free(CylinderGeometry(64, 16),
                                            BETA_ONSAGER)
        assert 16 * abs(log_z / 1024 - F_ONSAGER) <= 1.0


# mixed horizontal and vertical edges on 32 x 32, the first across the seam
MIXED_32 = [Edge((32, 9), "h"), Edge((9, 11), "v"), Edge((17, 6), "h"),
            Edge((25, 20), "v"), Edge((6, 27), "h"), Edge((30, 15), "v")]


@pytest.fixture(scope="module")
def mixed_32():
    return FreeCorrelator(CylinderGeometry(32, 32), ModelParams.critical(0.5))


@pytest.fixture(scope="module")
def critical_64():
    return FreeCorrelator(CylinderGeometry(64, 64), ModelParams.critical(0.5))


def exact_pfaffian(a):
    """Pfaffian of a list-of-lists antisymmetric matrix of Fractions by
    skew elimination, exactly."""
    a = [row[:] for row in a]
    n = len(a)
    pf = Fraction(1)
    for k in range(0, n - 1, 2):
        p = next((i for i in range(k + 1, n) if a[k][i] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k + 1:
            a[k + 1], a[p] = a[p], a[k + 1]
            for row in a:
                row[k + 1], row[p] = row[p], row[k + 1]
            pf = -pf
        pivot = a[k][k + 1]
        pf *= pivot
        tau = [a[k][i] / pivot for i in range(n)]
        col = [a[i][k + 1] for i in range(n)]
        for i in range(k + 2, n):
            for j in range(k + 2, n):
                a[i][j] += tau[i] * col[j] - col[i] * tau[j]
    return pf


@pytest.fixture(scope="module")
def small_critical():
    geom = CylinderGeometry(4, 3)
    beta, J1, J2 = critical_beta(0.5)
    params = ModelParams.critical(0.5)
    corr = FreeCorrelator(geom, params)
    return geom, beta, J1, J2, params, corr


class TestEnergyMoments:
    def test_single_vertical_closed_form(self, small_critical):
        geom, beta, J1, J2, params, corr = small_critical
        z = (2, 1)
        table = critical_propagator_fourier(geom, params)
        expect = params.t2 + (1 - params.t2 ** 2) * table.block(
            z, (z[0], z[1] + 1))[0, 1].real
        assert corr.energy_moment([Edge(z, "v")]) == pytest.approx(
            expect, rel=1e-12)

    @pytest.mark.parametrize("edges", [
        (Edge((1, 1), "v"), Edge((2, 2), "v")),
        (Edge((1, 1), "h"), Edge((2, 2), "h")),
        (Edge((1, 1), "h"), Edge((3, 2), "v")),
        (Edge((4, 1), "h"), Edge((1, 2), "v")),
    ])
    def test_m2_vs_enumeration(self, small_critical, edges):
        geom, beta, J1, J2, params, corr = small_critical
        rec = enumerate_gibbs(geom, beta, J1, J2, edges)
        mom = corr.energy_moment(list(edges))
        assert mom == pytest.approx(rec.moments[frozenset([0, 1])],
                                    abs=1e-10)

    def test_means_vs_enumeration(self, small_critical):
        geom, beta, J1, J2, params, corr = small_critical
        obs = (Edge((1, 1), "h"), Edge((1, 1), "v"), Edge((2, 2), "v"))
        rec = enumerate_gibbs(geom, beta, J1, J2, obs)
        for i, e in enumerate(obs):
            assert corr.energy_moment([e]) == pytest.approx(
                rec.moments[frozenset([i])], abs=1e-12)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_one_pfaffian_is_the_subset_sum(self, mixed_32, monkeypatch, m):
        # Pf(G + T) against the sum over subsets Y of the bilinears of
        # prod_{x not in Y} t_j prod_{x in Y} (1 - t_j^2) <prod_Y E>
        corr = mixed_32
        edges = MIXED_32[:m]
        G = corr._covariance(edges)
        t = [corr.params.t1 if e.direction == "h" else corr.params.t2
             for e in edges]
        ref = 0.0
        for r in range(m + 1):
            for Y in combinations(range(m), r):
                idx = [2 * i + s for i in Y for s in (0, 1)]
                ref += math.prod((1.0 - t[i] ** 2) if i in Y else t[i]
                                 for i in range(m)) * pfaffian(
                    G[np.ix_(idx, idx)]).real
        calls = []
        monkeypatch.setattr(freecorr, "pfaffian",
                            lambda a: calls.append(a) or pfaffian(a))
        assert corr.energy_moment(edges) == pytest.approx(ref, rel=1e-14,
                                                          abs=0.0)
        assert len(calls) == 1

    def test_repeated_edges_rejected(self, small_critical):
        geom, beta, J1, J2, params, corr = small_critical
        e = Edge((1, 1), "v")
        with pytest.raises(ValueError):
            corr.energy_moment([e, e])
        with pytest.raises(ValueError):
            CorrelationRequest(geom, (e, e), "moment", params)

    def test_off_critical_direct_route(self):
        # off the critical line the phi table comes from dense inversion
        geom = CylinderGeometry(4, 2)
        beta, J1, J2 = 0.35, 1.0, 1.0
        params = ModelParams.from_beta(beta, J1, J2)
        corr = FreeCorrelator(geom, params)
        edges = (Edge((1, 1), "v"), Edge((2, 1), "h"))
        rec = enumerate_gibbs(geom, beta, J1, J2, edges)
        assert corr.energy_moment(list(edges)) == pytest.approx(
            rec.moments[frozenset([0, 1])], abs=1e-10)


class TestEnergyCumulants:
    @pytest.mark.parametrize("edges", [
        (Edge((1, 1), "v"), Edge((2, 2), "v")),
        (Edge((1, 1), "h"), Edge((2, 2), "h")),
        (Edge((1, 1), "h"), Edge((3, 2), "v")),
        (Edge((1, 1), "v"), Edge((2, 2), "h"), Edge((3, 2), "v")),
        (Edge((1, 1), "h"), Edge((2, 2), "h"), Edge((3, 3), "h")),
    ])
    def test_vs_enumeration(self, small_critical, edges):
        geom, beta, J1, J2, params, corr = small_critical
        cum = corr.energy_cumulant(list(edges))
        ce = skewlinalg.moments_to_cumulants(enumerate_gibbs(
            geom, beta, J1, J2, edges).moments)[frozenset(range(len(edges)))]
        assert cum == pytest.approx(ce, abs=1e-9)

    @pytest.mark.parametrize("m", range(5, 9))
    def test_vs_exact_inversion_diagonal_64(self, critical_64, m):
        n = 64
        edges = [Edge((n * k // (m + 1), n * k // (m + 1)), "v")
                 for k in range(1, m + 1)]
        self._against_exact_inversion(critical_64, edges)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_vs_exact_inversion_mixed_32(self, mixed_32, m):
        self._against_exact_inversion(mixed_32, MIXED_32[:m])

    @staticmethod
    def _against_exact_inversion(corr, edges):
        # the set-partition inversion of all principal Pfaffians, in exact
        # rational arithmetic on the same double covariance: the
        # cancellation of the O(1) moments costs no digits there
        U = np.triu(corr._covariance(edges).real, 1)
        G = [[Fraction(float(x)) for x in row] for row in U - U.T]
        m = len(edges)
        mom = {}
        for r in range(1, m + 1):
            for sub in combinations(range(m), r):
                idx = [2 * i + s for i in sub for s in (0, 1)]
                mom[frozenset(sub)] = exact_pfaffian(
                    [[G[i][j] for j in idx] for i in idx])
        kappa = sum((-1) ** (len(part) - 1) * math.factorial(len(part) - 1)
                    * math.prod(mom[frozenset(b)] for b in part)
                    for part in oracle.set_partitions(range(m)))
        ref = float(kappa) * math.prod(
            1.0 - (corr.params.t1 if e.direction == "h"
                   else corr.params.t2) ** 2 for e in edges)
        assert corr.energy_cumulant(edges) == pytest.approx(ref, rel=1e-12,
                                                            abs=0.0)

    def test_non_integer_edge_coordinates_rejected(self):
        # a float coordinate used to reach the s-kernel lookup and raise a
        # raw IndexError there
        corr = FreeCorrelator(CylinderGeometry(4, 3), ModelParams.critical(0.5))
        with pytest.raises(ValueError, match="integers"):
            corr.energy_cumulant((Edge((1.0, 1), "h"), Edge((3, 2), "v")))

    def test_no_edge_rejected_before_any_covariance(self, small_critical,
                                                    monkeypatch):
        # energy_cumulant([]) used to end in an IndexError from the loop
        # sum; the empty moment stays 1
        corr = small_critical[-1]
        assert corr.energy_moment([]) == 1.0

        def covariance(edges):
            raise AssertionError("covariance built for no edge")
        monkeypatch.setattr(corr, "_covariance", covariance)
        with pytest.raises(ValueError, match="at least one edge"):
            corr.energy_cumulant([])

    def test_second_cumulant_identity(self, small_critical):
        geom, beta, J1, J2, params, corr = small_critical
        e1, e2 = Edge((1, 1), "v"), Edge((3, 2), "v")
        assert corr.energy_cumulant([e1, e2]) == pytest.approx(
            corr.energy_moment([e1, e2])
            - corr.energy_moment([e1]) * corr.energy_moment([e2]), abs=1e-12)

    def test_translation_invariance(self, small_critical):
        geom, beta, J1, J2, params, corr = small_critical
        edges = [Edge((1, 1), "h"), Edge((2, 2), "v")]
        base = corr.energy_cumulant(edges)
        for shift in (1, 2, 3):
            moved = [Edge((geom.wrap_x1(e.base[0] + shift), e.base[1]),
                          e.direction) for e in edges]
            assert corr.energy_cumulant(moved) == pytest.approx(base,
                                                                abs=1e-12)

    def test_reflection_invariance(self, small_critical):
        geom, beta, J1, J2, params, corr = small_critical
        L, M = geom.L, geom.M

        def refl1(e):
            if e.direction == "h":
                return Edge((geom.wrap_x1(L - e.base[0]), e.base[1]), "h")
            return Edge((L + 1 - e.base[0], e.base[1]), "v")

        def refl2(e):
            if e.direction == "v":
                return Edge((e.base[0], M - e.base[1]), "v")
            return Edge((e.base[0], M + 1 - e.base[1]), "h")

        for edges in ([Edge((1, 1), "h"), Edge((2, 2), "v")],
                      [Edge((2, 1), "v"), Edge((3, 2), "v")]):
            base = corr.energy_cumulant(edges)
            assert corr.energy_cumulant(
                [refl1(e) for e in edges]) == pytest.approx(base, abs=1e-12)
            assert corr.energy_cumulant(
                [refl2(e) for e in edges]) == pytest.approx(base, abs=1e-12)

    def test_decay_with_separation(self):
        # recorded sanity: truncated correlations shrink with distance
        geom = CylinderGeometry(16, 8)
        corr = FreeCorrelator(geom, ModelParams.critical(0.5))
        vals = [abs(corr.energy_cumulant(
            [Edge((1, 4), "v"), Edge((1 + d, 4), "v")])) for d in (1, 3, 6)]
        assert vals[0] > vals[1] > vals[2] > 0


class TestConstituentCovariance:
    """The one covariance of a request against the pairwise loops of
    ``gaussian_oracle``: critical (full and lazy) or off-critical dense phi
    tables, with the massive table for xi."""

    EDGES = [Edge((4, 1), "h"), Edge((1, 1), "v"), Edge((2, 3), "h"),
             Edge((4, 2), "v"), Edge((1, 2), "h")]

    @pytest.mark.parametrize("kind", ["full", "lazy", "dense"])
    def test_against_oracle(self, kind):
        geom = CylinderGeometry(4, 3)
        params = (ModelParams(t1=0.4, t2=0.3) if kind == "dense"
                  else ModelParams.critical(0.5))
        corr = FreeCorrelator(geom, params)
        if kind == "lazy":
            corr.gc = LazyCriticalTable(geom, params)
        # the first horizontal edge's second site wraps to x1 = L+1
        got = corr._covariance(self.EDGES)
        ref = oracle.bilinear_covariance(corr.gc, corr.gm, self.EDGES, geom,
                                         params)
        assert np.max(np.abs(np.triu(got - ref, 1))) < 1e-14

    def test_one_covariance_and_one_pfaffian_per_moment(self, small_critical,
                                                        monkeypatch):
        corr = small_critical[-1]
        counts = {"pfaffian": 0, "products": 0}
        pfaffian, products = skewlinalg.pfaffian, PropagatorTable.products

        def counted_pfaffian(*args):
            counts["pfaffian"] += 1
            return pfaffian(*args)

        def counted_products(self, n, rows, coeffs, fields):
            counts["products"] += 1
            assert n == 6  # two constituent fields per edge
            return products(self, n, rows, coeffs, fields)
        for module in (skewlinalg, freecorr):
            monkeypatch.setattr(module, "pfaffian", counted_pfaffian)
        monkeypatch.setattr(PropagatorTable, "products", counted_products)
        # one products matrix per sector (phi and xi); a cumulant is a loop
        # sum with no Pfaffian, a moment one Pfaffian
        corr.energy_cumulant(self.EDGES[:3])
        assert counts == {"pfaffian": 0, "products": 2}
        corr.energy_moment(self.EDGES[:3])
        assert counts == {"pfaffian": 1, "products": 4}


class TestScalingCorrelation:
    def test_m2_expansion(self):
        p = ModelParams.critical(0.5)
        z1, z2 = (0.3, 0.4), (0.7, 0.6)
        g = scaling_propagator(z1, z2, 1.0, 1.0, p)
        # Pf of the 4x4 with zero diagonal blocks: -g++ g-- + g+- g-+
        expect = ((1 - p.t2 ** 2) ** 2
                  * (-g[0, 0] * g[1, 1] + g[0, 1] * g[1, 0]))
        got = scaling_correlation([z1, z2], (2, 2), 1.0, 1.0, p)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_prefactors_by_label(self):
        p = ModelParams.critical(0.5)
        pts = [(0.3, 0.4), (0.7, 0.6)]
        v22 = scaling_correlation(pts, (2, 2), 1.0, 1.0, p)
        v11 = scaling_correlation(pts, (1, 1), 1.0, 1.0, p)
        ratio = (2 * p.t2) ** 2 / (1 - p.t2 ** 2) ** 2
        assert v11 / v22 == pytest.approx(ratio, rel=1e-12)

    def test_rescaling_covariance_m3(self):
        p = ModelParams.critical(0.5)
        pts = [(0.2, 0.3), (0.6, 0.5), (0.9, 0.7)]
        base = scaling_correlation(pts, (2, 1, 2), 1.0, 1.0, p)
        for xi in (2.0, 0.5):
            scaled = scaling_correlation(
                [(x * xi, y * xi) for x, y in pts], (2, 1, 2),
                xi, xi, p)
            assert scaled * xi ** 3 == pytest.approx(base, rel=1e-10)

    def test_input_validation(self):
        p = ModelParams.critical(0.5)
        with pytest.raises(ValueError):
            scaling_correlation([(0.3, 0.4), (0.3, 0.4)], (2, 2), 1, 1, p)
        with pytest.raises(ValueError):
            scaling_correlation([(0.3, 1.4)], (2,), 1, 1, p)
        with pytest.raises(ValueError):
            scaling_correlation([(0.3, 0.4)], (3,), 1, 1, p)

    def test_coincident_points_raise_before_any_image_sum(self,
                                                          monkeypatch):
        # x = 0 and x = ell1 are one point, so the last two points
        # coincide: this used to raise only at the 6th pair, after 5 image
        # sums
        calls = []

        def counting(*args):
            calls.append(args)
            return scaling_propagator(*args)
        monkeypatch.setattr(freecorr, "scaling_propagator", counting)
        pts = [(0.1, 0.5), (0.3, 0.5), (0.0, 0.2), (1.0, 0.2)]
        with pytest.raises(ValueError, match="distinct points"):
            scaling_correlation(pts, (2,) * 4, 1.0, 1.0,
                                ModelParams.critical(0.5))
        assert calls == []

    @pytest.mark.parametrize("x", [1e200, math.nan, -0.1])
    def test_points_off_the_circumference_raise(self, x):
        # rejected, naming the point, before any image sum overflows
        p = ModelParams.critical(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts in ([(x, 0.5), (0.2, 0.5)], [(0.2, 0.5), (x, 0.5)],
                        [(x, 0.5)]):
                with pytest.raises(ValueError,
                                   match=re.escape(f"point ({x}, 0.5)")):
                    scaling_correlation(pts, (2,) * len(pts), 1.0, 1.0, p)

    def test_lattice_convergence_small(self):
        # the rescaled lattice cumulant approaches the continuum value
        p = ModelParams.critical(0.5)
        z, zp = (0.25, 0.5), (0.625, 0.375)
        target = scaling_correlation([z, zp], (2, 2), 1.0, 1.0, p)
        errs = []
        for n in (16, 32):
            geom = CylinderGeometry(n, n)
            corr = FreeCorrelator(geom, p)
            cum = corr.energy_cumulant(
                [Edge((int(z[0] * n), int(z[1] * n)), "v"),
                 Edge((int(zp[0] * n), int(zp[1] * n)), "v")])
            errs.append(abs(cum * n ** 2 - target))
        assert errs[1] < errs[0]


class TestRealnessCheck:
    """A Pfaffian-route value with a sizeable imaginary part, or a
    non-finite momentum block of the partition function, is a numerical
    failure, raised as a typed error rather than checked by ``assert``."""

    @pytest.fixture
    def complex_pfaffian(self, monkeypatch):
        monkeypatch.setattr("isingcyl.freecorr.pfaffian",
                            lambda a: 1.0 + 0.5j)

    def test_partition_function(self, monkeypatch):
        for name in ("coeff_Delta", "coeff_b"):
            coeff = getattr(freecorr, name)

            def one_non_finite(k1, params, coeff=coeff):
                out = coeff(k1, params)
                out[0] = math.nan
                return out
            with monkeypatch.context() as patch:
                patch.setattr(freecorr, name, one_non_finite)
                with pytest.raises(NumericalError):
                    partition_function_free(CylinderGeometry(4, 3), 0.3)

    def test_bilinear_moment(self, small_critical, complex_pfaffian):
        corr = small_critical[-1]
        with pytest.raises(NumericalError):
            corr.bilinear_moment([Edge((1, 1), "v")])

    def test_scaling_correlation(self, complex_pfaffian):
        with pytest.raises(NumericalError):
            scaling_correlation([(0.25, 0.5), (0.625, 0.375)], (2, 2),
                                1.0, 1.0, ModelParams.critical(0.5))
