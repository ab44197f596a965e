import math

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
        for e in obs:
            assert rec.means[e] == pytest.approx(0.0, abs=1e-14)

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
    ])
    def test_matches_per_configuration_sum(self, LM, beta, J1, J2, obs):
        # wrapping horizontal edges (x1 = L) and edges sharing a site
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
        for i, e in enumerate(obs):
            assert rec.means[e] == rec.moments[frozenset([i])]

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
        for e in obs:
            assert corr.energy_moment([e]) == pytest.approx(rec.means[e],
                                                            abs=1e-12)

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

    def test_non_integer_edge_coordinates_rejected(self):
        # a float coordinate used to reach the s-kernel lookup and raise a
        # raw IndexError there
        corr = FreeCorrelator(CylinderGeometry(4, 3), ModelParams.critical(0.5))
        with pytest.raises(ValueError, match="integers"):
            corr.energy_cumulant((Edge((1.0, 1), "h"), Edge((3, 2), "v")))

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
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_one_covariance_and_2m_minus_1_pfaffians(self, small_critical,
                                                     monkeypatch):
        corr = small_critical[-1]
        counts = {"pfaffian": 0, "covariance": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr(skewlinalg, "pfaffian",
                            counted("pfaffian", skewlinalg.pfaffian))
        monkeypatch.setattr(PropagatorTable, "covariance", counted(
            "covariance", PropagatorTable.covariance))
        corr.energy_cumulant(self.EDGES[:3])
        # one covariance per sector (phi and xi), one Pfaffian per
        # nonempty subset of the three bilinears
        assert counts == {"pfaffian": 7, "covariance": 2}


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
    """A Pfaffian-route value with a sizeable imaginary part, or a singular
    momentum block of the partition function, is a numerical failure,
    raised as a typed error rather than checked by ``assert``."""

    @pytest.fixture
    def complex_pfaffian(self, monkeypatch):
        monkeypatch.setattr("isingcyl.freecorr.pfaffian",
                            lambda a: 1.0 + 0.5j)

    def test_partition_function(self, monkeypatch):
        blocks = freecorr._critical_momentum_blocks

        def one_singular(k1, M, params):
            out = blocks(k1, M, params)
            out[0] = 0.0
            return out
        monkeypatch.setattr(freecorr, "_critical_momentum_blocks",
                            one_singular)
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
