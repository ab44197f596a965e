from types import SimpleNamespace

import numpy as np
import pytest

from isingcyl import multiscale
from isingcyl.cli import main
from isingcyl.lattice import CylinderGeometry
from isingcyl.multiscale import (
    LEQ, CutoffWeight, ScaleCutoff, bulk_edge_split, chi_profile,
    edge_decay_profile, envelope_decay_fit, fit_exponential_decay,
    scale_norm_profile, scale_propagator, smooth_sector_propagator,
    split_residual,
)
from isingcyl.propagators import (
    ModelParams, coeff_D, critical_propagator_fourier, ghat_matrix,
    infinite_propagator_grid,
)


@pytest.fixture(scope="module")
def setup16():
    geom = CylinderGeometry(16, 16)
    params = ModelParams.critical(0.5)
    return geom, params, ScaleCutoff.for_geometry(geom)


class TestChiProfile:
    def test_plateaus(self):
        assert chi_profile(0.0) == 1.0
        assert chi_profile(0.5) == 1.0
        assert chi_profile(1.0) == 0.0
        assert chi_profile(3.0) == 0.0

    def test_midpoint_and_monotonicity(self):
        assert chi_profile(0.75) == pytest.approx(0.5)
        x = np.linspace(0.0, 1.5, 301)
        y = chi_profile(x)
        assert np.all(np.diff(y) <= 1e-15)

    def test_continuity_of_derivative(self):
        # the polynomial step glues with zero slope at both ends
        eps = 1e-7
        for edge in (0.5, 1.0):
            slope = (chi_profile(edge + eps) - chi_profile(edge - eps)) / (2 * eps)
            assert abs(slope) < 1e-5


class TestScaleCutoff:
    def test_h_star(self):
        assert ScaleCutoff.for_geometry(CylinderGeometry(32, 32)).h_star == -5
        assert ScaleCutoff.for_geometry(CylinderGeometry(12, 20)).h_star == -3
        assert ScaleCutoff.for_geometry(CylinderGeometry(4, 1)).h_star == 0

    def test_scales(self):
        cut = ScaleCutoff(h_star=-3)
        assert cut.scales == (-2, -1, 0)

    def test_partition_of_unity(self, setup16):
        geom, params, cut = setup16
        rng = np.random.default_rng(1)
        k1 = rng.uniform(-np.pi, np.pi, 500)
        k2 = rng.uniform(-np.pi, np.pi, 500)
        # the deepest block, every single scale and the unit-momentum
        # complement 1 - chi(E)
        brackets = ([cut.weight(LEQ, params)(k1, k2)]
                    + [cut.weight(h, params)(k1, k2) for h in cut.scales]
                    + [1.0 - chi_profile(np.sqrt(coeff_D(k1, k2, params)))])
        total = sum(brackets)
        assert np.max(np.abs(total - 1.0)) < 1e-15

    def test_invalid_scale(self, setup16):
        geom, params, cut = setup16
        with pytest.raises(ValueError):
            cut.weight(1, params)
        with pytest.raises(ValueError):
            cut.weight(cut.h_star, params)

    def test_scale_zero_infrared_support(self, setup16):
        # w_0 = chi(E) - chi(2E) vanishes wherever E <= 1/4
        geom, params, cut = setup16
        w = cut.weight(0, params)
        k = np.linspace(0.01, 0.1, 50)
        vals = w(k, k)
        E = np.sqrt(coeff_D(k, k, params))
        assert np.all(vals[E <= 0.25] == 0.0)


class TestCutoffWeight:
    def test_values_are_hashable_and_equal(self, setup16):
        geom, params, cut = setup16
        again = ScaleCutoff.for_geometry(geom)
        for h in cut.scales + (LEQ,):
            assert cut.weight(h, params) == again.weight(h, params)
            assert hash(cut.weight(h, params)) == hash(again.weight(h, params))
        assert cut.weight(-1, params) == CutoffWeight(-1, -2, params)
        assert cut.smooth_weight(params) == CutoffWeight(0, None, params)
        assert cut.weight(-1, params) != cut.weight(-2, params)

    def test_equal_weights_give_equal_values(self, setup16):
        geom, params, cut = setup16
        again = ScaleCutoff.for_geometry(geom)
        z = np.arange(-3, 4)
        a = infinite_propagator_grid(params, cut.weight(-1, params), 32, z, z)
        assert np.array_equal(infinite_propagator_grid(
            params, again.weight(-1, params), 32, z, z), a)

    def test_different_scales_get_different_grids(self, setup16):
        # each weight reaches the torus sum: distinct scales give
        # distinct values
        geom, params, cut = setup16
        weights = (cut.weight(-1, params), cut.weight(-2, params),
                   ScaleCutoff(h_star=-2).weight(LEQ, params),
                   ScaleCutoff(h_star=-3).weight(LEQ, params))
        z = np.arange(32)
        grids = [infinite_propagator_grid(params, w, 32, z, z)
                 for w in weights]
        for i, a in enumerate(grids):
            for b in grids[i + 1:]:
                assert np.max(np.abs(a - b)) > 1e-6
        # the zero-offset entry is the momentum average of ghat * weight
        k = -np.pi + 2.0 * np.pi * (np.arange(32) + 0.5) / 32
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        for w, g in zip(weights, grids):
            avg = np.mean(ghat_matrix(K1, K2, params)
                          * w(K1, K2)[..., None, None], axis=(0, 1))
            assert np.allclose(g[0, 0], avg, atol=1e-14)

    def test_weighted_infinite_propagator(self, setup16):
        # a weighted torus sum keeps the symmetry g(z) = -g(-z)^T
        geom, params, cut = setup16
        w = cut.weight(0, params)
        g = infinite_propagator_grid(params, w, 512, np.array([2, -2]),
                                     np.array([1, -1]))
        assert np.allclose(g[0, 0], -g[1, 1].T, atol=1e-12)


class TestScalePropagators:
    def test_reconstruction(self, setup16):
        geom, params, cut = setup16
        smooth = smooth_sector_propagator(geom, params, cut)
        acc = scale_propagator(LEQ, geom, params, cut).data.copy()
        for h in cut.scales:
            acc += scale_propagator(h, geom, params, cut).data
        assert np.max(np.abs(acc - smooth.data)) < 1e-12

    def test_one_build_per_table(self, capsys, monkeypatch):
        # the multiscale report reads the scale tables in its telescoping
        # residual, its bulk/edge split and its norm profile: each table is
        # built once (parameters no other test uses, so none is cached yet)
        built = []
        fourier = multiscale.critical_propagator_fourier

        def counting(geom, params, **kw):
            built.append(kw["variant"])
            return fourier(geom, params, **kw)
        monkeypatch.setattr(multiscale, "critical_propagator_fourier",
                            counting)
        assert main(["multiscale", "--L", "16", "--M", "16",
                     "--t1", "0.37"]) == 0
        capsys.readouterr()
        cut = ScaleCutoff.for_geometry(CylinderGeometry(16, 16))
        assert sorted(built) == sorted(
            ["critical-smooth", f"critical-scale-{LEQ}"]
            + [f"critical-scale-{h}" for h in cut.scales])

    def test_scale_tables_are_shared_and_read_only(self, setup16):
        geom, params, cut = setup16
        tab = scale_propagator(0, geom, params, cut)
        assert scale_propagator(0, geom, params, cut) is tab
        with pytest.raises(ValueError):
            tab.data[0, 0, 0] = 1.0

    def test_smooth_plus_complement_is_full(self, setup16):
        geom, params, cut = setup16
        full = critical_propagator_fourier(geom, params)
        smooth = smooth_sector_propagator(geom, params, cut)
        comp = critical_propagator_fourier(
            geom, params,
            weight=lambda k1, k2: 1.0 - chi_profile(
                np.sqrt(coeff_D(k1, k2, params))))
        assert np.max(np.abs(smooth.data + comp.data - full.data)) < 1e-12

    def test_scale_boundary_cancellation(self, setup16):
        # each single-scale table keeps the closure-row cancellations
        geom, params, cut = setup16
        M = geom.M
        for h in (-2, 0):
            tab = scale_propagator(h, geom, params, cut)
            worst = 0.0
            for z in [(1, 3), (5, 8)]:
                for x in (1, 7):
                    worst = max(worst,
                                abs(tab.block((x, 0), z)[0, 0]),
                                abs(tab.block((x, 0), z)[0, 1]),
                                abs(tab.block(z, (x, 0))[0, 0]),
                                abs(tab.block(z, (x, 0))[1, 0]),
                                abs(tab.block((x, M + 1), z)[1, 0]),
                                abs(tab.block((x, M + 1), z)[1, 1]),
                                abs(tab.block(z, (x, M + 1))[0, 1]),
                                abs(tab.block(z, (x, M + 1))[1, 1]))
            assert worst < 1e-12

    def test_amplitude_scaling(self):
        # nonempty scales have max-norm proportional to 2^h within a
        # factor 4 (the deepest scales can be empty: the smallest lattice
        # momenta may exceed their support)
        geom = CylinderGeometry(32, 32)
        params = ModelParams.critical(0.5)
        prof = scale_norm_profile(geom, params)
        ratios = [v / 2.0 ** h for h, v in prof.items() if v > 0]
        assert len(ratios) >= 3
        assert max(ratios) / min(ratios) < 4.0


class TestBulkEdgeSplit:
    def test_exact_complement(self, setup16):
        geom, params, cut = setup16
        for h in (-2, 0):
            sp = bulk_edge_split(h, geom, params, cut)
            assert np.max(np.abs(sp["bulk"].data + sp["edge"].data
                                 - sp["full"].data)) < 1e-12

    def test_split_residual(self):
        def table(*values):
            return SimpleNamespace(data=np.array(values))
        sp = {"bulk": table(1.0, -2.0), "edge": table(0.5, 1.0),
              "full": table(1.5, -1.25)}
        assert split_residual(sp) == 0.25

    def test_bulk_translation_and_antisymmetry(self, setup16):
        geom, params, cut = setup16
        b = bulk_edge_split(-1, geom, params, cut)["bulk"]
        z, zp = (3, 5), (7, 9)
        assert np.allclose(b.block(z, zp),
                           b.block((z[0] + 2, z[1]), (zp[0] + 2, zp[1])),
                           atol=1e-14)
        assert np.allclose(b.block(z, zp), -b.block(zp, z).T, atol=1e-10)

    def test_edge_larger_near_boundary(self):
        geom = CylinderGeometry(32, 32)
        params = ModelParams.critical(0.5)
        e = bulk_edge_split(-2, geom, params)["edge"]
        near = np.max(np.abs(e.block((16, 1), (17, 1))))
        far = np.max(np.abs(e.block((16, 16), (17, 16))))
        assert near > far

    def test_edge_decay_fit(self):
        geom = CylinderGeometry(32, 32)
        params = ModelParams.critical(0.5)
        d, n = edge_decay_profile(-2, geom, params)
        fit = envelope_decay_fit(d, n, bin_width=8)
        assert fit["rate"] > 0
        assert fit["r_squared"] > 0.9


class TestDecayFitHelpers:
    def test_exact_exponential(self):
        d = np.arange(1, 20, dtype=float)
        n = 3.0 * np.exp(-0.4 * d)
        fit = fit_exponential_decay(d, n)
        assert fit["rate"] == pytest.approx(0.4, rel=1e-10)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_floor_filtering(self):
        d = np.arange(1, 10, dtype=float)
        n = np.exp(-d)
        n[-1] = 0.0
        fit = fit_exponential_decay(d, n)
        assert fit["rate"] == pytest.approx(1.0, rel=1e-10)

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([1.0, 2.0], [0.1, 0.2])
