import functools
import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaussian_oracle as oracle
import kernel_oracle
import steiner_percall_oracle as percall
from isingcyl import kernelcalc
from isingcyl.acceptance import _rand_kernel, _rand_source
from isingcyl.kernelcalc import (
    BOUNDARY, BULK, NORM_DISTANCES, NORM_FLAVORS, FieldLabel, Kernel,
    VertexRenorm, _monomial_covariance, _pack, _sector_check,
    antisymmetrize, expand_family,
    extract_vertex_renorm, free_source_kernels,
    horizontal_translate, localize_bulk, localize_edge, localize_source,
    monomial_moment, polynomial_distance, reflect_kernel, renormalize_bulk,
    renormalize_edge, renormalize_source, rg_step, symmetrize, tilde_L,
    tilde_L_edge, tilde_L_source, tilde_R, tilde_R_edge, tilde_R_source,
    truncated_expectation, weighted_norm,
)
from isingcyl.lattice import (
    CylinderGeometry, Edge, antiperiodic_wrap, gamma_steps, tree_distance,
    z_boundary,
)
from isingcyl.propagators import (
    LazyCriticalTable, ModelParams, PropagatorTable, critical_propagator_fourier,
)


@pytest.fixture(scope="module")
def geom():
    return CylinderGeometry(12, 5)


@pytest.fixture(scope="module")
def table(geom):
    return critical_propagator_fourier(geom, ModelParams.critical(0.5))


# random kernels on a window anchored at ``base`` (it may wrap the seam):
# acceptance's generators, with five keys on a five-column window
rand_kernel = functools.partial(_rand_kernel, nkeys=5, width=5)
rand_source = functools.partial(_rand_source, nkeys=5, width=5)


def coupling_basis(geom):
    """The symmetrized local quadratic kernels of the running couplings: a
    mass term (nu), a horizontal-derivative term with the symmetric
    two-sided difference (zeta) and a vertical-derivative term (eta)."""
    nu, zeta, eta = {}, defaultdict(complex), defaultdict(complex)
    for z in geom.sites():
        nu[((FieldLabel(1, (0, 0), z), FieldLabel(-1, (0, 0), z)), ())] = 1.0
        for omega in (1, -1):
            base = FieldLabel(omega, (0, 0), z)
            zeta[((base, FieldLabel(omega, (1, 0), z)), ())] += 0.5 * omega
            m, s = antiperiodic_wrap(z[0] - 2, geom.L)
            zeta[((base, FieldLabel(omega, (1, 0), (m + 1, z[1]))), ())] += \
                0.5 * omega * s
            if z[1] + 1 <= geom.M:
                eta[((base, FieldLabel(-omega, (0, 1), z)), ())] += 0.5
            if z[1] - 1 >= 1:
                eta[((base, FieldLabel(-omega, (0, 1), (z[0], z[1] - 1))),
                     ())] += 0.5
    return {"nu": symmetrize(Kernel(geom, 2, 0, 0, nu)),
            "zeta": symmetrize(Kernel(geom, 2, 1, 0, dict(zeta))),
            "eta": symmetrize(Kernel(geom, 2, 1, 0, dict(eta)))}


def family_sum(a, b):
    out = dict(a)
    for key, v in b.items():
        out[key] = out[key] + v if key in out else v
    return out


class TestKernelBasics:
    def test_label_validation(self, geom):
        with pytest.raises(ValueError):
            FieldLabel(0, (0, 0), (1, 1)).validate()
        with pytest.raises(ValueError):
            FieldLabel(1, (2, 1), (1, 1)).validate()
        with pytest.raises(ValueError):
            FieldLabel(1, (0, 0), (0, 1)).validate(geom)
        with pytest.raises(ValueError):
            FieldLabel(1, (0, 0), (1, geom.M + 2)).validate(geom)
        # vertical overhang of the difference window is allowed
        FieldLabel(1, (0, 2), (1, geom.M)).validate(geom)
        # entries must be integers: no floats, no bools
        with pytest.raises(ValueError):
            FieldLabel(1, (0, 0), (1.5, 2)).validate(geom)
        with pytest.raises(ValueError):
            FieldLabel(True, (0, 0), (1, 1)).validate()
        half = (FieldLabel(1, (0, 0), (1.5, 2)), FieldLabel(-1, (0, 0), (3, 2)))
        with pytest.raises(ValueError):
            Kernel(geom, 2, 0, 0, {(half, ()): 1.0})

    def test_kernel_validation(self, geom):
        l = FieldLabel(1, (0, 0), (1, 1))
        with pytest.raises(ValueError):
            Kernel(geom, 3, 0, 0, {})
        with pytest.raises(ValueError):
            Kernel(geom, 2, 1, 0, {((l, l), ()): 1.0})  # p mismatch
        with pytest.raises(ValueError):
            Kernel(geom, 4, 0, 0, {((l, l), ()): 1.0})  # arity mismatch
        with pytest.raises(ValueError):
            Kernel(geom, 2, 0, 1,
                   {((l, l), (Edge((1, 0), "h"),)): 1.0})  # bad edge row

    def test_add_rejects_mismatched_kernels(self, geom):
        l = FieldLabel(1, (0, 0), (1, 1))
        a = Kernel(geom, 2, 0, 0, {((l, l), ()): 1.0})
        with pytest.raises(ValueError):
            a + Kernel(geom, 4, 0, 0, {})
        with pytest.raises(ValueError):
            a + Kernel(CylinderGeometry(4, 5), 2, 0, 0, {})
        with pytest.raises(TypeError):
            a + 1.0

    def test_round_trip(self, geom):
        # the arrays decode to the dict they were built from, exactly
        kernels = [k for m in (0, 1, 2)
                   for k in _oracle_inputs(geom, ALL_SECTORS, m)]
        kernels.append(free_source_kernels(ModelParams.critical(0.5)))
        assert min(k.labels[..., 3].min() for k in kernels) < -50
        for k in kernels:
            assert Kernel(k.geom, k.n, k.p, k.m, k.coeffs).coeffs == k.coeffs
        # input keys keep their order and their edge order
        two = _oracle_inputs(geom, [(2, 1)], 2)[0]
        assert [e.direction for (_, es) in two.coeffs for e in es] == \
            ["h", "v"] * len(two.values)

    def test_pack_orders_wide_rows(self):
        # rows far wider than 63 bits: the codes still order the rows
        # lexicographically and are equal exactly for equal rows
        rng = np.random.default_rng(9)
        rows = rng.integers(-2 ** 20, 2 ** 20, (400, 6))
        rows[200:] = rows[rng.permutation(200)]
        order = np.lexsort(rows.T[::-1])
        step = np.diff(_pack(rows)[order])
        assert (step >= 0).all()
        assert ((step == 0) == (np.diff(rows[order], axis=0) == 0).all(
            axis=1)).all()

    def test_algebra(self, geom):
        rng = np.random.default_rng(0)
        a = rand_kernel(rng, geom, 2, 1)
        b = rand_kernel(rng, geom, 2, 1)
        s = a + b + a.scaled(-1.0)
        assert polynomial_distance(s, b) < 1e-14
        assert polynomial_distance(a.scaled(2.0), a + a) == 0.0

    def test_antisymmetrize_is_equivalent(self, geom):
        rng = np.random.default_rng(2)
        for sec in [(2, 0), (2, 1), (4, 0)]:
            k = rand_kernel(rng, geom, *sec)
            assert polynomial_distance(antisymmetrize(k), k) <= 1e-13

    def test_symmetrize_idempotent(self, geom):
        rng = np.random.default_rng(3)
        k = symmetrize(rand_kernel(rng, geom, 2, 1))
        assert polynomial_distance(symmetrize(k), k) < 1e-14


class TestExpansion:
    def test_horizontal_seam_wrap(self, geom):
        # forward difference at x1 = L wraps antiperiodically:
        # D1 phi(L) = -phi(1) - phi(L)
        k = Kernel(geom, 2, 1, 0, {
            ((FieldLabel(1, (1, 0), (geom.L, 2)),
              FieldLabel(-1, (0, 0), (3, 3))), ()): 1.0})
        partner = FieldLabel(-1, (0, 0), (3, 3))
        expected = Kernel(geom, 2, 0, 0, {
            ((FieldLabel(1, (0, 0), (1, 2)), partner), ()): -1.0,
            ((FieldLabel(1, (0, 0), (geom.L, 2)), partner), ()): -1.0})
        assert polynomial_distance(k, expected) == 0.0

    def test_boundary_null_fields_vanish(self, geom):
        # omega=+ on row 0 and omega=- on row M+1 are null
        for omega, row in [(1, 0), (-1, geom.M + 1)]:
            k = Kernel(geom, 2, 0, 0, {
                ((FieldLabel(omega, (0, 0), (2, row)),
                  FieldLabel(1, (0, 0), (5, 2))), ()): 1.0})
            assert expand_family(k) == {}

    def test_vertical_overhang_drops(self, geom):
        # D2^2 at row M: the term above the closure is zero-extended away
        k = Kernel(geom, 2, 2, 0, {
            ((FieldLabel(1, (0, 2), (2, geom.M)),
              FieldLabel(-1, (0, 0), (5, 2))), ()): 1.0})
        rows = {f[1][1] for (fields, _), _ in expand_family(k).items()
                for f in fields if f[1][0] == 2}
        assert rows == {geom.M, geom.M + 1}

    def test_repeated_field_vanishes(self, geom):
        l = FieldLabel(1, (0, 0), (3, 3))
        k = Kernel(geom, 2, 0, 0, {((l, l), ()): 1.0})
        assert expand_family(k) == {}

    def test_matches_oracle(self, geom):
        # the array expansion against the one-key-at-a-time reference on
        # every oracle input set, symmetrized kernels and an
        # infinite-volume kernel, coefficient for coefficient
        kernels = [k for m in (0, 1, 2)
                   for k in _oracle_inputs(geom, ALL_SECTORS, m)]
        kernels += [symmetrize(k) for k in kernels[::6]]
        kernels += _wide_inputs(2)
        kernels.append(free_source_kernels(ModelParams.critical(0.5)))
        for k in kernels:
            assert expand_family(k) == \
                kernel_oracle.expand_to_plain_fields(k)

    def test_ordering_sign(self, geom):
        l1 = FieldLabel(1, (0, 0), (3, 3))
        l2 = FieldLabel(-1, (0, 0), (5, 2))
        a = Kernel(geom, 2, 0, 0, {((l1, l2), ()): 1.0})
        b = Kernel(geom, 2, 0, 0, {((l2, l1), ()): -1.0})
        assert polynomial_distance(a, b) == 0.0


def _closure_pairs(geom):
    # every ordered pair of closure sites, as two (N, 2) arrays
    sites = [(x1, x2) for x2 in range(geom.M + 2)
             for x1 in range(1, geom.L + 1)]
    z, zp = zip(*itertools.product(sites, repeat=2))
    return np.array(z), np.array(zp)


class TestGammaSteps:
    def test_telescoping(self, geom):
        def f(x1, x2):
            return np.cos(2 * np.pi * x1 / geom.L) + 0.3 * x2 ** 2

        z, zp = _closure_pairs(geom)
        row, sigma, site, unit = gamma_steps(z, zp, geom)
        nxt = site + unit
        tot = np.bincount(row, sigma * (f((nxt[:, 0] - 1) % geom.L + 1,
                                          nxt[:, 1])
                                        - f(site[:, 0], site[:, 1])),
                          len(z))
        assert np.abs(tot - (f(*zp.T) - f(*z.T))).max() < 1e-12

    def test_matches_oracle_paths(self, geom):
        # every path on the closure, step by step, as the scalar walk
        z, zp = _closure_pairs(geom)
        row, sigma, site, unit = gamma_steps(z, zp, geom)
        got = [[] for _ in range(len(z))]
        for r, s, x, u in zip(row.tolist(), sigma.tolist(), site.tolist(),
                              unit.tolist()):
            got[r].append((s, tuple(x), tuple(u)))
        assert got == [kernel_oracle.gamma_steps(tuple(a), tuple(b), geom)
                       for a, b in zip(z.tolist(), zp.tolist())]

    def test_path_shape(self, geom):
        _, _, _, unit = gamma_steps(np.array([(3, 1)]), np.array([(5, 4)]),
                                    geom)
        # vertical first, then horizontal
        assert unit.tolist() == [[0, 1]] * 3 + [[1, 0]] * 2

    def test_half_circumference_tie_break(self, geom):
        # at horizontal distance L/2 the path stays inside the raw
        # coordinate interval, in both directions
        _, _, site, _ = gamma_steps(np.array([(2, 3), (8, 3)]),
                                    np.array([(8, 3), (2, 3)]), geom)
        assert ((2 <= site[:, 0]) & (site[:, 0] <= 8)).all()


class TestTildeOperators:
    def test_localize_neighbor_pair(self, geom):
        z = (3, 2)
        labels = (FieldLabel(1, (0, 0), z), FieldLabel(-1, (0, 0), (4, 2)))
        out = tilde_L(Kernel(geom, 2, 0, 0, {(labels, ()): 1.0}))
        assert out.coeffs == {
            ((FieldLabel(1, (0, 0), z), FieldLabel(-1, (0, 0), z)), ()):
            pytest.approx(1.0)}

    def test_wrong_sector_raises(self, geom):
        rng = np.random.default_rng(4)
        k = rand_kernel(rng, geom, 2, 2)
        with pytest.raises(ValueError):
            tilde_L(k)
        with pytest.raises(ValueError):
            tilde_R(k)

    def test_remainder_single_step(self, geom):
        z = (3, 2)
        labels = (FieldLabel(1, (0, 0), z), FieldLabel(-1, (0, 0), (4, 2)))
        out = tilde_R(Kernel(geom, 2, 0, 0, {(labels, ()): 1.0}))
        assert out.coeffs == {
            ((FieldLabel(1, (0, 0), z), FieldLabel(-1, (1, 0), z)), ()):
            pytest.approx(1.0)}

    def test_remainder_coincident_is_zero(self, geom):
        z = (3, 2)
        labels = (FieldLabel(1, (0, 0), z), FieldLabel(-1, (0, 0), z))
        out = tilde_R(Kernel(geom, 2, 0, 0, {(labels, ()): 1.0}))
        assert out.coeffs == {}

    def test_localization_translation_covariance(self, geom):
        rng = np.random.default_rng(5)
        v = rand_kernel(rng, geom, 2, 0, base=2)
        for a in (1, 7):
            d = polynomial_distance(tilde_L(horizontal_translate(v, a)),
                                    horizontal_translate(tilde_L(v), a))
            assert d < 1e-13

    @pytest.mark.parametrize("sector", [(2, 0), (2, 1), (4, 0)])
    @pytest.mark.parametrize("base", [1, 9])  # base 9 wraps the seam
    def test_split_identity(self, geom, sector, base):
        # V is equivalent to tilde_L V + tilde_R V on narrow interior
        # supports (the localization sign matches the seam crossings of
        # the interpolation path only when the tuple spans < L/3)
        rng = np.random.default_rng(100 * base + sector[0] + sector[1])
        for _ in range(5):
            v = rand_kernel(rng, geom, *sector, base=base, width=4)
            d = polynomial_distance({"loc": tilde_L(v), "rem": tilde_R(v)}, v)
            assert d < 1e-12


def _two_probe_kernel(rng, geom, n, p, base):
    # two probe edges listed against their sort order
    k = rand_kernel(rng, geom, n, p, base=base)
    edges = (Edge((geom.wrap_x1(base + 1), 2), "h"), Edge((base, 1), "v"))
    return Kernel(geom, n, p, 2,
                  {(labels, edges): c for (labels, _), c in k.coeffs.items()})


def _oracle_inputs(geom, sectors, m):
    # seeded kernels on every window base, the last four wrapping the seam
    rng = np.random.default_rng(1000 * m + len(sectors))
    gen = (rand_kernel, rand_source, _two_probe_kernel)[m]
    return [gen(rng, geom, *sec, base=base)
            for sec in sectors for base in range(1, geom.L + 1)]


def _wide_inputs(m):
    # a 256 x 64 cylinder: windows of three columns on both sides of the
    # seam (L, 1, 2), rows anywhere in 1..M, probe edges at the seam and at
    # both ends of the rows -- coordinates wide enough that a narrow dtype
    # or an overflowing packing of whole keys would show
    wide = CylinderGeometry(256, 64)
    rng = np.random.default_rng(256 + m)
    edges = ((), (Edge((wide.L, 1), "h"),),
             (Edge((wide.L, wide.M), "h"), Edge((1, wide.M - 1), "v")))[m]
    out = []
    for sec in ALL_SECTORS:
        k = rand_kernel(rng, wide, *sec, nkeys=8, base=wide.L, width=3)
        out.append(Kernel(wide, *sec, m, {(labels, edges): c for
                                          (labels, _), c in k.coeffs.items()}))
    return out


def assert_matches_oracle(got, ref, tol=1e-15):
    assert (got.geom, got.sector) == (ref.geom, ref.sector)
    gc, rc = got.coeffs, ref.coeffs
    assert max((abs(gc.get(k, 0.0) - rc.get(k, 0.0)) for k in gc.keys() | rc),
               default=0.0) <= tol
    assert polynomial_distance(got, ref) <= tol


ALL_SECTORS = [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)]


class TestAgainstOracle:
    """Every derived-kernel operator against the one-loop-per-operator
    reference, key by key (missing keys count as 0) and expanded."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("name, args", [
        ("antisymmetrize", ()), ("symmetrize", ()),
        ("reflect_kernel", (1,)), ("reflect_kernel", (2,)),
        ("horizontal_translate", (5,)), ("horizontal_translate", (-7,)),
        ("horizontal_translate", (13,)),
    ])
    def test_symmetries(self, geom, name, args, m):
        for k in _oracle_inputs(geom, ALL_SECTORS, m):
            assert_matches_oracle(globals()[name](k, *args),
                                  getattr(kernel_oracle, name)(k, *args))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_wide_cylinder(self, m):
        for k in _wide_inputs(m):
            for name, args in [("antisymmetrize", ()), ("symmetrize", ()),
                               ("reflect_kernel", (1,)),
                               ("reflect_kernel", (2,)),
                               ("horizontal_translate", (-129,)),
                               ("horizontal_translate", (300,))]:
                assert_matches_oracle(globals()[name](k, *args),
                                      getattr(kernel_oracle, name)(k, *args))
            for name, sectors, mm in [
                    ("tilde_L", [(2, 0), (2, 1), (4, 0)], 0),
                    ("tilde_R", [(2, 0), (2, 1), (4, 0)], 0),
                    ("tilde_L_edge", [(2, 0)], 0),
                    ("tilde_R_edge", [(2, 0)], 0),
                    ("tilde_L_source", [(2, 0)], 1),
                    ("tilde_R_source", [(2, 0)], 1)]:
                if k.sector[:2] in sectors and m == mm:
                    assert_matches_oracle(globals()[name](k),
                                          getattr(kernel_oracle, name)(k))

    def test_infinite_volume_antisymmetrize(self):
        k = free_source_kernels(ModelParams.critical(0.5))
        assert_matches_oracle(antisymmetrize(k),
                              kernel_oracle.antisymmetrize(k))

    @pytest.mark.parametrize("name, sectors, m", [
        ("tilde_L", [(2, 0), (2, 1), (4, 0)], 0),
        ("tilde_R", [(2, 0), (2, 1), (4, 0)], 0),
        ("tilde_L_edge", [(2, 0)], 0),
        ("tilde_R_edge", [(2, 0)], 0),
        ("tilde_L_source", [(2, 0)], 1),
        ("tilde_R_source", [(2, 0)], 1),
    ])
    def test_localizations_and_remainders(self, geom, name, sectors, m):
        op = globals()[name]
        for k in _oracle_inputs(geom, sectors, m):
            assert_matches_oracle(op(k), getattr(kernel_oracle, name)(k))

    def test_remainder_of_remainder(self, geom):
        # the (2,0) -> (2,2) path of renormalize_bulk
        for k in _oracle_inputs(geom, [(2, 0)], 0):
            assert_matches_oracle(
                tilde_R(tilde_R(k)),
                kernel_oracle.tilde_R(kernel_oracle.tilde_R(k)))

    def test_symmetrize_builds_two_kernels(self, geom, monkeypatch):
        # one validation per derived array: the antisymmetrized kernel and
        # the sum of its four reflection images
        builds = []
        validate = Kernel._validate

        def counting(self):
            builds.append(self.sector)
            validate(self)
        rng = np.random.default_rng(41)
        k = rand_kernel(rng, geom, 4, 1, base=10)
        monkeypatch.setattr(Kernel, "_validate", counting)
        symmetrize(k)
        assert builds == [(4, 1, 0), (4, 1, 0)]


# every sector up to the first pass-through ones: localized, collected and
# passed through, in all three flavors
MIXED_SECTORS = [(2, 0), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1), (4, 2),
                 (6, 0)]
FLAVORS = {
    "bulk": (localize_bulk, renormalize_bulk, rand_kernel, BULK, tilde_R),
    "edge": (localize_edge, renormalize_edge, rand_kernel, BOUNDARY,
             tilde_R_edge),
    "source": (localize_source, renormalize_source, rand_source, BOUNDARY,
               tilde_R_source),
}


def assert_same_kernel(got, ref):
    assert (got.geom, got.sector) == (ref.geom, ref.sector)
    gc, rc = got.coeffs, ref.coeffs
    assert all(gc.get(k, 0.0) == rc.get(k, 0.0) for k in gc.keys() | rc)


def assert_same_family(got, ref):
    assert list(got) == list(ref)
    for sec in ref:
        assert_same_kernel(got[sec], ref[sec])


def _mixed_families(geom, flavor, seed):
    # on every window base (the last four wrap the seam): the full sector
    # list, a random nonempty subset, and the full list with each sector
    # above a localized one sharing keys with that one's remainder (so the
    # order in which collected parts are summed shows in the rounding)
    _, _, gen, D, R = FLAVORS[flavor]
    rng = np.random.default_rng(seed)
    out = []
    for base in range(1, geom.L + 1):
        picks = rng.permutation(len(MIXED_SECTORS))[
            :int(rng.integers(1, len(MIXED_SECTORS) + 1))]
        for sectors in (MIXED_SECTORS, [MIXED_SECTORS[i] for i in picks]):
            out.append({sec: gen(rng, geom, *sec, base=base)
                        for sec in sectors})
        fam = dict(out[-2])
        for n, p in MIXED_SECTORS:
            if p - 1 in range(D - n // 2 + 1):
                fam[(n, p)] += R(fam[(n, p - 1)]).scaled(rng.normal())
        out.append(fam)
    return out


class TestPowerCounting:
    """The family operators against the parent's hand-written forms
    (``kernel_oracle``), compared exactly: the same keys in the same order
    and equal coefficients (missing keys count as 0)."""

    @pytest.mark.parametrize("flavor", sorted(FLAVORS))
    def test_sector_check(self, geom, flavor):
        D = FLAVORS[flavor][3]
        allowed, m = kernel_oracle.SECTORS[flavor]
        accepted = set()
        for n, p, mm in itertools.product((2, 4, 6), range(5), (0, 1)):
            try:
                _sector_check(Kernel(geom, n, p, mm, {}), D, m)
            except ValueError:
                continue
            accepted.add((n, p, mm))
        assert accepted == {(n, p, m) for n, p in allowed}

    @pytest.mark.parametrize("flavor", sorted(FLAVORS))
    def test_family_operators(self, geom, flavor):
        loc, ren = FLAVORS[flavor][:2]
        for fam in _mixed_families(geom, flavor, len(flavor)):
            for op in (loc, ren):
                assert_same_family(
                    op(fam), getattr(kernel_oracle, op.__name__)(fam))

    @pytest.mark.parametrize("flavor", sorted(FLAVORS))
    def test_wrong_probe_count_raises(self, geom, flavor):
        loc, ren, gen = FLAVORS[flavor][:3]
        other = rand_kernel if gen is rand_source else rand_source
        fam = {sec: other(np.random.default_rng(3), geom, *sec)
               for sec in MIXED_SECTORS}
        for op in (loc, ren):
            with pytest.raises(ValueError):
                getattr(kernel_oracle, op.__name__)(fam)
            with pytest.raises(ValueError):
                op(fam)


class TestBulkOperators:
    def test_quartic_localization_vanishes(self, geom):
        # the localized quartic puts four fields on one site: a structural
        # zero by the exclusion rule
        rng = np.random.default_rng(6)
        worst = 0.0
        for i in range(200):
            v = rand_kernel(rng, geom, 4, 0, nkeys=2,
                            base=1 + i % geom.L)
            out = localize_bulk({(4, 0): v})
            vals = [abs(c) for c in expand_family(out).values()]
            worst = max(worst, max(vals, default=0.0))
        assert worst < 1e-14

    def test_decomposition(self, geom):
        # localize + renormalize reproduces the potential on symmetrized
        # narrow interior families
        rng = np.random.default_rng(7)
        for _ in range(8):
            base = int(rng.integers(1, geom.L + 1))
            fam = {sec: symmetrize(rand_kernel(rng, geom, *sec, base=base,
                                               width=4))
                   for sec in [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)]}
            both = family_sum(localize_bulk(fam), renormalize_bulk(fam))
            assert polynomial_distance(both, fam) < 1e-12

    def test_passthrough_sector(self, geom):
        rng = np.random.default_rng(8)
        v = rand_kernel(rng, geom, 6, 0, nkeys=2)
        fam = {(6, 0): v}
        assert localize_bulk(fam) == {}
        assert renormalize_bulk(fam)[(6, 0)] is v

    def test_localize_after_renormalize_vanishes(self, geom):
        rng = np.random.default_rng(9)
        fam = {sec: symmetrize(rand_kernel(rng, geom, *sec, width=4))
               for sec in [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)]}
        assert localize_bulk(renormalize_bulk(fam)) == {}

    def test_renormalize_idempotent(self, geom):
        rng = np.random.default_rng(10)
        fam = {sec: symmetrize(rand_kernel(rng, geom, *sec, width=4))
               for sec in [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)]}
        ren = renormalize_bulk(fam)
        assert polynomial_distance(renormalize_bulk(ren), ren) < 1e-12

    def test_coupling_basis_fixed_points(self, geom):
        # the mass and horizontal-derivative basis kernels are exact fixed
        # points of the bulk localization
        cb = coupling_basis(geom)
        d = polynomial_distance(localize_bulk({(2, 0): cb["nu"]}),
                                {(2, 0): cb["nu"]})
        assert d < 1e-13
        d = polynomial_distance(localize_bulk({(2, 1): cb["zeta"]}),
                                {(2, 1): cb["zeta"]})
        assert d < 1e-13

    def test_vertical_derivative_residual_is_boundary_localized(self, geom):
        # the vertical-derivative basis kernel is NOT an exact fixed point:
        # re-localizing it leaves a vertical second-difference residual,
        # but that residual is confined to within two rows of the open
        # boundaries -- mid-cylinder it cancels exactly
        cb = coupling_basis(geom)
        loc = localize_bulk({(2, 1): cb["eta"]})
        ea = expand_family(loc)
        eb = expand_family({(2, 1): cb["eta"]})
        worst_mid = 0.0
        worst_any = 0.0
        for key in set(ea) | set(eb):
            d = abs(ea.get(key, 0.0) - eb.get(key, 0.0))
            worst_any = max(worst_any, d)
            rows = {f[1][1] for f in key[0]}
            if all(3 <= r <= geom.M - 2 for r in rows):
                worst_mid = max(worst_mid, d)
        assert worst_any < 0.2          # regression bound (measured 0.125)
        assert worst_mid == 0.0


class TestEdgeOperators:
    def test_z_boundary(self, geom):
        zs = [(3, 1), (3, geom.M // 2), (3, geom.M // 2 + 1)]
        assert z_boundary(np.array(zs), geom).tolist() == [
            [3, 0], [3, 0], [3, geom.M + 1]]
        assert [kernel_oracle.z_boundary(z, geom) for z in zs] == [
            (3, 0), (3, 0), (3, geom.M + 1)]

    def test_edge_localization_vanishes(self, geom):
        # both fields on the same closure row: one of the two species is
        # always null there
        rng = np.random.default_rng(11)
        worst = 0.0
        for i in range(200):
            v = rand_kernel(rng, geom, 2, 0, base=1 + i % geom.L)
            out = localize_edge({(2, 0): v})
            vals = [abs(c) for c in expand_family(out).values()]
            worst = max(worst, max(vals, default=0.0))
        assert worst < 1e-14

    def test_decomposition(self, geom):
        rng = np.random.default_rng(12)
        for _ in range(8):
            base = int(rng.integers(1, geom.L + 1))
            fam = {sec: symmetrize(rand_kernel(rng, geom, *sec, base=base,
                                               width=4))
                   for sec in [(2, 0), (2, 1), (2, 2)]}
            both = family_sum(localize_edge(fam), renormalize_edge(fam))
            assert polynomial_distance(both, fam) < 1e-12

    def test_passthrough(self, geom):
        rng = np.random.default_rng(13)
        v = rand_kernel(rng, geom, 2, 2)
        assert renormalize_edge({(2, 2): v})[(2, 2)] is v

    def test_remainder_sector(self, geom):
        rng = np.random.default_rng(14)
        out = tilde_R_edge(rand_kernel(rng, geom, 2, 0))
        assert out.sector == (2, 1, 0)
        with pytest.raises(ValueError):
            tilde_R_edge(rand_kernel(rng, geom, 2, 1))


class TestSourceOperators:
    def test_localize_example(self, geom):
        ex = Edge((4, 2), "h")
        labels = (FieldLabel(1, (0, 0), (4, 3)),
                  FieldLabel(-1, (0, 0), (6, 2)))
        k = Kernel(geom, 2, 0, 1, {(labels, (ex,)): 2.0})
        out = tilde_L_source(k)
        assert out.coeffs == {
            ((FieldLabel(1, (0, 0), (4, 2)),
              FieldLabel(-1, (0, 0), (4, 2))), (ex,)):
            pytest.approx(2.0)}

    def test_requires_probe_edges(self, geom):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            localize_source({(2, 0): rand_kernel(rng, geom, 2, 0)})
        with pytest.raises(ValueError):
            renormalize_source({(2, 0): rand_kernel(rng, geom, 2, 0)})

    def test_split_identity_single_keys(self, geom):
        rng = np.random.default_rng(16)
        for _ in range(20):
            base = int(rng.integers(1, geom.L + 1))
            b = rand_source(rng, geom, 2, 0, nkeys=1, base=base, width=4)
            d = polynomial_distance(
                {"loc": tilde_L_source(b), "rem": tilde_R_source(b)}, b)
            assert d < 1e-12

    def test_decomposition(self, geom):
        rng = np.random.default_rng(17)
        for _ in range(8):
            base = int(rng.integers(1, geom.L + 1))
            fam = {sec: symmetrize(rand_source(rng, geom, *sec, base=base,
                                               width=4))
                   for sec in [(2, 0), (2, 1), (2, 2)]}
            both = family_sum(localize_source(fam), renormalize_source(fam))
            assert polynomial_distance(both, fam) < 1e-12


# the per-call engines, memoized across the kappas of one test
_PER_CALL = {"plain": functools.lru_cache(None)(percall.tree_distance),
             "edge": functools.lru_cache(None)(percall.edge_tree_distance)}


def _per_key_norm(kernel, flavor, kappa):
    """``weighted_norm`` with one per-call Dreyfus-Wagner per key and the
    weights ``exp(kappa * d) * v`` as Python floats, summed in the same
    ``np.bincount`` order."""
    geom, labels = kernel.geom, kernel.labels
    rows = np.flatnonzero(
        kernelcalc._label_terms(labels, geom)[3].any(axis=-1).all(axis=-1)
        & (labels[..., 4] >= 0).all(axis=-1)
        & (labels[..., 4] + labels[..., 2] <= geom.M + 1).all(axis=-1))
    labels, edges, values = labels[rows], kernel.edges[rows], kernel.values
    first, group = kernelcalc._groups(labels[..., [0, 3, 4]], edges)
    top = np.zeros(len(first))
    np.maximum.at(top, group, [abs(v) for v in values[rows].tolist()])
    labels, edges = labels[first], edges[first]
    source = flavor.startswith("source")
    dist = _PER_CALL["edge" if flavor.endswith("edge") else "plain"]
    weights = []
    for zs, xs, v in zip(labels[..., 3:5].tolist(), edges.tolist(),
                         top.tolist()):
        xs = tuple(Edge((b1, b2), "hv"[d]) for b1, b2, d in xs)
        d = dist(tuple(map(tuple, zs)), xs if source else (), geom)
        weights.append(math.exp(kappa * d) * v)
    anchor = (edges if source else labels[:, :1, 3:4] if flavor == "edge"
              else labels[:, :1, 3:5])
    _, bucket = kernelcalc._groups(labels[..., :1], anchor)
    return float(np.bincount(bucket, weights).max(initial=0.0))


class TestWeightedNorm:
    def test_single_pair(self, geom):
        zs = ((3, 2), (5, 3))
        labels = (FieldLabel(1, (0, 0), zs[0]), FieldLabel(-1, (0, 0), zs[1]))
        k = Kernel(geom, 2, 0, 0, {(labels, ()): -2.0})
        assert weighted_norm(k, "bulk", 0.0) == pytest.approx(2.0)
        d = float(tree_distance(zs, (), geom))
        assert weighted_norm(k, "bulk", 0.3) == pytest.approx(
            2.0 * math.exp(0.3 * d))

    @pytest.mark.parametrize("flavor, d", [("bulk", 6), ("edge", 7)])
    def test_six_fields_use_exact_distance(self, geom, flavor, d):
        # a plus-shaped six-site term: its Steiner tree (6 edges, through
        # the unoccupied center (6, 3)) is shorter than the spanning tree
        # of its sites (8 edges).  delta_E: reaching a boundary row costs
        # 2 more edges, but one more edge already spans columns 5 apart,
        # more than L/3 = 4 (the winding option).
        line = tuple((x, 2) for x in range(1, 7))
        plus = ((4, 3), (5, 3), (6, 2), (6, 4), (7, 3), (8, 3))
        k = Kernel(geom, 6, 0, 0, {
            (tuple(FieldLabel(1, (0, 0), z) for z in zs), ()): c
            for zs, c in ((line, 1.0), (plus, -3.0))})
        assert weighted_norm(k, flavor, 0.2) == pytest.approx(
            3.0 * math.exp(0.2 * d))

    def test_null_labels_do_not_contribute(self, geom):
        labels = (FieldLabel(1, (0, 0), (2, 0)),
                  FieldLabel(1, (0, 0), (5, 2)))
        k = Kernel(geom, 2, 0, 0, {(labels, ()): 7.0})
        assert weighted_norm(k, "bulk", 0.1) == 0.0

    @pytest.mark.parametrize("flavor", NORM_FLAVORS)
    def test_single_key_weight_is_the_flavor_distance(self, geom, flavor):
        # NORM_DISTANCES names the scalar distance each flavor weighs by;
        # the source flavors measure it to the probe edge
        zs, xs = ((2, 1), (7, 3)), (Edge((11, 2), "v"),)
        labels = (FieldLabel(1, (0, 0), zs[0]), FieldLabel(-1, (0, 0), zs[1]))
        k = Kernel(geom, 2, 0, 1, {(labels, xs): -2.0})
        d = NORM_DISTANCES[flavor](
            zs, xs if flavor.startswith("source") else (), geom)
        assert weighted_norm(k, flavor, 0.3) == 2.0 * math.exp(0.3 * d)

    @pytest.mark.parametrize("flavor", NORM_FLAVORS)
    def test_overhanging_labels_do_not_contribute(self, geom, flavor):
        # a label window [x2, x2 + d2] reaching below row 0 or above row
        # M+1 leaves the closure: the key is dropped at either end, also
        # where the vertical reflection of symmetrize creates it (x2 = M+1
        # reflects to x2 = -1); below row 0 it used to reach the Steiner
        # engine, which rejects such rows
        M, xs = geom.M, (Edge((4, 2), "h"),)
        inside = (FieldLabel(1, (0, 1), (3, 2)), FieldLabel(-1, (0, 0), (5, 2)))
        ref = weighted_norm(Kernel(geom, 2, 1, 1, {(inside, xs): 1.0}),
                            flavor, 0.1)
        assert ref > 0.0
        for z in ((3, -1), (3, M + 1)):
            off = (FieldLabel(-1, (0, 1), z), FieldLabel(1, (0, 0), (5, 2)))
            k = Kernel(geom, 2, 1, 1, {(off, xs): 5.0, (inside, xs): 1.0})
            assert weighted_norm(k, flavor, 0.1) == ref
            sym = symmetrize(Kernel(geom, 2, 1, 1, {(off, xs): 5.0}))
            assert (sym.labels[..., 4] < 0).any()
            assert weighted_norm(sym, flavor, 0.1) == 0.0

    def test_validation(self, geom):
        rng = np.random.default_rng(21)
        k = rand_kernel(rng, geom, 2, 0)
        with pytest.raises(ValueError):
            weighted_norm(k, "boundary", 0.1)
        with pytest.raises(ValueError):
            weighted_norm(k, "bulk", -0.1)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_kappa(self, geom, kappa):
        # a NaN kappa used to give a NaN norm, and an infinite one inf, or
        # NaN on a key at distance 0
        labels = (FieldLabel(1, (0, 0), (3, 2)),
                  FieldLabel(-1, (0, 0), (3, 2)))
        k = Kernel(geom, 2, 0, 0, {(labels, ()): 1.0})
        for flavor in NORM_FLAVORS:
            with pytest.raises(ValueError, match="kappa"):
                weighted_norm(k, flavor, kappa)

    @pytest.mark.parametrize("flavor", NORM_FLAVORS)
    def test_matches_per_key_reference(self, geom, flavor):
        # bit for bit: one distance per key from the per-call engine, the
        # weights summed in the same order
        rng = np.random.default_rng(28)
        kernels = []
        for _ in range(2):
            base = int(rng.integers(1, geom.L + 1))
            fams = [(renormalize_source, rand_source, [(2, 0), (2, 1)])]
            if not flavor.startswith("source"):
                fams += [(renormalize_bulk, rand_kernel,
                          [(2, 0), (2, 1), (2, 2)]),
                         (renormalize_edge, rand_kernel, [(2, 0), (2, 1)])]
            if flavor == "bulk":
                # four fields: the per-call delta_E is too slow here
                fams += [(renormalize_bulk, rand_kernel, [(4, 0), (4, 1)])]
            for renormalize, make, sectors in fams:
                fam = {sec: make(rng, geom, *sec, base=base)
                       for sec in sectors}
                kernels += [*fam.values(), *renormalize(fam).values()]
        for k in kernels:
            for kappa in (0.0, 0.1, 0.35):
                assert (weighted_norm(k, flavor, kappa)
                        == _per_key_norm(k, flavor, kappa))

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, c):
        geom = CylinderGeometry(12, 5)
        rng = np.random.default_rng(22)
        k = rand_kernel(rng, geom, 2, 1)
        assert weighted_norm(k.scaled(c), "bulk", 0.1) == pytest.approx(
            c * weighted_norm(k, "bulk", 0.1))

    def test_monotone_in_kappa(self, geom):
        rng = np.random.default_rng(23)
        k = rand_kernel(rng, geom, 4, 0)
        assert (weighted_norm(k, "bulk", 0.2)
                >= weighted_norm(k, "bulk", 0.1))


class TestNormBattery:
    """The remainder operators are bounded by the input norms with explicit
    constants: one inverse power of the weight gap per derivative absorbed
    along the interpolation paths (and a factor 3 for the three telescoped
    slots of the quartic)."""

    KAPPA, EPS = 0.1, 0.05

    def test_quadratic_remainder(self, geom):
        rng = np.random.default_rng(24)
        kap, eps = self.KAPPA, self.EPS
        for _ in range(50):
            base = int(rng.integers(1, geom.L + 1))
            fam = {sec: rand_kernel(rng, geom, *sec, nkeys=3, base=base,
                                    width=4)
                   for sec in [(2, 0), (2, 1), (2, 2)]}
            lhs = weighted_norm(renormalize_bulk(fam)[(2, 2)], "bulk", kap)
            rhs = (weighted_norm(fam[(2, 2)], "bulk", kap)
                   + weighted_norm(fam[(2, 1)], "bulk", kap + eps) / eps
                   + weighted_norm(fam[(2, 0)], "bulk", kap + 2 * eps)
                   / eps ** 2)
            assert lhs <= rhs * (1 + 1e-9)

    def test_quartic_remainder(self, geom):
        rng = np.random.default_rng(25)
        kap, eps = self.KAPPA, self.EPS
        for _ in range(50):
            base = int(rng.integers(1, geom.L + 1))
            fam = {sec: rand_kernel(rng, geom, *sec, nkeys=3, base=base,
                                    width=4)
                   for sec in [(4, 0), (4, 1)]}
            lhs = weighted_norm(renormalize_bulk(fam)[(4, 1)], "bulk", kap)
            rhs = (weighted_norm(fam[(4, 1)], "bulk", kap)
                   + 3 * weighted_norm(fam[(4, 0)], "bulk", kap + eps) / eps)
            assert lhs <= rhs * (1 + 1e-9)

    def test_edge_remainder(self, geom):
        rng = np.random.default_rng(26)
        kap, eps = self.KAPPA, self.EPS
        for _ in range(50):
            base = int(rng.integers(1, geom.L + 1))
            fam = {sec: rand_kernel(rng, geom, *sec, nkeys=3, base=base,
                                    width=4)
                   for sec in [(2, 0), (2, 1)]}
            lhs = weighted_norm(renormalize_edge(fam)[(2, 1)], "edge", kap)
            rhs = (weighted_norm(fam[(2, 1)], "edge", kap)
                   + 2 * weighted_norm(fam[(2, 0)], "edge", kap + eps) / eps)
            assert lhs <= rhs * (1 + 1e-9)

    def test_source_remainder(self, geom):
        rng = np.random.default_rng(27)
        kap, eps = self.KAPPA, self.EPS
        for _ in range(50):
            base = int(rng.integers(1, geom.L + 1))
            fam = {sec: rand_source(rng, geom, *sec, nkeys=3, base=base,
                                    width=4)
                   for sec in [(2, 0), (2, 1)]}
            lhs = weighted_norm(renormalize_source(fam)[(2, 1)],
                                "source-bulk", kap)
            rhs = (weighted_norm(fam[(2, 1)], "source-bulk", kap)
                   + 2 * weighted_norm(fam[(2, 0)], "source-bulk",
                                       kap + eps) / eps)
            assert lhs <= rhs * (1 + 1e-9)


def _rand_labels(rng, geom, k):
    return tuple(
        FieldLabel(int(rng.choice([1, -1])), (0, 0),
                   (int(rng.integers(1, geom.L + 1)),
                    int(rng.integers(1, geom.M + 1))))
        for _ in range(k))


def _multilinear_log_cumulant(monomials, table):
    """Independent oracle for the joint cumulant: the coefficient of
    t_1...t_s in log E[prod_i (1 + t_i Q_i)], computed with multilinear
    polynomial arithmetic over subsets and the log power series."""
    s = len(monomials)
    x = {}
    for r in range(1, s + 1):
        for sub in itertools.combinations(range(s), r):
            joined = tuple(itertools.chain.from_iterable(
                monomials[i] for i in sub))
            x[frozenset(sub)] = monomial_moment(joined, table)

    def mul(a, b):
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                if ka & kb:
                    continue
                key = ka | kb
                out[key] = out.get(key, 0.0) + va * vb
        return out

    acc = dict(x)
    power = dict(x)
    for k in range(2, s + 1):
        power = mul(power, x)
        for key, v in power.items():
            acc[key] = acc.get(key, 0.0) + (-1.0) ** (k + 1) / k * v
    return acc.get(frozenset(range(s)), 0.0)


class TestTruncatedExpectation:
    def test_pair_is_covariance(self, geom, table):
        rng = np.random.default_rng(28)
        l1, l2 = _rand_labels(rng, geom, 2)
        val = truncated_expectation([(l1, l2)], table)
        assert val == pytest.approx(oracle.label_covariance(l1, l2, table),
                                    abs=1e-14)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_covariance_vs_oracle(self, geom, table, lazy):
        # derivative labels whose expansions reach the closure rows 0 and
        # M+1 (boundary-null terms drop) and wrap the seam
        if lazy:
            table = LazyCriticalTable(geom, ModelParams.critical(0.5))
        M, L = geom.M, geom.L
        labels = (FieldLabel(-1, (0, 1), (3, 0)),
                  FieldLabel(1, (0, 2), (2, 0)),
                  FieldLabel(1, (1, 0), (L, M + 1)),
                  FieldLabel(-1, (0, 1), (L, M)),
                  FieldLabel(-1, (1, 1), (5, M + 1)),
                  FieldLabel(1, (2, 0), (L - 1, 2)),
                  FieldLabel(1, (0, 0), (1, 1)))
        got = _monomial_covariance(labels, table)
        ref = oracle.monomial_covariance(labels, table)
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_one_covariance_per_call(self, geom, table, monkeypatch):
        calls = []
        cov = PropagatorTable.covariance

        def counting(self, rows):
            calls.append(len(rows))
            return cov(self, rows)
        monkeypatch.setattr(PropagatorTable, "covariance", counting)
        rng = np.random.default_rng(37)
        monos = [_rand_labels(rng, geom, 2) for _ in range(3)]
        truncated_expectation(monos, table)
        assert calls == [6]

    def test_empty_conventions(self, geom, table):
        rng = np.random.default_rng(29)
        pair = _rand_labels(rng, geom, 2)
        assert truncated_expectation([()], table) == pytest.approx(1.0)
        assert truncated_expectation([pair, ()], table) == 0.0
        with pytest.raises(ValueError):
            truncated_expectation([], table)
        with pytest.raises(ValueError):
            truncated_expectation([pair[:1]], table)

    def test_two_monomial_oracle(self, geom, table):
        rng = np.random.default_rng(30)
        for _ in range(10):
            A = _rand_labels(rng, geom, 2)
            B = _rand_labels(rng, geom, int(rng.choice([2, 4])))
            oracle = (monomial_moment(A + B, table)
                      - monomial_moment(A, table) * monomial_moment(B, table))
            got = truncated_expectation([A, B], table)
            assert abs(got - oracle) < 1e-9

    def test_three_monomial_oracle(self, geom, table):
        rng = np.random.default_rng(31)
        for _ in range(5):
            monos = [_rand_labels(rng, geom, 2) for _ in range(3)]
            oracle = _multilinear_log_cumulant(monos, table)
            got = truncated_expectation(monos, table)
            assert abs(got - oracle) < 1e-9


class TestRGStep:
    def test_quadratic_passthrough(self, geom, table):
        # at s_max=1 a quadratic potential reproduces itself (the fully
        # contracted constant is dropped, odd splits vanish)
        rng = np.random.default_rng(32)
        fam = {(2, 1): rand_kernel(rng, geom, 2, 1, nkeys=3)}
        out = rg_step(fam, table, s_max=1)
        assert set(out) == {(2, 1, 0)}
        assert polynomial_distance(out[(2, 1, 0)], fam[(2, 1)]) < 1e-12

    def test_quartic_wick_contraction(self, geom, table):
        # contracting one pair of a quartic monomial produces the six
        # signed covariance terms of the Wick rule
        rng = np.random.default_rng(33)
        ls = _rand_labels(rng, geom, 4)
        v = Kernel(geom, 4, 0, 0, {(ls, ()): 1.0})
        out = rg_step({v.sector: v}, table, s_max=1)
        g = {(i, j): oracle.label_covariance(ls[i], ls[j], table)
             for i in range(4) for j in range(i + 1, 4)}
        expected = {}
        for (i, j), sign in [((0, 1), 1), ((0, 2), -1), ((0, 3), 1),
                             ((1, 2), 1), ((1, 3), -1), ((2, 3), 1)]:
            k, l = [m for m in range(4) if m not in (i, j)]
            key = ((ls[k], ls[l]), ())
            expected[key] = expected.get(key, 0.0) + sign * g[(i, j)]
        exp_kernel = Kernel(geom, 2, 0, 0, expected)
        assert polynomial_distance(out[(2, 0, 0)], exp_kernel) < 1e-12
        assert polynomial_distance(out[(4, 0, 0)], v) < 1e-12

    def test_translation_equivariance(self, geom, table):
        rng = np.random.default_rng(34)
        fam = {(2, 0): rand_kernel(rng, geom, 2, 0, nkeys=2),
               (4, 0): rand_kernel(rng, geom, 4, 0, nkeys=2)}
        a = 3
        moved = {sec: horizontal_translate(k, a) for sec, k in fam.items()}
        lhs = rg_step(moved, table, s_max=2)
        rhs = {sec: horizontal_translate(k, a)
               for sec, k in rg_step(fam, table, s_max=2).items()}
        assert polynomial_distance(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("axis", [1, 2])
    def test_reflection_equivariance(self, geom, table, axis):
        rng = np.random.default_rng(35)
        fam = {(2, 0): rand_kernel(rng, geom, 2, 0, nkeys=2),
               (4, 0): rand_kernel(rng, geom, 4, 0, nkeys=2)}
        moved = {sec: reflect_kernel(k, axis) for sec, k in fam.items()}
        lhs = rg_step(moved, table, s_max=2)
        rhs = {sec: reflect_kernel(k, axis)
               for sec, k in rg_step(fam, table, s_max=2).items()}
        assert polynomial_distance(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("s_max", [1, 2])
    @pytest.mark.parametrize("seed", [44, 45, 46])
    def test_matches_per_term_oracle(self, geom, table, s_max, seed):
        # at s_max 2 every entry is also paired with itself: the repeated
        # labels read the diagonal of the products matrix
        rng = np.random.default_rng(seed)
        fam = {(2, 1): rand_kernel(rng, geom, 2, 1, nkeys=2),
               (4, 0): rand_kernel(rng, geom, 4, 0, nkeys=2),
               (2, 0, 1): rand_source(rng, geom, 2, 0, nkeys=2)}
        got = rg_step(fam, table, s_max=s_max)
        ref = kernel_oracle.rg_step(fam, table, s_max=s_max)
        assert set(got) == set(ref)
        assert polynomial_distance(got, ref) <= 1e-14

    def test_one_products_matrix_per_call(self, geom, table, monkeypatch):
        calls = []
        products = PropagatorTable.products

        def counting(self, rows):
            calls.append(len(rows))
            return products(self, rows)
        monkeypatch.setattr(PropagatorTable, "products", counting)
        monkeypatch.setattr(PropagatorTable, "covariance", None)
        rng = np.random.default_rng(47)
        v = rand_kernel(rng, geom, 4, 0, nkeys=2)
        rg_step({v.sector: v}, table, s_max=2)
        assert calls == [len({l for labels, _ in v.coeffs for l in labels})]

    def test_free_theory_is_empty(self, table):
        # with no interaction there is nothing to contract
        assert rg_step({}, table, s_max=2) == {}

    def test_term_budget(self, geom, table):
        rng = np.random.default_rng(36)
        v = rand_kernel(rng, geom, 4, 0, nkeys=4)
        with pytest.raises(RuntimeError):
            rg_step({v.sector: v}, table, s_max=2, term_budget=10)


class TestCouplings:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            VertexRenorm(float("inf"), 1.0)


class TestVertexRenorm:
    @pytest.mark.parametrize("t1", [0.3, 0.5])
    def test_free_theory_constants(self, t1):
        params = ModelParams.critical(t1)
        vz = extract_vertex_renorm(free_source_kernels(params))
        assert vz.Z1 == pytest.approx(2.0 * params.t2, abs=1e-12)
        assert vz.Z2 == pytest.approx(1.0 - params.t2 ** 2, abs=1e-12)

    def test_linearity(self):
        params = ModelParams.critical(0.4)
        k = free_source_kernels(params)
        vz = extract_vertex_renorm(k)
        vz2 = extract_vertex_renorm(k.scaled(3.0))
        assert vz2.Z1 == pytest.approx(3.0 * vz.Z1)
        assert vz2.Z2 == pytest.approx(3.0 * vz.Z2)

    def test_wrong_sector_raises(self, geom):
        rng = np.random.default_rng(38)
        with pytest.raises(ValueError):
            extract_vertex_renorm(rand_kernel(rng, geom, 2, 1))
