from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import numpy as np
import pytest

from gaussian_oracle import set_partitions
from isingcyl.skewlinalg import (
    joint_cumulant, loop_cumulant, pfaffian, pfaffian_bruteforce,
    moments_to_cumulants, skew_moment,
)


def random_skew(rng, n, complex_entries=False):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return np.triu(a, 1) - np.triu(a, 1).T


def cumulants_to_moments(cumulants):
    """Inverse of ``moments_to_cumulants``: every moment is the sum over
    the set partitions of its index set of the cumulant products."""
    out = {}
    for s in sorted(cumulants, key=lambda s: (len(s), sorted(s))):
        total = 0.0
        for part in set_partitions(sorted(s)):
            prod = 1.0
            for block in part:
                prod *= cumulants[frozenset(block)]
            total += prod
        out[s] = total
    return out


def partition_route_cumulants(moments):
    """``kappa(S)`` of every key by the Moebius sum over all set partitions
    of S, exact on the binary values of the moments and rounded once at
    the end: every real and imaginary part is an integer over one power of
    two ``den``, so the sum runs over Gaussian integers."""
    den = max(Fraction(x).denominator for v in moments.values()
              for x in (v.real, v.imag))
    num = {s: (int(v.real * den), int(v.imag * den))
           for s, v in moments.items()}
    out = {}
    for s in moments:
        re = im = 0
        for part in set_partitions(sorted(s)):
            a = ((-1) ** (len(part) - 1) * factorial(len(part) - 1)
                 * den ** (len(s) - len(part)))
            b = 0
            for block in part:
                c, d = num[frozenset(block)]
                a, b = a * c - b * d, a * d + b * c
            re += a
            im += b
        out[s] = complex(Fraction(re, den ** len(s)),
                         Fraction(im, den ** len(s)))
    return out


def random_moments(rng, n, complex_entries=False):
    mom = {}
    for r in range(1, n + 1):
        for sub in combinations(range(n), r):
            v = rng.standard_normal()
            if complex_entries:
                v = v + 1j * rng.standard_normal()
            mom[frozenset(sub)] = v
    return mom


class TestPfaffian:
    def test_dimension_zero(self):
        assert pfaffian(np.zeros((0, 0))) == 1

    def test_two_by_two(self):
        a = 2.5 - 0.5j
        assert pfaffian(np.array([[0, a], [-a, 0]])) == pytest.approx(a)

    def test_four_by_four_closed_form(self):
        a12, a13, a14, a23, a24, a34 = 1.3, -0.2, 0.7, 2.1, -1.1, 0.4
        m = np.array([[0, a12, a13, a14], [-a12, 0, a23, a24],
                      [-a13, -a23, 0, a34], [-a14, -a24, -a34, 0]])
        expect = a12 * a34 - a13 * a24 + a14 * a23
        assert pfaffian(m) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("n", [4, 10, 20, 40])
    def test_squares_to_determinant(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            m = random_skew(rng, n)
            pf = pfaffian(m)
            det = np.linalg.det(m)
            assert abs(pf ** 2 - det) <= 1e-10 * abs(det)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6, 8, 10, 12):
            for _ in range(5):
                m = random_skew(rng, n, complex_entries=True)
                pf = pfaffian(m)
                bf = pfaffian_bruteforce(m)
                assert abs(pf - bf) <= 1e-12 * max(1.0, abs(bf))

    def test_sign_under_transposition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = 2 * rng.integers(2, 6)
            m = random_skew(rng, n)
            i, j = rng.choice(n, size=2, replace=False)
            swapped = m.copy()
            swapped[[i, j], :] = swapped[[j, i], :]
            swapped[:, [i, j]] = swapped[:, [j, i]]
            assert pfaffian(swapped) == pytest.approx(-pfaffian(m), rel=1e-10)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_closed_forms_match_bruteforce(self, n, complex_entries):
        rng = np.random.default_rng(100 + n + complex_entries)
        for _ in range(200):
            m = random_skew(rng, n, complex_entries)
            bf = pfaffian_bruteforce(m)
            assert abs(pfaffian(m) - bf) <= 4e-16 * max(1.0, abs(bf)) * n
        # the closed forms read the upper triangle only, and return a
        # complex number for real input
        m = np.triu(random_skew(rng, n), 1)
        assert np.iscomplexobj(pfaffian(m))
        assert pfaffian(m) == pytest.approx(
            pfaffian_bruteforce(m - m.T), rel=1e-14)

    @pytest.mark.parametrize("n", [6, 8])
    def test_elimination_reads_upper_triangle(self, n):
        # a general matrix stands for the skew matrix of its upper triangle
        rng = np.random.default_rng(110 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        skew = np.triu(a, 1) - np.triu(a, 1).T
        assert pfaffian(a) == pfaffian(skew)
        assert pfaffian(a) == pytest.approx(pfaffian_bruteforce(skew),
                                            rel=1e-12)

    def test_singular_matrix(self):
        # rank-deficient skew matrix has Pfaffian 0
        a = np.zeros((4, 4))
        a[0, 1], a[1, 0] = 1.0, -1.0
        assert pfaffian(a) == 0

    def test_odd_dimension_convention(self):
        assert pfaffian(np.zeros((3, 3))) == 0


class TestBruteforce:
    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            pfaffian_bruteforce(np.zeros((14, 14)))

    def test_dimension_zero(self):
        assert pfaffian_bruteforce(np.zeros((0, 0))) == 1

    def test_two_by_two(self):
        assert pfaffian_bruteforce(np.array([[0, 3.0], [-3.0, 0]])) == 3.0

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_integer_matrices_exactly(self, n):
        # every term and partial sum is an integer below 2^53, so the
        # expansion must equal the exact Python-int sum over all (n-1)!!
        # matchings, each signed by the parity of (i1 j1 i2 j2 ...)
        terms = []
        for pairs in perfect_matchings(list(range(n))):
            order = [i for pair in pairs for i in pair]
            inversions = sum(a > b for a, b in combinations(order, 2))
            terms.append((pairs, (-1) ** inversions))
        assert len(terms) == factorial(n) // (
            2 ** (n // 2) * factorial(n // 2))
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            upper = np.triu(rng.integers(-4, 5, size=(n, n)), 1)
            a = (upper - upper.T).tolist()
            exact = sum(sign * prod(a[i][j] for i, j in pairs)
                        for pairs, sign in terms)
            bf = pfaffian_bruteforce(np.array(a, dtype=float))
            assert bf.real == exact and bf.imag == 0

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (4,), ()])
    def test_non_square_matrices_rejected(self, shape):
        # a (2, 3) input used to return 1 and a (2, 2, 2) one an array
        for f in (pfaffian, pfaffian_bruteforce):
            with pytest.raises(ValueError, match="square matrix"):
                f(np.ones(shape))


def perfect_matchings(items):
    """Every perfect matching of ``items`` as a list of pairs (i < j)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        for tail in perfect_matchings(rest[:k] + rest[k + 1:]):
            yield [(first, partner)] + tail


class TestMomentsCumulants:
    def test_order_one(self):
        mom = {frozenset([1]): 0.7}
        cum = moments_to_cumulants(mom)
        assert cum[frozenset([1])] == 0.7

    def test_covariance_identity(self):
        mom = {frozenset([1]): 0.5, frozenset([2]): -1.0,
               frozenset([1, 2]): 0.3}
        cum = moments_to_cumulants(mom)
        assert cum[frozenset([1, 2])] == pytest.approx(0.3 - 0.5 * (-1.0))

    def test_missing_subset_errors(self):
        with pytest.raises(KeyError):
            moments_to_cumulants({frozenset([1, 2]): 1.0, frozenset([1]): 1.0})

    def test_empty(self):
        assert moments_to_cumulants({}) == {}

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_matches_partition_route(self, n, complex_entries):
        # the subset recursion against the Moebius sum over every set
        # partition, for every subset of up to eight indices; the sum is
        # exact, as in double precision it cancels as many digits as the
        # recursion does
        rng = np.random.default_rng(200 + n + complex_entries)
        for _ in range(20):
            mom = random_moments(rng, n, complex_entries)
            cum = moments_to_cumulants(mom)
            ref = partition_route_cumulants(mom)
            assert cum.keys() == ref.keys()
            for k in ref:
                assert abs(cum[k] - ref[k]) <= 1e-13 * max(1.0, abs(ref[k]))

    @pytest.mark.parametrize("missing", [(0,), (1, 2), (0, 1, 2)])
    def test_missing_subset_of_three_errors(self, missing):
        mom = random_moments(np.random.default_rng(3), 3)
        del mom[frozenset(missing)]
        with pytest.raises(KeyError):
            moments_to_cumulants(mom)

    def test_log_generating_function_oracle_m3(self):
        # compare against numerical third derivative of log E[e^{sum a_i X_i}]
        # for a concrete three-variable Gaussian-ish toy: take X multivariate
        # normal so all moments are explicit
        rng = np.random.default_rng(11)
        c = rng.standard_normal((3, 3))
        cov = c @ c.T
        mean = rng.standard_normal(3)

        def moment(subset):
            # moments of a multivariate normal via its cumulants
            idx = sorted(subset)
            cums = {}
            for i in idx:
                cums[frozenset([i])] = mean[i]
            for i in idx:
                for j in idx:
                    if i < j:
                        cums[frozenset([i, j])] = cov[i, j]
            for r in (3,):
                if len(idx) >= r:
                    cums[frozenset(idx)] = 0.0
            return cumulants_to_moments(cums)[frozenset(idx)]

        mom = {}
        for r in range(1, 4):
            from itertools import combinations
            for sub in combinations(range(3), r):
                mom[frozenset(sub)] = moment(sub)
        cum = moments_to_cumulants(mom)
        assert cum[frozenset([0, 1, 2])] == pytest.approx(0.0, abs=1e-9)
        assert cum[frozenset([0, 1])] == pytest.approx(cov[0, 1], rel=1e-9)

    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 4, 5, 6):
            mom = {}
            from itertools import combinations
            for r in range(1, m + 1):
                for sub in combinations(range(m), r):
                    mom[frozenset(sub)] = rng.standard_normal()
            back = cumulants_to_moments(moments_to_cumulants(mom))
            for k, v in mom.items():
                assert back[k] == pytest.approx(v, rel=1e-9, abs=1e-9)


class TestLoopCumulant:
    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_matches_inverted_bruteforce_moments(self, m, complex_entries):
        # the connected loops of the bilinears psi_{2i} psi_{2i+1} against
        # the inversion of their brute-force principal-Pfaffian moments;
        # for m = 1 the one loop is the mean G[0, 1]
        rng = np.random.default_rng(m)
        G = random_skew(rng, 2 * m, complex_entries)
        mom = {}
        for r in range(1, m + 1):
            for sub in combinations(range(m), r):
                idx = [2 * i + s for i in sub for s in (0, 1)]
                mom[frozenset(sub)] = pfaffian_bruteforce(G[np.ix_(idx, idx)])
        ref = moments_to_cumulants(mom)[frozenset(range(m))]
        assert loop_cumulant(G) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_diagonal_blocks_unread(self):
        # for m >= 2 the means never enter: only cycles through all the
        # bilinears, each visiting every bilinear once
        rng = np.random.default_rng(7)
        G = random_skew(rng, 8)
        H = G.copy()
        for i in range(4):
            H[2 * i, 2 * i + 1], H[2 * i + 1, 2 * i] = 5.0, -5.0
        assert loop_cumulant(H) == loop_cumulant(G)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_reads_only_the_upper_triangle(self, m):
        # a products matrix is passed as it is: noise on the diagonal and
        # below it leaves every bit of the cumulant unchanged
        rng = np.random.default_rng(13 + m)
        G = random_skew(rng, 2 * m, complex_entries=True)
        H = G.copy()
        below = np.tril_indices(2 * m)
        H[below] = rng.standard_normal(len(below[0])) * (1 + 2j)
        assert loop_cumulant(H) == loop_cumulant(G)


class TestJointCumulant:
    def test_one_part_returns_its_moment(self):
        rng = np.random.default_rng(12)
        K = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = complex(rng.standard_normal(), rng.standard_normal())
        assert joint_cumulant(K, [[0, 1, 2, 3]], [m]) is m

    def test_skew_moment_repeats_read_the_diagonal(self):
        # a products matrix is not skew: an index taken twice pairs its
        # field with itself through the diagonal entry
        rng = np.random.default_rng(11)
        K = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        idx = [0, 2, 2, 4, 1, 3]
        sub = K[np.ix_(idx, idx)]
        ref = pfaffian_bruteforce(np.triu(sub, 1) - np.triu(sub, 1).T)
        assert skew_moment(K, idx) == pytest.approx(ref, rel=1e-12)
        assert skew_moment(K, []) == 1.0

    @pytest.mark.parametrize("sizes", [[2], [2, 4], [2, 2, 2], [2, 0, 4],
                                       [2, 2, 2, 2]])
    def test_matches_inverted_bruteforce_moments(self, sizes):
        # parts may share indices, as when rg_step pairs an entry with itself
        rng = np.random.default_rng(len(sizes) + sum(sizes))
        n = sum(sizes)
        K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ends = np.cumsum([0, *sizes])
        parts = [list(range(a, b)) for a, b in zip(ends, ends[1:])]
        parts[-1][:1] = parts[0][:1]
        mom = {}
        for r in range(1, len(parts) + 1):
            for sub in combinations(range(len(parts)), r):
                idx = [j for i in sub for j in parts[i]]
                a = K[np.ix_(idx, idx)]
                mom[frozenset(sub)] = pfaffian_bruteforce(
                    np.triu(a, 1) - np.triu(a, 1).T)
        ref = moments_to_cumulants(mom)[frozenset(range(len(parts)))]
        got = joint_cumulant(K, parts, [mom[frozenset([i])]
                                        for i in range(len(parts))])
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_partition_count_is_bell():
    counts = [sum(1 for _ in set_partitions(range(n))) for n in range(6)]
    assert counts == [1, 1, 2, 5, 15, 52]
