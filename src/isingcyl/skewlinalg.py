r"""Antisymmetric matrix algebra: Pfaffians and moment/cumulant conversion.

Gaussian Grassmann moments are Pfaffians of antisymmetric matrices of pair
contractions; truncated correlations follow from the moments of every
sub-collection by one subset recursion over bitmasks, or for bilinears as a
sum over connected loops.  A brute-force perfect-matching Pfaffian is the
oracle in tests.

Every routine here that takes a skew matrix reads only its strict upper
triangle, so a products matrix of fields is passed as it is.
"""

from __future__ import annotations

import numpy as np


def _square(A, dtype=None):
    """``A`` as an array; ValueError unless it is a square 2-D matrix."""
    a = np.asarray(A, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def pfaffian(A):
    """Pfaffian by pivoted skew-symmetric (Parlett-Reid) elimination, O(n^3).

    Only the strict upper triangle of ``A`` is read (the Pfaffian of the
    skew matrix sharing it).  Dimension 0 returns 1, odd dimension 0;
    dimensions 2 and 4 are closed forms, with no copy.
    """
    a = _square(A)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2 != 0:
        return 0.0 + 0.0j
    if n == 2:
        return a[0, 1] + 0.0j
    if n == 4:
        return (a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3]
                + a[0, 3] * a[1, 2] + 0.0j)
    u = np.triu(a, 1).astype(complex, copy=False)
    a = u - u.T
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        # bring the largest entry of column k below the diagonal to (k+1, k)
        p = k + 1 + np.argmax(np.abs(a[k + 1:, k]))
        if a[p, k] == 0:
            return 0.0 + 0.0j
        if p != k + 1:
            a[[k + 1, p], :] = a[[p, k + 1], :]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            pf = -pf
        pf *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2:] / a[k, k + 1]
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return pf


def skew_moment(K, idx):
    """Moment of the fields at indices ``idx`` of a products matrix ``K``:
    the Pfaffian of the skew part of its principal submatrix, so a
    repeated index reads the diagonal (a field times itself)."""
    return pfaffian(K.take(idx, 0).take(idx, 1))


def joint_cumulant(K, parts, moments):
    """Joint cumulant of the monomials at index ``parts`` of a products
    matrix ``K`` from the parts' ``moments``: the :func:`skew_moment` of
    every union of two or more parts, then :func:`_cumulants`.  One part
    gives its moment back unchanged."""
    m = [None] * (1 << len(parts))
    for mask in range(1, len(m)):
        sub = [i for i in range(len(parts)) if mask >> i & 1]
        m[mask] = moments[sub[0]] if len(sub) == 1 else skew_moment(
            K, [j for i in sub for j in parts[i]])
    return _cumulants(m)[-1]


def loop_cumulant(G):
    """Joint cumulant of the bilinears ``psi_{2i} psi_{2i+1}`` of the
    covariance ``G``: ``-1/2 sum tr(J B_{0a} J B_{ab} ... J B_{z0})`` over
    the (m-1)! cycles through bilinear 0, with ``B_ij`` the 2 x 2 blocks of
    G and ``J = [[0, 1], [-1, 0]]`` (for m = 1 the mean G[0, 1]).  Only
    the strict upper triangle of ``G`` is read.  Held-Karp over
    ``paths[mask, j]``, the sum along the paths from 0 through ``mask`` to
    j: O(2^m m^2) 2 x 2 products, no moment subtracted."""
    m = len(G) // 2
    U = np.triu(G, 1)
    B = (U - U.T).reshape(m, 2, m, 2).swapaxes(1, 2)
    JB = B[:, :, ::-1] * np.array([[1.0], [-1.0]])  # rows B_1., -B_0.
    paths = np.zeros((1 << m, m, 2, 2), dtype=JB.dtype)
    paths[1, 0] = np.eye(2)
    for mask in range(1, 1 << m, 2):
        step = np.einsum("aij,abjk->bik", paths[mask], JB)
        for b in range(1, m):
            if not mask >> b & 1:
                paths[mask | 1 << b, b] += step[b]
    return -0.5 * np.einsum("aij,aji->", paths[-1], JB[:, 0])


def pfaffian_bruteforce(A):
    """Exact perfect-matching expansion of the Pfaffian; oracle, dim <= 12.

    Pairs the first remaining index with each later one in turn and
    recurses on the rest.  The value of each remaining index tuple is
    memoized within the call: 233 tuples at n = 12, where the plain
    recursion walks all (n-1)!! = 10395 matchings.  The same additions run
    in the same order, so the result is the plain recursion's, bit for
    bit.
    """
    a = _square(A, complex)
    n = a.shape[0]
    if n > 12:
        raise ValueError(f"brute-force Pfaffian capped at dimension 12, got {n}")
    if n % 2 != 0:
        return 0.0 + 0.0j
    memo = {(): 1.0 + 0.0j}

    def rec(idx):
        if idx in memo:
            return memo[idx]
        i0 = idx[0]
        total = 0.0 + 0.0j
        for pos in range(1, len(idx)):
            j = idx[pos]
            sign = -1.0 if pos % 2 == 0 else 1.0
            rest = idx[1:pos] + idx[pos + 1:]
            total += sign * a[i0, j] * rec(rest)
        memo[idx] = total
        return total

    return rec(tuple(range(n)))


def _cumulants(m):
    """Joint cumulants from moments indexed by bitmask: ``m[mask]`` is the
    moment of the indices whose bits ``mask`` sets (``m[0]`` is unread);
    returns ``kappa`` by the same masks.  The recursion
    ``kappa(S) = m(S) - sum_B kappa(B) m(S \\ B)`` over the proper subsets
    B of S holding S's lowest index (Leonov-Shiryaev 1959), O(3^k)."""
    kappa = [None] * len(m)
    for mask in range(1, len(m)):
        low = mask & -mask
        rest = mask ^ low
        k = m[mask]
        sub = (rest - 1) & rest
        while sub != rest:
            k -= kappa[low | sub] * m[rest ^ sub]
            sub = (sub - 1) & rest
        kappa[mask] = k
    return kappa


def moments_to_cumulants(moments):
    """Inversion of the moment-cumulant relation.

    ``moments`` maps every nonempty subset (frozenset) of some index set to
    a number; returns the map ``S -> joint cumulant of S`` for every
    nonempty key, by :func:`_cumulants`.  A missing subset raises
    ``KeyError`` naming it.
    """
    universe = sorted(frozenset().union(*moments))
    sets = [frozenset(x for i, x in enumerate(universe) if mask >> i & 1)
            for mask in range(1 << len(universe))]
    kappa = _cumulants([None] + [moments[s] for s in sets[1:]])
    return dict(zip(sets[1:], kappa[1:]))
