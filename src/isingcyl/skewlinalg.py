r"""Antisymmetric matrix algebra: Pfaffians and moment/cumulant conversion.

Gaussian Grassmann moments are Pfaffians of antisymmetric matrices of pair
contractions; truncated (connected) correlations follow from moments by
set-partition Moebius inversion.  Both ingredients live here, together with
a brute-force perfect-matching Pfaffian used as the oracle in tests.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

import numpy as np


class SkewMatrix:
    """A dense antisymmetric matrix of even dimension.

    The lower triangle is rebuilt from the upper one so that
    ``A[i, j] == -A[j, i]`` and ``A[i, i] == 0`` hold exactly.
    """

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n % 2 != 0:
            raise ValueError(f"dimension must be even, got {n}")
        finite = bool(np.all(np.isfinite(a.view(float))))
        if finite and not np.allclose(
                a, -a.T, atol=1e-13 * max(1.0, np.abs(a).max(initial=0.0))):
            raise ValueError("matrix is not antisymmetric")
        upper = np.triu(a, k=1)
        self._a = upper - upper.T
        self._a.setflags(write=False)

    @classmethod
    def from_upper(cls, n, upper_entries):
        """Build from a flat iterable of the n(n-1)/2 upper entries."""
        a = np.zeros((n, n), dtype=complex)
        it = iter(upper_entries)
        for i in range(n):
            for j in range(i + 1, n):
                a[i, j] = next(it)
        return cls(a - a.T)

    @property
    def array(self):
        return self._a

    @property
    def dimension(self):
        return self._a.shape[0]

    def __getitem__(self, idx):
        return self._a[idx]


def _as_array(A):
    return A.array if isinstance(A, SkewMatrix) else np.asarray(A, dtype=complex)


def pfaffian(A):
    """Pfaffian by pivoted skew-symmetric (Parlett-Reid) elimination, O(n^3).

    Dimension 0 returns 1; odd dimension returns 0.
    """
    a = _as_array(A).astype(complex, copy=True)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n % 2 != 0:
        return 0.0 + 0.0j
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


def pfaffian_bruteforce(A):
    """Exact perfect-matching expansion of the Pfaffian; oracle, dim <= 12."""
    a = _as_array(A)
    n = a.shape[0]
    if n > 12:
        raise ValueError(f"brute-force Pfaffian capped at dimension 12, got {n}")
    if n % 2 != 0:
        return 0.0 + 0.0j

    def rec(idx):
        if not idx:
            return 1.0 + 0.0j
        i0 = idx[0]
        total = 0.0 + 0.0j
        for pos in range(1, len(idx)):
            j = idx[pos]
            sign = -1.0 if pos % 2 == 0 else 1.0
            rest = idx[1:pos] + idx[pos + 1:]
            total += sign * a[i0, j] * rec(rest)
        return total

    return rec(tuple(range(n)))


def set_partitions(items):
    """All partitions of a sequence, as tuples of tuples."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        # first joins an existing block
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1:]
        # or opens a new one
        yield ((first,),) + part


def moments_to_cumulants(moments):
    """Moebius inversion of the moment-cumulant relation.

    ``moments`` maps every nonempty subset (frozenset) of some index set to
    a number; returns the map ``S -> joint cumulant of S``:
    ``kappa(S) = sum over partitions pi of S of
    (-1)^(|pi|-1) (|pi|-1)! prod_B moment(B)``.
    """
    index_sets = sorted(moments, key=lambda s: (len(s), sorted(s)))
    if not index_sets:
        return {}
    universe = frozenset().union(*index_sets)
    for r in range(1, len(universe) + 1):
        for sub in combinations(sorted(universe), r):
            if frozenset(sub) not in moments:
                raise KeyError(f"moment of subset {sub} missing")
    out = {}
    for s in index_sets:
        total = 0.0
        for part in set_partitions(sorted(s)):
            prod = 1.0
            for block in part:
                prod *= moments[frozenset(block)]
            total += (-1) ** (len(part) - 1) * factorial(len(part) - 1) * prod
        out[s] = total
    return out


def cumulants_to_moments(cumulants):
    """Inverse of :func:`moments_to_cumulants` (used for round-trip tests)."""
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
