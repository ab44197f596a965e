"""The per-call vectorized Dreyfus-Wagner engine: one dynamic program per
tuple over the dense closure metric, kept as the oracle of the batched
engine in :mod:`isingcyl.lattice`.

Each call builds its own metric (the required edges at weight zero,
Floyd-Warshall through their endpoints) and runs every mask of the
terminals, plus one extra pass with two column groups for the winding
option of ``delta_E``.
"""

from math import floor

import numpy as np


def closure_metric(L, M):
    """All-pairs distances ``|dx1|_L + |dx2|`` of the closure graph.
    Vertex id = x1-1 + L*x2."""
    v = np.arange(L * (M + 2), dtype=np.int32)
    col, row = v % L, v // L
    dc = np.abs(col[:, None] - col[None, :])
    return np.minimum(dc, L - dc) + np.abs(row[:, None] - row[None, :])


def _vid(z, L):
    return (z[0] - 1) % L + L * z[1]


def terminals_and_metric(zs, xs, geom):
    """Sorted terminal ids and the closure metric with the required edges
    ``xs`` at weight zero."""
    L = geom.L
    terms = {_vid(z, L) for z in zs}
    D = closure_metric(L, geom.M)
    ends = set()
    for x in xs:
        a, b = (_vid(z, L) for z in x.endpoints(geom))
        D[a, b] = D[b, a] = 0
        ends.update((a, b))
    for k in sorted(ends):
        np.minimum(D, D[:, k, None] + D[k], out=D)
    return sorted(terms | ends), D


def _relax(merge, D):
    """One min-plus step ``min_w merge[..., w] + D[w, :]``."""
    if merge.ndim == 1:
        return (merge[:, None] + D).min(axis=0)
    return np.stack([(m[:, None] + D).min(axis=0) for m in merge])


def dreyfus_wagner(D, rows, dp=None):
    """``dp[mask][..., v]``: the minimal weight of a connected subgraph
    spanning the terminals (or terminal groups, rows with a leading axis)
    in ``mask`` and vertex ``v``; a ``dp`` of a prefix of ``rows`` is
    extended."""
    dp = list(dp or [None])
    for mask in range(len(dp), 1 << len(rows)):
        low = mask & -mask
        rest = mask ^ low
        if not rest:
            dp.append(rows[low.bit_length() - 1])
            continue
        merge = dp[low] + dp[rest]
        sub = (rest - 1) & rest
        while sub:
            np.minimum(merge, dp[low | sub] + dp[rest ^ sub], out=merge)
            sub = (sub - 1) & rest
        dp.append(_relax(merge, D))
    return dp


def tree_distance(zs, xs, geom):
    terms, D = terminals_and_metric(zs, xs, geom)
    if len(terms) <= 1:
        return len(xs)
    return int(dreyfus_wagner(D, list(D[terms]))[-1].min()) + len(xs)


def edge_tree_distance(zs, xs, geom):
    terms, D = terminals_and_metric(zs, xs, geom)
    if not terms:
        return len(xs)
    L, M = geom.L, geom.M
    boundary = np.r_[0:L, L * (M + 1):L * (M + 2)]
    sep = floor(L / 3) + 1
    rows = list(D[terms])
    dp = dreyfus_wagner(D, rows)
    best = dp[-1][boundary].min()
    if best > sep:
        col = D.reshape(M + 2, L, -1).min(axis=0)
        dp = dreyfus_wagner(D, rows + [col, np.roll(col, -sep, axis=0)], dp)
        best = min(best, dp[-1].min())
    return int(best) + len(xs)
