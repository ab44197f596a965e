r"""Cylinder geometry and combinatorial distances.

The lattice is ``Lambda = Z_L x {1..M}``: periodic in the horizontal
direction (``L`` even), open in the vertical one.  Its *closure* adds the
ghost rows 0 and M+1 on which the boundary conditions of the fermionic
representation live.  This module collects everything purely geometric:

* horizontal periodization ``per_L``, the antiperiodic wrap rule
  ``antiperiodic_wrap`` and cylinder distances,
* the sign factor ``alpha`` entering the bulk/edge bookkeeping of
  translation-covariant kernels, the projection of sites onto the nearest
  closure row and the canonical interpolation paths between sites (both
  on integer arrays of sites),
* the tree distance ``delta`` (size of the smallest connected edge set
  touching a tuple of sites and containing a tuple of edges) and its
  boundary-aware variant ``delta_E``, which weight all kernel norms.

Sites are plain ``(x1, x2)`` tuples with ``x1`` in ``1..L`` and ``x2`` in
``0..M+1``.  Edges are :class:`Edge` instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import floor

import numpy as np


def _require_integers(values, what):
    """Accept Python and numpy integers; reject bools, floats and the rest.
    Returns ``values``."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return values


@dataclass(frozen=True)
class CylinderGeometry:
    """The cylinder ``Z_L x [1, M]`` (L even, M >= 1)."""

    L: int
    M: int

    def __post_init__(self):
        _require_integers((self.L, self.M), "sizes")
        if self.L < 2 or self.L % 2 != 0:
            raise ValueError(f"L must be a positive even integer, got {self.L}")
        if self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M}")

    def wrap_x1(self, x1):
        """Reduce a horizontal coordinate into 1..L."""
        return (x1 - 1) % self.L + 1

    def sites(self):
        return [(x1, x2) for x2 in range(1, self.M + 1)
                for x1 in range(1, self.L + 1)]

    def edges(self):
        """Observable edges of Lambda: L*M horizontal + L*(M-1) vertical."""
        out = [Edge((x1, x2), "h") for x2 in range(1, self.M + 1)
               for x1 in range(1, self.L + 1)]
        out += [Edge((x1, x2), "v") for x2 in range(1, self.M)
                for x1 in range(1, self.L + 1)]
        return out

    def site_index(self, z):
        """Row-major index of a lattice site, rows 1..M."""
        x1, x2 = z
        return (x2 - 1) * self.L + (x1 - 1)


@dataclass(frozen=True)
class Edge:
    """A nearest-neighbor edge, identified by its left/bottom vertex."""

    base: tuple
    direction: str  # "h" or "v"

    def __post_init__(self):
        if self.direction not in ("h", "v"):
            raise ValueError(f"direction must be 'h' or 'v', got {self.direction!r}")

    def validate(self, geom: CylinderGeometry):
        _require_integers(self.base, "edge coordinates")
        x1, x2 = self.base
        if not 1 <= x1 <= geom.L:
            raise ValueError(f"edge base column {x1} outside 1..{geom.L}")
        if self.direction == "h" and not 1 <= x2 <= geom.M:
            raise ValueError(f"horizontal edge row {x2} outside 1..{geom.M}")
        if self.direction == "v" and not 1 <= x2 <= geom.M - 1:
            raise ValueError(f"vertical edge row {x2} outside 1..{geom.M - 1}")

    def endpoints(self, geom: CylinderGeometry):
        x1, x2 = self.base
        if self.direction == "h":
            return (x1, x2), (geom.wrap_x1(x1 + 1), x2)
        return (x1, x2), (x1, x2 + 1)


def antiperiodic_wrap(d, L):
    """Residue ``d mod L`` and the sign ``(-1)^q`` of the ``q = floor(d/L)``
    periods wrapped; works elementwise on integer arrays."""
    q, r = divmod(d, L)
    return r, 1.0 - 2.0 * (q % 2)


def per_L(y, L):
    """Horizontal periodization of ``y`` into the window ``(-L/2, L/2]``.

    Matches ``y - L*floor(y/L + 1/2)`` except at the half-integer boundary,
    where the representative ``+L/2`` is kept.  Works elementwise on
    integer arrays.
    """
    if L < 2 or L % 2 != 0:
        raise ValueError(f"L must be even and >= 2, got {L}")
    r = y % L
    return r - L * (r > L // 2)


def alpha_sign(zs, geom):
    """Parity of the seam-crossing count ``alpha`` of a tuple of sites.

    For a tuple whose raw horizontal coordinates spread over at least
    ``2L/3`` (i.e. it wraps through the seam between columns L and 1), this
    is the parity of the number of sites with ``x1 <= L/3``; otherwise 0.
    An integer array of shape (K, n, 2) holds K tuples and gives K parities.
    """
    zs = np.asarray(zs, dtype=np.int64)
    if zs.size == 0:
        return np.zeros(zs.shape[:-2], dtype=np.int64)[()]
    L = geom.L if isinstance(geom, CylinderGeometry) else int(geom)
    xs = zs[..., 0]
    wraps = xs.max(axis=-1) - xs.min(axis=-1) >= 2 * L / 3
    return np.where(wraps, np.sum(xs <= L / 3, axis=-1) % 2, 0)[()]


def z_boundary(z, geom):
    """Vertical projections of sites (integer arrays (..., 2)) onto the
    nearest closure row."""
    out = np.array(z)
    out[..., 1] = np.where(out[..., 1] <= geom.M // 2, 0, geom.M + 1)
    return out


def gamma_steps(z, zp, geom):
    """Telescoping steps of the canonical paths from the sites ``z`` to the
    sites ``zp`` (integer arrays (N, 2)): ``(row, sigma, site, unit)``, one
    entry per step, path by path in order, such that on each path ``f(z')
    - f(z) = sum sigma * (f(site + unit) - f(site))`` (the seam is left to
    the callers' sign bookkeeping).  A path runs first vertically, then
    horizontally the short way round; at the half-circumference tie it
    stays inside the raw coordinate interval.
    """
    L = geom.L
    (x1, y), (xp1, yp) = np.moveaxis(z, -1, 0), np.moveaxis(zp, -1, 0)
    d = per_L(xp1 - x1, L)
    right = np.where(2 * np.abs(d) == L, xp1 > x1, d > 0)
    counts = np.abs(yp - y) + np.abs(d)
    row = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    h = j - np.abs(yp - y)[row]  # negative on the vertical steps
    x1, y, yp, right, up = x1[row], y[row], yp[row], right[row], (yp > y)[row]
    vertical = h < 0
    sigma = np.where(vertical, 2 * up - 1, 2 * right - 1)
    site = np.stack([
        np.where(vertical, x1, (x1 - 1 + np.where(right, h, -h - 1)) % L + 1),
        np.where(vertical, np.where(up, y + j, y - 1 - j), yp)], axis=-1)
    return row, sigma, site, np.stack([~vertical, vertical], -1).astype(int)


# ---------------------------------------------------------------------------
# Steiner machinery on the closure graph.
#
# Tree distances are computed on the nearest-neighbor graph of the closure
# (rows 0..M+1) so that tuples touching the ghost rows, and the boundary
# condition of delta_E, are meaningful.  Edge weights are 1; required edges
# are forced into the solution by zeroing their weight, declaring their
# endpoints terminals and adding their count back afterwards.  Every solver
# below reads the all-pairs distance matrix of that graph.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _closure_metric(L, M):
    """All-pairs distances ``|dx1|_L + |dx2|`` of the closure graph, as a
    read-only array.  Vertex id = x1-1 + L*x2.

    It holds ``(L*(M+2))**2`` int32 entries: 28 kB at 12x5, 4.7 MB at
    32x32, 71 MB at 64x64.
    """
    v = np.arange(L * (M + 2), dtype=np.int32)
    col, row = v % L, v // L
    dc = np.abs(col[:, None] - col[None, :])
    D = np.minimum(dc, L - dc) + np.abs(row[:, None] - row[None, :])
    D.flags.writeable = False
    return D


def _vid(z, L):
    return (z[0] - 1) % L + L * z[1]


def _terminals_and_metric(zs, xs, geom):
    """Sorted terminal ids and the closure metric with the required edges
    ``xs`` at weight zero."""
    L = geom.L
    terms = {_vid(z, L) for z in zs}
    D = _closure_metric(L, geom.M)
    if not xs:
        return sorted(terms), D
    D = D.copy()
    ends = set()
    for x in xs:
        a, b = (_vid(z, L) for z in x.endpoints(geom))
        D[a, b] = D[b, a] = 0
        ends.update((a, b))
    # A shortest path alternates unit-weight stretches with zero edges, so
    # Floyd-Warshall through the zero-edge endpoints alone is exact.
    for k in sorted(ends):
        np.minimum(D, D[:, k, None] + D[k], out=D)
    return sorted(terms | ends), D


def _relax(merge, D):
    """One min-plus step ``min_w merge[..., w] + D[w, :]``, holding one
    (nv, nv) temporary at a time."""
    if merge.ndim == 1:
        return (merge[:, None] + D).min(axis=0)
    return np.stack([(m[:, None] + D).min(axis=0) for m in merge])


def _dreyfus_wagner(D, rows, dp=None):
    """Dreyfus-Wagner dynamic program over the metric ``D``.

    ``rows[i]`` holds the distances of all vertices to terminal ``i``.  A
    row with a leading axis is a family of terminal groups, each reached
    through its nearest member; masks holding such a row carry that axis.
    Returns ``dp``, where ``dp[mask][..., v]`` is the minimal weight of a
    connected subgraph spanning the terminals in ``mask`` and vertex ``v``.
    A ``dp`` computed for a prefix of ``rows`` is extended, not recomputed.
    """
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
    """Tree distance ``delta``: edge count of the smallest connected subset
    of the cylinder edge graph containing all edges ``xs`` and touching all
    sites ``zs``.

    Exact (Dreyfus-Wagner) at every terminal count: ``k`` distinct terminal
    vertices on ``n`` closure vertices cost ``O(3^k n + 2^k n^2)``.
    """
    terms, D = _terminals_and_metric(zs, xs, geom)
    base = len(xs)
    if len(terms) <= 1:
        return base
    return int(_dreyfus_wagner(D, list(D[terms]))[-1].min()) + base


def edge_tree_distance(zs, xs, geom):
    """Boundary-aware tree distance ``delta_E``.

    Same as :func:`tree_distance`, but the connected set must in addition
    either touch the boundary rows 0 / M+1 of the cylinder or contain two
    points whose horizontal coordinates differ by more than L/3 (winding
    option).  Empty input tuples give 0.
    """
    terms, D = _terminals_and_metric(zs, xs, geom)
    base = len(xs)
    if not terms:
        return base
    L, M = geom.L, geom.M
    boundary = np.r_[0:L, L * (M + 1):L * (M + 2)]
    # Winding option: along a path between two points more than L/3 apart
    # the horizontal distance from the first point takes every value up to
    # sep = floor(L/3) + 1 <= L/2, so the set touches some column c and
    # column c + sep.  It then has at least sep edges and can only beat the
    # boundary option if the latter exceeds sep.
    sep = floor(L / 3) + 1
    rows = list(D[terms])
    dp = _dreyfus_wagner(D, rows)
    best = dp[-1][boundary].min()
    if best > sep:
        # Columns c and c + sep as two terminal groups, for every c at
        # once; the masks without them are those of the plain DP.
        col = D.reshape(M + 2, L, -1).min(axis=0)
        dp = _dreyfus_wagner(D, rows + [col, np.roll(col, -sep, axis=0)], dp)
        best = min(best, dp[-1].min())
    return int(best) + base


def d_edge_pair(z, zp, geom):
    """Closed-form boundary-weighted distance between two sites.

    ``min(|per_L(d1)| + dist of the pair to the boundary rows,
    L - |per_L(d1)| + |d2|)`` -- the profile against which edge-propagator
    decay is fitted.
    """
    L, M = geom.L, geom.M
    d1 = abs(per_L(z[0] - zp[0], L))
    d2 = abs(z[1] - zp[1])
    s2 = z[1] + zp[1]
    to_boundary = min(s2, 2 * (M + 1) - s2)
    return min(d1 + to_boundary, L - d1 + d2)
