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
  boundary-aware variant ``delta_E``, which weight all kernel norms: one
  key at a time, or a whole batch of keys as integer arrays.

Sites are plain ``(x1, x2)`` tuples with ``x1`` in ``1..L`` and ``x2`` in
``0..M+1``.  Edges are :class:`Edge` instances.
"""

from __future__ import annotations

import itertools
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


def _integer_array(a, ndim, width, what, bits=64):
    """Caller coordinates ``a``, an array or nested sequences, as a signed
    ``bits``-bit integer array of ``ndim`` axes, the last of length
    ``width``.  Another shape, an entry that is not an integer (by dtype for
    an array; for sequences value by value, in one scan: no bool, no float)
    or one that does not fit ``bits`` signed bits raises ValueError."""
    array = isinstance(a, np.ndarray)
    shape, values = (a.shape, a) if array else ([], [a])
    try:  # the extent of each axis of nested sequences, none if ragged
        for axis in range(0 if array else ndim):
            (n,) = set(map(len, values)) or {width * (axis == ndim - 1)}
            shape.append(n)
            values = list(itertools.chain.from_iterable(values))
    except (TypeError, ValueError):
        shape = ()
    if len(shape) != ndim or shape[-1] != width:
        raise ValueError(f"{what}: need {ndim} axes, the last of {width}")
    if not array:
        _require_integers(values, what)
    elif a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {a.dtype}")
    lo, hi = ((a.min(initial=0), a.max(initial=0)) if array
              else (min(values, default=0), max(values, default=0)))
    if not -1 << bits - 1 <= lo <= hi < 1 << bits - 1:
        raise ValueError(f"{what} must fit in {bits} bits")
    return np.asarray(values, dtype=f"int{bits}").reshape(shape)


def _pack(rows):
    """One int64 code per integer row (last axis), ordered as the rows: the
    columns folded in mixed radix, the partial codes replaced by their
    dense ranks where the next column would overflow 63 bits."""
    code = np.zeros(rows.shape[:-1], dtype=np.int64)
    span = 1
    for j in range(rows.shape[-1] if code.size else 0):
        col = rows[..., j]
        lo = int(col.min())
        s = int(col.max()) - lo + 1
        if span * s >= 2 ** 63:
            code = np.unique(code, return_inverse=True)[1].reshape(code.shape)
            span = int(code.max()) + 1
        code *= s
        code += col
        code -= lo
        span *= s
    return code


def _groups(*blocks):
    """Rows equal in every integer block (N, k, c): the first row of each
    group, in order of first appearance, and the group of every row."""
    key = _pack(np.concatenate([_pack(b) for b in blocks], axis=1))
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    # np.unique's sort kind: a first quicksort maps 0.3 MB more SIMD code
    order = np.argsort(first, kind="stable")
    return first[order], np.argsort(order, kind="stable")[group]


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
    zs = np.asarray(zs)
    if zs.size == 0:
        return np.zeros(zs.shape[:-2], dtype=np.int64)[()]
    L = geom.L
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
# bases terminals and adding their count back afterwards (the other
# endpoint is at distance zero from the base, so every tree through the
# base reaches it at no cost).  One batched Dreyfus-Wagner over the
# all-pairs distance matrix of that graph serves every caller: a batch of
# keys is reduced to its distinct canonical rows, and the rows of one
# terminal count share every mask of the program.
# ---------------------------------------------------------------------------

# Bytes of one chunk of rows of the batched program (their metrics and
# masks) and of each min-plus temporary.  One (nv, nv) block is the floor.
_CHUNK_BYTES = 1 << 23


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


def _canonical_rows(sites, edges, geom):
    """The distinct canonical rows of K keys, and the row of each key.

    A key's row lists its terminal ids (its sites and the bases of its
    required edges), sorted and distinct and padded with ``nv = L*(M+2)``,
    then its required-edge codes ``2*id(base) + vertical``, sorted.  Each
    occupied column in turn is shifted to column 1, every site and edge
    base alike; the least of these rows is canonical, so translates share
    it.  The closure metric and the required edges move together under the
    shift, so keys with equal rows have equal distances.
    """
    L, nv = geom.L, geom.L * (geom.M + 2)
    n, m = sites.shape[1], edges.shape[1]
    vertical = edges[..., 2]
    cols = np.concatenate([sites[..., 0], edges[..., 0]], axis=1) - 1
    rows = np.concatenate([sites[..., 1], edges[..., 1]], axis=1)
    shifted = (cols[:, None, :] - cols[:, :, None]) % L  # (K, anchor, slot)
    ids = np.sort(shifted + L * rows[:, None, :], axis=-1)
    ids[..., 1:][ids[..., 1:] == ids[..., :-1]] = nv
    ids.sort(axis=-1)
    codes = np.sort(2 * (shifted[..., n:n + m] + L * edges[:, None, :, 1])
                    + vertical[:, None, :], axis=-1)
    packed = np.concatenate([ids, codes], axis=-1)
    code = _pack(packed)
    anchor = code.argmin(axis=1)
    _, first, key_row = np.unique(code[np.arange(len(code)), anchor],
                                  return_index=True, return_inverse=True)
    return packed[first, anchor[first]], key_row.reshape(-1)


def _zero_edge_metrics(D, codes, L):
    """The closure metric ``D`` of each row (k, nv, nv), with the row's
    required edges (codes (k, m)) at weight zero."""
    a, vertical = codes >> 1, codes & 1
    b = np.where(vertical, a + L, a - a % L + (a + 1) % L)
    metric = np.repeat(D[None], len(codes), axis=0)
    r = np.arange(len(codes))
    metric[r[:, None], a, b] = metric[r[:, None], b, a] = 0
    # A shortest path alternates unit-weight stretches with zero edges, so
    # Floyd-Warshall through the zero-edge endpoints alone is exact.
    for v in np.concatenate([a, b], axis=1).T:
        np.minimum(metric, metric[r, :, v][:, :, None] + metric[r, v][:, None],
                   out=metric)
    return metric


def _relax(merge, metric):
    """One min-plus step ``min_w merge[i, j, w] + metric[i, w, :]`` for
    ``merge`` (k, f, nv) over a shared (1, nv, nv) or a per-row (k, nv,
    nv) metric, ``_CHUNK_BYTES`` of temporaries at a time."""
    k, f, nv = merge.shape
    flat = merge.reshape(k * f, nv)
    out = np.empty_like(flat)
    step = max(1, _CHUNK_BYTES // metric[0].nbytes)
    for s in range(0, k * f, step):
        e = min(s + step, k * f)
        D = metric if len(metric) == 1 else metric[np.arange(s, e) // f]
        out[s:e] = (flat[s:e, :, None] + D).min(axis=1)
    return out.reshape(k, f, nv)


def _dreyfus_wagner(metric, rows, dp=None):
    """Batched Dreyfus-Wagner dynamic program.

    ``rows[i]`` (k, f, nv) holds the distances of all vertices to terminal
    ``i`` of each of k rows; ``f > 1`` is a family of terminal groups, each
    reached through its nearest member, and masks holding it carry that
    axis.  Returns ``dp``, where ``dp[mask][..., v]`` is the minimal weight
    of a connected subgraph spanning the terminals in ``mask`` and vertex
    ``v``, for every mask but the full one, and the full mask's merge
    before its min-plus step: ``min_w merge[..., w] + d(w, X)`` is the
    cheapest such subgraph that also touches the vertex set ``X``.  A
    ``dp`` computed for a prefix of ``rows`` is extended, not recomputed.
    """
    dp = list(dp or [None])
    full = (1 << len(rows)) - 1
    for mask in range(len(dp), full + 1):
        low = mask & -mask
        rest = mask ^ low
        if not rest:
            merge = rows[low.bit_length() - 1]
        else:
            merge = dp[low] + dp[rest]
            sub = (rest - 1) & rest
            while sub:
                np.minimum(merge, dp[low | sub] + dp[rest ^ sub], out=merge)
                sub = (sub - 1) & rest
        if mask == full:
            return dp, merge
        dp.append(_relax(merge, metric) if rest else merge)


def _plain_tree(metric, terms):
    """``delta`` without the required edges of rows of t >= 2 terminals
    (k, t): the program over all but the last terminal, read there."""
    sel = np.arange(len(terms)) if len(metric) > 1 else 0
    rows = [metric[sel, v][:, None] for v in terms[:, :-1].T]
    _, last = _dreyfus_wagner(metric, rows)
    return (last[:, 0] + metric[sel, terms[:, -1]]).min(axis=1)


def _edge_tree(metric, terms, geom):
    """``delta_E`` without the required edges of rows of t >= 1 terminals
    (k, t): the boundary option, and the winding option where it can win."""
    L, M = geom.L, geom.M
    sel = np.arange(len(terms)) if len(metric) > 1 else 0
    rows = [metric[sel, v][:, None] for v in terms.T]
    dp, last = _dreyfus_wagner(metric, rows)
    to_boundary = np.minimum(metric[..., :L].min(-1), metric[..., -L:].min(-1))
    best = (last[:, 0] + to_boundary[sel]).min(axis=1)
    # Winding option: along a path between two points more than L/3 apart
    # the horizontal distance from the first point takes every value up to
    # sep = floor(L/3) + 1 <= L/2, so the set touches some column c and
    # column c + sep.  It then has at least sep edges and can only beat the
    # boundary option if the latter exceeds sep.
    sep = floor(L / 3) + 1
    wind = np.flatnonzero(best > sep)
    if wind.size:
        # Column c as one more terminal group, for every c at once, read
        # at column c + sep; the masks without it are those of the plain
        # program.
        metric = metric[wind] if len(metric) > 1 else metric
        col = metric.reshape(len(metric), M + 2, L, -1).min(axis=1)
        dp = [None] + [d[wind] for d in dp[1:]] + [_relax(last[wind], metric)]
        _, last = _dreyfus_wagner(metric, [r[wind] for r in rows] + [col], dp)
        wound = (last + np.roll(col, -sep, axis=1)).min(axis=(1, 2))
        best[wind] = np.minimum(best[wind], wound)
    return best


def tree_distances(sites, edges, geom, boundary=False):
    """Tree distances of K keys at once: ``delta``, or ``delta_E`` with
    ``boundary`` (see :func:`tree_distance`, :func:`edge_tree_distance`).

    ``sites`` (K, n, 2) holds each key's sites (x1, x2) and ``edges`` (K,
    m, 3) its required edges (b1, b2, 0 for "h" / 1 for "v"), both read by
    :func:`_integer_array`; columns wrap mod L, and every site and edge
    endpoint must lie on the closure rows 0..M+1.  Each distinct canonical
    row (keys equal up to a horizontal translation share one) is solved
    once, and the rows of one terminal count share one batched
    Dreyfus-Wagner whose chunks of rows hold at most ``_CHUNK_BYTES`` (8
    MB) per temporary, or one (nv, nv) metric where that is larger.
    Nothing is kept between calls.  Returns int64 distances (K,).
    """
    L, M = geom.L, geom.M
    sites = _integer_array(sites, 3, 2, "site coordinates")
    edges = _integer_array(edges, 3, 3, "edge coordinates")
    if len(sites) != len(edges):
        raise ValueError("sites and edges of different key counts")
    b2, vertical = edges[..., 1], edges[..., 2]
    if ((sites[..., 1] < 0) | (sites[..., 1] > M + 1)).any():
        raise ValueError(f"site row outside the closure rows 0..{M + 1}")
    if ((vertical != 0) & (vertical != 1)).any() or (
            (b2 < 0) | (b2 + vertical > M + 1)).any():
        raise ValueError(f"edge outside the closure rows 0..{M + 1}")
    K, n, m = len(sites), sites.shape[1], edges.shape[1]
    dist = np.full(K, m, dtype=np.int64)
    if not K or not n + m:
        return dist
    rows, key_row = _canonical_rows(sites, edges, geom)
    D = _closure_metric(L, M)
    slots = n + m
    counts = (rows[:, :slots] < len(D)).sum(axis=1)
    out = np.zeros(len(rows), dtype=np.int64)
    for t in np.flatnonzero(np.bincount(counts)).tolist():
        if t == 1 and not boundary:  # one vertex spans itself
            continue
        which = np.flatnonzero(counts == t)
        # per row: its metric, if it has required edges, and the masks of
        # the program and of the winding pass
        row_bytes = D.itemsize * len(D) * ((len(D) if m else 0)
                                           + (1 << t) * (1 + boundary * L))
        step = max(1, _CHUNK_BYTES // row_bytes)
        for s in range(0, len(which), step):
            chunk = rows[which[s:s + step]]
            metric = (_zero_edge_metrics(D, chunk[:, slots:], L) if m
                      else D[None])
            out[which[s:s + step]] = (
                _edge_tree(metric, chunk[:, :t], geom) if boundary
                else _plain_tree(metric, chunk[:, :t]))
    return dist + out[key_row]


def _one_key(zs, xs):
    """Site and edge rows of one key, as nested sequences."""
    return [zs], [[(*x.base, int(x.direction == "v")) for x in xs]]


def tree_distance(zs, xs, geom):
    """Tree distance ``delta``: edge count of the smallest connected subset
    of the cylinder edge graph containing all edges ``xs`` and touching all
    sites ``zs`` (rows 0..M+1).

    Exact (Dreyfus-Wagner) at every terminal count: ``k`` distinct terminal
    vertices on ``n`` closure vertices cost ``O(3^k n + 2^k n^2)``.  One
    key of :func:`tree_distances`.
    """
    return int(tree_distances(*_one_key(zs, xs), geom)[0])


def edge_tree_distance(zs, xs, geom):
    """Boundary-aware tree distance ``delta_E``.

    Same as :func:`tree_distance`, but the connected set must in addition
    either touch the boundary rows 0 / M+1 of the cylinder or contain two
    points whose horizontal coordinates differ by more than L/3 (winding
    option).  Empty input tuples give 0.  One key of
    :func:`tree_distances`.
    """
    return int(tree_distances(*_one_key(zs, xs), geom, boundary=True)[0])


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
