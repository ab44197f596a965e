r"""Cylinder geometry and combinatorial distances.

The lattice is ``Lambda = Z_L x {1..M}``: periodic in the horizontal
direction (``L`` even), open in the vertical one.  Its *closure* adds the
ghost rows 0 and M+1 on which the boundary conditions of the fermionic
representation live.  This module collects everything purely geometric:

* horizontal periodization ``per_L``, the antiperiodic wrap rule
  ``antiperiodic_wrap`` and cylinder distances,
* the sign factor ``alpha`` entering the bulk/edge bookkeeping of
  translation-covariant kernels,
* the tree distance ``delta`` (size of the smallest connected edge set
  touching a tuple of sites and containing a tuple of edges) and its
  boundary-aware variant ``delta_E``, which weight all kernel norms.

Sites are plain ``(x1, x2)`` tuples with ``x1`` in ``1..L`` and ``x2`` in
``0..M+1``.  Edges are :class:`Edge` instances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from math import floor


@dataclass(frozen=True)
class CylinderGeometry:
    """The cylinder ``Z_L x [1, M]`` (L even, M >= 1)."""

    L: int
    M: int

    def __post_init__(self):
        if self.L < 2 or self.L % 2 != 0:
            raise ValueError(f"L must be a positive even integer, got {self.L}")
        if self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M}")

    # -- membership ---------------------------------------------------------

    def wrap_x1(self, x1):
        """Reduce a horizontal coordinate into 1..L."""
        return (x1 - 1) % self.L + 1

    def in_lattice(self, z):
        return 1 <= z[0] <= self.L and 1 <= z[1] <= self.M

    # -- site / edge enumeration -------------------------------------------

    def sites(self):
        return [(x1, x2) for x2 in range(1, self.M + 1)
                for x1 in range(1, self.L + 1)]

    def closure_sites(self):
        return [(x1, x2) for x2 in range(0, self.M + 2)
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

    # -- symmetries ---------------------------------------------------------

    def translate(self, z, a):
        """Horizontal translation by ``a`` steps (periodic)."""
        return (self.wrap_x1(z[0] + a), z[1])

    def theta1(self, z):
        """Horizontal reflection about the axis between columns L and 1."""
        return (self.wrap_x1(self.L + 1 - z[0]), z[1])

    def theta2(self, z):
        """Vertical reflection swapping rows 0 and M+1."""
        return (z[0], self.M + 1 - z[1])

    # -- distances ----------------------------------------------------------

    def x1_dist(self, a, b):
        """Cylinder distance between two horizontal coordinates."""
        d = abs(a - b) % self.L
        return min(d, self.L - d)


@dataclass(frozen=True)
class Edge:
    """A nearest-neighbor edge, identified by its left/bottom vertex."""

    base: tuple
    direction: str  # "h" or "v"

    def __post_init__(self):
        if self.direction not in ("h", "v"):
            raise ValueError(f"direction must be 'h' or 'v', got {self.direction!r}")

    def validate(self, geom: CylinderGeometry):
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

    @property
    def j(self):
        """Coupling index: 1 for horizontal edges, 2 for vertical ones."""
        return 1 if self.direction == "h" else 2


def antiperiodic_wrap(d, L):
    """Residue ``d mod L`` and the sign ``(-1)^q`` of the ``q = floor(d/L)``
    periods wrapped; works elementwise on integer arrays."""
    q, r = divmod(d, L)
    return r, 1.0 - 2.0 * (q % 2)


def per_L(y, L):
    """Horizontal periodization of ``y`` into the window ``(-L/2, L/2]``.

    Matches ``y - L*floor(y/L + 1/2)`` except at the half-integer boundary,
    where the representative ``+L/2`` is kept.
    """
    if L < 2 or L % 2 != 0:
        raise ValueError(f"L must be even and >= 2, got {L}")
    r = y % L
    return r if r <= L // 2 else r - L


def alpha_sign(zs, geom):
    """Parity of the seam-crossing count ``alpha`` of a tuple of sites.

    For a tuple whose raw horizontal coordinates spread over at least
    ``2L/3`` (i.e. it wraps through the seam between columns L and 1), this
    is the parity of the number of sites with ``x1 <= L/3``; otherwise 0.
    """
    if not zs:
        return 0
    L = geom.L if isinstance(geom, CylinderGeometry) else int(geom)
    xs = [z[0] for z in zs]
    if max(xs) - min(xs) >= 2 * L / 3:
        return sum(1 for x in xs if x <= L / 3) % 2
    return 0


class Distance(int):
    """An integer distance carrying an ``approximate`` flag."""

    def __new__(cls, value, approximate=False):
        obj = super().__new__(cls, value)
        obj.approximate = approximate
        return obj


# ---------------------------------------------------------------------------
# Steiner machinery on the closure graph.
#
# Tree distances are computed on the nearest-neighbor graph of the closure
# (rows 0..M+1) so that tuples touching the ghost rows, and the boundary
# condition of delta_E, are meaningful.  Edge weights are 1; required edges
# are forced into the solution by zeroing their weight, declaring their
# endpoints terminals and adding their count back afterwards.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _closure_graph(L, M):
    """Adjacency list of the closure graph.  Vertex id = x1-1 + L*(x2)."""
    nv = L * (M + 2)
    adj = [[] for _ in range(nv)]

    def vid(x1, x2):
        return (x1 - 1) % L + L * x2

    for x2 in range(0, M + 2):
        for x1 in range(1, L + 1):
            a, b = vid(x1, x2), vid(x1 + 1, x2)
            adj[a].append(b)
            adj[b].append(a)
    for x2 in range(0, M + 1):
        for x1 in range(1, L + 1):
            a, b = vid(x1, x2), vid(x1, x2 + 1)
            adj[a].append(b)
            adj[b].append(a)
    return adj


def _vid(z, L):
    return (z[0] - 1) % L + L * z[1]


def _steiner_dp(geom, terminals, zero_edges=frozenset()):
    """Dreyfus-Wagner dynamic program.

    Returns ``dp[v]`` = minimal weight of a connected subgraph spanning all
    ``terminals`` and vertex ``v`` (weights 1 except ``zero_edges``).
    """
    L, M = geom.L, geom.M
    adj = _closure_graph(L, M)
    nv = len(adj)
    t = len(terminals)
    INF = float("inf")
    if t == 0:
        return [0.0] * nv

    def wt(a, b):
        return 0 if (a, b) in zero_edges or (b, a) in zero_edges else 1

    full = (1 << t) - 1
    dp = [[INF] * nv for _ in range(full + 1)]
    for i, v in enumerate(terminals):
        dp[1 << i][v] = 0

    for mask in range(1, full + 1):
        row = dp[mask]
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub <= other:
                a, b = dp[sub], dp[other]
                for v in range(nv):
                    c = a[v] + b[v]
                    if c < row[v]:
                        row[v] = c
            sub = (sub - 1) & mask
        heap = [(c, v) for v, c in enumerate(row) if c < INF]
        heapq.heapify(heap)
        while heap:
            c, v = heapq.heappop(heap)
            if c > row[v]:
                continue
            for w in adj[v]:
                nc = c + wt(v, w)
                if nc < row[w]:
                    row[w] = nc
                    heapq.heappush(heap, (nc, w))
    return dp[full]


def _bfs_dist(geom, source, zero_edges=frozenset()):
    """0/1-weight shortest path distances from ``source`` (vertex id)."""
    adj = _closure_graph(geom.L, geom.M)
    INF = float("inf")
    dist = [INF] * len(adj)
    dist[source] = 0
    from collections import deque
    dq = deque([source])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            c = 0 if (v, w) in zero_edges or (w, v) in zero_edges else 1
            if dist[v] + c < dist[w]:
                dist[w] = dist[v] + c
                if c == 0:
                    dq.appendleft(w)
                else:
                    dq.append(w)
    return dist


def _terminals_and_zero_edges(zs, xs, geom):
    L = geom.L
    terms = {_vid(z, L) for z in zs}
    zero = set()
    for x in xs:
        a, b = x.endpoints(geom)
        terms.add(_vid(a, L))
        terms.add(_vid(b, L))
        zero.add((_vid(a, L), _vid(b, L)))
    return sorted(terms), frozenset(zero)


def _mst_surrogate(geom, terminals, zero_edges):
    """Metric-closure MST over the terminals (Prim); <= 2x the optimum."""
    if len(terminals) <= 1:
        return 0
    dists = {v: _bfs_dist(geom, v, zero_edges) for v in terminals}
    in_tree = {terminals[0]}
    total = 0
    rest = set(terminals[1:])
    while rest:
        best, bestv = None, None
        for v in rest:
            d = min(dists[u][v] for u in in_tree)
            if best is None or d < best:
                best, bestv = d, v
        total += best
        in_tree.add(bestv)
        rest.remove(bestv)
    return total


def tree_distance(zs, xs=(), geom=None, *, max_exact_terminals=4,
                  surrogate=True):
    """Tree distance ``delta``: edge count of the smallest connected subset
    of the cylinder edge graph containing all edges ``xs`` and touching all
    sites ``zs``.

    Exact (Dreyfus-Wagner) up to ``max_exact_terminals`` distinct terminal
    vertices; beyond that a minimum-spanning-tree surrogate is used (at most
    a factor 2 above the optimum) and the result is flagged
    ``approximate=True``.  With ``surrogate=False`` oversize tuples raise.
    """
    if geom is None:
        raise TypeError("geom is required")
    terms, zero = _terminals_and_zero_edges(zs, xs, geom)
    base = len(xs)
    if len(terms) <= 1:
        return Distance(base)
    if len(terms) <= max_exact_terminals:
        dp = _steiner_dp(geom, terms, zero)
        return Distance(int(min(dp)) + base)
    if not surrogate:
        raise ValueError(
            f"{len(terms)} terminals exceed the exact-solver cap "
            f"{max_exact_terminals} and the surrogate is disabled")
    return Distance(_mst_surrogate(geom, terms, zero) + base,
                    approximate=True)


def edge_tree_distance(zs, xs=(), geom=None, *, max_exact_terminals=4,
                       surrogate=True):
    """Boundary-aware tree distance ``delta_E``.

    Same as :func:`tree_distance`, but the connected set must in addition
    either touch the boundary rows 0 / M+1 of the cylinder or contain two
    points whose horizontal coordinates differ by more than L/3 (winding
    option).  Empty input tuples give 0.
    """
    if geom is None:
        raise TypeError("geom is required")
    terms, zero = _terminals_and_zero_edges(zs, xs, geom)
    base = len(xs)
    if not terms:
        return Distance(base)
    L, M = geom.L, geom.M

    approx = False
    if len(terms) <= max_exact_terminals:
        dp = _steiner_dp(geom, terms, zero)
    else:
        if not surrogate:
            raise ValueError(
                f"{len(terms)} terminals exceed the exact-solver cap "
                f"{max_exact_terminals} and the surrogate is disabled")
        approx = True
        dp = None

    # Boundary option: cheapest tree spanning the terminals plus one
    # boundary vertex.
    boundary_vids = [_vid((x1, x2), L) for x2 in (0, M + 1)
                     for x1 in range(1, L + 1)]
    if dp is not None:
        boundary_opt = min(dp[v] for v in boundary_vids)
    else:
        boundary_opt = min(
            _mst_surrogate(geom, terms + [v], zero) for v in
            (boundary_vids[0], boundary_vids[L // 2],
             boundary_vids[L], boundary_vids[L + L // 2]))

    # Winding option: any set with two points more than L/3 apart contains
    # a path of more than L/3 horizontal edges, so it can only beat the
    # boundary option if the latter exceeds floor(L/3).
    winding_floor = floor(L / 3) + 1
    if boundary_opt > winding_floor and not approx:
        sep = winding_floor
        best = boundary_opt
        nv = L * (M + 2)
        for u in range(nv):
            dpu = _steiner_dp(geom, sorted(set(terms) | {u}), zero)
            for w in range(nv):
                if geom.x1_dist(u % L + 1, w % L + 1) >= sep:
                    if dpu[w] < best:
                        best = dpu[w]
        boundary_opt = best

    return Distance(int(boundary_opt) + base, approximate=approx)


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
