"""Reference tree distances: a pure-Python Dreyfus-Wagner on the closure
graph (Dreyfus and Wagner, Networks 1, 1971), kept as the oracle for the
vectorized engine in :mod:`isingcyl.lattice`.

The closure graph is the nearest-neighbor graph on rows 0..M+1, periodic
horizontally.  Edge weights are 1; required edges are forced into the
solution by zeroing their weight and declaring their endpoints terminals.
Each winding candidate ``u`` of ``delta_E`` gets a DP of its own, so these
functions are slow and only meant for small cases.
"""

import heapq
from collections import deque
from math import floor


def closure_graph(L, M):
    """Adjacency list of the closure graph.  Vertex id = x1-1 + L*x2."""
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


def x1_dist(a, b, L):
    """Cylinder distance between two horizontal coordinates."""
    d = abs(a - b) % L
    return min(d, L - d)


def vid(z, L):
    return (z[0] - 1) % L + L * z[1]


def steiner_dp(geom, terminals, zero_edges=frozenset()):
    """Dreyfus-Wagner dynamic program with a heap Dijkstra per mask.

    Returns ``dp[v]`` = minimal weight of a connected subgraph spanning all
    ``terminals`` and vertex ``v`` (weights 1 except ``zero_edges``).
    """
    adj = closure_graph(geom.L, geom.M)
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


def bfs_dist(geom, source, zero_edges=frozenset()):
    """0/1-weight shortest path distances from ``source`` (vertex id)."""
    adj = closure_graph(geom.L, geom.M)
    INF = float("inf")
    dist = [INF] * len(adj)
    dist[source] = 0
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


def terminals_and_zero_edges(zs, xs, geom):
    L = geom.L
    terms = {vid(z, L) for z in zs}
    zero = set()
    for x in xs:
        a, b = x.endpoints(geom)
        terms.add(vid(a, L))
        terms.add(vid(b, L))
        zero.add((vid(a, L), vid(b, L)))
    return sorted(terms), frozenset(zero)


def tree_distance(zs, xs, geom):
    """Exact ``delta`` for any number of terminals."""
    terms, zero = terminals_and_zero_edges(zs, xs, geom)
    if len(terms) <= 1:
        return len(xs)
    return int(min(steiner_dp(geom, terms, zero))) + len(xs)


def edge_tree_distance(zs, xs, geom):
    """Exact ``delta_E``: the cheaper of the boundary option and, when it
    can win, the winding option, one DP per extra vertex ``u``."""
    terms, zero = terminals_and_zero_edges(zs, xs, geom)
    if not terms:
        return len(xs)
    L, M = geom.L, geom.M
    dp = steiner_dp(geom, terms, zero)
    best = min(dp[vid((x1, x2), L)] for x2 in (0, M + 1)
               for x1 in range(1, L + 1))
    sep = floor(L / 3) + 1
    if best > sep:
        for u in range(L * (M + 2)):
            dpu = steiner_dp(geom, sorted(set(terms) | {u}), zero)
            for w in range(L * (M + 2)):
                if x1_dist(u % L + 1, w % L + 1, L) >= sep:
                    best = min(best, dpu[w])
    return int(best) + len(xs)
