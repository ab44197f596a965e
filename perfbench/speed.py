"""Pass time at a reference host speed.

The CPU speed of a shared host drifts: on a shared 2-vCPU virtual
machine the same pass took anywhere from 4.6 to 9.9 s within minutes, in
phases lasting seconds to tens of seconds, and medians of 40-second runs
still spread by a quarter.  So the pass carries a speed
probe: every ``INTERVAL`` seconds a ``SIGALRM`` handler times a fixed
piece of interpreter work that does not use the library.  Each slice of
the pass between two probes is rescaled by ``REFERENCE`` over the mean
time of those two probes.  The sum is the time the pass would have taken
had the host run at the speed at which the probe takes ``REFERENCE``
seconds.  Probe time is excluded from both the raw and the rescaled time.
"""

from __future__ import annotations

import heapq
import math
import signal
import time

INTERVAL = 0.2
REFERENCE = 3.5e-3  # probe seconds at the reference host speed

_GRID = 40
_TABLES = []


def _tables():
    """The probe's data, built on first use (after the pass's set-up).

    A full-period linear congruential successor table, whose walk reads
    memory scattered far beyond the caches as the workloads' dicts and
    tables do, and the adjacency lists of a grid graph, as in the Steiner
    DP.
    """
    if not _TABLES:
        bits = 18
        _TABLES.append([(1664525 * i + 1013904223) & ((1 << bits) - 1)
                        for i in range(1 << bits)])
        _TABLES.append([[u for u in (v - 1 if v % _GRID else -1,
                                     v + 1 if v % _GRID < _GRID - 1 else -1,
                                     v - _GRID, v + _GRID)
                         if 0 <= u < _GRID * _GRID]
                        for v in range(_GRID * _GRID)])
    return _TABLES


def probe_work():
    """Fixed interpreter work of the kinds the workloads spend their time
    in: tuple keys and dict updates, scattered reads, and a heap-driven
    shortest-path sweep over adjacency lists.

    Timed side by side over 20 passes of each workload, the dict-and-reads
    part alone left a residual scatter of 0.088 in log(pass time) on
    kernel_calculus and the sweep alone 0.043 on gaussian_moments; with
    the sweep taking about 70% of the probe no workload was above 0.048.
    """
    chain, adj = _tables()
    acc = {}
    for i in range(500):
        key = (i & 63, i >> 6)
        acc[key] = acc.get(key, 0.0) + i * 0.5
    j = 0
    for _ in range(1500):
        j = chain[j]
    dist = [math.inf] * len(adj)
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        c, v = heapq.heappop(heap)
        if c > dist[v]:
            continue
        for w in adj[v]:
            nc = c + 1 + (v ^ w) % 3
            if nc < dist[w]:
                dist[w] = nc
                heapq.heappush(heap, (nc, w))
    return len(acc) + j + dist[-1]


class SpeedProbe:
    """Context manager that probes the host speed while its body runs.

    ``on_probe(seconds)`` is called after each probe, so a tracer can
    keep probe time out of the span it interrupted.
    """

    def __init__(self, on_probe=None):
        self.probes = []  # (start, end) of every probe
        self._on_probe = on_probe

    def _probe(self, *_):
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.probes.append((start, end))
        if self._on_probe is not None:
            self._on_probe(end - start)

    def __enter__(self):
        _tables()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()
        return False

    def raw_seconds(self):
        """Time between the first and the last probe, probes excluded."""
        return sum(b[0] - a[1] for a, b in zip(self.probes, self.probes[1:]))

    def reference_seconds(self):
        """The same time, each slice rescaled to the reference speed."""
        total = 0.0
        for a, b in zip(self.probes, self.probes[1:]):
            probe = 0.5 * ((a[1] - a[0]) + (b[1] - b[0]))
            total += (b[0] - a[1]) * REFERENCE / probe
        return total
