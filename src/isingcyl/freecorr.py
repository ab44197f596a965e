r"""Free-fermion partition function and multipoint energy correlations.

At lambda = 0 the cylinder Ising model is an exactly solvable pair of
Gaussian Grassmann integrals (critical phi sector + massive xi sector).
This module evaluates

* log Z through the Pfaffian identity (one block per horizontal momentum)
  ``Z = 2^{LM} (cosh bJ1)^{LM} (cosh bJ2)^{L(M-1)} Pf(A_c) Pf(A_m)``;
* multipoint energy correlations: each energy observable (the product of
  the two spins adjacent to an edge) equals ``t_j + (1 - t_j^2) E_x`` in
  fermionic variables, with ``E_x`` a field bilinear, so a moment is one
  Pfaffian and a cumulant a sum over connected loops;
* the explicit continuum scaling limit of the energy correlations;
* the exhaustive Gibbs enumeration oracle that every Pfaffian-route value
  is cross-checked against: all 2^(LM) spin configurations counted exactly
  into a histogram of energy levels, weighted only at the end and in
  log space, independent of the Pfaffian route.

Horizontal bilinears involve the mixed field
``H_{w,z} = xi_{w,z} + sum_y s_w(z1 - y) (phi_{+,(y,z2)} - w phi_{-,(y,z2)})``;
phi and xi are independent Gaussians, so their cross covariance vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lattice import CylinderGeometry
from .propagators import (
    LazyCriticalTable, ModelParams, NumericalError, coeff_b, coeff_Delta,
    critical_propagator_direct, horizontal_momenta, massive_propagator,
    _require_finite, _require_on_cylinder, s_eval, s_weights,
    scaling_propagator,
)
from .skewlinalg import loop_cumulant, pfaffian

ENUMERATION_CAP = 24
_ENUM_CHUNK = 1 << 16


def _real(val):
    """The real part of a Pfaffian-route value that must be real."""
    if not abs(np.imag(val)) < 1e-9 * max(1.0, abs(val)):
        raise NumericalError(f"expected a real value, got {val}")
    return float(np.real(val))


@dataclass(frozen=True)
class CorrelationRequest:
    """An m-point energy correlation to evaluate at lambda = 0: a moment
    of at least one edge or a truncated correlation of at least two."""

    geom: CylinderGeometry
    edges: tuple
    mode: str  # "moment" or "truncated"
    params: ModelParams

    def __post_init__(self):
        if self.mode not in ("moment", "truncated"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.edges:
            raise ValueError("at least one edge is required")
        if self.mode == "truncated" and len(self.edges) < 2:
            raise ValueError("cumulants need at least two edges")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("edges must be pairwise distinct")
        for e in self.edges:
            e.validate(self.geom)


# ---------------------------------------------------------------------------
# Exhaustive Gibbs enumeration (the oracle).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsRecord:
    log_Z: float
    moments: dict         # frozenset of observable positions -> moment
    configurations: int   # the configurations counted: 2^(LM)
    levels: int           # occupied (horizontal, vertical) energy levels

    @property
    def Z(self):
        """exp(log_Z); OverflowError where Z does not fit a float."""
        return math.exp(self.log_Z)


# set bits of every 12-bit integer; two lookups cover the 24-spin cap
_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << 12)])


def _popcount(x):
    return _POPCOUNT[x & 0xFFF] + _POPCOUNT[x >> 12]


def _block_keys(idx, L, rows, pairs, nh, levels):
    """Histogram keys of the configurations ``idx`` of ``rows`` rows of L
    spins, counting only the bonds and the observable ``pairs`` (position,
    site a, site b) inside them: disagreeing horizontal bonds (bits of idx
    XOR its rows rotated by one), plus nh + 1 times disagreeing vertical
    bonds (bits of idx XOR itself shifted by one row), plus ``levels << i``
    for each observable i whose two spins disagree."""
    first = sum(1 << (r * L) for r in range(rows))  # bit 0 of every row
    last = first << (L - 1)                         # bit L-1 of every row
    rotated = ((idx >> 1) & ~last) | ((idx & first) << (L - 1))
    key = _popcount(idx ^ rotated)
    if rows > 1:
        inner = (1 << (L * (rows - 1))) - 1  # the rows with a row below
        key += (nh + 1) * _popcount((idx ^ (idx >> L)) & inner)
    for i, a, b in pairs:
        key += (((idx >> a) ^ (idx >> b)) & 1) * (levels << i)
    return key


def enumerate_gibbs(geom, beta, J1=1.0, J2=1.0, observables=()):
    """Exact sums over all 2^(LM) spin configurations.

    Horizontal bonds are periodic, the rows above M and below 1 carry no
    spins (free vertical boundaries).  ``observables`` is a tuple of edges;
    the record carries log Z and the moments of every nonempty sub-tuple
    of observables (keyed by position sets), the mean of observable i at
    ``frozenset([i])``.

    Spin i is bit i of the configuration index, rows of L bits in
    row-major order.  Every configuration is counted into one histogram of
    exact integers keyed by its disagreeing horizontal bonds a, its
    disagreeing vertical bonds b and one bit per observable whose two
    spins disagree.  The Boltzmann weights
    exp(beta (J1 (LM - 2a) + J2 (L(M-1) - 2b))) enter only afterwards, at
    the occupied (a, b) levels and shifted by their maximum, so the sums
    neither depend on the order of the configurations nor overflow.

    The keys are counted split at row c = ceil(M/2) (0-based): a
    configuration is a top part (rows < c) and a bottom part, and its key
    is a top key plus a bottom key (:func:`_block_keys`) plus a seam term
    that reads only rows c-1 and c (the vertical bonds across the cut and
    the vertical observables crossing it).  The top configurations sharing
    row c-1 = u are contiguous, so a tile of them costs one broadcast add
    ``top[:, None] + (bottom + seam_u)`` and one ``np.bincount``; a tile
    holds at most ``_ENUM_CHUNK`` keys (the bottom part has at most
    LM/2 <= 12 spins).  M = 1 has an empty bottom part and no seam.
    """
    _require_finite("beta, J1 and J2", beta, J1, J2)
    L, M = geom.L, geom.M
    n = L * M
    if n > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at {ENUMERATION_CAP} spins, got {n}")
    obs_pairs = []
    for e in observables:
        e.validate(geom)
        obs_pairs.append(sorted(geom.site_index(z)
                                for z in e.endpoints(geom)))

    nh, nv, k = n, n - L, len(obs_pairs)
    levels = (nv + 1) * (nh + 1)
    hist = np.zeros(levels << k, dtype=np.int64)
    c = (M + 1) // 2
    cut = c * L  # the first spin of the bottom part
    # observables by part, as bit positions within it; a seam observable
    # joins bit a of row c-1 (u) to bit b of row c
    top = [(i, a, b) for i, (a, b) in enumerate(obs_pairs) if b < cut]
    bottom = [(i, a - cut, b - cut) for i, (a, b) in enumerate(obs_pairs)
              if a >= cut]
    seam = [(i, a - cut + L, b - cut) for i, (a, b) in enumerate(obs_pairs)
            if a < cut <= b]
    idx = np.arange(1 << (n - cut))
    bottom_keys = _block_keys(idx, L, M - c, bottom, nh, levels)
    row_c = idx & ((1 << L) - 1)  # bottom row c, empty for M = 1
    # nh + 1 per disagreeing vertical bond across the cut (L <= 12 if M > 1)
    vertical = (nh + 1) * _POPCOUNT[:1 << L]

    # tiles of (u values, top configurations per u, every bottom one)
    per_u, spread = 1 << (cut - L), len(idx)
    tile_t = min(per_u, _ENUM_CHUNK // spread)
    tile_u = min(1 << L, _ENUM_CHUNK // (tile_t * spread))
    for start in range(0, 1 << cut, tile_u * tile_t):
        top_keys = _block_keys(np.arange(start, start + tile_u * tile_t), L,
                               c, top, nh, levels)
        across = np.broadcast_to(bottom_keys, (tile_u, spread))
        if c < M:  # the seam: rows u of the tile against every row c
            u = np.arange(start // per_u, start // per_u + tile_u)[:, None]
            across = across + vertical[u ^ row_c]
            for i, a, b in seam:
                across += (((u >> a) ^ (row_c >> b)) & 1) * (levels << i)
        key = top_keys.reshape(tile_u, tile_t, 1) + across[:, None, :]
        hist += np.bincount(key.ravel(), minlength=len(hist))

    counts = hist.reshape(1 << k, nv + 1, nh + 1)
    occupied = counts.any(axis=0)
    b, a = np.indices(occupied.shape)
    log_w = beta * (J1 * (nh - 2 * a) + J2 * (nv - 2 * b))
    shift = log_w[occupied].max()
    w = np.exp(np.where(occupied, log_w - shift, -np.inf))
    sums = counts.reshape(1 << k, -1) @ w.ravel()  # per observable pattern
    z_shifted = sums.sum()

    subsets = [frozenset(s) for r in range(1, k + 1)
               for s in combinations(range(k), r)]
    patterns = np.arange(1 << k)
    moments = {}
    for s in subsets:
        sign = 1 - 2 * (_popcount(patterns & sum(1 << i for i in s)) & 1)
        moments[s] = float(sign @ sums / z_shifted)
    return GibbsRecord(log_Z=float(shift + math.log(z_shifted)),
                       moments=moments,
                       configurations=int(hist.sum()),
                       levels=int(occupied.sum()))


# ---------------------------------------------------------------------------
# Partition function.
# ---------------------------------------------------------------------------


def log_partition_function_free(geom, beta, J1=1.0, J2=1.0):
    """log Z at ``t_j = tanh(beta J_j)``, on and off the critical line.

    A_c and A_m commute with antiperiodic horizontal translations, so
    ``Pf(A_c)^2 = prod_{k1} det Ac(k1)`` over 2M x 2M momentum blocks and
    ``|Pf(A_m)| = prod_{k1} |1 + t1 e^{i k1}|^M``; Z > 0, so magnitudes
    suffice.  Ac(-k1) = conj Ac(k1), so each pair +-k1 is taken once.

    Row m of Ac(k1) is [[i Delta, -b], [b, -i Delta]], tied to row m+1 by
    t2 from (m, +) to (m+1, -): eliminating the rows in order gives
    ``det Ac(k1) = prod_m f_m``, ``f_m = Delta^2 + b^2 + Delta y_m``, with
    y_1 = 0, y_{m+1} = t2^2 (y_m + Delta)/f_m; Delta y_m >= 0, so f_m > 0.
    """
    params = ModelParams.from_beta(beta, J1, J2)
    L, M = geom.L, geom.M
    k1 = horizontal_momenta(L)[L // 2:]  # the momenta k1 > 0
    b, delta = coeff_b(k1, params), coeff_Delta(k1, params)
    y, logdet = np.zeros_like(k1), np.zeros_like(k1)
    for _ in range(M):
        f = delta * delta + b * b + delta * y
        logdet += np.log(f)
        y = params.t2 ** 2 * (y + delta) / f
    if not np.all(np.isfinite(logdet)):
        raise NumericalError("non-finite critical momentum block")
    return float(L * M * math.log(2.0 * math.cosh(beta * J1))
                 + L * (M - 1) * math.log(math.cosh(beta * J2))
                 + np.sum(logdet + 2 * M * np.log(np.abs(
                     1.0 + params.t1 * np.exp(1j * k1)))))


def partition_function_free(geom, beta, J1=1.0, J2=1.0):
    """Z = exp(log Z); OverflowError where Z does not fit a float."""
    return math.exp(log_partition_function_free(geom, beta, J1, J2))


# ---------------------------------------------------------------------------
# Constituent fields of the energy bilinears and their covariances.
# ---------------------------------------------------------------------------


def bilinear_terms(edges, L, s_pm):
    """The phi and xi term arrays ``(rows, coeffs, fields)`` (see
    :meth:`PropagatorTable.products`) of the constituent fields of the
    bilinears E_x of ``edges``: field w of edge i is combination 2i + w.

    Vertical edge at z: (phi_{+,z}, phi_{-,z+e2}).  Horizontal edge at z:
    (H_{+,z}, H_{-,z+e1}), with ``s_pm = (s_+, s_-)``: H_{w,z'} is its xi
    term, then ``s_w(z'1 - y)`` phi_+ and ``-+ s_w(z'1 - y)`` phi_- at
    (y, z'2), y = 1..L.  The second site keeps its raw first coordinate
    (the tables and s-kernels wrap it antiperiodically).
    """
    m = len(edges)
    h = np.array([e.direction == "h" for e in edges], bool)[:, None, None]
    z = np.array([e.base for e in edges], dtype=np.int64).reshape(m, 1, 2)
    rows = np.arange(2 * m).reshape(m, 2, 1)  # 2i + w
    w = rows % 2
    site = z + w * np.where(h, (1, 0), (0, 1))
    x1, x2 = site[..., :1], site[..., 1:]
    # phi terms in 2L slots (omega, y): all H's, or phi_{w,z'}'s at (w, x1)
    slot, y = np.arange(2 * L), np.arange(1, L + 1)
    c = np.stack([s_eval(s, x1[:, k] - y, L) for k, s in enumerate(s_pm)], 1)
    coeffs = np.where(h, np.concatenate([c, np.where(w, c, -c)], -1), 1.0)
    phi = h | (slot == w * L + x1 - 1)
    fields = np.stack(np.broadcast_arrays(slot // L, slot % L + 1, x2), -1)
    xi = np.broadcast_to(h[..., 0], (m, 2))
    return ((np.broadcast_to(rows, phi.shape)[phi], coeffs[phi], fields[phi]),
            (rows[xi, 0], np.ones(xi.sum()),
             np.concatenate([w, site], axis=-1)[xi]))


class FreeCorrelator:
    """Evaluator of lambda = 0 energy moments and cumulants.

    Builds the critical (phi) and massive (xi) propagator tables once; on
    the critical line the critical table is the Fourier representation,
    evaluated at the offsets read (:class:`LazyCriticalTable`) at every
    size, otherwise the dense inversion of A_c.  A request builds the
    covariance of its 2m constituent fields once; a moment is one Pfaffian
    of it and a cumulant one loop sum over it.
    """

    def __init__(self, geom, params):
        self.geom = geom
        self.params = params
        if params.is_critical:
            self.gc = LazyCriticalTable(geom, params)
        else:
            self.gc = critical_propagator_direct(geom, params)
        self.gm = massive_propagator(geom, params)
        self.s_pm = s_weights(geom, params)

    def _covariance(self, edges):
        """Products matrix of the constituent fields of ``edges``, in
        product order, whose strict upper triangle is their covariance:
        phi and xi are independent, so the two sectors' matrices add."""
        for e in edges:
            e.validate(self.geom)
        phi, xi = bilinear_terms(edges, self.geom.L, self.s_pm)
        return (self.gc.products(2 * len(edges), *phi)
                + self.gm.products(2 * len(edges), *xi))

    def bilinear_moment(self, edges):
        """<prod_x E_x>: Pfaffian of the constituent-field covariances.

        Includes the intra-bilinear entries; the empty product is 1 (Pf 0x0).
        """
        return _real(pfaffian(self._covariance(edges)))

    def _couplings(self, edges):
        """t_j of each edge's direction; the edges must be distinct."""
        if len(set(edges)) != len(edges):
            raise ValueError("edges must be pairwise distinct")
        return [self.params.t1 if e.direction == "h" else self.params.t2
                for e in edges]

    def energy_moment(self, edges):
        """<prod_x eps_x> = prod_x (1 - t_j^2) Pf(G + T): T adds
        a_j = t_j/(1 - t_j^2) to each bilinear's own (2i, 2i+1) entry of
        the covariance G, and expanding over the pairs taken from T gives
        sum_Y prod_{x not in Y} a_j <prod_Y E> over subsets Y of the edges.
        """
        t = np.array(self._couplings(edges))
        G, r = self._covariance(edges), 2 * np.arange(len(t))
        G[r, r + 1] += t / (1.0 - t * t)
        return float(np.prod(1.0 - t * t)) * _real(pfaffian(G))

    def energy_cumulant(self, edges):
        """Order-m joint cumulant of the energy observables; the mean for
        m = 1.  For m >= 2 cumulants ignore the constants t_j and are
        multilinear: prod_x (1 - t_j^2) times the joint cumulant of the
        bilinears E_x, their connected loop sum (:func:`loop_cumulant`); no
        edge raises ValueError."""
        if not edges:
            raise ValueError("a cumulant needs at least one edge")
        if len(edges) == 1:
            return self.energy_moment(edges)
        t = self._couplings(edges)
        return math.prod(1.0 - ti * ti for ti in t) * _real(loop_cumulant(
            self._covariance(edges)))


# ---------------------------------------------------------------------------
# Continuum scaling limit.
# ---------------------------------------------------------------------------


def scaling_correlation(points, labels, ell1, ell2, params):
    """The scaling limit of the m-point energy correlation on the cylinder.

    ``points`` are pairwise distinct continuum points with 0 <= x <= ell1
    and 0 < y < ell2 (x = 0 and x = ell1 are one point), or ``ValueError``
    is raised before any propagator sum; ``labels`` are edge directions (1
    horizontal, 2 vertical).  Returns
    ``(2 t2)^{m1} (1 - t2^2)^{m2} Pf(M)`` where M is the 2m x 2m matrix
    with zero diagonal blocks and the continuum propagator off-diagonal.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    m = len(points)
    if len(labels) != m:
        raise ValueError("one direction label per point is required")
    if any(l not in (1, 2) for l in labels):
        raise ValueError("direction labels must be 1 or 2")
    _require_on_cylinder(points, ell1, ell2)
    m1 = sum(1 for l in labels if l == 1)
    t2 = params.t2
    pref = (2.0 * t2) ** m1 * (1.0 - t2 ** 2) ** (m - m1)
    # the Pfaffian reads the strict upper triangle: the blocks i < j
    M = np.zeros((2 * m, 2 * m))
    for i, j in combinations(range(m), 2):
        M[2 * i:2 * i + 2, 2 * j:2 * j + 2] = scaling_propagator(
            points[i], points[j], ell1, ell2, params)
    return pref * _real(pfaffian(M))
