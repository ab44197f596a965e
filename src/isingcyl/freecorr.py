r"""Free-fermion partition function and multipoint energy correlations.

At lambda = 0 the cylinder Ising model is an exactly solvable pair of
Gaussian Grassmann integrals (critical phi sector + massive xi sector).
This module evaluates

* log Z through the Pfaffian identity (one block per horizontal momentum)
  ``Z = 2^{LM} (cosh bJ1)^{LM} (cosh bJ2)^{L(M-1)} Pf(A_c) Pf(A_m)``;
* multipoint energy correlations: each energy observable (the product of
  the two spins adjacent to an edge) equals ``t_j + (1 - t_j^2) E_x`` in
  fermionic variables, with ``E_x`` a field bilinear, so moments reduce to
  Pfaffians of pairwise covariance matrices and cumulants follow by
  set-partition inversion;
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
    LazyCriticalTable, ModelParams, NumericalError,
    _critical_momentum_blocks, critical_propagator_direct,
    horizontal_momenta, massive_propagator, s_eval, s_weights,
    scaling_propagator,
)
from .skewlinalg import block_pfaffians, joint_cumulant, pfaffian

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
    means: dict           # Edge -> <sigma sigma>
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


def enumerate_gibbs(geom, beta, J1=1.0, J2=1.0, observables=()):
    """Exact sums over all 2^(LM) spin configurations.

    Horizontal bonds are periodic, the rows above M and below 1 carry no
    spins (free vertical boundaries).  ``observables`` is a tuple of edges;
    the record carries log Z, the mean of each observable, and the moments
    of every nonempty sub-tuple of observables (keyed by position sets).

    Spin i is bit i of the configuration index, rows of L bits in
    row-major order.  Every configuration is counted into one histogram of
    exact integers keyed by its disagreeing horizontal bonds a (bits of
    the index XOR its rows rotated by one), its disagreeing vertical bonds
    b (bits of the index XOR itself shifted by one row) and one bit per
    observable whose two spins disagree.  The Boltzmann weights
    exp(beta (J1 (LM - 2a) + J2 (L(M-1) - 2b))) enter only afterwards, at
    the occupied (a, b) levels and shifted by their maximum, so the sums
    neither depend on the order of the configurations nor overflow.
    """
    L, M = geom.L, geom.M
    n = L * M
    if n > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at {ENUMERATION_CAP} spins, got {n}")
    obs_pairs = []
    for e in observables:
        e.validate(geom)
        obs_pairs.append([geom.site_index(z) for z in e.endpoints(geom)])

    nh, nv, k = n, n - L, len(obs_pairs)
    first = sum(1 << (r * L) for r in range(M))  # bit 0 of every row
    last = first << (L - 1)                      # bit L-1 of every row
    inner = (1 << nv) - 1                        # the rows 1..M-1
    levels = (nv + 1) * (nh + 1)
    hist = np.zeros(levels << k, dtype=np.int64)
    for start in range(0, 1 << n, _ENUM_CHUNK):
        idx = np.arange(start, min(start + _ENUM_CHUNK, 1 << n))
        rotated = ((idx >> 1) & ~last) | ((idx & first) << (L - 1))
        key = _popcount(idx ^ rotated) + (nh + 1) * _popcount(
            (idx ^ (idx >> L)) & inner)
        for i, (ia, ib) in enumerate(obs_pairs):
            key += (((idx >> ia) ^ (idx >> ib)) & 1) * (levels << i)
        hist += np.bincount(key, minlength=len(hist))

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
    means = {observables[i]: moments[frozenset([i])] for i in range(k)}
    return GibbsRecord(log_Z=float(shift + math.log(z_shifted)),
                       means=means, moments=moments,
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
    """
    params = ModelParams.from_beta(beta, J1, J2)
    L, M = geom.L, geom.M
    k1 = horizontal_momenta(L)[L // 2:]  # the momenta k1 > 0
    _, logdet = np.linalg.slogdet(_critical_momentum_blocks(k1, M, params))
    if not np.all(np.isfinite(logdet)):
        raise NumericalError("singular critical momentum block")
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


def _h_composite(w, z, L, s_pm):
    """The phi row and the xi row of the mixed field H_{w,z}."""
    c = s_eval(s_pm[w], z[0] - np.arange(1, L + 1), L)
    c_minus = -c if w == 0 else c
    phi = ([(c[y - 1], 0, (y, z[1])) for y in range(1, L + 1)]
           + [(c_minus[y - 1], 1, (y, z[1])) for y in range(1, L + 1)])
    return phi, [(1.0, w, z)]


def bilinear_rows(edge, L, s_pm):
    """The two constituent (composite) fields of E_x, in product order,
    each as its (phi row, xi row) pair.

    Vertical edge at z: (phi_{+,z}, phi_{-,z+e2}).  Horizontal edge at z:
    (H_{+,z}, H_{-,z+e1}), with ``s_pm = (s_+, s_-)``; the second site
    keeps its raw first coordinate (antiperiodicity is handled by the
    tables and s-kernels).
    """
    z = edge.base
    if edge.direction == "v":
        return (([(1.0, 0, z)], []), ([(1.0, 1, (z[0], z[1] + 1))], []))
    return (_h_composite(0, z, L, s_pm),
            _h_composite(1, (z[0] + 1, z[1]), L, s_pm))


class FreeCorrelator:
    """Evaluator of lambda = 0 energy moments and cumulants.

    Builds the critical (phi) and massive (xi) propagator tables once; on
    the critical line the critical table is the Fourier representation,
    evaluated at the offsets read (:class:`LazyCriticalTable`) at every
    size, otherwise the dense inversion of A_c.  A request builds the
    covariance of its 2m constituent fields once; every moment is the
    Pfaffian of a principal submatrix.
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
        """Covariance of the constituent fields of ``edges``, in product
        order; phi and xi are independent, so their covariances add."""
        phi, xi = [], []
        for e in edges:
            e.validate(self.geom)
            for p, x in bilinear_rows(e, self.geom.L, self.s_pm):
                phi.append(p)
                xi.append(x)
        return self.gc.covariance(phi) + self.gm.covariance(xi)

    def bilinear_moment(self, edges):
        """<prod_x E_x>: Pfaffian of the constituent-field covariances.

        Includes the intra-bilinear entries; the empty product is 1.
        """
        if not edges:
            return 1.0
        return _real(pfaffian(self._covariance(edges)))

    def _couplings(self, edges):
        """t_j of each edge's direction; the edges must be distinct."""
        if len(set(edges)) != len(edges):
            raise ValueError("edges must be pairwise distinct")
        return [self.params.t1 if e.direction == "h" else self.params.t2
                for e in edges]

    def energy_moment(self, edges):
        """<prod_x eps_x> with eps_x = t_j + (1 - t_j^2) E_x, expanded over
        subsets Y of the edges:
        sum_Y prod_{x not in Y} t_j prod_{x in Y} (1 - t_j^2) <prod_Y E>.
        """
        t = self._couplings(edges)
        total = math.prod(t, start=1.0)  # Y empty
        for Y, pf in block_pfaffians(self._covariance(edges),
                                     [2] * len(t)).items():
            term = _real(pf)
            for i, ti in enumerate(t):
                term *= (1.0 - ti * ti) if i in Y else ti
            total += term
        return total

    def energy_cumulant(self, edges):
        """Order-m joint cumulant of the energy observables; the mean for
        m = 1.  For m >= 2 cumulants ignore the constants t_j and are
        multilinear: prod_x (1 - t_j^2) times the joint cumulant of the
        bilinears E_x."""
        if len(edges) == 1:
            return self.energy_moment(edges)
        t = self._couplings(edges)
        return math.prod(1.0 - ti * ti for ti in t) * _real(joint_cumulant(
            self._covariance(edges), [2] * len(t)))


# ---------------------------------------------------------------------------
# Continuum scaling limit.
# ---------------------------------------------------------------------------


def scaling_correlation(points, labels, ell1, ell2, params):
    """The scaling limit of the m-point energy correlation on the cylinder.

    ``points`` are pairwise distinct continuum points with 0 < y < ell2;
    ``labels`` are edge directions (1 horizontal, 2 vertical).  Returns
    ``(2 t2)^{m1} (1 - t2^2)^{m2} Pf(M)`` where M is the 2m x 2m matrix
    with zero diagonal blocks and the continuum propagator off-diagonal.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    m = len(points)
    if len(labels) != m:
        raise ValueError("one direction label per point is required")
    if any(l not in (1, 2) for l in labels):
        raise ValueError("direction labels must be 1 or 2")
    for p in points:
        if not 0.0 < p[1] < ell2:
            raise ValueError(f"point {tuple(p)} outside the open cylinder")
    for i in range(m):
        for j in range(i + 1, m):
            if np.allclose(points[i], points[j]):
                raise ValueError("points must be pairwise distinct")

    m1 = sum(1 for l in labels if l == 1)
    m2 = m - m1
    t2 = params.t2
    pref = (2.0 * t2) ** m1 * (1.0 - t2 ** 2) ** m2

    M = np.zeros((2 * m, 2 * m))
    for i in range(m):
        for j in range(i + 1, m):
            blk = scaling_propagator(points[i], points[j], ell1, ell2, params)
            M[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
            M[2 * j:2 * j + 2, 2 * i:2 * i + 2] = -blk.T
    return pref * _real(pfaffian(M))
