r"""Kernel calculus for fermionic effective potentials on the cylinder.

A potential is represented by sparse kernels ``W(Psi, x)``: ``Psi`` is an
ordered tuple of field labels ``(omega, D, z)`` -- the Grassmann field
``phi_{omega,z}`` carrying a finite-difference multi-order ``D`` -- and
``x`` a tuple of probe edges.  The module provides

* expansion of derivative labels into plain-field polynomials (the
  canonical form under which kernels are compared for equivalence),
* the localization / renormalization operator pairs, in bulk, edge and
  source flavors: each splits a kernel into a local part plus a remainder
  interpolated along lattice paths at the price of one extra derivative;
  a flavor of dimension D (2 in the bulk, 1 at the boundary) localizes the
  sectors of non-negative scaling dimension D - n/2 - p,
* the antisymmetrization / reflection-symmetrization operator,
* weighted kernel norms with tree-distance weights,
* truncated expectations of field monomials against a propagator table
  and a one-step (truncated) renormalization-group map,
* extraction of the vertex renormalizations (Z1, Z2), with the
  free-theory source kernels as the reference input.

Sites follow the lattice conventions: ``x1`` in 1..L (antiperiodic wrap
for fields), rows 0..M+1 on the closure.  Infinite-volume kernels use
plain integer coordinates and ``geom=None``.  All coefficient arithmetic
is complex; physical (symmetrized) kernels have real coefficients.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .lattice import (
    Edge, alpha_sign, antiperiodic_wrap, edge_tree_distance, per_L,
    tree_distance,
)
from .skewlinalg import joint_cumulant, pfaffian


class FieldLabel(NamedTuple):
    """One Grassmann field slot: species omega = +-1, difference order
    D = (d1, d2) with entries in 0..2, site z = (x1, x2)."""

    omega: int
    D: tuple
    z: tuple

    def validate(self, geom=None):
        if self.omega not in (1, -1):
            raise ValueError(f"omega must be +-1, got {self.omega}")
        d1, d2 = self.D
        if not (0 <= d1 <= 2 and 0 <= d2 <= 2 and d1 + d2 <= 2):
            raise ValueError(f"invalid difference order {self.D}")
        if geom is not None:
            # the window [z2, z2 + d2] may overhang the closure rows
            # 0..M+1 on either side: the difference expansion zero-extends
            # the fields there (reflections of an overhanging label
            # overhang on the opposite side)
            if not (self.z[1] + d2 >= 0 and self.z[1] <= geom.M + 1
                    and 1 <= self.z[0] <= geom.L):
                raise ValueError(f"label {self} outside the closure")

    def order(self):
        return self.D[0] + self.D[1]


def _edge_sort_key(e):
    return (e.base[1], e.base[0], e.direction)


@dataclass
class Kernel:
    """A sparse kernel of fixed sector (n fields, total difference order p,
    m probe edges).

    ``coeffs`` maps ``(labels, edges)`` -- a tuple of ``n`` FieldLabels and
    a tuple of ``m`` Edges -- to a complex coefficient.  ``geom=None``
    marks an infinite-volume kernel on plain integer coordinates.
    """

    geom: object
    n: int
    p: int
    m: int
    coeffs: dict

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"n must be even and positive, got {self.n}")
        for (labels, edges), _ in self.coeffs.items():
            if len(labels) != self.n or len(edges) != self.m:
                raise ValueError(
                    f"key arity mismatch in sector ({self.n},{self.p},{self.m})")
            if sum(l.order() for l in labels) != self.p:
                raise ValueError(
                    f"difference order of {labels} != sector p={self.p}")
            for l in labels:
                l.validate(self.geom)
            if self.geom is not None:
                for e in edges:
                    e.validate(self.geom)

    @property
    def sector(self):
        return (self.n, self.p, self.m)

    def scaled(self, c):
        return Kernel(self.geom, self.n, self.p, self.m,
                      {k: c * v for k, v in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        if self.sector != other.sector or self.geom != other.geom:
            raise ValueError("kernels of different sectors or geometries")
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            acc[k] = acc.get(k, 0.0) + v
        return Kernel(self.geom, self.n, self.p, self.m, _prune(acc))


def _prune(acc):
    return {k: v for k, v in acc.items() if abs(v) > 0.0}


def kernel_sum(kernels):
    out = kernels[0]
    for k in kernels[1:]:
        out = out + k
    return out


# ---------------------------------------------------------------------------
# Expansion to plain fields and kernel equivalence.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=200000)
def _expand_label_cached(omega, D, z, L, M):
    """Derivative-expanded field as ((coeff, (omega, site)), ...).

    Horizontal shifts wrap antiperiodically at the seam; vertical shifts
    leaving the closure drop their term (fields vanish outside it), and the
    boundary-null combinations (omega=+ at row 0, omega=- at row M+1) are
    removed.
    """
    terms = [(1.0, z)]
    for _ in range(D[0]):
        new = []
        for c, (x1, x2) in terms:
            if L is None:
                new.append((c, (x1 + 1, x2)))
            elif x1 == L:
                new.append((-c, (1, x2)))
            else:
                new.append((c, (x1 + 1, x2)))
            new.append((-c, (x1, x2)))
        terms = new
    for _ in range(D[1]):
        new = []
        for c, (x1, x2) in terms:
            if L is None or x2 + 1 <= M + 1:
                new.append((c, (x1, x2 + 1)))
            new.append((-c, (x1, x2)))
        terms = new
    out = []
    for c, (x1, x2) in terms:
        if L is not None:
            if not 0 <= x2 <= M + 1:
                continue
            if omega > 0 and x2 == 0:
                continue
            if omega < 0 and x2 == M + 1:
                continue
        out.append((c, (omega, (x1, x2))))
    return tuple(out)


def _expand_label(label, geom):
    if geom is None:
        return _expand_label_cached(label.omega, label.D, label.z, None, None)
    return _expand_label_cached(label.omega, label.D, label.z,
                                geom.L, geom.M)


def _canonical_monomial(fields):
    """Sort plain fields with the permutation sign; None if a field repeats
    (the monomial vanishes)."""
    fields = list(fields)
    sign = 1
    for i in range(1, len(fields)):
        j = i
        while j > 0 and fields[j] < fields[j - 1]:
            fields[j], fields[j - 1] = fields[j - 1], fields[j]
            sign = -sign
            j -= 1
    for a, b in zip(fields, fields[1:]):
        if a == b:
            return None, 0
    return tuple(fields), sign


def expand_to_plain_fields(kernel):
    """Canonical polynomial form: {(sorted plain fields, sorted edges):
    coefficient}, with boundary-null monomials dropped."""
    out = defaultdict(complex)
    geom = kernel.geom
    for (labels, edges), c in kernel.coeffs.items():
        expansions = [_expand_label(l, geom) for l in labels]
        ekey = tuple(sorted(edges, key=_edge_sort_key))
        for combo in itertools.product(*expansions):
            mono, sign = _canonical_monomial(f for _, f in combo)
            if mono is None:
                continue
            w = c * sign
            for s, _ in combo:
                w *= s
            out[(mono, ekey)] += w
    return dict(out)


def expand_family(obj):
    """Expanded polynomial of a Kernel, a dict of sector Kernels, or None."""
    if obj is None:
        return {}
    if isinstance(obj, Kernel):
        return expand_to_plain_fields(obj)
    out = defaultdict(complex)
    for k in obj.values():
        for key, v in expand_to_plain_fields(k).items():
            out[key] += v
    return dict(out)


def polynomial_distance(a, b):
    ea, eb = expand_family(a), expand_family(b)
    keys = set(ea) | set(eb)
    return max((abs(ea.get(k, 0.0) - eb.get(k, 0.0)) for k in keys),
               default=0.0)


# ---------------------------------------------------------------------------
# Derived kernels: symmetrization, reflections, translations.
# ---------------------------------------------------------------------------


def _derive(kernel, images, p=None):
    """The kernel derived from ``kernel`` key by key.

    ``images(labels, edges)`` yields ``(labels', edges', f)`` for one key;
    the result sums ``f * c`` at ``(labels', sorted edges')`` over all keys
    with coefficient ``c`` and prunes exact zeros.  The sector and the
    geometry are kept, except the difference order when ``p`` is given.
    """
    acc = defaultdict(complex)
    for (labels, edges), c in kernel.coeffs.items():
        for new, new_edges, f in images(labels, edges):
            key = (tuple(new), tuple(sorted(new_edges, key=_edge_sort_key)))
            acc[key] += f * c
    return Kernel(kernel.geom, kernel.n, kernel.p if p is None else p,
                  kernel.m, _prune(acc))


def _parity(order):
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=8)
def _perm_signs(n):
    return tuple((perm, _parity(perm))
                 for perm in itertools.permutations(range(n)))


def antisymmetrize(kernel):
    """Average over signed permutations of the field slots."""
    fact = math.factorial(kernel.n)
    weights = [(perm, sign / fact) for perm, sign in _perm_signs(kernel.n)]
    return _derive(kernel, lambda labels, edges: (
        (tuple(labels[i] for i in perm), edges, f) for perm, f in weights))


def _reflect_label(label, axis, geom):
    """Image of a field label under the horizontal (axis=1) or vertical
    (axis=2) reflection, with its phase."""
    d1, d2 = label.D
    x1, x2 = label.z
    if axis == 1:
        m, s = antiperiodic_wrap(geom.L - x1 - d1, geom.L)
        phase = 1j * label.omega * (-1.0) ** d1 * s
        return phase, FieldLabel(label.omega, label.D, (m + 1, x2))
    phase = 1j * (-1.0) ** d2
    return phase, FieldLabel(-label.omega, label.D,
                             (x1, geom.M + 1 - x2 - d2))


def reflect_edge(edge, axis, geom):
    b1, b2 = edge.base
    if axis == 1:
        if edge.direction == "h":
            return Edge((geom.wrap_x1(geom.L - b1), b2), "h")
        return Edge((geom.wrap_x1(geom.L + 1 - b1), b2), "v")
    if edge.direction == "h":
        return Edge((b1, geom.M + 1 - b2), "h")
    return Edge((b1, geom.M - b2), "v")


def _reflected(kernel, compositions, weight=1.0):
    """Sum over ``compositions`` (tuples of axes, applied in turn) of
    ``weight`` times the reflected kernel, field phases included."""
    geom = kernel.geom
    if geom is None:
        raise ValueError("reflections require a finite geometry")

    def images(labels, edges):
        for axes in compositions:
            phase, new, new_edges = weight + 0.0j, labels, edges
            for axis in axes:
                reflected = [_reflect_label(l, axis, geom) for l in new]
                for ph, _ in reflected:
                    phase *= ph
                new = [l for _, l in reflected]
                new_edges = [reflect_edge(e, axis, geom) for e in new_edges]
            yield new, new_edges, phase
    return _derive(kernel, images)


def reflect_kernel(kernel, axis):
    return _reflected(kernel, [(axis,)])


def symmetrize(kernel):
    """Antisymmetrize the field slots and average over the two reflections
    (with their field phases)."""
    return _reflected(antisymmetrize(kernel), [(), (1,), (2,), (1, 2)],
                      0.25)


def horizontal_translate(kernel, a):
    """Translate by ``a`` columns: antiperiodic on fields, periodic on
    edges."""
    geom = kernel.geom

    def images(labels, edges):
        sign = 1.0
        new = []
        for l in labels:
            m, s = antiperiodic_wrap(l.z[0] - 1 + a, geom.L)
            sign *= s
            new.append(FieldLabel(l.omega, l.D, (m + 1, l.z[1])))
        yield new, [Edge((geom.wrap_x1(e.base[0] + a), e.base[1]),
                         e.direction) for e in edges], sign
    return _derive(kernel, images)


# ---------------------------------------------------------------------------
# Interpolation paths, localizations and path remainders.
# ---------------------------------------------------------------------------


def gamma_steps(z, zp, geom):
    """Telescoping steps of the canonical path from z to z'.

    Returns a list of ``(sigma, site, unit)`` such that, for any function f
    on the path (with the seam handled by the callers' sign bookkeeping),
    ``f(z') - f(z) = sum sigma * (f(site + unit) - f(site))``.  The path
    runs first vertically, then horizontally the short way round; at the
    half-circumference tie it stays inside the raw coordinate interval.
    """
    steps = []
    x1, y = z
    xp1, yp = zp
    cur = y
    while cur < yp:
        steps.append((1, (x1, cur), (0, 1)))
        cur += 1
    while cur > yp:
        cur -= 1
        steps.append((-1, (x1, cur), (0, 1)))
    d = per_L(xp1 - x1, geom.L)
    if 2 * abs(d) == geom.L:
        direction = 1 if xp1 > x1 else -1
    else:
        direction = 1 if d > 0 else -1
    cur = x1
    for _ in range(abs(d)):
        if direction > 0:
            steps.append((1, (cur, yp), (1, 0)))
            cur = geom.wrap_x1(cur + 1)
        else:
            nxt = geom.wrap_x1(cur - 1)
            steps.append((-1, (nxt, yp), (1, 0)))
            cur = nxt
    return steps


# The power counting of the paper: the sector (n, p) of a flavor with
# dimension D has scaling dimension D - n/2 - p, and exactly the sectors of
# non-negative dimension are localized.  Boundary operators gain one
# dimension on their bulk counterparts.
BULK = 2
BOUNDARY = 1


def _top_order(n, D):
    """The largest localized difference order of the n-field sectors
    (negative when none of them is localized)."""
    return D - n // 2


def _sector_check(kernel, D, m):
    if kernel.p > _top_order(kernel.n, D) or kernel.m != m:
        raise ValueError(
            f"sector {kernel.sector} not supported here (needs "
            f"p <= {D} - n/2 and m={m})")


def _localize(kernel, anchor):
    """Move every field slot onto the site ``anchor(labels, edges)``, with
    the seam-crossing sign of the source sites."""
    geom = kernel.geom

    def images(labels, edges):
        z = anchor(labels, edges)
        yield ([FieldLabel(l.omega, l.D, z) for l in labels], edges,
               (-1.0) ** alpha_sign([l.z for l in labels], geom))
    return _derive(kernel, images)


def _remainder(kernel, walks):
    """Path-interpolated remainder: raises the difference order by one.

    For each walk ``(k, anchors, start)`` that ``walks(labels, edges)``
    lists, slot k telescopes along the path from ``start`` to its own site
    and gains the unit of each step, while every other slot i sits at
    ``anchors[i]``; each term carries the seam-crossing signs of the source
    sites and of its own.
    """
    geom = kernel.geom

    def images(labels, edges):
        a_in = alpha_sign([l.z for l in labels], geom)
        for k, anchors, start in walks(labels, edges):
            mv = labels[k]
            for sigma, site, unit in gamma_steps(start, mv.z, geom):
                sites = anchors[:k] + [site] + anchors[k + 1:]
                new = [FieldLabel(l.omega, l.D, z)
                       for l, z in zip(labels, sites)]
                new[k] = FieldLabel(
                    mv.omega, (mv.D[0] + unit[0], mv.D[1] + unit[1]), site)
                yield (new, edges,
                       (-1.0) ** (a_in + alpha_sign(sites, geom)) * sigma)
    return _derive(kernel, images, kernel.p + 1)


def _collected(family, n, p, tilde_R_op):
    """The parts that land in sector (n, p): v(n,p), R v(n,p-1), ...,
    R^p v(n,0), in that order, for the sectors present in ``family``."""
    parts = []
    for q in range(p, -1, -1):
        k = family.get((n, q))
        if k is not None:
            for _ in range(p - q):
                k = tilde_R_op(k)
            parts.append(k)
    return parts


def _localization(family, D, tilde_L_op, tilde_R_op):
    """Local part: every sector (n, p) of non-negative dimension collects
    the localizations of v(n,p) and of the remainders that the sectors
    below it raise to order p, symmetrized; all other sectors vanish."""
    out = {}
    for n in range(2, 2 * D + 1, 2):
        for p in range(_top_order(n, D) + 1):
            parts = [tilde_L_op(k)
                     for k in _collected(family, n, p, tilde_R_op)]
            if parts:
                out[(n, p)] = symmetrize(kernel_sum(parts))
    return out


def _renormalization(family, D, tilde_R_op):
    """Remainder: the first irrelevant sector of each field number
    collects the interpolated remainders of the localized sectors,
    symmetrized; localized sectors vanish and every other sector passes
    through."""
    out = {}
    for n in range(2, 2 * D + 1, 2):
        p = _top_order(n, D) + 1
        parts = _collected(family, n, p, tilde_R_op)
        if parts:
            out[(n, p)] = symmetrize(kernel_sum(parts))
    for (n, p), k in family.items():
        if (n, p) not in out and p > _top_order(n, D):
            out[(n, p)] = k
    return out


# ---------------------------------------------------------------------------
# Bulk flavor: localization onto the first site.
# ---------------------------------------------------------------------------


def tilde_L(kernel):
    """Localize all field slots onto the first site, with the
    seam-crossing sign of the source tuple."""
    _sector_check(kernel, BULK, 0)
    return _localize(kernel, lambda labels, edges: labels[0].z)


def tilde_R(kernel):
    """Path-interpolated remainder: raises the difference order by one.

    Slots 2..n telescope onto the first site one at a time: slot k walks
    from the first site to its own with the slots before it at the first
    site and the slots after it at their own sites.
    """
    _sector_check(kernel, BULK, 0)

    def walks(labels, edges):
        z = [l.z for l in labels]
        return [(k, [z[0]] * k + [None] + z[k + 1:], z[0])
                for k in range(1, len(z))]
    return _remainder(kernel, walks)


def localize_bulk(family):
    """Bulk local part: the sectors (2,0), (2,1) and (4,0)."""
    return _localization(family, BULK, tilde_L, tilde_R)


def renormalize_bulk(family):
    """Bulk remainder, collected in the (2,2) and (4,1) sectors."""
    return _renormalization(family, BULK, tilde_R)


# ---------------------------------------------------------------------------
# Edge flavor: localization onto the nearest open boundary.
# ---------------------------------------------------------------------------


def z_boundary(z, geom):
    """Vertical projection of a site onto the nearest closure row."""
    return (z[0], 0) if z[1] <= geom.M // 2 else (z[0], geom.M + 1)


def tilde_L_edge(kernel):
    """Localize a (2,0) kernel onto the boundary projection of its first
    site (both slots)."""
    _sector_check(kernel, BOUNDARY, 0)
    return _localize(kernel, lambda labels, edges: z_boundary(
        labels[0].z, kernel.geom))


def tilde_R_edge(kernel):
    """Interpolated remainder of the boundary localization: the second
    slot telescopes from the boundary point to its site (first slot kept),
    then the first slot telescopes with the second pinned at the
    boundary."""
    _sector_check(kernel, BOUNDARY, 0)

    def walks(labels, edges):
        z1 = labels[0].z
        zb = z_boundary(z1, kernel.geom)
        return [(1, [z1, None], zb), (0, [None, zb], zb)]
    return _remainder(kernel, walks)


def localize_edge(family):
    """Edge local part: the (2,0) sector."""
    return _localization(family, BOUNDARY, tilde_L_edge, tilde_R_edge)


def renormalize_edge(family):
    """Edge remainder, collected in the (2,1) sector."""
    return _renormalization(family, BOUNDARY, tilde_R_edge)


# ---------------------------------------------------------------------------
# Source flavor: localization onto the probe edge's base vertex.
# ---------------------------------------------------------------------------


def _sourced(family):
    """``family``, once every sector is checked to carry probe edges."""
    for k in family.values():
        if k.m < 1:
            raise ValueError("source operators need kernels with probe "
                             "edges; found a sourceless sector")
    return family


def tilde_L_source(kernel):
    """Localize a (2,0,1) source kernel onto the base vertex of its probe
    edge."""
    _sector_check(kernel, BOUNDARY, 1)
    return _localize(kernel, lambda labels, edges: edges[0].base)


def tilde_R_source(kernel):
    """Interpolated remainder of the source localization: the second slot
    telescopes from the edge base with the first pinned there, then the
    first slot telescopes with the second kept at its site."""
    _sector_check(kernel, BOUNDARY, 1)

    def walks(labels, edges):
        zx = edges[0].base
        return [(1, [zx, None], zx), (0, [None, labels[1].z], zx)]
    return _remainder(kernel, walks)


def localize_source(family):
    """Source local part: the (2,0,1) sector."""
    return _localization(_sourced(family), BOUNDARY, tilde_L_source,
                         tilde_R_source)


def renormalize_source(family):
    """Source remainder, collected in the (2,1,1) sector."""
    return _renormalization(_sourced(family), BOUNDARY, tilde_R_source)


# ---------------------------------------------------------------------------
# Weighted norms.
# ---------------------------------------------------------------------------

NORM_FLAVORS = ("bulk", "edge", "source-bulk", "source-edge")


def weighted_norm(kernel, flavor, kappa):
    """Sup-sum norm with tree-distance weights.

    ``bulk``: sup over (species, first site) of the weighted sum over the
    remaining sites; ``edge``: the first site's row is summed too (only
    its column is pinned) and the boundary-seeking tree distance weights
    the terms; the ``source-*`` variants pin the probe edges instead and
    measure distances to them.  Keys whose labels vanish identically or
    leave the closure do not contribute.
    """
    if flavor not in NORM_FLAVORS:
        raise ValueError(f"unknown norm flavor {flavor!r}")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    geom = kernel.geom
    groups = {}
    for (labels, edges), c in kernel.coeffs.items():
        if any(len(_expand_label(l, geom)) == 0 for l in labels):
            continue
        if any(l.z[1] + l.D[1] > geom.M + 1 for l in labels):
            continue
        key = (tuple(l.omega for l in labels),
               tuple(l.z for l in labels), edges)
        groups[key] = max(groups.get(key, 0.0), abs(c))
    buckets = defaultdict(float)
    dist = edge_tree_distance if flavor.endswith("edge") else tree_distance
    for (omegas, zs, edges), v in groups.items():
        if flavor.startswith("source"):
            d, anchor = dist(zs, edges, geom), (omegas, edges)
        else:
            d = dist(zs, (), geom)
            anchor = (omegas, zs[0][0] if flavor == "edge" else zs[0])
        buckets[anchor] += math.exp(kappa * d) * v
    return max(buckets.values(), default=0.0)


# ---------------------------------------------------------------------------
# Truncated expectations and the one-step RG map.
# ---------------------------------------------------------------------------


def _monomial_covariance(labels, table):
    """Covariance matrix of derivative field labels against a propagator
    table: each label is the row of its plain-field expansion."""
    return table.covariance([
        [(c, 0 if w > 0 else 1, site)
         for c, (w, site) in _expand_label(l, table.geom)]
        for l in labels])


def monomial_moment(labels, table):
    """Expectation of a product of fields: the Pfaffian of its covariance
    matrix (1 for no field, 0 for an odd number of fields)."""
    return pfaffian(_monomial_covariance(labels, table))


def truncated_expectation(monomials, table):
    """Joint cumulant of ``s`` even field monomials at the given
    propagator.

    Builds one covariance matrix of all fields; the moment of every
    sub-collection is the Pfaffian of its principal submatrix, followed by
    moment-cumulant inversion.  Conventions: a single empty monomial gives
    1; any empty monomial among several gives 0.
    """
    monomials = [tuple(q) for q in monomials]
    s = len(monomials)
    if s < 1:
        raise ValueError("need at least one monomial")
    for q in monomials:
        if len(q) % 2 != 0:
            raise ValueError("monomials must have even length")
    if s == 1:
        return monomial_moment(monomials[0], table)
    if any(len(q) == 0 for q in monomials):
        return 0.0 + 0.0j
    G = _monomial_covariance(
        tuple(itertools.chain.from_iterable(monomials)), table)
    return joint_cumulant(G, [len(q) for q in monomials])


def _even_subsets(n):
    out = []
    for mask in range(1 << n):
        if bin(mask).count("1") % 2 == 0:
            out.append(tuple(i for i in range(n) if mask >> i & 1))
    return out


def rg_step(family, table, s_max=2, *, term_budget=500000):
    """One truncated step of the renormalization-group map.

    For every way of picking ``s <= s_max`` kernel entries (with the 1/s!
    symmetry factor), splitting each entry's fields into external and
    contracted parts (even parts only) and taking the truncated
    expectation of the contracted monomials at the given scale, the
    external fields and the probe edges are reassembled into the next-
    scale kernel with the sign of the interleaving permutation.  Purely
    constant contributions (no external field) are dropped.

    ``family`` is a dict of sector Kernels; returns a dict keyed by
    (n, p, m).
    """
    entries = []
    geom = None
    for k in family.values():
        geom = k.geom
        for (labels, edges), c in k.coeffs.items():
            entries.append((labels, tuple(edges), c))
    acc = defaultdict(complex)
    count = 0
    for s in range(1, s_max + 1):
        fact = math.factorial(s)
        for combo in itertools.product(entries, repeat=s):
            split_choices = [
                _even_subsets(len(labels)) for labels, _, _ in combo]
            for ext_sets in itertools.product(*split_choices):
                count += 1
                if count > term_budget:
                    raise RuntimeError(
                        f"term budget {term_budget} exceeded in rg_step")
                internals = []
                ok = True
                for (labels, _, _), ext in zip(combo, ext_sets):
                    q = tuple(l for i, l in enumerate(labels)
                              if i not in ext)
                    if s > 1 and not q:
                        ok = False
                        break
                    internals.append(q)
                if not ok:
                    continue
                ext_labels = []
                order = []
                offset = 0
                int_order = []
                for (labels, _, _), ext in zip(combo, ext_sets):
                    for i in range(len(labels)):
                        if i in ext:
                            order.append(offset + i)
                        else:
                            int_order.append(offset + i)
                    ext_labels.extend(labels[i] for i in ext)
                    offset += len(labels)
                if not ext_labels:
                    continue
                val = truncated_expectation(internals, table)
                if val == 0.0:
                    continue
                sign = _parity(order + int_order)
                coeff = sign * val / fact
                for _, _, c in combo:
                    coeff *= c
                edges = tuple(sorted(
                    itertools.chain.from_iterable(e for _, e, _ in combo),
                    key=_edge_sort_key))
                acc[(tuple(ext_labels), edges)] += coeff
    out = {}
    sector_acc = defaultdict(dict)
    for (labels, edges), c in acc.items():
        if c == 0:
            continue
        sec = (len(labels), sum(l.order() for l in labels), len(edges))
        sector_acc[sec][(labels, edges)] = c
    for sec, coeffs in sector_acc.items():
        out[sec] = Kernel(geom, sec[0], sec[1], sec[2], coeffs)
    return out


# ---------------------------------------------------------------------------
# Vertex renormalizations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexRenorm:
    Z1: float
    Z2: float
    h: int

    def __post_init__(self):
        if not (math.isfinite(self.Z1) and math.isfinite(self.Z2)):
            raise ValueError("vertex renormalizations must be finite")


def extract_vertex_renorm(source_kernel, h=0):
    """Vertex renormalizations of an infinite-volume (2,0,1) source
    kernel: twice the total weight of the (+,-) slot at each unit probe
    edge."""
    if source_kernel.sector != (2, 0, 1):
        raise ValueError("expected an infinite-volume (2,0,1) kernel")
    targets = {"h": Edge((0, 0), "h"), "v": Edge((0, 0), "v")}
    sums = {"h": 0.0 + 0.0j, "v": 0.0 + 0.0j}
    for (labels, edges), c in source_kernel.coeffs.items():
        if labels[0].omega == 1 and labels[1].omega == -1:
            for key, target in targets.items():
                if edges[0] == target:
                    sums[key] += c
    return VertexRenorm(Z1=2.0 * sums["h"].real, Z2=2.0 * sums["v"].real,
                        h=h)


# weights of the free source kernel below this are dropped
_SOURCE_CUTOFF = 1e-16


def free_source_kernels(params):
    """The free-theory infinite-volume source kernel in the (2,0,1)
    sector: the vertical probe couples to the local bilinear with weight
    (1 - t2^2), the horizontal one to the convolution of the two
    exponential edge kernels with weight (1 - t1^2)."""
    t1, t2 = params.t1, params.t2
    acc = defaultdict(complex)
    v_edge = (Edge((0, 0), "v"),)
    acc[((FieldLabel(1, (0, 0), (0, 0)), FieldLabel(-1, (0, 0), (0, 1))),
         v_edge)] += 1.0 - t2 ** 2
    h_edge = (Edge((0, 0), "h"),)
    reach = max(1, int(math.log(_SOURCE_CUTOFF) / math.log(abs(t1))) + 1) \
        if 0 < abs(t1) < 1 else 1
    for y1 in range(-reach, 1):
        w1 = (-t1) ** (-y1)
        if abs(w1) < _SOURCE_CUTOFF:
            continue
        for y2 in range(1, reach + 2):
            w2 = (-t1) ** (y2 - 1)
            if abs(w2) < _SOURCE_CUTOFF:
                continue
            for om1, c1 in ((1, 1.0), (-1, -1.0)):
                for om2 in (1, -1):
                    key = ((FieldLabel(om1, (0, 0), (y1, 0)),
                            FieldLabel(om2, (0, 0), (y2, 0))), h_edge)
                    acc[key] += (1.0 - t1 ** 2) * w1 * c1 * w2
    return antisymmetrize(Kernel(None, 2, 0, 1, dict(acc)))
