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

A :class:`Kernel` is built from (and decodes to) a ``{(labels, edges):
coefficient}`` dict but keeps only integer key arrays and complex values;
every derived kernel is one reduction of its operator's image arrays.

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

import numpy as np

from .lattice import (
    Edge, _pack, _require_integers, alpha_sign, antiperiodic_wrap,
    edge_tree_distance, gamma_steps, tree_distance, tree_distances,
    z_boundary,
)
from .skewlinalg import joint_cumulant, moments_to_cumulants, pfaffian

_SITE = slice(3, 5)  # the (x1, x2) columns of a label row
_DIRECTIONS = ("h", "v")


class FieldLabel(NamedTuple):
    """One Grassmann field slot: species omega = +-1, difference order
    D = (d1, d2) with entries in 0..2, site z = (x1, x2)."""

    omega: int
    D: tuple
    z: tuple

    def validate(self, geom=None):
        _check_labels(np.array(_label_row(self)), geom)


def _label_row(label):
    (d1, d2), (x1, x2) = label.D, label.z
    return _require_integers((label.omega, d1, d2, x1, x2),
                             "field label entries")


def _edge(b1, b2, direction):
    return Edge((b1, b2), _DIRECTIONS[direction])


def _decoded(rows, make):
    """One tuple of ``make(*row)`` per key of integer rows (K, k, c), with
    one object per distinct row."""
    cache, k = {}, rows.shape[1]
    objs = [cache.get(r) or cache.setdefault(r, make(*r))
            for r in map(tuple, rows.reshape(-1, rows.shape[2]).tolist())]
    return [tuple(objs[k * i:k * i + k]) for i in range(len(rows))]


def _check_labels(labels, geom):
    """Raise on label rows (..., 5) with omega != +-1, d1 or d2 < 0, d1 + d2
    > 2 or, on a cylinder, x1 outside 1..L or a window [x2, x2 + d2] off the
    closure rows 0..M+1 (the expansion zero-extends an overhang)."""
    omega, d1, d2, x1, x2 = labels.T
    bad = (abs(omega) != 1) | (d1 < 0) | (d2 < 0) | (d1 + d2 > 2)
    if geom is not None:
        bad |= (x1 < 1) | (x1 > geom.L) | (x2 + d2 < 0) | (x2 > geom.M + 1)
    if bad.any():
        raise ValueError(f"invalid field label {labels[bad.T][0]} "
                         f"(omega, d1, d2, x1, x2)")


class Kernel:
    """A sparse kernel of fixed sector (n fields, total difference order p,
    m probe edges).

    ``Kernel(geom, n, p, m, coeffs)`` takes a dict mapping ``(labels,
    edges)`` -- a tuple of ``n`` FieldLabels and a tuple of ``m`` Edges --
    to a coefficient and keeps it, in order, as read-only arrays: ``labels``
    (K, n, 5) of rows (omega, d1, d2, x1, x2), ``edges`` (K, m, 3) of rows
    (b1, b2, 0 for "h" / 1 for "v") and complex ``values`` (K,); ``coeffs``
    decodes it afresh.  ``geom=None`` marks an infinite-volume kernel.
    """

    def __init__(self, geom, n, p, m, coeffs):
        if any(len(ls) != n or len(es) != m for ls, es in coeffs):
            raise ValueError(f"key arity mismatch in sector ({n},{p},{m})")
        labels = [[_label_row(l) for l in ls] for ls, _ in coeffs]
        edges = [(*_require_integers(e.base, "edge coordinates"),
                  _DIRECTIONS.index(e.direction))
                 for _, es in coeffs for e in es]
        K = len(coeffs)
        self._set(geom, n, p, m,
                  np.array(labels, dtype=np.int32).reshape(K, n, 5),
                  np.array(edges, dtype=np.int32).reshape(K, m, 3),
                  np.fromiter(coeffs.values(), dtype=complex, count=K))

    @classmethod
    def _of_arrays(cls, *args):
        kernel = cls.__new__(cls)
        kernel._set(*args)
        return kernel

    def _set(self, geom, n, p, m, labels, edges, values):
        self.geom, self.n, self.p, self.m = geom, n, p, m
        self.labels, self.edges, self.values = labels, edges, values
        for a in (labels, edges, values):
            a.flags.writeable = False
        self._validate()

    def _validate(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"n must be even and positive, got {self.n}")
        _check_labels(self.labels, self.geom)
        if (self.labels[..., 1:3].sum(axis=(1, 2)) != self.p).any():
            raise ValueError(f"difference orders off sector p={self.p}")
        b1, b2, vertical = self.edges.T
        if self.geom is not None and (
                (b1 < 1) | (b1 > self.geom.L) | (b2 < 1)
                | (b2 > self.geom.M - vertical)).any():
            raise ValueError("probe edge outside the lattice")

    @property
    def sector(self):
        return (self.n, self.p, self.m)

    @property
    def coeffs(self):
        labels = _decoded(self.labels, lambda w, d1, d2, *z: FieldLabel(
            w, (d1, d2), z))
        return dict(zip(zip(labels, _decoded(self.edges, _edge)),
                        self.values.tolist()))

    def __repr__(self):
        return (f"Kernel(geom={self.geom!r}, n={self.n}, p={self.p}, "
                f"m={self.m}, coeffs={self.coeffs!r})")

    def scaled(self, c):
        return Kernel._of_arrays(self.geom, *self.sector, self.labels,
                                 self.edges, c * self.values)

    def __add__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return kernel_sum([self, other])


def kernel_sum(kernels):
    """One reduction of the rows of kernels of one sector and geometry, in
    order; a single kernel is returned as it is."""
    k = kernels[0]
    if any((q.sector, q.geom) != (k.sector, k.geom) for q in kernels):
        raise ValueError("kernels of different sectors or geometries")
    if len(kernels) == 1:
        return k
    return _reduced(k.geom, *k.sector, *(
        np.concatenate([getattr(q, a) for q in kernels])
        for a in ("labels", "edges", "values")))


def _edge_sort_key(e):
    return (e.base[1], e.base[0], e.direction)


def _sorted_edges(edges):
    """Edge rows sorted within each key in ``_edge_sort_key`` order."""
    order = np.argsort(_pack(edges[..., [1, 0, 2]]), axis=1, kind="stable")
    return np.take_along_axis(edges, order[..., None], axis=1)


def _groups(*blocks):
    """Rows equal in every integer block (N, k, c): the first row of each
    group, in order of first appearance, and the group of every row."""
    key = _pack(np.concatenate([_pack(b) for b in blocks], axis=1))
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[group]


def _merge(values, *blocks):
    """``values`` summed, in row order, over rows equal in every block: the
    first row of each group and the group sums."""
    first, group = _groups(*blocks)
    sums = np.empty(len(first), dtype=complex)
    sums.real = np.bincount(group, values.real, len(first))
    sums.imag = np.bincount(group, values.imag, len(first))
    return first, sums


def _modulus(z):  # as Python's abs(complex); np.abs may differ in the last bit
    return np.hypot(z.real, z.imag)


def _reduced(geom, n, p, m, labels, edges, values):
    """The kernel of key rows: edges sorted within each row, equal keys
    merged in order of first appearance with their values summed in row
    order, exact zeros dropped."""
    edges = _sorted_edges(edges)
    first, sums = _merge(values, labels, edges)
    keep = np.abs(sums) > 0.0
    return Kernel._of_arrays(geom, n, p, m, labels[first[keep]],
                             edges[first[keep]], sums[keep])


# ---------------------------------------------------------------------------
# Expansion to plain fields and kernel equivalence.
# ---------------------------------------------------------------------------


def _label_terms(labels, geom):
    """Columns, rows, signs and validity of the plain-field terms of label
    rows (..., 5), in four slots (..., 4).  Each forward difference splits
    a term into the shifted field (+) and the unshifted one (-), horizontal
    ones first; slot t spells the choices from its high bit (0 shifted), so
    slots t < 2^order hold the terms in order.  Horizontal shifts wrap
    antiperiodically; on a cylinder the terms off the closure rows and the
    boundary-null ones (omega=+ at row 0, omega=- at row M+1) are invalid.
    """
    omega, d1, d2, x1, x2 = (labels[..., j, None] for j in range(5))
    t, ones = np.arange(4, dtype=np.int32), np.array([0, 1, 1, 2], np.int32)
    h, v = d1 - ones[t >> d2], d2 - ones[t & ((1 << d2) - 1)]
    valid = t < 1 << (d1 + d2)
    sign = np.array([1, -1, -1, 1], dtype=np.int8)
    if geom is None:
        return x1 + h, x2 + v, np.broadcast_to(sign, valid.shape), valid
    col, seam = antiperiodic_wrap(x1 - 1 + h, geom.L)
    valid &= (x2 + v >= (omega > 0)) & (x2 + v <= geom.M + (omega > 0))
    return col + 1, x2 + v, np.where(seam > 0, sign, -sign), valid


def _expansion(kernel):
    """The plain-field polynomial of a kernel: rows of sorted plain fields
    (omega, x1, x2) (E, n, 3), sorted edges (E, m, 3) and values (E,), one
    per monomial in order of first appearance; products with a repeated
    field vanish, the others carry the sign of the sort of their fields."""
    labels, n, p = kernel.labels, kernel.n, kernel.p
    col, row, sign, valid = _label_terms(labels, kernel.geom)
    orders = labels[..., 1] + labels[..., 2]
    # product term c takes term (c >> low) & (2^order - 1) of each slot
    low = p - np.cumsum(orders, axis=1, dtype=np.int32)
    c = np.arange(1 << p, dtype=np.int32)[:, None]
    terms = (c >> low[:, None]) & ((1 << orders[:, None]) - 1)
    slot = np.arange(n)
    src, c = np.nonzero(valid[np.arange(len(labels))[:, None, None], slot,
                              terms].all(axis=-1))
    idx = (src[:, None], slot, terms[src, c])
    fields = np.stack([labels[src, :, 0], col[idx], row[idx]], axis=-1)
    codes = _pack(fields)
    perm = np.argsort(codes, axis=1, kind="stable")
    rows = np.arange(len(perm))[:, None]
    live = (np.diff(codes[rows, perm]) != 0).all(axis=1)
    odd = sum(perm[:, i] > perm[:, j]
              for i in range(n) for j in range(i + 1, n)) % 2
    sign = np.where(odd, -1, 1) * sign[idx].prod(axis=1, dtype=np.int8)
    fields = fields[rows[live], perm[live]]
    edges = _sorted_edges(kernel.edges)[src[live]]
    first, sums = _merge(kernel.values[src[live]] * sign[live], fields,
                         edges)
    return fields[first], edges[first], sums


def _summed(parts):
    """Expansion rows of one monomial shape added in order."""
    if len(parts) == 1:
        return parts[0]
    fields, edges, values = (np.concatenate(a) for a in zip(*parts))
    first, sums = _merge(values, fields, edges)
    return fields[first], edges[first], sums


def _polynomial(obj, sign=1.0):
    """``{(n, m): (fields, edges, values)}``: the expansions of a Kernel, a
    dict of sector Kernels or None, times ``sign``, added in order."""
    parts = defaultdict(list)
    for k in ([] if obj is None else [obj] if isinstance(obj, Kernel)
              else obj.values()):
        fields, edges, values = _expansion(k)
        parts[(k.n, k.m)].append((fields, edges, sign * values))
    return {shape: _summed(p) for shape, p in parts.items()}


def expand_family(obj):
    """Canonical polynomial form of a Kernel, a dict of sector Kernels or
    None: {(sorted plain fields, sorted edges): coefficient}, with
    boundary-null monomials dropped."""
    out = {}
    for fields, edges, values in _polynomial(obj).values():
        out.update(zip(zip(_decoded(fields, lambda w, *z: (w, z)),
                           _decoded(edges, _edge)), values.tolist()))
    return out


def polynomial_distance(a, b):
    """Largest coefficient difference of the expanded polynomials."""
    ea, eb = _polynomial(a), _polynomial(b, -1.0)
    return max((float(_modulus(_summed([e[s] for e in (ea, eb) if s in e])[2])
                      .max(initial=0.0)) for s in ea.keys() | eb.keys()),
               default=0.0)


# ---------------------------------------------------------------------------
# Derived kernels: symmetrization, reflections, translations.
# ---------------------------------------------------------------------------


def _derive(kernel, images, p=None):
    """The kernel of the images ``(src, labels, edges, f)`` of the keys of
    ``kernel``, listed key-major: source row, label and edge rows and factor
    of each, adding ``f * c`` for the source's coefficient ``c``.  Sector and
    geometry are kept, except the difference order when ``p`` is given."""
    src, labels, edges, f = images
    return _reduced(kernel.geom, kernel.n, kernel.p if p is None else p,
                    kernel.m, labels, edges, f * kernel.values[src])


def _parity(order):
    return (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))


@lru_cache(maxsize=8)
def _perm_signs(n):
    perms = list(itertools.permutations(range(n)))
    return np.array(perms), np.array([_parity(p) for p in perms], float)


def antisymmetrize(kernel):
    """Average over signed permutations of the field slots."""
    perms, signs = _perm_signs(kernel.n)
    K, P = len(kernel.values), len(perms)
    return _derive(kernel, (
        np.repeat(np.arange(K), P),
        kernel.labels[:, perms].reshape(K * P, kernel.n, 5),
        np.repeat(kernel.edges, P, axis=0),
        np.tile(signs / math.factorial(kernel.n), K)))


def _reflect(labels, edges, axis, geom):
    """Label rows (K, n, 5) and edge rows (K, m, 3) reflected horizontally
    (axis=1) or vertically (axis=2), with the product of the label phases
    of each key: ``i omega (-1)^d1 s`` (s the sign of the antiperiodic
    wrap), resp. ``i (-1)^d2``, per label, and ``i^n = (-1)^(n/2)``."""
    omega, d1, d2, x1, x2 = np.moveaxis(labels, -1, 0)
    b1, b2, vertical = np.moveaxis(edges, -1, 0)
    labels, edges = labels.copy(), edges.copy()
    L, M = geom.L, geom.M
    if axis == 1:
        col, s = antiperiodic_wrap(L - x1 - d1, L)
        labels[..., 3] = col + 1
        edges[..., 0] = (L - 1 + vertical - b1) % L + 1
        phase = np.prod(omega * (1 - 2 * (d1 % 2)) * s, axis=-1)
    else:
        labels[..., 0] = -omega
        labels[..., 4] = M + 1 - x2 - d2
        edges[..., 1] = M + 1 - vertical - b2
        phase = 1 - 2 * (d2.sum(axis=-1) % 2)
    return labels, edges, (-1) ** (labels.shape[1] // 2) * phase


def _reflected(kernel, compositions, weight=1.0):
    """Sum over ``compositions`` (tuples of axes, applied in turn) of
    ``weight`` times the reflected kernel, field phases included."""
    geom = kernel.geom
    if geom is None:
        raise ValueError("reflections require a finite geometry")
    K, C = len(kernel.values), len(compositions)
    labels = np.repeat(kernel.labels[:, None], C, axis=1)
    edges = np.repeat(kernel.edges[:, None], C, axis=1)
    f = np.full((K, C), weight)
    for i, axes in enumerate(compositions):
        for axis in axes:
            labels[:, i], edges[:, i], phase = _reflect(
                labels[:, i], edges[:, i], axis, geom)
            f[:, i] *= phase
    return _derive(kernel, (np.repeat(np.arange(K), C),
                            labels.reshape(K * C, kernel.n, 5),
                            edges.reshape(K * C, kernel.m, 3), f.ravel()))


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
    L = kernel.geom.L
    labels, edges = kernel.labels.copy(), kernel.edges.copy()
    col, s = antiperiodic_wrap(labels[..., 3].astype(np.int64) - 1 + a, L)
    labels[..., 3] = col + 1
    edges[..., 0] = (edges[..., 0].astype(np.int64) - 1 + a) % L + 1
    return _derive(kernel, (np.arange(len(labels)), labels, edges,
                            s.prod(axis=1)))


# ---------------------------------------------------------------------------
# Localizations and path remainders.
# ---------------------------------------------------------------------------


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
    """Move every field slot of each key onto its site in ``anchor`` (K,
    2), with the seam-crossing sign of the source sites."""
    labels = kernel.labels.copy()
    labels[..., _SITE] = anchor[:, None]
    f = (-1.0) ** alpha_sign(kernel.labels[..., _SITE], kernel.geom)
    return _derive(kernel, (np.arange(len(labels)), labels, kernel.edges, f))


def _remainder(kernel, walks):
    """Path-interpolated remainder, one difference order up: for each walk
    ``(k, anchors, start)`` -- arrays (K, n, 2) and (K, 2) over the keys --
    slot k telescopes along the path from ``start`` to its own site, gaining
    the unit of each step, while every other slot i sits at ``anchors[:,
    i]``; each term carries the seam-crossing signs of the source sites and
    of its own."""
    geom, labels = kernel.geom, kernel.labels
    a_in = alpha_sign(labels[..., _SITE], geom)
    parts = []
    for k, anchors, start in walks:
        row, sigma, site, unit = gamma_steps(start, labels[:, k, _SITE],
                                             geom)
        new = labels[row]
        new[..., _SITE] = anchors[row]
        new[:, k, _SITE] = site
        new[:, k, 1:3] += unit
        parts.append((row, new, (-1.0) ** (
            a_in[row] + alpha_sign(new[..., _SITE], geom)) * sigma))
    row, new, f = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(row, kind="stable")  # key-major, walks in order
    return _derive(kernel, (row[order], new[order],
                            kernel.edges[row[order]], f[order]),
                   kernel.p + 1)


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
# Flavors: localization onto the first site (bulk), the nearest open
# boundary (edge) and the probe edge's base vertex (source).
# ---------------------------------------------------------------------------


def tilde_L(kernel):
    """Localize all field slots onto the first site, with the
    seam-crossing sign of the source tuple."""
    _sector_check(kernel, BULK, 0)
    return _localize(kernel, kernel.labels[:, 0, _SITE])


def tilde_R(kernel):
    """Path-interpolated remainder: raises the difference order by one.

    Slots 2..n telescope onto the first site one at a time: slot k walks
    from the first site to its own with the slots before it at the first
    site and the slots after it at their own sites.
    """
    _sector_check(kernel, BULK, 0)
    z = kernel.labels[..., _SITE]
    return _remainder(kernel, [
        (k, np.concatenate([np.repeat(z[:, :1], k, axis=1), z[:, k:]], 1),
         z[:, 0]) for k in range(1, kernel.n)])


def localize_bulk(family):
    """Bulk local part: the sectors (2,0), (2,1) and (4,0)."""
    return _localization(family, BULK, tilde_L, tilde_R)


def renormalize_bulk(family):
    """Bulk remainder, collected in the (2,2) and (4,1) sectors."""
    return _renormalization(family, BULK, tilde_R)


def tilde_L_edge(kernel):
    """Localize a (2,0) kernel onto the boundary projection of its first
    site (both slots)."""
    _sector_check(kernel, BOUNDARY, 0)
    return _localize(kernel, z_boundary(kernel.labels[:, 0, _SITE],
                                        kernel.geom))


def tilde_R_edge(kernel):
    """Interpolated remainder of the boundary localization: the second
    slot telescopes from the boundary point to its site (first slot kept),
    then the first slot telescopes with the second pinned at the
    boundary."""
    _sector_check(kernel, BOUNDARY, 0)
    z = kernel.labels[..., _SITE]
    zb = z_boundary(z[:, 0], kernel.geom)
    return _remainder(kernel, [(1, z, zb), (0, np.stack([zb, zb], 1), zb)])


def localize_edge(family):
    """Edge local part: the (2,0) sector."""
    return _localization(family, BOUNDARY, tilde_L_edge, tilde_R_edge)


def renormalize_edge(family):
    """Edge remainder, collected in the (2,1) sector."""
    return _renormalization(family, BOUNDARY, tilde_R_edge)


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
    return _localize(kernel, kernel.edges[:, 0, :2])


def tilde_R_source(kernel):
    """Interpolated remainder of the source localization: the second slot
    telescopes from the edge base with the first pinned there, then the
    first slot telescopes with the second kept at its site."""
    _sector_check(kernel, BOUNDARY, 1)
    z, zx = kernel.labels[..., _SITE], kernel.edges[:, 0, :2]
    return _remainder(kernel, [(1, np.stack([zx, zx], 1), zx), (0, z, zx)])


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

# The per-key distance of each norm flavor: ``delta`` or ``delta_E``.
# weighted_norm computes it for all keys of a kernel in one
# tree_distances call.
NORM_DISTANCES = {"bulk": tree_distance, "edge": edge_tree_distance,
                  "source-bulk": tree_distance,
                  "source-edge": edge_tree_distance}
NORM_FLAVORS = tuple(NORM_DISTANCES)


def weighted_norm(kernel, flavor, kappa):
    """Sup-sum norm with tree-distance weights.

    ``bulk``: sup over (species, first site) of the weighted sum over the
    remaining sites; ``edge``: the first site's row is summed too (only
    its column is pinned) and the boundary-seeking tree distance weights
    the terms; the ``source-*`` variants pin the probe edges instead and
    measure distances to them.  Keys whose labels vanish identically or
    reach off the closure rows 0..M+1 (a window [x2, x2 + d2] overhanging
    either end) do not contribute.

    The distances of all keys come from one :func:`lattice.tree_distances`
    call: keys equal up to a horizontal translation share one canonical
    row, and the rows of one terminal count share one batched
    Dreyfus-Wagner, in chunks of at most 8 MB per temporary; nothing is
    kept after the call.  Each distinct distance ``d`` gives one weight
    factor ``exp(kappa * d)``.
    """
    if flavor not in NORM_FLAVORS:
        raise ValueError(f"unknown norm flavor {flavor!r}")
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")
    geom, labels = kernel.geom, kernel.labels
    rows = np.flatnonzero(
        _label_terms(labels, geom)[3].any(axis=-1).all(axis=-1)
        & (labels[..., 4].min(axis=-1, initial=0) >= 0)
        & (labels[..., 4] + labels[..., 2] <= geom.M + 1).all(axis=-1))
    labels, edges = labels[rows], kernel.edges[rows]
    first, group = _groups(labels[..., [0, 3, 4]], edges)
    top = np.zeros(len(first))
    np.maximum.at(top, group, _modulus(kernel.values[rows]))
    labels, edges = labels[first], edges[first]
    source = flavor.startswith("source")
    dist, key = np.unique(tree_distances(
        labels[..., _SITE], edges if source else edges[:, :0], geom,
        boundary=flavor.endswith("edge")), return_inverse=True)
    factor = np.array([math.exp(kappa * d) for d in dist.tolist()])
    # pinned with the species: the probe edges or the first site (column)
    anchor = (edges if source else labels[:, :1, 3:4] if flavor == "edge"
              else labels[:, :1, _SITE])
    _, bucket = _groups(labels[..., :1], anchor)
    return float(np.bincount(bucket, factor[key] * top).max(initial=0.0))


# ---------------------------------------------------------------------------
# Truncated expectations and the one-step RG map.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=200000)
def _covariance_row(label, geom):
    """A derivative label as a row of plain-field terms ``(sign, 0 for
    omega=+ / 1 for omega=-, site)``, in expansion order."""
    col, row, sign, valid = _label_terms(np.array(_label_row(label)), geom)
    species = 0 if label.omega > 0 else 1
    return tuple((float(s), species, (c, r)) for c, r, s, ok in zip(
        col.tolist(), row.tolist(), sign.tolist(), valid.tolist()) if ok)


def _monomial_covariance(labels, table):
    """Covariance matrix of derivative field labels against a propagator
    table: each label is the row of its plain-field expansion."""
    return table.covariance([_covariance_row(l, table.geom) for l in labels])


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
    if any(len(q) % 2 for q in monomials):
        raise ValueError("monomials must have even length")
    if s == 1:
        return monomial_moment(monomials[0], table)
    if any(len(q) == 0 for q in monomials):
        return 0.0 + 0.0j
    G = _monomial_covariance(
        tuple(itertools.chain.from_iterable(monomials)), table)
    return joint_cumulant(G, [len(q) for q in monomials])


def _even_subsets(n):
    return [tuple(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n) if bin(mask).count("1") % 2 == 0]


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
    (n, p, m).  One products matrix K of all distinct labels of the
    entries is built per call.  The moment of any contracted fields is
    the Pfaffian of the skew part of the principal submatrix of K at
    their indices (a label picked twice reads its diagonal entry): the
    covariance that :func:`truncated_expectation` would build for them.
    The moment of each entry's contracted part is taken once per split,
    and the truncated expectation of s parts follows from the moments of
    their sub-collections.
    """
    entries, geom = [], None
    for k in family.values():
        geom = k.geom
        entries += [(*key, c) for key, c in k.coeffs.items()]
    index = {}
    for labels, _, _ in entries:
        for l in labels:
            index.setdefault(l, len(index))
    K = table.products([_covariance_row(l, geom) for l in index])

    def moment(idx):
        G = np.triu(K[np.ix_(idx, idx)], 1)
        return pfaffian(G - G.T)

    # each entry's splits: (external labels, contracted indices into K,
    # sign of moving the externals first, moment of the contracted part);
    # contracted parts are even, so the sign of a term is the product of
    # its entries' signs
    splits = []
    for labels, _, _ in entries:
        splits.append([])
        for ext in _even_subsets(len(labels)):
            rest = tuple(i for i in range(len(labels)) if i not in ext)
            idx = [index[labels[i]] for i in rest]
            splits[-1].append((tuple(labels[i] for i in ext), idx,
                               _parity(ext + rest), moment(idx)))

    def cumulant(parts):
        moments = {frozenset([i]): part[3] for i, part in enumerate(parts)}
        for r in range(2, len(parts) + 1):
            for sub in itertools.combinations(range(len(parts)), r):
                moments[frozenset(sub)] = moment(
                    [j for i in sub for j in parts[i][1]])
        return moments_to_cumulants(moments)[frozenset(range(len(parts)))]

    acc = defaultdict(complex)
    count = 0
    for s in range(1, s_max + 1):
        fact = math.factorial(s)
        for combo in itertools.product(range(len(entries)), repeat=s):
            edges = tuple(sorted(itertools.chain.from_iterable(
                entries[e][1] for e in combo), key=_edge_sort_key))
            for parts in itertools.product(*(splits[e] for e in combo)):
                count += 1
                if count > term_budget:
                    raise RuntimeError(
                        f"term budget {term_budget} exceeded in rg_step")
                ext_labels = tuple(itertools.chain.from_iterable(
                    part[0] for part in parts))
                if (s > 1 and not all(part[1] for part in parts)) \
                        or not ext_labels:
                    continue
                val = parts[0][3] if s == 1 else cumulant(parts)
                if val == 0.0:
                    continue
                coeff = math.prod(part[2] for part in parts) * val / fact
                for e in combo:
                    coeff *= entries[e][2]
                acc[(ext_labels, edges)] += coeff
    sectors = defaultdict(dict)
    for (labels, edges), c in acc.items():
        if c != 0:
            sectors[(len(labels), sum(sum(l.D) for l in labels),
                     len(edges))][(labels, edges)] = c
    return {sec: Kernel(geom, *sec, coeffs) for sec, coeffs in sectors.items()}


# ---------------------------------------------------------------------------
# Vertex renormalizations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexRenorm:
    Z1: float
    Z2: float

    def __post_init__(self):
        if not (math.isfinite(self.Z1) and math.isfinite(self.Z2)):
            raise ValueError("vertex renormalizations must be finite")


def extract_vertex_renorm(source_kernel):
    """Vertex renormalizations of an infinite-volume (2,0,1) source
    kernel: twice the total weight of the (+,-) slot at each unit probe
    edge."""
    if source_kernel.sector != (2, 0, 1):
        raise ValueError("expected an infinite-volume (2,0,1) kernel")
    omega, edge = source_kernel.labels[:, :, 0], source_kernel.edges[:, 0]
    pm = ((omega[:, 0] == 1) & (omega[:, 1] == -1) & (edge[:, 0] == 0)
          & (edge[:, 1] == 0))
    Z1, Z2 = np.bincount(edge[pm, 2], source_kernel.values[pm].real,
                         2).tolist()  # the "h" and the "v" edge, in order
    return VertexRenorm(Z1=2.0 * Z1, Z2=2.0 * Z2)


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
