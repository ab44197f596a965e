"""Reference kernel operators: one dict accumulation loop per operator
and the symmetrization as a sum of separately built reflected kernels, the
forms that :mod:`isingcyl.kernelcalc` computes on integer key arrays
through one shared reduction, kept as its oracle.  Like the library, the
localizations and remainders keep the probe edges of each key unchanged.

The label-level maps (field-label and edge reflections, boundary
projections, interpolation paths, the difference expansion of a label and
the plain-field polynomial of a kernel, summed exactly) are written out
here one label or key at a time; only the seam-crossing sign and the
antiperiodic wrap come from :mod:`isingcyl.lattice`.  Kernels enter and
leave through the dict form (``Kernel(geom, n, p, m, coeffs)`` and
``kernel.coeffs``).

The family operators (localization and renormalization of a dict of
sector kernels, in the bulk, edge and source flavors) list their sectors
by hand and call the library's kernel operators, so their outputs compare
exactly with the library's power-counting rule.  The one-step RG map at
the end builds one covariance per term, where the library reads every
term from one products matrix.
"""

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

from isingcyl import kernelcalc as kc
from isingcyl.kernelcalc import FieldLabel, Kernel
from isingcyl.lattice import Edge, alpha_sign, antiperiodic_wrap, per_L


# ---------------------------------------------------------------------------
# Label-level maps, one label, edge or path at a time.
# ---------------------------------------------------------------------------


def _edge_sort_key(e):
    """The order of the edges within a key: by row, column, direction."""
    return (e.base[1], e.base[0], e.direction)


def reflect_label(label, axis, geom):
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


def z_boundary(z, geom):
    """Vertical projection of a site onto the nearest closure row."""
    return (z[0], 0) if z[1] <= geom.M // 2 else (z[0], geom.M + 1)


def gamma_steps(z, zp, geom):
    """Telescoping steps ``(sigma, site, unit)`` of the canonical path from
    z to z': first vertically, then horizontally the short way round; at
    the half-circumference tie it stays inside the raw coordinate
    interval."""
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


@lru_cache(maxsize=None)
def expand_label(label, geom):
    """Derivative-expanded field as ((coeff, (omega, site)), ...).

    Horizontal shifts wrap antiperiodically at the seam; vertical shifts
    leaving the closure drop their term (fields vanish outside it), and
    the boundary-null combinations (omega=+ at row 0, omega=- at row M+1)
    are removed.
    """
    L = None if geom is None else geom.L
    M = None if geom is None else geom.M
    terms = [(1.0, label.z)]
    for _ in range(label.D[0]):
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
    for _ in range(label.D[1]):
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
            if label.omega > 0 and x2 == 0:
                continue
            if label.omega < 0 and x2 == M + 1:
                continue
        out.append((c, (label.omega, (x1, x2))))
    return tuple(out)


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


def expand_exact(kernel):
    """Canonical polynomial form, summed exactly: {(sorted plain fields,
    sorted edges): (total, N, mass)}, with boundary-null monomials dropped.
    Each term w = c * sign * prod(s) is +-c, an exact float, so ``total``
    -- a pair of Fractions, real and imaginary part -- is the exact sum of
    the monomial's N terms, and ``mass`` the pair of exact sums of |Re w|
    and |Im w|."""
    out = {}
    for (labels, edges), c in kernel.coeffs.items():
        expansions = [expand_label(l, kernel.geom) for l in labels]
        ekey = tuple(sorted(edges, key=_edge_sort_key))
        for combo in itertools.product(*expansions):
            mono, sign = _canonical_monomial(f for _, f in combo)
            if mono is None:
                continue
            w = c * sign * math.prod(s for s, _ in combo)
            w = (Fraction(w.real), Fraction(w.imag))
            total, N, mass = out.get((mono, ekey), ((0, 0), 0, (0, 0)))
            out[(mono, ekey)] = (tuple(t + x for t, x in zip(total, w)),
                                 N + 1,
                                 tuple(m + abs(x) for m, x in zip(mass, w)))
    return out


# ---------------------------------------------------------------------------
# Kernel operators, one accumulation loop each.
# ---------------------------------------------------------------------------


def _prune(acc):
    return {k: v for k, v in acc.items() if abs(v) > 0.0}


def _sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def kernel_sum(kernels):
    acc = dict(kernels[0].coeffs)
    for k in kernels[1:]:
        for key, v in k.coeffs.items():
            acc[key] = acc.get(key, 0.0) + v
        acc = _prune(acc)
    first = kernels[0]
    return Kernel(first.geom, first.n, first.p, first.m, acc)


def scaled(kernel, c):
    return Kernel(kernel.geom, kernel.n, kernel.p, kernel.m,
                  {k: c * v for k, v in kernel.coeffs.items()})


def antisymmetrize(kernel):
    fact = 1
    for i in range(2, kernel.n + 1):
        fact *= i
    acc = defaultdict(complex)
    for (labels, edges), c in kernel.coeffs.items():
        ekey = tuple(sorted(edges, key=_edge_sort_key))
        for perm in itertools.permutations(range(kernel.n)):
            acc[(tuple(labels[i] for i in perm), ekey)] += \
                _sign(perm) * c / fact
    return Kernel(kernel.geom, kernel.n, kernel.p, kernel.m, _prune(acc))


def reflect_kernel(kernel, axis):
    geom = kernel.geom
    acc = defaultdict(complex)
    for (labels, edges), c in kernel.coeffs.items():
        phase = 1.0 + 0.0j
        new = []
        for l in labels:
            ph, nl = reflect_label(l, axis, geom)
            phase *= ph
            new.append(nl)
        ekey = tuple(sorted((reflect_edge(e, axis, geom) for e in edges),
                            key=_edge_sort_key))
        acc[(tuple(new), ekey)] += phase * c
    return Kernel(geom, kernel.n, kernel.p, kernel.m, _prune(acc))


def symmetrize(kernel):
    """Antisymmetrize, then average the kernel and its three reflected
    images, each built as a kernel of its own."""
    base = antisymmetrize(kernel)
    r1 = reflect_kernel(base, 1)
    r2 = reflect_kernel(base, 2)
    r12 = reflect_kernel(r1, 2)
    return scaled(kernel_sum([base, r1, r2, r12]), 0.25)


def horizontal_translate(kernel, a):
    geom = kernel.geom
    acc = defaultdict(complex)
    for (labels, edges), c in kernel.coeffs.items():
        sign = 1.0
        new = []
        for l in labels:
            m, s = antiperiodic_wrap(l.z[0] - 1 + a, geom.L)
            sign *= s
            new.append(FieldLabel(l.omega, l.D, (m + 1, l.z[1])))
        ekey = tuple(sorted(
            (Edge((geom.wrap_x1(e.base[0] + a), e.base[1]), e.direction)
             for e in edges), key=_edge_sort_key))
        acc[(tuple(new), ekey)] += sign * c
    return Kernel(geom, kernel.n, kernel.p, kernel.m, _prune(acc))


def _localized(kernel, anchor):
    geom = kernel.geom
    acc = defaultdict(complex)
    for (labels, edges), c in kernel.coeffs.items():
        z = anchor(labels, edges)
        sign = (-1.0) ** alpha_sign([l.z for l in labels], geom)
        new = tuple(FieldLabel(l.omega, l.D, z) for l in labels)
        acc[(new, edges)] += sign * c
    return Kernel(geom, kernel.n, kernel.p, kernel.m, _prune(acc))


def tilde_L(kernel):
    return _localized(kernel, lambda labels, edges: labels[0].z)


def tilde_L_edge(kernel):
    return _localized(kernel, lambda labels, edges: z_boundary(
        labels[0].z, kernel.geom))


def tilde_L_source(kernel):
    return _localized(kernel, lambda labels, edges: edges[0].base)


def _interp_terms(anchor_sites, moving_index, path_from, path_to, labels,
                  edges, coeff, geom, acc):
    """Accumulate the interpolation terms for one field moving along the
    path ``path_from -> path_to`` while the others sit at
    ``anchor_sites``; adds one derivative unit to the moving slot."""
    a_in = alpha_sign([l.z for l in labels], geom)
    mv = labels[moving_index]
    for sigma, site, unit in gamma_steps(path_from, path_to, geom):
        new = []
        sites = []
        for i, l in enumerate(labels):
            if i == moving_index:
                nd = (mv.D[0] + unit[0], mv.D[1] + unit[1])
                new.append(FieldLabel(mv.omega, nd, site))
                sites.append(site)
            else:
                new.append(FieldLabel(l.omega, l.D, anchor_sites[i]))
                sites.append(anchor_sites[i])
        sign = (-1.0) ** (a_in + alpha_sign(sites, geom)) * sigma
        acc[(tuple(new), edges)] += sign * coeff


def tilde_R(kernel):
    """Two-field kernels interpolate the second slot from the first site;
    four-field kernels telescope slots 2, 3, 4 onto the first site one at
    a time."""
    geom = kernel.geom
    acc = defaultdict(complex)
    for (labels, edges), c in kernel.coeffs.items():
        z = [l.z for l in labels]
        if kernel.n == 2:
            _interp_terms([z[0], None], 1, z[0], z[1], labels, edges, c,
                          geom, acc)
        else:
            _interp_terms([z[0], None, z[2], z[3]], 1, z[0], z[1],
                          labels, edges, c, geom, acc)
            _interp_terms([z[0], z[0], None, z[3]], 2, z[0], z[2],
                          labels, edges, c, geom, acc)
            _interp_terms([z[0], z[0], z[0], None], 3, z[0], z[3],
                          labels, edges, c, geom, acc)
    return Kernel(geom, kernel.n, kernel.p + 1, kernel.m, _prune(acc))


def tilde_R_edge(kernel):
    geom = kernel.geom
    acc = defaultdict(complex)
    for (labels, edges), c in kernel.coeffs.items():
        z1, z2 = labels[0].z, labels[1].z
        zb = z_boundary(z1, geom)
        _interp_terms([z1, None], 1, zb, z2, labels, edges, c, geom, acc)
        _interp_terms([None, zb], 0, zb, z1, labels, edges, c, geom, acc)
    return Kernel(geom, 2, 1, kernel.m, _prune(acc))


def tilde_R_source(kernel):
    """The second slot telescopes from the edge base with the first pinned
    there, then the first slot telescopes with the second kept at its
    site, written out without :func:`_interp_terms`."""
    geom = kernel.geom
    acc = defaultdict(complex)
    for (labels, edges), c in kernel.coeffs.items():
        z1, z2 = labels[0].z, labels[1].z
        zx = edges[0].base
        a_in = alpha_sign([z1, z2], geom)
        for sigma, site, unit in gamma_steps(zx, z2, geom):
            new = (FieldLabel(labels[0].omega, labels[0].D, zx),
                   FieldLabel(labels[1].omega,
                              (labels[1].D[0] + unit[0],
                               labels[1].D[1] + unit[1]), site))
            sign = (-1.0) ** (a_in + alpha_sign([zx, site], geom)) * sigma
            acc[(new, edges)] += sign * c
        for sigma, site, unit in gamma_steps(zx, z1, geom):
            new = (FieldLabel(labels[0].omega,
                              (labels[0].D[0] + unit[0],
                               labels[0].D[1] + unit[1]), site),
                   FieldLabel(labels[1].omega, labels[1].D, z2))
            sign = (-1.0) ** (a_in + alpha_sign([site, z2], geom)) * sigma
            acc[(new, edges)] += sign * c
    return Kernel(geom, 2, 1, kernel.m, _prune(acc))


# ---------------------------------------------------------------------------
# Family operators: the localized sectors of each flavor written out.
# ---------------------------------------------------------------------------

# the (n, p) sectors each flavor's tilde operators accept, with their m
SECTORS = {"bulk": ({(2, 0), (2, 1), (4, 0)}, 0),
           "edge": ({(2, 0)}, 0),
           "source": ({(2, 0)}, 1)}


def localize_bulk(family):
    out = {}
    v20 = family.get((2, 0))
    v21 = family.get((2, 1))
    if v20 is not None:
        out[(2, 0)] = kc.symmetrize(kc.tilde_L(v20))
    parts = []
    if v21 is not None:
        parts.append(kc.tilde_L(v21))
    if v20 is not None:
        parts.append(kc.tilde_L(kc.tilde_R(v20)))
    if parts:
        out[(2, 1)] = kc.symmetrize(kc.kernel_sum(parts))
    v40 = family.get((4, 0))
    if v40 is not None:
        out[(4, 0)] = kc.symmetrize(kc.tilde_L(v40))
    return out


def renormalize_bulk(family):
    out = {}
    parts22 = []
    if (2, 2) in family:
        parts22.append(family[(2, 2)])
    if (2, 1) in family:
        parts22.append(kc.tilde_R(family[(2, 1)]))
    if (2, 0) in family:
        parts22.append(kc.tilde_R(kc.tilde_R(family[(2, 0)])))
    if parts22:
        out[(2, 2)] = kc.symmetrize(kc.kernel_sum(parts22))
    parts41 = []
    if (4, 1) in family:
        parts41.append(family[(4, 1)])
    if (4, 0) in family:
        parts41.append(kc.tilde_R(family[(4, 0)]))
    if parts41:
        out[(4, 1)] = kc.symmetrize(kc.kernel_sum(parts41))
    for key, k in family.items():
        if key not in {(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)}:
            out[key] = k
    return out


def _localize_quadratic(family, tilde_L_op):
    out = {}
    if (2, 0) in family:
        out[(2, 0)] = kc.symmetrize(tilde_L_op(family[(2, 0)]))
    return out


def _renormalize_quadratic(family, tilde_R_op):
    out = {}
    parts = []
    if (2, 1) in family:
        parts.append(family[(2, 1)])
    if (2, 0) in family:
        parts.append(tilde_R_op(family[(2, 0)]))
    if parts:
        out[(2, 1)] = kc.symmetrize(kc.kernel_sum(parts))
    for key, k in family.items():
        if key not in {(2, 0), (2, 1)}:
            out[key] = k
    return out


def _source_check(family):
    for k in family.values():
        if k.m < 1:
            raise ValueError("sourceless sector")


def localize_edge(family):
    return _localize_quadratic(family, kc.tilde_L_edge)


def renormalize_edge(family):
    return _renormalize_quadratic(family, kc.tilde_R_edge)


def localize_source(family):
    _source_check(family)
    return _localize_quadratic(family, kc.tilde_L_source)


def renormalize_source(family):
    _source_check(family)
    return _renormalize_quadratic(family, kc.tilde_R_source)



# ---------------------------------------------------------------------------
# The one-step RG map, one truncated expectation per term.
# ---------------------------------------------------------------------------


def rg_step(family, table, s_max=2):
    """:func:`isingcyl.kernelcalc.rg_step` with a covariance built for
    every term by :func:`isingcyl.kernelcalc.truncated_expectation`."""
    entries, geom = [], None
    for k in family.values():
        geom = k.geom
        entries += [(*key, c) for key, c in k.coeffs.items()]
    acc = defaultdict(complex)
    for s in range(1, s_max + 1):
        fact = math.factorial(s)
        for combo in itertools.product(entries, repeat=s):
            # the even subsets of each entry's slots, by increasing mask
            splits = [[tuple(i for i in range(len(labels)) if mask >> i & 1)
                       for mask in range(1 << len(labels))
                       if bin(mask).count("1") % 2 == 0]
                      for labels, _, _ in combo]
            for ext_sets in itertools.product(*splits):
                internals = [
                    tuple(l for i, l in enumerate(labels) if i not in ext)
                    for (labels, _, _), ext in zip(combo, ext_sets)]
                slots = [(i in ext, l) for (labels, _, _), ext in zip(
                    combo, ext_sets) for i, l in enumerate(labels)]
                ext_labels = [l for e, l in slots if e]
                if (s > 1 and not all(internals)) or not ext_labels:
                    continue
                val = kc.truncated_expectation(internals, table)
                if val == 0.0:
                    continue
                # externals first, each group in slot order
                order = ([j for j, (e, _) in enumerate(slots) if e]
                         + [j for j, (e, _) in enumerate(slots) if not e])
                coeff = _sign(order) * val / fact
                for _, _, c in combo:
                    coeff *= c
                edges = tuple(sorted(
                    itertools.chain.from_iterable(e for _, e, _ in combo),
                    key=_edge_sort_key))
                acc[(tuple(ext_labels), edges)] += coeff
    sectors = defaultdict(dict)
    for (labels, edges), c in acc.items():
        if c != 0:
            sectors[(len(labels), sum(sum(l.D) for l in labels),
                     len(edges))][(labels, edges)] = c
    return {sec: Kernel(geom, *sec, coeffs) for sec, coeffs in sectors.items()}
