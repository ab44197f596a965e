"""Reference covariances of linear field combinations: the pairwise double
loops that :meth:`isingcyl.propagators.PropagatorTable.products` replaces
(its full products matrix, whose strict upper triangle is the
covariance), kept as its oracle; and the set partitions that the
moment-cumulant relation sums over, the oracle of
:func:`isingcyl.skewlinalg.moments_to_cumulants`.

Every entry of a covariance matrix is summed term by term, one table block
per pair of plain fields, and the skew matrix is filled entry by entry, so
these functions are slow and only meant for small cases.
"""

from dataclasses import dataclass

import numpy as np

from isingcyl.propagators import s_eval, s_weights
from kernel_oracle import expand_label


@dataclass(frozen=True)
class ObservableField:
    """One Grassmann field occurrence inside an energy bilinear."""

    kind: str   # "phi" or "xi"
    omega: int  # 0 -> '+', 1 -> '-'
    site: tuple


def _h_composite(w, z, geom, sp, sm):
    """The mixed field H_{w,z} as a list of (coefficient, base field)."""
    terms = [(1.0 + 0.0j, ObservableField("xi", w, z))]
    s_arr = sp if w == 0 else sm
    omega_sign = 1.0 if w == 0 else -1.0
    row = z[1]
    for y in range(1, geom.L + 1):
        c = s_eval(s_arr, z[0] - y, geom.L)
        terms.append((c, ObservableField("phi", 0, (y, row))))
        terms.append((-omega_sign * c, ObservableField("phi", 1, (y, row))))
    return terms


def bilinear_fields(edge, geom, params):
    """The two constituent (composite) fields of E_x, in product order."""
    z = edge.base
    if edge.direction == "v":
        return ([(1.0 + 0.0j, ObservableField("phi", 0, z))],
                [(1.0 + 0.0j, ObservableField("phi", 1, (z[0], z[1] + 1)))])
    sp, sm = s_weights(geom, params)
    return (_h_composite(0, z, geom, sp, sm),
            _h_composite(1, (z[0] + 1, z[1]), geom, sp, sm))


def field_covariance(gc, gm, F1, F2):
    """Covariance of two composite fields; phi reads ``gc``, xi ``gm``."""
    total = 0.0 + 0.0j
    for c1, f1 in F1:
        if c1 == 0.0:
            continue
        for c2, f2 in F2:
            if c2 == 0.0:
                continue
            if f1.kind != f2.kind:
                continue  # independent Gaussians
            table = gc if f1.kind == "phi" else gm
            total += c1 * c2 * table.block(f1.site, f2.site)[f1.omega,
                                                              f2.omega]
    return total


def skew_matrix(n, entry):
    """The n x n skew matrix with upper entries ``entry(i, j)``."""
    G = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            G[i, j] = entry(i, j)
            G[j, i] = -G[i, j]
    return G


def row_covariance(rows, table):
    """Covariance of ``(coeff, omega, site)`` rows against one table."""
    fields = [[(c, ObservableField("phi", w, z)) for c, w, z in row]
              for row in rows]
    return skew_matrix(len(fields), lambda i, j: field_covariance(
        table, None, fields[i], fields[j]))


def row_products(rows, table):
    """Every entry (i, j) of the field products of ``(coeff, omega, site)``
    rows against one table, the diagonal and i > j included."""
    fields = [[(c, ObservableField("phi", w, z)) for c, w, z in row]
              for row in rows]
    G = np.zeros((len(fields), len(fields)), dtype=complex)
    for i, Fi in enumerate(fields):
        for j, Fj in enumerate(fields):
            G[i, j] = field_covariance(table, None, Fi, Fj)
    return G


def bilinear_covariance(gc, gm, edges, geom, params):
    """Covariance of the constituent fields of the energy bilinears."""
    fields = [F for e in edges for F in bilinear_fields(e, geom, params)]
    return skew_matrix(len(fields), lambda i, j: field_covariance(
        gc, gm, fields[i], fields[j]))


def label_covariance(l1, l2, table):
    """Covariance of two derivative field labels against a propagator
    table."""
    geom = table.geom
    tot = 0.0 + 0.0j
    for c1, (w1, s1) in expand_label(l1, geom):
        i1 = 0 if w1 > 0 else 1
        for c2, (w2, s2) in expand_label(l2, geom):
            i2 = 0 if w2 > 0 else 1
            tot += c1 * c2 * table.block(s1, s2)[i1, i2]
    return tot


def monomial_covariance(labels, table):
    """Covariance matrix of a tuple of derivative field labels."""
    return skew_matrix(len(labels), lambda i, j: label_covariance(
        labels[i], labels[j], table))


def set_partitions(items):
    """All partitions of a sequence, as tuples of tuples."""
    items = tuple(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        # first joins an existing block
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1:]
        # or opens a new one
        yield ((first,),) + part
