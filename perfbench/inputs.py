"""Seeded inputs of the three workloads.

Everything random comes from ``numpy.random.default_rng(seed)``, so one
seed gives one input set.  The sizes are fixed per workload and only the
positions, couplings and coefficients are drawn, which keeps the work of
a pass nearly the same from seed to seed.
"""

from __future__ import annotations

import math

import numpy as np

from isingcyl.kernelcalc import FieldLabel, Kernel
from isingcyl.lattice import CylinderGeometry, Edge

WORKLOADS = ("kernel_calculus", "cylinder_tables", "gaussian_moments")

BULK_SECTORS = ((2, 0), (2, 1), (2, 2), (4, 0), (4, 1))
EDGE_SECTORS = ((2, 0), (2, 1), (2, 2))
SOURCE_SECTORS = ((2, 0), (2, 1), (2, 2))


def random_kernel(rng, geom, n, p, *, nkeys=3, base=1, width=4,
                  probe=None, values=None):
    """A kernel of sector (n, p) with ``nkeys`` random monomials.

    The ``p`` unit differences are spread over the fields with at most two
    per field; sites lie in the ``width`` columns from ``base`` on.  With a
    ``probe`` edge the kernel is a source kernel (one probe edge).  The
    coefficients come from ``values`` if given, else from ``rng``.
    """
    values = rng if values is None else values
    coeffs = {}
    edges = () if probe is None else (probe,)
    for _ in range(nkeys):
        orders = [[0, 0] for _ in range(n)]
        placed = 0
        while placed < p:
            i, axis = int(rng.integers(n)), int(rng.integers(2))
            if sum(orders[i]) < 2:
                orders[i][axis] += 1
                placed += 1
        labels = []
        for d1, d2 in orders:
            x1 = geom.wrap_x1(base + int(rng.integers(width)))
            x2 = int(rng.integers(1, geom.M + 1 - d2))
            omega = 1 if rng.integers(2) else -1
            labels.append(FieldLabel(omega, (d1, d2), (x1, x2)))
        coeffs[(tuple(labels), edges)] = float(values.normal())
    return Kernel(geom, n, p, len(edges), coeffs)


def random_family(rng, geom, sectors, base, probe=None, values=None):
    return {sec: random_kernel(rng, geom, *sec, base=base, probe=probe,
                               values=values)
            for sec in sectors}


def random_edges(rng, geom, directions):
    """Pairwise distinct edges with the given directions ("h"/"v")."""
    edges = []
    while len(edges) < len(directions):
        d = directions[len(edges)]
        top = geom.M if d == "h" else geom.M - 1
        e = Edge((int(rng.integers(1, geom.L + 1)),
                  int(rng.integers(1, top + 1))), d)
        if e not in edges:
            edges.append(e)
    return edges


def moved_edges(edges, geom, shift):
    """The edges translated by ``shift`` columns and reflected top to
    bottom: a symmetry of the cylinder's spin model."""
    out = []
    for e in edges:
        x1, x2 = e.base
        x2r = geom.M + 1 - x2 if e.direction == "h" else geom.M - x2
        out.append(Edge((geom.wrap_x1(x1 + shift), x2r), e.direction))
    return out


def random_skew(rng, n):
    b = rng.normal(size=(n, n))
    return b - b.T


# -- kernel_calculus -------------------------------------------------------

KC_GEOM = (12, 5)
KC_ZERO_PAIRS = 24   # (4,0) and (2,0) kernels for the structural zeros
KC_FAMILIES = 1      # families through the three split-and-recombine pairs
KC_NORM_ROUNDS = 1   # rounds of the remainder norm inequalities
# Species, sites and difference orders come from this fixed layout seed;
# the run seed draws the coefficients.  The Steiner work of a tree distance
# depends on the sites and varies fivefold between random layouts (a pass
# took 6 to 28 s over layout seeds 0..9, median 15 s), and the species
# decide how keys group in a norm, so a fixed layout gives every seed the
# same work and the same memory.  Layout 3 takes about 7 s per pass, which
# leaves several passes in a run.
KC_LAYOUT_SEED = 3


def kernel_calculus(seed):
    rng = np.random.default_rng(KC_LAYOUT_SEED)
    values = np.random.default_rng(seed)
    geom = CylinderGeometry(*KC_GEOM)
    zeros = []
    for i in range(KC_ZERO_PAIRS):
        base = 1 + i % geom.L
        zeros.append((random_kernel(rng, geom, 4, 0, nkeys=2, base=base,
                                    values=values),
                      random_kernel(rng, geom, 2, 0, nkeys=2, base=base,
                                    values=values)))
    splits, norms = [], []
    for _ in range(KC_FAMILIES):
        base = int(rng.integers(1, geom.L + 1))
        probe = Edge((geom.wrap_x1(base + 1), 2), "h")
        splits.append({
            "bulk": random_family(rng, geom, BULK_SECTORS, base,
                                  values=values),
            "edge": random_family(rng, geom, EDGE_SECTORS, base,
                                  values=values),
            "source": random_family(rng, geom, SOURCE_SECTORS, base, probe,
                                    values=values),
        })
    for _ in range(KC_NORM_ROUNDS):
        base = int(rng.integers(1, geom.L + 1))
        probe = Edge((geom.wrap_x1(base + 1), 2), "h")
        norms.append({
            "bulk2": random_family(rng, geom, ((2, 0), (2, 1), (2, 2)), base,
                                   values=values),
            "bulk4": random_family(rng, geom, ((4, 0), (4, 1)), base,
                                   values=values),
            "edge": random_family(rng, geom, ((2, 0), (2, 1)), base,
                                  values=values),
            "source": random_family(rng, geom, ((2, 0), (2, 1)), base,
                                    probe, values=values),
        })
    return {"geom": geom, "zeros": zeros, "splits": splits, "norms": norms}


# -- cylinder_tables -------------------------------------------------------

SMALL_GEOMS = ((4, 3), (4, 5), (6, 3), (6, 4), (8, 3), (8, 5))


def cylinder_tables(seed):
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(SMALL_GEOMS), size=2, replace=False)
    small = [{"geom": CylinderGeometry(*SMALL_GEOMS[i]),
              "t1": float(rng.uniform(0.3, 0.6)),
              "beta": float(rng.uniform(0.2, 0.7))} for i in picks]
    # probe sites of the per-scale boundary cancellations on 32x32
    probes = [(int(rng.integers(1, 33)), int(rng.integers(1, 33)))
              for _ in range(3)]
    columns = [int(x) for x in rng.integers(1, 33, size=2)]
    # offsets for the infinite-volume propagator, in the box |z_i| <= 4.
    # (4, 4) needs the most torus doublings in that box (N = 1024), so it
    # is always included and every seed runs the same doubling loop.
    offsets = [(4, 4)]
    while len(offsets) < 5:
        z = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        if z != (0, 0) and z not in offsets:
            offsets.append(z)
    return {"small": small, "probes": probes, "columns": columns,
            "offsets": offsets}


# -- gaussian_moments ------------------------------------------------------

def gaussian_moments(seed):
    rng = np.random.default_rng(seed)
    g32, g64 = CylinderGeometry(32, 32), CylinderGeometry(64, 64)
    g45 = CylinderGeometry(4, 5)
    g12 = CylinderGeometry(12, 5)
    large = [
        {"geom": g32, "edges": random_edges(rng, g32, "hv"),
         "shift": int(rng.integers(1, 32))},
        {"geom": g32, "edges": random_edges(rng, g32, "hvh"),
         "shift": int(rng.integers(1, 32))},
        {"geom": g64, "edges": random_edges(rng, g64, "hv"),
         "shift": int(rng.integers(1, 64))},
        {"geom": g64, "edges": random_edges(rng, g64, "hvv"),
         "shift": int(rng.integers(1, 64))},
    ]
    labels = []
    for _ in range(5):
        labels.append([FieldLabel(1 if rng.integers(2) else -1, (0, 0),
                                  (int(rng.integers(1, g12.L + 1)),
                                   int(rng.integers(1, g12.M + 1))))
                       for _ in range(6)])
    return {
        "large": large,
        "small_t1": float(rng.uniform(0.3, 0.55)),
        "small_edges": random_edges(rng, g45, "hvh"),
        "z_beta": float(rng.uniform(0.2, 0.8)),
        "skew": [random_skew(rng, n) for n in (8, 10, 12)],
        "skew_large": random_skew(rng, 60),
        "rg_family": {(2, 0): random_kernel(rng, g12, 2, 0, nkeys=2),
                      (4, 0): random_kernel(rng, g12, 4, 0, nkeys=2)},
        "rg_shift": int(rng.integers(1, g12.L)),
        "rg_labels": labels,
    }


GENERATORS = {
    "kernel_calculus": kernel_calculus,
    "cylinder_tables": cylinder_tables,
    "gaussian_moments": gaussian_moments,
}


def generate(workload, seed):
    return GENERATORS[workload](seed)


BETA_C = math.atanh(math.sqrt(2.0) - 1.0)
