"""The three workloads: library calls on seeded inputs, each result checked
against an oracle that does not come from the code path under test.

Library functions are looked up on their modules at call time
(``kc.weighted_norm``), so a traced run sees every call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import isingcyl.freecorr as fc
import isingcyl.kernelcalc as kc
import isingcyl.multiscale as ms
import isingcyl.propagators as pr
import isingcyl.skewlinalg as sl
from isingcyl.lattice import CylinderGeometry, Edge

from inputs import BETA_C, moved_edges
from oracles import onsager_free_energy, strict_decrease_ratio

# Dyadic continuum points (criterion-6 style): z * n is a lattice site at
# every size of the series, so the error sequence carries no rounding
# jitter.  Convergence is not monotone at every dyadic pair, so these stay
# fixed rather than seeded.
SERIES_POINTS = ((0.25, 0.5), (0.625, 0.375))
SERIES_T1 = 0.5


def merge_families(a, b):
    out = dict(a)
    for sec, k in b.items():
        out[sec] = out[sec] + k if sec in out else k
    return out


# -- kernel_calculus -------------------------------------------------------

KAPPA, EPS = 0.1, 0.05


def _inequality(lhs, rhs_terms):
    lhs_v = lhs()
    rhs_v = sum(t() for t in rhs_terms)
    return max(lhs_v - rhs_v, 0.0), (lhs_v, rhs_v)


def run_kernel_calculus(inp, checks):
    for v4, v2 in inp["zeros"]:
        checks.check(
            "structural zero: localize_bulk of a (4,0) kernel",
            lambda: _zero(kc.localize_bulk({(4, 0): v4})), 1e-14)
        checks.check(
            "structural zero: localize_edge of a (2,0) kernel",
            lambda: _zero(kc.localize_edge({(2, 0): v2})), 1e-14)

    pairs = (("bulk", kc.localize_bulk, kc.renormalize_bulk),
             ("edge", kc.localize_edge, kc.renormalize_edge),
             ("source", kc.localize_source, kc.renormalize_source))
    for fams in inp["splits"]:
        for flavor, loc, ren in pairs:
            def split(raw=fams[flavor], loc=loc, ren=ren):
                fam = {sec: kc.symmetrize(k) for sec, k in raw.items()}
                both = merge_families(loc(fam), ren(fam))
                d = kc.polynomial_distance(both, fam)
                return d, d
            checks.check(f"{flavor} localize + renormalize recombine", split,
                         1e-12)

    wn = kc.weighted_norm
    for r in inp["norms"]:
        f = r["bulk2"]
        checks.check("bulk remainder norm, sector (2,2)", lambda: _inequality(
            lambda: wn(kc.renormalize_bulk(f)[(2, 2)], "bulk", KAPPA),
            [lambda: wn(f[(2, 2)], "bulk", KAPPA),
             lambda: wn(f[(2, 1)], "bulk", KAPPA + EPS) / EPS,
             lambda: wn(f[(2, 0)], "bulk", KAPPA + 2 * EPS) / EPS ** 2]),
            1e-9)
        g = r["bulk4"]
        checks.check("bulk remainder norm, sector (4,1)", lambda: _inequality(
            lambda: wn(kc.renormalize_bulk(g)[(4, 1)], "bulk", KAPPA),
            [lambda: wn(g[(4, 1)], "bulk", KAPPA),
             lambda: 3 * wn(g[(4, 0)], "bulk", KAPPA + EPS) / EPS]),
            1e-9)
        e = r["edge"]
        checks.check("edge remainder norm, sector (2,1)", lambda: _inequality(
            lambda: wn(kc.renormalize_edge(e)[(2, 1)], "edge", KAPPA),
            [lambda: wn(e[(2, 1)], "edge", KAPPA),
             lambda: 2 * wn(e[(2, 0)], "edge", KAPPA + EPS) / EPS]),
            1e-9)
        s = r["source"]
        for flavor in ("source-bulk", "source-edge"):
            checks.check(
                f"{flavor} remainder norm, sector (2,1)",
                lambda flavor=flavor: _inequality(
                    lambda: wn(kc.renormalize_source(s)[(2, 1)], flavor,
                               KAPPA),
                    [lambda: wn(s[(2, 1)], flavor, KAPPA),
                     lambda: 2 * wn(s[(2, 0)], flavor, KAPPA + EPS) / EPS]),
                1e-9)


def _zero(family):
    d = kc.polynomial_distance(family, {})
    return d, d


# -- cylinder_tables -------------------------------------------------------

def run_cylinder_tables(inp, checks):
    p = pr.ModelParams.critical(SERIES_T1)
    z, zp = SERIES_POINTS

    def series():
        target = pr.scaling_propagator(z, zp, 1.0, 1.0, p)
        errs = []
        for n in (16, 32, 64, 128, 256):
            geom = CylinderGeometry(n, n)
            table = (pr.critical_propagator_fourier(geom, p) if n <= 32
                     else pr.LazyCriticalTable(geom, p))
            blk = table.block((int(z[0] * n), int(z[1] * n)),
                              (int(zp[0] * n), int(zp[1] * n))) * n
            errs.append(float(np.max(np.abs(blk - target))))
        return strict_decrease_ratio(errs), errs
    checks.check("continuum propagator error decreases with n", series, 1.0)

    geom = CylinderGeometry(32, 32)
    cut = ms.ScaleCutoff.for_geometry(geom)
    state = {}

    def telescoping():
        state["tables"] = {h: ms.scale_propagator(h, geom, p, cut)
                           for h in (ms.LEQ,) + cut.scales}
        smooth = ms.smooth_sector_propagator(geom, p, cut)
        acc = sum(t.data for t in state["tables"].values())
        d = float(np.max(np.abs(acc - smooth.data)))
        return d, d
    checks.check("scale tables telescope to the smooth sector", telescoping,
                 1e-12)

    def cancellations():
        worst = 0.0
        M = geom.M
        for tab in state["tables"].values():
            for zz in inp["probes"]:
                for x in inp["columns"]:
                    bd, bu = tab.block((x, 0), zz), tab.block((x, M + 1), zz)
                    worst = max(worst, abs(bd[0, 0]), abs(bd[0, 1]),
                                abs(bu[1, 0]), abs(bu[1, 1]))
        return worst, worst
    checks.check("per-scale boundary cancellations", cancellations, 1e-12)

    def split():
        state["split"] = sp = ms.bulk_edge_split(-2, geom, p, cut)
        d = float(np.max(np.abs(sp["bulk"].data + sp["edge"].data
                                - sp["full"].data)))
        return d, d
    checks.check("bulk + edge = full on the N=256 torus", split, 1e-12)

    def decay():
        d, nrm = ms.edge_decay_profile(-2, geom, p, cut, split=state["split"])
        fit = ms.envelope_decay_fit(d, nrm, bin_width=8)
        resid = 1.0 - fit["r_squared"] if fit["rate"] > 0 else math.inf
        return resid, (float(fit["rate"]), float(fit["r_squared"]))
    # gate R^2 > 0.9, as residual 1 - R^2 against 0.1; the margin is thin
    # (R^2 = 0.916) and is reported, never loosened
    checks.check("edge decay fit R^2 above 0.9", decay, 0.1)

    offsets = inp["offsets"]

    def infinite():
        negs = [(-a, -b) for a, b in offsets]
        state["inf"] = vals = pr.infinite_propagator(offsets + negs, p)
        worst = max(float(np.max(np.abs(vals[z] + vals[zn].T)))
                    for z, zn in zip(offsets, negs))
        return worst, [vals[z] for z in offsets]
    checks.check("infinite-volume propagator antisymmetry", infinite, 1e-9)

    def large_cylinder():
        n = 256
        table = pr.LazyCriticalTable(CylinderGeometry(n, n), p)
        c = n // 2
        worst = 0.0
        for off in offsets:
            blk = table.block((c + off[0], c + off[1]), (c, c))
            worst = max(worst, float(np.max(np.abs(blk - state["inf"][off]))))
        return worst, worst
    # a 256x256 cylinder seen from its centre is the infinite plane up to
    # corrections of order |z| / n
    checks.check("infinite volume vs the centre of a 256x256 cylinder",
                 large_cylinder, 1e-2)

    for case in inp["small"]:
        g, t1, beta = case["geom"], case["t1"], case["beta"]

        def fourier(g=g, t1=t1):
            pc = pr.ModelParams.critical(t1)
            d = pr.max_block_difference(
                pr.critical_propagator_fourier(g, pc),
                pr.critical_propagator_direct(g, pc), g.sites())
            return d, d
        checks.check(f"Fourier vs dense inversion {g.L}x{g.M}", fourier,
                     1e-10)

        def massive(g=g, beta=beta):
            pm = pr.ModelParams.from_beta(beta)
            d = pr.max_block_difference(
                pr.massive_propagator(g, pm),
                pr.massive_propagator_direct(g, pm), g.sites())
            return d, d
        checks.check(f"massive propagator vs dense inversion {g.L}x{g.M}",
                     massive, 1e-10)


# -- gaussian_moments ------------------------------------------------------

ONSAGER_BAND = 1.0       # |log Z/(LM) - f| <= ONSAGER_BAND / M
BOUNDARY_TERM_TOL = 0.05  # agreement of the fitted 1/M term at M=16, 20


def _cumulant_from_moments(m):
    """Order-2 and order-3 joint cumulants from moments keyed by index
    frozensets (explicit partition formulas)."""
    f = frozenset
    c2 = m[f({0, 1})] - m[f({0})] * m[f({1})]
    c3 = (m[f({0, 1, 2})] - m[f({0, 1})] * m[f({2})]
          - m[f({0, 2})] * m[f({1})] - m[f({1, 2})] * m[f({0})]
          + 2.0 * m[f({0})] * m[f({1})] * m[f({2})])
    return c2, c3


def _plain_moment(labels, table):
    """<prod of plain fields>: brute-force Pfaffian of the table entries."""
    k = len(labels)
    g = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = labels[i], labels[j]
            g[i, j] = table.block(a.z, b.z)[0 if a.omega > 0 else 1,
                                            0 if b.omega > 0 else 1]
            g[j, i] = -g[i, j]
    return sl.pfaffian_bruteforce(g)


def run_gaussian_moments(inp, checks):
    iso = pr.ModelParams.critical(math.sqrt(2.0) - 1.0)
    correlators = {}
    for case in inp["large"]:
        g, edges = case["geom"], case["edges"]

        def invariance(g=g, edges=edges, shift=case["shift"]):
            corr = correlators.get(g)
            if corr is None:
                corr = correlators[g] = fc.FreeCorrelator(g, iso)
            a = corr.energy_cumulant(edges)
            b = corr.energy_cumulant(moved_edges(edges, g, shift))
            return abs(a - b), (a, b)
        dirs = "".join(e.direction for e in edges)
        checks.check(f"order-{len(edges)} ({dirs}) cumulant {g.L}x{g.M} "
                     "under translation and reflection", invariance, 1e-10)

    t1 = inp["small_t1"]
    pc = pr.ModelParams.critical(t1)
    J1, J2 = math.atanh(pc.t1), math.atanh(pc.t2)
    g45 = CylinderGeometry(4, 5)
    edges = inp["small_edges"]
    state = {}

    def enumeration():
        state["rec"] = rec = fc.enumerate_gibbs(g45, 1.0, J1, J2, edges)
        z_pf = fc.partition_function_free(g45, 1.0, J1, J2)
        d = abs(z_pf - rec.Z) / rec.Z
        return d, (z_pf, rec.Z)
    checks.check("partition function 4x5 vs enumeration", enumeration, 1e-10)

    def small_cumulants():
        c2, c3 = _cumulant_from_moments(state["rec"].moments)
        corr = fc.FreeCorrelator(g45, pc)
        a2 = corr.energy_cumulant(edges[:2])
        a3 = corr.energy_cumulant(edges)
        return max(abs(a2 - c2), abs(a3 - c3)), (a2, a3, c2, c3)
    checks.check("order-2/3 cumulants 4x5 vs enumeration", small_cumulants,
                 1e-9)

    def small_partition():
        g = CylinderGeometry(4, 3)
        z_pf = fc.partition_function_free(g, inp["z_beta"])
        z_en = fc.enumerate_gibbs(g, inp["z_beta"]).Z
        return abs(z_pf - z_en) / z_en, (z_pf, z_en)
    checks.check("partition function 4x3 vs enumeration", small_partition,
                 1e-10)

    def scaling():
        p = pr.ModelParams.critical(SERIES_T1)
        z, zp = SERIES_POINTS
        target = fc.scaling_correlation([z, zp], (2, 2), 1.0, 1.0, p)
        errs = []
        for n in (8, 16, 32):
            corr = fc.FreeCorrelator(CylinderGeometry(n, n), p)
            cum = corr.energy_cumulant(
                [Edge((int(z[0] * n), int(z[1] * n)), "v"),
                 Edge((int(zp[0] * n), int(zp[1] * n)), "v")])
            errs.append(abs(cum * n ** 2 - target))
        return strict_decrease_ratio(errs), errs
    checks.check("vertical-pair cumulant * n^2 approaches the continuum",
                 scaling, 1.0)

    terms = {}
    for n in (16, 20):
        def onsager(n=n):
            if "f_bulk" not in state:
                state["f_bulk"] = onsager_free_energy(BETA_C)
            z = fc.partition_function_free(CylinderGeometry(n, n), BETA_C)
            terms[n] = n * (math.log(z) / (n * n) - state["f_bulk"])
            return abs(terms[n]), terms[n]
        checks.check(f"log Z/(LM) at {n}x{n} within {ONSAGER_BAND}/M of "
                     "Onsager", onsager, ONSAGER_BAND)

    def boundary_term():
        d = abs(terms[16] - terms[20])
        return d, d
    checks.check("boundary term M*(log Z/(LM) - f) agrees at M=16, 20",
                 boundary_term, BOUNDARY_TERM_TOL)

    def wide():
        L, M = 64, 16
        z = fc.partition_function_free(CylinderGeometry(L, M), BETA_C)
        d = M * abs(math.log(z) / (L * M) - state["f_bulk"])
        return d, d
    checks.check("log Z/(LM) at 64x16 within the Onsager band", wide,
                 ONSAGER_BAND,
                 known_defect="2**(L*M) overflows in partition_function_free "
                              "(ROADMAP open item 4)")

    def pfaffians():
        worst = 0.0
        for a in inp["skew"]:
            ref = sl.pfaffian_bruteforce(a)
            worst = max(worst, abs(sl.pfaffian(a) - ref) / max(1.0, abs(ref)))
        a = inp["skew_large"]
        pf, det = sl.pfaffian(a), np.linalg.det(a)
        worst = max(worst, abs(pf * pf - det) / max(1.0, abs(det)))
        return worst, worst
    checks.check("pfaffian vs brute force and pf^2 = det", pfaffians, 1e-10)

    fam = inp["rg_family"]

    def rg_free():
        state["table"] = table = pr.critical_propagator_fourier(
            CylinderGeometry(12, 5), pr.ModelParams.critical(0.5))
        d = kc.polynomial_distance(kc.rg_step({}, table, s_max=2), {})
        return d, d
    checks.check("rg_step of the free theory is empty", rg_free, 1e-14)

    def rg_equivariance():
        table = state["table"]
        out = kc.rg_step(fam, table, s_max=2)
        a = inp["rg_shift"]
        worst = kc.polynomial_distance(
            kc.rg_step({s: kc.horizontal_translate(k, a)
                        for s, k in fam.items()}, table, s_max=2),
            {s: kc.horizontal_translate(k, a) for s, k in out.items()})
        for axis in (1, 2):
            worst = max(worst, kc.polynomial_distance(
                kc.rg_step({s: kc.reflect_kernel(k, axis)
                            for s, k in fam.items()}, table, s_max=2),
                {s: kc.reflect_kernel(k, axis) for s, k in out.items()}))
        return worst, worst
    checks.check("rg_step commutes with translation and reflections",
                 rg_equivariance, 1e-12)

    def truncated():
        table = state["table"]
        worst = 0.0
        values = []
        for labels in inp["rg_labels"]:
            A, B, C = tuple(labels[:2]), tuple(labels[2:4]), tuple(labels[4:])
            e = {s: _plain_moment(tuple(itertools.chain.from_iterable(s)),
                                  table)
                 for s in [(A,), (B,), (C,), (A, B), (A, C), (B, C),
                           (A, B, C)]}
            ref2 = e[(A, B)] - e[(A,)] * e[(B,)]
            ref3 = (e[(A, B, C)] - e[(A, B)] * e[(C,)]
                    - e[(A, C)] * e[(B,)] - e[(B, C)] * e[(A,)]
                    + 2.0 * e[(A,)] * e[(B,)] * e[(C,)])
            got2 = kc.truncated_expectation([A, B], table)
            got3 = kc.truncated_expectation([A, B, C], table)
            worst = max(worst, abs(got2 - ref2), abs(got3 - ref3))
            values.extend((got2, got3))
        return worst, values
    checks.check("truncated expectations vs Pfaffian moments", truncated,
                 1e-12)


RUNNERS = {
    "kernel_calculus": run_kernel_calculus,
    "cylinder_tables": run_cylinder_tables,
    "gaussian_moments": run_gaussian_moments,
}
