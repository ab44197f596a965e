"""Acceptance battery: the library's verifiable headline properties.

Each criterion compares a computed quantity against an independent oracle
(dense inversion, exhaustive enumeration, continuum formulas, structural
identities) and reports the measured residual, its tolerance, and the
elapsed time.  :func:`run_acceptance` executes all of them and returns one
record per criterion; the CLI ``selftest`` verb and the acceptance test
suite both consume it.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .freecorr import (
    FreeCorrelator, enumerate_cumulant, enumerate_gibbs,
    partition_function_free, scaling_correlation,
)
from .kernelcalc import (
    FieldLabel, Kernel, expand_family, extract_vertex_renorm,
    free_source_kernels, horizontal_translate, localize_bulk, localize_edge,
    localize_source, monomial_moment, polynomial_distance, reflect_kernel,
    renormalize_bulk, renormalize_edge, renormalize_source, rg_step,
    symmetrize, truncated_expectation, weighted_norm,
)
from .lattice import CylinderGeometry, Edge
from .multiscale import (
    ScaleCutoff, bulk_edge_split, edge_decay_profile, envelope_decay_fit,
    scale_propagator, split_residual, telescoping_residual,
)
from .propagators import (
    ModelParams, boundary_residual, critical_propagator_direct,
    critical_propagator_fourier, ghat_matrix, horizontal_momenta,
    max_block_difference, scaling_series, solve_k2_roots,
)
from .skewlinalg import pfaffian, pfaffian_bruteforce

GEOMS = [(4, 3), (8, 3), (4, 5), (8, 5)]
T1S = (0.3, 0.5, math.sqrt(2.0) - 1.0)


def _margin(gate, distance):
    """How many times ``distance`` fits into ``gate`` (None at 0)."""
    return float(gate) / float(distance) if distance else None


def _record(cid, name, residual, tol, t0, time_cap=None, ok=True, detail=""):
    seconds = time.perf_counter() - t0
    passed = ok and residual <= tol and (time_cap is None
                                         or seconds <= time_cap)
    return {"criterion": cid, "name": name, "residual": float(residual),
            "tolerance": float(tol), "margin": _margin(tol, residual),
            "seconds": round(seconds, 3), "time_cap": time_cap,
            "passed": bool(passed), "detail": detail}


def check_pfaffian(seed=0):
    """pf(A)^2 = det(A) on random skew matrices; brute-force agreement."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dim in range(4, 41, 2):
        for _ in range(100):
            B = rng.normal(size=(dim, dim))
            A = B - B.T
            pf = pfaffian(A)
            det = np.linalg.det(A)
            worst = max(worst, abs(pf * pf - det) / max(1.0, abs(det)))
    for dim in range(2, 13, 2):
        for _ in range(3):
            B = rng.normal(size=(dim, dim))
            A = B - B.T
            worst = max(worst, abs(pfaffian(A) - pfaffian_bruteforce(A))
                        / max(1.0, abs(pfaffian_bruteforce(A))))
    return _record(1, "pfaffian squares to the determinant", worst, 1e-10,
                   t0, time_cap=5.0)


def check_partition(seed=0):
    """Momentum-factorized partition function vs exhaustive Gibbs sums."""
    t0 = time.perf_counter()
    beta_c = math.atanh(math.sqrt(2.0) - 1.0)
    worst = 0.0
    for (L, M) in [(2, 1), (4, 2), (4, 3)]:
        geom = CylinderGeometry(L, M)
        for beta in (0.3, beta_c, 0.6):
            z_pf = partition_function_free(geom, beta)
            z_enum = enumerate_gibbs(geom, beta).Z
            worst = max(worst, abs(z_pf - z_enum) / z_enum)
    return _record(2, "partition function vs enumeration", worst, 1e-10,
                   t0, time_cap=10.0)


def check_propagator_oracle(seed=0):
    """Critical Fourier propagator vs dense inversion of A_c."""
    t0 = time.perf_counter()
    worst = 0.0
    for (L, M) in GEOMS:
        geom = CylinderGeometry(L, M)
        for t1 in T1S:
            p = ModelParams.critical(t1)
            tf = critical_propagator_fourier(geom, p)
            td = critical_propagator_direct(geom, p)
            worst = max(worst, max_block_difference(tf, td, geom.sites()))
    return _record(3, "Fourier propagator vs dense inversion", worst, 1e-10,
                   t0, time_cap=30.0)


def check_boundary_and_symmetries(seed=0):
    """Closure-row cancellations and momentum-space identities."""
    t0 = time.perf_counter()
    worst = 0.0
    for (L, M) in GEOMS:
        geom = CylinderGeometry(L, M)
        tf = critical_propagator_fourier(geom, ModelParams.critical(0.5))
        worst = max(worst, boundary_residual(tf, [(1, 2), (L, 1)],
                                             range(1, L + 1)))
    for t1 in T1S:
        p = ModelParams.critical(t1)
        for (L, M) in GEOMS:
            for k1 in horizontal_momenta(L):
                for k2 in solve_k2_roots(k1, M, p):
                    g = ghat_matrix(k1, k2, p)
                    gm2 = ghat_matrix(k1, -k2, p)
                    gm1 = ghat_matrix(-k1, k2, p)
                    phase = np.exp(-2j * k2 * (M + 1))
                    worst = max(worst,
                                abs(g[0, 0] - gm2[0, 0]),
                                abs(g[0, 0] + gm1[0, 0]),
                                abs(g[0, 0] - gm1[1, 1]),
                                abs(g[0, 1] - gm1[0, 1]),
                                abs(g[0, 1] + gm2[1, 0]),
                                abs(g[0, 1] + phase * g[1, 0]))
    return _record(4, "boundary cancellations and momentum symmetries",
                   worst, 1e-12, t0)


def check_energy_cumulants(seed=0):
    """Pfaffian/cumulant energy correlations vs exhaustive enumeration."""
    t0 = time.perf_counter()
    geom = CylinderGeometry(4, 3)
    t1 = math.sqrt(2.0) - 1.0
    beta = math.atanh(t1)
    params = ModelParams.critical(t1)
    corr = FreeCorrelator(geom, params)
    tuples = [
        [Edge((1, 1), "h"), Edge((3, 2), "h")],
        [Edge((1, 1), "v"), Edge((3, 2), "v")],
        [Edge((1, 1), "h"), Edge((3, 2), "v")],
        [Edge((1, 1), "h"), Edge((2, 3), "h"), Edge((4, 2), "h")],
        [Edge((1, 1), "v"), Edge((2, 2), "v"), Edge((4, 1), "v")],
        [Edge((1, 1), "h"), Edge((2, 2), "v"), Edge((4, 2), "h")],
    ]
    worst = 0.0
    for edges in tuples:
        got = corr.energy_cumulant(edges)
        oracle = enumerate_cumulant(geom, beta, 1.0, 1.0, edges)
        worst = max(worst, abs(got - oracle))
    return _record(5, "energy cumulants vs enumeration", worst, 1e-9, t0,
                   time_cap=60.0)


def check_scaling_limit(seed=0):
    """Rescaled lattice quantities approach the continuum cylinder."""
    t0 = time.perf_counter()
    p = ModelParams.critical(0.5)
    # dyadic points: the rescaled lattice sites z*n are exact integers at
    # every halving, so the error sequence is free of rounding jitter
    z, zp = (0.25, 0.5), (0.625, 0.375)
    _, prop_errs = scaling_series(z, zp, p, (16, 32, 64, 128, 256))
    corr_target = scaling_correlation([z, zp], (2, 2), 1.0, 1.0, p)
    corr_errs = []
    for n in (8, 16, 32):
        geom = CylinderGeometry(n, n)
        corr = FreeCorrelator(geom, p)
        cum = corr.energy_cumulant(
            [Edge((int(z[0] * n), int(z[1] * n)), "v"),
             Edge((int(zp[0] * n), int(zp[1] * n)), "v")])
        corr_errs.append(abs(cum * n ** 2 - corr_target))
    ok = (all(a > b for a, b in zip(prop_errs, prop_errs[1:]))
          and all(a > b for a, b in zip(corr_errs, corr_errs[1:])))
    detail = (f"propagator errors {['%.2e' % e for e in prop_errs]}, "
              f"correlation errors {['%.2e' % e for e in corr_errs]}")
    return _record(6, "scaling limit convergence", prop_errs[-1], 1.0, t0,
                   time_cap=300.0, ok=ok, detail=detail)


def check_multiscale(seed=0):
    """Scale telescoping, per-scale cancellations, bulk/edge split."""
    t0 = time.perf_counter()
    geom = CylinderGeometry(32, 32)
    p = ModelParams.critical(0.5)
    cut = ScaleCutoff.for_geometry(geom)
    worst = telescoping_residual(geom, p, cut)
    for h in (cut.h_star + 1, -2, 0):
        worst = max(worst, boundary_residual(
            scale_propagator(h, geom, p, cut), [(1, 3), (5, 8)], (1, 7)))
    sp = bulk_edge_split(-2, geom, p, cut)
    worst = max(worst, split_residual(sp))
    d, nrm = edge_decay_profile(-2, geom, p, cut, split=sp)
    fit = envelope_decay_fit(d, nrm, bin_width=8)
    ok = fit["rate"] > 0 and fit["r_squared"] > 0.9
    detail = (f"edge decay rate {fit['rate']:.3f}, "
              f"R^2 {fit['r_squared']:.3f}")
    rec = _record(7, "multiscale reconstruction and bulk/edge split",
                  worst, 1e-12, t0, ok=ok, detail=detail)
    # the R^2 gate's margin: the allowed 1 - R^2 over the fitted one
    rec["r2_margin"] = _margin(1.0 - 0.9, 1.0 - fit["r_squared"])
    return rec


def _rand_kernel(rng, geom, n, p, nkeys=3, base=1, width=4):
    acc = {}
    for _ in range(nkeys):
        D = [[0, 0] for _ in range(n)]
        for _ in range(p):
            while True:
                i = rng.integers(0, n)
                a = rng.integers(0, 2)
                if sum(D[i]) < 2:
                    D[i][a] += 1
                    break
        zs = tuple(
            (geom.wrap_x1(base + int(rng.integers(0, width))),
             int(rng.integers(1, geom.M + 1 - D[k][1])))
            for k in range(n))
        labels = tuple(FieldLabel(int(rng.choice([1, -1])), tuple(d), z)
                       for d, z in zip(D, zs))
        acc[(labels, ())] = float(rng.normal())
    return Kernel(geom, n, p, 0, acc)


def _rand_source(rng, geom, n, p, nkeys=3, base=1, width=4):
    k = _rand_kernel(rng, geom, n, p, nkeys, base, width)
    ex = Edge((geom.wrap_x1(base + 1), 2), "h")
    acc = {(labels, (ex,)): c for (labels, _), c in k.coeffs.items()}
    return Kernel(geom, n, p, 1, acc)


def _family_sum(a, b):
    out = dict(a)
    for key, v in b.items():
        out[key] = out[key] + v if key in out else v
    return out


def _family_max(fam):
    return max((abs(v) for v in expand_family(fam).values()), default=0.0)


def check_kernel_cancellations(seed=0):
    """Structural zeros of the localizations; split-and-recombine
    identities of the three localization/renormalization pairs."""
    t0 = time.perf_counter()
    geom = CylinderGeometry(12, 5)
    rng = np.random.default_rng(seed)
    cancel = 0.0
    for i in range(200):
        v4 = _rand_kernel(rng, geom, 4, 0, nkeys=2, base=1 + i % geom.L)
        cancel = max(cancel, _family_max(localize_bulk({(4, 0): v4})))
        v2 = _rand_kernel(rng, geom, 2, 0, nkeys=2, base=1 + i % geom.L)
        cancel = max(cancel, _family_max(localize_edge({(2, 0): v2})))
    decomp = 0.0
    for _ in range(5):
        base = int(rng.integers(1, geom.L + 1))
        fam = {sec: symmetrize(_rand_kernel(rng, geom, *sec, base=base))
               for sec in [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)]}
        both = _family_sum(localize_bulk(fam), renormalize_bulk(fam))
        decomp = max(decomp, polynomial_distance(both, fam))
        fam = {sec: symmetrize(_rand_kernel(rng, geom, *sec, base=base))
               for sec in [(2, 0), (2, 1), (2, 2)]}
        both = _family_sum(localize_edge(fam), renormalize_edge(fam))
        decomp = max(decomp, polynomial_distance(both, fam))
        fam = {sec: symmetrize(_rand_source(rng, geom, *sec, base=base))
               for sec in [(2, 0), (2, 1), (2, 2)]}
        both = _family_sum(localize_source(fam), renormalize_source(fam))
        decomp = max(decomp, polynomial_distance(both, fam))
    ok = cancel < 1e-14
    detail = f"structural-zero residual {cancel:.2e} (tol 1e-14)"
    return _record(8, "kernel cancellations and decompositions", decomp,
                   1e-12, t0, ok=ok, detail=detail)


def check_norm_battery(seed=0, runs=50):
    """Remainder-operator norm bounds with their explicit constants, at
    decay rate kappa = 0.1 and rate loss eps = 0.05."""
    t0 = time.perf_counter()
    kappa, eps = 0.1, 0.05
    geom = CylinderGeometry(12, 5)
    rng = np.random.default_rng(seed)
    violation = 0.0
    for _ in range(runs):
        base = int(rng.integers(1, geom.L + 1))
        fam = {sec: _rand_kernel(rng, geom, *sec, base=base)
               for sec in [(2, 0), (2, 1), (2, 2)]}
        lhs = weighted_norm(renormalize_bulk(fam)[(2, 2)], "bulk", kappa)
        rhs = (weighted_norm(fam[(2, 2)], "bulk", kappa)
               + weighted_norm(fam[(2, 1)], "bulk", kappa + eps) / eps
               + weighted_norm(fam[(2, 0)], "bulk", kappa + 2 * eps)
               / eps ** 2)
        violation = max(violation, lhs - rhs)

        fam = {sec: _rand_kernel(rng, geom, *sec, base=base)
               for sec in [(4, 0), (4, 1)]}
        lhs = weighted_norm(renormalize_bulk(fam)[(4, 1)], "bulk", kappa)
        rhs = (weighted_norm(fam[(4, 1)], "bulk", kappa)
               + 3 * weighted_norm(fam[(4, 0)], "bulk", kappa + eps) / eps)
        violation = max(violation, lhs - rhs)

        fam = {sec: _rand_kernel(rng, geom, *sec, base=base)
               for sec in [(2, 0), (2, 1)]}
        lhs = weighted_norm(renormalize_edge(fam)[(2, 1)], "edge", kappa)
        rhs = (weighted_norm(fam[(2, 1)], "edge", kappa)
               + 2 * weighted_norm(fam[(2, 0)], "edge", kappa + eps) / eps)
        violation = max(violation, lhs - rhs)

        fam = {sec: _rand_source(rng, geom, *sec, base=base)
               for sec in [(2, 0), (2, 1)]}
        lhs = weighted_norm(renormalize_source(fam)[(2, 1)], "source-bulk",
                            kappa)
        rhs = (weighted_norm(fam[(2, 1)], "source-bulk", kappa)
               + 2 * weighted_norm(fam[(2, 0)], "source-bulk",
                                   kappa + eps) / eps)
        violation = max(violation, lhs - rhs)
    return _record(9, "remainder norm inequality battery",
                   max(violation, 0.0), 1e-9, t0, time_cap=10.0,
                   detail=f"{runs} runs per inequality at "
                          f"kappa={kappa}, eps={eps}")


def check_vertex_constants(seed=0):
    """Free-theory vertex renormalizations (2 t2*, 1 - t2*^2)."""
    t0 = time.perf_counter()
    worst = 0.0
    for t1 in (0.3, 0.5):
        params = ModelParams.critical(t1)
        vz = extract_vertex_renorm(free_source_kernels(params))
        worst = max(worst, abs(vz.Z1 - 2.0 * params.t2),
                    abs(vz.Z2 - (1.0 - params.t2 ** 2)))
    return _record(10, "free-theory vertex constants", worst, 1e-12, t0)


def check_rg_step(seed=0):
    """One-step RG map sanity: free theory, symmetry preservation,
    cumulant oracles."""
    t0 = time.perf_counter()
    geom = CylinderGeometry(12, 5)
    table = critical_propagator_fourier(geom, ModelParams.critical(0.5))
    rng = np.random.default_rng(seed)
    ok = rg_step({}, table, s_max=2) == {}
    worst = 0.0
    fam = {(2, 0): _rand_kernel(rng, geom, 2, 0, nkeys=2),
           (4, 0): _rand_kernel(rng, geom, 4, 0, nkeys=2)}
    out = rg_step(fam, table, s_max=2)
    moved = {sec: horizontal_translate(k, 3) for sec, k in fam.items()}
    worst = max(worst, polynomial_distance(
        rg_step(moved, table, s_max=2),
        {sec: horizontal_translate(k, 3) for sec, k in out.items()}))
    for axis in (1, 2):
        refl = {sec: reflect_kernel(k, axis) for sec, k in fam.items()}
        worst = max(worst, polynomial_distance(
            rg_step(refl, table, s_max=2),
            {sec: reflect_kernel(k, axis) for sec, k in out.items()}))
    oracle = 0.0
    for _ in range(5):
        labels = [FieldLabel(int(rng.choice([1, -1])), (0, 0),
                             (int(rng.integers(1, geom.L + 1)),
                              int(rng.integers(1, geom.M + 1))))
                  for _ in range(6)]
        A, B, C = tuple(labels[:2]), tuple(labels[2:4]), tuple(labels[4:])
        got2 = truncated_expectation([A, B], table)
        ref2 = (monomial_moment(A + B, table)
                - monomial_moment(A, table) * monomial_moment(B, table))
        oracle = max(oracle, abs(got2 - ref2))
        got3 = truncated_expectation([A, B, C], table)
        e = {s: monomial_moment(tuple(itertools.chain.from_iterable(s)),
                                table)
             for s in [(A,), (B,), (C,), (A, B), (A, C), (B, C), (A, B, C)]}
        ref3 = (e[(A, B, C)] - e[(A, B)] * e[(C,)] - e[(A, C)] * e[(B,)]
                - e[(B, C)] * e[(A,)] + 2.0 * e[(A,)] * e[(B,)] * e[(C,)])
        oracle = max(oracle, abs(got3 - ref3))
    ok = ok and oracle < 1e-9
    detail = f"cumulant oracle residual {oracle:.2e} (tol 1e-9)"
    return _record(11, "one-step RG map sanity", worst, 1e-12, t0,
                   ok=ok, detail=detail)


CHECKS = (
    check_pfaffian, check_partition, check_propagator_oracle,
    check_boundary_and_symmetries, check_energy_cumulants,
    check_scaling_limit, check_multiscale, check_kernel_cancellations,
    check_norm_battery, check_vertex_constants, check_rg_step,
)


def run_acceptance(seed=0, only=None):
    """Run all acceptance criteria (or the subset of ids in ``only``)."""
    records = []
    for cid, check in enumerate(CHECKS, start=1):
        if only is not None and cid not in only:
            continue
        records.append(check(seed=seed))
    return records
