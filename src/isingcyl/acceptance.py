"""Acceptance battery: the library's verifiable headline properties.

Each criterion compares a computed quantity against an independent oracle
(dense inversion, exhaustive enumeration, continuum formulas, structural
identities) and reports the measured residual, its tolerance, and the
elapsed time.  :func:`run_acceptance` executes all of them and returns one
record per criterion; the CLI ``selftest`` verb and the acceptance test
suite both consume it.  Each oracle comparison is computed in one function
here, called by its criterion and, through a ``*_report`` that returns the
fields it emits, by the CLI verb of its name.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .freecorr import (
    CorrelationRequest, FreeCorrelator, enumerate_gibbs,
    log_partition_function_free, scaling_correlation,
)
from .kernelcalc import (
    FieldLabel, Kernel, _LOG_MAX, expand_family, extract_vertex_renorm,
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
    massive_propagator, massive_propagator_direct, max_block_difference,
    scaling_series, solve_k2_roots,
)
from .skewlinalg import moments_to_cumulants, pfaffian, pfaffian_bruteforce

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


def _oracle_residual(table, geom, params, variant):
    """Entrywise distance of ``table`` from the dense inversion."""
    oracle = (critical_propagator_direct if variant == "critical"
              else massive_propagator_direct)(geom, params)
    return max_block_difference(table, oracle, geom.sites())


def _closure_residual(table, geom):
    """Closure-row residual at (1, 1), (1, 2), (L, 1) and (L, M)."""
    L, M = geom.L, geom.M
    return boundary_residual(table, [(1, 1), (1, min(2, M)), (L, 1), (L, M)],
                             range(1, L + 1))


def propagator_report(geom, params, variant, *, verify):
    """The critical Fourier or massive table; with ``verify`` its distance
    from the dense inversion and, if critical, its closure-row residual."""
    table = (critical_propagator_fourier if variant == "critical"
             else massive_propagator)(geom, params)
    report = {"variant": table.variant, "table": table}
    if verify:
        report["oracle_residual"] = _oracle_residual(table, geom, params,
                                                     variant)
        if variant == "critical":
            report["boundary_residual"] = _closure_residual(table, geom)
    return report


def _exp_or_none(log_value):
    """exp(log_value) where it fits a float, else None (JSON null)."""
    return (math.exp(log_value)
            if log_value <= _LOG_MAX else None)


def partition_report(geom, beta, J1, J2, *, verify):
    """log Z by momentum factorization (Z where it fits a float); with
    ``verify`` the enumeration's too, and |Z / Z_enum - 1| from the logs."""
    log_z = log_partition_function_free(geom, beta, J1, J2)
    report = {"Z": _exp_or_none(log_z), "log_Z": log_z}
    if verify:
        rec = enumerate_gibbs(geom, beta, J1, J2)
        report.update(Z_enumeration=_exp_or_none(rec.log_Z),
                      log_Z_enumeration=rec.log_Z,
                      delta_rel=abs(math.expm1(log_z - rec.log_Z)),
                      enumeration_configurations=rec.configurations,
                      enumeration_levels=rec.levels)
    return report


def correlation_report(request, *, verify):
    """The request's energy moment or cumulant by the route named in
    ``variant``; with ``verify`` the enumeration's value and the distance."""
    corr = FreeCorrelator(request.geom, request.params)
    moment = request.mode == "moment"
    value = (corr.energy_moment(request.edges) if moment
             else corr.energy_cumulant(request.edges))
    report = {"mode": request.mode, "value": value,
              "variant": "pfaffian" if moment else "connected-loops"}
    if verify:
        # the spin model's (beta, J1 = 1, J2) at the request's (t1, t2)
        beta = math.atanh(request.params.t1)
        rec = enumerate_gibbs(request.geom, beta, 1.0, math.atanh(
            request.params.t2) / beta, request.edges)
        oracle = (rec.moments if moment else moments_to_cumulants(
            rec.moments))[frozenset(range(len(request.edges)))]
        report.update(oracle=oracle, oracle_delta=abs(value - oracle),
                      enumeration_configurations=rec.configurations,
                      enumeration_levels=rec.levels)
    return report


def _strictly_decreasing(values):
    return all(a > b for a, b in zip(values, values[1:]))


def scaling_report(z, zp, params, sizes):
    """The continuum block between ``z`` and ``z'``, the error series of
    the rescaled n x n lattice blocks and whether it falls strictly."""
    target, errors = scaling_series(z, zp, params, sizes)
    return {"target_block": target.tolist(),
            "series": [{"a": 1.0 / n, "n": n, "error": err}
                       for n, err in zip(sizes, errors)],
            "strictly_decreasing": _strictly_decreasing(errors)}


def multiscale_report(geom, params, h, bin_width):
    """Telescoping residual of the scale tables; at scale ``h`` (None:
    the lowest) the bulk/edge split residual and the edge decay profile
    (distances, norms) with its envelope fit in bins of ``bin_width``."""
    cut = ScaleCutoff.for_geometry(geom)
    reconstruction = telescoping_residual(geom, params, cut)
    if h is None:
        h = min(cut.scales, default=0)
    split = bulk_edge_split(h, geom, params, cut)
    d, nrm = edge_decay_profile(h, geom, params, cut, split=split)
    if bin_width is None:
        # at least four envelope bins across the sampled distance range
        bin_width = max(1, int(np.ptp(d) // 4))
    return {"h": h, "h_star": cut.h_star,
            "reconstruction_residual": reconstruction,
            "bulk_edge_residual": split_residual(split),
            "edge_decay_fit": envelope_decay_fit(d, nrm, bin_width=bin_width),
            "edge_decay_profile": (d, nrm)}


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
            ref = pfaffian_bruteforce(A)
            worst = max(worst, abs(pfaffian(A) - ref) / max(1.0, abs(ref)))
    return _record(1, "pfaffian squares to the determinant", worst, 1e-10,
                   t0, time_cap=5.0)


def check_partition(seed=0):
    """Momentum-factorized partition function vs exhaustive Gibbs sums."""
    t0 = time.perf_counter()
    beta_c = math.atanh(math.sqrt(2.0) - 1.0)
    worst = max(partition_report(CylinderGeometry(L, M), beta, 1.0, 1.0,
                                 verify=True)["delta_rel"]
                for (L, M) in [(2, 1), (4, 2), (4, 3)]
                for beta in (0.3, beta_c, 0.6))
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
            worst = max(worst, _oracle_residual(
                critical_propagator_fourier(geom, p), geom, p, "critical"))
    return _record(3, "Fourier propagator vs dense inversion", worst, 1e-10,
                   t0, time_cap=30.0)


def check_boundary_and_symmetries(seed=0):
    """Closure-row cancellations and momentum-space identities."""
    t0 = time.perf_counter()
    worst = 0.0
    for (L, M) in GEOMS:
        geom = CylinderGeometry(L, M)
        worst = max(worst, _closure_residual(critical_propagator_fourier(
            geom, ModelParams.critical(0.5)), geom))
    for t1 in T1S:
        p = ModelParams.critical(t1)
        for (L, M) in GEOMS:
            k1 = horizontal_momenta(L)
            k2 = solve_k2_roots(k1, M, p)
            k1 = k1[:, None]
            g = ghat_matrix(k1, k2, p)
            gm2 = ghat_matrix(k1, -k2, p)
            gm1 = ghat_matrix(-k1, k2, p)
            phase = np.exp(-2j * k2 * (M + 1))
            worst = max(worst, *(np.abs(d).max() for d in (
                g[..., 0, 0] - gm2[..., 0, 0], g[..., 0, 0] + gm1[..., 0, 0],
                g[..., 0, 0] - gm1[..., 1, 1], g[..., 0, 1] - gm1[..., 0, 1],
                g[..., 0, 1] + gm2[..., 1, 0],
                g[..., 0, 1] + phase * g[..., 1, 0])))
    return _record(4, "boundary cancellations and momentum symmetries",
                   worst, 1e-12, t0)


def check_energy_cumulants(seed=0):
    """Pfaffian/cumulant energy correlations vs exhaustive enumeration."""
    t0 = time.perf_counter()
    geom = CylinderGeometry(4, 3)
    t1 = math.sqrt(2.0) - 1.0
    params = ModelParams.critical(t1)
    tuples = [
        (Edge((1, 1), "h"), Edge((3, 2), "h")),
        (Edge((1, 1), "v"), Edge((3, 2), "v")),
        (Edge((1, 1), "h"), Edge((3, 2), "v")),
        (Edge((1, 1), "h"), Edge((2, 3), "h"), Edge((4, 2), "h")),
        (Edge((1, 1), "v"), Edge((2, 2), "v"), Edge((4, 1), "v")),
        (Edge((1, 1), "h"), Edge((2, 2), "v"), Edge((4, 2), "h")),
    ]
    worst = max(correlation_report(
        CorrelationRequest(geom, edges, "truncated", params),
        verify=True)["oracle_delta"] for edges in tuples)
    return _record(5, "energy cumulants vs enumeration", worst, 1e-9, t0,
                   time_cap=60.0)


def check_scaling_limit(seed=0):
    """Rescaled lattice quantities approach the continuum cylinder."""
    t0 = time.perf_counter()
    p = ModelParams.critical(0.5)
    # dyadic points: the rescaled lattice sites z*n are exact integers at
    # every halving, so the error sequence is free of rounding jitter
    z, zp = (0.25, 0.5), (0.625, 0.375)
    series = scaling_report(z, zp, p, (16, 32, 64, 128, 256))
    prop_errs = [row["error"] for row in series["series"]]
    corr_target = scaling_correlation([z, zp], (2, 2), 1.0, 1.0, p)
    corr_errs = []
    for n in (8, 16, 32):
        cum = FreeCorrelator(CylinderGeometry(n, n), p).energy_cumulant(
            [Edge((int(z[0] * n), int(z[1] * n)), "v"),
             Edge((int(zp[0] * n), int(zp[1] * n)), "v")])
        corr_errs.append(abs(cum * n ** 2 - corr_target))
    ok = series["strictly_decreasing"] and _strictly_decreasing(corr_errs)
    detail = (f"propagator errors {['%.2e' % e for e in prop_errs]}, "
              f"correlation errors {['%.2e' % e for e in corr_errs]}")
    return _record(6, "scaling limit convergence", prop_errs[-1], 1.0, t0,
                   time_cap=300.0, ok=ok, detail=detail)


def check_multiscale(seed=0):
    """Scale telescoping, per-scale cancellations, bulk/edge split."""
    t0 = time.perf_counter()
    geom = CylinderGeometry(32, 32)
    p = ModelParams.critical(0.5)
    report = multiscale_report(geom, p, h=-2, bin_width=8)
    worst = max(report["reconstruction_residual"],
                report["bulk_edge_residual"])
    for h in (report["h_star"] + 1, -2, 0):
        worst = max(worst, boundary_residual(
            scale_propagator(h, geom, p), [(1, 3), (5, 8)], (1, 7)))
    fit = report["edge_decay_fit"]
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
    pairs = (
        (_rand_kernel, [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1)],
         localize_bulk, renormalize_bulk),
        (_rand_kernel, [(2, 0), (2, 1), (2, 2)],
         localize_edge, renormalize_edge),
        (_rand_source, [(2, 0), (2, 1), (2, 2)],
         localize_source, renormalize_source),
    )
    decomp = 0.0
    for _ in range(5):
        base = int(rng.integers(1, geom.L + 1))
        for draw, sectors, localize, renormalize in pairs:
            fam = {sec: symmetrize(draw(rng, geom, *sec, base=base))
                   for sec in sectors}
            both = _family_sum(localize(fam), renormalize(fam))
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
    # each bound: its kernel generator, renormalization and norm, and the
    # sectors from the bounded one down with the constant c_j of each; the
    # bound is sum_j c_j ||W_j||_{kappa + j eps}/eps^j
    bounds = (
        (_rand_kernel, renormalize_bulk, "bulk",
         [((2, 2), 1), ((2, 1), 1), ((2, 0), 1)]),
        (_rand_kernel, renormalize_bulk, "bulk", [((4, 1), 1), ((4, 0), 3)]),
        (_rand_kernel, renormalize_edge, "edge", [((2, 1), 1), ((2, 0), 2)]),
        (_rand_source, renormalize_source, "source-bulk",
         [((2, 1), 1), ((2, 0), 2)]),
    )
    violation = 0.0
    for _ in range(runs):
        base = int(rng.integers(1, geom.L + 1))
        for draw, renormalize, norm, terms in bounds:
            fam = {sec: draw(rng, geom, *sec, base=base)
                   for sec, _ in reversed(terms)}
            lhs = weighted_norm(renormalize(fam)[terms[0][0]], norm, kappa)
            rhs = sum(c * weighted_norm(fam[sec], norm, kappa + j * eps)
                      / eps ** j for j, (sec, c) in enumerate(terms))
            violation = max(violation, lhs - rhs)
    # 0.2 s per run: 10 s at selftest's 50 runs
    return _record(9, "remainder norm inequality battery",
                   max(violation, 0.0), 1e-9, t0, time_cap=runs / 5,
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
