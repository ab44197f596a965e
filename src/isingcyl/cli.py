"""Command-line interface: batch experiment runner and verification harness.

Every verb computes a library quantity, optionally verifies it against its
independent oracle, and emits machine-readable output (JSON for structured
results, CSV for tabular data) with a metadata header carrying the package
version, a hash of the effective configuration and the tolerances in
force.

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 numerical failure (any ArithmeticError: root residual, singular
inversion, non-converged sums, a non-real Pfaffian, float overflow; or
running out of memory).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .freecorr import (
    CorrelationRequest, FreeCorrelator, enumerate_gibbs,
    log_partition_function_free,
)
from .lattice import CylinderGeometry, Edge
from .multiscale import (
    ScaleCutoff, bulk_edge_split, edge_decay_profile, envelope_decay_fit,
    scale_norm_profile, split_residual, telescoping_residual,
)
from .propagators import (
    ModelParams, boundary_residual, critical_propagator_direct,
    critical_propagator_fourier, massive_propagator, massive_propagator_direct,
    max_block_difference, scaling_series,
)
from .skewlinalg import moments_to_cumulants

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Invalid configuration, reported with exit code 1."""


class VerificationError(Exception):
    """A verify-mode residual exceeded its tolerance (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and at least 0, got {text}")
    return value


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------


def _metadata(config, tolerances):
    blob = json.dumps(config, sort_keys=True, default=str)
    return {
        "version": __version__,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "config": config,
        "tolerances": tolerances,
    }


def _emit_json(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(metadata, header, rows, path, residuals=None):
    out = io.StringIO()
    for key in ("version", "config_hash"):
        out.write(f"# {key}: {metadata[key]}\n")
    out.write(f"# tolerances: {json.dumps(metadata['tolerances'], sort_keys=True)}\n")
    if residuals:
        out.write(f"# residuals: {json.dumps(residuals, sort_keys=True)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if path:
        with open(path, "w") as fh:
            fh.write(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())


def _build_params(args):
    # args.critical is None unless --critical or --no-critical is given
    if args.beta is not None:
        if args.critical:
            raise ConfigError("--critical conflicts with --beta; "
                              "give --t1 instead")
        return ModelParams.from_beta(args.beta, args.J1, args.J2)
    if args.t1 is None:
        raise ConfigError("either --t1 or --beta is required")
    if args.critical is not False:
        return ModelParams.critical(args.t1)
    if args.t2 is None:
        raise ConfigError("non-critical parameters need both --t1 and --t2")
    return ModelParams(t1=args.t1, t2=args.t2)


def _beta_for(params):
    """(beta, J1, J2) reproducing (t1, t2) in the spin model."""
    beta = math.atanh(params.t1)
    return beta, 1.0, math.atanh(params.t2) / beta


# ---------------------------------------------------------------------------
# Verbs.
# ---------------------------------------------------------------------------


def cmd_propagator(args):
    geom = CylinderGeometry(args.L, args.M)
    params = _build_params(args)
    if args.variant == "critical":
        if not params.is_critical:
            raise ConfigError("the critical variant requires critical "
                              "parameters (--critical with --t1)")
        table = critical_propagator_fourier(geom, params)
    else:
        table = massive_propagator(geom, params)

    config = {"command": "propagator", "L": args.L, "M": args.M,
              "t1": params.t1, "t2": params.t2, "variant": args.variant}
    meta = _metadata(config, {"verify": args.tol})

    residuals = {}
    if args.verify:
        direct = (critical_propagator_direct(geom, params)
                  if args.variant == "critical"
                  else massive_propagator_direct(geom, params))
        residuals["oracle_residual"] = max_block_difference(
            table, direct, geom.sites())
        if args.variant == "critical":
            residuals["boundary_residual"] = boundary_residual(
                table, [(1, 1), (geom.L, geom.M)], range(1, geom.L + 1))

    entries = [([1, x2], [x1p, x2p], table.block((1, x2), (x1p, x2p)))
               for x2 in range(0, geom.M + 2)
               for x1p in range(1, geom.L + 1)
               for x2p in range(0, geom.M + 2)]
    if args.format == "json":
        _emit_json({"metadata": meta, "variant": table.variant, **residuals,
                    "entries": [{"z": z, "zp": zp,
                                 "block": np.real(blk).tolist()}
                                for z, zp, blk in entries]}, args.output)
    else:
        rows = [[*z, *zp, w, wp, f"{blk[w, wp].real:.17g}",
                 f"{blk[w, wp].imag:.17g}"]
                for z, zp, blk in entries for w in (0, 1) for wp in (0, 1)]
        _emit_csv(meta, ["z1", "z2", "z1p", "z2p", "omega", "omegap",
                         "re", "im"], rows, args.output, residuals)
    # "not <=" so that a NaN residual fails the gate
    if any(not r <= args.tol for r in residuals.values()):
        raise VerificationError(f"propagator residual above {args.tol}")
    return EXIT_OK


def _exp_or_none(log_value):
    """exp(log_value) where it fits a float, else None (JSON null)."""
    return (math.exp(log_value)
            if log_value <= math.log(sys.float_info.max) else None)


def _enumeration_counts(rec):
    return {"enumeration_configurations": rec.configurations,
            "enumeration_levels": rec.levels}


def cmd_partition(args):
    geom = CylinderGeometry(args.L, args.M)
    log_z = log_partition_function_free(geom, args.beta, args.J1, args.J2)
    config = {"command": "partition", "L": args.L, "M": args.M,
              "beta": args.beta, "J1": args.J1, "J2": args.J2}
    # Z only where it fits a float; log Z always does
    report = {"metadata": _metadata(config, {"verify": args.tol}),
              "Z": _exp_or_none(log_z), "log_Z": log_z}
    if args.verify:
        rec = enumerate_gibbs(geom, args.beta, args.J1, args.J2)
        delta = abs(math.expm1(log_z - rec.log_Z))
        report.update(Z_enumeration=_exp_or_none(rec.log_Z),
                      log_Z_enumeration=rec.log_Z, delta_rel=delta,
                      **_enumeration_counts(rec))
        if not delta <= args.tol:
            _emit_json(report, args.output)
            raise VerificationError(
                f"partition delta {delta:.3e} above {args.tol}")
    _emit_json(report, args.output)
    return EXIT_OK


def _load_request(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read request {path}: {exc}") from exc
    try:
        p = doc["params"]
        geom = CylinderGeometry(p["L"], p["M"])
        if p.get("critical", True):
            params = ModelParams.critical(p["t1"])
        else:
            params = ModelParams(t1=p["t1"], t2=p["t2"])
        edges = tuple(Edge((e["x1"], e["x2"]), e["dir"])
                      for e in doc["edges"])
        return CorrelationRequest(geom=geom, edges=edges,
                                  mode=doc.get("mode", "truncated"),
                                  params=params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid request: {exc}") from exc


def cmd_correlate(args):
    request = _load_request(args.request)
    corr = FreeCorrelator(request.geom, request.params)
    value = (corr.energy_moment(request.edges) if request.mode == "moment"
             else corr.energy_cumulant(request.edges))
    config = {"command": "correlate", "L": request.geom.L,
              "M": request.geom.M, "t1": request.params.t1,
              "t2": request.params.t2, "mode": request.mode,
              "edges": [[e.base[0], e.base[1], e.direction]
                        for e in request.edges]}
    report = {"metadata": _metadata(config, {"verify": args.tol}),
              "mode": request.mode, "value": value,
              "variant": "pfaffian-cumulant"}
    if args.verify:
        beta, J1, J2 = _beta_for(request.params)
        rec = enumerate_gibbs(request.geom, beta, J1, J2, request.edges)
        oracle = (rec.moments if request.mode == "moment"
                  else moments_to_cumulants(rec.moments))[
                      frozenset(range(len(request.edges)))]
        report.update(oracle=oracle, oracle_delta=abs(value - oracle),
                      **_enumeration_counts(rec))
        if not report["oracle_delta"] <= args.tol:
            _emit_json(report, args.output)
            raise VerificationError(
                f"correlation delta {report['oracle_delta']:.3e} "
                f"above {args.tol}")
    _emit_json(report, args.output)
    return EXIT_OK


_POINT_RE = re.compile(r"\(\s*([0-9.eE+-]+)\s*,\s*([0-9.eE+-]+)\s*\)")


def _parse_points(text):
    pts = [(float(a), float(b)) for a, b in _POINT_RE.findall(text)]
    if len(pts) != 2:
        raise ConfigError(f"expected exactly two points, got {text!r}")
    return pts


def cmd_scaling(args):
    params = ModelParams.critical(args.t1)
    z, zp = _parse_points(args.points)
    sizes = [args.start * 2 ** i for i in range(args.halvings + 1)]
    target, errors = scaling_series(z, zp, params, sizes)
    rows = [{"a": 1.0 / n, "n": n, "error": err}
            for n, err in zip(sizes, errors)]
    config = {"command": "scaling", "t1": args.t1, "points": [z, zp],
              "halvings": args.halvings, "start": args.start}
    report = {"metadata": _metadata(config, {}),
              "target_block": target.tolist(), "series": rows,
              "strictly_decreasing": all(
                  a > b for a, b in zip(errors, errors[1:]))}
    if args.verify and not report["strictly_decreasing"]:
        _emit_json(report, args.output)
        raise VerificationError("error column is not strictly decreasing")
    _emit_json(report, args.output)
    return EXIT_OK


def cmd_multiscale(args):
    geom = CylinderGeometry(args.L, args.M)
    params = ModelParams.critical(args.t1)
    cut = ScaleCutoff.for_geometry(geom)
    reconstruction = telescoping_residual(geom, params, cut)

    h_fit = args.h if args.h is not None else min(cut.scales, default=0)
    split = bulk_edge_split(h_fit, geom, params, cut)
    residual = split_residual(split)
    d, nrm = edge_decay_profile(h_fit, geom, params, cut, split=split)
    bin_width = args.bin_width
    if bin_width is None:
        # at least four envelope bins across the sampled distance range
        bin_width = max(1, int(np.ptp(d) // 4))
    fit = envelope_decay_fit(d, nrm, bin_width=bin_width)

    config = {"command": "multiscale", "L": args.L, "M": args.M,
              "t1": args.t1, "h": h_fit}
    meta = _metadata(config, {"reconstruction": args.tol})
    profile = scale_norm_profile(geom, params, cut)
    residuals = {"reconstruction_residual": reconstruction,
                 "bulk_edge_residual": residual}
    report = {
        "metadata": meta,
        "h_star": cut.h_star,
        **residuals,
        "scale_norm_profile": {str(h): v for h, v in profile.items()},
        "edge_decay_fit": fit,
    }
    if args.format == "csv":
        rows = [[h_fit, float(di), f"{ni:.17g}"] for di, ni in zip(d, nrm)]
        _emit_csv(meta, ["h", "d_edge", "norm"], rows, args.output,
                  residuals)
    else:
        report["edge_decay_profile"] = [
            {"d_edge": float(di), "norm": float(ni)}
            for di, ni in zip(d, nrm)]
        _emit_json(report, args.output)
    if args.verify and not (reconstruction <= args.tol
                            and residual <= args.tol):
        raise VerificationError(
            f"multiscale residual above {args.tol}")
    return EXIT_OK


def cmd_kernels(args):
    from .acceptance import (
        check_kernel_cancellations, check_norm_battery, check_rg_step,
    )
    records = [
        check_kernel_cancellations(seed=args.seed),
        check_norm_battery(seed=args.seed, runs=args.runs),
        check_rg_step(seed=args.seed),
    ]
    config = {"command": "kernels", "seed": args.seed, "runs": args.runs}
    report = {
        "metadata": _metadata(config, {r["name"]: r["tolerance"]
                                       for r in records}),
        "checks": records,
        "all_passed": all(r["passed"] for r in records),
    }
    _emit_json(report, args.output)
    if args.verify and not report["all_passed"]:
        raise VerificationError("a kernel-calculus check failed")
    return EXIT_OK


def cmd_selftest(args):
    from .acceptance import CHECKS, run_acceptance
    only = set(args.only) if args.only else None
    if only and not only <= set(range(1, len(CHECKS) + 1)):
        raise ConfigError(f"--only ids must lie in 1..{len(CHECKS)}")
    records = run_acceptance(seed=args.seed, only=only)
    config = {"command": "selftest", "seed": args.seed,
              "only": sorted(only) if only else None}
    report = {
        "metadata": _metadata(config, {r["name"]: r["tolerance"]
                                       for r in records}),
        "criteria": records,
        "all_passed": all(r["passed"] for r in records),
    }
    _emit_json(report, args.output)
    if not report["all_passed"]:
        raise VerificationError("acceptance criteria failed: " + ", ".join(
            str(r["criterion"]) for r in records if not r["passed"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_common(sub, geometry=True):
    if geometry:
        sub.add_argument("--L", type=int, required=True,
                         help="circumference (even)")
        sub.add_argument("--M", type=int, required=True, help="height")
    sub.add_argument("--output", help="output path (default stdout)")


def build_parser():
    parser = _Parser(prog="isingcyl", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagator", help="propagator tables and residuals")
    _add_common(p)
    p.add_argument("--t1", type=float)
    p.add_argument("--t2", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--J1", type=float, default=1.0)
    p.add_argument("--J2", type=float, default=1.0)
    p.add_argument("--critical", action="store_true", default=None)
    p.add_argument("--no-critical", dest="critical", action="store_false",
                   default=None)
    p.add_argument("--variant", choices=["critical", "massive"],
                   default="critical")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.set_defaults(func=cmd_propagator)

    p = sub.add_parser("partition", help="partition function (log Z)")
    _add_common(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--J1", type=float, default=1.0)
    p.add_argument("--J2", type=float, default=1.0)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("correlate", help="energy moments and cumulants")
    _add_common(p, geometry=False)
    p.add_argument("--request", required=True,
                   help="JSON request file: {edges, mode, params}")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("scaling", help="continuum-limit convergence series")
    _add_common(p, geometry=False)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--points", required=True,
                   help='two continuum points, e.g. "(0.25,0.5),(0.625,0.375)"')
    p.add_argument("--halvings", type=_positive_int, default=4)
    p.add_argument("--start", type=int, default=16,
                   help="initial inverse lattice spacing")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("multiscale",
                       help="scale decomposition residuals and decay fits")
    _add_common(p)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--h", type=int, help="scale for the bulk/edge split")
    p.add_argument("--bin-width", type=_positive_int,
                   help="envelope bin width (default: range/4)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.set_defaults(func=cmd_multiscale)

    p = sub.add_parser("kernels",
                       help="cancellation demos and norm batteries")
    _add_common(p, geometry=False)
    p.add_argument("--runs", type=_positive_int, default=10,
                   help="runs per norm inequality")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized batteries")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("selftest", help="full acceptance suite")
    _add_common(p, geometry=False)
    p.add_argument("--only", type=int, nargs="+",
                   help="criteria ids to run (default all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized batteries")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
