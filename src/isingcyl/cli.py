"""Command-line interface: batch experiment runner and verification harness.

Every verb takes a library quantity, optionally verified against its
independent oracle, from a report function or criteria of
:mod:`isingcyl.acceptance`, and emits it as machine-readable output (JSON,
or CSV for tabular data) with a metadata header carrying the package
version, a hash of the effective configuration and the tolerances in
force.

Exit codes: 0 success, 1 configuration error (a bad ``--output`` too),
2 verification failure, 3 numerical failure (any ArithmeticError: root
residual, singular inversion, non-converged sums, a non-real Pfaffian,
float overflow; or running out of memory).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .acceptance import (
    CHECKS, check_kernel_cancellations, check_norm_battery, check_rg_step,
    correlation_report, multiscale_report, partition_report,
    propagator_report, run_acceptance, scaling_report,
)
from .freecorr import CorrelationRequest
from .lattice import CylinderGeometry, Edge
from .multiscale import scale_norm_profile
from .propagators import ModelParams

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


def _csv_text(metadata, header, rows, residuals):
    out = io.StringIO()
    for key in ("version", "config_hash"):
        out.write(f"# {key}: {metadata[key]}\n")
    out.write(f"# tolerances: {json.dumps(metadata['tolerances'], sort_keys=True)}\n")
    if residuals:
        out.write(f"# residuals: {json.dumps(residuals, sort_keys=True)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _emit_and_gate(args, report, gated=(), csv=None):
    """Write ``report`` to ``--output`` (stdout by default) as JSON, or as
    the CSV ``(header, rows)`` under its metadata and residuals; then, with
    ``--verify``, fail if a residual named in ``gated`` exceeds ``--tol``."""
    residuals = {k: report[k] for k in gated if k in report}
    text = (json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"
            if csv is None
            else _csv_text(report["metadata"], *csv, residuals))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # "not <=" so that a NaN residual fails the gate
    failed = [f"{k} {r:.3e}" for k, r in residuals.items()
              if not r <= args.tol]
    if failed and args.verify:
        raise VerificationError(
            f"{args.command}: {', '.join(failed)} above {args.tol}")
    return EXIT_OK


def _build_params(args):
    # args.critical is None unless --critical or --no-critical is given
    if args.beta is not None:
        if args.critical or args.t1 is not None or args.t2 is not None:
            raise ConfigError("--beta fixes t1 and t2; it conflicts with "
                              "--critical, --t1 and --t2")
        return ModelParams.from_beta(args.beta, args.J1, args.J2)
    if args.t1 is None:
        raise ConfigError("either --t1 or --beta is required")
    if (args.critical is not False) == (args.t2 is not None):
        raise ConfigError("--t2 is required with --no-critical and conflicts "
                          "with the critical line, where --t1 fixes t2")
    return (ModelParams.critical(args.t1) if args.t2 is None
            else ModelParams(t1=args.t1, t2=args.t2))


# ---------------------------------------------------------------------------
# Verbs.
# ---------------------------------------------------------------------------


def cmd_propagator(args):
    geom = CylinderGeometry(args.L, args.M)
    params = _build_params(args)
    if args.variant == "critical" and not params.is_critical:
        raise ConfigError("the critical variant requires critical "
                          "parameters (--critical with --t1)")
    report = propagator_report(geom, params, args.variant,
                               verify=args.verify)
    # the critical table covers the closure rows, the massive one 1..M
    x2s = (range(args.M + 2) if args.variant == "critical"
           else range(1, args.M + 1))
    z = [[1, x2] for x2 in x2s]
    zp = [[x1, x2] for x1 in range(1, args.L + 1) for x2 in x2s]
    entries = [(a, b, blk) for a, row in zip(
        z, report.pop("table").blocks(z, zp)) for b, blk in zip(zp, row)]
    config = {"command": "propagator", "L": args.L, "M": args.M,
              "t1": params.t1, "t2": params.t2, "variant": args.variant}
    report["metadata"] = _metadata(config, {"verify": args.tol})
    gated = ("oracle_residual", "boundary_residual")
    if args.format == "csv":
        rows = [[*z, *zp, w, wp, f"{blk[w, wp].real:.17g}",
                 f"{blk[w, wp].imag:.17g}"]
                for z, zp, blk in entries for w in (0, 1) for wp in (0, 1)]
        return _emit_and_gate(args, report, gated, csv=(
            ["z1", "z2", "z1p", "z2p", "omega", "omegap", "re", "im"], rows))
    report["entries"] = [{"z": z, "zp": zp, "block": np.real(blk).tolist()}
                         for z, zp, blk in entries]
    return _emit_and_gate(args, report, gated)


def cmd_partition(args):
    report = partition_report(CylinderGeometry(args.L, args.M), args.beta,
                              args.J1, args.J2, verify=args.verify)
    config = {"command": "partition", "L": args.L, "M": args.M,
              "beta": args.beta, "J1": args.J1, "J2": args.J2}
    report["metadata"] = _metadata(config, {"verify": args.tol})
    return _emit_and_gate(args, report, ("delta_rel",))


def _load_request(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read request {path}: {exc}") from exc
    try:
        p = doc["params"]
        geom = CylinderGeometry(p["L"], p["M"])
        if bool(p.get("critical", True)) == ("t2" in p):
            raise ConfigError('"t2" is required with "critical": false and '
                              'conflicts with the critical line')
        params = (ModelParams.critical(p["t1"]) if "t2" not in p
                  else ModelParams(t1=p["t1"], t2=p["t2"]))
        edges = tuple(Edge((e["x1"], e["x2"]), e["dir"])
                      for e in doc["edges"])
        return CorrelationRequest(geom=geom, edges=edges,
                                  mode=doc.get("mode", "truncated"),
                                  params=params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid request: {exc}") from exc


def cmd_correlate(args):
    request = _load_request(args.request)
    report = correlation_report(request, verify=args.verify)
    config = {"command": "correlate", "L": request.geom.L,
              "M": request.geom.M, "t1": request.params.t1,
              "t2": request.params.t2, "mode": request.mode,
              "edges": [[e.base[0], e.base[1], e.direction]
                        for e in request.edges]}
    report["metadata"] = _metadata(config, {"verify": args.tol})
    return _emit_and_gate(args, report, ("oracle_delta",))


_POINT_RE = re.compile(r"\(\s*([0-9.eE+-]+)\s*,\s*([0-9.eE+-]+)\s*\)")


def _parse_points(text):
    pts = [(float(a), float(b)) for a, b in _POINT_RE.findall(text)]
    if len(pts) != 2:
        raise ConfigError(f"expected exactly two points, got {text!r}")
    return pts


def cmd_scaling(args):
    z, zp = _parse_points(args.points)
    sizes = [args.start * 2 ** i for i in range(args.halvings + 1)]
    report = scaling_report(z, zp, ModelParams.critical(args.t1), sizes)
    config = {"command": "scaling", "t1": args.t1, "points": [z, zp],
              "halvings": args.halvings, "start": args.start}
    report["metadata"] = _metadata(config, {})
    # the gate is the strict decrease itself: no residual, no --tol
    _emit_and_gate(args, report)
    if args.verify and not report["strictly_decreasing"]:
        raise VerificationError("error column is not strictly decreasing")
    return EXIT_OK


def cmd_multiscale(args):
    geom = CylinderGeometry(args.L, args.M)
    params = ModelParams.critical(args.t1)
    report = multiscale_report(geom, params, args.h, args.bin_width)
    d, nrm = report.pop("edge_decay_profile")
    config = {"command": "multiscale", "L": args.L, "M": args.M,
              "t1": args.t1, "h": report.pop("h")}
    report["metadata"] = _metadata(config, {"reconstruction": args.tol})
    gated = ("reconstruction_residual", "bulk_edge_residual")
    if args.format == "csv":
        rows = [[config["h"], float(di), f"{ni:.17g}"]
                for di, ni in zip(d, nrm)]
        return _emit_and_gate(args, report, gated,
                              csv=(["h", "d_edge", "norm"], rows))
    report["scale_norm_profile"] = {
        str(h): v for h, v in scale_norm_profile(geom, params).items()}
    report["edge_decay_profile"] = [{"d_edge": float(di), "norm": float(ni)}
                                    for di, ni in zip(d, nrm)]
    return _emit_and_gate(args, report, gated)


def _emit_records(args, config, key, records):
    """Emit the records of an acceptance battery under ``key``; True if
    every one passed."""
    report = {
        "metadata": _metadata(config, {r["name"]: r["tolerance"]
                                       for r in records}),
        key: records,
        "all_passed": all(r["passed"] for r in records),
    }
    _emit_and_gate(args, report)
    return report["all_passed"]


def cmd_kernels(args):
    records = [
        check_kernel_cancellations(seed=args.seed),
        check_norm_battery(seed=args.seed, runs=args.runs),
        check_rg_step(seed=args.seed),
    ]
    config = {"command": "kernels", "seed": args.seed, "runs": args.runs}
    if not _emit_records(args, config, "checks", records) and args.verify:
        raise VerificationError("a kernel-calculus check failed")
    return EXIT_OK


def cmd_selftest(args):
    only = set(args.only) if args.only else None
    if only and not only <= set(range(1, len(CHECKS) + 1)):
        raise ConfigError(f"--only ids must lie in 1..{len(CHECKS)}")
    records = run_acceptance(seed=args.seed, only=only)
    config = {"command": "selftest", "seed": args.seed,
              "only": sorted(only) if only else None}
    if not _emit_records(args, config, "criteria", records):
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
                   help="two points of the unit cylinder, 0 <= x <= 1 and "
                   '0 < y < 1, e.g. "(0.25,0.5),(0.625,0.375)"')
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
        # refuse an output path that cannot be a file before computing
        out = args.output and os.path.abspath(args.output)
        if out and (os.path.isdir(out) or not os.path.isdir(
                os.path.dirname(out))):
            raise ConfigError(f"cannot write output to {args.output}")
        return args.func(args)
    except (ConfigError, OSError) as exc:
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
