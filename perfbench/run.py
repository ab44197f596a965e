"""isingcyl benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/isingcyl`` must exist).
Each pass of the workload is one fresh single-threaded Python process
(``worker.py``), because users pay the cold caches of the library
(momentum grid, closure graph, torus grid) on every invocation.  Passes
repeat until ``--seconds`` would be exceeded; timings are medians over the
passes.  With ``--trace 1`` the passes alternate untraced and traced, and
the per-layer metrics and the tracing overhead are reported instead of
the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
provenance included, is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("kernel_calculus", "cylinder_tables", "gaussian_moments")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "1"),
    ("min_margin_log10", "1"),
)

# BLAS and OpenMP pools are pinned to one thread before numpy loads in the
# worker: a pass is a single-threaded process, and one thread never
# exceeds nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"

TIME_LIMIT = 150.0  # seconds; a run must end well within 180 s


class PassError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("ISINGCYL_THREADS", None)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_pass(workload, seed, traced, run_id, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}.npz"),
                "--run-id", run_id]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {run_id} exceeded {timeout:.0f} s") from exc
    end = time.monotonic()
    if proc.returncode != 0:
        raise PassError(f"pass {run_id} exited with {proc.returncode}:\n"
                        + proc.stderr[-4000:])
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    src = Path(rec["isingcyl_file"]).resolve()
    if ROOT / "src" not in src.parents:
        raise PassError(f"imported isingcyl from {src}, not from this "
                        "checkout")
    rec["setup_s"] = rec.pop("setup_done") - spawn
    rec["elapsed_s"] = end - spawn
    return rec


def run_passes(workload, seed, seconds, trace):
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.monotonic() - start
        rec = run_pass(workload, seed, traced,
                       f"{workload}-seed{seed}-pass{len(passes)}",
                       timeout=max(10.0, TIME_LIMIT + 20.0 - elapsed))
        passes.append(rec)
        elapsed = time.monotonic() - start
        estimate = statistics.median(p["elapsed_s"] for p in passes)
        kinds = {p["traced"] for p in passes}
        if trace and kinds != {False, True}:
            if elapsed + estimate > TIME_LIMIT:
                raise PassError("no time left for a traced pass")
            continue
        if elapsed + estimate > min(seconds, TIME_LIMIT):
            return passes


def provenance(workload, seed, trace, passes):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "isingcyl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = worker_env()
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "versions": passes[0]["versions"],
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(passes, attempted, failed):
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_ratio": 1.0 - failed / attempted,
        "min_margin_log10": min(p["min_margin_log10"] for p in passes),
    }


def per_layer(passes):
    from tracing import metric_units

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name, unit in metric_units():
        out[name] = (statistics.median(p["layers"][name] for p in traced),
                     unit)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
    out["tracing.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated runner unwinds through subprocess.run, which kills and
    # reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "isingcyl" / "__init__.py").is_file():
        print(f"error: no isingcyl sources under {ROOT / 'src'}; run from "
              "a source checkout", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    correct = (len(digests) == 1
               and all(p["unexpected_failures"] == 0 for p in passes))
    if args.trace:
        metrics = per_layer(passes)
    else:
        units = dict(END_TO_END)
        metrics = {k: (v, units[k])
                   for k, v in end_to_end(passes, attempted, failed).items()}

    prov = provenance(args.workload, args.seed, args.trace, passes)
    plain = [p for p in passes if not p["traced"]]
    print(f"provenance {json.dumps(prov)}")
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{attempted} checks, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    for key in ("wall_s", "raw_wall_s", "probe_s"):
        values = [p[key] for p in plain]
        q1, q3 = quartiles(values)
        print(f"  untraced {key} over {len(values)} passes: median "
              f"{statistics.median(values):.6g} s, quartiles {q1:.6g} .. "
              f"{q3:.6g} s")
    for rec in passes[0]["checks"]:
        if not rec["passed"]:
            why = rec["error"] or f"residual {rec['residual']:.3e}"
            tag = " [known defect]" if rec["known_defect"] else ""
            print(f"  FAILED{tag}: {rec['name']}: {why}")
    if len(digests) != 1:
        print("  passes disagree on the computed numbers", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    record = {
        "provenance": prov,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "checks": passes[0]["checks"],
        "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s",
                                       "elapsed_s", "peak_rss_mb",
                                       "attempted", "failed", "digest",
                                       "raw_wall_s", "probe_s")}
                   for p in passes],
    }
    path = OUT / (f"result-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
