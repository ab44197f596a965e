"""One pass of a workload in a fresh interpreter (started by run.py).

Set-up (interpreter start, ``import isingcyl``, seeded input generation)
ends when the inputs exist; the pass then computes and checks every
result under a host-speed probe (``speed.py``).  Prints one JSON line with
the timings, the check records and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", default="",
                    help="trace this pass and write its spans here")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import isingcyl
    from inputs import generate
    from oracles import Checks
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import RUNNERS

    inputs = generate(args.workload, args.seed)
    setup_done = time.monotonic()

    tracer = Tracer(args.run_id) if args.spans else None
    if tracer is not None:
        tracer.install()
    checks = Checks()
    try:
        with SpeedProbe(tracer.exclude if tracer else None) as speed:
            RUNNERS[args.workload](inputs, checks)
    finally:
        if tracer is not None:
            tracer.uninstall()

    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        tracer.write(Path(args.spans))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "setup_done": setup_done,
        "wall_s": speed.reference_seconds(),
        "raw_wall_s": speed.raw_seconds(),
        "probe_s": sorted(b - a for a, b in speed.probes)[
            len(speed.probes) // 2],
        "peak_rss_mb": rss_mb,
        "traced": tracer is not None,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "unexpected_failures": len(checks.unexpected_failures),
        "min_margin_log10": checks.min_margin_log10(),
        "digest": checks.digest(),
        "checks": checks.records,
        "layers": layers,
        "isingcyl_file": isingcyl.__file__,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))


if __name__ == "__main__":
    main()
