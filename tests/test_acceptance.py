"""Acceptance battery: one test (and one printed pass/fail line) per
criterion.  The heavy computations run once in a module-scoped fixture."""

import pytest

from isingcyl.acceptance import CHECKS, run_acceptance

NAMES = [
    "pfaffian-vs-determinant",
    "partition-vs-enumeration",
    "propagator-vs-inversion",
    "boundary-and-momentum-symmetries",
    "energy-cumulants-vs-enumeration",
    "scaling-limit-convergence",
    "multiscale-reconstruction",
    "kernel-cancellations",
    "norm-inequality-battery",
    "vertex-constants",
    "rg-step-sanity",
]


@pytest.fixture(scope="module")
def records():
    recs = run_acceptance(seed=0)
    assert len(recs) == len(CHECKS) == 11
    return {rec["criterion"]: rec for rec in recs}


@pytest.mark.parametrize(
    "cid", range(1, 12),
    ids=[f"{i:02d}-{n}" for i, n in enumerate(NAMES, start=1)])
def test_criterion(records, cid):
    rec = records[cid]
    status = "PASS" if rec["passed"] else "FAIL"
    line = (f"{status} criterion {rec['criterion']:2d}: {rec['name']} "
            f"(residual {rec['residual']:.3e}, tolerance "
            f"{rec['tolerance']:.0e}, {rec['seconds']:.1f}s)")
    if rec["detail"]:
        line += f" [{rec['detail']}]"
    print(line)
    assert rec["passed"], line


def test_margins(records):
    for rec in records.values():
        if rec["residual"] == 0.0:
            assert rec["margin"] is None
        else:
            assert rec["margin"] == rec["tolerance"] / rec["residual"]
    assert records[9]["residual"] == 0.0   # exact tree-distance bound
    assert records[7]["r2_margin"] > 1.0
