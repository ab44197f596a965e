"""Acceptance battery: one test (and one printed pass/fail line) per
criterion.  The heavy computations run once in a module-scoped fixture."""

import re
from types import SimpleNamespace

import pytest

from isingcyl import acceptance
from isingcyl.acceptance import CHECKS, check_norm_battery, run_acceptance

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
    assert records[9]["time_cap"] == 10.0  # 0.2 s for each of 50 runs
    assert records[7]["r2_margin"] > 1.0


def test_norm_battery_reports_its_ratios(records):
    # the largest lhs/rhs of each of the four inequalities, and the
    # margin of the largest: residual 0 says nothing about the slack
    rec = records[9]
    ratios = [float(r)
              for r in re.findall(r"\) ([0-9.e-]+)", rec["detail"])]
    assert len(ratios) == 4 and 0.0 < max(ratios) < 1.0
    assert rec["ratio_margin"] == pytest.approx(1.0 / max(ratios), rel=0.05)


def test_propagator_oracle_covers_both_sectors(records, monkeypatch):
    rec = records[3]
    assert "critical" in rec["detail"] and "massive" in rec["detail"]
    # a massive table off by 1e-9 fails the criterion
    massive = acceptance.massive_propagator

    class Shifted:
        def __init__(self, table):
            self.table = table

        def blocks(self, z, zp):
            return self.table.blocks(z, zp) + 1e-9
    monkeypatch.setattr(acceptance, "massive_propagator",
                        lambda geom, p: Shifted(massive(geom, p)))
    assert not acceptance.check_propagator_oracle()["passed"]


@pytest.mark.parametrize("runs, seconds, passed", [
    (1, 0.19, True), (1, 0.21, False), (3, 0.59, True), (3, 0.61, False)])
def test_norm_battery_time_cap_is_per_run(monkeypatch, runs, seconds,
                                          passed):
    # a patched clock: the battery starts at 100 s and ends ``seconds`` on
    ticks = iter([100.0, 100.0 + seconds])
    monkeypatch.setattr(acceptance, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    rec = check_norm_battery(seed=0, runs=runs)
    assert rec["time_cap"] == pytest.approx(0.2 * runs)
    assert rec["residual"] == 0.0
    assert rec["passed"] is passed


def test_pfaffian_takes_each_brute_force_once(monkeypatch):
    # criterion 1 used to evaluate every brute-force Pfaffian twice
    calls = []

    def counting(A):
        calls.append(A.shape)
        return brute(A)
    brute = acceptance.pfaffian_bruteforce
    monkeypatch.setattr(acceptance, "pfaffian_bruteforce", counting)
    assert acceptance.check_pfaffian(seed=0)["passed"]
    assert sorted(calls) == [(d, d) for d in range(2, 13, 2) for _ in range(3)]
