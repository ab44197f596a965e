"""Tests of the benchmark itself: seeded inputs, oracle checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isingcyl.freecorr as fc
import isingcyl.kernelcalc as kc
import isingcyl.lattice as lat
import isingcyl.multiscale as ms
import isingcyl.propagators as pr
import isingcyl.skewlinalg as sl
import run
from inputs import WORKLOADS, generate
from oracles import Checks, strict_decrease_ratio
from speed import REFERENCE, SpeedProbe
from tracing import Tracer, metric_units
from workloads import RUNNERS

ROOT = Path(__file__).resolve().parents[2]


def fingerprint(obj):
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), fingerprint(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x) for x in obj)
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, obj.tobytes())
    return repr(obj)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_for_equal_seeds_and_differ_otherwise(workload):
    a, b, c = (fingerprint(generate(workload, s)) for s in (7, 7, 8))
    assert a == b
    assert a != c


def test_check_counts_raises_and_residuals_as_failures():
    checks = Checks()
    checks.check("exact", lambda: (0.0, 1.0), 1e-12)
    checks.check("too far", lambda: (1e-3, 2.0), 1e-6)
    checks.check("raises", lambda: 1 / 0, 1.0, known_defect="documented")
    assert (checks.attempted, checks.failed) == (3, 2)
    assert [r["name"] for r in checks.unexpected_failures] == ["too far"]
    assert checks.records[0]["margin_log10"] == pytest.approx(2.0)
    assert checks.min_margin_log10() == pytest.approx(-3.0)
    assert checks.records[2]["error"].startswith("ZeroDivisionError")
    assert strict_decrease_ratio([4.0, 2.0, 1.0]) == 0.5
    assert strict_decrease_ratio([4.0, 2.0, 3.0]) > 1.0


def test_speed_probe_rescales_each_slice_to_the_reference_speed():
    probe = SpeedProbe()
    r = REFERENCE
    # slices of 0.2 s between probes taking r, r, then 2r: the second
    # slice ran at 1.5 times the reference slowness
    probe.probes = [(0.0, r), (0.2 + r, 0.2 + 2 * r),
                    (0.4 + 2 * r, 0.4 + 4 * r)]
    assert probe.raw_seconds() == pytest.approx(0.4)
    assert probe.reference_seconds() == pytest.approx(0.2 + 0.2 / 1.5)
    with SpeedProbe() as live:
        sum(i * i for i in range(200000))
    assert len(live.probes) >= 2
    assert 0.0 < live.raw_seconds() < 5.0


# -- every oracle check flags a deliberately perturbed result --------------

def _wrap(monkeypatch, owner, name, make):
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))


def _shifted(table, delta):
    return pr.TranslationInvariantTable(table.geom, table.variant,
                                        table.data + delta, table.row_offset)


def _run(workload, inputs):
    checks = Checks()
    RUNNERS[workload](inputs, checks)
    return checks


def test_kernel_checks_flag_perturbed_results(monkeypatch):
    def add_input(orig):
        def f(family):
            out = dict(orig(family))
            out["perturbation"] = next(iter(family.values())).scaled(1e-6)
            return out
        return f

    def blow_up(orig):
        return lambda family: {s: k.scaled(1e4)
                               for s, k in orig(family).items()}

    for flavor in ("bulk", "edge", "source"):
        _wrap(monkeypatch, kc, f"localize_{flavor}", add_input)
        _wrap(monkeypatch, kc, f"renormalize_{flavor}", blow_up)
    inputs = generate("kernel_calculus", 3)
    inputs["zeros"] = inputs["zeros"][:2]
    checks = _run("kernel_calculus", inputs)
    assert checks.attempted == 4 + 3 + 5
    assert [r["name"] for r in checks.records if r["passed"]] == []


def test_table_checks_flag_perturbed_results(monkeypatch):
    _wrap(monkeypatch, pr.LazyCriticalTable, "block",
          lambda orig: lambda self, z, zp: orig(self, z, zp) - 0.05)
    _wrap(monkeypatch, ms, "scale_propagator",
          lambda orig: lambda *a, **k: _shifted(orig(*a, **k), 1e-6))

    def split(orig):
        def f(*a, **k):
            sp = dict(orig(*a, **k))
            sp["bulk"] = _shifted(sp["bulk"], 1e-6)
            return sp
        return f
    _wrap(monkeypatch, ms, "bulk_edge_split", split)

    def reversed_profile(orig):
        def f(*a, **k):
            d, nrm = orig(*a, **k)
            return d, nrm[::-1]
        return f
    _wrap(monkeypatch, ms, "edge_decay_profile", reversed_profile)
    _wrap(monkeypatch, pr, "infinite_propagator",
          lambda orig: lambda *a, **k: {z: v + 0.05 for z, v
                                        in orig(*a, **k).items()})
    for name in ("critical_propagator_direct", "massive_propagator_direct"):
        _wrap(monkeypatch, pr, name,
              lambda orig: lambda g, p: pr.DenseTable(
                  g, "perturbed", orig(g, p).matrix * (1 + 1e-6)))
    checks = _run("cylinder_tables", generate("cylinder_tables", 3))
    assert checks.attempted == 11
    assert [r["name"] for r in checks.records if r["passed"]] == []


def test_moment_checks_flag_perturbed_results(monkeypatch):
    _wrap(monkeypatch, fc.FreeCorrelator, "energy_cumulant",
          lambda orig: lambda self, edges: (
              orig(self, edges) * (1 + 1e-4 * self.geom.L ** 2)
              + 1e-9 * edges[0].base[0]))
    _wrap(monkeypatch, fc, "partition_function_free",
          lambda orig: lambda g, beta, J1=1.0, J2=1.0: (
              orig(g, beta, J1, J2) * math.exp(0.1 * g.L * g.M)))
    _wrap(monkeypatch, sl, "pfaffian",
          lambda orig: lambda a: orig(a) * (1 + 1e-6))
    g12 = lat.CylinderGeometry(12, 5)
    stray = kc.Kernel(g12, 2, 0, 0, {((kc.FieldLabel(1, (0, 0), (1, 1)),
                                        kc.FieldLabel(-1, (0, 0), (2, 1))),
                                       ()): 1e-6})

    def rg(orig):
        def f(family, table, **kw):
            out = dict(orig(family, table, **kw))
            out["perturbation"] = stray
            return out
        return f
    _wrap(monkeypatch, kc, "rg_step", rg)
    _wrap(monkeypatch, kc, "truncated_expectation",
          lambda orig: lambda monomials, table: orig(monomials, table) + 1e-6)
    checks = _run("gaussian_moments", generate("gaussian_moments", 3))
    assert checks.attempted == 16
    assert [r["name"] for r in checks.records if r["passed"]] == []


# -- tracing ---------------------------------------------------------------

def test_tracer_patches_every_namespace_and_restores():
    orig_tree, orig_block = lat.tree_distance, pr.LazyCriticalTable.block
    tracer = Tracer("test")
    tracer.install()
    try:
        assert kc.tree_distance is lat.tree_distance
        assert lat.tree_distance is not orig_tree
        assert lat.tree_distance.__wrapped__ is orig_tree
        assert pr.LazyCriticalTable.block is not orig_block
        assert ms.critical_propagator_fourier is pr.critical_propagator_fourier
    finally:
        tracer.uninstall()
    assert kc.tree_distance is lat.tree_distance is orig_tree
    assert pr.LazyCriticalTable.block is orig_block


def test_traced_and_untraced_outputs_are_bit_identical():
    inputs = generate("gaussian_moments", 5)
    plain = _run("gaussian_moments", inputs)
    tracer = Tracer("test")
    tracer.install()
    try:
        traced = _run("gaussian_moments", inputs)
    finally:
        tracer.uninstall()
    assert traced.digest() == plain.digest()
    layers = tracer.metrics()
    assert layers["propagators.block.calls"] > 0
    assert layers["skewlinalg.pfaffian.flops_computed"] > 0
    assert layers["tracing.spans"] == sum(
        layers[f"{p}.calls"] for p in {n.rsplit(".", 1)[0]
                                       for n, _ in metric_units()
                                       if n.endswith(".calls")})
    # the 64x16 overflow stays in as a counted, documented failure
    failed = [r for r in plain.records if not r["passed"]]
    assert [r["error"].split(":")[0] for r in failed] == ["OverflowError"]
    assert failed[0]["known_defect"]


# -- the runner ------------------------------------------------------------

def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert run.WORKLOADS == WORKLOADS
    assert ([(m["name"], m["unit"]) for m in bench["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in bench["per_layer"]]
            == metric_units() + [("tracing.overhead_s", "s")])


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cylinder_tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
