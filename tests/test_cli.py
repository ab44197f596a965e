import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gibbs_oracle
import isingcyl
from isingcyl import acceptance
from isingcyl.cli import (
    EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, build_parser, main,
)
from isingcyl.lattice import CylinderGeometry


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rejected(capsys, *argv):
    """Exit 1 with a one-line configuration error, no traceback."""
    code = main(list(argv))
    err = capsys.readouterr().err
    return (code == EXIT_CONFIG and err.startswith("configuration error")
            and "Traceback" not in err)


def strict_json(text):
    """Parse JSON, rejecting the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def write_request(tmp_path, mode="truncated", edges=None):
    doc = {
        "params": {"L": 4, "M": 3, "t1": 0.41421356237309515,
                   "critical": True},
        "mode": mode,
        "edges": [{"x1": 1, "x2": 1, "dir": "h"},
                  {"x1": 3, "x2": 2, "dir": "v"}] if edges is None
        else edges,
    }
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestPartition:
    def test_verify_ok(self, capsys):
        code, out = run(capsys, "partition", "--L", "4", "--M", "2",
                        "--beta", "0.44", "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["delta_rel"] < 1e-10
        assert doc["metadata"]["version"]
        assert doc["metadata"]["config_hash"]

    def test_verify_reports_the_enumeration(self, capsys):
        code, out = run(capsys, "partition", "--L", "4", "--M", "2",
                        "--beta", "0.44")
        assert set(json.loads(out)) == {"metadata", "Z", "log_Z"}
        code, out = run(capsys, "partition", "--L", "4", "--M", "2",
                        "--beta", "0.44", "--verify")
        doc = json.loads(out)
        assert doc["enumeration_configurations"] == 2 ** 8
        _, _, levels = gibbs_oracle.gibbs_sums(CylinderGeometry(4, 2), 0.44)
        assert doc["enumeration_levels"] == len(levels)
        assert doc["Z_enumeration"] == pytest.approx(doc["Z"], rel=1e-12)

    def test_verify_when_z_overflows(self, capsys):
        # the enumerated weights overflow a float at beta 17: the gate
        # compares log Z and the JSON holds no Infinity
        code, out = run(capsys, "partition", "--L", "6", "--M", "4",
                        "--beta", "17", "--verify")
        assert code == EXIT_OK
        doc = strict_json(out)
        assert doc["Z"] is None and doc["Z_enumeration"] is None
        assert doc["log_Z_enumeration"] == pytest.approx(doc["log_Z"],
                                                         rel=1e-12)
        assert doc["delta_rel"] <= 1e-10

    def test_verify_failure_exit_code(self, capsys):
        # an unattainable tolerance must trip the verification exit code;
        # at 4 x 3 the two routes differ in the last bits (delta_rel
        # 1.8e-15), where at 4 x 2 they agree exactly
        code, _ = run(capsys, "partition", "--L", "4", "--M", "3",
                      "--beta", "0.44", "--verify", "--tol", "1e-20")
        assert code == EXIT_VERIFY

    def test_enumeration_cap_is_config_error(self, capsys):
        code, _ = run(capsys, "partition", "--L", "8", "--M", "8",
                      "--beta", "0.3", "--verify")
        assert code == EXIT_CONFIG

    def test_overflow_reports_log_z(self):
        # Z exceeds a float at L*M = 1024 (log Z ~ 940): exit 0 with a null
        # Z and log Z within Onsager's O(1/M) band
        env = dict(os.environ, PYTHONPATH=str(
            Path(isingcyl.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "isingcyl.cli", "partition", "--L", "64",
             "--M", "16", "--beta", "0.44"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["Z"] is None
        f_onsager = 0.5 * math.log(2.0) + 2.0 * 0.915965594177219 / math.pi
        assert 16 * abs(doc["log_Z"] / 1024 - f_onsager) <= 1.0

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        code, out = run(capsys, "partition", "--L", "2", "--M", "1",
                        "--beta", "0.3", "--output", str(path))
        assert code == EXIT_OK
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["Z"] > 0

    def test_output_in_missing_directory(self, capsys, monkeypatch,
                                         tmp_path):
        # refused before any computation, with a one-line message
        monkeypatch.setattr("isingcyl.cli.propagator_report", None)
        assert rejected(capsys, "propagator", "--L", "4", "--M", "3",
                        "--t1", "0.5", "--output",
                        str(tmp_path / "missing" / "x.json"))

    def test_output_is_a_directory(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("isingcyl.cli.partition_report", None)
        assert rejected(capsys, "partition", "--L", "4", "--M", "3",
                        "--beta", "0.4", "--output", str(tmp_path))

    def test_unwritable_output_is_config_error(self, capsys, monkeypatch,
                                               tmp_path):
        # an OSError the path check cannot foresee still ends in exit 1
        def refuse(*args, **kwargs):
            raise PermissionError("read-only file system")
        monkeypatch.setattr("isingcyl.cli.open", refuse, raising=False)
        assert rejected(capsys, "partition", "--L", "2", "--M", "1",
                        "--beta", "0.3", "--output", str(tmp_path / "z"))


class TestPropagator:
    def test_out_of_memory_is_numeric_failure(self, capsys, monkeypatch):
        # a table too large for the machine: exit 3 with a one-line message
        def oversized(geom, params):
            raise MemoryError
        monkeypatch.setattr(acceptance, "critical_propagator_fourier",
                            oversized)
        code = main(["propagator", "--L", "4", "--M", "3", "--t1", "0.5"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.err == "numerical failure: out of memory\n"
        assert captured.out == ""

    def test_verify_json(self, capsys):
        code, out = run(capsys, "propagator", "--L", "4", "--M", "3",
                        "--t1", "0.5", "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["oracle_residual"] < 1e-10
        assert doc["boundary_residual"] < 1e-12
        assert doc["entries"]

    def test_csv_format(self, capsys):
        code, out = run(capsys, "propagator", "--L", "4", "--M", "3",
                        "--t1", "0.5", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# version:")
        assert "z1,z2,z1p,z2p,omega,omegap,re,im" in lines
        # one row per (z2, z1', z2', omega, omega') combination
        assert len([l for l in lines if not l.startswith("#")]) \
            == 1 + 5 * 4 * 5 * 4

    @pytest.mark.parametrize("tol, code", [("1e-20", EXIT_VERIFY),
                                           ("1e-6", EXIT_OK)])
    def test_csv_verify_writes_output_and_residuals(self, capsys, tmp_path,
                                                    tol, code):
        # pass or fail, the table goes to --output with its residuals
        path = tmp_path / "g.csv"
        got, out = run(capsys, "propagator", "--L", "4", "--M", "3",
                       "--t1", "0.5", "--verify", "--format", "csv",
                       "--output", str(path), "--tol", tol)
        assert (got, out) == (code, "")
        lines = path.read_text().splitlines()
        res = [l for l in lines if l.startswith("# residuals: ")]
        assert len(res) == 1
        residuals = json.loads(res[0][len("# residuals: "):])
        assert set(residuals) == {"oracle_residual", "boundary_residual"}
        assert "z1,z2,z1p,z2p,omega,omegap,re,im" in lines

    def test_odd_L_is_config_error(self, capsys):
        code, _ = run(capsys, "propagator", "--L", "5", "--M", "3",
                      "--t1", "0.5")
        assert code == EXIT_CONFIG

    def test_critical_variant_needs_critical_params(self, capsys):
        code, _ = run(capsys, "propagator", "--L", "4", "--M", "3",
                      "--no-critical", "--t1", "0.3", "--t2", "0.3")
        assert code == EXIT_CONFIG

    def test_massive_variant_verify(self, capsys):
        code, out = run(capsys, "propagator", "--L", "4", "--M", "3",
                        "--t1", "0.5", "--variant", "massive", "--verify")
        assert code == EXIT_OK
        assert json.loads(out)["oracle_residual"] < 1e-10

    def test_massive_listing_covers_rows_1_to_M(self, capsys):
        # xi has no closure rows; the listing used to read rows 0 and M+1
        code, out = run(capsys, "propagator", "--L", "4", "--M", "3",
                        "--t1", "0.5", "--variant", "massive")
        assert code == EXIT_OK
        entries = json.loads(out)["entries"]
        assert len(entries) == 3 * 4 * 3
        assert {e["z"][1] for e in entries} == {1, 2, 3}
        assert {e["zp"][1] for e in entries} == {1, 2, 3}

    def test_beta_without_critical_flag(self, capsys):
        code, out = run(capsys, "propagator", "--L", "4", "--M", "3",
                        "--beta", "0.4", "--variant", "massive", "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["metadata"]["config"]["t1"] == pytest.approx(
            math.tanh(0.4))
        assert doc["oracle_residual"] < 1e-10

    def test_explicit_critical_conflicts_with_beta(self, capsys):
        code, _ = run(capsys, "propagator", "--L", "4", "--M", "3",
                      "--critical", "--beta", "0.4", "--variant", "massive")
        assert code == EXIT_CONFIG

    def test_t1_conflicts_with_beta(self, capsys):
        # --beta sets t1 = tanh(beta J1); a --t1 beside it was dropped
        assert rejected(capsys, "propagator", "--L", "4", "--M", "2",
                        "--beta", "0.4", "--t1", "0.3", "--variant",
                        "massive")

    @pytest.mark.parametrize("argv", [
        ["--t1", "0.3", "--t2", "0.5"],
        ["--critical", "--t1", "0.3", "--t2", "0.5"],
        ["--beta", "0.4", "--t2", "0.5", "--variant", "massive"],
        ["--beta", "0.4", "--no-critical", "--t2", "0.5", "--variant",
         "massive"],
        ["--no-critical", "--t1", "0.3", "--variant", "massive"]])
    def test_t2_only_with_no_critical_and_t1(self, capsys, argv):
        # t2 used to be dropped silently (the critical t2 of --t1, or the
        # tanh of --beta, was reported instead)
        code = main(["propagator", "--L", "4", "--M", "2", *argv])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error") and "--t2" in err

    def test_non_critical_t2_is_used(self, capsys):
        code, out = run(capsys, "propagator", "--L", "4", "--M", "2",
                        "--no-critical", "--t1", "0.3", "--t2", "0.5",
                        "--variant", "massive")
        assert code == EXIT_OK
        assert json.loads(out)["metadata"]["config"]["t2"] == 0.5

    def test_seed_is_not_a_propagator_flag(self, capsys):
        code, _ = run(capsys, "propagator", "--L", "4", "--M", "3",
                      "--t1", "0.5", "--seed", "1")
        assert code == EXIT_CONFIG


class TestCorrelate:
    def test_verify_cumulant(self, capsys, tmp_path):
        code, out = run(capsys, "correlate", "--request",
                        write_request(tmp_path), "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["oracle_delta"] < 1e-9
        assert doc["variant"] == "connected-loops"

    def test_verify_moment(self, capsys, tmp_path):
        code, out = run(capsys, "correlate", "--request",
                        write_request(tmp_path, mode="moment"), "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["oracle_delta"] < 1e-9
        assert doc["variant"] == "pfaffian"

    def test_verify_when_weights_overflow(self, capsys, tmp_path):
        # 24 spins with tanh(beta J) = 1 - 1e-15: exp(beta * energy)
        # overflows a float, the oracle moments stay finite
        path = tmp_path / "cold.json"
        path.write_text(json.dumps({
            "params": {"L": 6, "M": 4, "t1": 1 - 1e-15, "t2": 1 - 1e-15,
                       "critical": False},
            "mode": "moment",
            "edges": [{"x1": 1, "x2": 1, "dir": "h"},
                      {"x1": 3, "x2": 2, "dir": "v"}]}))
        code, out = run(capsys, "correlate", "--request", str(path),
                        "--verify")
        assert code == EXIT_OK
        doc = strict_json(out)
        assert doc["oracle"] == pytest.approx(1.0, abs=1e-9)
        assert doc["enumeration_configurations"] == 2 ** 24

    def test_minimum_order(self, capsys, tmp_path):
        # one edge has a moment but no truncated correlation
        one = [{"x1": 1, "x2": 1, "dir": "v"}]
        assert rejected(capsys, "correlate", "--request",
                        write_request(tmp_path, edges=one))
        code, _ = run(capsys, "correlate", "--request",
                      write_request(tmp_path, mode="moment", edges=one),
                      "--verify")
        assert code == EXIT_OK

    @pytest.mark.parametrize("mode", ["moment", "truncated"])
    @pytest.mark.parametrize("edges", [
        [], [{"x1": 1, "x2": 1, "dir": "v"}, {"x1": 1, "x2": 1, "dir": "v"}]])
    def test_no_or_repeated_edges(self, capsys, tmp_path, mode, edges):
        assert rejected(capsys, "correlate", "--request",
                        write_request(tmp_path, mode=mode, edges=edges))

    @pytest.mark.parametrize("extra", [
        {"t2": 0.5}, {"t2": 0.5, "critical": True}, {"critical": False}])
    def test_t2_only_with_critical_false(self, capsys, tmp_path, extra):
        # a "t2" without "critical": false used to be dropped silently
        path = tmp_path / "req.json"
        path.write_text(json.dumps({
            "params": {"L": 4, "M": 3, "t1": 0.3, **extra},
            "edges": [{"x1": 1, "x2": 1, "dir": "h"},
                      {"x1": 3, "x2": 2, "dir": "v"}]}))
        code = main(["correlate", "--request", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error") and '"t2"' in err

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "correlate", "--request", "missing.json")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("params, edge", [
        ({"L": 4.0, "M": 3}, {"x1": 1, "x2": 1}),
        ({"L": 4, "M": 3.0}, {"x1": 1, "x2": 1}),
        ({"L": True, "M": 3}, {"x1": 1, "x2": 1}),
        ({"L": 4, "M": 3}, {"x1": 1.0, "x2": 1}),
        ({"L": 4, "M": 3}, {"x1": 1, "x2": 1.5}),
        ({"L": 4, "M": 3}, {"x1": True, "x2": 1}),
    ])
    def test_non_integer_sizes_and_coordinates(self, capsys, tmp_path,
                                               params, edge):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "params": dict(params, t1=0.5),
            "edges": [dict(edge, dir="h"), {"x1": 3, "x2": 2, "dir": "v"}]}))
        assert rejected(capsys, "correlate", "--request", str(path))

    def test_invalid_mode(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "params": {"L": 4, "M": 3, "t1": 0.5},
            "mode": "nonsense",
            "edges": [{"x1": 1, "x2": 1, "dir": "h"}]}))
        code, _ = run(capsys, "correlate", "--request", str(path))
        assert code == EXIT_CONFIG


class TestScaling:
    def test_decreasing_series(self, capsys):
        code, out = run(capsys, "scaling", "--t1", "0.5", "--points",
                        "(0.25,0.5),(0.625,0.375)", "--halvings", "2",
                        "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        errs = [row["error"] for row in doc["series"]]
        assert len(errs) == 3
        assert doc["strictly_decreasing"]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_bad_points(self, capsys):
        code, _ = run(capsys, "scaling", "--t1", "0.5",
                      "--points", "(0.25,0.5)")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("y", ["-0.1", "1.0", "1.5"])
    def test_points_off_the_cylinder(self, capsys, y):
        # a wrapped ghost row must not pass as a converging series
        assert rejected(capsys, "scaling", "--t1", "0.5", "--points",
                        f"(0.25,{y}),(0.625,0.375)", "--verify")
        assert rejected(capsys, "scaling", "--t1", "0.5", "--points",
                        f"(0.25,0.5),(0.625,{y})", "--verify")

    @pytest.mark.parametrize("points", ["(1e999,0.5),(0.2,0.5)",
                                        "(0.25,0.5),(-1e999,0.5)",
                                        "(1e200,0.5),(0.2,0.5)"])
    def test_infinite_coordinates(self, capsys, recwarn, points):
        # "1e999" matches the number pattern but overflows to infinity;
        # 1e200 is finite but off the unit circumference, and overflows
        # the continuum propagator if it reaches it
        code = main(["scaling", "--t1", "0.5", "--points", points,
                     "--halvings", "1", "--start", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert len(recwarn) == 0

    def test_halvings_at_least_one(self, capsys):
        assert rejected(capsys, "scaling", "--t1", "0.5", "--points",
                        "(0.25,0.5),(0.625,0.375)", "--halvings", "0")


class TestMultiscale:
    def test_json_report(self, capsys):
        code, out = run(capsys, "multiscale", "--L", "16", "--M", "16",
                        "--t1", "0.5", "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["reconstruction_residual"] < 1e-12
        assert doc["bulk_edge_residual"] < 1e-12
        assert doc["scale_norm_profile"]
        assert "rate" in doc["edge_decay_fit"]

    def test_csv_profile(self, capsys):
        code, out = run(capsys, "multiscale", "--L", "16", "--M", "16",
                        "--t1", "0.5", "--format", "csv")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "h,d_edge,norm"
        assert len(lines) > 10

    def test_csv_verify_carries_residuals(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        code, out = run(capsys, "multiscale", "--L", "8", "--M", "8",
                        "--t1", "0.5", "--format", "csv", "--verify",
                        "--output", str(path), "--tol", "0")
        assert (code, out) == (EXIT_VERIFY, "")
        res = [l for l in path.read_text().splitlines()
               if l.startswith("# residuals: ")]
        assert len(res) == 1
        assert set(json.loads(res[0][len("# residuals: "):])) == {
            "reconstruction_residual", "bulk_edge_residual"}

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_residuals_gate_only_under_verify(self, capsys, fmt):
        # the residuals are reported (nonzero at 8x8) but not gated
        code, out = run(capsys, "multiscale", "--L", "8", "--M", "8",
                        "--t1", "0.5", "--format", fmt, "--tol", "0")
        assert code == EXIT_OK
        assert "reconstruction_residual" in out

    @pytest.mark.parametrize("width", ["0", "-2"])
    def test_bin_width_at_least_one(self, capsys, width):
        assert rejected(capsys, "multiscale", "--L", "8", "--M", "8",
                        "--t1", "0.5", "--bin-width", width)


class TestKernels:
    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_at_least_one(self, capsys, runs):
        assert rejected(capsys, "kernels", "--runs", runs, "--verify")

    def test_report_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code, _ = run(capsys, "kernels", "--runs", "1", "--verify",
                      "--output", str(a))
        assert code == EXIT_OK
        code, _ = run(capsys, "kernels", "--runs", "1", "--verify",
                      "--output", str(b))
        assert code == EXIT_OK
        da = json.loads(a.read_text())
        assert da["all_passed"]
        assert {c["name"] for c in da["checks"]} == {
            "kernel cancellations and decompositions",
            "remainder norm inequality battery",
            "one-step RG map sanity"}
        # identical config -> identical results apart from timings
        db = json.loads(b.read_text())
        for rec_a, rec_b in zip(da["checks"], db["checks"]):
            rec_a.pop("seconds"), rec_b.pop("seconds")
        assert da == db


class TestSelftest:
    @pytest.mark.parametrize("ids", [["99"], ["0"], ["2", "12"]])
    def test_unknown_criteria(self, capsys, ids):
        assert rejected(capsys, "selftest", "--only", *ids)

    def test_only_needs_ids(self, capsys):
        # a bare --only used to select the empty set and run every criterion
        assert rejected(capsys, "selftest", "--only")

    def test_subset(self, capsys):
        code, out = run(capsys, "selftest", "--only", "2", "10")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_passed"]
        assert [c["criterion"] for c in doc["criteria"]] == [2, 10]
        for c in doc["criteria"]:
            assert c["residual"] <= c["tolerance"]

    def test_records_carry_margins(self, capsys):
        code, out = run(capsys, "selftest", "--only", "3", "7")
        assert code == EXIT_OK
        recs = {c["criterion"]: c for c in json.loads(out)["criteria"]}
        for c in recs.values():
            assert c["margin"] == pytest.approx(c["tolerance"] / c["residual"])
            assert c["margin"] >= 1.0
        # the edge-decay fit's R^2 against its 0.9 gate
        r2 = float(recs[7]["detail"].split("R^2 ")[1])
        assert recs[7]["r2_margin"] == pytest.approx(0.1 / (1.0 - r2),
                                                     rel=0.02)
        assert recs[7]["r2_margin"] > 1.0
        assert "r2_margin" not in recs[3]


class TestParser:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [
        ("propagator", "--L", "4", "--M", "2", "--t1", "0.5"),
        ("partition", "--L", "4", "--M", "2", "--beta", "0.44"),
        ("correlate", "--request", "req.json"),
        ("multiscale", "--L", "8", "--M", "8", "--t1", "0.5"),
    ], ids=lambda argv: argv[0])
    def test_tolerance_finite_and_nonnegative(self, capsys, tmp_path,
                                              monkeypatch, argv, tol):
        # a NaN tolerance would pass every check, a negative one fail all
        monkeypatch.chdir(tmp_path)
        write_request(tmp_path)
        assert main([*argv, "--verify"]) == EXIT_OK
        capsys.readouterr()
        assert rejected(capsys, *argv, "--verify", "--tol", tol)

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_flag(self, capsys):
        assert main(["partition", "--frobnicate"]) == EXIT_CONFIG

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["selftest", "--seed", "7"])
        assert args.seed == 7


class TestNanResiduals:
    """A NaN residual fails every --verify gate, in any position; the
    residuals are computed by the report functions of ``acceptance``."""

    @pytest.mark.parametrize("name, argv", [
        ("max_block_difference",
         ["propagator", "--L", "4", "--M", "3", "--t1", "0.5"]),
        ("boundary_residual",
         ["propagator", "--L", "4", "--M", "3", "--t1", "0.5"]),
        ("log_partition_function_free",
         ["partition", "--L", "4", "--M", "2", "--beta", "0.44"]),
        ("split_residual",
         ["multiscale", "--L", "8", "--M", "8", "--t1", "0.5"]),
    ])
    def test_gate_fails(self, capsys, monkeypatch, name, argv):
        monkeypatch.setattr(acceptance, name, lambda *a, **k: math.nan)
        code, _ = run(capsys, *argv, "--verify")
        assert code == EXIT_VERIFY

    def test_no_gate_without_verify(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "split_residual",
                            lambda *a, **k: math.nan)
        code, _ = run(capsys, "multiscale", "--L", "8", "--M", "8",
                      "--t1", "0.5")
        assert code == EXIT_OK

    def test_correlate_gate_fails(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(acceptance, "moments_to_cumulants",
                            lambda moments: dict.fromkeys(moments, math.nan))
        code, _ = run(capsys, "correlate", "--request",
                      write_request(tmp_path), "--verify")
        assert code == EXIT_VERIFY


# ---------------------------------------------------------------------------
# Property test over the parser's options at small sizes.
# ---------------------------------------------------------------------------

def _mostly(valid, invalid):
    """Valid three times in four, so that some drawn command lines get
    past every check; the examples below succeed for certain."""
    return st.one_of(valid, valid, valid, invalid)


NUMBERS = _mostly(st.floats(0.05, 0.95), st.one_of(
    st.floats(), st.sampled_from([0.0, 1.0, -0.5, 1e-300, 1e300, 1 - 1e-16])))
SIZES = _mostly(st.sampled_from([2, 4, 8]), st.sampled_from([-2, 0, 3]))
# no 8 x 3: enumerating 24 spins takes 0.5 s
HEIGHTS = _mostly(st.sampled_from([1, 2, 5]), st.sampled_from([-1, 0]))


def _option(key, value):
    return value.map(lambda v: f"--{key}=" + (
        repr(v) if isinstance(v, float) else str(v)))


def _verb(name, required, optional, flags=("--verify",)):
    """The verb's required options, each optional one present or not, and
    a subset of its flags."""
    return st.tuples(
        st.tuples(*(_option(k, v) for k, v in required.items())),
        st.tuples(*(st.one_of(st.just(()), _option(k, v).map(
            lambda a: (a,))) for k, v in optional.items())),
        st.lists(st.sampled_from(flags), max_size=2, unique=True)).map(
        lambda parts: [name, *parts[0], *(a for opt in parts[1]
                                          for a in opt), *parts[2]])


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), NUMBERS,
                 st.text(max_size=4))
EDGE_DOCS = st.fixed_dictionaries(
    {}, optional={"x1": st.one_of(st.integers(-1, 9), JUNK),
                  "x2": st.one_of(st.integers(-1, 6), JUNK),
                  "dir": st.sampled_from(["h", "v", "d", 1])})
EDGES = st.lists(st.fixed_dictionaries({
    "x1": st.integers(1, 8), "x2": st.integers(1, 4),
    "dir": st.sampled_from(["h", "v"])}), min_size=1, max_size=3)
REQUEST_DOCS = _mostly(
    st.fixed_dictionaries({
        "params": st.fixed_dictionaries(
            {"L": SIZES, "M": HEIGHTS, "t1": NUMBERS},
            optional={"t2": NUMBERS, "critical": st.booleans()}),
        "edges": EDGES},
        optional={"mode": st.sampled_from(["moment", "truncated"])}),
    st.one_of(JUNK, st.lists(JUNK, max_size=2), st.fixed_dictionaries(
        {}, optional={
            "params": st.fixed_dictionaries({}, optional={
                "L": st.one_of(SIZES, JUNK), "M": st.one_of(HEIGHTS, JUNK),
                "t1": NUMBERS, "t2": NUMBERS, "critical": JUNK}),
            "mode": st.sampled_from(["moment", "truncated", "nonsense", 2]),
            "edges": st.one_of(JUNK, st.lists(EDGE_DOCS, max_size=3))})))
REQUEST_TEXT = _mostly(REQUEST_DOCS.map(json.dumps), st.text(max_size=20))

POINTS = st.one_of(
    st.text(alphabet="(),.0123456789eE+- ", max_size=24),
    st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS).map(
        lambda p: "({!r},{!r}),({!r},{!r})".format(*p)))

ARGV = st.one_of(
    _verb("propagator", {"L": SIZES, "M": HEIGHTS},
          {"t1": NUMBERS, "t2": NUMBERS, "beta": NUMBERS, "J1": NUMBERS,
           "J2": NUMBERS, "tol": NUMBERS,
           "variant": st.sampled_from(["critical", "massive"])},
          flags=("--verify", "--critical", "--no-critical")),
    _verb("partition", {"L": SIZES, "M": HEIGHTS, "beta": NUMBERS},
          {"J1": NUMBERS, "J2": NUMBERS, "tol": NUMBERS}),
    _verb("correlate", {"request": st.just("REQUEST")}, {"tol": NUMBERS}),
    _verb("scaling", {"t1": NUMBERS, "points": POINTS},
          {"halvings": st.sampled_from([-1, 0, 1]),
           "start": st.sampled_from([-2, 0, 2, 4])}),
    st.lists(st.integers(-2, 15), min_size=1, max_size=3).filter(
        lambda ids: any(not 1 <= i <= len(acceptance.CHECKS)
                        for i in ids)).map(
        lambda ids: ["selftest", "--only", *map(str, ids)]),
)


VALID_REQUEST = json.dumps({
    "params": {"L": 4, "M": 3, "t1": 0.5},
    "edges": [{"x1": 4, "x2": 1, "dir": "h"}, {"x1": 2, "x2": 2, "dir": "v"},
              {"x1": 1, "x2": 3, "dir": "h"}]})


@settings(max_examples=80, deadline=None)
@given(argv=ARGV, request=REQUEST_TEXT)
@example(argv=["propagator", "--L=4", "--M=3", "--t1=0.5", "--verify"],
         request="")
@example(argv=["partition", "--L=4", "--M=2", "--beta=0.44", "--verify"],
         request="")
@example(argv=["correlate", "--request=REQUEST", "--verify"],
         request=VALID_REQUEST)
@example(argv=["correlate", "--request=REQUEST"],
         request=VALID_REQUEST.replace("{", '{"mode": "moment", ', 1))
@example(argv=["scaling", "--t1=0.5", "--points=(0.25,0.5),(0.625,0.375)",
               "--halvings=1", "--start=2"], request="")
@example(argv=["scaling", "--t1=0.5", "--points=(1e200,0.5),(0.2,0.5)",
               "--halvings=1", "--start=2"], request="")
@example(argv=["scaling", "--t1=0.5", "--points=(0.0,0.5),(1.0,0.5)"],
         request="null")
def test_any_options_exit_cleanly(tmp_path_factory, argv, request):
    # every drawn command line ends in a documented exit code, never in a
    # traceback or a warning (which pytest would capture before stderr
    # does), and a success prints strict JSON
    path = tmp_path_factory.getbasetemp() / "request.json"
    path.write_text(request)
    argv = [f"--request={path}" if a == "--request=REQUEST" else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        strict_json(out.getvalue())
        assert err.getvalue() == ""
