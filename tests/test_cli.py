import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vertex_sheaf
from vertex_sheaf import cli, elliptic, operators, transfer
from vertex_sheaf.cli import DEFAULT_THRESHOLDS, main


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


class TestParam:
    def test_degenerate_spectral_point(self, capsys):
        code, rep = run_cli(capsys, "param", "--k", "0.5", "--lam", "0.7", "--mu", "0.7")
        assert code == 0
        assert rep["a"] == 0.0
        assert rep["d"] == 0.0
        assert rep["pass"] is True

    def test_invariants_agree_across_spectral_points(self, capsys):
        _, rep1 = run_cli(capsys, "param", "--k", "0.5", "--lam", "0.7", "--mu", "0.3")
        _, rep2 = run_cli(capsys, "param", "--k", "0.5", "--lam", "0.7", "--mu", "0.5")
        assert rep1["gamma"] == pytest.approx(rep2["gamma"], abs=1e-10)
        assert rep1["delta"] == pytest.approx(rep2["delta"], abs=1e-10)

    def test_guard_violation_exits_2_with_error_json(self, capsys):
        code, rep = run_cli(capsys, "param", "--k", "0.5", "--lam", "0.7", "--mu", "9.0")
        assert code == 2
        assert "error" in rep
        assert rep["pass"] is False

    def test_has_no_threshold_to_override(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["param", "--k", "0.5", "--lam", "0.7", "--mu", "0.3", "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestYbe:
    def test_headline_triple_passes(self, capsys):
        code, rep = run_cli(capsys, "ybe", "--mu1", "0.2", "--mu2", "0.3",
                            "--parities", "od,od,ev")
        assert code == 0
        assert rep["records"][0]["residual"] < 1e-10

    def test_all_sweeps_eight_records(self, capsys):
        code, rep = run_cli(capsys, "ybe", "--mu1", "0.2", "--mu2", "0.3",
                            "--parities", "all")
        assert code == 0
        assert len(rep["records"]) == 8
        labels = {tuple(r["parities"]) for r in rep["records"]}
        assert len(labels) == 8

    def test_all_evaluates_three_weight_points(self, capsys, monkeypatch):
        # eight parity triples share the weights at mu1, mu1 + mu2 and mu2
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return elliptic.baxter_weights(*args, **kwargs)

        monkeypatch.setattr(operators, "baxter_weights", counting)
        monkeypatch.setattr(cli, "baxter_weights", counting)
        code, _ = run_cli(capsys, "ybe", "--mu1", "0.2", "--mu2", "0.3",
                          "--parities", "all")
        assert code == 0
        assert len(calls) == 3

    def test_detune_is_a_failing_negative_control(self, capsys):
        code, rep = run_cli(capsys, "ybe", "--mu1", "0.2", "--mu2", "0.3",
                            "--detune", "0.1")
        assert code == 1
        assert rep["records"][0]["residual"] > 1e-3
        assert rep["pass"] is False

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_must_be_finite_and_positive(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["ybe", "--mu1", "0.2", "--mu2", "0.3", "--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_non_finite_record_is_a_guard_error(self, capsys, monkeypatch):
        # a NaN nested inside the list of records still names its key
        def one_nan(triples, points):
            return [float("nan") if i == 3 else 0.0 for i in range(len(triples))]

        monkeypatch.setattr(cli, "sheaf_yang_baxter_residual", one_nan)
        code = main(["ybe", "--mu1", "0.2", "--mu2", "0.3", "--parities", "all"])
        out = capsys.readouterr().out
        assert code == 2
        assert "NaN" not in out
        rep = json.loads(out, parse_constant=_reject_constant)
        assert rep == {"command": "ybe", "error": "non-finite result in records",
                       "pass": False}

    def test_bad_parities_usage_error(self, capsys):
        code, rep = run_cli(capsys, "ybe", "--mu1", "0.2", "--mu2", "0.3",
                            "--parities", "up,down,strange")
        assert code == 2
        assert "error" in rep


class TestSolveR:
    def test_elliptic_pair(self, capsys):
        code, rep = run_cli(capsys, "solve-r", "--mu1", "0.55", "--mu2", "0.25")
        assert code == 0
        assert rep["kernel_dim"] == 1
        assert rep["prediction_gap"] < 1e-8
        assert rep["candidates"][0]["pass"] is True

    @pytest.mark.parametrize("mu1,mu2", [("0.55", "0.25"), ("0.3", "0.3"), ("0.2", "0.1")])
    def test_real_matrices_have_a_plain_zero_imaginary_part(self, capsys, mu1, mu2):
        # the candidates and the prediction are real, so every imaginary part is +0.0
        code, rep = run_cli(capsys, "solve-r", "--mu1", mu1, "--mu2", mu2)
        assert code == 0
        matrices = [c["matrix"] for c in rep["candidates"]] + [rep["prediction"]]
        imag = [im for m in matrices for row in m for _, im in row]
        assert all(im == 0.0 and math.copysign(1.0, im) == 1.0 for im in imag)

    def test_off_manifold_weights(self, capsys):
        code, rep = run_cli(capsys, "solve-r",
                            "--weights1", "1.0,0.4,2.2,0.9",
                            "--weights2", "0.7,1.3,0.5,1.1")
        assert code == 0
        assert rep["kernel_dim"] == 0
        assert rep["candidates"] == []

    def test_missing_arguments(self, capsys):
        code, rep = run_cli(capsys, "solve-r")
        assert code == 2

    def test_zero_lax_operator_is_a_guard_error(self, capsys):
        code, rep = run_cli(capsys, "solve-r",
                            "--weights1", "0,0,0,0",
                            "--weights2", "0.7,1.3,0.5,1.1")
        assert code == 2
        assert "zero Lax operator" in rep["error"]

    @pytest.mark.parametrize("weights1,weights2", [
        ("nan,1,1,1", "1,2,3,4"), ("1,1,1,1", "1,inf,3,4"),
    ])
    def test_non_finite_weights_are_a_guard_error(self, capsys, weights1, weights2):
        code, rep = run_cli(capsys, "solve-r", "--weights1", weights1, "--weights2", weights2)
        assert code == 2
        assert "finite" in rep["error"]


class TestCommute:
    def test_manifold_points_pass(self, capsys):
        code, rep = run_cli(capsys, "commute", "--mus", "0.1,0.3,0.5",
                            "--sites", "6", "--kinds", "even,odd")
        assert code == 0
        assert rep["max_norm"] < DEFAULT_THRESHOLDS["commutator"]

    def test_unknown_kind_usage_error(self, capsys):
        code, rep = run_cli(capsys, "commute", "--mus", "0.1,0.3",
                            "--sites", "4", "--kinds", "even,sideways")
        assert code == 2
        assert "error" in rep

    def test_empty_point_list_is_a_guard_error(self, capsys):
        code, rep = run_cli(capsys, "commute", "--mus", ",")
        assert code == 2
        assert "at least one point" in rep["error"]

    def test_one_point_equal_kinds_is_a_guard_error(self, capsys):
        # its one norm is the diagonal [T, T] = 0: a pass that checked nothing
        code, rep = run_cli(capsys, "commute", "--mus", "0.1",
                            "--sites", "4", "--kinds", "even,even")
        assert code == 2
        assert "at least two points" in rep["error"]

    def test_one_point_stag1_stag2_is_a_guard_error(self, capsys):
        # at a symmetric point the two staggered rows are one matrix, so
        # stag1,stag2 is an equal-kind scan whose one norm is the diagonal
        code, rep = run_cli(capsys, "commute", "--mus", "0.1",
                            "--sites", "4", "--kinds", "stag1,stag2")
        assert code == 2
        assert "at least two points" in rep["error"]

    def test_scan_byte_guard(self, capsys):
        # three 14-site points of two kinds: 1182 orbits and 8 momenta, six
        # kept block sets plus one operand's and one pair's working set,
        # 2.1 GiB: rejected before anything is built.  Two points fit, and
        # so does a 13-site pair, which the dense count refused
        code, rep = run_cli(capsys, "commute", "--sites", "14", "--mus", "0.1,0.2,0.3",
                            "--kinds", "even,odd")
        assert code == 2
        row, block = 8 * 1182 * 2**14, 16 * 8 * 1182**2
        assert str(2 * row + 11 * block) in rep["error"]
        assert "14-site representative rows and momentum blocks" in rep["error"]
        points = [elliptic.baxter_weights(elliptic.EllipticPoint(0.5, 0.7, mu)) for mu in (0.2, 0.4)]
        for sites in (13, 14):
            assert transfer._scan_bytes(points, sites, ("even", "odd")) <= transfer.MAX_SCAN_BYTES


class TestPartition:
    def test_odd_three_by_three_is_zero(self, capsys):
        code, rep = run_cli(capsys, "partition", "--model", "odd",
                            "--rows", "3", "--cols", "3", "--seed", "9")
        assert code == 0
        assert rep["enumerate"] == [0.0, 0.0]
        assert abs(complex(*rep["trace"])) < 1e-9

    def test_backends_agree(self, capsys):
        code, rep = run_cli(capsys, "partition", "--model", "even",
                            "--rows", "2", "--cols", "2", "--seed", "3")
        assert code == 0
        assert rep["rel_diff"] < DEFAULT_THRESHOLDS["enumeration"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_trace_is_a_guard_error(self, capsys):
        code = main(["partition", "--model", "even", "--rows", "200", "--cols", "2",
                     "--weights", "9,9,9,9,9,9,9,9", "--backend", "trace"])
        out = capsys.readouterr().out
        assert code == 2
        assert "NaN" not in out
        rep = json.loads(out)
        assert "non-finite" in rep["error"] and "trace" in rep["error"]


    def test_staggered_trace_limit_is_the_chain_guard(self, capsys):
        # both trace paths are limited by the transfer-matrix chain guards alone;
        # the row runs along the shorter side, so only a square torus reaches them
        for size, extra in (("14", ("--staggered",)), ("13", ())):
            code, rep = run_cli(capsys, "partition", "--model", "odd", "--rows", size,
                                "--cols", size, *extra, "--backend", "trace")
            assert code == 2
            assert f"chain length {size}" in rep["error"]

    def test_enumeration_limit_is_thirty_two_edges(self, capsys):
        code, rep = run_cli(capsys, "partition", "--model", "even", "--rows", "4",
                            "--cols", "5", "--backend", "enumerate")
        assert code == 2
        assert "32 edges, got 40" in rep["error"]

    def test_long_thin_trace_builds_the_short_side(self, capsys):
        for cols, extra in (("14", ("--staggered",)), ("13", ())):
            code, rep = run_cli(capsys, "partition", "--model", "odd", "--rows", "2",
                                "--cols", cols, *extra, "--backend", "trace")
            assert code == 0
            re, im = rep["trace"]
            assert re > 0.0
            assert abs(im) <= 1e-12 * re


class TestWuKunz:
    def test_seeded_check_passes(self, capsys):
        code, rep = run_cli(capsys, "wukunz", "--seed", "42")
        assert code == 0
        assert rep["rel_diff"] < 1e-12
        assert rep["pass"] is True

    def test_report_keeps_wire_pairs_and_key_order(self, capsys):
        _, rep = run_cli(capsys, "wukunz", "--seed", "42")
        assert list(rep) == ["command", "weights", "seed", "tol", "lhs", "rhs",
                             "rel_diff", "lattice", "model", "backend", "pass"]
        for side in ("lhs", "rhs"):
            assert isinstance(rep[side][0], float) and rep[side][1] == 0.0


def test_backends_dispatch_through_the_module_attributes(capsys, monkeypatch):
    # a wrapper installed on a module attribute, as a profiler's span is,
    # sees every partition the table dispatches
    calls = []
    for name in transfer.BACKENDS.values():
        def spy(*args, _name=name, _fn=getattr(transfer, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(transfer, name, spy)
    run_cli(capsys, "partition", "--model", "even", "--rows", "2", "--cols", "2")
    run_cli(capsys, "wukunz", "--backend", "trace")
    assert calls == ["partition_trace", "partition_enumerate"] + ["partition_trace"] * 2


class TestSampleKrinsky:
    def test_pass_and_shape(self, capsys):
        code, rep = run_cli(capsys, "sample-krinsky", "--seed", "4")
        assert code == 0
        assert len(rep["first"]["w"]) == 8
        assert rep["first"]["parity"] == "odd"
        assert max(rep["ff_residuals"]) < 1e-10
        assert rep["krinsky_gap"] < 1e-9

    def test_tol_is_honoured(self, capsys):
        code, rep = run_cli(capsys, "sample-krinsky", "--seed", "4", "--tol", "1e-300")
        assert code == 1
        assert rep["tol"] == 1e-300
        assert rep["pass"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["param", "--k", "0.5", "--lam", "0.7", "--mu", "nan"],
        ["ybe", "--mu1", "nan", "--mu2", "0.3"],
        ["solve-r", "--mu1", "0.55", "--mu2", "inf"],
    ],
)
def test_non_finite_spectral_input_is_a_guard_error(capsys, argv):
    code, rep = run_cli(capsys, *argv)
    assert code == 2
    bad = "inf" if "inf" in argv else "nan"
    assert f"must be finite, got {bad}" in rep["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["param", "--k", "0.5", "--lam", "0.7", "--mu", "0.3"],
        ["ybe", "--mu1", "0.2", "--mu2", "0.3"],
        ["ybe", "--mu1", "0.2", "--mu2", "0.3", "--detune", "0.1"],
        ["solve-r", "--mu1", "0.55", "--mu2", "0.25"],
        ["commute", "--mus", "0.1,0.3", "--sites", "4"],
        ["partition", "--model", "odd", "--rows", "2", "--cols", "2", "--seed", "1"],
        ["wukunz", "--seed", "42"],
        ["sample-krinsky", "--seed", "4"],
        ["param", "--k", "0.5", "--lam", "0.7", "--mu", "9.0"],
    ],
)
def test_single_report_path(capsys, argv):
    """Every report is strict JSON ending in "pass", and the exit code agrees."""
    code, rep = run_cli(capsys, *argv)
    assert list(rep)[-1] == "pass"
    if "error" in rep:
        assert code == 2
    else:
        assert code == (0 if rep["pass"] else 1)
    assert rep["pass"] is (code == 0)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["param", "--k", "0.5", "--lam", "0.7", "--mu", "0.3"],
            ["ybe", "--mu1", "0.2", "--mu2", "0.3", "--parities", "all"],
            ["wukunz", "--seed", "42"],
            ["sample-krinsky", "--seed", "4"],
        ],
    )
    def test_identical_runs_identical_bytes(self, capsys, argv):
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second

    def test_usage_error_between_runs_leaves_output_unchanged(self, capsys):
        # one process, one parser: a rejected argv must not disturb the next run
        argv = ["ybe", "--mu1", "0.2", "--mu2", "0.3"]
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["param", "--k", "0.5", "--lam", "0.7", "--mu", "0.3", "--tol", "1e-3"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == first

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["param", "--k", "0.5", "--lam", "0.7", "--mu", "0.3",
                     "--output", str(path)])
        assert code == 0
        rep = json.loads(path.read_text())
        assert rep["command"] == "param"

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        code = main(["param", "--k", "0.5", "--lam", "0.7", "--mu", "0.3",
                     "--output", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(tmp_path) in captured.err


def test_module_entry_point():
    # the child process imports the same package this suite imported
    src = str(Path(vertex_sheaf.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "vertex_sheaf", "param",
         "--k", "0.5", "--lam", "0.7", "--mu", "0.3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["gamma"] == pytest.approx(0.5347565432466495, abs=1e-12)
