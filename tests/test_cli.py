import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vertex_sheaf
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
        # both trace paths are limited by the transfer-matrix chain guards alone
        for cols, extra in (("14", ("--staggered",)), ("13", ())):
            code, rep = run_cli(capsys, "partition", "--model", "odd", "--rows", "2",
                                "--cols", cols, *extra, "--backend", "trace")
            assert code == 2
            assert f"chain length {cols}" in rep["error"]


class TestWuKunz:
    def test_seeded_check_passes(self, capsys):
        code, rep = run_cli(capsys, "wukunz", "--seed", "42")
        assert code == 0
        assert rep["rel_diff"] < 1e-12
        assert rep["pass"] is True


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
