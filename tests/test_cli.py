import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("kinds", ["even,odd", "odd,even", "odd,odd"])
    def test_one_point_mixed_symmetric_kinds_is_a_guard_error(self, capsys, kinds):
        # odd is read as even (T_od = S T_ev, and S commutes with a
        # symmetric row), so the one norm is S [T, T] = 0, the diagonal
        code, rep = run_cli(capsys, "commute", "--mus", "0.1",
                            "--sites", "4", "--kinds", kinds)
        assert code == 2
        assert "at least two points" in rep["error"]

    def test_mixed_pair_diagonal_is_positive_zero(self, capsys):
        # a commutator that vanishes exactly prints 0.0, never -0.0
        argv = ["commute", "--k", "0.348356", "--lam", "0.633078",
                "--mus", "0.195644,0.528443", "--sites", "5", "--kinds", "even,odd"]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0 and "-0.0" not in out
        norms = json.loads(out)["norms"]
        assert [math.copysign(1.0, norms[i][i]) for i in (0, 1)] == [1.0, 1.0]
        assert norms[0][0] == norms[1][1] == 0.0

    def test_staggered_kind_at_an_odd_length_is_a_guard_error(self, capsys):
        code, rep = run_cli(capsys, "commute", "--mus", "0.1,0.3",
                            "--sites", "5", "--kinds", "even,stag1")
        assert code == 2
        assert "staggered kinds need an even chain length" in rep["error"]

    def test_scan_byte_guard(self, capsys):
        # seventeen 14-site points, even,odd read as even,even: sigma^z
        # sectors of 596 orbits (the odd one's 586 padded), L = 14 and 8
        # momenta, seventeen kept block sets plus one operand's and one
        # pair's working set, 2,236,382,720 bytes: rejected before anything
        # is built.  Sixteen points fit, and so do a 13-site and a 14-site
        # pair, which the dense count refused
        mus = ",".join(f"{0.05 * i:.2f}" for i in range(1, 18))
        code, rep = run_cli(capsys, "commute", "--sites", "14", "--mus", mus,
                            "--kinds", "even,odd")
        assert code == 2
        row, gather, block = 8 * 1192 * 2**14, 8 * 2 * 596**2 * 14, 16 * 2 * 8 * 596**2
        assert row + gather + 22 * block == 2_236_382_720
        assert str(row + gather + 22 * block) in rep["error"]
        assert "14-site representative rows and momentum blocks" in rep["error"]
        points = [elliptic.baxter_weights(elliptic.EllipticPoint(0.5, 0.7, 0.05 * i))
                  for i in range(1, 17)]
        assert transfer._scan_bytes(points, 14, ("even", "even")) <= transfer.MAX_SCAN_BYTES
        for sites in (13, 14):
            assert transfer._scan_bytes(points[:2], sites, ("even", "even")) <= transfer.MAX_SCAN_BYTES


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


def test_readme_examples_run():
    # every example line of the README runs through the CLI: exit 0, or 1
    # for the line marked as a negative control
    readme = Path(__file__).parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines()
             if line.startswith("vertex-sheaf ")]
    assert len(lines) == 9
    for line in lines:
        command, _, comment = line.partition("#")
        want = 1 if "negative control" in comment else 0
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(shlex.split(command)[1:])
        assert code == want, line
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _outcome(parse, argv):
    """(namespace fields or exit code, stdout, stderr) of one parse; the
    fields as sorted (name, repr) pairs, so nan equals nan and -0.0 does
    not equal 0.0."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = sorted((key, repr(value)) for key, value in vars(parse(list(argv))).items())
    except SystemExit as exc:
        result = exc.code
    return result, out.getvalue(), err.getvalue()


def _value_text(kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    # mostly plain values; a negative one, or a --tol at or below 0, goes to argparse
    numbers = {int: st.integers(-9, 99).map(str), float: st.floats(-0.25, 2.0).map(repr)}
    numbers[cli.positive_float] = numbers[float]
    return numbers.get(kwargs.get("type"), st.text("0123456789.,abdeov", max_size=10))


@st.composite
def _cli_argv(draw):
    """A subcommand, its required options and a random subset of the others
    (repeats allowed) in random order, some as ``--name=value``."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._options(name)
    required = [opt for opt in options if opt[1].get("required")]
    chosen = draw(st.permutations(required + draw(st.lists(st.sampled_from(options),
                                                           max_size=6))))
    argv = [name]
    for flag, kwargs in chosen:
        if kwargs.get("action") == "store_true":
            argv.append(flag)
            continue
        text = draw(_value_text(kwargs))
        argv += [f"{flag}={text}"] if draw(st.integers(0, 7)) == 0 else [flag, text]
    return argv


@settings(max_examples=400)
@given(_cli_argv())
def test_reader_gives_argparse_namespace(argv):
    assert _outcome(cli._parse, argv) == _outcome(cli._build_parser().parse_args, argv)


PLAIN_ARGV = [
    ["param", "--k", "0.5", "--lam", "0.7", "--mu", "0.3"],
    ["ybe", "--mu1", "0.2", "--mu2", "0.3", "--parities", "all", "--tol", "1e-9"],
    ["solve-r", "--weights1", "1,0.4,2.2,0.9", "--weights2", "0.7,1.3,0.5,1.1"],
    ["commute", "--mus", "0.1,0.3", "--sites", "4", "--kinds", "even,odd", "--sites", "5"],
    ["partition", "--staggered", "--model", "odd", "--rows", "2", "--cols", "2"],
    ["wukunz", "--backend", "trace", "--seed", "42"],
    ["sample-krinsky", "--seed", "4"],
]


def test_plain_argv_skips_argparse(capsys, monkeypatch):
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    for argv in PLAIN_ARGV:
        code, rep = run_cli(capsys, *argv)
        assert code == 0 and rep["command"] == argv[0]
    assert calls == []
    # any other argv still goes through argparse
    run_cli(capsys, "param", "--k=0.5", "--lam", "0.7", "--mu", "0.3")
    assert calls


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["ybe", "--help"],
        [],
        ["frobnicate", "--seed", "4"],
        ["ybe", "--mu1", "0.2", "--mu2", "0.3", "--la", "0.7"],
        ["param", "--k", "0.5", "--lam", "0.7", "--mu", "-0.3"],
        ["ybe", "--mu1", "0.2", "--mu2", "0.3", "--tol", "0"],
        ["ybe", "--mu1", "0.2", "--mu2"],
        ["ybe", "--mu1", "0.2"],
        ["partition", "--model", "sideways", "--rows", "2", "--cols", "2"],
    ],
)
def test_help_and_usage_errors_are_argparse_own(argv):
    outcome = _outcome(cli._parse, argv)
    assert outcome == _outcome(cli._build_parser().parse_args, argv)
    if isinstance(outcome[0], int):
        assert outcome[1] + outcome[2]  # help on stdout or usage on stderr
