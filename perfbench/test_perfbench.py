"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Verdicts must reject bad reports (a bare NaN, a wrong exit code, a
non-finite entry, numbers that contradict the theory), and a smoke run
must print every end-to-end and per-layer metric of BENCHMARK.json with
its unit.
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PARTITION = {"kind": "cli", "argv": [], "expect": {"exit": 0, "check": "partition"}}
GOOD_PARTITION = '{"trace": [2.5, 0.0], "enumerate": [2.5, 0.0], "pass": true}'


def test_good_report_passes():
    assert verdicts.judge(PARTITION, 0, GOOD_PARTITION) is None


@pytest.mark.parametrize(
    "code, text, reason",
    [
        (0, '{"trace": [NaN, NaN], "pass": true}', "bare NaN"),
        (0, '{"trace": [Infinity, 0.0], "pass": true}', "bare Infinity"),
        (0, '{"trace": [1e999, 0.0], "enumerate": [1.0, 0.0], "pass": true}', "non-finite"),
        (1, GOOD_PARTITION, "exit code"),
        (None, "", "exit code"),
        (0, '{"trace": [2.5, 0.0], "enumerate": [2.6, 0.0], "pass": true}', "differ"),
        (0, '{"trace": [-2.5, 0.0], "pass": true}', "real positive"),
        (0, "not json", "not JSON"),
        (0, '{"pass": true}', "no partition"),
    ],
)
def test_bad_report_fails(code, text, reason):
    got = verdicts.judge(PARTITION, code, text)
    assert got is not None and reason in got


def test_odd_torus_must_vanish_exactly():
    check = {"kind": "cli", "argv": [],
             "expect": {"exit": 0, "check": "partition", "z_zero": True}}
    assert verdicts.judge(check, 0, '{"enumerate": [0.0, 0.0]}') is None
    assert verdicts.judge(check, 0, '{"enumerate": [1e-300, 0.0]}') is not None


def test_library_checks_judge_thresholds():
    spin = {"kind": "spinflip", "expect": {}}
    assert verdicts.judge(spin, 0, '{"worst_dev": 0.0}') is None
    assert verdicts.judge(spin, 0, '{"worst_dev": 1e-6}') is not None
    assert verdicts.judge(spin, 0, '{"worst_dev": NaN}') is not None
    stag = {"kind": "stagprod", "expect": {}}
    assert verdicts.judge(stag, 0, '{"product": 1e-15, "factor": 5.0}') is None
    assert verdicts.judge(stag, 0, '{"product": 1e-15, "factor": 1e-12}') is not None


def test_nonfinite_partition_with_exit_0_counts_as_failed():
    # The overflowing torus prints "trace": [NaN, NaN] with "pass": true and
    # exit 0; the harness must count it as a failed check all the same.
    import child

    weights = ",".join(["9"] * 8)
    checks = [
        {"id": 0, "kind": "cli",
         "argv": ["partition", "--model", "even", "--rows", "200", "--cols", "2",
                  "--weights", weights, "--backend", "trace"],
         "expect": {"exit": 0, "check": "partition"}},
        {"id": 1, "kind": "cli", "argv": ["ybe", "--mu1", "0.2", "--mu2", "0.3"],
         "expect": {"exit": 1, "check": "ybe-detuned", "records": 1}},
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        out = child.run({"checks": checks, "seconds": 0, "trace": False})
    assert (out["attempted"], out["failed"]) == (2, 2)
    assert "not strict JSON" in out["failures"][0]
    assert "exit code 0, want 1" in out["failures"][1]


def test_tail_steps_down_until_ten_samples_lie_beyond():
    xs = [float(i) for i in range(1, 1001)]
    assert run.tail(xs, 99.0) == (99.0, 990.0)
    assert run.tail(xs[:100], 99.0) == (90.0, 90.0)
    assert run.tail(xs[:5], 75.0) == (50.0, 3.0)


def test_workloads_are_seeded():
    for name in workloads.NAMES:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)


def _smoke(trace: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0.5", "--trace", str(trace), "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    lines = _smoke(trace)
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    for name in workloads.NAMES:
        for m in BENCH[kind]:
            got = final["metrics"][f"{name}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float)
    printed = [ln for ln in lines if ln.startswith("#   ")]
    assert len(printed) == len(workloads.NAMES) * len(BENCH[kind])
    for m in BENCH[kind]:
        assert sum(ln.startswith(f"#   {m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in printed) == len(workloads.NAMES), m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
