"""Tests of the benchmark's output: BENCHMARK.json, the result line,
the output checks and the repeatability of traced counts."""

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ops
import run

ROOT = Path(run.ROOT)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


@pytest.mark.parametrize(
    "workload, trace, specs",
    [("torelli-ladder", "0", run.END_TO_END), ("ledger", "1", run.PER_LAYER)],
)
def test_result_line_schema(workload, trace, specs):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _ in specs]
    for name, unit, _ in specs:
        metric = result["metrics"][name]
        assert set(metric) == {"value", "unit"} and metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
    meta = json.loads(detail_line)["detail"]["metadata"]
    assert {"halftwist", "python", "sympy", "git", "nproc", "seed", "workloads"} <= set(meta)
    assert meta["seed"] == 1 and meta["workloads"] == sorted(ops.WORKLOADS)


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and bench/, kept under the
    # ignored output directory so the test writes nowhere else
    bare = run.SPANS_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "ledger", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", ["ledger", "torelli-ladder"])
def test_traced_counts_repeat_for_the_same_seed(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results = []
    for _ in range(2):
        plan = ops.WORKLOADS[workload].plan(random.Random(7))
        results.append(run.run_operation({"workload": workload, "plan": plan, "trace": True}, env))
    counts = [
        {n: v for n, v in r["layers"].items() if not n.endswith("_s")} for r in results
    ]
    assert all(r["ok"] for r in results)
    assert counts[0] == counts[1]
    assert counts[0]["jacobian.exact_rank.calls"] > 0


def _cli_output(name):
    return 0, (ops.REFERENCE / name).read_text()


def test_checks_accept_the_reference_outputs():
    assert ops.Ledger.check([["verify"]], [_cli_output("verify.txt")]) is None
    plan = ops.SweepGrid.plan(random.Random(1))
    outputs = [_cli_output(f"sweep-{argv[2]}.txt") for argv in plan]
    assert ops.SweepGrid.check(plan, outputs) is None
    rungs = {p: (dim, True, True) for p, dim in ops.LADDER_DIMS.items()}
    assert ops.TorelliLadder.check([2, 3, 4], (56, rungs)) is None


def test_checks_reject_altered_outputs():
    code, text = _cli_output("verify.txt")
    assert ops.Ledger.check([["verify"]], [(1, text)])
    flipped = text.replace("discrepancy-known  cor2.7.surfaces_bound",
                           "pass               cor2.7.surfaces_bound")
    assert flipped != text and ops.Ledger.check([["verify"]], [(0, flipped)])
    assert ops.Ledger.check([["verify"]], [(0, text + "\n")])

    plan = [ops.SweepGrid.plan(random.Random(1))[0]]
    code, text = _cli_output(f"sweep-{plan[0][2]}.txt")
    lines = text.splitlines(keepends=True)
    failing = lines[:1] + [lines[1].replace("pass", "FAIL", 1)] + lines[2:]
    assert ops.SweepGrid.check(plan, [(0, "".join(failing))])
    assert ops.SweepGrid.check(plan, [(0, text.replace("  ", " ", 1))])

    rungs = {p: (dim, True, True) for p, dim in ops.LADDER_DIMS.items()}
    assert ops.TorelliLadder.check([2, 3, 4], (55, rungs))
    assert ops.TorelliLadder.check([2, 3, 4], (56, {**rungs, 3: (111, True, True)}))
    assert ops.TorelliLadder.check([2, 3, 4], (56, {**rungs, 2: (29, True, False)}))
