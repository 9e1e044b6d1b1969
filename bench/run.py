"""Benchmark of halftwist: whole-process operations on three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ledger --seed 1 --seconds 40 --trace 0

One client runs a closed loop: each operation is a fresh interpreter
(bench/child.py) that imports halftwist.cli from src/, runs the
workload's operation once and checks its outputs, and the next
operation starts when it has exited.  Operations are started until
`--seconds` have passed.

End-to-end times are reported at a reference host speed.  The host's
speed drifts (on a shared 2-core machine a fixed loop's time moved by up
to 40% within a minute), so each child times a fixed pure-Python probe
loop before and after its operation, and each end-to-end time is scaled
by REFERENCE_PROBE_S / probe: it reads as seconds on a host where the
probe takes REFERENCE_PROBE_S.  The raw medians are in the detail line;
per-layer times are raw.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced operations and prints the per-layer metrics of the traced
ones (medians over operations) and the tracing overhead.  Stdout ends
with a line holding run metadata and details, then the result line
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from ops import WORKLOADS
from stats import median, upper_quartile
from tracer import layer_specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SPANS_DIR = BENCH / "out"
OP_TIMEOUT_S = 60
REFERENCE_PROBE_S = 0.010

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("wall_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)
PER_LAYER = tuple(layer_specs())


def run_operation(spec: dict, env: dict) -> dict:
    """Spawn one child and return its result, with `setup_s` measured
    from the spawn; a child that crashes, hangs or prints no result is
    a failed operation timed from spawn to exit."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": OP_TIMEOUT_S, "error": "timed out"}
    elapsed = time.monotonic() - spawned
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        stderr = proc.stderr.strip().splitlines()
        return {
            "ok": False,
            "wall_s": elapsed,
            "error": f"exit {proc.returncode}: {stderr[-1] if stderr else ''}",
        }
    result["setup_s"] = result["setup_end"] - spawned
    return result


def git_revision() -> dict | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {"revision": head, "dirty": bool(status.strip())}


def run_metadata(args, version: str | None) -> dict:
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {
        "halftwist": version,
        "python": platform.python_version(),
        "sympy": sympy,
        "git": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "workloads": sorted(WORKLOADS),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(records: list[dict]) -> tuple[dict, dict]:
    probes = [r["probe_s"] for r in records if "probe_s" in r]
    typical = median(probes)

    def scaled(r: dict, key: str) -> float:
        # an operation that crashed took no probe: use the run's median
        return r[key] * REFERENCE_PROBE_S / r.get("probe_s", typical)

    walls = [scaled(r, "wall_s") for r in records]
    setups = [scaled(r, "setup_s") for r in records if "setup_s" in r]
    # A fixed percentile: a run of --seconds holds too few sweep-grid and
    # torelli-ladder operations for one with ten samples beyond it, and
    # a percentile that moved with the sample count would jump between
    # runs.  At 75 the ledger workload has about ten beyond.
    wall_tail = upper_quartile(walls)
    ok = sum(r["ok"] for r in records)
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "wall_tail_s": wall_tail,
        "peak_rss_mb": median(r["peak_kb"] for r in records if "peak_kb" in r) / 1024,
        "ok_ratio": ok / len(records),
    }
    notes = {
        "wall_tail": {
            "percentile": 75,
            "samples": len(walls),
            "beyond": sum(w > wall_tail for w in walls),
        },
        "raw_s": {
            "setup": median(r["setup_s"] for r in records if "setup_s" in r),
            "wall": median(r["wall_s"] for r in records),
            "probe": typical,
        },
        "walls_s": [r["wall_s"] for r in records],
        "probes_s": [r.get("probe_s") for r in records],
        "failed_ratio": 1 - ok / len(records),
    }
    return metrics, notes


def per_layer(records: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in records if r.get("layers")]
    plain = [r for r in records if "layers" not in r and "peak_kb" in r]
    metrics = {
        name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    metrics["cli.import_s"] = median(r["import_s"] for r in records if "import_s" in r)
    metrics["trace_overhead_s"] = median(r["wall_s"] for r in traced) - median(
        r["wall_s"] for r in plain
    )
    counts = [
        {n: v for n, v in r["layers"].items() if not n.endswith("_s")} for r in traced
    ]
    notes = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "counts_repeat": all(c == counts[0] for c in counts),
        "layer_notes": traced[0]["notes"],
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "halftwist" / "cli.py").is_file():
        print(f"error: no halftwist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    warm = run_operation({"workload": args.workload, "warm_up": True}, env)
    if "setup_end" not in warm:
        print(f"error: warm-up failed: {warm['error']}", file=sys.stderr)
        return 1

    spans_path = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    records: list[dict] = []
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or (
        args.trace and len(records) < 2
    ):
        traced = bool(args.trace) and len(records) % 2 == 1
        spec = {"workload": args.workload, "plan": workload.plan(rng), "trace": traced}
        if traced and spans_path is not None:
            spec["spans"] = str(spans_path)  # the first traced operation only
            spans_path = None
        records.append(run_operation(spec, env))

    if not any("probe_s" in r for r in records) or (
        args.trace and not any(r.get("layers") for r in records)
    ):
        print(f"error: no operation completed: {records[0]['error']}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes = per_layer(records)
        specs = PER_LAYER
    else:
        metrics, notes = end_to_end(records)
        specs = END_TO_END
    failed = sum(not r["ok"] for r in records)
    errors = [r["error"] for r in records if not r["ok"]][:3]
    detail = {
        "metadata": run_metadata(args, warm.get("version")),
        "notes": notes,
        "errors": errors,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    for error in errors:
        print(f"failed operation: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
