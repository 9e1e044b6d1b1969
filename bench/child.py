"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/child.py '<spec as JSON>' (the runner builds the
spec and puts src/ on PYTHONPATH).  The spec names the workload, its
plan and whether to trace; the last line of stdout is the result.

halftwist.cli is imported before anything else, so the time the runner
measures from spawning this interpreter to the `setup_end` stamp is
interpreter start plus that import.
"""

import time

_import_start = time.monotonic()
import halftwist.cli  # noqa: E402,F401

SETUP_END = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import halftwist  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer, layer_values  # noqa: E402


CALIBRATION_LOOPS = 100_000


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, a probe of the host's current
    speed taken next to each operation."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {
        "setup_end": SETUP_END,
        "import_s": SETUP_END - _import_start,
        "version": halftwist.__version__,
    }
    if spec.get("warm_up"):
        ops.warm_up(spec["workload"])
        print(json.dumps(result))
        return 0
    workload = ops.WORKLOADS[spec["workload"]]
    plan = spec["plan"]
    probe_before = calibration_s()
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    outputs, error = None, None
    start = time.perf_counter()
    try:
        outputs = workload.run(plan)
    except Exception:
        error = traceback.format_exc(limit=-3)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
    probe = (probe_before + calibration_s()) / 2
    if error is None:
        error = workload.check(plan, outputs)
    result.update(
        wall_s=wall, probe_s=probe, peak_kb=peak_kb, ok=error is None, error=error
    )
    if tracer:
        result["layers"], result["notes"] = layer_values(tracer)
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
