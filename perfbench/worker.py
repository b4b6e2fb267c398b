"""Run one robustlab experiment config in a closed loop, in this process.

Usage: python3 perfbench/worker.py CONFIG_JSON SECONDS MODE MIN_TIMED

The first run is a warm-up whose output bytes are the reference for the
rest; timed runs follow back to back until SECONDS have passed and at
least MIN_TIMED of them are done.  MODE is

* ``untraced``: after each timed run, two fresh interpreters: one times
  ``import robustlab`` plus parsing the config (a set-up sample), the other
  a fixed calibration job that does not touch robustlab (a speed sample of
  the machine at that moment).  Both kinds are spread over the whole
  measurement instead of taken in one burst;
* ``alternate``: timed runs come in pairs, one untraced and one with the
  robustlab layers wrapped by ``tracer.install``, in the order UT, TU, UT,
  ... so that a slow phase of the machine does not fall on one side only.
  MIN_TIMED counts pairs here.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import robustlab
from robustlab.harness import ExperimentConfig
ExperimentConfig.from_file(sys.argv[2])
elapsed = time.perf_counter() - t0
if not robustlab.__file__.startswith(sys.argv[1]):
    sys.exit("robustlab was not imported from " + sys.argv[1])
print(elapsed)
"""

# What a fresh interpreter does in SETUP_CODE, minus robustlab: import numpy,
# then a fixed amount of small-object Python work.  It never changes with
# src/, so its time tracks only the speed of the machine.
CALIBRATION_CODE = """
import time
t0 = time.perf_counter()
import numpy
table = {}
for i in range(200_000):
    key = (i % 5000, i % 7)
    table[key] = table.get(key, 0) + 1
print(time.perf_counter() - t0)
"""


def _data_rows(payload: bytes) -> int:
    lines = [line for line in payload.decode().splitlines() if not line.startswith("#")]
    return len(lines) - 1  # minus the column-name line


def child_time(code: str, *args: str) -> float:
    """Seconds a fresh interpreter running ``code`` reports for its own work."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"timing interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def main(argv: list[str]) -> int:
    config_path, seconds, mode, min_timed = argv[0], float(argv[1]), argv[2], int(argv[3])
    sys.path.insert(0, SRC)
    import numpy
    import robustlab
    from robustlab import harness

    if not os.path.abspath(robustlab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"robustlab imported from {robustlab.__file__}, not from {SRC}")
    if mode == "alternate":
        import tracer as tracing

        tracer = tracing.Tracer()

    with open(config_path) as fh:
        config = harness.ExperimentConfig.from_dict(json.load(fh))
    out_path = config.output_path

    def run_once(traced: bool) -> dict:
        if os.path.exists(out_path):
            os.remove(out_path)
        entry = {"traced": traced, "s": None, "passed": False, "sha256": None, "rows": None, "error": None}
        if traced:
            tracer.reset()
            uninstall = tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            record = harness.run(config)
            entry["s"] = time.perf_counter() - t0
            # the verdict may be a numpy bool (oracle_query_sweep with budget 0)
            entry["passed"] = bool(record.assertions_passed)
            with open(out_path, "rb") as fh:
                payload = fh.read()
            entry["sha256"] = hashlib.sha256(payload).hexdigest()
            entry["rows"] = _data_rows(payload)
        except Exception as err:  # a failed run is counted, not fatal
            entry["error"] = f"{type(err).__name__}: {err}"
        finally:
            if traced:
                uninstall()
                entry["layers"] = tracer.metrics()
        return entry

    runs = [run_once(False)]  # warm-up and byte reference
    setup: list[float] = []
    calibration: list[float] = []
    start = time.perf_counter()
    timed = 0
    while timed < min_timed or time.perf_counter() - start < seconds:
        if mode == "alternate":
            order = (False, True) if timed % 2 == 0 else (True, False)
            runs += [run_once(traced) for traced in order]
        else:
            runs.append(run_once(False))
            setup.append(child_time(SETUP_CODE, SRC, config_path))
            calibration.append(child_time(CALIBRATION_CODE))
        timed += 1
    if os.path.exists(out_path):
        os.remove(out_path)
    report = {
        "numpy": numpy.__version__,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "runs": runs,
        "setup_s": setup,
        "calibration_s": calibration,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
