"""The benchmark's tracer installs on the package and puts every original back.

``perfbench/tracer.py`` looks up robustlab functions and methods by name,
so removing or renaming one of them breaks the traced benchmark run; this
test makes that visible in the ordinary suite.
"""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustlab
from robustlab import classifiers, geometry, harness, regions

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict[str, dict]:
    """Copies of every namespace install may rebind: modules, classes, experiments."""
    for info in pkgutil.iter_modules(robustlab.__path__):
        importlib.import_module(f"robustlab.{info.name}")
    out = {"harness.EXPERIMENTS": dict(harness.EXPERIMENTS)}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "robustlab":
            continue
        out[name] = dict(vars(module))
        for key, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{key}"] = dict(vars(value))
    return out


def test_install_then_uninstall_restores_every_original():
    tracer = load_tracer()
    before = snapshot()
    spans = tracer.Tracer()
    shapes = []
    table = classifiers._violation_table

    def counted(hypotheses, regions, examples):
        radii, inclusive = table(hypotheses, regions, examples)
        shapes.append(radii.shape)
        return radii, inclusive

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifiers, "_violation_table", counted)
        uninstall = tracer.install(spans)
        try:
            assert regions.point_key is not before["robustlab.regions"]["point_key"]
            params = {"universe_size": 6, "thresholds": 12, "k_grid": [1, 2, 3], "max_m": 3}
            record = harness.run(
                harness.ExperimentConfig.from_dict(
                    {"experiment": "robust_vc_audit", "seed": 3, "params": params}
                )
            )
            assert record.assertions_passed
            assert spans.counts["loss_vc.subsets_scanned"] > 0
            # one table evaluation per instance, covering every (hypothesis,
            # example) cell, shared by the search and the Sauer pass
            cells = (params["thresholds"], params["universe_size"])
            assert shapes == [cells] * len(params["k_grid"])
            # the table computes every row in one batched pass: it never
            # calls violation_radius, its 1x1 case
            assert spans.calls["classifiers.violation_radius"] == 0
            # the audit reads the loss table, not the pointwise loss
            assert spans.calls["classifiers.robust_loss_point"] == 0
        finally:
            uninstall()
    assert_restored(before)


def test_sandwich_audit_counts_through_shared_ball_geometry():
    tracer = load_tracer()
    before = snapshot()
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        # each ball-array variant keeps a hooked contains_many in its own
        # class body; the shared base has none to shadow them
        for cls in (geometry.Ball, regions.FinitePoints, regions.UnionOfBalls, regions.Expanded):
            original = before[f"{cls.__module__}.{cls.__name__}"]["contains_many"]
            assert cls.__dict__["contains_many"] is not original
        assert "contains_many" not in vars(geometry._BallArray)
        params = {"audits": 4, "include_control": True}
        record = harness.run(
            harness.ExperimentConfig.from_dict({"experiment": "sandwich_audit", "seed": 1, "params": params})
        )
        assert record.assertions_passed
        # exact counts for this config; the benchmark's traced sandwich
        # workload records the same counters, which a change to region
        # geometry must leave unchanged.  The control table's row reads its
        # entries against the stacked balls, not through contains_many, and
        # halfspace and thick-sphere certificates draw no probes, so only
        # the control's certificate samples its domain, and grid covers are
        # certified from their targets' balls without probes.  Each audit
        # builds its certificate domain, one Ball, once for all its hypotheses.
        assert spans.calls["regions.contains_many"] == 6
        assert spans.counts["regions.contains_many.rows"] == 1034
        assert spans.counts["geometry.Ball.init.calls"] == 17
        # scalar queries test their one row without a contains_many span
        calls = spans.calls["regions.contains_many"]
        ball = geometry.Ball((0.0, 0.0), 1.0)
        union = regions.UnionOfBalls([(0.0, 0.0)], [1.0])
        points = regions.FinitePoints([(0.5, 0.0)])
        expanded = regions.Expanded(points, 0.25)
        assert all(region.contains(np.array([0.5, 0.0])) for region in (ball, union, points, expanded))
        assert spans.calls["regions.contains_many"] == calls
        assert spans.counts["geometry.Ball.init.calls"] == 18
    finally:
        uninstall()
    assert_restored(before)


FRESH_RUN = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from robustlab import harness

assert "robustlab.runners" not in sys.modules
uninstall = tracing.install(tracing.Tracer())
try:
    params = {"universe_size": 6, "thresholds": 12, "k_grid": [1, 2], "max_m": 3}
    config = harness.ExperimentConfig.from_dict({"experiment": "robust_vc_audit", "seed": 3, "params": params})
    assert harness.run(config).assertions_passed
finally:
    uninstall()
assert "robustlab.runners" in sys.modules
for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "robustlab":
        for key, value in vars(module).items():
            code = getattr(value, "__code__", None)
            if code is not None and code.co_filename == sys.argv[1]:
                print(f"{name}.{key}")
"""


def test_no_wrapper_outlives_uninstall_when_runners_load_traced():
    # installed before any experiment has run, the tracer cannot see the
    # runners module, or the library modules that only it imports
    # (shatter_game): the first run loads them, and one that bound a traced
    # function by name would keep its wrapper after uninstall
    env = {**os.environ, "PYTHONPATH": str(TRACER_PATH.parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, str(TRACER_PATH)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def assert_restored(before: dict[str, dict]) -> None:
    after = snapshot()
    for space, names in before.items():
        for key, value in names.items():
            assert after[space].get(key) is value, f"{space}.{key} not restored"
