"""Package surface: every exported name exists, none is exported twice, the
namespace resolves each name from its module on use, parsing a config loads
no numpy, the demos and the README's library tour run against the current
API, each demo prints the bytes it printed before, and the README's config
tables are the harness's rule tables."""

import hashlib
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import robustlab

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout.  The demos are seeded, so a change meant to
# leave results alone, such as a refactor or a speed-up, must keep these.
DEMO_STDOUT_SHA256 = {
    "01_regions_and_robust_loss.py": "21a2182e41aafc3d85670b03b4d5c98f831213be47315721aee352194daa4310",
    "02_sphere_covers_and_caps.py": "bb6327eed9402790439f5d73943f4d74ff035936aac128b2c134ce57c4208749",
    "03_proper_failure_game.py": "3a0bf607ffa1add1ef2b6ce812b16debc65c7ad616493241e9df23435ed47cd1",
    "04_oracle_query_game.py": "6a3d6c7f71832b60e5e7931ae4a369d6b601381f4e0b81410e910a556d1169f9",
    "05_tolerant_learning_curve.py": "5924f40e67df8cf5d735fcec69de64ed1b0d098deebc463aa40521c74d058ec5",
    "06_sandwich_constructions.py": "dff3ab3373ec4b55b7ced4c9effde390fe79a8551c56ad70d24d4a8eec7cf446",
    "07_robust_vc.py": "85ad08e37b71a6acd49c8c769427dc8c680765f7e9278556120a5ecfd3ddb67c",
}


def test_exports_resolve_and_are_unique():
    modules = [robustlab] + [
        importlib.import_module(f"robustlab.{info.name}") for info in pkgutil.iter_modules(robustlab.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_demos_and_readme_tour_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demos = sorted((ROOT / "demos").glob("0*.py"))
    assert [demo.name for demo in demos] == sorted(DEMO_STDOUT_SHA256)
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True)
        assert proc.returncode == 0, (demo.name, proc.stderr.decode())
        assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name], demo.name

    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_config_tables_are_the_rule_tables():
    from robustlab.harness import CONFIG_ROWS, EXPERIMENTS, REQUIRED

    header = r":\n\n\| key \| default \| must be \|\n\| --- \| --- \| --- \|\n((?:\|.*\n)+)"
    blocks = re.findall(r"^(?:`(\w+)`, .*|Top-level keys)" + header, (ROOT / "README.md").read_text(), re.M)
    tables = {"": CONFIG_ROWS, **{name: spec.defaults for name, spec in EXPERIMENTS.items()}}
    assert sorted(name for name, _ in blocks) == sorted(tables)
    for name, body in blocks:
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in body.splitlines()]
        assert [key.strip("`") for key, _, _ in rows] == list(tables[name]), name
        for (_, default, phrase), (value, rule) in zip(rows, tables[name].values()):
            assert default == ("required" if value is REQUIRED else f"`{json.dumps(value)}`"), name
            assert phrase == getattr(rule, "phrase", phrase), name


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; loading it at import time slowed
    # every fresh interpreter's set-up and raised its peak memory
    code = "import sys, robustlab, robustlab.harness, robustlab.seeding; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# One config per kind of rule, each with a value that rule rejects.
REJECTED = [
    {"experiment": "tolrerm_sweep", "seed": 1, "params": {"tasks": "3"}},
    {"experiment": "tolrerm_sweep", "seed": 1, "params": {"n_grid": []}},
    {"experiment": "tolrerm_sweep", "seed": 1, "params": {"eps": 1.5}},
    {"experiment": "tolrerm_sweep", "seed": 1, "params": {"gamma": float("nan")}},
    {"experiment": "opt_gap_audit", "seed": 1, "params": {"trials": 99}},
    {"experiment": "sandwich_audit", "seed": 1, "params": {"include_control": "no"}},
    {"experiment": "lb_linear_game", "seed": 1, "params": {"m": 5}},
    {"experiment": "lb_linear_game", "seed": 1, "params": {"learner": "greedy"}},
    {"experiment": "lb_linear_game", "seed": 1, "params": {"export_path": 5}},
    {"experiment": "oracle_query_sweep", "seed": 1, "params": {"budgets": [0, 4, 4]}},
    {"experiment": "regularity_check", "seed": 1, "params": {"probes": -5}},
    {"experiment": "regularity_check", "seed": 1, "params": {"hypothesis": {"kind": "cube"}}},
    {"experiment": "regularity_check", "seed": 1, "params": {"hypothesis": {"kind": "linear", "w": [0.0], "b": "0"}}},
    {"experiment": "regularity_check", "seed": 1, "params": {"hypothesis": {"kind": "sphere", "center": [], "radius": 1}}},
    {
        "experiment": "regularity_check",
        "seed": 1,
        "params": {"hypothesis": {"kind": "sphere", "center": [0], "radius": 1, "inside_label": True}},
    },
    {"experiment": "regularity_check", "seed": -1},
    {"experiment": "regularity_check", "seed": 1, "format": "xml"},
]


def test_config_parsing_loads_neither_numpy_nor_the_library(tmp_path):
    # the set-up a benchmark interpreter times, every experiment's defaults
    # and a value each kind of rule rejects, then the two CLI commands that
    # never run an experiment
    config = tmp_path / "tolrerm.json"
    config.write_text(
        '{"experiment": "tolrerm_sweep", "seed": 1, "output_path": "out.csv",'
        ' "params": {"tasks": 40, "trials": 5, "n_grid": [10, 30, 100, 300], "eps": 0.1, "delta": 0.1}}'
    )
    code = """
import sys
import json
import robustlab
from robustlab.harness import ConfigError, ExperimentConfig, list_experiments
ExperimentConfig.from_file(sys.argv[1])
for name, _ in list_experiments():
    ExperimentConfig.from_dict({"experiment": name, "seed": 1})
for raw in json.loads(sys.argv[2]):
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError:
        continue
    raise AssertionError(f"accepted {raw}")
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "robustlab"))
print(loaded())
from robustlab.cli import main
assert main(["validate", "--config", sys.argv[1]]) == 0
assert main(["list-experiments"]) == 0
print(loaded())
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = [sys.executable, "-c", code, str(config), json.dumps(REJECTED)]
    proc = subprocess.run(args, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == str(["robustlab", "robustlab.harness"])
    assert lines[-1] == str(["robustlab", "robustlab.cli", "robustlab.harness"])


def test_set_up_loads_no_module_that_parsing_does_not_use(tmp_path):
    # a bare interpreter (no site) that has loaded only what a program using
    # robustlab loads anyway; set-up, every experiment's config and the two
    # CLI commands that run nothing must leave these unloaded
    config = tmp_path / "vc.json"
    config.write_text('{"experiment": "robust_vc_audit", "seed": 1, "output_path": "out.csv"}')
    code = """
import json, os, math, importlib, sys
unused = ("dataclasses", "inspect", "typing", "tempfile", "numpy")
loaded = lambda: [name for name in unused if name in sys.modules]
assert loaded() == [], loaded()
import robustlab
from robustlab.harness import ExperimentConfig, list_experiments
ExperimentConfig.from_file(sys.argv[1])
for name, _ in list_experiments():
    ExperimentConfig.from_dict({"experiment": name, "seed": 1})
print(loaded())
from robustlab.cli import main
assert main(["validate", "--config", sys.argv[1]]) == 0
assert main(["list-experiments"]) == 0
print(loaded())
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(config)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_lazy_namespace_reads_each_name_from_its_module(monkeypatch):
    for name in robustlab.__all__[1:]:
        owner = importlib.import_module(f"robustlab.{robustlab._MODULE_OF[name]}")
        assert getattr(robustlab, name) is getattr(owner, name), name
        # never stored in the package, so a later rebinding is what it returns
        assert name not in vars(robustlab), name
    rerm = importlib.import_module("robustlab.rerm")
    monkeypatch.setattr(rerm, "tolrerm", lambda *args: None)
    assert robustlab.tolrerm is rerm.tolrerm
    assert robustlab.__all__[0] == "__version__"
    assert dir(robustlab) == sorted(robustlab.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        robustlab.no_such_name
    namespace = {}
    exec("from robustlab import *", namespace)
    assert set(robustlab.__all__) <= set(namespace)
