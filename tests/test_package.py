"""Package surface: every exported name exists, none is exported twice, and
the demos and the README's library tour run against the current API."""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import robustlab

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    assert demos
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (demo.name, proc.stderr)

    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
