"""Plant known one-line defects in a copy of the repository and report which tests catch each.

Usage, from anywhere inside the repository::

    python tools/plant_defects.py

The tracked files (``git ls-files``, as they are in the working tree) are
copied into a temporary directory.  The suite runs there once unchanged,
then once per defect with that defect's one-line patch applied; each patch
must match its file exactly once.  For each defect the script prints the
tests that fail beyond the unchanged run, marking with ``[pin]`` a test
that compares a sha256 digest: such a test catches any change of output,
so a defect that only pins catch has no test that states the rule it
breaks.  Nothing is written inside the repository.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, file, the line's text, its defective replacement)
DEFECTS = [
    (
        "tolrerm breaks ties to the highest index",
        "src/robustlab/rerm.py",
        "best = counts.argmin(axis=-1)",
        "best = counts.shape[-1] - 1 - counts[..., ::-1].argmin(axis=-1)",
    ),
    (
        "tolrerm fixes the radius at gamma",
        "src/robustlab/rerm.py",
        'rs = np.array([rng_for(s, "radius").uniform(lo, gamma) for s in seeds])',
        "rs = np.full(len(seeds), float(gamma))",
    ),
    (
        "build_point_sandwich covers at alpha, not alpha / 2",
        "src/robustlab/sandwich.py",
        "cover = cover_compact_by_balls(upper, alpha / 2.0)",
        "cover = cover_compact_by_balls(upper, alpha)",
    ),
    (
        "halfspace flip radii use 0.99 * radius",
        "src/robustlab/classifiers.py",
        "per_ball = ball_labels * margins - ball_radii",
        "per_ball = ball_labels * margins - 0.99 * ball_radii",
    ),
    (
        "the tolerant interval's lower end loses its factor 1/7",
        "src/robustlab/rerm.py",
        "return eps * delta * gamma / 7.0",
        "return eps * delta * gamma / 3.5",
    ),
    (
        "the shrink check admits alpha == r",
        "src/robustlab/sandwich.py",
        'if not _radius(alpha, "alpha") < _radius(r, "r"):',
        'if not _radius(alpha, "alpha") <= _radius(r, "r"):',
    ),
    (
        "_count admits least - 1",
        "src/robustlab/geometry.py",
        "if not (_is_integer(value) and value >= least):",
        "if not (_is_integer(value) and value >= least - 1):",
    ),
]


def copy_tracked(root: Path, dest: Path) -> None:
    names = subprocess.run(["git", "ls-files", "-z"], cwd=root, capture_output=True, check=True).stdout
    for name in names.decode().split("\0"):
        if name and (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def failing_tests(tree: Path) -> list[str]:
    """The ids pytest reports as failed or errored in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
    out = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True).stdout
    lines = [line.split(" ", 1)[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return sorted(line.split(" - ")[0] for line in lines)


def pins_a_digest(tree: Path, test_id: str) -> bool:
    """Whether the test function behind ``test_id`` computes a sha256."""
    path, *names = test_id.split("[")[0].split("::")
    node = ast.parse((tree / path).read_text())
    for name in names:
        node = next((n for n in ast.iter_child_nodes(node) if getattr(n, "name", None) == name), None)
        if node is None:
            return False
    return "sha256" in ast.unparse(node)


def main() -> int:
    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                               check=True).stdout.strip())
    with tempfile.TemporaryDirectory(prefix="plant-defects-") as tmp:
        tree = Path(tmp)
        copy_tracked(root, tree)
        baseline = set(failing_tests(tree))
        print(f"unchanged tree: {len(baseline)} failing: {', '.join(sorted(baseline)) or 'none'}")
        print("\n| defect | tests that fail beyond the unchanged tree |\n| --- | --- |")
        for name, file, old, new in DEFECTS:
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"defect {name!r}: {old!r} occurs {text.count(old)} times in {file}, not once")
            path.write_text(text.replace(old, new))
            try:
                caught = [t for t in failing_tests(tree) if t not in baseline]
            finally:
                path.write_text(text)
            cells = [f"`{t}`" + (" [pin]" if pins_a_digest(tree, t) else "") for t in caught]
            print(f"| {name} | {'<br>'.join(cells) or 'none'} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
