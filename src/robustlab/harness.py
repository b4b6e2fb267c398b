"""Config-driven experiment runner with seeded, self-describing outputs.

One experiment per invocation.  A config names the experiment, its
parameters, a master seed, and an output destination; the harness
dispatches to the owning module, gathers per-trial rows, evaluates the
experiment's embedded assertions, and writes the table atomically (CSV
with a ``#``-prefixed schema header, or JSON with a ``schema`` field).
Re-running an identical config and seed reproduces the output
byte-for-byte; wall-clock time lives only on the in-memory record.

Every config value is checked at parse time against one rule table, the
top-level ``CONFIG_ROWS`` and each experiment's ``defaults``.  The module
loads only the standard library at import, so parsing and validating a
config never loads numpy: each runner imports numpy and the library
modules it uses when it runs.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable

from . import __version__

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "EXPERIMENTS",
    "list_experiments",
    "run",
    "write_record",
]

OUTPUT_DIR_ENV = "ROBUSTLAB_OUTPUT_DIR"


class ConfigError(ValueError):
    """Malformed or unknown experiment configuration."""


class Rule:
    """A stdlib-only test of one config value, and the phrase its error quotes."""

    __slots__ = ("test", "phrase")

    def __init__(self, test: Callable[[object], bool], phrase: str):
        self.test, self.phrase = test, phrase


def _number(v, kind=(int, float)) -> bool:
    """A finite JSON number of ``kind``; a bool is no number."""
    return isinstance(v, kind) and not isinstance(v, bool) and -math.inf < v < math.inf


def _integer(lo: int, phrase: str, hi: float = math.inf) -> Rule:
    return Rule(lambda v: _number(v, int) and lo <= v <= hi, phrase)


def _list_of(item: Rule, phrase: str, distinct: bool = False) -> Rule:
    return Rule(lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(item.test, v))
                and len(set(v) if distinct else v) == len(v), phrase)


REQUIRED = object()  # the default of a key that has none
POSITIVE = _integer(1, "a positive integer")
NONNEGATIVE = _integer(0, "a nonnegative integer")
FINITE = Rule(_number, "a finite number")
SCALE = Rule(lambda v: _number(v) and v > 0, "a finite number > 0")
FRACTION = Rule(lambda v: _number(v) and 0 < v <= 1, "a number in (0, 1]")
PATH = Rule(lambda v: v is None or isinstance(v, str), "a string or null")
VECTOR = _list_of(FINITE, "a nonempty list of finite numbers")
GRID = _list_of(POSITIVE, "a nonempty list of distinct positive integers", distinct=True)
HYPOTHESIS = {  # a nested rule: the value's "kind" names the table of its other keys
    "linear": {"w": (REQUIRED, Rule(lambda v: VECTOR.test(v) and any(v), VECTOR.phrase + ", not all 0")),
               "b": (REQUIRED, FINITE)},
    "sphere": {"center": (REQUIRED, VECTOR), "radius": (REQUIRED, SCALE),
               "inside_label": (1, Rule(lambda v: _number(v, int) and v in (-1, 1), "+1 or -1"))},
}
LEARNERS = ("best_response", "random_consistent", "omniscient")
CONFIG_ROWS = {  # the top-level keys
    "seed": (REQUIRED, _integer(0, "an unsigned 64-bit integer", hi=2**64 - 1)),
    "output_path": (None, PATH),
    "format": ("csv", Rule(lambda v: v in ("csv", "json"), "csv or json")),
}


@dataclass(frozen=True)
class ExperimentSpec:
    defaults: dict  # name -> (default, rule)
    runner: Callable[[dict, int], tuple[list[tuple[str, str]], list[dict], dict, bool]]
    description: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Strictly parsed experiment description."""

    experiment: str
    params: dict
    seed: int
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}")
        self._check(CONFIG_ROWS, {"seed": self.seed, "output_path": self.output_path, "format": self.format})
        self._check(EXPERIMENTS[self.experiment].defaults, self.params)

    @staticmethod
    def _check(table: dict, values: dict, where: str = "") -> None:
        """Raise ``ConfigError`` at the first unknown key, missing key or value that breaks its rule."""
        unknown = sorted(set(values) - set(table))
        if unknown:
            raise ConfigError(f"unknown parameter keys{where and ' in ' + where}: {unknown}")
        for key, (default, rule) in table.items():
            name, value = f"{where}.{key}".lstrip("."), values.get(key, default)
            if value is REQUIRED:
                raise ConfigError(f"{where} needs {name}")
            if isinstance(rule, dict):  # a nested table, chosen by the value's "kind"
                kind = value.get("kind") if isinstance(value, dict) else None
                if not isinstance(kind, str) or kind not in rule:
                    raise ConfigError(f"{name}.kind must be {' or '.join(rule)}, got {value!r}")
                ExperimentConfig._check(rule[kind], {k: v for k, v in value.items() if k != "kind"}, name)
            elif not rule.test(value):
                raise ConfigError(f"{name} must be {rule.phrase}, got {value!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {"experiment", "params", *CONFIG_ROWS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"experiment", "seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be a mapping")
        return cls(raw["experiment"], dict(params), **{key: raw[key] for key in CONFIG_ROWS if key in raw})

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)

    def with_overrides(self, pairs: list[str]) -> "ExperimentConfig":
        """Apply ``key=value`` overrides; dotted keys reach into params."""
        raw = asdict(self)
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} is not of the form key=value")
            key, text = pair.split("=", 1)
            try:
                value = json.loads(text)
            except json.JSONDecodeError:
                value = text
            if key.startswith("params."):
                raw["params"][key[len("params.") :]] = value
            elif key in raw:
                raw[key] = value
            else:
                raise ConfigError(f"unknown override target {key!r}")
        raw = {k: v for k, v in raw.items() if v is not None}
        return ExperimentConfig.from_dict(raw)

    def resolved_params(self) -> dict:
        merged = {key: default for key, (default, _) in EXPERIMENTS[self.experiment].defaults.items()}
        merged.update(self.params)
        return merged

    def echo(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.resolved_params(),
            "seed": self.seed,
            "format": self.format,
            "version": __version__,
        }


@dataclass(frozen=True)
class RunRecord:
    config: dict
    schema: list[tuple[str, str]]
    rows: list[dict]
    summary: dict
    assertions_passed: bool
    wall_clock_s: float
    version: str = __version__


def run(config: ExperimentConfig) -> RunRecord:
    """Dispatch to the experiment runner and optionally write the output."""
    spec = EXPERIMENTS[config.experiment]
    params = config.resolved_params()
    start = time.perf_counter()
    schema, rows, summary, passed = spec.runner(params, config.seed)
    elapsed = time.perf_counter() - start
    record = RunRecord(config.echo(), schema, rows, summary, passed, elapsed)
    if config.output_path:
        write_record(record, resolve_output_path(config.output_path), config.format)
    return record


def resolve_output_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _format_value(v, bools: tuple[type, ...], floats: tuple[type, ...]) -> str:
    if isinstance(v, bools):
        return "true" if v else "false"
    if isinstance(v, floats):
        return repr(float(v))
    return str(v)


def write_record(record: RunRecord, path: str, fmt: str) -> None:
    """Atomic write: the target file appears complete or not at all."""
    buf = io.StringIO()
    if fmt == "csv":
        import numpy as np  # once per write: cells may hold numpy scalars

        bools, floats = (bool, np.bool_), (float, np.floating)
        for name, desc in record.schema:
            buf.write(f"# schema: {name} = {desc}\n")
        buf.write(f"# config: {json.dumps(record.config, sort_keys=True)}\n")
        buf.write(f"# summary: {json.dumps(record.summary, sort_keys=True)}\n")
        names = [name for name, _ in record.schema]
        buf.write(",".join(names) + "\n")
        for row in record.rows:
            buf.write(",".join(_format_value(row[name], bools, floats) for name in names) + "\n")
    else:
        json.dump(
            {
                "schema": [{"name": n, "description": d} for n, d in record.schema],
                "config": record.config,
                "rows": record.rows,
                "summary": record.summary,
                "assertions_passed": record.assertions_passed,
            },
            buf,
            sort_keys=True,
            indent=2,
        )
        buf.write("\n")
    _atomic_write(path, buf.getvalue())


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then move it into place.

    The target appears complete or not at all, and the temporary file is
    removed if the write fails.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".robustlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------------
# experiment runners
# --------------------------------------------------------------------------


def _member_losses(oracle, r: float) -> list[float]:
    """Each member's exact expected loss at r, as ``distribution_loss`` computes it, from one table."""
    probs = oracle.dist.probabilities
    return [float(row @ probs) for row in oracle.violated(r)]


def _run_tolrerm_sweep(params: dict, seed: int):
    import numpy as np

    from .rerm import IndexedExhaustiveOracle, make_learning_task, tolrerm
    from .seeding import seed_derive

    n_grid = sorted(params["n_grid"])
    eps, delta = params["eps"], params["delta"]
    runs = [(n, trial) for n in n_grid for trial in range(params["trials"])]
    rows = []
    for task_idx in range(params["tasks"]):
        task = make_learning_task(seed_derive(seed, f"task-{task_idx}"), gamma=params["gamma"])
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        # exact tolerant benchmark: best expanded-loss member of the class
        opt_gamma = min(_member_losses(oracle, task.gamma))
        plain_loss = _member_losses(oracle, 0.0)
        run_seeds = [seed_derive(seed, f"run-{task_idx}-{n}-{trial}") for n, trial in runs]
        results = tolrerm(oracle, eps, delta, task.gamma, [n for n, _ in runs], run_seeds)
        for (n, trial), res in zip(runs, results):
            excess = plain_loss[res.index] - opt_gamma
            rows.append({"task": task_idx, "n": n, "trial": trial, "r_used": res.r_used, "excess": excess,
                         "success": excess <= eps})
    excesses = {n: [row["excess"] for row in rows if row["n"] == n] for n in n_grid}
    medians = {n: float(np.median(values)) for n, values in excesses.items()}
    q90 = {n: float(np.quantile(values, 0.9)) for n, values in excesses.items()}
    final = [row for row in rows if row["n"] == n_grid[-1]]
    success_fraction = float(np.mean([row["success"] for row in final]))
    med_values = [medians[n] for n in n_grid]
    passed = success_fraction >= 1 - delta and all(
        b <= a + 1e-12 for a, b in zip(med_values, med_values[1:])
    )
    schema = [
        ("task", "task generator index"),
        ("n", "sample size"),
        ("trial", "trial index within (task, n)"),
        ("r_used", "expansion radius drawn by the tolerant learner"),
        ("excess", "robust loss of the output minus the tolerant optimum"),
        ("success", "excess within eps"),
    ]
    summary = {
        "success_fraction_at_max_n": success_fraction,
        "median_excess_by_n": {str(n): medians[n] for n in n_grid},
        "q90_excess_by_n": {str(n): q90[n] for n in n_grid},
        "target_fraction": 1 - delta,
    }
    return schema, rows, summary, passed


def _run_opt_gap_audit(params: dict, seed: int):
    import numpy as np

    from .rerm import IndexedExhaustiveOracle, make_learning_task, opt_gap_audit
    from .seeding import rng_for, seed_derive

    eps, delta, gamma = params["eps"], params["delta"], params["gamma"]
    rows = []
    passed = True
    for idx in range(params["instances"]):
        task = make_learning_task(seed_derive(seed, f"gap-task-{idx}"), gamma=gamma)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        sample_idx = task.dist.sample_indices(
            params["sample_size"], rng_for(seed, f"gap-sample-{idx}")
        )
        opt_fn = lambda r, o=oracle, s=sample_idx: o.opt_count(s, r) / len(s)  # noqa: E731
        audit = opt_gap_audit(opt_fn, eps, delta, gamma, params["trials"], seed_derive(seed, f"gap-{idx}"))
        freq_sigma = np.sqrt(audit.target_frequency * (1 - audit.target_frequency) / audit.trials)
        gap_sigma = np.sqrt(max(audit.mean_gap_bound, 1e-12) / audit.trials)
        ok = bool(
            audit.frequency_ok >= audit.target_frequency - 3 * freq_sigma
            and audit.mean_gap <= audit.mean_gap_bound + 3 * gap_sigma
        )
        passed = passed and ok
        rows.append(
            {
                "instance": idx,
                "frequency_ok": audit.frequency_ok,
                "target_frequency": audit.target_frequency,
                "mean_gap": audit.mean_gap,
                "mean_gap_bound": audit.mean_gap_bound,
                "pass": ok,
            }
        )
    schema = [
        ("instance", "random task index"),
        ("frequency_ok", "empirical frequency of gaps within eps/3"),
        ("target_frequency", "1 - delta/2"),
        ("mean_gap", "empirical mean optimum gap"),
        ("mean_gap_bound", "alpha / (gamma - alpha)"),
        ("pass", "both statistics within 3 sigma of their targets"),
    ]
    return schema, rows, {"instances": params["instances"]}, passed


def _run_sandwich_audit(params: dict, seed: int):
    from .classifiers import LabeledExample, LinearClassifier, SphereBoundary
    from .geometry import Ball
    from .regions import FinitePoints
    from .sandwich import (
        build_ball_sandwich,
        build_point_sandwich,
        make_nonregular_control,
        sandwich_audit,
    )
    from .seeding import rng_for, seed_derive

    rng = rng_for(seed, "sandwich-harness")
    rows = []
    certified_violation_count = 0
    for idx in range(params["audits"]):
        base = Ball(rng.uniform(-1, 1, 2), float(rng.uniform(0.15, 0.4)))
        r = float(rng.uniform(0.4, 0.7))
        alpha = float(rng.uniform(0.3, 0.6)) * r
        hyps = [
            LinearClassifier(rng.normal(size=2), float(rng.uniform(-1, 1))),
            SphereBoundary(rng.uniform(-1, 1, 2), float(rng.uniform(2 * alpha, 3.0))),
        ]
        examples = [LabeledExample(rng.uniform(-1, 1, 2), 1 if rng.random() < 0.5 else -1)]
        build = build_point_sandwich if idx % 2 == 0 else build_ball_sandwich
        triple = build(base, r=r, alpha=alpha, seed=int(rng.integers(2**31)))
        report = sandwich_audit(triple, hyps, examples, seed=int(rng.integers(2**31)))
        certified_violation_count += len(report.certified_violations)
        rows.append(
            {
                "audit": idx,
                "variant": triple.variant,
                "violations": len(report.violations),
                "certified_violations": len(report.certified_violations),
            }
        )
    control_violated = True
    if params["include_control"]:
        triple, control, example = make_nonregular_control(
            FinitePoints([[0.0, 0.0]]), r=0.8, alpha=0.3, seed=seed_derive(seed, "control")
        )
        report = sandwich_audit(triple, [control], [example], seed=0)
        control_violated = bool(report.violations) and not report.certificates[0].passed
        rows.append(
            {
                "audit": -1,
                "variant": "control",
                "violations": len(report.violations),
                "certified_violations": len(report.certified_violations),
            }
        )
    passed = certified_violation_count == 0 and control_violated
    schema = [
        ("audit", "audit index (-1 = non-regular negative control)"),
        ("variant", "middle-region construction used"),
        ("violations", "loss-sandwich violations observed"),
        ("certified_violations", "violations by certified-regular hypotheses"),
    ]
    return schema, rows, {"certified_violations": certified_violation_count}, passed


def _run_lb_linear_game(params: dict, seed: int):
    import numpy as np

    from .seeding import seed_derive
    from .shatter_game import (
        best_response_learner,
        build_failure_instance,
        omniscient_learner,
        random_consistent_learner,
        run_adversarial_game,
    )

    learners = dict(zip(LEARNERS, (best_response_learner, random_consistent_learner, omniscient_learner)))
    inst = build_failure_instance(params["m"], params["W"], params["d"], seed_derive(seed, "instance"))
    if params["export_path"]:
        from .shatter_game import export_instance

        text = json.dumps(export_instance(inst), sort_keys=True) + "\n"
        _atomic_write(resolve_output_path(params["export_path"]), text)
    n_samples = params["n_samples"] if params["n_samples"] else inst.m
    result = run_adversarial_game(
        inst, learners[params["learner"]], n_samples, params["trials"], seed_derive(seed, "game")
    )
    rows = [
        {"trial": t, "loss": float(loss)} for t, loss in enumerate(result.loss_samples)
    ]
    sigma = float(np.std(result.loss_samples)) / np.sqrt(result.trials) + 1e-12
    if params["learner"] == "omniscient":
        passed = result.mean_loss == 0.0
    else:
        passed = bool(
            result.mean_loss >= 0.25 - 3 * sigma
            and result.freq_loss_above_eighth >= 1 / 7 - 3 * sigma
        )
    schema = [("trial", "game trial index"), ("loss", "exact robust loss of the answer")]
    summary = {
        "mean_loss": result.mean_loss,
        "freq_loss_above_eighth": result.freq_loss_above_eighth,
        "learner": params["learner"],
    }
    return schema, rows, summary, passed


def _run_oracle_query_sweep(params: dict, seed: int):
    import numpy as np

    from .oracle_game import build_oracle_game, detection_threshold, run_query_game
    from .seeding import seed_derive

    inst = build_oracle_game(params["D"], params["gamma"], params["d"])
    result = run_query_game(inst, params["budgets"], params["trials"], seed_derive(seed, "sweep"))
    rows = result.to_rows()
    passed = bool(np.all(np.diff(result.excess_error) <= 1e-12))
    if 0 in result.budgets:
        i = int(np.flatnonzero(result.budgets == 0)[0])
        sigma = 0.25 / np.sqrt(result.trials)
        passed = passed and bool(abs(result.excess_error[i] - 0.25) <= 3 * sigma + 1e-9)
    threshold = detection_threshold(result)
    schema = [
        ("budget", "sampling-oracle query budget"),
        ("excess_error", "mean excess robust loss of the posterior-optimal rule"),
        ("ci_lo", "Wilson 95% lower bound"),
        ("ci_hi", "Wilson 95% upper bound"),
        ("D", "region diameter parameter"),
        ("gamma", "tolerance parameter"),
        ("d", "ambient dimension"),
        ("seed", "master seed"),
    ]
    summary = {
        "detection_threshold": threshold,
        "anchor_queries": list(result.anchor_queries),
        "anchor_detections": list(result.anchor_detections),
    }
    return schema, rows, summary, passed


def _run_robust_vc_audit(params: dict, seed: int):
    import numpy as np

    from .classifiers import FiniteClass, LabeledExample, LinearClassifier
    from .loss_vc import overhead_audit, sauer_bound
    from .regions import FinitePoints, RegionFamily
    from .seeding import rng_for

    rng = rng_for(seed, "vc-audit")
    instances = []
    for k in params["k_grid"]:
        xs = np.linspace(0.0, float(params["universe_size"] - 1), params["universe_size"])
        examples = [
            LabeledExample(np.array([x]), 1 if rng.random() < 0.5 else -1) for x in xs
        ]
        cls = FiniteClass(
            tuple(
                LinearClassifier(np.array([1.0]), -t)
                for t in np.linspace(-1, params["universe_size"], params["thresholds"])
            )
        )
        if k == 1:
            fam = RegionFamily([(e.x, FinitePoints([e.x])) for e in examples])
        else:
            offsets = np.linspace(-0.2, 0.2, k)
            fam = RegionFamily(
                [
                    (e.x, FinitePoints(np.array([e.x[0] + o for o in offsets])[:, None]))
                    for e in examples
                ],
                allow_outside_anchor=True,
            )
        instances.append((1, int(k), cls, fam, examples))

    rows_data = overhead_audit(instances, max_m=params["max_m"])
    rows = [
        {
            "d": row.d,
            "k": row.k,
            "vc_lower": row.vc_lower,
            "vc_upper": -1 if row.vc_upper is None else row.vc_upper,
            "bound_value": sauer_bound(row.base_vc_on_regions, row.k * params["max_m"]),
            "pass": row.sauer_ok,
        }
        for row in rows_data
    ]
    passed = all(row.sauer_ok for row in rows_data)
    schema = [
        ("d", "nominal class dimension"),
        ("k", "region support size"),
        ("vc_lower", "largest shattered set found"),
        ("vc_upper", "certified upper bound (-1 when scan was budget-cut)"),
        ("bound_value", "growth-function cap on patterns at the largest scanned size"),
        ("pass", "all pattern counts within the Sauer bound"),
    ]
    return schema, rows, {"cells": len(rows)}, passed


def _run_regularity_check(params: dict, seed: int):
    import numpy as np

    from .classifiers import LinearClassifier, SphereBoundary, regularity_check
    from .geometry import Ball

    spec = params["hypothesis"]
    if spec["kind"] == "linear":
        h = LinearClassifier(np.asarray(spec["w"], dtype=float), float(spec["b"]))
    else:
        h = SphereBoundary(np.asarray(spec["center"], dtype=float), float(spec["radius"]), spec.get("inside_label", 1))
    domain = Ball(np.zeros(h.dimension), params["domain_radius"])
    cert = regularity_check(h, params["alpha"], params["probes"], domain, seed)
    rows = [
        {
            "alpha": params["alpha"],
            "probes": cert.probes,
            "failures": len(cert.failures),
            "passed": cert.passed,
        }
    ]
    schema = [
        ("alpha", "single-label ball radius tested"),
        ("probes", "number of probe points"),
        ("failures", "probes without a single-label ball"),
        ("passed", "certificate verdict"),
    ]
    return schema, rows, {"passed": cert.passed}, True


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "tolrerm_sweep": ExperimentSpec(
        defaults={
            "tasks": (20, POSITIVE),
            "n_grid": ([10, 30, 100, 300], GRID),
            "trials": (200, POSITIVE),
            "eps": (0.1, FRACTION),
            "delta": (0.1, FRACTION),
            "gamma": (0.25, SCALE),
        },
        runner=_run_tolrerm_sweep,
        description="excess-error sweep of the tolerant learner over sample sizes",
    ),
    "opt_gap_audit": ExperimentSpec(
        defaults={
            "instances": (50, POSITIVE),
            "trials": (400, _integer(100, "an integer >= 100")),
            "sample_size": (30, POSITIVE),
            "eps": (0.1, FRACTION),
            "delta": (0.1, FRACTION),
            "gamma": (0.5, SCALE),
        },
        runner=_run_opt_gap_audit,
        description="stability of the optimal empirical loss under radius shrink",
    ),
    "sandwich_audit": ExperimentSpec(
        defaults={
            "audits": (50, POSITIVE),
            "include_control": (True, Rule(lambda v: isinstance(v, bool), "true or false")),
        },
        runner=_run_sandwich_audit,
        description="loss-sandwich audits of the proxy-region constructions",
    ),
    "lb_linear_game": ExperimentSpec(
        defaults={
            "m": (2, _integer(1, "an integer from 1 to 4", hi=4)),  # C(3m, m) <= 2000
            "W": (1.0, SCALE),
            "d": (2, _integer(2, "an integer >= 2")),
            "trials": (10_000, POSITIVE),
            "n_samples": (0, NONNEGATIVE),  # 0 draws m samples
            "learner": ("best_response", Rule(lambda v: v in LEARNERS, " or ".join(LEARNERS))),
            "export_path": ("", PATH),
        },
        runner=_run_lb_linear_game,
        description="hidden-subset game defeating proper learners on bounded halfspaces",
    ),
    "oracle_query_sweep": ExperimentSpec(
        defaults={  # build_oracle_game also needs D > 10 * gamma
            "D": (20.0, SCALE),
            "gamma": (1.0, SCALE),
            "d": (2, POSITIVE),
            "budgets": ([0, 1, 2, 4, 8, 16, 32, 64],
                        _list_of(NONNEGATIVE, "a nonempty list of distinct nonnegative integers", distinct=True)),
            "trials": (2000, POSITIVE),
        },
        runner=_run_oracle_query_sweep,
        description="excess error of the sampling-oracle game across query budgets",
    ),
    "robust_vc_audit": ExperimentSpec(
        defaults={
            "universe_size": (8, POSITIVE),
            "thresholds": (25, POSITIVE),
            "k_grid": ([1, 2, 3], GRID),
            "max_m": (4, POSITIVE),
        },
        runner=_run_robust_vc_audit,
        description="robust VC overhead and growth-function audits",
    ),
    "regularity_check": ExperimentSpec(
        defaults={
            "hypothesis": ({"kind": "sphere", "center": [0.0, 0.0], "radius": 2.0}, HYPOTHESIS),
            "alpha": (1.0, SCALE),
            "probes": (256, NONNEGATIVE),
            "domain_radius": (3.0, SCALE),
        },
        runner=_run_regularity_check,
        description="probe a hypothesis for single-label balls of a given radius",
    ),
}


def list_experiments() -> list[tuple[str, str]]:
    return [(name, spec.description) for name, spec in sorted(EXPERIMENTS.items())]
