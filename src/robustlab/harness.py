"""Config-driven experiment runner with seeded, self-describing outputs.

One experiment per invocation.  A config names the experiment, its
parameters, a master seed, and an output destination; the harness
dispatches to the owning module, gathers per-trial rows, evaluates the
experiment's embedded assertions, and writes the table atomically (CSV
with a ``#``-prefixed schema header, or JSON with a ``schema`` field).
Re-running an identical config and seed reproduces the output
byte-for-byte; wall-clock time lives only on the in-memory record.

The module loads only the standard library at import, so parsing and
validating a config never loads numpy: each runner imports numpy and the
library modules it uses when it runs.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ExperimentSpec:
    defaults: dict
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
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; known: {sorted(EXPERIMENTS)}"
            )
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        spec = EXPERIMENTS[self.experiment]
        unknown = set(self.params) - set(spec.defaults)
        if unknown:
            raise ConfigError(
                f"unknown parameter keys for {self.experiment}: {sorted(unknown)}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        allowed = {"experiment", "params", "seed", "output_path", "format"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"experiment", "seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be a mapping")
        return cls(
            experiment=raw["experiment"],
            params=dict(params),
            seed=raw["seed"],
            output_path=raw.get("output_path"),
            format=raw.get("format", "csv"),
        )

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
        raw = {
            "experiment": self.experiment,
            "params": dict(self.params),
            "seed": self.seed,
            "output_path": self.output_path,
            "format": self.format,
        }
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
        merged = dict(EXPERIMENTS[self.experiment].defaults)
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

    from .geometry import _is_integer
    from .rerm import IndexedExhaustiveOracle, make_learning_task, tolrerm
    from .seeding import seed_derive

    for key, sizes in (("tasks", [params["tasks"]]), ("trials", [params["trials"]]), ("n_grid", params["n_grid"])):
        if not sizes or not all(_is_integer(k) and k >= 1 for k in sizes):
            raise ConfigError(f"{key} must be a positive integer or a nonempty list of them, got {params[key]!r}")
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
    from .geometry import Ball, _is_integer
    from .regions import FinitePoints
    from .sandwich import (
        build_ball_sandwich,
        build_point_sandwich,
        make_nonregular_control,
        sandwich_audit,
    )
    from .seeding import rng_for, seed_derive

    if not (_is_integer(params["audits"]) and params["audits"] >= 1):
        raise ConfigError(f"audits must be a positive integer, got {params['audits']!r}")
    if not isinstance(params["include_control"], bool):
        raise ConfigError(f"include_control must be true or false, got {params['include_control']!r}")
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

    learners = {
        "best_response": best_response_learner,
        "random_consistent": random_consistent_learner,
        "omniscient": omniscient_learner,
    }
    if params["learner"] not in learners:
        raise ConfigError(f"unknown learner {params['learner']!r}; known: {sorted(learners)}")
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
    kind = spec.get("kind")
    if kind == "linear":
        h = LinearClassifier(np.asarray(spec["w"], dtype=float), float(spec["b"]))
    elif kind == "sphere":
        h = SphereBoundary(
            np.asarray(spec["center"], dtype=float),
            float(spec["radius"]),
            spec.get("inside_label", 1),
        )
    else:
        raise ConfigError("hypothesis.kind must be 'linear' or 'sphere'")
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
            "tasks": 20,
            "n_grid": [10, 30, 100, 300],
            "trials": 200,
            "eps": 0.1,
            "delta": 0.1,
            "gamma": 0.25,
        },
        runner=_run_tolrerm_sweep,
        description="excess-error sweep of the tolerant learner over sample sizes",
    ),
    "opt_gap_audit": ExperimentSpec(
        defaults={
            "instances": 50,
            "trials": 400,
            "sample_size": 30,
            "eps": 0.1,
            "delta": 0.1,
            "gamma": 0.5,
        },
        runner=_run_opt_gap_audit,
        description="stability of the optimal empirical loss under radius shrink",
    ),
    "sandwich_audit": ExperimentSpec(
        defaults={"audits": 50, "include_control": True},
        runner=_run_sandwich_audit,
        description="loss-sandwich audits of the proxy-region constructions",
    ),
    "lb_linear_game": ExperimentSpec(
        defaults={
            "m": 2,
            "W": 1.0,
            "d": 2,
            "trials": 10_000,
            "n_samples": 0,
            "learner": "best_response",
            "export_path": "",
        },
        runner=_run_lb_linear_game,
        description="hidden-subset game defeating proper learners on bounded halfspaces",
    ),
    "oracle_query_sweep": ExperimentSpec(
        defaults={
            "D": 20.0,
            "gamma": 1.0,
            "d": 2,
            "budgets": [0, 1, 2, 4, 8, 16, 32, 64],
            "trials": 2000,
        },
        runner=_run_oracle_query_sweep,
        description="excess error of the sampling-oracle game across query budgets",
    ),
    "robust_vc_audit": ExperimentSpec(
        defaults={
            "universe_size": 8,
            "thresholds": 25,
            "k_grid": [1, 2, 3],
            "max_m": 4,
        },
        runner=_run_robust_vc_audit,
        description="robust VC overhead and growth-function audits",
    ),
    "regularity_check": ExperimentSpec(
        defaults={
            "hypothesis": {"kind": "sphere", "center": [0.0, 0.0], "radius": 2.0},
            "alpha": 1.0,
            "probes": 256,
            "domain_radius": 3.0,
        },
        runner=_run_regularity_check,
        description="probe a hypothesis for single-label balls of a given radius",
    ),
}


def list_experiments() -> list[tuple[str, str]]:
    return [(name, spec.description) for name, spec in sorted(EXPERIMENTS.items())]
