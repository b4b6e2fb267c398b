"""The experiment runners, and ``ExperimentSpec``, ``RunRecord`` and ``EXPERIMENTS``.

``run_<experiment>(params, seed)`` takes the experiment's resolved
parameters and master seed, runs it, and returns ``(schema, rows,
summary, passed)``, every cell a Python ``bool``, ``int``, ``float`` or
``str``.  This module loads when a run starts or ``harness`` first hands
out one of the three names, so parsing a config never loads it, numpy or
the library.  Every library object is read from its module at call time
(``rerm.tolrerm``, not a name bound here), so a rebinding in the owning
module, such as a test's monkeypatch, reaches the runners.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import classifiers, geometry, loss_vc, oracle_game, regions, rerm, sandwich, seeding, shatter_game
from .harness import EXPERIMENT_TABLES, _atomic_write, resolve_output_path


@dataclass(frozen=True)
class ExperimentSpec:
    defaults: dict  # name -> (default, rule)
    runner: Callable[[dict, int], tuple[list[tuple[str, str]], list[dict], dict, bool]]
    description: str


@dataclass(frozen=True)
class RunRecord:
    config: dict
    schema: list[tuple[str, str]]
    rows: list[dict]
    summary: dict
    assertions_passed: bool
    wall_clock_s: float


def run_tolrerm_sweep(params: dict, seed: int):
    n_grid = sorted(params["n_grid"])
    eps, delta = params["eps"], params["delta"]
    runs = [(n, trial) for n in n_grid for trial in range(params["trials"])]
    rows = []
    for task_idx in range(params["tasks"]):
        task = rerm.make_learning_task(seeding.seed_derive(seed, f"task-{task_idx}"), gamma=params["gamma"])
        oracle = rerm.IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        # exact tolerant benchmark: best expanded-loss member of the class
        opt_gamma = min(oracle.distribution_losses(task.gamma))
        plain_loss = oracle.distribution_losses(0.0)
        run_seeds = [seeding.seed_derive(seed, f"run-{task_idx}-{n}-{trial}") for n, trial in runs]
        results = rerm.tolrerm(oracle, eps, delta, task.gamma, [n for n, _ in runs], run_seeds)
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


def run_opt_gap_audit(params: dict, seed: int):
    eps, delta, gamma = params["eps"], params["delta"], params["gamma"]
    rows = []
    passed = True
    for idx in range(params["instances"]):
        task = rerm.make_learning_task(seeding.seed_derive(seed, f"gap-task-{idx}"), gamma=gamma)
        oracle = rerm.IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        sample_idx = task.dist.sample_indices(
            params["sample_size"], seeding.rng_for(seed, f"gap-sample-{idx}")
        )
        opt_fn = lambda r, o=oracle, s=sample_idx: o.opt_count(s, r) / len(s)  # noqa: E731
        audit = rerm.opt_gap_audit(
            opt_fn, eps, delta, gamma, params["trials"], seeding.seed_derive(seed, f"gap-{idx}")
        )
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


def run_sandwich_audit(params: dict, seed: int):
    rng = seeding.rng_for(seed, "sandwich-harness")
    rows = []
    certified_violation_count = 0
    for idx in range(params["audits"]):
        base = geometry.Ball(rng.uniform(-1, 1, 2), float(rng.uniform(0.15, 0.4)))
        r = float(rng.uniform(0.4, 0.7))
        alpha = float(rng.uniform(0.3, 0.6)) * r
        hyps = [
            classifiers.LinearClassifier(rng.normal(size=2), float(rng.uniform(-1, 1))),
            classifiers.SphereBoundary(rng.uniform(-1, 1, 2), float(rng.uniform(2 * alpha, 3.0))),
        ]
        examples = [classifiers.LabeledExample(rng.uniform(-1, 1, 2), 1 if rng.random() < 0.5 else -1)]
        build = sandwich.build_point_sandwich if idx % 2 == 0 else sandwich.build_ball_sandwich
        rng.integers(2**31)  # unused; skipping it would shift every later draw, and so the pinned CSV digests
        triple = build(base, r=r, alpha=alpha)
        report = sandwich.sandwich_audit(triple, hyps, examples, seed=int(rng.integers(2**31)))
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
        triple, control, example = sandwich.make_nonregular_control(
            regions.FinitePoints([[0.0, 0.0]]), r=0.8, alpha=0.3, seed=seeding.seed_derive(seed, "control")
        )
        report = sandwich.sandwich_audit(triple, [control], [example], seed=0)
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


def run_lb_linear_game(params: dict, seed: int):
    learner = getattr(shatter_game, f"{params['learner']}_learner")  # one of harness.LEARNERS
    inst = shatter_game.build_failure_instance(
        params["m"], params["W"], params["d"], seeding.seed_derive(seed, "instance")
    )
    if params["export_path"]:
        text = json.dumps(shatter_game.export_instance(inst), sort_keys=True) + "\n"
        _atomic_write(resolve_output_path(params["export_path"]), text)
    n_samples = params["n_samples"] if params["n_samples"] else inst.m
    result = shatter_game.run_adversarial_game(
        inst, learner, n_samples, params["trials"], seeding.seed_derive(seed, "game")
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


def run_oracle_query_sweep(params: dict, seed: int):
    inst = oracle_game.build_oracle_game(params["D"], params["gamma"], params["d"])
    result = oracle_game.run_query_game(inst, params["budgets"], params["trials"], seeding.seed_derive(seed, "sweep"))
    rows = [{"budget": int(b), "excess_error": float(e), "ci_lo": float(lo), "ci_hi": float(hi),
             "D": result.D, "gamma": result.gamma, "d": result.d, "seed": result.seed}
            for b, e, lo, hi in zip(result.budgets, result.excess_error, result.ci_lo, result.ci_hi)]
    passed = bool(np.all(np.diff(result.excess_error) <= 1e-12))
    if 0 in result.budgets:
        i = int(np.flatnonzero(result.budgets == 0)[0])
        sigma = 0.25 / np.sqrt(result.trials)
        passed = passed and bool(abs(result.excess_error[i] - 0.25) <= 3 * sigma + 1e-9)
    threshold = oracle_game.detection_threshold(result)
    schema = [
        ("budget", "sampling-oracle query budget"),
        ("excess_error", "mean excess robust loss of the posterior-optimal rule"),
        ("ci_lo", "Wilson 95% lower bound"),
        ("ci_hi", "Wilson 95% upper bound"),
        ("D", "region diameter parameter"),
        ("gamma", "tolerance parameter"),
        ("d", "ambient dimension"),
        ("seed", 'seed_derive(master seed, "sweep"), the seed run_query_game was given'),
    ]
    summary = {
        "detection_threshold": threshold,
        "anchor_queries": list(result.anchor_queries),
        "anchor_detections": list(result.anchor_detections),
    }
    return schema, rows, summary, passed


def run_robust_vc_audit(params: dict, seed: int):
    rng = seeding.rng_for(seed, "vc-audit")
    instances = []
    for k in params["k_grid"]:
        xs = np.linspace(0.0, float(params["universe_size"] - 1), params["universe_size"])
        examples = [
            classifiers.LabeledExample(np.array([x]), 1 if rng.random() < 0.5 else -1) for x in xs
        ]
        cls = classifiers.FiniteClass(
            tuple(
                classifiers.LinearClassifier(np.array([1.0]), -t)
                for t in np.linspace(-1, params["universe_size"], params["thresholds"])
            )
        )
        if k == 1:
            fam = regions.RegionFamily([(e.x, regions.FinitePoints([e.x])) for e in examples])
        else:
            offsets = np.linspace(-0.2, 0.2, k)
            fam = regions.RegionFamily(
                [
                    (e.x, regions.FinitePoints(np.array([e.x[0] + o for o in offsets])[:, None]))
                    for e in examples
                ],
                allow_outside_anchor=True,
            )
        instances.append((1, int(k), cls, fam, examples))

    rows_data = loss_vc.overhead_audit(instances, max_m=params["max_m"])
    scanned_m = min(params["max_m"], len(examples))  # the audit scans no larger subset of the universe
    rows = [
        {
            "d": row.d,
            "k": row.k,
            "vc_lower": row.vc_lower,
            "vc_upper": -1 if row.vc_upper is None else row.vc_upper,
            "bound_value": loss_vc.sauer_bound(row.base_vc_on_regions, row.k * scanned_m),
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


def run_regularity_check(params: dict, seed: int):
    spec = params["hypothesis"]
    if spec["kind"] == "linear":
        h = classifiers.LinearClassifier(np.asarray(spec["w"], dtype=float), float(spec["b"]))
    else:
        h = classifiers.SphereBoundary(
            np.asarray(spec["center"], dtype=float), float(spec["radius"]), spec.get("inside_label", 1)
        )
    domain = geometry.Ball(np.zeros(h.dimension), params["domain_radius"])
    cert = classifiers.regularity_check(h, params["alpha"], params["probes"], domain, seed)
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


# each experiment's rule table and description, from harness.EXPERIMENT_TABLES, with its runner
EXPERIMENTS = {name: ExperimentSpec(defaults, globals()[f"run_{name}"], description)
               for name, (defaults, description) in EXPERIMENT_TABLES.items()}
