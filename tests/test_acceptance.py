"""Acceptance gate: one test per shipped criterion, with printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 2 and 3 assert a nominal off-core mass constant of
``(3.5 * gamma / D0)^d`` for the two-anchor construction; direct volume
computation shows the true relative mass exceeds that constant for most of
the required (D, gamma, d) grid (the mechanically safe constant is
``(7 * gamma / D0)^d``, which the same audits verify everywhere).  Those
two tests are therefore expected to fail, loudly and with the measured
numbers; see the audit tables they print.
"""

import math
import time

import numpy as np
import pytest

from robustlab.classifiers import (
    LabeledExample,
    LinearClassifier,
    SphereBoundary,
    linear_net_2d,
)
from robustlab.geometry import Ball
from robustlab.harness import ExperimentConfig, run
from robustlab.loss_vc import (
    class_vc_on_points,
    distinct_pattern_correspondence,
    loss_patterns,
    robust_vc_search,
    sauer_bound,
    zero_one_vc_search,
)
from robustlab.oracle_game import (
    build_oracle_game,
    detection_threshold,
    loss_table,
    measure_bound_audit,
    run_query_game,
)
from robustlab.regions import FinitePoints, RegionFamily, UnionOfBalls
from robustlab.rerm import IndexedExhaustiveOracle, make_learning_task, opt_gap_audit
from robustlab.sandwich import (
    build_ball_sandwich,
    build_point_sandwich,
    make_nonregular_control,
    sandwich_audit,
    set_inclusion_probe,
)
from robustlab.seeding import rng_for, seed_derive
from robustlab.shatter_game import (
    best_response_learner,
    build_failure_instance,
    build_shatter_family,
    cap_mismatch_fraction,
    cross_loss_exact,
    cross_loss_formula,
    run_adversarial_game,
    stipulation_one_failures,
)

MASTER_SEED = 20258


def _verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}  {detail}")


def test_c01_two_anchor_loss_table():
    """Exact analytic robust losses of the two-anchor construction."""
    start = time.perf_counter()
    inst = build_oracle_game(D=20.0, gamma=1.0, d=2)
    table = loss_table(inst)
    expected = {
        ("U", "h1"): 0.0,
        ("U", "h2"): 0.5,
        ("V", "h1"): 1.0,
        ("V", "h2"): 0.5,
    }
    ok = table == expected and time.perf_counter() - start < 1.0
    _verdict("C01", ok, f"loss table {table}")
    assert table == expected


def test_c02_off_core_mass_bound():
    """Monte-Carlo mass of the distinguishing set against the nominal bound.

    Per grid cell: 1e6 uniform draws from one anchor's expanded V region;
    the fraction escaping the expanded U regions must sit below
    ``(3.5*gamma/D0)^d`` up to 3 sigma, and in one dimension must also match
    the exact interval arithmetic.  The safe constant ``(7*gamma/D0)^d`` is
    checked alongside as a control on the machinery itself.
    """
    failures = []
    exact_mismatches = []
    safe_failures = []
    print()
    print("  d   D      p_hat      exact      nominal    safe      verdict")
    for d in (1, 2, 3):
        for D in (20.0, 50.0, 110.0):
            inst = build_oracle_game(D=D, gamma=1.0, d=d)
            audit = measure_bound_audit(inst, 1_000_000, seed_derive(MASTER_SEED, f"c2-{d}-{D}"))
            ok_nominal = audit.p_hat <= audit.nominal_bound + 3 * audit.sigma
            ok_safe = audit.p_hat <= audit.safe_bound + 3 * audit.sigma
            if not ok_nominal:
                failures.append((d, D, audit.p_hat, audit.nominal_bound))
            if not ok_safe:
                safe_failures.append((d, D))
            exact_txt = "-"
            if audit.exact is not None:
                if abs(audit.p_hat - audit.exact) > 3 * audit.sigma:
                    exact_mismatches.append((d, D))
                exact_txt = f"{audit.exact:.6f}"
            print(
                f"  {d}  {D:5.0f}  {audit.p_hat:.6f}  {exact_txt:>9}  "
                f"{audit.nominal_bound:.6f}  {audit.safe_bound:.6f}  "
                f"{'ok' if ok_nominal else 'EXCEEDS NOMINAL'}"
            )
    assert not safe_failures, f"safe-bound control failed at {safe_failures}: machinery bug"
    assert not exact_mismatches, f"1-D exact oracle mismatch at {exact_mismatches}"
    ok = not failures
    _verdict("C02", ok, f"{len(failures)}/9 cells exceed the nominal (3.5*gamma/D0)^d bound")
    assert ok, (
        "measured off-core mass exceeds the nominal (3.5*gamma/D0)^d constant at "
        f"{[(d, D) for d, D, _, _ in failures]}; the same audits satisfy the "
        "mechanically derived (7*gamma/D0)^d everywhere, so the construction and "
        "estimator are sound and the nominal constant itself is unattainable"
    )


def test_c03_query_game_budget_sweep():
    """Budget-zero excess, decay lower bound, and dimension scaling slopes."""
    # budget 0: no draws can be spent, the prior rule pays exactly 1/4
    inst0 = build_oracle_game(D=20.0, gamma=1.0, d=2)
    res0 = run_query_game(inst0, [0], trials=10_000, seed=seed_derive(MASTER_SEED, "c3-b0"))
    budget0_ok = abs(res0.excess_error[0] - 0.25) <= 0.02
    print(f"\n  budget-0 excess {res0.excess_error[0]:.4f} (target 0.25 +- 0.02)")

    decay_failures = []
    slopes = {}
    print("  d   D      p_hat     k*        decay-bound verdict")
    for d in (1, 2, 3):
        thresholds = []
        scales = []
        for D in (20.0, 50.0, 110.0):
            inst = build_oracle_game(D=D, gamma=1.0, d=d)
            pilot = measure_bound_audit(inst, 100_000, seed_derive(MASTER_SEED, f"c3-pilot-{d}-{D}"))
            k_max = max(8, int(math.ceil(3 * math.log(2) / max(pilot.p_hat, 1e-6))))
            budgets = sorted(set([0] + [int(b) for b in np.geomspace(1, k_max, 12)]))
            result = run_query_game(
                inst, budgets, trials=1000, seed=seed_derive(MASTER_SEED, f"c3-sweep-{d}-{D}")
            )
            nominal = pilot.nominal_bound
            cell_ok = True
            for k, excess in zip(result.budgets, result.excess_error):
                q = 2 * excess
                sigma = math.sqrt(max(q * (1 - q), 1e-9) / 4 / result.trials)
                target = 0.25 * (1 - nominal) ** k - 3 * sigma
                if excess < target:
                    cell_ok = False
                    decay_failures.append((d, D, int(k), float(excess), float(target)))
            k_star = detection_threshold(result)
            thresholds.append(k_star)
            scales.append(inst.D0 / inst.gamma)
            print(
                f"  {d}  {D:5.0f}  {pilot.p_hat:.6f}  {k_star and round(k_star, 1)!s:>8}  "
                f"{'ok' if cell_ok else 'SHALLOWER THAN NOMINAL'}"
            )
        fit = np.polyfit(np.log(scales), np.log(thresholds), 1)
        slopes[d] = float(fit[0])
    slope_ok = all(slopes[d] >= d - 0.5 for d in (1, 2, 3))
    print(f"  threshold scaling slopes {slopes} (targets d - 0.5)")

    ok = budget0_ok and slope_ok and not decay_failures
    _verdict(
        "C03",
        ok,
        f"budget0={'ok' if budget0_ok else 'FAIL'} slopes={'ok' if slope_ok else 'FAIL'} "
        f"decay-bound failures={len(decay_failures)}",
    )
    assert budget0_ok, f"budget-0 excess {res0.excess_error[0]} not within 0.25 +- 0.02"
    assert slope_ok, f"threshold slopes {slopes} below d - 0.5"
    assert not decay_failures, (
        "excess-error decay undershoots (1/4)(1 - nominal)^k - 3 sigma at "
        f"{[(d, D, k) for d, D, k, _, _ in decay_failures]}; the nominal constant "
        "understates the true distinguishing mass (see C02), making its decay "
        "curve an overestimate the measured game cannot meet"
    )


@pytest.fixture(scope="module")
def failure_instance():
    return build_failure_instance(2, 1.0, 2, seed=seed_derive(MASTER_SEED, "c4-instance"))


def test_c04_proper_failure_game(failure_instance):
    """Hidden-subset game at m=2: mean, tail, realizability, cross losses."""
    inst = failure_instance
    assert inst.M == 15 and inst.n_anchors == 6

    realizability_ok = all(cross_loss_exact(inst, t, t) == 0.0 for t in range(inst.M))
    cross_ok = all(
        cross_loss_exact(inst, t, tp) == cross_loss_formula(inst, t, tp)
        for t in range(inst.M)
        for tp in range(inst.M)
    )
    result = run_adversarial_game(
        inst, best_response_learner, 2, 10_000, seed=seed_derive(MASTER_SEED, "c4-game")
    )
    sigma = float(np.std(result.loss_samples)) / math.sqrt(result.trials)
    mean_ok = result.mean_loss >= 0.25 - 3 * sigma
    tail_sigma = math.sqrt(
        max(result.freq_loss_above_eighth * (1 - result.freq_loss_above_eighth), 1e-9)
        / result.trials
    )
    tail_ok = result.freq_loss_above_eighth >= 1 / 7 - 3 * tail_sigma

    ok = realizability_ok and cross_ok and mean_ok and tail_ok
    _verdict(
        "C04",
        ok,
        f"mean={result.mean_loss:.4f} tail={result.freq_loss_above_eighth:.4f} "
        f"realizable={realizability_ok} cross_225={cross_ok}",
    )
    assert realizability_ok and cross_ok and mean_ok and tail_ok


def test_c05_shatter_family_stipulations():
    """Cell-family stipulations at d=2, W=1, M=15 against a 1e4 net."""
    family = build_shatter_family(1.0, 2, 15, seed=seed_derive(MASTER_SEED, "c5"))

    stip2_ok = True
    for i, h in enumerate(family.witnesses):
        for j, cell in enumerate(family.cells):
            if j != i and np.any(h.predict_many(cell) == 1):
                stip2_ok = False

    net = linear_net_2d(1.0, 100, 100)
    assert len(net) == 10_000
    stip1_failures = stipulation_one_failures(family, net)

    mismatch = cap_mismatch_fraction(
        1.0, family.beta, family.cover.centers[0] / (1.0 + family.beta), 100_000,
        seed=seed_derive(MASTER_SEED, "c5-cap"),
    )
    ok = stip2_ok and stip1_failures == 0 and mismatch < 1e-3
    _verdict(
        "C05",
        ok,
        f"stip2_exact={stip2_ok} stip1_net_failures={stip1_failures} cap_mismatch={mismatch:.2e}",
    )
    assert ok


def test_c06_opt_gap_audit():
    """Radius-shrink stability on 50 random instances, four (eps, delta) pairs."""
    tasks = [
        make_learning_task(seed_derive(MASTER_SEED, f"c6-{i}"), gamma=0.5)
        for i in range(50)
    ]
    oracles = [IndexedExhaustiveOracle(t.cls, t.family, t.dist) for t in tasks]
    samples = [
        t.dist.sample_indices(30, rng_for(MASTER_SEED, f"c6-sample-{i}"))
        for i, t in enumerate(tasks)
    ]
    worst = []
    all_ok = True
    for eps in (0.1, 0.3):
        for delta in (0.1, 0.3):
            for i, (oracle, idx) in enumerate(zip(oracles, samples)):
                opt_fn = lambda r, o=oracle, s=idx: o.opt_count(s, r) / len(s)  # noqa: E731
                audit = opt_gap_audit(
                    opt_fn, eps, delta, 0.5, 400, seed_derive(MASTER_SEED, f"c6-{eps}-{delta}-{i}")
                )
                f_sigma = math.sqrt(audit.target_frequency * (1 - audit.target_frequency) / 400)
                g_sigma = math.sqrt(max(audit.mean_gap_bound, 1e-12) / 400)
                ok = (
                    audit.frequency_ok >= audit.target_frequency - 3 * f_sigma
                    and audit.mean_gap <= audit.mean_gap_bound + 3 * g_sigma
                )
                all_ok = all_ok and ok
                worst.append(audit.frequency_ok - audit.target_frequency)
    _verdict("C06", all_ok, f"200 audits, worst frequency margin {min(worst):+.4f}")
    assert all_ok


def test_c07_sandwich_audits():
    """500 randomized loss-sandwich audits plus the negative control."""
    rng = rng_for(MASTER_SEED, "c7")
    certified_violations = 0
    violations = 0
    for trial in range(500):
        kind = trial % 3
        if kind == 0:
            base = Ball(rng.uniform(-1, 1, 2), float(rng.uniform(0.1, 0.4)))
        elif kind == 1:
            base = FinitePoints(rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), 2)))
        else:
            # draw order: center 0, radius 0, center 1, radius 1
            c0, r0 = rng.uniform(-1, 1, 2), rng.uniform(0.1, 0.3)
            c1, r1 = rng.uniform(-1, 1, 2), rng.uniform(0.1, 0.3)
            base = UnionOfBalls([c0, c1], [r0, r1])
        r = float(rng.uniform(0.4, 0.8))
        alpha = float(rng.uniform(0.25, 0.6)) * r
        hyps = [
            LinearClassifier(rng.normal(size=2), float(rng.uniform(-1, 1))),
            SphereBoundary(rng.uniform(-1, 1, 2), float(rng.uniform(2 * alpha, 3.0))),
        ]
        examples = [
            LabeledExample(rng.uniform(-1, 1, 2), 1),
            LabeledExample(rng.uniform(-1, 1, 2), -1),
        ]
        build = build_point_sandwich if trial % 2 == 0 else build_ball_sandwich
        triple = build(base, r=r, alpha=alpha, seed=int(rng.integers(2**31)))
        report = sandwich_audit(triple, hyps, examples, seed=int(rng.integers(2**31)))
        violations += len(report.violations)
        certified_violations += len(report.certified_violations)
        assert all(c.passed for c in report.certificates)

    # negative control: the left inequality must break without regularity
    triple, control, example = make_nonregular_control(
        FinitePoints([[0.0, 0.0]]), r=0.8, alpha=0.3, seed=seed_derive(MASTER_SEED, "c7-control")
    )
    control_report = sandwich_audit(triple, [control], [example], seed=0)
    control_ok = bool(control_report.violations) and not control_report.certificates[0].passed

    inclusion_failures = 0
    for i in range(10):
        base = Ball(rng.uniform(-1, 1, 2), float(rng.uniform(0.1, 0.3)))
        triple = build_ball_sandwich(base, r=0.6, alpha=0.25, seed=1000 + i)
        lf, uf = set_inclusion_probe(triple, 10_000, seed=2000 + i)
        inclusion_failures += lf + uf

    ok = certified_violations == 0 and control_ok and inclusion_failures == 0
    _verdict(
        "C07",
        ok,
        f"certified_violations={certified_violations} control_breaks={control_ok} "
        f"inclusion_failures={inclusion_failures} (total_violations={violations})",
    )
    assert ok


def test_c08_tolerant_learner_contract():
    """End-to-end tolerant learning on 20 seeded tasks: success and trend."""
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "tolrerm_sweep",
            "seed": seed_derive(MASTER_SEED, "c8"),
            "params": {
                "tasks": 20,
                "n_grid": [10, 30, 100, 300],
                "trials": 200,
                "eps": 0.1,
                "delta": 0.1,
            },
        }
    )
    record = run(cfg)
    fraction = record.summary["success_fraction_at_max_n"]
    medians = record.summary["median_excess_by_n"]
    _verdict(
        "C08",
        record.assertions_passed,
        f"success@n=300 {fraction:.4f} (target >= 0.9), medians {medians}",
    )
    assert record.assertions_passed
    assert fraction >= 0.9


def test_c09_robust_vc_audits():
    """Singleton equivalence, growth-function bound, pattern correspondence."""
    rng = np.random.default_rng(902)

    def threshold_class(ts):
        from robustlab.classifiers import FiniteClass

        return FiniteClass(tuple(LinearClassifier(np.array([1.0]), -t) for t in ts))

    equivalence_ok = True
    for i in range(10):
        xs = np.sort(rng.uniform(-3, 3, size=5))
        examples = [
            LabeledExample(np.array([x]), int(y))
            for x, y in zip(xs, rng.choice([-1, 1], size=5))
        ]
        cls = threshold_class(rng.uniform(-3.5, 3.5, size=6))
        fam = RegionFamily([(e.x, FinitePoints([e.x])) for e in examples])
        robust = robust_vc_search(cls, fam, examples, max_m=5)
        plain = zero_one_vc_search(cls, examples, max_m=5)
        if (robust.dimension_lower, robust.dimension_upper) != (
            plain.dimension_lower,
            plain.dimension_upper,
        ) or robust.dimension_upper is None:
            equivalence_ok = False

    sauer_violations = 0
    correspondence_bad = 0
    pattern_checks = 0
    from itertools import combinations

    for k, s in [(1, 0.0), (2, 0.2), (3, 0.3)]:
        xs = np.linspace(0.0, 6.0, 7)
        examples = [
            LabeledExample(np.array([x]), 1 if i % 2 else -1) for i, x in enumerate(xs)
        ]
        if k == 1:
            fam = RegionFamily([(e.x, FinitePoints([e.x])) for e in examples])
        else:
            offs = np.linspace(-s, s, k)
            fam = RegionFamily(
                [(e.x, FinitePoints(np.array([e.x[0] + o for o in offs])[:, None])) for e in examples],
                allow_outside_anchor=True,
            )
        cls = threshold_class(np.linspace(-1, 7, 30))
        pts = np.unique(
            np.vstack([fam.region_for(e.x).points for e in examples]), axis=0
        )
        base_vc = class_vc_on_points(cls, pts)
        for m in (2, 3, 4):
            for subset in combinations(examples, m):
                n_pat = len(loss_patterns(cls, fam, subset))
                T_size = k * m
                pattern_checks += 1
                if n_pat > sauer_bound(base_vc, T_size):
                    sauer_violations += 1
        correspondence_bad += len(distinct_pattern_correspondence(cls, fam, examples))

    ok = equivalence_ok and sauer_violations == 0 and correspondence_bad == 0
    _verdict(
        "C09",
        ok,
        f"singleton_equivalence={equivalence_ok} sauer_violations={sauer_violations}"
        f"/{pattern_checks} correspondence_failures={correspondence_bad}",
    )
    assert ok


def test_c10_property_suites_and_reproducibility(tmp_path):
    """Cross-cutting invariants plus bit-identical harness re-runs."""
    rng = rng_for(MASTER_SEED, "c10")

    # expansion monotonicity and the collapse law on random regions
    from robustlab.regions import Expanded

    for _ in range(50):
        base = Ball(rng.uniform(-1, 1, 2), float(rng.uniform(0.1, 0.5)))
        g1, g2 = rng.uniform(0.1, 0.6, size=2)
        pts = rng.uniform(-3, 3, size=(200, 2))
        inside_base = base.contains_many(pts)
        inside_g1 = base.expand(g1).contains_many(pts)
        inside_sum = base.expand(g1 + g2).contains_many(pts)
        assert np.all(inside_base <= inside_g1) and np.all(inside_g1 <= inside_sum)
        nested = Expanded(Expanded(base, g1), g2)
        flat = Expanded(base, g1 + g2)
        assert np.array_equal(nested.contains_many(pts), flat.contains_many(pts))

    # profile monotonicity and oracle dominance on random tasks
    for i in range(5):
        task = make_learning_task(seed_derive(MASTER_SEED, f"c10-task-{i}"))
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        sample_idx = task.dist.sample_indices(25, rng_for(MASTER_SEED, f"c10-s-{i}"))
        grid = np.linspace(0, task.gamma, 9)
        opts = [oracle.opt_count(sample_idx, r) for r in grid]
        assert all(b >= a for a, b in zip(opts, opts[1:]))
        sol = oracle.solve(sample_idx, task.gamma / 2)
        counts = oracle.violated(task.gamma / 2)[:, sample_idx].sum(axis=1)
        assert np.all(sol.achieved_loss * len(sample_idx) <= counts + 1e-9)

    # bit-identical CSV re-run through the harness
    digests = []
    for name in ("r1.csv", "r2.csv"):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "oracle_query_sweep",
                "seed": 777,
                "params": {"trials": 400, "budgets": [0, 2, 8, 32]},
                "output_path": str(tmp_path / name),
            }
        )
        run(cfg)
        digests.append((tmp_path / name).read_bytes())
    reproducible = digests[0] == digests[1]

    _verdict("C10", reproducible, f"invariants ok, csv_bit_identical={reproducible}")
    assert reproducible
