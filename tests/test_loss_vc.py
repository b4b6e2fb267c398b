"""Robust loss classes, exhaustive shattering, and growth-function checks."""

from itertools import combinations

import numpy as np

import robustlab.classifiers
from robustlab.classifiers import (
    FiniteClass,
    LabeledExample,
    LinearClassifier,
    SphereBoundary,
    TableClassifier,
    linear_net_2d,
    robust_loss_point,
)
from robustlab.geometry import Ball
from robustlab.loss_vc import (
    OverheadRow,
    class_vc_on_points,
    distinct_pattern_correspondence,
    loss_patterns,
    overhead_audit,
    pattern_witnesses,
    robust_vc_search,
    sauer_bound,
    vball_shatter_check,
    zero_one_vc_search,
)
from robustlab.regions import FinitePoints, RegionFamily, UnionOfBalls


def ex(x, y):
    return LabeledExample(np.asarray(x, dtype=float), y)


def singleton_family(examples):
    return RegionFamily([(e.x, FinitePoints([e.x])) for e in examples])


def threshold_class(ts):
    """Thresholds on the line: +1 iff x >= t."""
    return FiniteClass(tuple(LinearClassifier(np.array([1.0]), -t) for t in ts))


def two_sided_family(examples, s):
    return RegionFamily(
        [(e.x, FinitePoints([e.x - s, e.x + s])) for e in examples],
        allow_outside_anchor=True,
    )


class TestLossPatterns:
    def test_singleton_regions_reduce_to_zero_one_loss(self):
        examples = [ex((x,), y) for x, y in [(-1.0, -1), (0.5, 1), (2.0, -1)]]
        cls = threshold_class([-2.0, 0.0, 1.0, 3.0])
        fam = singleton_family(examples)
        robust = loss_patterns(cls, fam, examples)
        plain = {
            tuple(int(h.predict(e.x) != e.y) for e in examples) for h in cls
        }
        assert robust == plain

    def test_pattern_count_capped_by_class_size(self):
        examples = [ex((0.0,), 1), ex((1.0,), -1), ex((2.0,), 1)]
        cls = threshold_class([0.5, 1.5])
        assert len(loss_patterns(cls, singleton_family(examples), examples)) <= 2

    def test_two_sided_regions_cross_checked(self):
        examples = [ex((0.0,), 1), ex((1.0,), -1), ex((2.5,), 1)]
        fam = two_sided_family(examples, s=0.3)
        cls = threshold_class(np.linspace(-1, 4, 21))
        patterns = loss_patterns(cls, fam, examples)
        # independent re-evaluation, hypothesis by hypothesis
        recomputed = set()
        for h in cls:
            row = []
            for e in examples:
                pts = np.array([[e.x[0] - 0.3], [e.x[0] + 0.3]])
                row.append(int(np.any(h.predict_many(pts) != e.y)))
            recomputed.add(tuple(row))
        assert patterns == recomputed

    def test_monotone_in_class_and_region(self):
        examples = [ex((0.0,), 1), ex((1.0,), -1)]
        fam = singleton_family(examples)
        small = threshold_class([0.5])
        large = threshold_class([0.5, 1.5, -0.5])
        assert loss_patterns(small, fam, examples) <= loss_patterns(large, fam, examples)
        # coordinatewise loss monotonicity under expansion
        h = large[0]
        for e in examples:
            base_loss = loss_patterns(FiniteClass((h,)), fam, [e])
            from robustlab.classifiers import robust_loss_point

            assert robust_loss_point(h, fam.region_for(e.x), e) <= robust_loss_point(
                h, fam.region_for(e.x).expand(0.7), e
            )


class TestVcSearch:
    def test_single_hypothesis_dimension_zero(self):
        examples = [ex((float(i),), 1) for i in range(4)]
        cls = threshold_class([1.5])
        est = robust_vc_search(cls, singleton_family(examples), examples, max_m=4)
        assert est.dimension_lower == 0
        assert est.dimension_upper == 0

    def test_full_table_class_shatters_universe(self):
        pts = [np.array([float(i)]) for i in range(3)]
        examples = [LabeledExample(p, 1) for p in pts]
        tables = []
        for bits in range(8):
            labels = [1 if bits & (1 << i) else -1 for i in range(3)]
            tables.append(TableClassifier(np.array(pts), labels, default=1))
        cls = FiniteClass(tuple(tables))
        est = robust_vc_search(cls, singleton_family(examples), examples, max_m=4)
        assert est.dimension_lower == 3
        assert est.dimension_upper == 3  # no larger subset exists in the universe

    def test_matches_zero_one_route_on_singletons(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            xs = np.sort(rng.uniform(-3, 3, size=6))
            labels = rng.choice([-1, 1], size=6)
            examples = [ex((x,), int(y)) for x, y in zip(xs, labels)]
            cls = threshold_class(rng.uniform(-3.5, 3.5, size=5))
            robust = robust_vc_search(cls, singleton_family(examples), examples, max_m=5)
            plain = zero_one_vc_search(cls, examples, max_m=5)
            assert robust.dimension_lower == plain.dimension_lower
            assert robust.dimension_upper == plain.dimension_upper

    def test_witnesses_reverified(self):
        examples = [ex((0.0,), 1), ex((1.0,), -1)]
        cls = threshold_class([-1.0, 0.5, 2.0])
        fam = singleton_family(examples)
        witnesses = pattern_witnesses(cls, fam, examples)
        from robustlab.classifiers import robust_loss_point

        for pattern, idx in witnesses.items():
            redone = tuple(
                robust_loss_point(cls[idx], fam.region_for(e.x), e) for e in examples
            )
            assert redone == pattern


class TestSauerAndCorrespondence:
    def test_sauer_bound_values(self):
        assert sauer_bound(1, 8) == 9
        assert sauer_bound(2, 4) == 11
        assert sauer_bound(3, 3) == 8

    def test_vc_one_class_cannot_robustly_shatter_four(self):
        # growth oracle: 2^4 = 16 patterns needed, but a VC-1 class on the
        # (at most) 8 inflated points realizes at most sauer(1, 8) = 9
        xs = np.linspace(0.0, 11.0, 12)
        examples = [ex((x,), 1 if i % 2 else -1) for i, x in enumerate(xs)]
        fam = two_sided_family(examples, s=0.25)
        cls = threshold_class(np.linspace(-1, 12, 40))
        base_vc = class_vc_on_points(
            cls, np.unique(np.vstack([fam.region_for(e.x).points for e in examples]), axis=0)
        )
        assert base_vc == 1
        est = robust_vc_search(cls, fam, examples, max_m=4)
        assert est.dimension_upper is not None and est.dimension_upper < 4

    def test_correspondence_claim(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            xs = np.sort(rng.uniform(-2, 2, size=5))
            examples = [ex((x,), int(rng.choice([-1, 1]))) for x in xs]
            fam = two_sided_family(examples, s=0.2)
            cls = threshold_class(rng.uniform(-3, 3, size=8))
            assert distinct_pattern_correspondence(cls, fam, examples) == []

    def test_overhead_audit_rows(self):
        xs = np.linspace(0.0, 5.0, 6)
        examples = [ex((x,), 1 if i % 2 else -1) for i, x in enumerate(xs)]
        cls = threshold_class(np.linspace(-1, 6, 15))
        instances = []
        for k, s in [(1, 0.0), (3, 0.2)]:
            if k == 1:
                fam = singleton_family(examples)
            else:
                fam = RegionFamily(
                    [
                        (e.x, FinitePoints([e.x - s, e.x, e.x + s]))
                        for e in examples
                    ]
                )
            instances.append((1, k, cls, fam, examples))
        rows = overhead_audit(instances, max_m=4)
        assert all(row.sauer_ok for row in rows)
        # singleton row: robust VC equals the plain loss-class VC
        plain = zero_one_vc_search(cls, examples, max_m=4)
        assert rows[0].vc_lower == plain.dimension_lower
        # size-3 regions keep the dimension near the base VC of 1
        assert rows[1].vc_upper is not None and rows[1].vc_upper <= 2


class TestVballShatter:
    def test_radius_zero_reduces_to_singletons(self):
        examples = [ex((0.0,), 1), ex((1.0,), -1)]
        cls = threshold_class([-0.5, 0.5, 1.5])
        report = vball_shatter_check(cls, 0.0, examples)
        fam = singleton_family(examples)
        assert report.achieved_patterns == len(loss_patterns(cls, fam, examples))

    def test_two_far_points_shattered(self):
        candidates = [ex((-5.0, 0.0), 1), ex((5.0, 0.0), -1)]
        cls = FiniteClass(tuple(linear_net_2d(6.0, 32, 25)))
        report = vball_shatter_check(cls, 1.0, candidates)
        assert report.shattered
        # witnesses must reproduce their patterns exactly
        from robustlab.classifiers import robust_loss_point

        for pattern, idx in report.witness_map.items():
            redone = tuple(
                robust_loss_point(cls[idx], Ball(c.x, 1.0), c) for c in candidates
            )
            assert redone == pattern

    def test_overlapping_balls_make_joint_robustness_impossible(self):
        # the ball intersection point must be labeled one way or the other,
        # so the all-correct pattern (0, 0) cannot be realized
        candidates = [ex((0.0, 0.0), 1), ex((1.5, 0.0), -1)]
        cls = FiniteClass(tuple(linear_net_2d(4.0, 60, 41)))
        report = vball_shatter_check(cls, 1.0, candidates)
        assert (0, 0) not in report.witness_map
        assert not report.shattered


# --------------------------------------------------------------------------
# the loss matrix against a per-subset recomputation from robust_loss_point
# --------------------------------------------------------------------------


def reference_witnesses(cls, family, subset):
    """Each pattern on the subset and its lowest witness, evaluated afresh."""
    out = {}
    for idx, h in enumerate(cls):
        pattern = tuple(robust_loss_point(h, family.region_for(e.x), e) for e in subset)
        out.setdefault(pattern, idx)
    return out


def reference_search(cls, family, universe, max_m):
    """(lower, upper, scanned), recomputing every subset's patterns."""
    lower = scanned = 0
    for m in range(1, max_m + 1):
        found = False
        for subset in combinations(universe, m):
            scanned += 1
            if len(reference_witnesses(cls, family, subset)) == 2**m:
                found = True
                break
        if not found:
            return lower, lower, scanned
        lower = m
    return lower, (lower if lower < max_m else None), scanned


def reference_overhead_row(d, k, cls, family, universe, max_m):
    lower, upper, _ = reference_search(cls, family, universe, max_m)

    def inflated(subset):
        return np.vstack([family.region_for(e.x).points for e in subset])

    base_vc = class_vc_on_points(cls, np.unique(inflated(universe), axis=0))
    ok, checks = True, 0
    for m in range(1, min(len(universe), max_m) + 1):
        for subset in combinations(universe, m):
            checks += 1
            n_patterns = len(reference_witnesses(cls, family, subset))
            ok = ok and n_patterns <= sauer_bound(base_vc, len(inflated(subset)))
    return OverheadRow(d, k, lower, upper, base_vc, ok, checks)


def mixed_class(xs):
    """Linear, sphere-boundary and table hypotheses in the plane."""
    hyps = []
    for t in np.linspace(-0.5, 4.5, 6):
        hyps.append(LinearClassifier((1.0, 0.0), -t))
        hyps.append(LinearClassifier((-1.0, 0.3), t))
    for cx, radius, label in [(1.0, 1.2, 1), (3.0, 0.9, -1), (2.0, 1.6, 1), (0.0, 0.5, -1)]:
        hyps.append(SphereBoundary((cx, 0.0), radius, label))
    for bits, default in [(0b01011, 1), (0b10110, -1), (0b11100, 1)]:
        labels = [1 if bits & (1 << i) else -1 for i in range(len(xs))]
        hyps.append(TableClassifier(xs, labels, default=default))
    return FiniteClass(tuple(hyps))


class TestLossMatrixAgainstRecomputation:
    xs = np.array([[float(i), 0.0] for i in range(5)])
    labels = [1, -1, -1, 1, -1]

    def examples(self):
        return [LabeledExample(x, y) for x, y in zip(self.xs, self.labels)]

    def mixed_regions_family(self):
        regions = [
            Ball(self.xs[0], 0.3),
            FinitePoints([self.xs[1], self.xs[1] + (0.2, 0.1)]),
            UnionOfBalls([self.xs[2], self.xs[2] + (0.3, 0.0)], [0.2, 0.1]),
            FinitePoints([self.xs[3]]),
            Ball(self.xs[4], 0.6),
        ]
        return RegionFamily(list(zip(self.xs, regions)))

    def finite_points_family(self):
        # region sizes 1, 2, 3, 2, 1, so inflated sizes differ by subset
        offsets = [[0.0], [0.0, 0.25], [-0.2, 0.0, 0.3], [0.0, -0.4], [0.0]]
        return RegionFamily(
            [(x, FinitePoints([x + (o, 0.0) for o in offs])) for x, offs in zip(self.xs, offsets)]
        )

    def test_patterns_and_witnesses_on_every_subset(self):
        examples = self.examples()
        fam = self.mixed_regions_family()
        cls = mixed_class(self.xs)
        sizes = set()
        for m in range(len(examples) + 1):
            for subset in combinations(examples, m):
                expected = reference_witnesses(cls, fam, subset)
                assert pattern_witnesses(cls, fam, subset) == expected
                assert loss_patterns(cls, fam, subset) == set(expected)
                sizes.add(len(expected))
        assert len(sizes) > 3  # the instance is not degenerate

    def test_search_matches_recomputation(self):
        examples = self.examples()
        cls = mixed_class(self.xs)
        for fam in (self.mixed_regions_family(), self.finite_points_family()):
            est = robust_vc_search(cls, fam, examples, max_m=4)
            lower, upper, scanned = reference_search(cls, fam, examples, max_m=4)
            assert (est.dimension_lower, est.dimension_upper, est.subsets_scanned) == (
                lower,
                upper,
                scanned,
            )

    def test_overhead_rows_match_recomputation(self, monkeypatch):
        examples = self.examples()
        cls = mixed_class(self.xs)
        fam = self.finite_points_family()
        instances = [(2, 2, cls, fam, examples), (2, 1, cls, singleton_family(examples), examples)]
        expected = [reference_overhead_row(*inst, max_m=3) for inst in instances]

        shapes = []
        table = robustlab.classifiers._violation_table

        def counted(hypotheses, regions, examples):
            radii, inclusive = table(hypotheses, regions, examples)
            shapes.append(radii.shape)
            return radii, inclusive

        monkeypatch.setattr(robustlab.classifiers, "_violation_table", counted)
        assert overhead_audit(instances, max_m=3) == expected
        # one table evaluation per instance, covering every (hypothesis,
        # example) cell, shared by the search and the Sauer pass
        assert shapes == [(len(cls), len(examples))] * len(instances)
