"""Robust loss classes, exhaustive shattering, and growth-function checks."""

import math
from itertools import combinations

import numpy as np
import pytest

import robustlab.classifiers
import robustlab.loss_vc
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
    MAX_SUBSET_WIDTH,
    OverheadRow,
    _bits,
    _pattern_counts,
    _row_witnesses,
    _search_vc,
    class_vc_on_points,
    loss_patterns,
    overhead_audit,
    pattern_witnesses,
    robust_vc_search,
    sauer_bound,
    vball_shatter_check,
    zero_one_vc_search,
)
from robustlab.regions import FinitePoints, RegionFamily, UnionOfBalls
from references import distinct_pattern_correspondence


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

    def test_sauer_pass_over_the_budget_raises_before_any_work(self, monkeypatch):
        # every subset of 1 to 10 of 21 examples: 2**20 - 1 > SUBSET_BUDGET
        examples = [ex((float(i),), 1 if i % 2 else -1) for i in range(21)]
        instance = (1, 1, threshold_class(np.linspace(-1, 21, 25)), singleton_family(examples), examples)
        assert sauer_bound(10, 21) - 1 == 2**20 - 1 > robustlab.loss_vc.SUBSET_BUDGET

        def no_table(*args):
            raise AssertionError("the loss table was built")

        monkeypatch.setattr(robustlab.loss_vc, "_loss_table", no_table)
        with pytest.raises(ValueError, match="1,048,575 subsets"):
            overhead_audit([instance], max_m=10)
        # under the budget the pass runs: C(21, 1) + ... + C(21, 6) = 82,509 subsets
        monkeypatch.undo()
        assert overhead_audit([instance], max_m=6)[0].pattern_checks == sauer_bound(6, 21) - 1


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

    @pytest.mark.parametrize("per_block", [1, 2])
    def test_overhead_rows_match_recomputation_in_small_blocks(self, monkeypatch, per_block):
        examples = self.examples()
        cls = mixed_class(self.xs)
        instances = [(2, 2, cls, self.finite_points_family(), examples), (2, 1, cls, singleton_family(examples), examples)]
        expected = [reference_overhead_row(*inst, max_m=3) for inst in instances]
        monkeypatch.setattr(robustlab.loss_vc, "BLOCK_CODES", per_block * len(cls))
        assert overhead_audit(instances, max_m=3) == expected

    @pytest.mark.parametrize("max_m", range(1, 7))
    def test_overhead_estimate_is_the_search_read_off_the_sauer_pass(self, monkeypatch, max_m):
        # the audit scans each instance once; its only other search is the
        # base class's ordinary VC, one per instance
        examples = self.examples()
        cls = mixed_class(self.xs)
        # the two-example universe is shattered, so from max_m 3 on its estimate is certified at 2
        cases = [(self.finite_points_family(), examples), (singleton_family(examples), examples),
                 (singleton_family(examples[:2]), examples[:2])]
        searches = []
        search = robustlab.loss_vc._search_vc
        monkeypatch.setattr(robustlab.loss_vc, "_search_vc", lambda *args: searches.append(args) or search(*args))
        rows = overhead_audit([(2, 1, cls, fam, universe) for fam, universe in cases], max_m=max_m)
        assert len(searches) == len(cases)
        for row, (fam, universe) in zip(rows, cases):
            est = robust_vc_search(cls, fam, universe, max_m=max_m)
            assert (row.vc_lower, row.vc_upper) == (est.dimension_lower, est.dimension_upper)


# --------------------------------------------------------------------------
# the block pattern-count kernel against the one-subset-at-a-time loop
# --------------------------------------------------------------------------
#
# robust_vc_search, zero_one_vc_search, class_vc_on_points and the Sauer pass
# of overhead_audit all count patterns with _pattern_counts, so C09's
# comparison of the robust and 0-1 searches cannot catch a kernel fault.
# The independent check is this file's references: reference_search and
# reference_overhead_row above recompute every subset from
# robust_loss_point, and row_witness_search below is the search loop that
# builds one _row_witnesses dict per subset.


def row_witness_search(matrix, max_m, subset_budget=math.inf):
    """(lower, upper, scanned, budget_exceeded), one subset at a time."""
    n = matrix.shape[1]
    lower = scanned = 0
    for m in range(1, max_m + 1):
        if scanned + math.comb(n, m) > subset_budget:
            return lower, None, scanned, True
        found = False
        for cols in combinations(range(n), m):
            scanned += 1
            if len(_row_witnesses(matrix[:, list(cols)])) == 2**m:
                found = True
                break
        if not found:
            return lower, lower, scanned, False
        lower = m
    return lower, (lower if lower < max_m else None), scanned, False


def as_tuple(est):
    return est.dimension_lower, est.dimension_upper, est.subsets_scanned, est.budget_exceeded


def counts_by_loop(matrix, m):
    return [len(_row_witnesses(matrix[:, list(cols)])) for cols in combinations(range(matrix.shape[1]), m)]


class TestPatternCountKernel:
    def test_random_matrices_match_the_loop(self):
        rng = np.random.default_rng(27)
        for trial in range(30):
            rows, n = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            matrix = (rng.random((rows, n)) < rng.uniform(0.1, 0.9)).astype(np.int8)
            for max_m in (1, 3, n + 1):
                assert as_tuple(_search_vc(_bits(matrix), max_m, math.inf)) == row_witness_search(matrix, max_m)

    @pytest.mark.parametrize("per_block", [9, 10, 11, 3, 5, 1])
    def test_block_boundaries(self, monkeypatch, per_block):
        # 5 columns give a size class of 10 pairs and 10 triples: one block
        # holds more, exactly as many or fewer of them (3 leaves a partial
        # last block, 5 splits evenly)
        rng = np.random.default_rng(per_block)
        matrix = (rng.random((12, 5)) < 0.5).astype(np.int8)
        monkeypatch.setattr(robustlab.loss_vc, "BLOCK_CODES", per_block * len(matrix))
        bits = _bits(matrix)
        for m in range(1, 6):
            blocks = list(_pattern_counts(bits, m))
            assert all(len(block) == min(per_block, math.comb(5, m)) for block, _ in blocks[:-1])
            assert np.vstack([block for block, _ in blocks]).tolist() == [list(c) for c in combinations(range(5), m)]
            assert np.concatenate([counts for _, counts in blocks]).tolist() == counts_by_loop(matrix, m)

    @pytest.mark.parametrize("per_block", [1, 3, 4, 10])
    def test_first_shattered_subset_counts_its_block_up_to_it(self, monkeypatch, per_block):
        # rows realize every pattern on columns (2, 3) only, the sixth of the
        # ten pairs, so the search stops inside a block or at its edge
        cols23 = np.array([[a, b] for a in (0, 1) for b in (0, 1)])
        matrix = np.hstack([np.zeros((4, 2), int), cols23, np.zeros((4, 1), int)])
        monkeypatch.setattr(robustlab.loss_vc, "BLOCK_CODES", per_block * len(matrix))
        est = _search_vc(_bits(matrix), 4, math.inf)
        assert as_tuple(est) == row_witness_search(matrix, 4) == (2, 2, 5 + 6 + 10, False)

    def test_size_with_more_patterns_than_rows_scans_its_whole_class(self):
        # 3 rows cannot take the 4 patterns of a pair, so all 15 pairs are scanned
        matrix = np.array([[0, 1, 0, 1, 1, 0], [1, 0, 0, 1, 0, 1], [1, 1, 1, 0, 0, 0]])
        est = _search_vc(_bits(matrix), 4, math.inf)
        assert as_tuple(est) == row_witness_search(matrix, 4) == (1, 1, 1 + 15, False)

    def test_blocks_double_from_the_first_block_up_to_the_cap(self, monkeypatch):
        rng = np.random.default_rng(3)
        matrix = (rng.random((4, 9)) < 0.5).astype(np.int8)
        monkeypatch.setattr(robustlab.loss_vc, "FIRST_BLOCK_CODES", 1 * len(matrix))
        monkeypatch.setattr(robustlab.loss_vc, "BLOCK_CODES", 16 * len(matrix))
        blocks = list(_pattern_counts(_bits(matrix), 3))
        assert [len(block) for block, _ in blocks] == [1, 2, 4, 8, 16, 16, 16, 16, 5]
        assert np.vstack([block for block, _ in blocks]).tolist() == [list(c) for c in combinations(range(9), 3)]
        assert np.concatenate([counts for _, counts in blocks]).tolist() == counts_by_loop(matrix, 3)
        for max_m in (1, 2, 3, 4):
            assert as_tuple(_search_vc(_bits(matrix), max_m, math.inf)) == row_witness_search(matrix, max_m)

    @pytest.mark.parametrize("budget", [0, 5, 6, 15, 16, 21, 22, 10**6])
    def test_budget_exceeded_matches_the_loop(self, budget):
        # 6 full columns over 64 rows: every subset is shattered, so size m
        # scans one subset, but it starts only if the m - 1 scanned so far
        # and all C(6, m) fit the budget; size 3 needs the most, 2 + 20
        matrix = np.array([[(r >> j) & 1 for j in range(6)] for r in range(64)])
        assert as_tuple(_search_vc(_bits(matrix), 6, budget)) == row_witness_search(matrix, 6, budget)
        assert _search_vc(_bits(matrix), 6, budget).budget_exceeded == (budget < 22)

    def test_plus_minus_one_labelings(self):
        rng = np.random.default_rng(5)
        cls = FiniteClass(tuple(linear_net_2d(2.0, 8, 5)))
        for trial in range(4):
            points = rng.uniform(-1.5, 1.5, size=(5, 2))
            labelings = np.array([h.predict_many(points) for h in cls])
            assert set(np.unique(labelings)) == {-1, 1}
            assert class_vc_on_points(cls, points) == row_witness_search(labelings, 5)[0]
        # every labeling of 3 points shatters them
        pts = np.array([[float(i)] for i in range(3)])
        tables = FiniteClass(
            tuple(TableClassifier(pts, [1 if b & (1 << i) else -1 for i in range(3)], default=1) for b in range(8))
        )
        assert class_vc_on_points(tables, pts) == 3

    def test_sauer_cap_met_with_equality_on_mixed_region_sizes(self):
        # four tables of VC 1 on the points 0, 1, 2: (+++), (+-+), (-++) and
        # (-+-); the pair with regions {0} and {1, 2} takes all 4 patterns,
        # exactly sauer(1, 1 + 2), so the cap must use each subset's own total
        pts = np.array([[0.0], [1.0], [2.0]])
        signs = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, 1, -1)]
        cls = FiniteClass(tuple(TableClassifier(pts, list(labels), default=1) for labels in signs))
        examples = [ex((0.0,), 1), ex((1.0,), 1)]
        fam = RegionFamily([(pts[0], FinitePoints(pts[:1])), (pts[1], FinitePoints(pts[1:]))])
        assert len(loss_patterns(cls, fam, examples)) == sauer_bound(1, 3) == 4
        row = overhead_audit([(1, 2, cls, fam, examples)], max_m=2)[0]
        assert row == reference_overhead_row(1, 2, cls, fam, examples, 2)
        assert (row.base_vc_on_regions, row.sauer_ok, row.pattern_checks) == (1, True, 3)

    def test_rejects_a_third_value(self):
        with pytest.raises(ValueError, match="two-valued"):
            _bits(np.array([[0, 1], [1, 2]]))

    def test_rejects_subsets_too_wide_for_a_code(self):
        bits = _bits(np.vstack([np.zeros(MAX_SUBSET_WIDTH + 1, int), np.ones(MAX_SUBSET_WIDTH + 1, int)]))
        with pytest.raises(ValueError, match="overflow"):
            list(_pattern_counts(bits, MAX_SUBSET_WIDTH + 1))
        # the widest code still counts exactly
        blocks = list(_pattern_counts(bits[:MAX_SUBSET_WIDTH], MAX_SUBSET_WIDTH))
        assert [counts.tolist() for _, counts in blocks] == [[2]]
