"""Proxy-region sandwich builders and the loss-inequality audit."""

import numpy as np
import pytest

from robustlab.classifiers import (
    LabeledExample,
    LinearClassifier,
    SphereBoundary,
    TableClassifier,
    robust_loss_point,
)
from robustlab.geometry import Ball, grid_cover_bound
from robustlab.regions import FinitePoints, UnionOfBalls
from robustlab.sandwich import (
    build_ball_sandwich,
    build_point_sandwich,
    make_nonregular_control,
    sandwich_audit,
    set_inclusion_probe,
)
from robustlab.seeding import rng_for


def ex(x, y):
    return LabeledExample(np.asarray(x, dtype=float), y)


class TestPointSandwich:
    def test_one_dimensional_interval(self):
        base = FinitePoints([[0.0]])
        triple = build_point_sandwich(base, r=1.0, alpha=0.5)
        pts = triple.middle.points
        assert np.all(np.abs(pts) <= 1.0)  # inside the upper expansion
        # every middle point is a grid node within alpha/2 coverage reach
        lower_probe = np.linspace(-0.5, 0.5, 101)[:, None]
        dist = np.min(np.abs(lower_probe - pts.T), axis=1)
        assert np.all(dist <= 0.25 + 1e-12)

    def test_count_bound(self):
        base = Ball((0.0, 0.0), 0.5)
        triple = build_point_sandwich(base, r=0.5, alpha=0.2)
        bound = grid_cover_bound(base.diameter() + 1.0, 0.1, 2)
        assert len(triple.middle.points) <= bound

    def test_alpha_must_be_below_r(self):
        with pytest.raises(ValueError):
            build_point_sandwich(FinitePoints([[0.0]]), r=0.5, alpha=0.5)
        with pytest.raises(ValueError):
            build_point_sandwich(FinitePoints([[0.0]]), r=0.5, alpha=0.7)


class TestBallSandwich:
    def test_inclusions_probe_verified(self):
        base = FinitePoints([[0.0, 0.0]])
        triple = build_ball_sandwich(base, r=1.0, alpha=0.4)
        lower_fail, upper_fail = set_inclusion_probe(triple, 10_000, seed=1)
        assert lower_fail == 0
        assert upper_fail == 0

    def test_far_apart_clusters_stay_separated(self):
        base = FinitePoints([[0.0, 0.0], [10.0, 0.0]])
        r, alpha = 0.8, 0.3
        triple = build_ball_sandwich(base, r=r, alpha=alpha)
        reach = (r - alpha) + alpha / 2.0
        for center in triple.middle.centers:
            near = [
                np.linalg.norm(center - np.array([0.0, 0.0])) <= reach + 1e-9,
                np.linalg.norm(center - np.array([10.0, 0.0])) <= reach + 1e-9,
            ]
            assert sum(near) == 1  # no middle ball touches both clusters

    def test_boundary_stress_alpha_near_r(self):
        base = FinitePoints([[0.0, 0.0]])
        triple = build_ball_sandwich(base, r=0.5, alpha=0.5 - 1e-9)
        lower_fail, upper_fail = set_inclusion_probe(triple, 2_000, seed=4)
        assert lower_fail == 0
        assert upper_fail == 0


class TestSandwichAudit:
    def test_constant_hypothesis_all_zero(self):
        base = FinitePoints([[0.0, 0.0]])
        triple = build_point_sandwich(base, r=1.0, alpha=0.4)
        h = LinearClassifier((1.0, 0.0), 100.0)  # constant +1 on the scene
        report = sandwich_audit(triple, [h], [ex((0, 0), 1)], seed=0)
        row = report.rows[0]
        assert (row.loss_lower, row.loss_middle, row.loss_upper) == (0, 0, 0)
        assert not report.violations

    def test_boundary_slicing_between_shells(self):
        # boundary at 0.8 splits the 0.6-shell from the 1.0-shell
        base = FinitePoints([[0.0, 0.0]])
        triple = build_point_sandwich(base, r=1.0, alpha=0.4)
        h = LinearClassifier((1.0, 0.0), -0.8)
        report = sandwich_audit(triple, [h], [ex((0, 0), -1)], seed=1)
        row = report.rows[0]
        assert row.loss_lower == 0
        assert row.loss_upper == 1
        assert row.loss_lower <= row.loss_middle <= row.loss_upper
        assert not report.violations

    def test_certified_hypotheses_never_violate(self):
        rng = rng_for(17, "audit-suite")
        for trial in range(25):
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
            r = float(rng.uniform(0.4, 0.7))
            alpha = float(rng.uniform(0.25, 0.6)) * r
            hyps = [
                LinearClassifier(rng.normal(size=2), float(rng.uniform(-1, 1))),
                SphereBoundary(rng.uniform(-1, 1, 2), float(rng.uniform(2 * alpha, 3.0))),
            ]
            examples = [ex(rng.uniform(-1, 1, 2), 1), ex(rng.uniform(-1, 1, 2), -1)]
            for build in (build_point_sandwich, build_ball_sandwich):
                triple = build(base, r=r, alpha=alpha)
                report = sandwich_audit(triple, hyps, examples, seed=trial)
                assert all(c.passed for c in report.certificates)
                assert not report.violations, (trial, build.__name__)

    def test_nonregular_control_violates_left_and_fails_certificate(self):
        base = FinitePoints([[0.0, 0.0]])
        triple, control, example = make_nonregular_control(base, r=1.0, alpha=0.4, seed=5)
        report = sandwich_audit(triple, [control], [example], seed=5)
        row = report.rows[0]
        assert row.loss_lower == 1
        assert row.loss_middle == 0  # finite middle misses the flipped point
        assert not row.left_ok
        assert not report.certificates[0].passed
        assert report.violations and not report.certified_violations

    @pytest.mark.parametrize("build", [build_point_sandwich, build_ball_sandwich])
    def test_rows_match_pointwise_losses(self, build):
        # the audit reads one loss table for all three regions; the pointwise loss is the reference
        base = FinitePoints([[0.0, 0.0]])
        _, control, example = make_nonregular_control(base, r=1.0, alpha=0.4, seed=5)
        triple = build(base, r=1.0, alpha=0.4)
        rng = rng_for(23, "audit-rows")
        hyps = [
            LinearClassifier((1.0, 0.0), -0.3),
            LinearClassifier(rng.normal(size=2), float(rng.uniform(-1, 1))),
            SphereBoundary((0.2, 0.0), 0.9, -1),
            SphereBoundary(rng.uniform(-1, 1, 2), 2.0),
            TableClassifier([(0.5, 0.0), (1.5, 0.0)], [-1, 1], default=1),
            control,
        ]
        examples = [example, ex((0.3, -0.2), -1), ex(rng.uniform(-1, 1, 2), 1)]
        report = sandwich_audit(triple, hyps, examples, seed=5)
        regions = (triple.lower, triple.middle, triple.upper)
        expected = [
            (i, j, *(robust_loss_point(h, region, e) for region in regions), report.certificates[i].passed)
            for i, h in enumerate(hyps)
            for j, e in enumerate(examples)
        ]
        got = [
            (r.hypothesis_index, r.example_index, r.loss_lower, r.loss_middle, r.loss_upper, r.certificate_passed)
            for r in report.rows
        ]
        assert got == expected
        assert all(type(v) is int for row in got for v in row[:5])
        assert len({row[2:5] for row in got}) >= 3  # the rows are not all alike

    def test_ball_variant_immune_to_the_control(self):
        # set inclusion makes the sandwich unconditional for any hypothesis
        base = FinitePoints([[0.0, 0.0]])
        _, control, example = make_nonregular_control(base, r=1.0, alpha=0.4, seed=6)
        triple = build_ball_sandwich(base, r=1.0, alpha=0.4)
        l = robust_loss_point(control, triple.lower, example)
        m = robust_loss_point(control, triple.middle, example)
        u = robust_loss_point(control, triple.upper, example)
        assert l <= m <= u
