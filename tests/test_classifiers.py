"""Hypotheses, robust losses in all three forms, and regularity probes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from robustlab.geometry import Ball, DimensionMismatch, SphereCover
from robustlab.classifiers import (
    DiscreteDistribution,
    LabeledExample,
    LinearClassifier,
    SphereBoundary,
    TableClassifier,
    _loss_table,
    linear_net_2d,
    regularity_check,
    robust_loss_distribution,
    robust_loss_point,
    robust_loss_sampled,
    violation_radius,
)
from robustlab.oracle_game import build_oracle_game, run_query_game
from robustlab.regions import Expanded, FinitePoints, RegionFamily, UnionOfBalls, _region_balls, point_key
from robustlab.seeding import rng_for
from robustlab.shatter_game import build_failure_instance, build_shatter_family


def ex(x, y):
    return LabeledExample(np.asarray(x, dtype=float), y)


def direct_loss(h, region, y) -> int:
    """Robust loss on ``region`` itself from per-type closed forms.

    An independent reference for the flip-radius kernel: ball extrema of
    the margin for halfspaces, center distance plus or minus the radius for
    sphere boundaries, and for tables a flipped entry the region contains
    or a disagreeing default on a point that is no table entry (both by
    the exact identity rule, ``contains`` and ``point_key``).
    """
    centers, radii = _region_balls(region)
    if isinstance(h, LinearClassifier):
        margins = centers @ h.w + h.b
        reach = radii * float(np.linalg.norm(h.w))
        return int(np.any(margins - reach < 0) if y == 1 else np.any(margins + reach >= 0))
    if isinstance(h, SphereBoundary):
        dist = np.linalg.norm(centers - h.center, axis=1)
        if y == h.inside_label:
            return int(np.any(dist + radii > h.radius))
        return int(np.any(dist - radii <= h.radius))
    flips = h.flipped_points(y)
    if len(flips) and np.any(region.contains_many(flips)):
        return 1
    if h.default == y:
        return 0
    # positive measure holds non-entry points; a finite set may too
    return int(np.any(radii > 0) or any(point_key(c) not in h._index for c in centers))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Ball((0, 0), np.nan),
        lambda: SphereBoundary((0, 0), np.nan),
        lambda: LinearClassifier((1, 0), np.nan),
        lambda: LinearClassifier((1, 0), np.inf),
        lambda: DiscreteDistribution([(ex((0, 0), 1), np.nan)]),
        lambda: DiscreteDistribution([(ex((0, 0), 1), 0.5), (ex((1, 0), 1), np.nan)]),
        lambda: UnionOfBalls(np.empty((0, 2)), np.empty(0)),
        lambda: UnionOfBalls([(0, 0), (1, 0)], [1.0]),
        lambda: UnionOfBalls([(0, 0), (1, 0)], [1.0, -0.5]),
        lambda: UnionOfBalls([(0, 0), (1, 0)], [1.0, np.nan]),
        lambda: UnionOfBalls([(0, 0), (np.nan, 0)], [1.0, 1.0]),
        lambda: TableClassifier([(0, 0), (0, 0)], [1, -1], default=-1),
        lambda: TableClassifier([(0, 0), (-0.0, 0)], [1, 1]),
    ],
    ids=[
        "ball-nan-radius",
        "sphere-nan-radius",
        "linear-nan-offset",
        "linear-inf-offset",
        "dist-nan-probability",
        "dist-nan-second-probability",
        "union-empty",
        "union-radius-count",
        "union-negative-radius",
        "union-nan-radius",
        "union-nan-center",
        "table-duplicate-entry",
        "table-signed-zero-duplicate",
    ],
)
def test_bad_numeric_input_rejected(make):
    with pytest.raises(ValueError):
        make()


class TestPredict:
    def test_boundary_is_positive(self):
        # the sign rule ties the boundary to +1
        assert LinearClassifier((1, 0), 0.0).predict((0, 0)) == 1

    def test_negative_margin(self):
        assert LinearClassifier((1, 0), -2.0).predict((1, 0)) == -1

    def test_sphere_interior(self):
        assert SphereBoundary((0, 0), 1.0, 1).predict((0.5, 0)) == 1

    def test_sphere_boundary_gets_inside_label(self):
        assert SphereBoundary((0, 0), 1.0, -1).predict((1.0, 0)) == -1

    def test_table_lookup_and_default(self):
        table = TableClassifier([(0.0, 0.0)], [-1], default=1)
        assert table.predict((0, 0)) == -1
        assert table.predict((1, 1)) == 1

    def test_sphere_predict_matches_predict_many_and_loss_kernel(self):
        # the 1-D norm of x - center exceeds the radius by one ulp, the row
        # norm that predict_many and the loss kernel take does not
        h = SphereBoundary((0.35867194917034445, 1.3224574697668332, -0.013914668524093734), 1.3520985269720112)
        x = np.array([1.0418397592128221, 1.4022648267725224, 1.1501656361496921])
        assert h.predict(x) == h.predict_many(x[None])[0] == 1
        assert robust_loss_point(h, FinitePoints([x]), ex(x, 1)) == 0
        # inside the sphere, so alpha beyond half the radius is not regular here
        from robustlab.classifiers import _regular_at

        assert not _regular_at(h, x, 1.0, rng_for(0))


class TestRobustLossPoint:
    def test_ball_clear_of_boundary(self):
        h = LinearClassifier((1, 0), 0.0)
        assert robust_loss_point(h, Ball((2, 0), 1.0), ex((2, 0), 1)) == 0

    def test_ball_crossing_boundary(self):
        h = LinearClassifier((1, 0), 0.0)
        assert robust_loss_point(h, Ball((2, 0), 3.0), ex((2, 0), 1)) == 1

    def test_singleton_agreeing_label(self):
        for h in (
            LinearClassifier((1, 1), -0.5),
            SphereBoundary((0, 0), 2.0),
            TableClassifier([(9.0, 9.0)], [-1], default=1),
        ):
            point = np.array([0.25, 0.25])
            region = FinitePoints([point])
            y = h.predict(point)
            assert robust_loss_point(h, region, ex(point, y)) == 0
            assert robust_loss_point(h, region, ex(point, -y)) == 1

    def test_touching_ball_counts_positive_side(self):
        # max margin over the ball is exactly 0, and zero margin means +1
        h = LinearClassifier((1, 0), 0.0)
        region = Ball((-1.0, 0.0), 1.0)
        assert robust_loss_point(h, region, ex((-1, 0), -1)) == 1
        assert robust_loss_point(h, region, ex((-1, 0), 1)) == 1

    def test_sphere_vs_ball_arithmetic(self):
        h = SphereBoundary((0, 0), 2.0, 1)
        # ball fully inside the sphere: no outside witness
        assert robust_loss_point(h, Ball((0.5, 0), 1.0), ex((0.5, 0), 1)) == 0
        # ball poking out: witness labeled -1 exists
        assert robust_loss_point(h, Ball((1.5, 0), 1.0), ex((1.5, 0), 1)) == 1
        # ball far outside but reaching the sphere: witness labeled +1
        assert robust_loss_point(h, Ball((4.0, 0), 2.0), ex((4, 0), -1)) == 1

    def test_table_on_continuum_region(self):
        # a flipped entry inside the region witnesses the loss exactly
        table = TableClassifier([(0.5, 0.0)], [-1], default=1)
        assert robust_loss_point(table, Ball((0, 0), 1.0), ex((0, 0), 1)) == 1
        assert robust_loss_point(table, Ball((3, 0), 1.0), ex((3, 0), 1)) == 0
        # default disagrees with the label: continuum always witnesses
        assert robust_loss_point(table, Ball((3, 0), 1.0), ex((3, 0), -1)) == 1

    def test_monotone_under_expansion(self):
        rng = rng_for(5, "loss-mono")
        for _ in range(200):
            w = rng.normal(size=2)
            h = LinearClassifier(w / np.linalg.norm(w), rng.uniform(-1, 1))
            center = rng.uniform(-2, 2, size=2)
            base = Ball(center, rng.uniform(0.1, 1.0))
            y = 1 if rng.random() < 0.5 else -1
            e = ex(center, y)
            losses = [
                robust_loss_point(h, base, e),
                robust_loss_point(h, base.expand(0.3), e),
                robust_loss_point(h, base.expand(0.9), e),
            ]
            assert losses == sorted(losses)

    def test_analytic_agrees_with_sampled_search(self):
        # margin-conditioned agreement between the closed form and a
        # 1e5-point uniform search witness hunt
        rng = rng_for(6, "loss-sampled")
        checked = 0
        while checked < 30:
            w = rng.normal(size=2)
            h = LinearClassifier(w / np.linalg.norm(w), rng.uniform(-1, 1))
            center = rng.uniform(-1.5, 1.5, size=2)
            region = Ball(center, rng.uniform(0.2, 1.2))
            y = 1 if rng.random() < 0.5 else -1
            margin_min = h.margin(center) - region.radius
            margin_max = h.margin(center) + region.radius
            if min(abs(margin_min), abs(margin_max)) < 1e-6:
                continue
            e = ex(center, y)
            analytic = robust_loss_point(h, region, e)
            sampled = robust_loss_sampled(h, region, e, 100_000, seed=checked)
            assert analytic == sampled
            checked += 1


class TestLossAggregates:
    def test_sample_average(self):
        h = LinearClassifier((1.0,), 0.0)
        anchors = [np.array([v]) for v in (-3.0, 1.0, 2.0, 3.0)]
        fam = RegionFamily([(a, Ball(a, 0.5)) for a in anchors])
        sample = [ex(a, 1) for a in anchors]
        # only the -3 example is violated
        assert np.mean([robust_loss_point(h, fam.region_for(e.x), e) for e in sample]) == 0.25

    def test_all_correct(self):
        h = LinearClassifier((1.0,), 0.0)
        anchors = [np.array([2.0]), np.array([4.0])]
        fam = RegionFamily([(a, Ball(a, 1.0)) for a in anchors])
        assert np.mean([robust_loss_point(h, fam.region_for(a), ex(a, 1)) for a in anchors]) == 0.0

    def test_distribution_matches_uniform_sample(self):
        h = SphereBoundary((0.0, 0.0), 2.0)
        anchors = [np.array([0.0, 0.0]), np.array([3.0, 0.0]), np.array([0.0, 1.0])]
        labels = [1, -1, 1]
        fam = RegionFamily([(a, Ball(a, 0.4)) for a in anchors])
        examples = [ex(a, y) for a, y in zip(anchors, labels)]
        dist = DiscreteDistribution.uniform(examples)
        assert robust_loss_distribution(h, fam, dist) == pytest.approx(
            np.mean([robust_loss_point(h, fam.region_for(e.x), e) for e in examples])
        )

    def test_missing_region_propagates(self):
        h = LinearClassifier((1.0,), 0.0)
        fam = RegionFamily([(np.array([0.0]), Ball(np.array([0.0]), 0.1))])
        with pytest.raises(KeyError):
            robust_loss_distribution(h, fam, DiscreteDistribution([(ex((5.0,), 1), 1.0)]))


class TestViolationRadius:
    """The loss-flip radius must reproduce direct evaluation at every r."""

    def cases(self):
        rng = rng_for(9, "vr")
        regions = [
            Ball((0.4, -0.2), 0.5),
            FinitePoints([(0.0, 0.0), (1.0, 0.5)]),
            UnionOfBalls([(0, 0), (1.5, 0.2)], [0.3, 0.2]),
            Expanded(FinitePoints([(0.5, 0.5)]), 0.25),
        ]
        hyps = [
            LinearClassifier((1, 0), -0.7),
            LinearClassifier(rng.normal(size=2), 0.3),
            SphereBoundary((0.2, 0.1), 1.1, 1),
            SphereBoundary((0.0, 0.0), 0.8, -1),
            TableClassifier([(0.0, 0.0), (2.0, 2.0)], [-1, 1], default=1),
        ]
        return regions, hyps

    def test_matches_direct_evaluation(self):
        regions, hyps = self.cases()
        r_grid = [0.0, 1e-9, 0.05, 0.11, 0.25, 0.5, 1.0, 2.0, 5.0]
        for region in regions:
            for h in hyps:
                for y in (1, -1):
                    e = ex(np.zeros(2), y)
                    for r in r_grid:
                        grown = region if r == 0 else region.expand(r)
                        direct = direct_loss(h, grown, y)
                        assert _loss_table([h], [region], [e], r)[0, 0] == direct, (type(region), type(h), y, r)
                        assert robust_loss_point(h, grown, e) == direct, (type(region), type(h), y, r)

    def test_flip_exactly_at_radius(self):
        h = LinearClassifier((1.0, 0.0), 0.0)
        region = Ball((2.0, 0.0), 0.5)
        r_star, inclusive = violation_radius(h, region, 1)
        assert r_star == pytest.approx(1.5)
        assert not inclusive  # touching from the positive side stays +1
        r_star, inclusive = violation_radius(h, region, -1)
        # already violated at r = 0: the ball sits on the positive side
        assert r_star == pytest.approx(-2.5)
        assert inclusive

    @pytest.mark.parametrize(
        "h",
        [LinearClassifier((1.0,), 0.0), SphereBoundary((0.0,), 1.0), TableClassifier([(2.0,)], [-1], default=1)],
        ids=["linear", "sphere", "table"],
    )
    def test_hypothesis_of_other_dimension_rejected(self, h):
        # numpy would broadcast a 1-D sphere or table against a disc, and
        # fail inside its matmul for a 1-D halfspace
        region = Ball((0.0, 0.0), 1.0)
        for y in (1, -1):
            with pytest.raises(DimensionMismatch):
                violation_radius(h, region, y)
            with pytest.raises(DimensionMismatch):
                robust_loss_point(h, region, ex((0.0, 0.0), y))

    def test_example_of_other_dimension_rejected(self):
        h = LinearClassifier((1.0, 0.0), 0.0)
        disc = Ball((0.0, 0.0), 1.0)
        with pytest.raises(DimensionMismatch):
            robust_loss_point(h, disc, ex((0.0,), 1))
        with pytest.raises(DimensionMismatch):
            _loss_table([h, h], [disc, disc], [ex((0.0, 0.0), 1), ex((0.0,), 1)])


coord_st = st.floats(-2, 2, allow_subnormal=False)
point_st = st.tuples(coord_st, coord_st)
radius_st = st.one_of(st.just(0.0), st.floats(0.1, 1))
base_region_st = st.one_of(
    st.builds(Ball, point_st, radius_st),
    st.builds(FinitePoints, st.lists(point_st, min_size=1, max_size=4)),
    st.lists(st.tuples(point_st, radius_st), min_size=1, max_size=4).map(
        lambda balls: UnionOfBalls([c for c, _ in balls], [r for _, r in balls])
    ),
)
region_st = st.one_of(base_region_st, st.builds(Expanded, base_region_st, st.floats(0.1, 1)))
label_st = st.sampled_from((1, -1))
table_st = st.lists(st.tuples(point_st, label_st), min_size=1, max_size=4, unique_by=lambda e: e[0]).flatmap(
    lambda entries: st.builds(
        TableClassifier, st.just([p for p, _ in entries]), st.just([l for _, l in entries]), label_st
    )
)
classifier_st = st.one_of(
    st.builds(LinearClassifier, point_st.filter(lambda w: np.hypot(*w) > 0.1), coord_st),
    st.builds(SphereBoundary, point_st, st.floats(0.1, 2), label_st),
    table_st,
)
derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@derandomized
@given(region_st, classifier_st, label_st, st.floats(0, 2))
def test_kernel_matches_direct_loss(region, h, y, r):
    # the two forms round differently at an exact tie (test_flip_exactly_at_radius
    # covers ties); a table on the raw region ties by set membership, not rounding
    r_star, _ = violation_radius(h, region, y)
    assume(abs(r - r_star) > 1e-9 or (r == 0 and isinstance(h, TableClassifier)))
    grown = region if r == 0 else region.expand(r)
    e = ex(np.zeros(2), y)
    assert _loss_table([h], [region], [e], r)[0, 0] == direct_loss(h, grown, y)


@derandomized
@given(region_st, classifier_st, label_st, st.one_of(st.just(0.0), st.floats(0.1, 2)))
def test_sampled_loss_never_exceeds_kernel(region, h, y, r):
    # r = 0 or r >= 0.1 keeps every positive radius >= 0.1, so rejection sampling stays
    # cheap; a zero-measure region other than a finite point set cannot be sampled
    grown = region if r == 0 else region.expand(r)
    assume(isinstance(grown, FinitePoints) or np.any(_region_balls(grown)[1] > 0))
    e = ex(np.zeros(2), y)
    if _loss_table([h], [region], [e], r)[0, 0] == 0:
        assert robust_loss_sampled(h, grown, e, 64, seed=0) == 0


@pytest.mark.parametrize(
    "entry_label, y, offset, expected",
    [(1, -1, 2.07e-50, 1), (-1, 1, 2.07e-50, 0), (-1, 1, 1e-170, 0)],
    ids=["nonentry-point", "entry-flip", "underflowing-distance"],
)
def test_table_loss_near_entry(entry_label, y, offset, expected):
    # (0, offset) is not the entry (0, 0): it gets the default label +1, and
    # at 1e-170 its distance to the entry underflows to 0
    h = TableClassifier([(0.0, 0.0)], [entry_label], default=1)
    region = FinitePoints([(0.0, offset)])
    e = ex((0.0, offset), y)
    assert robust_loss_point(h, region, e) == expected
    assert robust_loss_sampled(h, region, e, 1, seed=0) == expected
    # the same single point as a radius-zero ball, alone or in a union
    assert robust_loss_point(h, Ball((0.0, offset), 0.0), e) == expected
    assert robust_loss_point(h, UnionOfBalls([(0.0, offset)], [0.0]), e) == expected


def test_table_loss_on_expansion_matches_collapsed_form():
    # the flipped entry lies on the expanded sphere, where the base's distance
    # (0.7507357794858461) rounds past gamma; an expansion is its collapsed balls
    entry = (1.8658299643114673,)
    h = TableClassifier([entry], [-1], default=1)
    base, gamma = Ball((0.8296289560400428,), 0.28546522878557845), 0.750735779485846
    e = ex((0.8296289560400428,), 1)
    for region in (Expanded(base, gamma), base.expand(gamma)):
        assert region.contains(entry)
        assert robust_loss_point(h, region, e) == 1


near_entry_st = st.tuples(
    st.integers(0, 3), st.integers(0, 1), st.sampled_from((0.0, 1e-13, -1e-13, 2.07e-50, 1e-170, -1e-170))
)


@derandomized
@given(table_st, st.lists(near_entry_st, min_size=1, max_size=4), label_st)
def test_table_kernel_matches_predict_near_entries(h, picks, y):
    # region points are table entries moved by tiny offsets along one axis;
    # on a finite point set the sampled loss enumerates predict exactly
    pts = []
    for entry, axis, offset in picks:
        p = h.points[entry % len(h.points)].copy()
        p[axis] += offset
        pts.append(p)
    region = FinitePoints(pts)
    e = ex(pts[0], y)
    assert robust_loss_point(h, region, e) == robust_loss_sampled(h, region, e, 1, seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Ball((0, 0), 1.0),
        lambda: FinitePoints([(0, 0), (1, 0)]),
        lambda: UnionOfBalls([(0, 0), (1, 0)], [1.0, 0.5]),
        lambda: Expanded(Ball((0, 0), 1.0), 0.5),
        lambda: ex((0, 0), 1),
        lambda: LinearClassifier((1, 0), 0.0),
        lambda: SphereBoundary((0, 0), 1.0),
        lambda: TableClassifier([(0.0, 0.0)], [-1]),
        # frozen records with array fields
        lambda: SphereCover(1.0, 0.5, [(1.0, 0.0)]),
        lambda: build_shatter_family(1.0, 2, 3, seed=5),
        lambda: build_failure_instance(1, 1.0, 2, seed=5),
        lambda: build_oracle_game(50.0, 1.0, 2),
        lambda: run_query_game(build_oracle_game(50.0, 1.0, 2), [1, 2], trials=10, seed=0),
    ],
    ids=[
        "ball", "points", "union", "expanded", "example", "linear", "sphere", "table",
        "sphere-cover", "shatter-family", "failure-instance", "oracle-game", "query-sweep",
    ],
)
def test_identity_equality_and_hash(make):
    a, b = make(), make()
    assert a == a and (a == b) is False
    assert hash(a) == hash(a)
    assert [b, a].index(a) == 1


class TestRegularity:
    def test_halfspace_passes_any_alpha(self):
        cert = regularity_check(
            LinearClassifier((1, 0), 0.0), 10.0, 64, Ball((0, 0), 3.0), seed=0
        )
        assert cert.passed

    def test_sphere_reach_rule_passes(self):
        cert = regularity_check(
            SphereBoundary((0, 0), 2.0), 1.0, 128, Ball((0, 0), 3.0), seed=1
        )
        assert cert.passed

    def test_sphere_alpha_beyond_half_radius_fails_inside(self):
        # conservative displacement rule: inside probes fail for alpha > R/2
        h = SphereBoundary((0, 0), 2.0)
        cert = regularity_check(h, 1.5, 0, Ball((1.6, 0.0), 1e-6), seed=2)
        assert cert.probes == 0  # no random probes requested, domain only
        probe = np.array([1.6, 0.0])
        from robustlab.classifiers import _regular_at

        assert not _regular_at(h, probe, 1.5, rng_for(0))
        assert _regular_at(h, np.array([2.5, 0.0]), 1.5, rng_for(0))

    def test_sphere_failures_recorded(self):
        h = SphereBoundary((0, 0), 2.0)
        cert = regularity_check(h, 1.5, 256, Ball((0, 0), 3.0), seed=3)
        assert not cert.passed
        assert all(np.linalg.norm(f) <= 2.0 for f in cert.failures)

    def test_table_flipped_entry_fails(self):
        table = TableClassifier([(0.5, 0.5)], [-1], default=1)
        cert = regularity_check(table, 0.3, 16, Ball((0, 0), 2.0), seed=4)
        assert not cert.passed
        assert any(np.allclose(f, (0.5, 0.5)) for f in cert.failures)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            regularity_check(LinearClassifier((1, 0), 0.0), np.nan, 10, Ball((0, 0), 1.0), seed=0)

    def test_all_default_table_passes(self):
        table = TableClassifier([(0.5, 0.5)], [1], default=1)
        cert = regularity_check(table, 0.3, 16, Ball((0, 0), 2.0), seed=5)
        assert cert.passed


class TestDiscreteDistribution:
    def test_probability_validation(self):
        e = ex((0.0,), 1)
        with pytest.raises(ValueError):
            DiscreteDistribution([(e, 0.5), (e, 0.6)])
        with pytest.raises(ValueError):
            DiscreteDistribution([(e, 1.0), (e, 0.0)])

    def test_sampling_deterministic(self):
        examples = [ex((float(i),), 1) for i in range(4)]
        dist = DiscreteDistribution.uniform(examples)
        assert np.array_equal(dist.sample_indices(50, 3), dist.sample_indices(50, 3))

    def test_net_respects_bound(self):
        for h in linear_net_2d(1.0, 17, 9):
            assert h.offset() <= 1.0 + 1e-9
