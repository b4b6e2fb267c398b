"""Hypotheses, robust losses in all three forms, and regularity probes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from robustlab.geometry import Ball, DimensionMismatch, SphereCover
from robustlab.classifiers import (
    DiscreteDistribution,
    LabeledExample,
    LinearClassifier,
    RegularityCertificate,
    SphereBoundary,
    TableClassifier,
    UnsupportedPairError,
    _loss_table,
    _violated,
    _violation_table,
    linear_net_2d,
    regularity_check,
    robust_loss_distribution,
    robust_loss_point,
    robust_loss_sampled,
    violation_radius,
)
from robustlab.oracle_game import build_oracle_game, run_query_game
from robustlab.regions import Expanded, FinitePoints, RegionFamily, UnionOfBalls, _region_balls, point_key, uniform_sample
from robustlab.seeding import as_generator, rng_for, uniform_sphere
from robustlab.shatter_game import build_failure_instance, build_shatter_family
from test_geometry import layouts, spread


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
    flips = h.points[h.labels != y]
    if len(flips) and np.any(region.contains_many(flips)):
        return 1
    if h.default == y:
        return 0
    # positive measure holds non-entry points; a finite set may too
    entries = {point_key(p) for p in h.points}
    return int(np.any(radii > 0) or any(point_key(c) not in entries for c in centers))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Ball((0, 0), np.nan),
        lambda: SphereBoundary((0, 0), np.nan),
        lambda: Ball((0, 0), np.inf),
        lambda: SphereBoundary((0, 0), np.inf),
        lambda: Ball((0, 0), 1.0).expand(np.inf),
        lambda: Ball((0, 0), 1e308).expand(1e308),
        lambda: Expanded(Ball((0, 0), 1.0), np.inf),
        lambda: Expanded(Expanded(Ball((0, 0), 1.0), 1e308), 1e308),
        lambda: FinitePoints([(0, 0)]).expand(np.nan),
        lambda: UnionOfBalls([(0, 0)], [1.0]).expand(np.inf),
        lambda: SphereBoundary((0, 0), True),
        lambda: Ball((0, 0), 1.0).expand("0.5"),
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
        lambda: TableClassifier([(0, 0), (np.nan, 0)], [1, -1]),
        lambda: TableClassifier([(0, 0), (0, np.inf)], [1, -1]),
    ],
    ids=[
        "ball-nan-radius",
        "sphere-nan-radius",
        "ball-inf-radius",
        "sphere-inf-radius",
        "ball-inf-expansion",
        "ball-expansion-overflow",
        "expanded-inf-gamma",
        "nested-expansion-overflow",
        "points-nan-expansion",
        "union-inf-expansion",
        "sphere-bool-radius",
        "ball-string-expansion",
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
        "table-nan-entry",
        "table-inf-entry",
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

    @pytest.mark.parametrize(
        "h",
        [LinearClassifier((1.0, 0.0), 0.0), SphereBoundary((0.0, 0.0), 1.0), TableClassifier([(0.0, 0.0)], [-1])],
        ids=["linear", "sphere", "table"],
    )
    def test_point_of_other_dimension_rejected(self, h):
        # numpy would broadcast a 1-D batch against a disc, a 1-D key never
        # matches a table entry, and a halfspace failed inside its matmul
        with pytest.raises(DimensionMismatch):
            h.predict((0.0,))
        with pytest.raises(DimensionMismatch):
            h.predict_many(np.array([[0.5]]))
        with pytest.raises(ValueError, match="batch"):
            h.predict_many(np.array([0.5, 0.5]))
        assert h.predict_many(np.array([[0.5, 0.0]])).tolist() == [h.predict((0.5, 0.0))]

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_halfspace_predict_matches_predict_many_and_loss_table_on_boundary(self, d):
        # points solved onto the boundary have margins of a few ulp either
        # side, where a matrix product and a one-point dot product can disagree
        rng = rng_for(d, "on-boundary")
        for _ in range(40):
            h = LinearClassifier(rng.normal(size=d), rng.normal())
            pts = rng.normal(size=(16, d))
            pts[:, -1] = -(pts[:, :-1] @ h.w[:-1] + h.b) / h.w[-1]
            batch = h.predict_many(pts)
            assert batch.tolist() == [h.predict(p) for p in pts]
            for y in (1, -1):
                assert robust_loss_point(h, FinitePoints(pts), ex(pts[0], y)) == int(np.any(batch != y))
                assert _loss_table([h], [FinitePoints([p]) for p in pts], [ex(p, y) for p in pts])[0].tolist() == [
                    int(label != y) for label in batch
                ]

    def test_sphere_predict_matches_predict_many_and_loss_kernel(self):
        # the 1-D norm of x - center exceeds the radius by one ulp, the row
        # norm that predict_many and the loss kernel take does not
        h = SphereBoundary((0.35867194917034445, 1.3224574697668332, -0.013914668524093734), 1.3520985269720112)
        x = np.array([1.0418397592128221, 1.4022648267725224, 1.1501656361496921])
        assert h.predict(x) == h.predict_many(x[None])[0] == 1
        assert robust_loss_point(h, FinitePoints([x]), ex(x, 1)) == 0
        # inside the sphere, so alpha beyond half the radius is not regular
        # here: the certificate's rule, applied at a point no probe can hit
        assert 1.0 > h.radius / 2
        assert h.predict_many(x[None]) == h.inside_label


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


def scalar_violation_radius(h, region, y) -> tuple[float, bool]:
    """The halfspace and sphere flip radius as a matrix-vector product per region.

    An independent reference for the batched violation table, which adds
    each margin's products on its own row instead of calling ``@``.
    """
    centers, radii = _region_balls(region)
    if isinstance(h, LinearClassifier):
        margins = (centers @ h.w + h.b) / float(np.linalg.norm(h.w))
        if y == 1:
            return float(np.min(margins - radii)), False
        return float(np.min(-margins - radii)), True
    dist = np.linalg.norm(centers - h.center, axis=1)
    if y == h.inside_label:
        return float(np.min(h.radius - dist - radii)), False
    return float(np.min(dist - radii - h.radius)), True


def table_cases(d):
    """Hypotheses of every type and columns of every region variant, with both labels, in R^d."""
    rng = rng_for(d, "batched-table")
    regions = [
        Ball(rng.normal(size=d), 0.4),
        Ball(rng.normal(size=d), 0.0),
        FinitePoints(rng.normal(size=(3, d))),
        UnionOfBalls(rng.normal(size=(3, d)), [0.3, 0.0, 0.6]),
        Expanded(FinitePoints(rng.normal(size=(2, d))), 0.25),
        Expanded(Ball(rng.normal(size=d), 0.2), 0.1),
    ]
    columns = [(region, ex(_region_balls(region)[0][0], y)) for region in regions for y in (1, -1)]
    hyps = [
        LinearClassifier(rng.normal(size=d), 0.3),
        LinearClassifier(rng.normal(size=d), -1.1),
        SphereBoundary(rng.normal(size=d), 1.2, 1),
        SphereBoundary(rng.normal(size=d), 0.9, -1),
        TableClassifier(np.vstack([regions[2].points[:1], rng.normal(size=(2, d))]), [-1, 1, -1], default=1),
        TableClassifier(rng.normal(size=(2, d)), [1, -1], default=-1),
    ]
    return hyps, [region for region, _ in columns], [e for _, e in columns]


def bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestBatchedViolationTable:
    """Each cell of the batched table is its 1x1 case, whatever the other columns are."""

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_cells_equal_their_one_by_one_case(self, d):
        hyps, regions, examples = table_cases(d)
        radii, inclusive = _violation_table(hyps, regions, examples)
        assert radii.shape == inclusive.shape == (len(hyps), len(examples))
        for j, (region, e) in enumerate(zip(regions, examples)):
            column = _violation_table(hyps, [region], [e])
            assert [bits(v) for v in column[0][:, 0]] == [bits(v) for v in radii[:, j]]
            assert np.array_equal(column[1][:, 0], inclusive[:, j])
            for i, h in enumerate(hyps):
                r_star, inc = violation_radius(h, region, e.y)
                assert bits(r_star) == bits(radii[i, j]) and inc == inclusive[i, j], (i, j)

    def test_zero_columns(self):
        hyps, _, _ = table_cases(2)
        radii, inclusive = _violation_table(hyps, [], [])
        assert radii.shape == inclusive.shape == (len(hyps), 0)
        assert inclusive.dtype == bool

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_matches_matrix_vector_reference(self, d):
        hyps, regions, examples = table_cases(d)
        hyps = [h for h in hyps if not isinstance(h, TableClassifier)]
        radii, inclusive = _violation_table(hyps, regions, examples)
        reference = [[scalar_violation_radius(h, region, e.y) for region, e in zip(regions, examples)] for h in hyps]
        ref_radii = np.array([[r for r, _ in row] for row in reference])
        assert np.array_equal(inclusive, [[inc for _, inc in row] for row in reference])
        # the two sums of products may round differently, by a few units in the last place
        assert np.all(np.abs(radii - ref_radii) <= 4 * np.spacing(np.maximum(np.abs(radii), np.abs(ref_radii))))
        for r in rng_for(d, "radii").uniform(0, 3, size=50):
            assert np.array_equal(_violated(radii, inclusive, r), _violated(ref_radii, inclusive, r))

    @pytest.mark.parametrize("bad", [-1e-300, np.nan])
    def test_array_of_radii_with_one_bad_entry_rejected(self, bad):
        radii, inclusive = _violation_table(*table_cases(2))
        with pytest.raises(ValueError, match="nonnegative"):
            _violated(radii, inclusive, np.array([0.0, 0.5, bad, 1.0]))

    def test_columns_of_other_dimensions_rejected(self):
        h = LinearClassifier((1.0, 0.0), 0.0)
        with pytest.raises(DimensionMismatch):
            _violation_table([h], [Ball((0.0, 0.0), 1.0), Ball((0.0,), 1.0)], [ex((0.0, 0.0), 1), ex((0.0,), 1)])

    def test_label_outside_plus_minus_one_rejected(self):
        for h in table_cases(2)[0]:
            with pytest.raises(ValueError, match="label"):
                violation_radius(h, Ball((0.0, 0.0), 1.0), 0)


# True == 1 and np.True_ == 1, so a membership test alone took them for +1
NOT_LABELS = [True, False, np.True_, 1.0, np.float64(-1.0), 0, 2]


@pytest.mark.parametrize("y", NOT_LABELS)
def test_label_that_is_not_the_integer_one_or_minus_one_rejected(y):
    with pytest.raises(ValueError, match="must be \\+1 or -1"):
        LabeledExample((0.0, 0.0), y)
    with pytest.raises(ValueError, match="inside_label"):
        SphereBoundary((0.0, 0.0), 1.0, inside_label=y)
    with pytest.raises(ValueError, match="default"):
        TableClassifier([(0.0, 0.0)], [-1], default=y)
    with pytest.raises(ValueError, match="labels must be integers"):
        TableClassifier([(0.0, 0.0)], [y])
    for h in table_cases(2)[0]:
        with pytest.raises(ValueError, match="label"):
            violation_radius(h, Ball((0.0, 0.0), 1.0), y)


def test_bool_label_array_rejected_and_numpy_integer_labels_accepted():
    with pytest.raises(ValueError, match="labels must be integers"):
        TableClassifier([(0.0, 0.0), (1.0, 0.0)], np.array([True, False]))
    h = TableClassifier([(0.0, 0.0)], np.array([-1], dtype=np.int8), default=np.int64(1))
    assert h.predict_many(np.array([[0.0, 0.0], [1.0, 0.0]])).tolist() == [-1, 1]
    assert h.predict_many(np.zeros((1, 2))).dtype.kind == "i"
    assert LabeledExample((0.0,), np.int32(-1)).y == -1
    assert SphereBoundary((0.0,), 1.0, inside_label=np.int64(-1)).predict((0.0,)) == -1
    assert violation_radius(h, Ball((0.0, 0.0), 1.0), np.int64(-1)) == violation_radius(h, Ball((0.0, 0.0), 1.0), -1)


@pytest.mark.parametrize("labels", [[1, True], [np.True_, -1], [-1, np.False_]], ids=["bool", "numpy-bool", "numpy-false"])
def test_bool_inside_a_mixed_label_list_rejected(labels):
    # np.asarray gives these an integer dtype, so the dtype alone let them through
    with pytest.raises(ValueError, match="labels must be integers"):
        TableClassifier([(0.0, 0.0), (1.0, 0.0)], labels)


def test_python_and_numpy_integer_labels_mixed_accepted():
    h = TableClassifier([(0.0, 0.0), (1.0, 0.0)], [np.int64(1), -1])
    assert h.labels.tolist() == [1.0, -1.0]
    assert TableClassifier([(0.0, 0.0), (1.0, 0.0)], np.array([-1, 1], dtype=np.int16)).labels.tolist() == [-1.0, 1.0]
    assert TableClassifier([(0.0, 0.0)], [np.int8(-1)]).labels.tolist() == [-1.0]


def per_cell_table_radius(h, region, y) -> tuple[float, bool]:
    """A lookup table's flip radius on one region, cell by cell: the reference for its batched row.

    The nearest entry of the other label measured by ``distance_to_many``,
    inclusive when it is positive or ``contains_many`` holds such an entry;
    a default that flips ``y`` gives radius 0, inclusive when the region
    holds a point that is no entry (by ``point_key``).
    """
    candidates = []
    flips = h.points[h.labels != y]
    if len(flips):
        nearest = float(np.min(region.distance_to_many(flips)))
        candidates.append((nearest, nearest > 0 or bool(np.any(region.contains_many(flips)))))
    if h.default != y:
        centers, radii = _region_balls(region)
        entries = {point_key(p) for p in h.points}
        candidates.append((0.0, bool(np.any(radii > 0)) or any(point_key(c) not in entries for c in centers)))
    if not candidates:
        return np.inf, False
    best = min(v for v, _ in candidates)
    return best, any(inc for v, inc in candidates if v == best)


def lookup_table_cases(d):
    """Tables and columns whose points sit on, beside and off the table entries, in R^d."""
    rng = rng_for(d, "lookup-table-rows")
    entries = rng.normal(size=(4, d))
    entries[0, 0] = -0.0
    signed = entries[0].copy()
    signed[0] = 0.0  # the same point as entries[0]
    beside = entries[1].copy()
    beside[-1] = np.nextafter(beside[-1], np.inf)
    underflow = entries[0].copy()
    underflow[0] = 1e-170  # its distance to entries[0] rounds to 0
    regions = [
        Ball(entries[2], 0.3),
        Ball(rng.normal(size=d), 0.5),
        Ball(entries[3], 0.0),
        Ball(underflow, 0.0),
        Ball(rng.normal(size=d), 0.0),
        FinitePoints(np.vstack([signed, beside, rng.normal(size=d)])),
        FinitePoints(entries[1:3]),
        FinitePoints(np.vstack([underflow, beside])),
        UnionOfBalls(np.vstack([entries[1], underflow, rng.normal(size=(2, d))]), [0.0, 0.0, 0.2, 0.7]),
        Expanded(FinitePoints(entries[:2]), 0.25),
        Expanded(Ball(rng.normal(size=d), 0.2), 0.1),
    ]
    tables = [
        TableClassifier(entries, [-1, 1, -1, 1], default=1),
        TableClassifier(entries, [1, -1, -1, 1], default=-1),
        # every entry labeled +1: nothing flips a +1 column
        TableClassifier(entries[:3], [1, 1, 1], default=1),
        TableClassifier(entries[:3], [1, 1, 1], default=-1),
        TableClassifier(entries[1:2], [-1], default=1),
        TableClassifier(np.empty((0, d)), [], default=-1),
    ]
    columns = [(region, y) for region in regions for y in (1, -1)]
    return tables, [region for region, _ in columns], [ex(_region_balls(r)[0][0], y) for r, y in columns]


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_table_rows_equal_the_per_cell_reference(d):
    tables, regions, examples = lookup_table_cases(d)
    radii, inclusive = _violation_table(tables, regions, examples)
    for i, h in enumerate(tables):
        for j, (region, e) in enumerate(zip(regions, examples)):
            r_star, inc = per_cell_table_radius(h, region, e.y)
            assert radii[i, j] == r_star and bits(radii[i, j]) == bits(r_star), (i, j)
            assert inclusive[i, j] == inc, (i, j)
            assert violation_radius(h, region, e.y) == (r_star, inc), (i, j)
    # (radius is 0, radius is inf, inclusive): every kind of cell turns up
    kinds = {(r == 0, np.isinf(r), inc) for r, inc in zip(radii.ravel().tolist(), inclusive.ravel().tolist())}
    assert kinds >= {(True, False, True), (True, False, False), (False, False, True), (False, True, False)}


def test_table_flip_beyond_the_float_range_stays_inclusive():
    # the distance to the flipping entry overflows to inf, yet a flipping entry exists
    h = TableClassifier([(1e308, 0.0)], [-1], default=1)
    region = Ball((-1e308, 0.0), 0.0)
    with np.errstate(over="ignore"):
        assert violation_radius(h, region, 1) == per_cell_table_radius(h, region, 1) == (np.inf, True)
        assert violation_radius(h, region, -1) == per_cell_table_radius(h, region, -1) == (0.0, True)


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_table_predict_many_matches_dict_lookup(d):
    rng = rng_for(d, "table-predict")
    entries = rng.normal(size=(6, d))
    entries[0, 0] = -0.0
    h = TableClassifier(entries, rng.choice([-1, 1], size=6), default=-1)
    signed, beside = entries.copy(), entries.copy()
    signed[0, 0] = 0.0
    beside[:, -1] = np.nextafter(beside[:, -1], np.inf)
    queries = np.vstack([entries, signed, beside, rng.normal(size=(6, d))])
    lookup = {point_key(p): int(label) for p, label in zip(h.points, h.labels)}
    expected = [lookup.get(point_key(q), h.default) for q in queries]
    assert h.predict_many(queries).tolist() == expected
    assert [h.predict(q) for q in queries] == expected
    # and within a large batch
    assert h.predict_many(np.tile(queries, (1000, 1))).tolist() == expected * 1000


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
    # cheap; a zero-measure region is probed at its defining points
    grown = region if r == 0 else region.expand(r)
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


@pytest.mark.parametrize(
    "region",
    [Ball((1.0, 0.0), 0.0), UnionOfBalls([(1.0, 0.0), (3.0, 0.0)], [0.0, 0.0]), FinitePoints([(1.0, 0.0), (3.0, 0.0)])],
    ids=["zero-ball", "zero-union", "points"],
)
def test_sampled_loss_probes_zero_measure_regions_at_their_points(region):
    # no uniform draw exists on a zero-measure region; its points are enumerated exactly
    h = LinearClassifier((1.0, 0.0), -2.0)  # labels (1, 0) -1 and (3, 0) +1
    for y in (1, -1):
        e = ex((1.0, 0.0), y)
        assert robust_loss_sampled(h, region, e, 10, seed=0) == robust_loss_point(h, region, e)
    assert robust_loss_sampled(h, region, ex((1.0, 0.0), 1), 10, seed=0) == 1


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
        assert cert.probes == 0 and cert.passed  # no random probes requested, domain only
        inside = regularity_check(h, 1.5, 8, Ball((1.6, 0.0), 1e-6), seed=2)
        assert inside.probes == len(inside.failures) == 8
        outside = regularity_check(h, 1.5, 8, Ball((2.5, 0.0), 1e-6), seed=2)
        assert outside.probes == 8 and outside.passed
        # the rule at the two points themselves
        assert h.predict_many(np.array([[1.6, 0.0], [2.5, 0.0]])).tolist() == [h.inside_label, -h.inside_label]

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

    @pytest.mark.parametrize("probes", [-5, 10.5, np.float64(8.0), True])
    def test_bad_probe_count_rejected(self, probes):
        # 64 probes find failures on this sphere, so -5 must not certify it
        with pytest.raises(ValueError, match="probes must be a nonnegative integer"):
            regularity_check(SphereBoundary((0, 0), 1.0), 0.9, probes, Ball((0, 0), 3.0), seed=0)

    def test_numpy_integer_probe_count_accepted(self):
        cert = regularity_check(SphereBoundary((0, 0), 1.0), 0.9, np.int64(64), Ball((0, 0), 3.0), seed=0)
        assert cert.probes == 64 and not cert.passed

    def test_all_default_table_passes(self):
        table = TableClassifier([(0.5, 0.5)], [1], default=1)
        cert = regularity_check(table, 0.3, 16, Ball((0, 0), 2.0), seed=5)
        assert cert.passed

    @pytest.mark.parametrize(
        "h",
        [
            LinearClassifier((1, 0, 0), 0.0),
            SphereBoundary((0, 0, 0), 2.0),  # thick: alpha 1.0 <= radius / 2
            SphereBoundary((0, 0, 0), 1.5),  # thin: alpha 1.0 > radius / 2
            TableClassifier([(0.5, 0.5, 0.5)], [-1]),
        ],
        ids=["linear", "thick-sphere", "thin-sphere", "table"],
    )
    @pytest.mark.parametrize("probes", [0, 64])
    def test_domain_of_other_dimension_rejected(self, h, probes):
        with pytest.raises(DimensionMismatch):
            regularity_check(h, 1.0, probes, Ball((0, 0), 3.0), seed=0)

    @pytest.mark.parametrize("probes", [0, 4])
    def test_unsupported_hypothesis_rejected_before_drawing(self, probes):
        rng = rng_for(0)
        state = rng.bit_generator.state
        with pytest.raises(UnsupportedPairError):
            regularity_check("not a hypothesis", 1.0, probes, Ball((0, 0), 3.0), rng)
        assert same_state(rng.bit_generator.state, state)

    def test_exact_rules_draw_nothing(self):
        domain = Ball((0, 0), 3.0)
        for h, alpha in [(LinearClassifier((1, 0), 0.0), 10.0), (SphereBoundary((0, 0), 2.0), 1.0)]:
            rng = rng_for(4)
            state = rng.bit_generator.state
            cert = regularity_check(h, alpha, np.int64(64), domain, rng)
            assert same_state(rng.bit_generator.state, state)
            assert cert == RegularityCertificate(alpha, 64, (), domain) and type(cert.probes) is int
        rng = rng_for(4)
        state = rng.bit_generator.state
        regularity_check(SphereBoundary((0, 0), 2.0), np.nextafter(1.0, 2.0), 64, domain, rng)
        assert not same_state(rng.bit_generator.state, state)


def per_probe_certificate(h, alpha, probes, domain, seed):
    """``(probes, failures, passed)`` by the per-probe rule that decided each probe on its own.

    The reference for halfspace and sphere certificates: every probe is
    drawn from the seed's stream and judged alone, by ``predict``.
    """
    rng = as_generator(seed)
    pts = uniform_sample(domain, probes, rng) if probes > 0 else np.empty((0, domain.dimension))

    def regular(p):
        if isinstance(h, LinearClassifier):
            return True
        return alpha <= h.radius / 2.0 or h.predict(p) != h.inside_label

    failures = [p for p in pts if not regular(p)]
    return len(pts), tuple(map(tuple, failures)), not failures


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("probes", [0, 64])
def test_certificate_matches_per_probe_rule(d, probes):
    rng = rng_for(d, "certificate-cases")
    domain = Ball(rng.uniform(-0.5, 0.5, d), 2.0)
    cases = [(LinearClassifier(rng.normal(size=d), float(rng.normal())), alpha) for alpha in (0.1, 5.0)]
    for inside_label in (1, -1):
        h = SphereBoundary(rng.uniform(-0.5, 0.5, d), float(rng.uniform(1.0, 2.0)), inside_label)
        half = h.radius / 2.0
        cases += [(h, alpha) for alpha in (0.5 * half, half, np.nextafter(half, np.inf), 1.5 * half)]
    for seed, (h, alpha) in enumerate(cases):
        cert = regularity_check(h, alpha, probes, domain, seed)
        want = per_probe_certificate(h, alpha, probes, domain, seed)
        assert (cert.probes, cert.failures, cert.passed) == want
        # a thin sphere with probes to draw is the only case that can fail
        thin = isinstance(h, SphereBoundary) and alpha > h.radius / 2.0
        assert cert.passed or (thin and probes)
    assert any(not regularity_check(h, alpha, 64, domain, seed).passed for seed, (h, alpha) in enumerate(cases))


class TestColumnMajorKernels:
    """Margins and sphere distances give the bits of their row-major forms, on both sides of the 8-dim split."""

    @pytest.mark.parametrize("d", range(1, 11))
    def test_margins_match_row_major_sum(self, d):
        rng = rng_for(d, "column-margins")
        pts, w = spread(rng, (500, d)), spread(rng, (1, d))[0]
        h = LinearClassifier(w, float(rng.normal()))
        want = np.add.reduce(pts * w, axis=-1) + h.b
        for layout in layouts(pts):
            assert h._margins(layout).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(1, 11))
    def test_sphere_row_matches_row_major_norm(self, d):
        rng = rng_for(d, "column-sphere-row")
        centers, ball_radii = spread(rng, (60, d)), rng.uniform(0, 2, 60)
        h = SphereBoundary(rng.normal(size=d), float(rng.uniform(1, 3)), inside_label=-1)
        dist = np.linalg.norm(centers - h.center, axis=1)
        for y in (1, -1):
            want = h.radius - dist - ball_radii if y == h.inside_label else dist - ball_radii - h.radius
            # one column per ball shows every ball's value; one region per layout, as it is stored, its minimum
            columns = [UnionOfBalls(c[None, :], [r]) for c, r in zip(centers, ball_radii)]
            radii, _ = _violation_table([h], columns, [ex(c, y) for c in centers])
            assert radii[0].tobytes() == want.tobytes()
            for layout in layouts(centers)[:2]:
                radii, _ = _violation_table([h], [UnionOfBalls(layout, ball_radii)], [ex(centers[0], y)])
                assert radii[0, 0].tobytes() == want.min().tobytes()

    @pytest.mark.parametrize("d", range(1, 11))
    def test_sphere_predict_many_matches_row_major_norm(self, d):
        rng = rng_for(d, "column-sphere-predict")
        pts, center = spread(rng, (60, d)), rng.normal(size=d)
        dist = np.linalg.norm(pts - center, axis=1)
        for layout in layouts(pts):
            for i in range(len(pts)):
                # a sphere through pts[i] holds it, and one a unit in the last place smaller does not
                for radius in (dist[i], np.nextafter(dist[i], 0.0)):
                    got = SphereBoundary(center, radius).predict_many(layout)
                    assert np.array_equal(got, np.where(dist <= radius, 1, -1)), (i, radius)


def per_probe_table_certificate(h, alpha, probes, domain, rng):
    """``(probes, failures, passed)`` of a lookup table, each probe labelled by its own ``predict`` call."""
    pts = uniform_sample(domain, probes, rng) if probes > 0 else np.empty((0, domain.dimension))
    pts = np.vstack([pts, h.points[[domain.contains(p) for p in h.points]]])

    def regular(p):
        y0 = h.predict(p)
        if h.default != y0:
            return False
        flips = h.points[h.labels != y0]
        if len(flips) == 0:
            return True
        d = p.size
        dirs = np.vstack([np.zeros((1, d)), np.eye(d), -np.eye(d), uniform_sphere(2 * d, d, 1.0, rng)])
        return any(not np.any(np.linalg.norm(flips - (p + alpha * (1.0 - 1e-9) * u), axis=1) <= alpha) for u in dirs)

    failures = [p for p in pts if not regular(p)]
    return len(pts), tuple(map(tuple, failures)), not failures


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("probes", [0, 64])
def test_table_certificate_matches_per_probe_labels(d, probes):
    rng = rng_for(d, "table-certificate-cases")
    domain = Ball(np.zeros(d), 1.5)
    entries = rng.uniform(-1.2, 1.2, (40, d))
    tables = [
        TableClassifier(entries, rng.choice([-1, 1], 40), default=1),
        TableClassifier(entries, np.where(rng.random(40) < 0.1, 1, -1), default=-1),
        TableClassifier(entries[:5], [1] * 5, default=1),
    ]
    outcomes = set()
    for k, h in enumerate(tables):
        for alpha in (0.05, 0.3):
            got_rng, want_rng = rng_for(k, "table-certificate"), rng_for(k, "table-certificate")
            cert = regularity_check(h, alpha, probes, domain, got_rng)
            want = per_probe_table_certificate(h, alpha, probes, domain, want_rng)
            assert (cert.probes, cert.failures, cert.passed) == want
            assert same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)
            outcomes.add(cert.passed)
    assert outcomes == {True, False}



@pytest.mark.parametrize(
    "points, labels, domain",
    [
        ([(0.5, 0.5)], [-1], Ball((0.0, 0.0), 2.0)),  # every probe is a flipped entry
        ([(0.5, 0.5), (-0.5, 0.0)], [-1, -1], Ball((0.0, 0.0), 2.0)),
        ([(5.0, 5.0), (6.0, 5.0)], [-1, 1], Ball((0.0, 0.0), 2.0)),  # no entry in the domain: no probe
    ],
)
def test_table_certificate_with_no_random_probes(points, labels, domain):
    h = TableClassifier(points, labels, default=1)
    for alpha in (0.05, 0.3):
        got_rng, want_rng = rng_for(len(points), "table-no-probes"), rng_for(len(points), "table-no-probes")
        cert = regularity_check(h, alpha, 0, domain, got_rng)
        assert (cert.probes, cert.failures, cert.passed) == per_probe_table_certificate(h, alpha, 0, domain, want_rng)
        assert same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)


def test_table_certificate_draws_across_probe_blocks():
    # at d = 10 one block holds 2**16 // (2 * d * d) = 327 probes, so 700 probes take three blocks
    d, n = 10, 200
    rng = rng_for(d, "table-certificate-blocks")
    h = TableClassifier(rng.uniform(-0.4, 0.4, (n, d)), rng.choice([-1, 1], n), default=1)
    domain = Ball(np.zeros(d), 0.8)
    got_rng, want_rng = rng_for(0, "table-certificate-blocks"), rng_for(0, "table-certificate-blocks")
    cert = regularity_check(h, 0.3, 700, domain, got_rng)
    want = per_probe_table_certificate(h, 0.3, 700, domain, want_rng)
    assert (cert.probes, cert.failures, cert.passed) == want
    assert same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)
    assert 0 < len(cert.failures) < cert.probes

def same_state(a: dict, b: dict) -> bool:
    """Whether two bit-generator states are equal, array entries (Philox's key and counter) included."""
    return a.keys() == b.keys() and all(
        same_state(a[k], b[k]) if isinstance(a[k], dict) else np.array_equal(a[k], b[k]) for k in a
    )


class TestDiscreteDistribution:
    def test_probability_validation(self):
        e = ex((0.0,), 1)
        with pytest.raises(ValueError):
            DiscreteDistribution([(e, 0.5), (e, 0.6)])
        with pytest.raises(ValueError):
            DiscreteDistribution([(e, 1.0), (e, 0.0)])

    @pytest.mark.parametrize("n", [0, 1, 10, 30, 100, 300])
    def test_sample_indices_match_numpy_choice(self, n):
        # the same indices and the same generator state afterwards, for
        # the Philox streams rng_for derives and numpy's default PCG64
        for seed in range(300):
            size = 1 + seed % 12
            probs = rng_for(seed, "probs").dirichlet(np.ones(size))
            probs /= probs.sum()
            dist = DiscreteDistribution([(ex((float(i),), 1), p) for i, p in enumerate(probs)])
            for make in (lambda: rng_for(seed, "draw"), lambda: np.random.default_rng(seed)):
                ours, theirs = make(), make()
                expected = theirs.choice(size, size=n, p=dist.probabilities)
                got = dist.sample_indices(n, ours)
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
                assert same_state(ours.bit_generator.state, theirs.bit_generator.state)

    def test_probabilities_read_only(self):
        dist = DiscreteDistribution.uniform([ex((0.0,), 1), ex((1.0,), -1)])
        with pytest.raises(ValueError, match="read-only"):
            dist.probabilities[0] = 1.0

    def test_sampling_deterministic(self):
        examples = [ex((float(i),), 1) for i in range(4)]
        dist = DiscreteDistribution.uniform(examples)
        assert np.array_equal(dist.sample_indices(50, 3), dist.sample_indices(50, 3))

    def test_net_respects_bound(self):
        for h in linear_net_2d(1.0, 17, 9):
            assert h.offset() <= 1.0 + 1e-9
