"""Region algebra: expansion, membership, diameter, uniform sampling."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from robustlab.geometry import Ball, SphereCover, cover_compact_by_balls
from robustlab.regions import (
    Expanded,
    FinitePoints,
    RegionFamily,
    UnionOfBalls,
    ZeroMeasureError,
    point_key,
    uniform_sample,
)
from robustlab.seeding import rng_for


class TestExpand:
    def test_ball_minkowski(self):
        grown = Ball((0, 0), 1.0).expand(0.5)
        assert isinstance(grown, Ball)
        assert grown.radius == 1.5
        assert np.array_equal(grown.center, [0, 0])

    def test_single_point_becomes_ball(self):
        grown = FinitePoints([(0.0, 0.0)]).expand(2.0)
        assert isinstance(grown, UnionOfBalls)
        assert len(grown) == 1
        assert grown.radii[0] == 2.0

    def test_union_inflates_and_membership_flips(self):
        union = UnionOfBalls([(0, 0), (3, 0)], [1.0, 1.0])
        grown = union.expand(1.0)
        assert np.all(grown.radii == 2.0)
        p = (1.7, 0.0)
        assert not union.contains(p)  # distance 0.7 from the first ball
        assert grown.contains(p)

    def test_monotone_and_additive_on_probes(self):
        rng = rng_for(3, "expand-mono")
        base = UnionOfBalls([(0, 0), (2, 0)], [0.5, 0.3])
        g1, g2 = 0.4, 0.7
        pts = rng.uniform(-2, 4, size=(10_000, 2))
        in_base = base.contains_many(pts)
        in_g1 = base.expand(g1).contains_many(pts)
        in_sum = base.expand(g1 + g2).contains_many(pts)
        assert np.all(in_base <= in_g1)
        assert np.all(in_g1 <= in_sum)

    def test_collapse_law(self):
        rng = rng_for(4, "collapse")
        base = FinitePoints([(0.0, 0.0), (1.5, 0.5)])
        nested = Expanded(Expanded(base, 0.3), 0.2)
        flat = Expanded(base, 0.5)
        assert nested.gamma == pytest.approx(0.5)
        pts = rng.uniform(-1, 3, size=(10_000, 2))
        assert np.array_equal(nested.contains_many(pts), flat.contains_many(pts))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            Ball((0, 0), 1.0).expand(0.0)


class TestContains:
    def test_closed_boundary(self):
        assert Ball((0, 0), 1.0).contains((1, 0))

    def test_strict_exterior(self):
        assert not Ball((0, 0), 1.0).contains((1 + 1e-6, 0))

    def test_expanded_point_set(self):
        region = Expanded(FinitePoints([(0.0, 0.0), (4.0, 0.0)]), 1.0)
        assert region.contains((3.2, 0.0))  # distance 0.8 to (4, 0)

    def test_point_set_membership_is_exact(self):
        region = FinitePoints([(0.0, 0.0), (4.0, 0.5)])
        probes = np.array(
            [(0.0, 0.0), (-0.0, 0.0), (4.0, 0.5), (1e-13, 0.0), (0.0, 1e-170), (4.0, 0.5 + 1e-15)]
        )
        expected = [True, True, True, False, False, False]
        assert [region.contains(p) for p in probes] == expected
        assert region.contains_many(probes).tolist() == expected


class TestDiameter:
    def test_ball(self):
        assert Ball((0, 0), 2.0).diameter() == 4.0

    def test_two_points(self):
        assert FinitePoints([(0, 0), (3, 4)]).diameter() == 5.0

    def test_union_upper_bound(self):
        union = UnionOfBalls([(0, 0), (10, 0)], [1.0, 1.0])
        assert union.diameter() == pytest.approx(12.0)

    def test_expansion_adds_twice_gamma(self):
        ball = Ball((1, 2), 0.75)
        pts = FinitePoints([(0, 0), (2, 1)])
        for region in (ball, pts):
            grown = Expanded(region, 0.6)
            assert grown.diameter() == pytest.approx(region.diameter() + 1.2)

    @pytest.mark.parametrize("variant", ["union", "points", "sphere_cover"])
    def test_pairwise_scans_in_bounded_memory(self, variant):
        # a (k, k, d) difference array over 1,052 centres holds 17.7 MB per
        # temporary (50.7 MB peak); row blocks keep each near 2**20 floats
        cover = cover_compact_by_balls(Ball((0.0, 0.0), 1.0), 0.04, seed=0)
        assert len(cover) == 1052
        angles = np.linspace(0.0, 2.0 * np.pi, len(cover), endpoint=False)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # neighbours 0.00597 apart
        scans = {
            "union": cover.diameter,
            "points": FinitePoints(cover.centers).diameter,
            "sphere_cover": lambda: SphereCover(1.0, 0.005, circle),
        }
        tracemalloc.start()
        try:
            got = scans[variant]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20
        if variant == "sphere_cover":
            # a last-row-block centre moved next to the first one is caught
            circle[-1] = (np.cos(0.004), np.sin(0.004))
            with pytest.raises(ValueError, match="mesh-separated"):
                SphereCover(1.0, 0.005, circle)
            return
        gaps = np.linalg.norm(cover.centers[:, None, :] - cover.centers[None, :, :], axis=-1)
        if variant == "union":
            gaps = gaps + cover.radii[:, None] + cover.radii[None, :]
        assert got == float(np.max(gaps))


class TestDistanceToMany:
    @pytest.mark.parametrize("variant", ["union", "points"])
    def test_many_centers_in_bounded_memory(self, variant):
        # 1,000 probes against 4,073 centers in one (rows, k, d) block would
        # hold 65 MB per temporary; blocks of about 2**20 floats hold 8 MB
        disc = Ball((0.0, 0.0), 1.0)
        cover = cover_compact_by_balls(disc, 0.02, seed=0)
        assert len(cover) == 4073
        region = cover if variant == "union" else FinitePoints(cover.centers)
        probes = uniform_sample(disc, 1000, 3)
        tracemalloc.start()
        try:
            got = region.distance_to_many(probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        rows = [np.linalg.norm(cover.centers - p, axis=1) for p in probes]
        if variant == "union":
            expected = [max(0.0, np.min(row - cover.radii)) for row in rows]
        else:
            expected = [np.min(row) for row in rows]
        assert np.array_equal(got, expected)


class TestUniformSample:
    def test_ball_mean_near_center(self):
        pts = uniform_sample(Ball((0, 0), 1.0), 10_000, seed=0)
        # CLT oracle: per-coordinate sd <= 1, so 3 sd / sqrt(n) < 0.05
        assert np.all(np.abs(pts.mean(axis=0)) < 0.05)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)

    def test_equal_area_balls_split_evenly(self):
        union = UnionOfBalls([(0, 0), (10, 0)], [1.0, 1.0])
        pts = uniform_sample(union, 10_000, seed=1)
        frac = np.mean(pts[:, 0] > 5)
        assert abs(frac - 0.5) < 0.02  # binomial 3 sigma = 0.015

    def test_zero_measure_rejected(self):
        with pytest.raises(ZeroMeasureError):
            uniform_sample(Ball((5, 5), 0.0), 10, seed=0)
        with pytest.raises(ZeroMeasureError):
            uniform_sample(FinitePoints([(0, 0)]), 10, seed=0)

    def test_deterministic_per_seed(self):
        a = uniform_sample(Ball((0, 0), 1.0), 100, seed=42)
        b = uniform_sample(Ball((0, 0), 1.0), 100, seed=42)
        assert np.array_equal(a, b)

    def test_pathological_region_aborts_with_diagnostics(self):
        from robustlab.regions import SamplingEfficiencyError

        # two specks far apart: acceptance rate ~3e-7 from the joint box
        specks = UnionOfBalls([(0.0, 0.0), (1000.0, 0.0)], [1e-4, 1e-4])
        with pytest.raises(SamplingEfficiencyError, match="acceptance"):
            uniform_sample(specks, 10, seed=0)

    def test_overlapping_union_density_uniform(self):
        """Chi-square uniformity across equal-area cells (statistical, 1e-3)."""
        union = UnionOfBalls([(0, 0), (0.8, 0)], [1.0, 1.0])
        pts = uniform_sample(union, 40_000, seed=2)
        # grid cells fully inside one of the balls have equal area, so the
        # conditional counts must be uniform
        step = 0.25
        cells = []
        for x0 in np.arange(-1.0, 1.8, step):
            for y0 in np.arange(-1.0, 1.0, step):
                corners = np.array(
                    [[x0, y0], [x0 + step, y0], [x0, y0 + step], [x0 + step, y0 + step]]
                )
                if np.all(np.linalg.norm(corners, axis=1) <= 1.0) or np.all(
                    np.linalg.norm(corners - [0.8, 0], axis=1) <= 1.0
                ):
                    cells.append((x0, y0))
        assert len(cells) >= 10
        counts = []
        for x0, y0 in cells:
            inside = (
                (pts[:, 0] >= x0)
                & (pts[:, 0] < x0 + step)
                & (pts[:, 1] >= y0)
                & (pts[:, 1] < y0 + step)
            )
            counts.append(int(inside.sum()))
        _, p_value = stats.chisquare(counts)
        assert p_value > 1e-3


class TestRegionFamily:
    def test_lookup_and_default_rule(self):
        anchor = np.array([1.0, 1.0])
        fam = RegionFamily(
            [(anchor, Ball(anchor, 0.5))],
            default_rule=lambda x: Ball(x, 0.1),
        )
        assert fam.region_for(anchor).radius == 0.5
        assert fam.region_for((9.0, 9.0)).radius == 0.1

    def test_missing_region_raises(self):
        fam = RegionFamily([(np.array([0.0]), Ball(np.array([0.0]), 1.0))])
        with pytest.raises(KeyError):
            fam.region_for((5.0,))

    def test_anchor_must_be_inside_unless_flagged(self):
        anchor = np.array([5.0, 5.0])
        with pytest.raises(ValueError):
            RegionFamily([(anchor, Ball((0.0, 0.0), 1.0))])
        fam = RegionFamily(
            [(anchor, Ball((0.0, 0.0), 1.0))], allow_outside_anchor=True
        )
        assert fam.region_for(anchor).radius == 1.0

    def test_expanded_family(self):
        anchor = np.array([0.0, 0.0])
        fam = RegionFamily([(anchor, Ball(anchor, 1.0))])
        assert fam.expanded(0) is fam
        assert fam.expanded(0.5).region_for(anchor).radius == 1.5

    def test_colliding_anchors_rejected(self):
        # -0.0 equals 0.0, so (-0.0, 0) is the origin again
        with pytest.raises(ValueError, match="repeats"):
            RegionFamily(
                [
                    (np.array([0.0, 0.0]), Ball((0.0, 0.0), 0.1)),
                    (np.array([-0.0, 0.0]), Ball((0.0, 0.0), 5.0)),
                ]
            )
        # anchors 1e-14 and 1e-170 off the origin are other points
        fam = RegionFamily(
            [
                (np.array([0.0, 0.0]), Ball((0.0, 0.0), 0.1)),
                (np.array([1e-14, 0.0]), Ball((0.0, 0.0), 5.0)),
                (np.array([0.0, 1e-170]), Ball((0.0, 0.0), 2.0)),
            ]
        )
        assert [fam.region_for(a).radius for a in fam.anchors] == [0.1, 5.0, 2.0]
        assert [fam.expanded(1.0).region_for(a).radius for a in fam.anchors] == [1.1, 6.0, 3.0]

    def test_point_key_is_exact(self):
        assert point_key((0.0, 1.0)) != point_key((1e-14, 1.0 - 1e-14))
        assert point_key((0.0, 0.0)) != point_key((0.0, 1e-170))
        assert point_key((0.0,)) == point_key((-0.0,))
        assert point_key((0.25, -3.0)) == (0.25, -3.0)


class TestSerialization:
    def test_round_trip_all_variants(self):
        from robustlab.regions import region_from_dict, region_to_dict

        regions = [
            FinitePoints([(0.0, 1.0), (2.0, 3.0)]),
            Ball((1.0, -1.0), 0.75),
            UnionOfBalls([(0, 0), (3, 0)], [1.0, 0.5]),
            Expanded(FinitePoints([(0.5, 0.5)]), 0.25),
        ]
        rng = rng_for(31, "serialize")
        pts = rng.uniform(-2, 4, size=(500, 2))
        for region in regions:
            back = region_from_dict(region_to_dict(region))
            assert type(back) is type(region)
            assert np.array_equal(region.contains_many(pts), back.contains_many(pts))

    def test_unknown_kind_rejected(self):
        from robustlab.regions import region_from_dict

        with pytest.raises(ValueError):
            region_from_dict({"kind": "mystery"})


class TestInstanceExport:
    def test_export_is_json_ready_and_faithful(self):
        import json

        from robustlab.regions import region_from_dict
        from robustlab.shatter_game import build_failure_instance, export_instance

        inst = build_failure_instance(1, 1.0, 2, seed=5)
        blob = json.loads(json.dumps(export_instance(inst)))
        assert blob["m"] == 1 and blob["M"] == 3
        assert len(blob["anchors"]) == 3
        for anchor, region_data in zip(blob["anchors"], blob["regions"]):
            region = region_from_dict(region_data)
            assert region.contains(np.asarray(anchor))
