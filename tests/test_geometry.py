"""Euclidean primitives: distances, sphere covers, grid ball covers."""

import math

import numpy as np
import pytest

from robustlab.geometry import (
    Ball,
    DimensionMismatch,
    cover_compact_by_balls,
    distance,
    greedy_sphere_cover,
    grid_cover_bound,
    verify_cover,
)
from robustlab.regions import FinitePoints, UnionOfBalls
from robustlab.seeding import rng_for


class TestDistance:
    def test_identity(self):
        assert distance((0, 0), (0, 0)) == 0.0

    def test_3_4_5(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_direct_norm(self):
        # oracle: sqrt(1^2 + 2^2 + 4^2) = sqrt(21)
        assert distance((1, 1, 1), (2, 3, 5)) == pytest.approx(math.sqrt(21), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance((0, 0), (0, 0, 0))

    def test_triangle_inequality_random(self):
        rng = rng_for(7, "triangle")
        pts = rng.normal(size=(10_000, 3, 4)) * 10
        for a, b, c in pts:
            ab, bc, ac = (
                np.linalg.norm(a - b),
                np.linalg.norm(b - c),
                np.linalg.norm(a - c),
            )
            assert ac <= ab + bc + 1e-9 * max(1.0, ac)

    def test_symmetry_random(self):
        rng = rng_for(8, "sym")
        for _ in range(100):
            a, b = rng.normal(size=(2, 5))
            assert distance(a, b) == distance(b, a)


class TestPointToRegionDistance:
    def test_containment(self):
        assert Ball((0, 0), 1).distance_to((0, 0)) == 0.0

    def test_collinear(self):
        assert Ball((0, 0), 1).distance_to((3, 0)) == pytest.approx(2.0)

    def test_min_over_point_list(self):
        region = FinitePoints([(0, 0), (1, 1)])
        assert region.distance_to((2, 2)) == pytest.approx(math.sqrt(2))


class TestGreedySphereCover:
    def test_wide_mesh_circle_has_at_least_two_centers(self):
        cover = greedy_sphere_cover(2, 1.0, 1.9, seed=0)
        assert len(cover) >= 2  # antipodal pairs exceed mesh 1.9

    def test_mesh_beyond_diameter_gives_single_point(self):
        # a mesh >= the sphere diameter cannot separate two points; the
        # degenerate one-point cover is returned, not an error
        cover = greedy_sphere_cover(2, 1.0, 2.5, seed=0)
        assert len(cover) == 1

    def test_circle_mesh_half_count_range(self):
        # packing/covering oracle on the unit circle at chord 0.5:
        # arc angle per chord = 2*asin(0.25) = 0.50536 rad, so a maximal
        # packing has between ceil(2pi/(2*0.50536)) = 7 and
        # floor(2pi/0.50536) = 12 centers.
        cover = greedy_sphere_cover(2, 1.0, 0.5, seed=1)
        assert 7 <= len(cover) <= 12
        assert cover.certified

    def test_sphere_mesh_one_needs_four(self):
        # oracle: a spherical cap of angular radius 60 degrees covers
        # (1 - cos 60)/2 = 1/4 of the sphere, so 3 caps cannot cover it.
        cover = greedy_sphere_cover(3, 1.0, 1.0, seed=2)
        assert len(cover) >= 4
        assert cover.certified

    def test_centers_on_sphere_and_separated(self):
        cover = greedy_sphere_cover(3, 2.5, 1.2, seed=3)
        norms = np.linalg.norm(cover.centers, axis=1)
        assert np.allclose(norms, 2.5, rtol=1e-9)
        n = len(cover)
        d = np.linalg.norm(cover.centers[:, None] - cover.centers[None, :], axis=-1)
        d[np.diag_indices(n)] = np.inf
        assert np.all(d > cover.mesh)

    def test_deterministic_per_seed(self):
        a = greedy_sphere_cover(2, 1.0, 0.5, seed=11)
        b = greedy_sphere_cover(2, 1.0, 0.5, seed=11)
        assert np.array_equal(a.centers, b.centers)


class TestCoverCompactByBalls:
    def test_single_point(self):
        cover = cover_compact_by_balls(Ball((0.0, 0.0), 0.0), 1.0, seed=0)
        assert len(cover) >= 1
        assert np.all(cover.radii == 1.0)
        # a degenerate target needs exactly the nodes near it; pitch > diam
        assert len(cover) <= 4

    def test_interval_cover(self):
        cover = cover_compact_by_balls(Ball(np.array([0.0]), 1.0), 0.5, seed=0)
        assert len(cover) <= 5
        assert verify_cover(Ball(np.array([0.0]), 1.0), cover, 1000, seed=5) == 0

    def test_union_cover_probe_verified(self):
        target = UnionOfBalls([(0, 0), (5, 0)], [1.0, 1.0])
        cover = cover_compact_by_balls(target, 0.5, seed=0, probe_count=10_000)
        assert len(cover) <= 50
        assert verify_cover(target, cover, 10_000, seed=7) == 0

    def test_count_bound_formula(self):
        target = Ball((0.0, 0.0), 1.0)
        cover = cover_compact_by_balls(target, 0.3, seed=0)
        assert len(cover) <= grid_cover_bound(target.diameter(), 0.3, 2)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            cover_compact_by_balls(Ball((0, 0), 1.0), 0.0)


class TestExpansionDistanceConsistency:
    def test_membership_iff_distance(self):
        rng = rng_for(21, "consistency")
        region = UnionOfBalls([(0, 0), (2, 1)], [0.8, 0.4])
        gamma = 0.6
        grown = region.expand(gamma)
        pts = rng.uniform(-2, 4, size=(5000, 2))
        dist = region.distance_to_many(pts)
        inside = grown.contains_many(pts)
        assert np.array_equal(inside, dist <= gamma)
