"""Euclidean primitives: distances, sphere covers, grid ball covers."""

import math

import numpy as np
import pytest

from robustlab import geometry
from robustlab.geometry import (
    Ball,
    CoverageError,
    DimensionMismatch,
    cover_compact_by_balls,
    distance,
    greedy_sphere_cover,
    grid_cover_bound,
    verify_cover,
)
from robustlab.regions import Expanded, FinitePoints, UnionOfBalls
from robustlab.seeding import as_generator, rng_for, uniform_sphere


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

    def test_point_lies_in_ball_of_its_distance(self):
        # distance is the one-row case of the batched norm the region queries use
        rng = np.random.default_rng(0)
        center = np.zeros(3)
        for p in rng.normal(size=(20_000, 3)):
            assert Ball(center, distance(p, center)).contains(p)


class TestSqNorms:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_add_reduce(self, d):
        # magnitudes over 16 decades make the order of the additions visible in the last bits
        rng = rng_for(d, "sq-norms")
        for shape in [(3000, d), (60, 7, d)]:
            sq = 10.0 ** rng.uniform(-8, 8, size=shape)
            assert np.array_equal(geometry._sq_norms(sq), np.add.reduce(sq, axis=-1))

    def test_norms_match_linalg_norm(self):
        diff = rng_for(0, "norms").normal(size=(500, 3)) * 10.0 ** np.arange(-4, 5, 4)
        assert np.array_equal(geometry._norms(diff.copy()), np.linalg.norm(diff, axis=-1))


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

    @pytest.mark.parametrize("d, mesh", [(2, 0.1), (3, 0.5), (9, 1.2)])
    def test_matches_reference_that_recomputes_every_distance(self, d, mesh):
        # reference: after each acceptance, every remaining candidate of the
        # batch is measured again against every accepted center
        def reference(seed, stop_factor, probe_count):
            rng, centers, consecutive = as_generator(seed), [], 0
            while consecutive < stop_factor * max(1, len(centers)):
                cand, start = uniform_sphere(2048, d, 1.1, rng), 0
                while start < len(cand):
                    if centers:
                        gaps = np.linalg.norm(cand[start:, None, :] - np.asarray(centers)[None], axis=-1)
                        ok = np.flatnonzero(np.min(gaps, axis=1) > mesh)
                    else:
                        ok = np.array([0])
                    if ok.size == 0:
                        consecutive += len(cand) - start
                        break
                    consecutive += int(ok[0])
                    if consecutive >= stop_factor * max(1, len(centers)):
                        break
                    centers.append(cand[start + int(ok[0])])
                    consecutive, start = 0, start + int(ok[0]) + 1
            probes = uniform_sphere(probe_count, d, 1.1, rng)
            gaps = np.linalg.norm(probes[:, None, :] - np.asarray(centers)[None], axis=-1)
            return np.asarray(centers), int(np.count_nonzero(np.min(gaps, axis=1) > mesh))

        cover = greedy_sphere_cover(d, 1.1, mesh, seed=5, stop_factor=50, probe_count=500)
        centers, failures = reference(5, 50, 500)
        assert len(cover) > 20
        assert np.array_equal(cover.centers, centers)
        assert cover.probe_failures == failures


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


def grid_nodes(target, ball_radius):
    """Axes, pitch and ``"ij"``-ordered nodes of the grid a cover is built on."""
    lo, hi = target.bounding_box()
    pitch = ball_radius * (2.0 / np.sqrt(lo.size)) * (1.0 - 1e-6)
    axes = [np.arange(a - ball_radius, b + ball_radius + pitch, pitch) for a, b in zip(lo, hi)]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return axes, pitch, nodes


def random_target(kind, d, rng):
    if kind == "ball":
        return Ball(rng.uniform(-1, 1, d), rng.uniform(0.3, 1.0))
    if kind == "union":
        return UnionOfBalls(rng.uniform(-1, 1, (3, d)), rng.uniform(0.1, 0.6, 3))
    if kind == "points":
        return FinitePoints(rng.uniform(-1, 1, (20, d)))
    if kind == "point_ball":
        return Ball(rng.uniform(-1, 1, d), 0.0)
    return Expanded(FinitePoints(rng.uniform(-1, 1, (4, d))), rng.uniform(0.1, 0.4))


class TestGridCoverCheck:
    """The nearest-node cover check against the brute-force ``verify_cover``."""

    KINDS = ("ball", "union", "points", "point_ball", "expanded")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_verify_cover_with_centers_knocked_out(self, d, monkeypatch):
        fallback_rows = []
        brute = UnionOfBalls.distance_to_many

        def recording(self, pts):
            fallback_rows.append(len(pts))
            return brute(self, pts)

        failures = fell_back = 0
        for kind in self.KINDS:
            for trial in range(4):
                rng = rng_for(trial, "grid-check", kind, str(d))
                target = random_target(kind, d, rng)
                radius = rng.uniform(0.15, 0.35)
                axes, pitch, nodes = grid_nodes(target, radius)
                kept = target.distance_to_many(nodes) <= radius
                # knock out about a fifth of the kept centers, leaving at least one
                knocked = kept & (rng.random(len(kept)) >= 0.2)
                knocked[np.flatnonzero(kept)[0]] = True
                shape = [len(a) for a in axes]
                probes = geometry._cover_probes(target, 300, trial)
                for mask in (kept, knocked):
                    cover = UnionOfBalls(nodes[mask], np.full(np.count_nonzero(mask), radius))
                    fallback_rows.clear()
                    with monkeypatch.context() as m:
                        m.setattr(UnionOfBalls, "distance_to_many", recording)
                        got = geometry._grid_cover_failures(probes, axes, pitch, mask.reshape(shape), cover)
                    assert got == verify_cover(target, cover, 300, trial), (kind, trial)
                    if mask is kept:
                        # every target point's nearest node is kept and in reach
                        assert got == 0 and sum(fallback_rows) == 0, (kind, trial)
                    failures += got
                    fell_back += sum(fallback_rows)
        # the knocked-out covers miss some probes, and cover others only
        # through a center that is not the probe's nearest node
        assert 0 < failures < fell_back

    def test_hidden_nodes_raise_coverage_error(self):
        asked = []

        class HoledBall(Ball):
            """A ball whose distance to the grid hides every node right of its center."""

            def distance_to_many(self, pts):
                asked.append(pts)
                out = super().distance_to_many(pts)
                out[pts[:, 0] > self.center[0]] = np.inf
                return out

        target = HoledBall((0.0, 0.0), 1.0)
        with pytest.raises(CoverageError) as err:
            cover_compact_by_balls(target, 0.2, seed=4, probe_count=500)
        (nodes,) = asked
        kept = (Ball.distance_to_many(target, nodes) <= 0.2) & (nodes[:, 0] <= 0.0)
        holed = UnionOfBalls(nodes[kept], np.full(np.count_nonzero(kept), 0.2))
        expected = verify_cover(Ball((0.0, 0.0), 1.0), holed, 500, seed=4)
        assert expected > 0
        assert str(err.value) == f"{expected}/500 cover probes uncovered"


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
