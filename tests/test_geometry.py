"""Euclidean primitives: distances, sphere covers, grid ball covers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from robustlab.regions import Expanded, FinitePoints, UnionOfBalls, _region_balls
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
            # column-major, as _in_ball stores its differences: the sum is still the C-order one
            assert np.array_equal(geometry._sq_norms(np.asfortranarray(sq)), np.add.reduce(sq, axis=-1))

    def test_norms_match_linalg_norm(self):
        diff = rng_for(0, "norms").normal(size=(500, 3)) * 10.0 ** np.arange(-4, 5, 4)
        assert np.array_equal(geometry._norms(diff.copy()), np.linalg.norm(diff, axis=-1))


class TestSquaredBallBound:
    @settings(max_examples=400, deadline=None)
    @given(
        r=st.floats(min_value=5e-324, max_value=1e200),
        base=st.sampled_from(["bound", "square"]),
        steps=st.integers(-3, 3),
    )
    @example(r=5e-324, base="bound", steps=1)
    @example(r=1e-162, base="square", steps=2)
    @example(r=1.4e154, base="square", steps=-1)  # r * r overflows
    @example(r=1e200, base="bound", steps=1)
    def test_is_the_sqrt_rule(self, r, base, steps):
        # s runs over the nextafter neighbours of the bound and of r * r
        bound = geometry._sq_bound(r)
        s = bound if base == "bound" else r * r
        for _ in range(abs(steps)):
            s = math.nextafter(s, math.inf if steps > 0 else 0.0)
        assert (math.sqrt(s) <= r) == (s <= bound)
        assert math.sqrt(bound) <= r
        assert math.isinf(bound) or math.sqrt(math.nextafter(bound, math.inf)) > r

    def test_infinite_radius_holds_every_number(self):
        assert geometry._sq_bound(math.inf) == math.inf

    @pytest.mark.parametrize("r", [1.7e-162, 3e-162])
    def test_subnormal_square_is_searched_down(self, r):
        # r * r is subnormal and rounds up, so its square root exceeds r and
        # the bound lies below it; membership still follows the distance rule
        assert math.sqrt(r * r) > r
        assert geometry._sq_bound.__wrapped__(r) < r * r
        for d in (1, 2, 3):
            center = np.zeros(d)
            for t in (math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)):
                for direction in (np.eye(d)[0], np.full(d, 1 / math.sqrt(d))):
                    p = t * direction
                    inside = distance(p, center) <= r
                    assert Ball(center, r).contains(p) == inside
                    assert Ball(center, r).contains_many(p[None])[0] == inside

    @pytest.mark.parametrize("d", range(1, 10))
    def test_in_ball_is_the_distance_rule(self, d):
        # d >= 8 sums the squares pairwise; scales over 16 decades and points
        # one ulp on either side of the sphere make any change of order visible
        rng = rng_for(d, "in-ball")
        for scale in 10.0 ** np.arange(-8, 9, 4):
            center = rng.normal(size=d) * scale
            radius = float(rng.uniform(0.5, 2.0) * scale)
            on_sphere = center + uniform_sphere(600, d, radius, rng)
            pts = np.vstack(
                [
                    center + rng.normal(size=(600, d)) * radius,
                    on_sphere,
                    np.nextafter(on_sphere, np.inf),
                    np.nextafter(on_sphere, -np.inf),
                ]
            )
            inside = geometry._in_ball(pts, center, radius)
            assert np.array_equal(inside, geometry._norms(pts - center) <= radius)
            assert 0 < inside.sum() < len(pts)


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
        cover = cover_compact_by_balls(Ball((0.0, 0.0), 0.0), 1.0)
        assert len(cover) >= 1
        assert np.all(cover.radii == 1.0)
        # a degenerate target needs exactly the nodes near it; pitch > diam
        assert len(cover) <= 4

    def test_interval_cover(self):
        cover = cover_compact_by_balls(Ball(np.array([0.0]), 1.0), 0.5)
        assert len(cover) <= 5
        assert verify_cover(Ball(np.array([0.0]), 1.0), cover, 1000, seed=5) == 0

    def test_union_cover_probe_verified(self):
        target = UnionOfBalls([(0, 0), (5, 0)], [1.0, 1.0])
        cover = cover_compact_by_balls(target, 0.5)
        assert len(cover) <= 50
        assert verify_cover(target, cover, 10_000, seed=7) == 0

    def test_count_bound_formula(self):
        target = Ball((0.0, 0.0), 1.0)
        cover = cover_compact_by_balls(target, 0.3)
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


def hard_probes(target, ball_radius, rng):
    """Points where a grid cover is tightest, some inside the target and some outside.

    The grid's nodes and cell midpoints (the corners of each node's
    nearest-node cell, where a point is farthest from every node), the
    midpoints pushed onto the nearest target sphere, and random points on
    every target sphere; a radius-0 ball is its center.
    """
    _, pitch, nodes = grid_nodes(target, ball_radius)
    mids = nodes + pitch / 2.0
    centers, radii = _region_balls(target)
    nearest = np.argmin(np.linalg.norm(mids[:, None, :] - centers[None, :, :], axis=-1), axis=1)
    out = mids - centers[nearest]
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    pushed = (centers[nearest] + radii[nearest, None] * out / np.where(norms > 0, norms, 1.0))[radii[nearest] > 0]
    spheres = [c + uniform_sphere(50, len(c), rho, rng) if rho > 0 else c[None] for c, rho in zip(centers, radii)]
    return np.vstack([nodes, mids, pushed, *spheres])


class TestGridCoverCheck:
    """The cover certificate: exact on correct covers, and it catches a dropped node."""

    KINDS = ("ball", "union", "points", "point_ball", "expanded")

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_certified_covers_pass_the_brute_force_reference(self, d):
        for kind in self.KINDS:
            for trial in range(3):
                rng = rng_for(trial, "certified-cover", kind, str(d))
                target = random_target(kind, d, rng)
                radius = rng.uniform(0.15, 0.35)
                cover = cover_compact_by_balls(target, radius)
                assert verify_cover(target, cover, 1000, trial) == 0, (kind, trial)
                probes = hard_probes(target, radius, rng)
                inside = probes[target.contains_many(probes)]
                assert len(inside) > 0, (kind, trial)
                inside = inside[rng.permutation(len(inside))[:1500]]  # bounds the d = 4 brute force
                assert np.count_nonzero(cover.distance_to_many(inside) > 0) == 0, (kind, trial)

    def test_single_hidden_node_raises_coverage_error(self, monkeypatch):
        # each target hides the node nearest to its first ball's center, which is
        # within reach; from d = 3 the node's neighbours cover all of its cell but
        # a small ball around the node, or all of it, so 1,000 probes miss the hole
        missed_by_probes = []
        for d, kind in itertools.product([1, 2, 3, 4], self.KINDS):
            rng = rng_for(d, "hidden-node", kind)
            target = random_target(kind, d, rng)
            radius = rng.uniform(0.15, 0.35)
            _, _, nodes = grid_nodes(target, radius)
            center = _region_balls(target)[0][0]
            hidden = nodes[np.argmin(np.linalg.norm(nodes - center, axis=1))]
            honest = type(target).distance_to_many

            def hiding(self, pts, target=target, hidden=hidden, honest=honest):
                out = honest(self, pts)
                if self is target:
                    out[(pts == hidden).all(axis=1)] = np.inf
                return out

            with monkeypatch.context() as m:
                m.setattr(type(target), "distance_to_many", hiding)
                with pytest.raises(CoverageError, match="^1 dropped grid nodes lie within reach of the target$"):
                    cover_compact_by_balls(target, radius)
            kept = (target.distance_to_many(nodes) <= radius) & ~(nodes == hidden).all(axis=1)
            if kept.any():  # a point target may keep the hidden node alone
                holed = UnionOfBalls(nodes[kept], np.full(np.count_nonzero(kept), radius))
                if verify_cover(target, holed, 1000, d) == 0:
                    missed_by_probes.append((d, kind))
        assert len(missed_by_probes) >= 5, missed_by_probes

    def test_grid_too_fine_for_its_coordinates_raises_coverage_error(self):
        # doubles near 1e9 are 1.19e-7 apart, so the 2e-7 pitch rounds to gaps of up to 2.4e-7
        with pytest.raises(CoverageError, match="^grid cells reach 1.19.* not less than the radius 1e-07$"):
            cover_compact_by_balls(Ball((1e9,), 1e-6), 1e-7)

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
            cover_compact_by_balls(target, 0.2)
        # the certificate reads the ball's own arrays, never its distance method
        (nodes,) = asked
        axes, _, grid = grid_nodes(target, 0.2)
        assert np.array_equal(nodes, grid)
        # h, the half-diagonal of the largest grid cell: each axis's largest node gap halved, in quadrature
        h = math.hypot(*(float(np.max(np.diff(a))) / 2.0 for a in axes))
        reach = np.linalg.norm(nodes - target.center, axis=1) - target.radius <= h
        expected = int(np.count_nonzero(reach & (nodes[:, 0] > 0.0)))
        assert expected > 0
        assert str(err.value) == f"{expected} dropped grid nodes lie within reach of the target"


def layouts(x: np.ndarray) -> list[np.ndarray]:
    """``x`` row-major, column-major, with strided columns and with reversed rows: the same values each time."""
    wide = np.zeros((len(x), 2 * x.shape[1]))
    wide[:, ::2] = x
    return [np.ascontiguousarray(x), np.asfortranarray(x), wide[:, ::2], x[::-1].copy()[::-1]]


def spread(rng, shape) -> np.ndarray:
    """Normal entries scaled per column over 8 decades, so that the order of a sum shows in its last bits."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, shape[-1])


class TestColumnMajorKernels:
    """The column-major kernels give the bits of their row-major forms, on both sides of the 8-dim split."""

    @pytest.mark.parametrize("d", range(1, 11))
    def test_pair_distances_match_row_major_norm(self, d):
        rng = rng_for(d, "column-pair-distances")
        pts, centers = spread(rng, (900, d)), spread(rng, (300, d))
        want = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=-1)
        for layout in layouts(pts):
            got = np.full(want.shape, np.nan)
            blocks = 0
            for rows, dist in geometry._pair_distances(layout, np.asfortranarray(centers)):
                got[rows] = dist
                blocks += 1
            assert got.tobytes() == want.tobytes()
        assert blocks > 1 or d < 4  # the larger dimensions take several row blocks


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

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_distance_zero_iff_contained_for_every_kind(self, d):
        # on the cross-check's probes: grid nodes, cell midpoints and sphere points
        for kind in TestGridCoverCheck.KINDS:
            rng = rng_for(d, "distance-membership", kind)
            target = random_target(kind, d, rng)
            pts = np.vstack([hard_probes(target, rng.uniform(0.15, 0.35), rng), geometry._cover_probes(target, 500, d)])
            inside = target.contains_many(pts)
            assert np.array_equal(target.distance_to_many(pts) <= 0, inside), kind
            assert 0 < inside.sum() < len(pts), kind
