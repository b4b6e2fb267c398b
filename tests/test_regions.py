"""Region algebra: expansion, membership, diameter, uniform sampling."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from robustlab.geometry import Ball, DimensionMismatch, SphereCover, cover_compact_by_balls
from robustlab.oracle_game import build_oracle_game
from robustlab.regions import (
    Expanded,
    FinitePoints,
    SLICE_FLOATS,
    RegionFamily,
    UnionOfBalls,
    ZeroMeasureError,
    _region_balls,
    _skip,
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
        with pytest.raises(ValueError):
            Ball((0, 0), 1.0).expand(math.inf)


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

    @pytest.mark.parametrize("variant", ["ball", "union", "points"])
    def test_radius_zero_ball_is_its_center_alone(self, variant):
        # (0, 1e-170) and (1e-170, 0) are other points, though their
        # distances to the origin underflow to 0
        region = {
            "ball": Ball((0.0, 0.0), 0.0),
            "union": UnionOfBalls([(3.0, 3.0), (0.0, 0.0)], [1.0, 0.0]),
            "points": FinitePoints([(3.0, 3.0), (0.0, 0.0)]),
        }[variant]
        probes = np.array([(0.0, 0.0), (-0.0, 0.0), (0.0, 1e-170), (1e-170, 0.0), (1e-13, 0.0)])
        expected = [True, True, False, False, False]
        assert [region.contains(p) for p in probes] == expected
        assert region.contains_many(probes).tolist() == expected


BATCH_REGIONS = {
    "ball": lambda: Ball((0.0, 0.0), 1.0),
    "points": lambda: FinitePoints([(0.0, 0.0), (0.5, 0.5)]),
    "union": lambda: UnionOfBalls([(0.0, 0.0), (2.0, 0.0)], [1.0, 0.0]),
    "expanded": lambda: Expanded(FinitePoints([(0.0, 0.0)]), 1.0),
}


@pytest.mark.parametrize("variant", sorted(BATCH_REGIONS))
@pytest.mark.parametrize("query", ["contains_many", "distance_to_many"])
def test_batch_of_wrong_shape_rejected(variant, query):
    # numpy would broadcast a (1, 1) batch against the 2-D centres and
    # answer a 1-D array once per coordinate
    method = getattr(BATCH_REGIONS[variant](), query)
    for bad in ([[0.5]], np.zeros((3, 3)), np.zeros((0, 1))):
        with pytest.raises(DimensionMismatch):
            method(bad)
    # a scalar and a 0-d array are checked before anything takes their length
    for bad in (np.array([0.5, 0.5]), np.zeros((1, 1, 2)), 0.5, np.array(0.5)):
        with pytest.raises(ValueError, match="batch"):
            method(bad)
    assert len(method([[0.5, 0.5]])) == 1
    assert len(method(np.zeros((0, 2)))) == 0


# Ball((0, 0, 0), r) and a point of its sphere that the 1-D norm puts inside
# and the row norm outside
FOUND_RADIUS = 0.9656495783173188
FOUND_POINT = (-0.7322673547034516, -0.5442589828573099, -0.31630015636915454)
# radius added by the expanded-* variants
EXPAND_GAMMA = 0.3


def _ball_array_with_boundary_probes(variant: str, d: int):
    """A ball-array region, and probes on and just off every one of its spheres.

    The k-ball union has two radius-zero balls; the other variants take its
    first ball, its radius-zero second ball or its centres.  An
    ``expanded-<variant>`` is ``Expanded(<variant>, EXPAND_GAMMA)``, probed on
    the spheres of its collapsed balls.
    """
    expanded = variant.startswith("expanded-")
    variant = variant.removeprefix("expanded-")
    rng = np.random.default_rng(d)
    centers = rng.normal(size=(6, d))
    radii = rng.uniform(0.2, 1.5, 6)
    radii[[1, 4]] = 0.0
    if variant == "found-ball":
        centers, radii = np.zeros((1, d)), np.array([FOUND_RADIUS])
    elif variant in ("ball", "one-ball-union"):
        centers, radii = centers[:1], radii[:1]
    elif variant == "radius-zero-ball":
        centers, radii = centers[1:2], radii[1:2]
    elif variant == "points":
        radii = np.zeros(6)
    if variant in ("union", "one-ball-union"):
        region = UnionOfBalls(centers, radii)
    elif variant == "points":
        region = FinitePoints(centers)
    else:
        region = Ball(centers[0], radii[0])
    if expanded:
        region, radii = Expanded(region, EXPAND_GAMMA), radii + EXPAND_GAMMA
    on_sphere = (centers[:, None, :] + radii[:, None, None] * np.eye(d)).reshape(-1, d)  # c + r e_i
    on_sphere = np.vstack([on_sphere, 2 * centers.repeat(d, axis=0) - on_sphere])  # and c - r e_i
    scattered = rng.normal(size=(2000, d)) * 1.5
    u = rng.normal(size=(8 * len(centers), d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    on_sphere = np.vstack([on_sphere, centers.repeat(8, axis=0) + radii.repeat(8)[:, None] * u])  # c + r u
    if variant == "found-ball":
        on_sphere = np.vstack([on_sphere, FOUND_POINT])
    probes = np.vstack(
        [
            scattered,
            on_sphere,
            np.nextafter(on_sphere, np.inf),
            np.nextafter(on_sphere, -np.inf),
            centers,
            np.nextafter(centers, np.inf),
        ]
    )
    return region, probes


# the k-ball union keeps the bare dimension as its id
BALL_ARRAY_CASES = [pytest.param("union", d, id=str(d)) for d in (1, 2, 3, 8, 9)] + [
    pytest.param(variant, d, id=f"{variant}-{d}")
    for variant in (
        "ball", "radius-zero-ball", "points", "one-ball-union", "expanded-ball", "expanded-points", "expanded-union"
    )
    for d in (1, 2, 3, 8, 9)
] + [pytest.param("found-ball", 3, id="found-ball-3")]


class TestUnionMembership:
    @pytest.mark.parametrize("variant, d", BALL_ARRAY_CASES)  # d >= 8 sums squares pairwise
    def test_matches_distance_rule(self, variant, d):
        region, probes = _ball_array_with_boundary_probes(variant, d)
        inside = region.contains_many(probes)
        assert np.array_equal(inside, region.distance_to_many(probes) <= 0.0)
        assert [region.contains(p) for p in probes[::7]] == inside[::7].tolist()
        assert 0 < inside.sum() < len(probes)
        # each scalar query is the one-row case of its batched form, bit for bit
        for p in np.vstack([probes[:2000:7], probes[2000:]]):
            assert region.contains(p) == region.contains_many(p[None])[0], p
            assert region.distance_to(p) == region.distance_to_many(p[None])[0], p
        # every variant, read as a union of balls, gives the union's values
        union = UnionOfBalls(*_region_balls(region))
        assert np.array_equal(inside, union.contains_many(probes))
        assert np.array_equal(region.distance_to_many(probes), union.distance_to_many(probes))
        assert region.diameter() == union.diameter()
        assert np.array_equal(region.bounding_box(), union.bounding_box())

    def test_region_balls_reads_expansions_and_rejects_other_objects(self):
        centers, radii = _region_balls(Expanded(FinitePoints([(0.0, 1.0)]), 0.5))
        assert centers.tolist() == [[0.0, 1.0]] and radii.tolist() == [0.5]
        with pytest.raises(TypeError, match="unsupported region variant"):
            _region_balls(object())

    def test_many_balls_in_bounded_memory(self):
        # 1,000 probes against 4,073 balls are tested ball by ball in row
        # blocks of about 2**18 floats: no (rows, k, d) temporary
        cover = cover_compact_by_balls(Ball((0.0, 0.0), 1.0), 0.02)
        assert len(cover) == 4073
        probes = uniform_sample(Ball((0.0, 0.0), 1.1), 1000, 3)
        tracemalloc.start()
        try:
            got = cover.contains_many(probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(got, cover.distance_to_many(probes) <= 0.0)
        assert 0 < got.sum() < len(probes)


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
        cover = cover_compact_by_balls(Ball((0.0, 0.0), 1.0), 0.04)
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
        cover = cover_compact_by_balls(disc, 0.02)
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


def _reference_sample(region, n: int, rng: np.random.Generator) -> np.ndarray:
    """The sampler before slicing: ``rng.uniform`` over the box, every batch tested whole.

    Membership is ``distance_to_many <= 0``, the rule before ball-by-ball tests.
    """
    lo, hi = region.bounding_box()
    out = np.empty((n, region.dimension))
    got = 0
    while got < n:
        cand = rng.uniform(lo, hi, size=(max(1024, 2 * n), region.dimension))
        good = cand[region.distance_to_many(cand) <= 0.0]
        take = min(n - got, len(good))
        out[got : got + take] = good[:take]
        got += take
    return out


def _stream_state(rng: np.random.Generator) -> str:
    """The bit generator's full state, less a used-up Philox buffer (it is never read again)."""
    state = rng.bit_generator.state
    if state.get("buffer_pos") == 4:
        del state["buffer"]
    return json.dumps(state, default=lambda a: a.tolist(), sort_keys=True)


def _stream_region(variant: str, d: int):
    rng = np.random.default_rng(d)
    if variant == "ball":
        return Ball(rng.normal(size=d), 1.3)
    if variant == "union2":
        return UnionOfBalls(rng.normal(size=(2, d)) * 0.2, [1.0, 0.5])
    if variant == "union200":
        return UnionOfBalls(rng.normal(size=(200, d)) * 0.05, rng.uniform(0.5, 1.0, 200))
    if variant == "expanded":
        return Expanded(Ball(np.zeros(d), 1.0), 0.5)
    if variant == "points_expanded":
        return FinitePoints(rng.normal(size=(5, d)) * 0.1).expand(0.7)
    # the query game's +v union: it fills 0.47 of its box, so n = 5000 needs a second batch
    inst = build_oracle_game(50.0, 1.0, 3)
    return inst.v_family.region_for(inst.v).expand(1.0)


class TestUniformSample:
    @pytest.mark.parametrize(
        "variant, d",
        [
            (variant, d)
            for variant in ["ball", "union2", "union200", "expanded", "points_expanded"]
            for d in [1, 2, 3, 8, 9]
        ]
        + [("query_union", 3)],
    )
    def test_stream_matches_reference(self, variant, d):
        region = _stream_region(variant, d)
        # in d >= 8 a box point lands in the region with probability <= 2%;
        # larger n there only repeats the same code path more slowly
        sizes = [1, 1000, 5000] if d <= 3 else [1, 1000] if variant != "union200" else [1]
        # PCG64 skips the untested rows by drawing them, Philox (rng_for) by a counter jump
        for make in (np.random.default_rng, lambda seed: rng_for(seed, "stream")):
            ours, ref = make(5), make(5)
            for n in sizes + sizes[::-1]:  # consecutive calls on one generator
                assert np.array_equal(uniform_sample(region, n, ours), _reference_sample(region, n, ref))
                assert _stream_state(ours) == _stream_state(ref)
            assert np.array_equal(ours.random(5), ref.random(5))

    def test_peak_memory_near_output(self):
        # slices are drawn as they are tested: no whole (2n, d) batch is held
        region = _stream_region("query_union", 3)
        tracemalloc.start()
        try:
            out = uniform_sample(region, 200_000, rng_for(1, "x"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * 2**20

    @pytest.mark.parametrize(
        "region, acceptance",
        [
            (Ball((0.0, 0.0), 1.0), math.pi / 4),
            (Ball((0.0, 0.0, 0.0), 1.0), math.pi / 6),
            (UnionOfBalls([(0.0, 0.0), (10.0, 0.0)], [1.0, 1.0]), 2 * math.pi / 24),
        ],
        ids=["disc", "ball3", "two-discs"],
    )
    def test_stops_testing_once_n_kept(self, monkeypatch, region, acceptance):
        masks = []
        contains_many = type(region).contains_many

        def recording(self, pts):
            masks.append(contains_many(self, pts))
            return masks[-1]

        monkeypatch.setattr(type(region), "contains_many", recording)
        n = 5000
        uniform_sample(region, n, seed=4)
        tested = np.concatenate(masks)
        needed = int(np.flatnonzero(tested)[n - 1]) + 1  # rows up to the n-th kept one
        # rows past the n-th kept one lie in the last slice, sized to what was still needed
        assert len(tested) - needed < 256 + n // 20
        assert len(tested) < n / acceptance + len(masks[-1])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            uniform_sample(Ball((0.0, 0.0), 1.0), -1, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_box_rejected_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="bounding box"):
            uniform_sample(Ball((1e308, 0.0), 1e308), 10, rng)
        assert rng.bit_generator.state == state

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


def _drawn_both_ways(make, used: int, pending: bool, m: int):
    """Two generators from ``make``, each past ``used`` doubles and, if ``pending``, an int32
    draw that leaves a 32-bit half word; one then moves ``m`` doubles on by ``_skip``, one by drawing."""
    ours, ref = make(), make()
    for rng in (ours, ref):
        rng.random(used)
        if pending:
            rng.integers(0, 10, dtype=np.int32)
    _skip(ours, m)
    ref.random(m)
    return ours, ref


class TestSkip:
    @pytest.mark.parametrize("pending", [False, True], ids=["whole-words", "pending-uint32"])
    @pytest.mark.parametrize("used", [0, 1, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 8, 4096, 4099, 1_000_000, 1_000_001])
    def test_matches_drawing_on_philox(self, m, used, pending):
        ours, ref = _drawn_both_ways(lambda: rng_for(7, "skip"), used, pending, m)
        assert isinstance(ours.bit_generator, np.random.Philox)
        assert _stream_state(ours) == _stream_state(ref)
        # the pending half word is read first, then whole outputs
        ours_next, ref_next = [
            (rng.integers(0, 2**31, 3, dtype=np.int32), rng.random(9), rng.bit_generator.random_raw(6))
            for rng in (ours, ref)
        ]
        for a, b in zip(ours_next, ref_next):
            assert np.array_equal(a, b)

    def test_carries_across_counter_words(self):
        def make():
            rng = rng_for(7, "skip")
            state = rng.bit_generator.state
            state["state"]["counter"][:] = [2**64 - 2, 2**64 - 1, 5, 0]
            rng.bit_generator.state = state
            return rng

        ours, ref = _drawn_both_ways(make, 0, False, 41)
        assert ours.bit_generator.state["state"]["counter"].tolist() == [9, 0, 6, 0]
        assert _stream_state(ours) == _stream_state(ref)

    @pytest.mark.parametrize("m", [0, 5, 2 * SLICE_FLOATS + 3])
    def test_other_generators_draw_and_drop(self, m):
        ours, ref = _drawn_both_ways(lambda: np.random.default_rng(7), 1, True, m)
        assert _stream_state(ours) == _stream_state(ref)
        assert np.array_equal(ours.random(9), ref.random(9))


class TestRegionFamily:
    def test_lookup_and_default_rule(self):
        anchor = np.array([1.0, 1.0])
        fam = RegionFamily([(anchor, Ball(anchor, 0.5))])
        assert fam.region_for(anchor).radius == 0.5

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
        anchors = [np.array([0.0, 0.0]), np.array([1e-14, 0.0]), np.array([0.0, 1e-170])]
        fam = RegionFamily([(a, Ball((0.0, 0.0), r)) for a, r in zip(anchors, [0.1, 5.0, 2.0])])
        assert [fam.region_for(a).radius for a in anchors] == [0.1, 5.0, 2.0]
        assert [fam.region_for(a).expand(1.0).radius for a in anchors] == [1.1, 6.0, 3.0]

    def test_point_key_is_exact(self):
        assert point_key((0.0, 1.0)) != point_key((1e-14, 1.0 - 1e-14))
        assert point_key((0.0, 0.0)) != point_key((0.0, 1e-170))
        assert point_key((0.0,)) == point_key((-0.0,))
        assert point_key((0.25, -3.0)) == (0.25, -3.0)


class TestInstanceExport:
    def test_export_is_json_ready_and_faithful(self):
        import json

        from robustlab.shatter_game import build_failure_instance, export_instance

        inst = build_failure_instance(1, 1.0, 2, seed=5)
        blob = json.loads(json.dumps(export_instance(inst)))
        assert blob["m"] == 1 and blob["M"] == 3
        assert len(blob["anchors"]) == 3
        for anchor, region_data in zip(blob["anchors"], blob["regions"]):
            assert region_data["kind"] == "points"
            region = FinitePoints(region_data["points"])
            assert region.contains(np.asarray(anchor))
            assert np.array_equal(region.points, inst.family.region_for(anchor).points)
