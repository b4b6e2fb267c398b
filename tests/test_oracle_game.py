"""Two-anchor distinguishing construction and the query-budget game."""

import dataclasses

import numpy as np
import pytest

from robustlab.oracle_game import (
    QuerySweepResult,
    build_oracle_game,
    detection_threshold,
    loss_table,
    measure_bound_audit,
    run_query_game,
    wilson_interval,
)
from robustlab.regions import RegionFamily, UnionOfBalls, uniform_sample
from robustlab.seeding import rng_for


def _expanded(inst):
    """The gamma-expanded +v V region and the gamma-expanded U cores of +v and -v."""
    cores = [inst.u_family.region_for(a).expand(inst.gamma) for a in (inst.v, -inst.v)]
    return inst.v_family.region_for(inst.v).expand(inst.gamma), *cores


def _reference_query_game(inst, budgets, trials, seed):
    """The query game as it plays with whole points, the reference for ``run_query_game``.

    Each chunk draws its points with ``uniform_sample``, mirrors the draws
    at the -v anchor (odd draw indices), and tests every point against both
    expanded U cores with ``contains_many``.
    """
    budgets_arr = np.asarray(sorted(int(b) for b in budgets))
    rng = rng_for(seed, "query-game")
    max_budget = int(budgets_arr.max(initial=0))
    n_v = int((rng.random(trials) < 0.5).sum())
    region, core_plus, core_minus = _expanded(inst)
    detect = np.full(n_v, np.inf)
    anchor_queries = np.zeros(2, dtype=np.int64)
    anchor_detects = np.zeros(2, dtype=np.int64)
    alive = np.arange(n_v)
    offset, chunk = 0, 64
    while alive.size and offset < max_budget:
        k = min(chunk, max_budget - offset)
        pts = uniform_sample(region, alive.size * k, rng).reshape(alive.size, k, inst.d)
        parity = (np.arange(offset, offset + k) % 2).astype(bool)
        pts[:, parity, 0] *= -1.0
        flat = pts.reshape(-1, inst.d)
        outside = ~(core_plus.contains_many(flat) | core_minus.contains_many(flat))
        outside = outside.reshape(alive.size, k)
        any_hit = outside.any(axis=1)
        first = np.where(any_hit, outside.argmax(axis=1), k)
        spent = np.where(any_hit, first + 1, k)
        odd = np.sum((offset + spent) // 2 - offset // 2)
        anchor_queries += (np.sum(spent) - odd, odd)
        hit_at = offset + first[any_hit]
        anchor_detects += np.bincount(hit_at % 2, minlength=2)
        detect[alive[any_hit]] = hit_at + 1
        alive = alive[~any_hit]
        offset += k
        chunk = min(2 * chunk, 4096)
    undetected = [int(np.count_nonzero(detect > b)) for b in budgets_arr]
    cis = np.array([wilson_interval(u, trials) for u in undetected]).reshape(-1, 2)
    return QuerySweepResult(
        inst.D,
        inst.gamma,
        inst.d,
        budgets_arr,
        np.array([0.5 * u / trials for u in undetected]),
        0.5 * cis[:, 0],
        0.5 * cis[:, 1],
        trials,
        tuple(int(q) for q in anchor_queries),
        tuple(int(q) for q in anchor_detects),
        seed,
    )


def _assert_same_result(got, want):
    for field in dataclasses.fields(QuerySweepResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


@pytest.fixture(scope="module")
def inst():
    return build_oracle_game(D=20.0, gamma=1.0, d=2)


class TestBuild:
    def test_derived_geometry(self, inst):
        # D=20, gamma=1: D0=11, v=(9.5, 0), side anchor (2, 0)
        assert inst.D0 == 11.0
        assert np.allclose(inst.v, [9.5, 0.0])
        assert np.allclose(inst.v_prime, [2.0, 0.0])
        region = inst.v_family.region_for(inst.v)
        assert isinstance(region, UnionOfBalls)
        radii = sorted(region.radii.tolist())
        assert radii == [2.5, 5.5]

    def test_gamma_expansion_shapes(self, inst):
        grown = inst.v_family.region_for(inst.v).expand(1.0)
        radii = sorted(grown.radii.tolist())
        assert radii == [3.5, 6.5]

    def test_core_disjointness(self, inst):
        # distance 19 between anchors exceeds the radius sum 11
        gap = np.linalg.norm(inst.v - (-inst.v))
        assert gap == pytest.approx(19.0)
        assert gap > 2 * (inst.D0 / 2)

    def test_side_balls_overlap(self, inst):
        # side anchors at distance 4 with radii 2.5 + 2.5 = 5
        assert np.linalg.norm(inst.v_prime - (-inst.v_prime)) == pytest.approx(4.0)
        plus = inst.v_family.region_for(inst.v)
        minus = inst.v_family.region_for(-inst.v)
        meeting = np.zeros(inst.d)
        assert plus.contains(meeting) and minus.contains(meeting)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_oracle_game(D=9.0, gamma=1.0, d=2)


class TestLossTable:
    def test_exact_values(self, inst):
        table = loss_table(inst)
        assert table[("U", "h1")] == 0.0
        assert table[("U", "h2")] == 0.5
        assert table[("V", "h1")] == 1.0
        assert table[("V", "h2")] == 0.5


class TestMeasureAudit:
    def test_one_dimensional_exact_match(self):
        inst = build_oracle_game(D=20.0, gamma=1.0, d=1)
        audit = measure_bound_audit(inst, 200_000, seed=0)
        # interval oracle: lengths 4.5 extra over a union of span 17.5
        assert audit.exact == pytest.approx(4.5 / 17.5)
        assert abs(audit.p_hat - audit.exact) <= 3 * audit.sigma

    def test_safe_bound_holds_everywhere(self):
        for d in (1, 2, 3):
            for D in (20.0, 50.0):
                inst = build_oracle_game(D=D, gamma=1.0, d=d)
                audit = measure_bound_audit(inst, 100_000, seed=d)
                assert audit.p_hat <= audit.safe_bound + 3 * audit.sigma
                assert audit.nominal_bound == pytest.approx((3.5 / inst.D0) ** d)
                assert audit.safe_bound == pytest.approx((7.0 / inst.D0) ** d)

    def test_high_dimension_rejected(self):
        inst = build_oracle_game(D=20.0, gamma=1.0, d=5)
        with pytest.raises(ValueError, match="d <= 4"):
            measure_bound_audit(inst, 1000, seed=0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_p_hat_is_the_sampled_points_fraction(self, d):
        # the audit keeps one verdict per draw; the reference keeps the points
        for D, seed in [(20.0, d), (50.0, 10 + d)]:
            inst = build_oracle_game(D=D, gamma=1.0, d=d)
            region, core_plus, core_minus = _expanded(inst)
            pts = uniform_sample(region, 30_000, rng_for(seed, "measure"))
            outside = ~(core_plus.contains_many(pts) | core_minus.contains_many(pts))
            assert measure_bound_audit(inst, 30_000, seed).p_hat.hex() == float(np.mean(outside)).hex()

    def test_samples_from_plain_family_never_distinguish(self, inst):
        # draws from the expanded U regions always stay inside them, which
        # justifies skipping sampling on U-trials in the game
        region = inst.u_family.region_for(inst.v).expand(inst.gamma)
        pts = uniform_sample(region, 20_000, seed=3)
        assert np.all(region.contains_many(pts))


class TestQueryGame:
    def test_budget_zero_excess_quarter(self, inst):
        result = run_query_game(inst, [0], trials=4000, seed=0)
        # zero queries leave the learner with the prior: excess 1/4
        assert abs(result.excess_error[0] - 0.25) < 0.03

    def test_curve_nonincreasing(self, inst):
        result = run_query_game(inst, [0, 1, 2, 4, 8, 16, 32], trials=2000, seed=1)
        assert np.all(np.diff(result.excess_error) <= 1e-12)

    def test_large_budget_detects(self, inst):
        result = run_query_game(inst, [0, 64], trials=2000, seed=2)
        assert result.excess_error[-1] < 0.02

    def test_anchor_tallies_match_detection_curve(self):
        # with every budget 0..B on the grid, the curve gives how many V-trials
        # first distinguish at each draw index b (draw b is at -v when b is odd);
        # at D = 50 some trials outlast the first two draw chunks (64 and 128)
        B, trials = 200, 1000
        result = run_query_game(build_oracle_game(50.0, 1.0, 2), list(range(B + 1)), trials=trials, seed=8)
        undetected = np.rint(2 * trials * result.excess_error).astype(int)
        hits = undetected[:-1] - undetected[1:]
        b = np.arange(B)
        # a trial first distinguishing at b spent draws 0..b; one never distinguishing spent all B
        queries = (
            int(hits @ (b // 2 + 1)) + undetected[-1] * ((B + 1) // 2),
            int(hits @ ((b + 1) // 2)) + undetected[-1] * (B // 2),
        )
        assert 0 < undetected[-1] < hits.sum()
        assert result.anchor_queries == queries
        assert result.anchor_detections == (int(hits[0::2].sum()), int(hits[1::2].sum()))

    def test_anchor_symmetry(self, inst):
        result = run_query_game(inst, [64], trials=4000, seed=3)
        q = result.anchor_queries
        det = result.anchor_detections
        rates = [det[i] / q[i] for i in range(2)]
        pooled = sum(det) / sum(q)
        sigma = np.sqrt(pooled * (1 - pooled) * (1 / q[0] + 1 / q[1]))
        assert abs(rates[0] - rates[1]) <= 3 * max(sigma, 1e-6)

    def test_decay_matches_measured_mass(self, inst):
        # independent oracle: excess at budget k should track
        # (1/4) * (1 - p)**k with p measured by the volume audit
        audit = measure_bound_audit(inst, 300_000, seed=4)
        result = run_query_game(inst, [1, 2, 4, 8], trials=6000, seed=5)
        for k, e in zip(result.budgets, result.excess_error):
            target = 0.25 * (1 - audit.p_hat) ** k
            se = 0.5 * np.sqrt(2 * target * (1 - 2 * target) / result.trials) + 1e-4
            assert abs(e - target) <= 4 * se

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "budgets", [[0, 1, 3, 63, 64, 65, 127, 128, 150, 192, 200], [0]], ids=["to-200", "zero"]
    )
    def test_matches_the_whole_point_reference(self, d, budgets):
        # a maximum budget of 200 crosses the 64- and 128-draw chunk ends
        for D, seed, trials in [(20.0, 21, 300), (50.0, 22, 400), (50.0, 23, 257)]:
            inst = build_oracle_game(D=D, gamma=1.0, d=d)
            _assert_same_result(
                run_query_game(inst, budgets, trials, seed), _reference_query_game(inst, budgets, trials, seed)
            )

    def test_core_that_is_not_ball_zero_is_tested_on_its_own(self):
        # with the V balls listed side ball first, ball 0 is not the +v core,
        # so the core is tested by itself; the region and the game are unchanged
        inst = build_oracle_game(D=50.0, gamma=1.0, d=2)
        swapped = RegionFamily(
            [
                (a, UnionOfBalls([s, a], [2.5, inst.D0 / 2.0]))
                for a, s in ((inst.v, inst.v_prime), (-inst.v, -inst.v_prime))
            ]
        )
        other = dataclasses.replace(inst, v_family=swapped)
        budgets = [0, 5, 70, 200]
        got = run_query_game(other, budgets, 300, 24)
        _assert_same_result(got, _reference_query_game(other, budgets, 300, 24))
        _assert_same_result(got, run_query_game(inst, budgets, 300, 24))

    def test_draws_inside_the_other_core_do_not_escape(self):
        # build_oracle_game's side ball misses the -v core; a third ball inside
        # it gives draws that leave the +v core and still do not escape
        inst = build_oracle_game(D=50.0, gamma=1.0, d=2)
        extra = RegionFamily(
            [
                (a, UnionOfBalls([a, s, -a], [inst.D0 / 2.0, 2.5, 10.0]))
                for a, s in ((inst.v, inst.v_prime), (-inst.v, -inst.v_prime))
            ]
        )
        other = dataclasses.replace(inst, v_family=extra)
        budgets = [0, 1, 2, 30, 200]
        got = run_query_game(other, budgets, 300, 25)
        _assert_same_result(got, _reference_query_game(other, budgets, 300, 25))
        assert got.excess_error[-1] > run_query_game(inst, budgets, 300, 25).excess_error[-1]

    def test_reproducible(self, inst):
        a = run_query_game(inst, [0, 4, 16], trials=500, seed=9)
        b = run_query_game(inst, [0, 4, 16], trials=500, seed=9)
        assert np.array_equal(a.excess_error, b.excess_error)

    @pytest.mark.parametrize(
        "budgets, match",
        [
            ([], "at least one budget"),
            ([2.7, 1, 1, True], "integers"),
            ([4.0, 8], "integers"),
            ([1, True], "integers"),
            ([1, 2, 1], "distinct"),
            ([np.int64(4), 4], "distinct"),
        ],
        ids=["empty", "float-and-bool", "integral-float", "bool", "repeated", "repeated-numpy"],
    )
    def test_bad_budgets_rejected(self, inst, budgets, match):
        with pytest.raises(ValueError, match=match):
            run_query_game(inst, budgets, trials=10, seed=0)

    @pytest.mark.parametrize("trials", [2.5, 10.0, True, "10"], ids=["fraction", "float", "bool", "str"])
    def test_bad_trials_rejected(self, inst, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_query_game(inst, [1], trials=trials, seed=0)

    def test_numpy_integer_budgets_accepted(self, inst):
        grid = sorted(set([0] + list(np.geomspace(1, 64, 8).astype(int))))
        result = run_query_game(inst, grid, trials=np.int64(300), seed=9)
        plain = run_query_game(inst, [int(b) for b in grid], trials=300, seed=9)
        assert result.budgets.tolist() == plain.budgets.tolist() == [int(b) for b in grid]
        assert np.array_equal(result.excess_error, plain.excess_error)

    def test_threshold_interpolation(self, inst):
        result = run_query_game(inst, [1, 2, 4, 8, 16, 32, 64], trials=3000, seed=6)
        k_star = detection_threshold(result)
        assert k_star is not None
        # analytic crossing near ln(2)/p for the measured mass
        audit = measure_bound_audit(inst, 200_000, seed=7)
        k_pred = np.log(2) / -np.log1p(-audit.p_hat)
        assert 0.4 * k_pred <= k_star <= 2.5 * k_pred


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(50, 100)
        assert 0.4 < lo < 0.5 < hi < 0.6
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05

    def test_no_trials_give_the_whole_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestDetectionThreshold:
    @staticmethod
    def curve(excess):
        n = len(excess)
        budgets, excess = np.array([1, 2, 4, 8][:n]), np.array(excess)
        return QuerySweepResult(20.0, 1.0, 2, budgets, excess, excess, excess, 100, (0, 0), (0, 0), 0)

    def test_none_when_the_curve_stays_above_an_eighth(self):
        assert detection_threshold(self.curve([0.25, 0.2, 0.125])) is None

    def test_first_budget_when_the_curve_starts_below_an_eighth(self):
        assert detection_threshold(self.curve([0.1, 0.05, 0.0])) == 1.0
