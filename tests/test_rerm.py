"""RERM oracles, the tolerant learner, radius profiles, and the gap audit."""

import numpy as np
import pytest
from scipy import stats

from robustlab.classifiers import (
    DiscreteDistribution,
    FiniteClass,
    LabeledExample,
    LinearClassifier,
    robust_loss_point,
)
from robustlab.geometry import Ball
from robustlab.oracle_game import build_oracle_game
from robustlab.regions import RegionFamily
from robustlab.rerm import (
    IndexedExhaustiveOracle,
    make_learning_task,
    opt_gap_audit,
    tolrerm,
)
from robustlab.seeding import rng_for, seed_derive
from test_classifiers import direct_loss


def ex(x, y):
    return LabeledExample(np.asarray(x, dtype=float), y)


@pytest.fixture(scope="module")
def game():
    return build_oracle_game(D=20.0, gamma=1.0, d=2)


def all_atoms(dist):
    return np.arange(len(dist))


class TestRermSolve:
    def test_picks_h1_under_plain_family(self, game):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        sol = oracle.solve(all_atoms(game.dist), 0.0)
        assert sol.hypothesis is game.h1
        assert sol.achieved_loss == 0.0

    def test_picks_h2_under_side_ball_family(self, game):
        oracle = IndexedExhaustiveOracle(game.cls, game.v_family, game.dist)
        sol = oracle.solve(all_atoms(game.dist), 0.0)
        assert sol.hypothesis is game.h2
        assert sol.achieved_loss == 0.5

    def test_realizable_case(self):
        anchors = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        fam = RegionFamily([(a, Ball(a, 0.1)) for a in anchors])
        dist = DiscreteDistribution.uniform([ex(a, 1) for a in anchors])
        cls = FiniteClass((LinearClassifier((1, 0), 0.0),))
        oracle = IndexedExhaustiveOracle(cls, fam, dist)
        assert oracle.solve(all_atoms(dist), 0.0).achieved_loss == 0.0

    def test_empty_sample_rejected(self, game):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        with pytest.raises(ValueError):
            oracle.solve(np.array([], dtype=int), 0.0)

    @pytest.mark.parametrize("r", [-1.0, np.nan])
    def test_bad_radius_rejected(self, game, r):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        with pytest.raises(ValueError, match="nonnegative"):
            oracle.solve(all_atoms(game.dist), r)

    def test_tie_break_lowest_index(self):
        anchor = np.array([2.0, 0.0])
        fam = RegionFamily([(anchor, Ball(anchor, 0.1))])
        dist = DiscreteDistribution([(ex(anchor, 1), 1.0)])
        twins = FiniteClass(
            (LinearClassifier((1, 0), 0.0), LinearClassifier((1, 0), -0.5))
        )
        sol = IndexedExhaustiveOracle(twins, fam, dist).solve(np.array([0]), 0.0)
        assert sol.index == 0

    def test_oracle_dominance_exhaustive(self, game):
        oracle = IndexedExhaustiveOracle(game.cls, game.v_family, game.dist)
        sample = list(game.dist.examples)
        for r in (0.0, 0.5, 2.0, 5.0):
            sol = oracle.solve(all_atoms(game.dist), r)
            for h in game.cls:
                losses = [robust_loss_point(h, expanded_region(game.v_family, e.x, r), e) for e in sample]
                assert sol.achieved_loss <= np.mean(losses)


def expanded_region(family, x, r):
    """``family.region_for(x)`` expanded by ``r``; ``r == 0`` is the region itself."""
    region = family.region_for(x)
    return region.expand(r) if r else region


def direct_argmin(cls, family, sample, r) -> tuple[int, float]:
    """Lowest-index minimizer of the closed-form losses on the r-expanded family."""
    counts = [sum(direct_loss(h, expanded_region(family, e.x, r), e.y) for e in sample) for h in cls]
    best = counts.index(min(counts))
    return best, counts[best] / len(sample)


class TestIndexedOracle:
    def test_matches_exhaustive_everywhere(self):
        for task_seed in range(4):
            task = make_learning_task(task_seed)
            oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
            sample_idx = task.dist.sample_indices(40, seed=task_seed + 100)
            sample = [task.dist.examples[i] for i in sample_idx]
            for r in (0.0, 0.05, 0.17, task.gamma):
                expected = direct_argmin(task.cls, task.family, sample, r)
                sol = oracle.solve(sample_idx, r)
                assert (sol.index, sol.achieved_loss) == expected

    def test_opt_count_over_radii_matches_one_radius_at_a_time(self):
        # radii at 0, at every sampled flip radius exactly and one ulp above it
        flags = set()
        for task_seed in range(4):
            task = make_learning_task(task_seed)
            oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
            sample_idx = task.dist.sample_indices(40, seed=task_seed + 100)
            flips = oracle._radii[:, sample_idx]
            reachable = np.isfinite(flips) & (flips >= 0)
            flags.update(oracle._incl[:, sample_idx][reachable].tolist())
            rs = np.concatenate([[0.0], flips[reachable], np.nextafter(flips[reachable], np.inf)])
            assert np.array_equal(oracle.opt_count(sample_idx, rs), [oracle.opt_count(sample_idx, r) for r in rs])
            assert np.array_equal(oracle.violated(rs), [oracle.violated(r) for r in rs])
        assert flags == {True, False}

    def test_label_noise_atoms_kept_apart(self):
        # two atoms at one point with opposite labels
        x = np.array([2.0, 0.0])
        fam = RegionFamily([(x, Ball(x, 0.1))])
        dist = DiscreteDistribution([(ex(x, 1), 1 / 3), (ex(x, -1), 2 / 3)])
        cls = FiniteClass((LinearClassifier((1, 0), 0.0), LinearClassifier((1, 0), -5.0)))
        sol = IndexedExhaustiveOracle(cls, fam, dist).solve(np.array([0, 1, 1]), 0.0)
        assert sol.achieved_loss == pytest.approx(1 / 3)
        assert sol.index == 1  # the -1 side, wrong only on the single +1 draw

    def test_empty_sample_rejected(self):
        task = make_learning_task(2)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        no_atoms = np.array([], dtype=int)
        for call in (
            lambda: oracle.solve(no_atoms, 0.1),
            lambda: oracle.opt_count(no_atoms, 0.1),
        ):
            with pytest.raises(ValueError, match="empty sample"):
                call()

    @pytest.mark.parametrize("bad", ["negative", "past_end", "float"])
    def test_bad_atom_indices_rejected(self, bad):
        task = make_learning_task(1)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        atoms = {
            "negative": np.array([0, -1]),
            "past_end": np.array([0, len(task.dist)]),
            "float": np.array([0.0, 1.0]),
        }[bad]
        for call in (oracle.solve, oracle.opt_count):
            with pytest.raises(ValueError, match="atom indices"):
                call(atoms, 0.1)

    @pytest.mark.parametrize("bad", ["negative", "past_end", "float"])
    def test_bad_hypothesis_index_rejected(self, bad):
        task = make_learning_task(1)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        h_idx = {"negative": -1, "past_end": len(task.cls), "float": np.array([0.0])}[bad]
        with pytest.raises(ValueError, match="hypothesis indices"):
            oracle.distribution_loss(h_idx, 0.1)

    @pytest.mark.parametrize("rs", [np.array([0.0, 0.25]), np.array([0.25])], ids=["two", "one"])
    def test_array_radius_rejected_where_one_is_asked_for(self, rs):
        # violated and opt_count take arrays of radii; solve and distribution_loss take one
        task = make_learning_task(1)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        for call in (lambda: oracle.solve(all_atoms(task.dist), rs), lambda: oracle.distribution_loss(0, rs)):
            with pytest.raises(ValueError, match=r"one radius, got array\(\["):
                call()
        assert oracle.opt_count(all_atoms(task.dist), rs).shape == rs.shape

    def test_distribution_loss_matches_direct(self):
        from robustlab.classifiers import robust_loss_distribution

        task = make_learning_task(7)
        fast = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        for i, h in enumerate(task.cls):
            direct = robust_loss_distribution(h, task.family, task.dist)
            assert fast.distribution_loss(i, 0.0) == direct


class TestTolRerm:
    def test_radius_interval_endpoints(self, game):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        rs = [tolrerm(oracle, 1.0, 1.0, 0.7, 5, seed).r_used for seed in range(200)]
        assert all(0.1 <= r <= 0.7 for r in rs)  # endpoints eps*delta*gamma/7, gamma
        assert min(rs) < 0.2 and max(rs) > 0.6

    def test_separated_construction_returns_optimal(self, game):
        # expanding by any r <= gamma keeps the plain family separated:
        # the margin of h1 to the core balls is 4 * gamma
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        for seed in range(10):
            res = tolrerm(oracle, 0.5, 0.5, game.gamma, 50, seed)
            assert res.hypothesis is game.h1
            from robustlab.classifiers import robust_loss_distribution

            assert robust_loss_distribution(res.hypothesis, game.u_family, game.dist) == 0.0

    def test_single_atom(self):
        anchor = np.array([0.0, 0.0])
        fam = RegionFamily([(anchor, Ball(anchor, 0.1))])
        dist = DiscreteDistribution([(ex(anchor, 1), 1.0)])
        cls = FiniteClass((LinearClassifier((1, 0), 1.0),))
        res = tolrerm(IndexedExhaustiveOracle(cls, fam, dist), 1.0, 1.0, 0.2, 1, seed=0)
        assert res.achieved_loss == 0.0

    def test_r_used_uniform_ks(self, game):
        eps = delta = 0.5
        gamma = 0.8
        lo = eps * delta * gamma / 7.0
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        rs = np.array([tolrerm(oracle, eps, delta, gamma, 2, s).r_used for s in range(800)])
        _, p = stats.kstest(rs, "uniform", args=(lo, gamma - lo))
        assert p > 1e-3

    def test_independent_streams(self):
        # the radius comes from the seed's "radius" stream alone, the sample
        # from its "sample" stream alone, and different seeds move both
        task = make_learning_task(5)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        eps = delta = 0.5
        lo = eps * delta * task.gamma / 7.0
        rs, samples = [], set()
        for seed in range(20):
            a = tolrerm(oracle, eps, delta, task.gamma, 20, seed)
            b = tolrerm(oracle, eps, delta, task.gamma, 20, seed)
            assert (a.r_used, a.index, a.achieved_loss) == (b.r_used, b.index, b.achieved_loss)
            assert a.r_used == rng_for(seed, "radius").uniform(lo, task.gamma)
            assert tolrerm(oracle, eps, delta, task.gamma, 7, seed).r_used == a.r_used
            sample = task.dist.sample_indices(20, rng_for(seed, "sample"))
            sol = oracle.solve(sample, a.r_used)
            assert (sol.index, sol.achieved_loss) == (a.index, a.achieved_loss)
            rs.append(a.r_used)
            samples.add(tuple(sample))
        assert len(set(rs)) == 20
        assert len(samples) > 1

    @pytest.mark.parametrize("task_seed", range(5))
    def test_runs_in_one_call_equal_scalar_calls_bit_for_bit(self, task_seed):
        # every benchmark sample size, each seed at several sizes, and one
        # (n, seed) pair twice
        task = make_learning_task(task_seed)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        eps = delta = 0.1
        ns = [n for n in (10, 30, 100, 300) for _ in range(4)] + [10]
        seeds = [seed_derive(task_seed, f"run-{i % 6}") for i in range(len(ns) - 1)] + [seed_derive(task_seed, "run-0")]
        runs = tolrerm(oracle, eps, delta, task.gamma, np.array(ns), seeds)
        assert isinstance(runs, list) and len(runs) == len(ns)
        assert runs[-1] == runs[0]
        for res, n, seed in zip(runs, ns, seeds):
            one = tolrerm(oracle, eps, delta, task.gamma, n, seed)
            assert res.hypothesis is one.hypothesis is task.cls[one.index]
            assert np.float64(res.r_used).tobytes() == np.float64(one.r_used).tobytes()
            assert np.float64(res.achieved_loss).tobytes() == np.float64(one.achieved_loss).tobytes()
            assert (res.index, res.n) == (one.index, n)
            # the answer is the gather-and-sum argmin over the run's own streams
            assert one.r_used == rng_for(seed, "radius").uniform(eps * delta * task.gamma / 7.0, task.gamma)
            sample = task.dist.sample_indices(n, rng_for(seed, "sample"))
            counts = oracle.violated(one.r_used)[:, sample].sum(axis=1)
            assert (one.index, one.achieved_loss) == (int(np.argmin(counts)), counts.min() / n)
            assert oracle.solve(sample.astype(np.uint32), one.r_used).index == one.index

    @pytest.mark.parametrize(
        "ns, seeds",
        [([5, 5], [1]), ([5], [1, 2]), ([], []), (5, [1, 2]), ([5, 5], 1), ([[5]], [[1]])],
        ids=["short-seeds", "short-sizes", "empty", "scalar-size", "scalar-seed", "two-dimensional"],
    )
    def test_run_lists_of_unequal_length_or_empty_rejected(self, game, ns, seeds):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        with pytest.raises(ValueError, match="equal-length nonempty"):
            tolrerm(oracle, 0.5, 0.5, 1.0, ns, seeds)

    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0), 0, -3], ids=["float", "bool", "numpy-float", "zero", "negative"])
    def test_bad_sample_size_in_a_run_list_rejected(self, game, n):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            tolrerm(oracle, 0.5, 0.5, 1.0, [5, n], [0, 1])

    def test_parameter_validation(self, game):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        with pytest.raises(ValueError):
            tolrerm(oracle, 0.0, 0.5, 1.0, 5, 0)
        with pytest.raises(ValueError):
            tolrerm(oracle, 0.5, 0.5, -1.0, 5, 0)

    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)], ids=["float", "bool", "numpy-float"])
    def test_non_integer_sample_size_rejected(self, game, n):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            tolrerm(oracle, 0.5, 0.5, 1.0, n, 0)

    def test_numpy_integer_sample_size_accepted(self, game):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        assert tolrerm(oracle, 0.5, 0.5, 1.0, np.int64(5), 3) == tolrerm(oracle, 0.5, 0.5, 1.0, 5, 3)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_nonfinite_gamma_rejected(self, game, gamma):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        with pytest.raises(ValueError, match="gamma"):
            tolrerm(oracle, 0.5, 0.5, gamma, 5, 0)


class TestOptProfile:
    def test_constant_class(self):
        anchor = np.array([5.0, 0.0])
        fam = RegionFamily([(anchor, Ball(anchor, 0.1))])
        dist = DiscreteDistribution([(ex(anchor, 1), 1.0)])
        cls = FiniteClass((LinearClassifier((1, 0), 0.0),))
        oracle = IndexedExhaustiveOracle(cls, fam, dist)
        opts = [oracle.solve(np.array([0]), r).achieved_loss for r in (0.0, 1.0, 2.0)]
        assert opts == sorted(opts) == [0.0, 0.0, 0.0]

    def test_two_point_jump_at_touching_radius(self):
        # crossing oracle: center-to-boundary distance = radius + r at r = 1
        h = LinearClassifier((1.0, 0.0), 0.0)
        anchors = [np.array([-2.0, 0.0]), np.array([2.0, 0.0])]
        fam = RegionFamily([(a, Ball(a, 1.0)) for a in anchors])
        dist = DiscreteDistribution.uniform([ex(anchors[0], -1), ex(anchors[1], 1)])
        oracle = IndexedExhaustiveOracle(FiniteClass((h,)), fam, dist)
        opts = [oracle.solve(all_atoms(dist), r).achieved_loss for r in (0.0, 0.5, 0.999, 1.0, 1.5)]
        assert opts == sorted(opts)
        assert opts[:3] == [0.0, 0.0, 0.0]
        assert opts[3] == 0.5  # the -1 atom touches, 0-margin is +1
        assert opts[4] == 1.0

    def test_separated_profile_flat_until_margin(self, game):
        oracle = IndexedExhaustiveOracle(game.cls, game.u_family, game.dist)
        gamma = game.gamma
        grid = [0.0, gamma, 2 * gamma, 3.999 * gamma, 4 * gamma]
        opts = [oracle.solve(all_atoms(game.dist), r).achieved_loss for r in grid]
        assert opts == sorted(opts)
        assert opts[:4] == [0.0, 0.0, 0.0, 0.0]
        assert opts[4] == 0.5

    def test_exact_oracle_values_are_sample_fractions(self):
        task = make_learning_task(21)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        sample_idx = task.dist.sample_indices(17, seed=3)
        opts = [oracle.solve(sample_idx, r).achieved_loss for r in np.linspace(0, 0.4, 6)]
        assert opts == sorted(opts)
        scaled = np.array(opts) * len(sample_idx)
        assert np.allclose(scaled, np.round(scaled))  # multiples of 1/|S|


class TestGapAudit:
    @pytest.mark.parametrize(
        "eps,delta,gamma",
        [
            (0.0, 0.3, 1.0),
            (2.0, 2.0, 1.0),
            (0.3, 0.0, 1.0),
            (np.nan, 0.3, 1.0),
            (0.3, np.nan, 1.0),
            (0.3, 0.3, 0.0),
            (0.3, 0.3, np.nan),
            (0.3, 0.3, np.inf),
        ],
    )
    def test_bad_parameters_rejected(self, eps, delta, gamma):
        with pytest.raises(ValueError):
            opt_gap_audit(lambda r: 0.0, eps, delta, gamma, 500, seed=0)

    def test_constant_profile(self):
        audit = opt_gap_audit(lambda r: np.full_like(r, 0.25), 0.3, 0.3, 1.0, 500, seed=0)
        assert audit.frequency_ok == 1.0
        assert audit.mean_gap == 0.0

    def test_single_jump_staircase_closed_form(self):
        # oracle: for a jump of height 1/2 at s in [alpha, gamma - alpha],
        # the expected gap is (1/2) * alpha / (gamma - alpha)
        eps, delta, gamma = 0.3, 0.3, 1.0
        alpha = eps * delta * gamma / 7.0
        s = gamma / 2.0
        profile = lambda r: np.where(r >= s, 0.5, 0.0)  # noqa: E731
        audit = opt_gap_audit(profile, eps, delta, gamma, 40_000, seed=1)
        expected = 0.5 * alpha / (gamma - alpha)
        # Bernoulli(alpha/(gamma-alpha)) scaled by 1/2: 3 sigma envelope
        sigma = 0.5 * np.sqrt((alpha / (gamma - alpha)) / 40_000)
        assert abs(audit.mean_gap - expected) <= 3 * sigma

    def test_markov_guarantee_on_random_profiles(self):
        rng = np.random.default_rng(5)
        for eps, delta in [(0.1, 0.1), (0.3, 0.3)]:
            for _ in range(10):
                jumps = np.sort(rng.uniform(0, 1, size=rng.integers(1, 6)))
                heights = rng.dirichlet(np.ones(len(jumps)))

                def profile(r, jumps=jumps, heights=heights):
                    return heights @ (jumps[:, None] <= r)

                audit = opt_gap_audit(profile, eps, delta, 1.0, 2000, seed=9)
                sigma = np.sqrt(audit.target_frequency * delta / 2 / 2000)
                assert audit.frequency_ok >= audit.target_frequency - 3 * sigma
                # per-trial gaps sit in [0, 1] with mean <= bound, so the
                # empirical mean gets a 3 sigma Monte-Carlo allowance
                gap_sigma = np.sqrt(audit.mean_gap_bound / audit.trials)
                assert audit.mean_gap <= audit.mean_gap_bound + 3 * gap_sigma

    @pytest.mark.parametrize("trials", [150.5, np.float64(200.0), True, "200"])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            opt_gap_audit(np.zeros_like, 0.3, 0.3, 1.0, trials, seed=0)

    def test_numpy_integer_trials_accepted(self):
        audit = opt_gap_audit(np.zeros_like, 0.3, 0.3, 1.0, np.int64(200), seed=0)
        assert (audit.trials, audit.frequency_ok, audit.mean_gap) == (200, 1.0, 0.0)

    @pytest.mark.parametrize(
        "profile",
        [lambda r: 0.25, lambda r: np.zeros(r.size - 1), lambda r: np.zeros((r.size, 1))],
        ids=["scalar", "short", "column"],
    )
    def test_profile_without_one_optimum_per_radius_rejected(self, profile):
        with pytest.raises(ValueError, match="one optimum per radius"):
            opt_gap_audit(profile, 0.3, 0.3, 1.0, 200, seed=0)


class TestLearningTask:
    def test_deterministic(self):
        a = make_learning_task(3)
        b = make_learning_task(3)
        assert len(a.dist) == len(b.dist)
        assert np.array_equal(a.dist.probabilities, b.dist.probabilities)

    def test_regions_cover_anchors(self):
        task = make_learning_task(11)
        for ex_ in task.dist.examples:
            assert task.family.region_for(ex_.x).contains(ex_.x)
