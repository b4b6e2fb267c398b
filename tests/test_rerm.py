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
    ExhaustiveFiniteOracle,
    IndexedExhaustiveOracle,
    make_learning_task,
    opt_gap_audit,
    tolrerm,
)
from test_classifiers import direct_loss


def ex(x, y):
    return LabeledExample(np.asarray(x, dtype=float), y)


@pytest.fixture(scope="module")
def game():
    return build_oracle_game(D=20.0, gamma=1.0, d=2)


class TestRermSolve:
    def test_picks_h1_under_plain_family(self, game):
        oracle = ExhaustiveFiniteOracle(game.cls)
        sample = list(game.dist.examples)
        sol = oracle.solve(game.u_family, sample, 0.0)
        assert sol.hypothesis is game.h1
        assert sol.achieved_loss == 0.0

    def test_picks_h2_under_side_ball_family(self, game):
        oracle = ExhaustiveFiniteOracle(game.cls)
        sample = list(game.dist.examples)
        sol = oracle.solve(game.v_family, sample, 0.0)
        assert sol.hypothesis is game.h2
        assert sol.achieved_loss == 0.5

    def test_realizable_case(self):
        anchors = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        fam = RegionFamily([(a, Ball(a, 0.1)) for a in anchors])
        cls = FiniteClass((LinearClassifier((1, 0), 0.0),))
        sample = [ex(a, 1) for a in anchors]
        assert ExhaustiveFiniteOracle(cls).solve(fam, sample, 0.0).achieved_loss == 0.0

    def test_empty_sample_rejected(self, game):
        with pytest.raises(ValueError):
            ExhaustiveFiniteOracle(game.cls).solve(game.u_family, [], 0.0)

    @pytest.mark.parametrize("r", [-1.0, np.nan])
    def test_bad_radius_rejected(self, game, r):
        sample = list(game.dist.examples)
        for oracle in (
            ExhaustiveFiniteOracle(game.cls),
            IndexedExhaustiveOracle(game.cls, game.u_family, game.dist),
        ):
            with pytest.raises(ValueError, match="nonnegative"):
                oracle.solve(game.u_family, sample, r)

    def test_tie_break_lowest_index(self):
        anchor = np.array([2.0, 0.0])
        fam = RegionFamily([(anchor, Ball(anchor, 0.1))])
        twins = FiniteClass(
            (LinearClassifier((1, 0), 0.0), LinearClassifier((1, 0), -0.5))
        )
        sol = ExhaustiveFiniteOracle(twins).solve(fam, [ex(anchor, 1)], 0.0)
        assert sol.index == 0

    def test_oracle_dominance_exhaustive(self, game):
        oracle = ExhaustiveFiniteOracle(game.cls)
        sample = list(game.dist.examples)
        for r in (0.0, 0.5, 2.0, 5.0):
            sol = oracle.solve(game.v_family, sample, r)
            expanded = game.v_family.expanded(r)
            for h in game.cls:
                losses = [robust_loss_point(h, expanded.region_for(e.x), e) for e in sample]
                assert sol.achieved_loss <= np.mean(losses)


def direct_argmin(cls, family, sample, r) -> tuple[int, float]:
    """Lowest-index minimizer of the closed-form losses on the r-expanded family."""
    expanded = family.expanded(r)
    counts = [sum(direct_loss(h, expanded.region_for(e.x), e.y) for e in sample) for h in cls]
    best = counts.index(min(counts))
    return best, counts[best] / len(sample)


class TestIndexedOracle:
    def test_matches_exhaustive_everywhere(self):
        for task_seed in range(4):
            task = make_learning_task(task_seed)
            slow = ExhaustiveFiniteOracle(task.cls)
            fast = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
            sample = task.dist.sample(40, seed=task_seed + 100)
            for r in (0.0, 0.05, 0.17, task.gamma):
                expected = direct_argmin(task.cls, task.family, sample, r)
                for oracle in (slow, fast):
                    sol = oracle.solve(task.family, sample, r)
                    assert (sol.index, sol.achieved_loss) == expected

    def test_label_noise_atoms_kept_apart(self):
        # two atoms at one point with opposite labels
        x = np.array([2.0, 0.0])
        fam = RegionFamily([(x, Ball(x, 0.1))])
        dist = DiscreteDistribution([(ex(x, 1), 1 / 3), (ex(x, -1), 2 / 3)])
        cls = FiniteClass((LinearClassifier((1, 0), 0.0), LinearClassifier((1, 0), -5.0)))
        sample = [dist.examples[0], dist.examples[1], dist.examples[1]]
        slow = ExhaustiveFiniteOracle(cls).solve(fam, sample, 0.0)
        fast = IndexedExhaustiveOracle(cls, fam, dist).solve(fam, sample, 0.0)
        assert slow.achieved_loss == pytest.approx(1 / 3)
        assert (fast.index, fast.achieved_loss) == (slow.index, slow.achieved_loss)

    def test_example_outside_support_rejected(self):
        task = make_learning_task(2)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        atom = task.dist.examples[0]
        with pytest.raises(ValueError, match="not an atom"):
            oracle.solve(task.family, [ex(atom.x.copy(), atom.y)], 0.1)

    def test_empty_sample_rejected(self):
        task = make_learning_task(2)
        oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        no_atoms = np.array([], dtype=int)
        for call in (
            lambda: oracle.solve(task.family, [], 0.1),
            lambda: oracle.solve_indices(no_atoms, 0.1),
            lambda: oracle.opt_count(no_atoms, 0.1),
        ):
            with pytest.raises(ValueError, match="empty sample"):
                call()

    def test_distribution_loss_matches_direct(self):
        from robustlab.classifiers import robust_loss_distribution

        task = make_learning_task(7)
        fast = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
        for i, h in enumerate(task.cls):
            direct = robust_loss_distribution(h, task.family, task.dist)
            assert fast.distribution_loss(i, 0.0) == pytest.approx(direct)


class TestTolRerm:
    def test_radius_interval_endpoints(self, game):
        oracle = ExhaustiveFiniteOracle(game.cls)
        rs = [
            tolrerm(oracle, game.u_family, game.dist, 1.0, 1.0, 0.7, 5, seed).r_used
            for seed in range(200)
        ]
        assert all(0.1 <= r <= 0.7 for r in rs)  # endpoints eps*delta*gamma/7, gamma
        assert min(rs) < 0.2 and max(rs) > 0.6

    def test_separated_construction_returns_optimal(self, game):
        # expanding by any r <= gamma keeps the plain family separated:
        # the margin of h1 to the core balls is 4 * gamma
        oracle = ExhaustiveFiniteOracle(game.cls)
        for seed in range(10):
            res = tolrerm(oracle, game.u_family, game.dist, 0.5, 0.5, game.gamma, 50, seed)
            assert res.hypothesis is game.h1
            from robustlab.classifiers import robust_loss_distribution

            assert robust_loss_distribution(res.hypothesis, game.u_family, game.dist) == 0.0

    def test_single_atom(self):
        anchor = np.array([0.0, 0.0])
        fam = RegionFamily([(anchor, Ball(anchor, 0.1))])
        dist = DiscreteDistribution([(ex(anchor, 1), 1.0)])
        cls = FiniteClass((LinearClassifier((1, 0), 1.0),))
        res = tolrerm(ExhaustiveFiniteOracle(cls), fam, dist, 1.0, 1.0, 0.2, 1, seed=0)
        assert res.achieved_loss == 0.0

    def test_r_used_uniform_ks(self, game):
        eps = delta = 0.5
        gamma = 0.8
        lo = eps * delta * gamma / 7.0
        oracle = ExhaustiveFiniteOracle(game.cls)
        rs = np.array(
            [
                tolrerm(oracle, game.u_family, game.dist, eps, delta, gamma, 2, s).r_used
                for s in range(800)
            ]
        )
        _, p = stats.kstest(rs, "uniform", args=(lo, gamma - lo))
        assert p > 1e-3

    def test_independent_streams(self, game):
        # same seed must reuse both streams; different seeds move both
        oracle = ExhaustiveFiniteOracle(game.cls)
        a = tolrerm(oracle, game.u_family, game.dist, 1.0, 1.0, 0.7, 5, seed=3)
        b = tolrerm(oracle, game.u_family, game.dist, 1.0, 1.0, 0.7, 5, seed=3)
        assert a.r_used == b.r_used

    def test_parameter_validation(self, game):
        oracle = ExhaustiveFiniteOracle(game.cls)
        with pytest.raises(ValueError):
            tolrerm(oracle, game.u_family, game.dist, 0.0, 0.5, 1.0, 5, 0)
        with pytest.raises(ValueError):
            tolrerm(oracle, game.u_family, game.dist, 0.5, 0.5, -1.0, 5, 0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_nonfinite_gamma_rejected(self, game, gamma):
        oracle = ExhaustiveFiniteOracle(game.cls)
        with pytest.raises(ValueError, match="gamma"):
            tolrerm(oracle, game.u_family, game.dist, 0.5, 0.5, gamma, 5, 0)


class TestOptProfile:
    def test_constant_class(self):
        anchor = np.array([5.0, 0.0])
        fam = RegionFamily([(anchor, Ball(anchor, 0.1))])
        cls = FiniteClass((LinearClassifier((1, 0), 0.0),))
        oracle = ExhaustiveFiniteOracle(cls)
        opts = [oracle.solve(fam, [ex(anchor, 1)], r).achieved_loss for r in (0.0, 1.0, 2.0)]
        assert opts == sorted(opts) == [0.0, 0.0, 0.0]

    def test_two_point_jump_at_touching_radius(self):
        # crossing oracle: center-to-boundary distance = radius + r at r = 1
        h = LinearClassifier((1.0, 0.0), 0.0)
        anchors = [np.array([-2.0, 0.0]), np.array([2.0, 0.0])]
        fam = RegionFamily([(a, Ball(a, 1.0)) for a in anchors])
        sample = [ex(anchors[0], -1), ex(anchors[1], 1)]
        oracle = ExhaustiveFiniteOracle(FiniteClass((h,)))
        opts = [oracle.solve(fam, sample, r).achieved_loss for r in (0.0, 0.5, 0.999, 1.0, 1.5)]
        assert opts == sorted(opts)
        assert opts[:3] == [0.0, 0.0, 0.0]
        assert opts[3] == 0.5  # the -1 atom touches, 0-margin is +1
        assert opts[4] == 1.0

    def test_separated_profile_flat_until_margin(self, game):
        oracle = ExhaustiveFiniteOracle(game.cls)
        sample = list(game.dist.examples)
        gamma = game.gamma
        grid = [0.0, gamma, 2 * gamma, 3.999 * gamma, 4 * gamma]
        opts = [oracle.solve(game.u_family, sample, r).achieved_loss for r in grid]
        assert opts == sorted(opts)
        assert opts[:4] == [0.0, 0.0, 0.0, 0.0]
        assert opts[4] == 0.5

    def test_exact_oracle_values_are_sample_fractions(self):
        task = make_learning_task(21)
        oracle = ExhaustiveFiniteOracle(task.cls)
        sample = task.dist.sample(17, seed=3)
        opts = [oracle.solve(task.family, sample, r).achieved_loss for r in np.linspace(0, 0.4, 6)]
        assert opts == sorted(opts)
        scaled = np.array(opts) * len(sample)
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
        audit = opt_gap_audit(lambda r: 0.25, 0.3, 0.3, 1.0, 500, seed=0)
        assert audit.frequency_ok == 1.0
        assert audit.mean_gap == 0.0

    def test_single_jump_staircase_closed_form(self):
        # oracle: for a jump of height 1/2 at s in [alpha, gamma - alpha],
        # the expected gap is (1/2) * alpha / (gamma - alpha)
        eps, delta, gamma = 0.3, 0.3, 1.0
        alpha = eps * delta * gamma / 7.0
        s = gamma / 2.0
        profile = lambda r: 0.5 if r >= s else 0.0  # noqa: E731
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
                    return float(heights[jumps <= r].sum())

                audit = opt_gap_audit(profile, eps, delta, 1.0, 2000, seed=9)
                sigma = np.sqrt(audit.target_frequency * delta / 2 / 2000)
                assert audit.frequency_ok >= audit.target_frequency - 3 * sigma
                # per-trial gaps sit in [0, 1] with mean <= bound, so the
                # empirical mean gets a 3 sigma Monte-Carlo allowance
                gap_sigma = np.sqrt(audit.mean_gap_bound / audit.trials)
                assert audit.mean_gap <= audit.mean_gap_bound + 3 * gap_sigma


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
