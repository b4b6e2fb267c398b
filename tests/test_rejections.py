"""Input checks of the library entry points: each bad input raises its named error."""

import math
import warnings

import numpy as np
import pytest

from robustlab.classifiers import (
    DiscreteDistribution,
    FiniteClass,
    LinearClassifier,
    TableClassifier,
    UnsupportedPairError,
    regularity_check,
    violation_radius,
)
from robustlab.geometry import (
    MAX_GRID_NODES,
    Ball,
    DimensionMismatch,
    as_point,
    cover_compact_by_balls,
    greedy_sphere_cover,
)
from robustlab.oracle_game import build_oracle_game, measure_bound_audit, run_query_game
from robustlab.regions import FinitePoints, RegionFamily, uniform_sample
from robustlab.rerm import IndexedExhaustiveOracle, opt_gap_audit, tolrerm
from robustlab.sandwich import SandwichTriple, build_ball_sandwich, build_point_sandwich
from robustlab.seeding import rng_for, uniform_sphere
from robustlab.shatter_game import (
    best_response_learner,
    build_failure_instance,
    build_shatter_family,
    cap_mismatch_fraction,
    run_adversarial_game,
)

BALL = Ball((0.0, 0.0), 1.0)
GAME = build_oracle_game(20.0, 1.0, 2)
ORACLE = IndexedExhaustiveOracle(GAME.cls, GAME.u_family, GAME.dist)
FAILURE = build_failure_instance(1, 1.0, 2, 0)
HALFSPACE = LinearClassifier((1.0, 0.0), 0.0)

# radii that geometry._radius rejects, with the phrase its message carries
BAD_RADII = [(True, "a real number"), (0.0, "positive"), (math.inf, "positive"), (math.nan, "positive")]

REJECTIONS = [
    pytest.param(lambda: as_point([[0.0, 0.0]]), ValueError, "1-D vector", id="as_point-2d"),
    pytest.param(lambda: as_point([0.0, math.nan]), ValueError, "non-finite", id="as_point-nan"),
    pytest.param(lambda: FinitePoints([]), ValueError, "nonempty", id="FinitePoints-empty"),
    pytest.param(lambda: FinitePoints([[0.0, math.inf]]), ValueError, "finite", id="FinitePoints-inf"),
    pytest.param(
        lambda: RegionFamily([((0.0, 0.0, 0.0), FinitePoints([[0.0, 0.0]]))]),
        DimensionMismatch,
        "anchor and region dimensions differ",
        id="RegionFamily-anchor-dimension",
    ),
    pytest.param(lambda: LinearClassifier((0.0, 0.0), 0.0), ValueError, "nonzero", id="LinearClassifier-zero-w"),
    pytest.param(
        lambda: TableClassifier([(0.0, 0.0), (1.0, 0.0)], [1]), ValueError, "align", id="TableClassifier-misaligned"
    ),
    pytest.param(lambda: FiniteClass(()), ValueError, "nonempty", id="FiniteClass-empty"),
    pytest.param(lambda: DiscreteDistribution([]), ValueError, "at least one atom", id="DiscreteDistribution-empty"),
    pytest.param(
        lambda: violation_radius(object(), BALL, 1),
        UnsupportedPairError,
        "unsupported hypothesis type object",
        id="violation_radius-unsupported",
    ),
    pytest.param(
        lambda: greedy_sphere_cover(1, 1.0, 0.5, 0),
        ValueError,
        "d must be an integer >= 2",
        id="greedy_sphere_cover-d1",
    ),
    # about 1,700 nodes per axis in d = 3, refused before the node grid is built
    pytest.param(
        lambda: cover_compact_by_balls(Ball((0.0, 0.0, 0.0), 1.0), 1e-3),
        ValueError,
        f"(> {MAX_GRID_NODES})",
        id="cover_compact_by_balls-grid-budget",
    ),
    pytest.param(lambda: uniform_sphere(3, 0, 1.0, rng_for(0, "x")), ValueError, ">= 1", id="uniform_sphere-d0"),
    pytest.param(lambda: build_oracle_game(20.0, 1.0, 0), ValueError, ">= 1", id="build_oracle_game-d0"),
    pytest.param(
        lambda: run_query_game(GAME, [-1], 10, 0),
        ValueError,
        "budget must be an integer >= 0",
        id="run_query_game-budget",
    ),
    pytest.param(
        lambda: run_query_game(GAME, [0], 0, 0),
        ValueError,
        "trials must be an integer >= 1",
        id="run_query_game-trials",
    ),
    pytest.param(
        lambda: opt_gap_audit(lambda rs: np.zeros_like(rs), 0.1, 0.1, 0.5, 99, 0),
        ValueError,
        "trials must be an integer >= 100",
        id="opt_gap_audit-99-trials",
    ),
    pytest.param(
        lambda: SandwichTriple(BALL, BALL, BALL, 0.5, 0.5, "points"), ValueError, "0 < alpha < r", id="triple-alpha"
    ),
    pytest.param(
        lambda: SandwichTriple(BALL, BALL, BALL, 0.2, 0.5, "cubes"), ValueError, "variant", id="triple-variant"
    ),
    pytest.param(
        lambda: build_ball_sandwich(BALL, r=0.5, alpha=0.5), ValueError, "0 < alpha < r", id="ball_sandwich-alpha"
    ),
    pytest.param(
        lambda: build_failure_instance(0, 1.0, 2, 0), ValueError, "m must be an integer >= 1", id="failure-m0"
    ),
    # C(15, 5) = 3,003 cells, over the budget of 2,000, refused before any cell is built
    pytest.param(lambda: build_failure_instance(5, 1.0, 2, 0), ValueError, "C(3m, m) = 3003", id="failure-m5"),
    pytest.param(
        lambda: build_oracle_game(True, 0.01, 2), ValueError, "D must be a real number", id="oracle_game-D-bool"
    ),
    pytest.param(
        lambda: build_oracle_game(math.nan, 1.0, 2), ValueError, "D must be positive and finite", id="oracle_game-D-nan"
    ),
    pytest.param(
        lambda: build_point_sandwich(BALL, 2.0, True),
        ValueError,
        "alpha must be a real number",
        id="point_sandwich-bool",
    ),
    pytest.param(
        lambda: build_ball_sandwich(BALL, 2.0, True),
        ValueError,
        "alpha must be a real number",
        id="ball_sandwich-bool",
    ),
    pytest.param(
        lambda: build_failure_instance(1, True, 2, 7), ValueError, "W must be a real number", id="failure-W-bool"
    ),
    *[
        pytest.param(
            lambda v=v: build_shatter_family(v, 2, 1, 0), ValueError, f"W must be {phrase}", id=f"shatter-W-{v}"
        )
        for v, phrase in BAD_RADII
    ],
    # the smallest positive gamma is no valid call here: at D = 20 the construction's own checks fail
    *[
        pytest.param(
            lambda v=v: build_oracle_game(20.0, v, 2),
            ValueError,
            f"gamma must be {phrase}",
            id=f"oracle_game-gamma-{v}",
        )
        for v, phrase in BAD_RADII
    ],
]


@pytest.mark.parametrize("call, error, fragment", REJECTIONS)
def test_bad_input_raises_its_error(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


# (the count's name, its least value, the entry point called with that count set to its argument)
COUNTS = [
    pytest.param("probes", 0, lambda v: regularity_check(HALFSPACE, 0.5, v, BALL, seed=0), id="regularity-probes"),
    pytest.param("n", 0, lambda v: uniform_sample(BALL, v, 0), id="uniform_sample-n"),
    pytest.param(
        "d", 2, lambda v: greedy_sphere_cover(v, 1.0, 2.5, 0, stop_factor=1, probe_count=1), id="sphere_cover-d"
    ),
    pytest.param("d", 1, lambda v: build_oracle_game(20.0, 1.0, v), id="oracle_game-d"),
    pytest.param("budget", 0, lambda v: run_query_game(GAME, [v], 1, 0), id="query_game-budget"),
    pytest.param("trials", 1, lambda v: run_query_game(GAME, [0], v, 0), id="query_game-trials"),
    pytest.param("n_mc", 1, lambda v: measure_bound_audit(GAME, v, 0), id="measure_audit-n_mc"),
    pytest.param("n", 1, lambda v: tolrerm(ORACLE, 0.5, 0.5, 1.0, v, 0), id="tolrerm-n"),
    pytest.param("trials", 100, lambda v: opt_gap_audit(np.zeros_like, 0.1, 0.1, 0.5, v, 0), id="gap_audit-trials"),
    pytest.param("d", 2, lambda v: build_shatter_family(1.0, v, 1, 0), id="shatter_family-d"),
    pytest.param("M", 1, lambda v: build_shatter_family(1.0, 2, v, 0), id="shatter_family-M"),
    pytest.param("m", 1, lambda v: build_failure_instance(v, 1.0, 2, 0), id="failure-m"),
    pytest.param(
        "n_samples", 0, lambda v: run_adversarial_game(FAILURE, best_response_learner, v, 1, 0), id="game-n_samples"
    ),
    pytest.param(
        "trials", 1, lambda v: run_adversarial_game(FAILURE, best_response_learner, 0, v, 0), id="game-trials"
    ),
    pytest.param("n", 1, lambda v: cap_mismatch_fraction(1.0, 0.1, [1.0, 0.0], v, 0), id="cap_mismatch-n"),
]


@pytest.mark.parametrize("name, least, call", COUNTS)
def test_count_is_accepted_at_its_least_and_rejected_below_or_as_a_bool(name, least, call):
    call(least)
    for bad in (least - 1, True):
        with warnings.catch_warnings(), pytest.raises(ValueError) as info:
            warnings.simplefilter("error")  # rejected before anything is computed from the count
            call(bad)
        assert str(info.value) == f"{name} must be an integer >= {least}, got {bad!r}"


def test_no_points_drawn_is_an_empty_batch():
    assert uniform_sample(BALL, 0, 0).shape == (0, 2)


RADII = [
    pytest.param("alpha", lambda v: regularity_check(HALFSPACE, v, 0, BALL, seed=0), id="regularity-alpha"),
    pytest.param("gamma", lambda v: tolrerm(ORACLE, 0.5, 0.5, v, 1, 0), id="tolrerm-gamma"),
    pytest.param("eps", lambda v: tolrerm(ORACLE, v, 0.5, 1.0, 1, 0), id="tolrerm-eps"),
    pytest.param("delta", lambda v: tolrerm(ORACLE, 0.5, v, 1.0, 1, 0), id="tolrerm-delta"),
    pytest.param("eps", lambda v: opt_gap_audit(np.zeros_like, v, 0.1, 0.5, 100, 0), id="gap_audit-eps"),
    pytest.param("alpha", lambda v: SandwichTriple(BALL, BALL, BALL, v, 0.5, "points"), id="triple-alpha"),
]


@pytest.mark.parametrize("name, call", RADII)
def test_radius_is_accepted_above_zero_and_rejected_at_zero_infinity_or_as_a_bool(name, call):
    call(math.ulp(0.0))
    for bad in (0.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)
