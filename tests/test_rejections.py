"""Input checks of the library entry points: each bad input raises its named error."""

import math

import numpy as np
import pytest

from robustlab.classifiers import (
    DiscreteDistribution,
    FiniteClass,
    LinearClassifier,
    TableClassifier,
    UnsupportedPairError,
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
from robustlab.oracle_game import build_oracle_game, run_query_game
from robustlab.regions import FinitePoints, RegionFamily
from robustlab.rerm import opt_gap_audit
from robustlab.sandwich import SandwichTriple, build_ball_sandwich
from robustlab.seeding import rng_for, uniform_sphere
from robustlab.shatter_game import build_failure_instance

BALL = Ball((0.0, 0.0), 1.0)
GAME = build_oracle_game(20.0, 1.0, 2)

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
        lambda: greedy_sphere_cover(1, 1.0, 0.5, 0), ValueError, "dimension >= 2", id="greedy_sphere_cover-d1"
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
    pytest.param(lambda: run_query_game(GAME, [-1], 10, 0), ValueError, "nonnegative", id="run_query_game-budget"),
    pytest.param(lambda: run_query_game(GAME, [0], 0, 0), ValueError, "at least one trial", id="run_query_game-trials"),
    pytest.param(
        lambda: opt_gap_audit(lambda rs: np.zeros_like(rs), 0.1, 0.1, 0.5, 99, 0),
        ValueError,
        "at least 100 trials",
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
    pytest.param(lambda: build_failure_instance(0, 1.0, 2, 0), ValueError, "m must be >= 1", id="failure-m0"),
    # C(15, 5) = 3,003 cells, over the budget of 2,000, refused before any cell is built
    pytest.param(lambda: build_failure_instance(5, 1.0, 2, 0), ValueError, "C(3m, m) = 3003", id="failure-m5"),
]


@pytest.mark.parametrize("call, error, fragment", REJECTIONS)
def test_bad_input_raises_its_error(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)

