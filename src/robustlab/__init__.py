"""Desk-scale laboratory for tolerant robust classification.

Building blocks: a perturbation-region algebra with exact robust losses,
RERM oracles and a tolerant learning routine, covering constructions that
squeeze finite proxies between region expansions, sphere shatter families
defeating proper learners, a sampling-oracle query game, and exhaustive
robust-VC machinery, all behind a seeded experiment harness.
"""

__version__ = "0.1.0"

from .geometry import Ball, SphereCover, cover_compact_by_balls, distance, greedy_sphere_cover
from .regions import (
    Expanded,
    FinitePoints,
    Region,
    RegionFamily,
    UnionOfBalls,
    uniform_sample,
)
from .classifiers import (
    DiscreteDistribution,
    FiniteClass,
    LabeledExample,
    LinearClassifier,
    SphereBoundary,
    TableClassifier,
    regularity_check,
    robust_loss_distribution,
    robust_loss_point,
)
from .rerm import (
    ExhaustiveFiniteOracle,
    IndexedExhaustiveOracle,
    opt_gap_audit,
    tolrerm,
)
from .sandwich import SandwichTriple, build_ball_sandwich, build_point_sandwich, sandwich_audit
from .shatter_game import (
    build_failure_instance,
    build_shatter_family,
    run_adversarial_game,
    tangent_hypothesis,
)
from .oracle_game import build_oracle_game, loss_table, measure_bound_audit, run_query_game
from .loss_vc import loss_patterns, robust_vc_search, vball_shatter_check

__all__ = [
    "__version__",
    "Ball",
    "SphereCover",
    "cover_compact_by_balls",
    "distance",
    "greedy_sphere_cover",
    "Expanded",
    "FinitePoints",
    "Region",
    "RegionFamily",
    "UnionOfBalls",
    "uniform_sample",
    "DiscreteDistribution",
    "FiniteClass",
    "LabeledExample",
    "LinearClassifier",
    "SphereBoundary",
    "TableClassifier",
    "regularity_check",
    "robust_loss_distribution",
    "robust_loss_point",
    "ExhaustiveFiniteOracle",
    "IndexedExhaustiveOracle",
    "opt_gap_audit",
    "tolrerm",
    "SandwichTriple",
    "build_ball_sandwich",
    "build_point_sandwich",
    "sandwich_audit",
    "build_failure_instance",
    "build_shatter_family",
    "run_adversarial_game",
    "tangent_hypothesis",
    "build_oracle_game",
    "loss_table",
    "measure_bound_audit",
    "run_query_game",
    "loss_patterns",
    "robust_vc_search",
    "vball_shatter_check",
]
