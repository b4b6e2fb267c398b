"""Desk-scale laboratory for tolerant robust classification.

Building blocks: a perturbation-region algebra with exact robust losses,
RERM oracles and a tolerant learning routine, covering constructions that
squeeze finite proxies between region expansions, sphere shatter families
defeating proper learners, a sampling-oracle query game, and exhaustive
robust-VC machinery, all behind a seeded experiment harness.

The package namespace is lazy: ``robustlab.<name>`` imports the module
that owns ``name`` on first use, so ``import robustlab`` loads neither numpy
nor any submodule.  The name is read from its module on every access, never
stored here, so a later rebinding in the owning module is what it returns.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_OWNERS = {
    "geometry": ("Ball", "SphereCover", "cover_compact_by_balls", "distance", "greedy_sphere_cover"),
    "regions": ("Expanded", "FinitePoints", "Region", "RegionFamily", "UnionOfBalls", "uniform_sample"),
    "classifiers": (
        "DiscreteDistribution", "FiniteClass", "LabeledExample", "LinearClassifier", "SphereBoundary",
        "TableClassifier", "regularity_check", "robust_loss_distribution", "robust_loss_point",
    ),
    "rerm": ("IndexedExhaustiveOracle", "opt_gap_audit", "tolrerm"),
    "sandwich": ("SandwichTriple", "build_ball_sandwich", "build_point_sandwich", "sandwich_audit"),
    "shatter_game": ("build_failure_instance", "build_shatter_family", "run_adversarial_game", "tangent_hypothesis"),
    "oracle_game": ("build_oracle_game", "loss_table", "measure_bound_audit", "run_query_game"),
    "loss_vc": ("loss_patterns", "robust_vc_search", "vball_shatter_check"),
}
_MODULE_OF = {name: module for module, names in _OWNERS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return list(__all__)
