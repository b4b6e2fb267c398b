"""Robust loss classes and exhaustive shattering machinery.

The robust loss class of a hypothesis class maps each labeled point to the
0/1 robust loss of a member hypothesis; its VC dimension controls uniform
convergence of empirical robust loss.  Everything here is exhaustive and
desk-scale: pattern sets are enumerated exactly, shattered sets carry
verified witnesses, and dimension reports always distinguish a certified
upper bound from a best-found lower bound.

Each loss is evaluated once: a (hypothesis x example) 0/1 matrix is built
from :func:`~robustlab.classifiers.robust_loss_point`, the pattern of a
hypothesis on a sample is a row of it, and the pattern set on a subset is
the set of distinct rows of the matrix restricted to the subset's columns.
One column-projection search serves the robust, plain 0-1 and ordinary VC
searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .classifiers import FiniteClass, LabeledExample, robust_loss_point
from .regions import FinitePoints, Region, RegionFamily

__all__ = [
    "loss_patterns",
    "pattern_witnesses",
    "ShatterReport",
    "VcEstimate",
    "robust_vc_search",
    "zero_one_vc_search",
    "class_vc_on_points",
    "sauer_bound",
    "distinct_pattern_correspondence",
    "OverheadRow",
    "overhead_audit",
    "vball_shatter_check",
]

# Cap on the subsets one shattering search may scan.
SUBSET_BUDGET = 1_000_000


def _loss_matrix(
    cls: FiniteClass, regions: Sequence[Region], sample: Sequence[LabeledExample]
) -> np.ndarray:
    """(hypothesis x example) 0/1 robust losses, one evaluation per cell."""
    losses = [[robust_loss_point(h, reg, ex) for reg, ex in zip(regions, sample)] for h in cls]
    return np.array(losses, dtype=np.int8)


def _family_regions(family: RegionFamily, sample: Sequence[LabeledExample]) -> list[Region]:
    return [family.region_for(ex.x) for ex in sample]


def _row_witnesses(matrix: np.ndarray) -> dict[tuple[int, ...], int]:
    """Map each distinct row of the matrix to the lowest index holding it."""
    out: dict[tuple[int, ...], int] = {}
    for idx, row in enumerate(matrix.tolist()):
        out.setdefault(tuple(row), idx)
    return out


def loss_patterns(
    cls: FiniteClass, family: RegionFamily, sample: Sequence[LabeledExample]
) -> set[tuple[int, ...]]:
    """Exact set of robust-loss vectors the class realizes on the sample."""
    return set(pattern_witnesses(cls, family, sample).keys())


def pattern_witnesses(
    cls: FiniteClass, family: RegionFamily, sample: Sequence[LabeledExample]
) -> dict[tuple[int, ...], int]:
    """Map each realized loss pattern to the lowest witness index."""
    return _row_witnesses(_loss_matrix(cls, _family_regions(family, sample), sample))


@dataclass(frozen=True)
class ShatterReport:
    """Outcome of testing one candidate sample for loss-class shattering."""

    sample: tuple[LabeledExample, ...]
    achieved_patterns: int
    shattered: bool
    witness_map: dict | None

    def __post_init__(self):
        assert self.shattered == (self.achieved_patterns == 2 ** len(self.sample))


@dataclass(frozen=True)
class VcEstimate:
    """Shattering dimension as a (lower, certified-upper) pair.

    ``dimension_lower`` is the size of the largest shattered set found;
    ``dimension_upper`` is set only when every subset of the next size was
    scanned and none shattered, which certifies the exact dimension.
    """

    dimension_lower: int
    dimension_upper: int | None
    subsets_scanned: int
    budget_exceeded: bool

    def __post_init__(self):
        if self.dimension_upper is not None:
            assert self.dimension_lower <= self.dimension_upper


def _search_vc(matrix: np.ndarray, max_m: int, subset_budget: float) -> VcEstimate:
    """Shattering search over the columns of a (hypothesis x point) matrix.

    A column subset is shattered when the rows restricted to it take all
    ``2**m`` values.  Subsets are scanned by increasing size in
    lexicographic order, with early exit per size.
    """
    n = matrix.shape[1]
    lower = 0
    scanned = 0
    for m in range(1, max_m + 1):
        total = math.comb(n, m)
        if scanned + total > subset_budget:
            return VcEstimate(lower, None, scanned, True)
        found = False
        for cols in combinations(range(n), m):
            scanned += 1
            if len(_row_witnesses(matrix[:, list(cols)])) == 2**m:
                found = True
                break
        if not found:
            # no m-subset shattered, so no larger subset can be either
            return VcEstimate(lower, lower, scanned, False)
        lower = m
    return VcEstimate(lower, lower if lower < max_m else None, scanned, False)


def robust_vc_search(
    cls: FiniteClass,
    family: RegionFamily,
    universe: Sequence[LabeledExample],
    max_m: int,
) -> VcEstimate:
    """Exhaustive robust-loss-class shattering search over a finite universe.

    Scans subsets by increasing size with early exit per size; the upper
    bound is certified whenever a full size class was scanned without a
    shattered set.  Witnesses behind any reported lower bound are
    re-verifiable through :func:`pattern_witnesses`.
    """
    matrix = _loss_matrix(cls, _family_regions(family, universe), universe)
    return _search_vc(matrix, max_m, SUBSET_BUDGET)


def zero_one_vc_search(
    cls: FiniteClass,
    universe: Sequence[LabeledExample],
    max_m: int,
) -> VcEstimate:
    """Shattering search for the plain 0-1 loss class (no region machinery).

    Independent route used to cross-check the robust search in the
    degenerate singleton-region case: the pattern of a hypothesis is
    ``1[h(x) != y]`` computed directly from predictions.
    """
    matrix = np.array([[int(h.predict(ex.x) != ex.y) for ex in universe] for h in cls])
    return _search_vc(matrix, max_m, SUBSET_BUDGET)


def class_vc_on_points(cls: FiniteClass, points: np.ndarray, max_m: int | None = None) -> int:
    """Ordinary VC dimension of the class restricted to a finite point set."""
    points = np.atleast_2d(points)
    labelings = np.array([h.predict_many(points) for h in cls])
    n = len(points)
    max_m = n if max_m is None else min(max_m, n)
    return _search_vc(labelings, max_m, math.inf).dimension_lower


def sauer_bound(vc: int, n: int) -> int:
    """Exact growth-function bound: sum of binomials up to the dimension."""
    return sum(math.comb(n, i) for i in range(min(vc, n) + 1))


def distinct_pattern_correspondence(
    cls: FiniteClass, family: RegionFamily, sample: Sequence[LabeledExample]
) -> list[tuple[int, int]]:
    """Pairs with distinct loss patterns but identical labelings on the
    inflated point set (must be empty: distinct loss behavior on a sample
    forces distinct base labelings of the union of its regions)."""
    regions = _family_regions(family, sample)
    region_pts = []
    for region in regions:
        if isinstance(region, FinitePoints):
            region_pts.append(region.points)
        else:
            raise ValueError("correspondence check needs finite-point regions")
    T = np.vstack(region_pts)

    patterns = [tuple(row) for row in _loss_matrix(cls, regions, sample).tolist()]
    labelings = [tuple(h.predict_many(T).tolist()) for h in cls]
    bad = []
    for i in range(len(cls)):
        for j in range(i + 1, len(cls)):
            if patterns[i] != patterns[j] and labelings[i] == labelings[j]:
                bad.append((i, j))
    return bad


@dataclass(frozen=True)
class OverheadRow:
    """One audited cell of the region-size overhead table."""

    d: int
    k: int
    vc_lower: int
    vc_upper: int | None
    base_vc_on_regions: int
    sauer_ok: bool
    pattern_checks: int


def overhead_audit(
    instances: Sequence[tuple[int, int, FiniteClass, RegionFamily, list[LabeledExample]]],
    max_m: int = 6,
) -> list[OverheadRow]:
    """Audit the robust-VC overhead of size-k regions across instances.

    Each instance contributes: the exhaustive robust VC estimate, the
    ordinary VC of the base class on the union of all region points, and a
    growth-function check that every scanned sample's pattern count stays
    within the Sauer bound implied by that ordinary VC (zero violations
    expected; the count bound is what caps the loss-class dimension at
    d * log(d k) scale).  A subset's inflated point count is the sum of its
    examples' region sizes, repeats included.
    """
    rows = []
    for d, k, cls, family, universe in instances:
        regions = _family_regions(family, universe)
        matrix = _loss_matrix(cls, regions, universe)
        estimate = _search_vc(matrix, max_m, SUBSET_BUDGET)
        region_pts = [region.points for region in regions]
        sizes = [len(pts) for pts in region_pts]
        base_vc = class_vc_on_points(cls, np.unique(np.vstack(region_pts), axis=0))
        ok = True
        checks = 0
        for m in range(1, min(len(universe), max_m) + 1):
            for cols in combinations(range(len(universe)), m):
                n_patterns = len(_row_witnesses(matrix[:, list(cols)]))
                checks += 1
                if n_patterns > sauer_bound(base_vc, sum(sizes[i] for i in cols)):
                    ok = False
        rows.append(
            OverheadRow(d, k, estimate.dimension_lower, estimate.dimension_upper, base_vc, ok, checks)
        )
    return rows


def vball_shatter_check(
    cls: FiniteClass, radius: float, candidates: Sequence[LabeledExample]
) -> ShatterReport:
    """Robust shattering with fixed-radius ball regions.

    A subset S of the candidates is realized when some hypothesis has
    robust loss exactly 0 on S and exactly 1 off S (the two-sided
    convention).  The report records the realized subsets as patterns
    (0 on the subset, 1 off it) with verified witnesses.
    """
    from .geometry import Ball

    matrix = _loss_matrix(cls, [Ball(ex.x, radius) for ex in candidates], candidates)
    witness_map = _row_witnesses(matrix)
    achieved = len(witness_map)
    return ShatterReport(
        sample=tuple(candidates),
        achieved_patterns=achieved,
        shattered=achieved == 2 ** len(candidates),
        witness_map=witness_map,
    )
