"""Robust loss classes and exhaustive shattering machinery.

The robust loss class of a hypothesis class maps each labeled point to the
0/1 robust loss of a member hypothesis; its VC dimension controls uniform
convergence of empirical robust loss.  Everything here is exhaustive and
desk-scale: pattern sets are enumerated exactly, shattered sets carry
verified witnesses, and dimension reports always distinguish a certified
upper bound from a best-found lower bound.

Each loss is evaluated once: the (hypothesis x example) 0/1 matrix is the
classifiers module's loss table, the pattern of a hypothesis on a sample is
a row of it, and the pattern set on a subset is the set of distinct rows of
the matrix restricted to the subset's columns.  One column-projection
search serves the robust, plain 0-1 and ordinary VC searches.

The searches and the growth-function audit count patterns a block of
subsets at a time with :func:`_pattern_counts`, over the matrix mapped once
to 0/1 bits; it must be two-valued (0/1 losses or +-1 labelings), and a
third value raises ``ValueError``.  Witness maps use :func:`_row_witnesses`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from .classifiers import FiniteClass, LabeledExample, _loss_table
from .geometry import Ball
from .regions import Region, RegionFamily

__all__ = [
    "loss_patterns",
    "pattern_witnesses",
    "ShatterReport",
    "VcEstimate",
    "robust_vc_search",
    "zero_one_vc_search",
    "class_vc_on_points",
    "sauer_bound",
    "OverheadRow",
    "overhead_audit",
    "vball_shatter_check",
]

# Cap on the subsets one shattering search, or one Sauer pass of an audit, may scan.
SUBSET_BUDGET = 1_000_000
# Pattern codes one block of :func:`_pattern_counts` holds, as ``_pair_distances`` sizes its blocks.
BLOCK_CODES = 2**20
# Codes in the first block of a size class; blocks double from here, so an early exit costs little.
FIRST_BLOCK_CODES = 2**12
# Widest subset whose pattern fits one int64 code.
MAX_SUBSET_WIDTH = 62


def _family_regions(family: RegionFamily, sample: Sequence[LabeledExample]) -> list[Region]:
    return [family.region_for(ex.x) for ex in sample]


def _row_witnesses(matrix: np.ndarray) -> dict[tuple[int, ...], int]:
    """Map each distinct row of the matrix to the lowest index holding it."""
    out: dict[tuple[int, ...], int] = {}
    for idx, row in enumerate(matrix.tolist()):
        out.setdefault(tuple(row), idx)
    return out


def _bits(matrix: np.ndarray) -> np.ndarray:
    """A two-valued matrix as (column x row) int64 bits, 1 where it differs from its first entry.

    Flipping every bit maps each subset's codes one to one, so either value
    may read 0; a third value raises.
    """
    flat = matrix.ravel()
    bits = flat != flat[:1]
    other = flat[bits]
    if np.any(other != other[:1]):
        raise ValueError(f"pattern counts need a two-valued matrix, got {len(np.unique(matrix))} values")
    return np.ascontiguousarray(bits.reshape(matrix.shape).T, dtype=np.int64)


def _pattern_counts(bits: np.ndarray, m: int):
    """``(subsets, counts)`` per block of the m-column subsets, in lexicographic order.

    ``subsets`` is a ``(b, m)`` index array into the columns of the matrix
    that :func:`_bits` mapped, and ``counts[i]`` the number of its distinct
    rows on ``subsets[i]``: the number of distinct codes
    ``sum_j bits[subsets[i, j]] << j``, counted after a sort.
    """
    if m > MAX_SUBSET_WIDTH:
        raise ValueError(f"subsets of {m} columns overflow an int64 pattern code (at most {MAX_SUBSET_WIDTH})")
    n, rows = bits.shape
    cap = max(1, BLOCK_CODES // max(1, rows))
    size = min(cap, max(1, FIRST_BLOCK_CODES // max(1, rows)))
    subsets = combinations(range(n), m)
    while len(block := np.fromiter(chain.from_iterable(islice(subsets, size)), np.intp).reshape(-1, m)):
        codes = bits[block[:, 0]]
        for j in range(1, m):
            codes |= bits[block[:, j]] << j
        codes.sort(axis=1)
        yield block, np.count_nonzero(codes[:, 1:] != codes[:, :-1], axis=1) + 1
        size = min(cap, 2 * size)


def loss_patterns(
    cls: FiniteClass, family: RegionFamily, sample: Sequence[LabeledExample]
) -> set[tuple[int, ...]]:
    """Exact set of robust-loss vectors the class realizes on the sample."""
    return set(pattern_witnesses(cls, family, sample).keys())


def pattern_witnesses(
    cls: FiniteClass, family: RegionFamily, sample: Sequence[LabeledExample]
) -> dict[tuple[int, ...], int]:
    """Map each realized loss pattern to the lowest witness index."""
    return _row_witnesses(_loss_table(cls, _family_regions(family, sample), sample))


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


def _search_vc(bits: np.ndarray, max_m: int, subset_budget: float) -> VcEstimate:
    """Shattering search over the columns of a (hypothesis x point) matrix mapped by :func:`_bits`.

    A column subset is shattered when the rows restricted to it take all
    ``2**m`` values.  Subsets are scanned by increasing size in
    lexicographic order, a block at a time through :func:`_pattern_counts`,
    with early exit per size: the first shattered subset of a block counts
    the block's subsets up to and including it as scanned.
    """
    n = bits.shape[0]
    lower = 0
    scanned = 0
    for m in range(1, max_m + 1):
        total = math.comb(n, m)
        if scanned + total > subset_budget:
            return VcEstimate(lower, None, scanned, True)
        found = False
        for block, counts in _pattern_counts(bits, m):
            hits = np.flatnonzero(counts == 2**m)
            found = len(hits) > 0
            scanned += int(hits[0]) + 1 if found else len(block)
            if found:
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
    matrix = _loss_table(cls, _family_regions(family, universe), universe)
    return _search_vc(_bits(matrix), max_m, SUBSET_BUDGET)


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
    return _search_vc(_bits(matrix), max_m, SUBSET_BUDGET)


def class_vc_on_points(cls: FiniteClass, points: np.ndarray) -> int:
    """Ordinary VC dimension of the class restricted to a finite point set."""
    points = np.atleast_2d(points)
    labelings = np.array([h.predict_many(points) for h in cls])
    return _search_vc(_bits(labelings), len(points), math.inf).dimension_lower


def sauer_bound(vc: int, n: int) -> int:
    """Exact growth-function bound: sum of binomials up to the dimension."""
    return sum(math.comb(n, i) for i in range(min(vc, n) + 1))


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
    max_m: int,
) -> list[OverheadRow]:
    """Audit the robust-VC overhead of size-k regions across instances.

    Each instance contributes: the ordinary VC of the base class on the union
    of all region points, a growth-function check that every scanned sample's
    pattern count stays within the Sauer bound implied by that ordinary VC
    (zero violations expected; the count bound is what caps the loss-class
    dimension at d * log(d k) scale), and the robust VC estimate.  A subset's
    inflated point count is the sum of its examples' region sizes, repeats
    included.  The check scans every subset of 1 to ``max_m`` examples a block
    at a time through :func:`_pattern_counts`, against a table of
    ``sauer_bound(base_vc, t)`` per inflated total ``t``, and raises
    ``ValueError`` when that is more than ``SUBSET_BUDGET`` subsets.
    Shattering is closed under subsets, so ``vc_lower`` is the largest ``m``
    with a count of ``2**m``, certified as ``vc_upper`` below ``max_m``.
    """
    rows = []
    for d, k, cls, family, universe in instances:
        subsets = sauer_bound(max_m, len(universe)) - 1  # every subset of 1 to max_m examples
        if subsets > SUBSET_BUDGET:
            raise ValueError(f"the Sauer check would scan {subsets:,} subsets, over the budget of {SUBSET_BUDGET:,}")
        regions = _family_regions(family, universe)
        bits = _bits(_loss_table(cls, regions, universe))
        region_pts = [region.points for region in regions]
        sizes = np.array([len(pts) for pts in region_pts])
        base_vc = class_vc_on_points(cls, np.unique(np.vstack(region_pts), axis=0))
        # a count never exceeds the row count, so capping the bound there keeps the table in int64
        caps = np.array([min(sauer_bound(base_vc, t), len(cls)) for t in range(sizes.sum() + 1)])
        ok, checks, vc = True, 0, 0
        for m in range(1, min(len(universe), max_m) + 1):
            for block, counts in _pattern_counts(bits, m):
                checks += len(block)
                ok = ok and not np.any(counts > caps[sizes[block].sum(axis=1)])
                vc = m if np.any(counts == 2**m) else vc
        rows.append(OverheadRow(d, k, vc, vc if vc < max_m else None, base_vc, ok, checks))
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
    matrix = _loss_table(cls, [Ball(ex.x, radius) for ex in candidates], candidates)
    witness_map = _row_witnesses(matrix)
    achieved = len(witness_map)
    return ShatterReport(
        sample=tuple(candidates),
        achieved_patterns=achieved,
        shattered=achieved == 2 ** len(candidates),
        witness_map=witness_map,
    )
