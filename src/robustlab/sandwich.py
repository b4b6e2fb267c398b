"""Proxy-region constructions squeezed between two expansions of a base.

Given a base region, an expansion radius ``r`` and a shrink ``alpha < r``,
both builders produce a middle region nested (in robust-loss terms)
between the ``r - alpha`` and ``r`` expansions:

* :func:`build_point_sandwich` -- a finite point set: the radius-``alpha/2``
  grid-cover centers of the upper expansion that lie inside it, so every
  upper point is within ``alpha/2`` of the grid's kept nodes.  The left
  loss inequality holds for hypotheses that put every point in some
  radius-``alpha`` single-label ball, which is why the audit couples it
  with regularity certificates.
* :func:`build_ball_sandwich` -- a union of radius-``alpha/2`` balls
  covering the lower expansion, each touching it.  Set inclusions
  ``lower <= middle <= upper`` hold outright, so the loss sandwich needs no
  hypothesis assumptions.

Both builders are deterministic and take no seed:
:func:`~robustlab.geometry.cover_compact_by_balls` certifies each cover exactly.

The audit machinery evaluates the three losses exactly for every shipped
hypothesis variant and reports violations with witnesses instead of
raising, including the deliberately non-regular control that demonstrates
the left inequality really does need the regularity hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import (
    Hypothesis,
    LabeledExample,
    RegularityCertificate,
    TableClassifier,
    _loss_table,
    regularity_check,
)
from .geometry import Ball, _radius, cover_compact_by_balls, grid_cover_bound
from .regions import FinitePoints, Region, uniform_sample
from .seeding import rng_for, seed_derive

__all__ = [
    "SandwichTriple",
    "build_point_sandwich",
    "build_ball_sandwich",
    "SandwichAuditRow",
    "SandwichAuditReport",
    "sandwich_audit",
    "make_nonregular_control",
    "set_inclusion_probe",
]

# Probe points per regularity certificate in sandwich_audit.
CERTIFICATE_PROBES = 64


def _check_shrink(alpha: float, r: float) -> None:
    """Reject an ``alpha`` or ``r`` that :func:`~robustlab.geometry._radius` rejects, and ``alpha >= r``."""
    if not _radius(alpha, "alpha") < _radius(r, "r"):
        raise ValueError("need 0 < alpha < r")


@dataclass(frozen=True)
class SandwichTriple:
    """Lower expansion, proxy middle, upper expansion, and their radii."""

    lower: Region
    middle: Region
    upper: Region
    alpha: float
    r: float
    variant: str  # "points" or "balls"

    def __post_init__(self):
        _check_shrink(self.alpha, self.r)
        if self.variant not in ("points", "balls"):
            raise ValueError("variant must be 'points' or 'balls'")


def _count_bound(base: Region, r: float, alpha: float) -> int:
    # upper expansion has diameter diam(base) + 2r; cover balls have radius alpha/2
    return grid_cover_bound(base.diameter() + 2 * r, alpha / 2.0, base.dimension)


def build_point_sandwich(base: Region, r: float, alpha: float) -> SandwichTriple:
    """Finite proxy: the certified grid-cover centers of the upper expansion that lie inside it."""
    _check_shrink(alpha, r)
    upper = base.expand(r)
    lower = base.expand(r - alpha)
    cover = cover_compact_by_balls(upper, alpha / 2.0)
    inside = np.compress(upper.contains_many(cover.centers), cover.centers, axis=0)
    if len(inside) == 0:
        raise RuntimeError("no cover center fell inside the upper expansion")
    if len(cover) > _count_bound(base, r, alpha):
        raise RuntimeError("grid cover exceeded its a priori count bound")
    return SandwichTriple(lower, FinitePoints(inside), upper, alpha, r, "points")


def build_ball_sandwich(base: Region, r: float, alpha: float) -> SandwichTriple:
    """Ball-union proxy: radius-``alpha/2`` cover of the lower expansion.

    The grid cover keeps exactly the balls whose centers are within
    ``alpha/2`` of the lower expansion, i.e. the balls intersecting it, so
    ``middle <= upper`` by the triangle inequality, and the cover's
    certificate proves ``lower <= middle``.
    """
    _check_shrink(alpha, r)
    upper = base.expand(r)
    lower = base.expand(r - alpha)
    cover = cover_compact_by_balls(lower, alpha / 2.0)
    if len(cover) > _count_bound(base, r, alpha):
        raise RuntimeError("grid cover exceeded its a priori count bound")
    return SandwichTriple(lower, cover, upper, alpha, r, "balls")


@dataclass(frozen=True)
class SandwichAuditRow:
    hypothesis_index: int
    example_index: int
    loss_lower: int
    loss_middle: int
    loss_upper: int
    certificate_passed: bool

    @property
    def left_ok(self) -> bool:
        return self.loss_lower <= self.loss_middle

    @property
    def right_ok(self) -> bool:
        return self.loss_middle <= self.loss_upper


@dataclass(frozen=True)
class SandwichAuditReport:
    triple: SandwichTriple
    rows: tuple[SandwichAuditRow, ...]
    certificates: tuple[RegularityCertificate, ...]

    @property
    def violations(self) -> tuple[SandwichAuditRow, ...]:
        return tuple(row for row in self.rows if not (row.left_ok and row.right_ok))

    @property
    def certified_violations(self) -> tuple[SandwichAuditRow, ...]:
        """Violations by hypotheses whose regularity certificate passed."""
        return tuple(row for row in self.violations if row.certificate_passed)


def _certificate_domain(triple: SandwichTriple) -> Ball:
    lo, hi = triple.upper.bounding_box()
    center = (lo + hi) / 2.0
    radius = float(np.linalg.norm(hi - lo)) / 2.0 + triple.alpha
    return Ball(center, radius)


def sandwich_audit(
    triple: SandwichTriple,
    hypotheses: list[Hypothesis],
    examples: list[LabeledExample],
    seed: int,
) -> SandwichAuditReport:
    """Check the loss sandwich for every (hypothesis, example) pair.

    Each hypothesis gets a radius-``alpha`` regularity certificate probed
    over the upper expansion's bounding ball; rows record all three exact
    losses, read from one loss table whose columns are the examples on the
    lower, middle and upper regions in turn, plus the certificate verdict,
    and the report lists violating rows with their witnesses rather than
    raising.
    """
    domain = _certificate_domain(triple)
    certs = tuple(
        regularity_check(h, triple.alpha, CERTIFICATE_PROBES, domain, seed_derive(seed, f"cert-{i}"))
        for i, h in enumerate(hypotheses)
    )
    m = len(examples)
    regions = [triple.lower] * m + [triple.middle] * m + [triple.upper] * m
    lower, middle, upper = np.split(_loss_table(hypotheses, regions, list(examples) * 3), 3, axis=1)
    rows = tuple(
        SandwichAuditRow(i, j, int(lower[i, j]), int(middle[i, j]), int(upper[i, j]), certs[i].passed)
        for i, j in np.ndindex(lower.shape)
    )
    return SandwichAuditReport(triple, rows, certs)


def make_nonregular_control(
    base: Region, r: float, alpha: float, seed: int
) -> tuple[SandwichTriple, TableClassifier, LabeledExample]:
    """Build the negative control that defeats the left inequality.

    A lookup table flips the label of a single lower-expansion point that
    the finite middle misses, so the lower loss is 1 while every middle
    point still agrees with the example's label.  Its regularity
    certificate necessarily fails at the flipped point, demonstrating that
    the left inequality is carried by the regularity hypothesis.
    """
    triple = build_point_sandwich(base, r, alpha)
    candidates = uniform_sample(triple.lower, 256, rng_for(seed, "control"))
    missed = np.flatnonzero(triple.middle.distance_to_many(candidates) > 1e-6)
    if not missed.size:
        raise RuntimeError("could not find a lower point missed by the middle")
    flipped = candidates[missed[0]]
    y = 1
    control = TableClassifier([flipped], [-y], default=y)
    lo, hi = base.bounding_box()
    example = LabeledExample((lo + hi) / 2.0, y)
    return triple, control, example


def set_inclusion_probe(triple: SandwichTriple, n_probes: int, seed: int) -> tuple[int, int]:
    """Probe-verify ``lower <= middle`` and ``middle <= upper`` pointwise.

    Returns the failure counts (expected 0 for ball-variant triples; the
    finite point middle of the point variant is not a superset of the
    lower expansion, so this check targets the ball variant).
    """
    rng = rng_for(seed, "inclusion")
    lower_pts = uniform_sample(triple.lower, n_probes, rng)
    lower_fail = int(np.count_nonzero(~triple.middle.contains_many(lower_pts)))
    middle_pts = uniform_sample(triple.middle, n_probes, rng)
    upper_fail = int(np.count_nonzero(~triple.upper.contains_many(middle_pts)))
    return lower_fail, upper_fail
