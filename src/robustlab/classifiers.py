"""Hypotheses, labeled data, finite-support distributions, and robust loss.

The robust loss of a hypothesis on a labeled point charges 1 exactly when
some point of the perturbation region receives a label different from the
example's.  One kernel, :func:`violation_radius`, evaluates it analytically
for every hypothesis and region variant shipped here (ball extrema of linear
functions, center-distance arithmetic for sphere boundaries, enumeration
for finite structures): it returns the expansion radius at which the loss
flips to 1, so the loss at any expansion, the raw region included, is one
comparison, and experiments that need exactness get it with zero sampling
error.  ``_violation_table`` lays the kernel out over (hypothesis, example)
pairs and is the one source of robust losses over pairs: the RERM oracle
compares it against its radius, and ``_loss_table`` reads it at one radius
for every other caller, :func:`robust_loss_point` being its 1x1 case.

Boundary convention: linear hypotheses predict +1 exactly when
``<w, x> + b >= 0`` (ties to the positive side), sphere-boundary hypotheses
assign the inside label to the boundary, and regions are closed, so
zero-margin cases are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .geometry import Ball, as_point, _check_same_dim, _in_ball, _readonly
from .regions import (
    FinitePoints,
    Region,
    RegionFamily,
    _positive_measure,
    _region_balls,
    point_key,
    uniform_sample,
)
from .seeding import as_generator, uniform_sphere

__all__ = [
    "LabeledExample",
    "LinearClassifier",
    "SphereBoundary",
    "TableClassifier",
    "Hypothesis",
    "FiniteClass",
    "DiscreteDistribution",
    "UnsupportedPairError",
    "robust_loss_point",
    "robust_loss_distribution",
    "robust_loss_sampled",
    "violation_radius",
    "RegularityCertificate",
    "regularity_check",
    "linear_net_2d",
]


class UnsupportedPairError(TypeError):
    """No exact loss evaluation exists for this hypothesis/region pair."""


@dataclass(frozen=True, eq=False)
class LabeledExample:
    """A point with a binary label in {+1, -1}."""

    x: np.ndarray
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(as_point(self.x)))
        if self.y not in (-1, 1):
            raise ValueError("label must be +1 or -1")


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Halfspace classifier: predicts +1 iff <w, x> + b >= 0."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", _readonly(as_point(self.w)))
        object.__setattr__(self, "b", float(self.b))
        if not np.isfinite(self.b):
            raise ValueError("offset b must be finite")
        if np.linalg.norm(self.w) == 0:
            raise ValueError("weight vector must be nonzero")

    @property
    def dimension(self) -> int:
        return self.w.size

    def margin(self, x) -> float:
        x = as_point(x)
        _check_same_dim(x.size, self.dimension)
        return float(self.w @ x + self.b)

    def predict(self, x) -> int:
        return 1 if self.margin(x) >= 0 else -1

    def predict_many(self, pts: np.ndarray) -> np.ndarray:
        return np.where(pts @ self.w + self.b >= 0, 1, -1)

    def offset(self) -> float:
        """Distance of the decision boundary from the origin."""
        return abs(self.b) / float(np.linalg.norm(self.w))


@dataclass(frozen=True, eq=False)
class SphereBoundary:
    """Classifier whose decision boundary is a sphere.

    Points within ``radius`` of ``center`` (boundary included) receive
    ``inside_label``, all others the opposite label.
    """

    center: np.ndarray
    radius: float
    inside_label: int = 1

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(as_point(self.center)))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:  # also rejects NaN
            raise ValueError("radius must be positive")
        if self.inside_label not in (-1, 1):
            raise ValueError("inside_label must be +1 or -1")

    @property
    def dimension(self) -> int:
        return self.center.size

    def predict(self, x) -> int:
        x = as_point(x)
        _check_same_dim(x.size, self.dimension)
        return int(self.predict_many(x[None, :])[0])

    def predict_many(self, pts: np.ndarray) -> np.ndarray:
        inside = np.linalg.norm(pts - self.center, axis=1) <= self.radius
        return np.where(inside, self.inside_label, -self.inside_label)


@dataclass(frozen=True, eq=False)
class TableClassifier:
    """Finite lookup table over distinct exact points (:func:`point_key`) with a default label."""

    points: np.ndarray
    labels: np.ndarray
    default: int = 1
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        labels = np.asarray(self.labels, dtype=int)
        if len(pts) != len(labels):
            raise ValueError("points and labels must align")
        if not np.all(np.isin(labels, (-1, 1))) or self.default not in (-1, 1):
            raise ValueError("labels must be +1 or -1")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "labels", _readonly(labels.astype(float)))
        object.__setattr__(self, "_index", {point_key(p): int(l) for p, l in zip(pts, labels)})
        if len(self._index) != len(pts):
            raise ValueError("table entries must be distinct points")

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def predict(self, x) -> int:
        return self._index.get(point_key(x), self.default)

    def predict_many(self, pts: np.ndarray) -> np.ndarray:
        return np.array([self.predict(p) for p in pts])

    def flipped_points(self, y: int) -> np.ndarray:
        """Table entries whose label differs from ``y``."""
        mask = self.labels.astype(int) != y
        return self.points[mask]


Hypothesis = Union[LinearClassifier, SphereBoundary, TableClassifier]


@dataclass(frozen=True)
class FiniteClass:
    """Nonempty, explicitly enumerated hypothesis class."""

    hypotheses: tuple

    def __post_init__(self):
        hs = tuple(self.hypotheses)
        if not hs:
            raise ValueError("FiniteClass must be nonempty")
        object.__setattr__(self, "hypotheses", hs)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __getitem__(self, i: int) -> Hypothesis:
        return self.hypotheses[i]

    def __iter__(self):
        return iter(self.hypotheses)


class DiscreteDistribution:
    """Finite-support labeled distribution with exact expectations."""

    def __init__(self, atoms: list[tuple[LabeledExample, float]]):
        if not atoms:
            raise ValueError("distribution needs at least one atom")
        self.examples: tuple[LabeledExample, ...] = tuple(ex for ex, _ in atoms)
        self.probabilities = np.asarray([p for _, p in atoms], dtype=float)
        if not np.all(np.isfinite(self.probabilities) & (self.probabilities > 0)):
            raise ValueError("atom probabilities must be finite and positive")
        if abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1 within 1e-12")

    def __len__(self) -> int:
        return len(self.examples)

    @classmethod
    def uniform(cls, examples: list[LabeledExample]) -> "DiscreteDistribution":
        n = len(examples)
        return cls([(ex, 1.0 / n) for ex in examples])

    def sample_indices(self, n: int, seed) -> np.ndarray:
        rng = as_generator(seed)
        return rng.choice(len(self.examples), size=n, p=self.probabilities)

    def sample(self, n: int, seed) -> list[LabeledExample]:
        return [self.examples[i] for i in self.sample_indices(n, seed)]


def robust_loss_point(h: Hypothesis, region: Region, ex: LabeledExample) -> int:
    """0/1 robust loss of ``h`` at one labeled example, evaluated exactly.

    Returns 1 iff some point of the region is labeled differently from
    ``ex.y``: the 1x1 case of the loss table.
    """
    return int(_loss_table([h], [region], [ex])[0, 0])


def violation_radius(h: Hypothesis, region: Region, y: int) -> tuple[float, bool]:
    """Expansion radius at which the robust loss of ``h`` flips to 1.

    Returns ``(r_star, inclusive)``: the loss on the region expanded by
    ``r`` equals 1 iff ``r > r_star`` (or ``r >= r_star`` when inclusive).
    Negative values mean the unexpanded region is already violated.  This
    makes loss profiles over expansion radii exact and O(1) to query.
    A hypothesis and a region of different dimensions raise
    ``DimensionMismatch``.
    """
    if not isinstance(h, (LinearClassifier, SphereBoundary, TableClassifier)):
        raise UnsupportedPairError(f"unsupported hypothesis type {type(h).__name__}")
    centers, radii = _region_balls(region)
    _check_same_dim(h.dimension, centers.shape[1])
    if isinstance(h, TableClassifier):
        return _table_violation_radius(h, region, y)
    if isinstance(h, LinearClassifier):
        margins = (centers @ h.w + h.b) / float(np.linalg.norm(h.w))
        if y == 1:
            return float(np.min(margins - radii)), False
        return float(np.min(-margins - radii)), True
    dist = np.linalg.norm(centers - h.center, axis=1)
    if y == h.inside_label:
        return float(np.min(h.radius - dist - radii)), False
    return float(np.min(dist - radii - h.radius)), True


def _has_nontable_point(h: TableClassifier, region: Region) -> bool:
    """Whether the region contains a point that is not a table entry."""
    if _positive_measure(region):
        return True  # table entries are finitely many
    return any(point_key(c) not in h._index for c in _region_balls(region)[0])


def _table_violation_radius(h: TableClassifier, region: Region, y: int) -> tuple[float, bool]:
    candidates: list[tuple[float, bool]] = []
    flips = h.flipped_points(y)
    if len(flips):
        # a distance can round to 0 off the region: only a contained entry counts at r = 0
        nearest = float(np.min(region.distance_to_many(flips)))
        candidates.append((nearest, nearest > 0 or bool(np.any(region.contains_many(flips)))))
    if h.default != y:
        # any positive expansion has non-table points; the raw region may too
        inclusive_at_zero = _has_nontable_point(h, region)
        candidates.append((0.0, inclusive_at_zero))
    if not candidates:
        return math.inf, False
    best = min(v for v, _ in candidates)
    inclusive = any(inc for v, inc in candidates if v == best)
    return best, inclusive


def _violated(radii, inclusive, r: float):
    """Whether the loss at expansion ``r`` is 1, given flip radii and flags.

    The one statement of the boundary rule: ``r >= r_star`` when inclusive,
    ``r > r_star`` otherwise.  Works elementwise on arrays of flip radii;
    a negative or NaN ``r`` raises ``ValueError``.
    """
    if not r >= 0:
        raise ValueError("expansion radius must be nonnegative")
    return np.where(inclusive, r >= radii, r > radii)


def _violation_table(hypotheses, regions, examples) -> tuple[np.ndarray, np.ndarray]:
    """(hypothesis x example) arrays of flip radii and inclusive flags.

    Column ``j`` is ``examples[j]`` on ``regions[j]``; a region whose
    dimension differs from its example's raises ``DimensionMismatch``.
    """
    for region, ex in zip(regions, examples, strict=True):
        _check_same_dim(region.dimension, ex.x.size)
    radii = np.empty((len(hypotheses), len(examples)))
    inclusive = np.empty(radii.shape, dtype=bool)
    for i, h in enumerate(hypotheses):
        for j, (region, ex) in enumerate(zip(regions, examples)):
            radii[i, j], inclusive[i, j] = violation_radius(h, region, ex.y)
    return radii, inclusive


def _loss_table(hypotheses, regions, examples, r: float = 0.0) -> np.ndarray:
    """(hypothesis x example) int8 robust losses on the regions expanded by ``r``."""
    return _violated(*_violation_table(hypotheses, regions, examples), r).astype(np.int8)


def robust_loss_distribution(h: Hypothesis, family: RegionFamily, dist: DiscreteDistribution) -> float:
    """Exact expected robust loss: the loss row over the atoms times their probabilities."""
    regions = [family.region_for(ex.x) for ex in dist.examples]
    return float(_loss_table([h], regions, dist.examples)[0] @ dist.probabilities)


def robust_loss_sampled(
    h: Hypothesis,
    region: Region,
    ex: LabeledExample,
    n_samples: int,
    seed,
) -> int:
    """One-sided sampled loss check: may miss witnesses, never invents them.

    Finite point regions are enumerated exactly; positive-measure regions
    are probed with ``n_samples`` uniform draws.
    """
    if isinstance(region, FinitePoints):
        return int(np.any(h.predict_many(region.points) != ex.y))
    pts = uniform_sample(region, n_samples, seed)
    return int(np.any(h.predict_many(pts) != ex.y))


@dataclass(frozen=True)
class RegularityCertificate:
    """Outcome of probing whether every point sits in a constant-label ball.

    The certificate passes iff no probe failed.  It is conservative: a
    recorded failure means the displacement search could not exhibit a
    radius-``alpha`` single-label ball containing the probe, and it only
    speaks for the probed domain.
    """

    alpha: float
    probes: int
    failures: tuple
    domain: Ball

    @property
    def passed(self) -> bool:
        return len(self.failures) == 0


def regularity_check(
    h: Hypothesis,
    alpha: float,
    probes: int,
    domain: Ball,
    seed,
) -> RegularityCertificate:
    """Probe a hypothesis for radius-``alpha`` single-label balls.

    Decision rules per hypothesis type:

    * halfspaces pass at every probe for any ``alpha``: slide the ball off
      the boundary on the probe's own side (the positive side is closed, so
      boundary probes slide into it);
    * sphere boundaries pass outside probes for any ``alpha`` and inside
      probes iff ``alpha <= radius / 2`` (nearest-boundary displacement
      rule, the guarantee a reach-``radius`` boundary provides);
    * lookup tables search candidate ball centers around the probe and fail
      when every candidate ball contains a conflicting table entry.  Table
      entries inside the domain are always probed in addition to the random
      probes, since those are the only points where a table can misbehave.
    """
    if not alpha > 0:  # also rejects NaN
        raise ValueError("alpha must be positive")
    rng = as_generator(seed)
    probe_pts = uniform_sample(domain, probes, rng) if probes > 0 else np.empty((0, domain.dimension))
    if isinstance(h, TableClassifier):
        inside = [p for p in h.points if domain.contains(p)]
        if inside:
            probe_pts = np.vstack([probe_pts, np.asarray(inside)]) if len(probe_pts) else np.asarray(inside)

    failures: list[np.ndarray] = []
    for p in probe_pts:
        if not _regular_at(h, p, alpha, rng):
            failures.append(p)
    return RegularityCertificate(alpha, len(probe_pts), tuple(map(tuple, failures)), domain)


def _regular_at(h: Hypothesis, p: np.ndarray, alpha: float, rng) -> bool:
    if isinstance(h, LinearClassifier):
        return True
    if isinstance(h, SphereBoundary):
        return alpha <= h.radius / 2.0 or h.predict(p) != h.inside_label
    if isinstance(h, TableClassifier):
        y0 = h.predict(p)
        if h.default != y0:
            return False  # every candidate ball contains non-table points
        flips = h.flipped_points(y0)
        if len(flips) == 0:
            return True
        d = p.size
        dirs = np.vstack([np.zeros((1, d)), np.eye(d), -np.eye(d), uniform_sphere(2 * d, d, 1.0, rng)])
        for u in dirs:
            c = p + alpha * (1.0 - 1e-9) * u
            if not np.any(_in_ball(flips, c, alpha)):
                return True
        return False
    raise UnsupportedPairError(f"unsupported hypothesis type {type(h).__name__}")


def linear_net_2d(W: float, n_angles: int, n_offsets: int) -> list[LinearClassifier]:
    """Deterministic angle/offset grid over bounded halfspaces in the plane."""
    out = []
    for theta in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        for t in np.linspace(-W, W, n_offsets):
            out.append(LinearClassifier(w, -t))
    return out
