"""Hypotheses, labeled data, finite-support distributions, and robust loss.

The robust loss of a hypothesis on a labeled point charges 1 exactly when
some point of the perturbation region receives a label different from the
example's.  It is evaluated analytically for every hypothesis and region
variant shipped here (ball extrema of linear functions, center-distance
arithmetic for sphere boundaries, enumeration for finite structures) as the
expansion radius at which the loss flips to 1, so the loss at any
expansion, the raw region included, is one comparison, and experiments
that need exactness get it with zero sampling error.

``_violation_table`` holds the one flip-radius formula per hypothesis type,
laid out over (hypothesis, example) pairs.  Every row, halfspace, sphere or
lookup table, is one numpy pass over the stacked balls of all regions, each
column reduced over its own balls, and :func:`violation_radius` is the
table's 1x1 case for every type.  The table is the one source of robust
losses over pairs: the RERM oracle compares it against its radius, and
``_loss_table`` reads it on the raw regions for every other caller,
:func:`robust_loss_point` being its 1x1 case.

:class:`DiscreteDistribution` draws atom indices by searching a CDF it
normalises once, on construction; its ``probabilities`` are read-only.

Boundary convention: linear hypotheses predict +1 exactly when
``<w, x> + b >= 0`` (ties to the positive side), sphere-boundary hypotheses
assign the inside label to the boundary, and regions are closed, so
zero-margin cases are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .geometry import Ball, as_point, _batch, _check_same_dim, _count, _is_integer, _norms
from .geometry import _order, _pair_distances, _radius, _readonly, _sq_norms, _union_distances
from .regions import Region, RegionFamily, _region_balls, uniform_sample
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
    "violation_radius",
    "RegularityCertificate",
    "regularity_check",
    "linear_net_2d",
]


class UnsupportedPairError(TypeError):
    """No exact loss evaluation exists for this hypothesis/region pair."""


def _check_label(y, name: str = "label") -> None:
    """Raise ``ValueError`` unless ``y`` is the integer +1 or -1; a bool is no label."""
    if not (_is_integer(y) and y in (-1, 1)):
        raise ValueError(f"{name} must be +1 or -1, got {y!r}")


@dataclass(frozen=True, eq=False)
class LabeledExample:
    """A point with a binary label in {+1, -1}."""

    x: np.ndarray
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(as_point(self.x)))
        _check_label(self.y)


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Halfspace classifier: predicts +1 iff <w, x> + b >= 0.

    Every margin, of one point, of a batch or of the balls in the loss
    table, is :meth:`_margins` of its rows: each row's products are added
    on their own, as ``geometry._sq_norms`` adds squares, so a point gets
    the same bits alone and in any batch, and prediction and robust loss
    agree on points of the decision boundary.
    """

    w: np.ndarray
    b: float
    _w_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "w", _readonly(as_point(self.w)))
        object.__setattr__(self, "b", float(self.b))
        if not np.isfinite(self.b):
            raise ValueError("offset b must be finite")
        object.__setattr__(self, "_w_norm", float(np.linalg.norm(self.w)))
        if self._w_norm == 0:
            raise ValueError("weight vector must be nonzero")

    @property
    def dimension(self) -> int:
        return self.w.size

    def margin(self, x) -> float:
        x = as_point(x)
        _check_same_dim(x.size, self.dimension)
        return float(self._margins(x[None, :])[0])

    def predict(self, x) -> int:
        return 1 if self.margin(x) >= 0 else -1

    def predict_many(self, pts: np.ndarray) -> np.ndarray:
        return np.where(self._margins(_batch(pts, self.dimension)) >= 0, 1, -1)

    def _margins(self, pts: np.ndarray) -> np.ndarray:
        """``<w, x> + b`` for each row ``x`` of an ``(n, d)`` array."""
        return _sq_norms(np.multiply(pts, self.w, order=_order(self.dimension))) + self.b

    def offset(self) -> float:
        """Distance of the decision boundary from the origin."""
        return abs(self.b) / self._w_norm


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
        object.__setattr__(self, "radius", _radius(self.radius, "radius"))
        _check_label(self.inside_label, "inside_label")

    @property
    def dimension(self) -> int:
        return self.center.size

    def predict(self, x) -> int:
        x = as_point(x)
        _check_same_dim(x.size, self.dimension)
        return int(self.predict_many(x[None, :])[0])

    def predict_many(self, pts: np.ndarray) -> np.ndarray:
        diff = np.subtract(_batch(pts, self.dimension), self.center, order=_order(self.dimension))
        return np.where(_norms(diff) <= self.radius, self.inside_label, -self.inside_label)


@dataclass(frozen=True, eq=False)
class TableClassifier:
    """Finite lookup table over distinct finite points (equal as floats, ``-0.0 == 0.0``) with a default label."""

    points: np.ndarray
    labels: np.ndarray
    default: int = 1

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        labels = np.asarray(self.labels)
        if len(pts) != len(labels):
            raise ValueError("points and labels must align")
        integers = all(map(_is_integer, np.asarray(self.labels, dtype=object).flat))  # a bool is no label
        if not integers or not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be integers +1 or -1")
        _check_label(self.default, "default")
        if pts.ndim != 2 or pts.shape[1] == 0 or not np.isfinite(pts).all():
            raise ValueError(f"table entries must be finite points of dimension >= 1, got shape {pts.shape}")
        if len(set(map(tuple, pts.tolist()))) != len(pts):  # Python floats: -0.0 == 0.0, equal hashes
            raise ValueError("table entries must be distinct points")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "labels", _readonly(labels.astype(float)))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def predict(self, x) -> int:
        return int(self.predict_many(as_point(x)[None, :])[0])

    def predict_many(self, pts: np.ndarray) -> np.ndarray:
        """Each row's entry label, matched entry by entry, and the default off the table."""
        pts = _batch(pts, self.dimension)
        out = np.full(len(pts), self.default)
        for entry, label in zip(self.points, self.labels):
            out[np.all(pts == entry, axis=1)] = label
        return out


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
    """Finite-support labeled distribution with exact expectations.

    ``probabilities`` is read-only: the normalised CDF that
    :meth:`sample_indices` searches is computed from it once, here.
    """

    def __init__(self, atoms: list[tuple[LabeledExample, float]]):
        if not atoms:
            raise ValueError("distribution needs at least one atom")
        self.examples: tuple[LabeledExample, ...] = tuple(ex for ex, _ in atoms)
        self.probabilities = _readonly([p for _, p in atoms])
        if not (np.isfinite(self.probabilities) & (self.probabilities > 0)).all():
            raise ValueError("atom probabilities must be finite and positive")
        if abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1 within 1e-12")
        self._cdf = self.probabilities.cumsum()
        self._cdf /= self._cdf[-1]

    def __len__(self) -> int:
        return len(self.examples)

    @classmethod
    def uniform(cls, examples: list[LabeledExample]) -> "DiscreteDistribution":
        n = len(examples)
        return cls([(ex, 1.0 / n) for ex in examples])

    def sample_indices(self, n: int, seed) -> np.ndarray:
        """``n`` atom indices drawn i.i.d. from the probabilities.

        The indices and the generator state after the draw are those of
        ``rng.choice(len(self), size=n, p=self.probabilities)``: this is
        numpy's own search of ``n`` uniform doubles in the normalised CDF,
        without re-checking the probabilities on every call.
        """
        return self._cdf.searchsorted(as_generator(seed).random(n), side="right")

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
    ``DimensionMismatch``.  Every hypothesis type is the 1x1 case of the
    violation table.
    """
    _check_label(y)
    radii, inclusive = _flip_table([h], [region], np.array([y], dtype=int))
    return float(radii[0, 0]), bool(inclusive[0, 0])


def _violated(radii, inclusive, r):
    """Whether the loss at expansion ``r`` is 1, given flip radii and flags.

    The one statement of the boundary rule: ``r >= r_star`` when inclusive,
    ``r > r_star`` otherwise.  ``r`` is one radius or an array of them, with
    result shape ``np.shape(r) + radii.shape``; a negative or NaN radius
    raises ``ValueError``.
    """
    r = np.asarray(r)[(...,) + (None,) * radii.ndim]
    if not r.min(initial=0.0) >= 0:  # NaN fails too; an empty array passes
        raise ValueError("expansion radius must be nonnegative")
    return np.where(inclusive, r >= radii, r > radii)


def _violation_table(hypotheses, regions, examples) -> tuple[np.ndarray, np.ndarray]:
    """(hypothesis x example) arrays of flip radii and inclusive flags.

    Column ``j`` is ``examples[j]`` on ``regions[j]``; a region whose
    dimension differs from its example's raises ``DimensionMismatch``.
    """
    for region, ex in zip(regions, examples, strict=True):
        _check_same_dim(region.dimension, ex.x.size)
    return _flip_table(hypotheses, regions, np.array([ex.y for ex in examples], dtype=int))


def _flip_table(hypotheses, regions, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`violation_radius` of every hypothesis on every (region, label) column.

    The balls of all columns are stacked once, and every row is one pass
    over them: a flip radius per ball, then each column's minimum over its
    own balls (``np.minimum.reduceat``), and a table's flags too
    (:func:`_table_row`).  Every ball's value is computed on its own row
    alone, so a cell has the same bits whatever the other columns are.
    Columns of different dimensions raise ``DimensionMismatch``; with no
    columns the arrays have shape ``(len(hypotheses), 0)``.
    """
    radii = np.empty((len(hypotheses), len(regions)))
    inclusive = np.empty(radii.shape, dtype=bool)
    if not len(regions):
        return radii, inclusive
    centers, ball_radii, ball_labels, starts = _stacked_balls(regions, labels)
    d = centers.shape[1]
    negative = labels == -1
    for i, h in enumerate(hypotheses):
        if isinstance(h, LinearClassifier):
            _check_same_dim(h.dimension, d)
            margins = h._margins(centers) / h._w_norm
            per_ball = ball_labels * margins - ball_radii
            inclusive[i] = negative
        elif isinstance(h, SphereBoundary):
            _check_same_dim(h.dimension, d)
            dist = _norms(np.subtract(centers, h.center, order=_order(d)))
            agree = ball_labels == h.inside_label
            per_ball = np.where(agree, h.radius - dist - ball_radii, dist - ball_radii - h.radius)
            inclusive[i] = ~negative if h.inside_label == -1 else negative
        elif isinstance(h, TableClassifier):
            _check_same_dim(h.dimension, d)
            radii[i], inclusive[i] = _table_row(h, centers, ball_radii, ball_labels, starts, labels)
            continue
        else:
            raise UnsupportedPairError(f"unsupported hypothesis type {type(h).__name__}")
        radii[i] = np.minimum.reduceat(per_ball, starts)
    return radii, inclusive


def _table_row(h: TableClassifier, centers, ball_radii, ball_labels, starts, labels):
    """A lookup table's row of :func:`_flip_table`, from one ``_pair_distances`` pass over the stacked balls.

    A default that flips a column's label flips it at radius 0, inclusive when
    a ball holds a point that is no entry.  Otherwise the radius is the least
    ``|entry - center| - radius`` (at least 0) over the entries of the other
    label, inclusive when positive or when a ball holds such an entry (a
    radius-0 ball by exact equality, as ``_in_ball`` tests); with no such
    entry the loss never flips.
    """
    gap = np.empty(len(ball_radii))
    on_entry = np.empty(len(ball_radii), dtype=bool)
    on_flip = np.empty(len(ball_radii), dtype=bool)
    for rows, dist in _pair_distances(centers, h.points):
        flips = h.labels != ball_labels[rows, None]
        equal = np.all(centers[rows, None, :] == h.points, axis=2)
        dist -= ball_radii[rows, None]
        gap[rows] = np.min(dist, axis=1, where=flips, initial=np.inf)
        on_entry[rows] = equal.any(axis=1)
        on_flip[rows] = (equal & flips).any(axis=1)
    positive = ball_radii > 0
    nearest = np.maximum(0.0, np.minimum.reduceat(gap, starts))
    holds_flip = np.logical_or.reduceat(np.where(positive, gap <= 0, on_flip), starts)
    off_table = np.logical_or.reduceat(positive | ~on_entry, starts)
    has_flip = np.isin(-labels, h.labels)
    by_default = labels != h.default
    radii = np.where(by_default, 0.0, np.where(has_flip, nearest, np.inf))
    inclusive = np.where(by_default, holds_flip | off_table, has_flip & (holds_flip | (nearest > 0)))
    return radii, inclusive


def _stacked_balls(regions, labels: np.ndarray):
    """The balls of all regions stacked in order, each ball's label, and each region's first ball."""
    balls = [_region_balls(region) for region in regions]
    d = balls[0][0].shape[1]
    for centers, _ in balls:
        _check_same_dim(centers.shape[1], d)
    sizes = [len(radii) for _, radii in balls]
    return (
        np.concatenate([centers for centers, _ in balls]),
        np.concatenate([radii for _, radii in balls]),
        np.repeat(labels, sizes),
        np.cumsum([0] + sizes[:-1]),
    )


def _loss_table(hypotheses, regions, examples) -> np.ndarray:
    """(hypothesis x example) int8 robust losses on the raw regions."""
    return _violated(*_violation_table(hypotheses, regions, examples), 0.0).astype(np.int8)


def robust_loss_distribution(h: Hypothesis, family: RegionFamily, dist: DiscreteDistribution) -> float:
    """Exact expected robust loss: the loss row over the atoms times their probabilities."""
    regions = [family.region_for(ex.x) for ex in dist.examples]
    return float(_loss_table([h], regions, dist.examples)[0] @ dist.probabilities)


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

    Halfspace certificates, and sphere ones with ``alpha <= radius / 2``,
    are exact for the whole domain: they draw nothing, and ``probes`` is
    the requested count.  Before any draw, an ``alpha`` that is not a finite
    positive real or a ``probes`` that is not a nonnegative integer raises
    ``ValueError``, another hypothesis type ``UnsupportedPairError`` and a
    domain of another dimension ``DimensionMismatch``.
    """
    _radius(alpha, "alpha")
    probes = _count(probes, "probes")
    if not isinstance(h, Hypothesis):
        raise UnsupportedPairError(f"unsupported hypothesis type {type(h).__name__}")
    _check_same_dim(h.dimension, domain.dimension)
    if isinstance(h, LinearClassifier) or (isinstance(h, SphereBoundary) and alpha <= h.radius / 2.0):
        return RegularityCertificate(alpha, probes, (), domain)
    rng = as_generator(seed)
    probe_pts = uniform_sample(domain, probes, rng) if probes > 0 else np.empty((0, domain.dimension))
    if isinstance(h, SphereBoundary):
        failures = probe_pts[h.predict_many(probe_pts) == h.inside_label]
    else:
        probe_pts = np.vstack([probe_pts, h.points[[domain.contains(p) for p in h.points]]])
        # a probe off the default label fails: every ball around it holds non-table points
        regular = h.predict_many(probe_pts) == h.default
        flips = h.points[h.labels != h.default]
        rows, d = (np.flatnonzero(regular) if len(flips) else ()), domain.dimension
        axes = np.vstack([np.zeros((1, d)), np.eye(d), -np.eye(d)])
        step = max(1, 2**16 // (2 * d * d))  # probes per block, bounding the block's draw of 2d directions each
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            # candidate centers p + alpha*(1-1e-9)*u: u zero, each signed axis, then the probe's 2d random
            # directions; each is measured only for probes with no free ball yet, so most stop at u zero
            sphere = uniform_sphere(2 * d * len(block), d, 1.0, rng).reshape(len(block), 2 * d, d)
            free = np.zeros(len(block), dtype=bool)
            for j in range(4 * d + 1):
                todo = np.flatnonzero(~free)
                u = axes[j] if j <= 2 * d else sphere[todo, j - 2 * d - 1]
                # free iff every flip lies farther than alpha: _in_ball's test, on the same rounded distances
                free[todo] = _union_distances(probe_pts[block[todo]] + alpha * (1.0 - 1e-9) * u, flips, alpha) > 0
            regular[block] = free
        failures = probe_pts[~regular]
    return RegularityCertificate(alpha, len(probe_pts), tuple(map(tuple, failures)), domain)


def linear_net_2d(W: float, n_angles: int, n_offsets: int) -> list[LinearClassifier]:
    """Deterministic angle/offset grid over bounded halfspaces in the plane."""
    out = []
    for theta in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        for t in np.linspace(-W, W, n_offsets):
            out.append(LinearClassifier(w, -t))
    return out
