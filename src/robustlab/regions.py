"""Perturbation-region algebra: finite point sets, balls, unions, expansions.

A region is one of four immutable variants:

* :class:`FinitePoints` -- a nonempty finite point set (zero measure);
* :class:`~robustlab.geometry.Ball` -- a closed ball;
* :class:`UnionOfBalls` -- a finite union of closed balls, held as a
  ``(k, d)`` array of centers and a ``(k,)`` array of radii, with
  ``len(union) == k``; grid covers
  (:func:`~robustlab.geometry.cover_compact_by_balls`) are returned in
  this form, checked on construction by a nearest-grid-node lookup with a
  brute-force fallback (:func:`~robustlab.geometry.verify_cover` is the
  brute-force reference);
* :class:`Expanded` -- a lazy radius-``gamma`` neighborhood of another
  region, collapsed on construction so expansions never nest.

Each variant's ``expand`` method matches the Minkowski sum with a closed
ball: expanding a finite point set yields a union of balls, expanding balls
inflates radii.  ``_region_balls`` is the one map from a region to
``(centers, radii)`` arrays, with finite point sets as radius-zero balls;
the measure check, the exact robust losses and the cover checks all read
regions through it.  Distances from many query points to a union or a
point set, and the pairwise distances behind diameters, are computed in
row blocks of about 2**20 floats; membership in a union or a point set
is tested ball by ball.  Uniform sampling is Lebesgue-exact via rejection
from the region's bounding box, drawn in whole batches that are tested in
slices until ``n`` points are kept.

Point identity is exact (equal float coordinates): ``point_key`` and
membership in ``FinitePoints`` and in radius-zero balls share that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .geometry import Ball, DimensionMismatch, as_point, _check_same_dim, _in_ball, _readonly
from .seeding import as_generator

__all__ = [
    "Region",
    "FinitePoints",
    "UnionOfBalls",
    "Expanded",
    "normalize_region",
    "uniform_sample",
    "point_key",
    "RegionFamily",
    "ZeroMeasureError",
    "SamplingEfficiencyError",
    "region_to_dict",
    "region_from_dict",
]

class ZeroMeasureError(ValueError):
    """Uniform sampling was requested from a Lebesgue-null region."""


class SamplingEfficiencyError(RuntimeError):
    """Bounding-box rejection fell below the minimum acceptance rate."""


def point_key(x) -> tuple:
    """Hashable identity of a point: its exact coordinates (``+ 0.0`` folds -0.0 into 0.0)."""
    return tuple((as_point(x) + 0.0).tolist())


@dataclass(frozen=True, eq=False)
class FinitePoints:
    """Region consisting of finitely many points; membership is exact equality."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("FinitePoints must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def contains(self, p) -> bool:
        p = as_point(p)
        _check_same_dim(p.size, self.dimension)
        return bool(np.any(np.all(self.points == p, axis=1)))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, self.points, np.zeros(len(self.points)))

    def distance_to(self, p) -> float:
        p = as_point(p)
        _check_same_dim(p.size, self.dimension)
        return float(np.min(np.linalg.norm(self.points - p, axis=1)))

    def distance_to_many(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty(len(pts))
        for i, dist in _pair_distances(pts, self.points):
            out[i] = np.min(dist, axis=1)
        return out

    def diameter(self) -> float:
        return max(float(np.max(dist)) for _, dist in _pair_distances(self.points, self.points))

    def expand(self, gamma: float) -> "UnionOfBalls":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return UnionOfBalls(self.points, np.full(len(self.points), float(gamma)))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)


@dataclass(frozen=True, eq=False)
class UnionOfBalls:
    """Finite union of closed balls, held as arrays.

    Ball ``i`` has center ``centers[i]`` (``centers`` has shape ``(k, d)``)
    and radius ``radii[i]`` (``radii`` has shape ``(k,)``); ``len(union)``
    is ``k``.
    """

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers, radii = _readonly(self.centers), _readonly(self.radii)
        if centers.ndim != 2 or centers.size == 0 or radii.shape != (len(centers),):
            raise ValueError(f"need nonempty (k, d) centers and k radii, got {centers.shape}, {radii.shape}")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(radii) & (radii >= 0))):
            raise ValueError("centers must be finite and radii finite and nonnegative")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def balls(self) -> tuple[Ball, ...]:
        """The balls as ``Ball`` objects, built on each access."""
        return tuple(Ball(c, r) for c, r in zip(self.centers, self.radii))

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    def contains(self, p) -> bool:
        p = as_point(p)
        _check_same_dim(p.size, self.dimension)
        return bool(_in_union(p[None, :], self.centers, self.radii)[0])

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, self.centers, self.radii)

    def distance_to(self, p) -> float:
        p = as_point(p)
        _check_same_dim(p.size, self.dimension)
        return float(self.distance_to_many(p[None, :])[0])

    def distance_to_many(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty(len(pts))
        for i, dist in _pair_distances(pts, self.centers):
            out[i] = np.maximum(0.0, np.min(dist - self.radii, axis=1))
        return out

    def diameter(self) -> float:
        """Pairwise upper bound: max over ball pairs of center gap plus radii."""
        return max(
            float(np.max(gaps + self.radii[i, None] + self.radii[None, :]))
            for i, gaps in _pair_distances(self.centers, self.centers)
        )

    def expand(self, gamma: float) -> "UnionOfBalls":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return UnionOfBalls(self.centers, self.radii + gamma)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        reach = self.radii[:, None]
        return np.min(self.centers - reach, axis=0), np.max(self.centers + reach, axis=0)


@dataclass(frozen=True, eq=False)
class Expanded:
    """Lazy gamma-neighborhood of a base region.

    Membership is by definition ``distance(p, base) <= gamma``.  Nested
    expansions collapse on construction since the underlying Minkowski sums
    add radii.
    """

    base: "Region"
    gamma: float

    def __post_init__(self):
        gamma = float(self.gamma)
        base = self.base
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        while isinstance(base, Expanded):
            gamma += base.gamma
            base = base.base
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gamma", gamma)

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def contains(self, p) -> bool:
        return self.base.distance_to(p) <= self.gamma

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return self.base.distance_to_many(pts) <= self.gamma

    def distance_to(self, p) -> float:
        return max(0.0, self.base.distance_to(p) - self.gamma)

    def distance_to_many(self, pts: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.base.distance_to_many(pts) - self.gamma)

    def diameter(self) -> float:
        return self.base.diameter() + 2.0 * self.gamma

    def expand(self, gamma: float) -> "Expanded":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return Expanded(self.base, self.gamma + gamma)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.base.bounding_box()
        return lo - self.gamma, hi + self.gamma


Region = Union[FinitePoints, Ball, UnionOfBalls, Expanded]


def _in_union(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Whether each row of ``pts`` lies in some ball: the OR over balls of the ``Ball`` rule.

    Off radius-zero balls this is ``distance_to_many(pts) <= 0``, since finite
    ``a - b`` rounds to at most 0 exactly when ``a <= b``.  Blocks hold about 2**18 floats.
    """
    out = np.zeros(len(pts), dtype=bool)
    size = max(1, 2**18 // centers.shape[1])
    for start in range(0, len(pts), size):
        block, hit = pts[start : start + size], out[start : start + size]
        for center, radius in zip(centers, radii):
            hit |= _in_ball(block, center, radius)
    return out


def _pair_distances(pts: np.ndarray, centers: np.ndarray):
    """``(slice, dist)`` per row block, ``dist[i, j]`` = |pts[slice][i] - centers[j]|.

    A block has at most 4,096 rows and a ``(rows, k, d)`` difference of about 2**20 floats.
    """
    pts = np.atleast_2d(pts)
    size = max(1, min(4096, 2**20 // (len(centers) * pts.shape[1])))
    for start in range(0, len(pts), size):
        sl = slice(start, min(start + size, len(pts)))
        yield sl, np.linalg.norm(pts[sl, None, :] - centers[None, :, :], axis=-1)


def normalize_region(region: Region) -> Region:
    """Collapse lazy expansions into concrete ball-based or point forms."""
    if isinstance(region, Expanded):
        return region.base.expand(region.gamma)
    return region


def _region_balls(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """Normalized region as arrays of ball centers and radii.

    Finite point sets are radius-zero balls, so ball-extremum formulas and
    measure checks read every variant the same way.
    """
    region = normalize_region(region)
    if isinstance(region, FinitePoints):
        return region.points, np.zeros(len(region.points))
    if isinstance(region, Ball):
        return region.center[None, :], np.array([region.radius])
    if isinstance(region, UnionOfBalls):
        return region.centers, region.radii
    raise TypeError(f"unsupported region variant {type(region).__name__}")


def _positive_measure(region: Region) -> bool:
    return bool(np.any(_region_balls(region)[1] > 0))


def uniform_sample(
    region: Region,
    n: int,
    seed: int | np.random.Generator,
    *,
    min_efficiency: float = 1e-6,
) -> np.ndarray:
    """Draw ``n`` Lebesgue-uniform points from a positive-measure region.

    Rejection sampling from the bounding box keeps the draw exactly uniform
    on unions with overlaps (no inclusion-exclusion bookkeeping).  Each
    round draws a whole batch of ``max(1024, 2n)`` box points, then tests
    it in slices until ``n`` points are kept, so the stream drawn does not
    depend on how many rows are tested.  Aborts with diagnostics if the
    acceptance rate falls below ``min_efficiency``.
    """
    if n < 0:
        raise ValueError(f"cannot draw a negative number of points ({n})")
    if not _positive_measure(region):
        raise ZeroMeasureError("region has zero Lebesgue measure; uniform sampling undefined")
    rng = as_generator(seed)
    lo, hi = region.bounding_box()
    width = hi - lo
    if not np.all(np.isfinite(width)):
        raise ValueError(f"bounding box {lo} .. {hi} is too wide to sample: its width overflows")
    out = np.empty((n, region.dimension))
    got = drawn = tested = 0
    batch = max(1024, 2 * n)
    while got < n:
        # the same bits as rng.uniform(lo, hi, (batch, d)), without its temporaries
        cand = rng.random((batch, region.dimension))
        cand *= width
        cand += lo
        drawn += batch
        start = 0
        while got < n and start < batch:
            need = n - got
            # the rows still needed at the acceptance seen so far, and at least 256
            stop = min(batch, start + max(256, need * tested // max(got, 1), need))
            rows = cand[start:stop]
            good = rows[region.contains_many(rows)]
            take = min(need, len(good))
            out[got : got + take] = good[:take]
            got += take
            tested += stop - start
            start = stop
        if drawn >= 1_000_000 and got / drawn < min_efficiency:
            raise SamplingEfficiencyError(
                f"rejection acceptance {got/drawn:.2e} below {min_efficiency:.0e} "
                f"after {drawn} draws (bounding box {lo} .. {hi})"
            )
    return out


def region_to_dict(region: Region) -> dict:
    """JSON-ready representation of a region (harness config format)."""
    if isinstance(region, FinitePoints):
        return {"kind": "points", "points": region.points.tolist()}
    if isinstance(region, Ball):
        return {"kind": "ball", "center": region.center.tolist(), "radius": region.radius}
    if isinstance(region, UnionOfBalls):
        return {
            "kind": "union_of_balls",
            "balls": [
                {"center": c, "radius": r}
                for c, r in zip(region.centers.tolist(), region.radii.tolist())
            ],
        }
    if isinstance(region, Expanded):
        return {"kind": "expanded", "base": region_to_dict(region.base), "gamma": region.gamma}
    raise TypeError(f"unknown region variant {type(region).__name__}")


def region_from_dict(data: dict) -> Region:
    """Inverse of :func:`region_to_dict`."""
    kind = data.get("kind")
    if kind == "points":
        return FinitePoints(np.asarray(data["points"], dtype=float))
    if kind == "ball":
        return Ball(np.asarray(data["center"], dtype=float), float(data["radius"]))
    if kind == "union_of_balls":
        balls = data["balls"]
        return UnionOfBalls([b["center"] for b in balls], [b["radius"] for b in balls])
    if kind == "expanded":
        return Expanded(region_from_dict(data["base"]), float(data["gamma"]))
    raise ValueError(f"unknown region kind {kind!r}")


class RegionFamily:
    """Assignment of perturbation regions to support points.

    Anchors are identified by their exact coordinates (:func:`point_key`),
    and an anchor equal to an earlier one is rejected.  Each
    assigned region must contain its anchor unless the family is built
    with ``allow_outside_anchor=True``.  An optional ``default_rule``
    callable serves regions for off-support points (for instance
    ``lambda x: Ball(x, r)`` for a fixed-radius ball family).
    """

    def __init__(
        self,
        assignments: list[tuple[np.ndarray, Region]] | dict,
        default_rule: Callable[[np.ndarray], Region] | None = None,
        *,
        allow_outside_anchor: bool = False,
    ):
        items = assignments.items() if isinstance(assignments, dict) else assignments
        self._regions: dict[tuple, Region] = {}
        self._anchors: list[np.ndarray] = []
        for anchor, region in items:
            anchor = as_point(anchor)
            if anchor.size != region.dimension:
                raise DimensionMismatch("anchor and region dimensions differ")
            if not allow_outside_anchor and not region.contains(anchor):
                raise ValueError(f"anchor {anchor} lies outside its assigned region")
            key = point_key(anchor)
            if key in self._regions:
                raise ValueError(f"anchor {anchor} repeats an earlier anchor")
            self._regions[key] = region
            self._anchors.append(anchor)
        self._default = default_rule

    @property
    def anchors(self) -> list[np.ndarray]:
        return list(self._anchors)

    def region_for(self, x) -> Region:
        key = point_key(x)
        if key in self._regions:
            return self._regions[key]
        if self._default is not None:
            return self._default(as_point(x))
        raise KeyError(f"no region assigned for point {x}")

    def expanded(self, r: float) -> "RegionFamily":
        """Family of radius-``r`` expansions; ``r == 0`` returns self."""
        if r < 0:
            raise ValueError("expansion radius must be nonnegative")
        if r == 0:
            return self
        # one region per anchor, both in insertion order
        expanded = [(a, region.expand(r)) for a, region in zip(self._anchors, self._regions.values())]
        default = None
        if self._default is not None:
            base = self._default
            default = lambda x: base(x).expand(r)  # noqa: E731
        return RegionFamily(expanded, default, allow_outside_anchor=True)
