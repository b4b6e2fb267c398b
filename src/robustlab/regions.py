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
* :class:`Expanded` -- the radius-``gamma`` neighborhood of another
  region, held as its union of balls ``base.expand(gamma)``; nested
  expansions collapse on construction.

Each variant's ``expand`` method matches the Minkowski sum with a closed
ball: expanding a finite point set yields a union of balls, expanding balls
inflates radii.  All four variants share one geometry implementation,
``geometry._BallArray``: each supplies ``(centers, radii)`` arrays, finite
point sets as radius-zero balls, and each scalar query is the one-row case
of its batched form.  ``_region_balls`` returns those arrays for any
region; the measure check, the exact robust losses and the cover checks
all read regions through it.  Distances from many query points to a
region, and the pairwise distances behind diameters, are computed in row
blocks of about 2**20 floats; membership of many points in a region is
tested ball by ball, and of one point against all balls at once.  Uniform sampling is
Lebesgue-exact via rejection from the region's bounding box, in batches
that are drawn and tested slice by slice until ``n`` points are kept; the
generator then jumps past the batch's untested tail.

Point identity is exact (equal float coordinates): ``point_key`` and
membership in ``FinitePoints`` and in radius-zero balls share that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import Ball, DimensionMismatch, as_point, _BallArray, _in_union, _readonly
from .seeding import as_generator

__all__ = [
    "Region",
    "FinitePoints",
    "UnionOfBalls",
    "Expanded",
    "uniform_sample",
    "point_key",
    "RegionFamily",
    "ZeroMeasureError",
    "SamplingEfficiencyError",
    "region_to_dict",
    "region_from_dict",
]

# Lowest rejection acceptance uniform_sample tolerates once 1e6 box points are drawn.
MIN_EFFICIENCY = 1e-6
# Most coordinates uniform_sample draws and tests at once: 2**14 rows in d = 3.
# Sampling 130k points from the d = 3 query-game union took the same time for
# 2**12 to 2**15 rows on a 2-core Xeon (2 MiB L2 per core), 30% more at 2**10
# and 12% more at 2**18.
SLICE_FLOATS = 3 * 2**14


class ZeroMeasureError(ValueError):
    """Uniform sampling was requested from a Lebesgue-null region."""


class SamplingEfficiencyError(RuntimeError):
    """Bounding-box rejection fell below the minimum acceptance rate."""


def point_key(x) -> tuple:
    """Hashable identity of a point: its exact coordinates (``+ 0.0`` folds -0.0 into 0.0)."""
    return tuple((as_point(x) + 0.0).tolist())


@dataclass(frozen=True, eq=False)
class FinitePoints(_BallArray):
    """Region consisting of finitely many points; membership is exact equality."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("FinitePoints must be nonempty")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "_radii", _readonly(np.zeros(len(pts))))

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points, self._radii

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, *self._arrays())

    def expand(self, gamma: float) -> "UnionOfBalls":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return UnionOfBalls(self.points, np.full(len(self.points), float(gamma)))


@dataclass(frozen=True, eq=False)
class UnionOfBalls(_BallArray):
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
        if not (np.isfinite(centers).all() and (np.isfinite(radii) & (radii >= 0)).all()):
            raise ValueError("centers must be finite and radii finite and nonnegative")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def balls(self) -> tuple[Ball, ...]:
        """The balls as ``Ball`` objects, built on each access."""
        return tuple(Ball(c, r) for c, r in zip(self.centers, self.radii))

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.centers, self.radii

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, *self._arrays())

    def expand(self, gamma: float) -> "UnionOfBalls":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return UnionOfBalls(self.centers, self.radii + gamma)


@dataclass(frozen=True, eq=False)
class Expanded(_BallArray):
    """Radius-``gamma`` neighborhood of a base region, as its union of balls.

    The region is ``base.expand(gamma)``: the base's balls with ``gamma``
    added to every radius, a point becoming a radius-``gamma`` ball.  Those
    arrays are built once on construction and answer every query, so an
    expansion and its collapsed form are the same set bit for bit.  Nested
    expansions collapse first, since the underlying Minkowski sums add
    radii; ``base`` and ``gamma`` are kept for serialization.
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
        object.__setattr__(self, "_balls", base.expand(gamma)._arrays())

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._balls

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, *self._arrays())

    def expand(self, gamma: float) -> "Expanded":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return Expanded(self.base, self.gamma + gamma)


Region = Union[FinitePoints, Ball, UnionOfBalls, Expanded]


def _region_balls(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """A region as arrays of ball centers and radii (finite points have radius 0)."""
    if not isinstance(region, _BallArray):
        raise TypeError(f"unsupported region variant {type(region).__name__}")
    return region._arrays()


def _positive_measure(region: Region) -> bool:
    return bool(np.any(_region_balls(region)[1] > 0))


def _skip(rng: np.random.Generator, m: int) -> None:
    """Advance ``rng`` to where drawing ``m`` doubles with ``rng.random`` would leave it.

    Each double is one 64-bit output.  Philox, the generator ``rng_for``
    builds, makes its outputs four at a time from a 256-bit counter: the
    rest of the current block is dropped, the counter moves past the whole
    blocks, and the last partial block is drawn with ``random_raw``.  The
    pending 32-bit half word, if any, is kept.  Other bit generators draw
    the doubles in slices and drop them.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.Philox):
        for start in range(0, m, SLICE_FLOATS):
            rng.random(min(SLICE_FLOATS, m - start))
        return
    state = bitgen.state
    blocks, rem = divmod(m - (4 - state["buffer_pos"]), 4)
    if blocks < 1:  # m ends inside the current or the next block
        bitgen.random_raw(m)
        return
    words = state["state"]["counter"]
    counter = sum(int(w) << (64 * i) for i, w in enumerate(words)) + blocks
    words[:] = [(counter >> (64 * i)) & (2**64 - 1) for i in range(4)]
    state["buffer_pos"] = 4
    bitgen.state = state
    bitgen.random_raw(rem)


def uniform_sample(
    region: Region,
    n: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` Lebesgue-uniform points from a positive-measure region.

    Rejection sampling from the bounding box keeps the draw exactly uniform
    on unions with overlaps (no inclusion-exclusion bookkeeping).  Each
    round is a batch of ``max(1024, 2n)`` box points, drawn and tested in
    slices of at most ``SLICE_FLOATS`` coordinates until ``n`` points are
    kept; the generator then jumps past the batch's untested rows
    (:func:`_skip`).  The points and the generator state are those of
    drawing every batch whole with ``rng.uniform(lo, hi, (batch, d))``, so
    neither depends on how many rows are tested.  Aborts with diagnostics
    if the acceptance rate falls below ``MIN_EFFICIENCY``.
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
    d = region.dimension
    out = np.empty((n, d))
    got = drawn = tested = 0
    batch = max(1024, 2 * n)
    cap = max(1, SLICE_FLOATS // d)
    while got < n:
        drawn += batch
        start = 0
        while got < n and start < batch:
            need = n - got
            # the rows still needed at the acceptance seen so far, and at least 256
            stop = min(batch, start + min(cap, max(256, need * tested // max(got, 1), need)))
            # the same bits as rng.uniform(lo, hi, (stop - start, d)), without its temporaries
            rows = rng.random((stop - start, d))
            rows *= width
            rows += lo
            good = rows[region.contains_many(rows)]
            take = min(need, len(good))
            out[got : got + take] = good[:take]
            got += take
            tested += stop - start
            start = stop
        _skip(rng, (batch - start) * d)
        if drawn >= 1_000_000 and got / drawn < MIN_EFFICIENCY:
            raise SamplingEfficiencyError(
                f"rejection acceptance {got/drawn:.2e} below {MIN_EFFICIENCY:.0e} "
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
    with ``allow_outside_anchor=True``.  Looking up a point that is no
    anchor raises ``KeyError``.
    """

    def __init__(
        self,
        assignments: list[tuple[np.ndarray, Region]],
        *,
        allow_outside_anchor: bool = False,
    ):
        self._regions: dict[tuple, Region] = {}
        self._anchors: list[np.ndarray] = []
        for anchor, region in assignments:
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

    @property
    def anchors(self) -> list[np.ndarray]:
        return list(self._anchors)

    def region_for(self, x) -> Region:
        key = point_key(x)
        if key in self._regions:
            return self._regions[key]
        raise KeyError(f"no region assigned for point {x}")

    def expanded(self, r: float) -> "RegionFamily":
        """Family of radius-``r`` expansions; ``r == 0`` returns self."""
        if r < 0:
            raise ValueError("expansion radius must be nonnegative")
        if r == 0:
            return self
        # one region per anchor, both in insertion order
        expanded = [(a, region.expand(r)) for a, region in zip(self._anchors, self._regions.values())]
        return RegionFamily(expanded, allow_outside_anchor=True)
