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
inflates radii.  It is the only expansion: a family's region is expanded
as ``family.region_for(x).expand(r)``.  All four variants share one
geometry implementation, ``geometry._BallArray``: each stores its
``(centers, radii)`` arrays once, as ``_balls``, finite point sets as
radius-zero balls, and each scalar query is the one-row case of its
batched form.  ``_region_balls`` returns those arrays for any
region; the measure check, the exact robust losses and the cover checks
all read regions through it.  Distances from many query points to a
region, and the pairwise distances behind diameters, are computed in row
blocks of about 2**20 floats; membership of many points in a region is
tested ball by ball, and of one point against all balls at once.  Uniform sampling is
Lebesgue-exact via rejection from the region's bounding box, in batches
that are drawn and tested slice by slice until ``n`` points are kept; the
generator then jumps past the batch's untested tail.  That loop is
``_rejection_draw``, which keeps one value per accepted row as a caller's
label says: ``uniform_sample`` keeps the row itself, and the oracle game
keeps only whether the row escapes both cores.

Point identity is exact (equal float coordinates): ``point_key`` and
membership in ``FinitePoints`` and in radius-zero balls share that rule.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import Ball, DimensionMismatch, as_point, _BallArray, _in_union, _radius, _readonly
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
        object.__setattr__(self, "_balls", (self.points, _readonly(np.zeros(len(pts)))))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, *self._balls)

    def expand(self, gamma: float) -> "UnionOfBalls":
        return UnionOfBalls(self.points, np.full(len(self.points), _radius(gamma)))


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
        object.__setattr__(self, "_balls", (centers, radii))

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def balls(self) -> tuple[Ball, ...]:
        """The balls as ``Ball`` objects, built on each access."""
        return tuple(Ball(c, r) for c, r in zip(self.centers, self.radii))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, *self._balls)

    def expand(self, gamma: float) -> "UnionOfBalls":
        return UnionOfBalls(self.centers, self.radii + _radius(gamma))


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
        gamma = _radius(self.gamma)
        base = self.base
        while isinstance(base, Expanded):
            gamma += base.gamma
            base = base.base
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "_balls", base.expand(gamma)._balls)

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, *self._balls)

    def expand(self, gamma: float) -> "Expanded":
        return Expanded(self.base, self.gamma + _radius(gamma))


Region = Union[FinitePoints, Ball, UnionOfBalls, Expanded]


def _region_balls(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """A region as arrays of ball centers and radii (finite points have radius 0)."""
    if not isinstance(region, _BallArray):
        raise TypeError(f"unsupported region variant {type(region).__name__}")
    return region._balls


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


def _rejection_draw(
    region: Region,
    n: int,
    rng: int | np.random.Generator,
    label: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Bounding-box rejection from ``region``, keeping a value per accepted row.

    ``label(rows)`` gets a C-contiguous ``(m, d)`` slice of box rows and
    returns ``(accepted, values)``: a boolean mask of the rows that lie in
    ``region`` and an array with one entry per row.  The entries of the
    first ``n`` accepted rows are returned in draw order, an ``(n, ...)``
    array (``(0, d)`` floats when ``n`` is 0).  Each round is a batch of
    ``max(1024, 2n)`` box rows, drawn and labelled in slices of at most
    ``SLICE_FLOATS`` coordinates until ``n`` rows are accepted; the
    generator then jumps past the batch's unlabelled rows (:func:`_skip`).
    Each slice is mapped from the unit cube to the box in place, one column
    at a time, and its accepted values are taken with ``np.compress``.
    The rows and the generator state are those of drawing every batch whole
    with ``rng.uniform(lo, hi, (batch, d))``, so neither depends on the
    label or on how many rows are labelled.  ``rng`` is a seed or a
    generator, as :func:`~robustlab.seeding.as_generator` takes.  Aborts
    with diagnostics if the acceptance rate falls below ``MIN_EFFICIENCY``.
    """
    if n < 0:
        raise ValueError(f"cannot draw a negative number of points ({n})")
    if not _positive_measure(region):
        raise ZeroMeasureError("region has zero Lebesgue measure; uniform sampling undefined")
    rng = as_generator(rng)
    lo, hi = region.bounding_box()
    width = hi - lo
    if not np.all(np.isfinite(width)):
        raise ValueError(f"bounding box {lo} .. {hi} is too wide to sample: its width overflows")
    d = region.dimension
    out = np.empty((0, d))
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
            # the same bits as rng.uniform(lo, hi, (stop - start, d)), mapped in place column by column
            rows = rng.random((stop - start, d))
            for col, w, a in zip(rows.T, width, lo):
                col *= w
                col += a
            accepted, values = label(rows)
            kept = np.compress(accepted, values, axis=0)[:need]
            if not got:
                out = np.empty((n,) + kept.shape[1:], kept.dtype)
            out[got : got + len(kept)] = kept
            got += len(kept)
            tested += stop - start
            start = stop
        _skip(rng, (batch - start) * d)
        if drawn >= 1_000_000 and got / drawn < MIN_EFFICIENCY:
            raise SamplingEfficiencyError(
                f"rejection acceptance {got/drawn:.2e} below {MIN_EFFICIENCY:.0e} "
                f"after {drawn} draws (bounding box {lo} .. {hi})"
            )
    return out


def uniform_sample(
    region: Region,
    n: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` Lebesgue-uniform points from a positive-measure region.

    Rejection sampling from the bounding box keeps the draw exactly uniform
    on unions with overlaps (no inclusion-exclusion bookkeeping).  This is
    the case of :func:`_rejection_draw` whose label keeps the accepted rows
    themselves, tested by ``region.contains_many``; the batches, slices,
    generator jumps and errors are described there.
    """
    return _rejection_draw(region, n, seed, lambda rows: (region.contains_many(rows), rows))


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

    def region_for(self, x) -> Region:
        key = point_key(x)
        if key in self._regions:
            return self._regions[key]
        raise KeyError(f"no region assigned for point {x}")
