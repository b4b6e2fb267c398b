"""Euclidean primitives: distances, closed balls, sphere covers, ball covers.

This module holds the one implementation of region geometry.
``_BallArray`` reads a region as arrays of ball centers and radii, a point
being a radius-zero ball, and answers membership, distance, diameter and
bounding-box queries from the kernels ``_in_ball``, ``_in_union`` and
``_pair_distances``.  Every region variant shares it: ``Ball`` is its
one-ball case, ``FinitePoints`` and ``UnionOfBalls`` hold their arrays,
and ``Expanded`` is the union of balls its base expands to.  Each scalar
query is the one-row case of its batched form.  Every Euclidean norm of a
batch is the square root of ``_sq_norms`` of the squared differences,
which is ``np.add.reduce(sq, axis=-1)`` (the sum behind
``np.linalg.norm(x, axis=-1)``) bit for bit, added column by column
below 8 dimensions.
Below 8 dimensions every elementwise operation between a batch and a
length-``d`` vector writes a column-major result (``_order``), so numpy
loops over the rows of each column, not the ``d`` entries of each row;
boolean row selections are ``np.compress``.  Both keep the bits.
Ball membership takes no square root: ``_in_ball`` compares the same sum
of squares with ``_sq_bound(radius)``, which gives the same verdict.

Grid covers (:func:`cover_compact_by_balls`) are certified exactly from
the target's balls, not sampled; :func:`verify_cover`, which counts probe
points outside a cover by brute force, is the reference tests hold them to.

Conventions used throughout the library:

* points are 1-D float ndarrays; batches are ``(n, d)`` arrays;
* all balls and regions are closed (boundary included);
* geometric equality assertions use absolute tolerance ``1e-9``.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .seeding import as_generator, uniform_sphere

if TYPE_CHECKING:
    from .regions import UnionOfBalls

__all__ = [
    "GEOM_TOL",
    "DimensionMismatch",
    "CoverageError",
    "as_point",
    "distance",
    "Ball",
    "SphereCover",
    "greedy_sphere_cover",
    "cover_compact_by_balls",
    "grid_cover_bound",
    "verify_cover",
]

GEOM_TOL = 1e-9
# Most grid nodes cover_compact_by_balls lays out before it refuses.
MAX_GRID_NODES = 5_000_000


class DimensionMismatch(ValueError):
    """Operands live in Euclidean spaces of different dimension."""


class CoverageError(RuntimeError):
    """A grid cover failed its certificate: a cell too wide, or a node within reach dropped.

    Raised by :func:`cover_compact_by_balls`; it means the construction's
    distance pass is wrong, never bad luck, since the certificate is exact.
    """


def as_point(x) -> np.ndarray:
    """Validate and return a point as a 1-D float array."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"point must be a 1-D vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite coordinates")
    return p


def _check_same_dim(da: int, db: int) -> None:
    if da != db:
        raise DimensionMismatch(f"dimension mismatch: {da} vs {db}")


def _radius(value, name: str = "gamma", zero_ok: bool = False) -> float:
    """``value`` as a float radius: a real number, not a bool, finite and positive (nonnegative if ``zero_ok``).

    The one rule for every ball and sphere radius, every cover radius and mesh, and every expansion.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    r = float(value)
    if not (0 <= r < math.inf and (zero_ok or r > 0)):
        raise ValueError(f"{name} must be {'nonnegative' if zero_ok else 'positive'} and finite, got {r}")
    return r


def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def distance(a, b) -> float:
    """Euclidean distance between two points of equal dimension, the one-row case of :func:`_norms`."""
    pa, pb = as_point(a), as_point(b)
    _check_same_dim(pa.size, pb.size)
    return float(_norms((pa - pb)[None, :])[0])


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def _sq_norms(sq: np.ndarray) -> np.ndarray:
    """``np.add.reduce(sq, axis=-1)`` of ``sq`` in C order, bit for bit, in any memory layout.

    Below 8 terms numpy adds the last axis left to right, so for ``d < 8``
    the columns are added in that order, each a vectorised pass over all
    rows (over contiguous memory when ``sq`` is column-major), instead of
    one short reduction per row.  From 8 terms numpy's pairwise sum is
    taken on ``sq`` in C order, copied to it if needed.
    """
    d = sq.shape[-1]
    if d >= 8:
        return np.add.reduce(np.ascontiguousarray(sq), axis=-1)
    out = sq[..., 0].copy()
    for j in range(1, d):
        out += sq[..., j]
    return out


def _order(d: int) -> str:
    """Memory order of an elementwise ``(..., d)`` result: ``"F"`` below 8 dims, else ``"C"``.

    From 8 dims :func:`_sq_norms` reduces C order, so a C result needs no copy.
    """
    return "F" if d < 8 else "C"


def _norms(diff: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(diff, axis=-1)`` bit for bit; squares ``diff`` in place."""
    out = _sq_norms(np.multiply(diff, diff, out=diff))
    return np.sqrt(out, out=out)


def _batch(pts, d: int) -> np.ndarray:
    """``pts`` as an ``(n, d)`` float array; another shape raises instead of broadcasting."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"a batch of points must be an (n, d) array, got shape {pts.shape}")
    _check_same_dim(pts.shape[1], d)
    return pts


@functools.lru_cache(maxsize=1024)
def _sq_bound(r: float) -> float:
    """The largest double ``s`` whose correctly rounded ``math.sqrt(s)`` is at most ``r > 0``.

    ``sqrt`` is monotone, so ``sqrt(s) <= r`` exactly when ``s <= _sq_bound(r)``.
    The search starts at ``r * r`` (the largest finite double when that
    overflows) and moves a few ulps: the rounding of ``r * r`` and of the
    square root each shift the bound by at most about one ulp of ``r * r``.
    A run uses few distinct radii, so each bound is searched for once.
    """
    s = min(r * r, sys.float_info.max)
    while math.sqrt(s) > r:
        s = math.nextafter(s, 0.0)
    while s < math.inf and math.sqrt(up := math.nextafter(s, math.inf)) <= r:
        s = up
    return s


def _in_ball(pts: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Rows of ``pts`` in the closed ball; radius 0 is the center alone, by exact equality.

    Off radius 0 this is ``_norms(pts - center) <= radius`` bit for bit: the
    same squared distances are compared with :func:`_sq_bound` instead of
    taking their square roots.  The differences are column-major below 8
    dims (:func:`_order`), so that :func:`_sq_norms` adds contiguous columns.
    """
    if radius == 0:
        return (pts == center).all(axis=1)
    diff = np.subtract(pts, center, order=_order(center.size))
    return _sq_norms(np.multiply(diff, diff, out=diff)) <= _sq_bound(float(radius))


def _in_union(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Whether each row of ``pts`` lies in some ball: the OR over balls of :func:`_in_ball`.

    Off radius-zero balls this is ``_union_distances(...) <= 0``, since finite
    ``a - b`` rounds to at most 0 exactly when ``a <= b``.  Blocks hold about 2**18 floats.
    """
    pts = _batch(pts, centers.shape[1])
    out = np.zeros(len(pts), dtype=bool)
    size = max(1, 2**18 // centers.shape[1])
    for start in range(0, len(pts), size):
        block, hit = pts[start : start + size], out[start : start + size]
        for center, radius in zip(centers, radii):
            hit |= _in_ball(block, center, radius)
    return out


def _pair_distances(pts: np.ndarray, centers: np.ndarray):
    """``(slice, dist)`` per row block, ``dist[i, j]`` = |pts[slice][i] - centers[j]|.

    ``pts`` is an ``(n, d)`` array of the centers' dimension, as :func:`_batch` returns.

    A block has at most 4,096 rows and a ``(rows, k, d)`` difference of about
    2**20 floats, measured by :func:`_norms` without a second block-sized array.
    """
    d = pts.shape[1]
    size = max(1, min(4096, 2**20 // max(1, len(centers) * d)))
    for start in range(0, len(pts), size):
        sl = slice(start, min(start + size, len(pts)))
        yield sl, _norms(np.subtract(pts[sl, None, :], centers[None, :, :], order=_order(d)))


def _union_distances(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray | float) -> np.ndarray:
    """Distance from each row of ``pts`` to the union of balls, by :func:`_pair_distances` blocks."""
    pts = _batch(pts, centers.shape[1])
    out = np.empty(len(pts))
    for rows, dist in _pair_distances(pts, centers):
        dist -= radii
        out[rows] = np.maximum(0.0, np.min(dist, axis=1))
    return out


class _BallArray:
    """Geometry of a finite union of closed balls, a point being a radius-zero ball.

    A subclass stores ``_balls = (centers, radii)``, a ``(k, d)`` and a
    ``(k,)`` array, once on construction, and every query reads it.  Each
    scalar query is the dimension-checked one-row case of its batched form,
    so ``contains(p) == contains_many(p[None])[0]`` and
    ``distance_to(p) == distance_to_many(p[None])[0]`` bit for bit.
    """

    @property
    def dimension(self) -> int:
        return self._balls[0].shape[1]

    def _point(self, p) -> np.ndarray:
        p = as_point(p)
        _check_same_dim(p.size, self.dimension)
        return p

    def contains(self, p) -> bool:
        """``_in_union(p[None], centers, radii)[0]``, the one row tested against all balls at once."""
        p = self._point(p)
        centers, radii = self._balls
        near = _norms(p - centers) <= radii
        return bool(np.where(radii == 0, (p == centers).all(axis=1), near).any())

    def distance_to(self, p) -> float:
        return float(self.distance_to_many(self._point(p)[None, :])[0])

    def distance_to_many(self, pts: np.ndarray) -> np.ndarray:
        return _union_distances(pts, *self._balls)

    def diameter(self) -> float:
        """Pairwise upper bound: max over ball pairs of center gap plus radii."""
        centers, radii = self._balls
        return max(
            float(np.max(gaps + radii[rows, None] + radii[None, :]))
            for rows, gaps in _pair_distances(centers, centers)
        )

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        centers, radii = self._balls
        reach = radii[:, None]
        return np.min(centers - reach, axis=0), np.max(centers + reach, axis=0)


@dataclass(frozen=True, eq=False)
class Ball(_BallArray):
    """Closed Euclidean ball.  Doubles as the ball variant of a region."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(as_point(self.center)))
        object.__setattr__(self, "radius", _radius(self.radius, "radius", zero_ok=True))
        object.__setattr__(self, "_balls", (self.center[None, :], _readonly([self.radius])))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_union(pts, *self._balls)

    def expand(self, gamma: float) -> "Ball":
        return Ball(self.center, self.radius + _radius(gamma))


@dataclass(frozen=True, eq=False)
class SphereCover:
    """Maximal mesh-separated point set on an origin-centered sphere.

    Invariants checked on construction: every center lies on the sphere
    (relative tolerance 1e-9) and pairwise center distances strictly exceed
    the mesh.  Maximality is certified statistically: ``probe_failures``
    counts fresh probe points farther than the mesh from every center, and
    the certificate passes when that count is zero.
    """

    sphere_radius: float
    mesh: float
    centers: np.ndarray
    probe_count: int = 0
    probe_failures: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sphere_radius", _radius(self.sphere_radius, "sphere_radius"))
        object.__setattr__(self, "mesh", _radius(self.mesh, "mesh"))
        object.__setattr__(self, "centers", _readonly(np.atleast_2d(self.centers)))
        norms = _norms(self.centers.copy())
        if not np.allclose(norms, self.sphere_radius, rtol=GEOM_TOL, atol=0.0):
            raise ValueError("cover centers must lie on the sphere")
        for rows, dists in _pair_distances(self.centers, self.centers):
            dists[np.arange(len(dists)), np.arange(rows.start, rows.stop)] = np.inf
            if not np.all(dists > self.mesh):
                raise ValueError("cover centers are not mesh-separated")

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def certified(self) -> bool:
        return self.probe_count > 0 and self.probe_failures == 0


def greedy_sphere_cover(
    d: int,
    sphere_radius: float,
    mesh: float,
    seed: int | np.random.Generator,
    *,
    stop_factor: int = 10_000,
    probe_count: int = 10_000,
) -> SphereCover:
    """Randomized greedy packing of an origin-centered sphere in R^d.

    Uniform sphere points are sampled and accepted whenever they lie
    strictly farther than ``mesh`` from every accepted center.  Selection
    stops after ``stop_factor * len(centers)`` consecutive rejections, then
    maximality is certified with a fresh probe batch (failures are recorded
    on the returned cover, not hidden).

    A mesh of at least twice the radius legitimately yields a single-point
    cover.  Deterministic for a fixed seed.
    """
    if d < 2:
        raise ValueError("sphere covers need ambient dimension >= 2")
    sphere_radius, mesh = _radius(sphere_radius, "sphere_radius"), _radius(mesh, "mesh")
    rng = as_generator(seed)

    centers: list[np.ndarray] = []
    consecutive = 0
    batch = 2048
    while consecutive < stop_factor * max(1, len(centers)):
        cand = uniform_sphere(batch, d, sphere_radius, rng)
        # each candidate's distance to the nearest accepted center, lowered
        # by the distance to every center accepted from this batch
        near = _union_distances(cand, np.asarray(centers), 0.0) if centers else np.full(batch, np.inf)
        start = 0
        while start < len(cand):
            ok = np.flatnonzero(near[start:] > mesh)
            if ok.size == 0:
                consecutive += len(cand) - start
                break
            first = int(ok[0])
            consecutive += first
            if consecutive >= stop_factor * max(1, len(centers)):
                break
            centers.append(cand[start + first])
            consecutive = 0
            start += first + 1
            near[start:] = np.minimum(near[start:], _union_distances(cand[start:], centers[-1][None, :], 0.0))

    arr = np.asarray(centers)
    probes = uniform_sphere(probe_count, d, sphere_radius, rng)
    failures = int(np.count_nonzero(_union_distances(probes, arr, 0.0) > mesh))
    return SphereCover(sphere_radius, mesh, arr, probe_count, failures)


def grid_cover_bound(diameter: float, ball_radius: float, d: int) -> int:
    """A priori node-count bound for the axis-aligned grid cover.

    The grid uses pitch ``ball_radius * 2/sqrt(d) * (1 - 1e-6)`` over the
    target's bounding box inflated by ``ball_radius`` per side, so the
    kept-node count is at most ``(span / pitch + 2)^d`` per axis with
    span <= diameter + 2 * ball_radius.
    """
    pitch = ball_radius * (2.0 / np.sqrt(d)) * (1.0 - 1e-6)
    per_axis = int(np.floor((diameter + 2.0 * ball_radius) / pitch)) + 2
    return per_axis**d


def cover_compact_by_balls(target, ball_radius: float) -> UnionOfBalls:
    """Cover a bounded region with closed balls of radius ``r = ball_radius``, certified exactly.

    Grid nodes at pitch ``r * 2/sqrt(d) * (1 - 1e-6)`` span the target's
    bounding box inflated by ``r``; a node is kept, as a ball center, when
    ``target.distance_to_many`` puts it within ``r`` of the target.  The
    :class:`~robustlab.regions.UnionOfBalls` returned has one radius-``r``
    ball per kept node.  No random numbers are drawn.

    Covering lemma: let ``h`` be the largest grid cell's half-diagonal (each
    axis's largest node gap halved, combined in quadrature).  A target point
    ``p`` lies in a target ball ``(c, rho)``, a point being a radius-0 ball,
    and its nearest node ``n`` has ``|p - n| <= h``, so ``|n - c| <= rho + h``.
    So if ``h < r`` and every node within ``rho + h`` of a target ball is
    kept, the ball at ``n`` holds ``p``.  Both conditions are checked, the
    second by one :func:`_pair_distances` pass of the dropped nodes against
    the target's own ball arrays, independent of ``distance_to_many``; a
    failure raises :class:`CoverageError`.
    """
    from .regions import UnionOfBalls, _region_balls

    r = _radius(ball_radius, "ball_radius")
    lo, hi = target.bounding_box()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("target has an unbounded representation")
    d = lo.size
    pitch = r * (2.0 / np.sqrt(d)) * (1.0 - 1e-6)

    axes = [np.arange(lo[i] - r, hi[i] + r + pitch, pitch) for i in range(d)]
    total = int(np.prod([len(a) for a in axes]))
    if total > MAX_GRID_NODES:
        raise ValueError(
            f"grid cover would need {total} nodes (> {MAX_GRID_NODES}); "
            "reduce the target diameter, dimension, or increase ball_radius"
        )
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    kept = target.distance_to_many(nodes) <= r

    h = math.hypot(*(float(np.max(np.diff(a))) / 2.0 for a in axes))
    if not h < r:
        raise CoverageError(f"grid cells reach {h} from their nearest node, not less than the radius {r}")
    centers, radii = _region_balls(target)
    missed = 0
    for _, dist in _pair_distances(np.compress(~kept, nodes, axis=0), centers):
        dist -= radii
        missed += int(np.count_nonzero(np.min(dist, axis=1) <= h))
    if missed:
        raise CoverageError(f"{missed} dropped grid nodes lie within reach of the target")
    return UnionOfBalls(np.compress(kept, nodes, axis=0), np.full(np.count_nonzero(kept), r))


def _cover_probes(target, probe_count: int, seed: int | np.random.Generator) -> np.ndarray:
    """The probe points of a cover check, drawn as :func:`verify_cover` describes."""
    from .regions import ZeroMeasureError, _region_balls, uniform_sample

    try:
        return uniform_sample(target, probe_count, seed)
    except ZeroMeasureError:
        return _region_balls(target)[0]


def verify_cover(target, cover: UnionOfBalls, probe_count: int, seed: int | np.random.Generator) -> int:
    """Count probe points of ``target`` outside the ball union ``cover``.

    The brute-force reference: every probe is measured against every ball
    of ``cover``, a :class:`~robustlab.regions.UnionOfBalls`.  It samples
    the claim that :func:`cover_compact_by_balls` certifies exactly, so a
    certified cover gives 0 for any probes.  Probes are
    ``probe_count`` uniform samples for positive-measure targets; a
    zero-measure target (finite points, radius-zero balls) is probed at
    its defining points exactly.
    """
    probes = _cover_probes(target, probe_count, seed)
    return int(np.count_nonzero(cover.distance_to_many(probes) > 0))
