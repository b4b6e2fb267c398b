"""Euclidean primitives: distances, closed balls, sphere covers, ball covers.

Conventions used throughout the library:

* points are 1-D float ndarrays; batches are ``(n, d)`` arrays;
* all balls and regions are closed (boundary included);
* geometric equality assertions use absolute tolerance ``1e-9``.
"""

from __future__ import annotations

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


class DimensionMismatch(ValueError):
    """Operands live in Euclidean spaces of different dimension."""


class CoverageError(RuntimeError):
    """A constructed cover failed its own probe verification."""


def as_point(x) -> np.ndarray:
    """Validate and return a point as a 1-D float array."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    return p


def _check_same_dim(da: int, db: int) -> None:
    if da != db:
        raise DimensionMismatch(f"dimension mismatch: {da} vs {db}")


def distance(a, b) -> float:
    """Euclidean distance between two points of equal dimension."""
    pa, pb = as_point(a), as_point(b)
    _check_same_dim(pa.size, pb.size)
    return float(np.linalg.norm(pa - pb))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def _in_ball(pts: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Rows of ``pts`` in the closed ball; radius 0 is the center alone, by exact equality."""
    if radius == 0:
        return np.all(pts == center, axis=1)
    return np.linalg.norm(pts - center, axis=1) <= radius


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball.  Doubles as the ball variant of a region."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(as_point(self.center)))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius >= 0:  # also rejects NaN
            raise ValueError("radius must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.center.size

    def contains(self, p) -> bool:
        p = as_point(p)
        _check_same_dim(p.size, self.dimension)
        if self.radius == 0:  # the norm can underflow to 0 off the center
            return bool(np.all(p == self.center))
        return bool(np.linalg.norm(p - self.center) <= self.radius)

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return _in_ball(pts, self.center, self.radius)

    def distance_to(self, p) -> float:
        p = as_point(p)
        _check_same_dim(p.size, self.dimension)
        return max(0.0, float(np.linalg.norm(p - self.center)) - self.radius)

    def distance_to_many(self, pts: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, np.linalg.norm(pts - self.center, axis=1) - self.radius)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def expand(self, gamma: float) -> "Ball":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return Ball(self.center, self.radius + gamma)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True)
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
        object.__setattr__(self, "centers", _readonly(np.atleast_2d(self.centers)))
        if self.sphere_radius <= 0 or self.mesh <= 0:
            raise ValueError("sphere_radius and mesh must be positive")
        norms = np.linalg.norm(self.centers, axis=1)
        if not np.allclose(norms, self.sphere_radius, rtol=GEOM_TOL, atol=0.0):
            raise ValueError("cover centers must lie on the sphere")
        from .regions import _pair_distances

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
    if sphere_radius <= 0 or mesh <= 0:
        raise ValueError("sphere_radius and mesh must be positive")
    rng = as_generator(seed)

    centers: list[np.ndarray] = []
    consecutive = 0
    batch = 2048
    while True:
        limit = stop_factor * max(1, len(centers))
        if consecutive >= limit:
            break
        cand = uniform_sphere(batch, d, sphere_radius, rng)
        start = 0
        while start < len(cand):
            if centers:
                arr = np.asarray(centers)
                dmin = np.min(
                    np.linalg.norm(cand[start:, None, :] - arr[None, :, :], axis=-1),
                    axis=1,
                )
                ok = np.flatnonzero(dmin > mesh)
            else:
                ok = np.array([0])
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
        # re-check the stopping rule against the possibly grown center set
        if consecutive >= stop_factor * max(1, len(centers)):
            break

    arr = np.asarray(centers)
    probes = uniform_sphere(probe_count, d, sphere_radius, rng)
    dmin = np.min(np.linalg.norm(probes[:, None, :] - arr[None, :, :], axis=-1), axis=1)
    failures = int(np.count_nonzero(dmin > mesh))
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


def cover_compact_by_balls(
    target,
    ball_radius: float,
    seed: int | np.random.Generator = 0,
    *,
    probe_count: int = 1000,
    max_nodes: int = 5_000_000,
) -> UnionOfBalls:
    """Cover a bounded region with closed balls of radius ``ball_radius``.

    Axis-aligned grid construction: nodes at pitch
    ``ball_radius * 2/sqrt(d) * (1 - 1e-6)`` over the inflated bounding box
    are kept whenever they lie within ``ball_radius`` of the target, which
    guarantees every target point is within ``ball_radius`` of a kept node.
    Centers need not lie inside the target.  The cover is returned as a
    :class:`~robustlab.regions.UnionOfBalls` whose ``centers`` are the kept
    nodes and whose ``radii`` all equal ``ball_radius``; ``len(cover)`` is
    the ball count.  The construction is probe verified before returning
    (seeded; raises ``CoverageError`` on failure, which would indicate a
    bug rather than bad luck).  The probes are those :func:`verify_cover`
    draws for the same seed, and each is first checked against its nearest
    grid node (O(d) per probe); only probes that node does not cover are
    measured against every center, so the failure count is the one
    :func:`verify_cover`, the brute-force reference, returns.
    """
    from .regions import UnionOfBalls

    if ball_radius <= 0:
        raise ValueError("ball_radius must be positive")
    lo, hi = target.bounding_box()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("target has an unbounded representation")
    d = lo.size
    pitch = ball_radius * (2.0 / np.sqrt(d)) * (1.0 - 1e-6)

    axes = [np.arange(lo[i] - ball_radius, hi[i] + ball_radius + pitch, pitch) for i in range(d)]
    total = int(np.prod([len(a) for a in axes]))
    if total > max_nodes:
        raise ValueError(
            f"grid cover would need {total} nodes (> {max_nodes}); "
            "reduce the target diameter, dimension, or increase ball_radius"
        )
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    kept = target.distance_to_many(nodes) <= ball_radius
    cover = UnionOfBalls(nodes[kept], np.full(np.count_nonzero(kept), float(ball_radius)))

    probes = _cover_probes(target, probe_count, seed)
    failures = _grid_cover_failures(probes, axes, pitch, kept.reshape(mesh[0].shape), cover)
    if failures:
        raise CoverageError(f"{failures}/{probe_count} cover probes uncovered")
    return cover


def _grid_cover_failures(
    probes: np.ndarray, axes: list[np.ndarray], pitch: float, kept: np.ndarray, cover: UnionOfBalls
) -> int:
    """Count ``probes`` outside ``cover``, the balls at the ``kept`` grid nodes.

    ``axes`` are the grid's node coordinates per axis at spacing ``pitch``
    and ``kept`` is the boolean node mask in meshgrid (``"ij"``) shape.
    Rounding each probe coordinate to its axis gives the probe's nearest
    node; a probe within the radius of that node, when it is kept, is
    covered.  Every other probe is measured against all of ``cover``, so
    the count equals ``verify_cover``'s for the same probes.
    """
    start = np.array([a[0] for a in axes])
    last = np.array([len(a) - 1 for a in axes])
    index = np.clip(np.rint((probes - start) / pitch), 0, last).astype(np.intp)
    nearest = np.stack([a[i] for a, i in zip(axes, index.T)], axis=1)
    near = np.linalg.norm(probes - nearest, axis=1) - cover.radii[0] <= 0
    covered = kept[tuple(index.T)] & near
    return int(np.count_nonzero(cover.distance_to_many(probes[~covered]) > 0))


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
    of ``cover``, a :class:`~robustlab.regions.UnionOfBalls`.  Probes are
    ``probe_count`` uniform samples for positive-measure targets; a
    zero-measure target (finite points, radius-zero balls) is probed at
    its defining points exactly.
    """
    probes = _cover_probes(target, probe_count, seed)
    return int(np.count_nonzero(cover.distance_to_many(probes) > 0))
