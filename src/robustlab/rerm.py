"""The exact RERM oracle and the tolerant learner built on it.

The tolerant learner draws an expansion radius uniformly from
``[eps * delta * gamma / 7, gamma]``, draws its sample independently of the
radius (separate derived RNG streams), and asks the oracle for the class
member minimizing empirical robust loss on the radius-expanded regions;
given lists of sample sizes and seeds it solves one run per entry in one pass.

:class:`IndexedExhaustiveOracle` is bound to one class, one region family
and one finite distribution.  It builds the (hypothesis x atom) table of
:func:`~robustlab.classifiers.violation_radius` flip radii once and takes
every sample as an array of atom indices.  It returns a true argmin with
lowest-index tie-breaking, and rejects an empty sample, an index that is
not an atom's, a negative or NaN radius, and an array of radii where one
radius is asked for with ``ValueError``.  A member's exact expected loss
reads its row alone, and an array of radii gives one optimal count per
radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classifiers import (
    DiscreteDistribution,
    FiniteClass,
    Hypothesis,
    LabeledExample,
    LinearClassifier,
    SphereBoundary,
    _violated,
    _violation_table,
)
from .geometry import Ball, _is_integer
from .regions import FinitePoints, RegionFamily, UnionOfBalls
from .seeding import rng_for, uniform_sphere

__all__ = [
    "RermSolution",
    "IndexedExhaustiveOracle",
    "TolRermResult",
    "tolrerm",
    "GapAudit",
    "opt_gap_audit",
    "LearningTask",
    "make_learning_task",
]


@dataclass(frozen=True)
class RermSolution:
    """Oracle output: chosen hypothesis plus its achieved empirical loss."""

    hypothesis: Hypothesis
    achieved_loss: float
    index: int


def _check_indices(indices: np.ndarray, size: int, what: str) -> None:
    """Reject indices that are not integers in ``[0, size)``."""
    if indices.dtype.kind not in "iu":
        raise ValueError(f"{what} indices must be integers")
    if not (indices.min() >= 0 and indices.max() < size):
        raise ValueError(f"{what} indices must lie in [0, {size})")


class IndexedExhaustiveOracle:
    """Exact argmin over a finite class, bound to one family and one support.

    Builds the violation table once, over the support atoms: per
    (hypothesis, atom), the expansion radius at which the robust loss flips
    to 1.  Solving at any radius is then one vectorized comparison, which
    makes radius profiles and large trial sweeps exact and cheap.

    A sample is an array of atom indices into the bound distribution (as
    ``dist.sample_indices`` draws them), so atoms sharing a point keep
    apart.  The lowest class index wins ties.
    """

    def __init__(self, cls: FiniteClass, family: RegionFamily, dist: DiscreteDistribution):
        self.cls = cls
        self.dist = dist
        regions = [family.region_for(ex.x) for ex in dist.examples]
        self._radii, self._incl = _violation_table(cls, regions, dist.examples)

    def violated(self, r) -> np.ndarray:
        """Boolean (hypothesis, atom) violation table at r: (H, N), or (R, H, N) for R radii."""
        return _violated(self._radii, self._incl, r)

    def distribution_loss(self, h_idx: int, r: float) -> float:
        """Exact expected robust loss of class member ``h_idx`` at radius r."""
        if np.ndim(r):
            raise ValueError(f"distribution_loss takes one radius, got {r!r}")
        _check_indices(np.asarray(h_idx), len(self.cls), "hypothesis")
        row = _violated(self._radii[h_idx], self._incl[h_idx], r)
        return float(row @ self.dist.probabilities)

    def _atom_counts(self, atom_indices) -> np.ndarray:
        """How many times a nonempty sample of atom indices holds each atom."""
        atom_indices = np.asarray(atom_indices)
        if atom_indices.size == 0:
            raise ValueError("empty sample")
        _check_indices(atom_indices, len(self.dist), "atom")
        return np.bincount(atom_indices.astype(np.intp), minlength=len(self.dist))

    def _counts(self, atom_counts: np.ndarray, r) -> np.ndarray:
        """Integer violation counts at r, hypotheses last, of an ``(N,)`` atom tally or ``(R, N)`` at R radii."""
        return (self.violated(r) @ atom_counts[..., None])[..., 0]

    def solve(self, atom_indices: np.ndarray, r: float) -> RermSolution:
        """Lowest-index minimizer of empirical robust loss at r on the sampled atoms."""
        if np.ndim(r):
            raise ValueError(f"solve takes one radius, got {r!r}")
        counts = self._counts(self._atom_counts(atom_indices), r)
        idx = int(np.argmin(counts))
        return RermSolution(self.cls[idx], int(counts[idx]) / len(atom_indices), idx)

    def opt_count(self, atom_indices: np.ndarray, r) -> np.ndarray:
        """Least violation count over the class at r, one per radius for an array of radii."""
        return self._counts(self._atom_counts(atom_indices), r).min(axis=-1)


def _check_tolerance(eps: float, delta: float, gamma: float) -> None:
    """Reject eps or delta outside (0, 1] and a gamma that is not finite and positive."""
    if not (0 < eps <= 1 and 0 < delta <= 1):
        raise ValueError("eps and delta must lie in (0, 1]")
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be finite and positive")


@dataclass(frozen=True)
class TolRermResult:
    hypothesis: Hypothesis
    r_used: float
    achieved_loss: float
    n: int
    index: int


def tolrerm(
    oracle: IndexedExhaustiveOracle,
    eps: float,
    delta: float,
    gamma: float,
    n,
    seed,
) -> TolRermResult | list[TolRermResult]:
    """Tolerant RERM: random radius, independent sample, one exact argmin.

    The radius is uniform on ``[eps*delta*gamma/7, gamma]`` and the sample
    of size ``n`` is drawn from an independently derived RNG stream, so the
    two draws never share state.  Deterministic per seed; the radius used
    is reported for audit, and so is the oracle's index of the answer.

    Equal-length 1-D sequences ``n`` and ``seed`` make one run per entry, on
    its own two streams, solved in one pass (the table at every radius times
    each run's atom tally); the results come in order, each equal to its
    scalar call.  An ``n`` that is not a positive integer (a bool is not),
    unequal lengths and an empty run list raise ``ValueError``.
    """
    _check_tolerance(eps, delta, gamma)
    one = np.ndim(n) == np.ndim(seed) == 0
    if not one and not (np.ndim(n) == np.ndim(seed) == 1 and len(n) == len(seed) > 0):
        raise ValueError("n and seed must be one value each or equal-length nonempty 1-D sequences")
    ns, seeds = ([n], [seed]) if one else (list(n), list(seed))
    for k in ns:
        if not _is_integer(k) or k < 1:
            raise ValueError(f"n must be a positive integer, got {k!r}")
    lo = eps * delta * gamma / 7.0
    rs = np.array([rng_for(s, "radius").uniform(lo, gamma) for s in seeds])
    draws = [oracle.dist.sample_indices(k, rng_for(s, "sample")) for k, s in zip(ns, seeds)]
    counts = oracle._counts(np.array([np.bincount(d, minlength=len(oracle.dist)) for d in draws]), rs)
    best = counts.argmin(axis=-1)  # the first minimum: lowest index on ties
    results = [TolRermResult(oracle.cls[i], float(r), int(c[i]) / int(k), k, int(i))
               for r, c, i, k in zip(rs, counts, best, ns)]
    return results[0] if one else results


@dataclass(frozen=True)
class GapAudit:
    """Empirical stability of the optimum under a small radius shrink."""

    frequency_ok: float
    mean_gap: float
    alpha: float
    gap_threshold: float
    target_frequency: float
    mean_gap_bound: float
    trials: int


def opt_gap_audit(
    profile: Callable[[np.ndarray], np.ndarray],
    eps: float,
    delta: float,
    gamma: float,
    trials: int,
    seed: int,
) -> GapAudit:
    """Sample radii and measure how often the optimum moved by > eps/3.

    Draws ``trials`` radii ``r`` uniform on ``[alpha, gamma]`` with ``alpha =
    eps*delta*gamma/7`` and evaluates the gaps ``opt(r) - opt(r - alpha)`` in
    two calls of ``profile``, which maps an array of radii to their optima.
    For any monotone [0, 1]-valued profile the mean gap is at most ``alpha /
    (gamma - alpha)`` and the frequency of gaps below ``eps/3`` is at least
    ``1 - delta/2``; the audit returns both empirical statistics alongside
    those targets.  Non-integer ``trials`` raise ``ValueError``, and so does a
    profile without one optimum per radius.
    """
    _check_tolerance(eps, delta, gamma)
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful audit")
    alpha = eps * delta * gamma / 7.0
    rs = rng_for(seed, "gap-audit").uniform(alpha, gamma, size=trials)
    upper, lower = profile(rs), profile(rs - alpha)
    if np.shape(upper) != rs.shape or np.shape(lower) != rs.shape:
        raise ValueError(f"profile must return one optimum per radius, shape {rs.shape}")
    gaps = np.subtract(upper, lower)
    return GapAudit(
        frequency_ok=float(np.mean(gaps <= eps / 3.0 + 1e-12)),
        mean_gap=float(np.mean(gaps)),
        alpha=alpha,
        gap_threshold=eps / 3.0,
        target_frequency=1.0 - delta / 2.0,
        mean_gap_bound=alpha / (gamma - alpha),
        trials=trials,
    )


@dataclass(frozen=True)
class LearningTask:
    """A finite-support robust learning problem with a finite regular class."""

    family: RegionFamily
    dist: DiscreteDistribution
    cls: FiniteClass
    gamma: float


def make_learning_task(task_seed: int, *, gamma: float = 0.25) -> LearningTask:
    """Random desk-scale task: mixed region variants, halfspace/sphere class.

    Labels come from a teacher halfspace with a small flip rate, regions
    cycle through ball, finite-point, and two-ball-union variants anchored
    at each support point, and the class holds twelve regular hypotheses:
    the teacher, 8 jittered halfspaces and 3 random sphere boundaries.
    """
    rng = rng_for(task_seed, "task")
    n_atoms = int(rng.integers(6, 11))
    anchors = rng.uniform(-3, 3, size=(n_atoms, 2))

    w_t = uniform_sphere(1, 2, 1.0, rng)[0]
    b_t = float(rng.uniform(-0.5, 0.5))
    teacher = LinearClassifier(w_t, b_t)
    labels = teacher.predict_many(anchors)
    flip = rng.random(n_atoms) < 0.08
    labels = np.where(flip, -labels, labels)

    assignments = []
    for i, a in enumerate(anchors):
        kind = i % 3
        if kind == 0:
            region = Ball(a, float(rng.uniform(0.1, 0.35)))
        elif kind == 1:
            jitter = rng.uniform(-0.15, 0.15, size=(2, 2))
            region = FinitePoints(np.vstack([a, a + jitter]))
        else:
            off = rng.uniform(-0.3, 0.3, size=2)
            region = UnionOfBalls([a, a + off], [rng.uniform(0.1, 0.25), rng.uniform(0.05, 0.2)])
        assignments.append((a, region))
    family = RegionFamily(assignments)

    probs = rng.dirichlet(np.full(n_atoms, 3.0))
    examples = [LabeledExample(a, int(y)) for a, y in zip(anchors, labels)]
    dist = DiscreteDistribution(list(zip(examples, probs)))

    hyps: list[Hypothesis] = [teacher]
    for _ in range(8):
        w = w_t + rng.normal(scale=0.6, size=2)
        norm = np.linalg.norm(w)
        if norm == 0:
            w, norm = np.array([1.0, 0.0]), 1.0
        hyps.append(LinearClassifier(w / norm, b_t + float(rng.normal(scale=0.5))))
    for _ in range(3):
        center = anchors[int(rng.integers(n_atoms))] + rng.normal(scale=0.5, size=2)
        hyps.append(SphereBoundary(center, float(rng.uniform(1.0, 2.5)), 1 if rng.random() < 0.5 else -1))
    return LearningTask(family, dist, FiniteClass(tuple(hyps)), gamma)
