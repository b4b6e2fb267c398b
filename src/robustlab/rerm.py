"""Robust empirical risk minimization oracles and the tolerant variant.

The tolerant learner draws an expansion radius uniformly from
``[eps * delta * gamma / 7, gamma]``, draws its sample independently of the
radius (separate derived RNG streams), and asks an oracle for the class
member minimizing empirical robust loss on the radius-expanded regions.

Three oracle realizations ship, all on one violation table: the
(hypothesis x example) flip radii of
:func:`~robustlab.classifiers.violation_radius` on the unexpanded regions,
compared against the requested radius.

* :class:`ExhaustiveFiniteOracle` scans an explicit class and returns a
  true argmin with lowest-index tie-breaking;
* :class:`IndexedExhaustiveOracle` builds the table once over a bound
  distribution's atoms and answers any radius and any sample of those
  atoms from it;
* :class:`LinearCandidatesOracle` searches generated halfspace candidates
  (sample-anchored hyperplanes, offset sweeps, random draws) and returns
  the best candidate together with its achieved loss, so its approximate
  nature is declared rather than silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classifiers import (
    BoundedLinearClass,
    DiscreteDistribution,
    FiniteClass,
    Hypothesis,
    LabeledExample,
    LinearClassifier,
    SphereBoundary,
    _violated,
    _violation_table,
)
from .geometry import Ball
from .regions import FinitePoints, RegionFamily, UnionOfBalls, _region_balls
from .seeding import rng_for, uniform_sphere

__all__ = [
    "RermSolution",
    "ExhaustiveFiniteOracle",
    "IndexedExhaustiveOracle",
    "LinearCandidatesOracle",
    "rerm_solve",
    "TolRermResult",
    "tolrerm",
    "OptProfile",
    "opt_profile",
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
    n_candidates: int


def _argmin_solution(hypotheses, family: RegionFamily, sample: list[LabeledExample], r: float) -> RermSolution:
    """Lowest-index minimizer of empirical robust loss on the r-expanded family."""
    if not sample:
        raise ValueError("empty sample")
    regions = [family.region_for(ex.x) for ex in sample]
    counts = _violated(*_violation_table(hypotheses, regions, sample), r).sum(axis=1)
    best = int(np.argmin(counts))
    return RermSolution(hypotheses[best], int(counts[best]) / len(sample), best, len(hypotheses))


class ExhaustiveFiniteOracle:
    """Exact argmin over an explicit finite class (lowest index wins ties)."""

    def __init__(self, cls: FiniteClass):
        self.cls = cls

    def solve(self, family: RegionFamily, sample: list[LabeledExample], r: float) -> RermSolution:
        return _argmin_solution(self.cls, family, sample, r)


class IndexedExhaustiveOracle:
    """Exhaustive oracle bound to one family and one finite support.

    Builds the violation table once, over the support atoms: per
    (hypothesis, atom), the expansion radius at which the robust loss flips
    to 1.  Solving at any radius then reduces to the same vectorized
    comparison the other oracles make per solve, which makes radius
    profiles and large trial sweeps exact and cheap.

    Atoms are identified by their index in the bound distribution, so a
    sample must hold the distribution's own example objects (as
    ``dist.sample`` returns them); any other example raises ``ValueError``.
    Atoms sharing a point keep apart, and answers are identical to
    :class:`ExhaustiveFiniteOracle` on its bound support.
    """

    def __init__(self, cls: FiniteClass, family: RegionFamily, dist: DiscreteDistribution):
        self.cls = cls
        self.family = family
        self.dist = dist
        # the distribution keeps its atoms alive, so their ids stay unique
        self._atom_index = {id(ex): j for j, ex in enumerate(dist.examples)}
        regions = [family.region_for(ex.x) for ex in dist.examples]
        self._radii, self._incl = _violation_table(cls, regions, dist.examples)

    def violated(self, r: float) -> np.ndarray:
        """Boolean (hypothesis, atom) table of robust-loss violations at r."""
        return _violated(self._radii, self._incl, r)

    def distribution_loss(self, h_idx: int, r: float) -> float:
        """Exact expected robust loss of class member ``h_idx`` at radius r."""
        return float(self.violated(r)[h_idx] @ self.dist.probabilities)

    def solve_indices(self, atom_indices: np.ndarray, r: float) -> RermSolution:
        counts = self.violated(r)[:, atom_indices].sum(axis=1)
        idx = int(np.argmin(counts))
        return RermSolution(self.cls[idx], counts[idx] / len(atom_indices), idx, len(self.cls))

    def solve(self, family: RegionFamily, sample: list[LabeledExample], r: float) -> RermSolution:
        if family is not self.family:
            raise ValueError("oracle is bound to a different region family")
        try:
            idx = np.array([self._atom_index[id(ex)] for ex in sample])
        except KeyError:
            raise ValueError(
                "sample holds an example that is not an atom of the bound distribution"
            ) from None
        return self.solve_indices(idx, r)

    def opt_count(self, atom_indices: np.ndarray, r: float) -> int:
        return int(np.min(self.violated(r)[:, atom_indices].sum(axis=1)))


class LinearCandidatesOracle:
    """Approximate RERM over bounded halfspaces via candidate search.

    Candidates: hyperplanes through d-tuples of sample points in both
    orientations, copies of those with offsets swept by the region radii
    (plus the expansion), and random bounded halfspaces up to the budget.
    Every candidate is clamped into the W-bounded class.  The returned
    solution reports the achieved loss and the number of candidates
    scanned, so optimality is never silently assumed.
    """

    def __init__(self, bound: BoundedLinearClass, candidate_budget: int, seed: int):
        if candidate_budget < 1:
            raise ValueError("candidate_budget must be positive")
        self.bound = bound
        self.candidate_budget = candidate_budget
        self.seed = seed

    def _clamp(self, w: np.ndarray, b: float) -> LinearClassifier | None:
        norm = float(np.linalg.norm(w))
        if norm == 0 or not np.isfinite(norm):
            return None
        b = float(np.clip(b / norm, -self.bound.W, self.bound.W))
        return LinearClassifier(w / norm, b)

    def _candidates(self, family: RegionFamily, sample: list[LabeledExample], r: float) -> list[LinearClassifier]:
        rng = rng_for(self.seed, "candidates")
        d = self.bound.d
        pts = np.unique(np.asarray([ex.x for ex in sample]), axis=0)
        radii = sorted(
            {round(float(np.max(_region_balls(family.region_for(ex.x))[1])) + r, 12) for ex in sample}
        )
        out: list[LinearClassifier] = []

        n_pts = len(pts)
        if n_pts >= d:
            tuple_count = 0
            for idx in _tuple_stream(n_pts, d, rng):
                if len(out) >= self.candidate_budget or tuple_count > 4 * self.candidate_budget:
                    break
                tuple_count += 1
                w = _normal_through(pts[list(idx)])
                if w is None:
                    continue
                b0 = -float(w @ pts[idx[0]])
                for sign in (1.0, -1.0):
                    for shift in [0.0] + [rr for rad in radii for rr in (rad, -rad)]:
                        h = self._clamp(sign * w, sign * (b0 + shift))
                        if h is not None:
                            out.append(h)
        while len(out) < self.candidate_budget:
            w = uniform_sphere(1, d, 1.0, rng)[0]
            h = self._clamp(w, rng.uniform(-self.bound.W, self.bound.W))
            if h is not None:
                out.append(h)
        return out[: self.candidate_budget]

    def solve(self, family: RegionFamily, sample: list[LabeledExample], r: float) -> RermSolution:
        return _argmin_solution(self._candidates(family, sample, r), family, sample, r)


def _normal_through(points: np.ndarray) -> np.ndarray | None:
    """Unit normal of a hyperplane through d points.

    The smallest right singular vector of the difference matrix is
    orthogonal to the span of the points' differences, so the returned
    normal always defines a hyperplane containing all of them (not
    necessarily unique for degenerate tuples, which is fine for candidate
    generation).
    """
    diffs = points[1:] - points[0]
    if len(diffs) == 0:
        return None
    _, _, vt = np.linalg.svd(diffs, full_matrices=True)
    return vt[-1]


def _tuple_stream(n: int, d: int, rng):
    """Deterministic stream of d-tuples of indices, exhaustive when small."""
    from itertools import combinations
    from math import comb

    if comb(n, d) <= 10_000:
        yield from combinations(range(n), d)
    else:
        while True:
            yield tuple(rng.choice(n, size=d, replace=False))


def rerm_solve(oracle, family: RegionFamily, sample: list[LabeledExample], r: float) -> tuple[Hypothesis, float]:
    """Minimize empirical robust loss over regions expanded by ``r >= 0``."""
    if r < 0:
        raise ValueError("expansion radius must be nonnegative")
    sol = oracle.solve(family, sample, r)
    return sol.hypothesis, sol.achieved_loss


@dataclass(frozen=True)
class TolRermResult:
    hypothesis: Hypothesis
    r_used: float
    achieved_loss: float
    n: int
    index: int


def tolrerm(
    oracle,
    family: RegionFamily,
    dist: DiscreteDistribution,
    eps: float,
    delta: float,
    gamma: float,
    n: int,
    seed: int,
) -> TolRermResult:
    """Tolerant RERM: random radius, independent sample, one oracle call.

    The radius is uniform on ``[eps*delta*gamma/7, gamma]`` and the sample
    of size ``n`` is drawn from an independently derived RNG stream, so the
    two draws never share state.  Deterministic per seed; the radius used
    is reported for audit, and so is the oracle's index of the answer.
    """
    if not (0 < eps <= 1 and 0 < delta <= 1):
        raise ValueError("eps and delta must lie in (0, 1]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if n < 1:
        raise ValueError("need at least one sample point")
    lo = eps * delta * gamma / 7.0
    r = float(rng_for(seed, "radius").uniform(lo, gamma))
    sample = dist.sample(n, rng_for(seed, "sample"))
    sol = oracle.solve(family, sample, r)
    return TolRermResult(sol.hypothesis, r, sol.achieved_loss, n, sol.index)


@dataclass(frozen=True, eq=False)
class OptProfile:
    """Minimal empirical robust loss as a function of expansion radius."""

    r_grid: np.ndarray
    opt_values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_grid, dtype=float)
        v = np.asarray(self.opt_values, dtype=float)
        if len(r) != len(v):
            raise ValueError("grid and values must align")
        if np.any(np.diff(r) <= 0) or np.any(r < 0):
            raise ValueError("r_grid must be strictly increasing and nonnegative")
        if np.any(v < -1e-12) or np.any(v > 1 + 1e-12):
            raise ValueError("opt values must lie in [0, 1]")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("opt profile must be nondecreasing")
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "opt_values", v)


def opt_profile(oracle, family: RegionFamily, sample: list[LabeledExample], r_grid) -> OptProfile:
    """Evaluate the optimal empirical robust loss on a radius grid."""
    values = [oracle.solve(family, sample, float(r)).achieved_loss for r in r_grid]
    return OptProfile(np.asarray(r_grid, dtype=float), np.asarray(values))


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
    opt_fn: Callable[[float], float],
    eps: float,
    delta: float,
    gamma: float,
    trials: int,
    seed: int,
) -> GapAudit:
    """Sample radii and measure how often the optimum moved by > eps/3.

    Draws ``r`` uniform on ``[alpha, gamma]`` with ``alpha = eps*delta*gamma/7``
    and evaluates the gap ``opt(r) - opt(r - alpha)``.  For any monotone
    [0, 1]-valued profile the mean gap is at most ``alpha / (gamma - alpha)``
    and the frequency of gaps below ``eps/3`` is at least ``1 - delta/2``;
    the audit returns both empirical statistics alongside those targets.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful audit")
    alpha = eps * delta * gamma / 7.0
    rng = rng_for(seed, "gap-audit")
    rs = rng.uniform(alpha, gamma, size=trials)
    gaps = np.array([opt_fn(r) - opt_fn(r - alpha) for r in rs])
    freq = float(np.mean(gaps <= eps / 3.0 + 1e-12))
    return GapAudit(
        frequency_ok=freq,
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
