"""Robust empirical risk minimization oracles and the tolerant variant.

The tolerant learner draws an expansion radius uniformly from
``[eps * delta * gamma / 7, gamma]``, draws its sample independently of the
radius (separate derived RNG streams), and asks an oracle for the class
member minimizing empirical robust loss on the radius-expanded regions.

Two exact oracle realizations ship, both on one violation table: the
(hypothesis x example) flip radii of
:func:`~robustlab.classifiers.violation_radius` on the unexpanded regions,
compared against the requested radius.

* :class:`ExhaustiveFiniteOracle` scans an explicit class and returns a
  true argmin with lowest-index tie-breaking;
* :class:`IndexedExhaustiveOracle` builds the table once over a bound
  distribution's atoms and answers any radius and any sample of those
  atoms from it.

Both reject an empty sample and a radius that is negative or NaN with
``ValueError``.
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
from .geometry import Ball
from .regions import FinitePoints, RegionFamily, UnionOfBalls
from .seeding import rng_for, uniform_sphere

__all__ = [
    "RermSolution",
    "ExhaustiveFiniteOracle",
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
    n_candidates: int


class ExhaustiveFiniteOracle:
    """Exact argmin over an explicit finite class (lowest index wins ties)."""

    def __init__(self, cls: FiniteClass):
        self.cls = cls

    def solve(self, family: RegionFamily, sample: list[LabeledExample], r: float) -> RermSolution:
        if not sample:
            raise ValueError("empty sample")
        regions = [family.region_for(ex.x) for ex in sample]
        counts = _violated(*_violation_table(self.cls, regions, sample), r).sum(axis=1)
        best = int(np.argmin(counts))
        return RermSolution(self.cls[best], int(counts[best]) / len(sample), best, len(self.cls))


class IndexedExhaustiveOracle:
    """Exhaustive oracle bound to one family and one finite support.

    Builds the violation table once, over the support atoms: per
    (hypothesis, atom), the expansion radius at which the robust loss flips
    to 1.  Solving at any radius then reduces to the same vectorized
    comparison :class:`ExhaustiveFiniteOracle` makes per solve, which makes
    radius profiles and large trial sweeps exact and cheap.

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

    def _counts(self, atom_indices: np.ndarray, r: float) -> np.ndarray:
        """Per-hypothesis violation counts at r over a nonempty sample of atom indices."""
        if len(atom_indices) == 0:
            raise ValueError("empty sample")
        return self.violated(r)[:, atom_indices].sum(axis=1)

    def solve_indices(self, atom_indices: np.ndarray, r: float) -> RermSolution:
        counts = self._counts(atom_indices, r)
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
        return int(np.min(self._counts(atom_indices, r)))


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
    _check_tolerance(eps, delta, gamma)
    if n < 1:
        raise ValueError("need at least one sample point")
    lo = eps * delta * gamma / 7.0
    r = float(rng_for(seed, "radius").uniform(lo, gamma))
    sample = dist.sample(n, rng_for(seed, "sample"))
    sol = oracle.solve(family, sample, r)
    return TolRermResult(sol.hypothesis, r, sol.achieved_loss, n, sol.index)


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
    _check_tolerance(eps, delta, gamma)
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
