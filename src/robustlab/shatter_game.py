"""Sphere shatter families and the proper-learner failure game.

A bounded halfspace whose boundary is tangent to the radius-W sphere at a
point classifies, on any slightly larger concentric sphere, exactly a small
cap around the lifted tangent point as positive.  Packing the larger sphere
at twice the cap radius therefore yields cells with two properties that no
single halfspace can escape: every bounded halfspace is positive somewhere
on the sphere, while each cell owns a witness halfspace that is negative on
all other cells.

Indexing the cells by the m-element subsets of a 3m-point ground set turns
this geometry into perturbation regions on which every proper learner
provably fails: whatever the learner picks after seeing m labeled anchors,
a uniformly hidden subset forces constant expected robust loss.  The game
runner measures that loss empirically against pluggable learner strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import seeding  # rng_for is read at each call, so a later rebinding in seeding reaches it
from .classifiers import LabeledExample, LinearClassifier, _loss_table
from .geometry import SphereCover, _count, _in_ball, _pair_distances, _radius, greedy_sphere_cover
from .regions import FinitePoints, RegionFamily
from .seeding import as_generator, uniform_sphere

__all__ = [
    "tangent_hypothesis",
    "positive_cap_radius",
    "cap_mismatch_fraction",
    "ShatterFamily",
    "build_shatter_family",
    "FailureInstance",
    "build_failure_instance",
    "export_instance",
    "cross_loss_exact",
    "cross_loss_formula",
    "GameObservation",
    "GameResult",
    "best_response_learner",
    "random_consistent_learner",
    "omniscient_learner",
    "exact_expected_loss",
    "run_adversarial_game",
]

# The cap scale build_shatter_family starts from, and its halvings before it gives up.
BETA0 = 0.25
MAX_HALVINGS = 40
# Uniform sphere points drawn per packing center to fill the cells.
SAMPLES_PER_CELL = 200


def tangent_hypothesis(x_on_sphere, W: float) -> LinearClassifier:
    """The halfspace tangent to the radius-W sphere at ``x``, positive at x.

    Normal is the outward radial direction and the boundary passes through
    ``x``, so the positive side is the closed halfspace beyond the tangent
    plane: weights ``x / ||x||``, bias ``-W``.
    """
    x = np.asarray(x_on_sphere, dtype=float)
    norm = float(np.linalg.norm(x))
    if abs(norm - W) > 1e-9 * max(1.0, W):
        raise ValueError(f"point has norm {norm}, expected {W}")
    return LinearClassifier(x / norm, -W)


def positive_cap_radius(W: float, beta: float) -> float:
    """Chordal radius of a tangent halfspace's positive cap.

    On the concentric sphere of radius ``W * (1 + beta)`` the tangent
    halfspace at ``x`` is positive exactly on the chordal ball of radius
    ``W * sqrt(2 * beta * (beta + 1))`` around the lifted point
    ``(1 + beta) * x``: expand ``||z - (1+beta) x||^2`` on the sphere and
    the inner-product threshold ``<x, z> >= W^2`` falls out.
    """
    return W * math.sqrt(2.0 * beta * (beta + 1.0))


def cap_mismatch_fraction(W: float, beta: float, x_on_sphere, n: int, seed) -> float:
    """Fraction of sphere samples where the sign rule and the cap disagree.

    Algebraically the two predicates are identical, so the fraction is zero
    up to floating-point ties on the cap boundary (measure zero for random
    samples).
    """
    n = _count(n, "n", 1)
    x = np.asarray(x_on_sphere, dtype=float)
    h = tangent_hypothesis(x, W)
    rng = as_generator(seed)
    z = uniform_sphere(n, x.size, W * (1.0 + beta), rng)
    positive = h.predict_many(z) == 1
    in_cap = _in_ball(z, (1.0 + beta) * x, positive_cap_radius(W, beta))
    return float(np.mean(positive != in_cap))


@dataclass(frozen=True, eq=False)
class ShatterFamily:
    """Cells partitioning a sphere, with per-cell negative witnesses.

    ``cells[i]`` holds finite samples of the i-th nearest-center cell of
    the packing (each cell includes its own center, and surplus packing
    cells are merged into the last one).  ``witnesses[i]`` is positive only
    inside a chordal ball strictly interior to cell i, hence negative on
    every sample of every other cell; that stipulation is audited exactly
    on construction.  The mesh equals twice the positive-cap radius.
    """

    W: float
    beta: float
    M: int
    cover: SphereCover
    cells: tuple[np.ndarray, ...]
    witnesses: tuple[LinearClassifier, ...]

    def all_points(self) -> np.ndarray:
        return np.vstack(self.cells)


def build_shatter_family(W: float, d: int, M: int, seed: int) -> ShatterFamily:
    """Shrink the cap scale until the sphere packs at least M cells.

    The packing mesh is twice the positive-cap radius, which tends to zero
    with the scale parameter, so halving it enough times always reaches M
    cells; the loop reports the achieved count if the budget runs out.
    Cell samples are uniform sphere points assigned to their nearest
    packing center (the deterministic seed fixes everything).
    """
    d, M = _count(d, "d", 2), _count(M, "M", 1)
    _radius(W, "W")
    beta = BETA0
    cover = None
    for halving in range(MAX_HALVINGS):
        mesh = 2.0 * positive_cap_radius(W, beta)
        cover = greedy_sphere_cover(d, W * (1.0 + beta), mesh, seeding.rng_for(seed, f"cover-{halving}"))
        if len(cover) >= M:
            break
        beta /= 2.0
    else:
        raise RuntimeError(
            f"cap-scale search exhausted {MAX_HALVINGS} halvings; best packing had {len(cover)} < {M} cells"
        )
    if not cover.certified:
        raise RuntimeError(f"sphere cover maximality probe failed ({cover.probe_failures} escapes)")

    K = len(cover)
    rng = seeding.rng_for(seed, "cells")
    samples = uniform_sphere(SAMPLES_PER_CELL * K, d, W * (1.0 + beta), rng)
    nearest = np.empty(len(samples), dtype=np.intp)
    for rows, dist in _pair_distances(samples, cover.centers):
        nearest[rows] = np.argmin(dist, axis=1)
    raw_cells = [
        np.vstack([cover.centers[i], samples[nearest == i]]) for i in range(K)
    ]
    cells = raw_cells[: M - 1] + [np.vstack(raw_cells[M - 1 :])]

    witnesses = tuple(
        tangent_hypothesis(cover.centers[i] / (1.0 + beta), W) for i in range(M)
    )
    # the robust loss at label -1 on a cell is 1 iff the witness is positive there
    regions = [FinitePoints(cell) for cell in cells]
    losses = _loss_table(witnesses, regions, [LabeledExample(cell[0], -1) for cell in cells])
    np.fill_diagonal(losses, 0)
    if np.any(losses):
        i, j = np.argwhere(losses)[0]
        raise RuntimeError(f"witness {i} is positive on cell {j}: construction bug")
    return ShatterFamily(W, beta, M, cover, tuple(cells), witnesses)


@dataclass(frozen=True, eq=False)
class FailureInstance:
    """Perturbation regions on which proper learners provably fail.

    Anchors ``x_0 .. x_{3m-1}`` all carry label -1; the region of anchor i
    is the union of the cells indexed by the m-subsets containing i, so
    witness ``h_T`` is robustly correct exactly on the anchors outside T.
    """

    m: int
    M: int
    W: float
    d: int
    subsets: tuple[tuple[int, ...], ...]
    shatter: ShatterFamily
    family: RegionFamily
    anchors: np.ndarray
    witnesses: tuple[LinearClassifier, ...]

    @property
    def n_anchors(self) -> int:
        return 3 * self.m


def build_failure_instance(m: int, W: float, d: int, seed: int) -> FailureInstance:
    """Assemble the 3m-anchor instance over a C(3m, m)-cell shatter family.

    Exact audits run on construction: each subset's witness must be
    robustly correct on every anchor outside its subset and must lack
    robustness on every anchor inside it (its own cell center, present in
    the region, is classified positive while anchors are labeled -1).
    """
    m = _count(m, "m", 1)
    M = math.comb(3 * m, m)
    if M > 2000:
        raise ValueError(f"C(3m, m) = {M} exceeds the desk-scale build budget")
    shatter = build_shatter_family(W, d, M, seed)
    subsets = tuple(combinations(range(3 * m), m))

    n = 3 * m
    cell_stacks: list[np.ndarray] = []
    anchors = np.empty((n, d))
    for i in range(n):
        owning = [t for t, T in enumerate(subsets) if i in T]
        cell_stacks.append(np.vstack([shatter.cells[t] for t in owning]))
        t_first = owning[0]
        rank = subsets[t_first].index(i)
        cell = shatter.cells[t_first]
        if len(cell) < m:
            raise RuntimeError(f"cell {t_first} has only {len(cell)} samples (< m)")
        anchors[i] = cell[rank]

    regions = [FinitePoints(stack) for stack in cell_stacks]
    family = RegionFamily(list(zip(anchors, regions)))
    witnesses = shatter.witnesses

    # witness t must lack robustness (label -1) exactly on the anchors in subset t
    incidence = np.array([[i in T for i in range(n)] for T in subsets], dtype=np.int8)
    losses = _loss_table(witnesses, regions, [LabeledExample(a, -1) for a in anchors])
    if np.any(losses != incidence):
        t, i = np.argwhere(losses != incidence)[0]
        raise RuntimeError(f"witness {t} robustness pattern wrong at anchor {i}")
    return FailureInstance(m, M, W, d, subsets, shatter, family, anchors, witnesses)


def export_instance(inst: FailureInstance) -> dict:
    """JSON-ready snapshot of the instance.

    Anchors, subsets, witnesses, and each anchor's region are serialized
    explicitly so a run can be re-audited without rebuilding the sphere
    packing.  Each region is a ``{"kind": "points", "points": [...]}``
    dict whose points list ``FinitePoints(region["points"])`` rebuilds.
    """
    return {
        "m": inst.m,
        "M": inst.M,
        "W": inst.W,
        "d": inst.d,
        "beta": inst.shatter.beta,
        "subsets": [list(T) for T in inst.subsets],
        "anchors": inst.anchors.tolist(),
        "witnesses": [
            {"w": h.w.tolist(), "b": h.b} for h in inst.witnesses
        ],
        "regions": [
            {"kind": "points", "points": inst.family.region_for(a).points.tolist()} for a in inst.anchors
        ],
    }


def cross_loss_exact(inst: FailureInstance, t: int, t_prime: int) -> float:
    """Robust loss of witness t under the uniform distribution on anchors
    outside subset t_prime, evaluated by direct enumeration."""
    support = [inst.anchors[i] for i in range(inst.n_anchors) if i not in inst.subsets[t_prime]]
    regions = [inst.family.region_for(a) for a in support]
    return float(np.mean(_loss_table([inst.witnesses[t]], regions, [LabeledExample(a, -1) for a in support])))


def cross_loss_formula(inst: FailureInstance, t: int, t_prime: int) -> float:
    """Closed form: 1/2 minus the subset overlap over 2m."""
    overlap = len(set(inst.subsets[t]) & set(inst.subsets[t_prime]))
    return 0.5 - overlap / (2.0 * inst.m)


@dataclass
class GameObservation:
    """What a learner sees in one trial: m labeled anchor draws.

    ``true_subset_index`` is populated for the omniscient control only;
    honest strategies must not read it.
    """

    observed_indices: tuple[int, ...]
    m: int
    n_anchors: int
    subsets: tuple[tuple[int, ...], ...]
    rng: np.random.Generator
    true_subset_index: int | None = None


LearnerStrategy = Callable[[GameObservation], int]


def _consistent_subsets(obs: GameObservation) -> list[int]:
    seen = set(obs.observed_indices)
    return [t for t, T in enumerate(obs.subsets) if not seen & set(T)]


def best_response_learner(obs: GameObservation) -> int:
    """Lowest-index subset disjoint from everything observed.

    Observed anchors lie outside the hidden subset, so consistency means
    avoiding them; among consistent subsets the overlap distribution is
    symmetric and any deterministic pick is a best response.
    """
    return _consistent_subsets(obs)[0]


def random_consistent_learner(obs: GameObservation) -> int:
    candidates = _consistent_subsets(obs)
    return int(candidates[obs.rng.integers(len(candidates))])


def omniscient_learner(obs: GameObservation) -> int:
    """Control strategy: told the hidden subset, plays it back."""
    assert obs.true_subset_index is not None
    return obs.true_subset_index


@dataclass(frozen=True)
class GameResult:
    trials: int
    loss_samples: np.ndarray
    mean_loss: float
    freq_loss_above_eighth: float


def exact_expected_loss(inst: FailureInstance, learner: LearnerStrategy) -> "Fraction":
    """Exact expected game loss of a deterministic learner, no sampling.

    Enumerates every hidden subset and every ordered sample of anchor
    draws (feasible for m <= 2: at m = 2 that is 15 x 16 weighted pairs)
    and accumulates the overlap-formula loss in exact rational arithmetic.
    Only meaningful for learners that ignore the RNG and the hidden subset.
    """
    from fractions import Fraction
    from itertools import product

    total = Fraction(0)
    n_subsets = inst.M
    for hidden, T in enumerate(inst.subsets):
        support = [i for i in range(inst.n_anchors) if i not in T]
        weight = Fraction(1, n_subsets * len(support) ** inst.m)
        for draws in product(support, repeat=inst.m):
            obs = GameObservation(draws, inst.m, inst.n_anchors, inst.subsets, None, None)
            answer = learner(obs)
            overlap = len(set(inst.subsets[answer]) & set(T))
            total += weight * (Fraction(1, 2) - Fraction(overlap, 2 * inst.m))
    return total


def run_adversarial_game(
    inst: FailureInstance,
    learner: LearnerStrategy,
    n_samples: int,
    trials: int,
    seed: int,
) -> GameResult:
    """Play the hidden-subset game and record exact per-trial losses.

    Per trial: a subset T is hidden uniformly, the data distribution is
    uniform over the anchors outside T (all labeled -1), the learner sees
    ``n_samples`` i.i.d. anchor draws and must answer with a witness index.
    The trial's loss is the exact distributional robust loss of that
    witness, which the construction audits reduce to the overlap formula.
    Before any draw, ``n_samples`` below 0 or ``trials`` below 1, or either
    not an integer, raises ``ValueError``.
    """
    n_samples, trials = _count(n_samples, "n_samples"), _count(trials, "trials", 1)
    rng = seeding.rng_for(seed, "subset-game")
    losses = np.empty(trials)
    all_idx = np.arange(inst.n_anchors)
    for t in range(trials):
        hidden = int(rng.integers(inst.M))
        support = all_idx[~np.isin(all_idx, inst.subsets[hidden])]
        draws = tuple(int(i) for i in rng.choice(support, size=n_samples, replace=True))
        obs = GameObservation(draws, inst.m, inst.n_anchors, inst.subsets, rng, hidden)
        answer = learner(obs)
        losses[t] = cross_loss_formula(inst, answer, hidden)
    return GameResult(
        trials=trials,
        loss_samples=losses,
        mean_loss=float(losses.mean()),
        freq_loss_above_eighth=float(np.mean(losses > 0.125)),
    )
