"""Two-anchor distinguishing game for sampling-oracle query lower bounds.

The construction places two antipodal anchors whose perturbation regions
come in two nearly indistinguishable variants: a plain ball family U, and a
family V that additionally owns a small off-center ball near the origin.
Exactly one hypothesis of a two-halfspace class is optimal under each
variant, and the only evidence separating them is oracle mass in the thin
set ``V^gamma \\ U^gamma``.  The query game measures how many uniform
oracle draws a Bayes-optimal learner needs before its excess error decays,
which scales like the inverse of that relative mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import (
    DiscreteDistribution,
    FiniteClass,
    LabeledExample,
    LinearClassifier,
    robust_loss_distribution,
)
from .geometry import Ball, _in_ball, _is_integer
from .regions import RegionFamily, UnionOfBalls, _region_balls, _rejection_draw
from .seeding import rng_for

__all__ = [
    "OracleGameInstance",
    "build_oracle_game",
    "loss_table",
    "MeasureAudit",
    "measure_bound_audit",
    "QuerySweepResult",
    "run_query_game",
    "detection_threshold",
    "wilson_interval",
]


@dataclass(frozen=True, eq=False)
class OracleGameInstance:
    """Frozen geometry of the two-anchor distinguishing construction."""

    D: float
    gamma: float
    d: int
    D0: float
    v: np.ndarray
    v_prime: np.ndarray
    u_family: RegionFamily
    v_family: RegionFamily
    h1: LinearClassifier
    h2: LinearClassifier
    cls: FiniteClass
    dist: DiscreteDistribution


def build_oracle_game(D: float, gamma: float, d: int) -> OracleGameInstance:
    """Build and machine-check the two-anchor instance.

    Requires ``D > 10 * gamma``.  Derived quantities: core scale
    ``D0 = D - 9*gamma``, anchors ``+-(D0/2 + 4*gamma) e1``, side-ball
    anchor offset ``+-2*gamma e1``.  The U regions are radius-``D0/2``
    balls; the V regions add a radius-``5*gamma/2`` ball at the offset.
    Disjointness of the U pair and overlap of the V pair are verified by
    center-distance arithmetic on construction.
    """
    if not D > 10 * gamma > 0:
        raise ValueError("need D > 10 * gamma > 0")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    D0 = D - 9.0 * gamma
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = (D0 / 2.0 + 4.0 * gamma) * e1
    v_prime = 2.0 * gamma * e1

    anchors, sides = [v, -v], [v_prime, -v_prime]
    u_family = RegionFamily([(a, Ball(a, D0 / 2.0)) for a in anchors])
    v_radii = [D0 / 2.0, 5.0 * gamma / 2.0]
    v_family = RegionFamily([(a, UnionOfBalls([a, s], v_radii)) for a, s in zip(anchors, sides)])

    # U_v and U_{-v} must be disjoint, even after gamma expansion
    gap = float(np.linalg.norm(v - (-v)))
    assert gap > 2 * (D0 / 2.0 + gamma), "U regions unexpectedly intersect"
    # the V side balls must intersect each other
    side_gap = float(np.linalg.norm(v_prime - (-v_prime)))
    assert side_gap <= 5.0 * gamma, "V regions unexpectedly disjoint"
    # the side ball never reaches the opposite expanded core
    cross = float(np.linalg.norm(v_prime - (-v))) - (7.0 * gamma / 2.0 + D0 / 2.0 + gamma)
    assert cross > 0, "side ball leaks into the opposite core"

    h1 = LinearClassifier(e1, 0.0)
    h2 = LinearClassifier(e1, -(D0 + 4.0 * gamma))
    dist = DiscreteDistribution(
        [
            (LabeledExample(v, 1), 0.5),
            (LabeledExample(-v, -1), 0.5),
        ]
    )
    return OracleGameInstance(
        D, gamma, d, D0, v, v_prime, u_family, v_family, h1, h2, FiniteClass((h1, h2)), dist
    )


def loss_table(inst: OracleGameInstance) -> dict[tuple[str, str], float]:
    """Exact robust losses of both hypotheses under both families."""
    out = {}
    for fam_name, fam in (("U", inst.u_family), ("V", inst.v_family)):
        for h_name, h in (("h1", inst.h1), ("h2", inst.h2)):
            out[(fam_name, h_name)] = robust_loss_distribution(h, fam, inst.dist)
    return out


def _escape_label(inst: OracleGameInstance):
    """The gamma-expanded +v V region and a rejection label: does a row escape both U cores?

    Every region here is its family's ``region_for(x).expand(gamma)``.  The
    label (see :func:`~robustlab.regions._rejection_draw`) tests every box
    row against each ball of the region, and its value for a row is whether
    the row lies outside the gamma-expanded U cores of +v and -v.
    Ball 0 of the region is the +v core, the same center and radius, as
    :func:`build_oracle_game` makes it; this is checked once here, and only
    then is ball 0's test reused for the core.  Only accepted rows outside
    the +v core, about 0.3% of them at d = 3 and D = 50, are tested against
    the -v core.  (:func:`build_oracle_game` checks that its side ball
    misses that core, so there the test finds none; it keeps the label
    right for any instance.)
    """
    core_plus, core_minus = (inst.u_family.region_for(a).expand(inst.gamma) for a in (inst.v, -inst.v))
    region = inst.v_family.region_for(inst.v).expand(inst.gamma)
    centers, radii = _region_balls(region)
    plus_centers, plus_radii = _region_balls(core_plus)
    plus_is_ball0 = len(plus_radii) == 1 and np.array_equal(centers[0], plus_centers[0]) and radii[0] == plus_radii[0]

    def label(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        first = _in_ball(rows, centers[0], radii[0])
        accepted = first.copy()
        for center, radius in zip(centers[1:], radii[1:]):
            accepted |= _in_ball(rows, center, radius)
        escapes = accepted & ~(first if plus_is_ball0 else core_plus.contains_many(rows))
        off_plus = np.flatnonzero(escapes)
        escapes[off_plus] = ~core_minus.contains_many(rows[off_plus])
        return accepted, escapes

    return region, label


def _interval_union_length(intervals: list[tuple[float, float]]) -> float:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return sum(hi - lo for lo, hi in merged)


@dataclass(frozen=True)
class MeasureAudit:
    """Relative mass of the distinguishing set under one anchor's V-region.

    ``nominal_bound`` is the target constant ``(3.5*gamma / D0)^d`` the
    audit is asked to verify; ``safe_bound`` is ``(7*gamma / D0)^d``, which
    follows mechanically from bounding the side-ball volume against the
    core ball's and holds for every valid parameter choice.
    """

    p_hat: float
    sigma: float
    nominal_bound: float
    safe_bound: float
    exact: float | None
    n_samples: int


def measure_bound_audit(inst: OracleGameInstance, n_mc: int, seed: int) -> MeasureAudit:
    """Monte-Carlo estimate of ``P(V^gamma \\ U^gamma)`` for the +v anchor.

    Samples uniformly from the anchor's gamma-expanded V region and counts
    the fraction escaping both anchors' gamma-expanded U regions.  Only
    that verdict is kept per draw (:func:`_escape_label`); the draws and
    ``p_hat`` are those of ``uniform_sample`` followed by two
    ``contains_many`` tests, bit for bit.  In one dimension the exact value
    from interval lengths is attached as an independent oracle.
    """
    if inst.d > 4:
        raise ValueError("Monte-Carlo volume audit limited to d <= 4")
    gamma, D0 = inst.gamma, inst.D0
    region, label = _escape_label(inst)
    outside = _rejection_draw(region, n_mc, rng_for(seed, "measure"), label)
    p_hat = float(np.mean(outside))
    sigma = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n_mc)

    exact = None
    if inst.d == 1:
        R = D0 / 2.0 + gamma
        v1, vp1 = float(inst.v[0]), float(inst.v_prime[0])
        union = [(v1 - R, v1 + R), (vp1 - 3.5 * gamma, vp1 + 3.5 * gamma)]
        len_v = _interval_union_length(union)
        len_u = 2 * R
        exact = (len_v - len_u) / len_v

    return MeasureAudit(
        p_hat=p_hat,
        sigma=sigma,
        nominal_bound=(3.5 * gamma / D0) ** inst.d,
        safe_bound=(7.0 * gamma / D0) ** inst.d,
        exact=exact,
        n_samples=n_mc,
    )


@dataclass(frozen=True, eq=False)
class QuerySweepResult:
    """Excess-error curve of the Bayes rule across oracle query budgets."""

    D: float
    gamma: float
    d: int
    budgets: np.ndarray
    excess_error: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    trials: int
    anchor_queries: tuple[int, int]
    anchor_detections: tuple[int, int]
    seed: int

    def to_rows(self) -> list[dict]:
        return [
            {
                "budget": int(b),
                "excess_error": float(e),
                "ci_lo": float(lo),
                "ci_hi": float(hi),
                "D": self.D,
                "gamma": self.gamma,
                "d": self.d,
                "seed": self.seed,
            }
            for b, e, lo, hi in zip(self.budgets, self.excess_error, self.ci_lo, self.ci_hi)
        ]


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval (``z = 1.96``, about 95%) for a binomial proportion."""
    z = 1.96
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_query_game(
    inst: OracleGameInstance,
    budgets: list[int],
    trials: int,
    seed: int,
) -> QuerySweepResult:
    """Play the distinguishing game and sweep oracle query budgets.

    Per trial the adversary hides U or V with probability 1/2; the learner
    queries the sampling oracle on the two anchors alternately (draws are
    uniform on the hidden family's gamma-expanded region) and outputs the
    second hypothesis iff some draw escapes the expanded U regions, which
    is the posterior-optimal rule.  Excess error per trial is the achieved
    robust loss minus the hidden family's optimum.

    When U is hidden every draw lies inside ``U^gamma`` by construction,
    so detection is impossible and those trials contribute zero excess at
    every budget; only V-trials are materialized.  All budgets share one
    trial stream: the recorded statistic per trial is the index of its
    first distinguishing draw.

    The game keeps one bit per draw, whether it escapes both expanded U
    cores (:func:`_escape_label`), and never holds the points.  Every draw
    is taken from the +v V region.  A draw at the -v anchor is the mirror
    image of one at +v (the first coordinate negated), and it needs no
    mirroring here.  Negation is exact, and the -v core is the +v core
    mirrored.  So the mirrored point's squared distance to each core is
    the original's squared distance to the other core, bit for bit, and a
    draw and its mirror escape the cores alike.

    ``budgets`` must be distinct nonnegative integers (Python or numpy) and
    ``trials`` a positive integer; anything else raises ``ValueError``.
    """
    budgets = list(budgets)
    if not budgets:
        raise ValueError("need at least one budget")
    if not all(_is_integer(b) for b in budgets):
        raise ValueError(f"budgets must be integers, got {budgets}")
    budgets_arr = np.asarray(sorted(int(b) for b in budgets))
    if np.any(budgets_arr < 0):
        raise ValueError("budgets must be nonnegative")
    if np.any(np.diff(budgets_arr) == 0):
        raise ValueError(f"budgets must be distinct, got {budgets}")
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = rng_for(seed, "query-game")
    max_budget = int(budgets_arr.max(initial=0))

    z_is_v = rng.random(trials) < 0.5
    n_v = int(z_is_v.sum())

    region, label = _escape_label(inst)

    # first distinguishing draw per V-trial (1-based), inf if never within budget
    detect = np.full(n_v, np.inf)
    # draws and detections at the +v and the -v anchor; draw i (0-based) is at -v when i is odd
    anchor_queries = np.zeros(2, dtype=np.int64)
    anchor_detects = np.zeros(2, dtype=np.int64)
    alive = np.arange(n_v)
    offset = 0
    chunk = 64
    while alive.size and offset < max_budget:
        k = min(chunk, max_budget - offset)
        outside = _rejection_draw(region, alive.size * k, rng, label).reshape(alive.size, k)
        any_hit = outside.any(axis=1)
        first = np.where(any_hit, outside.argmax(axis=1), k)
        # probes actually spent this chunk: up to and including the first hit
        spent = np.where(any_hit, first + 1, k)
        odd = np.sum((offset + spent) // 2 - offset // 2)
        anchor_queries += (np.sum(spent) - odd, odd)
        hit_at = offset + first[any_hit]
        anchor_detects += np.bincount(hit_at % 2, minlength=2)
        detect[alive[any_hit]] = hit_at + 1
        alive = alive[~any_hit]
        offset += k
        chunk = min(2 * chunk, 4096)

    excess = np.empty(len(budgets_arr))
    ci_lo = np.empty(len(budgets_arr))
    ci_hi = np.empty(len(budgets_arr))
    for i, b in enumerate(budgets_arr):
        undetected = int(np.count_nonzero(detect > b))
        lo, hi = wilson_interval(undetected, trials)
        excess[i] = 0.5 * undetected / trials
        ci_lo[i], ci_hi[i] = 0.5 * lo, 0.5 * hi
    return QuerySweepResult(
        inst.D,
        inst.gamma,
        inst.d,
        budgets_arr,
        excess,
        ci_lo,
        ci_hi,
        trials,
        (int(anchor_queries[0]), int(anchor_queries[1])),
        (int(anchor_detects[0]), int(anchor_detects[1])),
        seed,
    )


def detection_threshold(result: QuerySweepResult) -> float | None:
    """Interpolated budget at which the excess-error curve crosses ``1/8``.

    Log-linear interpolation between the bracketing budget grid points;
    None when the curve never drops below the level.
    """
    level = 0.125
    ex = result.excess_error
    budgets = result.budgets.astype(float)
    below = np.flatnonzero(ex < level)
    if below.size == 0:
        return None
    i = int(below[0])
    if i == 0:
        return float(budgets[0])
    x0, x1 = math.log(max(budgets[i - 1], 1e-12)), math.log(budgets[i])
    y0, y1 = ex[i - 1], ex[i]
    t = (y0 - level) / (y0 - y1)
    return float(math.exp(x0 + t * (x1 - x0)))
