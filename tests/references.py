"""Reference computations that only the tests compare the library against.

Each recomputes, by another route, a quantity the library derives or relies
on: a sampled robust loss that may miss witnesses but never invents them,
the loss-pattern to labeling correspondence behind the growth-function cap,
and the sphere shatter family's first stipulation.
"""

import numpy as np

from robustlab.classifiers import LabeledExample, _loss_table
from robustlab.geometry import _cover_probes
from robustlab.regions import FinitePoints


def robust_loss_sampled(h, region, ex, n_samples, seed) -> int:
    """One-sided sampled loss check: may miss witnesses, never invents them.

    Positive-measure regions are probed with ``n_samples`` uniform draws;
    a zero-measure region (finite points, radius-zero balls) is enumerated
    exactly at its defining points, as a cover check probes it.
    """
    return int(np.any(h.predict_many(_cover_probes(region, n_samples, seed)) != ex.y))


def distinct_pattern_correspondence(cls, family, sample) -> list[tuple[int, int]]:
    """Pairs with distinct loss patterns but identical labelings on the
    inflated point set (must be empty: distinct loss behavior on a sample
    forces distinct base labelings of the union of its regions)."""
    regions = [family.region_for(ex.x) for ex in sample]
    region_pts = []
    for region in regions:
        if isinstance(region, FinitePoints):
            region_pts.append(region.points)
        else:
            raise ValueError("correspondence check needs finite-point regions")
    T = np.vstack(region_pts)

    patterns = [tuple(row) for row in _loss_table(cls, regions, sample).tolist()]
    labelings = [tuple(h.predict_many(T).tolist()) for h in cls]
    bad = []
    for i in range(len(cls)):
        for j in range(i + 1, len(cls)):
            if patterns[i] != patterns[j] and labelings[i] == labelings[j]:
                bad.append((i, j))
    return bad


def stipulation_one_failures(family, hypotheses) -> int:
    """Count hypotheses that are positive nowhere on the sampled sphere.

    Every bounded halfspace crosses the sphere (its boundary is closer to
    the origin than the sphere radius), so with dense enough cell samples
    the count should be zero.
    """
    pts = family.all_points()
    losses = _loss_table(hypotheses, [FinitePoints(pts)], [LabeledExample(pts[0], -1)])
    return int(np.count_nonzero(losses == 0))  # robustly -1: positive nowhere
