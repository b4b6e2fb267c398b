"""Region algebra and exact robust losses.

A perturbation region says which inputs must share a point's label for a
prediction there to count as robust.  This walk-through builds the four
region variants, expands them, and evaluates the 0/1 robust loss of a few
classifiers analytically (no sampling in the loss itself).
"""

import numpy as np

from robustlab import (
    Ball,
    DiscreteDistribution,
    Expanded,
    FinitePoints,
    LabeledExample,
    LinearClassifier,
    RegionFamily,
    SphereBoundary,
    UnionOfBalls,
    robust_loss_distribution,
    robust_loss_point,
    uniform_sample,
)

print("== region variants and expansion ==")
ball = Ball((0.0, 0.0), 1.0)
pts = FinitePoints([(0.0, 0.0), (4.0, 0.0)])
union = UnionOfBalls([(0, 0), (3, 0)], [1.0, 1.0])

print("ball expanded by 0.5:", ball.expand(0.5))
print("point pair expanded by 1 contains (3.2, 0):", Expanded(pts, 1.0).contains((3.2, 0.0)))
probe = (1.7, 0.0)
print(f"union contains {probe}: {union.contains(probe)};"
      f" after expanding by 1: {union.expand(1.0).contains(probe)}")
print("diameters: ball", ball.diameter(), "| union", union.diameter())

print()
print("== exact robust loss ==")
h = LinearClassifier((1.0, 0.0), 0.0)  # halfspace x >= 0
safe = LabeledExample(np.array([2.0, 0.0]), 1)
print("ball of radius 1 at (2,0), label +1:",
      robust_loss_point(h, Ball((2, 0), 1.0), safe), "(margin 1 survives)")
print("ball of radius 3 at (2,0), label +1:",
      robust_loss_point(h, Ball((2, 0), 3.0), safe), "(ball crosses the boundary)")

sphere = SphereBoundary((0.0, 0.0), 2.0)
inside = LabeledExample(np.array([0.5, 0.0]), 1)
print("sphere hypothesis vs ball poking outside:",
      robust_loss_point(sphere, Ball((1.5, 0.0), 1.0), inside))

print()
print("== distributional loss is an exact finite sum ==")
anchors = [np.array([1.5, 0.0]), np.array([-1.5, 0.0]), np.array([0.2, 0.0])]
labels = [1, -1, 1]
family = RegionFamily([(a, Ball(a, 0.4)) for a in anchors])
dist = DiscreteDistribution.uniform(
    [LabeledExample(a, y) for a, y in zip(anchors, labels)]
)
print("expected robust loss of the halfspace:", robust_loss_distribution(h, family, dist))
print("(the atom at 0.2 sits within 0.4 of the boundary, so it pays)")

print()
print("== Lebesgue-uniform sampling from a union with overlap ==")
blob = UnionOfBalls([(0, 0), (0.8, 0)], [1.0, 1.0])
sample = uniform_sample(blob, 50_000, seed=0)
left = np.mean(sample[:, 0] < 0.4)
print(f"fraction left of the midline: {left:.3f} (overlap double-counts nothing)")
