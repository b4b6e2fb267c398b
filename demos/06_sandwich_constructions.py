"""Finite proxies squeezed between two expansions of a region.

Uniform convergence wants finite objects; perturbation regions are not.
Both constructions here replace an expanded region with a finite proxy
whose robust loss is sandwiched between the r - alpha and r expansions:
a point proxy (needs hypotheses with single-label balls) and a ball-union
proxy (unconditional, by set inclusion).  A deliberately pathological
lookup-table classifier shows the point proxy's regularity requirement is
real, not decorative.
"""

import numpy as np

from robustlab import (
    FinitePoints,
    LabeledExample,
    LinearClassifier,
    SphereBoundary,
    build_ball_sandwich,
    build_point_sandwich,
    sandwich_audit,
)
from robustlab.sandwich import make_nonregular_control, set_inclusion_probe

base = FinitePoints([[0.0, 0.0]])
r, alpha = 1.0, 0.4

print("== point proxy ==")
triple = build_point_sandwich(base, r=r, alpha=alpha)
print(f"upper expansion radius {r}, shrink {alpha}: middle has {len(triple.middle.points)} points")

hyps = [
    LinearClassifier((1.0, 0.0), -0.8),     # slices between the two shells
    SphereBoundary((0.0, 0.0), 2.0),        # single-label balls up to radius 1
]
examples = [LabeledExample(np.zeros(2), -1), LabeledExample(np.zeros(2), 1)]
report = sandwich_audit(triple, hyps, examples, seed=1)
for row in report.rows:
    print(
        f"  h{row.hypothesis_index} ex{row.example_index}: "
        f"losses {row.loss_lower} <= {row.loss_middle} <= {row.loss_upper}  "
        f"(certificate {'ok' if row.certificate_passed else 'failed'})"
    )
print("violations:", len(report.violations))

print()
print("== ball-union proxy: inclusion is set-theoretic ==")
triple_b = build_ball_sandwich(base, r=r, alpha=alpha)
print(f"middle is a union of {len(triple_b.middle)} balls of radius {alpha / 2}")
lf, uf = set_inclusion_probe(triple_b, 10_000, seed=3)
print(f"probe failures: lower-in-middle {lf}/10000, middle-in-upper {uf}/10000")

print()
print("== negative control: drop regularity and the left bound breaks ==")
triple_c, control, example = make_nonregular_control(base, r=r, alpha=alpha, seed=4)
report_c = sandwich_audit(triple_c, [control], [example], seed=4)
row = report_c.rows[0]
print(
    f"table classifier flipping one hidden lower point: "
    f"losses {row.loss_lower} <= {row.loss_middle}? -> violated"
)
print("its regularity certificate failed as it must:",
      not report_c.certificates[0].passed)
