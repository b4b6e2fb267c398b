"""The tolerant learner end to end: random radius, independent sample, RERM.

The learner draws an expansion radius r uniformly from
[eps*delta*gamma/7, gamma], then returns the class member minimizing
empirical robust loss on the r-expanded regions.  Scored on the raw
regions against the best gamma-expanded competitor, its excess error
concentrates below eps as the sample grows.
"""

import numpy as np

from robustlab import IndexedExhaustiveOracle, tolrerm
from robustlab.rerm import make_learning_task, opt_gap_audit

eps = delta = 0.1
print("== one task, a few sample sizes, 200 trials each ==")
task = make_learning_task(4)
oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
opt_gamma = min(oracle.distribution_loss(i, task.gamma) for i in range(len(task.cls)))
print(f"support {len(task.dist)} atoms, class {len(task.cls)} hypotheses, "
      f"tolerant optimum {opt_gamma:.3f}")

for n in (10, 30, 100, 300):
    excesses = []
    for trial in range(200):
        res = tolrerm(oracle, eps, delta, task.gamma, n, seed=1000 * n + trial)
        excesses.append(oracle.distribution_loss(res.index, 0.0) - opt_gamma)
    excesses = np.array(excesses)
    print(
        f"  n={n:4d}: mean excess {excesses.mean():+.4f}  q90 {np.quantile(excesses, 0.9):+.4f}  "
        f"P[excess > eps] {np.mean(excesses > eps):.3f}"
    )

print()
print("== why the random radius helps: the optimum moves slowly in r ==")
sample_idx = task.dist.sample_indices(30, seed=5)
audit = opt_gap_audit(
    lambda r: oracle.opt_count(sample_idx, r) / len(sample_idx),
    eps, delta, task.gamma, trials=2000, seed=6,
)
print(
    f"P[opt(r) - opt(r - alpha) <= eps/3] = {audit.frequency_ok:.4f} "
    f"(guaranteed >= {audit.target_frequency})"
)
print(f"mean gap {audit.mean_gap:.5f} vs bound alpha/(gamma-alpha) = {audit.mean_gap_bound:.5f}")

print()
print("== the drawn radius is auditable ==")
rs = [tolrerm(oracle, eps, delta, task.gamma, 5, seed=s).r_used for s in range(5)]
lo = eps * delta * task.gamma / 7
print(f"r draws {np.round(rs, 4)} all inside [{lo:.5f}, {task.gamma}]")
