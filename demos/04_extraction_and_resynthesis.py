"""Estimating the directing hierarchy and regenerating from it.

For an exchangeable array the empirical measure of each sibling block
estimates the latent measure directing that block; stacking those estimates
level by level gives a hierarchy of measures over measures.  Drawing fresh
uniforms through the hierarchy's quantile functions then produces a new
array with (approximately) the same law.
"""

import numpy as np

from hexch import (
    UniformField,
    empirical_measure,
    extract_hierarchy,
    make_model,
    nested_distance,
    resynthesize,
    sample_array,
    wasserstein1,
)
from hexch.acceptance import w1_to_uniform
from hexch.tree import TreeVertex, internal_vertices, root

SEED = 31415

print("== empirical measures and the quantile convention ==")
mu = empirical_measure([0.2, 0.2, 0.8])
print("atoms of E([0.2, 0.2, 0.8]):", mu.atoms)
two = empirical_measure([0.1, 0.9])
# resynthesis draws by the left-continuous inverse Q(v) = inf{x : F(x) >= v}:
# the first atom whose cumulative weight reaches v
q = two.locations[np.searchsorted(np.cumsum(two.weights), [0.5, 0.75])]
print("left-continuous inverse: Q(0.5) =", q[0], " Q(0.75) =", q[1])
print("W1 between point masses at 0.2 and 0.9:",
      wasserstein1(empirical_measure([0.2]), empirical_measure([0.9])))

print()
print("== extraction on the product model ==")
# X_{kn} = v_root * v_k * v_kn, so given the path to parent k the children
# are i.i.d. Uniform[0, v_root * v_k]; the extracted measures must approach
# those uniforms as the truncation grows
model = make_model("product", 2)
f = UniformField(SEED, "v")
v_root = f.value(root(2))
for m in (8, 32, 128):
    x = sample_array(model, 2, m, seed=SEED)
    h = extract_hierarchy(x, 2, m)
    errs = []
    for k in range(1, m + 1):
        c = v_root * f.value(TreeVertex((k,), 2))
        # vertex k's sample: the atoms of its level-0 row, each as often as met
        j = h.ids[1][k - 1]
        errs.append(w1_to_uniform(np.repeat(h.atoms[0][j], h.mult[0][j]), c))
    print(f"m = {m:3d}: mean W1 to the true conditional uniforms = {np.mean(errs):.4f}")

print()
print("== the hierarchy is an exchangeability invariant ==")
from hexch import random_hperm
m = 8
x = sample_array(model, 2, m, seed=SEED)
pi = random_hperm(2, m, seed=5)
y = x[pi.permuted_leaf_indices(m)]
hx_, hy = extract_hierarchy(x, 2, m), extract_hierarchy(y, 2, m)
# hy.measures, made on first use, holds one measure per internal vertex in
# internal_vertices order: views of the level-table rows, whose atoms are
# built only when read
d = max(
    nested_distance(mu, hx_.measure_at(pi.apply(v)))
    for v, mu in zip(internal_vertices(2, m), hy.measures)
)
print("max nested distance between permuted-array measures and their",
      f"relabeled counterparts: {d}")

print()
print("== resynthesis ==")
h = extract_hierarchy(sample_array(model, 2, 32, seed=SEED), 2, 32)
fresh = resynthesize(h, 2, 32, seed=777)
print(f"fresh array over {{1..32}}^2 from the extracted hierarchy:"
      f" mean {fresh.mean():.3f} vs source mean"
      f" {sample_array(model, 2, 32, seed=SEED).mean():.3f}")
again = resynthesize(h, 2, 32, seed=777)
print("resynthesis is deterministic in its seed:", np.array_equal(fresh, again))
print("a different seed gives a different draw:",
      not np.array_equal(fresh, resynthesize(h, 2, 32, seed=778)))
