"""Sampling exchangeable arrays: path functions of a deterministic field.

Every entry is a fixed function of the uniform values attached to the
vertices on its root path.  Because the field is counter-based (a hash of
seed, role and vertex), arrays are reproducible bit for bit, independent of
evaluation order, and consistent across truncation sizes.
"""

import numpy as np
import scipy.stats

from hexch import (
    SigmaModel,
    UniformField,
    leaf,
    make_model,
    sample_ah,
    sample_array,
)
from hexch.tree import ProductVertex, root

SEED = 90210

print("== the uniform field ==")
f = UniformField(SEED, role="v")
v = leaf(2, 5, r=2)
print(f"value at {v.coords}: {f.value(v)!r} (same query twice: {f.value(v) == f.value(v)})")
n = 10_000
from hexch.tree import TreeVertex
grid = [TreeVertex((i,), 1) for i in range(1, n + 1)]
d, _ = scipy.stats.kstest(f.values(grid), "uniform")
print(f"KS uniformity over {n} vertices: D = {d:.4f} (1% critical {1.628 / np.sqrt(n):.4f})")

print()
print("== single-tree arrays ==")
for name in ("uniform-leaf", "root-constant", "path-mean", "product"):
    x = sample_array(make_model(name, 2), 2, 4, seed=SEED)
    print(f"{name:13s} first row: {np.array2string(x[:4], precision=3)}"
          f"   spread {x.std():.3f}")

print()
print("== determinism and truncation consistency ==")
x8 = sample_array(make_model("product", 2), 2, 8, seed=SEED)
x16 = sample_array(make_model("product", 2), 2, 16, seed=SEED)
print("same seed twice identical:",
      np.array_equal(x8, sample_array(make_model("product", 2), 2, 8, seed=SEED)))
print("{1..8}^2 array is a sub-array of {1..16}^2:",
      np.array_equal(x16.reshape(16, 16)[:8, :8].reshape(-1), x8))

print()
print("== two-tree arrays (the classical matrix form at depth 1) ==")
# the same sampler with a depth tuple and a side tuple: a single tree is the
# one-component product.  Entries are sigma(v_{oo}, v_{o j}, v_{i o}, v_{i j}):
# one shared value, a row value, a column value and a cell value.  sigma
# reads them as p[0]..p[3], one array per depth tuple holding each value
# once (shapes (1, 1, 1), (1, 1, 4), (1, 4, 1) and (1, 4, 4) here), which
# numpy broadcasts over the 4 x 4 grid
sigma = SigmaModel("mix", 4, lambda p: (p[0] + p[1] + p[2] + p[3]) / 4)
mat = sample_array(sigma, (1, 1), (4, 4), seed=SEED).reshape(4, 4)
print(np.array2string(mat, precision=3))
r1 = root(1)
cell = (f.value(ProductVertex((r1, r1))) + f.value(ProductVertex((r1, leaf(2))))
        + f.value(ProductVertex((leaf(3), r1))) + f.value(ProductVertex((leaf(3), leaf(2))))) / 4
print("entry (3,2) recomputed from the field directly:", np.isclose(mat[2, 1], cell))

print()
print("== replica arrays (shared tree field + per-column fields) ==")
mag = make_model("toy-magnetization", 2)
xm = sample_ah(mag, 2, 4, n=6, seed=SEED)
print(f"shape {xm.shape}; column correlation comes from the shared tree path:")
print(np.array2string(np.corrcoef(xm.T)[:3, :3], precision=2))
