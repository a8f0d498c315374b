"""Structure-preserving leaf bijections: build, sample, compose, verify.

The maps that leave the tree geometry alone are exactly those that rearrange
the children below each vertex independently.  Stored in that factorized
form they preserve every pairwise wedge by construction; a raw leaf swap
that ignores the tree does not.
"""

from hexch import (
    HPerm,
    identity_hperm,
    leaf,
    leaves,
    random_hperm,
    root,
    verify_wedge_preservation,
    wedge,
)

print("== a hand-built map: swap children 1 <-> 2 below the root ==")
p = HPerm(3, {root(3): (2, 1)})
for v in [leaf(1, 2, 3), leaf(2, 2, 3), leaf(3, 1, 1)]:
    print(f"  {v.coords} -> {p.apply(v).coords}")
print("extension to internal vertices is consistent:",
      p.apply(leaf(1, 2, 3)).parent() == p.apply(leaf(1, 2, 3).parent()))

print()
print("== random maps on a truncation ==")
q = random_hperm(3, 4, seed=20240)
lv = leaves(3, 4)
print("independent uniform child permutations at every internal vertex;")
print("wedge preserved on all leaf pairs:", verify_wedge_preservation(q, lv))
print("sample of the action:", [(v.coords, q.apply(v).coords) for v in lv[:3]])

print()
print("== group structure ==")
pq = p.compose(q)
ok = all(pq.apply(v) == p.apply(q.apply(v)) for v in lv)
print("compose agrees with sequential application on all 64 leaves:", ok)
inv = q.invert()
ok = all(inv.apply(q.apply(v)) == v for v in lv)
print("inverse round-trips every leaf:", ok)
print("q o q^-1 is the identity:", q.compose(inv).is_identity())
print("composing with the identity is a no-op:", q.compose(identity_hperm(3)) == q)

print()
print("== what fails without the factorized form ==")
a, b = leaf(1, 1), leaf(2, 2)

def flat_swap(v):
    return b if v == a else a if v == b else v

print(f"raw swap of {a.coords} <-> {b.coords} on the depth-2 tree:")
print(f"  wedge((1,1),(1,2)) = {wedge(leaf(1, 1), leaf(1, 2))}, but after the swap "
      f"the images share wedge {wedge(flat_swap(leaf(1, 1)), flat_swap(leaf(1, 2)))}")
print("verify_wedge_preservation:", verify_wedge_preservation(flat_swap, leaves(2, 2)))
