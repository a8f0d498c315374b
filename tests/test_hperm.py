"""Tests for structure-preserving tree maps."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from hexch.hperm import (
    HPerm,
    identity_hperm,
    random_hperm,
    random_leaf_indices,
    verify_wedge_preservation,
)
from hexch.fields import derive_seed
from hexch.tree import TreeVertex, leaf, leaves, root, wedge, wedge_matrix

from reference import reference_leaf_indices


def root_swap(r=3):
    return HPerm(r, {root(r): (2, 1)})


def _sorted_rows(p):
    """The table rows of ``p``, by depth and then coordinates."""
    return sorted(p.table.items(), key=lambda kv: (kv[0].depth, kv[0].coords))


def test_apply_root_swap_on_leaf():
    assert root_swap().apply(leaf(1, 2, 3)).coords == (2, 2, 3)
    assert root_swap().apply(leaf(2, 2, 3)).coords == (1, 2, 3)
    assert root_swap().apply(leaf(3, 1, 1)).coords == (3, 1, 1)


def test_apply_extension_consistent_with_leaf_action():
    p = root_swap()
    assert p.apply(TreeVertex((1, 2), 3)).coords == (2, 2)
    # parent of the image equals the image of the parent
    for v in leaves(3, 3):
        assert p.apply(v.parent()) == p.apply(v).parent()


def test_apply_identity():
    p = identity_hperm(4)
    for v in leaves(4, 2):
        assert p.apply(v) == v


def test_apply_preserves_depth():
    p = random_hperm(3, 4, seed=5)
    for v in leaves(3, 3) + [root(3), TreeVertex((2, 2), 3)]:
        assert p.apply(v).depth == v.depth


def test_apply_nested_table():
    # swap at root and a 3-cycle below the *source* vertex (1,)
    p = HPerm(2, {root(2): (2, 1), TreeVertex((1,), 2): (2, 3, 1)})
    assert p.apply(leaf(1, 1)).coords == (2, 2)
    assert p.apply(leaf(1, 3)).coords == (2, 1)
    assert p.apply(leaf(2, 1)).coords == (1, 1)


def test_compose_with_identity():
    p = random_hperm(2, 3, seed=1)
    assert p.compose(identity_hperm(2)) == p
    assert identity_hperm(2).compose(p) == p


def test_compose_with_inverse_is_identity_on_truncation():
    p = random_hperm(3, 4, seed=9)
    pq = p.compose(p.invert())
    assert pq.is_identity()
    for v in leaves(3, 4):
        assert pq.apply(v) == v


def test_compose_root_swaps_gives_three_cycle():
    a = HPerm(1, {root(1): (2, 1)})  # 1<->2
    b = HPerm(1, {root(1): (1, 3, 2)})  # 2<->3
    ab = a.compose(b)
    # oracle: pointwise evaluation on {1..3}
    for v in leaves(1, 3):
        assert ab.apply(v) == a.apply(b.apply(v))
    assert ab.table[root(1)] == (2, 3, 1)


def test_compose_pointwise_on_random_pairs():
    for k in range(10):
        p = random_hperm(3, 3, seed=100 + k)
        q = random_hperm(3, 3, seed=200 + k)
        pq = p.compose(q)
        for v in leaves(3, 3):
            assert pq.apply(v) == p.apply(q.apply(v))


def test_invert_identity_and_involution():
    assert identity_hperm(2).invert() == identity_hperm(2)
    swap = HPerm(2, {root(2): (2, 1)})
    assert swap.invert() == swap


def test_invert_round_trip_all_leaves():
    p = random_hperm(3, 4, seed=77)
    inv = p.invert()
    for v in leaves(3, 4):
        assert inv.apply(p.apply(v)) == v
        assert p.apply(inv.apply(v)) == v


def test_random_hperm_deterministic():
    a = random_hperm(2, 3, seed=42)
    b = random_hperm(2, 3, seed=42)
    assert a == b
    assert a.table == b.table


def test_random_hperm_m1_is_identity():
    assert random_hperm(3, 1, seed=4).is_identity()


def test_random_hperm_table_size():
    p = random_hperm(2, 3, seed=11)
    # root plus three depth-1 vertices (identity rows get trimmed, so allow <=)
    keys = {v.coords for v in p.table}
    assert keys <= {(), (1,), (2,), (3,)}
    assert len(p.table) <= 4
    # across seeds the full table generically appears
    full = random_hperm(2, 3, seed=0)
    counts = {len(random_hperm(2, 3, seed=s).table) for s in range(10)}
    assert max(counts) == 4


@pytest.mark.parametrize(
    "r, m, seed, digest",
    [
        (1, 10, 0, "de734e398c88210201b68bcd9bf2f67085d6a553962d14cc207f5a065c249d0c"),
        (2, 4, 42, "843e083752d98f9136dc4fd7ddc198241fa275fc3e99b21d0f4d7661cae93333"),
        (2, 8, 2**64 - 1, "4976ca62b4bdce42df349339bcceb617d9968a3261620f05dccadf74b0bb2ae5"),
        (3, 5, 7, "93260ad88ac1ce2a3c68c7ae5aa79bc638bab9696be5db0ce0e803b00ce7fa88"),
    ],
)
def test_random_hperm_pinned(r, m, seed, digest):
    # exact tables: the hperm field stream and the child ranking must not move
    obj = [{"vertex": v.encode(), "perm": list(images)}
           for v, images in _sorted_rows(random_hperm(r, m, seed))]
    assert hashlib.sha256(json.dumps(obj).encode()).hexdigest() == digest


@pytest.mark.parametrize("r, m", [(1, 1), (1, 10), (2, 1), (2, 4), (2, 8), (3, 5)])
@pytest.mark.parametrize("k", [1, 7, 50])
def test_random_leaf_indices_stacks_per_map_indices(r, m, k):
    seeds = [derive_seed(k, f"maps{r}{m}", i) for i in range(k)]
    idx = random_leaf_indices(r, m, seeds)
    expected = np.stack([random_hperm(r, m, s).permuted_leaf_indices(m) for s in seeds])
    assert idx.dtype == expected.dtype
    assert np.array_equal(idx, expected)
    coords = np.array([v.coords for v in leaves(r, m)])
    wedges = wedge_matrix(coords)
    for row in idx:
        assert np.array_equal(np.sort(row), np.arange(m**r))
        assert np.array_equal(wedge_matrix(coords[row]), wedges)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seeds", [[4], [4, 2**64 - 1, 17]])
def test_random_leaf_indices_match_the_per_depth_reference(r, seeds):
    assert np.array_equal(random_leaf_indices(r, 4, seeds), reference_leaf_indices(r, 4, seeds))


def test_random_hperm_uniformity_at_root():
    # each of the 3! root permutations should appear for some seeds
    seen = set()
    for s in range(300):
        p = random_hperm(1, 3, seed=s)
        seen.add(p.table.get(root(1), (1, 2, 3)))
    assert len(seen) == 6


def test_wedge_preservation_table_maps():
    lv = leaves(2, 3)
    for s in range(5):
        assert verify_wedge_preservation(random_hperm(2, 3, seed=s), lv)
    assert verify_wedge_preservation(identity_hperm(2), lv)


def test_wedge_preservation_rejects_flat_swap():
    # a raw leaf bijection swapping (1,1) <-> (2,2) is not structure-preserving:
    # wedge((1,1),(1,2)) = 2 but the images (2,2),(1,2) share only the root
    a, b = leaf(1, 1), leaf(2, 2)

    def flat_swap(v):
        if v == a:
            return b
        if v == b:
            return a
        return v

    assert wedge(a, leaf(1, 2)) == 2
    assert wedge(flat_swap(a), flat_swap(leaf(1, 2))) == 1
    assert not verify_wedge_preservation(flat_swap, leaves(2, 2))


def _reference_leaf_indices(p, m):
    """The per-leaf loop: apply the map to every leaf in lexicographic order."""
    strides = [m**k for k in range(p.r - 1, -1, -1)]
    idx = []
    for coords in itertools.product(range(1, m + 1), repeat=p.r):
        img = p.apply(TreeVertex(coords, p.r)).coords
        if max(img) > m:
            raise ValueError(f"image {img} leaves the {{1..{m}}}^{p.r} truncation")
        idx.append(sum((c - 1) * s for c, s in zip(img, strides)))
    return idx


def _leaf_indices_or_error(p, m, fn):
    try:
        return list(fn(p, m))
    except ValueError as exc:
        return str(exc)


def test_permuted_leaf_indices_matches_apply():
    import numpy as np

    p = random_hperm(2, 4, seed=3)
    lv = leaves(2, 4)
    idx = p.permuted_leaf_indices(4)
    for pos, v in enumerate(lv):
        assert lv[idx[pos]] == p.apply(v)
    x = np.arange(16.0)
    y = x[idx]
    for pos, v in enumerate(lv):
        assert y[pos] == x[lv.index(p.apply(v))]

    maps = [identity_hperm(2), root_swap(3)]
    for s in range(4):
        for r, m in ((1, 5), (2, 3), (3, 3)):
            a = random_hperm(r, m, seed=s)
            b = random_hperm(r, m + 2, seed=50 + s)  # keys and images beyond m
            maps += [a, b, a.compose(b), b.compose(a), a.invert(), b.invert(),
                     HPerm(r, dict(_sorted_rows(b.compose(a))))]
    maps += [
        # support larger than m, images of 1..m inside the truncation
        HPerm(2, {root(2): (2, 1, 4, 3), TreeVertex((1,), 2): (3, 1, 2, 5, 4)}),
        # support larger than m and an image leaving it, below a key outside
        HPerm(2, {TreeVertex((2,), 2): (1, 4, 2, 3), TreeVertex((7,), 2): (2, 1)}),
        HPerm(3, {root(3): (1, 3, 2), TreeVertex((3, 1), 3): (5, 1, 2, 3, 4)}),
    ]
    outcomes = set()
    for p in maps:
        for m in (2, 3):
            got = _leaf_indices_or_error(p, m, HPerm.permuted_leaf_indices)
            assert got == _leaf_indices_or_error(p, m, _reference_leaf_indices)
            outcomes.add(type(got))
    assert outcomes == {list, str}  # both the index and the error path ran


def test_table_validation():
    with pytest.raises(ValueError):
        HPerm(2, {root(2): (2, 2)})  # not a bijection
    with pytest.raises(ValueError):
        HPerm(2, {leaf(1, 1): (1,)})  # leaf cannot carry a child permutation


@pytest.mark.parametrize("r, message", [(2.5, "r must be an integer, got 2.5"),
                                        (0, "r must be >= 1, got 0"),
                                        (True, "r must be an integer, got True")])
def test_depth_is_checked_at_entry(r, message):
    # as a TreeVertex checks its depth; a numpy depth is kept as a Python int
    with pytest.raises(ValueError, match=f"^{message}$"):
        HPerm(r, {})
    p = HPerm(np.int64(2), {root(2): (2, 1)})
    assert type(p.r) is int and p.apply(leaf(1, 1)) == leaf(2, 1)
