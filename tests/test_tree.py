"""Tests for the tree index algebra."""

import itertools
import time

import numpy as np
import pytest

from hexch.hperm import random_leaf_indices
from hexch.tree import (
    CapError,
    ProductVertex,
    TreeVertex,
    encode_vertex,
    leaf,
    leaves,
    internal_vertices,
    path,
    product_path,
    root,
    wedge,
    wedge_matrix,
)

from reference import vertex_keys


def test_path_unfolds_prefixes():
    assert [v.coords for v in path(leaf(1, 2, 3))] == [(), (1,), (1, 2), (1, 2, 3)]


def test_path_of_root_is_itself():
    assert path(root(3)) == [root(3)]


def test_path_depth_one():
    assert [v.coords for v in path(leaf(7))] == [(), (7,)]


def test_path_parent_chain():
    p = path(leaf(3, 1, 4, 1))
    for a, b in zip(p, p[1:]):
        assert b.parent() == a
    assert len(p) == len(set(p))


def test_wedge_against_path_set_intersection():
    a, b = leaf(1, 2, 3), leaf(1, 2, 5)
    oracle = len(set(path(a)) & set(path(b)))
    assert oracle == 3
    assert wedge(a, b) == oracle


def test_wedge_self_is_path_length():
    v = leaf(4, 4, 4)
    assert wedge(v, v) == 4 == len(path(v))


def test_wedge_distinct_first_coordinate_shares_only_root():
    assert wedge(leaf(1, 9, 9), leaf(2, 9, 9)) == 1
    assert wedge(leaf(1), leaf(2)) == 1


def test_wedge_mismatched_depth_raises():
    with pytest.raises(ValueError):
        wedge(leaf(1, 2), leaf(1, 2, 3))


def test_wedge_matches_set_oracle_exhaustively():
    lv = leaves(3, 3)
    for a, b in itertools.combinations(lv, 2):
        assert wedge(a, b) == len(set(path(a)) & set(path(b)))


def test_wedge_symmetry_and_bounds():
    lv = leaves(2, 4)
    for a, b in itertools.product(lv, repeat=2):
        w = wedge(a, b)
        assert w == wedge(b, a)
        assert 1 <= w <= min(len(path(a)), len(path(b)))


def test_wedge_ultrametric_property_on_leaves():
    lv = leaves(3, 2)
    for a, b, c in itertools.product(lv, repeat=3):
        assert wedge(a, b) >= min(wedge(a, c), wedge(c, b))


def test_product_path_single_component():
    pv = ProductVertex((leaf(1, 2),))
    pp = product_path(pv)
    assert len(pp) == 3
    assert [p[0].coords for p in pp] == [(), (1,), (1, 2)]


def test_product_path_two_components():
    pv = ProductVertex((leaf(1), leaf(2, 2)))
    pp = product_path(pv)
    oracle = list(itertools.product(path(leaf(1)), path(leaf(2, 2))))
    assert pp == oracle
    assert len(pp) == 2 * 3


def test_product_path_of_roots():
    pv = ProductVertex((root(1), root(2)))
    assert product_path(pv) == [(root(1), root(2))]


def test_leaves_depth_one():
    assert [v.coords for v in leaves(1, 3)] == [(1,), (2,), (3,)]


def test_leaves_lexicographic():
    assert [v.coords for v in leaves(2, 2)] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_leaves_count():
    assert len(leaves(3, 4)) == 4**3


def test_leaves_cap_guard():
    with pytest.raises(CapError, match=r"^100\^10 cells exceed the cap of 1000000$"):
        leaves(10, 100)


def test_a_deep_truncation_is_refused_at_once():
    # the cap check stops at the first partial product past the cap, so no
    # 2^(10^12) is computed and no vertex is built
    start = time.perf_counter()
    for call in (leaves, internal_vertices, lambda r, m: random_leaf_indices(r, m, [0, 1])):
        with pytest.raises(CapError, match=r"^2\^1000000000000 cells exceed the cap of 1000000$"):
            call(10**12, 2)
    assert time.perf_counter() - start < 1.0


def test_vertex_validation():
    with pytest.raises(ValueError):
        TreeVertex((0,), 2)
    with pytest.raises(ValueError):
        TreeVertex((1, 1, 1), 2)
    with pytest.raises(ValueError):
        TreeVertex((), 0)


@pytest.mark.parametrize("coords, r, match", [
    ((), 1.5, "tree depth r must be an integer, got 1.5"),
    ((), True, "tree depth r must be an integer, got True"),
    ((1,), 2.0, "tree depth r must be an integer, got 2.0"),
    ((1.5,), 2, r"coordinates must be positive integers, got \(1.5,\)"),
    ((1, True), 2, r"coordinates must be positive integers, got \(1, True\)"),
    ((1.0, 2), 2, r"coordinates must be positive integers, got \(1.0, 2\)"),
    ((np.int64(0),), 2, "coordinates must be positive integers"),
], ids=["r-float", "r-bool", "r-whole-float", "coord-float", "coord-bool", "coord-whole-float",
        "coord-zero"])
def test_vertex_refuses_non_integer_depths_and_coordinates(coords, r, match):
    # checked at entry, as the truncations check their sizes, so that no
    # later step (HPerm.apply indexing a tuple, say) meets a float or a bool
    with pytest.raises(ValueError, match=match):
        TreeVertex(coords, r)


def test_vertex_takes_numpy_integers():
    v = TreeVertex((np.int64(2), np.int32(1)), np.int64(2))
    assert v == leaf(2, 1) and v.encode() == "2/2/1"


def test_encode_decode_round_trip():
    # each key is the depth followed by the coordinates: splitting it gives
    # them back, and no two vertices share one
    vs = internal_vertices(3, 3) + leaves(3, 3)
    keys = [encode_vertex(v) for v in vs]
    assert len(set(keys)) == len(vs) == 1 + 3 + 9 + 27
    for v, key in zip(vs, keys):
        assert [int(c) for c in key.split("/")] == [v.depth, *v.coords]
    assert encode_vertex(root(5)) == "0"
    assert encode_vertex(leaf(1, 2, 3)) == "3/1/2/3"


def test_internal_vertices_counts():
    assert len(internal_vertices(2, 3)) == 1 + 3
    assert len(leaves(2, 3)) == 9


def test_vertex_keys_count_and_order():
    # a product leaf's key row is one key per component, the first slowest
    pls = list(itertools.product(*map(vertex_keys, (1, 2), (2, 2))))
    assert len(pls) == 2 * 4
    assert pls[0] == ("1/1", "2/1/1")
    assert pls[-1] == ("1/2", "2/2/2")
    vertex_rows = itertools.product(leaves(1, 2), leaves(2, 2))
    assert pls == [tuple(p.encode() for p in pv) for pv in vertex_rows]


@pytest.mark.parametrize("r, m", [(1, 1), (1, 12), (2, 11), (3, 4)])
def test_vertex_keys_match_encoded_vertices(r, m):
    keys = vertex_keys(r, m)
    assert iter(keys) is keys
    assert list(keys) == [v.encode() for v in leaves(r, m)]
    internal = [k for d in range(r) for k in vertex_keys(np.int64(d), np.int64(m))]
    assert internal == [v.encode() for v in internal_vertices(r, m)]


def test_vertex_keys_validation():
    assert list(vertex_keys(0, 5)) == ["0"]
    with pytest.raises(ValueError):
        vertex_keys(-1, 2)
    with pytest.raises(ValueError):
        vertex_keys(2, 0)


def test_wedge_matrix_matches_pairwise():
    lv = leaves(2, 3)
    coords = np.array([v.coords for v in lv])
    w = wedge_matrix(coords)
    for i, a in enumerate(lv):
        for j, b in enumerate(lv):
            assert w[i, j] == wedge(a, b)
