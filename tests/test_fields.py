"""Tests for the deterministic fields and sigma-driven samplers."""

import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from hexch.fields import (
    _GOLD,
    _MASK,
    SigmaModel,
    UniformField,
    _coord_words,
    _hash_words,
    _init_state,
    _level_values,
    _mix,
    _mix_int,
    _role_key,
    _seed_words,
    derive_seed,
    derive_seeds,
    path_matrix,
    sample_ah,
    sample_array,
)
from hexch.hperm import random_leaf_indices
from hexch.scenarios import _row_reduce, make_model, make_source
from hexch.tree import (
    _SEED_MAX,
    ProductVertex,
    TreeVertex,
    _integer,
    encode_vertex,
    internal_vertices,
    leaf,
    leaves,
    root,
)

from reference import vertex_keys


# -- uniform field ------------------------------------------------------------


def test_field_value_deterministic():
    f = UniformField(12345, "v")
    v = leaf(3, 1, 4)
    assert f.value(v) == f.value(v)
    assert 0.0 <= f.value(v) < 1.0


def test_field_value_independent_of_truncation():
    # the value is a function of the vertex alone, so batching and scalar
    # queries agree and the value never depends on any m
    f = UniformField(7, "v")
    vs = leaves(2, 5)
    batch = f.values(vs)
    for v, x in zip(vs, batch):
        assert f.value(v) == x


def test_field_roles_uncorrelated():
    n = 10_000
    vs = [TreeVertex((i,), 1) for i in range(1, n + 1)]
    a = UniformField(2024, "u").values(vs)
    b = UniformField(2024, "v").values(vs)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.03


def test_field_ks_uniformity():
    n = 10_000
    vs = [TreeVertex((i,), 1) for i in range(1, n + 1)]
    a = UniformField(2024, "u").values(vs)
    d, _ = scipy.stats.kstest(a, "uniform")
    assert d < 1.628 / np.sqrt(n)  # 1% critical value


def test_field_values_frozen():
    # regression pin on the mixing constants: any change to the hash breaks
    # every stored array, so these exact values must never move
    f = UniformField(0, "v")
    g = UniformField(123456789, "u")
    assert f.value(root(1)) == 0.8333618832734089
    assert f.value(leaf(1)) == 0.1508540293552353
    assert f.value(leaf(3, 1, 4)) == 0.6452568647676307
    assert g.value(leaf(2, 2)) == 0.27568923133901424
    assert g.value(ProductVertex((leaf(1), leaf(2, 2)))) == 0.6084094105054492
    assert derive_seed(42, "label", 7) == 15687556237430977685


def test_field_seed_and_role_sensitivity():
    v = leaf(1, 2)
    assert UniformField(1, "v").value(v) != UniformField(2, "v").value(v)
    assert UniformField(1, "u").value(v) != UniformField(1, "v").value(v)


def test_derive_seed_distinct():
    seeds = {derive_seed(9, "a", k) for k in range(100)}
    seeds |= {derive_seed(9, "b", k) for k in range(100)}
    assert len(seeds) == 200


def test_values_match_value_on_mixed_vertices():
    f = UniformField(77, "w")
    vs = [
        root(3), leaf(2, 5, 1), TreeVertex((4,), 3), leaf(1, 1, r=2), root(1),
        ProductVertex((leaf(1), leaf(2, 2))), TreeVertex((3, 3), 3),
        ProductVertex((root(2), TreeVertex((1,), 1), leaf(4, 4, 4))), leaf(9),
        ProductVertex((leaf(3), leaf(1, 1))),
    ]
    assert list(f.values(vs)) == [f.value(v) for v in vs]
    same_depth = [leaf(a, b) for a in range(1, 4) for b in range(1, 4)]
    assert list(f.values(same_depth)) == [f.value(v) for v in same_depth]
    assert f.values([]).shape == (0,)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_values_on_coordinate_rows_match_vertices(depth):
    f = UniformField(31, "w")
    grid = np.indices((3,) * depth).reshape(depth, -1).T + 1
    vs = [TreeVertex(tuple(c), depth) for c in grid.tolist()]
    assert np.array_equal(f.values(grid), f.values(vs))
    # arbitrary rows, repeats and coordinates beyond any truncation included
    rng = np.random.default_rng(depth)
    rows = rng.integers(1, 1000, size=(50, depth), dtype=np.int32)
    vs = [TreeVertex(tuple(c), 5) for c in rows.tolist()]
    assert np.array_equal(f.values(rows), f.values(vs))
    assert f.values(rows[:0]).shape == (0,)


def test_values_rejects_bad_coordinate_rows():
    f = UniformField(31, "w")
    for bad in (
        np.ones((4, 2)),  # floats
        np.arange(1, 5),  # 1-D
        np.array([[1, 2], [0, 3]]),  # coordinate 0
        np.ones((2, 2, 2), dtype=np.int64),
        np.array([[True]]),
    ):
        with pytest.raises(ValueError):
            f.values(bad)


def _np_init_state(seed, role):
    # the array form of the seed mixing, on 1-element uint64 arrays
    data = role.encode("utf-8")
    h = _mix(np.array([(_GOLD ^ len(data)) & _MASK], dtype=np.uint64))
    for b in data:
        h = _mix(h ^ np.uint64(b))
    s = np.array([(int(seed) ^ _GOLD) & _MASK], dtype=np.uint64)
    return _mix(_mix(s) ^ h)


_BAD_SEEDS = [-(2**70), -1, 2**64, 2**64 + 5, 2.0, 2.5, np.float64(3.0), True, "3", None]


@pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
def test_seeds_that_are_not_64_bit_integers_are_rejected(seed):
    # int(seed) & (2^64 - 1) would alias 2.5 with 2 and -1 with 2^64 - 1
    if type(seed) is int:
        msg = f"^seed must be in \\[0, {2**64 - 1}\\], got {seed}$"
    else:
        msg = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    for call in (lambda: derive_seed(seed, "lbl"), lambda: derive_seeds(seed, "lbl", 3),
                 lambda: _init_state(seed, "v"), lambda: _init_state([1, seed], "v"),
                 lambda: sample_array(SigmaModel("leaf", 2, lambda p: p[-1]), 1, 4, seed)):
        with pytest.raises(ValueError, match=msg):
            call()
    # a list of seeds from derive_seeds takes one array conversion; a bad
    # seed anywhere in it still meets the per-seed check
    for pos in (0, 25, 49):
        seeds = derive_seeds(1, "lbl", 50)
        seeds[pos] = seed
        for call in (lambda: _init_state(seeds, "v"), lambda: path_matrix(seeds, "v", 1, 3)):
            with pytest.raises(ValueError, match=msg):
                call()


def test_seed_list_conversion_matches_the_per_seed_path():
    edges = [0, 2**63, 2**64 - 1]
    words = [_integer(s, "seed", 0, _SEED_MAX) for s in edges]
    per_seed = _mix(np.array(words, dtype=np.uint64) ^ np.uint64(_GOLD))
    # a list of exact ints converts at once; a tuple, an array or a list
    # holding a numpy integer goes seed by seed
    for seeds in (edges, tuple(edges), np.array(edges, dtype=np.uint64),
                  [np.uint64(0), 2**63, 2**64 - 1]):
        assert _seed_words(seeds).tobytes() == per_seed.tobytes()
    seeds = derive_seeds(5, "lbl", 50)
    assert _seed_words(seeds).tolist() == _seed_words(tuple(seeds)).tolist()


def test_numpy_integer_seeds_keep_their_bits():
    for seed in (0, 7, 2**63 - 1, 2**64 - 1):
        for kind in (np.uint64, np.int64):
            if seed <= np.iinfo(kind).max:
                assert derive_seed(kind(seed), "lbl", 3) == derive_seed(seed, "lbl", 3)
                assert _init_state(kind(seed), "v").tolist() == _init_state(seed, "v").tolist()


def test_scalar_seed_mixing_matches_array_mix():
    rng = np.random.default_rng(4)
    z = rng.integers(0, 2**64, size=200, dtype=np.uint64, endpoint=False)
    z_before = z.copy()
    assert [_mix_int(int(x)) for x in z] == [int(x) for x in _mix(z)]
    assert np.array_equal(z, z_before)  # _mix leaves its input alone
    seeds = [0, 1, 5, 42, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]
    for seed in seeds:
        for role in ("v", "v^12", "derive:rep-a", "\u00e9t\u00e9"):
            expected = _np_init_state(seed, role)
            assert _init_state(seed, role).dtype == np.uint64
            assert np.array_equal(_init_state(seed, role), expected)
        for index in (0, 7, 2**64 - 1):
            h = _mix(_np_init_state(seed, "derive:lbl") ^ np.uint64(index & _MASK))
            assert derive_seed(seed, "lbl", index) == int(h[0])
        # an index outside [0, 2^64) would alias one inside, so it is refused
        for index in (-1, 2**64 + 3):
            with pytest.raises(ValueError, match=rf"^index must be in \[0, {2**64 - 1}\], got {index}$"):
                derive_seed(seed, "lbl", index)
        with pytest.raises(ValueError, match=r"^index must be an integer, got 2\.5$"):
            derive_seed(seed, "lbl", 2.5)
    # a sequence of seeds is mixed in one array pass, to the same states
    for role in ("v", "derive:rep-a"):
        states = [int(_init_state(seed, role)[0]) for seed in seeds]
        assert _init_state(seeds, role).tolist() == states
        assert _init_state(np.array(seeds[:6], dtype=np.int64), role).tolist() == states[:6]
        assert _init_state(np.array(seeds, dtype=np.uint64), role).tolist() == states
    for seed in seeds:
        batch = derive_seeds(seed, "lbl", 6)
        assert batch == [derive_seed(seed, "lbl", k) for k in range(6)]
        assert all(type(s) is int for s in batch)


def test_product_vertex_field_values():
    f = UniformField(5, "v")
    pv = ProductVertex((leaf(1), leaf(2, 2)))
    assert f.value(pv) == f.value(pv)
    assert f.value(pv) != f.value(ProductVertex((leaf(2), leaf(2, 2))))


# -- sigma models and single-tree sampling ------------------------------------


def test_sample_array_uniform_leaf_level():
    model = SigmaModel("last", 3, lambda p: p[-1])
    x = sample_array(model, 2, 32, seed=90)
    d, p = scipy.stats.kstest(x, "uniform")
    assert p > 0.01


def test_sample_array_root_constant():
    model = SigmaModel("first", 3, lambda p: p[0])
    x = sample_array(model, 2, 8, seed=4)
    assert np.all(x == x[0])
    assert x[0] == UniformField(4, "v").value(root(2))


def test_sample_array_product_per_parent_maximum():
    # X_{kn} = v_root * v_k * v_kn, so within each parent block the maximum
    # is the path product times the largest child uniform: always below the
    # path product and, with 8 children, usually close to it
    model = SigmaModel("prod", 3, lambda p: _row_reduce(p, np.multiply))
    m, seed = 8, 31
    x = sample_array(model, 2, m, seed).reshape(m, m)
    f = UniformField(seed, "v")
    v_root = f.value(root(2))
    ratios = []
    for k in range(1, m + 1):
        c = v_root * f.value(TreeVertex((k,), 2))
        assert x[k - 1].max() <= c + 1e-15
        ratios.append(x[k - 1].max() / c)
    assert np.mean(ratios) > 0.7  # E[max of 8 uniforms] = 8/9


def test_sample_array_determinism_and_truncation_consistency():
    model = SigmaModel("mean", 3, lambda p: _row_reduce(p, np.add) / 3)
    a = sample_array(model, 2, 6, seed=17)
    b = sample_array(model, 2, 6, seed=17)
    assert np.array_equal(a, b)
    big = sample_array(model, 2, 12, seed=17).reshape(12, 12)
    assert np.array_equal(big[:6, :6].reshape(-1), a)


def test_sample_array_arity_mismatch():
    model = SigmaModel("bad", 5, lambda p: _row_reduce(p, np.add) / 5)
    with pytest.raises(ValueError):
        sample_array(model, 2, 4, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: path_matrix(0, "v", -1, 3), "depths must be integers >= 0, got -1"),
    (lambda: sample_array(make_model("product", 2), -1, 3, 0),
     "depths must be integers >= 0, got -1"),
    (lambda: random_leaf_indices(0, 3, [1]), "r must be >= 1, got 0"),
    (lambda: sample_ah(make_model("toy-magnetization", 2), 2, 3, 0, 1),
     "n must be >= 1, got 0"),
    # make_source checks a request as hexch run checks a config, in its words
    (lambda: make_source("product", 2, 0), "m must be >= 1, got 0"),
    (lambda: derive_seeds(0, "x", -1), "count must be >= 0, got -1"),
    (lambda: derive_seeds(0, "x", 2.5), "count must be an integer, got 2.5"),
    (lambda: leaves(2, 2.5), "m must be an integer, got 2.5"),
    (lambda: leaves(True, 3), "r must be an integer, got True"),
    (lambda: vertex_keys(1, 2.5), "m must be an integer, got 2.5"),
    # checked before the depths below r are counted
    (lambda: internal_vertices(2.5, 3), "r must be an integer, got 2.5"),
], ids=["path_matrix", "sample_array", "random_leaf_indices", "sample_ah",
        "make_source", "derive_seeds-negative", "derive_seeds-fraction", "leaves-fraction",
        "leaves-bool", "vertex_keys", "internal_vertices-fraction"])
def test_sizes_are_checked_at_library_entry(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: random_leaf_indices(2, 3, []),
    lambda: path_matrix([], "v", 2, 3),
    lambda: sample_array(make_model("product", 2), 2, 3, []),
    lambda: sample_ah(make_model("toy-magnetization", 2), 2, 3, 4, np.array([], np.uint64)),
], ids=["random_leaf_indices", "path_matrix", "sample_array", "sample_ah"])
def test_an_empty_seed_sequence_is_rejected(call):
    with pytest.raises(ValueError, match="^seeds must be an integer or a non-empty sequence"):
        call()


def test_sigma_model_rejects_bad_output():
    # (model, r, seed): a value above 1, and NaN, which fails every comparison
    for bad, r, seed in [
        (SigmaModel("big", 2, lambda p: p[0] + p[1] + 5.0), 1, 0),
        (SigmaModel("nanny", 3, lambda p: np.where(p[-1] > 0.5, np.nan, p[-1])), 2, 1),
    ]:
        with pytest.raises(ValueError, match=rf"^model '{bad.name}' produced values outside \[0,1\]$"):
            sample_array(bad, r, 4, seed)


def test_sigma_model_reads_columns_that_broadcast_together():
    model = SigmaModel("blend", 3, lambda p: (p[0] + p[1]) * p[2])
    p = np.random.default_rng(3).random((5, 3))
    want = (p[:, 0] + p[:, 1]) * p[:, 2]
    # an (arity, N) array is a sequence of columns, and so is a list
    assert model.eval(p.T).tobytes() == want.tobytes()
    assert model.eval(list(p.T)).tobytes() == want.tobytes()
    # columns of different shapes broadcast, and so does a smaller result
    got = model.eval([p[:1, 0], p[:, 1:2].T, p[:, 2]])
    assert got.tobytes() == ((p[0, 0] + p[:, 1]) * p[:, 2]).tobytes()
    root = SigmaModel("root", 2, lambda p: p[0])
    assert root.eval([np.array([0.25]), p[:, 0]]).tolist() == [0.25] * 5
    for columns, message in [
        (p, "expects 3 input columns, got 5"),
        ([p[:, 0], p[:2, 1], p[:, 2]], "shape mismatch: objects cannot be broadcast"),
    ]:
        with pytest.raises(ValueError, match=message):
            model.eval(columns)
    wide = SigmaModel("wide", 1, lambda p: np.stack([p[0], p[0]]))
    with pytest.raises(ValueError, match=r"^model 'wide' returned shape \(2, 5\)$"):
        wide.eval(p[:, :1].T)


def test_sigma_model_copies_a_result_that_is_a_column():
    # uniform-leaf returns its leaf column itself, so the clip copies it: the
    # result shares no memory with the column, and the column keeps its
    # bits, even where the clip moves a value within the tolerance
    model = make_model("uniform-leaf", 1)
    rng = np.random.default_rng(4)
    columns = [rng.random((1, 1)), rng.random((1, 6))]
    columns[-1][0, 2] = 1.0 + 1e-10
    leaf_column = columns[-1].copy()
    got = model.eval(columns)
    assert not np.may_share_memory(got, columns[-1])
    assert columns[-1].tobytes() == leaf_column.tobytes()
    assert got[0, 2] == 1.0 and got.tobytes() == np.clip(leaf_column, 0.0, 1.0).tobytes()


def test_level_values_of_no_tree_leave_the_start_states_alone():
    # the one depth tuple of no tree is the start states themselves, which
    # are shifted to floats in a copy
    h0 = _init_state([5, 2**64 - 1], "v")
    before = h0.copy()
    (got,) = _level_values(h0, (), ())
    assert h0.tobytes() == before.tobytes()
    assert got.tobytes() == ((before >> np.uint64(11)) * 2.0**-53)[:, None].tobytes()


def test_level_values_hold_two_output_sizes():
    # each depth's states are shifted in place and converted once, so the
    # peak is the deepest states and their floats, not a third copy
    tracemalloc.start()
    try:
        levels = _level_values(_init_state(0, "v"), (2,), (500,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in levels)
    assert peak <= 2 * size + 2**17, (peak, size)


# -- product trees ------------------------------------------------------------


def test_int_and_one_tuple_truncations_agree():
    # a single tree is the one-component product
    model = SigmaModel("prod", 3, lambda p: _row_reduce(p, np.multiply))
    a = sample_array(model, 2, 5, seed=8)
    assert np.array_equal(a, sample_array(model, (2,), (5,), seed=8))
    assert np.array_equal(path_matrix(8, "v", 2, 5), path_matrix(8, "v", (2,), (5,)))
    seeds = [8, 9]
    assert np.array_equal(sample_array(model, (2,), (5,), seeds), sample_array(model, 2, 5, seeds))


def test_sample_array_classical_two_tree_form():
    # l=2, r1=r2=1: inputs are the four product-path values in depth-tuple
    # order (0,0), (0,1), (1,0), (1,1)
    model = SigmaModel(
        "combine", 4, lambda p: (p[0] + p[1] + p[2] + p[3]) / 4
    )
    m1, m2, seed = 3, 4, 21
    x = sample_array(model, (1, 1), (m1, m2), seed).reshape(m1, m2)
    f = UniformField(seed, "v")
    r1 = root(1)
    for i in range(1, m1 + 1):
        for j in range(1, m2 + 1):
            expected = (
                f.value(ProductVertex((r1, r1)))
                + f.value(ProductVertex((r1, leaf(j))))
                + f.value(ProductVertex((leaf(i), r1)))
                + f.value(ProductVertex((leaf(i), leaf(j))))
            ) / 4
            assert x[i - 1, j - 1] == pytest.approx(expected, abs=1e-15)


def test_sample_array_product_root_only_model_is_constant():
    model = SigmaModel("root", 4, lambda p: p[0])
    x = sample_array(model, (1, 1), (5, 7), seed=2)
    assert np.all(x == x[0])


def test_sample_array_product_arity_mismatch():
    model = SigmaModel("bad", 3, lambda p: _row_reduce(p, np.add) / 3)
    with pytest.raises(ValueError, match="path size 4"):
        sample_array(model, (1, 1), (3, 3), seed=0)


# -- replica arrays ------------------------------------------------------------


def test_sample_ah_ignoring_replica_block_gives_equal_columns():
    r = 2
    model = SigmaModel("shared", 2 * (r + 1), lambda p: _row_reduce(p[: r + 1], np.add) / (r + 1))
    x = sample_ah(model, r, 4, 6, seed=3)
    assert x.shape == (16, 6)
    for i in range(1, 6):
        assert np.array_equal(x[:, 0], x[:, i])


def test_sample_ah_ignoring_shared_block_gives_iid_entries():
    r = 1
    model = SigmaModel("rep", 2 * (r + 1), lambda p: p[-1])
    x = sample_ah(model, r, 40, 25, seed=9)
    d, p = scipy.stats.kstest(x.reshape(-1), "uniform")
    assert p > 0.01
    # replica fields are distinct streams
    assert not np.array_equal(x[:, 0], x[:, 1])


def test_sample_ah_matches_per_replica_definition():
    r, m, n, seed = 2, 3, 5, 44
    model = SigmaModel("mix", 2 * (r + 1), lambda p: _row_reduce(p, np.add) / (2 * (r + 1)))
    x = sample_ah(model, r, m, n, seed)
    shared = path_matrix(seed, "v", r, m)
    for i in range(1, n + 1):
        rep = path_matrix(seed, f"v^{i}", r, m)
        assert np.array_equal(x[:, i - 1], model.eval(np.hstack([shared, rep]).T))


def test_sample_ah_arity_mismatch():
    model = SigmaModel("bad", 3, lambda p: _row_reduce(p, np.add) / 3)
    with pytest.raises(ValueError):
        sample_ah(model, 2, 3, 4, seed=0)


# -- whole-truncation field values ----------------------------------------------


def _truncation_values(seed, r, m):
    """The role-"u" field on the whole truncation {1..m}^r, as a dict from
    each depth d to the values of its m^d vertices in lexicographic order."""
    return {d: u[0] for d, u in enumerate(_level_values(_init_state(seed, "u"), (r,), (m,)))}


def _at_depth(r, m, d):
    """The depth-d vertices of the ``{1..m}^r`` truncation, lexicographic."""
    return [TreeVertex(c, r) for c in itertools.product(range(1, m + 1), repeat=d)]


def test_ifield_uniform_levels_match_base_field():
    by_depth = _truncation_values(33, 2, 3)
    base = UniformField(33, "u")
    for v in [root(2), leaf(2, r=2), leaf(2, 3)]:
        i = list(vertex_keys(v.depth, 3)).index(encode_vertex(v))
        assert by_depth[v.depth][i] == base.value(v)


def test_ifield_truncation_values_grouping():
    by_depth = _truncation_values(11, 2, 3)
    assert list(by_depth) == [0, 1, 2]
    f = UniformField(11, "u")
    for d, vals in by_depth.items():
        assert vals.tolist() == [f.value(v) for v in _at_depth(2, 3, d)]
    # a product keys its values by depth tuple, vertices in product order
    f = UniformField(12, "u")
    levels = _level_values(_init_state(12, "u"), (1, 2), (3, 2))
    assert len(levels) == len(list(itertools.product(range(2), range(3))))
    for dt, vals in zip(itertools.product(range(2), range(3)), levels):
        parts = [_at_depth(r_i, m_i, d_i)
                 for d_i, r_i, m_i in zip(dt, (1, 2), (3, 2))]
        expected = [f.value(ProductVertex(p)) for p in itertools.product(*parts)]
        assert vals[0].tolist() == expected


# -- path matrices -------------------------------------------------------------


def test_path_matrix_columns_are_prefix_values():
    r, m, seed = 2, 3, 6
    pm = path_matrix(seed, "v", r, m)
    f = UniformField(seed, "v")
    for pos, lf in enumerate(leaves(r, m)):
        expected = [f.value(v) for v in [root(r), lf.parent(), lf]]
        assert np.array_equal(pm[pos], expected)
    assert np.array_equal(path_matrix(seed, "v", r, m), pm)


def _product_words(depths, shape, dt):
    """Word rows of the product vertices at depth tuple ``dt``: one
    (d_i, c1, ..., c_{d_i}) block per tree, the first tree slowest."""
    parts = [_at_depth(r_i, m_i, d_i) for d_i, r_i, m_i in zip(dt, depths, shape)]
    return np.array(
        [[w for p in vs for w in (len(p.coords), *p.coords)] for vs in itertools.product(*parts)],
        dtype=np.uint64,
    )


def test_level_values_match_the_coord_word_rows():
    # one fold per tree hashes each vertex as its word row, byte for byte:
    # one tree at depths 0..3, K = 1 and K = 3 start states
    for seeds in ([5], [5, 2**64 - 1, 9]):
        h0 = _init_state(seeds, "w")
        for r, m in ((1, 5), (2, 3), (3, 4)):
            levels = _level_values(h0, (r,), (m,))
            assert len(levels) == r + 1
            for d, got in enumerate(levels):
                coords = [v.coords for v in _at_depth(r, m, d)]
                want = _hash_words(h0, _coord_words(np.array(coords, dtype=np.int64)))
                assert got.shape == (len(seeds), m**d)
                assert got.tobytes() == want.tobytes()
    # a product folds tree by tree, depth tuples in lexicographic order
    h0 = _init_state([12, 13], "u")
    dts = list(itertools.product(range(2), range(3)))
    levels = _level_values(h0, (1, 2), (3, 2))
    assert len(levels) == len(dts)
    for dt, got in zip(dts, levels):
        assert got.tobytes() == _hash_words(h0, _product_words((1, 2), (3, 2), dt)).tobytes()
    # the K * n replica start states of sample_ah, seed-major
    n = 4
    keys = np.array([_role_key(f"v^{i}") for i in range(1, n + 1)], dtype=np.uint64)
    h0 = _mix(_seed_words([3, 2**64 - 1])[:, None] ^ keys).reshape(-1)
    for d, got in enumerate(_level_values(h0, (2,), (3,))):
        assert got.shape == (2 * n, 3**d)
        assert got.tobytes() == _hash_words(h0, _product_words((2,), (3,), (d,))).tobytes()


def test_path_matrix_product_matches_vertex_values():
    depths, shape, seed = (1, 2), (2, 2), 23
    pm = path_matrix(seed, "v", depths, shape)
    assert pm.shape == (2 * 4, 2 * 3)
    f = UniformField(seed, "v")
    from hexch.tree import product_path

    parts = itertools.product(*map(leaves, depths, shape))
    for pos, pv in enumerate(map(ProductVertex, parts)):
        pp = product_path(pv)
        ordered = sorted(pp, key=lambda parts: tuple(p.depth for p in parts))
        expected = [f.value(ProductVertex(parts)) for parts in ordered]
        assert np.array_equal(pm[pos], expected)


# -- byte pins of the samplers -------------------------------------------------
#
# sha256 digests recorded before the level-grid builders, the path writers
# and the vertex enumerators were merged into one of each; they must never
# move.  The "product_path_matrix" and "sample_multi" labels name the
# product samplers the digests were recorded from, which path_matrix and
# sample_array now are on depth and side tuples; "ifield_truncation_values"
# names the uniform-field realizer that _truncation_values rebuilds.


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _mean_model(k: int) -> SigmaModel:
    # the bits of the row means of the path matrix, pairwise from 12 terms on
    return SigmaModel("mean", k, lambda p: _row_reduce(p, np.add) / k)


def _mix_model(k: int) -> SigmaModel:
    # half the product of the shared block, half the mean of the replica block
    return SigmaModel("mix", 2 * k, lambda p: 0.5 * _row_reduce(p[:k], np.multiply)
                      + 0.5 * (_row_reduce(p[k:], np.add) / k))


_MEAN4, _MEAN6, _MEAN12 = _mean_model(4), _mean_model(6), _mean_model(12)
_MIX6, _MIX8 = _mix_model(3), _mix_model(4)


def _vertex_text(by_depth, m) -> str:
    """The ``key=value`` lines of the vertex -> value dict the digest was
    recorded from, rebuilt from by-depth values: vertices by depth, keys as
    ``encode`` writes them."""
    lines = []
    for d, vals in by_depth.items():
        lines += [f"{k}={x!r}" for k, x in zip(vertex_keys(d, m), vals.tolist(), strict=True)]
    return "\n".join(lines)


def _pinned_outputs():
    from hexch.scenarios import make_source

    def truncation(seed, r, m):
        by_depth = _truncation_values(seed, r, m)
        keys = "".join(f"{k}:" for k in by_depth)
        return (keys, *by_depth.values(), _vertex_text(by_depth, m))

    return {
        "path_matrix r1 m5": (path_matrix(0, "v", 1, 5),),
        "path_matrix r2 m8": (path_matrix(7, "v", 2, 8),),
        "path_matrix r3 m4": (path_matrix(3, "u", 3, 4),),
        "path_matrix r4 m1": (path_matrix(5, "hperm", 4, 1),),
        "product_path_matrix (1,2) (3,2)": (path_matrix(4, "v", (1, 2), (3, 2)),),
        "product_path_matrix (2,1) (3,4)": (path_matrix(9, "u", (2, 1), (3, 4)),),
        "product_path_matrix (1,1,1) (2,3,2)": (path_matrix(2, "v", (1, 1, 1), (2, 3, 2)),),
        "product_path_matrix (3,) (3,)": (path_matrix(6, "v", (3,), (3,)),),
        "sample_multi (1,2) (3,2)": (sample_array(_MEAN6, (1, 2), (3, 2), 12),),
        "sample_multi (2,1,1) (2,2,3)": (sample_array(_MEAN12, (2, 1, 1), (2, 2, 3), 13),),
        "sample_ah r2 m3 n5": (sample_ah(_MIX6, 2, 3, 5, 44),),
        "sample_ah r1 m4 n3": (sample_ah(_MEAN4, 1, 4, 3, 45),),
        "sample_ah r3 m2 n1": (sample_ah(_MIX8, 3, 2, 1, 46),),
        "ifield_truncation_values r1 m6 uniform": truncation(13, 1, 6),
        "sibling-coupled r2 m5": (make_source("sibling-coupled", 2, 5).sample(11),),
        "sibling-coupled r3 m3": (
            make_source("sibling-coupled", 3, 3, params={"weight": 0.4}).sample(12),
        ),
    }


_PINNED_DIGESTS = {
    "path_matrix r1 m5": "472cf73396c40e12c019dde69af77dedd9dd4766cfc9ed5165f5b9c74c0bfac4",
    "path_matrix r2 m8": "664c08883c7b0fe2125f539c80bb9095f60713f115accc06f9eea71d61cd0f61",
    "path_matrix r3 m4": "6a32f0c14d4e158ab36ceafba94bd944cd5ec8550e5633979ac3b0475ab44bb7",
    "path_matrix r4 m1": "7514140c7038e526bbf15f18231ce9d270032f5df5b19f02dfda91e635d752ca",
    "product_path_matrix (1,2) (3,2)": "211fdc1c4bc30d1ee38b03a412a44abc3ee6cc0f2102bd7a8de177a29d406a1d",
    "product_path_matrix (2,1) (3,4)": "3208ca549cba4e029296d6326b93602049e009e6b715fdde5a2cdac29b7b10a7",
    "product_path_matrix (1,1,1) (2,3,2)": "24f02e31b2e6c35287027d066eaae9dad6a92219ecb8b03041255e4d579be556",
    "product_path_matrix (3,) (3,)": "89153fd762a60d2fb8ff934ab41c85b026d840301afdba6747817d04cadc5c68",
    "sample_multi (1,2) (3,2)": "67a936d6aa3c127c676dadf9bc3122a857dc57284506ca8f99e5d5776f774d06",
    "sample_multi (2,1,1) (2,2,3)": "ca0801618f9c28295c12230c6129655820a6eb0642b241fe7424836cc262789f",
    "sample_ah r2 m3 n5": "ab03eb25e1bb49bb58828850a7c5a3656ee8f3796cc14c1b5852cd4cdd55b2f2",
    "sample_ah r1 m4 n3": "827f1801c030b30d3a7163219f0a31393c7759916fa2e1127bb494c01ea6bf16",
    "sample_ah r3 m2 n1": "ddad9d7d8d4cfa8e2972488f0e6ee2c7c3f711d19fe7302351ae28c5f6ba76fa",
    "ifield_truncation_values r1 m6 uniform": "fcaf6818af333f125f3d4e456270be6f9b00cd30dece27b9a1bf03cfb97627f9",
    "sibling-coupled r2 m5": "0a35b48c331a075775ad1e24e25a641b1eff9fce0565a1bb6138c858e0b4b6cf",
    "sibling-coupled r3 m3": "4f6c101b96cf2facf94601fe9d480aebe88e3898f86872b6b107fe2fa64e3e13",
}


def test_sampler_outputs_pinned():
    outputs = _pinned_outputs()
    assert outputs.keys() == _PINNED_DIGESTS.keys()
    for name, parts in outputs.items():
        assert _digest(*parts) == _PINNED_DIGESTS[name], name
