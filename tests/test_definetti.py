"""Tests for empirical measures, extraction and resynthesis."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

import hexch.definetti
from hexch import acceptance
from hexch.acceptance import w1_to_uniform
from hexch.definetti import (
    DirectingHierarchy,
    EmpiricalMeasure,
    _BROADCAST_WIDTH,
    _COLUMN_ROWS,
    _assignment_table,
    _common_counts,
    _level_counts,
    _lex_order,
    _measure_tables,
    _search_rows,
    _w1_table,
    empirical_measure,
    extract_hierarchy,
    hierarchy_json_chunks,
    hierarchy_to_json_obj,
    nested_distance,
    resynthesize,
    wasserstein1,
)
from hexch.fields import UniformField, derive_seed, sample_array
from hexch.hperm import random_hperm
from hexch.scenarios import make_model, make_source
from hexch.tree import TreeVertex, internal_vertices, root

from reference import measure_over, measure_to_json_obj


# -- empirical measures --------------------------------------------------------


def test_empirical_measure_multiplicities():
    mu = empirical_measure([0.2, 0.2, 0.8])
    assert mu.atoms == ((0.2, 2 / 3), (0.8, 1 / 3))
    assert mu.level == 0


def test_empirical_measure_point_mass():
    mu = empirical_measure([0.4] * 50)
    assert mu.atoms == ((0.4, 1.0),)
    assert mu == EmpiricalMeasure(((0.4, 1.0),), 0)


def test_empirical_measure_w1_rate():
    # 2000 draws from Uniform[0, 0.6]: the expected W1 to the true law is
    # about 0.6 * 0.31 / sqrt(2000) ~ 0.004, far below the 0.02 bound
    rng = np.random.default_rng(1234)
    draws = 0.6 * rng.random(2000)
    mu = empirical_measure(draws)
    pts = np.repeat(mu.locations, np.round(mu.weights * 2000).astype(int))
    assert w1_to_uniform(pts, 0.6) < 0.02


def test_empirical_measure_empty_input():
    with pytest.raises(ValueError):
        empirical_measure([])


def test_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(((0.1, 0.5), (0.9, 0.6)), 0)  # weights exceed 1
    with pytest.raises(ValueError):
        EmpiricalMeasure(((1.5, 1.0),), 0)  # location outside [0,1]
    with pytest.raises(ValueError):
        EmpiricalMeasure(((empirical_measure([0.1]), 1.0),), 2)  # wrong nesting level


@pytest.mark.parametrize("atoms, after", [
    (((0.9, 0.3), (0.1, 0.7)), "0.1 after 0.9"),
    (((0.1, 0.5), (0.1, 0.5)), "0.1 after 0.1"),
    (((0.0, 0.5), (-0.0, 0.5)), "-0.0 after 0.0"),
    (((0.2, 0.25), (0.5, 0.25), (0.3, 0.5)), "0.3 after 0.5"),
], ids=["descending", "repeated", "signed-zero", "third-atom"])
def test_level_0_locations_must_strictly_ascend(atoms, after):
    with pytest.raises(ValueError, match=f"level-0 locations must strictly ascend, got {after}$"):
        EmpiricalMeasure(atoms, 0)


def test_weights_sum_tightly():
    mu = empirical_measure(np.linspace(0.0, 1.0, 97))
    assert abs(mu.weights.sum() - 1.0) <= 1e-12


# -- quantile convention --------------------------------------------------------


def _draws(monkeypatch, h, u):
    """What :func:`resynthesize` draws from the r=1 hierarchy ``h`` when its
    field yields the uniforms ``u``."""
    u = np.asarray(u, dtype=np.float64)
    monkeypatch.setattr(hexch.definetti, "_hash_level", lambda h0, depths, shape: u[None])
    return resynthesize(h, 1, u.size, seed=0)


def test_quantile_point_mass(monkeypatch):
    h = extract_hierarchy([0.3], 1, 1)
    assert _draws(monkeypatch, h, [0.0, 0.2, 1.0]).tolist() == [0.3] * 3


def test_quantile_left_continuous_inverse(monkeypatch):
    # resynthesis inverts the CDF from the left: Q(v) = inf{x : F(x) >= v}.
    # F(0.1) = 0.5 >= 0.5, so Q(0.5) takes the lower atom; F(0.1) = 0.5 <
    # 0.75, so Q(0.75) moves up
    h = extract_hierarchy([0.9, 0.1], 1, 2)
    assert _draws(monkeypatch, h, [0.5, 0.75, 0.0, 1.0]).tolist() == [0.1, 0.9, 0.1, 0.9]


def test_quantile_rejects_nested_measure():
    nested = extract_hierarchy([0.1, 0.1, 0.5, 0.5], 2, 2).root_measure
    assert nested.level == 1
    with pytest.raises(ValueError, match="level-0 measures only"):
        nested.locations


def test_quantile_grid_reproduces_weights_exactly(monkeypatch):
    # frequency of each atom over a fine uniform grid of v equals its weight
    h = extract_hierarchy([0.1, 0.1, 0.4, 0.7, 0.7, 0.7], 1, 6)
    mu = h.root_measure
    grid_n = 6000
    vs = (np.arange(grid_n) + 0.5) / grid_n
    draws = _draws(monkeypatch, h, vs)
    for loc, w in mu.atoms:
        freq = np.mean(draws == loc)
        assert abs(freq - w) <= 1.0 / grid_n + 1e-12


def test_measure_arrays_cached_and_read_only():
    mu = empirical_measure([0.3, 0.1, 0.1, 0.9])
    arrays = [mu.locations, mu.weights]
    assert arrays[0] is mu.locations and arrays[1] is mu.weights
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5
    # the caches leave equality and hashing alone
    fresh = empirical_measure([0.3, 0.1, 0.1, 0.9])
    assert fresh == mu and hash(fresh) == hash(mu)
    nested = measure_over([mu, fresh, empirical_measure([0.2])])
    assert not nested.weights.flags.writeable


# -- extraction -----------------------------------------------------------------


def test_extract_r1_single_root_measure():
    arr = np.array([0.2, 0.4, 0.4, 0.9])
    h = extract_hierarchy(arr, 1, 4)
    assert h.measures == (empirical_measure(arr),)
    assert h.root_measure == empirical_measure(arr)
    assert h.measure_at(root(1)) == h.root_measure


def test_extract_r1_many_atoms_weights_sum_to_one():
    # 10^5 atoms of weight 1e-5: a running float sum misses 1 by ~2e-12
    x = np.random.default_rng(8).random(100_000)
    mu = extract_hierarchy(x, 1, 100_000).root_measure
    assert len(mu.atoms) == 100_000
    assert all(w == 1e-5 for _, w in mu.atoms)


def test_extract_constant_array_gives_nested_point_masses():
    c = 0.37
    h = extract_hierarchy(np.full(9, c), 2, 3)
    for v, mu in zip(internal_vertices(2, 3), h.measures, strict=True):
        assert mu.level == h.r - 1 - v.depth
        if mu.level == 0:
            assert mu == empirical_measure([c])
        else:
            assert len(mu.atoms) == 1
            assert mu.atoms[0][0] == empirical_measure([c])


def test_extract_measure_levels_and_counts():
    x = sample_array(make_model("product", 2), 2, 4, seed=6)
    h = extract_hierarchy(x, 2, 4)
    assert isinstance(h.measures, tuple)
    # the root first, then the four depth-1 vertices
    assert [mu.level for mu in h.measures] == [1, 0, 0, 0, 0]
    assert h.root_measure is h.measures[0]


def test_extract_product_model_approximates_conditional_uniform():
    # children of parent k are c * u with c = v_root * v_k, i.e. Uniform[0,c];
    # the W1 error to that law shrinks as m grows
    model = make_model("product", 2)
    seed = 1111
    f = UniformField(seed, "v")
    v_root = f.value(root(2))
    errs = {}
    for m in (8, 32, 128):
        x = sample_array(model, 2, m, seed)
        h = extract_hierarchy(x, 2, m)
        per_parent = []
        for k in range(1, m + 1):
            c = v_root * f.value(TreeVertex((k,), 2))
            mu = h.measure_at(TreeVertex((k,), 2))
            pts = np.repeat(mu.locations, np.round(mu.weights * m).astype(int))
            per_parent.append(w1_to_uniform(pts, c))
        errs[m] = float(np.mean(per_parent))
    assert errs[8] > errs[32] > errs[128]
    assert errs[128] < 0.05


def test_extract_incomplete_array():
    with pytest.raises(ValueError):
        extract_hierarchy(np.zeros(7), 2, 3)


def test_extract_invariant_under_structure_permutation():
    # extracting from the permuted array reproduces the same measures at the
    # relabeled vertices, exactly
    m, seed = 4, 99
    x = sample_array(make_model("path-mean", 2), 2, m, seed)
    pi = random_hperm(2, m, seed=7)
    y = x[pi.permuted_leaf_indices(m)]
    hx_ = extract_hierarchy(x, 2, m)
    hy = extract_hierarchy(y, 2, m)
    for v, mu in zip(internal_vertices(2, m), hy.measures, strict=True):
        assert mu == hx_.measure_at(pi.apply(v))
        assert nested_distance(mu, hx_.measure_at(pi.apply(v))) == 0.0


def _reference_extract(x, r, m):
    # the per-row loop: np.unique on each sibling block, then measures over
    # measures level by level
    level = [empirical_measure(x[i * m : (i + 1) * m]) for i in range(m ** (r - 1))]
    measures = {}
    for d in range(r - 1, -1, -1):
        for coords, mu in zip(itertools.product(range(1, m + 1), repeat=d), level):
            measures[TreeVertex(coords, r)] = mu
        if d > 0:
            level = [measure_over(level[i * m : (i + 1) * m]) for i in range(m ** (d - 1))]
    return measures


@pytest.mark.parametrize(
    "r, m, model, decimals",
    [
        (1, 9, "product", None),
        (2, 6, "path-mean", None),
        (3, 4, "product", None),
        (2, 8, "uniform-leaf", 1),  # many ties within rows
        (3, 3, "path-mean", 1),
        (2, 5, "root-constant", None),  # every row one atom
    ],
)
def test_extract_matches_per_row_empirical_measure(r, m, model, decimals):
    x = sample_array(make_model(model, r), r, m, seed=40 + r * m)
    if decimals is not None:
        x = np.round(x, decimals)
    measures = extract_hierarchy(x, r, m).measures
    expected = _reference_extract(x, r, m)
    want = [expected[v] for v in internal_vertices(r, m)]
    assert len(want) == len(expected)
    assert [(mu.atoms, mu.level) for mu in measures] == [(mu.atoms, mu.level) for mu in want]


def _hierarchy_parts():
    x = sample_array(make_model("product", 3), 3, 3, seed=12)
    h = extract_hierarchy(x, 3, 3)
    return h.atoms, h.weights, h.ids  # tables of levels 0..2, id rows of depths 0..2


def test_hierarchy_accepts_the_internal_vertex_layout():
    atoms, weights, ids = _hierarchy_parts()
    h = DirectingHierarchy(3, 3, list(atoms), list(weights), [v.tolist() for v in ids])
    assert [v.shape for v in h.ids] == [(1,), (3,), (9,)]
    for arrays in (h.atoms, h.weights, h.ids, h.counts, h.cum):
        assert isinstance(arrays, tuple)
        assert not any(a.flags.writeable for a in arrays)
    for k, (c, n) in enumerate(zip(h.cum, h.counts)):
        assert np.all(c[np.arange(len(n)), n - 1] == 1.0)
        assert np.all(np.isinf(c) == (np.arange(c.shape[1]) >= n[:, None]))
    assert [mu.level for mu in h.measures] == [2] + [1] * 3 + [0] * 9
    assert h.root_measure is h.measures[0]
    # the vertices on one table row share its measure object
    for d, row in enumerate(h.ids):
        first = 3**d - 1 >> 1  # 0, 1, 4: where depth d starts in internal_vertices order
        for i, j in itertools.combinations(range(row.size), 2):
            same = h.measures[first + i] is h.measures[first + j]
            assert same == (row[i] == row[j])


def test_hierarchy_rejects_a_missing_measure():
    atoms, weights, ids = _hierarchy_parts()
    with pytest.raises(ValueError, match="2 id rows for the 3 internal depths"):
        DirectingHierarchy(3, 3, atoms, weights, ids[:2])
    with pytest.raises(ValueError, match="depth 2 has 8 ids for its 9 vertices"):
        DirectingHierarchy(3, 3, atoms, weights, ids[:2] + (ids[2][:-1],))
    with pytest.raises(ValueError, match="2 atom and 3 weight tables"):
        DirectingHierarchy(3, 3, atoms[:2], weights, ids)
    holed = weights[0].copy()
    holed[0, 0] = 0.0  # a row's first atom without weight
    with pytest.raises(ValueError, match="positive weights on a prefix"):
        DirectingHierarchy(3, 3, atoms, (holed,) + weights[1:], ids)


def test_hierarchy_rejects_an_extra_measure():
    atoms, weights, ids = _hierarchy_parts()
    with pytest.raises(ValueError, match="4 id rows for the 3 internal depths"):
        DirectingHierarchy(3, 3, atoms, weights, ids + (ids[-1],))
    with pytest.raises(ValueError, match="depth 1 has 4 ids for its 3 vertices"):
        DirectingHierarchy(3, 3, atoms, weights, (ids[0], np.append(ids[1], 0), ids[2]))
    # a deeper truncation's id rows are out of range for a shallower one
    with pytest.raises(ValueError, match="depth 1 has 3 ids for its 2 vertices"):
        DirectingHierarchy(3, 2, atoms, weights, ids)


def test_hierarchy_rejects_a_wrong_level_measure():
    atoms, weights, ids = _hierarchy_parts()
    n = [len(a) for a in atoms]
    # swapping the depth 1 and depth 2 rows changes their sizes
    with pytest.raises(ValueError, match="depth 1 has 9 ids for its 3 vertices"):
        DirectingHierarchy(3, 3, atoms, weights, (ids[0], ids[2], ids[1]))
    # an id past its level's table, or below it
    for bad in (n[1], -1):
        row = ids[1].copy()
        row[2] = bad
        with pytest.raises(ValueError, match=f"depth 1 ids must index the {n[1]} rows"):
            DirectingHierarchy(3, 3, atoms, weights, (ids[0], row, ids[2]))
    nested = atoms[1].copy()
    nested[0, 0] = n[0]
    with pytest.raises(ValueError, match=f"level 1 atom ids must index the {n[0]} rows"):
        DirectingHierarchy(3, 3, (atoms[0], nested, atoms[2]), weights, ids)
    with pytest.raises(ValueError):
        DirectingHierarchy(0, 3, (), (), ())  # no internal vertices


def test_measure_at_follows_the_internal_vertex_order():
    h = extract_hierarchy(sample_array(make_model("path-mean", 3), 3, 3, seed=2), 3, 3)
    for v, mu in zip(internal_vertices(3, 3), h.measures, strict=True):
        assert h.measure_at(v) is mu
    for v in (TreeVertex((4,), 3), TreeVertex((1, 1, 1), 3), TreeVertex((1,), 2)):
        with pytest.raises(KeyError):
            h.measure_at(v)


# -- resynthesis ----------------------------------------------------------------


def test_resynthesize_constant_hierarchy():
    h = extract_hierarchy(np.full(16, 0.25), 2, 4)
    y = resynthesize(h, 2, 6, seed=5)
    assert y.shape == (36,)
    assert np.all(y == 0.25)


def test_resynthesize_r1_draws_iid_from_root_measure():
    import scipy.stats

    values = np.concatenate([np.full(30, 0.2), np.full(70, 0.8)])
    h = extract_hierarchy(values, 1, 100)
    y = resynthesize(h, 1, 4000, seed=8)
    freq = np.mean(y == 0.2)
    assert abs(freq - 0.3) < 0.03
    # PIT against the source measure should look uniform
    rng = np.random.default_rng(0)
    lo, hi = h.parent_cdfs(y[None])
    pit = lo[0] + rng.random(y.size) * (hi[0] - lo[0])
    assert scipy.stats.kstest(pit, "uniform").pvalue > 0.01


def test_resynthesize_roundtrip_on_sibling_blocks():
    # the sibling blocks of a resynthesized array should be statistically
    # indistinguishable from the source's: energy test non-rejects in at
    # least 90 of 100 seeded trials
    from hexch.fields import derive_seed
    from hexch.stattests import _energy_permutation_pvalue

    model = make_model("product", 2)
    m = 32
    non_reject = 0
    for t in range(100):
        seed = derive_seed(2025, "blocks", t)
        x = sample_array(model, 2, m, seed)
        h = extract_hierarchy(x, 2, m)
        y = resynthesize(h, 2, m, derive_seed(seed, "resyn"))
        _, p = _energy_permutation_pvalue(
            x.reshape(m, m), y.reshape(m, m), 199, derive_seed(seed, "resample")
        )
        non_reject += p >= 0.05
    assert non_reject >= 90


def test_resynthesize_deterministic_and_depth_checked():
    x = sample_array(make_model("product", 2), 2, 8, seed=3)
    h = extract_hierarchy(x, 2, 8)
    assert np.array_equal(resynthesize(h, 2, 8, seed=1), resynthesize(h, 2, 8, seed=1))
    with pytest.raises(ValueError):
        resynthesize(h, 3, 8, seed=1)


def _reference_resynthesize(h, r, m2, seed):
    # the per-child loop: one field value per TreeVertex and one inverse-CDF
    # atom pick per child, from weights summed afresh
    f = UniformField(seed, role="w")

    def pick(mu, v):
        cum = np.cumsum([w for _, w in mu.atoms])
        cum[-1] = 1.0
        return min(int(np.searchsorted(cum, v, side="left")), len(mu.atoms) - 1)

    current = [h.root_measure]
    for d in range(1, r + 1):
        vs = [TreeVertex(c, r) for c in itertools.product(range(1, m2 + 1), repeat=d)]
        u = f.values(vs)
        current = [
            mu.atoms[pick(mu, x)][0]
            for i, mu in enumerate(current)
            for x in u[i * m2 : (i + 1) * m2]
        ]
    return np.array(current)


# m2=70,000 at r=1 hashes one level of 70,000 uniforms and searches rows
# of one atom each
@pytest.mark.parametrize(
    "m2, r", [(m2, r) for m2 in (2, 4, 7) for r in (1, 2, 3)] + [(70_000, 1)]
)
def test_resynthesize_matches_per_child_loop(r, m2):
    m = 4
    x = sample_array(make_model("product", r), r, m, seed=17 * r + m2)
    x[: m ** r // 2] = np.round(x[: m ** r // 2], 1)  # some tied atoms
    h = extract_hierarchy(x, r, m)
    y = resynthesize(h, r, m2, seed=m2)
    assert np.array_equal(y, _reference_resynthesize(h, r, m2, seed=m2))


def _first_difference(a, b):
    """None if the texts are equal, else the first index where they differ
    and the text around it in each: pytest's own diff of two long one-line
    texts can take minutes."""
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[max(0, i - 40) : i + 40], b[max(0, i - 40) : i + 40]


# sha256 of the hierarchy.json bytes and of the little-endian resynthesized
# array, recorded before extraction and resynthesis were vectorized:
# (scenario, r, m, resynthesize_m, seed, hierarchy digest, resynthesis digest)
PINNED_DIGESTS = [
    ("product", 3, 5, 4, 0,
     "47a526ca3d7213cca7c55ea6c7b771d7ba723fd2d0ee043f622c9d8a64a9a8dc",
     "8550bc3beaa78a040860e16575f9380c907e02567806b34b6b2e7a101ed02492"),
    ("product", 3, 5, 7, 1,
     "72c3843bdf08c2beca42c196a522c573471b8805c3271d8df0d7717c92c81204",
     "a9c9b97b2de339a1cf23dc8e07a29f31da2f24aa5ae085611e4ad65aa630ff2c"),
    ("path-mean", 2, 8, 8, 2,
     "70b342af0cb5a5694a3664ac5503f11eab4c08c4850be8a94f39b0d5fd87d6b5",
     "eedf3cbba283ae3b060d328a81841881e0b12f489f0cabc30285e6a9f9054405"),
    ("root-constant", 2, 6, 9, 3,
     "4c7bab5b57431145e43a462bd21dc3dccf52d952d4bd679d83f7f3ba548f613a",
     "76a318eee8e9cf8a8e5c08c0be03be30f21ab355da30ae8d64e3eec30aa9e1a6"),
    ("markov-leak", 2, 7, 5, 4,
     "89cb347cc46974396f590b27abb0f67a4f9a97d5803f950dcd57036b2e4940c7",
     "ffd822ca663cef3f06595602bd7472515c3c640ab673270bb20296795f8962f0"),
    ("uniform-leaf", 1, 9, 12, 5,
     "8ca0b75fe8c6a88bbd4735d68bb3d510f2f6940ed79055c33be774556b5d80ad",
     "238941ef1a2fac4ff6cd3d4b0dee6579806d877ed19d7d9ce2c9a3046a353c43"),
]


@pytest.mark.parametrize("case", PINNED_DIGESTS, ids=lambda c: f"{c[0]}-r{c[1]}-seed{c[4]}")
def test_hierarchy_and_resynthesis_bytes_pinned(case):
    name, r, m, m2, seed, h_digest, y_digest = case
    x = make_source(name, r, m).sample(seed)
    h = extract_hierarchy(x, r, m)
    text = b"".join(hierarchy_json_chunks(h)).decode()
    assert hashlib.sha256(text.encode()).hexdigest() == h_digest
    obj_text = json.dumps(hierarchy_to_json_obj(h), sort_keys=True) + "\n"
    assert _first_difference(obj_text, text) is None
    y = resynthesize(h, r, m2, derive_seed(seed, "resynthesize"))
    data = np.ascontiguousarray(y, dtype="<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == y_digest


# Recorded before the hierarchy became per-level arrays, in the same form as
# PINNED_DIGESTS plus the rounding applied to the sample:
# (scenario, r, m, decimals, resynthesize_m, seed, hierarchy digest, resynthesis digest)
# "by-hand" is BY_HAND: r=2 m=3 with sibling rows [a,b,b], [a,a,b], [b,a,b].
BY_HAND = [0.2, 0.7, 0.7, 0.2, 0.2, 0.7, 0.7, 0.2, 0.7]
ARRAY_FORM_DIGESTS = [
    ("product", 3, 16, None, 16, 0,
     "c891c6c20a8f596ae084202eec94fe039b31e5a663f482eead43a2c16c1ddda3",
     "d5d1ef30549a771cbf188881ce3947fa6e4007a999d9f270a4555a764ce1817a"),
    ("path-mean", 4, 3, None, 3, 1,
     "e59295a32398b9bece9defa729eaa7f2f05e93d74e0bd9deb5844a6d211ec04c",
     "9dfb76adacdd52ec8be4ef04624942caadb0f15b15538b3d62b87e7882550ddd"),
    # ties merge measures at levels 1 and 2
    ("product", 3, 3, 1, 3, 4,
     "42023ff506a1eb712594d81eb153b2d5632e43d245c2a17122ed767a37397034",
     "aa25b3d912ffde8a56f518cd657f696405f308e05ef59ea8a2447fdbd78c6a6f"),
    ("product", 2, 6, 2, 6, 1,
     "fc70c085dda325844d83291336ed3e3194576751d395b390bc3a43e572f1e974",
     "3685eb24c74e7844b3b60a91d308e33693713034416a4462282991d34d854d44"),
    ("uniform-leaf", 5, 1, None, 1, 2,
     "377662d402efa187737a9785ba907e702e923daaefecf89c2281d1623d63542f",
     "72ec124210a6db9851fa1e98f2e64af112cefa1483bcd57873b11da890ad1957"),
    ("path-mean", 3, 4, None, 1, 3,
     "8b38aeed82363d2a8f190c0eee387235a245b268c1e8ff80d610c34b076c62df",
     "b3f265d1b0a69255f950d694274022f36529eb13cec4f1960eed6b824ac374d5"),
    ("path-mean", 3, 4, None, 5, 3,
     "8b38aeed82363d2a8f190c0eee387235a245b268c1e8ff80d610c34b076c62df",
     "76224a8d5cc89cebfe076f0ac4df7d4fccc8bbd5c640f5bb5626b2c29cefb828"),
    ("path-mean", 3, 4, None, 8, 3,
     "8b38aeed82363d2a8f190c0eee387235a245b268c1e8ff80d610c34b076c62df",
     "4b4e3fdbd2e59bee189cd94c9463b714dcace3b6f9a445584d38bc88e76a4c72"),
    ("by-hand", 2, 3, None, 3, 5,
     "01a772846c35e4d049a2a1b621a1a15ac6c95bdfe5c8068c03acacc89dbbe360",
     "17a97e9c23d46e3d25638c2d79e42e0bc53d918ce60e23dae47de4343c033cad"),
]


@pytest.mark.parametrize(
    "case", ARRAY_FORM_DIGESTS, ids=lambda c: f"{c[0]}-r{c[1]}-m{c[2]}-d{c[3]}-m2_{c[4]}"
)
def test_array_form_bytes_pinned(case):
    name, r, m, decimals, m2, seed, h_digest, y_digest = case
    x = np.array(BY_HAND) if name == "by-hand" else make_source(name, r, m).sample(seed)
    if decimals is not None:
        x = np.round(x, decimals)
    h = extract_hierarchy(x, r, m)
    text = b"".join(hierarchy_json_chunks(h)).decode()
    assert hashlib.sha256(text.encode()).hexdigest() == h_digest
    obj_text = json.dumps(hierarchy_to_json_obj(h), sort_keys=True) + "\n"
    assert _first_difference(obj_text, text) is None
    y = resynthesize(h, r, m2, derive_seed(seed, "resynthesize"))
    data = np.ascontiguousarray(y, dtype="<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == y_digest


# sha256 of a hierarchy's level arrays (atoms, weights, ids, counts, cum, in
# that order, level by level) and of its resynthesis at m2=16, seed 7,
# recorded before the level tables were filled by flat scatter: product at
# r=3 m=16, seed 41, every third sibling row rounded to 1 decimal and every
# fifth from the second to 2, so that 256 level-0 rows mix tied atoms, tied
# first atoms and equal rows with rows as drawn
MIXED_TIES_DIGESTS = (
    "4d85c7b4107365be3ac21a01e60be4e92ef8516da1f683685345ec85a97cddfa",
    "414634f6e7680f0ae8307a4cd02f0e2395a01d1a03dd034e9929a56effed8d98",
)


def test_level_tables_of_mixed_tied_and_untied_rows_keep_their_pinned_bits():
    x = make_source("product", 3, 16).sample(41).reshape(256, 16)
    x[::3] = np.round(x[::3], 1)
    x[1::5] = np.round(x[1::5], 2)
    h = extract_hierarchy(x.reshape(-1), 3, 16)
    assert len(h.atoms[0]) < 256 and (h.weights[0] < 1 / 16 + 1e-12).any()
    digest = hashlib.sha256()
    for arrays in (h.atoms, h.weights, h.ids, h.counts, h.cum):
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
    y = resynthesize(h, 3, 16, 7)
    assert (digest.hexdigest(), hashlib.sha256(y.tobytes()).hexdigest()) == MIXED_TIES_DIGESTS


def _object_path_json(h):
    """hierarchy.json as the nested measure objects serialize, the oracle
    for the streamed writer."""
    measures = {v.encode(): measure_to_json_obj(mu)
                for v, mu in zip(internal_vertices(h.r, h.m), h.measures, strict=True)}
    return json.dumps({"m": h.m, "measures": measures, "r": h.r}, sort_keys=True) + "\n"


# (scenario, r, m, decimals): ties at every level when rounded, r = 1, a
# one-cell deep tree, m >= 10 where string and numeric key orders differ,
# and r >= 11 where depth "10" sorts before depth "2"
WRITER_CASES = [
    ("product", 3, 3, 1), ("product", 2, 6, 2), ("path-mean", 3, 11, 1),
    ("product", 1, 5, None), ("uniform-leaf", 1, 12, None), ("uniform-leaf", 5, 1, None),
    ("product", 2, 12, None), ("product", 3, 16, None), ("path-mean", 11, 2, 1),
    ("by-hand", 2, 3, None),
]


@pytest.mark.parametrize("case", WRITER_CASES, ids=lambda c: f"{c[0]}-r{c[1]}-m{c[2]}-d{c[3]}")
def test_json_writer_matches_the_object_path(case):
    name, r, m, decimals = case
    x = np.array(BY_HAND) if name == "by-hand" else make_source(name, r, m).sample(3)
    if decimals is not None:
        x = np.round(x, decimals)
    h = extract_hierarchy(x, r, m)
    pieces = list(hierarchy_json_chunks(h))
    assert all(isinstance(p, bytes) for p in pieces)
    assert _first_difference(b"".join(pieces).decode(), _object_path_json(h)) is None


def test_json_writer_leaves_no_reference_cycles():
    # cyclic garbage waits for the collector, so each run's texts would pile up
    import gc

    h = extract_hierarchy(make_source("product", 3, 4).sample(0), 3, 4)
    gc.collect()
    gc.disable()
    try:
        b"".join(hierarchy_json_chunks(h)).decode()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("atoms, weights, match", [
    # resynthesis would renormalize these weights: its last cumulative
    # weight is set to 1
    ([[0.1, 0.2]], [[0.3, 0.3]], "weights miss 1 by"),
    ([[-np.inf, 0.5]], [[0.5, 0.5]], "location -inf outside"),
    ([[0.2, 1.5]], [[0.5, 0.5]], "location 1.5 outside"),
    ([[np.nan, 0.5]], [[1.0, 0.0]], "location nan outside"),
    # parent_cdfs searches the rows, so they must ascend
    ([[0.5, 0.1]], [[0.5, 0.5]], "must ascend"),
    ([[0.5, 0.5]], [[0.5, 0.5]], "must ascend"),
    ([[0.2, np.nan, 0.5]], [[0.25, 0.25, 0.5]], "must ascend"),
], ids=["sum-0.6", "minus-inf", "above-1", "nan-first", "descending", "repeated", "nan-inside"])
def test_hierarchy_rejects_rows_that_are_no_measure(atoms, weights, match):
    with pytest.raises(ValueError, match=match):
        DirectingHierarchy(1, 2, (np.array(atoms),), (np.array(weights),),
                           (np.zeros(1, dtype=int),))


@pytest.mark.parametrize("row", [[1, 0], [0, 0]], ids=["descending", "repeated"])
def test_hierarchy_rejects_level_ids_that_do_not_ascend(row):
    # two point masses at 0.2 and 0.7; a root listing them as [1, 0] was
    # accepted, not equal to the canonical root, yet 0.0 away from it
    a0, w0, ids = [[0.2], [0.7]], [[1.0], [1.0]], ([0], [1, 0])
    with pytest.raises(ValueError, match="level-1 atoms must ascend"):
        DirectingHierarchy(2, 2, (a0, [row]), (w0, [[0.5, 0.5]]), ids)
    h = DirectingHierarchy(2, 2, (a0, [[0, 1]]), (w0, [[0.5, 0.5]]), ids)
    assert h.root_measure == measure_over([empirical_measure([0.7]), empirical_measure([0.2])])


@pytest.mark.parametrize("row", [[0, 5, 1], [1, -1, 0]], ids=["past-the-table", "below-it"])
def test_an_id_out_of_range_is_reported_before_ids_out_of_order(row):
    # ascending ids are in range when a row's first and last are; in a row
    # that does not ascend every id is checked, before the order is
    a0, w0, ids = [[0.2], [0.5], [0.7]], [[1.0], [1.0], [1.0]], ([0], [0, 1, 2])
    with pytest.raises(ValueError, match="level 1 atom ids must index the 3 rows"):
        DirectingHierarchy(2, 3, (a0, [row]), (w0, [[0.25, 0.25, 0.5]]), ids)


def test_hierarchy_rejects_level_weights_that_miss_one():
    atoms, weights, ids = _hierarchy_parts()
    short = weights[1].copy()
    short[0, 0] *= 0.5
    with pytest.raises(ValueError, match="level 1: a row's weights miss 1 by"):
        DirectingHierarchy(3, 3, atoms, (weights[0], short, weights[2]), ids)
    # the tolerance grows with the row width: the running sum of 10^5
    # weights 1e-5 misses 1 by about 2e-12, and the row is accepted
    w = extract_hierarchy(np.linspace(0.0, 1.0, 100_000), 1, 100_000).weights[0]
    assert abs(np.cumsum(w)[-1] - 1.0) > 1e-12


def test_signed_zero_does_not_depend_on_sibling_order():
    # 0.0 and -0.0 sort as equal, so without normalization the merged atom
    # prints as whichever sibling comes first
    texts = {b"".join(hierarchy_json_chunks(extract_hierarchy(np.array(p), 1, 3))).decode()
             for p in itertools.permutations([0.0, -0.0, 0.5])}
    assert len(texts) == 1 and "-0.0" not in texts.pop()
    # the object path reads -0.0 the same way
    atoms = {repr(empirical_measure(p).atoms) for p in itertools.permutations([0.0, -0.0, 0.5])}
    assert len(atoms) == 1 and "-0.0" not in atoms.pop()
    rows = np.array([[0.0, -0.0, 0.5], [-0.0, 0.5, 0.5], [0.0, 0.0, -0.0]])
    texts = {b"".join(hierarchy_json_chunks(extract_hierarchy(
                 np.concatenate([row[list(p)] for row, p in zip(rows, perms)]), 2, 3))).decode()
             for perms in itertools.product(itertools.permutations(range(3)), repeat=3)}
    assert len(texts) == 1 and "-0.0" not in texts.pop()


def test_tied_rows_follow_sort_key_order():
    # [a,b,b] weighs a by 1/3 and [a,a,b] by 2/3, so it sorts first, although
    # its expanded sorted row is lexicographically larger
    h = extract_hierarchy(BY_HAND, 2, 3)
    abb = ((0.2, 1 / 3), (0.7, 2 / 3))
    aab = ((0.2, 2 / 3), (0.7, 1 / 3))
    assert [a.atoms for a, _ in h.root_measure.atoms] == [abb, aab]
    assert [w for _, w in h.root_measure.atoms] == [1 / 3 + 1 / 3, 1 / 3]
    assert h.atoms[1].tolist() == [[0, 1]] and h.ids[1].tolist() == [0, 1, 0]


def test_extraction_builds_no_measure_objects(monkeypatch):
    built = []
    init = EmpiricalMeasure.__post_init__
    monkeypatch.setattr(EmpiricalMeasure, "__post_init__", lambda mu: built.append(init(mu)))
    x = np.round(sample_array(make_model("product", 3), 3, 4, seed=5), 1)
    h = extract_hierarchy(x, 3, 4)
    resynthesize(h, 3, 5, seed=1)
    obj = hierarchy_to_json_obj(h)
    assert built == []
    assert len(h.measures) == 21
    # one object per table row, shared by the vertices on it
    assert len(built) == sum(len(a) for a in h.atoms) == len({id(mu) for mu in h.measures})
    vertices = internal_vertices(3, 4)
    want = {v.encode(): measure_to_json_obj(mu) for v, mu in zip(vertices, h.measures)}
    assert json.dumps(obj["measures"], sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("bad", [1.5, -0.2, np.nan, np.inf])
def test_extract_rejects_values_outside_the_unit_interval(bad):
    x = np.full(16, 0.5)
    x[9] = bad
    with pytest.raises(ValueError, match=rf"level-0 location {bad} outside \[0,1\]"):
        extract_hierarchy(x, 2, 4)


def test_extract_and_resynthesize_check_their_sizes():
    with pytest.raises(ValueError, match="r and m must be >= 1"):
        extract_hierarchy(np.zeros(1), 0, 4)
    with pytest.raises(ValueError, match="r and m must be >= 1"):
        extract_hierarchy(np.zeros(1), 2, 0)
    # a bool or a float is no size, even where it would count the leaves
    for r, m in ((2, True), (True, 4), (2.0, 4), (2, 4.0), ("2", 4)):
        with pytest.raises(ValueError, match=f"integers, got r={r!r}, m={m!r}"):
            extract_hierarchy(np.zeros(16), r, m)
    assert extract_hierarchy(np.zeros(16), np.int64(2), np.int32(4)).m == 4
    h = extract_hierarchy(np.full(4, 0.5), 2, 2)
    for m2 in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match=f"m2 must be an integer >= 1, got {m2}"):
            resynthesize(h, 2, m2, seed=0)
    assert resynthesize(h, 2, np.int64(3), seed=0).shape == (9,)


# row widths on each side of _BROADCAST_WIDTH: the broadcast and per-row methods
_SEARCH_WIDTHS = (7, 40)


def test_row_search_matches_searchsorted():
    assert _SEARCH_WIDTHS[0] <= _BROADCAST_WIDTH < _SEARCH_WIDTHS[1]
    rng = np.random.default_rng(3)
    for w in _SEARCH_WIDTHS:
        a = np.sort(np.round(rng.random((40, w)), 1), axis=1)  # tied entries
        a[::3, w - 2 :] = np.inf  # padded rows
        a[1, :2] = [-0.0, 0.0]
        v = np.round(rng.random((40, 11)), 1)
        v[0, :5] = [0.0, 1.0, np.inf, -np.inf, np.nan]
        v[1, :4] = [-0.0, 0.0, np.nan, np.inf]
        want = np.array([np.searchsorted(row, q) for row, q in zip(a, v)])
        assert np.array_equal(_search_rows(a, v), want)


@pytest.mark.parametrize("n_rows", [1, _COLUMN_ROWS - 1, _COLUMN_ROWS, 256])
@pytest.mark.parametrize("w", [1, 16, _BROADCAST_WIDTH])
def test_row_search_matches_searchsorted_on_both_sides_of_the_column_passes(n_rows, w):
    # fewer than _COLUMN_ROWS rows compare each query with a whole row at
    # once, more count by column passes: both are searchsorted per row
    rng = np.random.default_rng([n_rows, w])
    a = np.sort(np.round(rng.random((n_rows, w)), 1), axis=1)  # tied entries
    a[::3, w - 1 :] = np.inf  # padded rows
    v = np.round(rng.random((n_rows, 9)), 1)
    v[:, :4] = [np.nan, np.inf, -np.inf, 0.0]
    want = np.array([np.searchsorted(row, q) for row, q in zip(a, v)])
    assert np.array_equal(_search_rows(a, v), want)


@pytest.mark.parametrize("w", [33, 100, 1000])
def test_wide_row_search_is_searchsorted_per_row(w):
    # strictly ascending rows, as a hierarchy's are, and queries on their atoms
    assert w > _BROADCAST_WIDTH
    rng = np.random.default_rng(w)
    a = np.sort(rng.choice(np.linspace(0.0, 1.0, 2 * w + 1), size=(12, w), replace=True), axis=1)
    a = np.array([np.concatenate([np.unique(row), np.full(w - len(np.unique(row)), np.inf)])
                  for row in a])  # inf-padded where the draw repeated
    a[0] = np.linspace(0.0, 1.0, w)
    on_atoms = a[np.arange(12)[:, None], rng.integers(0, w, (12, 25))]
    v = np.where(rng.random((12, 25)) < 0.5, on_atoms, rng.random((12, 25)))
    v[0, :6] = [-0.0, 0.0, 1.0, np.inf, -np.inf, np.nan]  # -0.0 meets the 0.0 atom
    v[1, :3] = [np.inf, np.nan, -np.inf]
    assert np.isinf(a[1:]).any()
    want = np.array([np.searchsorted(row, q) for row, q in zip(a, v)])
    assert np.array_equal(_search_rows(a, v), want)


@pytest.mark.parametrize("rows_per_block", [1, 3, 39, 40])
def test_row_search_in_blocks_has_the_bits_of_one_pass(monkeypatch, rows_per_block):
    # rows are searched independently, so any blocking of them gives the
    # result of the single pass over all 40 rows; a block of the broadcast
    # method holds (rows, q, w) bools, and wider rows are searched one by one
    rng = np.random.default_rng(5)
    v = np.round(rng.random((40, 11)), 1)
    narrow, wide = _SEARCH_WIDTHS
    for w in (narrow, wide):
        a = np.sort(np.round(rng.random((40, w)), 1), axis=1)
        a[::3, w - 2 :] = np.inf
        whole = _search_rows(a, v)
        monkeypatch.setattr(hexch.definetti, "_BLOCK_BYTES", rows_per_block * narrow * 11)
        assert np.array_equal(_search_rows(a, v), whole)
        monkeypatch.undo()
    # resynthesis searches rows too, under a small bound: at m=9 by
    # broadcast, at m=40 row by row
    for m in (9, 40):
        h = extract_hierarchy(make_source("product", 2, m).sample(2), 2, m)
        monkeypatch.setattr(hexch.definetti, "_BLOCK_BYTES", rows_per_block * 7 * 11)
        y = resynthesize(h, 2, 11, seed=6)
        monkeypatch.undo()
        assert resynthesize(h, 2, 11, seed=6).tobytes() == y.tobytes()


def test_lex_order_is_lexsort_order():
    rng = np.random.default_rng(9)
    distinct = rng.random((3, 50))
    ties = np.round(distinct, 1)
    signed = ties.copy()
    signed[0, :2] = [-0.0, 0.0]
    nan = distinct.copy()
    nan[0, 7] = np.nan
    for keys in (distinct, ties, signed, nan, distinct[:, :1]):
        assert np.array_equal(_lex_order(keys), np.lexsort(keys[::-1]))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("model, decimals", [("product", 1), ("root-constant", None)])
def test_level_tables_whose_first_atoms_tie_take_the_lexsort_order(monkeypatch, r, model, decimals):
    m = 4
    x = sample_array(make_model(model, r), r, m, seed=30 + r)
    if decimals is not None:
        x = np.round(x, decimals)
    h = extract_hierarchy(x, r, m)
    if r > 1:  # level-0 rows tie on their first atom, so the full lexsort runs
        first = x.reshape(-1, m).min(axis=1)
        assert len(np.unique(first)) < len(first)
    monkeypatch.setattr(hexch.definetti, "_lex_order", lambda keys: np.lexsort(keys[::-1]))
    want = extract_hierarchy(x, r, m)
    for got_arrays, want_arrays in ((h.atoms, want.atoms), (h.weights, want.weights), (h.ids, want.ids)):
        assert [a.tobytes() for a in got_arrays] == [a.tobytes() for a in want_arrays]


def _cdfs(mu, x):
    """``(F(x-), F(x))`` of a level-0 measure: its cumulative weights after
    0, 1, ..., n atoms (the last exactly 1), read at the count of its
    locations below x and at the count not above x."""
    cum = np.concatenate([[0.0], np.cumsum(mu.weights)])
    cum[-1] = 1.0
    return tuple(cum[np.searchsorted(mu.locations, x, side=s)] for s in ("left", "right"))


def test_parent_cdfs_match_the_measures():
    x = np.round(sample_array(make_model("path-mean", 3), 3, 4, seed=8), 1)
    h = extract_hierarchy(x, 3, 4)
    blocks = np.round(np.random.default_rng(2).random((16, 6)), 1)
    blocks[0, :4] = [0.0, 1.0, np.inf, np.nan]
    lo, hi = h.parent_cdfs(blocks)
    want = [_cdfs(mu, b) for mu, b in zip(h.measures[-16:], blocks)]
    assert np.array_equal(lo, [left for left, _ in want])
    assert np.array_equal(hi, [right for _, right in want])
    # atoms 0.1 (weight 1/2), 0.3 and 0.9 (1/4 each)
    h = extract_hierarchy([0.3, 0.1, 0.1, 0.9], 1, 4)
    lo, hi = h.parent_cdfs(np.array([[0.0, 0.1, 0.3, 0.5, 0.9, 1.0]]))
    assert lo.tolist() == [[0.0, 0.0, 0.5, 0.75, 0.75, 1.0]]
    assert hi.tolist() == [[0.0, 0.5, 0.75, 0.75, 1.0, 1.0]]


@pytest.mark.parametrize("m", [9, 40])
def test_parent_cdfs_in_blocks_and_subsets_have_the_bits_of_the_whole_call(monkeypatch, m):
    # rows 9 wide take the broadcast search, rows 40 wide one search each
    x = make_source("product", 2, m).sample(2)
    h = extract_hierarchy(x, 2, m)
    rng = np.random.default_rng(m)
    # half the values are atoms of their row's measure
    blocks = np.where(rng.random((m, 11)) < 0.5, rng.random((m, 11)),
                      x.reshape(m, m)[:, np.arange(11) % m])
    blocks[0, :4] = [-0.0, 1.0, np.inf, np.nan]
    whole = h.parent_cdfs(blocks)
    want = [_cdfs(mu, b) for mu, b in zip(h.measures[1:], blocks)]
    assert np.array_equal(whole[0], [left for left, _ in want])
    assert np.array_equal(whole[1], [right for _, right in want])
    w = h.atoms[0].shape[1]
    for rows_per_block in (1, 3, m - 1):
        # the bytes of rows_per_block rows in a block of _cdf_blocks
        monkeypatch.setattr(hexch.definetti, "_BLOCK_BYTES", rows_per_block * 8 * (6 * 11 + 2 * w))
        steps = [len(left) for _, left, _ in h._cdf_blocks(blocks, slice(None))]
        assert steps[0] == rows_per_block and sum(steps) == m
        for got, want in zip(h.parent_cdfs(blocks), whole):
            assert got.tobytes() == want.tobytes()
        picked = np.array([m - 1, 0, 5, 5])
        for got, want in zip(h.parent_cdfs(blocks[picked], picked), whole):
            assert got.tobytes() == want[picked].tobytes()
        for got, want in zip(h.parent_cdfs(blocks[:4], slice(0, 4)), whole):
            assert got.tobytes() == want[:4].tobytes()
        monkeypatch.undo()
    with pytest.raises(ValueError, match="4 rows of values for 3 parents"):
        h.parent_cdfs(blocks[:4], slice(0, 3))


# -- distances ------------------------------------------------------------------


def test_wasserstein1_identical_measures():
    mu = empirical_measure([0.1, 0.5, 0.5, 0.9])
    assert wasserstein1(mu, mu) == 0.0


def test_wasserstein1_point_masses():
    assert wasserstein1(empirical_measure([0.2]), empirical_measure([0.9])) == pytest.approx(0.7)


def test_wasserstein1_half_split():
    mu = empirical_measure([0.0])
    nu = EmpiricalMeasure(((0.0, 0.5), (1.0, 0.5)), 0)
    assert wasserstein1(mu, nu) == pytest.approx(0.5)


def test_wasserstein1_never_sees_atoms_out_of_order():
    # W1 reads the locations as sorted: these atoms, accepted out of order,
    # gave 0.1 where the same atoms in order give 0.3 * 0.9 + 0.7 * 0.1
    with pytest.raises(ValueError, match="strictly ascend, got 0.1 after 0.9"):
        wasserstein1(EmpiricalMeasure(((0.9, 0.3), (0.1, 0.7)), 0), empirical_measure([0.0]))
    in_order = EmpiricalMeasure(((0.1, 0.7), (0.9, 0.3)), 0)
    assert wasserstein1(in_order, empirical_measure([0.0])) == pytest.approx(0.34)


def test_wasserstein1_matches_sorted_sample_oracle():
    # for equal-size samples W1 equals the mean absolute difference of the
    # sorted values
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.random(16), rng.random(16)
        mu, nu = empirical_measure(a), empirical_measure(b)
        oracle = np.abs(np.sort(a) - np.sort(b)).mean()
        assert wasserstein1(mu, nu) == pytest.approx(oracle, abs=1e-12)


def test_wasserstein1_level_check():
    with pytest.raises(ValueError):
        wasserstein1(empirical_measure([0.1]), measure_over([empirical_measure([0.1])]))


def test_nested_distance_equal_measures_any_level():
    x = np.round(sample_array(make_model("product", 3), 3, 3, seed=1), 1)
    h = extract_hierarchy(x, 3, 3)
    assert {mu.level for mu in h.measures} == {0, 1, 2}
    for mu in (h, *h.measures):
        assert nested_distance(mu, mu) == 0.0


def test_nested_distance_refuses_hand_built_measures():
    # only a hierarchy or one of its measures carries the level tables the
    # distance is solved on; a measure built by hand is refused, even when
    # it equals the other side
    h = extract_hierarchy([0.1, 0.2, 0.2, 0.6], 2, 2)
    for mu in h.measures:
        plain = _plain(mu)
        assert plain == mu
        for a, b in ((plain, plain), (plain, mu), (mu, plain), (h, plain)):
            with pytest.raises(ValueError, match=r"DirectingHierarchy or a measure from its "
                               r"\.measures, not a hand-built EmpiricalMeasure; for two "
                               r"level-0 measures use wasserstein1$"):
                nested_distance(a, b)
    with pytest.raises(ValueError, match="not a hand-built list"):
        nested_distance(h, [0.1])


def _by_hand(level_0, weights_0, root_weights):
    """A hand-built r=2 m=2 hierarchy: depth-1 vertex i carries row i of the
    two-row level-0 table (padded with atom -1 of weight 0), and the root
    weighs the two rows ``root_weights``."""
    return DirectingHierarchy(2, 2, (level_0, [[0, 1]]), (weights_0, [root_weights]), ([0], [0, 1]))


def test_nested_distance_level1_point_masses():
    a = extract_hierarchy([0.1], 2, 1)
    b = extract_hierarchy([0.6], 2, 1)
    assert nested_distance(a, b) == pytest.approx(0.5)


def test_nested_distance_matches_coupling_enumeration():
    # level-1 measures with two atoms each: enumerate all feasible 2x2
    # transport plans (one free parameter) and take the best.  Weights 0.3
    # and 0.7 are no multiples of 1/m: the denominator 10 takes the search
    mu = _by_hand([[0.0, 0.2], [0.5, -1.0]], [[0.5, 0.5], [1.0, 0.0]], [0.3, 0.7])
    nu = _by_hand([[0.1, -1.0], [0.6, 1.0]], [[1.0, 0.0], [0.5, 0.5]], [0.6, 0.4])
    (a1, a2), (b1, b2) = mu.measures[1:], nu.measures[1:]
    c = np.array(
        [[wasserstein1(a, b) for b in (b1, b2)] for a in (a1, a2)]
    )
    lo, hi = max(0.0, 0.3 - 0.4), min(0.3, 0.6)
    best = np.inf
    for t in np.linspace(lo, hi, 20001):
        plan = np.array([[t, 0.3 - t], [0.6 - t, 0.4 - (0.3 - t)]])
        best = min(best, float((plan * c).sum()))
    assert nested_distance(mu, nu) == pytest.approx(best, abs=1e-9)


def test_nested_distance_symmetry_and_triangle():
    rng = np.random.default_rng(12)
    a, b, c = (extract_hierarchy(rng.random(16), 2, 4) for _ in range(3))
    assert nested_distance(a, b) == pytest.approx(nested_distance(b, a), abs=1e-12)
    assert nested_distance(a, c) <= nested_distance(a, b) + nested_distance(b, c) + 1e-12


def _dense_lp_nested_distance(mu, nu):
    """Reference nested distance: recursion over the atoms, one transport LP
    with a dense constraint matrix per pair of nested measures."""
    if mu.level == 0:
        return wasserstein1(mu, nu)
    cost = np.array(
        [[_dense_lp_nested_distance(a, b) for b, _ in nu.atoms] for a, _ in mu.atoms]
    )
    na, nb = cost.shape
    a_eq = np.vstack([np.kron(np.eye(na), np.ones(nb)), np.kron(np.ones(na), np.eye(nb))])
    res = linprog(
        cost.reshape(-1), A_eq=a_eq[:-1], b_eq=np.concatenate([mu.weights, nu.weights[:-1]]),
        method="highs",
    )
    assert res.success
    return res.fun


def _extracted_roots(r, m, m2, i):
    x = sample_array(make_model("product", r), r, m, seed=derive_seed(11, "x", i))
    ha = extract_hierarchy(x, r, m)
    y = resynthesize(ha, r, m2, seed=derive_seed(11, "y", i))
    return ha.root_measure, extract_hierarchy(y, r, m2).root_measure


@pytest.mark.parametrize("r, m, m2", [(2, 5, 5), (3, 4, 4), (2, 4, 6), (3, 4, 6)])
def test_nested_distance_assignments_match_dense_lp(monkeypatch, r, m, m2):
    # extracted weights are multiples of 1/m, so every level is solved as
    # assignments; with sides 4 and 6 the common denominator is lcm = 12
    pairs = [_extracted_roots(r, m, m2, i) for i in range(3)]
    expected = [_dense_lp_nested_distance(mu, nu) for mu, nu in pairs]
    root_n = _common_counts(pairs[0][0].weights[None], pairs[0][1].weights[None])[0]
    assert root_n == math.lcm(m, m2)
    got = [nested_distance(mu, nu) for mu, nu in pairs]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
    # a level-0 table broadcast over many small row blocks, and assignment
    # costs gathered one row pair at a time (8 n^2 > 64 bytes), give the
    # same bits
    monkeypatch.setattr(hexch.definetti, "_BLOCK_BYTES", 64)
    assert [nested_distance(mu, nu) for mu, nu in pairs] == got


class _Gathers(np.ndarray):
    """A cost table that records the shape of each fancy-indexed gather."""

    def __getitem__(self, index):
        self.shapes.append(np.broadcast_shapes(*map(np.shape, index)))
        return np.asarray(self)[index]


@pytest.mark.parametrize("pairs_per_block, shapes", [
    (None, [(5, 7, 4, 4)]),  # the default bound: one gather for the level
    (1, [(1, 1, 4, 4)] * 35),
    (3, [(1, 3, 4, 4), (1, 3, 4, 4), (1, 1, 4, 4)] * 5),
    (20, [(2, 7, 4, 4)] * 2 + [(1, 7, 4, 4)]),
])
def test_assignment_table_gathers_blocks_of_row_pairs(monkeypatch, pairs_per_block, shapes):
    # each block of row pairs is one gather of at most _BLOCK_BYTES of n x n
    # costs; every blocking gives the bits of one assignment per pair
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, 6, (5, 4)), rng.integers(0, 9, (7, 4))
    cost = rng.random((6, 9))
    want = np.empty((5, 7))
    for i, j in itertools.product(range(5), range(7)):
        c = cost[a[i]][:, b[j]]
        want[i, j] = c[linear_sum_assignment(c)].sum()
    if pairs_per_block is not None:
        monkeypatch.setattr(hexch.definetti, "_BLOCK_BYTES", pairs_per_block * 8 * 4 * 4)
    gathers = cost.view(_Gathers)
    gathers.shapes = []
    got = _assignment_table(a, b, gathers)
    assert gathers.shapes == shapes
    assert got.tolist() == (want / 4).tolist()


@pytest.mark.parametrize("rows_per_block", [None, 1, 3])
def test_w1_table_has_the_bits_of_the_mean_gap(monkeypatch, rows_per_block):
    # the gaps are summed in a reused buffer and divided by n once: the bits
    # of numpy's mean, for any blocking of the rows of a
    rng = np.random.default_rng(4)
    a, b = np.sort(rng.random((7, 7)), axis=1), np.sort(rng.random((5, 7)), axis=1)
    if rows_per_block is not None:
        monkeypatch.setattr(hexch.definetti, "_BLOCK_BYTES", rows_per_block * 8 * b.size)
    want = np.abs(a[:, None, :] - b[None]).mean(axis=2)
    assert _w1_table(a, b).tolist() == want.tolist()


def _no_solve(*args, **kwargs):
    raise AssertionError("a refused distance solved a level")


def _irrational_pair():
    """Level-1 measures whose weights, at both levels, have no common
    denominator."""
    s = 1 / math.sqrt(2)
    mu = _by_hand([[0.0, 0.3], [0.5, -1.0]], [[s, 1 - s], [1.0, 0.0]], [s, 1 - s])
    nu = _by_hand([[0.1, -1.0], [0.6, 1.0]], [[1.0, 0.0], [1 - s, s]], [1 - s, s])
    return mu, nu


def _sides_32_and_33():
    """The roots of r=2 hierarchies extracted at m=32 and m=33, whose
    reduced common denominator is lcm(32, 33) = 1056 > 1024."""
    model = make_model("product", 2)
    return tuple(
        extract_hierarchy(sample_array(model, 2, m, seed=derive_seed(17, "x", m)), 2, m)
        for m in (32, 33)
    )


@pytest.mark.parametrize("make_pair", [_irrational_pair, _sides_32_and_33],
                         ids=["irrational", "extracted-32-33"])
def test_nested_distance_off_the_grid_above_level_0_raises(monkeypatch, make_pair):
    # a level k >= 1 is solved only as n x n assignments with n <= 1024; the
    # error names level 1 before any level is solved
    mu, nu = make_pair()
    for name in ("_wasserstein1", "_w1_table", "_assignment_table"):
        monkeypatch.setattr(hexch.definetti, name, _no_solve)
    with pytest.raises(ValueError, match="^level 1: .* n <= 1024"):
        nested_distance(mu, nu)


def _plain(mu):
    """``mu`` rebuilt object by object, so that no level table row is kept."""
    atoms = mu.atoms if mu.level == 0 else tuple((_plain(a), w) for a, w in mu.atoms)
    return EmpiricalMeasure(atoms, mu.level)


def _no_common_denominator(*args, **kwargs):
    raise AssertionError("a fallback distance took the common-denominator path")


def _thirds(m):
    """A hand-built hierarchy at r=2 whose weights 1/3 and 2/3 are no
    multiples of 1/m for m=4."""
    third = [1 / 3, 2 / 3]
    return DirectingHierarchy(
        2, m, (np.array([[0.1, 0.5], [0.2, -1.0]]), np.array([[0, 1]])),
        (np.array([third, [1.0, 0.0]]), np.array([third])),
        (np.zeros(1, dtype=int), np.arange(m) % 2),
    )


def _hierarchies(r, m, m2, ties):
    """Two hierarchies at ``{1..m}^r`` and ``{1..m2}^r``.  ``ties`` is None
    (the second is the re-extraction of a resynthesis of the first), a
    number of decimals to round the sample to first (tied values merge
    atoms at every level), or one of: "constant" (two constant arrays, so
    every weight is 1), "pairs" (values repeated in pairs, so every
    level-0 count is even), "blocks" (constant sibling rows, each of 10
    values on a tenth of the rows) and "thirds" (a hand-built first)."""
    if ties == "constant":
        return extract_hierarchy(np.full(m**r, 0.37), r, m), extract_hierarchy(
            np.full(m2**r, 0.5), r, m2)
    rng = np.random.default_rng(r * m * m2)
    if ties == "pairs":
        return tuple(extract_hierarchy(np.repeat(rng.random(k**r // 2), 2), r, k)
                     for k in (m, m2))
    if ties == "blocks":
        return tuple(extract_hierarchy(np.repeat(rng.permutation(
            np.repeat(rng.random(10), k // 10)), k), r, k) for k in (m, m2))
    x = sample_array(make_model("product", r), r, m, seed=derive_seed(13, "x", r * m))
    if ties == "thirds":
        return _thirds(m), extract_hierarchy(x, r, m)
    if ties is not None:
        x = np.round(x, ties)
    ha = extract_hierarchy(x, r, m)
    return ha, extract_hierarchy(resynthesize(ha, r, m2, seed=derive_seed(13, "y", m2)), r, m2)


def _level_0_off_the_grid(monkeypatch):
    """Make :func:`nested_distance` find no common denominator for the
    level-0 tables, which it reads first from ``_measure_tables``, and the
    usual one at every level above."""
    real_tables, real_counts = hexch.definetti._measure_tables, hexch.definetti._level_counts
    level_0 = []

    def tables(mu):
        out = real_tables(mu)
        level_0.append(out[0][0][1])
        return out

    def counts(wa, wb, ma, mb):
        return None if any(wa is w for w in level_0) else real_counts(wa, wb, ma, mb)

    monkeypatch.setattr(hexch.definetti, "_measure_tables", tables)
    monkeypatch.setattr(hexch.definetti, "_level_counts", counts)


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("r, m, m2, ties", [
    (1, 5, 5, None), (2, 4, 6, None), (3, 4, 6, None), (3, 4, 4, 1), (2, 6, 4, 1),
    # level denominators n = 1, n = m/2 at level 0, n = 10 from m = 1030
    # above 1024, and weights 1/3 at m=4, which take the search
    (2, 4, 6, "constant"), (3, 4, 4, "pairs"), (2, 1030, 1030, "blocks"), (2, 4, 4, "thirds"),
])
def test_nested_distance_from_level_arrays_matches_objects(
    monkeypatch, fallback, r, m, m2, ties
):
    # measures of a hierarchy are solved from its level arrays, to the
    # values of the recursion over their objects; the hierarchies themselves
    # give their roots' bits
    ha, hb = _hierarchies(r, m, m2, ties)
    pairs = [(ha.root_measure, hb.root_measure)]
    if r > 1:
        # non-root measures: the first and the last depth-1 vertex
        pairs += [(ha.measures[1], hb.measures[1]), (ha.measures[m], hb.measures[m2])]
    on_the_grid = [nested_distance(mu, nu) for mu, nu in pairs]
    if not fallback:
        # the recursion's dense LPs, for the pairs of level 1 or less
        for (mu, nu), got in zip(pairs, on_the_grid):
            if mu.level <= 1:
                assert got == pytest.approx(_dense_lp_nested_distance(mu, nu), rel=0, abs=1e-9)
    else:
        # no common denominator at level 0 only: level 0 by wasserstein1 per
        # pair of rows, each level above by assignments, to the same values
        _level_0_off_the_grid(monkeypatch)
        monkeypatch.setattr(hexch.definetti, "_w1_table", _no_common_denominator)
    for (mu, nu), want in zip(pairs, on_the_grid):
        assert mu._table_row is not None
        got = nested_distance(mu, nu)
        assert got == pytest.approx(want, rel=0, abs=1e-12)
    assert nested_distance(ha, hb) == nested_distance(*pairs[0]) > 0.0


def _level_tables(ha, hb):
    return zip(_measure_tables(ha)[0], _measure_tables(hb)[0])


@pytest.mark.parametrize("r, m, m2, ties", [
    (2, 4, 6, None), (3, 4, 4, 1), (3, 8, 8, None), (2, 6, 4, 1), (2, 4, 6, "constant"),
    (3, 4, 4, "pairs"), (2, 1030, 1030, "blocks"),
])
def test_extracted_hierarchies_take_their_denominators_from_m(monkeypatch, r, m, m2, ties):
    # lcm(m, m2) reduced by the gcd of the counts is the smallest common
    # denominator the search finds, with the same counts; extracted
    # hierarchies never run the search
    ha, hb = _hierarchies(r, m, m2, ties)
    for (_, wa), (_, wb) in _level_tables(ha, hb):
        n, ca, cb = _level_counts(wa, wb, m, m2)
        want = _common_counts(wa, wb)
        assert n == want[0] and ca.tolist() == want[1].tolist() and cb.tolist() == want[2].tolist()
    got = [nested_distance(ha, hb), nested_distance(ha.root_measure, hb.root_measure)]
    if r > 1:
        got.append(nested_distance(ha.measures[1], hb.measures[m2]))
    monkeypatch.setattr(hexch.definetti, "_common_counts", _no_common_denominator)
    again = [nested_distance(ha, hb), nested_distance(ha.root_measure, hb.root_measure)]
    if r > 1:
        again.append(nested_distance(ha.measures[1], hb.measures[m2]))
    assert again == got


def test_level_counts_off_the_grid_and_past_the_bound(monkeypatch):
    # 1/3 and 2/3 are no multiples of 1/4: the search finds n = 12 with the
    # quarters of the other side, on both levels
    ha, hb = _hierarchies(2, 4, 4, "thirds")
    real = hexch.definetti._common_counts
    searched = []
    monkeypatch.setattr(hexch.definetti, "_common_counts",
                        lambda wa, wb: searched.append(1) or real(wa, wb))
    for (_, wa), (_, wb) in _level_tables(ha, hb):
        n, ca, cb = _level_counts(wa, wb, 4, 4)
        assert n == 12 and (ca * 4 == np.rint(wa * 48)).all() and (cb * 4 == wb * 48).all()
    assert len(searched) == 2
    # a reduced denominator past _MAX_DENOMINATOR: no counts, with or
    # without the search
    wa, wb = np.array([[1 / 1030, 1029 / 1030]]), np.array([[1.0, 0.0]])
    assert _level_counts(wa, wb, 1030, 1030) is None and real(wa, wb) is None
    # a positive weight within 1e-9 of count 0 has no count either
    wa = np.array([[1e-10, 1 - 1e-10]])
    assert _level_counts(wa, wb, 4, 4) is None and real(wa, wb) is None


# Recorded with float.hex before the denominators were read off m: the 24
# pairs of the bench's `distance` workload at seed 0 (the root of an r=3 m=8
# `product` sample against that of the re-extraction of its resynthesis)
# and the nested errors of acceptance criterion 5 at m = 8, 32 and 128.
_DISTANCE_PINS = [
    "0x1.70c991124e470p-7", "0x1.4b8ed4b4009f2p-5", "0x1.76a5d2e5f4db4p-5",
    "0x1.0f786751f7960p-5", "0x1.519969e1ebfafp-5", "0x1.7f93f47652b69p-6",
    "0x1.4884f807eb592p-7", "0x1.afbfbb3f5fb00p-11", "0x1.801ff97461dfbp-8",
    "0x1.b18008a9ac79ap-5", "0x1.5a622da581839p-6", "0x1.155bf8170463ep-5",
    "0x1.823c4479b15e1p-9", "0x1.d55d0a282f3cap-9", "0x1.ab00a2f641547p-6",
    "0x1.63ab5908ca4e6p-6", "0x1.24a4565233389p-5", "0x1.2c7fb047a5da9p-8",
    "0x1.2d4d63680b953p-6", "0x1.0dd8d2845aceep-7", "0x1.3bcb0335d93f6p-6",
    "0x1.9354b35a1913cp-8", "0x1.c54bbf2c8e3eep-5", "0x1.edcffa7fed1cfp-6",
]
_CRITERION_5_PINS = {8: "0x1.6d1975ee156d5p-5", 32: "0x1.b928a4e6b3ed0p-6",
                     128: "0x1.ac99680773092p-7"}


def _pinned_pairs():
    src = make_source("product", 3, 8)
    for i in range(24):
        ha = extract_hierarchy(src.sample(derive_seed(0, "distance-sample", i)), 3, 8)
        y = resynthesize(ha, 3, 8, derive_seed(0, "distance-resyn", i))
        yield (3, 8), ha, extract_hierarchy(y, 3, 8)
    seed = derive_seed(acceptance._SEED, "extract")
    for m in _CRITERION_5_PINS:
        ha = extract_hierarchy(sample_array(make_model("product", 2), 2, m, seed), 2, m)
        y = resynthesize(ha, 2, m, derive_seed(seed, "resyn", m))
        yield (2, m), ha, extract_hierarchy(y, 2, m)


def test_nested_distances_keep_their_pinned_bits():
    got = []
    for (r, m), ha, hb in _pinned_pairs():
        d = nested_distance(ha, hb)
        # the hierarchies are read from their level arrays, with no objects
        assert "measures" not in ha.__dict__ and "measures" not in hb.__dict__
        assert nested_distance(ha.root_measure, hb.root_measure) == d
        got.append(d.hex())
    assert got == _DISTANCE_PINS + list(_CRITERION_5_PINS.values())


def test_hierarchy_measures_are_plain_measures():
    # the recorded table row is not a field: equality, hashing, repr, sort
    # keys and the field list are those of the same measure built by hand
    ha, _ = _hierarchies(3, 4, 4, 1)
    for mu in ha.measures:
        plain = _plain(mu)
        assert mu == plain and hash(mu) == hash(plain) and repr(mu) == repr(plain)
        assert mu.sort_key() == plain.sort_key()
        assert dataclasses.fields(mu) == dataclasses.fields(plain)
    assert [f.name for f in dataclasses.fields(EmpiricalMeasure)] == ["atoms", "level"]
    # the measures point at the level arrays, not at the hierarchy, so a
    # dropped hierarchy leaves no cycle for the collector
    gc.collect()
    gc.disable()
    try:
        del ha
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_level_array_tables_keep_the_reachable_rows():
    # read from the level arrays, a measure's tables hold the rows of the
    # (shared) sub-measure objects reachable from it, no more
    ha, _ = _hierarchies(3, 4, 4, 1)
    assert len(ha.atoms[0]) > len(_measure_tables(ha.measures[1])[0][0][0])
    for mu in ha.measures[1:]:
        tables, m = _measure_tables(mu)
        assert m == 4 and len(tables) == mu.level + 1
        reachable = [mu]
        for k in range(mu.level, -1, -1):
            assert len(tables[k][0]) == len(reachable)
            if k:
                reachable = list({id(a): a for x in reachable for a, _ in x.atoms}.values())
        a, w = tables[0]
        rows = sorted(tuple(zip(x[v > 0].tolist(), v[v > 0].tolist())) for x, v in zip(a, w))
        assert rows == sorted(x.atoms for x in reachable)


def test_nested_distance_level_mismatch():
    with pytest.raises(ValueError, match="cannot compare measures of levels 0 and 1"):
        nested_distance(extract_hierarchy([0.1], 1, 1), extract_hierarchy([0.1], 2, 1))


# -- serialization ----------------------------------------------------------------


def test_measure_json_shape():
    h = extract_hierarchy([0.1, 0.9, 0.5, 0.5], 2, 2)
    obj = hierarchy_to_json_obj(h)["measures"]["0"]
    assert obj["level"] == 1
    assert obj["atoms"][0][0]["level"] == 0
    assert obj == measure_to_json_obj(h.root_measure)


def test_hierarchy_json_keys():
    x = sample_array(make_model("product", 2), 2, 3, seed=2)
    h = extract_hierarchy(x, 2, 3)
    obj = hierarchy_to_json_obj(h)
    assert obj["r"] == 2 and obj["m"] == 3
    assert set(obj["measures"]) == {"0", "1/1", "1/2", "1/3"}
