"""Tests for empirical measures, extraction and resynthesis."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

import hexch.definetti
from hexch import acceptance
from hexch.acceptance import w1_to_uniform
from hexch.definetti import (
    DirectingHierarchy,
    EmpiricalMeasure,
    _assignment_table,
    _expand,
    _level_counts,
    _lex_order,
    _measure,
    _measure_tables,
    _same_tables,
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

from reference import (
    _common_counts,
    check_hierarchy,
    measure_over,
    measure_to_json_obj,
    plain_measure,
    reference_empirical_measure,
    reference_measures,
    reference_weights,
    sort_key,
)


# -- empirical measures --------------------------------------------------------


def test_empirical_measure_multiplicities():
    mu = empirical_measure([0.2, 0.2, 0.8])
    assert mu.atoms == ((0.2, 2 / 3), (0.8, 1 / 3))
    assert mu.level == 0


@pytest.mark.parametrize("n, decimals", [(1, None), (7, 1), (97, None), (1000, 2), (1001, None)])
def test_empirical_measure_matches_np_unique(n, decimals):
    # the r=1 extraction gives the atoms and weights of np.unique's counts
    # over n, bit for bit, -0.0 read as 0.0
    x = np.random.default_rng(n).random(n)
    if decimals is not None:
        x = np.round(x, decimals)
    x[0] = -0.0
    mu, want = empirical_measure(x), reference_empirical_measure(x)
    assert mu == want and mu.level == 0
    assert np.array([a for a, _ in mu.atoms]).tobytes() == want.locations.tobytes()
    assert mu.weights.tobytes() == want.weights.tobytes()


def test_empirical_measure_point_mass():
    mu = empirical_measure([0.4] * 50)
    assert mu.atoms == ((0.4, 1.0),)
    assert mu == empirical_measure([0.4])


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


def test_a_measure_is_made_only_by_its_builders():
    # a measure is a row of a hierarchy's level table, so there is no other
    # input path to check
    mu = empirical_measure([0.2, 0.7])
    for args in ((mu.atoms, mu.level), (((1.5, 1.0),), 0), ()):
        with pytest.raises(TypeError, match="^an EmpiricalMeasure is made by "
                           "DirectingHierarchy.measures or empirical_measure$"):
            EmpiricalMeasure(*args)


def test_weights_sum_tightly():
    mu = empirical_measure(np.linspace(0.0, 1.0, 97))
    assert abs(mu.weights.sum() - 1.0) <= 1e-12


# -- quantile convention --------------------------------------------------------


def _draws(monkeypatch, h, u):
    """What :func:`resynthesize` draws from the r=1 hierarchy ``h`` when its
    field yields the uniforms ``u``."""
    u = np.asarray(u, dtype=np.float64)
    levels = [np.zeros((1, 1)), u[None]]
    monkeypatch.setattr(hexch.definetti, "_level_values", lambda h0, depths, shape: levels)
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


def test_quantile_takes_the_slot_of_u_times_m_at_an_inexact_boundary(monkeypatch):
    # u = 0.8 picks slot ceil(0.8 * 10) - 1 = 7, as 0.8 * 10 rounds to 8.0,
    # although 0.1 summed 8 times is 0.7999999999999999 < 0.8, so that a
    # search of the float running weights would take atom 8
    atoms = (np.arange(10) + 0.5) / 10
    h = extract_hierarchy(atoms[::-1], 1, 10)
    assert np.cumsum(h.root_measure.weights)[7] < 0.8
    assert _draws(monkeypatch, h, [0.8]).tolist() == [atoms[7]]


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


@pytest.mark.parametrize("u, end", [(1.0 - 2.0**-53, "last"), (0.0, "first")])
def test_resynthesis_picks_stay_within_each_row(monkeypatch, u, end):
    # u picks slot ceil(u*m) - 1 of its parent's m child slots: u*m < m for
    # u <= 1 - 2^-53, the most the field yields, so a pick never passes a
    # row's last atom, even in rows of fewer atoms than the table is wide
    # (the tied values give such rows)
    r, m2 = 3, 4
    h = extract_hierarchy(np.round(sample_array(make_model("product", r), r, 3, seed=5), 1), r, 3)
    assert any((c == 0).any() for c in h.mult)
    levels = [np.full((1, m2**d), u) for d in range(r + 1)]
    monkeypatch.setattr(hexch.definetti, "_level_values", lambda h0, depths, shape: levels)
    # each pick is its parent row's first or last atom, root to leaf
    row = int(h.ids[0][0])
    for k in reversed(range(r)):
        row = h.atoms[k][row, np.count_nonzero(h.mult[k][row]) - 1 if end == "last" else 0]
    assert resynthesize(h, r, m2, seed=0).tolist() == [row] * m2**r



def test_resynthesize_holds_two_output_sizes():
    # the leaf uniforms are scaled and rounded in place and dropped before
    # the gather, so the peak is the hashing's two arrays, not a third copy
    h = extract_hierarchy(sample_array(make_model("product", 2), 2, 500, seed=0), 2, 500)
    tracemalloc.start()
    try:
        y = resynthesize(h, 2, 500, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * y.nbytes + 2**17, (peak, y.nbytes)

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
    assert h.measures == (reference_empirical_measure(arr),)
    assert h.root_measure == reference_empirical_measure(arr)
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
            assert mu == reference_empirical_measure([c])
        else:
            assert len(mu.atoms) == 1
            assert mu.atoms[0][0] == reference_empirical_measure([c])


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
    level = [reference_empirical_measure(x[i * m : (i + 1) * m]) for i in range(m ** (r - 1))]
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
    h = extract_hierarchy(x, r, m)
    check_hierarchy(h, x)
    expected = _reference_extract(x, r, m)
    want = [expected[v] for v in internal_vertices(r, m)]
    assert len(want) == len(expected)
    assert [(mu.atoms, mu.level) for mu in h.measures] == [(mu.atoms, mu.level) for mu in want]


@pytest.mark.parametrize("x, r, m", [
    # signed zeros, merged into one atom 0.0 wherever they sit
    ([0.0, -0.0, 0.5, -0.0, 0.5, 0.5, 0.0, 0.0, -0.0], 2, 3),
    ([-0.0], 1, 1),
    (make_source("uniform-leaf", 5, 1).sample(3), 5, 1),  # m=1: one vertex per depth
    (np.round(make_source("product", 1, 12).sample(3), 1), 1, 12),  # r=1: one tied row
    # tied rows [a,b,b], [a,a,b], [b,a,b], in canonical, not lexicographic, order
    ([0.2, 0.7, 0.7, 0.2, 0.2, 0.7, 0.7, 0.2, 0.7], 2, 3),
    # two point masses, the vertex carrying the larger one first
    ([0.7, 0.7, 0.2, 0.2], 2, 2),
], ids=["signed-zeros", "signed-zero-r1-m1", "m1", "r1-ties", "by-hand", "point-masses"])
def test_extraction_passes_the_hierarchy_oracle(x, r, m):
    check_hierarchy(extract_hierarchy(x, r, m), x)


def test_a_row_of_10e5_atoms_sums_exactly():
    # the multiplicities are integers, so a row's sum needs no tolerance:
    # the running sum of 10^5 weights 1e-5 misses 1 by about 2e-12
    x = np.linspace(0.0, 1.0, 100_000)
    h = extract_hierarchy(x, 1, 100_000)
    assert (h.mult[0] == 1).all()
    assert abs(np.cumsum(h.root_measure.weights)[-1] - 1.0) > 1e-12
    check_hierarchy(h, x)


def test_a_hierarchy_is_made_only_by_extraction():
    # the tables of a hierarchy are a function of its array, so there is no
    # other input path to check
    h = extract_hierarchy([0.2, 0.7, 0.7, 0.7], 2, 2)
    for args in ((h.r, h.m, h.atoms, h.mult, h.ids), ()):
        with pytest.raises(TypeError, match="^a DirectingHierarchy is made by extract_hierarchy"):
            DirectingHierarchy(*args)


def test_a_hierarchy_stores_only_its_level_tables():
    # atoms, multiplicities and vertex ids give every level; a weight or an
    # atom count is read from the multiplicities where it is used
    names = [f.name for f in dataclasses.fields(DirectingHierarchy)]
    assert names == ["r", "m", "atoms", "mult", "ids"]


def test_hierarchy_accepts_the_internal_vertex_layout():
    x = sample_array(make_model("product", 3), 3, 3, seed=12)
    h = extract_hierarchy(x, 3, 3)
    check_hierarchy(h, x)  # id rows of 1, 3 and 9 vertices, read-only tuples, the weights
    assert [mu.level for mu in h.measures] == [2] + [1] * 3 + [0] * 9
    assert h.root_measure is h.measures[0]
    # the vertices on one table row share its measure object
    for d, row in enumerate(h.ids):
        first = 3**d - 1 >> 1  # 0, 1, 4: where depth d starts in internal_vertices order
        for i, j in itertools.combinations(range(row.size), 2):
            same = h.measures[first + i] is h.measures[first + j]
            assert same == (row[i] == row[j])


def test_measure_at_follows_the_internal_vertex_order():
    h = extract_hierarchy(sample_array(make_model("path-mean", 3), 3, 3, seed=2), 3, 3)
    for v, mu in zip(internal_vertices(3, 3), h.measures, strict=True):
        assert h.measure_at(v) is mu
    for v in (TreeVertex((4,), 3), TreeVertex((1, 1, 1), 3), TreeVertex((1,), 2), [1], "1"):
        with pytest.raises(ValueError, match=rf"^{re.escape(repr(v))} is not an internal "
                           r"vertex of \{1\.\.3\}\^3$"):
            h.measure_at(v)


# -- resynthesis ----------------------------------------------------------------


def test_resynthesize_constant_hierarchy():
    h = extract_hierarchy(np.full(16, 0.25), 2, 4)
    y = resynthesize(h, 2, 6, seed=5)
    assert y.shape == (36,)
    assert np.all(y == 0.25)


def _cdfs(mu, x):
    """``(F(x-), F(x))`` of a level-0 measure: its cumulative weights after
    0, 1, ..., n atoms (the last exactly 1), read at the count of its
    locations below x and at the count not above x."""
    cum = np.concatenate([[0.0], np.cumsum(mu.weights)])
    cum[-1] = 1.0
    return tuple(cum[np.searchsorted(mu.locations, x, side=s)] for s in ("left", "right"))


def test_resynthesize_r1_draws_iid_from_root_measure():
    import scipy.stats

    values = np.concatenate([np.full(30, 0.2), np.full(70, 0.8)])
    h = extract_hierarchy(values, 1, 100)
    y = resynthesize(h, 1, 4000, seed=8)
    freq = np.mean(y == 0.2)
    assert abs(freq - 0.3) < 0.03
    # PIT against the source measure should look uniform
    rng = np.random.default_rng(0)
    lo, hi = _cdfs(h.root_measure, y)
    pit = lo + rng.random(y.size) * (hi - lo)
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


def test_slot_tables_repeat_each_atom_by_its_multiplicity():
    # a level without ties is its own slot table, so resynthesis copies none
    h = extract_hierarchy(make_source("product", 2, 5).sample(4), 2, 5)
    assert _expand(h.atoms[0], h.mult[0], 5) is h.atoms[0]
    tied = extract_hierarchy([0.2, 0.7, 0.7, 0.2, 0.2, 0.7, 0.7, 0.2, 0.7], 2, 3)
    for a, c in zip(tied.atoms, tied.mult):
        want = [np.repeat(row, count) for row, count in zip(a, c)]
        assert np.array_equal(_expand(a, c, 3), want)


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


# m = 3, 5, 6 and 7, whose weights' running float sums are inexact, and
# m = 4, whose are exact; m2=70,000 at r=1 hashes one level of 70,000
# uniforms and picks among 4 slots each
@pytest.mark.parametrize(
    "m, m2, r",
    [(m, m2, r) for m in (3, 4, 5, 6, 7) for m2 in (2, 4, 7) for r in (1, 2, 3)]
    + [(4, 70_000, 1)],
)
def test_resynthesize_matches_per_child_loop(m, r, m2):
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


# sha256 of a hierarchy's level arrays (atoms, ids, mult, in that order,
# level by level), recorded from hexch 0.10.0, and of its
# resynthesis at m2=16, seed 7, recorded before the level tables were
# filled by flat scatter: product at r=3 m=16, seed 41, every third sibling
# row rounded to 1 decimal and every fifth from the second to 2, so that
# 256 level-0 rows mix tied atoms, tied first atoms and equal rows with
# rows as drawn
MIXED_TIES_DIGESTS = (
    "bd4e5843f9157cd88fcda9e22eff8cadf62f2813f1f08954837c25a4fd157105",
    "414634f6e7680f0ae8307a4cd02f0e2395a01d1a03dd034e9929a56effed8d98",
)


def test_level_tables_of_mixed_tied_and_untied_rows_keep_their_pinned_bits():
    x = make_source("product", 3, 16).sample(41).reshape(256, 16)
    x[::3] = np.round(x[::3], 1)
    x[1::5] = np.round(x[1::5], 2)
    h = extract_hierarchy(x.reshape(-1), 3, 16)
    assert len(h.atoms[0]) < 256 and (h.mult[0] <= 1).any()
    digest = hashlib.sha256()
    for arrays in (h.atoms, h.ids, h.mult):
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

    def measure(*args):
        built.append(_measure(*args))
        return built[-1]

    monkeypatch.setattr(hexch.definetti, "_measure", measure)
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
    match = rf"level-0 location {bad} outside \[0,1\]"
    if not np.isfinite(bad):
        # a NaN or an infinity is named by its leaf, as the one-array tests name it
        match = "^leaf 9 of the array is " + ("NaN" if np.isnan(bad) else r"\+inf") + "$"
    with pytest.raises(ValueError, match=match):
        extract_hierarchy(x, 2, 4)
    # empirical_measure is an r=1 extraction, and refuses them the same way
    with pytest.raises(ValueError, match=match):
        empirical_measure(x)


def test_extract_and_resynthesize_check_their_sizes():
    with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
        extract_hierarchy(np.zeros(1), 0, 4)
    with pytest.raises(ValueError, match="^m must be >= 1, got 0$"):
        extract_hierarchy(np.zeros(1), 2, 0)
    # a bool or a float is no size, even where it would count the leaves
    for r, m, bad in ((2, True, "m"), (True, 4, "r"), (2.0, 4, "r"), (2, 4.0, "m"), ("2", 4, "r")):
        value = {"r": r, "m": m}[bad]
        with pytest.raises(ValueError, match=f"^{bad} must be an integer, got {value!r}$"):
            extract_hierarchy(np.zeros(16), r, m)
    assert extract_hierarchy(np.zeros(16), np.int64(2), np.int32(4)).m == 4
    h = extract_hierarchy(np.full(4, 0.5), 2, 2)
    for m2, message in ((0, ">= 1, got 0"), (-1, ">= 1, got -1"), (2.5, "an integer, got 2.5"),
                        (True, "an integer, got True")):
        with pytest.raises(ValueError, match=f"^m2 must be {message}$"):
            resynthesize(h, 2, m2, seed=0)
    assert resynthesize(h, 2, np.int64(3), seed=0).shape == (9,)
    calls = {"resynthesize": lambda bad: resynthesize(bad, 2, 3, seed=0),
             "hierarchy_json_chunks": lambda bad: b"".join(hierarchy_json_chunks(bad)),
             "hierarchy_to_json_obj": hierarchy_to_json_obj}
    for name, call in calls.items():
        for bad in ("x", h.root_measure, None):
            with pytest.raises(ValueError, match=f"^{name} needs a DirectingHierarchy from "
                               f"extract_hierarchy, not a {type(bad).__name__}$"):
                call(bad)


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
    for got_arrays, want_arrays in ((h.atoms, want.atoms), (h.mult, want.mult), (h.ids, want.ids)):
        assert [a.tobytes() for a in got_arrays] == [a.tobytes() for a in want_arrays]


# -- distances ------------------------------------------------------------------


def test_wasserstein1_identical_measures():
    mu = empirical_measure([0.1, 0.5, 0.5, 0.9])
    assert wasserstein1(mu, mu) == 0.0


def test_wasserstein1_point_masses():
    assert wasserstein1(empirical_measure([0.2]), empirical_measure([0.9])) == pytest.approx(0.7)


def test_wasserstein1_half_split():
    mu = empirical_measure([0.0])
    nu = empirical_measure([0.0, 1.0])
    assert wasserstein1(mu, nu) == pytest.approx(0.5)


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
    mu = empirical_measure([0.1])
    with pytest.raises(ValueError, match="^wasserstein1 needs level-0 measures$"):
        wasserstein1(mu, measure_over([mu]))
    h = extract_hierarchy([0.1], 1, 1)
    for bad in (None, [0.1], h):
        for args in ((mu, bad), (bad, mu)):
            with pytest.raises(ValueError, match="^wasserstein1 compares EmpiricalMeasures, "
                               f"not a {type(bad).__name__}$"):
                wasserstein1(*args)


def test_nested_distance_equal_measures_any_level():
    x = np.round(sample_array(make_model("product", 3), 3, 3, seed=1), 1)
    h = extract_hierarchy(x, 3, 3)
    assert {mu.level for mu in h.measures} == {0, 1, 2}
    for mu in (h, *h.measures):
        assert nested_distance(mu, mu) == 0.0


def test_nested_distance_compares_empirical_measures():
    # every measure is a row of a hierarchy, empirical_measure's included:
    # two level-0 sides give wasserstein1's bits, the sorted-sample oracle
    # at equal sizes, and the W1 of samples of 1000 and 1001 values, whose
    # level 0 has no common denominator n <= 1024
    rng = np.random.default_rng(6)
    for na, nb in ((3, 1), (16, 16), (1000, 1000), (1000, 1001)):
        a, b = rng.random(na), np.round(rng.random(nb), 2)
        mu, nu = empirical_measure(a), empirical_measure(b)
        got = nested_distance(mu, nu)
        assert got == wasserstein1(mu, nu) == nested_distance(nu, mu)
        if na == nb:
            assert got == pytest.approx(np.abs(np.sort(a) - np.sort(b)).mean(), abs=1e-12)
    assert nested_distance(empirical_measure([0.2, 0.2, 0.8]), empirical_measure([0.1])) == (
        wasserstein1(empirical_measure([0.2, 0.2, 0.8]), empirical_measure([0.1])))
    # an r=1 root against an empirical measure, and the hierarchy itself
    x, y = rng.random(12), rng.random(7)
    h = extract_hierarchy(x, 1, 12)
    want = wasserstein1(h.root_measure, empirical_measure(y))
    assert nested_distance(h.root_measure, empirical_measure(y)) == want
    assert nested_distance(h, empirical_measure(y)) == want
    assert nested_distance(h, empirical_measure(x)) == 0.0


def test_nested_distance_refuses_what_is_no_measure():
    h = extract_hierarchy([0.1, 0.2, 0.2, 0.6], 2, 2)
    for bad in ([0.1], None, "x"):
        for args in ((h, bad), (bad, h.root_measure)):
            with pytest.raises(ValueError, match="^nested_distance compares a DirectingHierarchy "
                               f"or an EmpiricalMeasure, not a {type(bad).__name__}$"):
                nested_distance(*args)


def _by_hand(level_0, mult_0, root_mult):
    """The r=2 hierarchy at m = ``sum(root_mult)`` whose first
    ``root_mult[0]`` depth-1 vertices carry row 0 of the two-row level-0
    table and the others row 1 (padded with atom -1 of multiplicity 0):
    extracted from the array of those rows' values, repeated by their
    multiplicities."""
    blocks = [np.repeat(a, c) for a, c in zip(level_0, mult_0)]
    x = np.concatenate([blocks[i] for i, n in enumerate(root_mult) for _ in range(n)])
    h = extract_hierarchy(x, 2, sum(root_mult))
    assert h.atoms[0].tolist() == level_0 and h.mult[0].tolist() == mult_0
    assert h.atoms[1].tolist() == [[0, 1]] and h.mult[1].tolist() == [root_mult]
    return h


def test_nested_distance_level1_point_masses():
    a = extract_hierarchy([0.1], 2, 1)
    b = extract_hierarchy([0.6], 2, 1)
    assert nested_distance(a, b) == pytest.approx(0.5)


def test_nested_distance_matches_coupling_enumeration():
    # level-1 measures with two atoms each: enumerate all feasible 2x2
    # transport plans (one free parameter) and take the best.  Weights 3/10
    # and 7/10 against 6/10 and 4/10 at m=10
    mu = _by_hand([[0.0, 0.2], [0.5, -1.0]], [[5, 5], [10, 0]], [3, 7])
    nu = _by_hand([[0.1, -1.0], [0.6, 1.0]], [[10, 0], [5, 5]], [6, 4])
    (a1, _), (a2, _) = mu.root_measure.atoms
    (b1, _), (b2, _) = nu.root_measure.atoms
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
    # the gap planes are added in numpy's pairwise order and divided by n
    # once: the bits of numpy's mean over each row pair's gaps, for every n
    # on each side of the order's 8 and 128 term steps and for any blocking
    # of the rows of a; rows tie with each other and hold tied samples
    gap_sum, blocks = hexch.definetti._gap_sum, []

    def spy(at, bt, out, scratch):
        if len(at) == len(bt) == n:
            blocks.append(len(out))
        gap_sum(at, bt, out, scratch)

    monkeypatch.setattr(hexch.definetti, "_gap_sum", spy)
    for n in (1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 256, 257, 1000, 1024):
        rng = np.random.default_rng(n)
        a, b = np.sort(rng.random((7, n)), axis=1), np.sort(rng.random((5, n)), axis=1)
        a[1], a[4], b[3] = b[0], a[3], np.round(b[3], 1)
        if rows_per_block is not None:
            monkeypatch.setattr(hexch.definetti, "_BLOCK_BYTES",
                                rows_per_block * 16 * 16 * 8 * len(b))
        want = np.abs(a[:, None, :] - b[None]).mean(axis=2)
        blocks.clear()
        assert _w1_table(a, b).tobytes() == want.tobytes(), n
        assert blocks == {None: [7], 1: [1] * 7, 3: [3, 3, 1]}[rows_per_block], n


@pytest.mark.parametrize("n, block_bytes", [(64, None), (64, 1 << 20), (1000, None), (1000, 1 << 22)])
def test_w1_table_scratch_stays_in_the_block_bound(monkeypatch, n, block_bytes):
    # the gaps of all row pairs would take 8 * 300 * 400 * n bytes; the
    # planes of a block of rows and the transposed b (8 * 400 * n bytes,
    # within each bound here) stay within _BLOCK_BYTES
    rng = np.random.default_rng(6)
    a, b = np.sort(rng.random((300, n)), axis=1), np.sort(rng.random((400, n)), axis=1)
    if block_bytes is not None:
        monkeypatch.setattr(hexch.definetti, "_BLOCK_BYTES", block_bytes)
    tracemalloc.start()
    try:
        _w1_table(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= hexch.definetti._BLOCK_BYTES + 8 * 300 * 400


def _no_solve(*args, **kwargs):
    raise AssertionError("a refused distance solved a level")


def _sides_32_and_33():
    """The roots of r=2 hierarchies extracted at m=32 and m=33, whose
    reduced common denominator is lcm(32, 33) = 1056 > 1024."""
    model = make_model("product", 2)
    return tuple(
        extract_hierarchy(sample_array(model, 2, m, seed=derive_seed(17, "x", m)), 2, m)
        for m in (32, 33)
    )


@pytest.mark.parametrize("make_pair", [_sides_32_and_33], ids=["extracted-32-33"])
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
    return plain_measure(atoms, mu.level)


def _no_common_denominator(*args, **kwargs):
    raise AssertionError("a fallback distance took the common-denominator path")


def _hierarchies(r, m, m2, ties):
    """Two hierarchies at ``{1..m}^r`` and ``{1..m2}^r``.  ``ties`` is None
    (the second is the re-extraction of a resynthesis of the first), a
    number of decimals to round the sample to first (tied values merge
    atoms at every level), or one of: "constant" (two constant arrays, so
    every weight is 1), "pairs" (values repeated in pairs, so every
    level-0 count is even), "blocks" (constant sibling rows, each of 10
    values on a tenth of the rows) and "paired" (at r=2, the first's
    depth-1 vertices come in identical pairs)."""
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
    if ties == "paired":
        rows = x.reshape(m, m)
        rows[1::2] = rows[::2]
        y = sample_array(make_model("product", r), r, m2, seed=derive_seed(13, "x", r * m2))
        return extract_hierarchy(rows, r, m), extract_hierarchy(y, r, m2)
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

    def counts(ca, cb, ma, mb):
        return None if any(ca is c for c in level_0) else real_counts(ca, cb, ma, mb)

    monkeypatch.setattr(hexch.definetti, "_measure_tables", tables)
    monkeypatch.setattr(hexch.definetti, "_level_counts", counts)


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("r, m, m2, ties", [
    (1, 5, 5, None), (2, 4, 6, None), (3, 4, 6, None), (3, 4, 4, 1), (2, 6, 4, 1),
    # level denominators n = 1, n = m/2 at level 0, n = 10 from m = 1030
    # above 1024, and n = 528 at level 1 over n = 1056 at level 0
    (2, 4, 6, "constant"), (3, 4, 4, "pairs"), (2, 1030, 1030, "blocks"), (2, 32, 33, "paired"),
])
def test_nested_distance_from_level_arrays_matches_objects(
    monkeypatch, fallback, r, m, m2, ties
):
    # measures of a hierarchy are solved from its level arrays, to the
    # values of the recursion over their objects; the hierarchies themselves
    # give their roots' bits
    if ties == "blocks":
        # 1030^2 cells pass the default cap; m = 1030 is what reaches n = 10
        monkeypatch.setenv("HEXCH_MAX_CELLS", "2000000")
    ha, hb = _hierarchies(r, m, m2, ties)
    pairs = [(ha.root_measure, hb.root_measure)]
    if r > 1:
        # non-root measures: the first and the last depth-1 vertex
        pairs += [(ha.measures[1], hb.measures[1]), (ha.measures[m], hb.measures[m2])]
    on_the_grid = [nested_distance(mu, nu) for mu, nu in pairs]
    if ties == "paired":
        # extracted input whose level 0 has no n <= 1024, so it takes W1 per
        # pair of rows, unpatched, under assignments at n = 528
        common = [_level_counts(ca, cb, m, m2) for (_, ca), (_, cb) in _level_tables(ha, hb)]
        assert common[0] is None and common[1][0] == 528
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
    (3, 4, 4, "pairs"), (2, 1030, 1030, "blocks"), (2, 32, 33, "paired"),
])
def test_extracted_hierarchies_take_their_denominators_from_m(monkeypatch, r, m, m2, ties):
    # lcm(m, m2) reduced by the gcd of the multiplicities is the smallest
    # common denominator that a search over the float weights finds, with
    # the same counts, and neither finds one past 1024
    if ties == "blocks":
        # 1030^2 cells pass the default cap; m = 1030 is what reaches n = 10
        monkeypatch.setenv("HEXCH_MAX_CELLS", "2000000")
    ha, hb = _hierarchies(r, m, m2, ties)
    for k, (ca, cb) in enumerate(zip(ha.mult, hb.mult)):
        wa, wb = reference_weights(ca, m, k), reference_weights(cb, m2, k)
        got, want = _level_counts(ca, cb, m, m2), _common_counts(wa, wb)
        if want is None:
            assert got is None
            continue
        n, ca, cb = got
        assert n == want[0] and ca.tolist() == want[1].tolist() and cb.tolist() == want[2].tolist()


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
    # keys and the field list are those of the same measure with no row
    ha, _ = _hierarchies(3, 4, 4, 1)
    for mu in ha.measures:
        plain = _plain(mu)
        assert mu == plain and hash(mu) == hash(plain) and repr(mu) == repr(plain)
        assert sort_key(mu) == sort_key(plain)
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


@pytest.mark.parametrize("r, m, m2, ties", [
    (1, 5, 5, None), (2, 4, 6, None), (3, 4, 6, None), (3, 4, 4, 1), (2, 6, 4, 1),
    (2, 4, 6, "constant"), (3, 4, 4, "pairs"), (2, 1030, 1030, "blocks"), (2, 32, 33, "paired"),
])
def test_measures_are_row_views_of_the_eager_measures(monkeypatch, r, m, m2, ties):
    # a view builds its atoms from its table row on first read, to the
    # measure that the eager per-row loop builds object by object; its
    # locations are its row of the level arrays and its weights are read
    # from the row's multiplicities, bit for bit
    if ties == "blocks":
        # 1030^2 cells pass the default cap; m = 1030 is what reaches n = 10
        monkeypatch.setenv("HEXCH_MAX_CELLS", "2000000")
    for h in _hierarchies(r, m, m2, ties):
        views, want = h.measures, reference_measures(h)
        assert not any("atoms" in vars(mu) for mu in views)
        for mu, plain in zip(views, want, strict=True):
            assert mu.weights.tobytes() == plain.weights.tobytes()
            if mu.level == 0:
                assert mu.locations.tobytes() == plain.locations.tobytes()
            assert mu == plain and hash(mu) == hash(plain) and repr(mu) == repr(plain)
            assert sort_key(mu) == sort_key(plain)
        # a nested atom is the shared view of its row one level down
        shared = {id(mu) for mu in views}
        assert all(id(a) in shared for mu in views if mu.level for a, _ in mu.atoms)


def test_a_view_builds_only_the_atoms_that_are_read():
    h = extract_hierarchy(sample_array(make_model("product", 2), 2, 4, seed=6), 2, 4)
    first, *siblings = h.measures[1:]
    # a level-0 view's arrays and W1 read its table row, not its atoms
    assert wasserstein1(first, siblings[0]) > 0.0 and first.locations.size == 4
    assert not any("atoms" in vars(mu) for mu in h.measures)
    assert len(first.atoms) == 4 and "atoms" in vars(first)
    assert not any("atoms" in vars(mu) for mu in [h.root_measure, *siblings])


def test_measures_at_10_6_cells_are_views_of_the_level_arrays():
    # product r=2 m=1000: 1001 views over the 1000 x 1000 level-0 table,
    # where one (atom, weight) tuple per cell took about 130 MiB
    h = extract_hierarchy(sample_array(make_model("product", 2), 2, 1000, seed=0), 2, 1000)
    tracemalloc.start()
    try:
        assert h.root_measure is h.measures[0]
        assert h.measure_at(TreeVertex((1000,), 2)) is h.measures[1000]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert nested_distance(h, h.root_measure) == 0.0


def _doubled(x, r, m):
    """The array over ``{1..2m}^r`` whose entry at c is ``x``'s at ceil(c/2):
    every sibling value and every sibling block twice, so each measure keeps
    its weights as rationals."""
    y = np.asarray(x).reshape((m,) * r)
    for axis in range(r):
        y = np.repeat(y, 2, axis=axis)
    return y.reshape(-1)


def _root(side):
    return side.root_measure if isinstance(side, DirectingHierarchy) else side


@pytest.mark.parametrize("r, m, x", [
    (1, 3, None), (2, 2, None), (2, 3, None), (3, 2, None),
    # depth-1 rows A, A, A, B, B: counts 3 and 2 of 5 weigh 3 x 0.2 =
    # 0.6000000000000001 and 0.4 at level 1, and 6 and 4 of 10 weigh 0.6
    # and 0.4, while the level-0 weights c/m agree
    (2, 5, [0.1, 0.1, 0.3, 0.3, 0.3] * 3 + [0.2, 0.5, 0.5, 0.5, 0.9] * 2),
])
def test_nested_distance_decides_equality_on_the_tables_as_eq_does(r, m, x):
    # values tied to one decimal at side m, the same array doubled to side
    # 2m, and another array: every pair of sides, measures at every level
    # and hierarchies, is equal on the tables exactly when == says so, and
    # then at distance 0.0, without building an atom
    rng = np.random.default_rng([r, m])
    if x is None:
        x = np.round(rng.random(m**r), 1)
    hs = [extract_hierarchy(x, r, m), extract_hierarchy(_doubled(x, r, m), r, 2 * m),
          extract_hierarchy(np.round(rng.random(m**r), 1), r, m)]
    sides = hs + [mu for h in hs for mu in h.measures]
    for a, b in itertools.product(sides, sides):
        same = _same_tables(*_measure_tables(a), *_measure_tables(b))
        if same:
            assert nested_distance(a, b) == 0.0
    assert not any("atoms" in vars(mu) for h in hs for mu in h.measures)
    for a, b in itertools.product(sides, sides):
        assert _same_tables(*_measure_tables(a), *_measure_tables(b)) == (_root(a) == _root(b))
    # a side and its doubling are one measure when their weights agree
    assert (hs[0].root_measure == hs[1].root_measure) == (m != 5)
    assert nested_distance(hs[0], hs[1]) == pytest.approx(0.0, abs=1e-15)


def test_equal_measures_at_10_6_cells_compare_on_the_level_arrays():
    # the roots of two extractions of one 10^6-cell array are equal views of
    # two hierarchies, where == built every atom tuple of both (about 250 MB)
    x = sample_array(make_model("product", 2), 2, 1000, seed=0)
    mu, nu = (extract_hierarchy(x, 2, 1000).root_measure for _ in range(2))
    tracemalloc.start()
    try:
        assert nested_distance(mu, nu) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert "atoms" not in vars(mu) and "atoms" not in vars(nu)


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
        a, c = tables[0]
        rows = sorted(tuple(zip(x[v > 0].tolist(), (v[v > 0] / m).tolist())) for x, v in zip(a, c))
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
