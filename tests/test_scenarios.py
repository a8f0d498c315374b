"""Tests for the scenario registry."""

import numpy as np
import pytest

from hexch.fields import (
    SigmaModel,
    derive_seed,
    path_matrix,
    sample_ah,
    sample_array,
)
from hexch.hperm import HPerm
from hexch.scenarios import (
    builtin,
    list_scenarios,
    make_level_values,
    make_model,
    make_source,
)
from hexch.stattests import hexch_test
from hexch.tree import leaves, root


def test_registry_size_and_names():
    specs = list_scenarios()
    assert len(specs) >= 9
    names = {s.name for s in specs}
    assert {
        "uniform-leaf",
        "root-constant",
        "path-mean",
        "product",
        "toy-magnetization",
        "label-leak",
        "sibling-coupled",
        "markov-leak",
        "depth-shift",
    } <= names


def test_every_name_resolves_uniquely():
    for spec in list_scenarios():
        assert builtin(spec.name) is spec


def test_unknown_name():
    with pytest.raises(ValueError):
        builtin("does-not-exist")


def test_root_constant_is_constant():
    x = make_source("root-constant", 2, 5).sample(71)
    assert np.all(x == x[0])


def test_null_scenarios_use_path_function_form():
    # the generated array must equal the direct sigma evaluation exactly
    for name in ("uniform-leaf", "root-constant", "path-mean", "product"):
        src = make_source(name, 2, 4)
        direct = sample_array(make_model(name, 2), 2, 4, seed=13)
        assert np.array_equal(src.sample(13), direct)
    src = make_source("toy-magnetization", 2, 3, n=5)
    direct = sample_ah(make_model("toy-magnetization", 2), 2, 3, 5, seed=13)
    assert np.array_equal(src.sample(13), direct)


BATCHED_CASES = [
    ("uniform-leaf", 2, 8, None),
    ("root-constant", 2, 5, None),
    ("path-mean", 3, 4, None),
    ("product", 2, 8, None),
    ("toy-magnetization", 2, 4, 1),
    ("toy-magnetization", 2, 4, 8),
    ("label-leak", 2, 8, None),
    ("sibling-coupled", 2, 5, None),
    ("sibling-coupled", 3, 3, None),
    ("markov-leak", 2, 16, None),
]


@pytest.mark.parametrize("k", [1, 3, 50])
@pytest.mark.parametrize("name, r, m, n", BATCHED_CASES)
def test_batched_sampling_equals_stacked_scalar_samples(name, r, m, n, k):
    src = make_source(name, r, m, n=n)
    seeds = [derive_seed(19, name, i) for i in range(k)]
    batch = src.sample(seeds)
    stacked = np.stack([src.sample(s) for s in seeds])
    cells = (m**r,) if n is None else (m**r, n)
    assert batch.shape == stacked.shape == (k,) + cells
    assert batch.dtype == stacked.dtype == np.float64
    assert np.array_equal(batch, stacked)
    assert batch.tobytes() == stacked.tobytes()
    # a numpy seed array is a 1-D sequence too
    assert np.array_equal(src.sample(np.array(seeds, dtype=np.uint64)), batch)


def test_batched_path_matrix_stacks_scalar_matrices():
    seeds = [3, 2**64 - 1, 0]
    # (depths, shape, leaves, path size): one tree and two products
    for depths, shape, n_leaves, size in [
        (2, 3, 9, 3),
        ((1, 2), (3, 2), 12, 6),
        ((1, 1, 1), (2, 3, 2), 12, 8),
    ]:
        batch = path_matrix(seeds, "v", depths, shape)
        assert batch.shape == (3, n_leaves, size)
        for row, s in zip(batch, seeds):
            assert np.array_equal(row, path_matrix(s, "v", depths, shape))
    model = SigmaModel("mean", 6, lambda p: p.mean(axis=1))
    batch = sample_array(model, (1, 2), (3, 2), seeds)
    stacked = np.stack([sample_array(model, (1, 2), (3, 2), s) for s in seeds])
    assert batch.shape == (3, 12)
    assert batch.tobytes() == stacked.tobytes()


def test_label_leak_pure_parity_differs_under_swap():
    # with the parity-only model the values are determined by the first
    # coordinate, so the root swap changes the array deterministically
    src = make_source("label-leak", 1, 2, params={"weight": 1.0})
    x = src.sample(5)
    assert x.tolist() == [1.0, 0.0]  # X_(1)=parity(1)=1, X_(2)=parity(2)=0
    swap = HPerm(1, {root(1): (2, 1)})
    y = x[swap.permuted_leaf_indices(2)]
    assert y.tolist() == [0.0, 1.0]
    assert not np.array_equal(x, y)


def test_label_leak_blends_parity():
    src = make_source("label-leak", 2, 4, params={"weight": 0.5})
    x = src.sample(3)
    v = path_matrix(3, "v", 2, 4)[:, -1]
    parity = np.array([v.coords[0] % 2 for v in leaves(2, 4)], dtype=float)
    assert np.allclose(x, 0.5 * v + 0.5 * parity)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_label_leak_parity_is_the_first_leaf_coordinate(r):
    # at weight 1 the array is the parity of each leaf's first coordinate;
    # r=1 makes the flat-index divisor m^(r-1) equal to 1
    m = 5
    x = make_source("label-leak", r, m, params={"weight": 1.0}).sample(7)
    assert x.tolist() == [float(v.coords[0] % 2) for v in leaves(r, m)]


def test_toy_magnetization_without_replica_block_repeats_columns():
    src = make_source("toy-magnetization", 2, 3, n=6, params={"b": 0.0})
    x = src.sample(4)
    for i in range(1, 6):
        assert np.array_equal(x[:, 0], x[:, i])


def test_toy_magnetization_defaults():
    spec = builtin("toy-magnetization")
    assert spec.defaults["params"] == {"a": 2.0, "b": 1.0}
    model = make_model("toy-magnetization", 2)
    assert model.arity == 6
    assert dict(model.params) == {"a": 2.0, "b": 1.0}


@pytest.mark.parametrize("n_rows", [5, 20_000])
@pytest.mark.parametrize("r", range(1, 9))
def test_toy_magnetization_keeps_the_bits_of_the_block_sums(r, n_rows):
    # for k = r + 1 < 8 columns the centred sums add column by column; from
    # k = 8 on they stay numpy's row reductions, which sum pairwise
    k = r + 1
    p = np.random.default_rng([r, n_rows]).random((n_rows, 2 * k))
    for a, b in ((2.0, 1.0), (0.7, -1.3)):
        shared = (p[:, :k] - 0.5).sum(axis=1)
        replica = (p[:, k:] - 0.5).sum(axis=1)
        want = 1.0 / (1.0 + np.exp(-(a * shared + b * replica)))
        got = make_model("toy-magnetization", r, {"a": a, "b": b}).eval(p)
        assert got.tobytes() == want.tobytes()


def test_sibling_coupled_couples_consecutive_parents():
    src = make_source("sibling-coupled", 2, 8, params={"weight": 1.0})
    x = src.sample(6).reshape(8, 8)
    # with weight 1 the value is exactly the shared uniform, so paired
    # parents have identical children blocks
    for j in range(0, 8, 2):
        assert np.array_equal(x[j], x[j + 1])
    assert not np.array_equal(x[0], x[2])
    # it pairs depth-1 siblings and couples their children, so it needs r >= 2
    with pytest.raises(ValueError, match="r >= 2"):
        make_source("sibling-coupled", 1, 8)


def test_sibling_coupled_weight_zero_is_plain_leaf_field():
    src = make_source("sibling-coupled", 2, 4, params={"weight": 0.0})
    x = src.sample(10)
    assert np.allclose(x, path_matrix(10, "v", 2, 4)[:, -1])


def test_markov_leak_reuses_previous_uniform():
    src = make_source("markov-leak", 2, 4)
    x = src.sample(8).reshape(4, 4)
    v = path_matrix(8, "v", 2, 4)[:, -1].reshape(4, 4)
    assert np.array_equal(x[:, 0], v[:, 0])
    assert np.allclose(x[:, 1:], 0.5 * (v[:, 1:] + v[:, :-1]))


def test_depth_shift_shifts_only_depth_one():
    by_depth = make_level_values("depth-shift", 2, 8, seed=3)
    base = make_level_values("depth-shift", 2, 8, seed=3, params={"shift": 0.0})
    assert list(by_depth) == [0, 1, 2]
    assert np.array_equal(by_depth[0], base[0])
    assert np.array_equal(by_depth[2], base[2])
    assert np.all(by_depth[1] >= 0.5)


def test_array_source_rejected_for_field_scenario():
    with pytest.raises(ValueError):
        make_source("depth-shift", 2, 4)
    with pytest.raises(ValueError):
        make_level_values("product", 2, 4, seed=0)


def test_null_scenarios_pass_hexch_smoke():
    # cheap spot-check of the registry's expected verdicts; the full
    # calibration bands run in the acceptance suite
    for name in ("uniform-leaf", "root-constant"):
        src = make_source(name, 2, 4)
        rejects = sum(
            hexch_test(
                src.sample,
                2,
                4,
                n_reps=20,
                n_resamples=99,
                seed=derive_seed(55, name, t),
            ).reject
            for t in range(10)
        )
        assert rejects <= 2


def test_expected_verdicts_shape():
    for spec in list_scenarios():
        assert spec.kind in ("null", "violation")
        for test_name, verdict in spec.expected.items():
            assert verdict in ("pass", "reject")
            if spec.kind == "null":
                assert verdict == "pass"
        if spec.kind == "violation":
            assert "reject" in spec.expected.values()
