"""Tests for the scenario registry."""

import hashlib
import json
import re

import numpy as np
import pytest

from hexch.cli import run_experiment

from hexch.fields import (
    SigmaModel,
    _path_layout,
    derive_seed,
    path_matrix,
    sample_ah,
    sample_array,
)
from hexch.hperm import HPerm
from hexch.scenarios import (
    _row_reduce,
    builtin,
    list_scenarios,
    make_model,
    make_source,
)
from hexch.stattests import hexch_test
from hexch.tree import leaves, root


def test_registry_size_and_names():
    specs = list_scenarios()
    assert len(specs) >= 8
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


def _matrix(columns) -> np.ndarray:
    """The (N, arity) path matrix of model input columns, broadcast and stacked."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, len(columns))


def _recording(model: SigmaModel, seen: list) -> SigmaModel:
    def fn(p):
        seen.append([c.copy() for c in p])
        return model.fn(p)

    return SigmaModel(model.name, model.arity, fn)


def _sample_ah_reference(model: SigmaModel, r, m, n, seed) -> np.ndarray:
    # sample_ah as its definition reads: the model on the (N, 2(r+1)) matrix
    # of the shared path and replica i's path, each from path_matrix with
    # its role, rows ordered seed, replica, leaf
    shared = path_matrix(seed, "v", r, m)
    replicas = np.stack([path_matrix(seed, f"v^{i}", r, m) for i in range(1, n + 1)], axis=-3)
    shared = np.broadcast_to(shared[..., None, :, :], replicas.shape)
    inputs = np.concatenate([shared, replicas], axis=-1).reshape(-1, 2 * (r + 1))
    lead = replicas.shape[:-3]
    return model.eval(inputs.T).reshape(lead + (n, m**r)).swapaxes(-1, -2)


@pytest.mark.parametrize("seed", [23, [23], [23, 0, 2**64 - 1]], ids=["int", "K1", "K3"])
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_sample_ah_writes_the_model_input_of_the_concatenated_blocks(r, m, n, seed):
    base = make_model("toy-magnetization", r)
    seen, seen_ref = [], []
    x = sample_ah(_recording(base, seen), r, m, n, seed)
    ref = _sample_ah_reference(_recording(base, seen_ref), r, m, n, seed)
    assert len(seen) == len(seen_ref) == 1
    # one column per depth, shared then replica, each vertex value held once:
    # (K, 1) or (K, n) then the depth's broadcast shape over the leaf grid
    k = len(np.atleast_1d(seed))
    layout = _path_layout((r,), (m,))
    assert [c.shape for c in seen[0]] == [(k, 1) + b for b in layout] + [(k, n) + b for b in layout]
    # broadcast and stacked, the columns are the reference's matrix
    got, want = _matrix(seen[0]), _matrix(seen_ref[0])
    assert got.shape == want.shape == (k * n * m**r, 2 * (r + 1))
    assert got.tobytes() == want.tobytes()
    assert x.shape == ref.shape and x.tobytes() == ref.tobytes()


def _sigma_models():
    """Every registered σ-form model (one value per leaf of a tree), by name."""
    return [spec.name for spec in list_scenarios() if spec.form == "sigma"]


@pytest.mark.parametrize("seed", [11, [11, 2**64 - 1, 0]], ids=["int", "K3"])
@pytest.mark.parametrize("depths, shape", [(r, m) for r in (1, 2, 3) for m in (1, 2, 5)]
                         + [(r, m) for r in (7, 8) for m in (1, 2)] + [((1, 2), (3, 2))])
@pytest.mark.parametrize("name", _sigma_models())
def test_sample_array_has_the_bits_of_the_model_on_the_path_matrix(name, depths, shape, seed):
    # the columns fold with broadcasting, and r = 7 and 8 sum pairwise; a
    # path of (1, 2) x (3, 2) has 2 x 3 = 6 depth tuples, the arity of r = 5
    paths = path_matrix(seed, "v", depths, shape)
    model = make_model(name, paths.shape[-1] - 1)
    want = model.eval(paths.reshape(-1, model.arity).T).reshape(paths.shape[:-1])
    got = sample_array(model, depths, shape, seed)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # and numpy's own reductions of the path matrix's rows
    numpy_rows = {"uniform-leaf": paths[..., -1], "root-constant": paths[..., 0],
                  "path-mean": paths.mean(axis=-1), "product": paths.prod(axis=-1)}
    assert got.tobytes() == numpy_rows[name].tobytes()


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
    model = SigmaModel("mean", 6, lambda p: _row_reduce(p, np.add) / 6)
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


def _same_bits(got, want):
    """Whether two float arrays have the same bits, NaNs aside: a NaN's sign
    and payload are those of whichever NaN operand the CPU returns, which
    numpy does not fix, so any NaN matches any NaN."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("k", range(1, 41))
def test_row_reduce_has_the_bits_of_numpys_row_reductions(k):
    # pyproject allows any numpy >= 1.24: a numpy whose reduction order
    # differs fails here, not only in the pinned outputs
    rng = np.random.default_rng(k)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308]
    # rows of uniforms, where the order of the sum shows in its last bits,
    # then rows of any magnitude and sign with special values among them
    p = rng.random((60, k))
    p[20:] *= 10.0 ** rng.integers(-300, 300, (40, k)) * rng.choice([-1.0, 1.0], (40, k))
    picked = rng.random(p.shape) < 0.1
    picked[:20] = False
    p[picked] = rng.choice(special, picked.sum())
    p[20], p[21] = -0.0, 5e-324  # a row of -0.0 sums to 0.0, not -0.0
    with np.errstate(all="ignore"):
        # the columns of p, as a model receives a path matrix's
        assert _same_bits(_row_reduce(p.T, np.multiply), np.multiply.reduce(p, axis=1))
        assert _same_bits(_row_reduce(p.T, np.add), np.add.reduce(p, axis=1))
        assert _same_bits(_row_reduce(p.T, np.add) / k, p.mean(axis=1))
        # a shift is subtracted from each term before the reduction
        for ufunc in (np.add, np.multiply):
            assert _same_bits(_row_reduce(p.T, ufunc, 0.5), ufunc.reduce(p - 0.5, axis=1))


@pytest.mark.parametrize("r", range(1, 9))
def test_product_and_path_mean_keep_the_bits_of_numpys_row_reductions(r):
    p = np.random.default_rng(r).random((1000, r + 1))
    assert make_model("product", r).eval(p.T).tobytes() == p.prod(axis=1).tobytes()
    assert make_model("path-mean", r).eval(p.T).tobytes() == p.mean(axis=1).tobytes()


@pytest.mark.parametrize("n_rows", [5, 20_000])
@pytest.mark.parametrize("r", range(1, 9))
def test_toy_magnetization_keeps_the_bits_of_the_block_sums(r, n_rows):
    # the centred sums go through _row_reduce, shifted by 0.5 as read:
    # column by column for k = r + 1 < 8 terms, by numpy's own reduction
    # from k = 8 on
    k = r + 1
    p = np.random.default_rng([r, n_rows]).random((n_rows, 2 * k))
    for a, b in ((2.0, 1.0), (0.7, -1.3)):
        shared = (p[:, :k] - 0.5).sum(axis=1)
        replica = (p[:, k:] - 0.5).sum(axis=1)
        want = 1.0 / (1.0 + np.exp(-(a * shared + b * replica)))
        got = make_model("toy-magnetization", r, {"a": a, "b": b}).eval(p.T)
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
    with pytest.raises(ValueError, match="^r must be >= 2, got 1$"):
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


def test_n_rejected_for_a_scenario_without_a_replica_axis():
    with pytest.raises(ValueError, match="^n sets a replica axis, which scenario 'product' has not$"):
        make_source("product", 2, 4, n=5)
    assert make_source("toy-magnetization", 2, 4, n=5).n == 5


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


# requests the registry refuses, each with the message that both hexch run
# (for the config with m=4 and seed 0) and the library entry points give
REFUSED = [
    ({"scenario": "label-leak", "r": 2, "params": {"wieght": 1.0}},
     "unknown param 'wieght' for scenario 'label-leak'; expected one of ['weight']"),
    ({"scenario": "label-leak", "r": 2, "params": {"weight": 5.0}},
     "params.weight must lie in [0.0, 1.0] for scenario 'label-leak', got 5.0"),
    ({"scenario": "sibling-coupled", "r": 1}, "r must be >= 2, got 1"),
    ({"scenario": "product", "r": 2, "n": 5},
     "n sets a replica axis, which scenario 'product' has not"),
    ({"scenario": "product", "r": 2, "params": {"weight": 0.5}},
     "unknown param 'weight' for scenario 'product'; expected one of []"),
    ({"scenario": "toy-magnetization", "r": 0}, "r must be >= 1, got 0"),
    ({"scenario": "toy-magnetization", "r": 2, "params": {"c": 1.0}},
     "unknown param 'c' for scenario 'toy-magnetization'; expected one of ['a', 'b']"),
    ({"scenario": "label-leak", "r": 0}, "r must be >= 1, got 0"),
]


@pytest.mark.parametrize("config, message", REFUSED)
def test_library_refuses_a_request_as_hexch_run_does(tmp_path, config, message):
    name, r, n, params = config["scenario"], config["r"], config.get("n"), config.get("params")
    form = builtin(name).form
    calls = [lambda: run_experiment({"m": 4, "seed": 0, **config}, tmp_path / "out"),
             lambda: make_source(name, r, 4, n=n, params=params)]
    if form in ("sigma", "sigma-replica") and n is None:
        calls.append(lambda: make_model(name, r, params))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    assert not (tmp_path / "out").exists()


def test_params_merge_over_the_registry_defaults():
    # a param left out takes the registry's default, as hexch run records
    assert dict(make_model("toy-magnetization", 2, {"b": 0}).params) == {"a": 2.0, "b": 0.0}
    x = make_source("label-leak", 2, 4).sample(3)
    assert np.array_equal(x, make_source("label-leak", 2, 4, params={"weight": 0.5}).sample(3))
    assert make_source("toy-magnetization", 2, 4).n == builtin("toy-magnetization").defaults["n"]


# the tests hexch run accepts for each form: hexch for an array, and the
# extraction tests for a plain tree
FORM_TESTS = {
    "sigma": ["hexch", "conditional_iid", "cond_indep"],
    "custom": ["hexch", "conditional_iid", "cond_indep"],
    "sigma-replica": ["hexch"],
}
TEST_ENTRIES = {
    "hexch": {"name": "hexch", "n_reps": 20, "n_resamples": 19},
    "conditional_iid": {"name": "conditional_iid", "n_resamples": 19},
    "cond_indep": {"name": "cond_indep", "n_resamples": 19},
}


@pytest.mark.parametrize("spec", list_scenarios(), ids=lambda spec: spec.name)
def test_every_scenario_runs_at_its_defaults(tmp_path, spec):
    # a new registry entry is run the day it is added
    tests = [TEST_ENTRIES[name] for name in FORM_TESTS[spec.form]]
    config = {"scenario": spec.name, "seed": 0, "r": spec.defaults["r"],
              "m": spec.defaults["m"], "tests": tests}
    code, files = run_experiment(config, tmp_path)
    assert code in (0, 1)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(files) == set(manifest["files"]) | {"manifest.json"}
    for name, entry in manifest["files"].items():
        data = (tmp_path / name).read_bytes()
        assert entry == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    reports = (tmp_path / "reports.jsonl").read_text().splitlines()
    assert [json.loads(line)["name"] for line in reports] == FORM_TESTS[spec.form]
