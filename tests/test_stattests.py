"""Tests for the statistical verification battery."""

import json
import re
import tracemalloc

import numpy as np
import pytest

import hexch.definetti
import hexch.hperm
import hexch.stattests
from hexch.definetti import extract_hierarchy
from hexch.fields import derive_seed, derive_seeds
from hexch.hperm import random_leaf_indices
from hexch.scenarios import make_source
from hexch.stattests import (
    TestReport,
    _energy_permutation_pvalue,
    _marginal_indices,
    cond_indep_test,
    conditional_iid_test,
    hexch_test,
)

from reference import energy_distance


# -- energy distance -------------------------------------------------------------


def test_energy_distance_identical_samples():
    a = np.array([[0.1, 0.2], [0.7, 0.4], [0.3, 0.3]])
    assert energy_distance(a, a) == pytest.approx(0.0, abs=1e-12)


def test_energy_distance_repeated_points():
    p = np.tile([0.2, 0.1], (5, 1))
    q = np.tile([0.5, 0.5], (7, 1))
    expected = 2 * np.linalg.norm([0.3, 0.4])
    assert energy_distance(p, q) == pytest.approx(expected)


def test_energy_distance_matches_brute_force():
    rng = np.random.default_rng(3)
    a = rng.random((4, 3))
    b = rng.random((5, 3))

    def brute(x, y):
        return np.mean([np.linalg.norm(u - v) for u in x for v in y])

    expected = 2 * brute(a, b) - brute(a, a) - brute(b, b)
    assert energy_distance(a, b) == pytest.approx(expected, abs=1e-12)
    # the battery's statistic is this one
    assert _energy_permutation_pvalue(a, b, 9, seed=0)[0] == pytest.approx(expected, abs=1e-12)


def test_energy_distance_symmetric_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.random((6, 2))
        b = rng.random((8, 2))
        d = energy_distance(a, b)
        assert d >= 0.0
        assert d == pytest.approx(energy_distance(b, a), abs=1e-12)


def test_energy_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        energy_distance(np.zeros((3, 2)), np.zeros((3, 4)))


def test_energy_permutation_invariant_to_replicate_order():
    rng = np.random.default_rng(17)
    a = rng.random((12, 5))
    b = rng.random((12, 5))
    s1, p1 = _energy_permutation_pvalue(a, b, 99, seed=4)
    a_shuffled = a[rng.permutation(12)]
    b_shuffled = b[rng.permutation(12)]
    s2, p2 = _energy_permutation_pvalue(a_shuffled, b_shuffled, 99, seed=4)
    assert s1 == s2
    assert p1 == p2


@pytest.mark.parametrize("n_tot, n_resamples", [(2, 1), (40, 199), (100, 199), (257, 7)])
def test_stacked_resample_draw_matches_sequential_permutations(n_tot, n_resamples):
    # _energy_permutation_pvalue draws its resample splits in one stacked
    # call; the p-values stay pinned only while it consumes the PCG64 stream
    # exactly as one permutation call per resample does
    seq = np.random.Generator(np.random.PCG64(9))
    stacked = np.random.Generator(np.random.PCG64(9))
    loop = np.stack([seq.permutation(n_tot) for _ in range(n_resamples)])
    perm = stacked.permuted(np.broadcast_to(np.arange(n_tot), (n_resamples, n_tot)), axis=1)
    assert np.array_equal(perm, loop)
    assert seq.random() == stacked.random()


# -- exchangeability test ----------------------------------------------------------


def test_hexch_null_smoke():
    src = make_source("path-mean", 2, 4)
    rejects = 0
    for t in range(20):
        rep = hexch_test(
            src.sample, 2, 4, n_reps=30, n_resamples=99, seed=derive_seed(1, "n", t)
        )
        assert 0.0 < rep.p_value <= 1.0
        rejects += rep.reject
    assert rejects <= 4


def test_hexch_power_smoke():
    src = make_source("label-leak", 2, 8)
    rejects = sum(
        hexch_test(
            src.sample, 2, 8, n_reps=30, n_resamples=99, seed=derive_seed(2, "p", t)
        ).reject
        for t in range(10)
    )
    assert rejects >= 9


def test_hexch_deterministic():
    src = make_source("product", 2, 4)
    r1 = hexch_test(src.sample, 2, 4, n_reps=20, n_resamples=49, seed=5)
    r2 = hexch_test(src.sample, 2, 4, n_reps=20, n_resamples=49, seed=5)
    assert r1.p_value == r2.p_value and r1.statistic == r2.statistic


@pytest.mark.parametrize(
    "name, r, m, n, seed, p_value, statistic",
    [
        ("path-mean", 2, 4, None, 5, 0.12, 0.16282746184910923),
        ("product", 3, 3, None, 11, 0.14, 0.07180741966616899),
        ("label-leak", 2, 8, None, 2, 0.02, 2.092101878682566),
        ("toy-magnetization", 2, 4, 8, 3, 0.9, 0.1733429312009589),
        ("toy-magnetization", 2, 2, 4, 5, 0.12, 0.23491393249830028),
        ("uniform-leaf", 2, 16, None, 7, 0.14, 0.3649331660897821),
        ("path-mean", 1, 6, None, 1, 1.0, 0.03023609925013082),
    ],
)
def test_hexch_pinned_values(name, r, m, n, seed, p_value, statistic):
    # exact outputs: the permutation draws, field hashing and sampling
    # behind hexch_test must stay bit-identical
    src = make_source(name, r, m, n=n)
    rep = hexch_test(src.sample, r, m, n=src.n, n_reps=20, n_resamples=49, seed=seed)
    assert (rep.p_value, rep.statistic) == (p_value, statistic)


@pytest.mark.parametrize(
    "name, r, m, n, seed",
    [("path-mean", 2, 4, None, 5), ("uniform-leaf", 2, 16, None, 7), ("toy-magnetization", 2, 4, 8, 3)],
)
def test_hexch_chunked_matches_unchunked(monkeypatch, name, r, m, n, seed):
    src = make_source(name, r, m, n=n)
    calls, map_calls = [], []

    def counted(seeds):
        calls.append(len(seeds))
        return src.sample(seeds)

    def counted_maps(r_, m_, seeds):
        map_calls.append(len(seeds))
        return random_leaf_indices(r_, m_, seeds)

    def no_tables(*args):
        raise AssertionError("hexch_test built a map table")

    # the maps of a chunk come from one rank-core call, never from tables
    monkeypatch.setattr(hexch.stattests, "random_leaf_indices", counted_maps)
    monkeypatch.setattr(hexch.stattests, "random_hperm", no_tables)
    monkeypatch.setattr(hexch.hperm, "random_hperm", no_tables)
    whole = hexch_test(counted, r, m, n=n, n_reps=20, n_resamples=49, seed=seed)
    assert (calls, map_calls) == ([20, 20], [20])
    # room for 6 replicates' cells: chunks of 6, 6, 6 and 2 per sample
    per_rep = m**r * (n or 1)
    monkeypatch.setattr(hexch.stattests, "DEFAULT_CELL_CAP", 6 * per_rep + 1)
    calls.clear()
    map_calls.clear()
    chunked = hexch_test(counted, r, m, n=n, n_reps=20, n_resamples=49, seed=seed)
    assert (calls, map_calls) == ([6, 6, 6, 2] * 2, [6, 6, 6, 2])
    assert (chunked.p_value, chunked.statistic) == (whole.p_value, whole.statistic)
    # a cap below one replicate still samples one replicate per call
    monkeypatch.setattr(hexch.stattests, "DEFAULT_CELL_CAP", 1)
    calls.clear()
    map_calls.clear()
    single = hexch_test(counted, r, m, n=n, n_reps=20, n_resamples=49, seed=seed)
    assert (calls, map_calls) == ([1] * 40, [1] * 20)
    assert (single.p_value, single.statistic) == (whole.p_value, whole.statistic)


def test_hexch_rejects_a_wrong_source_shape():
    tree = make_source("path-mean", 2, 4)
    replica = make_source("toy-magnetization", 2, 4, n=8)
    cases = [
        # a per-seed source called with a sequence of seeds
        (lambda seeds: tree.sample(seeds[0]), None, "(16,)", "(20, 16)", "(K, m^r)"),
        (lambda seeds: tree.sample(seeds).reshape(-1, 4, 4), None, "(20, 4, 4)", "(20, 16)",
         "(K, m^r)"),
        (tree.sample, 8, "(20, 16)", "(20, 16, 8)", "(K, m^r, n)"),
        (replica.sample, None, "(20, 16, 8)", "(20, 16)", "(K, m^r)"),
        (lambda seeds: replica.sample(seeds)[:, :, :4], 8, "(20, 16, 4)", "(20, 16, 8)",
         "(K, m^r, n)"),
    ]
    for source, n, got, want, form in cases:
        with pytest.raises(ValueError) as info:
            hexch_test(source, 2, 4, n=n, n_reps=20, n_resamples=9, seed=0)
        msg = str(info.value)
        assert f"shape {got} for K=20 seeds; expected {form} = {want}" in msg, msg


def test_hexch_insufficient_replicates():
    src = make_source("uniform-leaf", 1, 4)
    with pytest.raises(ValueError):
        hexch_test(src.sample, 1, 4, n_reps=19, seed=0)


@pytest.mark.parametrize("n", [0, -1])
def test_hexch_rejects_fewer_than_one_replica_column(n):
    def source(seeds):
        raise AssertionError("source called before n was checked")

    with pytest.raises(ValueError, match="n must be >= 1"):
        hexch_test(source, 2, 4, n=n, n_reps=20, n_resamples=9, seed=0)


def test_hexch_zero_resamples():
    src = make_source("uniform-leaf", 1, 4)
    with pytest.raises(ValueError):
        hexch_test(src.sample, 1, 4, n_reps=20, n_resamples=0, seed=0)


def test_hexch_joint_replica_mode():
    src = make_source("toy-magnetization", 2, 4, n=8)
    rep = hexch_test(src.sample, 2, 4, n=8, n_reps=20, n_resamples=49, seed=3)
    assert rep.metadata["joint_replica_perm"]
    assert rep.metadata["dim"] == 64


def test_hexch_marginal_cap():
    src = make_source("uniform-leaf", 2, 16)
    rep = hexch_test(src.sample, 2, 16, n_reps=20, n_resamples=49, seed=3)
    assert rep.metadata["dim"] == 64  # 256 leaves capped to a fixed subset


@pytest.mark.parametrize("r, m, n", [(2, 4, 20), (2, 2, 4), (1, 3, 5)])
def test_hexch_replica_gather_reads_the_kept_cells_of_the_permuted_array(monkeypatch, r, m, n):
    src = make_source("toy-magnetization", r, m, n=n)
    seen = {}

    def capture(a, b, n_resamples, seed):
        seen["b"] = b
        return 0.0, 1.0

    monkeypatch.setattr(hexch.stattests, "_energy_permutation_pvalue", capture)
    hexch_test(src.sample, r, m, n=n, n_reps=20, n_resamples=9, seed=4)
    # every cell permuted by a broadcast gather, flattened, then the subset
    seeds = {role: derive_seeds(4, role, 20) for role in ("rep-b", "perm", "rho")}
    idx = random_leaf_indices(r, m, seeds["perm"])
    rho = np.stack([np.random.Generator(np.random.PCG64(s)).permutation(n) for s in seeds["rho"]])
    x = src.sample(seeds["rep-b"])[np.arange(20)[:, None, None], idx[:, :, None], rho[:, None, :]]
    x = x.reshape(20, -1)
    keep = _marginal_indices(m**r * n, r, m, n, 4)
    assert (keep is None) == (m**r * n <= 64)
    assert seen["b"].tobytes() == (x if keep is None else x[:, keep]).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("role", ["rep-a", "rep-b"])
@pytest.mark.parametrize("name, r, m, n", [("path-mean", 2, 4, None), ("toy-magnetization", 2, 2, 4)])
def test_hexch_refuses_non_finite_values(name, r, m, n, role, bad):
    # every coordinate is kept, so one bad cell reaches the statistic in
    # either sample, wherever the permutation moves it
    src = make_source(name, r, m, n=n)
    poisoned = derive_seeds(3, role, 20)[7]

    def source(seeds):
        x = src.sample(seeds)
        x[[s == poisoned for s in seeds], 1] = bad
        return x

    msg = f"replicate 7 of sample '{role}' holds a non-finite value"
    with pytest.raises(ValueError, match=msg):
        hexch_test(source, r, m, n=n, n_reps=20, n_resamples=49, seed=3)


def test_hexch_reads_no_coordinate_outside_its_subset():
    # a NaN in a coordinate the 64-coordinate subset leaves out never
    # enters the statistic
    src = make_source("uniform-leaf", 2, 16)
    dropped = np.setdiff1d(np.arange(256), _marginal_indices(256, 2, 16, None, 3))[0]

    def source(seeds):
        x = src.sample(seeds)
        x[:, dropped] = np.nan
        return x

    rep_a = derive_seeds(3, "rep-a", 20)
    clean = hexch_test(src.sample, 2, 16, n_reps=20, n_resamples=49, seed=3)
    poisoned = hexch_test(lambda s: source(s) if s == rep_a else src.sample(s), 2, 16,
                          n_reps=20, n_resamples=49, seed=3)
    assert (poisoned.p_value, poisoned.statistic) == (clean.p_value, clean.statistic)


def test_pdist_squareform_has_the_bits_of_cdist():
    # the hexch_test pins were recorded from cdist(pool, pool); they hold
    # only while _energy_permutation_pvalue's squareform(pdist(pool)) has
    # the same bits, whatever scipy >= 1.10 is installed
    from scipy.spatial.distance import cdist, pdist, squareform

    rng = np.random.default_rng(31)
    for t in range(120):
        rows, cols = int(rng.integers(2, 130)), (1, 2, 64, 320)[t] if t < 4 else int(rng.integers(1, 321))
        pool = rng.random((rows, cols)) * 10.0 ** int(rng.integers(-3, 4))
        if t % 3 == 0:
            pool = np.round(pool, int(rng.integers(0, 3)))
        if t % 2 == 0:
            pool[rng.integers(0, rows, rows // 3 + 1)] = pool[rng.integers(0, rows, rows // 3 + 1)]
        assert squareform(pdist(pool)).tobytes() == cdist(pool, pool).tobytes()


def test_report_decision_consistency():
    src = make_source("uniform-leaf", 1, 8)
    for t in range(5):
        rep = hexch_test(
            src.sample, 1, 8, n_reps=20, n_resamples=99, seed=derive_seed(3, "d", t)
        )
        assert rep.reject == (rep.p_value < rep.level)


def test_report_validates_pvalue():
    with pytest.raises(ValueError):
        TestReport("x", 0.0, 1.5, 10, 0.05, False)
    for level in (0.0, 1.0, 7.0, -1, float("nan")):
        with pytest.raises(ValueError, match="level"):
            TestReport("x", 0.0, 0.5, 10, level, False)
    arr = _array("uniform-leaf", 2, 4, seed=0)
    with pytest.raises(ValueError, match="level"):
        conditional_iid_test(arr, 2, 4, n_resamples=9, level=7.0, seed=0)
    with pytest.raises(ValueError, match="level"):
        cond_indep_test(arr, 2, 4, n_resamples=9, level=-1, seed=0)
    with pytest.raises(ValueError, match="level"):
        hexch_test(make_source("uniform-leaf", 1, 4).sample, 1, 4, n_reps=20,
                   n_resamples=9, level=1.0, seed=0)


# -- conditional i.i.d. test ---------------------------------------------------------


def _array(name, r, m, seed):
    return make_source(name, r, m).sample(seed)


def test_conditional_iid_null_calibration_smoke():
    rejects = 0
    for t in range(20):
        seed = derive_seed(11, "c", t)
        rejects += conditional_iid_test(_array("uniform-leaf", 2, 16, seed), 2, 16,
                                        seed=seed).reject
    assert rejects <= 2  # needs >= 90% non-rejection


def test_conditional_iid_markov_power_smoke():
    rejects = 0
    for t in range(10):
        seed = derive_seed(12, "m", t)
        rejects += conditional_iid_test(_array("markov-leak", 2, 16, seed), 2, 16,
                                        seed=seed).reject
    assert rejects >= 9


def test_conditional_iid_constant_array():
    rep = conditional_iid_test(np.full(64, 0.5), 2, 8, seed=1)
    # every draw of a constant array is the array itself, hence no rejection
    assert not rep.reject


def test_conditional_iid_shape_mismatch():
    with pytest.raises(ValueError, match=r"^shape mismatch: array has 9 values, expected m\^r = 16$"):
        conditional_iid_test(np.zeros(9), 2, 4, seed=0)


def test_conditional_iid_requires_siblings():
    # one child per parent has no lag-1 pair, and a test of nothing else
    arr = _array("uniform-leaf", 2, 1, seed=0)
    with pytest.raises(ValueError, match="^no sibling pairs: m must be >= 2$"):
        conditional_iid_test(arr, 2, 1, seed=0)


# -- conditional independence test ----------------------------------------------------


def test_cond_indep_null_calibration_smoke():
    rejects = 0
    for t in range(20):
        seed = derive_seed(21, "c", t)
        rejects += cond_indep_test(_array("product", 2, 16, seed), 2, 16, seed=seed).reject
    assert rejects <= 2


def test_cond_indep_sibling_coupled_power_smoke():
    rejects = 0
    for t in range(10):
        seed = derive_seed(22, "s", t)
        rejects += cond_indep_test(_array("sibling-coupled", 2, 16, seed), 2, 16,
                                   seed=seed).reject
    assert rejects >= 9


def test_cond_indep_requires_depth_two():
    arr = _array("uniform-leaf", 1, 8, seed=3)
    with pytest.raises(ValueError, match="^cross-parent check needs tree depth r >= 2$"):
        cond_indep_test(arr, 1, 8, seed=0)


def test_cond_indep_requires_siblings():
    with pytest.raises(ValueError, match="^no sibling pairs: m must be >= 2$"):
        cond_indep_test(np.array([0.3]), 2, 1, seed=0)


def test_cond_indep_pair_budget_recorded():
    rep = cond_indep_test(_array("uniform-leaf", 2, 16, seed=9), 2, 16, seed=9, pair_budget=10)
    assert rep.metadata["n_pairs"] == 10


# (scenario, r, m, seed, rounding decimals, conditional_iid statistic and
#  lag1_p, cond_indep statistic and p_value) at n_resamples=99, on the
#  sibling values themselves.  conditional_iid's p-value is its lag1_p.  A
#  constant array reads correlation 0 in the observation and in every draw
ONE_ARRAY_PINNED = [
    ("uniform-leaf", 2, 8, 1, None, 0.04378268758827216, 0.74, 0.8963913199550013, 0.12),
    ("path-mean", 3, 4, 2, None, 0.6391143901200531, 0.08, 0.9693454777588215, 0.9),
    ("root-constant", 2, 6, 3, None, 0.0, 1.0, 0.0, 1.0),
    ("uniform-leaf", 2, 8, 4, 1, -0.006510610043451344, 0.93, 0.8829605092631568, 0.05),
    ("markov-leak", 2, 16, 5, None, 0.6077368970977771, 0.01, 0.674265882447399, 0.25),
    ("product", 3, 5, 6, None, 0.6454169496019563, 0.08, 0.9547809379282125, 0.56),
    # pipeline's size: several blocks of draws in both shuffle nulls
    ("product", 2, 128, 0, None, 0.448199411104185, 0.97, 0.23551938308510742, 0.46),
]


@pytest.mark.parametrize("case", ONE_ARRAY_PINNED, ids=lambda c: f"{c[0]}-r{c[1]}-seed{c[3]}")
def test_pit_tests_pinned_values(case):
    name, r, m, seed, decimals, iid_stat, lag1_p, indep_stat, indep_p = case
    arr = make_source(name, r, m).sample(seed)
    if decimals is not None:
        arr = np.round(arr, decimals)
    iid = conditional_iid_test(arr, r, m, n_resamples=99, seed=seed)
    assert (iid.statistic, iid.p_value, iid.metadata["lag1_p"]) == (iid_stat, lag1_p, lag1_p)
    assert not {"ks_stat", "ks_p"} & set(iid.metadata)
    indep = cond_indep_test(arr, r, m, n_resamples=99, seed=seed)
    assert (indep.statistic, indep.p_value) == (indep_stat, indep_p)


# cond_indep above 65 parents, where only the 65 rows the default pair budget
# reads are shuffled: (scenario, r, m, seed, statistic, p_value) at
# n_resamples=99
COND_INDEP_PINNED = [
    ("product", 2, 100, 7, 0.31118842144557646, 0.09),
]


@pytest.mark.parametrize("case", COND_INDEP_PINNED, ids=lambda c: f"{c[0]}-m{c[2]}-seed{c[3]}")
def test_cond_indep_pinned_values_many_parents(case):
    name, r, m, seed, stat, p_value = case
    rep = cond_indep_test(_array(name, r, m, seed), r, m, n_resamples=99, seed=seed)
    assert rep.metadata["n_parents"] > 65
    assert (rep.statistic, rep.p_value) == (stat, p_value)


def test_cond_indep_ignores_parents_outside_the_pair_budget():
    m = 100
    arr = _array("product", 2, m, seed=7)
    changed = arr.copy()
    changed[65 * m:] = changed[65 * m:][::-1]
    a = cond_indep_test(arr, 2, m, n_resamples=49, seed=7)
    b = cond_indep_test(changed, 2, m, n_resamples=49, seed=7)
    assert a.to_json_obj() == b.to_json_obj()


def _full_matrix_max_abs_corr(x, pairs):
    # the statistic over every parent row, as computed before only the rows
    # the pairs read were scored; a row of one value correlates 0
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    z = x - x.mean(axis=1, keepdims=True)
    z[np.ptp(x, axis=1) == 0.0] = 0.0
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    z /= norms[:, None]
    return float(np.max(np.abs(np.einsum("ij,ij->i", z[ii], z[jj]))))


@pytest.mark.parametrize("name,r,m,seed,budget", [
    ("product", 2, 100, 7, 64),
    ("sibling-coupled", 2, 16, 3, 64),
    ("path-mean", 3, 5, 2, 30),
    ("uniform-leaf", 2, 12, 1, 200),
])
def test_cond_indep_statistic_matches_full_matrix(name, r, m, seed, budget):
    arr = _array(name, r, m, seed)
    x = _rows(arr, r, m)
    pairs = hexch.stattests._pairs_by_gap(x.shape[0], budget)
    rep = cond_indep_test(arr, r, m, n_resamples=9, seed=seed, pair_budget=budget)
    assert rep.statistic == _full_matrix_max_abs_corr(x, pairs)


def test_pairs_by_gap_nearest_first_and_lazy():
    full = [(i, i + g) for g in range(1, 9) for i in range(9 - g)]
    for budget in (1, 8, 20, len(full), len(full) + 5):
        assert hexch.stattests._pairs_by_gap(9, budget) == full[:budget]
    # 10^6 parents would be 5 * 10^11 pairs if enumerated before the cut
    assert hexch.stattests._pairs_by_gap(10**6, 64) == [(i, i + 1) for i in range(64)]


def _reference_lag1_corr(x):
    a = x[:, :-1].reshape(-1)
    b = x[:, 1:].reshape(-1)
    sa, sb = a.std(), b.std()
    # a side of one value correlates 0, though its std need not round to 0
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0 or sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def test_lag1_corr_matches_reference_formula():
    rng = np.random.default_rng(5)
    mats = [rng.random((p, q)) for p, q in [(1, 2), (1, 50), (3, 7), (128, 128), (40, 1000)]]
    mats += [np.round(x, 1) for x in mats]  # ties
    mats += [np.full((6, 9), 0.25), np.full((1, 5), 2.0)]
    # with one parent row x[:, :-1].reshape(-1) is a view of x
    assert np.shares_memory(mats[1][:, :-1].reshape(-1), mats[1])
    for x in mats:
        before = x.copy()
        got = hexch.stattests._lag1_corr(x)
        assert got == _reference_lag1_corr(x), x.shape
        assert type(got) is float
        np.testing.assert_array_equal(x, before)
    assert hexch.stattests._lag1_corr(np.full((6, 9), 0.25)) == 0.0
    assert hexch.stattests._lag1_corr(np.full((1, 5), 2.0)) == 0.0


def test_lag1_corr_holds_two_buffers():
    # it held five full-size temporaries (38.1 MiB at 10^6 cells) before
    # the centred rows and the products shared two buffers
    x = np.random.default_rng(3).random((200, 500))
    tracemalloc.start()
    try:
        hexch.stattests._lag1_corr(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * x.nbytes


def _reference_shuffle_pvalue(x, stat, observed, n_resamples, seed):
    # one exact statistic per resample, as before resamples were scored a
    # block at a time
    shuffler = np.random.Generator(np.random.PCG64(derive_seed(seed, "shuffle")))
    buf = np.empty_like(x)
    count = sum(
        stat(shuffler.permuted(x, axis=1, out=buf)) >= observed
        for _ in range(n_resamples)
    )
    return (1 + count) / (n_resamples + 1)


def _rows(arr, r, m, n_rows=None):
    return hexch.stattests._sibling_matrix(arr, r, m, n_rows)


def _read_rows(n_parents, budget):
    pairs = np.array(hexch.stattests._pairs_by_gap(n_parents, budget))
    rows, inv = np.unique(pairs, return_inverse=True)
    ii, jj = inv.reshape(pairs.shape).T
    return rows, ii, jj


def _assert_one_array_tests_match_reference(arr, r, m, seed, n_resamples, budget=64):
    x = _rows(arr, r, m)
    iid = conditional_iid_test(arr, r, m, n_resamples=n_resamples, seed=seed)
    rho = _reference_lag1_corr(x)
    want = _reference_shuffle_pvalue(
        x, lambda z: abs(_reference_lag1_corr(z)), abs(rho), n_resamples, seed
    )
    assert iid.statistic.hex() == rho.hex()
    assert iid.metadata["lag1_p"] == want
    if r < 2:
        return
    rows, ii, jj = _read_rows(x.shape[0], budget)
    pairs = list(zip(ii, jj))
    # the read rows, scaled by their own largest |x|
    read = _rows(arr, r, m, len(rows))
    stat = _full_matrix_max_abs_corr(read, pairs)
    want = _reference_shuffle_pvalue(
        read, lambda z: _full_matrix_max_abs_corr(z, pairs), stat, n_resamples, seed
    )
    indep = cond_indep_test(arr, r, m, n_resamples=n_resamples, seed=seed, pair_budget=budget)
    assert indep.statistic.hex() == stat.hex()
    assert indep.p_value == want


@pytest.mark.parametrize("name,r,m,seed,decimals,budget", [
    ("root-constant", 2, 6, 3, None, 64),
    ("uniform-leaf", 2, 8, 4, 1, 64),  # ties in the array
    ("product", 3, 5, 6, 0, 64),
    ("markov-leak", 2, 16, 5, None, 64),  # far outside the band
    ("uniform-leaf", 1, 8, 2, None, 64),  # one parent row
    ("uniform-leaf", 2, 2, 1, None, 64),
    ("path-mean", 3, 2, 2, None, 64),
    ("uniform-leaf", 2, 12, 1, None, 200),  # pairs with gaps above 1
])
def test_shuffle_nulls_match_per_resample_loop(name, r, m, seed, decimals, budget):
    arr = make_source(name, r, m).sample(seed)
    if decimals is not None:
        arr = np.round(arr, decimals)
    _assert_one_array_tests_match_reference(arr, r, m, seed, 99, budget)


def test_shuffle_nulls_match_per_resample_loop_at_block_edges():
    # at r=2 m=128 a block holds 8 draws of the 128 x 128 sibling matrix, and 15
    # of the 65 rows the cross-parent pairs read
    arr = _array("product", 2, 128, seed=1)
    bound = hexch.stattests._SHUFFLE_BLOCK_BYTES
    blocks = {bound // (128 * 128 * 8), bound // (65 * 128 * 8)}
    assert blocks == {8, 15}
    counts = {1, 199} | {b + d for b in blocks for d in (-1, 0, 1)}
    for n_resamples in sorted(counts):
        _assert_one_array_tests_match_reference(arr, 2, 128, 1, n_resamples)



# one draw a block, then a block large enough for all 199 draws of either test
@pytest.mark.parametrize("block_bytes", [1, 1 << 40])
def test_shuffle_nulls_match_per_resample_loop_at_block_sizes(monkeypatch, block_bytes):
    monkeypatch.setattr(hexch.stattests, "_SHUFFLE_BLOCK_BYTES", block_bytes)
    arr = _array("product", 2, 16, seed=2)
    _assert_one_array_tests_match_reference(arr, 2, 16, 2, 199)

def _count_calls(monkeypatch, name):
    calls = []
    exact = getattr(hexch.stattests, name)

    def counted(*args):
        calls.append(1)
        return exact(*args)

    monkeypatch.setattr(hexch.stattests, name, counted)
    return calls


def _infinite_band(monkeypatch, name):
    factory = getattr(hexch.stattests, name)

    def wrapped(*args):
        score = factory(*args)
        return lambda block: (score(block)[0], np.inf)

    monkeypatch.setattr(hexch.stattests, name, wrapped)


@pytest.mark.parametrize("name,r,m,seed", [
    ("markov-leak", 2, 16, 5),
    ("uniform-leaf", 2, 8, 4),
    ("uniform-leaf", 2, 2, 1),
])
def test_shuffle_nulls_recheck_everything_under_an_infinite_band(monkeypatch, name, r, m, seed):
    arr = _array(name, r, m, seed)
    want = [t(arr, r, m, n_resamples=49, seed=seed).to_json_obj()
            for t in (conditional_iid_test, cond_indep_test)]
    _infinite_band(monkeypatch, "_lag1_fast")
    _infinite_band(monkeypatch, "_max_abs_corr_fast")
    lag1 = _count_calls(monkeypatch, "_lag1_corr")
    corr = _count_calls(monkeypatch, "_max_abs_corr")
    got = [t(arr, r, m, n_resamples=49, seed=seed).to_json_obj()
           for t in (conditional_iid_test, cond_indep_test)]
    assert got == want
    # the observed statistic, then every resample
    assert (len(lag1), len(corr)) == (50, 50)


def test_shuffle_nulls_recheck_ties(monkeypatch):
    # with m = 2 a draw keeps or swaps each row of two; keeping both or
    # swapping both (half the draws) ties the observed |rho| bit for bit, and
    # every correlation of two 2-vectors is +-1, so the fast forms cannot
    # decide those draws
    arr = _array("uniform-leaf", 2, 2, seed=1)
    x = _rows(arr, 2, 2)
    value, band = hexch.stattests._lag1_fast(x)(np.stack([x, x[:, ::-1]]))
    observed = abs(hexch.stattests._lag1_corr(x))
    assert np.all(np.abs(value - observed) < band)
    lag1 = _count_calls(monkeypatch, "_lag1_corr")
    corr = _count_calls(monkeypatch, "_max_abs_corr")
    conditional_iid_test(arr, 2, 2, n_resamples=99, seed=1)
    cond_indep_test(arr, 2, 2, n_resamples=99, seed=1)
    # their p-values are checked against the per-resample loop above
    assert len(lag1) > 1 + 99 // 4
    assert len(corr) == 1 + 99


@pytest.mark.parametrize("shape", [(1, 2), (3, 7), (65, 128), (128, 128), (40, 1000)])
@pytest.mark.parametrize("rounded", [False, True])
def test_fast_shuffle_scores_stay_far_inside_their_band(shape, rounded):
    rng = np.random.default_rng(5)
    x = rng.random(shape)
    if rounded:
        x = np.round(x, 1)
    n_draws = 10 if x.size > 20_000 else 100
    block = np.stack([rng.permuted(x, axis=1) for _ in range(n_draws)])
    value, band = hexch.stattests._lag1_fast(x)(block)
    exact = np.array([abs(hexch.stattests._lag1_corr(z)) for z in block])
    if shape[1] == 2 and shape[0] == 1:
        # one lag-1 pair has no variance: the fast form is undefined
        assert np.all(band == np.inf)
    else:
        assert np.all(np.isfinite(band))
        assert np.max(np.abs(value - exact) / band) <= 1e-3
    if shape[0] < 2:
        return
    rows, ii, jj = _read_rows(shape[0], 64)
    block = block[:, rows]
    value, band = hexch.stattests._max_abs_corr_fast(x[rows], ii, jj)(block)
    exact = np.array([hexch.stattests._max_abs_corr(z, ii, jj) for z in block])
    assert np.isfinite(band)
    assert np.max(np.abs(value - exact)) <= 1e-3 * band


def test_shuffle_blocks_hold_the_draws_the_bound_fits(monkeypatch):
    # 40 parents of 40 children and all 780 of their pairs: a draw is 12.8 kB
    # and the scorer takes its pair dots from row slices of the draws, so a
    # block holds the 81 draws the bound fits
    arr = _array("uniform-leaf", 2, 40, seed=0)
    sizes = []
    factory = hexch.stattests._max_abs_corr_fast

    def recorded(*args):
        score = factory(*args)

        def counted(block):
            sizes.append(len(block))
            return score(block)

        return counted

    monkeypatch.setattr(hexch.stattests, "_max_abs_corr_fast", recorded)
    tracemalloc.start()
    try:
        rep = cond_indep_test(arr, 2, 40, n_resamples=200, seed=0, pair_budget=780)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.metadata["n_pairs"] == 780
    assert hexch.stattests._SHUFFLE_BLOCK_BYTES // (40 * 40 * 8) == 81
    assert sizes == [81, 81, 38]
    assert peak < 2 * hexch.stattests._SHUFFLE_BLOCK_BYTES


# one gap (pipeline's size), eight gaps with the last run cut, every gap
@pytest.mark.parametrize("n_parents, m, budget", [(65, 128, 64), (12, 7, 60), (40, 40, 780)])
def test_gap_slice_pair_dots_match_the_gathered_pairs(n_parents, m, budget):
    # the scorer's fast values, from dots of row slices, have the bits of the
    # same formula over a gather of each pair's two rows
    rng = np.random.default_rng(m)
    read = rng.random((n_parents, m))
    rows, ii, jj = _read_rows(n_parents, budget)
    assert np.array_equal(rows, np.arange(n_parents))
    block = np.stack([rng.permuted(read, axis=1) for _ in range(9)])
    value, _ = hexch.stattests._max_abs_corr_fast(read, ii, jj)(block)
    mean = read.mean(axis=1)
    norm = np.linalg.norm(read - mean[:, None], axis=1)
    pairs = block[:, np.stack([ii, jj])]
    dots = np.einsum("bij,bij->bi", pairs[:, 0], pairs[:, 1])
    want = np.max(np.abs((dots - m * mean[ii] * mean[jj]) * (1.0 / (norm[ii] * norm[jj]))), axis=1)
    assert value.tobytes() == want.tobytes()


# -- the sibling matrix -------------------------------------------------------------


@pytest.mark.parametrize("test", [conditional_iid_test, cond_indep_test])
def test_pit_tests_refuse_nan_leaves(test):
    arr = _array("product", 2, 8, seed=1)
    arr[5] = np.nan
    arr[40] = np.nan
    with pytest.raises(ValueError, match="leaf 5 of the array is NaN"):
        test(arr, 2, 8, seed=1)
    # a NaN outside the parents cond_indep reads is refused too
    arr[5] = 0.5
    with pytest.raises(ValueError, match="leaf 40 of the array is NaN"):
        test(arr, 2, 8, seed=1, **({"pair_budget": 1} if test is cond_indep_test else {}))
    # and so is either infinity, inside or outside those parents
    for value, text in ((np.inf, "+inf"), (-np.inf, "-inf")):
        for leaf, other, budget in ((5, 40, 64), (40, 5, 1)):
            arr[other] = 0.5
            arr[leaf] = value
            kw = {"pair_budget": budget} if test is cond_indep_test else {}
            with pytest.raises(ValueError, match=f"^leaf {leaf} of the array is {re.escape(text)}$"):
                test(arr, 2, 8, seed=1, **kw)


@pytest.mark.parametrize("test", [conditional_iid_test, cond_indep_test])
@pytest.mark.parametrize("name,r,m,seed", [
    ("product", 2, 16, 4), ("path-mean", 3, 5, 2), ("markov-leak", 2, 16, 5),
])
def test_power_of_two_scales_keep_the_reports(test, name, r, m, seed):
    # unscaled, the sum of squares of x * 2^600 overflows and that of
    # x * 2^-600 underflows; the sibling matrix is scaled so that neither does
    arr = _array(name, r, m, seed)
    want = json.dumps(test(arr, r, m, n_resamples=99, seed=seed).to_json_obj())
    for scale in (2.0**600, 2.0**-600):
        scaled = arr * scale
        assert np.vdot(scaled, scaled) in (np.inf, 0.0)
        got = test(scaled, r, m, n_resamples=99, seed=seed).to_json_obj()
        assert json.dumps(got) == want


@pytest.mark.parametrize("test", [conditional_iid_test, cond_indep_test])
@pytest.mark.parametrize("r,m,seed", [(2, 6, 0), (2, 16, 51), (3, 5, 1), (2, 100, 1)])
def test_constant_arrays_read_no_correlation(test, r, m, seed):
    # a row of one value correlates 0, though its centred values need not
    # round to 0; every draw is the array itself, so p = 1
    arr = _array("root-constant", r, m, seed)
    assert np.ptp(arr) == 0.0
    rep = test(arr, r, m, n_resamples=99, seed=seed)
    assert (rep.statistic, rep.p_value, rep.reject) == (0.0, 1.0, False)


def test_resynthesis_and_cond_indep_peak_at_a_few_array_sizes():
    # at r=2 m=600 (a 2.75 MiB array) both peaked near 15 array sizes when
    # resynthesis merged sort keys and cond_indep transformed every parent
    arr = _array("product", 2, 600, seed=0)
    h = extract_hierarchy(arr, 2, 600)
    for stage in (lambda: hexch.definetti.resynthesize(h, 2, 600, seed=0),
                  lambda: cond_indep_test(arr, 2, 600, seed=0)):
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * arr.nbytes


@pytest.mark.parametrize("test", [conditional_iid_test, cond_indep_test, hexch_test])
def test_pit_tests_reject_zero_resamples(test):
    args = ((make_source("uniform-leaf", 1, 4).sample, 1, 4) if test is hexch_test
            else (_array("uniform-leaf", 2, 4, seed=0), 2, 4))
    for bad in (0, True, False, 3.0, np.float64(5.0), "9"):
        message = ">= 1, got 0" if type(bad) is int else f"an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^n_resamples must be {re.escape(message)}$"):
            test(*args, n_resamples=bad, seed=0)


@pytest.mark.parametrize("budget", [0, -3, True, 2.5])
def test_cond_indep_rejects_empty_pair_budget(budget):
    arr = _array("uniform-leaf", 2, 4, seed=0)
    message = f">= 1, got {budget}" if type(budget) is int else f"an integer, got {budget!r}"
    with pytest.raises(ValueError, match=f"^pair_budget must be {message}$"):
        cond_indep_test(arr, 2, 4, seed=0, pair_budget=budget)


def _bad_arguments_first(test):
    """Call one public test with arguments that fail if any work is done
    before they are checked: a source that must not be called, or an array
    of the wrong size for its r and m."""
    if test is hexch_test:
        def source(seeds):
            raise AssertionError("source called before the arguments were checked")

        return lambda **kw: hexch_test(**{"source": source, "r": 2, "m": 4, "n_reps": 20, **kw})
    return lambda **kw: test(np.zeros(5), **{"r": 2, "m": 4, **kw})


_BAD_ARGUMENTS = [
    (hexch_test, "level", 7.0, "level must lie in (0, 1), got 7.0"),
    (hexch_test, "level", float("nan"), "level must be finite, got nan"),
    (hexch_test, "n_reps", 20.5, "n_reps must be an integer, got 20.5"),
    (hexch_test, "n_reps", 19, "n_reps must be >= 20, got 19"),
    (hexch_test, "n_reps", np.float64(50.0), "n_reps must be an integer, got np.float64(50.0)"),
    (hexch_test, "n", 2.5, "n must be an integer, got 2.5"),
    (hexch_test, "n", True, "n must be an integer, got True"),
    (hexch_test, "r", 2.5, "r must be an integer, got 2.5"),
    (hexch_test, "r", 0, "r must be >= 1, got 0"),
    (hexch_test, "m", 0, "m must be >= 1, got 0"),
    (hexch_test, "m", 2.5, "m must be an integer, got 2.5"),
    (hexch_test, "n_resamples", 0, "n_resamples must be >= 1, got 0"),
    (conditional_iid_test, "level", 7.0, "level must lie in (0, 1), got 7.0"),
    (conditional_iid_test, "n_resamples", 2.5, "n_resamples must be an integer, got 2.5"),
    (cond_indep_test, "level", 1.0, "level must lie in (0, 1), got 1.0"),
    (cond_indep_test, "pair_budget", 0, "pair_budget must be >= 1, got 0"),
    (cond_indep_test, "n_resamples", 0, "n_resamples must be >= 1, got 0"),
    # r and m as hexch_test checks them; the array's values are checked
    # only once its size is known to be m^r
    *[(test, name, value, f"{name} must be {bound}, got {value}")
      for test in (conditional_iid_test, cond_indep_test)
      for name in ("r", "m") for value, bound in ((2.5, "an integer"), (0, ">= 1"))],
    # a level that is no number is refused as one, not compared
    *[(test, "level", value, f"level must be a number, got {value!r}")
      for test in (hexch_test, conditional_iid_test, cond_indep_test)
      for value in ("0.05", None, [0.1])],
]


@pytest.mark.parametrize("test, name, value, message", [
    pytest.param(*row, id=f"{row[0].__name__}-{row[1]}={row[2]!r}") for row in _BAD_ARGUMENTS
])
def test_scalar_arguments_are_checked_before_any_work(test, name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _bad_arguments_first(test)(seed=0, **{name: value})


@pytest.mark.parametrize("seed", [2.5, -1, 2**64])
@pytest.mark.parametrize("test", [hexch_test, conditional_iid_test, cond_indep_test])
def test_library_seeds_must_be_64_bit_integers(test, seed):
    # seeds 2, 2.5 and 2.9 used to give one p-value, and -1 that of 2^64 - 1
    arr = _array("uniform-leaf", 2, 4, seed=0)
    calls = {
        hexch_test: lambda: hexch_test(make_source("uniform-leaf", 1, 4).sample, 1, 4,
                                       n_reps=20, n_resamples=9, seed=seed),
        conditional_iid_test: lambda: conditional_iid_test(arr, 2, 4, n_resamples=9, seed=seed),
        cond_indep_test: lambda: cond_indep_test(arr, 2, 4, n_resamples=9, seed=seed),
    }
    message = "an integer, got 2.5" if seed == 2.5 else f"in [0, {2**64 - 1}], got {seed}"
    with pytest.raises(ValueError, match=f"^seed must be {re.escape(message)}$"):
        calls[test]()


def test_reports_carry_python_scalars():
    arr = _array("uniform-leaf", 2, 4, seed=0)
    # numpy sizes too: the one-array tests' metadata reads r and m as plain ints
    r, m = np.int64(2), np.int64(4)
    reports = [
        conditional_iid_test(arr, r, m, n_resamples=9, seed=0),
        cond_indep_test(arr, r, m, n_resamples=9, seed=0),
        hexch_test(make_source("uniform-leaf", 1, 4).sample, 1, 4, n_reps=20,
                   n_resamples=9, seed=0),
    ]
    for rep in reports:
        assert type(rep.reject) is bool, rep.name
        assert type(rep.statistic) is float and type(rep.p_value) is float, rep.name
        assert all(type(v) in (int, float, bool, type(None)) for v in rep.metadata.values())


def _call_with(name, i, u, level):
    """Run test ``name`` with its integer arguments made by ``i`` or ``u``
    (numpy scalar types or ``int``) and the given ``level``."""
    kw = {"n_resamples": i(9), "level": level, "seed": u(3)}
    if name == "hexch_test":
        return hexch_test(make_source("product", 2, 4).sample, i(2), u(4), n_reps=i(20), **kw)
    if name == "hexch_test-replicas":
        return hexch_test(make_source("toy-magnetization", 2, 2, n=4).sample, u(2), i(2),
                          n=u(4), n_reps=u(20), **kw)
    arr = _array("uniform-leaf", 2, 4, seed=0)
    if name == "conditional_iid_test":
        return conditional_iid_test(arr, i(2), u(4), **kw)
    return cond_indep_test(arr, u(2), i(4), pair_budget=i(8), **kw)


@pytest.mark.parametrize("name", ["hexch_test", "hexch_test-replicas", "conditional_iid_test",
                                  "cond_indep_test"])
def test_numpy_scalar_arguments_report_as_json(name):
    # the checked arguments are handed on as Python ints and floats, so the
    # report serializes, and equals that of the Python values
    level = np.float32(0.05)
    rep = _call_with(name, np.int64, np.uint64, level)
    obj = rep.to_json_obj()
    assert json.loads(json.dumps(obj)) == obj
    assert obj == _call_with(name, int, int, float(level)).to_json_obj()
    assert type(rep.n_resamples) is int and type(rep.level) is float
    ints = [v for v in obj["metadata"].values() if isinstance(v, (int, np.integer))]
    assert ints and all(type(v) in (int, bool) for v in ints), obj["metadata"]
