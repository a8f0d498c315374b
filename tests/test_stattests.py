"""Tests for the statistical verification battery."""

import numpy as np
import pytest

import hexch.hperm
import hexch.stattests
from hexch.definetti import extract_hierarchy
from hexch.fields import derive_seed, level_values
from hexch.hperm import random_leaf_indices
from hexch.scenarios import make_level_values, make_source
from hexch.stattests import (
    TestReport,
    _energy_permutation_pvalue,
    cond_indep_test,
    conditional_iid_test,
    energy_distance,
    hexch_test,
    level_homogeneity_test,
)


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
    # room for 6 replicates' raw buffer: chunks of 6, 6, 6 and 2 per sample
    per_rep = m**r * (n or 1) * (r + 1) * (1 if n is None else 2)
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


# -- conditional i.i.d. test ---------------------------------------------------------


def _array_and_hierarchy(name, r, m, seed):
    src = make_source(name, r, m)
    arr = src.sample(seed)
    return arr, extract_hierarchy(arr, r, m)


def test_conditional_iid_null_calibration_smoke():
    rejects = 0
    for t in range(20):
        seed = derive_seed(11, "c", t)
        arr, h = _array_and_hierarchy("uniform-leaf", 2, 16, seed)
        rejects += conditional_iid_test(arr, h, seed=seed).reject
    assert rejects <= 2  # needs >= 90% non-rejection


def test_conditional_iid_markov_power_smoke():
    rejects = 0
    for t in range(10):
        seed = derive_seed(12, "m", t)
        arr, h = _array_and_hierarchy("markov-leak", 2, 16, seed)
        rejects += conditional_iid_test(arr, h, seed=seed).reject
    assert rejects >= 9


def test_conditional_iid_constant_array():
    arr = np.full(64, 0.5)
    h = extract_hierarchy(arr, 2, 8)
    rep = conditional_iid_test(arr, h, seed=1)
    # point-mass PIT is pure randomization: uniform, hence no rejection
    assert not rep.reject


def test_conditional_iid_shape_mismatch():
    arr, h = _array_and_hierarchy("uniform-leaf", 2, 4, seed=5)
    with pytest.raises(ValueError):
        conditional_iid_test(np.zeros(9), h, seed=0)


# -- conditional independence test ----------------------------------------------------


def test_cond_indep_null_calibration_smoke():
    rejects = 0
    for t in range(20):
        seed = derive_seed(21, "c", t)
        arr, h = _array_and_hierarchy("product", 2, 16, seed)
        rejects += cond_indep_test(arr, h, seed=seed).reject
    assert rejects <= 2


def test_cond_indep_sibling_coupled_power_smoke():
    rejects = 0
    for t in range(10):
        seed = derive_seed(22, "s", t)
        arr, h = _array_and_hierarchy("sibling-coupled", 2, 16, seed)
        rejects += cond_indep_test(arr, h, seed=seed).reject
    assert rejects >= 9


def test_cond_indep_requires_depth_two():
    arr, h = _array_and_hierarchy("uniform-leaf", 1, 8, seed=3)
    with pytest.raises(ValueError):
        cond_indep_test(arr, h, seed=0)


def test_cond_indep_requires_siblings():
    arr = np.array([0.3])
    h = extract_hierarchy(arr, 2, 1)
    with pytest.raises(ValueError):
        cond_indep_test(arr, h, seed=0)


def test_cond_indep_pair_budget_recorded():
    arr, h = _array_and_hierarchy("uniform-leaf", 2, 16, seed=9)
    rep = cond_indep_test(arr, h, seed=9, pair_budget=10)
    assert rep.metadata["n_pairs"] == 10


# (scenario, r, m, seed, rounding decimals, conditional_iid statistic,
#  p_value and lag1_p, cond_indep statistic and p_value) at n_resamples=99,
# recorded before the PIT tests shared their shuffle null and read the
# parent measures by position
PIT_PINNED = [
    ("uniform-leaf", 2, 8, 1, None, 0.16657562427649217, 0.78, 0.39, 0.902284841917615, 0.06),
    ("path-mean", 3, 4, 2, None, -0.2712744620925607, 1.0, 0.73, 0.9903181955351474, 0.55),
    ("root-constant", 2, 6, 3, None, -0.22898807013650696, 0.48, 0.24, 0.6894503474757002, 0.91),
    ("uniform-leaf", 2, 8, 4, 1, -0.07692712199573769, 1.0, 0.8, 0.7981187915478832, 0.49),
    ("markov-leak", 2, 16, 5, None, 0.46636626151673655, 0.02, 0.01, 0.7148080252346263, 0.18),
    ("product", 3, 5, 6, None, -0.20067157350769269, 1.0, 0.68, 0.8758475369043698, 0.98),
]


@pytest.mark.parametrize("case", PIT_PINNED, ids=lambda c: f"{c[0]}-r{c[1]}-seed{c[3]}")
def test_pit_tests_pinned_values(case):
    name, r, m, seed, decimals, iid_stat, iid_p, lag1_p, indep_stat, indep_p = case
    arr = make_source(name, r, m).sample(seed)
    if decimals is not None:
        arr = np.round(arr, decimals)
    h = extract_hierarchy(arr, r, m)
    iid = conditional_iid_test(arr, h, n_resamples=99, seed=seed)
    assert (iid.statistic, iid.p_value, iid.metadata["lag1_p"]) == (iid_stat, iid_p, lag1_p)
    indep = cond_indep_test(arr, h, n_resamples=99, seed=seed)
    assert (indep.statistic, indep.p_value) == (indep_stat, indep_p)


# cond_indep above 65 parents, where only the 65 rows the default pair budget
# reads are shuffled: (scenario, r, m, seed, statistic, p_value) at
# n_resamples=99
COND_INDEP_PINNED = [
    ("product", 2, 100, 7, 0.3209778647362196, 0.07),
]


@pytest.mark.parametrize("case", COND_INDEP_PINNED, ids=lambda c: f"{c[0]}-m{c[2]}-seed{c[3]}")
def test_cond_indep_pinned_values_many_parents(case):
    name, r, m, seed, stat, p_value = case
    arr, h = _array_and_hierarchy(name, r, m, seed)
    rep = cond_indep_test(arr, h, n_resamples=99, seed=seed)
    assert rep.metadata["n_parents"] > 65
    assert (rep.statistic, rep.p_value) == (stat, p_value)


def test_cond_indep_ignores_parents_outside_the_pair_budget():
    m = 100
    arr, h = _array_and_hierarchy("product", 2, m, seed=7)
    changed = arr.copy()
    changed[65 * m:] = changed[65 * m:][::-1]
    a = cond_indep_test(arr, h, n_resamples=49, seed=7)
    b = cond_indep_test(changed, h, n_resamples=49, seed=7)
    assert a.to_json_obj() == b.to_json_obj()


def _full_matrix_max_abs_corr(pit, pairs):
    # the statistic over every parent row, as computed before only the rows
    # the pairs read were scored
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    z = pit - pit.mean(axis=1, keepdims=True)
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
    arr, h = _array_and_hierarchy(name, r, m, seed)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "pit")))
    pit = hexch.stattests._pit_matrix(arr, h, rng)
    pairs = hexch.stattests._pairs_by_gap(pit.shape[0], budget)
    rep = cond_indep_test(arr, h, n_resamples=9, seed=seed, pair_budget=budget)
    assert rep.statistic == _full_matrix_max_abs_corr(pit, pairs)


def test_pairs_by_gap_nearest_first_and_lazy():
    full = [(i, i + g) for g in range(1, 9) for i in range(9 - g)]
    for budget in (1, 8, 20, len(full), len(full) + 5):
        assert hexch.stattests._pairs_by_gap(9, budget) == full[:budget]
    # 10^6 parents would be 5 * 10^11 pairs if enumerated before the cut
    assert hexch.stattests._pairs_by_gap(10**6, 64) == [(i, i + 1) for i in range(64)]


def _reference_lag1_corr(pit):
    a = pit[:, :-1].reshape(-1)
    b = pit[:, 1:].reshape(-1)
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def test_lag1_corr_matches_reference_formula():
    rng = np.random.default_rng(5)
    mats = [rng.random((p, q)) for p, q in [(1, 2), (1, 50), (3, 7), (128, 128), (40, 1000)]]
    mats += [np.round(x, 1) for x in mats]  # ties
    mats += [np.full((6, 9), 0.25), np.full((1, 5), 2.0)]
    # with one parent row pit[:, :-1].reshape(-1) is a view of pit
    assert np.shares_memory(mats[1][:, :-1].reshape(-1), mats[1])
    for pit in mats:
        before = pit.copy()
        got = hexch.stattests._lag1_corr(pit)
        assert got == _reference_lag1_corr(pit), pit.shape
        assert type(got) is float
        np.testing.assert_array_equal(pit, before)
    assert hexch.stattests._lag1_corr(np.full((6, 9), 0.25)) == 0.0
    assert hexch.stattests._lag1_corr(np.full((1, 5), 2.0)) == 0.0


@pytest.mark.parametrize("test", [conditional_iid_test, cond_indep_test])
def test_pit_tests_reject_zero_resamples(test):
    arr, h = _array_and_hierarchy("uniform-leaf", 2, 4, seed=0)
    with pytest.raises(ValueError, match="n_resamples must be >= 1"):
        test(arr, h, n_resamples=0, seed=0)


@pytest.mark.parametrize("budget", [0, -3])
def test_cond_indep_rejects_empty_pair_budget(budget):
    arr, h = _array_and_hierarchy("uniform-leaf", 2, 4, seed=0)
    with pytest.raises(ValueError, match="pair_budget must be >= 1"):
        cond_indep_test(arr, h, seed=0, pair_budget=budget)


def test_reports_carry_python_scalars():
    # m = 1 leaves the KS component as the conditional_iid p-value
    arr, h = _array_and_hierarchy("uniform-leaf", 2, 1, seed=0)
    arr4, h4 = _array_and_hierarchy("uniform-leaf", 2, 4, seed=0)
    by_depth = level_values(0, 2, 4)
    reports = [
        conditional_iid_test(arr, h, n_resamples=9, seed=0),
        cond_indep_test(arr4, h4, n_resamples=9, seed=0),
        hexch_test(make_source("uniform-leaf", 1, 4).sample, 1, 4, n_reps=20,
                   n_resamples=9, seed=0),
        level_homogeneity_test(by_depth, seed=0),
    ]
    for rep in reports:
        assert type(rep.reject) is bool, rep.name
        assert type(rep.statistic) is float and type(rep.p_value) is float, rep.name


# -- level homogeneity ------------------------------------------------------------------


def test_level_homogeneity_uniform_field_passes():
    rejects = 0
    for t in range(20):
        seed = derive_seed(31, "u", t)
        rejects += level_homogeneity_test(level_values(seed, 2, 32), seed=seed).reject
    assert rejects <= 2


def test_level_homogeneity_depth_shift_power():
    rejects = 0
    for t in range(20):
        seed = derive_seed(32, "s", t)
        by_depth = make_level_values("depth-shift", 2, 32, seed)
        rejects += level_homogeneity_test(by_depth, seed=seed).reject
    assert rejects >= 18


def test_level_homogeneity_single_class_errors():
    with pytest.raises(ValueError):
        level_homogeneity_test({0: np.array([0.5])}, seed=0)


# recorded before the per-depth declared laws and the randomized PIT were
# deleted, with every depth declared U[0,1]: the PIT of a value x in [0,1]
# was x exactly, so the report must not move
_PINNED_HOMOGENEITY = {
    "name": "level_homogeneity",
    "statistic": 0.671875,
    "p_value": 1.0,
    "n_resamples": 0,
    "level": 0.05,
    "reject": False,
    "metadata": {
        "components": [
            {"name": "ks@0", "stat": 0.6507545545602619, "p": 0.6984908908794762},
            {"name": "ks@1", "stat": 0.2178836550903701, "p": 0.3779964865683306},
            {"name": "ks@2", "stat": 0.05703500092720426, "p": 0.3619811583245608},
            {"name": "ks2@0|1", "stat": 0.625, "p": 0.8235294117647058},
            {"name": "ks2@0|2", "stat": 0.671875, "p": 0.6614785992217898},
            {"name": "ks2@1|2", "stat": 0.21484375, "p": 0.43808985690680347},
        ],
        "seed": 8,
    },
}


def test_level_homogeneity_cross_depth_component():
    # every pair of depths gets its two-sample component
    rep = level_homogeneity_test(level_values(8, 2, 16), seed=8)
    assert rep.to_json_obj() == _PINNED_HOMOGENEITY
