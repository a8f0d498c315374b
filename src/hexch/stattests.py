"""Statistical verification battery for hierarchically exchangeable arrays.

Exchangeability of an array law is tested across independent replicates:
one sample of arrays as generated, one sample with a freshly drawn
structure-preserving permutation applied to each replicate, compared by an
energy-distance permutation test.  Conditional structure (children i.i.d.
given their directing measure, independence across parents) is checked
through randomized probability integral transforms of leaf values against
their parent's estimated CDF.

All tests are deterministic given their seed, resample permutations
included, and report an add-one permutation p-value, so the decision at
level alpha is exact under the null.  Each test imports the scipy module
it calls on its first call, so importing this module loads numpy only.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .definetti import DirectingHierarchy
from .fields import derive_seed, derive_seeds
# random_hperm is unused here, but bench/spans.py traces it at this lookup site
from .hperm import random_hperm, random_leaf_indices  # noqa: F401
from .tree import DEFAULT_CELL_CAP

__all__ = [
    "TestReport",
    "energy_distance",
    "hexch_test",
    "kept_dimension",
    "conditional_iid_test",
    "cond_indep_test",
    "level_homogeneity_test",
]


@dataclass
class TestReport:
    """Outcome of one statistical check."""

    __test__ = False  # not a pytest case despite the name

    name: str
    statistic: float
    p_value: float
    n_resamples: int
    level: float
    reject: bool
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0,1]")

    def to_json_obj(self) -> dict:
        return asdict(self)


def energy_distance(sample_a, sample_b) -> float:
    """Two-sample energy statistic 2 E|a-b| - E|a-a'| - E|b-b'|.

    Means are taken over all ordered pairs (the V-statistic convention, zero
    diagonal included), which keeps the statistic nonnegative; it vanishes
    exactly when the two empirical distributions coincide.
    """
    from scipy.spatial.distance import cdist

    a = np.atleast_2d(np.asarray(sample_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(sample_b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    dab = cdist(a, b).mean()
    daa = cdist(a, a).mean()
    dbb = cdist(b, b).mean()
    return float(2.0 * dab - daa - dbb)


def _energy_permutation_pvalue(
    a: np.ndarray, b: np.ndarray, n_resamples: int, seed: int
) -> tuple[float, float]:
    """Observed energy statistic and its add-one permutation p-value.

    The pooled rows are put in canonical (lexicographic) order before the
    resample splits are drawn, so the p-value is exactly invariant under any
    reordering of the replicates within each sample.
    """
    from scipy.spatial.distance import cdist

    ka = a.shape[0]
    pool = np.vstack([a, b])
    labels = np.zeros(pool.shape[0], dtype=np.float64)
    labels[:ka] = 1.0
    order = np.lexsort(pool.T[::-1])
    pool = pool[order]
    labels = labels[order]
    dmat = cdist(pool, pool)
    n_tot = pool.shape[0]
    kb = n_tot - ka
    total = dmat.sum()

    def stats(masks: np.ndarray) -> np.ndarray:
        # masks: (R, n_tot) indicator rows for the first group
        t = masks @ dmat
        saa = np.einsum("ij,ij->i", t, masks)
        rowsum = t.sum(axis=1)
        sbb = total - 2.0 * rowsum + saa
        sab = rowsum - saa
        return 2.0 * sab / (ka * kb) - saa / (ka * ka) - sbb / (kb * kb)

    observed = float(stats(labels[None, :])[0])
    rng = np.random.Generator(np.random.PCG64(seed))
    # one stacked draw consumes the stream as n_resamples permutation calls do
    perm = rng.permuted(np.broadcast_to(np.arange(n_tot), (n_resamples, n_tot)), axis=1)
    masks = np.zeros((n_resamples, n_tot), dtype=np.float64)
    np.put_along_axis(masks, perm[:, :ka], 1.0, axis=1)
    count = int(np.sum(stats(masks) >= observed))
    p = (1 + count) / (n_resamples + 1)
    return observed, p


_MARGINAL_SUBSET = 64


def kept_dimension(r: int, m: int, n: int | None = None) -> int:
    """Number of flattened coordinates per replicate that :func:`hexch_test`
    compares.

    Small single-tree truncations (m <= 8, r <= 3) keep every leaf, as does
    any array of at most 64 entries; otherwise a fixed 64-coordinate subset
    is kept.
    """
    dim = m**r * (1 if n is None else n)
    if (n is None and m <= 8 and r <= 3) or dim <= _MARGINAL_SUBSET:
        return dim
    return _MARGINAL_SUBSET


def _marginal_indices(dim: int, r: int, m: int, n, seed: int) -> np.ndarray | None:
    """Flattened coordinates entering the test statistic, or None for all:
    the subset of :func:`kept_dimension`, drawn once from the seed."""
    if kept_dimension(r, m, n) == dim:
        return None
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "marginal-subset")))
    return np.sort(rng.choice(dim, size=_MARGINAL_SUBSET, replace=False))


def _check_resamples(n_resamples: int) -> None:
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")


def hexch_test(
    source,
    r: int,
    m: int,
    *,
    n: int | None = None,
    n_reps: int = 50,
    n_resamples: int = 199,
    level: float = 0.05,
    seed: int = 0,
) -> TestReport:
    """Permutation test of hierarchical exchangeability of an array law.

    ``source`` maps a seed or a 1-D sequence of K seeds to one array or K
    stacked arrays over the ``{1..m}^r`` truncation, as
    :attr:`ArraySource.sample <hexch.scenarios.ArraySource>` does.  It is
    called with sequences only and must return shape ``(K, m^r)``, or
    ``(K, m^r, n)`` when ``n`` is given, in which case a replica-axis
    permutation is applied jointly with the tree permutation.  Two samples
    of ``n_reps`` independent replicates are compared: arrays as generated
    versus arrays with a freshly drawn structure-preserving permutation
    applied to each replicate.  Each sample is one ``source`` call, split
    into chunks only where its raw buffer would pass ``DEFAULT_CELL_CAP``;
    the maps of a chunk are one :func:`~hexch.hperm.random_leaf_indices`
    call.
    Under an exchangeable law both samples share one distribution and the
    p-value is exact.
    """
    if n_reps < 20:
        raise ValueError(f"insufficient replicates: n_reps={n_reps} < 20")
    _check_resamples(n_resamples)
    if n is not None and n < 1:
        raise ValueError("n must be >= 1")
    shape, form = ((m**r,), "(K, m^r)") if n is None else ((m**r, n), "(K, m^r, n)")
    dim = m**r * (1 if n is None else n)
    keep = _marginal_indices(dim, r, m, n, seed)
    # replicates per source call: their raw buffer (replicates x cells x path
    # columns, twice the columns with replicas) stays within the cell cap
    chunk = max(1, DEFAULT_CELL_CAP // (dim * (r + 1) * (1 if n is None else 2)))

    seeds = {role: derive_seeds(seed, role, n_reps) for role in ("rep-a", "rep-b", "perm", "rho")}

    def replicates(role: str, permute: bool) -> np.ndarray:
        rows = []
        for lo in range(0, n_reps, chunk):
            hi = min(lo + chunk, n_reps)
            x = source(seeds[role][lo:hi])
            want = (hi - lo,) + shape
            if np.shape(x) != want:
                raise ValueError(
                    f"source returned shape {np.shape(x)} for K={hi - lo} seeds; "
                    f"expected {form} = {want}"
                )
            x = np.asarray(x, dtype=np.float64)
            if permute:
                # one gather applies every replicate's map (and replica permutation)
                kk = np.arange(hi - lo)[:, None]
                idx = random_leaf_indices(r, m, seeds["perm"][lo:hi])
                if n is None:
                    x = x[kk, idx]
                else:
                    rho = np.stack([
                        np.random.Generator(np.random.PCG64(s)).permutation(n)
                        for s in seeds["rho"][lo:hi]
                    ])
                    x = x[kk[:, :, None], idx[:, :, None], rho[:, None, :]]
            x = x.reshape(hi - lo, -1)
            rows.append(x if keep is None else x[:, keep])
        return np.concatenate(rows)

    a_rows = replicates("rep-a", permute=False)
    b_rows = replicates("rep-b", permute=True)

    observed, p = _energy_permutation_pvalue(
        a_rows, b_rows, n_resamples, derive_seed(seed, "resample")
    )
    return TestReport(
        name="hexch",
        statistic=observed,
        p_value=p,
        n_resamples=n_resamples,
        level=level,
        reject=p < level,
        metadata={
            "r": r,
            "m": m,
            "n": n,
            "n_reps": n_reps,
            "seed": seed,
            "dim": int(dim if keep is None else keep.size),
            "joint_replica_perm": n is not None,
        },
    )


def _pit_matrix(
    array, hierarchy: DirectingHierarchy, rng: np.random.Generator
) -> np.ndarray:
    """Randomized PIT of each leaf through its parent's level-0 CDF.

    Values landing on an atom are spread uniformly across the CDF jump, so
    the transform of an i.i.d.-within-parent block is exactly uniform.
    Shape (parents, m) in lexicographic order.
    """
    r, m = hierarchy.r, hierarchy.m
    arr = np.asarray(array, dtype=np.float64).reshape(-1)
    if arr.size != m**r:
        raise ValueError(
            f"shape mismatch: array has {arr.size} values, hierarchy expects {m**r}"
        )
    blocks = arr.reshape(m ** (r - 1), m)
    lo, hi = hierarchy.parent_cdfs(blocks)
    return lo + rng.random(blocks.shape) * (hi - lo)


def conditional_iid_test(
    array,
    hierarchy: DirectingHierarchy,
    *,
    n_resamples: int = 199,
    level: float = 0.05,
    seed: int = 0,
) -> TestReport:
    """Check that sibling values behave i.i.d. given their parent measure.

    Pools the randomized PIT values and KS-tests them against uniformity,
    and tests the within-parent lag-1 autocorrelation of the PIT sequence
    against a shuffle null.  The reported p-value is the Bonferroni
    combination of the two components.
    """
    import scipy.stats

    _check_resamples(n_resamples)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "pit")))
    pit = _pit_matrix(array, hierarchy, rng)
    n_parents, m = pit.shape

    ks_stat, ks_p = scipy.stats.kstest(pit.reshape(-1), "uniform")

    components = {"ks_stat": float(ks_stat), "ks_p": float(ks_p)}
    # a numpy p-value would make `reject` a numpy bool, which JSON cannot encode
    pvals = [float(ks_p)]
    rho = 0.0
    if m >= 2:
        rho = _lag1_corr(pit)
        rho_p = _shuffle_pvalue(
            pit, lambda z: abs(_lag1_corr(z)), abs(rho), n_resamples, seed
        )
        components.update({"lag1_corr": float(rho), "lag1_p": float(rho_p)})
        pvals.append(rho_p)
    p = min(1.0, len(pvals) * min(pvals))
    return TestReport(
        name="conditional_iid",
        statistic=float(rho),
        p_value=float(p),
        n_resamples=n_resamples,
        level=level,
        reject=p < level,
        metadata={"n_parents": n_parents, "m": m, "seed": seed, **components},
    )


def _shuffle_pvalue(pit: np.ndarray, stat, observed: float, n_resamples: int, seed: int) -> float:
    """Add-one p-value of ``stat(pit) >= observed`` under the null that
    shuffles each row of ``pit`` (one parent's children) independently
    (seed role "shuffle").  Callers pass only the parent rows their
    statistic reads.  Each resample is drawn into one reused buffer, which
    consumes the PCG64 stream exactly as a fresh ``permuted`` call does;
    ``stat`` must not keep a reference to its argument."""
    shuffler = np.random.Generator(np.random.PCG64(derive_seed(seed, "shuffle")))
    buf = np.empty_like(pit)
    count = sum(
        stat(shuffler.permuted(pit, axis=1, out=buf)) >= observed
        for _ in range(n_resamples)
    )
    return (1 + count) / (n_resamples + 1)


def _lag1_corr(pit: np.ndarray) -> float:
    # one centred pass; the same sums as a.mean()/a.std(), so the same bits.
    # Never write into a or b: with one parent row, a is a view of pit.
    a = pit[:, :-1].reshape(-1)
    b = pit[:, 1:].reshape(-1)
    n = a.size
    da = a - np.add.reduce(a) / n
    db = b - np.add.reduce(b) / n
    sa = np.sqrt(np.add.reduce(da * da) / n)
    sb = np.sqrt(np.add.reduce(db * db) / n)
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.add.reduce(da * db) / n / (sa * sb))


def _pairs_by_gap(n_parents: int, budget: int) -> list[tuple[int, int]]:
    # nearest parents first, so local couplings always fit in the budget;
    # lazily, since all n_parents^2 / 2 pairs would not fit in memory
    pairs = ((i, i + gap) for gap in range(1, n_parents) for i in range(n_parents - gap))
    return list(itertools.islice(pairs, budget))


def cond_indep_test(
    array,
    hierarchy: DirectingHierarchy,
    *,
    n_resamples: int = 199,
    level: float = 0.05,
    seed: int = 0,
    pair_budget: int = 64,
) -> TestReport:
    """Check independence of children across distinct parents.

    PIT-transforms each parent's children, then takes the maximal absolute
    correlation over a fixed budget of parent pairs (nearest pairs first).
    The null distribution is obtained by independently shuffling each
    parent's children, which preserves within-parent exchangeability while
    destroying cross-parent index alignment.  Only the parents that the
    pairs read are shuffled and scored (at most ``pair_budget + 1`` rows);
    the others never enter the statistic.
    """
    if hierarchy.r < 2:
        raise ValueError("cross-parent check needs tree depth r >= 2")
    if hierarchy.m < 2:
        raise ValueError("no sibling pairs: m must be >= 2")
    if pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")
    _check_resamples(n_resamples)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "pit")))
    pit = _pit_matrix(array, hierarchy, rng)
    n_parents, m = pit.shape
    pairs = np.array(_pairs_by_gap(n_parents, pair_budget))
    rows, inv = np.unique(pairs, return_inverse=True)
    ii, jj = inv.reshape(pairs.shape).T

    def max_abs_corr(mat: np.ndarray) -> float:
        z = mat - mat.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(z, axis=1)
        norms[norms == 0.0] = 1.0
        z /= norms[:, None]
        return float(np.max(np.abs(np.einsum("ij,ij->i", z[ii], z[jj]))))

    read = pit[rows]
    observed = max_abs_corr(read)
    p = _shuffle_pvalue(read, max_abs_corr, observed, n_resamples, seed)
    return TestReport(
        name="cond_indep",
        statistic=observed,
        p_value=float(p),
        n_resamples=n_resamples,
        level=level,
        reject=p < level,
        metadata={
            "n_parents": n_parents,
            "m": m,
            "n_pairs": len(pairs),
            "seed": seed,
        },
    )


def level_homogeneity_test(
    values_by_depth: dict,
    *,
    level: float = 0.05,
    seed: int = 0,
) -> TestReport:
    """Check realized field values against the uniform law at every depth.

    Each depth class is KS-tested against U[0,1], and every pair of depths
    gets a two-sample KS check.  Component p-values combine by Bonferroni.
    The test draws nothing; ``seed`` is recorded in the report.
    """
    import scipy.stats

    if len(values_by_depth) < 2:
        raise ValueError("need at least two populated depth classes")
    keys = sorted(values_by_depth)
    vals = {k: np.asarray(values_by_depth[k], dtype=np.float64).reshape(-1) for k in keys}
    components = []
    for key in keys:
        stat, p = scipy.stats.kstest(vals[key], "uniform")
        components.append((f"ks@{key}", float(stat), float(p)))
    for ka, kb in itertools.combinations(keys, 2):
        stat, p = scipy.stats.ks_2samp(vals[ka], vals[kb])
        components.append((f"ks2@{ka}|{kb}", float(stat), float(p)))
    k = len(components)
    p = min(1.0, k * min(c[2] for c in components))
    stat = max(c[1] for c in components)
    return TestReport(
        name="level_homogeneity",
        statistic=stat,
        p_value=float(p),
        n_resamples=0,
        level=level,
        reject=p < level,
        metadata={
            "components": [
                {"name": n_, "stat": s_, "p": p_} for n_, s_, p_ in components
            ],
            "seed": seed,
        },
    )
