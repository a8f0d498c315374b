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
level alpha is exact under the null.  The one-sample KS p-values come from
:func:`hexch._ks.ks_uniform`, an in-package port of scipy's exact
algorithms, so the PIT tests run on numpy alone (a p-value in Smirnov's
tail imports ``scipy.special``).  ``hexch_test`` (``scipy.spatial``) and
the two-sample components of ``level_homogeneity_test`` (``scipy.stats``)
import scipy on their first call, so importing this module loads numpy
only.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from ._ks import ks_uniform
from .definetti import DirectingHierarchy, _lex_order
from .fields import _seed_int, derive_seed, derive_seeds
# random_hperm is unused here, but bench/spans.py traces it at this lookup site
from .hperm import random_hperm, random_leaf_indices  # noqa: F401
from .tree import DEFAULT_CELL_CAP, _check_size, _is_size

__all__ = [
    "TestReport",
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
        _check_level(self.level)

    def to_json_obj(self) -> dict:
        return asdict(self)


def _energy_permutation_pvalue(
    a: np.ndarray, b: np.ndarray, n_resamples: int, seed: int
) -> tuple[float, float]:
    """Observed energy statistic and its add-one permutation p-value.

    The pooled rows are put in canonical (lexicographic) order before the
    resample splits are drawn, so the p-value is exactly invariant under any
    reordering of the replicates within each sample.  The distance matrix
    is ``squareform(pdist(pool))``, which computes each pair once and has
    the bits of ``cdist(pool, pool)``; the resample masks are set by one
    fancy assignment.
    """
    from scipy.spatial.distance import pdist, squareform

    ka = a.shape[0]
    pool = np.vstack([a, b])
    labels = np.zeros(pool.shape[0], dtype=np.float64)
    labels[:ka] = 1.0
    order = _lex_order(pool.T)
    pool = pool[order]
    labels = labels[order]
    dmat = squareform(pdist(pool))
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
    masks[np.arange(n_resamples)[:, None], perm[:, :ka]] = 1.0
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


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level {level} outside (0,1)")


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
    call.  Only the coordinates the statistic reads (:func:`kept_dimension`)
    are gathered: with replicas, kept flat coordinate j of a permuted
    replicate reads leaf j // n and replica j % n through one gather.  A
    NaN or infinite value among them raises ``ValueError`` naming its
    sample (``rep-a`` or ``rep-b``) and replicate.
    Under an exchangeable law both samples share one distribution and the
    p-value is exact.
    """
    _check_level(level)
    # n=None means no replica axis
    for name, size in {"r": r, "m": m, "n": 1 if n is None else n}.items():
        _check_size(name, size)
    if not (_is_size(n_reps) and n_reps >= 20):
        raise ValueError(f"insufficient replicates: n_reps must be >= 20 and an integer, "
                         f"got {n_reps!r}")
    _check_size("n_resamples", n_resamples)
    shape, form = ((m**r,), "(K, m^r)") if n is None else ((m**r, n), "(K, m^r, n)")
    dim = m**r * (1 if n is None else n)
    keep = _marginal_indices(dim, r, m, n, seed)
    # replicates per source call: their raw buffer (replicates x cells x path
    # columns, twice the columns with replicas) stays within the cell cap
    chunk = max(1, DEFAULT_CELL_CAP // (dim * (r + 1) * (1 if n is None else 2)))

    seeds = {role: derive_seeds(seed, role, n_reps) for role in ("rep-a", "rep-b", "perm", "rho")}
    if n is not None:
        # kept flat coordinate j of a replicate reads leaf j // n, replica j % n
        leaf, rep = divmod(np.arange(dim) if keep is None else keep, n)

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
                kk = np.arange(hi - lo)[:, None]
                idx = random_leaf_indices(r, m, seeds["perm"][lo:hi])
                if n is not None:
                    rho = np.stack([
                        np.random.Generator(np.random.PCG64(s)).permutation(n)
                        for s in seeds["rho"][lo:hi]
                    ])
                    # one gather of the kept coordinates applies every
                    # replicate's map and replica permutation
                    rows.append(x[kk, idx[:, leaf], rho[:, rep]])
                    continue
                # one gather applies every replicate's map
                x = x[kk, idx]
            x = x.reshape(hi - lo, -1)
            rows.append(x if keep is None else x[:, keep])
        x = np.concatenate(rows)
        finite = np.isfinite(x)
        if not finite.all():
            k = int(np.argmin(finite.all(axis=1)))
            raise ValueError(f"replicate {k} of sample {role!r} holds a non-finite value")
        return x

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
    array, hierarchy: DirectingHierarchy, rng: np.random.Generator, n_rows: int | None = None
) -> np.ndarray:
    """Randomized PIT of each leaf through its parent's level-0 CDF.

    Values landing on an atom are spread uniformly across the CDF jump, so
    the transform of an i.i.d.-within-parent block is exactly uniform.
    Shape (parents, m) in lexicographic order, or only the first ``n_rows``
    parents, which take the first ``n_rows * m`` uniforms of ``rng``, as
    they do in the whole matrix.  The CDFs and uniforms are made a block of
    rows at a time (:meth:`DirectingHierarchy._cdf_blocks`).  A NaN leaf,
    which would count every atom, is refused, wherever it is.
    """
    r, m = hierarchy.r, hierarchy.m
    arr = np.asarray(array, dtype=np.float64).reshape(-1)
    if arr.size != m**r:
        raise ValueError(
            f"shape mismatch: array has {arr.size} values, hierarchy expects {m**r}"
        )
    # x·x is NaN exactly when some x is (a sum of squares has no inf - inf),
    # and it takes no array of flags
    if np.isnan(np.dot(arr, arr)):
        raise ValueError(f"leaf {int(np.isnan(arr).argmax())} of the array is NaN")
    blocks = arr.reshape(m ** (r - 1), m)[:n_rows]
    pit = np.empty(blocks.shape)
    for rows, lo, hi in hierarchy._cdf_blocks(blocks, slice(0, len(blocks))):
        # lo + u (hi - lo), in place: both operations commute bit for bit
        hi -= lo
        hi *= rng.random(hi.shape)
        np.add(lo, hi, out=pit[rows])
    return pit


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
    _check_level(level)
    _check_size("n_resamples", n_resamples)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "pit")))
    pit = _pit_matrix(array, hierarchy, rng)
    n_parents, m = pit.shape

    ks_stat, ks_p = ks_uniform(pit)

    components = {"ks_stat": ks_stat, "ks_p": ks_p}
    pvals = [ks_p]
    rho = 0.0
    if m >= 2:
        rho = _lag1_corr(pit)
        rho_p = _shuffle_pvalue(
            pit, abs(rho), n_resamples, seed, _lag1_fast(pit), lambda z: abs(_lag1_corr(z))
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


# The most bytes one block of _shuffle_pvalue's draws takes.  Smaller than
# hexch.definetti._BLOCK_BYTES (8 MiB): on the pipeline bench (r=2 m=128)
# an 8 MiB block raised peak RSS from 109.6 to 116.0 MB and ran no faster
# (median 6.71 against 7.08 ops/s over five alternating pairs).
_SHUFFLE_BLOCK_BYTES = 1 << 20
_EPS = np.finfo(np.float64).eps


def _shuffle_pvalue(pit: np.ndarray, observed: float, n_resamples: int, seed: int,
                    fast, exact) -> float:
    """Add-one p-value of ``exact(z) >= observed`` under the null that
    shuffles each row of ``pit`` (one parent's children) independently
    (seed role "shuffle").  Callers pass only the parent rows their
    statistic reads.

    Each draw ``z`` is ``permuted(pit, axis=1, out=...)`` into the next slot
    of one reused block of draws, which consumes the PCG64 stream exactly as
    a fresh ``permuted`` call per resample does.  A block holds
    ``_SHUFFLE_BLOCK_BYTES // pit.nbytes`` draws (at least one): the
    scorers read views of the draws and allocate per draw only a few
    floats, or one per pair of a gap.  ``fast(block)`` scores a whole block
    at once from moments the shuffle leaves unchanged: it returns each
    draw's fast value and a band that bounds the distance between that
    value and ``exact(z)`` (infinite where the fast form is undefined).  A
    draw whose fast value lies beyond the band on either side of
    ``observed`` is counted by it; a draw inside the band is scored by
    ``exact``.  Each draw is thus counted exactly as ``exact`` counts it,
    and the p-value has the bits of a loop of ``exact`` over the draws."""
    shuffler = np.random.Generator(np.random.PCG64(derive_seed(seed, "shuffle")))
    size = min(n_resamples, max(1, _SHUFFLE_BLOCK_BYTES // pit.nbytes))
    block = np.empty((size,) + pit.shape)
    count = 0
    for lo in range(0, n_resamples, size):
        draws = block[: n_resamples - lo]
        for z in draws:
            shuffler.permuted(pit, axis=1, out=z)
        value, band = fast(draws)
        above = value - band >= observed
        below = value + band < observed
        count += int(np.count_nonzero(above))
        # NaN lands here too: neither comparison holds
        count += sum(exact(draws[j]) >= observed for j in np.flatnonzero(~(above | below)))
    return (1 + count) / (n_resamples + 1)


def _lag1_corr(pit: np.ndarray) -> float:
    # one centred pass; the same sums as a.mean()/a.std(), so the same bits.
    # Two buffers: the centred a = pit[:, :-1] and its squares, which give
    # way to the centred b = pit[:, 1:] once summed; the cross products go
    # into a's buffer and b's squares into b's.
    k, m = pit.shape
    n = k * (m - 1)
    da = pit[:, :-1].flatten()
    da -= np.add.reduce(da) / n
    db = np.multiply(da, da)
    sa = np.sqrt(np.add.reduce(db) / n)
    db.reshape(k, m - 1)[...] = pit[:, 1:]
    db -= np.add.reduce(db) / n
    cross = np.add.reduce(np.multiply(da, db, out=da)) / n
    sb = np.sqrt(np.add.reduce(np.multiply(db, db, out=db)) / n)
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(cross / (sa * sb))


def _lag1_fast(pit: np.ndarray):
    """Block scorer of ``|_lag1_corr|`` over row shuffles of ``pit``.

    A shuffle within rows keeps the total S and the sum of squares Q of the
    k x m cells.  For a draw with first column f and last column l, the
    n = k(m-1) lag-1 pairs (a, b) have Σa = S - Σl, Σb = S - Σf,
    Σa² = Q - Σl², Σb² = Q - Σf², and Σab is the dot of the flat draw with
    itself shifted by one, minus the k-1 products l[i] f[i+1] that cross a
    row boundary.  The correlation follows from these raw moments.  Every
    moment is read from views of the draws, so the scorer needs no scratch
    beyond a few floats per draw.

    Band.  A sum of N terms is off by at most N eps Σ|terms|, and Σ|x| over
    the N = km cells is at most sqrt(N Q).  So each raw moment, each product
    of means and the centred sums of ``_lag1_corr`` are within
    δ = 3 (N + k + 4) eps Q / n of their exact values.  Where the smaller
    variance v exceeds 4δ, the fast correlation is within 2δ/v of the true
    one, and ``_lag1_corr`` within (n + 8) eps < δ/v of it, so 3δ/v bounds
    their distance, whatever order each sum is taken in.  The band is 64
    times that, 192δ/v, so that the neglected second-order terms stay far
    inside it; a draw falls inside
    with probability about the band times the null density.  Where
    v <= 4δ (near-constant pairs) the fast form is undefined and the band
    is infinite.
    """
    k, m = pit.shape
    n = k * (m - 1)
    total = np.add.reduce(pit, axis=None)
    total_sq = np.vdot(pit, pit)
    delta = 3 * (pit.size + k + 4) * _EPS * total_sq / n

    def score(block: np.ndarray):
        flat = block.reshape(len(block), -1)
        first, last = block[:, :, 0], block[:, :, -1]
        mean_a = (total - last.sum(axis=1)) / n
        mean_b = (total - first.sum(axis=1)) / n
        var_a = (total_sq - np.einsum("ij,ij->i", last, last)) / n - mean_a * mean_a
        var_b = (total_sq - np.einsum("ij,ij->i", first, first)) / n - mean_b * mean_b
        cross = np.matmul(flat[:, None, :-1], flat[:, 1:, None]).reshape(-1)
        cross -= np.einsum("ij,ij->i", last[:, :-1], first[:, 1:])
        cov = cross / n - mean_a * mean_b
        v = np.minimum(var_a, var_b)
        ok = v > 4 * delta
        value = np.abs(cov) / np.sqrt(np.where(ok, var_a * var_b, 1.0))
        return value, np.where(ok, 192 * delta / np.where(ok, v, 1.0), np.inf)

    return score


def _max_abs_corr(mat: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> float:
    """Largest |correlation| between rows ``ii[p]`` and ``jj[p]`` of ``mat``
    (a constant row correlates 0 with every row)."""
    z = mat - mat.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    z /= norms[:, None]
    return float(np.max(np.abs(np.einsum("ij,ij->i", z[ii], z[jj]))))


def _max_abs_corr_fast(read: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    """Block scorer of ``_max_abs_corr(z, ii, jj)`` over row shuffles of
    ``read``, for pairs in :func:`_pairs_by_gap` order.

    A shuffle within rows keeps each row's mean μ, centred norm ‖z‖ and
    norm ‖x‖, so a pair's correlation is (x_i · x_j - m μ_i μ_j) / (‖z_i‖ ‖z_j‖)
    and a draw costs only the pair dot products.  The pairs of gap g are
    the run (i, i + g), i = 0, 1, ..., so their dots are taken between two
    row slices of the draws, ``[:c]`` and ``[g : g + c]``, with no gather.

    Band.  With w = ‖x‖ / ‖z‖ per row (at least 1), a dot of m terms is off
    by at most m eps ‖x_i‖ ‖x_j‖, and the means and norms (taken once) by
    about m eps relative to ‖x‖ and ‖z‖.  So the fast correlation is within
    (3m + 6) eps w_i w_j + (m + 7) eps of the true one, and ``_max_abs_corr``
    within (2m + 10) eps of it, so 8 (m + 8) eps max(w_i w_j) bounds their
    distance.  The band is 64 times that, for the neglected second-order
    terms, which stay small while the band is below 1/4; beyond that (a
    near-constant row) the band is infinite.
    """
    m = read.shape[1]
    mean = read.mean(axis=1)
    norm = np.linalg.norm(read - mean[:, None], axis=1)
    w = np.divide(np.linalg.norm(read, axis=1), norm, out=np.full(len(norm), np.inf),
                  where=norm > 0.0)
    band = 512 * (m + 8) * _EPS * np.max(w[ii] * w[jj])
    if not band < 0.25:
        band = np.inf
    norm[norm == 0.0] = 1.0
    shift = m * mean[ii] * mean[jj]
    scale = 1.0 / (norm[ii] * norm[jj])
    # each gap, its first pair and its pair count
    gaps = np.unique(jj - ii, return_index=True, return_counts=True)
    runs = list(zip(*(x.tolist() for x in gaps)))

    def score(block: np.ndarray):
        # one gap's run at a time, so the scratch is a float per pair of the run
        value = np.zeros(len(block))
        for g, lo, c in runs:
            dots = np.einsum("bij,bij->bi", block[:, :c], block[:, g : g + c])
            dots -= shift[lo : lo + c]
            dots *= scale[lo : lo + c]
            np.maximum(value, np.max(np.abs(dots, out=dots), axis=1), out=value)
        return value, band

    return score


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
    pairs read are transformed, shuffled and scored: nearest pairs first,
    they are the first ``R <= pair_budget + 1`` parents, whose PITs take
    the first ``R m`` uniforms, as they do in the whole PIT matrix.  The
    others never enter the statistic.
    """
    _check_level(level)
    if hierarchy.r < 2:
        raise ValueError("cross-parent check needs tree depth r >= 2")
    if hierarchy.m < 2:
        raise ValueError("no sibling pairs: m must be >= 2")
    _check_size("pair_budget", pair_budget)
    _check_size("n_resamples", n_resamples)
    m = hierarchy.m
    n_parents = m ** (hierarchy.r - 1)
    pairs = np.array(_pairs_by_gap(n_parents, pair_budget))
    ii, jj = pairs.T
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "pit")))
    read = _pit_matrix(array, hierarchy, rng, int(jj.max()) + 1)
    observed = _max_abs_corr(read, ii, jj)
    p = _shuffle_pvalue(
        read, observed, n_resamples, seed, _max_abs_corr_fast(read, ii, jj),
        lambda z: _max_abs_corr(z, ii, jj),
    )
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

    Each depth class is KS-tested against U[0,1] (:func:`ks_uniform`), and
    every pair of depths gets a two-sample KS check (``scipy.stats``).
    Component p-values combine by Bonferroni.  The test draws nothing;
    ``seed``, an integer in [0, 2^64) as the other tests take, is recorded
    in the report.  An empty depth class, or one with a NaN, raises
    ``ValueError``.
    """
    _check_level(level)
    _seed_int(seed)
    import scipy.stats

    if len(values_by_depth) < 2:
        raise ValueError("need at least two populated depth classes")
    keys = sorted(values_by_depth)
    vals = {k: np.asarray(values_by_depth[k], dtype=np.float64).reshape(-1) for k in keys}
    for key, x in vals.items():
        # a NaN component p-value would drop out of the Bonferroni minimum
        if not x.size or np.isnan(x).any():
            raise ValueError(f"depth {key!r} of the field values is empty or holds a NaN")
    components = [(f"ks@{key}", *ks_uniform(vals[key])) for key in keys]
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
