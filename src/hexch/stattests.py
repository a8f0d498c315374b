"""Statistical verification battery for hierarchically exchangeable arrays.

Exchangeability of an array law is tested across independent replicates:
one sample of arrays as generated, one sample with a freshly drawn
structure-preserving permutation applied to each replicate, compared by an
energy-distance permutation test.  Conditional structure (children i.i.d.
given their directing measure, independence across parents) is checked on
the sibling matrix of one array, each parent's m children in a row.  Under
hierarchical exchangeability the children of each parent may be rearranged
independently without changing the law, so a null that shuffles each row
is exact for any statistic of the rows.  These one-array tests take the
array and its shape ``(r, m)`` alone, and no hierarchy is extracted for
them.

All tests are deterministic given their seed, resample permutations
included, and report an add-one permutation p-value, so the decision at
level alpha is exact under the null.  The one-array tests run on numpy
alone; ``hexch_test`` imports ``scipy.spatial`` on its first call, so
importing this module loads numpy only.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .definetti import _lex_order
from .fields import derive_seed, derive_seeds
# random_hperm is unused here, but bench/spans.py traces it at this lookup site
from .hperm import random_hperm, random_leaf_indices  # noqa: F401
from .tree import _SEED_MAX, DEFAULT_CELL_CAP, _integer, _number

__all__ = [
    "TestReport",
    "hexch_test",
    "kept_dimension",
    "conditional_iid_test",
    "cond_indep_test",
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
        self.level = _level(self.level)

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


def _level(value, name: str = "level") -> float:
    """``value`` as a float in (0, 1), the level of a test."""
    level = _number(value, name)
    if not 0.0 < level < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {level}")
    return level


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
    into chunks only where its cells would pass ``DEFAULT_CELL_CAP``;
    the maps of a chunk are one :func:`~hexch.hperm.random_leaf_indices`
    call.  Only the coordinates the statistic reads (:func:`kept_dimension`)
    are gathered: with replicas, kept flat coordinate j of a permuted
    replicate reads leaf j // n and replica j % n through one gather.  A
    NaN or infinite value among them raises ``ValueError`` naming its
    sample (``rep-a`` or ``rep-b``) and replicate.
    Under an exchangeable law both samples share one distribution and the
    p-value is exact.
    """
    level = _level(level)
    r, m = _integer(r, "r"), _integer(m, "m")
    # n=None means no replica axis
    n = None if n is None else _integer(n, "n")
    n_reps = _integer(n_reps, "n_reps", 20)
    n_resamples = _integer(n_resamples, "n_resamples")
    seed = _integer(seed, "seed", 0, _SEED_MAX)
    shape, form = ((m**r,), "(K, m^r)") if n is None else ((m**r, n), "(K, m^r, n)")
    dim = m**r * (1 if n is None else n)
    keep = _marginal_indices(dim, r, m, n, seed)
    # replicates per source call: their cells stay within the cell cap
    chunk = max(1, DEFAULT_CELL_CAP // dim)

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


def _sibling_matrix(array, r: int, m: int, n_rows: int | None = None) -> np.ndarray:
    """The ``(m^(r-1), m)`` sibling matrix of ``array``: each parent's m
    children in a row, parents in lexicographic order, or only the first
    ``n_rows`` parents.  A non-finite leaf is refused, wherever it is.

    The rows are scaled by the power of two that puts their largest |x| in
    [0.5, 1), so the sums of squares the fast scorers read can neither
    overflow nor underflow.  A power-of-two scale is exact, so every
    correlation keeps its unscaled bits wherever the unscaled arithmetic was
    finite and normal.
    """
    arr = np.asarray(array, dtype=np.float64).reshape(-1)
    if arr.size != m**r:
        raise ValueError(f"shape mismatch: array has {arr.size} values, expected m^r = {m**r}")
    # the extremes are finite exactly when every x is; they take no array of flags
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        leaf = int(np.argmin(np.isfinite(arr)))
        x = arr[leaf]
        raise ValueError(f"leaf {leaf} of the array is " + ("NaN" if np.isnan(x) else f"{x:+}"))
    rows = arr.reshape(m ** (r - 1), m)[:n_rows]
    return np.ldexp(rows, -np.frexp(max(-rows.min(), rows.max()))[1])


def conditional_iid_test(
    array,
    r: int,
    m: int,
    *,
    n_resamples: int = 199,
    level: float = 0.05,
    seed: int = 0,
) -> TestReport:
    """Check that sibling values behave i.i.d. given their parent measure.

    ``array`` holds the m^r finite leaf values of a ``{1..m}^r``
    truncation, in lexicographic order.  Tests the lag-1 autocorrelation of
    the sibling values (:func:`_sibling_matrix`), within each parent, against
    the null that shuffles each parent's children independently.  That
    shuffle leaves a hierarchically exchangeable law invariant, so the
    p-value is exact under the null.  A constant array reads correlation 0
    in the observation and in every draw, so p = 1.  With m = 1 there is no
    lag-1 pair, and the test raises ``ValueError``.
    """
    level = _level(level)
    r, m = _integer(r, "r"), _integer(m, "m")
    if m < 2:
        raise ValueError("no sibling pairs: m must be >= 2")
    n_resamples = _integer(n_resamples, "n_resamples")
    seed = _integer(seed, "seed", 0, _SEED_MAX)
    x = _sibling_matrix(array, r, m)
    n_parents = len(x)
    rho = _lag1_corr(x)
    p = _shuffle_pvalue(
        x, abs(rho), n_resamples, seed, _lag1_fast(x), lambda z: abs(_lag1_corr(z))
    )
    return TestReport(
        name="conditional_iid",
        statistic=float(rho),
        p_value=float(p),
        n_resamples=n_resamples,
        level=level,
        reject=p < level,
        metadata={"n_parents": n_parents, "m": m, "seed": seed, "lag1_corr": float(rho),
                  "lag1_p": float(p)},
    )


# The most bytes one block of _shuffle_pvalue's draws takes.  Smaller than
# hexch.definetti._BLOCK_BYTES (8 MiB): on the pipeline bench (r=2 m=128)
# an 8 MiB block raised peak RSS from 109.6 to 116.0 MB and ran no faster
# (median 6.71 against 7.08 ops/s over five alternating pairs).
_SHUFFLE_BLOCK_BYTES = 1 << 20
_EPS = np.finfo(np.float64).eps


def _shuffle_pvalue(x: np.ndarray, observed: float, n_resamples: int, seed: int,
                    fast, exact) -> float:
    """Add-one p-value of ``exact(z) >= observed`` under the null that
    shuffles each row of ``x`` (one parent's children) independently
    (seed role "shuffle").  Callers pass only the parent rows their
    statistic reads.

    A reused block of ``_SHUFFLE_BLOCK_BYTES // x.nbytes`` draws (at least
    one) is filled with ``x`` and drawn by one ``permuted`` call along its
    last axis, which shuffles its rows in the order of one ``permuted`` call
    per draw on ``x``, consuming the PCG64 stream as they do.  The scorers
    read views of the draws and allocate per draw only a few floats, or one
    per pair of a gap.  ``fast(block)`` scores a whole block at once from
    moments the shuffle leaves unchanged: it returns each draw's fast value
    and a band that bounds the distance between that value and ``exact(z)``
    (infinite where the fast form is undefined).  A draw whose fast value
    lies beyond the band on either side of ``observed`` is counted by it; a
    draw inside the band is scored by ``exact``.  Each draw is thus counted
    exactly as ``exact`` counts it, and the p-value has the bits of a loop
    of ``exact`` over the draws."""
    shuffler = np.random.Generator(np.random.PCG64(derive_seed(seed, "shuffle")))
    size = min(n_resamples, max(1, _SHUFFLE_BLOCK_BYTES // x.nbytes))
    block = np.empty((size,) + x.shape)
    count = 0
    for lo in range(0, n_resamples, size):
        draws = block[: n_resamples - lo]
        draws[...] = x
        shuffler.permuted(draws, axis=-1, out=draws)
        value, band = fast(draws)
        above = value - band >= observed
        below = value + band < observed
        count += int(np.count_nonzero(above))
        # NaN lands here too: neither comparison holds
        count += sum(exact(draws[j]) >= observed for j in np.flatnonzero(~(above | below)))
    return (1 + count) / (n_resamples + 1)


def _lag1_corr(x: np.ndarray) -> float:
    # one centred pass; the same sums as a.mean()/a.std(), so the same bits.
    # Two buffers: the centred a = x[:, :-1] and its squares, which give
    # way to the centred b = x[:, 1:] once summed; the cross products go
    # into a's buffer and b's squares into b's.
    k, m = x.shape
    n = k * (m - 1)
    a, b = x[:, :-1], x[:, 1:]
    # a constant side correlates 0: its centred values need not round to 0
    if a.min() == a.max() or b.min() == b.max():
        return 0.0
    da = a.flatten()
    da -= np.add.reduce(da) / n
    db = np.multiply(da, da)
    sa = np.sqrt(np.add.reduce(db) / n)
    db.reshape(k, m - 1)[...] = b
    db -= np.add.reduce(db) / n
    cross = np.add.reduce(np.multiply(da, db, out=da)) / n
    sb = np.sqrt(np.add.reduce(np.multiply(db, db, out=db)) / n)
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(cross / (sa * sb))


def _lag1_fast(x: np.ndarray):
    """Block scorer of ``|_lag1_corr|`` over row shuffles of ``x``.

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
    is infinite.  :func:`_sibling_matrix` puts max|x| in [0.5, 1), so Q
    neither overflows nor underflows.
    """
    k, m = x.shape
    n = k * (m - 1)
    total = np.add.reduce(x, axis=None)
    total_sq = np.vdot(x, x)
    delta = 3 * (x.size + k + 4) * _EPS * total_sq / n

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
    # a constant row's centred values need not round to 0
    z[mat.min(axis=1) == mat.max(axis=1)] = 0.0
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
    r: int,
    m: int,
    *,
    n_resamples: int = 199,
    level: float = 0.05,
    seed: int = 0,
    pair_budget: int = 64,
) -> TestReport:
    """Check independence of children across distinct parents.

    ``array`` holds the m^r finite leaf values of a ``{1..m}^r``
    truncation, in lexicographic order.  Takes the maximal absolute
    correlation between the sibling rows (:func:`_sibling_matrix`) of a
    fixed budget of parent pairs, nearest pairs first.  The null shuffles
    each parent's children independently, which leaves a hierarchically
    exchangeable law invariant while destroying cross-parent index
    alignment, so the p-value is exact under the null.  Only the parents
    that the pairs read are shuffled and scored: nearest pairs first, they
    are the first ``R <= pair_budget + 1`` parents.  The others never enter
    the statistic, though a non-finite value among them is refused.
    """
    level = _level(level)
    r, m = _integer(r, "r"), _integer(m, "m")
    if r < 2:
        raise ValueError("cross-parent check needs tree depth r >= 2")
    if m < 2:
        raise ValueError("no sibling pairs: m must be >= 2")
    pair_budget = _integer(pair_budget, "pair_budget")
    n_resamples = _integer(n_resamples, "n_resamples")
    seed = _integer(seed, "seed", 0, _SEED_MAX)
    n_parents = m ** (r - 1)
    pairs = np.array(_pairs_by_gap(n_parents, pair_budget))
    ii, jj = pairs.T
    read = _sibling_matrix(array, r, m, int(jj.max()) + 1)
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

