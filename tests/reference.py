"""Reference implementations that tests compare hexch against.

Each states, one object at a time, a rule that hexch applies to whole
arrays: the empirical measure of a sample, the measures of a hierarchy's
level tables, the canonical order of measures, the weight of a measure
over measures, the ``hierarchy.json`` object of a measure, the energy statistic, the CSV key order, the
smallest common denominator of two weight tables, what makes a
directing hierarchy the one of its array, and the leaf map of a seeded
random hierarchical permutation.
"""

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from hexch.definetti import _MAX_DENOMINATOR, DirectingHierarchy, EmpiricalMeasure
from hexch.fields import _coord_words, _hash_words, _init_state
from hexch.tree import _integer


def plain_measure(atoms: tuple, level: int) -> EmpiricalMeasure:
    """A measure object of ``atoms`` at ``level`` that is no row of any
    hierarchy: it compares, hashes and prints as the extracted measure of
    the same atoms, so the oracles here build their expected measures with
    it.  It records no table row, so no distance can read it; its read-only
    ``weights`` (and ``locations`` at level 0), which a hierarchy's measure
    reads from its table row, are set from its atoms."""
    mu = object.__new__(EmpiricalMeasure)
    object.__setattr__(mu, "atoms", atoms)
    object.__setattr__(mu, "level", level)
    arrays = {"weights": [w for _, w in atoms]}
    if level == 0:
        arrays["locations"] = [x for x, _ in atoms]
    for name, values in arrays.items():
        a = np.array(values)
        a.flags.writeable = False
        object.__setattr__(mu, name, a)
    return mu


def reference_measures(h: DirectingHierarchy) -> tuple[EmpiricalMeasure, ...]:
    """The measures of every internal vertex of ``h``, in
    :func:`~hexch.tree.internal_vertices` order, built eagerly from the
    level arrays as :func:`plain_measure` objects, deepest level first: one
    object per table row, shared by the vertices on it, a nested atom being
    the object of its row one level down, its weights those of
    :func:`reference_weights`."""
    tables: list[list[EmpiricalMeasure]] = []
    for k in range(h.r):
        present = h.mult[k] > 0
        atoms = h.atoms[k][present].tolist()
        if k:
            atoms = [tables[-1][i] for i in atoms]
        pairs = list(zip(atoms, reference_weights(h.mult[k], h.m, k)[present].tolist()))
        ends = np.cumsum(present.sum(axis=1)).tolist()
        tables.append([plain_measure(tuple(pairs[lo:hi]), k)
                       for lo, hi in zip([0] + ends[:-1], ends)])
    return tuple(tables[h.r - 1 - d][i] for d in range(h.r) for i in h.ids[d].tolist())


def reference_empirical_measure(values) -> EmpiricalMeasure:
    """The level-0 empirical measure of ``values``, by ``np.unique``: one
    atom per distinct value (-0.0 read as 0.0), weighing its count over
    the sample size."""
    values = np.asarray(values, dtype=np.float64).reshape(-1) + 0.0
    locs, counts = np.unique(values, return_counts=True)
    n = values.size
    return plain_measure(tuple((float(x), int(c) / n) for x, c in zip(locs, counts)), 0)


def sort_key(mu: EmpiricalMeasure) -> tuple:
    """The key of a measure in canonical order: its (atom, weight) pairs
    in turn, a level-0 atom by its location and a nested atom by its own
    key, so that a prefix sorts first and ``[a,b,b]`` precedes ``[a,a,b]``."""
    if mu.level == 0:
        return (0, mu.atoms)
    return (mu.level, tuple((sort_key(a), w) for a, w in mu.atoms))


def _merge(pairs) -> EmpiricalMeasure:
    """The level-k >= 1 measure of ``(measure, weight)`` pairs: equal
    measures merge by summing their weights in turn, and atoms follow
    canonical order."""
    merged: dict = {}
    order: dict = {}
    level = None
    for mu, w in pairs:
        key = sort_key(mu)
        merged[key] = merged.get(key, 0.0) + w
        order[key] = mu
        level = mu.level + 1
    assert abs(math.fsum(merged.values()) - 1.0) <= 1e-12, "the weights sum to 1"
    return plain_measure(tuple((order[k], merged[k]) for k in sorted(merged)), level)


def measure_over(measures) -> EmpiricalMeasure:
    """Empirical measure of a finite family of equal-level measures: each
    member adds 1/n to its atom's weight, so c equal members weigh c
    repeated ``+= 1/n`` sums, not ``c/n`` (``3 x 0.1 != 0.3``)."""
    measures = list(measures)
    if not measures:
        raise ValueError("cannot form the empirical measure of an empty family")
    if any(m.level != measures[0].level for m in measures):
        raise ValueError("all member measures must have the same level")
    n = len(measures)
    return _merge((m, 1.0 / n) for m in measures)


def measure_to_json_obj(mu: EmpiricalMeasure) -> dict:
    """A measure as ``hierarchy.json`` writes it: a level-0 atom is its
    location, a nested atom its measure's object."""
    if mu.level == 0:
        atoms = [[loc, w] for loc, w in mu.atoms]
    else:
        atoms = [[measure_to_json_obj(a), w] for a, w in mu.atoms]
    return {"level": mu.level, "atoms": atoms}


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
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return float(2.0 * cdist(a, b).mean() - cdist(a, a).mean() - cdist(b, b).mean())


def vertex_keys(d: int, m: int) -> Iterator[str]:
    """Lazily yield the :func:`hexch.tree.encode_vertex` keys of the m^d
    depth-``d`` vertices of ``{1..m}^r`` (any r >= d), lexicographic in the
    coordinates: ``"2/1/2"`` comes before ``"2/1/10"``."""
    d, m = _integer(d, "d", 0), _integer(m, "m")
    coords = tuple(map(str, range(1, m + 1)))
    return map("/".join, itertools.product((str(d),), *[coords] * d))


def reference_leaf_indices(r: int, m: int, seeds) -> np.ndarray:
    """The leaf-index maps ``(K, m^r)`` of the random maps of K seeds, depth
    by depth: the children of each depth-d vertex take the ``"hperm"``
    uniforms of their own word rows (d + 1, c1, ..., c_{d+1}), ranked by a
    double stable argsort, and a leaf's image index is read off its ranks
    from the root down, one leaf at a time."""
    h0 = _init_state(seeds, "hperm")
    ranks = []
    for d in range(r):
        coords = np.array(list(itertools.product(range(1, m + 1), repeat=d + 1)))
        u = _hash_words(h0, _coord_words(coords)).reshape(len(h0), m**d, m)
        ranks.append(np.argsort(np.argsort(u, axis=-1, kind="stable"), axis=-1, kind="stable"))
    out = np.zeros((len(h0), m**r), dtype=np.intp)
    for pos, leaf in enumerate(itertools.product(range(m), repeat=r)):
        parent = 0
        for d, c in enumerate(leaf):
            out[:, pos] = out[:, pos] * m + ranks[d][:, parent, c]
            parent = parent * m + c
    return out


def _common_counts(
    wa: np.ndarray, wb: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(n, counts_a, counts_b)`` for the smallest n <= ``_MAX_DENOMINATOR``
    that makes every weight of both float tables a whole multiple of 1/n,
    within 1e-9, found by a search over the distinct weights; None if there
    is no such n."""
    w = np.unique(np.concatenate([wa[wa > 0], wb[wb > 0]]))
    n = 1
    for x in w.tolist():
        n = math.lcm(n, Fraction(x).limit_denominator(_MAX_DENOMINATOR).denominator)
        if n > _MAX_DENOMINATOR:
            return None
    if np.abs(w * n - np.rint(w * n)).max() > 1e-9 or np.rint(w * n).min() < 1:
        return None
    return n, np.rint(wa * n).astype(np.intp), np.rint(wb * n).astype(np.intp)


def _repeated_sum(c: int, m: int) -> float:
    """1/m added c times, as c siblings add their shares in turn."""
    w = 0.0
    for _ in range(c):
        w += 1.0 / m
    return w


def reference_weights(mult: np.ndarray, m: int, k: int) -> np.ndarray:
    """The float weights of a level-k table of multiplicities c out of m,
    by the weight rule stated here: ``c/m`` at level 0, and 1/m added c
    times above (:func:`_repeated_sum`), 0 on the pads."""
    if k == 0:
        return mult / m
    return np.array([[_repeated_sum(c, m) for c in row] for row in mult.tolist()])


def check_hierarchy(h: DirectingHierarchy, array) -> None:
    """Assert that ``h`` is the directing hierarchy of ``array``, vertex by
    vertex and row by row.

    The layout: r and m are sizes; each level has one table of 2-D atoms
    and integer multiplicities of one shape, and each depth d one id row of
    m^d ids into its level's table, every row carried by some vertex; every
    array is read-only.  Each table row: its multiplicities are positive on
    its first atoms, 0 past them, and sum to m; its atoms strictly ascend,
    are padded with -1, and are locations in [0,1] at level 0 or row ids
    into the level below above it.  The read-only ``weights`` of the row's
    view in :attr:`~DirectingHierarchy.measures` follow the weight rule
    (``c/m`` at level 0, 1/m added c times above), checked against this
    oracle's own sums, not against hexch's weight rule.  The
    consistency: each depth r-1 vertex's row is the empirical measure of
    its m leaf values (-0.0 read as 0.0), and each shallower vertex's row
    is the sorted table ids of its m children, merged into (id,
    multiplicity) runs.  The order: each level's rows are distinct and
    ascend in :func:`sort_key` order.
    """
    r, m = h.r, h.m
    for size in (r, m):
        assert isinstance(size, int) and not isinstance(size, bool) and size >= 1
    x = np.asarray(array, dtype=np.float64).reshape(-1) + 0.0
    assert x.size == m**r
    for name in ("atoms", "mult", "ids"):
        arrays = getattr(h, name)
        assert isinstance(arrays, tuple) and len(arrays) == r, name
        assert not any(a.flags.writeable for a in arrays), name
    # the view of each table row, from the first vertex that carries it
    views: list[dict] = [{} for _ in range(r)]
    vertices = iter(h.measures)
    for d in range(r):
        for j in h.ids[d].tolist():
            views[r - 1 - d].setdefault(j, next(vertices))
    keys: list = []  # the sort keys of the rows one level down
    for k in range(r):
        a, c = h.atoms[k], h.mult[k]
        assert a.dtype == (np.intp if k else np.float64) and c.dtype == np.intp
        assert a.ndim == 2 and a.size and a.shape == c.shape
        rows = []
        for j in range(len(a)):
            count = int((c[j] > 0).sum())
            atoms, mult = a[j, :count].tolist(), c[j, :count].tolist()
            assert count >= 1 and min(mult) > 0 and sum(mult) == m
            assert (c[j, count:] == 0).all() and (a[j, count:] == -1).all()
            assert all(lo < hi for lo, hi in zip(atoms, atoms[1:]))
            if k:
                assert all(0 <= i < len(keys) for i in atoms)
                atoms = [keys[i] for i in atoms]
            else:
                assert all(0.0 <= v <= 1.0 for v in atoms)
            weights = [cnt / m if k == 0 else _repeated_sum(cnt, m) for cnt in mult]
            w = views[k][j].weights
            assert w.tolist() == weights and not w.flags.writeable
            rows.append((k, tuple(zip(atoms, weights))))
        assert all(lo < hi for lo, hi in zip(rows, rows[1:])), f"level {k} rows"
        keys = rows
    children = x.reshape(m ** (r - 1), m)
    for d in range(r - 1, -1, -1):
        k, ids = r - 1 - d, h.ids[d]
        assert ids.dtype == np.intp and ids.shape == (m**d,)
        assert set(ids.tolist()) == set(range(len(h.atoms[k]))), f"depth {d} ids"
        for i, j in enumerate(ids.tolist()):
            atoms, mult = np.unique(children[i], return_counts=True)
            count = len(atoms)
            # bytes, so that a -0.0 atom differs from 0.0
            assert h.atoms[k][j, :count].tobytes() == atoms.astype(h.atoms[k].dtype).tobytes()
            assert h.mult[k][j, :count].tolist() == mult.tolist(), f"depth {d} vertex {i}"
        if d:
            children = ids.reshape(-1, m)
