"""Empirical measures, directing-hierarchy extraction, and resynthesis.

The constructive direction: given an array on a finite truncation, estimate
the hierarchy of directing measures by taking empirical measures of sibling
blocks bottom-up (values at the deepest level, then measures of measures),
and regenerate a fresh exchangeable array from that hierarchy by drawing
child measures and finally leaf values through quantile transforms of fresh
uniforms, hashed one whole depth at a time as every sampler's are
(``hexch.fields._hash_level``).

A :class:`DirectingHierarchy` stores each nesting level as arrays: a table
of its distinct measures in canonical order, and one table id per vertex.
Extraction and resynthesis work on whole levels of those arrays, and so
does the JSON writer: ``hierarchy.json`` is streamed as ``bytes`` from the
level tables, each distinct measure formatted once by the CSV writer's row
builder (``hexch._text._rows``).  The nested
:class:`EmpiricalMeasure` objects, finite atom systems nested to the
required level, are built only on demand (``measures``, ``measure_at``).
Two of them, or two hierarchies' roots, are compared with the nested
optimal-transport distance, whose ground cost at each level is the
distance one level down.  It is solved on the same level-table layout,
bottom-up, from the level arrays alone: a side is a hierarchy or a
measure built by ``measures``, which records its table row and its
hierarchy's m, and a hand-built measure is refused.
Each level k >= 1 is an n x n assignment per pair of rows, the n x n
costs of a level's pairs gathered in one pass, which needs the level's
weights to share a denominator n <= 1024; a level without one is refused.
Level 0 is one broadcast over n sorted samples per row when its weights
share such an n, else W1 per pair of rows.  Extracted weights are c/m,
so n is lcm(m_a, m_b) reduced by the gcd of the counts; a hand-built
hierarchy whose weights are no multiples of 1/m takes a search over the
distinct weights.  The arrays reproduce the objects bit for bit, which
takes two rules: tables follow ``sort_key`` order, in which ``[a,b,b]``
precedes ``[a,a,b]``; and level k >= 1 weights are repeated ``+= 1/m``
sums, not ``count/m``, because ``3 x 0.1 != 0.3``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product

import numpy as np

from ._text import _rows
from .fields import _hash_level, _init_state
from .tree import TreeVertex, _check_size, _is_size, internal_vertices

__all__ = [
    "EmpiricalMeasure",
    "DirectingHierarchy",
    "empirical_measure",
    "extract_hierarchy",
    "resynthesize",
    "wasserstein1",
    "nested_distance",
    "hierarchy_to_json_obj",
    "hierarchy_json_chunks",
]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A finite measure with unit mass; atoms are values or nested measures.

    Level-0 atoms are distinct locations in [0,1], strictly ascending; any
    other order is refused.  Level k atoms are level-(k-1) measures, taken
    in the order given: :attr:`DirectingHierarchy.measures` lists them in
    canonical :meth:`sort_key` order, each once.
    """

    atoms: tuple[tuple[object, float], ...]
    level: int
    # ``(atoms, weights, j, m)`` when the measure is row j of its level's
    # table in the level arrays of a DirectingHierarchy of side m, which set
    # it; not a field, so equality, hashing and repr ignore it
    _table_row = None

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a measure needs at least one atom")
        # exact sum of the stored weights: a plain running sum drifts by
        # about one rounding per atom, past the tolerance at ~10^5 atoms
        total = math.fsum(w for _, w in self.atoms)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {total}, expected 1")
        last = -1.0  # below [0,1], so the first location passes
        for loc, w in self.atoms:
            if w <= 0:
                raise ValueError("atom weights must be positive")
            if self.level == 0:
                if not 0.0 <= loc <= 1.0:
                    raise ValueError(f"level-0 location {loc} outside [0,1]")
                if not loc > last:
                    raise ValueError(
                        f"level-0 locations must strictly ascend, got {loc} after {last}"
                    )
                last = loc
            elif not (isinstance(loc, EmpiricalMeasure) and loc.level == self.level - 1):
                raise ValueError("nested atoms must be measures one level down")

    def sort_key(self):
        if self.level == 0:
            return (0, self.atoms)
        return (self.level, tuple((a.sort_key(), w) for a, w in self.atoms))

    # The array views below are built once per measure, on first use, and
    # are read-only because every caller shares them.

    @cached_property
    def locations(self) -> np.ndarray:
        if self.level != 0:
            raise ValueError("locations are defined for level-0 measures only")
        return _read_only(np.array([loc for loc, _ in self.atoms]))

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(np.array([w for _, w in self.atoms]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _padded_cumsum(weights: np.ndarray) -> np.ndarray:
    """Cumulative weights after 0, 1, ..., n atoms; the last is exactly 1."""
    cum = np.zeros(len(weights) + 1)
    np.cumsum(weights, out=cum[1:])
    cum[-1] = 1.0
    return cum


def empirical_measure(values) -> EmpiricalMeasure:
    """Level-0 empirical measure: one atom per distinct value, weight = freq;
    -0.0 is read as 0.0, as :func:`extract_hierarchy` reads it."""
    values = np.asarray(values, dtype=np.float64).reshape(-1) + 0.0
    if values.size == 0:
        raise ValueError("cannot form the empirical measure of an empty sample")
    locs, counts = np.unique(values, return_counts=True)
    n = values.size
    return EmpiricalMeasure(
        tuple((float(x), int(c) / n) for x, c in zip(locs, counts)), 0
    )


# -- directing hierarchies ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class DirectingHierarchy:
    """Estimated directing measures of a depth-``r`` truncation, as arrays.

    A depth-d vertex carries a measure of nesting level k = r-1-d: plain
    value distributions at the deepest internal level, measures of measures
    above, up to the root.  Level k is a table of its distinct measures, in
    canonical :meth:`EmpiricalMeasure.sort_key` order, one row each:

    - ``atoms[k]`` ``(n_k, w_k)``: the row's atoms, padded with -1.  Level-0
      atoms are locations, ascending.  Level k >= 1 atoms are row ids into
      the level k-1 table, ascending, which is their canonical order too.
    - ``weights[k]`` ``(n_k, w_k)``: the atoms' weights, 0 past the atom
      count.  Level 0 weighs an atom met c times among m siblings ``c/m``;
      level k >= 1 weighs it by 1/m added c times, as each of the c
      siblings adds its share in turn (``3 x 0.1 != 0.3``).
    - ``ids[d]`` ``(m^d,)``: the table row of each depth-d vertex, vertices in
      lexicographic order.

    The constructor derives ``counts[k]`` (each row's atom count) and
    ``cum[k]`` (cumulative weights, exactly 1.0 at the last atom and inf
    past it) and checks the layout: one table per level, one id row of
    ``m^d`` ids per depth, every id inside its table.  It also checks what
    :class:`EmpiricalMeasure` would: each row's weights sum to 1 (within
    1e-12 plus one rounding per atom), each row's atoms ascend, and level-0
    atoms lie in [0,1].  All arrays are read-only.  :attr:`measures` builds the
    :class:`EmpiricalMeasure` objects on first use.
    """

    r: int
    m: int
    atoms: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    ids: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...] = field(init=False, repr=False)
    cum: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        r, m = self.r, self.m
        _check_size("r", r)
        _check_size("m", m)
        if not len(self.atoms) == len(self.weights) == r:
            raise ValueError(
                f"{len(self.atoms)} atom and {len(self.weights)} weight tables "
                f"for the {r} levels of a depth-{r} hierarchy"
            )
        if len(self.ids) != r:
            raise ValueError(
                f"{len(self.ids)} id rows for the {r} internal depths of the "
                f"{{1..{m}}}^{r} truncation"
            )
        levels = []
        for k in range(r):
            a = _read_only(np.asarray(self.atoms[k], dtype=np.intp if k else np.float64))
            w = _read_only(np.asarray(self.weights[k], dtype=np.float64))
            if a.ndim != 2 or a.shape != w.shape or not a.size:
                raise ValueError(
                    f"level {k}: atoms {a.shape} and weights {w.shape} differ or are empty"
                )
            present = w > 0
            last = _prefix_ends(present)
            if last is None:
                raise ValueError(
                    f"level {k}: each row needs positive weights on a prefix of its atoms"
                )
            # ascending rows lie in a range when their first and last atoms do
            lo, hi = a[:, 0].min(), a.reshape(-1)[last].max()
            rises = _rises(a, present)
            if k:
                # ids out of range are reported before atoms out of order
                if not (rises and lo >= 0 and hi < len(levels[-1][0])):
                    _check_ids(a[present], len(levels[-1][0]), f"level {k} atom")
            elif not (lo >= 0.0 and hi <= 1.0):
                raise ValueError(f"level-0 location {float(hi if lo >= 0.0 else lo)} outside [0,1]")
            if not rises:
                raise ValueError(f"level-{k} atoms must ascend along each row")
            c = np.cumsum(w, axis=1)
            # a running sum errs by about one rounding per atom
            err = np.abs(c[:, -1] - 1.0).max()
            if not err <= _WEIGHT_TOL + w.shape[1] * np.finfo(np.float64).eps:
                raise ValueError(f"level {k}: a row's weights miss 1 by {err}")
            c.reshape(-1)[last] = 1.0
            c[~present] = np.inf
            n = last - np.arange(-1, w.size - 1, w.shape[1])  # 1 + last - row start
            levels.append((a, w, _read_only(n), _read_only(c)))
        ids = []
        for d in range(r):
            v = _read_only(np.asarray(self.ids[d], dtype=np.intp))
            if v.shape != (m**d,):
                raise ValueError(f"depth {d} has {v.size} ids for its {m**d} vertices")
            _check_ids(v, len(levels[r - 1 - d][0]), f"depth {d}")
            ids.append(v)
        for name, value in zip(("atoms", "weights", "counts", "cum"), zip(*levels)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "ids", tuple(ids))

    @cached_property
    def measures(self) -> tuple[EmpiricalMeasure, ...]:
        """One measure per internal vertex, in
        :func:`~hexch.tree.internal_vertices` order (the root first, the
        m^(r-1) depth r-1 vertices last).  Built on first use, deepest level
        first, one object per table row, shared by the vertices on that row;
        a nested atom is the object of its row one level down.  Each object
        records its row of the level arrays and ``m`` (not the hierarchy, so
        that the cached objects form no reference cycle), which is where
        :func:`nested_distance` reads its tables and their denominator
        from."""
        tables: list[list[EmpiricalMeasure]] = []
        for k in range(self.r):
            present = self.weights[k] > 0
            atoms = self.atoms[k][present].tolist()
            if k:
                atoms = [tables[-1][i] for i in atoms]
            pairs = list(zip(atoms, self.weights[k][present].tolist()))
            ends = np.cumsum(self.counts[k]).tolist()
            row = []
            for j, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
                mu = EmpiricalMeasure(tuple(pairs[lo:hi]), k)
                object.__setattr__(mu, "_table_row", (self.atoms, self.weights, j, self.m))
                row.append(mu)
            tables.append(row)
        return tuple(
            tables[self.r - 1 - d][i] for d in range(self.r) for i in self.ids[d].tolist()
        )

    @property
    def root_measure(self) -> EmpiricalMeasure:
        return self.measures[0]

    @cached_property
    def _by_vertex(self) -> dict[TreeVertex, EmpiricalMeasure]:
        """The measures keyed by their vertices, for :meth:`measure_at`."""
        keys = internal_vertices(self.r, self.m, cap=len(self.measures))
        return dict(zip(keys, self.measures))

    def measure_at(self, v: TreeVertex) -> EmpiricalMeasure:
        return self._by_vertex[v]

    def parent_cdfs(
        self, blocks: np.ndarray, parents: slice | np.ndarray = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(cdf_left, cdf)`` of depth r-1 measures at the rows of the
        ``(P, q)`` matrix ``blocks``: row i of ``blocks`` against the measure
        of depth r-1 vertex ``parents[i]`` (an index array or a slice of the
        ``m^(r-1)`` vertices; all of them by default).  Both sides come from
        one left search per row block (:meth:`_cdf_blocks`)."""
        lo, hi = np.empty(blocks.shape), np.empty(blocks.shape)
        for rows, left, right in self._cdf_blocks(blocks, parents):
            lo[rows], hi[rows] = left, right
        return lo, hi

    def _cdf_blocks(self, blocks: np.ndarray, parents: slice | np.ndarray):
        """Yield ``(rows, cdf_left, cdf)`` for consecutive row slices of
        :meth:`parent_cdfs`, each block's temporaries at most about
        ``_BLOCK_BYTES``.  A value's right count is its left count, plus one
        where the atom at the left count equals it: each row's atoms
        strictly ascend (``_rises``), so at most one atom equals it.
        Counts past a row's atoms (an inf or NaN query) are clamped to the
        atom count."""
        ids = self.ids[-1][parents]
        if ids.shape != blocks.shape[:1]:
            raise ValueError(f"{len(blocks)} rows of values for {ids.size} parents")
        q, w = blocks.shape[1], self.atoms[0].shape[1]
        # about six (rows, q) arrays of 8 bytes, and the rows' atoms and CDFs
        step = max(1, _BLOCK_BYTES // (8 * (6 * q + 2 * w)))
        for lo in range(0, len(ids), step):
            rows = slice(lo, lo + step)
            at, v = ids[rows], blocks[rows]
            n = self.counts[0][at, None]
            locs = np.where(np.arange(w) < n, self.atoms[0][at], np.inf)
            idx = _search_rows(locs, v)
            np.minimum(idx, n, out=idx)
            hit = idx < n
            hit &= np.take_along_axis(locs, np.minimum(idx, w - 1), axis=1) == v
            padded = np.zeros((len(at), w + 1))
            padded[:, 1:] = self.cum[0][at]
            left = np.take_along_axis(padded, idx, axis=1)
            idx += hit
            yield rows, left, np.take_along_axis(padded, idx, axis=1)


def _check_ids(ids: np.ndarray, n: int, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"{what} ids must index the {n} rows of their table")


def _prefix_ends(present: np.ndarray) -> np.ndarray | None:
    """The flat index of each row's last True in the 2-D bools ``present``,
    or None unless each row's Trues are a nonempty prefix of it.  A row's
    Trues end where a True is followed by a False or by the row's end; they
    are a nonempty prefix when the row starts with a True and they end once.
    """
    width = present.shape[1]
    flat = present.reshape(-1)
    ends = np.empty_like(flat)
    np.greater(flat[:-1], flat[1:], out=ends[:-1])
    ends[width - 1 :: width] = flat[width - 1 :: width]
    last = np.flatnonzero(ends)
    return last if last.size == len(present) and present[:, 0].all() else None


def _rises(a: np.ndarray, present: np.ndarray) -> bool:
    """Whether the atoms ``a`` are in canonical order, as
    :class:`EmpiricalMeasure` takes them: strictly ascending along each row
    where ``present`` (a NaN is not), locations at level 0 and row ids above
    it.  The rows are compared as one flat run, cheaper than a strided 2-D
    comparison."""
    flat = a.reshape(-1)
    rises = flat[1:] > flat[:-1]
    rises[a.shape[1] - 1 :: a.shape[1]] = True  # where a row starts
    return not (present.reshape(-1)[1:] > rises).any()


# Scratch bound for the row searches, the parent CDFs, the level-0
# broadcast and the assignment costs, so that a large level costs blocks of
# rows or row pairs of at most this many bytes, not one (P, q, w), (rows_a,
# rows_b, n) or (rows_a, rows_b, n, n) array.
_BLOCK_BYTES = 1 << 23

# Widest rows that _search_rows compares with every query at once
_BROADCAST_WIDTH = 32

# Fewest rows for which _search_rows counts by column passes, not broadcast:
# the w passes cost about 2 us each however few rows they read, and the
# broadcast's (rows, q, w) comparisons overtake them at about 40 to 64 rows
_COLUMN_ROWS = 64


def _search_rows(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise ``np.searchsorted(a[i], v[i])`` for ascending rows ``a``
    ``(P, w)`` of non-NaN entries and queries ``v`` ``(P, q)``.

    Up to ``_BROADCAST_WIDTH`` entries a row, a query counts the entries not
    ``>=`` it: all of them if it is NaN, as ``searchsorted`` does.  From
    ``_COLUMN_ROWS`` rows on, the entries ``>=`` a query are counted in one
    pass over the queries per column of ``a``; fewer rows go in blocks
    whose ``(rows, q, w)`` comparisons take at most ``_BLOCK_BYTES``, summed
    along their short last axis.  Wider rows take one ``np.searchsorted``
    each.
    """
    q, w = v.shape[1], a.shape[1]
    out = np.empty(v.shape, dtype=np.intp)
    if w > _BROADCAST_WIDTH:
        for row, queries, counts in zip(a, v, out):
            counts[:] = row.searchsorted(queries)
        return out
    if len(v) >= _COLUMN_ROWS:
        at_least = np.zeros(v.shape, dtype=np.uint8)
        ge = np.empty(v.shape, dtype=bool)
        for column in a.T[:, :, None]:
            np.greater_equal(column, v, out=ge)
            at_least += ge.view(np.uint8)
        return np.subtract(w, at_least, out=out)
    step = max(1, _BLOCK_BYTES // (q * w))
    for lo in range(0, len(v), step):
        rows = slice(lo, lo + step)
        out[rows] = (~np.greater_equal(a[rows, None, :], v[rows, :, None])).sum(axis=2)
    return out


def _lex_order(keys) -> np.ndarray:
    """``np.lexsort(keys[::-1])``: the order of rows keyed by the 1-D arrays
    ``keys``, primary key first.  One stable argsort of that key decides it
    when the sorted key strictly ascends; ties and NaNs take the lexsort."""
    order = np.argsort(keys[0], kind="stable")
    first = keys[0][order]
    return order if (first[1:] > first[:-1]).all() else np.lexsort(keys[::-1])


def _level_table(rows: np.ndarray):
    """Distinct empirical measures of the rows of a row-sorted ``(P, m)``
    matrix, in canonical order.

    Runs of equal values in a row merge into one atom, and the rows are
    ranked by their interleaved (value, multiplicity) columns, padded with
    (-1, 0), first column first (:func:`_lex_order`).  That is ``sort_key``
    order: it compares (atom, weight) pairs in turn and puts a shorter
    prefix first, so ``[a,b,b]`` sorts before ``[a,a,b]``.  Returns the
    table's padded atoms and multiplicities and each row's table id.  The
    padded tables are filled by one flat scatter each, and the sorted rows
    are compared whole only when two of their first atoms tie.
    """
    n_rows, m = rows.shape
    flat = rows.reshape(-1)
    # an atom starts wherever a row starts or its value changes
    first = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::m] = True
    if first.all():  # no ties: every value is an atom of multiplicity 1
        values, mult, width = rows, np.ones(rows.shape, dtype=np.intp), m
    else:
        starts = np.flatnonzero(first)
        # every row starts with an atom, so the atoms before row i are the
        # starts before flat index i * m
        before = np.searchsorted(starts, np.arange(0, flat.size, m))
        n_atoms = np.append(before[1:], starts.size) - before
        width = n_atoms.max()
        # atom j of the whole run goes to flat slot j + row * width - before[row]
        shift = np.arange(0, n_rows * width, width) - before
        slots = np.arange(starts.size) + np.repeat(shift, n_atoms)
        values = np.full((n_rows, width), -1, dtype=rows.dtype)
        values.reshape(-1)[slots] = flat[starts]
        mult = np.zeros((n_rows, width), dtype=np.intp)
        mult.reshape(-1)[slots] = np.append(starts[1:], flat.size) - starts
    if n_rows == 1:
        return values, mult, np.zeros(1, dtype=np.intp)
    order = _lex_order([key for j in range(width) for key in (values[:, j], mult[:, j])])
    values, mult = values[order], mult[order]
    # a row is new unless it equals the one before; rows are compared whole
    # only when two first atoms tie
    new = np.empty(n_rows, dtype=bool)
    new[0] = True
    np.not_equal(values[1:, 0], values[:-1, 0], out=new[1:])
    if not new.all():
        new[1:] = (values[1:] != values[:-1]).any(axis=1) | (mult[1:] != mult[:-1]).any(axis=1)
    ids = np.empty(n_rows, dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    return values[new], mult[new], ids


def extract_hierarchy(array, r: int, m: int) -> DirectingHierarchy:
    """Estimate the directing hierarchy of an array over ``{1..m}^r`` leaves.

    Depth r-1 vertices get the empirical measure of their children's values;
    each shallower vertex the empirical measure of its children's measures.
    The array must be complete, in lexicographic leaf order, with values in
    [0,1]; -0.0 is read as 0.0.  Each level is built whole: the
    ``(m^(r-1), m)`` sibling matrix is sorted along its rows once and its
    distinct rows form the level-0 table; each level above does the same
    with the sorted table ids of its children.
    """
    if not (_is_size(r) and _is_size(m)):
        raise ValueError(f"r and m must be >= 1 and integers, got r={r!r}, m={m!r}")
    # + 0.0 turns -0.0 into 0.0: the two sort as equal, so a merged atom
    # would print as either, depending on the order of its siblings
    arr = np.asarray(array, dtype=np.float64).reshape(-1) + 0.0
    if arr.size != m**r:
        raise ValueError(
            f"incomplete array: expected {m**r} = {m}^{r} leaf values, got {arr.size}"
        )
    outside = ~((arr >= 0.0) & (arr <= 1.0))
    if outside.any():
        raise ValueError(f"level-0 location {float(arr[outside][0])} outside [0,1]")
    # c merged measures of m weigh 1/m added c times, not c/m (3 x 0.1 != 0.3)
    sums = np.concatenate([[0.0], np.cumsum(np.full(m, 1.0 / m))])
    rows = np.sort(arr.reshape(m ** (r - 1), m), axis=1)
    atoms, weights, ids = [], [], []
    for k in range(r):
        values, mult, row_ids = _level_table(rows)
        atoms.append(values)
        weights.append(mult / m if k == 0 else sums[mult])
        ids.append(row_ids)
        if k < r - 1:
            rows = np.sort(row_ids.reshape(-1, m), axis=1)
    return DirectingHierarchy(r, m, tuple(atoms), tuple(weights), tuple(reversed(ids)))


def resynthesize(h: DirectingHierarchy, r: int, m2: int, seed: int) -> np.ndarray:
    """Generate a fresh array over ``{1..m2}^r`` from an extracted hierarchy.

    Walking down from the root, each fresh vertex draws its child measure
    from the parent's nested measure by quantile sampling over the atom
    index, bottoming out with a value quantile draw at the leaves.  All
    uniforms come from the counter-based field (role "w"), hashed one whole
    depth at a time (:func:`~hexch.fields._hash_level`), so the output is
    deterministic in ``seed``; each depth's atom picks are one row-batched
    left search of the uniforms in the parents' cumulative weights.
    """
    if h.r != r:
        raise ValueError(f"hierarchy depth {h.r} does not match requested r={r}")
    if not _is_size(m2):
        raise ValueError(f"m2 must be an integer >= 1, got {m2!r}")
    h0 = _init_state(seed, "w")
    current = h.ids[0]
    for d in range(1, r + 1):
        k = r - d  # the level of the depth d-1 measures
        u = _hash_level(h0, (d,), (m2,))[0].reshape(current.size, m2)
        pick = _search_rows(h.cum[k][current], u)
        np.minimum(pick, h.counts[k][current, None] - 1, out=pick)
        # the picked atoms, gathered at their flat index in the level table
        pick += current[:, None] * h.atoms[k].shape[1]
        current = h.atoms[k].take(pick.reshape(-1))
    return current


# -- distances ----------------------------------------------------------------

# Largest common weight denominator n solved as n x n assignments; a level
# k >= 1 whose weights need a larger one (or have none) is refused.
_MAX_DENOMINATOR = 1024


def wasserstein1(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """First Wasserstein distance between level-0 measures: the CDF gap area."""
    if mu.level != 0 or nu.level != 0:
        raise ValueError("wasserstein1 needs level-0 measures")
    return _wasserstein1(mu.locations, mu.weights, nu.locations, nu.weights)


def _wasserstein1(xa: np.ndarray, wa: np.ndarray, xb: np.ndarray, wb: np.ndarray) -> float:
    """:func:`wasserstein1` between the measures with ascending locations
    ``xa`` and ``xb`` and weights ``wa`` and ``wb``."""
    locs = np.union1d(xa, xb)
    if len(locs) == 1:
        return 0.0
    fa = _padded_cumsum(wa)[np.searchsorted(xa, locs, side="right")]
    fb = _padded_cumsum(wb)[np.searchsorted(xb, locs, side="right")]
    return float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(locs)))


def linprog(*args, **kwargs):
    """:func:`scipy.optimize.linprog`; no hexch code calls it.  A lookup site
    only, which ``bench/spans.py`` patches until the bench reads an
    in-package trace."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _measure_tables(
    mu: EmpiricalMeasure | DirectingHierarchy,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """The level tables of a nested measure, level 0 first, and the ``m``
    whose multiples 1/m its weights are.  Per level, the tables are the
    padded atoms and weights (0 past each row's atom count) of the distinct
    sub-measures below ``mu``.  Level-0 atoms are locations; level k >= 1
    atoms are row ids into the level k-1 table.  The top level is the one
    row of ``mu``.

    A :class:`DirectingHierarchy` stands for its root measure, and a
    measure built by :attr:`DirectingHierarchy.measures` for its row: both
    are read from the hierarchy's level arrays (:func:`_row_tables`), with
    the hierarchy's ``m``.  Any other argument is refused."""
    if isinstance(mu, DirectingHierarchy):
        return _row_tables(mu.r - 1, mu.atoms, mu.weights, mu.ids[0][0]), mu.m
    if isinstance(mu, EmpiricalMeasure) and mu._table_row is not None:
        *row, m = mu._table_row
        return _row_tables(mu.level, *row), m
    raise ValueError(
        "nested_distance compares a DirectingHierarchy or a measure from its "
        f".measures, not a hand-built {type(mu).__name__}; for two level-0 "
        "measures use wasserstein1"
    )


def _row_tables(
    k: int, atoms: tuple, weights: tuple, j: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`_measure_tables` of row j of the level-k table in a hierarchy's
    level ``atoms`` and ``weights``: every table whole when level k has one
    row (each row below is then reachable), else the rows reachable from
    row j, one ``np.unique`` per level, with atom ids renumbered to match.
    Pads keep their atoms; their zero weights drop them."""
    if len(atoms[k]) == 1:
        return list(zip(atoms[: k + 1], weights[: k + 1]))
    rows = np.array([j])
    tables = []
    for i in range(k, -1, -1):
        a, w = atoms[i][rows], weights[i][rows]
        if i:
            present = w > 0
            rows, a[present] = np.unique(a[present], return_inverse=True)
        tables.append((a, w))
    return tables[::-1]


def _table_rows(atoms: np.ndarray, weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row of a level table as its atoms and weights, pads dropped."""
    return [(atoms[i, :p], weights[i, :p]) for i, p in enumerate((weights > 0).sum(axis=1))]


def _common_counts(
    wa: np.ndarray, wb: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(n, counts_a, counts_b)`` for the smallest n <= ``_MAX_DENOMINATOR``
    that makes every weight of both tables a whole multiple of 1/n, within
    1e-9; None if there is no such n."""
    w = np.unique(np.concatenate([wa[wa > 0], wb[wb > 0]]))
    n = 1
    for x in w.tolist():
        n = math.lcm(n, Fraction(x).limit_denominator(_MAX_DENOMINATOR).denominator)
        if n > _MAX_DENOMINATOR:
            return None
    if np.abs(w * n - np.rint(w * n)).max() > 1e-9 or np.rint(w * n).min() < 1:
        return None
    return n, np.rint(wa * n).astype(np.intp), np.rint(wb * n).astype(np.intp)


def _level_counts(
    wa: np.ndarray, wb: np.ndarray, ma: int, mb: int
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """:func:`_common_counts` of two weight tables whose weights are
    multiples of 1/ma and 1/mb, without its search: the counts at
    ``n0 = lcm(ma, mb)`` divided by ``g = gcd(n0, every count)``, which
    gives its smallest ``n = n0 / g``.  Tables with a weight whose count at
    n0 is not whole within 1e-9, the search's own tolerance (a hand-built
    hierarchy may hold 1/3 at m=4), take the search."""
    n0 = math.lcm(ma, mb)
    x = np.concatenate([wa.reshape(-1), wb.reshape(-1)])
    x *= n0
    counts = np.rint(x)
    positive = np.count_nonzero(x)
    x -= counts
    # a positive weight must not round to count 0
    if not np.abs(x).max() <= 1e-9 or np.count_nonzero(counts) != positive:
        return _common_counts(wa, wb)
    counts = counts.astype(np.intp)
    g = math.gcd(n0, int(np.gcd.reduce(counts)))
    n = n0 // g
    if n > _MAX_DENOMINATOR:
        return None
    counts //= g
    return n, counts[: wa.size].reshape(wa.shape), counts[wa.size :].reshape(wb.shape)


def _expand(atoms: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Each row's atoms repeated by their counts: ``(rows, n)``, in order."""
    return np.repeat(atoms.reshape(-1), counts.reshape(-1)).reshape(len(atoms), n)


def _w1_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W1 between every row of ``a`` and every row of ``b``, rows being
    ascending samples of n equal weights: the mean gap of the sorted
    samples, broadcast over row blocks whose gap arrays hold at most
    ``_BLOCK_BYTES``, in one reused buffer.  Each sum of n gaps is divided
    by n once, as ``mean`` does."""
    n = a.shape[1]
    out = np.empty((len(a), len(b)))
    step = max(1, _BLOCK_BYTES // (8 * b.size))
    gaps = np.empty((min(step, len(a)), len(b), n))
    for lo in range(0, len(a), step):
        hi = min(lo + step, len(a))
        block = gaps[: hi - lo]
        np.subtract(a[lo:hi, None, :], b[None], out=block)
        np.abs(block, out=block)
        np.add.reduce(block, axis=2, out=out[lo:hi])
    out /= n
    return out


def _assignment_table(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Transport cost between every row of ``a`` and every row of ``b``,
    rows being n equally weighted atom ids into the ground ``cost``: each
    is an n x n assignment, by Birkhoff-von Neumann.  The n x n costs of a
    block of row pairs, at most ``_BLOCK_BYTES``, are gathered at once, and
    the costs picked by the block's assignments summed at once."""
    from scipy.optimize import linear_sum_assignment

    n = a.shape[1]
    out = np.empty((len(a), len(b)))
    pairs = max(1, _BLOCK_BYTES // (8 * n * n))
    step_b = min(len(b), pairs)
    step_a = pairs // step_b
    for lo in range(0, len(a), step_a):
        for lb in range(0, len(b), step_b):
            c = cost[a[lo : lo + step_a, None, :, None], b[None, lb : lb + step_b, None, :]]
            flat = c.reshape(-1, n, n)
            picks = np.array([linear_sum_assignment(x)[1] for x in flat])
            picked = flat[np.arange(len(flat))[:, None], np.arange(n), picks]
            out[lo : lo + step_a, lb : lb + step_b] = picked.sum(axis=1).reshape(c.shape[:2])
    return out / n


def nested_distance(
    mu: EmpiricalMeasure | DirectingHierarchy, nu: EmpiricalMeasure | DirectingHierarchy
) -> float:
    """Optimal-transport distance between equal-level nested measures.

    Level 0 is :func:`wasserstein1`; at level k the ground cost between
    atoms is the level-(k-1) nested distance.  Each side is a
    :class:`DirectingHierarchy`, which stands for its root measure, read
    from its level arrays without building
    :attr:`~DirectingHierarchy.measures`, or a measure from that tuple.
    Any other argument, a hand-built :class:`EmpiricalMeasure` included,
    raises ``ValueError``, whether or not the two sides are equal; two
    level-0 measures are compared by :func:`wasserstein1`.  Both sides are
    laid out as level tables (:func:`_measure_tables`), read straight from
    the level arrays, and each level's distances are computed for all row
    pairs at once, level 0 first.  Each level k >= 1 is an n x n assignment
    per pair of rows, the costs of a level's pairs gathered in one pass, so
    its weights must be multiples of a common 1/n with n <= 1024.  Two extracted measures have one when their reduced
    lcm(m_a, m_b) is at most 1024, as it is for any sides up to 32.  A
    level k >= 1 without one raises ``ValueError``: irrational weights, say,
    or extracted sides 32 and 33 (n = 1056).  Level 0 is one broadcast over
    n sorted samples per row when it has such an n, and :func:`wasserstein1`
    pair by pair, from the table rows, when it has not.  n is read off
    the sides' ``m`` (:func:`_level_counts`), or, for a hand-built
    hierarchy whose weights are no multiples of 1/m, it is the smallest
    n <= 1024 found by a search over the weights.  Nothing is kept between
    calls.
    """
    (tables_a, ma), (tables_b, mb) = _measure_tables(mu), _measure_tables(nu)
    if mu == nu:
        return 0.0
    if len(tables_a) != len(tables_b):
        raise ValueError(
            f"cannot compare measures of levels {len(tables_a) - 1} and {len(tables_b) - 1}"
        )
    if len(tables_a) == 1:
        return _wasserstein1(*_table_rows(*tables_a[0])[0], *_table_rows(*tables_b[0])[0])
    levels = list(zip(tables_a, tables_b))
    common = [_level_counts(wa, wb, ma, mb) for (_, wa), (_, wb) in levels]
    for k in range(1, len(levels)):
        if common[k] is None:
            raise ValueError(
                f"level {k}: the weights have no common denominator n <= "
                f"{_MAX_DENOMINATOR}, which its n x n assignments need"
            )
    cost = None
    for ((aa, wa), (ab, wb)), counts in zip(levels, common):
        if counts is None:  # level 0 only
            cost = np.array([[_wasserstein1(xa, va, xb, vb) for xb, vb in _table_rows(ab, wb)]
                             for xa, va in _table_rows(aa, wa)])
            continue
        n, ca, cb = counts
        ea, eb = _expand(aa, ca, n), _expand(ab, cb, n)
        cost = _w1_table(ea, eb) if cost is None else _assignment_table(ea, eb, cost)
    return float(cost[0, 0])


# -- serialization ------------------------------------------------------------


# level-0 atoms formatted per block of rows, so no matrix spans a whole level
_BLOCK_ATOMS = 1 << 16


def _glue(h: DirectingHierarchy, k: int) -> tuple[list[bytes], np.ndarray]:
    """The text after each atom of the level-k table: ``, w], [``, or
    ``, w]], "level": k}`` after a row's last atom.  Each distinct weight is
    formatted once; returns the glue pieces and, per padded atom, its
    index among them."""
    w = h.weights[k]
    uniq, inv = np.unique(w, return_inverse=True)
    texts = _rows(uniq, repr, ends=np.arange(1, len(uniq) + 1))
    gid = inv.reshape(w.shape)
    gid[np.arange(len(w)), h.counts[k] - 1] += len(uniq)
    return [b", %s], [" % t for t in texts] + [b', %s]], "level": %d}' % (t, k) for t in texts], gid


def _level0_texts(h: DirectingHierarchy, glue: list[bytes], gid: np.ndarray) -> list[bytes]:
    """The JSON text of each level-0 table row, a block of rows at a time:
    each atom's location (:func:`hexch._text._rows`), then its glue from the
    planes of a 0-padded byte table of ``glue``."""
    a, w, counts = h.atoms[0], h.weights[0], h.counts[0]
    table = np.array(glue, dtype=bytes).view(np.uint8).reshape(len(glue), -1).T.copy()
    texts: list[bytes] = []
    step = max(1, _BLOCK_ATOMS // a.shape[1])
    for lo in range(0, len(a), step):
        present = w[lo : lo + step] > 0
        rows = _rows(a[lo : lo + step][present], repr, after=table[:, gid[lo : lo + step][present]],
                     ends=np.cumsum(counts[lo : lo + step]))
        texts.extend(b'{"atoms": [[' + row for row in rows)
    return texts


def _string_ordered_keys(d: int, m: int) -> tuple[Iterator[bytes], np.ndarray]:
    """The keys of the depth-d vertices in string order, which compares the
    coordinates as strings (``"1/10"`` before ``"1/2"``), and each vertex's
    lexicographic index in that order."""
    coords = sorted(b"%d" % c for c in range(1, m + 1))
    ranks = np.array([int(c) - 1 for c in coords], dtype=np.intp)
    order = np.zeros(1, dtype=np.intp)
    for _ in range(d):
        order = (order[:, None] * m + ranks).reshape(-1)
    return map(b"/".join, product((b"%d" % d,), *[coords] * d)), order


def hierarchy_json_chunks(h: DirectingHierarchy) -> Iterator[bytes]:
    """Yield ``hierarchy.json`` as ``bytes`` pieces: the hierarchy keyed by
    encoded vertex, byte for byte ``json.dumps(..., sort_keys=True) + "\\n"``
    of :func:`hierarchy_to_json_obj`'s object, in which a level-k measure
    is ``{"atoms": [[atom, weight], ...], "level": k}``, its atoms in table
    order, a level-0 atom its location and a nested atom its measure's
    object.

    Written from the level tables, bottom-up: each level-0 row and each
    level's distinct weights are built once by the CSV writer's row builder
    (:func:`hexch._text._rows`), a level-0 block of rows at a time; a level
    k >= 1 row is the pieces of the child rows it points at, glued by its
    weights.  Every float is ``float.__repr__``'s text, as ``json`` writes
    it, from the exact shortest-round-trip kernel on [1e-6, 1) and from
    ``repr`` itself elsewhere.  Keys follow string order (``"1/10"`` before
    ``"1/2"``), as ``sort_keys`` puts them.  No text is decoded and no
    :class:`EmpiricalMeasure` is made."""
    glues = [_glue(h, k) for k in range(h.r)]
    level0 = _level0_texts(h, *glues[0])
    yield b'{"m": %d, "measures": {' % h.m
    sep = b""
    for d in sorted(range(h.r), key=str):
        keys, order = _string_ordered_keys(d, h.m)
        for key, j in zip(keys, h.ids[d][order].tolist()):
            yield b'%s"%s": ' % (sep, key)
            yield from _row_pieces(h, glues, level0, h.r - 1 - d, j)
            sep = b", "
    yield b'}, "r": %d}\n' % h.r


def _row_pieces(h: DirectingHierarchy, glues: list, level0: list[bytes], k: int, j: int):
    """The text of row j of the level-k table, in pieces: a level-0 row's
    text, or each child row's pieces followed by its glue."""
    if k == 0:
        yield level0[j]
        return
    glue, gid = glues[k]
    n = h.counts[k][j]
    yield b'{"atoms": [['
    for child, g in zip(h.atoms[k][j, :n].tolist(), gid[j, :n].tolist()):
        yield from _row_pieces(h, glues, level0, k - 1, child)
        yield glue[g]


def hierarchy_to_json_obj(h: DirectingHierarchy) -> dict:
    """``{"m": m, "measures": {key: measure, ...}, "r": r}``, each internal
    vertex's measure as :func:`hierarchy_json_chunks` describes it:
    ``json.loads`` of the joined pieces, so the object and the file have
    one source."""
    return json.loads(b"".join(hierarchy_json_chunks(h)))
