"""Empirical measures, directing-hierarchy extraction, and resynthesis.

The constructive direction: given an array on a finite truncation, estimate
the hierarchy of directing measures by taking empirical measures of sibling
blocks bottom-up (values at the deepest level, then measures of measures),
and regenerate a fresh exchangeable array from that hierarchy by drawing
child measures and finally leaf values, each as one of its parent's m child
slots picked by a fresh uniform (the left-continuous quantile of the
parent's measure, whose weights are multiplicities out of m), every depth's
uniforms from one fold over the tree as every sampler's are
(``hexch.fields._level_values``).

A :class:`DirectingHierarchy` stores each nesting level as arrays: a table
of its distinct measures in canonical order, and one table id per vertex.
It is a function of the array, and :func:`extract_hierarchy` is the only
way to make one, so its tables are canonical and consistent by
construction and are not checked again; the checks are on the array.
Extraction and resynthesis work on whole levels of those arrays, and so
does the JSON writer: ``hierarchy.json`` is streamed as ``bytes`` from the
level tables, each distinct measure formatted once by the CSV writer's row
builder (``hexch._text._rows``).  The nested
:class:`EmpiricalMeasure` objects, finite atom systems nested to the
required level, are views of the level-table rows, made on demand
(``measures``, ``measure_at``), one per row; a view builds its tuple of
(atom, weight) pairs only when its ``atoms`` are read.
Every measure is a row of a hierarchy's level table:
:attr:`DirectingHierarchy.measures` and :func:`empirical_measure`, the
measure of an r=1 extraction, are the only ways to make one.  Two of them,
or two hierarchies' roots, are compared with the nested optimal-transport
distance, whose ground cost at each level is the distance one level down.
It is solved on the same level-table layout, bottom-up, from the level
arrays alone: a side is a hierarchy or a measure, which records its table
row and its hierarchy's m.
The hierarchy stores integer multiplicities, each row's summing to m, and
reads every float weight off them.  So a level's weights share the
exact denominator n = lcm(m_a, m_b) reduced by the gcd of the counts.
Each level k >= 1 is an n x n assignment per pair of rows, the n x n
costs of a level's pairs gathered in one pass, which needs n <= 1024; a
level with a larger n is refused.  Level 0 is the mean gap of n sorted
samples per pair of rows when n <= 1024, summed plane by plane (one plane
per sample) over blocks of rows in numpy's pairwise order, else W1 per
pair of rows.  The arrays
reproduce the objects bit for bit, which takes two rules: each level's
rows are in canonical order (two rows compare their (atom, weight) pairs
in turn, a nested atom by its row id, the first difference deciding and
a prefix first, so ``[a,b,b]`` precedes ``[a,a,b]``); and level k >= 1
weights are repeated ``+= 1/m`` sums, not ``count/m``, as
``3 x 0.1 != 0.3``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from ._text import _rows
from .fields import _init_state, _level_values
from .tree import TreeVertex, _integer

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


@dataclass(frozen=True, init=False)
class EmpiricalMeasure:
    """A finite measure with unit mass; atoms are values or nested measures.

    Level-0 atoms are distinct locations in [0,1], strictly ascending.
    Level k atoms are distinct level-(k-1) measures, in the canonical order
    of their level's rows.  A measure is a view of one row of a hierarchy's
    level table, made by :attr:`DirectingHierarchy.measures` or
    :func:`empirical_measure`, and calling the class raises ``TypeError``;
    so each measure has one form, and ``==`` and ``hash`` agree.  Its
    ``atoms`` tuple is built from the row on first read (a nested atom is
    the view of its row one level down) and kept; ``locations`` reads the
    row itself, and ``weights`` the row's multiplicities by the weight rule.
    """

    atoms: tuple[tuple[object, float], ...]
    level: int
    # ``_table_row``, set by _measure, is ``(table, j)``: the measure is row
    # j of its level's table, ``table`` being ``(atoms, mult, m, below)``, a
    # DirectingHierarchy's level arrays, its side m and the views of the
    # level below (None at level 0), shared by the level's views.  Not a
    # field, so equality, hashing and repr ignore it

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "an EmpiricalMeasure is made by DirectingHierarchy.measures or empirical_measure"
        )

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: a view's unread atoms
        if name != "atoms":
            raise AttributeError(f"'EmpiricalMeasure' object has no attribute {name!r}")
        ids, below = self._row(0).tolist(), self._table_row[0][3]
        pairs = tuple(zip(ids if below is None else [below[i] for i in ids], self.weights.tolist()))
        object.__setattr__(self, "atoms", pairs)
        return pairs

    # The arrays below are read-only and made from the row on first use

    @cached_property
    def locations(self) -> np.ndarray:
        if self.level != 0:
            raise ValueError("locations are defined for level-0 measures only")
        return self._row(0)

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(_weights(self._row(1), self._table_row[0][2], self.level))

    def _row(self, i: int) -> np.ndarray:
        """The measure's row of ``table[i]`` (atoms or multiplicities), pads dropped."""
        table, j = self._table_row
        return table[i][self.level][j, : np.count_nonzero(table[1][self.level][j])]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _padded_cumsum(weights: np.ndarray) -> np.ndarray:
    """Cumulative weights after 0, 1, ..., n atoms; the last is exactly 1."""
    cum = np.zeros(len(weights) + 1)
    np.cumsum(weights, out=cum[1:])
    cum[-1] = 1.0
    return cum


def _measure(table: tuple, level: int, j: int) -> EmpiricalMeasure:
    """The one builder of an :class:`EmpiricalMeasure`: the view of row j
    of the level-``level`` table in ``table`` (see ``_table_row``), which
    every measure is and the distances read.  It builds no atoms."""
    mu = object.__new__(EmpiricalMeasure)
    # one attribute at a time, as an __init__ sets them, so that the
    # measures share one key table (updating __dict__ made them 13% larger)
    object.__setattr__(mu, "level", level)
    object.__setattr__(mu, "_table_row", (table, j))
    return mu


def empirical_measure(values) -> EmpiricalMeasure:
    """Level-0 empirical measure: one atom per distinct value, weight = freq.
    It is the root measure of the r=1 hierarchy of ``values``, so -0.0 is
    read as 0.0 and a value outside [0,1] is refused, as
    :func:`extract_hierarchy` does."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("cannot form the empirical measure of an empty sample")
    return extract_hierarchy(values, 1, values.size).root_measure


# -- directing hierarchies ----------------------------------------------------


@dataclass(frozen=True, eq=False, init=False)
class DirectingHierarchy:
    """Estimated directing measures of a depth-``r`` truncation, as arrays.

    A depth-d vertex carries a measure of nesting level k = r-1-d: plain
    value distributions at the deepest internal level, measures of measures
    above, up to the root.  Level k is a table of its distinct measures, one
    row each, in canonical order: two rows compare their (atom, weight)
    pairs in turn, a level-0 atom by its location and a nested atom by its
    row id, the first difference decides, and a row that is a prefix of the
    other comes first.  So ``[a,b,b]`` precedes ``[a,a,b]``.

    - ``atoms[k]`` ``(n_k, w_k)``: the row's atoms, padded with -1.  Level-0
      atoms are locations, strictly ascending.  Level k >= 1 atoms are row
      ids into the level k-1 table, strictly ascending, which is their
      canonical order too.
    - ``mult[k]`` ``(n_k, w_k)``: integers, how many of the m siblings carry
      each atom, 0 past the atom count; each row sums to m, and its atom
      count is its number of nonzero multiplicities.
    - ``ids[d]`` ``(m^d,)``: the table row of each depth-d vertex, vertices in
      lexicographic order.

    All arrays are read-only.  A weight is read off its multiplicity where
    it is used, by the one weight rule (:func:`_weights`): c out of m weighs
    ``c/m`` at level 0, and 1/m added c times above (``3 x 0.1 != 0.3``).

    :func:`extract_hierarchy` is the only way to make one, and calling the
    class raises ``TypeError``: the hierarchy is a function of the array,
    so its tables are canonical and agree with one another by construction,
    and nothing else feeds them.  :attr:`measures` makes the
    :class:`EmpiricalMeasure` views of the table rows on first use.
    """

    r: int
    m: int
    atoms: tuple[np.ndarray, ...]
    mult: tuple[np.ndarray, ...]
    ids: tuple[np.ndarray, ...]

    def __init__(self, *args, **kwargs):
        raise TypeError("a DirectingHierarchy is made by extract_hierarchy, from an array")

    @cached_property
    def measures(self) -> tuple[EmpiricalMeasure, ...]:
        """One measure per internal vertex, in
        :func:`~hexch.tree.internal_vertices` order (the root first, the
        m^(r-1) depth r-1 vertices last).  Built on first use, deepest level
        first: one view per table row, shared by the vertices on that row,
        whose atoms are built only when read, a nested atom being the view
        of its row one level down.  A view points at the level arrays, ``m``
        and the views one level down, not at the hierarchy, so that the
        cached views form no reference cycle; :func:`nested_distance` reads
        its tables and their denominator from there."""
        below = None
        views = []
        for k in range(self.r):
            table = (self.atoms, self.mult, self.m, below)
            below = [_measure(table, k, j) for j in range(len(self.atoms[k]))]
            views.append(below)
        return tuple(views[self.r - 1 - d][i] for d in range(self.r) for i in self.ids[d].tolist())

    @property
    def root_measure(self) -> EmpiricalMeasure:
        return self.measures[0]

    def measure_at(self, v: TreeVertex) -> EmpiricalMeasure:
        """The measure of the internal vertex ``v``, whose index in
        :attr:`measures` (shallower vertices, then lexicographic rank) is
        its coordinates read as the digits 1..m of a base-m number."""
        if not (isinstance(v, TreeVertex) and v.r == self.r and v.depth < self.r
                and all(c <= self.m for c in v.coords)):
            raise ValueError(f"{v!r} is not an internal vertex of {{1..{self.m}}}^{self.r}")
        i = 0
        for c in v.coords:
            i = i * self.m + c
        return self.measures[i]


# Scratch bound for the level-0 gap planes and the assignment costs, so
# that a large level costs blocks of rows or row pairs of at most this many
# bytes, not one (rows_a, rows_b, n, n) array; the level-0 planes of a
# block of rows (16, each (rows, rows_b)) take a sixteenth of it.
_BLOCK_BYTES = 1 << 23


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
    (-1, 0), first column first (:func:`_lex_order`).  That is canonical
    order: it compares (atom, weight) pairs in turn and puts a shorter
    prefix first, so ``[a,b,b]`` sorts before ``[a,a,b]``.  Returns the
    table's padded atoms and multiplicities and each input row's table id.
    The padded tables are filled by one flat scatter each, and the sorted
    rows are compared whole only when two of their first atoms tie.
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
    r, m = _integer(r, "r"), _integer(m, "m")
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
    rows = np.sort(arr.reshape(m ** (r - 1), m), axis=1)
    levels = []
    for k in range(r):
        levels.append(_level_table(rows))
        if k < r - 1:
            rows = np.sort(levels[-1][-1].reshape(-1, m), axis=1)
    return _hierarchy(m, levels)


def _hierarchy(m: int, levels: list) -> DirectingHierarchy:
    """The hierarchy whose level k is ``levels[k]``, the ``(atoms, mult,
    ids)`` of :func:`_level_table`: the one builder of a
    :class:`DirectingHierarchy`.  It makes every array read-only and
    derives nothing; it checks nothing, since extraction's tables are
    canonical and consistent."""
    atoms, mult, ids = (tuple(map(_read_only, arrays)) for arrays in zip(*levels))
    h = object.__new__(DirectingHierarchy)
    for name, value in dict(r=len(levels), m=m, atoms=atoms, mult=mult, ids=ids[::-1]).items():
        object.__setattr__(h, name, value)
    return h


def _weights(mult: np.ndarray, m: int, k: int) -> np.ndarray:
    """The weight rule: multiplicities c out of m weigh ``c/m`` at level 0,
    and 1/m added c times at level k >= 1 (``3 x 0.1 != 0.3``)."""
    if k == 0:
        return mult / m
    return np.concatenate([[0.0], np.cumsum(np.full(m, 1.0 / m))])[mult]


def _require_hierarchy(caller: str, h) -> None:
    """Refuse, naming its type, an argument that is not a hierarchy."""
    if not isinstance(h, DirectingHierarchy):
        raise ValueError(
            f"{caller} needs a DirectingHierarchy from extract_hierarchy, not a {type(h).__name__}"
        )


def _expand(atoms: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Each row's atoms repeated by their counts: ``(rows, n)``, in order.
    ``atoms`` itself when every row holds n atoms once, which spares the
    copy (``np.repeat`` peaks at three times its output)."""
    if atoms.shape[1] == n and counts[:, -1].all():
        return atoms
    return np.repeat(atoms.reshape(-1), counts.reshape(-1)).reshape(len(atoms), n)


def resynthesize(h: DirectingHierarchy, r: int, m2: int, seed: int) -> np.ndarray:
    """Generate a fresh array over ``{1..m2}^r`` from an extracted hierarchy.

    Walking down from the root, each fresh vertex draws its child measure
    from the parent's nested measure, bottoming out with a value draw at
    the leaves.  The parent's measure is the empirical measure of its m
    children, so an atom of multiplicity c weighs c out of m, and drawing
    it is drawing one of the parent's m child slots uniformly: the uniform
    u picks slot ``max(ceil(u*m) - 1, 0)``, the left-continuous quantile
    ``inf{i : C_i >= u*m}`` of the running multiplicities C.  A level's
    slots are its table rows' atoms repeated by their multiplicities
    (:func:`_expand`), so each depth's picks are one gather.  All uniforms
    come from the counter-based field (role "w"), hashed in one fold over
    the tree (:func:`~hexch.fields._level_values`), so the output is
    deterministic in ``seed``.
    """
    _require_hierarchy("resynthesize", h)
    r, m2 = _integer(r, "r"), _integer(m2, "m2")
    if h.r != r:
        raise ValueError(f"hierarchy depth {h.r} does not match requested r={r}")
    levels = _level_values(_init_state(seed, "w"), (r,), (m2,))
    m, current = h.m, h.ids[0]
    for d in range(1, r + 1):
        k = r - d  # the level of the depth d-1 measures
        # u <= 1 - 2^-53, so u*m rounds below m and the slot stays in its row
        slot = np.ceil(levels[d].reshape(current.size, m2) * m).astype(np.intp)
        slot -= 1
        np.maximum(slot, 0, out=slot)
        # the picked slots, gathered at their flat index in the slot table
        slot += current[:, None] * m
        current = _expand(h.atoms[k], h.mult[k], m).take(slot.reshape(-1))
    return current


# -- distances ----------------------------------------------------------------

# Largest common weight denominator n solved as n x n assignments; a level
# k >= 1 whose weights need a larger one (or have none) is refused.
_MAX_DENOMINATOR = 1024


def wasserstein1(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """First Wasserstein distance between level-0 measures: the CDF gap area."""
    for x in (mu, nu):
        if not isinstance(x, EmpiricalMeasure):
            raise ValueError(f"wasserstein1 compares EmpiricalMeasures, not a {type(x).__name__}")
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
    its multiplicities count out of.  Per level, the tables are the padded
    atoms and multiplicities (0 past each row's atom count) of the distinct
    sub-measures below ``mu``.  Level-0 atoms are locations; level k >= 1
    atoms are row ids into the level k-1 table.  The top level is the one
    row of ``mu``.

    A :class:`DirectingHierarchy` stands for its root measure, and a
    measure for its table row: both are read from the hierarchy's level
    arrays (:func:`_row_tables`), with the hierarchy's ``m``.  Any other
    argument is refused."""
    if isinstance(mu, DirectingHierarchy):
        return _row_tables(mu.r - 1, mu.atoms, mu.mult, mu.ids[0][0]), mu.m
    if isinstance(mu, EmpiricalMeasure):
        (atoms, mult, m, _), j = mu._table_row
        return _row_tables(mu.level, atoms, mult, j), m
    raise ValueError(
        "nested_distance compares a DirectingHierarchy or an EmpiricalMeasure, "
        f"not a {type(mu).__name__}"
    )


def _row_tables(
    k: int, atoms: tuple, mult: tuple, j: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`_measure_tables` of row j of the level-k table in a hierarchy's
    level ``atoms`` and ``mult``: every table whole when level k has one
    row (each row below is then reachable), else the rows reachable from
    row j, one ``np.unique`` per level, with atom ids renumbered to match.
    Pads keep their atoms; their zero multiplicities drop them."""
    if len(atoms[k]) == 1:
        return list(zip(atoms[: k + 1], mult[: k + 1]))
    rows = np.array([j])
    tables = []
    for i in range(k, -1, -1):
        a, c = atoms[i][rows], mult[i][rows]
        if i:
            present = c > 0
            rows, a[present] = np.unique(a[present], return_inverse=True)
        tables.append((a, c))
    return tables[::-1]


def _same_tables(tables_a: list, ma: int, tables_b: list, mb: int) -> bool:
    """Whether two sides' :func:`_measure_tables` are one nested measure,
    as ``==`` on their measures decides, without building an atom: as many
    levels and, level by level, as many rows, the same atoms (level-0
    locations; above, row ids, which both sides number in the canonical
    order of the measures they stand for) and equal weights, each side's
    by its own weight rule (:func:`_weights`), so that equal m compare the
    multiplicities.  A level is compared over the narrower table's width:
    a row's weights sum to 1, so a row equal to another there has no atom
    past it."""
    if len(tables_a) != len(tables_b):
        return False
    for k, ((aa, ca), (ab, cb)) in enumerate(zip(tables_a, tables_b)):
        w = min(ca.shape[1], cb.shape[1])
        if len(ca) != len(cb) or not (aa[:, :w] == ab[:, :w]).all():
            return False
        ca, cb = ca[:, :w], cb[:, :w]
        if ma != mb:
            ca, cb = _weights(ca, ma, k), _weights(cb, mb, k)
        if not (ca == cb).all():
            return False
    return True


def _table_rows(
    atoms: np.ndarray, mult: np.ndarray, m: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row of a level-0 table as its locations and weights, pads
    dropped."""
    return [(atoms[i, :p], _weights(mult[i, :p], m, 0))
            for i, p in enumerate(np.count_nonzero(mult, axis=1).tolist())]


def _level_counts(
    ca: np.ndarray, cb: np.ndarray, ma: int, mb: int
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(n, counts_a, counts_b)`` for the smallest n that makes every
    weight of two multiplicity tables, counts out of ``ma`` and ``mb``, a
    whole multiple of 1/n: the counts scaled to ``n0 = lcm(ma, mb)`` by
    ``f = n0 / m`` and divided by ``g = gcd(n0, every scaled count)``, so
    ``n = n0 / g``.  g is taken per table as ``f * gcd(counts)``, and a
    table whose f equals g is returned as it is.  None if n exceeds
    ``_MAX_DENOMINATOR``."""
    n0 = math.lcm(ma, mb)
    fa, fb = n0 // ma, n0 // mb
    g = math.gcd(n0, fa * int(np.gcd.reduce(ca, axis=None)), fb * int(np.gcd.reduce(cb, axis=None)))
    n = n0 // g
    if n > _MAX_DENOMINATOR:
        return None
    return n, ca if fa == g else ca * fa // g, cb if fb == g else cb * fb // g


def _w1_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W1 between every row of ``a`` and every row of ``b``, rows being
    ascending samples of n equal weights: the mean gap of the sorted
    samples.  Sample k of every row pair is one plane ``|a[:, k] - b[:, k]|``
    over a block of rows of ``a``, and a block's planes are added by
    :func:`_gap_sum` in numpy's own order, so each sum of n gaps has the
    bits of ``np.add.reduce`` over the row pair's gaps; it is divided by n
    once, as ``mean`` does.  A block's 16 working planes take at most
    ``_BLOCK_BYTES // 16``, which stays in a core's cache; besides them
    only the transposed ``b`` and a plane per halving of n past 128 are
    allocated."""
    n = a.shape[1]
    out = np.empty((len(a), len(b)))
    bt = np.ascontiguousarray(b.T)
    step = max(1, _BLOCK_BYTES // (16 * 16 * 8 * len(b)))
    scratch = np.empty((16, min(step, len(a)), len(b)))
    for lo in range(0, len(a), step):
        hi = min(lo + step, len(a))
        _gap_sum(a[lo:hi].T, bt, out[lo:hi], scratch[:, : hi - lo])
    out /= n
    return out


def _gap_sum(at: np.ndarray, bt: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write to ``out`` the sum over k of the planes ``|at[k][:, None] -
    bt[k]|``, added in the order of numpy's pairwise sum of a contiguous row
    of n = ``len(at)`` terms: under 8 terms left to right; up to 128, 8
    lanes, lane j adding terms j, j + 8, ... left to right, joined as
    ``((0+1)+(2+3))+((4+5)+(6+7))`` before the last ``n % 8`` terms are
    added left to right; past 128, the sum of two halves, the first
    ``n//2 - (n//2) % 8`` terms long.  The gaps are >= 0, so the ``0.0``
    that numpy's reduction starts from changes no bit.  ``scratch`` holds
    the 8 lanes and 8 gap planes."""
    n = len(at)
    if n > 128:
        half = n // 2 - n // 2 % 8
        rest = np.empty_like(out)
        _gap_sum(at[:half], bt[:half], out, scratch)
        _gap_sum(at[half:], bt[half:], rest, scratch)
        out += rest
        return
    lanes, gaps = scratch[:8], scratch[8:]
    top = n - n % 8
    if n < 8:
        np.abs(np.subtract(at[0, :, None], bt[0], out=out), out=out)
        top = 1
    else:
        np.abs(np.subtract(at[:8, :, None], bt[:8, None], out=lanes), out=lanes)
        for i in range(8, top, 8):
            np.abs(np.subtract(at[i : i + 8, :, None], bt[i : i + 8, None], out=gaps), out=gaps)
            lanes += gaps
        np.add(lanes[0::2], lanes[1::2], out=gaps[:4])
        np.add(gaps[0:4:2], gaps[1:4:2], out=gaps[4:6])
        np.add(gaps[4], gaps[5], out=out)
    for k in range(top, n):
        out += np.abs(np.subtract(at[k, :, None], bt[k], out=gaps[0]), out=gaps[0])


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
    :attr:`~DirectingHierarchy.measures`, or an :class:`EmpiricalMeasure`,
    read from the level arrays of the hierarchy it is a row of; any other
    argument raises ``ValueError``.  Both sides are laid out as level
    tables (:func:`_measure_tables`), read straight from the level arrays,
    and each level's distances are computed for all row
    pairs at once, level 0 first.  Each level k >= 1 is an n x n assignment
    per pair of rows, the costs of a level's pairs gathered in one pass, so
    its weights must be multiples of a common 1/n with n <= 1024.  The
    weights are multiplicities out of the sides' m, so n is lcm(m_a, m_b)
    reduced by the gcd of the counts (:func:`_level_counts`), exactly; it
    is at most 1024 for any sides up to 32.  A level k >= 1 with a larger
    n raises ``ValueError``: extracted sides 32 and 33, say (n = 1056).
    Level 0 is the mean gap of n sorted samples per pair of rows when
    n <= 1024, summed plane by plane in numpy's order over blocks of rows
    (:func:`_w1_table`), and :func:`wasserstein1` pair by pair, from the
    table rows, when not.
    Nothing is kept between calls.
    """
    (tables_a, ma), (tables_b, mb) = _measure_tables(mu), _measure_tables(nu)
    if mu is nu or _same_tables(tables_a, ma, tables_b, mb):
        return 0.0
    if len(tables_a) != len(tables_b):
        raise ValueError(
            f"cannot compare measures of levels {len(tables_a) - 1} and {len(tables_b) - 1}"
        )
    if len(tables_a) == 1:
        return _wasserstein1(*_table_rows(*tables_a[0], ma)[0], *_table_rows(*tables_b[0], mb)[0])
    levels = list(zip(tables_a, tables_b))
    common = [_level_counts(ca, cb, ma, mb) for (_, ca), (_, cb) in levels]
    for k in range(1, len(levels)):
        if common[k] is None:
            raise ValueError(
                f"level {k}: the weights have no common denominator n <= "
                f"{_MAX_DENOMINATOR}, which its n x n assignments need"
            )
    cost = None
    for ((aa, ca), (ab, cb)), counts in zip(levels, common):
        if counts is None:  # level 0 only
            cost = np.array([[_wasserstein1(xa, va, xb, vb) for xb, vb in _table_rows(ab, cb, mb)]
                             for xa, va in _table_rows(aa, ca, ma)])
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
    ``, w]], "level": k}`` after a row's last atom.  Each multiplicity that
    occurs is read as its weight (:func:`_weights`) and formatted once;
    returns the glue pieces and, per padded atom, its index among them."""
    c = h.mult[k]
    uniq, inv = np.unique(c, return_inverse=True)
    texts = _rows(_weights(uniq, h.m, k), repr, ends=np.arange(1, len(uniq) + 1))
    gid = inv.reshape(c.shape)
    gid[np.arange(len(c)), np.count_nonzero(c, axis=1) - 1] += len(uniq)
    return [b", %s], [" % t for t in texts] + [b', %s]], "level": %d}' % (t, k) for t in texts], gid


def _level0_texts(h: DirectingHierarchy, glue: list[bytes], gid: np.ndarray) -> list[bytes]:
    """The JSON text of each level-0 table row, a block of rows at a time:
    each atom's location (:func:`hexch._text._rows`), then its glue from the
    planes of a 0-padded byte table of ``glue``."""
    a, c = h.atoms[0], h.mult[0]
    table = np.array(glue, dtype=bytes).view(np.uint8).reshape(len(glue), -1).T.copy()
    texts: list[bytes] = []
    step = max(1, _BLOCK_ATOMS // a.shape[1])
    for lo in range(0, len(a), step):
        present = c[lo : lo + step] > 0
        rows = _rows(a[lo : lo + step][present], repr, after=table[:, gid[lo : lo + step][present]],
                     ends=np.cumsum(np.count_nonzero(present, axis=1)))
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

    Written from the level tables, bottom-up: each level-0 row and the
    weight of each multiplicity in a level are built once by the CSV
    writer's row builder (:func:`hexch._text._rows`), a level-0 block of
    rows at a time; a level k >= 1 row is the pieces of the child rows it
    points at, glued by its weights.  Every float is ``float.__repr__``'s
    text, as ``json`` writes it, from the exact shortest-round-trip kernel
    on [1e-6, 1) and from ``repr`` itself elsewhere.  Keys follow string
    order (``"1/10"`` before ``"1/2"``), as ``sort_keys`` puts them.  No text
    is decoded and no :class:`EmpiricalMeasure` is made."""
    _require_hierarchy("hierarchy_json_chunks", h)
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
    n = np.count_nonzero(h.mult[k][j])
    yield b'{"atoms": [['
    for child, g in zip(h.atoms[k][j, :n].tolist(), gid[j, :n].tolist()):
        yield from _row_pieces(h, glues, level0, k - 1, child)
        yield glue[g]


def hierarchy_to_json_obj(h: DirectingHierarchy) -> dict:
    """``{"m": m, "measures": {key: measure, ...}, "r": r}``, each internal
    vertex's measure as :func:`hierarchy_json_chunks` describes it:
    ``json.loads`` of the joined pieces, so the object and the file have
    one source."""
    _require_hierarchy("hierarchy_to_json_obj", h)
    return json.loads(b"".join(hierarchy_json_chunks(h)))
