"""Empirical measures, directing-hierarchy extraction, and resynthesis.

The constructive direction: given an array on a finite truncation, estimate
the hierarchy of directing measures by taking empirical measures of sibling
blocks bottom-up (values at the deepest level, then measures of measures),
and regenerate a fresh exchangeable array from that hierarchy by drawing
child measures and finally leaf values through quantile transforms of fresh
uniforms.

Measures over measures are represented concretely by finite atom systems
nested to the required level, compared with an exact optimal-transport
distance whose ground cost recurses down the nesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .fields import UniformField
from .tree import TreeVertex, internal_vertices, leaf_coords

__all__ = [
    "EmpiricalMeasure",
    "DirectingHierarchy",
    "empirical_measure",
    "measure_over",
    "point_mass",
    "quantile_resample",
    "extract_hierarchy",
    "resynthesize",
    "wasserstein1",
    "nested_distance",
    "measure_to_json_obj",
    "hierarchy_to_json_obj",
]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A finite measure with unit mass; atoms are values or nested measures.

    Level 0 atoms are locations in [0,1] sorted ascending; level k atoms are
    level-(k-1) measures in canonical order.  Duplicate atoms are merged at
    construction, so equal measures have identical atom systems.
    """

    atoms: tuple[tuple[object, float], ...]
    level: int

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a measure needs at least one atom")
        # exact sum of the stored weights: a plain running sum drifts by
        # about one rounding per atom, past the tolerance at ~10^5 atoms
        total = math.fsum(w for _, w in self.atoms)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {total}, expected 1")
        for loc, w in self.atoms:
            if w <= 0:
                raise ValueError("atom weights must be positive")
            if self.level == 0:
                if not 0.0 <= loc <= 1.0:
                    raise ValueError(f"level-0 location {loc} outside [0,1]")
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

    @cached_property
    def _padded_cdf(self) -> np.ndarray:
        """Cumulative weights after 0, 1, ..., n atoms; the last is exactly 1."""
        cum = np.zeros(len(self.atoms) + 1)
        np.cumsum(self.weights, out=cum[1:])
        cum[-1] = 1.0
        return _read_only(cum)

    def cumweights(self) -> np.ndarray:
        return self._padded_cdf[1:]

    def cdf(self, x) -> np.ndarray:
        if self.level != 0:
            raise ValueError("cdf is defined for level-0 measures only")
        idx = np.searchsorted(self.locations, np.asarray(x, float), side="right")
        return self._padded_cdf[idx]

    def cdf_left(self, x) -> np.ndarray:
        if self.level != 0:
            raise ValueError("cdf is defined for level-0 measures only")
        idx = np.searchsorted(self.locations, np.asarray(x, float), side="left")
        return self._padded_cdf[idx]

    def quantile(self, v) -> np.ndarray:
        """Left-continuous generalized inverse CDF: Q(v) = inf{x : F(x) >= v}."""
        if self.level != 0:
            raise ValueError("quantile is defined for level-0 measures only")
        return self.locations[self._atom_index(v)]

    def _atom_index(self, v) -> np.ndarray:
        """Index of the atom the left-continuous inverse weight CDF picks at v."""
        idx = np.searchsorted(self.cumweights(), np.asarray(v, float), side="left")
        return np.minimum(idx, len(self.atoms) - 1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _merge(pairs, level: int) -> EmpiricalMeasure:
    merged: dict = {}
    order: dict = {}
    for loc, w in pairs:
        key = loc if level == 0 else loc.sort_key()
        merged[key] = merged.get(key, 0.0) + w
        order[key] = loc
    keys = sorted(merged)
    return EmpiricalMeasure(tuple((order[k], merged[k]) for k in keys), level)


def empirical_measure(values) -> EmpiricalMeasure:
    """Level-0 empirical measure: one atom per distinct value, weight = freq."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("cannot form the empirical measure of an empty sample")
    locs, counts = np.unique(values, return_counts=True)
    n = values.size
    return EmpiricalMeasure(
        tuple((float(x), int(c) / n) for x, c in zip(locs, counts)), 0
    )


def measure_over(measures) -> EmpiricalMeasure:
    """Empirical measure of a finite family of equal-level measures."""
    measures = list(measures)
    if not measures:
        raise ValueError("cannot form the empirical measure of an empty family")
    lvl = measures[0].level
    if any(m.level != lvl for m in measures):
        raise ValueError("all member measures must have the same level")
    n = len(measures)
    return _merge(((m, 1.0 / n) for m in measures), lvl + 1)


def point_mass(x: float) -> EmpiricalMeasure:
    return EmpiricalMeasure(((float(x), 1.0),), 0)


def quantile_resample(mu: EmpiricalMeasure, v) -> float | np.ndarray:
    """Draw from a level-0 measure by inverting its CDF at ``v``.

    Left-continuous convention throughout: ties break toward the smaller
    atom, identically everywhere in the package.
    """
    if mu.level != 0:
        raise ValueError("quantile_resample needs a level-0 measure")
    out = mu.quantile(v)
    return float(out) if np.isscalar(v) else out


# -- directing hierarchies ----------------------------------------------------


@dataclass(frozen=True)
class DirectingHierarchy:
    """Estimated directing measures of a depth-``r`` truncation.

    One measure per internal vertex, in :func:`~hexch.tree.internal_vertices`
    order (the root first, the m^(r-1) depth r-1 vertices last).  A depth-d
    measure has nesting level r-1-d: plain value distributions at the
    deepest internal level, measures of measures above, up to the root.
    """

    r: int
    m: int
    measures: tuple[EmpiricalMeasure, ...]

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        sizes = [self.m**d for d in range(self.r)]
        if not sizes or len(self.measures) != sum(sizes):
            raise ValueError(
                f"{len(self.measures)} measures for the {sum(sizes)} internal "
                f"vertices of the {{1..{self.m}}}^{self.r} truncation"
            )
        wants = (self.r - 1 - d for d, size in enumerate(sizes) for _ in range(size))
        for i, (mu, want) in enumerate(zip(self.measures, wants)):
            if mu.level != want:
                raise ValueError(f"measure {i} has level {mu.level}, expected {want}")

    @property
    def root_measure(self) -> EmpiricalMeasure:
        return self.measures[0]

    @cached_property
    def _by_vertex(self) -> dict[TreeVertex, EmpiricalMeasure]:
        """The measures keyed by their vertices, for lookups and JSON keys."""
        keys = internal_vertices(self.r, self.m, cap=len(self.measures))
        return dict(zip(keys, self.measures))

    def measure_at(self, v: TreeVertex) -> EmpiricalMeasure:
        return self._by_vertex[v]


def _sorted_row_measures(rows: np.ndarray) -> list[EmpiricalMeasure]:
    """Level-0 empirical measures of the rows of a row-sorted (k, m) matrix.

    Runs of equal values in a row merge into one atom of weight count/m, so
    each measure's atoms and weights are exactly those that
    :func:`empirical_measure` gives on the row.
    """
    m = rows.shape[1]
    flat = rows.reshape(-1)
    # an atom starts wherever a row starts or its value changes
    first = np.ones(flat.size, dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    first[::m] = True
    starts = np.flatnonzero(first)
    locs = flat[starts].tolist()
    weights = (np.diff(starts, append=flat.size) / m).tolist()
    bounds = np.searchsorted(starts, np.arange(0, flat.size + 1, m)).tolist()
    return [
        EmpiricalMeasure(tuple(zip(locs[lo:hi], weights[lo:hi])), 0)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def extract_hierarchy(array, r: int, m: int) -> DirectingHierarchy:
    """Estimate the directing hierarchy of an array over ``{1..m}^r`` leaves.

    Depth r-1 vertices get the empirical measure of their children's values;
    each shallower vertex the empirical measure of its children's measures.
    The array must be complete and in lexicographic leaf order.  The
    ``(m^(r-1), m)`` sibling matrix is sorted along its rows once, and each
    depth r-1 measure is read off its sorted row.
    """
    arr = np.asarray(array, dtype=np.float64).reshape(-1)
    if arr.size != m**r:
        raise ValueError(
            f"incomplete array: expected {m**r} = {m}^{r} leaf values, got {arr.size}"
        )
    # deepest first: the sorted rows, then measures over each run of m siblings
    levels = [_sorted_row_measures(np.sort(arr.reshape(m ** (r - 1), m), axis=1))]
    for d in range(r - 1, 0, -1):
        below = levels[-1]
        levels.append([measure_over(below[i * m : (i + 1) * m]) for i in range(m ** (d - 1))])
    return DirectingHierarchy(r, m, tuple(mu for level in reversed(levels) for mu in level))


def resynthesize(h: DirectingHierarchy, r: int, m2: int, seed: int) -> np.ndarray:
    """Generate a fresh array over ``{1..m2}^r`` from an extracted hierarchy.

    Walking down from the root, each fresh vertex draws its child measure
    from the parent's nested measure by quantile sampling over the atom
    index, bottoming out with a value quantile draw at the leaves.  All
    uniforms come from the counter-based field (role "w"), hashed one whole
    depth at a time from its coordinate grid, so the output is
    deterministic in ``seed``.
    """
    if h.r != r:
        raise ValueError(f"hierarchy depth {h.r} does not match requested r={r}")
    f = UniformField(seed, role="w")
    current = [h.root_measure]
    for d in range(1, r):
        u = f.values(leaf_coords(d, m2)).reshape(len(current), m2)
        nxt = []
        for mu, row in zip(current, u):
            atoms = mu.atoms
            nxt.extend(atoms[i][0] for i in mu._atom_index(row).tolist())
        current = nxt
    u = f.values(leaf_coords(r, m2)).reshape(len(current), m2)
    return np.concatenate([mu.quantile(row) for mu, row in zip(current, u)])


# -- distances ----------------------------------------------------------------


def wasserstein1(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """First Wasserstein distance between level-0 measures: the CDF gap area."""
    if mu.level != 0 or nu.level != 0:
        raise ValueError("wasserstein1 needs level-0 measures")
    locs = np.union1d(mu.locations, nu.locations)
    fm = mu.cdf(locs)
    fn = nu.cdf(locs)
    if len(locs) == 1:
        return 0.0
    return float(np.sum(np.abs(fm[:-1] - fn[:-1]) * np.diff(locs)))


def _exact_ot(wa: np.ndarray, wb: np.ndarray, cost: np.ndarray) -> float:
    na, nb = len(wa), len(wb)
    if na == 1:
        return float(cost[0] @ wb)
    if nb == 1:
        return float(wa @ cost[:, 0])
    # min <cost, plan> s.t. row sums = wa, col sums = wb (last col constraint
    # dropped as redundant)
    a_eq = np.zeros((na + nb - 1, na * nb))
    for i in range(na):
        a_eq[i, i * nb : (i + 1) * nb] = 1.0
    for j in range(nb - 1):
        a_eq[na + j, j::nb] = 1.0
    b_eq = np.concatenate([wa, wb[:-1]])
    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, method="highs")
    if not res.success:
        raise RuntimeError(f"transport solve failed: {res.message}")
    return float(res.fun)


def nested_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Optimal-transport distance between equal-level nested measures.

    Level 0 is :func:`wasserstein1`; at level k the ground cost between
    atoms is the level-(k-1) nested distance, solved exactly as a small
    linear program.
    """
    if mu.level != nu.level:
        raise ValueError(
            f"cannot compare measures of levels {mu.level} and {nu.level}"
        )
    if mu.level == 0:
        return wasserstein1(mu, nu)
    if mu == nu:
        return 0.0
    cost = np.array(
        [[nested_distance(a, b) for b, _ in nu.atoms] for a, _ in mu.atoms]
    )
    return _exact_ot(mu.weights, nu.weights, cost)


# -- serialization ------------------------------------------------------------


def measure_to_json_obj(mu: EmpiricalMeasure) -> dict:
    if mu.level == 0:
        atoms = [[loc, w] for loc, w in mu.atoms]
    else:
        atoms = [[measure_to_json_obj(a), w] for a, w in mu.atoms]
    return {"level": mu.level, "atoms": atoms}


def hierarchy_to_json_obj(h: DirectingHierarchy) -> dict:
    return {
        "r": h.r,
        "m": h.m,
        "measures": {v.encode(): measure_to_json_obj(mu) for v, mu in h._by_vertex.items()},
    }
