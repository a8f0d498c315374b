"""Reference implementations that tests compare hexch against.

Each states, one object at a time, a rule that hexch applies to whole
arrays: the weight of a measure over measures, the ``hierarchy.json``
object of a measure, the energy statistic, the CSV key order, and the
smallest common denominator of two weight tables.
"""

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from hexch.definetti import _MAX_DENOMINATOR, EmpiricalMeasure
from hexch.tree import _check_size


def _merge(pairs) -> EmpiricalMeasure:
    """The level-k >= 1 measure of ``(measure, weight)`` pairs: equal
    measures merge by summing their weights in turn, and atoms follow
    ``sort_key`` order."""
    merged: dict = {}
    order: dict = {}
    level = None
    for mu, w in pairs:
        key = mu.sort_key()
        merged[key] = merged.get(key, 0.0) + w
        order[key] = mu
        level = mu.level + 1
    return EmpiricalMeasure(tuple((order[k], merged[k]) for k in sorted(merged)), level)


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
    _check_size("d", d, 0)
    _check_size("m", m)
    coords = tuple(map(str, range(1, m + 1)))
    return map("/".join, itertools.product((str(d),), *[coords] * d))


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
