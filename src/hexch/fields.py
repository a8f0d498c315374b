"""Deterministic uniform fields on tree vertices and sigma-driven samplers.

Randomness is counter-based: the value attached to a vertex is a fixed
avalanche hash of (seed, role, vertex), mapped to [0,1) with 53-bit
precision.  That makes sampling order-independent, parallel-safe and stable
under truncation growth: the value at a vertex never depends on how much of
the tree is materialized around it, and whole arrays are reproducible
bit-for-bit from the seed alone.

The mixing function is the splitmix64 finalizer; its constants are frozen
below and must never change, since every stored array and manifest depends
on them:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

A vertex is absorbed as the word sequence (depth, c1, ..., cd), one such
block per component for product vertices; this mirrors the canonical string
encoding.  Distinct roles ("v", "u", "v^7", ...) give independent streams
over the same vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable

import numpy as np

from .tree import ProductVertex, TreeVertex, _check_size, _is_size

__all__ = [
    "UniformField",
    "SigmaModel",
    "derive_seed",
    "derive_seeds",
    "level_values",
    "sample_array",
    "sample_ah",
    "path_matrix",
]

_U64 = np.uint64
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)
_GOLD = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; operates on uint64 arrays (wrap-around multiply).
    # The first step allocates, so the in-place steps never touch the input.
    z = z ^ (z >> _S30)
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _mix_int(z: int) -> int:
    """:func:`_mix` on one masked Python int; the multiplies wrap mod 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=65536)
def _role_key(role: str) -> int:
    data = role.encode("utf-8")
    h = _mix_int((_GOLD ^ len(data)) & _MASK)
    for b in data:
        h = _mix_int(h ^ b)
    return h


def _seed_int(seed) -> int:
    """A seed as a Python int: an int or numpy integer in [0, 2^64).  Any
    other value raises, since reading it modulo 2^64 would alias it with a
    valid seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _init_int(seed: int, role: str) -> int:
    return _mix_int(_mix_int(_seed_int(seed) ^ _GOLD) ^ _role_key(role))


def _one_seed(seed) -> bool:
    """Whether ``seed`` is one seed rather than a sequence: ``np.ndim(seed)
    == 0``, decided without that call for a list, which it would convert to
    an array (about 14 us for 50 seeds)."""
    return not isinstance(seed, list) and np.ndim(seed) == 0


def _seed_words(seed) -> np.ndarray:
    """The (K,) words mix(seed ^ GOLD) that the streams (seed, role) start
    from, one per seed of an int or a 1-D sequence of K seeds, in one pass.

    A list of exact nonnegative Python ints (no bools), as
    :func:`derive_seeds` returns, is converted by one ``np.array`` call,
    which raises ``OverflowError`` past 2^64 - 1 (numpy < 2 would wrap a
    negative int, hence the sign check).  Any other sequence, or that
    overflow, takes the per-seed check :func:`_seed_int`, so every refusal
    keeps its message."""
    seeds = (seed,) if _one_seed(seed) else seed
    if len(seeds) == 0:
        raise ValueError(f"seeds must be an integer or a non-empty sequence, got {seed!r}")
    if isinstance(seeds, list) and set(map(type, seeds)) == {int} and min(seeds) >= 0:
        try:
            return _mix(np.array(seeds, dtype=_U64) ^ _U64(_GOLD))
        except OverflowError:
            pass  # a seed past 2^64 - 1, which the per-seed check names
    return _mix(np.array([_seed_int(s) for s in seeds], dtype=_U64) ^ _U64(_GOLD))


def _init_state(seed, role: str) -> np.ndarray:
    """The (K,) uint64 start states of the streams (seed, role), one per seed;
    an int seed takes the Python mix, about 20 us cheaper than an array pass."""
    if _one_seed(seed):
        return np.array([_init_int(seed, role)], dtype=_U64)
    return _mix(_seed_words(seed) ^ _U64(_role_key(role)))


def _unit(h: np.ndarray) -> np.ndarray:
    """Hash states to floats in [0, 1) with 53-bit precision."""
    return (h >> _S11).astype(np.float64) * 2.0**-53


def _hash_words(h0: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Fold word columns into states ``h0`` (K,), words (V, L) -> floats (K, V).

    Every word row holds at least its depth word, so L >= 1 and the first
    fold broadcasts ``h`` to (K, V).
    """
    h = h0[:, None]
    for col in range(words.shape[1]):
        h = _mix(h ^ words[:, col])
    return _unit(h)


def _hash_level(h0: np.ndarray, depths: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """Field values (K, vertices) of the K start states ``h0`` at depth tuple
    ``depths`` of the product truncation with sides ``shape``, vertices in
    lexicographic order (the first tree slowest), each hashed as
    :func:`_hash_words` hashes its word blocks (d_i, c1, ..., c_{d_i}).
    Each word is folded once into the states of the prefixes it extends."""
    h = h0[:, None]
    for d_i, m_i in zip(depths, shape):
        h = _mix(h ^ _U64(d_i))
        coords = np.arange(1, m_i + 1, dtype=_U64)
        for _ in range(d_i):
            h = _mix(h[:, :, None] ^ coords).reshape(len(h0), -1)
    return _unit(h)


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """A fresh 64-bit seed, deterministic in (seed, label, index)."""
    return _mix_int(_init_int(seed, "derive:" + label) ^ (index & _MASK))


def derive_seeds(seed: int, label: str, count: int) -> list[int]:
    """``[derive_seed(seed, label, k) for k in range(count)]`` as Python ints,
    from one mix over the index range."""
    _check_size("count", count, 0)
    h = _U64(_init_int(seed, "derive:" + label))
    return _mix(h ^ np.arange(count, dtype=_U64)).tolist()


def _vertex_row(v: TreeVertex | ProductVertex) -> tuple[int, ...]:
    """Hash words of a vertex: (depth, c1, ..., cd) per component."""
    if isinstance(v, ProductVertex):
        return tuple(w for p in v.parts for w in (len(p.coords), *p.coords))
    return (len(v.coords), *v.coords)


def _coord_words(coords: np.ndarray) -> np.ndarray:
    """Word rows (d, c1, ..., cd) of an (N, d) integer coordinate array."""
    if coords.ndim != 2 or not np.issubdtype(coords.dtype, np.integer):
        raise ValueError(
            f"coordinate rows must be a 2-D integer array, got {coords.dtype} "
            f"of shape {coords.shape}"
        )
    if coords.size and coords.min() < 1:
        raise ValueError("vertex coordinates must be >= 1")
    n, d = coords.shape
    words = np.empty((n, d + 1), dtype=_U64)
    words[:, 0] = d
    words[:, 1:] = coords
    return words


@lru_cache(maxsize=16)
def _path_layout(depths: tuple[int, ...], shape: tuple[int, ...]):
    """The leaf grid of a product truncation and, per depth tuple in
    lexicographic order, the tuple and the shape that broadcasts its vertex
    values over the leaf grid."""
    grid = tuple(m_i for r_i, m_i in zip(depths, shape) for _ in range(r_i))
    levels = []
    for dt in itertools.product(*(range(r_i + 1) for r_i in depths)):
        # a vertex at depth d_i in tree i fixes the first d_i axes of that tree
        bshape = tuple(
            m_i if k < d_i else 1
            for d_i, r_i, m_i in zip(dt, depths, shape)
            for k in range(r_i)
        )
        levels.append((dt, bshape))
    return grid, tuple(levels)


def _level_values(h0: np.ndarray, depths, shape) -> list[np.ndarray]:
    """Field values (K, vertices) of the K start states ``h0`` at each depth
    tuple of the product truncation, hashed once per depth tuple."""
    layout = _path_layout(depths, shape)[1]
    return [_hash_level(h0, dt, shape) for dt, _ in layout]


def _write_paths(levels: list[np.ndarray], depths, shape) -> np.ndarray:
    """Lay per-depth-tuple values (K, vertices), as :func:`_level_values`
    orders them, along every product-leaf path: each vertex value is
    broadcast over the leaves below it.  Shape (K, leaves, depth tuples),
    leaves in lexicographic order."""
    grid, layout = _path_layout(depths, shape)
    k = len(levels[0])
    out = np.empty((k,) + grid + (len(layout),))
    _fill_paths(out, levels, layout)
    return out.reshape(k, -1, len(layout))


def _fill_paths(out: np.ndarray, levels: list[np.ndarray], layout) -> None:
    """Write :func:`_write_paths`'s values into ``out``, of shape lead +
    leaf grid + (depth tuples,), whose lead axes split the K rows of
    ``levels`` in C order."""
    lead = out.shape[: out.ndim - 1 - len(layout[0][1])]
    for j, (vals, (_, bshape)) in enumerate(zip(levels, layout)):
        out[..., j] = vals.reshape(lead + bshape)


def _as_tuple(x) -> tuple[int, ...]:
    """A depth or side tuple; an int means one tree."""
    return (x,) if np.ndim(x) == 0 else tuple(x)


def _as_tuples(depths, shape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``depths`` and ``shape`` as equal-length tuples; ints mean one tree."""
    depths_t, shape_t = _as_tuple(depths), _as_tuple(shape)
    if len(depths_t) != len(shape_t):
        raise ValueError("depths and shape must have equal length")
    if not all(_is_size(r, 0) for r in depths_t):
        raise ValueError(f"depths must be integers >= 0, got {depths!r}")
    if not all(_is_size(m) for m in shape_t):
        raise ValueError(f"shape must be integers >= 1, got {shape!r}")
    return depths_t, shape_t


@dataclass(frozen=True)
class UniformField:
    """A deterministic i.i.d.-uniform surrogate indexed by tree vertices.

    ``value`` is a pure function of (seed, role, vertex); distinct roles are
    independent streams.  Values lie in [0, 1).
    """

    seed: int
    role: str = "v"

    def value(self, v: TreeVertex | ProductVertex) -> float:
        words = np.array([_vertex_row(v)], dtype=_U64)
        return float(_hash_words(_init_state(self.seed, self.role), words)[0, 0])

    def values(self, vs) -> np.ndarray:
        """Batch evaluation, equal to ``value`` on each vertex.

        ``vs`` is either a sequence of vertices or an integer array of shape
        ``(N, d)``.  Vertices may mix depths and tree/product forms: their
        word rows are grouped by length and each group is hashed in one
        array pass.  An array holds the coordinate rows of N depth-d tree
        vertices (every coordinate >= 1); its word rows (d, c1, ..., cd) are
        hashed in one pass, without building any vertex object.
        """
        h0 = _init_state(self.seed, self.role)
        if isinstance(vs, np.ndarray):
            return _hash_words(h0, _coord_words(vs))[0]
        rows = [_vertex_row(v) for v in vs]
        if len({len(row) for row in rows}) == 1:
            return _hash_words(h0, np.array(rows, dtype=_U64))[0]
        groups: dict[int, list[int]] = {}
        for i, row in enumerate(rows):
            groups.setdefault(len(row), []).append(i)
        out = np.empty(len(rows))
        for idx in groups.values():
            words = np.array([rows[i] for i in idx], dtype=_U64)
            out[idx] = _hash_words(h0, words)[0]
        return out


def level_values(seed: int, r: int, m: int) -> dict[int, np.ndarray]:
    """The uniform field of role "u" on the whole truncation {1..m}^r: a dict
    from each depth d to the values of its m^d vertices, in lexicographic
    coordinate order (``(1, 2)`` before ``(1, 10)``), hashed once per depth."""
    _check_size("r", r, 0)
    _check_size("m", m)
    return {d: u[0] for d, u in enumerate(_level_values(_init_state(seed, "u"), (r,), (m,)))}


# -- sigma models and samplers -----------------------------------------------


@dataclass(frozen=True)
class SigmaModel:
    """A measurable map from path-indexed values to [0,1].

    ``fn`` is vectorized: it receives an (N, arity) matrix whose columns are
    the path values in the frozen ordering (root to leaf for one tree;
    depth-tuple lexicographic for products; shared block then replica
    block for :func:`sample_ah`) and returns N values in [0,1].
    """

    name: str
    arity: int
    fn: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()

    def eval(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.arity:
            raise ValueError(
                f"model {self.name!r} expects (N, {self.arity}) inputs, "
                f"got shape {inputs.shape}"
            )
        out = np.asarray(self.fn(inputs), dtype=np.float64)
        if out.shape != (inputs.shape[0],):
            raise ValueError(f"model {self.name!r} returned shape {out.shape}")
        if out.size and (out.min() < -1e-9 or out.max() > 1.0 + 1e-9):
            raise ValueError(f"model {self.name!r} produced values outside [0,1]")
        return np.clip(out, 0.0, 1.0)


def path_matrix(seed, role: str, depths, shape) -> np.ndarray:
    """Field values along the path of every truncation leaf.

    ``depths`` and ``shape`` are ints for one tree, {1..m}^r, or
    equal-length tuples for a product of trees.  Shape (leaves, path size)
    for an int seed: rows follow the lexicographic leaf order (the first
    tree slowest), columns the depth tuples in lexicographic order, so for
    one tree column d holds the depth-d prefix value.  A 1-D sequence of K
    seeds gives the K matrices stacked, shape (K, leaves, path size), from
    one pass over the K start states.
    """
    depths_t, shape_t = _as_tuples(depths, shape)
    h0 = _init_state(seed, role)
    paths = _write_paths(_level_values(h0, depths_t, shape_t), depths_t, shape_t)
    return paths[0] if _one_seed(seed) else paths


def sample_array(model: SigmaModel, depths, shape, seed, role: str = "v") -> np.ndarray:
    """Array over the truncation leaves, X = model(path values).

    ``depths`` and ``shape`` are as in :func:`path_matrix`.  Entries are
    indexed lexicographically; with a fixed seed the result is identical
    across runs, and the array over {1..m}^r is entry-for-entry a sub-array
    of the one over any larger {1..m'}^r.  A 1-D sequence of K seeds gives
    the K arrays stacked, shape (K, leaves), from one model call.
    """
    # r + 1 values on one leaf's path, prod (r_i + 1) in a product
    size = prod(r_i + 1 for r_i in _as_tuples(depths, shape)[0])
    if model.arity != size:
        raise ValueError(f"model arity {model.arity} != path size {size}")
    paths = path_matrix(seed, role, depths, shape)
    return model.eval(paths.reshape(-1, size)).reshape(paths.shape[:-1])


def sample_ah(model: SigmaModel, r: int, m: int, n: int, seed) -> np.ndarray:
    """Array over {1..m}^r x {1..n}: shared tree field plus per-column replicas.

    Column i is model(v-path, v^i-path); the shared field uses role "v" and
    replica i the role "v^i".  Shape (m^r, n); a 1-D sequence of K seeds
    gives the K arrays stacked, shape (K, m^r, n), from K*n replica start
    states and K shared ones hashed in one pass each.  The replica start
    states are one mix of the K seed words against the n role keys.

    The model input, (K n m^r, 2(r+1)) rows ordered seed, replica, leaf, is
    written once into one array: the shared columns from one
    :func:`path_matrix` call, broadcast over the n replicas, and the replica
    columns straight from each depth's vertex values, broadcast over the
    leaves below each vertex.
    """
    _check_size("n", n)
    if model.arity != 2 * (r + 1):
        raise ValueError(f"model arity {model.arity} != 2(r+1) = {2 * (r + 1)}")
    shared = path_matrix(seed, "v", r, m)
    lead = shared.shape[:-2]
    k = prod(lead)
    grid, layout = _path_layout((r,), (m,))
    inputs = np.empty((k, n) + grid + (2 * (r + 1),))
    inputs[..., : r + 1] = shared.reshape((k, 1) + grid + (r + 1,))
    # start states seed-major: replica i of seed k is row k*n + i - 1
    keys = np.array([_role_key(f"v^{i}") for i in range(1, n + 1)], dtype=_U64)
    h0 = _mix(_seed_words(seed)[:, None] ^ keys).reshape(-1)
    _fill_paths(inputs[..., r + 1 :], _level_values(h0, (r,), (m,)), layout)
    out = model.eval(inputs.reshape(-1, 2 * (r + 1)))
    return out.reshape(lead + (n, m**r)).swapaxes(-1, -2)
