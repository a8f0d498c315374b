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

from .tree import _SEED_MAX, ProductVertex, TreeVertex, _check_cells, _integer, _is_size

__all__ = [
    "UniformField",
    "SigmaModel",
    "derive_seed",
    "derive_seeds",
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


def _init_int(seed: int, role: str) -> int:
    return _mix_int(_mix_int(_integer(seed, "seed", 0, _SEED_MAX) ^ _GOLD) ^ _role_key(role))


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
    overflow, takes the per-seed check, so every refusal keeps its message."""
    seeds = (seed,) if _one_seed(seed) else seed
    if len(seeds) == 0:
        raise ValueError(f"seeds must be an integer or a non-empty sequence, got {seed!r}")
    if isinstance(seeds, list) and set(map(type, seeds)) == {int} and min(seeds) >= 0:
        try:
            return _mix(np.array(seeds, dtype=_U64) ^ _U64(_GOLD))
        except OverflowError:
            pass  # a seed past 2^64 - 1, which the per-seed check names
    words = [_integer(s, "seed", 0, _SEED_MAX) for s in seeds]
    return _mix(np.array(words, dtype=_U64) ^ _U64(_GOLD))


def _init_state(seed, role: str) -> np.ndarray:
    """The (K,) uint64 start states of the streams (seed, role), one per seed;
    an int seed takes the Python mix, about 20 us cheaper than an array pass."""
    if _one_seed(seed):
        return np.array([_init_int(seed, role)], dtype=_U64)
    return _mix(_seed_words(seed) ^ _U64(_role_key(role)))


def _unit(h: np.ndarray) -> np.ndarray:
    """Hash states to floats in [0, 1) with 53-bit precision, C-ordered: the
    states, the caller's own, are shifted in place and converted once."""
    h >>= _S11
    return np.multiply(h, 2.0**-53, out=np.empty(h.shape))


def _hash_words(h0: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Fold word columns into states ``h0`` (K,), words (V, L) -> floats (K, V).

    Every word row holds at least its depth word, so L >= 1 and the first
    fold broadcasts ``h`` to (K, V).
    """
    h = h0[:, None]
    for col in range(words.shape[1]):
        h = _mix(h ^ words[:, col])
    return _unit(h)


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """A fresh 64-bit seed, deterministic in (seed, label, index); the index,
    like the seed, is an integer in [0, 2^64)."""
    return _mix_int(_init_int(seed, "derive:" + label) ^ _integer(index, "index", 0, _SEED_MAX))


def derive_seeds(seed: int, label: str, count: int) -> list[int]:
    """``[derive_seed(seed, label, k) for k in range(count)]`` as Python ints,
    from one mix over the index range."""
    count = _integer(count, "count", 0)
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
    """Per depth tuple of a product truncation, in lexicographic order, the
    shape that broadcasts its vertex values over the leaf grid, whose axes
    are the r_i coordinates of each tree in turn.  A tree of side 1 has one
    vertex per depth and takes no axis, so that a deep chain (r = 32, m = 1)
    stays within numpy's 32 broadcast dimensions."""
    # a vertex at depth d_i in tree i fixes the first d_i axes of that tree
    return tuple(
        tuple(m_i if k < d_i else 1 for d_i, r_i, m_i in zip(dt, depths, shape)
              if m_i > 1 for k in range(r_i))
        for dt in itertools.product(*(range(r_i + 1) for r_i in depths))
    )


def _level_values(h0: np.ndarray, depths, shape) -> list[np.ndarray]:
    """Field values (K, vertices) of the K start states ``h0`` at each depth
    tuple of the product truncation, in :func:`_path_layout`'s order, each
    vertex hashed as :func:`_hash_words` hashes its blocks (d_i, c1, ...).

    One fold per tree, started from the states (N, K) of every depth tuple
    of the trees before it.  The r + 1 depth words are mixed in at once;
    the states, (depths not yet finished, N, vertices, K), then take each
    coordinate word in one mix for all those depths, and depth d is done
    after step d.  K is the fastest axis, so each pass runs along it.  Every
    state, ``h0``'s too, is a fresh array, which :func:`_unit` shifts.  The
    truncation, not the K of them, is checked against the cell cap first.
    """
    _check_cells(tuple(zip(shape, depths)))
    states = [h0[None, :].copy()]
    for r_i, m_i in zip(depths, shape):
        ends = list(itertools.accumulate(map(len, states)))
        h = np.concatenate(states)
        coords = np.arange(1, m_i + 1, dtype=_U64)[:, None]
        t = _mix(np.arange(r_i + 1, dtype=_U64)[:, None, None] ^ h)[:, :, None]
        folded = [t[0]]
        for d in range(r_i):
            t = _mix(t[1:, :, :, None] ^ coords).reshape(r_i - d, len(h), -1, len(h0))
            folded.append(t[0])
        states = [f[a:b].reshape(-1, len(h0)) for a, b in zip([0] + ends, ends) for f in folded]
    return [_unit(s.T) for s in states]


def _path_columns(h0: np.ndarray, depths, shape) -> list[np.ndarray]:
    """:func:`_level_values` with each depth tuple's values (K, vertices)
    reshaped, without a copy, to (K,) + its :func:`_path_layout` broadcast
    shape: column j of :func:`path_matrix` as an array that broadcasts over
    the leaf grid, each vertex value held once, not once per leaf below it."""
    levels, layout = _level_values(h0, depths, shape), _path_layout(depths, shape)
    return [v.reshape((len(h0),) + bshape) for v, bshape in zip(levels, layout)]


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


# -- sigma models and samplers -----------------------------------------------


@dataclass(frozen=True)
class SigmaModel:
    """A measurable map from path-indexed values to [0,1].

    ``fn`` is vectorized: it receives ``arity`` float arrays that broadcast
    together, the path values in the frozen ordering (root to leaf for one
    tree; depth-tuple lexicographic for products; shared block then replica
    block for :func:`sample_ah`), each vertex value held once, and returns
    values in [0,1] that broadcast to their common shape.  An (arity, N)
    array is such a sequence: ``eval(p.T)`` evaluates a path matrix ``p``.
    """

    name: str
    arity: int
    fn: Callable[[list[np.ndarray]], np.ndarray]
    params: tuple = ()

    def eval(self, columns) -> np.ndarray:
        columns = [np.asarray(c, dtype=np.float64) for c in columns]
        if len(columns) != self.arity:
            raise ValueError(
                f"model {self.name!r} expects {self.arity} input columns, got {len(columns)}"
            )
        shape = np.broadcast_shapes(*(c.shape for c in columns))
        out = np.asarray(self.fn(columns), dtype=np.float64)
        try:
            full = out if out.shape == shape else np.broadcast_to(out, shape)
        except ValueError:
            raise ValueError(f"model {self.name!r} returned shape {out.shape}") from None
        # a NaN, like a value outside [-1e-9, 1 + 1e-9], fails a comparison
        if out.size and not (out.min() >= -1e-9 and out.max() <= 1.0 + 1e-9):
            raise ValueError(f"model {self.name!r} produced values outside [0,1]")
        # the model's own full-size output is clipped in place, any other copied
        own = out is full and out.flags.writeable
        own = own and not any(np.may_share_memory(out, c) for c in columns)
        return np.clip(full, 0.0, 1.0, out=full if own else None)


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
    columns = _path_columns(_init_state(seed, role), depths_t, shape_t)
    paths = np.stack(np.broadcast_arrays(*columns), axis=-1)
    paths = paths.reshape(len(paths), -1, len(columns))
    return paths[0] if _one_seed(seed) else paths


def sample_array(model: SigmaModel, depths, shape, seed) -> np.ndarray:
    """Array over the truncation leaves, X = model(path values).

    ``depths`` and ``shape`` are as in :func:`path_matrix`; the field's role
    is "v".  Entries are indexed lexicographically; with a fixed seed the
    result is identical across runs, and the array over {1..m}^r is
    entry-for-entry a sub-array of the one over any larger {1..m'}^r.  A
    1-D sequence of K seeds gives the K arrays stacked, shape (K, leaves),
    from one model call on the columns of :func:`_path_columns`, its result
    broadcast to the leaf grid.
    """
    depths_t, shape_t = _as_tuples(depths, shape)
    # r + 1 values on one leaf's path, prod (r_i + 1) in a product
    size = prod(r_i + 1 for r_i in depths_t)
    if model.arity != size:
        raise ValueError(f"model arity {model.arity} != path size {size}")
    out = model.eval(_path_columns(_init_state(seed, "v"), depths_t, shape_t))
    return out.reshape(-1) if _one_seed(seed) else out.reshape(len(out), -1)


def sample_ah(model: SigmaModel, r: int, m: int, n: int, seed) -> np.ndarray:
    """Array over {1..m}^r x {1..n}: shared tree field plus per-column replicas.

    Column i is model(v-path, v^i-path); the shared field uses role "v" and
    replica i the role "v^i".  Shape (m^r, n); a 1-D sequence of K seeds
    gives the K arrays stacked, shape (K, m^r, n), from K*n replica start
    states and K shared ones hashed in one pass each.  The seeds become
    words once: the shared start states are their mix with the "v" key, as
    :func:`_init_state` makes them, and the replica ones their mix against
    the n role keys.

    The model reads 2(r+1) columns of shape (K, replicas) + the leaf grid's
    broadcast shape of each depth: the shared ones (:func:`_path_columns`)
    with a replica axis of length 1, the replica ones with one of length n.
    """
    r, m, n = _integer(r, "r", 0), _integer(m, "m"), _integer(n, "n")
    _check_cells([(m, r), (n, 1)])
    if model.arity != 2 * (r + 1):
        raise ValueError(f"model arity {model.arity} != 2(r+1) = {2 * (r + 1)}")
    words = _seed_words(seed)
    shared = [c[:, None] for c in _path_columns(_mix(words ^ _U64(_role_key("v"))), (r,), (m,))]
    k = len(words)
    # start states seed-major: replica i of seed k is row k*n + i - 1
    keys = np.array([_role_key(f"v^{i}") for i in range(1, n + 1)], dtype=_U64)
    h0 = _mix(words[:, None] ^ keys).reshape(-1)
    replicas = [c.reshape((k, n) + c.shape[1:]) for c in _path_columns(h0, (r,), (m,))]
    out = model.eval(shared + replicas).reshape(k, n, m**r).swapaxes(-1, -2)
    return out[0] if _one_seed(seed) else out
