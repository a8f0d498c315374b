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
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from typing import Callable, Mapping

import numpy as np
import scipy.stats

from .tree import ProductVertex, TreeVertex, _depth_vertices

__all__ = [
    "UniformField",
    "IField",
    "DistSpec",
    "SigmaModel",
    "derive_seed",
    "derive_seeds",
    "sample_array",
    "sample_multi",
    "sample_ah",
    "uniform_ifield",
    "ifield_truncation_values",
    "sample_conditional",
    "sample_pair",
    "path_matrix",
    "product_path_matrix",
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


def _seed_word(seed: int) -> int:
    """The word mix(seed ^ GOLD) that every stream (seed, role) starts from."""
    return _mix_int((int(seed) ^ _GOLD) & _MASK)


def _init_int(seed: int, role: str) -> int:
    return _mix_int(_seed_word(seed) ^ _role_key(role))


def _init_state(seed, role: str) -> np.ndarray:
    """The (K,) uint64 start states of the streams (seed, role): K=1 for an
    int seed, one state per seed for a 1-D sequence of K seeds."""
    seeds = (seed,) if np.ndim(seed) == 0 else seed
    return np.array([_init_int(s, role) for s in seeds], dtype=_U64)


def _hash_words(h0: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Fold word columns into states ``h0`` (K,), words (V, L) -> floats (K, V).

    Every word row holds at least its depth word, so L >= 1 and the first
    fold broadcasts ``h`` to (K, V).
    """
    h = h0[:, None]
    for col in range(words.shape[1]):
        h = _mix(h ^ words[:, col])
    return (h >> _S11).astype(np.float64) * 2.0**-53


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """A fresh 64-bit seed, deterministic in (seed, label, index)."""
    return _mix_int(_init_int(seed, "derive:" + label) ^ (index & _MASK))


def derive_seeds(seed: int, label: str, count: int) -> list[int]:
    """``[derive_seed(seed, label, k) for k in range(count)]`` as Python ints,
    from one mix over the index range."""
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


def _depth_tuples(depths: tuple[int, ...]):
    """Depth tuples of a product of trees of the given depths, lexicographic."""
    return itertools.product(*(range(r_i + 1) for r_i in depths))


@lru_cache(maxsize=16)
def _level_words(depths: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """Word rows of all vertices at depth tuple ``depths`` of the product
    truncation with sides ``shape``: one block (d_i, c1, ..., c_{d_i}) per
    tree, rows in lexicographic order with the first tree slowest.  A single
    tree is ``((d,), (m,))``.  Cached, so the array is read-only."""
    grid = tuple(m_i for d_i, m_i in zip(depths, shape) for _ in range(d_i))
    words = np.empty(grid + (len(grid) + len(depths),), dtype=_U64)
    axis = col = 0
    for d_i, m_i in zip(depths, shape):
        words[..., col] = d_i
        for _ in range(d_i):
            axis += 1
            col += 1
            words[..., col] = np.arange(1, m_i + 1, dtype=_U64).reshape(
                (m_i,) + (1,) * (len(grid) - axis)
            )
        col += 1
    words = words.reshape(-1, words.shape[-1])
    words.flags.writeable = False
    return words


@lru_cache(maxsize=16)
def _path_layout(depths: tuple[int, ...], shape: tuple[int, ...]):
    """The leaf grid of a product truncation and, per depth tuple in
    lexicographic order, its word rows and the shape that broadcasts its
    vertex values over the leaf grid."""
    grid = tuple(m_i for r_i, m_i in zip(depths, shape) for _ in range(r_i))
    levels = []
    for dt in _depth_tuples(depths):
        # a vertex at depth d_i in tree i fixes the first d_i axes of that tree
        bshape = tuple(
            m_i if k < d_i else 1
            for d_i, r_i, m_i in zip(dt, depths, shape)
            for k in range(r_i)
        )
        levels.append((_level_words(dt, shape), bshape))
    return grid, tuple(levels)


def _level_values(h0: np.ndarray, depths, shape) -> list[np.ndarray]:
    """Field values (K, vertices) of the K start states ``h0`` at each depth
    tuple of the product truncation, hashed once per depth tuple."""
    return [_hash_words(h0, words) for words, _ in _path_layout(depths, shape)[1]]


def _write_paths(levels: list[np.ndarray], depths, shape) -> np.ndarray:
    """Lay per-depth-tuple values (K, vertices), as :func:`_level_values`
    orders them, along every product-leaf path: each vertex value is
    broadcast over the leaves below it.  Shape (K, leaves, depth tuples),
    leaves in lexicographic order."""
    grid, layout = _path_layout(depths, shape)
    k = len(levels[0])
    out = np.empty((k,) + grid + (len(layout),))
    for j, (vals, (_, bshape)) in enumerate(zip(levels, layout)):
        out[..., j] = vals.reshape((k,) + bshape)
    return out.reshape(k, -1, len(layout))


def _as_tuples(depths, shape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``depths`` and ``shape`` as equal-length tuples; ints mean one tree."""
    depths_t = (depths,) if isinstance(depths, int) else tuple(depths)
    shape_t = (shape,) if isinstance(shape, int) else tuple(shape)
    if len(depths_t) != len(shape_t):
        raise ValueError("depths and shape must have equal length")
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


# -- distributions on [0,1] for depth-keyed fields ---------------------------


@dataclass(frozen=True)
class DistSpec:
    """A distribution on [0,1]: a named family plus frozen parameters.

    Families: ``uniform(lo, hi)``, ``point(c)``, ``discrete(locs, weights)``,
    ``beta(a, b)``, ``table(qs, xs)`` (a quantile table interpolated
    linearly).  Values are produced by pushing base uniforms through the
    quantile function.
    """

    family: str
    params: tuple = ()

    def __post_init__(self):
        fam, p = self.family, self.params
        if fam == "uniform":
            lo, hi = p
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"uniform needs 0 <= lo < hi <= 1, got {p}")
        elif fam == "point":
            (c,) = p
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"point mass must lie in [0,1], got {c}")
        elif fam == "discrete":
            locs, weights = p
            if len(locs) != len(weights) or not locs:
                raise ValueError("discrete needs matching nonempty locs/weights")
            if any(w <= 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
                raise ValueError("discrete weights must be positive and sum to 1")
            if list(locs) != sorted(locs):
                raise ValueError("discrete locations must be sorted")
        elif fam == "beta":
            a, b = p
            if a <= 0 or b <= 0:
                raise ValueError("beta parameters must be positive")
        elif fam == "table":
            qs, xs = p
            if len(qs) != len(xs) or len(qs) < 2:
                raise ValueError("table needs >= 2 (q, x) pairs")
            if list(qs) != sorted(qs) or qs[0] != 0.0 or qs[-1] != 1.0:
                raise ValueError("table q-grid must be sorted from 0 to 1")
            if list(xs) != sorted(xs):
                raise ValueError("table x-values must be nondecreasing")
        else:
            raise ValueError(f"unknown distribution family {fam!r}")

    def quantile(self, u):
        u = np.asarray(u, dtype=np.float64)
        fam, p = self.family, self.params
        if fam == "uniform":
            lo, hi = p
            return lo + u * (hi - lo)
        if fam == "point":
            return np.full_like(u, p[0])
        if fam == "discrete":
            locs, weights = p
            cum = np.cumsum(weights)
            cum[-1] = 1.0
            idx = np.searchsorted(cum, u, side="left")
            return np.asarray(locs, dtype=np.float64)[np.minimum(idx, len(locs) - 1)]
        if fam == "beta":
            return scipy.stats.beta.ppf(u, *p)
        qs, xs = p
        return np.interp(u, qs, xs)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        fam, p = self.family, self.params
        if fam == "uniform":
            lo, hi = p
            return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        if fam == "point":
            return (x >= p[0]).astype(np.float64)
        if fam == "discrete":
            locs, weights = p
            cum = np.concatenate([[0.0], np.cumsum(weights)])
            cum[-1] = 1.0
            return cum[np.searchsorted(locs, x, side="right")]
        if fam == "beta":
            return scipy.stats.beta.cdf(x, *p)
        qs, xs = p
        return np.interp(x, xs, qs)

    def cdf_left(self, x):
        """Left limit of the CDF (differs from ``cdf`` only at atoms)."""
        x = np.asarray(x, dtype=np.float64)
        fam, p = self.family, self.params
        if fam == "point":
            return (x > p[0]).astype(np.float64)
        if fam == "discrete":
            locs, weights = p
            cum = np.concatenate([[0.0], np.cumsum(weights)])
            cum[-1] = 1.0
            return cum[np.searchsorted(locs, x, side="left")]
        return self.cdf(x)

    @property
    def is_uniform01(self) -> bool:
        return self.family == "uniform" and self.params == (0.0, 1.0)


UNIFORM01 = DistSpec("uniform", (0.0, 1.0))


def _normalize_level_key(key) -> tuple[int, ...]:
    return (key,) if isinstance(key, int) else tuple(key)


@dataclass(frozen=True)
class IField:
    """A vertex-indexed independent field whose law depends only on depth.

    ``level_dists`` maps each depth (an int for one tree, a depth tuple for
    products) to the :class:`DistSpec` shared by all vertices at that depth.
    Values are the base uniform field pushed through the level's quantile
    function, so independence across vertices is inherited from the base.
    """

    seed: int
    level_dists: Mapping
    role: str = "u"

    def __post_init__(self):
        norm = {_normalize_level_key(k): v for k, v in self.level_dists.items()}
        object.__setattr__(self, "level_dists", norm)

    def spec_at(self, depth_key) -> DistSpec:
        key = _normalize_level_key(depth_key)
        try:
            return self.level_dists[key]
        except KeyError:
            raise ValueError(f"no distribution spec declared for depth {key}") from None

    def base(self) -> UniformField:
        return UniformField(self.seed, role=self.role)

    def value(self, v: TreeVertex | ProductVertex) -> float:
        if isinstance(v, ProductVertex):
            key = v.depths
        else:
            key = (v.depth,)
        spec = self.spec_at(key)
        return float(spec.quantile(self.base().value(v)))


def uniform_ifield(seed: int, depths: int | tuple[int, ...], role: str = "u") -> IField:
    """An I-field that is uniform on [0,1] at every depth of the index set."""
    depths_t = (depths,) if isinstance(depths, int) else tuple(depths)
    return IField(seed, {k: UNIFORM01 for k in _depth_tuples(depths_t)}, role=role)


def ifield_truncation_values(
    f: IField, depths: int | tuple[int, ...], shape: int | tuple[int, ...]
):
    """Realize the field on a whole truncation.

    Returns ``(by_depth, by_vertex)``: values grouped by depth key, and a
    flat vertex -> value mapping in deterministic order.
    """
    single = isinstance(depths, int)
    depths_t, shape_t = _as_tuples(depths, shape)
    base = f.base()
    u = _level_values(_init_state(base.seed, base.role), depths_t, shape_t)
    by_depth: dict = {}
    by_vertex: dict = {}
    for dt, u_dt in zip(_depth_tuples(depths_t), u):
        vals = np.asarray(f.spec_at(dt).quantile(u_dt[0]), dtype=np.float64)
        by_depth[dt[0] if single else dt] = vals
        per_part = [
            _depth_vertices(r_i, m_i, (d_i,), vals.size)
            for d_i, m_i, r_i in zip(dt, shape_t, depths_t)
        ]
        keys = per_part[0] if single else map(ProductVertex, itertools.product(*per_part))
        by_vertex.update(zip(keys, vals.tolist()))
    return by_depth, by_vertex


# -- sigma models and samplers -----------------------------------------------


@dataclass(frozen=True)
class SigmaModel:
    """A measurable map from path-indexed values to [0,1].

    ``fn`` is vectorized: it receives an (N, arity) matrix whose columns are
    the path values in the frozen ordering (root to leaf for one tree;
    depth-tuple lexicographic for products; field block then replica or
    auxiliary block for two-block forms) and returns N values in [0,1].
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


def path_matrix(seed, role: str, r: int, m: int) -> np.ndarray:
    """Field values along the root path of every truncation leaf.

    Shape (m^r, r+1) for an int seed; rows follow the lexicographic leaf
    order, column d holds the depth-d prefix value.  A 1-D sequence of K
    seeds gives the K matrices stacked, shape (K, m^r, r+1), from one pass
    over the K start states.
    """
    h0 = _init_state(seed, role)
    paths = _write_paths(_level_values(h0, (r,), (m,)), (r,), (m,))
    return paths[0] if np.ndim(seed) == 0 else paths


def product_path_matrix(
    seed: int, role: str, depths: tuple[int, ...], shape: tuple[int, ...]
) -> np.ndarray:
    """Product-path field values for every product leaf.

    Shape (prod m_i^r_i, prod (r_i+1)); columns are depth tuples in
    lexicographic order, rows the lexicographic product-leaf order.
    """
    h0 = _init_state(seed, role)
    return _write_paths(_level_values(h0, depths, shape), depths, shape)[0]


def sample_array(model: SigmaModel, r: int, m: int, seed, role: str = "v") -> np.ndarray:
    """Array over the m^r truncation leaves, X = model(path values).

    Entries are indexed lexicographically; with a fixed seed the result is
    identical across runs, and the array over {1..m}^r is entry-for-entry a
    sub-array of the one over any larger {1..m'}^r.  A 1-D sequence of K
    seeds gives the K arrays stacked, shape (K, m^r), from one model call.
    """
    if model.arity != r + 1:
        raise ValueError(f"model arity {model.arity} != r+1 = {r + 1}")
    paths = path_matrix(seed, role, r, m)
    return model.eval(paths.reshape(-1, r + 1)).reshape(paths.shape[:-1])


def sample_multi(
    model: SigmaModel,
    depths: tuple[int, ...],
    shape: tuple[int, ...],
    seed: int,
    role: str = "v",
) -> np.ndarray:
    """Array over product-truncation leaves, X = model(product path values)."""
    depths, shape = _as_tuples(depths, shape)
    arity = prod(r_i + 1 for r_i in depths)
    if model.arity != arity:
        raise ValueError(f"model arity {model.arity} != product path size {arity}")
    return model.eval(product_path_matrix(seed, role, depths, shape))


def sample_ah(model: SigmaModel, r: int, m: int, n: int, seed) -> np.ndarray:
    """Array over {1..m}^r x {1..n}: shared tree field plus per-column replicas.

    Column i is model(v-path, v^i-path); the shared field uses role "v" and
    replica i the role "v^i".  Shape (m^r, n); a 1-D sequence of K seeds
    gives the K arrays stacked, shape (K, m^r, n), from K*n replica start
    states and K shared ones hashed in one pass each.  The replica start
    states are one mix of the K seed words against the n role keys.
    """
    if model.arity != 2 * (r + 1):
        raise ValueError(f"model arity {model.arity} != 2(r+1) = {2 * (r + 1)}")
    shared = path_matrix(seed, "v", r, m)
    lead = shared.shape[:-2]
    # start states seed-major: replica i of seed k is row k*n + i - 1
    seeds = (seed,) if np.ndim(seed) == 0 else seed
    words = np.array([_seed_word(s) for s in seeds], dtype=_U64)
    keys = np.array([_role_key(f"v^{i}") for i in range(1, n + 1)], dtype=_U64)
    h0 = _mix(words[:, None] ^ keys).reshape(-1)
    replicas = _write_paths(_level_values(h0, (r,), (m,)), (r,), (m,))
    replicas = replicas.reshape(lead + (n, m**r, r + 1))
    shared = np.broadcast_to(shared[..., None, :, :], replicas.shape)
    inputs = np.concatenate([shared, replicas], axis=-1).reshape(-1, 2 * (r + 1))
    return model.eval(inputs).reshape(lead + (n, m**r)).swapaxes(-1, -2)


def sample_conditional(
    model: SigmaModel,
    u_field: IField,
    depths: int | tuple[int, ...],
    shape: int | tuple[int, ...],
    seed: int,
):
    """Sample X = model(u-path, v-path) and emit the realized u-values.

    The first input block is the depth-keyed field along the product path,
    the second a fresh uniform field (role "v", derived from ``seed``)
    independent of it.  Returns ``(u_by_vertex, X)`` where ``u_by_vertex``
    maps every vertex of the truncation to its realized value.
    """
    depths_t, shape_t = _as_tuples(depths, shape)
    path_size = prod(r_i + 1 for r_i in depths_t)
    if model.arity != 2 * path_size:
        raise ValueError(f"model arity {model.arity} != 2 * path size {path_size}")
    by_depth, u_by_vertex = ifield_truncation_values(u_field, depths, shape)
    u_levels = [vals[None, :] for vals in by_depth.values()]
    u_cols = _write_paths(u_levels, depths_t, shape_t)[0]
    v_cols = product_path_matrix(seed, "v", depths_t, shape_t)
    x = model.eval(np.hstack([u_cols, v_cols]))
    return u_by_vertex, x


def sample_pair(
    model_y: SigmaModel,
    model_x: SigmaModel,
    depths: int | tuple[int, ...],
    shape: int | tuple[int, ...],
    seed: int,
):
    """Jointly exchangeable pair (Y, X) driven by independent uniform fields.

    Y = model_y(u-path) and X = model_x(u-path, v-path) with the same
    realized u field in both, so the coupling between Y and X flows entirely
    through it.
    """
    depths_t, shape_t = _as_tuples(depths, shape)
    path_size = prod(r_i + 1 for r_i in depths_t)
    if model_y.arity != path_size:
        raise ValueError(f"Y-model arity {model_y.arity} != path size {path_size}")
    if model_x.arity != 2 * path_size:
        raise ValueError(f"X-model arity {model_x.arity} != 2 * path size {path_size}")
    u_cols = product_path_matrix(seed, "u", depths_t, shape_t)
    v_cols = product_path_matrix(seed, "v", depths_t, shape_t)
    y = model_y.eval(u_cols)
    x = model_x.eval(np.hstack([u_cols, v_cols]))
    return y, x
