"""Index algebra for finite-depth infinitary rooted trees and their products.

A depth-``r`` tree has vertices identified with tuples of positive integers
of length 0..r; the empty tuple is the root and length-``r`` tuples are the
leaves.  Every vertex has countably many children (append one more positive
integer), so the tree is never materialized: all operations act on explicit
finite vertices, and the finite truncation ``{1..m}^r`` is generated on
demand.

The key combinatorial statistic is the *wedge* of two vertices: the number
of vertices shared by their root paths, i.e. one plus the length of their
longest common coordinate prefix.

Every module imports this one, so it also holds the package's one argument
check, ``_integer`` and ``_number``: each entry point checks its sizes,
seeds and levels through them and hands on the plain Python values they
return.  So does the one cell cap, ``_check_cells``, which every path that
materializes a truncation calls before it allocates, and the one check of
a leaf-array input, ``_leaf_array``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TreeVertex",
    "ProductVertex",
    "root",
    "leaf",
    "path",
    "wedge",
    "product_path",
    "leaves",
    "internal_vertices",
    "encode_vertex",
    "wedge_matrix",
    "DEFAULT_CELL_CAP",
]

# Guard against materializing huge truncations; HEXCH_MAX_CELLS overrides it.
DEFAULT_CELL_CAP = 1_000_000
# seeds are 64-bit words: a larger or negative seed would alias a valid one
_SEED_MAX = 2**64 - 1


@dataclass(frozen=True, slots=True)
class TreeVertex:
    """A vertex of a depth-``r`` tree: a path of positive integer coordinates.

    ``coords`` of length d identifies a vertex at depth d (0 = root,
    r = leaf).  Vertices from trees of different depth never compare equal.
    """

    coords: tuple[int, ...]
    r: int

    def __post_init__(self):
        object.__setattr__(self, "r", _integer(self.r, "tree depth r"))
        if len(self.coords) > self.r:
            raise ValueError(
                f"vertex depth {len(self.coords)} exceeds tree depth {self.r}"
            )
        if not all(map(_is_size, self.coords)):
            raise ValueError(f"coordinates must be positive integers, got {self.coords}")

    @property
    def depth(self) -> int:
        return len(self.coords)

    def parent(self) -> "TreeVertex":
        if not self.coords:
            raise ValueError("the root has no parent")
        return TreeVertex(self.coords[:-1], self.r)

    def encode(self) -> str:
        return encode_vertex(self)

    def __repr__(self):
        inner = ",".join(map(str, self.coords)) if self.coords else "root"
        return f"TreeVertex({inner}; r={self.r})"


@dataclass(frozen=True, slots=True)
class ProductVertex:
    """A vertex of a product of trees: one component vertex per factor."""

    parts: tuple[TreeVertex, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a product vertex needs at least one component")

    @property
    def depths(self) -> tuple[int, ...]:
        """Depth of each component (the depth tuple)."""
        return tuple(p.depth for p in self.parts)

    def encode(self) -> str:
        return "|".join(p.encode() for p in self.parts)


def root(r: int) -> TreeVertex:
    return TreeVertex((), r)


def leaf(*coords: int, r: int | None = None) -> TreeVertex:
    """Convenience constructor: ``leaf(1, 2, 3)`` is a depth-3 leaf."""
    return TreeVertex(tuple(coords), len(coords) if r is None else r)


def path(v: TreeVertex) -> list[TreeVertex]:
    """Root path of ``v``: [root, (n1), (n1,n2), ..., v], length depth+1."""
    return [TreeVertex(v.coords[:d], v.r) for d in range(v.depth + 1)]


def wedge(a: TreeVertex, b: TreeVertex) -> int:
    """Number of vertices common to the root paths of ``a`` and ``b``.

    Equals 1 + the length of the longest common coordinate prefix; in
    particular ``wedge(a, a) == a.depth + 1`` and any two vertices share at
    least the root.
    """
    if a.r != b.r:
        raise ValueError(f"vertices index different trees (r={a.r} vs r={b.r})")
    k = 0
    for x, y in zip(a.coords, b.coords):
        if x != y:
            break
        k += 1
    return k + 1


def product_path(v: ProductVertex) -> list[tuple[TreeVertex, ...]]:
    """Cartesian product of the component root paths.

    Entries are ordered by their depth tuple, lexicographically with the
    last component varying fastest; this is the frozen input ordering for
    every sampler that consumes product paths.  Cardinality is
    ``prod(depth_i + 1)``.
    """
    return list(itertools.product(*(path(p) for p in v.parts)))


def _is_size(value, lo: int = 1) -> bool:
    """Whether ``value`` is an integer >= ``lo``; a bool is not."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= lo


def _integer(value, name: str, lo: int = 1, hi: int | None = None) -> int:
    """``value`` as an int in ``[lo, hi]``, the one check of every integer
    argument; a numpy integer is one, a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return value


def _number(value, name: str) -> float:
    """``value`` as a finite float, the one check of every real argument; a
    numpy integer or floating scalar is one, a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value}")
    return x


class CapError(ValueError):
    """Requested truncation exceeds the configured cell cap."""


def _cell_cap() -> int:
    """The cell cap: ``HEXCH_MAX_CELLS`` if set, else ``DEFAULT_CELL_CAP``."""
    raw = os.environ.get("HEXCH_MAX_CELLS")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"HEXCH_MAX_CELLS must be a positive integer, got {raw!r}")
    return cap


def _check_cells(sides) -> int:
    """The product of the factors m^r of the ``(m, r)`` pairs ``sides``, or
    :class:`CapError` from the first partial product past the cell cap, so
    a huge r costs a few multiplies; a side of 1 adds no factor."""
    cap, cells = _cell_cap(), 1
    for m, r in sides:
        for _ in range(r if m > 1 else 0):
            cells *= m
            if cells > cap:
                factors = [f"{m}^{r}" if r != 1 else f"{m}" for m, r in sides if m > 1]
                raise CapError(f"{' x '.join(factors)} cells exceed the cap of {cap}")
    return cells


def _leaf_array(array, cells: int, finite: bool = False) -> np.ndarray:
    """``array`` as a flat float64 array of ``cells`` values, the one check
    of every leaf-array input.  Bool, integer and floating arrays pass; any
    other (complex, strings, bytes, objects) raises ``ValueError`` naming its
    dtype before anything is converted, and so does a size other than
    ``cells``.  With ``finite``, a NaN or infinity raises naming its leaf."""
    a = np.asarray(array)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"leaf values must be real numbers, not an array of dtype {a.dtype}")
    if a.size != cells:
        raise ValueError(f"array has {a.size} values, but the truncation has {cells} cells")
    a = a.astype(np.float64, copy=False).reshape(-1)
    # the extremes are finite exactly when every x is; they take no array of flags
    if finite and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        leaf = int(np.argmin(np.isfinite(a)))
        x = a[leaf]
        raise ValueError(f"leaf {leaf} of the array is " + ("NaN" if np.isnan(x) else f"{x:+}"))
    return a


def _depth_vertices(r: int, m: int, internal: bool) -> list[TreeVertex]:
    """Vertices of depth < r (``internal``) or of depth r of the ``{1..m}^r``
    truncation, by depth then lexicographically; raises :class:`CapError`
    if the truncation's m^r leaves pass the cell cap."""
    r, m = _integer(r, "r"), _integer(m, "m")
    _check_cells([(m, r)])
    depths = range(r) if internal else (r,)
    rng = range(1, m + 1)
    return [TreeVertex(c, r) for d in depths for c in itertools.product(rng, repeat=d)]


def leaves(r: int, m: int) -> list[TreeVertex]:
    """All m^r leaves of the ``{1..m}^r`` truncation in lexicographic order."""
    return _depth_vertices(r, m, False)


def internal_vertices(r: int, m: int) -> list[TreeVertex]:
    """Vertices of depth < r of the truncation (the ones that carry children)."""
    return _depth_vertices(r, m, True)


def encode_vertex(v: TreeVertex) -> str:
    """Canonical string key: depth then coordinates, slash-separated.

    The root encodes as ``"0"``, the leaf (1,2,3) as ``"3/1/2/3"``.
    """
    if not v.coords:
        return "0"
    return "/".join([str(v.depth)] + [str(c) for c in v.coords])


def wedge_matrix(coords: np.ndarray) -> np.ndarray:
    """Pairwise wedge statistics of same-depth vertices given as coord rows."""
    n, d = coords.shape
    w = np.ones((n, n), dtype=np.int64)
    agree = np.ones((n, n), dtype=bool)
    for k in range(d):
        agree &= coords[:, None, k] == coords[None, :, k]
        w += agree
    return w
