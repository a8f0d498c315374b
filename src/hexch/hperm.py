"""Tree-structure-preserving leaf bijections of a depth-r tree.

A leaf bijection preserves the wedge statistic exactly when it factors into
independent child rearrangements below each internal vertex.  That
factorization is the storage format here: a finitely supported table mapping
internal vertices to permutations of the positive integers, identity
everywhere else.  Membership in the structure-preserving group then holds by
construction, and the table composes and inverts cheaply.

The table is keyed by the *source-side* vertex: applying the map to
``(n1, ..., nd)`` rewrites coordinate k through the permutation stored at the
source prefix ``(n1, ..., n_{k-1})``.  Composition and inversion below track
the key relabeling this convention requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import _init_state, _level_values
from .tree import TreeVertex, _integer, internal_vertices, wedge_matrix

__all__ = [
    "HPerm",
    "identity_hperm",
    "random_hperm",
    "random_leaf_indices",
    "verify_wedge_preservation",
]


# -- finitely supported permutations of {1, 2, ...} -------------------------
#
# Stored as a tuple of the images of 1..k for some support size k; identity
# beyond k.  Normal form trims trailing fixed points, so the identity is ().


def _perm_normalize(images: tuple[int, ...]) -> tuple[int, ...]:
    k = len(images)
    while k > 0 and images[k - 1] == k:
        k -= 1
    return tuple(images[:k])


def _perm_check(images: tuple[int, ...]) -> None:
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError(f"not a permutation of 1..{len(images)}: {images}")


def _perm_apply(images: tuple[int, ...], n: int) -> int:
    return images[n - 1] if n <= len(images) else n


def _perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Images of a∘b, i.e. n -> a(b(n))."""
    k = max(len(a), len(b))
    return _perm_normalize(
        tuple(_perm_apply(a, _perm_apply(b, n)) for n in range(1, k + 1))
    )


def _perm_invert(images: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(images)
    for n, image in enumerate(images, start=1):
        inv[image - 1] = n
    return tuple(inv)


# -- structure-preserving maps ----------------------------------------------


@dataclass(frozen=True)
class HPerm:
    """A wedge-preserving bijection of the depth-``r`` tree, in table form.

    ``table`` maps internal vertices (depth < r) to finitely supported
    permutations; vertices absent from the table act as the identity on
    their children.  Instances are immutable and safe to share.
    """

    r: int
    table: dict[TreeVertex, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "r", _integer(self.r, "r"))
        clean: dict[TreeVertex, tuple[int, ...]] = {}
        for v, images in self.table.items():
            if v.r != self.r:
                raise ValueError(f"table key {v} does not index a depth-{self.r} tree")
            if v.depth >= self.r:
                raise ValueError(f"table key {v} is not an internal vertex")
            _perm_check(images)
            images = _perm_normalize(tuple(images))
            if images:
                clean[v] = images
        object.__setattr__(self, "table", clean)

    def apply(self, v: TreeVertex) -> TreeVertex:
        """Image of a vertex (leaf or internal: the extension to the tree)."""
        if v.r != self.r:
            raise ValueError(f"vertex {v} does not index a depth-{self.r} tree")
        out = []
        for k, n in enumerate(v.coords):
            pi = self.table.get(TreeVertex(v.coords[:k], self.r))
            out.append(_perm_apply(pi, n) if pi is not None else n)
        return TreeVertex(tuple(out), self.r)

    __call__ = apply

    def compose(self, other: "HPerm") -> "HPerm":
        """The map v -> self(other(v))."""
        if self.r != other.r:
            raise ValueError("cannot compose maps of different tree depth")
        other_inv = other.invert()
        keys = set(other.table)
        keys.update(other_inv.apply(v) for v in self.table)
        table = {}
        for v in keys:
            outer = self.table.get(other.apply(v), ())
            inner = other.table.get(v, ())
            table[v] = _perm_compose(outer, inner)
        return HPerm(self.r, table)

    def invert(self) -> "HPerm":
        """The inverse map; table keys move to their images under self."""
        return HPerm(
            self.r, {self.apply(v): _perm_invert(pi) for v, pi in self.table.items()}
        )

    def is_identity(self) -> bool:
        return not self.table

    def permuted_leaf_indices(self, m: int) -> np.ndarray:
        """Index array ``idx`` with ``Y = X[idx]`` realizing ``Y_a = X[self(a)]``.

        Both arrays are over the ``{1..m}^r`` leaves in lexicographic order;
        requires the images of the truncation leaves to stay inside it.
        """
        r = self.r
        # ranks[k][0, p, c-1]: image of child c below the depth-k source
        # prefix with flat index p; the identity where the table has no entry
        ranks = [np.tile(np.arange(1, m + 1), (1, m**k, 1)) for k in range(r)]
        leaks = False
        for v, images in self.table.items():
            if max(v.coords, default=0) <= m:
                row = 0
                for c in v.coords:
                    row = row * m + c - 1
                images = images[:m]
                ranks[v.depth][0, row, : len(images)] = images
                leaks = leaks or max(images) > m
        if leaks:
            # image coordinate k of every leaf, broadcast over the (m,)*r leaf grid
            cols = [
                rk.reshape((m,) * (k + 1) + (1,) * (r - 1 - k)) for k, rk in enumerate(ranks)
            ]
            bad = np.zeros((m,) * r, dtype=bool)
            for col in cols:
                bad |= col > m
            first = np.unravel_index(int(np.argmax(bad)), bad.shape)
            img = tuple(int(col[first[: k + 1]].item()) for k, col in enumerate(cols))
            raise ValueError(f"image {img} leaves the {{1..{m}}}^{r} truncation")
        return _leaf_indices(ranks, m)[0]


def identity_hperm(r: int) -> HPerm:
    return HPerm(r, {})


def _leaf_indices(ranks: list[np.ndarray], m: int) -> np.ndarray:
    """Flat image indices ``(K, m^r)`` of the truncation leaves of K maps.

    ``ranks[d]`` has shape ``(K, m^d, m)`` and holds the 1-based images of
    the children of each depth-d source prefix, prefixes in lexicographic
    order.  The image index is composed one depth at a time: the index of a
    depth-(d+1) vertex is that of its parent's image times m plus the
    0-based image of its last coordinate.
    """
    idx = np.zeros((len(ranks[0]), 1), dtype=np.intp)
    for rk in ranks:
        idx = (idx[:, :, None] * m + (rk - 1)).reshape(len(idx), -1)
    return idx


def _random_ranks(r: int, m: int, seeds) -> list[np.ndarray]:
    """Child ranks of the random maps of K seeds, ``(K, m^d, m)`` per depth d < r.

    Every depth is hashed in one fold over the tree from the K start states
    of role "hperm"; per depth, one stable argsort along the last axis
    orders each vertex's children (ties, if any, keep child order), and
    ranks 1..m are put back at the sorted positions.
    """
    h0 = _init_state(seeds, "hperm")
    ranks = []
    for d, u in enumerate(_level_values(h0, (r,), (m,))[1:]):
        u = u.reshape(len(h0), m**d, m)
        rank = np.empty(u.shape, dtype=np.intp)
        np.put_along_axis(rank, np.argsort(u, axis=-1, kind="stable"), np.arange(1, m + 1), axis=-1)
        ranks.append(rank)
    return ranks


def random_hperm(r: int, m: int, seed: int) -> HPerm:
    """Independent uniform child permutations at every internal vertex.

    Deterministic in ``seed``; the permutation at each vertex is the ranking
    of that vertex's children under the counter-based uniform field, so the
    result does not depend on platform or iteration order.  The table is the
    K=1 case of :func:`random_leaf_indices`' rank core, keyed by the internal
    vertices of the ``{1..m}^r`` truncation.
    """
    internal = internal_vertices(r, m)
    rows = np.concatenate([rk[0] for rk in _random_ranks(r, m, [seed])])
    return HPerm(r, dict(zip(internal, map(tuple, rows.tolist()))))


def random_leaf_indices(r: int, m: int, seeds) -> np.ndarray:
    """Leaf-index maps ``(K, m^r)`` of the random maps of a 1-D sequence of K seeds.

    Row k equals ``random_hperm(r, m, seeds[k]).permuted_leaf_indices(m)``,
    built from the K maps' rank arrays in one hash pass and one stable
    argsort per depth, without tables or vertex objects.
    """
    r, m = _integer(r, "r"), _integer(m, "m")
    return _leaf_indices(_random_ranks(r, m, seeds), m)


def verify_wedge_preservation(mapping, leaf_list: list[TreeVertex]) -> bool:
    """True iff the map preserves pairwise wedges on the given leaves.

    ``mapping`` is anything callable on a :class:`TreeVertex` (an
    :class:`HPerm`, or an arbitrary leaf bijection when probing maps outside
    the table form).
    """
    if not leaf_list:
        return True
    src = np.array([v.coords for v in leaf_list], dtype=np.int64)
    img = np.array([mapping(v).coords for v in leaf_list], dtype=np.int64)
    return bool(np.array_equal(wedge_matrix(src), wedge_matrix(img)))

