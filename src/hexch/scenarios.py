"""Built-in array models: exchangeable examples and known violations.

Null scenarios are strict path-function constructions (a fixed measurable
map of the uniform field values along the root path), hence hierarchically
exchangeable by construction.  Each violation breaks that form in exactly
one documented way, so the power of the test that targets it is
attributable to that mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import (
    SigmaModel,
    _coord_words,
    _hash_words,
    _init_state,
    _level_values,
    _one_seed,
    # path_matrix is unused here, but bench/spans.py traces it at this lookup site
    path_matrix,  # noqa: F401
    sample_ah,
    sample_array,
)
from .tree import _check_cells, _integer, _number

__all__ = [
    "ScenarioSpec",
    "ArraySource",
    "builtin",
    "list_scenarios",
    "make_model",
    "make_source",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Registry entry: construction recipe plus the verdicts it should earn."""

    name: str
    kind: str  # "null" or "violation"
    form: str  # "sigma", "sigma-replica", "custom"
    summary: str
    # takes the params as keywords: the SigmaModel (arity, fn) of a σ form
    # from r, and a custom sampler from r and m
    build: Callable
    defaults: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)  # test name -> "pass"/"reject"
    # closed [lo, hi] range of each bounded param, and the least depth r
    param_ranges: dict = field(default_factory=dict)
    min_r: int = 1


@dataclass(frozen=True)
class ArraySource:
    """A seeded array generator over a fixed truncation.

    ``sample`` maps a seed or a 1-D sequence of K seeds to one array or K
    stacked arrays: shape ``(m^r,)`` or ``(K, m^r)``, and ``(m^r, n)`` or
    ``(K, m^r, n)`` when the source has ``n`` replicas.  Row k of a stacked
    call equals ``sample(seeds[k])`` bit for bit; the K arrays are hashed
    and evaluated in one pass, and an int seed is the K=1 case of that pass.
    """

    name: str
    r: int
    m: int
    n: int | None
    sample: Callable[..., np.ndarray]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _row_reduce(p, ufunc, shift: float = 0.0) -> np.ndarray:
    """``ufunc.reduce(P - shift, axis=1)`` for ``np.add`` or ``np.multiply``,
    with the same bits, on the matrix P of the columns ``p`` broadcast and
    stacked: float arrays that broadcast together, as a model receives them.

    numpy multiplies a row's terms left to right, and adds fewer than 8 the
    same way before adding the sum to the identity 0.0, which turns -0.0
    into 0.0.  Those columns are folded left to right with broadcasting,
    each shifted as it is read: the same scalar operations in the same
    order, on each vertex value once, not once per leaf.  ``x - 0.0`` keeps
    every bit of x, so the first column is always read as a fresh shifted
    copy.  From 8 terms on numpy sums pairwise, and its own reduction of
    the stacked columns is kept.
    """
    if ufunc is np.add and len(p) >= 8:
        return np.add.reduce(np.stack(np.broadcast_arrays(*p), axis=-1) - shift, axis=-1)
    total = p[0] - shift
    for column in p[1:]:
        column = column - shift if shift else column
        total = ufunc(total, column, out=total if column.shape == total.shape else None)
    if ufunc is np.add:
        total += 0.0
    return total


def _toy_magnetization(r: int, a: float, b: float):
    k = r + 1

    def fn(p):
        shared, replica = _row_reduce(p[:k], np.add, 0.5), _row_reduce(p[k:], np.add, 0.5)
        # a large a or b saturates the sigmoid: an overflow to inf gives its 0 or 1
        with np.errstate(over="ignore"):
            return _sigmoid(a * shared + b * replica)

    return 2 * k, fn


# The custom samplers below take an int seed or a 1-D sequence of K seeds,
# as sample_array does, and work on the leading replicate axes of the
# role-"v" field at the leaves (path_matrix's last column) read here.
def _leaf_values(seed, r: int, m: int) -> np.ndarray:
    v = _level_values(_init_state(seed, "v"), (r,), (m,))[-1]
    return v[0] if _one_seed(seed) else v


def _label_leak_sampler(r: int, m: int, weight: float) -> Callable:
    # parity of each leaf's first coordinate, i // m^(r-1) + 1 for flat index i
    parity = ((np.arange(m**r) // m ** (r - 1) + 1) % 2).astype(np.float64)

    def sample(seed) -> np.ndarray:
        v = _leaf_values(seed, r, m)
        return (1.0 - weight) * v + weight * parity

    return sample


def _sibling_coupled_sampler(r: int, m: int, weight: float) -> Callable:
    n_pairs = (m ** (r - 1) + 1) // 2
    # every leaf reads the shared value at (its parent's pair, its child index)
    i = np.arange(m**r)
    shared_idx = (i // m // 2) * m + i % m
    # word rows of the depth-2 coordinates (pair, child) of the shared grid
    shared_words = _coord_words(np.indices((n_pairs, m)).reshape(2, -1).T + 1)

    def sample(seed) -> np.ndarray:
        v = _leaf_values(seed, r, m)
        shared = _hash_words(_init_state(seed, "s"), shared_words)
        return (1.0 - weight) * v + weight * shared[:, shared_idx].reshape(v.shape)

    return sample


def _markov_leak_sampler(r: int, m: int) -> Callable:
    def sample(seed) -> np.ndarray:
        v = _leaf_values(seed, r, m)
        blocks = v.reshape(v.shape[:-1] + (m ** (r - 1), m))
        out = blocks.copy()
        out[..., 1:] = 0.5 * (blocks[..., 1:] + blocks[..., :-1])
        return out.reshape(v.shape)

    return sample


def _request(name: str, r, m, n, params) -> tuple[ScenarioSpec, int, int | None, int | None, dict]:
    """Check a request against scenario ``name``'s spec, in the words of
    ``hexch run``'s config errors (``m`` is None for a model, which has no
    truncation); returns the spec, the checked ``r``, ``m`` and ``n`` (a
    replica scenario's default if None) and the params merged over the
    spec's defaults."""
    spec = builtin(name)
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {params!r}")
    merged = dict(spec.defaults.get("params", {}))
    for key, value in params.items():
        if key not in merged:
            raise ValueError(
                f"unknown param {key!r} for scenario {name!r}; expected one of {sorted(merged)}"
            )
        x = _number(value, f"params.{key}")
        lo, hi = spec.param_ranges.get(key, (-math.inf, math.inf))
        if not lo <= x <= hi:
            raise ValueError(f"params.{key} must lie in [{lo}, {hi}] for scenario {name!r}, got {x}")
        merged[key] = x
    r = _integer(r, "r", spec.min_r)
    if m is not None:
        m = _integer(m, "m")
    if n is not None:
        n = _integer(n, "n")
        if spec.form != "sigma-replica":
            raise ValueError(f"n sets a replica axis, which scenario {name!r} has not")
    elif spec.form == "sigma-replica":
        n = spec.defaults["n"]
    return spec, r, m, n, merged


def _model(spec: ScenarioSpec, r: int, params: dict) -> SigmaModel:
    arity, fn = spec.build(r, **params)
    return SigmaModel(spec.name, arity, fn, params=tuple(params.items()))


def make_model(name: str, r: int, params: dict | None = None) -> SigmaModel:
    """Instantiate a built-in path-function model for a depth-``r`` tree."""
    spec, r, _, _, params = _request(name, r, None, None, params or {})
    if spec.form not in ("sigma", "sigma-replica"):
        raise ValueError(f"scenario {name!r} is not a path-function model")
    return _model(spec, r, params)


def make_source(
    name: str,
    r: int,
    m: int,
    n: int | None = None,
    params: dict | None = None,
) -> ArraySource:
    """Seeded generator for a registered scenario on a given truncation; a
    custom sampler's index arrays are built here, under the cell cap."""
    spec, r, m, n, params = _request(name, r, m, n, params or {})
    if spec.form == "custom":
        _check_cells([(m, r)])
        return ArraySource(name, r, m, None, spec.build(r, m, **params))
    model = _model(spec, r, params)
    if n is None:
        return ArraySource(name, r, m, None, lambda seed: sample_array(model, r, m, seed))
    return ArraySource(name, r, m, n, lambda seed: sample_ah(model, r, m, n, seed))


_REGISTRY: dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec) -> None:
    _REGISTRY[spec.name] = spec


_register(
    ScenarioSpec(
        name="uniform-leaf",
        kind="null",
        form="sigma",
        summary="value = the leaf's own field value; entries i.i.d. uniform",
        build=lambda r: (r + 1, lambda p: p[-1]),
        defaults={"r": 2, "m": 8},
        expected={"hexch": "pass", "conditional_iid": "pass", "cond_indep": "pass"},
    )
)
_register(
    ScenarioSpec(
        name="root-constant",
        kind="null",
        form="sigma",
        summary="value = the root field value; the whole array is constant",
        build=lambda r: (r + 1, lambda p: p[0]),
        defaults={"r": 2, "m": 8},
        expected={"hexch": "pass", "conditional_iid": "pass", "cond_indep": "pass"},
    )
)
_register(
    ScenarioSpec(
        name="path-mean",
        kind="null",
        form="sigma",
        summary="value = arithmetic mean of the field values on the root path",
        build=lambda r: (r + 1, lambda p: _row_reduce(p, np.add) / (r + 1)),
        defaults={"r": 2, "m": 8},
        expected={"hexch": "pass", "conditional_iid": "pass", "cond_indep": "pass"},
    )
)
_register(
    ScenarioSpec(
        name="product",
        kind="null",
        form="sigma",
        summary="value = product of the field values on the root path",
        build=lambda r: (r + 1, lambda p: _row_reduce(p, np.multiply)),
        defaults={"r": 2, "m": 8},
        expected={"hexch": "pass", "conditional_iid": "pass", "cond_indep": "pass"},
    )
)
_register(
    ScenarioSpec(
        name="toy-magnetization",
        kind="null",
        form="sigma-replica",
        summary="squashed linear blend of a shared tree path and per-replica paths",
        build=_toy_magnetization,
        defaults={"r": 2, "m": 4, "n": 20, "params": {"a": 2.0, "b": 1.0}},
        expected={"hexch": "pass"},
    )
)
_register(
    ScenarioSpec(
        name="label-leak",
        kind="violation",
        form="custom",
        summary="blends the parity of the first index coordinate into the value",
        build=_label_leak_sampler,
        defaults={"r": 2, "m": 8, "params": {"weight": 0.5}},
        expected={"hexch": "reject"},
        param_ranges={"weight": (0.0, 1.0)},
    )
)
_register(
    ScenarioSpec(
        name="sibling-coupled",
        kind="violation",
        form="custom",
        summary="children of consecutive depth-1 siblings share an extra uniform "
        "at matching child index",
        build=_sibling_coupled_sampler,
        defaults={"r": 2, "m": 16, "params": {"weight": 0.7}},
        expected={"cond_indep": "reject"},
        param_ranges={"weight": (0.0, 1.0)},
        min_r=2,
    )
)
_register(
    ScenarioSpec(
        name="markov-leak",
        kind="violation",
        form="custom",
        summary="each sibling value reuses the previous sibling's uniform",
        build=_markov_leak_sampler,
        defaults={"r": 2, "m": 16},
        expected={"conditional_iid": "reject"},
    )
)


def builtin(name: str) -> ScenarioSpec:
    """Look up a registered scenario by its exact name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def list_scenarios() -> list[ScenarioSpec]:
    """The full registry in registration order."""
    return list(_REGISTRY.values())
