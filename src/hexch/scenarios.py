"""Built-in array models: exchangeable examples and known violations.

Null scenarios are strict path-function constructions (a fixed measurable
map of the uniform field values along the root path), hence hierarchically
exchangeable by construction.  Each violation breaks that form in exactly
one documented way, so the power of the test that targets it is
attributable to that mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import (
    SigmaModel,
    _coord_words,
    _hash_words,
    _init_state,
    level_values,
    path_matrix,
    sample_ah,
    sample_array,
)

__all__ = [
    "ScenarioSpec",
    "ArraySource",
    "builtin",
    "list_scenarios",
    "make_model",
    "make_source",
    "make_level_values",
    "SCENARIO_NAMES",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Registry entry: construction recipe plus the verdicts it should earn."""

    name: str
    kind: str  # "null" or "violation"
    form: str  # "sigma", "sigma-replica", "custom", "field"
    summary: str
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


def _centred_sum(p: np.ndarray, lo: int, k: int) -> np.ndarray:
    """``(p[:, lo:lo + k] - 0.5).sum(axis=1)``, with the same bits.

    numpy adds fewer than 8 terms one by one, in order, so for ``k < 8`` the
    columns are summed left to right, which skips the strided reduction of
    the ``(N, k)`` temporary; from 8 terms on numpy sums pairwise, and that
    reduction is kept.
    """
    if k >= 8:
        return (p[:, lo : lo + k] - 0.5).sum(axis=1)
    total = p[:, lo] - 0.5
    for j in range(lo + 1, lo + k):
        total += p[:, j] - 0.5
    return total


def make_model(name: str, r: int, params: dict | None = None) -> SigmaModel:
    """Instantiate a built-in path-function model for a depth-``r`` tree."""
    params = dict(params or {})
    if name == "uniform-leaf":
        return SigmaModel(name, r + 1, lambda p: p[:, -1])
    if name == "root-constant":
        return SigmaModel(name, r + 1, lambda p: p[:, 0])
    if name == "path-mean":
        return SigmaModel(name, r + 1, lambda p: p.mean(axis=1))
    if name == "product":
        return SigmaModel(name, r + 1, lambda p: p.prod(axis=1))
    if name == "toy-magnetization":
        a = float(params.get("a", 2.0))
        b = float(params.get("b", 1.0))
        k = r + 1

        def fn(p):
            return _sigmoid(a * _centred_sum(p, 0, k) + b * _centred_sum(p, k, k))

        return SigmaModel(name, 2 * (r + 1), fn, params=(("a", a), ("b", b)))
    raise ValueError(f"unknown scenario model {name!r}")


# The custom samplers below take an int seed or a 1-D sequence of K seeds,
# as path_matrix does, and work on the leading replicate axes it returns.


def _label_leak_sampler(r: int, m: int, weight: float) -> Callable:
    # parity of each leaf's first coordinate, i // m^(r-1) + 1 for flat index i
    parity = ((np.arange(m**r) // m ** (r - 1) + 1) % 2).astype(np.float64)

    def sample(seed) -> np.ndarray:
        v = path_matrix(seed, "v", r, m)[..., -1]
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
        v = path_matrix(seed, "v", r, m)[..., -1]
        shared = _hash_words(_init_state(seed, "s"), shared_words)
        return (1.0 - weight) * v + weight * shared[:, shared_idx].reshape(v.shape)

    return sample


def _markov_leak_sampler(r: int, m: int) -> Callable:
    def sample(seed) -> np.ndarray:
        v = path_matrix(seed, "v", r, m)[..., -1]
        blocks = v.reshape(v.shape[:-1] + (m ** (r - 1), m))
        out = blocks.copy()
        out[..., 1:] = 0.5 * (blocks[..., 1:] + blocks[..., :-1])
        return out.reshape(v.shape)

    return sample


def make_source(
    name: str,
    r: int,
    m: int,
    n: int | None = None,
    params: dict | None = None,
) -> ArraySource:
    """Seeded generator for a registered scenario on a given truncation."""
    spec = builtin(name)
    if r < spec.min_r:
        raise ValueError(f"{name} needs r >= {spec.min_r}")
    params = {**spec.defaults.get("params", {}), **(params or {})}
    if spec.form == "sigma":
        model = make_model(name, r, params)
        return ArraySource(name, r, m, None, lambda seed: sample_array(model, r, m, seed))
    if spec.form == "sigma-replica":
        if n is None:
            n = spec.defaults.get("n", 20)
        model = make_model(name, r, params)
        return ArraySource(name, r, m, n, lambda seed: sample_ah(model, r, m, n, seed))
    if name == "label-leak":
        w = float(params.get("weight", 0.5))
        return ArraySource(name, r, m, None, _label_leak_sampler(r, m, w))
    if name == "sibling-coupled":
        w = float(params.get("weight", 0.7))
        return ArraySource(name, r, m, None, _sibling_coupled_sampler(r, m, w))
    if name == "markov-leak":
        return ArraySource(name, r, m, None, _markov_leak_sampler(r, m))
    raise ValueError(f"scenario {name!r} does not generate arrays")


def make_level_values(name: str, r: int, m: int, seed: int, params: dict | None = None):
    """The field values of each depth, as :func:`~hexch.fields.level_values`
    realizes them, after the scenario's violation, for homogeneity checks."""
    return _depth_shift(name, level_values(seed, r, m), params)


def _depth_shift(name: str, by_depth: dict, params: dict | None = None) -> dict:
    """The ``depth-shift`` violation of realized uniform field values: depth
    1 is mapped from [0,1) onto [shift, 1), the other depths are kept."""
    spec = builtin(name)
    if spec.form != "field":
        raise ValueError(f"scenario {name!r} does not generate field values")
    lo = float({**spec.defaults.get("params", {}), **(params or {})}.get("shift", 0.5))
    return {**by_depth, 1: lo + (1.0 - lo) * by_depth[1]}


_REGISTRY: dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec) -> None:
    _REGISTRY[spec.name] = spec


_register(
    ScenarioSpec(
        name="uniform-leaf",
        kind="null",
        form="sigma",
        summary="value = the leaf's own field value; entries i.i.d. uniform",
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
        defaults={"r": 2, "m": 16},
        expected={"conditional_iid": "reject"},
    )
)
_register(
    ScenarioSpec(
        name="depth-shift",
        kind="violation",
        form="field",
        summary="depth-1 field values are shifted away from the uniform law",
        defaults={"r": 2, "m": 32, "params": {"shift": 0.5}},
        expected={"level_homogeneity": "reject"},
        param_ranges={"shift": (0.0, 1.0)},
    )
)

SCENARIO_NAMES = tuple(_REGISTRY)


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
