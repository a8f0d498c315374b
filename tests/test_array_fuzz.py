"""The public array entry points under the one cell cap and the one leaf-array check.

A truncation past the cap is refused with ``CapError`` before anything is
allocated, by the library as by the CLI, and ``HEXCH_MAX_CELLS`` moves the
cap for both.  A seeded fuzz of the leaf-array inputs (dtypes, shapes,
sizes, non-finite values) and of the truncation sizes ends every call in a
result or a ``ValueError``, with no warning.
"""

import random
import tracemalloc

import numpy as np
import pytest

from hexch.cli import array_to_csv
from hexch.definetti import empirical_measure, extract_hierarchy, resynthesize
from hexch.fields import path_matrix, sample_ah, sample_array
from hexch.hperm import random_hperm, random_leaf_indices
from hexch.scenarios import make_model, make_source
from hexch.stattests import cond_indep_test, conditional_iid_test, hexch_test
from hexch.tree import CapError, internal_vertices, leaves


def _small_hierarchy():
    return extract_hierarchy(sample_array(make_model("product", 2), 2, 4, 0), 2, 4)


def _values(m) -> np.ndarray:
    """The m^2 leaf values of side m as a zero-stride view, which allocates
    no cell; 16 values where m is no side that numpy can count."""
    cells = m * m if isinstance(m, int) and 0 <= m <= 2**31 else 16
    return np.broadcast_to(np.float64(0.5), (cells,))


# Each entry point at a square truncation of side m (r=2), its leaf array,
# where it takes one, the zero-stride view of m^2 values.
SIZED = {
    "leaves": lambda m: leaves(2, m),
    "internal_vertices": lambda m: internal_vertices(2, m),
    "sample_array": lambda m: sample_array(make_model("product", 2), 2, m, 0),
    "path_matrix": lambda m: path_matrix(0, "v", 2, m),
    "sample_ah": lambda m: sample_ah(make_model("toy-magnetization", 2), 2, m, 2, 0),
    "make_source(label-leak).sample": lambda m: make_source("label-leak", 2, m).sample(0),
    "make_source(path-mean).sample": lambda m: make_source("path-mean", 2, m).sample(0),
    "random_leaf_indices": lambda m: random_leaf_indices(2, m, [0, 1]),
    "random_hperm": lambda m: random_hperm(2, m, 0),
    "resynthesize": lambda m: resynthesize(_small_hierarchy(), 2, m, 0),
    "hexch_test": lambda m: hexch_test(make_source("path-mean", 2, m).sample, 2, m,
                                       n_reps=20, n_resamples=9),
    "extract_hierarchy": lambda m: extract_hierarchy(_values(m), 2, m),
    "empirical_measure": lambda m: empirical_measure(_values(m)),
    "array_to_csv": lambda m: array_to_csv(_values(m), 2, m),
    "conditional_iid_test": lambda m: conditional_iid_test(_values(m), 2, m),
    "cond_indep_test": lambda m: cond_indep_test(_values(m), 2, m),
}
# the calls that built 1100^2 cells whatever the cap was
UNCAPPED = ["sample_array", "make_source(label-leak).sample", "random_leaf_indices",
            "extract_hierarchy", "resynthesize", "array_to_csv"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(SIZED))
def test_a_truncation_past_the_cap_is_computed_and_never_allocated(entry):
    # side 10^4 at r=2 is 10^8 cells, 100 times the default cap
    tracemalloc.start()
    try:
        with pytest.raises(CapError, match="cells exceed the cap of 1000000$"):
            SIZED[entry](10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("entry", UNCAPPED)
def test_the_library_keeps_the_cap_that_the_cli_keeps(monkeypatch, entry):
    with pytest.raises(CapError, match=r"^1100\^2 cells exceed the cap of 1000000$"):
        SIZED[entry](1100)
    # HEXCH_MAX_CELLS moves it for the library too
    monkeypatch.setenv("HEXCH_MAX_CELLS", "2000000")
    SIZED[entry](1100)
    monkeypatch.setenv("HEXCH_MAX_CELLS", "100")
    with pytest.raises(CapError, match=r"^11\^2 cells exceed the cap of 100$"):
        SIZED[entry](11)
    SIZED[entry](10)


def test_a_replica_axis_counts_against_the_cap(monkeypatch):
    monkeypatch.setenv("HEXCH_MAX_CELLS", "100")
    model = make_model("toy-magnetization", 2)
    assert sample_ah(model, 2, 5, 4, 0).shape == (25, 4)
    with pytest.raises(CapError, match=r"^5\^2 x 5 cells exceed the cap of 100$"):
        sample_ah(model, 2, 5, 5, 0)


# -- seeded fuzz -----------------------------------------------------------------

LEAF_ENTRIES = {
    "extract_hierarchy": lambda a, r, m: extract_hierarchy(a, r, m),
    "empirical_measure": lambda a, r, m: empirical_measure(a),
    "array_to_csv": lambda a, r, m: b"".join(array_to_csv(a, r, m)),
    "conditional_iid_test": lambda a, r, m: conditional_iid_test(a, r, m, n_resamples=9),
    "cond_indep_test": lambda a, r, m: cond_indep_test(a, r, m, n_resamples=9),
}
DTYPES = [np.float64, np.float32, np.float16, np.int64, np.uint8, bool, np.complex128,
          str, bytes, object]
ODD_VALUES = [np.nan, np.inf, -np.inf, -0.0, 1.5, -0.25, 1e308, 5e-324]


def _fuzz_array(rng: random.Random, r: int, m: int):
    """A leaf array for ``{1..m}^r``: a drawn size near m^r, a drawn shape
    and dtype, and now and then an odd value."""
    size = max(0, m**r + rng.choice([0, 0, 0, -1, 1, -(m**r)]))
    a = np.random.default_rng(rng.randrange(2**32)).random(size)
    for _ in range(rng.choice([0, 0, 1, 2])):
        if size:
            a[rng.randrange(size)] = rng.choice(ODD_VALUES)
    if size == m**r and rng.random() < 0.3:
        a = a.reshape(m ** (r - 1), m)
    with np.errstate(all="ignore"):
        a = a.astype(rng.choice(DTYPES))
    return a.tolist() if rng.random() < 0.2 else a


@pytest.mark.filterwarnings("error")
def test_fuzzed_leaf_arrays_end_in_a_result_or_a_value_error(monkeypatch):
    monkeypatch.setenv("HEXCH_MAX_CELLS", "4096")
    rng = random.Random(48)
    refused = 0
    for _ in range(300):
        r, m = rng.choice([1, 2, 3]), rng.choice([1, 2, 3, 4, 8])
        # one draw in ten is past the cap
        if rng.random() < 0.1:
            m = 4097 if r == 1 else 100
        a = _fuzz_array(rng, r, m)
        name = rng.choice(sorted(LEAF_ENTRIES))
        try:
            LEAF_ENTRIES[name](a, r, m)
        except ValueError:
            refused += 1
        except Exception as exc:  # noqa: BLE001
            pytest.fail(f"{name} at r={r} m={m} on {np.asarray(a).dtype} raised {exc!r}")
    # both ends are reached
    assert 0 < refused < 300


@pytest.mark.filterwarnings("error")
def test_fuzzed_truncation_sizes_end_in_a_result_or_a_value_error(monkeypatch):
    monkeypatch.setenv("HEXCH_MAX_CELLS", "4096")
    rng = random.Random(49)
    sizes = [0, 1, 2, 3, 64, 4097, 10**12, 2.0, True, -1]
    refused = 0
    for _ in range(200):
        name = rng.choice(sorted(SIZED))
        m = rng.choice(sizes)
        try:
            SIZED[name](m)
        except ValueError:
            refused += 1
        except Exception as exc:  # noqa: BLE001
            pytest.fail(f"{name} at m={m!r} raised {exc!r}")
    assert 0 < refused < 200
