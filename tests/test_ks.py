"""hexch._ks.ks_uniform has the bits of scipy.stats.kstest(x, "uniform") on
every branch of the exact two-sided KS distribution."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats

from hexch import _ks
from hexch._ks import ks_uniform

ALGORITHMS = ("_kolmogn_DMTW", "_kolmogn_Pomeranz", "_kolmogn_PelzGood", "_smirnov")


def _bent(n: int, a: float) -> np.ndarray:
    # the midpoint grid raised to the power a: D is about max(u - u^a)
    return ((np.arange(n) + 0.5) / n) ** a


def _grid(n: int, shift: float) -> np.ndarray:
    # (i - shift) / n, i = 1..n: D is max(shift, 1 - shift) / n
    return (np.arange(1, n + 1) - shift) / n


# (case, sample, the algorithms it reaches), one case per branch of
# _kolmogn_sf; t = n D
BRANCHES = [
    ("n=1 (t <= 1)", np.array([0.3]), ()),
    ("n=2 t <= 1", np.array([0.2, 0.7]), ()),
    ("n=2 t >= n-1", np.array([0.05, 0.1]), ()),
    ("D >= 0.5", np.linspace(0.0, 0.3, 10), ("_smirnov",)),
    ("n <= 140, nD^2 <= 0.754693", _bent(100, 1.2), ("_kolmogn_DMTW",)),
    ("n <= 140, nD^2 <= 4", _bent(100, 1.6), ("_kolmogn_Pomeranz",)),
    ("n <= 140, nD^2 > 4", _bent(100, 3.0), ("_smirnov",)),
    ("n > 140, t <= 1", _grid(1000, 0.3), ()),
    ("n > 140, nD^2 >= 370", _bent(2000, 4.0), ()),
    ("n > 140, nD^2 >= 2.2", _bent(1000, 1.3), ("_smirnov",)),
    ("n > 140, nD^1.5 <= 1.4", _bent(1000, 1.03), ("_kolmogn_DMTW",)),
    ("n > 140, nD^1.5 > 1.4", _bent(1000, 1.08), ("_kolmogn_PelzGood",)),
    ("n > 100000", _bent(100001, 1.001), ("_kolmogn_PelzGood",)),
    ("all zero", np.zeros(7), ()),
    ("all one", np.ones(7), ()),
    # D is 1/n plus the rounding of i/n - (i-1)/n, so t is just above 1
    ("on the grid i/n", _grid(50, 0.0), ("_kolmogn_DMTW",)),
    ("on the grid (i-1)/n", _grid(50, 1.0), ("_kolmogn_DMTW",)),
]


def _counted(monkeypatch) -> dict:
    calls = dict.fromkeys(ALGORITHMS, 0)
    for name in ALGORITHMS:
        def wrapped(*args, _name=name, _f=getattr(_ks, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(_ks, name, wrapped)
    return calls


def _scipy(x) -> tuple[float, float]:
    s, p = scipy.stats.kstest(x, "uniform")[:2]
    return float(s), float(p)


@pytest.mark.parametrize("case, x, reached", BRANCHES, ids=[b[0] for b in BRANCHES])
def test_ks_uniform_matches_scipy_on_each_branch(monkeypatch, case, x, reached):
    calls = _counted(monkeypatch)
    got = ks_uniform(x)
    assert got == _scipy(x)
    assert {name for name, c in calls.items() if c} == set(reached)
    d, p = got
    if case.startswith("n > 140, nD^2 >= 370"):
        assert d < 0.5 and len(x) * d * d >= 370 and p == 0.0


def test_ks_uniform_matches_scipy_on_random_samples(monkeypatch):
    calls = _counted(monkeypatch)
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 9, 40, 140, 141, 700, 5000, 100001):
        for a in (1.0, 1.05, 1.3, 2.0):
            x = rng.random(n) ** a
            assert ks_uniform(x) == _scipy(x), (n, a)
            x = np.round(x, 2)  # ties
            assert ks_uniform(x) == _scipy(x), (n, a, "rounded")
    assert all(calls.values()), calls


def test_ks_uniform_takes_any_shape_and_clips_to_the_unit_interval():
    x = np.random.default_rng(2).random((30, 7))
    assert ks_uniform(x) == _scipy(x.reshape(-1)) == ks_uniform(x.T.copy())
    x = np.array([-0.5, -0.0, 0.25, 1.0, 3.0, np.inf, -np.inf])
    assert ks_uniform(x) == _scipy(x)


def test_ks_uniform_is_nan_where_scipy_is():
    for x in (np.array([0.2, np.nan, 0.4]), np.array([np.nan])):
        d, p = ks_uniform(x)
        assert np.isnan(d) and np.isnan(p)
        assert all(np.isnan(_scipy(x)))
    d, p = ks_uniform([])
    assert np.isnan(d) and np.isnan(p)


def test_ks_uniform_leaves_its_input_alone():
    x = np.array([0.7, -1.0, 0.2])
    before = x.copy()
    ks_uniform(x)
    assert x.tobytes() == before.tobytes()


def test_the_durbin_loop_switches_to_longdouble_at_its_first_rescale():
    # the running product p i!/n^i falls below 2^-128 at n = 1000, not at 100
    for x, kind in ((_bent(1000, 1.03), np.longdouble), (_bent(100, 1.2), np.float64)):
        d, _ = ks_uniform(x)
        assert type(_ks._kolmogn_DMTW(len(x), np.asarray(d))) is kind


def test_ks_uniform_holds_two_copies_of_the_sample():
    # scipy.stats.kstest peaks near seven
    x = np.random.default_rng(4).random(10**5)
    tracemalloc.start()
    try:
        ks_uniform(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * x.nbytes
