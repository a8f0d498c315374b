"""The CSV writer's value kernel and key columns against their definitions:
every value byte-identical to ``format(x, ".17g")`` and every key to
:func:`hexch.tree.vertex_keys`."""

from decimal import Decimal

import numpy as np
import pytest

from hexch.cli import _CHUNK, _field_csv, array_to_csv
from hexch.tree import vertex_keys


def _rows(blocks) -> list[list[str]]:
    """The data rows of a CSV given as bytes blocks, split at commas."""
    text = b"".join(blocks).decode("ascii")
    assert text.endswith("\n")
    return [row.split(",") for row in text.splitlines()[1:]]


def _values_text(x) -> list[str]:
    """The value column that array_to_csv writes for ``x`` on one tree."""
    x = np.asarray(x, dtype=np.float64)
    return [row[-1] for row in _rows(array_to_csv(x, 1, x.size))]


def _assert_formats(x):
    x = np.asarray(x, dtype=np.float64)
    want = [format(v, ".17g") for v in x.tolist()]
    got = _values_text(x)
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {x.size} values differ, first {bad[:3]}"


def test_random_doubles_of_every_exponent():
    rng = np.random.default_rng(20)
    # bit patterns of random int64s: every exponent, sign, subnormals, nan, inf
    _assert_formats(rng.integers(-(2**63), 2**63 - 1, 20_000, dtype=np.int64).view(np.float64))
    # every binary exponent of the kernel's range and past it on both sides
    mantissa = 1.0 + rng.integers(0, 2**52, 40_000) * 2.0**-52
    _assert_formats(np.ldexp(mantissa, rng.integers(-24, 58, mantissa.size)))
    _assert_formats(10.0 ** rng.uniform(-7, 17, 40_000))
    _assert_formats(rng.random(20_000))


def test_fallback_values():
    tiny = np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300, 1e-7])
    specials = np.array([0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf, 1e16, 1e300,
                         np.finfo(np.float64).max, -0.5, -123.456])
    _assert_formats(np.concatenate([tiny, -tiny, specials]))


def test_powers_of_ten_and_their_neighbours():
    p = 10.0 ** np.arange(-8, 18)
    _assert_formats(np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)]))
    # up to four ulps either way
    near = []
    for v in p:
        down = up = v
        for _ in range(4):
            down, up = np.nextafter(down, 0), np.nextafter(up, np.inf)
            near += [down, up]
    _assert_formats(np.array(near))


def test_exact_ties_at_the_17th_digit_round_half_even():
    rng = np.random.default_rng(21)
    x = []
    for n in range(14, 41):
        # (2j + 1) / 2^n has n decimals, the last a 5, so in [10^(17 - n),
        # 10^(18 - n)) it has 18 significant digits: a tie at the 17th
        lo, hi = 10.0 ** (17 - n) * 2.0**n, min(10.0 ** (18 - n) * 2.0**n, 2.0**53)
        j_lo, j_hi = int(np.ceil((lo - 1) / 2)), int((hi - 1) // 2)
        if j_lo < j_hi:
            x.append((2 * rng.integers(j_lo, j_hi, 2_000) + 1) / 2.0**n)
        x.append((2 * rng.integers(0, 2**52, 500) + 1) / 2.0**n)
    x = np.concatenate(x)
    ties = [v for v in x.tolist() if 1e-6 <= v < 1e16 and len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 10_000
    _assert_formats(x)


def test_blocks_cross_chunk_with_kernel_and_fallback_rows_mixed():
    rng = np.random.default_rng(22)
    x = rng.random(_CHUNK + 5)
    x[::3] = 10.0 ** rng.uniform(-9, 19, x[::3].size)
    x[::7] = 0.0
    x[::11] = -x[::11]
    x[::13] = np.nan
    x[1::17] = np.inf
    x[_CHUNK - 2 : _CHUNK + 2] = [1e-6, 0.0, 5e-324, 0.25]
    blocks = list(array_to_csv(x, 1, x.size))
    assert blocks[0] == b"vertex,value\n"
    assert [block.count(b"\n") for block in blocks[1:]] == [_CHUNK, 5]
    rows = _rows(blocks)
    assert rows == [[k, format(v, ".17g")] for k, v in zip(vertex_keys(1, x.size), x.tolist())]


def test_keys_of_one_tree():
    rng = np.random.default_rng(23)
    for r, m in ((1, 1), (2, 7), (3, 11), (1, 1005)):
        x = rng.random(m**r)
        assert [row[0] for row in _rows(array_to_csv(x, r, m))] == list(vertex_keys(r, m))


def test_keys_of_a_product():
    rng = np.random.default_rng(24)
    depths, shape = (1, 2, 1), (3, 12, 2)
    x = rng.random(3 * 144 * 2)
    want = [[a, b, c] for a in vertex_keys(1, 3) for b in vertex_keys(2, 12)
            for c in vertex_keys(1, 2)]
    assert [row[:3] for row in _rows(array_to_csv(x, depths, shape))] == want


def test_keys_with_a_replica_index():
    rng = np.random.default_rng(25)
    x = rng.random((16, 12))
    rows = _rows(array_to_csv(x, 2, 4, n=12))
    assert [row[:2] for row in rows] == [[k, str(i)] for k in vertex_keys(2, 4)
                                         for i in range(1, 13)]
    assert [row[2] for row in rows] == [format(v, ".17g") for v in x.reshape(-1).tolist()]


@pytest.mark.parametrize("r, m", [(1, 3), (3, 10), (2, 101)])
def test_keys_of_the_field_csv(r, m):
    rng = np.random.default_rng(26)
    by_depth = {d: rng.random(m**d) for d in range(r + 1)}
    rows = _rows(_field_csv(by_depth, m))
    assert [row[0] for row in rows] == [k for d in range(r + 1) for k in vertex_keys(d, m)]
    values = np.concatenate(list(by_depth.values())).tolist()
    assert [row[1] for row in rows] == [format(v, ".17g") for v in values]
