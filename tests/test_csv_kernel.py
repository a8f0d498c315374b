"""The text kernels against their definitions: every CSV value
byte-identical to ``format(x, ".17g")``, every CSV key to
the keys ``encode_vertex`` writes, and every ``hierarchy.json`` float to
``repr``."""

import json
from decimal import Decimal

import numpy as np
import pytest

from hexch._text import _g17_digits, _rows, _shortest_digits
from hexch.cli import _CHUNK, array_to_csv
from hexch.definetti import (
    _BLOCK_ATOMS,
    extract_hierarchy,
    hierarchy_json_chunks,
)
from hexch.scenarios import make_source
from hexch.tree import internal_vertices

from reference import measure_to_json_obj, vertex_keys


def _csv_rows(blocks) -> list[list[str]]:
    """The data rows of a CSV given as bytes blocks, split at commas."""
    text = b"".join(blocks).decode("ascii")
    assert text.endswith("\n")
    return [row.split(",") for row in text.splitlines()[1:]]


def _values_text(x) -> list[str]:
    """The value column that array_to_csv writes for ``x`` on one tree."""
    x = np.asarray(x, dtype=np.float64)
    return [row[-1] for row in _csv_rows(array_to_csv(x, 1, x.size))]


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
    ties = [v for v in x.tolist() if 1e-6 <= v <= 1 and len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 10_000
    _assert_formats(x)


def test_kernels_cover_1e_6_to_1():
    rng = np.random.default_rng(27)
    above = np.concatenate([[np.nextafter(1.0, 2), 1.5, 2.0, 123.456, np.nextafter(1e16, 0)],
                            10.0 ** rng.uniform(0, 16, 2_000)])
    below = np.concatenate([[np.nextafter(1e-6, 0), 5e-7, 1e-7], 10.0 ** rng.uniform(-12, -6, 2_000)])
    for digits in (_g17_digits, _shortest_digits):
        assert not digits(above)[2].any()
        assert not digits(below)[2].any()
    _assert_formats(np.concatenate([above, below]))
    # 1.0 is the .17g kernel's top end, laid out as "1"; repr takes it as a
    # power of two
    assert _g17_digits(np.array([1.0]))[2].all()
    assert not _shortest_digits(np.array([1.0]))[2].any()
    assert _values_text([1.0, 0.5, 1.0]) == ["1", "0.5", "1"]


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
    rows = _csv_rows(blocks)
    assert rows == [[k, format(v, ".17g")] for k, v in zip(vertex_keys(1, x.size), x.tolist())]


def test_keys_of_one_tree():
    rng = np.random.default_rng(23)
    for r, m in ((1, 1), (2, 7), (3, 11), (1, 1005)):
        x = rng.random(m**r)
        assert [row[0] for row in _csv_rows(array_to_csv(x, r, m))] == list(vertex_keys(r, m))


def test_keys_of_a_product():
    rng = np.random.default_rng(24)
    depths, shape = (1, 2, 1), (3, 12, 2)
    x = rng.random(3 * 144 * 2)
    want = [[a, b, c] for a in vertex_keys(1, 3) for b in vertex_keys(2, 12)
            for c in vertex_keys(1, 2)]
    assert [row[:3] for row in _csv_rows(array_to_csv(x, depths, shape))] == want


def test_keys_with_a_replica_index():
    rng = np.random.default_rng(25)
    x = rng.random((16, 12))
    rows = _csv_rows(array_to_csv(x, 2, 4, n=12))
    assert [row[:2] for row in rows] == [[k, str(i)] for k in vertex_keys(2, 4)
                                         for i in range(1, 13)]
    assert [row[2] for row in rows] == [format(v, ".17g") for v in x.reshape(-1).tolist()]


@pytest.mark.parametrize("r, m", [(1, 3), (3, 10), (2, 101)])
def test_keys_at_every_depth(r, m):
    # the root's key "0" included
    rng = np.random.default_rng(26)
    for d in range(r + 1):
        x = rng.random(m**d)
        rows = _csv_rows(array_to_csv(x, d, m))
        assert [row[0] for row in rows] == list(vertex_keys(d, m))
        assert [row[1] for row in rows] == [format(v, ".17g") for v in x.tolist()]


def _assert_repr(x, fallbacks=0):
    """Each float of ``x`` is written as ``repr`` writes it, and the
    shortest kernel, not its ``repr`` fallback, wrote all but at most
    ``fallbacks`` of the values in its range [1e-6, 1) that are not powers
    of two."""
    x = np.asarray(x, dtype=np.float64)
    got = [t.decode("ascii") for t in _rows(x, repr, ends=np.arange(1, x.size + 1))]
    want = [repr(v) for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {x.size} values differ, first {bad[:3]}"
    ok = _shortest_digits(x)[2]
    inside = (x >= 1e-6) & (x < 1.0) & (np.frexp(x)[0] != 0.5)
    assert not (ok & ~inside).any()
    assert np.count_nonzero(inside & ~ok) <= fallbacks


def _decimals(rng, k: int, size: int) -> np.ndarray:
    """Doubles nearest to random k-digit decimals in [1e-6, 1)."""
    digits = rng.integers(10 ** (k - 1), 10**k, size)
    exps = rng.integers(-6, 0, size) - k + 1
    return np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exps.tolist())])


def test_shortest_kernel_on_decimals_of_every_length_and_their_neighbours():
    rng = np.random.default_rng(30)
    for k in range(1, 18):
        v = _decimals(rng, k, 1_000)
        x = np.concatenate([v, np.nextafter(v, 0), np.nextafter(v, 1)])
        # within an ulp of a power of ten, log10 can put x in the decade
        # above, and such values are left to repr
        power = 10.0 ** np.round(np.log10(x))
        _assert_repr(x, fallbacks=np.count_nonzero(np.abs(x - power) <= np.spacing(power)))


def test_shortest_kernel_on_log_uniform_and_binary_exponents():
    rng = np.random.default_rng(31)
    _assert_repr(10.0 ** rng.uniform(-6, 0, 50_000))
    # random mantissas at every binary exponent of [2^-20, 1)
    mantissa = 0.5 + rng.integers(1, 2**52, (20, 2_000)) * 2.0**-53
    _assert_repr(np.ldexp(mantissa, np.arange(-20, 0)[:, None]).reshape(-1))
    _assert_repr(rng.random(20_000))


def test_shortest_kernel_on_the_pipeline_atoms():
    h = extract_hierarchy(make_source("product", 2, 128).sample(0), 2, 128)
    _assert_repr(h.atoms[0][h.mult[0] > 0])


def test_powers_of_two_fall_back_and_their_neighbours_do_not():
    p = 2.0 ** np.arange(-19, 0)
    near = np.concatenate([np.nextafter(p, 0), np.nextafter(p, 1)])
    _assert_repr(np.concatenate([p, near]))
    assert not _shortest_digits(p)[2].any()
    assert _shortest_digits(near)[2].all()


def test_range_ends_and_values_outside_it():
    edges = np.array([1e-6, np.nextafter(1e-6, 0), np.nextafter(1e-6, 1),
                      np.nextafter(1.0, 0), 0.0, 1.0, 1e-7, 5e-324, 3e-300])
    _assert_repr(edges, fallbacks=1)
    # 1e-06 lies just below 1e-6, so its product is checked in the decade below
    assert _shortest_digits(edges)[2].tolist() == [False, False, True, True] + [False] * 5


def test_values_just_below_a_power_of_ten():
    # their shorter candidates round up to the power of ten, a carry into the
    # next decade that does not read back, except for 1e-06 itself
    x = [10.0 ** -np.arange(1, 8)]
    for _ in range(8):
        x.append(np.nextafter(x[-1], 0))
    _assert_repr(np.concatenate(x), fallbacks=40)


def test_exact_decimal_ties_fall_back():
    rng = np.random.default_rng(32)
    x = []
    for n in range(14, 41):
        # (2j + 1) / 2^n with 18 significant digits: a tie at the 17th
        lo, hi = 10.0 ** (17 - n) * 2.0**n, min(10.0 ** (18 - n) * 2.0**n, 2.0**53)
        j_lo, j_hi = int(np.ceil((lo - 1) / 2)), int((hi - 1) // 2)
        if j_lo < j_hi:
            x.append((2 * rng.integers(j_lo, j_hi, 1_000) + 1) / 2.0**n)
    x = np.concatenate(x)
    x = x[(x >= 1e-6) & (x < 1.0)]
    assert all(len(Decimal(v).as_tuple().digits) == 18 for v in x.tolist())
    ok = _shortest_digits(x)[2]
    # a tie is left to repr only where 16 digits do not read back
    assert 0 < np.count_nonzero(~ok) < x.size
    _assert_repr(x, fallbacks=x.size)
    # odd multiples of 2^-17 in [0.5, 1) end in 5 at the 17th digit, and both
    # 16-digit neighbours, 5 units of the 17th digit away, read back
    x = (2 * rng.integers(2**15, 2**16, 2_000) + 1) / 2.0**17
    assert not _shortest_digits(x)[2].any()
    _assert_repr(x, fallbacks=x.size)


def test_level0_blocks_with_kernel_and_fallback_atoms_mixed():
    rng = np.random.default_rng(33)
    r, m = 2, 300
    x = rng.random(m * m)
    x[::7] = 10.0 ** rng.uniform(-9, 0, x[::7].size)
    x[::11] = 2.0 ** -rng.integers(1, 30, x[::11].size)
    x[::13] = 0.0
    x[1::17] = 1.0
    x[2::19] = _decimals(rng, 3, x[2::19].size)
    x[3::23] = 1e-6
    h = extract_hierarchy(x, r, m)
    a = h.atoms[0][h.mult[0] > 0]
    # the table's rows fill more than one block, and both paths write atoms
    assert a.size > _BLOCK_ATOMS
    ok = _shortest_digits(a)[2]
    assert ok.any() and not ok.all()
    measures = {v.encode(): measure_to_json_obj(mu)
                for v, mu in zip(internal_vertices(r, m), h.measures, strict=True)}
    want = json.dumps({"m": m, "measures": measures, "r": r}, sort_keys=True) + "\n"
    assert b"".join(hierarchy_json_chunks(h)).decode() == want
