"""Exact numpy kernels for the decimal text of doubles, and the one row
builder that both the CSV and the JSON writer lay their rows out with.

Both kernels cover [1e-6, 1], where every value the writers emit lies:
array entries are clipped to [0, 1], field values lie in [0, 1) and
weights in (0, 1].  Two digit sources feed one layout.  Both start from
the exact product x * 10^q = hi + lo, q = 16 - floor(log10 x), whose
integer part has 17 digits (Dekker's two-product; 10^q is an exact double
for q <= 22):

- :func:`_g17_digits` rounds it half to even to 17 digits, the digits of
  ``format(x, ".17g")`` (:func:`_fmt`);
- :func:`_shortest_digits` finds the fewest correctly rounded digits that
  read back as x, the digits of ``repr(x)`` (Steele & White; Gay 1990).
  It decides each round trip by exact arithmetic, never by parsing a
  candidate back.

:func:`_layout` writes 17 digits and their exponent as ``.17g`` and
``repr`` lay them out on [1e-6, 1], trailing zeros stripped: positional
down to 1e-4, ``d.ddde-0d`` below, and ``1`` for 1.0.  Each digit source
returns the mask of the values it handles, and ``_fmt`` or ``repr`` itself
writes the others, so each text has one definition.  :func:`_rows` puts
each text between the caller's bytes (a CSV key and newline, a JSON weight
and brackets) and returns the rows as ``bytes``.
"""

from __future__ import annotations

import numpy as np

_POW10 = 10.0 ** np.arange(23)
# bytes of one value: "0.000", 17 digits and a dot, "e-0d"; any .17g or
# repr text of a double (at most 24 bytes) fits
_VALUE_WIDTH = 27
_NO_BYTES = np.empty((0, 1), np.uint8)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into a high and a low half of at most
    26 significant bits, whose products are exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(v: np.ndarray, out: np.ndarray) -> None:
    """The decimal digits of the uint32 array ``v`` as ASCII in the rows of
    ``out``, most significant first, leading zeros kept."""
    for row in out[::-1]:
        q = v // 10
        row[...] = v - q * 10
        v = q
    out += ord("0")


def _product(x: np.ndarray):
    """``(q, hi, lo, ok)`` with x * 10^q = hi + lo exactly, |lo| at most half
    an ulp of hi, and ``ok`` marking the x in [1e-6, 1] whose product lies
    in [1e16, 1e17); the decade is checked on the exact product, since
    ``log10`` can misjudge it near a power of ten.  Temporaries are
    overwritten in place, in the order of the sum
    ((x_hi p_hi - hi) + x_hi p_lo + x_lo p_hi) + x_lo p_lo."""
    ok = (x >= 1e-6) & (x <= 1.0)
    x = np.where(ok, x, 1.0)
    e = np.log10(x)
    q = np.floor(e, out=e).astype(np.intp)
    del e
    np.subtract(16, q, out=q)
    np.clip(q, 0, 22, out=q)
    hi = _POW10[q]
    hi *= x
    x_hi, x_lo = _split(x)
    p_hi, p_lo = _POW10_HI[q], _POW10_LO[q]
    lo = x_hi * p_hi
    lo -= hi
    lo += np.multiply(x_hi, p_lo, out=x_hi)
    lo += np.multiply(x_lo, p_hi, out=p_hi)
    lo += np.multiply(x_lo, p_lo, out=p_lo)
    ok &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    ok &= (hi < 1e17) | ((hi == 1e17) & (lo < 0))
    return q, hi, lo, ok


def _g17_digits(x: np.ndarray):
    """``(n, q, ok)``: the 17 digits n = round(x * 10^q) of
    ``format(x, ".17g")``, for the x in [1e-6, 1] that ``ok`` marks.
    hi >= 1e16 > 2^53 is an even integer, so hi + rint(lo) rounds half to
    even, as ``format`` does."""
    q, hi, lo, ok = _product(x)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok &= n < 10**17
    return n, q, ok


def _shortest_digits(x: np.ndarray):
    """``(n, q, ok)``: the digits of ``repr(x)`` for the x that ``ok``
    marks, padded with zeros to 17.

    With x * 10^q = H + lo, H an integer and lo in [0, 1), the k-digit
    correctly rounded candidate is D = H // 10^j, j = 17 - k, rounded up
    when R - 10^j / 2 > -lo for R = H - D 10^j; both sides are exact.  D
    reads back as x when its distance |D 10^j - H - lo| is below
    t = 10^q 2^(e - 54), half an ulp of x = f 2^e (f in [0.5, 1)) times
    10^q, an exact double.  The distance is rounded once, and rounding is
    monotone, so a rounded distance below or above t is the exact one's
    side of t; at t itself it is undecided.  A candidate that reads back
    makes the k + 1-digit one read back too, since that grid holds it, so
    lengths are tried from 17 down on the values that still read back.
    Left to the caller are the x outside [1e-6, 1], powers of two (their
    gap below is half the gap above, and 1.0 is one), and a shortest
    candidate that is an exact decimal tie, lies undecided at t or carries
    into the next decade."""
    q, hi, lo, ok = _product(x)
    mantissa, e2 = np.frexp(x)
    ok &= mantissa != 0.5
    live = np.flatnonzero(ok)
    # from here on only the values still in play are kept
    hi, lo, e2, q_live = hi[live], lo[live], e2[live], q[live]
    floor = np.floor(lo)
    lo -= floor
    h = hi.astype(np.int64)
    h += floor.astype(np.int64)
    e2 -= 54
    t = np.ldexp(_POW10[q_live], e2)
    del hi, floor, mantissa, e2, q_live
    # 17 digits always read back: they lie within 1/2 of x 10^q, and
    # t > 1e16 2^-54 > 1/2
    n = np.zeros(x.size, np.int64)
    undecided = np.zeros(x.size, bool)
    n[live] = h + (lo > 0.5)
    undecided[live] = lo == 0.5
    for j in range(1, 17):
        p = 10**j
        d = h // p
        # R - 10^j / 2, an integer below 2^53 in magnitude
        c = (h - d * p - p // 2).astype(np.float64)
        d += c > -lo
        d *= p
        # D 10^j - H is an integer below 2^53 in magnitude, exact as a double
        s = np.abs((d - h).astype(np.float64) - lo)
        undecided[live[s == t]] = True
        back = np.flatnonzero(s < t)
        if not back.size:
            break
        live = live[back]
        n[live] = d[back]
        undecided[live] = (c == -lo)[back]
        del d, c, s
        h, lo, t = h[back], lo[back], t[back]
    ok &= ~undecided & (n < 10**17)
    return n, q, ok


def _layout(n: np.ndarray, q: np.ndarray, out: np.ndarray) -> None:
    """Write the 17 digits ``n`` of each value in [1e-6, 1], times 10^-q, as
    ``.17g`` lays them out, down its column of the (``_VALUE_WIDTH``,
    len(n)) planes ``out``, 0 where a plane has no byte: ``0.`` and zeros
    before the digits of 1e-4 <= x < 1, ``d.ddde-0d`` below, ``1`` for 1.0.
    The first digit goes to plane 5 and the other 16 to planes 7 to 22;
    plane 6 holds the dot of ``d.ddd``, and no byte otherwise, so one plane
    order serves all three.  Temporaries are dropped once spent, which
    bounds a block's peak memory."""
    top = n // 10**9
    _digits(top.astype(np.uint32), out[6:14])
    top *= 10**9
    _digits(np.subtract(n, top, out=top).astype(np.uint32), out[14:23])
    del top
    # strip trailing zeros; ``zeros`` ends true where one digit is left
    zeros = np.ones(n.size, bool)
    for row in out[22:6:-1]:
        zeros &= row == ord("0")
        row *= ~zeros
    out[5] = out[6]
    e = (16 - q).astype(np.int8)
    sci = e < -4
    np.multiply(sci & ~zeros, np.uint8(ord(".")), out=out[6])
    # "0." and -e - 1 zeros before the digits of 1e-4 <= x < 1
    lead = (e < 0) * ~sci * (1 - e)
    for j, (row, byte) in enumerate(zip(out[:5], b"0.000")):
        np.multiply(lead > j, np.uint8(byte), out=row)
    for row, byte in zip(out[23:26], b"e-0"):
        np.multiply(sci, np.uint8(byte), out=row)
    np.multiply(sci, (ord("0") - e).astype(np.uint8), out=out[26])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# the kernel that writes each text where it applies
_KERNELS = {_fmt: _g17_digits, repr: _shortest_digits}


def _rows(x: np.ndarray, fmt, before=_NO_BYTES, after=_NO_BYTES, ends=None):
    """Row i is column i of the uint8 planes ``before`` (0 is no byte; one
    column serves every row), ``fmt(x[i])`` for ``fmt`` in ``_fmt`` and
    ``repr``, and column i of ``after``: all rows as one ``bytes``, or one
    per run of rows ending before each row index of ``ends``.  The planes
    are transposed once, after the kernel of ``fmt`` wrote the values it
    covers, and freed, like every temporary, before the rows are cut."""
    n, q, ok = _KERNELS[fmt](x)
    col, end = len(before), len(before) + _VALUE_WIDTH
    planes = np.empty((end + len(after), x.size), np.uint8)
    planes[:col], planes[end:] = before, after
    del before, after
    _layout(n, q, planes[col:end])
    del n, q
    matrix = planes.T.copy()
    del planes
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array([fmt(v) for v in x[bad].tolist()], dtype=f"S{_VALUE_WIDTH}")
        matrix[bad, col:end] = text.view(np.uint8).reshape(bad.size, _VALUE_WIDTH)
    del x, ok
    mask = matrix != 0
    if ends is not None:
        cuts = np.cumsum(mask.sum(axis=1))[np.asarray(ends) - 1].tolist()
    text = matrix[mask]
    del matrix, mask
    if ends is None:
        return text.tobytes()
    return [text[s:e].tobytes() for s, e in zip([0] + cuts[:-1], cuts)]
