"""Python's ``repr`` text of whole numpy arrays, formatted without a call per value.

A column of numbers becomes *cells*: a uint8 matrix with one row per value
holding its text, padded with NUL bytes on either side, so ``join`` can lay
columns and literal separators side by side and drop the padding of all
rows at once. Integers are written in decimal. A float in repr's fixed
notation (a finite magnitude in [1e-4, 1e16)) gets repr's shortest
round-trip digits in integer arithmetic:

1. Scale |x| by 10**s so that V = |x| 10**s lies in [1e16, 1e17). The
   product is exact as hi + lo (Dekker's two-product; 10**s <= 10**21 is
   an exact double), so V = N + F / 2**E with N = floor(V) and F a whole
   number below 2**E, E = 55 - e - s for |x| in [2**(e - 1), 2**e).
2. Half the gap to the next double up is H = 2 * 5**s in those units, and
   half the gap to the next one down is L = H, or H / 2 at a power of two.
   The whole numbers [bot, top] in [V - L, V + H] read back as x; the
   bounds themselves count when x's mantissa is even (reads round half to
   even).
3. The digits are the multiple of 10**t nearest to V, for the largest t
   with a multiple of 10**t in [bot, top]. At a power of two the nearest
   can fall below bot; then the next one up is the answer.

An exact tie in step 3, and every value outside that domain (zero,
subnormals, |x| < 1e-4 or >= 1e16, inf, nan), is formatted by ``repr``
itself. numpy integers wrap silently on overflow, so the comments below
state the bound of each int64 quantity.

numpy's own float-to-bytes cast (``x.astype("S24")``, Dragon4) gives the
same text but runs about 4x slower than ``float_cells`` on 47k floats,
slower even than a ``repr`` per value.
"""
from __future__ import annotations

import math

import numpy as np

from .special import _two_product

__all__ = ["BLOCK", "int_cells", "float_cells", "join"]

BLOCK = 65_536  # rows to format at a time, so temporaries do not grow with the input

_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 10**18 < 2**63
_POW10F = 10.0 ** np.arange(23)  # exact doubles up to 10**22
_POW5 = 5 ** np.arange(23, dtype=np.int64)  # 5**22 < 2**52
_CHUNK = 18  # decimal digits an int64 holds
_ZERO = ord("0")


def _put_whole(chars: np.ndarray, stop: int, q: np.ndarray, count: int) -> None:
    """Write ``q`` (int64 >= 0, or uint64) right-aligned in the ``count``
    columns of ``chars`` before ``stop``, its leading zeros as NUL."""
    ten = q.dtype.type(10)
    for c in range(stop - 1, stop - count - 1, -1):
        nxt = q // ten
        chars[:, c] = (q - nxt * ten + _ZERO) * (q > 0)
        q = nxt
    np.maximum(chars[:, stop - 1], _ZERO, out=chars[:, stop - 1])  # 0 is written "0"


def _put_fraction(chars: np.ndarray, stop: int, q: np.ndarray, count: int, seen: np.ndarray) -> None:
    """Write the last ``count`` digits of ``q`` (int64 >= 0) in the columns
    of ``chars`` before ``stop``, NUL until a row's first nonzero digit from
    the right (``seen``, updated: it carries across the chunks of one fraction)."""
    for c in range(stop - 1, stop - count - 1, -1):
        nxt = q // 10
        digit = q - nxt * 10
        seen |= digit > 0
        chars[:, c] = (digit + _ZERO) * seen
        q = nxt


def int_cells(values) -> np.ndarray:
    """Cells of the decimal text of each int64."""
    values = np.asarray(values).ravel()
    neg = values < 0
    # 0 - v wraps to |v| in uint64, also for the int64 minimum
    mag = np.where(neg, np.uint64(0) - values.astype(np.uint64), values.astype(np.uint64))
    width = len(str(int(mag.max(initial=0)))) + bool(neg.any())
    chars = np.empty((values.size, width), dtype=np.uint8)
    _put_whole(chars, width, mag, width)
    rows = np.flatnonzero(neg)
    chars[rows, (chars[rows] != 0).argmax(axis=1) - 1] = ord("-")  # before the first digit
    return chars


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For positive ``a`` in [1e-4, 1e16): (D, s, t, sure). repr's digits are
    the whole number D, a multiple of 10**t and no higher power of ten, and
    a rounds from D 10**-s. ``sure`` is False at an exact tie between two
    shortest strings, and where the scaling missed [1e16, 1e17)."""
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi = a * _POW10F[s]  # log10 can be off by one near a power of ten
    s += (hi < 1e16).astype(np.int64) - (hi >= 1e17)  # s in [1, 21]
    hi, lo = _two_product(a, _POW10F[s])  # exact: no overflow with a, 10**s < 1e22
    mant, e2 = np.frexp(a)  # a = mant 2**e2 with mant in [0.5, 1)
    e = 55 - e2.astype(np.int64) - s  # 0 <= e <= 51 for V in [1e16, 1e17)
    units = np.ldexp(lo, e).astype(np.int64)  # lo is a multiple of 2**(2 - e) and |lo| <= 8: < 2**54
    n = hi.astype(np.int64) + (units >> e)  # floor(V) < 1e17
    mask = (np.int64(1) << e) - 1
    f = units & mask  # the fraction of V, in units of 2**-e: < 2**51
    half = 2 * _POW5[s]  # H, in the units of f: < 2**50
    below = half >> (mant == 0.5)  # L
    odd = a.view(np.int64) & 1  # the bounds count only when the mantissa is even
    bot = n - ((below - f - odd) >> e)  # ceil(V - L); if odd, the least whole number above V - L: |below - f| < 2**51
    top = n + ((f + half - odd) >> e)  # floor(V + H); if odd, the greatest below V + H: f + half < 2**52
    t = np.zeros(a.size, dtype=np.int64)
    for p in _POW10[1:18]:  # multiples of 10**t in [bot, top] for t = 1, 2, ...: hits form a prefix
        hit = (top // p) * p >= bot
        if not hit.any():
            break
        t += hit
    p = _POW10[t]
    q = n // p
    r = n - q * p  # r + f / 2**e is V's remainder modulo 10**t
    rem = np.where(t == 0, 2 * f, r)  # when t = 0 compare 2 f with 2**e
    mid = np.where(t == 0, mask + 1, p >> 1)
    up = (rem > mid) | ((rem == mid) & (t > 0) & (f > 0))
    tie = (rem == mid) & ((t == 0) | (f == 0))
    d = (q + up) * p
    d += p * (d < bot)  # only at a power of two: the gap below is narrower
    return d, s, t, ~tie & (n >= _POW10[16]) & (n < _POW10[17])


def float_cells(values, nonfinite: str | None = None) -> np.ndarray:
    """Cells of ``repr`` of each float64; ``nonfinite`` if given replaces the text of inf and nan."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1e16)
    d, s, t, sure = _shortest(np.where(inside, a, 1.0))
    slow = np.flatnonzero(~(inside & sure))
    neg = x < 0
    # D has 17 digits, 18 at 10**17; s of them are the fraction's
    n_int = np.maximum(17 + (d == _POW10[17]) - s, 1) + neg
    w_int = int(n_int.max(initial=1))
    w_frac = int(np.maximum(s - t, 1).max(initial=1))  # the fraction without its trailing zeros
    texts = [repr(v) if nonfinite is None or math.isfinite(v) else nonfinite for v in x[slow].tolist()]
    width = max([w_int + 1 + w_frac, *map(len, texts)])
    chars = np.zeros((x.size, width), dtype=np.uint8)
    _put_whole(chars, w_int, d // _POW10[np.minimum(s, 18)], w_int)  # D < 10**18
    chars[neg, w_int - n_int[neg]] = ord("-")
    chars[:, w_int] = ord(".")
    seen = np.zeros(x.size, dtype=bool)
    for k in reversed(range(0, w_frac, _CHUNK)):  # chunks of columns, the rightmost first
        count = min(_CHUNK, w_frac - k)
        low = s - k - count  # the chunk's last place, negative past D's units
        window = np.where(
            low >= 0,
            d // _POW10[low.clip(0, 18)] % _POW10[count],
            d % _POW10[(count + low).clip(0, 18)] * _POW10[(-low).clip(0, 18)],
        )
        _put_fraction(chars, w_int + 1 + k + count, window, count, seen)
    np.maximum(chars[:, w_int + 1], _ZERO, out=chars[:, w_int + 1])  # a whole number ends ".0"
    if texts:
        chars[slow] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)
    return chars


def join(columns) -> bytes:
    """The rows of ``columns`` (cells, or literal bytes repeated on every
    row) side by side, row after row, without the NUL padding."""
    rows = next(c.shape[0] for c in columns if isinstance(c, np.ndarray))
    matrix = np.concatenate([
        c if isinstance(c, np.ndarray)
        else np.broadcast_to(np.frombuffer(c, dtype=np.uint8), (rows, len(c)))
        for c in columns
    ], axis=1)
    return matrix.tobytes().translate(None, b"\0")
