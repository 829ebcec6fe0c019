"""CSV rows of fuzzy states, their floats formatted in numpy byte for byte
as ``b"%.17g" % v`` writes them.

``%g`` writes a float of the window ``1e-4 <= |x| < 1e16`` in fixed notation,
from its 17 significant digits: the integer ``|x| * 10**p`` rounded, ties to
even, where ``p = 16 - floor(log10 |x|)`` and ``10**p`` is an exact double.
Dekker's error-free product (Dekker 1971) gives that product as ``hi + lo``
exactly; ``hi`` is an even integer, so ``hi + rint(lo)`` is the rounded one.
Every other float (zeros, subnormals, the tiny and the huge, nan, and a
product that rounds up to ``10**17``) is written by Python itself.

A float's slot is six int64 words: the comma, its sign and ``0.`` prefix,
then a digit byte and a point byte for each of ``000`` and its 17 digits.
The digits come from a table of 4-digit groups, and one add lays a pattern
over them that sets the point and adds 0x80 to each digit not written;
``translate`` deletes those and the NUL padding.

The first call of a numpy loop maps its code into memory, so this module runs
only loops that a solver's march has already run: float64 arithmetic and
compares, ``where``, ``take``, and int64 ``divmod`` and ``add``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DimensionMismatchError, GridMismatchError

# rows per call of ``rows``, which costs about as much as 100 floats do: a
# state with fewer rows waits for the next ones
_BATCH_ROWS = 256

_LOG10_2 = 0.30102999566398120
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
# A digit word, read little-endian, plus this, read as a double, is 2**52
# plus the word's digit values (its digit j, byte 2j, weighs 2**(16 j)).
_UNPACK = 0x4330000000000000 - 0x0030003000300030
_GROUP_WEIGHT = np.array([[2.0 ** (64 * i)] for i in range(5)])
_DELETE = bytes([0, *range(0xB0, 0xBA)])  # NUL, and the digits not written
_CRLF = np.frombuffer(b"\r\n\0\0\0\0\0\0", np.int64)


@cache
def _powers():
    """``fl(10**j)`` for j = -4..20, above ``10**j`` for j < 0, and its split
    halves."""
    pow10 = np.array([float(f"1e{j}") for j in range(-4, 21)])
    big = pow10 * _SPLIT
    high = big - (big - pow10)
    return pow10, high, pow10 - high


@cache
def _layout():
    """The digit word of each 4-digit group; the patterns, by (last digit
    written, digit the point follows or 17 for none); the prefix words, by
    (sign, -k)."""
    groups = np.zeros((10, 10, 10, 10, 4, 2), np.uint8)
    for i in range(4):
        groups[..., i, 0] = np.frombuffer(b"0123456789", np.uint8).reshape((10,) + (1,) * (3 - i))
    digit = np.arange(-3.0, 17.0)  # of each of the 20 cells
    at = np.arange(18.0)
    pattern = np.empty((17, 18, 20, 2), np.uint8)
    pattern[..., 0] = np.where((digit < 0) | (digit > at[:17, None, None]), np.uint8(0x80), np.uint8(0))
    pattern[..., 1] = np.where(digit == at[:, None], np.uint8(46), np.uint8(0))
    prefixes = np.array([b"," + s + z for s in (b"", b"-") for z in (b"", b"0.", b"0.0", b"0.00", b"0.000")],
                        "S8")
    return (groups.reshape(10000, 8).view(np.int64).ravel(), pattern.reshape(306, 40).view(np.int64),
            prefixes.view(np.int64))


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the 1-d ``x``: a mask of the floats left to Python, each float's
    ``k = floor(log10 |x|)``, and its 17 digits as a ``(5, n)`` int64 array of
    the first digit and four groups of 4 (junk where the mask is set)."""
    pow10, high, low = _powers()
    a = np.abs(x)
    python = np.where(a < 1e16, a, 0.0) < 1e-4  # outside the window, or nan
    a[python] = 1.0
    k = np.floor(np.log2(a) * _LOG10_2 - 1e-9)  # floor(log10 a), or one less
    k = np.where(a >= pow10.take((k + 5).astype(np.int64)), k + 1, k)
    p = (20 - k).astype(np.int64)  # the index of 10**(16 - k)
    hi = a * pow10.take(p)
    ah = a * _SPLIT
    ah -= ah - a
    a -= ah  # its low half
    sh, sl = high.take(p), low.take(p)
    lo = ah * sh
    lo -= hi
    lo += ah * sl
    lo += a * sh
    lo += a * sl
    np.rint(lo, out=lo)
    python |= hi + lo >= 1e17
    g = np.empty((5, x.size), np.int64)
    d = g[0]
    np.add(hi.astype(np.int64), lo.astype(np.int64), out=d)
    for i in (4, 3, 2, 1):
        np.divmod(d, 10000, out=(d, g[i]))
    return python, k, g


def _last_nonzero(words: np.ndarray) -> np.ndarray:
    """The position among the 17 digits of each float's last nonzero one,
    from the ``(5, n)`` digit words: the words' digit values, each group
    weighted above the one before, sum to a double whose top bit is that
    digit's."""
    values = (words.view("<i8") + _UNPACK).view(np.float64)
    values -= 2.0 ** 52
    values *= _GROUP_WEIGHT
    return np.floor(np.log2(values.sum(0)) * 0.0625) - 3


def rows(heads: list[str], tails: np.ndarray, x: np.ndarray) -> list[str]:
    """Per head, its rows ``head + tail + ",lower,upper\\r\\n"`` as one
    string, a row for each row of ``tails`` (NUL-padded uint8); ``x`` holds
    the ``(lower, upper)`` floats of each head's rows in turn."""
    groups, pattern, prefixes = _layout()
    x = x.ravel()
    python, k, g = _digits(x)
    words = groups.take(g)
    del g  # the arrays that follow may reuse its memory
    end = _last_nonzero(words)
    at = np.where(k < 0, 17.0, np.where(end > k, k, 17.0))  # the digit the point follows
    sign_and_zeros = np.where(x < 0, 5.0, 0.0) - np.minimum(k, 0.0)
    written = np.maximum(end, k) * 18 + at  # by the last digit written and the point

    heads = np.array([head.encode() for head in heads])  # NUL-padded
    h, t = heads.itemsize, heads.itemsize + tails.shape[1]
    start = t + -t % 8  # the slots start on a word
    block = np.zeros((len(heads), len(tails), start + 104), np.uint8)  # two slots, CRLF and padding
    block[..., :h] = heads.view(np.uint8).reshape(-1, 1, h)
    block[..., h:t] = tails
    block.view(np.int64)[..., -1] = _CRLF
    slots = block.view(np.int64)[..., start // 8:-1].reshape(-1, 2, 6)
    slots[..., 0] = prefixes.take(sign_and_zeros.astype(np.int64)).reshape(-1, 2)
    np.add(words.T.reshape(-1, 2, 5), pattern.take(written.astype(np.int64), axis=0).reshape(-1, 2, 5),
           out=slots[..., 1:])
    for j in np.flatnonzero(python).tolist():
        column = start + 48 * (j % 2) + 1
        block.reshape(-1, start + 104)[j // 2, column:column + 47] = np.frombuffer(
            (b"%.17g" % x[j]).ljust(47, b"\0"), np.uint8)
    return [state.tobytes().translate(None, _DELETE).decode() for state in block]


def state_rows(points):
    """Per ``(head, state)`` point, its rows (head, component, alpha, lower,
    upper) as one string.  The row tails are formatted once, from the first
    state: every later state must have its grid and component count."""
    tails = None
    heads, cuts = [], []
    for head, value in points:
        if tails is None:
            grid, n = value.grid, value.n
            tails = np.array([b",%d,%.17g" % (c, alpha) for c in range(n) for alpha in grid.levels.tolist()])
            tails = tails.view(np.uint8).reshape(tails.size, -1)
        elif value.n != n:
            raise DimensionMismatchError(f"a state has {value.n} components, the first {n}")
        elif not grid.matches(value.grid):
            raise GridMismatchError("a state lives on another alpha grid than the first")
        heads.append(head)
        cuts.append(np.stack((value.lower, value.upper), -1))
        if len(heads) * len(tails) >= _BATCH_ROWS:
            yield from rows(heads, tails, np.concatenate(cuts))
            heads, cuts = [], []
    if heads:
        yield from rows(heads, tails, np.concatenate(cuts))
