"""CSV rows of fuzzy states, their floats formatted in numpy byte for byte
as ``b"%.17g" % v`` writes them.

``%g`` writes a float of the window ``1e-4 <= |x| < 1e16`` in fixed notation,
from its 17 significant digits: the integer ``|x| * 10**p`` rounded, ties to
even, where ``p = 16 - floor(log10 |x|)`` and ``10**p`` is an exact double.
Dekker's error-free product (Dekker 1971) gives that product as ``hi + lo``
exactly; ``hi`` is an even integer, so ``hi + rint(lo)`` is the rounded one.
Every other float (zeros, subnormals, the tiny and the huge, nan, and a
product that rounds up to ``10**17``) is written by Python itself.

A float's slot is five int64 words of four cells, a digit byte and a point
byte each.  The first word holds its sign and first digit, each other word 4
digits, from a table of 4-digit groups.  One add lays a pattern over them
that writes the ``0.`` and zeros of a float below 1, sets the point and adds
0x80 to each digit not written; ``translate`` deletes those and the NUL
padding.

The first call of a numpy loop maps its code into memory, so this module runs
only loops that a solver's march has already run: float64 arithmetic and
compares, ``where``, ``take``, and int64 ``divmod`` and ``add``.

A call of ``rows`` formats about ``_BATCH_FLOATS`` floats, each step on all
of them at once.  Its working set peaks when the ``(5, 2, rows)`` digit words
are copied into the row block, which is made only then; before, it holds the
words and the ``(4, 2, rows)`` digit values that find each float's last
digit, and after, the block and the halves of one state's bytes as they are
translated.  For two states of 4 x 101 cuts, the words take 65 kB, the
values 52 kB and the block 97 kB.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DimensionMismatchError, GridMismatchError

# a call of ``rows`` takes as few states as hold this many floats (a call
# costs about as much as 100 floats do); two states of 4 x 101 cuts do
_BATCH_FLOATS = 1600

_LOG10_2 = 0.30102999566398120
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
# A digit word, read little-endian, plus this, read as a double, is 2**52
# plus the word's digit values (its digit j, byte 2j, weighs 2**(16 j)).
_UNPACK = 0x4330000000000000 - 0x0030003000300030
_GROUP_WEIGHT = np.array([2.0 ** (64 * i) for i in range(1, 5)]).reshape(4, 1, 1)
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
    """The digit word of each 4-digit group; a float's first word, at
    10 * (1 if negative) + first digit; and the 5 pattern words of each last
    digit written and ``at``, at 22 * last + at + 4.  ``at`` is the digit the
    point follows, 17 for none, or for a float below 1 its ``k < 0``: then
    the pattern writes ``0.`` and -k - 1 zeros before the first digit."""
    groups = np.zeros((10, 10, 10, 10, 4, 2), np.uint8)
    for i in range(4):
        groups[..., i, 0] = np.frombuffer(b"0123456789", np.uint8).reshape((10,) + (1,) * (3 - i))
    firsts = np.array([sign + b"\0" * 5 + b"%d" % d for sign in (b"\0", b"-") for d in range(10)], "S8")
    digit = np.arange(-3.0, 17.0)  # of each of the 20 cells
    pattern = np.zeros((17, 22, 20, 2), np.uint8)
    pattern[..., 0] = np.where(digit > np.arange(17.0)[:, None, None], np.uint8(0x80), np.uint8(0))
    pattern[:, 4:, :, 1] = np.where(digit == np.arange(18.0)[:, None], np.uint8(46), np.uint8(0))
    for k in range(-4, 0):  # the 0. and zeros, after the sign, in the cells before the first digit
        pattern[:, k + 4, :3] = np.frombuffer(b"\0" + b"0.000"[:1 - k].ljust(5, b"\0"), np.uint8).reshape(3, 2)
    return (groups.reshape(10000, 8).view(np.int64).ravel(), firsts.view(np.int64),
            pattern.reshape(374, 5, 8).view(np.int64)[..., 0].T.copy())


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For ``x``: a mask of the floats left to Python, each float's
    ``k = floor(log10 |x|)``, and its 17 digits as one int64 (junk where the
    mask is set)."""
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
    d = hi.astype(np.int64)
    d += lo.astype(np.int64)
    return python, k, d


def _words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the ``(2, rows)`` floats ``x``: a mask of the floats left to
    Python, and the ``(5, 2, rows)`` words of every float's slot."""
    groups, firsts, patterns = _layout()
    python, k, d = _digits(x)
    words = np.empty((5,) + x.shape, np.int64)
    group = np.empty_like(d)
    for i in (4, 3, 2, 1):
        np.divmod(d, 10000, out=(d, group))
        np.take(groups, group, out=words[i], mode="clip")
    d += np.where(x < 0, 10.0, 0.0).astype(np.int64)
    np.take(firsts, d, out=words[0], mode="clip")
    del d, group
    # the last nonzero digit is the top bit of the groups' digit values, each
    # group weighted above the one before, summed as a double; the first
    # digit, never 0, counts as 2**48
    values = (words[1:] + _UNPACK).view(np.float64)
    values -= 2.0 ** 52
    values *= _GROUP_WEIGHT
    end = values.sum(0)
    del values
    end += 2.0 ** 48
    end = np.floor(np.log2(end) * 0.0625) - 3
    # the point follows digit k if a later digit is written, always so for k < 0
    written = np.maximum(end, k) * 22 + np.where(end > k, k + 4, 21.0)
    words += patterns.take(written.astype(np.int64), axis=1)
    words[4, 0] += 44 << 56  # the comma after a lower float, in its last byte
    return python, words


def rows(heads: list[str], tails: np.ndarray, x: np.ndarray):
    """Per head, its rows ``head + tail + "lower,upper\\r\\n"`` as one
    string, a row for each row of ``tails`` (NUL-padded uint8, each ending in
    a comma); ``x[0]`` holds the lower floats of every head's rows in turn,
    ``x[1]`` the upper ones."""
    x = x.reshape(2, -1)
    python, words = _words(x)
    heads = np.array([head.encode() for head in heads])  # NUL-padded
    h, t = heads.itemsize, heads.itemsize + tails.shape[1]
    start = t + -t % 8  # the slots start on a word
    block = np.zeros((len(heads), len(tails), start + 88), np.uint8)  # two slots and CRLF
    block[..., :h] = heads.view(np.uint8).reshape(-1, 1, h)
    block[..., h:t] = tails
    block.view(np.int64)[..., -1] = _CRLF
    block.view(np.int64)[..., start // 8:-1].reshape(-1, 2, 5).transpose(2, 1, 0)[...] = words
    del words  # the block holds them now, through every state it yields
    data = block.reshape(-1).data
    for j in np.flatnonzero(python).tolist():
        half, row = divmod(j, x.shape[1])
        column = row * (start + 88) + start + 40 * half
        data[column:column + 39] = (b"%.17g" % x[half, row]).ljust(39, b"\0")
    half = len(tails) // 2  # whole, a state's bytes and their translation would outweigh the words
    for state in block:
        yield (state[:half].tobytes().translate(None, _DELETE)
               + state[half:].tobytes().translate(None, _DELETE)).decode()


def state_rows(points):
    """Per ``(head, state)`` point, its rows (head, component, alpha, lower,
    upper) as one string.  The row tails are formatted once, from the first
    state: every later state must have its grid and component count."""
    tails = None
    heads = []
    for head, value in points:
        if tails is None:
            grid, n = value.grid, value.n
            tails = np.array([b",%d,%.17g," % (c, alpha) for c in range(n) for alpha in grid.levels.tolist()])
            tails = tails.view(np.uint8).reshape(tails.size, -1)
            x = np.empty((2, -(-_BATCH_FLOATS // (2 * len(tails))), n, grid.m))  # a call's states
        elif value.n != n:
            raise DimensionMismatchError(f"a state has {value.n} components, the first {n}")
        elif not grid.matches(value.grid):
            raise GridMismatchError("a state lives on another alpha grid than the first")
        x[0, len(heads)] = value.lower
        x[1, len(heads)] = value.upper
        heads.append(head)
        if len(heads) == x.shape[1]:
            yield from rows(heads, tails, x)
            heads = []
    if heads:
        yield from rows(heads, tails, x[:, :len(heads)])
