"""The text `repr` writes for float64 arrays and `str` for int64 arrays, in numpy integer arithmetic.

`float_cells(x)` gives each element's `repr(float(v))` and `int_cells(v)`
each element's `str(int(v))`, as the rows of a uint8 matrix of ASCII bytes:
a row holds the text left-aligned, and `PAD` fills the rest. `PAD` (0xFF) is
never a byte of UTF-8 text, so deleting it from the matrix's bytes leaves the
texts run together. Nothing here makes a Python object per element, and the
bytes are the same on every CPU: every step is an integer operation.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal in the interval of reals that round to
the double, and of those the closest, with ties to an even last digit. That
is the decimal `repr` writes. Schubfach scales the binary significand by a
126-bit approximation of 10**-k: three products with 64-bit operands (the
significand and its interval's ends), rounded to odd; here each 64 x 64-bit
product is built from 32-bit halves in uint64 lanes. Java's version of the algorithm keeps at least two digits, which
`repr` does not: it tries the one-digit-shorter decimal only from s >= 100,
and it gives a subnormal below 3 ulp a tenfold significand. Here the shorter
decimal is tried from s >= 10, which also strips the digit that the tenfold
significand would add, so that step is dropped as well.

The layout is `repr`'s: positional for 1e-4 <= |x| < 1e16, with ".0" after
an integral value, "0.0" and "-0.0" for the zeros, and otherwise one digit,
the others after a point, and an exponent "e+XX" or "e-XX" of at least two
digits.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

U64 = np.uint64
PAD = 0xFF
WIDTH = 24  # the longest text: "-2.2250738585072014e-308"

# Elements rendered at a time. A piece pays ~150 us of numpy call cost
# however few its elements, and holds ~250 bytes of temporaries an element;
# at 8192 and more the temporaries pass glibc's 128 KB mmap threshold and
# are faulted in anew on each call: `_shortest` took ~1.7x as long at 8192
# as with the threshold raised.
_PIECE = 1 << 12

# Exponents k of the powers 10**-k the scaling uses, over every finite double.
_K_MIN, _K_MAX = -324, 292

# One row of byte sources per element, 28 bytes wide (seven uint32 words):
# byte 0 is PAD, bytes 1-19 the 19 digits of the scaled significand, then
# "-.0e", then the exponent's sign and its three digits.
_ROW = 28
_DIGIT, _MINUS, _POINT, _ZERO, _E, _SIGN, _HUNDREDS, _TENS, _UNITS = 1, 20, 21, 22, 23, 24, 25, 26, 27
_DIGITS = 19

# Layout modes: positional with the point after digit dp = mode - 3 (dp from -3
# to 16), scientific with two or three exponent digits, and an integer.
_SCIENTIFIC, _SCIENTIFIC_3, _INTEGER = 20, 21, 22


def _flog10pow2(e, three_quarters=False):
    """floor(e * log10(2)), or floor(e * log10(2) + log10(3/4)); exact for |e| <= 5456721."""
    return (e * 661971961083 - three_quarters * 274743187321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)), exact for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _template(mode, neg, digits):
    """Byte sources of one layout, PAD after the text."""
    d = [_DIGIT + i for i in range(digits)]
    cell = [_MINUS] * neg
    if mode == _INTEGER:
        cell += d
    elif mode < _SCIENTIFIC:
        dp = mode - 3
        if dp <= 0:
            cell += [_ZERO, _POINT] + [_ZERO] * -dp + d
        elif dp < digits:
            cell += d[:dp] + [_POINT] + d[dp:]
        else:
            cell += d + [_ZERO] * (dp - digits) + [_POINT, _ZERO]
    else:
        exponent = [_HUNDREDS, _TENS, _UNITS] if mode == _SCIENTIFIC_3 else [_TENS, _UNITS]
        cell += d[:1] + ([_POINT] + d[1:] if digits > 1 else []) + [_E, _SIGN] + exponent
    return cell[:WIDTH] + [0] * (WIDTH - len(cell))  # a layout no element takes may overflow


@functools.cache
def _tables():
    """Tables built on first use: the scaling powers, powers of ten, digit groups and layouts.

    Each row is built and stored at once, so that the build leaves no block
    of small Python objects behind to pin the allocator's memory.
    """
    scaling = np.empty((5, _K_MAX - _K_MIN + 1), dtype=U64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        # 10**-k = beta * 2**r with 2**125 <= beta < 2**126, and g = floor(beta) + 1.
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g = num // den + 1
        g1, g0 = g >> 63, g & (2 ** 63 - 1)
        scaling[:, i] = g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF
    pow10 = U64(10) ** np.arange(20, dtype=U64)
    # The four ASCII digits of each group 0-9999, as one uint32.
    digits = (np.arange(10 ** 4, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10)
    groups = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    # ends[i][g]: the digits of the sources up to the last nonzero one of group g
    # in word i (byte 4i to 4i + 3, digits 4i - 1 to 4i + 2), or 0.
    last = (4 - np.argmax(digits[:, ::-1] != 0, axis=1)).astype(np.int16) * digits.any(axis=1)
    ends = np.where(last > 0, last + np.arange(-1, 16, 4, dtype=np.int16)[:, None], 0).astype(np.uint8)
    layouts = np.zeros(((_INTEGER + 1) * 2 * _DIGITS, WIDTH), dtype=np.uint8)
    for row, (mode, neg, count) in enumerate(itertools.product(range(_INTEGER + 1), (0, 1), range(1, _DIGITS + 1))):
        layouts[row] = _template(mode, neg, count)
    lengths = (layouts != 0).sum(axis=1)
    constants = np.frombuffer(b"-.0e", dtype=np.uint32)[0]
    return scaling, pow10, groups, ends, layouts, lengths, constants


def _rop(g, cp):
    """floor(g cp / 2**127) rounded to odd, g = g1 2**63 + g0 from `scaling` rows.

    As Java's DoubleToDecimal.rop: x1 = hi64(g0 cp), z = (lo64(g1 cp) >> 1) + x1
    and the result is hi64(g1 cp) + (z >> 63), odd if z has any of its lower 63
    bits set. Each hi64(a cp) is ah bh + ((ah bl + al bh + (al bl >> 32)) >> 32)
    over 32-bit halves; with ah < 2**31 and bh < 2**31 the inner sum stays
    below 2**64. The products run in place, as temporaries of this size
    would otherwise be mapped and faulted in anew by the allocator each time.
    """
    g1, g1h, g1l, g0h, g0l = g
    s32 = U64(32)
    bh = cp >> s32
    bl = cp & U64(0xFFFFFFFF)
    t = np.empty_like(cp)

    def hi64(ah, al):
        mid = ah * bl
        mid += np.multiply(al, bh, out=t)
        np.multiply(al, bl, out=t)
        mid += np.right_shift(t, s32, out=t)
        mid >>= s32
        mid += np.multiply(ah, bh, out=t)
        return mid

    z = hi64(g0h, g0l)
    z += np.right_shift(np.multiply(g1, cp, out=t), U64(1), out=t)
    v = hi64(g1h, g1l)
    v += np.right_shift(z, U64(63), out=t)
    mask63 = U64(2 ** 63 - 1)
    z &= mask63
    z += mask63
    z >>= U64(63)
    v |= z
    return v


def _shortest(bits, scaling):
    """(f, k) with f 10**k the shortest closest decimal of each nonzero finite double's bits.

    f may end in zeros.
    """
    one, two = U64(1), U64(2)
    bq = (bits >> U64(52)) & U64(0x7FF)
    t = bits & U64(2 ** 52 - 1)
    c = np.where(bq != 0, t | U64(2 ** 52), t)
    q = np.maximum(bq.astype(np.int64), 1) - 1075  # a subnormal shares the exponent of bq = 1
    irregular = (t == 0) & (bq > 1)  # the least significand of a binade: a narrower gap below
    k = _flog10pow2(q, irregular)
    h = (q + _flog2pow10(-k) + 2).astype(U64)
    cp = np.empty((3, len(bits)), dtype=U64)
    cb = np.left_shift(c, two, out=cp[1])
    np.subtract(cb, np.where(irregular, one, two), out=cp[0])
    np.add(cb, two, out=cp[2])
    cp <<= h
    vbl, vb, vbr = _rop(scaling[:, k - _K_MIN], cp)
    out = c & one  # an odd significand excludes the interval's ends
    lo, hi = vbl + out, vbr - out  # u 10**k lies in the interval iff lo <= 4u, and w 10**k iff 4w <= hi
    s = vb >> two
    s4 = s << two
    # The one-digit-shorter decimals around s 10**k: sp10 below, sp10 + 10 above.
    sp10 = (s // U64(10)) * U64(10)
    upin = lo <= sp10 << two
    shorter = (s >= U64(10)) & (upin != (((sp10 + U64(10)) << two) <= hi))
    uin = lo <= s4
    # Both s and s + 1 in the interval: the closer to v, an even s on a tie.
    closer = vb + (s & one) < s4 + U64(3)
    longer = s + ~np.where(uin != (s4 + U64(4) <= hi), uin, closer)
    return np.where(shorter, sp10 + ~upin * U64(10), longer), k


def float_cells(x):
    """`repr` of each element of the finite float64 array `x`: uint8 rows, PAD after each text."""
    return _in_pieces(np.ascontiguousarray(x, dtype=np.float64).view(U64), _float_piece)


def int_cells(v):
    """`str` of each element of the int64 array `v`: uint8 rows, PAD after each text."""
    return _in_pieces(np.ascontiguousarray(v, dtype=np.int64).view(U64), _int_piece)


def _in_pieces(bits, render):
    """`render` over pieces of at most _PIECE elements, so that its temporaries stay small."""
    if len(bits) <= _PIECE:
        return render(bits)
    size = -(-len(bits) // -(-len(bits) // _PIECE))  # equal pieces, so none pays numpy's per-call cost alone
    cells = np.full((len(bits), WIDTH), PAD, dtype=np.uint8)
    width = 1
    for start in range(0, len(bits), size):
        piece = render(bits[start:start + size])
        cells[start:start + len(piece), :piece.shape[1]] = piece
        width = max(width, piece.shape[1])
    return cells[:, :width]


def _float_piece(bits):
    scaling, pow10, groups, ends, layouts, lengths, constants = _tables()
    neg = (bits >> U64(63)).astype(np.intp)
    magnitude = bits & U64(2 ** 63 - 1)
    zero = magnitude == 0
    f, k = _shortest(magnitude, scaling)
    f[zero] = 0
    count, sources, significant = _digit_rows(f, pow10, groups, constants, ends)
    dp = np.where(zero, 1, count + k)  # the point's place: f 10**k = 0.ddd 10**dp, count digits d
    exponent = dp - 1
    abs_exponent = np.abs(exponent)
    sources.view(np.uint32)[:, 6] = groups[abs_exponent]  # "0" and three digits; the "0" becomes the sign
    sources[:, _SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    mode = np.where((dp + 3).astype(U64) < _SCIENTIFIC, dp + 3, _SCIENTIFIC + (abs_exponent >= 100))
    return _gather(sources, (mode * 2 + neg) * _DIGITS + np.maximum(significant, 1) - 1, layouts, lengths)


def _int_piece(bits):
    _, pow10, groups, ends, layouts, lengths, constants = _tables()
    neg = (bits >> U64(63)).astype(np.intp)
    magnitude = np.where(neg == 1, ~bits + U64(1), bits)  # two's complement, so -2**63 too
    count, sources, _ = _digit_rows(magnitude, pow10, groups, constants, ends)
    return _gather(sources, (_INTEGER * 2 + neg) * _DIGITS + count - 1, layouts, lengths)


def _digit_rows(u, pow10, groups, constants, ends):
    """(digit counts, byte sources, digits up to the last nonzero one) of the magnitudes `u` < 10**19.

    The exponent bytes of the sources are unset.
    """
    count = np.searchsorted(pow10[1:], u, side="right") + 1  # 1 for 0
    u = u * pow10[_DIGITS - count]  # left-aligned in 19 digits
    hi = u // U64(10 ** 16)
    lo = u - hi * U64(10 ** 16)
    a = lo // U64(10 ** 8)
    b = lo - a * U64(10 ** 8)
    a1, b1 = a // U64(10 ** 4), b // U64(10 ** 4)
    parts = [part.astype(np.intp) for part in (hi, a1, a - a1 * U64(10 ** 4), b1, b - b1 * U64(10 ** 4))]
    words = np.empty((len(u), _ROW // 4), dtype=np.uint32)
    for i, part in enumerate(parts):
        words[:, i] = groups[part]
    words[:, 5] = constants
    sources = words.view(np.uint8)
    sources[:, 0] = PAD
    significant = ends[0][parts[0]]
    for table, part in zip(ends[1:], parts[1:]):
        np.maximum(significant, table[part], out=significant)
    return count, sources, significant


def _gather(sources, key, layouts, lengths):
    """Each row's text: its layout's bytes taken from its row of `sources`, as wide as the longest."""
    width = int(lengths[key].max(initial=1))
    index = layouts[:, :width].take(key, axis=0) + (np.arange(len(key)) * _ROW)[:, None]
    return sources.ravel().take(index)
