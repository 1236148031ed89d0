"""The text of float64 arrays, byte for byte repr(float(v)), in numpy passes.

repr writes the shortest decimal that reads back to the same double, the
nearest one when several are that short (Gay's dtoa, mode 0).  join finds
it without big integers.  For |v| in [LOW, HIGH) that is not a power of
two, one double-double product y = |v| * 10**(16 - e), e = floor(log10|v|),
gives the 17-digit rounding D17 of v and its remainder; the 15- and
16-digit roundings follow from D17 in int64.  The text carries the first
of the 15-, 16- and 17-digit roundings whose remainder lies under half an
ulp of v: the rounding interval is symmetric once powers of two are left
out, and it spans under 23 units of the 17th digit, so it holds at most
one decimal of 15 or fewer digits.  The digits are then laid out as repr
lays them out.

Zeros stay on that path.  NaN, infinities, powers of two, values outside
[LOW, HIGH) and any value whose remainder lies within TIE of a rounding
tie or of the half-ulp bound take repr itself.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: the |v| range of the array path: 10**(16 - e), its Dekker split and the
#: half-ulp scale all stay normal doubles
LOW, HIGH = 1e-280, 1e280
#: in units of the 17th digit; the double-double remainders err by ~1e-14
TIE = 1e-9
SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
#: 16 - e for e = floor(log10|v|) +- 1 over [LOW, HIGH), with a margin
POWERS = range(16 - 282, 16 + 283)
#: the decimal-point positions of [LOW, HIGH), with a margin: v = 0.d1d2... * 10**decpt
DECPTS = range(-290, 291)
MANTISSA = (1 << 52) - 1
EXPONENT_BITS = 0x7FF << 52

# Each value's text is picked out of a 48-byte slot of six little-endian
# words: "-0.000" and two spare bytes; the digits d0..d16, each followed by
# a "." so that the decimal point can follow any of them; "e", the
# exponent's sign and three digits; the separator.  The bytes a text does
# not use are zeroed, then deleted.  A value that takes repr has its whole
# slot zeroed, and its text (at most 24 bytes) and separator written in.
WORD = np.dtype("<u8")
SLOT = 48
DIGIT, EXPONENT, SEPARATOR = 8, 42, 47
LEAD = int.from_bytes(b"-0.000", "little")
#: layout codes: 0-19 the fixed form at decpt -3..16 (code - 3), then the
#: exponent form for exponents -99..-5, <= -100, 16..99 and >= 100
CODES = 24
#: a layout is (negative * CODES + code) * COUNTS + the significant digits
COUNTS = 18


class Tables(NamedTuple):
    hi: np.ndarray  # 10**k rounded, for k in POWERS
    hi_high: np.ndarray  # hi's Dekker split
    hi_low: np.ndarray
    lo: np.ndarray  # 10**k - hi, rounded
    dotted: np.ndarray  # the word "d.d.d.d." of 0000..9999
    zeros: np.ndarray  # trailing zero digits of 0000..9999
    codes: np.ndarray  # layout code * COUNTS, per decpt in DECPTS
    suffixes: np.ndarray  # the last slot word's ".e", sign and exponent, per decpt
    masks: np.ndarray  # 0xFF on the slot bytes that each layout writes


@functools.cache
def _tables() -> Tables:
    """The tables, built once on first use: importing the module builds none."""
    powers = []
    for k in POWERS:
        # 10**k = num/den; int/int true division rounds correctly, and
        # num/den - p/q is exactly (num*q - p*den)/(den*q)
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        high = hi * SPLIT - (hi * SPLIT - hi)
        powers.append((hi, high, hi - high, (num * q - p * den) / (den * q)))
    quads = np.arange(10000, dtype=np.int16)[:, None]
    dotted = np.full((10000, 8), ord("."), np.uint8)
    dotted[:, ::2] = quads // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")
    codes, suffixes = [], []
    for decpt in DECPTS:
        if -3 <= decpt <= 16:
            codes.append(decpt + 3)
        else:
            codes.append(22 + (decpt > 100) if decpt > 0 else 20 + (decpt < -98))
        suffixes.append(b"\0.e%c%03d\0" % (b"+" if decpt > 0 else b"-", abs(decpt - 1)))
    masks = np.zeros((2 * CODES * COUNTS, SLOT), np.uint8)
    for layout, mask in enumerate(masks):
        negative, code = divmod(layout // COUNTS, CODES)
        digits = layout % COUNTS
        if digits:  # no digits writes nothing
            mask[_layout(negative, code, digits)] = 0xFF
    tables = Tables(
        *np.array(powers).T.copy(),
        dotted.view(WORD).ravel(),
        np.count_nonzero(quads % np.array([10, 100, 1000, 10000], np.int16) == 0, axis=1),
        np.array(codes) * COUNTS,
        np.frombuffer(b"".join(suffixes), WORD),
        masks.view(np.dtype((np.void, SLOT))).ravel(),
    )
    for array in tables:
        array.flags.writeable = False
    return tables


def _layout(negative: bool, code: int, digits: int) -> list[int]:
    """The slot bytes of the text of a value with the given sign, layout
    code and count of significant digits, and of its separator."""
    picked = [0] if negative else []
    if code < 20:
        decpt = code - 3
        if decpt <= 0:
            picked += [1, 2, *range(3, 3 - decpt)]
            picked += range(DIGIT, DIGIT + 2 * digits, 2)
        else:
            # the zero digits past the last one pad an integer to "<digits>.0"
            end = max(digits, decpt + 1)
            picked += [*range(DIGIT, DIGIT + 2 * end, 2), DIGIT + 2 * decpt - 1]
    else:
        picked += range(DIGIT, DIGIT + 2 * digits, 2)
        if digits > 1:
            picked.append(DIGIT + 1)
        exponent_digits = 3 if code % 2 else 2
        picked += [EXPONENT, EXPONENT + 1, *range(SEPARATOR - exponent_digits, SEPARATOR)]
    return [*picked, SEPARATOR]


def join(values: np.ndarray, separators: np.ndarray) -> bytes:
    """repr(float(v)) of each value, each followed by its separator: a
    nonzero byte of a uint8 array of the same length."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    separators = np.asarray(separators, dtype=np.uint8).ravel()
    if len(separators) != len(values) or not separators.all():
        raise ValueError(f"{len(values)} values need as many nonzero separator bytes")
    tables = _tables()
    negative = values.view(np.int64) < 0
    magnitude = np.abs(values)
    zero = magnitude == 0.0
    regular = (magnitude >= LOW) & (magnitude < HIGH)
    regular &= (magnitude.view(np.int64) & MANTISSA) != 0
    # 1.5 stands in for the rest, whose text is settled below
    padded, decpt, unsure = _shortest(np.where(regular, magnitude, 1.5), tables)
    padded[zero] = 0
    slots, digits = _slots(padded, decpt, separators, tables)
    layout = tables.codes[decpt] + digits
    layout[zero] = 4 * COUNTS + 1  # "0.0": decpt 1, one digit
    layout += negative * (CODES * COUNTS)
    fallback = ~zero & (unsure | ~regular)
    layout[fallback] = 0  # writes nothing
    # take gathers the 48-byte void rows faster than indexing does
    slots &= np.take(tables.masks, layout).view(WORD).reshape(slots.shape)
    raw = memoryview(slots.ravel()).cast("B")  # the slots, byte by byte
    for i in np.flatnonzero(fallback).tolist():
        text = repr(float(values[i])).encode()
        raw[SLOT * i : SLOT * i + len(text)] = text
        raw[SLOT * i + SEPARATOR] = separators[i]
    return slots.tobytes().translate(None, b"\0")


def _shortest(magnitude: np.ndarray, tables: Tables):
    """The shortest rounding of each magnitude, padded with zeros to 17
    digits; the index in DECPTS of its decimal point; and whether a tie or
    the half-ulp bound lies within TIE of a remainder."""
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    y, remainder = _scaled(magnitude, exponent, tables)
    # floor(log10) is off by one next to the powers of ten: y must lie in
    # [1e16, 1e17), which compares both parts of the double-double
    below = (y < 1e16) | ((y == 1e16) & (remainder < 0))
    above = (y > 1e17) | ((y == 1e17) & (remainder >= 0))
    if below.any() or above.any():
        exponent += above.astype(np.int64) - below
        fix = below | above
        y[fix], remainder[fix] = _scaled(magnitude[fix], exponent[fix], tables)

    # half an ulp of the value in units of the 17th digit, 1.1 to 11.1: exact
    # products of 10**(16 - exponent) and powers of two
    half_ulp = (magnitude.view(np.int64) & EXPONENT_BITS).view(np.float64)
    half_ulp *= tables.hi[16 - exponent - POWERS.start]
    half_ulp *= 2.0**-53
    nearest = np.rint(remainder)
    r17 = remainder - nearest
    d17 = y.astype(np.int64) + nearest.astype(np.int64)
    q16 = d17 // 10
    t16 = (d17 - 10 * q16) + r17
    up16 = t16 >= 5.0
    r16 = np.abs(t16 - 10.0 * up16)
    q15 = d17 // 100
    t15 = (d17 - 100 * q15) + r17
    up15 = t15 >= 50.0
    r15 = np.abs(t15 - 100.0 * up15)
    unsure = np.abs(r15 - half_ulp) < TIE
    unsure |= np.abs(r16 - half_ulp) < TIE
    unsure |= np.abs(t16 - 5.0) < TIE
    unsure |= np.abs(np.abs(r17) - 0.5) < TIE
    padded = np.where(r16 < half_ulp, (q16 + up16) * 10, d17)
    padded = np.where(r15 < half_ulp, (q15 + up15) * 100, padded)
    carry = padded == 10**17  # rounded up to a new leading digit
    padded[carry] = 10**16
    return padded, exponent + 1 + carry - DECPTS.start, unsure


def _slots(padded: np.ndarray, decpt: np.ndarray, separators: np.ndarray, tables: Tables):
    """The slot words of each value, and the count of its significant digits."""
    slots = np.empty((len(padded), SLOT // 8), WORD)
    slots[:, 0] = LEAD
    rest = padded // 10
    last = padded - 10 * rest
    zeros = last == 0
    trailing = zeros.astype(np.int64)
    for word in (4, 3, 2):
        quad = rest - 10000 * (rest := rest // 10000)
        slots[:, word] = tables.dotted[quad]
        trailing += zeros * tables.zeros[quad]
        zeros &= quad == 0
    slots[:, 1] = tables.dotted[rest]
    trailing += zeros * tables.zeros[rest]
    slots[:, 5] = tables.suffixes[decpt] | (last + ord("0")).astype(WORD)
    slots[:, 5] |= separators.astype(WORD) << 56
    return slots, 17 - trailing


def _scaled(magnitude: np.ndarray, exponent: np.ndarray, tables: Tables):
    """magnitude * 10**(16 - exponent) as a normalized double-double: the
    Dekker product with hi, plus magnitude * lo."""
    k = 16 - exponent - POWERS.start
    scaled = magnitude * SPLIT
    high = scaled - (scaled - magnitude)
    low = magnitude - high
    hi, hi_high, hi_low = tables.hi[k], tables.hi_high[k], tables.hi_low[k]
    product = magnitude * hi
    error = ((high * hi_high - product) + high * hi_low + low * hi_high) + low * hi_low
    error += magnitude * tables.lo[k]
    y = product + error
    return y, error - (y - product)
