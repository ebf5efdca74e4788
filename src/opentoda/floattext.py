"""Rows of float64 numbers as the exact text Python prints for them.

`write_rows` writes a float64 block, one row at a time, with every number
printed as `'%.17g' %` prints it (style "csv": 17 significant digits) or as
json's encoder prints it (style "json": `float.__repr__`, the shortest
digits that read back to the same double, and NaN, Infinity, -Infinity).
The bytes are those Python writes. BLOCK numbers are converted per numpy
pass, so the temporaries stay small whatever the size of the block.

Digits. For a finite x with 1e-270 <= |x| < 1e270, e10 = floor(log10|x|)
and y = |x| 10^(16 - e10) lies in [1e16, 1e17). y is formed as a
double-double: Dekker's exact two-product of |x| with the double nearest
10^q, plus |x| times the rounding remainder of 10^q, both taken from a
table that is built from Python integers on first use. Its absolute error
is below 1e-14, against a digit spacing of 1 (Gay, "Correctly rounded
binary-decimal and decimal-binary conversions", 1990, and Adams, "Ryu",
PLDI 2018, do the same with exact integers). The 17-digit significand is y
rounded to an integer ("csv"). The shortest significand ("json") has the
fewest digits D among the decimals inside the interval of reals that round
to x: half a gap to each neighbouring double, the lower half-gap halved at
a power of two. Of the two D-digit candidates next to y, the one inside is
taken, or the nearer when both are. A candidate inside at D digits stays
inside at D + 1, so after testing 16 and 15 digits for every number the
kernel bisects the rest over 1..15.

Certification. A number is handed to Python's own formatter, and its text
spliced into the block, when it is not finite, when |x| lies outside
[1e-270, 1e270), or when a decision above was closer than _TOL to a
rounding tie or to an interval end (whether an end belongs to the interval
depends on the parity of x's significand, which the kernel leaves to
Python). The kernel prints zeros itself.

Layout. Each number owns a slot of _SLOT bytes: a sign, the "0.000" prefix
of a fixed-point number below 1, 17 digits and a decimal point, and an
exponent "e+XXX". A zero byte marks a slot position that is not printed.
The slots are computed as planes (byte s of every slot in a row) and
copied into a row template between constant separators; one boolean
compaction of the block then joins everything.
"""

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Numbers formatted per numpy pass; a block of 4096 keeps the temporaries
# near 1 MB.
BLOCK = 4096

_SLOT = 29
_SIGN, _PREFIX, _DIGITS, _EXPONENT = 0, 1, 6, 24

# The range of |x| the digit core takes; the table below and the splitting
# in _scaled stay finite and normal inside it.
_LOW, _HIGH = 1e-270, 1e270
# Exponents q = 16 - e10 of the table of powers of ten.
_Q0, _Q1 = -256, 290
# Dekker's splitting constant, 2^27 + 1.
_SPLIT = 134217729.0
# Distance, in units of the 17th significant digit, below which a rounding
# decision is not certified; the error of y is below 1e-14.
_TOL = 1e-9

_POW10 = 10 ** np.arange(18, dtype=np.int64)
_E16, _E17 = _POW10[16], _POW10[17]
# Characters that stand for long separators in a row template.
_MARKS = "\x01\x02\x03\x04\x05\x06\x07\x08"


@functools.cache
def _powers():
    """(hi, lo, hi_big, hi_small) of 10^q for q in [_Q0, _Q1]: hi is the
    double nearest 10^q, lo the double nearest 10^q - hi, and hi_big +
    hi_small the halves of hi for Dekker's product. Only Python integers
    are used, whose conversions and true divisions round correctly."""
    hi, lo = [], []
    for q in range(_Q0, _Q1 + 1):
        if q >= 0:
            p = 10**q
            h = float(p)
            r = float(p - int(h))
        else:
            d = 10**-q
            h = 1 / d
            num, den = h.as_integer_ratio()
            r = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(r)
    hi, lo = np.array(hi), np.array(lo)
    t = hi * _SPLIT
    big = t - (t - hi)
    table = hi, lo, big, hi - big
    for column in table:
        column.setflags(write=False)
    return table


def _scaled(a, e10):
    """Double-double (p, e) of a 10^(16 - e10): p = fl(a hi) and e the sum
    of the exact error of that product and a lo."""
    hi, lo, big, small = _powers()
    i = (16 - _Q0) - e10
    p = a * hi.take(i)
    a_big = a * _SPLIT
    a_big -= a_big - a
    a_small = a - a_big
    h_big = big.take(i)
    h_small = small.take(i)
    # ((a_big h_big - p) + a_big h_small + a_small h_big) + a_small h_small
    e = a_big * h_big
    e -= p
    a_big *= h_small
    e += a_big
    h_big *= a_small
    e += h_big
    a_small *= h_small
    e += a_small
    del a_big, a_small, h_big, h_small
    e += a * lo.take(i)
    return p, e


def _significand(a, shortest):
    """(S, e10, sure) of positive doubles a inside [_LOW, _HIGH): the
    decimal significand S in [1e16, 1e17) as int64, so that the printed
    digits are those of S 10^(e10 - 16), and whether every rounding
    decision was certified."""
    e10 = np.log10(a)
    e10 = np.floor(e10, out=e10).astype(np.int64)
    p, e = _scaled(a, e10)
    # log10 rounds, so e10 may be one off where y left [1e16, 1e17)
    fix = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if fix.size:
        pf, ef = p[fix], e[fix]
        shift = ((pf > 1e17) | ((pf == 1e17) & (ef >= 0))).astype(np.int64)
        shift -= (pf < 1e16) | ((pf == 1e16) & (ef < 0))
        e10[fix] += shift
        p[fix], e[fix] = _scaled(a[fix], e10[fix])
    # y = N + f with N an integer and 0 <= f < 1
    floor = np.floor(e)
    N = p.astype(np.int64)
    N += floor.astype(np.int64)
    f = np.subtract(e, floor, out=e)
    del floor
    if shortest:
        S, sure = _shortest(a, p, N, f)
    else:
        del p
        sure = np.abs(f - 0.5) > _TOL
        S = N
        S += f > 0.5
    carry = S == _E17
    S[carry] = _E16
    e10 += carry
    return S, e10, sure


def _shortest(a, p, N, f):
    """(S, sure): the significand of the shortest digits inside the
    rounding interval of a, the nearer of two when both are.

    In units of the 17th digit the interval is [y - h_down, y + h_up] with
    y = N + f, and [L, U] are the integers inside it. The half-gaps lie
    in [0.55, 11.2], so U - L < 23.
    """
    # a = r 2^k with 1/2 <= r < 1: half the gap to the next double up is
    # 2^(k - 54), which is y / (r 2^54) in units of the 17th digit
    r, _ = np.frexp(a)
    h = np.divide(p, r)
    h *= 2.0**-54
    # an interval end within _TOL of an integer may or may not admit it
    edge = f + h
    U = np.floor(edge)
    edge -= U
    sure = (edge > _TOL) & (edge < 1 - _TOL)
    U = U.astype(np.int64)
    U += N
    # the gap below a power of two is half as wide
    h[r == 0.5] *= 0.5
    del r
    edge = np.subtract(f, h, out=h)
    L = np.floor(edge)
    edge -= L
    sure &= (edge > _TOL) & (edge < 1 - _TOL)
    L = L.astype(np.int64)
    L += N
    L += 1
    del edge, h
    # most doubles need 16 or 17 digits; bisect the rest over 1..15
    tens = U // 10
    D = 17 - (tens * 10 >= L)
    tens //= 10
    tens *= 100
    D -= tens >= L
    del tens
    short = np.flatnonzero(D == 15)
    if short.size:
        Ls, Us = L[short], U[short]
        lo = np.ones(short.size, dtype=np.int64)
        hi = np.full(short.size, 15, dtype=np.int64)
        for _ in range(4):
            mid = (lo + hi) >> 1
            # a multiple of 10^(17 - mid) lies in [L, U]
            ok = Us - Us % _POW10[17 - mid] >= Ls
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid + 1)
        D[short] = hi
    d = _POW10.take(17 - D)
    del D
    R = N % d
    low = np.subtract(N, R, out=N)
    below = R + f
    del R
    inside_below = low >= L
    del L
    both = low + d <= U
    both &= inside_below
    del U
    above = d - below
    sure &= ~(both & (np.abs(below - above) < _TOL))
    up = both & (above < below)
    up |= ~inside_below
    d *= up
    low += d
    return low, sure


def _fallback(x, style):
    """Python's own text of the float x in the given style."""
    if style == "csv":
        return "%.17g" % x
    if x != x:
        return "NaN"
    if x in (np.inf, -np.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


_PREFIX_BYTES = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_ROW5 = np.arange(5)[:, None]
_ROW17 = np.arange(1, 18, dtype=np.int8)[:, None]
_ROW18 = np.arange(18, dtype=np.int8)[:, None]


def _planes(x, style):
    """Slot bytes of the flat float64 array x as planes: row s of the
    (_SLOT, x.size) uint8 result holds byte s of every slot, and a zero
    byte is not printed."""
    a = np.abs(x)
    other = (a < _LOW) | ~(a < _HIGH)
    zero = a == 0
    # the other numbers are printed by _fallback or as zeros; 2.0 keeps
    # them off the powers of ten that _significand looks at twice
    a[other] = 2.0
    S, e10, sure = _significand(a, style == "json")
    del a
    sure &= ~other
    sure |= zero
    S[other] = 0
    e10[other] = 0
    del other, zero

    out = np.zeros((_SLOT, x.size), dtype=np.uint8)
    out[_SIGN, np.signbit(x)] = ord("-")

    # the 17 digits of S: the first one, then two halves of 8
    digits = np.empty((17, x.size), dtype=np.uint8)
    head = S // 10**8
    v = np.empty((2, x.size), dtype=np.uint32)
    v[1] = S - head * 10**8
    del S
    digits[0] = head // 10**8
    v[0] = head % 10**8
    del head
    q = np.empty_like(v)
    for k in range(8, 0, -1):
        np.floor_divide(v, 10, out=q)
        v -= q * 10
        digits[k::8] = v
        v, q = q, v
    del v, q
    # nd digits up to the last nonzero one, 0 for a zero
    nd = (_ROW17 * (digits != 0)).max(axis=0)

    # '%.17g' writes 1e16 in full and repr writes it as 1e+16
    exp = (e10 < -4) | (e10 >= (17 if style == "csv" else 16))
    small = ~exp & (e10 < 0)
    # P is the slot of the decimal point among the 18 digit slots, nv the
    # number of digits shown; repr ends a whole number in ".0"
    P = np.where(exp, 1, np.where(small, 18, e10 + 1)).astype(np.int8)
    nv = np.where(exp | small, np.maximum(nd, 1), np.maximum(nd, P + (style == "json")))
    del nd

    prefix = out[_PREFIX:_DIGITS]
    prefix[:] = _PREFIX_BYTES
    prefix *= small & (_ROW5 < 1 - e10)

    body = out[_DIGITS:_EXPONENT]
    body[:17] = digits
    after = _ROW18 > P
    np.copyto(body[1:], digits, where=after[1:])
    del digits
    body += ord("0")
    np.copyto(body, ord("."), where=_ROW18 == P)
    body *= _ROW18 < nv + after
    del after

    mag = np.abs(e10)
    tail = out[_EXPONENT:]
    tail[0] = ord("e")
    tail[1] = np.where(e10 < 0, ord("-"), ord("+"))
    tail[2] = (mag // 100 + ord("0")) * (mag >= 100)
    tail[3] = mag // 10 % 10 + ord("0")
    tail[4] = mag % 10 + ord("0")
    tail *= exp

    for i in np.flatnonzero(~sure):
        text = _fallback(float(x[i]), style).encode()
        out[:, i] = 0
        out[: len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return out


def _template(lead, seps):
    """(template, runs, long) of a row: lead, then a _SLOT of zeros and
    seps[j] for each column j. runs lists [j0, j1, offset, size] for
    columns j0..j1 - 1 whose slots start at offset, size bytes apart. A
    separator longer than a slot (the frozen columns' text) stands in the
    template as one of _MARKS, and long maps its text to that mark."""
    long = {}

    def segment(text):
        if len(text) > _SLOT and (text in long or len(long) < len(_MARKS)):
            text = long.setdefault(text, _MARKS[len(long)])
        return text.encode("ascii")

    template = bytearray(segment(lead))
    runs = []
    for j, sep in enumerate(seps):
        sep = segment(sep)
        size = _SLOT + len(sep)
        if runs and runs[-1][3] == size:
            runs[-1][1] = j + 1
        else:
            runs.append([j, j + 1, len(template), size])
        template += bytes(_SLOT) + sep
    return np.frombuffer(template, dtype=np.uint8), runs, long


def _text(values, row, style):
    """The rows of the 2-D float64 array values laid out in the _template
    row, as one string."""
    template, runs, long = row
    rows = len(values)
    planes = _planes(values.ravel(), style).reshape(_SLOT, rows, -1)
    buf = np.empty((rows, template.size), dtype=np.uint8)
    buf[:] = template
    for j0, j1, offset, size in runs:
        view = as_strided(buf[:, offset:], (rows, j1 - j0, _SLOT), (buf.strides[0], size, 1))
        view[...] = planes[:, :, j0:j1].transpose(1, 2, 0)
    del planes, view
    buf = buf[buf != 0]
    text = str(buf.data, "ascii")
    del buf
    for sep, mark in long.items():
        text = text.replace(mark, sep)
    return text


def write_rows(stream, columns, seps, style, lead="", end=None):
    """Write the rows of a float64 block to the text stream.

    columns holds 1-D arrays (one column each) and 2-D arrays (their
    columns), all with the same number of rows, side by side. Row i is
    written as lead, then each number of the row followed by its
    separator seps[j]; the separator after the last number of the last row
    is end instead, when end is given. style is "csv" or "json" (see the
    module docstring). Separators and lead are ASCII and hold no control
    character but newline.

    Rows go BLOCK // width at a time, and a row wider than BLOCK numbers
    goes in pieces of BLOCK columns.
    """
    columns = [c[:, None] if c.ndim == 1 else c for c in columns]
    rows = len(columns[0])
    width = sum(c.shape[1] for c in columns)
    if len(seps) != width:
        raise ValueError("need one separator per column")
    pieces = [
        (j, _template(lead if j == 0 else "", seps[j : j + BLOCK]))
        for j in range(0, width, BLOCK)
    ]
    step = max(1, BLOCK // width)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        values = np.concatenate([c[lo:hi] for c in columns], axis=1)
        for j, row in pieces:
            text = _text(values[:, j : j + BLOCK], row, style)
            if hi == rows and j + BLOCK >= width and end is not None:
                text = text[: len(text) - len(seps[-1])] + end
            stream.write(text)
