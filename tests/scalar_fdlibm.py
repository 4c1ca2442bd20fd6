"""fdlibm's expm1, exp and log (Sun Microsystems, 1993: s_expm1.c, e_exp.c,
e_log.c) transcribed statement for statement on Python floats, kept as the
oracle of ``ball``'s port.

The transcription keeps the C code's own shape: branches on the high and low
32-bit words, the constants as hex bit patterns, exponent arithmetic on the
high word, and every branch and shortcut the port folds together (the
separate k = -1 reduction of expm1 and exp, the k == 0 and f == 0 forms of
log). Only the branches for the drag law's domain are kept: x <= 0 for
expm1 and exp, x > 0 for log.
"""

import struct


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _hi(x: float) -> int:
    """The high word as a C int: signed."""
    h = _bits(x) >> 32
    return h - (1 << 32) if h & 0x80000000 else h


def _lo(x: float) -> int:
    return _bits(x) & 0xFFFFFFFF


def _set_hi(x: float, hi: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", ((hi & 0xFFFFFFFF) << 32) | _lo(x)))[0]


def _hex(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


one, huge, tiny = 1.0, 1.0e300, 1.0e-300
ln2_hi = _hex(0x3FE62E42FEE00000)
ln2_lo = _hex(0x3DEA39EF35793C76)
invln2 = _hex(0x3FF71547652B82FE)
Q1, Q2, Q3, Q4, Q5 = (_hex(0xBFA11111111110F4), _hex(0x3F5A01A019FE5585), _hex(0xBF14CE199EAADBB7),
                      _hex(0x3ED0CFCA86E65239), _hex(0xBE8AFDB76E09C32D))
P1, P2, P3, P4, P5 = (_hex(0x3FC555555555553E), _hex(0xBF66C16C16BEBD93), _hex(0x3F11566AAF25DE2C),
                      _hex(0xBEBBBD41C5D26BF1), _hex(0x3E66376972BEA4D0))
u_threshold = _hex(0xC0874910D52D3051)
twom1000 = _hex(0x0170000000000000)
two54 = _hex(0x4350000000000000)
Lg1, Lg2, Lg3, Lg4, Lg5, Lg6, Lg7 = (
    _hex(0x3FE5555555555593), _hex(0x3FD999999997FA04), _hex(0x3FD2492494229359),
    _hex(0x3FCC71C51D8E78AF), _hex(0x3FC7466496CB03DE), _hex(0x3FC39A09D078C69F),
    _hex(0x3FC2F112DF3E5244))


def expm1(x: float) -> float:
    hx = _hi(x) & 0x7FFFFFFF  # x <= 0: the sign bit is set
    if hx >= 0x4043687A:  # |x| >= 56 ln2
        if hx >= 0x7FF00000:
            return x + x if (hx & 0xFFFFF) | _lo(x) else -1.0
        if x + tiny < 0.0:
            return tiny - one
    if hx > 0x3FD62E42:  # |x| > 0.5 ln2
        if hx < 0x3FF0A2B2:  # and |x| < 1.5 ln2
            hi, lo, k = x + ln2_hi, -ln2_lo, -1
        else:
            k = int(invln2 * x + -0.5)
            t = float(k)
            hi = x - t * ln2_hi
            lo = t * ln2_lo
        x = hi - lo
        c = (hi - x) - lo
    elif hx < 0x3C900000:  # |x| < 2**-54
        t = huge + x
        return x - (t - (huge + x))
    else:
        k = 0
    hfx = 0.5 * x
    hxs = x * hfx
    r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))))
    t = 3.0 - r1 * hfx
    e = hxs * ((r1 - t) / (6.0 - x * t))
    if k == 0:
        return x - (x * e - hxs)
    e = (x * (e - c) - c)
    e -= hxs
    if k == -1:
        return 0.5 * (x - e) - 0.5
    y = one - (e - x)  # k <= -2
    y = _set_hi(y, _hi(y) + (k << 20))
    return y - one


def exp(x: float) -> float:
    hx = _hi(x) & 0x7FFFFFFF  # x <= 0: xsb = 1
    if hx >= 0x40862E42:
        if hx >= 0x7FF00000:
            return x + x if (hx & 0xFFFFF) | _lo(x) else 0.0
        if x < u_threshold:
            return twom1000 * twom1000
    if hx > 0x3FD62E42:
        if hx < 0x3FF0A2B2:
            hi, lo, k = x - -ln2_hi, -ln2_lo, -1
        else:
            k = int(invln2 * x + -0.5)
            t = float(k)
            hi = x - t * ln2_hi
            lo = t * ln2_lo
        x = hi - lo
    elif hx < 0x3E300000:
        if huge + x > one:
            return one + x
    else:
        k = 0
    t = x * x
    c = x - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))))
    if k == 0:
        return one - ((x * c) / (c - 2.0) - x)
    y = one - ((lo - (x * c) / (2.0 - c)) - hi)
    if k >= -1021:
        return _set_hi(y, _hi(y) + (k << 20))
    y = _set_hi(y, _hi(y) + ((k + 1000) << 20))
    return y * twom1000


def log(x: float) -> float:
    hx, lx = _hi(x), _lo(x)
    k = 0
    if hx < 0x00100000:  # x < 2**-1022
        if ((hx & 0x7FFFFFFF) | lx) == 0:
            return float("-inf")
        k -= 54
        x *= two54
        hx = _hi(x)
    if hx >= 0x7FF00000:
        return x + x
    k += (hx >> 20) - 1023
    hx &= 0x000FFFFF
    i = (hx + 0x95F64) & 0x100000
    x = _set_hi(x, hx | (i ^ 0x3FF00000))  # normalize x or x/2
    k += i >> 20
    f = x - 1.0
    if (0x000FFFFF & (2 + hx)) < 3:  # |f| < 2**-20
        if f == 0.0:
            if k == 0:
                return 0.0
            dk = float(k)
            return dk * ln2_hi + dk * ln2_lo
        R = f * f * (0.5 - 0.33333333333333333 * f)
        if k == 0:
            return f - R
        dk = float(k)
        return dk * ln2_hi - ((R - dk * ln2_lo) - f)
    s = f / (2.0 + f)
    dk = float(k)
    z = s * s
    i = hx - 0x6147A
    w = z * z
    j = 0x6B851 - hx
    t1 = w * (Lg2 + w * (Lg4 + w * Lg6))
    t2 = z * (Lg1 + w * (Lg3 + w * (Lg5 + w * Lg7)))
    i |= j
    R = t2 + t1
    if i > 0:
        hfsq = 0.5 * f * f
        if k == 0:
            return f - (hfsq - s * (hfsq + R))
        return dk * ln2_hi - ((hfsq - (s * (hfsq + R) + dk * ln2_lo)) - f)
    if k == 0:
        return f - s * (f - R)
    return dk * ln2_hi - ((s * (f - R) - dk * ln2_lo) - f)
