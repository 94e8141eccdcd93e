"""Counted fixed-point elementary functions on Python integers.

Every routine takes its argument as an exact number, a pair (man, exp)
of integers for man * 2^exp, and returns (value, units) at ``w``
fractional bits: value is an integer, and the function lies within
units * 2^-w of value * 2^-w.  The library calls them in ``_precision``'s
unit, w = prec + 16, or finer.

Each routine works at ``_G`` more bits on an approximation A that lies
within a count e of the function there, and cuts once: value is
floor((A - e) 2^-_G) and units is 1 + floor((A + e) 2^-_G) - value.  When
A - e and A + e cut alike, units is 1 and value is the function rounded
down; otherwise units is 2, since at the precisions the library uses every
count here stays far under 2^(_G - 1).

The counts follow R. Brent and P. Zimmermann, *Modern Computer
Arithmetic* (CUP 2010), chapter 4.  A series term made from the one
before it by a product and a division, each rounded down, is off by under
one unit per floor plus the earlier term's error times the ratio of
successive terms; when that ratio is at most 1/2, the error stays under 3
units, and once a term rounds to 0 the rest of the series is under 3
units more.  An error of e units in an argument moves the function by e
units times a bound on its derivative.

pi comes from Machin's formula 16 atan(1/5) - 4 atan(1/239) and log 2
from 2 atanh(1/3), each summed once per 128 bits of precision into one
table (``_PI``, ``_LOG2``) and cut to the bits asked for; what an entry
holds depends on its key alone.  exp reduces by a multiple of log 2,
halves the rest ``_HALVINGS`` times, sums its Taylor series and squares
back; log scales by a power of 2 into [1/sqrt 2, sqrt 2) and sums the
series of atanh((m - 1)/(m + 1)); sin and cos reduce by the nearest
multiple of pi/2 and sum one Taylor series on [-pi/4, pi/4].
"""

from __future__ import annotations

_G = 24  # working bits beyond the bits asked for
_HALVINGS = 8  # exp's argument is halved this often before its Taylor sum
_INV_LOG2 = 0x171547652B82FE178  # 2^64 / log 2, to pick exp's multiple of log 2

# bits B, a multiple of 128 -> (A, e): pi and log 2 within e units of A 2^-B
_PI: dict[int, tuple[int, int]] = {}
_LOG2: dict[int, tuple[int, int]] = {}


def _shift(value: int, bits: int) -> int:
    """value * 2^bits, rounded down."""
    return value << bits if bits >= 0 else value >> -bits


def _cut(a: int, e: int, bits: int = _G) -> tuple[int, int]:
    """(value, units) at ``bits`` fewer bits for a function within e of a."""
    value = (a - e) >> bits
    return value, ((a + e) >> bits) - value + 1


def _arctan_inverse(k: int, bits: int, hyperbolic: bool) -> tuple[int, int]:
    """atan(1/k), or atanh(1/k), in units of 2^-bits for k >= 3: (A, e).

    Each power 2^bits / k^(2j+1) is the one before floor-divided by k^2,
    under 9/8 unit off; its term floor-divides it by 2j + 1, under 2
    units off; once a power is 0 the rest is under a unit.
    """
    power = (1 << bits) // k
    total, j, k2 = power, 1, k * k
    while power:
        power //= k2
        term = power // (2 * j + 1)
        total += term if hyperbolic or not j & 1 else -term
        j += 1
    return total, 2 * j + 1


def _constant(table: dict, bits: int, build) -> tuple[int, int]:
    """A table's constant in units of 2^-bits: (A, e)."""
    key = (bits | 127) + 129  # at least 129 bits more
    entry = table.get(key)
    if entry is None:
        entry = table.setdefault(key, build(key))
    a, e = entry
    drop = key - bits
    return a >> drop, (e >> drop) + 2


def _build_pi(bits: int) -> tuple[int, int]:
    (a5, e5), (a239, e239) = (_arctan_inverse(k, bits, False) for k in (5, 239))
    return 16 * a5 - 4 * a239, 16 * e5 + 4 * e239


def _build_log2(bits: int) -> tuple[int, int]:
    a, e = _arctan_inverse(3, bits, True)
    return 2 * a, 2 * e


def pi(w: int) -> tuple[int, int]:
    """pi at ``w`` fractional bits: (value, units)."""
    return _cut(*_constant(_PI, w + _G, _build_pi))


def log2(w: int) -> tuple[int, int]:
    """log 2 at ``w`` fractional bits: (value, units)."""
    return _cut(*_constant(_LOG2, w + _G, _build_log2))


def exp(x: tuple[int, int], w: int) -> tuple[int, int]:
    """e^x at ``w`` fractional bits for the exact x = man 2^exp.

    x = k log 2 + s with k the nearest integer to x / log 2, so
    e^x 2^w = e^s 2^(k + w), and e^s is summed at ww = w + k + _G bits.
    s is within l + 2 units of its value there, l the units of log 2,
    which moves e^s < 2 by under 2 (l + 2).  The Taylor sum of
    e^(s 2^-_HALVINGS) is under 3 units off per term; each squaring of
    t within e units of its value makes e (2 t + e) 2^-ww + 2 units.
    """
    man, ex = x
    k = (_shift(man * _INV_LOG2, ex - 63) + 1) >> 1
    if w + k < -1:  # e^x < 2^(k + 1/2) <= 2^-(w + 3/2)
        return 0, 1
    ww = w + k + _G
    kb = abs(k).bit_length()
    log2_k, log2_e = _constant(_LOG2, ww + kb, _build_log2)
    s = _shift(man, ex + ww) - (k * log2_k >> kb)
    total = term = 1 << ww
    j = 1
    while term:  # on |s|, whose terms fall to 0
        term = (term * abs(s) >> (ww + _HALVINGS)) // j
        total += -term if s < 0 and j & 1 else term
        j += 1
    err = 3 * j
    for _ in range(_HALVINGS):
        err = (err * (2 * total + err) >> ww) + 2
        total = total * total >> ww
    return _cut(total, err + 2 * (log2_e + 2))


def cosh_sinh(x: tuple[int, int], w: int) -> tuple[int, int, int]:
    """cosh x and sinh x at ``w`` fractional bits for the exact x >= 0:
    (cosh, sinh, units).

    From e^x within u units at w + _G bits and e^-x = 2^(2 ww) / e^x,
    within u + 2 since e^x >= 1; their half sum and half difference are
    within u + 1.
    """
    ww = w + _G
    e, u = exp(x, ww)
    inverse = (1 << 2 * ww) // e
    (c, cu), (s, su) = (_cut(y, 2 * u + 2, _G + 1) for y in (e + inverse, e - inverse))
    return c, s, max(cu, su)


def log(x: tuple[int, int], w: int, units: int = 0) -> tuple[int, int]:
    """log x at ``w`` fractional bits for x = man 2^exp > 0, exact, or
    within ``units`` < man units of 2^exp of it, which moves the log by
    under units / (man - units) more.

    x = m 2^k with m in [1/sqrt 2, sqrt 2), m cut to ww = w + _G bits,
    under 2 units (3 in log m); z = (m - 1)/(m + 1), |z| < 0.172, is one
    floor (3 units in 2 atanh z); each atanh term is under 2 units off and
    the rest under one; k log 2 is within l + 1 units, l those of log 2.
    """
    man, ex = x
    ww = w + _G
    bits = man.bit_length()
    k = bits + ex
    m = _shift(man, ww - bits)
    if 2 * m * m < 1 << 2 * ww:  # m < 1/sqrt 2
        m <<= 1
        k -= 1
    one = 1 << ww
    z = ((m - one) << ww) // (m + one)
    total = term = abs(z)
    z2 = term * term >> ww
    j = 3
    while term:
        term = term * z2 >> ww
        total += term // j
        j += 2
    kb = abs(k).bit_length()
    log2_k, log2_e = _constant(_LOG2, ww + kb, _build_log2)
    log_x = 2 * (total if z >= 0 else -total) + (k * log2_k >> kb)
    value, cut_units = _cut(log_x, 2 * j + log2_e + 8)
    return value, cut_units - (-(units << w) // (man - units))


def sin_cos(x: tuple[int, int], w: int, phase: int) -> tuple[int, int]:
    """sin(x + phase pi/2) at ``w`` fractional bits for the exact x =
    man 2^exp: sin x for phase 0, cos x for phase 1.

    x, cut to ww = w + _G bits, is q pi/2 + r with q the nearest integer
    and |r| <= pi/4, within |q| h + 1 units, h those of pi/2; the Taylor
    series of sin r or cos r is under 3 units off per term.
    """
    man, ex = x
    ww = w + _G
    half_pi, half_pi_e = _constant(_PI, ww - 1, _build_pi)
    a = _shift(man, ex + ww)
    q = (2 * a + half_pi) // (2 * half_pi)
    r = a - q * half_pi
    quadrant = (q + phase) % 4
    r2 = r * r >> ww
    if quadrant & 1:  # +-cos r
        total = term = 1 << ww
        j = 1
    else:  # +-sin |r|
        total = term = abs(r)
        j = 2
        if r < 0:
            quadrant ^= 2
    sign = 1
    while term:
        term = (term * r2 >> ww) // (j * (j + 1))
        sign = -sign
        total += sign * term
        j += 2
    return _cut(-total if quadrant >= 2 else total, 3 * j + abs(q) * half_pi_e + 1)

