"""Interval arithmetic over exact rational endpoints.

Endpoints are Fractions and every operation is exact, so an interval is a
certified enclosure by construction: no rounding ever happens.  Width is
controlled by the caller (typically by refining an isolating interval),
not by the arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

Interval = tuple[Fraction, Fraction]


def interval(lo, hi) -> Interval:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError(f"inverted interval [{lo}, {hi}]")
    return (lo, hi)


def width(iv: Interval) -> Fraction:
    return iv[1] - iv[0]


def midpoint(iv: Interval) -> Fraction:
    return (iv[0] + iv[1]) / 2


def contains(iv: Interval, value) -> bool:
    return iv[0] <= value <= iv[1]


def is_subset(inner: Interval, outer: Interval) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def overlaps(a: Interval, b: Interval) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def add(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: Interval, b: Interval) -> Interval:
    return (a[0] - b[1], a[1] - b[0])


def neg(a: Interval) -> Interval:
    return (-a[1], -a[0])


def mul(a: Interval, b: Interval) -> Interval:
    """Product interval.  The endpoint signs pick the two products that
    bound it (Moore's nine cases); all four are formed only when both
    operands straddle 0."""
    a0, a1 = a
    b0, b1 = b
    if a0 >= 0:
        if b0 >= 0:
            return (a0 * b0, a1 * b1)
        if b1 <= 0:
            return (a1 * b0, a0 * b1)
        return (a1 * b0, a1 * b1)
    if a1 <= 0:
        if b0 >= 0:
            return (a0 * b1, a1 * b0)
        if b1 <= 0:
            return (a1 * b1, a0 * b0)
        return (a0 * b1, a0 * b0)
    if b0 >= 0:
        return (a0 * b1, a1 * b1)
    if b1 <= 0:
        return (a1 * b0, a0 * b0)
    return (min(a0 * b1, a1 * b0), max(a0 * b0, a1 * b1))


def scale(a: Interval, k) -> Interval:
    k = Fraction(k)
    if k >= 0:
        return (a[0] * k, a[1] * k)
    return (a[1] * k, a[0] * k)


def recip(a: Interval) -> Interval:
    if a[0] <= 0 <= a[1]:
        raise ZeroDivisionError("interval straddles zero")
    return (1 / a[1], 1 / a[0])


def div(a: Interval, b: Interval) -> Interval:
    return mul(a, recip(b))


def absolute(a: Interval) -> Interval:
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return neg(a)
    return (Fraction(0), max(-a[0], a[1]))


def hull(a: Interval, b: Interval) -> Interval:
    return (min(a[0], b[0]), max(a[1], b[1]))


def poly_eval(coeffs: Sequence[int], iv: Interval) -> Interval:
    """Enclosure of a polynomial (constant term first) over an interval."""
    acc: Interval = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        lo, hi = mul(acc, iv)
        acc = (lo + c, hi + c)
    return acc


def _int_nth_root(x: int, n: int) -> int:
    # floor(x ** (1/n)) for x >= 0 by plain binary search; n is tiny here.
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if n == 1:
        return x
    if n == 2:
        return isqrt(x)
    lo, hi = 1, 1 << (x.bit_length() // n + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def nth_root_bounds(r: Fraction, n: int, bits: int) -> Interval:
    """Enclosure of r**(1/n) with endpoints on the grid k / 2**bits."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative radicand")
    den = 1 << bits
    scaled = r.numerator * (1 << (n * bits))
    lo = Fraction(_int_nth_root(scaled // r.denominator, n), den)
    hi = Fraction(_int_nth_root(-((-scaled) // r.denominator), n) + 1, den)
    return (lo, hi)


def sqrt_bounds(r: Fraction, bits: int) -> Interval:
    return nth_root_bounds(r, 2, bits)


def sqrt_interval(a: Interval, bits: int) -> Interval:
    """Enclosure of the square root of an interval of non-negative values.

    A slightly negative lower endpoint (enclosure slack around a positive
    value) is clipped to zero.
    """
    lo = max(a[0], Fraction(0))
    if a[1] < 0:
        raise ValueError("interval is entirely negative")
    return (sqrt_bounds(lo, bits)[0], sqrt_bounds(a[1], bits)[1])


def round_scaled(r: Fraction, scale: int) -> int:
    """round(r * scale) with ties away from zero, exactly."""
    n, d = r.numerator * scale, r.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def decimal_str(r: Fraction, digits: int) -> str:
    """Exactly rounded fixed-point decimal rendering of a rational."""
    scaled = round_scaled(r, 10**digits)
    sign = "-" if scaled < 0 else ""
    ip, fp = divmod(abs(scaled), 10**digits)
    if digits == 0:
        return f"{sign}{ip}"
    return f"{sign}{ip}.{str(fp).zfill(digits)}"
