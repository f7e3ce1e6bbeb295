"""Exact rational linear algebra and lattice primitives.

Integers inside, Fractions at the edges: rationals meet as integer
numerators over one scale (see :mod:`toricpack.delzant`), and a
:class:`fractions.Fraction`, in lowest terms so that equality and ordering
are exact, is built only where a public API returns a rational or output
formats one.  No floating point enters any computation.  Rationals come in
by one grammar, ``_RATIONAL``, read by :func:`rat`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

IntVec = tuple[int, ...]
Vec = tuple[Fraction, ...]


# An optional minus sign, ASCII digits, and an optional "/" with ASCII
# digits: no decimal point, exponent, sign "+", space, "_" or other script.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction or a string of the ``_RATIONAL`` grammar
    ("-9/10", "3") to an exact rational; anything else, a float or a zero
    denominator included, raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(f"not a rational \"p/q\": {value!r}")


def format_rat(q: Fraction) -> str:
    """Render as "p/q", or just "p" for integers (the JSON wire format)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def vec_add(a: Sequence, b: Sequence) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c, a: Sequence) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b, strict=True))


def gcd_primitive(v: Sequence[int]) -> tuple[IntVec, int]:
    """Reduce an integer vector to its primitive form.

    Returns ``(v/g, g)`` with ``g = gcd(|entries|) > 0``; the direction is
    preserved (the sign is never flipped, so inward normals stay inward).
    A primitive input comes back as the same tuple.
    """
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero direction")
    if g == 1:
        return tuple(v), 1
    return tuple(x // g for x in v), g


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Returns ``(reduced, pivots, d)``: ``reduced`` is d times the reduced row
    echelon form, so row k holds d at column ``pivots[k]`` and 0 at every
    other pivot column, and rows past ``len(pivots)`` are zero.  Every
    division is exact.  A row swap negates the row moved down, so for a
    nonsingular square input the last pivot d is its determinant.
    """
    a = [list(r) for r in rows]
    pivots: list[int] = []
    d = 1
    for c in range(len(a[0]) if a else 0):
        k = len(pivots)
        if k == len(a):
            break
        piv = next((r for r in range(k, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], [-x for x in a[k]]
        top = a[k]
        p = top[c]
        for i, row in enumerate(a):
            if i != k:
                f = row[c]
                a[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(c)
        d = p
    return a, pivots, d


def floor_nthroot(m: int, n: int) -> int:
    """Largest integer r with r**n <= m (m >= 0)."""
    if m < 0 or n < 1:
        raise ValueError("floor_nthroot requires m >= 0, n >= 1")
    if n == 1 or m in (0, 1):
        return m
    if n == 2:
        return math.isqrt(m)
    # Newton iteration on integers, seeded from the bit length.
    r = 1 << -(-m.bit_length() // n)
    while True:
        nxt = ((n - 1) * r + m // r ** (n - 1)) // n
        if nxt >= r:
            break
        r = nxt
    while r ** n > m:
        r -= 1
    return r


def rational_nthroot(q: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    p = floor_nthroot(q.numerator, n)
    s = floor_nthroot(q.denominator, n)
    if p**n == q.numerator and s**n == q.denominator:
        return Fraction(p, s)
    return None


def _floor_root_scaled(q: Fraction, n: int, k: int) -> int:
    """floor(q**(1/n) * 10**k), exact for any integer k."""
    if k >= 0:
        return floor_nthroot(q.numerator * q.denominator ** (n - 1) * 10 ** (n * k), n) // q.denominator
    return floor_nthroot(q.numerator * q.denominator ** (n - 1), n) // (q.denominator * 10**-k)


def nthroot_decimal(q: Fraction, n: int, sig: int = 30) -> str:
    """Decimal rendering of q**(1/n) truncated to ``sig`` significant digits.

    Presentation only: the digits come from exact integer n-th roots with
    remainder, never from floating point.
    """
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return "0"
    # Locate the leading digit: e with 10^e <= q^(1/n) < 10^(e+1).
    guard = 30
    while _floor_root_scaled(q, n, guard) == 0:
        guard *= 2
    e = len(str(_floor_root_scaled(q, n, guard))) - 1 - guard
    digits = str(_floor_root_scaled(q, n, sig - 1 - e))
    int_digits = e + 1
    if int_digits <= 0:
        return "0." + "0" * (-int_digits) + digits
    if int_digits >= len(digits):
        return digits + "0" * (int_digits - len(digits))
    return digits[:int_digits] + "." + digits[int_digits:]
