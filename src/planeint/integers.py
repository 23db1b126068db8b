"""Plain-integer routines that the ring algorithms rest on.

Primality, factorization, gcd and the sum/difference-of-two-squares
representations of ordinary integers.  Nothing here knows about the rings;
:mod:`planeint.classify` and :mod:`planeint.factor` both build on it.
"""

from __future__ import annotations

from math import isqrt

_TRIAL_OFFSETS = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30 after 2, 3, 5


def is_prime_int(n: int) -> bool:
    """Deterministic trial division; adequate at desk scale."""
    if n < 2:
        return False
    for p in (2, 3, 5):
        if n % p == 0:
            return n == p
    f = 7
    i = 0
    while f * f <= n:
        if n % f == 0:
            return False
        f += _TRIAL_OFFSETS[i]
        i = (i + 1) % 8
    return True


def int_factor(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Sign and prime factorization of a nonzero integer, exponents collected."""
    if n == 0:
        raise ValueError("0 has no factorization")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 7
    i = 0
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += _TRIAL_OFFSETS[i]
        i = (i + 1) % 8
    if n > 1:
        out.append((n, 1))
    return sign, out


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def sum_two_squares(p: int) -> tuple[int, int] | None:
    """``(a, b)`` with ``p = a² + b²`` for a prime p, or None (exactly when p ≡ 3 mod 4)."""
    if not is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    for a in range(isqrt(p), 0, -1):
        rest = p - a * a
        b = isqrt(rest)
        if b * b == rest and b <= a:
            return a, b
    return None


def two_adic_valuation(n: int) -> int:
    """Exponent of 2 in a nonzero n."""
    if n == 0:
        raise ValueError("0 has no 2-adic valuation")
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


def diff_two_squares(n: int) -> tuple[int, int] | None:
    """Minimal-r representation ``n = r² - s²`` for n >= 1, or None.

    No representation exists exactly when the exponent of 2 in n is 1.
    For representable n a witness exists with ``r <= n//2 + 1`` (odd n split
    as consecutive squares, multiples of 4 as ``(n/4+1)² - (n/4-1)²``), so
    the upward search from ``⌈√n⌉`` terminates.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if two_adic_valuation(n) == 1:
        return None
    r = isqrt(n - 1) + 1 if n > 1 else 1
    bound = n // 2 + 1  # the odd / divisible-by-4 constructions stay below this
    while r <= bound:
        rest = r * r - n
        s = isqrt(rest)
        if s * s == rest:
            return r, s
        r += 1
    raise AssertionError("representable n must have a witness within the bound")


__all__ = [
    "diff_two_squares",
    "extended_gcd",
    "int_factor",
    "is_prime_int",
    "sum_two_squares",
    "two_adic_valuation",
]
