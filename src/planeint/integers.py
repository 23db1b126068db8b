"""Plain-integer routines that the ring algorithms rest on.

Primality, factorization, gcd and the sum/difference-of-two-squares
representations of ordinary integers.  Nothing here knows about the rings;
:mod:`planeint.classification` and :mod:`planeint.factorization` both build on it.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt, prod

# Below this, primality and factoring are table lookups in _FACTOR_OF; above
# it, Miller–Rabin, a small-prime gcd and Pollard–Brent rho take over.
_CROSSOVER = 1 << 16

# _FACTOR_OF[n] for n < 2¹⁶: 0 when n is prime (and for 0 and 1), otherwise the
# least prime factor of n, which lies below 2⁸.  Each prime below 2⁸, in
# ascending order, marks its multiples from its square on that no smaller
# prime has marked, in one slice assignment.
_FACTOR_OF = bytearray(_CROSSOVER)
for _p in range(2, 1 << 8):
    if not _FACTOR_OF[_p]:
        _FACTOR_OF[_p * _p :: _p] = _FACTOR_OF[_p * _p :: _p].replace(b"\0", bytes([_p]))
del _p

# Above the crossover, one gcd with the product of the primes below 2¹² finds
# every small prime of n at once; a cofactor free of them is prime below 2²⁴.
_SMALL_PRIMES = tuple(n for n in range(2, 1 << 12) if not _FACTOR_OF[n])
_SMALL_CHUNKS = tuple(  # 32 primes each, to say which small primes a gcd holds
    (_SMALL_PRIMES[i : i + 32], prod(_SMALL_PRIMES[i : i + 32])) for i in range(0, len(_SMALL_PRIMES), 32)
)
_SMALL_PRODUCT = prod(chunk_product for _, chunk_product in _SMALL_CHUNKS)
_SMOOTH_PRIME_END = 1 << 24  # (2¹²)²

_MR_BASES = _SMALL_PRIMES[:25]  # the primes below 100

# (psi_k, k): every odd composite n < psi_k fails the strong test to one of the
# first k prime bases (Jaeschke 1993; Sorenson & Webster 2015).  psi_1 = 2047
# lies below the crossover, psi_8 == psi_7 and psi_10 == psi_11 == psi_9, so
# those rows are left out.
_MR_PROVEN = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)

_RHO_BATCH = 128  # rho steps whose differences share one gcd


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller–Rabin round: False proves the odd n > a composite."""
    d = n - 1
    s = two_adic_valuation(d)
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_int(n: int) -> bool:
    """Exact primality of an integer.

    Below 2¹⁶ this is a table lookup.  Above it, deterministic Miller–Rabin on
    the first k prime bases, with k the smallest count proven for n's size;
    the first 13 primes cover every n < 3,317,044,064,679,887,385,961,981
    (≈ 3.3·10²⁴).  Beyond that bound no finite base set is proven: a failed
    round on any prime base below 100 still proves n composite, and an n that
    passes them all is settled by odd trial division, which is exact but
    takes O(√n) steps, so primes above 3.3·10²⁴ are slow.
    """
    if n < _CROSSOVER:
        return n > 1 and not _FACTOR_OF[n]
    if n % 2 == 0:
        return False
    for bound, k in _MR_PROVEN:
        if n < bound:
            return all(_strong_probable_prime(n, a) for a in _MR_BASES[:k])
    return all(_strong_probable_prime(n, a) for a in _MR_BASES) and all(n % f for f in range(3, isqrt(n) + 1, 2))


def _brent_rho(n: int) -> int:
    """A proper divisor of an odd composite n with no prime factor below 2¹².

    Pollard's rho with Brent's cycle detection (Brent 1980): the walk
    y -> y² + c starts at 2 with c = 1, and c moves on to 2, 3, ... only when a
    walk closes its cycle modulo n itself.  No randomness, so results repeat.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch went past the first collision: retrace it step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def _table_factor(n: int) -> list[tuple[int, int]]:
    """The prime powers of 1 <= n < 2¹⁶, ascending: divide out the table's least prime, then the next."""
    out = []
    while n > 1:
        p = _FACTOR_OF[n] or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def _strip_small(n: int) -> tuple[list[tuple[int, int]], int]:
    """The prime powers of n > 0 with primes below 2¹², ascending, and n without them.

    One gcd with the product of those primes decides whether any divides n;
    only then do per-chunk gcds and single divisions say which.
    """
    out = []
    g = gcd(n, _SMALL_PRODUCT)
    for chunk, chunk_product in _SMALL_CHUNKS:
        if g == 1:
            break
        h = gcd(g, chunk_product)  # the product of n's primes in this chunk
        g //= h
        for p in chunk:
            if h == 1:
                break
            if h % p == 0:
                h //= p
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
    return out, n


def _iroot(m: int, k: int) -> int:
    """⌊m^(1/k)⌋ for m >= 1, by Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _exact_root(m: int) -> tuple[int, int] | None:
    """``(r, k)`` with ``m = r^k`` for the least prime k that has one, or None; m has no prime below 2¹².

    Every prime of such an m exceeds 2¹², so a k-th power needs k <= log₄₀₉₆ m;
    the prime k up to that bound are tried, from ``_SMALL_PRIMES`` and past it.
    """
    bound = m.bit_length() // 12
    past_table = filter(is_prime_int, range(_SMALL_PRIMES[-1] + 2, bound + 1, 2))
    for k in chain(_SMALL_PRIMES, past_table):
        if k > bound:
            break
        r = isqrt(m) if k == 2 else _iroot(m, k)
        if r**k == m:
            return r, k
    return None


def _prime_power(n: int) -> tuple[int, int] | None:
    """``(p, g)`` with ``n = p^g`` for a prime p, or None; n >= 2.

    Below 2¹⁶ this is a table lookup.  Above, n is never factored: the
    small-prime stage either finds n's only prime below 2¹² or leaves a
    cofactor with none.  One below 2²⁴ is prime, a larger one needs one
    :func:`is_prime_int`, and a composite one is a prime power only through
    :func:`_exact_root`.
    """
    if n < _CROSSOVER:
        powers = _table_factor(n)
        return powers[0] if len(powers) == 1 else None
    small, m = _strip_small(n)
    if small:
        return small[0] if m == 1 and len(small) == 1 else None
    if m < _SMOOTH_PRIME_END or is_prime_int(m):
        return m, 1
    root = _exact_root(m)
    power = root and _prime_power(root[0])
    return power and (power[0], power[1] * root[1])


def int_factor(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Sign and prime factorization of a nonzero integer, primes ascending, exponents collected.

    Below 2¹⁶ this is a table lookup.  Above, the small-prime stage strips
    every prime below 2¹² with one gcd (and, only when that gcd is above 1, a
    few more to say which); a cofactor left over is split, as an exact power
    r^j into r with j times its multiplicity and otherwise by Pollard–Brent
    rho, until each piece is below 2²⁴ or passes :func:`is_prime_int`.  The
    cost grows with the square root of the second-largest distinct prime
    factor, so balanced semiprimes far above 64 bits stay slow.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    sign = -1 if n < 0 else 1
    n = abs(n)
    if n < _CROSSOVER:
        return sign, _table_factor(n)
    out, n = _strip_small(n)
    counts: dict[int, int] = {}
    pending = [(n, 1)] if n > 1 else []  # (piece, multiplicity)
    while pending:
        m, k = pending.pop()
        if m < _SMOOTH_PRIME_END or is_prime_int(m):  # the pieces keep n's lack of primes below 2¹²
            counts[m] = counts.get(m, 0) + k
        elif root := _exact_root(m):
            pending.append((root[0], k * root[1]))
        else:
            d = _brent_rho(m)
            pending += ((d, k), (m // d, k))
    return sign, out + sorted(counts.items())


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
    """``(a, b)`` with ``p = a² + b²`` and ``a >= b > 0`` for a prime p, or None (exactly when p ≡ 3 mod 4).

    Hermite–Serret/Cornacchia: x = t^((p-1)/4) for the least quadratic
    non-residue t is a square root of -1 mod p, and the Euclidean algorithm on
    (p, x) reaches b² + c² = p at its first remainder b below √p.
    """
    if not is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1, 1
    if p % 4 == 3:
        return None
    t = 2
    while pow(t, (p - 1) // 2, p) != p - 1:
        t += 1
    a, b = p, pow(t, (p - 1) // 4, p)
    while b * b > p:
        a, b = b, a % b
    return b, a % b


def two_adic_valuation(n: int) -> int:
    """Exponent of 2 in a nonzero n."""
    if n == 0:
        raise ValueError("0 has no 2-adic valuation")
    return (n & -n).bit_length() - 1


def diff_two_squares(n: int) -> tuple[int, int] | None:
    """Minimal-r representation ``n = r² - s²`` for n >= 1, or None.

    No representation exists exactly when the exponent of 2 in n is 1.
    Otherwise ``n = d·e`` with ``d = r - s <= e = r + s`` of equal parity, and
    r = (d + e)/2 is least for the d closest to √n.  For odd n, d runs over
    the divisors of n; for n divisible by 4, d = 2d' and e = 2e' with
    d'·e' = n/4.  The divisors come from :func:`int_factor`, so the cost is
    one factorization of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    v = two_adic_valuation(n)
    if v == 1:
        return None
    m = n if v == 0 else n >> 2
    divisors = [1]
    for p, e in int_factor(m)[1]:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    d = max(d for d in divisors if d * d <= m)
    e = m // d
    return ((d + e) // 2, (e - d) // 2) if v == 0 else (e + d, e - d)


__all__ = [
    "diff_two_squares",
    "extended_gcd",
    "int_factor",
    "is_prime_int",
    "sum_two_squares",
    "two_adic_valuation",
]
