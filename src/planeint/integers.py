"""Plain-integer routines that the ring algorithms rest on.

Primality, factorization, gcd and the sum/difference-of-two-squares
representations of ordinary integers; no ring element is built here.  The
one routine shared with the rings, Cornacchia's descent, lives in
:mod:`planeint.core`, since :mod:`planeint.euclid` runs it too and may not
import this module.  :mod:`planeint.classification` and
:mod:`planeint.factorization` both build on it.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt, prod

from .core import _cornacchia

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

# (bound, bases): every odd composite n < bound fails the strong test to one
# of the bases.  Below 2⁶⁴ each row is the smallest published set for its
# size, 2 to 7 rounds: the {2, 7, 61} row is Jaeschke's (1993); the rows
# below 19,471,033, 38,010,307 and from 105,936,894,253 to
# 3,071,837,692,357,849 are from miller-rabin.appspot.com;
# {2, 325, ..., 1795265022} below 2⁶⁴ is Sinclair's (2011).  The last two
# sources checked their sets against Feitsma's complete list of strong
# base-2 pseudoprimes below 2⁶⁴; since every row starts with 2, only a
# composite on that list can pass a row's first round.  Every base is
# below the least n its row serves, 2²⁴ for the first row and the previous
# row's bound for the others, so no base is ≡ 0 (mod n).  Past 2⁶⁴ the rows
# are ψ₁₂ and ψ₁₃ with the first 12 and 13 primes (Jaeschke 1993; Sorenson &
# Webster 2015).
_MR_PROVEN = (
    (19_471_033, (2, 299417)),
    (38_010_307, (2, 9332593)),
    (4_759_123_141, (2, 7, 61)),
    (105_936_894_253, (2, 1005905886, 1340600841)),
    (31_858_317_218_647, (2, 642735, 553174392, 3046413974)),
    (3_071_837_692_357_849, (2, 75088, 642735, 203659041, 3613982119)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318_665_857_834_031_151_167_461, _MR_BASES[:12]),
    (3_317_044_064_679_887_385_961_981, _MR_BASES[:13]),
)

_RHO_BATCH = 64  # rho steps whose differences share one gcd; even, so a batch is whole double steps


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """Miller–Rabin rounds on the odd n to each base, in order: False proves n composite.

    Each base a must satisfy 1 < a < n.  n − 1 = 2^s·d is split once; a round
    passes when a^d ≡ 1 or a^(2^r·d) ≡ −1 (mod n) for some r < s, and the
    first round that fails ends the test.
    """
    m = n - 1
    s = two_adic_valuation(m)
    d = m >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def is_prime_int(n: int) -> bool:
    """Exact primality of an integer.

    Below 2¹⁶ this is a table lookup.  An odd n below 2²⁴ = (2¹²)² is prime
    exactly when it has no prime below 2¹², which one gcd with their product
    decides.  From 2²⁴, deterministic Miller–Rabin on the bases of the first
    ``_MR_PROVEN`` row whose bound exceeds n, each set starting with 2, so
    that only a strong base-2 pseudoprime gets past a row's first round: 2
    rounds below 38,010,307 (26 bits), 3 up to 36 bits, 4 up to 44, 5 up to
    51 and 7 up to 64.  Past 2⁶⁴ the bases are the first 12 primes, then the
    first 13, which cover every n < 3,317,044,064,679,887,385,961,981
    (≈ 3.3·10²⁴, ψ₁₃).

    Cost model: below 2²⁴ the one gcd takes about 1.5 µs, where two rounds
    took 2.7 µs on a 20-bit prime.  A round is one modular power, cubic in
    the size of n: about 15 µs at 82 bits, 0.7 s at 2,000 digits and 7.4 s
    at 4,300.  From 2²⁴ to ψ₁₃, n has at most 82 bits and a round costs
    about five gcds, so the rows run alone.  Beyond ψ₁₃, one gcd with the
    product of the primes below 2¹² comes first and proves composite every
    n with such a prime, most odd n, in 3.4 µs at 82 bits and 0.17 ms at
    4,300 digits.  No finite base set is proven there: a failed round on any
    prime base below 100 still proves n composite, and an n that passes them
    all is settled by odd trial division, which is exact but takes O(√n)
    steps, so for a prime above ψ₁₃ it does not finish in practice (2⁸⁹ - 1
    would take about 10¹³ divisions).  ROADMAP items 2 (an operation budget)
    and 4 (exact primality at every size) replace this path.
    """
    if n < _CROSSOVER:
        return n > 1 and not _FACTOR_OF[n]
    if n % 2 == 0:
        return False
    if n < _SMOOTH_PRIME_END:
        return gcd(n, _SMALL_PRODUCT) == 1
    for bound, bases in _MR_PROVEN:
        if n < bound:
            return _strong_probable_prime(n, bases)
    if gcd(n, _SMALL_PRODUCT) > 1:
        return False
    return _strong_probable_prime(n, _MR_BASES) and all(n % f for f in range(3, isqrt(n) + 1, 2))


def _brent_rho(n: int) -> int:
    """A proper divisor of an odd composite n with no prime factor below 2¹².

    Pollard's rho with Brent's cycle detection (Brent 1980): the walk
    y -> y² + c starts at 2 with c = 1, and c moves on to 2, 3, ... only when a
    walk closes its cycle modulo n itself.  No randomness, so results repeat.

    Past the first round (r = 1, single steps), each iteration moves the walk
    two steps with one reduction: t = y² + c stays unreduced and
    y = (t² + c) mod n, and the product takes (x − t)(x − y) in one
    multiply-and-reduce.  t ≡ the skipped step modulo n, so every y, every
    product and every gcd equal the single-step walk's modulo n.  A gcd is
    taken once per ``_RHO_BATCH`` steps and at the end of each round; a batch
    that collects every prime of n is retraced one step at a time from its
    start.  The batch, 64, is the one of 16, 32, 64 and 128 whose worst size
    lost least in a sweep over balanced semiprimes of 24 to 76 bits: a
    smaller batch stops sooner after the collision, which pays below 2³⁰,
    where two steps in one reduction save little, and a larger one takes
    fewer gcds, which pays past 2⁶⁸, where two steps in one reduction save
    nothing.
    """
    c = 1
    while True:
        ys = 4 + c  # r = 1: x = 2 against the walk's second step
        y = (ys * ys + c) % n
        x, r = 2, 2
        q = (x - y) % n
        g = gcd(q, n)
        while g == 1:
            x = y
            for _ in range(r >> 1):
                t = y * y + c
                y = (t * t + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k) >> 1):
                    t = y * y + c
                    y = (t * t + c) % n
                    q = q * (x - t) * (x - y) % n
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


def _table_primes(m: int) -> list[int]:
    """The primes of a squarefree 1 <= m < 2¹⁶, ascending, read from the table."""
    out = []
    while m > 1:
        p = _FACTOR_OF[m] or m
        out.append(p)
        m //= p
    return out


def _strip_small(n: int) -> tuple[list[tuple[int, int]], int]:
    """The prime powers of n > 0 with primes below 2¹², ascending, and n without them.

    Cost model: one gcd with the product of those primes is g, the product
    of n's primes there, and g = 1 returns at once.  A squarefree number
    below 2¹⁶ has its primes read from the table, so a g below 2¹⁶ (one
    prime, or a few small ones) costs no further gcd.  Otherwise the
    32-prime chunks are walked only while what is left of g is at least
    2¹⁶: one gcd per chunk gives the product h of n's primes in it, a table
    read when h is below 2¹⁶ and a scan of the chunk's primes only when it
    is not, which takes two or more of them; the rest of g, below 2¹⁶,
    comes from the table.  Then each prime costs its exponent's divisions.
    """
    g = gcd(n, _SMALL_PRODUCT)
    if g == 1:
        return [], n
    primes = []
    for chunk, chunk_product in _SMALL_CHUNKS:
        if g < _CROSSOVER:
            break
        h = gcd(g, chunk_product)  # the product of n's primes in this chunk
        if h > 1:
            g //= h
            primes += _table_primes(h) if h < _CROSSOVER else [p for p in chunk if h % p == 0]
    out = []
    for p in primes + _table_primes(g):
        n //= p
        e = 1
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

    n is never factored.  One prime p is divided out alone, and n is a power
    of p exactly when nothing is left.  Below 2¹⁶, p is the table's least
    prime of n.  Above, one gcd with the product of the primes below 2¹² is
    the product of n's primes there: two or more of them (a gcd past 2¹⁶, or
    one the table factors) answer None at once, and one of them is p.  An n
    with none of them is prime below 2²⁴, a larger one needs one
    :func:`is_prime_int`, and a composite one is a prime power only through
    :func:`_exact_root`.
    """
    if n < _CROSSOVER:
        p = _FACTOR_OF[n] or n
    else:
        p = gcd(n, _SMALL_PRODUCT)
        if p >= _CROSSOVER or _FACTOR_OF[p]:
            return None
    if p > 1:
        g = 0
        while n % p == 0:
            n //= p
            g += 1
        return (p, g) if n == 1 else None
    if n < _SMOOTH_PRIME_END or is_prime_int(n):
        return n, 1
    root = _exact_root(n)
    power = root and _prime_power(root[0])
    return power and (power[0], power[1] * root[1])


def int_factor(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Sign and prime factorization of a nonzero integer, primes ascending, exponents collected.

    Below 2¹⁶ this is a table lookup.  Above, the small-prime stage strips
    every prime below 2¹² with one gcd (and, only when that gcd is above 1, a
    few more to say which); a cofactor left over is split, as an exact power
    r^j into r with j times its multiplicity and otherwise by Pollard–Brent
    rho, until each piece is below 2²⁴ or passes :func:`is_prime_int`.

    Cost model: rho splits a piece in about √p steps, p the least prime of
    the piece, at 0.25 to 0.7 µs a step from 28 to 76 bits, so the cost grows
    with the square root of the second-largest distinct prime factor: a
    balanced 64-bit semiprime takes about 30 ms, a 76-bit one about 0.3 s,
    and balanced semiprimes far above that stay slow (ROADMAP item 5).
    """
    return _int_factor(n, False)


def _int_factor_composite(n: int) -> tuple[int, list[tuple[int, int]]]:
    """:func:`int_factor` of an n that a primality test has already proven composite.

    When the small-prime stage strips nothing, the cofactor is n itself, and
    it goes to the exact-root test and rho without a second primality test.
    """
    return _int_factor(n, True)


def _int_factor(n: int, composite: bool) -> tuple[int, list[tuple[int, int]]]:
    """:func:`int_factor`, told whether n is already proven composite."""
    if n == 0:
        raise ValueError("0 has no factorization")
    sign = -1 if n < 0 else 1
    n = abs(n)
    if n < _CROSSOVER:
        return sign, _table_factor(n)
    proven = n if composite else 0  # a piece equal to n is n unstripped
    out, n = _strip_small(n)
    counts: dict[int, int] = {}
    pending = [(n, 1)] if n > 1 else []  # (piece, multiplicity)
    while pending:
        m, k = pending.pop()
        # the pieces keep n's lack of primes below 2¹², so one below 2²⁴ is prime
        if m < _SMOOTH_PRIME_END or m != proven and is_prime_int(m):
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

    x = t^((p-1)/4) for a quadratic non-residue t is a square root of -1
    mod p, and Cornacchia's descent on (p, x), the one
    :mod:`planeint.euclid` and :mod:`planeint.factorization` also run, gives
    the pair as (s, |t|): p = s² + t² with s > |t| > 0 is unique, so either
    root of -1 gives it.

    Cost model: one primality test of p, then one modular power per
    candidate t, which is x itself: t is a non-residue exactly when
    x² ≡ -1.  For p ≡ 5 (mod 8), 2 is a non-residue and the only candidate.
    For p ≡ 1 (mod 8), 2 is a residue, so the odd t from 3 are tried; the
    least non-residue is prime and below 2(log p)² under GRH, so a few
    powers suffice.  Then the descent, O(log p) steps.
    """
    if not is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1, 1
    if p % 4 == 3:
        return None
    q = (p - 1) // 4
    if p % 8 == 5:
        x = pow(2, q, p)
    else:
        t = 3
        while (x := pow(t, q, p)) * x % p != p - 1:
            t += 2
    s, t = _cornacchia(p, x)
    return s, abs(t)


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
