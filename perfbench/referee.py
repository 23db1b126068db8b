"""Referees that share no code with planeint.

Everything here works on plain integer pairs ``(x, y)`` standing for
``x + θy`` with ``θ² = mu``.  The benchmark uses these routines to build
inputs whose answers are known by construction and to check the library's
results outside the timed region; importing planeint here would let a bug
in the library vouch for itself.
"""

from __future__ import annotations

from math import gcd, isqrt

MU = {"i": -1, "j": 1, "k": 0}

# Deterministic Miller-Rabin bases: correct for every n < 3.3e24, far above
# the 44-bit inputs the benchmark builds.  sympy re-checks every prime the
# generator picks, so this routine only has to be fast, not trusted.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def mul(mu: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Product of ``a`` and ``b`` in the ring with ``θ² = mu``."""
    return a[0] * b[0] + mu * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def norm(mu: int, a: tuple[int, int]) -> int:
    return a[0] * a[0] - mu * a[1] * a[1]


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int, residue: tuple[int, int] | None = None) -> int:
    """A prime in ``[lo, hi)``, optionally with ``p % m == r`` for ``residue = (m, r)``."""
    while True:
        p = rng.randrange(lo, hi)
        if residue is not None and p % residue[0] != residue[1]:
            continue
        if is_probable_prime(p):
            return p


def small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def two_squares(p: int) -> tuple[int, int]:
    """``(a, b)`` with ``a² + b² = p`` for a prime ``p ≡ 1 (mod 4)`` or ``p = 2``.

    Hermite-Serret: a square root of -1 mod p, then the Euclidean remainder
    sequence of ``(p, root)`` stops at the first remainder below √p.
    """
    if p == 2:
        return 1, 1
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    r0, r1 = p, pow(c, (p - 1) // 4, p)
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    b = isqrt(p - r1 * r1)
    if r1 * r1 + b * b != p:
        raise ArithmeticError(f"no two-squares form found for {p}")
    return r1, b


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def hnf(rows) -> tuple[int, int, int]:
    """Canonical basis ``[(a, b), (0, c)]`` of the Z-span of integer pairs.

    ``a >= 0``, ``c >= 0`` and ``0 <= b < c`` when ``c > 0``; equal lattices
    give equal triples.
    """
    a = b = c = 0
    for p, q in rows:
        if p == 0:
            c = gcd(c, q)
        elif a == 0:
            a, b = (p, q) if p > 0 else (-p, -q)
        else:
            g, s, t = _ext_gcd(a, p)
            c = gcd(c, (a * q - p * b) // g)
            a, b = g, s * b + t * q
    if c:
        b %= c
    return a, b, c


def ideal_lattice(mu: int, gens) -> tuple[int, int, int]:
    """The ideal generated by ``gens`` as a lattice: each g and θ·g."""
    rows = []
    for x, y in gens:
        rows.append((x, y))
        rows.append((mu * y, x))
    return hnf(rows)


def lattice_contains(basis: tuple[int, int, int], x: int, y: int) -> bool:
    a, b, c = basis
    if a == 0:
        return x == 0 and (y == 0 if c == 0 else y % c == 0)
    if x % a:
        return False
    rest = y - (x // a) * b
    return rest == 0 if c == 0 else rest % c == 0


def decomposition_lattice(mu: int, alpha, dplus: int, dminus: int, d0: int) -> tuple[int, int, int]:
    """The lattice of ``(α) + dplus·(1+θ) + dminus·(1-θ) + d0·θ``."""
    rows = [(dplus, dplus), (dminus, -dminus), (0, d0)]
    if alpha is not None:
        rows.append(alpha)
        rows.append((mu * alpha[1], alpha[0]))
    return hnf(rows)


def is_canonical(sym: str, x: int, y: int) -> bool:
    """The representative rules documented for ``Element.canonical_associate``."""
    if x == 0 and y == 0:
        return True
    if sym == "i":
        return x > 0 and y >= 0
    if sym == "j":
        if x == y or x == -y:
            return x > 0
        return x > abs(y)
    if x == 0:
        return y > 0
    return x > 0 and 0 <= y < x
