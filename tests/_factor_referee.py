"""Reference factorization: the recursion ``a = b*c`` through one splitting witness per level.

Each level decides irreducibility with :mod:`planeint.classification` and builds its
witness from a fresh factorization of the piece's norm (of x in the parabolic
ring), so nothing is passed between levels.  ``planeint.factor`` must return
exactly what this recursion returns: the same unit, the same factors in the
same order and the same axis flag, because the hyperbolic and parabolic rings
have more than one factorization.

``int_factor`` is a parameter so that tests on products of known primes can
hand the recursion a factorizer over those primes instead of running rho at
every level.

``wheel_int_factor`` is ``int_factor`` as it was before the small-prime gcd
stage: trial division on the wheel mod 30 up to 2⁸, then the same rho walks.
"""

from planeint import Element, RingKind, divides, int_factor, is_irreducible, is_prime_int, sum_two_squares
from planeint.integers import _brent_rho


def wheel_int_factor(n):
    """Sign and prime factorization: 2, 3, 5 and the wheel mod 30 to 2⁸, then Pollard–Brent rho."""
    sign, n, out = (-1 if n < 0 else 1), abs(n), []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f, i = 7, 0
    while f * f <= n and f < 256:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += (4, 2, 4, 2, 4, 6, 2, 6)[i]
        i = (i + 1) % 8
    if n < f * f:
        return sign, out + ([(n, 1)] if n > 1 else [])
    counts, pending = {}, [n]
    while pending:
        m = pending.pop()
        if m < f * f or is_prime_int(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            pending += (d, m // d)
    return sign, out + sorted(counts.items())


def _parabolic_irreducible(x_primes, y):
    """The parabolic rule read from the whole factorization of x: x is p, or p^g with p not dividing y."""
    if len(x_primes) != 1:
        return False
    p, g = x_primes[0]
    return g == 1 or y % p != 0


def _split_hyperbolic(a, int_factor):
    odd = [p for p, _ in int_factor(a.eta_plus)[1] if p != 2]
    if odd:
        # a prime of norm p divides a (or its conjugate does)
        n = (odd[0] - 1) // 2
        cand = Element(a.kind, n + 1, n)
        q = divides(cand, a)
        if q is None:
            cand = cand.conj()
            q = divides(cand, a)
        assert q is not None, "one of the conjugate norm-p primes must divide"
        return cand, q
    q = divides(Element(a.kind, 2, 0), a)
    assert q is not None, "off the irreducible form, the element is even"
    return Element(a.kind, 2, 0), q


def _split_parabolic(a, x_primes):
    if a.x < 0:
        b, c = _split_parabolic(-a, x_primes)
        return -b, c
    x, y = a.x, a.y
    p, g = x_primes[0]
    if len(x_primes) == 1:  # x = p^g with g >= 2 and p | y
        return Element(a.kind, p, 0), Element(a.kind, p ** (g - 1), y // p)
    # coprime split x = m*n; solve r*n + s*m = y
    m = p**g
    n = x // m
    r = y * pow(n, -1, m) % m
    s = (y - r * n) // m
    return Element(a.kind, m, r), Element(a.kind, n, s)


def _split_elliptic(a, int_factor):
    candidates = []
    for p, _ in int_factor(a.eta_plus)[1]:
        if p == 2:
            candidates.append(Element(a.kind, 1, 1))
        elif p % 4 == 1:
            rs = sum_two_squares(p)
            candidates.append(Element(a.kind, rs[0], rs[1]))
            candidates.append(Element(a.kind, rs[0], -rs[1]))
        else:
            candidates.append(Element(a.kind, p, 0))
    for c in candidates:
        q = divides(c, a)
        if q is not None:
            return c, q
    raise AssertionError("a reducible element has a Gaussian prime divisor")


def referee_split(a, int_factor=int_factor):
    """``planeint.split`` as the recursion's one level, for a splittable a."""
    if a.kind is RingKind.PARABOLIC and a.x:
        x_primes = int_factor(a.x)[1]
        return None if _parabolic_irreducible(x_primes, a.y) else _split_parabolic(a, x_primes)
    if is_irreducible(a):
        return None
    if a.kind is RingKind.HYPERBOLIC:
        return _split_hyperbolic(a, int_factor)
    if a.kind is RingKind.PARABOLIC:  # on the axis: ky = y * k
        return Element(a.kind, a.y, 0), Element(a.kind, 0, 1)
    return _split_elliptic(a, int_factor)


def _factor_rec(a, int_factor):
    pair = referee_split(a, int_factor)
    if pair is None:
        canonical, u = a.canonical_associate()
        return u.inverse(), [canonical]
    u1, f1 = _factor_rec(pair[0], int_factor)
    u2, f2 = _factor_rec(pair[1], int_factor)
    return u1 * u2, f1 + f2


def referee_factor(a, int_factor=int_factor):
    """``(unit, factors, axis_extension)`` of a splittable a, as ``planeint.factor`` returns them."""
    unit, factors = _factor_rec(a, int_factor)
    factors.sort(key=lambda f: (f.eta_plus, f.x, f.y))
    return unit, tuple(factors), a.kind is RingKind.PARABOLIC and a.eta == 0
