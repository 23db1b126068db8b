"""Factorization into irreducibles, with constructive splitting witnesses.

Every non-zero non-unit off the hyperbolic diagonals factors into
irreducibles (the diagonals themselves contain no irreducibles, so they are
a hard error here).  Factorizations are not unique in the hyperbolic and
parabolic rings; :func:`factor` returns one deterministic choice with
canonical-associate factors sorted by norm.

Cost model: :func:`factor` factors one integer, or in the hyperbolic ring
two integers of about half the norm's size, and reads every irreducible
factor from that one factorization.  Nothing is derived twice: a norm is
computed from the coordinates, not through the ``eta`` properties, and
only a list of two or more factors is sorted.

* elliptic and hyperbolic: one :func:`classify` refuses zero, the units and
  the hyperbolic zero divisors, and recognises an irreducible element (of
  prime norm, or of the hyperbolic two-power form) with at most one
  primality test.  Such an element costs that verdict and its canonical
  associate.
* elliptic: otherwise the verdict has proven η⁺ composite, and
  ``int_factor(η⁺)`` runs once without testing it again.  A prime
  p ≡ 1 (mod 4) that does not divide gcd(x, y) has exactly one Gaussian
  prime dividing a, read from a by Cornacchia's descent on
  (p, x·y⁻¹ mod p) with no primality test; only the primes of the content
  take :func:`sum_two_squares`, and both of their primes are tried.  One
  :func:`divides` checks each factor as it is peeled, so a p of the
  content costs at most one failed division and any other p none.
* hyperbolic: otherwise, in the diagonal coordinates (u, v) = (x+y, x-y)
  the product is componentwise and η = uv, so ``int_factor(|u|)`` and
  ``int_factor(|v|)`` give every factor: (p, 1) for each odd prime of u,
  (1, p) for each odd prime of v, then copies of 2 = (2, 2) and one element
  of the irreducible form (2^γ+1) ± j(2^γ-1).  Each factor is built from
  coordinates whose parity agrees by construction; no division in the ring
  is needed.
* parabolic: no verdict off the axis, since ``int_factor(|x|)``, run once,
  shows whether the element is irreducible.  Each prime power p^g of x
  gives the piece p^g + kr with r ≡ y·(x/p^g)⁻¹ (mod p^g), and copies of p
  are peeled from a piece while it stays reducible.

The factors are the ones the recursion ``a = b·c`` through :func:`split`
reaches, down to the choice among the non-unique factorizations, and
:func:`prime_integer_behavior` reads its witness from ``split`` as well.
"""

from __future__ import annotations

from .classification import Classification, classify
from .core import (
    _ELLIPTIC, _HYPERBOLIC, _PARABOLIC, Element, RingError, RingKind, _cornacchia, _from_diagonal, _mk, _Record,
)
from .euclid import divides
from .integers import (
    _int_factor_composite, _strip_small, int_factor, is_prime_int, sum_two_squares, two_adic_valuation,
)


class ZeroDivisorFactorizationError(RingError):
    """The hyperbolic diagonals contain no irreducible elements."""


class FactorWitnessError(RingError):
    """A factor read from the norm's factorization failed its check in the ring."""


def _verdict(a: Element) -> Classification:
    """``classify(a)``, once zero, the units and the hyperbolic zero divisors are refused."""
    c = classify(a)
    if c.is_zero:
        raise ValueError("zero cannot be factored")
    if c.is_unit:
        raise ValueError("units cannot be factored")
    if c.is_zero_divisor and a.kind is _HYPERBOLIC:
        raise ZeroDivisorFactorizationError(
            "hyperbolic zero divisors have no irreducible factorization"
        )
    return c


# -- the irreducibles each ring reads from one integer factorization -------------


def _gaussian_primes(a: Element, p: int) -> tuple[Element, ...]:
    """The Gaussian primes over the integer prime p | N(a) that may divide a, in the order they are tried.

    Over 2 this is 1 + i, over p ≡ 3 (mod 4) it is p.  Over p ≡ 1 (mod 4),
    p = s² + t² with s > t > 0.  When p divides gcd(x, y) both primes may
    divide a: s + ti, then s - ti, with s and t from :func:`sum_two_squares`.
    Otherwise exactly one of them divides a, and it is read from a: r = x·y⁻¹
    mod p is a square root of -1, and Cornacchia's descent on (p, r) gives
    s + ti with s ≡ rt (mod p), the one that divides, since i ≡ -s/t modulo
    s + ti.  Its t may be negative: none of these is made canonical here.
    """
    kind = a.kind
    if p == 2:
        return (_mk(kind, 1, 1),)
    if p % 4 == 3:
        return (_mk(kind, p, 0),)
    x, y = a.x, a.y
    if x % p or y % p:
        s, t = _cornacchia(p, x * pow(y, -1, p) % p)
        return (_mk(kind, s, t),)
    s, t = sum_two_squares(p)
    return _mk(kind, s, t), _mk(kind, s, -t)


def _hyperbolic_peel(a: Element) -> tuple[int, int, list[tuple[int, int]]]:
    """a's diagonal coordinates (u, v) and those of its irreducible factors, in peeling order.

    Odd primes come first, ascending, (p, 1) before (1, p); then, if u and v
    are even, 2 = (2, 2) until the cofactor has the irreducible form
    (2^(γ+1), 2) or (2, 2^(γ+1)).  Every factor has positive diagonal
    coordinates, which makes it its own canonical associate.
    """
    u, v = a.x + a.y, a.x - a.y
    odd = sorted(
        [(p, 0, e) for p, e in int_factor(abs(u))[1] if p != 2]
        + [(p, 1, e) for p, e in int_factor(abs(v))[1] if p != 2]
    )
    peeled = [(1, p) if side else (p, 1) for p, side, e in odd for _ in range(e)]
    if not u & 1:  # u ≡ v (mod 2), so v is even as well
        a2, b2 = two_adic_valuation(u), two_adic_valuation(v)
        m = min(a2, b2)
        peeled += [(2, 2)] * (m - 1)
        peeled.append((2 << (a2 - m), 2 << (b2 - m)))
    return u, v, peeled


def _parabolic_residue(x: int, y: int, m: int) -> int:
    """r in [0, m) with ``m + kr`` the factor of ``x + ky`` (x > 0) at the prime power m of x."""
    return y * pow(x // m, -1, m) % m


# -- splitting ---------------------------------------------------------------


def split(a: Element) -> tuple[Element, Element] | None:
    """One nontrivial factorization ``a = b*c`` (neither factor a unit), or None.

    None means a is irreducible.  Otherwise b is the first witness below that
    divides a, and c is the exact quotient, unique because b has nonzero norm.
    Elliptic: a Gaussian prime over the least prime of η⁺.  Hyperbolic:
    the first factor :func:`factor` peels.  Parabolic, with s the sign of x:
    ``s·p`` when ``|x| = p^g``, else ``s·(m + kr)``, the piece :func:`factor`
    builds at the power m of the least prime of x; on the axis, ``ky = y * k``.

    Cost model: the verdict, then the least prime of η⁺, of |u| and |v|
    (odd), or of |x|.  A prime below 2¹² is read from one gcd with the
    product of those primes, and the rest of the number is never factored:
    about 12 µs for 5·p·q with p and q of 80 bits.  Only a number with no
    such prime takes a full factorization, as :func:`factor` does.
    """
    if _verdict(a).is_irreducible:
        return None
    kind = a.kind
    if kind is _ELLIPTIC:
        n = a.x * a.x + a.y * a.y
        small = _strip_small(n)[0]
        witnesses = _gaussian_primes(a, small[0][0] if small else _int_factor_composite(n)[1][0][0])
    elif kind is _HYPERBOLIC:
        # the odd primes below 2¹² of |u| (side 0) and |v| (side 1); the least, u's on a tie,
        # is the peel's first factor, and the peel factors u and v only when there is none
        u, v = a.x + a.y, a.x - a.y
        odd = [(p, side) for side, w in enumerate((u, v)) for p, _ in _strip_small(abs(w))[0] if p != 2]
        if odd:
            p, side = min(odd)
            witnesses = [_from_diagonal(1, p) if side else _from_diagonal(p, 1)]
        else:
            witnesses = [_from_diagonal(*_hyperbolic_peel(a)[2][0])]
    elif a.x == 0:
        witnesses = [_mk(kind, a.y, 0)]
    else:
        s = 1 if a.x > 0 else -1
        small, rest = _strip_small(s * a.x)
        if small:
            (p, g), power = small[0], len(small) == 1 and rest == 1
        else:
            x_primes = int_factor(a.x)[1]
            (p, g), power = x_primes[0], len(x_primes) == 1
        if power:  # |x| = p^g with g >= 2 and p | y
            witnesses = [_mk(kind, s * p, 0)]
        else:
            m = p**g
            witnesses = [_mk(kind, s * m, s * _parabolic_residue(s * a.x, s * a.y, m))]
    for b in witnesses:
        c = divides(b, a)
        if c is not None:
            return b, c
    raise FactorWitnessError(f"no witness read from the norm of {a} divides it")


class PrimeIntegerReport(_Record):
    """How an integer prime behaves when read inside one of the rings."""

    __slots__ = __match_args__ = ("is_prime_elt", "is_irreducible_elt", "witness")
    is_prime_elt: bool
    is_irreducible_elt: bool
    witness: tuple[Element, Element] | None

    def __init__(self, is_prime_elt: bool, is_irreducible_elt: bool, witness: tuple[Element, Element] | None) -> None:
        set_is_prime_elt, set_is_irreducible_elt, set_witness = self._setters
        set_is_prime_elt(self, is_prime_elt)
        set_is_irreducible_elt(self, is_irreducible_elt)
        set_witness(self, witness)


def prime_integer_behavior(p: int, kind: RingKind) -> PrimeIntegerReport:
    """Prime/irreducible status of the integer prime p in the given ring.

    The flags are :func:`classify`'s verdict on ``p + 0θ``; where p splits,
    the witness is :func:`split`'s pair, e.g. ``((n+1)+jn)((n+1)-jn)`` for
    p = 2n+1 in the hyperbolic ring, a conjugate pair in the Gaussian one.
    """
    if not is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    z = Element(kind, p, 0)
    c = classify(z)
    return PrimeIntegerReport(c.is_prime, c.is_irreducible, split(z))


# -- full factorization -------------------------------------------------------


class Factorization(_Record):
    """``unit * product(factors) == value``, every factor irreducible and canonical.

    ``axis_extension`` flags the parabolic zero divisors, whose
    factorization (through ``ky = y*k``) goes beyond the existence
    guarantee that covers elements of nonzero norm.
    """

    __slots__ = __match_args__ = ("unit", "factors", "axis_extension")
    unit: Element
    factors: tuple[Element, ...]
    axis_extension: bool

    def __init__(self, unit: Element, factors: tuple[Element, ...], axis_extension: bool = False) -> None:
        set_unit, set_factors, set_axis_extension = self._setters
        set_unit(self, unit)
        set_factors(self, factors)
        set_axis_extension(self, axis_extension)

    def product(self) -> Element:
        acc = self.unit
        for f in self.factors:
            acc = acc * f
        return acc


def _irreducible(a: Element) -> tuple[Element, list[Element]]:
    canonical, u = a.canonical_associate()
    # u's inverse: each hyperbolic unit ±1, ±j is its own, the others have η = 1 and it is ū
    return (u if a.kind is _HYPERBOLIC else _mk(a.kind, u.x, -u.y)), [canonical]


def _factor_elliptic(a: Element) -> tuple[Element, list[Element]]:
    rest, factors = a, []
    for p, e in _int_factor_composite(a.x * a.x + a.y * a.y)[1]:
        copies = e // 2 if p % 4 == 3 else e  # p ≡ 3 (mod 4) has norm p²
        # a prime over p that does not divide rest does not divide its cofactors either,
        # so each is peeled while it divides, the first one first
        for prime in _gaussian_primes(a, p):
            s, t = prime.x, prime.y  # s > 0; i·(s + ti) = -t + si is canonical when t < 0
            c = prime if t >= 0 else _mk(prime.kind, -t, s)
            while copies and (q := divides(c, rest)) is not None:
                factors.append(c)
                rest = q
                copies -= 1
        if copies:
            raise FactorWitnessError(f"no Gaussian prime over {p} divides {rest}")
    if rest.x * rest.x + rest.y * rest.y != 1:
        raise FactorWitnessError(f"{a} leaves the non-unit {rest} after its norm's primes")
    return rest, factors


def _factor_hyperbolic(a: Element) -> tuple[Element, list[Element]]:
    u, v, peeled = _hyperbolic_peel(a)
    unit = _from_diagonal(1 if u > 0 else -1, 1 if v > 0 else -1)
    return unit, [_from_diagonal(fu, fv) for fu, fv in peeled]


def _factor_parabolic(a: Element) -> tuple[Element, list[Element]]:
    kind = a.kind
    if a.x == 0:  # ky = y * k, |y| >= 2
        unit, factors = _factor_parabolic(_mk(kind, a.y, 0))
        return unit, [*factors, _mk(kind, 0, 1)]
    sign = 1 if a.x > 0 else -1
    x, y = sign * a.x, sign * a.y
    factors, y_product = [], 0
    for p, g in int_factor(x)[1]:
        m = p**g
        r = _parabolic_residue(x, y, m)
        y_product += r * (x // m)  # the piece m + kr contributes r·x/m to the product's k part
        # p^(g-c) + k·r/p^c stays reducible while g-c >= 2 and p | r/p^c
        copies = 0
        while copies < g - 1 and r % p == 0:
            r //= p
            copies += 1
        if copies:
            factors += [_mk(kind, p, 0)] * copies
        factors.append(_mk(kind, p ** (g - copies) if copies else m, r))
    # a = (sign + kt)(x + k·y_product)
    t, rem = divmod(a.y - sign * y_product, x)
    if rem:
        raise FactorWitnessError(f"the pieces of {a} multiply to {x}+{y_product}k, not an associate")
    return _mk(kind, sign, t), factors


_FACTOR = {
    _ELLIPTIC: _factor_elliptic,
    _HYPERBOLIC: _factor_hyperbolic,
    _PARABOLIC: _factor_parabolic,
}


def factor(a: Element) -> Factorization:
    """Factorization into irreducibles, deterministic up to the stated ordering."""
    kind = a.kind
    if kind is _PARABOLIC and abs(a.x) > 1:
        # neither zero nor a unit, and factoring x shows whether a is irreducible,
        # which the verdict would test again
        unit, factors = _factor_parabolic(a)
    elif _verdict(a).is_irreducible:
        unit, factors = _irreducible(a)
    else:
        unit, factors = _FACTOR[kind](a)
    if len(factors) > 1:
        mu = kind.mu
        factors.sort(key=lambda f: (abs(f.x * f.x - mu * f.y * f.y), f.x, f.y))
    return Factorization(unit, tuple(factors), kind is _PARABOLIC and a.x == 0)


__all__ = [
    "Factorization",
    "PrimeIntegerReport",
    "ZeroDivisorFactorizationError",
    "factor",
    "prime_integer_behavior",
    "split",
]
