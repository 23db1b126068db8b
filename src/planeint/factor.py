"""Factorization into irreducibles, with constructive splitting witnesses.

Every non-zero non-unit off the hyperbolic diagonals factors into
irreducibles (the diagonals themselves contain no irreducibles, so they are
a hard error here).  Factorizations are not unique in the hyperbolic and
parabolic rings; :func:`factor` returns one deterministic choice with
canonical-associate factors sorted by norm.

:func:`split` decides irreducibility through :mod:`planeint.classify`; the
``_split_*`` helpers only build the witness for an element already known
to be reducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import _parabolic_irreducible, is_irreducible
from .core import Element, RingError, RingKind
from .euclid import divides
from .integers import int_factor, sum_two_squares


class ZeroDivisorFactorizationError(RingError):
    """The hyperbolic diagonals contain no irreducible elements."""


# -- splitting ---------------------------------------------------------------


def _check_splittable(a: Element) -> None:
    if not a:
        raise ValueError("zero cannot be factored")
    if a.is_unit():
        raise ValueError("units cannot be factored")
    if a.kind is RingKind.HYPERBOLIC and a.eta == 0:
        raise ZeroDivisorFactorizationError(
            "hyperbolic zero divisors have no irreducible factorization"
        )


def _split_hyperbolic(a: Element) -> tuple[Element, Element]:
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


def _split_parabolic(a: Element, x_primes: list[tuple[int, int]]) -> tuple[Element, Element]:
    """Witness for a reducible ``x + ky`` with x != 0, given the prime factorization of |x|."""
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


def _split_elliptic(a: Element) -> tuple[Element, Element]:
    candidates: list[Element] = []
    for p, _ in int_factor(a.eta_plus)[1]:
        if p == 2:
            candidates.append(Element(a.kind, 1, 1))
        elif p % 4 == 1:
            rs = sum_two_squares(p)
            assert rs is not None
            candidates.append(Element(a.kind, rs[0], rs[1]))
            candidates.append(Element(a.kind, rs[0], -rs[1]))
        else:
            candidates.append(Element(a.kind, p, 0))
    for c in candidates:
        q = divides(c, a)
        if q is not None:
            return c, q
    raise AssertionError("a reducible element has a Gaussian prime divisor")


def split(a: Element) -> tuple[Element, Element] | None:
    """One nontrivial factorization ``a = b*c`` (neither factor a unit), or None.

    None means a is irreducible.  Parabolic inputs on the axis are split as
    ``ky = y * k`` when ``|y| > 1``.
    """
    _check_splittable(a)
    if a.kind is RingKind.PARABOLIC and a.x:
        # the verdict and the witness read the same factorization of x
        x_primes = int_factor(a.x)[1]
        return None if _parabolic_irreducible(x_primes, a.y) else _split_parabolic(a, x_primes)
    if is_irreducible(a):
        return None
    if a.kind is RingKind.HYPERBOLIC:
        return _split_hyperbolic(a)
    if a.kind is RingKind.PARABOLIC:  # on the axis: ky = y * k
        return Element(a.kind, a.y, 0), Element(a.kind, 0, 1)
    return _split_elliptic(a)


# -- full factorization -------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """``unit * product(factors) == value``, every factor irreducible and canonical.

    ``axis_extension`` flags the parabolic zero divisors, whose
    factorization (through ``ky = y*k``) goes beyond the existence
    guarantee that covers elements of nonzero norm.
    """

    unit: Element
    factors: tuple[Element, ...]
    axis_extension: bool = field(default=False)

    def product(self) -> Element:
        acc = self.unit
        for f in self.factors:
            acc = acc * f
        return acc


def _factor_rec(a: Element) -> tuple[Element, list[Element]]:
    pair = split(a)
    if pair is None:
        canonical, u = a.canonical_associate()
        return u.inverse(), [canonical]
    u1, f1 = _factor_rec(pair[0])
    u2, f2 = _factor_rec(pair[1])
    return u1 * u2, f1 + f2


def factor(a: Element) -> Factorization:
    """Factorization into irreducibles, deterministic up to the stated ordering."""
    _check_splittable(a)
    extension = a.kind is RingKind.PARABOLIC and a.eta == 0
    unit, factors = _factor_rec(a)
    factors.sort(key=lambda f: (f.eta_plus, f.x, f.y))
    return Factorization(unit, tuple(factors), extension)


__all__ = [
    "Factorization",
    "ZeroDivisorFactorizationError",
    "factor",
    "split",
]
