"""Brute-force ground truth for divisibility, irreducibility and primality.

Nothing here relies on the closed-form rules in :mod:`planeint.classification`;
divisor sets are enumerated exactly from the ring structure, so these
routines can referee the fast classifiers.

Enumeration strategies, one per ring:

* hyperbolic: in diagonal coordinates ``(x+y, x-y)`` multiplication is
  componentwise and the ring is the equal-parity sublattice, so divisors of
  z correspond to integer divisor pairs of its diagonal coordinates with two
  parity constraints.  Diagonal elements themselves have infinitely many
  divisors and are rejected.
* parabolic: a divisor of ``x + ky`` with ``x != 0`` has real part dividing
  x, and its k-part only matters modulo the real part; existence of the
  cofactor is one linear congruence.  Axis elements ``ky`` keep finitely
  many divisor classes as well.
* elliptic: divisor norms divide the norm, and each candidate norm has only
  a handful of representations as a sum of two squares.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from math import isqrt

from .core import (
    _ELLIPTIC,
    _HYPERBOLIC,
    _PARABOLIC,
    Element,
    RingError,
    RingKind,
    _Record,
    diagonal_coords,
    from_diagonal_coords,
)
from .euclid import divides


class InfiniteDivisorSetError(RingError):
    """Hyperbolic diagonal elements have infinitely many divisor classes."""


class Verdict(Enum):
    CONFIRMED = "confirmed"
    REFUTED = "refuted"
    NO_COUNTEREXAMPLE_FOUND = "no_counterexample_found"


class OracleVerdict(_Record):
    """A brute-force verdict, with the factor pair that refutes primality or irreducibility."""

    __slots__ = __match_args__ = ("verdict", "witness")
    verdict: Verdict
    witness: tuple[Element, Element] | None

    def __init__(self, verdict: Verdict, witness: tuple[Element, Element] | None = None) -> None:
        set_verdict, set_witness = self._setters
        set_verdict(self, verdict)
        set_witness(self, witness)


def _int_divisors(n: int) -> list[int]:
    """Positive divisors of |n|, ascending."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _candidates_hyperbolic(z: Element) -> Iterator[Element]:
    u0, v0 = diagonal_coords(z)
    au, av = abs(u0), abs(v0)
    pairs = []
    for u in _int_divisors(au):
        for v in _int_divisors(av):
            if (u - v) % 2 == 0 and (au // u - av // v) % 2 == 0:
                pairs.append((u * v, u, v))
    pairs.sort()
    for _, u, v in pairs:
        yield from_diagonal_coords(u, v)


def _candidates_parabolic(z: Element) -> Iterator[Element]:
    kind = z.kind
    if z.x == 0:
        # ky = (m + kr)(k(y/m)) for every m | y and every r; plus the axis divisors
        for m in _int_divisors(z.y):
            for r in range(m):
                yield Element(kind, m, r)
        for t in _int_divisors(z.y):
            yield Element(kind, 0, t)
        return
    for m in _int_divisors(z.x):
        n = z.x // m
        for r in range(m):
            if (z.y - n * r) % m == 0:
                yield Element(kind, m, r)


def _candidates_elliptic(z: Element) -> Iterator[Element]:
    ep = z.eta_plus
    for m in _int_divisors(ep):
        for a in range(1, isqrt(m) + 1):
            rest = m - a * a
            b = isqrt(rest)
            if b * b == rest:
                c = Element(z.kind, a, b)
                if divides(c, z) is not None:
                    yield c


def _divisor_classes(z: Element) -> Iterator[Element]:
    if not z:
        raise ValueError("zero has every element as a divisor")
    if z.kind is _HYPERBOLIC:
        if z.eta == 0:
            raise InfiniteDivisorSetError(f"{z} lies on a diagonal")
        return _candidates_hyperbolic(z)
    if z.kind is _PARABOLIC:
        return _candidates_parabolic(z)
    return _candidates_elliptic(z)


def divisors(z: Element) -> list[Element]:
    """All divisors of z, one canonical representative per associate class."""
    out = sorted(set(_divisor_classes(z)), key=lambda d: (d.eta_plus, d.x, d.y))
    return out


def oracle_irreducible(z: Element) -> bool:
    """Irreducibility by exhaustive divisor enumeration."""
    if not z or z.is_unit():
        raise ValueError("irreducibility concerns non-zero non-units")
    unit_class = Element(z.kind, 1, 0)
    own_class = z.canonical_associate()[0]
    for d in _divisor_classes(z):
        if d != unit_class and d != own_class:
            return False
    return True


def _box_elements(kind: RingKind, box: int) -> list[Element]:
    elems = [
        Element(kind, x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if x or y
    ]
    elems.sort(key=lambda e: (max(abs(e.x), abs(e.y)), -e.x, -e.y))
    return elems


def oracle_prime(z: Element, box: int) -> OracleVerdict:
    """Refutation search for primality over all pairs with coordinates in [-box, box].

    Sound for refutation only: a returned witness ``(a, b)`` really does
    satisfy ``z | ab`` with ``z ∤ a`` and ``z ∤ b``; absence of a witness in
    the box proves nothing.  Conjugate zero-divisor pairs (whose product is
    zero) are scanned first, so refutations of integer primes surface with
    the classic witness shape.
    """
    if not z or z.is_unit():
        raise ValueError("primality concerns non-zero non-units")

    def divisible(w: Element) -> bool:
        return divides(z, w) is not None

    kind = z.kind
    if kind is not _ELLIPTIC:
        for t in range(1, box + 1):
            ds = [Element(kind, t, t), Element(kind, t, -t)]
            if kind is _PARABOLIC:
                ds = [Element(kind, 0, t)]
            for d in ds:
                dc = d.conj()
                if not divisible(d) and not divisible(dc):
                    return OracleVerdict(Verdict.REFUTED, (d, dc))  # product is 0

    elems = _box_elements(kind, box)
    non_multiples = [a for a in elems if not divisible(a)]
    for a in non_multiples:
        for b in non_multiples:
            if divisible(a * b):
                return OracleVerdict(Verdict.REFUTED, (a, b))
    return OracleVerdict(Verdict.NO_COUNTEREXAMPLE_FOUND)


__all__ = [
    "InfiniteDivisorSetError",
    "OracleVerdict",
    "Verdict",
    "divisors",
    "oracle_irreducible",
    "oracle_prime",
]
