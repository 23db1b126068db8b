"""Prime and irreducible classification without search.

The decision procedures here are closed-form characterizations, one per
ring; the brute-force counterparts live in :mod:`planeint.oracle` and the
test suite checks that both agree on exhaustive boxes.

Highlights of the landscape these rules encode:

* Gaussian integers: prime == irreducible (the ring has unique
  factorization); the irreducibles are the elements of prime norm plus the
  integer primes ``p ≡ 3 (mod 4)`` and their associates.
* hyperbolic integers: the primes are the associates of ``1±j`` (inside the
  zero-divisor diagonals, where they are nevertheless *reducible*) and the
  elements of prime norm outside; the irreducible non-primes are exactly the
  associates of ``(2^γ+1) ± j(2^γ-1)``.
* parabolic integers: the only primes are ``±k``; off the axis an element
  ``x + ky`` (taken with x > 0) is irreducible iff x is prime, or x is a
  prime power ``p^γ`` (γ >= 2) with ``p ∤ y``.

Each ring's rule is stated once, in ``_verdict``; :func:`is_prime`,
:func:`is_irreducible`, :func:`classify`, :func:`prime_integer_behavior` and
:func:`planeint.factorization.split` all read their answer from it.

Cost model: a Gaussian or hyperbolic verdict makes one primality test, of
the norm (of the integer on the Gaussian axes).  A parabolic verdict reads
an x below 2¹⁶ from a table and never factors a larger one: ``_prime_power``
strips the primes below 2¹² with one gcd, makes one primality test of what
is left, and tries a few exact integer roots only when that is composite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Element, RingKind, _Record, _setfield
from .integers import _prime_power, is_prime_int, sum_two_squares


# the package's one dataclass: callers may use dataclasses.replace on a verdict
@dataclass(frozen=True, slots=True)
class Classification:
    """Joint unit / zero-divisor / prime / irreducible verdict for one element.

    Prime, irreducible and reducible are meaningful only for non-zero
    non-units; for zero and for units all three are False.  For non-zero
    non-units ``is_reducible == not is_irreducible``.
    """

    is_zero: bool
    is_unit: bool
    is_zero_divisor: bool
    is_prime: bool
    is_irreducible: bool
    is_reducible: bool


class IrreducibleForm(_Record):
    """The hyperbolic irreducible non-prime family ``(2^γ+1) ± j(2^γ-1)``."""

    __slots__ = __match_args__ = ("gamma", "sign_y")
    gamma: int
    sign_y: int

    def __init__(self, gamma: int, sign_y: int) -> None:
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if sign_y not in (-1, 1):
            raise ValueError("sign_y must be ±1")
        _setfield(self, "gamma", gamma)
        _setfield(self, "sign_y", sign_y)

    def element(self) -> Element:
        half = 1 << self.gamma
        return Element(RingKind.HYPERBOLIC, half + 1, self.sign_y * (half - 1))


def _verdict(z: Element) -> tuple[bool, bool]:
    """``(prime, irreducible)`` for a nonzero non-unit z."""
    if z.kind is RingKind.PARABOLIC:
        if z.x == 0:
            return abs(z.y) == 1, abs(z.y) == 1
        # off the axis: |x| = p, or |x| = p^g with p ∤ y
        power = _prime_power(abs(z.x))
        return False, power is not None and (power[1] == 1 or z.y % power[0] != 0)
    ep = z.eta_plus
    if z.kind is RingKind.HYPERBOLIC:
        if ep == 0:
            return abs(z.x) == 1, False  # on the diagonals |x| == |y|
        if is_prime_int(ep):
            return True, True
        if ep < 4 or ep & (ep - 1):
            return False, False
        # the irreducible non-primes of norm 2^(γ+2) are the associates ±z, ±jz
        # of (2^γ+1) ± j(2^γ-1), i.e. {|x|, |y|} == {2^γ+1, 2^γ-1}
        half = ep >> 2
        return False, {abs(z.x), abs(z.y)} == {half + 1, half - 1}
    # elliptic: prime norm, or an associate of an integer prime p ≡ 3 (mod 4)
    if z.x and z.y:
        prime = is_prime_int(ep)
    else:
        n = abs(z.x + z.y)
        prime = n % 4 == 3 and is_prime_int(n)
    return prime, prime


def is_prime(z: Element) -> bool:
    """Prime in the ring-theoretic sense: ``p | ab`` forces ``p | a`` or ``p | b``."""
    return bool(z) and not z.is_unit() and _verdict(z)[0]


def is_irreducible(z: Element) -> bool:
    """Irreducible: every factorization has a unit factor."""
    return bool(z) and not z.is_unit() and _verdict(z)[1]


def classify(z: Element) -> Classification:
    """Joint verdict; zero and units carry no prime/irreducible/reducible flags."""
    if not z:
        return Classification(True, False, True, False, False, False)
    if z.is_unit():
        return Classification(False, True, False, False, False, False)
    prime, irr = _verdict(z)
    return Classification(False, False, z.is_zero_divisor(), prime, irr, not irr)


class PrimeIntegerReport(_Record):
    """How an integer prime behaves when read inside one of the rings."""

    __slots__ = __match_args__ = ("is_prime_elt", "is_irreducible_elt", "witness")
    is_prime_elt: bool
    is_irreducible_elt: bool
    witness: tuple[Element, Element] | None

    def __init__(
        self, is_prime_elt: bool, is_irreducible_elt: bool, witness: tuple[Element, Element] | None
    ) -> None:
        _setfield(self, "is_prime_elt", is_prime_elt)
        _setfield(self, "is_irreducible_elt", is_irreducible_elt)
        _setfield(self, "witness", witness)


def prime_integer_behavior(p: int, kind: RingKind) -> PrimeIntegerReport:
    """Prime/irreducible status of the integer prime p in the given ring.

    Where p splits, a witness pair of non-unit factors with product p is
    returned: ``((n+1)+jn)((n+1)-jn)`` for odd p in the hyperbolic ring, a
    conjugate pair from the two-squares representation in the Gaussian one.
    """
    if not is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    prime, irreducible = _verdict(Element(kind, p, 0))
    witness = None
    if not irreducible and kind is RingKind.HYPERBOLIC:
        n = (p - 1) // 2
        witness = (Element(kind, n + 1, n), Element(kind, n + 1, -n))
    elif not irreducible:  # elliptic: p = (a + ib)(a - ib)
        a, b = sum_two_squares(p)
        witness = (Element(kind, a, b), Element(kind, a, -b))
    return PrimeIntegerReport(prime, irreducible, witness)


__all__ = [
    "Classification",
    "IrreducibleForm",
    "PrimeIntegerReport",
    "classify",
    "is_irreducible",
    "is_prime",
    "prime_integer_behavior",
]
