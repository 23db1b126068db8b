"""Prime and irreducible classification without search.

The decision procedures here are closed-form characterizations, one per
ring; the brute-force counterparts live in :mod:`planeint.oracle` and the
test suite checks that both agree on exhaustive boxes.

Highlights of the landscape these rules encode:

* Gaussian integers: prime == irreducible (the ring has unique
  factorization); the irreducibles are the elements of prime norm plus the
  integer primes ``p ≡ 3 (mod 4)`` and their associates.
* hyperbolic integers: read in the diagonal coordinates u = x + y and
  v = x - y, where products are componentwise and η = uv.  The primes are
  the associates of ``1±j`` (inside the zero-divisor diagonals uv = 0,
  where they are nevertheless *reducible*) and, outside, the elements with
  one of |u|, |v| equal to 1 and the other prime; the irreducible
  non-primes are exactly the associates of ``(2^γ+1) ± j(2^γ-1)``, where
  {|u|, |v|} = {2, 2^(γ+1)}.
* parabolic integers: the only primes are ``±k``; off the axis an element
  ``x + ky`` (taken with x > 0) is irreducible iff x is prime, or x is a
  prime power ``p^γ`` (γ >= 2) with ``p ∤ y``.

Each ring's rule, and the rule that zero and units carry no prime or
irreducible flag, is stated once, in :func:`classify`.  :func:`is_prime`,
:func:`is_irreducible`, :func:`planeint.factorization.split` and
:func:`planeint.factorization.prime_integer_behavior` read their answer from
its verdict.

Cost model: :func:`classify` computes the norm once, from x, y and θ², and
builds no record: it returns one of a fixed set of interned
``Classification`` instances (zero, units, and one per
zero-divisor/prime/irreducible triple), so equal verdicts are the same
object.  :func:`is_prime` and :func:`is_irreducible` cost one ``classify``.
A Gaussian verdict makes one primality test, of the norm (of the integer on
the axes).  A hyperbolic verdict makes one, of the larger diagonal
coordinate, only when the other is ±1; with both at least 2 it makes none,
since their product is composite, and only checks for the two-power form.
A parabolic verdict reads an x below 2¹⁶ from a table and never factors a
larger one: ``_prime_power`` takes one gcd with the product of the primes
below 2¹², which answers at once when x has two of them and leaves a single
one to divide out; an x with none gets one primality test, and a few exact
integer roots only when it is composite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _HYPERBOLIC, _PARABOLIC, Element, _Record
from .integers import _prime_power, is_prime_int


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
        set_gamma, set_sign_y = self._setters
        set_gamma(self, gamma)
        set_sign_y(self, sign_y)

    def element(self) -> Element:
        half = 1 << self.gamma
        return Element(_HYPERBOLIC, half + 1, self.sign_y * (half - 1))


# classify's verdicts, interned: classify returns one of these, never a new one
_ZERO = Classification(True, False, True, False, False, False)
_UNIT = Classification(False, True, False, False, False, False)
# _VERDICTS[zero_divisor][prime][irreducible], indexed by bools
_VERDICTS = tuple(
    tuple(
        tuple(Classification(False, False, zd, prime, irr, not irr) for irr in (False, True))
        for prime in (False, True)
    )
    for zd in (False, True)
)


def classify(z: Element) -> Classification:
    """Joint verdict; zero and units carry no prime/irreducible/reducible flags.

    The norm is computed once, and the result is one of the module's interned
    ``Classification`` instances: equal verdicts are the same object.
    """
    x, y, kind = z.x, z.y, z.kind
    ep = abs(x * x - kind.mu * y * y)
    if ep == 1:
        return _UNIT
    if not (x or y):
        return _ZERO
    if kind is _PARABOLIC:
        if x == 0:
            prime = irr = abs(y) == 1
        else:
            # off the axis: |x| = p, or |x| = p^g with p ∤ y
            power = _prime_power(abs(x))
            prime, irr = False, power is not None and (power[1] == 1 or y % power[0] != 0)
    elif kind is _HYPERBOLIC:
        # lo <= hi are |u|, |v| for the diagonal coordinates u = x+y, v = x-y, with η = uv
        lo, hi = abs(x + y), abs(x - y)
        if lo > hi:
            lo, hi = hi, lo
        if lo == 0:
            prime, irr = hi == 2, False  # on the diagonals only the associates of 1 ± j are prime
        elif lo == 1:
            prime = irr = is_prime_int(hi)
        else:
            # two non-unit coordinates: the irreducible non-primes are the associates
            # of (2^γ+1) ± j(2^γ-1), i.e. {lo, hi} == {2, 2^(γ+1)}
            prime, irr = False, lo == 2 and not hi & (hi - 1)
    elif x and y:  # elliptic: prime norm, or an associate of an integer prime p ≡ 3 (mod 4)
        prime = irr = is_prime_int(ep)
    else:
        n = abs(x + y)
        prime = irr = n % 4 == 3 and is_prime_int(n)
    return _VERDICTS[ep == 0][prime][irr]


def is_prime(z: Element) -> bool:
    """Prime in the ring-theoretic sense: ``p | ab`` forces ``p | a`` or ``p | b``."""
    return classify(z).is_prime


def is_irreducible(z: Element) -> bool:
    """Irreducible: every factorization has a unit factor."""
    return classify(z).is_irreducible


__all__ = [
    "Classification",
    "IrreducibleForm",
    "classify",
    "is_irreducible",
    "is_prime",
]
