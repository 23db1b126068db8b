"""Factorization into irreducibles, with constructive splitting witnesses.

Every non-zero non-unit off the hyperbolic diagonals factors into
irreducibles (the diagonals themselves contain no irreducibles, so they are
a hard error here).  Factorizations are not unique in the hyperbolic and
parabolic rings; :func:`factor` returns one deterministic choice with
canonical-associate factors sorted by norm.

Cost model: :func:`factor` factors one integer, or in the hyperbolic ring
two integers of about half the norm's size, and reads every irreducible
factor from that one factorization:

* elliptic and hyperbolic: an irreducible element of prime norm (or of the
  hyperbolic two-power form) is recognised by :mod:`planeint.classification`
  from one primality test of its norm.
* elliptic: otherwise ``int_factor(η⁺)`` runs once, :func:`sum_two_squares`
  once per distinct prime p ≡ 1 (mod 4), and one :func:`divides` peels each
  factor (two when a + bi does not divide and a - bi does).
* hyperbolic: otherwise, in the diagonal coordinates (u, v) = (x+y, x-y)
  the product is componentwise and η = uv, so ``int_factor(|u|)`` and
  ``int_factor(|v|)`` give every factor: (p, 1) for each odd prime of u,
  (1, p) for each odd prime of v, then copies of 2 = (2, 2) and one element
  of the irreducible form (2^γ+1) ± j(2^γ-1).  No division in the ring is
  needed.
* parabolic: ``int_factor(|x|)`` runs once.  Each prime power p^g of x gives
  the piece p^g + kr with r ≡ y·(x/p^g)⁻¹ (mod p^g), and copies of p are
  peeled from a piece while it stays reducible.

The factors are the ones the recursion ``a = b·c`` through :func:`split`
reaches, down to the choice among the non-unique factorizations.
"""

from __future__ import annotations

from .classification import is_irreducible
from .core import (
    _ELLIPTIC,
    _HYPERBOLIC,
    _PARABOLIC,
    Element,
    RingError,
    RingKind,
    _mk,
    _Record,
    diagonal_coords,
    from_diagonal_coords,
)
from .euclid import divides
from .integers import int_factor, sum_two_squares, two_adic_valuation


class ZeroDivisorFactorizationError(RingError):
    """The hyperbolic diagonals contain no irreducible elements."""


class FactorWitnessError(RingError):
    """A factor read from the norm's factorization failed its check in the ring."""


def _check_splittable(a: Element) -> None:
    if not a:
        raise ValueError("zero cannot be factored")
    if a.is_unit():
        raise ValueError("units cannot be factored")
    if a.kind is _HYPERBOLIC and a.eta == 0:
        raise ZeroDivisorFactorizationError(
            "hyperbolic zero divisors have no irreducible factorization"
        )


# -- the irreducibles each ring reads from one integer factorization -------------


def _gaussian_primes(kind: RingKind, p: int) -> tuple[Element, ...]:
    """The Gaussian primes over the integer prime p, in the order they are tried."""
    if p == 2:
        return (_mk(kind, 1, 1),)
    if p % 4 == 3:
        return (_mk(kind, p, 0),)
    s, t = sum_two_squares(p)
    return _mk(kind, s, t), _mk(kind, s, -t)


def _hyperbolic_peel(a: Element) -> tuple[int, int, list[tuple[int, int]]]:
    """a's diagonal coordinates (u, v) and those of its irreducible factors, in peeling order.

    Odd primes come first, ascending, (p, 1) before (1, p); then, if u and v
    are even, 2 = (2, 2) until the cofactor has the irreducible form
    (2^(γ+1), 2) or (2, 2^(γ+1)).  Every factor has positive diagonal
    coordinates, which makes it its own canonical associate.
    """
    u, v = diagonal_coords(a)
    odd = sorted(
        [(p, 0, e) for p, e in int_factor(abs(u))[1] if p != 2]
        + [(p, 1, e) for p, e in int_factor(abs(v))[1] if p != 2]
    )
    peeled = [(1, p) if side else (p, 1) for p, side, e in odd for _ in range(e)]
    a2, b2 = two_adic_valuation(u), two_adic_valuation(v)
    if a2:  # u ≡ v (mod 2), so b2 > 0 as well
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
    Elliptic: a Gaussian prime over the primes of η⁺, ascending.  Hyperbolic:
    the first factor :func:`factor` peels.  Parabolic, with s the sign of x:
    ``s·p`` when ``|x| = p^g``, else ``s·(m + kr)``, the piece :func:`factor`
    builds at the power m of the least prime of x; on the axis, ``ky = y * k``.
    """
    _check_splittable(a)
    if is_irreducible(a):
        return None
    kind = a.kind
    if kind is _ELLIPTIC:
        witnesses = (c for p, _ in int_factor(a.eta_plus)[1] for c in _gaussian_primes(kind, p))
    elif kind is _HYPERBOLIC:
        witnesses = [from_diagonal_coords(*_hyperbolic_peel(a)[2][0])]
    elif a.x == 0:
        witnesses = [_mk(kind, a.y, 0)]
    else:
        s = 1 if a.x > 0 else -1
        x_primes = int_factor(a.x)[1]
        p, g = x_primes[0]
        if len(x_primes) == 1:  # |x| = p^g with g >= 2 and p | y
            witnesses = [_mk(kind, s * p, 0)]
        else:
            m = p**g
            witnesses = [_mk(kind, s * m, s * _parabolic_residue(s * a.x, s * a.y, m))]
    for b in witnesses:
        c = divides(b, a)
        if c is not None:
            return b, c
    raise FactorWitnessError(f"no witness read from the norm of {a} divides it")


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
    return u.inverse(), [canonical]


def _factor_elliptic(a: Element) -> tuple[Element, list[Element]]:
    if is_irreducible(a):
        return _irreducible(a)
    rest, factors = a, []
    for p, e in int_factor(a.eta_plus)[1]:
        primes = [c.canonical_associate()[0] for c in _gaussian_primes(a.kind, p)]
        for _ in range(e // 2 if p % 4 == 3 else e):  # p ≡ 3 (mod 4) has norm p²
            for c in primes:
                q = divides(c, rest)
                if q is not None:
                    break
            else:
                raise FactorWitnessError(f"no Gaussian prime over {p} divides {rest}")
            factors.append(c)
            rest = q
    if not rest.is_unit():
        raise FactorWitnessError(f"{a} leaves the non-unit {rest} after its norm's primes")
    return rest, factors


def _factor_hyperbolic(a: Element) -> tuple[Element, list[Element]]:
    if is_irreducible(a):
        return _irreducible(a)
    u, v, peeled = _hyperbolic_peel(a)
    unit = from_diagonal_coords(1 if u > 0 else -1, 1 if v > 0 else -1)
    return unit, [from_diagonal_coords(fu, fv) for fu, fv in peeled]


def _factor_parabolic(a: Element) -> tuple[Element, list[Element]]:
    kind = a.kind
    if a.x == 0:  # ky = y * k
        if abs(a.y) == 1:
            return _irreducible(a)
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
        factors += [_mk(kind, p, 0)] * copies
        factors.append(_mk(kind, p ** (g - copies), r))
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
    _check_splittable(a)
    unit, factors = _FACTOR[a.kind](a)
    factors.sort(key=lambda f: (f.eta_plus, f.x, f.y))
    return Factorization(unit, tuple(factors), a.kind is _PARABOLIC and a.eta == 0)


__all__ = [
    "Factorization",
    "ZeroDivisorFactorizationError",
    "factor",
    "split",
]
