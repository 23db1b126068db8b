"""Classification of general quadratic quotients onto the three canonical rings.

A ring presented either as ``R[x]/(ax² + bx + c)`` or directly by
``θ² = α + θβ`` is isomorphic to exactly one of the canonical structures;
the sign of the discriminant (``b² - 4ac`` resp. ``β² + 4α``) decides which.
Arithmetic here is exact over rationals; only the canonicalizing change of
basis involves floats, because it scales by ``√|D|/2``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .core import _ELLIPTIC, _HYPERBOLIC, _PARABOLIC, RingKind, _Record

RationalLike = Fraction | int | str

Pair = tuple[Fraction, Fraction]


def _frac(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class GeneralParams(_Record):
    """Structure constants of ``θ² = α + θβ``."""

    __slots__ = __match_args__ = ("alpha", "beta")
    alpha: Fraction
    beta: Fraction

    def __init__(self, alpha: RationalLike, beta: RationalLike) -> None:
        set_alpha, set_beta = self._setters
        set_alpha(self, _frac(alpha))
        set_beta(self, _frac(beta))

    @property
    def disc(self) -> Fraction:
        """Discriminant ``β² + 4α``, always recomputed."""
        return self.beta * self.beta + 4 * self.alpha

    @property
    def kind(self) -> RingKind:
        return _kind_of_disc(self.disc)


class QuadraticPoly(_Record):
    """Coefficients of ``ax² + bx + c`` with ``a != 0``."""

    __slots__ = __match_args__ = ("a", "b", "c")
    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike) -> None:
        set_a, set_b, set_c = self._setters
        set_a(self, _frac(a))
        set_b(self, _frac(b))
        set_c(self, _frac(c))
        if self.a == 0:
            raise ValueError("degenerate polynomial: leading coefficient is zero")

    @property
    def disc(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def params(self) -> GeneralParams:
        """The structure constants of the quotient: ``θ² = (-c/a) + θ(-b/a)``."""
        return GeneralParams(-self.c / self.a, -self.b / self.a)


def _kind_of_disc(disc: Fraction) -> RingKind:
    if disc < 0:
        return _ELLIPTIC
    if disc > 0:
        return _HYPERBOLIC
    return _PARABOLIC


def classify_quadratic(poly: QuadraticPoly) -> RingKind:
    """Canonical structure of ``R[x]/(ax² + bx + c)`` by the sign of ``b² - 4ac``."""
    return _kind_of_disc(poly.disc)


def general_mul(params: GeneralParams, z: Pair, w: Pair) -> Pair:
    """Exact product ``(x₁x₂ + αy₁y₂) + θ(x₁y₂ + x₂y₁ + βy₁y₂)``."""
    x1, y1 = z
    x2, y2 = w
    return (
        x1 * x2 + params.alpha * y1 * y2,
        x1 * y2 + x2 * y1 + params.beta * y1 * y2,
    )


def general_norm_trace(params: GeneralParams, z: Pair) -> tuple[Fraction, Fraction]:
    """Exact ``(η, τ)`` with ``η = x² + βxy - αy²`` and ``τ = 2x + βy``."""
    x, y = z
    eta = x * x + params.beta * x * y - params.alpha * y * y
    return eta, 2 * x + params.beta * y


def canonicalize(params: GeneralParams) -> tuple[RingKind, float, float]:
    """Affine change of basis onto the canonical structure.

    Returns ``(kind, shift, scale)`` such that mapping
    ``x + θy -> (x + shift*y) + θ'*(scale*y)`` is a ring homomorphism onto
    the canonical ring of that kind (θ' the canonical unit).  Completing the
    square gives ``shift = β/2`` and ``scale = √|D|/2`` (scale 1 when D = 0,
    where any nonzero scale works).  Both are floats, so |β| and |D| must lie
    in the float range, and a nonzero |D| must be a normal float: past the
    largest float, or below the smallest normal one (where the scale would
    come out as 0.0 or lose digits), this raises :class:`OverflowError`.
    """
    disc = params.disc
    kind = _kind_of_disc(disc)
    try:
        shift = float(params.beta) / 2.0
        abs_disc = abs(float(disc))
    except OverflowError:
        raise OverflowError(
            "change of basis out of float range: shift = beta/2 and scale = sqrt(|D|)/2"
            f" need |beta| and |D| at most {sys.float_info.max:.4g}"
        ) from None
    if disc != 0 and abs_disc < sys.float_info.min:
        raise OverflowError(
            "change of basis out of float range: scale = sqrt(|D|)/2"
            f" needs |D| = 0 or at least {sys.float_info.min:.4g}"
        )
    return kind, shift, math.sqrt(abs_disc) / 2.0 if disc != 0 else 1.0
