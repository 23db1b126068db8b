"""Classification of general quadratic quotients onto the three canonical rings.

A ring presented either as ``R[x]/(ax² + bx + c)`` or directly by
``θ² = α + θβ`` is isomorphic to exactly one of the canonical structures;
the sign of the discriminant (``b² - 4ac`` resp. ``β² + 4α``) decides which.
Arithmetic here is exact over rationals; only the canonicalizing change of
basis involves floats, because it scales by ``√|D|/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import RingKind

RationalLike = Fraction | int | str

Pair = tuple[Fraction, Fraction]


def _frac(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class GeneralParams:
    """Structure constants of ``θ² = α + θβ``."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _frac(self.alpha))
        object.__setattr__(self, "beta", _frac(self.beta))

    @property
    def disc(self) -> Fraction:
        """Discriminant ``β² + 4α``, always recomputed."""
        return self.beta * self.beta + 4 * self.alpha

    @property
    def kind(self) -> RingKind:
        return _kind_of_disc(self.disc)


@dataclass(frozen=True)
class QuadraticPoly:
    """Coefficients of ``ax² + bx + c`` with ``a != 0``."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        object.__setattr__(self, "c", _frac(self.c))
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
        return RingKind.ELLIPTIC
    if disc > 0:
        return RingKind.HYPERBOLIC
    return RingKind.PARABOLIC


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
    where any nonzero scale works).
    """
    disc = params.disc
    kind = _kind_of_disc(disc)
    shift = float(params.beta) / 2.0
    scale = math.sqrt(abs(float(disc))) / 2.0 if disc != 0 else 1.0
    return kind, shift, scale
