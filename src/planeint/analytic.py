"""Float arithmetic in R[θ]: exponentials, hyperbolic polar form, Moivre powers.

The exponential carries each ring's own trigonometry::

    elliptic    exp(x + iy) = e^x (cos y  + i sin y)
    hyperbolic  exp(x + jy) = e^x (cosh y + j sinh y)
    parabolic   exp(x + ky) = e^x (1 + k y)

Tolerances throughout the package's float layer: relative 1e-9 for
magnitudes >= 1, absolute 1e-12 below.
"""

from __future__ import annotations

import math

from .core import RingError, RingKind, _Record, _setfield

REL_TOL = 1e-9
ABS_TOL = 1e-12


class OutOfSectorError(RingError):
    """The hyperbolic polar form covers only the sector η > 0, x > 0."""


class RealElement(_Record):
    """A point ``x + θy`` with float coordinates (finite only)."""

    __slots__ = __match_args__ = ("kind", "x", "y")
    kind: RingKind
    x: float
    y: float

    def __init__(self, kind: RingKind, x: float, y: float) -> None:
        _setfield(self, "kind", kind)
        _setfield(self, "x", x)
        _setfield(self, "y", y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("coordinates must be finite")

    def __add__(self, other: RealElement) -> RealElement:
        self._check(other)
        return RealElement(self.kind, self.x + other.x, self.y + other.y)

    def __mul__(self, other: RealElement) -> RealElement:
        self._check(other)
        mu = self.kind.mu
        return RealElement(
            self.kind,
            self.x * other.x + mu * self.y * other.y,
            self.x * other.y + other.x * self.y,
        )

    def _check(self, other: RealElement) -> None:
        if self.kind is not other.kind:
            raise RingError("mixed rings")

    @property
    def eta(self) -> float:
        return self.x * self.x - self.kind.mu * self.y * self.y

    def isclose(self, other: RealElement) -> bool:
        return floats_close(self.x, other.x) and floats_close(self.y, other.y)


def floats_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class PolarForm(_Record):
    """``r (cosh α + j sinh α)`` data for a sector element."""

    __slots__ = __match_args__ = ("r", "alpha")
    r: float
    alpha: float

    def __init__(self, r: float, alpha: float) -> None:
        _setfield(self, "r", r)
        _setfield(self, "alpha", alpha)

    def element(self) -> RealElement:
        return RealElement(
            RingKind.HYPERBOLIC,
            self.r * math.cosh(self.alpha),
            self.r * math.sinh(self.alpha),
        )


def exp_theta(z: RealElement) -> RealElement:
    """The ring-appropriate exponential; satisfies exp(z+w) = exp(z)·exp(w)."""
    scale = math.exp(z.x)  # propagates OverflowError for huge x
    if z.kind is RingKind.ELLIPTIC:
        return RealElement(z.kind, scale * math.cos(z.y), scale * math.sin(z.y))
    if z.kind is RingKind.HYPERBOLIC:
        return RealElement(z.kind, scale * math.cosh(z.y), scale * math.sinh(z.y))
    return RealElement(z.kind, scale, scale * z.y)


def polar_decompose(z: RealElement) -> PolarForm:
    """``z = √η(z) (cosh α + j sinh α)`` for hyperbolic z with η > 0, x > 0."""
    if z.kind is not RingKind.HYPERBOLIC:
        raise OutOfSectorError("polar form exists in the hyperbolic ring only")
    if z.eta <= 0 or z.x <= 0:
        raise OutOfSectorError(f"{z.x}+{z.y}j is outside the sector eta > 0, x > 0")
    return PolarForm(math.sqrt(z.eta), math.atanh(z.y / z.x))


def pow_moivre(z: RealElement, n: int) -> RealElement:
    """``z^n = (√η)^n (cosh nα + j sinh nα)``; n may be negative inside the sector."""
    p = polar_decompose(z)
    return RealElement(
        z.kind,
        p.r**n * math.cosh(n * p.alpha),
        p.r**n * math.sinh(n * p.alpha),
    )


def euler_check(x: float) -> tuple[float, float]:
    """Evaluate cosh and sinh through the hyperbolic exponential.

    Returns ``((e^{jx} + e^{-jx})/2, (e^{jx} - e^{-jx})/2j)`` read off the
    real axis; both must match the library cosh/sinh.
    """
    kind = RingKind.HYPERBOLIC
    plus = exp_theta(RealElement(kind, 0.0, x))
    minus = exp_theta(RealElement(kind, 0.0, -x))
    cosh_side = RealElement(kind, (plus.x + minus.x) / 2, (plus.y + minus.y) / 2)
    diff = RealElement(kind, (plus.x - minus.x) / 2, (plus.y - minus.y) / 2)
    # dividing by j is multiplying by j, since j² = 1
    sinh_side = diff * RealElement(kind, 0.0, 1.0)
    return cosh_side.x, sinh_side.x


__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "OutOfSectorError",
    "PolarForm",
    "RealElement",
    "euler_check",
    "exp_theta",
    "floats_close",
    "polar_decompose",
    "pow_moivre",
]
