"""Float arithmetic in R[θ]: exponentials, hyperbolic polar form, Moivre powers.

The exponential carries each ring's own trigonometry::

    elliptic    exp(x + iy) = e^x (cos y  + i sin y)
    hyperbolic  exp(x + jy) = e^x (cosh y + j sinh y)
    parabolic   exp(x + ky) = e^x (1 + k y)

The hyperbolic exponential, powers and polar form are computed in the
diagonal coordinates (x+y, x−y), where the product is componentwise, so they
are finite wherever the result is.

Tolerances throughout the package's float layer: relative 1e-9 for
magnitudes >= 1, absolute 1e-12 below.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .core import _ELLIPTIC, _HYPERBOLIC, RingError, RingKind, _Record

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
        if not isinstance(kind, RingKind):
            raise TypeError(f"kind must be a RingKind, got {kind!r}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("coordinates must be finite")
        set_kind, set_x, set_y = self._setters
        set_kind(self, kind)
        set_x(self, x)
        set_y(self, y)

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
        set_r, set_alpha = self._setters
        set_r(self, r)
        set_alpha(self, alpha)

    def element(self) -> RealElement:
        """``r (cosh α + j sinh α)``; OverflowError when it is outside the float range.

        Built from the diagonal coordinates U = r·e^α, V = r·e^−α, so it is
        finite wherever the result is, though cosh α alone may overflow.
        """

        def coords() -> tuple[float, float]:
            # max(U, V)/2 = |r|·e^|α|/2 = m·(s/2)·s·u·2^(e + 2k + l), with
            # |r| = m·2^e, e^a = s·2^k for a = min(|α|/2, 709), whose exp is
            # finite, and e^(|α| − 2a) = u·2^l (|α| − 1418 is exact).  The
            # mantissa product stays normal, so a subnormal r keeps its digits,
            # and only a result out of range overflows
            a = min(abs(self.alpha) / 2, 709.0)
            m, e = math.frexp(abs(self.r))
            s, k = math.frexp(math.exp(a))
            u, l = math.frexp(math.exp(abs(self.alpha) - 2 * a))
            x, y = _from_diagonal(math.ldexp(m * (s / 2) * s * u, e + 2 * k + l), 2 * self.alpha)
            return (x, y) if self.r >= 0 else (-x, -y)

        return _in_float_range(_HYPERBOLIC, coords)


def _in_float_range(kind: RingKind, coords: Callable[[], tuple[float, float]]) -> RealElement:
    """The element at ``coords()``; OverflowError when a coordinate leaves the float range."""
    try:
        x, y = coords()
    except OverflowError:  # math.exp, cosh and float ** raise where + and * give inf
        x = y = math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        limit = sys.float_info.max
        raise OverflowError(f"result out of float range: |x| and |y| must be at most {limit:.4g}")
    return RealElement(kind, x, y)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """(s, c) with s the float nearest a + b and s + c = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _from_diagonal(half: float, ell: float) -> tuple[float, float]:
    """(x, y) = ((U + V)/2, (U − V)/2) for diagonal coordinates U, V > 0.

    Takes half = max(U, V)/2 and ℓ = ln(U/V); y comes from ``expm1``, with no
    cancellation when U ≈ V.  Callers form half so that no step overflows
    unless x does.
    """
    e = math.expm1(-abs(ell))  # min(U, V)/max(U, V) − 1
    return half * (2 + e), math.copysign(half * -e, ell)


def exp_theta(z: RealElement) -> RealElement:
    """The ring-appropriate exponential; satisfies exp(z+w) = exp(z)·exp(w).

    Raises OverflowError when the result is outside the float range.
    """

    def coords() -> tuple[float, float]:
        if z.kind is _HYPERBOLIC:
            # U = e^(x+y) and V = e^(x−y): max(U, V) = e^(x+|y|) and ln(U/V) = 2y
            s, c = _two_sum(z.x, abs(z.y))
            h = math.exp(s / 2)
            return _from_diagonal(h * (h / 2) * math.exp(c), 2 * z.y)
        scale = math.exp(z.x)
        if z.kind is _ELLIPTIC:
            return scale * math.cos(z.y), scale * math.sin(z.y)
        return scale, scale * z.y

    return _in_float_range(z.kind, coords)


def _check_sector(z: RealElement) -> None:
    if z.kind is not _HYPERBOLIC:
        raise OutOfSectorError("polar form exists in the hyperbolic ring only")
    # x > |y| is η > 0 and x > 0, without squares that underflow to η = 0
    if not z.x > abs(z.y):
        raise OutOfSectorError(f"{z.x}+{z.y}j is outside the sector eta > 0, x > 0")


def polar_decompose(z: RealElement) -> PolarForm:
    """``z = √η(z) (cosh α + j sinh α)`` for hyperbolic z with η > 0, x > 0."""
    _check_sector(z)
    # η = (x+y)(x−y); where that product leaves the normal float range,
    # √η = √(x+y)·√(x−y), which neither underflows to 0 nor overflows
    u, v = z.x + z.y, z.x - z.y
    eta = u * v
    r = math.sqrt(eta) if sys.float_info.min <= eta < math.inf else math.sqrt(u) * math.sqrt(v)
    return PolarForm(r, math.atanh(z.y / z.x))


def pow_moivre(z: RealElement, n: int) -> RealElement:
    """``z^n = (√η)^n (cosh nα + j sinh nα)``; n may be negative inside the sector.

    Computed as (uⁿ, vⁿ) in the diagonal coordinates u = x+y, v = x−y, both
    positive in the sector.  Raises OverflowError when the result is outside
    the float range.
    """
    _check_sector(z)

    def coords() -> tuple[float, float]:
        (u, cu), (v, cv) = _two_sum(z.x, z.y), _two_sum(z.x, -z.y)
        ell = n * math.log1p(2 * z.y / v)  # n·ln(u/v)
        # max(uⁿ, vⁿ) = wⁿ; for the rounding error c, (w + c)ⁿ = wⁿ·e^(nc/w) in floats
        w, c = (u, cu) if ell >= 0 else (v, cv)
        h = w ** (n / 2)
        return _from_diagonal(h * (h / 2) * math.exp(n * c / w), ell)

    return _in_float_range(z.kind, coords)


def euler_check(x: float) -> tuple[float, float]:
    """Evaluate cosh and sinh through the hyperbolic exponential.

    Returns ``((e^{jx} + e^{-jx})/2, (e^{jx} - e^{-jx})/2j)`` read off the
    real axis; both must match the library cosh/sinh.
    """
    kind = _HYPERBOLIC
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
