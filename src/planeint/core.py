"""Exact arithmetic in the three canonical integer rings of the plane.

Each ring consists of points ``x + θy`` with integer coordinates, where the
imaginary unit θ squares to a constant::

    θ² = -1   elliptic    (Gaussian integers,  θ printed as ``i``)
    θ² = +1   hyperbolic  (perplex integers,   θ printed as ``j``)
    θ² =  0   parabolic   (dual integers,      θ printed as ``k``)

Coordinates are Python ints, so every operation is exact at any magnitude.
All values are immutable; every operation is a pure function, safe to call
concurrently without synchronization.

Conventions used throughout the package:

* zero counts as a zero divisor,
* the norm is ``η(x+θy) = x² - θ²y²`` and ``η⁺ = |η|``; units are exactly
  the elements with ``η⁺ = 1``,
* two elements are associates when they differ by a unit factor; each
  associate orbit has one canonical representative (see
  :meth:`Element.canonical_associate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class RingError(Exception):
    """Base class for errors raised by ring operations."""


class KindMismatchError(RingError):
    """Two operands belong to different rings."""


class WrongRingError(RingError):
    """Operation is only defined on one specific ring."""


class NotInvertibleError(RingError):
    """Inversion requested for an element that is not a unit."""


class RingKind(Enum):
    """The three ring structures, tagged by the symbol used for θ."""

    ELLIPTIC = "i"
    HYPERBOLIC = "j"
    PARABOLIC = "k"

    def __init__(self, symbol: str) -> None:
        #: The integer value of θ² in this ring (a plain attribute: it is read
        #: by every product and norm).
        self.mu = {"i": -1, "j": 1, "k": 0}[symbol]

    @property
    def symbol(self) -> str:
        """Imaginary-unit letter: ``i``, ``j`` or ``k``."""
        return self.value

    @classmethod
    def from_symbol(cls, symbol: str) -> RingKind:
        try:
            return cls(symbol)
        except ValueError:
            raise WrongRingError(f"unknown ring symbol {symbol!r}") from None


@dataclass(frozen=True, slots=True)
class Element:
    """An exact point ``x + θy`` of one of the three rings."""

    kind: RingKind
    x: int
    y: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, RingKind):
            raise TypeError(f"kind must be a RingKind, got {self.kind!r}")
        # exactly int: bool and other int subclasses would leak into str and repr
        if type(self.x) is not int or type(self.y) is not int:
            raise TypeError("coordinates must be exact ints")

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other: object) -> Element | None:
        if isinstance(other, Element):
            if other.kind is not self.kind:
                raise KindMismatchError(
                    f"cannot combine {self.kind.name} with {other.kind.name}"
                )
            return other
        if isinstance(other, int):
            return _mk(self.kind, other, 0)
        return None

    def __add__(self, other: Element | int) -> Element:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return _mk(self.kind, self.x + w.x, self.y + w.y)

    __radd__ = __add__

    def __sub__(self, other: Element | int) -> Element:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return _mk(self.kind, self.x - w.x, self.y - w.y)

    def __rsub__(self, other: Element | int) -> Element:
        return (-self).__add__(other)

    def __neg__(self) -> Element:
        return _mk(self.kind, -self.x, -self.y)

    def __mul__(self, other: Element | int) -> Element:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        kind = self.kind
        return _mk(kind, self.x * w.x + kind.mu * self.y * w.y, self.x * w.y + w.x * self.y)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Element:
        if n < 0:
            raise ValueError("negative powers require a unit; use inverse()")
        result = _mk(self.kind, 1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    # -- conjugation, norm, trace ----------------------------------------

    def conj(self) -> Element:
        """The conjugate ``x - θy``."""
        return _mk(self.kind, self.x, -self.y)

    @property
    def eta(self) -> int:
        """Signed norm ``x² - θ²y²``; multiplicative, zero exactly on zero divisors."""
        return self.x * self.x - self.kind.mu * self.y * self.y

    @property
    def eta_plus(self) -> int:
        """Absolute norm ``|η|``."""
        return abs(self.eta)

    @property
    def trace(self) -> int:
        """Trace ``2x`` (the linear coefficient of the minimal polynomial)."""
        return 2 * self.x

    def inner(self, other: Element) -> int:
        """Indefinite inner product ``Re(z·w̄) = x₁x₂ - θ²y₁y₂``.

        This is the bilinear form whose quadratic form is the norm:
        ``z.inner(z) == z.eta``, and it satisfies the polarization and
        cosine laws exactly.
        """
        w = self._coerce(other)
        if w is None or not isinstance(other, Element):
            raise TypeError("inner product needs two elements")
        return self.x * w.x - self.kind.mu * self.y * w.y

    # -- predicates -------------------------------------------------------

    def is_unit(self) -> bool:
        """True when the element is invertible, i.e. ``η⁺ = 1``."""
        return self.eta_plus == 1

    def is_zero_divisor(self) -> bool:
        """True when ``η = 0`` (zero itself included)."""
        return self.eta == 0

    def inverse(self) -> Element:
        """Multiplicative inverse ``z̄/η(z)``, defined for units only."""
        e = self.eta
        if abs(e) != 1:
            raise NotInvertibleError(f"{self} has norm {e}, not ±1")
        return _mk(self.kind, self.x * e, -self.y * e)

    def lex_less(self, other: Element) -> bool:
        """Strict lexicographic order on the parabolic ring (x first, then y).

        The order makes the ring ordered: multiples of k sit between the
        negative and positive reals, i.e. they behave as infinitesimals.
        """
        if self.kind is not RingKind.PARABOLIC or other.kind is not RingKind.PARABOLIC:
            raise WrongRingError("lexicographic order is defined on the parabolic ring only")
        return (self.x, self.y) < (other.x, other.y)

    # -- associates -------------------------------------------------------

    def canonical_associate(self) -> tuple[Element, Element]:
        """Canonical representative of the associate orbit.

        Returns ``(canonical, u)`` with ``canonical == u * self`` and ``u``
        a unit.  Two elements have equal canonical forms exactly when they
        generate the same principal ideal.  The chosen representatives:

        * elliptic: the orbit member with ``x > 0, y >= 0`` (zero maps to zero),
        * hyperbolic, zero divisor ``±(t ± jt)``: the sign with ``t > 0``,
        * hyperbolic otherwise: the orbit member with ``x > |y|`` (this forces
          ``η > 0`` and a positive real part),
        * parabolic, ``x != 0``: ``x > 0`` and ``0 <= y < x`` (the units
          ``±1 + kt`` shift y by multiples of x),
        * parabolic, ``x == 0``: ``y >= 0``.
        """
        kind, x, y = self.kind, self.x, self.y
        if kind is RingKind.ELLIPTIC:
            # one rotation by a power of i lands in the quadrant
            if x > 0 and y >= 0:
                return self, _mk(kind, 1, 0)
            if x <= 0 and y > 0:
                return _mk(kind, y, -x), _mk(kind, 0, -1)
            if x < 0 and y <= 0:
                return _mk(kind, -x, -y), _mk(kind, -1, 0)
            if y < 0:
                return _mk(kind, -y, x), _mk(kind, 0, 1)
            return self, _mk(kind, 1, 0)  # zero
        if kind is RingKind.HYPERBOLIC:
            # ±1 keep |x| >= |y| (the diagonals |x| == |y| take the sign of
            # x), ±j swap the coordinates where |x| < |y|
            ay = abs(y)
            if x >= ay:
                return self, _mk(kind, 1, 0)
            if -x >= ay:
                return _mk(kind, -x, -y), _mk(kind, -1, 0)
            if y > 0:
                return _mk(kind, y, x), _mk(kind, 0, 1)
            return _mk(kind, -y, -x), _mk(kind, 0, -1)
        # parabolic
        if x == 0:
            if y >= 0:
                return self, _mk(kind, 1, 0)
            return _mk(kind, 0, -y), _mk(kind, -1, 0)
        s = 1 if x > 0 else -1
        xc = s * x
        yc = (s * y) % xc
        t = (yc - s * y) // x
        return _mk(kind, xc, yc), _mk(kind, s, t)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({self.kind.name}, {self.x}, {self.y})"


# Ring operations build their results through _mk: their coordinates are ints
# by construction, so the validation in Element.__post_init__ is skipped.  The
# slots' own setters get past the frozen dataclass's __setattr__.
_new = object.__new__
_set_kind, _set_x, _set_y = (Element.__dict__[f].__set__ for f in ("kind", "x", "y"))


def _mk(kind: RingKind, x: int, y: int) -> Element:
    """``Element(kind, x, y)`` for ``kind`` a RingKind and ints x, y, unchecked."""
    z = _new(Element)
    _set_kind(z, kind)
    _set_x(z, x)
    _set_y(z, y)
    return z


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


# -- constructors ----------------------------------------------------------


def elliptic(x: int, y: int = 0) -> Element:
    """Gaussian integer ``x + iy``."""
    return Element(RingKind.ELLIPTIC, x, y)


def hyperbolic(x: int, y: int = 0) -> Element:
    """Perplex integer ``x + jy``."""
    return Element(RingKind.HYPERBOLIC, x, y)


def parabolic(x: int, y: int = 0) -> Element:
    """Dual integer ``x + ky``."""
    return Element(RingKind.PARABOLIC, x, y)


def zero(kind: RingKind) -> Element:
    return Element(kind, 0, 0)


def one(kind: RingKind) -> Element:
    return Element(kind, 1, 0)


def theta(kind: RingKind) -> Element:
    """The imaginary unit of the ring."""
    return Element(kind, 0, 1)


# -- free functions mirroring the operation surface ------------------------


def norm_data(z: Element) -> tuple[int, int, int]:
    """``(η, η⁺, trace)`` of an element, all exact."""
    e = z.eta
    return e, abs(e), 2 * z.x


def inner_product(z: Element, w: Element) -> int:
    return z.inner(w)


def lex_less(z: Element, w: Element) -> bool:
    return z.lex_less(w)


def normalize_associate(z: Element) -> tuple[Element, Element]:
    """See :meth:`Element.canonical_associate`."""
    return z.canonical_associate()


# -- hyperbolic diagonal coordinates ---------------------------------------
#
# In the hyperbolic ring the map z = x + jy -> (x+y, x-y) identifies the ring
# with the pairs (u, v) of equal parity under componentwise multiplication;
# the norm becomes u*v and the two zero-divisor diagonals become the
# coordinate axes.  Several modules exploit this to turn divisibility into
# plain integer divisibility.


def diagonal_coords(z: Element) -> tuple[int, int]:
    if z.kind is not RingKind.HYPERBOLIC:
        raise WrongRingError("diagonal coordinates exist in the hyperbolic ring only")
    return z.x + z.y, z.x - z.y


def from_diagonal_coords(u: int, v: int) -> Element:
    if (u - v) % 2:
        raise ValueError(f"({u}, {v}) has mixed parity and is not a ring point")
    return Element(RingKind.HYPERBOLIC, (u + v) // 2, (u - v) // 2)


# -- text form --------------------------------------------------------------


def format_element(z: Element) -> str:
    """Canonical text form: ``y<u>``, ``x+y<u>`` or ``x-y<u>``.

    The θ term is always written (``7+0j`` rather than ``7``) so that the
    text alone determines the ring.
    """
    u = z.kind.symbol
    if z.x == 0:
        return f"{z.y}{u}"
    if z.y == 0:
        return f"{z.x}+0{u}"
    sign = "+" if z.y > 0 else "-"
    return f"{z.x}{sign}{abs(z.y)}{u}"
