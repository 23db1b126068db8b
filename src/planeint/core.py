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

from enum import Enum
from math import isqrt


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


# module globals: reading ``RingKind.ELLIPTIC`` goes through the enum metaclass,
# about 9x slower than one global lookup on the verdict's hot path
_ELLIPTIC, _HYPERBOLIC, _PARABOLIC = RingKind


class _Record:
    """An immutable record over its ``__slots__``, as a frozen dataclass behaves.

    Fields compare, hash and print in slot order, as ``Name(field=value, ...)``,
    and only a record of the same class compares equal.  Each subclass writes
    its own ``__init__``, which checks its arguments and stores the fields
    through ``_setters``, its slots' own setters in slot order, which get
    past the frozen ``__setattr__``; pickle and copy rebuild a record through
    that ``__init__``.  Elements that ring operations build skip it: ``_mk``
    fills a writable twin class and then switches it to ``Element``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # bound once per class: a call per field, no name lookup
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple()


class Element(_Record):
    """An exact point ``x + θy`` of one of the three rings."""

    __slots__ = __match_args__ = ("kind", "x", "y")
    kind: RingKind
    x: int
    y: int

    def __init__(self, kind: RingKind, x: int, y: int) -> None:
        if not isinstance(kind, RingKind):
            raise TypeError(f"kind must be a RingKind, got {kind!r}")
        # exactly int: bool and other int subclasses would leak into str and repr
        if type(x) is not int or type(y) is not int:
            raise TypeError("coordinates must be exact ints")
        _set_kind(self, kind)
        _set_x(self, x)
        _set_y(self, y)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Element:
            return self.kind is other.kind and self.x == other.x and self.y == other.y
        return NotImplemented

    # written out: the inherited != goes through object.__ne__ to __eq__, about
    # 1.7x the cost, and every canonical-form filter (``table``) asks it
    def __ne__(self, other: object) -> bool:
        if other.__class__ is Element:
            return self.kind is not other.kind or self.x != other.x or self.y != other.y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.x, self.y))

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
        if self.kind is not _PARABOLIC or other.kind is not _PARABOLIC:
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
        if kind is _ELLIPTIC:
            # one rotation by a power of i lands in the quadrant
            if x > 0 and y >= 0:
                return self, _E_ONE
            if x <= 0 and y > 0:
                return _mk(kind, y, -x), _E_NEG_THETA
            if x < 0 and y <= 0:
                return _mk(kind, -x, -y), _E_NEG_ONE
            if y < 0:
                return _mk(kind, -y, x), _E_THETA
            return self, _E_ONE  # zero
        if kind is _HYPERBOLIC:
            # ±1 keep |x| >= |y| (the diagonals |x| == |y| take the sign of
            # x), ±j swap the coordinates where |x| < |y|
            ay = abs(y)
            if x >= ay:
                return self, _H_ONE
            if -x >= ay:
                return _mk(kind, -x, -y), _H_NEG_ONE
            if y > 0:
                return _mk(kind, y, x), _H_THETA
            return _mk(kind, -y, -x), _H_NEG_THETA
        # parabolic
        if x == 0:
            if y >= 0:
                return self, _P_ONE
            return _mk(kind, 0, -y), _P_NEG_ONE
        # t = 0: the unit is a shared ±1, and z or -z is already canonical
        if 0 <= y < x:
            return self, _P_ONE
        if x < y <= 0:
            return _mk(kind, -x, -y), _P_NEG_ONE
        s = 1 if x > 0 else -1
        xc = s * x
        yc = (s * y) % xc
        t = (yc - s * y) // x
        return _mk(kind, xc, yc), _mk(kind, s, t)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({self.kind.name}, {self.x}, {self.y})"


# Element.__init__ stores the fields through the slots' own setters, which get
# past the record's frozen __setattr__.  Ring operations build their results
# through _mk instead: their coordinates are ints by construction, so the
# validation in Element.__init__ is skipped, and the fields are plain stores on
# a writable twin of Element that then becomes an Element.
_new = object.__new__
_set_kind, _set_x, _set_y = Element._setters


class _Draft(Element):
    """An ``Element`` under construction: its fields are writable.

    ``__setattr__`` and ``__delattr__`` are both object's again.  They share
    one type slot, so with ``__delattr__`` still the record's Python-level
    method every store goes through the generic dispatch, and ``_mk`` ran
    about twice as slow as through the slot setters.  The twin adds no slots:
    its instances then have Element's layout, which is what lets
    ``__class__`` be switched to ``Element`` (CPython refuses the switch
    between differing layouts).
    """

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def _mk(kind: RingKind, x: int, y: int) -> Element:
    """``Element(kind, x, y)`` for ``kind`` a RingKind and ints x, y, unchecked."""
    z = _new(_Draft)
    z.kind = kind
    z.x = x
    z.y = y
    z.__class__ = Element  # frozen from here on, and of type exactly Element
    return z


# the units canonical_associate returns, shared by every call: elements are
# immutable.  The parabolic units ±1 + kt off the axis depend on the input.
_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # ±1, ±θ
_E_ONE, _E_NEG_ONE, _E_THETA, _E_NEG_THETA = (_mk(_ELLIPTIC, x, y) for x, y in _UNITS)
_H_ONE, _H_NEG_ONE, _H_THETA, _H_NEG_THETA = (_mk(_HYPERBOLIC, x, y) for x, y in _UNITS)
_P_ONE, _P_NEG_ONE = _mk(_PARABOLIC, 1, 0), _mk(_PARABOLIC, -1, 0)


# -- constructors ----------------------------------------------------------


def elliptic(x: int, y: int = 0) -> Element:
    """Gaussian integer ``x + iy``."""
    return Element(_ELLIPTIC, x, y)


def hyperbolic(x: int, y: int = 0) -> Element:
    """Perplex integer ``x + jy``."""
    return Element(_HYPERBOLIC, x, y)


def parabolic(x: int, y: int = 0) -> Element:
    """Dual integer ``x + ky``."""
    return Element(_PARABOLIC, x, y)


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
    if z.kind is not _HYPERBOLIC:
        raise WrongRingError("diagonal coordinates exist in the hyperbolic ring only")
    return z.x + z.y, z.x - z.y


def from_diagonal_coords(u: int, v: int) -> Element:
    if (u - v) % 2:
        raise ValueError(f"({u}, {v}) has mixed parity and is not a ring point")
    return Element(_HYPERBOLIC, (u + v) // 2, (u - v) // 2)


def _from_diagonal(u: int, v: int) -> Element:
    """``from_diagonal_coords(u, v)`` for u ≡ v (mod 2), unchecked."""
    return _mk(_HYPERBOLIC, (u + v) >> 1, (u - v) >> 1)


# -- Gaussian primes and ideals from a square root of -1 --------------------
#
# Here, not in ``integers``: ``euclid`` runs the descent on an ideal's norm, and
# ``core`` is the one module both may import.


def _cornacchia(n: int, c: int) -> tuple[int, int]:
    """``(s, t)`` with ``s ≡ c·t (mod n)`` and ``|t| = isqrt(n - s²)``, for 0 <= c < n.

    Cornacchia's descent (Hermite–Serret, Brillhart 1972; Basilla 2004 for
    composite n): for c² ≡ -1 (mod n) with n = s² + t², gcd(s, t) = 1, the
    first remainder s of Euclid on (n, c) with s² <= n has n - s² = t² and
    s ≡ ±c·t (mod n).  The sign of t that makes s ≡ c·t puts s + ti in the
    Gaussian ideal {x ≡ c·y (mod n)}, the one s + ti generates.  t is read
    from ``isqrt``: the next remainder is 0 at n = 2, where t = 1.  For any
    other c the pair still comes back, and s² + t² != n shows it.  O(log n)
    steps.
    """
    r, s, root = n, c, isqrt(n)
    while s > root:
        r, s = s, r % s
    t = isqrt(n - s * s)
    return (s, t) if (s - c * t) % n == 0 else (s, -t)


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
