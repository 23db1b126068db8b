"""Division with remainder and finitely generated ideals.

The division algorithm works in all three rings as long as the divisor has
nonzero norm: divide exactly over rationals, round each coordinate to a
nearest integer, and the remainder's absolute norm drops to at most half the
divisor's.  Zero divisors need separate handling everywhere.

A finitely generated ideal splits into a principal part ``(α)``, with α of
least nonzero norm, plus its intersection with the zero-divisor set.  In
every ring α has a closed form from integer gcds (see :func:`decompose`).
Membership is divisibility on coordinates alone (see :func:`ideal_contains`),
and the same rule checks each closed form, so no ideal operation divides.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from .core import (
    _ELLIPTIC,
    _HYPERBOLIC,
    _PARABOLIC,
    Element,
    KindMismatchError,
    RingError,
    RingKind,
    _cornacchia,
    _from_diagonal,
    _mk,
    _Record,
)


class DivisorIsZeroDivisorError(RingError):
    """Division with remainder needs a divisor of nonzero norm."""


class EuclidInvariantError(RingError):
    """A result broke the division algorithm's remainder bound or an ideal's closed form."""


class DivResult(_Record):
    """Quotient and remainder with ``a == quotient*b + remainder``."""

    __slots__ = __match_args__ = ("quotient", "remainder")
    quotient: Element
    remainder: Element

    def __init__(self, quotient: Element, remainder: Element) -> None:
        set_quotient, set_remainder = self._setters
        set_quotient(self, quotient)
        set_remainder(self, remainder)


def div_rem(a: Element, b: Element) -> DivResult:
    """Division with remainder: ``a = γb + ρ`` with ``2·η⁺(ρ) <= η⁺(b)``.

    The quotient is obtained by rounding both coordinates of the exact
    rational quotient ``a·b̄/η(b)`` to nearest integers (ties away from
    zero), which pins one deterministic answer out of the valid choices.
    The bound on the remainder is checked at runtime, also under ``python
    -O``: a remainder that breaks it raises :class:`EuclidInvariantError`.
    """
    kind = a.kind
    if kind is not b.kind:
        raise KindMismatchError(f"mixed rings: {kind.name} and {b.kind.name}")
    mu = kind.mu
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    e = bx * bx - mu * by * by
    if e == 0:
        raise DivisorIsZeroDivisorError(f"divisor {b} has norm 0")
    # a·b̄ = nx + θny; each coordinate of a·b̄/e is rounded, ties away from zero
    nx = ax * bx - mu * ay * by
    ny = ay * bx - ax * by
    if e < 0:
        nx, ny, e = -nx, -ny, -e
    e2 = 2 * e
    qx = (2 * nx + e) // e2 if nx >= 0 else -((e - 2 * nx) // e2)
    qy = (2 * ny + e) // e2 if ny >= 0 else -((e - 2 * ny) // e2)
    rx = ax - qx * bx - mu * qy * by
    ry = ay - qx * by - qy * bx
    if 2 * abs(rx * rx - mu * ry * ry) > e:
        raise EuclidInvariantError(f"remainder of {a} by {b} breaks 2·η⁺(ρ) <= η⁺(b)")
    return DivResult(_mk(kind, qx, qy), _mk(kind, rx, ry))


def divides(b: Element, a: Element) -> Element | None:
    """Exact quotient q with ``a == q*b``, or None when b does not divide a.

    For divisors of nonzero norm the quotient is unique (such elements are
    cancellable).  For a nonzero zero divisor the quotient is not unique;
    the returned witness is the real-integer one.
    """
    kind = b.kind
    if kind is not a.kind:
        raise KindMismatchError(f"mixed rings: {kind.name} and {a.kind.name}")
    if not b:
        raise ZeroDivisionError("division by the zero element")
    mu = kind.mu
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    e = bx * bx - mu * by * by
    if e != 0:
        nx = ax * bx - mu * ay * by
        ny = ay * bx - ax * by
        if nx % e or ny % e:
            return None
        return _mk(kind, nx // e, ny // e)
    if kind is _PARABOLIC:
        # b = kt: its multiples are exactly k·(tm)
        if ax != 0 or ay % by:
            return None
        return _mk(kind, ay // by, 0)
    # hyperbolic diagonals: multiples of t(1±j) are the m·t(1±j)
    on_diag = ax == ay if bx == by else ax == -ay
    if not on_diag or ax % bx:
        return None
    return _mk(kind, ax // bx, 0)


# -- finitely generated ideals ----------------------------------------------


class FGIdeal(_Record):
    """Finitely generated ideal, given by a nonempty generator tuple."""

    __slots__ = __match_args__ = ("kind", "generators")
    kind: RingKind
    generators: tuple[Element, ...]

    def __init__(self, kind: RingKind, generators: tuple[Element, ...]) -> None:
        generators = tuple(generators)
        if not generators:
            raise ValueError("an ideal needs at least one generator (use 0 for the zero ideal)")
        for g in generators:
            if g.kind is not kind:
                raise KindMismatchError("all generators must live in the ideal's ring")
        set_kind, set_generators = self._setters
        set_kind(self, kind)
        set_generators(self, generators)

    @classmethod
    def of(cls, *generators: Element) -> FGIdeal:
        if not generators:
            raise ValueError("an ideal needs at least one generator")
        return cls(generators[0].kind, tuple(generators))


class IdealDecomposition(_Record):
    """An ideal written as ``(α) + (its intersection with the zero divisors)``.

    ``alpha`` is None when the ideal lies inside the zero-divisor set.  The
    zero-divisor part is recorded by one nonnegative generator per line:
    ``dplus_gen`` for the main diagonal (multiples of ``1+j``), ``dminus_gen``
    for the second diagonal, ``d0_gen`` for the parabolic axis (multiples of
    ``k``); 0 means that line meets the ideal in {0} alone.
    """

    __slots__ = __match_args__ = ("kind", "alpha", "dplus_gen", "dminus_gen", "d0_gen")
    kind: RingKind
    alpha: Element | None
    dplus_gen: int
    dminus_gen: int
    d0_gen: int

    def __init__(
        self, kind: RingKind, alpha: Element | None, dplus_gen: int, dminus_gen: int, d0_gen: int
    ) -> None:
        set_kind, set_alpha, set_dplus_gen, set_dminus_gen, set_d0_gen = self._setters
        set_kind(self, kind)
        set_alpha(self, alpha)
        set_dplus_gen(self, dplus_gen)
        set_dminus_gen(self, dminus_gen)
        set_d0_gen(self, d0_gen)


def _hermite(f: int, d: int, rows: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite basis (f', b), (0, d') of the ℤ-span of (f, 0), (0, d) and the rows: 0 <= b < d'.

    One extended-gcd fold on the rows reduced modulo (f, 0) and (0, d), so
    it runs on numbers of their size, not the rows'.  It stops once f = 1,
    where both callers' spans are complete.  :func:`decompose` states each
    step and both stops.
    """
    f0, d0, b = f, d, 0
    for x, y in rows:
        if f == 1:
            break
        x, y = x % f0, y % d0
        if not x:
            d = gcd(d, y)
            continue
        # s·f + t·x = g = gcd(f, x), and x/g·(f, b) − f/g·(x, y) lies on the axis
        g = gcd(f, x)
        s = pow(f // g, -1, x // g)
        t = (g - s * f) // x
        d = gcd(d, x // g * b - f // g * y)
        f, b = g, (s * b + t * y) % d
    return f, b % d, d


def _parabolic_basis(gens: list[Element]) -> tuple[int, int, int]:
    """Hermite basis (a, b), (0, d) of a parabolic ideal: a >= 0 and 0 <= b < d.

    Each generator x + ky, none of them 0, adds the rows (x, y) and
    k·(x + ky) = (0, x) to the ℤ-span, which holds (a², 0) and (0, a),
    a = gcd(x), so :func:`_hermite` folds the rows (x, y) from them (see
    :func:`decompose`).
    """
    a = gcd(*[z.x for z in gens])
    if not a:  # every generator lies on the axis
        return 0, 0, gcd(*[z.y for z in gens])
    return _hermite(a * a, a, [(z.x, z.y) for z in gens])


def _gaussian_alpha(gens: list[Element]) -> tuple[Element, int]:
    """A Gaussian ideal's canonical α and index D, in closed form (see :func:`decompose`)."""
    pts = [(z.x, z.y) for z in gens]
    g = gcd(*[c for xy in pts for c in xy])
    g2 = g * g
    index = _index(pts, g2)
    n = index // g2
    if n == 1:
        return _mk(_ELLIPTIC, g, 0), index
    # (β) in the coordinates (y, x): each gᵢ/g and i·gᵢ/g, over the span of (n, 0) and (0, n)
    rows = (row for x, y in pts for row in ((y // g, x // g), (x // g, -y // g)))
    c = _hermite(n, n, rows)[1]
    s, t = _cornacchia(n, c)
    if s * s + t * t != n:
        raise EuclidInvariantError(f"Cornacchia's descent on {n} from {c} left a non-square")
    return _mk(_ELLIPTIC, g * s, g * t).canonical_associate()[0], index


def _index(pts: list[tuple[int, int]], g2: int) -> int:
    """gcd of the 2×2 minors N(gⱼ), xᵢxⱼ + yᵢyⱼ and xᵢyⱼ − yᵢxⱼ of a Gaussian ideal's rows.

    The content's square g² divides every minor, so the running gcd stops
    as soon as it reaches g².
    """
    index = 0
    for j, (x, y) in enumerate(pts):
        index = gcd(index, x * x + y * y)
        for u, v in pts[:j]:
            if index == g2:
                return index
            index = gcd(index, u * x + v * y, u * y - v * x)
    return index


def decompose(ideal: FGIdeal) -> IdealDecomposition:
    """Split an ideal as ``(α) + (zero-divisor part)``, with α of least nonzero norm.

    That minimality is what makes the membership test in
    :func:`ideal_contains` exact.

    Parabolic ideals have a closed form.  As (c + ke)·g = c·g + e·(k·g), the
    ideal is the ℤ-span of the nonzero gᵢ = (xᵢ, yᵢ) and k·gᵢ = (0, xᵢ).  Every
    x in it is a multiple of a = gcd(xᵢ), and η = x².  If a = 0 every generator
    lies on the axis: there is no α, and the axis generator is gcd(yᵢ).
    Otherwise the span holds (0, a) = Σ cᵢ·k·gᵢ, for Σ cᵢxᵢ = a, and (a², 0):
    it holds some a + kb, and a·(a + kb) − b·k(a + kb) = a².  So the rows
    (xᵢ mod a², yᵢ mod a) with (a², 0) and (0, a) span it too, as in Hermite
    forms modulo a multiple of the index (Domich, Kannan & Trotter 1987;
    Cohen 1993, §2.4.2), and the (0, xᵢ) are multiples of (0, a).  One
    extended-gcd fold over these rows, from (f, b) = (a², 0) and d = a, gives
    its Hermite basis (a, b), (0, d) on numbers of a²'s size, not the
    generators' (:func:`_hermite`, which Gaussian ideals share): a row (x, y)
    with x ≠ 0 takes f to g = gcd(f, x) = s·f + t·x and b to s·b + t·y, and
    leaves (x/g)·b − (f/g)·y on the axis, a unimodular step; an axis row
    (0, y) takes d to gcd(d, y).  The fold stops once f = 1, which here
    means a = 1 and d = 1, the whole plane.  So α = a + k·(b mod d) has
    least nonzero norm, and the ideal meets the axis in dℤ.  As d | a,
    0 <= b mod d < d <= a is already the range of
    :meth:`Element.canonical_associate`.  (a, b mod d, d) is the Hermite form
    of the lattice, so α does not depend on the order of the generators.

    Gaussian ideals have a closed form.  The ideal is (α), since ℤ[i] is a
    PID, and the ℤ-span of the nonzero gᵢ = (xᵢ, yᵢ) and i·gᵢ.  Its content
    g (gcd of all coordinates) is α's; its index D (gcd of the 2×2 minors
    N(gᵢ), xᵢxⱼ + yᵢyⱼ and xᵢyⱼ − yᵢxⱼ) is N(α).  g² divides every minor, so
    the running gcd stops once it reaches g².  So α = g·β with β = s + ti
    primitive of norm n = D/g², and t is prime to n.  For c = s·t⁻¹ mod n,
    x ≡ c·y (mod n) is a lattice of index n holding β and iβ: it is (β), and
    c² ≡ −1.  In the coordinates (y, x) its Hermite basis is (1, c), (0, n),
    and the parabolic ideals' fold gives it: (β) holds n = ββ̄ and i·n, so
    the rows (yᵢ/g, xᵢ/g) and (xᵢ/g, −yᵢ/g) of the gᵢ/g and i·gᵢ/g are
    folded from (n, 0) and (0, n).  The fold stops at the first f = 1: a
    span holding (1, b) and (0, d) with d | n has index d, and inside (β)
    its index is at least n, so it is (β).  Cornacchia's descent on (n, c)
    (Basilla 2004 for composite n) gives s² + t² = n with s ≡ c·t (mod n),
    which puts s + ti in (β) and makes it β.

    Hyperbolic ideals have a closed form.  In the diagonal coordinates
    (u, v) = (x+y, x−y) the product is componentwise and η = uv.  Put
    (uᵢ, vᵢ) for the nonzero generators gᵢ: the ideal is the ℤ-span of the
    (uᵢ, vᵢ) and j·gᵢ = (uᵢ, −vᵢ).  Let P = gcd(uᵢ) and Q = gcd(vᵢ).  If P or
    Q is 0, every generator lies on one diagonal, where t(1±j) has diagonal
    coordinate 2t: there is no α, and the diagonal generators are P/2 and
    Q/2.  Otherwise the span projects onto Pℤ and Qℤ and contains (2uᵢ, 0)
    and (0, 2vᵢ), so by Goursat's lemma its index k in Pℤ×Qℤ divides 2;
    k = 2 exactly when every uᵢ/P ≡ vᵢ/Q (mod 2), and the span is then
    {u/P ≡ v/Q (mod 2)}.  Either way (P, Q) lies in the ideal, and as P | u
    and Q | v for every element, its norm PQ is the least nonzero |uv| there:
    α = (P, Q), already canonical as P, Q > 0.  The diagonals meet the ideal
    in (kPℤ, 0) and (0, kQℤ), so the diagonal generators are kP/2 and kQ/2.

    Every result is checked at runtime, also under ``python -O``, with the
    divisibility rule of :func:`ideal_contains` and no division; a failed
    check raises :class:`EuclidInvariantError`.  Gaussian and hyperbolic
    ideals: every nonzero generator must be a member, else the decomposition
    was not minimal; a Gaussian α must also have norm D, and then it
    generates the ideal.  Parabolic ideals: a must divide every xᵢ, else α
    was not minimal, and d must equal gcd(a, yᵢ − b·xᵢ/a), else the axis
    generator is wrong.  This is no weaker than a Euclidean descent from α
    that divides each gᵢ by it.  In ℤ[i] a remainder of norm 0 is 0, so the
    descent asks that α divide every gᵢ.  A parabolic remainder has
    x − round(x/a)·a, 0 iff a | x, and y ≡ y − b·x/a (mod a).  A hyperbolic
    remainder has norm 0 once one diagonal coordinate is divisible, and the
    descent never reads the diagonal generators; membership checks both.
    """
    kind = ideal.kind
    gens = [g for g in ideal.generators if g]
    if not gens:
        return IdealDecomposition(kind, None, 0, 0, 0)

    if kind is _HYPERBOLIC:
        uvs = [(g.x + g.y, g.x - g.y) for g in gens]
        p = gcd(*[u for u, _ in uvs])
        q = gcd(*[v for _, v in uvs])
        if not (p and q):
            return IdealDecomposition(kind, None, p // 2, q // 2, 0)
        k = 2 if all((u // p - v // q) % 2 == 0 for u, v in uvs) else 1
        dec = IdealDecomposition(kind, _from_diagonal(p, q), k * p // 2, k * q // 2, 0)
    elif kind is _ELLIPTIC:
        alpha, index = _gaussian_alpha(gens)
        dec = IdealDecomposition(kind, alpha, 0, 0, 0)
    else:
        a, b, d = _parabolic_basis(gens)
        if not a:  # every generator lies on the axis
            return IdealDecomposition(kind, None, 0, 0, d)
        alpha = _mk(kind, a, b)
        for g in gens:
            if g.x % a:
                raise EuclidInvariantError(f"{a} does not divide x of {g}: α = {alpha} was not minimal")
        if gcd(a, *[g.y - b * (g.x // a) for g in gens]) != d:
            raise EuclidInvariantError(f"axis generator {d} is not gcd({a}, yᵢ − {b}·xᵢ/{a})")
        return IdealDecomposition(kind, alpha, 0, 0, d)

    for g in gens:
        if not ideal_contains(dec, g):
            raise EuclidInvariantError(f"{g} is outside {dec}: the decomposition was not minimal")
    if kind is _ELLIPTIC and alpha.eta != index:
        raise EuclidInvariantError(f"N({alpha}) = {alpha.eta} is not the ideal's index {index}")
    return dec


def ideal_contains(dec: IdealDecomposition, z: Element) -> bool:
    """Membership by divisibility on z = x + θy.  With α = a + θb:

    elliptic, a² + b² | z·ᾱ; hyperbolic, (P, Q) | (u, v) in diagonal coordinates,
    and u/P ≡ v/Q (mod 2) if k = 2, i.e. ``dplus_gen`` is P; parabolic, a | x and
    ``d0_gen`` | y − b·x/a, as α(c + kd) = ac + k(bc + ad) and ``d0_gen`` | a.
    """
    kind = dec.kind
    if z.kind is not kind:
        raise KindMismatchError(f"element of {z.kind.name} against a {kind.name} ideal")
    x, y = z.x, z.y
    alpha = dec.alpha
    if alpha is None:  # z must lie on a zero-divisor line the ideal meets
        if kind is _PARABOLIC:
            on_line, g = x == 0, dec.d0_gen
        else:  # the diagonals; every line generator of an elliptic ideal is 0
            on_line, g = abs(x) == abs(y), dec.dplus_gen if x == y else dec.dminus_gen
        return not z or (on_line and g != 0 and y % g == 0)
    a, b = alpha.x, alpha.y
    if kind is _ELLIPTIC:
        n = a * a + b * b
        return (x * a + y * b) % n == 0 and (y * a - x * b) % n == 0
    if kind is _HYPERBOLIC:
        p, q, u, v = a + b, a - b, x + y, x - y
        return not (u % p or v % q) and (dec.dplus_gen != p or (u // p - v // q) % 2 == 0)
    return x % a == 0 and (y - b * (x // a)) % dec.d0_gen == 0


__all__ = [
    "DivResult",
    "DivisorIsZeroDivisorError",
    "FGIdeal",
    "IdealDecomposition",
    "decompose",
    "div_rem",
    "divides",
    "ideal_contains",
]
