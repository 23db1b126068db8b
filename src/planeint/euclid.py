"""Division with remainder and finitely generated ideals.

The division algorithm works in all three rings as long as the divisor has
nonzero norm: divide exactly over rationals, round each coordinate to a
nearest integer, and the remainder's absolute norm drops to at most half the
divisor's.  Zero divisors need separate handling everywhere.

A finitely generated ideal splits into a principal part ``(α)``, with α of
least nonzero norm, plus its intersection with the zero-divisor set.  In
every ring α has a closed form from integer gcds (see :func:`decompose`),
and a Euclidean descent from it checks its minimality.  Membership is
divisibility on coordinates alone (see :func:`ideal_contains`).
"""

from __future__ import annotations

from math import gcd, isqrt

from .core import (
    Element,
    KindMismatchError,
    RingError,
    RingKind,
    _mk,
    _Record,
    _setfield,
    diagonal_coords,
    from_diagonal_coords,
)


class DivisorIsZeroDivisorError(RingError):
    """Division with remainder needs a divisor of nonzero norm."""


class EuclidInvariantError(RingError):
    """A result broke a guarantee of the division algorithm or the ideal descent."""


class DivResult(_Record):
    """Quotient and remainder with ``a == quotient*b + remainder``."""

    __slots__ = __match_args__ = ("quotient", "remainder")
    quotient: Element
    remainder: Element

    def __init__(self, quotient: Element, remainder: Element) -> None:
        _setfield(self, "quotient", quotient)
        _setfield(self, "remainder", remainder)


def div_rem(a: Element, b: Element) -> DivResult:
    """Division with remainder: ``a = γb + ρ`` with ``2·η⁺(ρ) <= η⁺(b)``.

    The quotient is obtained by rounding both coordinates of the exact
    rational quotient ``a·b̄/η(b)`` to nearest integers (ties away from
    zero), which pins one deterministic answer out of the valid choices.
    The bound on the remainder is checked at runtime, also under ``python
    -O``: a remainder that breaks it raises :class:`EuclidInvariantError`.
    """
    qx, qy, remainder, _ = _div_rem(a, b)
    return DivResult(_mk(a.kind, qx, qy), remainder)


def _div_rem(a: Element, b: Element) -> tuple[int, int, Element, int]:
    """:func:`div_rem`'s kernel: the quotient's coordinates, the remainder ρ and ``η(ρ)``.

    The ideal descent reads ρ and its norm alone, so it builds no quotient.
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
    eta = rx * rx - mu * ry * ry
    if 2 * abs(eta) > e:
        raise EuclidInvariantError(f"remainder of {a} by {b} breaks 2·η⁺(ρ) <= η⁺(b)")
    return qx, qy, _mk(kind, rx, ry), eta


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
    if kind is RingKind.PARABOLIC:
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
        _setfield(self, "kind", kind)
        _setfield(self, "generators", generators)

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
        _setfield(self, "kind", kind)
        _setfield(self, "alpha", alpha)
        _setfield(self, "dplus_gen", dplus_gen)
        _setfield(self, "dminus_gen", dminus_gen)
        _setfield(self, "d0_gen", d0_gen)


def _descend(gens: list[Element], alpha: Element) -> tuple[Element, list[Element]]:
    """Reduce every generator modulo alpha until all remainders are zero divisors.

    Any remainder of nonzero norm replaces alpha (its norm is at most half of
    alpha's, so the restart loop terminates).
    """
    while True:
        residues: list[Element] = []
        for g in gens:
            _, _, r, eta = _div_rem(g, alpha)
            if eta != 0:
                alpha = r
                break
            residues.append(r)
        else:
            return alpha, residues


def _parabolic_basis(gens: list[Element]) -> tuple[int, int, int]:
    """Hermite basis (a, b), (0, d) of a parabolic ideal: a >= 0 and 0 <= b < d.

    Each generator x + ky, none of them 0, adds the rows (x, y) and
    k·(x + ky) = (0, x) to the ℤ-span (see :func:`decompose`).
    """
    a = b = d = 0
    for z in gens:
        x, y = z.x, z.y
        if not x:
            d = gcd(d, y)
            continue
        # s·a + t·x = g = gcd(a, x), and x/g·(a, b) − a/g·(x, y) lies on the axis
        g = gcd(a, x)
        s = pow(a // g, -1, abs(x) // g)
        t = (g - s * a) // x
        d = gcd(d, x, x // g * b - a // g * y)
        a, b = g, (s * b + t * y) % d
    return a, b % d, d


def _gaussian_alpha(gens: list[Element]) -> tuple[Element, int]:
    """A Gaussian ideal's canonical α and index D, in closed form (see :func:`decompose`)."""
    pts = [(z.x, z.y) for z in gens]
    g = gcd(*(c for xy in pts for c in xy))
    pairs = [(u * x + v * y, u * y - v * x) for j, (x, y) in enumerate(pts) for u, v in pts[:j]]
    index = gcd(*(x * x + y * y for x, y in pts), *(m for pair in pairs for m in pair))
    n = index // (g * g)
    if n == 1:
        return _mk(RingKind.ELLIPTIC, g, 0), index
    px = py = 0
    for vx, vy in (v for x, y in pts for v in ((x // g, y // g), (-y // g, x // g))):
        # the largest divisor of n prime to py; once py is prime to n, t = n adds nothing
        t = n // gcd(n, pow(py, n.bit_length(), n))
        px, py = (px + t * vx) % n, (py + t * vy) % n
    c = px * pow(py, -1, n) % n
    r, s = n, c
    while s * s > n:
        r, s = s, r % s
    t = isqrt(n - s * s)
    if s * s + t * t != n:
        raise EuclidInvariantError(f"Cornacchia's descent on {n} from {c} left a non-square")
    t = t if (s - c * t) % n == 0 else -t
    return _mk(RingKind.ELLIPTIC, g * s, g * t).canonical_associate()[0], index


def decompose(ideal: FGIdeal) -> IdealDecomposition:
    """Split an ideal as ``(α) + (zero-divisor part)``, with α of least nonzero norm.

    That minimality is what makes the membership test in
    :func:`ideal_contains` exact.

    Parabolic ideals have a closed form.  As (c + ke)·g = c·g + e·(k·g), the
    ideal is the ℤ-span of the nonzero gᵢ = (xᵢ, yᵢ) and k·gᵢ = (0, xᵢ).  One
    extended-gcd fold over these rows gives its Hermite basis (a, b), (0, d):
    a row (x, y) with x ≠ 0 takes a to g = gcd(a, x) = s·a + t·x and b to
    s·b + t·y, and leaves (x/g)·b − (a/g)·y on the axis, a unimodular step;
    an axis row (0, y) takes d to gcd(d, y).  If a = 0 every generator lies on
    the axis: there is no α, and the axis generator is d.  Otherwise every x
    in the ideal is a multiple of a and η = x², so α = a + k·(b mod d) has
    least nonzero norm, and the ideal meets the axis in dℤ.  As k·α = (0, a)
    lies in the ideal, d | a, so 0 <= b mod d < d <= a is already the range
    of :meth:`Element.canonical_associate`.  (a, b mod d, d) is the Hermite
    form of the lattice, so α does not depend on the order of the generators.

    Gaussian ideals have a closed form.  The ideal is (α), since ℤ[i] is a
    PID, and the ℤ-span of the nonzero gᵢ = (xᵢ, yᵢ) and i·gᵢ.  Its content
    g (gcd of all coordinates) is α's; its index D (gcd of the 2×2 minors
    N(gᵢ), xᵢxⱼ + yᵢyⱼ and xᵢyⱼ − yᵢxⱼ) is N(α).  So α = g·β with β = s + ti
    primitive of norm n = D/g², and t is prime to n.  For c = s·t⁻¹ mod n,
    x ≡ c·y (mod n) is a lattice of index n holding β and iβ: it is (β), and
    c² ≡ −1.  So c = X·Y⁻¹ for any (X, Y) in (β) with Y prime to n, found by
    folding in the gᵢ/g and i·gᵢ/g as (X, Y) += t·v, t the largest divisor
    of n prime to Y: a prime of n stays in Y only if it divides every v's y,
    and their gcd is 1.  Cornacchia's descent (Basilla 2004 for composite n):
    the first remainder s of Euclid on (n, c) with s² <= n has n − s² = t²
    and s ≡ ±c·t (mod n), and the sign that puts s + ti in (β) makes it β.

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

    In every ring α is checked at runtime, also under ``python -O``: a descent
    from α that finds a smaller norm raises :class:`EuclidInvariantError`.  A
    Gaussian α then divides every generator; with norm D it generates the ideal.
    A parabolic d must equal gcd(a, y of each residue), the axis part read
    from that descent.
    """
    kind = ideal.kind
    gens = [g for g in ideal.generators if g]
    if not gens:
        return IdealDecomposition(kind, None, 0, 0, 0)

    if kind is RingKind.HYPERBOLIC:
        uvs = [diagonal_coords(g) for g in gens]
        p = gcd(*(u for u, _ in uvs))
        q = gcd(*(v for _, v in uvs))
        if not (p and q):
            return IdealDecomposition(kind, None, p // 2, q // 2, 0)
        k = 2 if all((u // p - v // q) % 2 == 0 for u, v in uvs) else 1
        alpha = from_diagonal_coords(p, q)
    elif kind is RingKind.ELLIPTIC:
        alpha, index = _gaussian_alpha(gens)
    else:
        a, b, d = _parabolic_basis(gens)
        if not a:  # every generator lies on the axis
            return IdealDecomposition(kind, None, 0, 0, d)
        alpha = _mk(kind, a, b)

    alpha2, residues = _descend(gens, alpha)
    if alpha2 != alpha:
        raise EuclidInvariantError(f"descent found {alpha2} below {alpha}: α was not minimal")
    if kind is RingKind.HYPERBOLIC:
        return IdealDecomposition(kind, alpha, k * p // 2, k * q // 2, 0)
    if kind is RingKind.ELLIPTIC:
        if any(residues):
            raise EuclidInvariantError(f"nonzero elliptic residues {residues} after descent")
        if alpha.eta != index:
            raise EuclidInvariantError(f"N({alpha}) = {alpha.eta} is not the ideal's index {index}")
        return IdealDecomposition(kind, alpha, 0, 0, 0)
    if gcd(a, *(r.y for r in residues)) != d:
        raise EuclidInvariantError(f"axis generator {d} is not the descent's from {alpha}")
    return IdealDecomposition(kind, alpha, 0, 0, d)


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
    if dec.alpha is None:  # z must lie on a zero-divisor line the ideal meets
        if kind is RingKind.PARABOLIC:
            on_line, g = x == 0, dec.d0_gen
        else:  # the diagonals; every line generator of an elliptic ideal is 0
            on_line, g = abs(x) == abs(y), dec.dplus_gen if x == y else dec.dminus_gen
        return not z or (on_line and g != 0 and y % g == 0)
    a, b = dec.alpha.x, dec.alpha.y
    if kind is RingKind.ELLIPTIC:
        n = a * a + b * b
        return (x * a + y * b) % n == 0 and (y * a - x * b) % n == 0
    if kind is RingKind.HYPERBOLIC:
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
