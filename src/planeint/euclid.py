"""Division with remainder and finitely generated ideals.

The division algorithm works in all three rings as long as the divisor has
nonzero norm: divide exactly over rationals, round each coordinate to a
nearest integer, and the remainder's absolute norm drops to at most half the
divisor's.  Zero divisors need separate handling everywhere; the ideal
machinery below splits any finitely generated ideal into a principal part
``(α)`` plus its intersection with the zero-divisor set.
"""

from __future__ import annotations

from math import gcd

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


def _coset_min(c: int, d: int) -> tuple[int, int]:
    """``(abs_value, representative)`` of the least nonzero ``|m|``, m in ``c + dZ`` (d >= 1)."""
    r = c % d
    if r == 0:
        return d, d
    if 2 * r <= d:
        return r, r
    return d - r, r - d


def _diag_gcds(residues: list[Element]) -> tuple[int, int]:
    """gcds of the diagonal coordinates (u for the + line, v for the - line)."""
    a = b = 0
    for r in residues:  # zero adds nothing to either gcd
        u, v = diagonal_coords(r)
        if v == 0:
            a = gcd(a, u)
        else:
            b = gcd(b, v)
    return a, b


def _hyperbolic_improvement(alpha: Element, residues: list[Element]) -> Element | None:
    """A smaller-norm ideal element off the diagonals, if one exists.

    At this point the ideal equals ``(α) + Σ(ρᵢ)``, which in diagonal
    coordinates is ``{(s·u₀ + mA, t·v₀ + nB) : s ≡ t (mod 2)}`` with A, B the
    residue gcds.  Minimizing ``|uv|`` over that set reduces to two coset-gcd
    problems (s, t both even or both odd), so the exact minimum is a formula.
    """
    u0, v0 = diagonal_coords(alpha)
    a_gcd, b_gcd = _diag_gcds(residues)
    gu = gcd(2 * u0, a_gcd)
    gv = gcd(2 * v0, b_gcd)
    even_norm = gu * gv
    mu_abs, mu_val = _coset_min(u0, gu)
    mv_abs, mv_val = _coset_min(v0, gv)
    odd_norm = mu_abs * mv_abs
    if min(even_norm, odd_norm) >= alpha.eta_plus:
        return None
    if even_norm <= odd_norm:
        return from_diagonal_coords(gu, gv)
    return from_diagonal_coords(mu_val, mv_val)


def _pure_zero_divisor_part(kind: RingKind, gens: list[Element]) -> IdealDecomposition:
    if kind is RingKind.PARABOLIC:
        return IdealDecomposition(kind, None, 0, 0, gcd(*(g.y for g in gens)))
    # hyperbolic: the generators lie on a single diagonal, where t(1±j) has diagonal coordinate 2t
    gp, gm = _diag_gcds(gens)
    return IdealDecomposition(kind, None, gp // 2, gm // 2, 0)


def decompose(ideal: FGIdeal) -> IdealDecomposition:
    """Split an ideal as ``(α) + (zero-divisor part)``.

    α is found by Euclidean descent over the generators, restarted whenever a
    smaller-norm candidate appears; in the hyperbolic ring the restart is also
    fed by the exact coset-gcd minimizer, so the final α attains the minimal
    nonzero norm in the ideal.  That minimality is what makes the membership
    test in :func:`ideal_contains` exact.
    """
    kind = ideal.kind
    gens = [g for g in ideal.generators if g]
    if not gens:
        return IdealDecomposition(kind, None, 0, 0, 0)

    alpha: Element | None = None
    for g in gens:
        if g.eta != 0 and (alpha is None or g.eta_plus < alpha.eta_plus):
            alpha = g
    if alpha is None and kind is RingKind.HYPERBOLIC:
        plus = [g for g in gens if g.x == g.y]
        minus = [g for g in gens if g.x == -g.y]
        if plus and minus:
            alpha = plus[0] + minus[0]  # escapes the diagonals
    if alpha is None:
        return _pure_zero_divisor_part(kind, gens)

    while True:
        alpha, residues = _descend(gens, alpha)
        if kind is not RingKind.HYPERBOLIC:
            break
        better = _hyperbolic_improvement(alpha, residues)
        if better is None:
            break
        alpha = better

    alpha = alpha.canonical_associate()[0]
    alpha2, residues = _descend(gens, alpha)
    if alpha2 != alpha:
        raise EuclidInvariantError(f"descent found {alpha2} below {alpha}: α was not minimal")

    if kind is RingKind.ELLIPTIC:
        if any(residues):
            raise EuclidInvariantError(f"nonzero elliptic residues {residues} after descent")
        return IdealDecomposition(kind, alpha, 0, 0, 0)
    if kind is RingKind.PARABOLIC:
        return IdealDecomposition(kind, alpha, 0, 0, gcd(alpha.x, *(r.y for r in residues)))

    # hyperbolic: project the parametrized ideal onto each diagonal.  The
    # parity coupling of the α-multiplier decides whether odd multiples
    # contribute, hence the two gcd variants per line.
    u0, v0 = diagonal_coords(alpha)
    a_gcd, b_gcd = _diag_gcds(residues)
    w_plus = gcd(u0 if b_gcd and (b_gcd // gcd(b_gcd, v0)) % 2 else 2 * u0, a_gcd)
    w_minus = gcd(v0 if a_gcd and (a_gcd // gcd(a_gcd, u0)) % 2 else 2 * v0, b_gcd)
    return IdealDecomposition(kind, alpha, w_plus // 2, w_minus // 2, 0)


def ideal_contains(dec: IdealDecomposition, z: Element) -> bool:
    """Membership via the decomposition: reduce by α, then check the zero-divisor part."""
    if z.kind is not dec.kind:
        raise KindMismatchError(f"element of {z.kind.name} against a {dec.kind.name} ideal")
    if dec.alpha is None:
        r, eta = z, z.eta
    else:
        _, _, r, eta = _div_rem(z, dec.alpha)
    if not r:
        return True
    if eta != 0:
        return False
    if dec.kind is RingKind.PARABOLIC:
        return dec.d0_gen != 0 and r.y % dec.d0_gen == 0
    if dec.kind is RingKind.HYPERBOLIC:
        g = dec.dplus_gen if r.x == r.y else dec.dminus_gen
        return g != 0 and r.x % g == 0
    return False  # elliptic: the only zero divisor is 0


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
