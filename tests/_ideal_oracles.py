"""Independent ground-truth oracles for ideal membership (test-only).

Three routes, all avoiding the decomposition under test:

* exact: a finitely generated ideal is the Z-span of its generators and
  their θ-multiples (multiplying by a + θb is a·g + b·(θg)), so membership
  is a 2D lattice question answered through a Hermite-form basis;
* literal: enumerate all generator combinations with coefficient
  coordinates in [-B, B] and collect the representable points;
* descent: a Gaussian ideal's generator, and a parabolic ideal's α.x and
  axis generator, by Euclidean descent over the generators, on plain integers.
"""

from __future__ import annotations

from math import gcd

from planeint import Element, theta


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def hnf_basis(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Upper-triangular basis [(a, b), (0, c)] of the Z-span of the rows."""
    a = b = 0
    tail = []
    for p, q in rows:
        if p == 0:
            if q:
                tail.append(q)
            continue
        if a == 0:
            a, b = (p, q) if p > 0 else (-p, -q)
            continue
        g, s, t = _ext_gcd(a, p)
        tail.append((a // g) * q - (p // g) * b)
        a, b = g, s * b + t * q
    c = 0
    for q in tail:
        c = gcd(c, q)
    if c:
        b %= c
    return a, b, c


def ideal_lattice(gens: list[Element]) -> tuple[int, int, int]:
    th = theta(gens[0].kind)
    rows = []
    for g in gens:
        rows.append((g.x, g.y))
        tg = th * g
        rows.append((tg.x, tg.y))
    return hnf_basis(rows)


def lattice_contains(basis: tuple[int, int, int], z: Element) -> bool:
    a, b, c = basis
    if a == 0:
        return z.x == 0 and (z.y == 0 if c == 0 else z.y % c == 0)
    if z.x % a:
        return False
    rest = z.y - (z.x // a) * b
    return rest == 0 if c == 0 else rest % c == 0


def combination_points(gens: list[Element], coeff_bound: int = 12) -> set[tuple[int, int]]:
    """All Σ cᵢ·gᵢ with every coefficient coordinate in [-B, B].

    Exponential in the generator count; intended for 2-generator ideals.
    """
    kind = gens[0].kind
    points: set[tuple[int, int]] = {(0, 0)}
    for g in gens:
        multiples = set()
        for a in range(-coeff_bound, coeff_bound + 1):
            for b in range(-coeff_bound, coeff_bound + 1):
                m = Element(kind, a, b) * g
                multiples.add((m.x, m.y))
        points = {(px + mx, py + my) for px, py in points for mx, my in multiples}
    return points


def gaussian_descent_alpha(gens: list[tuple[int, int]]) -> tuple[int, int] | None:
    """Generator x + iy of a Gaussian ideal with x > 0, y >= 0, or None for the zero ideal.

    Divide every generator by the current α with each coordinate of the
    quotient rounded to nearest; a nonzero remainder has at most half α's
    norm and replaces it, until α divides them all.
    """
    gens = [g for g in gens if g != (0, 0)]
    if not gens:
        return None
    ax, ay = min(gens, key=lambda g: g[0] ** 2 + g[1] ** 2)
    done = False
    while not done:
        done = True
        for x, y in gens:
            n = ax * ax + ay * ay
            # (x + iy)(ax - i·ay) / n, each coordinate rounded to nearest
            qx = (2 * (x * ax + y * ay) + n) // (2 * n)
            qy = (2 * (y * ax - x * ay) + n) // (2 * n)
            rx, ry = x - (qx * ax - qy * ay), y - (qx * ay + qy * ax)
            if (rx, ry) != (0, 0):
                ax, ay, done = rx, ry, False
                break
    while not (ax > 0 and ay >= 0):  # multiply by i until it lands in the quadrant
        ax, ay = -ay, ax
    return ax, ay


def parabolic_descent(gens: list[tuple[int, int]]) -> tuple[int, int]:
    """(a, d0) of a parabolic ideal: α's x-coordinate a > 0 (0 when every
    generator lies on the axis) and the axis generator d0 >= 0.

    Start from the generator of least |x| off the axis and divide every
    generator by α = (ax, ay) with each coordinate of the quotient rounded to
    nearest; a remainder off the axis has |x| at most half α's and replaces it,
    until every remainder lies on the axis.  The ideal is then (α) plus those
    remainders, and meets the axis in gcd(a, their y)ℤ.
    """
    gens = [g for g in gens if g != (0, 0)]
    off_axis = [g for g in gens if g[0]]
    if not off_axis:
        return 0, gcd(*(y for _, y in gens))
    ax, ay = min(off_axis, key=lambda g: abs(g[0]))
    while True:
        residues = []
        for x, y in gens:
            n = ax * ax
            # (x + ky)(ax - k·ay) / ax², each coordinate rounded to nearest
            qx = (2 * x * ax + n) // (2 * n)
            qy = (2 * (y * ax - x * ay) + n) // (2 * n)
            rx, ry = x - qx * ax, y - qx * ay - qy * ax
            if rx:
                ax, ay = rx, ry
                break
            residues.append(ry)
        else:
            return abs(ax), gcd(ax, *residues)
