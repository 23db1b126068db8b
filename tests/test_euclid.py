import ast
import itertools
import random
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import planeint
from _ideal_oracles import (
    combination_points,
    gaussian_descent_alpha,
    hnf_basis,
    ideal_lattice,
    lattice_contains,
    parabolic_descent,
)
from planeint import (
    DivisorIsZeroDivisorError,
    DivResult,
    Element,
    FGIdeal,
    KindMismatchError,
    RingError,
    RingKind,
    decompose,
    div_rem,
    divides,
    elliptic,
    euclid,
    hyperbolic,
    ideal_contains,
    parabolic,
)
from planeint.euclid import EuclidInvariantError

H, K, C = hyperbolic, parabolic, elliptic

KINDS = st.sampled_from(list(RingKind))


class TestDivRem:
    def test_exact_case(self):
        r = div_rem(C(5, 3), C(1, 1))
        assert r.quotient == C(4, -1) and r.remainder == C(0, 0)

    def test_identity(self):
        for b in (H(3, 1), K(2, 5), C(-4, 7)):
            r = div_rem(b, b)
            assert r.quotient == Element(b.kind, 1, 0) and not r.remainder

    def test_tie_rounds_away_from_zero(self):
        r = div_rem(H(7, 0), H(2, 0))
        assert r.quotient == H(4, 0) and r.remainder == H(-1, 0)
        assert r.remainder.eta_plus == 1 < 4

    def test_divisor_must_have_nonzero_norm(self):
        with pytest.raises(DivisorIsZeroDivisorError):
            div_rem(H(5, 2), H(3, 3))
        with pytest.raises(DivisorIsZeroDivisorError):
            div_rem(K(5, 2), K(0, 4))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            div_rem(H(1, 0), K(1, 0))

    @given(KINDS, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_identity_and_half_bound(self, kind, ax, ay, bx, by):
        a, b = Element(kind, ax, ay), Element(kind, bx, by)
        if b.eta == 0:
            return
        r = div_rem(a, b)
        assert r.quotient * b + r.remainder == a
        assert 2 * r.remainder.eta_plus <= b.eta_plus


class TestDivides:
    def test_examples(self):
        assert divides(H(2, 0), H(1, 1)) is None
        assert divides(H(2, 1), H(7, 5)) == H(3, 1)
        assert divides(K(0, 2), K(0, 6)) == K(3, 0)

    def test_zero_divisor_divisors(self):
        # diagonal divisor: dividend must sit on the same diagonal
        assert divides(H(2, 2), H(6, 6)) == H(3, 0)
        assert divides(H(2, 2), H(6, -6)) is None
        assert divides(H(2, 2), H(5, 5)) is None
        assert divides(H(-3, 3), H(6, -6)) == H(-2, 0)
        assert divides(K(0, 2), K(0, 5)) is None
        assert divides(K(0, 2), K(4, 6)) is None
        # zero is divisible by everything nonzero
        assert divides(H(2, 2), H(0, 0)) == H(0, 0)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divides(H(0, 0), H(1, 1))

    @given(KINDS, st.integers(-200, 200), st.integers(-200, 200),
           st.integers(-200, 200), st.integers(-200, 200))
    def test_quotient_reproduces(self, kind, bx, by, qx, qy):
        b, q = Element(kind, bx, by), Element(kind, qx, qy)
        if not b:
            return
        a = q * b
        got = divides(b, a)
        assert got is not None
        assert got * b == a

    @given(KINDS, st.integers(-200, 200), st.integers(-200, 200),
           st.integers(-200, 200), st.integers(-200, 200),
           st.integers(-200, 200), st.integers(-200, 200))
    def test_cancellability(self, kind, bx, by, zx, zy, wx, wy):
        b = Element(kind, bx, by)
        z, w = Element(kind, zx, zy), Element(kind, wx, wy)
        if b.eta == 0:
            return
        if b * z == b * w:
            assert z == w


class TestDecompose:
    def test_two_and_one_plus_j(self):
        dec = decompose(FGIdeal.of(H(2, 0), H(1, 1)))
        assert dec.alpha == H(2, 0)
        assert dec.dplus_gen == 1 and dec.dminus_gen == 1
        # that ideal is the parity sublattice x == y (mod 2)
        assert ideal_contains(dec, H(5, 3))
        assert not ideal_contains(dec, H(2, 1))

    def test_principal_diagonal(self):
        dec = decompose(FGIdeal.of(H(3, 3)))
        assert dec.alpha is None
        assert dec.dplus_gen == 3 and dec.dminus_gen == 0

    def test_axis_ideal(self):
        dec = decompose(FGIdeal.of(K(0, 1)))
        assert dec.alpha is None and dec.d0_gen == 1
        assert ideal_contains(dec, K(0, 9))
        assert not ideal_contains(dec, K(1, 0))

    def test_zero_ideal(self):
        dec = decompose(FGIdeal.of(C(0, 0)))
        assert dec.alpha is None
        assert ideal_contains(dec, C(0, 0))
        assert not ideal_contains(dec, C(1, 0))

    def test_mixed_diagonals_escape(self):
        dec = decompose(FGIdeal.of(H(1, 1), H(1, -1)))
        assert dec.alpha is not None
        assert ideal_contains(dec, H(2, 0))

    def test_prop2_shape(self):
        # an ideal inside the zero divisors lives on a single diagonal
        rng = random.Random(7)
        for _ in range(200):
            t1, t2 = rng.randint(-9, 9), rng.randint(-9, 9)
            sign = rng.choice([1, -1])
            gens = (H(t1, sign * t1), H(t2, sign * t2))
            dec = decompose(FGIdeal(RingKind.HYPERBOLIC, gens))
            assert dec.alpha is None
            assert dec.dplus_gen == 0 or dec.dminus_gen == 0

    def test_generator_membership(self):
        rng = random.Random(11)
        for _ in range(300):
            kind = rng.choice(list(RingKind))
            gens = tuple(
                Element(kind, rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(1, 3))
            )
            dec = decompose(FGIdeal(kind, gens))
            for g in gens:
                assert ideal_contains(dec, g)

    def test_against_lattice_oracle(self):
        rng = random.Random(2024)
        for kind in RingKind:
            for _ in range(60):
                gens = [
                    Element(kind, rng.randint(-8, 8), rng.randint(-8, 8))
                    for _ in range(rng.randint(1, 3))
                ]
                dec = decompose(FGIdeal(kind, tuple(gens)))
                basis = ideal_lattice(gens)
                for x in range(-12, 13):
                    for y in range(-12, 13):
                        z = Element(kind, x, y)
                        assert ideal_contains(dec, z) == lattice_contains(basis, z), (
                            gens, z,
                        )
                if kind is RingKind.HYPERBOLIC:
                    _check_hyperbolic_against_lattice(dec, basis, gens)

    def test_against_bounded_combination_search(self):
        # the literal coefficient-box oracle, feasible for two generators
        rng = random.Random(5)
        for kind in RingKind:
            for _ in range(4):
                gens = [
                    Element(kind, rng.randint(-4, 4), rng.randint(-4, 4))
                    for _ in range(2)
                ]
                if all(not g for g in gens):
                    gens[0] = Element(kind, 1, 2)
                dec = decompose(FGIdeal(kind, tuple(gens)))
                basis = ideal_lattice(gens)
                reachable = combination_points(gens, coeff_bound=12)
                for x in range(-8, 9):
                    for y in range(-8, 9):
                        z = Element(kind, x, y)
                        member = (x, y) in reachable
                        assert ideal_contains(dec, z) == member
                        assert lattice_contains(basis, z) == member

    # ideals for every branch of ideal_contains, each asserted to have the shape that selects it
    @pytest.mark.parametrize(
        "gens, shape",
        [
            *(((Element(kind, 0, 0),), "zero") for kind in RingKind),
            ((C(0, 0), C(0, 0)), "zero"),
            ((H(3, 3), H(-6, -6)), "main diagonal"),
            ((H(2, -2), H(3, -3)), "second diagonal"),
            ((H(2, 0), H(1, 1)), "k = 1"),
            ((H(4, 2), H(3, 1)), "k = 1"),
            ((H(2, 1),), "k = 2"),
            ((H(5, 3), H(7, 1)), "k = 2"),
            ((K(0, 4), K(0, 6)), "axis"),
            ((K(4, 0), K(0, 2)), "d0 < a"),
            ((K(6, 3), K(0, 4)), "d0 < a"),
            ((K(3, 1),), "d0 = a"),
            ((C(6, 4), C(10, 2)), "gaussian"),
            ((C(5, 0), C(7, 1)), "gaussian"),
        ],
    )
    def test_contains_matches_lattice_on_every_shape(self, gens, shape):
        dec = decompose(FGIdeal.of(*gens))
        a = dec.alpha
        p = a.x + a.y if a is not None else None
        assert {
            "zero": a is None and dec.dplus_gen == dec.dminus_gen == dec.d0_gen == 0,
            "main diagonal": a is None and dec.dplus_gen > 0 == dec.dminus_gen,
            "second diagonal": a is None and dec.dminus_gen > 0 == dec.dplus_gen,
            "k = 1": a is not None and 2 * dec.dplus_gen == p,
            "k = 2": a is not None and dec.dplus_gen == p,
            "axis": a is None and dec.d0_gen > 0,
            "d0 < a": a is not None and 0 < dec.d0_gen < a.x,
            "d0 = a": a is not None and dec.d0_gen == a.x,
            "gaussian": a is not None and a.eta > 1,
        }[shape], dec
        basis = ideal_lattice(list(gens))
        for x in range(-20, 21):
            for y in range(-20, 21):
                z = Element(gens[0].kind, x, y)
                assert ideal_contains(dec, z) == lattice_contains(basis, z), (dec, z)

    @given(
        st.lists(st.tuples(*[st.integers(-(2**300), 2**300)] * 2), min_size=1, max_size=4),
        st.tuples(*[st.integers(-(2**150), 2**150)] * 2),
        st.booleans(),
    )
    def test_gaussian_alpha_against_descent(self, pts, common, shared):
        # a shared factor gives α a large, often composite norm
        gens = [C(x, y) * C(*common) if shared else C(x, y) for x, y in pts]
        dec = decompose(FGIdeal.of(*gens))
        want = gaussian_descent_alpha([(g.x, g.y) for g in gens])
        assert (None if dec.alpha is None else (dec.alpha.x, dec.alpha.y)) == want

    @given(
        st.lists(
            st.tuples(st.one_of(st.just(0), st.integers(-(2**300), 2**300)),
                      st.integers(-(2**300), 2**300)),
            min_size=1, max_size=4,
        )
    )
    def test_parabolic_against_descent(self, pts):
        gens = [K(x, y) for x, y in pts]
        dec = decompose(FGIdeal.of(*gens))
        alpha = dec.alpha
        assert (0 if alpha is None else alpha.x, dec.d0_gen) == parabolic_descent(pts)
        if alpha is not None:
            assert 0 <= alpha.y < dec.d0_gen
            assert lattice_contains(ideal_lattice(gens), alpha)

    @given(
        KINDS,
        st.lists(
            st.tuples(*[st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))] * 2),
            min_size=2, max_size=4,
        ),
    )
    def test_independent_of_generator_order(self, kind, pts):
        gens = [Element(kind, x, y) for x, y in pts]
        want = decompose(FGIdeal.of(*gens))
        for order in itertools.permutations(gens):
            assert decompose(FGIdeal.of(*order)) == want, order

    def test_validation(self):
        with pytest.raises(ValueError):
            FGIdeal(RingKind.HYPERBOLIC, ())
        with pytest.raises(ValueError):
            FGIdeal.of()
        with pytest.raises(KindMismatchError):
            FGIdeal(RingKind.HYPERBOLIC, (K(1, 0),))
        with pytest.raises(KindMismatchError):
            ideal_contains(decompose(FGIdeal.of(H(2, 0))), K(2, 0))


def _all_minors(pts):
    """Every 2×2 minor of a Gaussian ideal's rows: each N(g), then each pair's dot and cross product."""
    pairs = itertools.combinations(pts, 2)
    norms = [x * x + y * y for x, y in pts]
    return norms + [m for (u, v), (x, y) in pairs for m in (u * x + v * y, u * y - v * x)]


class TestReducedClosedForms:
    """The parabolic fold runs modulo (a², 0) and (0, a); the Gaussian index stops at g²."""

    @given(
        st.integers(1, 2**200),
        st.lists(
            st.tuples(st.integers(-(2**64), 2**64).filter(bool), st.integers(-(2**64), 2**64)),
            min_size=1, max_size=3,
        ),
        st.lists(st.integers(-(2**200), 2**200).filter(bool), max_size=2),
        st.booleans(),
    )
    def test_parabolic_basis_with_common_factor(self, c, rows, axis, shared_y):
        # every x shares c, so a and a² are at least c and c²: reducing modulo them shrinks nothing
        pts = [(c * x, c * y if shared_y else y) for x, y in rows] + [(0, y) for y in axis]
        gens = [K(x, y) for x, y in pts]
        a, b, d = euclid._parabolic_basis(gens)
        assert a % c == 0
        assert (a, d) == parabolic_descent(pts)
        lattice = ideal_lattice(gens)
        assert (a, b, d) == lattice
        assert lattice_contains(lattice, K(a * a, 0)) and lattice_contains(lattice, K(0, a))

    @given(
        st.lists(st.tuples(*[st.integers(-(2**64), 2**64)] * 2).filter(any), min_size=1, max_size=4),
        st.tuples(*[st.integers(-(2**100), 2**100)] * 2).filter(any),
    )
    def test_gaussian_index_is_the_gcd_of_all_minors(self, pts, common):
        # a shared factor gives the index a large content square and a large n
        for gens in ([C(*p) for p in pts], [C(*p) * C(*common) for p in pts]):
            _, index = euclid._gaussian_alpha(gens)
            assert index == gcd(*_all_minors([(g.x, g.y) for g in gens]))

    def test_gaussian_index_reaches_content_square_at_the_last_pair(self):
        # g = 3: every minor but the last pair's is a multiple of 5·g² = 45, and that pair's
        # minors 27 and −36 bring the gcd down to g²
        pts = [(15, 0), (6, 3), (6, -3)]
        assert gcd(*_all_minors(pts)[:-2]) == 45
        assert euclid._gaussian_alpha([C(*p) for p in pts]) == (C(3, 0), 9)
        assert decompose(FGIdeal.of(*(C(*p) for p in pts))).alpha == C(3, 0)


class TestSharedFold:
    """One Hermite fold serves the Gaussian and the parabolic closed forms."""

    @given(
        st.lists(st.tuples(*[st.integers(-(2**256), 2**256)] * 2).filter(any), min_size=1, max_size=4),
        st.tuples(*[st.integers(-(2**128), 2**128)] * 2).filter(any),
        st.booleans(),
    )
    def test_gaussian_rows_give_one_and_the_root(self, pts, common, shared):
        # a shared factor gives the primitive part a large, often composite norm n
        gens = [C(*p) * C(*common) if shared else C(*p) for p in pts]
        xys = [(z.x, z.y) for z in gens]
        g = gcd(*(c for xy in xys for c in xy))
        n = gcd(*_all_minors(xys)) // (g * g)
        # (β) in the coordinates (y, x): the rows of each gᵢ/g and i·gᵢ/g
        rows = [row for x, y in xys for row in ((y // g, x // g), (x // g, -y // g))]
        one, c, d = euclid._hermite(n, n, rows)
        assert (one, c, d) == hnf_basis(rows + [(n, 0), (0, n)])
        assert (one, d) == (1, n) and (c * c + 1) % n == 0

    @given(
        st.lists(st.tuples(st.integers(-(2**64), 2**64), st.integers(-(2**64), 2**64)), min_size=1, max_size=4),
        st.integers(-(2**64), 2**64),
    )
    def test_parabolic_rows_with_a_one_stop_at_the_first(self, rows, y):
        # an x = 1 generator makes a = 1, so the fold starts at f = 1 and stops at its first row
        rows = [(1, y), *rows]
        gens = [K(x, y) for x, y in rows if (x, y) != (0, 0)]
        assert euclid._parabolic_basis(gens) == ideal_lattice(gens) == (1, 0, 1)
        unread = iter(rows)
        assert euclid._hermite(1, 1, unread) == (1, 0, 1)
        assert list(unread) == rows[1:]


def _least_on_line(basis, sign):
    """Least t > 0 with t(1 + sign·j) in the lattice, or 0 when there is none.

    A full-rank lattice contains det·ℤ², so searching to its determinant is
    exhaustive; a lower-rank hyperbolic ideal is spanned by diagonal
    generators of coordinates at most 8, so 24 covers it.
    """
    a, _, c = basis
    for t in range(1, max(abs(a * c), 24) + 1):
        if lattice_contains(basis, H(t, sign * t)):
            return t
    return 0


def _check_hyperbolic_against_lattice(dec, basis, gens):
    """α is a least-norm point of the lattice; the diagonal generators are the least on each line."""
    if dec.alpha is not None:
        assert lattice_contains(basis, dec.alpha), (gens, dec)
    least = dec.alpha.eta_plus if dec.alpha is not None else None
    for x in range(-24, 25):
        for y in range(-24, 25):
            z = H(x, y)
            if z.eta and lattice_contains(basis, z):
                assert least is not None and z.eta_plus >= least, (gens, dec, z)
    assert dec.dplus_gen == _least_on_line(basis, 1), (gens, dec)
    assert dec.dminus_gen == _least_on_line(basis, -1), (gens, dec)


def d_ideal_is_prime_witness(kind: RingKind, trials: int = 1000, seed: int = 0) -> bool:
    """Randomized check that each zero-divisor line is a prime ideal.

    Draws ``trials`` random pairs and verifies that a product landing on a
    line has a factor on that line.  Vacuous for the elliptic ring, where the
    line is {0} and the check is the integral-domain property.
    """
    if kind is RingKind.HYPERBOLIC:
        lines = [lambda e: e.x == e.y, lambda e: e.x == -e.y]
    elif kind is RingKind.PARABOLIC:
        lines = [lambda e: e.x == 0]
    else:
        lines = [lambda e: not e]
    rng = random.Random(seed)
    for _ in range(trials):
        z = Element(kind, rng.randint(-50, 50), rng.randint(-50, 50))
        w = Element(kind, rng.randint(-50, 50), rng.randint(-50, 50))
        p = z * w
        for on_line in lines:
            if on_line(p) and not (on_line(z) or on_line(w)):
                return False
    return True


class TestDiagonalPrimality:
    def test_witness_all_kinds(self):
        assert d_ideal_is_prime_witness(RingKind.HYPERBOLIC, 1000)
        assert d_ideal_is_prime_witness(RingKind.PARABOLIC, 1000)
        assert d_ideal_is_prime_witness(RingKind.ELLIPTIC, 1000)


# -- the Element-level division kept as the referee of the integer kernel ----


def _ref_round_half_away(n, d):
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def _ref_same_kind(a, b):
    if a.kind is not b.kind:
        raise KindMismatchError(f"mixed rings: {a.kind.name} and {b.kind.name}")


def reference_div_rem(a, b):
    """Division with remainder through ring operations on Elements."""
    _ref_same_kind(a, b)
    e = b.eta
    if e == 0:
        raise DivisorIsZeroDivisorError(f"divisor {b} has norm 0")
    num = a * b.conj()
    nx, ny = num.x, num.y
    if e < 0:
        nx, ny, e = -nx, -ny, -e
    q = Element(a.kind, _ref_round_half_away(nx, e), _ref_round_half_away(ny, e))
    return DivResult(q, a - q * b)


def reference_divides(b, a):
    """Exact quotient through ring operations on Elements, or None."""
    _ref_same_kind(b, a)
    if not b:
        raise ZeroDivisionError("division by the zero element")
    e = b.eta
    if e != 0:
        num = a * b.conj()
        if num.x % e or num.y % e:
            return None
        return Element(a.kind, num.x // e, num.y // e)
    if b.kind is RingKind.PARABOLIC:
        t = b.y
        if a.x != 0 or a.y % t:
            return None
        return Element(a.kind, a.y // t, 0)
    t = b.x
    on_diag = a.x == a.y if b.x == b.y else a.x == -a.y
    if not on_diag or a.x % t:
        return None
    return Element(a.kind, a.x // t, 0)


def _outcome(fn, *args):
    """The repr of a result (so int-typed coordinates are compared too), or the error."""
    try:
        return repr(fn(*args))
    except (RingError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _check_against_reference(a, b):
    assert _outcome(div_rem, a, b) == _outcome(reference_div_rem, a, b), (a, b)
    assert _outcome(divides, b, a) == _outcome(reference_divides, b, a), (b, a)


def _zero_divisor(kind, t):
    """A zero divisor of the ring: t(1±j), kt, or 0 in the elliptic ring."""
    if kind is RingKind.HYPERBOLIC:
        return Element(kind, t, t if t % 2 else -t)
    if kind is RingKind.PARABOLIC:
        return Element(kind, 0, t)
    return Element(kind, 0, 0)


_TIES = ((1, 0), (0, 1), (1, 1), (-1, 1))


def _random_pair(rng, kind):
    """A seeded pair of at most 300 bits in one of six shapes; returns (shape, a, b)."""
    bits = rng.randint(1, 300)

    def coord():
        return rng.randint(-(2**bits), 2**bits)

    shape = rng.choice(("general", "multiple", "tie", "negative", "zero-divisor", "mixed"))
    b = Element(kind, coord(), coord())
    a = Element(kind, coord(), coord())
    if shape == "multiple":
        a = b * Element(kind, coord(), coord())
    elif shape == "tie":
        # b = 2c and a = (2q + t)c: a·b̄/η(b) = q + t/2 lies halfway between integers
        c, q = a, Element(kind, coord(), coord())
        b, a = 2 * c, (2 * q + Element(kind, *rng.choice(_TIES))) * c
    elif shape == "negative":
        # |y| > |x|: a negative norm in the hyperbolic ring
        big = rng.randint(2**bits, 2 ** (bits + 1))
        b = Element(kind, coord() // 2, rng.choice((big, -big)))
    elif shape == "zero-divisor":
        b = _zero_divisor(kind, coord() or 1)
        if rng.random() < 0.5:
            a = b * Element(kind, coord(), coord())
    elif shape == "mixed":
        a = Element(rng.choice([k for k in RingKind if k is not kind]), coord(), coord())
    return shape, a, b


class TestKernelAgainstReference:
    """div_rem and divides on ints give what the Element-level reference gives."""

    def test_box(self):
        box = range(-4, 5)
        for kind in RingKind:
            points = [Element(kind, x, y) for x in box for y in box]
            for a in points:
                for b in points:
                    _check_against_reference(a, b)

    def test_random_large(self):
        rng = random.Random(17)
        for kind in RingKind:
            seen = dict.fromkeys(("negative-norm", "tie", "zero-divisor", "divides"), 0)
            for _ in range(3000):
                shape, a, b = _random_pair(rng, kind)
                _check_against_reference(a, b)
                seen["negative-norm"] += b.eta < 0
                seen["tie"] += shape == "tie" and b.eta != 0
                seen["zero-divisor"] += b.eta == 0
                seen["divides"] += a.kind is kind and bool(b) and divides(b, a) is not None
            assert seen["tie"] > 300 and seen["zero-divisor"] > 300, (kind, seen)
            assert seen["divides"] > 400, (kind, seen)
            if kind is RingKind.HYPERBOLIC:
                assert seen["negative-norm"] > 600, seen

    @given(KINDS, *[st.integers(-(2**300), 2**300)] * 4)
    def test_property(self, kind, ax, ay, bx, by):
        _check_against_reference(Element(kind, ax, ay), Element(kind, bx, by))

    @given(KINDS, *[st.integers(-(2**100), 2**100)] * 4, st.sampled_from(_TIES))
    def test_property_ties(self, kind, cx, cy, qx, qy, tie):
        c = Element(kind, cx, cy)
        a = (2 * Element(kind, qx, qy) + Element(kind, *tie)) * c
        _check_against_reference(a, 2 * c)

    def test_ideals(self, monkeypatch):
        # decompose checks each closed form with ideal_contains' divisibility
        # rule, and neither divides: with the division kernel and divides
        # raising, every result is the same
        rng = random.Random(23)
        cases = []
        for kind in RingKind:
            for bits in (16, 64, 256):
                def point():
                    return Element(kind, rng.randint(-(2**bits), 2**bits),
                                   rng.randint(-(2**bits), 2**bits))

                for _ in range(10):
                    gens = [point() for _ in range(rng.randint(2, 4))]
                    if rng.random() < 0.3:
                        gens[0] = _zero_divisor(kind, rng.randint(1, 2**bits))
                    members = [
                        sum((g * Element(kind, rng.randint(-9, 9), rng.randint(-9, 9))
                             for g in gens), Element(kind, 0, 0))
                        for _ in range(5)
                    ]
                    others = [point() for _ in range(5)]
                    cases.append((FGIdeal(kind, tuple(gens)), members + others))

        def run():
            out = []
            for ideal, queries in cases:
                dec = decompose(ideal)
                out.append((repr(dec), [ideal_contains(dec, z) for z in queries]))
            return out

        got = run()
        assert all(all(answers[:5]) for _, answers in got)

        def no_division(*args):
            raise AssertionError("an ideal operation divided")

        monkeypatch.setattr(euclid, "div_rem", no_division)
        monkeypatch.setattr(euclid, "divides", no_division)
        assert run() == got


class TestInvariantChecks:
    """Each guarded result raises EuclidInvariantError when broken, also under ``python -O``."""

    def test_error_type(self):
        assert issubclass(EuclidInvariantError, RingError)
        assert "EuclidInvariantError" not in planeint.__all__

    def test_division_bound(self, monkeypatch):
        # with θ² = -2 (the ring Z[√-2]) rounding a·b̄/η(b) leaves 2·η⁺(ρ) = 6 > 4 = η⁺(b)
        monkeypatch.setattr(RingKind.ELLIPTIC, "mu", -2)
        with pytest.raises(EuclidInvariantError, match="breaks"):
            div_rem(C(1, 1), C(2, 0))

    def test_decompose_minimality(self, monkeypatch):
        # a parabolic fold that stopped at the generator 3 gives α = 3, not of minimal norm
        monkeypatch.setattr(euclid, "_parabolic_basis", lambda gens: (3, 0, 1))
        with pytest.raises(EuclidInvariantError, match="not minimal"):
            decompose(FGIdeal.of(K(5, 0), K(3, 0)))

    def test_parabolic_axis_generator(self, monkeypatch):
        # α = 4 is right, but (4, 2k) meets the axis in 2ℤ, not the fold's 4ℤ
        real = euclid._parabolic_basis
        assert real([K(4, 0), K(0, 2)]) == (4, 0, 2)
        monkeypatch.setattr(euclid, "_parabolic_basis", lambda gens: (*real(gens)[:2], 4))
        with pytest.raises(EuclidInvariantError, match="axis generator"):
            decompose(FGIdeal.of(K(4, 0), K(0, 2)))

    def test_gaussian_closed_form_minimality(self, monkeypatch):
        # 2α = 4 divides neither generator, so neither is a member of the ideal it claims
        real = euclid._gaussian_alpha

        def doubled(gens):
            alpha, index = real(gens)
            return 2 * alpha, index

        monkeypatch.setattr(euclid, "_gaussian_alpha", doubled)
        with pytest.raises(EuclidInvariantError, match="not minimal"):
            decompose(FGIdeal.of(C(6, 4), C(10, 2)))

    def test_gaussian_closed_form_norm(self, monkeypatch):
        # α/(1+i) divides every generator, so only its norm, half the index, shows it is too big
        real = euclid._gaussian_alpha

        def halved(gens):
            alpha, index = real(gens)
            return divides(C(1, 1), alpha).canonical_associate()[0], index

        assert decompose(FGIdeal.of(C(6, 4), C(10, 2))).alpha == C(2, 0)
        monkeypatch.setattr(euclid, "_gaussian_alpha", halved)
        with pytest.raises(EuclidInvariantError, match="index"):
            decompose(FGIdeal.of(C(6, 4), C(10, 2)))

    def test_hyperbolic_closed_form_minimality(self, monkeypatch):
        # a closed form that doubled both diagonal coordinates would give α = (6, 2),
        # four times the least norm of the ideal (2 + j) = (3, 1)
        real = euclid.from_diagonal_coords
        monkeypatch.setattr(euclid, "from_diagonal_coords", lambda u, v: real(2 * u, 2 * v))
        with pytest.raises(EuclidInvariantError, match="not minimal"):
            decompose(FGIdeal.of(H(2, 1)))

    def test_gaussian_conjugate_alpha(self, monkeypatch):
        # ᾱ = 3 − 2i has the index 13 of (3 + 2i), so only membership shows it is the wrong prime
        real = euclid._gaussian_alpha

        def conjugate(gens):
            alpha, index = real(gens)
            return alpha.conj(), index

        assert real([C(3, 2)]) == (C(3, 2), 13)
        monkeypatch.setattr(euclid, "_gaussian_alpha", conjugate)
        with pytest.raises(EuclidInvariantError, match="not minimal"):
            decompose(FGIdeal.of(C(3, 2)))

    def test_hyperbolic_parity_bit(self, monkeypatch):
        # (3 − j, 3 + j) has diagonal coordinates (2, 4) and (4, 2): P = Q = 2 and
        # u/P − v/Q is odd, so the bit is 1 and each diagonal generator is 1; a bit
        # of 2 would double both and leave the generators outside the claimed ideal
        ideal = FGIdeal.of(H(3, -1), H(3, 1))
        dec = decompose(ideal)
        assert (dec.alpha, dec.dplus_gen, dec.dminus_gen) == (H(2, 0), 1, 1)
        monkeypatch.setattr(euclid, "all", lambda parities: True, raising=False)
        with pytest.raises(EuclidInvariantError, match="not minimal"):
            decompose(ideal)


def test_no_assert_statements_in_package():
    # results are guarded by explicit checks: "python -O" strips assert statements,
    # and a bare "raise AssertionError" names no error a caller can expect
    for path in sorted(Path(planeint.__file__).parent.glob("*.py")):
        found = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names = {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
                if "AssertionError" in names:
                    found.append(node.lineno)
            elif isinstance(node, ast.Assert):
                found.append(node.lineno)
        assert not found, (path.name, found)
