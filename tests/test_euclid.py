import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _ideal_oracles import combination_points, ideal_lattice, lattice_contains
from planeint import (
    DivisorIsZeroDivisorError,
    Element,
    FGIdeal,
    KindMismatchError,
    RingKind,
    decompose,
    div_rem,
    divides,
    elliptic,
    hyperbolic,
    ideal_contains,
    parabolic,
)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            FGIdeal(RingKind.HYPERBOLIC, ())
        with pytest.raises(KindMismatchError):
            FGIdeal(RingKind.HYPERBOLIC, (K(1, 0),))
        with pytest.raises(KindMismatchError):
            ideal_contains(decompose(FGIdeal.of(H(2, 0))), K(2, 0))


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
