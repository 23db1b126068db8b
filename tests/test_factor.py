import random
from math import isqrt

import pytest

from planeint import (
    Element,
    RingKind,
    ZeroDivisorFactorizationError,
    diff_two_squares,
    elliptic,
    extended_gcd,
    factor,
    hyperbolic,
    int_factor,
    is_prime_int,
    oracle_irreducible,
    parabolic,
    split,
    sum_two_squares,
    two_adic_valuation,
)

H, K, C = hyperbolic, parabolic, elliptic


class TestIntegerHelpers:
    def test_is_prime_int(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(-3, 50):
            assert is_prime_int(n) == (n in primes)
        assert is_prime_int(7919) and not is_prime_int(7917)

    def test_int_factor(self):
        assert int_factor(64) == (1, [(2, 6)])
        assert int_factor(225) == (1, [(3, 2), (5, 2)])
        assert int_factor(-15) == (-1, [(3, 1), (5, 1)])
        assert int_factor(1) == (1, [])
        with pytest.raises(ValueError):
            int_factor(0)

    def test_int_factor_reconstructs(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(-10**6, 10**6) or 1
            sign, primes = int_factor(n)
            prod = sign
            for p, e in primes:
                assert is_prime_int(p)
                prod *= p**e
            assert prod == n

    def test_two_adic_valuation(self):
        for n, v in [(1, 0), (12, 2), (-12, 2), (-7, 0), (2**40 * 3, 40)]:
            assert two_adic_valuation(n) == v
        with pytest.raises(ValueError):
            two_adic_valuation(0)

    def test_extended_gcd(self):
        for a, b in [(240, 46), (-240, 46), (0, 5), (5, 0), (-7, -3), (12, 18)]:
            g, x, y = extended_gcd(a, b)
            assert g >= 0 and a * x + b * y == g


class TestSplit:
    def test_examples(self):
        assert split(H(8, 0)) == (H(2, 0), H(4, 0))
        assert split(K(6, 5)) == (K(2, 1), K(3, 1))
        assert split(H(3, 1)) is None
        assert split(K(9, 1)) is None

    def test_split_product_checks(self):
        b, c = split(K(6, 5))
        assert b * c == K(6, 5)
        b, c = split(H(8, 0))
        assert b * c == H(8, 0)

    def test_axis_extension(self):
        assert split(K(0, 6)) == (K(6, 0), K(0, 1))
        assert split(K(0, 1)) is None and split(K(0, -1)) is None

    def test_negative_real_part(self):
        pair = split(K(-6, 5))
        assert pair is not None and pair[0] * pair[1] == K(-6, 5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            split(H(0, 0))
        with pytest.raises(ValueError):
            split(K(1, 3))
        with pytest.raises(ZeroDivisorFactorizationError):
            split(H(4, 4))

    def test_absent_iff_irreducible_on_box(self):
        for kind in RingKind:
            for x in range(-10, 11):
                for y in range(-10, 11):
                    z = Element(kind, x, y)
                    if not z or z.is_unit():
                        continue
                    if kind is RingKind.HYPERBOLIC and z.eta == 0:
                        continue
                    assert (split(z) is None) == oracle_irreducible(z), z


class TestFactor:
    def test_eight_in_h(self):
        f = factor(H(8, 0))
        assert f.unit == H(1, 0)
        assert list(f.factors) == [H(2, 0)] * 3
        assert f.product() == H(8, 0)

    def test_four_in_k(self):
        f = factor(K(4, 0))
        assert list(f.factors) == [K(2, 0), K(2, 0)]

    def test_fifteen_in_h(self):
        f = factor(H(15, 0))
        assert f.product() == H(15, 0)
        assert {q for q in f.factors} == {H(2, 1), H(2, -1), H(3, 2), H(3, -2)}

    def test_five_in_c(self):
        f = factor(C(5, 0))
        assert f.product() == C(5, 0)
        assert sorted(q.eta for q in f.factors) == [5, 5]

    def test_non_uniqueness_witnesses(self):
        # two genuinely different factorizations of the same element
        assert H(3, 1) * H(3, -1) == H(8, 0)
        assert K(2, 1) * K(2, -1) == K(4, 0)
        for q in (H(3, 1), H(3, -1), H(2, 0), K(2, 1), K(2, -1), K(2, 0)):
            assert oracle_irreducible(q)

    def test_axis_extension_flagged(self):
        f = factor(K(0, 6))
        assert f.axis_extension
        assert f.product() == K(0, 6)
        assert K(0, 1) in f.factors
        f = factor(K(0, -1) * K(3, 2) * K(5, 1))
        assert f.product() == K(0, -15)
        f = factor(K(12, 7))
        assert not f.axis_extension

    def test_errors(self):
        with pytest.raises(ValueError):
            factor(H(0, 0))
        with pytest.raises(ValueError):
            factor(C(0, 1))
        with pytest.raises(ZeroDivisorFactorizationError):
            factor(H(3, 3))

    def test_factors_are_canonical_and_sorted(self):
        f = factor(H(-15, 0))
        assert f.product() == H(-15, 0)
        norms = [q.eta_plus for q in f.factors]
        assert norms == sorted(norms)
        for q in f.factors:
            assert q.canonical_associate()[0] == q

    def test_random_box_validity(self):
        rng = random.Random(17)
        for _ in range(400):
            kind = rng.choice(list(RingKind))
            z = Element(kind, rng.randint(-60, 60), rng.randint(-60, 60))
            if not z or z.is_unit():
                continue
            if kind is RingKind.HYPERBOLIC and z.eta == 0:
                continue
            f = factor(z)
            assert f.unit.is_unit()
            assert f.product() == z


class TestTwoSquares:
    def test_diff_examples(self):
        assert diff_two_squares(8) == (3, 1)
        assert diff_two_squares(6) is None
        assert diff_two_squares(15) == (4, 1)
        assert diff_two_squares(1) == (1, 0)
        with pytest.raises(ValueError):
            diff_two_squares(0)

    def test_diff_matches_two_adic_rule(self):
        for n in range(1, 400):
            rs = diff_two_squares(n)
            assert (rs is not None) == (two_adic_valuation(n) != 1)
            if rs:
                r, s = rs
                assert r * r - s * s == n

    def test_diff_minimal_r(self):
        for n in range(1, 200):
            rs = diff_two_squares(n)
            if rs is None:
                continue
            r, _ = rs
            for smaller in range(r):
                rest = smaller * smaller - n
                assert rest < 0 or isqrt(rest) ** 2 != rest

    def test_preserved_by_odd_products(self):
        odds = [n for n in range(3, 40, 2)]
        for a in odds:
            for b in odds:
                assert diff_two_squares(a * b) is not None

    def test_sum_examples(self):
        assert sum_two_squares(5) == (2, 1)
        assert sum_two_squares(2) == (1, 1)
        assert sum_two_squares(7) is None
        with pytest.raises(ValueError):
            sum_two_squares(9)

    def test_sum_absent_iff_three_mod_four(self):
        for p in range(2, 500):
            if not is_prime_int(p):
                continue
            rs = sum_two_squares(p)
            assert (rs is None) == (p % 4 == 3)
            if rs:
                a, b = rs
                assert a * a + b * b == p
