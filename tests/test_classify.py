import pytest

import planeint.classification as classification
from planeint import (
    Element,
    IrreducibleForm,
    RingKind,
    classify,
    divides,
    elliptic,
    hyperbolic,
    is_irreducible,
    is_prime,
    is_prime_int,
    parabolic,
    prime_integer_behavior,
)

H, K, C = hyperbolic, parabolic, elliptic


def _box(kind, b):
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            if x or y:
                yield Element(kind, x, y)


class TestIsPrime:
    def test_hyperbolic(self):
        assert is_prime(H(1, 1)) and is_prime(H(1, -1))
        assert is_prime(H(-1, -1))
        assert not is_prime(H(2, 0))
        assert not is_prime(H(2, 2))  # on the diagonal but not an associate of 1+j
        assert is_prime(H(2, 1))  # norm 3
        assert not is_prime(H(3, 1))  # norm 8

    def test_parabolic(self):
        assert is_prime(K(0, 1)) and is_prime(K(0, -1))
        assert not is_prime(K(0, 2))
        assert not is_prime(K(2, 0))
        assert not is_prime(K(3, 1))

    def test_elliptic_matches_irreducible(self):
        for z in _box(RingKind.ELLIPTIC, 10):
            if z.is_unit():
                continue
            assert is_prime(z) == is_irreducible(z)

    def test_zero_and_units(self):
        for z in (H(0, 0), H(1, 0), K(1, 5), C(0, 1)):
            assert not is_prime(z) and not is_irreducible(z)


class TestIsIrreducible:
    def test_two_is_irreducible_in_h_and_k(self):
        assert is_irreducible(H(2, 0))
        assert is_irreducible(K(2, 0))
        assert not is_irreducible(C(2, 0))

    def test_norm_eight_family(self):
        assert is_irreducible(H(3, 1)) and is_irreducible(H(3, -1))

    def test_parabolic_prime_power_rule(self):
        assert not is_irreducible(K(9, 3))
        assert is_irreducible(K(9, 1))
        assert K(3, 1) * K(3, 0) == K(9, 3)  # the reducibility witness
        assert is_irreducible(K(3, 0))
        assert not is_irreducible(K(6, 5)) and not is_irreducible(K(6, 0))
        assert not is_irreducible(K(0, 4)) and is_irreducible(K(0, -1))

    def test_elliptic(self):
        assert is_irreducible(C(3, 0))
        assert is_irreducible(C(0, 7))  # associate of 7
        assert is_irreducible(C(1, 1))
        assert is_irreducible(C(2, 1))
        assert not is_irreducible(C(5, 0))

    def test_hyperbolic_diagonal_reducible(self):
        # every nonzero diagonal element is reducible
        for t in range(1, 12):
            for z in (H(t, t), H(-t, -t), H(t, -t), H(-t, t)):
                assert not is_irreducible(z)


class TestClassify:
    def test_prime_yet_reducible(self):
        c = classify(H(1, 1))
        assert c.is_zero_divisor and c.is_prime and c.is_reducible and not c.is_irreducible

    def test_irreducible_not_prime(self):
        c = classify(H(2, 0))
        assert c.is_irreducible and not c.is_prime

    def test_unit(self):
        c = classify(K(1, 5))
        assert c.is_unit
        assert not (c.is_prime or c.is_irreducible or c.is_reducible or c.is_zero_divisor)

    def test_zero(self):
        c = classify(C(0, 0))
        assert c.is_zero and c.is_zero_divisor
        assert not (c.is_unit or c.is_prime or c.is_irreducible or c.is_reducible)

    def test_flags_consistent_on_box(self):
        for kind in RingKind:
            for z in _box(kind, 8):
                c = classify(z)
                if c.is_zero or c.is_unit:
                    assert not (c.is_prime or c.is_irreducible or c.is_reducible)
                else:
                    assert c.is_reducible == (not c.is_irreducible)
                if c.is_unit:
                    assert not c.is_zero_divisor

    def test_one_primality_test_per_classify(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime_int(n)

        monkeypatch.setattr(classification, "is_prime_int", counting)
        for z in (C(5, 2), H(4, 3)):  # prime norms 29 and 7
            calls.clear()
            classify(z)
            assert len(calls) == 1, (z, calls)


class TestStructuralInvariants:
    def test_prime_implies_irreducible_off_zero_divisors(self):
        for kind in RingKind:
            for z in _box(kind, 12):
                if z.is_unit() or z.is_zero_divisor():
                    continue
                if is_prime(z):
                    assert is_irreducible(z)

    def test_prime_norm_forces_the_split_form(self):
        # hyperbolic z off the diagonals with prime norm is an associate of
        # (n+1) ± jn where 2n+1 is that norm
        for z in _box(RingKind.HYPERBOLIC, 12):
            if z.eta == 0 or not is_prime_int(z.eta_plus):
                continue
            n = (z.eta_plus - 1) // 2
            canonical = z.canonical_associate()[0]
            assert canonical in (H(n + 1, n), H(n + 1, -n))

    def test_primes_divide_a_rational_prime_factor_of_their_norm(self):
        from planeint.factorization import int_factor

        for z in _box(RingKind.HYPERBOLIC, 10):
            if z.eta == 0 or z.is_unit() or not is_prime(z):
                continue
            _, primes = int_factor(z.eta)
            assert any(divides(z, H(p, 0)) is not None for p, _ in primes)

    def test_irreducible_non_primes_have_two_power_norm(self):
        for z in _box(RingKind.HYPERBOLIC, 12):
            if z.eta == 0 or z.is_unit():
                continue
            if is_irreducible(z) and not is_prime(z):
                ep = z.eta_plus
                assert ep >= 4 and ep & (ep - 1) == 0

    def test_products_of_near_diagonal_odd_forms_are_even(self):
        # (2n+1) ± j(2n-1) times (2m+1) ± j(2m-1) is always divisible by 2
        two = H(2, 0)
        for n in range(0, 8):
            for m in range(0, 8):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        z = H(2 * n + 1, s1 * (2 * n - 1))
                        w = H(2 * m + 1, s2 * (2 * m - 1))
                        assert divides(two, z * w) is not None

    def test_primes_divide_zero_divisors_or_their_conjugates(self):
        # checked, not used by any decision procedure
        for kind in (RingKind.HYPERBOLIC, RingKind.PARABOLIC):
            primes = [z for z in _box(kind, 8) if not z.is_unit() and is_prime(z)]
            for p in primes:
                for z in _box(kind, 8):
                    if z.eta != 0:
                        continue
                    assert divides(p, z) is not None or divides(p, z.conj()) is not None


class TestIrreducibleForm:
    def test_elements(self):
        assert IrreducibleForm(0, 1).element() == H(2, 0)
        assert IrreducibleForm(1, 1).element() == H(3, 1)
        assert IrreducibleForm(3, -1).element() == H(9, -7)

    def test_norm_and_sector(self):
        for gamma in range(0, 9):
            for sign in (1, -1):
                z = IrreducibleForm(gamma, sign).element()
                assert z.eta == 1 << (gamma + 2)
                assert z.x > 0
                assert is_irreducible(z) and not is_prime(z)

    def test_validation(self):
        with pytest.raises(ValueError):
            IrreducibleForm(-1, 1)
        with pytest.raises(ValueError):
            IrreducibleForm(2, 0)


class TestPrimeIntegerBehavior:
    def test_odd_prime_splits_hyperbolically(self):
        r = prime_integer_behavior(7, RingKind.HYPERBOLIC)
        assert not r.is_prime_elt and not r.is_irreducible_elt
        assert r.witness == (H(4, 3), H(4, -3))
        assert r.witness[0] * r.witness[1] == H(7, 0)
        assert is_irreducible(r.witness[0]) and is_irreducible(r.witness[1])

    def test_two_in_h(self):
        r = prime_integer_behavior(2, RingKind.HYPERBOLIC)
        assert not r.is_prime_elt and r.is_irreducible_elt and r.witness is None

    def test_parabolic_keeps_irreducibility(self):
        r = prime_integer_behavior(5, RingKind.PARABOLIC)
        assert not r.is_prime_elt and r.is_irreducible_elt

    def test_gaussian_cases(self):
        r = prime_integer_behavior(5, RingKind.ELLIPTIC)
        assert not r.is_prime_elt and r.witness == (C(2, 1), C(2, -1))
        assert r.witness[0] * r.witness[1] == C(5, 0)
        r = prime_integer_behavior(3, RingKind.ELLIPTIC)
        assert r.is_prime_elt and r.is_irreducible_elt and r.witness is None
        r = prime_integer_behavior(2, RingKind.ELLIPTIC)
        assert not r.is_prime_elt and not r.is_irreducible_elt

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            prime_integer_behavior(6, RingKind.ELLIPTIC)

    def test_no_integer_prime_is_prime_outside_c(self):
        for p in (2, 3, 5, 7, 11, 13):
            for kind in (RingKind.HYPERBOLIC, RingKind.PARABOLIC):
                assert not prime_integer_behavior(p, kind).is_prime_elt
                assert not is_prime(Element(kind, p, 0))
