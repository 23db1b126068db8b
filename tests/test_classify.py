import dataclasses
import random
import time

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import planeint.classification as classification
from planeint import (
    Classification,
    Element,
    IrreducibleForm,
    PrimeIntegerReport,
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
    split,
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


    def test_huge_gaussian_norm_with_a_small_prime(self):
        # 2,000-digit coordinates with 5 | x² + y²: one gcd settles the 4,000-digit norm, no Miller–Rabin round
        rng = random.Random(28)
        x = rng.randrange(10**1999, 10**2000) // 10 * 10 + 1
        y = rng.randrange(10**1999, 10**2000) // 10 * 10 + 2
        start = time.perf_counter()
        c = classify(C(x, y))
        assert time.perf_counter() - start < 0.01
        assert c.is_reducible and not (c.is_prime or c.is_irreducible)


def _reference_flags(z):
    """(prime, irreducible) for a nonzero non-unit, from sympy and the paper's rules."""
    x, y = abs(z.x), abs(z.y)
    if z.kind is RingKind.ELLIPTIC:
        # prime norm off the axes; on them, an integer prime p ≡ 3 (mod 4)
        prime = sympy.isprime(x * x + y * y) if x and y else (x + y) % 4 == 3 and sympy.isprime(x + y)
        return prime, prime
    if z.kind is RingKind.HYPERBOLIC:
        if x == y:  # the diagonals: the associates of 1 ± j are prime, nothing is irreducible
            return x == 1, False
        if sympy.isprime(abs(x * x - y * y)):
            return True, True
        # the associates of (2^γ+1) ± j(2^γ-1): the larger coordinate exceeds the
        # smaller by 2, and their sum is a power of two
        low, high = sorted((x, y))
        return False, high - low == 2 and (high + low) & (high + low - 1) == 0
    if x == 0:  # the parabolic axis: ±k
        return y == 1, y == 1
    factors = sympy.factorint(x)  # off the axis: |x| = p, or |x| = p^g with p ∤ y
    if len(factors) != 1:
        return False, False
    ((p, g),) = factors.items()
    return False, g == 1 or y % p != 0


def reference_classify(z):
    """The verdict built field by field, independently of planeint.classification."""
    zero, unit = not z, z.is_unit()
    prime, irreducible = (False, False) if zero or unit else _reference_flags(z)
    reducible = not zero and not unit and not irreducible
    return Classification(zero, unit, z.is_zero_divisor(), prime, irreducible, reducible)


# a prime norm above the proven Miller-Rabin bound (about 2^81.4) is trial-divided,
# so Gaussian points off the axes stay below 2^40; on them the norm test is of |x + y|
BIG = 2**64
GAUSSIAN_OFF_AXIS = 2**40


@st.composite
def elements(draw):
    kind = draw(st.sampled_from(list(RingKind)))
    bound = draw(st.sampled_from((6, BIG)))
    x, y = draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound))
    if kind is RingKind.ELLIPTIC and max(abs(x), abs(y)) > GAUSSIAN_OFF_AXIS:
        if draw(st.booleans()):
            x, y = x % GAUSSIAN_OFF_AXIS, y % GAUSSIAN_OFF_AXIS
        else:
            x, y = draw(st.sampled_from(((x, 0), (0, y))))
    return Element(kind, x, y)


class TestInternedVerdicts:
    """classify returns shared records; only ``is`` identity is new."""

    CASES = {
        "zero": [C(0, 0), H(0, 0), K(0, 0)],
        "unit": [C(0, -1), H(-1, 0), H(0, 1), K(1, 5), K(-1, -7)],
        "zero divisor, prime, reducible": [H(1, 1), H(-1, 1), H(1, -1)],
        "zero divisor, prime, irreducible": [K(0, 1), K(0, -1)],
        "zero divisor, neither": [H(2, 2), H(-3, 3), K(0, 2), K(0, -6)],
        "prime and irreducible": [C(5, 2), C(-3, 0), C(0, 7), H(2, 1), H(-3, 4)],
        "irreducible, not prime": [H(2, 0), H(3, 1), H(-1, 3), K(2, 0), K(3, 7), K(-4, 1)],
        "reducible, not prime": [C(2, 0), C(3, 3), H(4, 0), H(5, 1), K(6, 1), K(-4, 2)],
    }

    def test_equal_verdicts_are_identical(self):
        for name, zs in self.CASES.items():
            first = classify(zs[0])
            for z in zs:
                c = classify(z)
                assert c is first, (name, z)
                assert c == reference_classify(z), (name, z)
        # each case is a different verdict
        assert len({classify(zs[0]) for zs in self.CASES.values()}) == len(self.CASES)

    def test_box(self):
        seen = {}
        for kind in RingKind:
            for z in [Element(kind, 0, 0), *_box(kind, 12)]:
                c = classify(z)
                assert seen.setdefault(c, c) is c, z
        assert len(seen) == len(self.CASES)

    @given(elements())
    def test_matches_the_field_by_field_verdict(self, z):
        c = classify(z)
        assert c == reference_classify(z)
        assert c is classify(Element(z.kind, z.x, z.y))

    def test_replace_leaves_the_table(self):
        table = {name: dataclasses.astuple(classify(zs[0])) for name, zs in self.CASES.items()}
        c = classify(C(5, 2))
        d = dataclasses.replace(c, is_prime=False)
        assert d is not c and d != c and not d.is_prime
        assert classify(C(5, 2)) is c and c.is_prime
        assert {name: dataclasses.astuple(classify(zs[0])) for name, zs in self.CASES.items()} == table
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.is_prime = False

    def test_one_norm_per_verdict(self, monkeypatch):
        # classify, is_prime and is_irreducible read the coordinates, not the
        # eta -> eta_plus property chain
        def no_property(z):
            raise AssertionError(f"norm property read for {z!r}")

        monkeypatch.setattr(Element, "eta", property(no_property))
        for kind in RingKind:
            for z in [Element(kind, 0, 0), *_box(kind, 5)]:
                classify(z), is_prime(z), is_irreducible(z)


def _from_diagonal(u, v):
    return H((u + v) // 2, (u - v) // 2)


def _carmichael_numbers(count, k):
    """Chernick's (6k+1)(12k+1)(18k+1) from k on, a Carmichael number whenever all three factors are prime."""
    out = []
    while len(out) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            out.append(factors[0] * factors[1] * factors[2])
        k += 1
    return out


class TestHyperbolicDiagonalRule:
    """The hyperbolic verdict, read from the diagonal coordinates u = x+y and v = x-y.

    Every pair {|u|, |v|} is tried with both signs on each coordinate and in
    both orders, against the sympy and paper-rule referee, which reads the
    norm x² - y² and the form (2^γ+1) ± j(2^γ-1) from x and y.
    """

    PSI_4 = 3_215_031_751  # 151·751·28351, a strong pseudoprime to the bases 2, 3, 5 and 7

    @classmethod
    def _both_non_units(cls):
        rng = random.Random("hyperbolic-both-non-units")
        pairs = [(2, 1 << (gamma + 1)) for gamma in range(101)]  # the irreducible non-primes
        pairs += [(2, (1 << k) * m) for k in range(1, 100, 9) for m in (3, 5, 15, 2**31 - 1, rng.getrandbits(60) | 1)]
        pairs += [(4, 1 << k) for k in range(2, 190, 11)]
        for _ in range(60):  # 20-200 bits of norm, both coordinates odd or both even
            u = rng.getrandbits(rng.randint(2, 100)) | 2
            v = rng.getrandbits(rng.randint(18, 100)) | 2
            pairs.append((u, v) if u % 2 == v % 2 else (u, v + 1))
        pairs += [(2**61 - 1, 2**89 - 1), (3, 2**127 - 1), (cls.PSI_4, 2**31 - 1)]
        return pairs

    @classmethod
    def _one_unit(cls):
        # primes of 20-80 bits stay below ψ13, past which a prime is trial-divided
        primes = [sympy.nextprime(3 << (b - 2)) for b in range(20, 81, 3)]
        primes += [2**61 - 1, 2**31 - 1]
        composites = _carmichael_numbers(8, 7) + _carmichael_numbers(4, 10**6)
        composites += [cls.PSI_4, (2**31 - 1) * (2**61 - 1) * (2**89 - 1)]
        return [(1, n) for n in primes + composites]

    @staticmethod
    def _associates(pairs):
        for a, b in pairs:
            for u, v in ((a, b), (b, a)):
                for su in (1, -1):
                    for sv in (1, -1):
                        yield _from_diagonal(su * u, sv * v)

    def test_both_coordinates_at_least_two(self):
        for z in self._associates(self._both_non_units()):
            assert classify(z) == reference_classify(z), z

    def test_one_coordinate_a_unit(self):
        flags = set()
        for z in self._associates(self._one_unit()):
            c = classify(z)
            assert c == reference_classify(z), z
            flags.add(c.is_prime)
        assert flags == {True, False}

    def test_no_primality_test_with_two_non_unit_coordinates(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime_int(n)

        monkeypatch.setattr(classification, "is_prime_int", counting)
        box = [z for z in _box(RingKind.HYPERBOLIC, 30) if min(abs(z.x + z.y), abs(z.x - z.y)) >= 2]
        for z in [*box, *self._associates(self._both_non_units())]:
            classify(z)
            assert calls == [], (z, calls)
        for z in self._associates(self._one_unit()):
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

    @pytest.mark.parametrize("kind", list(RingKind))
    def test_flags_are_classify_and_the_witness_is_split(self, kind):
        for p in [*sympy.primerange(2000), 2**31 - 1, 998_244_353, 2**61 - 1]:
            z = Element(kind, p, 0)
            c = classify(z)
            assert prime_integer_behavior(p, kind) == PrimeIntegerReport(c.is_prime, c.is_irreducible, split(z)), p

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            prime_integer_behavior(6, RingKind.ELLIPTIC)

    def test_no_integer_prime_is_prime_outside_c(self):
        for p in (2, 3, 5, 7, 11, 13):
            for kind in (RingKind.HYPERBOLIC, RingKind.PARABOLIC):
                assert not prime_integer_behavior(p, kind).is_prime_elt
                assert not is_prime(Element(kind, p, 0))
