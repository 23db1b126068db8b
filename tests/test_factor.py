import importlib
import random
import sys
import time
from itertools import chain
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import planeint
import planeint.integers as kernel
from _factor_referee import _parabolic_irreducible, referee_factor, referee_split, wheel_int_factor
from planeint import (
    Element,
    RingKind,
    ZeroDivisorFactorizationError,
    classify,
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
import planeint.classification as CLASSIFY_MODULE
import planeint.factorization as FACTOR_MODULE
from planeint.factorization import FactorWitnessError
from planeint.integers import _prime_power

H, K, C = hyperbolic, parabolic, elliptic


class TestIntegerHelpers:
    def test_is_prime_int(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(-3, 50):
            assert is_prime_int(n) == (n in primes)
        assert is_prime_int(7919) and not is_prime_int(7917)

    @pytest.mark.parametrize("n", [7.5, 12.0, 65537.0, 70001.0])
    def test_non_int_arguments_raise_type_error(self, n):
        # below 2¹⁶ the table index refuses them; above, the gcd and the 2-adic valuation do
        with pytest.raises(TypeError):
            is_prime_int(n)
        with pytest.raises(TypeError):
            int_factor(n)

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


def _trial_division_is_prime(n):
    """Reference primality: divide by every integer up to √n."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


class TestIntegerKernel:
    # ψ_9, ψ_12 and ψ_13: the least strong pseudoprimes to the first 9, 12 and 13 prime bases
    STRONG_PSEUDOPRIMES = (3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
    PROVEN_BOUND = 3317044064679887385961981

    def test_is_prime_int_matches_trial_division(self):
        for n in range(-3, 2 * 10**5):
            assert is_prime_int(n) == _trial_division_is_prime(n), n

    def test_is_prime_int_matches_sympy(self):
        rng = random.Random(20)
        for _ in range(2000):
            n = rng.getrandbits(rng.randint(20, 81))  # every n below the proven bound
            assert n < self.PROVEN_BOUND
            assert is_prime_int(n) == sympy.isprime(n), n
        for _ in range(300):  # composites between the bound and 96 bits
            n = rng.getrandbits(48) * rng.getrandbits(48)
            if n > self.PROVEN_BOUND:
                assert not is_prime_int(n), n

    def test_int_factor_matches_sympy(self):
        rng = random.Random(21)
        inputs = [rng.getrandbits(rng.randint(20, 64)) for _ in range(100)]
        for _ in range(60):  # up to 96 bits, built from primes of at most 32 bits
            n, bits = 1, rng.randint(20, 96)
            while n.bit_length() < bits:
                n *= sympy.randprime(2, 2 ** rng.randint(2, 32))
            inputs.append(n)
        for n in inputs:
            sign, primes = int_factor(-n)
            assert sign == -1
            assert primes == sorted(sympy.factorint(n).items()), n
            assert [p for p, _ in primes] == sorted(p for p, _ in primes)

    def test_strong_pseudoprimes_are_composite(self):
        for n in self.STRONG_PSEUDOPRIMES:
            assert not is_prime_int(n), n
        assert int_factor(3825123056546413051) == (1, [(149491, 1), (747451, 1), (34233211, 1)])

    def test_carmichael_numbers(self):
        small = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 63973)
        large = [75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601]
        # Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all three factors are prime
        for k in [*range(1, 200), *range(10**6, 10**6 + 3000)]:
            fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if all(sympy.isprime(f) for f in fs):
                large.append(fs[0] * fs[1] * fs[2])
        assert large[-1] > 2**60
        for n in small + tuple(large):
            assert not is_prime_int(n), n
            assert int_factor(n) == (1, sorted(sympy.factorint(n).items())), n

    def test_prime_squares_and_powers(self):
        crossover = 1 << 16
        cases = [(251, 2), (257, 2), (65521, 2), (3, 10), (3, 11), (2, 16), (2, 17),
                 (241, 2), (65537, 2), (10**9 + 7, 2), (1000003, 3), (998244353, 2), (7, 30)]
        assert any(p**e < crossover for p, e in cases) and any(p**e > crossover for p, e in cases)
        for p, e in cases:
            assert not is_prime_int(p**e), (p, e)
            assert int_factor(p**e) == (1, [(p, e)])
            assert int_factor(p**e * 11) == (1, sorted([(p, e), (11, 1)])), (p, e)

    def test_trial_division_decides_beyond_the_proven_table(self, monkeypatch):
        # with no proven row, every n >= 2**24 takes the path of an n above 3.3·10²⁴:
        # the small-prime gcd, all 25 bases, then trial division for the n that pass them
        monkeypatch.setattr(kernel, "_MR_PROVEN", ())
        rng = random.Random(23)
        inputs = [rng.getrandbits(rng.randint(25, 36)) for _ in range(300)]
        inputs += [3215031751, 2152302898747, 16777259, 1000000007, 4099**2]  # ψ_4, ψ_5, primes, 4099²
        for n in inputs:
            assert is_prime_int(n) == sympy.isprime(n), n

    def test_past_the_proven_bound_matches_sympy(self, monkeypatch):
        rng = random.Random(26)
        composites = []
        while len(composites) < 100:  # random odd ones, most with a prime below 2¹², and semiprimes with none
            bits = rng.randint(82, 192)
            if len(composites) % 2:
                n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            else:
                n = sympy.nextprime(rng.getrandbits(bits // 2)) * sympy.nextprime(rng.getrandbits(bits - bits // 2))
            if n > self.PROVEN_BOUND and not sympy.isprime(n):
                composites.append(n)
        primes = []
        for _ in range(100):
            bits = rng.randint(82, 192)
            primes.append(sympy.nextprime(max(rng.getrandbits(bits) | 1 << (bits - 1), self.PROVEN_BOUND)))
        for n in composites:
            assert is_prime_int(n) == sympy.isprime(n), n
        # a prime passes all 25 bases, then odd trial division to √n, which does not finish at these
        # sizes (ROADMAP item 4); cut it at 2¹², below which the small-prime gcd has already divided
        monkeypatch.setattr(kernel, "isqrt", lambda n: 1 << 12)
        for n in primes:
            assert is_prime_int(n) == sympy.isprime(n), n

    def test_small_prime_past_the_proven_bound_takes_no_round(self, monkeypatch):
        # one gcd with the primes below 2¹² answers, where one round at 4,300 digits takes seconds
        def no_round(n, bases):
            raise AssertionError("a Miller–Rabin round ran")

        monkeypatch.setattr(kernel, "_strong_probable_prime", no_round)
        rng = random.Random(27)
        for p in (3, 4093, *rng.sample(kernel._SMALL_PRIMES[1:], 3)):
            n = p * (rng.randrange(10**4299 // p + 1, 10**4300 // p) | 1)
            assert 10**4299 <= n < 10**4300
            start = time.perf_counter()
            assert not is_prime_int(n)
            assert time.perf_counter() - start < 0.01
        assert not is_prime_int(self.PROVEN_BOUND * 4093)  # ψ₁₃ has no prime below 2¹²

    def test_sum_two_squares_random_primes(self):
        rng = random.Random(22)
        for _ in range(300):
            p = sympy.randprime(2, 2 ** rng.randint(3, 64))
            rs = sum_two_squares(p)
            assert (rs is None) == (p % 4 == 3), p
            if rs:
                a, b = rs
                assert a * a + b * b == p and a >= b > 0, p


class TestOneGcdBelowTwoToThe24:
    """From 2¹⁶ to 2²⁴ = (2¹²)², an odd n is prime exactly when it has no prime below 2¹²."""

    def test_boundaries(self):
        assert not is_prime_int(4093 * 4099)  # 16,777,207 < 2²⁴: its one small prime is the last below 2¹²
        assert is_prime_int(16_777_213)  # the largest prime below 2²⁴
        assert not is_prime_int(4099**2)  # the least composite with no prime below 2¹², past 2²⁴

    def test_matches_a_sieve(self):
        end = (1 << 24) + (1 << 12)
        composite = bytearray(end)
        composite[:2] = b"\1\1"
        for p in range(2, isqrt(end) + 1):
            if not composite[p]:
                composite[p * p :: p] = b"\1" * len(range(p * p, end, p))
        rng = random.Random(34)
        windows = (range(1 << 16, (1 << 16) + (1 << 15)), range((1 << 24) - (1 << 15), end))
        for n in chain(*windows, (rng.randrange(1 << 16, end) for _ in range(20_000))):
            assert is_prime_int(n) == (not composite[n]), n

    def test_takes_no_round(self, monkeypatch):
        def no_round(n, bases):
            raise AssertionError("a Miller–Rabin round ran")

        monkeypatch.setattr(kernel, "_strong_probable_prime", no_round)
        rng = random.Random(35)
        for n in (65537, 4093 * 4099, 16_777_213, *(rng.randrange(1 << 16, 1 << 24) for _ in range(1000))):
            assert is_prime_int(n) == sympy.isprime(n), n


# The earlier cascade, kept as a referee: (ψ_k, k), the first k prime bases below ψ_k
PSI_CASCADE = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_round(n, a):
    """One Miller–Rabin round on the odd n > 2 to base a, written out independently."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def _psi_cascade_is_prime(n):
    """Referee primality below ψ₁₃: the strong test on the first k primes, k from ``PSI_CASCADE``."""
    if n < 2 or n % 2 == 0:
        return n == 2
    if n in FIRST_PRIMES:
        return True
    k = next(k for bound, k in PSI_CASCADE if n < bound)
    return all(_strong_round(n, a) for a in FIRST_PRIMES[:k])


def _strong_base2_pseudoprimes(lo, hi):
    """Every odd composite in [lo, hi) that passes the strong test to base 2: a sieve, then one round each."""
    composite = bytearray(hi)
    for p in range(2, isqrt(hi) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, hi, p))
    return [n for n in range(lo | 1, hi, 2) if composite[n] and pow(2, n - 1, n) == 1 and _strong_round(n, 2)]


class TestProvenBaseTable:
    """``_MR_PROVEN``: the smallest published base set per size below 2⁶⁴, then ψ₁₂ and ψ₁₃."""

    def test_rows_are_ordered_and_start_with_two(self):
        bounds = [bound for bound, _ in kernel._MR_PROVEN]
        assert bounds == sorted(set(bounds))
        previous = 1 << 24  # the least n the first row serves: one gcd decides every n below it
        for bound, bases in kernel._MR_PROVEN:
            assert bases[0] == 2, bound
            assert all(1 < a < previous for a in bases), bound  # no base is 0 mod the n its row serves
            previous = bound
        assert kernel._MR_PROVEN[-2:] == ((PSI_CASCADE[-2][0], FIRST_PRIMES[:12]), (PSI_CASCADE[-1][0], FIRST_PRIMES))
        assert bounds[-3] == 1 << 64

    def test_agrees_with_the_psi_cascade_and_sympy_near_every_bound(self):
        bounds = {bound for bound, _ in kernel._MR_PROVEN} | {bound for bound, _ in PSI_CASCADE}
        for bound in sorted(bounds):
            for n in range(bound - 3001, bound + 3001, 2):
                want = _psi_cascade_is_prime(n)
                assert want == sympy.isprime(n), n
                assert is_prime_int(n) == want, n

    def test_agrees_on_random_odd_n(self):
        rng = random.Random(24)
        for _ in range(20_000):
            bits = rng.randint(17, 64)
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            want = _psi_cascade_is_prime(n)
            assert want == sympy.isprime(n), n
            assert is_prime_int(n) == want, n

    def test_rejects_products_of_primes_in_pseudoprime_forms(self):
        # (k+1)(2k+1) and Chernick's (6k+1)(12k+1)(18k+1) are the shapes of the
        # strong pseudoprimes to many bases; every product below 2⁶⁴ is tried
        products = []
        for start in (10**2, 10**4, 10**6, 10**8, 3 * 10**9 - 10**5):
            for k in range(start, start + 10**5, 2):
                if sympy.isprime(k + 1) and sympy.isprime(2 * k + 1):
                    products.append((k + 1) * (2 * k + 1))
        for k in [*range(1, 3000), *range(2 * 10**5, 2 * 10**5 + 5 * 10**4)]:
            fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if all(map(sympy.isprime, fs)):
                products.append(prod(fs))
        products = [n for n in products if (1 << 16) <= n < 1 << 64]
        assert len(products) > 1000 and max(products) > 1 << 60
        for n in products:
            assert not _psi_cascade_is_prime(n), n
            assert not is_prime_int(n), n

    def test_rejects_every_strong_base2_pseudoprime_below_two_to_the_21(self):
        pseudoprimes = _strong_base2_pseudoprimes(1 << 16, 1 << 21)
        assert {74665, 80581, 85489, 88357, 90751, 1373653} <= set(pseudoprimes)
        for n in pseudoprimes:
            assert not is_prime_int(n), n

    def test_rejects_every_strong_base2_pseudoprime_from_two_to_the_24(self):
        # below 2²⁴ the small-prime gcd answers; these pass the first row's base 2 and meet its second base
        pseudoprimes = _strong_base2_pseudoprimes(1 << 24, (1 << 24) + (1 << 21))
        assert len(pseudoprimes) > 10 and pseudoprimes[-1] < kernel._MR_PROVEN[0][0]
        for n in pseudoprimes:
            assert not is_prime_int(n), n


def _trial_prime_power(n):
    """Reference: the least divisor d >= 2 of n by trial division, then whether n is a power of d."""
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    g = 0
    while n % p == 0:
        n //= p
        g += 1
    return (p, g) if n == 1 else None


# primes on either side of 2⁸, 2¹² (the small-prime stage), 2¹⁶ (the crossover) and 2²⁴
BOUNDARY_PRIMES = tuple(
    q for b in (8, 12, 16, 24) for q in (sympy.prevprime(2**b), sympy.nextprime(2**b))
)


class TestPrimePower:
    """``_prime_power`` decides n = p^g without factoring n."""

    def test_matches_trial_division(self):
        for n in range(2, 2 * 10**5):
            assert _prime_power(n) == _trial_prime_power(n), n

    def test_table_range_matches_the_table_factorization(self):
        # below 2¹⁶ the least prime is read from the table and divided out alone
        for n in range(2, 1 << 16):
            powers = kernel._table_factor(n)
            assert _prime_power(n) == (powers[0] if len(powers) == 1 else None), n

    def test_powers_of_primes_near_the_stage_bounds(self):
        others = (3, 4091, 4099, 65537, 1000003, 2**61 - 1)
        for b in (8, 12, 16, 32, 64):
            for p in (sympy.prevprime(2**b), sympy.nextprime(2**b)):
                for g in range(1, 13):
                    assert _prime_power(p**g) == (p, g), (p, g)
                    for q in others:
                        if q != p:
                            assert _prime_power(p**g * q) is None, (p, g, q)
                    assert _prime_power(p**g * p) == (p, g + 1), (p, g)

    def test_powers_of_products_and_smooth_squares(self):
        rng = random.Random(31)
        for p in BOUNDARY_PRIMES:
            for q in BOUNDARY_PRIMES:
                for k in range(1, 7):
                    if p != q:
                        assert _prime_power((p * q) ** k) is None, (p, q, k)
        small = [p for p in range(2, 2**12) if sympy.isprime(p)]
        for _ in range(300):
            s = prod(rng.sample(small, rng.randint(1, 6)))
            expected = (s, 2) if sympy.isprime(s) else None
            assert _prime_power(s * s) == expected, s

    def test_small_primes_beside_a_large_cofactor(self):
        # the gcd with the small primes holds two of them, with a product below 2¹⁶
        # (one the table factors) or past it, or holds one; a prime power above
        # 2¹², or nothing, is left over
        for small in ((2, 3), (3, 5), (4091, 4093), (2, 3, 4093), (2,), (4093,)):
            for e in (1, 3, 7):
                for q in (1, 4099, sympy.nextprime(2**24), 2**61 - 1):
                    for k in (1, 2):
                        n = prod(small) ** e * q**k
                        expected = (small[0], e) if len(small) == 1 and q == 1 else None
                        assert _prime_power(n) == expected, (small, e, q, k)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7) + BOUNDARY_PRIMES), st.integers(1, 5)), min_size=1,
                    max_size=4))
    def test_products_of_prime_powers(self, powers):
        exponents = {}
        for p, e in powers:
            exponents[p] = exponents.get(p, 0) + e
        n = prod(p**e for p, e in exponents.items())
        assert int_factor(n) == (1, sorted(exponents.items()))
        assert _prime_power(n) == (next(iter(exponents.items())) if len(exponents) == 1 else None)


class TestExactRoot:
    """A prime power above 2¹² is read from an exact root, never from a rho walk of √p steps."""

    def test_int_factor_of_large_prime_powers_runs_no_rho(self, monkeypatch):
        def no_rho(n):
            raise AssertionError(f"rho started on {n}")

        q = sympy.nextprime(2**20)
        for b in (24, 32, 48, 64):
            p = sympy.nextprime(2**b)
            for g in (2, 3, 5):
                with monkeypatch.context() as m:
                    m.setattr(kernel, "_brent_rho", no_rho)
                    assert int_factor(p**g) == (1, [(p, g)]), (b, g)
                assert int_factor(-(p**g) * q) == (-1, [(q, 1), (p, g)]), (b, g)  # rho finds q, a root gives p^g
                if b <= 32:
                    assert sympy.factorint(p**g * q) == {p: g, q: 1}

    def test_least_prime_exponent(self):
        p = sympy.nextprime(2**24)
        assert kernel._exact_root(p**6) == (p**3, 2)
        assert kernel._exact_root(p**35) == (p**7, 5)
        assert kernel._exact_root(p**6 * sympy.nextprime(p)) is None

    def test_exponent_past_the_prime_table(self, monkeypatch):
        # 4099 is the least prime above the table's last prime 4093; the stub stands in for
        # the 565 Newton roots of a 49,193-bit number, one per prime k up to 4099
        monkeypatch.setattr(kernel, "_iroot", lambda m, k: 4099 if k == 4099 else 1)
        assert kernel._exact_root(4099**4099) == (4099, 4099)

    def test_power_of_a_composite_walks_rho_once(self, monkeypatch):
        # (pq)^k is queued once with multiplicity k, not as k copies of pq that each start a walk
        p, q = sympy.nextprime(2**30), sympy.nextprime(2**31)
        rho, calls = kernel._brent_rho, []

        def counted(n):
            calls.append(n)
            return rho(n)

        monkeypatch.setattr(kernel, "_brent_rho", counted)
        for k in (1, 3, 5):
            calls.clear()
            assert int_factor((p * q) ** k) == (1, [(p, k), (q, k)]), k
            assert calls == [p * q], k


class TestRhoExits:
    """Each way out of ``_brent_rho``, pinned by a semiprime on each side of 2³⁰, where n takes a second digit.

    A walk's gcds read 1 until one of them is above 1.  A batch gcd of n means the batch went past the
    first collision and is retraced step by step; a retraced gcd of n means the walk closed modulo n
    itself, and the next c starts a new walk.
    """

    @pytest.mark.parametrize("n, way_out", [
        (401_360_987, "batch"),  # 20021 · 20047: the first batch of the 128-step round
        (415_055_351, "retrace"),  # 20021 · 20731: the second batch of the 256-step round overshoots
        (19_191_013, "restart"),  # 4153 · 4621: both primes collide at one step
        (1_073_744_989, "batch"),  # 31793 · 33773: the first batch of the 128-step round
        (1_074_317_263, "retrace"),  # 31793 · 33791: the first batch of the 256-step round overshoots
        (1_074_699_049, "restart"),  # 4801 · 223849
    ])
    def test_exit(self, monkeypatch, n, way_out):
        results = []
        monkeypatch.setattr(kernel, "gcd", lambda a, b: results.append(gcd(a, b)) or results[-1])
        d = kernel._brent_rho(n)
        assert 1 < d < n and n % d == 0
        assert results[-1] == d
        assert results.count(n) == {"batch": 0, "retrace": 1, "restart": 2}[way_out], results


class TestIntFactorMatchesWheel:
    """``int_factor`` with the small-prime gcd stage gives what the trial-division wheel gave."""

    def test_every_n_below_2_17(self):
        for n in range(1, 2**17):
            assert int_factor(n) == wheel_int_factor(n), n

    def test_products_straddling_the_stage_bounds(self):
        rng = random.Random(32)
        primes = (2, 3, 5, 7, 251, 4093, 4099) + BOUNDARY_PRIMES
        for _ in range(400):
            n = prod(rng.choice(primes) ** rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            assert int_factor(n) == wheel_int_factor(n) == (1, sorted(sympy.factorint(n).items())), n
            assert int_factor(-n) == wheel_int_factor(-n), n


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

    def test_parabolic_split_factors_x_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return int_factor(n)

        # the parabolic verdict never factors x, and the witness is read from x's least prime
        # below 2¹² when it has one; only a reducible x with none is factored, once
        monkeypatch.setattr(FACTOR_MODULE, "int_factor", counting)
        cases = ((K(6, 5), []), (K(-6, 5), []), (K(9, 3), []), (K(9, 1), []), (K(4099 * 4111, 5), [4099 * 4111]),
                 (K(-4099 * 4111, 5), [-4099 * 4111]), (K(4099**2, 4099), [4099**2]), (K(4099**2, 1), []))
        for z, expected in cases:
            calls.clear()
            pair = split(z)
            assert calls == expected, (z, calls)
            assert (pair is None) == (z in (K(9, 1), K(4099**2, 1))), z

    @pytest.mark.parametrize("bits", [61, 80])
    @pytest.mark.parametrize("kind", list(RingKind))
    def test_small_prime_beside_a_hard_cofactor(self, kind, bits, monkeypatch):
        # 5·p·q with balanced p, q ≡ 1 (mod 4) past rho's reach: the witness comes from 5 alone
        def no_rho(n):
            raise AssertionError(f"rho ran on {n}")

        monkeypatch.setattr(kernel, "_brent_rho", no_rho)
        rng = random.Random(bits)
        p, q = (sympy.nextprime(rng.getrandbits(bits - 1) | 1 << (bits - 1)) for _ in "pq")
        while p % 4 != 1 or q % 4 != 1:
            p, q = (r if r % 4 == 1 else sympy.nextprime(r) for r in (p, q))
        if kind is RingKind.ELLIPTIC:  # (2 + i)(s + ti)(s' + t'i), norm 5pq
            a = C(2, 1) * C(*sum_two_squares(p)) * C(*sum_two_squares(q))
            want = (C(2, 1), C(2, -1))
        elif kind is RingKind.HYPERBOLIC:  # diagonal coordinates (5pq, 7pq)
            a = H(6 * p * q, -p * q)
            want = (H(3, 2),)
        else:
            a = K(5 * p * q, 1)
            want = (K(5, pow(p * q, -1, 5)),)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            b, c = split(a)
            best = min(best, time.perf_counter() - start)
        assert b in want and b * c == a, (kind, b)
        assert best < 0.005, (kind, bits, best)

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


def _splittable(z):
    return z and not z.is_unit() and not (z.kind is RingKind.HYPERBOLIC and z.eta == 0)


def _result(f):
    return f.unit, f.factors, f.axis_extension


def _over(primes):
    """``int_factor`` for integers whose prime factors all lie in primes."""

    def factorize(n):
        sign, n, out = (-1 if n < 0 else 1), abs(n), []
        for p in sorted(set(primes)):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        if n != 1:
            raise ValueError(f"{n} has a prime factor outside the known list")
        return sign, out

    return factorize


def _known_prime_products(kind, count):
    """Seeded elements made from 2-10 known primes of 8-40 bits, their product within 200 bits.

    Primes repeat, and 2, 3, 5, 7 and 13 are mixed in, so that prime powers,
    the even part of a hyperbolic element and both Gaussian primes over one
    p are reached.
    """
    rng = random.Random(f"products-{kind.symbol}")
    cases = []
    for _ in range(count):
        primes, bits = [], 0
        for _ in range(rng.randint(2, 10)):
            roll = rng.random()
            if primes and roll < 0.2:
                p = rng.choice(primes)
            elif roll < 0.4:
                p = rng.choice((2, 3, 5, 7, 13))
            else:
                lo = 1 << (rng.randint(8, 40) - 1)
                p = sympy.nextprime(rng.randrange(lo, lo + lo // 2))
            if bits + p.bit_length() > 200:
                break
            primes.append(p)
            bits += p.bit_length()
        if kind is RingKind.ELLIPTIC:
            z = C(*rng.choice(((1, 0), (0, 1), (-1, 0), (0, -1))))
            for p in primes:
                a, b = sum_two_squares(p) or (p, 0)
                z = z * C(a, rng.choice((b, -b)))
        elif kind is RingKind.HYPERBOLIC:
            uv = [rng.choice((1, -1)), rng.choice((1, -1))]
            for p in primes:
                uv[rng.randrange(2)] *= p
            u, v = uv
            if (u - v) % 2:  # a ring point needs u ≡ v (mod 2)
                u, v = (2 * u, v) if u % 2 else (u, 2 * v)
                primes.append(2)
            z = H((u + v) // 2, (u - v) // 2)
        else:
            x = rng.choice((1, -1))
            for p in primes:
                x *= p
            y = rng.randrange(-abs(x), abs(x)) * rng.choice(primes) ** rng.randint(0, 3)
            z = K(0, x) if rng.random() < 0.1 else K(x, 0 if rng.random() < 0.1 else y)
        cases.append((z, primes))
    return cases


def _bignorm_inputs(seed):
    """The elements of the benchmark's bignorm workload for one seed, keyed as there."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    return {key: z for key, (_, _, z) in workloads.Bignorm(planeint, seed).inputs.items()}


class TestFactorMatchesRecursion:
    """factor and split give exactly what the per-level recursion in _factor_referee gives."""

    def test_box(self):
        for kind in RingKind:
            for x in range(-40, 41):
                for y in range(-40, 41):
                    z = Element(kind, x, y)
                    if _splittable(z):
                        assert _result(factor(z)) == referee_factor(z), z
                        assert split(z) == referee_split(z), z

    @pytest.mark.parametrize("kind", list(RingKind))
    def test_known_prime_products(self, kind, monkeypatch):
        # both sides factor over the known primes: norms near 2^200 need no rho
        for z, primes in _known_prime_products(kind, 40):
            known = _over(primes)
            monkeypatch.setattr(FACTOR_MODULE, "int_factor", known)
            monkeypatch.setattr(FACTOR_MODULE, "_int_factor_composite", known)  # the elliptic norm's seam
            assert _result(factor(z)) == referee_factor(z, known), z
            assert split(z) == referee_split(z, known), z

    @pytest.mark.parametrize("seed", [1, 7])
    def test_bignorm_inputs(self, seed):
        for key, z in _bignorm_inputs(seed).items():
            assert _result(factor(z)) == referee_factor(z), key
            assert split(z) == referee_split(z), key


class TestFactorCost:
    def test_one_factorization_of_the_norm(self, monkeypatch):
        calls = {"int_factor": [], "sum_two_squares": []}

        def counted(name, fn):
            def wrapper(n):
                calls[name].append(n)
                return fn(n)

            return wrapper

        monkeypatch.setattr(FACTOR_MODULE, "sum_two_squares", counted("sum_two_squares", sum_two_squares))
        # (element, int_factor, int_factor of a norm the verdict proved composite)
        kernel_pair = (int_factor, kernel._int_factor_composite)
        cases = [(z, *kernel_pair) for z in _bignorm_inputs(1).values()]
        cases += [(Element(kind, x, y), *kernel_pair) for kind in RingKind for x in range(-12, 13) for y in range(-12, 13)]
        cases += [(z, known, known) for kind in RingKind for z, primes in _known_prime_products(kind, 10)
                  for known in [_over(primes)]]
        for z, kernel_factor, composite_factor in cases:
            if not _splittable(z):
                continue
            monkeypatch.setattr(FACTOR_MODULE, "int_factor", counted("int_factor", kernel_factor))
            monkeypatch.setattr(FACTOR_MODULE, "_int_factor_composite", counted("int_factor", composite_factor))
            for seen in calls.values():
                seen.clear()
            factor(z)
            assert len(calls["int_factor"]) <= (2 if z.kind is RingKind.HYPERBOLIC else 1), (z, calls)
            primes = calls["sum_two_squares"]
            assert len(primes) == len(set(primes)), (z, calls)
            # only a prime of the content gcd(x, y) is written as a sum of two squares
            assert all(p % 4 == 1 and z.x % p == 0 and z.y % p == 0 for p in primes), (z, calls)

    def test_primality_tests_on_bignorm(self, monkeypatch):
        count = [0]

        def counted(fn):
            def wrapper(n):
                count[0] += 1
                return fn(n)

            return wrapper

        for module in (kernel, CLASSIFY_MODULE):
            monkeypatch.setattr(module, "is_prime_int", counted(module.is_prime_int))
        per_class = {}  # (ring symbol, input class) -> the is_prime_int calls of each factor
        for (sym, cls, _, _), z in _bignorm_inputs(1).items():
            count[0] = 0
            factor(z)
            per_class.setdefault((sym, cls), []).append(count[0])
        # a Gaussian semiprime: the verdict on the norm, and nothing after it
        assert set(per_class["i", "semiprime"]) == {1}, per_class
        # a hyperbolic semiprime or smooth element: both diagonal coordinates are non-units
        assert set(per_class["j", "semiprime"]) == set(per_class["j", "smooth"]) == {0}, per_class
        assert set(per_class["j", "prime"]) == {1}, per_class

    def test_reducible_gaussian_factors_are_built_canonical(self, monkeypatch):
        # each Gaussian prime is made canonical from its coordinates, with no canonical_associate call
        elements = [z for z in _bignorm_inputs(1).values() if z.kind is RingKind.ELLIPTIC]
        elements += [C(x, y) for x in range(-12, 13) for y in range(-12, 13)]
        elements = [z for z in elements if _splittable(z) and not classify(z).is_irreducible]
        expected = [referee_factor(z) for z in elements]
        monkeypatch.setattr(Element, "canonical_associate", lambda self: pytest.fail(f"canonical_associate({self})"))
        assert [_result(factor(z)) for z in elements] == expected

    def test_gaussian_primes_outside_the_content_are_read_from_the_element(self, monkeypatch):
        # norm 5³·65537·70001: the content 5 takes sum_two_squares, 65537 and 70001 do not
        calls = []
        monkeypatch.setattr(FACTOR_MODULE, "sum_two_squares", lambda p: calls.append(p) or sum_two_squares(p))
        f = factor(C(333045, -61420))
        assert (f.unit, f.factors) == (C(-1, 0), (C(1, 2), C(2, 1), C(256, 1), C(49, 260)))
        assert calls == [5]


class TestParabolicVerdictCost:
    """A parabolic verdict reads whether x is a prime power; it never factors x."""

    @staticmethod
    def _parabolic_inputs():
        cases = [z for seed in (1, 7) for z in _bignorm_inputs(seed).values() if z.kind is RingKind.PARABOLIC]
        cases += [K(x, y) for x in range(-40, 41) for y in range(-40, 41)]
        return [z for z in cases if z and not z.is_unit()]

    def test_no_factoring_and_one_primality_test(self, monkeypatch):
        calls = {"int_factor": 0, "_brent_rho": 0, "is_prime_int": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for module, name in [(kernel, "int_factor"), (FACTOR_MODULE, "int_factor"), (kernel, "_brent_rho"),
                             (kernel, "is_prime_int"), (CLASSIFY_MODULE, "is_prime_int")]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        tested = 0
        for z in self._parabolic_inputs():
            for name in calls:
                calls[name] = 0
            planeint.classify(z)
            assert calls["int_factor"] == calls["_brent_rho"] == 0, (z, calls)
            assert calls["is_prime_int"] <= 1, (z, calls)
            tested += calls["is_prime_int"]
        assert tested > 0  # the counters see the kernel's calls

    def test_verdict_matches_the_factorization_rule(self):
        for z in self._parabolic_inputs():
            c = planeint.classify(z)
            irreducible = z.x == 0 and abs(z.y) == 1 or z.x != 0 and _parabolic_irreducible(int_factor(z.x)[1], z.y)
            assert (c.is_prime, c.is_irreducible) == (z.x == 0 and abs(z.y) == 1, irreducible), z


class TestWitnessChecks:
    """A factor that fails its check raises FactorWitnessError, also under ``python -O``."""

    def test_error_type(self):
        assert issubclass(FactorWitnessError, planeint.RingError)
        assert "FactorWitnessError" not in planeint.__all__

    def test_elliptic_divisor(self, monkeypatch):
        monkeypatch.setattr(FACTOR_MODULE, "divides", lambda b, a: None)
        # 5 = (2+i)(2-i) through sum_two_squares; 4+7i = (2+i)(3+2i) through the primes read from z
        for z in (C(5, 0), C(4, 7)):
            with pytest.raises(FactorWitnessError, match="divides"):
                factor(z)
            with pytest.raises(FactorWitnessError, match="divides"):
                split(z)

    def test_elliptic_cofactor_is_a_unit(self, monkeypatch):
        # a factorization of the norm 100 that leaves out 2
        monkeypatch.setattr(FACTOR_MODULE, "_int_factor_composite", lambda n: (1, [(5, 2)]))
        with pytest.raises(FactorWitnessError, match="non-unit"):
            factor(C(10, 0))

    def test_parabolic_pieces(self, monkeypatch):
        monkeypatch.setattr(FACTOR_MODULE, "_parabolic_residue", lambda x, y, m: 0)
        with pytest.raises(FactorWitnessError, match="not an associate"):
            factor(K(6, 5))


def _scan_diff_two_squares(n):
    """The upward scan r = ⌈√n⌉, ⌈√n⌉+1, ... that diff_two_squares once ran: O(n) steps for a prime."""
    if two_adic_valuation(n) == 1:
        return None
    r = isqrt(n - 1) + 1 if n > 1 else 1
    while True:
        rest = r * r - n
        s = isqrt(rest)
        if s * s == rest:
            return r, s
        r += 1


def _scan_table(limit):
    """The same scan for every n < limit at once: r ascends, so the first (r, s) to reach n has the least r."""
    table = {}
    r = 1
    while 2 * r - 1 < limit:  # 2r - 1 = r² - (r-1)² is the least n with this r
        s = r - 1
        while s >= 0 and r * r - s * s < limit:
            table.setdefault(r * r - s * s, (r, s))
            s -= 1
        r += 1
    return table


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

    def test_diff_matches_the_scan(self):
        table = _scan_table(10**5)
        for n in range(1, 3000):
            assert table.get(n) == _scan_diff_two_squares(n), n
        for n in range(1, 10**5):
            assert diff_two_squares(n) == table.get(n), n

    def test_diff_matches_sympy_divisors(self):
        rng = random.Random(25)
        inputs = [rng.getrandbits(rng.randint(2, 64)) or 1 for _ in range(300)]
        inputs += [sympy.nextprime(rng.getrandbits(bits)) for bits in (30, 40, 63)]
        for n in inputs:
            if two_adic_valuation(n) == 1:
                assert diff_two_squares(n) is None, n
                continue
            # n = d·e, d <= e of equal parity, with d the largest such divisor
            d = max(d for d in sympy.divisors(n) if d * d <= n and (n // d - d) % 2 == 0)
            e = n // d
            assert diff_two_squares(n) == ((d + e) // 2, (e - d) // 2), n


class TestSumTwoSquaresByResidue:
    """The non-residue search: 2 for p ≡ 5 (mod 8), odd t from 3 for p ≡ 1 (mod 8)."""

    @staticmethod
    def _check(p):
        a, b = sum_two_squares(p)
        assert a * a + b * b == p and a >= b > 0, p

    def test_every_prime_one_mod_four_below_2_16(self):
        residues = set()
        for p in range(5, 1 << 16, 4):
            if is_prime_int(p):
                self._check(p)
                residues.add(p % 8)
        assert residues == {1, 5}

    def test_sympy_primes_of_17_to_64_bits(self):
        rng = random.Random(41)
        count = {1: 0, 5: 0}
        while min(count.values()) < 100:
            bits = rng.randint(17, 64)
            p = sympy.randprime(1 << (bits - 1), 1 << bits)
            if p % 8 in count:
                self._check(p)
                count[p % 8] += 1


class TestSmallPrimeStage:
    """``int_factor`` against the wheel referee on 2¹²-smooth products crafted around the chunks."""

    CHUNKS = [chunk for chunk, _ in kernel._SMALL_CHUNKS]

    @staticmethod
    def _check(n):
        expected = (1, sorted(sympy.factorint(n).items()))
        assert int_factor(n) == wheel_int_factor(n) == expected, n
        assert int_factor(-n) == (-1, expected[1]), n

    def test_repeated_primes(self):
        rng = random.Random(42)
        for _ in range(300):
            primes = rng.sample(kernel._SMALL_PRIMES, rng.randint(1, 4))
            self._check(prod(p ** rng.randint(1, 6) for p in primes))

    def test_two_primes_from_one_chunk(self):
        # past the first chunks, two primes of one chunk multiply to at least 2¹⁶
        for chunk in self.CHUNKS:
            for p, q in zip(chunk, chunk[1:]):
                self._check(p * q)
                self._check(p * q * chunk[0] * 4099)
        assert self.CHUNKS[-1][0] * self.CHUNKS[-1][1] >= 1 << 16

    def test_primes_at_the_edges_of_a_chunk(self):
        edges = [p for chunk in self.CHUNKS for p in (chunk[0], chunk[-1])]
        for p, q in zip(edges, edges[1:]):
            self._check(p * q)
            self._check(p**2 * q * 65537)
        self._check(prod(edges[:6]))
        self._check(prod(edges[-6:]))

    def test_gcds_next_to_2_16(self):
        small = kernel._SMALL_PRIMES
        pairs = [(p, q) for p in small for q in small if p < q and abs(p * q - (1 << 16)) < 600]
        assert any(p * q < 1 << 16 for p, q in pairs) and any(p * q > 1 << 16 for p, q in pairs)
        for p, q in pairs:
            self._check(p * q)
            self._check(p * q * 7)
            self._check(p * q * p * 4093)

    def test_large_prime_cofactor(self):
        rng = random.Random(43)
        for bits in (13, 24, 25, 40, 62):
            big = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
            for _ in range(20):
                primes = rng.sample(kernel._SMALL_PRIMES, rng.randint(1, 5))
                self._check(big * prod(primes) * rng.choice(primes))


def _outcome(fn, z):
    """fn(z), or the type and message of the domain error it raises."""
    try:
        return fn(z)
    except (ValueError, planeint.RingError) as exc:
        return type(exc), str(exc)


class TestNormsFromCoordinates:
    def test_factor_and_split_read_no_norm_property(self, monkeypatch):
        # factor, split and their refusals of zero, units and hyperbolic zero divisors
        # compute each norm from the coordinates, not through the eta -> eta_plus chain
        cases = [Element(kind, x, y) for kind in RingKind for x in range(-12, 13) for y in range(-12, 13)]
        cases += _bignorm_inputs(1).values()
        expected = [(_outcome(factor, z), _outcome(split, z)) for z in cases]

        def no_property(z):
            raise AssertionError(f"norm property read for {z!r}")

        monkeypatch.setattr(Element, "eta", property(no_property))
        assert [(_outcome(factor, z), _outcome(split, z)) for z in cases] == expected
