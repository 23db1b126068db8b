import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from planeint import (
    OutOfSectorError,
    PolarForm,
    RealElement,
    RingKind,
    euler_check,
    exp_theta,
    polar_decompose,
    pow_moivre,
)
from planeint.analytic import floats_close

H, K, C = RingKind.HYPERBOLIC, RingKind.PARABOLIC, RingKind.ELLIPTIC


class TestExp:
    def test_hyperbolic_unit(self):
        e = exp_theta(RealElement(H, 0.0, 1.0))
        assert floats_close(e.x, math.cosh(1.0)) and floats_close(e.y, math.sinh(1.0))

    def test_parabolic_is_one_plus_infinitesimal(self):
        # exact even in floats: exp(ky) - 1 == ky
        for y in (3.0, -2.5, 0.125):
            e = exp_theta(RealElement(K, 0.0, y))
            assert e.x == 1.0 and e.y == y

    def test_identity(self):
        for kind in RingKind:
            e = exp_theta(RealElement(kind, 0.0, 0.0))
            assert e.x == 1.0 and e.y == 0.0

    def test_elliptic(self):
        e = exp_theta(RealElement(C, 1.0, math.pi))
        assert floats_close(e.x, -math.e) and abs(e.y) < 1e-9

    def test_homomorphism(self):
        rng = random.Random(5)
        for _ in range(300):
            kind = rng.choice(list(RingKind))
            z = RealElement(kind, rng.uniform(-3, 3), rng.uniform(-3, 3))
            w = RealElement(kind, rng.uniform(-3, 3), rng.uniform(-3, 3))
            lhs = exp_theta(z + w)
            rhs = exp_theta(z) * exp_theta(w)
            assert lhs.isclose(rhs)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            exp_theta(RealElement(H, 1e9, 0.0))

    @pytest.mark.parametrize(
        "kind, x, y", [(H, 800.0, 1.0), (H, 1.0, 800.0), (H, 700.0, 700.0), (K, 1.0, 1e308)]
    )
    def test_overflow_names_the_float_range(self, kind, x, y):
        # from math.exp, from cosh, and from a product of two finite floats
        with pytest.raises(OverflowError, match="out of float range"):
            exp_theta(RealElement(kind, x, y))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RealElement(H, float("nan"), 0.0)
        with pytest.raises(ValueError):
            RealElement(K, float("inf"), 1.0)


class TestPolar:
    def test_example(self):
        p = polar_decompose(RealElement(H, 5.0, 3.0))
        assert RealElement(H, 5.0, 3.0).eta == 16.0
        assert floats_close(p.r, 4.0)
        assert floats_close(p.alpha, math.atanh(0.6))
        back = p.element()
        assert floats_close(back.x, 5.0) and floats_close(back.y, 3.0)

    def test_real_axis(self):
        p = polar_decompose(RealElement(H, 1.0, 0.0))
        assert p.r == 1.0 and p.alpha == 0.0

    def test_tiny_and_huge_sector_points(self):
        # x² underflows to 0 and overflows to inf, but x > |y| puts them in the sector
        p = polar_decompose(RealElement(H, 1e-200, 0.0))
        assert p == PolarForm(1e-200, 0.0)
        assert p.element() == RealElement(H, 1e-200, 0.0)
        assert pow_moivre(RealElement(H, 1e-200, 0.0), 1) == RealElement(H, 1e-200, 0.0)
        p = polar_decompose(RealElement(H, 5e-200, 3e-200))
        assert _near(p.r, 4e-200) and _near(p.alpha, math.atanh(0.6))
        assert _near(polar_decompose(RealElement(H, 5e200, -3e200)).r, 4e200)
        with pytest.raises(OutOfSectorError):
            polar_decompose(RealElement(H, 1e-200, -1e-200))

    def test_out_of_sector(self):
        with pytest.raises(OutOfSectorError):
            polar_decompose(RealElement(H, 1.0, 1.0))
        with pytest.raises(OutOfSectorError):
            polar_decompose(RealElement(H, -2.0, 1.0))
        with pytest.raises(OutOfSectorError):
            polar_decompose(RealElement(K, 2.0, 1.0))


class TestMoivre:
    def test_square(self):
        w = pow_moivre(RealElement(H, 5.0, 3.0), 2)
        assert floats_close(w.x, 34.0) and floats_close(w.y, 30.0)

    def test_trivial_exponents(self):
        z = RealElement(H, 3.0, 2.0)
        w0 = pow_moivre(z, 0)
        assert floats_close(w0.x, 1.0) and abs(w0.y) < 1e-12
        w1 = pow_moivre(z, 1)
        assert w1.isclose(z)

    def test_matches_repeated_multiplication(self):
        rng = random.Random(9)
        for _ in range(60):
            x = rng.uniform(1.0, 4.0)
            y = rng.uniform(-0.9, 0.9) * x
            z = RealElement(H, x, y)
            acc = RealElement(H, 1.0, 0.0)
            for n in range(0, 11):
                assert pow_moivre(z, n).isclose(acc)
                acc = acc * z

    @pytest.mark.parametrize("x, n", [(2.0, 2000), (2.0, 1100), (1e-100, -4)])
    def test_overflow_names_the_float_range(self, x, n):
        # float ** overflows at n = 2000 and for the tiny base; at n = 1100 a product of finite floats
        with pytest.raises(OverflowError, match="out of float range"):
            pow_moivre(RealElement(H, x, x / 2), n)

    def test_negative_power_inverts(self):
        z = RealElement(H, 3.0, 1.0)
        w = pow_moivre(z, -1)
        prod = z * w
        assert floats_close(prod.x, 1.0) and abs(prod.y) < 1e-12


class TestEuler:
    def test_examples(self):
        assert euler_check(0.0) == (1.0, 0.0)
        c, s = euler_check(1.0)
        assert floats_close(c, math.cosh(1.0)) and floats_close(s, math.sinh(1.0))
        c, s = euler_check(-2.0)
        assert floats_close(c, math.cosh(2.0)) and floats_close(s, -math.sinh(2.0))

    def test_sampled_range(self):
        for i in range(-50, 51):
            x = i / 10
            c, s = euler_check(x)
            assert floats_close(c, math.cosh(x))
            assert floats_close(s, math.sinh(x))


def _near(got: float, want: float) -> bool:
    """Within 5 units in the last place of want, the float nearest the exact value."""
    return abs(got - want) <= 5 * math.ulp(want)


class TestDiagonalCoordinates:
    """Hyperbolic exp and pow against exact references, over the whole float range.

    Cosh and sinh overflow past |y| ≈ 710 and e^x underflows past x ≈ −745,
    though e^x·cosh y may be in range; a small y loses its digits in U − V.
    """

    def test_exp_against_decimal(self):
        rng = random.Random(3)
        cases = [(-800.0, 800.0), (-1000.0, 999.5), (10.0, 1e-12), (355.0, 355.1), (1.0, 1.0)]
        cases += [(rng.uniform(-1500, 800), rng.uniform(-1500, 1500)) for _ in range(200)]
        cases += [(rng.uniform(-300, 300), rng.uniform(-1e-6, 1e-6)) for _ in range(100)]
        for x, y in cases:
            with localcontext() as ctx:
                ctx.prec = 60
                u, v = (Decimal(x) + Decimal(y)).exp(), (Decimal(x) - Decimal(y)).exp()
                want = ((u + v) / 2, (u - v) / 2)
            if max(abs(w) for w in want) > sys.float_info.max:
                with pytest.raises(OverflowError, match="out of float range"):
                    exp_theta(RealElement(H, x, y))
                continue
            got = exp_theta(RealElement(H, x, y))
            assert _near(got.x, float(want[0])) and _near(got.y, float(want[1])), (x, y, got)

    def test_polar_element_against_decimal(self):
        rng = random.Random(5)
        cases = [(1e-300, 800.0), (1e-300, -800.0), (4.0, math.atanh(0.6)), (1e300, 0.5), (2.0, 1e-12)]
        cases += [(10 ** rng.uniform(-300, 300), rng.uniform(-1500, 1500)) for _ in range(300)]
        cases += [(10 ** rng.uniform(-30, 30), rng.uniform(-1, 1)) for _ in range(200)]
        cases += [(10 ** rng.uniform(-30, 30), rng.uniform(-1e-6, 1e-6)) for _ in range(100)]
        cases += [(-r, alpha) for r, alpha in cases[:50]]
        for r, alpha in cases:
            with localcontext() as ctx:
                ctx.prec = 60
                e = Decimal(alpha).exp()
                want = (Decimal(r) * (e + 1 / e) / 2, Decimal(r) * (e - 1 / e) / 2)
            if max(abs(w) for w in want) > sys.float_info.max:
                with pytest.raises(OverflowError, match="out of float range"):
                    PolarForm(r, alpha).element()
                continue
            got = PolarForm(r, alpha).element()
            if min(abs(w) for w in want) < sys.float_info.min:
                continue  # a subnormal coordinate has fewer digits than 5 ulp allow for
            assert _near(got.x, float(want[0])) and _near(got.y, float(want[1])), (r, alpha, got)

    def test_polar_element_of_subnormal_r_against_decimal(self):
        # e^(|α|/2) overflows past |α| ≈ 1419.6, where a subnormal r still gives a
        # finite result up to |α| ≈ 1455; a subnormal r with a moderate α gives a
        # normal result that keeps the digits r has
        rng = random.Random(6)
        cases = [(1e-310, 1420.0), (-1e-310, -1420.0), (5e-324, 1454.0), (5e-324, 1455.0), (1e-310, 1425.0)]
        cases += [(10 ** rng.uniform(-323.3, -308), rng.choice((-1, 1)) * rng.uniform(1419, 1456)) for _ in range(300)]
        cases += [(10 ** rng.uniform(-323.3, -308), rng.uniform(-800, 800)) for _ in range(300)]
        finite = 0
        for r, alpha in cases:
            with localcontext() as ctx:
                ctx.prec = 60
                e = Decimal(alpha).exp()
                want = (Decimal(r) * (e + 1 / e) / 2, Decimal(r) * (e - 1 / e) / 2)
            if max(abs(w) for w in want) > sys.float_info.max:
                with pytest.raises(OverflowError, match="out of float range"):
                    PolarForm(r, alpha).element()
                continue
            got = PolarForm(r, alpha).element()
            if min(abs(w) for w in want) < sys.float_info.min:
                continue  # a subnormal coordinate has fewer digits than 5 ulp allow for
            finite += abs(alpha) > 1419.6
            assert _near(got.x, float(want[0])) and _near(got.y, float(want[1])), (r, alpha, got)
        assert finite > 50

    def test_pow_against_fractions(self):
        rng = random.Random(4)
        cases = [(0.5, 0.49, 400), (3.0, 1.0, 5), (5.0, -3.0, -3), (1.0, 1e-9, 7), (2.0, 1.999, 1500)]
        for _ in range(200):
            x = rng.uniform(0.01, 10)
            y = rng.choice([rng.uniform(-0.999, 0.999), rng.uniform(-1e-6, 1e-6)]) * x
            cases.append((x, y, rng.randint(-400, 400)))
        for x, y, n in cases:
            u, v = Fraction(x) + Fraction(y), Fraction(x) - Fraction(y)
            want = ((u**n + v**n) / 2, (u**n - v**n) / 2)
            if max(abs(w) for w in want) > sys.float_info.max:
                with pytest.raises(OverflowError, match="out of float range"):
                    pow_moivre(RealElement(H, x, y), n)
                continue
            got = pow_moivre(RealElement(H, x, y), n)
            assert _near(got.x, float(want[0])) and _near(got.y, float(want[1])), (x, y, n, got)
        assert pow_moivre(RealElement(H, 3.0, 1.0), 5) == RealElement(H, 528.0, 496.0)
