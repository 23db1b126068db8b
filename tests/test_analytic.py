import math
import random

import pytest

from planeint import (
    OutOfSectorError,
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
        assert floats_close(p.r, 4.0)
        assert floats_close(p.alpha, math.atanh(0.6))
        back = p.element()
        assert floats_close(back.x, 5.0) and floats_close(back.y, 3.0)

    def test_real_axis(self):
        p = polar_decompose(RealElement(H, 1.0, 0.0))
        assert p.r == 1.0 and p.alpha == 0.0

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
