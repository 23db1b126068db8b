import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planeint import (
    GeneralParams,
    QuadraticPoly,
    RingKind,
    canonicalize,
    classify_quadratic,
    general_mul,
    general_norm_trace,
)

RATIONALS = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)


class TestClassifyQuadratic:
    def test_canonical_presentations(self):
        assert classify_quadratic(QuadraticPoly(1, 0, 1)) is RingKind.ELLIPTIC
        assert classify_quadratic(QuadraticPoly(1, 0, -1)) is RingKind.HYPERBOLIC
        assert classify_quadratic(QuadraticPoly(1, 0, 0)) is RingKind.PARABOLIC

    def test_general_coefficients(self):
        assert classify_quadratic(QuadraticPoly(2, 3, 5)) is RingKind.ELLIPTIC
        assert classify_quadratic(QuadraticPoly(Fr(1, 2), 3, 1)) is RingKind.HYPERBOLIC
        assert classify_quadratic(QuadraticPoly(1, 2, 1)) is RingKind.PARABOLIC

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            QuadraticPoly(0, 1, 1)

    @given(RATIONALS, RATIONALS, RATIONALS)
    def test_matches_params_reduction(self, a, b, c):
        if a == 0:
            return
        poly = QuadraticPoly(a, b, c)
        assert classify_quadratic(poly) is poly.params().kind


class TestGeneralArithmetic:
    def test_mul_examples(self):
        i = (Fr(0), Fr(1))
        assert general_mul(GeneralParams(-1, 0), i, i) == (Fr(-1), Fr(0))
        assert general_mul(GeneralParams(0, 1), i, i) == (Fr(0), Fr(1))
        assert general_mul(GeneralParams(2, 0), i, i) == (Fr(2), Fr(0))

    def test_norm_trace_examples(self):
        assert general_norm_trace(GeneralParams(-1, 0), (Fr(3), Fr(4))) == (Fr(25), Fr(6))
        assert general_norm_trace(GeneralParams(0, 0), (Fr(5), Fr(9)))[0] == Fr(25)
        assert general_norm_trace(GeneralParams(2, 2), (Fr(1), Fr(1))) == (Fr(1), Fr(4))

    @given(RATIONALS, RATIONALS, RATIONALS, RATIONALS, RATIONALS, RATIONALS)
    def test_norm_multiplicative(self, alpha, beta, zx, zy, wx, wy):
        g = GeneralParams(alpha, beta)
        z, w = (zx, zy), (wx, wy)
        ez, _ = general_norm_trace(g, z)
        ew, _ = general_norm_trace(g, w)
        ezw, _ = general_norm_trace(g, general_mul(g, z, w))
        assert ezw == ez * ew

    @given(RATIONALS, RATIONALS, RATIONALS, RATIONALS)
    def test_norm_matches_completed_square(self, alpha, beta, x, y):
        # η = x² + βxy - αy² equals (x + βy/2)² - D·y²/4 with D = β² + 4α
        g = GeneralParams(alpha, beta)
        eta, _ = general_norm_trace(g, (x, y))
        assert eta == (x + beta * y / 2) ** 2 - g.disc * y * y / 4

    def test_disc_recomputed(self):
        g = GeneralParams(Fr(3, 4), Fr(1, 2))
        assert g.disc == Fr(1, 4) + 3


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(GeneralParams(-1, 0)) == (RingKind.ELLIPTIC, 0.0, 1.0)
        kind, shift, scale = canonicalize(GeneralParams(0, 2))
        assert kind is RingKind.HYPERBOLIC and shift == 1.0 and scale == 1.0
        kind, shift, scale = canonicalize(GeneralParams(-1, 2))
        assert kind is RingKind.PARABOLIC and shift == 1.0 and scale == 1.0

    def test_homomorphism_numerically(self):
        rng = random.Random(23)
        for _ in range(200):
            g = GeneralParams(Fr(rng.randint(-9, 9)), Fr(rng.randint(-9, 9)))
            kind, shift, scale = canonicalize(g)
            mu = kind.mu

            def to_canonical(p):
                x, y = float(p[0]), float(p[1])
                return x + shift * y, scale * y

            def canonical_mul(p, q):
                return (
                    p[0] * q[0] + mu * p[1] * q[1],
                    p[0] * q[1] + q[0] * p[1],
                )

            z = (Fr(rng.randint(-5, 5)), Fr(rng.randint(-5, 5)))
            w = (Fr(rng.randint(-5, 5)), Fr(rng.randint(-5, 5)))
            lhs = to_canonical(general_mul(g, z, w))
            rhs = canonical_mul(to_canonical(z), to_canonical(w))
            for a, b in zip(lhs, rhs):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
