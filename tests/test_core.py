import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planeint import (
    Element,
    KindMismatchError,
    NotInvertibleError,
    RingKind,
    WrongRingError,
    diagonal_coords,
    div_rem,
    divides,
    elliptic,
    from_diagonal_coords,
    hyperbolic,
    inner_product,
    lex_less,
    norm_data,
    normalize_associate,
    parabolic,
)

H, K, C = hyperbolic, parabolic, elliptic

KINDS = st.sampled_from(list(RingKind))
COORD = st.integers(min_value=-(10**6), max_value=10**6)


@st.composite
def same_kind_pair(draw):
    kind = draw(KINDS)
    z = Element(kind, draw(COORD), draw(COORD))
    w = Element(kind, draw(COORD), draw(COORD))
    return z, w


class TestArithmetic:
    def test_add(self):
        assert H(1, 1) + H(1, -1) == H(2, 0)
        assert K(0, 1) + K(0, 0) == K(0, 1)
        assert C(3, 2) + C(-3, -2) == C(0, 0)

    def test_mul(self):
        assert H(1, 1) * H(1, -1) == H(0, 0)
        assert K(2, 1) * K(2, -1) == K(4, 0)
        assert C(1, 1) * C(1, -1) == C(2, 0)

    def test_int_coercion(self):
        assert H(3, 1) * 2 == H(6, 2)
        assert 2 + K(1, 1) == K(3, 1)
        assert 1 - C(0, 1) == C(1, -1)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            H(1, 0) + K(1, 0)
        with pytest.raises(KindMismatchError):
            C(1, 0) * H(1, 0)

    def test_pow(self):
        assert H(1, 1) ** 2 == H(2, 2)
        assert C(0, 1) ** 4 == C(1, 0)
        assert K(2, 3) ** 0 == K(1, 0)
        with pytest.raises(ValueError):
            K(2, 3) ** -1

    def test_conj(self):
        assert H(3, 1).conj() == H(3, -1)
        assert K(0, 5).conj() == K(0, -5)
        assert C(2, 0).conj() == C(2, 0)


class TestNormTraceInner:
    def test_norm_data(self):
        assert norm_data(H(3, 1)) == (8, 8, 6)
        assert norm_data(K(5, 9)) == (25, 25, 10)
        assert norm_data(C(1, 1)) == (2, 2, 2)
        assert norm_data(H(1, 2)) == (-3, 3, 2)

    def test_inner_product(self):
        # the form whose quadratic is the norm: <z,z> = eta(z)
        assert inner_product(H(1, 1), H(1, -1)) == 2
        assert inner_product(K(3, 9), K(2, 5)) == 6
        assert inner_product(C(1, 2), C(3, 4)) == 11

    @given(same_kind_pair())
    def test_inner_is_re_z_conj_w(self, pair):
        z, w = pair
        assert z.inner(w) == (z * w.conj()).x
        assert z.inner(z) == z.eta


class TestUnitsAndZeroDivisors:
    def test_is_unit(self):
        assert H(0, 1).is_unit()
        assert K(1, 7).is_unit()
        assert not H(1, 1).is_unit()

    def test_is_zero_divisor(self):
        assert H(4, 4).is_zero_divisor()
        assert K(0, 3).is_zero_divisor()
        assert not C(2, 1).is_zero_divisor()
        assert C(0, 0).is_zero_divisor()  # zero counts

    def test_inverse(self):
        assert K(1, 4).inverse() == K(1, -4)
        assert H(0, 1).inverse() == H(0, 1)
        assert C(0, -1).inverse() == C(0, 1)
        with pytest.raises(NotInvertibleError):
            H(1, 1).inverse()
        with pytest.raises(NotInvertibleError):
            K(2, 0).inverse()

    @given(KINDS, st.integers(-50, 50), st.integers(-50, 50))
    def test_unit_inverse_roundtrip(self, kind, x, y):
        z = Element(kind, x, y)
        if z.is_unit():
            assert z * z.inverse() == Element(kind, 1, 0)

    def test_unit_set_small_box(self):
        # exact unit sets over |x|,|y| <= 9
        for kind in RingKind:
            found = {
                Element(kind, x, y)
                for x in range(-9, 10)
                for y in range(-9, 10)
                if Element(kind, x, y).is_unit()
            }
            if kind is RingKind.PARABOLIC:
                assert found == {Element(kind, s, y) for s in (1, -1) for y in range(-9, 10)}
            else:
                assert found == {
                    Element(kind, 1, 0),
                    Element(kind, -1, 0),
                    Element(kind, 0, 1),
                    Element(kind, 0, -1),
                }


class TestAlgebraicLaws:
    @given(same_kind_pair())
    def test_conjugation_homomorphism(self, pair):
        z, w = pair
        assert (z + w).conj() == z.conj() + w.conj()
        assert (z * w).conj() == z.conj() * w.conj()
        assert z.conj().conj() == z

    @given(same_kind_pair())
    def test_norm_multiplicative(self, pair):
        z, w = pair
        assert (z * w).eta == z.eta * w.eta
        assert (z * w).eta_plus == z.eta_plus * w.eta_plus

    @given(KINDS, COORD, COORD)
    def test_norm_is_z_conj_z(self, kind, x, y):
        z = Element(kind, x, y)
        assert z * z.conj() == Element(kind, z.eta, 0)

    @given(same_kind_pair())
    def test_parallelogram(self, pair):
        z, w = pair
        assert (z + w).eta + (z - w).eta == 2 * (z.eta + w.eta)

    @given(same_kind_pair())
    def test_polarization(self, pair):
        z, w = pair
        assert 4 * z.inner(w) == (z + w).eta - (z - w).eta

    @given(same_kind_pair())
    def test_cosines(self, pair):
        z, w = pair
        assert (z - w).eta == z.eta + w.eta - 2 * z.inner(w)

    @given(same_kind_pair())
    def test_schwarz_sign(self, pair):
        z, w = pair
        gap = z.inner(w) ** 2 - z.eta * w.eta
        if z.kind is RingKind.ELLIPTIC:
            assert gap <= 0
        elif z.kind is RingKind.HYPERBOLIC:
            assert gap >= 0
        else:
            assert gap == 0

    def test_opposite_diagonals_annihilate(self):
        for t in (1, -4, 7):
            for s in (2, -3):
                assert H(t, t) * H(s, -s) == H(0, 0)


class TestLexOrder:
    def test_examples(self):
        assert lex_less(K(0, 0), K(0, 1))
        assert lex_less(K(0, 1000), K(1, 0))
        assert not lex_less(K(2, 0), K(2, 0))

    def test_wrong_ring(self):
        with pytest.raises(WrongRingError):
            lex_less(H(0, 0), H(1, 0))

    @given(st.integers(-99, 99), st.integers(-99, 99), st.integers(-99, 99), st.integers(-99, 99))
    def test_total_order(self, x1, y1, x2, y2):
        z, w = K(x1, y1), K(x2, y2)
        assert lex_less(z, w) or lex_less(w, z) or z == w

    @given(
        st.integers(-99, 99), st.integers(-99, 99),
        st.integers(-99, 99), st.integers(-99, 99),
        st.integers(-99, 99), st.integers(-99, 99),
    )
    def test_compatible_with_addition(self, x1, y1, x2, y2, x3, y3):
        z, w, v = K(x1, y1), K(x2, y2), K(x3, y3)
        if lex_less(z, w):
            assert lex_less(z + v, w + v)

    @given(
        st.integers(-99, 99), st.integers(-99, 99),
        st.integers(-99, 99), st.integers(-99, 99),
        st.integers(1, 99), st.integers(-99, 99),
    )
    def test_compatible_with_positive_multiplication(self, x1, y1, x2, y2, mx, my):
        # multipliers restricted to positive real part
        z, w, m = K(x1, y1), K(x2, y2), K(mx, my)
        if lex_less(z, w):
            assert lex_less(z * m, w * m)


class TestCanonicalAssociates:
    def test_examples(self):
        assert normalize_associate(H(-3, -1)) == (H(3, 1), H(-1, 0))
        assert normalize_associate(H(1, 3)) == (H(3, 1), H(0, 1))
        canonical, u = normalize_associate(K(3, 7))
        assert canonical == K(3, 1) and u == K(1, -2)
        assert u * K(3, 7) == canonical

    def test_unit_relation_holds(self):
        for z in (H(2, -5), C(-3, 4), K(-6, 11), H(4, 4), H(-2, 2), K(0, -3)):
            canonical, u = z.canonical_associate()
            assert u.is_unit()
            assert u * z == canonical

    def test_idempotent(self):
        for kind in RingKind:
            for x in range(-7, 8):
                for y in range(-7, 8):
                    c, _ = Element(kind, x, y).canonical_associate()
                    assert c.canonical_associate()[0] == c

    def test_invariant_on_orbit(self):
        units = {
            RingKind.ELLIPTIC: [C(1, 0), C(-1, 0), C(0, 1), C(0, -1)],
            RingKind.HYPERBOLIC: [H(1, 0), H(-1, 0), H(0, 1), H(0, -1)],
            RingKind.PARABOLIC: [K(s, t) for s in (1, -1) for t in range(-4, 5)],
        }
        for kind in RingKind:
            for x in range(-6, 7):
                for y in range(-6, 7):
                    z = Element(kind, x, y)
                    canonical = z.canonical_associate()[0]
                    for u in units[kind]:
                        assert (u * z).canonical_associate()[0] == canonical

    def test_hyperbolic_canonical_sector(self):
        # off the diagonals the canonical form has positive norm and real part
        for x in range(-9, 10):
            for y in range(-9, 10):
                z = H(x, y)
                if z.eta == 0:
                    continue
                c, _ = z.canonical_associate()
                assert c.eta > 0 and c.x > 0


    def test_units_are_shared(self):
        # u is a unit with u·z the canonical form; the units ±1, ±θ of i and j,
        # and ±1 of k (on its axis, and off it where t = 0 in ±1 + kt), are the
        # same few objects across every call, and a canonical z is its own form
        for kind in RingKind:
            shared = {}  # id -> unit, which keeps every unit alive and its id unique
            for x in range(-12, 13):
                for y in range(-12, 13):
                    z = Element(kind, x, y)
                    canonical, u = z.canonical_associate()
                    assert u.is_unit() and u * z == canonical, z
                    if kind is not RingKind.PARABOLIC or u.y == 0:
                        shared[id(u)] = u
                    if canonical == z:
                        assert canonical is z, z
            assert len(shared) == (2 if kind is RingKind.PARABOLIC else 4), kind

    def test_ne_is_not_eq(self):
        zs = [Element(kind, x, y) for kind in RingKind for x in (-1, 0, 2) for y in (-1, 0, 2)]
        for z in zs:
            for w in zs + [0, None, (z.kind, z.x, z.y)]:
                assert (z != w) is (not z == w), (z, w)
        assert Element(RingKind.ELLIPTIC, 1, 0).__ne__(1) is NotImplemented


def reference_canonical_associate(z):
    """The first unit multiple of z in the canonical region, by trial products."""
    kind = z.kind
    one_ = Element(kind, 1, 0)
    if not z:
        return z, one_
    if kind is RingKind.ELLIPTIC:
        for u in (one_, Element(kind, 0, 1), -one_, Element(kind, 0, -1)):
            cand = u * z
            if cand.x > 0 and cand.y >= 0:
                return cand, u
        raise AssertionError("unreachable: every nonzero orbit meets the quadrant")
    if kind is RingKind.HYPERBOLIC:
        if z.eta == 0:
            if z.x > 0:
                return z, one_
            return -z, -one_
        for u in (one_, Element(kind, 0, 1), -one_, Element(kind, 0, -1)):
            cand = u * z
            if cand.x > abs(cand.y):
                return cand, u
        raise AssertionError("unreachable: |x| == |y| would be a zero divisor")
    if z.x == 0:
        if z.y >= 0:
            return z, one_
        return -z, -one_
    s = 1 if z.x > 0 else -1
    xc = s * z.x
    yc = (s * z.y) % xc
    t = (yc - s * z.y) // z.x
    return Element(kind, xc, yc), Element(kind, s, t)


class TestCanonicalAssociateReference:
    """The closed form agrees with the trial-product reference."""

    @staticmethod
    def check(z):
        got = z.canonical_associate()
        assert got == reference_canonical_associate(z), z
        assert all(type(e) is Element for e in got)

    def test_box(self):
        for kind in RingKind:
            for x in range(-60, 61):
                for y in range(-60, 61):
                    self.check(Element(kind, x, y))

    def test_random_large(self):
        rng = random.Random(4)
        for kind in RingKind:
            for _ in range(3000):
                bits = rng.randint(1, 200)
                x = rng.randint(-(2**bits), 2**bits)
                # a quarter of the points on a diagonal or an axis
                y = rng.choice((x, -x, 0, rng.randint(-(2**bits), 2**bits)))
                if rng.random() < 0.5:
                    x, y = y, x
                self.check(Element(kind, x, y))

    @given(KINDS, st.integers(-(2**200), 2**200), st.integers(-(2**200), 2**200))
    def test_property(self, kind, x, y):
        self.check(Element(kind, x, y))

    @given(KINDS, st.integers(-(2**200), 2**200))
    def test_property_diagonals_and_axes(self, kind, t):
        for x, y in ((t, t), (t, -t), (t, 0), (0, t)):
            self.check(Element(kind, x, y))


class TestResultsAreValidElements:
    """Ring operations skip validation; their results must not show it."""

    def test_constructor_still_validates(self):
        with pytest.raises(TypeError):
            Element(RingKind.ELLIPTIC, 1.5, 0)
        with pytest.raises(TypeError):
            Element(RingKind.HYPERBOLIC, 1, 2.0)
        with pytest.raises(TypeError):
            Element("i", 1, 0)

    @pytest.mark.parametrize("x, y", [(True, False), (1, True), (False, 0)])
    def test_constructor_rejects_bool(self, x, y):
        for kind in RingKind:
            with pytest.raises(TypeError):
                Element(kind, x, y)
        with pytest.raises(TypeError):
            elliptic(x, y)

    def test_constructor_rejects_int_subclass(self):
        class Int(int):
            pass

        with pytest.raises(TypeError):
            Element(RingKind.PARABOLIC, Int(3), 1)

    def test_mu(self):
        assert RingKind.ELLIPTIC.mu == -1
        assert RingKind.HYPERBOLIC.mu == 1
        assert RingKind.PARABOLIC.mu == 0
        assert RingKind("j").mu == 1

    @given(same_kind_pair(), st.integers(-(10**6), 10**6), st.integers(0, 5))
    def test_operation_results(self, pair, n, e):
        z, w = pair
        kind = z.kind
        results = [z + w, z - w, z * w, -z, z.conj(), z ** e, z + n, n - z, n * z]
        # the divisors include a diagonal (hyperbolic) and an axis (parabolic) zero divisor
        for b in (w, Element(kind, w.x, w.x), Element(kind, 0, w.y)):
            if b:
                results += [q for q in (divides(b, z), divides(b, z * b)) if q is not None]
        if w.eta:
            results += [div_rem(z, w).quotient, div_rem(z, w).remainder]
        for u in (Element(kind, 0, 1), Element(kind, -1, n)):
            if u.is_unit():
                results.append(u.inverse())
        for r in results:
            assert type(r) is Element
            assert type(r.x) is int and type(r.y) is int
            built = Element(kind, r.x, r.y)
            assert r == built and hash(r) == hash(built)


class TestDiagonalCoords:
    def test_roundtrip(self):
        for x in range(-5, 6):
            for y in range(-5, 6):
                u, v = diagonal_coords(H(x, y))
                assert from_diagonal_coords(u, v) == H(x, y)

    def test_multiplication_componentwise(self):
        z, w = H(3, -2), H(-1, 4)
        zu, zv = diagonal_coords(z)
        wu, wv = diagonal_coords(w)
        assert diagonal_coords(z * w) == (zu * wu, zv * wv)

    def test_rejects_other_rings(self):
        with pytest.raises(WrongRingError):
            diagonal_coords(C(1, 1))
        with pytest.raises(ValueError):
            from_diagonal_coords(1, 2)
