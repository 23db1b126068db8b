import ast
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import planeint
from _ideal_oracles import combination_points, ideal_lattice, lattice_contains
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
        # decompose and ideal_contains reach the division only through
        # euclid._div_rem, div_rem's kernel, so patching the reference in
        # reruns them on it
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
        calls = []

        def counted_reference(a, b):
            calls.append(1)
            res = reference_div_rem(a, b)
            return res.quotient.x, res.quotient.y, res.remainder, res.remainder.eta

        monkeypatch.setattr(euclid, "_div_rem", counted_reference)
        assert run() == got
        assert len(calls) > 1000


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
        # a first descent that reduces nothing leaves α = 3, not of minimal norm
        real_descend = euclid._descend
        calls = []

        def lazy_first(gens, alpha):
            calls.append(alpha)
            return (alpha, []) if len(calls) == 1 else real_descend(gens, alpha)

        monkeypatch.setattr(euclid, "_descend", lazy_first)
        with pytest.raises(EuclidInvariantError, match="not minimal"):
            decompose(FGIdeal.of(C(5, 0), C(3, 0)))

    def test_elliptic_residues(self, monkeypatch):
        monkeypatch.setattr(euclid, "_descend", lambda gens, alpha: (alpha, [C(0, 1)]))
        with pytest.raises(EuclidInvariantError, match="residues"):
            decompose(FGIdeal.of(C(3, 0)))


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
