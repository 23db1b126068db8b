import ast
from pathlib import Path

import pytest

import planeint
from planeint import (
    Element,
    InfiniteDivisorSetError,
    Verdict,
    divides,
    divisors,
    elliptic,
    hyperbolic,
    is_prime,
    oracle_irreducible,
    oracle_prime,
    parabolic,
)

H, K, C = hyperbolic, parabolic, elliptic


class TestDivisors:
    def test_two_in_h(self):
        assert divisors(H(2, 0)) == [H(1, 0), H(2, 0)]

    def test_parabolic_example(self):
        ds = divisors(K(9, 3))
        assert K(3, 0) in ds and K(3, 1) in ds
        assert K(3, 1) * K(3, 0) == K(9, 3)

    def test_five_in_c(self):
        ds = divisors(C(5, 0))
        # 1+2i is the canonical associate of 2-i
        assert ds == [C(1, 0), C(1, 2), C(2, 1), C(5, 0)]

    def test_axis_element(self):
        ds = divisors(K(0, 2))
        assert K(0, 1) in ds and K(2, 0) in ds and K(0, 2) in ds

    def test_every_listed_divisor_divides(self):
        samples = [H(7, 5), H(12, 0), H(9, 1), K(12, 7), K(8, 3), K(0, 9), C(13, 0), C(8, 6)]
        for z in samples:
            for d in divisors(z):
                assert divides(d, z) is not None

    def test_closed_under_cofactors(self):
        # for nonzero norm, the cofactor of each divisor appears up to associates
        samples = [H(7, 5), H(12, 0), K(12, 7), C(13, 0), C(8, 6)]
        for z in samples:
            ds = set(divisors(z))
            for d in ds:
                q = divides(d, z)
                assert q.canonical_associate()[0] in ds

    def test_unit_and_own_class_always_present(self):
        for z in (H(5, 3), K(7, 2), C(4, 1)):
            ds = divisors(z)
            assert Element(z.kind, 1, 0) in ds
            assert z.canonical_associate()[0] in ds

    def test_diagonal_rejected(self):
        with pytest.raises(InfiniteDivisorSetError):
            divisors(H(3, 3))
        with pytest.raises(ValueError):
            divisors(C(0, 0))


class TestOracleIrreducible:
    def test_examples(self):
        assert oracle_irreducible(H(3, 1))
        assert not oracle_irreducible(H(7, 5))
        assert oracle_irreducible(K(0, 1))

    def test_witness_of_seven_five(self):
        assert H(2, 1) * H(3, 1) == H(7, 5)

    def test_rejects_units_and_zero(self):
        with pytest.raises(ValueError):
            oracle_irreducible(H(1, 0))
        with pytest.raises(ValueError):
            oracle_irreducible(K(0, 0))


class TestOraclePrime:
    def test_two_in_h_refuted_with_conjugate_witness(self):
        res = oracle_prime(H(2, 0), 3)
        assert res.verdict is Verdict.REFUTED
        assert res.witness == (H(1, 1), H(1, -1))

    def test_witness_reproduces_violation(self):
        res = oracle_prime(H(2, 0), 3)
        a, b = res.witness
        z = H(2, 0)
        assert divides(z, a * b) is not None
        assert divides(z, a) is None and divides(z, b) is None

    def test_one_plus_j_not_refuted(self):
        assert oracle_prime(H(1, 1), 5).verdict is Verdict.NO_COUNTEREXAMPLE_FOUND

    def test_k_not_refuted(self):
        assert oracle_prime(K(0, 1), 5).verdict is Verdict.NO_COUNTEREXAMPLE_FOUND

    def test_parabolic_integers_refuted_via_axis(self):
        res = oracle_prime(K(2, 0), 2)
        assert res.verdict is Verdict.REFUTED
        assert res.witness == (K(0, 1), K(0, -1))

    def test_reducible_elements_refuted_by_their_factors(self):
        res = oracle_prime(H(3, 1), 4)  # irreducible but not prime
        assert res.verdict is Verdict.REFUTED

    def test_gaussian_prime_not_refuted(self):
        assert oracle_prime(C(2, 1), 4).verdict is Verdict.NO_COUNTEREXAMPLE_FOUND

    def test_gaussian_composite_refuted(self):
        assert oracle_prime(C(5, 0), 4).verdict is Verdict.REFUTED


class TestCompletenessAndCrossChecks:
    def test_enumeration_is_complete(self):
        # nothing in a whole candidate box divides z without being listed
        samples = [H(7, 5), H(12, 0), H(9, 1), K(12, 7), K(0, 6), C(13, 0), C(8, 6)]
        for z in samples:
            listed = set(divisors(z))
            for x in range(-16, 17):
                for y in range(-16, 17):
                    c = Element(z.kind, x, y)
                    if not c:
                        continue
                    if divides(c, z) is not None:
                        assert c.canonical_associate()[0] in listed, (z, c)

    def test_classifier_primes_are_never_refuted(self):
        primes = [H(1, 1), H(1, -1), H(2, 1), H(3, 2), K(0, 1), K(0, -1), C(1, 1), C(2, 1), C(3, 0)]
        for z in primes:
            assert is_prime(z)
            assert oracle_prime(z, 10).verdict is Verdict.NO_COUNTEREXAMPLE_FOUND, z

    def test_classifier_non_primes_are_refuted(self):
        # one representative per witness family, with the box that exposes it
        cases = [
            (H(2, 0), 3),    # integer prime, zero-divisor product witness
            (H(2, 2), 1),    # diagonal non-associate of 1+j
            (H(3, 1), 4),    # irreducible non-prime, conjugate-square witness
            (H(7, 5), 4),    # reducible, refuted by its own factors
            (K(2, 0), 1),    # axis pair (k, -k) multiplies to zero
            (K(0, 2), 1),
            (K(9, 1), 9),    # irreducible non-prime of the parabolic ring
            (C(5, 0), 4),    # splits as (2+i)(2-i)
        ]
        for z, box in cases:
            assert not is_prime(z)
            res = oracle_prime(z, box)
            assert res.verdict is Verdict.REFUTED, z
            a, b = res.witness
            assert divides(z, a * b) is not None
            assert divides(z, a) is None and divides(z, b) is None


def _package_imports(module):
    """The planeint modules that ``planeint.<module>`` imports, directly or through each other.

    A subpackage stands for all of its modules: the CLI imports each command's
    module by name, at run time, which no scan of import statements sees.
    """
    pkg = Path(planeint.__file__).parent

    def source(name):  # the files of module or subpackage ``name``; none if it is no module
        path = pkg.joinpath(*name.split("."))
        if path.is_dir():
            return sorted(path.glob("*.py"))
        path = path.with_suffix(".py")
        return [path] if path.exists() else []

    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen or not source(name):  # from . import name, where name is no module
            continue
        seen.add(name)
        # the package relative imports start from, as a path below planeint
        here = name.split(".") if pkg.joinpath(*name.split(".")).is_dir() else name.split(".")[:-1]
        for file in source(name):
            for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level:
                    base = here[: len(here) - node.level + 1]
                    if node.module is None:  # from . import a, b
                        todo += [".".join([*base, a.name]) for a in node.names]
                    else:
                        todo.append(".".join([*base, node.module]))
                elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("planeint."):
                    todo.append(node.module.removeprefix("planeint."))
                elif isinstance(node, ast.Import):
                    todo += [a.name.removeprefix("planeint.") for a in node.names if a.name.startswith("planeint.")]
    return seen - {module}


def test_oracle_is_independent_of_the_integer_kernel():
    # the oracle referees the closed-form rules, which rest on planeint.integers
    assert _package_imports("cli") >= {"integers", "oracle"}  # the scan sees the kernel where it is used
    assert "integers" not in _package_imports("oracle")
