import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planeint import Element, RingKind, elliptic, format_element, hyperbolic, parabolic
from planeint.cli import AmbiguousRingError, ElementParseError, _ring_arg, build_parser, main, parse_element

H, K, C = hyperbolic, parabolic, elliptic

# the element grammar as three patterns tried in turn, the referee of parse_element's one pattern
_REF_FULL = re.compile(r"\s*([+-]?\d+)\s*([+-])\s*(\d*)\s*([ijk])\s*")
_REF_IMAG = re.compile(r"\s*([+-]?)\s*(\d*)\s*([ijk])\s*")
_REF_REAL = re.compile(r"\s*([+-]?\d+)\s*")


def _referee(text, hint, hint_from):
    """(kind, x, y) of text, or the (exception type, message, position) that parse_element raises.

    A refused text is blamed at the end of its longest prefix that begins a literal.
    """

    def hinted(kind, x, y):
        if hint is None or hint is kind:
            return kind, x, y
        given = f"--ring {hint.symbol} was given" if hint_from is None else f"{hint_from!r} names ring {hint.symbol}"
        return ElementParseError, f"{text!r} names ring {kind.symbol} but {given}", 0

    m = _REF_FULL.fullmatch(text)
    if m:
        coef = int(m[3]) if m[3] else 1
        return hinted(RingKind(m[4]), int(m[1]), coef if m[2] == "+" else -coef)
    m = _REF_IMAG.fullmatch(text)
    if m:
        coef = int(m[2]) if m[2] else 1
        return hinted(RingKind(m[3]), 0, -coef if m[1] == "-" else coef)
    m = _REF_REAL.fullmatch(text)
    if m:
        if hint is None:
            return AmbiguousRingError, f"{text!r} is a bare integer; pass --ring i|j|k to pick its ring", 0
        return hint, int(m[1]), 0
    pos = max(n for n in range(len(text) + 1) if _begins_literal(text[:n]))
    return ElementParseError, f"cannot parse element {text!r} (at position {pos})", pos


# the completions of at most 2 characters over 1+i
_COMPLETIONS = ["".join(chars) for n in range(3) for chars in itertools.product("1+i", repeat=n)]


@functools.cache
def _begins_literal(prefix):
    """Whether some completion turns prefix into a literal of one of the three forms."""
    return any(ref.fullmatch(prefix + tail) for ref in (_REF_FULL, _REF_IMAG, _REF_REAL) for tail in _COMPLETIONS)


class TestParseElement:
    def test_grammar_cases(self):
        assert parse_element("3-1j") == H(3, -1)
        assert parse_element("7", RingKind.HYPERBOLIC) == H(7, 0)
        assert parse_element("2+k") == K(2, 1)
        assert parse_element("-2+0k") == K(-2, 0)
        assert parse_element("k") == K(0, 1)
        assert parse_element("-j") == H(0, -1)
        assert parse_element("5i") == C(0, 5)
        assert parse_element("0k") == K(0, 0)
        assert parse_element(" 3 - 1 j ") == H(3, -1)

    def test_bare_integer_needs_hint(self):
        with pytest.raises(AmbiguousRingError):
            parse_element("7")

    def test_hint_conflict(self):
        with pytest.raises(ElementParseError):
            parse_element("3-1j", RingKind.PARABOLIC)

    def test_parse_error_carries_position(self):
        # the end of the longest prefix that begins a literal: a blank is no fault, nor is
        # any character the pattern admits, and a wrong order is blamed where it starts
        for text, position in [("3-1q", 3), ("3 5i", 2), ("- 5+1i", 3), ("3\n5i", 2), ("++", 1),
                               ("3\xa0-\xa01q", 5), ("\u0663+1q", 3)]:
            with pytest.raises(ElementParseError) as info:
                parse_element(text)
            assert info.value.position == position, text

    def test_long_blank_runs_are_refused_at_once(self):
        # blank runs that touch backtrack as n³ on a refusal; a child under a timeout
        # fails, rather than hangs, if the pattern does that again
        code = (
            "from planeint.cli import ElementParseError, parse_element\n"
            "for text in (' ' * 100_000 + 'q', '1' + ' ' * 100_000 + 'q', '3-' + ' ' * 100_000 + 'q'):\n"
            "    try:\n"
            "        parse_element(text)\n"
            "    except ElementParseError as exc:\n"
            "        print(exc.position)\n"
        )
        src = str(Path(parse_element.__code__.co_filename).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "100000\n100001\n100002\n", "")

    def test_format_parse_roundtrip(self):
        for kind in RingKind:
            for x in range(-4, 5):
                for y in range(-4, 5):
                    z = Element(kind, x, y)
                    assert parse_element(format_element(z)) == z

    @given(st.sampled_from(RingKind), st.integers(-(10**4000), 10**4000), st.integers(-(10**4000), 10**4000))
    def test_format_parse_roundtrip_large(self, kind, x, y):
        z = Element(kind, x, y)
        assert parse_element(format_element(z)) == z

    def test_format_normalizes(self):
        assert format_element(parse_element("3 - 1j")) == "3-1j"
        assert format_element(parse_element("+2+1k")) == "2+1k"
        assert format_element(parse_element("7", RingKind.PARABOLIC)) == "7+0k"

    def test_one_pattern_agrees_with_the_three_forms(self):
        # every string of length <= 4 over the grammar's characters, a blank, a tab and a
        # refused letter, under no hint and under each ring given by --ring or by an operand
        hints = [(None, None)] + [(kind, given) for given in (None, "2+1j") for kind in RingKind]
        texts = ["".join(chars) for n in range(5) for chars in itertools.product("017+-ijk q\t", repeat=n)]
        assert len(texts) == 16_105
        for text in texts:
            for hint, hint_from in hints:
                try:
                    z = parse_element(text, hint, hint_from)
                    got = z.kind, z.x, z.y
                except ElementParseError as exc:
                    got = type(exc), str(exc), exc.position
                assert got == _referee(text, hint, hint_from), (text, hint, hint_from)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCommands:
    def test_classify_human(self, capsys):
        rc, out, _ = run(capsys, "classify", "1+1j")
        assert rc == 0
        assert "prime          yes" in out
        assert "irreducible    no" in out
        assert "zero divisor   yes" in out

    def test_classify_json_integers_are_strings(self, capsys):
        rc, out, _ = run(capsys, "--json", "classify", "2", "--ring", "j")
        assert rc == 0
        data = json.loads(out)
        assert data["eta"] == "4" and data["eta_plus"] == "4"
        assert data["is_irreducible"] is True and data["is_prime"] is False
        assert data["element"] == {"ring": "j", "x": "2", "y": "0", "text": "2+0j"}

    def test_classify_k(self, capsys):
        rc, out, _ = run(capsys, "--json", "classify", "k")
        data = json.loads(out)
        assert data["is_prime"] and data["is_irreducible"]

    def test_factor(self, capsys):
        rc, out, _ = run(capsys, "--json", "factor", "8", "--ring", "j")
        assert rc == 0
        data = json.loads(out)
        assert [f["text"] for f in data["factors"]] == ["2+0j", "2+0j", "2+0j"]

    def test_factor_zero_divisor_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "factor", "3+3j")
        assert rc == 1 and "no irreducible factorization" in err

    def test_divmod_reports_check(self, capsys):
        rc, out, _ = run(capsys, "divmod", "5+3i", "1+1i")
        assert rc == 0
        assert "quotient   4-1i" in out
        assert "eta_plus(remainder) = 0 < 2" in out

    def test_divmod_by_zero_divisor(self, capsys):
        rc, _, err = run(capsys, "divmod", "5+3j", "2+2j")
        assert rc == 1

    # without --ring, the ring of the later operands is the first operand's, and
    # a mismatch names that operand; with --ring, it names the option
    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            ("divmod 3+1i 1+1j", "'1+1j' names ring j but '3+1i' names ring i"),
            ("ideal 2+0k 3+0i", "'3+0i' names ring i but '2+0k' names ring k"),
            ("ideal 2+0k 4+1k --contains 3+0i", "'3+0i' names ring i but '2+0k' names ring k"),
            ("divmod --ring i 3+1i 1+1j", "'1+1j' names ring j but --ring i was given"),
            ("divmod --ring i 5 1+1j", "'1+1j' names ring j but --ring i was given"),
            ("ideal --ring k 2 4+1k --contains 3+0i", "'3+0i' names ring i but --ring k was given"),
        ],
    )
    def test_ring_mismatch_names_the_hint(self, capsys, argv, message):
        assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")

    def test_norm(self, capsys):
        rc, out, _ = run(capsys, "--json", "norm", "3+1j")
        data = json.loads(out)
        assert data == {
            "element": {"ring": "j", "x": "3", "y": "1", "text": "3+1j"},
            "eta": "8",
            "eta_plus": "8",
            "trace": "6",
        }

    def test_dts_rows(self, capsys):
        rc, out, _ = run(capsys, "dts", "8")
        lines = out.strip().splitlines()
        assert lines[0] == "n,two_adic,representable,r,s"
        assert "8,3,true,3,1" in lines
        assert "6,1,false,," in lines
        assert "1,0,true,1,0" in lines

    def test_ideal(self, capsys):
        rc, out, _ = run(capsys, "--json", "ideal", "2", "1+1j", "--ring", "j", "--contains", "5+3j")
        data = json.loads(out)
        assert data["alpha"]["text"] == "2+0j"
        assert data["dplus_gen"] == "1" and data["dminus_gen"] == "1"
        assert data["contains"]["member"] is True

    def test_oracle_prime(self, capsys):
        rc, out, _ = run(capsys, "--json", "oracle", "prime", "2", "--ring", "j", "--box", "3")
        data = json.loads(out)
        assert data["verdict"] == "refuted"
        assert [w["text"] for w in data["witness"]] == ["1+1j", "1-1j"]

    def test_oracle_irreducible(self, capsys):
        rc, out, _ = run(capsys, "oracle", "irreducible", "3+1j")
        assert rc == 0 and "yes" in out

    def test_oracle_divisors(self, capsys):
        rc, out, _ = run(capsys, "oracle", "divisors", "2", "--ring", "j")
        assert rc == 0 and out.strip() == "1+0j, 2+0j"

    def test_classify_poly(self, capsys):
        rc, out, _ = run(capsys, "--json", "classify-poly", "1", "0", "1")
        data = json.loads(out)
        assert data["kind"] == "i" and data["disc"] == "-4"
        rc, out, _ = run(capsys, "classify-poly", "1/2", "0", "-3/4")
        assert rc == 0 and "hyperbolic" in out

    @pytest.mark.parametrize("coefficients", [("a", "1", "1"), ("1", "1/0", "1"), ("1", "0", "x")])
    def test_classify_poly_bad_coefficient_is_parse_error(self, capsys, coefficients):
        bad = next(c for c in coefficients if c not in ("0", "1"))
        for flags in ([], ["--json"]):
            rc, out, err = run(capsys, *flags, "classify-poly", *coefficients)
            assert (rc, out, err) == (2, "", f"error: cannot parse coefficient {bad!r}\n")

    def test_minus_unit_literals_are_elements(self, capsys):
        rc, out, _ = run(capsys, "classify", "-j")
        assert rc == 0 and out.startswith("element        -1j\n") and "unit           yes" in out
        rc, out, err = run(capsys, "factor", "-i", "--ring", "i")
        assert (rc, out, err) == (1, "", "error: units cannot be factored\n")
        rc, out, _ = run(capsys, "--json", "norm", "-k")
        assert rc == 0 and json.loads(out)["element"] == {"ring": "k", "x": "0", "y": "-1", "text": "-1k"}
        rc, out, _ = run(capsys, "--color", "classify", "-j")
        assert rc == 0 and "unit           \x1b[32myes\x1b[0m" in out
        with pytest.raises(SystemExit) as info:
            run(capsys, "classify", "-h")
        assert info.value.code == 0 and "usage: planeint classify" in capsys.readouterr().out

    def test_exp_pow(self, capsys):
        rc, out, _ = run(capsys, "--json", "exp", "0", "3", "--ring", "k")
        data = json.loads(out)
        assert data["x"] == 1.0 and data["y"] == 3.0
        rc, out, _ = run(capsys, "--json", "pow", "5", "3", "2", "--ring", "j")
        data = json.loads(out)
        assert abs(data["x"] - 34.0) < 1e-9 and abs(data["y"] - 30.0) < 1e-9

    def test_pow_out_of_sector(self, capsys):
        rc, _, err = run(capsys, "pow", "1", "1", "2", "--ring", "j")
        assert rc == 1

    def test_table_k(self, capsys):
        rc, out, _ = run(capsys, "table", "--ring", "k", "--bound", "5")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("#")
        # exactly one prime class: k itself
        prime_rows = [l for l in lines if l.split(",")[7:8] == ["true"]]
        assert prime_rows == ["1k,0,1,0,0,false,true,true,true,false"]

    def test_table_h_known_rows(self, capsys):
        rc, out, _ = run(capsys, "--json", "table", "--ring", "j", "--bound", "5")
        data = json.loads(out)
        by_text = {row["element"]["text"]: row for row in data["rows"]}
        assert by_text["2+1j"]["is_prime"] is True and by_text["2+1j"]["eta"] == "3"
        assert by_text["3+1j"]["is_prime"] is False and by_text["3+1j"]["is_irreducible"] is True

    def test_table_bound_too_large(self, capsys):
        rc, _, err = run(capsys, "table", "--ring", "j", "--bound", "5000")
        assert rc == 1 and "bound too large" in err

    @pytest.mark.parametrize(
        "argv, maximum",
        [
            ("dts 100001", 100_000),
            ("--json dts " + "9" * 40, 100_000),
            ("oracle prime 3+2i --box 17", 16),
            ("--json oracle prime 2 --ring j --box " + "9" * 40, 16),
        ],
    )
    def test_bound_refused_before_any_work(self, capsys, argv, maximum):
        start = time.perf_counter()
        result = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert result == (1, "", f"error: bound too large (maximum {maximum})\n")

    @pytest.mark.parametrize("argv", ["oracle divisors 1000000000000k", "oracle irreducible 7-200001j"])
    def test_coordinate_refused_before_any_work(self, capsys, argv):
        start = time.perf_counter()
        result = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert result == (1, "", "error: coordinate too large (maximum 100000)\n")

    def test_least_bounds_accepted(self, capsys):
        assert run(capsys, "table", "--ring", "j", "--bound", "0")[0] == 0
        assert run(capsys, "oracle", "irreducible", "100000k") == (0, "irreducible  no\n", "")
        assert run(capsys, "oracle", "irreducible", "-100000+99999j") == (0, "irreducible  yes\n", "")

    def test_box_bound_holds_for_prime_mode_only(self, capsys):
        # at the bound the scan runs; it refutes 5+2j at once with the diagonal pair
        rc, out, _ = run(capsys, "oracle", "prime", "5+2j", "--box", "16")
        assert (rc, out) == (0, "verdict  refuted\nwitness  1+1j, 1-1j\n")
        assert run(capsys, "oracle", "divisors", "12+6k", "--box", "17")[0] == 0

    def test_parse_error_exit_code(self, capsys):
        rc, _, err = run(capsys, "classify", "wat")
        assert rc == 2
        rc, _, err = run(capsys, "classify", "7")
        assert rc == 2 and "bare integer" in err


# a literal one digit over the interpreter's int/str limit, in each grammar position
@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int/str digit limit"
)
class TestOverLongLiteral:
    def test_parse_error_names_the_limit(self):
        limit = sys.get_int_max_str_digits()
        big = "7" * (limit + 1)
        for text, hint in [
            (f"{big}+1i", None),
            (f"1-{big}j", None),
            (f"{big}k", None),
            (f"-{big}i", None),
            (big, RingKind.HYPERBOLIC),
        ]:
            with pytest.raises(ElementParseError, match=f"more than {limit} digits"):
                parse_element(text, hint)

    def test_checks_come_in_order(self):
        # a bare integer's missing ring before its digits; a coordinate's digits before a ring mismatch
        big = "7" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(AmbiguousRingError):
            parse_element(big)
        for text, hint, hint_from in [(f"{big}+1i", RingKind.HYPERBOLIC, None), (f"-{big}k", RingKind.ELLIPTIC, "2+1i")]:
            with pytest.raises(ElementParseError, match="digits"):
                parse_element(text, hint, hint_from)

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_cli_exits_2(self, capsys, flags):
        limit = sys.get_int_max_str_digits()
        rc, out, err = run(capsys, *flags, "classify", "7" * (limit + 1) + "+1i")
        assert (rc, out, err) == (2, "", f"error: a coordinate has more than {limit} digits\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_classify_poly_coefficient_exits_2(self, capsys, flags):
        # digits plus |exponent|: 10^limit has limit + 1 digits, and so has the denominator of 1e-limit
        limit = sys.get_int_max_str_digits()
        for coefficients in (["1e99999", "1", "1"], ["1", f"1e-{limit}", "1"], ["7" * (limit + 1), "0", "1"],
                             ["1", "0", f"{'7' * (limit - 1)}e2"]):
            rc, out, err = run(capsys, *flags, "classify-poly", *coefficients)
            assert (rc, out, err) == (2, "", f"error: a coefficient has more than {limit} digits\n"), coefficients
        rc, out, err = run(capsys, *flags, "classify-poly", f"1e{limit - 1}", "0", f"1e{limit - 1}")
        assert (rc, err) == (0, "") and "-4" + "0" * (2 * limit - 2) in out  # D = -4·10^(2·limit-2); str(D) passes the limit
        # accepted, but its |D| = 4·10^(1-limit) is below the smallest normal float
        rc, out, err = run(capsys, *flags, "classify-poly", f"1e{limit - 1}", "0", "1")
        assert (rc, out) == (1, "") and "needs |D| = 0 or at least" in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int/str digit limit"
)
class TestLongLiteralNorms:
    """A literal within the digit limit whose norm is past it still prints; main restores the limit."""

    LITERAL = "9" * 3000 + "+1i"  # both coordinates odd: an even norm, decided at once

    @staticmethod
    def norm_text():
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str((10**3000 - 1) ** 2 + 1)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    @pytest.mark.parametrize("command", ["norm", "classify"])
    def test_prints_the_norm(self, capsys, command, flags):
        limit = sys.get_int_max_str_digits()
        eta = self.norm_text()
        assert len(eta) > limit
        rc, out, err = run(capsys, *flags, command, self.LITERAL)
        assert (rc, err) == (0, "")
        assert eta in out
        if flags:
            assert json.loads(out)["eta"] == eta
        assert sys.get_int_max_str_digits() == limit

    def test_limit_restored_after_errors(self, capsys):
        limit = sys.get_int_max_str_digits()
        rc, _, err = run(capsys, "classify", "7" * (limit + 1) + "+1i")
        assert rc == 2 and f"more than {limit} digits" in err
        assert sys.get_int_max_str_digits() == limit
        rc, _, _ = run(capsys, "divmod", "5+3j", "2+2j")
        assert rc == 1
        assert sys.get_int_max_str_digits() == limit

    def test_literals_keep_the_limit_found_on_entry(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(2500)
        try:
            rc, out, err = run(capsys, "norm", self.LITERAL)
            assert (rc, out, err) == (2, "", "error: a coordinate has more than 2500 digits\n")
            assert sys.get_int_max_str_digits() == 2500
        finally:
            sys.set_int_max_str_digits(limit)


CLI_EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "cli_expected.json").read_text()
)


class TestGoldenOutput:
    """Output bytes: the benchmark's pinned stdout digests, plus exact text for a few argv."""

    @pytest.mark.parametrize("argv, digest", sorted(CLI_EXPECTED.items()))
    def test_benchmark_digest(self, capsys, argv, digest):
        rc, out, err = run(capsys, *argv.split())
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, rc, out, err",
        [
            (
                "--color classify 7+2i",
                0,
                "element        7+2i\n"
                "eta            53   (eta_plus 53)\n"
                "zero           \x1b[31mno\x1b[0m\n"
                "unit           \x1b[31mno\x1b[0m\n"
                "zero divisor   \x1b[31mno\x1b[0m\n"
                "prime          \x1b[32myes\x1b[0m\n"
                "irreducible    \x1b[32myes\x1b[0m\n"
                "reducible      \x1b[31mno\x1b[0m\n"
                "canonical      7+2i  (unit 1+0i)\n",
                "",
            ),
            ("classify wat", 2, "", "error: cannot parse element 'wat' (at position 0)\n"),
            # a dash token that begins a literal is an operand, refused where the literal stops
            *((f"norm {token}", 2, "", f"error: cannot parse element {token!r} (at position 2)\n")
              for token in ("-jx", "-k5", "-i2")),
            # -inf is an operand, as inf is
            *((f"exp {x} 0 --ring j", 1, "", "error: coordinates must be finite\n") for x in ("inf", "-inf")),
            ("classify 7", 2, "", "error: '7' is a bare integer; pass --ring i|j|k to pick its ring\n"),
            ("factor 3+3j", 1, "", "error: hyperbolic zero divisors have no irreducible factorization\n"),
            ("table --ring j --bound 5000", 1, "", "error: bound too large (maximum 100)\n"),
            ("table --ring j --bound -3", 1, "", "error: bound must be >= 0\n"),
            ("oracle prime 3+2i --box -5", 1, "", "error: box must be >= 0\n"),
            ("oracle prime 3+2i --box 0", 0, "verdict  no_counterexample_found\n", ""),
            ("dts 0", 1, "", "error: n_max must be >= 1\n"),
            ("oracle divisors 100001k", 1, "", "error: coordinate too large (maximum 100000)\n"),
            ("oracle irreducible 5-100001i", 1, "", "error: coordinate too large (maximum 100000)\n"),
            ("--json oracle divisors -100001+2j", 1, "", "error: coordinate too large (maximum 100000)\n"),
            ("pow 1 1 2 --ring j", 1, "", "error: 1.0+1.0j is outside the sector eta > 0, x > 0\n"),
            # x > |y|, though x² - y² underflows to 0
            ("pow 1e-200 0 1 --ring j", 0, "(1e-200 + 0.0j)^1 = 1e-200 + 0.0j\n", ""),
            # finite results that cosh and sinh, or e^x, cannot reach; the exact sums 528 + 496j
            ("exp --ring j -- -800 800", 0, "exp(-800.0 + 800.0j) = 0.5 + 0.5j\n", ""),
            (
                "pow --ring j 0.5 0.49 400",
                0,
                "(0.5 + 0.49j)^400 = 0.00897527663752257 + 0.00897527663752257j\n",
                "",
            ),
            ("pow --ring j 3 1 5", 0, "(3.0 + 1.0j)^5 = 528.0 + 496.0j\n", ""),
            # a parabolic α does not depend on the order of the generators
            *(
                (argv, 0, "alpha       2+0k\ndiag + gen  0\ndiag - gen  0\naxis gen    1\n", "")
                for argv in ("ideal -- -2-2k -2-1k", "ideal -- -2-1k -2-2k")
            ),
            # a = gcd(12, 18) = 6, so the parabolic fold runs modulo a² = 36 and a
            ("ideal 12+4k 18+2k", 0, "alpha       6+0k\ndiag + gen  0\ndiag - gen  0\naxis gen    2\n", ""),
            # index 5 over content 1: n = 5, and Cornacchia's descent gives 2+1i
            ("ideal 5+0i 3+4i", 0, "alpha       2+1i\ndiag + gen  0\ndiag - gen  0\naxis gen    0\n", ""),
            # a result past the float range: from float **, math.exp, a product of finite
            # floats, and one that would have been blamed on the input
            *(
                (
                    argv,
                    1,
                    "",
                    "error: result out of float range: |x| and |y| must be at most 1.798e+308\n",
                )
                for argv in (
                    "pow 2 1 2000 --ring j",
                    "exp 800 1 --ring j",
                    "--json exp 700 700 --ring j",
                    "exp 1 1e308 --ring k",
                )
            ),
            (
                "classify-poly 1 0 1e400",
                1,
                "",
                "error: change of basis out of float range: shift = beta/2 and scale = sqrt(|D|)/2"
                " need |beta| and |D| at most 1.798e+308\n",
            ),
            # |D| = 4e-400 would be the float 0.0, and 4e-320 a subnormal float
            *(
                (
                    f"classify-poly {a} 0 -1",
                    1,
                    "",
                    "error: change of basis out of float range: scale = sqrt(|D|)/2"
                    " needs |D| = 0 or at least 2.225e-308\n",
                )
                for a in ("1e400", "1e320")
            ),
        ],
    )
    def test_exact(self, capsys, argv, rc, out, err):
        assert run(capsys, *argv.split()) == (rc, out, err)

    def test_csv_rows_end_in_crlf(self, capsys):
        for argv in (["dts", "3"], ["table", "--ring", "k", "--bound", "1"]):
            _, out, _ = run(capsys, *argv)
            rows = [line for line in out.split("\n") if line and not line.startswith("#")]
            assert rows and all(row.endswith("\r") for row in rows)


# -- JSON schema: the key set of every subcommand and every oracle mode ---------

ELEMENT_KEYS = {"ring", "x", "y", "text"}
VERDICT_KEYS = {"is_unit", "is_zero_divisor", "is_prime", "is_irreducible", "is_reducible"}
# top-level keys, and for each key holding elements or rows, the key set inside
SCHEMA = {
    "classify": (
        {"element", "is_zero", *VERDICT_KEYS, "eta", "eta_plus", "canonical", "unit"},
        {"element": ELEMENT_KEYS, "canonical": ELEMENT_KEYS, "unit": ELEMENT_KEYS},
    ),
    "factor": (
        {"element", "unit", "factors", "axis_extension"},
        {"element": ELEMENT_KEYS, "unit": ELEMENT_KEYS, "factors": ELEMENT_KEYS},
    ),
    "divmod": (
        {"a", "b", "quotient", "remainder", "remainder_norm", "divisor_norm", "remainder_smaller"},
        {"a": ELEMENT_KEYS, "b": ELEMENT_KEYS, "quotient": ELEMENT_KEYS, "remainder": ELEMENT_KEYS},
    ),
    "norm": ({"element", "eta", "eta_plus", "trace"}, {"element": ELEMENT_KEYS}),
    "dts": ({"rows"}, {"rows": {"n", "two_adic", "representable", "r", "s"}}),
    "ideal": (
        {"ring", "generators", "alpha", "dplus_gen", "dminus_gen", "d0_gen"},
        {"generators": ELEMENT_KEYS, "alpha": ELEMENT_KEYS, "contains": {"element", "member"}},
    ),
    "oracle irreducible": ({"element", "irreducible"}, {"element": ELEMENT_KEYS}),
    "oracle prime": ({"element", "verdict", "witness"}, {"element": ELEMENT_KEYS, "witness": ELEMENT_KEYS}),
    "oracle divisors": ({"element", "divisors"}, {"element": ELEMENT_KEYS, "divisors": ELEMENT_KEYS}),
    "classify-poly": ({"a", "b", "c", "disc", "kind", "shift", "scale"}, {}),
    "exp": ({"ring", "x", "y"}, {}),
    "pow": ({"ring", "x", "y"}, {}),
    "table": (
        {"ring", "bound", "summary", "rows"},
        {
            "summary": {"classes", "units", "zero_divisors", "primes", "irreducible_non_primes"},
            "rows": {"element", "eta", "eta_plus", *VERDICT_KEYS},
        },
    ),
}


def check_element(item):
    assert set(item) == ELEMENT_KEYS
    assert parse_element(item["text"]) == Element(RingKind(item["ring"]), int(item["x"]), int(item["y"]))


def check_schema(command, data):
    top, inner = SCHEMA[command]
    assert set(data) == top | ({"contains"} if "contains" in data else set())
    for key, keys in inner.items():
        value = data.get(key)  # None for an absent "contains" or a null alpha or witness
        if value is None:
            continue
        for item in value if isinstance(value, list) else [value]:
            assert set(item) == keys
            if keys == ELEMENT_KEYS:
                check_element(item)
            elif "element" in item:  # a table row or the ideal's membership query
                check_element(item["element"])


def element_text(kind, bound=30):
    coord = st.integers(-bound, bound)
    return st.builds(lambda x, y: format_element(Element(kind, x, y)), coord, coord)


@st.composite
def command_argv(draw):
    """(schema key, argv) for one subcommand on drawn inputs."""
    command = draw(st.sampled_from(sorted(SCHEMA)))
    kind = draw(st.sampled_from(RingKind))
    elt = element_text(kind)
    if command in ("classify", "factor", "norm"):
        return command, [command, draw(elt)]
    if command == "divmod":
        return command, [command, draw(elt), draw(elt)]
    if command == "ideal":
        argv = [command, *draw(st.lists(elt, min_size=1, max_size=3))]
        return command, argv + (["--contains", draw(elt)] if draw(st.booleans()) else [])
    if command.startswith("oracle"):
        return command, [*command.split(), draw(element_text(kind, 12)), "--box", "3"]
    if command == "dts":
        return command, [command, str(draw(st.integers(1, 40)))]
    if command == "classify-poly":
        return command, [command, *(str(draw(st.integers(-5, 5))) for _ in range(3))]
    if command in ("exp", "pow"):
        coord = st.integers(-3, 3).map(str)
        n = [str(draw(st.integers(-3, 3)))] if command == "pow" else []
        return command, [command, draw(coord), draw(coord), *n, "--ring", kind.symbol]
    return command, [command, "--ring", kind.symbol, "--bound", str(draw(st.integers(0, 4)))]


class TestJsonSchema:
    @pytest.mark.parametrize(
        "command, argv",
        [
            ("classify", "classify 7+2i"),
            ("factor", "factor 30+8i"),
            ("divmod", "divmod 27+5j 4+1j"),
            ("norm", "norm 12-5k"),
            ("dts", "dts 8"),
            ("ideal", "ideal 6+4j 10+2j --contains 4+2j"),
            ("ideal", "ideal 2+2j 3+3j"),
            ("oracle irreducible", "oracle irreducible 3+1j"),
            ("oracle prime", "oracle prime 2 --ring j --box 3"),
            ("oracle prime", "oracle prime 7+2i --box 3"),
            ("oracle divisors", "oracle divisors 12+6k"),
            ("classify-poly", "classify-poly 1 -3 2"),
            ("exp", "exp 0 3 --ring k"),
            ("pow", "pow 5 3 2 --ring j"),
            ("table", "table --ring j --bound 3"),
        ],
    )
    def test_each_subcommand(self, capsys, command, argv):
        rc, out, _ = run(capsys, "--json", *argv.split())
        assert rc == 0
        check_schema(command, json.loads(out))

    @staticmethod
    def run(*argv):
        # Hypothesis reuses one capsys across examples, so capture per call here
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(command_argv())
    def test_drawn_inputs(self, case):
        command, argv = case
        rc, out, err = self.run("--json", *argv)
        text_rc, text_out, text_err = self.run(*argv)
        # one payload feeds both renderings: same exit code, same error
        assert (rc, err) == (text_rc, text_err)
        if rc == 0:
            assert text_out and not err
            check_schema(command, json.loads(out))
        else:
            assert rc == 1 and out == text_out == "" and err.startswith("error: ")


# -- argv fuzzing ---------------------------------------------------------------

ARGV_WORDS = ("--json", "--color", "--ring", "i", "j", "k", "--ring=i", "--ring=j", "--ring=k", "--contains",
              "--box", "--bound", "-h", "--", "-", "irreducible", "prime", "divisors")
ARGV_TOKEN = st.one_of(
    st.text(max_size=12),
    st.sampled_from(ARGV_WORDS),
    st.sampled_from(RingKind).flatmap(lambda kind: element_text(kind, 10**30)),
    st.integers(-50, 50).map(str),
    st.integers(-10**6, 10**6).map(lambda e: f"1e{e}"),
)


def _has_budget(argv):
    """Whether argv stays inside the sizes the CLI finishes in seconds.

    ``table``, ``dts`` and ``oracle prime`` refuse a bound past 100, 100,000
    and 16, and ``oracle divisors``/``irreducible`` a coordinate past 10⁵,
    but near those bounds a run takes up to two seconds, too long for
    hundreds of examples.  ``classify``/``factor`` work still grows with the
    norm without a limit the CLI enforces, because primality past
    ψ13 ≈ 3.3·10²⁴ is O(√n) trial division (ROADMAP items 2 and 4).  So
    those argv keep n_max and --bound <= 50, --box <= 6, oracle coordinates
    <= 200 and classify/factor coordinates <= 10¹², whose norms stay below
    ψ13.
    ``classify-poly`` needs no guard: a coefficient whose digits plus
    exponent pass the literal limit is refused before ``Fraction`` reads it.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit:
        return True  # argparse refuses it before any work
    if args.command == "dts":
        return args.n_max <= 50
    if args.command == "table":
        return args.bound <= 50
    if args.command not in ("classify", "factor", "oracle"):
        return True
    if args.command == "oracle" and args.mode == "prime" and args.box > 6:
        return False
    try:
        z = parse_element(args.element, _ring_arg(args))
    except ElementParseError:
        return True
    return max(abs(z.x), abs(z.y)) <= (200 if args.command == "oracle" else 10**12)


class TestArgvFuzz:
    """Any argv ends in exit code 0, 1 or 2, or in argparse's SystemExit; nothing else escapes main."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(("--json", "--color")), max_size=1),
           st.one_of(st.sampled_from(sorted({key.split()[0] for key in SCHEMA})), st.text(max_size=12)),
           st.lists(ARGV_TOKEN, max_size=4))
    def test_exit_codes(self, prefix, command, tokens):
        argv = [*prefix, command, *tokens]
        assume(_has_budget(argv))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse: --help, or a usage error
                assert exc.code in (0, 2), argv
                return
        assert rc in (0, 1, 2), argv


def _parse(parser, argv):
    """(namespace or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestOneSubparser:
    """Given an argv that names its command, ``build_parser`` registers that command's subparser alone."""

    COMMANDS = ("classify", "factor", "divmod", "norm", "dts", "ideal", "oracle", "classify-poly", "exp", "pow",
                "table")
    TAILS = ([], ["-h"], ["7+2i"], ["7+2i", "extra"], ["--ring", "q", "5"], ["--bogus"], ["1", "2", "3", "4"],
             ["divisors", "12+6k", "--box", "3"], ["--ring", "j", "--bound", "5"], ["--", "-2-1k", "1", "2"])

    def test_parses_as_the_full_parser(self):
        full = build_parser()
        for command in self.COMMANDS:
            for prefix in ([], ["--json"], ["--color", "--json"]):
                for tail in self.TAILS:
                    argv = [*prefix, command, *tail]
                    assert _parse(build_parser(argv), argv) == _parse(full, argv), argv

    def test_usage_lists_every_command(self):
        assert build_parser(["norm", "12-5k"]).format_usage() == build_parser().format_usage()

    def test_registers_only_the_named_command(self):
        parser = build_parser(["--json", "norm", "12-5k"])
        assert _parse(parser, ["norm", "12-5k"])[0]["module"] == "norm"
        code, _, err = _parse(parser, ["classify", "7+2i"])
        assert code == 2 and "invalid choice: 'classify'" in err

    @pytest.mark.parametrize("argv", [[], ["-h"], ["--json"], ["bogus"], ["--", "norm", "12-5k"], ["--js", "norm", "1k"],
                                      ["-x", "norm", "1k"], ["Norm", "1k"]])
    def test_other_argv_get_the_full_parser(self, argv):
        parser = build_parser(argv)
        for command in self.COMMANDS:
            assert _parse(parser, [command, "-h"])[0] == 0, command
        assert _parse(parser, argv) == _parse(build_parser(), argv)
