"""The CLI's golden table, ``ROWS``: each pinned argv with its exit code, stdout and stderr; and one ``check``.

An expected stream is exact text, ``"sha256:<hex>"`` of its UTF-8 bytes, or None for argparse's text, which
differs between Python versions; the benchmark's 18 stdout digests are read from its file.  As a script (standard
library only) it runs each row as a child of the program its arguments name, for example
``PYTHONPATH=src python3.12 tests/_cli_golden.py python3.12 -m planeint.cli``; tier-1 runs each row in process."""

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

TIMEOUT = 20  # seconds per child
BLANKS = " " * 100_000 + "q"
CLASSIFY = ("element        {0}\neta            {1}   (eta_plus {1})\nzero           {2}\nunit           {3}\n"
            "zero divisor   {4}\nprime          {5}\nirreducible    {6}\nreducible      {7}\n"
            "canonical      {0}  (unit 1+0i)\n")
RED_NO, GREEN_YES = "\x1b[31mno\x1b[0m", "\x1b[32myes\x1b[0m"
IDEAL = "alpha       {}\ndiag + gen  0\ndiag - gen  0\naxis gen    {}\n"  # alpha and the axis generator
NORM = '{{"element": {{"ring": "{}", "x": "{}", "y": "{}", "text": "{}"}}, "eta": "{}", "eta_plus": "{}", ' \
    '"trace": "{}"}}\n'
FLOAT_RANGE = "error: result out of float range: |x| and |y| must be at most 1.798e+308\n"

_ROWS = (  # each argv as a shell splits it
    ("--color classify 7+2i", 0, CLASSIFY.format("7+2i", 53, RED_NO, RED_NO, RED_NO, GREEN_YES, GREEN_YES, RED_NO), ""),
    # the 7-base row below 2⁶⁴ decides: the norm 2⁶⁴ − 59 is the largest prime ≡ 1 (mod 4) below 2⁶⁴,
    # and ψ9 ≡ 3 (mod 4), a strong pseudoprime to the first nine primes, is no Gaussian prime
    ("classify 3995190446+1576450879i", 0,
     CLASSIFY.format("3995190446+1576450879i", 2**64 - 59, "no", "no", "no", "yes", "yes", "no"), ""),
    ("classify 3825123056546413051+0i", 0,
     CLASSIFY.format("3825123056546413051+0i", 3825123056546413051**2, "no", "no", "no", "no", "no", "yes"), ""),
    # hyperbolic verdicts from u = x+y, v = x-y: the Mersenne primes 2⁶¹-1 and 2⁸⁹-1 (a norm past ψ13) make a
    # reducible element; u = 1, v = 2⁶¹-1 a prime one; u = 2¹⁰¹, v = 2 the irreducible non-prime of γ = 100
    ("classify 309485010974266573331628031-309485008668423564117934080j", 0,
     "sha256:2c0bfbcbf6a58eafd360822a716efc8135a566292dedc5a81f41730b6de9f637", ""),
    ("classify 1152921504606846976-1152921504606846975j", 0,
     "sha256:bd6fd3e1fd924bd63ff6a6d2ccd58160a781987c3c1be9c9c69744d2634ccff2", ""),
    ("classify 1267650600228229401496703205377+1267650600228229401496703205375j", 0,
     "sha256:827b3fad19ef4da8336f4a47748c788ea570fa9e062a55cd29ebbcd7adc0076b", ""),
    ("classify wat", 2, "", "error: cannot parse element 'wat' (at position 0)\n"),
    ("classify 7", 2, "", "error: '7' is a bare integer; pass --ring i|j|k to pick its ring\n"),
    # norm 2·3²·1609·1613: one small-prime chunk; 1609 ≡ 1, 1613 ≡ 5 (mod 8) take both non-residue searches
    ("factor 5895+3459i", 0, "5895+3459i = (-1i) * (1+1i) * (3+0i) * (40+3i) * (13+38i)\n", ""),
    # content 5 takes sum_two_squares; the primes over 65537 and 70001 are read from the element
    ("factor 333045-61420i", 0, "333045-61420i = (-1+0i) * (1+2i) * (2+1i) * (256+1i) * (49+260i)\n", ""),
    # the prime over 5 is read from the element as 2-1i, a descent with t < 0, then made canonical
    ("factor 4-7i", 0, "4-7i = (-1+0i) * (1+2i) * (2+3i)\n", ""),
    ("factor 3+3j", 1, "", "error: hyperbolic zero divisors have no irreducible factorization\n"),
    ("divmod 5+3i 1+1i", 0,
     "quotient   4-1i\nremainder  0i\nchecked    eta_plus(remainder) = 0 < 2 = eta_plus(divisor)\n", ""),
    # a second "--" leaves an operand missing; argparse would hand it on as a list
    ("divmod 3-1j -- --", 2, "", None),
    # one element pattern: a θ term alone with its sign in front, blanks between the parts, a leading plus
    ("--json norm -- 5i", 0, NORM.format("i", 0, 5, "5i", 25, 25, 0), ""),
    ("--json norm -- -j", 0, NORM.format("j", 0, -1, "-1j", -1, 1, 0), ""),
    ("--json norm -- k", 0, NORM.format("k", 0, 1, "1k", 0, 0, 0), ""),
    ("--json norm -- ' 3 - 1 j '", 0, NORM.format("j", 3, -1, "3-1j", 8, 8, 6), ""),
    ("--json norm -- +2+1k", 0, NORM.format("k", 2, 1, "2+1k", 4, 4, 4), ""),
    ("--json norm -- '-5 i'", 0, NORM.format("i", 0, -5, "-5i", 25, 25, 0), ""),
    # blamed at the end of the longest prefix that begins a literal, found in one pass even after 100,000 blanks
    ("norm 3-1q", 2, "", "error: cannot parse element '3-1q' (at position 3)\n"),
    ("norm -- '3 5i'", 2, "", "error: cannot parse element '3 5i' (at position 2)\n"),
    (f"norm -- '{BLANKS}'", 2, "", f"error: cannot parse element {BLANKS!r} (at position 100000)\n"),
    # a dash token that begins a literal is an operand, refused where the literal stops
    *((f"norm {t}", 2, "", f"error: cannot parse element {t!r} (at position 2)\n") for t in ("-jx", "-k5", "-i2")),
    ("norm 3-1j --ring k", 2, "", "error: '3-1j' names ring j but --ring k was given\n"),
    ("table --ring j --bound 5000", 1, "", "error: bound too large (maximum 100)\n"),
    ("table --ring j --bound -3", 1, "", "error: bound must be >= 0\n"),
    # the census loop (canonical filter, then classify) over |x|,|y| <= 30; ring j is a benchmark row
    ("table --ring i --bound 30", 0, "sha256:3e20feb2a0aba212b2b1976c10cade0af7bd09958d5a466889b440cae3040d89", ""),
    ("table --ring k --bound 30", 0, "sha256:b85f5aa76903d56310c3c3d64a2432f9d66657148061d626fa764efb932c2565", ""),
    ("oracle prime 3+2i --box -5", 1, "", "error: box must be >= 0\n"),
    ("oracle prime 3+2i --box 0", 0, "verdict  no_counterexample_found\n", ""),
    *((f"oracle prime {z}", 1, "", "error: primality concerns non-zero non-units\n") for z in ("0+0i", "1+5k")),
    ("dts 0", 1, "", "error: n_max must be >= 1\n"),
    *((argv, 1, "", "error: coordinate too large (maximum 100000)\n")
      for argv in ("oracle divisors 100001k", "oracle irreducible 5-100001i", "--json oracle divisors -100001+2j")),
    # -inf is an operand, as inf is
    *((f"exp {x} 0 --ring j", 1, "", "error: coordinates must be finite\n") for x in ("inf", "-inf")),
    ("pow 1 1 2 --ring j", 1, "", "error: 1.0+1.0j is outside the sector eta > 0, x > 0\n"),
    # x > |y|, though x² - y² underflows to 0
    *((argv, 0, "(1e-200 + 0.0j)^1 = 1e-200 + 0.0j\n", "")
      for argv in ("pow 1e-200 0 1 --ring j", "pow --ring j 1e-200 0 1")),
    # finite results that cosh and sinh, or e^x, cannot reach; the exact sums 528 + 496j
    ("exp --ring j -- -800 800", 0, "exp(-800.0 + 800.0j) = 0.5 + 0.5j\n", ""),
    ("pow --ring j 0.5 0.49 400", 0, "(0.5 + 0.49j)^400 = 0.00897527663752257 + 0.00897527663752257j\n", ""),
    ("pow --ring j 3 1 5", 0, "(3.0 + 1.0j)^5 = 528.0 + 496.0j\n", ""),
    # past the float range: from float **, math.exp, a product of finite floats, and one once blamed on the input
    *((argv, 1, "", FLOAT_RANGE) for argv in ("pow 2 1 2000 --ring j", "exp 800 1 --ring j",
                                              "--json exp 700 700 --ring j", "exp 1 1e308 --ring k")),
    # one Hermite fold and one descent: the composite index 65 = 5·13, and n = 2, where t comes from isqrt
    ("ideal 65+0i 8+1i --contains 16+2i", 0,
     "sha256:e254a5d7cc3aca50a2d6763563d9bbc47ba1d4f89626cd1cc77cc68effa3f1ed", ""),
    ("ideal 2+0i 1+1i", 0, "sha256:e5abcf792d39bb71b4ba9a43c7b1aacb00cd06323e8cd21d31a3b3fab09ad2e7", ""),
    # membership by divisibility alone, through the Gaussian closed form and a parabolic ideal
    ("ideal 6+4i 10+2i --contains 4+2i", 0, IDEAL.format("2+0i", 0) + "contains 4+2i?  yes\n", ""),
    ("ideal 4+0k 6+2k --contains 2+0k", 0, IDEAL.format("2+0k", 2) + "contains 2+0k?  yes\n", ""),
    # a parabolic α does not depend on the order of the generators
    *((argv, 0, IDEAL.format("2+0k", 1), "") for argv in ("ideal -- -2-2k -2-1k", "ideal -- -2-1k -2-2k")),
    # a sum of generators adds nothing: the parabolic fold modulo (a², a), a = 6; Gaussian index 5 over content 1
    *((argv, 0, IDEAL.format("6+0k", 2), "") for argv in ("ideal 12+4k 18+2k", "ideal 12+4k 18+2k 30+6k")),
    *((argv, 0, IDEAL.format("2+1i", 0), "") for argv in ("ideal 5+0i 3+4i", "ideal 5+0i 3+4i 8+4i")),
    ("classify-poly 1 0 1e400", 1, "", "error: change of basis out of float range: shift = beta/2 and "
     "scale = sqrt(|D|)/2 need |beta| and |D| at most 1.798e+308\n"),
    # |D| = 4e-400 would be the float 0.0, and 4e-320 a subnormal float
    *((f"classify-poly {a} 0 -1", 1, "", "error: change of basis out of float range: scale = sqrt(|D|)/2 "
       "needs |D| = 0 or at least 2.225e-308\n") for a in ("1e400", "1e320")),
)

_BENCHMARK = json.loads((Path(__file__).parent.parent / "perfbench" / "cli_expected.json").read_text())
BENCHMARK_ROWS = tuple((argv.split(), 0, f"sha256:{digest}", "") for argv, digest in _BENCHMARK.items())
ROWS = BENCHMARK_ROWS + tuple((shlex.split(argv), *expected) for argv, *expected in _ROWS)


def check(row, run):
    """How run, an (exit code, stdout, stderr) triple, differs from row: one line per stream, none if it matches."""
    problems = []
    for name, want, got in zip(("exit code", "stdout", "stderr"), row[1:], run):
        got = "sha256:" + hashlib.sha256(got.encode()).hexdigest() if str(want).startswith("sha256:") else got
        if want is not None and got != want:
            problems.append(f"{name}: expected {want!r:.200}, got {got!r:.200}")
    return problems


def main(program):
    """Run every row as a child of program, an argv prefix; print each failing row and return 1 if any failed."""
    failed = 0
    for row in ROWS:
        try:
            proc = subprocess.run([*program, *row[0]], stdin=subprocess.DEVNULL, capture_output=True, timeout=TIMEOUT)
            problems = check(row, (proc.returncode, proc.stdout.decode(), proc.stderr.decode()))
        except subprocess.TimeoutExpired:
            problems = [f"no exit within {TIMEOUT} s"]
        if problems:
            failed += 1
            print(f"FAIL {shlex.join(row[0])[:200]}", *problems, sep="\n  ")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if sys.argv[1:] else f"usage: {sys.argv[0]} PROGRAM [ARG...]")
