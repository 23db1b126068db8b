"""Command-line front end.

Elements are written as ``3-1j``, ``-2+0k``, ``5i``, ``2+k`` or plain
integers (the latter need ``--ring i|j|k``).  Every subcommand has a
``--json`` rendering with schema-stable field names; integers are emitted
as decimal strings so arbitrary-precision values survive any consumer.

Exit codes: 0 success, 1 domain error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable, Iterable

# each handler imports the modules it needs, so a child process loads no more
# of the package than its command uses
from .core import Element, RingError, RingKind, format_element, norm_data

# bounds on the arguments that work grows with: as the square of table's
# bound, the fourth power of oracle prime's box, linearly in dts's n_max, and
# with the coordinates in the divisors and irreducible oracles (an axis
# element ky of the parabolic ring has σ(y) candidate divisors)
MAX_TABLE_BOUND = 100
MAX_DTS_N = 100_000
MAX_ORACLE_BOX = 16
MAX_ORACLE_COORD = 10**5

Output = tuple[dict, Callable[[dict, bool], str]]  # (payload, render(payload, color))


class ElementParseError(ValueError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


class AmbiguousRingError(ElementParseError):
    pass


_RE_REAL = re.compile(r"\s*([+-]?\d+)\s*")
_RE_FULL = re.compile(r"\s*([+-]?\d+)\s*([+-])\s*(\d*)\s*([ijk])\s*")
_RE_IMAG = re.compile(r"\s*([+-]?)\s*(\d*)\s*([ijk])\s*")


def parse_element(text: str, ring_hint: RingKind | None = None, hint_from: str | None = None) -> Element:
    """Parse the shared element grammar; pure integers need a ring hint.

    ``hint_from`` is the operand whose ring the hint is; None means --ring.
    """
    m = _RE_FULL.fullmatch(text)
    if m:
        x = _int(m.group(1))
        coef = _int(m.group(3)) if m.group(3) else 1
        y = coef if m.group(2) == "+" else -coef
        kind = RingKind.from_symbol(m.group(4))
        return _with_hint(Element(kind, x, y), ring_hint, hint_from, text)
    m = _RE_IMAG.fullmatch(text)
    if m:
        coef = _int(m.group(2)) if m.group(2) else 1
        y = -coef if m.group(1) == "-" else coef
        kind = RingKind.from_symbol(m.group(3))
        return _with_hint(Element(kind, 0, y), ring_hint, hint_from, text)
    m = _RE_REAL.fullmatch(text)
    if m:
        if ring_hint is None:
            raise AmbiguousRingError(
                f"{text!r} is a bare integer; pass --ring i|j|k to pick its ring"
            )
        return Element(ring_hint, _int(m.group(1)), 0)
    pos = next(
        (idx for idx, ch in enumerate(text) if ch not in "0123456789+-ijk \t"),
        len(text),
    )
    raise ElementParseError(f"cannot parse element {text!r} (at position {pos})", pos)


# main lifts the interpreter's int/str digit limit (Python 3.10.7 and later),
# so that a norm of about twice a literal's digits still prints; literals keep
# the limit main found on entry, which it holds here until it returns
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
_entry_limit: int | None = None


def _literal_limit() -> int:
    return _get_digit_limit() if _entry_limit is None else _entry_limit


def _int(digits: str) -> int:
    limit = _literal_limit()
    if limit and len(digits.lstrip("+-")) > limit:  # the regex admits only a sign and digits
        raise ElementParseError(f"a coordinate has more than {limit} digits")
    return int(digits)


def _with_hint(z: Element, hint: RingKind | None, hint_from: str | None, text: str) -> Element:
    if hint is not None and hint is not z.kind:
        if hint_from is None:
            given = f"--ring {hint.symbol} was given"
        else:
            given = f"{hint_from!r} names ring {hint.symbol}"
        raise ElementParseError(f"{text!r} names ring {z.kind.symbol} but {given}")
    return z


# -- rendering ----------------------------------------------------------------

# the Classification flags and their text labels, in output order
_VERDICTS = (
    ("is_zero", "zero"),
    ("is_unit", "unit"),
    ("is_zero_divisor", "zero divisor"),
    ("is_prime", "prime"),
    ("is_irreducible", "irreducible"),
    ("is_reducible", "reducible"),
)


def _elt_json(z: Element) -> dict:
    return {"ring": z.kind.symbol, "x": str(z.x), "y": str(z.y), "text": format_element(z)}


def _flag(value: bool, color: bool) -> str:
    text, code = ("yes", "32") if value else ("no", "31")
    return f"\x1b[{code}m{text}\x1b[0m" if color else text


def _lines(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


def _csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """CSV text with booleans as ``true``/``false`` and csv's CRLF row endings."""
    import csv
    import io

    out = io.StringIO()
    csv.writer(out).writerows(
        [str(v).lower() if isinstance(v, bool) else v for v in row] for row in (header, *rows)
    )
    return out.getvalue()


def _ring_arg(args: argparse.Namespace) -> RingKind | None:
    return RingKind.from_symbol(args.ring) if args.ring else None


def _check_bound(value: int, least: int, maximum: int, name: str, what: str = "bound") -> None:
    """Refuse an argument outside [least, maximum] before any work is done."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    if value > maximum:
        raise ValueError(f"{what} too large (maximum {maximum})")


# -- subcommand handlers --------------------------------------------------------
# Each computes its results once and returns the --json payload (integers as
# decimal strings, elements as Element) and the renderer of its text output.


def _cmd_classify(args: argparse.Namespace) -> Output:
    from .classification import classify

    z = parse_element(args.element, _ring_arg(args))
    c = classify(z)
    canonical, unit = z.canonical_associate()
    payload = {
        "element": z,
        **{field: getattr(c, field) for field, _ in _VERDICTS},
        "eta": str(z.eta),
        "eta_plus": str(z.eta_plus),
        "canonical": canonical,
        "unit": unit,
    }
    return payload, _render_classify


def _render_classify(p: dict, color: bool) -> str:
    rows = [
        ("element", p["element"]),
        ("eta", f"{p['eta']}   (eta_plus {p['eta_plus']})"),
        *((label, _flag(p[field], color)) for field, label in _VERDICTS),
        ("canonical", f"{p['canonical']}  (unit {p['unit']})"),
    ]
    return _lines(*(f"{label:<15}{value}" for label, value in rows))


def _cmd_factor(args: argparse.Namespace) -> Output:
    from .factorization import factor

    z = parse_element(args.element, _ring_arg(args))
    f = factor(z)
    payload = {
        "element": z,
        "unit": f.unit,
        "factors": f.factors,
        "axis_extension": f.axis_extension,
    }
    return payload, _render_factor


def _render_factor(p: dict, color: bool) -> str:
    parts = " * ".join(f"({q})" for q in p["factors"])
    note = ["note: axis element, factored through ky = y*k"] if p["axis_extension"] else []
    return _lines(f"{p['element']} = ({p['unit']}) * {parts}", *note)


def _cmd_divmod(args: argparse.Namespace) -> Output:
    from .euclid import div_rem

    a = parse_element(args.a, _ring_arg(args))
    b = parse_element(args.b, a.kind, None if args.ring else args.a)
    res = div_rem(a, b)
    remainder_norm, divisor_norm = res.remainder.eta_plus, b.eta_plus
    payload = {
        "a": a,
        "b": b,
        "quotient": res.quotient,
        "remainder": res.remainder,
        "remainder_norm": str(remainder_norm),
        "divisor_norm": str(divisor_norm),
        "remainder_smaller": remainder_norm < divisor_norm,
    }
    return payload, _render_divmod


def _render_divmod(p: dict, color: bool) -> str:
    return _lines(
        f"quotient   {p['quotient']}",
        f"remainder  {p['remainder']}",
        f"checked    eta_plus(remainder) = {p['remainder_norm']} < {p['divisor_norm']} = eta_plus(divisor)",
    )


def _cmd_norm(args: argparse.Namespace) -> Output:
    z = parse_element(args.element, _ring_arg(args))
    eta, eta_plus, tau = norm_data(z)
    payload = {"element": z, "eta": str(eta), "eta_plus": str(eta_plus), "trace": str(tau)}
    return payload, lambda p, color: _lines(*(f"{k} {p[k]}" for k in ("eta", "eta_plus", "trace")))


_DTS_COLUMNS = ("n", "two_adic", "representable", "r", "s")


def _cmd_dts(args: argparse.Namespace) -> Output:
    from .integers import diff_two_squares, two_adic_valuation

    _check_bound(args.n_max, 1, MAX_DTS_N, "n_max")
    rows = []
    for n in range(1, args.n_max + 1):
        rs = diff_two_squares(n)
        r, s = map(str, rs) if rs else (None, None)
        values = (str(n), str(two_adic_valuation(n)), rs is not None, r, s)
        rows.append(dict(zip(_DTS_COLUMNS, values)))
    return {"rows": rows}, lambda p, color: _csv(_DTS_COLUMNS, (row.values() for row in p["rows"]))


def _cmd_ideal(args: argparse.Namespace) -> Output:
    from .euclid import FGIdeal, decompose, ideal_contains

    first = parse_element(args.generators[0], _ring_arg(args))
    hint_from = None if args.ring else args.generators[0]
    gens = [first, *(parse_element(text, first.kind, hint_from) for text in args.generators[1:])]
    dec = decompose(FGIdeal(first.kind, tuple(gens)))
    payload = {
        "ring": dec.kind.symbol,
        "generators": gens,
        "alpha": dec.alpha,
        "dplus_gen": str(dec.dplus_gen),
        "dminus_gen": str(dec.dminus_gen),
        "d0_gen": str(dec.d0_gen),
    }
    if args.contains is not None:
        z = parse_element(args.contains, first.kind, hint_from)
        payload["contains"] = {"element": z, "member": ideal_contains(dec, z)}
    return payload, _render_ideal


def _render_ideal(p: dict, color: bool) -> str:
    alpha, query = p["alpha"], p.get("contains")
    lines = [
        "alpha       " + (str(alpha) if alpha is not None else "(none: ideal lies in the zero divisors)"),
        f"diag + gen  {p['dplus_gen']}",
        f"diag - gen  {p['dminus_gen']}",
        f"axis gen    {p['d0_gen']}",
    ]
    if query:
        lines.append(f"contains {query['element']}?  {_flag(query['member'], color)}")
    return _lines(*lines)


def _cmd_oracle(args: argparse.Namespace) -> Output:
    from .oracle import divisors, oracle_irreducible, oracle_prime

    z = parse_element(args.element, _ring_arg(args))
    if args.mode != "prime":
        _check_bound(max(abs(z.x), abs(z.y)), 0, MAX_ORACLE_COORD, "coordinate", "coordinate")
    if args.mode == "irreducible":
        payload = {"element": z, "irreducible": oracle_irreducible(z)}
        return payload, lambda p, color: _lines(f"irreducible  {_flag(p['irreducible'], color)}")
    if args.mode == "prime":
        _check_bound(args.box, 0, MAX_ORACLE_BOX, "box")
        res = oracle_prime(z, args.box)
        payload = {"element": z, "verdict": res.verdict.value, "witness": res.witness or None}
        return payload, _render_oracle_prime
    payload = {"element": z, "divisors": divisors(z)}
    return payload, lambda p, color: _lines(", ".join(map(str, p["divisors"])))


def _render_oracle_prime(p: dict, color: bool) -> str:
    witness = [f"witness  {p['witness'][0]}, {p['witness'][1]}"] if p["witness"] else []
    return _lines(f"verdict  {p['verdict']}", *witness)


_RE_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")  # the exponent syntax Fraction reads


def _coefficient(text: str):
    """A rational coefficient, held to the literal limit with its exponent written out.

    ``Fraction('1e99999')`` builds a 100,000-digit integer, so the digits and
    the exponent are counted on the text, before ``Fraction`` reads it, and
    the exponent's length is checked before ``int`` reads the exponent.
    """
    from fractions import Fraction

    limit = _literal_limit()
    if limit:
        m = _RE_EXPONENT.search(text)
        mantissa, exponent = (text[: m.start()], m[1]) if m else (text, "0")
        digits = sum(map(str.isdecimal, mantissa))
        if digits + len(exponent) > limit or digits + abs(int(exponent)) > limit:
            raise ElementParseError(f"a coefficient has more than {limit} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # Fraction('a'), Fraction('1/0')
        raise ElementParseError(f"cannot parse coefficient {text!r}") from None


def _cmd_classify_poly(args: argparse.Namespace) -> Output:
    from .quadratic import QuadraticPoly, canonicalize, classify_quadratic

    poly = QuadraticPoly(*map(_coefficient, (args.a, args.b, args.c)))
    kind = classify_quadratic(poly)
    _, shift, scale = canonicalize(poly.params())
    payload = {key: str(getattr(poly, key)) for key in ("a", "b", "c", "disc")}
    payload.update(kind=kind.symbol, shift=shift, scale=scale)
    return payload, _render_classify_poly


def _render_classify_poly(p: dict, color: bool) -> str:
    kind = RingKind.from_symbol(p["kind"])
    return _lines(
        f"discriminant  {p['disc']}",
        f"kind          {kind.name.lower()} (theta^2 = {kind.mu})",
        f"change of basis: shift {p['shift']}, scale {p['scale']}",
    )


def _cmd_exp_pow(args: argparse.Namespace) -> Output:
    from .analytic import RealElement, exp_theta, pow_moivre

    kind = RingKind.from_symbol(args.ring)
    z = RealElement(kind, args.x, args.y)
    base = f"{args.x} + {args.y}{kind.symbol}"
    if args.command == "exp":
        w, lhs = exp_theta(z), f"exp({base})"
    else:
        w, lhs = pow_moivre(z, args.n), f"({base})^{args.n}"
    payload = {"ring": kind.symbol, "x": w.x, "y": w.y}
    return payload, lambda p, color: _lines(f"{lhs} = {p['x']} + {p['y']}{p['ring']}")


def _cmd_table(args: argparse.Namespace) -> Output:
    from .classification import classify

    _check_bound(args.bound, 0, MAX_TABLE_BOUND, "bound")
    kind = RingKind.from_symbol(args.ring)
    b = args.bound
    rows = []
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            z = Element(kind, x, y)
            if z.canonical_associate()[0] != z:
                continue
            c = classify(z)
            row = {"element": z, "eta": str(z.eta), "eta_plus": str(z.eta_plus)}
            # the table's schema has no is_zero column
            rows.append(row | {field: getattr(c, field) for field, _ in _VERDICTS[1:]})
    counts = {
        "classes": len(rows),
        "units": sum(r["is_unit"] for r in rows),
        "zero_divisors": sum(r["is_zero_divisor"] for r in rows),
        "primes": sum(r["is_prime"] for r in rows),
        "irreducible_non_primes": sum(r["is_irreducible"] and not r["is_prime"] for r in rows),
    }
    summary = {k: str(v) for k, v in counts.items()}
    return {"ring": kind.symbol, "bound": str(b), "summary": summary, "rows": rows}, _render_table


def _render_table(p: dict, color: bool) -> str:
    counts = {k: int(v) for k, v in p["summary"].items()}
    verdicts = [label.replace(" ", "_") for _, label in _VERDICTS[1:]]
    rows = ([z, z.x, z.y, *rest] for z, *rest in (row.values() for row in p["rows"]))
    return _lines(
        f"# canonical associate classes of ring {p['ring']} with |x|,|y| <= {p['bound']}",
        f"# counts are per class: {counts}",
    ) + _csv(["element", "x", "y", "eta", "eta_plus", *verdicts], rows)


# -- parser ---------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Accept leading-minus literals (-2+0k, -3/4, -15, -j) as positionals."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a minus, then a digit or a lone unit letter: -h and --json stay options
        self._negative_number_matcher = re.compile(r"^-(\d|[ijk]$)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="planeint",
        description="exact arithmetic in the three integer rings of the plane",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON (ints as decimal strings)")
    parser.add_argument("--color", action="store_true", help="colorize yes/no flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, help: str, *positionals: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    def ring_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ring", choices=["i", "j", "k"], help="ring for bare-integer elements")

    for name, func, help, *positionals in (
        ("classify", _cmd_classify, "unit / zero-divisor / prime / irreducible verdicts", "element"),
        ("factor", _cmd_factor, "factor into irreducibles", "element"),
        ("divmod", _cmd_divmod, "division with remainder", "a", "b"),
        ("norm", _cmd_norm, "norm, absolute norm and trace", "element"),
    ):
        ring_opt(command(name, func, help, *positionals))

    p = command("dts", _cmd_dts, "difference-of-two-squares table for 1..n")
    p.add_argument("n_max", type=int)

    p = command("ideal", _cmd_ideal, "decompose a finitely generated ideal")
    p.add_argument("generators", nargs="+")
    p.add_argument("--contains", help="also test membership of this element")
    ring_opt(p)

    p = command("oracle", _cmd_oracle, "brute-force irreducibility / primality / divisors")
    p.add_argument("mode", choices=["irreducible", "prime", "divisors"])
    p.add_argument("element")
    p.add_argument("--box", type=int, default=10, help="coordinate bound for the primality scan")
    ring_opt(p)

    poly_help = "canonical structure of R[x]/(ax^2+bx+c)"
    command("classify-poly", _cmd_classify_poly, poly_help, "a", "b", "c")

    p = command("exp", _cmd_exp_pow, "ring exponential at float coordinates")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("--ring", choices=["i", "j", "k"], required=True)

    p = command("pow", _cmd_exp_pow, "integer power via the hyperbolic polar form")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("n", type=int)
    p.add_argument("--ring", choices=["i", "j", "k"], required=True)

    p = command("table", _cmd_table, "classification table over canonical classes")
    p.add_argument("--ring", choices=["i", "j", "k"], required=True)
    p.add_argument("--bound", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    global _entry_limit
    args = build_parser().parse_args(argv)
    _entry_limit = limit = _get_digit_limit()
    _set_digit_limit(0)
    try:
        payload, render = args.func(args)
        if args.json:
            import json

            out = json.dumps(payload, default=_elt_json) + "\n"
        else:
            out = render(payload, args.color)
        sys.stdout.write(out)
    except (ElementParseError, RingError, ValueError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ElementParseError) else 1
    finally:
        _set_digit_limit(limit)
        _entry_limit = None
    return 0


if __name__ == "__main__":
    sys.exit(main())
