"""Command-line front end.

Elements are written as ``3-1j``, ``-2+0k``, ``5i``, ``2+k`` or plain
integers (the latter need ``--ring i|j|k``).  Every subcommand has a
``--json`` rendering with schema-stable field names; integers are emitted
as decimal strings so arbitrary-precision values survive any consumer.

Exit codes: 0 success, 1 domain error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from . import analytic, euclid, oracle, quadratic
from .classify import classify as classify_element
from .core import Element, RingError, RingKind, format_element, norm_data
from .factor import factor as factor_element
from .integers import diff_two_squares, two_adic_valuation

MAX_TABLE_BOUND = 100


class ElementParseError(ValueError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


class AmbiguousRingError(ElementParseError):
    pass


_RE_REAL = re.compile(r"\s*([+-]?\d+)\s*")
_RE_FULL = re.compile(r"\s*([+-]?\d+)\s*([+-])\s*(\d*)\s*([ijk])\s*")
_RE_IMAG = re.compile(r"\s*([+-]?)\s*(\d*)\s*([ijk])\s*")


def parse_element(text: str, ring_hint: RingKind | None = None) -> Element:
    """Parse the shared element grammar; pure integers need a ring hint."""
    m = _RE_FULL.fullmatch(text)
    if m:
        x = int(m.group(1))
        coef = int(m.group(3)) if m.group(3) else 1
        y = coef if m.group(2) == "+" else -coef
        kind = RingKind.from_symbol(m.group(4))
        return _with_hint(Element(kind, x, y), ring_hint, text)
    m = _RE_IMAG.fullmatch(text)
    if m:
        coef = int(m.group(2)) if m.group(2) else 1
        y = -coef if m.group(1) == "-" else coef
        kind = RingKind.from_symbol(m.group(3))
        return _with_hint(Element(kind, 0, y), ring_hint, text)
    m = _RE_REAL.fullmatch(text)
    if m:
        if ring_hint is None:
            raise AmbiguousRingError(
                f"{text!r} is a bare integer; pass --ring i|j|k to pick its ring"
            )
        return Element(ring_hint, int(m.group(1)), 0)
    pos = next(
        (idx for idx, ch in enumerate(text) if ch not in "0123456789+-ijk \t"),
        len(text),
    )
    raise ElementParseError(f"cannot parse element {text!r} (at position {pos})", pos)


def _with_hint(z: Element, hint: RingKind | None, text: str) -> Element:
    if hint is not None and hint is not z.kind:
        raise ElementParseError(
            f"{text!r} names ring {z.kind.symbol} but --ring {hint.symbol} was given"
        )
    return z


# -- rendering ----------------------------------------------------------------


def _elt_json(z: Element) -> dict:
    return {"ring": z.kind.symbol, "x": str(z.x), "y": str(z.y), "text": format_element(z)}


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _flag(args: argparse.Namespace, value: bool) -> str:
    text = "yes" if value else "no"
    if getattr(args, "color", False):
        code = "32" if value else "31"
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _ring_arg(args: argparse.Namespace) -> RingKind | None:
    return RingKind.from_symbol(args.ring) if args.ring else None


# -- subcommand handlers --------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> None:
    z = parse_element(args.element, _ring_arg(args))
    c = classify_element(z)
    canonical, unit = z.canonical_associate()
    payload = {
        "element": _elt_json(z),
        "is_zero": c.is_zero,
        "is_unit": c.is_unit,
        "is_zero_divisor": c.is_zero_divisor,
        "is_prime": c.is_prime,
        "is_irreducible": c.is_irreducible,
        "is_reducible": c.is_reducible,
        "eta": str(z.eta),
        "eta_plus": str(z.eta_plus),
        "canonical": _elt_json(canonical),
        "unit": _elt_json(unit),
    }
    lines = [
        f"element        {format_element(z)}",
        f"eta            {z.eta}   (eta_plus {z.eta_plus})",
        f"zero           {_flag(args, c.is_zero)}",
        f"unit           {_flag(args, c.is_unit)}",
        f"zero divisor   {_flag(args, c.is_zero_divisor)}",
        f"prime          {_flag(args, c.is_prime)}",
        f"irreducible    {_flag(args, c.is_irreducible)}",
        f"reducible      {_flag(args, c.is_reducible)}",
        f"canonical      {format_element(canonical)}  (unit {format_element(unit)})",
    ]
    _emit(args, payload, lines)


def _cmd_factor(args: argparse.Namespace) -> None:
    z = parse_element(args.element, _ring_arg(args))
    f = factor_element(z)
    payload = {
        "element": _elt_json(z),
        "unit": _elt_json(f.unit),
        "factors": [_elt_json(q) for q in f.factors],
        "axis_extension": f.axis_extension,
    }
    parts = " * ".join(f"({format_element(q)})" for q in f.factors)
    lines = [f"{format_element(z)} = ({format_element(f.unit)}) * {parts}"]
    if f.axis_extension:
        lines.append("note: axis element, factored through ky = y*k")
    _emit(args, payload, lines)


def _cmd_divmod(args: argparse.Namespace) -> None:
    hint = _ring_arg(args)
    a = parse_element(args.a, hint)
    b = parse_element(args.b, a.kind if hint is None else hint)
    res = euclid.div_rem(a, b)
    ok = res.remainder.eta_plus < b.eta_plus
    payload = {
        "a": _elt_json(a),
        "b": _elt_json(b),
        "quotient": _elt_json(res.quotient),
        "remainder": _elt_json(res.remainder),
        "remainder_norm": str(res.remainder.eta_plus),
        "divisor_norm": str(b.eta_plus),
        "remainder_smaller": ok,
    }
    lines = [
        f"quotient   {format_element(res.quotient)}",
        f"remainder  {format_element(res.remainder)}",
        f"checked    eta_plus(remainder) = {res.remainder.eta_plus} < {b.eta_plus} = eta_plus(divisor)",
    ]
    _emit(args, payload, lines)


def _cmd_norm(args: argparse.Namespace) -> None:
    z = parse_element(args.element, _ring_arg(args))
    eta, eta_plus, tau = norm_data(z)
    payload = {
        "element": _elt_json(z),
        "eta": str(eta),
        "eta_plus": str(eta_plus),
        "trace": str(tau),
    }
    _emit(args, payload, [f"eta {eta}", f"eta_plus {eta_plus}", f"trace {tau}"])


def _cmd_dts(args: argparse.Namespace) -> None:
    if args.n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, args.n_max + 1):
        rs = diff_two_squares(n)
        rows.append(
            {
                "n": str(n),
                "two_adic": str(two_adic_valuation(n)),
                "representable": rs is not None,
                "r": str(rs[0]) if rs else None,
                "s": str(rs[1]) if rs else None,
            }
        )
    if args.json:
        print(json.dumps({"rows": rows}))
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "two_adic", "representable", "r", "s"])
    for row in rows:
        writer.writerow(
            [row["n"], row["two_adic"], str(row["representable"]).lower(), row["r"] or "", row["s"] or ""]
        )


def _cmd_ideal(args: argparse.Namespace) -> None:
    hint = _ring_arg(args)
    gens = []
    for text in args.generators:
        gens.append(parse_element(text, hint if not gens else gens[0].kind))
    ideal = euclid.FGIdeal(gens[0].kind, tuple(gens))
    dec = euclid.decompose(ideal)
    payload = {
        "ring": dec.kind.symbol,
        "generators": [_elt_json(g) for g in gens],
        "alpha": _elt_json(dec.alpha) if dec.alpha is not None else None,
        "dplus_gen": str(dec.dplus_gen),
        "dminus_gen": str(dec.dminus_gen),
        "d0_gen": str(dec.d0_gen),
    }
    lines = [
        "alpha       " + (format_element(dec.alpha) if dec.alpha is not None else "(none: ideal lies in the zero divisors)"),
        f"diag + gen  {dec.dplus_gen}",
        f"diag - gen  {dec.dminus_gen}",
        f"axis gen    {dec.d0_gen}",
    ]
    if args.contains is not None:
        z = parse_element(args.contains, gens[0].kind)
        member = euclid.ideal_contains(dec, z)
        payload["contains"] = {"element": _elt_json(z), "member": member}
        lines.append(f"contains {format_element(z)}?  {_flag(args, member)}")
    _emit(args, payload, lines)


def _cmd_oracle(args: argparse.Namespace) -> None:
    z = parse_element(args.element, _ring_arg(args))
    if args.mode == "irreducible":
        verdict = oracle.oracle_irreducible(z)
        _emit(
            args,
            {"element": _elt_json(z), "irreducible": verdict},
            [f"irreducible  {_flag(args, verdict)}"],
        )
    elif args.mode == "prime":
        res = oracle.oracle_prime(z, args.box)
        payload = {
            "element": _elt_json(z),
            "verdict": res.verdict.value,
            "witness": [_elt_json(w) for w in res.witness] if res.witness else None,
        }
        lines = [f"verdict  {res.verdict.value}"]
        if res.witness:
            a, b = res.witness
            lines.append(f"witness  {format_element(a)}, {format_element(b)}")
        _emit(args, payload, lines)
    else:
        divs = oracle.divisors(z)
        payload = {"element": _elt_json(z), "divisors": [_elt_json(d) for d in divs]}
        _emit(args, payload, [", ".join(format_element(d) for d in divs)])


def _cmd_classify_poly(args: argparse.Namespace) -> None:
    poly = quadratic.QuadraticPoly(Fraction(args.a), Fraction(args.b), Fraction(args.c))
    kind = quadratic.classify_quadratic(poly)
    params = poly.params()
    _, shift, scale = quadratic.canonicalize(params)
    payload = {
        "a": str(poly.a),
        "b": str(poly.b),
        "c": str(poly.c),
        "disc": str(poly.disc),
        "kind": kind.symbol,
        "shift": shift,
        "scale": scale,
    }
    lines = [
        f"discriminant  {poly.disc}",
        f"kind          {kind.name.lower()} (theta^2 = {kind.mu})",
        f"change of basis: shift {shift}, scale {scale}",
    ]
    _emit(args, payload, lines)


def _cmd_exp(args: argparse.Namespace) -> None:
    kind = RingKind.from_symbol(args.ring)
    z = analytic.RealElement(kind, args.x, args.y)
    w = analytic.exp_theta(z)
    _emit(
        args,
        {"ring": kind.symbol, "x": w.x, "y": w.y},
        [f"exp({args.x} + {args.y}{kind.symbol}) = {w.x} + {w.y}{kind.symbol}"],
    )


def _cmd_pow(args: argparse.Namespace) -> None:
    kind = RingKind.from_symbol(args.ring)
    z = analytic.RealElement(kind, args.x, args.y)
    w = analytic.pow_moivre(z, args.n)
    _emit(
        args,
        {"ring": kind.symbol, "x": w.x, "y": w.y},
        [f"({args.x} + {args.y}{kind.symbol})^{args.n} = {w.x} + {w.y}{kind.symbol}"],
    )


def _cmd_table(args: argparse.Namespace) -> None:
    if args.bound > MAX_TABLE_BOUND:
        raise ValueError(f"bound too large (maximum {MAX_TABLE_BOUND})")
    kind = RingKind.from_symbol(args.ring)
    rows = []
    counts = {"classes": 0, "units": 0, "zero_divisors": 0, "primes": 0, "irreducible_non_primes": 0}
    b = args.bound
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            z = Element(kind, x, y)
            if z.canonical_associate()[0] != z:
                continue
            c = classify_element(z)
            counts["classes"] += 1
            counts["units"] += c.is_unit
            counts["zero_divisors"] += c.is_zero_divisor
            counts["primes"] += c.is_prime
            counts["irreducible_non_primes"] += c.is_irreducible and not c.is_prime
            rows.append((z, c))
    if args.json:
        print(
            json.dumps(
                {
                    "ring": kind.symbol,
                    "bound": str(b),
                    "summary": {k: str(v) for k, v in counts.items()},
                    "rows": [
                        {
                            "element": _elt_json(z),
                            "eta": str(z.eta),
                            "eta_plus": str(z.eta_plus),
                            "is_unit": c.is_unit,
                            "is_zero_divisor": c.is_zero_divisor,
                            "is_prime": c.is_prime,
                            "is_irreducible": c.is_irreducible,
                            "is_reducible": c.is_reducible,
                        }
                        for z, c in rows
                    ],
                }
            )
        )
        return
    print(f"# canonical associate classes of ring {kind.symbol} with |x|,|y| <= {b}")
    print(f"# counts are per class: {counts}")
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["element", "x", "y", "eta", "eta_plus", "unit", "zero_divisor", "prime", "irreducible", "reducible"]
    )
    for z, c in rows:
        writer.writerow(
            [
                format_element(z),
                z.x,
                z.y,
                z.eta,
                z.eta_plus,
                str(c.is_unit).lower(),
                str(c.is_zero_divisor).lower(),
                str(c.is_prime).lower(),
                str(c.is_irreducible).lower(),
                str(c.is_reducible).lower(),
            ]
        )


# -- parser ---------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Accept leading-minus literals (-2+0k, -3/4, -15) as positionals."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="planeint",
        description="exact arithmetic in the three integer rings of the plane",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON (ints as decimal strings)")
    parser.add_argument("--color", action="store_true", help="colorize yes/no flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ring", choices=["i", "j", "k"], help="ring for bare-integer elements")

    p = sub.add_parser("classify", help="unit / zero-divisor / prime / irreducible verdicts")
    p.add_argument("element")
    ring_opt(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("factor", help="factor into irreducibles")
    p.add_argument("element")
    ring_opt(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("divmod", help="division with remainder")
    p.add_argument("a")
    p.add_argument("b")
    ring_opt(p)
    p.set_defaults(func=_cmd_divmod)

    p = sub.add_parser("norm", help="norm, absolute norm and trace")
    p.add_argument("element")
    ring_opt(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("dts", help="difference-of-two-squares table for 1..n")
    p.add_argument("n_max", type=int)
    p.set_defaults(func=_cmd_dts)

    p = sub.add_parser("ideal", help="decompose a finitely generated ideal")
    p.add_argument("generators", nargs="+")
    p.add_argument("--contains", help="also test membership of this element")
    ring_opt(p)
    p.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("oracle", help="brute-force irreducibility / primality / divisors")
    p.add_argument("mode", choices=["irreducible", "prime", "divisors"])
    p.add_argument("element")
    p.add_argument("--box", type=int, default=10, help="coordinate bound for the primality scan")
    ring_opt(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("classify-poly", help="canonical structure of R[x]/(ax^2+bx+c)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.set_defaults(func=_cmd_classify_poly)

    p = sub.add_parser("exp", help="ring exponential at float coordinates")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("--ring", choices=["i", "j", "k"], required=True)
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("pow", help="integer power via the hyperbolic polar form")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("n", type=int)
    p.add_argument("--ring", choices=["i", "j", "k"], required=True)
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("table", help="classification table over canonical classes")
    p.add_argument("--ring", choices=["i", "j", "k"], required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ElementParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RingError, ValueError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
