"""Command-line front end.

Elements are written as ``3-1j``, ``-2+0k``, ``5i``, ``2+k`` or plain
integers (the latter need ``--ring i|j|k``).  Every subcommand has a
``--json`` rendering with schema-stable field names; integers are emitted
as decimal strings so arbitrary-precision values survive any consumer.

Exit codes: 0 success, 1 domain error, 2 usage or parse error.

This module is the front every command shares: the element grammar, the
bounds, the rendering helpers, the parser and :func:`main`.  Each subcommand
lives in its own module beside it (``exp`` and ``pow`` share one), whose
``run(args)`` returns the ``--json`` payload (integers as decimal strings,
elements as Element) and the renderer of its text output.  :func:`main`
imports that module only after parsing, so a child process compiles and
loads no more of the package than its command uses.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable, Iterable

from ..core import Element, RingError, RingKind, format_element

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


# x + θy in one of two forms: an integer x with an optional signed θ term
# (3-1j, 2+k, a bare 7), or a θ term alone with its sign in front (5i, -j, k).
# Blanks may stand around each part (' 3 - 1 j ' parses) but not inside x,
# whose sign keeps to its digits; a θ term after x needs its sign (3 5i is refused).
# Each blank run follows the token it belongs to, so no two runs touch and a
# failed match backtracks in linear time.  This pattern is the front's only
# statement of the syntax: it also blames a refused literal and tells argparse
# which dash tokens are operands
_RE_ELEMENT = re.compile(
    r"\s*(?:([+-]?\d+)(?:\s*([+-])\s*(?:(\d+)\s*)?([ijk]))?"  # x, sign, coefficient, θ
    r"|(?:([+-])\s*)?(?:(\d+)\s*)?([ijk]))\s*"  # sign, coefficient, θ
)


def parse_element(text: str, ring_hint: RingKind | None = None, hint_from: str | None = None) -> Element:
    """Parse the shared element grammar; pure integers need a ring hint.

    ``hint_from`` is the operand whose ring the hint is; None means --ring.
    """
    m = _RE_ELEMENT.fullmatch(text)
    if m is None:
        from bisect import bisect

        # blame the end of the longest prefix that begins a literal, which is one that is a
        # literal as it stands or with an i appended; such prefixes are closed under taking
        # prefixes, so a bisection over their lengths finds it
        pos = bisect(range(1, len(text) + 1), False, key=lambda n: not (
            _RE_ELEMENT.fullmatch(text[:n] + "i") or _RE_ELEMENT.fullmatch(text[:n])))
        raise ElementParseError(f"cannot parse element {text!r} (at position {pos})", pos)
    x, sign, coef, symbol = m.group(1, 2, 3, 4) if m[1] else ("0", *m.group(5, 6, 7))
    if symbol is None and ring_hint is None:
        raise AmbiguousRingError(
            f"{text!r} is a bare integer; pass --ring i|j|k to pick its ring"
        )
    kind = RingKind.from_symbol(symbol) if symbol else ring_hint
    x = _int(x)
    y = _int(coef or "1") if symbol else 0
    if ring_hint is not None and ring_hint is not kind:
        if hint_from is None:
            given = f"--ring {ring_hint.symbol} was given"
        else:
            given = f"{hint_from!r} names ring {ring_hint.symbol}"
        raise ElementParseError(f"{text!r} names ring {kind.symbol} but {given}")
    return Element(kind, x, -y if sign == "-" else y)


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


# -- parser ---------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Read a dash token that starts with an element literal (-2+0k, -15, -j, so also -3/4 and -jx) as an operand.

    argparse asks ``_negative_number_matcher.match`` only of a token that
    names no option, so -h, --json, --color and --ring stay options.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _RE_ELEMENT


def _arg(*flags: str, **options: object) -> tuple[tuple[str, ...], dict]:
    return flags, options


_ELEMENT = _arg("element")
_RING = _arg("--ring", choices=["i", "j", "k"], help="ring for bare-integer elements")
_RING_REQUIRED = _arg("--ring", choices=["i", "j", "k"], required=True)
_XY = _arg("x", type=float), _arg("y", type=float)

# name -> (help, the module in this package that runs it, its arguments in order)
_COMMANDS = {
    "classify": ("unit / zero-divisor / prime / irreducible verdicts", "classify", (_ELEMENT, _RING)),
    "factor": ("factor into irreducibles", "factor", (_ELEMENT, _RING)),
    "divmod": ("division with remainder", "divmod", (_arg("a"), _arg("b"), _RING)),
    "norm": ("norm, absolute norm and trace", "norm", (_ELEMENT, _RING)),
    "dts": ("difference-of-two-squares table for 1..n", "dts", (_arg("n_max", type=int),)),
    "ideal": ("decompose a finitely generated ideal", "ideal", (
        _arg("generators", nargs="+"),
        _arg("--contains", help="also test membership of this element"),
        _RING,
    )),
    "oracle": ("brute-force irreducibility / primality / divisors", "oracle", (
        _arg("mode", choices=["irreducible", "prime", "divisors"]),
        _ELEMENT,
        _arg("--box", type=int, default=10, help="coordinate bound for the primality scan"),
        _RING,
    )),
    "classify-poly": ("canonical structure of R[x]/(ax^2+bx+c)", "classify_poly", (_arg("a"), _arg("b"), _arg("c"))),
    "exp": ("ring exponential at float coordinates", "exp_pow", (*_XY, _RING_REQUIRED)),
    "pow": ("integer power via the hyperbolic polar form", "exp_pow", (*_XY, _arg("n", type=int), _RING_REQUIRED)),
    "table": ("classification table over canonical classes", "table", (
        _RING_REQUIRED,
        _arg("--bound", type=int, required=True),
    )),
}


def _named_command(argv: Iterable[str]) -> str | None:
    """The command argv runs, when its first token that is not ``--json`` or ``--color`` names one."""
    for token in argv:
        if token not in ("--json", "--color"):
            return token if token in _COMMANDS else None
    return None


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given an argv that names its command, of that command alone.

    The command's own subparser parses an argv exactly as the full parser
    does.  The top-level usage line lists every command either way; any
    other argv (help, no command, an unknown one, ``--``, an option before
    the command) gets the full parser, whose error messages name the
    ``command`` argument.
    """
    parser = _ArgumentParser(
        prog="planeint",
        description="exact arithmetic in the three integer rings of the plane",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON (ints as decimal strings)")
    parser.add_argument("--color", action="store_true", help="colorize yes/no flags")
    only = _named_command(argv or ())
    if only:
        # the metavar argparse would build from all the choices
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, module, arguments) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help)
            for flags, options in arguments:
                p.add_argument(*flags, **options)
            p.set_defaults(module=module)
    return parser


def main(argv: list[str] | None = None) -> int:
    global _entry_limit
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    # after a second "--", argparse (3.10 to 3.13) gives the positional it consumed
    # an empty list in place of a string: that operand was not given
    missing = [name for name, value in vars(args).items() if value == []]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    _entry_limit = limit = _get_digit_limit()
    _set_digit_limit(0)
    try:
        # __import__ is the import statement's path, which -X importtime reports
        command = __import__(f"{__name__}.{args.module}", fromlist=["run"])
        payload, render = command.run(args)
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
