"""``planeint classify-poly``: the canonical structure of R[x]/(ax²+bx+c)."""

from __future__ import annotations

import argparse
import re
from fractions import Fraction

from ..core import RingKind
from ..quadratic import QuadraticPoly, canonicalize, classify_quadratic
from . import ElementParseError, Output, _lines, _literal_limit

_RE_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")  # the exponent syntax Fraction reads


def _coefficient(text: str):
    """A rational coefficient, held to the literal limit with its exponent written out.

    ``Fraction('1e99999')`` builds a 100,000-digit integer, so the digits and
    the exponent are counted on the text, before ``Fraction`` reads it, and
    the exponent's length is checked before ``int`` reads the exponent.
    """
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


def run(args: argparse.Namespace) -> Output:
    poly = QuadraticPoly(*map(_coefficient, (args.a, args.b, args.c)))
    kind = classify_quadratic(poly)
    _, shift, scale = canonicalize(poly.params())
    payload = {key: str(getattr(poly, key)) for key in ("a", "b", "c", "disc")}
    payload.update(kind=kind.symbol, shift=shift, scale=scale)
    return payload, render


def render(p: dict, color: bool) -> str:
    kind = RingKind.from_symbol(p["kind"])
    return _lines(
        f"discriminant  {p['disc']}",
        f"kind          {kind.name.lower()} (theta^2 = {kind.mu})",
        f"change of basis: shift {p['shift']}, scale {p['scale']}",
    )
