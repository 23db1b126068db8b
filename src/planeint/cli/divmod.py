"""``planeint divmod``: division with remainder, and the norm check of the remainder."""

from __future__ import annotations

import argparse

from ..euclid import div_rem
from . import Output, _lines, _ring_arg, parse_element


def run(args: argparse.Namespace) -> Output:
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
    return payload, render


def render(p: dict, color: bool) -> str:
    return _lines(
        f"quotient   {p['quotient']}",
        f"remainder  {p['remainder']}",
        f"checked    eta_plus(remainder) = {p['remainder_norm']} < {p['divisor_norm']} = eta_plus(divisor)",
    )
