"""``planeint factor``: a unit times irreducibles."""

from __future__ import annotations

import argparse

from ..factorization import factor
from . import Output, _lines, _ring_arg, parse_element


def run(args: argparse.Namespace) -> Output:
    z = parse_element(args.element, _ring_arg(args))
    f = factor(z)
    payload = {
        "element": z,
        "unit": f.unit,
        "factors": f.factors,
        "axis_extension": f.axis_extension,
    }
    return payload, render


def render(p: dict, color: bool) -> str:
    parts = " * ".join(f"({q})" for q in p["factors"])
    note = ["note: axis element, factored through ky = y*k"] if p["axis_extension"] else []
    return _lines(f"{p['element']} = ({p['unit']}) * {parts}", *note)
