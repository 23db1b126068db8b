"""``planeint classify``: the unit, zero-divisor, prime and irreducible verdicts of one element."""

from __future__ import annotations

import argparse

from ..classification import classify
from . import _VERDICTS, Output, _flag, _lines, _ring_arg, parse_element


def run(args: argparse.Namespace) -> Output:
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
    return payload, render


def render(p: dict, color: bool) -> str:
    rows = [
        ("element", p["element"]),
        ("eta", f"{p['eta']}   (eta_plus {p['eta_plus']})"),
        *((label, _flag(p[field], color)) for field, label in _VERDICTS),
        ("canonical", f"{p['canonical']}  (unit {p['unit']})"),
    ]
    return _lines(*(f"{label:<15}{value}" for label, value in rows))
