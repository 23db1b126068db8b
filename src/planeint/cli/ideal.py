"""``planeint ideal``: the decomposition of a finitely generated ideal, and one membership test."""

from __future__ import annotations

import argparse

from ..euclid import FGIdeal, decompose, ideal_contains
from . import Output, _flag, _lines, _ring_arg, parse_element


def run(args: argparse.Namespace) -> Output:
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
    return payload, render


def render(p: dict, color: bool) -> str:
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
