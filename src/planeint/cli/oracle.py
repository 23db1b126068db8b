"""``planeint oracle``: brute-force irreducibility, primality and divisors."""

from __future__ import annotations

import argparse

from ..oracle import divisors, oracle_irreducible, oracle_prime
from . import MAX_ORACLE_BOX, MAX_ORACLE_COORD, Output, _check_bound, _flag, _lines, _ring_arg, parse_element


def run(args: argparse.Namespace) -> Output:
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
        return payload, render_prime
    payload = {"element": z, "divisors": divisors(z)}
    return payload, lambda p, color: _lines(", ".join(map(str, p["divisors"])))


def render_prime(p: dict, color: bool) -> str:
    witness = [f"witness  {p['witness'][0]}, {p['witness'][1]}"] if p["witness"] else []
    return _lines(f"verdict  {p['verdict']}", *witness)
