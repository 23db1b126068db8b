"""``planeint table``: the classification of every canonical associate class in a box, as CSV."""

from __future__ import annotations

import argparse

from ..classification import classify
from ..core import Element, RingKind
from . import _VERDICTS, MAX_TABLE_BOUND, Output, _check_bound, _csv, _lines


def run(args: argparse.Namespace) -> Output:
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
    return {"ring": kind.symbol, "bound": str(b), "summary": summary, "rows": rows}, render


def render(p: dict, color: bool) -> str:
    counts = {k: int(v) for k, v in p["summary"].items()}
    verdicts = [label.replace(" ", "_") for _, label in _VERDICTS[1:]]
    rows = ([z, z.x, z.y, *rest] for z, *rest in (row.values() for row in p["rows"]))
    return _lines(
        f"# canonical associate classes of ring {p['ring']} with |x|,|y| <= {p['bound']}",
        f"# counts are per class: {counts}",
    ) + _csv(["element", "x", "y", "eta", "eta_plus", *verdicts], rows)
