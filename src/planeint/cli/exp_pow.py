"""``planeint exp`` and ``planeint pow``: the ring exponential and integer powers at float coordinates."""

from __future__ import annotations

import argparse

from ..analytic import RealElement, exp_theta, pow_moivre
from ..core import RingKind
from . import Output, _lines


def run(args: argparse.Namespace) -> Output:
    kind = RingKind.from_symbol(args.ring)
    z = RealElement(kind, args.x, args.y)
    base = f"{args.x} + {args.y}{kind.symbol}"
    if args.command == "exp":
        w, lhs = exp_theta(z), f"exp({base})"
    else:
        w, lhs = pow_moivre(z, args.n), f"({base})^{args.n}"
    payload = {"ring": kind.symbol, "x": w.x, "y": w.y}
    return payload, lambda p, color: _lines(f"{lhs} = {p['x']} + {p['y']}{p['ring']}")
