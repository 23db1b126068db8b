"""``planeint norm``: the norm, the absolute norm and the trace."""

from __future__ import annotations

import argparse

from ..core import norm_data
from . import Output, _lines, _ring_arg, parse_element


def run(args: argparse.Namespace) -> Output:
    z = parse_element(args.element, _ring_arg(args))
    eta, eta_plus, tau = norm_data(z)
    payload = {"element": z, "eta": str(eta), "eta_plus": str(eta_plus), "trace": str(tau)}
    return payload, lambda p, color: _lines(*(f"{k} {p[k]}" for k in ("eta", "eta_plus", "trace")))
