"""``planeint dts``: the difference-of-two-squares table for 1..n, as CSV."""

from __future__ import annotations

import argparse

from ..integers import diff_two_squares, two_adic_valuation
from . import MAX_DTS_N, Output, _check_bound, _csv

_COLUMNS = ("n", "two_adic", "representable", "r", "s")


def run(args: argparse.Namespace) -> Output:
    _check_bound(args.n_max, 1, MAX_DTS_N, "n_max")
    rows = []
    for n in range(1, args.n_max + 1):
        rs = diff_two_squares(n)
        r, s = map(str, rs) if rs else (None, None)
        values = (str(n), str(two_adic_valuation(n)), rs is not None, r, s)
        rows.append(dict(zip(_COLUMNS, values)))
    return {"rows": rows}, lambda p, color: _csv(_COLUMNS, (row.values() for row in p["rows"]))
