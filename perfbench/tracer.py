"""Per-layer spans recorded from outside the package.

Each traced function is found by its public name (``planeint.<name>``, an
``Element`` attribute, or ``planeint.cli.main``) and every reference to
that object in the globals of loaded ``planeint.*`` modules, and in the
``Element`` class for methods, is rebound to a wrapper.  A function that
later moves between modules therefore keeps its metric name.  No span is
added inside the package.

The wrapper counts calls and accumulates self time (span duration minus the
time covered by child spans) online, so the per-layer figures cover every
call.  The first ``SPAN_CAP`` spans are also kept in memory as
``(span id, function, start, end, parent span id, op id)`` and written out once, when
the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# metric prefix -> how the object is found
TRACED = (
    ("core.Element", "Element.__init__"),
    ("core.Element.__mul__", "Element.__mul__"),
    ("core.Element.canonical_associate", "Element.canonical_associate"),
    ("euclid.div_rem", "div_rem"),
    ("euclid.divides", "divides"),
    ("euclid.decompose", "decompose"),
    ("euclid.ideal_contains", "ideal_contains"),
    ("factor.is_prime_int", "is_prime_int"),
    ("factor.int_factor", "int_factor"),
    ("factor.sum_two_squares", "sum_two_squares"),
    ("factor.extended_gcd", "extended_gcd"),
    ("factor.split", "split"),
    ("factor.factor", "factor"),
    ("classify.classify", "classify"),
    ("classify.is_prime", "is_prime"),
    ("classify.is_irreducible", "is_irreducible"),
    ("cli.main", "cli.main"),
)
NAMES = tuple(name for name, _ in TRACED)

# metric -> (child, parent): child calls made inside a parent span, per parent call
RATIOS = (
    ("euclid.div_rem_per_decompose", "euclid.div_rem", "euclid.decompose"),
    ("factor.is_prime_int_per_classify", "factor.is_prime_int", "classify.classify"),
)

SPAN_CAP = 100_000


def _resolve(api, where: str):
    """The object a traced name refers to."""
    if where.startswith("Element."):
        return api.Element.__dict__[where.split(".", 1)[1]]
    if where == "cli.main":
        return importlib.import_module("planeint.cli").main
    return getattr(api, where)


class Tracer:
    def __init__(self, api):
        self._api = api
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.nested = [0] * len(RATIOS)
        self.op_id = -1
        self._open = [0] * len(TRACED)
        self._stack: list[list] = []
        self._next_id = [0]
        self._spans = (array("q"), array("i"), array("d"), array("d"), array("q"), array("q"))
        self._saved: list[tuple[object, str, object]] = []
        self._originals = [_resolve(api, where) for _, where in TRACED]

    def index(self, name: str) -> int:
        return NAMES.index(name)

    def _wrapper(self, idx: int, fn):
        calls, self_s, opened, nested = self.calls, self.self_s, self._open, self.nested
        stack, next_id = self._stack, self._next_id
        span_ids, fn_ids, starts, ends, parents, ops = self._spans
        parents_of = tuple(
            (r, NAMES.index(parent))
            for r, (_, child, parent) in enumerate(RATIOS)
            if NAMES.index(child) == idx
        )
        tracer = self

        def traced(*args, **kwargs):
            calls[idx] += 1
            for r, p in parents_of:
                if opened[p]:
                    nested[r] += 1
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            opened[idx] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                opened[idx] -= 1
                stack.pop()
                d = t1 - t0
                self_s[idx] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if sid < SPAN_CAP:
                    span_ids.append(sid)
                    fn_ids.append(idx)
                    starts.append(t0)
                    ends.append(t1)
                    parents.append(parent)
                    ops.append(tracer.op_id)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def install(self) -> None:
        element = self._api.Element
        modules = [m for n, m in list(sys.modules.items()) if n == "planeint" or n.startswith("planeint.")]
        for idx, orig in enumerate(self._originals):
            w = self._wrapper(idx, orig)
            owners = [element] if TRACED[idx][1].startswith("Element.") else modules
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is orig:
                        self._saved.append((owner, attr, orig))
                        setattr(owner, attr, w)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        for r, (name, _, parent) in enumerate(RATIOS):
            parent_calls = self.calls[NAMES.index(parent)]
            out[name] = self.nested[r] / parent_calls if parent_calls else 0.0
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as one JSON document; returns how many."""
        columns = ["span", "function", "start_s", "end_s", "parent_span", "op_id"]
        doc = {
            "functions": list(NAMES),
            "columns": columns,
            "spans_total": self._next_id[0],
            "spans_kept": len(self._spans[0]),
            "spans": [list(row) for row in zip(*self._spans)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
        return doc["spans_kept"]
