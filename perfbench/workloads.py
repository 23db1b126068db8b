"""The four workloads: inputs made from the seed, ops, and referees.

Each workload hands the harness rounds of ops.  An op is
``(key, group, fn, args)``: ``key`` names the input (where rounds revisit
an input they reuse its key, so a result can be compared with its first
occurrence), ``group`` indexes ``groups`` for latency split-outs, and
``fn(*args)`` is the timed call.  A workload with ``fresh_keys`` never
revisits an input: the harness checks and drops its results before each
round, so they do not pile up.  Library functions are looked up on the ``planeint`` module when a
round is built, so a round built while the tracer is installed calls the
traced wrappers.

``verify(first)`` gets the first result of every key and returns the keys
whose result is wrong.  It runs after the timed phase, and no referee calls
the function it checks: see ``referee.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path
from statistics import median

import referee as R

HERE = Path(__file__).resolve().parent
BUDGET_S = 10.0  # per-op operation budget; over it an op is stopped and failed


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(repr((seed,) + salt))


def _flags(c) -> tuple[bool, ...]:
    return (c.is_zero, c.is_unit, c.is_zero_divisor, c.is_prime, c.is_irreducible, c.is_reducible)


def vm_hwm_kb(status: str) -> int:
    """The ``VmHWM`` (peak resident set, kB) field of a ``/proc/<pid>/status`` text."""
    return int(status.rsplit("VmHWM:", 1)[1].split()[0])


def _holds(check, *args) -> bool:
    """``check(*args)``, where a result the referee cannot even read is a wrong result."""
    try:
        return bool(check(*args))
    except Exception:
        return False


# -- census ---------------------------------------------------------------------

CENSUS_BOX = 100
CENSUS_ROUND = 4000
CENSUS_WINDOW = 25
# SHA-256 of the box's verdict table per ring at the commit that added the
# benchmark, cross-checked once against planeint.oracle on the whole box
# (perfbench/crosscheck.py).  One byte per point in (x, y) order: 0 for a
# point the canonical filter drops, else 1 + the classification bits.
CENSUS_DIGESTS = {
    "i": "9e604d0ce0f65d3ff892fe5ce94aad60631c98844f2f91d658401b656d3f3e1e",
    "j": "5ee92ec5e54ef670c9b4f34736b6adfa5d11ed81b8c36d671f9b1921b0a013ff",
    "k": "07c2157eedccb3edf52f2d7fb025da7fc23abc923644a1fb2039e13508358416",
}


def census_code(result) -> int:
    if result is None:
        return 0
    try:
        return 1 + sum(bool(bit) << n for n, bit in enumerate(_flags(result)))
    except AttributeError:
        return 255


class Census:
    """Every point of |x|,|y| <= 100 in all three rings: the loop of ``planeint table``."""

    name = "census"
    import_target = "planeint"
    groups = ("classified", "filtered")
    group_kind = (0, 1)
    kind_labels = ("classified points (filter + classify)", "points the canonical filter drops")
    # higher percentiles rest on short host stalls here: across runs p99.9
    # read 0.09 to 1.0 ms and p99 0.023 to 0.047 ms
    tail_pct = 90.0
    fresh_keys = False  # a 20-s run visits each point about 9 times
    kernel = "objects"  # the host-speed calibration kernel; see run.HostClock
    traced_rounds = 5

    def __init__(self, api, seed: int):
        self.api = api
        rng = _rng(seed, "census")
        b = CENSUS_BOX
        self.points = [(sym, x, y) for sym in "ijk" for x in range(-b, b + 1) for y in range(-b, b + 1)]
        self.order = list(range(len(self.points)))
        rng.shuffle(self.order)
        self.kinds = {sym: api.RingKind.from_symbol(sym) for sym in "ijk"}
        x0 = rng.randint(-b, b - CENSUS_WINDOW + 1)
        y0 = rng.randint(-b, b - CENSUS_WINDOW + 1)
        self.window = (x0, y0)
        self._oracle_memo: dict[int, bool] = {}

    def _op(self):
        Element, classify = self.api.Element, self.api.classify

        def census_point(kind, x, y):
            z = Element(kind, x, y)
            if z.canonical_associate()[0] != z:
                return None
            return classify(z)

        return census_point

    def round_ops(self, r: int, inprocess: bool = False):
        op = self._op()
        n = len(self.order)
        ops = []
        for i in range(r * CENSUS_ROUND, (r + 1) * CENSUS_ROUND):
            k = self.order[i % n]
            sym, x, y = self.points[k]
            ops.append((k, 0 if R.is_canonical(sym, x, y) else 1, op, (self.kinds[sym], x, y)))
        return ops

    def table(self, first: dict) -> list:
        """Verdict of every point: the timed results, completed untimed."""
        op = self._op()
        return [
            first[k] if k in first else op(self.kinds[sym], x, y)
            for k, (sym, x, y) in enumerate(self.points)
        ]

    def _oracle_ok(self, k: int, c) -> bool:
        sym, x, y = self.points[k]
        mu = R.MU[sym]
        n = R.norm(mu, (x, y))
        zero, unit = x == 0 and y == 0, abs(n) == 1
        if (c.is_zero, c.is_unit, c.is_zero_divisor) != (zero, unit, n == 0):
            return False
        if zero or unit:
            return not (c.is_prime or c.is_irreducible or c.is_reducible)
        if c.is_reducible == c.is_irreducible:
            return False
        if sym == "j" and n == 0:
            # the diagonals hold no irreducibles; their primes are the associates of 1±j
            return not c.is_irreducible and c.is_prime == (abs(x) == 1)
        if k not in self._oracle_memo:
            oracle = self.api.oracle
            z = self.api.Element(self.kinds[sym], x, y)
            ok = oracle.oracle_irreducible(z) == c.is_irreducible
            if sym == "i":
                ok = ok and c.is_prime == c.is_irreducible  # unique factorization
            elif c.is_prime:
                ok = ok and oracle.oracle_prime(z, 2).verdict is not oracle.Verdict.REFUTED
            self._oracle_memo[k] = ok
        return self._oracle_memo[k]

    def verify(self, first: dict) -> set:
        bad = {k for k, res in first.items() if (res is None) == R.is_canonical(*self.points[k])}
        table = self.table(first)
        side = 2 * CENSUS_BOX + 1
        for ring, sym in enumerate("ijk"):
            lo, hi = ring * side * side, (ring + 1) * side * side
            digest = hashlib.sha256(bytes(census_code(c) for c in table[lo:hi])).hexdigest()
            if digest != CENSUS_DIGESTS[sym]:
                bad |= {k for k in range(lo, hi) if k in first and first[k] is not None}
        x0, y0 = self.window
        for k, (sym, x, y) in enumerate(self.points):
            if x0 <= x < x0 + CENSUS_WINDOW and y0 <= y < y0 + CENSUS_WINDOW:
                c = table[k]
                if c is not None and k in first and not _holds(self._oracle_ok, k, c):
                    bad.add(k)
        return bad

    def corrupt(self, first: dict):
        k = next(k for k in sorted(first) if first[k] is not None)
        return k, dataclasses.replace(first[k], is_prime=not first[k].is_prime)


# -- bignorm --------------------------------------------------------------------

BIG_BITS = (20, 28, 36, 44)
BIG_CLASSES = ("prime", "semiprime", "smooth")
BIG_POOL = 8
SMOOTH_LIMIT = 1 << 12
_SMALL = R.small_primes(SMOOTH_LIMIT)
BIGNORM_LAYER_NAMES = tuple(f"bignorm.b{b}.{c}.p50_ms" for b in BIG_BITS for c in BIG_CLASSES) + tuple(
    f"bignorm.{c}.is_prime_int_per_classify" for c in BIG_CLASSES
)


def _window(lo: int) -> tuple[int, int]:
    # a narrow window keeps the trial-division cost of one size nearly
    # constant across instances, so rounds are comparable
    return lo, lo + max(lo >> 7, 256)


class _Maker:
    """Elements whose norm (the real part in the parabolic ring) is built to order."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _gauss_prime(self, p: int) -> tuple[int, int]:
        a, b = R.two_squares(p)
        return (a, b) if self.rng.random() < 0.5 else (a, -b)

    def _gauss_unit(self, z):
        for _ in range(self.rng.randrange(4)):
            z = R.mul(-1, (0, 1), z)
        return z

    def _diag(self, u: int, v: int):
        if self.rng.random() < 0.5:
            u, v = v, u
        u *= self.rng.choice((1, -1))
        v *= self.rng.choice((1, -1))
        return (u + v) // 2, (u - v) // 2

    def _real_part(self, x: int, bits: int):
        x *= self.rng.choice((1, -1))
        return x, self.rng.randrange(-(1 << bits), 1 << bits)

    def prime(self, sym: str, bits: int):
        lo, hi = _window(3 << (bits - 2))
        p = R.random_prime(self.rng, lo, hi, (4, 1) if sym == "i" else None)
        if sym == "i":
            return self._gauss_unit(self._gauss_prime(p)), [p]
        if sym == "j":
            return self._diag(p, 1), [p]
        return self._real_part(p, bits), [p]

    def semiprime(self, sym: str, bits: int):
        lo, hi = _window(isqrt(3 << (bits - 2)))
        residue = (4, 1) if sym == "i" else None
        while True:
            p = R.random_prime(self.rng, lo, hi, residue)
            q = R.random_prime(self.rng, lo, hi, residue)
            if p != q and (p * q).bit_length() == bits:
                break
        if sym == "i":
            z = R.mul(-1, self._gauss_prime(p), self._gauss_prime(q))
            return self._gauss_unit(z), [p, q]
        if sym == "j":
            return self._diag(p, q), [p, q]
        return self._real_part(p * q, bits), [p, q]

    def smooth(self, sym: str, bits: int):
        rng = self.rng
        odd = _SMALL[1:]
        while True:
            if sym == "i":
                z, n, used = (1, 0), 1, []
                while n.bit_length() < bits:
                    p = rng.choice(_SMALL)
                    f = (p, 0) if p % 4 == 3 else self._gauss_prime(p)
                    z, n = R.mul(-1, z, f), n * R.norm(-1, f)
                    used.append(p)
                if n.bit_length() == bits and len(used) >= 2:
                    return self._gauss_unit(z), used
            elif sym == "j":
                u, v = rng.choice(odd), rng.choice(odd)
                used = [u, v]
                while (u * v).bit_length() < bits:
                    p = rng.choice(odd)
                    used.append(p)
                    if rng.random() < 0.5:
                        u *= p
                    else:
                        v *= p
                if (u * v).bit_length() == bits:
                    return self._diag(u, v), used
            else:
                x, used = 1, []
                while x.bit_length() < bits:
                    p = rng.choice(_SMALL)
                    x *= p
                    used.append(p)
                if x.bit_length() == bits and len(set(used)) >= 2:
                    return self._real_part(x, bits), used


# expected classification flags by (ring, class); every input has nonzero norm
_PRIME_FLAGS = {
    "i": (False, False, False, True, True, False),
    "j": (False, False, False, True, True, False),
    "k": (False, False, False, False, True, False),
}
_COMPOSITE_FLAGS = (False, False, False, False, False, True)


class Bignorm:
    """Primes, balanced semiprimes and 2^12-smooth norms at 20 to 44 bits, classify and factor."""

    name = "bignorm"
    import_target = "planeint"
    groups = tuple((op, bits, cls) for op in ("classify", "factor") for bits in BIG_BITS for cls in BIG_CLASSES)
    group_kind = tuple(0 if op == "classify" else 1 for op, _, _ in groups)
    kind_labels = ("classify ops: classify_p50_ms", "factor ops: factor_p50_ms")
    tail_pct = 90.0
    fresh_keys = False
    kernel = "ints"
    traced_rounds = 1

    def __init__(self, api, seed: int):
        self.api = api
        self.seed = seed
        self.kinds = {sym: api.RingKind.from_symbol(sym) for sym in "ijk"}
        self.inputs = {}
        for sym in "ijk":
            for cls in BIG_CLASSES:
                for bits in BIG_BITS:
                    maker = _Maker(_rng(seed, "bignorm", sym, cls, bits))
                    for inst in range(BIG_POOL):
                        xy, used = getattr(maker, cls)(sym, bits)
                        self.inputs[sym, cls, bits, inst] = (xy, used, api.Element(self.kinds[sym], *xy))

    def round_ops(self, r: int, inprocess: bool = False):
        classify, factor = self.api.classify, self.api.factor
        ops = []
        for (sym, cls, bits, inst), (_, _, z) in self.inputs.items():
            if inst != r % BIG_POOL:
                continue
            for op, fn in (("classify", classify), ("factor", factor)):
                key = (sym, cls, bits, inst, op)
                ops.append((key, self.groups.index((op, bits, cls)), fn, (z,)))
        _rng(self.seed, "bignorm-order", r).shuffle(ops)
        return ops

    def _factor_ok(self, sym: str, cls: str, xy, f, isprime, factorint) -> bool:
        mu = R.MU[sym]
        unit = (f.unit.x, f.unit.y)
        if abs(R.norm(mu, unit)) != 1:
            return False
        prod = unit
        for q in f.factors:
            prod = R.mul(mu, prod, (q.x, q.y))
        if prod != tuple(xy):
            return False
        count = len(f.factors)
        if count < 2 if cls == "smooth" else count != {"prime": 1, "semiprime": 2}[cls]:
            return False
        for q in f.factors:
            n = abs(R.norm(mu, (q.x, q.y)))
            if sym == "k":
                primes = factorint(abs(q.x)) if q.x else {}
                if len(primes) != 1:
                    return False
                (p, e), = primes.items()
                if e > 1 and q.y % p == 0:
                    return False
            elif isprime(n):
                continue
            elif sym == "i":
                r = isqrt(n)
                if not (r * r == n and r % 4 == 3 and isprime(r) and 0 in (q.x, q.y)):
                    return False
            else:
                return False
        return True

    def verify(self, first: dict) -> set:
        from sympy import factorint, isprime

        bad = set()
        for key, res in first.items():
            sym, cls, bits, inst, op = key
            xy, used, _ = self.inputs[sym, cls, bits, inst]
            if not all(isprime(p) for p in used):
                bad.add(key)
            elif op == "classify":
                expected = _PRIME_FLAGS[sym] if cls == "prime" else _COMPOSITE_FLAGS
                if not _holds(lambda: _flags(res) == expected):
                    bad.add(key)
            elif not _holds(self._factor_ok, sym, cls, xy, res, isprime, factorint):
                bad.add(key)
        return bad

    def corrupt(self, first: dict):
        k = next(k for k in sorted(first) if k[-1] == "classify")
        return k, dataclasses.replace(first[k], is_prime=not first[k].is_prime)

    def layer_metrics(self, untraced, traced) -> dict:
        """Size sweep from the untraced phase; is_prime_int per classify by class from the traced one."""
        out = {}
        for bits in BIG_BITS:
            for cls in BIG_CLASSES:
                lat = []
                for op in ("classify", "factor"):
                    lat.extend(untraced.lat[self.groups.index((op, bits, cls))])
                out[f"bignorm.b{bits}.{cls}.p50_ms"] = median(lat) * 1e3 if lat else 0.0
        for cls in BIG_CLASSES:
            calls = ops = 0
            for bits in BIG_BITS:
                g = self.groups.index(("classify", bits, cls))
                calls += traced.prime_int_calls[g]
                ops += len(traced.lat[g])
            out[f"bignorm.{cls}.is_prime_int_per_classify"] = calls / ops if ops else 0.0
        return out


# -- ideal ----------------------------------------------------------------------

IDEAL_SIZES = (16, 64, 256)
IDEAL_GENERATORS = (2, 3, 4)  # every round has one ideal of each count per ring and size
IDEAL_QUERIES = 50
MULTIPLIER_BITS = 16


class Ideal:
    """Random 2-, 3- and 4-generator ideals: one decompose (write), then 50 membership reads.

    Every round draws new ideals from the seed and the round number, so no
    ideal and no query repeats within a run, as in real use.
    """

    name = "ideal"
    import_target = "planeint"
    groups = ("decompose", "contains")
    group_kind = (0, 1)
    kind_labels = ("decompose, the write: decompose_p50_ms", "ideal_contains, the reads: contains_p50_ms")
    # 27 of a round's 1,377 ops are decompose, so p99 sits in the upper half
    # of the decompositions; p99.9 rested on a handful of 256-bit ones per run
    tail_pct = 99.0
    fresh_keys = True
    kernel = "objects"
    traced_rounds = 4

    def __init__(self, api, seed: int):
        self.api = api
        self.seed = seed
        self.kinds = {sym: api.RingKind.from_symbol(sym) for sym in "ijk"}
        self.ideals = {}  # the current round's ideals only

    def _draw(self, r: int) -> None:
        api = self.api
        self.ideals = {}
        for sym, size, count in itertools.product("ijk", IDEAL_SIZES, IDEAL_GENERATORS):
            kind, mu = self.kinds[sym], R.MU[sym]
            rng = _rng(self.seed, "ideal", sym, size, count, r)
            gens = [self._generator(rng, sym, size) for _ in range(count)]
            lattice = R.ideal_lattice(mu, gens)
            queries = []
            for q in range(IDEAL_QUERIES):
                if q % 2 == 0:
                    z = (0, 0)
                    for g in gens:
                        c = (rng.randint(-(1 << MULTIPLIER_BITS), 1 << MULTIPLIER_BITS),
                             rng.randint(-(1 << MULTIPLIER_BITS), 1 << MULTIPLIER_BITS))
                        cg = R.mul(mu, c, g)
                        z = (z[0] + cg[0], z[1] + cg[1])
                    if not R.lattice_contains(lattice, *z):
                        raise AssertionError("lattice referee rejects a member by construction")
                else:
                    z = (rng.randint(-(1 << size), 1 << size), rng.randint(-(1 << size), 1 << size))
                queries.append((api.Element(kind, *z), R.lattice_contains(lattice, *z)))
            elements = tuple(api.Element(kind, *g) for g in gens)
            self.ideals[r, sym, size, count] = (kind, elements, lattice, queries)

    @staticmethod
    def _generator(rng: random.Random, sym: str, size: int):
        t = rng.randint(1, 1 << size) * rng.choice((1, -1))
        if sym == "j" and rng.random() < 0.25:
            return t, rng.choice((t, -t))  # on a diagonal
        if sym == "k" and rng.random() < 0.25:
            return 0, t  # on the axis
        return rng.randint(-(1 << size), 1 << size), rng.randint(-(1 << size), 1 << size)

    def round_ops(self, r: int, inprocess: bool = False):
        FGIdeal, decompose, contains = self.api.FGIdeal, self.api.decompose, self.api.ideal_contains

        def decompose_op(slot, kind, elements):
            slot[0] = decompose(FGIdeal(kind, elements))
            return slot[0]

        def contains_op(slot, z):
            return contains(slot[0], z)

        self._draw(r)
        blocks = []
        for ideal, (kind, elements, _, queries) in self.ideals.items():
            slot = [None]
            block = [(("d", *ideal), 0, decompose_op, (slot, kind, elements))]
            for q, (z, _) in enumerate(queries):
                block.append((("c", *ideal, q), 1, contains_op, (slot, z)))
            blocks.append(block)
        _rng(self.seed, "ideal-order", r).shuffle(blocks)
        return [op for block in blocks for op in block]

    @staticmethod
    def _decomposition_ok(sym: str, dec, lattice) -> bool:
        alpha = None if dec.alpha is None else (dec.alpha.x, dec.alpha.y)
        return R.decomposition_lattice(R.MU[sym], alpha, dec.dplus_gen, dec.dminus_gen, dec.d0_gen) == lattice

    def verify(self, first: dict) -> set:
        bad = set()
        for key, res in first.items():
            _, _, lattice, queries = self.ideals[key[1:5]]
            if key[0] == "c":
                if res != queries[key[5]][1]:
                    bad.add(key)
                continue
            if not _holds(self._decomposition_ok, key[2], res, lattice):
                bad.add(key)
        return bad

    def corrupt(self, first: dict):
        k = next(k for k in sorted(first, key=repr) if k[0] == "c")
        return k, not first[k]


# -- cli ------------------------------------------------------------------------

CLI_ARGV = (
    ("classify", "7+2i"),
    ("factor", "30+8i"),
    ("divmod", "27+5j", "4+1j"),
    ("norm", "12-5k"),
    ("ideal", "6+4j", "10+2j", "--contains", "4+2j"),
    ("table", "--ring", "j", "--bound", "30"),
    ("oracle", "divisors", "12+6k"),
    ("dts", "200"),
    ("classify-poly", "1", "-3", "2"),
)
CLI_MIX = tuple(CLI_ARGV) + tuple(("--json",) + argv for argv in CLI_ARGV)
CLI_EXPECTED = HERE / "cli_expected.json"
# ``python -m planeint.cli`` (runpy runs the module as -m does), then the
# child's own peak resident set on stderr: a child's getrusage figure would
# start from the peak of the process that spawned it
CLI_CHILD = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('planeint.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    sys.stderr.write('\\n' + open('/proc/self/status').read())\n"
)


class Cli:
    """One ``python -m planeint.cli`` child at a time over a fixed argv mix."""

    name = "cli"
    import_target = "planeint.cli"
    groups = ("text", "json")
    group_kind = (0, 1)
    kind_labels = ("text output", "--json output")
    tail_pct = 75.0
    fresh_keys = False
    kernel = "interpreter"
    traced_rounds = 1

    def __init__(self, api, seed: int):
        self.api = api
        self.seed = seed
        src = Path(api.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.cwd = str(src.parent)
        self.expected = json.loads(CLI_EXPECTED.read_text())
        self.child_peak_kb = 0  # largest VmHWM a child reported

    def _subprocess_op(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CHILD, *argv],
            env=self.env, cwd=self.cwd, capture_output=True, timeout=BUDGET_S,
        )
        self.child_peak_kb = max(self.child_peak_kb, vm_hwm_kb(proc.stderr.decode()))
        return proc.returncode, proc.stdout

    def _inprocess_op(self):
        main = importlib.import_module("planeint.cli").main

        def cli_main(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue().encode()

        return cli_main

    def round_ops(self, r: int, inprocess: bool = False):
        fn = self._inprocess_op() if inprocess else self._subprocess_op
        ops = [(i, int(argv[0] == "--json"), fn, (argv,)) for i, argv in enumerate(CLI_MIX)]
        _rng(self.seed, "cli-order", r).shuffle(ops)
        return ops

    def verify(self, first: dict) -> set:
        bad = set()
        for i, (code, out) in first.items():
            if code != 0 or hashlib.sha256(out).hexdigest() != self.expected[" ".join(CLI_MIX[i])]:
                bad.add(i)
        return bad

    def corrupt(self, first: dict):
        k = min(first)
        code, out = first[k]
        return k, (code, out + b" ")


WORKLOADS = {w.name: w for w in (Census, Bignorm, Ideal, Cli)}
