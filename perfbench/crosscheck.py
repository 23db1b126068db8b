"""Re-derive the referee data the benchmark records.

    python3 perfbench/crosscheck.py              # census digests, checked against the oracle
    python3 perfbench/crosscheck.py --write-cli  # also rewrite cli_expected.json

Run from the root of a checkout, at a commit whose results are trusted.
The census table is checked point by point against ``planeint.oracle`` on
the whole box before its digests are printed, for pasting into
``workloads.CENSUS_DIGESTS``; the timed runs then compare against the
digests and re-run the oracle only on a small window.  ``--write-cli``
records the SHA-256 of each cli argv's stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import planeint  # noqa: E402
import referee as R  # noqa: E402
from workloads import CENSUS_BOX, CLI_EXPECTED, CLI_MIX, Census, census_code  # noqa: E402


def census_digests() -> int:
    census = Census(planeint, 0)
    table = census.table({})
    wrong = 0
    for k, c in enumerate(table):
        sym, x, y = census.points[k]
        if (c is None) == R.is_canonical(sym, x, y) or (c is not None and not census._oracle_ok(k, c)):
            wrong += 1
            print(f"disagrees with the oracle: ring {sym} point ({x}, {y}): {c}", file=sys.stderr)
    side = 2 * CENSUS_BOX + 1
    for ring, sym in enumerate("ijk"):
        codes = bytes(census_code(c) for c in table[ring * side * side:(ring + 1) * side * side])
        print(f'    "{sym}": "{hashlib.sha256(codes).hexdigest()}",')
    print(f"{wrong} points disagree with the oracle", file=sys.stderr)
    return wrong


def write_cli_expected() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    expected = {}
    for argv in CLI_MIX:
        proc = subprocess.run(
            [sys.executable, "-m", "planeint.cli", *argv],
            env=env, cwd=str(ROOT), capture_output=True, check=True,
        )
        expected[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    CLI_EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-cli", action="store_true", help="rewrite cli_expected.json")
    args = parser.parse_args()
    wrong = census_digests()
    if args.write_cli:
        write_cli_expected()
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
