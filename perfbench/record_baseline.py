"""Record one full run of every workload, untraced and traced, with the machine it ran on.

    python3 perfbench/record_baseline.py --seed 1 --out perfbench/baseline.json

Run from the root of a checkout.  The seconds per run come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# never used while the benchmark was built or tuned; re-check later claims on it
HELD_OUT_SEED = 7


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "sympy": importlib.metadata.version("sympy"),
        },
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": bench["run_seconds"],
        "runs": {},
    }
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [*bench["command"], "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            record["runs"][f"{w['name']}.trace{trace}"] = {"report": lines[:-1], "result": json.loads(lines[-1])}
            print(f"{w['name']} trace {trace}: done", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
