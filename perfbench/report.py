"""Run every workload untraced and traced; print every metric in one table.

    python3 perfbench/report.py [--seed N]

Each cell is the value ``run.py`` reported, with its unit; ``error_rate`` is
failed calls over attempted calls across both runs of a workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seed = parser.parse_args().seed

    columns: dict[str, dict[str, str]] = {}
    for name in WORKLOADS:
        cells = columns[name] = {}
        attempted = failed = 0
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", str(seed), "--trace", str(trace)],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                cells[metric] = f"{entry['value']:.6g} {entry['unit']}"
        cells["error_rate"] = f"{failed / attempted:.6g} ratio"

    rows = list(dict.fromkeys(m for cells in columns.values() for m in cells))
    print(f"seed {seed}\n")
    print("| metric | " + " | ".join(columns) + " |")
    print("| --- |" + " --- |" * len(columns))
    for metric in rows:
        print(f"| `{metric}` | " + " | ".join(c.get(metric, "absent") for c in columns.values()) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
