"""Record a baseline: every workload, untraced and traced, one seed.

    python3 perfbench/baseline.py [--seed N] [--out perfbench/baseline.json]

Runs ``run.py`` once per workload and trace mode, with ``run_seconds`` from
BENCHMARK.json, and collects each run's full result (every metric with
median, quartiles and sample count, the input facts and the check
counts) into one JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    runs = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                    "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
                    "--trace", str(trace)]
            subprocess.run(argv, cwd=ROOT, check=True)
            result = HERE / "_work" / workload["name"] / f"result-trace{trace}.json"
            runs.append(json.loads(result.read_text("utf-8")))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"command": bench["command"], "runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
