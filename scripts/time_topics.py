"""Time the ``topics`` stage of two source trees on the 2k bundle.

The bundle is ``perfbench/generate.py``'s ``topics-small`` recipe with
2000 typical posts, seed 1 and ``iters=200``.  Each tree runs ``ingest``
once into its own output directory, then ``topics`` runs N times per
tree as a fresh ``python -m postmine.cli`` subprocess, the two trees
alternating (A B, B A, A B, ...).  Prints each side's median wall time,
quartiles and IQR, its median CPU time (user plus system, so a stage
that keeps a second core busy shows), its peak RSS, and whether the two
sides wrote the same ``topic_report.csv`` and ``vocab.tsv``.

    python3 scripts/time_topics.py OLD/src NEW/src --runs 5

The bundle lives in a temporary directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
POSTS = 2000
SEED = 1
ITERS = 200


def build_bundle(directory: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import generate

    workload = dataclasses.replace(generate.WORKLOADS["topics-small"], typical_posts=POSTS)
    generate.write_bundle(directory, workload, SEED)
    config_path = directory / "config.json"
    config = json.loads(config_path.read_text("utf-8"))
    config["topics"]["iters"] = ITERS
    config_path.write_text(json.dumps(config, indent=2), "utf-8")


def run_stage(src: Path, bundle: Path, out: Path, stage: str) -> tuple[float, float, float]:
    """One stage as a fresh interpreter: (wall seconds, CPU seconds, max
    RSS MB).  CPU seconds are the child's user plus system time, so a
    stage that keeps a second core busy shows more CPU than wall time."""
    return spawn([sys.executable, "-m", "postmine.cli", "--config", "config.json",
                  "--out", str(out), stage], src, bundle)


def spawn(argv: list[str], src: Path, cwd: Path) -> tuple[float, float, float]:
    """Run ``argv`` in ``cwd`` with ``src`` on PYTHONPATH, timed from
    spawn to exit: (wall seconds, CPU seconds, max RSS MB).  Exits the
    script when the child fails."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        errors = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{' '.join(argv[1:])} with {src} exited {code}: {errors}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs=2, type=Path, help="two directories holding postmine/")
    parser.add_argument("--runs", type=int, default=5, help="topics runs per tree")
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src]
    for src in trees:
        if not (src / "postmine" / "cli.py").is_file():
            parser.error(f"{src} holds no postmine/cli.py")

    with tempfile.TemporaryDirectory(prefix="time_topics-") as tmp:
        bundle = Path(tmp) / "bundle"
        build_bundle(bundle)
        outs = [Path(tmp) / f"out{i}" for i in range(len(trees))]
        for src, out in zip(trees, outs):
            run_stage(src, bundle, out, "ingest")
        samples: list[list[tuple[float, float, float]]] = [[] for _ in trees]
        for run in range(args.runs):
            order = range(len(trees)) if run % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                samples[i].append(run_stage(trees[i], bundle, outs[i], "topics"))
        print(f"topics stage, {POSTS} posts, seed {SEED}, iters={ITERS}, "
              f"{args.runs} alternating runs per tree")
        for label, src, runs in zip("AB", trees, samples):
            walls, cpus, peaks = zip(*runs)
            q1, median, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
            print(f"{label} {src}: median {median:.3f} s  q1 {q1:.3f}  q3 {q3:.3f}  "
                  f"IQR {q3 - q1:.3f}  CPU median {statistics.median(cpus):.3f} s  "
                  f"peak RSS {max(peaks):.1f} MB  walls {' '.join(f'{w:.3f}' for w in walls)}")
        for name in ("topic_report.csv", "vocab.tsv"):
            same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            print(f"{name}: {'identical' if same else 'DIFFERS'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
