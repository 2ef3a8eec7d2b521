"""Time every stage of two source trees, each stage a fresh process.

The bundle is ``perfbench/generate.py``'s recipe for ``--workload`` at
seed 1.  Each round runs, once per tree, the workload's whole pipeline,
every stage as a fresh ``python -m postmine.cli`` subprocess into that
tree's own emptied output directory, and then ``perfbench/setup_probe.py``
(the set-up cost perfbench reports as ``setup_s``), the two trees
alternating (A B, B A, A B, ...).  Prints each tree's median wall time
per stage, the quartiles and IQR of its pipeline time (the sum over
stages), the same for CPU time (user plus system, so a stage that keeps
a second core busy shows) and for the probe's wall time, and in how
many rounds each tree's pipeline and probe were the faster.  Start-up
and exit cost is part of every number, which an in-process trace does
not show.

    python3 scripts/time_stages.py OLD/src NEW/src --workload hostile-mix --rounds 30

The bundle lives in a temporary directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from time_topics import run_stage, spawn

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "setup_probe.py"
SEED = 1


def build_bundle(directory: Path, name: str) -> tuple[str, ...]:
    """Write the recipe's bundle; returns the workload's stages."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import generate

    workload = generate.WORKLOADS[name]
    generate.write_bundle(directory, workload, SEED)
    return workload.stages


def run_pipeline(src: Path, bundle: Path, out: Path,
                 stages: tuple[str, ...]) -> list[tuple[float, float]]:
    """(wall seconds, CPU seconds) of each stage, run in order into an
    emptied ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    return [run_stage(src, bundle, out, stage)[:2] for stage in stages]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs=2, type=Path, help="two directories holding postmine/")
    parser.add_argument("--workload", default="hostile-mix", help="a perfbench recipe")
    parser.add_argument("--rounds", type=int, default=10, help="pipelines per tree")
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src]
    for src in trees:
        if not (src / "postmine" / "cli.py").is_file():
            parser.error(f"{src} holds no postmine/cli.py")

    with tempfile.TemporaryDirectory(prefix="time_stages-") as tmp:
        bundle = Path(tmp) / "bundle"
        stages = build_bundle(bundle, args.workload)
        outs = [Path(tmp) / f"out{i}" for i in range(len(trees))]
        samples: list[list[list[tuple[float, float]]]] = [[] for _ in trees]
        probes: list[list[float]] = [[] for _ in trees]
        for run in range(args.rounds):
            order = range(len(trees)) if run % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                samples[i].append(run_pipeline(trees[i], bundle, outs[i], stages))
                probes[i].append(spawn([sys.executable, str(PROBE)], trees[i], bundle)[0])

    print(f"{args.workload}, seed {SEED}, {args.rounds} alternating pipelines per tree")
    print("tree      " + "".join(f"{stage:>11s}" for stage in stages)
          + "   pipeline median   q1      q3      IQR")
    totals = [[sum(wall for wall, _ in run) for run in runs] for runs in samples]
    for label, runs, probe in zip("AB", samples, probes):
        for i, kind in enumerate(("wall", "CPU")):
            seconds = [[stage[i] for stage in run] for run in runs]
            medians = [statistics.median(column) for column in zip(*seconds)]
            print(f"{label} {kind:4s}    " + "".join(f"{m:11.3f}" for m in medians)
                  + _quartiles([sum(run) for run in seconds]))
        print(f"{label} setup   " + " " * 11 * len(stages) + _quartiles(probe))
    wins = sum(b < a for a, b in zip(*totals))
    probe_wins = sum(b < a for a, b in zip(*probes))
    print(f"B faster in {wins} of {args.rounds} rounds, its setup probe in {probe_wins}; "
          f"A is {trees[0]}, B is {trees[1]}")
    return 0


def _quartiles(seconds: list[float]) -> str:
    """Median, q1, q3 and IQR, in the columns of the header."""
    q1, median, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    return f"   {median:15.3f} {q1:7.3f} {q3:7.3f} {q3 - q1:7.3f}"


if __name__ == "__main__":
    sys.exit(main())
