"""Time every stage of two source trees, each stage a fresh process.

The bundle is ``perfbench/generate.py``'s recipe for ``--workload`` at
seed 1, or ``topics-2k`` / ``topics-20k``: the ``topics-small`` recipe
with 2000 / 20,000 typical posts and ``iters=200``, stages ``ingest``
and ``topics``.  Each round runs, once per tree, the workload's whole
pipeline, every stage as a fresh ``python -m postmine.cli`` subprocess
into that tree's own emptied output directory, and then
``perfbench/setup_probe.py`` (the set-up cost
perfbench reports as ``setup_s``), the two trees alternating (A B, B A,
A B, ...).  Prints each tree's median wall time, median CPU time (user
plus system, so a stage that keeps a second core busy shows) and largest
peak RSS per stage, the quartiles and IQR of its pipeline wall and CPU
time (the sum over stages) and of the probe's wall time, and in how
many rounds tree B's pipeline, its probe and each of its stages were
the faster, which shows where a saving lands.  Start-up
and exit cost is part of every number, which an in-process trace does
not show.  Then it compares the two output directories of the last
round file by file: "identical", "DIFFERS", or which tree alone wrote
the file.

A child's peak RSS starts at its parent's, so the bundle is built in a
child process and this process never loads ``generate`` or numpy.  Its
own peak RSS after the last round, printed last, is the floor of every
RSS reading.  That is ``VmHWM``, not ``ru_maxrss``, which would also
count the peak of whatever started this script; the children do not
inherit that.

    python3 scripts/time_stages.py OLD/src NEW/src --workload hostile-mix --rounds 30
    python3 scripts/time_stages.py OLD/src NEW/src --workload topics-2k --rounds 5
    python3 scripts/time_stages.py OLD/src NEW/src --workload topics-20k --rounds 2

The bundle lives in a temporary directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "setup_probe.py"
SEED = 1
# the ``topics-small`` recipe at a larger size: name -> typical posts
TOPICS_SIZES = {"topics-2k": 2000, "topics-20k": 20000}


def build_bundle(directory: str | Path, name: str) -> tuple[str, ...]:
    """Write the bundle of ``name``, a perfbench recipe or a key of
    ``TOPICS_SIZES``; returns its stages.  Those keep the workload name
    ``topics-small``, whose CRC seeds the generator."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import dataclasses

    import generate

    if name not in TOPICS_SIZES:
        generate.write_bundle(directory, generate.WORKLOADS[name], SEED)
        return generate.WORKLOADS[name].stages
    workload = dataclasses.replace(generate.WORKLOADS["topics-small"],
                                   typical_posts=TOPICS_SIZES[name],
                                   stages=("ingest", "topics"))
    generate.write_bundle(directory, workload, SEED)
    config_path = Path(directory) / "config.json"
    config = json.loads(config_path.read_text("utf-8"))
    config["topics"]["iters"] = 200
    config_path.write_text(json.dumps(config, indent=2), "utf-8")
    return workload.stages


def build_bundle_in_child(directory: Path, name: str) -> tuple[str, ...]:
    """``build_bundle`` in a fresh interpreter, so that this process
    stays small; exits the script when it fails."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, time_stages; "
         "print(*time_stages.build_bundle(*sys.argv[1:]))", str(directory), name],
        cwd=Path(__file__).resolve().parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"building the {name} bundle failed: {proc.stderr}")
    return tuple(proc.stdout.split())


def spawn(argv: list[str], src: Path, cwd: Path) -> tuple[float, float, float]:
    """Run ``argv`` in ``cwd`` with ``src`` on PYTHONPATH, timed from
    spawn to exit: (wall seconds, CPU seconds, peak RSS MB).  CPU seconds
    are the child's user plus system time.  Exits the script when the
    child fails."""
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


def run_pipeline(src: Path, bundle: Path, out: Path,
                 stages: tuple[str, ...]) -> list[tuple[float, float, float]]:
    """``spawn``'s reading of each stage, run in order as a fresh
    ``python -m postmine.cli`` into an emptied ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    return [spawn([sys.executable, "-m", "postmine.cli", "--config", "config.json",
                   "--out", str(out), stage], src, bundle) for stage in stages]


def own_peak_rss() -> float:
    """This process's peak RSS in MB, ``VmHWM`` of Linux's
    ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def compare_outputs(a: Path, b: Path) -> dict[str, str]:
    """For each file in either directory: "identical", "DIFFERS", or
    which of A and B alone wrote it."""
    verdicts = {}
    for name in sorted({p.name for out in (a, b) if out.is_dir() for p in out.iterdir()}):
        if not ((a / name).is_file() and (b / name).is_file()):
            verdicts[name] = f"DIFFERS (only {'A' if (a / name).is_file() else 'B'} wrote it)"
        elif (a / name).read_bytes() == (b / name).read_bytes():
            verdicts[name] = "identical"
        else:
            verdicts[name] = "DIFFERS"
    return verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs=2, type=Path, help="two directories holding postmine/")
    parser.add_argument("--workload", default="hostile-mix",
                        help=f"a perfbench recipe or one of {', '.join(TOPICS_SIZES)}")
    parser.add_argument("--rounds", type=int, default=10, help="pipelines per tree")
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src]
    for src in trees:
        if not (src / "postmine" / "cli.py").is_file():
            parser.error(f"{src} holds no postmine/cli.py")

    with tempfile.TemporaryDirectory(prefix="time_stages-") as tmp:
        bundle = Path(tmp) / "bundle"
        stages = build_bundle_in_child(bundle, args.workload)
        outs = [Path(tmp) / f"out{i}" for i in range(len(trees))]
        samples: list[list[list[tuple[float, float, float]]]] = [[] for _ in trees]
        probes: list[list[float]] = [[] for _ in trees]
        for run in range(args.rounds):
            order = range(len(trees)) if run % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                samples[i].append(run_pipeline(trees[i], bundle, outs[i], stages))
                probes[i].append(spawn([sys.executable, str(PROBE)], trees[i], bundle)[0])
        floor = own_peak_rss()
        verdicts = compare_outputs(*outs)

    print(f"{args.workload}, seed {SEED}, {args.rounds} alternating pipelines per tree")
    print("tree      " + "".join(f"{stage:>11s}" for stage in stages)
          + "   pipeline median   q1      q3      IQR")
    totals = [[sum(wall for wall, _, _ in run) for run in runs] for runs in samples]
    for label, runs, probe in zip("AB", samples, probes):
        for i, kind in enumerate(("wall", "CPU")):
            seconds = [[stage[i] for stage in run] for run in runs]
            medians = [statistics.median(column) for column in zip(*seconds)]
            print(f"{label} {kind:4s}    " + "".join(f"{m:11.3f}" for m in medians)
                  + _quartiles([sum(run) for run in seconds]))
        peaks = [max(stage[2] for stage in column) for column in zip(*runs)]
        print(f"{label} RSS MB  " + "".join(f"{peak:11.1f}" for peak in peaks))
        print(f"{label} setup   " + " " * 11 * len(stages) + _quartiles(probe))
    stage_wins = [sum(b[j][0] < a[j][0] for a, b in zip(*samples))
                  for j in range(len(stages))]
    print("B faster" + "".join(f"{wins:11d}" for wins in stage_wins)
          + f"   rounds of {args.rounds}")
    wins = sum(b < a for a, b in zip(*totals))
    probe_wins = sum(b < a for a, b in zip(*probes))
    print(f"B faster in {wins} of {args.rounds} rounds, its setup probe in {probe_wins}; "
          f"A is {trees[0]}, B is {trees[1]}")
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    print(f"peak RSS of this script {floor:.1f} MB, the floor of every RSS reading")
    return 0


def _quartiles(seconds: list[float]) -> str:
    """Median, q1, q3 and IQR, in the columns of the header."""
    q1, median, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    return f"   {median:15.3f} {q1:7.3f} {q3:7.3f} {q3 - q1:7.3f}"


if __name__ == "__main__":
    sys.exit(main())
