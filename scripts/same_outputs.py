"""Check that two source trees run every stage alike and write the same
``out_dir`` files.

Runs every stage of each bundle below once per tree, each stage as a
fresh ``python -m postmine.cli`` subprocess (``topics`` with ``-v``, so
its per-K lines are compared too), and compares each stage's exit code,
stdout and stderr, then the two output directories file by file:

- the demo bundle (``postmine.demo``, seed 42), all six stages;
- ``perfbench/generate.py``'s ``topics-small`` and ``hostile-mix``
  recipes at seeds 1-4, each with its workload's stages.

The bundles are built from this checkout, as ``scripts/time_topics.py``
builds its bundle.  Prints "identical" or "DIFFERS" for every stage and
every file, and exits 1 on any difference, a stage or file that only one
tree ran or wrote, or a stage that fails.

    python3 scripts/same_outputs.py OLD/src NEW/src

The bundles live in a temporary directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_SEED = 42
RECIPES = ("topics-small", "hostile-mix")
SEEDS = (1, 2, 3, 4)


def build_bundles(directory: Path) -> list[tuple[str, Path, tuple[str, ...]]]:
    """(name, bundle directory, stages) for every bundle of the check."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import generate
    from postmine import demo

    bundles = []
    path = directory / f"demo-{DEMO_SEED}"
    demo.write_demo_bundle(path, DEMO_SEED)
    bundles.append((path.name, path, generate.ALL_STAGES))
    for name in RECIPES:
        workload = generate.WORKLOADS[name]
        for seed in SEEDS:
            path = directory / f"{name}-{seed}"
            generate.write_bundle(path, workload, seed)
            bundles.append((path.name, path, workload.stages))
    return bundles


def run_stages(src: Path, bundle: Path, out: Path,
               stages: tuple[str, ...]) -> list[subprocess.CompletedProcess]:
    """Run ``stages`` in order, up to and including the first that fails."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    runs = []
    for stage in stages:
        verbose = ["-v"] if stage == "topics" else []
        runs.append(subprocess.run(
            [sys.executable, "-m", "postmine.cli", "--config", "config.json",
             "--out", str(out), *verbose, stage],
            cwd=bundle, env=env, capture_output=True, text=True))
        if runs[-1].returncode != 0:
            break
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs=2, type=Path, help="two directories holding postmine/")
    args = parser.parse_args(argv)
    trees = [src.resolve() for src in args.src]
    for src in trees:
        if not (src / "postmine" / "cli.py").is_file():
            parser.error(f"{src} holds no postmine/cli.py")

    same = True
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        for name, bundle, stages in build_bundles(Path(tmp)):
            outs = [Path(tmp) / f"{name}-out{i}" for i in range(len(trees))]
            runs = [run_stages(src, bundle, out, stages) for src, out in zip(trees, outs)]
            for label, tree_runs in zip("AB", runs):
                failed = tree_runs[-1]
                if failed.returncode != 0:
                    print(f"{name}: {label} {failed.args[-1]} exited {failed.returncode}: "
                          f"{failed.stderr.strip()}")
                    same = False
            for i, stage in enumerate(stages[:max(map(len, runs))]):
                a, b = (tree_runs[i] if i < len(tree_runs) else None for tree_runs in runs)
                for part, key in (("exit code, stdout", lambda r: (r.returncode, r.stdout)),
                                  ("stderr", lambda r: r.stderr)):
                    if a is None or b is None:
                        verdict = f"DIFFERS (only {'A' if a else 'B'} ran it)"
                    elif key(a) == key(b):
                        verdict = "identical"
                    else:
                        verdict = "DIFFERS"
                    same = same and verdict == "identical"
                    print(f"{name}/{stage} ({part}): {verdict}")
            files = sorted({p.name for out in outs if out.is_dir() for p in out.iterdir()})
            for file in files:
                a, b = (out / file for out in outs)
                if not (a.is_file() and b.is_file()):
                    verdict = f"DIFFERS (only {'A' if a.is_file() else 'B'} wrote it)"
                elif a.read_bytes() == b.read_bytes():
                    verdict = "identical"
                else:
                    verdict = "DIFFERS"
                same = same and verdict == "identical"
                print(f"{name}/{file}: {verdict}")
    print("all identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
