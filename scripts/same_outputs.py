"""Check that two source trees run every stage alike and write the same
``out_dir`` files.

Runs every stage of each bundle below once per tree, each stage as a
fresh ``python -m postmine.cli`` subprocess (``topics`` with ``-v``, so
its per-K lines are compared too) whether or not an earlier stage
failed, and compares each stage's exit code, stdout and stderr, then the
two output directories file by file:

- the demo bundle (``postmine.demo``, seed 42), all six stages;
- ``perfbench/generate.py``'s ``topics-small`` and ``hostile-mix``
  recipes at seeds 1-4, each with its workload's stages;
- for each input file of the demo config, a copy of the demo bundle
  whose file ends with the byte 0xff, all six stages: the malformed-line
  warning for ``posts``, the "is not valid UTF-8" data error of the
  loader for every other file;
- a copy of the demo bundle whose six line-based inputs (lexicon,
  embeddings, language model, abbreviations, word list and censored
  list) each start with a ``#`` comment line and a blank line, all six
  stages: every line-based loader skips both;
- a copy of the demo bundle with the labeled posts of ``WINDOW_TEXTS``
  added, all six stages: they place a verb at sentence positions 0-6, a
  "by" 1-6 tokens after a passive verb, and sentence-final punctuation
  inside a window, so every window edge of ``events`` is crossed;
- a copy of the demo bundle whose config key ``triples`` names a copy
  of the ``triples.tsv`` that ``events`` writes for it, with the data
  rows shuffled by ``random.Random(0)``; stages ``ingest``,
  ``sentiment`` and ``report``.  It is the one bundle that imports
  triples, and their order must not show in the sentiment report;
- two bundles where coherence decides the most, stages ``ingest`` and
  ``topics``: the demo bundle with ``k_candidates`` removed from its
  config, so the default K range 2..20 runs (19 fits), and
  ``scripts/time_stages.py``'s ``topics-2k`` bundle (2000 posts,
  ``iters=200``).

Both trees write to the same output path in turn, so paths in messages
match.  The bundles are built from this checkout, as
``scripts/time_stages.py`` builds its bundle, and the output directories
are compared with its ``compare_outputs``.  Prints "identical" or
"DIFFERS" for every stage and every file (after a differing stderr, the
lines that only one tree printed, marked ``A:`` or ``B:``, so that a
stated message change can be listed old -> new), and exits 1 on any
difference, a file that only one tree wrote, or a stage that fails on a
bundle that is not corrupted.

    python3 scripts/same_outputs.py OLD/src NEW/src

The bundles live in a temporary directory that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import time_stages

ROOT = Path(__file__).resolve().parent.parent
DEMO_SEED = 42
RECIPES = ("topics-small", "hostile-mix")
SEEDS = (1, 2, 3, 4)
CORRUPTED_KEYS = ("posts", "institutions", "labels", "lexicon", "embeddings",
                  "language_model", "abbreviations", "wordlist", "censored")
LINE_BASED_KEYS = ("lexicon", "embeddings", "language_model", "abbreviations",
                   "wordlist", "censored")
WINDOW_TEXTS = (
    # the verb at sentence positions 0-6, a candidate agent at position 0
    "grabbed the coach at the gym",
    *(f"coach {'the ' * (pos - 1)}grabbed me" for pos in range(1, 7)),
    # "by" 1-6 tokens after a passive verb, then its object 5 and 6 tokens on
    *(f"i was followed {'the ' * (gap - 1)}by my coach" for gap in range(1, 7)),
    "i was followed by the the the the coach",
    "i was followed by the the the the the coach",
    # sentence-final punctuation inside a window
    "the coach. grabbed me", "he harassed! me", "i was followed? by my coach",
    "i was followed by\u2026 the coach", "she ... grabbed him", "was. harassed by him",
    # a passive auxiliary 3 and 4 tokens before the verb
    "i was the the followed by him", "i was the the the followed by him",
)


def build_bundles(directory: Path) -> list[tuple[str, Path, tuple[str, ...], bool]]:
    """(name, bundle directory, stages, whether an input is corrupted) for
    every bundle of the check."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import generate
    from postmine import demo

    bundles = []
    path = directory / f"demo-{DEMO_SEED}"
    demo.write_demo_bundle(path, DEMO_SEED)
    bundles.append((path.name, path, generate.ALL_STAGES, False))
    for name in RECIPES:
        workload = generate.WORKLOADS[name]
        for seed in SEEDS:
            path = directory / f"{name}-{seed}"
            generate.write_bundle(path, workload, seed)
            bundles.append((path.name, path, workload.stages, False))
    for key in CORRUPTED_KEYS:
        path = directory / f"demo-{DEMO_SEED}-bad-{key}"
        with open(demo.write_demo_bundle(path, DEMO_SEED)[key], "ab") as handle:
            handle.write(b"\xff")
        bundles.append((path.name, path, generate.ALL_STAGES, True))
    path = directory / f"demo-{DEMO_SEED}-commented"
    files = demo.write_demo_bundle(path, DEMO_SEED)
    for key in LINE_BASED_KEYS:
        files[key].write_bytes(b"# generated by postmine.demo\n\n" + files[key].read_bytes())
    bundles.append((path.name, path, generate.ALL_STAGES, False))
    path = directory / f"demo-{DEMO_SEED}-windows"
    files = demo.write_demo_bundle(path, DEMO_SEED)
    with open(files["posts"], "a", encoding="utf-8") as posts, \
            open(files["labels"], "a", encoding="utf-8") as labels:
        for i, text in enumerate(WINDOW_TEXTS):
            posts.write(json.dumps({"post_id": f"w{i:02d}", "user_id": f"wuser{i:02d}",
                                    "institution_id": "u001", "timestamp": 1509000000 + i,
                                    "text": text}) + "\n")
            labels.write(f"w{i:02d},physical,peer\n")
    bundles.append((path.name, path, generate.ALL_STAGES, False))
    path = directory / f"demo-{DEMO_SEED}-imported-triples"
    bundles.append((path.name, imported_triples_bundle(path),
                    ("ingest", "sentiment", "report"), False))
    path = directory / f"demo-{DEMO_SEED}-default-k"
    config = demo.write_demo_bundle(path, DEMO_SEED)["config"]
    settings = json.loads(config.read_text("utf-8"))
    del settings["topics"]["k_candidates"]
    config.write_text(json.dumps(settings, indent=2), "utf-8")
    bundles.append((path.name, path, ("ingest", "topics"), False))
    path = directory / "topics-2k"
    bundles.append((path.name, path, time_stages.build_bundle(path, path.name),
                    False))
    return bundles


def imported_triples_bundle(path: Path) -> Path:
    """The demo bundle at ``path``, its config's ``triples`` pointing at
    a row-shuffled copy of its own ``events`` output made with this
    checkout's source."""
    from postmine import demo

    config = demo.write_demo_bundle(path, DEMO_SEED)["config"]
    out = path / "events-out"
    for run in run_stages(ROOT / "src", path, out, ("ingest", "events")):
        if run.returncode != 0:
            raise SystemExit(f"{path.name}: {run.args[-1]} failed: {run.stderr.strip()}")
    header, *rows = (out / "triples.tsv").read_bytes().splitlines(keepends=True)
    random.Random(0).shuffle(rows)
    triples = path / "triples-shuffled.tsv"
    triples.write_bytes(b"".join([header, *rows]))
    settings = json.loads(config.read_text("utf-8"))
    settings["triples"] = str(triples)
    config.write_text(json.dumps(settings, indent=2), "utf-8")
    return path


def run_stages(src: Path, bundle: Path, out: Path,
               stages: tuple[str, ...]) -> list[subprocess.CompletedProcess]:
    """Run every one of ``stages`` in order."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return [subprocess.run(
        [sys.executable, "-m", "postmine.cli", "--config", "config.json",
         "--out", str(out), *(["-v"] if stage == "topics" else []), stage],
        cwd=bundle, env=env, capture_output=True, text=True) for stage in stages]


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
        for name, bundle, stages, corrupted in build_bundles(Path(tmp)):
            work = Path(tmp) / f"{name}-out"
            outs = [Path(tmp) / f"{name}-out{i}" for i in range(len(trees))]
            runs = []
            for src, out in zip(trees, outs):
                runs.append(run_stages(src, bundle, work, stages))
                if work.exists():
                    work.rename(out)
            for label, tree_runs in zip("AB", runs):
                for failed in tree_runs:
                    if failed.returncode != 0 and not corrupted:
                        print(f"{name}: {label} {failed.args[-1]} exited "
                              f"{failed.returncode}: {failed.stderr.strip()}")
                        same = False
            for stage, a, b in zip(stages, *runs):
                for part, key in (("exit code, stdout", lambda r: (r.returncode, r.stdout)),
                                  ("stderr", lambda r: r.stderr)):
                    verdict = "identical" if key(a) == key(b) else "DIFFERS"
                    same = same and verdict == "identical"
                    print(f"{name}/{stage} ({part}): {verdict}")
                for label, run, other in (("A", a, b), ("B", b, a)):
                    theirs = set(other.stderr.splitlines())
                    for line in run.stderr.splitlines():
                        if line not in theirs:
                            print(f"    {label}: {line}")
            for file, verdict in time_stages.compare_outputs(*outs).items():
                same = same and verdict == "identical"
                print(f"{name}/{file}: {verdict}")
    print("all identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
