from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from postmine import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_time_stages_reads_rss_and_compares_outputs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_stages.py"), str(SRC), str(SRC),
         "--workload", "topics-small", "--rounds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for label in "AB":
        row = next(line for line in lines if line.startswith(f"{label} RSS MB"))
        assert len(row.split()[3:]) == 6          # one peak per stage
    wins = next(line for line in lines if line.startswith("B faster ")).split()[2:8]
    assert all(count in ("0", "1") for count in wins)   # one count per stage
    floor = re.search(r"peak RSS of this script (\d+\.\d) MB", proc.stdout)
    assert floor and float(floor.group(1)) < 30.0
    for name in (cli.CORPUS_ARTIFACT, cli.INGEST_SUMMARY, cli.TOPIC_MODEL, cli.TOPIC_REPORT,
                 cli.VOCAB_ARTIFACT, cli.TRIPLES_ARTIFACT, cli.SENTIMENT_REPORT,
                 cli.REGRESSION_REPORT, cli.COMBINED_REPORT):
        assert f"{name}: identical" in lines
    assert "DIFFERS" not in proc.stdout


def test_same_outputs_starts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_outputs.py"), "--help"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_selftest_passes():
    # perfbench patches the stage modules' public functions and reads
    # fields of their results, so a rename in the package breaks it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout, proc.stdout
