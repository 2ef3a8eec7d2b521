"""The demo pipeline's pinned outputs, ``fixtures/demo_outputs.json``.

The manifest holds, for the demo bundle at seed 42 run through
``STAGES``, each stage's stdout and the SHA-256 of every ``out_dir``
file.  ``topic_model.txt`` is held by value instead: its last bits
depend on the numpy build (``pyproject.toml`` allows numpy >= 1.24), so
its numbers are compared within ``TOPIC_MODEL_RTOL``.
``test_acceptance`` compares its own pipeline run with the manifest.  A
change that moves an output regenerates it, from the root of the
checkout, with

    PYTHONPATH=src python3 tests/demo_manifest.py

and lists the moved files in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

SEED = 42
STAGES = ("ingest", "topics", "events", "sentiment", "regress", "report")
MANIFEST = Path(__file__).resolve().parent / "fixtures" / "demo_outputs.json"
BY_VALUE = "topic_model.txt"
# a numpy build moves the fitted numbers by a few ulps, amplified by the
# fit's sweeps; any change of the model itself moves them by far more
TOPIC_MODEL_RTOL = 1e-6
REGENERATE = "PYTHONPATH=src python3 tests/demo_manifest.py"


def run_pipeline(config: Path) -> dict[str, str]:
    """Run ``STAGES`` in this process with the config at ``config`` and
    seed ``SEED``; returns each stage's stdout."""
    from postmine.cli import main

    stdout = {}
    for stage in STAGES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["--config", str(config), "--seed", str(SEED), stage])
        assert code == 0, (stage, code)
        stdout[stage] = buffer.getvalue()
    return stdout


def describe(out_dir: Path, stdout: dict[str, str]) -> dict:
    """The manifest of one run: its stdout per stage, and per file of
    ``out_dir`` its SHA-256, or for ``BY_VALUE`` its rows of numbers."""
    files: dict[str, object] = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == BY_VALUE:
            files[path.name] = [[float(x) for x in line.split("\t")]
                                for line in path.read_text("utf-8").splitlines()]
        else:
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"seed": SEED, "stages": list(STAGES), "stdout": stdout, "files": files}


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per stage stdout or file of ``actual`` that does not
    match ``expected``, naming it; empty when all match."""
    found = [f"stdout of {stage} differs" for stage in expected["stdout"]
             if actual["stdout"].get(stage) != expected["stdout"][stage]]
    want, got = expected["files"], actual["files"]
    found += [f"{name}: missing" for name in sorted(set(want) - set(got))]
    found += [f"{name}: not in the manifest" for name in sorted(set(got) - set(want))]
    for name in sorted(set(want) & set(got)):
        if name == BY_VALUE:
            if not _close(want[name], got[name]):
                found.append(f"{name}: values differ beyond rtol {TOPIC_MODEL_RTOL}")
        elif want[name] != got[name]:
            found.append(f"{name}: SHA-256 differs")
    return found


def _close(want: list[list[float]], got: list[list[float]]) -> bool:
    return (len(want) == len(got)
            and all(len(a) == len(b) for a, b in zip(want, got))
            and all(math.isclose(x, y, rel_tol=TOPIC_MODEL_RTOL, abs_tol=0.0)
                    for a, b in zip(want, got) for x, y in zip(a, b)))


def write_config(bundle_config: Path, run_dir: Path) -> Path:
    """A copy of the bundle's config that writes into ``run_dir/out``."""
    raw = json.loads(bundle_config.read_text("utf-8"))
    raw["out_dir"] = str(run_dir / "out")
    config = run_dir / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    return config


def main() -> int:
    from postmine.demo import write_demo_bundle

    with tempfile.TemporaryDirectory(prefix="demo_manifest-") as tmp:
        bundle = write_demo_bundle(Path(tmp) / "bundle", seed=SEED)
        run_dir = Path(tmp) / "run"
        run_dir.mkdir()
        stdout = run_pipeline(write_config(bundle["config"], run_dir))
        manifest = describe(run_dir / "out", stdout)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", "utf-8")
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
