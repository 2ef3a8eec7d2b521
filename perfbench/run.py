"""postmine batch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/``.
The seed selects the generated input bundle (``generate.py``); the same
seed gives byte-identical inputs.  The bundle is written to
``perfbench/_work/<workload>/`` and left there for inspection.

``--trace 0`` runs the workload's stages as fresh ``postmine``
subprocesses, one at a time, the way users run the CLI (batch, closed
loop, one client), and repeats the whole pipeline until ``--seconds``
have passed (at least three times).  It reports end-to-end metrics as
medians over the repetitions.  ``--trace 1`` runs the same stages in
this process, alternating an untraced pipeline with one traced by
``tracing.Tracer``, and reports per-layer metrics.

Every stage exit code and report schema is checked, ``out_dir`` must be
byte-identical across repetitions, and traced artifacts must equal
untraced ones.  Each stage invocation and each check is one attempted
operation.  Every metric is printed with its unit, quartiles and sample
count; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics listed in ``BENCHMARK.json``
for the chosen trace mode.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_REPS = 3
SETUP_SAMPLES = 5

REGRESSION_HEADER = "feature,coefficient,std_err,t_stat,p_value"
REGRESSION_FEATURES = ("M/F Ratio", "Enrollment", "Private", "Northeast", "West",
                       "South", "Normalized cases count", "constant")
SENTIMENT_HEADER = ("harassment_type,participant,event_sentiment,"
                    "affected_sentiment,percentage")


class Checks:
    """Attempted and failed operations; failures are printed as they occur."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", flush=True)
        return ok


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def digest(directory: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            sha.update(path.relative_to(directory).as_posix().encode() + b"\0")
            sha.update(path.read_bytes())
    return sha.hexdigest()


def check_outputs(out: Path, stages: tuple[str, ...], expect: dict, checks: Checks) -> None:
    """Report schemas and record counts of one pipeline's ``out_dir``."""
    counts = [line for line in _lines(out / "ingest_summary.txt") if line.startswith("posts_")]
    expected = [f"posts_ingested={expect['posts']}", f"posts_after_dedup={expect['posts_kept']}"]
    checks.check(counts == expected, f"ingest_summary.txt has {counts}, expected {expected}")
    lines = _lines(out / "regression_report.csv")
    checks.check(len(lines) == len(REGRESSION_FEATURES) + 2
                 and lines[0] == REGRESSION_HEADER
                 and tuple(line.split(",")[0] for line in lines[1:-1]) == REGRESSION_FEATURES
                 and re.fullmatch(r"# n=40 p=8 r_squared=\S+", lines[-1]) is not None,
                 "regression_report.csv header, feature order or '# n=' footer")
    lines = _lines(out / "sentiment_report.csv")
    checks.check(len(lines) >= 3 and lines[0] == SENTIMENT_HEADER
                 and re.fullmatch(r"# coverage=[01]\.\d{4}", lines[-1]) is not None,
                 "sentiment_report.csv header or '# coverage=' footer")
    checks.check(len(_lines(out / "triples.tsv")) > 0, "triples.tsv is empty")
    if "topics" in stages:
        lines = _lines(out / "topic_report.csv")
        checks.check(len(lines) >= 3 and lines[0] == "topic,keywords"
                     and re.match(r"# selected_k=\d+ ", lines[-1]) is not None,
                     "topic_report.csv header or '# selected_k=' footer")


def _lines(path: Path) -> list[str]:
    return path.read_text("utf-8").splitlines() if path.is_file() else []


def stage_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, max RSS MB)."""
    with open(log, "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=stage_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(bundle: Path, checks: Checks) -> list[float]:
    """Spawn-to-exit time of a fresh interpreter that imports the CLI and
    loads the config and every static input, after one warm-up."""
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        code, wall, _ = spawn(argv, bundle, bundle / "stages.log")
        if checks.check(code == 0, f"setup probe exited {code}") and i > 0:
            samples.append(wall)
    return samples


def run_untraced(workload, bundle: Path, facts: dict, seconds: float,
                 checks: Checks) -> dict:
    out = bundle / "out"
    reps: list[dict] = []
    first = None
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start + _typical(reps) <= seconds:
        shutil.rmtree(out, ignore_errors=True)
        rep = {"wall_s": 0.0, "peak_rss_mb": 0.0}
        for stage in workload.stages:
            argv = [sys.executable, "-m", "postmine.cli", "--config", "config.json", stage]
            code, wall, rss = spawn(argv, bundle, bundle / "stages.log")
            checks.check(code == 0, f"stage {stage} exited {code}")
            rep[f"{stage}_s"] = wall
            rep["wall_s"] += wall
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
        rep["posts_per_s"] = facts["posts"] / rep["wall_s"]
        check_outputs(out, workload.stages, facts, checks)
        if first is None:
            first = digest(out)
        else:
            checks.check(digest(out) == first, "out_dir differs between repetitions")
        reps.append(rep)
    return {name: summary([rep[name] for rep in reps]) for name in reps[0]}


def _typical(reps: list[dict]) -> float:
    return statistics.median(rep["wall_s"] for rep in reps)


def run_inprocess(workload, bundle: Path, checks: Checks, tracer=None) -> float:
    """One pipeline in this process; returns the summed stage time."""
    from postmine import cli

    shutil.rmtree(bundle / "out", ignore_errors=True)
    total = 0.0
    previous = Path.cwd()
    os.chdir(bundle)
    try:
        for stage in workload.stages:
            call = cli.main if tracer is None else tracer.span(f"cli.{stage}", cli.main)
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = call(["--config", "config.json", stage])
                total += perf_counter() - start
            checks.check(code == 0, f"in-process stage {stage} exited {code}")
    finally:
        os.chdir(previous)
    return total


def layer_metrics(tracer, facts: dict, out: Path) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline."""
    self_s = tracer.self_times()
    counts = tracer.counts
    agg = tracer.aggregates
    stage_s = sum(end - start for name, start, end, parent, _ in tracer.spans
                  if parent is None)
    pre = tracer.durations("textprep.preprocess")
    pre_pct, pre_tail = tracing.tail(pre)
    segment = agg["textprep.segment"]
    spelling = agg["textprep.correct_spelling"]
    sweeps = counts.get("topics.sweeps", 0)
    kept = counts.get("corpus.posts_kept", 0)
    coverage = _lines(out / "sentiment_report.csv")[-1].split("=", 1)[1]
    return {
        "corpus.ingest_posts_s": self_s.get("corpus.ingest_posts", 0.0),
        "corpus.dedup_s": self_s.get("corpus.dedup", 0.0),
        "corpus.read_corpus_s": self_s.get("corpus.read_corpus", 0.0),
        "corpus.attach_labels_s": self_s.get("corpus.attach_labels", 0.0),
        "corpus.posts_in": counts.get("corpus.posts_in", 0),
        "corpus.posts_kept": kept,
        "corpus.labels_unmatched": counts.get("corpus.labels_unmatched", 0),
        "textprep.preprocess_s": self_s.get("textprep.preprocess", 0.0),
        "textprep.preprocess_calls": len(pre),
        "textprep.passes_per_post": len(pre) / kept,
        "textprep.preprocess_p50_ms": 1000.0 * statistics.median(pre),
        "textprep.preprocess_tail_ms": 1000.0 * pre_tail,
        "textprep.preprocess_tail_pct": pre_pct,
        "textprep.preprocess_max_ms": 1000.0 * max(pre),
        "textprep.tokenize_s": agg["textprep.tokenize"].total,
        "textprep.correct_spelling_s": spelling.total,
        "textprep.correct_spelling_calls": spelling.calls,
        "textprep.correct_spelling_max_ms": 1000.0 * spelling.max,
        "textprep.segment_s": segment.total,
        "textprep.segment_calls": segment.calls,
        "textprep.segment_repeat_frac":
            1.0 - len(segment.distinct_args) / segment.calls if segment.calls else 0.0,
        "textprep.segment_max_ms": 1000.0 * segment.max,
        "textprep.load_s": self_s.get("textprep.load_correction_dictionary", 0.0)
            + self_s.get("textprep.load_language_model", 0.0),
        "topics.build_vocab_s": self_s.get("topics.build_vocab", 0.0),
        "topics.tfidf_s": self_s.get("topics.tfidf", 0.0),
        "topics.nnz": counts.get("topics.nnz", 0),
        "topics.vocab_terms": counts.get("topics.vocab_terms", 0),
        "topics.fit_lda_s": self_s.get("topics.fit_lda", 0.0),
        "topics.fit_lda_share": self_s.get("topics.fit_lda", 0.0) / stage_s,
        "topics.sweeps": sweeps,
        "topics.sweep_ms": 1000.0 * self_s.get("topics.fit_lda", 0.0) / sweeps if sweeps else 0.0,
        "topics.coherence_s": self_s.get("topics.coherence", 0.0),
        "topics.selected_k": counts.get("topics.selected_k", 0),
        "events.extract_triples_s": self_s.get("events.extract_triples", 0.0),
        "events.triples": len(_lines(out / "triples.tsv")),
        "events.write_triples_s": self_s.get("events.write_triples", 0.0),
        "connotation.load_s": self_s.get("connotation.load_lexicon", 0.0)
            + self_s.get("connotation.load_embeddings", 0.0),
        "connotation.propagate_calls": tracer.calls("connotation.propagate"),
        "connotation.nearest_annotated_s": self_s.get("connotation.nearest_annotated", 0.0),
        "connotation.nearest_annotated_calls": tracer.calls("connotation.nearest_annotated"),
        "connotation.aggregate_s": self_s.get("connotation.aggregate", 0.0),
        "connotation.coverage": float(coverage),
        "stats.ols_fit_s": self_s.get("stats.ols_fit", 0.0),
        "stats.institutions": counts.get("stats.institutions", 0),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "workload.hostile_share": facts["hostile_share"],
        "workload.unannotated_verb_share": facts["unannotated_verb_share"],
        "workload.distinct_words": facts["distinct_words"],
    }


def run_traced(workload, bundle: Path, facts: dict, seconds: float,
               checks: Checks, catalog: dict) -> dict:
    out = bundle / "out"
    untraced_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict[str, float]] = []
    reference = None
    start = perf_counter()
    while not layers or (perf_counter() - start) * (1 + 1 / len(layers)) <= seconds:
        untraced_s.append(run_inprocess(workload, bundle, checks))
        check_outputs(out, workload.stages, facts, checks)
        if reference is None:
            reference = digest(out)
        else:
            checks.check(digest(out) == reference, "out_dir differs between repetitions")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s.append(run_inprocess(workload, bundle, checks, tracer))
        finally:
            tracer.restore()
        checks.check(digest(out) == reference, "traced artifacts differ from untraced")
        layers.append(layer_metrics(tracer, facts, out))
    tracer.dump(bundle / "spans.jsonl")

    for name, value in layers[0].items():
        if catalog[name]["unit"] == "count":
            checks.check(all(rep[name] == value for rep in layers),
                         f"count {name} differs between repetitions")
    result = {name: summary([rep[name] for rep in layers]) for name in layers[0]}
    result["trace_overhead_frac"] = summary(
        [statistics.median(traced_s) / statistics.median(untraced_s) - 1.0])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "postmine" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'postmine'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import generate

    workload = generate.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(generate.WORKLOADS)}", file=sys.stderr)
        return 2
    catalog = {m["name"]: m for m in json.loads((HERE / "metrics.json").read_text("utf-8"))}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    reported = declared["per_layer" if args.trace else "end_to_end"]

    bundle = WORK / workload.name
    shutil.rmtree(bundle, ignore_errors=True)
    facts = generate.write_bundle(bundle, workload, args.seed)
    print(f"workload {workload.name} seed {args.seed}: {json.dumps(facts)}", flush=True)

    checks = Checks()
    if args.trace:
        results = run_traced(workload, bundle, facts, args.seconds, checks, catalog)
    else:
        results = {"setup_s": summary(measure_setup(bundle, checks))}
        results.update(run_untraced(workload, bundle, facts, args.seconds, checks))
    results["failed_frac"] = summary([checks.failed / checks.attempted])

    for name, stats in results.items():
        stats["unit"] = catalog[name]["unit"]
        print(f"{name:38s} {stats['value']:>14.6g} {stats['unit']:6s} "
              f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']}")
    with open(bundle / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "inputs": facts, "attempted": checks.attempted, "failed": checks.failed,
                   "metrics": results}, fh, indent=1)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": results[m["name"]]["value"], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
