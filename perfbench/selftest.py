"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
CATALOG = {m["name"]: m for m in json.loads((HERE / "metrics.json").read_text("utf-8"))}

TINY = {
    "topics-small": replace(generate.WORKLOADS["topics-small"], typical_posts=60),
    "hostile-mix": replace(generate.WORKLOADS["hostile-mix"], typical_posts=80,
                           hostile_posts=2, extra_verbs=40),
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generator_is_deterministic(tmp_path, name):
    first = generate.write_bundle(tmp_path / "a", TINY[name], seed=7)
    second = generate.write_bundle(tmp_path / "b", TINY[name], seed=7)
    other = generate.write_bundle(tmp_path / "c", TINY[name], seed=8)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert (tmp_path / "a" / "posts.jsonl").read_bytes() != (
        tmp_path / "c" / "posts.jsonl").read_bytes()
    assert other["posts_kept"] == first["posts_kept"]


def test_benchmark_json_matches_workloads_and_catalog():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in generate.WORKLOADS.values()]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        entry = CATALOG[metric["name"]]
        assert (metric["unit"], metric["better"]) == (entry["unit"], entry["better"])


@pytest.mark.parametrize("trace", [0, 1])
def test_output_metric_names_match_benchmark_json(monkeypatch, capsys, trace):
    monkeypatch.setattr(generate, "WORKLOADS", {"tiny": replace(TINY["hostile-mix"],
                                                                name="tiny")})
    monkeypatch.setattr(run, "MIN_REPS", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[0] for line in lines[:-1] if line and not line.startswith(
        ("workload ", "FAILED"))}
    assert printed <= set(CATALOG)


def test_wrappers_are_transparent(tmp_path):
    from postmine import textprep, topics

    workload = TINY["topics-small"]
    facts = generate.write_bundle(tmp_path, workload, seed=5)
    checks = run.Checks()
    run.run_inprocess(workload, tmp_path, checks)
    untraced = _files(tmp_path / "out")

    originals = {name: getattr(textprep, name) for name in ("segment", "preprocess")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_inprocess(workload, tmp_path, checks, tracer)
        lm = textprep.LanguageModel.from_counts({"speak": 3, "up": 5})
        assert textprep.segment("speakup", lm) == originals["segment"]("speakup", lm)
        with pytest.raises(ValueError):
            topics.fit_lda(None, k=1, seed=0)
    finally:
        tracer.restore()
    assert _files(tmp_path / "out") == untraced
    assert checks.attempted == 2 * len(workload.stages) and checks.failed == 0
    assert {name: getattr(textprep, name) for name in originals} == originals
    metrics = run.layer_metrics(tracer, facts, tmp_path / "out")
    assert metrics["corpus.posts_in"] == facts["posts"]
    assert metrics["corpus.posts_kept"] == facts["posts_kept"]
    assert 0 < metrics["topics.sweeps"] <= 3 * generate.TOPICS["iters"]
    assert set(metrics) <= set(CATALOG)


def test_self_time_excludes_children_and_folded_calls():
    tracer = tracing.Tracer()
    leaf = tracer.aggregate("leaf", lambda: None)
    inner = tracer.span("inner", lambda: leaf())
    outer = tracer.span("outer", lambda: (inner(), leaf()))
    outer()
    (_, o_start, o_end, o_parent, o_folded), (_, i_start, i_end, i_parent, i_folded) = (
        tracer.spans)
    assert (o_parent, i_parent) == (None, 0)
    times = tracer.self_times()
    assert times["outer"] == pytest.approx(o_end - o_start - (i_end - i_start) - o_folded)
    assert times["inner"] == pytest.approx(i_end - i_start - i_folded)
    assert sum(times.values()) == pytest.approx(o_end - o_start)
    assert tracer.aggregates["leaf"].calls == 2


def test_recursive_and_folded_calls_open_no_span():
    tracer = tracing.Tracer()

    def load(source):
        return wrapped_load("handle") if source == "path" else source

    wrapped_load = tracer.span("load", load)
    ingest = tracer.span("ingest", lambda source: source, fold_under=("reread",))
    reread = tracer.span("reread", lambda: ingest("path"))
    assert wrapped_load("path") == "handle"
    assert reread() == "path"
    assert ingest("raw") == "raw"
    assert [(span[0], span[3]) for span in tracer.spans] == [
        ("load", None), ("reread", None), ("ingest", None)]
