from __future__ import annotations

import ast
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from postmine import cli, connotation, corpus, events, stats, textprep, topics
from postmine.cli import (
    COMBINED_REPORT,
    CORPUS_ARTIFACT,
    INGEST_SUMMARY,
    REGRESSION_REPORT,
    SENTIMENT_REPORT,
    TOPIC_REPORT,
    TRIPLES_ARTIFACT,
    VOCAB_ARTIFACT,
    load_config,
    main,
)
from postmine.corpus import HarassmentType, Participant
from postmine.errors import ConfigError
from postmine.events import EventTriple

SRC = Path(__file__).resolve().parents[1] / "src"


def post_line(post_id, user_id="u1", institution_id="c1", timestamp=100,
              text="some words here"):
    return json.dumps({
        "post_id": post_id, "user_id": user_id, "institution_id": institution_id,
        "timestamp": timestamp, "text": text,
    })


def write_config(tmp_path, demo_bundle, name="config.json", **overrides):
    base = json.loads(demo_bundle["config"].read_text())
    base["out_dir"] = str(tmp_path / "out")
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


class TestConfig:
    def test_deeply_nested_config_is_one_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 200000)
        message = f"config {path} is not valid JSON: nested too deeply"
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == message
        assert main(["--config", str(path), "ingest"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_missing_posts_file_names_path(self, tmp_path, demo_bundle):
        missing = tmp_path / "nope.jsonl"
        config = write_config(tmp_path, demo_bundle, posts=str(missing))
        with pytest.raises(ConfigError, match="nope.jsonl"):
            load_config(config)

    def test_missing_seed_rejected(self, tmp_path, demo_bundle):
        raw = json.loads(demo_bundle["config"].read_text())
        del raw["seed"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle, bogus_key=1)
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(config)

    def test_flag_overrides(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle)
        loaded = load_config(config, seed_override=7, out_override=str(tmp_path / "x"))
        assert loaded.seed == 7
        assert loaded.out_dir.name == "x"

    def test_missing_posts_file_exits_one(self, tmp_path, demo_bundle, capsys):
        config = write_config(tmp_path, demo_bundle,
                              posts=str(tmp_path / "gone.jsonl"))
        code = main(["--config", str(config), "ingest"])
        assert code == 1
        assert "gone.jsonl" in capsys.readouterr().err

    # the run seed is the only seed, so ``topics`` has no "seed" setting
    @pytest.mark.parametrize("setting", [
        {"iters": 0}, {"iters": "8"}, {"min_df": 0}, {"top_words": 0},
        {"k_candidates": []}, {"k_candidates": [1]}, {"k_candidates": "abc"},
        {"k_candidates": [2, 2.5]}, {"k_candidates": [True, 3]},
        {"seed": 1}, {"alpha": 0.1},
    ], ids=repr)
    def test_bad_topics_setting_exits_one(self, tmp_path, demo_bundle, capsys, setting):
        topics = {**json.loads(demo_bundle["config"].read_text())["topics"], **setting}
        config = write_config(tmp_path, demo_bundle, topics=topics)
        (key,) = setting
        message = (f"topics.{key} must be " if key in cli.TopicsSettings._fields
                   else f"unknown topics setting(s): {key}")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(config)
        assert main(["--config", str(config), "ingest"]) == 1
        assert "config error: " + message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["topics", "propagation"])
    def test_settings_not_an_object_exit_one(self, tmp_path, demo_bundle, capsys,
                                             section):
        config = write_config(tmp_path, demo_bundle, **{section: [1]})
        assert main(["--config", str(config), "ingest"]) == 1
        err = capsys.readouterr().err
        assert f"config error: {section} settings must be a JSON object" in err

    def test_every_setting_has_one_rule(self):
        for record, rules in cli._SETTINGS.values():
            assert set(rules) == set(record._fields)

    def test_settings_keep_their_values(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle,
                              topics={"k_candidates": [3, 2], "iters": 5},
                              propagation={"min_similarity": 1})
        loaded = load_config(config)
        assert loaded.topics == cli.TopicsSettings(k_candidates=(3, 2), iters=5)
        assert loaded.propagation == cli.PropagationSettings(min_similarity=1)
        assert type(loaded.propagation.min_similarity) is int

    @pytest.mark.parametrize("flags, overrides", [
        ([], {"seed": -1}), (["--seed", "-1"], {}),
    ], ids=["config", "flag"])
    def test_negative_seed_exits_one(self, tmp_path, demo_bundle, capsys, flags,
                                     overrides):
        config = write_config(tmp_path, demo_bundle, **overrides)
        assert main(["--config", str(config), *flags, "ingest"]) == 1
        assert "config error: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("posts", 7), ("labels", ""), ("censored", ["x"]), ("triples", False),
        ("out_dir", 5), ("out_dir", ""),
    ], ids=repr)
    def test_path_value_not_a_string_exits_one(self, tmp_path, demo_bundle, capsys,
                                               key, value):
        config = write_config(tmp_path, demo_bundle, **{key: value})
        assert main(["--config", str(config), "ingest"]) == 1
        err = capsys.readouterr().err
        assert f"config error: config key '{key}' must be a non-empty string" in err

    def test_optional_path_may_be_null(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle, censored=None, triples=None)
        assert load_config(config).censored is None

    @pytest.mark.parametrize("setting", [
        {"k": 0}, {"k": 2.5}, {"k": True}, {"min_similarity": "x"},
        {"min_similarity": 1.5}, {"restarts": 2},
    ], ids=repr)
    def test_bad_propagation_setting_exits_one(self, tmp_path, demo_bundle, capsys,
                                               setting):
        config = write_config(tmp_path, demo_bundle, propagation=setting)
        (key,) = setting
        assert main(["--config", str(config), "ingest"]) == 1
        err = capsys.readouterr().err
        if key == "restarts":
            assert "config error: unknown propagation setting(s): restarts" in err
        else:
            assert f"config error: propagation.{key} must be " in err
        assert not (tmp_path / "out").exists()

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_prints_the_usage_paragraph(self, capsys):
        assert main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())    # argparse wraps it
        assert "Exit codes: 0 success, 1 usage or configuration error, 2 data error." in out
        for internal in ("_SETTINGS", "os._exit", "OPENBLAS"):
            assert internal not in out


_STAGE_IMPORTS_SCRIPT = """
import json, os, sys
from postmine import cli
code = cli.main(["--config", sys.argv[1], sys.argv[2]])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"code": code, "modules": sorted(sys.modules), "threads": threads,
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _run_stage_script(config: Path, stage: str, **env_vars: str) -> dict:
    """Run ``stage`` through ``cli.main`` in a fresh interpreter, with no
    OPENBLAS_NUM_THREADS unless given; returns what the script printed."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _STAGE_IMPORTS_SCRIPT, str(config), stage],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, (stage, proc.stderr)
    return result


# Modules each stage must never load, as top-level packages or full
# module names: numpy and the text-processing tables are most of a
# stage's start-up time, and dataclasses (with inspect, ast and dis),
# logging and scipy are used by no stage.
_NOWHERE = {"scipy", "dataclasses", "logging"}
_HEAVY_MODULES = _NOWHERE | {"numpy", "postmine.textprep", "postmine.events"}
_NOT_LOADED = {
    "ingest": _HEAVY_MODULES,
    "topics": _NOWHERE,
    "events": _NOWHERE | {"numpy"},
    "sentiment": _NOWHERE | {"numpy", "postmine.textprep"},
    "regress": _HEAVY_MODULES,
    "report": _HEAVY_MODULES | {"postmine.corpus"},
}


def test_each_stage_loads_only_what_it_runs(tmp_path, demo_bundle):
    config = write_config(tmp_path, demo_bundle)
    for stage, forbidden in _NOT_LOADED.items():
        result = _run_stage_script(config, stage)
        loaded = {name for name in result["modules"]
                  if name in forbidden or name.split(".")[0] in forbidden}
        assert not loaded, (stage, sorted(loaded))
        # cli caps OpenBLAS, so numpy starts no worker thread
        assert result["blas_threads"] == "1"
        if result["threads"] is not None:
            assert result["threads"] == 1, stage


def test_user_blas_thread_count_stands(tmp_path, demo_bundle):
    config = write_config(tmp_path, demo_bundle)
    assert main(["--config", str(config), "ingest"]) == 0
    result = _run_stage_script(config, "topics", OPENBLAS_NUM_THREADS="2")
    assert "numpy" in result["modules"]
    assert result["blas_threads"] == "2"


def _config_with_queries(tmp_path, demo_bundle, queries: int, dimension: int) -> Path:
    """A config for the demo bundle whose triples are ``queries``
    unannotated verbs in one labeled post, each with a vector."""
    base = tmp_path / f"queries-{queries}"
    base.mkdir()
    rng = random.Random(queries)
    verbs = [f"zverb{i:04d}" for i in range(queries)]
    lines = demo_bundle["embeddings"].read_text("utf-8").splitlines()
    lines += [" ".join([verb, *(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(dimension))])
              for verb in verbs]
    (base / "embeddings.txt").write_text("\n".join(lines) + "\n", "utf-8")
    (base / "triples.tsv").write_text("".join(
        ["post_id\tverb_lemma\tpassive\tagent\taffected\n"]
        + [f"p0001\t{verb}\t0\t\t\n" for verb in verbs]), "utf-8")
    return write_config(base, demo_bundle, embeddings=str(base / "embeddings.txt"),
                        triples=str(base / "triples.tsv"))


def test_sentiment_loads_numpy_only_for_a_large_scan(tmp_path, demo_bundle):
    rows = len(connotation.load_lexicon(demo_bundle["lexicon"]))
    dimension = len(demo_bundle["embeddings"].read_text("utf-8").split("\n", 1)[0].split()) - 1
    # the fewest queries whose scan reaches the threshold, and one fewer
    above = -(-connotation.NUMPY_SCAN_MIN // (rows * dimension))
    for queries, loads_numpy in ((above - 1, False), (above, True)):
        config = _config_with_queries(tmp_path, demo_bundle, queries, dimension)
        assert main(["--config", str(config), "ingest"]) == 0
        result = _run_stage_script(config, "sentiment")
        assert ("numpy" in result["modules"]) is loads_numpy, queries


def _imports_of_package() -> list[tuple[str, str]]:
    """(file name, top-level package) of every import in src/postmine."""
    found = []
    for path in sorted((SRC / "postmine").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found.extend((path.name, m.split(".")[0]) for m in modules)
    return found


def test_no_module_imports_scipy():
    assert [name for name, top in _imports_of_package() if top == "scipy"] == []


def test_no_module_imports_dataclasses():
    # records are named tuples: generating dataclass methods cost every
    # stage 7-19 ms at start-up
    assert [name for name, top in _imports_of_package() if top == "dataclasses"] == []


def test_no_module_imports_logging():
    # the stages return their warnings and diagnostics; cli prints them
    assert [name for name, top in _imports_of_package() if top == "logging"] == []


_BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def test_no_module_reaches_blas():
    # einsum without optimize, and norms along an axis, never call BLAS,
    # so every output is the same at any BLAS thread count
    found = []
    for path in sorted((SRC / "postmine").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            keywords = {keyword.arg for keyword in node.keywords}
            in_linalg = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
                         and func.value.attr == "linalg")
            if (name in _BLAS_FUNCTIONS
                    or (in_linalg and not (name == "norm" and "axis" in keywords))
                    or (name == "einsum" and "optimize" in keywords)):
                found.append((path.name, node.lineno, name))
    assert found == []


def test_only_errors_constructs_a_csv_writer():
    # errors.write_table alone decides how an out_dir table is written
    found = []
    for path in sorted((SRC / "postmine").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                found += [(path.name, node.lineno, alias.name) for alias in node.names
                          if alias.name in ("writer", "DictWriter")]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "csv"
                    and node.func.attr in ("writer", "DictWriter")):
                found.append((path.name, node.lineno, node.func.attr))
    assert found == []


def _defined_in_package() -> dict[str, str]:
    """Name -> "file:line" of every function, class and method defined in
    src/postmine, dunder methods left out."""
    found = {}
    for path in sorted((SRC / "postmine").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                found.setdefault(node.name, f"{path.name}:{node.lineno}")
    return found


def _named_outside_tests() -> set[str]:
    """Every name that src/, scripts/ or perfbench/ uses: variables,
    attributes, imports and whole string constants (perfbench patches
    functions by name).  A definition itself is no use of its name."""
    root = SRC.parent
    named = set()
    for path in [*SRC.rglob("*.py"), *(root / "scripts").glob("*.py"),
                 *(root / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return named


def test_every_definition_is_used_outside_the_tests():
    # code that only the tests name is kept for the tests alone
    named = _named_outside_tests()
    assert sorted(f"{where} {name}" for name, where in _defined_in_package().items()
                  if name not in named) == []


def test_topics_imports_no_textprep():
    # topics takes term lists; textprep alone decides what a content token is
    assert [top for name, top in _imports_of_package()
            if name == "topics.py" and top == "textprep"] == []


def _run_module(config: Path, command: str) -> subprocess.CompletedProcess:
    """``python -m postmine.cli`` as a fresh process.  PYTHONUNBUFFERED is
    dropped so that stdout is block-buffered into the pipe, as it is for
    any user who redirects it."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "postmine.cli", "--config", str(config), command],
        env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_keeps_exit_codes_and_output(tmp_path, demo_bundle):
    config = write_config(tmp_path, demo_bundle)
    proc = _run_module(config, "sentiment")
    assert proc.returncode == 2
    assert "run 'ingest' first" in proc.stderr
    bad = write_config(tmp_path, demo_bundle, name="bad.json", bogus_key=1)
    proc = _run_module(bad, "ingest")
    assert proc.returncode == 1
    assert "config error: unknown config key(s): bogus_key" in proc.stderr
    for command in ("ingest", "events", "sentiment", "regress", "report"):
        proc = _run_module(config, command)
        assert proc.returncode == 0, (command, proc.stderr)
    # stdout is flushed before the process exits without teardown
    assert proc.stdout == (tmp_path / "out" / COMBINED_REPORT).read_text("utf-8") + "\n"


def test_profiler_run_writes_its_profile(tmp_path, demo_bundle):
    config = write_config(tmp_path, demo_bundle)
    assert main(["--config", str(config), "ingest"]) == 0
    profile = tmp_path / "report.prof"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(profile), "-m", "postmine.cli",
         "--config", str(config), "report"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert profile.is_file() and profile.stat().st_size > 0
    assert proc.stdout == (tmp_path / "out" / COMBINED_REPORT).read_text("utf-8") + "\n"


class _DiesAfter(list):
    """A list whose iteration raises once its items are out, so the
    writer that iterates it dies after its first rows."""

    def __iter__(self):
        yield from list.__iter__(self)
        raise RuntimeError("writer died")


# for each file ``report`` reads: the stages that write it, and a writer
# of the same file that dies after its first rows
_DYING_WRITERS = {
    INGEST_SUMMARY: (("ingest",), lambda path: corpus.write_ingest_summary(
        path, 3, 2, 2, _DiesAfter(["line 3: blank line"]))),
    TOPIC_REPORT: (("ingest", "topics"), lambda path: topics.write_topic_report(
        # names two topics but holds one
        topics.TopicModel(2, np.array([[0.75, 0.25]]), np.full((1, 2), 0.5), 0.0, 0,
                          ("a", "b"), (), ()), path, 2)),
    SENTIMENT_REPORT: (("ingest", "events", "sentiment"),
                       lambda path: connotation.write_aggregate_report(_DiesAfter([
                           connotation.AggregateRow(HarassmentType.PHYSICAL, Participant.PEER,
                                                    0.5, -0.5, 100.0)]), path, coverage=1.0)),
    REGRESSION_REPORT: (("ingest", "regress"), lambda path: stats.write_regression_report(
        stats.RegressionResult(_DiesAfter(["intercept"]), (1.0,), (0.1,), (10.0,), (0.01,),
                               5, 0.5), path)),
}


class TestAtomicArtifacts:
    """An artifact a later stage reads is never left half-written."""

    def test_failed_triples_write_leaves_none(self, tmp_path, demo_bundle, capsys):
        config = write_config(tmp_path, demo_bundle)
        out = tmp_path / "out"
        assert main(["--config", str(config), "ingest"]) == 0
        before = sorted(os.listdir(out))
        triple = EventTriple("harass", None, None, False, "p1")
        with pytest.raises(RuntimeError, match="writer died"):
            events.write_triples(_DiesAfter([triple]), out / TRIPLES_ARTIFACT)
        assert sorted(os.listdir(out)) == before
        assert main(["--config", str(config), "sentiment"]) == 2
        assert "run 'events' first" in capsys.readouterr().err

    def test_failed_triples_write_keeps_earlier(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle)
        out = tmp_path / "out"
        for command in ("ingest", "events"):
            assert main(["--config", str(config), command]) == 0
        earlier = (out / TRIPLES_ARTIFACT).read_bytes()
        before = sorted(os.listdir(out))
        triples = events.read_triples(out / TRIPLES_ARTIFACT)
        with pytest.raises(RuntimeError, match="writer died"):
            events.write_triples(_DiesAfter(triples[:3]), out / TRIPLES_ARTIFACT)
        assert (out / TRIPLES_ARTIFACT).read_bytes() == earlier
        assert sorted(os.listdir(out)) == before
        assert main(["--config", str(config), "sentiment"]) == 0

    def test_failed_vocab_write_keeps_earlier(self, tmp_path, demo_bundle):
        class DyingVocab(dict):
            def items(self):
                return _DiesAfter(dict.items(self))

        config = write_config(tmp_path, demo_bundle)
        out = tmp_path / "out"
        for command in ("ingest", "topics"):
            assert main(["--config", str(config), command]) == 0
        earlier = (out / VOCAB_ARTIFACT).read_bytes()
        before = sorted(os.listdir(out))
        with pytest.raises(RuntimeError, match="writer died"):
            topics.write_vocab(DyingVocab(harass=frozenset({0, 1})), out / VOCAB_ARTIFACT)
        assert (out / VOCAB_ARTIFACT).read_bytes() == earlier
        assert sorted(os.listdir(out)) == before

    def test_failed_corpus_write_keeps_earlier(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle)
        out = tmp_path / "out"
        assert main(["--config", str(config), "ingest"]) == 0
        earlier = (out / CORPUS_ARTIFACT).read_bytes()
        before = sorted(os.listdir(out))
        posts = corpus.read_corpus(out / CORPUS_ARTIFACT)
        with pytest.raises(RuntimeError, match="writer died"):
            corpus.write_corpus(_DiesAfter(posts[:3]), out / CORPUS_ARTIFACT)
        assert (out / CORPUS_ARTIFACT).read_bytes() == earlier
        assert sorted(os.listdir(out)) == before

    @pytest.mark.parametrize("name", sorted(_DYING_WRITERS))
    def test_failed_report_input_write_keeps_earlier(self, tmp_path, demo_bundle, name):
        stages, write = _DYING_WRITERS[name]
        config = write_config(tmp_path, demo_bundle)
        out = tmp_path / "out"
        for command in stages:
            assert main(["--config", str(config), command]) == 0
        earlier = (out / name).read_bytes()
        before = sorted(os.listdir(out))
        with pytest.raises((RuntimeError, IndexError)):
            write(out / name)
        assert (out / name).read_bytes() == earlier
        assert sorted(os.listdir(out)) == before


class TestIngestCommand:
    def test_duplicate_counting(self, tmp_path, demo_bundle):
        lines = [post_line(f"p{i}", user_id=f"u{i}", text=f"text {i}")
                 for i in range(8)]
        lines.append(post_line("p0", user_id="u0", timestamp=999, text="text 0 again"))
        lines.append(post_line("p9", user_id="u1", text="TEXT  1"))
        posts = tmp_path / "posts.jsonl"
        posts.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, demo_bundle, posts=str(posts))
        assert main(["--config", str(config), "ingest"]) == 0
        summary = (tmp_path / "out" / INGEST_SUMMARY).read_text()
        assert "posts_ingested=10" in summary
        assert "posts_after_dedup=8" in summary
        assert "malformed_lines=0" in summary

    def test_rerun_is_byte_identical(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle)
        assert main(["--config", str(config), "ingest"]) == 0
        first = (tmp_path / "out" / CORPUS_ARTIFACT).read_bytes()
        assert main(["--config", str(config), "ingest"]) == 0
        assert (tmp_path / "out" / CORPUS_ARTIFACT).read_bytes() == first

    def test_lone_surrogate_id_is_malformed(self, tmp_path, demo_bundle):
        # the id would make every later stage that writes it fail
        posts = tmp_path / "posts.jsonl"
        posts.write_text(demo_bundle["posts"].read_text()
                         + post_line("p\ud800x", text="my boss harassed me") + "\n")
        config = write_config(tmp_path, demo_bundle, posts=str(posts))
        assert main(["--config", str(config), "ingest"]) == 0
        summary = (tmp_path / "out" / INGEST_SUMMARY).read_text()
        assert "malformed_lines=1" in summary
        assert "'post_id' is not valid UTF-8" in summary
        for command in ("topics", "events", "sentiment", "regress", "report"):
            assert main(["--config", str(config), command]) == 0, command

    def test_line_not_utf8_is_malformed(self, tmp_path, demo_bundle):
        posts = tmp_path / "posts.jsonl"
        good = demo_bundle["posts"].read_bytes()
        bad = post_line("zz", text="caf\u00e9 bad byte").encode().replace(b"\\u00e9", b"\xe9")
        posts.write_bytes(good + bad + b"\n")
        config = write_config(tmp_path, demo_bundle, posts=str(posts))
        assert main(["--config", str(config), "ingest"]) == 0
        summary = (tmp_path / "out" / INGEST_SUMMARY).read_text()
        kept = len(good.splitlines())
        assert f"posts_ingested={kept}\n" in summary
        assert "malformed_lines=1\n" in summary
        assert f"warning=line {kept + 1}: not valid UTF-8\n" in summary

    def test_malformed_lines_reported_on_stderr(self, tmp_path, demo_bundle, capsys):
        posts = tmp_path / "posts.jsonl"
        posts.write_text(demo_bundle["posts"].read_text() + "garbage\n")
        config = write_config(tmp_path, demo_bundle, posts=str(posts))
        assert main(["--config", str(config), "ingest"]) == 0
        kept = len(demo_bundle["posts"].read_text().splitlines())
        assert capsys.readouterr().err == (
            "WARNING postmine.corpus: ingest_posts: 1 warning(s), first: "
            f"line {kept + 1}: Expecting value: line 1 column 1 (char 0)\n")
        posts.write_text("garbage\n\n")
        assert main(["--config", str(config), "ingest"]) == 2
        assert capsys.readouterr().err == (
            "WARNING postmine.corpus: ingest_posts: 2 warning(s), first: "
            "line 1: Expecting value: line 1 column 1 (char 0); line 2: blank line\n"
            f"data error: {posts}: no valid post records in input\n")

    def test_corrupt_corpus_artifact_exits_two(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle)
        assert main(["--config", str(config), "ingest"]) == 0
        artifact = tmp_path / "out" / CORPUS_ARTIFACT
        lines = len(artifact.read_text().splitlines())
        with open(artifact, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        proc = _run_module(config, "events")     # a fresh process, as users run it
        assert proc.returncode == 2
        assert proc.stderr == (
            f"data error: corpus artifact {artifact} is corrupt: line {lines + 1}: "
            "Expecting value: line 1 column 1 (char 0)\n")
        artifact.write_text("garbage\n\n", encoding="utf-8")
        proc = _run_module(config, "events")
        assert proc.returncode == 2
        assert proc.stderr == (
            f"data error: corpus artifact {artifact} is corrupt: line 1: "
            "Expecting value: line 1 column 1 (char 0)\n")
        artifact.write_bytes(b"")
        proc = _run_module(config, "events")
        assert proc.returncode == 2
        assert proc.stderr == (
            f"data error: corpus artifact {artifact} holds no posts; run 'ingest' first\n")

    def test_topics_requires_corpus_artifact(self, tmp_path, demo_bundle, capsys):
        config = write_config(tmp_path, demo_bundle)
        assert main(["--config", str(config), "topics"]) == 2
        assert "ingest" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory, demo_bundle):
    """One full pipeline run over the demo bundle, shared by the
    report-shape tests."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = write_config(tmp_path, demo_bundle)
    for command in ("ingest", "topics", "events", "sentiment", "regress", "report"):
        assert main(["--config", str(config), command]) == 0
    return tmp_path / "out"


def test_post_word_longer_than_a_csv_field_limit_runs_every_stage(tmp_path, demo_bundle):
    # csv's default limit is 131,072 characters a field: the word is an
    # agent in triples.tsv, which sentiment reads, and a topic keyword in
    # topic_report.csv, which report reads
    word = "ab" * 70000
    texts = [f"{word} harassed me", *[" ".join([word] * 4)] * 6]
    posts = tmp_path / "posts.jsonl"
    posts.write_text(demo_bundle["posts"].read_text() + "".join(
        post_line(f"long{i}", user_id=f"ulong{i}", text=text) + "\n"
        for i, text in enumerate(texts)))
    config = write_config(tmp_path, demo_bundle, posts=str(posts))
    for command in ("ingest", "topics", "events", "sentiment", "regress", "report"):
        assert main(["--config", str(config), command]) == 0, command
    for name in (TRIPLES_ARTIFACT, TOPIC_REPORT):
        assert word in (tmp_path / "out" / name).read_text(), name


_CANDIDATE_LINE = re.compile(
    r"INFO postmine\.topics: select_k: k=(\d+) coherence=-?\d+\.\d{6} sweeps=\d+ "
    r"inner=\d+ capped=\d+ bound=-?\d+\.\d{6} stop=(tol|iters)")


class TestTopicsCommand:
    def test_verbose_prints_one_line_per_candidate(self, tmp_path, demo_bundle, capsys):
        config = write_config(tmp_path, demo_bundle)
        assert main(["--config", str(config), "ingest"]) == 0
        capsys.readouterr()
        assert main(["--config", str(config), "topics"]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert main(["--config", str(config), "-v", "topics"]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == quiet.out
        lines = verbose.err.splitlines()
        assert [_CANDIDATE_LINE.fullmatch(line).group(1) for line in lines] == ["2", "3", "4"]

    def test_document_without_terms_warned_once(self, tmp_path, demo_bundle, capsys):
        posts = tmp_path / "posts.jsonl"
        posts.write_text(demo_bundle["posts"].read_text()
                         + post_line("blank", user_id="ux", text="!!! ???") + "\n")
        config = write_config(tmp_path, demo_bundle, posts=str(posts))
        assert main(["--config", str(config), "ingest"]) == 0
        capsys.readouterr()
        assert main(["--config", str(config), "topics"]) == 0
        assert capsys.readouterr().err == (
            "WARNING postmine.topics: fit_lda: skipping 1 document(s) "
            "with no weighted terms\n")


class TestEventsCommand:
    def test_conflicting_inflection_warns(self, tmp_path, demo_bundle, capsys):
        inventory = tmp_path / "verbs.tsv"
        inventory.write_text("harass\tharassed,hit\nstrike\thit,struck\n")
        config = write_config(tmp_path, demo_bundle, verb_inventory=str(inventory))
        assert main(["--config", str(config), "ingest"]) == 0
        capsys.readouterr()
        assert main(["--config", str(config), "events"]) == 0
        assert capsys.readouterr().err == (
            f"WARNING postmine.events: {inventory}: line 2: 'hit' already maps to "
            "'harass'; keeping the first\n")

    def test_inflection_declared_as_lemma_warns(self, tmp_path, demo_bundle, capsys):
        inventory = tmp_path / "verbs.tsv"
        inventory.write_text("harass\tharassed,hit\nhit\thits\n")
        config = write_config(tmp_path, demo_bundle, verb_inventory=str(inventory))
        assert main(["--config", str(config), "ingest"]) == 0
        capsys.readouterr()
        assert main(["--config", str(config), "events"]) == 0
        assert capsys.readouterr().err == (
            f"WARNING postmine.events: {inventory}: 'hit' is a lemma and also an "
            "inflection of 'harass'; keeping the lemma\n")


class TestPipelineArtifacts:
    def test_topic_report_keyword_count(self, pipeline_out):
        lines = (pipeline_out / TOPIC_REPORT).read_text().splitlines()
        assert lines[0] == "topic,keywords"
        data = [line for line in lines[1:] if line and not line.startswith("#")]
        for line in data:
            keywords = line.split(",", 1)[1].split()
            assert len(keywords) == 13
        assert lines[-1].startswith("# selected_k=")

    def test_sentiment_report_schema(self, pipeline_out):
        lines = (pipeline_out / SENTIMENT_REPORT).read_text().splitlines()
        assert lines[0] == ("harassment_type,participant,event_sentiment,"
                            "affected_sentiment,percentage")
        assert lines[-1].startswith("# coverage=")
        coverage = float(lines[-1].split("=")[1])
        assert 0.0 < coverage < 1.0  # one demo verb is deliberately unscorable
        percentages = [float(line.split(",")[-1]) for line in lines[1:-1]]
        assert sum(percentages) == pytest.approx(100.0, abs=0.05)

    def test_regression_report_schema(self, pipeline_out):
        lines = (pipeline_out / REGRESSION_REPORT).read_text().splitlines()
        assert lines[0] == "feature,coefficient,std_err,t_stat,p_value"
        features = [line.split(",")[0] for line in lines[1:-1]]
        assert features == ["M/F Ratio", "Enrollment", "Private", "Northeast",
                            "West", "South", "Normalized cases count", "constant"]
        assert lines[-1].startswith("# n=40 p=8 r_squared=")

    def test_triples_artifact(self, pipeline_out):
        lines = (pipeline_out / TRIPLES_ARTIFACT).read_text().splitlines()
        assert lines[0] == "post_id\tverb_lemma\tpassive\tagent\taffected"
        assert len(lines) > 10

    def test_combined_report_mentions_sections(self, pipeline_out):
        text = (pipeline_out / "report.txt").read_text()
        for section in ("== ingest ==", "== topics ==", "== sentiment ==",
                        "== regression =="):
            assert section in text

    @pytest.mark.parametrize("name", [INGEST_SUMMARY, TOPIC_REPORT])
    def test_report_input_not_utf8_exits_two(self, tmp_path, demo_bundle, pipeline_out,
                                             capsys, name):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        with open(out / name, "ab") as handle:
            handle.write(b"\xff")
        config = write_config(tmp_path, demo_bundle)
        assert main(["--config", str(config), "report"]) == 2
        assert capsys.readouterr().err == (
            f"data error: {out / name} is not valid UTF-8: invalid start byte\n")


class TestSentimentCommand:
    def test_six_posts_two_groups(self, tmp_path, demo_bundle):
        texts = [
            "my boss harassed me at work",
            "i was mocked by my boss",
            "my boss threatened me",
            "a stranger followed me home",
            "a stranger grabbed me",
            "i was insulted by a stranger",
        ]
        posts = tmp_path / "posts.jsonl"
        posts.write_text("\n".join(
            post_line(f"p{i}", user_id=f"u{i}", text=text)
            for i, text in enumerate(texts)) + "\n")
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "post_id,harassment_type,participant\n"
            + "".join(f"p{i},verbal,faculty\n" for i in range(3))
            + "".join(f"p{i},physical,third_party\n" for i in range(3, 6)))
        config = write_config(tmp_path, demo_bundle, posts=str(posts),
                              labels=str(labels))
        for command in ("ingest", "events", "sentiment"):
            assert main(["--config", str(config), command]) == 0
        lines = (tmp_path / "out" / SENTIMENT_REPORT).read_text().splitlines()
        rows = [line for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == 2
        assert sum(float(r.split(",")[-1]) for r in rows) == pytest.approx(100.0)
        assert lines[-1] == "# coverage=1.0000"

    def test_empty_labeled_set_exits_two(self, tmp_path, demo_bundle, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("post_id,harassment_type,participant\n"
                          "zzz,physical,peer\n")
        config = write_config(tmp_path, demo_bundle, labels=str(labels))
        assert main(["--config", str(config), "ingest"]) == 0
        capsys.readouterr()
        assert main(["--config", str(config), "sentiment"]) == 2
        assert capsys.readouterr().err == (
            "WARNING postmine.corpus: attach_labels: 1 warning(s), first: "
            "label references unknown post_id 'zzz'\n"
            "data error: no label resolves to a corpus post\n")

    def test_imported_triples_path(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle)
        for command in ("ingest", "events", "sentiment"):
            assert main(["--config", str(config), command]) == 0
        default = (tmp_path / "out" / SENTIMENT_REPORT).read_bytes()
        copy = tmp_path / "imported.tsv"
        shutil.copyfile(tmp_path / "out" / TRIPLES_ARTIFACT, copy)
        (tmp_path / "out" / TRIPLES_ARTIFACT).unlink()
        imported = write_config(tmp_path, demo_bundle, name="imported.json",
                                triples=str(copy))
        assert main(["--config", str(imported), "sentiment"]) == 0
        assert (tmp_path / "out" / SENTIMENT_REPORT).read_bytes() == default

    def test_report_does_not_depend_on_triple_order(self, tmp_path, demo_bundle):
        config = write_config(tmp_path, demo_bundle)
        for command in ("ingest", "events", "sentiment"):
            assert main(["--config", str(config), command]) == 0
        in_order = (tmp_path / "out" / SENTIMENT_REPORT).read_bytes()
        header, *rows = (tmp_path / "out" / TRIPLES_ARTIFACT).read_text().splitlines()
        random.Random(0).shuffle(rows)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("\n".join([header, *rows]) + "\n")
        config = write_config(tmp_path, demo_bundle, name="shuffled.json",
                              triples=str(shuffled))
        assert main(["--config", str(config), "sentiment"]) == 0
        assert (tmp_path / "out" / SENTIMENT_REPORT).read_bytes() == in_order

    def test_requires_triples_artifact(self, tmp_path, demo_bundle, capsys):
        config = write_config(tmp_path, demo_bundle)
        assert main(["--config", str(config), "ingest"]) == 0
        assert main(["--config", str(config), "sentiment"]) == 2
        err = capsys.readouterr().err
        assert TRIPLES_ARTIFACT in err
        assert "run 'events' first" in err
        assert not (tmp_path / "out" / SENTIMENT_REPORT).exists()

    def test_never_preprocesses(self, tmp_path, demo_bundle, monkeypatch):
        config = write_config(tmp_path, demo_bundle)
        for command in ("ingest", "events"):
            assert main(["--config", str(config), command]) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("sentiment must score the triples file")

        monkeypatch.setattr(textprep, "preprocess", forbidden)
        monkeypatch.setattr(textprep, "load_language_model", forbidden)
        assert main(["--config", str(config), "sentiment"]) == 0
        assert (tmp_path / "out" / SENTIMENT_REPORT).is_file()


class TestRegressCommand:
    def test_too_few_institutions_exits_two(self, tmp_path, demo_bundle, capsys):
        institutions = tmp_path / "institutions.csv"
        rows = ["institution_id,enrollment,mf_ratio,sector,region,reported_cases"]
        regions = ["northeast", "south", "west", "midwest"]
        for i in range(8):  # n == p
            rows.append(f"u{i:03d},5000,1.0,public,{regions[i % 4]},3")
        institutions.write_text("\n".join(rows) + "\n")
        config = write_config(tmp_path, demo_bundle, institutions=str(institutions))
        assert main(["--config", str(config), "ingest"]) == 0
        assert main(["--config", str(config), "regress"]) == 2
        assert "n=8, p=8" in capsys.readouterr().err

    def test_institutions_not_utf8_exits_two(self, tmp_path, demo_bundle, capsys):
        institutions = tmp_path / "institutions.csv"
        institutions.write_bytes(demo_bundle["institutions"].read_bytes()
                                 + b"u\xe9,1,1,public,west,1\n")
        config = write_config(tmp_path, demo_bundle, institutions=str(institutions))
        assert main(["--config", str(config), "ingest"]) == 0
        assert main(["--config", str(config), "regress"]) == 2
        err = capsys.readouterr().err
        assert f"data error: {institutions} is not valid UTF-8" in err
