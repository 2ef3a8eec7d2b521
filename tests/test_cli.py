from __future__ import annotations

import json
import shutil

import pytest

from postmine import textprep
from postmine.cli import (
    CORPUS_ARTIFACT,
    INGEST_SUMMARY,
    REGRESSION_REPORT,
    SENTIMENT_REPORT,
    TOPIC_REPORT,
    TRIPLES_ARTIFACT,
    load_config,
    main,
)
from postmine.errors import ConfigError


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

    @pytest.mark.parametrize("setting", [
        {"iters": 0}, {"iters": "8"}, {"min_df": 0}, {"top_words": 0},
        {"k_candidates": []}, {"k_candidates": [1]}, {"k_candidates": "abc"},
        {"k_candidates": [2, 2.5]}, {"k_candidates": [True, 3]},
    ], ids=repr)
    def test_bad_topics_setting_exits_one(self, tmp_path, demo_bundle, capsys, setting):
        topics = {**json.loads(demo_bundle["config"].read_text())["topics"], **setting}
        config = write_config(tmp_path, demo_bundle, topics=topics)
        (key,) = setting
        with pytest.raises(ConfigError, match=f"topics.{key}"):
            load_config(config)
        assert main(["--config", str(config), "ingest"]) == 1
        assert "config error: topics." + key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert "config error: bad propagation settings" in err
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1


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
        assert main(["--config", str(config), "sentiment"]) == 2

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
