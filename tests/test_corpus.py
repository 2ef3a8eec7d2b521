from __future__ import annotations

import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postmine import cli
from postmine.corpus import (
    HarassmentLabel,
    HarassmentType,
    Participant,
    Post,
    Region,
    attach_labels,
    dedup,
    ingest_institutions,
    ingest_labels,
    ingest_posts,
    normalized_text,
    read_corpus,
    write_corpus,
)
from postmine.errors import DataError


def post_line(post_id="p1", user_id="u1", institution_id="c1", timestamp=100,
              text="hello world"):
    return json.dumps({
        "post_id": post_id, "user_id": user_id, "institution_id": institution_id,
        "timestamp": timestamp, "text": text,
    })


class TestIngestPosts:
    def test_three_wellformed_lines(self, input_file):
        src = input_file("\n".join(post_line(post_id=f"p{i}") for i in range(3)))
        corpus, warnings = ingest_posts(src)
        assert len(corpus) == 3
        assert warnings == []

    def test_missing_text_field_warns_with_line_number(self, input_file):
        bad = json.dumps({"post_id": "p2", "user_id": "u", "institution_id": "c",
                          "timestamp": 5})
        src = input_file("\n".join([post_line(post_id="p1"), bad,
                                   post_line(post_id="p3")]))
        corpus, warnings = ingest_posts(src)
        assert len(corpus) == 2
        assert len(warnings) == 1
        assert "line 2" in warnings[0]
        assert "text" in warnings[0]

    def test_empty_file_is_fatal(self, input_file):
        empty = input_file("")
        assert ingest_posts(empty) == ((), [])
        with pytest.raises(DataError, match=f"^corpus artifact {re.escape(str(empty))} "
                                            "holds no posts; run 'ingest' first$"):
            read_corpus(empty)

    def test_unreadable_source_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest_posts(tmp_path / "does_not_exist.jsonl")

    def test_input_order_preserved(self, input_file):
        src = input_file("\n".join(
            post_line(post_id=f"p{i}", timestamp=100 - i) for i in range(5)))
        corpus, _ = ingest_posts(src)
        assert [p.post_id for p in corpus] == [f"p{i}" for i in range(5)]

    def test_blank_and_garbage_lines_warn(self, input_file):
        src = input_file(post_line() + "\n\nnot json at all\n")
        corpus, warnings = ingest_posts(src)
        assert len(corpus) == 1
        assert len(warnings) == 2

    def test_deeply_nested_json_is_malformed(self, input_file):
        src = input_file("\n".join([post_line(post_id="p1"), "[" * 5000 + "]" * 5000,
                                   post_line(post_id="p3")]))
        corpus, warnings = ingest_posts(src)
        assert [p.post_id for p in corpus] == ["p1", "p3"]
        assert warnings == ["line 2: JSON nested too deeply"]

    @pytest.mark.parametrize("field", ["post_id", "user_id", "institution_id"])
    def test_lone_surrogate_in_id_is_malformed(self, field, input_file):
        bad = post_line(**{"post_id": "p2", field: "x\ud800y"})
        src = input_file("\n".join([post_line(post_id="p1"), bad]))
        corpus, warnings = ingest_posts(src)
        assert [p.post_id for p in corpus] == ["p1"]
        assert warnings == [f"line 2: field {field!r} is not valid UTF-8"]

    def test_warnings_logged_as_one_line(self, capsys, input_file):
        src = input_file(post_line() + "\n" + "garbage\n" * 5)
        _, warnings = ingest_posts(src)
        assert warnings == [f"line {n}: Expecting value: line 1 column 1 (char 0)"
                            for n in range(2, 7)]
        assert capsys.readouterr().err == ""     # the CLI reports them
        cli._warn_batch("ingest_posts", warnings)
        assert capsys.readouterr().err == (
            "WARNING postmine.corpus: ingest_posts: 5 warning(s), first: "
            + "; ".join(warnings[:3]) + "\n")

    def test_no_valid_record_still_returns_warnings(self, input_file):
        assert ingest_posts(input_file("garbage\n\n")) == ((), [
            "line 1: Expecting value: line 1 column 1 (char 0)", "line 2: blank line"])

    def test_empty_text_rejected(self, input_file):
        src = input_file(post_line(text="   ") + "\n" + post_line(post_id="p2"))
        corpus, warnings = ingest_posts(src)
        assert len(corpus) == 1 and len(warnings) == 1


class TestDedup:
    def test_identical_post_id_keeps_earliest(self):
        out = dedup([
            Post("p1", "u1", "c1", 200, "later"),
            Post("p1", "u1", "c1", 100, "earlier"),
        ])
        assert len(out) == 1
        assert out[0].text == "earlier"

    def test_same_user_case_variant_texts_collapse(self):
        out = dedup([
            Post("p1", "u1", "c1", 100, "Me Too"),
            Post("p2", "u1", "c1", 200, "me   too"),
        ])
        assert len(out) == 1
        assert out[0].post_id == "p1"

    def test_same_text_different_users_kept(self):
        posts = [
            Post("p1", "u1", "c1", 100, "same words"),
            Post("p2", "u2", "c1", 100, "same words"),
        ]
        assert len(dedup(posts)) == 2

    def test_equal_timestamp_tie_breaks_on_post_id(self):
        out = dedup([
            Post("pB", "u1", "c1", 100, "same"),
            Post("pA", "u1", "c1", 100, "same"),
        ])
        assert out[0].post_id == "pA"

    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 50)),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_conservative(self, rows):
        posts = [
            Post(f"p{pid}", f"u{uid}", "c1", ts, f"text {tid}")
            for pid, uid, tid, ts in rows
        ]
        once = dedup(posts)
        twice = dedup(once)
        assert twice == once
        assert set(once) <= set(posts)
        ids = [p.post_id for p in once]
        assert len(ids) == len(set(ids))
        keys = [(p.user_id, normalized_text(p.text)) for p in once]
        assert len(keys) == len(set(keys))
        order = [(p.timestamp, p.post_id) for p in once]
        assert order == sorted(order)

    @given(st.permutations(list(range(8))))
    @settings(max_examples=30, deadline=None)
    def test_order_insensitive(self, order):
        base = [
            Post("p1", "u1", "c1", 100, "alpha"),
            Post("p1", "u1", "c1", 90, "alpha early"),
            Post("p2", "u1", "c1", 100, "ALPHA  EARLY"),
            Post("p3", "u2", "c1", 50, "beta"),
            Post("p4", "u2", "c1", 60, "Beta"),
            Post("p5", "u3", "c1", 10, "gamma"),
            Post("p6", "u3", "c1", 10, "delta"),
            Post("p7", "u4", "c1", 70, "epsilon"),
        ]
        shuffled = [base[i] for i in order]
        assert dedup(shuffled) == dedup(base)


def test_user_count(tmp_path, demo_bundle):
    # the ingest summary counts the distinct users of the deduplicated posts
    lines = [post_line(f"p{i}", f"u{i % 3}", timestamp=i, text=f"text {i}")
             for i in range(10)]
    config = json.loads(demo_bundle["config"].read_text())
    for n_posts, users in ((10, 3), (2, 2)):
        posts = tmp_path / f"posts{n_posts}.jsonl"
        posts.write_text("\n".join(lines[:n_posts]) + "\n")
        out = tmp_path / f"out{n_posts}"
        path = tmp_path / f"config{n_posts}.json"
        path.write_text(json.dumps({**config, "posts": str(posts), "out_dir": str(out)}))
        assert cli.main(["--config", str(path), "ingest"]) == 0
        assert f"unique_users={users}\n" in (out / cli.INGEST_SUMMARY).read_text()


INSTITUTION_HEADER = "institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"


class TestIngestInstitutions:
    def test_region_canonicalized(self, input_file):
        src = input_file(INSTITUTION_HEADER + "u1,5000,0.9,private,northeast,12\n")
        records = ingest_institutions(src)
        assert records[0].region is Region.NORTHEAST
        assert records[0].is_private is True
        assert records[0].enrollment == 5000

    def test_sum_check_utility(self, input_file):
        rows = [f"u{i},1000,1.0,public,south,14" for i in range(199)]
        rows.append("u199,1000,1.0,public,south,153")
        src = input_file(INSTITUTION_HEADER + "\n".join(rows) + "\n")
        records = ingest_institutions(src)
        assert len(records) == 200
        assert sum(r.reported_cases for r in records) == 2939

    def test_unknown_region_is_fatal_with_row(self, input_file):
        src = input_file(INSTITUTION_HEADER
                         + "u1,5000,0.9,private,northeast,12\n"
                         + "u2,4000,1.0,public,east,3\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_institutions(src)

    def test_nonpositive_enrollment_is_fatal(self, input_file):
        src = input_file(INSTITUTION_HEADER + "u1,0,0.9,private,west,12\n")
        with pytest.raises(DataError, match="enrollment"):
            ingest_institutions(src)

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_nonfinite_mf_ratio_is_fatal(self, ratio, input_file):
        src = input_file(INSTITUTION_HEADER
                         + "u1,5000,0.9,private,west,12\n"
                         + f"u2,5000,{ratio},private,west,12\n")
        with pytest.raises(DataError, match="row 3: mf_ratio"):
            ingest_institutions(src)

    @pytest.mark.parametrize("column", ["enrollment", "reported_cases"])
    def test_count_too_large_for_a_float_is_fatal(self, column, input_file):
        # the regression turns both into floats; the largest float fits
        row = "u{n},{enrollment},0.9,private,west,{reported_cases}\n"
        fits = {"enrollment": 5000, "reported_cases": 12, column: int(sys.float_info.max)}
        too_large = {**fits, column: "9" * 401}
        src = input_file(INSTITUTION_HEADER + row.format(n=1, **fits)
                         + row.format(n=2, **too_large))
        with pytest.raises(DataError) as caught:
            ingest_institutions(src)
        assert str(caught.value) == f"{src}: row 3: {column} is too large for a float"

    def test_duplicate_institution_is_fatal(self, input_file):
        src = input_file(INSTITUTION_HEADER
                         + "u1,5000,0.9,private,west,12\n"
                         + "u1,6000,1.0,public,south,1\n")
        with pytest.raises(DataError, match="duplicate"):
            ingest_institutions(src)


class TestLabels:
    def _corpus(self):
        return tuple(Post(f"p{i}", f"u{i}", "c1", i, f"text {i}") for i in range(3))

    def test_attach_resolving_labels(self):
        labels = [
            HarassmentLabel("p2", HarassmentType.VERBAL, Participant.FACULTY),
            HarassmentLabel("p0", HarassmentType.PHYSICAL, Participant.PEER),
        ]
        labeled, warnings = attach_labels(self._corpus(), labels)
        assert labeled == {"p0": labels[1], "p2": labels[0]}
        assert list(labeled) == ["p0", "p2"]   # corpus post order
        assert warnings == []

    def test_unresolved_label_warns_and_is_excluded(self):
        labels = [HarassmentLabel("p9", HarassmentType.VISUAL, Participant.PEER)]
        labeled, warnings = attach_labels(self._corpus(), labels)
        assert labeled == {}
        assert len(warnings) == 1 and "p9" in warnings[0]

    def test_unresolved_labels_logged_as_one_line(self, capsys):
        labels = [HarassmentLabel(f"x{i}", HarassmentType.VISUAL, Participant.PEER)
                  for i in range(4)]
        _, warnings = attach_labels(self._corpus(), labels)
        assert warnings == [f"label references unknown post_id 'x{i}'" for i in range(4)]
        assert capsys.readouterr().err == ""     # the CLI reports them
        cli._warn_batch("attach_labels", warnings)
        assert capsys.readouterr().err == (
            "WARNING postmine.corpus: attach_labels: 4 warning(s), first: "
            "label references unknown post_id 'x0'; label references unknown post_id "
            "'x1'; label references unknown post_id 'x2'\n")

    def test_conflicting_duplicate_labels_fatal(self, input_file):
        src = input_file("post_id,harassment_type,participant\n"
                         "p1,physical,peer\np2,verbal,peer\np1,verbal,peer\n")
        with pytest.raises(DataError) as caught:
            ingest_labels(src)
        assert str(caught.value) == f"{src}: row 4: duplicate label for post_id 'p1'"

    def test_ingest_labels_parses_aliases(self, input_file):
        src = input_file(
            "post_id,harassment_type,participant\n"
            "p1,physical,peer\np2,Verbal,3rd-party\np3,VISUAL,faculty\n")
        labels = ingest_labels(src)
        assert labels[1].participant is Participant.THIRD_PARTY
        assert labels[2].harassment_type is HarassmentType.VISUAL

    def test_ingest_labels_rejects_unknown_type(self, input_file):
        src = input_file("post_id,harassment_type,participant\np1,mild,peer\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_labels(src)


def test_corpus_artifact_round_trip(tmp_path):
    posts = [Post("p1", "u1", "c1", 100, "hello 😊 world"),
             Post("p2", "u2", "c2", 200, "second\ttext")]
    path = tmp_path / "corpus.jsonl"
    write_corpus(posts, path)
    assert read_corpus(path) == tuple(posts)
