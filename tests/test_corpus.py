from __future__ import annotations

import io
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postmine.corpus import (
    Corpus,
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
from postmine.errors import DataError, EmptyCorpusError


def post_line(post_id="p1", user_id="u1", institution_id="c1", timestamp=100,
              text="hello world"):
    return json.dumps({
        "post_id": post_id, "user_id": user_id, "institution_id": institution_id,
        "timestamp": timestamp, "text": text,
    })


class TestIngestPosts:
    def test_three_wellformed_lines(self):
        src = io.StringIO("\n".join(post_line(post_id=f"p{i}") for i in range(3)))
        corpus, warnings = ingest_posts(src)
        assert len(corpus) == 3
        assert warnings == []

    def test_missing_text_field_warns_with_line_number(self):
        bad = json.dumps({"post_id": "p2", "user_id": "u", "institution_id": "c",
                          "timestamp": 5})
        src = io.StringIO("\n".join([post_line(post_id="p1"), bad,
                                     post_line(post_id="p3")]))
        corpus, warnings = ingest_posts(src)
        assert len(corpus) == 2
        assert len(warnings) == 1
        assert "line 2" in warnings[0]
        assert "text" in warnings[0]

    def test_empty_file_is_fatal(self):
        with pytest.raises(EmptyCorpusError):
            ingest_posts(io.StringIO(""))

    def test_unreadable_source_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest_posts(tmp_path / "does_not_exist.jsonl")

    def test_input_order_preserved(self):
        src = io.StringIO("\n".join(
            post_line(post_id=f"p{i}", timestamp=100 - i) for i in range(5)))
        corpus, _ = ingest_posts(src)
        assert [p.post_id for p in corpus.posts] == [f"p{i}" for i in range(5)]

    def test_blank_and_garbage_lines_warn(self):
        src = io.StringIO(post_line() + "\n\nnot json at all\n")
        corpus, warnings = ingest_posts(src)
        assert len(corpus) == 1
        assert len(warnings) == 2

    def test_warnings_logged_as_one_line(self, caplog):
        src = io.StringIO(post_line() + "\n" + "garbage\n" * 5)
        with caplog.at_level(logging.WARNING, logger="postmine.corpus"):
            _, warnings = ingest_posts(src)
        assert len(warnings) == 5
        [record] = caplog.records
        message = record.getMessage()
        assert "ingest_posts: 5 warning(s)" in message
        assert "; ".join(warnings[:3]) in message and warnings[3] not in message

    def test_empty_text_rejected(self):
        src = io.StringIO(post_line(text="   ") + "\n" + post_line(post_id="p2"))
        corpus, warnings = ingest_posts(src)
        assert len(corpus) == 1 and len(warnings) == 1


class TestDedup:
    def test_identical_post_id_keeps_earliest(self):
        corpus = Corpus([
            Post("p1", "u1", "c1", 200, "later"),
            Post("p1", "u1", "c1", 100, "earlier"),
        ])
        out = dedup(corpus)
        assert len(out) == 1
        assert out.posts[0].text == "earlier"

    def test_same_user_case_variant_texts_collapse(self):
        corpus = Corpus([
            Post("p1", "u1", "c1", 100, "Me Too"),
            Post("p2", "u1", "c1", 200, "me   too"),
        ])
        out = dedup(corpus)
        assert len(out) == 1
        assert out.posts[0].post_id == "p1"

    def test_same_text_different_users_kept(self):
        corpus = Corpus([
            Post("p1", "u1", "c1", 100, "same words"),
            Post("p2", "u2", "c1", 100, "same words"),
        ])
        assert len(dedup(corpus)) == 2

    def test_cross_user_collapse_flag(self):
        corpus = Corpus([
            Post("p1", "u1", "c1", 100, "same words"),
            Post("p2", "u2", "c1", 200, "same words"),
        ])
        out = dedup(corpus, collapse_across_users=True)
        assert len(out) == 1
        assert out.posts[0].post_id == "p1"

    def test_equal_timestamp_tie_breaks_on_post_id(self):
        corpus = Corpus([
            Post("pB", "u1", "c1", 100, "same"),
            Post("pA", "u1", "c1", 100, "same"),
        ])
        out = dedup(corpus)
        assert out.posts[0].post_id == "pA"

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
        corpus = Corpus(posts)
        once = dedup(corpus)
        twice = dedup(once)
        assert [p for p in twice.posts] == [p for p in once.posts]
        assert set(once.posts) <= set(posts)
        ids = [p.post_id for p in once.posts]
        assert len(ids) == len(set(ids))
        keys = [(p.user_id, normalized_text(p.text)) for p in once.posts]
        assert len(keys) == len(set(keys))

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
        assert dedup(Corpus(shuffled)).posts == dedup(Corpus(base)).posts


def test_user_index_round_trip():
    posts = [Post(f"p{i}", f"u{i % 3}", "c1", i, f"text {i}") for i in range(10)]
    corpus = Corpus(posts)
    for user_id, indices in corpus.user_index.items():
        assert all(corpus.posts[i].user_id == user_id for i in indices)
        expected = [i for i, p in enumerate(posts) if p.user_id == user_id]
        assert list(indices) == expected


INSTITUTION_HEADER = "institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"


class TestIngestInstitutions:
    def test_region_canonicalized(self):
        src = io.StringIO(INSTITUTION_HEADER + "u1,5000,0.9,private,northeast,12\n")
        records = ingest_institutions(src)
        assert records[0].region is Region.NORTHEAST
        assert records[0].is_private is True
        assert records[0].enrollment == 5000

    def test_sum_check_utility(self):
        rows = [f"u{i},1000,1.0,public,south,14" for i in range(199)]
        rows.append("u199,1000,1.0,public,south,153")
        src = io.StringIO(INSTITUTION_HEADER + "\n".join(rows) + "\n")
        records = ingest_institutions(src)
        assert len(records) == 200
        assert sum(r.reported_cases for r in records) == 2939

    def test_unknown_region_is_fatal_with_row(self):
        src = io.StringIO(INSTITUTION_HEADER
                          + "u1,5000,0.9,private,northeast,12\n"
                          + "u2,4000,1.0,public,east,3\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_institutions(src)

    def test_nonpositive_enrollment_is_fatal(self):
        src = io.StringIO(INSTITUTION_HEADER + "u1,0,0.9,private,west,12\n")
        with pytest.raises(DataError, match="enrollment"):
            ingest_institutions(src)

    def test_duplicate_institution_is_fatal(self):
        src = io.StringIO(INSTITUTION_HEADER
                          + "u1,5000,0.9,private,west,12\n"
                          + "u1,6000,1.0,public,south,1\n")
        with pytest.raises(DataError, match="duplicate"):
            ingest_institutions(src)


class TestLabels:
    def _corpus(self):
        return Corpus([Post(f"p{i}", f"u{i}", "c1", i, f"text {i}") for i in range(3)])

    def test_attach_resolving_labels(self):
        labels = [
            HarassmentLabel("p0", HarassmentType.PHYSICAL, Participant.PEER),
            HarassmentLabel("p2", HarassmentType.VERBAL, Participant.FACULTY),
        ]
        labeled, warnings = attach_labels(self._corpus(), labels)
        assert [lp.post.post_id for lp in labeled] == ["p0", "p2"]
        assert warnings == []

    def test_unresolved_label_warns_and_is_excluded(self):
        labels = [HarassmentLabel("p9", HarassmentType.VISUAL, Participant.PEER)]
        labeled, warnings = attach_labels(self._corpus(), labels)
        assert labeled == []
        assert len(warnings) == 1 and "p9" in warnings[0]

    def test_unresolved_labels_logged_as_one_line(self, caplog):
        labels = [HarassmentLabel(f"x{i}", HarassmentType.VISUAL, Participant.PEER)
                  for i in range(4)]
        with caplog.at_level(logging.WARNING, logger="postmine.corpus"):
            _, warnings = attach_labels(self._corpus(), labels)
        assert len(warnings) == 4
        [record] = caplog.records
        assert record.getMessage().startswith("attach_labels: 4 warning(s)")
        assert "'x2'" in record.getMessage() and "'x3'" not in record.getMessage()

    def test_conflicting_duplicate_labels_fatal(self):
        labels = [
            HarassmentLabel("p1", HarassmentType.PHYSICAL, Participant.PEER),
            HarassmentLabel("p1", HarassmentType.VERBAL, Participant.PEER),
        ]
        with pytest.raises(DataError, match="duplicate label"):
            attach_labels(self._corpus(), labels)

    def test_ingest_labels_parses_aliases(self):
        src = io.StringIO(
            "post_id,harassment_type,participant\n"
            "p1,physical,peer\np2,Verbal,3rd-party\np3,VISUAL,faculty\n")
        labels = ingest_labels(src)
        assert labels[1].participant is Participant.THIRD_PARTY
        assert labels[2].harassment_type is HarassmentType.VISUAL

    def test_ingest_labels_rejects_unknown_type(self):
        src = io.StringIO("post_id,harassment_type,participant\np1,mild,peer\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_labels(src)


def test_corpus_artifact_round_trip(tmp_path):
    posts = [Post("p1", "u1", "c1", 100, "hello 😊 world"),
             Post("p2", "u2", "c2", 200, "second\ttext")]
    path = tmp_path / "corpus.jsonl"
    write_corpus(Corpus(posts), path)
    again = read_corpus(path)
    assert list(again.posts) == posts
