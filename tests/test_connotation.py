from __future__ import annotations

import io

import numpy as np
import pytest

from oracles import brute_force_neighbors
from postmine.connotation import (
    ConnotationFrame,
    ConnotationLexicon,
    EmbeddingStore,
    PropagationConfig,
    aggregate,
    load_embeddings,
    load_lexicon,
    nearest_annotated,
    propagate,
    score_triples,
    write_aggregate_report,
)
from postmine.corpus import HarassmentLabel, HarassmentType, Participant
from postmine.errors import DataError, NoEmbeddingError, UnscorableError
from postmine.events import EventTriple, TokenSpan


def frame(*values):
    return ConnotationFrame(*values)


HARASS_FRAME = frame(-0.8, -0.7, -0.9, -0.6, 0.5)


class TestLoadLexicon:
    def test_row_stored_under_lemma(self):
        lex = load_lexicon(io.StringIO("harass\t-0.8\t-0.7\t-0.9\t-0.6\t0.5\n"))
        assert lex.frames["harass"] == HARASS_FRAME

    def test_out_of_range_score_fatal_with_row(self):
        src = io.StringIO("ok\t0\t0\t0\t0\t0\nbad\t1.5\t0\t0\t0\t0\n")
        with pytest.raises(DataError, match="row 2"):
            load_lexicon(src)

    def test_duplicate_lemma_fatal(self):
        src = io.StringIO("harass\t0\t0\t0\t0\t0\nharass\t0.1\t0\t0\t0\t0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_lexicon(src)

    def test_empty_file_fatal(self):
        with pytest.raises(DataError):
            load_lexicon(io.StringIO(""))


class TestLoadEmbeddings:
    def test_dimension_from_first_line(self):
        emb = load_embeddings(io.StringIO("a 1 0 0\nb 0 1 0\n"))
        assert emb.dimension == 3

    def test_mismatched_line_fatal_with_number(self):
        with pytest.raises(DataError, match="line 2"):
            load_embeddings(io.StringIO("a 1 0 0\nb 0 1\n"))

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError, match="zero-norm"):
            load_embeddings(io.StringIO("a 0 0 0\n"))

    def test_duplicate_word_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            load_embeddings(io.StringIO("a 1 0\na 0 1\n"))


def small_world():
    lex = ConnotationLexicon({
        "harass": HARASS_FRAME,
        "help": frame(0.5, 0.6, 0.4, 0.3, 0.2),
        "mock": frame(-0.5, -0.4, -0.6, -0.3, 0.4),
    })
    emb = EmbeddingStore({
        "harass": [1.0, 0.0, 0.0],
        "help": [0.0, 1.0, 0.0],
        "mock": [0.8, 0.2, 0.0],
        "pester": [0.9, 0.1, 0.0],
        "orthogonal": [0.0, 0.0, 1.0],
    })
    return lex, emb


class TestNearestAnnotated:
    def test_self_neighbor_ranks_first_with_similarity_one(self):
        lex, emb = small_world()
        cfg = PropagationConfig(k=3, min_similarity=0.0)
        neighbors = nearest_annotated("harass", emb, lex, cfg)
        assert neighbors[0][0] == "harass"
        assert neighbors[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_word_filtered_to_empty(self):
        lex, emb = small_world()
        cfg = PropagationConfig(k=5, min_similarity=0.2)
        assert nearest_annotated("orthogonal", emb, lex, cfg) == []

    def test_absent_word_raises(self):
        lex, emb = small_world()
        with pytest.raises(NoEmbeddingError):
            nearest_annotated("ghost", emb, lex, PropagationConfig())

    def test_k_caps_result(self):
        lex, emb = small_world()
        assert len(nearest_annotated("pester", emb, lex,
                                     PropagationConfig(k=2))) == 2

    def test_matches_brute_force_on_random_store(self):
        rng = np.random.default_rng(99)
        vectors = {f"w{i:03d}": [float(x) for x in rng.normal(size=8)]
                   for i in range(120)}
        annotated = {f"w{i:03d}" for i in range(0, 120, 3)}
        lex = ConnotationLexicon({w: frame(0, 0, 0, 0, 0) for w in annotated})
        emb = EmbeddingStore(vectors)
        cfg = PropagationConfig(k=7, min_similarity=0.0)
        for i in range(0, 120, 11):
            word = f"w{i:03d}"
            mine = nearest_annotated(word, emb, lex, cfg)
            ref = brute_force_neighbors(word, vectors, annotated, 7, 0.0)
            assert [w for w, _ in mine] == [w for w, _ in ref]
            for (_, a), (_, b) in zip(mine, ref):
                assert a == pytest.approx(b, abs=1e-9)


class TestPropagate:
    def test_annotated_identity(self):
        lex, emb = small_world()
        out = propagate("harass", lex, emb, PropagationConfig())
        assert out == HARASS_FRAME

    def test_hand_computed_two_neighbor_average(self):
        # Two neighbors with cosines 0.6 and 0.4 and verb sentiments
        # -0.5 and -0.7: (1/2)(0.6*-0.5 + 0.4*-0.7) = -0.29.
        lex = ConnotationLexicon({
            "near": frame(-0.5, 0.0, 0.0, 0.0, 0.0),
            "far": frame(-0.7, 0.0, 0.0, 0.0, 0.0),
        })
        emb = EmbeddingStore({
            "near": [0.6, 0.8, 0.0],
            "far": [0.4, 0.0, np.sqrt(1 - 0.16)],
            "query": [1.0, 0.0, 0.0],
        })
        out = propagate("query", lex, emb, PropagationConfig(k=2))
        assert out.sentiment_verb == pytest.approx(-0.29, abs=1e-12)

    def test_unscorable_when_no_neighbors(self):
        lex, emb = small_world()
        cfg = PropagationConfig(k=5, min_similarity=0.9)
        with pytest.raises(UnscorableError):
            propagate("orthogonal", lex, emb, cfg)

    def test_unscorable_when_unembedded(self):
        lex, emb = small_world()
        with pytest.raises(UnscorableError):
            propagate("ghostverb", lex, emb, PropagationConfig())

    def test_magnitude_bounded_by_annotated_max(self):
        lex, emb = small_world()
        out = propagate("pester", lex, emb, PropagationConfig(k=3))
        bound = max(max(abs(v) for v in f.as_tuple()) for f in lex.frames.values())
        assert all(abs(v) <= bound + 1e-12 for v in out.as_tuple())
        assert all(-1.0 <= v <= 1.0 for v in out.as_tuple())

    def test_monotone_in_neighbor_sentiment(self):
        def world(delta):
            lex = ConnotationLexicon({
                "a": frame(-0.5 + delta, 0, 0, 0, 0),
                "b": frame(-0.2 + delta, 0, 0, 0, 0),
            })
            emb = EmbeddingStore({
                "a": [0.9, 0.1], "b": [0.7, 0.3], "q": [1.0, 0.0]})
            return propagate("q", lex, emb, PropagationConfig(k=2)).sentiment_verb

        assert world(0.3) >= world(0.0) >= world(-0.3)


class TestScoreEvent:
    def test_sign_pattern_for_aggressive_verb(self):
        lex, emb = small_world()
        triple = EventTriple("harass", TokenSpan("he", 0), TokenSpan("me", 2),
                             False, "p1")
        [(post_id, out)] = score_triples([triple], lex, emb, PropagationConfig())
        assert post_id == "p1"
        assert out.sentiment_verb < 0
        assert out.sentiment_affected < 0
        assert out.persp_affected_to_agent < 0
        assert out.persp_reader_to_affected < 0
        assert out.persp_affected_to_affected > 0

    def test_passive_uses_same_frame(self):
        lex, emb = small_world()
        active = EventTriple("harass", TokenSpan("he"), TokenSpan("me"), False, "p1")
        passive = EventTriple("harass", TokenSpan("boss"), TokenSpan("i"), True, "p2")
        [(_, a), (_, b)] = score_triples([active, passive], lex, emb,
                                         PropagationConfig())
        assert a == b

    def test_purity(self):
        lex, emb = small_world()
        triples = [EventTriple("pester", None, None, False, "p1")]
        cfg = PropagationConfig(k=2)
        assert score_triples(triples, lex, emb, cfg) == \
            score_triples(triples, lex, emb, cfg)

    def test_each_lemma_propagated_once_and_unscorable_dropped(self, monkeypatch):
        lex, emb = small_world()
        calls = []

        def counting(word, *args):
            calls.append(word)
            return propagate(word, *args)

        monkeypatch.setattr("postmine.connotation.propagate", counting)
        triples = [EventTriple(lemma, None, None, False, post_id)
                   for lemma, post_id in (("pester", "p1"), ("ghostverb", "p1"),
                                          ("harass", "p2"), ("pester", "p3"),
                                          ("ghostverb", "p4"), ("harass", "p1"))]
        cfg = PropagationConfig(k=3)
        scored = score_triples(triples, lex, emb, cfg)
        assert calls == ["pester", "ghostverb", "harass"]
        pester = propagate("pester", lex, emb, cfg)
        assert scored == [("p1", pester), ("p2", HARASS_FRAME),
                          ("p3", pester), ("p1", HARASS_FRAME)]


class TestAggregate:
    def test_single_group_mean_and_percentage(self):
        scored = [("p1", frame(-0.2, -0.1, 0, 0, 0)),
                  ("p2", frame(-0.4, -0.3, 0, 0, 0))]
        labels = [HarassmentLabel("p1", HarassmentType.PHYSICAL, Participant.PEER),
                  HarassmentLabel("p2", HarassmentType.PHYSICAL, Participant.PEER)]
        (row,) = aggregate(scored, labels)
        assert row.event_sentiment == pytest.approx(-0.3)
        assert row.affected_sentiment == pytest.approx(-0.2)
        assert row.percentage == pytest.approx(100.0)

    def test_equal_groups_split_percentage(self):
        f = frame(-0.1, -0.1, 0, 0, 0)
        scored = [(f"p{i}", f) for i in range(4)]
        labels = [
            HarassmentLabel("p0", HarassmentType.PHYSICAL, Participant.PEER),
            HarassmentLabel("p1", HarassmentType.PHYSICAL, Participant.PEER),
            HarassmentLabel("p2", HarassmentType.VERBAL, Participant.FACULTY),
            HarassmentLabel("p3", HarassmentType.VERBAL, Participant.FACULTY),
        ]
        rows = aggregate(scored, labels)
        assert [r.percentage for r in rows] == [50.0, 50.0]
        assert rows[0].event_sentiment == rows[1].event_sentiment

    def test_rows_ordered_by_type_then_participant(self):
        f = frame(0, 0, 0, 0, 0)
        scored = [(f"p{i}", f) for i in range(4)]
        labels = [
            HarassmentLabel("p0", HarassmentType.VISUAL, Participant.THIRD_PARTY),
            HarassmentLabel("p1", HarassmentType.PHYSICAL, Participant.FACULTY),
            HarassmentLabel("p2", HarassmentType.PHYSICAL, Participant.PEER),
            HarassmentLabel("p3", HarassmentType.VERBAL, Participant.PEER),
        ]
        rows = aggregate(scored, labels)
        assert [(r.harassment_type, r.participant) for r in rows] == [
            (HarassmentType.PHYSICAL, Participant.PEER),
            (HarassmentType.PHYSICAL, Participant.FACULTY),
            (HarassmentType.VERBAL, Participant.PEER),
            (HarassmentType.VISUAL, Participant.THIRD_PARTY),
        ]

    def test_empty_input_empty_table(self):
        assert aggregate([], []) == []

    def test_unlabeled_records_excluded_from_denominator(self):
        f = frame(-0.5, 0, 0, 0, 0)
        scored = [("p1", f), ("stray", f)]
        labels = [HarassmentLabel("p1", HarassmentType.PHYSICAL, Participant.PEER)]
        (row,) = aggregate(scored, labels)
        assert row.percentage == pytest.approx(100.0)

    def test_percentages_sum_to_hundred(self):
        rng = np.random.default_rng(5)
        types = list(HarassmentType)
        parts = list(Participant)
        scored = []
        labels = []
        for i in range(57):
            scored.append((f"p{i}", frame(float(rng.uniform(-1, 1)), 0, 0, 0, 0)))
            labels.append(HarassmentLabel(
                f"p{i}", types[int(rng.integers(0, 3))], parts[int(rng.integers(0, 3))]))
        rows = aggregate(scored, labels)
        assert sum(r.percentage for r in rows) == pytest.approx(100.0, abs=0.01)


def test_aggregate_report_schema(tmp_path):
    scored = [("p1", frame(-0.2, -0.1, 0, 0, 0))]
    labels = [HarassmentLabel("p1", HarassmentType.PHYSICAL, Participant.FACULTY)]
    path = tmp_path / "sentiment.csv"
    write_aggregate_report(aggregate(scored, labels), path, coverage=0.5)
    lines = path.read_text().splitlines()
    assert lines[0] == "harassment_type,participant,event_sentiment,affected_sentiment,percentage"
    assert lines[1].startswith("Physical,Faculty,")
    assert lines[-1] == "# coverage=0.5000"
