from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from oracles import brute_force_neighbors
from postmine import connotation
from postmine.connotation import (
    ConnotationFrame,
    EmbeddingStore,
    aggregate,
    load_embeddings,
    load_lexicon,
    nearest_annotated,
    propagate,
    scan,
    score_triples,
    write_aggregate_report,
)
from postmine.corpus import HarassmentLabel, HarassmentType, Participant
from postmine.errors import DataError
from postmine.events import EventTriple


def frame(*values):
    return ConnotationFrame(*values)


HARASS_FRAME = frame(-0.8, -0.7, -0.9, -0.6, 0.5)


def by_post(labels):
    return {label.post_id: label for label in labels}


def neighbors(word, emb, lex, k, min_similarity):
    """``nearest_annotated`` over one word's ``scan``, as ``score_triples``
    runs them."""
    annotated = [lemma for lemma in lex if lemma in emb]
    [candidates] = scan(emb, [word], annotated, k)
    return nearest_annotated(candidates, annotated, k, min_similarity)


def propagated(word, lex, emb, k, min_similarity):
    """``propagate`` for one word, as ``score_triples`` runs it."""
    annotated = [lemma for lemma in lex if lemma in emb]
    candidates = scan(emb, [word], annotated, k)[0] if word in emb else None
    return propagate(word, lex, candidates, annotated, k, min_similarity)


def labeled(*post_ids):
    """A post_id -> label mapping that labels every given post alike."""
    return {post_id: HarassmentLabel(post_id, HarassmentType.PHYSICAL, Participant.PEER)
            for post_id in post_ids}


class TestConnotationFrame:
    """A frame's scores lie in [-1, 1]: ``load_lexicon``, where frames
    come from outside, rejects any other value at its line."""

    @pytest.mark.parametrize("dim", range(5))
    @pytest.mark.parametrize("value", [-1.5, 1.0 + 1e-9, float("nan")])
    def test_out_of_range_score_rejected(self, input_file, dim, value):
        scores = ["0"] * 5
        scores[dim] = repr(value)
        src = input_file("ok\t-1\t1\t0\t0\t0\nbad\t" + "\t".join(scores) + "\n")
        with pytest.raises(DataError) as caught:
            load_lexicon(src)
        assert str(caught.value) == (
            f"{src}: line 2: {ConnotationFrame._fields[dim]}={value} outside [-1, 1]")

    def test_bounds_are_inclusive(self, input_file):
        lex = load_lexicon(input_file("a" + "\t-1.0" * 5 + "\nb" + "\t1" * 5 + "\n"))
        assert lex == {"a": (-1.0,) * 5, "b": (1.0,) * 5}


class TestLoadLexicon:
    def test_row_stored_under_lemma(self, input_file):
        lex = load_lexicon(input_file("harass\t-0.8\t-0.7\t-0.9\t-0.6\t0.5\n"))
        assert lex["harass"] == HARASS_FRAME

    def test_out_of_range_score_fatal_with_row(self, input_file):
        src = input_file("ok\t0\t0\t0\t0\t0\nbad\t1.5\t0\t0\t0\t0\n")
        with pytest.raises(DataError, match=r"line 2: sentiment_verb=1\.5 outside"):
            load_lexicon(src)

    def test_duplicate_lemma_fatal(self, input_file):
        src = input_file("harass\t0\t0\t0\t0\t0\nharass\t0.1\t0\t0\t0\t0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_lexicon(src)

    def test_empty_file_fatal(self, input_file):
        with pytest.raises(DataError):
            load_lexicon(input_file(""))


class TestLoadEmbeddings:
    def test_dimension_from_first_line(self, input_file):
        emb = load_embeddings(input_file("a 1 0 0\nb 0 1 0\n"))
        assert emb.unit_vector("a") == [1.0, 0.0, 0.0]
        assert emb.unit_vector("b") == [0.0, 1.0, 0.0]

    def test_mismatched_line_fatal_with_number(self, input_file):
        with pytest.raises(DataError, match="line 2"):
            load_embeddings(input_file("a 1 0 0\nb 0 1\n"))

    def test_fields_split_only_at_ascii_spaces_and_tabs(self, input_file):
        emb = load_embeddings(input_file("a 1 0\nb\xa0c 0 1\nd\u2028e\t \t1 1\nf\x85 2 0\n"))
        assert emb.unit_vector("b\xa0c") == [0.0, 1.0]
        assert emb.unit_vector("d\u2028e") == pytest.approx([0.5 ** 0.5, 0.5 ** 0.5])
        assert emb.unit_vector("f\x85") == [1.0, 0.0]
        assert "b" not in emb and "d" not in emb

    def test_word_keeps_a_leading_non_ascii_space(self, input_file):
        emb = load_embeddings(input_file("\xa0b 1 0\nc\xa0 0 1\n \td 1 1\n"))
        assert emb.unit_vector("\xa0b") == [1.0, 0.0]
        assert emb.unit_vector("c\xa0") == [0.0, 1.0]
        assert "b" not in emb and "d" in emb

    def test_zero_norm_rejected(self, input_file):
        with pytest.raises(DataError, match="zero-norm"):
            load_embeddings(input_file("a 0 0 0\n"))
        with pytest.raises(DataError, match="zero-norm"):
            load_embeddings(input_file("a 1 0 0\nb -0 0 0\n"))

    def test_any_finite_scale_normalizes(self, input_file, capfd):
        # the plain norm overflows to inf on "big" (a zero row, with a
        # numpy warning) and underflows to 0 on "tiny" (rejected)
        lines = ["big 3e200 4e200", "tiny 3e-200 4e-200", "sub 5e-324 0",
                 "huge 1.7e308 -1.7e308", "unit 3 4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emb = load_embeddings(input_file("\n".join(lines) + "\n"))
            lex = {"tiny": frame(0, 0, 0, 0, 0), "unit": frame(0, 0, 0, 0, 0)}
            found = neighbors("big", emb, lex, k=2, min_similarity=0.0)
        for word in ("big", "tiny"):
            assert emb.unit_vector(word) == pytest.approx([0.6, 0.8], abs=1e-15)
        assert emb.unit_vector("sub") == [1.0, 0.0]
        assert emb.unit_vector("huge") == pytest.approx([0.5 ** 0.5, -0.5 ** 0.5])
        assert [w for w, _ in found] == ["tiny", "unit"]
        assert [s for _, s in found] == pytest.approx([1.0, 1.0], abs=1e-15)
        assert capfd.readouterr().err == ""

    def test_ordinary_rows_normalize_as_the_plain_formula(self):
        # scaling by a power of two is exact, so rows whose squares
        # neither overflow nor underflow get the very bits of x / |x|
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(4000, 7)) * np.exp(rng.uniform(-30, 30, size=(4000, 1)))
        words = [f"w{i}" for i in range(len(matrix))]
        emb = EmbeddingStore(dict(zip(words, matrix.tolist())))
        plain = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        assert np.array_equal([emb.unit_vector(word) for word in words], plain)

    def test_duplicate_word_rejected(self, input_file):
        with pytest.raises(DataError, match="duplicate"):
            load_embeddings(input_file("a 1 0\na 0 1\n"))

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_nonfinite_component_fatal_with_number(self, component, input_file):
        with pytest.raises(DataError, match="line 2: non-finite"):
            load_embeddings(input_file(f"a 1 0\nbad {component} 0\n"))


def small_world():
    lex = {
        "harass": HARASS_FRAME,
        "help": frame(0.5, 0.6, 0.4, 0.3, 0.2),
        "mock": frame(-0.5, -0.4, -0.6, -0.3, 0.4),
    }
    emb = EmbeddingStore({
        "harass": [1.0, 0.0, 0.0],
        "help": [0.0, 1.0, 0.0],
        "mock": [0.8, 0.2, 0.0],
        "pester": [0.9, 0.1, 0.0],
        "orthogonal": [0.0, 0.0, 1.0],
    })
    return lex, emb


def planted_ties():
    """(vectors, annotated lemmas in lexicon order) with planted exact ties.

    Five lemmas share one random vector.  The lexicon lists them out of
    alphabetical order and spread out, last rows included, so only the
    lemma tie-break orders them and a product that rounds a row by its
    position would split them.  "edge" sits exactly at min_similarity
    for the query "axis" (cosine 3/5), "below" just under it.
    """
    rng = np.random.default_rng(7)
    shared = [float(x) for x in rng.normal(size=25)]
    annotated = ["tie_e", "other0", "other1", "tie_b", "other2", "other3", "tie_d",
                 "other4", "edge", "other5", "below", "other6", "other7", "tie_a",
                 "tie_c"]
    vectors = {w: (list(shared) if w.startswith("tie") else
                   [float(x) for x in rng.normal(size=25)]) for w in annotated}
    vectors["edge"] = [3.0, 4.0] + [0.0] * 23
    vectors["below"] = [3.0, 4.0000001] + [0.0] * 23
    vectors["axis"] = [2.0] + [0.0] * 24
    vectors["query"] = [x + 0.5 * float(y) for x, y in zip(shared, rng.normal(size=25))]
    return vectors, annotated


# (query, k, min_similarity) for the planted store
PLANTED_CASES = [("query", 3, 0.0), ("query", 5, 0.0), ("query", 7, 0.0),
                 ("query", 20, -1.0), ("tie_c", 4, 0.0), ("axis", 10, 0.6)]


class TestNearestAnnotated:
    def test_self_neighbor_ranks_first_with_similarity_one(self):
        lex, emb = small_world()
        cfg = dict(k=3, min_similarity=0.0)
        found = neighbors("harass", emb, lex, **cfg)
        assert found[0][0] == "harass"
        assert found[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_word_filtered_to_empty(self):
        lex, emb = small_world()
        cfg = dict(k=5, min_similarity=0.2)
        assert neighbors("orthogonal", emb, lex, **cfg) == []

    def test_absent_word_raises(self):
        lex, emb = small_world()
        with pytest.raises(KeyError):
            neighbors("ghost", emb, lex, k=10, min_similarity=0.0)

    def test_k_caps_result(self):
        lex, emb = small_world()
        assert len(neighbors("pester", emb, lex, k=2, min_similarity=0.0)) == 2

    def test_matches_brute_force_on_random_store(self):
        rng = np.random.default_rng(99)
        vectors = {f"w{i:03d}": [float(x) for x in rng.normal(size=8)]
                   for i in range(120)}
        annotated = {f"w{i:03d}" for i in range(0, 120, 3)}
        lex = {w: frame(0, 0, 0, 0, 0) for w in annotated}
        emb = EmbeddingStore(vectors)
        cfg = dict(k=7, min_similarity=0.0)
        for i in range(0, 120, 11):
            word = f"w{i:03d}"
            mine = neighbors(word, emb, lex, **cfg)
            ref = brute_force_neighbors(word, vectors, annotated, 7, 0.0)
            assert [w for w, _ in mine] == [w for w, _ in ref]
            for (_, a), (_, b) in zip(mine, ref):
                assert a == pytest.approx(b, abs=1e-9)

    def test_planted_exact_ties_match_brute_force(self):
        vectors, annotated = planted_ties()
        lex = {w: frame(0, 0, 0, 0, 0) for w in annotated}
        emb = EmbeddingStore(vectors)
        for word, k, min_sim in PLANTED_CASES:
            mine = neighbors(word, emb, lex, k=k, min_similarity=min_sim)
            ref = brute_force_neighbors(word, vectors, set(annotated), k, min_sim)
            assert [w for w, _ in mine] == [w for w, _ in ref], (word, k)
            for (_, a), (_, b) in zip(mine, ref):
                assert a == pytest.approx(b, abs=1e-9)
        assert [w for w, _ in neighbors("query", emb, lex, k=3, min_similarity=0.0)] \
            == ["tie_a", "tie_b", "tie_c"]
        edge = neighbors("axis", emb, lex, k=10, min_similarity=0.6)
        assert ("edge", 0.6) in edge
        assert "below" not in [w for w, _ in edge]

    def test_exact_tie_broken_by_the_whole_lemma(self):
        # a numpy str array drops trailing NUL characters, which would make
        # "ab" and "ab\x00" equal and leave their order to the lexicon's
        vectors = {"q": [1.0, 0.0], "ab\x00": [1.0, 1.0], "ab": [1.0, 1.0], "a": [1.0, 2.0]}
        lex = {w: frame(0, 0, 0, 0, 0) for w in ("ab\x00", "a", "ab")}
        emb = EmbeddingStore(vectors)
        mine = neighbors("q", emb, lex, k=3, min_similarity=0.0)
        ref = brute_force_neighbors("q", vectors, set(lex), 3, 0.0)
        assert [w for w, _ in mine] == [w for w, _ in ref] == ["ab", "ab\x00", "a"]


def engines(monkeypatch, emb, queries, annotated, k):
    """``scan`` run by the pure-Python engine, then by the numpy engine."""
    found = []
    for threshold in (math.inf, 0):
        monkeypatch.setattr(connotation, "NUMPY_SCAN_MIN", threshold)
        found.append(scan(emb, queries, annotated, k))
    return found


def bits(found):
    """Candidates with each similarity's exact bits, the sign of a zero
    included."""
    return [[(sim.hex(), i) for sim, i in candidates] for candidates in found]


class TestScanEngines:
    """Both engines give every candidate's similarity to the bit, so the
    neighbors do not depend on which one a scan's size picks."""

    def test_random_store(self, monkeypatch):
        rng = np.random.default_rng(31)
        scales = np.exp(rng.uniform(-20, 20, size=(300, 1)))
        vectors = {f"w{i:03d}": row for i, row in
                   enumerate((rng.normal(size=(300, 25)) * scales).tolist())}
        annotated = [f"w{i:03d}" for i in range(0, 300, 2)]
        queries = [f"w{i:03d}" for i in range(1, 300, 7)]
        emb = EmbeddingStore(vectors)
        for k in (1, 7, 150, 400):
            pure, fast = engines(monkeypatch, emb, queries, annotated, k)
            assert bits(pure) == bits(fast), k
            for word, candidates in zip(queries, pure):
                mine = nearest_annotated(candidates, annotated, k, 0.0)
                ref = brute_force_neighbors(word, vectors, set(annotated), k, 0.0)
                assert [w for w, _ in mine] == [w for w, _ in ref], (word, k)
                assert [s for _, s in mine] == pytest.approx([s for _, s in ref], abs=1e-9)

    def test_planted_ties_and_edges(self, monkeypatch):
        vectors, annotated = planted_ties()
        emb = EmbeddingStore(vectors)
        for word, k, min_sim in PLANTED_CASES:
            pure, fast = engines(monkeypatch, emb, [word], annotated, k)
            assert bits(pure) == bits(fast), (word, k)
            mine = nearest_annotated(pure[0], annotated, k, min_sim)
            assert mine == nearest_annotated(fast[0], annotated, k, min_sim)
            ref = brute_force_neighbors(word, vectors, set(annotated), k, min_sim)
            assert [w for w, _ in mine] == [w for w, _ in ref], (word, k)

    def test_any_finite_scale(self, monkeypatch):
        vectors = {"big": [3e200, 4e200], "tiny": [3e-200, 4e-200], "sub": [5e-324, 0.0],
                   "huge": [1.7e308, -1.7e308], "unit": [3.0, 4.0], "mixed": [1.0, 1e-300]}
        emb = EmbeddingStore(vectors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pure, fast = engines(monkeypatch, emb, list(vectors), list(vectors), 6)
        assert bits(pure) == bits(fast)

    def test_no_annotated_row_or_no_query(self, monkeypatch):
        lex, emb = small_world()
        for found in engines(monkeypatch, emb, ["pester"], [], 3):
            assert found == [[]]
        for found in engines(monkeypatch, emb, [], list(lex), 3):
            assert found == []


class TestPropagate:
    def test_annotated_identity(self):
        lex, emb = small_world()
        out = propagated("harass", lex, emb, k=10, min_similarity=0.0)
        assert out == HARASS_FRAME

    def test_hand_computed_two_neighbor_average(self):
        # Two neighbors with cosines 0.6 and 0.4 and verb sentiments
        # -0.5 and -0.7: (1/2)(0.6*-0.5 + 0.4*-0.7) = -0.29.
        lex = {
            "near": frame(-0.5, 0.0, 0.0, 0.0, 0.0),
            "far": frame(-0.7, 0.0, 0.0, 0.0, 0.0),
        }
        emb = EmbeddingStore({
            "near": [0.6, 0.8, 0.0],
            "far": [0.4, 0.0, np.sqrt(1 - 0.16)],
            "query": [1.0, 0.0, 0.0],
        })
        out = propagated("query", lex, emb, k=2, min_similarity=0.0)
        assert out.sentiment_verb == pytest.approx(-0.29, abs=1e-12)

    def test_unscorable_when_no_neighbors(self):
        lex, emb = small_world()
        cfg = dict(k=5, min_similarity=0.9)
        assert propagated("orthogonal", lex, emb, **cfg) is None

    def test_unscorable_when_unembedded(self):
        lex, emb = small_world()
        assert propagated("ghostverb", lex, emb, k=10, min_similarity=0.0) is None

    def test_magnitude_bounded_by_annotated_max(self):
        lex, emb = small_world()
        out = propagated("pester", lex, emb, k=3, min_similarity=0.0)
        bound = max(max(abs(v) for v in f) for f in lex.values())
        assert all(abs(v) <= bound + 1e-12 for v in out)
        assert all(-1.0 <= v <= 1.0 for v in out)

    def test_monotone_in_neighbor_sentiment(self):
        def world(delta):
            lex = {
                "a": frame(-0.5 + delta, 0, 0, 0, 0),
                "b": frame(-0.2 + delta, 0, 0, 0, 0),
            }
            emb = EmbeddingStore({
                "a": [0.9, 0.1], "b": [0.7, 0.3], "q": [1.0, 0.0]})
            out = propagated("q", lex, emb, k=2, min_similarity=0.0)
            return out.sentiment_verb

        assert world(0.3) >= world(0.0) >= world(-0.3)


class TestScoreEvent:
    def test_sign_pattern_for_aggressive_verb(self):
        lex, emb = small_world()
        triple = EventTriple("harass", "he", "me", False, "p1")
        [(post_id, out)] = score_triples([triple], labeled("p1"), lex, emb,
                                         k=10, min_similarity=0.0)
        assert post_id == "p1"
        assert out.sentiment_verb < 0
        assert out.sentiment_affected < 0
        assert out.persp_affected_to_agent < 0
        assert out.persp_reader_to_affected < 0
        assert out.persp_affected_to_affected > 0

    def test_passive_uses_same_frame(self):
        lex, emb = small_world()
        active = EventTriple("harass", "he", "me", False, "p1")
        passive = EventTriple("harass", "boss", "i", True, "p2")
        [(_, a), (_, b)] = score_triples([active, passive], labeled("p1", "p2"),
                                         lex, emb, k=10, min_similarity=0.0)
        assert a == b

    def test_purity(self):
        lex, emb = small_world()
        triples = [EventTriple("pester", None, None, False, "p1")]
        cfg = dict(k=2, min_similarity=0.0)
        assert score_triples(triples, labeled("p1"), lex, emb, **cfg) == \
            score_triples(triples, labeled("p1"), lex, emb, **cfg)

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
        cfg = dict(k=3, min_similarity=0.0)
        scored = score_triples(triples, labeled("p1", "p2", "p3", "p4"), lex, emb, **cfg)
        assert calls == ["pester", "ghostverb", "harass"]
        pester = propagated("pester", lex, emb, **cfg)
        assert scored == [("p1", pester), ("p2", HARASS_FRAME),
                          ("p3", pester), ("p1", HARASS_FRAME)]


class TestAggregate:
    def test_single_group_mean_and_percentage(self):
        scored = [("p1", frame(-0.2, -0.1, 0, 0, 0)),
                  ("p2", frame(-0.4, -0.3, 0, 0, 0))]
        labels = [HarassmentLabel("p1", HarassmentType.PHYSICAL, Participant.PEER),
                  HarassmentLabel("p2", HarassmentType.PHYSICAL, Participant.PEER)]
        (row,), coverage = aggregate(scored, by_post(labels))
        assert coverage == 1.0
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
        rows, _ = aggregate(scored, by_post(labels))
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
        rows, _ = aggregate(scored, by_post(labels))
        assert [(r.harassment_type, r.participant) for r in rows] == [
            (HarassmentType.PHYSICAL, Participant.PEER),
            (HarassmentType.PHYSICAL, Participant.FACULTY),
            (HarassmentType.VERBAL, Participant.PEER),
            (HarassmentType.VISUAL, Participant.THIRD_PARTY),
        ]

    def test_empty_input_empty_table(self):
        assert aggregate([], {}) == ([], 0.0)
        assert aggregate([], labeled("p1")) == ([], 0.0)

    def test_unlabeled_records_excluded_from_denominator(self):
        lex, emb = small_world()
        triples = [EventTriple("harass", None, None, False, "p1"),
                   EventTriple("harass", None, None, False, "stray"),
                   EventTriple("harass", None, None, False, "p1")]
        labels = labeled("p1", "p2")
        scored = score_triples(triples, labels, lex, emb, k=10, min_similarity=0.0)
        assert scored == [("p1", HARASS_FRAME), ("p1", HARASS_FRAME)]
        (row,), coverage = aggregate(scored, labels)
        assert row.percentage == 100.0
        assert coverage == 0.5

    def test_means_do_not_depend_on_record_order(self):
        values = [0.1, 0.2, 0.3, -0.6, 1e-3, -1e-3, 0.7]
        scored = [(f"p{i}", frame(v, -v, 0, 0, 0)) for i, v in enumerate(values)]
        labels = labeled(*(post_id for post_id, _ in scored))
        (row,), _ = aggregate(scored, labels)
        (reversed_row,), _ = aggregate(scored[::-1], labels)
        assert row == reversed_row

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
        rows, _ = aggregate(scored, by_post(labels))
        assert sum(r.percentage for r in rows) == pytest.approx(100.0, abs=0.01)


def test_aggregate_report_schema(tmp_path):
    scored = [("p1", frame(-0.2, -0.1, 0, 0, 0))]
    labels = [HarassmentLabel("p1", HarassmentType.PHYSICAL, Participant.FACULTY)]
    path = tmp_path / "sentiment.csv"
    rows, _ = aggregate(scored, by_post(labels))
    write_aggregate_report(rows, path, coverage=0.5)
    lines = path.read_text().splitlines()
    assert lines[0] == "harassment_type,participant,event_sentiment,affected_sentiment,percentage"
    assert lines[1].startswith("Physical,Faculty,")
    assert lines[-1] == "# coverage=0.5000"
