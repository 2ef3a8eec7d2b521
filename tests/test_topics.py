from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from oracles import per_document_lda
from postmine import cli, topics
from postmine.errors import DataError
from postmine.textprep import content_terms, tokenize
from postmine.topics import (
    COHERENCE_EPS,
    TIE_RTOL,
    FitSummary,
    TopicModel,
    WeightedMatrix,
    build_vocab,
    coherence,
    fit_lda,
    save_model,
    select_k,
    tfidf,
    top_words,
)


# a model built by hand has no fit behind it
UNFITTED = dict(objective_trace=(), fits=())


def planted_corpus(seed=7, n_docs=300, doc_len=20):
    """Three disjoint ten-word themes; every document draws all its
    tokens from a single theme."""
    rng = np.random.default_rng(seed)
    themes = [[f"theme{t}word{i:02d}" for i in range(10)] for t in range(3)]
    docs = []
    for _ in range(n_docs):
        theme = themes[int(rng.integers(0, 3))]
        picks = rng.choice(theme, size=doc_len, replace=True)
        docs.append([str(w) for w in picks])
    return docs, themes


def theme_overlap(model, themes, top_n=5):
    tops = [set(w for w, _ in top_words(model, t, top_n)) for t in range(model.k)]
    best = 0
    for perm in itertools.permutations(range(len(themes))):
        score = sum(len(tops[t] & set(themes[perm[t]]))
                    for t in range(min(model.k, len(themes))))
        best = max(best, score)
    return best / (top_n * len(themes))


class TestBuildVocab:
    def test_min_df_retains_shared_term(self):
        docs = ["story one".split(), "story two".split()]
        vocab = build_vocab(docs, min_df=2)
        assert vocab == {"story": frozenset({0, 1})}

    def test_min_df_excludes_rare_term(self):
        docs = ["story one".split(), "story two".split()]
        vocab = build_vocab(docs, min_df=2)
        assert "one" not in vocab

    def test_all_stopworded_is_fatal(self):
        docs = [content_terms(tokenize(text)) for text in ("the and", "the of")]
        with pytest.raises(DataError, match="no term satisfies min_df=1"):
            build_vocab(docs, min_df=1)

    def test_postings_match_brute_force_scan(self):
        docs, _ = planted_corpus(seed=37, n_docs=80, doc_len=6)
        docs[5] += ["rare", "rare"]
        vocab = build_vocab(docs, min_df=2)
        holding = {term: {d for d, doc in enumerate(docs) if term in doc}
                   for term in {term for doc in docs for term in doc}}
        expected = {term: holding[term] for term in sorted(holding)
                    if len(holding[term]) >= 2}
        assert "rare" not in expected and len(expected) == 30
        assert list(vocab) == list(expected)
        assert vocab == expected


class TestTfidf:
    def test_common_term_annihilated(self):
        docs = ["story alpha".split(), "story beta".split()]
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        story = list(vocab).index("story")
        for ids, _ in matrix.rows:
            assert story not in ids

    def test_hand_computed_weight(self):
        docs = ["rare rare common".split(), "common".split()]
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        ids, weights = matrix.rows[0]
        (value,) = [w for i, w in zip(ids, weights) if i == list(vocab).index("rare")]
        assert value == pytest.approx(2 * math.log(2), abs=1e-12)
        assert value == pytest.approx(1.3863, abs=5e-4)

    def test_empty_document_gives_empty_row(self):
        docs = ["alpha beta".split(), []]
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        assert len(matrix.rows[1][0]) == 0

    def test_count_scaling_scales_weights(self):
        base = ["alpha alpha beta".split(), "alpha gamma".split()]
        tripled = [doc * 3 for doc in base]
        vocab = build_vocab(base, min_df=1)
        m1 = tfidf(base, vocab)
        m3 = tfidf(tripled, vocab)
        for (i1, w1), (i3, w3) in zip(m1.rows, m3.rows):
            assert list(i1) == list(i3)
            assert np.allclose(w3, 3 * np.asarray(w1), rtol=1e-12)


class TestFitLda:
    def test_planted_recovery(self):
        docs, themes = planted_corpus()
        vocab = build_vocab(docs, min_df=1)
        model = fit_lda(tfidf(docs, vocab), 3, seed=42)
        assert theme_overlap(model, themes, top_n=5) >= 0.8

    def test_degenerate_mass_on_single_weighted_term(self):
        # Every document weights only term 0; term 1 exists in the
        # vocabulary but never occurs.
        rows = tuple(
            (np.array([0]), np.array([5.0])) for _ in range(30))
        matrix = WeightedMatrix(rows=rows, terms=("a", "b"))
        model = fit_lda(matrix, 2, seed=0)
        assert np.all(model.topic_word[:, 0] > 0.99)
        assert np.allclose(model.doc_topic.sum(axis=1), 1.0, atol=1e-9)

    def test_bitwise_determinism(self):
        docs, _ = planted_corpus(seed=3, n_docs=40)
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        a = fit_lda(matrix, 3, seed=11, iters=30)
        b = fit_lda(matrix, 3, seed=11, iters=30)
        assert np.array_equal(a.topic_word, b.topic_word)
        assert np.array_equal(a.doc_topic, b.doc_topic)

    def test_k_larger_than_vocab_fatal(self):
        docs = ["alpha beta".split(), "alpha gamma".split()]
        vocab = build_vocab(docs, min_df=1)
        with pytest.raises(DataError):
            fit_lda(tfidf(docs, vocab), 5, seed=0)

    def test_rows_normalized_and_objective_monotone(self):
        docs, _ = planted_corpus(seed=5, n_docs=60)
        vocab = build_vocab(docs, min_df=1)
        model = fit_lda(tfidf(docs, vocab), 3, seed=1)
        assert np.allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(model.doc_topic.sum(axis=1), 1.0, atol=1e-9)
        trace = model.objective_trace
        assert len(trace) >= 2
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-8
        [fit] = model.fits
        assert (fit.k, fit.sweeps, fit.bound) == (3, len(trace), trace[-1])
        assert math.isnan(fit.coherence) and fit.converged

    def test_empty_documents_get_uniform_rows(self):
        docs = ["alpha beta gamma".split(), [], "alpha delta beta".split()]
        vocab = build_vocab(docs, min_df=1)
        model = fit_lda(tfidf(docs, vocab), 2, seed=0)
        assert np.allclose(model.doc_topic[1], 0.5)

    def test_fit_with_no_active_document(self):
        # every document holds every term, so every idf is 0 and every row
        # is empty: the E-step has no column to update
        docs = ["alpha beta".split(), "beta alpha alpha".split(), "alpha beta beta".split()]
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        assert all(len(ids) == 0 for ids, _ in matrix.rows)
        model = fit_lda(matrix, 2, seed=0)
        assert model.doc_topic.tolist() == [[0.5, 0.5]] * 3
        assert model.objective_trace == (0.0, 0.0)
        [fit] = model.fits
        assert (fit.sweeps, fit.inner, fit.capped, fit.bound, fit.converged) \
            == (2, 0, 0, 0.0, True)


def oracle_corpus(name):
    if name == "empty-document":
        docs, _ = planted_corpus(seed=29, n_docs=60)
        return docs[:30] + [[]] + docs[30:]
    docs, _ = planted_corpus(seed=31, n_docs=60, doc_len=1)  # single-term
    return docs


@pytest.mark.parametrize("name", ["empty-document", "single-term"])
@pytest.mark.parametrize("k", [2, 3, 6])
def test_batched_fit_matches_per_document_oracle(name, k):
    docs = oracle_corpus(name)
    matrix = tfidf(docs, build_vocab(docs, min_df=1))
    model = fit_lda(matrix, k, seed=5, iters=40)
    # the reference runs each document's plain update to its fixed point,
    # which the accelerated E-step reaches to within INNER_RTOL
    topic_word, doc_topic, trace = per_document_lda(
        matrix, k, seed=5, iters=40, inner_iters=20000, inner_tol=1e-13)
    assert len(model.objective_trace) == len(trace)
    rtol = topics.INNER_RTOL
    assert np.allclose(model.objective_trace, trace, rtol=rtol, atol=0.0)
    assert np.allclose(model.topic_word, topic_word, rtol=rtol, atol=0.0)
    # the E-step's stop rule measures a document's change against its row
    # sum, so its distance to the fixed point is measured the same way
    assert np.abs(model.doc_topic - doc_topic).sum(axis=1).max() <= rtol


# [1e-3, 1e6] on a log grid, the neighbourhood of digamma's root at
# 1.4616 and the prior eta = 0.01, as one 2-D block like the fit's
_SPECIAL_POINTS = np.concatenate([
    np.logspace(-3, 6, 2001), np.linspace(1.45, 1.475, 251),
    [0.01, 1.4616321449683623]]).reshape(2, -1)


@pytest.mark.parametrize("mine, reference", [
    (topics._digamma, digamma), (topics._gammaln, gammaln)], ids=["digamma", "gammaln"])
def test_special_functions_match_scipy(mine, reference):
    ref = reference(_SPECIAL_POINTS)
    value = mine(_SPECIAL_POINTS)
    assert value.shape == ref.shape
    assert np.all(np.abs(value - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


class TestCoherence:
    def test_perfect_cooccurrence_near_zero(self):
        docs = ["a b c d".split()] * 3
        vocab = build_vocab(docs, min_df=1)
        model = fit_lda(tfidf(docs, vocab), 2, seed=0)
        # the top COHERENCE_TOP_N words are all four, and codoc == doc for
        # each of their six pairs, so each pair term is ln(1 + eps/doc)
        value = coherence(model, vocab)
        assert value == pytest.approx(6 * math.log((3 + COHERENCE_EPS) / 3), abs=1e-12)

    def test_disjoint_top_words_strongly_negative(self):
        # Rig a model of two words that never co-occur; the top
        # COHERENCE_TOP_N words of each topic are both.
        docs = ["a x".split(), "z y".split(), "a w".split()]
        model = TopicModel(
            k=2,
            topic_word=np.array([[0.7, 0.3], [0.3, 0.7]]),
            doc_topic=np.full((3, 2), 0.5),
            coherence=float("nan"),
            seed=0,
            terms=("a", "z"),
            **UNFITTED,
        )
        value = coherence(model, build_vocab(docs, min_df=1))
        # topic 0 pair (z after a): ln(eps / doc(a)) with doc(a) = 2;
        # topic 1 pair (a after z): ln(eps / doc(z)) with doc(z) = 1
        expected = (math.log(COHERENCE_EPS / 2) + math.log(COHERENCE_EPS / 1)) / 2
        assert value == pytest.approx(expected, rel=1e-9)

    def test_invariant_to_word_order_within_documents(self):
        docs, _ = planted_corpus(seed=9, n_docs=40)
        vocab = build_vocab(docs, min_df=1)
        model = fit_lda(tfidf(docs, vocab), 3, seed=2)
        shuffled = [list(reversed(doc)) for doc in docs]
        assert coherence(model, vocab) == coherence(model, build_vocab(shuffled, min_df=1))


class TestSelectK:
    def test_logs_convergence_per_candidate(self):
        docs, _ = planted_corpus(seed=13, n_docs=40)
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        one = select_k(matrix, vocab, [2], seed=0, iters=1)
        full = select_k(matrix, vocab, [2], seed=0, iters=200)
        [capped] = one.fits
        [converged] = full.fits
        sweeps = len(full.objective_trace)
        assert capped == FitSummary(2, one.coherence, 1, capped.inner, capped.capped,
                                    one.objective_trace[-1], False)
        assert converged == FitSummary(2, full.coherence, sweeps, converged.inner,
                                       converged.capped, full.objective_trace[-1], True)
        # the line ``-v`` prints for each candidate
        assert cli._candidate_line(capped) == (
            f"INFO postmine.topics: select_k: k=2 coherence={one.coherence:.6f} "
            f"sweeps=1 inner={capped.inner} capped={capped.capped} "
            f"bound={one.objective_trace[-1]:.6f} stop=iters")
        assert cli._candidate_line(converged).endswith(
            f" sweeps={sweeps} inner={converged.inner} capped={converged.capped} "
            f"bound={full.objective_trace[-1]:.6f} stop=tol")
        # each sweep runs at least one and at most INNER_ITERS (100) plain updates
        assert 1 <= capped.inner <= 100
        assert sweeps <= converged.inner <= 100 * sweeps
        # a document is cut off at most once per sweep, and the first sweep
        # of both fits is the same
        assert capped.capped <= len(docs)
        assert capped.capped <= converged.capped <= len(docs) * sweeps

    def test_e_step_converges_where_plain_updates_cap(self):
        # unaccelerated, 100 plain updates per sweep leave 28 documents short
        # of INNER_RTOL, summed over this fit's four sweeps; SQUAREM leaves none
        docs, _ = planted_corpus(seed=13, n_docs=40)
        vocab = build_vocab(docs, min_df=1)
        [fit] = fit_lda(tfidf(docs, vocab), 2, seed=0).fits
        assert fit.converged
        assert fit.capped == 0
        assert fit.inner < 100 * fit.sweeps

    def test_singleton_candidate(self):
        docs, _ = planted_corpus(seed=13, n_docs=40)
        vocab = build_vocab(docs, min_df=1)
        model = select_k(tfidf(docs, vocab), vocab, [3], seed=0, iters=40)
        assert model.k == 3

    def test_fits_list_every_candidate_by_k(self):
        docs, _ = planted_corpus(seed=17, n_docs=60)
        vocab = build_vocab(docs, min_df=1)
        model = select_k(tfidf(docs, vocab), vocab, [6, 2, 3], seed=4, iters=40)
        assert [fit.k for fit in model.fits] == [2, 3, 6]
        assert model.coherence == max(fit.coherence for fit in model.fits)
        # scalars only: no candidate's arrays are kept
        assert all(not isinstance(value, np.ndarray) for fit in model.fits for value in fit)

    def test_planted_corpus_selects_three(self):
        docs, themes = planted_corpus()
        vocab = build_vocab(docs, min_df=1)
        model = select_k(tfidf(docs, vocab), vocab, [2, 3, 6], seed=42)
        assert model.k == 3
        assert not math.isnan(model.coherence)

    def test_exact_tie_prefers_smaller_k(self):
        # Identical documents make every pair term identical, so all
        # candidate models tie exactly and the smaller K must win.
        docs = ["a b c d".split()] * 3
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        model = select_k(matrix, vocab, [4, 2], seed=0, iters=20)
        assert model.k == 2

    def test_candidate_order_irrelevant(self):
        docs, _ = planted_corpus(seed=17, n_docs=60)
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        a = select_k(matrix, vocab, [6, 3, 2], seed=4, iters=40)
        b = select_k(matrix, vocab, [2, 3, 6], seed=4, iters=40)
        assert a.k == b.k
        assert np.array_equal(a.topic_word, b.topic_word)


class TestTopWords:
    def _model(self, probs, terms):
        return TopicModel(
            k=1, topic_word=np.array([probs]), doc_topic=np.ones((1, 1)),
            coherence=float("nan"), seed=0, terms=terms, **UNFITTED)

    def test_degenerate_single_word(self):
        model = self._model([1.0], ("a",))
        assert top_words(model, 0, 3) == [("a", 1.0)]

    def test_ties_broken_lexicographically(self):
        model = self._model([0.25, 0.25, 0.5], ("zeta", "alpha", "mid"))
        assert [w for w, _ in top_words(model, 0, 3)] == ["mid", "alpha", "zeta"]

    def test_n_clamped_to_vocab(self):
        model = self._model([0.6, 0.4], ("a", "b"))
        assert len(top_words(model, 0, 99)) == 2

    def test_near_ties_chained_and_ordered_by_name(self):
        # d, c and b are each within TIE_RTOL of their sorted neighbour,
        # so they form one chain although d and b are further apart;
        # a is just outside it
        step = 0.4 * TIE_RTOL
        weights = [0.2 * (1 - 5 * step), 0.2 * (1 - 2 * step), 0.2 * (1 - step), 0.2, 0.1]
        model = self._model(weights, ("a", "b", "c", "d", "e"))
        assert [w for w, _ in top_words(model, 0, 5)] == ["b", "c", "d", "a", "e"]
        assert [w for w, _ in top_words(model, 0, 2)] == ["b", "c"]
        assert top_words(model, 0, 1) == [("b", weights[1])]

    def test_ranking_ignores_last_bit_of_identical_columns(self):
        # every theme word has a twin on exactly the same documents, so
        # the fit gives the two the same weight up to rounding
        base, _ = planted_corpus(seed=19, n_docs=90)
        docs = [[t for term in doc for t in (term, "twin" + term)] for doc in base]
        matrix = tfidf(docs, build_vocab(docs, min_df=1))
        model = fit_lda(matrix, 3, seed=3, iters=30)
        index = {term: i for i, term in enumerate(model.terms)}
        for t in range(model.k):
            names = [w for w, _ in top_words(model, t, 12)]
            for word in names:
                twin = word[4:] if word.startswith("twin") else "twin" + word
                assert twin in names and names.index(twin) - names.index(word) in (-1, 1)
                for direction in (-np.inf, np.inf):
                    topic_word = model.topic_word.copy()
                    cell = topic_word[t, index[word]]
                    topic_word[t, index[word]] = np.nextafter(cell, direction)
                    again = top_words(model._replace(topic_word=topic_word), t, 12)
                    assert [w for w, _ in again] == names


def test_model_serialization_round_trip(tmp_path):
    docs, _ = planted_corpus(seed=23, n_docs=30)
    vocab = build_vocab(docs, min_df=1)
    model = fit_lda(tfidf(docs, vocab), 3, seed=8, iters=20)
    path = tmp_path / "model.txt"
    save_model(model, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header.split("\t") == ["3", str(len(vocab)), "8", repr(float(model.coherence))]
    values = np.array([[float(x) for x in row.split("\t")] for row in rows[:3]])
    assert np.array_equal(values, model.topic_word)
    values = np.array([[float(x) for x in row.split("\t")] for row in rows[3:]])
    assert np.array_equal(values, model.doc_topic)
