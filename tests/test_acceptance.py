"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -v -s``).  Every expected value
is either trivially hand-checkable or verified against an independent
oracle implemented in oracles.py.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import demo_manifest
from conftest import load_event_gold
from oracles import (
    brute_force_neighbors,
    exhaustive_segment,
    normal_equations_ols,
    t_tail_quadrature,
)
from postmine.connotation import (
    load_embeddings,
    load_lexicon,
    nearest_annotated,
    propagate,
    scan,
)
from postmine.corpus import Post, dedup, normalized_text
from postmine.events import bundled_inventory, extract_triples
from postmine.stats import DesignMatrix, ols_fit, t_pvalue
from postmine.textprep import segment, tokenize, bundled_stopwords
from postmine.topics import build_vocab, fit_lda, select_k, tfidf
from test_connotation import propagated
from test_topics import planted_corpus, theme_overlap


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_viterbi_oracle_equivalence(toy_lm):
    with criterion(1, "viterbi oracle equivalence"):
        rng = random.Random(20240)
        lm_words = sorted(toy_lm.unigram_counts)
        bodies = []
        while len(bodies) < 500:  # concatenations of model words, noise injected
            body = ""
            while len(body) < 18:
                nxt = lm_words[rng.randrange(len(lm_words))]
                if len(body) + len(nxt) > 18:
                    break
                body += nxt
            if rng.random() < 0.3 and len(body) < 18:
                pos = rng.randrange(len(body) + 1)
                body = body[:pos] + rng.choice("abcdefghijklmnopqrstuvwxyz") + body[pos:]
            if body:
                bodies.append(body[:18])
        while len(bodies) < 1000:  # uniform random strings
            length = rng.randint(1, 18)
            bodies.append("".join(rng.choice("acdegmorstuw") for _ in range(length)))

        start = time.monotonic()
        mismatches = 0
        for body in bodies:
            if segment(body, toy_lm) != exhaustive_segment(body, toy_lm):
                mismatches += 1
        elapsed = time.monotonic() - start
        assert mismatches == 0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_lda_planted_recovery():
    with criterion(2, "lda planted recovery"):
        docs, themes = planted_corpus(seed=7, n_docs=300, doc_len=20)
        vocab = build_vocab(docs, min_df=1)
        matrix = tfidf(docs, vocab)
        start = time.monotonic()
        chosen = select_k(matrix, vocab, [2, 3, 6], seed=42)
        elapsed = time.monotonic() - start
        assert chosen.k == 3
        assert theme_overlap(chosen, themes, top_n=5) >= 0.8
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        for k in (2, 3, 6):
            model = fit_lda(matrix, k, seed=42)
            assert np.allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(model.doc_topic.sum(axis=1), 1.0, atol=1e-9)
            trace = model.objective_trace
            for earlier, later in zip(trace, trace[1:]):
                assert later >= earlier - 1e-8


def test_criterion_3_ols_oracle_equivalence():
    with criterion(3, "ols oracle equivalence"):
        rng = np.random.default_rng(314159)
        for _ in range(100):
            x = rng.normal(size=(50, 5))
            x[:, -1] = 1.0
            y = x @ rng.normal(size=5) + rng.normal(scale=0.5, size=50)
            result = ols_fit(DesignMatrix(tuple("abcde"), x, y))
            beta, se, t = normal_equations_ols(x, y)
            assert np.allclose(result.coefficients, beta, rtol=1e-8, atol=1e-12)
            assert np.allclose(result.std_errors, se, rtol=1e-8, atol=1e-12)
            assert np.allclose(result.t_stats, t, rtol=1e-8, atol=1e-12)
            residuals = y - x @ result.coefficients
            scale = 1.0 + np.max(np.abs(x.T @ y))
            assert np.max(np.abs(x.T @ residuals)) <= 1e-8 * scale
        value = t_pvalue(2.0, 10)
        assert value == pytest.approx(0.0734, abs=5e-4)
        assert value == pytest.approx(t_tail_quadrature(2.0, 10), abs=1e-10)


def test_criterion_4_propagation(demo_bundle):
    with criterion(4, "eq-style propagation and neighbor exactness"):
        lexicon = load_lexicon(demo_bundle["lexicon"])
        embeddings = load_embeddings(demo_bundle["embeddings"])
        config = dict(k=10, min_similarity=0.0)
        assert len(lexicon) == 950
        annotated = [lemma for lemma in lexicon if lemma in embeddings]
        for lemma, frame in lexicon.items():
            # an annotated lemma keeps its frame, whatever its neighbors
            assert propagate(lemma, lexicon, [], annotated, **config) == frame

        # hand-computed two-neighbor case: (1/2)(0.6*-0.5 + 0.4*-0.7) = -0.29
        from postmine.connotation import ConnotationFrame, EmbeddingStore
        tiny_lex = {
            "near": ConnotationFrame(-0.5, 0, 0, 0, 0),
            "far": ConnotationFrame(-0.7, 0, 0, 0, 0),
        }
        tiny_emb = EmbeddingStore({
            "near": [0.6, 0.8, 0.0],
            "far": [0.4, 0.0, float(np.sqrt(1 - 0.16))],
            "query": [1.0, 0.0, 0.0],
        })
        out = propagated("query", tiny_lex, tiny_emb, k=2, min_similarity=0.0)
        assert out.sentiment_verb == pytest.approx(-0.29, abs=1e-12)

        # brute-force neighbor scan over the 1,000-word fixture store,
        # parsed independently of the loader under test; 100 queries
        # take the numpy engine
        vectors: dict[str, list[float]] = {}
        for line in demo_bundle["embeddings"].read_text().splitlines():
            parts = line.split()
            vectors[parts[0]] = [float(v) for v in parts[1:]]
        assert len(vectors) == 1000
        rng = random.Random(777)
        queries = rng.sample(sorted(vectors), 100)
        for word, candidates in zip(queries, scan(embeddings, queries, annotated, 10)):
            mine = nearest_annotated(candidates, annotated, **config)
            ref = brute_force_neighbors(word, vectors, set(lexicon), 10, 0.0)
            assert [w for w, _ in mine] == [w for w, _ in ref]
            for (_, a), (_, b) in zip(mine, ref):
                assert a == pytest.approx(b, abs=1e-9)


class Run(NamedTuple):
    out: Path
    stdout: dict[str, str]


@pytest.fixture(scope="module")
def double_run(tmp_path_factory, demo_bundle):
    """The full pipeline executed twice into separate directories."""
    runs = []
    for run in ("run_a", "run_b"):
        run_dir = tmp_path_factory.mktemp(run)
        stdout = demo_manifest.run_pipeline(
            demo_manifest.write_config(demo_bundle["config"], run_dir))
        runs.append(Run(run_dir / "out", stdout))
    return runs


def test_criterion_5_end_to_end_determinism(double_run):
    with criterion(5, "end-to-end determinism"):
        (run_a, stdout_a), (run_b, stdout_b) = double_run
        names = sorted(p.name for p in run_a.iterdir())
        assert names == sorted(p.name for p in run_b.iterdir())
        assert names  # at least the five artifacts
        for name in names:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
        assert stdout_a == stdout_b


def test_demo_outputs_match_the_manifest(double_run):
    expected = json.loads(demo_manifest.MANIFEST.read_text("utf-8"))
    found = demo_manifest.differences(
        expected, demo_manifest.describe(double_run[0].out, double_run[0].stdout))
    assert not found, "\n".join(
        found + [f"if the change is meant, regenerate: {demo_manifest.REGENERATE}"])


def test_criterion_6_schema_conformance(double_run):
    with criterion(6, "report schema conformance"):
        out = double_run[0].out
        regression = (out / "regression_report.csv").read_text().splitlines()
        assert regression[0] == "feature,coefficient,std_err,t_stat,p_value"
        assert [line.split(",")[0] for line in regression[1:-1]] == [
            "M/F Ratio", "Enrollment", "Private", "Northeast", "West",
            "South", "Normalized cases count", "constant"]
        sentiment = (out / "sentiment_report.csv").read_text().splitlines()
        assert sentiment[0] == ("harassment_type,participant,event_sentiment,"
                                "affected_sentiment,percentage")
        topic = (out / "topic_report.csv").read_text().splitlines()
        assert topic[0] == "topic,keywords"
        body = [line for line in topic[1:] if line and not line.startswith("#")]
        for index, line in enumerate(body, start=1):
            topic_id, keywords = line.split(",", 1)
            assert int(topic_id) == index
            assert len(keywords.split()) >= 2


def test_criterion_7_dedup_idempotence_and_conservation():
    with criterion(7, "dedup idempotence and conservation"):
        rng = random.Random(4242)
        for _ in range(100):
            posts = []
            for i in range(rng.randint(1, 60)):
                posts.append(Post(
                    post_id=f"p{rng.randint(0, 30)}",
                    user_id=f"u{rng.randint(0, 8)}",
                    institution_id="c1",
                    timestamp=rng.randint(0, 500),
                    text=rng.choice([
                        "same story", "Same  Story", "other words",
                        "unique %d" % rng.randint(0, 20), "SAME STORY",
                    ]),
                ))
            once = dedup(posts)
            twice = dedup(once)
            assert twice == once
            assert set(once) <= set(posts)
            ids = [p.post_id for p in once]
            assert len(ids) == len(set(ids))
            keys = [(p.user_id, normalized_text(p.text)) for p in once]
            assert len(keys) == len(set(keys))


def test_criterion_8_event_extraction_fixture():
    with criterion(8, "event extraction fixture"):
        inventory = bundled_inventory()
        stopwords = bundled_stopwords()
        gold_entries = load_event_gold()
        assert len(gold_entries) == 50

        extracted_by_id = {}
        for entry in gold_entries:
            triples = extract_triples(
                tokenize(entry["text"]), inventory, stopwords=stopwords)
            extracted_by_id[entry["id"]] = [
                (t.verb_lemma, t.agent, t.affected, t.passive)
                for t in triples
            ]

        by_id = {e["id"]: e for e in gold_entries}
        assert extracted_by_id["s01"] == [("harass", "he", "me", False)]
        assert by_id["s01"]["gold"] == [("harass", "he", "me", False)]
        assert extracted_by_id["s02"] == [("harass", "boss", "i", True)]
        assert by_id["s02"]["gold"] == [("harass", "boss", "i", True)]

        true_positive = 0
        emitted = 0
        gold_total = 0
        for entry in gold_entries:
            gold = list(entry["gold"])
            gold_total += len(gold)
            for key in extracted_by_id[entry["id"]]:
                emitted += 1
                if key in gold:
                    true_positive += 1
                    gold.remove(key)
        precision = true_positive / emitted if emitted else 0.0
        recall = true_positive / gold_total if gold_total else 0.0
        print(f"\nevent extraction fixture: precision={precision:.3f} "
              f"recall={recall:.3f} (emitted={emitted}, gold={gold_total}; "
              "informational, no threshold)")
        assert emitted > 0 and gold_total > 0
