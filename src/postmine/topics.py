"""TF-IDF weighting, LDA topic models and coherence-based model selection.

A document is a plain list of its content terms (``textprep.content_terms``
of a preprocessed post), so this module does not import ``textprep``.
``build_vocab`` reads the documents once and maps each kept term, in
sorted order, to the frozenset of the documents holding it; ``tfidf``
takes the document frequencies from it, and coherence counts doc and
codoc (below) from its sets, so no later step reads the documents again.

Inference is variational Bayes rather than collapsed Gibbs: the
documents carry fractional TF-IDF weights, and VB consumes fractional
expected counts directly.  Per-topic word distributions get a symmetric
Dirichlet prior ETA = 0.01, per-document topic distributions a symmetric
alpha = 1/K.  Fits are deterministic functions of (matrix, K, seed,
iters): the only randomness is the seeded Gamma initialization of the
topic-word variational parameters.

The E-step is batched over documents (the batch update of Hoffman,
Blei & Bach, "Online Learning for Latent Dirichlet Allocation", 2010):
the nonzeros of all non-empty rows are concatenated once per fit, each
inner iteration updates every document's topic weights with one gather
over the nonzeros and one segment sum per document, and the expected
counts come from one bincount per topic.  The arrays are topic-major:
exp E[log beta] is gathered as K x nonzeros and the topic weights are
K x documents, so every gather and segment sum runs along contiguous
rows.  The update is scale-free: exp E[log theta] enters it and the
expected counts only through ratios within a document, so the E-step
uses exp(psi(gamma)) and never evaluates psi of the row sums.

The plain update converges linearly, and slowly for a document whose
topics the current topic-word parameters barely tell apart, so the
E-step accelerates each document's fixed point with SQUAREM (Varadhan &
Roland, "Simple and Globally Convergent Methods for Accelerating the
Convergence of Any EM Algorithm", 2008, scheme S3): each cycle runs two
plain updates and moves the document to the extrapolated point of the
three, with its own step length, which backs off halfway toward a plain
step while the point has a topic weight that is not positive.  A
document stops in the cycle whose second plain update changes gamma by
sum_k |change| < INNER_RTOL * sum_k gamma (a relative form of the
paper's mean-change threshold), and keeps that update; INNER_ITERS caps
the plain updates of a sweep.  Stopped documents leave the working
arrays, with their nonzeros, once at most half of the working columns
are still running, so compaction costs little and no document's
arithmetic depends on when it happens.  The bound is one log-sum-exp
over all nonzeros plus the per-document Dirichlet terms summed over
documents, and keeps the full Dirichlet expectation.

The special functions are numpy code in this module, so the stage needs
numpy alone.  Digamma and log-gamma shift their argument by ten with the
recurrence and then sum the asymptotic Bernoulli series.  E[log beta] is
one digamma call per M-step, on lambda and its row sums, read by the bound
and the next E-step; psi(gamma) is one call per E-step, of its final gamma,
whose exp the M-step and the next E-step read and which, less psi of the
column sums, is the bound's E[log theta].

The fit keeps the per-document variational parameters warm across
sweeps, and a plain update is an exact coordinate maximization, which
keeps the evidence lower bound non-decreasing from one sweep to the
next.  The extrapolated points are not checked against the bound; the
bound trace is kept on the returned model so callers can audit
monotonicity.

Model quality is scored with intrinsic (co-document) coherence: for
each topic, sum over ordered top-word pairs (w_i, w_j), i > j ranked by
``top_words``, of ln((codoc(w_i, w_j) + eps) / doc(w_j)), eps = 1e-12,
averaged over topics.  ``top_words`` sorts by weight, descending, and
orders by name each chain of sorted neighbours whose gap is at most
1e-9 times the larger of the two, so words with the same document
profile, which converge to the same weight only up to rounding, rank by
name and the report does not depend on the fit's last bits.
``select_k`` fits one model per candidate K and returns the coherence
argmax over each model's top 10 words, ties broken toward smaller K,
with every candidate's ``FitSummary`` for the CLI to report.

The fit's fixed settings are module constants: ETA, the relative bound
stop BOUND_RTOL, and the E-step's INNER_ITERS, INNER_RTOL and
SQUAREM_HALVINGS.
``save_model``, ``write_vocab`` and ``write_topic_report`` write the
stage's three files through ``errors.atomic_open``; no stage reads the
model back.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, atomic_open

COHERENCE_EPS = 1e-12
ETA = 0.01             # symmetric Dirichlet prior on each topic's words
BOUND_RTOL = 1e-6      # fit_lda stops once the bound moves by at most this, relative
INNER_ITERS = 100      # plain E-step updates per sweep, at most (two per SQUAREM cycle)
INNER_RTOL = 1e-6      # a document's E-step stops below this relative change of gamma
SQUAREM_HALVINGS = 6   # times a SQUAREM step backs off before a plain step replaces it
# top_words ranks sorted neighbours this close, relative to the larger, by name
TIE_RTOL = 1e-9

# B_2j / (2j) for j = 1..7, the coefficients of the asymptotic series
# psi(x) ~ ln x - 1/(2x) - sum_j B_2j / (2j x^2j) (Abramowitz & Stegun
# 6.3.18); from x >= 10 on, the first omitted term is below 5e-17.
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_PSI_STEPS = np.arange(9.0, -1.0, -1.0)   # the recurrence's shifts, largest first
# B_2j / (2j (2j - 1)) for j = 1..7, the coefficients of Stirling's series
# ln Gamma(x) ~ (x - 1/2) ln x - x + ln(2 pi) / 2 + sum_j B_2j / (2j (2j - 1) x^(2j - 1))
# (Abramowitz & Stegun 6.1.40); from x >= 10 on, the first omitted term is below 3e-17.
_LGAMMA_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class WeightedMatrix(NamedTuple):
    """Per-document sparse rows of (term index, nonnegative weight).

    ``terms`` mirrors the vocabulary the indices point into so that
    models fitted from the matrix can name their top words.
    """

    rows: tuple[tuple[np.ndarray, np.ndarray], ...]
    terms: tuple[str, ...]


class FitSummary(NamedTuple):
    """The scalars of one fit, kept after its arrays are dropped."""

    k: int
    coherence: float   # NaN until ``select_k`` scores the fit
    sweeps: int
    inner: int         # plain E-step updates over all sweeps
    capped: int        # documents cut off by INNER_ITERS, over all sweeps
    bound: float       # the last sweep's bound
    converged: bool    # the bound met BOUND_RTOL before iters ran out


class TopicModel(NamedTuple):
    k: int
    topic_word: np.ndarray        # K x V, rows sum to 1
    doc_topic: np.ndarray         # D x K, rows sum to 1
    coherence: float
    seed: int
    terms: tuple[str, ...]
    objective_trace: tuple[float, ...]
    fits: tuple[FitSummary, ...]  # this fit's; from ``select_k``, every candidate's by K


def build_vocab(
    docs: Sequence[Sequence[str]],
    min_df: int = 1,
    stopwords: frozenset[str] | set[str] = frozenset(),
) -> dict[str, frozenset[int]]:
    """Map each term that is no stopword and occurs in at least min_df
    documents to the indices of the documents holding it, in sorted
    term order."""
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    postings: dict[str, list[int]] = {}
    for d, doc in enumerate(docs):
        for term in set(doc).difference(stopwords):
            postings.setdefault(term, []).append(d)
    vocab = {term: frozenset(postings[term]) for term in sorted(postings)
             if len(postings[term]) >= min_df}
    if not vocab:
        raise DataError(
            "no term satisfies min_df=%d after stopword removal" % min_df
        )
    return vocab


def tfidf(docs: Sequence[Sequence[str]], vocab: dict[str, frozenset[int]]) -> WeightedMatrix:
    """weight(d, t) = tf(d, t) * ln(N / df(t)) over the vocabulary.

    A term present in every document gets idf exactly 0 and drops out of
    the sparse rows, as does any term absent from a document.
    """
    n_docs = len(docs)
    index = {term: i for i, term in enumerate(vocab)}
    idf = np.array([math.log(n_docs / len(holding)) for holding in vocab.values()])
    rows = []
    for doc in docs:
        counts: dict[int, int] = {}
        for term in doc:
            idx = index.get(term)
            if idx is not None:
                counts[idx] = counts.get(idx, 0) + 1
        ids = []
        weights = []
        for idx in sorted(counts):
            w = counts[idx] * idf[idx]
            if w > 0.0:
                ids.append(idx)
                weights.append(w)
        rows.append((np.array(ids, dtype=np.intp), np.array(weights, dtype=np.float64)))
    return WeightedMatrix(rows=tuple(rows), terms=tuple(vocab))


def _digamma(values: np.ndarray) -> np.ndarray:
    """psi(x) elementwise for positive x.

    The recurrence psi(x) = psi(x + 1) - 1/x gives psi(x) =
    psi(x + 10) - sum_i 1/(x + i), i < 10, and at x + 10 >= 10 the
    asymptotic series needs seven terms.  The positive corrections are
    summed smallest first and subtracted from the logarithm once.
    Against scipy's digamma the error is within 1.3e-15 * max(1, |psi|)
    on [1e-3, 1e6]."""
    x = np.asarray(values, dtype=np.float64)
    steps = x + _PSI_STEPS.reshape((-1,) + (1,) * x.ndim)   # x + 9, ..., x + 0
    np.reciprocal(steps, out=steps)
    correction = np.add.reduce(steps, axis=0)
    shifted = x + len(_PSI_STEPS)
    inv = np.reciprocal(shifted)
    z = inv * inv
    series = z * _PSI_SERIES[-1]
    for coeff in reversed(_PSI_SERIES[:-1]):
        series += coeff
        series *= z
    inv *= 0.5
    correction += inv
    correction += series
    np.log(shifted, out=shifted)
    shifted -= correction
    return shifted


def _gammaln(values: np.ndarray) -> np.ndarray:
    """log Gamma(x) elementwise for positive x.

    Gamma(x) = Gamma(x + 10) / (x (x + 1) ... (x + 9)), and at x + 10 >=
    10 Stirling's series needs seven terms.  Each factor of the product
    is taken over x + 10, which keeps the product in (0, 1] and moves
    its ten logarithms of x + 10 into the series' (x + 10 - 1/2) ln(x + 10),
    so the shift costs one logarithm and the large terms that cancel stay
    small.  Against scipy's gammaln the error is within 4.3e-15 *
    max(1, |log Gamma|) on [1e-3, 1e6]."""
    x = np.asarray(values, dtype=np.float64)
    shifted = x + len(_PSI_STEPS)
    inv = np.reciprocal(shifted)
    ratio = x * inv
    for shift in _PSI_STEPS[:-1]:
        ratio *= (x + shift) * inv
    z = inv * inv
    series = z * _LGAMMA_SERIES[-1]
    for coeff in reversed(_LGAMMA_SERIES[1:-1]):
        series += coeff
        series *= z
    series += _LGAMMA_SERIES[0]
    series *= inv
    result = np.log(shifted)
    result *= x - 0.5
    result -= shifted
    result += _HALF_LOG_2PI
    result += series
    result -= np.log(ratio)
    return result


def _dirichlet_expectation(params: np.ndarray) -> np.ndarray:
    """E[log beta] under Dirichlet(row) for every row of lambda: one
    digamma call on the rows with their sums appended as a last column."""
    k = params.shape[1]
    block = np.empty((len(params), k + 1))
    block[:, :k] = params
    block[:, k] = params.sum(axis=1)
    psi = _digamma(block)
    return psi[:, :k] - psi[:, k:]


class _Nonzeros(NamedTuple):
    """The nonzeros of the active (non-empty) rows, concatenated in
    document order: a CSR layout with row lengths instead of a pointer
    array."""

    ids: np.ndarray       # term index of each nonzero
    cts: np.ndarray       # weight of each nonzero
    doc_of: np.ndarray    # active-document index of each nonzero
    lengths: np.ndarray   # nonzeros per active document, all >= 1

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[np.ndarray, np.ndarray]]) -> "_Nonzeros":
        lengths = np.array([len(ids) for ids, _ in rows], dtype=np.intp)
        if not rows:
            empty = np.zeros(0, dtype=np.intp)
            return cls(empty, np.zeros(0), empty, lengths)
        return cls(
            ids=np.concatenate([ids for ids, _ in rows]),
            cts=np.concatenate([cts for _, cts in rows]),
            doc_of=np.repeat(np.arange(len(rows)), lengths),
            lengths=lengths,
        )


def _starts(lengths: np.ndarray) -> np.ndarray:
    return np.cumsum(lengths) - lengths


def fit_lda(matrix: WeightedMatrix, k: int, seed: int, iters: int = 200) -> TopicModel:
    """Batch variational-Bayes LDA over (possibly fractional) weights.

    Stops early when the relative change of the bound is at most
    BOUND_RTOL.
    Documents with no nonzero weight are skipped and get a uniform
    doc_topic row.  Coherence is left NaN; ``coherence`` /
    ``select_k`` fill it in.
    """
    if k < 2:
        raise ValueError(f"topic count must be >= 2, got {k}")
    vocab_size = len(matrix.terms)
    if k > vocab_size:
        raise DataError(f"topic count {k} exceeds vocabulary size {vocab_size}")
    if iters < 1:
        raise ValueError("iters must be >= 1")

    n_docs = len(matrix.rows)
    alpha = 1.0 / k
    active = [d for d, (ids, _) in enumerate(matrix.rows) if len(ids) > 0]
    nz = _Nonzeros.from_rows([matrix.rows[d] for d in active])

    rng = np.random.default_rng(seed)
    lam = rng.gamma(100.0, 0.01, (k, vocab_size))
    # gamma holds the active documents' columns only, in order: K x active
    row_sums = np.array([matrix.rows[d][1].sum() for d in active])
    gamma = np.repeat((alpha + row_sums / k)[None, :], k, axis=0)

    trace: list[float] = []
    converged = False
    inner_total = capped_total = 0
    elog_beta = _dirichlet_expectation(lam)   # E[log beta], once per lambda
    theta = np.exp(_digamma(gamma))           # exp psi(gamma), once per gamma
    for _ in range(iters):
        exp_elog_beta = np.take(np.exp(elog_beta), nz.ids, axis=1)  # K x nnz
        inner, capped = _e_step(gamma, theta, exp_elog_beta, nz, alpha)
        inner_total += inner
        capped_total += capped
        psi = _digamma(gamma)
        theta = np.exp(psi)
        weights = np.take(theta, nz.doc_of, axis=1)
        phinorm = np.einsum("kj,kj->j", weights, exp_elog_beta) + 1e-100
        weights *= nz.cts / phinorm
        weights *= exp_elog_beta
        sstats = np.array([
            np.bincount(nz.ids, weights=row, minlength=vocab_size) for row in weights])
        lam = ETA + sstats
        elog_beta = _dirichlet_expectation(lam)
        bound = _elbo(nz, gamma, psi, lam, elog_beta, alpha)
        trace.append(bound)
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(bound - prev) <= BOUND_RTOL * abs(prev):
                converged = True
                break

    topic_word = lam / lam.sum(axis=1)[:, None]
    doc_topic = np.full((n_docs, k), 1.0 / k)
    doc_topic[active] = (gamma / gamma.sum(axis=0)).T
    return TopicModel(
        k=k,
        topic_word=topic_word,
        doc_topic=doc_topic,
        coherence=float("nan"),
        seed=seed,
        terms=matrix.terms,
        objective_trace=tuple(trace),
        fits=(FitSummary(k, float("nan"), len(trace), inner_total, capped_total,
                         trace[-1], converged),),
    )


def _e_step(gamma: np.ndarray, theta: np.ndarray, exp_elog_beta: np.ndarray,
            nz: _Nonzeros, alpha: float) -> tuple[int, int]:
    """Run the per-document fixed point for gamma (K x active) on every
    active document at once, accelerated by SQUAREM, from ``theta`` =
    exp(psi(gamma)); updates ``gamma`` in place and returns the number of
    plain updates run and the number of documents still running when
    INNER_ITERS ran out.

    exp(psi(gamma)) stands in for exp(E[log theta]): the two differ by
    a factor per document, which ``phinorm`` divides out of the update
    and of the expected counts.  Each cycle runs two plain updates,
    g1 = F(g) and g2 = F(g1), and then moves every working column to
    its SQUAREM point of the three (``_extrapolate``); no update starts
    from g2, so it alone goes without its exp(psi).  A document stops in
    the cycle whose step g1 -> g2 has sum_k |change of gamma| <
    INNER_RTOL * sum_k gamma, and keeps g2; a document still running once
    INNER_ITERS plain updates have run keeps its last g2 too.  Stopped
    columns leave the working arrays, with their nonzeros, once at most
    half of the working columns are still running; until then they are
    updated and ignored, which leaves every other document's arithmetic
    as it is."""
    if not gamma.shape[1]:
        return 0, 0
    live = np.arange(gamma.shape[1])      # working column -> active document
    running = np.ones(len(live), dtype=bool)
    point = gamma
    beta, cts, local, lengths = exp_elog_beta, nz.cts, nz.doc_of, nz.lengths
    starts = _starts(lengths)
    inner = 0
    while True:
        first = _update(theta, beta, cts, local, starts, alpha)
        second = _update(np.exp(_digamma(first)), beta, cts, local, starts, alpha)
        inner += 2
        last_change = second - first
        stop = np.abs(last_change).sum(axis=0) < INNER_RTOL * second.sum(axis=0)
        stop &= running
        if stop.any():
            gamma[:, live[stop]] = second[:, stop]
            running &= ~stop
        still = np.count_nonzero(running)
        if not still or inner >= INNER_ITERS:
            break
        if 2 * still <= len(running):
            keep_nz = np.repeat(running, lengths)
            live, lengths = live[running], lengths[running]
            point, first = point[:, running], first[:, running]
            second, last_change = second[:, running], last_change[:, running]
            beta, cts = beta[:, keep_nz], cts[keep_nz]
            local = np.repeat(np.arange(len(live)), lengths)
            starts = _starts(lengths)
            running = np.ones(len(live), dtype=bool)
        point = _extrapolate(point, first - point, second, last_change)
        theta = np.exp(_digamma(point))
    gamma[:, live[running]] = second[:, running]
    return inner, int(still)


def _update(theta: np.ndarray, beta: np.ndarray, cts: np.ndarray, local: np.ndarray,
            starts: np.ndarray, alpha: float) -> np.ndarray:
    """One plain E-step update of every working column from its
    exp(psi(gamma)): the new gamma."""
    phinorm = np.einsum("kj,kj->j", np.take(theta, local, axis=1), beta) + 1e-100
    return alpha + theta * np.add.reduceat(beta * (cts / phinorm), starts, axis=1)


def _extrapolate(point: np.ndarray, change: np.ndarray, second: np.ndarray,
                 last_change: np.ndarray) -> np.ndarray:
    """The SQUAREM point of each column (Varadhan & Roland 2008, scheme
    S3) from g, g1 = F(g) and g2 = F(g1), given as g, r = g1 - g, g2 and
    g2 - g1.

    With v = g2 - g1 - r, the step length is s = max(|r|/|v|, 1) (1 where
    v = 0) and the point g + 2s r + s^2 v; s = 1 gives g2.  While a
    column's point has an entry that is not positive, its step length
    moves halfway toward 1, up to SQUAREM_HALVINGS times; a column still
    not positive then takes g2.  Every point keeps g's column sums,
    since r and v sum to zero."""
    v = last_change - change
    rr = np.einsum("kj,kj->j", change, change)
    vv = np.einsum("kj,kj->j", v, v)
    step = np.ones_like(rr)
    np.divide(rr, vv, out=step, where=vv > 0.0)
    np.sqrt(step, out=step)
    np.maximum(step, 1.0, out=step)
    fresh = step * v
    fresh += 2.0 * change
    fresh *= step
    fresh += point
    bad = ~(fresh > 0.0).all(axis=0)
    for _ in range(SQUAREM_HALVINGS):
        if not bad.any():
            return fresh
        step[bad] = 0.5 * (step[bad] + 1.0)
        s = step[bad]
        fresh[:, bad] = point[:, bad] + s * (2.0 * change[:, bad] + s * v[:, bad])
        bad = ~(fresh > 0.0).all(axis=0)
    fresh[:, bad] = second[:, bad]
    return fresh


def _elbo(nz: _Nonzeros, gamma: np.ndarray, psi: np.ndarray, lam: np.ndarray,
          elog_beta: np.ndarray, alpha: float) -> float:
    """Evidence lower bound with the per-token assignments optimized out
    (log-sum-exp over topics for every weighted term); ``gamma`` holds
    the active documents' columns, ``psi`` is psi(gamma) and ``elog_beta``
    E[log beta] of ``lam``, each also read by ``fit_lda``'s next step."""
    k, vocab_size = lam.shape
    elog_theta = psi - _digamma(gamma.sum(axis=0))
    combined = np.take(elog_theta, nz.doc_of, axis=1) + np.take(elog_beta, nz.ids, axis=1)
    peak = combined.max(axis=0)
    # einsum rather than ``nz.cts @ (...)``: on a large corpus that is a
    # threaded BLAS dot, whose extra thread then spins for the rest of
    # the stage and doubles its CPU time.  cli caps BLAS at one thread,
    # but a library caller that imports numpy first keeps the pool.
    score = float(np.einsum(
        "j,j->", nz.cts, peak + np.log(np.exp(combined - peak).sum(axis=0))))
    score += float(np.sum((alpha - gamma) * elog_theta))
    score += float(np.sum(_gammaln(gamma)) - np.sum(_gammaln(gamma.sum(axis=0))))
    score += gamma.shape[1] * (math.lgamma(alpha * k) - k * math.lgamma(alpha))
    score += float(np.sum((ETA - lam) * elog_beta))
    score += float(np.sum(_gammaln(lam)) - np.sum(_gammaln(lam.sum(axis=1))))
    score += k * (math.lgamma(ETA * vocab_size) - vocab_size * math.lgamma(ETA))
    return score


def top_words(model: TopicModel, topic: int, n: int) -> list[tuple[str, float]]:
    """The n highest-probability terms of one topic; clamps n to the
    vocabulary size.

    The terms are sorted by weight, descending, and each run of sorted
    neighbours whose gap is at most TIE_RTOL (1e-9) times the larger of
    the two forms one chain, which is ordered by name.  So terms whose
    weights differ only by rounding rank by name, and the ranking does
    not depend on the last bits of the fit."""
    if not 0 <= topic < model.k:
        raise ValueError(f"topic {topic} out of range for k={model.k}")
    row = model.topic_word[topic]
    order = np.argsort(-row, kind="stable")
    weights = row[order]
    chain = np.zeros(len(row), dtype=np.intp)
    np.cumsum(weights[:-1] - weights[1:] > TIE_RTOL * weights[:-1], out=chain[1:])
    names = [model.terms[i] for i in order.tolist()]
    ranked = sorted(zip(chain.tolist(), names, weights.tolist()))
    return [(name, weight) for _, name, weight in ranked[: min(n, len(row))]]


def coherence(
    model: TopicModel, vocab: dict[str, frozenset[int]], top_n: int = 10
) -> float:
    """Mean intrinsic co-document coherence over the model's topics; the
    documents of each top word are its entry in ``vocab``, the
    vocabulary the model was fitted on."""
    if top_n < 2:
        raise ValueError(f"top_n must be >= 2, got {top_n}")
    total = 0.0
    for t in range(model.k):
        holding = [vocab[term] for term, _ in top_words(model, t, top_n)]
        topic_sum = 0.0
        for i in range(1, len(holding)):
            for j in range(i):
                co = len(holding[i] & holding[j])
                topic_sum += math.log((co + COHERENCE_EPS) / len(holding[j]))
        total += topic_sum
    return total / model.k


def select_k(
    matrix: WeightedMatrix,
    vocab: dict[str, frozenset[int]],
    k_candidates: Iterable[int],
    seed: int,
    iters: int = 200,
) -> TopicModel:
    """Fit one model per candidate K, return the coherence argmax with
    ``fits`` holding every candidate's ``FitSummary``.

    Candidates are scanned in ascending order and a strictly higher
    coherence is required to displace the incumbent, so exact ties go to
    the smaller K and the result does not depend on candidate order.
    """
    candidates = sorted(set(k_candidates))
    if not candidates:
        raise ValueError("k_candidates is empty")
    best: TopicModel | None = None
    fits = []
    for k in candidates:
        model = fit_lda(matrix, k, seed, iters=iters)
        score = coherence(model, vocab)
        model = model._replace(coherence=score)
        fits.append(model.fits[0]._replace(coherence=score))
        if best is None or score > best.coherence:
            best = model
    assert best is not None
    return best._replace(fits=tuple(fits))


def save_model(model: TopicModel, path: str | Path) -> None:
    """Flat text serialization: a header line (K, vocab size, seed,
    coherence) then dense topic_word and doc_topic rows, each value as
    its shortest round-trip ``repr``."""
    with atomic_open(path) as handle:
        handle.write(
            f"{model.k}\t{model.topic_word.shape[1]}\t{model.seed}\t"
            f"{float(model.coherence)!r}\n"
        )
        for row in model.topic_word:
            handle.write("\t".join(repr(float(x)) for x in row))
            handle.write("\n")
        for row in model.doc_topic:
            handle.write("\t".join(repr(float(x)) for x in row))
            handle.write("\n")


def write_vocab(vocab: dict[str, frozenset[int]], path: str | Path) -> None:
    """One line per term: the term, a tab and its document frequency."""
    with atomic_open(path) as handle:
        for term, holding in vocab.items():
            handle.write(f"{term}\t{len(holding)}\n")


def write_topic_report(model: TopicModel, path: str | Path, n_words: int) -> None:
    """Comma-delimited table of each topic's ``n_words`` top words, with
    a footer naming the selected K, its coherence and the seed."""
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("topic", "keywords"))
        for t in range(model.k):
            writer.writerow((t + 1, " ".join(w for w, _ in top_words(model, t, n_words))))
        handle.write(f"# selected_k={model.k} coherence={model.coherence:.6f} "
                     f"seed={model.seed}\n")
