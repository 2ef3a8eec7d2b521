"""Independent reference implementations the tests check against.

Nothing here may call into the code paths under test: the segmentation
oracle enumerates every split instead of running Viterbi, the squeeze
oracle tries every shortening of the elongated runs in turn instead of
looking words up by skeleton, the tokenizer oracle is the token regex
without its two length caps, the OLS oracles solve the normal equations
or call LAPACK through numpy instead of a pure-Python Householder QR,
the t-tail oracles integrate the density numerically, call scipy's
or mpmath's incomplete beta function or sum the closed-form series
instead of evaluating the continued fraction, the neighbor oracle is a pure-Python full scan,
and the LDA oracle runs the variational E-step and bound one document
at a time instead of batched over all documents.  The one exception is
the preprocessing oracle: it runs textprep's per-token steps on the
whole text at once, with no split into whitespace chunks and no memo,
so it checks only that split.
"""

from __future__ import annotations

import itertools
import math
import re

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, digamma, gammaln

from postmine.errors import DataError
from postmine.textprep import (
    _HASHTAG_BODY_RE,
    Token,
    TokenKind,
    correct_spelling,
    segment,
    tokenize,
)


def lm_score(lm, prev: str | None, word: str) -> float:
    # The documented transition score, written out independently:
    # bigram relative frequency, else 0.4 * add-one unigram, else
    # log(eps) - len * log(10).
    if prev is not None and (prev, word) in lm.bigram_counts:
        return math.log(lm.bigram_counts[(prev, word)] / lm.unigram_counts[prev])
    if word in lm.unigram_counts:
        smoothed = (lm.unigram_counts[word] + 1) / (
            lm.total_unigrams + len(lm.unigram_counts))
        return math.log(0.4 * smoothed)
    return math.log(1.0 / lm.total_unigrams) - len(word) * math.log(10.0)


def _decode_splits(body: str, splits: int) -> tuple[str, ...]:
    # bit p - 1 of splits set means a word boundary before body[p]
    words = []
    start = 0
    for pos in range(1, len(body)):
        if splits >> (pos - 1) & 1:
            words.append(body[start:pos])
            start = pos
    words.append(body[start:])
    return tuple(words)


def exhaustive_segment(body: str, lm) -> list[str]:
    """Argmax over every one of the 2^(len-1) splits into words, scored
    left to right; ties broken by the lexicographically smallest word
    sequence.

    All splits are enumerated at once with numpy: walking positions
    1..len-1, every partial segmentation either continues its
    current word or splits there, which doubles the arrays of (running
    score, current word start, previous word start).  Transition scores
    are precomputed per (previous span, span); words are decoded only
    for the splits that reach the best score."""
    if not body:
        return []
    n = len(body)
    # trans[start, end, pstart + 1] = score of body[start:end] after the
    # word body[pstart:start] (pstart == -1 means sequence start).
    trans = np.full((n, n + 1, n + 1), np.nan)
    for start in range(n):
        for end in range(start + 1, n + 1):
            word = body[start:end]
            if start == 0:
                trans[start, end, 0] = lm_score(lm, None, word)
            for pstart in range(start):
                trans[start, end, pstart + 1] = lm_score(lm, body[pstart:start], word)

    # index i of these arrays encodes the splits chosen so far: bit p - 1
    # is set when a word ends before position p
    score = np.zeros(1)
    start = np.zeros(1, dtype=np.intp)
    pstart = np.full(1, -1, dtype=np.intp)
    for pos in range(1, n):
        split_score = score + trans[start, pos, pstart + 1]
        score = np.concatenate([score, split_score])
        pstart = np.concatenate([pstart, start])
        start = np.concatenate([start, np.full_like(start, pos)])
    total = score + trans[start, n, pstart + 1]
    winners = np.flatnonzero(total == total.max())
    return list(min(_decode_splits(body, int(i)) for i in winners))


_ELONGATION_RE = re.compile(r"([^\W\d_])\1{2,}")


def product_squeeze(surface: str, valid_words) -> str | None:
    """Shorten every run of three or more repeats of a letter to two or
    one copies, trying two before one for every run with the leftmost
    run varying slowest, and return the first known word (None if there
    is no run or no candidate is known).  Tries up to 2^runs candidates."""
    runs = list(_ELONGATION_RE.finditer(surface))
    if not runs:
        return None
    for repeats in itertools.product((2, 1), repeat=len(runs)):
        out = []
        cursor = 0
        for run, count in zip(runs, repeats):
            out.append(surface[cursor:run.start()])
            out.append(run.group(1) * count)
            cursor = run.end()
        out.append(surface[cursor:])
        candidate = "".join(out)
        if candidate in valid_words:
            return candidate
    return None


_MASK = r"\*\$%@"
_EMOJI = ("[\U0001F300-\U0001F5FF\U0001F600-\U0001F64F\U0001F680-\U0001F6FF"
          "\U0001F900-\U0001F9FF\U0001FA70-\U0001FAFF\u2600-\u27BF\u2B00-\u2BFF]")
_TAGS = ("<url>", "<email>", "<user>")
_REFERENCE_PARTS = (
    ("tag", None),
    ("url", r"https?://[^\s<>]+|www\.[^\s<>]+"),
    ("email", r"[a-z0-9][\w.+\-]*@[\w\-]+\.[\w.\-]*[a-z0-9]"),
    ("mention", r"@\w+"),
    ("hashtag", r"\#\w+"),
    ("emoticon", None),
    ("censored", rf"[a-z]+[{_MASK}]+[a-z0-9]*|[{_MASK}]+[a-z]+"),
    ("acronym", r"(?:[a-z]\.){2,}"),
    ("number", r"[+\-]?\$?\d+(?:[.,:/\-]\d+)*%?"),
    ("word", r"\w+(?:['\u2019\-]\w+)*"),
    ("ellipsis", r"\.{2,}|\u2026"),
    ("punct", r"\S"),
)
_REFERENCE_KINDS = {
    "tag": "tag", "url": "tag", "email": "tag", "mention": "tag",
    "hashtag": "word", "emoticon": "emoticon", "censored": "censored",
    "acronym": "word", "number": "word", "word": "word",
    "ellipsis": "punct", "punct": "punct",
}
_REFERENCE_TAGS = {"url": "<url>", "email": "<email>", "mention": "<user>"}


def regex_tokenize(text: str, emoticons) -> list[tuple[str, str]]:
    """(surface, kind value) of every token the uncapped token regex
    finds: e-mail local parts and censored-word mask runs of any length.
    ``emoticons`` are the emoticon strings to keep whole."""
    alternatives = {
        "tag": "|".join(re.escape(t) for t in _TAGS),
        "emoticon": "|".join(re.escape(e) for e in sorted(emoticons, key=len, reverse=True))
        + "|" + _EMOJI,
    }
    pattern = re.compile("|".join(
        f"(?P<{name}>{alternatives.get(name, part)})" for name, part in _REFERENCE_PARTS),
        re.IGNORECASE)
    out = []
    for match in pattern.finditer(text):
        group = match.lastgroup
        surface = _REFERENCE_TAGS.get(group, match.group().lower())
        out.append((surface, _REFERENCE_KINDS[group]))
    return out


def whole_text_preprocess(text, dictionary, lm) -> list:
    """Tokenize the whole text, then correct or segment token by token."""
    out = []
    for token in tokenize(text):
        if token.kind is TokenKind.WORD and token.surface.startswith("#"):
            body = _HASHTAG_BODY_RE.sub("", token.surface[1:])
            out.extend(
                Token(word, TokenKind.HASHTAG_SEGMENTED)
                for word in segment(body, lm)
            )
        elif token.kind is TokenKind.WORD:
            if token.surface in dictionary.censored:
                out.append(Token(token.surface, TokenKind.CENSORED))
            else:
                out.extend(correct_spelling(token, dictionary))
        else:
            out.append(token)
    return out


def normal_equations_ols(x: np.ndarray, y: np.ndarray):
    """Classical textbook solve: beta = (X'X)^-1 X'y, plus standard
    errors and t statistics."""
    xtx = x.T @ x
    xtx_inv = np.linalg.inv(xtx)
    beta = xtx_inv @ (x.T @ y)
    resid = y - x @ beta
    n, p = x.shape
    sigma2 = float(resid @ resid) / (n - p)
    se = np.sqrt(sigma2 * np.diag(xtx_inv))
    t = beta / se
    return beta, se, t


def lapack_ols(x, y, names):
    """Least squares through numpy's LAPACK bindings, as (beta, se, t).

    The design is rank deficient when its smallest singular value is
    below 1e-10 of the largest; the error then names the first column
    whose prefix does not gain rank, counted as the prefix's singular
    values above 1e-10 of its largest, or the last column if every
    prefix does.  t is +-inf where se is 0, and nan where the
    coefficient is also 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    singular = np.linalg.svd(x, compute_uv=False)
    if singular[-1] < 1e-10 * singular[0]:
        name, rank = names[-1], 0
        for j in range(p):
            prefix = np.linalg.svd(x[:, : j + 1], compute_uv=False)
            new_rank = int(np.sum(prefix > 1e-10 * prefix[0]))
            if new_rank == rank:
                name = names[j]
                break
            rank = new_rank
        raise DataError(f"design matrix is rank deficient at column {name!r}")
    q, r = np.linalg.qr(x)
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - x @ beta
    sigma2 = float(residuals @ residuals) / (n - p)
    r_inv = np.linalg.solve(r, np.eye(p))
    se = np.sqrt(sigma2 * np.diag(r_inv @ r_inv.T))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.sign(beta) * np.inf)
    return beta, se, t


def t_tail_quadrature(t: float, dof: int) -> float:
    """Two-sided tail of the Student-t density by numerical
    integration; the density is spelled out via log-gammas."""
    def pdf(x: float) -> float:
        log_c = (math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)
                 - 0.5 * math.log(dof * math.pi))
        return math.exp(log_c - (dof + 1) / 2.0 * math.log1p(x * x / dof))

    upper, _ = quad(pdf, abs(t), np.inf)
    return 2.0 * upper


def t_tail_betainc(t: float, dof: int) -> float:
    """Two-sided Student-t tail through scipy's regularized incomplete
    beta function: I_x(dof/2, 1/2) at x = dof / (dof + t^2)."""
    if np.isnan(t):
        return float("nan")
    if np.isinf(t):
        return 0.0
    return float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))


def t_tail_mpmath(t: float, dof: int, digits: int = 50) -> float:
    """Two-sided Student-t tail through mpmath's regularized incomplete
    beta function at ``digits`` decimal digits, with x = dof / (dof +
    t^2) formed in that precision."""
    with mpmath.workdps(digits):
        t2 = mpmath.mpf(t) ** 2
        x = dof / (dof + t2)
        return float(mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2, 0, x,
                                    regularized=True))


def t_tail_closed_form(t: float, dof: int) -> float:
    """Two-sided Student-t tail at an integer dof by the closed form of
    Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even dof).

    With theta = atan(|t| / sqrt(dof)) and x = cos^2(theta), both give
    the tail as ``full - pre * sum(c_j * x**j for j < m)``.  Below 0.5
    the tail is summed directly as ``pre * sum(c_j * x**j for j >= m)``,
    all positive terms, so small tails keep full relative precision.
    Near 0.5 that takes about 80 * dof terms."""
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    t = abs(float(t))
    root = math.sqrt(dof)
    hyp = math.hypot(t, root)
    sin, cos = t / hyp, root / hyp
    x = cos * cos
    odd = dof % 2
    # c_0 = 1 and c_{j+1} / c_j = (2j+1+odd) / (2j+2+odd)
    m = (dof - 1) // 2 if odd else dof // 2
    head = 0.0
    term = 1.0
    for j in range(m):
        head += term
        term *= x * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    if odd:
        pre = 2.0 * sin * cos / math.pi
        p = 2.0 * (math.atan2(root, t) - sin * cos * head) / math.pi
    else:
        pre = sin
        p = 1.0 - sin * head
    if p >= 0.5:
        return p
    tail = 0.0
    j = m
    while True:
        tail += term
        term *= x * (2 * j + 1 + odd) / (2 * j + 2 + odd)
        j += 1
        if term <= 2.0 ** -53 * (1.0 - x) * tail:
            return pre * tail


def brute_force_neighbors(
    word: str,
    vectors: dict[str, list[float]],
    annotated: set[str],
    k: int,
    min_similarity: float,
) -> list[tuple[str, float]]:
    """Pure-Python cosine full scan over annotated, embedded lemmas."""
    def cosine(a: list[float], b: list[float]) -> float:
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(y * y for y in b))
        return dot / (na * nb)

    query = vectors[word]
    scored = []
    for lemma in annotated:
        if lemma in vectors:
            sim = cosine(query, vectors[lemma])
            sim = max(-1.0, min(1.0, sim))
            if sim >= min_similarity:
                scored.append((lemma, sim))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def _dirichlet_expectation(params: np.ndarray) -> np.ndarray:
    if params.ndim == 1:
        return digamma(params) - digamma(params.sum())
    return digamma(params) - digamma(params.sum(axis=1))[:, None]


def per_document_lda(
    matrix,
    k: int,
    seed: int,
    iters: int = 200,
    eta: float = 0.01,
    tol: float = 1e-6,
    inner_iters: int = 100,
    inner_tol: float = 1e-6,
):
    """Batch variational-Bayes LDA with a per-document Python loop for
    the E-step and the bound; returns (topic_word, doc_topic, bound
    trace).  Same initialization, stopping rules and update order as
    ``topics.fit_lda``, so the two agree up to rounding."""
    n_docs = len(matrix.rows)
    vocab_size = len(matrix.terms)
    alpha = 1.0 / k
    active = [d for d, (ids, _) in enumerate(matrix.rows) if len(ids) > 0]

    rng = np.random.default_rng(seed)
    lam = rng.gamma(100.0, 0.01, (k, vocab_size))
    gamma = np.full((n_docs, k), alpha)
    for d in active:
        gamma[d] = alpha + matrix.rows[d][1].sum() / k

    trace: list[float] = []
    for _ in range(iters):
        elog_beta = _dirichlet_expectation(lam)
        exp_elog_beta = np.exp(elog_beta)
        sstats = np.zeros((k, vocab_size))
        for d in active:
            ids, cts = matrix.rows[d]
            gamma_d = gamma[d]
            exp_elog_theta_d = np.exp(_dirichlet_expectation(gamma_d))
            beta_d = exp_elog_beta[:, ids]
            for _inner in range(inner_iters):
                phinorm = exp_elog_theta_d @ beta_d + 1e-100
                last_gamma = gamma_d
                gamma_d = alpha + exp_elog_theta_d * ((cts / phinorm) @ beta_d.T)
                exp_elog_theta_d = np.exp(_dirichlet_expectation(gamma_d))
                if np.sum(np.abs(gamma_d - last_gamma)) < inner_tol * np.sum(gamma_d):
                    break
            gamma[d] = gamma_d
            phinorm = exp_elog_theta_d @ beta_d + 1e-100
            sstats[:, ids] += np.outer(exp_elog_theta_d, cts / phinorm) * beta_d
        lam = eta + sstats
        bound = _per_document_elbo(matrix, active, gamma, lam, alpha, eta)
        trace.append(bound)
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(bound - prev) <= tol * abs(prev):
                break

    topic_word = lam / lam.sum(axis=1)[:, None]
    doc_topic = np.full((n_docs, k), 1.0 / k)
    for d in active:
        doc_topic[d] = gamma[d] / gamma[d].sum()
    return topic_word, doc_topic, trace


def _per_document_elbo(matrix, active, gamma, lam, alpha, eta) -> float:
    k, vocab_size = lam.shape
    elog_beta = _dirichlet_expectation(lam)
    score = 0.0
    for d in active:
        ids, cts = matrix.rows[d]
        gamma_d = gamma[d]
        elog_theta_d = _dirichlet_expectation(gamma_d)
        combined = elog_theta_d[:, None] + elog_beta[:, ids]
        peak = combined.max(axis=0)
        score += float(cts @ (peak + np.log(np.exp(combined - peak).sum(axis=0))))
        score += float(np.sum((alpha - gamma_d) * elog_theta_d))
        score += float(np.sum(gammaln(gamma_d)) - gammaln(gamma_d.sum()))
        score += gammaln(alpha * k) - k * gammaln(alpha)
    score += float(np.sum((eta - lam) * elog_beta))
    score += float(np.sum(gammaln(lam)) - np.sum(gammaln(lam.sum(axis=1))))
    score += k * (gammaln(eta * vocab_size) - vocab_size * gammaln(eta))
    return score
