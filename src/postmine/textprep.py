"""Noisy short-text normalization.

The stages, applied in order by ``preprocess``:

1. ``tokenize`` -- regex tokenizer that keeps emoticons, censored words,
   acronyms, numbers/dates and apostrophe words intact as single tokens,
   and substitutes the designated tags ``<url>``, ``<email>`` and
   ``<user>`` for links, addresses and mentions.  Everything is
   lowercased.  Hashtags survive as single word tokens with their ``#``.
   Linear in the text: an e-mail local part counts only up to 64
   characters and a censored word's leading mask run up to 64 too;
   longer ones are split by the other rules.
2. ``correct_spelling`` -- dictionary abbreviation expansion plus
   elongation squeezing ("reallyyy" -> "really"): a letter run of three
   or more repeats is shortened to two and then to one copy until the
   candidate is a known word.  Linear in the token and in the known
   words that share its skeleton.
3. ``segment`` -- Viterbi word segmentation of hashtag bodies under a
   unigram/bigram language model with stupid-backoff-style weighting.
   O(n^2 log n) at worst in the body length n, and O(n^2) unless a
   known bigram or a tie after rounding makes it sort the entries that
   end at some position.  A body over SEGMENT_MAX_CHARS (280, a tweet's
   length limit) characters is not segmented and stays one word, so the
   cost per hashtag is bounded.

``preprocess`` applies them to each whitespace-separated chunk of a
text (``\\S+``, the regex engine's whitespace class) on its own.  That
equals applying them to the whole text: no tokenizer rule has an
anchor or a lookaround or can match whitespace (no emoticon or
designated tag contains any), so no token crosses a chunk boundary,
and the later stages work on one token at a time.  A memo dict passed
to every ``preprocess`` call of a run maps each distinct chunk to its
tokens, so repeated chunks are processed once per run; it is the only
cache, and a hashtag body is segmented once for each distinct chunk
that holds it.

All operations are pure given an immutable dictionary and language
model (nothing is stored on either once loaded), so corpus-level
preprocessing can fan out per document.  A ``Token`` is a plain named
tuple that checks nothing: the code here that makes one keeps its rules.

This module alone decides which tokens carry content: ``CONTENT_KINDS``
(words and hashtag segments).  ``content_terms`` gives a post's content
surfaces, the terms of the topic vocabulary, and ``events`` draws its
argument candidates from the same kinds.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import FLOAT_MAX, DataError, data_lines, read_utf8

TAG_URL = "<url>"
TAG_EMAIL = "<email>"
TAG_USER = "<user>"
DESIGNATED_TAGS = (TAG_URL, TAG_EMAIL, TAG_USER)

# Weight applied when a bigram is absent and we back off to the smoothed
# unigram probability.
BACKOFF_WEIGHT = 0.4
# longest hashtag body that ``segment`` splits; longer ones stay whole
SEGMENT_MAX_CHARS = 280


class TokenKind(Enum):
    WORD = "word"
    EMOTICON = "emoticon"
    CENSORED = "censored"
    TAG = "tag"
    HASHTAG_SEGMENTED = "hashtag_segmented"
    PUNCT = "punct"


class Token(NamedTuple):
    """One token: a surface and its kind.  The surface is never empty (no
    tokenizer rule, segment or expansion word is), and only a designated
    tag has kind TAG."""

    surface: str
    kind: TokenKind


# tags, emoticons, censored words and punctuation carry no content
CONTENT_KINDS = (TokenKind.WORD, TokenKind.HASHTAG_SEGMENTED)


def content_terms(tokens: Sequence[Token]) -> list[str]:
    """The surfaces of the content tokens, in order."""
    return [t.surface for t in tokens if t.kind in CONTENT_KINDS]


def _bundled_lines(name: str) -> list[str]:
    with resources.files("postmine.data").joinpath(name).open("r", encoding="utf-8") as handle:
        return [line.strip() for _, line in data_lines(handle)]


def bundled_emoticons() -> tuple[str, ...]:
    return tuple(_bundled_lines("emoticons.txt"))


def bundled_stopwords() -> frozenset[str]:
    return frozenset(_bundled_lines("stopwords.txt")) | frozenset(DESIGNATED_TAGS)


def bundled_censored() -> frozenset[str]:
    return frozenset(_bundled_lines("censored.txt"))


# Unicode emoji blocks treated as single-token emoticons.
_EMOJI_CLASS = (
    "[\U0001F300-\U0001F5FF\U0001F600-\U0001F64F\U0001F680-\U0001F6FF"
    "\U0001F900-\U0001F9FF\U0001FA70-\U0001FAFF☀-➿⬀-⯿]"
)

_MASK_CHARS = r"\*\$%@"


def _build_token_re() -> re.Pattern[str]:
    tags = "|".join(re.escape(t) for t in DESIGNATED_TAGS)
    emoticons = "|".join(
        re.escape(e) for e in sorted(bundled_emoticons(), key=len, reverse=True)
    )
    # Two bounded repeats keep matching linear in the text length: a run
    # that can never finish a match is rescanned from every start inside
    # it.  An e-mail local part is at most 64 characters (RFC 5321
    # 4.5.3.1.1), and a mask run before the letters of a censored word
    # is at most 64 characters too; longer ones fall to the other rules.
    parts = [
        ("tag", tags),
        ("url", r"https?://[^\s<>]+|www\.[^\s<>]+"),
        ("email", r"[a-z0-9][\w.+\-]{0,63}@[\w\-]+\.[\w.\-]*[a-z0-9]"),
        ("mention", r"@\w+"),
        ("hashtag", r"\#\w+"),
        ("emoticon", f"{emoticons}|{_EMOJI_CLASS}"),
        ("censored", rf"[a-z]+[{_MASK_CHARS}]+[a-z0-9]*|[{_MASK_CHARS}]{{1,64}}[a-z]+"),
        ("acronym", r"(?:[a-z]\.){2,}"),
        ("number", r"[+\-]?\$?\d+(?:[.,:/\-]\d+)*%?"),
        ("word", r"\w+(?:['’\-]\w+)*"),
        ("ellipsis", r"\.{2,}|…"),
        ("punct", r"\S"),
    ]
    return re.compile("|".join(f"(?P<{n}>{p})" for n, p in parts), re.IGNORECASE)


_TOKEN_RE = _build_token_re()

_GROUP_KINDS = {
    "hashtag": TokenKind.WORD,
    "emoticon": TokenKind.EMOTICON,
    "censored": TokenKind.CENSORED,
    "acronym": TokenKind.WORD,
    "number": TokenKind.WORD,
    "word": TokenKind.WORD,
    "ellipsis": TokenKind.PUNCT,
    "punct": TokenKind.PUNCT,
}

_GROUP_TAGS = {"url": TAG_URL, "email": TAG_EMAIL, "mention": TAG_USER}


def tokenize(text: str) -> list[Token]:
    """Split raw text into lowercased tokens.

    Total and deterministic; empty input gives an empty list.  The
    concatenated surfaces of non-tag, non-emoticon tokens preserve every
    alphanumeric character of the corresponding input portions.
    """
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        surface = match.group()
        if group == "tag":
            tokens.append(Token(surface.lower(), TokenKind.TAG))
        elif group in _GROUP_TAGS:
            tokens.append(Token(_GROUP_TAGS[group], TokenKind.TAG))
        else:
            tokens.append(Token(surface.lower(), _GROUP_KINDS[group]))
    return tokens


class CorrectionDictionary:
    """Abbreviation expansions, censored-word surfaces and known words.

    Every expansion must consist of known words, and no abbreviation key
    may itself be a known word; together these keep ``preprocess``
    idempotent on its own output.
    """

    def __init__(
        self,
        abbreviations: Mapping[str, str],
        censored: frozenset[str] = frozenset(),
        valid_words: frozenset[str] = frozenset(),
    ):
        self.abbreviations = abbreviations
        self.censored = censored
        self.valid_words = valid_words
        # valid words grouped by skeleton, for elongation squeezing
        index: dict[str, list[str]] = {}
        for word in valid_words:
            index.setdefault(_skeleton(word), []).append(word)
        self.by_skeleton: Mapping[str, tuple[str, ...]] = {
            k: tuple(v) for k, v in index.items()}


def load_correction_dictionary(
    abbreviations: str | Path,
    wordlist: str | Path,
    censored: str | Path | None = None,
) -> CorrectionDictionary:
    """Load the correction dictionary from its file parts.

    ``abbreviations`` is tab-delimited (abbreviation TAB expansion),
    ``wordlist`` one valid word per line, ``censored`` (optional, else
    the bundled list) one surface per line.
    """
    words = _word_set(wordlist)
    abbrev: dict[str, str] = {}
    with read_utf8(abbreviations) as handle:
        for lineno, line in data_lines(handle):
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise DataError(f"line {lineno}: expected 'key<TAB>expansion'")
            key = parts[0].strip().lower()
            expansion = " ".join(parts[1].split()).lower()
            if key in abbrev:
                raise DataError(f"line {lineno}: duplicate key {key!r}")
            if key in words:
                raise DataError(f"line {lineno}: key {key!r} is itself a valid word")
            bad = [w for w in expansion.split() if w not in words]
            if bad:
                raise DataError(f"line {lineno}: expansion word(s) not in wordlist: "
                                + ", ".join(bad))
            abbrev[key] = expansion
    censored_set = _word_set(censored) if censored is not None else bundled_censored()
    return CorrectionDictionary(abbrev, censored_set, words)


def _word_set(path: str | Path) -> frozenset[str]:
    with read_utf8(path) as handle:
        return frozenset(word.strip().lower() for _, word in data_lines(handle))


_ELONGATION_RE = re.compile(r"([^\W\d_])\1{2,}")
_RUN_RE = re.compile(r"(.)\1*", re.DOTALL)


def _skeleton(word: str) -> str:
    """``word`` with every run of one repeated character cut to one copy."""
    return _RUN_RE.sub(r"\1", word)


def _squeeze_elongation(surface: str, dictionary: CorrectionDictionary) -> str | None:
    """The first known word in the order that tries two repeats before
    one for every elongated run (a letter repeated three or more times),
    leftmost run varying slowest.

    Every such candidate keeps the skeleton of ``surface``, so only the
    valid words with that skeleton are checked, each against the run
    lengths of ``surface``; cost is linear in the length of the
    surface and of those words."""
    elongated = {run.start() for run in _ELONGATION_RE.finditer(surface)}
    if not elongated:
        return None
    runs = [(run.start() in elongated, len(run.group())) for run in _RUN_RE.finditer(surface)]
    best: tuple[list[bool], str] | None = None
    for word in dictionary.by_skeleton.get(_skeleton(surface), ()):
        # rank of ``word`` in the candidate order: one repeat after two
        rank = []
        for (is_elongated, length), run in zip(runs, _RUN_RE.finditer(word)):
            count = len(run.group())
            if is_elongated and count <= 2:
                rank.append(count == 1)
            elif is_elongated or count != length:
                break
        else:
            if best is None or rank < best[0]:
                best = (rank, word)
    return None if best is None else best[1]


def correct_spelling(token: Token, dictionary: CorrectionDictionary) -> list[Token]:
    """Expand abbreviations and squeeze elongations on one word token.

    Unknown tokens pass through unchanged; non-word tokens are returned
    as-is.  Abbreviation expansion may produce several tokens.
    """
    if token.kind is not TokenKind.WORD:
        return [token]
    surface = token.surface
    expansion = dictionary.abbreviations.get(surface)
    if expansion is not None:
        return [Token(w, TokenKind.WORD) for w in expansion.split()]
    if surface in dictionary.valid_words:
        return [token]
    squeezed = _squeeze_elongation(surface, dictionary)
    if squeezed is not None:
        return [Token(squeezed, TokenKind.WORD)]
    return [token]


class LanguageModel:
    """Unigram/bigram counts backing the hashtag segmenter."""

    def __init__(
        self,
        unigram_counts: Mapping[str, int],
        bigram_counts: Mapping[tuple[str, str], int],
        total_unigrams: int,
    ):
        self.unigram_counts = unigram_counts
        self.bigram_counts = bigram_counts
        self.total_unigrams = total_unigrams
        # w2 -> every w1 with a known bigram (w1, w2)
        predecessors: dict[str, list[str]] = {}
        for w1, w2 in bigram_counts:
            predecessors.setdefault(w2, []).append(w1)
        self.predecessors: Mapping[str, tuple[str, ...]] = {
            w2: tuple(w1s) for w2, w1s in predecessors.items()}
        self.longest_word = max(map(len, unigram_counts), default=0)

    @classmethod
    def from_counts(
        cls,
        unigrams: Mapping[str, int],
        bigrams: Mapping[tuple[str, str], int] | None = None,
    ) -> "LanguageModel":
        bigrams = dict(bigrams or {})
        for word, count in unigrams.items():
            if count <= 0:
                raise DataError(f"nonpositive unigram count for {word!r}")
        for (w1, w2), count in bigrams.items():
            if count <= 0:
                raise DataError(f"nonpositive bigram count for {(w1, w2)!r}")
            if w1 not in unigrams or w2 not in unigrams:
                raise DataError(f"bigram ({w1!r}, {w2!r}) has a word missing from unigrams")
        return cls(dict(unigrams), bigrams, sum(unigrams.values()))


def load_language_model(path: str | Path) -> LanguageModel:
    """Read the tab-delimited model file with UNIGRAM and BIGRAM sections;
    words are lowercased; a word or pair listed twice, or a bigram count or
    the unigram total too large for a float, is fatal."""
    unigrams: dict[str, int] = {}
    bigrams: dict[tuple[str, str], int] = {}
    section: str | None = None
    total = 0
    with read_utf8(path) as handle:
        for lineno, line in data_lines(handle):
            parts = [field.strip() for field in line.split("\t")]
            if parts in (["UNIGRAM"], ["BIGRAM"]):
                section = parts[0]
                continue
            try:
                if section == "UNIGRAM":
                    if len(parts) != 2 or not parts[0]:
                        raise ValueError("expected 'word<TAB>count'")
                    word = parts[0].lower()
                    if word in unigrams:
                        raise ValueError(f"duplicate unigram {word!r}")
                    unigrams[word] = count = int(parts[1])
                    total += count
                    if total > FLOAT_MAX:
                        raise ValueError("unigram counts sum too large for a float")
                elif section == "BIGRAM":
                    if len(parts) != 3 or not parts[0] or not parts[1]:
                        raise ValueError("expected 'word1<TAB>word2<TAB>count'")
                    pair = (parts[0].lower(), parts[1].lower())
                    if pair in bigrams:
                        raise ValueError(f"duplicate bigram {pair!r}")
                    bigrams[pair] = count = int(parts[2])
                    if count > FLOAT_MAX:
                        raise ValueError("count is too large for a float")
                else:
                    raise ValueError("line before any UNIGRAM/BIGRAM section header")
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}") from None
        if not unigrams:
            raise DataError("language model has no unigrams")
        return LanguageModel.from_counts(unigrams, bigrams)


def transition_score(lm: LanguageModel, prev: str | None, word: str) -> float:
    """Log score of ``word`` following ``prev`` (None at the start).

    Bigram relative frequency when the pair is known; otherwise backoff
    to the add-one-smoothed unigram probability discounted by 0.4;
    otherwise a length-scaled out-of-vocabulary penalty
    log(eps) - len(word) * log(10) with eps = 1 / total unigram count.
    """
    if prev is not None:
        pair_count = lm.bigram_counts.get((prev, word))
        if pair_count:
            return math.log(pair_count / lm.unigram_counts[prev])
    count = lm.unigram_counts.get(word)
    if count is not None:
        smoothed = (count + 1) / (lm.total_unigrams + len(lm.unigram_counts))
        return math.log(BACKOFF_WEIGHT * smoothed)
    return _oov_score(lm, len(word))


def _oov_score(lm: LanguageModel, length: int) -> float:
    eps = 1.0 / lm.total_unigrams
    return math.log(eps) - length * math.log(10.0)


def segment(body: str, lm: LanguageModel) -> list[str]:
    """Viterbi split of an unspaced hashtag body into words.

    Scores are left-to-right sums of ``transition_score``, compared per
    prefix: for each prefix and each last word, only the best-scoring
    segmentation ending in that word is kept and extended.  Exact score
    ties are resolved among the kept prefixes, in favour of the
    lexicographically smallest word sequence.  So when two prefix sums
    that differ in the last bit round to the same total after the next
    word, the dropped prefix never takes part in the tie.  The output
    concatenates back to the input body.  A body longer than
    SEGMENT_MAX_CHARS is returned whole, as one word.
    """
    if not body:
        return []
    if len(body) > SEGMENT_MAX_CHARS:
        return [body]
    return _viterbi(body, lm)


def _viterbi(body: str, lm: LanguageModel) -> list[str]:
    # Entry (start, end) is the best segmentation of body[:end] whose
    # last word is body[start:end].  Row ``start`` of score, back and
    # tie holds the entries for end = start + 1 .. n: the score, the
    # start of the previous word (-1 for none) and a tie-break key, the
    # sum of 2^(n - e) over the word ends e before ``end``.  Two splits
    # of one prefix into words first differ where one of them ends a
    # word earlier; that one is lexicographically smaller and has the
    # larger key, so exact score ties go to the larger key.
    #
    # A word with no known bigram after its previous word scores the
    # same whatever that word is.  So the best previous entry is the top
    # entry ending at start, unless a previous word with a known bigram
    # occurs there or a lower score ties after rounding; only then are
    # the entries ending at start sorted.  Every other entry costs O(1),
    # and words longer than any known word are never looked up.
    n = len(body)
    unigrams, predecessors = lm.unigram_counts, lm.predecessors
    oov = [_oov_score(lm, length) for length in range(n + 1)]
    score: list[list[float]] = []
    back: list[list[int]] = []
    tie: list[list[int]] = []
    for start in range(n):
        width = n - start
        backoff = oov[1:width + 1]
        # words with a known bigram predecessor
        with_bigrams = []
        for k in range(min(width, lm.longest_word)):
            word = body[start:start + k + 1]
            if word in unigrams:
                backoff[k] = transition_score(lm, None, word)
                if word in predecessors:
                    with_bigrams.append(k)
        if start == 0:
            score.append(backoff)
            back.append([-1] * width)
            tie.append([0] * width)
            continue
        # the entries ending at start: entry (q, start) is in row q
        column = range(start - 1, -1, -1)
        prev_score = list(map(list.__getitem__, score[:start], column))
        top_score = max(prev_score)
        top = prev_score.index(top_score)
        if prev_score.count(top_score) > 1:
            top = max((q for q, value in enumerate(prev_score) if value == top_score),
                      key=lambda q: tie[q][start - q - 1])
        weight = 1 << (n - start)
        row_score = list(map(top_score.__add__, backoff))
        row_back = [top] * width
        row_tie = [tie[top][start - top - 1] + weight] * width
        # A lower score ties the top after a word's score is added only
        # if the two differ by at most one ulp of the sum, which
        # ``slack`` bounds for every word in this row.
        second = max(filter(top_score.__gt__, prev_score), default=-math.inf)
        slack = math.ulp(4.0 * (abs(top_score) - min(backoff)))
        rounding = (itertools.compress(range(width), map(
            operator.eq, row_score, map(second.__add__, backoff)))
            if top_score - second <= slack else ())
        slow = sorted(set(with_bigrams).union(rounding))
        if slow:
            prev_tie = list(map(list.__getitem__, tie[:start], column))
            ranked = _rank(prev_score, prev_tie)
        for k in slow:
            best, row_score[k], best_tie = _best_previous(
                body, lm, body[start:start + k + 1], start, ranked,
                prev_score, prev_tie, backoff[k])
            row_back[k] = best
            row_tie[k] = best_tie + weight
        score.append(row_score)
        back.append(row_back)
        tie.append(row_tie)
    start = max(range(n), key=lambda q: (score[q][n - q - 1], tie[q][n - q - 1]))
    words = []
    end = n
    while end:
        words.append(body[start:end])
        start, end = back[start][end - start - 1], start
    return words[::-1]


def _rank(scores: list[float], ties: list[int]) -> tuple[list[int], list[int]]:
    """Entries best first, and for each one the index of the next entry
    with a lower score."""
    order = [q for _, _, q in sorted(zip(scores, ties, range(len(scores))), reverse=True)]
    next_group = [len(order)] * len(order)
    for i in range(len(order) - 2, -1, -1):
        same = scores[order[i + 1]] == scores[order[i]]
        next_group[i] = next_group[i + 1] if same else i + 1
    return order, next_group


def _best_previous(body, lm, word, start, ranked, prev_score, prev_tie, backoff):
    """Best entry ending at ``start`` to put ``word`` after, with the
    score and key this gives.  Previous words with a known bigram are
    scored one by one; the rest are walked best first, one score group
    at a time, as long as they can still tie after rounding."""
    best, best_score, best_tie = -1, -math.inf, -1
    known = []
    for prev in lm.predecessors.get(word, ()):
        q = start - len(prev)
        if 0 <= q < start and body.startswith(prev, q):
            known.append(q)
            s = prev_score[q] + transition_score(lm, prev, word)
            if s > best_score or (s == best_score and prev_tie[q] > best_tie):
                best, best_score, best_tie = q, s, prev_tie[q]
    order, next_group = ranked
    i = 0
    while i < start:
        q = order[i]
        if q in known:
            i += 1
            continue
        s = prev_score[q] + backoff
        if s < best_score:
            break
        if s > best_score or prev_tie[q] > best_tie:
            best, best_score, best_tie = q, s, prev_tie[q]
        # the first entry of a score group that is not known has the
        # group's largest key
        i = next_group[i]
    return best, best_score, best_tie


_HASHTAG_BODY_RE = re.compile(r"[^0-9a-z]")
# A run of the regex engine's non-whitespace: no token spans whitespace.
_CHUNK_RE = re.compile(r"\S+")


def preprocess(
    text: str,
    dictionary: CorrectionDictionary,
    lm: LanguageModel,
    memo: dict[str, tuple[Token, ...]] | None = None,
) -> list[Token]:
    """Tokenize, correct and hashtag-segment one post's text.

    The text is split into its whitespace-separated chunks (``\\S+``,
    the whitespace class ``tokenize`` itself uses), and each chunk is
    processed alone.  This equals processing the whole text: no
    tokenizer rule can match or look past whitespace, and every later
    step works on one token at a time.  ``memo`` maps a chunk to its
    tokens; pass one dict to the calls of a run so each distinct chunk
    is processed once (None: a fresh dict, no sharing).  It holds each
    distinct chunk once, so it grows linearly with the input.
    """
    if memo is None:
        memo = {}
    out: list[Token] = []
    for chunk in _CHUNK_RE.findall(text):
        tokens = memo.get(chunk)
        if tokens is None:
            tokens = memo[chunk] = _preprocess_chunk(chunk, dictionary, lm)
        out.extend(tokens)
    return out


def _preprocess_chunk(
    chunk: str, dictionary: CorrectionDictionary, lm: LanguageModel
) -> tuple[Token, ...]:
    """The tokens of one chunk: tokenize, then correct or segment each."""
    out: list[Token] = []
    for token in tokenize(chunk):
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
    return tuple(out)
