"""Connotation-frame sentiment: lexicon lookup, nearest-neighbor score
propagation for unannotated verbs, and label-group aggregation.

An annotated verb keeps its lexicon frame untouched.  An unannotated
verb w with embedding neighbors e_1..e_n drawn from the annotated set
gets, per dimension,

    S(w) = (1/n) * sum_i Pr(w -> e_i) * S(e_i)

with Pr realized as cosine similarity clipped to [0, 1] and the result
clamped to [-1, 1].  The 1/n average is applied exactly as stated even
though it shrinks propagated magnitudes toward zero; all five frame
dimensions propagate with the same weights.  Neighbor search has exact
full-scan semantics.  A verb that is unannotated and has no embedding
or no qualifying neighbor is unscorable: ``propagate`` returns None for
it and ``score_triples`` drops its triples.

Only labeled posts count.  ``score_triples`` drops the triples of a post
that the post_id -> label mapping of ``corpus.attach_labels`` does not
hold, and ``aggregate`` groups the scored records by that mapping and
returns the coverage with the rows: the share of labeled posts with at
least one scored triple.  Its means are correctly rounded sums
(``math.fsum``), so the report depends on which triples the file holds,
not on their order.

Frames are plain named tuples: ``load_lexicon`` checks each score read,
and ``propagate`` clamps, so every frame is in [-1, 1].  ``events`` is
imported for type annotations only.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import HarassmentLabel, HarassmentType, Participant
from .errors import DataError, atomic_open, data_lines, read_utf8

if TYPE_CHECKING:
    from .events import EventTriple

AGGREGATE_HEADER = (
    "harassment_type",
    "participant",
    "event_sentiment",
    "affected_sentiment",
    "percentage",
)


class ConnotationFrame(NamedTuple):
    """Five scores, each in [-1, 1]."""

    sentiment_verb: float
    sentiment_affected: float
    persp_affected_to_agent: float
    persp_reader_to_affected: float
    persp_affected_to_affected: float


def load_lexicon(path: str | Path) -> dict[str, ConnotationFrame]:
    """Read tab-delimited rows: lemma then five reals in [-1, 1]; returns
    the lemma -> frame mapping."""
    frames: dict[str, ConnotationFrame] = {}
    with read_utf8(path) as handle:
        for lineno, line in data_lines(handle):
            parts = line.split("\t")
            lemma = parts[0].strip().lower()
            if len(parts) != 6 or not lemma:
                raise DataError(f"line {lineno}: expected lemma + 5 scores")
            if lemma in frames:
                raise DataError(f"line {lineno}: duplicate lemma {lemma!r}")
            try:
                scores = [float(x) for x in parts[1:]]
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric score") from None
            for dim, value in zip(ConnotationFrame._fields, scores):
                if not -1.0 <= value <= 1.0:
                    raise DataError(f"line {lineno}: {dim}={value} outside [-1, 1]")
            frames[lemma] = ConnotationFrame(*scores)
        if not frames:
            raise DataError("lexicon is empty")
    return frames


class EmbeddingStore:
    """Fixed-dimension word vectors, kept as one matrix of unit-normalized
    rows so cosine similarity is a dot product."""

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        if not vectors:
            raise DataError("embedding store is empty")
        words = list(vectors)
        matrix = np.array([vectors[word] for word in words], dtype=np.float64)
        # scale each row by a power of two, which is exact, so that its
        # largest |component| is in [0.5, 1): the squares summed by the
        # norm then neither overflow nor underflow at any finite scale
        _, exponents = np.frexp(np.abs(matrix).max(axis=1, initial=0.0))
        matrix = np.ldexp(matrix, -exponents[:, None])
        norms = np.linalg.norm(matrix, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DataError(f"zero-norm vector for {words[zero[0]]!r}")
        self._unit = matrix / norms[:, None]
        self._row = {word: i for i, word in enumerate(words)}

    def __contains__(self, word: str) -> bool:
        return word in self._row

    def unit_vector(self, word: str) -> np.ndarray:
        """The word's unit vector; KeyError when it has none."""
        return self._unit[self._row[word]]

    def unit_rows(self, words: Iterable[str]) -> tuple[list[str], np.ndarray]:
        """The given words that have a vector, in the given order, and
        their unit vectors as the rows of one matrix."""
        row = self._row
        kept = [word for word in words if word in row]
        rows = np.fromiter(map(row.__getitem__, kept), dtype=np.intp, count=len(kept))
        return kept, self._unit[rows]


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Read text lines "word v1 v2 ... vD", fields split at runs of ASCII
    spaces and tabs only (a word may hold any other space); the first line
    fixes D, and a mismatched line or a nan/inf component is fatal with its
    line number."""
    vectors: dict[str, list[float]] = {}
    dimension: int | None = None
    with read_utf8(path) as handle:
        for lineno, line in data_lines(handle):
            word, *fields = filter(None, line.replace("\t", " ").split(" "))
            if not fields:
                raise DataError(f"line {lineno}: no vector components")
            word = word.lower()
            if word in vectors:
                raise DataError(f"line {lineno}: duplicate word {word!r}")
            try:
                vec = list(map(float, fields))
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric component") from None
            if not all(map(math.isfinite, vec)):
                raise DataError(f"line {lineno}: non-finite component")
            if dimension is None:
                dimension = len(vec)
            elif len(vec) != dimension:
                raise DataError(f"line {lineno}: dimension {len(vec)} != {dimension}")
            vectors[word] = vec
        return EmbeddingStore(vectors)


def nearest_annotated(
    word: str,
    embeddings: EmbeddingStore,
    annotated: tuple[list[str], np.ndarray],
    k: int,
    min_similarity: float,
) -> list[tuple[str, float]]:
    """The k annotated lemmas most cosine-similar to ``word``, which
    must have a vector (KeyError otherwise).

    ``annotated`` is every lemma present in both the lexicon and the
    store with its unit row, ``embeddings.unit_rows(lexicon)``.
    Full scan over them, filtered by min_similarity, sorted by
    similarity descending with lexicographic tie-breaking.
    """
    query = embeddings.unit_vector(word)
    lemmas, rows = annotated
    # einsum rather than ``rows @ query``: BLAS gemv may round two
    # identical rows differently depending on where they sit, and that
    # would break exact ties.  einsum sums every row the same way.
    sims = np.clip(np.einsum("ij,j->i", rows, query), -1.0, 1.0)
    keep = np.flatnonzero(sims >= min_similarity)
    if keep.size > k:
        # each of the k nearest is at least the k-th largest similarity
        keep = keep[sims[keep] >= np.partition(sims[keep], -k)[-k]]
    ranked = sorted(zip((-sims[keep]).tolist(), map(lemmas.__getitem__, keep.tolist())))
    return [(lemma, -negated) for negated, lemma in ranked[:k]]


def propagate(
    word: str,
    lexicon: Mapping[str, ConnotationFrame],
    embeddings: EmbeddingStore,
    annotated: tuple[list[str], np.ndarray],
    k: int,
    min_similarity: float,
) -> ConnotationFrame | None:
    """Frame for ``word``: the lexicon entry when annotated, otherwise
    the neighbor-weighted average described in the module docstring.
    ``annotated`` is ``embeddings.unit_rows(lexicon)``, as
    ``nearest_annotated`` takes it.

    None when the verb is unscorable: unannotated and with no embedding
    or no qualifying annotated neighbor.
    """
    frame = lexicon.get(word)
    if frame is not None:
        return frame
    if word not in embeddings:
        return None
    neighbors = nearest_annotated(word, embeddings, annotated, k, min_similarity)
    if not neighbors:
        return None
    n = len(neighbors)
    values = []
    for dim in ConnotationFrame._fields:
        total = 0.0
        for lemma, sim in neighbors:
            total += max(0.0, sim) * getattr(lexicon[lemma], dim)
        values.append(max(-1.0, min(1.0, total / n)))
    return ConnotationFrame(*values)


def score_triples(
    triples: Iterable[EventTriple],
    labels: Mapping[str, HarassmentLabel],
    lexicon: Mapping[str, ConnotationFrame],
    embeddings: EmbeddingStore,
    k: int,
    min_similarity: float,
) -> list[tuple[str, ConnotationFrame]]:
    """Score each triple of a labeled post by its verb, as (source_post,
    frame) records in input order; ``labels`` is the post_id -> label
    mapping ``corpus.attach_labels`` returns.

    Each distinct lemma is propagated once, and the annotated lemmas'
    unit rows are gathered once for all of them.  Triples whose post has
    no label or whose verb is unscorable are dropped.  Passive triples
    use the same frame: the extractor already swapped the roles.
    """
    annotated = embeddings.unit_rows(lexicon)
    frames: dict[str, ConnotationFrame | None] = {}
    scored: list[tuple[str, ConnotationFrame]] = []
    for triple in triples:
        if triple.source_post not in labels:
            continue
        lemma = triple.verb_lemma
        if lemma not in frames:
            frames[lemma] = propagate(lemma, lexicon, embeddings, annotated,
                                      k, min_similarity)
        frame = frames[lemma]
        if frame is not None:
            scored.append((triple.source_post, frame))
    return scored


class AggregateRow(NamedTuple):
    harassment_type: HarassmentType
    participant: Participant
    event_sentiment: float
    affected_sentiment: float
    percentage: float


def aggregate(
    scored: Iterable[tuple[str, ConnotationFrame]],
    labels: Mapping[str, HarassmentLabel],
) -> tuple[list[AggregateRow], float]:
    """Group scored (post_id, frame) records of labeled posts, as
    ``score_triples`` returns them, by harassment label.

    Returns one row per nonempty (type, participant) group, in enum
    declaration order: mean verb sentiment, mean affected sentiment, and
    the group's share of all records as a percentage.  And the coverage:
    the fraction of the posts in ``labels`` with a scored record (0.0
    for an empty ``labels``).
    """
    groups: dict[tuple[HarassmentType, Participant], list[ConnotationFrame]] = {}
    posts: set[str] = set()
    for post_id, frame in scored:
        label = labels[post_id]
        groups.setdefault((label.harassment_type, label.participant), []).append(frame)
        posts.add(post_id)
    total = sum(map(len, groups.values()))
    rows: list[AggregateRow] = []
    for htype in HarassmentType:
        for participant in Participant:
            frames = groups.get((htype, participant))
            if not frames:
                continue
            rows.append(AggregateRow(
                harassment_type=htype,
                participant=participant,
                event_sentiment=math.fsum(f.sentiment_verb for f in frames) / len(frames),
                affected_sentiment=math.fsum(
                    f.sentiment_affected for f in frames) / len(frames),
                percentage=100.0 * len(frames) / total,
            ))
    return rows, len(posts) / len(labels) if labels else 0.0


def write_aggregate_report(
    rows: Sequence[AggregateRow], path: str | Path, coverage: float
) -> None:
    """Comma-delimited aggregate table with a coverage footer (fraction
    of labeled posts that produced a scorable triple)."""
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(AGGREGATE_HEADER)
        for row in rows:
            writer.writerow((
                row.harassment_type.value,
                row.participant.value,
                f"{row.event_sentiment:.4f}",
                f"{row.affected_sentiment:.4f}",
                f"{row.percentage:.2f}",
            ))
        handle.write(f"# coverage={coverage:.4f}\n")
