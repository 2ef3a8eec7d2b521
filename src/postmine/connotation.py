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
full-scan semantics.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .corpus import HarassmentLabel, HarassmentType, Participant
from .errors import DataError, NoEmbeddingError, UnscorableError
from .events import EventTriple

logger = logging.getLogger(__name__)

FRAME_DIMENSIONS = (
    "sentiment_verb",
    "sentiment_affected",
    "persp_affected_to_agent",
    "persp_reader_to_affected",
    "persp_affected_to_affected",
)

AGGREGATE_HEADER = (
    "harassment_type",
    "participant",
    "event_sentiment",
    "affected_sentiment",
    "percentage",
)


@dataclass(frozen=True)
class ConnotationFrame:
    sentiment_verb: float
    sentiment_affected: float
    persp_affected_to_agent: float
    persp_reader_to_affected: float
    persp_affected_to_affected: float

    def __post_init__(self) -> None:
        for dim in FRAME_DIMENSIONS:
            value = getattr(self, dim)
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{dim}={value} outside [-1, 1]")

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, dim) for dim in FRAME_DIMENSIONS)


@dataclass(frozen=True)
class ConnotationLexicon:
    frames: Mapping[str, ConnotationFrame]

    def __contains__(self, lemma: str) -> bool:
        return lemma in self.frames

    def __len__(self) -> int:
        return len(self.frames)


def load_lexicon(source: str | Path | TextIO) -> ConnotationLexicon:
    """Read tab-delimited rows: lemma then five reals in [-1, 1]."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_lexicon(handle)
    frames: dict[str, ConnotationFrame] = {}
    for lineno, raw in enumerate(source.read().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise DataError(f"lexicon row {lineno}: expected lemma + 5 scores")
        lemma = parts[0].strip().lower()
        if lemma in frames:
            raise DataError(f"lexicon row {lineno}: duplicate lemma {lemma!r}")
        try:
            scores = [float(x) for x in parts[1:]]
        except ValueError:
            raise DataError(f"lexicon row {lineno}: non-numeric score") from None
        try:
            frames[lemma] = ConnotationFrame(*scores)
        except ValueError as exc:
            raise DataError(f"lexicon row {lineno}: {exc}") from None
    if not frames:
        raise DataError("lexicon is empty")
    return ConnotationLexicon(frames)


class EmbeddingStore:
    """Fixed-dimension word vectors; unit-normalized copies are kept so
    cosine similarity is a dot product."""

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        if not vectors:
            raise DataError("embedding store is empty")
        dims = {len(v) for v in vectors.values()}
        if len(dims) != 1:
            raise DataError(f"inconsistent embedding dimensions: {sorted(dims)}")
        self.dimension = dims.pop()
        self._unit: dict[str, np.ndarray] = {}
        for word, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            norm = float(np.linalg.norm(arr))
            if norm == 0.0:
                raise DataError(f"zero-norm vector for {word!r}")
            self._unit[word] = arr / norm

    def __contains__(self, word: str) -> bool:
        return word in self._unit

    def __len__(self) -> int:
        return len(self._unit)

    def unit_vector(self, word: str) -> np.ndarray:
        try:
            return self._unit[word]
        except KeyError:
            raise NoEmbeddingError(f"no embedding for {word!r}") from None

    def cosine(self, a: str, b: str) -> float:
        value = float(self.unit_vector(a) @ self.unit_vector(b))
        return max(-1.0, min(1.0, value))


def load_embeddings(source: str | Path | TextIO) -> EmbeddingStore:
    """Read text lines "word v1 v2 ... vD"; the first line fixes D and a
    mismatched line is fatal with its line number."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_embeddings(handle)
    vectors: dict[str, list[float]] = {}
    dimension: int | None = None
    for lineno, raw in enumerate(source.read().splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) < 2:
            raise DataError(f"embedding line {lineno}: no vector components")
        word = parts[0].lower()
        if word in vectors:
            raise DataError(f"embedding line {lineno}: duplicate word {word!r}")
        try:
            vec = [float(x) for x in parts[1:]]
        except ValueError:
            raise DataError(f"embedding line {lineno}: non-numeric component") from None
        if dimension is None:
            dimension = len(vec)
        elif len(vec) != dimension:
            raise DataError(
                f"embedding line {lineno}: dimension {len(vec)} != {dimension}"
            )
        vectors[word] = vec
    return EmbeddingStore(vectors)


@dataclass(frozen=True)
class PropagationConfig:
    """k bounds the neighborhood; min_similarity filters it."""

    k: int = 10
    min_similarity: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        sim = self.min_similarity
        if not isinstance(sim, Real) or isinstance(sim, bool) or not 0.0 <= sim <= 1.0:
            raise ValueError(f"min_similarity must be a number in [0, 1], got {sim!r}")


def nearest_annotated(
    word: str,
    embeddings: EmbeddingStore,
    lexicon: ConnotationLexicon,
    config: PropagationConfig,
) -> list[tuple[str, float]]:
    """The k annotated lemmas most cosine-similar to ``word``.

    Full scan over every lemma present in both the lexicon and the
    store, filtered by min_similarity, sorted by similarity descending
    with lexicographic tie-breaking.
    """
    query = embeddings.unit_vector(word)
    scored: list[tuple[str, float]] = []
    for lemma in lexicon.frames:
        if lemma in embeddings:
            sim = float(query @ embeddings.unit_vector(lemma))
            sim = max(-1.0, min(1.0, sim))
            if sim >= config.min_similarity:
                scored.append((lemma, sim))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[: config.k]


def propagate(
    word: str,
    lexicon: ConnotationLexicon,
    embeddings: EmbeddingStore,
    config: PropagationConfig,
) -> ConnotationFrame:
    """Frame for ``word``: the lexicon entry when annotated, otherwise
    the neighbor-weighted average described in the module docstring.

    Raises UnscorableError when the verb is unannotated and has no
    embedding or no qualifying annotated neighbor.
    """
    frame = lexicon.frames.get(word)
    if frame is not None:
        return frame
    try:
        neighbors = nearest_annotated(word, embeddings, lexicon, config)
    except NoEmbeddingError as exc:
        raise UnscorableError(f"{word!r} is unannotated and unembedded") from exc
    if not neighbors:
        raise UnscorableError(f"{word!r} has no qualifying annotated neighbor")
    n = len(neighbors)
    values = []
    for dim in FRAME_DIMENSIONS:
        total = 0.0
        for lemma, sim in neighbors:
            total += max(0.0, sim) * getattr(lexicon.frames[lemma], dim)
        values.append(max(-1.0, min(1.0, total / n)))
    return ConnotationFrame(*values)


def score_triples(
    triples: Iterable[EventTriple],
    lexicon: ConnotationLexicon,
    embeddings: EmbeddingStore,
    config: PropagationConfig,
) -> list[tuple[str, ConnotationFrame]]:
    """Score each triple by its verb, as (source_post, frame) records in
    input order.

    Each distinct lemma is propagated once.  Triples whose verb is
    unscorable are dropped.  Passive triples use the same frame: the
    extractor already swapped the roles.
    """
    frames: dict[str, ConnotationFrame | None] = {}
    scored: list[tuple[str, ConnotationFrame]] = []
    for triple in triples:
        lemma = triple.verb_lemma
        if lemma not in frames:
            try:
                frames[lemma] = propagate(lemma, lexicon, embeddings, config)
            except UnscorableError:
                frames[lemma] = None
        frame = frames[lemma]
        if frame is not None:
            scored.append((triple.source_post, frame))
    return scored


@dataclass(frozen=True)
class AggregateRow:
    harassment_type: HarassmentType
    participant: Participant
    event_sentiment: float
    affected_sentiment: float
    percentage: float


def aggregate(
    scored: Iterable[tuple[str, ConnotationFrame]],
    labels: Iterable[HarassmentLabel],
) -> list[AggregateRow]:
    """Group scored (post_id, frame) records by harassment label.

    One row per nonempty (type, participant) group, in enum declaration
    order: mean verb sentiment, mean affected sentiment, and the group's
    share of all labeled-and-scored records as a percentage.  Records
    whose post has no label are excluded from both the rows and the
    denominator.
    """
    by_post: dict[str, HarassmentLabel] = {}
    for label in labels:
        if label.post_id in by_post:
            raise DataError(f"duplicate label for post_id {label.post_id!r}")
        by_post[label.post_id] = label
    groups: dict[tuple[HarassmentType, Participant], list[ConnotationFrame]] = {}
    total = 0
    for post_id, frame in scored:
        label = by_post.get(post_id)
        if label is None:
            continue
        groups.setdefault((label.harassment_type, label.participant), []).append(frame)
        total += 1
    rows: list[AggregateRow] = []
    for htype in HarassmentType:
        for participant in Participant:
            frames = groups.get((htype, participant))
            if not frames:
                continue
            rows.append(AggregateRow(
                harassment_type=htype,
                participant=participant,
                event_sentiment=sum(f.sentiment_verb for f in frames) / len(frames),
                affected_sentiment=sum(f.sentiment_affected for f in frames) / len(frames),
                percentage=100.0 * len(frames) / total,
            ))
    return rows


def write_aggregate_report(
    rows: Sequence[AggregateRow], path: str | Path, coverage: float | None = None
) -> None:
    """Comma-delimited aggregate table, optionally with a coverage
    footer (fraction of labeled posts that produced a scorable triple)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
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
        if coverage is not None:
            handle.write(f"# coverage={coverage:.4f}\n")
