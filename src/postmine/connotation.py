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

``score_triples`` scans every query verb against the annotated rows in
one ``scan`` call, which has two engines.  Importing numpy costs a stage
more than a small scan, so below ``NUMPY_SCAN_MIN`` multiply-adds
(queries x annotated rows x dimension) the scan runs in pure Python and
the stage never imports numpy; at or above it, the scan imports numpy.
The engines give the same bits.  Both scale each vector by a power of
two and divide it by the square root of its squares summed left to
right, and both start each similarity at +0.0 and add its products left
to right, one dimension at a time: explicit loops, not ``sum()``, which
compensates from Python 3.12 on, and in numpy one add per dimension
over a block of queries, not BLAS or a summing ``einsum``, whose order
of summation is their own.  So the clipping, the k-th similarity cut
and ``min_similarity`` see the same values, and ``nearest_annotated``
ranks the candidates of either engine alike.

Only labeled posts count.  ``score_triples`` drops the triples of a post
that the post_id -> label mapping of ``corpus.attach_labels`` does not
hold, and ``aggregate`` groups the scored records by that mapping and
returns the coverage with the rows: the share of labeled posts with at
least one scored triple.  Its means are correctly rounded sums
(``math.fsum``), so the report depends on which triples the file holds,
not on their order.

Frames are plain named tuples: ``load_lexicon`` checks each score read,
and ``propagate`` clamps, so every frame is in [-1, 1].  The embeddings
are a plain word -> vector mapping, each vector the tuple of floats
read: ``load_embeddings`` alone checks them (one dimension, finite
components, no zero vector), and a scan normalizes only the vectors it
reads.  ``events`` is imported for type annotations only.
``write_aggregate_report`` writes through ``errors.write_table``.
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .corpus import HarassmentLabel, HarassmentType, Participant
from .errors import DataError, data_lines, read_utf8, write_table

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


def _unit(vector: Sequence[float]) -> list[float]:
    # scale by a power of two, which is exact, so that the largest
    # |component| is in [0.5, 1): the squares summed for the norm then
    # neither overflow nor underflow at any finite scale
    _, exponent = math.frexp(max(map(abs, vector)))
    scaled = [math.ldexp(x, -exponent) for x in vector]
    total = 0.0
    for x in scaled:
        total += x * x
    norm = math.sqrt(total)
    return [x / norm for x in scaled]


def load_embeddings(path: str | Path) -> dict[str, tuple[float, ...]]:
    """Read text lines "word v1 v2 ... vD", fields split at runs of ASCII
    spaces and tabs only (a word may hold any other space); returns the
    word -> vector mapping, each vector as given.  The first line fixes D,
    and a mismatched line or a nan/inf component is fatal with its line
    number; once every line is read, an empty file and then the first
    all-zero vector are fatal."""
    vectors: dict[str, tuple[float, ...]] = {}
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
                vec = tuple(map(float, fields))
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric component") from None
            if not all(map(math.isfinite, vec)):
                raise DataError(f"line {lineno}: non-finite component")
            if dimension is None:
                dimension = len(vec)
            elif len(vec) != dimension:
                raise DataError(f"line {lineno}: dimension {len(vec)} != {dimension}")
            vectors[word] = vec
        if not vectors:
            raise DataError("embedding store is empty")
        for word, vec in vectors.items():
            if not any(vec):
                raise DataError(f"zero-norm vector for {word!r}")
    return vectors


# Below this many multiply-adds (queries x annotated rows x dimension) a
# scan runs in pure Python; at or above it, it imports numpy.  Measured on
# a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) with 950 annotated rows of 25
# dimensions: importing numpy takes 50 ms on an idle host and up to 100 ms
# on a busy one; the pure engine takes about 8 ms to normalize the rows
# and 1.1 ms per query (46 ns per multiply-add), the numpy engine about
# 1 ms and 0.03 ms per query.  So the engines break even at (50 to 100 +
# 1 - 8) ms / 1.07 ms = 40 to 87 queries, 0.95e6 to 2.1e6 multiply-adds,
# and the constant sits between.
NUMPY_SCAN_MIN = 1_500_000
# queries per numpy block: the block's similarity rows stay in cache
NUMPY_SCAN_BLOCK = 32


def scan(
    embeddings: Mapping[str, Sequence[float]],
    queries: Sequence[str],
    lemmas: Sequence[str],
    k: int,
) -> list[list[tuple[float, int]]]:
    """For each query word, its candidate neighbors among ``lemmas``:
    (similarity, index into ``lemmas``) in index order for every lemma
    whose similarity is at least the query's k-th largest.  A similarity
    is the cosine clipped to [-1, 1].  Every query and lemma must have a
    vector (KeyError otherwise).

    The cut keeps every lemma that can be among the k nearest, ties
    included, so ``nearest_annotated`` ranks the candidates as it would
    rank every lemma.  The engine is pure Python or numpy by the scan's
    size (``NUMPY_SCAN_MIN``); both give the same bits.
    """
    vectors = [embeddings[word] for word in queries]
    rows = [embeddings[lemma] for lemma in lemmas]
    if not vectors or not rows:
        return [[] for _ in vectors]
    size = len(vectors) * len(rows) * len(rows[0])
    engine = _scan_numpy if size >= NUMPY_SCAN_MIN else _scan_python
    return engine(vectors, rows, k)


def _scan_python(
    queries: Sequence[Sequence[float]], rows: Sequence[Sequence[float]], k: int
) -> list[list[tuple[float, int]]]:
    columns = list(zip(*map(_unit, rows)))
    found = []
    for query in map(_unit, queries):
        # each similarity starts at +0.0 and adds one product per
        # dimension, left to right, as in _scan_numpy
        sims = [0.0] * len(rows)
        for q, column in zip(query, columns):
            sims = [s + q * x for s, x in zip(sims, column)]
        sims = [-1.0 if s < -1.0 else 1.0 if s > 1.0 else s for s in sims]
        cut = heapq.nlargest(k, sims)[-1]
        found.append([(s, i) for i, s in enumerate(sims) if s >= cut])
    return found


def _scan_numpy(
    queries: Sequence[Sequence[float]], rows: Sequence[Sequence[float]], k: int
) -> list[list[tuple[float, int]]]:
    import numpy as np

    def unit(vectors: Sequence[Sequence[float]]) -> np.ndarray:
        # _unit on every row at once, its squares summed in the same order
        matrix = np.array(vectors, dtype=np.float64)
        _, exponents = np.frexp(np.abs(matrix).max(axis=1))
        matrix = np.ldexp(matrix, -exponents[:, None])
        total = np.zeros(len(matrix))
        for column in matrix.T:
            total += column * column
        return matrix / np.sqrt(total)[:, None]

    columns = unit(rows).T.copy()
    kth = len(rows) - min(k, len(rows))
    found = []
    units = unit(queries)
    for start in range(0, len(units), NUMPY_SCAN_BLOCK):
        block = units[start:start + NUMPY_SCAN_BLOCK].T.copy()
        # the sums of _scan_python for a block of queries at once: the
        # einsum only forms each product (it sums nothing), with one
        # rounding, and the adds run one dimension at a time
        sims = np.zeros((block.shape[1], len(rows)))
        product = np.empty_like(sims)
        for q, column in zip(block, columns):
            np.einsum("b,n->bn", q, column, out=product)
            sims += product
        np.clip(sims, -1.0, 1.0, out=sims)
        keep = sims >= np.partition(sims, kth, axis=1)[:, kth, None]
        # row-major, so each query's candidates follow the previous one's
        pairs = zip(sims[keep].tolist(), np.nonzero(keep)[1].tolist())
        found.extend(list(islice(pairs, count)) for count in keep.sum(axis=1).tolist())
    return found


def nearest_annotated(
    candidates: Iterable[tuple[float, int]],
    lemmas: Sequence[str],
    k: int,
    min_similarity: float,
) -> list[tuple[str, float]]:
    """The k lemmas most similar to one query, as (lemma, similarity),
    from the query's ``candidates`` that ``scan`` found among ``lemmas``:
    those at min_similarity or above, by similarity descending, exact
    ties by lemma."""
    ranked = sorted((-sim, lemmas[i]) for sim, i in candidates if sim >= min_similarity)
    return [(lemma, -negated) for negated, lemma in ranked[:k]]


def propagate(
    word: str,
    lexicon: Mapping[str, ConnotationFrame],
    candidates: Iterable[tuple[float, int]] | None,
    lemmas: Sequence[str],
    k: int,
    min_similarity: float,
) -> ConnotationFrame | None:
    """Frame for ``word``: the lexicon entry when annotated, otherwise
    the neighbor-weighted average described in the module docstring,
    over ``nearest_annotated(candidates, lemmas, k, min_similarity)``.
    ``candidates`` is the word's ``scan`` over ``lemmas``, None when the
    word has no vector.

    None when the verb is unscorable: unannotated and with no embedding
    or no qualifying annotated neighbor.
    """
    frame = lexicon.get(word)
    if frame is not None:
        return frame
    if candidates is None:
        return None
    neighbors = nearest_annotated(candidates, lemmas, k, min_similarity)
    if not neighbors:
        return None
    weights = [max(0.0, sim) for _, sim in neighbors]
    values = []
    for scores in zip(*(lexicon[lemma] for lemma, _ in neighbors)):
        total = 0.0
        for weight, score in zip(weights, scores):
            total += weight * score
        values.append(max(-1.0, min(1.0, total / len(weights))))
    return ConnotationFrame(*values)


def score_triples(
    triples: Iterable[EventTriple],
    labels: Mapping[str, HarassmentLabel],
    lexicon: Mapping[str, ConnotationFrame],
    embeddings: Mapping[str, Sequence[float]],
    k: int,
    min_similarity: float,
) -> list[tuple[str, ConnotationFrame]]:
    """Score each triple of a labeled post by its verb, as (source_post,
    frame) records in input order; ``labels`` is the post_id -> label
    mapping ``corpus.attach_labels`` returns.

    Each distinct lemma is propagated once, and one ``scan`` finds the
    candidate neighbors of every unannotated lemma with a vector.
    Triples whose post has no label or whose verb is unscorable are
    dropped.  Passive triples use the same frame: the extractor already
    swapped the roles.
    """
    triples = [triple for triple in triples if triple.source_post in labels]
    verbs = list(dict.fromkeys(triple.verb_lemma for triple in triples))
    queries = [verb for verb in verbs if verb not in lexicon and verb in embeddings]
    annotated = [lemma for lemma in lexicon if lemma in embeddings]
    candidates = dict(zip(queries, scan(embeddings, queries, annotated, k)))
    frames = {verb: propagate(verb, lexicon, candidates.get(verb), annotated,
                              k, min_similarity)
              for verb in verbs}
    return [(triple.source_post, frames[triple.verb_lemma]) for triple in triples
            if frames[triple.verb_lemma] is not None]


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
    write_table(path, AGGREGATE_HEADER, (
        (row.harassment_type.value, row.participant.value, f"{row.event_sentiment:.4f}",
         f"{row.affected_sentiment:.4f}", f"{row.percentage:.2f}")
        for row in rows), footer=f"# coverage={coverage:.4f}")
