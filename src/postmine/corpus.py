"""Post ingestion, deduplication and the shared tabular data model.

Posts arrive as line-delimited JSON records (one object per line with
fields post_id, user_id, institution_id, timestamp, text), institution
metadata as a CSV table and harassment labels as a CSV table.  Malformed
post lines never abort a run: they are counted, reported with their line
number and skipped.  A run only fails when zero valid records survive.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

from .errors import DataError, EmptyCorpusError

logger = logging.getLogger(__name__)

POST_FIELDS = ("post_id", "user_id", "institution_id", "timestamp", "text")

INSTITUTION_HEADER = (
    "institution_id",
    "enrollment",
    "mf_ratio",
    "sector",
    "region",
    "reported_cases",
)

LABEL_HEADER = ("post_id", "harassment_type", "participant")


class Region(Enum):
    NORTHEAST = "Northeast"
    SOUTH = "South"
    WEST = "West"
    MIDWEST = "Midwest"


class HarassmentType(Enum):
    PHYSICAL = "Physical"
    VERBAL = "Verbal"
    VISUAL = "Visual"


class Participant(Enum):
    PEER = "Peer"
    FACULTY = "Faculty"
    THIRD_PARTY = "ThirdParty"


_PARTICIPANT_ALIASES = {
    "peer": Participant.PEER,
    "faculty": Participant.FACULTY,
    "third_party": Participant.THIRD_PARTY,
    "thirdparty": Participant.THIRD_PARTY,
    "3rd-party": Participant.THIRD_PARTY,
}


@dataclass(frozen=True)
class Post:
    """One social-media message.  timestamp is UTC epoch seconds."""

    post_id: str
    user_id: str
    institution_id: str
    timestamp: int
    text: str


@dataclass(frozen=True)
class InstitutionRecord:
    institution_id: str
    enrollment: int
    mf_ratio: float
    is_private: bool
    region: Region
    reported_cases: int


@dataclass(frozen=True)
class HarassmentLabel:
    post_id: str
    harassment_type: HarassmentType
    participant: Participant


@dataclass(frozen=True)
class LabeledPost:
    post: Post
    label: HarassmentLabel


class Corpus:
    """Immutable ordered list of posts plus a user_id -> post indices map.

    A freshly ingested corpus may still contain duplicate post_ids;
    ``dedup`` establishes the one-post-per-id and one-post-per-(user,
    normalized text) invariants.
    """

    def __init__(self, posts: Iterable[Post]):
        self.posts: tuple[Post, ...] = tuple(posts)
        index: dict[str, list[int]] = {}
        for i, post in enumerate(self.posts):
            index.setdefault(post.user_id, []).append(i)
        self.user_index: Mapping[str, tuple[int, ...]] = {
            u: tuple(ix) for u, ix in index.items()
        }

    def __len__(self) -> int:
        return len(self.posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self.posts)

    def user_count(self) -> int:
        return len(self.user_index)


def normalized_text(text: str) -> str:
    """Casefold and collapse whitespace runs; the textual dedup key."""
    return " ".join(text.casefold().split())


def _parse_post(obj: object) -> Post:
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    missing = [f for f in POST_FIELDS if f not in obj]
    if missing:
        raise ValueError("missing field(s) %s" % ", ".join(missing))
    post_id = obj["post_id"]
    user_id = obj["user_id"]
    institution_id = obj["institution_id"]
    timestamp = obj["timestamp"]
    text = obj["text"]
    for name, value in (("post_id", post_id), ("user_id", user_id),
                        ("institution_id", institution_id), ("text", text)):
        if not isinstance(value, str):
            raise ValueError("field %r is not a string" % name)
    if not post_id:
        raise ValueError("empty post_id")
    if not user_id:
        raise ValueError("empty user_id")
    if not text.strip():
        raise ValueError("empty text")
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        if isinstance(timestamp, float) and timestamp.is_integer():
            timestamp = int(timestamp)
        else:
            raise ValueError("timestamp is not an integer")
    return Post(post_id, user_id, institution_id, timestamp, text)


def _log_warnings(source: str, warnings: list[str]) -> None:
    """Log a batch of warnings as one line: the count and the first three."""
    if warnings:
        logger.warning("%s: %d warning(s), first: %s",
                       source, len(warnings), "; ".join(warnings[:3]))


def ingest_posts(source: str | Path | TextIO) -> tuple[Corpus, list[str]]:
    """Read line-delimited post records.

    Returns the corpus (input order preserved) and the list of per-line
    warnings for malformed records.  Raises EmptyCorpusError when no
    valid record survives; an unreadable source raises the underlying
    OSError.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return ingest_posts(handle)
    posts: list[Post] = []
    warnings: list[str] = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            warnings.append(f"line {lineno}: blank line")
            continue
        try:
            posts.append(_parse_post(json.loads(line)))
        except (ValueError, TypeError) as exc:
            warnings.append(f"line {lineno}: {exc}")
    _log_warnings("ingest_posts", warnings)
    if not posts:
        raise EmptyCorpusError("no valid post records in input")
    return Corpus(posts), warnings


def dedup(corpus: Corpus, collapse_across_users: bool = False) -> Corpus:
    """Drop duplicate posts.

    Two posts are duplicates when they share a post_id, or when they
    share (user_id, normalized text).  With collapse_across_users the
    textual rule ignores the user, so identical reposts by different
    users collapse too (off by default: a repost is a distinct user
    action).  The survivor is the earliest timestamp; equal timestamps
    are broken by lexicographic post_id.  Output order is canonical
    (timestamp, post_id), which makes dedup idempotent and insensitive
    to input order.
    """
    by_id: dict[str, Post] = {}
    for post in corpus.posts:
        kept = by_id.get(post.post_id)
        if kept is None or _id_rank(post) < _id_rank(kept):
            by_id[post.post_id] = post
    survivors = sorted(by_id.values(), key=lambda p: (p.timestamp, p.post_id))
    by_key: dict[object, Post] = {}
    for post in survivors:
        norm = normalized_text(post.text)
        key: object = norm if collapse_across_users else (post.user_id, norm)
        if key not in by_key:
            by_key[key] = post
    result = sorted(by_key.values(), key=lambda p: (p.timestamp, p.post_id))
    return Corpus(result)


def _id_rank(post: Post) -> tuple:
    # Full ordering so the survivor among same-id records does not
    # depend on input order.
    return (post.timestamp, post.user_id, post.text)


def ingest_institutions(source: str | Path | TextIO) -> list[InstitutionRecord]:
    """Read the institution metadata table.

    Rejects the whole file on the first bad row: unknown region,
    nonpositive enrollment, negative counts or a duplicate
    institution_id are all fatal, with the row number in the message.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return ingest_institutions(handle)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise DataError("institution table is empty")
    missing = [c for c in INSTITUTION_HEADER if c not in reader.fieldnames]
    if missing:
        raise DataError("institution table missing column(s): %s" % ", ".join(missing))
    regions = {r.value.lower(): r for r in Region}
    records: list[InstitutionRecord] = []
    seen: set[str] = set()
    for rownum, row in enumerate(reader, start=2):
        inst = (row["institution_id"] or "").strip()
        if not inst:
            raise DataError(f"row {rownum}: empty institution_id")
        if inst in seen:
            raise DataError(f"row {rownum}: duplicate institution_id {inst!r}")
        seen.add(inst)
        try:
            enrollment = int(row["enrollment"])
            mf_ratio = float(row["mf_ratio"])
            reported = int(row["reported_cases"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"row {rownum}: {exc}") from None
        if enrollment < 1:
            raise DataError(f"row {rownum}: enrollment must be >= 1, got {enrollment}")
        if mf_ratio < 0:
            raise DataError(f"row {rownum}: mf_ratio must be >= 0, got {mf_ratio}")
        if reported < 0:
            raise DataError(f"row {rownum}: reported_cases must be >= 0, got {reported}")
        sector = (row["sector"] or "").strip().lower()
        if sector not in ("private", "public"):
            raise DataError(f"row {rownum}: unknown sector {row['sector']!r}")
        region_key = (row["region"] or "").strip().lower()
        region = regions.get(region_key)
        if region is None:
            raise DataError(f"row {rownum}: unknown region {row['region']!r}")
        records.append(InstitutionRecord(
            institution_id=inst,
            enrollment=enrollment,
            mf_ratio=mf_ratio,
            is_private=sector == "private",
            region=region,
            reported_cases=reported,
        ))
    return records


def ingest_labels(source: str | Path | TextIO) -> list[HarassmentLabel]:
    """Read the harassment label table (post_id,harassment_type,participant)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return ingest_labels(handle)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise DataError("label table is empty")
    missing = [c for c in LABEL_HEADER if c not in reader.fieldnames]
    if missing:
        raise DataError("label table missing column(s): %s" % ", ".join(missing))
    types = {t.value.lower(): t for t in HarassmentType}
    labels: list[HarassmentLabel] = []
    for rownum, row in enumerate(reader, start=2):
        post_id = (row["post_id"] or "").strip()
        if not post_id:
            raise DataError(f"row {rownum}: empty post_id")
        htype = types.get((row["harassment_type"] or "").strip().lower())
        if htype is None:
            raise DataError(f"row {rownum}: unknown harassment_type {row['harassment_type']!r}")
        participant = _PARTICIPANT_ALIASES.get((row["participant"] or "").strip().lower())
        if participant is None:
            raise DataError(f"row {rownum}: unknown participant {row['participant']!r}")
        labels.append(HarassmentLabel(post_id, htype, participant))
    return labels


def attach_labels(
    corpus: Corpus, labels: Iterable[HarassmentLabel]
) -> tuple[list[LabeledPost], list[str]]:
    """Join labels onto corpus posts.

    Two labels for one post_id are ambiguous ground truth and fatal.  A
    label whose post_id is absent from the corpus produces a warning and
    is excluded.  Returned rows follow corpus post order.
    """
    by_post: dict[str, HarassmentLabel] = {}
    for label in labels:
        if label.post_id in by_post:
            raise DataError(f"duplicate label for post_id {label.post_id!r}")
        by_post[label.post_id] = label
    warnings: list[str] = []
    labeled: list[LabeledPost] = []
    resolved: set[str] = set()
    for post in corpus.posts:
        label = by_post.get(post.post_id)
        if label is not None and post.post_id not in resolved:
            labeled.append(LabeledPost(post, label))
            resolved.add(post.post_id)
    for post_id in by_post:
        if post_id not in resolved:
            warnings.append(f"label references unknown post_id {post_id!r}")
    _log_warnings("attach_labels", warnings)
    return labeled, warnings


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus as line-delimited JSON with a fixed key order."""
    with open(path, "w", encoding="utf-8") as handle:
        for post in corpus.posts:
            record = {f: getattr(post, f) for f in POST_FIELDS}
            handle.write(json.dumps(record, ensure_ascii=True, sort_keys=False))
            handle.write("\n")


def read_corpus(path: str | Path) -> Corpus:
    corpus, warnings = ingest_posts(path)
    if warnings:
        raise DataError(f"corpus artifact {path} is corrupt: {warnings[0]}")
    return corpus
