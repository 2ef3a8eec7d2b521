"""Post ingestion, deduplication and the shared tabular data model.

Posts arrive as line-delimited JSON records (one object per line with
fields post_id, user_id, institution_id, timestamp, text), institution
metadata as a CSV table and harassment labels as a CSV table.  Malformed
post lines, a line that is not valid UTF-8 included, never abort a run:
they are counted, reported with their line number and skipped.
``ingest_posts`` returns the posts and the warnings even when no post
survives; the CLI then fails the run.  ``attach_labels`` joins the
labels onto the posts once, as a post_id -> label mapping.  Both return
their warnings rather than printing them; the CLI reports them.

The records are immutable named tuples and a corpus is a tuple of
``Post``; every loader takes a path.  ``write_corpus`` and
``write_ingest_summary`` (the counts of an ingest run) write through
``errors.atomic_open``, so a run that dies mid-write never leaves a
truncated file.  ``read_corpus`` fails on a missing artifact, on one
with a malformed line and on one with no post, naming the artifact.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import FLOAT_MAX, DataError, atomic_open, read_utf8, table_rows

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


class Post(NamedTuple):
    """One social-media message.  timestamp is UTC epoch seconds."""

    post_id: str
    user_id: str
    institution_id: str
    timestamp: int
    text: str


class InstitutionRecord(NamedTuple):
    institution_id: str
    enrollment: int
    mf_ratio: float
    is_private: bool
    region: Region
    reported_cases: int


class HarassmentLabel(NamedTuple):
    post_id: str
    harassment_type: HarassmentType
    participant: Participant


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
    # ids are written out as text, so they must encode
    for name, value in (("post_id", post_id), ("user_id", user_id),
                        ("institution_id", institution_id)):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("field %r is not valid UTF-8" % name) from None
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


def ingest_posts(path: str | Path) -> tuple[tuple[Post, ...], list[str]]:
    """Read line-delimited post records.

    Returns the posts (input order kept, duplicates included; empty
    when no valid record survives) and the per-line warnings for
    malformed records, a line that is not valid UTF-8 among them.  An
    unreadable file raises the underlying OSError.
    """
    posts: list[Post] = []
    warnings: list[str] = []
    # a leading byte-order mark is dropped; bytes that do not decode
    # become lone surrogates, which fail the line's re-encoding below
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                warnings.append(f"line {lineno}: blank line")
                continue
            try:
                line.encode("utf-8")
                posts.append(_parse_post(json.loads(line)))
            except UnicodeEncodeError:
                warnings.append(f"line {lineno}: not valid UTF-8")
            except RecursionError:
                warnings.append(f"line {lineno}: JSON nested too deeply")
            except (ValueError, TypeError) as exc:
                warnings.append(f"line {lineno}: {exc}")
    return tuple(posts), warnings


def dedup(posts: Iterable[Post]) -> tuple[Post, ...]:
    """Drop duplicate posts.

    Two posts are duplicates when they share a post_id, or when they
    share (user_id, normalized text); identical reposts by different
    users are kept, since a repost is a distinct user action.  The
    survivor is the earliest timestamp; equal timestamps are broken by
    lexicographic post_id.  Output order is canonical (timestamp,
    post_id), which makes dedup idempotent and insensitive to input
    order.
    """
    by_id: dict[str, Post] = {}
    for post in posts:
        kept = by_id.get(post.post_id)
        if kept is None or _id_rank(post) < _id_rank(kept):
            by_id[post.post_id] = post
    survivors = sorted(by_id.values(), key=lambda p: (p.timestamp, p.post_id))
    # filled in ``survivors`` order, so its values are in canonical order
    by_key: dict[tuple[str, str], Post] = {}
    for post in survivors:
        key = (post.user_id, normalized_text(post.text))
        if key not in by_key:
            by_key[key] = post
    return tuple(by_key.values())


def _id_rank(post: Post) -> tuple:
    # Full ordering so the survivor among same-id records does not
    # depend on input order.
    return (post.timestamp, post.user_id, post.text)


def ingest_institutions(path: str | Path) -> list[InstitutionRecord]:
    """Read the institution metadata table.

    Rejects the whole file on the first bad row: unknown region,
    nonpositive enrollment, a negative or non-finite mf_ratio, negative
    counts, an enrollment or count too large for a float or a duplicate
    institution_id are all fatal, with the row number in the message.
    """
    with read_utf8(path, newline="") as handle:
        regions = {r.value.lower(): r for r in Region}
        records: dict[str, InstitutionRecord] = {}
        for rownum, row in table_rows(handle, INSTITUTION_HEADER, "institution table"):
            inst, enrollment, mf_ratio, sector, region_cell, reported = row
            inst = inst.strip()
            if not inst:
                raise DataError(f"row {rownum}: empty institution_id")
            if inst in records:
                raise DataError(f"row {rownum}: duplicate institution_id {inst!r}")
            try:
                enrollment = int(enrollment)
                mf_ratio = float(mf_ratio)
                reported = int(reported)
            except ValueError as exc:
                raise DataError(f"row {rownum}: {exc}") from None
            if enrollment < 1:
                raise DataError(f"row {rownum}: enrollment must be >= 1, got {enrollment}")
            if enrollment > FLOAT_MAX:
                raise DataError(f"row {rownum}: enrollment is too large for a float")
            if not (mf_ratio >= 0 and math.isfinite(mf_ratio)):
                raise DataError(f"row {rownum}: mf_ratio must be finite and >= 0, "
                                f"got {mf_ratio}")
            if reported < 0:
                raise DataError(f"row {rownum}: reported_cases must be >= 0, got {reported}")
            if reported > FLOAT_MAX:
                raise DataError(f"row {rownum}: reported_cases is too large for a float")
            sector_key = sector.strip().lower()
            if sector_key not in ("private", "public"):
                raise DataError(f"row {rownum}: unknown sector {sector!r}")
            region = regions.get(region_cell.strip().lower())
            if region is None:
                raise DataError(f"row {rownum}: unknown region {region_cell!r}")
            records[inst] = InstitutionRecord(
                institution_id=inst,
                enrollment=enrollment,
                mf_ratio=mf_ratio,
                is_private=sector_key == "private",
                region=region,
                reported_cases=reported,
            )
    return list(records.values())


def ingest_labels(path: str | Path) -> list[HarassmentLabel]:
    """Read the harassment label table (post_id,harassment_type,participant)."""
    with read_utf8(path, newline="") as handle:
        types = {t.value.lower(): t for t in HarassmentType}
        labels: dict[str, HarassmentLabel] = {}
        for rownum, (post_id, type_cell, participant_cell) in table_rows(
                handle, LABEL_HEADER, "label table"):
            post_id = post_id.strip()
            if not post_id:
                raise DataError(f"row {rownum}: empty post_id")
            htype = types.get(type_cell.strip().lower())
            if htype is None:
                raise DataError(f"row {rownum}: unknown harassment_type {type_cell!r}")
            participant = _PARTICIPANT_ALIASES.get(participant_cell.strip().lower())
            if participant is None:
                raise DataError(f"row {rownum}: unknown participant {participant_cell!r}")
            if post_id in labels:
                raise DataError(f"row {rownum}: duplicate label for post_id {post_id!r}")
            labels[post_id] = HarassmentLabel(post_id, htype, participant)
    return list(labels.values())


def attach_labels(
    posts: Iterable[Post], labels: Iterable[HarassmentLabel]
) -> tuple[dict[str, HarassmentLabel], list[str]]:
    """Join labels onto corpus posts.

    Returns the labeled posts' post_id -> label mapping, in corpus post
    order, and the warnings.  Two labels for one post_id are ambiguous
    ground truth, which ``ingest_labels`` rejects.  A label whose
    post_id is absent from the corpus produces a warning and is excluded.
    """
    by_post = {label.post_id: label for label in labels}
    labeled = {post.post_id: by_post[post.post_id]
               for post in posts if post.post_id in by_post}
    warnings = [f"label references unknown post_id {post_id!r}"
                for post_id in by_post if post_id not in labeled]
    return labeled, warnings


def write_corpus(posts: Iterable[Post], path: str | Path) -> None:
    """Write the posts as line-delimited JSON with a fixed key order,
    replacing ``path`` atomically."""
    with atomic_open(path) as handle:
        for post in posts:
            handle.write(json.dumps(post._asdict(), ensure_ascii=True, sort_keys=False))
            handle.write("\n")


def write_ingest_summary(path: str | Path, ingested: int, kept: int, users: int,
                         warnings: list[str]) -> None:
    """Write the counts of an ingest run, one ``key=value`` line each,
    then one ``warning=`` line per malformed input line."""
    with atomic_open(path) as handle:
        handle.write(f"posts_ingested={ingested}\n")
        handle.write(f"posts_after_dedup={kept}\n")
        handle.write(f"unique_users={users}\n")
        handle.write(f"malformed_lines={len(warnings)}\n")
        for message in warnings:
            handle.write(f"warning={message}\n")


def read_corpus(path: str | Path) -> tuple[Post, ...]:
    """The posts of a corpus artifact; a missing artifact, any malformed
    line, or no post at all, is a data error that names the artifact."""
    if not Path(path).is_file():
        raise DataError(f"corpus artifact {path} not found; run 'ingest' first")
    posts, warnings = ingest_posts(path)
    if warnings:
        raise DataError(f"corpus artifact {path} is corrupt: {warnings[0]}")
    if not posts:
        raise DataError(f"corpus artifact {path} holds no posts; run 'ingest' first")
    return posts
