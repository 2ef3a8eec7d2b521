"""Rule-based extraction of verb / agent / affected triples.

A deliberately small stand-in for a full semantic parser, behind a
stable record interface: any component that produces the same triple
stream (including the file import path in ``read_triples``) can replace
it.  A verb is any token that lemmatizes into the verb inventory; its
arguments are the nearest noun-like tokens inside short windows, with a
passive-voice rule that swaps the roles and looks for a "by" phrase.
Sentences are split on sentence-final punctuation and windows never
cross a boundary.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from .errors import DataError
from .textprep import Token, TokenKind, bundled_stopwords

logger = logging.getLogger(__name__)

PRONOUN_CANDIDATES = frozenset(
    ("i", "me", "he", "she", "they", "him", "her", "them", "we", "us", "you")
)
PASSIVE_AUXILIARIES = frozenset(("was", "were", "been", "being", "got"))
SENTENCE_FINAL = frozenset((".", "!", "?", "…"))

AGENT_WINDOW = 5
AFFECTED_WINDOW = 5
AUX_WINDOW = 3


@dataclass(frozen=True)
class TokenSpan:
    """A single-token argument span; index refers to the source token
    list (None for triples imported from a file)."""

    text: str
    index: int | None = None


@dataclass(frozen=True)
class EventTriple:
    verb_lemma: str
    agent: TokenSpan | None
    affected: TokenSpan | None
    passive: bool
    source_post: str = ""


class VerbInventory:
    """Verb lemmas plus a surface-form -> lemma inflection map."""

    def __init__(self, lemmas: Iterable[str], inflections: dict[str, str] | None = None):
        self.lemmas = frozenset(lemmas)
        if not self.lemmas:
            raise DataError("verb inventory is empty")
        table = {lemma: lemma for lemma in self.lemmas}
        for surface, lemma in (inflections or {}).items():
            if lemma not in self.lemmas:
                raise DataError(f"inflection {surface!r} maps to unknown lemma {lemma!r}")
            table.setdefault(surface, lemma)
        self.inflections = table

    def __contains__(self, lemma: str) -> bool:
        return lemma in self.lemmas


def load_inventory(source: str | Path | TextIO) -> VerbInventory:
    """Read a tab-delimited inventory: lemma TAB comma-joined inflections."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_inventory(handle)
    lemmas: list[str] = []
    inflections: dict[str, str] = {}
    for lineno, raw in enumerate(source.read().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        lemma = parts[0].strip().lower()
        if not lemma:
            raise DataError(f"inventory line {lineno}: empty lemma")
        lemmas.append(lemma)
        if len(parts) > 1 and parts[1].strip():
            for surface in parts[1].split(","):
                surface = surface.strip().lower()
                if not surface:
                    continue
                if surface in inflections and inflections[surface] != lemma:
                    logger.warning(
                        "inventory line %d: %r already maps to %r; keeping the first",
                        lineno, surface, inflections[surface],
                    )
                    continue
                inflections[surface] = lemma
    return VerbInventory(lemmas, inflections)


def bundled_inventory() -> VerbInventory:
    text = resources.files("postmine.data").joinpath("verbs.tsv").read_text("utf-8")
    import io
    return load_inventory(io.StringIO(text))


def lemmatize(surface: str, inventory: VerbInventory) -> str | None:
    """Map a surface form to an inventory lemma, or None.

    Exact inflection-map hits win; otherwise suffix rules for -ed, -ing,
    -es, -s with consonant-undoubling and silent-e restoration, accepted
    only when the candidate is an inventory lemma.
    """
    hit = inventory.inflections.get(surface)
    if hit is not None:
        return hit
    for candidate in _suffix_candidates(surface):
        if candidate in inventory.lemmas:
            return candidate
    return None


def _suffix_candidates(surface: str) -> list[str]:
    out: list[str] = []
    if surface.endswith("ies") and len(surface) > 3:
        out.append(surface[:-3] + "y")
    if surface.endswith("ing") and len(surface) > 3:
        stem = surface[:-3]
        out.extend((stem, stem + "e"))
        if len(stem) >= 2 and stem[-1] == stem[-2]:
            out.append(stem[:-1])
    if surface.endswith("ied") and len(surface) > 3:
        out.append(surface[:-3] + "y")
    if surface.endswith("ed") and len(surface) > 2:
        stem = surface[:-2]
        out.extend((surface[:-1], stem, stem + "e"))
        if len(stem) >= 2 and stem[-1] == stem[-2]:
            out.append(stem[:-1])
    if surface.endswith("es") and len(surface) > 2:
        out.extend((surface[:-1], surface[:-2]))
    if surface.endswith("s") and len(surface) > 1:
        out.append(surface[:-1])
    return out


def _is_candidate(
    token: Token,
    stopwords: frozenset[str],
    inventory: VerbInventory,
) -> bool:
    if token.kind not in (TokenKind.WORD, TokenKind.HASHTAG_SEGMENTED):
        return False
    surface = token.surface
    if surface in PRONOUN_CANDIDATES:
        return True
    if surface in stopwords:
        return False
    return lemmatize(surface, inventory) is None


def split_sentences(tokens: Sequence[Token]) -> list[list[int]]:
    """Index lists per sentence, split on sentence-final punctuation."""
    sentences: list[list[int]] = []
    current: list[int] = []
    for i, token in enumerate(tokens):
        if token.kind is TokenKind.PUNCT and (
            token.surface in SENTENCE_FINAL or set(token.surface) == {"."}
        ):
            if current:
                sentences.append(current)
                current = []
        else:
            current.append(i)
    if current:
        sentences.append(current)
    return sentences


def extract_triples(
    tokens: Sequence[Token],
    inventory: VerbInventory,
    stopwords: frozenset[str] | None = None,
    source_post: str = "",
) -> list[EventTriple]:
    """Emit one triple per inventory verb in the token sequence.

    Active voice: agent is the nearest preceding noun-like token within
    the window, affected the nearest following one.  Passive voice (a
    passive auxiliary shortly before the verb): the preceding candidate
    becomes the affected and the agent, if any, is the object of a
    following "by".  Missing arguments stay None; the triple is still
    emitted.
    """
    if stopwords is None:
        stopwords = bundled_stopwords()
    triples: list[EventTriple] = []
    for sentence in split_sentences(tokens):
        candidate_flags = [
            _is_candidate(tokens[i], stopwords, inventory) for i in sentence
        ]
        for pos, tok_index in enumerate(sentence):
            token = tokens[tok_index]
            if token.kind is not TokenKind.WORD:
                continue
            lemma = lemmatize(token.surface, inventory)
            if lemma is None or token.surface in PASSIVE_AUXILIARIES:
                continue
            passive = any(
                tokens[sentence[p]].surface in PASSIVE_AUXILIARIES
                for p in range(max(0, pos - AUX_WINDOW), pos)
            )
            before = _nearest_candidate(
                tokens, sentence, candidate_flags,
                range(pos - 1, max(0, pos - AGENT_WINDOW) - 1, -1),
            )
            if passive:
                affected = before
                agent = _by_object(tokens, sentence, candidate_flags, pos)
            else:
                agent = before
                affected = _nearest_candidate(
                    tokens, sentence, candidate_flags,
                    range(pos + 1, min(len(sentence), pos + AFFECTED_WINDOW + 1)),
                )
            triples.append(EventTriple(
                verb_lemma=lemma,
                agent=agent,
                affected=affected,
                passive=passive,
                source_post=source_post,
            ))
    return triples


def _nearest_candidate(
    tokens: Sequence[Token],
    sentence: list[int],
    flags: list[bool],
    positions: range,
) -> TokenSpan | None:
    for p in positions:
        if 0 <= p < len(sentence) and flags[p]:
            idx = sentence[p]
            return TokenSpan(tokens[idx].surface, idx)
    return None


def _by_object(
    tokens: Sequence[Token],
    sentence: list[int],
    flags: list[bool],
    verb_pos: int,
) -> TokenSpan | None:
    for p in range(verb_pos + 1, min(len(sentence), verb_pos + AFFECTED_WINDOW + 1)):
        if tokens[sentence[p]].surface == "by":
            return _nearest_candidate(
                tokens, sentence, flags,
                range(p + 1, min(len(sentence), p + AFFECTED_WINDOW + 1)),
            )
    return None


TRIPLE_HEADER = ("post_id", "verb_lemma", "passive", "agent", "affected")


def write_triples(triples: Iterable[EventTriple], path: str | Path) -> None:
    """Tab-delimited triple export; empty cell means a missing argument."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
        writer.writerow(TRIPLE_HEADER)
        for t in triples:
            writer.writerow((
                t.source_post,
                t.verb_lemma,
                "1" if t.passive else "0",
                t.agent.text if t.agent else "",
                t.affected.text if t.affected else "",
            ))


def read_triples(source: str | Path | TextIO) -> list[EventTriple]:
    """Import externally produced triples (the pluggable-extractor path)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return read_triples(handle)
    reader = csv.reader(source, delimiter="\t")
    rows = list(reader)
    if not rows or tuple(rows[0]) != TRIPLE_HEADER:
        raise DataError("triple file: missing or bad header")
    triples = []
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != len(TRIPLE_HEADER):
            raise DataError(f"triple file row {rownum}: expected {len(TRIPLE_HEADER)} columns")
        post_id, lemma, passive, agent, affected = row
        if not lemma:
            raise DataError(f"triple file row {rownum}: empty verb_lemma")
        triples.append(EventTriple(
            verb_lemma=lemma,
            agent=TokenSpan(agent) if agent else None,
            affected=TokenSpan(affected) if affected else None,
            passive=passive == "1",
            source_post=post_id,
        ))
    return triples
