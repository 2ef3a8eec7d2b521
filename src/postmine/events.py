"""Rule-based extraction of verb / agent / affected triples.

A deliberately small stand-in for a full semantic parser, behind a
stable record interface: any component that produces the same triple
stream (including the file import path in ``read_triples``) can replace
it.  A verb is any token that lemmatizes into the verb inventory; its
arguments are the nearest noun-like tokens inside short windows, with a
passive-voice rule that swaps the roles and looks for a "by" phrase.
Sentences are split on sentence-final punctuation, and each window is
a slice of one sentence's tokens, so none crosses a boundary.

A triple's agent and affected are token surfaces, or None; an argument
candidate is a token of one of ``textprep.CONTENT_KINDS`` that is a
pronoun, or that is neither in ``textprep``'s stopword list nor a verb.
Only ``extract_triples`` imports ``textprep``, once per call, so
importing this module to read triple files does not load it.  The
loaders take a path; ``load_inventory`` alone checks the inventory file
and builds its lemma table, and returns its warnings with the
inventory, which the CLI reports.  ``write_triples`` writes through
``errors.write_table``, whose quoting keeps a post id holding a tab whole.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import DataError, data_lines, read_utf8, table_rows, write_table

if TYPE_CHECKING:
    from .textprep import Token, TokenKind

PRONOUN_CANDIDATES = frozenset(
    ("i", "me", "he", "she", "they", "him", "her", "them", "we", "us", "you")
)
PASSIVE_AUXILIARIES = frozenset(("was", "were", "been", "being", "got"))
SENTENCE_FINAL = frozenset((".", "!", "?", "…"))

AGENT_WINDOW = 5
AFFECTED_WINDOW = 5
AUX_WINDOW = 3


class EventTriple(NamedTuple):
    verb_lemma: str
    agent: str | None
    affected: str | None
    passive: bool
    source_post: str = ""


class VerbInventory(NamedTuple):
    """Verb lemmas, the surface-form -> lemma table (every lemma maps to
    itself) and the memo of ``lemmatize``, as ``load_inventory`` builds
    them."""

    lemmas: frozenset[str]
    inflections: dict[str, str]
    lemmatized: dict[str, str | None]   # surface -> lemma or None


def load_inventory(path: str | Path) -> tuple[VerbInventory, list[str]]:
    """Read a tab-delimited inventory: lemma TAB comma-joined inflections.
    A lemma holding a comma (a line whose lemma is missing) and a file
    with no lemma are fatal.  In the returned table every lemma maps to
    itself, also where a line lists it as another lemma's inflection.

    Returns the inventory and its warnings, each naming the file: one per
    inflection that a later line maps to a second lemma (the first
    mapping is kept), then one per inflection that is also declared as a
    lemma, in either line order (the lemma is kept)."""
    lemmas: set[str] = set()
    inflections: dict[str, str] = {}
    warnings: list[str] = []
    with read_utf8(path) as handle:
        for lineno, line in data_lines(handle):
            parts = line.split("\t")
            lemma = parts[0].strip().lower()
            if len(parts) > 2 or not lemma or "," in lemma:
                raise DataError(f"line {lineno}: expected 'lemma<TAB>inflections'")
            lemmas.add(lemma)
            if len(parts) > 1 and parts[1].strip():
                for surface in parts[1].split(","):
                    surface = surface.strip().lower()
                    if not surface:
                        continue
                    if surface in inflections and inflections[surface] != lemma:
                        warnings.append(f"{path}: line {lineno}: {surface!r} already maps "
                                        f"to {inflections[surface]!r}; keeping the first")
                        continue
                    inflections[surface] = lemma
        if not lemmas:
            raise DataError("verb inventory is empty")
        warnings.extend(f"{path}: {surface!r} is a lemma and also an inflection of "
                        f"{lemma!r}; keeping the lemma"
                        for surface, lemma in inflections.items()
                        if surface in lemmas and surface != lemma)
    table = {lemma: lemma for lemma in lemmas}
    for surface, lemma in inflections.items():
        table.setdefault(surface, lemma)
    return VerbInventory(frozenset(lemmas), table, {}), warnings


def bundled_inventory() -> VerbInventory:
    with resources.as_file(resources.files("postmine.data") / "verbs.tsv") as path:
        return load_inventory(path)[0]


def lemmatize(surface: str, inventory: VerbInventory) -> str | None:
    """Map a surface form to an inventory lemma, or None.

    Exact inflection-map hits win; otherwise suffix rules for -ed, -ing,
    -es, -s with consonant-undoubling and silent-e restoration, accepted
    only when the candidate is an inventory lemma.  Memoised per surface
    on ``inventory``.
    """
    memo = inventory.lemmatized
    if surface in memo:
        return memo[surface]
    lemma = inventory.inflections.get(surface)
    if lemma is None:
        lemma = next(
            (c for c in _suffix_candidates(surface) if c in inventory.lemmas), None)
    memo[surface] = lemma
    return lemma


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


def _sentences(tokens: Sequence[Token], punct: TokenKind) -> list[list[Token]]:
    """The tokens of each sentence, split on sentence-final punctuation."""
    sentences: list[list[Token]] = []
    current: list[Token] = []
    for token in tokens:
        # surfaces are never empty, so one of dots only strips to ""
        if token.kind is punct and (
            token.surface in SENTENCE_FINAL or not token.surface.strip(".")
        ):
            if current:
                sentences.append(current)
                current = []
        else:
            current.append(token)
    if current:
        sentences.append(current)
    return sentences


def extract_triples(
    tokens: Sequence[Token],
    inventory: VerbInventory,
    source_post: str = "",
) -> list[EventTriple]:
    """Emit one triple per inventory verb in the token sequence.

    Active voice: agent is the nearest preceding noun-like token within
    the window, affected the nearest following one.  Passive voice (a
    passive auxiliary shortly before the verb): the preceding candidate
    becomes the affected and the agent, if any, is the object of a
    following "by".  Missing arguments stay None; the triple is still
    emitted.  A token is tested for being noun-like only when a verb's
    window reaches it.
    """
    from .textprep import CONTENT_KINDS, TokenKind, bundled_stopwords

    stopwords = bundled_stopwords()
    word = TokenKind.WORD

    def nearest(window: Iterable[Token]) -> str | None:
        """The surface of the first noun-like token of ``window``."""
        for token in window:
            surface = token.surface
            if token.kind in CONTENT_KINDS and (
                    surface in PRONOUN_CANDIDATES
                    or surface not in stopwords and lemmatize(surface, inventory) is None):
                return surface
        return None

    triples: list[EventTriple] = []
    for sentence in _sentences(tokens, TokenKind.PUNCT):
        for pos, token in enumerate(sentence):
            if token.kind is not word:
                continue
            lemma = lemmatize(token.surface, inventory)
            if lemma is None or token.surface in PASSIVE_AUXILIARIES:
                continue
            passive = any(t.surface in PASSIVE_AUXILIARIES
                          for t in sentence[max(0, pos - AUX_WINDOW):pos])
            before = nearest(reversed(sentence[max(0, pos - AGENT_WINDOW):pos]))
            after = sentence[pos + 1:pos + AFFECTED_WINDOW + 1]
            if passive:
                affected, agent = before, None
                for by, t in enumerate(after, pos + 1):
                    if t.surface == "by":
                        agent = nearest(sentence[by + 1:by + AFFECTED_WINDOW + 1])
                        break
            else:
                agent = before
                affected = nearest(after)
            triples.append(EventTriple(
                verb_lemma=lemma,
                agent=agent,
                affected=affected,
                passive=passive,
                source_post=source_post,
            ))
    return triples


TRIPLE_HEADER = ("post_id", "verb_lemma", "passive", "agent", "affected")


def write_triples(triples: Iterable[EventTriple], path: str | Path) -> None:
    """Tab-delimited triple export; empty cell means a missing argument.
    ``path`` is replaced atomically."""
    write_table(path, TRIPLE_HEADER, (
        (t.source_post, t.verb_lemma, "1" if t.passive else "0", t.agent or "", t.affected or "")
        for t in triples), delimiter="\t")


def read_triples(path: str | Path) -> list[EventTriple]:
    """Import externally produced triples (the pluggable-extractor path)."""
    with read_utf8(path, newline="") as handle:
        triples = []
        for rownum, (post_id, lemma, passive, agent, affected) in table_rows(
                handle, TRIPLE_HEADER, "triple file", delimiter="\t"):
            if not lemma:
                raise DataError(f"row {rownum}: empty verb_lemma")
            if passive not in ("0", "1"):
                raise DataError(f"row {rownum}: passive must be 0 or 1, got {passive!r}")
            triples.append(EventTriple(lemma, agent or None, affected or None,
                                       passive == "1", post_id))
    return triples
