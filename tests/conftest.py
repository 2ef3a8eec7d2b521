from __future__ import annotations

import csv
import itertools
from pathlib import Path

import pytest

from postmine.demo import write_demo_bundle
from postmine.textprep import LanguageModel

FIXTURES = Path(__file__).parent / "fixtures"

# Fixed 50-word toy language model shared by the segmentation tests.
TOY_UNIGRAMS = {
    "the": 5000, "a": 4200, "to": 3800, "me": 2600, "too": 2100,
    "story": 1900, "hello": 1700, "world": 1650, "news": 1500, "paper": 1400,
    "campus": 1300, "camp": 1250, "us": 1200, "at": 1150, "an": 1100,
    "as": 1050, "cat": 1000, "cats": 950, "dog": 900, "dogs": 850,
    "hat": 800, "this": 780, "that": 760, "time": 740, "over": 720,
    "new": 700, "no": 680, "now": 660, "not": 640, "note": 620,
    "on": 600, "one": 580, "once": 560, "up": 540, "use": 520,
    "used": 500, "user": 480, "for": 460, "form": 440, "or": 420,
    "war": 400, "know": 380, "so": 360, "son": 340, "song": 320,
    "all": 300, "ball": 280, "tall": 260, "art": 240, "start": 220,
}

TOY_BIGRAMS = {
    ("me", "too"): 900, ("hello", "world"): 500, ("the", "cat"): 450,
    ("news", "paper"): 400, ("camp", "us"): 30, ("this", "that"): 120,
    ("know", "no"): 15, ("one", "song"): 45, ("start", "up"): 200,
    ("the", "story"): 350,
}


@pytest.fixture(scope="session")
def toy_lm() -> LanguageModel:
    return LanguageModel.from_counts(TOY_UNIGRAMS, TOY_BIGRAMS)


@pytest.fixture(scope="session")
def demo_bundle(tmp_path_factory) -> dict[str, Path]:
    return write_demo_bundle(tmp_path_factory.mktemp("demo_bundle"), seed=42)


@pytest.fixture
def input_file(tmp_path):
    """A function that writes its argument to a new file under
    ``tmp_path`` (text as UTF-8, bytes as they are) and returns the path,
    for the loaders, which take a path."""
    names = itertools.count()

    def write(content: str | bytes) -> Path:
        path = tmp_path / f"input{next(names)}"
        path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
        return path

    return write


def load_event_gold() -> list[dict]:
    """The 50-sentence fixture: one entry per sentence with its gold
    triples as (verb, agent, affected, passive) tuples."""
    sentences: dict[str, dict] = {}
    with open(FIXTURES / "event_gold.tsv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh, delimiter="\t"):
            entry = sentences.setdefault(
                row["id"], {"id": row["id"], "text": row["text"], "gold": []})
            if row["verb"]:
                entry["gold"].append((
                    row["verb"],
                    row["agent"] or None,
                    row["affected"] or None,
                    row["passive"] == "1",
                ))
    return list(sentences.values())
