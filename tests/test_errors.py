from __future__ import annotations

import codecs
import json

import numpy as np
import pytest

from postmine import cli, connotation, corpus, events, textprep
from postmine.errors import DataError

# loader name -> (valid start of its file, call of the loader on a path,
# given a function that writes a valid companion file)
LOADERS = {
    "institutions": (
        b"institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"
        b"u1,5000,0.9,private,west,12\n",
        lambda path, write: corpus.ingest_institutions(path)),
    "labels": (
        b"post_id,harassment_type,participant\np1,physical,peer\n",
        lambda path, write: corpus.ingest_labels(path)),
    "lexicon": (
        b"harass\t-0.8\t-0.7\t-0.9\t-0.6\t0.5\n",
        lambda path, write: connotation.load_lexicon(path)),
    "embeddings": (
        b"a 1 0\nb 0 1\n",
        lambda path, write: connotation.load_embeddings(path)),
    "inventory": (
        b"harass\tharassed\n",
        lambda path, write: events.load_inventory(path)),
    "triples": (
        b"post_id\tverb_lemma\tpassive\tagent\taffected\np1\tharass\t0\the\tme\n",
        lambda path, write: events.read_triples(path)),
    "abbreviations": (
        b"u\tyou\n",
        lambda path, write: textprep.load_correction_dictionary(path, write("you\n"))),
    "wordlist": (
        b"you\n",
        lambda path, write: textprep.load_correction_dictionary(write("u\tyou\n"), path)),
    "censored": (
        b"s**t\n",
        lambda path, write: textprep.load_correction_dictionary(
            write("u\tyou\n"), write("you\n"), path)),
    "language model": (
        b"UNIGRAM\nme\t10\n",
        lambda path, write: textprep.load_language_model(path)),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_names_the_file_that_is_not_utf8(name, input_file):
    valid, load = LOADERS[name]
    load(input_file(valid), input_file)
    path = input_file(valid + b"\xff\n")
    with pytest.raises(DataError) as caught:
        load(path, input_file)
    assert str(caught.value) == f"{path} is not valid UTF-8: invalid start byte"


# the inputs that are not read through ``read_utf8``, in the form of LOADERS
OTHER_INPUTS = {
    "posts": (
        b'{"post_id": "p1", "user_id": "u1", "institution_id": "c1", '
        b'"timestamp": 1, "text": "me too"}\n',
        lambda path, write: corpus.ingest_posts(path)),
    # every input path names this file, which exists
    "config": (
        json.dumps({
            **dict.fromkeys(("posts", "institutions", "labels", "lexicon", "embeddings",
                             "language_model", "abbreviations", "wordlist"), __file__),
            "topics": {"k_candidates": [2, 3]}, "propagation": {"min_similarity": 1},
            "seed": 1, "out_dir": "out"}).encode(),
        lambda path, write: cli.load_config(path)),
}

_LOADED_OBJECTS = (connotation.EmbeddingStore, events.VerbInventory,
                   textprep.CorrectionDictionary, textprep.LanguageModel)


def plain(value):
    """``value`` with each loaded object replaced by its attributes and
    each array by a list, so that two loads compare with ``==``."""
    if isinstance(value, _LOADED_OBJECTS):
        value = vars(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


@pytest.mark.parametrize("name", sorted({**LOADERS, **OTHER_INPUTS}))
def test_leading_byte_order_mark_is_ignored(name, input_file):
    valid, load = {**LOADERS, **OTHER_INPUTS}[name]
    expected = plain(load(input_file(valid), input_file))
    assert plain(load(input_file(codecs.BOM_UTF8 + valid), input_file)) == expected
