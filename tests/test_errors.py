from __future__ import annotations

import pytest

from postmine import connotation, corpus, events, textprep
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
