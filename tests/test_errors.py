from __future__ import annotations

import codecs
import json
import random
import re

import numpy as np
import pytest

from postmine import cli, connotation, corpus, events, textprep
from postmine.errors import DataError

# input name -> (valid start of its file, a file that the loader rejects
# or None, call of the loader on a path, given a function that writes a
# valid companion file); a word list has no line that its loader rejects
LOADERS = {
    "institutions": (
        b"institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"
        b"u1,5000,0.9,private,west,12\n",
        b"institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"
        b"u1,5000,0.9,private,west,12\nu2,5000,0.9,private,nowhere,3\n",
        lambda path, write: corpus.ingest_institutions(path)),
    "institutions, short row": (
        b"institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"
        b"u1,5000,0.9,private,west,12\n",
        b"institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"
        b"u1,5000,0.9,private,west,12\nu2,5000\n",
        lambda path, write: corpus.ingest_institutions(path)),
    "labels": (
        b"post_id,harassment_type,participant\np1,physical,peer\n",
        b"post_id,harassment_type,participant\np1,physical,peer\np1,verbal,peer\n",
        lambda path, write: corpus.ingest_labels(path)),
    "labels, short row": (
        b"post_id,harassment_type,participant\np1,physical,peer\n",
        b"post_id,harassment_type,participant\np1,physical,peer\np2\n",
        lambda path, write: corpus.ingest_labels(path)),
    "lexicon": (
        b"harass\t-0.8\t-0.7\t-0.9\t-0.6\t0.5\n",
        b"harass\t-0.8\t-0.7\t-0.9\t-0.6\t0.5\nharm\t2\t0\t0\t0\t0\n",
        lambda path, write: connotation.load_lexicon(path)),
    "embeddings": (
        b"a 1 0\nb 0 1\n",
        b"a 1 0\nb 0 1\nc 1\n",
        lambda path, write: connotation.load_embeddings(path)),
    "inventory": (
        b"harass\tharassed\n",
        b"# no lemma\n",
        lambda path, write: events.load_inventory(path)),
    "triples": (
        b"post_id\tverb_lemma\tpassive\tagent\taffected\np1\tharass\t0\the\tme\n",
        b"post_id\tverb_lemma\tpassive\tagent\taffected\np1\tharass\tyes\the\tme\n",
        lambda path, write: events.read_triples(path)),
    "abbreviations": (
        b"u\tyou\n",
        b"u\tyou\nu\tyou\n",
        lambda path, write: textprep.load_correction_dictionary(path, write("you\n"))),
    "wordlist": (
        b"you\n",
        None,
        lambda path, write: textprep.load_correction_dictionary(write("u\tyou\n"), path)),
    "censored": (
        b"s**t\n",
        None,
        lambda path, write: textprep.load_correction_dictionary(
            write("u\tyou\n"), write("you\n"), path)),
    "language model": (
        b"UNIGRAM\nme\t10\n",
        b"UNIGRAM\nme\t10\ntoo\t0\n",
        lambda path, write: textprep.load_language_model(path)),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_names_the_file_that_is_not_utf8(name, input_file):
    valid, _, load = LOADERS[name]
    load(input_file(valid), input_file)
    path = input_file(valid + b"\xff\n")
    with pytest.raises(DataError) as caught:
        load(path, input_file)
    assert str(caught.value) == f"{path} is not valid UTF-8: invalid start byte"


@pytest.mark.parametrize("name", sorted(name for name, (_, bad, _) in LOADERS.items()
                                        if bad is not None))
def test_loader_puts_the_file_in_front_of_its_message(name, input_file):
    _, bad, load = LOADERS[name]
    path = input_file(bad)
    with pytest.raises(DataError) as caught:
        load(path, input_file)
    message = str(caught.value)
    assert message.startswith(f"{path}: ")
    assert str(path) not in message[len(f"{path}: "):]


@pytest.mark.parametrize("name, missing", [
    ("institutions, short row", "mf_ratio, sector, region, reported_cases"),
    ("labels, short row", "harassment_type, participant")])
def test_short_csv_row_names_its_missing_cells(name, missing, input_file):
    _, bad, load = LOADERS[name]
    path = input_file(bad)
    with pytest.raises(DataError) as caught:
        load(path, input_file)
    assert str(caught.value) == f"{path}: row 3: missing cell(s): {missing}"


# a file that its LOADERS entry's loader rejects -> (the entry, the
# message after the path); a blank row, a line-based field holding a
# character at which ``str.splitlines`` would end a line, or a row or
# line with too many cells or fields comes before the bad line or is it,
# so the message must number lines and rows as the file does
NUMBERED = {
    "lexicon, U+2028 in a lemma": (
        "lexicon",
        "harass\t-0.8\t-0.7\t-0.9\t-0.6\t0.5\nha\u2028rm\t0\t0\t0\t0\t0\n"
        "harm\t2\t0\t0\t0\t0\n".encode(),
        "line 3: sentiment_verb=2.0 outside [-1, 1]"),
    "embeddings, U+0085 after a word": (
        "embeddings", "a 1 0\nb\x85 0 1\nc 1\n".encode(), "line 3: dimension 1 != 2"),
    "abbreviations, U+2028 in a key": (
        "abbreviations", "u\tyou\nl\u2028ol\tyou\nu\tyou\n".encode(),
        "line 3: duplicate key 'u'"),
    "inventory, third field": (
        "inventory", b"harass\tharassed\toops\n",
        "line 1: expected 'lemma<TAB>inflections'"),
    "institutions, long row": (
        "institutions",
        b"institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"
        b"u1,5000,0.9,private,west,12\nu2,5000,0.9,private,west,3,4\n",
        "row 3: more cells than columns"),
    "institutions, blank row": (
        "institutions",
        b"institution_id,enrollment,mf_ratio,sector,region,reported_cases\n"
        b"u1,5000,0.9,private,west,12\n\nu2,5000,0.9,private,nowhere,3\n",
        "row 4: unknown region 'nowhere'"),
    "labels, long row": (
        "labels", b"post_id,harassment_type,participant\np1,physical,peer,faculty\n",
        "row 2: more cells than columns"),
    "labels, blank row": (
        "labels",
        b"post_id,harassment_type,participant\np1,physical,peer\n\np1,verbal,peer\n",
        "row 4: duplicate label for post_id 'p1'"),
    "triples, long row": (
        "triples",
        b"post_id\tverb_lemma\tpassive\tagent\taffected\np1\tharass\t0\the\tme\tyou\n",
        "row 2: more cells than columns"),
    "triples, blank row": (
        "triples",
        b"post_id\tverb_lemma\tpassive\tagent\taffected\np1\tharass\t0\the\tme\n"
        b"\np2\tharass\tyes\the\tme\n",
        "row 4: passive must be 0 or 1, got 'yes'"),
}


@pytest.mark.parametrize("name", sorted(NUMBERED))
def test_message_numbers_lines_and_rows_as_the_file_does(name, input_file):
    entry, bad, message = NUMBERED[name]
    path = input_file(bad)
    with pytest.raises(DataError) as caught:
        LOADERS[entry][2](path, input_file)
    assert str(caught.value) == f"{path}: {message}"


# a LOADERS entry (the name before any comma) -> (a file with a line that
# starts with a tab, the message after the path): that line's first field
# is empty, which the loader rejects as it rejects any malformed line,
# though the rest of the line would make a valid line
EMPTY_FIRST_FIELD = {
    "lexicon": (b"harass\t-0.8\t-0.7\t-0.9\t-0.6\t0.5\n\tharm\t0\t0\t0\t0\t0\n",
                "line 2: expected lemma + 5 scores"),
    "language model, unigram": (b"UNIGRAM\nme\t10\n\ttoo\t5\n",
                                "line 3: expected 'word<TAB>count'"),
    "language model, bigram": (b"UNIGRAM\nme\t10\ntoo\t5\nBIGRAM\n\tme\ttoo\t2\n",
                               "line 5: expected 'word1<TAB>word2<TAB>count'"),
    "abbreviations": (b"\tu\tyou\n", "line 1: expected 'key<TAB>expansion'"),
    "inventory": (b"harass\tharassed\n\tgrabbed\n",
                  "line 2: expected 'lemma<TAB>inflections'"),
}


@pytest.mark.parametrize("name", sorted(EMPTY_FIRST_FIELD))
def test_line_starting_with_a_tab_has_an_empty_first_field(name, input_file):
    bad, message = EMPTY_FIRST_FIELD[name]
    path = input_file(bad)
    with pytest.raises(DataError) as caught:
        LOADERS[name.split(",")[0]][2](path, input_file)
    assert str(caught.value) == f"{path}: {message}"


# the inputs that are not read through ``read_utf8``, in the form of LOADERS
OTHER_INPUTS = {
    "posts": (
        b'{"post_id": "p1", "user_id": "u1", "institution_id": "c1", '
        b'"timestamp": 1, "text": "me too"}\n',
        None,
        lambda path, write: corpus.ingest_posts(path)),
    # every input path names this file, which exists
    "config": (
        json.dumps({
            **dict.fromkeys(("posts", "institutions", "labels", "lexicon", "embeddings",
                             "language_model", "abbreviations", "wordlist"), __file__),
            "topics": {"k_candidates": [2, 3]}, "propagation": {"min_similarity": 1},
            "seed": 1, "out_dir": "out"}).encode(),
        None,
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
    valid, _, load = {**LOADERS, **OTHER_INPUTS}[name]
    expected = plain(load(input_file(valid), input_file))
    assert plain(load(input_file(codecs.BOM_UTF8 + valid), input_file)) == expected


# a file that must load as its LOADERS entry's valid file does -> the
# entry: every line-based input with a comment and a blank line in
# front, and with ASCII spaces before and spaces and a tab after each
# line (each loader trims its own fields), and triples with the columns
# reordered, an extra column and a blank row
_LINE_BASED = ("abbreviations", "censored", "embeddings", "inventory", "language model",
               "lexicon", "wordlist")
EQUIVALENT = {
    **{f"{name}, commented": (name, b"# comment\n\n" + LOADERS[name][0])
       for name in _LINE_BASED},
    **{f"{name}, padded": (name, b"".join(b"  " + line + b" \t\n"
                                          for line in LOADERS[name][0].splitlines()))
       for name in _LINE_BASED},
    "triples, columns reordered": (
        "triples", b"affected\tnote\tpassive\tagent\tpost_id\tverb_lemma\n"
                   b"\nme\tx\t0\the\tp1\tharass\n"),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENT))
def test_equivalent_file_loads_the_same(name, input_file):
    entry, variant = EQUIVALENT[name]
    valid, _, load = LOADERS[entry]
    expected = plain(load(input_file(valid), input_file))
    assert plain(load(input_file(variant), input_file)) == expected


# A seeded one-line mutation of one input file of the demo bundle per
# case: bundle i mutates ``_MUTATED[i % 9]`` by ``_MUTATIONS[(i + i // 9)
# % 9]``, so over 36 bundles every file meets four mutations and every
# mutation four files, and ``random.Random(i)`` picks where.  The seeds
# are fixed so that a failure reproduces.
_MUTATED = ("posts", "labels", "lexicon", "embeddings", "abbreviations",
            "institutions", "language_model", "wordlist", "censored")
_NUMBER = re.compile(rb"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?![\w.])")
_INTEGER = re.compile(rb"(?<![\w.])-?\d+(?![\w.])")


def _truncate(rng, data):
    return data[:rng.randrange(len(data))]


def _on_a_line(change):
    """A mutation that changes one line, picked by ``rng``."""
    def mutate(rng, data):
        lines = data.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        lines[i:i + 1] = change(rng, lines[i])
        return b"".join(lines)
    return mutate


def _replace_byte(rng, data):
    at = rng.randrange(len(data))
    return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]


def _number_to(pattern, *tokens):
    """A mutation that replaces one number that ``pattern`` matches (one
    line when the file has none) by one of ``tokens``."""
    def mutate(rng, data):
        found = list(pattern.finditer(data))
        if not found:
            return _on_a_line(lambda rng, line: [rng.choice(tokens) + b"\n"])(rng, data)
        number = rng.choice(found)
        return data[:number.start()] + rng.choice(tokens) + data[number.end():]
    return mutate


_MUTATIONS = (
    _truncate,
    _on_a_line(lambda rng, line: [line, line]),
    _on_a_line(lambda rng, line: []),
    _on_a_line(lambda rng, line: [b"\n"]),
    _replace_byte,
    _number_to(_NUMBER, b"nan", b"inf", b"1e400"),
    _number_to(_INTEGER, b"9" * 401),
    _on_a_line(lambda rng, line: [codecs.BOM_UTF8 + line]),
    _on_a_line(lambda rng, line: [rng.choice((b"[]", b"{}", b"null")) + b"\n"]),
)

# the errors that are about more than one file, or about a stage's
# results rather than one input
_CROSS_FILE_ERRORS = ("no label resolves to a corpus post", "rank deficient",
                      "need more rows than features", "exceeds vocabulary size",
                      "no term satisfies min_df")


@pytest.mark.parametrize("seed", range(36))
def test_bad_input_ends_in_one_line_that_names_its_file(seed, demo_bundle, tmp_path, capsys):
    rng = random.Random(seed)
    key = _MUTATED[seed % 9]
    mutate = _MUTATIONS[(seed + seed // 9) % 9]
    mutated = tmp_path / demo_bundle[key].name
    mutated.write_bytes(mutate(rng, demo_bundle[key].read_bytes()))
    settings = json.loads(demo_bundle["config"].read_text("utf-8"))
    settings.update({key: str(mutated), "out_dir": str(tmp_path / "out")})
    settings["topics"].update(iters=2, k_candidates=[2])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings), "utf-8")
    named = [str(path) for name, path in settings.items() if name in _MUTATED]
    named.append(settings["out_dir"])
    for stage in ("ingest", "topics", "events", "sentiment", "regress", "report"):
        code = cli.main(["--config", str(config), stage])
        last = (capsys.readouterr().err.splitlines() or [""])[-1]
        assert code in (0, 1, 2)
        if code:
            assert (any(path in last for path in named)
                    or any(error in last for error in _CROSS_FILE_ERRORS)), (stage, last)
