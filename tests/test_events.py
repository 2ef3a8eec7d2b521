from __future__ import annotations

import pytest

from conftest import load_event_gold
from postmine.errors import DataError
from postmine.events import (
    EventTriple,
    VerbInventory,
    _sentences,
    _suffix_candidates,
    bundled_inventory,
    extract_triples,
    lemmatize,
    load_inventory,
    read_triples,
    write_triples,
)
from postmine.textprep import TokenKind, bundled_stopwords, tokenize


@pytest.fixture(scope="module")
def inventory():
    return bundled_inventory()


@pytest.fixture(scope="module")
def stopwords():
    return bundled_stopwords()


class TestLemmatize:
    def test_ed_with_doubling_check(self, inventory):
        assert lemmatize("harassed", inventory) == "harass"
        assert lemmatize("grabbed", inventory) == "grab"
        assert lemmatize("slapped", inventory) == "slap"

    def test_identity(self, inventory):
        assert lemmatize("harass", inventory) == "harass"

    def test_non_verb_is_none(self, inventory):
        assert lemmatize("table", inventory) is None

    def test_silent_e_restoration(self, inventory):
        assert lemmatize("chasing", inventory) == "chase"
        assert lemmatize("shoved", inventory) == "shove"

    def test_es_and_s(self, inventory):
        assert lemmatize("harasses", inventory) == "harass"
        assert lemmatize("follows", inventory) == "follow"

    def test_ies(self, inventory):
        assert lemmatize("bullies", inventory) == "bully"
        assert lemmatize("terrifies", inventory) == "terrify"

    def test_irregular_from_inflection_map(self, inventory):
        assert lemmatize("fought", inventory) == "fight"

    def test_result_always_in_inventory(self, inventory):
        for surface in ("harassed", "running", "tables", "xyzzy", "mocked"):
            lemma = lemmatize(surface, inventory)
            assert lemma is None or lemma in inventory.lemmas

    def test_memo_gives_the_rule_lemma(self):
        def rule_lemma(surface, inventory):
            # the inflection map, else the first suffix candidate that is a lemma
            hit = inventory.inflections.get(surface)
            return hit if hit is not None else next(
                (c for c in _suffix_candidates(surface) if c in inventory.lemmas), None)

        gold = load_event_gold()
        surfaces = sorted({t.surface for entry in gold for t in tokenize(entry["text"])})
        shared, second = bundled_inventory(), bundled_inventory()
        expected = {s: rule_lemma(s, shared) for s in surfaces}
        for order in (surfaces, surfaces[::-1]):
            assert {s: lemmatize(s, shared) for s in order} == expected
        assert {s: lemmatize(s, second) for s in surfaces} == expected
        assert shared.lemmatized == expected
        # both outcomes occur: verbs and non-verbs
        assert {None} < set(expected.values())


class TestExtractTriples:
    def extract(self, text, inventory, stopwords):
        return extract_triples(tokenize(text), inventory, stopwords=stopwords)

    def test_simple_active(self, inventory, stopwords):
        (triple,) = self.extract("he harassed me", inventory, stopwords)
        assert triple.verb_lemma == "harass"
        assert triple.agent == "he"
        assert triple.affected == "me"
        assert triple.passive is False

    def test_passive_with_by_agent(self, inventory, stopwords):
        (triple,) = self.extract("i was harassed by my boss", inventory, stopwords)
        assert triple.verb_lemma == "harass"
        assert triple.agent == "boss"
        assert triple.affected == "i"
        assert triple.passive is True

    def test_no_inventory_verb(self, inventory, stopwords):
        assert self.extract("the sky is blue", inventory, stopwords) == []

    def test_passive_without_agent(self, inventory, stopwords):
        (triple,) = self.extract("i was followed", inventory, stopwords)
        assert triple.passive is True
        assert triple.agent is None
        assert triple.affected == "i"

    def test_passive_never_uses_pre_verb_agent(self, inventory, stopwords):
        triples = self.extract("she was mocked because reasons", inventory, stopwords)
        (triple,) = triples
        assert triple.passive is True
        assert triple.agent is None
        assert triple.affected == "she"

    def test_sentence_boundary_blocks_arguments(self, inventory, stopwords):
        triples = self.extract("the boss left. harassed me", inventory, stopwords)
        (triple,) = triples
        assert triple.agent is None  # "boss" is in the previous sentence

    def test_multi_verb_one_triple_each(self, inventory, stopwords):
        triples = self.extract("he grabbed her and she slapped him",
                               inventory, stopwords)
        assert [t.verb_lemma for t in triples] == ["grab", "slap"]
        assert triples[0].agent == "he"
        assert triples[1].agent == "she"

    def test_window_limit(self, inventory, stopwords):
        # agent sits six tokens before the verb, outside the window
        text = "boss one two three four five harassed me"
        (triple,) = self.extract(text, inventory, stopwords)
        assert triple.agent is None

    def test_spans_never_point_at_verbs(self, inventory, stopwords):
        # Argument candidates exclude inventory verbs entirely, which
        # implies an argument can never be the verb token.
        for entry in load_event_gold():
            tokens = tokenize(entry["text"])
            for triple in extract_triples(tokens, inventory, stopwords=stopwords):
                for surface in (triple.agent, triple.affected):
                    if surface is not None:
                        assert (surface in {"i", "me", "he", "she", "they", "him",
                                            "her", "them", "we", "us", "you"}
                                or lemmatize(surface, inventory) is None)

    def test_deterministic(self, inventory, stopwords):
        tokens = tokenize("he grabbed her and she slapped him. i was followed.")
        first = extract_triples(tokens, inventory, stopwords=stopwords)
        second = extract_triples(tokens, inventory, stopwords=stopwords)
        assert first == second

    def test_emitted_lemmas_always_in_inventory(self, inventory, stopwords):
        for entry in load_event_gold():
            for triple in extract_triples(
                    tokenize(entry["text"]), inventory, stopwords=stopwords):
                assert triple.verb_lemma in inventory.lemmas


def test_split_sentences():
    tokens = tokenize("one two. three! four? five")
    groups = _sentences(tokens, TokenKind.PUNCT)
    assert len(groups) == 4
    assert [len(g) for g in groups] == [2, 1, 1, 1]


class TestInventoryIO:
    def test_load_inventory(self, input_file):
        inv, warnings = load_inventory(input_file("harass\tharasses,harassed\nhelp\n"))
        assert inv.lemmas == {"harass", "help"}
        assert inv.inflections["harassed"] == "harass"
        assert inv.inflections["help"] == "help"
        assert warnings == []

    def test_conflicting_inflection_warns_and_keeps_the_first(self, input_file):
        path = input_file("harass\tharassed,hit\nstrike\thit,struck\nbeat\thit\n")
        inv, warnings = load_inventory(path)
        assert inv.inflections["hit"] == "harass"
        assert inv.inflections["struck"] == "strike"
        assert warnings == [
            f"{path}: line 2: 'hit' already maps to 'harass'; keeping the first",
            f"{path}: line 3: 'hit' already maps to 'harass'; keeping the first",
        ]

    @pytest.mark.parametrize("text", [
        "harass\tharassed,hit\nhit\thits\n",
        "hit\thits\nharass\tharassed,hit\n",
    ])
    def test_inflection_declared_as_lemma_warns_and_keeps_the_lemma(self, input_file, text):
        path = input_file(text)
        inv, warnings = load_inventory(path)
        assert lemmatize("hit", inv) == "hit"
        assert inv.inflections["harassed"] == "harass"
        assert warnings == [
            f"{path}: 'hit' is a lemma and also an inflection of 'harass'; keeping the lemma"]

    @pytest.mark.parametrize("text", ["harass\tharassed\n\tgrabbed,grabs\n",
                                      "harass\tharassed\ngrab, grabs\tgrabbed\n"])
    def test_lemma_with_a_comma_fatal(self, input_file, text):
        path = input_file(text)
        with pytest.raises(DataError) as caught:
            load_inventory(path)
        assert str(caught.value) == f"{path}: line 2: expected 'lemma<TAB>inflections'"

    def test_lemma_listed_as_its_own_inflection_is_quiet(self, input_file):
        _, warnings = load_inventory(input_file("hit\thit,hits\n"))
        assert warnings == []

    def test_empty_inventory_fatal(self):
        with pytest.raises(DataError):
            VerbInventory([])

    def test_inflection_to_unknown_lemma_fatal(self):
        with pytest.raises(DataError):
            VerbInventory(["harass"], {"ran": "run"})


class TestTripleFileInterface:
    def test_round_trip(self, tmp_path):
        triples = [
            EventTriple("harass", "he", "me", False, "p1"),
            EventTriple("follow", None, "i", True, "p2"),
        ]
        path = tmp_path / "triples.tsv"
        write_triples(triples, path)
        again = read_triples(path)
        assert again == triples

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\tnope\n")
        with pytest.raises(DataError):
            read_triples(path)

    @pytest.mark.parametrize("passive", ["yes", "", "2", " 1"])
    def test_passive_cell_other_than_0_or_1_rejected(self, tmp_path, passive):
        path = tmp_path / "triples.tsv"
        path.write_text("post_id\tverb_lemma\tpassive\tagent\taffected\n"
                        "p1\tharass\t1\the\tme\n"
                        f"p2\tharass\t{passive}\the\tme\n")
        with pytest.raises(DataError) as caught:
            read_triples(path)
        assert str(caught.value) == f"{path}: row 3: passive must be 0 or 1, got {passive!r}"
