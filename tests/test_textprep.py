from __future__ import annotations

import random
import re
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_BIGRAMS, TOY_UNIGRAMS
from oracles import (
    exhaustive_segment,
    lm_score,
    product_squeeze,
    regex_tokenize,
    whole_text_preprocess,
)
from postmine import textprep
from postmine.errors import DataError
from postmine.textprep import (
    DESIGNATED_TAGS,
    SEGMENT_MAX_CHARS,
    TAG_EMAIL,
    TAG_URL,
    TAG_USER,
    CorrectionDictionary,
    LanguageModel,
    Token,
    TokenKind,
    _squeeze_elongation,
    bundled_emoticons,
    bundled_stopwords,
    content_terms,
    correct_spelling,
    load_correction_dictionary,
    load_language_model,
    preprocess,
    segment,
    tokenize,
    transition_score,
)


def surfaces(tokens):
    return [t.surface for t in tokens]


# Every character the regex engine's ``\s`` matches.
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
              "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
              "\u2028\u2029\u202f\u205f\u3000")
# Pieces that reach every tokenizer rule and every per-token step.
TEXT_PIECES = [*WHITESPACE, "#", "@", "*", "$", "%", ".", "..", "'", "\u2019", "-", ":",
               "xd", "8)", ":-)", "<3", "<url>", "<user", "http://", "www.", "a.b.",
               "\ud800", "\u2026", "\U0001F600", "2020", "u", "s**t", "sooo", "reallyyy",
               "metoo", "MeToo", "hello", "world", "the", "cat", "ann", "x.co"]


# Hashtags whose bodies strip to nothing or pass the segmenting cap,
# and mask runs on either side of the censored rule's cap of 64.
HOSTILE_PIECES = ["#_", "#\u00e9", "#'", "#" + "metoo" * 57, "*" * 64 + "a", "$" * 65 + "a",
                  "a" + "%" * 70, "#" + "@" * 3]


HOSTILE_TEXT = st.lists(st.sampled_from(TEXT_PIECES + HOSTILE_PIECES), max_size=24).map("".join)


class TestTokenRecord:
    """``Token`` does not check itself; ``preprocess`` is what keeps
    surfaces non-empty and kind TAG for the designated tags."""

    @settings(max_examples=300, deadline=None)
    @given(HOSTILE_TEXT)
    def test_empty_surface_rejected(self, toy_lm, text):
        for token in preprocess(text, TestChunkedPreprocess.DICT, toy_lm):
            assert token.surface

    @settings(max_examples=300, deadline=None)
    @given(HOSTILE_TEXT)
    def test_tag_kind_reserved_for_designated_tags(self, toy_lm, text):
        for token in preprocess(text, TestChunkedPreprocess.DICT, toy_lm):
            assert token.kind is not TokenKind.TAG or token.surface in DESIGNATED_TAGS

    def test_is_an_immutable_named_tuple(self):
        token = Token("word", TokenKind.WORD)
        assert token == ("word", TokenKind.WORD)
        assert token[0] == token.surface == "word"
        assert token._replace(kind=TokenKind.CENSORED) == Token("word", TokenKind.CENSORED)
        with pytest.raises(AttributeError):
            token.surface = "other"


class TestContentTerms:
    def test_tag_and_punct_tokens_excluded(self):
        tokens = [Token("<url>", TokenKind.TAG), Token(".", TokenKind.PUNCT),
                  Token("story", TokenKind.WORD), Token(":)", TokenKind.EMOTICON),
                  Token("f**k", TokenKind.CENSORED)]
        assert content_terms(tokens) == ["story"]

    def test_hashtag_segments_included(self):
        tokens = [Token("campus", TokenKind.HASHTAG_SEGMENTED),
                  Token("story", TokenKind.HASHTAG_SEGMENTED), Token("campus", TokenKind.WORD)]
        assert content_terms(tokens) == ["campus", "story", "campus"]

    def test_stopwords_excluded(self):
        tokens = [Token("me", TokenKind.HASHTAG_SEGMENTED),
                  Token("too", TokenKind.HASHTAG_SEGMENTED),
                  Token("the", TokenKind.WORD), Token("story", TokenKind.WORD)]
        assert {"me", "too", "the"} <= bundled_stopwords()
        assert content_terms(tokens) == ["story"]
        # the list is read once per process
        assert bundled_stopwords() is bundled_stopwords()


class TestTokenize:
    def test_plain_sentence(self):
        tokens = tokenize("He harassed me.")
        assert surfaces(tokens) == ["he", "harassed", "me", "."]
        assert tokens[-1].kind is TokenKind.PUNCT

    def test_designated_tags(self):
        tokens = tokenize("see https://x.co 😊 @ann")
        assert surfaces(tokens) == ["see", TAG_URL, "😊", TAG_USER]
        assert [t.kind for t in tokens] == [
            TokenKind.WORD, TokenKind.TAG, TokenKind.EMOTICON, TokenKind.TAG]

    def test_email_tag(self):
        tokens = tokenize("write to help@example.org now")
        assert TAG_EMAIL in surfaces(tokens)

    def test_censored_and_emoticon_survive(self):
        tokens = tokenize("that's s**t :-)")
        assert surfaces(tokens) == ["that's", "s**t", ":-)"]
        assert tokens[1].kind is TokenKind.CENSORED
        assert tokens[2].kind is TokenKind.EMOTICON

    def test_empty_text(self):
        assert tokenize("") == []

    def test_hashtag_kept_whole(self):
        tokens = tokenize("so true #MeToo")
        assert surfaces(tokens)[-1] == "#metoo"
        assert tokens[-1].kind is TokenKind.WORD

    def test_tag_literals_reparse_as_tags(self):
        tokens = tokenize("<url> and <user> and <email>")
        kinds = [t.kind for t in tokens if t.surface.startswith("<")]
        assert kinds == [TokenKind.TAG] * 3

    def test_numbers_dates_acronyms_kept_intact(self):
        tokens = tokenize("on 12/25/2017 the u.s. paid $5,000")
        assert "12/25/2017" in surfaces(tokens)
        assert "u.s." in surfaces(tokens)
        assert "$5,000" in surfaces(tokens)

    def test_never_produces_empty_surfaces(self):
        for text in ("", " ", "a  b", "!!!", "🙂🙂", "#a #b"):
            assert all(t.surface for t in tokenize(text))

    @given(st.text(max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_total_and_deterministic(self, text):
        first = tokenize(text)
        assert first == tokenize(text)
        assert all(t.surface for t in first)

    @given(st.lists(
        st.sampled_from(["hello", "world", "story", "time", "n0ise"]),
        min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_word_alnum_conservation(self, words_in):
        # Interleave known word text with url/mention/emoticon noise; the
        # alphanumerics of the word portions must survive in word tokens.
        text = " :-) ".join(words_in) + " https://x.co/page @someone 😊"
        got = "".join(
            c for t in tokenize(text) if t.kind is TokenKind.WORD
            for c in t.surface if c.isalnum())
        expected = "".join(c for w in words_in for c in w if c.isalnum())
        assert got == expected

    # The emoticons here can start inside a run of mask characters.
    @given(st.lists(
        st.sampled_from(["a", "b", "z", "1", " ", ".", "*", "$", "%", "@",
                         ":*", ":-*", ";*", ":$", "*-*", "*_*", "@_@"]),
        max_size=20))
    @settings(max_examples=400, deadline=None)
    def test_matches_uncapped_regex_within_caps(self, pieces):
        # at most 60 characters, so no e-mail local part or mask run
        # reaches the 64-character caps
        text = "".join(pieces)
        assert [(t.surface, t.kind.value) for t in tokenize(text)] == \
            regex_tokenize(text, bundled_emoticons())

    def test_email_local_part_capped_at_64(self):
        assert surfaces(tokenize("a" * 64 + "@example.org")) == [TAG_EMAIL]
        tokens = tokenize("a" * 65 + "@example.org")
        assert TAG_EMAIL not in surfaces(tokens)
        assert "".join(surfaces(tokens)) == "a" * 65 + "@example.org"

    def test_censored_mask_run_capped_at_64(self):
        tokens = tokenize("$" * 64 + "abc")
        assert surfaces(tokens) == ["$" * 64 + "abc"]
        assert tokens[0].kind is TokenKind.CENSORED
        # a longer run loses its first characters as punctuation
        tokens = tokenize("$" * 66 + "abc")
        assert surfaces(tokens) == ["$", "$", "$" * 64 + "abc"]
        assert tokens[-1].kind is TokenKind.CENSORED


class TestCorrectSpelling:
    DICT = CorrectionDictionary(
        abbreviations={"u": "you", "omg": "oh my god"},
        valid_words=frozenset(["you", "oh", "my", "god", "really", "cat",
                               "too", "tool", "cool"]),
    )

    def token(self, s):
        return Token(s, TokenKind.WORD)

    def test_elongation_squeezed(self):
        assert surfaces(correct_spelling(self.token("reallyyy"), self.DICT)) == ["really"]

    def test_identity_on_known_word(self):
        assert surfaces(correct_spelling(self.token("cat"), self.DICT)) == ["cat"]

    def test_unknown_passes_through(self):
        assert surfaces(correct_spelling(self.token("zzzqqq"), self.DICT)) == ["zzzqqq"]

    def test_two_repeats_tried_before_one(self):
        # "toool" squeezes to "tool" (two o's) even though "too" exists
        assert surfaces(correct_spelling(self.token("toool"), self.DICT)) == ["tool"]
        assert surfaces(correct_spelling(self.token("cooool"), self.DICT)) == ["cool"]

    def test_abbreviation_expansion_multiword(self):
        out = correct_spelling(self.token("omg"), self.DICT)
        assert surfaces(out) == ["oh", "my", "god"]
        assert all(t.kind is TokenKind.WORD for t in out)

    def test_non_word_tokens_untouched(self):
        emo = Token(":-)", TokenKind.EMOTICON)
        assert correct_spelling(emo, self.DICT) == [emo]

    def test_squeeze_keeps_runs_that_are_not_elongated(self):
        words = frozenset(["book", "bok", "boook"])
        d = CorrectionDictionary({}, valid_words=words)
        # a run of two is kept as it is
        assert _squeeze_elongation("boookk", d) is None
        assert _squeeze_elongation("bbooook", d) is None
        # an elongated run is always shortened, even to leave a known word
        assert _squeeze_elongation("boook", d) == "book"
        for surface in ("boookk", "bbooook", "boook"):
            assert _squeeze_elongation(surface, d) == product_squeeze(surface, words)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_squeeze_matches_product_oracle(self, data):
        words = data.draw(st.frozensets(
            st.text(alphabet="abé1", min_size=1, max_size=6), min_size=1, max_size=25))
        dictionary = CorrectionDictionary({}, valid_words=words)
        word = data.draw(st.sampled_from(sorted(words)))
        repeats = data.draw(st.lists(
            st.integers(1, 5), min_size=len(word), max_size=len(word)))
        surface = "".join(ch * r for ch, r in zip(word, repeats))
        assert _squeeze_elongation(surface, dictionary) == product_squeeze(surface, words)


class TestDictionaryLoader:
    def test_expansion_words_must_be_valid(self, input_file):
        with pytest.raises(DataError, match="expansion word"):
            load_correction_dictionary(
                input_file("idk\ti do not know\n"), input_file("i\ndo\nnot\n"))

    def test_key_may_not_be_a_valid_word(self, input_file):
        with pytest.raises(DataError, match="valid word"):
            load_correction_dictionary(
                input_file("so\tso obviously\n"), input_file("so\nobviously\n"))

    def test_round_trip(self, input_file):
        d = load_correction_dictionary(
            input_file("u\tyou\n"), input_file("you\nreally\n"),
            input_file("s**t\n"))
        assert d.abbreviations == {"u": "you"}
        assert "s**t" in d.censored
        assert "really" in d.valid_words

    def test_word_lists_skip_comment_and_blank_lines(self, input_file):
        # the rule of the bundled lists: a line is stripped, and a blank
        # one or one that starts with "#" is no word
        d = load_correction_dictionary(
            input_file("u\tyou\n"), input_file("# words\nYou\n\n  # indented\n"),
            input_file("# comment line\ns**t\n"))
        assert d.censored == {"s**t"}
        assert {"you"} <= d.valid_words
        assert not any(word.startswith("#") for word in d.valid_words)


class TestLanguageModelLoader:
    def test_sections(self, input_file):
        lm = load_language_model(input_file(
            "UNIGRAM\nme\t10\ntoo\t8\nBIGRAM\nme\ttoo\t3\n"))
        assert lm.unigram_counts["me"] == 10
        assert lm.bigram_counts[("me", "too")] == 3
        assert lm.total_unigrams == 18

    def test_bigram_constituent_must_exist(self, input_file):
        # checked after the last section, which may be either one
        for counts, message in [
            ("UNIGRAM\nspeak\t3\nup\t1\nBIGRAM\nspeak\tup\t1\nspeak\tdown\t2\n",
             "line 6: bigram ('speak', 'down') has a word missing from unigrams"),
            ("BIGRAM\nspeak\tup\t1\nspeak\tdown\t2\nUNIGRAM\nspeak\t3\nup\t1\n",
             "line 3: bigram ('speak', 'down') has a word missing from unigrams"),
        ]:
            path = input_file(counts)
            with pytest.raises(DataError) as caught:
                load_language_model(path)
            assert str(caught.value) == f"{path}: {message}"

    def test_nonpositive_count_rejected(self, input_file):
        for counts, message in [
            ("UNIGRAM\nspeak\t3\nup\t0\n", "line 3: nonpositive unigram count for 'up'"),
            ("UNIGRAM\nspeak\t3\nup\t1\nBIGRAM\nspeak\tup\t-2\n",
             "line 5: nonpositive bigram count for ('speak', 'up')"),
            ("BIGRAM\nspeak\tup\t0\nUNIGRAM\nspeak\t3\nup\t1\n",
             "line 2: nonpositive bigram count for ('speak', 'up')"),
        ]:
            path = input_file(counts)
            with pytest.raises(DataError) as caught:
                load_language_model(path)
            assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize("unigrams, bigrams, message", [
        ({"speak": 3, "up": 0}, {}, "nonpositive unigram count for 'up'"),
        ({"speak": 3, "up": 1}, {("speak", "up"): 0},
         "nonpositive bigram count for ('speak', 'up')"),
        ({"speak": 3}, {("speak", "down"): 2},
         "bigram ('speak', 'down') has a word missing from unigrams"),
    ], ids=["unigram", "bigram", "bigram-word"])
    def test_model_built_in_code_is_checked_alike(self, unigrams, bigrams, message):
        with pytest.raises(DataError) as caught:
            LanguageModel.from_counts(unigrams, bigrams)
        assert str(caught.value) == message

    @pytest.mark.parametrize("counts, message", [
        ("UNIGRAM\nme\t10\ntoo\t" + "9" * 401,
         "line 3: unigram counts sum too large for a float"),
        ("UNIGRAM\nme\t%d\ntoo\t%d" % (int(1e308), int(1e308)),
         "line 3: unigram counts sum too large for a float"),
        ("UNIGRAM\nme\t10\ntoo\t8\nBIGRAM\nme\ttoo\t" + "9" * 401,
         "line 5: count is too large for a float"),
    ], ids=["unigram", "unigram-total", "bigram"])
    def test_count_too_large_for_a_float_rejected(self, input_file, counts, message):
        # the scores divide by counts and by the unigram total
        path = input_file(counts + "\n")
        with pytest.raises(DataError) as caught:
            load_language_model(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_largest_float_counts_segment(self, input_file):
        lm = load_language_model(input_file(
            "UNIGRAM\nme\t%d\ntoo\t1\nBIGRAM\nme\ttoo\t%d\n" % (int(1.5e308), int(1e308))))
        assert segment("metoox", lm) == ["me", "too", "x"]

    def test_line_outside_section_rejected(self, input_file):
        with pytest.raises(DataError, match="line 1"):
            load_language_model(input_file("me\t10\n"))

    def test_duplicate_unigram_differing_in_case_rejected(self, input_file):
        path = input_file("UNIGRAM\nme\t10\nMe\t3\n")
        with pytest.raises(DataError) as caught:
            load_language_model(path)
        assert str(caught.value) == f"{path}: line 3: duplicate unigram 'me'"

    def test_duplicate_bigram_rejected(self, input_file):
        path = input_file("UNIGRAM\nme\t10\ntoo\t8\nBIGRAM\nme\ttoo\t3\nme\tToo\t4\n")
        with pytest.raises(DataError) as caught:
            load_language_model(path)
        assert str(caught.value) == f"{path}: line 6: duplicate bigram ('me', 'too')"


class TestSegment:
    def test_metoo(self, toy_lm):
        assert segment("metoo", toy_lm) == ["me", "too"]
        assert exhaustive_segment("metoo", toy_lm) == ["me", "too"]

    def test_single_word_optimum(self, toy_lm):
        assert segment("cat", toy_lm) == ["cat"]

    def test_helloworld(self, toy_lm):
        assert segment("helloworld", toy_lm) == ["hello", "world"]
        assert exhaustive_segment("helloworld", toy_lm) == ["hello", "world"]

    def test_empty_body(self, toy_lm):
        assert segment("", toy_lm) == []

    def test_oov_survives_as_chunk(self, toy_lm):
        out = segment("zzqx", toy_lm)
        assert "".join(out) == "zzqx"

    def test_transition_score_matches_oracle_formula(self, toy_lm):
        for prev, word in ((None, "me"), ("me", "too"), ("cat", "dog"),
                           (None, "zzz"), ("zzz", "me")):
            assert transition_score(toy_lm, prev, word) == lm_score(toy_lm, prev, word)

    def test_matches_exhaustive_oracle_random(self, toy_lm):
        import random
        rng = random.Random(1234)
        alphabet = "catsdogmeuphelowr"
        for _ in range(300):
            n = rng.randint(1, 12)
            body = "".join(rng.choice(alphabet) for _ in range(n))
            assert segment(body, toy_lm) == exhaustive_segment(body, toy_lm), body

    def test_known_bigram_predecessor_excluded_from_backoff(self):
        # The only split of "a" is the top entry before "b", but the
        # known bigram ("a", "b") scores lower than the backoff of "b",
        # so "a b" must take the bigram score; then the rare "ab" wins.
        lm = LanguageModel.from_counts({"a": 1000, "b": 1000, "ab": 5}, {("a", "b"): 1})
        assert segment("ab", lm) == ["ab"]
        assert exhaustive_segment("ab", lm) == ["ab"]

    def test_exact_tie_goes_to_smallest_sequence(self):
        lm = LanguageModel.from_counts({"a": 5, "b": 5, "aa": 5, "ab": 5})
        # "a ab" and "aa b" score exactly the same
        assert (transition_score(lm, None, "a") + transition_score(lm, "a", "ab")
                == transition_score(lm, None, "aa") + transition_score(lm, "aa", "b"))
        assert segment("aab", lm) == ["a", "ab"]
        assert exhaustive_segment("aab", lm) == ["a", "ab"]

    def test_tie_after_rounding_goes_to_smallest_sequence(self):
        # With one unigram of count 1 every out-of-vocabulary word scores
        # -len * log(10), and prefixes whose sums differ in the last bit
        # tie once the next word is added.  The expected split is the one
        # the cubic per-entry recursion gives (every previous entry
        # scored for every word).
        lm = LanguageModel.from_counts({"c": 1}, {("c", "c"): 1})
        assert segment("dcddabdababdbaadd", lm) == [
            "d", "c", "d", "d", "a", "b", "dab", "a", "bd", "b", "aa", "d", "d"]

    def test_fresh_list_per_call_and_model(self, toy_lm):
        first = segment("metoo", toy_lm)
        first.append("x")
        assert segment("metoo", toy_lm) == ["me", "too"]
        other = LanguageModel.from_counts({"metoo": 5})
        assert segment("metoo", other) == ["metoo"]
        assert segment("metoo", toy_lm) == ["me", "too"]

    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_concatenation_invariant(self, body):
        lm = LanguageModel.from_counts({"me": 10, "too": 5, "to": 4, "o": 1})
        assert "".join(segment(body, lm)) == body

    @given(st.text(alphabet="metoahlwrdscnupy", min_size=1, max_size=SEGMENT_MAX_CHARS))
    @settings(max_examples=40, deadline=None)
    def test_within_cap_matches_uncapped_viterbi(self, body):
        lm = LanguageModel.from_counts(TOY_UNIGRAMS, TOY_BIGRAMS)
        assert segment(body, lm) == list(textprep._viterbi(body, lm))

    def test_cap_is_a_tweet_length(self):
        lm = LanguageModel.from_counts(TOY_UNIGRAMS, TOY_BIGRAMS)
        at_cap = "metoo" * 56
        assert len(at_cap) == SEGMENT_MAX_CHARS == 280
        assert segment(at_cap, lm) == ["me", "too"] * 56
        assert segment(at_cap + "a", lm) == [at_cap + "a"]


class TestPreprocess:
    def _dict(self):
        return CorrectionDictionary(
            abbreviations={"u": "you"},
            censored=frozenset(["s**t"]),
            valid_words=frozenset(["you", "really", "sad", "happened", "me", "too"]),
        )

    def test_hashtag_segmented(self, toy_lm):
        out = preprocess("#MeToo happened", self._dict(), toy_lm)
        assert surfaces(out) == ["me", "too", "happened"]
        assert [t.kind for t in out[:2]] == [TokenKind.HASHTAG_SEGMENTED] * 2
        assert out[2].kind is TokenKind.WORD

    def test_empty(self, toy_lm):
        assert preprocess("", self._dict(), toy_lm) == []

    def test_elongation_and_trivial_hashtag(self, toy_lm):
        out = preprocess("Reallyyy #sad", self._dict(), toy_lm)
        assert surfaces(out) == ["really", "sad"]

    def test_censored_rekinded(self, toy_lm):
        out = preprocess("what s**t", self._dict(), toy_lm)
        assert out[-1].kind is TokenKind.CENSORED

    def test_idempotent_on_rendered_output(self, toy_lm):
        texts = [
            "Reallyyy #MeToo u see https://x.co 😊 @ann",
            "That's s**t :-) #helloworld",
            "nothing to fix here.",
        ]
        d = self._dict()
        for text in texts:
            once = preprocess(text, d, toy_lm)
            again = preprocess(" ".join(surfaces(once)), d, toy_lm)
            assert surfaces(again) == surfaces(once)


class TestChunkedPreprocess:
    """``preprocess`` runs each whitespace chunk on its own and shares
    the result through ``memo``; this must equal running the whole
    text at once."""

    DICT = CorrectionDictionary(
        abbreviations={"u": "you"},
        censored=frozenset(["s**t"]),
        valid_words=frozenset(["you", "really", "so", "sad", "hello", "me", "too"]),
    )

    def test_whitespace_is_the_regex_class(self):
        assert all(re.fullmatch(r"\s", ch) for ch in WHITESPACE)
        assert not re.search(r"\s", "".join(map(chr, range(0x3001))).translate(
            {ord(ch): None for ch in WHITESPACE}))

    def test_no_token_contains_whitespace(self):
        # the invariant that makes the chunk split exact
        for fixed in (*bundled_emoticons(), *DESIGNATED_TAGS):
            assert not re.search(r"\s", fixed), fixed

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TEXT_PIECES), max_size=24).map("".join),
                    max_size=6))
    def test_shared_memo_equals_whole_text(self, toy_lm, texts):
        texts = texts + texts[:2]   # repeated posts hit the memo
        memo = {}
        chunked = [preprocess(text, self.DICT, toy_lm, memo) for text in texts]
        assert chunked == [whole_text_preprocess(text, self.DICT, toy_lm) for text in texts]
        assert [preprocess(text, self.DICT, toy_lm) for text in texts] == chunked

    def test_memo_holds_each_distinct_chunk_once(self, toy_lm):
        memo = {}
        first = preprocess("u  #MeToo\u3000u\nu", self.DICT, toy_lm, memo)
        second = preprocess("#MeToo u", self.DICT, toy_lm, memo)
        assert sorted(memo) == ["#MeToo", "u"]
        assert surfaces(first) == ["you", "me", "too", "you", "you"]
        assert surfaces(second) == ["me", "too", "you"]
        assert first is not second


class TestWorstCaseBudgets:
    """Per-call time budgets on inputs built to hit each step's worst
    case; each is far above the expected time, and far below the time
    of the earlier super-linear algorithms."""

    def timed(self, fn, *args):
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start

    def test_segment_random_letters(self, toy_lm):
        rng = random.Random(320)
        body = "".join(rng.choice(string.ascii_lowercase) for _ in range(320))
        lm = LanguageModel.from_counts(dict(toy_lm.unigram_counts), dict(toy_lm.bigram_counts))
        assert self.timed(segment, body, lm) < 1.0

    def test_squeeze_twenty_runs(self):
        letters = string.ascii_lowercase[:20]
        # only the last candidate, every run cut to one copy, is known
        d = CorrectionDictionary({}, valid_words=frozenset([letters]))
        surface = "".join(ch * 3 for ch in letters)
        assert self.timed(_squeeze_elongation, surface, d) < 0.1
        assert _squeeze_elongation(surface, d) == letters

    def test_preprocess_long_hashtag(self, toy_lm):
        rng = random.Random(40000)
        body = "".join(rng.choice(string.ascii_lowercase) for _ in range(40000))
        lm = LanguageModel.from_counts(dict(toy_lm.unigram_counts), dict(toy_lm.bigram_counts))
        d = CorrectionDictionary({}, valid_words=frozenset())
        assert self.timed(preprocess, "#" + body, d, lm) < 1.0
        assert preprocess("#" + body, d, lm) == [Token(body, TokenKind.HASHTAG_SEGMENTED)]

    @pytest.mark.parametrize("text", ["a+" * 16000, "$" * 32000],
                             ids=["email-run", "mask-run"])
    def test_tokenize_long_runs(self, text):
        assert self.timed(tokenize, text) < 1.0
