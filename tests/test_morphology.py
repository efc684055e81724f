"""Stem/rest decomposition, suffixes, and feature recipes."""

import unicodedata

import pytest
from hypothesis import given, strategies as st

from chaintag.corpus import ColumnSchema, parse_corpus
from chaintag.errors import (
    CorpusFormatError,
    EmptyInputError,
    MissingColumnError,
    PipelineConfigError,
)
from chaintag.morphology import (
    EMPTY_VALUE,
    RECIPES,
    last_chars,
    materialize_recipe,
    parse_recipe,
    split_stem,
)

WORDS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzéèêàçœû", min_size=1, max_size=12
)


class TestSplitStem:
    def test_regular_verb_form(self):
        s = split_stem("marchant", "marcher")
        assert (s.stem, s.word_rest, s.lemma_rest) == ("march", "ant", "er")

    def test_equal_pair_uses_x_convention(self):
        s = split_stem("table", "table")
        assert (s.stem, s.word_rest, s.lemma_rest) == ("table", "x", "x")

    def test_disjoint_pair_has_empty_stem(self):
        s = split_stem("yeux", "œil")
        assert (s.stem, s.word_rest, s.lemma_rest) == ("", "yeux", "œil")

    def test_word_that_is_a_prefix_of_its_lemma(self):
        s = split_stem("marche", "marcher")
        assert (s.stem, s.word_rest, s.lemma_rest) == ("marche", "", "r")

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            split_stem("", "marcher")
        with pytest.raises(EmptyInputError):
            split_stem("marchant", "")

    def test_nfc_equivalent_spellings_compare_equal(self):
        composed = "café"
        decomposed = "café"
        s = split_stem(decomposed, composed)
        assert (s.word_rest, s.lemma_rest) == ("x", "x")

    @given(WORDS, WORDS)
    def test_concatenation_and_maximality(self, word, lemma):
        s = split_stem(word, lemma)
        if word == lemma:
            assert s.stem == word
            assert s.word_rest == s.lemma_rest == "x"
            return
        assert s.stem + s.word_rest == word
        assert s.stem + s.lemma_rest == lemma
        # The stem is the longest common prefix: the walk oracle agrees
        # and the next characters (if any) differ.
        k = 0
        while k < min(len(word), len(lemma)) and word[k] == lemma[k]:
            k += 1
        assert len(s.stem) == k
        if s.word_rest and s.lemma_rest:
            assert s.word_rest[0] != s.lemma_rest[0]


class TestLastChars:
    def test_final_character_windows(self):
        assert last_chars("marchant", 2) == "nt"
        assert last_chars("marchant", 3) == "ant"
        assert last_chars("marcher", 3) == "her"
        assert last_chars("marchant", 1) == "t"

    def test_clips_to_word_length(self):
        assert last_chars("à", 3) == "à"
        assert last_chars("de", 5) == "de"

    def test_counts_code_points_not_bytes(self):
        assert last_chars("été", 2) == "té"

    def test_rejects_empty_word_and_bad_n(self):
        with pytest.raises(EmptyInputError):
            last_chars("", 2)
        with pytest.raises(EmptyInputError):
            last_chars("mot", 0)

    @given(WORDS, st.integers(min_value=1, max_value=20))
    def test_is_a_suffix_of_expected_length(self, word, n):
        out = last_chars(word, n)
        norm = unicodedata.normalize("NFC", word)
        assert norm.endswith(out)
        assert len(out) == min(n, len(norm))


class TestRecipeParsing:
    def test_named_recipes_parse_to_expected_columns(self):
        assert RECIPES["I"].column_names == ("mot", "lemme")
        assert RECIPES["II"].column_names == ("mot", "lemme", "Rmot", "Rlemme")
        assert RECIPES["III"].column_names == (
            "mot", "lemme", "Rmot|D2(mot)", "Rlemme|D3(lemme)"
        )
        assert RECIPES["IV"].column_names == (
            "mot", "lemme", "Rmot|D3(mot)", "Rlemme|D3(lemme)"
        )
        assert RECIPES["IIIbis"].column_names == ("mot", "D3(mot)")
        assert RECIPES["IVbis"].column_names == (
            "mot", "D3(mot)", "D2(mot)", "D1(mot)"
        )

    def test_lemma_requirement_detection(self):
        assert RECIPES["IV"].needs_lemma
        assert RECIPES["II"].needs_lemma
        assert not RECIPES["IVbis"].needs_lemma
        assert not RECIPES["IIIbis"].needs_lemma

    def test_round_trips_through_text(self):
        for recipe in RECIPES.values():
            assert parse_recipe(recipe.text) == recipe

    def test_rejects_garbage_and_duplicates(self):
        with pytest.raises(PipelineConfigError):
            parse_recipe("mot,D3")
        with pytest.raises(PipelineConfigError):
            parse_recipe("mot,Dx(mot)")
        with pytest.raises(PipelineConfigError):
            parse_recipe("mot,mot")
        with pytest.raises(PipelineConfigError):
            parse_recipe("")
        with pytest.raises(PipelineConfigError):
            parse_recipe("Rmot|D3(lemme)")


TAGGED = ColumnSchema(("mot", "lemme", "tag"))


def _corpus(rows):
    text = "\n".join("\t".join(r) for r in rows) + "\n"
    return parse_corpus(text, TAGGED)


def row(corpus, i):
    """The cells of token i, in schema order."""
    return tuple(cells[i] for cells in corpus.columns)


class TestMaterializeRecipe:
    def test_suffix_columns_on_a_noun(self):
        corpus = _corpus([("omelette", "omelette", "NFS")])
        out = materialize_recipe(corpus, RECIPES["IVbis"])
        assert out.schema.names == (
            "mot", "lemme", "tag", "D3(mot)", "D2(mot)", "D1(mot)"
        )
        assert row(out, 0)[3:] == ("tte", "te", "e")

    def test_rest_columns_on_an_inflected_verb(self):
        corpus = _corpus([("marchant", "marcher", "VPARPRES")])
        out = materialize_recipe(corpus, RECIPES["II"])
        assert row(out, 0)[3:] == ("ant", "er")

    def test_rest_falls_back_to_suffix_on_equal_pair(self):
        corpus = _corpus([("table", "table", "NFS")])
        out = materialize_recipe(corpus, RECIPES["III"])
        # Rmot|D2(mot) and Rlemme|D3(lemme) use the suffix branch.
        assert row(out, 0)[3:] == ("le", "ble")

    def test_plain_rest_keeps_x_on_equal_pair(self):
        corpus = _corpus([("table", "table", "NFS")])
        out = materialize_recipe(corpus, RECIPES["II"])
        assert row(out, 0)[3:] == ("x", "x")

    def test_empty_rest_is_rendered_with_placeholder(self):
        corpus = _corpus([("marche", "marcher", "VINDP1S")])
        out = materialize_recipe(corpus, RECIPES["II"])
        assert row(out, 0)[3:] == (EMPTY_VALUE, "r")

    def test_base_only_recipe_appends_nothing(self):
        corpus = _corpus([("sel", "sel", "NMS")])
        out = materialize_recipe(corpus, RECIPES["I"])
        assert out == corpus

    def test_missing_lemma_column_is_reported(self):
        schema = ColumnSchema(("mot", "tag"))
        corpus = parse_corpus("sel\tNMS\n", schema)
        with pytest.raises(MissingColumnError):
            materialize_recipe(corpus, RECIPES["I"])
        out = materialize_recipe(corpus, RECIPES["IVbis"])
        assert out.schema.names == ("mot", "tag", "D3(mot)", "D2(mot)", "D1(mot)")

    def test_missing_word_column_is_reported(self):
        schema = ColumnSchema(("form", "tag"))
        corpus = parse_corpus("sel\tNMS\n", schema)
        with pytest.raises(MissingColumnError):
            materialize_recipe(corpus, RECIPES["IVbis"])

    def test_derived_value_spelled_like_a_sentinel_is_rejected(self):
        # the rest of "xy_B+1" after its lemma "xy" would read as padding
        corpus = _corpus([("le", "le", "D"), ("xy_B+1", "xy", "NMS")])
        with pytest.raises(CorpusFormatError, match=r"Rmot holds '_B\+1'"):
            materialize_recipe(corpus, parse_recipe("mot,Rmot"))
        corpus = _corpus([("a_B-1", "a", "X")])
        with pytest.raises(CorpusFormatError, match=r"D4\(mot\) holds '_B-1'"):
            materialize_recipe(corpus, parse_recipe("mot,D4(mot)"))
        # a sentinel inside a longer value is an ordinary cell
        out = materialize_recipe(corpus, parse_recipe("mot,D5(mot)"))
        assert out.columns[3][0] == "a_B-1"

    @given(st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=6))
    def test_deterministic_over_any_rows(self, pairs):
        corpus = _corpus([(w, l, "X") for w, l in pairs])
        a = materialize_recipe(corpus, RECIPES["IV"])
        b = materialize_recipe(corpus, RECIPES["IV"])
        assert a == b
        assert a.n_tokens == corpus.n_tokens
