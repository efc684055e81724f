"""Morphological feature columns derived from surface form and lemma.

Two primitives: the stem/rest decomposition of a (word, lemma) pair around
their longest common prefix, and the last-n-characters suffix.  On top of
them, feature recipes name the observation columns an experiment uses and
how to derive the non-base ones.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

from .corpus import Corpus, append_column, first_sentinel
from .errors import (
    CorpusFormatError,
    EmptyInputError,
    MissingColumnError,
    PipelineConfigError,
)

# Placeholder for a derived rest that is the empty string (one side is a
# prefix of the other); 'x' is reserved for the word == lemma case.
EMPTY_VALUE = "_EMPTY_"

SAME_VALUE = "x"


@dataclass(frozen=True)
class StemSplit:
    stem: str
    word_rest: str
    lemma_rest: str


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def split_stem(word: str, lemma: str) -> StemSplit:
    """Split word and lemma around their longest common prefix.

    When word == lemma both rests are the conventional 'x'; otherwise
    stem + word_rest == word and stem + lemma_rest == lemma, with the stem
    maximal.  Comparison is over NFC-normalized code points, case kept.
    """
    if not word or not lemma:
        raise EmptyInputError("word and lemma must be non-empty")
    word, lemma = _nfc(word), _nfc(lemma)
    if word == lemma:
        return StemSplit(word, SAME_VALUE, SAME_VALUE)
    k = 0
    for a, b in zip(word, lemma):
        if a != b:
            break
        k += 1
    return StemSplit(word[:k], word[k:], lemma[k:])


def last_chars(word: str, n: int) -> str:
    """The min(n, len) final characters of word (code points, not bytes)."""
    if not word:
        raise EmptyInputError("word must be non-empty")
    if n < 1:
        raise EmptyInputError("n must be >= 1")
    return _nfc(word)[-n:]


# --- feature recipes ---------------------------------------------------

_SUFFIX_RE = re.compile(r"^D(\d+)\((mot|lemme)\)$")
_REST_RE = re.compile(r"^R(mot|lemme)$")


@dataclass(frozen=True)
class RecipeElement:
    """One observation column: a base column or a derivation of one."""

    text: str  # canonical spelling, also the derived column name
    kind: str  # "base" | "rest" | "rest_or_suffix" | "suffix"
    source: str  # "mot" | "lemme"
    n: int | None = None

    @property
    def is_base(self) -> bool:
        return self.kind == "base"


def _parse_element(tok: str) -> RecipeElement:
    if tok in ("mot", "lemme"):
        return RecipeElement(tok, "base", tok)
    m = _REST_RE.match(tok)
    if m:
        return RecipeElement(tok, "rest", m.group(1))
    m = _SUFFIX_RE.match(tok)
    if m:
        return RecipeElement(tok, "suffix", m.group(2), int(m.group(1)))
    if "|" in tok:
        rest_part, suffix_part = tok.split("|", 1)
        r = _REST_RE.match(rest_part)
        s = _SUFFIX_RE.match(suffix_part)
        if r and s and r.group(1) == s.group(2):
            return RecipeElement(tok, "rest_or_suffix", r.group(1), int(s.group(1)))
    raise PipelineConfigError("bad recipe element %r" % tok)


@dataclass(frozen=True)
class FeatureRecipe:
    elements: tuple[RecipeElement, ...]

    @property
    def needs_lemma(self) -> bool:
        return any(e.source == "lemme" or e.kind in ("rest", "rest_or_suffix")
                   for e in self.elements)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(e.text for e in self.elements)

    @property
    def text(self) -> str:
        return ",".join(e.text for e in self.elements)


def parse_recipe(text: str) -> FeatureRecipe:
    """Parse a comma-separated recipe like 'mot,lemme,Rmot|D3(mot)'."""
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise PipelineConfigError("empty recipe")
    if len(set(toks)) != len(toks):
        raise PipelineConfigError("duplicate recipe elements in %r" % text)
    return FeatureRecipe(tuple(_parse_element(t) for t in toks))


# The named observation sets used throughout; I-IV assume a lemma column,
# the bis variants replace it with word suffixes.
RECIPES = {
    "I": parse_recipe("mot,lemme"),
    "II": parse_recipe("mot,lemme,Rmot,Rlemme"),
    "III": parse_recipe("mot,lemme,Rmot|D2(mot),Rlemme|D3(lemme)"),
    "IV": parse_recipe("mot,lemme,Rmot|D3(mot),Rlemme|D3(lemme)"),
    "IIIbis": parse_recipe("mot,D3(mot)"),
    "IVbis": parse_recipe("mot,D3(mot),D2(mot),D1(mot)"),
}


def _derive(element: RecipeElement, word: str, lemma: str | None) -> str:
    if element.kind == "suffix" and element.source == "mot":
        return last_chars(word, element.n)
    if element.kind == "suffix":
        return last_chars(lemma, element.n)
    split = split_stem(word, lemma)
    rest = split.word_rest if element.source == "mot" else split.lemma_rest
    if element.kind == "rest_or_suffix" and _nfc(word) == _nfc(lemma):
        base = word if element.source == "mot" else lemma
        return last_chars(base, element.n)
    return rest if rest else EMPTY_VALUE


def materialize_recipe(corpus: Corpus, recipe: FeatureRecipe) -> Corpus:
    """Append one derived column per non-base recipe element, in order.

    Base elements must already exist as columns; derived columns are named
    by their canonical element spelling.  Deterministic and idempotent on
    the same base columns.  Raises CorpusFormatError when a derived value
    is spelled like a boundary sentinel ("_B-1", "_B+1"), as parse_corpus
    does for the cells it reads.
    """
    if not corpus.schema.has("mot"):
        raise MissingColumnError("recipe needs a 'mot' column")
    if recipe.needs_lemma and not corpus.schema.has("lemme"):
        raise MissingColumnError(
            "recipe %r needs a 'lemme' column" % recipe.text
        )
    words = corpus.column("mot")
    lemmas = corpus.column("lemme") if corpus.schema.has("lemme") else None
    out = corpus
    for element in recipe.elements:
        if element.is_base:
            continue
        values = [
            _derive(element, w, lemmas[i] if lemmas else None)
            for i, w in enumerate(words)
        ]
        sentinel = first_sentinel(values)
        if sentinel is not None:
            raise CorpusFormatError(
                "derived column %s holds %r, which is spelled like a boundary"
                " sentinel" % (element.text, sentinel)
            )
        out = append_column(out, element.text, values)
    return out
