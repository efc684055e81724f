"""Column-oriented token corpora in tab-separated text form.

One token per line, columns separated by a single TAB, sentences separated
by blank lines.  Column 0 is the surface form; remaining columns are
whatever the schema says (lemma, derived features, gold or predicted tags).
Lines starting with '#' before the first token are header metadata and are
kept as the corpus provenance.  All text is NFC-normalized on the way in.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

from .errors import (
    CorpusFormatError,
    EmptyCorpusError,
    EncodingError,
    LengthMismatchError,
    MissingColumnError,
    RaggedRowError,
)


@dataclass(frozen=True)
class ColumnSchema:
    """Ordered, uniquely named columns of a corpus."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise CorpusFormatError("schema needs at least one column")
        if len(set(self.names)) != len(self.names):
            raise CorpusFormatError("duplicate column names: %r" % (self.names,))

    @property
    def width(self) -> int:
        return len(self.names)

    def has(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingColumnError(
                "no column %r (have %s)" % (name, ", ".join(self.names))
            ) from None

    def with_column(self, name: str) -> "ColumnSchema":
        return ColumnSchema(self.names + (name,))

    def without_column(self, name: str) -> "ColumnSchema":
        i = self.index(name)
        return ColumnSchema(self.names[:i] + self.names[i + 1 :])


@dataclass(frozen=True)
class Token:
    columns: tuple[str, ...]

    def __post_init__(self):
        if not self.columns or not self.columns[0]:
            raise CorpusFormatError("token needs a non-empty surface form")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise CorpusFormatError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def cell(self, position: int, column: int) -> str:
        return self.tokens[position].columns[column]


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    schema: ColumnSchema
    provenance: str = ""

    def __post_init__(self):
        width = self.schema.width
        for s in self.sentences:
            for t in s.tokens:
                if len(t.columns) != width:
                    raise CorpusFormatError(
                        "token width %d does not match schema width %d"
                        % (len(t.columns), width)
                    )

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def column(self, name: str) -> list[str]:
        """Flat per-token values of one column, in corpus order."""
        c = self.schema.index(name)
        return [t.columns[c] for s in self.sentences for t in s.tokens]

    def sentence_column(self, name: str) -> list[list[str]]:
        """Per-sentence lists of one column's values."""
        c = self.schema.index(name)
        return [[t.columns[c] for t in s.tokens] for s in self.sentences]


# How templates spell a row before or after the sentence ("_B-1", "_B+2").
_BOUNDARY_SENTINEL = re.compile(r"_B[-+][1-9][0-9]*")


def first_sentinel(cells) -> str | None:
    """The first cell spelled like a boundary sentinel, or None.  Features
    would mix such a cell up with the padding outside a sentence."""
    return next(
        (c for c in cells if "_B" in c and _BOUNDARY_SENTINEL.fullmatch(c)), None
    )


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def parse_corpus(text: str, schema: ColumnSchema) -> Corpus:
    """Parse a tab-separated document against a schema.

    Raises RaggedRowError (with line number) when a token line does not
    have exactly schema.width fields, CorpusFormatError when a carriage
    return is left inside a line once a CRLF ending is stripped (files
    are read with universal newlines, so it could not be read back) or
    when a cell is spelled like a boundary sentinel (features would mix it
    up with the padding), EmptyCorpusError when no token survives.
    """
    text = _nfc(text)
    width = schema.width
    provenance_lines: list[str] = []
    sentences: list[Sentence] = []
    current: list[Token] = []
    in_header = True

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if "\r" in line:
            raise CorpusFormatError("line %d: carriage return inside a line" % lineno)
        if in_header and line.startswith("#"):
            provenance_lines.append(line[2:] if line.startswith("# ") else line[1:])
            continue
        if line == "":
            if current:
                sentences.append(Sentence(tuple(current)))
                current = []
            continue
        in_header = False
        fields = line.split("\t")
        if len(fields) != width:
            raise RaggedRowError(lineno, width, len(fields))
        if not fields[0]:
            raise CorpusFormatError("line %d: empty surface form" % lineno)
        if "_B" in line and first_sentinel(fields) is not None:
            raise CorpusFormatError(
                "line %d: a cell is spelled like a boundary sentinel" % lineno
            )
        current.append(Token(tuple(fields)))
    if current:
        sentences.append(Sentence(tuple(current)))

    if not sentences:
        raise EmptyCorpusError("no token lines found")
    return Corpus(tuple(sentences), schema, "\n".join(provenance_lines))


def write_corpus(corpus: Corpus) -> str:
    """Render a corpus back to tab-separated text; inverse of parse_corpus."""
    out: list[str] = []
    if corpus.provenance:
        for line in corpus.provenance.split("\n"):
            out.append("# " + line if line else "#")
    blocks = []
    for s in corpus.sentences:
        blocks.append("\n".join("\t".join(t.columns) for t in s.tokens))
    out.append("\n\n".join(blocks))
    return "\n".join(out) + "\n"


def load_corpus(path, schema: ColumnSchema) -> Corpus:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise EncodingError("%s is not valid UTF-8: %s" % (path, e)) from e
    return parse_corpus(text, schema)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(write_corpus(corpus))


def append_column(corpus: Corpus, name: str, values: list[str]) -> Corpus:
    """New corpus with one extra column filled from a flat per-token list."""
    if len(values) != corpus.n_tokens:
        raise LengthMismatchError(
            "got %d values for %d tokens" % (len(values), corpus.n_tokens)
        )
    schema = corpus.schema.with_column(name)
    it = iter(values)
    sentences = tuple(
        Sentence(tuple(Token(t.columns + (_nfc(next(it)),)) for t in s.tokens))
        for s in corpus.sentences
    )
    return Corpus(sentences, schema, corpus.provenance)


def drop_column(corpus: Corpus, name: str) -> Corpus:
    """New corpus without the named column (used to strip gold labels)."""
    c = corpus.schema.index(name)
    if c == 0:
        raise CorpusFormatError("cannot drop the surface-form column")
    schema = corpus.schema.without_column(name)
    sentences = tuple(
        Sentence(tuple(Token(t.columns[:c] + t.columns[c + 1 :]) for t in s.tokens))
        for s in corpus.sentences
    )
    return Corpus(sentences, schema, corpus.provenance)


def select_sentences(corpus: Corpus, indices) -> Corpus:
    """Sub-corpus keeping the given sentence indices, in the given order."""
    return Corpus(
        tuple(corpus.sentences[i] for i in indices), corpus.schema, corpus.provenance
    )


def select_columns(corpus: Corpus, names) -> Corpus:
    """New corpus keeping the named columns only, in the given order."""
    picked = tuple(names)
    cols = [corpus.schema.index(n) for n in picked]
    sentences = tuple(
        Sentence(tuple(Token(tuple(t.columns[c] for c in cols)) for t in s.tokens))
        for s in corpus.sentences
    )
    return Corpus(sentences, ColumnSchema(picked), corpus.provenance)
