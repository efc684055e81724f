"""Column-oriented token corpora in tab-separated text form.

One token per line, columns separated by a single TAB, sentences separated
by blank lines.  Column 0 is the surface form; remaining columns are
whatever the schema says (lemma, derived features, gold or predicted tags).
Lines starting with '#' before the first token or blank line are header
metadata and are kept as the corpus provenance.  All text is NFC-normalized
on the way in.

In memory a corpus is a table: one tuple of cells per schema column, all
in corpus order, and the number of tokens in each sentence.  Every view
(appending, selecting or dropping columns, gathering sentences) builds
new column tuples and shares the cells; no object is made per token.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from itertools import accumulate

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


@dataclass(frozen=True)
class Corpus:
    """A token table: one tuple of cells per schema column, in corpus
    order, and the number of tokens in each sentence."""

    columns: tuple[tuple[str, ...], ...]
    lengths: tuple[int, ...]
    schema: ColumnSchema
    provenance: str = ""

    def __post_init__(self):
        if len(self.columns) != self.schema.width:
            raise CorpusFormatError(
                "%d columns do not match schema width %d"
                % (len(self.columns), self.schema.width)
            )
        n = sum(self.lengths)
        if any(len(cells) != n for cells in self.columns):
            raise CorpusFormatError("every column needs one cell per token (%d)" % n)
        if min(self.lengths, default=1) < 1:
            raise CorpusFormatError("sentence must contain at least one token")
        if "" in self.columns[0]:
            raise CorpusFormatError("token needs a non-empty surface form")

    @property
    def n_sentences(self) -> int:
        return len(self.lengths)

    @property
    def n_tokens(self) -> int:
        return len(self.columns[0])

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """(start, end) of each sentence's rows, in corpus order."""
        ends = tuple(accumulate(self.lengths))
        return tuple(zip((0,) + ends, ends))

    def column(self, name: str) -> list[str]:
        """Flat per-token values of one column, in corpus order."""
        return list(self.columns[self.schema.index(name)])

    def sentence_column(self, name: str) -> list[list[str]]:
        """Per-sentence lists of one column's values."""
        cells = self.columns[self.schema.index(name)]
        return [list(cells[start:end]) for start, end in self.bounds]


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
    rows: list[list[str]] = []
    lengths: list[int] = []
    start = 0  # the first row of the current sentence
    in_header = True

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if "\r" in line:
            raise CorpusFormatError("line %d: carriage return inside a line" % lineno)
        if in_header and line.startswith("#"):
            provenance_lines.append(line[2:] if line.startswith("# ") else line[1:])
            continue
        if line == "":
            in_header = False
            if len(rows) > start:
                lengths.append(len(rows) - start)
                start = len(rows)
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
        rows.append(fields)
    if len(rows) > start:
        lengths.append(len(rows) - start)

    if not rows:
        raise EmptyCorpusError("no token lines found")
    return Corpus(tuple(zip(*rows)), tuple(lengths), schema, "\n".join(provenance_lines))


def write_corpus(corpus: Corpus) -> str:
    """Render a corpus back to tab-separated text; inverse of parse_corpus.
    A first surface form starting with '#' follows a blank line."""
    out: list[str] = []
    if corpus.provenance:
        for line in corpus.provenance.split("\n"):
            out.append("# " + line if line else "#")
    if corpus.n_tokens and corpus.columns[0][0].startswith("#"):
        out.append("")
    rows = list(map("\t".join, zip(*corpus.columns)))
    out.append("\n\n".join("\n".join(rows[start:end]) for start, end in corpus.bounds))
    return "\n".join(out) + "\n"


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file, with universal newlines; EncodingError
    names the file when it does not decode."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as err:
        raise EncodingError("%s %s is not valid UTF-8: %s" % (what, path, err)) from err


def load_corpus(path, schema: ColumnSchema) -> Corpus:
    return parse_corpus(read_text(path, "corpus"), schema)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(write_corpus(corpus))


def append_column(corpus: Corpus, name: str, values: list[str]) -> Corpus:
    """New corpus with one extra column filled from a flat per-token list."""
    if len(values) != corpus.n_tokens:
        raise LengthMismatchError(
            "got %d values for %d tokens" % (len(values), corpus.n_tokens)
        )
    return Corpus(corpus.columns + (tuple(map(_nfc, values)),), corpus.lengths,
                  corpus.schema.with_column(name), corpus.provenance)


def drop_column(corpus: Corpus, name: str) -> Corpus:
    """New corpus without the named column (used to strip gold labels)."""
    if corpus.schema.index(name) == 0:
        raise CorpusFormatError("cannot drop the surface-form column")
    return select_columns(corpus, [n for n in corpus.schema.names if n != name])


def select_sentences(corpus: Corpus, indices) -> Corpus:
    """Sub-corpus keeping the given sentence indices, in the given order."""
    bounds = corpus.bounds
    picked = [bounds[i] for i in indices]
    rows = [row for start, end in picked for row in range(start, end)]
    return Corpus(
        tuple(tuple(map(cells.__getitem__, rows)) for cells in corpus.columns),
        tuple(end - start for start, end in picked),
        corpus.schema,
        corpus.provenance,
    )


def select_columns(corpus: Corpus, names) -> Corpus:
    """New corpus keeping the named columns only, in the given order."""
    picked = tuple(names)
    return Corpus(tuple(corpus.columns[corpus.schema.index(n)] for n in picked),
                  corpus.lengths, ColumnSchema(picked), corpus.provenance)
