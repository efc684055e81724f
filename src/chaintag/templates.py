"""Feature templates and the feature dictionary.

Templates follow the CRF++ file syntax: one template per line, an id
starting with 'U' (observation paired with the current label) or 'B'
(observation paired with the previous/current label pair), and macros
%x[row,col] substituting corpus cells relative to the current position.
Rows outside the sentence substitute boundary sentinels ("_B-1" before,
"_B+1" after), which parse_corpus and materialize_recipe refuse as cell
values.

index_features expands every template over a whole run of sentences in
one pass and interns the strings; the dictionary counts its ids, the CRF
encodes from it, and expand and active_features are its one-sentence
views.

The dictionary assigns dense weight indices in blocks: each unigram
string owns one weight per label, each bigram string one weight per
label pair, unigram blocks first, both in first-occurrence order.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from itertools import chain, compress, count, islice, repeat
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, Sentence
from .errors import (
    BadColumnError,
    DuplicateTemplateIdError,
    TemplateSyntaxError,
)

_MACRO_RE = re.compile(r"%x\[(-?\d+),(\d+)\]")
_ID_RE = re.compile(r"^[UB][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Macro:
    row: int
    col: int


@dataclass(frozen=True)
class FeatureTemplate:
    id: str
    kind: str  # "U" | "B"
    macros: tuple[Macro, ...]

    @property
    def text(self) -> str:
        if not self.macros:
            return self.id
        body = "/".join("%%x[%d,%d]" % (m.row, m.col) for m in self.macros)
        return "%s:%s" % (self.id, body)


def _parse_line(line: str, lineno: int) -> FeatureTemplate:
    head, sep, body = line.partition(":")
    if not _ID_RE.match(head):
        raise TemplateSyntaxError(
            lineno, "template id must start with U or B: %r" % line
        )
    if not sep:
        return FeatureTemplate(head, head[0], ())
    macros = []
    for part in body.split("/"):
        m = _MACRO_RE.fullmatch(part)
        if not m:
            raise TemplateSyntaxError(lineno, "bad macro %r" % part)
        macros.append(Macro(int(m.group(1)), int(m.group(2))))
    return FeatureTemplate(head, head[0], tuple(macros))


def parse_templates(text: str) -> tuple[FeatureTemplate, ...]:
    """Parse a template file; order preserved, duplicate ids rejected."""
    out: list[FeatureTemplate] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        template = _parse_line(line, lineno)
        if template.id in seen:
            raise DuplicateTemplateIdError(
                "line %d: duplicate template id %r" % (lineno, template.id)
            )
        seen.add(template.id)
        out.append(template)
    return tuple(out)


def format_templates(templates: Iterable[FeatureTemplate]) -> str:
    return "\n".join(t.text for t in templates) + "\n"


def template_hash(text: str) -> str:
    """Identity of a template file, recorded in models and reports."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def default_templates(columns: Sequence[int]) -> str:
    """The reference template set over the given observation columns.

    Per column: unigrams at offsets -2..2 plus the two adjacent
    conjunctions; one shared pure label-bigram template.
    """
    lines = []
    counter = 0
    for col in columns:
        for spec in ("%x[-2,{c}]", "%x[-1,{c}]", "%x[0,{c}]", "%x[1,{c}]",
                     "%x[2,{c}]", "%x[-1,{c}]/%x[0,{c}]", "%x[0,{c}]/%x[1,{c}]"):
            lines.append("U%02d:%s" % (counter, spec.format(c=col)))
            counter += 1
    lines.append("B")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class FeatureIndex:
    """Every template expanded at every position of a run of sentences.

    The strings of each kind are distinct and in first-occurrence order
    (sentence, then position, then template).  Row i of uni_ids holds,
    per U template, the id of its string at token i in corpus order; row
    e of bi_ids does the same per B template for edge e, the label pair
    ending at a sentence's positions 1..T-1.
    """

    uni_strings: tuple[str, ...]
    bi_strings: tuple[str, ...]
    uni_ids: np.ndarray  # tokens x U templates, into uni_strings
    bi_ids: np.ndarray  # edges x B templates, into bi_strings


def index_features(
    sentences: Sequence[Sentence], templates: Sequence[FeatureTemplate]
) -> FeatureIndex:
    """Expand each template once over all the sentences.

    Each column a macro reads is laid out once with every sentence
    framed by pad sentinel cells on both sides, pad being the widest
    macro offset.  A macro at offset r then reads, for every position at
    once, the frame shifted by r; one str.format per template string
    joins the macro values, and equal strings share one id.
    """
    rows = [token.columns for sentence in sentences for token in sentence.tokens]
    macros = [m for t in templates for m in t.macros]
    width = len(rows[0]) if rows else 0
    for m in macros:
        if rows and m.col >= width:
            raise BadColumnError(
                "macro column %d out of range (width %d)" % (m.col, width)
            )
    pad = max((abs(m.row) for m in macros), default=0)
    # Frame slots index into a column's cells followed by the sentinels
    # _B-pad.._B-1 and _B+1.._B+pad; the masks mark the slots of tokens
    # and of the tokens that end an edge.
    n = len(rows)
    sentinels = ["_B%d" % -k for k in range(pad, 0, -1)]
    sentinels += ["_B+%d" % k for k in range(1, pad + 1)]
    slots: list[int] = []
    is_token: list[bool] = []
    is_edge: list[bool] = []
    start = 0
    for sentence in sentences:
        end = start + len(sentence)
        slots += [*range(n, n + pad), *range(start, end), *range(n + pad, n + 2 * pad)]
        is_token += [False] * pad + [True] * len(sentence) + [False] * pad
        is_edge += [False] * (pad + 1) + [True] * (len(sentence) - 1) + [False] * pad
        start = end
    frames = {}
    for col in {m.col for m in macros}:
        cells = [row[col] for row in rows] + sentinels
        frames[col] = list(map(cells.__getitem__, slots))

    def intern(kind, mask, size):
        streams = []
        for t in templates:
            if t.kind != kind:
                continue
            if not t.macros:
                streams.append(repeat(t.id, size))
                continue
            form = t.id + ":" + "/".join(["{}"] * len(t.macros))
            streams.append(map(form.format, *(
                compress(islice(frames[m.col], pad + m.row, None), islice(mask, pad, None))
                for m in t.macros
            )))
        # each string maps to the flat position of its first occurrence,
        # and those positions, in dict order, are renumbered 0, 1, ...
        first: dict[str, int] = {}
        flat = np.fromiter(
            map(first.setdefault, chain.from_iterable(zip(*streams)), count()),
            dtype=np.intp, count=size * len(streams),
        )
        dense = np.empty(len(flat), dtype=np.intp)
        dense[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = (
            np.arange(len(first))
        )
        return tuple(first), dense[flat].reshape(size, len(streams))

    uni_strings, uni_ids = intern("U", is_token, n)
    bi_strings, bi_ids = intern("B", is_edge, n - len(sentences))
    return FeatureIndex(uni_strings, bi_strings, uni_ids, bi_ids)


def _lookup(strings: tuple[str, ...], ids: np.ndarray) -> list[list[str]]:
    return np.array(strings, dtype=object)[ids].tolist()


def expand(template: FeatureTemplate, sentence: Sentence, position: int) -> str:
    """The feature string at one position: id, ':', macro values '/'-joined."""
    index = index_features((sentence,), (replace(template, kind="U"),))
    return index.uni_strings[index.uni_ids[position, 0]]


def active_features(
    templates: Sequence[FeatureTemplate], sentence: Sentence
) -> tuple[list[list[str]], list[list[str]]]:
    """Expanded strings per position: unigram lists for positions 0..T-1,
    bigram lists for the label pairs ending at positions 1..T-1."""
    index = index_features((sentence,), templates)
    return (_lookup(index.uni_strings, index.uni_ids),
            _lookup(index.bi_strings, index.bi_ids))


@dataclass(frozen=True)
class FeatureDictionary:
    """Weight layout for a label set and the retained feature strings."""

    labels: tuple[str, ...]
    uni_strings: tuple[str, ...]
    bi_strings: tuple[str, ...]
    counts: dict[str, int]
    cutoff: int

    def __post_init__(self):
        object.__setattr__(
            self, "_label_index", {label: i for i, label in enumerate(self.labels)}
        )
        object.__setattr__(self, "_uni_row", dict(zip(self.uni_strings, count())))
        object.__setattr__(self, "_bi_row", dict(zip(self.bi_strings, count())))

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_weights(self) -> int:
        n = self.n_labels
        return len(self.uni_strings) * n + len(self.bi_strings) * n * n

    def label_index(self, label: str) -> int | None:
        return self._label_index.get(label)

    def unigram_rows(self, strings: Sequence[str]) -> np.ndarray:
        """The block of each string among the unigram strings, -1 if absent."""
        return np.fromiter(map(self._uni_row.get, strings, repeat(-1)),
                           dtype=np.intp, count=len(strings))

    def bigram_rows(self, strings: Sequence[str]) -> np.ndarray:
        """The block of each string among the bigram strings, -1 if absent."""
        return np.fromiter(map(self._bi_row.get, strings, repeat(-1)),
                           dtype=np.intp, count=len(strings))

    def unigram_base(self, string: str) -> int | None:
        row = self._uni_row.get(string)
        return None if row is None else row * self.n_labels

    def bigram_base(self, string: str) -> int | None:
        row = self._bi_row.get(string)
        if row is None:
            return None
        n = self.n_labels
        return len(self.uni_strings) * n + row * n * n

    def unigram_index(self, string: str, label: int) -> int | None:
        base = self.unigram_base(string)
        return None if base is None else base + label

    def bigram_index(self, string: str, prev: int, cur: int) -> int | None:
        base = self.bigram_base(string)
        return None if base is None else base + prev * self.n_labels + cur


def build_dictionary(
    corpus: Corpus,
    templates: Sequence[FeatureTemplate],
    label_column: int,
    cutoff: int = 1,
    index: FeatureIndex | None = None,
) -> FeatureDictionary:
    """Count every expanded string; keep those seen at least cutoff times.

    Label order and string order follow first occurrence, so the layout
    is a pure function of (corpus, templates, cutoff).  An index already
    built from the corpus and templates spares a second expansion.
    """
    if index is None:
        index = index_features(corpus.sentences, templates)
    labels = dict.fromkeys(
        token.columns[label_column]
        for sentence in corpus.sentences
        for token in sentence.tokens
    )
    uni_counts = np.bincount(index.uni_ids.ravel(), minlength=len(index.uni_strings))
    bi_counts = np.bincount(index.bi_ids.ravel(), minlength=len(index.bi_strings))
    return FeatureDictionary(
        labels=tuple(labels),
        uni_strings=tuple(compress(index.uni_strings, uni_counts >= cutoff)),
        bi_strings=tuple(compress(index.bi_strings, bi_counts >= cutoff)),
        counts=dict(zip(index.uni_strings + index.bi_strings,
                        uni_counts.tolist() + bi_counts.tolist())),
        cutoff=cutoff,
    )
