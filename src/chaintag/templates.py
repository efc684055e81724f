"""Feature templates and the feature dictionary.

Templates follow the CRF++ file syntax: one template per line, an id
starting with 'U' (observation paired with the current label) or 'B'
(observation paired with the previous/current label pair), and macros
%x[row,col] substituting corpus cells relative to the current position.
Rows outside the sentence substitute boundary sentinels ("_B-1" before,
"_B+1" after), which parse_corpus and materialize_recipe refuse as cell
values.

index_features expands every template over a whole corpus in one pass
over interned cell ids, building a string only for each distinct key;
the dictionary counts its ids, the CRF encodes from it, and expand and
active_features are its views for one sentence (a one-sentence corpus,
such as select_sentences(corpus, [i])).

The dictionary assigns dense weight indices in blocks: each unigram
string owns one weight per label, each bigram string one weight per
label pair, unigram blocks first, both in first-occurrence order.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from itertools import chain, compress, count, repeat
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus
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
    """Every template expanded at every position of a corpus.

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
    corpus: Corpus, templates: Sequence[FeatureTemplate]
) -> FeatureIndex:
    """Expand each template once over all the corpus's sentences.

    Each column a macro reads is laid out once, every sentence framed by
    pad sentinel cells on both sides (pad being the widest macro offset),
    and each cell interned to an id; a macro at offset r reads the frame
    shifted by r.  The macro ids of each (position, template) cell make
    one integer key, one np.unique numbers the keys of all templates by
    first occurrence, and a string is built only for each distinct key.
    Distinct keys that spell one string ("a/b" + "c", "a" + "b/c") share
    the earliest key's id.
    """
    macros = [m for t in templates for m in t.macros]
    width = corpus.schema.width
    for m in macros:
        if m.col >= width:
            raise BadColumnError(
                "macro column %d out of range (width %d)" % (m.col, width)
            )
    pad = max((abs(m.row) for m in macros), default=0)
    n, n_sentences = corpus.n_tokens, corpus.n_sentences
    left = tuple("_B%d" % -k for k in range(pad, 0, -1))
    right = tuple("_B+%d" % k for k in range(1, pad + 1))
    cols = sorted({m.col for m in macros})
    framed = [tuple(chain.from_iterable(left + corpus.columns[c][start:end] + right
                                        for start, end in corpus.bounds)) for c in cols]
    size = n + 2 * pad * n_sentences
    # Ids count from 1.  Id 0 fills the macros a template lacks to reach
    # the widest template's count; a row of 0s after the columns' rows
    # stands for it in the frame, and it spells nothing.
    words = dict.fromkeys(chain.from_iterable(framed))
    frame = np.zeros((len(cols) + 1) * size, dtype=np.int64)
    frame[: len(cols) * size] = np.fromiter(
        map(dict(zip(words, count(1))).__getitem__, chain.from_iterable(framed)),
        dtype=np.int64, count=len(cols) * size,
    )
    at = np.arange(n) + np.repeat(pad + 2 * pad * np.arange(n_sentences),
                                  corpus.lengths)
    # U templates first; macro k of template j reads the id at frame slot
    # at[i] + reads[j, k] for token i
    ordered = [t for t in templates if t.kind == "U"]
    n_uni = len(ordered)
    ordered += [t for t in templates if t.kind != "U"]
    depth = max((len(t.macros) for t in ordered), default=0)
    row_of = {c: i * size for i, c in enumerate(cols)}
    reads = np.fromiter(chain.from_iterable(
        [row_of[m.col] + m.row for m in t.macros]
        + [len(cols) * size] * (depth - len(t.macros))
        for t in ordered
    ), dtype=np.intp, count=len(ordered) * depth).reshape(len(ordered), depth)
    # key = the template's index, then its macro ids in radix 1 + len(words);
    # keys are re-ranked densely whenever the next digit could pass 2**62
    radix = 1 + len(words)
    key = np.broadcast_to(np.arange(len(ordered)), (n, len(ordered)))
    span = len(ordered)
    for k in range(depth):
        if span * radix > 2**62:
            key = np.unique(key, return_inverse=True)[1].reshape(n, len(ordered))
            span = int(key.max()) + 1
        key = key * radix + frame[at[:, None] + reads[:, k]]
        span *= radix
    # U cells in (token, template) order, then B cells in (edge, template)
    # order; an edge ends at every token that does not start a sentence
    edges = np.delete(np.arange(n), [start for start, _ in corpus.bounds])
    flat = np.concatenate([key[:, :n_uni].ravel(), key[edges, n_uni:].ravel()])
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)[inverse]
    # each distinct key's string, spelled from the cell where it first occurs
    first = first[order]
    n_uni_cells = n * n_uni
    n_uni_keys = int(np.searchsorted(first, n_uni_cells))
    token, uni_template = np.divmod(first[:n_uni_keys], max(n_uni, 1))
    edge, bi_template = np.divmod(first[n_uni_keys:] - n_uni_cells,
                                  max(len(ordered) - n_uni, 1))
    token = np.concatenate([token, edges[edge]])
    template = np.concatenate([uni_template, bi_template + n_uni])
    spelled = np.array(["", *words], dtype=object)
    joined = np.array(["", *("/" + w for w in words)], dtype=object)
    strings = np.array([t.id + ":" if t.macros else t.id for t in ordered],
                       dtype=object)[template]
    for k in range(depth):
        strings += (joined if k else spelled)[frame[at[token] + reads[template, k]]]
    strings = strings.tolist()
    uni_strings = tuple(dict.fromkeys(strings[:n_uni_keys]))
    bi_strings = tuple(dict.fromkeys(strings[n_uni_keys:]))
    ids = dict(zip(uni_strings, count()))
    ids.update(zip(bi_strings, count()))
    rank = np.fromiter(map(ids.__getitem__, strings), dtype=np.intp,
                       count=len(strings))[rank]
    return FeatureIndex(
        uni_strings,
        bi_strings,
        rank[:n_uni_cells].reshape(n, n_uni),
        rank[n_uni_cells:].reshape(len(edges), len(ordered) - n_uni),
    )


def _lookup(strings: tuple[str, ...], ids: np.ndarray) -> list[list[str]]:
    return np.array(strings, dtype=object)[ids].tolist()


def expand(template: FeatureTemplate, corpus: Corpus, position: int) -> str:
    """The feature string at one token, by its position in corpus order:
    id, ':', macro values '/'-joined."""
    index = index_features(corpus, (replace(template, kind="U"),))
    return index.uni_strings[index.uni_ids[position, 0]]


def active_features(
    templates: Sequence[FeatureTemplate], corpus: Corpus
) -> tuple[list[list[str]], list[list[str]]]:
    """Expanded strings in corpus order: unigram lists per token, bigram
    lists per label pair, which for one sentence end at its positions
    1..T-1."""
    index = index_features(corpus, templates)
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
        index = index_features(corpus, templates)
    labels = dict.fromkeys(corpus.columns[label_column])
    uni_counts = np.bincount(index.uni_ids.ravel(), minlength=len(index.uni_strings))
    bi_counts = np.bincount(index.bi_ids.ravel(), minlength=len(index.bi_strings))
    return FeatureDictionary(
        labels=tuple(labels),
        uni_strings=tuple(compress(index.uni_strings, uni_counts >= cutoff)),
        bi_strings=tuple(compress(index.bi_strings, bi_counts >= cutoff)),
        counts={s: c for s, c in zip(index.uni_strings + index.bi_strings,
                                     uni_counts.tolist() + bi_counts.tolist())
                if c >= cutoff},
        cutoff=cutoff,
    )
