"""Feature templates and the feature dictionary.

Templates follow the CRF++ file syntax: one template per line, an id
starting with 'U' (observation paired with the current label) or 'B'
(observation paired with the previous/current label pair), and macros
%x[row,col] substituting corpus cells relative to the current position.
Rows outside the sentence substitute boundary sentinels ("_B-1" before,
"_B+1" after), which parse_corpus refuses as cell values.

The dictionary assigns dense weight indices in blocks: each unigram
string owns one weight per label, each bigram string one weight per
label pair, unigram blocks first, both in first-occurrence order.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _cell(sentence: Sentence, position: int, macro: Macro, width: int) -> str:
    if macro.col >= width:
        raise BadColumnError(
            "macro column %d out of range (width %d)" % (macro.col, width)
        )
    row = position + macro.row
    if row < 0:
        return "_B%d" % row
    if row >= len(sentence):
        return "_B+%d" % (row - len(sentence) + 1)
    return sentence.tokens[row].columns[macro.col]


def expand(template: FeatureTemplate, sentence: Sentence, position: int) -> str:
    """The feature string at one position: id, ':', macro values '/'-joined."""
    if not template.macros:
        return template.id
    width = len(sentence.tokens[0].columns)
    values = [_cell(sentence, position, m, width) for m in template.macros]
    return "%s:%s" % (template.id, "/".join(values))


def active_features(
    templates: Sequence[FeatureTemplate], sentence: Sentence
) -> tuple[list[list[str]], list[list[str]]]:
    """Expanded strings per position: unigram lists for positions 0..T-1,
    bigram lists for the label pairs ending at positions 1..T-1."""
    uni_templates = [t for t in templates if t.kind == "U"]
    bi_templates = [t for t in templates if t.kind == "B"]
    uni = [
        [expand(t, sentence, i) for t in uni_templates]
        for i in range(len(sentence))
    ]
    bi = [
        [expand(t, sentence, i) for t in bi_templates]
        for i in range(1, len(sentence))
    ]
    return uni, bi


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
        n = len(self.labels)
        object.__setattr__(
            self, "_uni_base", {s: i * n for i, s in enumerate(self.uni_strings)}
        )
        start = len(self.uni_strings) * n
        object.__setattr__(
            self,
            "_bi_base",
            {s: start + i * n * n for i, s in enumerate(self.bi_strings)},
        )

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_weights(self) -> int:
        n = self.n_labels
        return len(self.uni_strings) * n + len(self.bi_strings) * n * n

    def label_index(self, label: str) -> int | None:
        return self._label_index.get(label)

    def unigram_base(self, string: str) -> int | None:
        return self._uni_base.get(string)

    def bigram_base(self, string: str) -> int | None:
        return self._bi_base.get(string)

    def unigram_index(self, string: str, label: int) -> int | None:
        base = self._uni_base.get(string)
        return None if base is None else base + label

    def bigram_index(self, string: str, prev: int, cur: int) -> int | None:
        base = self._bi_base.get(string)
        return None if base is None else base + prev * self.n_labels + cur


def build_dictionary(
    corpus: Corpus,
    templates: Sequence[FeatureTemplate],
    label_column: int,
    cutoff: int = 1,
) -> FeatureDictionary:
    """Scan the corpus once; keep strings seen at least cutoff times.

    Label order and string order follow first occurrence, so the layout
    is a pure function of (corpus, templates, cutoff).
    """
    labels: dict[str, None] = {}
    uni_counts: dict[str, int] = {}
    bi_counts: dict[str, int] = {}
    for sentence in corpus.sentences:
        for token in sentence.tokens:
            labels.setdefault(token.columns[label_column], None)
        uni, bi = active_features(templates, sentence)
        for strings in uni:
            for s in strings:
                uni_counts[s] = uni_counts.get(s, 0) + 1
        for strings in bi:
            for s in strings:
                bi_counts[s] = bi_counts.get(s, 0) + 1
    return FeatureDictionary(
        labels=tuple(labels),
        uni_strings=tuple(s for s, c in uni_counts.items() if c >= cutoff),
        bi_strings=tuple(s for s, c in bi_counts.items() if c >= cutoff),
        counts={**uni_counts, **bi_counts},
        cutoff=cutoff,
    )
