"""Versioned text serialization for trained models.

A model file is UTF-8: a header (format version, label alphabet, sigma,
iteration count, cutoff, template hash), the template text verbatim, the
retained feature strings with their corpus counts, and one weight per
line.  Weights are written with repr so the float round-trip is exact and
a reloaded model tags byte-identically.
"""

from __future__ import annotations

import numpy as np

from .crf import LinearChainModel
from .errors import ModelFormatError
from .templates import (
    FeatureDictionary,
    format_templates,
    parse_templates,
    template_hash,
)

MAGIC = "chaintag-model"
VERSION = 1


# Weight lines are rendered this many at a time.
_WEIGHTS_PER_CHUNK = 8192


def _model_lines(model: LinearChainModel):
    """The model file in pieces of whole lines, each ending in a newline."""
    d = model.dictionary
    template_text = format_templates(model.templates)
    yield "%s %d\n" % (MAGIC, VERSION)
    yield "labels\t" + "\t".join(d.labels) + "\n"
    yield "sigma\t" + repr(model.sigma) + "\n"
    yield "iterations\t%d\n" % model.iterations
    yield "cutoff\t%d\n" % d.cutoff
    yield "template-sha256\t" + template_hash(template_text) + "\n"
    yield "[templates]\n"
    yield template_text
    yield "[unigrams]\n"
    for s in d.uni_strings:
        yield "%s\t%d\n" % (s, d.counts[s])
    yield "[bigrams]\n"
    for s in d.bi_strings:
        yield "%s\t%d\n" % (s, d.counts[s])
    yield "[weights]\n"
    for lo in range(0, model.weights.size, _WEIGHTS_PER_CHUNK):
        chunk = model.weights[lo : lo + _WEIGHTS_PER_CHUNK].tolist()
        yield "".join([repr(w) + "\n" for w in chunk])


def format_model(model: LinearChainModel) -> str:
    return "".join(_model_lines(model))


def _header_value(lines: list[str], i: int, key: str) -> str:
    if i >= len(lines) or not lines[i].startswith(key + "\t"):
        raise ModelFormatError("expected %r line at line %d" % (key, i + 1))
    return lines[i].split("\t", 1)[1]


def parse_model(text: str) -> LinearChainModel:
    # Split on "\n" only, as parse_corpus does: str.splitlines would also
    # break at characters such as U+2028 that corpus cells may contain.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "%s %d" % (MAGIC, VERSION):
        raise ModelFormatError("not a %s version %d file" % (MAGIC, VERSION))
    labels = tuple(_header_value(lines, 1, "labels").split("\t"))
    try:
        sigma = float(_header_value(lines, 2, "sigma"))
        iterations = int(_header_value(lines, 3, "iterations"))
        cutoff = int(_header_value(lines, 4, "cutoff"))
    except ValueError as err:
        raise ModelFormatError("bad header number: %s" % err) from None
    stated_hash = _header_value(lines, 5, "template-sha256")
    sections: dict[str, list[str]] = {}
    current = None
    for lineno, line in enumerate(lines[6:], start=7):
        if line in ("[templates]", "[unigrams]", "[bigrams]", "[weights]"):
            if line in sections:
                raise ModelFormatError("duplicate section %s" % line)
            current = sections.setdefault(line, [])
            continue
        if current is None:
            raise ModelFormatError("line %d outside any section" % lineno)
        current.append(line)
    missing = [s for s in ("[templates]", "[unigrams]", "[bigrams]", "[weights]")
               if s not in sections]
    if missing:
        raise ModelFormatError("missing sections: %s" % ", ".join(missing))
    template_text = "\n".join(sections["[templates]"]) + "\n"
    if template_hash(template_text) != stated_hash:
        raise ModelFormatError("template hash does not match the template text")
    templates = parse_templates(template_text)
    counts: dict[str, int] = {}

    def strings_of(section: str) -> tuple[str, ...]:
        out = []
        for line in sections[section]:
            try:
                string, count = line.rsplit("\t", 1)
                counts[string] = int(count)
            except ValueError:
                raise ModelFormatError("bad feature line %r" % line) from None
            out.append(string)
        return tuple(out)

    dictionary = FeatureDictionary(
        labels=labels,
        uni_strings=strings_of("[unigrams]"),
        bi_strings=strings_of("[bigrams]"),
        counts=counts,
        cutoff=cutoff,
    )
    try:
        weights = np.fromiter(map(float, sections["[weights]"]), dtype=float)
    except ValueError as err:
        raise ModelFormatError("bad weight: %s" % err) from None
    if len(weights) != dictionary.n_weights:
        raise ModelFormatError(
            "expected %d weights, found %d" % (dictionary.n_weights, len(weights))
        )
    return LinearChainModel(
        dictionary=dictionary,
        templates=templates,
        weights=weights,
        sigma=sigma,
        iterations=iterations,
        trace=(),
    )


def save_model(model: LinearChainModel, path) -> None:
    """Write the file as format_model spells it, without holding it all."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_model_lines(model))


def load_model(path) -> LinearChainModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())
