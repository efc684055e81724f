"""Versioned text serialization for trained models.

A model file is UTF-8: a header (format version, label alphabet, sigma,
iteration count, objective calls and stop reason, cutoff, template hash),
the template text verbatim, the retained feature strings with their
corpus counts, and one weight per line.  Weights are written with repr so
the float round-trip is exact and a reloaded model tags byte-identically.

Reading parses the header and the template and feature sections line by
line, and the weight section, always last, in one numpy pass, so a reload
holds no Python object per weight.  Version 1 files, written before the
optimizer outcome was kept, still read, with the outcome unknown ("", 0).
"""

from __future__ import annotations

import warnings

import numpy as np

from .corpus import read_text
from .crf import LinearChainModel
from .errors import ModelFormatError
from .templates import (
    FeatureDictionary,
    format_templates,
    parse_templates,
    template_hash,
)

MAGIC = "chaintag-model"
VERSION = 2

# The header lines after the magic line, by format version.
_HEADER_KEYS = {
    1: ("labels", "sigma", "iterations", "cutoff", "template-sha256"),
    2: ("labels", "sigma", "iterations", "evaluations", "stop", "cutoff",
        "template-sha256"),
}
_SECTIONS = ("[templates]", "[unigrams]", "[bigrams]")
_WEIGHTS = "\n[weights]\n"
# numpy's text reader takes any run of whitespace as one separator (and
# reads text of whitespace alone as [-1.]), and reads "nan(...)", which
# float() refuses.  In weight text with none of these characters and no
# blank line, each separator is one newline, so numpy reads one number per
# line, as float() reads it, or fails.
_NOT_IN_WEIGHTS = (" ", "\t", "\r", "\x0b", "\x0c", "(")


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
    yield "evaluations\t%d\n" % model.evaluations
    yield "stop\t%s\n" % model.stop
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


def _parse_weights(body: str, n: int) -> np.ndarray:
    """The n weights of a weight section, one per line, in one numpy pass.
    Refuses every section that float() on each line refuses."""
    if (body.startswith("\n") or "\n\n" in body
            or any(c in body for c in _NOT_IN_WEIGHTS)):
        raise ModelFormatError("weights must be one number per line, with no"
                               " blank line, space, tab or parenthesis")
    try:
        # older numpy releases only warn when they stop at an unreadable token
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            weights = np.fromstring(body, sep="\n")
    except (ValueError, DeprecationWarning) as err:
        raise ModelFormatError("bad weight: %s" % err) from None
    if weights.size != n:
        raise ModelFormatError("expected %d weights, found %d" % (n, weights.size))
    return weights


def parse_model(text: str) -> LinearChainModel:
    if not text.endswith("\n"):  # a file may lack its final newline
        text += "\n"
    cut = text.find(_WEIGHTS)
    # Split on "\n" only, as parse_corpus does: str.splitlines would also
    # break at characters such as U+2028 that corpus cells may contain.
    head = text[: cut + 1] if cut >= 0 else text
    lines = head.split("\n")[:-1]  # the last is the "" after the final newline
    versions = {"%s %d" % (MAGIC, v): v for v in _HEADER_KEYS}
    if not lines or lines[0] not in versions:
        raise ModelFormatError("not a %s version 1 or %d file" % (MAGIC, VERSION))
    keys = _HEADER_KEYS[versions[lines[0]]]
    header = {key: _header_value(lines, i, key) for i, key in enumerate(keys, 1)}
    labels = tuple(header["labels"].split("\t"))
    try:
        sigma = float(header["sigma"])
        iterations = int(header["iterations"])
        evaluations = int(header.get("evaluations", 0))
        cutoff = int(header["cutoff"])
    except ValueError as err:
        raise ModelFormatError("bad header number: %s" % err) from None
    sections: dict[str, list[str]] = {}
    current = None
    for lineno, line in enumerate(lines[len(keys) + 1 :], start=len(keys) + 2):
        if line in _SECTIONS:
            if line in sections:
                raise ModelFormatError("duplicate section %s" % line)
            current = sections.setdefault(line, [])
            continue
        if current is None:
            raise ModelFormatError("line %d outside any section" % lineno)
        current.append(line)
    missing = [s for s in _SECTIONS if s not in sections]
    if cut < 0:
        missing.append("[weights]")
    if missing:
        raise ModelFormatError("missing sections: %s" % ", ".join(missing))
    template_text = "\n".join(sections["[templates]"]) + "\n"
    if template_hash(template_text) != header["template-sha256"]:
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
    return LinearChainModel(
        dictionary=dictionary,
        templates=templates,
        weights=_parse_weights(text[cut + len(_WEIGHTS) :], dictionary.n_weights),
        sigma=sigma,
        iterations=iterations,
        trace=(),
        stop=header.get("stop", ""),
        evaluations=evaluations,
    )


def save_model(model: LinearChainModel, path) -> None:
    """Write the file as format_model spells it, without holding it all."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_model_lines(model))


def load_model(path) -> LinearChainModel:
    return parse_model(read_text(path, "model"))
