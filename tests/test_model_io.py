"""Model file round-trips and format validation."""

import hashlib
import random
import re
import string
import struct
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chaintag.corpus import (
    ColumnSchema,
    append_column,
    load_corpus,
    parse_corpus,
    save_corpus,
    select_columns,
)
from chaintag.crf import LinearChainModel, TrainingConfig, tag, train
from chaintag.errors import (
    CorpusFormatError,
    EmptyCorpusError,
    EncodingError,
    ModelFormatError,
)
from chaintag.model_io import (
    format_model,
    load_model,
    parse_model,
    save_model,
)
from chaintag.morphology import materialize_recipe
from chaintag.pipelines import named_pipeline
from chaintag.tagschema import bundled_schema, project_tag
from chaintag.templates import FeatureDictionary, default_templates, parse_templates
from test_acceptance import _cascade_corpus

CORPUS = parse_corpus(
    "le\tD\nsel\tN\nfond\tV\n\nla\tD\nmer\tN\n\nle\tD\nfond\tV\n",
    ColumnSchema(("mot", "tag")),
)


@pytest.fixture(scope="module")
def model():
    templates = parse_templates(default_templates([0]))
    return train(CORPUS, templates, TrainingConfig(max_iterations=60))


def v2_text(model):
    """The model file as version 2 wrote it, one repr per weight line: the
    oracle of the version 2 reader, and of the weights behind a digest."""
    head = format_model(model).split("[weights]\n")[0]
    assert head.startswith("chaintag-model 3\n")
    return ("chaintag-model 2\n" + head[len("chaintag-model 3\n"):] + "[weights]\n"
            + "".join(repr(w) + "\n" for w in model.weights.tolist()))


class TestByteIdentity:
    """Digests of version 3 model files trained with the packed
    forward-backward and the objective read off the lattice scores (gold
    label and label-pair statistics).  Training from the same corpus and
    templates must keep writing these exact bytes; a kernel, objective or
    optimizer direction that sums in another order moves the weights in
    their last digits, and so these digests (the direction is numpy's dot
    and matrix-vector products, and the two-loop recursion on their
    coefficients).  The toy corpus has fewer tokens than unigram
    strings, so it trains on token coordinates, its scores read off the
    Gram image the optimizer carries; the c10 stage has more, and trains
    on the weights."""

    @staticmethod
    def digest(model, tmp_path):
        path = tmp_path / "m.model"
        save_model(model, path)
        data = path.read_bytes()
        assert data == format_model(model).encode("utf-8")
        return hashlib.sha256(data).hexdigest()

    def test_toy_corpus_with_the_default_templates(self, tmp_path):
        text = resources.files("chaintag.data").joinpath("toy.tsv").read_text("utf-8")
        toy = parse_corpus(text, ColumnSchema(("mot", "lemme", "tag")))
        model = train(toy, parse_templates(default_templates(range(2))))
        assert self.digest(model, tmp_path) == (
            "c8ad4961cde320e2701102dc9706fd13a7d7df0eb8d53d393a0506a8ae5f1c02"
        )

    def test_first_cascade_stage_on_the_c10_corpus(self, tmp_path):
        """Pipeline V's L0 model: the recipe's columns, L0 gold last."""
        spec = named_pipeline("V")
        corpus = _cascade_corpus(300, random.Random(10))
        gold = [project_tag(bundled_schema(), t, "L0") for t in corpus.column("tag")]
        view = select_columns(
            append_column(materialize_recipe(corpus, spec.recipe), "L0", gold),
            spec.recipe.column_names + ("L0",),
        )
        model = train(
            view,
            parse_templates(default_templates(range(3))),
            TrainingConfig(sigma=10.0, max_iterations=80, tolerance=1e-6),
        )
        assert self.digest(model, tmp_path) == (
            "f321dabdce8ac75d4459eb932f2d4a89c8e0a2301ff71308d87c0429b1efc721"
        )


# A version 1 file, written before the optimizer outcome was kept: three
# L-BFGS steps on two sentences.
V1_MODEL = (
    "chaintag-model 1\nlabels\tD\tN\nsigma\t1.0\niterations\t3\ncutoff\t1\n"
    "template-sha256\t27f89c3e82d92480653385ffb74fdf7350edb1e0ee09a70cf161a0dea35d1f0b\n"
    "[templates]\nU00:%x[0,0]\nB\n[unigrams]\nU00:le\t1\nU00:mer\t2\nU00:la\t1\n"
    "[bigrams]\nB\t2\n[weights]\n0.23282295728629623\n-0.23282295728629615\n"
    "-0.39607740293503\n0.3960774029350301\n0.23282295728629623\n"
    "-0.23282295728629615\n-0.22993754393195634\n0.6955834585045486\n"
    "-0.16613985900307365\n-0.29950605556951865\n"
)


# A version 2 file: four L-BFGS steps on CORPUS with "U00:%x[0,0]\nB\n".
V2_MODEL = (
    "chaintag-model 2\nlabels\tD\tN\tV\nsigma\t1.0\niterations\t4\nevaluations\t5\n"
    "stop\tmax_iterations\ncutoff\t1\n"
    "template-sha256\t27f89c3e82d92480653385ffb74fdf7350edb1e0ee09a70cf161a0dea35d1f0b\n"
    "[templates]\nU00:%x[0,0]\nB\n[unigrams]\nU00:le\t2\nU00:sel\t1\nU00:fond\t2\n"
    "U00:la\t1\nU00:mer\t1\n[bigrams]\nB\t4\n[weights]\n0.6388573073036548\n"
    "-0.3479887066663833\n-0.2908686006372714\n-0.20142568760087454\n0.3827231381722123\n"
    "-0.18129745057133778\n-0.2995998628185773\n-0.4328980495839605\n0.7324979124025378\n"
    "0.37688260504885046\n-0.2000435144484705\n-0.17683909060038003\n"
    "-0.17336096840179385\n0.41207872932150186\n-0.23871776091970798\n"
    "-0.2854584275366165\n0.8267642908317556\n0.27300836145649154\n"
    "-0.21494581570121382\n-0.24893708809067586\n0.29857382084924833\n"
    "-0.17398227558341545\n-0.21592338483132612\n-0.2590994813942476\n"
)


def strip_outcome(text):
    """A version 2 file as version 1 wrote it: no evaluations or stop line."""
    v1, n = re.subn(r"\Achaintag-model 2\n((?:[^\n]*\n){3})evaluations\t\d+\nstop\t[^\n]*\n",
                    r"chaintag-model 1\n\1", text)
    assert n == 1
    return v1


class TestRoundTrip:
    def test_weights_survive_exactly(self, model):
        loaded = parse_model(format_model(model))
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.labels == model.labels
        assert loaded.sigma == model.sigma
        assert loaded.iterations == model.iterations
        assert loaded.dictionary == model.dictionary
        assert loaded.templates == model.templates

    def test_tagging_behavior_is_preserved(self, model, tmp_path):
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert tag(loaded, CORPUS) == tag(model, CORPUS)

    def test_format_is_stable(self, model):
        assert format_model(model) == format_model(parse_model(format_model(model)))

    def test_optimizer_outcome_survives_the_file(self, model):
        assert model.stop and model.evaluations > model.iterations
        loaded = parse_model(format_model(model))
        assert (loaded.stop, loaded.evaluations) == (model.stop, model.evaluations)
        assert format_model(model).startswith("chaintag-model 3\n")

    def test_version_1_file_reads_with_the_outcome_unknown(self):
        loaded = parse_model(V1_MODEL)
        assert (loaded.stop, loaded.evaluations) == ("", 0)
        assert loaded.labels == ("D", "N") and loaded.iterations == 3
        assert loaded.weights.tolist() == [
            float(w) for w in V1_MODEL.split("[weights]\n")[1].split()
        ]
        # version 2 adds the two outcome lines and changes nothing else
        assert strip_outcome(v2_text(loaded)) == V1_MODEL

    def test_version_2_file_resaves_as_version_3_with_the_same_weights(self, tmp_path):
        path = tmp_path / "v2.model"
        path.write_text(V2_MODEL, encoding="utf-8")
        loaded = load_model(path)
        assert (loaded.stop, loaded.evaluations) == ("max_iterations", 5)
        assert v2_text(loaded) == V2_MODEL  # so the weights are the file's
        save_model(loaded, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("chaintag-model 3\n") and text.isascii()
        assert text.split("[weights]\n")[0] == V2_MODEL.split("[weights]\n")[0].replace(
            "chaintag-model 2", "chaintag-model 3", 1)
        assert load_model(path).weights.tobytes() == loaded.weights.tobytes()

    def test_file_without_its_final_newline_is_accepted(self, model):
        for write in (v2_text, format_model):
            text = write(model)
            loaded = parse_model(text[:-1])
            assert np.array_equal(loaded.weights, model.weights)
            assert write(loaded) == text

    def test_zero_weight_model_round_trips(self):
        templates = parse_templates("U00:%x[0,0]\nB\n")
        model = train(CORPUS, templates, TrainingConfig(max_iterations=0))
        loaded = parse_model(format_model(model))
        assert not loaded.weights.any()
        assert loaded.dictionary == model.dictionary

    def test_cutoff_model_round_trips_its_dictionary(self):
        text = resources.files("chaintag.data").joinpath("toy.tsv").read_text("utf-8")
        toy = parse_corpus(text, ColumnSchema(("mot", "lemme", "tag")))
        model = train(toy, parse_templates(default_templates(range(2))),
                      TrainingConfig(max_iterations=5, cutoff=2))
        d = model.dictionary
        assert list(d.counts) == list(d.uni_strings + d.bi_strings)
        assert min(d.counts.values()) >= 2
        assert parse_model(format_model(model)).dictionary == d


# Line and record separators that str.splitlines breaks at but a corpus
# cell may hold.
SEPARATORS = ["\u2028", "\x85", "\x0c", "\x1c", "\x1d", "\x1e", "\r"]
CELLS = st.text(
    st.one_of(
        st.sampled_from(SEPARATORS),
        st.characters(blacklist_characters="\t\n"),
    ),
    min_size=1,
    max_size=4,
)


# The padding templates read outside a sentence, which parse_corpus refuses.
SENTINEL_LIKE = re.compile(r"_B[-+][1-9][0-9]*")
CELLS_OR_SENTINELS = st.one_of(CELLS, st.sampled_from(["_B-1", "_B+1", "_B-2"]))


@given(sentences=st.lists(
    st.lists(st.tuples(CELLS_OR_SENTINELS, CELLS_OR_SENTINELS), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_parsed_corpus_round_trips_through_a_model(sentences, tmp_path):
    text = "\n\n".join(
        "\n".join("%s\t%s" % (word, label) for word, label in sentence)
        for sentence in sentences
    ) + "\n"
    schema = ColumnSchema(("mot", "tag"))
    try:
        corpus = parse_corpus(text, schema)
    except EmptyCorpusError:  # every line began with "#", a header
        return
    except CorpusFormatError:
        # a carriage return that no CRLF ending accounts for, or a cell
        # spelled like a boundary sentinel
        lines = [line.rstrip("\r") for line in text.split("\n")]
        assert any("\r" in line for line in lines) or any(
            SENTINEL_LIKE.fullmatch(cell) for line in lines for cell in line.split("\t")
        )
        return
    assert not any(
        SENTINEL_LIKE.fullmatch(cell)
        for cells in corpus.columns for cell in cells
    )
    save_corpus(corpus, tmp_path / "c.tsv")
    assert load_corpus(tmp_path / "c.tsv", schema) == corpus
    templates = parse_templates(default_templates([0]))
    model = train(corpus, templates, TrainingConfig(max_iterations=3))
    assert tag(parse_model(format_model(model)), corpus) == tag(model, corpus)
    save_model(model, tmp_path / "m.model")
    assert tag(load_model(tmp_path / "m.model"), corpus) == tag(model, corpus)


class TestValidation:
    def test_bad_magic_rejected(self, model):
        text = format_model(model)
        with pytest.raises(ModelFormatError):
            parse_model(text.replace("chaintag-model", "something-else", 1))
        with pytest.raises(ModelFormatError):
            parse_model(text.replace("chaintag-model 3", "chaintag-model 4", 1))

    def test_missing_section_rejected(self, model):
        text = format_model(model).replace("[bigrams]\n", "", 1)
        with pytest.raises(ModelFormatError):
            parse_model(text)

    def test_tampered_templates_rejected(self, model):
        text = format_model(model).replace("U02:%x[0,0]", "U02:%x[1,0]", 1)
        with pytest.raises(ModelFormatError):
            parse_model(text)

    def test_wrong_weight_count_rejected(self, model):
        for write in (v2_text, format_model):
            truncated = "\n".join(write(model).splitlines()[:-1]) + "\n"
            with pytest.raises(ModelFormatError):
                parse_model(truncated)

    def test_unparseable_weight_rejected(self, model):
        for write in (v2_text, format_model):
            lines = write(model).splitlines()
            lines[-1] = "not-a-number"
            with pytest.raises(ModelFormatError):
                parse_model("\n".join(lines) + "\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model("")

    @pytest.mark.parametrize("pattern, replacement, message", [
        (r"^cutoff\t.*\n", "", "expected 'cutoff' line at line 7"),
        (r"^iterations\t.*$", "iterations\tmany", "bad header number"),
        (r"^\[bigrams\]$", "[bigrams]\n[unigrams]", "duplicate section \\[unigrams\\]"),
        (r"^\[templates\]$", "stray\n[templates]", "line 9 outside any section"),
        (r"^\[unigrams\]$", "[unigrams]\nno-count", "bad feature line 'no-count'"),
        (r"^\[bigrams\]$", "[bigrams]\nB:x\tmany", "bad feature line"),
    ], ids=["missing header line", "bad header number", "duplicate section",
            "line outside any section", "feature line without a count",
            "feature count not a number"])
    def test_malformed_head_rejected(self, model, pattern, replacement, message):
        text = re.sub(pattern, replacement, format_model(model), count=1, flags=re.M)
        with pytest.raises(ModelFormatError, match=message):
            parse_model(text)

    def test_non_utf8_file_names_itself(self, model, tmp_path):
        path = tmp_path / "latin1.model"
        text = format_model(model).replace("le\t", "l\xe9\t", 1)
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(EncodingError, match="latin1.model"):
            load_model(path)

    # A missing weight and a non-number: the two tests above.
    @pytest.mark.parametrize("edit", [
        lambda w: w[:1] + [""] + w[1:],
        lambda w: [w[0] + " " + w[1]] + w[2:],
        lambda w: [w[0] + "\t" + w[1]] + w[2:],
        lambda w: w + ["0.5"],
        lambda w: w[:1] + ["[weights]"] + w[2:],
        lambda w: w[:1] + ["nan(1)"] + w[2:],
    ], ids=["blank line", "space-joined", "tab-joined", "one extra", "second section",
            "nan with payload"])
    def test_malformed_weight_section_rejected(self, model, edit):
        head, body = v2_text(model).split("[weights]\n")
        lines = edit(body.split("\n")[:-1])
        with pytest.raises(ModelFormatError):
            parse_model(head + "[weights]\n" + "\n".join(lines) + "\n")

    def test_blank_section_of_one_weight_rejected(self):
        """numpy reads text of whitespace alone as [-1.]."""
        d = FeatureDictionary(("D",), ("U00:le",), (), {"U00:le": 1}, 1)
        one = LinearChainModel(d, parse_templates("U00:%x[0,0]\n"), np.ones(1), 1.0, 0)
        text = v2_text(one)
        assert parse_model(text).weights.tolist() == [1.0]
        with pytest.raises(ModelFormatError):
            parse_model(text.replace("[weights]\n1.0\n", "[weights]\n\n"))
        with pytest.raises(ModelFormatError):
            parse_model(format_model(one).replace("[weights]\nAAAAAAAA8D8=\n", "[weights]\n\n"))


def float_per_line(body, n):
    """The weight section as float() reads each line: the reader that the
    one-pass parse replaced, kept as its oracle."""
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    weights = np.array([float(line) for line in lines], dtype=float)
    if weights.size != n:
        raise ValueError("expected %d weights" % n)
    return weights


SMALL = parse_model(V1_MODEL)  # 10 weights


def weighted(weights):
    return LinearChainModel(SMALL.dictionary, SMALL.templates, np.asarray(weights, float),
                            SMALL.sigma, SMALL.iterations)


EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                     0.30000000000000004, 1.2345678901234567e-100]),
)


@given(weights=st.lists(EXTREME_FLOATS, min_size=10, max_size=10))
@settings(max_examples=200, deadline=None)
def test_weights_read_as_float_reads_each_line(weights):
    text = v2_text(weighted(weights))
    loaded = parse_model(text).weights
    oracle = float_per_line(text.split("[weights]\n")[1], 10)
    assert np.array_equal(loaded, oracle)
    assert loaded.tobytes() == oracle.tobytes() == np.asarray(weights, float).tobytes()


# Lines that float() reads and numpy's one-pass reader might read
# differently, and damage that either reader might let through.
ODD_LINES = st.sampled_from([
    "", " ", "1.5 2", "1\t2", " 1.5", "1.5\r", "\x0c2", "\x0b", "1_0", "nan(7)", "nan",
    "-inf", "Infinity", "1e", "1.5e3", ".5", "5.", "+1", "--1", "0x10", "\u0663",
    "[weights]", "[bigrams]", "1-2",
])


@given(lines=st.lists(EXTREME_FLOATS.map(repr), min_size=10, max_size=10),
       edits=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 2), ODD_LINES),
                      max_size=2),
       final_newline=st.booleans())
@settings(max_examples=300, deadline=None)
def test_weight_parse_is_never_looser_than_float_per_line(lines, edits, final_newline):
    for at, width, line in edits:  # width 0 inserts the line, 2 also drops one
        lines[at : at + width] = [line]
    head = V1_MODEL.split("[weights]\n")[0] + "[weights]\n"
    body = "\n".join(lines) + ("\n" if final_newline else "")
    try:
        oracle = float_per_line(body, 10)
    except ValueError:
        with pytest.raises(ModelFormatError):
            parse_model(head + body)
        return
    try:
        loaded = parse_model(head + body).weights
    except ModelFormatError:  # stricter than float(): whitespace, "1_0", non-ASCII digits
        return
    assert loaded.tobytes() == oracle.tobytes()


# --- version 3: the weights as base64 of little-endian float64 ----------

def with_weights(n_strings):
    """A two-label model with n_strings unigram strings, so 2 * n_strings + 4
    seeded normal weights."""
    strings = tuple("U00:w%d" % i for i in range(n_strings))
    d = FeatureDictionary(("D", "N"), strings, ("B",), dict.fromkeys(strings + ("B",), 1), 1)
    weights = np.random.default_rng(n_strings).normal(size=d.n_weights)
    return LinearChainModel(d, parse_templates("U00:%x[0,0]\nB\n"), weights, 1.0, 0)


def split_weights(text):
    head, body = text.split("[weights]\n")
    return head + "[weights]\n", body


# 7,406 weights: a section of two chunks, the first of 1,024 lines, whose
# last line ends in "==".
LARGE = with_weights(3701)
LARGE_HEAD, LARGE_BODY = split_weights(format_model(LARGE))
CHUNK_END = 1024 * 77  # where the second chunk's text starts
B64 = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


def at(body, i, new, width=1):
    return body[:i] + new + body[i + width:]


def padding_bits_set(body):
    """Sets the lowest bit of the last data character before "==", which
    base64.encodebytes always leaves 0."""
    assert body.endswith("==\n")
    return at(body, len(body) - 4, B64[B64.index(body[-4]) | 1])


def line_break_one_early(body):
    """Moves the first chunk's last newline one character earlier."""
    assert body[CHUNK_END - 1] == "\n"
    return body[: CHUNK_END - 2] + "\n" + body[CHUNK_END - 2] + body[CHUNK_END:]


@pytest.mark.parametrize("mutate", [
    lambda b: at(b, 76, ""),
    lambda b: at(b, 76, "\n\n"),
    lambda b: b + "\n",
    lambda b: at(at(b, 75, ""), 77, "A", 0),
    line_break_one_early,
    lambda b: at(b, 10, " "),
    lambda b: at(b, 10, "\t"),
    lambda b: at(b, 75, "\r"),
    lambda b: at(b, 10, "\r\n"),
    lambda b: at(b, 8, "="),
    lambda b: at(b, 8, "==", 2),
    lambda b: at(b, 10, "-"),
    lambda b: at(b, 10, "_"),
    lambda b: at(b, 10, "\xe9"),
    lambda b: at(b, 10, "\uff21"),
    padding_bits_set,
    lambda b: b[:-3] + "AA\n",
    lambda b: split_weights(format_model(with_weights(3700)))[1],
    lambda b: split_weights(format_model(with_weights(3702)))[1],
    lambda b: b[:-77],
    lambda b: "",
], ids=["missing newline", "extra newline", "extra newline at the end", "line too long",
        "line break across the chunk boundary", "space", "tab", "carriage return",
        "carriage return before a newline", "= inside", "== inside", "non-alphabet -",
        "non-alphabet _", "non-ASCII letter", "full-width letter", "padding bits set",
        "padding read as data", "two weights fewer", "two weights more", "one line fewer",
        "empty section"])
def test_version_3_section_not_as_written_rejected(mutate):
    body = mutate(LARGE_BODY)
    assert body != LARGE_BODY
    with pytest.raises(ModelFormatError):
        parse_model(LARGE_HEAD + body)


# Bit patterns as the float64 weights they spell: -0.0, the smallest
# subnormal, the negative subnormal farthest from 0, +-1e308, +-inf, a
# signalling NaN with payload 1, a negative quiet NaN with payload 0xdead,
# and the NaN with every payload bit set.
SPECIAL_BITS = [
    struct.unpack("<Q", struct.pack("<d", x))[0]
    for x in (-0.0, 5e-324, -2.225073858507201e-308, 1e308, -1e308, np.inf, -np.inf)
] + [0x7FF0000000000001, 0xFFF800000000DEAD, 0x7FFFFFFFFFFFFFFF]


def from_bits(bits):
    return np.array(bits, np.uint64).view(np.float64)


def test_version_3_special_weights_read_back_bit_for_bit():
    text = format_model(weighted(from_bits(SPECIAL_BITS)))
    assert parse_model(text).weights.view(np.uint64).tolist() == SPECIAL_BITS


WEIGHT_BITS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS))


@given(bits=st.lists(WEIGHT_BITS, min_size=10, max_size=10))
@settings(max_examples=200, deadline=None)
def test_version_3_weights_read_back_bit_for_bit(bits):
    loaded = parse_model(format_model(weighted(from_bits(bits)))).weights
    assert loaded.view(np.uint64).tolist() == bits


# Characters of the base64 alphabet, its padding, whitespace and line
# breaks, and characters outside it.
SECTION_CHARS = st.text(st.sampled_from(list("AB/+09az=\n \t\r\x0b\x0c-_.:\xe9\u2028")),
                        max_size=3)
# Edits near the start of a section, the end of its first chunk or (at a
# negative offset from the start) its end: two characters swapped,
# characters overwritten, or a splice.
EDITS = st.tuples(st.sampled_from([0, CHUNK_END]), st.integers(-80, 80),
                  st.sampled_from(["swap", "overwrite", "splice"]), st.integers(0, 2),
                  SECTION_CHARS)


def edited(body, anchor, offset, kind, width, new):
    i = (anchor + offset) % (len(body) + 1)
    if kind == "swap":
        return body[:i] + body[i + 1 : i + 2] + body[i : i + 1] + body[i + 2 :]
    return at(body, i, new, len(new) if kind == "overwrite" else width)


@given(bits=st.lists(WEIGHT_BITS, min_size=10, max_size=10),
       large=st.booleans(),
       edits=st.lists(EDITS, min_size=1, max_size=3))
@settings(max_examples=1000, deadline=None)
def test_version_3_section_is_accepted_only_as_written(bits, large, edits):
    """An edited section is refused, or it is what the writer writes for the
    weights it reads as (the file may lack its final newline)."""
    if large:
        head, body = LARGE_HEAD, LARGE_BODY
    else:
        head, body = split_weights(format_model(weighted(from_bits(bits))))
    for edit in edits:
        body = edited(body, *edit)
    text = head + body
    try:
        loaded = parse_model(text)
    except ModelFormatError:
        return
    assert format_model(loaded) == (text if text.endswith("\n") else text + "\n")


def test_reload_memory_is_bounded_by_the_file_size(tmp_path):
    """No Python object per weight: reloading 125k weights, 112 labels by
    1,000 strings as in a direct model over a wide tagset, peaks at less
    than three times the file's bytes (one str per weight line took ~5.8×)."""
    strings = tuple("U00:w%d" % i for i in range(1000))
    d = FeatureDictionary(
        labels=tuple("L%d" % i for i in range(112)),
        uni_strings=strings,
        bi_strings=("B",),
        counts=dict.fromkeys(strings + ("B",), 1),
        cutoff=1,
    )
    weights = np.random.default_rng(0).normal(size=d.n_weights)
    model = LinearChainModel(d, parse_templates("U00:%x[0,0]\nB\n"), weights, 1.0, 0)
    path = tmp_path / "m.model"
    save_model(model, path)
    tracemalloc.start()
    try:
        loaded = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.weights, weights)
    assert weights.size >= 100_000
    assert peak <= 3 * path.stat().st_size
