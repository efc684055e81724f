"""Model file round-trips and format validation."""

import hashlib
import random
import re
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


class TestByteIdentity:
    """Digests of version 2 model files trained with the packed
    forward-backward and the objective read off the lattice scores (gold
    label and label-pair statistics).  Training from the same corpus and
    templates must keep writing these exact bytes; a kernel or objective
    that sums in another order moves the weights in their last digits, and
    so these digests.  The toy corpus has fewer tokens than unigram
    strings, so it trains on token coordinates; the c10 stage has more,
    and trains on the weights."""

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
            "bbcf2117ba65639c897066b9e7c1b39d62336f35d1365b6f16b1b0210864c2fe"
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
            "4dda491db9e32056cbe452f6a0c26e0e2dad224d27e61bb66eaeaa2ad3a1fb26"
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
        assert format_model(model).startswith("chaintag-model 2\n")

    def test_version_1_file_reads_with_the_outcome_unknown(self):
        loaded = parse_model(V1_MODEL)
        assert (loaded.stop, loaded.evaluations) == ("", 0)
        assert loaded.labels == ("D", "N") and loaded.iterations == 3
        assert loaded.weights.tolist() == [
            float(w) for w in V1_MODEL.split("[weights]\n")[1].split()
        ]
        # version 2 adds the two outcome lines and changes nothing else
        assert strip_outcome(format_model(loaded)) == V1_MODEL

    def test_file_without_its_final_newline_is_accepted(self, model):
        text = format_model(model)
        loaded = parse_model(text[:-1])
        assert np.array_equal(loaded.weights, model.weights)
        assert format_model(loaded) == text

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
            parse_model(text.replace("chaintag-model 2", "chaintag-model 3", 1))

    def test_missing_section_rejected(self, model):
        text = format_model(model).replace("[bigrams]\n", "", 1)
        with pytest.raises(ModelFormatError):
            parse_model(text)

    def test_tampered_templates_rejected(self, model):
        text = format_model(model).replace("U02:%x[0,0]", "U02:%x[1,0]", 1)
        with pytest.raises(ModelFormatError):
            parse_model(text)

    def test_wrong_weight_count_rejected(self, model):
        text = format_model(model)
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(ModelFormatError):
            parse_model(truncated)

    def test_unparseable_weight_rejected(self, model):
        lines = format_model(model).splitlines()
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
        head, body = format_model(model).split("[weights]\n")
        lines = edit(body.split("\n")[:-1])
        with pytest.raises(ModelFormatError):
            parse_model(head + "[weights]\n" + "\n".join(lines) + "\n")

    def test_blank_section_of_one_weight_rejected(self):
        """numpy reads text of whitespace alone as [-1.]."""
        d = FeatureDictionary(("D",), ("U00:le",), (), {"U00:le": 1}, 1)
        one = LinearChainModel(d, parse_templates("U00:%x[0,0]\n"), np.ones(1), 1.0, 0)
        text = format_model(one)
        assert parse_model(text).weights.tolist() == [1.0]
        with pytest.raises(ModelFormatError):
            parse_model(text.replace("[weights]\n1.0\n", "[weights]\n\n"))


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
    text = format_model(weighted(weights))
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
