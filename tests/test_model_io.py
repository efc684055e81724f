"""Model file round-trips and format validation."""

import hashlib
import random
import re
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
from chaintag.crf import TrainingConfig, tag, train
from chaintag.errors import CorpusFormatError, EmptyCorpusError, ModelFormatError
from chaintag.model_io import (
    format_model,
    load_model,
    parse_model,
    save_model,
)
from chaintag.morphology import materialize_recipe
from chaintag.pipelines import named_pipeline
from chaintag.tagschema import bundled_schema, project_tag
from chaintag.templates import default_templates, parse_templates
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
    """Digests of model files trained with the packed forward-backward.
    Training from the same corpus and templates must keep writing these
    exact bytes; a kernel that sums in another order moves the weights in
    their last digits, and so these digests."""

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
            "86dccc67bb7a30f658ecf74c435839b87fee5efd94386e01a6032ba45242cc2e"
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
            "cdb4b404d516778a33f52b24f47a9cc2421565a0198ae2543fa9ca14ff9fe6f6"
        )


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

    def test_optimizer_outcome_stays_in_memory(self, model):
        assert model.stop and model.evaluations > model.iterations
        loaded = parse_model(format_model(model))
        assert (loaded.stop, loaded.evaluations) == ("", 0)
        assert format_model(model).startswith("chaintag-model 1\n")

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
        text = format_model(model).replace("chaintag-model 1", "something-else 1", 1)
        with pytest.raises(ModelFormatError):
            parse_model(text)

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
