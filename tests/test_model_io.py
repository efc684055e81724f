"""Model file round-trips and format validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaintag.corpus import ColumnSchema, parse_corpus
from chaintag.crf import TrainingConfig, tag, train
from chaintag.errors import EmptyCorpusError, ModelFormatError
from chaintag.model_io import (
    format_model,
    load_model,
    parse_model,
    save_model,
)
from chaintag.templates import default_templates, parse_templates

CORPUS = parse_corpus(
    "le\tD\nsel\tN\nfond\tV\n\nla\tD\nmer\tN\n\nle\tD\nfond\tV\n",
    ColumnSchema(("mot", "tag")),
)


@pytest.fixture(scope="module")
def model():
    templates = parse_templates(default_templates([0]))
    return train(CORPUS, templates, TrainingConfig(max_iterations=60))


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

    def test_zero_weight_model_round_trips(self):
        templates = parse_templates("U00:%x[0,0]\nB\n")
        model = train(CORPUS, templates, TrainingConfig(max_iterations=0))
        loaded = parse_model(format_model(model))
        assert not loaded.weights.any()
        assert loaded.dictionary == model.dictionary


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


@given(st.lists(
    st.lists(st.tuples(CELLS, CELLS), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
))
@settings(max_examples=25, deadline=None)
def test_any_parsed_corpus_round_trips_through_a_model(sentences):
    text = "\n\n".join(
        "\n".join("%s\t%s" % (word, label) for word, label in sentence)
        for sentence in sentences
    ) + "\n"
    try:
        corpus = parse_corpus(text, ColumnSchema(("mot", "tag")))
    except EmptyCorpusError:  # every line began with "#", a header
        return
    templates = parse_templates(default_templates([0]))
    model = train(corpus, templates, TrainingConfig(max_iterations=3))
    loaded = parse_model(format_model(model))
    assert tag(loaded, corpus) == tag(model, corpus)


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
