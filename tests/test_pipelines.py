"""Tests for the direct, cascade, and decomposed learning strategies."""

import hashlib
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from chaintag.corpus import ColumnSchema, parse_corpus, write_corpus
from chaintag.crf import TrainingConfig
from chaintag.errors import (
    MissingColumnError,
    NoValidTupleError,
    PipelineConfigError,
    TrainingConfigError,
    UndecomposableTagError,
)
from chaintag import pipelines
from chaintag.pipelines import (
    NAMED_PIPELINES,
    STAGE_SOURCES,
    PipelineSpec,
    format_pipeline_spec,
    jackknife_stage_features,
    named_pipeline,
    parse_pipeline_spec,
    run_pipeline,
)
from chaintag.model_io import format_model
from chaintag.morphology import parse_recipe
from chaintag.tagschema import (
    bundled_schema,
    decompose,
    project_tag,
    repair,
    symbol_to_text,
)

SCHEMA3 = ColumnSchema(("mot", "lemme", "tag"))
FAST = TrainingConfig(max_iterations=30)

SENTENCE_A = "le\tle\tDETDEFMS\nchat\tchat\tNMS\ndort\tdormir\tVINDP3S"
SENTENCE_B = "une\tun\tDETINDFS\ntable\ttable\tNFS"
SENTENCE_C = "vous\tvous\tPPER2P\nmarchez\tmarcher\tVINDP2S\nvite\tvite\tADV"


def corpus_of(*blocks):
    return parse_corpus("\n\n".join(blocks), SCHEMA3)


def train_test_pair(repeats=6):
    blocks = (SENTENCE_A, SENTENCE_B, SENTENCE_C) * repeats
    return corpus_of(*blocks), corpus_of(SENTENCE_A, SENTENCE_B, SENTENCE_C)


# --- named configurations ---------------------------------------------


def test_registry_has_all_named_pipelines():
    assert sorted(NAMED_PIPELINES) == [
        "I", "II", "III", "IIIbis", "IV", "IVbis",
        "V", "VI", "VII", "VIII", "VIIIbis", "VIIbis",
    ]


def test_named_feature_recipes():
    texts = {i: NAMED_PIPELINES[i].recipe.text for i in NAMED_PIPELINES}
    assert texts["I"] == "mot,lemme"
    assert texts["II"] == "mot,lemme,Rmot,Rlemme"
    assert texts["III"] == "mot,lemme,Rmot|D2(mot),Rlemme|D3(lemme)"
    assert texts["IV"] == "mot,lemme,Rmot|D3(mot),Rlemme|D3(lemme)"
    assert texts["IIIbis"] == "mot,D3(mot)"
    assert texts["IVbis"] == "mot,D3(mot),D2(mot),D1(mot)"
    assert texts["V"] == "mot,lemme,D3(lemme)"
    assert texts["VI"] == "mot,Rmot,Rlemme,D3(mot),D3(lemme)"
    assert texts["VII"] == texts["VIII"] == "mot,lemme,D3(mot)"
    assert texts["VIIbis"] == texts["VIIIbis"] == "mot,D3(mot),D2(mot),D1(mot)"


def test_named_strategies_and_recombination():
    for i in ("I", "II", "III", "IV", "IIIbis", "IVbis"):
        assert NAMED_PIPELINES[i].strategy == "direct"
    for i in ("V", "VI"):
        assert NAMED_PIPELINES[i].strategy == "cascade"
    for i in ("VII", "VIIbis", "VIII", "VIIIbis"):
        assert NAMED_PIPELINES[i].strategy == "decomposed"
    assert NAMED_PIPELINES["VII"].recombination == "crf"
    assert NAMED_PIPELINES["VII"].recombiner_recipe.text == "mot,lemme"
    assert NAMED_PIPELINES["VIIbis"].recombiner_recipe.text == "mot"
    assert NAMED_PIPELINES["VIII"].recombination == "rules"
    assert NAMED_PIPELINES["VIIIbis"].recombination == "rules"


def test_named_pipeline_override_and_unknown():
    spec = named_pipeline("IV", seed=9, config=FAST)
    assert spec.seed == 9 and spec.config.max_iterations == 30
    assert named_pipeline("IV") is NAMED_PIPELINES["IV"]
    with pytest.raises(PipelineConfigError):
        named_pipeline("IX")


def test_spec_validation():
    recipe = parse_recipe("mot")
    with pytest.raises(PipelineConfigError):
        PipelineSpec("custom", "flat", recipe)
    with pytest.raises(PipelineConfigError):
        PipelineSpec("custom", "direct", recipe, stage_source="oracle")
    with pytest.raises(PipelineConfigError):
        PipelineSpec("custom", "direct", recipe, target="L3")
    with pytest.raises(PipelineConfigError):
        PipelineSpec("custom", "decomposed", recipe)
    with pytest.raises(PipelineConfigError):
        PipelineSpec("custom", "decomposed", recipe, recombination="crf")
    with pytest.raises(PipelineConfigError):
        PipelineSpec("custom", "direct", recipe, recombination="rules")
    with pytest.raises(PipelineConfigError):
        PipelineSpec("custom", "direct", recipe, jackknife_folds=1)
    # ids a spec file could not read back
    with pytest.raises(PipelineConfigError, match="unknown pipeline"):
        PipelineSpec("x", "direct", recipe)
    with pytest.raises(PipelineConfigError, match="'recipe' is fixed"):
        PipelineSpec("IV", "direct", recipe)
    with pytest.raises(PipelineConfigError, match="'target' is fixed"):
        named_pipeline("IVbis", target="L0")
    # label columns that the spec file would strip or split
    for label in ("", "  tag ", "tag\x85", "a\nb", "tag\u2028", "tag\r"):
        with pytest.raises(PipelineConfigError):
            PipelineSpec("custom", "direct", recipe, label_column=label)
        with pytest.raises(PipelineConfigError):
            named_pipeline("IV", label_column=label)
    assert named_pipeline("IV", label_column="a b").label_column == "a b"


# --- direct strategy --------------------------------------------------


def test_direct_appends_prediction_column():
    train_c, test_c = train_test_pair()
    res = run_pipeline(named_pipeline("IVbis", config=FAST), train_c, test_c)
    assert res.prediction_column == "ResL2"
    assert res.corpus.schema.names == ("mot", "lemme", "tag", "ResL2")
    assert len(res.corpus.column("ResL2")) == test_c.n_tokens
    assert test_c.schema.names == ("mot", "lemme", "tag")  # input untouched


def test_direct_separable_corpus_is_learned():
    train_c, test_c = train_test_pair()
    res = run_pipeline(named_pipeline("IVbis", config=FAST), train_c, test_c)
    assert res.corpus.column("ResL2") == test_c.column("tag")


def test_direct_templates_cannot_touch_the_label():
    train_c, test_c = train_test_pair()
    res = run_pipeline(named_pipeline("IVbis", config=FAST), train_c, test_c)
    model = res.models["L2"]
    n_observation_columns = len(named_pipeline("IVbis").recipe.column_names)
    assert max(m.col for t in model.templates for m in t.macros) == (
        n_observation_columns - 1)


def test_direct_needs_the_lemma_column_when_the_recipe_does():
    c = parse_corpus("le\tDETDEFMS\nchat\tNMS", ColumnSchema(("mot", "tag")))
    with pytest.raises(MissingColumnError):
        run_pipeline(named_pipeline("I", config=FAST), c, c)


def test_direct_lower_target_needs_a_schema():
    train_c, test_c = train_test_pair()
    spec = replace(named_pipeline("IVbis", config=FAST), id="custom", target="L0")
    with pytest.raises(PipelineConfigError):
        run_pipeline(spec, train_c, test_c)
    schema = bundled_schema()
    res = run_pipeline(spec, train_c, test_c, schema)
    assert res.prediction_column == "ResL0"
    expected = [project_tag(schema, t, "L0") for t in test_c.column("tag")]
    assert res.corpus.column("ResL0") == expected


def test_direct_is_deterministic():
    train_c, test_c = train_test_pair()
    spec = named_pipeline("IVbis", config=FAST)
    first = run_pipeline(spec, train_c, test_c)
    second = run_pipeline(spec, train_c, test_c)
    assert first.corpus.column("ResL2") == second.corpus.column("ResL2")
    assert first.template_hashes == second.template_hashes


# --- cascade strategy -------------------------------------------------


def test_cascade_produces_all_three_result_columns():
    train_c, test_c = train_test_pair()
    schema = bundled_schema()
    spec = named_pipeline("V", config=FAST, jackknife_folds=2)
    res = run_pipeline(spec, train_c, test_c, schema)
    assert res.prediction_column == "ResL012"
    assert res.corpus.schema.names == (
        "mot", "lemme", "tag", "ResL0", "ResL01", "ResL012"
    )
    assert res.corpus.column("ResL012") == test_c.column("tag")
    expected_l0 = [project_tag(schema, t, "L0") for t in test_c.column("tag")]
    assert res.corpus.column("ResL0") == expected_l0
    assert sorted(res.models) == ["L0", "L1", "L2"]


def test_cascade_requires_a_schema():
    train_c, test_c = train_test_pair()
    with pytest.raises(PipelineConfigError):
        run_pipeline(named_pipeline("V", config=FAST), train_c, test_c)


def test_cascade_stage_sources():
    train_c, test_c = train_test_pair(repeats=3)
    schema = bundled_schema()
    for source in ("gold", "predicted", "jackknifed"):
        spec = named_pipeline(
            "V", config=FAST, stage_source=source, jackknife_folds=2
        )
        res = run_pipeline(spec, train_c, test_c, schema)
        assert [s.source for s in res.stages] == [source, source]
        assert [s.stage for s in res.stages] == ["ResL0", "ResL01"]
        assert all(len(s.values) == train_c.n_tokens for s in res.stages)


def test_cascade_gold_stage_features_are_the_projected_gold():
    train_c, test_c = train_test_pair(repeats=3)
    schema = bundled_schema()
    spec = named_pipeline("V", config=FAST, stage_source="gold")
    res = run_pipeline(spec, train_c, test_c, schema)
    expected = tuple(project_tag(schema, t, "L0") for t in train_c.column("tag"))
    assert res.stages[0].values == expected


# --- decomposed strategy ----------------------------------------------


def test_decomposed_rules_outputs_stay_in_the_inventory():
    train_c, test_c = train_test_pair()
    schema = bundled_schema()
    res = run_pipeline(named_pipeline("VIII", config=FAST), train_c, test_c, schema)
    assert res.prediction_column == "ResL2"
    assert res.corpus.schema.names == (
        "mot", "lemme", "tag",
        "ResG0", "ResG1", "ResG2", "ResG3", "ResL2",
    )
    inventory = set(schema.l2)
    assert set(res.corpus.column("ResL2")) <= inventory
    assert res.corpus.column("ResL2") == test_c.column("tag")
    assert sorted(res.models) == ["G0", "G1", "G2", "G3"]


def test_decomposed_component_columns_match_the_decomposition():
    train_c, test_c = train_test_pair()
    schema = bundled_schema()
    res = run_pipeline(named_pipeline("VIII", config=FAST), train_c, test_c, schema)
    for t, tag in enumerate(test_c.column("tag")):
        ct = decompose(schema, tag)
        assert res.corpus.column("ResG0")[t] == ct.g0


def test_decomposed_crf_recombination():
    train_c, test_c = train_test_pair()
    schema = bundled_schema()
    spec = named_pipeline("VII", config=FAST, jackknife_folds=2)
    res = run_pipeline(spec, train_c, test_c, schema)
    assert res.corpus.column("ResL2") == test_c.column("tag")
    assert sorted(res.models) == ["G0", "G1", "G2", "G3", "L2"]
    assert [s.stage for s in res.stages] == ["ResG0", "ResG1", "ResG2", "ResG3"]


def test_decomposed_untrained_models_repair_to_the_smallest_tag():
    # Zero-weight components give uniform marginals, so every reachable
    # tuple scores the same and the tie falls to the smallest tag whose
    # components were all seen in training.
    train_c, test_c = train_test_pair(repeats=1)
    schema = bundled_schema()
    spec = named_pipeline("VIII", config=TrainingConfig(max_iterations=0))
    res = run_pipeline(spec, train_c, test_c, schema)
    pools = [
        {label for label in res.models["G%d" % k].labels} for k in range(4)
    ]
    reachable = [
        t for t in schema.l2
        if all(
            symbol_to_text(decompose(schema, t).component(k)) in pools[k]
            for k in range(4)
        )
    ]
    assert set(res.corpus.column("ResL2")) == {min(reachable)}


_PROBABILITIES = st.sampled_from([0.0, 1e-320, 0.25, 0.5, 1.0]) | st.floats(0, 1)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rule_recombination_picks_what_repair_picks(data):
    """_repair_tags scores every token at once; tagschema.repair, token by
    token, is its oracle.  Labels are drawn from each component's alphabet
    in any order, marginals from a few values that tie and from [0, 1]."""
    schema = bundled_schema()
    seeds = data.draw(st.lists(st.sampled_from(schema.l2), max_size=3))
    lengths = data.draw(st.lists(st.integers(1, 4), max_size=4))
    models, nodes = {}, []
    for k in range(4):
        alphabet = [symbol_to_text(s) for s in schema.components(k)]
        labels = {symbol_to_text(decompose(schema, t).component(k)) for t in seeds}
        labels |= set(data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=4)))
        labels = data.draw(st.permutations(sorted(labels)))
        size = sum(lengths) * len(labels)
        node = np.array(data.draw(st.lists(_PROBABILITIES, min_size=size, max_size=size)))
        nodes.append(node.reshape(-1, len(labels)))
        models["G%d" % k] = SimpleNamespace(labels=tuple(labels), sentences=np.split(
            nodes[-1], np.cumsum(lengths[:-1])) if lengths else [])
    expected = []
    for rows in zip(*nodes):
        try:
            expected.append(repair(schema, [
                list(zip(models["G%d" % k].labels, np.log(np.maximum(row, 1e-300))))
                for k, row in enumerate(rows)]))
        except NoValidTupleError:
            expected.append(None)
    with patch.object(pipelines, "marginals", lambda model, view: model.sentences):
        try:
            got = pipelines._repair_tags(schema, models, None)
        except NoValidTupleError:  # no valid tag is formable at all
            assert all(tag is None for tag in expected)
            return
    assert got == expected


def test_decomposed_needs_decomposable_training_tags():
    bad = parse_corpus("mot\tmot\tXXX", SCHEMA3)
    with pytest.raises(UndecomposableTagError):
        run_pipeline(
            named_pipeline("VIII", config=FAST), bad, bad, bundled_schema()
        )


def test_decomposed_requires_a_schema():
    train_c, test_c = train_test_pair()
    with pytest.raises(PipelineConfigError):
        run_pipeline(named_pipeline("VIII", config=FAST), train_c, test_c)


# --- jackknifed stage features ----------------------------------------


def jackknife_view(*blocks):
    c = parse_corpus("\n\n".join(blocks), SCHEMA3)
    return c


def test_jackknife_covers_every_training_sentence():
    view = jackknife_view(SENTENCE_A, SENTENCE_B, SENTENCE_C, SENTENCE_A)
    pred = jackknife_stage_features(view, FAST, k=2, seed=0)
    assert pred.source == "jackknifed"
    assert pred.stage == "tag"
    assert len(pred.values) == view.n_tokens


def test_jackknife_leave_one_out_never_sees_its_own_sentence():
    # With two sentences and two folds, each model trains on the other
    # sentence only, so a label unique to the held-out sentence cannot
    # be predicted.
    first = "aaa\taaa\tNMS\nbbb\tbbb\tNFS"
    second = "ccc\tccc\tADV\nddd\tddd\tVINF"
    view = jackknife_view(first, second)
    pred = jackknife_stage_features(view, FAST, k=2, seed=0)
    labels_first, labels_second = pred.values[:2], pred.values[2:]
    assert set(labels_first) <= {"ADV", "VINF"}
    assert set(labels_second) <= {"NMS", "NFS"}


def test_jackknife_clamps_folds_to_the_sentence_count():
    view = jackknife_view(SENTENCE_A, SENTENCE_B)
    pred = jackknife_stage_features(view, FAST, k=10, seed=0)
    assert len(pred.values) == view.n_tokens


def test_jackknife_needs_two_sentences():
    view = jackknife_view(SENTENCE_A)
    with pytest.raises(PipelineConfigError):
        jackknife_stage_features(view, FAST, k=5, seed=0)


def test_jackknife_is_deterministic():
    view = jackknife_view(SENTENCE_A, SENTENCE_B, SENTENCE_C, SENTENCE_B)
    a = jackknife_stage_features(view, FAST, k=2, seed=3)
    b = jackknife_stage_features(view, FAST, k=2, seed=3)
    assert a == b


# --- spec files -------------------------------------------------------


def test_spec_round_trip_named():
    spec = named_pipeline("VII", seed=4, jackknife_folds=3,
                          config=TrainingConfig(sigma=2.0, max_iterations=50))
    assert parse_pipeline_spec(format_pipeline_spec(spec)) == spec


def test_spec_round_trip_custom():
    spec = PipelineSpec(
        "custom", "decomposed", parse_recipe("mot,D2(mot)"),
        recombination="rules", stage_source="gold", label_column="etiquette",
    )
    assert parse_pipeline_spec(format_pipeline_spec(spec)) == spec


def test_spec_file_with_just_an_id():
    spec = parse_pipeline_spec("[pipeline]\nid = IVbis\n")
    assert spec == NAMED_PIPELINES["IVbis"]


def test_spec_file_training_overrides():
    text = "[pipeline]\nid = I\n[training]\nsigma = 0.5\nmax_iterations = 12\n"
    spec = parse_pipeline_spec(text)
    assert spec.config.sigma == 0.5
    assert spec.config.max_iterations == 12
    assert spec.config.cutoff == 1


def test_spec_file_errors():
    with pytest.raises(PipelineConfigError):
        parse_pipeline_spec("[pipeline]\nid = IX\n")
    with pytest.raises(PipelineConfigError):
        parse_pipeline_spec("[pipeline]\nid = I\nbogus = 1\n")
    with pytest.raises(PipelineConfigError):
        parse_pipeline_spec("[pipeline]\nid = I\n[extra]\nx = 1\n")
    with pytest.raises(PipelineConfigError):
        parse_pipeline_spec("[pipeline]\nid = I\nstrategy = cascade\n")
    with pytest.raises(PipelineConfigError):
        parse_pipeline_spec("[pipeline]\nid = custom\ntarget = L2\n")
    with pytest.raises(PipelineConfigError):
        parse_pipeline_spec("[training]\nsigma = 1.0\n")
    with pytest.raises(PipelineConfigError):
        parse_pipeline_spec("[pipeline]\nid = I\n[training]\nsigma = huge\n")
    with pytest.raises(PipelineConfigError):
        parse_pipeline_spec("not an ini file")


def test_spec_fields_the_strategy_ignores_are_refused():
    recipe = parse_recipe("mot")
    for strategy in ("cascade", "decomposed"):
        with pytest.raises(PipelineConfigError, match="target L0"):
            PipelineSpec("custom", strategy, recipe, target="L0",
                         recombination="rules" if strategy == "decomposed" else None)
    with pytest.raises(PipelineConfigError, match="recipe"):
        PipelineSpec("custom", "decomposed", recipe, recombination="rules",
                     recombiner_recipe=recipe)
    with pytest.raises(PipelineConfigError, match="recipe"):
        PipelineSpec("custom", "direct", recipe, recombiner_recipe=recipe)
    assert PipelineSpec("custom", "direct", recipe, target="L0").target == "L0"
    for text in ("strategy = cascade\nrecipe = mot\ntarget = L1\n",
                 "id = V\ntarget = L0\n",
                 "strategy = decomposed\nrecipe = mot\nrecombination = rules\n"
                 "recombiner_recipe = mot\n",
                 "id = VIII\nrecombiner_recipe = mot\n"):
        with pytest.raises(PipelineConfigError):
            parse_pipeline_spec("[pipeline]\n" + text)


def test_spec_file_accepts_matching_fixed_keys():
    text = "[pipeline]\nid = I\nstrategy = direct\nrecipe = mot,lemme\n"
    assert parse_pipeline_spec(text) == NAMED_PIPELINES["I"]


_FLOATS = st.one_of(
    st.floats(1e-150, 1e150), st.floats(),
    st.sampled_from([1e-300, 1e-160, 1e-154, 5e-324, 1e154, 1e160]),
)
_LABELS = st.one_of(
    st.sampled_from(["tag", "a b", "étiquette"]), st.text(max_size=6),
    # what configparser strips values of or splits them at
    st.text(st.sampled_from(" \t\r\n\x0b\x85\u2028\u3000ab"), max_size=4),
)
_RECIPES = st.sampled_from(["mot", "mot,lemme", "mot,D2(mot)", "mot,Rmot|D3(mot)"])


@st.composite
def spec_builders(draw):
    """A thunk building a named or custom spec from drawn fields."""
    config = dict(
        sigma=draw(_FLOATS), tolerance=draw(_FLOATS),
        max_iterations=draw(st.integers(-1, 400)), cutoff=draw(st.integers(0, 4)),
    )
    fields = dict(
        label_column=draw(_LABELS),
        seed=draw(st.integers()),
        jackknife_folds=draw(st.integers(1, 12)),
        stage_source=draw(st.sampled_from(STAGE_SOURCES)),
    )
    pipeline_id = draw(st.sampled_from(sorted(NAMED_PIPELINES) + ["custom"])
                       | st.text(max_size=8))
    fixed = dict(
        strategy=draw(st.sampled_from(["direct", "cascade", "decomposed"])),
        recipe=parse_recipe(draw(_RECIPES)),
        target=draw(st.sampled_from(["L0", "L1", "L2"])),
        recombination=draw(st.sampled_from([None, "crf", "rules"])),
        recombiner_recipe=draw(st.none() | _RECIPES.map(parse_recipe)),
    )
    if pipeline_id in NAMED_PIPELINES:  # override some of the fixed fields
        for key in set(fixed) - draw(st.sets(st.sampled_from(sorted(fixed)))):
            fixed[key] = getattr(NAMED_PIPELINES[pipeline_id], key)
    fields.update(fixed)

    def build():
        fields["config"] = TrainingConfig(**config)
        return PipelineSpec(pipeline_id, **fields)

    return build


@given(spec_builders())
@settings(max_examples=500, deadline=None)
def test_every_spec_that_can_be_built_survives_its_file_format(build):
    try:
        spec = build()
    except (PipelineConfigError, TrainingConfigError):
        return
    assert parse_pipeline_spec(format_pipeline_spec(spec)) == spec


# --- pinned outputs ---------------------------------------------------

# sha256 over the result corpus, every model file (in model-key order)
# and every stage's (stage, source, values), for each strategy, target,
# recombination and stage source.  The model files are version 2; with
# version 1 model text (no evaluations or stop line) each run hashes to
# the digest pinned before the format change.
PINNED_RUNS = {
    "IVbis-jackknifed-L0":
        "9b847cc6a626cb006c568e8ae5fc6b19ec6828ad4a2bdd9aefb520e64209d682",
    "V-gold-L2":
        "c990703e56e88125181cb820b046c85223315b0a198d71b862c831e6ed777621",
    "V-jackknifed-L2":
        "41b83d04dce94fba9f082f61e17581cb19005f32b8f9d202c21cc3303d10aa4f",
    "V-predicted-L2":
        "abb269e6d79f21c69b76aa168f3ccb4a50ff1aca17210a197d656b3c71122a91",
    "VII-jackknifed-L2":
        "7b69d15d3f7865a1045ffb1c937a490fb76d34a91b3d15faf37e05fc21c4ea4c",
    "VII-predicted-L2":
        "b2635efba68c3e5c5cd9d07bddc8365a9404e903a727bc3a8b540c3bb64e709b",
    "VIII-jackknifed-L2":
        "dd793052320cd8fe3e9a9f6fc4cf7557ba21d1a28eef97255f3643fa29cc2ce6",
}


def pipeline_digest(result):
    h = hashlib.sha256(write_corpus(result.corpus).encode("utf-8"))
    for key in sorted(result.models):
        h.update(format_model(result.models[key]).encode("utf-8"))
    for s in result.stages:
        h.update(repr((s.stage, s.source, s.values)).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_pipeline_outputs_are_pinned(run):
    pipeline_id, source, target = run.split("-")
    train_c, test_c = train_test_pair(repeats=3)
    spec = replace(named_pipeline(pipeline_id), id="custom", config=FAST,
                   stage_source=source, target=target, jackknife_folds=2)
    res = run_pipeline(spec, train_c, test_c, bundled_schema())
    assert pipeline_digest(res) == PINNED_RUNS[run]
