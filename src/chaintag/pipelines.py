"""The three learning strategies as named, reproducible configurations.

Direct: one CRF learns the target level from morphological feature
columns.  Cascade: three CRFs learn L0, then L1 with the L0 result as an
extra column, then L2 with both results.  Decomposed: four CRFs learn the
tag components g0..g3 independently; a fifth CRF or the symbolic
composition rules recombine them into a full tag.

Each strategy is a plan: the list of its CRF stages in training order.
A stage names its model key, its result column, its feature recipe, its
gold labels and the earlier result columns it reads.  ``run_pipeline``
runs every plan with one loop.  A stage trains on its recipe columns,
then its input columns, with the gold label last under the result
column's name, so gold labels never reach feature extraction.  It then
tags the test view and appends the result column (ResL0/ResL01/ResL012
for cascades, ResG0..ResG3 and ResL2 for decomposition, Res<level> for
direct runs).  A result column that a later stage reads gets its
training values from the spec's stage source: the gold labels, the
stage's own predictions, or predictions jackknifed over internal folds
(stacked sequential learning).

Template expansion depends only on a view's observation columns, so
stages with the same recipe and input columns share one feature index of
the training view and one of the test view: the four components of a
decomposed plan, which differ only in their gold labels, are expanded
and encoded once per corpus.  A jackknife gathers its folds' rows from
its stage's training index and starts each fold at the stage model.
"""

from __future__ import annotations

import configparser
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from numbers import Integral
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, append_column, select_columns, select_sentences
from .crf import (
    LinearChainModel,
    TrainingConfig,
    marginals,
    tag,
    train,
)
from .errors import PipelineConfigError
from .evaluation import kfold_split
from .morphology import RECIPES, FeatureRecipe, materialize_recipe, parse_recipe
from .tagschema import (
    TagSchema,
    decompose,
    project_tag,
    repair,
    symbol_to_text,
)
from .templates import (
    FeatureIndex,
    FeatureTemplate,
    default_templates,
    fitting_index,
    index_features,
    parse_templates,
    select_index,
    template_hash,
)

STRATEGIES = ("direct", "cascade", "decomposed")
STAGE_SOURCES = ("jackknifed", "gold", "predicted")
COMPONENT_RECIPE_WITH_LEMMA = "mot,lemme,D3(mot)"
COMPONENT_RECIPE_WITHOUT_LEMMA = "mot,D3(mot),D2(mot),D1(mot)"


@dataclass(frozen=True)
class PipelineSpec:
    id: str
    strategy: str
    recipe: FeatureRecipe
    target: str = "L2"
    recombination: str | None = None  # "crf" | "rules" for decomposed
    recombiner_recipe: FeatureRecipe | None = None
    stage_source: str = "jackknifed"
    jackknife_folds: int = 5
    config: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0
    label_column: str = "tag"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise PipelineConfigError("unknown strategy %r" % self.strategy)
        if self.stage_source not in STAGE_SOURCES:
            raise PipelineConfigError("unknown stage source %r" % self.stage_source)
        if self.target not in ("L0", "L1", "L2"):
            raise PipelineConfigError("unknown target %r" % self.target)
        if self.strategy == "decomposed":
            if self.recombination not in ("crf", "rules"):
                raise PipelineConfigError(
                    "decomposed pipelines need recombination crf or rules"
                )
        elif self.recombination is not None:
            raise PipelineConfigError(
                "recombination only applies to decomposed pipelines"
            )
        # the fields that only some strategies read
        if (self.recombination == "crf") != (self.recombiner_recipe is not None):
            raise PipelineConfigError("crf recombination, and only it, takes a recipe")
        if self.target != "L2" and self.strategy != "direct":
            raise PipelineConfigError(
                "target %s only applies to direct pipelines" % self.target)
        if not isinstance(self.jackknife_folds, Integral) or self.jackknife_folds < 2:
            raise PipelineConfigError("jackknife_folds must be an integer of at "
                                      "least 2, got %r" % (self.jackknife_folds,))
        if not isinstance(self.seed, Integral):
            raise PipelineConfigError("seed must be an integer, got %r" % (self.seed,))
        # the spec file format strips values and ends them at line breaks
        if self.label_column.strip().splitlines() != [self.label_column]:
            raise PipelineConfigError("unusable label column %r" % self.label_column)
        # a spec file names a pipeline by its id, which fixes these fields
        if self.id != "custom":
            for key, value in zip(_FIXED, _fixed_by(self.id)):
                if getattr(self, key) != value:
                    raise PipelineConfigError("%r is fixed to %r by pipeline %s" % (
                        key, getattr(value, "text", value), self.id))


def _fixed_by(pipeline_id: str) -> tuple:
    """The values a named pipeline fixes, in the order of _FIXED."""
    if pipeline_id not in _NAMED:
        raise PipelineConfigError("unknown pipeline %r (have %s)"
                                  % (pipeline_id, ", ".join(sorted(_NAMED))))
    return _NAMED[pipeline_id]


# The fields each named pipeline fixes, in the order of _FIXED.
_FIXED = ("strategy", "recipe", "target", "recombination", "recombiner_recipe")
_NAMED = {
    **{_id: ("direct", RECIPES[_id], "L2", None, None)
       for _id in ("I", "II", "III", "IV", "IIIbis", "IVbis")},
    "V": ("cascade", parse_recipe("mot,lemme,D3(lemme)"), "L2", None, None),
    "VI": ("cascade", parse_recipe("mot,Rmot,Rlemme,D3(mot),D3(lemme)"), "L2",
           None, None),
    "VII": ("decomposed", parse_recipe(COMPONENT_RECIPE_WITH_LEMMA), "L2", "crf",
            parse_recipe("mot,lemme")),
    "VIIbis": ("decomposed", parse_recipe(COMPONENT_RECIPE_WITHOUT_LEMMA), "L2",
               "crf", parse_recipe("mot")),
    "VIII": ("decomposed", parse_recipe(COMPONENT_RECIPE_WITH_LEMMA), "L2",
             "rules", None),
    "VIIIbis": ("decomposed", parse_recipe(COMPONENT_RECIPE_WITHOUT_LEMMA), "L2",
                "rules", None),
}
NAMED_PIPELINES = {_id: PipelineSpec(_id, *fields) for _id, fields in _NAMED.items()}


def named_pipeline(pipeline_id: str, **overrides) -> PipelineSpec:
    _fixed_by(pipeline_id)  # refuses an unknown id
    spec = NAMED_PIPELINES[pipeline_id]
    return replace(spec, **overrides) if overrides else spec


@dataclass(frozen=True)
class StagePrediction:
    stage: str
    values: tuple[str, ...]
    source: str  # "gold" | "predicted" | "jackknifed"
    stops: tuple[str, ...] = ()  # the jackknife's fold models' stop reasons


@dataclass(eq=False)
class PipelineResult:
    corpus: Corpus
    prediction_column: str
    timings: dict[str, float]
    stages: tuple[StagePrediction, ...]
    models: dict[str, LinearChainModel]
    template_hashes: dict[str, str]
    audit: tuple[str, ...]


@dataclass(frozen=True)
class _Stage:
    """One CRF of a plan: it learns gold from the recipe's columns and the
    earlier stages' result columns named in inputs, and its prediction
    becomes the result column."""

    key: str
    column: str
    recipe: FeatureRecipe
    gold: Sequence[str]
    inputs: tuple[str, ...] = ()


@contextmanager
def _timed(timings: dict[str, float], phase: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[phase] += time.perf_counter() - t0


def _flat(values_per_sentence: Sequence[Sequence[str]]) -> list[str]:
    return [v for sentence in values_per_sentence for v in sentence]


def _stage_templates(view: Corpus) -> tuple[tuple[FeatureTemplate, ...], str]:
    """The generated templates over the columns of a view whose last
    column is the label, and the hash of their text."""
    text = default_templates(range(view.schema.width - 1))
    return parse_templates(text), template_hash(text)


def jackknife_stage_features(
    view: Corpus, config: TrainingConfig, k: int, seed: int,
    start: LinearChainModel | None = None, index: FeatureIndex | None = None,
) -> StagePrediction:
    """Predict the view's label column for every training sentence using
    a model trained on the other internal folds.

    Each fold starts at start, the stage model trained on the whole view,
    if given (see train): it has seen the held-out sentences, but the
    fold's objective has one optimum, so it only saves iterations, and
    it is discarded with the fold.  The folds' rows are gathered from
    index, an index of the view under its stage templates, if given."""
    if not isinstance(k, Integral) or k < 2:
        raise PipelineConfigError(
            "jackknifing needs an integer of at least 2 folds, got %r" % (k,))
    n = view.n_sentences
    if n < 2:
        raise PipelineConfigError("jackknifing needs at least 2 sentences, got %d" % n)
    k = min(k, n)
    label = view.schema.names[-1]
    assignment = kfold_split(view, k, seed)
    templates, _ = _stage_templates(view)
    index = fitting_index(view, templates, index)
    observed = select_columns(view, view.schema.names[:-1])
    per_sentence: dict[int, list[str]] = {}
    stops = []
    for fold in range(k):
        kept, held_out = assignment.train_indices(fold), assignment.test_indices(fold)
        model = train(select_sentences(view, kept), templates, config,
                      index=select_index(index, kept), start=start)
        stops.append(model.stop)
        labels = tag(model, select_sentences(observed, held_out),
                     index=select_index(index, held_out))
        per_sentence.update(zip(held_out, labels))
    values = _flat(per_sentence[i] for i in range(n))
    return StagePrediction(label, tuple(values), "jackknifed", tuple(stops))


def _view(base: Corpus, extra: Sequence[tuple[str, Sequence[str]]]) -> Corpus:
    """The recipe columns, then the extra columns in order."""
    for name, values in extra:
        base = append_column(base, name, values)
    return base


def _component_gold(schema: TagSchema, tags: Sequence[str]) -> list[list[str]]:
    """The gold tags' four component columns, spelled as in files."""
    rows = [decompose(schema, t).astuple for t in tags]
    return [[symbol_to_text(row[k]) for row in rows] for k in range(4)]


def _plan(
    spec: PipelineSpec, schema: TagSchema | None, gold: Sequence[str]
) -> list[_Stage]:
    """The pipeline's CRF stages in training order."""
    if spec.strategy == "direct":
        if spec.target != "L2":
            if schema is None:
                raise PipelineConfigError(
                    "projecting the gold column to %s needs a schema" % spec.target
                )
            gold = [project_tag(schema, t, spec.target) for t in gold]
        return [_Stage(spec.target, "Res" + spec.target, spec.recipe, gold)]
    if schema is None:
        raise PipelineConfigError("%s learning needs a schema" % spec.strategy)
    if spec.strategy == "cascade":
        plan: list[_Stage] = []
        for level, column in (("L0", "ResL0"), ("L1", "ResL01"), ("L2", "ResL012")):
            level_gold = [project_tag(schema, t, level) for t in gold]
            plan.append(_Stage(level, column, spec.recipe, level_gold,
                               tuple(s.column for s in plan)))
        return plan
    plan = [
        _Stage("G%d" % k, "ResG%d" % k, spec.recipe, component)
        for k, component in enumerate(_component_gold(schema, gold))
    ]
    if spec.recombination == "crf":
        plan.append(_Stage("L2", "ResL2", spec.recombiner_recipe, gold,
                           tuple(s.column for s in plan)))
    return plan


def _audit(spec: PipelineSpec) -> tuple[str, ...]:
    label_note = "label column %r read only for training" % spec.label_column
    if spec.recombination == "rules":
        return ("recombination: composition rules over marginal scores", label_note)
    if spec.recombination == "crf":
        return ("recombination: CRF over component results (%s source)"
                % spec.stage_source, label_note)
    if spec.strategy == "cascade":
        return ("stage feature source: %s" % spec.stage_source, label_note)
    return (label_note,)


def _repair_tags(schema: TagSchema, models: Mapping[str, LinearChainModel],
                 test_view: Corpus, test_index: FeatureIndex) -> list[str]:
    """repair over the components' log node marginals on the shared test_index."""
    components = [models["G%d" % k] for k in range(4)]
    scores = [np.log(np.maximum(np.concatenate(
        [np.empty((0, len(m.labels)))] + marginals(m, test_view, index=test_index)),
        1e-300)) for m in components]
    return repair(schema, [m.labels for m in components], scores)


def run_pipeline(
    spec: PipelineSpec,
    train_corpus: Corpus,
    test_corpus: Corpus,
    schema: TagSchema | None = None,
) -> PipelineResult:
    """Train the plan's stages in order, tagging the test corpus as they
    go; returns it with every stage's result column appended."""
    plan = _plan(spec, schema, train_corpus.column(spec.label_column))
    read = {column for stage in plan for column in stage.inputs}
    timings = {"features": 0.0, "train": 0.0, "tag": 0.0}
    features: dict[str, tuple[Corpus, Corpus]] = {}
    stages: dict[str, StagePrediction] = {}  # training values of read columns
    test_results: dict[str, list[str]] = {}
    models: dict[str, LinearChainModel] = {}
    hashes: dict[str, str] = {}
    # the training and test views' feature indexes, kept while consecutive
    # stages read the same recipe and input columns
    indexed, indexes = None, {}
    for stage in plan:
        if stage.recipe.text not in features:
            with _timed(timings, "features"):
                features[stage.recipe.text] = tuple(
                    select_columns(materialize_recipe(c, stage.recipe),
                                   stage.recipe.column_names)
                    for c in (train_corpus, test_corpus)
                )
        train_base, test_base = features[stage.recipe.text]
        view = _view(train_base, [(c, stages[c].values) for c in stage.inputs]
                     + [(stage.column, stage.gold)])
        if (stage.recipe.text, stage.inputs) != indexed:
            indexed, indexes = (stage.recipe.text, stage.inputs), {}
        with _timed(timings, "train"):
            templates, hashes[stage.key] = _stage_templates(view)
            if "train" not in indexes:
                indexes["train"] = index_features(view, templates)
            model = train(view, templates, spec.config, index=indexes["train"])
        models[stage.key] = model
        test_view = _view(test_base, [(c, test_results[c]) for c in stage.inputs])
        with _timed(timings, "tag"):
            if "test" not in indexes:
                indexes["test"] = index_features(test_view, templates)
            test_results[stage.column] = _flat(
                tag(model, test_view, index=indexes["test"]))
        if stage.column not in read:
            continue
        with _timed(timings, "train"):
            if spec.stage_source == "gold":
                prediction = StagePrediction(
                    stage.column, tuple(view.column(stage.column)), "gold")
            elif spec.stage_source == "predicted":
                observed = select_columns(view, view.schema.names[:-1])
                prediction = StagePrediction(stage.column, tuple(_flat(
                    tag(model, observed, index=indexes["train"]))), "predicted")
            else:
                prediction = jackknife_stage_features(
                    view, spec.config, spec.jackknife_folds, spec.seed + len(stages),
                    model, indexes["train"])
        stages[stage.column] = prediction
    if spec.recombination == "rules":  # the plan is the four components
        with _timed(timings, "tag"):
            test_results["ResL2"] = _repair_tags(
                schema, models, features[spec.recipe.text][1], indexes["test"])
    out = test_corpus
    for column, values in test_results.items():
        out = append_column(out, column, values)
    return PipelineResult(
        corpus=out,
        prediction_column=column,  # the last one appended
        timings=timings,
        stages=tuple(stages.values()),
        models=models,
        template_hashes=hashes,
        audit=_audit(spec),
    )


# --- pipeline spec files ----------------------------------------------


# Each section's keys in file order, with how to read and write a value.
# A key whose value is None is left out of the file.
_SPEC_FILE = {
    "pipeline": (
        ("id", str, str),
        ("strategy", str, str),
        ("recipe", parse_recipe, attrgetter("text")),
        ("target", str, str),
        ("recombination", str, str),
        ("recombiner_recipe", parse_recipe, attrgetter("text")),
        ("stage_source", str, str),
        ("jackknife_folds", int, "%d".__mod__),
        ("seed", int, "%d".__mod__),
        ("label_column", str, str),
    ),
    "training": tuple((f.name, type(f.default), {float: repr, int: "%d".__mod__}[type(f.default)])
                      for f in fields(TrainingConfig)),
}


def format_pipeline_spec(spec: PipelineSpec) -> str:
    """Canonical key=value form, embedded verbatim in reports."""
    lines = []
    for section, keys in _SPEC_FILE.items():
        lines.append("[%s]" % section)
        owner = spec.config if section == "training" else spec
        for key, _, write in keys:
            value = getattr(owner, key)
            if value is not None:
                lines.append("%s = %s" % (key, write(value)))
    return "\n".join(lines) + "\n"


def parse_pipeline_spec(text: str) -> PipelineSpec:
    """Parse a spec file; a bare id pulls the named configuration and the
    remaining keys override it.  Training keys left out keep
    TrainingConfig's defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise PipelineConfigError("bad pipeline file: %s" % err) from None
    unknown_sections = set(parser.sections()) - set(_SPEC_FILE)
    if unknown_sections:
        raise PipelineConfigError(
            "unknown sections: %s" % ", ".join(sorted(unknown_sections))
        )
    if "pipeline" not in parser:
        raise PipelineConfigError("missing [pipeline] section")
    given = {}
    try:
        for section, keys in _SPEC_FILE.items():
            values = parser[section] if section in parser else {}
            readers = {key: read for key, read, _ in keys}
            unknown = set(values) - set(readers)
            if unknown:
                raise PipelineConfigError("unknown %skeys: %s" % (
                    "training " if section == "training" else "",
                    ", ".join(sorted(unknown))))
            given[section] = {key: readers[key](values[key]) for key in values}
        settings = {**given["pipeline"], "config": TrainingConfig(**given["training"])}
        pipeline_id = settings.pop("id", "custom")
        if pipeline_id in NAMED_PIPELINES:
            return named_pipeline(pipeline_id, **settings)
        if "strategy" not in settings or "recipe" not in settings:
            raise PipelineConfigError("unnamed pipelines need strategy and recipe")
        return PipelineSpec(pipeline_id, **settings)
    except ValueError as err:
        raise PipelineConfigError("bad value in pipeline file: %s" % err) from None
