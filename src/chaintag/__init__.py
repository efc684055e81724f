"""Sequence labeling for hierarchical morpho-syntactic tags.

A linear-chain conditional random field toolkit built around
tab-separated token corpora: feature templates over observation
columns, morphological feature derivation, exact forward-backward and
Viterbi inference, L-BFGS training, and three learning strategies for
structured tag sets (direct, cascaded by level, decomposed by
component).  The ``chaintag`` command line wraps the same code.
"""

from types import ModuleType as _Module

from .corpus import (
    ColumnSchema,
    Corpus,
    append_column,
    drop_column,
    load_corpus,
    parse_corpus,
    save_corpus,
    select_columns,
    select_sentences,
    write_corpus,
)
from .crf import (
    Lattice,
    LinearChainModel,
    TrainingConfig,
    build_lattice,
    confidence,
    forward_backward,
    marginals,
    objective_and_gradient,
    sequence_score,
    tag,
    train,
    viterbi,
)
from .errors import ChaintagError
from .evaluation import (
    EvalReport,
    FoldAssignment,
    cross_validate,
    format_report,
    kfold_split,
    partial_credit,
    token_accuracy,
)
from .model_io import format_model, load_model, parse_model, save_model
from .morphology import (
    RECIPES,
    FeatureRecipe,
    StemSplit,
    last_chars,
    materialize_recipe,
    parse_recipe,
    split_stem,
)
from .pipelines import (
    NAMED_PIPELINES,
    PipelineResult,
    PipelineSpec,
    StagePrediction,
    format_pipeline_spec,
    jackknife_stage_features,
    named_pipeline,
    parse_pipeline_spec,
    run_pipeline,
)
from .tagschema import (
    ComponentTag,
    TagSchema,
    bundled_schema,
    decompose,
    format_schema,
    load_schema,
    parse_schema,
    project_tag,
    recombine,
    render_tag,
    repair,
    validate_combination,
)
from .templates import (
    FeatureDictionary,
    FeatureIndex,
    FeatureTemplate,
    active_features,
    build_dictionary,
    default_templates,
    expand,
    format_templates,
    index_features,
    parse_templates,
    template_hash,
)

# every imported public name but the submodules
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)]
