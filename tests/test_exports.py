"""The package's public names."""

import chaintag

# The exported set: removing or adding a name changes the public API.
EXPORTS = {
    "ChaintagError",
    # corpus
    "ColumnSchema", "Corpus", "append_column", "drop_column", "load_corpus",
    "parse_corpus", "save_corpus", "select_columns", "select_sentences",
    "write_corpus",
    # morphology
    "RECIPES", "FeatureRecipe", "StemSplit", "last_chars", "materialize_recipe",
    "parse_recipe", "split_stem",
    # tag schema
    "ComponentTag", "TagSchema", "bundled_schema", "decompose", "format_schema",
    "load_schema", "parse_schema", "project_tag", "recombine", "render_tag",
    "repair", "validate_combination",
    # templates
    "FeatureDictionary", "FeatureIndex", "FeatureTemplate", "active_features",
    "build_dictionary", "default_templates", "expand", "format_templates",
    "index_features", "parse_templates", "template_hash",
    # crf
    "Lattice", "LinearChainModel", "TrainingConfig", "build_lattice",
    "confidence", "forward_backward", "marginals", "objective_and_gradient",
    "sequence_score", "tag", "train", "viterbi",
    # model files
    "format_model", "load_model", "parse_model", "save_model",
    # pipelines
    "NAMED_PIPELINES", "PipelineResult", "PipelineSpec", "StagePrediction",
    "format_pipeline_spec", "jackknife_stage_features", "named_pipeline",
    "parse_pipeline_spec", "run_pipeline",
    # evaluation
    "EvalReport", "FoldAssignment", "cross_validate", "format_report",
    "kfold_split", "partial_credit", "token_accuracy",
}


def test_the_exported_names_are_pinned():
    assert len(chaintag.__all__) == len(EXPORTS) == 73
    assert set(chaintag.__all__) == EXPORTS

