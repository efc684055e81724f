"""Checks of the benchmark's own parts: corpus generators and tracer.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

import corpora
import run
from chaintag import corpus, crf, evaluation, pipelines, tagschema
from chaintag.crf import TrainingConfig
from tracer import Tracer, self_times

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text("utf-8")
)
COLUMNS = corpus.ColumnSchema(corpora.CORPUS_COLUMNS)


def test_same_seed_gives_byte_identical_corpora():
    assert corpora.wide_corpora(7, 80, 20) == corpora.wide_corpora(7, 80, 20)
    assert corpora.wide_corpora(7, 80, 20) != corpora.wide_corpora(8, 80, 20)
    assert corpora.cascade_corpus(7, 300) == corpora.cascade_corpus(7, 300)
    assert corpora.cascade_corpus(7, 300) != corpora.cascade_corpus(8, 300)


def test_wide_schema_and_corpus_shape():
    schema = tagschema.parse_schema(corpora.wide_schema_text())
    assert len(schema.l2) == corpora.WIDE_TAGS
    sizes = tuple(len(schema.components(k)) for k in range(4))
    assert sizes == corpora.WIDE_COMPONENT_SIZES
    train_text, test_text = corpora.wide_corpora(1, 80, 20)
    train = corpus.parse_corpus(train_text, COLUMNS)
    test = corpus.parse_corpus(test_text, COLUMNS)
    assert train.n_sentences == 80 and test.n_sentences == 20
    assert 80 * 18 <= train.n_tokens <= 80 * 22
    assert set(train.column("tag")) | set(test.column("tag")) <= set(schema.l2)


def test_cascade_corpus_uses_six_bundled_tags():
    schema = tagschema.bundled_schema()
    text = corpora.cascade_corpus(1, 300)
    tags = set(corpus.parse_corpus(text, COLUMNS).column("tag"))
    assert tags == set(corpora.CASCADE_TAGS)
    assert tags <= set(schema.l2)


def _wrapped_attributes():
    return [(owner, attr) for owner, attr, _ in run.LAYER_ATTRIBUTES] + [
        (crf, "minimize")
    ]


def _small_cv():
    data = corpus.parse_corpus(corpora.cascade_corpus(3, 24), COLUMNS)
    spec = pipelines.named_pipeline(
        "V", config=TrainingConfig(sigma=10.0, max_iterations=5), jackknife_folds=2
    )
    return evaluation.cross_validate(spec, data, 3, 3, tagschema.bundled_schema())


def _small_inputs():
    text, test_text = corpora.wide_corpora(2, 3, 1)
    spec = pipelines.named_pipeline("IV", config=TrainingConfig(max_iterations=2))
    schema = tagschema.parse_schema(corpora.wide_schema_text())
    return (spec, corpus.parse_corpus(text, COLUMNS),
            corpus.parse_corpus(test_text, COLUMNS), schema)


def test_tracer_restores_every_wrapped_attribute():
    originals = [getattr(owner, attr) for owner, attr in _wrapped_attributes()]
    with Tracer() as tracer:
        run.install_layers(tracer)
        assert all(
            getattr(owner, attr) is not original
            for (owner, attr), original in zip(_wrapped_attributes(), originals)
        )
        _small_cv()
    assert all(
        getattr(owner, attr) is original
        for (owner, attr), original in zip(_wrapped_attributes(), originals)
    )
    assert {"crf.objective", "crf.minimize", "pipelines.jackknife"} <= {
        span.name for span in tracer.spans
    }


def test_tracer_restores_after_an_exception():
    original = pipelines.run_pipeline
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            tracer.wrap(pipelines, "run_pipeline", "boom", info=lambda a, k, r: 1 / 0)
            pipelines.run_pipeline(*_small_inputs())
    assert pipelines.run_pipeline is original
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_self_times_sum_to_no_more_than_traced_wall_time():
    with Tracer() as tracer:
        run.install_layers(tracer)
        start = run.clock()
        _small_cv()
        wall = run.clock() - start
    own = self_times(tracer.spans)
    assert min(own) >= 0.0
    assert sum(own) <= wall


def test_reported_metrics_match_benchmark_json():
    with Tracer() as tracer:
        run.install_layers(tracer)
        _small_cv()
    layers = set(run.layer_metrics(tracer.spans)) | {
        "model_io.bytes", "trace.untraced_s", "trace.traced_s",
        "trace.overhead_s", "trace.spans",
    }
    assert layers == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in BENCHMARK["per_layer"])
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(run.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}
