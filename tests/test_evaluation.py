"""Tests for fold assignment, scoring, and cross-validation reports."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaintag.corpus import ColumnSchema, parse_corpus, select_sentences
from chaintag.crf import TrainingConfig
from chaintag.errors import (
    LengthMismatchError,
    PipelineConfigError,
    TooFewSentencesError,
    UndecomposableTagError,
)
from chaintag.evaluation import (
    cross_validate,
    format_report,
    kfold_split,
    partial_credit,
    token_accuracy,
)
from chaintag.pipelines import (
    named_pipeline,
    parse_pipeline_spec,
    run_pipeline,
)
from chaintag.corpus import drop_column
from chaintag.tagschema import bundled_schema

SCHEMA3 = ColumnSchema(("mot", "lemme", "tag"))


def single_token_corpus(n):
    blocks = ["w%d\tw%d\tNMS" % (i, i) for i in range(n)]
    return parse_corpus("\n\n".join(blocks), SCHEMA3)


# --- fold assignment --------------------------------------------------


def test_kfold_sizes_for_a_ten_fold_run():
    assignment = kfold_split(single_token_corpus(1723), 10, seed=0)
    sizes = assignment.fold_sizes
    assert sum(sizes) == 1723
    assert sorted(set(sizes)) == [172, 173]
    assert sizes.count(173) == 3  # the remainder spreads over early folds
    assert max(sizes) - min(sizes) <= 1


def test_kfold_singletons_when_n_equals_k():
    assignment = kfold_split(single_token_corpus(5), 5, seed=1)
    assert assignment.fold_sizes == (1, 1, 1, 1, 1)


def test_kfold_is_a_partition():
    n, k = 23, 4
    assignment = kfold_split(single_token_corpus(n), k, seed=9)
    seen = []
    for fold in range(k):
        test = assignment.test_indices(fold)
        train = assignment.train_indices(fold)
        assert set(test) | set(train) == set(range(n))
        assert set(test) & set(train) == set()
        seen.extend(test)
    assert sorted(seen) == list(range(n))


def test_kfold_same_seed_same_split():
    c = single_token_corpus(40)
    assert kfold_split(c, 5, seed=3) == kfold_split(c, 5, seed=3)
    assert kfold_split(c, 5, seed=3) != kfold_split(c, 5, seed=4)


def test_kfold_rejects_degenerate_requests():
    with pytest.raises(TooFewSentencesError):
        kfold_split(single_token_corpus(3), 1, seed=0)
    with pytest.raises(TooFewSentencesError):
        kfold_split(single_token_corpus(3), 4, seed=0)


@pytest.mark.parametrize("k, seed", [(2.5, 0), (2, 1.5), ("2", 0), (2, None)])
def test_kfold_refuses_counts_and_seeds_that_are_not_integers(k, seed):
    bad = k if seed == 0 else seed
    with pytest.raises(PipelineConfigError, match="got %s$" % re.escape(repr(bad))):
        kfold_split(single_token_corpus(3), k, seed)


def test_cross_validation_refuses_a_seed_it_would_round():
    """The report writes the seed with %d: 1.5 would read back as 1."""
    with pytest.raises(PipelineConfigError, match="got 1.5$"):
        cross_validate(fast_spec(), cv_corpus(), k=2, seed=1.5)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    k=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_kfold_balance_property(n, k, seed):
    if k > n:
        return
    sizes = kfold_split(single_token_corpus(n), k, seed).fold_sizes
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1


# --- scoring ----------------------------------------------------------


def test_token_accuracy_examples():
    assert token_accuracy(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert token_accuracy(["a", "b", "c", "d"], ["a", "x", "c", "y"]) == 0.5
    assert token_accuracy(["a"], ["b"]) == 0.0


def test_token_accuracy_rejects_mismatched_or_empty_input():
    with pytest.raises(LengthMismatchError):
        token_accuracy(["a", "b"], ["a"])
    with pytest.raises(LengthMismatchError):
        token_accuracy([], [])


def test_partial_credit_counts_matching_components():
    schema = bundled_schema()
    # NFS vs NFP share noun, feminine, and the empty fourth slot.
    assert partial_credit(["NFS"], ["NFP"], schema) == 0.75
    # ADV vs NFS share only the empty fourth slot.
    assert partial_credit(["ADV"], ["NFS"], schema) == 0.25
    assert partial_credit(["VINDP3S"], ["VINDP3S"], schema) == 1.0
    got = partial_credit(["NFS", "ADV"], ["NFP", "NFS"], schema)
    assert got == pytest.approx((0.75 + 0.25) / 2)


def test_partial_credit_rejects_unknown_tags():
    schema = bundled_schema()
    with pytest.raises(UndecomposableTagError):
        partial_credit(["XXX"], ["NFS"], schema)
    with pytest.raises(UndecomposableTagError):
        partial_credit(["NFS"], ["XXX"], schema)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partial_credit_dominates_exact_accuracy(data):
    schema = bundled_schema()
    tags = st.sampled_from(schema.l2)
    n = data.draw(st.integers(min_value=1, max_value=8))
    gold = [data.draw(tags) for _ in range(n)]
    predicted = [data.draw(tags) for _ in range(n)]
    assert partial_credit(gold, predicted, schema) >= token_accuracy(
        gold, predicted
    )


# --- cross-validation -------------------------------------------------

SENTENCE_A = "le\tle\tDETDEFMS\nchat\tchat\tNMS\ndort\tdormir\tVINDP3S"
SENTENCE_B = "une\tun\tDETINDFS\ntable\ttable\tNFS"


def cv_corpus(repeats=8):
    return parse_corpus("\n\n".join((SENTENCE_A, SENTENCE_B) * repeats), SCHEMA3)


def fast_spec(**overrides):
    return named_pipeline(
        "IVbis", config=TrainingConfig(max_iterations=25), **overrides
    )


def test_cross_validate_report_fields():
    corpus = cv_corpus()
    schema = bundled_schema()
    report = cross_validate(fast_spec(), corpus, k=2, seed=7, schema=schema)
    assert report.pipeline_id == "IVbis"
    assert report.k == 2
    assert report.seed == 7
    assert sum(report.fold_sizes) == corpus.n_sentences
    assert len(report.fold_accuracies) == 2
    assert report.mean_accuracy == pytest.approx(
        sum(report.fold_accuracies) / 2
    )
    assert 0.0 <= report.pooled_accuracy <= 1.0
    assert set(report.level_accuracies) == {"L0", "L1", "L2"}
    assert set(report.component_accuracies) == {"G0", "G1", "G2", "G3"}
    assert report.partial_credit_score >= report.pooled_accuracy
    assert report.stage_source == "none"  # direct runs have no stages
    assert any("stripped before tagging" in line for line in report.audit)


def test_cross_validate_skips_schema_scoring_for_tags_outside_the_inventory():
    corpus = parse_corpus("\n\n".join(
        (SENTENCE_A, SENTENCE_B, "hop\thop\tXXX") * 4), SCHEMA3)
    report = cross_validate(fast_spec(), corpus, k=2, seed=7,
                            schema=bundled_schema())
    assert report.audit[-1] == "schema scoring skipped: tags outside the inventory"
    assert report.level_accuracies == {} and report.component_accuracies == {}
    assert report.partial_credit_score is None
    assert report.schema_hash  # the schema is still named
    text = format_report(report)
    assert "L0-accuracy" not in text and "partial-credit" not in text
    assert "audit\tschema scoring skipped" in text


def test_cross_validate_resolved_spec_round_trips():
    report = cross_validate(fast_spec(), cv_corpus(), k=2, seed=7)
    assert parse_pipeline_spec(report.resolved_spec) == fast_spec()


def test_cross_validate_is_reproducible():
    corpus = cv_corpus()
    schema = bundled_schema()
    first = cross_validate(fast_spec(), corpus, k=2, seed=7, schema=schema)
    second = cross_validate(fast_spec(), corpus, k=2, seed=7, schema=schema)
    assert format_report(first) == format_report(second)


def test_cross_validate_pooled_accuracy_matches_a_rerun_by_hand():
    corpus = cv_corpus(repeats=4)
    spec = fast_spec()
    report = cross_validate(spec, corpus, k=2, seed=5)
    assignment = kfold_split(corpus, 2, seed=5)
    correct = total = 0
    for fold in range(2):
        train_c = select_sentences(corpus, assignment.train_indices(fold))
        test_c = select_sentences(corpus, assignment.test_indices(fold))
        result = run_pipeline(spec, train_c, drop_column(test_c, "tag"))
        predicted = result.corpus.column(result.prediction_column)
        gold = test_c.column("tag")
        correct += sum(g == p for g, p in zip(gold, predicted))
        total += len(gold)
    assert report.pooled_accuracy == pytest.approx(correct / total)


def test_cross_validate_reports_confusions_on_errors():
    # The same word carries two different gold tags, so whichever fold
    # is held out disagrees with the model trained on the other one.
    blocks = ["x\tx\tNMS"] * 2 + ["x\tx\tNFS"] * 2
    corpus = parse_corpus("\n\n".join(blocks), SCHEMA3)
    report = cross_validate(fast_spec(), corpus, k=2, seed=0)
    assert report.pooled_accuracy < 1.0
    assert report.confusions
    for gold, predicted, count in report.confusions:
        assert gold != predicted
        assert count >= 1
    counts = [c for _, _, c in report.confusions]
    assert counts == sorted(counts, reverse=True)


def test_cross_validate_without_schema_skips_breakdowns():
    report = cross_validate(fast_spec(), cv_corpus(), k=2, seed=7)
    assert report.level_accuracies == {}
    assert report.component_accuracies == {}
    assert report.partial_credit_score is None


def test_format_report_hides_timings_by_default():
    report = cross_validate(fast_spec(), cv_corpus(), k=2, seed=7)
    text = format_report(report)
    assert "time-" not in text
    timed = format_report(report, include_timings=True)
    assert "time-train" in timed and "time-tag" in timed
    assert timed.startswith(text.rstrip("\n").split("\n")[0])


def test_format_report_spec_section_is_verbatim():
    report = cross_validate(fast_spec(), cv_corpus(), k=2, seed=7)
    text = format_report(report)
    assert text.rstrip("\n").endswith(report.resolved_spec.rstrip("\n"))
    assert "[spec]" in text
