"""Cross-validation protocol, scoring, and report emission.

Folds are sentence-level: the sentence order is shuffled by a seeded RNG
and cut into k contiguous chunks whose sizes differ by at most one.  The
headline number of a cross-validation is the arithmetic mean of the fold
accuracies; the pooled token-level accuracy is reported alongside.

Report text is deterministic for a fixed (pipeline, corpus, k, seed):
wall-clock timings are kept out of the canonical rendering and only
appear when explicitly requested.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from numbers import Integral
from typing import Mapping, Sequence

from .corpus import Corpus, drop_column, select_sentences
from .errors import LengthMismatchError, PipelineConfigError, TooFewSentencesError
from .tagschema import TagSchema, decompose, format_schema, project_tag
from .templates import template_hash

CONFUSION_ROWS = 10


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    seed: int
    assignment: tuple[int, ...]

    def test_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.assignment) if f == fold)

    def train_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.assignment) if f != fold)

    @property
    def fold_sizes(self) -> tuple[int, ...]:
        counts = Counter(self.assignment)
        return tuple(counts[f] for f in range(self.k))


def kfold_split(corpus: Corpus, k: int, seed: int) -> FoldAssignment:
    """Deterministic sentence-level partition into k folds."""
    for name, value in (("the number of folds", k), ("the seed", seed)):
        if not isinstance(value, Integral):
            raise PipelineConfigError("%s must be an integer, got %r" % (name, value))
    n = corpus.n_sentences
    if k < 2:
        raise TooFewSentencesError("need at least 2 folds, got %d" % k)
    if n < k:
        raise TooFewSentencesError(
            "need at least %d sentences for %d folds, got %d" % (k, k, n)
        )
    order = list(range(n))
    random.Random(seed).shuffle(order)
    assignment = [0] * n
    larger = n % k
    size = n // k
    start = 0
    for fold in range(k):
        width = size + (1 if fold < larger else 0)
        for i in order[start : start + width]:
            assignment[i] = fold
        start += width
    return FoldAssignment(k, seed, tuple(assignment))


def _scored(gold: Sequence[str], predicted: Sequence[str]) -> int:
    """The number of tokens scored, which must be the same and not 0."""
    if len(gold) != len(predicted):
        raise LengthMismatchError(
            "%d gold labels vs %d predictions" % (len(gold), len(predicted))
        )
    if not gold:
        raise LengthMismatchError("cannot score an empty label sequence")
    return len(gold)


def token_accuracy(gold: Sequence[str], predicted: Sequence[str]) -> float:
    """Exact-match fraction over tokens."""
    n = _scored(gold, predicted)
    return sum(g == p for g, p in zip(gold, predicted)) / n


def _component_matches(
    gold: Sequence[str], predicted: Sequence[str], schema: TagSchema
) -> list[int]:
    """For each of the four components, the tokens whose gold and
    predicted tags agree on it."""
    _scored(gold, predicted)
    matches = [0, 0, 0, 0]
    for g, p in zip(gold, predicted):
        pairs = zip(decompose(schema, g).astuple, decompose(schema, p).astuple)
        for i, (a, b) in enumerate(pairs):
            matches[i] += a == b
    return matches


def partial_credit(
    gold: Sequence[str], predicted: Sequence[str], schema: TagSchema
) -> float:
    """Mean per-token fraction of matching components (empty-vs-empty
    counts as a match, like any other equality)."""
    return sum(_component_matches(gold, predicted, schema)) / (4 * len(gold))


@dataclass(frozen=True)
class EvalReport:
    pipeline_id: str
    resolved_spec: str
    k: int
    seed: int
    fold_sizes: tuple[int, ...]
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    pooled_accuracy: float
    level_accuracies: Mapping[str, float]  # may be empty
    component_accuracies: Mapping[str, float]  # may be empty
    partial_credit_score: float | None
    confusions: tuple[tuple[str, str, int], ...]
    timings: Mapping[str, float]
    template_hashes: Mapping[str, str]
    schema_hash: str
    stage_source: str
    audit: tuple[str, ...] = ()


def _fmt(x: float) -> str:
    return "%.6f" % x


def format_report(report: EvalReport, include_timings: bool = False) -> str:
    """Stable-order text rendering; timings are opt-in so that re-runs
    with the same seed produce byte-identical output."""
    lines = [
        "pipeline\t%s" % report.pipeline_id,
        "folds\t%d" % report.k,
        "seed\t%d" % report.seed,
        "fold-sizes\t%s" % ",".join(str(s) for s in report.fold_sizes),
        "mean-accuracy\t%s" % _fmt(report.mean_accuracy),
        "pooled-accuracy\t%s" % _fmt(report.pooled_accuracy),
    ]
    for i, acc in enumerate(report.fold_accuracies):
        lines.append("fold-%d-accuracy\t%s" % (i, _fmt(acc)))
    for level in sorted(report.level_accuracies):
        lines.append("%s-accuracy\t%s" % (level, _fmt(report.level_accuracies[level])))
    for comp in sorted(report.component_accuracies):
        lines.append("%s-accuracy\t%s" % (comp, _fmt(report.component_accuracies[comp])))
    if report.partial_credit_score is not None:
        lines.append("partial-credit\t%s" % _fmt(report.partial_credit_score))
    for gold, predicted, count in report.confusions:
        lines.append("confusion\t%s\t%s\t%d" % (gold, predicted, count))
    lines.append("stage-source\t%s" % report.stage_source)
    for stage in sorted(report.template_hashes):
        lines.append("templates-%s\tsha256:%s" % (stage, report.template_hashes[stage]))
    if report.schema_hash:
        lines.append("schema\tsha256:%s" % report.schema_hash)
    else:
        lines.append("schema\tnone")
    for note in report.audit:
        lines.append("audit\t%s" % note)
    if include_timings:
        for phase in sorted(report.timings):
            lines.append("time-%s\t%.3f" % (phase, report.timings[phase]))
    lines.append("[spec]")
    lines.append(report.resolved_spec.rstrip("\n"))
    return "\n".join(lines) + "\n"


def _top_confusions(gold: Sequence[str], predicted: Sequence[str]):
    counts = Counter(
        (g, p) for g, p in zip(gold, predicted) if g != p
    )
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return tuple((g, p, c) for (g, p), c in ranked[:CONFUSION_ROWS])


def cross_validate(
    spec,
    corpus: Corpus,
    k: int,
    seed: int,
    schema: TagSchema | None = None,
) -> EvalReport:
    """Train and score the pipeline on each of k sentence-level folds.

    The gold label column is removed from every test fold before the
    pipeline tags it; the audit trail records that.  Per-level and
    per-component accuracies are included when a schema is given and
    every gold and predicted tag is in its inventory.
    """
    from . import pipelines  # run_pipeline; imported here to avoid a cycle

    assignment = kfold_split(corpus, k, seed)
    fold_accuracies = []
    all_gold: list[str] = []
    all_predicted: list[str] = []
    timings: dict[str, float] = {}
    template_hashes: dict[str, str] = {}
    audit: list[str] = []
    stage_source = spec.stage_source if spec.strategy != "direct" else "none"
    for fold in range(k):
        train_corpus = select_sentences(corpus, assignment.train_indices(fold))
        test_fold = select_sentences(corpus, assignment.test_indices(fold))
        gold = test_fold.column(spec.label_column)
        unlabeled = drop_column(test_fold, spec.label_column)
        result = pipelines.run_pipeline(spec, train_corpus, unlabeled, schema)
        predicted = result.corpus.column(result.prediction_column)
        fold_accuracies.append(token_accuracy(gold, predicted))
        all_gold.extend(gold)
        all_predicted.extend(predicted)
        for phase, seconds in result.timings.items():
            timings[phase] = timings.get(phase, 0.0) + seconds
        template_hashes.update(result.template_hashes)
        audit.append(
            "fold %d: column %r stripped before tagging; %s"
            % (fold, spec.label_column, "; ".join(result.audit))
        )
    pooled = token_accuracy(all_gold, all_predicted)
    level_accuracies: dict[str, float] = {}
    component_accuracies: dict[str, float] = {}
    credit = None
    if schema is not None:
        if all(t in schema.decomposition for t in {*all_gold, *all_predicted}):
            for level in ("L0", "L1"):
                level_accuracies[level] = token_accuracy(
                    [project_tag(schema, t, level) for t in all_gold],
                    [project_tag(schema, t, level) for t in all_predicted],
                )
            level_accuracies["L2"] = pooled
            matches = _component_matches(all_gold, all_predicted, schema)
            for i, count in enumerate(matches):
                component_accuracies["G%d" % i] = count / len(all_gold)
            credit = sum(matches) / (4 * len(all_gold))
        else:
            audit.append("schema scoring skipped: tags outside the inventory")
    schema_hash = template_hash(format_schema(schema)) if schema is not None else ""
    return EvalReport(
        pipeline_id=spec.id,
        resolved_spec=pipelines.format_pipeline_spec(spec),
        k=k,
        seed=seed,
        fold_sizes=assignment.fold_sizes,
        fold_accuracies=tuple(fold_accuracies),
        mean_accuracy=sum(fold_accuracies) / len(fold_accuracies),
        pooled_accuracy=pooled,
        level_accuracies=level_accuracies,
        component_accuracies=component_accuracies,
        partial_credit_score=credit,
        confusions=_top_confusions(all_gold, all_predicted),
        timings=timings,
        template_hashes=template_hashes,
        schema_hash=schema_hash,
        stage_source=stage_source,
        audit=tuple(audit),
    )
