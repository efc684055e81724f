#!/usr/bin/env python3
"""chaintag benchmark: train, tag and cross-validate on fixed-seed corpora.

Run from the repository root:

    python3 bench/run.py --workload direct-wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload, one process each

Workloads (see bench/README.md for why each was chosen):

* direct-wide      pipeline IV trains on the 112-tag wide corpus and tags
                   a bulk set of ~10k tokens;
* decomposed-wide  pipeline VIII (four component CRFs, rule recombination)
                   on the same training corpus and a ~2k-token test set;
* cascade-cv       3-fold cross-validation of cascade pipeline V on the
                   cascade lexicon corpus, scored against the bundled schema.

After the workload's call, every model it trained is saved, reloaded and
made to tag the corpus it tagged; the reloaded model must reproduce the
call's own prediction column.  Accuracy floors and report completeness
are checked too.  A failed check counts in "failed" and the run goes on.

With --trace 0 the run repeats the workload while --seconds allows and
reports end-to-end medians.  With --trace 1 it runs the workload once
untraced and once with every library layer wrapped from outside (see
tracer.py), and reports per-layer numbers and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run facts (machine, digests of
the saved models, predictions and CV report) are printed above it and
written with the spans under bench/out/.
"""

import os

# Pin BLAS before numpy loads.  One thread is no slower for these
# workloads on two cores and keeps runs steadier on a shared machine.
BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "chaintag" / "__init__.py").is_file():
    raise SystemExit("bench: no chaintag sources under %s" % SRC)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy  # noqa: E402
import scipy  # noqa: E402

import chaintag  # noqa: E402
from chaintag import (  # noqa: E402
    corpus,
    crf,
    evaluation,
    model_io,
    morphology,
    pipelines,
    tagschema,
    templates,
)
from chaintag.crf import TrainingConfig  # noqa: E402

import corpora  # noqa: E402
from tracer import Tracer, ancestors, self_times  # noqa: E402

if Path(chaintag.__file__).resolve().parent != SRC / "chaintag":
    raise SystemExit("bench: imported chaintag from %s, not %s" % (chaintag.__file__, SRC))

clock = time.perf_counter

# c08's training configuration (wide corpus) and c10's (cascade corpus).
WIDE_CONFIG = TrainingConfig(sigma=10.0, max_iterations=60, tolerance=1e-7)
CASCADE_CONFIG = TrainingConfig(sigma=10.0, max_iterations=80, tolerance=1e-6)
WIDE_TRAIN_SENTENCES = 80  # ~1.6k tokens, as in c08
CASCADE_SENTENCES = 300  # ~2.1k tokens, as in c10
CV_FOLDS = 3
# c08 requires decomposed accuracy >= direct - 0.03 with direct at 1.0;
# written as a fixed floor so each workload runs in its own process.
ACCURACY_FLOOR = 0.97
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    test_sentences: int  # wide test set; 0 for cross-validation


WORKLOADS = {
    w.name: w
    for w in (
        Workload("direct-wide", "IV", 500),
        Workload("decomposed-wide", "VIII", 100),
        Workload("cascade-cv", "V", 0),
    )
}


@dataclass
class Inputs:
    spec: pipelines.PipelineSpec
    schema: tagschema.TagSchema
    data: corpus.Corpus  # training corpus, or the whole corpus for CV
    test: corpus.Corpus | None  # labeled test corpus (wide workloads)
    unlabeled: corpus.Corpus | None  # the test corpus without its tags


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's text and parse it with the library."""
    columns = corpus.ColumnSchema(corpora.CORPUS_COLUMNS)
    if workload.name == "cascade-cv":
        schema_text = (SRC / "chaintag" / "data" / "reference.schema").read_text("utf-8")
        config = CASCADE_CONFIG
        train = corpus.parse_corpus(corpora.cascade_corpus(seed, CASCADE_SENTENCES), columns)
        test = None
    else:
        schema_text = corpora.wide_schema_text()
        config = WIDE_CONFIG
        train_text, test_text = corpora.wide_corpora(
            seed, WIDE_TRAIN_SENTENCES, workload.test_sentences
        )
        train = corpus.parse_corpus(train_text, columns)
        test = corpus.parse_corpus(test_text, columns)
    return Inputs(
        spec=pipelines.named_pipeline(workload.pipeline, config=config),
        schema=tagschema.parse_schema(schema_text),
        data=train,
        test=test,
        unlabeled=None if test is None else corpus.drop_column(test, "tag"),
    )


def warm_up(workload: Workload, inputs: Inputs) -> None:
    """The workload's call on six sentences with two optimizer iterations,
    so first-call costs are paid before anything is measured."""
    spec = replace(inputs.spec, config=TrainingConfig(sigma=10.0, max_iterations=2),
                   jackknife_folds=2)
    few = corpus.select_sentences(inputs.data, range(6))
    if workload.name == "cascade-cv":
        evaluation.cross_validate(spec, few, 2, 0, inputs.schema)
    else:
        test = corpus.select_sentences(inputs.unlabeled, range(2))
        pipelines.run_pipeline(spec, few, test, inputs.schema)


class Ledger:
    """Counts attempted operations and keeps a note of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def call(self, what: str, fn, *args):
        """fn(*args), or None when it raises; either way one operation."""
        try:
            value = fn(*args)
        except Exception:  # a failed operation must not stop the run
            traceback.print_exc()
            self.check(False, "%s raised" % what)
            return None
        self.check(True, what)
        return value


@contextmanager
def keeping_results(sink: list):
    """Collect what each pipelines.run_pipeline call returns, so the
    models cross_validate trains per fold can be saved and reloaded."""
    original = pipelines.run_pipeline

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    pipelines.run_pipeline = keep
    try:
        yield
    finally:
        pipelines.run_pipeline = original


def stages(spec) -> list[tuple[str, str, tuple[str, ...]]]:
    """(model key, prediction column, extra input columns) per CRF the
    pipeline trains, in the column order its runner feeds that CRF."""
    if spec.strategy == "direct":
        return [(spec.target, "Res" + spec.target, ())]
    if spec.strategy == "cascade":
        return [("L0", "ResL0", ()), ("L1", "ResL01", ("ResL0",)),
                ("L2", "ResL012", ("ResL0", "ResL01"))]
    return [("G%d" % k, "ResG%d" % k, ()) for k in range(4)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_call(workload: Workload, inputs: Inputs, seed: int):
    """The workload's one library call: (results, report)."""
    if workload.name == "cascade-cv":
        results: list = []
        with keeping_results(results):
            report = evaluation.cross_validate(
                inputs.spec, inputs.data, CV_FOLDS, seed, inputs.schema
            )
        return results, report
    result = pipelines.run_pipeline(inputs.spec, inputs.data, inputs.unlabeled, inputs.schema)
    return [result], None


def check_outputs(workload: Workload, inputs: Inputs, results, report, ledger: Ledger):
    """Accuracy of the call's predictions, with the workload's checks."""
    if report is not None:
        scored = (
            len(report.fold_accuracies) == CV_FOLDS
            and len(results) == CV_FOLDS
            and set(report.level_accuracies) == {"L0", "L1", "L2"}
            and report.partial_credit_score is not None
            and not any("scoring skipped" in note for note in report.audit)
        )
        ledger.check(scored, "every fold completes with a schema-scored report")
        return report.mean_accuracy
    result = results[0]
    accuracy = evaluation.token_accuracy(
        inputs.test.column("tag"), result.corpus.column(result.prediction_column)
    )
    ledger.check(accuracy >= ACCURACY_FLOOR,
                 "accuracy %.6f below %.2f" % (accuracy, ACCURACY_FLOOR))
    return accuracy


def round_trip(spec, results, ledger: Ledger) -> tuple[list[str], int]:
    """Save and reload every trained model, and tag with it the corpus
    its call tagged; the reloaded model must reproduce the call's own
    prediction column.  Returns the saved files' digests and total size."""
    digests = []
    written = 0
    path = OUT_DIR / "model.tmp"
    for result in results:
        features = morphology.materialize_recipe(result.corpus, spec.recipe)
        for key, column, extra in stages(spec):
            model_io.save_model(result.models[key], path)
            reloaded = model_io.load_model(path)
            data = path.read_bytes()
            written += len(data)
            digests.append(sha256(data))
            view = corpus.select_columns(features, spec.recipe.column_names + extra)
            predicted = crf.tag(reloaded, view)
            flat = [label for sentence in predicted for label in sentence]
            ledger.check(flat == result.corpus.column(column),
                         "reloaded %s model re-tags %s identically" % (key, column))
    path.unlink()
    return digests, written


def iteration(workload: Workload, inputs: Inputs, seed: int, ledger: Ledger):
    """One measured pass: the call, its checks and the model round trips.

    Returns a dict of measurements and facts, or None if the call raised.
    """
    t0 = clock()
    outcome = ledger.call("%s %s" % (workload.pipeline, workload.name),
                          run_call, workload, inputs, seed)
    run_s = clock() - t0
    if outcome is None:
        return None
    results, report = outcome
    accuracy = ledger.call("scoring", check_outputs, workload, inputs, results, report, ledger)
    digests, written = ledger.call("model round trip", round_trip, inputs.spec, results,
                                   ledger) or ([], 0)
    predictions = hashlib.sha256()
    for result in results:
        predictions.update(corpus.write_corpus(result.corpus).encode("utf-8"))
    facts = {
        "model_sha256": sha256("\n".join(digests).encode("ascii")),
        "predictions_sha256": predictions.hexdigest(),
        "model_bytes": written,
    }
    if report is not None:
        facts["report_sha256"] = sha256(evaluation.format_report(report).encode("utf-8"))
    return {
        "run_s": run_s,
        "accuracy": accuracy or 0.0,
        "wall_s": clock() - t0,
        "facts": facts,
    }


# --- tracing -----------------------------------------------------------

# (module, attribute, span name): every attribute through which the
# library's callers, or this benchmark, reach a layer's public function.
LAYER_ATTRIBUTES = [
    (pipelines, "run_pipeline", "pipelines.run_pipeline"),
    (pipelines, "jackknife_stage_features", "pipelines.jackknife"),
    (pipelines, "train", "crf.train"),
    (pipelines, "tag", "crf.tag"),
    (pipelines, "marginals", "crf.marginals"),
    (pipelines, "repair", "tagschema.repair"),
    (pipelines, "materialize_recipe", "morphology.materialize"),
    (pipelines, "append_column", "corpus.view"),
    (pipelines, "select_columns", "corpus.view"),
    (pipelines, "select_sentences", "corpus.view"),
    (evaluation, "cross_validate", "evaluation.cross_validate"),
    (evaluation, "select_sentences", "corpus.view"),
    (evaluation, "drop_column", "corpus.view"),
    (morphology, "append_column", "corpus.view"),
    (crf, "tag", "crf.tag"),
    (crf, "build_dictionary", "templates.build_dictionary"),
    (crf, "active_features", "templates.active_features"),
    (templates, "active_features", "templates.active_features"),
    (crf, "build_lattice", "crf.build_lattice"),
    (crf, "viterbi", "crf.viterbi"),
    (model_io, "format_model", "model_io.format_model"),
    (model_io, "parse_model", "model_io.parse_model"),
]
LIBRARY_CALLS = ("pipelines.run_pipeline", "evaluation.cross_validate")


def install_layers(tracer: Tracer) -> None:
    info = {
        "crf.train": lambda a, k, model: {
            "iterations": model.iterations, "weights": int(model.weights.size)},
        "templates.build_dictionary": lambda a, k, d: {
            "uni_strings": len(d.uni_strings), "bi_strings": len(d.bi_strings)},
        "crf.viterbi": lambda a, k, path: {"tokens": len(path)},
        "crf.tag": lambda a, k, labels: {"tokens": sum(map(len, labels))},
    }
    for owner, attr, name in LAYER_ATTRIBUTES:
        tracer.wrap(owner, attr, name, info.get(name))

    def trace_objective(args, kwargs):
        return (tracer.traced("crf.objective", args[0]),) + tuple(args[1:]), kwargs

    tracer.wrap(crf, "minimize", "crf.minimize", arguments=trace_objective)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers from one traced iteration's spans."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.id)

    def ids(name, under=None):
        found = by_name.get(name, [])
        if under is None:
            return found
        return [i for i in found if any(a in under for a in ancestors(spans, spans[i]))]

    def total(name, under=None):
        return sum(spans[i].duration for i in ids(name, under))

    def self_total(name, under=None):
        return sum(own[i] for i in ids(name, under))

    def info_sum(name, key):
        return sum(spans[i].info[key] for i in ids(name))

    objective = [spans[i].duration for i in ids("crf.objective")]
    viterbi_s = total("crf.viterbi")
    tag_s = total("crf.tag")
    return {
        "crf.objective_s": sum(objective),
        "crf.objective_calls": len(objective),
        "crf.objective_ms_p50": 1000 * statistics.median(objective) if objective else 0.0,
        "crf.optimizer_self_s": total("crf.minimize") - sum(objective),
        "crf.encode_s": self_total("crf.train"),
        "crf.train_calls": len(ids("crf.train")),
        "crf.iterations": info_sum("crf.train", "iterations"),
        "crf.weights": info_sum("crf.train", "weights"),
        "crf.build_lattice_s": self_total("crf.build_lattice"),
        "crf.viterbi_s": viterbi_s,
        "crf.viterbi_tokens_per_s": info_sum("crf.viterbi", "tokens") / viterbi_s if viterbi_s else 0.0,
        "crf.tag_s": tag_s,
        "crf.tag_tokens_per_s": info_sum("crf.tag", "tokens") / tag_s if tag_s else 0.0,
        "crf.marginals_s": self_total("crf.marginals"),
        "templates.expand_s": self_total("templates.active_features"),
        "templates.expand_calls": len(ids("templates.active_features")),
        "templates.dictionary_s": self_total("templates.build_dictionary"),
        "templates.uni_strings": info_sum("templates.build_dictionary", "uni_strings"),
        "templates.bi_strings": info_sum("templates.build_dictionary", "bi_strings"),
        "tagschema.repair_s": total("tagschema.repair"),
        "tagschema.repair_calls": len(ids("tagschema.repair")),
        "pipelines.jackknife_s": total("pipelines.jackknife"),
        "pipelines.jackknife_models": len(ids("crf.train", ("pipelines.jackknife",))),
        "corpus.view_s": self_total("corpus.view", LIBRARY_CALLS),
        "corpus.view_calls": len(ids("corpus.view", LIBRARY_CALLS)),
        "morphology.materialize_s": self_total("morphology.materialize"),
        "evaluation.fold_s": total("pipelines.run_pipeline", ("evaluation.cross_validate",)),
        "model_io.format_s": total("model_io.format_model"),
        "model_io.parse_s": total("model_io.parse_model"),
        "trace.call_s": sum(span.duration for span in spans
                            if span.parent is None and span.name in LIBRARY_CALLS),
    }


# --- units ---------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "accuracy": "fraction",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("tokens_per_s"):
        return "tok/s"
    if name.endswith("_s"):
        return "s"
    if name == "model_io.bytes":
        return "B"
    return "count"


def machine(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    ledger = Ledger()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        inputs = build_inputs(workload, seed)
        ledger.call("warm-up", warm_up, workload, inputs)
        setups.append(clock() - t0)
    samples = []
    start = clock()
    while True:
        t0 = clock()
        samples.append(iteration(workload, inputs, seed, ledger))
        now = clock()
        # stop unless one more pass of the same length still fits
        if trace or (now - start) + (now - t0) > seconds:
            break
    if trace:
        with Tracer() as tracer:
            install_layers(tracer)
            samples.append(iteration(workload, inputs, seed, ledger))
    done = [s for s in samples if s is not None]
    facts = [s["facts"] for s in done]
    if facts:
        ledger.check(all(f == facts[0] for f in facts),
                     "repeated runs save identical models and predictions")
    result = {
        "workload": workload.name,
        "machine": machine(seed),
        "iterations": len(samples),
        "facts": facts[0] if facts else {},
        "failures": ledger.failures,
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
    }
    if not trace:
        metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
        for key in ("run_s", "accuracy"):
            metrics[key] = statistics.median(s[key] for s in done) if done else 0.0
        result["metrics"] = {k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]}
                             for k in END_TO_END_UNITS}
        return result
    layers = layer_metrics(tracer.spans)
    untraced, traced = samples
    layers["model_io.bytes"] = traced["facts"]["model_bytes"] if traced else 0
    layers["trace.untraced_s"] = untraced["wall_s"] if untraced else 0.0
    layers["trace.traced_s"] = traced["wall_s"] if traced else 0.0
    layers["trace.overhead_s"] = layers["trace.traced_s"] - layers["trace.untraced_s"]
    layers["trace.spans"] = len(tracer.spans)
    result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    tracer.write(OUT_DIR / ("trace-%s-seed%d.jsonl" % (workload.name, seed)))
    return result


def print_result(result: dict) -> None:
    print("workload\t%s" % result["workload"])
    print("machine\t%s" % json.dumps(result["machine"], sort_keys=True))
    print("facts\t%s" % json.dumps(result["facts"], sort_keys=True))
    for note in result["failures"]:
        print("FAILED\t%s" % note)
    for name, metric in result["metrics"].items():
        print("%s\t%r\t%s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            print("FAILED\t%s exited with %d" % (name, completed.returncode))
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT_DIR / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
