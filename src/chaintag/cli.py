"""Command-line interface: train, tag, cv, and schema subcommands.

Every referenced input file is read and parsed before any training
starts, so configuration mistakes surface immediately.  Diagnostics go
to stderr; data goes to files or stdout.  Exit codes: 0 on success, 1
on user or input errors (a file that cannot be read, decoded or written
among them), 2 on internal invariant violations.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .corpus import (
    ColumnSchema,
    append_column,
    load_corpus,
    read_text,
    save_corpus,
    write_corpus,
)
from .crf import (
    UNCONVERGED,
    TrainingConfig,
    tag as tag_corpus,
    train as train_model,
)
from .errors import ChaintagError, PipelineConfigError
from .evaluation import cross_validate, format_report
from .model_io import load_model, save_model
from .pipelines import NAMED_PIPELINES, parse_pipeline_spec
from .tagschema import (
    ComponentTag,
    bundled_schema,
    decompose,
    load_schema,
    recombine,
    symbol_to_text,
    text_to_symbol,
)
from .templates import default_templates, parse_templates


class _Parser(argparse.ArgumentParser):
    """Argument errors are user errors, so they exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _columns(text: str) -> ColumnSchema:
    return ColumnSchema(tuple(name.strip() for name in text.split(",")))


def _schema_from(args):
    return bundled_schema() if args.schema is None else load_schema(args.schema)


_TRAINING_FLAGS = {  # TrainingConfig field: help text
    "sigma": "regularization scale",
    "max_iterations": "optimizer iteration cap",
    "tolerance": "relative convergence threshold",
    "cutoff": "minimum feature-string count",
}


def _add_training_flags(parser):
    for key, text in _TRAINING_FLAGS.items():
        default = getattr(TrainingConfig(), key)
        parser.add_argument("--" + key.replace("_", "-"), type=type(default),
                            help="%s (default %s)" % (text, default))


def _training_config(args, base: TrainingConfig) -> TrainingConfig:
    """base with the training flags given on the command line."""
    return replace(base, **{key: getattr(args, key) for key in _TRAINING_FLAGS
                            if getattr(args, key) is not None})


def cmd_train(args) -> int:
    schema = _columns(args.columns)
    if schema.width < 2:
        raise ChaintagError("--columns needs observations plus a label")
    if args.templates is not None:
        template_text = read_text(args.templates, "template file")
    else:
        template_text = default_templates(range(schema.width - 1))
    templates = parse_templates(template_text)
    corpus = load_corpus(args.corpus, schema)
    model = train_model(corpus, templates, _training_config(args, TrainingConfig()))
    save_model(model, args.model)
    print(
        "trained %d iterations, %d objective calls, stopped: %s, "
        "objective %.6f -> %.6f, %d weights"
        % (model.iterations, model.evaluations, model.stop, model.trace[0],
           model.trace[-1], model.weights.size),
        file=sys.stderr,
    )
    if model.stop in UNCONVERGED:
        print("warning: training did not converge (stopped by %s)" % model.stop,
              file=sys.stderr)
    return 0


def cmd_tag(args) -> int:
    model = load_model(args.model)
    corpus = load_corpus(args.corpus, _columns(args.columns))
    predictions = [label for s in tag_corpus(model, corpus) for label in s]
    tagged = append_column(corpus, args.column, predictions)
    if args.output is None:
        sys.stdout.write(write_corpus(tagged))
    else:
        save_corpus(tagged, args.output)
    return 0


def _resolve_pipeline(args):
    spec = NAMED_PIPELINES.get(args.pipeline) or parse_pipeline_spec(
        read_text(args.pipeline, "pipeline file"))
    return replace(spec, config=_training_config(args, spec.config))


def cmd_cv(args) -> int:
    if args.k < 2:
        raise ChaintagError("--k must be at least 2")
    spec = _resolve_pipeline(args)
    schema = _schema_from(args)
    corpus_schema = _columns(args.columns)
    if not corpus_schema.has(spec.label_column):
        raise PipelineConfigError(
            "label column %r is not in --columns" % spec.label_column
        )
    corpus = load_corpus(args.corpus, corpus_schema)
    report = cross_validate(spec, corpus, args.k, args.seed, schema)
    text = format_report(report, include_timings=args.include_timings)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


def cmd_schema(args) -> int:
    schema = _schema_from(args)
    if args.action == "validate":
        print(
            "schema OK: %d L0 tags, %d L1 tags, %d L2 tags"
            % (len(schema.l0), len(schema.l1), len(schema.l2))
        )
        return 0
    if args.action == "product":
        raw = 1
        for k in range(4):
            raw *= len(schema.components(k))
        print(
            "%d valid combinations of %d raw cartesian combinations"
            % (len(schema.l2), raw)
        )
        return 0
    if args.action == "decompose":
        ct = decompose(schema, args.tag)
        print(" ".join(symbol_to_text(ct.component(k)) for k in range(4)))
        return 0
    g0, g1, g2, g3 = (text_to_symbol(s) for s in args.components)
    print(recombine(schema, ComponentTag(g0, g1, g2, g3)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="chaintag",
                     description="Linear-chain CRF tagging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one CRF on a labeled corpus")
    p_train.add_argument("corpus", help="tab-separated labeled corpus")
    p_train.add_argument("--columns", required=True,
                         help="comma-separated column names, label last")
    p_train.add_argument("--templates", metavar="PATH", default=None,
                         help="feature template file (default: generated)")
    p_train.add_argument("--model", required=True, metavar="PATH",
                         help="output model file")
    _add_training_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_tag = sub.add_parser("tag", help="tag a corpus with a trained model")
    p_tag.add_argument("corpus", help="tab-separated corpus to tag")
    p_tag.add_argument("--columns", required=True,
                       help="comma-separated column names of the input")
    p_tag.add_argument("--model", required=True, metavar="PATH")
    p_tag.add_argument("--column", default="Res",
                       help="name of the appended prediction column")
    p_tag.add_argument("--output", metavar="PATH", default=None,
                       help="output file (default: stdout)")
    p_tag.set_defaults(func=cmd_tag)

    p_cv = sub.add_parser("cv", help="k-fold cross-validate a pipeline",
                          description="Training flags override the pipeline's "
                                      "[training] settings.")
    p_cv.add_argument("corpus", help="tab-separated labeled corpus")
    p_cv.add_argument("--columns", required=True,
                      help="comma-separated column names")
    p_cv.add_argument("--pipeline", required=True,
                      help="pipeline name (I..VIIIbis) or spec file")
    p_cv.add_argument("--k", type=int, default=10, help="number of folds")
    p_cv.add_argument("--seed", type=int, default=0,
                      help="fold-assignment seed")
    p_cv.add_argument("--output", metavar="PATH", default=None,
                      help="report file (default: stdout)")
    p_cv.add_argument("--include-timings", action="store_true",
                      help="append wall-clock timings to the report")
    _add_training_flags(p_cv)
    p_cv.add_argument("--schema", metavar="PATH", default=None,
                      help="tagset schema file (default: bundled)")
    p_cv.set_defaults(func=cmd_cv)

    p_schema = sub.add_parser("schema", help="inspect a tagset schema")
    schema_sub = p_schema.add_subparsers(dest="action", required=True)
    for action in ("validate", "product"):
        p = schema_sub.add_parser(action)
        p.add_argument("--schema", metavar="PATH", default=None)
        p.set_defaults(func=cmd_schema, action=action)
    p_dec = schema_sub.add_parser("decompose")
    p_dec.add_argument("tag")
    p_dec.add_argument("--schema", metavar="PATH", default=None)
    p_dec.set_defaults(func=cmd_schema, action="decompose")
    p_rec = schema_sub.add_parser("recombine")
    p_rec.add_argument("components", nargs=4, metavar="SYMBOL",
                       help="g0 g1 g2 g3 (use EPS for the empty symbol)")
    p_rec.add_argument("--schema", metavar="PATH", default=None)
    p_rec.set_defaults(func=cmd_schema, action="recombine")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChaintagError, OSError) as err:  # OSError names its file
        print("chaintag: %s" % err, file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - last-resort diagnostic
        print("chaintag: internal error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
