"""Command-line interface: train, tag, cv, and schema subcommands.

Every referenced input file is read and parsed before any training
starts, so configuration mistakes surface immediately.  Diagnostics go
to stderr; data goes to files or stdout.  Exit codes: 0 on success, 1
on user or input errors, 2 on internal invariant violations.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .corpus import (
    ColumnSchema,
    append_column,
    load_corpus,
    save_corpus,
    write_corpus,
)
from .crf import TrainingConfig, tag as tag_corpus, train as train_model
from .errors import ChaintagError, ColumnMismatchError, PipelineConfigError
from .evaluation import cross_validate, format_report
from .model_io import load_model, save_model
from .pipelines import NAMED_PIPELINES, named_pipeline, parse_pipeline_spec
from .tagschema import (
    ComponentTag,
    bundled_schema,
    decompose,
    parse_schema,
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


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        raise ChaintagError("cannot read %s %r: %s" % (what, path, err)) from err


def _load_corpus(path: str, schema: ColumnSchema):
    try:
        return load_corpus(path, schema)
    except OSError as err:
        raise ChaintagError(
            "cannot read corpus %r: %s" % (path, err)
        ) from err


def _columns(text: str) -> ColumnSchema:
    return ColumnSchema(tuple(name.strip() for name in text.split(",")))


def _schema_from(args):
    if args.schema is None:
        return bundled_schema()
    return parse_schema(_read_text(args.schema, "schema file"))


def _training_config(args) -> TrainingConfig:
    return TrainingConfig(
        sigma=args.sigma,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        cutoff=args.cutoff,
    )


def _add_training_flags(parser, defaults=TrainingConfig()):
    parser.add_argument("--sigma", type=float, default=defaults.sigma,
                        help="regularization scale (default %(default)s)")
    parser.add_argument("--max-iterations", type=int,
                        default=defaults.max_iterations,
                        help="optimizer iteration cap (default %(default)s)")
    parser.add_argument("--tolerance", type=float, default=defaults.tolerance,
                        help="relative convergence threshold "
                             "(default %(default)s)")
    parser.add_argument("--cutoff", type=int, default=defaults.cutoff,
                        help="minimum feature-string count (default "
                             "%(default)s)")


def cmd_train(args) -> int:
    schema = _columns(args.columns)
    if schema.width < 2:
        raise ChaintagError("--columns needs observations plus a label")
    if args.templates is not None:
        template_text = _read_text(args.templates, "template file")
    else:
        template_text = default_templates(range(schema.width - 1))
    templates = parse_templates(template_text)
    corpus = _load_corpus(args.corpus, schema)
    model = train_model(corpus, templates, _training_config(args))
    save_model(model, args.model)
    if model.trace:
        print(
            "trained %d iterations, objective %.6f -> %.6f, %d weights"
            % (len(model.trace) - 1, model.trace[0], model.trace[-1],
               model.weights.size),
            file=sys.stderr,
        )
    else:
        print("trained 0 iterations (zero-weight model)", file=sys.stderr)
    return 0


def cmd_tag(args) -> int:
    try:
        model = load_model(args.model)
    except OSError as err:
        raise ChaintagError(
            "cannot read model %r: %s" % (args.model, err)
        ) from err
    schema = _columns(args.columns)
    corpus = _load_corpus(args.corpus, schema)
    if schema.width <= model.max_macro_column:
        raise ColumnMismatchError(
            "%s has %d columns but the model reads column %d"
            % (args.corpus, schema.width, model.max_macro_column)
        )
    predictions = [label for s in tag_corpus(model, corpus) for label in s]
    tagged = append_column(corpus, args.column, predictions)
    if args.output is None:
        sys.stdout.write(write_corpus(tagged))
    else:
        save_corpus(tagged, args.output)
    return 0


def _resolve_pipeline(args):
    if args.pipeline in NAMED_PIPELINES:
        spec = named_pipeline(args.pipeline)
    else:
        spec = parse_pipeline_spec(
            _read_text(args.pipeline, "pipeline file")
        )
    config = replace(
        spec.config,
        **{
            key: value
            for key, value in (
                ("sigma", args.sigma),
                ("max_iterations", args.max_iterations),
                ("tolerance", args.tolerance),
                ("cutoff", args.cutoff),
            )
            if value is not None
        },
    )
    return replace(spec, config=config)


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
    corpus = _load_corpus(args.corpus, corpus_schema)
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

    p_cv = sub.add_parser("cv", help="k-fold cross-validate a pipeline")
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
    p_cv.add_argument("--sigma", type=float, default=None)
    p_cv.add_argument("--max-iterations", type=int, default=None)
    p_cv.add_argument("--tolerance", type=float, default=None)
    p_cv.add_argument("--cutoff", type=int, default=None)
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
    except ChaintagError as err:
        print("chaintag: %s" % err, file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - last-resort diagnostic
        print("chaintag: internal error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
