"""Exception hierarchy shared by all chaintag modules.

Everything raised on bad user input derives from ChaintagError so the CLI
can map it to exit code 1; anything else escaping is an internal bug
(exit code 2).
"""


class ChaintagError(Exception):
    pass


# corpus files

class CorpusFormatError(ChaintagError):
    pass


class RaggedRowError(CorpusFormatError):
    def __init__(self, line_number, expected, got):
        super().__init__(
            "line %d: expected %d tab-separated fields, got %d"
            % (line_number, expected, got)
        )
        self.line_number = line_number


class EmptyCorpusError(CorpusFormatError):
    pass


class EncodingError(CorpusFormatError):
    pass


class LengthMismatchError(ChaintagError):
    pass


class MissingColumnError(ChaintagError):
    pass


class EmptyInputError(ChaintagError):
    pass


# tag schema

class SchemaError(ChaintagError):
    pass


class DuplicateTagError(SchemaError):
    pass


class DanglingParentError(SchemaError):
    pass


class NonInjectiveDecompositionError(SchemaError):
    pass


class UnknownComponentSymbolError(SchemaError):
    pass


class UnknownTagError(ChaintagError):
    pass


class InvalidCombinationError(ChaintagError):
    pass


class NoValidTupleError(ChaintagError):
    pass


class UndecomposableTagError(UnknownTagError):
    """An L2 tag outside the schema's decomposition map."""


# feature templates

class TemplateSyntaxError(ChaintagError):
    def __init__(self, line_number, message):
        super().__init__("line %d: %s" % (line_number, message))
        self.line_number = line_number


class DuplicateTemplateIdError(ChaintagError):
    pass


class ColumnMismatchError(ChaintagError):
    pass


class BadColumnError(ColumnMismatchError):
    """A template reads past the corpus width."""


# model / training

class UnknownLabelError(ChaintagError):
    pass


class EmptyTrainingSetError(ChaintagError):
    pass


class NonFiniteObjectiveError(ChaintagError):
    pass


class TrainingConfigError(ChaintagError, ValueError):
    pass


class ModelFormatError(ChaintagError):
    pass


# evaluation / pipelines

class TooFewSentencesError(ChaintagError):
    pass


class PipelineConfigError(ChaintagError):
    pass
