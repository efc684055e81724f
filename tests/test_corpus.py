from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from chaintag.corpus import (
    ColumnSchema,
    Corpus,
    append_column,
    drop_column,
    parse_corpus,
    select_columns,
    select_sentences,
    write_corpus,
)
from chaintag.errors import (
    CorpusFormatError,
    EmptyCorpusError,
    LengthMismatchError,
    MissingColumnError,
    RaggedRowError,
)

S3 = ColumnSchema(("mot", "lemme", "tag"))


def row(corpus, i):
    """The cells of token i, in schema order."""
    return tuple(cells[i] for cells in corpus.columns)


def test_parse_two_token_sentence():
    text = "comment\tcomment\tADV\nvous\tvous\tPPER2P\n\n"
    c = parse_corpus(text, S3)
    assert c.n_sentences == 1
    assert c.n_tokens == 2
    assert row(c, 0) == ("comment", "comment", "ADV")


def test_parse_empty_is_error():
    with pytest.raises(EmptyCorpusError):
        parse_corpus("", S3)
    with pytest.raises(EmptyCorpusError):
        parse_corpus("\n\n\n", S3)


def test_parse_ragged_row_reports_line():
    text = "a\ta\tX\nmot\tlemme\nb\tb\tY\n"
    with pytest.raises(RaggedRowError) as e:
        parse_corpus(text, S3)
    assert e.value.line_number == 2


def test_parse_header_comments_become_provenance():
    text = "# source: somewhere\n# fold 3\na\ta\tX\n"
    c = parse_corpus(text, S3)
    assert c.provenance == "source: somewhere\nfold 3"


def test_parse_multiple_blank_lines_between_sentences():
    text = "a\ta\tX\n\n\n\nb\tb\tY\n"
    c = parse_corpus(text, S3)
    assert c.n_sentences == 2


def test_parse_crlf_lines():
    text = "a\ta\tX\r\n\r\nb\tb\tY\r\n"
    c = parse_corpus(text, S3)
    assert c.n_sentences == 2
    assert row(c, 1) == ("b", "b", "Y")


def test_parse_rejects_a_carriage_return_inside_a_line():
    for text in ("a\rb\ta\tX\n", "a\ta\tX\r\nb\rb\tb\tY\n", "# a\rb\nc\tc\tX\n"):
        with pytest.raises(CorpusFormatError, match="carriage return"):
            parse_corpus(text, S3)


def test_parse_rejects_a_cell_spelled_like_a_boundary_sentinel():
    for cell in ("_B-1", "_B+1", "_B-12"):
        for text in (cell + "\ta\tX\n", "a\t%s\tX\n" % cell, "a\ta\t%s\n" % cell):
            with pytest.raises(CorpusFormatError, match="boundary sentinel"):
                parse_corpus(text, S3)
    for cell in ("_B", "_B-", "_B+0", "_B-1x", "x_B-1", "_b-1"):
        assert parse_corpus(cell + "\ta\tX\n", S3).columns[0][0] == cell


def test_parse_normalizes_to_nfc():
    # e + combining acute vs precomposed e-acute
    decomposed = "été\tété\tN\n"
    c = parse_corpus(decomposed, ColumnSchema(("mot", "lemme", "tag")))
    tok = row(c, 0)
    assert tok[0] == tok[1] == "été"


def test_write_single_blank_line_between_blocks():
    c = parse_corpus("a\ta\tX\n\nb\tb\tY\n", S3)
    assert write_corpus(c) == "a\ta\tX\n\nb\tb\tY\n"


def test_roundtrip_with_provenance():
    text = "# kept\na\ta\tX\n"
    c = parse_corpus(text, S3)
    assert write_corpus(c) == text
    assert parse_corpus(write_corpus(c), S3) == c


def test_first_token_starting_with_hash_reads_back():
    c = parse_corpus("a\tA\n\n#b\tB\n", ColumnSchema(("mot", "tag")))
    assert c.columns[0] == ("a", "#b") and c.provenance == ""
    swapped = select_sentences(c, [1, 0])
    assert write_corpus(swapped) == "\n#b\tB\n\na\tA\n"
    assert parse_corpus(write_corpus(swapped), c.schema) == swapped
    kept = replace(swapped, provenance="kept")
    assert write_corpus(kept) == "# kept\n\n#b\tB\n\na\tA\n"
    assert parse_corpus(write_corpus(kept), c.schema) == kept


def test_empty_sentence_cannot_be_constructed():
    with pytest.raises(CorpusFormatError):
        Corpus((("a",), ("b",), ("X",)), (1, 0), S3)


def test_token_needs_surface_form():
    with pytest.raises(CorpusFormatError):
        Corpus((("a", ""), ("x", "x"), ("y", "y")), (2,), S3)
    with pytest.raises(CorpusFormatError):
        parse_corpus("\tx\tY\n", S3)


def test_surface_forms_may_contain_spaces():
    c = parse_corpus("en effet\ten effet\tADV\n", S3)
    assert c.columns[0][0] == "en effet"


def test_append_column():
    c = parse_corpus("a\ta\tX\nb\tb\tY\n\nc\tc\tZ\n", S3)
    out = append_column(c, "pred", ["P1", "P2", "P3"])
    assert out.schema.names == ("mot", "lemme", "tag", "pred")
    assert out.column("pred") == ["P1", "P2", "P3"]
    # original untouched
    assert c.schema.width == 3


def test_append_column_length_mismatch():
    c = parse_corpus("a\ta\tX\nb\tb\tY\n", S3)
    with pytest.raises(LengthMismatchError):
        append_column(c, "pred", ["P1"])


def test_append_then_project_roundtrip():
    c = parse_corpus("a\ta\tX\nb\tb\tY\n\nc\tc\tZ\n", S3)
    values = ["u", "v", "w"]
    assert append_column(c, "extra", values).column("extra") == values


def test_drop_column():
    c = parse_corpus("a\ta\tX\n", S3)
    out = drop_column(c, "tag")
    assert out.schema.names == ("mot", "lemme")
    assert not out.schema.has("tag")
    with pytest.raises(CorpusFormatError):
        drop_column(c, "mot")


def test_missing_column_lookup():
    c = parse_corpus("a\ta\tX\n", S3)
    with pytest.raises(MissingColumnError):
        c.column("nope")


def test_select_sentences_preserves_order():
    c = parse_corpus("a\ta\tX\n\nb\tb\tY\n\nc\tc\tZ\n", S3)
    sub = select_sentences(c, [2, 0])
    assert sub.columns[0] == ("c", "a")


# TAB/newline are structural; a cell may start with '#', which reads as a
# header line unless a blank line ends the header.  Cells are NFC-normalized
# at parse time, so generate NFC-stable material.
_cell = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzéèàùçœ '-#",
    min_size=1,
    max_size=8,
).map(lambda s: s.strip() or "x")


@st.composite
def tables(draw):
    """A schema and its sentences, each a list of row tuples."""
    width = draw(st.integers(min_value=1, max_value=4))
    schema = ColumnSchema(tuple("col%d" % i for i in range(width)))
    sentences = draw(st.lists(
        st.lists(st.tuples(*[_cell] * width), min_size=1, max_size=6),
        min_size=1, max_size=5,
    ))
    return schema, sentences


def from_rows(schema, sentences):
    """The corpus holding the given sentences of row tuples."""
    rows = [r for sentence in sentences for r in sentence]
    columns = tuple(tuple(r[k] for r in rows) for k in range(schema.width))
    return Corpus(columns, tuple(map(len, sentences)), schema)


def corpora():
    return tables().map(lambda table: from_rows(*table))


@given(corpora())
def test_parse_write_roundtrip_property(c):
    assert parse_corpus(write_corpus(c), c.schema) == c


@given(tables(), st.data())
def test_views_match_a_row_wise_reference(table, data):
    schema, sentences = table
    c = from_rows(schema, sentences)
    names = schema.names
    sizes = [len(sentence) for sentence in sentences]
    assert c.bounds == tuple(
        (sum(sizes[:i]), sum(sizes[: i + 1])) for i in range(len(sizes))
    )
    for k, name in enumerate(names):
        assert c.sentence_column(name) == [[r[k] for r in s] for s in sentences]
        assert c.column(name) == [r[k] for s in sentences for r in s]

    indices = data.draw(st.lists(st.integers(0, len(sentences) - 1), max_size=8))
    assert select_sentences(c, indices) == from_rows(
        schema, [sentences[i] for i in indices]
    )

    picked = data.draw(st.permutations(names))
    picked = picked[: data.draw(st.integers(1, len(names)))]
    keep = [names.index(n) for n in picked]
    assert select_columns(c, picked) == from_rows(
        ColumnSchema(tuple(picked)),
        [[tuple(r[k] for k in keep) for r in s] for s in sentences],
    )

    if len(names) > 1:
        k = data.draw(st.integers(1, len(names) - 1))
        assert drop_column(c, names[k]) == from_rows(
            ColumnSchema(names[:k] + names[k + 1 :]),
            [[r[:k] + r[k + 1 :] for r in s] for s in sentences],
        )
    with pytest.raises(CorpusFormatError):
        drop_column(c, names[0])

    values = data.draw(st.lists(_cell, min_size=c.n_tokens, max_size=c.n_tokens))
    it = iter(values)
    assert append_column(c, "extra", values) == from_rows(
        schema.with_column("extra"), [[r + (next(it),) for r in s] for s in sentences]
    )

    text = "\n\n".join("\n".join("\t".join(r) for r in s) for s in sentences)
    if sentences[0][0][0].startswith("#"):  # a blank line ends the header
        text = "\n" + text
    assert write_corpus(c) == text + "\n"
    assert parse_corpus(text, schema) == c


def test_columns_must_fit_the_schema_and_the_lengths():
    with pytest.raises(CorpusFormatError):  # a column of the wrong length
        Corpus((("a", "b"), ("a",), ("X", "Y")), (2,), S3)
    with pytest.raises(CorpusFormatError):  # fewer columns than the schema
        Corpus((("a",), ("X",)), (1,), S3)
