"""Template parsing, expansion, and the feature dictionary."""

import pytest
from hypothesis import given, strategies as st

from chaintag.corpus import ColumnSchema, parse_corpus
from chaintag.errors import (
    BadColumnError,
    ColumnMismatchError,
    DuplicateTemplateIdError,
    TemplateSyntaxError,
)
from chaintag.templates import (
    FeatureTemplate,
    Macro,
    active_features,
    build_dictionary,
    default_templates,
    expand,
    format_templates,
    parse_templates,
)

SCHEMA = ColumnSchema(("mot", "tag"))

OMELETTE = parse_corpus(
    "comment\tADVINT\n"
    "vous\tPPER2P\n"
    "faites\tVINDP2P\n"
    "vous\tPPER2P\n"
    "une\tDETINDFS\n"
    "omelette\tNFS\n",
    ColumnSchema(("mot", "tag")),
)


class TestParsing:
    def test_unigram_with_one_macro(self):
        (t,) = parse_templates("U00:%x[0,0]\n")
        assert t == FeatureTemplate("U00", "U", (Macro(0, 0),))

    def test_pure_bigram(self):
        (t,) = parse_templates("B\n")
        assert t == FeatureTemplate("B", "B", ())

    def test_conjunction_macros_preserve_order(self):
        (t,) = parse_templates("U05:%x[-1,1]/%x[0,1]\n")
        assert t.macros == (Macro(-1, 1), Macro(0, 1))

    def test_comments_and_blanks_skipped(self):
        templates = parse_templates("# header\n\nU00:%x[0,0]\nB\n")
        assert [t.id for t in templates] == ["U00", "B"]

    def test_bad_prefix_rejected_with_line_number(self):
        with pytest.raises(TemplateSyntaxError) as err:
            parse_templates("U00:%x[0,0]\nX00:%x[0,0]\n")
        assert err.value.line_number == 2

    def test_bad_macro_rejected(self):
        with pytest.raises(TemplateSyntaxError):
            parse_templates("U00:%x[0]\n")
        with pytest.raises(TemplateSyntaxError):
            parse_templates("U00:%x[0,-1]\n")
        with pytest.raises(TemplateSyntaxError):
            parse_templates("U00:\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateTemplateIdError):
            parse_templates("U00:%x[0,0]\nU00:%x[1,0]\n")

    def test_round_trips_through_text(self):
        text = default_templates([0, 3])
        assert format_templates(parse_templates(text)) == text


class TestExpansion:
    def test_current_token(self):
        t = parse_templates("U00:%x[0,0]\n")[0]
        assert expand(t, OMELETTE, 2) == "U00:faites"

    def test_window_around_current_token(self):
        t = parse_templates("U03:%x[-2,0]/%x[-1,0]/%x[1,0]/%x[2,0]\n")[0]
        assert expand(t, OMELETTE, 2) == "U03:comment/vous/vous/une"

    def test_left_boundary_sentinels(self):
        s = OMELETTE
        t1 = parse_templates("U01:%x[-1,0]\n")[0]
        t2 = parse_templates("U02:%x[-2,0]\n")[0]
        assert expand(t1, s, 0) == "U01:_B-1"
        assert expand(t2, s, 0) == "U02:_B-2"
        assert expand(t2, s, 1) == "U02:_B-1"

    def test_right_boundary_sentinels(self):
        s = OMELETTE
        t1 = parse_templates("U01:%x[1,0]\n")[0]
        t2 = parse_templates("U02:%x[2,0]\n")[0]
        assert expand(t1, s, 5) == "U01:_B+1"
        assert expand(t2, s, 5) == "U02:_B+2"
        assert expand(t2, s, 4) == "U02:_B+1"

    def test_no_macro_template_expands_to_its_id(self):
        t = parse_templates("B\n")[0]
        assert expand(t, OMELETTE, 3) == "B"

    def test_out_of_range_column_rejected(self):
        t = parse_templates("U00:%x[0,9]\n")[0]
        with pytest.raises(BadColumnError):
            expand(t, OMELETTE, 0)
        # the one width check serves callers that catch either type
        assert issubclass(BadColumnError, ColumnMismatchError)

    def test_other_columns_are_reachable(self):
        s = parse_corpus("le\tDETDEFMS\nsel\tNMS\n", SCHEMA)
        t = parse_templates("U00:%x[0,1]\n")[0]
        assert expand(t, s, 1) == "U00:NMS"


class TestDefaultTemplates:
    def test_shape_per_column(self):
        templates = parse_templates(default_templates([0]))
        assert [t.id for t in templates] == [
            "U00", "U01", "U02", "U03", "U04", "U05", "U06", "B",
        ]
        offsets = [t.macros[0].row for t in templates[:5]]
        assert offsets == [-2, -1, 0, 1, 2]
        assert [len(t.macros) for t in templates[:7]] == [1, 1, 1, 1, 1, 2, 2]

    def test_ids_stay_sequential_across_columns(self):
        templates = parse_templates(default_templates([0, 2]))
        assert len(templates) == 15
        assert templates[7].id == "U07"
        assert templates[7].macros[0].col == 2
        assert templates[-1].kind == "B"

    def test_window_is_limited_to_two(self):
        for t in parse_templates(default_templates([0, 1, 2])):
            for m in t.macros:
                assert -2 <= m.row <= 2


def brute_force_sizes(corpus, templates):
    """Independent enumeration of distinct expanded strings per kind."""
    uni, bi = set(), set()
    table = list(zip(*corpus.columns))
    for start, end in corpus.bounds:
        rows = table[start:end]
        for template in templates:
            positions = range(len(rows)) if template.kind == "U" else range(1, len(rows))
            for i in positions:
                if template.macros:
                    vals = []
                    for m in template.macros:
                        r = i + m.row
                        if r < 0:
                            vals.append("_B%d" % r)
                        elif r >= len(rows):
                            vals.append("_B+%d" % (r - len(rows) + 1))
                        else:
                            vals.append(rows[r][m.col])
                    s_exp = template.id + ":" + "/".join(vals)
                else:
                    s_exp = template.id
                (uni if template.kind == "U" else bi).add(s_exp)
    return len(uni), len(bi)


class TestDictionary:
    def test_single_token_single_label(self):
        corpus = parse_corpus("sel\tNMS\n", SCHEMA)
        templates = parse_templates("U00:%x[0,0]\n")
        d = build_dictionary(corpus, templates, label_column=1)
        assert d.n_weights == 1
        assert d.labels == ("NMS",)
        assert d.unigram_rows(["U00:sel"]).tolist() == [0]  # weights 0 * 1 + label

    def test_huge_cutoff_empties_the_dictionary(self):
        templates = parse_templates(default_templates([0]))
        d = build_dictionary(OMELETTE, templates, label_column=1, cutoff=10**9)
        assert d.n_weights == 0

    def test_cutoff_keeps_frequent_strings_only(self):
        corpus = parse_corpus("a\tX\nb\tX\n\na\tX\n", SCHEMA)
        templates = parse_templates("U00:%x[0,0]\n")
        d = build_dictionary(corpus, templates, label_column=1, cutoff=2)
        assert d.uni_strings == ("U00:a",)
        assert d.counts == {"U00:a": 2}  # a model keeps no dropped string

    def test_size_matches_brute_force_on_omelette(self):
        templates = parse_templates(default_templates([0]))
        d = build_dictionary(OMELETTE, templates, label_column=1)
        n_uni, n_bi = brute_force_sizes(OMELETTE, templates)
        n = d.n_labels
        assert n == 5  # vous/PPER2P occurs twice
        assert d.n_weights == n_uni * n + n_bi * n * n

    def test_block_layout_unigrams_before_bigrams(self):
        templates = parse_templates("U00:%x[0,0]\nB\n")
        corpus = parse_corpus("le\tD\nsel\tN\n", SCHEMA)
        d = build_dictionary(corpus, templates, label_column=1)
        assert d.labels == ("D", "N")
        L = d.n_labels
        assert (d.unigram_rows(["U00:le", "U00:sel"]) * L).tolist() == [0, 2]
        assert (len(d.uni_strings) * L + d.bigram_rows(["B"]) * L * L).tolist() == [4]
        assert d.n_weights == 8

    def test_missing_strings_return_none(self):
        templates = parse_templates("U00:%x[0,0]\nB\n")
        corpus = parse_corpus("le\tD\n", SCHEMA)
        d = build_dictionary(corpus, templates, label_column=1)
        assert d.unigram_rows(["U00:la"]).tolist() == [-1]
        assert d.bigram_rows(["B"]).tolist() == [-1]  # one token, no label pair

    def test_determinism(self):
        templates = parse_templates(default_templates([0]))
        a = build_dictionary(OMELETTE, templates, label_column=1)
        b = build_dictionary(OMELETTE, templates, label_column=1)
        assert a == b

    @given(st.lists(
        st.lists(st.sampled_from(["le", "la", "sel", "vous", "une"]),
                 min_size=1, max_size=5),
        min_size=1, max_size=4,
    ))
    def test_size_matches_brute_force_on_random_corpora(self, sents):
        text = "\n".join(
            "\n".join("%s\tT%d" % (w, len(w) % 2) for w in words)
            for words in sents
        ) + "\n"
        corpus = parse_corpus(text, SCHEMA)
        templates = parse_templates(default_templates([0]))
        d = build_dictionary(corpus, templates, label_column=1)
        n_uni, n_bi = brute_force_sizes(corpus, templates)
        n = d.n_labels
        assert d.n_weights == n_uni * n + n_bi * n * n

    def test_active_features_cover_all_positions(self):
        templates = parse_templates(default_templates([0]))
        uni, bi = active_features(templates, OMELETTE)
        assert len(uni) == 6
        assert len(bi) == 5
        assert all(len(strings) == 7 for strings in uni)
        assert all(strings == ["B"] for strings in bi)
