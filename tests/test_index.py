"""The corpus-level feature index against a per-position reference.

The reference expands every template at every position straight from the
CRF++ definition and builds the dictionary, the encoding, the lattices
and the tags from those strings one position at a time.
"""

import itertools
from itertools import islice
import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaintag import crf
from chaintag.corpus import ColumnSchema, Corpus, select_sentences
from chaintag.crf import Lattice, TrainingConfig, marginals, sequence_score, tag, train
from chaintag.templates import (
    FeatureTemplate,
    Macro,
    build_dictionary,
    index_features,
    parse_templates,
)

SCHEMA = ColumnSchema(("mot", "extra", "tag"))

# no "_" (so no cell reads like a sentinel), but the template syntax's own
# characters and str.format's braces
_CELL = st.text(alphabet="ab/:{}%", min_size=1, max_size=3)
_LABEL = st.sampled_from(["X", "Y", "Z"])
_MACRO = st.builds(Macro, st.integers(-2, 2), st.integers(0, 1))


@st.composite
def corpora(draw):
    sentences = draw(st.lists(
        st.lists(st.tuples(_CELL, _CELL, _LABEL), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    rows = [row for sentence in sentences for row in sentence]
    return Corpus(tuple(zip(*rows)), tuple(map(len, sentences)), SCHEMA)


@st.composite
def template_sets(draw):
    uni = draw(st.lists(st.lists(_MACRO, max_size=2), min_size=1, max_size=4))
    bi = draw(st.lists(st.lists(_MACRO, max_size=2), min_size=1, max_size=3))
    return tuple(
        [FeatureTemplate("U%d" % i, "U", tuple(m)) for i, m in enumerate(uni)]
        + [FeatureTemplate("B%d" % i, "B", tuple(m)) for i, m in enumerate(bi)]
    )


# --- the reference ------------------------------------------------------


def ref_string(template, rows, i):
    if not template.macros:
        return template.id
    values = []
    for m in template.macros:
        r = i + m.row
        if r < 0:
            values.append("_B%d" % r)
        elif r >= len(rows):
            values.append("_B+%d" % (r - len(rows) + 1))
        else:
            values.append(rows[r][m.col])
    return template.id + ":" + "/".join(values)


def sentences_of(corpus):
    """Each sentence's rows, read from the table's columns and lengths."""
    rows = iter(zip(*corpus.columns))
    return [list(islice(rows, n)) for n in corpus.lengths]


def uni_base(d, s):
    """The first weight of s's unigram block, or None."""
    row = int(d.unigram_rows([s])[0])
    return None if row < 0 else row * d.n_labels


def bi_base(d, s):
    """The first weight of s's bigram block, or None."""
    row = int(d.bigram_rows([s])[0])
    return None if row < 0 else (len(d.uni_strings) + row * d.n_labels) * d.n_labels


def ref_features(rows, templates):
    """Unigram strings per position, bigram strings per edge."""
    uni = [[ref_string(t, rows, i) for t in templates if t.kind == "U"]
           for i in range(len(rows))]
    bi = [[ref_string(t, rows, i) for t in templates if t.kind == "B"]
          for i in range(1, len(rows))]
    return uni, bi


def ref_scan(corpus, templates):
    """Counts of each kind, keyed in first-occurrence order."""
    uni, bi = {}, {}
    for rows in sentences_of(corpus):
        u, b = ref_features(rows, templates)
        for strings in u:
            for s in strings:
                uni[s] = uni.get(s, 0) + 1
        for strings in b:
            for s in strings:
                bi[s] = bi.get(s, 0) + 1
    return uni, bi


def ref_lattice(model, rows):
    d = model.dictionary
    L = d.n_labels
    uni, bi = ref_features(rows, model.templates)
    unary = np.zeros((len(rows), L))
    pairwise = np.zeros((len(rows) - 1, L, L))
    for t, strings in enumerate(uni):
        for s in strings:
            base = uni_base(d, s)
            if base is not None:
                unary[t] += model.weights[base : base + L]
    for t, strings in enumerate(bi):
        for s in strings:
            base = bi_base(d, s)
            if base is not None:
                pairwise[t] += model.weights[base : base + L * L].reshape(L, L)
    return Lattice(unary, pairwise)


def brute_best_and_node(lattice):
    """Exhaustive Viterbi (ties to the lowest labels, backtracking from the
    end) and node marginals."""
    T, L = lattice.n_positions, lattice.n_labels
    sequences = list(itertools.product(range(L), repeat=T))
    scores = [sequence_score(lattice, y) for y in sequences]
    best = max(range(len(sequences)),
               key=lambda k: (scores[k], tuple(-v for v in reversed(sequences[k]))))
    top = max(scores)
    log_z = top + math.log(sum(math.exp(s - top) for s in scores))
    node = np.zeros((T, L))
    for y, s in zip(sequences, scores):
        for t, label in enumerate(y):
            node[t, label] += math.exp(s - log_z)
    return list(sequences[best]), node


def edge_classes(enc):
    """The transition class of each edge, keyed by the token ending it."""
    ends = np.concatenate([enc.packed[rows][sizes[0] if sizes else 0 :]
                           for rows, _, sizes in enc.spans])
    out = dict(zip(ends.tolist(), enc.classes.tolist()))
    return [out[k] for k in sorted(out)]


def packed_layout(corpus):
    """The corpus position of each row, sentences sorted longest first
    (ties in corpus order), step by step; and the rows of each step."""
    starts = [sum(corpus.lengths[:i]) for i in range(corpus.n_sentences)]
    by_length = sorted(range(corpus.n_sentences), key=lambda i: -corpus.lengths[i])
    steps = [[starts[i] + t for i in by_length if corpus.lengths[i] > t]
             for t in range(max(corpus.lengths, default=0))]
    return [p for step in steps for p in step], [len(step) for step in steps]


def assert_index_matches_reference(corpus, templates):
    """The index's strings, in first-occurrence order, and each cell's
    string equal the reference's; returns the unigram strings per token."""
    uni_counts, bi_counts = ref_scan(corpus, templates)
    index = index_features(corpus, templates)
    assert index.uni_strings == tuple(uni_counts)
    assert index.bi_strings == tuple(bi_counts)
    expected_uni, expected_bi = [], []
    for rows in sentences_of(corpus):
        u, b = ref_features(rows, templates)
        expected_uni += u
        expected_bi += b
    assert [[index.uni_strings[i] for i in row] for row in index.uni_ids.tolist()] \
        == expected_uni
    assert [[index.bi_strings[i] for i in row] for row in index.bi_ids.tolist()] \
        == expected_bi
    return expected_uni


# --- the oracle ---------------------------------------------------------


@given(corpora(), template_sets(), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_index_matches_the_per_position_reference(corpus, templates, cutoff, seed):
    uni_counts, bi_counts = ref_scan(corpus, templates)
    expected_uni = assert_index_matches_reference(corpus, templates)

    d = build_dictionary(corpus, templates, 2, cutoff)
    assert d.labels == tuple(dict.fromkeys(corpus.column("tag")))
    assert d.uni_strings == tuple(s for s, c in uni_counts.items() if c >= cutoff)
    assert d.bi_strings == tuple(s for s, c in bi_counts.items() if c >= cutoff)
    retained = [(s, c) for s, c in [*uni_counts.items(), *bi_counts.items()]
                if c >= cutoff]
    assert d.counts == dict(retained)
    assert list(d.counts) == [s for s, _ in retained]

    L = d.n_labels
    enc = crf._encode(corpus, templates, d, 2)
    activations = np.zeros((corpus.n_tokens, len(d.uni_strings)))
    empirical = np.zeros(d.n_weights)
    classes: dict[tuple, int] = {}
    edges = []
    for t, strings in enumerate(expected_uni):
        for s in strings:
            if uni_base(d, s) is not None:
                activations[t, uni_base(d, s) // L] += 1
    for rows, labels in zip(sentences_of(corpus), corpus.sentence_column("tag")):
        y = [d.label_index(label) for label in labels]
        u, b = ref_features(rows, templates)
        for t, strings in enumerate(u):
            for s in strings:
                if uni_base(d, s) is not None:
                    empirical[uni_base(d, s) + y[t]] += 1
        for t, strings in enumerate(b):
            active = []
            for s in strings:
                if bi_base(d, s) is not None:
                    active.append(d.bi_strings.index(s))
                    empirical[bi_base(d, s) + y[t] * L + y[t + 1]] += 1
            edges.append(classes.setdefault(tuple(active), len(classes)))
    transitions = np.zeros((len(classes), len(d.bi_strings)))
    for active, k in classes.items():
        transitions[k, list(active)] = 1
    packed, sizes = packed_layout(corpus)
    assert enc.packed.tolist() == packed and enc.groups == [sizes]
    assert np.array_equal(enc.activations.toarray(), activations[packed])
    onehot = np.eye(L)[enc.gold]
    gold_counts = np.concatenate([
        (enc.activations.T @ onehot).ravel(),
        (enc.transitions.T @ enc.gold_pairs.reshape(len(classes), L * L)).ravel(),
    ])
    assert np.array_equal(gold_counts, empirical)
    assert np.array_equal(enc.transitions.toarray(), transitions)
    assert edge_classes(enc) == edges

    model = train(corpus, templates, TrainingConfig(max_iterations=0, cutoff=cutoff))
    assert model.dictionary == d
    rng = np.random.default_rng(seed)
    model = replace(model, weights=rng.integers(-2, 3, d.n_weights).astype(float))
    nodes = marginals(model, corpus)
    assert len(nodes) == len(tag(model, corpus)) == corpus.n_sentences
    for i, (rows, labels, node) in enumerate(
            zip(sentences_of(corpus), tag(model, corpus), nodes)):
        lattice = ref_lattice(model, rows)
        best, ref_node = brute_best_and_node(lattice)
        assert labels == [model.labels[y] for y in best]
        assert node == pytest.approx(ref_node, abs=1e-9)
        built = crf.build_lattice(model, select_sentences(corpus, [i]))
        assert np.array_equal(built.unary, lattice.unary)
        assert np.array_equal(built.pairwise, lattice.pairwise)


def test_values_joined_across_a_slash_collide_into_one_string():
    # "a/b" + "c" and "a" + "b/c" both read "U0:a/b/c": one string, two hits
    corpus = Corpus((("a/b", "a"), ("c", "b/c"), ("X", "Y")), (1, 1), SCHEMA)
    templates = parse_templates("U0:%x[0,0]/%x[0,1]\nB\n")
    index = index_features(corpus, templates)
    assert index.uni_strings == ("U0:a/b/c",)
    assert index.uni_ids.tolist() == [[0], [0]]
    assert index.bi_ids.shape == (0, 1)
    d = build_dictionary(corpus, templates, 2, cutoff=2)
    assert d.uni_strings == ("U0:a/b/c",) and d.counts["U0:a/b/c"] == 2
    assert d.bi_strings == ()


def test_braces_and_percent_signs_in_cells_are_copied_verbatim():
    corpus = Corpus((("{}", "%s"), ("{0}", "%x[0,0]"), ("X", "Y")), (2,), SCHEMA)
    templates = parse_templates("U0:%x[0,0]/%x[-1,1]\nB1:%x[0,1]\n")
    index = index_features(corpus, templates)
    assert index.uni_strings == ("U0:{}/_B-1", "U0:%s/{0}")
    assert index.bi_strings == ("B1:%x[0,0]",)


def table(words, extra, lengths):
    return Corpus((tuple(words), tuple(extra), ("X",) * len(words)), tuple(lengths), SCHEMA)


WIDE_TEMPLATES = parse_templates(
    "U0:%x[0,0]\nU1:%x[-1,0]/%x[0,1]\nU2\nU3:%x[-2,1]/%x[0,0]/%x[2,0]\n"
    "B\nB1:%x[-1,1]\nB2:%x[1,0]/%x[0,1]\n"
)


@pytest.mark.parametrize("cells", ["distinct", "repeated"])
def test_corpora_whose_cells_all_differ_or_all_repeat(cells):
    lengths = [1, 5, 2, 7, 3, 1, 4]
    n = sum(lengths)
    if cells == "distinct":
        corpus = table(["w%d" % i for i in range(n)], ["x%d" % i for i in range(n)], lengths)
    else:
        corpus = table(["a"] * n, ["a"] * n, lengths)
    assert_index_matches_reference(corpus, WIDE_TEMPLATES)
    index = index_features(corpus, WIDE_TEMPLATES)
    if cells == "distinct":  # only U2 and B repeat
        assert len(index.uni_strings) == 3 * n + 1
    else:  # the strings differ only by the sentinels they read
        assert len(index.uni_strings) < 4 * 5 * 2


def test_keys_that_could_pass_2_to_the_62_are_re_ranked():
    """Four macros over a column of more than 2**16 distinct values: four
    ids in that radix could pass 2**62, so the keys are re-ranked before
    the last id joins them; the strings still match the reference."""
    n = 2**16 + 100
    words = ["w%d" % (i % (2**16 + 50)) for i in range(n)]
    corpus = table(words, ["e"] * n, [7] * (n // 7) + [n % 7])
    templates = parse_templates("U0:%x[-1,0]/%x[0,0]/%x[1,0]/%x[2,0]\nB\n")
    with patch.object(np, "unique", wraps=np.unique) as unique:
        assert_index_matches_reference(corpus, templates)
    re_ranks = [c for c in unique.call_args_list if "return_index" not in c.kwargs]
    assert re_ranks


def test_an_empty_run_of_sentences_has_no_strings():
    for templates in (parse_templates("U0:%x[-1,0]\nB\n"), WIDE_TEMPLATES):
        index = index_features(Corpus(((), (), ()), (), SCHEMA), templates)
        uni = sum(t.kind == "U" for t in templates)
        assert index.uni_strings == () and index.bi_strings == ()
        assert index.uni_ids.shape == (0, uni)
        assert index.bi_ids.shape == (0, len(templates) - uni)
