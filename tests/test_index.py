"""The corpus-level feature index against a per-position reference.

The reference expands every template at every position straight from the
CRF++ definition and builds the dictionary, the encoding, the lattices
and the tags from those strings one position at a time.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaintag import crf
from chaintag.corpus import ColumnSchema, Corpus, Sentence, Token
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
    return Corpus(
        tuple(Sentence(tuple(Token(row) for row in rows)) for rows in sentences),
        SCHEMA,
    )


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


def ref_features(sentence, templates):
    """Unigram strings per position, bigram strings per edge."""
    rows = [token.columns for token in sentence.tokens]
    uni = [[ref_string(t, rows, i) for t in templates if t.kind == "U"]
           for i in range(len(rows))]
    bi = [[ref_string(t, rows, i) for t in templates if t.kind == "B"]
          for i in range(1, len(rows))]
    return uni, bi


def ref_scan(corpus, templates):
    """Counts of each kind, keyed in first-occurrence order."""
    uni, bi = {}, {}
    for sentence in corpus.sentences:
        u, b = ref_features(sentence, templates)
        for strings in u:
            for s in strings:
                uni[s] = uni.get(s, 0) + 1
        for strings in b:
            for s in strings:
                bi[s] = bi.get(s, 0) + 1
    return uni, bi


def ref_lattice(model, sentence):
    d = model.dictionary
    L = d.n_labels
    uni, bi = ref_features(sentence, model.templates)
    unary = np.zeros((len(sentence), L))
    pairwise = np.zeros((len(sentence) - 1, L, L))
    for t, strings in enumerate(uni):
        for s in strings:
            base = d.unigram_base(s)
            if base is not None:
                unary[t] += model.weights[base : base + L]
    for t, strings in enumerate(bi):
        for s in strings:
            if d.bigram_base(s) is not None:
                base = d.bigram_index(s, 0, 0)
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
    out = {}
    for batch in enc.batches:
        for tokens, classes in zip(batch.token_index, batch.classes):
            out.update(zip(tokens[1:].tolist(), classes.tolist()))
    return [out[k] for k in sorted(out)]


# --- the oracle ---------------------------------------------------------


@given(corpora(), template_sets(), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_index_matches_the_per_position_reference(corpus, templates, cutoff, seed):
    uni_counts, bi_counts = ref_scan(corpus, templates)

    index = index_features(corpus.sentences, templates)
    assert index.uni_strings == tuple(uni_counts)
    assert index.bi_strings == tuple(bi_counts)
    expected_uni, expected_bi = [], []
    for sentence in corpus.sentences:
        u, b = ref_features(sentence, templates)
        expected_uni += u
        expected_bi += b
    assert [[index.uni_strings[i] for i in row] for row in index.uni_ids.tolist()] \
        == expected_uni
    assert [[index.bi_strings[i] for i in row] for row in index.bi_ids.tolist()] \
        == expected_bi

    d = build_dictionary(corpus, templates, 2, cutoff)
    assert d.labels == tuple(dict.fromkeys(corpus.column("tag")))
    assert d.uni_strings == tuple(s for s, c in uni_counts.items() if c >= cutoff)
    assert d.bi_strings == tuple(s for s, c in bi_counts.items() if c >= cutoff)
    assert d.counts == {**uni_counts, **bi_counts}
    assert list(d.counts) == list(uni_counts) + list(bi_counts)

    L = d.n_labels
    enc = crf._encode(corpus.sentences, templates, d, 2)
    activations = np.zeros((corpus.n_tokens, len(d.uni_strings)))
    empirical = np.zeros(d.n_weights)
    classes: dict[tuple, int] = {}
    edges = []
    for t, strings in enumerate(expected_uni):
        for s in strings:
            if d.unigram_base(s) is not None:
                activations[t, d.unigram_base(s) // L] += 1
    for sentence, labels in zip(corpus.sentences, corpus.sentence_column("tag")):
        y = [d.label_index(label) for label in labels]
        u, b = ref_features(sentence, templates)
        for t, strings in enumerate(u):
            for s in strings:
                if d.unigram_base(s) is not None:
                    empirical[d.unigram_index(s, y[t])] += 1
        for t, strings in enumerate(b):
            active = []
            for s in strings:
                if d.bigram_base(s) is not None:
                    active.append(d.bi_strings.index(s))
                    empirical[d.bigram_index(s, y[t], y[t + 1])] += 1
            edges.append(classes.setdefault(tuple(active), len(classes)))
    transitions = np.zeros((len(classes), len(d.bi_strings)))
    for active, k in classes.items():
        transitions[k, list(active)] = 1
    assert np.array_equal(enc.activations.toarray(), activations)
    assert np.array_equal(enc.empirical, empirical)
    assert np.array_equal(enc.transitions.toarray(), transitions)
    assert edge_classes(enc) == edges
    assert enc.bounds == [
        (sum(map(len, corpus.sentences[:i])), sum(map(len, corpus.sentences[: i + 1])))
        for i in range(corpus.n_sentences)
    ]

    model = train(corpus, templates, TrainingConfig(max_iterations=0, cutoff=cutoff))
    assert model.dictionary == d
    rng = np.random.default_rng(seed)
    model = replace(model, weights=rng.integers(-2, 3, d.n_weights).astype(float))
    nodes = marginals(model, corpus)
    for sentence, labels, node in zip(corpus.sentences, tag(model, corpus), nodes):
        lattice = ref_lattice(model, sentence)
        best, ref_node = brute_best_and_node(lattice)
        assert labels == [model.labels[y] for y in best]
        assert node == pytest.approx(ref_node, abs=1e-9)
        built = crf.build_lattice(model, sentence)
        assert np.array_equal(built.unary, lattice.unary)
        assert np.array_equal(built.pairwise, lattice.pairwise)


def test_values_joined_across_a_slash_collide_into_one_string():
    # "a/b" + "c" and "a" + "b/c" both read "U0:a/b/c": one string, two hits
    corpus = Corpus((
        Sentence((Token(("a/b", "c", "X")),)),
        Sentence((Token(("a", "b/c", "Y")),)),
    ), SCHEMA)
    templates = parse_templates("U0:%x[0,0]/%x[0,1]\nB\n")
    index = index_features(corpus.sentences, templates)
    assert index.uni_strings == ("U0:a/b/c",)
    assert index.uni_ids.tolist() == [[0], [0]]
    assert index.bi_ids.shape == (0, 1)
    d = build_dictionary(corpus, templates, 2, cutoff=2)
    assert d.uni_strings == ("U0:a/b/c",) and d.counts["U0:a/b/c"] == 2
    assert d.bi_strings == ()


def test_braces_and_percent_signs_in_cells_are_copied_verbatim():
    corpus = Corpus((Sentence((
        Token(("{}", "{0}", "X")), Token(("%s", "%x[0,0]", "Y")),
    )),), SCHEMA)
    templates = parse_templates("U0:%x[0,0]/%x[-1,1]\nB1:%x[0,1]\n")
    index = index_features(corpus.sentences, templates)
    assert index.uni_strings == ("U0:{}/_B-1", "U0:%s/{0}")
    assert index.bi_strings == ("B1:%x[0,0]",)


def test_an_empty_run_of_sentences_has_no_strings():
    templates = parse_templates("U0:%x[-1,0]\nB\n")
    index = index_features((), templates)
    assert index.uni_strings == () and index.bi_strings == ()
    assert index.uni_ids.shape == (0, 1) and index.bi_ids.shape == (0, 1)
