"""CRF inference and training against exhaustive and numeric oracles."""

import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse
from hypothesis import example, given, settings, strategies as st

from chaintag import crf
from chaintag.corpus import (
    ColumnSchema,
    Corpus,
    parse_corpus,
    select_columns,
    select_sentences,
)
from chaintag.crf import (
    UNCONVERGED,
    Lattice,
    TrainingConfig,
    build_lattice,
    confidence,
    forward_backward,
    marginals,
    minimize,
    objective_and_gradient,
    sequence_score,
    tag,
    train,
    viterbi,
)
from chaintag.errors import (
    ColumnMismatchError,
    EmptyTrainingSetError,
    LengthMismatchError,
    TrainingConfigError,
    UnknownLabelError,
)
from chaintag.templates import active_features, default_templates, parse_templates

SCHEMA = ColumnSchema(("mot", "tag"))

OMELETTE = parse_corpus(
    "comment\tADVINT\n"
    "vous\tPPER2P\n"
    "faites\tVINDP2P\n"
    "vous\tPPER2P\n"
    "une\tDETINDFS\n"
    "omelette\tNFS\n",
    SCHEMA,
)


def uni_base(d, s):
    """The first weight of s's unigram block, or None."""
    row = int(d.unigram_rows([s])[0])
    return None if row < 0 else row * d.n_labels


def bi_base(d, s):
    """The first weight of s's bigram block, or None."""
    row = int(d.bigram_rows([s])[0])
    return None if row < 0 else (len(d.uni_strings) + row * d.n_labels) * d.n_labels


def sentences(corpus):
    """Each sentence as a one-sentence corpus."""
    return [select_sentences(corpus, [i]) for i in range(corpus.n_sentences)]


def corpus_of(rows):
    return parse_corpus(
        "\n\n".join("\n".join("%s\t%s" % (w, t) for w, t in sent) for sent in rows)
        + "\n",
        SCHEMA,
    )


# --- oracles -----------------------------------------------------------


def all_sequences(T, L):
    return itertools.product(range(L), repeat=T)


def brute_log_z(lattice):
    scores = [sequence_score(lattice, y) for y in all_sequences(
        lattice.n_positions, lattice.n_labels)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))

def brute_marginals(lattice):
    T, L = lattice.n_positions, lattice.n_labels
    log_z = brute_log_z(lattice)
    node = np.zeros((T, L))
    edge = np.zeros((max(T - 1, 0), L, L))
    for y in all_sequences(T, L):
        p = math.exp(sequence_score(lattice, y) - log_z)
        for t, label in enumerate(y):
            node[t, label] += p
        for t in range(T - 1):
            edge[t, y[t], y[t + 1]] += p
    return node, edge


def brute_viterbi(lattice):
    """Max score sequence; ties go to the reversed-lexicographically
    smallest sequence, which is what per-step lowest-index backtracking
    produces."""
    best_score, best_key, best_y = None, None, None
    for y in all_sequences(lattice.n_positions, lattice.n_labels):
        s = sequence_score(lattice, y)
        key = tuple(reversed(y))
        if best_score is None or s > best_score or (
            s == best_score and key < best_key
        ):
            best_score, best_key, best_y = s, key, list(y)
    return best_y


def exact_score(lattice, y):
    """sequence_score as an exact rational, with no rounding."""
    return sum(Fraction(lattice.unary[t, j]) for t, j in enumerate(y)) + sum(
        Fraction(lattice.pairwise[t, i, j]) for t, (i, j) in enumerate(zip(y, y[1:])))


def assert_optimal_within_rounding(lattice, path):
    """Float Viterbi rounds the 2T - 1 terms it sums along each path, so it
    may break an exact tie, or a near tie, either way.  Each addition moves
    a sum by at most half an ulp of a partial sum no larger than the path's
    absolute sum, so a computed path score is off by less than T eps times
    that sum.  The path it returns then scores, exactly, within twice that
    of the optimum, and is the optimum whenever the optimum beats every
    other path by more."""
    T = lattice.n_positions
    scores = {y: exact_score(lattice, y) for y in all_sequences(T, lattice.n_labels)}
    optimum = max(scores, key=scores.get)
    absolute = T * np.abs(lattice.unary).max() + (T - 1) * np.abs(lattice.pairwise).max(
        initial=0.0)
    bound = Fraction(2 * T * np.finfo(float).eps) * Fraction(absolute)
    assert scores[tuple(path)] >= scores[optimum] - bound
    if all(scores[optimum] - s > bound for y, s in scores.items() if y != optimum):
        assert tuple(path) == optimum


def log_domain(lattice):
    """The log-domain recursion on one lattice, each edge its own class:
    log Z, node marginals and edge marginals."""
    T = lattice.n_positions
    return crf._log_forward_backward(
        lattice.unary, lattice.pairwise, np.arange(T - 1), [1] * T
    )


def loop_viterbi(lattice):
    """Viterbi one label at a time; every argmax takes the first maximal
    index, as brute_viterbi's tie rule requires."""
    T, L = lattice.n_positions, lattice.n_labels
    unary, pairwise = lattice.unary.tolist(), lattice.pairwise.tolist()
    delta, back = unary[0], []
    for t in range(1, T):
        scores = [[delta[i] + pairwise[t - 1][i][j] for i in range(L)] for j in range(L)]
        best = [max(range(L), key=lambda i: (s[i], -i)) for s in scores]
        back.append(best)
        delta = [unary[t][j] + scores[j][best[j]] for j in range(L)]
    path = [max(range(L), key=lambda i: (delta[i], -i))]
    for best in reversed(back):
        path.append(best[path[-1]])
    return path[::-1]


def random_lattice(rng, T, L, integer=False):
    if integer:
        unary = rng.integers(-2, 3, size=(T, L)).astype(float)
        pairwise = rng.integers(-2, 3, size=(T - 1, L, L)).astype(float)
    else:
        unary = rng.uniform(-3, 3, size=(T, L))
        pairwise = rng.uniform(-3, 3, size=(T - 1, L, L))
    return Lattice(unary, pairwise)


def packed_viterbi(unaries, P, edge_classes):
    """crf._viterbi on chains packed as tag packs sentences, longest first
    and step by step, the edges of chain b scored by P[edge_classes[b]],
    with every step weighing the candidate bound however few its rows.
    Each chain's path, and whether any step scored candidates only."""
    order = sorted(range(len(unaries)), key=lambda b: -len(unaries[b]))
    sizes = [sum(len(u) > t for u in unaries) for t in range(max(map(len, unaries)))]
    at = [(b, t) for t in range(len(sizes)) for b in order if len(unaries[b]) > t]
    U = np.array([unaries[b][t] for b, t in at], dtype=float)
    classes = np.array([edge_classes[b][t - 1] for b, t in at if t], dtype=int)
    with patch.object(crf, "_PRUNE_CELLS", 0), patch.object(
            crf, "_score_candidates", wraps=crf._score_candidates) as pruned:
        path = crf._viterbi(U, P, classes, sizes)
    paths = [[] for _ in unaries]
    for (b, t), y in zip(at, path.tolist()):
        paths[b].append(y)
    return paths, pruned.called


# --- lattice construction ---------------------------------------------


class TestBuildLattice:
    def test_zero_weights_give_zero_lattice(self):
        templates = parse_templates(default_templates([0]))
        model = train(OMELETTE, templates, TrainingConfig(max_iterations=0))
        lattice = build_lattice(model, OMELETTE)
        assert not lattice.unary.any()
        assert not lattice.pairwise.any()
        assert lattice.unary.shape == (6, 5)
        assert lattice.pairwise.shape == (5, 5, 5)

    def test_single_feature_hits_one_cell(self):
        templates = parse_templates("U00:%x[0,0]\n")
        model = train(OMELETTE, templates, TrainingConfig(max_iterations=0))
        d = model.dictionary
        weights = np.zeros(d.n_weights)
        label = d.label_index("VINDP2P")
        weights[uni_base(d, "U00:faites") + label] = 1.5
        model = replace(model, weights=weights)
        lattice = build_lattice(model, OMELETTE)
        expected = np.zeros((6, 5))
        expected[2, label] = 1.5
        assert np.array_equal(lattice.unary, expected)
        assert not lattice.pairwise.any()

    def test_cells_match_feature_sum_oracle(self):
        templates = parse_templates(default_templates([0]))
        rng = np.random.default_rng(7)
        model = train(OMELETTE, templates, TrainingConfig(max_iterations=0))
        d = model.dictionary
        model = replace(model, weights=rng.normal(size=d.n_weights))
        for sentence in sentences(OMELETTE):
            lattice = build_lattice(model, sentence)
            uni, bi = active_features(templates, sentence)
            for t, strings in enumerate(uni):
                for y in range(d.n_labels):
                    total = sum(
                        model.weights[uni_base(d, s) + y]
                        for s in strings
                        if uni_base(d, s) is not None
                    )
                    assert lattice.unary[t, y] == pytest.approx(total, abs=1e-12)
            for t, strings in enumerate(bi):
                for prev in range(d.n_labels):
                    for cur in range(d.n_labels):
                        total = sum(
                            model.weights[bi_base(d, s) + prev * d.n_labels + cur]
                            for s in strings
                            if bi_base(d, s) is not None
                        )
                        assert lattice.pairwise[t, prev, cur] == pytest.approx(
                            total, abs=1e-12
                        )

    def test_narrow_corpus_rejected(self):
        templates = parse_templates("U00:%x[0,5]\n")
        model = train(OMELETTE, parse_templates("U00:%x[0,0]\n"),
                      TrainingConfig(max_iterations=0))
        model = replace(model, templates=templates)
        with pytest.raises(ColumnMismatchError):
            build_lattice(model, OMELETTE)

    def test_only_a_one_sentence_corpus_has_a_lattice(self):
        model = train(OMELETTE, parse_templates("U00:%x[0,0]\n"),
                      TrainingConfig(max_iterations=0))
        for indices in ([0, 0], []):
            with pytest.raises(LengthMismatchError):
                build_lattice(model, select_sentences(OMELETTE, indices))


class TestSequenceScore:
    def test_zero_lattice_scores_zero(self):
        lattice = Lattice(np.zeros((3, 2)), np.zeros((2, 2, 2)))
        for y in all_sequences(3, 2):
            assert sequence_score(lattice, y) == 0.0

    def test_single_position_is_the_cell(self):
        lattice = Lattice(np.array([[1.0, -2.0]]), np.zeros((0, 2, 2)))
        assert sequence_score(lattice, [1]) == -2.0

    def test_combines_unary_and_transitions(self):
        rng = np.random.default_rng(3)
        lattice = random_lattice(rng, 4, 3)
        y = [2, 0, 1, 1]
        expected = (
            lattice.unary[0, 2] + lattice.unary[1, 0] + lattice.unary[2, 1]
            + lattice.unary[3, 1] + lattice.pairwise[0, 2, 0]
            + lattice.pairwise[1, 0, 1] + lattice.pairwise[2, 1, 1]
        )
        assert sequence_score(lattice, y) == pytest.approx(expected, rel=1e-12)

    def test_wrong_length_rejected(self):
        lattice = Lattice(np.zeros((3, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(LengthMismatchError):
            sequence_score(lattice, [0, 1])


class TestForwardBackward:
    def test_uniform_case(self):
        lattice = Lattice(np.zeros((3, 4)), np.zeros((2, 4, 4)))
        log_z, node, edge = forward_backward(lattice)
        assert log_z == pytest.approx(3 * math.log(4), rel=1e-12)
        assert node == pytest.approx(np.full((3, 4), 0.25), abs=1e-12)
        assert edge == pytest.approx(np.full((2, 4, 4), 1 / 16), abs=1e-12)

    def test_single_position(self):
        unary = np.array([[0.3, -1.2, 2.0]])
        lattice = Lattice(unary, np.zeros((0, 3, 3)))
        log_z, node, edge = forward_backward(lattice)
        m = unary.max()
        assert log_z == pytest.approx(
            m + math.log(np.exp(unary - m).sum()), rel=1e-12
        )
        assert node.sum() == pytest.approx(1.0, abs=1e-12)
        assert edge.shape == (0, 3, 3)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 6))
        L = int(rng.integers(1, 5))
        lattice = random_lattice(rng, T, L)
        log_z, node, edge = forward_backward(lattice)
        assert log_z == pytest.approx(brute_log_z(lattice), rel=1e-10)
        bnode, bedge = brute_marginals(lattice)
        assert node == pytest.approx(bnode, abs=1e-9)
        assert edge == pytest.approx(bedge, abs=1e-9)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=60, deadline=None)
    def test_marginals_are_consistent(self, seed):
        rng = np.random.default_rng(seed + 10_000)
        T = int(rng.integers(1, 7))
        L = int(rng.integers(1, 6))
        lattice = random_lattice(rng, T, L)
        _, node, edge = forward_backward(lattice)
        assert node.sum(axis=1) == pytest.approx(np.ones(T), abs=1e-9)
        for t in range(T - 1):
            assert edge[t].sum(axis=1) == pytest.approx(node[t], abs=1e-9)
            assert edge[t].sum(axis=0) == pytest.approx(node[t + 1], abs=1e-9)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=30, deadline=None)
    def test_stays_finite_at_extreme_weights(self, seed):
        rng = np.random.default_rng(seed + 20_000)
        T = int(rng.integers(1, 40))
        L = int(rng.integers(1, 30))
        lattice = Lattice(
            rng.uniform(-1e4, 1e4, size=(T, L)),
            rng.uniform(-1e4, 1e4, size=(T - 1, L, L)),
        )
        log_z, node, edge = forward_backward(lattice)
        assert np.isfinite(log_z)
        assert np.isfinite(node).all() and np.isfinite(edge).all()
        assert node.sum(axis=1) == pytest.approx(np.ones(T), abs=1e-9)
        small = Lattice(lattice.unary[:4, :4], lattice.pairwise[:3, :4, :4])
        assert viterbi(small) == brute_viterbi(small)

    def test_sequence_probabilities_are_proper(self):
        rng = np.random.default_rng(11)
        lattice = random_lattice(rng, 4, 3)
        log_z, _, _ = forward_backward(lattice)
        total = 0.0
        for y in all_sequences(4, 3):
            p = math.exp(sequence_score(lattice, y) - log_z)
            assert 0.0 <= p <= 1.0
            total += p
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=5, deadline=None)
    def test_scaled_and_log_domain_recursions_agree(self, seed):
        rng = np.random.default_rng(seed + 40_000)
        lattice = random_lattice(rng, 20, 112)
        log_z, node, edge = forward_backward(lattice)
        ref_z, ref_node, ref_edge = log_domain(lattice)
        assert log_z == pytest.approx(ref_z, rel=1e-12)
        assert np.abs(node - ref_node).max() < 1e-11
        assert np.abs(edge - ref_edge).max() < 1e-11

    def test_underflow_spread_over_positions_takes_the_log_domain(self):
        # Label 1 starts 800 nats behind and gains 23 per position, and a
        # switch costs 1000.  The scaled forward vector drops label 1 to 0
        # at once while every scale factor stays ~1e-10, so only the score
        # spread, not the scale factors, shows the scaled result is wrong.
        T = 50
        unary = np.tile([-23.0, 0.0], (T, 1))
        unary[0] = [0.0, -800.0]
        pairwise = np.tile([[0.0, -1000.0], [-1000.0, 0.0]], (T - 1, 1, 1))
        log_z, node, edge = forward_backward(Lattice(unary, pairwise))
        ref_z, ref_node, ref_edge = log_domain(Lattice(unary, pairwise))
        assert log_z == pytest.approx(ref_z, rel=1e-12)
        assert log_z == pytest.approx(-800.0, abs=1e-6)
        assert node == pytest.approx(ref_node, abs=1e-12)
        assert edge == pytest.approx(ref_edge, abs=1e-12)


class TestViterbi:
    def test_zero_lattice_takes_lowest_indices(self):
        lattice = Lattice(np.zeros((4, 3)), np.zeros((3, 3, 3)))
        assert viterbi(lattice) == [0, 0, 0, 0]

    def test_dominant_path_is_found(self):
        rng = np.random.default_rng(5)
        T, L = 5, 4
        lattice = random_lattice(rng, T, L)
        path = [int(rng.integers(0, L)) for _ in range(T)]
        unary = lattice.unary.copy()
        for t, y in enumerate(path):
            unary[t, y] += 10.0
        assert viterbi(Lattice(unary, lattice.pairwise)) == path

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_continuous_scores(self, seed):
        rng = np.random.default_rng(seed + 20_000)
        T = int(rng.integers(1, 6))
        L = int(rng.integers(1, 5))
        lattice = random_lattice(rng, T, L)
        assert viterbi(lattice) == brute_viterbi(lattice)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_with_ties(self, seed):
        rng = np.random.default_rng(seed + 30_000)
        T = int(rng.integers(1, 6))
        L = int(rng.integers(1, 5))
        lattice = random_lattice(rng, T, L, integer=True)
        assert viterbi(lattice) == brute_viterbi(lattice)


    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=40, deadline=None)
    def test_batched_kernel_matches_each_lattice(self, seed):
        """Each of B same-length chains, packed step by step, with edges
        drawn from several transition classes, gets the path viterbi and
        brute force give its lattice."""
        rng = np.random.default_rng(seed + 50_000)
        B, T = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        L, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        integer = bool(seed % 2)  # integer scores make ties
        U = random_lattice(rng, B * T, L, integer).unary.reshape(B, T, L)
        P = random_lattice(rng, K + 1, L, integer).pairwise
        classes = rng.integers(0, K, size=(B, T - 1))
        paths = crf._viterbi(  # it overwrites its unary scores
            U.transpose(1, 0, 2).reshape(-1, L).copy(), P, classes.T.ravel(), [B] * T
        ).reshape(T, B).T
        for b in range(B):
            lattice = Lattice(U[b], P[classes[b]])
            assert paths[b].tolist() == viterbi(lattice) == brute_viterbi(lattice)

    @pytest.mark.parametrize("L", [256, 257])
    def test_back_pointers_hold_every_label_index(self, L):
        """Back-pointers take one byte up to 256 labels and two from 257.
        Integer scores make ties; where the last label's unary score is
        raised by 20, more than any other label can make up, it is every
        label's best predecessor at the next step, so its index must come
        back out of the back-pointers whole."""
        rng = np.random.default_rng(L)
        B, T = 3, 4
        U = rng.integers(-2, 3, size=(B, T, L)).astype(float)
        U[:, :, L - 1] += 20.0 * (rng.random((B, T)) < 0.5)
        P = rng.integers(-2, 3, size=(2, L, L)).astype(float)
        classes = rng.integers(0, 2, size=(B, T - 1))
        paths = crf._viterbi(  # it overwrites its unary scores
            U.transpose(1, 0, 2).reshape(-1, L).copy(), P, classes.T.ravel(), [B] * T
        ).reshape(T, B).T
        assert (paths[:, :-1] == L - 1).any()
        for b in range(B):
            lattice = Lattice(U[b].copy(), P[classes[b]])
            assert paths[b].tolist() == viterbi(lattice) == loop_viterbi(lattice)
            assert np.array_equal(lattice.unary, U[b])


class TestCandidateBound:
    """At each step Viterbi scores only the previous labels whose score is
    within the transitions' spread, over all classes, of their row's best,
    plus a rounding margin: any other label scores less than the best one
    does, whatever the current label.  A label exactly at the bound can
    tie the best, and being the lower index it must then win.  Each case
    holds a one-token chain, chains over both classes, and a chain whose
    first step decides the path at the bound."""

    # spread 1: class 0 holds the smallest transition and class 1 the
    # largest, and a class-1 edge from label 0 to label 0 gains the whole
    # spread over one from label 2
    P = np.array([
        [[0.0, -0.5, 0.25, 0.0], [0.25, 0.0, 0.0, -0.25],
         [0.0, 0.0, 0.0, 0.0], [-0.25, 0.0, 0.25, 0.0]],
        [[0.5, 0.0, 0.0, 0.0], [0.0, 0.25, 0.0, 0.0],
         [-0.5, 0.0, 0.0, 0.0], [0.0, 0.0, -0.25, 0.25]],
    ])

    @staticmethod
    def chains(first, P, rng):
        """The deciding chain (first, then a step that lifts label 0) and
        the others, with their edge classes."""
        L = len(first)
        lift = np.zeros(L)
        lift[0] = 2.0
        unaries = [np.array([first, lift]), np.array([first]),
                   rng.integers(-2, 3, size=(5, L)).astype(float),
                   np.vstack([first, rng.integers(-2, 3, size=(4, L))])]
        edge_classes = [[1], [], rng.integers(0, len(P), 4), [1, 0, 1, 1]]
        return unaries, edge_classes

    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_label_at_the_bound_and_ulps_around_it(self, ulps):
        """Label 0 sits ulps from label 2's score minus the spread, in
        [4, 8) where every sum of the deciding chain is exact: at or above
        the bound it ties or beats label 2 into label 0 and wins."""
        rng = np.random.default_rng(ulps + 10)
        first = [5.0 + ulps * 2.0**-50, 2.0, 6.0, 3.0]
        unaries, edge_classes = self.chains(first, self.P, rng)
        paths, pruned = packed_viterbi(unaries, self.P, edge_classes)
        assert pruned
        assert paths[0] == [0 if ulps >= 0 else 2, 0]
        for U, k, path in zip(unaries, edge_classes, paths):
            lattice = Lattice(U, self.P[np.asarray(k, dtype=int)])
            assert path == loop_viterbi(lattice)
            assert_optimal_within_rounding(lattice, path)
            if len(U) <= 2:
                assert path == brute_viterbi(lattice)

    @pytest.mark.parametrize("ulps", [-3, -2, -1, 0, 1])
    def test_rounding_decides_at_large_unary_scores(self, ulps):
        """Unary scores near 1e4 next to transitions of 2.4e-3 to 3.8e-3:
        label 0 sits ulps of 1e4 from label 2's score minus the rounded
        spread.  One ulp under it, label 0 trails exactly, but its rounded
        sum ties label 2's, so it wins; the rounding margin must keep it.
        Into label 1 to 3 every edge adds 2.4e-3, so label 0 is the best
        last label, and the second step adds 0, so brute force rounds the
        same sums the kernel does."""
        P = np.full((2, 4, 4), 2.4e-3)
        P[0] += np.diag([1e-3, 0.0, 5e-4, 0.0])
        P[1, 0, 0] = 3.8e-3
        first = [1e4 - (3.8e-3 - 2.4e-3), -1e4, 1e4, 1e4 - 1.0]
        for _ in range(abs(ulps)):
            first[0] = np.nextafter(first[0], np.sign(ulps) * np.inf)
        unaries, edge_classes = self.chains(first, P, np.random.default_rng(ulps + 20))
        unaries[0][1] = 0.0
        unaries[2] = 1e4 + unaries[2] * 1e-3
        paths, pruned = packed_viterbi(unaries, P, edge_classes)
        assert pruned
        assert paths[0] == [0 if ulps >= -1 else 2, 0]
        for U, k, path in zip(unaries, edge_classes, paths):
            lattice = Lattice(U, P[np.asarray(k, dtype=int)])
            assert path == loop_viterbi(lattice)
            assert_optimal_within_rounding(lattice, path)
            if len(U) <= 2:
                assert path == brute_viterbi(lattice)

    def test_integer_ties_and_every_label_a_candidate(self):
        """Integer scores tie exactly.  A third class spanning 100 puts every
        label within the spread of the best, and a zero lattice ties every
        label to it: there each step scores all L labels in full."""
        rng = np.random.default_rng(3)
        unaries, edge_classes = self.chains([5.0, 2.0, 6.0, 3.0], self.P, rng)
        wide = np.concatenate([self.P, [np.diag([50.0, -50.0, 0.0, 0.0])]])
        zeros = [np.zeros_like(U) for U in unaries]
        for batch, P, pruned in ((unaries, self.P, True), (unaries, wide, False),
                                 (zeros, np.zeros_like(self.P), False)):
            paths, engaged = packed_viterbi(batch, P, edge_classes)
            assert engaged == pruned
            for U, k, path in zip(batch, edge_classes, paths):
                lattice = Lattice(U, P[np.asarray(k, dtype=int)])
                assert path == brute_viterbi(lattice) == loop_viterbi(lattice)
        assert paths == [[0] * len(U) for U in zeros]

    def test_extreme_transitions_raise_no_warning(self):
        """Transitions of +-1e308 overflow the spread and the margin to inf,
        which keeps every label, so each step scores all L.  No path sum
        overflows: only an edge from label 1 into label 0 gains 1e308, and
        every edge out of label 0 loses it.  The kernel then warns of
        nothing (the tests turn RuntimeWarning into an error), and each
        path scores, exactly, within rounding of the optimum: a sum near
        1e308 drops the unary scores, so assert_optimal_within_rounding's
        bound, computed here in Fractions, where its floats would overflow."""
        P = np.zeros((2, 3, 3))
        P[:, 0, :] = -1e308
        P[0, 1, 0] = 1e308
        rng = np.random.default_rng(5)
        lengths = [1, 2, 5, 4]
        unaries = [rng.integers(-2, 3, size=(T, 3)).astype(float) for T in lengths]
        edge_classes = [rng.integers(0, 2, size=T - 1) for T in lengths]
        paths, pruned = packed_viterbi(unaries, P, edge_classes)
        assert not pruned
        for U, k, path in zip(unaries, edge_classes, paths):
            lattice = Lattice(U, P[k])
            assert path == loop_viterbi(lattice)
            T = len(U)
            bound = Fraction(2 * T * np.finfo(float).eps) * (2 * T + (T - 1) * Fraction(1e308))
            optimum = max(exact_score(lattice, y) for y in all_sequences(T, 3))
            assert exact_score(lattice, path) >= optimum - bound

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=100, deadline=None)
    def test_random_chains_match_the_unpruned_recursion(self, seed):
        """Chains of 1 to 5 tokens over up to 4 classes: tie-prone integers,
        peaked scores under a narrow spread, or unary scores near 1e4 next
        to transitions near 1e-3.  Every path is loop_viterbi's, which sums
        in the kernel's order, bit for bit; brute force agrees where the
        sums are exact."""
        rng = np.random.default_rng(seed + 60_000)
        L, n_classes = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        kind = seed % 3
        lengths = rng.integers(1, 6, size=int(rng.integers(1, 7)))
        if kind == 0:
            unaries = [rng.integers(-2, 3, size=(T, L)).astype(float) for T in lengths]
            P = rng.integers(-1, 2, size=(n_classes, L, L)).astype(float)
        elif kind == 1:
            unaries = [rng.normal(0, 3, size=(T, L)) for T in lengths]
            P = rng.uniform(-0.2, 0.2, size=(n_classes, L, L))
        else:
            unaries = [1e4 + rng.integers(-2, 3, size=(T, L)) * 1e-3 for T in lengths]
            P = rng.integers(0, 3, size=(n_classes, L, L)) * 1e-3
        edge_classes = [rng.integers(0, n_classes, size=T - 1) for T in lengths]
        paths, _ = packed_viterbi(unaries, P, edge_classes)
        for U, k, path in zip(unaries, edge_classes, paths):
            lattice = Lattice(U, P[k])
            assert path == loop_viterbi(lattice)
            if kind == 0 and L ** len(U) <= 1000:
                assert path == brute_viterbi(lattice)
            elif L ** len(U) <= 1000:
                assert_optimal_within_rounding(lattice, path)


class TestPackedKernel:
    """Forward-backward and Viterbi over a whole corpus in the packed
    layout, against per-sentence references."""

    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        n_bigram=st.integers(1, 3),
        n_labels=st.integers(1, 5),
        scale=st.sampled_from([0.0, "integers", 1.0, 1e3]),
        group_tokens=st.sampled_from([None, 1, 3, 10]),
        seed=st.integers(0, 2**32 - 1),
    )
    # an exact tie between two paths that float sums break either way
    @example(lengths=[3, 7, 12, 8, 1, 6, 12], n_bigram=1, n_labels=2, scale=1e3,
             group_tokens=None, seed=8091405)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sentence_references(
        self, lengths, n_bigram, n_labels, scale, group_tokens, seed
    ):
        """Sentences of any lengths in any order, several transition
        classes (B1 and B2 read the words), in one group or cut into
        groups every group_tokens tokens.  At scale 1e3 one unigram block
        is pushed to +-5e3, so with two labels or more the scores spread
        past 690 nats and the log-domain recursion runs.  Zero and small
        integer weights sum exactly, so Viterbi's ties are exact there."""
        rng = np.random.default_rng(seed)
        corpus = corpus_of([
            [(str(rng.choice(["a", "b", "c"])), "T%d" % rng.integers(n_labels))
             for _ in range(T)]
            for T in lengths
        ])
        bigrams = ["B", "B1:%x[-1,0]", "B2:%x[0,0]"][:n_bigram]
        model = small_model(corpus, "U00:%x[0,0]\nU01:%x[1,0]\n" + "\n".join(bigrams))
        d = model.dictionary
        L = d.n_labels
        if scale == "integers":
            weights = rng.integers(-2, 3, d.n_weights).astype(float)
        else:
            weights = scale * rng.uniform(-1, 1, d.n_weights)
        if scale == 1e3:
            block = uni_base(d, d.uni_strings[0])
            weights[block : block + L] = 5e3 * (-1.0) ** np.arange(L)
        model = replace(model, weights=weights)
        cap = crf._GROUP_CELL_CAP if group_tokens is None else group_tokens * L
        with patch.object(crf, "_GROUP_CELL_CAP", cap):
            enc = crf._encode(corpus, model.templates, d, 1)
            with patch.object(crf, "_log_forward_backward",
                              wraps=crf._log_forward_backward) as log_path:
                log_z, node, per_class = crf._expectations(*crf._scores(weights, enc), enc)
            expected = enc.transitions.T @ per_class.reshape(len(per_class), L * L)
            assert log_path.called == (scale == 1e3 and L > 1)
            # a group starts at each sorted sentence that starts past a
            # multiple of cap // L tokens
            before = itertools.accumulate(sorted(lengths, reverse=True)[:-1], initial=0)
            assert len(enc.spans) == len({b // (cap // L) for b in before})
        assert np.isfinite(log_z) and np.isfinite(node).all()
        assert np.isfinite(expected).all()

        ref_z, ref_node = 0.0, []
        ref_expected = np.zeros((len(d.bi_strings), L, L))
        lattices = []
        for sentence in sentences(corpus):
            lattice = build_lattice(model, sentence)
            z, sentence_node, edge = log_domain(lattice)
            ref_z += z
            ref_node.append(sentence_node)
            for t, strings in enumerate(active_features(model.templates, sentence)[1]):
                for row in d.bigram_rows(strings):
                    if row >= 0:
                        ref_expected[row] += edge[t]
            lattices.append(lattice)
        assert log_z == pytest.approx(ref_z, rel=1e-9, abs=1e-9)
        assert np.abs(node[enc.position] - np.concatenate(ref_node)).max() <= 1e-9
        assert np.abs(expected.reshape(ref_expected.shape) - ref_expected).max(initial=0.0) \
            <= 1e-9 * np.abs(ref_expected).max(initial=1.0)

        paths = [loop_viterbi(x) for x in lattices]
        for x, path in zip(lattices, paths):
            if L ** x.n_positions > 1000:
                continue
            if scale in (0.0, "integers"):
                assert path == brute_viterbi(x)
            else:
                assert_optimal_within_rounding(x, path)
        gold = [[model.labels[y] for y in path] for path in paths]
        with patch.object(crf, "_GROUP_CELL_CAP", cap):
            assert tag(model, corpus) == gold
            # one row per chunk of a step's score tensor
            with patch.object(crf, "_VITERBI_CELL_CAP", L * L):
                assert tag(model, corpus) == gold
            # every step weighs the candidate bound
            with patch.object(crf, "_PRUNE_CELLS", 0):
                assert tag(model, corpus) == gold


# --- objective and training -------------------------------------------


    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        n_labels=st.integers(1, 5),
        n_classes=st.integers(2, 4),
        by_step=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_class_is_that_class_repeated(
        self, lengths, n_labels, n_classes, by_step, seed
    ):
        """The one-class branch against the general one: the same matrix
        repeated as several classes, the edges spread over them step by
        step or edge by edge.  The one class's counts are the classes'
        counts summed, up to the order of that sum.  Spread step by step,
        every step runs the same products in both, so log Z and the node
        marginals are equal bit for bit; spread edge by edge, BLAS gets
        other row counts, which may round differently."""
        rng = np.random.default_rng(seed)
        ordered = sorted(lengths, reverse=True)
        sizes = [sum(T > t for T in ordered) for t in range(ordered[0])]
        n, first = sum(lengths), sizes[0]
        U = 3.0 * rng.normal(size=(n, n_labels))
        P = rng.normal(size=(1, n_labels, n_labels))
        if by_step:
            spread = np.repeat(rng.integers(n_classes, size=len(sizes) - 1), sizes[1:])
        else:
            spread = rng.integers(n_classes, size=n - first)
        log_z, node, counts = crf._forward_backward(
            U, P, np.zeros(n - first, dtype=np.intp), sizes)
        many_z, many_node, many_counts = crf._forward_backward(
            U, np.repeat(P, n_classes, axis=0), spread, sizes)
        if by_step:
            assert log_z == many_z and np.array_equal(node, many_node)
        else:
            assert log_z == pytest.approx(many_z, rel=1e-12)
            assert np.allclose(node, many_node, rtol=1e-12, atol=0)
        assert counts.shape == (1, n_labels, n_labels)
        assert np.allclose(counts[0], many_counts.sum(axis=0), rtol=1e-12, atol=0)


def small_model(corpus, template_text="U00:%x[0,0]\nB\n", **hyper):
    templates = parse_templates(template_text)
    return train(corpus, templates, TrainingConfig(max_iterations=0, **hyper))


class TestObjective:
    def test_zero_weight_closed_form(self):
        model = small_model(OMELETTE)
        L = model.dictionary.n_labels
        value, _ = objective_and_gradient(model, OMELETTE, sigma=1.0)
        assert value == pytest.approx(-6 * math.log(L), rel=1e-12)

    def test_gradient_at_zero_is_empirical_minus_uniform(self):
        corpus = corpus_of([[("le", "D"), ("sel", "N")]])
        model = small_model(corpus)
        d = model.dictionary
        _, gradient = objective_and_gradient(model, corpus, sigma=1.0)
        # Each unigram string fires once; expected mass is uniform.
        L = d.n_labels
        assert gradient[uni_base(d, "U00:le") + d.label_index("D")] == pytest.approx(0.5)
        assert gradient[uni_base(d, "U00:le") + d.label_index("N")] == pytest.approx(-0.5)
        assert gradient[bi_base(d, "B") + d.label_index("D") * L + d.label_index("N")] \
            == pytest.approx(0.75)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=12, deadline=None)
    def test_gradient_matches_central_differences(self, seed):
        corpus = corpus_of([
            [("le", "D"), ("sel", "N")],
            [("la", "D"), ("mer", "N"), ("et", "C")],
            [("sel", "N")],
            [("la", "D"), ("sel", "N")],
        ])
        # Every edge has one active bigram row; some edges have none (B2
        # strings seen once fall under cutoff 2); every edge has two.
        for template_text, cutoff in [
            ("U00:%x[0,0]\nB\n", 1),
            ("U00:%x[0,0]\nB2:%x[0,0]\n", 2),
            ("U00:%x[0,0]\nB\nB1:%x[-1,0]\n", 1),
        ]:
            rng = np.random.default_rng(seed)
            model = small_model(corpus, template_text, cutoff=cutoff)
            weights = rng.normal(scale=0.5, size=model.dictionary.n_weights)
            model = replace(model, weights=weights)
            sigma = 2.0
            value, gradient = objective_and_gradient(model, corpus, sigma)
            assert np.isfinite(value)
            h = 1e-5
            for i in range(len(weights)):
                bump = np.zeros_like(weights)
                bump[i] = h
                up, _ = objective_and_gradient(replace(model, weights=weights + bump), corpus, sigma)
                down, _ = objective_and_gradient(replace(model, weights=weights - bump), corpus, sigma)
                numeric = (up - down) / (2 * h)
                assert gradient[i] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_matches_the_log_domain_reference_at_extreme_weights(self, seed):
        """Scores this far apart underflow the scaled recursion's doubles,
        so the objective must take the log-domain path and still agree
        with a per-sentence reference built on it."""
        rng = np.random.default_rng(seed)
        corpus = corpus_of([
            [("le", "D"), ("sel", "N")],
            [("la", "D"), ("mer", "N"), ("et", "C"), ("le", "D"), ("sel", "N")],
            [("sel", "N")],
        ])
        model = small_model(corpus, "U00:%x[0,0]\nU01:%x[1,0]\nB\nB1:%x[-1,0]\n")
        d = model.dictionary
        weights = rng.uniform(-1e3, 1e3, size=d.n_weights)
        model = replace(model, weights=weights)
        sigma = 30.0
        value, gradient = objective_and_gradient(model, corpus, sigma)
        ref_value = -float(weights @ weights) / (2 * sigma * sigma)
        ref_gradient = -weights / (sigma * sigma)
        for sentence, labels in zip(sentences(corpus), corpus.sentence_column("tag")):
            y = [d.label_index(label) for label in labels]
            lattice = build_lattice(model, sentence)
            log_z, node, edge = log_domain(lattice)
            ref_value += sequence_score(lattice, y) - log_z
            uni, bi = active_features(model.templates, sentence)
            for t, strings in enumerate(uni):
                for s in strings:
                    if uni_base(d, s) is not None:
                        block = uni_base(d, s)
                        ref_gradient[block + y[t]] += 1.0
                        ref_gradient[block : block + d.n_labels] -= node[t]
            for t, strings in enumerate(bi):
                for s in strings:
                    if bi_base(d, s) is not None:
                        block = bi_base(d, s)
                        ref_gradient[block + y[t] * d.n_labels + y[t + 1]] += 1.0
                        ref_gradient[block : block + d.n_labels ** 2] -= edge[t].ravel()
        assert np.isfinite(value) and np.isfinite(gradient).all()
        assert value == pytest.approx(ref_value, rel=1e-9)
        scale = np.abs(ref_gradient).max()
        assert np.abs(gradient - ref_gradient).max() <= 1e-9 * scale

    def test_unknown_gold_label_rejected(self):
        model = small_model(OMELETTE)
        other = corpus_of([[("sel", "NOPE")]])
        with pytest.raises(UnknownLabelError):
            objective_and_gradient(model, other, sigma=1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan, 1e-200])
    def test_refuses_a_sigma_that_training_refuses(self, sigma):
        model = small_model(OMELETTE)
        with pytest.raises(TrainingConfigError):
            objective_and_gradient(model, OMELETTE, sigma)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_value_is_the_gold_paths_score_less_log_z(self, seed):
        """Summed over sentences, with several transition classes and the
        sentences cut into groups of at most three tokens."""
        rng = np.random.default_rng(seed)
        corpus = corpus_of([
            [("le", "D"), ("sel", "N")],
            [("la", "D"), ("mer", "N"), ("et", "C"), ("le", "D"), ("sel", "N")],
            [("sel", "N")],
            [("et", "C"), ("la", "D"), ("mer", "N")],
        ])
        model = small_model(corpus, "U00:%x[0,0]\nB\nB1:%x[-1,0]\n")
        d = model.dictionary
        weights = rng.normal(size=d.n_weights)
        model = replace(model, weights=weights)
        sigma = 2.0
        with patch.object(crf, "_GROUP_CELL_CAP", 3 * d.n_labels):
            enc = crf._encode(corpus, model.templates, d, 1)
            assert len(enc.spans) > 1 and enc.transitions.shape[0] > 1
            value, _ = objective_and_gradient(model, corpus, sigma)
        expected = -float(weights @ weights) / (2 * sigma * sigma)
        for sentence, labels in zip(sentences(corpus), corpus.sentence_column("tag")):
            lattice = build_lattice(model, sentence)
            y = [d.label_index(label) for label in labels]
            expected += sequence_score(lattice, y) - forward_backward(lattice)[0]
        assert value == pytest.approx(expected, rel=1e-12)

    def test_token_coordinates_give_the_weight_coordinates_objective(self):
        """At w = B z, value and gradient in token coordinates, read off
        the Gram image B'B z, are those in weight coordinates, the gradient
        mapped through B."""
        corpus = paired_corpus()
        model = small_model(corpus, "U00:%x[0,0]\nU01:%x[1,0]\nB\nB1:%x[-1,0]\n")
        enc = crf._encode(corpus, model.templates, model.dictionary, 1)
        basis = crf._TokenBasis(enc)
        z = np.random.default_rng(7).normal(size=basis.shape[1])
        gram = gram_oracle(enc, z)
        value_z, gradient_z = crf._objective(z, enc, 3.0, gram)
        value_w, gradient_w = crf._objective(basis.matvec(z), enc, 3.0)
        assert gradient_w.size == basis.shape[0] == model.dictionary.n_weights
        assert value_z == pytest.approx(value_w, rel=1e-12)
        scale = np.abs(gradient_w).max()
        assert np.abs(basis.matvec(gradient_z) - gradient_w).max() <= 1e-12 * scale


SEPARABLE = corpus_of([
    [("le", "D"), ("sel", "N"), ("fond", "V")],
    [("la", "D"), ("mer", "N")],
    [("le", "D"), ("fond", "V")],
    [("sel", "N"), ("et", "C"), ("mer", "N")],
])


class TestTrain:
    def test_separable_corpus_reaches_perfect_held_in_accuracy(self):
        templates = parse_templates(default_templates([0]))
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=100))
        predicted = tag(model, SEPARABLE)
        assert predicted == SEPARABLE.sentence_column("tag")

    def test_zero_iterations_give_zero_weights(self):
        model = small_model(OMELETTE)
        assert model.iterations == 0
        assert not model.weights.any()
        assert len(model.trace) == 1

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 2.5), ("max_iterations", 3.0), ("max_iterations", "3"),
        ("max_iterations", -1), ("cutoff", 1.5), ("cutoff", 2.0), ("cutoff", 0),
    ])
    def test_config_refuses_counts_that_are_not_integers_in_range(self, field, value):
        with pytest.raises(TrainingConfigError, match="%s must be an integer" % field):
            TrainingConfig(**{field: value})

    def test_config_takes_numpy_integer_counts(self):
        config = TrainingConfig(max_iterations=np.int64(3), cutoff=np.int32(2))
        assert (config.max_iterations, config.cutoff) == (3, 2)

    def test_duplicated_training_set_gives_same_decoder(self):
        templates = parse_templates(default_templates([0]))
        config = TrainingConfig(max_iterations=80)
        model_a = train(SEPARABLE, templates, config)
        doubled = select_sentences(SEPARABLE, [*range(SEPARABLE.n_sentences)] * 2)
        model_b = train(doubled, templates, config)
        assert tag(model_a, SEPARABLE) == tag(model_b, SEPARABLE)

    def test_trace_is_monotone_and_improves(self):
        templates = parse_templates(default_templates([0]))
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=50))
        trace = model.trace
        assert len(trace) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert trace[-1] > trace[0]

    def test_training_is_deterministic(self):
        templates = parse_templates(default_templates([0]))
        config = TrainingConfig(max_iterations=40)
        a = train(SEPARABLE, templates, config)
        b = train(SEPARABLE, templates, config)
        assert np.array_equal(a.weights, b.weights)
        assert a.trace == b.trace

    def test_empty_training_set_rejected(self):
        empty = Corpus(((), ()), (), SCHEMA)
        with pytest.raises(EmptyTrainingSetError):
            train(empty, parse_templates("U00:%x[0,0]\n"))

    def test_template_reading_label_column_rejected(self):
        with pytest.raises(ColumnMismatchError):
            train(OMELETTE, parse_templates("U00:%x[0,1]\n"))

    def test_trace_and_call_count_match_the_optimizer(self, monkeypatch):
        calls = []
        objective = crf._objective

        def counted(*args):
            calls.append(1)
            return objective(*args)

        monkeypatch.setattr(crf, "_objective", counted)
        templates = parse_templates(default_templates([0]))
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=50))
        assert len(model.trace) == model.iterations + 1
        assert model.evaluations == len(calls)
        assert model.stop not in UNCONVERGED

    def test_iteration_cap_is_reported(self):
        templates = parse_templates(default_templates([0]))
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=1))
        assert (model.iterations, model.stop) == (1, "max_iterations")
        assert len(model.trace) == 2


class TestWarmStart:
    """train's start model: its weights mapped onto the corpus's dictionary
    by string and label, on the weights only."""

    def test_each_shared_string_and_label_starts_at_the_start_weight(self):
        templates = parse_templates("U00:%x[0,0]\nB\n")
        # the start's labels come in another order and add C; "table"
        # appears only in the corpus
        wider = corpus_of([[("sel", "N"), ("et", "C"), ("mer", "N")],
                           [("le", "D"), ("fond", "V")], [("la", "D"), ("mer", "N")]])
        start = small_model(wider, "U00:%x[0,0]\nB\n")
        rng = np.random.default_rng(0)
        start = replace(start, weights=rng.normal(size=start.dictionary.n_weights))
        corpus = corpus_of([[("le", "D"), ("fond", "V")], [("la", "D"), ("table", "N")]] * 3)
        model = train(corpus, templates, TrainingConfig(max_iterations=0), start=start)
        d, old = model.dictionary, start.dictionary
        assert corpus.n_tokens >= len(d.uni_strings)  # trained on the weights
        assert d.labels == ("D", "V", "N") != old.labels[:3]
        assert set(d.labels) < set(old.labels)
        expected = np.zeros(d.n_weights)
        for s in d.uni_strings:
            for a, label in enumerate(d.labels):
                if uni_base(old, s) is not None:
                    expected[uni_base(d, s) + a] = start.weights[
                        uni_base(old, s) + old.label_index(label)]
        for s in d.bi_strings:
            for (a, x), (b, y) in itertools.product(enumerate(d.labels), repeat=2):
                expected[bi_base(d, s) + a * d.n_labels + b] = start.weights[
                    bi_base(old, s) + old.label_index(x) * old.n_labels + old.label_index(y)]
        assert "U00:table" in d.uni_strings and "U00:table" not in old.uni_strings
        assert np.array_equal(model.weights, expected)

    def test_token_coordinates_ignore_the_start(self, monkeypatch):
        """A start is not of the representer form A'Z, so training on token
        coordinates starts at zero, bit for bit as without one."""
        templates = parse_templates(default_templates([0]))
        config = TrainingConfig(max_iterations=100)
        start = train(SEPARABLE, templates, config)
        fold = select_sentences(SEPARABLE, [0, 2, 3])
        bases = []
        token_basis = crf._TokenBasis
        monkeypatch.setattr(crf, "_TokenBasis",
                            lambda enc: bases.append(1) or token_basis(enc))
        cold = train(fold, templates, config)
        warm = train(fold, templates, config, start=start)
        assert len(bases) == 2
        assert np.array_equal(warm.weights, cold.weights)
        assert (warm.trace, warm.iterations, warm.evaluations, warm.stop) == (
            cold.trace, cold.iterations, cold.evaluations, cold.stop)


# --- optimizer --------------------------------------------------------


def quadratic(A, b):
    """f(x) = x'Ax/2 - b'x and its gradient."""
    return lambda x, gram=None: (float(x @ A @ x / 2 - b @ x), A @ x - b)


def two_loop_oracle(g, pairs, G):
    """The textbook two-loop recursion (Nocedal & Wright, Algorithm 7.4)
    in the inner product <a, b> = a'Gb: the L-BFGS direction -Hg from the
    pairs (s, y), oldest first, with H0 the newest pair's s'y / y'y."""
    dot = lambda a, b: a @ G @ b
    q, alphas = g.copy(), []
    for s, y in reversed(pairs):
        alphas.append(dot(s, q) / dot(y, s))
        q -= alphas[-1] * y
    if pairs:
        s, y = pairs[-1]
        q *= dot(s, y) / dot(y, y)
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - dot(y, q) / dot(y, s)) * s
    return -q


def images_under(B):
    """minimize's images for the basis B, a matrix: the largest entry of
    B v in size, and B'B v."""
    def images(v):
        w = B @ v
        return max(w.max(initial=0.0), -w.min(initial=0.0)), B.T @ w
    return images


class TestMinimize:
    @pytest.mark.parametrize("condition", [1.0, 1e2, 1e4])
    def test_finds_the_minimizer_of_a_diagonal_quadratic(self, condition):
        rng = np.random.default_rng(0)
        a = np.logspace(0, np.log10(condition), 10)
        c = rng.uniform(-5, 5, size=10)

        def fun(x, gram=None):  # minimum 0 at c
            return float(a @ (x - c) ** 2 / 2), a * (x - c)

        x, iterations, calls, stop = minimize(fun, np.zeros(10), 500, 1e-15)
        assert stop not in UNCONVERGED
        assert np.abs(x - c).max() <= 1e-6
        assert calls >= iterations + 1

    def test_zero_iterations_evaluate_once(self):
        x0 = np.ones(3)
        x, iterations, calls, stop = minimize(
            quadratic(np.eye(3), np.zeros(3)), x0, 0, 1e-5
        )
        assert x is x0
        assert (iterations, calls, stop) == (0, 1, "max_iterations")

    def test_a_vanishing_gradient_stops_at_once(self):
        result = minimize(quadratic(np.eye(3), np.ones(3)), np.ones(3), 10, 1e-5)
        assert result[1:] == (0, 1, "gradient")

    def test_the_gradient_stop_reads_the_image_under_the_basis(self):
        """f(B z) = (z0 + z1 - 1)^2 / 2 with B = [1 1]; the coordinates
        (z0 + z1, -1) stand for its gradient, and are not 0 where it is."""
        fun = lambda z, gram: (float((z.sum() - 1) ** 2 / 2), np.array([z.sum(), -1.0]))
        result = minimize(fun, np.array([2.0, -1.0]), 10, 1e-5,
                          images=images_under(np.ones((1, 2))))
        assert result[1:] == (0, 1, "gradient")

    @pytest.mark.parametrize("basis", [False, True])
    def test_fun_sees_the_point_and_its_gram_image(self, basis):
        """fun is called as fun(z, G z), always: without images G is the
        identity and the image is the point itself, not a copy; under
        images_under(B) it is B'B z.  f(B z) = |B z|^2 / 2 - c'B'B z, whose
        gradient is B (z - c)."""
        rng = np.random.default_rng(0)
        B = rng.normal(size=(8, 5)) if basis else np.eye(5)
        c = rng.normal(size=5)
        calls = []

        def fun(z, gram):
            calls.append((z.copy(), gram is z, gram.copy()))
            return float(z @ gram / 2 - c @ gram), z - c

        minimize(fun, rng.normal(size=5), 20, 1e-12,
                 images=images_under(B) if basis else None)
        assert len(calls) > 1
        for z, same, gram in calls:
            if basis:
                exact = B.T @ (B @ z)
                assert np.abs(gram - exact).max() <= 1e-12 * np.abs(exact).max()
            else:
                assert same

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, k", [(12, 4), (30, 9), (5, 5)])
    def test_a_basis_takes_the_euclidean_steps(self, seed, n, k):
        """f(x) = lam |x|^2 / 2 + (B'x)'H(B'x) / 2 - c'B'x has its minimizer
        in the span of B, and its gradient at B z is B (lam z + H B'B z - c).
        From 0, L-BFGS on the coordinates z under B's inner product takes
        the steps L-BFGS takes on x.  The coordinates' objective reads B'x
        off the Gram image minimize carries, which must be B'B z."""
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n, k))
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        H = Q @ np.diag(np.logspace(0, 2, k)) @ Q.T
        c = rng.normal(size=k) * 10
        lam = 0.1

        def fun(x, gram=None):
            v = B.T @ x
            return float(lam * x @ x / 2 + v @ H @ v / 2 - c @ v), lam * x + B @ (H @ v - c)

        def coordinates(z, gram):
            exact = B.T @ (B @ z)
            assert np.abs(gram - exact).max() <= 1e-12 * np.abs(exact).max()
            value = lam * z @ gram / 2 + gram @ H @ gram / 2 - c @ gram
            return float(value), lam * z + H @ gram - c

        on_x, on_z = [], []
        _, *outcome = minimize(fun, np.zeros(n), 200, 1e-9,
                               callback=lambda x, f: on_x.append(x))
        _, *outcome_z = minimize(coordinates, np.zeros(k), 200, 1e-9,
                                 callback=lambda z, f: on_z.append(z),
                                 images=images_under(B))
        assert outcome_z == outcome
        assert outcome[-1] not in UNCONVERGED
        assert len(on_x) == len(on_z)
        for x, z in zip(on_x, on_z):
            assert np.abs(B @ z - x).max() <= 1e-6 * (1 + np.abs(x).max())

    @staticmethod
    def random_quadratic(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        log_condition = rng.uniform(0, 4)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = Q @ np.diag(np.logspace(0, log_condition, n)) @ Q.T
        b = rng.normal(size=n) * 10
        return A, b, rng.normal(size=n)

    @pytest.mark.parametrize("seed", [2800, 3391, 3502])
    def test_a_search_that_rounding_stops_at_the_minimum_is_converged(self, seed, monkeypatch):
        """Near the minimum of these quadratics no trial step lowers the
        value by more than its rounding: the line search returns the point
        it started from, and that is convergence, not a failed search."""
        returned_the_start = []
        search = crf._line_search

        def recording(fun, x, *rest):
            result = search(fun, x, *rest)
            returned_the_start.append(result[1] is x)
            return result

        monkeypatch.setattr(crf, "_line_search", recording)
        A, b, x0 = self.random_quadratic(seed)
        fun = quadratic(A, b)
        x, _, _, stop = minimize(fun, x0, 200, 1e-8)
        assert stop == "converged" and returned_the_start[-1]
        lowest = fun(np.linalg.solve(A, b))[0]
        assert fun(x)[0] - lowest <= 1e-12 * abs(lowest)

    @pytest.mark.parametrize("seed", [978, 1568])
    def test_a_search_that_ends_at_the_minimum_is_a_success(self, seed):
        """These quadratics end on a step whose decrease is within the
        tolerance, next to the minimum."""
        A, b, x0 = self.random_quadratic(seed)
        fun = quadratic(A, b)
        x, _, _, stop = minimize(fun, x0, 200, 1e-8)
        assert stop == "converged"
        lowest = fun(np.linalg.solve(A, b))[0]
        assert fun(x)[0] - lowest <= 1e-12 * abs(lowest)

    @given(seed=st.integers(0, 2**32 - 1), basis=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_the_direction_is_the_textbook_two_loop_recursions(self, seed, basis):
        """minimize forms its direction from dot products; it must be the
        textbook recursion's on the same pairs, within rounding, before and
        after the 10-pair history wraps.  Under a basis B the inner product
        is <a, b> = a'B'Bb, and the direction comes with its Gram image."""
        rng = np.random.default_rng(seed)
        k = 16
        B = rng.normal(size=(24, k)) if basis else np.eye(k)
        G = B.T @ B
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        H = Q @ np.diag(np.logspace(0, 2, k)) @ Q.T
        c = rng.normal(size=k) * 10

        def coordinates(z, gram=None):  # f(B z) = (B'B z)'H(B'B z) / 2 + |B z|^2 / 20 - c'B'B z
            gram = G @ z if gram is None else gram
            return float(gram @ H @ gram / 2 + z @ gram / 20 - c @ gram), H @ gram + z / 10 - c

        searches = []
        search = crf._line_search

        def recording(fun, x, x_gram, f0, g0, d, d_gram, step):
            searches.append((x, g0, d.copy(), d_gram.copy()))
            return search(fun, x, x_gram, f0, g0, d, d_gram, step)

        with patch.object(crf, "_line_search", recording):
            minimize(coordinates, rng.normal(size=k), 14, 1e-15,
                     images=images_under(B) if basis else None)
        assert len(searches) > crf._MEMORY + 1
        pairs = [(x1 - x0, g1 - g0)
                 for (x0, g0, _, _), (x1, g1, _, _) in zip(searches, searches[1:])]
        for t, (_, g, d, d_gram) in enumerate(searches):
            expected = two_loop_oracle(g, pairs[max(0, t - crf._MEMORY) : t], G)
            scale = np.abs(expected).max()
            assert np.abs(d - expected).max() <= 1e-11 * scale
            scale *= np.abs(G).sum(axis=1).max()
            assert np.abs(d_gram - G @ expected).max() <= 1e-11 * scale

    def test_importing_the_package_maps_only_numpys_blas(self):
        """scipy.linalg would map scipy's own OpenBLAS beside numpy's, with
        a second thread pool; the optimizer needs numpy's dot products only."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, chaintag; print(sorted(sys.modules))"],
            capture_output=True, text=True, check=True,
        )
        modules = eval(proc.stdout)
        assert "scipy.sparse" in modules
        assert not [m for m in modules if m.startswith("scipy.linalg")]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        log_condition=st.floats(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_step_meets_strong_wolfe(self, seed, n, log_condition):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = Q @ np.diag(np.logspace(0, log_condition, n)) @ Q.T
        b = rng.normal(size=n) * 10
        fun = quadratic(A, b)
        accepted = []
        _, iterations, _, stop = minimize(
            fun, rng.normal(size=n), 200, 1e-12,
            callback=lambda x, f: accepted.append((x, f)),
        )
        assert len(accepted) == iterations + 1
        assert stop != "max_iterations"
        if stop == "line search":  # only once rounding hides any decrease
            lowest = fun(np.linalg.solve(A, b))[0]
            assert accepted[-1][1] - lowest <= 1e-10 * (1 + abs(lowest))
        for (x0, f0), (x1, f1) in zip(accepted, accepted[1:]):
            g0, g1 = fun(x0)[1], fun(x1)[1]
            s = x1 - x0
            slack = 1e-9 * (1 + abs(f0) + np.abs(g0).max() * np.abs(s).sum())
            assert f1 == fun(x1)[0]
            assert g0 @ s < 0
            assert f1 <= f0 + 1e-3 * (g0 @ s) + slack
            assert abs(g1 @ s) <= 0.9 * abs(g0 @ s) + slack


def scipy_lbfgsb(fun, x0, max_iterations, tolerance, callback=None, images=None):
    """The reference optimizer: scipy's L-BFGS-B with the same settings,
    on the weights themselves."""
    assert images is None
    result = scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": tolerance, "gtol": 1e-9,
                 "maxcor": 10},
    )
    return result.x, int(result.nit), int(result.nfev), "reference"


def wide_corpus(n_labels=24, n_sentences=40, seed=3):
    """Words whose three-letter suffix decides one of many labels."""
    rng = random.Random(seed)
    suffixes = ["%c%c%c" % (97 + i % 26, 97 + i // 26, 122) for i in range(n_labels)]
    return corpus_of([
        [(rng.choice(["pa", "ro", "mi", "tek"]) + suffixes[y], "T%02d" % y)
         for y in (rng.randrange(n_labels) for _ in range(rng.randint(1, 6)))]
        for _ in range(n_sentences)
    ])


@pytest.mark.parametrize("corpus, config", [
    (SEPARABLE, TrainingConfig(max_iterations=100)),
    (wide_corpus(), TrainingConfig(sigma=10.0, max_iterations=60, tolerance=1e-7)),
])
def test_training_agrees_with_scipy_lbfgsb(corpus, config, monkeypatch):
    templates = parse_templates(default_templates([0]))
    model = train(corpus, templates, config)
    monkeypatch.setattr(crf, "minimize", scipy_lbfgsb)
    monkeypatch.setattr(crf, "_TokenBasis", lambda enc: None)
    reference = train(corpus, templates, config)
    assert abs(model.iterations - reference.iterations) <= 2
    value = objective_and_gradient(model, corpus, config.sigma)[0]
    expected = objective_and_gradient(reference, corpus, config.sigma)[0]
    assert value == model.trace[-1]
    assert abs(value - expected) <= 1e-6 * abs(expected)


ONE_SIDED = parse_templates("U00:%x[0,0]\nU01:%x[0,0]/%x[0,0]\nU02:%x[0,0]/%x[0,0]/%x[0,0]\nB\n")


def paired_corpus(seed=4):
    """Sentences of rare words, each sentence twice, then one sentence of
    words seen nowhere else: under ONE_SIDED, which reads only the token
    itself, that sentence keeps no unigram string at cutoff 2."""
    rng = random.Random(seed)
    rows = [[("w%03d" % rng.randrange(1000), "T%d" % rng.randrange(8))
             for _ in range(rng.randint(1, 6))] for _ in range(15)]
    return corpus_of(rows * 2 + [[("plugh", "T0"), ("xyzzy", "T1")]])


def basis_oracle(enc, x):
    """B x = (A'Z, b) for token coordinates x = (Z, b), in one product."""
    n = enc.activations.shape[0] * enc.n_labels
    unigram = enc.activations_T @ x[:n].reshape(-1, enc.n_labels)
    return np.concatenate([unigram.ravel(), x[n:]])


def gram_oracle(enc, x):
    """G x = B'B x = (AA'Z, b), each product in one piece: the reference
    for the Gram images that _TokenBasis forms a block at a time."""
    w = basis_oracle(enc, x)
    m = enc.activations.shape[1] * enc.n_labels
    rows = enc.activations @ w[:m].reshape(-1, enc.n_labels)
    return np.concatenate([rows.ravel(), w[m:]])


def rare_corpus(n_labels=100, n_sentences=100, seed=6):
    """Sentences of words drawn from 100,000, each labeled at random."""
    rng = random.Random(seed)
    return corpus_of([[("w%05d" % rng.randrange(100_000), "T%03d" % rng.randrange(n_labels))
                       for _ in range(rng.randint(1, 8))] for _ in range(n_sentences)])


# Every one- and two-word conjunction of a seven-word window, and three of
# three words: on rare words, 33 unigram strings per token, so the weights
# dwarf the token coordinates.
WINDOW = parse_templates("".join(
    "U%02d:%s\n" % (n, "/".join("%%x[%d,0]" % i for i in offsets))
    for n, offsets in enumerate(
        [o for k in (1, 2) for o in itertools.combinations(range(-3, 4), k)]
        + [(i, i + 1, i + 2) for i in range(-3, 2)])) + "B\n")


def traced_peak(call):
    """The tracemalloc peak of call() over what was traced before it, and
    call()'s result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


class TestTokenCoordinates:
    """With fewer tokens than unigram strings, train runs L-BFGS on token
    coordinates; the iterates must be those of L-BFGS on the weights."""

    @pytest.mark.parametrize("corpus, templates, config", [
        (SEPARABLE, parse_templates(default_templates([0])),
         TrainingConfig(max_iterations=100)),
        (OMELETTE, parse_templates(default_templates([0])),
         TrainingConfig(sigma=3.0, max_iterations=5)),
        (wide_corpus(), parse_templates(default_templates([0])),
         TrainingConfig(sigma=10.0, max_iterations=60, tolerance=1e-7)),
        (paired_corpus(), ONE_SIDED,
         TrainingConfig(sigma=10.0, max_iterations=60, tolerance=1e-7, cutoff=2)),
    ])
    def test_match_weight_coordinates(self, corpus, templates, config, monkeypatch):
        bases = []
        token_basis = crf._TokenBasis
        monkeypatch.setattr(crf, "_TokenBasis",
                            lambda enc: bases.append(1) or token_basis(enc))
        model = train(corpus, templates, config)
        assert bases and corpus.n_tokens < len(model.dictionary.uni_strings)
        monkeypatch.setattr(crf, "_TokenBasis", lambda enc: None)
        reference = train(corpus, templates, config)
        assert model.dictionary == reference.dictionary
        assert (model.iterations, model.evaluations, model.stop) == (
            reference.iterations, reference.evaluations, reference.stop)
        scale = np.abs(reference.weights).max()
        assert np.abs(model.weights - reference.weights).max() <= 1e-6 * scale
        assert np.allclose(model.trace, reference.trace, rtol=1e-9, atol=0)

    def test_every_call_sees_the_exact_gram_image(self, monkeypatch):
        """The Gram image minimize carries from step to step stays the
        point's own, B'B x, over a long run."""
        grams = []
        objective = crf._objective

        def spy(x, enc, sigma, gram=None):
            grams.append((gram, gram_oracle(enc, x)))
            return objective(x, enc, sigma, gram)

        monkeypatch.setattr(crf, "_objective", spy)
        model = train(wide_corpus(), parse_templates(default_templates([0])),
                      TrainingConfig(max_iterations=300, tolerance=1e-12))
        assert len(grams) == model.evaluations and model.iterations > 10
        for gram, exact in grams:
            assert np.abs(gram - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 112])  # 3 labels per block
    @pytest.mark.parametrize("source", ["random", "paired"])
    def test_blocked_products_are_the_whole_products_bit_for_bit(
            self, source, L, seed, monkeypatch):
        """images and matvec, a block of 3 label columns at a time, against
        the products in one piece: on random activations with empty rows,
        and on those of paired_corpus, whose last sentence has none."""
        rng = np.random.default_rng(seed)
        if source == "random":
            dense = sparse.random(40, 25, density=0.15, random_state=rng).toarray()
            dense[::5] = 0.0
            A = sparse.csr_matrix(dense)
        else:
            corpus = paired_corpus()
            model = train(corpus, ONE_SIDED, TrainingConfig(cutoff=2, max_iterations=0))
            A = crf._encode(corpus, ONE_SIDED, model.dictionary).activations
        assert np.diff(A.indptr).min() == 0
        enc = SimpleNamespace(activations=A, activations_T=A.T, n_labels=L,
                              transitions=sparse.csr_matrix((3, 2)))
        monkeypatch.setattr(crf, "_GRAM_CELL_CAP", 3 * A.shape[1])
        basis = crf._TokenBasis(enc)
        n = A.shape[0] * L
        assert len(list(basis._blocks(np.zeros(n)))) == -(-L // 3)
        scale = 10.0 ** rng.uniform(-3, 3, size=basis.shape[1])
        for v in (rng.normal(size=basis.shape[1]) * scale, np.zeros(basis.shape[1])):
            w = basis_oracle(enc, v)
            largest, gram = basis.images(v)
            assert largest == max(w.max(initial=0.0), -w.min(initial=0.0))
            assert np.array_equal(gram, gram_oracle(enc, v))
            assert np.array_equal(basis.matvec(v), w)

    def test_training_holds_no_weight_sized_temporaries(self):
        """With the weights ~20x the token coordinates, training's traced
        peak, less the L-BFGS history (10 steps and 10 gradient changes,
        each with its Gram image), is at most twice the weights: the model's
        own weights, and temporaries a block of label columns wide."""
        corpus = rare_corpus()
        peak, model = traced_peak(
            lambda: train(corpus, WINDOW, TrainingConfig(sigma=10.0, max_iterations=3)))
        d, weights = model.dictionary, model.weights
        coordinates = corpus.n_tokens * d.n_labels + len(d.bi_strings) * d.n_labels**2
        assert weights.size > 20 * coordinates
        assert peak - 4 * 10 * coordinates * 8 <= 2 * weights.nbytes

    def test_the_cutoff_corpus_has_a_sentence_without_unigram_strings(self):
        corpus = paired_corpus()
        model = train(corpus, ONE_SIDED, TrainingConfig(cutoff=2, max_iterations=5))
        lonely = select_sentences(corpus, [corpus.n_sentences - 1])
        enc = crf._encode(lonely, model.templates, model.dictionary, None)
        assert enc.activations.nnz == 0

    def test_more_tokens_than_strings_train_on_the_weights(self, monkeypatch):
        monkeypatch.setattr(crf, "_TokenBasis", None)  # fails if called
        templates = parse_templates("U00:%x[0,0]\nB\n")
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=30))
        assert SEPARABLE.n_tokens >= len(model.dictionary.uni_strings)


class TestTagging:
    def test_converged_model_recovers_gold(self):
        templates = parse_templates(default_templates([0]))
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=100))
        unlabeled = select_columns(SEPARABLE, ["mot"])
        assert tag(model, unlabeled) == SEPARABLE.sentence_column("tag")

    @pytest.mark.parametrize("scale", [0.0, 1.0, 1e4])
    def test_batched_tagging_matches_per_sentence_viterbi(self, scale, monkeypatch):
        """Mixed lengths, one-token sentences, two transition classes; with
        zero weights every tie goes to the lowest label index."""
        corpus = corpus_of([
            [("le", "D"), ("sel", "N")],
            [("sel", "N")],
            [("la", "D"), ("mer", "N"), ("et", "C"), ("le", "D"), ("sel", "N")],
            [("et", "C")],
            [("le", "D"), ("mer", "N")],
            [("la", "D"), ("sel", "N"), ("et", "C")],
            [("mer", "N"), ("et", "C")],
            [("et", "C"), ("la", "D")],
            [("sel", "N"), ("le", "D")],
            [("la", "D"), ("mer", "N")],
        ])
        model = small_model(corpus, "U00:%x[0,0]\nU01:%x[1,0]\nB\nB1:%x[-1,0]\n")
        rng = np.random.default_rng(int(scale) + 5)
        model = replace(model, weights=scale * rng.uniform(-1, 1, model.weights.size))
        lattices = [build_lattice(model, s) for s in sentences(corpus)]
        expected = [[model.labels[y] for y in viterbi(x)] for x in lattices]
        assert expected == [[model.labels[y] for y in brute_viterbi(x)] for x in lattices]
        if scale == 0.0:
            assert {label for labels in expected for label in labels} == {model.labels[0]}
        assert tag(model, corpus) == expected
        # a cap of two rows per step's (rows, L, L) score tensor splits the steps
        monkeypatch.setattr(crf, "_VITERBI_CELL_CAP", 2 * model.dictionary.n_labels ** 2)
        assert tag(model, corpus) == expected

    def test_tagging_holds_the_unary_scores_about_once(self):
        """Viterbi runs in place on the unary scores tag owns, with one-byte
        back-pointers at up to 256 labels, so tagging peaks at most at
        twice those scores."""
        model = train(rare_corpus(), parse_templates("U00:%x[0,0]\nB\n"),
                      TrainingConfig(max_iterations=0))
        corpus = rare_corpus(n_sentences=2500, seed=7)
        peak, _ = traced_peak(lambda: tag(model, corpus))
        assert peak <= 2 * corpus.n_tokens * model.dictionary.n_labels * 8

    def test_pruned_steps_hold_no_label_pair_tensor(self, monkeypatch):
        """A peaked model: each word's unigram block lifts one label by 5
        nats and the transitions spread 0.2, so nearly every previous label
        trails its row's best by more than the spread and is never scored.
        With the cell cap lifted, a step scored in full would hold its
        rows x L x L scores at once; scoring candidates only, tagging peaks
        well under that, and tags what the full steps tag."""
        corpus = rare_corpus(n_labels=64, n_sentences=2000, seed=8)
        model = small_model(corpus)
        d = model.dictionary
        L, n_uni = d.n_labels, len(d.uni_strings)
        rng = np.random.default_rng(3)
        weights = np.zeros(d.n_weights)
        weights[: n_uni * L].reshape(n_uni, L)[
            np.arange(n_uni), rng.integers(L, size=n_uni)] = 5.0
        weights[n_uni * L :] = rng.uniform(-0.1, 0.1, d.n_weights - n_uni * L)
        model = replace(model, weights=weights)
        monkeypatch.setattr(crf, "_VITERBI_CELL_CAP", 10**9)
        peak, labels = traced_peak(lambda: tag(model, corpus))
        step = sum(length > 1 for length in corpus.lengths)  # rows of step 1
        assert peak <= step * L * L * 8 / 4
        monkeypatch.setattr(crf, "_PRUNE_CELLS", 10**12)  # no step weighs the bound
        assert labels == tag(model, corpus)

    def test_empty_corpus_tags_to_nothing(self):
        model = small_model(OMELETTE)
        assert tag(model, Corpus(((), ()), (), SCHEMA)) == []

    def test_unknown_words_are_deterministic(self):
        templates = parse_templates(default_templates([0]))
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=60))
        unknown = parse_corpus("xyzzy\nplugh\n", ColumnSchema(("mot",)))
        assert tag(model, unknown) == tag(model, unknown)

    def test_confidence_is_a_probability_of_the_choice(self):
        templates = parse_templates(default_templates([0]))
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=60))
        scores = confidence(model, SEPARABLE)
        assert [len(s) for s in scores] == [3, 2, 2, 3]
        for sentence_scores in scores:
            for p in sentence_scores:
                assert 0.0 <= p <= 1.0

    def test_marginals_rows_normalize(self):
        templates = parse_templates(default_templates([0]))
        model = train(SEPARABLE, templates, TrainingConfig(max_iterations=30))
        for node in marginals(model, SEPARABLE):
            assert node.sum(axis=1) == pytest.approx(
                np.ones(node.shape[0]), abs=1e-9
            )
