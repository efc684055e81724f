"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass or fail
line per criterion.  Tolerances and time budgets are pinned in the
assertions; they are part of the contract and must not be loosened.
"""

import itertools
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from chaintag.corpus import ColumnSchema, parse_corpus
from chaintag.crf import (
    Lattice,
    TrainingConfig,
    forward_backward,
    objective_and_gradient,
    sequence_score,
    train,
    viterbi,
)
from chaintag.evaluation import (
    cross_validate,
    format_report,
    kfold_split,
    token_accuracy,
)
from chaintag.morphology import last_chars, split_stem
from chaintag.pipelines import named_pipeline, run_pipeline
from chaintag.tagschema import (
    ComponentTag,
    bundled_schema,
    decompose,
    parse_schema,
    project_tag,
    recombine,
    validate_combination,
)
from chaintag.templates import expand, parse_templates


# --- shared random-lattice suite (criteria 1 and 2) --------------------


def _random_lattices(count=200, seed=7):
    """T <= 5, L <= 4; half with integer scores so ties actually occur."""
    rng = np.random.default_rng(seed)
    suite = []
    for i in range(count):
        T = int(rng.integers(1, 6))
        L = int(rng.integers(1, 5))
        if i % 2 == 0:
            unary = rng.integers(-2, 3, size=(T, L)).astype(float)
            pairwise = rng.integers(-2, 3, size=(T - 1, L, L)).astype(float)
        else:
            unary = rng.normal(size=(T, L))
            pairwise = rng.normal(size=(T - 1, L, L))
        suite.append(Lattice(unary, pairwise))
    return suite


@pytest.fixture(scope="module")
def lattice_suite():
    return _random_lattices()


def _brute_best_sequence(lattice):
    """Exhaustive argmax; ties go to the reversed-lexicographically
    smallest sequence, matching per-step lowest-index backtracking."""
    best_score, best_key, best_y = None, None, None
    for y in itertools.product(
        range(lattice.n_labels), repeat=lattice.n_positions
    ):
        s = sequence_score(lattice, y)
        key = tuple(reversed(y))
        if best_score is None or s > best_score or (
            s == best_score and key < best_key
        ):
            best_score, best_key, best_y = s, key, list(y)
    return best_y


def _brute_log_z(lattice):
    scores = [
        sequence_score(lattice, y)
        for y in itertools.product(
            range(lattice.n_labels), repeat=lattice.n_positions
        )
    ]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def test_c01_viterbi_and_log_partition_match_exhaustive_enumeration(
    lattice_suite,
):
    start = time.perf_counter()
    assert len(lattice_suite) >= 200
    for lattice in lattice_suite:
        assert viterbi(lattice) == _brute_best_sequence(lattice)
        log_z, _, _ = forward_backward(lattice)
        brute = _brute_log_z(lattice)
        assert abs(log_z - brute) <= 1e-10 * abs(brute)
    assert time.perf_counter() - start < 10.0


def test_c02_node_and_edge_marginals_are_consistent(lattice_suite):
    for lattice in lattice_suite:
        _, node, edge = forward_backward(lattice)
        assert np.abs(node.sum(axis=1) - 1.0).max() <= 1e-9
        if lattice.n_positions > 1:
            assert np.abs(edge.sum(axis=2) - node[:-1]).max() <= 1e-9
            assert np.abs(edge.sum(axis=1) - node[1:]).max() <= 1e-9


# --- criterion 3: gradient against central finite differences ----------


def _random_model(template_text, n_labels, seed):
    """A trained dictionary with random weights on a tiny random corpus."""
    rng = random.Random(seed)
    words = ["wa", "wb", "wc", "wd"]
    labels = ["T%d" % i for i in range(n_labels)]
    blocks = []
    for length in (1, 2, 3, 4, 2):
        lines = [
            "%s\t%s" % (rng.choice(words), rng.choice(labels))
            for _ in range(length)
        ]
        blocks.append("\n".join(lines))
    corpus = parse_corpus("\n\n".join(blocks), ColumnSchema(("mot", "tag")))
    templates = parse_templates(template_text)
    model = train(corpus, templates, TrainingConfig(max_iterations=0))
    weights = 0.5 * np.random.default_rng(seed).normal(size=model.weights.size)
    return replace(model, weights=weights), corpus


def _fd_gradient(model, corpus, sigma, h=1e-5):
    grad = np.empty_like(model.weights)
    for i in range(model.weights.size):
        plus = model.weights.copy()
        plus[i] += h
        minus = model.weights.copy()
        minus[i] -= h
        f_plus, _ = objective_and_gradient(
            replace(model, weights=plus), corpus, sigma
        )
        f_minus, _ = objective_and_gradient(
            replace(model, weights=minus), corpus, sigma
        )
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def test_c03_analytic_gradient_matches_finite_differences():
    start = time.perf_counter()
    cases = [
        # one bigram template per edge and a multi-template edge variant
        ("U1:%x[0,0]\nU2:%x[-1,0]\nB", 4, 0.8, 31),
        ("U1:%x[0,0]\nB\nB2:%x[0,0]", 3, 2.0, 32),
    ]
    for template_text, n_labels, sigma, seed in cases:
        model, corpus = _random_model(template_text, n_labels, seed)
        assert model.weights.size <= 100
        assert corpus.n_sentences <= 5
        _, analytic = objective_and_gradient(model, corpus, sigma)
        numeric = _fd_gradient(model, corpus, sigma)
        gap = np.abs(analytic - numeric)
        bound = np.maximum(
            1e-7, 1e-4 * np.maximum(np.abs(analytic), np.abs(numeric))
        )
        assert (gap <= bound).all()
    assert time.perf_counter() - start < 30.0


# --- criterion 4: training on a suffix-separable corpus ----------------


def _separable_corpus(n_sentences, rng, suffixes, stems):
    blocks = []
    tags = sorted(suffixes)
    for _ in range(n_sentences):
        lines = []
        for _ in range(rng.randint(6, 10)):
            tag = rng.choice(tags)
            lines.append(
                "%s\t%s" % (rng.choice(stems) + suffixes[tag], tag)
            )
        blocks.append("\n".join(lines))
    return parse_corpus("\n\n".join(blocks), ColumnSchema(("mot", "tag")))


def test_c04_suffix_separable_corpus_reaches_heldout_accuracy():
    rng = random.Random(4)
    pool = ["".join(t) for t in itertools.product("abcdefghij", repeat=3)]
    rng.shuffle(pool)
    tags = ["T%02d" % i for i in range(12)]
    suffixes = {tag: pool[i] for i, tag in enumerate(tags)}
    stems = ["me", "to", "ra", "su", "vel", "bo"]
    train_corpus = _separable_corpus(500, rng, suffixes, stems)
    test_corpus = _separable_corpus(80, rng, suffixes, stems)
    spec = named_pipeline(
        "IVbis",
        config=TrainingConfig(sigma=10.0, max_iterations=80, tolerance=1e-6),
    )
    result = run_pipeline(spec, train_corpus, test_corpus)
    assert result.timings["train"] < 60.0
    accuracy = token_accuracy(
        test_corpus.column("tag"), result.corpus.column("ResL2")
    )
    assert accuracy >= 0.99


# --- criterion 5: schema round-trip and rule rejection -----------------

_INVARIABLE = {
    "ADV", "CH", "CONJCOO", "CONJSUB", "INT", "MI", "ONO", "PREP", "PRES",
}
_PERSONS = {"1", "2", "3"}
_GENDERS = {"M", "F"}
_MODES = {
    "CON", "IMP", "INDF", "INDI", "INDP", "INF", "PARP", "PARPRES", "SUB",
}
_TYPES = {"DEF", "DEM", "IND", "INT", "PER", "POSS"}


def _violates_composition_rules(g0, g1, g2, g3):
    """Independent statement of the three rule families: invariable
    categories compose only with the empty symbol; verbs take person not
    gender and mood-tense not determiner/pronoun types; nominal
    categories take gender not person and no fourth component at all
    (determiners and pronouns allow a type there, never a mood-tense)."""
    if g0 in _INVARIABLE:
        return (g1, g2, g3) != ("", "", "")
    if g0 == "V":
        return g1 in _GENDERS or g3 in _TYPES
    if g0 == "DET":
        return g1 in _PERSONS or g3 in _MODES
    if g0 == "P":
        return g3 in _MODES
    # N, ADJ, NP, PP
    return g1 in _PERSONS or g3 != ""


def test_c05_schema_round_trip_and_rule_rejection_are_exhaustive():
    start = time.perf_counter()
    schema = bundled_schema()
    assert len(schema.l2) == 107
    for tag in schema.l2:
        assert recombine(schema, decompose(schema, tag)) == tag
    assert not validate_combination(schema, ComponentTag("ADV", "M", "P", ""))
    alphabets = [schema.components(k) for k in range(4)]
    assert [len(a) for a in alphabets] == [16, 6, 3, 16]
    checked = rejected = 0
    for g0, g1, g2, g3 in itertools.product(*alphabets):
        checked += 1
        if _violates_composition_rules(g0, g1, g2, g3):
            rejected += 1
            assert not validate_combination(
                schema, ComponentTag(g0, g1, g2, g3)
            )
    assert checked == 16 * 6 * 3 * 16
    assert rejected > checked // 2
    assert time.perf_counter() - start < 1.0


# --- criterion 6: window expansion on the worked example --------------


def test_c06_template_window_reproduces_the_worked_example():
    templates = parse_templates(
        "U00:%x[-2,0]\nU01:%x[-1,0]\nU02:%x[0,0]\nU03:%x[1,0]\nU04:%x[2,0]\n"
    )
    corpus = parse_corpus(
        "comment\nvous\nfaites\nvous\nune\nomelette",
        ColumnSchema(("mot",)),
    )
    position = 2  # "faites"
    assert corpus.columns[0][position] == "faites"
    values = [expand(t, corpus, position) for t in templates]
    assert values == [
        "U00:comment",
        "U01:vous",
        "U02:faites",
        "U03:vous",
        "U04:une",
    ]


# --- criterion 7: stem split and suffix conventions --------------------


def test_c07_stem_split_and_suffix_functions_match_convention():
    split = split_stem("marchant", "marcher")
    assert (split.stem, split.word_rest, split.lemma_rest) == (
        "march", "ant", "er",
    )
    same = split_stem("ici", "ici")
    assert (same.word_rest, same.lemma_rest) == ("x", "x")
    assert last_chars("marchant", 2) == "nt"


# --- criterion 8: component training beats direct training -------------


def _wide_schema():
    """112 composite labels over component alphabets of 12/6/3/8."""
    rows = []  # (l2, g0, g1, g2, g3)
    for q in range(1, 5):
        rows.append(("Q%d" % q, "Q%d" % q, "EPS", "EPS", "EPS"))
    for n in range(1, 4):
        for g1 in ("A", "B"):
            for g2 in ("S", "P"):
                g0 = "N%d" % n
                rows.append((g0 + g1 + g2, g0, g1, g2, "EPS"))
    for v in range(1, 4):
        for g1 in ("1", "2", "3"):
            for g2 in ("S", "P"):
                for g3 in ("T1", "T2", "T3", "T4"):
                    g0 = "V%d" % v
                    rows.append((g0 + g1 + g2 + g3, g0, g1, g2, g3))
    for d in range(1, 3):
        for g1 in ("A", "B"):
            for g2 in ("S", "P"):
                for g3 in ("K1", "K2", "K3"):
                    g0 = "D%d" % d
                    rows.append((g0 + g1 + g2 + g3, g0, g1, g2, g3))
    lines = ["[L0]"]
    lines += sorted({r[1] for r in rows})
    lines.append("[L1]")
    lines += ["%s\t%s" % (tag, g0) for tag, g0, _, _, _ in sorted(rows)]
    lines.append("[L2]")
    lines += [
        "\t".join((tag, tag, g0, g1, g2, g3))
        for tag, g0, g1, g2, g3 in sorted(rows)
    ]
    lines.append("[RULES]")
    lines.append("Q1,Q2,Q3,Q4\tg1=EPS\tg2=EPS\tg3=EPS")
    lines.append("N1,N2,N3\tg1!=1,2,3\tg3=EPS")
    lines.append("V1,V2,V3\tg1!=A,B\tg3!=K1,K2,K3,EPS")
    lines.append("D1,D2\tg1!=1,2,3\tg3!=T1,T2,T3,T4,EPS")
    return parse_schema("\n".join(lines) + "\n")


def _wide_corpora(schema):
    rng = random.Random(42)
    pool = [
        "".join(t)
        for t in itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=3)
    ]
    rng.shuffle(pool)
    tags = list(schema.l2)
    suffix = {tag: pool[i] for i, tag in enumerate(tags)}
    stems = ("qu", "wo", "zi")

    def block():
        lines = []
        for _ in range(rng.randint(18, 22)):
            tag = rng.choice(tags)
            mot = rng.choice(stems) + suffix[tag]
            lines.append("%s\t%s\t%s" % (mot, mot, tag))
        return "\n".join(lines)

    schema3 = ColumnSchema(("mot", "lemme", "tag"))
    train_corpus = parse_corpus(
        "\n\n".join(block() for _ in range(80)), schema3
    )
    test_corpus = parse_corpus(
        "\n\n".join(block() for _ in range(20)), schema3
    )
    return train_corpus, test_corpus


def test_c08_component_training_is_at_least_twice_as_fast_as_direct():
    schema = _wide_schema()
    assert len(schema.l2) == 112 >= 100
    sizes = [len(schema.components(k)) for k in range(4)]
    assert sizes == [12, 6, 3, 8]
    assert all(s <= cap for s, cap in zip(sizes, (16, 8, 4, 12)))
    train_corpus, test_corpus = _wide_corpora(schema)
    config = TrainingConfig(sigma=10.0, max_iterations=60, tolerance=1e-7)
    gold = test_corpus.column("tag")
    measured = {}
    for pipeline_id in ("IV", "VIII"):
        spec = named_pipeline(pipeline_id, config=config)
        result = run_pipeline(spec, train_corpus, test_corpus, schema)
        accuracy = token_accuracy(
            gold, result.corpus.column(result.prediction_column)
        )
        measured[pipeline_id] = (result.timings["train"], accuracy)
    direct_time, direct_accuracy = measured["IV"]
    component_time, component_accuracy = measured["VIII"]
    assert component_time <= 0.5 * direct_time
    assert component_accuracy >= direct_accuracy - 0.03


# --- criterion 9: fold balance, leakage audit, reproducibility ---------


def _one_word_corpus(n_sentences):
    return parse_corpus(
        "\n\n".join("w\tT" for _ in range(n_sentences)),
        ColumnSchema(("mot", "tag")),
    )


def test_c09_folds_balance_and_reports_reproduce_byte_identically():
    for n, k in ((1723, 10), (10, 10), (23, 4)):
        assignment = kfold_split(_one_word_corpus(n), k, seed=3)
        sizes = assignment.fold_sizes
        assert sum(sizes) == n and len(sizes) == k
        assert max(sizes) - min(sizes) <= 1
    rng = random.Random(9)
    words = {"ta": "A", "tb": "B", "tc": "C"}
    blocks = []
    for _ in range(24):
        picks = [rng.choice(sorted(words)) for _ in range(rng.randint(3, 6))]
        # an ambiguous word so the report carries real confusions
        lines = [
            "%s\t%s" % (w, "B" if w == "ta" and rng.random() < 0.3 else words[w])
            for w in picks
        ]
        blocks.append("\n".join(lines))
    corpus = parse_corpus("\n\n".join(blocks), ColumnSchema(("mot", "tag")))
    spec = named_pipeline("IVbis", config=TrainingConfig(max_iterations=25))
    first = cross_validate(spec, corpus, k=3, seed=5)
    second = cross_validate(spec, corpus, k=3, seed=5)
    stripped = [
        line for line in first.audit if "stripped before tagging" in line
    ]
    assert len(stripped) == 3  # every fold logs the gold-column strip
    assert format_report(first) == format_report(second)
    assert format_report(first, include_timings=True) != ""


# --- criterion 10: cascade accuracy is consistent across levels --------

_CASCADE_LEXICON = {
    "le": ("DETDEFMS", "le"),
    "chat": ("NMS", "chat"),
    "dort": ("VINDP3S", "dormir"),
    "vite": ("ADV", "vite"),
    "sous": ("PREP", "sous"),
    "et": ("CONJCOO", "et"),
}
# noun after "le", finite verb anywhere else; the word alone never decides
_CASCADE_AMBIGUOUS = ("ferme", "marche")


def _cascade_corpus(n_sentences, rng):
    """Every coarse tag maps to exactly one fine tag, so coarse accuracy
    should carry through the cascade unchanged.  Ambiguous words need the
    preceding word to be tagged, so every stage does real sequence work
    rather than looking labels up; their lemma never reveals the tag."""
    blocks = []
    plain = sorted(_CASCADE_LEXICON)
    for _ in range(n_sentences):
        words = []
        for _ in range(rng.randint(5, 9)):
            draw = rng.random()
            if draw < 0.18:
                words.append(rng.choice(_CASCADE_AMBIGUOUS))
            elif draw < 0.40:
                words.append("le")
            else:
                words.append(rng.choice(plain))
        lines = []
        for i, word in enumerate(words):
            if word in _CASCADE_AMBIGUOUS:
                tag = "NMS" if i > 0 and words[i - 1] == "le" else "VINDP3S"
                lines.append("%s\t%s\t%s" % (word, word, tag))
            else:
                tag, lemma = _CASCADE_LEXICON[word]
                lines.append("%s\t%s\t%s" % (word, lemma, tag))
        blocks.append("\n".join(lines))
    return parse_corpus(
        "\n\n".join(blocks), ColumnSchema(("mot", "lemme", "tag"))
    )


def test_c10_cascade_l2_accuracy_tracks_l0_accuracy():
    schema = bundled_schema()
    used = {tag for tag, _ in _CASCADE_LEXICON.values()}
    used.update(("NMS", "VINDP3S"))
    # the premise: within this corpus, L0 determines L2
    coarse_of = {tag: project_tag(schema, tag, "L0") for tag in used}
    assert len(set(coarse_of.values())) == len(used)
    rng = random.Random(10)
    train_corpus = _cascade_corpus(300, rng)
    test_corpus = _cascade_corpus(60, rng)
    spec = named_pipeline(
        "V",
        config=TrainingConfig(sigma=10.0, max_iterations=80, tolerance=1e-6),
    )
    result = run_pipeline(spec, train_corpus, test_corpus, schema)
    gold_l2 = test_corpus.column("tag")
    gold_l0 = [project_tag(schema, tag, "L0") for tag in gold_l2]
    accuracy_l0 = token_accuracy(gold_l0, result.corpus.column("ResL0"))
    accuracy_l2 = token_accuracy(gold_l2, result.corpus.column("ResL012"))
    assert abs(accuracy_l2 - accuracy_l0) <= 0.005
