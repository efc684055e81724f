"""Linear-chain conditional random field.

Scores live in the log domain throughout: a lattice holds per-position
per-label unigram scores and per-transition label-pair scores, and all
inference (forward-backward, Viterbi) works on those.  Training maximizes
the L2-regularized conditional log-likelihood with a batch quasi-Newton
optimizer; the objective and gradient are exact, so training is
deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import minimize

from .corpus import Corpus, Sentence
from .errors import (
    ColumnMismatchError,
    EmptyTrainingSetError,
    LengthMismatchError,
    NonFiniteObjectiveError,
    UnknownLabelError,
)
from .templates import (
    FeatureDictionary,
    FeatureTemplate,
    active_features,
    build_dictionary,
)


@dataclass(frozen=True)
class TrainingConfig:
    sigma: float = 1.0
    max_iterations: int = 300
    tolerance: float = 1e-5
    cutoff: int = 1

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.max_iterations < 0 or self.cutoff < 1 or self.tolerance <= 0:
            raise ValueError("bad training configuration")


@dataclass(frozen=True, eq=False)
class Lattice:
    """Log-domain scores: unary is T x L, pairwise is (T-1) x L x L."""

    unary: np.ndarray
    pairwise: np.ndarray

    @property
    def n_positions(self) -> int:
        return self.unary.shape[0]

    @property
    def n_labels(self) -> int:
        return self.unary.shape[1]


@dataclass(frozen=True, eq=False)
class LinearChainModel:
    dictionary: FeatureDictionary
    templates: tuple[FeatureTemplate, ...]
    weights: np.ndarray
    sigma: float
    iterations: int
    trace: tuple[float, ...] = ()

    @property
    def labels(self) -> tuple[str, ...]:
        return self.dictionary.labels

    @property
    def max_macro_column(self) -> int:
        cols = [m.col for t in self.templates for m in t.macros]
        return max(cols) if cols else -1


def _check_width(templates: Sequence[FeatureTemplate], width: int) -> None:
    for t in templates:
        for m in t.macros:
            if m.col >= width:
                raise ColumnMismatchError(
                    "template %s reads column %d but the corpus has %d columns"
                    % (t.id, m.col, width)
                )


def build_lattice(model: LinearChainModel, sentence: Sentence) -> Lattice:
    """Sum the weights of firing features; unknown strings contribute 0."""
    _check_width(model.templates, len(sentence.tokens[0].columns))
    d = model.dictionary
    L = d.n_labels
    T = len(sentence)
    w_uni = model.weights[: len(d.uni_strings) * L].reshape(-1, L)
    w_bi = model.weights[len(d.uni_strings) * L :].reshape(-1, L, L)
    uni, bi = active_features(model.templates, sentence)
    unary = np.zeros((T, L))
    for t, strings in enumerate(uni):
        for s in strings:
            base = d.unigram_base(s)
            if base is not None:
                unary[t] += w_uni[base // L]
    pairwise = np.zeros((T - 1, L, L))
    for t, strings in enumerate(bi):
        for s in strings:
            base = d.bigram_base(s)
            if base is not None:
                row = (base - len(d.uni_strings) * L) // (L * L)
                pairwise[t] += w_bi[row]
    return Lattice(unary, pairwise)


def sequence_score(lattice: Lattice, labels: Sequence[int]) -> float:
    """Sum of unary scores along y plus transition scores between them."""
    if len(labels) != lattice.n_positions:
        raise LengthMismatchError(
            "label sequence length %d does not match %d positions"
            % (len(labels), lattice.n_positions)
        )
    y = np.asarray(labels, dtype=int)
    total = lattice.unary[np.arange(len(y)), y].sum()
    if len(y) > 1:
        total += lattice.pairwise[np.arange(len(y) - 1), y[:-1], y[1:]].sum()
    return float(total)


def forward_backward(lattice: Lattice):
    """Log partition plus node and edge marginals, all log-sum-exp stable."""
    log_z, node, edge = _batched_forward_backward(
        lattice.unary[None], lattice.pairwise[None]
    )
    return float(log_z[0]), node[0], edge[0]


def viterbi(lattice: Lattice) -> list[int]:
    """Highest-scoring label sequence.

    Every argmax (final label and each backtrack step) takes the first
    maximal index, so ties resolve to the lowest label index and the
    result is deterministic.
    """
    U, P = lattice.unary, lattice.pairwise
    T, L = U.shape
    delta = U[0].copy()
    backpointers = []
    for t in range(1, T):
        scores = delta[:, None] + P[t - 1]
        best_prev = np.argmax(scores, axis=0)
        delta = U[t] + scores[best_prev, np.arange(L)]
        backpointers.append(best_prev)
    y = int(np.argmax(delta))
    path = [y]
    for bp in reversed(backpointers):
        y = int(bp[y])
        path.append(y)
    path.reverse()
    return path


# --- training ----------------------------------------------------------


@dataclass(eq=False)
class _Batch:
    """Same-length sentences with one bigram row per edge, stacked so the
    objective can run forward-backward over all of them at once."""

    token_index: np.ndarray  # (B, T) into the flat token axis
    rows: np.ndarray  # (B, T-1) into the bigram weight blocks
    y: np.ndarray  # (B, T) gold label indices


@dataclass(eq=False)
class _Encoded:
    """A corpus folded into index space against a fixed dictionary."""

    bounds: list[tuple[int, int]]
    activations: sparse.csr_matrix  # tokens x unigram strings
    bi_rows: list[list[tuple[int, ...]]]
    gold: list[np.ndarray]
    empirical: np.ndarray
    n_labels: int
    batches: list[_Batch]
    ragged: list[int]  # sentence indices left to the per-sentence path


def _encode(
    corpus: Corpus,
    templates: Sequence[FeatureTemplate],
    dictionary: FeatureDictionary,
    label_column: int,
) -> _Encoded:
    L = dictionary.n_labels
    n_uni = len(dictionary.uni_strings)
    uni_block = n_uni * L
    n_weights = dictionary.n_weights
    empirical = np.zeros(n_weights)
    rows: list[int] = []
    cols: list[int] = []
    bounds = []
    bi_rows = []
    gold = []
    offset = 0
    for sentence in corpus.sentences:
        T = len(sentence)
        labels = []
        for token in sentence.tokens:
            index = dictionary.label_index(token.columns[label_column])
            if index is None:
                raise UnknownLabelError(
                    "label %r not in the model alphabet" % token.columns[label_column]
                )
            labels.append(index)
        y = np.asarray(labels, dtype=int)
        uni, bi = active_features(templates, sentence)
        for t, strings in enumerate(uni):
            for s in strings:
                base = dictionary.unigram_base(s)
                if base is not None:
                    rows.append(offset + t)
                    cols.append(base // L)
                    empirical[base + y[t]] += 1.0
        sent_bi = []
        for t, strings in enumerate(bi):
            active = []
            for s in strings:
                base = dictionary.bigram_base(s)
                if base is not None:
                    row = (base - uni_block) // (L * L)
                    active.append(row)
                    empirical[base + y[t] * L + y[t + 1]] += 1.0
            sent_bi.append(tuple(active))
        if sent_bi and all(len(active) == 1 for active in sent_bi):
            # one row per edge: the objective can use fancy indexing
            sent_bi = np.asarray([active[0] for active in sent_bi], dtype=int)
        bounds.append((offset, offset + T))
        bi_rows.append(sent_bi)
        gold.append(y)
        offset += T
    activations = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(offset, n_uni)
    )
    batches, ragged = _batch_plan(bounds, bi_rows, gold, L)
    return _Encoded(
        bounds, activations, bi_rows, gold, empirical, L, batches, ragged
    )


# Cap on the edge-tensor size of one batch, to bound peak memory.
_BATCH_CELL_CAP = 8_000_000


def _batch_plan(bounds, bi_rows, gold, n_labels):
    """Group uniform same-length sentences for the vectorized objective."""
    by_length: dict[int, list[int]] = {}
    ragged: list[int] = []
    for i, sent_bi in enumerate(bi_rows):
        if isinstance(sent_bi, np.ndarray):
            start, end = bounds[i]
            by_length.setdefault(end - start, []).append(i)
        else:
            ragged.append(i)
    batches = []
    for T in sorted(by_length):
        indices = by_length[T]
        edge_cells = max(1, (T - 1) * n_labels * n_labels)
        step = max(1, _BATCH_CELL_CAP // edge_cells)
        for lo in range(0, len(indices), step):
            chunk = indices[lo : lo + step]
            starts = np.asarray([bounds[i][0] for i in chunk])
            batches.append(
                _Batch(
                    token_index=starts[:, None] + np.arange(T)[None, :],
                    rows=np.stack([bi_rows[i] for i in chunk]),
                    y=np.stack([gold[i] for i in chunk]),
                )
            )
    return batches, ragged


def _batched_forward_backward(U: np.ndarray, P: np.ndarray):
    """forward_backward over a stack of same-length lattices.

    U is (B, T, L) and P is (B, T-1, L, L); returns log_z (B,), node
    (B, T, L), and edge (B, T-1, L, L) with the exact per-lattice
    recursions, just advanced in lockstep.
    """
    B, T, L = U.shape
    alpha = np.empty((B, T, L))
    beta = np.empty((B, T, L))
    alpha[:, 0] = U[:, 0]
    for t in range(1, T):
        scores = alpha[:, t - 1][:, :, None] + P[:, t - 1]
        shift = scores.max(axis=1)
        alpha[:, t] = U[:, t] + shift + np.log(
            np.exp(scores - shift[:, None, :]).sum(axis=1)
        )
    beta[:, T - 1] = 0.0
    for t in range(T - 2, -1, -1):
        scores = P[:, t] + (U[:, t + 1] + beta[:, t + 1])[:, None, :]
        shift = scores.max(axis=2)
        beta[:, t] = shift + np.log(
            np.exp(scores - shift[:, :, None]).sum(axis=2)
        )
    last = alpha[:, T - 1]
    shift = last.max(axis=1)
    log_z = shift + np.log(np.exp(last - shift[:, None]).sum(axis=1))
    node = np.exp(alpha + beta - log_z[:, None, None])
    if T > 1:
        edge = np.exp(
            alpha[:, :-1, :, None]
            + P
            + (U[:, 1:] + beta[:, 1:])[:, :, None, :]
            - log_z[:, None, None, None]
        )
    else:
        edge = np.zeros((B, 0, L, L))
    return log_z, node, edge


def _objective(weights: np.ndarray, enc: _Encoded, sigma: float):
    """Regularized log-likelihood and its gradient over the whole corpus."""
    L = enc.n_labels
    n_uni = enc.activations.shape[1]
    w_uni = weights[: n_uni * L].reshape(n_uni, L)
    w_bi = weights[n_uni * L :].reshape(-1, L, L)
    n_bi = w_bi.shape[0]
    unary_all = enc.activations @ w_uni
    node_all = np.empty_like(unary_all)
    expected_bi = np.zeros((n_bi, L, L))
    value = 0.0
    for batch in enc.batches:
        U = unary_all[batch.token_index]
        P = w_bi[batch.rows]
        log_z, node, edge = _batched_forward_backward(U, P)
        B, T = batch.y.shape
        b_ar = np.arange(B)[:, None]
        gold_score = U[b_ar, np.arange(T)[None, :], batch.y].sum()
        if T > 1:
            gold_score += P[
                b_ar, np.arange(T - 1)[None, :],
                batch.y[:, :-1], batch.y[:, 1:],
            ].sum()
        value += float(gold_score - log_z.sum())
        node_all[batch.token_index] = node
        if n_bi == 1:
            expected_bi[0] += edge.sum(axis=(0, 1))
        else:
            np.add.at(
                expected_bi, batch.rows.ravel(), edge.reshape(-1, L, L)
            )
    for i in enc.ragged:
        start, end = enc.bounds[i]
        sent_bi, y = enc.bi_rows[i], enc.gold[i]
        U = unary_all[start:end]
        T = end - start
        P = np.zeros((T - 1, L, L))
        for t, active in enumerate(sent_bi):
            for row in active:
                P[t] += w_bi[row]
        lattice = Lattice(U, P)
        log_z, node, edge = forward_backward(lattice)
        value += sequence_score(lattice, y) - log_z
        node_all[start:end] = node
        for t, active in enumerate(sent_bi):
            for row in active:
                expected_bi[row] += edge[t]
    expected = np.concatenate(
        [(enc.activations.T @ node_all).ravel(), expected_bi.ravel()]
    )
    value -= float(weights @ weights) / (2.0 * sigma * sigma)
    gradient = enc.empirical - expected - weights / (sigma * sigma)
    if not np.isfinite(value) or not np.all(np.isfinite(gradient)):
        raise NonFiniteObjectiveError("objective or gradient not finite")
    return value, gradient


def objective_and_gradient(
    model: LinearChainModel, data: Corpus, sigma: float, label_column: int | None = None
):
    """Value and gradient at the model's current weights on labeled data."""
    column = _label_column(data, label_column)
    enc = _encode(data, model.templates, model.dictionary, column)
    return _objective(model.weights, enc, sigma)


def _label_column(corpus: Corpus, label_column: int | None) -> int:
    width = corpus.schema.width
    column = width - 1 if label_column is None else label_column
    if column < 0:
        column += width
    if not 0 <= column < width:
        raise ColumnMismatchError("label column out of range")
    return column


def train(
    corpus: Corpus,
    templates: Sequence[FeatureTemplate],
    config: TrainingConfig | None = None,
    label_column: int | None = None,
) -> LinearChainModel:
    """Fit weights by L-BFGS on the exact batch objective.

    The label column defaults to the last column; templates may only read
    the columns before it.  max_iterations=0 returns the zero-weight
    model.  The objective trace over accepted steps is kept on the model.
    """
    config = config or TrainingConfig()
    if corpus.n_tokens == 0:
        raise EmptyTrainingSetError("no tokens to train on")
    column = _label_column(corpus, label_column)
    for t in templates:
        for m in t.macros:
            if m.col == column:
                raise ColumnMismatchError(
                    "template %s reads the label column %d" % (t.id, m.col)
                )
    _check_width(templates, corpus.schema.width)
    dictionary = build_dictionary(corpus, templates, column, config.cutoff)
    enc = _encode(corpus, templates, dictionary, column)
    x0 = np.zeros(dictionary.n_weights)
    value0, _ = _objective(x0, enc, config.sigma)
    trace = [value0]
    weights = x0
    iterations = 0
    if config.max_iterations > 0 and dictionary.n_weights > 0:
        recent: dict[bytes, float] = {}

        def fun(x):
            value, gradient = _objective(x, enc, config.sigma)
            if len(recent) > 8:
                recent.clear()
            recent[x.tobytes()] = value
            return -value, -gradient

        def record(xk):
            cached = recent.get(np.asarray(xk).tobytes())
            trace.append(cached if cached is not None
                         else _objective(np.asarray(xk), enc, config.sigma)[0])

        result = minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            callback=record,
            options={
                "maxiter": config.max_iterations,
                "ftol": config.tolerance,
                "gtol": 1e-9,
                "maxcor": 10,
            },
        )
        weights = result.x
        iterations = int(result.nit)
    return LinearChainModel(
        dictionary=dictionary,
        templates=tuple(templates),
        weights=weights,
        sigma=config.sigma,
        iterations=iterations,
        trace=tuple(trace),
    )


def tag(model: LinearChainModel, corpus: Corpus) -> list[list[str]]:
    """Viterbi labels per sentence; unknown words fall back to whatever
    transition and boundary features say."""
    out = []
    for sentence in corpus.sentences:
        lattice = build_lattice(model, sentence)
        out.append([model.labels[i] for i in viterbi(lattice)])
    return out


def marginals(model: LinearChainModel, corpus: Corpus) -> list[np.ndarray]:
    """Per-sentence node-marginal matrices (positions x labels)."""
    out = []
    for sentence in corpus.sentences:
        _, node, _ = forward_backward(build_lattice(model, sentence))
        out.append(node)
    return out


def confidence(model: LinearChainModel, corpus: Corpus) -> list[list[float]]:
    """Node-marginal probability of the Viterbi label at each token."""
    out = []
    for sentence in corpus.sentences:
        lattice = build_lattice(model, sentence)
        path = viterbi(lattice)
        _, node, _ = forward_backward(lattice)
        out.append([float(node[t, y]) for t, y in enumerate(path)])
    return out
