"""Linear-chain conditional random field.

A lattice holds log-domain scores: per-position per-label unigram scores
and per-transition label-pair scores.  Viterbi works on those directly.

Training, tagging and marginals first fold a corpus into index space:
templates.index_features expands every template over all its sentences
at once, and only the distinct strings are looked up in the dictionary.
Each token becomes a row of active unigram blocks, so the unary scores
are one sparse product with the unigram weights, and each edge a
transition class, the tuple of its active bigram blocks, with one
transition matrix per class.  Tagging runs Viterbi over batches of
same-length sentences; viterbi(lattice) is its one-sentence case.

Forward-backward uses the scaled probability-domain recursion (Sutton &
McCallum, "An Introduction to CRFs", section on scaling; CRFsuite does
the same).  Each unary row and each transition matrix is exponentiated
once after subtracting its maximum, the forward vector is normalized to
sum 1 at every position, and log Z is the sum of the log normalizers
plus the subtracted maxima.  Edges that share their active bigram rows
share one transition matrix, so the expected transition counts come out
as one matrix product per distinct matrix; no per-edge label-pair tensor
is formed.  The scaled values stay normal doubles only while the scores
of a batch spread less than about 690 nats; a batch that spreads wider
is recomputed by the log-domain recursion, which is also the reference
the tests compare against.

Training maximizes the L2-regularized conditional log-likelihood, whose
value and gradient are exact, with the L-BFGS of ``minimize``: the
two-loop recursion over the last 10 steps (Liu & Nocedal 1989, as in
liblbfgs and CRFsuite), run with in-place level-1 BLAS on preallocated
step and gradient-change rows, and a Moré–Thuente-style line search for
a step meeting the strong Wolfe conditions.  Its constants and stopping
tests are L-BFGS-B's.  Training is deterministic for fixed inputs, and
the model keeps the objective trace, the number of objective calls and
the optimizer's stop reason.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg.blas import daxpy, ddot

from .corpus import Corpus, Sentence
from .errors import (
    ColumnMismatchError,
    EmptyTrainingSetError,
    LengthMismatchError,
    NonFiniteObjectiveError,
    UnknownLabelError,
)
from .templates import (  # noqa: F401 (bench/run.py traces crf.active_features)
    FeatureDictionary,
    FeatureIndex,
    FeatureTemplate,
    active_features,
    build_dictionary,
    index_features,
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
    stop: str = ""  # the optimizer's reason for stopping, see minimize
    evaluations: int = 0  # objective calls made in training

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
    enc = _encode((sentence,), model.templates, model.dictionary, None)
    unary, P = _scores(model.weights, enc)
    return Lattice(unary, P[enc.batches[0].classes[0]])


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
    """Log partition plus node and edge marginals; each edge is its own
    transition class."""
    T = lattice.n_positions
    log_z, node, edge = _forward_backward(
        lattice.unary[None], lattice.pairwise, np.arange(T - 1)[None]
    )
    return float(log_z[0]), node[0], edge


def viterbi(lattice: Lattice) -> list[int]:
    """Highest-scoring label sequence.

    Every argmax (final label and each backtrack step) takes the first
    maximal index, so ties resolve to the lowest label index and the
    result is deterministic.
    """
    T = lattice.n_positions
    return _viterbi(
        lattice.unary[None], lattice.pairwise, np.arange(T - 1)[None]
    )[0].tolist()


# --- inference and training ------------------------------------------


@dataclass(eq=False)
class _Batch:
    """Same-length sentences, stacked so forward-backward runs over all of
    them at once."""

    token_index: np.ndarray  # (B, T) into the flat token axis
    classes: np.ndarray  # (B, T-1) transition class of each edge


@dataclass(eq=False)
class _Encoded:
    """A corpus folded into index space against a fixed dictionary.

    An edge's transition class is the tuple of its active bigram rows;
    the edges of one class share one transition matrix.
    """

    bounds: list[tuple[int, int]]
    activations: sparse.csr_matrix  # tokens x unigram strings
    transitions: sparse.csr_matrix  # classes x bigram strings, 1 if active
    empirical: np.ndarray | None  # gold feature counts, when labeled
    n_labels: int
    batches: list[_Batch]


def _encode(
    sentences: Sequence[Sentence],
    templates: Sequence[FeatureTemplate],
    dictionary: FeatureDictionary,
    label_column: int | None,
    index: FeatureIndex | None = None,
) -> _Encoded:
    """Fold sentences into index space; gold feature counts are taken only
    when a label column is given.  Only the distinct expanded strings are
    looked up in the dictionary; transition classes are numbered in order
    of first occurrence."""
    if index is None:
        index = index_features(sentences, templates)
    L = dictionary.n_labels
    n_uni = len(dictionary.uni_strings)
    lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    n_tokens = int(lengths.sum())
    uni = dictionary.unigram_rows(index.uni_strings)[index.uni_ids]
    bi = dictionary.bigram_rows(index.bi_strings)[index.bi_ids]
    tokens, slots = np.nonzero(uni >= 0)
    uni_rows = uni[tokens, slots]
    activations = sparse.csr_matrix(
        (np.ones(len(tokens)), (tokens, uni_rows)), shape=(n_tokens, n_uni)
    )
    # an edge's class is its row of active bigram blocks (-1 where absent);
    # a block belongs to one template, so this is the tuple of active blocks
    unique, first, inverse = np.unique(
        bi, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    class_rows = unique[order]
    members, member_slots = np.nonzero(class_rows >= 0)
    transitions = sparse.csr_matrix(
        (np.ones(len(members)), (members, class_rows[members, member_slots])),
        shape=(len(class_rows), len(dictionary.bi_strings)),
    )
    empirical = None
    if label_column is not None:
        labels = [token.columns[label_column]
                  for sentence in sentences for token in sentence.tokens]
        y = list(map(dictionary.label_index, labels))
        if None in y:
            raise UnknownLabelError(
                "label %r not in the model alphabet" % labels[y.index(None)]
            )
        y = np.asarray(y, dtype=np.intp)
        right = np.delete(np.arange(n_tokens), starts)  # token ending each edge
        edges, edge_slots = np.nonzero(bi >= 0)
        hits = np.concatenate([
            uni_rows * L + y[tokens],
            n_uni * L + bi[edges, edge_slots] * (L * L)
            + y[right[edges] - 1] * L + y[right[edges]],
        ])
        # float counts straight away: an integer count array as long as
        # the weights, then copied, would double this peak
        empirical = np.bincount(
            hits, weights=np.ones(len(hits)), minlength=dictionary.n_weights
        )
    bounds = list(zip(starts.tolist(), ends.tolist()))
    batches = _batch_plan(bounds, rank[inverse.ravel()], L)
    return _Encoded(bounds, activations, transitions, empirical, L, batches)


# Cap on the cells (sentences x positions x labels) of one batch, to bound
# the memory of the forward and backward tables.
_BATCH_CELL_CAP = 2_000_000


def _batch_plan(bounds, edge_classes, n_labels):
    """Group same-length sentences for the vectorized forward-backward."""
    by_length: dict[int, list[int]] = {}
    for i, (start, end) in enumerate(bounds):
        by_length.setdefault(end - start, []).append(i)
    batches = []
    for T in sorted(by_length):
        indices = np.asarray(by_length[T])
        step = max(1, _BATCH_CELL_CAP // (T * n_labels))
        for lo in range(0, len(indices), step):
            chunk = indices[lo : lo + step]
            starts = np.asarray([bounds[i][0] for i in chunk])
            # sentence i's edges start at flat edge index start_i - i
            batches.append(_Batch(
                token_index=starts[:, None] + np.arange(T),
                classes=edge_classes[(starts - chunk)[:, None] + np.arange(T - 1)],
            ))
    return batches


# The scaled recursion runs when the largest unary-row range plus the
# largest transition-matrix range plus log L stays below this many nats.
# Then every scaled forward entry is at least exp(-690) ~ 1e-300 and every
# scaled backward entry at most exp(690), so all stay normal doubles.
_MAX_SPREAD = 690.0


def _forward_backward(U: np.ndarray, P: np.ndarray, classes: np.ndarray):
    """Exact forward-backward over a batch of same-length chains.

    U is (B, T, L) unary scores, P is (K, L, L) transition scores per
    class and classes is (B, T-1), the class of each edge.  Returns log Z
    (B,), node marginals (B, T, L) and the expected label-pair counts of
    each class, summed over the batch's edges (K, L, L).
    """
    B, T, L = U.shape
    u_max = U.max(axis=2, keepdims=True)
    p_max = P.max(axis=(1, 2), keepdims=True)
    spread = ((u_max - U.min(axis=2, keepdims=True)).max(initial=0.0)
              + (p_max - P.min(axis=(1, 2), keepdims=True)).max(initial=0.0))
    if not spread + np.log(L) < _MAX_SPREAD:
        log_z, node, edge = _batched_forward_backward(U, P[classes])
        expected = np.zeros(P.shape)
        np.add.at(expected, classes.ravel(), edge.reshape(-1, L, L))
        return log_z, node, expected
    psi = np.exp(U - u_max)
    E = np.exp(P - p_max)
    alpha = np.empty_like(psi)
    scale = np.empty((B, T))
    a = psi[:, 0]
    for t in range(T):
        if t:
            a = _times(alpha[:, t - 1], E, classes[:, t - 1]) * psi[:, t]
        scale[:, t] = a.sum(axis=1)
        alpha[:, t] = a / scale[:, t, None]
    beta = np.empty_like(psi)
    beta[:, T - 1] = 1.0
    right = np.empty((B, T - 1, L))  # psi * beta / scale after each edge
    for t in range(T - 2, -1, -1):
        right[:, t] = psi[:, t + 1] * beta[:, t + 1] / scale[:, t + 1, None]
        beta[:, t] = _times(right[:, t], E.transpose(0, 2, 1), classes[:, t])
    log_z = (np.log(scale).sum(axis=1) + u_max.sum(axis=(1, 2))
             + p_max.ravel()[classes].sum(axis=1))
    expected = np.zeros(P.shape)
    left_rows = alpha[:, :-1].reshape(-1, L)
    right_rows = right.reshape(-1, L)
    flat = classes.ravel()
    for k in np.unique(flat):
        edges = flat == k
        expected[k] = E[k] * (left_rows[edges].T @ right_rows[edges])
    return log_z, alpha * beta, expected


def _times(vectors: np.ndarray, matrices: np.ndarray, classes: np.ndarray):
    """Row b of vectors times matrices[classes[b]], one product per class."""
    if len(matrices) == 1:
        return vectors @ matrices[0]
    out = np.empty_like(vectors)
    for k in np.unique(classes):
        rows = classes == k
        out[rows] = vectors[rows] @ matrices[k]
    return out


def _batched_forward_backward(U: np.ndarray, P: np.ndarray):
    """Log-domain forward-backward over a stack of same-length lattices.

    U is (B, T, L) and P is (B, T-1, L, L); returns log_z (B,), node
    (B, T, L), and edge (B, T-1, L, L).  It stays finite at any finite
    scores, at the cost of an exp over the whole edge tensor, so it runs
    only on batches too spread for the scaled recursion.
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


def _scores(weights: np.ndarray, enc: _Encoded):
    """Unary scores (tokens x L) and one transition matrix per class."""
    L = enc.n_labels
    n_uni = enc.activations.shape[1]
    w_uni = weights[: n_uni * L].reshape(n_uni, L)
    w_bi = weights[n_uni * L :].reshape(-1, L * L)
    return enc.activations @ w_uni, (enc.transitions @ w_bi).reshape(-1, L, L)


def _expectations(weights: np.ndarray, enc: _Encoded):
    """Summed log Z, node marginals (tokens x L) and expected label-pair
    counts per bigram string (strings x L x L) at the given weights."""
    L = enc.n_labels
    unary, P = _scores(weights, enc)
    node = np.empty_like(unary)
    per_class = np.zeros_like(P)
    log_z = 0.0
    for batch in enc.batches:
        z, batch_node, expected = _forward_backward(
            unary[batch.token_index], P, batch.classes
        )
        log_z += float(z.sum())
        node[batch.token_index] = batch_node
        per_class += expected
    expected_bi = enc.transitions.T @ per_class.reshape(-1, L * L)
    return log_z, node, expected_bi


def _viterbi(U: np.ndarray, P: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Best label sequences (B, T) of a batch of same-length chains: U is
    (B, T, L) unary scores, P is (K, L, L) transition scores per class and
    classes is (B, T-1), the class of each edge.  Every argmax takes the
    first maximal index, so ties go to the lowest label index."""
    B, T, L = U.shape
    into = np.ascontiguousarray(P.transpose(0, 2, 1))  # [k, cur, prev]
    delta = U[:, 0]
    back = np.empty((T - 1, B, L), dtype=np.intp)
    for t in range(1, T):
        scores = delta[:, None, :] + (into[0] if len(P) == 1 else into[classes[:, t - 1]])
        back[t - 1] = scores.argmax(axis=2)
        delta = U[:, t] + np.take_along_axis(scores, back[t - 1][:, :, None], axis=2)[:, :, 0]
    path = np.empty((B, T), dtype=np.intp)
    path[:, T - 1] = delta.argmax(axis=1)
    for t in range(T - 2, -1, -1):
        path[:, t] = back[t][np.arange(B), path[:, t + 1]]
    return path


# Cap on the cells of one Viterbi step's (B, L, L) score tensor.  Chunks
# this small tag no slower, and leave less freed memory held by the
# allocator than chunks of _BATCH_CELL_CAP cells (16 MB at L = 112).
_VITERBI_CELL_CAP = 250_000


def _best_paths(weights: np.ndarray, enc: _Encoded) -> np.ndarray:
    """The Viterbi label of every token, batch by batch, with at most
    _VITERBI_CELL_CAP cells in one step's (B, L, L) score tensor."""
    unary, P = _scores(weights, enc)
    path = np.empty(len(unary), dtype=np.intp)
    step = max(1, _VITERBI_CELL_CAP // enc.n_labels**2)
    for batch in enc.batches:
        for lo in range(0, len(batch.token_index), step):
            rows = batch.token_index[lo : lo + step]
            path[rows] = _viterbi(unary[rows], P, batch.classes[lo : lo + step])
    return path


def _objective(weights: np.ndarray, enc: _Encoded, sigma: float):
    """Regularized log-likelihood and its gradient over the whole corpus."""
    log_z, node, expected_bi = _expectations(weights, enc)
    expected = np.concatenate(
        [(enc.activations.T @ node).ravel(), expected_bi.ravel()]
    )
    # einsum's own loop, not BLAS ddot: OpenBLAS runs a long ddot on
    # several threads that then spin, slowing the optimizer's work between
    # calls (on two cores, pipeline VIII's training took ~1.8x as long).
    value = float(np.einsum("i,i->", enc.empirical, weights)) - log_z
    value -= float(np.einsum("i,i->", weights, weights)) / (2.0 * sigma * sigma)
    gradient = enc.empirical - expected - weights / (sigma * sigma)
    if not np.isfinite(value) or not np.all(np.isfinite(gradient)):
        raise NonFiniteObjectiveError("objective or gradient not finite")
    return value, gradient


def objective_and_gradient(
    model: LinearChainModel, data: Corpus, sigma: float, label_column: int | None = None
):
    """Value and gradient at the model's current weights on labeled data."""
    column = _label_column(data, label_column)
    enc = _encode(data.sentences, model.templates, model.dictionary, column)
    return _objective(model.weights, enc, sigma)


def _label_column(corpus: Corpus, label_column: int | None) -> int:
    width = corpus.schema.width
    column = width - 1 if label_column is None else label_column
    if column < 0:
        column += width
    if not 0 <= column < width:
        raise ColumnMismatchError("label column out of range")
    return column


# --- optimizer ---------------------------------------------------------

# As in L-BFGS-B: correction pairs kept, the line search's sufficient
# decrease and curvature constants, and the gradient entry that counts as 0.
_MEMORY = 10
_C1, _C2 = 1e-3, 0.9
_GRADIENT_TOLERANCE = 1e-9
_MAX_TRIALS = 20

# Stop reasons at a point that is not known to be a minimum.
UNCONVERGED = ("max_iterations", "line search")


def minimize(fun, x0, max_iterations, tolerance, callback=None):
    """Minimize fun, which returns (value, gradient), by L-BFGS from x0:
    directions from the last 10 steps by the two-loop recursion (Liu &
    Nocedal 1989).  Stops as L-BFGS-B does: "converged" once a step lowers
    the value by at most tolerance * max(|old|, |new|, 1), "gradient" once
    no gradient entry exceeds 1e-9, "max_iterations", or "line search".
    callback(x, value) sees x0 and each accepted point.  Returns the point,
    the number of steps, the number of calls of fun and the stop reason."""
    x, (f, g), calls = x0, fun(x0), 1
    if callback is not None:
        callback(x, f)
    S, Y = np.empty((_MEMORY, x.size)), np.empty((_MEMORY, x.size))
    rho, alpha = np.empty(_MEMORY), np.empty(_MEMORY)
    for iteration in itertools.count():
        if np.abs(g).max(initial=0.0) <= _GRADIENT_TOLERANCE:
            return x, iteration, calls, "gradient"
        if iteration and f_old - f <= tolerance * max(abs(f_old), abs(f), 1.0):
            return x, iteration, calls, "converged"
        if iteration == max_iterations:
            return x, iteration, calls, "max_iterations"
        d = -g
        newest = range(iteration - 1, max(iteration - _MEMORY, 0) - 1, -1)
        slots = [i % _MEMORY for i in newest]
        for k in slots:
            alpha[k] = rho[k] * ddot(S[k], d)
            daxpy(Y[k], d, a=-alpha[k])
        if slots:  # scale by s'y / y'y of the newest pair
            d *= 1.0 / (rho[slots[0]] * ddot(Y[slots[0]], Y[slots[0]]))
        for k in reversed(slots):
            daxpy(S[k], d, a=alpha[k] - rho[k] * ddot(Y[k], d))
        step = 1.0 if iteration else 1.0 / np.sqrt(ddot(g, g))
        point, f_new, g_new, trials = _line_search(fun, x, f, g, d, step)
        calls += trials
        if point is None:
            return x, iteration, calls, "line search"
        k = iteration % _MEMORY
        np.subtract(point, x, out=S[k])
        np.subtract(g_new, g, out=Y[k])
        rho[k] = 1.0 / ddot(Y[k], S[k])  # s'y > 0 on a strictly convex fun
        x, f_old, f, g = point, f, f_new, g_new
        if callback is not None:
            callback(x, f)


def _line_search(fun, x, f0, g0, d, step):
    """A step along d meeting the strong Wolfe conditions, searched in the
    manner of Moré & Thuente: extrapolate by cubic steps until a minimizer
    is bracketed, then zoom by safeguarded cubic steps or bisection.
    Returns the point, its value, its gradient and the number of calls;
    the point is None when 20 trials find no such step."""
    slope0 = ddot(g0, d)
    lo, hi = (0.0, f0, slope0), None  # (step, value, slope); lo is lowest
    step = np.float64(step)
    for trial in range(1, _MAX_TRIALS + 1):
        point = daxpy(d, x.copy(), a=step)
        f, g = fun(point)
        now = (step, f, ddot(g, d))
        decreased = f <= f0 + _C1 * step * slope0
        if decreased and abs(now[2]) <= -_C2 * slope0:
            return point, f, g, trial
        if not decreased or f >= lo[1]:
            hi = now
        elif now[2] * (hi[0] - lo[0] if hi else 1.0) >= 0:
            lo, hi = now, lo
        else:
            previous, lo = lo, now
        if hi is None:  # extrapolate within MINPACK's bounds
            gap = step - previous[0]
            low, high = step + 1.1 * gap, step + 4.0 * gap
            cubic = _cubic(previous, lo)
            step = min(max(cubic, low), high) if cubic > step else high
        else:
            a, b = min(lo[0], hi[0]), max(lo[0], hi[0])
            cubic = _cubic(lo, hi)
            if hi is now:  # the value rose: MINPACK averages in a nearer quadratic step
                gap = step - lo[0]
                quadratic = lo[0] + lo[2] / ((lo[1] - f) / gap + lo[2]) / 2 * gap
                if abs(quadratic - lo[0]) < abs(cubic - lo[0]):
                    cubic = (cubic + quadratic) / 2
            inner = a + 0.1 * (b - a) <= cubic <= b - 0.1 * (b - a)
            step = cubic if inner else (a + b) / 2
            if not a < step < b:  # rounding leaves no step to try
                break
    return None, None, None, trial


@np.errstate(all="ignore")
def _cubic(a, b):
    """Minimizer of the cubic through the values and slopes at a and b;
    nan or infinite when that cubic has no minimizer."""
    (s, fa, ga), (t, fb, gb) = a, b
    theta = 3.0 * (fa - fb) / (t - s) + ga + gb
    scale = max(abs(theta), abs(ga), abs(gb))
    gamma = scale * np.sqrt(max(0.0, (theta / scale) ** 2 - ga / scale * (gb / scale)))
    gamma = -gamma if t < s else gamma
    return s + (gamma - ga + theta) / (2.0 * gamma - ga + gb) * (t - s)


def train(
    corpus: Corpus,
    templates: Sequence[FeatureTemplate],
    config: TrainingConfig | None = None,
    label_column: int | None = None,
) -> LinearChainModel:
    """Fit weights by L-BFGS on the exact batch objective.

    The label column defaults to the last column; templates may only read
    the columns before it.  max_iterations=0 returns the zero-weight
    model.  The objective at the start and after every accepted step, the
    number of objective calls and the optimizer's stop reason are kept on
    the model.
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
    index = index_features(corpus.sentences, templates)
    dictionary = build_dictionary(corpus, templates, column, config.cutoff, index)
    enc = _encode(corpus.sentences, templates, dictionary, column, index)
    trace: list[float] = []

    def fun(x):
        value, gradient = _objective(x, enc, config.sigma)
        return -value, -gradient

    weights, iterations, evaluations, stop = minimize(
        fun,
        np.zeros(dictionary.n_weights),
        config.max_iterations,
        config.tolerance,
        callback=lambda x, f: trace.append(-f),
    )
    return LinearChainModel(
        dictionary=dictionary,
        templates=tuple(templates),
        weights=weights,
        sigma=config.sigma,
        iterations=iterations,
        trace=tuple(trace),
        stop=stop,
        evaluations=evaluations,
    )


def _encode_for(model: LinearChainModel, corpus: Corpus) -> _Encoded:
    _check_width(model.templates, corpus.schema.width)
    return _encode(corpus.sentences, model.templates, model.dictionary, None)


def tag(model: LinearChainModel, corpus: Corpus) -> list[list[str]]:
    """Viterbi labels per sentence; unknown words fall back to whatever
    transition and boundary features say."""
    enc = _encode_for(model, corpus)
    labels = np.array(model.labels, dtype=object)[_best_paths(model.weights, enc)]
    return [labels[start:end].tolist() for start, end in enc.bounds]


def marginals(model: LinearChainModel, corpus: Corpus) -> list[np.ndarray]:
    """Per-sentence node-marginal matrices (positions x labels)."""
    enc = _encode_for(model, corpus)
    _, node, _ = _expectations(model.weights, enc)
    return [node[start:end] for start, end in enc.bounds]


def confidence(model: LinearChainModel, corpus: Corpus) -> list[list[float]]:
    """Node-marginal probability of the Viterbi label at each token."""
    enc = _encode_for(model, corpus)
    _, node, _ = _expectations(model.weights, enc)
    best = node[np.arange(len(node)), _best_paths(model.weights, enc)]
    return [best[start:end].tolist() for start, end in enc.bounds]
