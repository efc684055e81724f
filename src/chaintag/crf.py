"""Linear-chain conditional random field.

A lattice holds log-domain scores: per-position per-label unigram scores
and per-transition label-pair scores.  Viterbi works on those directly.

Training, tagging and marginals first fold a corpus into index space:
templates.index_features expands every template over the whole corpus
at once, and only the distinct strings are looked up in the dictionary.
Each token becomes a row of active unigram blocks, so the unary scores
are one sparse product with the unigram weights, and each edge a
transition class, the tuple of its active bigram blocks, with one
transition matrix per class.

The rows are in a packed layout (PyTorch's PackedSequence lays out
sequences the same way): sentences sorted by length, longest first, and
their tokens time-major, so step t holds the sentences longer than t,
a prefix of step t-1's.  Every step is a slice of the rows, nothing is
padded or masked, and one Python loop over the steps serves the whole
corpus (cut into groups past _GROUP_CELL_CAP cells, to bound memory).
Viterbi and forward-backward both run over this layout; viterbi(lattice)
and forward_backward(lattice) are their one-sentence case.

Forward-backward uses the scaled probability-domain recursion (Sutton &
McCallum, "An Introduction to CRFs", section on scaling; CRFsuite does
the same).  Each unary row and each transition matrix is exponentiated
once after subtracting its maximum, the forward vector is normalized to
sum 1 at every position, and log Z is the sum of the log normalizers
plus the subtracted maxima.  Edges that share their active bigram rows
share one transition matrix, so the expected transition counts come out
as one matrix product per distinct matrix; no per-edge label-pair tensor
is formed.  The scaled values stay normal doubles only while the scores
of a call spread less than about 690 nats; a call that spreads wider
runs the log-domain recursion on the same layout, which is also the
reference the tests compare against.

Training maximizes the L2-regularized conditional log-likelihood, whose
value and gradient are exact, with the L-BFGS of ``minimize``: the
two-loop recursion over the last 10 steps (Liu & Nocedal 1989, as in
liblbfgs and CRFsuite), run with in-place level-1 BLAS on preallocated
step and gradient-change rows, and a Moré–Thuente-style line search for
a step meeting the strong Wolfe conditions.  Its constants and stopping
tests are L-BFGS-B's.  Training is deterministic for fixed inputs, and
the model keeps the objective trace, the number of objective calls and
the optimizer's stop reason.

Training starts at zero weights, and the unigram block of the gradient
is A'(gold - node marginals - Z / sigma^2) when the unigram weights are
A'Z, A being the activations (tokens x unigram strings).  So every
iterate's unigram block is A'Z for some Z (tokens x labels), the
representer theorem's form.  When a corpus has fewer tokens than
unigram strings, L-BFGS runs on Z and the bigram weights, under the
inner product of the weights they stand for (``minimize``'s basis): the
same iterates, with a history of tokens x labels numbers per step
instead of strings x labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from sys import float_info
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg.blas import daxpy, ddot

from .corpus import Corpus
from .errors import (
    ColumnMismatchError,
    EmptyTrainingSetError,
    LengthMismatchError,
    NonFiniteObjectiveError,
    TrainingConfigError,
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
        # the prior divides by sigma squared, which must be a normal double
        if not (self.sigma > 0
                and float_info.min <= self.sigma * self.sigma <= float_info.max):
            raise TrainingConfigError(
                "sigma must be positive with a normal square, got %r" % self.sigma)
        if not 0 < self.tolerance <= float_info.max:
            raise TrainingConfigError(
                "tolerance must be positive and finite, got %r" % self.tolerance)
        if self.max_iterations < 0:
            raise TrainingConfigError(
                "max_iterations must be at least 0, got %r" % self.max_iterations)
        if self.cutoff < 1:
            raise TrainingConfigError("cutoff must be at least 1, got %r" % self.cutoff)


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


def build_lattice(model: LinearChainModel, corpus: Corpus) -> Lattice:
    """The lattice of a one-sentence corpus, such as
    select_sentences(corpus, [i]): sums the weights of firing features;
    unknown strings contribute 0."""
    if corpus.n_sentences != 1:
        raise LengthMismatchError(
            "a lattice needs a one-sentence corpus, got %d sentences"
            % corpus.n_sentences
        )
    enc = _encode(corpus, model.templates, model.dictionary)
    unary, P = _scores(model.weights, enc)
    return Lattice(unary, P[enc.classes])


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
        lattice.unary, lattice.pairwise, np.arange(T - 1), [1] * T
    )
    return float(log_z), node, edge


def viterbi(lattice: Lattice) -> list[int]:
    """Highest-scoring label sequence.

    Every argmax (final label and each backtrack step) takes the first
    maximal index, so ties resolve to the lowest label index and the
    result is deterministic.
    """
    T = lattice.n_positions
    return _viterbi(
        lattice.unary, lattice.pairwise, np.arange(T - 1), [1] * T
    ).tolist()


# --- inference and training ------------------------------------------


@dataclass(eq=False)
class _Encoded:
    """A corpus folded into index space against a fixed dictionary, in the
    packed layout.

    Sentences are sorted by length, longest first (a stable sort), and cut
    into groups of about _GROUP_CELL_CAP cells, each laid out time-major
    after the last: step t of group g holds position t of its groups[g][t]
    sentences longer than t, a prefix of step t-1's rows.  Row r is the
    token at corpus position packed[r].  Each row past its group's step 0
    ends an edge; classes holds the edges' transition classes (the tuple of
    an edge's active bigram rows, whose edges share one transition
    matrix) in row order.  spans holds each group's rows, edges and sizes.
    """

    packed: np.ndarray  # the corpus position of each row
    groups: list[list[int]]  # rows at each step, per group
    classes: np.ndarray  # transition class of each edge
    activations: sparse.csr_matrix  # rows x unigram strings
    transitions: sparse.csr_matrix  # classes x bigram strings, 1 if active
    empirical: np.ndarray | None  # gold feature counts, when labeled
    gold: np.ndarray | None  # the gold label of each row, when labeled
    n_labels: int

    def __post_init__(self):
        # scipy builds a new matrix object on every .T
        self.activations_T = self.activations.T
        self.transitions_T = self.transitions.T
        rows = np.cumsum([0] + [sum(sizes) for sizes in self.groups])
        edges = rows - np.cumsum([0] + [sum(sizes[:1]) for sizes in self.groups])
        self.spans = [(slice(*rows[g : g + 2]), slice(*edges[g : g + 2]), sizes)
                      for g, sizes in enumerate(self.groups)]

    def in_corpus_order(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty_like(rows)
        out[self.packed] = rows
        return out


def _encode(
    corpus: Corpus,
    templates: Sequence[FeatureTemplate],
    dictionary: FeatureDictionary,
    label_column: int | None = None,
    index: FeatureIndex | None = None,
) -> _Encoded:
    """Fold a corpus into index space; gold feature counts are taken only
    when a label column is given.  Only the distinct expanded strings are
    looked up in the dictionary; transition classes are numbered in order
    of first occurrence in the corpus."""
    if index is None:
        index = index_features(corpus, templates)
    L = dictionary.n_labels
    n_uni = len(dictionary.uni_strings)
    n_tokens = corpus.n_tokens
    lengths = np.asarray(corpus.lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    uni = dictionary.unigram_rows(index.uni_strings)[index.uni_ids]
    bi = dictionary.bigram_rows(index.bi_strings)[index.bi_ids]
    tokens, slots = np.nonzero(uni >= 0)
    uni_rows = uni[tokens, slots]
    # an edge's class is its row of active bigram blocks (-1 where absent);
    # a block belongs to one template, so this is the tuple of active blocks
    unique, first, inverse = np.unique(
        bi, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.argsort(order)
    class_rows = unique[order]
    members, member_slots = np.nonzero(class_rows >= 0)
    transitions = sparse.csr_matrix(
        (np.ones(len(members)), (members, class_rows[members, member_slots])),
        shape=(len(class_rows), len(dictionary.bi_strings)),
    )
    y = empirical = None
    if label_column is not None:
        labels = corpus.columns[label_column]
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
    # the packed layout, a group starting every _GROUP_CELL_CAP cells of
    # sorted tokens: row r of a group is token step[r] of sentence group[row[r]]
    by_length = np.argsort(-lengths, kind="stable")
    before = np.cumsum(lengths[by_length]) - lengths[by_length]
    cuts = np.flatnonzero(np.diff(before // max(1, _GROUP_CELL_CAP // L))) + 1
    packed, edge, groups = [], [], []
    for group in np.split(by_length, cuts):
        sizes = len(group) - np.cumsum(np.bincount(lengths[group]))[:-1]
        step = np.repeat(np.arange(len(sizes)), sizes)
        row = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # sentence i's edges start at corpus edge index start_i - i
        packed.append(starts[group[row]] + step)
        edge.append((packed[-1] - group[row] - 1)[len(group):])
        groups.append(sizes.tolist())
    packed = np.concatenate(packed)
    position = np.empty(n_tokens, dtype=np.intp)
    position[packed] = np.arange(n_tokens)
    activations = sparse.csr_matrix(
        (np.ones(len(tokens)), (position[tokens], uni_rows)), shape=(n_tokens, n_uni)
    )
    return _Encoded(packed, groups, rank[inverse.ravel()][
        np.concatenate(edge)], activations, transitions, empirical,
        None if y is None else y[packed], L)


# Cap on the cells (tokens x labels) of one group of the packed layout
_GROUP_CELL_CAP = 2_000_000

# The scaled recursion runs when the largest unary-row range plus the
# largest transition-matrix range plus log L stays below this many nats.
# Then every scaled forward entry is at least exp(-690) ~ 1e-300 and every
# scaled backward entry at most exp(690), so all stay normal doubles.
_MAX_SPREAD = 690.0


def _steps(sizes: list[int]) -> list[tuple[int, int]]:
    """The rows of each step of the packed layout."""
    ends = list(itertools.accumulate(sizes))
    return list(zip([0] + ends, ends))


def _forward_backward(U: np.ndarray, P: np.ndarray, classes: np.ndarray, sizes):
    """Exact forward-backward over chains in the packed layout.

    U is (rows, L) unary scores, P is (K, L, L) transition scores per
    class, classes holds the class of the edge ending each row past step
    0 and sizes the rows of each step (see _Encoded).  Returns log Z summed
    over the chains, node marginals (rows, L) and the expected label-pair
    counts of each class, summed over its edges (K, L, L).
    """
    n, L = U.shape
    u_max = U.max(axis=1, keepdims=True)
    p_max = P.max(axis=(1, 2), keepdims=True)
    spread = ((u_max - U.min(axis=1, keepdims=True)).max(initial=0.0)
              + (p_max - P.min(axis=(1, 2), keepdims=True)).max(initial=0.0))
    if not spread + np.log(L) < _MAX_SPREAD:
        return _log_forward_backward(U, P, classes, sizes)
    psi = np.exp(U - u_max)
    E = np.exp(P - p_max)
    steps = _steps(sizes)
    first = sizes[0] if sizes else 0  # rows past it end an edge
    alpha = np.empty_like(psi)
    scale = np.empty(n)
    for t, (lo, hi) in enumerate(steps):
        a = psi[lo:hi]
        if t:
            before = steps[t - 1][0]
            into = classes[lo - first : hi - first]
            a = _times(alpha[before : before + hi - lo], E, into) * a
        scale[lo:hi] = a.sum(axis=1)
        alpha[lo:hi] = a / scale[lo:hi, None]
    beta = np.ones_like(psi)  # 1 at the last token of each chain
    left = np.empty((n - first, L))  # alpha where each edge starts
    right = np.empty((n - first, L))  # psi * beta / scale where it ends
    for t in range(len(steps) - 1, 0, -1):
        (lo, hi), before = steps[t], steps[t - 1][0]
        edges = slice(lo - first, hi - first)
        left[edges] = alpha[before : before + hi - lo]
        right[edges] = psi[lo:hi] * beta[lo:hi] / scale[lo:hi, None]
        beta[before : before + hi - lo] = _times(
            right[edges], E.transpose(0, 2, 1), classes[edges])
    log_z = np.log(scale).sum() + u_max.sum() + p_max.ravel()[classes].sum()
    alpha *= beta  # the node marginals; left keeps the alphas the counts need
    del psi, beta  # before the counts copy each class's edges
    expected = np.zeros(P.shape)
    for k in np.unique(classes):
        edges = classes == k
        expected[k] = E[k] * (left[edges].T @ right[edges])
    return log_z, alpha, expected


def _times(vectors: np.ndarray, matrices: np.ndarray, classes: np.ndarray):
    """Row b of vectors times matrices[classes[b]], one product per class."""
    if len(matrices) == 1:
        return vectors @ matrices[0]
    out = np.empty_like(vectors)
    for k in np.unique(classes):
        rows = classes == k
        out[rows] = vectors[rows] @ matrices[k]
    return out


def _log_forward_backward(U: np.ndarray, P: np.ndarray, classes: np.ndarray, sizes):
    """Log-domain forward-backward with _forward_backward's arguments and
    results.  It stays finite at any finite scores, at the cost of an exp
    over every edge's label-pair scores, so it runs only when the scores
    spread too wide for the scaled recursion."""
    steps = _steps(sizes)
    first = sizes[0] if sizes else 0
    alpha = U.copy()
    log_z = np.empty(first)  # per chain, from its last token's alpha
    for t, (lo, hi) in enumerate(steps):
        if t:
            before = steps[t - 1][0]
            alpha[lo:hi] += _logsumexp(
                alpha[before : before + hi - lo, :, None]
                + P[classes[lo - first : hi - first]], axis=1)
        going_on = sizes[t + 1] if t + 1 < len(sizes) else 0
        log_z[going_on : hi - lo] = _logsumexp(alpha[lo + going_on : hi], axis=1)
    beta = np.zeros_like(U)
    node = np.empty_like(U)
    expected = np.zeros(P.shape)
    for t in range(len(steps) - 1, -1, -1):
        lo, hi = steps[t]
        node[lo:hi] = np.exp(alpha[lo:hi] + beta[lo:hi] - log_z[: hi - lo, None])
        if t:
            before = steps[t - 1][0]
            edge_classes = classes[lo - first : hi - first]
            scores = P[edge_classes] + (U[lo:hi] + beta[lo:hi])[:, None, :]
            np.add.at(expected, edge_classes, np.exp(
                alpha[before : before + hi - lo, :, None] + scores
                - log_z[: hi - lo, None, None]))
            beta[before : before + hi - lo] = _logsumexp(scores, axis=2)
    return log_z.sum(), node, expected


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    shift = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - shift).sum(axis=axis)) + shift.squeeze(axis)


def _scores(weights: np.ndarray, enc: _Encoded):
    """Unary scores (rows x L) and one transition matrix per class."""
    L = enc.n_labels
    n_uni = enc.activations.shape[1]
    w_uni = weights[: n_uni * L].reshape(n_uni, L)
    w_bi = weights[n_uni * L :].reshape(-1, L * L)
    return enc.activations @ w_uni, (enc.transitions @ w_bi).reshape(-1, L, L)


def _expectations(weights: np.ndarray, enc: _Encoded):
    """Summed log Z, node marginals (rows x L, in the packed layout) and
    expected label-pair counts per bigram string (strings x L x L) at the
    given weights."""
    unary, P = _scores(weights, enc)
    log_z, node, per_class = 0.0, np.empty_like(unary), np.zeros(P.shape)
    for rows, edges, sizes in enc.spans:
        z, node[rows], expected = _forward_backward(unary[rows], P, enc.classes[edges], sizes)
        log_z += z
        per_class += expected
    return log_z, node, enc.transitions_T @ per_class.reshape(len(P), enc.n_labels**2)


# Cap on the cells of one Viterbi step's (rows, L, L) score tensor: the
# rows of a step are scored in chunks this small, which tag no slower and
# leave less freed memory held by the allocator than larger ones.
_VITERBI_CELL_CAP = 250_000


def _viterbi(U: np.ndarray, P: np.ndarray, classes: np.ndarray, sizes) -> np.ndarray:
    """The best label of every row of chains in the packed layout, with
    _forward_backward's arguments.  Every argmax takes the first maximal
    index, so ties go to the lowest label index."""
    n, L = U.shape
    steps = _steps(sizes)
    first = sizes[0] if sizes else 0
    into = np.ascontiguousarray(P.transpose(0, 2, 1))  # [k, cur, prev]
    chunk = max(1, _VITERBI_CELL_CAP // L**2)
    delta = U.copy()
    back = np.empty((n - first, L), dtype=np.intp)
    for t in range(1, len(steps)):
        (lo, hi), shift = steps[t], steps[t][0] - steps[t - 1][0]
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            edges = slice(a - first, b - first)
            scores = delta[a - shift : b - shift, None, :] + (
                into[0] if len(P) == 1 else into[classes[edges]])
            back[edges] = best = scores.argmax(axis=2)
            delta[a:b] += np.take_along_axis(scores, best[:, :, None], axis=2)[:, :, 0]
    path = np.empty(n, dtype=np.intp)
    for t in range(len(steps) - 1, -1, -1):
        lo, hi = steps[t]
        going_on = sizes[t + 1] if t + 1 < len(sizes) else 0
        path[lo + going_on : hi] = delta[lo + going_on : hi].argmax(axis=1)
        if going_on:
            after = steps[t + 1][0]
            path[lo : lo + going_on] = back[after - first : after - first + going_on][
                np.arange(going_on), path[after : after + going_on]]
    return path


def _best_paths(weights: np.ndarray, enc: _Encoded) -> np.ndarray:
    """The Viterbi label of every token, in corpus order."""
    unary, P = _scores(weights, enc)
    path = np.empty(len(unary), dtype=np.intp)
    for rows, edges, sizes in enc.spans:
        path[rows] = _viterbi(unary[rows], P, enc.classes[edges], sizes)
    return enc.in_corpus_order(path)


def _objective(x: np.ndarray, enc: _Encoded, sigma: float, basis=None):
    """Regularized log-likelihood and its gradient over the whole corpus,
    at weights x, or at weights basis.matvec(x) with the gradient in token
    coordinates when basis is _TokenBasis(enc)."""
    weights = x if basis is None else basis.matvec(x)
    log_z, node, expected_bi = _expectations(weights, enc)
    # einsum's own loop, not BLAS ddot: OpenBLAS runs a long ddot on
    # several threads that then spin, slowing the optimizer's work between
    # calls (on two cores, pipeline VIII's training took ~1.8x as long).
    value = float(np.einsum("i,i->", enc.empirical, weights)) - log_z
    value -= float(np.einsum("i,i->", weights, weights)) / (2.0 * sigma * sigma)
    if basis is None:
        expected = np.concatenate(
            [(enc.activations_T @ node).ravel(), expected_bi.ravel()]
        )
        gradient = enc.empirical - expected - weights / (sigma * sigma)
    else:
        # the unigram gradient is A'(gold - node - Z / sigma^2), A the
        # activations: its coordinates are the rows in parentheses
        node *= -1.0
        node[np.arange(len(node)), enc.gold] += 1.0
        bigram = enc.empirical[enc.activations.shape[1] * enc.n_labels :]
        gradient = np.concatenate([node.ravel(), bigram - expected_bi.ravel()])
        gradient -= x / (sigma * sigma)
    if not np.isfinite(value) or not np.all(np.isfinite(gradient)):
        raise NonFiniteObjectiveError("objective or gradient not finite")
    return value, gradient


@dataclass(frozen=True, eq=False)
class _TokenBasis:
    """The map B from token coordinates (Z, b) to weights (A'Z, b): Z holds
    one row of L numbers per row of the packed layout, A is the activations
    (rows x unigram strings) and b the bigram weights."""

    enc: _Encoded

    @property
    def shape(self) -> tuple[int, int]:
        rows, n_uni = self.enc.activations.shape
        n_bi = self.enc.empirical.size - n_uni * self.enc.n_labels
        return n_uni * self.enc.n_labels + n_bi, rows * self.enc.n_labels + n_bi

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """B x."""
        z = x[: self.enc.activations.shape[0] * self.enc.n_labels]
        unigram = self.enc.activations_T @ z.reshape(-1, self.enc.n_labels)
        return np.concatenate([unigram.ravel(), x[z.size :]])

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """B'w."""
        u = w[: self.enc.activations.shape[1] * self.enc.n_labels]
        rows = self.enc.activations @ u.reshape(-1, self.enc.n_labels)
        return np.concatenate([rows.ravel(), w[u.size :]])


def objective_and_gradient(model: LinearChainModel, data: Corpus, sigma: float):
    """Value and gradient at the model's current weights on data labeled
    in its last column."""
    enc = _encode(data, model.templates, model.dictionary, data.schema.width - 1)
    return _objective(model.weights, enc, sigma)


# --- optimizer ---------------------------------------------------------

# As in L-BFGS-B: correction pairs kept, the line search's sufficient
# decrease and curvature constants, and the gradient entry that counts as 0.
_MEMORY = 10
_C1, _C2 = 1e-3, 0.9
_GRADIENT_TOLERANCE = 1e-9
_MAX_TRIALS = 20

# Stop reasons at a point that is not known to be a minimum.
UNCONVERGED = ("max_iterations", "line search")


def minimize(fun, x0, max_iterations, tolerance, callback=None, basis=None):
    """Minimize fun, which returns (value, gradient), by L-BFGS from x0:
    directions from the last 10 steps by the two-loop recursion (Liu &
    Nocedal 1989).  Stops as L-BFGS-B does: "converged" once a step lowers
    the value by at most tolerance * max(|old|, |new|, 1), or once rounding
    hides any decrease along the search direction; "gradient" once no
    gradient entry exceeds 1e-9; "max_iterations"; or "line search" when no
    step is found for any other reason.
    callback(x, value) sees x0 and each accepted point.  Returns the point,
    the number of steps, the number of calls of fun and the stop reason.

    A basis B (with B.matvec(x) = B x and B.rmatvec(w) = B'w, as a scipy
    LinearOperator has) makes x the coordinates of the point B x, and fun
    must then return coordinates g of the gradient B g.  Every dot product is the images' one, <B a, B b> = <a, G b>
    with G = B'B, so the steps are those taken on the images.  Each step
    and gradient change is kept beside its Gram image (G s is the step
    times G d, and G d follows d through the recursion), and the
    "gradient" stop tests the entries of B g.  Without a basis, G is the
    identity and each vector is its own Gram image."""

    def images(v):
        """B v and G v."""
        if basis is None:
            return v, v
        w = basis.matvec(v)
        return w, basis.rmatvec(w)

    x, (f, g), calls = x0, fun(x0), 1
    g_image, g_gram = images(g)
    if callback is not None:
        callback(x, f)
    # pair k is S[k, 0] and Y[k, 0]; row -1 holds their Gram images
    rows = 1 if basis is None else 2
    S, Y = np.empty((_MEMORY, rows, x.size)), np.empty((_MEMORY, rows, x.size))
    rho, alpha = np.empty(_MEMORY), np.empty(_MEMORY)
    for iteration in itertools.count():
        if np.abs(g_image).max(initial=0.0) <= _GRADIENT_TOLERANCE:
            return x, iteration, calls, "gradient"
        if iteration and f_old - f <= tolerance * max(abs(f_old), abs(f), 1.0):
            return x, iteration, calls, "converged"
        if iteration == max_iterations:
            return x, iteration, calls, "max_iterations"
        D = -np.array([g, g_gram][:rows])  # the direction and its Gram image
        newest = range(iteration - 1, max(iteration - _MEMORY, 0) - 1, -1)
        slots = [i % _MEMORY for i in newest]
        for k in slots:
            alpha[k] = rho[k] * ddot(S[k, -1], D[0])
            daxpy(Y[k].ravel(), D.ravel(), a=-alpha[k])
        if slots:  # scale by s'y / y'y of the newest pair
            D *= 1.0 / (rho[slots[0]] * ddot(Y[slots[0], -1], Y[slots[0], 0]))
        for k in reversed(slots):
            daxpy(S[k].ravel(), D.ravel(), a=alpha[k] - rho[k] * ddot(Y[k, -1], D[0]))
        step = 1.0 if iteration else 1.0 / np.sqrt(ddot(g, g_gram))
        step, point, f_new, g_new, trials = _line_search(fun, x, f, g, D[0], D[-1], step)
        calls += trials
        if point is None:
            return x, iteration, calls, "line search"
        if point is x:
            return x, iteration, calls, "converged"
        k = iteration % _MEMORY
        g_image, gram_new = images(g_new)
        np.subtract(point, x, out=S[k, 0])
        np.subtract(g_new, g, out=Y[k, 0])
        if basis is not None:
            np.multiply(D[-1], step, out=S[k, -1])
            np.subtract(gram_new, g_gram, out=Y[k, -1])
        rho[k] = 1.0 / ddot(Y[k, -1], S[k, 0])  # s'y > 0 on a strictly convex fun
        x, f_old, f, g, g_gram = point, f, f_new, g_new, gram_new
        if callback is not None:
            callback(x, f)


def _line_search(fun, x, f0, g0, d, d_gram, step):
    """A step along d meeting the strong Wolfe conditions, searched in the
    manner of Moré & Thuente: extrapolate by cubic steps until a minimizer
    is bracketed, then zoom by safeguarded cubic steps or bisection.  A
    slope is a gradient's dot product with d_gram, the Gram image of d.
    Returns the step, the point, its value, its gradient and the number
    of calls.
    When 20 trials find no such step, or rounding leaves none to try, the
    point is x if rounding hides any decrease left in the bracket, and
    None otherwise."""
    slope0 = ddot(g0, d_gram)
    lo, hi = (0.0, f0, slope0), None  # (step, value, slope); lo is lowest
    step = np.float64(step)
    for trial in range(1, _MAX_TRIALS + 1):
        point = daxpy(d, x.copy(), a=step)
        f, g = fun(point)
        now = (step, f, ddot(g, d_gram))
        decreased = f <= f0 + _C1 * step * slope0
        if decreased and abs(now[2]) <= -_C2 * slope0:
            return step, point, f, g, trial
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
    # On a convex fun no step in the bracket lowers the value by more than
    # -slope0 times its far end.  If that, and the lowest value's own
    # decrease, are within the rounding of f0, no decrease is left to find.
    rounding = abs(np.spacing(f0))
    if hi is not None and max(f0 - lo[1], -slope0 * max(lo[0], hi[0])) <= rounding:
        return 0.0, x, f0, g0, trial
    return None, None, None, None, trial


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
) -> LinearChainModel:
    """Fit weights by L-BFGS on the exact batch objective.

    The labels are the last column; templates may only read the columns
    before it.  max_iterations=0 returns the zero-weight model.  The
    objective at the start and after every accepted step, the number of
    objective calls and the optimizer's stop reason are kept on the model.
    """
    config = config or TrainingConfig()
    if corpus.n_tokens == 0:
        raise EmptyTrainingSetError("no tokens to train on")
    column = corpus.schema.width - 1
    for t in templates:
        for m in t.macros:
            if m.col == column:
                raise ColumnMismatchError(
                    "template %s reads the label column %d" % (t.id, m.col)
                )
    index = index_features(corpus, templates)
    dictionary = build_dictionary(corpus, templates, column, config.cutoff, index)
    enc = _encode(corpus, templates, dictionary, column, index)
    # Fewer tokens than unigram strings: L-BFGS runs on token coordinates
    # (see _TokenBasis), whose iterates map to those on the weights
    basis = _TokenBasis(enc) if corpus.n_tokens < len(dictionary.uni_strings) else None
    trace: list[float] = []

    def fun(x):
        value, gradient = _objective(x, enc, config.sigma, basis)
        return -value, -gradient

    x, iterations, evaluations, stop = minimize(
        fun,
        np.zeros(dictionary.n_weights if basis is None else basis.shape[1]),
        config.max_iterations,
        config.tolerance,
        callback=lambda x, f: trace.append(-f),
        basis=basis,
    )
    return LinearChainModel(
        dictionary=dictionary,
        templates=tuple(templates),
        weights=x if basis is None else basis.matvec(x),
        sigma=config.sigma,
        iterations=iterations,
        trace=tuple(trace),
        stop=stop,
        evaluations=evaluations,
    )


def tag(model: LinearChainModel, corpus: Corpus) -> list[list[str]]:
    """Viterbi labels per sentence; unknown words fall back to whatever
    transition and boundary features say."""
    enc = _encode(corpus, model.templates, model.dictionary)
    labels = np.array(model.labels, dtype=object)[_best_paths(model.weights, enc)]
    return [labels[start:end].tolist() for start, end in corpus.bounds]


def marginals(model: LinearChainModel, corpus: Corpus) -> list[np.ndarray]:
    """Per-sentence node-marginal matrices (positions x labels)."""
    enc = _encode(corpus, model.templates, model.dictionary)
    node = enc.in_corpus_order(_expectations(model.weights, enc)[1])
    return [node[start:end] for start, end in corpus.bounds]


def confidence(model: LinearChainModel, corpus: Corpus) -> list[list[float]]:
    """Node-marginal probability of the Viterbi label at each token."""
    enc = _encode(corpus, model.templates, model.dictionary)
    node = enc.in_corpus_order(_expectations(model.weights, enc)[1])
    best = node[np.arange(len(node)), _best_paths(model.weights, enc)]
    return [best[start:end].tolist() for start, end in corpus.bounds]
