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

Viterbi scores, at each step, only the previous labels that can still
win, the exact state-skipping bound of CarpeDiem (Esposito & Radicioni,
2009) and staggered decoding (Kaji et al., 2010).  A previous label that
trails its row's best by more than the spread of the transition scores
(largest minus smallest, over all classes) scores less into every
current label than the best one does, so it is never an argmax.  A
margin of 1e-9 of the scores' size on top of the spread keeps every
label whose rounded sum could still tie the best, and the kept labels,
taken in ascending order, give bit for bit the sums, back-pointers and
lowest-index tie-breaks of scoring all L.  A trained model's transitions
spread less than its unary scores' gaps, so most rows keep one or two
labels; a step scores all L where the spread is wide or its rows too few
for the bound to pay.

Of that encoding only the gold labels depend on a model's labels.  The
rest, a design (layout, activations, transition classes and matrices),
is built once per feature index, dictionary strings and group cuts,
kept read-only beside the index and dropped with it, so models that
share an index, such as a decomposed plan's, share it.

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
liblbfgs and CRFsuite), run on the coefficients of the preallocated step
and gradient-change rows as vector-free L-BFGS does, so an iteration's
vector work is seven of numpy's matrix-vector products, and a
Moré–Thuente-style line search for a step meeting the strong Wolfe
conditions.  Its constants and stopping tests are L-BFGS-B's.  Training
is deterministic for fixed inputs, and the model keeps the objective
trace, the number of objective calls and the optimizer's stop reason.

The data term of the log-likelihood is read off the scores: each
token's unary score at its gold label, plus each class's gold label-pair
counts times its matrix.  Its gradient is gold minus expected
statistics: A'R with R = onehot(gold) - node marginals per token, A the
activations (tokens x unigram strings), and T'(gold - expected pair
counts per class), T the classes' bigram strings.  From zero weights,
the prior adds -A'Z / sigma^2 to A'R when the unigram weights are A'Z,
so every iterate's unigram block is A'Z for some Z (tokens x labels),
the representer theorem's form.  When a corpus has fewer tokens than
unigram strings, L-BFGS runs on Z and the bigram weights, under the
inner product of the weights they stand for (``minimize``'s basis),
from zero whatever start train is given: the same iterates, with a
history of tokens x labels numbers per step instead of strings x labels.
The optimizer carries each point's Gram image (AA'Z and the bigram
weights), whose token block is the unary scores, so an objective call
there reads its scores and prior off that image and forms no weight
vector.  That image and the final weights A'Z are formed a block of Z's
label columns at a time, bit for bit the whole products, so training
holds no array as long as the weights but the model's own.  Viterbi
overwrites the unary scores it is given and keeps one-byte back-pointers
up to 256 labels.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from numbers import Integral
from operator import mul
from sys import float_info
from typing import Sequence

import numpy as np
from scipy import sparse

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
    fitting_index,
    index_features,
)


@dataclass(frozen=True)
class TrainingConfig:
    # each field is a flag of train and cv (cli) and a [training] spec key (pipelines)
    sigma: float = field(default=1.0, metadata={"help": "regularization scale"})
    max_iterations: int = field(default=300, metadata={"help": "optimizer iteration cap"})
    tolerance: float = field(default=1e-5, metadata={"help": "relative convergence threshold"})
    cutoff: int = field(default=1, metadata={"help": "minimum feature-string count"})

    def __post_init__(self):
        # the prior divides by sigma squared, which must be a normal double
        if not (self.sigma > 0
                and float_info.min <= self.sigma * self.sigma <= float_info.max):
            raise TrainingConfigError(
                "sigma must be positive with a normal square, got %r" % self.sigma)
        if not 0 < self.tolerance <= float_info.max:
            raise TrainingConfigError(
                "tolerance must be positive and finite, got %r" % self.tolerance)
        if not isinstance(self.max_iterations, Integral) or self.max_iterations < 0:
            raise TrainingConfigError("max_iterations must be an integer of at "
                                      "least 0, got %r" % (self.max_iterations,))
        if not isinstance(self.cutoff, Integral) or self.cutoff < 1:
            raise TrainingConfigError(
                "cutoff must be an integer of at least 1, got %r" % (self.cutoff,))


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
    unary, P, enc = _scored(model, corpus)
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
    maximal index, so ties among the computed scores resolve to the
    lowest label index and the result is deterministic.
    """
    T = lattice.n_positions
    return _viterbi(
        lattice.unary.copy(), lattice.pairwise, np.arange(T - 1), [1] * T
    ).tolist()


# --- inference and training ------------------------------------------


@dataclass(frozen=True, eq=False)
class _Design:
    """A corpus's strings looked up in a dictionary, in the packed layout.

    Sentences are sorted by length, longest first (a stable sort), and cut
    into groups of about _GROUP_CELL_CAP cells, each laid out time-major
    after the last: step t of a group holds position t of its sentences
    longer than t, a prefix of step t-1's rows.  Row r is the
    token at corpus position packed[r], so rows[position] is in corpus
    order.  Each row past its group's step 0 ends an edge; classes holds
    the edges' transition classes (the tuple of an edge's active bigram
    rows, whose edges share one transition matrix) in row order.  spans
    holds each group's rows, edges and sizes (rows at each step).
    """

    packed: np.ndarray  # the corpus position of each row
    position: np.ndarray  # the row of each corpus position
    spans: list[tuple[slice, slice, list[int]]]
    classes: np.ndarray  # transition class of each edge
    edge_classes: np.ndarray  # the same in corpus edge order
    activations: sparse.csr_matrix  # rows x unigram strings
    activations_T: sparse.csc_matrix
    transitions: sparse.csr_matrix  # classes x bigram strings, 1 if active
    transitions_T: sparse.csc_matrix


@dataclass(frozen=True, eq=False)
class _Encoded(_Design):  # a design read by one model
    n_labels: int
    gold: np.ndarray | None  # the gold label of each row, when labeled
    gold_pairs: np.ndarray | None  # classes x L x L gold edge counts, when labeled


_DESIGNS = weakref.WeakKeyDictionary()  # each live index's designs, see _encode


def _encode(
    index: FeatureIndex, dictionary: FeatureDictionary, labels: Sequence[str] | None = None
) -> _Encoded:
    """The index's design (see _design) for the dictionary's strings and
    the group cuts, built once per index, with gold labels and pair counts
    when the indexed corpus's labels are given; the caller fits the index
    (see fitting_index)."""
    L = dictionary.n_labels
    lengths = np.asarray(index.lengths, dtype=np.intp)
    # a group starts every _GROUP_CELL_CAP cells of sorted tokens
    by_length = np.argsort(-lengths, kind="stable")
    before = np.cumsum(lengths[by_length]) - lengths[by_length]
    cuts = np.flatnonzero(np.diff(before // max(1, _GROUP_CELL_CAP // L))) + 1
    key = (dictionary.uni_strings, dictionary.bi_strings, cuts.tobytes())
    designs = _DESIGNS.setdefault(index, {})
    if key not in designs:
        designs[key] = _design(index, dictionary, lengths, np.split(by_length, cuts))
    design = designs[key]
    y = gold_pairs = None
    if labels is not None:
        y = list(map(dictionary.label_index, labels))
        if None in y:
            raise UnknownLabelError(
                "label %r not in the model alphabet" % labels[y.index(None)]
            )
        y = np.asarray(y, dtype=np.intp)
        right = np.delete(np.arange(len(y)), np.cumsum(lengths) - lengths)  # token ending each edge
        gold_pairs = np.bincount((design.edge_classes * L + y[right - 1]) * L + y[right],
                                 minlength=design.transitions.shape[0] * L * L).reshape(-1, L, L)
    return _Encoded(**vars(design), n_labels=L, gold=None if y is None else y[design.packed],
                    gold_pairs=gold_pairs)


def _design(index: FeatureIndex, dictionary: FeatureDictionary, lengths: np.ndarray,
            groups: list[np.ndarray]) -> _Design:
    """The index's distinct strings looked up in the dictionary and laid
    out in the given groups of sentences (see _Design), transition classes
    numbered by first occurrence; every model encoded from it shares its
    arrays, so they are read-only."""
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
    edge_classes = rank[inverse.ravel()]  # in corpus edge order
    class_rows = unique[order]
    members, member_slots = np.nonzero(class_rows >= 0)
    transitions = sparse.csr_matrix(
        (np.ones(len(members)), (members, class_rows[members, member_slots])),
        shape=(len(class_rows), len(dictionary.bi_strings)),
    )
    # row r of a group is token step[r] of sentence group[row[r]]
    packed, edge, sizes_per_group = [], [], []
    for group in groups:
        sizes = len(group) - np.cumsum(np.bincount(lengths[group]))[:-1]
        step = np.repeat(np.arange(len(sizes)), sizes)
        row = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # sentence i's edges start at corpus edge index start_i - i
        packed.append(starts[group[row]] + step)
        edge.append((packed[-1] - group[row] - 1)[len(group):])
        sizes_per_group.append(sizes.tolist())
    packed = np.concatenate(packed)
    position = np.empty(len(packed), dtype=np.intp)
    position[packed] = np.arange(len(packed))
    activations = sparse.csr_matrix((np.ones(len(tokens)), (position[tokens], uni_rows)),
                                    shape=(len(packed), len(dictionary.uni_strings)))
    rows = np.cumsum([0] + [sum(sizes) for sizes in sizes_per_group])
    edges = rows - np.cumsum([0] + [sum(sizes[:1]) for sizes in sizes_per_group])
    spans = [(slice(*rows[g : g + 2]), slice(*edges[g : g + 2]), sizes)
             for g, sizes in enumerate(sizes_per_group)]
    classes = edge_classes[np.concatenate(edge)]
    for a in (packed, position, classes, edge_classes, activations.data, activations.indices,
              activations.indptr, transitions.data, transitions.indices, transitions.indptr):
        a.setflags(write=False)  # the transposes share these
    return _Design(packed, position, spans, classes, edge_classes, activations,
                   activations.T, transitions, transitions.T)


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
    # numpy reduces a short trailing axis one row at a time, so the row
    # extremes come from one transposed copy
    columns = np.ascontiguousarray(U.T)
    u_max = columns.max(axis=0)
    p_max = P.max(axis=(1, 2))
    spread = ((u_max - columns.min(axis=0)).max(initial=0.0)
              + (p_max - P.min(axis=(1, 2))).max(initial=0.0))
    del columns
    if not spread + np.log(L) < _MAX_SPREAD:
        return _log_forward_backward(U, P, classes, sizes)
    psi = np.exp(U - u_max[:, None])
    E = np.exp(P - p_max[:, None, None])
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
    right = np.empty((n - first, L))  # psi * beta / scale where each edge ends
    E_T = E.transpose(0, 2, 1)
    for t in range(len(steps) - 1, 0, -1):
        (lo, hi), before = steps[t], steps[t - 1][0]
        ending = right[lo - first : hi - first]
        np.multiply(psi[lo:hi], beta[lo:hi], out=ending)
        ending /= scale[lo:hi, None]
        beta[before : before + hi - lo] = _times(
            ending, E_T, classes[lo - first : hi - first])
    del psi
    # alpha where each edge starts: row r of step t follows row r - sizes[t - 1]
    left = alpha[np.arange(first, n)
                 - np.repeat(np.asarray(sizes[:-1], dtype=np.intp), sizes[1:])]
    log_z = np.log(scale).sum() + u_max.sum() + p_max[classes].sum()
    alpha *= beta  # the node marginals
    del beta  # before the counts copy each class's edges
    if len(P) == 1:
        return log_z, alpha, E * (left.T @ right)
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
    n = enc.activations.shape[1] * enc.n_labels
    unigram = weights[:n].reshape(-1, enc.n_labels)
    return enc.activations @ unigram, _transition_scores(weights[n:], enc)


def _scored(model: LinearChainModel, corpus: Corpus, index: FeatureIndex | None = None):
    """The model's scores on the corpus (see _scores) and its encoding."""
    enc = _encode(fitting_index(corpus, model.templates, index), model.dictionary)
    return (*_scores(model.weights, enc), enc)


def _transition_scores(bigram: np.ndarray, enc: _Encoded) -> np.ndarray:
    """One transition matrix per class (classes x L x L) at bigram weights."""
    L = enc.n_labels
    return (enc.transitions @ bigram.reshape(-1, L * L)).reshape(-1, L, L)


def _expectations(unary: np.ndarray, P: np.ndarray, enc: _Encoded):
    """Summed log Z, node marginals (rows x L, in the packed layout) and
    expected label-pair counts per class (classes x L x L) at the given
    scores (see _scores)."""
    log_z, node, per_class = 0.0, np.empty_like(unary), np.zeros(P.shape)
    for rows, edges, sizes in enc.spans:
        z, node[rows], expected = _forward_backward(unary[rows], P, enc.classes[edges], sizes)
        log_z += z
        per_class += expected
    return log_z, node, per_class


# Cap on the cells of a Viterbi step's (rows, L, L) score tensor, where it
# scores every previous label, and of a block's (rows, L) slabs, where it
# scores candidates only: the rows of a step are taken in chunks and
# blocks this small, which tag no slower and leave less freed memory held
# by the allocator than larger ones.
_VITERBI_CELL_CAP = 250_000

# A block whose (rows, L, L) tensor would hold at most this many cells
# scores every previous label without weighing the candidate bound, whose
# dozen numpy calls cost some 20 us a block.  Timed on one Xeon core with
# rows that keep one or two labels, the bound first pays at 8k to 40k
# cells for L from 6 to 112, and not below 1,000 rows for L of 2 to 4.
# Replaying the benchmark's Viterbi calls, tagging takes the same time
# for any cap from 20k to 100k cells; at a cap of 0 it takes 2.2 times
# as long on the cascade and decomposed models (2 to 12 labels, at most
# 100 rows a step) and about 1.15 times as long on the 112-label model.
_PRUNE_CELLS = 50_000


def _viterbi(U: np.ndarray, P: np.ndarray, classes: np.ndarray, sizes) -> np.ndarray:
    """The best label of every row of chains in the packed layout, with
    _forward_backward's arguments, overwriting U.  Every argmax takes the
    first maximal index, so ties go to the lowest label index.

    A step scores only the previous labels that can still win.  In a row
    whose best previous score is top, label p with delta_p < top - spread
    - eps, spread = max P - min P over all classes, scores into every
    current label at least eps below the best label's score, which is a
    candidate; eps = 1e-9 (|top| + max |P| + 1) exceeds the rounding of
    both sums many times over, so p can neither win nor tie.  Where no
    row of a block keeps more than L / 2 labels, _score_candidates scores
    the kept ones, bit for bit the sums and first maxima of scoring all L.
    Otherwise, and in a block too small to weigh the bound, the step
    scores all L, a chunk of (rows, L, L) at a time."""
    n, L = U.shape
    steps = _steps(sizes)
    first = sizes[0] if sizes else 0
    into = np.ascontiguousarray(P.transpose(0, 2, 1))  # [k, cur, prev]
    chunk = max(1, _VITERBI_CELL_CAP // L**2)
    block = max(1, _VITERBI_CELL_CAP // L)
    few = _PRUNE_CELLS // L**2
    widest = sizes[1] if len(sizes) > 1 else 0  # the rows of step 1, the largest
    flat = np.arange(min(chunk, widest) * L).reshape(-1, L) * L  # scores[row, cur, 0], flat
    if widest > few:
        most, least = P.max(), P.min()
        with np.errstate(invalid="ignore", over="ignore"):  # inf: every row keeps all
            spread, reach = most - least, max(most, -least)
    delta = U  # the callers own their unary scores
    back = np.empty((n - first, L), dtype=np.min_scalar_type(L - 1))
    for t in range(1, len(steps)):
        (lo, hi), shift = steps[t], steps[t][0] - steps[t - 1][0]
        for a in range(lo, hi, block):
            b = min(a + block, hi)
            prev = delta[a - shift : b - shift]
            if b - a > few:
                top = prev.max(axis=1, keepdims=True)
                with np.errstate(invalid="ignore", over="ignore"):  # inf: the row keeps all
                    keep = ~(prev < top - (spread + 1e-9 * (np.abs(top) + reach + 1.0)))
                counts = keep.sum(axis=1)
                K = int(counts.max())
                # Timed for L of 12 to 112 on blocks of 500 to 2,000 rows,
                # scoring the kept labels takes 0.4 to 0.85 times as long as
                # scoring all L at K = L / 3, 0.5 to 1.16 times at L / 2 and
                # 0.5 to 1.5 times at 2L / 3: the two cross between L / 3
                # and 2L / 3, as rows and L vary, and L / 2 splits the range.
                if 2 * K <= L:
                    _score_candidates(prev, keep, counts, K, P, classes[a - first : b - first],
                                      delta[a:b], back[a - first : b - first])
                    continue
            for c in range(a, b, chunk):
                d = min(c + chunk, b)
                edges = slice(c - first, d - first)
                scores = prev[c - a : d - a, None, :] + (
                    into[0] if len(P) == 1 else into[classes[edges]])
                back[edges] = best = scores.argmax(axis=2)
                delta[c:d] += scores.reshape(-1)[flat[: d - c] + best]
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


def _score_candidates(prev, keep, counts, K, P, classes, delta, back):
    """One Viterbi step over the kept previous labels of each row: adds
    the best score into delta and writes the back-pointers.  Rows take
    their kept labels in ascending order, one (rows, L) slab at a time (a
    row with fewer than K repeats its last), and a later label replaces
    the best only when it scores strictly higher, so ties go to the
    lowest label index."""
    labels = np.nonzero(keep)[1].astype(back.dtype)
    scored = prev[keep]
    start = np.cumsum(counts) - counts
    for m in range(K):
        at = start + np.minimum(m, counts - 1)
        p = labels[at]
        col = (P[0][p] if len(P) == 1 else P[classes, p]) + scored[at][:, None]
        if m == 0:
            best = col
            back[:] = p[:, None]
        else:
            np.copyto(back, p[:, None], where=col > best)
            np.maximum(best, col, out=best)
    delta += best


def _best_paths(unary: np.ndarray, P: np.ndarray, enc: _Encoded) -> np.ndarray:
    """The Viterbi label of every token, in corpus order, at the given
    scores, overwriting unary."""
    path = np.empty(len(unary), dtype=np.intp)
    for rows, edges, sizes in enc.spans:
        path[rows] = _viterbi(unary[rows], P, enc.classes[edges], sizes)
    return path[enc.position]


def _objective(x: np.ndarray, enc: _Encoded, sigma: float, gram=None):
    """Regularized log-likelihood and its gradient over the whole corpus,
    at weights x, or, given gram = G x for token coordinates x (see
    _TokenBasis), at weights B x with the gradient in token coordinates.
    G x is (AA'Z, b): its token block is the unary scores, its bigram block
    the bigram weights, and <x, G x> the squared norm of B x."""
    if gram is None:
        unary, P = _scores(x, enc)
    else:
        n = enc.activations.shape[0] * enc.n_labels
        unary, P = gram[:n].reshape(-1, enc.n_labels), _transition_scores(gram[n:], enc)
    value, node, expected = _likelihood(unary, P, x, x if gram is None else gram, enc, sigma)
    rows = np.arange(len(node))
    node *= -1.0
    node[rows, enc.gold] += 1.0  # R = onehot(gold) - node
    pairs = (enc.gold_pairs - expected).reshape(len(P), enc.n_labels**2)
    unigram = node if gram is not None else enc.activations_T @ node
    gradient = np.concatenate([unigram.ravel(), (enc.transitions_T @ pairs).ravel()])
    gradient -= x / (sigma * sigma)
    if not np.isfinite(value) or not np.all(np.isfinite(gradient)):
        raise NonFiniteObjectiveError("objective or gradient not finite")
    return value, gradient


def _likelihood(unary: np.ndarray, P: np.ndarray, a: np.ndarray, b: np.ndarray,
                enc: _Encoded, sigma: float):
    """Regularized log-likelihood at the given scores (see _scores), with
    <a, b> as the weights' squared norm, and _expectations' node marginals
    and expected pair counts."""
    log_z, node, expected = _expectations(unary, P, enc)
    rows = np.arange(len(node))
    # einsum's own loop, not BLAS ddot: OpenBLAS runs a long ddot on
    # several threads that then spin, slowing the optimizer's work between
    # calls: with np.dot, pipeline VIII's training took ~10% longer on two
    # cores at the default thread count (medians of 4 runs, 0.44 s against
    # 0.40 s, c08's corpus), and as long at one thread.
    value = float(unary[rows, enc.gold].sum() + np.einsum("kij,kij->", enc.gold_pairs, P)
                  - log_z - np.einsum("i,i->", a, b) / (2.0 * sigma * sigma))
    return value, node, expected


# Cap on the cells (unigram strings x labels) of one block of A'Z that
# _TokenBasis forms at a time: a model whose whole A'Z fits is one block.
_GRAM_CELL_CAP = 300_000


@dataclass(frozen=True, eq=False)
class _TokenBasis:
    """The map B from token coordinates (Z, b) to weights (A'Z, b): Z holds
    one row of L numbers per row of the packed layout, A is the activations
    (rows x unigram strings) and b the bigram weights.  Its Gram matrix
    G = B'B maps (Z, b) to (AA'Z, b).

    Both products form A'Z a block of label columns at a time, at most
    _GRAM_CELL_CAP cells each, so neither holds an array as long as the
    weights beside its result.  scipy's sparse products compute each column
    of a multi-column product by the same operations at any width, so the
    blocks give the whole product's numbers bit for bit."""

    enc: _Encoded

    @property
    def shape(self) -> tuple[int, int]:
        rows, n_uni = self.enc.activations.shape
        n_bi = self.enc.transitions.shape[1] * self.enc.n_labels**2
        return n_uni * self.enc.n_labels + n_bi, rows * self.enc.n_labels + n_bi

    def _blocks(self, z: np.ndarray):
        """(block, A'Z[:, block]) for each block of Z's label columns."""
        L = self.enc.n_labels
        Z = z.reshape(-1, L)
        width = max(1, _GRAM_CELL_CAP // self.enc.activations.shape[1])
        for start in range(0, L, width):
            block = slice(start, start + width)
            yield block, self.enc.activations_T @ Z[:, block]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """B x, written block by block into one new array."""
        (rows, n_uni), L = self.enc.activations.shape, self.enc.n_labels
        w = np.empty(self.shape[0])
        unigram = w[: n_uni * L].reshape(n_uni, L)
        for block, part in self._blocks(x[: rows * L]):
            unigram[:, block] = part
        w[n_uni * L :] = x[rows * L :]
        return w

    def images(self, v: np.ndarray):
        """The largest entry of B v in size, and G v (see minimize)."""
        n = self.enc.activations.shape[0] * self.enc.n_labels
        gram = np.empty_like(v)
        gram[n:] = v[n:]
        largest = max(v[n:].max(initial=0.0), -v[n:].min(initial=0.0))
        rows = gram[:n].reshape(-1, self.enc.n_labels)
        for block, part in self._blocks(v[:n]):
            largest = max(largest, part.max(initial=0.0), -part.min(initial=0.0))
            rows[:, block] = self.enc.activations @ part
        return largest, gram


def objective_and_gradient(model: LinearChainModel, data: Corpus, sigma: float):
    """Value and gradient at the model's current weights on data labeled
    in its last column.  sigma must be one TrainingConfig accepts."""
    TrainingConfig(sigma=sigma)
    enc = _encode(index_features(data, model.templates), model.dictionary, data.columns[-1])
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


def _identity(v):
    """images for no basis (see minimize): the largest entry of v in size, and v."""
    return max(v.max(initial=0.0), -v.min(initial=0.0)), v


def minimize(fun, x0, max_iterations, tolerance, callback=None, images=None):
    """Minimize fun by L-BFGS from x0: directions from the last 10 steps by
    the two-loop recursion (Liu & Nocedal 1989), run on their dot products
    (see _two_loop).  Stops as L-BFGS-B does: "converged" once a step
    lowers the value by at most tolerance * max(|old|, |new|, 1), or once
    rounding hides any decrease along the search direction; "gradient" once
    no gradient entry exceeds 1e-9; "max_iterations"; or "line search" when
    no step is found for any other reason.
    callback(x, value) sees x0 and each accepted point.  Returns the point,
    the number of steps, the number of calls of fun and the stop reason.

    x is the coordinates of the point B x under a basis B: images(v)
    returns the largest entry of B v in size and G v, with G = B'B, and
    images=None is the identity, B = G = I.  fun is called as fun(x, G x)
    and returns the value and coordinates g of the gradient B g.  Every dot
    product is the images' one, <B a, B b> = <a, G b>, so the steps are
    those taken on the images, and the "gradient" stop tests the entries of
    B g.  Each step and gradient change is kept beside its Gram image (G s
    is the step times G d, and G d is formed from the same coefficients as
    d), and so is the point: G x0 once, then each trial point's is G x plus
    the step times G d.  Under the identity every vector is its own image,
    so one history row serves both and fun sees the point twice."""
    images = images or _identity
    x, x_gram = x0, images(x0)[1]
    (f, g), calls = fun(x, x_gram), 1
    g_largest, g_gram = images(g)
    if callback is not None:
        callback(x, f)
    # pair k is S[k, 0] and Y[k, 0]; row -1 holds their Gram images, and
    # SY[i, j] = <s_i, y_j> and YY[i, j] = <y_i, y_j>, each a row against
    # the other's image; a point that is its own image keeps one row
    rows = 1 if x_gram is x else 2
    S, Y = np.empty((_MEMORY, rows, x.size)), np.empty((_MEMORY, rows, x.size))
    SY, YY = np.empty((_MEMORY, _MEMORY)), np.empty((_MEMORY, _MEMORY))
    for iteration in itertools.count():
        if g_largest <= _GRADIENT_TOLERANCE:
            return x, iteration, calls, "gradient"
        if iteration and f_old - f <= tolerance * max(abs(f_old), abs(f), 1.0):
            return x, iteration, calls, "converged"
        if iteration == max_iterations:
            return x, iteration, calls, "max_iterations"
        filled = min(iteration, _MEMORY)
        newest = [i % _MEMORY for i in range(iteration - 1, iteration - filled - 1, -1)]
        sg, yg = S[:filled, -1] @ g, Y[:filled, -1] @ g
        alpha, beta, gamma = _two_loop(newest, sg, yg, SY, YY)
        D = -gamma * np.array([g, g_gram][:rows])  # the direction and its Gram image
        if filled:  # plus one product over the steps and one over the changes
            D += (beta @ S[:filled].reshape(filled, -1)).reshape(rows, -1)
            D -= (gamma * alpha @ Y[:filled].reshape(filled, -1)).reshape(rows, -1)
        step = 1.0 if iteration else 1.0 / np.sqrt(g @ g_gram)
        step, point, point_gram, f_new, g_new, trials = _line_search(
            fun, x, x_gram, f, g, D[0], D[-1], step)
        calls += trials
        if point is None:
            return x, iteration, calls, "line search"
        if point is x:
            return x, iteration, calls, "converged"
        k, filled = iteration % _MEMORY, min(iteration + 1, _MEMORY)
        g_largest, gram_new = images(g_new)
        # the images first: under the identity row 0 is row -1
        np.multiply(D[-1], step, out=S[k, -1])
        np.subtract(gram_new, g_gram, out=Y[k, -1])
        np.subtract(point, x, out=S[k, 0])
        np.subtract(g_new, g, out=Y[k, 0])
        SY[:filled, k] = S[:filled, -1] @ Y[k, 0]
        YY[:filled, k] = YY[k, :filled] = Y[:filled, -1] @ Y[k, 0]
        SY[k, :filled] = Y[:filled, -1] @ S[k, 0]  # s'y > 0 on a strictly convex fun
        x, x_gram, f_old, f, g, g_gram = point, point_gram, f, f_new, g_new, gram_new
        if callback is not None:
            callback(x, f)


def _two_loop(newest, sg, yg, SY, YY):
    """The two-loop recursion (Liu & Nocedal 1989) on coefficients, as
    vector-free L-BFGS runs it (Chen, Wang, Zhou & Burges 2014).  The
    direction is d = gamma (-g - sum alpha_i y_i) + sum beta_i s_i, so each
    <s_i, d> and <y_i, d> the recursion reads is a sum of coefficients
    times the dot products sg (<s_i, g>), yg (<y_i, g>), SY and YY.
    newest lists the filled slots, newest first.  Returns each slot's alpha
    and beta, and gamma, s'y / y'y of the newest pair."""
    if not newest:
        return np.empty(0), np.empty(0), 1.0
    # Python floats in the recursion's order, newest pair first
    order = np.array(newest)
    sy = SY.take(order, 0).take(order, 1)
    sy_rows, yy_rows = sy.tolist(), YY.take(order, 0).take(order, 1).tolist()
    sg, yg = sg.take(order).tolist(), yg.take(order).tolist()
    rho = [1.0 / row[i] for i, row in enumerate(sy_rows)]
    alpha = []  # newest first: rho_i <s_i, d>, d = -g - sum of the newer alpha_j y_j
    for i, row in enumerate(sy_rows):
        alpha.append(rho[i] * (-sg[i] - sum(map(mul, alpha, row))))
    gamma = 1.0 / (rho[0] * yy_rows[0][0])
    beta = []  # oldest first: alpha_i - rho_i <y_i, d>, d = gamma (...) + older beta_j s_j
    for i, column in zip(range(len(order) - 1, -1, -1), sy.T[::-1, ::-1].tolist()):
        y_d = gamma * (-yg[i] - sum(map(mul, alpha, yy_rows[i]))) + sum(map(mul, beta, column))
        beta.append(alpha[i] - rho[i] * y_d)
    in_slots = np.empty((2, len(order)))
    in_slots[0, order], in_slots[1, order[::-1]] = alpha, beta
    return in_slots[0], in_slots[1], gamma


def _line_search(fun, x, x_gram, f0, g0, d, d_gram, step):
    """A step along d meeting the strong Wolfe conditions, searched in the
    manner of Moré & Thuente: extrapolate by cubic steps until a minimizer
    is bracketed, then zoom by safeguarded cubic steps or bisection.  A
    slope is a gradient's dot product with d_gram, the Gram image of d.
    fun sees each trial point and its Gram image x_gram + step d_gram, the
    point itself when x_gram is x.  Returns the step, the point, its Gram
    image, its value, its gradient and the number of calls.
    When 20 trials find no such step, or rounding leaves none to try, the
    point is x if no step in the bracket can lower the value of a convex
    fun by more than the rounding of f0, and None otherwise."""
    slope0 = g0 @ d_gram
    lo, hi = (0.0, f0, slope0), None  # (step, value, slope); lo is lowest
    step = np.float64(step)
    for trial in range(1, _MAX_TRIALS + 1):
        point = d * step
        point += x
        if x_gram is x:  # the identity's: each point is its own image
            point_gram = point
        else:
            point_gram = d_gram * step
            point_gram += x_gram
        f, g = fun(point, point_gram)
        now = (step, f, g @ d_gram)
        decreased = f <= f0 + _C1 * step * slope0
        if decreased and abs(now[2]) <= -_C2 * slope0:
            return step, point, point_gram, f, g, trial
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
    # -slope0 times its far end; within the rounding of f0, none is left.
    if hi is not None and -slope0 * max(lo[0], hi[0]) <= abs(np.spacing(f0)):
        return 0.0, x, x_gram, f0, g0, trial
    return None, None, None, None, None, trial


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


def _start_weights(start: LinearChainModel, dictionary: FeatureDictionary) -> np.ndarray:
    """start's weights laid out on dictionary by string and label, 0 where
    start lacks the string or a label: index -1 reads the zero padding."""
    old, M = start.dictionary, start.dictionary.n_labels
    n = len(old.uni_strings) * M
    uni = np.pad(start.weights[:n].reshape(-1, M), (0, 1))
    bi = np.pad(start.weights[n:].reshape(-1, M, M), (0, 1))
    labels = np.array([-1 if i is None else i for i in map(old.label_index, dictionary.labels)])
    return np.concatenate([
        uni[old.unigram_rows(dictionary.uni_strings)][:, labels].ravel(),
        bi[old.bigram_rows(dictionary.bi_strings)][:, labels[:, None], labels].ravel()])


def train(
    corpus: Corpus,
    templates: Sequence[FeatureTemplate],
    config: TrainingConfig | None = None,
    index: FeatureIndex | None = None,
    start: LinearChainModel | None = None,
) -> LinearChainModel:
    """Fit weights by L-BFGS on the exact batch objective.

    The labels are the last column; templates may only read the columns
    before it.  max_iterations=0 returns the starting model.  The
    objective at the start and after every accepted step, the number of
    objective calls and the optimizer's stop reason are kept on the model.
    An index of the corpus's observation columns under the templates
    spares their expansion (see fitting_index).

    Training starts at zero, or at a start model's weights mapped by
    string and label (0 where it lacks one).  The objective is strictly
    convex, so a start moves only where, within the tolerance, the
    optimizer stops; one trained on a superset of the corpus saves
    iterations.  Token coordinates need a start of the form A'Z, so they
    ignore it (see _TokenBasis).
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
    index = fitting_index(corpus, templates, index)
    dictionary = build_dictionary(corpus, templates, column, config.cutoff, index)
    enc = _encode(index, dictionary, corpus.columns[column])
    # Fewer tokens than unigram strings: L-BFGS runs on token coordinates
    # (see _TokenBasis), whose iterates map to those on the weights
    basis = _TokenBasis(enc) if corpus.n_tokens < len(dictionary.uni_strings) else None
    trace: list[float] = []

    def fun(x, gram=None):  # _objective reads gram in token coordinates only
        value, gradient = _objective(x, enc, config.sigma, None if basis is None else gram)
        return -value, -gradient

    x, iterations, evaluations, stop = minimize(
        fun,
        np.zeros(basis.shape[1]) if basis is not None
        else np.zeros(dictionary.n_weights) if start is None
        else _start_weights(start, dictionary),
        config.max_iterations,
        config.tolerance,
        callback=lambda x, f: trace.append(-f),
        images=None if basis is None else basis.images,
    )
    weights = x if basis is None else basis.matvec(x)
    if basis is not None:
        # the last value was read off the carried Gram image; sum it on the
        # weights, as objective_and_gradient does for the model
        trace[-1] = _likelihood(*_scores(weights, enc), weights, weights, enc, config.sigma)[0]
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


def tag(
    model: LinearChainModel, corpus: Corpus, index: FeatureIndex | None = None
) -> list[list[str]]:
    """Viterbi labels per sentence; unknown words fall back to whatever
    transition and boundary features say.  index is as for train."""
    best = _best_paths(*_scored(model, corpus, index))
    labels = np.array(model.labels, dtype=object)[best]
    return [labels[start:end].tolist() for start, end in corpus.bounds]


def marginals(
    model: LinearChainModel, corpus: Corpus, index: FeatureIndex | None = None
) -> list[np.ndarray]:
    """Per-sentence node-marginal matrices (positions x labels); index is
    as for train."""
    unary, P, enc = _scored(model, corpus, index)
    node = _expectations(unary, P, enc)[1][enc.position]
    return [node[start:end] for start, end in corpus.bounds]


def confidence(model: LinearChainModel, corpus: Corpus) -> list[list[float]]:
    """Node-marginal probability of the Viterbi label at each token."""
    unary, P, enc = _scored(model, corpus)
    node = _expectations(unary, P, enc)[1][enc.position]
    best = node[np.arange(len(node)), _best_paths(unary, P, enc)]
    return [best[start:end].tolist() for start, end in corpus.bounds]
