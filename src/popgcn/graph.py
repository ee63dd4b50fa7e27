"""Population-graph construction: edge rules, similarity weighting, normalization.

One graph per demographic element: a binary edge matrix derived from that
element's column, weighted entrywise by feature similarity, then symmetrically
normalized (with self-loops added once) into the propagation operator consumed
by the graph-convolution layers.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, _check_fields

THRESHOLD = "threshold"
EQUALITY = "equality"

AGE_BETA = 2.0
CONTINUOUS_BETA_FACTOR = 0.5
MAX_CATEGORICAL_LEVELS = 10
_BLAS_PIN = threading.Lock()  # held while OpenBLAS is pinned to one thread


class GraphError(DataError):
    """Invalid graph-construction input; ``field`` names the offending
    ``EdgeRule`` or ``PropagationMatrix`` field, when there is one."""


@dataclass(frozen=True)
class EdgeRule:
    """How the column of the demographic element ``element`` turns into edges.

    ``threshold`` connects subjects whose values differ by less than ``beta``;
    ``equality`` connects subjects whose values match exactly and takes no
    ``beta``. A given ``beta`` is stored as a float and must be finite.
    """

    element: str
    kind: str = THRESHOLD
    beta: float | None = None

    def __post_init__(self):
        _check_fields(self, error=GraphError)
        if self.kind not in (THRESHOLD, EQUALITY):
            raise GraphError(f"unknown edge rule kind {self.kind!r}", "kind")
        if self.kind == THRESHOLD and (self.beta is None or self.beta <= 0):
            raise GraphError(
                f"threshold rules need beta > 0, got {self.beta}", "beta")
        if self.kind == EQUALITY and self.beta is not None:
            raise GraphError(
                f"equality rules take no beta, got {self.beta}", "beta")


# Edge of the square tiles that the symmetry scan compares with their
# mirrors: a pair of 256 x 256 float64 tiles (1 MB) stays in cache while the
# mirror is read column-wise; the full-matrix ``array.T`` read misses on
# every row. A row pass (the similarity walk, the normalization's scale
# products, the checks' masks) takes blocks of at most one tile's items.
_SYMMETRY_TILE = 256


def _row_blocks(shape):
    """Slices of rows covering a 2-D array of ``shape``, each block at most
    one tile's items, or one row: a check's boolean mask or a scaling's
    operand is built one block at a time, never N x N at once."""
    step = max(1, _SYMMETRY_TILE ** 2 // max(shape[1], 1))
    return (slice(i, i + step) for i in range(0, shape[0], step))


def _any_rows(array: np.ndarray, test) -> bool:
    """``np.any(test(array))``, one block of rows at a time."""
    array = np.atleast_2d(array)
    return any(np.any(test(array[rows])) for rows in _row_blocks(array.shape))


def _checked_out(out, shape) -> np.ndarray | None:
    """A stage's ``out=`` argument: None, or a float64 array of ``shape``."""
    if out is not None and not (isinstance(out, np.ndarray)
                                and out.dtype == np.float64
                                and out.shape == shape):
        raise GraphError(f"out must be a float64 array of shape {shape}")
    return out


def _exactly_symmetric(array: np.ndarray) -> bool:
    """``np.array_equal(array, array.T)`` for a square 2-D array, computed
    one tile on or above the diagonal at a time against its mirror tile."""
    n, tile = array.shape[0], _SYMMETRY_TILE
    return all(np.array_equal(array[i:i + tile, j:j + tile],
                              array[j:j + tile, i:i + tile].T)
               for i in range(0, n, tile) for j in range(i, n, tile))


def _proven(cls, **fields):
    """A ``cls`` holding ``fields`` without its checks: for arrays whose
    construction proves every invariant the checks would scan for."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


def _symmetric_float64(array, what: str) -> np.ndarray:
    """``array`` as float64, checked square, finite and exactly symmetric."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise GraphError(f"{what} must be square, got {array.shape}")
    if _any_rows(array, lambda block: ~np.isfinite(block)):
        raise GraphError(f"{what} must be finite")
    if not _exactly_symmetric(array):
        raise GraphError(f"{what} must be exactly symmetric")
    return array


@dataclass(frozen=True)
class AffinityMatrix:
    """Similarity-weighted edge matrix of one element's graph."""

    weights: np.ndarray
    element_name: str = ""

    def __post_init__(self):
        weights = _symmetric_float64(self.weights, "affinity weights")
        if _any_rows(weights, lambda block: block < 0):
            raise GraphError("affinity weights must be nonnegative")
        if np.any(np.diagonal(weights) != 0):
            raise GraphError("affinity diagonal must be zero (self-loops are "
                             "added during normalization)")
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class PropagationMatrix:
    """Symmetrically normalized, self-loop-augmented propagation operator.

    ``matrix=None`` is the "no graph" operator on ``n_nodes`` nodes: it holds
    no N x N array, and ``apply`` returns its operand unchanged. Otherwise
    ``n_nodes`` is read off the matrix.
    """

    matrix: np.ndarray | None
    n_nodes: int | None = None

    def __post_init__(self):
        _check_fields(self, "n_nodes", error=GraphError)
        if self.matrix is None:
            if self.n_nodes is None or self.n_nodes < 1:
                raise GraphError("the no-graph operator needs a positive "
                                 f"integer n_nodes, got {self.n_nodes!r}")
            return
        matrix = _symmetric_float64(self.matrix, "propagation matrix")
        if self.n_nodes is not None and self.n_nodes != matrix.shape[0]:
            raise GraphError(f"n_nodes {self.n_nodes} does not match a "
                             f"{matrix.shape} propagation matrix")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "n_nodes", matrix.shape[0])

    def apply(self, h: np.ndarray) -> np.ndarray:
        """``P @ h``; the "no graph" operator returns ``h`` itself."""
        return h if self.matrix is None else self.matrix @ h


def build_edge_matrix(delta_column, rule: EdgeRule, *, out=None) -> np.ndarray:
    """Binary symmetric edge matrix from one demographic column.

    Threshold rules connect i != j when |delta_i - delta_j| < beta, equality
    rules when the values match exactly. The diagonal stays zero. The matrix
    is written into ``out`` (float64, N x N) when given, else a new array.
    """
    column = np.asarray(delta_column, dtype=np.float64).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        raise GraphError(f"non-finite demographic value at row {bad[0]}")
    n = column.size
    edges = np.empty((n, n)) if out is None else _checked_out(out, (n, n))
    if rule.kind == THRESHOLD:
        # one N x N buffer: the differences, their magnitudes, then 0.0/1.0;
        # a difference that overflows is infinite, which rightly makes no edge
        with np.errstate(over="ignore"):
            np.subtract(column[:, None], column[None, :], out=edges)
        np.less(np.abs(edges, out=edges), rule.beta, out=edges)
    else:
        np.equal(column[:, None], column[None, :], out=edges)
    np.fill_diagonal(edges, 0.0)
    return edges


def similarity_matrix(features) -> np.ndarray:
    """Rectified Pearson correlation between subject feature rows.

    Entries are max(0, corr(X_i, X_j)): anti-correlated subjects disconnect
    rather than injecting negative weight into the degree normalization. The
    diagonal is exactly 1. A row whose centred sum of squares overflows, or
    underflows to zero, is refused: its correlations would read 0 or 1
    whatever the data. The product's diagonal, scaled, is checked the same
    way, as its sum may underflow where the first did not; so every
    division is by a finite positive number, and every entry is finite and
    in [0, 1].

    The bits are those of ``np.clip((c + c.T) / 2, 0, 1)`` with ``c =
    np.corrcoef(features)`` and a unit diagonal: the same product of the
    centred rows, then the same elementwise steps in the same order, in
    place, one block of whole rows per call, spread over threads by
    ``_in_threads``. NumPy computes the product as one triangle and copies
    it, so it is exactly symmetric, and a row holds its mirror's entries.

    Beside the N x N result, the centred rows take an N x d array, freed
    once the product is taken; each call holds one block of the mirror's
    entries, at most one tile's items. The product runs on one OpenBLAS
    thread, so the bits do not depend on the BLAS thread setting.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] < 2:
        raise GraphError("similarity needs at least 2 feature dimensions per row")
    with np.errstate(over="ignore", invalid="ignore"):
        spread = feats.max(axis=1) - feats.min(axis=1)
        centred = feats - feats.mean(axis=1, keepdims=True)
        squares = np.square(centred).sum(axis=1)
    flat = np.flatnonzero(spread == 0)
    if flat.size:
        raise GraphError(
            f"feature row {flat[0]} is constant; correlation undefined")
    _check_spread(squares)
    sim = _one_blas_thread(np.matmul, centred, centred.T)  # corrcoef's
    del centred
    scale = 1.0 / (feats.shape[1] - 1)
    variance = np.diagonal(sim) * scale
    _check_spread(variance)  # may underflow where ``squares`` did not
    std = np.sqrt(variance)
    _in_threads([functools.partial(_correlate_rows, sim, std, scale, rows)
                 for rows in _row_blocks(sim.shape)])
    np.fill_diagonal(sim, 1.0)
    return sim


def _check_spread(squares) -> None:
    """Refuse the first feature row whose centred sum of squares, or its
    scaled value, is not finite and positive."""
    bad = np.flatnonzero(~(np.isfinite(squares) & (squares > 0)))
    if bad.size:
        raise GraphError(
            f"feature row {bad[0]} has a centred sum of squares that is not "
            f"finite and positive; correlation undefined")


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the loaded OpenBLAS, or
    None when none is loaded or it cannot be asked; found on first use."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            if get is not None:  # ctypes's default int types fit both
                return get, getattr(lib, name.format("set"))
    return None


def _one_blas_thread(fn, *args):
    """``fn(*args)`` with OpenBLAS, when found, on one thread, then its count
    restored: a product's rounding depends on how many threads share it.
    Calls take turns, or one could restore the one thread another set."""
    get, put = _openblas() or (lambda: None, lambda threads: None)
    with _BLAS_PIN:
        threads = get()
        put(1)
        try:
            return fn(*args)
        finally:
            put(threads)


def _correlate_rows(sim, std, scale, rows) -> None:
    """Turn rows ``rows`` of ``sim``, the exactly symmetric product of the
    centred features, into clip((corr + corr.T) / 2, 0, 1) in place: entry
    (i, j) of corr.T is np.corrcoef's steps on the product's (i, j) entry
    with the two divisions swapped. Each call touches only its own rows,
    so calls may run in parallel."""
    block = sim[rows]
    block *= scale
    mirror = block / std
    mirror /= std[rows, None]
    np.clip(mirror, -1.0, 1.0, out=mirror)
    block /= std[rows, None]
    block /= std
    np.clip(block, -1.0, 1.0, out=block)
    block += mirror
    block /= 2.0
    np.clip(block, 0.0, 1.0, out=block)


def build_affinity(sim, edges, element_name: str = "", *, out=None,
                   _built=False) -> AffinityMatrix:
    """Entrywise product of the similarity and binary edge matrices, written
    into ``out`` when given (it may be ``sim`` or ``edges``).

    ``_built`` is set only by ``build_affinity_matrices``, whose arrays
    come from ``similarity_matrix`` and ``build_edge_matrix``: edges of
    0.0/1.0, exactly symmetric and zero on the diagonal, and a finite,
    exactly symmetric similarity in [0, 1]. Their product is then finite,
    nonnegative, exactly symmetric and zero on the diagonal, so it is
    returned without a scan.
    """
    sim = np.asarray(sim, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    if sim.shape != edges.shape:
        raise GraphError(
            f"shape mismatch: similarity {sim.shape} vs edges {edges.shape}")
    # the product hides non-binary edges; AffinityMatrix checks the rest
    if not _built and _any_rows(edges,
                                lambda block: (block != 0.0) & (block != 1.0)):
        raise GraphError("edge matrix must be binary")
    weights = np.multiply(sim, edges, out=_checked_out(out, sim.shape))
    if _built:
        return _proven(AffinityMatrix, weights=weights,
                       element_name=element_name)
    return AffinityMatrix(weights=weights, element_name=element_name)


def normalize_affinity(affinity: AffinityMatrix, *,
                       out=None) -> PropagationMatrix:
    """Self-loop-augmented symmetric normalization.

    With W' = W + I and degrees D_ii = sum_j W'_ij, returns
    D^{-1/2} W' D^{-1/2}. The unit self-loop keeps every degree >= 1, so
    isolated subjects propagate only to themselves instead of dividing by
    zero, and the result's spectral radius stays <= 1. The operator is
    written into ``out`` when given; it may be ``affinity.weights``.

    Each scale s_i = D_ii^{-1/2} so lies in [0, 1], and entry (i, j) is
    scaled by ``s_i * s_j``, bitwise equal to ``s_j * s_i``: the affinity's
    checks prove the result finite and exactly symmetric without a scan.
    """
    weights = affinity.weights
    augmented = (np.empty(weights.shape) if out is None
                 else _checked_out(out, weights.shape))
    if augmented is not weights:
        np.copyto(augmented, weights)
    np.fill_diagonal(augmented, 1.0)  # W + I exactly: W's diagonal is zero
    inv_sqrt_degree = 1.0 / np.sqrt(augmented.sum(axis=1))
    # a block of rows at a time: the scales' product is never N x N
    for rows in _row_blocks(augmented.shape):
        augmented[rows] *= inv_sqrt_degree[rows, None] * inv_sqrt_degree
    return _proven(PropagationMatrix, matrix=augmented,
                   n_nodes=affinity.n_nodes)


def default_edge_rules(dataset: Dataset) -> list[EdgeRule]:
    """Per-element default rules, overridable by name in run configs.

    Columns named "age" get a 2-unit threshold; integer-coded columns with few
    distinct levels (and constant columns) are treated as categorical
    (equality); remaining continuous columns get a threshold of half their
    standard deviation.
    """
    rules = []
    for name, column in zip(dataset.element_names, dataset.demographics.T):
        distinct = np.unique(column).size
        if name.lower() == "age":
            rules.append(EdgeRule(name, THRESHOLD, AGE_BETA))
        elif distinct == 1 or (np.all(column == np.round(column))
                               and distinct <= MAX_CATEGORICAL_LEVELS):
            rules.append(EdgeRule(name, EQUALITY))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                std = float(column.std())
            if not np.isfinite(std):
                raise GraphError(f"element {name!r}: the standard deviation "
                                 "of its column is not finite, so it has no "
                                 "default threshold")
            rules.append(EdgeRule(name, THRESHOLD,
                                  CONTINUOUS_BETA_FACTOR * std))
    return rules


def rules_or_defaults(dataset: Dataset, rules) -> list[EdgeRule]:
    """``rules`` as a list, or the per-element defaults when it is empty."""
    return list(rules) if rules else default_edge_rules(dataset)


def _usable_cpus() -> int:
    """CPUs this process may run on. Where ``os.sched_getaffinity`` is
    missing (it is Linux-only), the machine's CPU count stands in."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_threads(n_calls: int) -> int:
    """Threads for ``_in_threads`` to make ``n_calls`` graph-build calls in
    (element stages, or row blocks of the similarity); 1 means the calling
    thread alone.

    Every usable CPU takes one call at a time: the calls are elementwise
    NumPy passes, which release the GIL, or the one-BLAS-thread product.
    """
    return min(n_calls, _usable_cpus())


def _in_threads(calls) -> list:
    """``[call() for call in calls]``, made by the calling thread and up to
    ``_build_threads(len(calls)) - 1`` helper threads; with none this is
    the serial loop.

    The calling thread makes the first call, the helpers take the others in
    order, and the calling thread takes calls too once its own is done. A
    taken call always runs; none is taken after one fails or the calling
    thread is interrupted. The first failing call in order raises, as in a
    serial run. Every helper is joined before this returns or raises.
    """
    results, errors = [None] * len(calls), {}
    lock, pending, stopped = threading.Lock(), iter(range(len(calls))), False

    def take():
        with lock:
            return None if errors or stopped else next(pending, None)

    def work(i):
        while i is not None:
            try:
                results[i] = calls[i]()
            except BaseException as error:
                with lock:
                    errors[i] = error
            i = take()

    helpers = [threading.Thread(target=lambda: work(take()))
               for _ in range(_build_threads(len(calls)) - 1)]
    first = take()  # before any helper starts: the first call is this thread's
    try:
        for helper in helpers:
            helper.start()
        work(first)
        for helper in helpers:
            helper.join()
    finally:  # an interrupt, also during the join above, joins them here
        with lock:
            stopped = True
        for helper in helpers:
            if helper.is_alive():
                helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def build_affinity_matrices(dataset: Dataset, rules=None) -> list[AffinityMatrix]:
    """One similarity-weighted graph per rule (none or empty: the defaults).

    The rules and their columns are resolved first, in the calling thread:
    the default rules' error, then a rule naming no element of ``dataset``
    (a ``DataError``), comes before any buffer or thread. The similarity
    matrix is then computed once and shared across all graphs. Two rounds
    of ``_in_threads`` build them: the similarity beside the edges of every
    rule, then every affinity. Each graph's edges, then its affinity,
    overwrite one N x N array. The bits and the error are a serial
    build's: the similarity's, then the first failing rule's.
    """
    rules = rules_or_defaults(dataset, rules)
    columns = [dataset.demographics[:, dataset.element_index(rule.element)]
               for rule in rules]
    n = dataset.n_nodes
    # Every N x N buffer comes from this thread. A thread that allocates its
    # own keeps the freed memory in its malloc arena, which raised the peak
    # RSS above that of a serial build.
    buffers = [np.empty((n, n)) for _ in rules]
    sim, *edges = _in_threads(
        [functools.partial(similarity_matrix, dataset.features)]
        + [functools.partial(build_edge_matrix, column, rule, out=buffer)
           for column, rule, buffer in zip(columns, rules, buffers)])
    return _in_threads([functools.partial(build_affinity, sim, matrix,
                                          rule.element, out=matrix,
                                          _built=True)
                        for rule, matrix in zip(rules, edges)])


def build_propagation_matrices(dataset: Dataset, rules=None) -> list[PropagationMatrix]:
    """Normalized propagation operator per element graph, each written over
    its affinity's array: no affinity is kept."""
    return _in_threads([functools.partial(normalize_affinity, a, out=a.weights)
                        for a in build_affinity_matrices(dataset, rules)])


def graph_statistics(affinity: AffinityMatrix) -> dict:
    """Edge count, density, and degree histogram of one graph."""
    n = affinity.n_nodes
    # the weights are nonnegative, so a nonzero weight is an edge
    degrees = np.count_nonzero(affinity.weights, axis=1)
    edge_count = int(degrees.sum()) // 2
    pairs = n * (n - 1) // 2
    return {
        "element": affinity.element_name,
        "n_nodes": n,
        "edge_count": edge_count,
        "density": edge_count / pairs if pairs else 0.0,
        "degree_histogram": np.bincount(degrees, minlength=1).tolist(),
    }
