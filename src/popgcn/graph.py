"""Population-graph construction: edge rules, similarity weighting, normalization.

One graph per demographic element: a binary edge matrix derived from that
element's column, weighted entrywise by feature similarity, then symmetrically
normalized (with self-loops added once) into the propagation operator consumed
by the graph-convolution layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, _check_fields

THRESHOLD = "threshold"
EQUALITY = "equality"

AGE_BETA = 2.0
CONTINUOUS_BETA_FACTOR = 0.5
MAX_CATEGORICAL_LEVELS = 10


class GraphError(DataError):
    """Invalid graph-construction input; ``field`` names the offending
    ``EdgeRule`` or ``PropagationMatrix`` field, when there is one."""


@dataclass(frozen=True)
class EdgeRule:
    """How the column of the demographic element ``element`` turns into edges.

    ``threshold`` connects subjects whose values differ by less than ``beta``;
    ``equality`` connects subjects whose values match exactly and ignores
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


# Edge of the square tiles the symmetry scan compares with their mirrors. A
# pair of 256 x 256 float64 tiles (1 MB) stays in cache while the mirror is
# read column-wise; the full-matrix ``array.T`` read misses on every row.
_SYMMETRY_TILE = 256


def _exactly_symmetric(array: np.ndarray) -> bool:
    """``np.array_equal(array, array.T)`` for a square 2-D array, computed
    one tile on or above the diagonal at a time against its mirror tile."""
    n = array.shape[0]
    for i in range(0, n, _SYMMETRY_TILE):
        rows = slice(i, i + _SYMMETRY_TILE)
        for j in range(i, n, _SYMMETRY_TILE):
            cols = slice(j, j + _SYMMETRY_TILE)
            if not np.array_equal(array[rows, cols], array[cols, rows].T):
                return False
    return True


def _symmetric_float64(array, what: str) -> np.ndarray:
    """``array`` as float64, checked square, finite and exactly symmetric."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise GraphError(f"{what} must be square, got {array.shape}")
    if not np.all(np.isfinite(array)):
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
        if np.any(weights < 0):
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


def build_edge_matrix(delta_column, rule: EdgeRule) -> np.ndarray:
    """Binary symmetric edge matrix from one demographic column.

    Threshold rules connect i != j when |delta_i - delta_j| < beta, equality
    rules when the values match exactly. The diagonal stays zero.
    """
    column = np.asarray(delta_column, dtype=np.float64).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        raise GraphError(f"non-finite demographic value at row {bad[0]}")
    if rule.kind == THRESHOLD:
        # one N x N buffer: the differences, their magnitudes, then 0.0/1.0
        edges = column[:, None] - column[None, :]
        np.less(np.abs(edges, out=edges), rule.beta, out=edges)
    else:
        edges = (column[:, None] == column[None, :]).astype(np.float64)
    np.fill_diagonal(edges, 0.0)
    return edges


def similarity_matrix(features) -> np.ndarray:
    """Rectified Pearson correlation between subject feature rows.

    Entries are max(0, corr(X_i, X_j)): anti-correlated subjects disconnect
    rather than injecting negative weight into the degree normalization. The
    diagonal is exactly 1.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] < 2:
        raise GraphError("similarity needs at least 2 feature dimensions per row")
    spread = feats.max(axis=1) - feats.min(axis=1)
    flat = np.flatnonzero(spread == 0)
    if flat.size:
        raise GraphError(
            f"feature row {flat[0]} is constant; correlation undefined")
    sim = np.corrcoef(feats)
    sim = np.clip((sim + sim.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(sim, 1.0)
    return sim


def build_affinity(sim, edges, element_name: str = "") -> AffinityMatrix:
    """Entrywise product of the similarity and binary edge matrices."""
    sim = np.asarray(sim, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    if sim.shape != edges.shape:
        raise GraphError(
            f"shape mismatch: similarity {sim.shape} vs edges {edges.shape}")
    # the product hides non-binary edges; AffinityMatrix checks the rest
    if np.any((edges != 0.0) & (edges != 1.0)):
        raise GraphError("edge matrix must be binary")
    return AffinityMatrix(weights=sim * edges, element_name=element_name)


def normalize_affinity(affinity: AffinityMatrix) -> PropagationMatrix:
    """Self-loop-augmented symmetric normalization.

    With W' = W + I and degrees D_ii = sum_j W'_ij, returns
    D^{-1/2} W' D^{-1/2}. The unit self-loop keeps every degree >= 1, so
    isolated subjects propagate only to themselves instead of dividing by
    zero, and the result's spectral radius stays <= 1.
    """
    augmented = affinity.weights + np.eye(affinity.n_nodes)
    inv_sqrt_degree = 1.0 / np.sqrt(augmented.sum(axis=1))
    # outer-product scaling keeps the result bitwise symmetric
    return PropagationMatrix(
        matrix=augmented * np.outer(inv_sqrt_degree, inv_sqrt_degree))


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
            rules.append(EdgeRule(name, THRESHOLD,
                                  CONTINUOUS_BETA_FACTOR * float(column.std())))
    return rules


def rules_or_defaults(dataset: Dataset, rules) -> list[EdgeRule]:
    """``rules`` as a list, or the per-element defaults when it is empty."""
    return list(rules) if rules else default_edge_rules(dataset)


def build_affinity_matrices(dataset: Dataset, rules=None) -> list[AffinityMatrix]:
    """One similarity-weighted graph per rule (none or empty: the defaults).

    The similarity matrix is computed once and shared across all graphs. A
    rule naming no element of ``dataset`` is a ``DataError``.
    """
    sim = similarity_matrix(dataset.features)
    matrices = []
    for rule in rules_or_defaults(dataset, rules):
        column = dataset.demographics[:, dataset.element_index(rule.element)]
        matrices.append(build_affinity(
            sim, build_edge_matrix(column, rule), rule.element))
    return matrices


def build_propagation_matrices(dataset: Dataset, rules=None) -> list[PropagationMatrix]:
    """Normalized propagation operator per element graph."""
    return [normalize_affinity(a) for a in build_affinity_matrices(dataset, rules)]


def graph_statistics(affinity: AffinityMatrix) -> dict:
    """Edge count, density, and degree histogram of one graph."""
    adjacency = affinity.weights > 0
    n = affinity.n_nodes
    degrees = adjacency.sum(axis=1)
    edge_count = int(degrees.sum()) // 2
    pairs = n * (n - 1) // 2
    return {
        "element": affinity.element_name,
        "n_nodes": n,
        "edge_count": edge_count,
        "density": edge_count / pairs if pairs else 0.0,
        "degree_histogram": np.bincount(degrees, minlength=1).tolist(),
    }
