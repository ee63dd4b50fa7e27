"""Reference methods: linear classifier, dense network, averaged-graph GCN.

A baseline is a training config plus one propagation operator, run through
the model's own cross-validation loop on the same folds and per-fold seeds
and reported in the model's report shape, so a comparison against the
multi-branch model differs only in model structure. ``linear`` is the
single-branch model with no hidden layer and no dropout on the "no graph"
operator, which applies as the identity without multiplying; ``dense_nn``
keeps the config's layers on that operator; ``avg_gcn`` keeps them on the
normalized mean of the element affinity matrices.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum

from .data import Dataset
from .graph import (AffinityMatrix, GraphError, PropagationMatrix,
                    build_affinity_matrices, normalize_affinity)
from .train import TrainConfig, _cross_validate


class BaselineKind(Enum):
    LINEAR = "linear"
    DENSE_NN = "dense_nn"
    AVERAGED_GRAPH_GCN = "avg_gcn"


def identity_propagation(n_nodes: int) -> PropagationMatrix:
    """Graph-free propagation: every node sees only itself. The operator
    holds no N x N identity; applying it returns its operand."""
    return PropagationMatrix(matrix=None, n_nodes=n_nodes)


def averaged_propagation(affinities) -> PropagationMatrix:
    """Mean of the element affinity matrices, normalized once. The sum
    builds in one N x N buffer, in the order and with the bits of
    ``np.mean(..., axis=0)``, without its (M, N, N) stack."""
    if not affinities:
        raise GraphError("need at least one affinity matrix to average")
    total = affinities[0].weights.copy()
    for affinity in affinities[1:]:
        total += affinity.weights
    total /= len(affinities)
    return normalize_affinity(
        AffinityMatrix(weights=total, element_name="averaged"))


def _baseline_run(dataset: Dataset, config: TrainConfig, kind: BaselineKind,
                  averaged: PropagationMatrix | None = None):
    """The (config, props) run that cross-validates ``kind``: see
    ``run_baseline_cv``."""
    if kind is BaselineKind.AVERAGED_GRAPH_GCN:
        prop = averaged
        if prop is None:
            prop = averaged_propagation(
                build_affinity_matrices(dataset, config.edge_rules))
    else:
        prop = identity_propagation(dataset.n_nodes)
    if kind is BaselineKind.LINEAR:
        config = replace(config, hidden_dims=(), dropout_rate=0.0)
    return config, [prop]


def run_baseline_cv(dataset: Dataset, config: TrainConfig, kind: BaselineKind,
                    averaged: PropagationMatrix | None = None) -> dict:
    """Cross-validate one baseline on the same folds and seeds as the model.

    ``avg_gcn`` runs on ``averaged``, the ``averaged_propagation`` of the
    element graphs of ``config.edge_rules`` (empty: the per-element
    defaults); it is built here when omitted. The result is the ``run_cv``
    report of the baseline's config and operator, with ``kind`` added.
    """
    report, = _cross_validate(
        dataset, [_baseline_run(dataset, config, kind, averaged)])
    return {"kind": kind.value, **report.to_dict()}
