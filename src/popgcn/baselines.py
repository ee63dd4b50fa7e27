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

import numpy as np

from .data import Dataset
from .graph import (AffinityMatrix, PropagationMatrix, build_affinity_matrices,
                    normalize_affinity)
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
    """Mean of the element affinity matrices, normalized once."""
    mean_weights = np.mean([a.weights for a in affinities], axis=0)
    return normalize_affinity(
        AffinityMatrix(weights=mean_weights, element_name="averaged"))


def run_baseline_cv(dataset: Dataset, config: TrainConfig, kind: BaselineKind,
                    averaged: PropagationMatrix | None = None) -> dict:
    """Cross-validate one baseline on the same folds and seeds as the model.

    ``avg_gcn`` runs on ``averaged``, the ``averaged_propagation`` of the
    element graphs of ``config.edge_rules`` (empty: the per-element
    defaults); it is built here when omitted. The result is the ``run_cv``
    report of the baseline's config and operator, with ``kind`` added.
    """
    if kind is BaselineKind.AVERAGED_GRAPH_GCN:
        prop = averaged
        if prop is None:
            prop = averaged_propagation(
                build_affinity_matrices(dataset, config.edge_rules))
    else:
        prop = identity_propagation(dataset.n_nodes)
    if kind is BaselineKind.LINEAR:
        config = replace(config, hidden_dims=(), dropout_rate=0.0)
    report = _cross_validate(dataset, config, [prop])
    return {"kind": kind.value, **report.to_dict()}
