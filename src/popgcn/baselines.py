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

from .data import DataError, Dataset
from .graph import (AffinityMatrix, GraphError, PropagationMatrix,
                    build_affinity_matrices, normalize_affinity,
                    rules_or_defaults)
from .train import TrainConfig, cross_validate


class BaselineKind(Enum):
    LINEAR = "linear"
    DENSE_NN = "dense_nn"
    AVERAGED_GRAPH_GCN = "avg_gcn"


def identity_propagation(n_nodes: int) -> PropagationMatrix:
    """Graph-free propagation: every node sees only itself. The operator
    holds no N x N identity; applying it returns its operand."""
    return PropagationMatrix(matrix=None, n_nodes=n_nodes)


def averaged_propagation(affinities) -> PropagationMatrix:
    """Mean of the element affinity matrices, normalized once in place. The
    sum builds in one N x N buffer, in the order and with the bits of
    ``np.mean(..., axis=0)``, without its (M, N, N) stack."""
    if not affinities:
        raise GraphError("need at least one affinity matrix to average")
    total = affinities[0].weights.copy()
    for affinity in affinities[1:]:
        total += affinity.weights
    total /= len(affinities)
    return normalize_affinity(
        AffinityMatrix(weights=total, element_name="averaged"), out=total)


def baseline_run(dataset: Dataset, config: TrainConfig, kind: BaselineKind,
                 averaged: PropagationMatrix | None = None):
    """The ``cross_validate`` run of ``kind``. ``avg_gcn`` runs on
    ``averaged``, the ``averaged_propagation`` of the element graphs of
    ``config.edge_rules``, built here when omitted."""
    if kind is BaselineKind.AVERAGED_GRAPH_GCN:
        prop = averaged or averaged_propagation(
            build_affinity_matrices(dataset, config.edge_rules))
    else:
        prop = identity_propagation(dataset.n_nodes)
    if kind is BaselineKind.LINEAR:
        config = replace(config, hidden_dims=(), dropout_rate=0.0)
    return config, [prop]


def run_baseline_cv(dataset: Dataset, config: TrainConfig,
                    kind: BaselineKind) -> dict:
    """The report of ``baseline_run``, on the model's folds and seeds, with
    ``kind`` added."""
    report, = cross_validate(dataset, [baseline_run(dataset, config, kind)])
    return {"kind": kind.value, **report.to_dict()}


def subset_runs(dataset: Dataset, config: TrainConfig, props, subsets) -> dict:
    """The ``cross_validate`` run of each graph subset by its key, the
    subset's element names in dataset order joined with "+": ``config`` on
    the subset's rules of ``rules_or_defaults`` and their slice of
    ``props``, the operators of those rules in order. The subset of every
    rule in rule order maps to None, the run ``(config, props)``. A refusal
    is a ``DataError`` on ``subsets``."""
    rules = rules_or_defaults(dataset, config.edge_rules)
    position = {rule.element: i for i, rule in enumerate(rules)}
    runs = {}
    for subset in subsets:
        if not subset:
            raise DataError("empty graph subset", "subsets")
        for i, name in enumerate(subset):
            if name not in position:
                raise DataError(f"unknown element {name!r}", "subsets")
            if name in subset[:i]:
                raise DataError(f"repeated element {name!r}", "subsets")
        picks = [position[name] for name in dataset.element_names
                 if name in subset]
        key = "+".join(rules[i].element for i in picks)
        if key in runs:
            raise DataError(f"repeated subset {key!r}", "subsets")
        runs[key] = None if picks == list(range(len(rules))) else (
            replace(config, edge_rules=tuple(rules[i] for i in picks)),
            [props[i] for i in picks])
    return runs
