"""Two-phase training schedule, early stopping, evaluation, cross-validation."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset, _check_fields, stratified_kfold
from .graph import EdgeRule, build_propagation_matrices, rules_or_defaults
from .model import (ModelParams, class_weights, compute_gradients, init_params,
                    model_forward, weighted_cross_entropy)

__all__ = [
    "TrainConfig", "TrainedModel", "CVReport", "TrainingError", "Adam",
    "accuracy", "confusion_matrix", "class_weights", "train_model", "evaluate",
    "run_cv", "cv_folds_and_seeds", "split_hash", "config_to_dict",
]


class TrainingError(RuntimeError):
    """Training diverged or was configured inconsistently."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters, schedule, and graph-construction rules.

    ``edge_rules`` empty means per-element defaults are derived from the
    dataset at run time.
    """

    hidden_dims: tuple[int, ...] = (16,)
    dropout_rate: float = 0.3
    l2_coeff: float = 5e-4
    learning_rate: float = 0.01
    phase1_epochs: int = 150
    max_total_epochs: int = 500
    patience: int = 30
    val_fraction: float = 0.1
    seed: int = 0
    edge_rules: tuple[EdgeRule, ...] = ()
    folds: int = 10

    def __post_init__(self):
        _check_fields(self)
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.l2_coeff < 0:
            raise ValueError("l2_coeff must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.phase1_epochs < self.max_total_epochs:
            raise ValueError(
                "need 0 <= phase1_epochs < max_total_epochs, got "
                f"{self.phase1_epochs} and {self.max_total_epochs}")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


class Adam:
    """Adaptive-moment optimizer with per-tensor state and bias correction,
    on the moment decays and epsilon of Kingma and Ba (2015)."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self._state: dict = {}

    def update(self, key, param: np.ndarray, grad: np.ndarray) -> None:
        """Apply one step to ``param`` in place.

        Each key keeps its own step counter, so a tensor first updated at
        epoch t gets fresh bias correction from its own t=1, and its own
        moment arrays, updated in place. The step is built in place too, in
        the operation order of ``lr * m_hat / (sqrt(v_hat) + eps)``.
        """
        if key not in self._state:
            self._state[key] = [np.zeros_like(param), np.zeros_like(param), 0]
        state = self._state[key]
        state[2] += 1
        m, v, t = state
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        denom = np.sqrt(v / (1.0 - self.beta2 ** t))
        denom += self.eps
        step = m / (1.0 - self.beta1 ** t)
        step *= self.learning_rate
        step /= denom
        param -= step


@dataclass(frozen=True)
class TrainedModel:
    """Best-validation parameters and their no-dropout (N, K) probabilities
    on every node, from epoch ``best_epoch`` of the ``stopped_epoch`` run."""

    params: ModelParams
    probabilities: np.ndarray
    stopped_epoch: int
    best_epoch: int


def accuracy(probabilities, labels, idx) -> float:
    """Fraction of argmax predictions matching labels on ``idx``."""
    idx = np.asarray(idx, dtype=np.int64)
    predictions = np.asarray(probabilities)[idx].argmax(axis=1)
    return float(np.mean(predictions == np.asarray(labels)[idx]))


def confusion_matrix(labels, predictions, idx, n_classes: int) -> np.ndarray:
    """K x K counts over ``idx``; rows are true classes, columns predictions."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (np.asarray(labels, dtype=np.int64)[idx],
                    np.asarray(predictions, dtype=np.int64)[idx]), 1)
    return out


def _stratified_holdout(labels, train_idx, fraction: float, rng):
    """Split train_idx into (optimized, validation) preserving class shares.

    Every class keeps at least one optimized node. If rounding empties the
    validation set, one node is taken from the largest class so early
    stopping still has a signal.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    val_parts, opt_parts = [], []
    for cls in np.unique(labels[train_idx]):
        members = rng.permutation(train_idx[labels[train_idx] == cls])
        n_val = min(members.size - 1, int(round(fraction * members.size)))
        if n_val > 0:
            val_parts.append(members[:n_val])
        opt_parts.append(members[n_val:])
    if not val_parts:
        biggest = int(np.argmax([part.size for part in opt_parts]))
        if opt_parts[biggest].size < 2:
            raise TrainingError(
                "not enough training nodes to hold out a validation set")
        val_parts.append(opt_parts[biggest][:1])
        opt_parts[biggest] = opt_parts[biggest][1:]
    return (np.sort(np.concatenate(opt_parts)),
            np.sort(np.concatenate(val_parts)))


def train_model(dataset: Dataset, props, config: TrainConfig, seed,
                train_idx=None) -> TrainedModel:
    """Train the multi-branch model transductively on ``train_idx``.

    Phase one freezes the fusion weights at 1/M and trains only the branch
    filters for ``phase1_epochs``; phase two trains filters and fusion weights
    jointly with early stopping on a stratified held-out slice of the training
    nodes. Returns the best-validation-loss checkpoint seen at any epoch and
    the evaluation probabilities that chose it. Labels outside ``train_idx``
    are never read, and the run is a pure function of (dataset, props,
    config, seed).

    One call per epoch evaluates it and starts the next epoch's training
    trace, sharing each operator product and drawing the masks a separate
    forward would; a fold that stops early discards that last trace.
    """
    if len(props) == 0:
        raise TrainingError("need at least one propagation matrix")
    if train_idx is None:
        train_idx = np.arange(dataset.n_nodes)
    rng = np.random.default_rng(seed)
    opt_idx, val_idx = _stratified_holdout(dataset.labels, train_idx,
                                           config.val_fraction, rng)
    params = init_params(dataset.n_features, config.hidden_dims,
                         dataset.n_classes, len(props), rng)
    weights = class_weights(dataset.labels, opt_idx)
    optimizer = Adam(config.learning_rate)
    features = dataset.features
    labels = dataset.labels

    best_loss = np.inf
    best_params = params.copy()
    best_epoch = -1
    stale = 0

    trace = model_forward(props, features, params, config.dropout_rate, rng,
                          training=True)
    for epoch in range(config.max_total_epochs):
        phase2 = epoch >= config.phase1_epochs
        if epoch == config.phase1_epochs:
            stale = 0  # phase two gets a full patience window of its own
        train_loss = weighted_cross_entropy(trace.probabilities, labels,
                                            opt_idx, weights)
        if not np.isfinite(train_loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        grads = compute_gradients(trace, labels, opt_idx, weights,
                                  config.l2_coeff, params)
        optimizer.update("filters", params.filters, grads.filters)
        if phase2:
            optimizer.update("omega", params.omega, grads.omega)

        # the budget's last epoch evaluates without a next training trace
        last = epoch + 1 == config.max_total_epochs
        trace = model_forward(props, features, params, config.dropout_rate,
                              rng, training=not last, with_eval=True)
        val_loss = weighted_cross_entropy(trace.eval_probabilities, labels,
                                          val_idx, weights)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = params.copy()
            best_probabilities = trace.eval_probabilities
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if phase2 and stale >= config.patience:
                break

    return TrainedModel(params=best_params, probabilities=best_probabilities,
                        stopped_epoch=epoch + 1, best_epoch=best_epoch)


def evaluate(model: TrainedModel, dataset: Dataset, test_idx,
             train_idx=None) -> dict:
    """Accuracy, per-class accuracy, and confusion matrix on ``test_idx``,
    scored from ``model.probabilities`` (no forward pass), so ``dataset`` must
    be the one it was trained on. With ``train_idx``, also ``train_accuracy``.
    """
    test_idx = np.asarray(test_idx, dtype=np.int64)
    probs = model.probabilities
    if dataset.n_nodes != len(probs):
        raise ValueError(f"model scores {len(probs)} nodes, dataset has "
                         f"{dataset.n_nodes}")
    predictions = probs.argmax(axis=1)
    confusion = confusion_matrix(dataset.labels, predictions, test_idx,
                                 dataset.n_classes)
    counts = confusion.sum(axis=1)
    per_class = [float(hit / total) if total else None
                 for hit, total in zip(np.diagonal(confusion), counts)]
    metrics = {
        "accuracy": accuracy(probs, dataset.labels, test_idx),
        "per_class_accuracy": per_class,
        "confusion": confusion.tolist(),
    }
    if train_idx is not None:
        metrics["train_accuracy"] = accuracy(probs, dataset.labels, train_idx)
    return metrics


def cv_folds_and_seeds(labels, config: TrainConfig):
    """Fold splits plus one training seed per fold, derived from config.seed.

    Baselines must consume exactly these splits and seeds so comparisons
    against the multi-branch model differ only in model structure.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.folds + 1)
    folds = stratified_kfold(labels, config.folds, children[0])
    return folds, children[1:]


def split_hash(folds) -> str:
    """Stable digest of a fold partition, for cross-report fairness checks."""
    payload = json.dumps([fold.test_idx.tolist() for fold in folds])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def config_to_dict(config: TrainConfig) -> dict:
    """JSON-ready echo of a training configuration, edge rules included."""
    out = asdict(config)
    out["hidden_dims"] = list(config.hidden_dims)
    out["edge_rules"] = list(out["edge_rules"])
    return out


@dataclass
class CVReport:
    """Per-fold metrics and fusion weights with aggregate accuracy."""

    folds: list[dict]
    mean_acc: float
    std_acc: float
    config: dict
    split_hash: str

    def __post_init__(self):
        expected = self.config.get("folds")
        if expected is not None and expected != len(self.folds):
            raise ValueError(
                f"report has {len(self.folds)} folds, config says {expected}")

    def to_dict(self) -> dict:
        return {"config": self.config, "folds": self.folds,
                "mean_acc": self.mean_acc, "std_acc": self.std_acc,
                "split_hash": self.split_hash}


def _cross_validate(dataset: Dataset, config: TrainConfig,
                    props) -> CVReport:
    """Train on ``props`` and score every fold of ``config``'s split.

    A fold's entry holds its ``evaluate`` metrics, ``train_accuracy``
    included, plus the fold id, the raw and normalized fusion weights, the
    best and stopped epochs and ``wall_clock_sec``. The report echoes
    ``config`` with its edge rules resolved by ``rules_or_defaults``.
    """
    folds, seeds = cv_folds_and_seeds(dataset.labels, config)
    entries = []
    for fold, fold_seed in zip(folds, seeds):
        started = time.perf_counter()
        model = train_model(dataset, props, config, fold_seed,
                            train_idx=fold.train_idx)
        metrics = evaluate(model, dataset, fold.test_idx, fold.train_idx)
        omega = model.params.omega
        scale = float(np.sum(np.abs(omega)))
        entries.append({
            **metrics,
            "fold": fold.fold_id,
            "omega_raw": omega.tolist(),
            "omega_normalized": ((omega / scale).tolist() if scale > 0
                                 else omega.tolist()),
            "best_epoch": model.best_epoch,
            "stopped_epoch": model.stopped_epoch,
            "wall_clock_sec": time.perf_counter() - started,
        })
    accs = np.array([entry["accuracy"] for entry in entries])
    rules = rules_or_defaults(dataset, config.edge_rules)
    return CVReport(folds=entries, mean_acc=float(accs.mean()),
                    std_acc=float(accs.std()),
                    config=config_to_dict(replace(config, edge_rules=rules)),
                    split_hash=split_hash(folds))


def run_cv(dataset: Dataset, config: TrainConfig, props=None) -> CVReport:
    """Stratified cross-validation of the multi-branch model.

    Graphs are built once on the full node set (test subjects stay vertices of
    the population graphs); each fold trains on its own training mask and is
    scored on its test mask. ``props``, when given, must be the operators of
    ``rules_or_defaults(dataset, config.edge_rules)`` in that order; callers
    that already built them pass them in. Reported omegas come in raw form
    and normalized by the sum of absolute values.
    """
    rules = rules_or_defaults(dataset, config.edge_rules)
    if props is None:
        props = build_propagation_matrices(dataset, rules)
    elif len(props) != len(rules):
        raise ValueError(f"{len(props)} propagation matrices for "
                         f"{len(rules)} edge rules")
    return _cross_validate(dataset, config, props)
