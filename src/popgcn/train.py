"""Two-phase training schedule, early stopping, evaluation, cross-validation."""

from __future__ import annotations

import ctypes
import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import (DataError, Dataset, _check_fields, _indices, _integers,
                   stratified_kfold)
from .graph import (EdgeRule, _openblas, _usable_cpus,
                    build_propagation_matrices, rules_or_defaults)
from .model import (ModelParams, class_weights, compute_gradients, init_params,
                    model_forward, weighted_cross_entropy)

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
        for i, h in enumerate(self.hidden_dims):
            if h < 1:
                raise DataError("hidden_dims must be positive", f"hidden_dims[{i}]")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DataError("dropout_rate must be in [0, 1)", "dropout_rate")
        if self.l2_coeff < 0:
            raise DataError("l2_coeff must be nonnegative", "l2_coeff")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive", "learning_rate")
        if not 0 <= self.phase1_epochs < self.max_total_epochs:
            raise DataError("need 0 <= phase1_epochs < max_total_epochs, got "
                            f"{self.phase1_epochs} and {self.max_total_epochs}",
                            "phase1_epochs")
        if self.patience < 1:
            raise DataError("patience must be at least 1", "patience")
        if not 0.0 < self.val_fraction < 1.0:
            raise DataError("val_fraction must be in (0, 1)", "val_fraction")
        if self.folds < 2:
            raise DataError("folds must be at least 2", "folds")
        if self.seed < 0:
            raise DataError("seed must be nonnegative", "seed")


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
    idx = _indices(idx, "idx")
    if idx.size == 0:
        raise ValueError("idx is empty")
    predictions = np.asarray(probabilities)[idx].argmax(axis=1)
    return float(np.mean(predictions == np.asarray(labels)[idx]))


def confusion_matrix(labels, predictions, idx, n_classes: int) -> np.ndarray:
    """K x K counts over ``idx``; rows are true classes, columns predictions."""
    idx = _indices(idx, "idx")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (_integers(labels, "labels")[idx],
                    _integers(predictions, "predictions")[idx]), 1)
    return out


def _stratified_holdout(labels, train_idx, fraction: float, rng):
    """Split train_idx into (optimized, validation) preserving class shares.

    Every class keeps at least one optimized node. If rounding empties the
    validation set, one node is taken from the largest class so early
    stopping still has a signal.
    """
    train_idx = _indices(train_idx, "train_idx")
    labels = _integers(labels, "labels")
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
    test_idx = _indices(test_idx, "test_idx")
    if test_idx.size == 0:
        raise ValueError("test_idx is empty")
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


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS library will use; None when no OpenBLAS
    is loaded or it cannot be asked."""
    blas = _openblas()
    return None if blas is None else blas[0]()


def _fold_workers(n_jobs: int) -> int:
    """Processes to train ``n_jobs`` folds in; 1 means this process.

    The usable CPUs go either to BLAS threads or to folds, never to both:
    ``min(n_jobs, cpus // blas_threads)``. A run stays in this process
    when no OpenBLAS answers the probe, when ``fork`` is not available,
    when this process is itself a daemonic worker (which may not have
    children), or when other threads run: a fork copies the locks they may
    hold but not the threads that would release them.
    """
    import multiprocessing  # here, not at the top: import popgcn stays lean
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    threads = _blas_threads()
    if not threads:
        return 1
    return max(1, min(n_jobs, _usable_cpus() // threads))


def _fold_entry(dataset: Dataset, props, config: TrainConfig, fold,
                fold_seed) -> dict:
    """Train and score one fold: its ``evaluate`` metrics,
    ``train_accuracy`` included, plus the fold id, the raw and normalized
    fusion weights, the best and stopped epochs and ``wall_clock_sec``."""
    started = time.perf_counter()
    model = train_model(dataset, props, config, fold_seed,
                        train_idx=fold.train_idx)
    metrics = evaluate(model, dataset, fold.test_idx, fold.train_idx)
    omega = model.params.omega
    scale = float(np.sum(np.abs(omega)))
    return {
        **metrics,
        "fold": fold.fold_id,
        "omega_raw": omega.tolist(),
        "omega_normalized": ((omega / scale).tolist() if scale > 0
                             else omega.tolist()),
        "best_epoch": model.best_epoch,
        "stopped_epoch": model.stopped_epoch,
        "wall_clock_sec": time.perf_counter() - started,
    }


_worker_inputs = None  # (dataset, jobs) in a fold worker


def _interrupt_once(signum, frame):
    """SIGINT handler while fold workers run: raise ``KeyboardInterrupt``
    once, then ignore SIGINT so that no second one cuts their ending short."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def _hold_worker_inputs(*inputs) -> None:
    """Pool initializer: keep the inputs. Where SIGINT would raise
    ``KeyboardInterrupt``, it ends this worker at once instead; it is
    blocked from the fork until then."""
    import signal
    if signal.getsignal(signal.SIGINT) is _interrupt_once:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    global _worker_inputs
    _worker_inputs = inputs


def _worker_fold_entry(index: int) -> dict:
    dataset, jobs = _worker_inputs
    return _fold_entry(dataset, *jobs[index])


def _result(future):
    """``future.result()``, waited for in steps of 0.2 s: a SIGINT that
    lands on another thread, or just before a wait begins, does not cut the
    wait short, and Python raises it at the next step. That thread may be
    a joined graph-build thread not yet gone, which ``threading`` no longer
    counts but which takes a SIGINT blocked in this one."""
    from concurrent.futures import TimeoutError  # not the builtin before 3.11
    while True:
        try:
            return future.result(timeout=0.2)
        except TimeoutError:
            pass


def _map_folds(dataset: Dataset, jobs) -> list:
    """``_fold_entry`` of each (props, config, fold, seed) of ``jobs``, in
    their order.

    With more than one worker the folds train in forked processes, all
    jobs in one pool. Fork hands the inputs over without pickling them: the
    workers share the dataset and the operators copy-on-write, and only the
    entries travel back. Of several failing jobs, the first in ``jobs``
    raises, as in this process. An interrupt of this process ends the
    workers too: leaving the pool would otherwise wait for their running
    and queued folds.
    """
    workers = _fold_workers(len(jobs))
    if workers == 1:
        return [_fold_entry(dataset, *job) for job in jobs]
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # Hand the heap's free pages back first. Without it the parent's heap
    # fragments from one cross-validation to the next, and a forked run
    # peaked 5 MB higher on N=1000, d=500.
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim(0)
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_hold_worker_inputs,
                               initargs=(dataset, jobs))
    # SIGINT waits until the workers are forked, at the first submit
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    raising = signal.getsignal(signal.SIGINT) is signal.default_int_handler
    if raising:
        signal.signal(signal.SIGINT, _interrupt_once)
    try:
        # submit, not map: on an interrupt map cancels the queued folds
        # while the pool marks them failed for its dead workers, and the
        # pool's thread then dies with a traceback
        futures = [pool.submit(_worker_fold_entry, i)
                   for i in range(len(jobs))]
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        return [_result(future) for future in futures]
    except BrokenProcessPool as err:
        raise TrainingError(
            "a fold worker exited without a result, for example "
            "because it was killed") from err
    except KeyboardInterrupt:
        # no public call ends a pool's workers before Python 3.14
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        try:
            pool.shutdown(cancel_futures=True)
        finally:
            if raising:
                signal.signal(signal.SIGINT, signal.default_int_handler)


def cross_validate(dataset: Dataset, runs) -> list[CVReport]:
    """Train each (config, props) run of ``runs`` on every fold of its
    config's split and score it: one report per run, in their order.

    Runs of one seed and fold count share one split. The folds of every run
    are mapped in one ``_map_folds`` call, so they may train in one pool of
    worker processes (see ``_fold_workers``) and give the same entries.
    Each report echoes its config with the edge rules resolved by
    ``rules_or_defaults``.
    """
    splits, jobs = {}, []
    for config, props in runs:
        key = (config.seed, config.folds)
        if key not in splits:
            splits[key] = cv_folds_and_seeds(dataset.labels, config)
        folds, seeds = splits[key]
        jobs += [(props, config, fold, seed)
                 for fold, seed in zip(folds, seeds)]
    entries = iter(_map_folds(dataset, jobs))
    reports = []
    for config, _ in runs:
        folds, _ = splits[(config.seed, config.folds)]
        run_entries = [next(entries) for _ in folds]
        accs = np.array([entry["accuracy"] for entry in run_entries])
        rules = rules_or_defaults(dataset, config.edge_rules)
        reports.append(CVReport(
            folds=run_entries, mean_acc=float(accs.mean()),
            std_acc=float(accs.std()),
            config=config_to_dict(replace(config, edge_rules=rules)),
            split_hash=split_hash(folds)))
    return reports


def run_cv(dataset: Dataset, config: TrainConfig) -> CVReport:
    """Stratified cross-validation of the multi-branch model.

    Graphs are built once on the full node set (test subjects stay vertices of
    the population graphs); each fold trains on its own training mask and is
    scored on its test mask. Operators already built train through
    ``cross_validate(dataset, [(config, props)])``. Reported omegas come in
    raw form and normalized by the sum of absolute values. When BLAS runs on
    fewer threads than there are CPUs, the folds train in forked worker
    processes (see ``_fold_workers``); the report is the same either way.
    """
    props = build_propagation_matrices(dataset, config.edge_rules)
    report, = cross_validate(dataset, [(config, props)])
    return report
