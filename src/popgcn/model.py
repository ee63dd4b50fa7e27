"""Multi-branch graph convolution: forward pass, fused output, exact gradients.

Each demographic element's graph drives one branch of stacked graph-convolution
layers over the shared feature matrix. A trainable scalar per branch combines
the branch logits linearly before a row-wise softmax. The backward pass is
written directly against the dense matrix operations and is verified against
central finite differences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import (PropagationMatrix, build_propagation_matrices,
                    rules_or_defaults)

PROB_FLOOR = 1e-12
REL_ERR_FLOOR = 1e-3


@dataclass
class BranchParams:
    """Trainable filter matrices of one branch, input to output order."""

    layer_weights: list[np.ndarray]

    def __post_init__(self):
        self.layer_weights = [np.asarray(w, dtype=np.float64)
                              for w in self.layer_weights]
        if not self.layer_weights:
            raise ValueError("a branch needs at least one layer")
        for earlier, later in zip(self.layer_weights, self.layer_weights[1:]):
            if earlier.shape[1] != later.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: {earlier.shape} "
                    f"then {later.shape}")
        if any(not np.all(np.isfinite(w)) for w in self.layer_weights):
            raise ValueError("layer weights must be finite")

    @property
    def n_layers(self) -> int:
        return len(self.layer_weights)

    def copy(self) -> "BranchParams":
        return BranchParams([w.copy() for w in self.layer_weights])


@dataclass
class ModelParams:
    """All branch filters plus the per-branch fusion weights omega."""

    branches: list[BranchParams]
    omega: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if not self.branches:
            raise ValueError("need at least one branch")
        if self.omega.shape != (len(self.branches),):
            raise ValueError(
                f"{len(self.branches)} branches need omega of that length, "
                f"got shape {self.omega.shape}")
        if not np.all(np.isfinite(self.omega)):
            raise ValueError("omega must be finite")

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def copy(self) -> "ModelParams":
        return ModelParams([b.copy() for b in self.branches], self.omega.copy())


@dataclass
class BranchTrace:
    """Intermediates of one branch needed by the backward pass."""

    layer_inputs: list[np.ndarray]    # activation entering each layer, pre-dropout
    dropout_masks: list[np.ndarray]   # inverted-scaling masks; all-ones off training
    preactivations: list[np.ndarray]  # prop @ (input * mask) @ theta, per layer
    logits: np.ndarray


@dataclass
class ForwardTrace:
    """Everything one forward pass produced, enough to backpropagate exactly."""

    branches: list[BranchTrace]
    props: list[PropagationMatrix]
    fused_logits: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        if len(self.branches) != len(self.props):
            raise ValueError("one propagation matrix per branch trace required")
        if self.fused_logits.shape != self.probabilities.shape:
            raise ValueError("fused logits and probabilities must share a shape")
        for i, branch in enumerate(self.branches):
            if branch.logits.shape != self.fused_logits.shape:
                raise ValueError(f"branch {i} logits shape {branch.logits.shape} "
                                 f"!= fused {self.fused_logits.shape}")
        row_sums = self.probabilities.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ValueError("probability rows must sum to 1")


def glorot_uniform(shape, rng) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def init_params(n_features: int, hidden_dims, n_classes: int, n_branches: int,
                rng) -> ModelParams:
    """Glorot-uniform branch filters and uniform fusion weights 1/M."""
    dims = [n_features, *hidden_dims, n_classes]
    branches = [
        BranchParams([glorot_uniform((dims[i], dims[i + 1]), rng)
                      for i in range(len(dims) - 1)])
        for _ in range(n_branches)
    ]
    return ModelParams(branches=branches,
                       omega=np.full(n_branches, 1.0 / n_branches))


def gc_layer_forward(prop: PropagationMatrix, activations, theta,
                     apply_relu: bool) -> np.ndarray:
    """One graph convolution: propagate, filter, optionally rectify."""
    activations = np.asarray(activations, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if activations.shape[0] != prop.n_nodes or activations.shape[1] != theta.shape[0]:
        raise ValueError(
            f"shapes do not chain: prop {prop.matrix.shape}, "
            f"activations {activations.shape}, theta {theta.shape}")
    out = prop.matrix @ activations @ theta
    return np.maximum(out, 0.0) if apply_relu else out


def _dropout_mask(shape, rate: float, rng) -> np.ndarray:
    if rate == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def branch_forward(prop: PropagationMatrix, features, params: BranchParams,
                   dropout_rate: float = 0.0, rng=None, training: bool = False):
    """Run one branch; returns (logits, trace).

    During training every layer input (the feature matrix included) is dropped
    out with inverted scaling, so inference needs no rescaling. The final
    layer emits raw logits; hidden layers are rectified.
    """
    if training and dropout_rate > 0.0 and rng is None:
        raise ValueError("training with dropout needs an rng")
    hidden = np.asarray(features, dtype=np.float64)
    inputs, masks, preacts = [], [], []
    last = params.n_layers - 1
    for i, theta in enumerate(params.layer_weights):
        mask = (_dropout_mask(hidden.shape, dropout_rate, rng)
                if training else np.ones(hidden.shape))
        pre = gc_layer_forward(prop, hidden * mask, theta, apply_relu=False)
        inputs.append(hidden)
        masks.append(mask)
        preacts.append(pre)
        hidden = np.maximum(pre, 0.0) if i != last else pre
    trace = BranchTrace(layer_inputs=inputs, dropout_masks=masks,
                        preactivations=preacts, logits=hidden)
    return hidden, trace


def fuse_logits(branch_logits, omega) -> np.ndarray:
    """Linear combination sum_m omega_m * logits_m."""
    if len(branch_logits) == 0:
        raise ValueError("no branch logits to fuse")
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (len(branch_logits),):
        raise ValueError(
            f"{len(branch_logits)} branches but omega shape {omega.shape}")
    shape = branch_logits[0].shape
    for i, logits in enumerate(branch_logits):
        if logits.shape != shape:
            raise ValueError(f"branch {i} logits shape {logits.shape} != {shape}")
    fused = np.zeros(shape)
    for weight, logits in zip(omega, branch_logits):
        fused += weight * logits
    return fused


def softmax_rows(scores) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def class_weights(labels, mask) -> np.ndarray:
    """Inverse-frequency class weights over masked nodes: |mask| / (K * c_k)."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("mask is empty")
    n_classes = int(labels.max()) + 1
    counts = np.bincount(labels[mask], minlength=n_classes)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise ValueError(
            f"class {missing[0]} absent from mask; class weights undefined")
    return mask.size / (n_classes * counts.astype(np.float64))


def weighted_cross_entropy(probabilities, labels, mask, class_weights) -> float:
    """Class-weighted negative log likelihood averaged over masked nodes.

    Probabilities are floored at 1e-12 before the log.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    weights = np.asarray(class_weights, dtype=np.float64)
    if mask.size == 0:
        raise ValueError("mask is empty")
    picked = probabilities[mask, labels[mask]]
    log_terms = np.log(np.maximum(picked, PROB_FLOOR))
    return float(-np.mean(weights[labels[mask]] * log_terms))


def model_forward(props, features, params: ModelParams, dropout_rate: float = 0.0,
                  rng=None, training: bool = False) -> ForwardTrace:
    """Forward pass over all branches, fused into row-stochastic probabilities."""
    if len(props) != params.n_branches:
        raise ValueError(
            f"{len(props)} propagation matrices for {params.n_branches} branches")
    traces, logits = [], []
    for prop, branch in zip(props, params.branches):
        out, trace = branch_forward(prop, features, branch, dropout_rate, rng,
                                    training)
        traces.append(trace)
        logits.append(out)
    fused = fuse_logits(logits, params.omega)
    return ForwardTrace(branches=traces, props=list(props), fused_logits=fused,
                        probabilities=softmax_rows(fused))


@dataclass
class Gradients:
    """Gradients laid out exactly like ModelParams."""

    branches: list[list[np.ndarray]]
    omega: np.ndarray


def regularization_term(params: ModelParams, l2_coeff: float) -> float:
    """l2_coeff times the squared Frobenius norm of every filter (omega exempt)."""
    return l2_coeff * sum(float(np.sum(w * w))
                          for branch in params.branches
                          for w in branch.layer_weights)


def compute_gradients(trace: ForwardTrace, labels, mask, class_weights,
                      l2_coeff: float, params: ModelParams) -> Gradients:
    """Exact gradients of the masked weighted cross-entropy plus L2 penalty.

    The trace must come from a forward pass on the same parameters. Stored
    dropout masks are replayed, so the gradients differentiate the exact
    stochastic objective of that pass. Fusion weights carry no L2 penalty.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    weights = np.asarray(class_weights, dtype=np.float64)
    if mask.size == 0:
        raise ValueError("mask is empty")
    if len(trace.branches) != params.n_branches:
        raise ValueError(
            f"trace has {len(trace.branches)} branches, params "
            f"{params.n_branches}")
    for m, (bt, bp) in enumerate(zip(trace.branches, params.branches)):
        if len(bt.layer_inputs) != bp.n_layers:
            raise ValueError(f"branch {m} trace depth does not match params")

    n, k = trace.probabilities.shape
    picked = labels[mask]
    one_hot = np.zeros((mask.size, k))
    one_hot[np.arange(mask.size), picked] = 1.0
    d_fused = np.zeros((n, k))
    d_fused[mask] = (weights[picked] / mask.size)[:, None] * (
        trace.probabilities[mask] - one_hot)

    omega_grad = np.array([np.sum(d_fused * bt.logits) for bt in trace.branches])

    branch_grads = []
    for m, (branch, bt, prop) in enumerate(
            zip(params.branches, trace.branches, trace.props)):
        grad_out = params.omega[m] * d_fused
        layer_grads: list[np.ndarray] = [np.empty(0)] * branch.n_layers
        for i in range(branch.n_layers - 1, -1, -1):
            dropped = bt.layer_inputs[i] * bt.dropout_masks[i]
            # prop is exactly symmetric, so prop.T @ g == prop @ g
            propagated = prop.matrix @ grad_out
            layer_grads[i] = (dropped.T @ propagated
                              + 2.0 * l2_coeff * branch.layer_weights[i])
            if i > 0:
                d_dropped = propagated @ branch.layer_weights[i].T
                grad_out = (d_dropped * bt.dropout_masks[i]
                            * (bt.preactivations[i - 1] > 0))
        branch_grads.append(layer_grads)
    return Gradients(branches=branch_grads, omega=omega_grad)


def _param_tensor(params: ModelParams, key):
    if key[0] == "omega":
        return params.omega
    _, m, i = key
    return params.branches[m].layer_weights[i]


def _grad_tensor(grads: Gradients, key):
    if key[0] == "omega":
        return grads.omega
    _, m, i = key
    return grads.branches[m][i]


def finite_diff_check(dataset, params: ModelParams, config, seed,
                      n_coords=None, step: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    Runs with dropout disabled on a deterministic masked-loss objective (a
    stratified ~70% node subset) and returns the largest relative error over
    the probed coordinates. ``config`` needs ``edge_rules`` and ``l2_coeff``
    attributes. The relative error divides by max(|analytic|, |numeric|,
    1e-3); the floor keeps finite-difference roundoff on near-zero coordinates
    from dominating. ``n_coords=None`` probes every coordinate; an empty probe
    set returns 0.0 with a warning.
    """
    rng = np.random.default_rng(seed)
    props = build_propagation_matrices(
        dataset, rules_or_defaults(dataset, config.edge_rules))
    labels = dataset.labels

    mask_parts = []
    for cls in range(dataset.n_classes):
        members = rng.permutation(np.flatnonzero(labels == cls))
        mask_parts.append(members[: max(1, int(round(0.7 * members.size)))])
    mask = np.sort(np.concatenate(mask_parts))
    weights = class_weights(labels, mask)
    l2 = config.l2_coeff

    def objective(candidate: ModelParams) -> float:
        trace = model_forward(props, dataset.features, candidate, 0.0, None,
                              training=False)
        return (weighted_cross_entropy(trace.probabilities, labels, mask, weights)
                + regularization_term(candidate, l2))

    trace = model_forward(props, dataset.features, params, 0.0, None,
                          training=True)
    analytic = compute_gradients(trace, labels, mask, weights, l2, params)

    coords = []
    for m, branch in enumerate(params.branches):
        for i, w in enumerate(branch.layer_weights):
            coords.extend((("theta", m, i), flat) for flat in range(w.size))
    coords.extend((("omega",), flat) for flat in range(params.omega.size))
    if n_coords is not None and n_coords < len(coords):
        if n_coords <= 0:
            coords = []
        else:
            chosen = rng.choice(len(coords), size=n_coords, replace=False)
            coords = [coords[i] for i in chosen]
    if not coords:
        warnings.warn("no coordinates probed; returning 0.0", RuntimeWarning,
                      stacklevel=2)
        return 0.0

    work = params.copy()
    max_err = 0.0
    for key, flat in coords:
        tensor = _param_tensor(work, key)
        original = tensor.flat[flat]
        tensor.flat[flat] = original + step
        upper = objective(work)
        tensor.flat[flat] = original - step
        lower = objective(work)
        tensor.flat[flat] = original
        numeric = (upper - lower) / (2.0 * step)
        exact = _grad_tensor(analytic, key).flat[flat]
        denom = max(abs(exact), abs(numeric), REL_ERR_FLOOR)
        max_err = max(max_err, abs(exact - numeric) / denom)
    return max_err
