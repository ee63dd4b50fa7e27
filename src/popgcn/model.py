"""Multi-branch graph convolution: forward pass, fused output, exact gradients.

Each demographic element's graph drives one branch of graph-convolution
layers over the shared feature matrix. All branches share the layer widths,
so a layer's filters are one (M, d_in, d_out) array, and forward and
backward loop over layers only. A layer kernel applies the M
operators one branch at a time, so no (M, N, d) operator product is held,
and it applies each operator to the narrower side of the layer: a layer
that narrows filters before it propagates (``P @ (H @ theta)``, as in Kipf
and Welling 2017), one that widens or keeps its width propagates first. The
"no graph" operator of the baselines applies without a product. Dropout
is applied once, in ``model_forward``; the kernels take dropped operands.
Trainable scalars omega fuse the (M, N, K) branch logits linearly before a
row-wise softmax. Inputs are checked once, where they enter (``ModelParams``,
``model_forward``); nothing in the epoch loop scans an array to validate it.
The hand-written backward pass is verified against finite differences.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .graph import PropagationMatrix, build_propagation_matrices

PROB_FLOOR = 1e-12
REL_ERR_FLOOR = 1e-3
_FD_STEP = 1e-5


@dataclass
class ModelParams:
    """Filters of every branch, one (M, d_in, d_out) array per layer in input
    to output order, each a view into the flat buffer ``filters``, plus the
    per-branch fusion weights omega, shape (M,), in a buffer of their own.
    The constructor copies its inputs."""

    layers: list[np.ndarray]
    omega: np.ndarray
    filters: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = [np.asarray(w, dtype=np.float64) for w in self.layers]
        self.omega = np.array(self.omega, dtype=np.float64)
        if not self.layers or self.omega.ndim != 1 or not self.omega.size:
            raise ValueError("need at least one layer and a vector omega")
        for w in self.layers:
            if w.ndim != 3 or w.shape[0] != self.omega.size:
                raise ValueError(f"omega of length {self.omega.size} needs "
                                 f"(M, d_in, d_out) layers with M equal to "
                                 f"it, got a layer of shape {w.shape}")
        for earlier, later in zip(self.layers, self.layers[1:]):
            if earlier.shape[2] != later.shape[1]:
                raise ValueError(
                    f"layer dimensions do not chain: {earlier.shape} "
                    f"then {later.shape}")
        self.filters = np.concatenate([w.ravel() for w in self.layers])
        if not all(np.all(np.isfinite(w)) for w in (self.filters, self.omega)):
            raise ValueError("layer weights and omega must be finite")
        self.layers = self.like(self.filters, self.omega).layers

    @property
    def n_branches(self) -> int:
        return self.omega.size

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def like(self, filters, omega) -> "ModelParams":
        """Unchecked parameters of this layout on the buffers ``filters`` and
        ``omega``; the layers are C-order views into ``filters``."""
        clone, start = copy.copy(self), 0
        clone.filters, clone.omega, clone.layers = filters, omega, []
        for w in self.layers:
            clone.layers.append(filters[start:start + w.size].reshape(w.shape))
            start += w.size
        return clone

    def copy(self) -> "ModelParams":
        """Deep copy; a copy of checked parameters is not checked again."""
        return self.like(self.filters.copy(), self.omega.copy())


@dataclass
class ForwardTrace:
    """Everything one forward pass produced, enough to backpropagate exactly.

    Per layer, the (M, N, d) operand the layer multiplied: its (rectified)
    input times the dropout mask, or without dropout the input itself (for
    the first layer a broadcast view of the features, not a copy). The
    nonzero mask value is ``dropout_scale``, 1 / (1 - rate), or 1.0.
    """

    props: list[PropagationMatrix]
    layer_inputs: list[np.ndarray]
    dropout_scale: float
    logits: np.ndarray
    fused_logits: np.ndarray
    probabilities: np.ndarray
    eval_probabilities: np.ndarray | None = None  # with_eval: no dropout


def glorot_uniform(shape, rng) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def init_params(n_features: int, hidden_dims, n_classes: int, n_branches: int,
                rng) -> ModelParams:
    """Glorot-uniform filters and uniform fusion weights 1/M.

    Filters are drawn branch by branch, each branch input to output.
    """
    dims = [n_features, *hidden_dims, n_classes]
    layers = [np.empty((n_branches, d_in, d_out))
              for d_in, d_out in zip(dims, dims[1:])]
    for m in range(n_branches):
        for theta in layers:
            theta[m] = glorot_uniform(theta.shape[1:], rng)
    return ModelParams(layers=layers,
                       omega=np.full(n_branches, 1.0 / n_branches))


def gc_layer_forward(props, views, theta) -> np.ndarray:
    """One graph convolution on every branch of each view, before activation.

    ``out[v, m] = P_m @ views[v][m] @ theta[m]`` for V (M, N, d) operands
    on the same filters, already dropped out. Branches run one at a time,
    and P_m meets all V operands side by side in one product, applied to
    the narrower side: after the filter when the layer narrows (d_out <
    d_in), which costs N*d_in*d_out + N^2*d_out instead of N^2*d_in +
    N*d_in*d_out, and before it otherwise (equal up to rounding).
    """
    narrows = theta.shape[2] < theta.shape[1]
    out = np.empty((len(views), len(props), views[0].shape[1], theta.shape[2]))
    for m, prop in enumerate(props):
        sides = [h[m] @ theta[m] if narrows else h[m] for h in views]
        block = prop.apply(np.concatenate(sides, axis=1))
        block = block.reshape(len(block), len(views), -1)
        for v in range(len(views)):
            out[v, m] = block[:, v] if narrows else block[:, v] @ theta[m]
    return out


def _layer_backward(props, hidden, grad_out):
    """Backward counterpart of ``gc_layer_forward``, one branch at a time.

    Returns ``propagated[m] = P_m @ grad_out[m]`` (each P is exactly
    symmetric, so this is ``P_m.T @ grad_out[m]``) and the data part of the
    filter gradient, ``hidden[m].T @ propagated[m]``. Either way the forward
    pass ordered the layer, P_m meets the (N, d_out) gradient here, the
    narrow side of a narrowing layer.
    """
    propagated = np.empty_like(grad_out)
    theta_grad = np.empty((len(props), hidden.shape[2], grad_out.shape[2]))
    for m, prop in enumerate(props):
        propagated[m] = prop.apply(grad_out[m])
        theta_grad[m] = hidden[m].T @ propagated[m]
    return propagated, theta_grad


def softmax_rows(scores) -> np.ndarray:
    """Softmax over the last axis, stabilized by max subtraction."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


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
                  rng=None, training: bool = False,
                  with_eval: bool = False) -> ForwardTrace:
    """Forward pass over all branches, fused into row-stochastic probabilities.

    During training every layer input (the feature matrix included) is
    multiplied in place into an inverted-scaling dropout mask, so inference
    needs no rescaling; the masks are one (M, N * sum_l d_l) draw whose row
    m holds branch m's N x d_l masks input to output, each layer's mask a
    view of its column block. Each layer runs every view in one kernel call:
    the training operand, then with ``with_eval`` and masks the unmasked
    view behind ``eval_probabilities`` (without masks that is the training
    view itself). Only hidden layers are rectified; the last layer's raw
    branch logits are fused as ``sum_m omega_m * logits_m`` and softmaxed,
    every view at once.
    """
    features = np.asarray(features, dtype=np.float64)
    if len(props) != params.n_branches:
        raise ValueError(
            f"{len(props)} propagation matrices for {params.n_branches} branches")
    if features.ndim != 2 or features.shape[1] != params.layers[0].shape[1]:
        raise ValueError(f"shapes do not chain: features {features.shape}, "
                         f"first layer {params.layers[0].shape}")
    for m, prop in enumerate(props):
        if prop.n_nodes != features.shape[0]:
            raise ValueError(f"shapes do not chain: prop {m} on "
                             f"{prop.n_nodes} nodes, features {features.shape}")
    masks, scale = [None] * params.n_layers, 1.0
    if training and dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training with dropout needs an rng")
        # inverted-scaling masks: one draw, branch by branch, input to output
        widths = [len(features) * w.shape[1] for w in params.layers]
        drawn = rng.random((params.n_branches, sum(widths)))
        np.greater_equal(drawn, dropout_rate, out=drawn)
        drawn /= 1.0 - dropout_rate
        masks = [block.reshape(params.n_branches, len(features), -1) for block
                 in np.split(drawn, np.cumsum(widths[:-1]), axis=1)]
        scale = 1.0 / (1.0 - dropout_rate)
    hidden = np.broadcast_to(features, (params.n_branches, *features.shape))
    views = [hidden] * (2 if with_eval and masks[0] is not None else 1)
    inputs = []
    for i, (theta, mask) in enumerate(zip(params.layers, masks)):
        if mask is not None:
            views[0] = np.multiply(views[0], mask, out=mask)
        inputs.append(views[0])
        logits = gc_layer_forward(props, views, theta)
        if i + 1 < params.n_layers:
            views = list(np.maximum(logits, 0.0))
    fused = np.sum(params.omega[:, None, None] * logits, axis=1)
    probabilities = list(softmax_rows(fused))
    return ForwardTrace(props=list(props), layer_inputs=inputs,
                        dropout_scale=scale, logits=logits[0],
                        fused_logits=fused[0], probabilities=probabilities[0],
                        eval_probabilities=(probabilities[-1] if with_eval
                                            else None))


def regularization_term(params: ModelParams, l2_coeff: float) -> float:
    """l2_coeff times the squared Frobenius norm of every filter (omega exempt)."""
    return l2_coeff * sum(float(np.sum(w * w)) for w in params.layers)


def compute_gradients(trace: ForwardTrace, labels, mask, class_weights,
                      l2_coeff: float, params: ModelParams) -> ModelParams:
    """Exact gradients of the masked weighted cross-entropy plus L2 penalty,
    laid out like ``params`` (and unchecked).

    The trace must come from a forward pass on the same parameters. A hidden
    unit passes gradient, times the dropout scale, where its stored operand
    is positive (kept and active), so the gradients differentiate the exact
    stochastic objective of that pass. Fusion weights carry no L2 penalty.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    weights = np.asarray(class_weights, dtype=np.float64)
    if mask.size == 0:
        raise ValueError("mask is empty")
    if (len(trace.layer_inputs), len(trace.props)) != (params.n_layers,
                                                       params.n_branches):
        raise ValueError("trace layers or branches do not match params")

    picked = labels[mask]
    residual = trace.probabilities[mask]
    residual[np.arange(mask.size), picked] -= 1.0
    d_fused = np.zeros_like(trace.probabilities)
    d_fused[mask] = (weights[picked] / mask.size)[:, None] * residual

    omega_grad = (trace.logits * d_fused).reshape(params.n_branches, -1).sum(axis=1)

    grads = params.like(np.empty_like(params.filters), omega_grad)
    grad_out = params.omega[:, None, None] * d_fused
    for i in range(params.n_layers - 1, -1, -1):
        theta, operand = params.layers[i], trace.layer_inputs[i]
        propagated, theta_grad = _layer_backward(trace.props, operand, grad_out)
        np.add(theta_grad, 2.0 * l2_coeff * theta, out=grads.layers[i])
        if i > 0:
            d_dropped = propagated @ theta.transpose(0, 2, 1)
            grad_out = d_dropped * (operand > 0) * trace.dropout_scale
    return grads


def finite_diff_check(dataset, params: ModelParams, config, seed) -> float:
    """Compare analytic gradients against central finite differences.

    Runs with dropout disabled on a deterministic masked-loss objective (a
    stratified ~70% node subset) and returns the largest relative error over
    every coordinate of every filter and of omega, each probed with a step of
    1e-5. ``config`` needs ``edge_rules`` and ``l2_coeff`` attributes. The
    relative error divides by max(|analytic|, |numeric|, 1e-3); the floor
    keeps finite-difference roundoff on near-zero coordinates from dominating.
    """
    rng = np.random.default_rng(seed)
    props = build_propagation_matrices(dataset, config.edge_rules)
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

    work = params.copy()
    max_err = 0.0
    # every filter, input layer first, then omega; analytic gradients alike
    for tensor, exact_grad in ((work.filters, analytic.filters),
                               (work.omega, analytic.omega)):
        for flat in range(tensor.size):
            original = tensor.flat[flat]
            tensor.flat[flat] = original + _FD_STEP
            upper = objective(work)
            tensor.flat[flat] = original - _FD_STEP
            lower = objective(work)
            tensor.flat[flat] = original
            numeric = (upper - lower) / (2.0 * _FD_STEP)
            exact = exact_grad.flat[flat]
            denom = max(abs(exact), abs(numeric), REL_ERR_FLOOR)
            max_err = max(max_err, abs(exact - numeric) / denom)
    return max_err
