import numpy as np
import pytest

import popgcn
from popgcn import model as model_mod
from helpers import quick_config, quick_dataset


def identity_prop(n: int) -> popgcn.PropagationMatrix:
    return popgcn.PropagationMatrix(np.eye(n))


class ApplySpy:
    """Operator stand-in recording the width of every operand it applies to."""

    def __init__(self, prop):
        self.prop, self.widths = prop, []
        self.n_nodes = prop.n_nodes

    def apply(self, h):
        self.widths.append(h.shape[1])
        return self.prop.apply(h)


def stacked(branches, omega) -> popgcn.ModelParams:
    """ModelParams from per-branch filter lists, input to output order."""
    return popgcn.ModelParams([np.stack(ws) for ws in zip(*branches)], omega)


class TestParams:
    def test_init_shapes_and_uniform_omega(self):
        rng = np.random.default_rng(0)
        params = popgcn.init_params(8, (16, 4), 3, n_branches=4, rng=rng)
        assert params.n_branches == 4
        assert [w.shape for w in params.layers] == \
            [(4, 8, 16), (4, 16, 4), (4, 4, 3)]
        assert np.array_equal(params.omega, np.full(4, 0.25))

    def test_init_deterministic(self):
        a = popgcn.init_params(5, (7,), 2, 3, np.random.default_rng(42))
        b = popgcn.init_params(5, (7,), 2, 3, np.random.default_rng(42))
        for wa, wb in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)

    def test_init_draws_branch_by_branch(self):
        # each branch's filters, input to output, then the next branch: the
        # draw order every report of a seed depends on
        params = popgcn.init_params(5, (4,), 3, 2, np.random.default_rng(21))
        reference = np.random.default_rng(21)
        for m in range(2):
            for i, shape in enumerate([(5, 4), (4, 3)]):
                expected = popgcn.glorot_uniform(shape, reference)
                assert np.array_equal(params.layers[i][m], expected)

    def test_glorot_bound(self):
        rng = np.random.default_rng(1)
        w = popgcn.glorot_uniform((30, 50), rng)
        limit = np.sqrt(6.0 / 80)
        assert np.all(np.abs(w) <= limit)

    def test_rejects_unchained_layers(self):
        with pytest.raises(ValueError, match="chain"):
            popgcn.ModelParams([np.zeros((1, 4, 7)), np.zeros((1, 6, 2))],
                               np.array([1.0]))

    def test_rejects_omega_length_mismatch(self):
        layers = [np.zeros((2, 2, 2))]
        for omega in (np.array([1.0]), np.array([0.3, 0.3, 0.4])):
            with pytest.raises(ValueError, match="omega"):
                popgcn.ModelParams(layers, omega)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            popgcn.ModelParams([np.full((1, 2, 2), np.nan)], np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            popgcn.ModelParams([np.zeros((1, 2, 2))], np.array([np.inf]))

    def test_copy_is_deep(self):
        params = popgcn.init_params(3, (), 2, 1, np.random.default_rng(0))
        clone = params.copy()
        clone.layers[0][0, 0, 0] += 1.0
        clone.omega[0] += 1.0
        assert params.layers[0][0, 0, 0] != clone.layers[0][0, 0, 0]
        assert params.omega[0] == 1.0

    def test_layers_view_one_flat_buffer(self):
        params = popgcn.init_params(5, (4, 6), 3, 2, np.random.default_rng(2))
        assert params.filters.ndim == 1
        assert all(np.shares_memory(w, params.filters) for w in params.layers)
        assert np.array_equal(params.filters, np.concatenate(
            [w.ravel() for w in params.layers]))
        params.filters[:] = np.arange(params.filters.size)
        assert params.layers[0][0, 0, 0] == 0.0
        assert params.layers[-1][-1, -1, -1] == params.filters.size - 1
        assert params.layers[1][0, 0, 0] == params.layers[0].size

    def test_constructor_copies_its_inputs(self):
        theta, omega = np.zeros((1, 2, 2)), np.array([1.0])
        params = popgcn.ModelParams([theta], omega)
        assert not np.shares_memory(params.layers[0], theta)
        assert not np.shares_memory(params.omega, omega)

    def test_copy_views_its_own_buffers(self):
        params = popgcn.init_params(5, (4,), 3, 2, np.random.default_rng(3))
        clone = params.copy()
        assert not np.shares_memory(clone.filters, params.filters)
        assert not np.shares_memory(clone.omega, params.omega)
        assert all(np.shares_memory(w, clone.filters) for w in clone.layers)
        assert [w.shape for w in clone.layers] == \
            [w.shape for w in params.layers]
        assert np.array_equal(clone.filters, params.filters)


# a layer that narrows, one that widens, one that keeps its width
WIDTHS = [(6, 2), (2, 6), (4, 4)]
WIDTH_IDS = ["narrows", "widens", "keeps"]


class TestLayerForward:
    def test_identity_prop_identity_theta(self):
        acts = np.array([[1.0, -2.0], [3.0, 4.0]])
        out = popgcn.gc_layer_forward([identity_prop(2)], [acts[None]],
                                      np.eye(2)[None])[0]
        assert np.array_equal(out, acts[None])

    def test_relu_clamps_negatives(self):
        # hidden layers are rectified before they enter the next layer; the
        # first layer's operand keeps its sign
        feats = np.array([[1.0, -2.0], [-3.0, 4.0]])
        params = popgcn.ModelParams([np.eye(2)[None], np.eye(2)[None]],
                                    np.array([1.0]))
        trace = popgcn.model_forward([identity_prop(2)], feats, params)
        assert np.array_equal(trace.layer_inputs[0][0], feats)
        assert np.array_equal(trace.layer_inputs[1][0],
                              [[1.0, 0.0], [0.0, 4.0]])

    def test_propagation_hand_case(self):
        # averaging operator: both rows become the mean 3, filtered by theta=3
        prop = popgcn.PropagationMatrix(np.full((2, 2), 0.5))
        out = popgcn.gc_layer_forward([prop], [np.array([[[2.0], [4.0]]])],
                                      np.array([[[3.0]]]))[0]
        assert np.allclose(out, [[[9.0], [9.0]]])

    def test_each_branch_uses_its_operator_input_and_mask(self):
        rng = np.random.default_rng(16)
        props = [identity_prop(4), popgcn.PropagationMatrix(np.full((4, 4), 0.25))]
        hidden = rng.standard_normal((2, 4, 3))
        masks = rng.integers(0, 2, size=(2, 4, 3)) * 2.0
        theta = rng.standard_normal((2, 3, 5))
        out = popgcn.gc_layer_forward(props, [hidden * masks], theta)[0]
        for m in range(2):
            expected = props[m].matrix @ (hidden[m] * masks[m]) @ theta[m]
            assert np.array_equal(out[m], expected)

    @pytest.mark.parametrize("d_in, d_out", WIDTHS, ids=WIDTH_IDS)
    def test_matches_left_associated_product(self, d_in, d_out):
        # reassociating P @ H @ theta changes rounding only
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        rng = np.random.default_rng(17)
        hidden = rng.standard_normal((2, ds.n_nodes, d_in))
        masks = rng.integers(0, 2, size=hidden.shape) * 2.0
        theta = rng.standard_normal((2, d_in, d_out))
        out = popgcn.gc_layer_forward(props, [hidden * masks], theta)[0]
        for m in range(2):
            expected = (props[m].matrix @ (hidden[m] * masks[m])) @ theta[m]
            assert np.allclose(out[m], expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("d_in, d_out", WIDTHS, ids=WIDTH_IDS)
    def test_operator_meets_the_narrower_side(self, d_in, d_out):
        # a narrowing layer filters first, so P multiplies a d_out-wide
        # operand; otherwise P multiplies the d_in-wide input
        ds = quick_dataset()
        spies = [ApplySpy(p) for p in popgcn.build_propagation_matrices(ds)]
        rng = np.random.default_rng(18)
        hidden = rng.standard_normal((2, ds.n_nodes, d_in))
        theta = rng.standard_normal((2, d_in, d_out))
        popgcn.gc_layer_forward(spies, [hidden], theta)
        assert [spy.widths for spy in spies] == [[min(d_in, d_out)]] * 2

    @pytest.mark.parametrize("d_in, d_out", WIDTHS, ids=WIDTH_IDS)
    def test_paired_operands_share_one_product(self, d_in, d_out):
        # two operands on the same filters: P meets both narrow sides at
        # once, and each output is the single-operand output up to rounding
        ds = quick_dataset()
        spies = [ApplySpy(p) for p in popgcn.build_propagation_matrices(ds)]
        rng = np.random.default_rng(20)
        first, second = rng.standard_normal((2, 2, ds.n_nodes, d_in))
        theta = rng.standard_normal((2, d_in, d_out))
        pair = popgcn.gc_layer_forward(spies, (first, second), theta)
        assert [spy.widths for spy in spies] == [[2 * min(d_in, d_out)]] * 2
        for out, hidden in zip(pair, (first, second)):
            np.testing.assert_allclose(
                out, popgcn.gc_layer_forward(spies, [hidden], theta)[0],
                rtol=1e-12)

    @pytest.mark.parametrize("d_in, d_out", WIDTHS, ids=WIDTH_IDS)
    def test_backward_applies_operator_to_output_gradient(self, d_in, d_out):
        ds = quick_dataset()
        spies = [ApplySpy(p) for p in popgcn.build_propagation_matrices(ds)]
        rng = np.random.default_rng(19)
        hidden = rng.standard_normal((2, ds.n_nodes, d_in))
        grad_out = rng.standard_normal((2, ds.n_nodes, d_out))
        model_mod._layer_backward(spies, hidden, grad_out)
        assert [spy.widths for spy in spies] == [[d_out]] * 2

    def test_shape_mismatch_rejected(self):
        params = popgcn.ModelParams([np.zeros((1, 4, 2))], np.array([1.0]))
        with pytest.raises(ValueError, match="chain"):
            popgcn.model_forward([identity_prop(2)], np.zeros((2, 3)), params)
        with pytest.raises(ValueError, match="chain"):
            popgcn.model_forward([identity_prop(3)], np.zeros((2, 4)), params)
        # every operator is checked, not only the first
        pair = popgcn.ModelParams([np.zeros((2, 4, 2))], np.ones(2))
        with pytest.raises(ValueError, match="chain: prop 1 on 3 nodes"):
            popgcn.model_forward([identity_prop(2), identity_prop(3)],
                                 np.zeros((2, 4)), pair)


class TestBranchForward:
    def test_matches_manual_layer_chain(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((5, 4))
        prop = identity_prop(5)
        first, second = rng.standard_normal((4, 3)), rng.standard_normal((3, 2))
        trace = popgcn.model_forward([prop], feats,
                                     stacked([[first, second]], [1.0]))
        expected = prop.matrix @ np.maximum(prop.matrix @ feats @ first, 0.0) \
            @ second
        assert np.array_equal(trace.logits[0], expected)
        assert np.array_equal(trace.fused_logits, expected)

    def test_final_layer_keeps_negative_logits(self):
        params = popgcn.ModelParams([np.array([[[-1.0], [0.0]]])],
                                    np.array([1.0]))
        trace = popgcn.model_forward([identity_prop(2)],
                                     [[2.0, 0.0], [3.0, 0.0]], params)
        assert np.array_equal(trace.logits[0], [[-2.0], [-3.0]])

    def test_training_dropout_needs_rng(self):
        params = popgcn.ModelParams([np.eye(2)[None]], np.array([1.0]))
        with pytest.raises(ValueError, match="rng"):
            popgcn.model_forward([identity_prop(2)], np.eye(2), params,
                                 dropout_rate=0.5, training=True)

    def test_dropout_masks_inverted_scaling(self):
        rng = np.random.default_rng(3)
        params = popgcn.ModelParams([np.eye(3)[None]] * 2, np.array([1.0]))
        trace = popgcn.model_forward([identity_prop(3)], np.ones((3, 3)),
                                     params, dropout_rate=0.5, rng=rng,
                                     training=True)
        # identity operator and filters: layer 1's input is layer 0's
        # operand, so each operand is its input times a mask value in {0, 2}
        assert trace.dropout_scale == 2.0
        for layer_input, operand in zip([np.ones((1, 3, 3)),
                                         trace.layer_inputs[0]],
                                        trace.layer_inputs):
            assert np.all((operand == 0.0) | (operand == 2.0 * layer_input))

    def test_dropout_masks_drawn_branch_by_branch(self):
        # each branch's masks, input to output, then the next branch: the
        # draw order every report of a seed depends on
        feats = np.random.default_rng(17).standard_normal((6, 4))
        props = [identity_prop(6), popgcn.PropagationMatrix(np.full((6, 6), 1 / 6)),
                 popgcn.PropagationMatrix(np.eye(6)[::-1])]
        params = popgcn.init_params(4, (5, 3), 2, 3, np.random.default_rng(18))
        rng = np.random.default_rng(19)
        trace = popgcn.model_forward(props, feats, params, dropout_rate=0.4,
                                     rng=rng, training=True)
        reference = np.random.default_rng(19)
        inputs = [np.broadcast_to(feats, (3, 6, 4))] + [
            np.maximum(popgcn.gc_layer_forward(props, [operand], theta)[0], 0.0)
            for operand, theta in zip(trace.layer_inputs, params.layers[:-1])]
        for m in range(3):
            for i, width in enumerate((4, 5, 3)):
                expected = (reference.random((6, width)) >= 0.4) / 0.6
                assert np.array_equal(trace.layer_inputs[i][m],
                                      inputs[i][m] * expected)
        assert rng.random() == reference.random()

    def test_zero_rate_training_equals_inference(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((6, 3))
        params = popgcn.ModelParams([rng.standard_normal((1, 3, 2))],
                                    np.array([1.0]))
        train_trace = popgcn.model_forward(
            [identity_prop(6)], feats, params, dropout_rate=0.0,
            rng=np.random.default_rng(0), training=True)
        eval_trace = popgcn.model_forward([identity_prop(6)], feats, params)
        assert np.array_equal(train_trace.logits, eval_trace.logits)
        assert train_trace.dropout_scale == 1.0
        assert np.shares_memory(train_trace.layer_inputs[0], feats)


class TestFusion:
    @staticmethod
    def _fuse(branch_logits, omega):
        # one node with feature 1: each branch's 1 x K filter is its logits
        params = popgcn.ModelParams([np.array(branch_logits)[:, None, :]],
                                    np.array(omega))
        props = [identity_prop(1)] * len(branch_logits)
        return popgcn.model_forward(props, [[1.0]], params).fused_logits

    def test_linear_combination_hand_case(self):
        fused = self._fuse([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.25])
        assert np.allclose(fused, [[1.25, 2.0]])

    def test_negative_weights_allowed(self):
        fused = self._fuse([[2.0], [1.0]], [1.0, -1.0])
        assert np.allclose(fused, [[1.0]])

    def test_length_mismatch_rejected(self):
        # one branch of logits cannot be fused with two weights
        with pytest.raises(ValueError, match="omega"):
            self._fuse([[0.0, 0.0]], [0.5, 0.5])
        # nor two branches of filters fused over one branch of propagation
        params = popgcn.ModelParams([np.zeros((2, 1, 2))], np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="branches"):
            popgcn.model_forward([identity_prop(1)], [[1.0]], params)

    def test_identical_branches_collapse_to_scaling(self):
        # M tied branches fused with uniform 1/M weights must reproduce the
        # single-branch output
        rng = np.random.default_rng(20)
        feats = rng.standard_normal((5, 3))
        first, second = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        prop = popgcn.PropagationMatrix(np.full((5, 5), 0.2))
        single = popgcn.model_forward([prop], feats,
                                      stacked([[first, second]], [1.0]))
        tied = popgcn.model_forward([prop] * 4, feats,
                                    stacked([[first, second]] * 4,
                                            np.full(4, 0.25)))
        assert np.allclose(tied.fused_logits, single.fused_logits, atol=1e-15)


class TestSoftmax:
    def test_two_class_oracle(self):
        probs = popgcn.softmax_rows(np.array([[0.0, np.log(2.0)]]))
        assert np.allclose(probs, [[1 / 3, 2 / 3]])

    def test_shift_invariance_and_stability(self):
        probs = popgcn.softmax_rows(np.array([[1000.0, 1001.0]]))
        expected = np.array([[1.0, np.e]]) / (1.0 + np.e)
        assert np.all(np.isfinite(probs))
        assert np.allclose(probs, expected)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        probs = popgcn.softmax_rows(rng.standard_normal((10, 5)) * 20)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("k", [2, 3, 17])
    def test_stack_of_views_gives_each_view_its_bits(self, k):
        # model_forward softmaxes its (V, N, K) views in one call
        stack = np.random.default_rng(7).standard_normal((2, 10, k)) * 20
        probs = popgcn.softmax_rows(stack)
        for view, got in zip(stack, probs):
            assert np.array_equal(got, popgcn.softmax_rows(view))


class TestClassWeights:
    def test_hand_oracle(self):
        labels = np.array([0, 0, 1])
        weights = popgcn.class_weights(labels, np.array([0, 1, 2]))
        assert np.allclose(weights, [0.75, 1.5])

    def test_balanced_classes_weight_one(self):
        labels = np.array([0, 1, 0, 1])
        weights = popgcn.class_weights(labels, np.arange(4))
        assert np.array_equal(weights, [1.0, 1.0])

    def test_mean_weight_over_mask_is_one(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 4, size=60)
        labels[:4] = np.arange(4)
        mask = np.arange(60)
        weights = popgcn.class_weights(labels, mask)
        assert np.mean(weights[labels[mask]]) == pytest.approx(1.0, rel=1e-12)

    def test_missing_class_rejected(self):
        labels = np.array([0, 0, 2])
        with pytest.raises(ValueError, match="class 1 absent"):
            popgcn.class_weights(labels, np.arange(3))


class TestCrossEntropy:
    def test_hand_oracle(self):
        probs = np.array([[0.8, 0.2], [0.3, 0.7]])
        loss = popgcn.weighted_cross_entropy(probs, np.array([0, 1]),
                                             np.array([0, 1]),
                                             np.array([1.0, 1.0]))
        assert loss == pytest.approx(-(np.log(0.8) + np.log(0.7)) / 2)

    def test_uniform_predictions_give_log_k(self):
        # inverse-frequency weights average to 1 over any mask, so a uniform
        # predictor always scores exactly ln K
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 3, size=40)
        labels[:3] = np.arange(3)
        mask = np.sort(rng.choice(40, size=25, replace=False))
        if np.unique(labels[mask]).size < 3:
            mask = np.arange(40)
        weights = popgcn.class_weights(labels, mask)
        probs = np.full((40, 3), 1.0 / 3.0)
        loss = popgcn.weighted_cross_entropy(probs, labels, mask, weights)
        assert loss == pytest.approx(np.log(3.0), rel=1e-12)

    def test_probability_floor(self):
        probs = np.array([[0.0, 1.0]])
        loss = popgcn.weighted_cross_entropy(probs, np.array([0]),
                                             np.array([0]), np.array([1.0, 1.0]))
        assert loss == pytest.approx(-np.log(1e-12))

    def test_weights_scale_loss(self):
        probs = np.array([[0.5, 0.5]])
        args = (np.array([0]), np.array([0]))
        base = popgcn.weighted_cross_entropy(probs, *args, np.array([1.0, 1.0]))
        doubled = popgcn.weighted_cross_entropy(probs, *args,
                                                np.array([2.0, 2.0]))
        assert doubled == pytest.approx(2 * base)

    def test_only_masked_nodes_count(self):
        probs = np.array([[0.9, 0.1], [1e-30, 1.0]])
        loss = popgcn.weighted_cross_entropy(probs, np.array([0, 0]),
                                             np.array([0]), np.array([1.0, 1.0]))
        assert loss == pytest.approx(-np.log(0.9))


class TestModelForward:
    def test_fused_equals_weighted_branch_sum(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (5,), ds.n_classes,
                                    len(props), np.random.default_rng(9))
        trace = popgcn.model_forward(props, ds.features, params)
        manual = sum(w * logits
                     for w, logits in zip(params.omega, trace.logits))
        assert np.allclose(trace.fused_logits, manual, atol=1e-15)
        assert np.allclose(trace.probabilities,
                           popgcn.softmax_rows(trace.fused_logits))

    def test_paired_call_traces_the_training_forward(self):
        # the evaluation view draws nothing, so the masks and the rng state
        # after the call are those of a training forward; a widening layer
        # and two narrowing ones take both orders of the kernel
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (12, 4), ds.n_classes,
                                    len(props), np.random.default_rng(21))
        rngs = [np.random.default_rng(22) for _ in range(2)]
        paired, single = [
            popgcn.model_forward(props, ds.features, params, 0.3, rng,
                                 training=True, with_eval=with_eval)
            for rng, with_eval in zip(rngs, (True, False))]
        assert rngs[0].random() == rngs[1].random()
        assert single.eval_probabilities is None
        assert paired.dropout_scale == single.dropout_scale
        assert np.array_equal(paired.layer_inputs[0], single.layer_inputs[0])
        for got, want in [*zip(paired.layer_inputs, single.layer_inputs),
                          (paired.logits, single.logits),
                          (paired.probabilities, single.probabilities)]:
            np.testing.assert_allclose(got, want, rtol=1e-12)
        plain = popgcn.model_forward(props, ds.features, params)
        np.testing.assert_allclose(paired.eval_probabilities,
                                   plain.probabilities, rtol=1e-12)

    @pytest.mark.parametrize("rate, training", [(0.0, True), (0.3, False)],
                             ids=["zero_rate", "no_masks"])
    def test_paired_call_without_masks_runs_one_view(self, rate, training):
        ds = quick_dataset()
        spies = [ApplySpy(p) for p in popgcn.build_propagation_matrices(ds)]
        params = popgcn.init_params(ds.n_features, (12, 4), ds.n_classes,
                                    len(spies), np.random.default_rng(23))
        trace = popgcn.model_forward(spies, ds.features, params, rate,
                                     np.random.default_rng(24),
                                     training=training, with_eval=True)
        assert trace.eval_probabilities is trace.probabilities
        # one single-width product per branch and layer: 8 -> 12 widens,
        # 12 -> 4 and 4 -> 3 narrow
        assert [spy.widths for spy in spies] == [[8, 4, 3]] * len(spies)
        plain = popgcn.model_forward(spies, ds.features, params)
        assert np.array_equal(trace.probabilities, plain.probabilities)

    @pytest.mark.parametrize("with_eval", [False, True],
                             ids=["one_view", "paired"])
    def test_only_hidden_layers_rectified(self, monkeypatch, with_eval):
        # one rectification over every view between the two layers, none
        # after the output layer
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (16,), ds.n_classes,
                                    len(props), np.random.default_rng(25))
        calls = []
        maximum = np.maximum

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return maximum(*args, **kwargs)

        monkeypatch.setattr(np, "maximum", counted)
        popgcn.model_forward(props, ds.features, params, 0.3,
                             np.random.default_rng(26), training=True,
                             with_eval=with_eval)
        views = 2 if with_eval else 1
        assert calls == [(views, len(props), ds.n_nodes, 16)]

    def test_branch_count_mismatch_rejected(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (5,), ds.n_classes, 1,
                                    np.random.default_rng(0))
        with pytest.raises(ValueError):
            popgcn.model_forward(props, ds.features, params)


class TestRegularization:
    def test_hand_value(self):
        theta = np.array([[1.0, 2.0], [3.0, 0.0]])
        params = popgcn.ModelParams([theta[None]], np.array([1.0]))
        assert popgcn.regularization_term(params, 0.5) == pytest.approx(7.0)

    def test_omega_exempt(self):
        params = popgcn.ModelParams([np.zeros((1, 2, 2))], np.array([100.0]))
        assert popgcn.regularization_term(params, 1.0) == 0.0


class TestGradients:
    @staticmethod
    def _one_layer_trace(feats, logits, probs):
        return popgcn.ForwardTrace(
            props=[identity_prop(len(feats))], layer_inputs=[feats[None]],
            dropout_scale=1.0, logits=logits[None],
            fused_logits=logits, probabilities=probs)

    def test_perfect_predictions_leave_only_regularizer(self):
        # with probabilities exactly one-hot the data term vanishes, so the
        # filter gradient must be exactly 2 * l2 * theta and omega's exactly 0
        theta = np.array([[0.5, -1.0], [2.0, 0.25]])
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        logits = np.array([[5.0, -5.0], [-5.0, 5.0]])
        trace = self._one_layer_trace(feats, logits,
                                      np.array([[1.0, 0.0], [0.0, 1.0]]))
        params = popgcn.ModelParams([theta[None]], np.array([1.0]))
        grads = popgcn.compute_gradients(trace, np.array([0, 1]),
                                         np.array([0, 1]),
                                         np.array([1.0, 1.0]), 0.01, params)
        assert np.array_equal(grads.layers[0][0], 2 * 0.01 * theta)
        assert np.array_equal(grads.omega, [0.0])

    def test_omega_gradient_scalar_oracle(self):
        # single node, one branch: d(loss)/d(omega) reduces to
        # w0 * ((p0 - 1) * z0 + p1 * z1) with z the branch logits
        logits = np.array([[1.0, 2.0]])
        probs = popgcn.softmax_rows(logits)
        trace = self._one_layer_trace(np.array([[1.0, 1.0]]), logits, probs)
        params = popgcn.ModelParams([np.eye(2)[None]], np.array([1.0]))
        weights = np.array([2.0, 1.0])
        grads = popgcn.compute_gradients(trace, np.array([0]), np.array([0]),
                                         weights, 0.0, params)
        p0, p1 = probs[0]
        expected = weights[0] * ((p0 - 1.0) * 1.0 + p1 * 2.0)
        assert grads.omega[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_rate_dropout_trace_matches_inference_gradients(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (6,), ds.n_classes,
                                    len(props), np.random.default_rng(10))
        mask = np.arange(ds.n_nodes)
        weights = popgcn.class_weights(ds.labels, mask)
        train_trace = popgcn.model_forward(props, ds.features, params, 0.0,
                                           np.random.default_rng(0),
                                           training=True)
        eval_trace = popgcn.model_forward(props, ds.features, params)
        g_train = popgcn.compute_gradients(train_trace, ds.labels, mask,
                                           weights, 1e-3, params)
        g_eval = popgcn.compute_gradients(eval_trace, ds.labels, mask,
                                          weights, 1e-3, params)
        assert np.array_equal(g_train.omega, g_eval.omega)
        for gt, ge in zip(g_train.layers, g_eval.layers):
            assert np.array_equal(gt, ge)

    def test_gradients_take_the_parameter_layout(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (6, 4), ds.n_classes,
                                    len(props), np.random.default_rng(11))
        mask = np.arange(ds.n_nodes)
        trace = popgcn.model_forward(props, ds.features, params)
        grads = popgcn.compute_gradients(
            trace, ds.labels, mask, popgcn.class_weights(ds.labels, mask),
            1e-3, params)
        assert isinstance(grads, popgcn.ModelParams)
        assert grads.filters.shape == params.filters.shape
        assert not np.shares_memory(grads.filters, params.filters)
        assert all(np.shares_memory(g, grads.filters) for g in grads.layers)
        assert [g.shape for g in grads.layers] == \
            [w.shape for w in params.layers]
        assert grads.omega.shape == params.omega.shape

    def test_trace_param_mismatch_rejected(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (6,), ds.n_classes,
                                    len(props), np.random.default_rng(0))
        trace = popgcn.model_forward(props, ds.features, params)
        lone = popgcn.ModelParams([w[:1] for w in params.layers],
                                  np.array([1.0]))
        with pytest.raises(ValueError):
            popgcn.compute_gradients(trace, ds.labels, np.arange(ds.n_nodes),
                                     popgcn.class_weights(
                                         ds.labels, np.arange(ds.n_nodes)),
                                     0.0, lone)


class TestFiniteDifference:
    def test_every_coordinate_matches(self):
        ds = quick_dataset()
        params = popgcn.init_params(ds.n_features, (6,), ds.n_classes,
                                    ds.n_elements, np.random.default_rng(12))
        err = popgcn.finite_diff_check(ds, params, quick_config(), seed=1)
        assert err < 1e-5

    def test_widening_network_matches(self):
        # 3 features into 8 hidden units widens and 8 into 3 classes narrows,
        # so both multiplication orders of gc_layer_forward are checked
        ds = quick_dataset(n_features=3)
        params = popgcn.init_params(3, (8,), ds.n_classes, ds.n_elements,
                                    np.random.default_rng(20))
        err = popgcn.finite_diff_check(ds, params,
                                       quick_config(hidden_dims=(8,)), seed=5)
        assert err < 1e-5

    def test_with_dropout_config_still_checks_deterministic_objective(self):
        # the check itself must run dropout-free regardless of the config rate
        ds = quick_dataset()
        params = popgcn.init_params(ds.n_features, (4,), ds.n_classes,
                                    ds.n_elements, np.random.default_rng(13))
        err = popgcn.finite_diff_check(ds, params,
                                       quick_config(dropout_rate=0.5), seed=2)
        assert err < 1e-5

    def test_gradients_under_active_dropout(self):
        # every forward reseeds its rng, so the masks stay fixed and the loss
        # is a deterministic function of the parameters; two hidden layers
        # put the feature mask, a hidden mask and a ReLU gate on the path
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (6, 4), ds.n_classes,
                                    len(props), np.random.default_rng(15))
        mask = np.arange(ds.n_nodes)
        weights = popgcn.class_weights(ds.labels, mask)

        def forward(candidate):
            return popgcn.model_forward(props, ds.features, candidate, 0.5,
                                        np.random.default_rng(23),
                                        training=True)

        def loss(candidate):
            return (popgcn.weighted_cross_entropy(
                forward(candidate).probabilities, ds.labels, mask, weights)
                + popgcn.regularization_term(candidate, 1e-3))

        analytic = popgcn.compute_gradients(forward(params), ds.labels, mask,
                                            weights, 1e-3, params)
        step, work, max_err = model_mod._FD_STEP, params.copy(), 0.0
        for tensor, exact_grad in zip([*work.layers, work.omega],
                                      [*analytic.layers, analytic.omega]):
            for flat in range(tensor.size):
                original = tensor.flat[flat]
                tensor.flat[flat] = original + step
                upper = loss(work)
                tensor.flat[flat] = original - step
                lower = loss(work)
                tensor.flat[flat] = original
                numeric = (upper - lower) / (2.0 * step)
                exact = exact_grad.flat[flat]
                denom = max(abs(exact), abs(numeric), model_mod.REL_ERR_FLOOR)
                max_err = max(max_err, abs(exact - numeric) / denom)
        assert max_err < 1e-5

    def test_detects_corrupted_gradient(self, monkeypatch):
        ds = quick_dataset()
        params = popgcn.init_params(ds.n_features, (4,), ds.n_classes,
                                    ds.n_elements, np.random.default_rng(14))
        true_compute = model_mod.compute_gradients

        def corrupted(*args, **kwargs):
            grads = true_compute(*args, **kwargs)
            grads.omega = grads.omega + 0.5
            return grads

        monkeypatch.setattr(model_mod, "compute_gradients", corrupted)
        err = popgcn.finite_diff_check(ds, params, quick_config(), seed=3)
        assert err > 1e-2
