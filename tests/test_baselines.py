import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import popgcn
from popgcn import baselines as baselines_mod
from popgcn.baselines import BaselineKind
from helpers import quick_config, quick_dataset


class TestPropagationVariants:
    def test_identity_propagation(self):
        prop = popgcn.identity_propagation(4)
        h = np.arange(12.0).reshape(4, 3)
        assert prop.n_nodes == 4
        assert prop.apply(h) is h

    def test_identity_propagation_holds_no_square_array(self):
        n = 2000
        tracemalloc.start()
        try:
            prop = popgcn.identity_propagation(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prop.matrix is None
        assert peak < n * n * 8 // 100  # np.eye(2000) would be 32 MB

    def test_averaged_propagation_is_mean_of_affinities(self):
        ds = quick_dataset()
        assert ds.n_elements == 2
        affinities = popgcn.build_affinity_matrices(ds)
        # mean of two matrices is exact: one add, one halving
        manual = popgcn.normalize_affinity(popgcn.AffinityMatrix(
            (affinities[0].weights + affinities[1].weights) / 2.0, "averaged"))
        averaged = popgcn.averaged_propagation(affinities)
        assert np.array_equal(averaged.matrix, manual.matrix)

    def test_single_element_average_is_that_element(self):
        ds = quick_dataset(
            informative_elements=(("informative", 0.9),), noise_elements=())
        only = popgcn.build_propagation_matrices(ds)[0]
        averaged = popgcn.averaged_propagation(
            popgcn.build_affinity_matrices(ds))
        assert np.array_equal(averaged.matrix, only.matrix)

    def test_averaged_respects_explicit_rules(self):
        # avg_gcn over one explicit rule is the single-graph model on that
        # rule's graph, so both cross-validations score the same
        ds = quick_dataset()
        config = quick_config(
            edge_rules=(popgcn.EdgeRule("informative", popgcn.EQUALITY),))
        baseline = popgcn.run_baseline_cv(ds, config,
                                          BaselineKind.AVERAGED_GRAPH_GCN)
        model = popgcn.run_cv(ds, config)
        assert [entry["accuracy"] for entry in baseline["folds"]] == \
            [entry["accuracy"] for entry in model.folds]


def _random_affinities(n_graphs, n_nodes, seed=0):
    rng = np.random.default_rng(seed)
    affinities = []
    for m in range(n_graphs):
        weights = rng.random((n_nodes, n_nodes))
        weights += weights.T
        np.fill_diagonal(weights, 0.0)
        affinities.append(popgcn.AffinityMatrix(weights, f"e{m}"))
    return affinities


class TestAveragedPropagationSum:
    @pytest.mark.parametrize("n_graphs", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_nodes", [300, 1000])
    def test_same_bits_as_numpy_mean(self, n_graphs, n_nodes):
        affinities = _random_affinities(n_graphs, n_nodes, seed=n_graphs)
        mean = np.mean([a.weights for a in affinities], axis=0)
        expected = popgcn.normalize_affinity(
            popgcn.AffinityMatrix(mean, "averaged"))
        averaged = popgcn.averaged_propagation(affinities)
        assert np.array_equal(averaged.matrix, expected.matrix)

    def test_peak_memory_holds_no_stack_of_the_matrices(self):
        # np.mean would stack four N x N matrices and keep their mean beside
        # them: a peak of 5 N^2 floats before normalization starts
        n = 400
        affinities = _random_affinities(4, n)
        tracemalloc.start()
        try:
            popgcn.averaged_propagation(affinities)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    def test_no_matrices_refused(self):
        with pytest.raises(popgcn.GraphError, match="at least one"):
            popgcn.averaged_propagation([])


class TestZeroWeightChanceLevel:
    def test_zero_filters_give_log_k_loss(self):
        # all-zero filters emit constant logits, so the weighted loss must be
        # the uniform-predictor value ln K regardless of the mask
        ds = quick_dataset()
        params = popgcn.ModelParams(
            [np.zeros((1, ds.n_features, ds.n_classes))],
            np.array([1.0]))
        trace = popgcn.model_forward([popgcn.identity_propagation(ds.n_nodes)],
                                     ds.features, params)
        mask = np.arange(ds.n_nodes)
        loss = popgcn.weighted_cross_entropy(
            trace.probabilities, ds.labels, mask,
            popgcn.class_weights(ds.labels, mask))
        assert loss == pytest.approx(np.log(ds.n_classes), rel=1e-12)


class TestBaselineCV:
    def test_shares_split_hash_with_model_cv(self):
        ds = quick_dataset()
        config = quick_config()
        report = popgcn.run_cv(ds, config)
        for kind in BaselineKind:
            baseline = popgcn.run_baseline_cv(ds, config, kind)
            assert baseline["split_hash"] == report.split_hash

    def test_structure_and_aggregates(self):
        ds = quick_dataset()
        result = popgcn.run_baseline_cv(ds, quick_config(),
                                        BaselineKind.LINEAR)
        assert result["kind"] == "linear"
        assert len(result["folds"]) == 3
        accs = [entry["accuracy"] for entry in result["folds"]]
        assert result["mean_acc"] == pytest.approx(np.mean(accs))
        assert result["std_acc"] == pytest.approx(np.std(accs))
        assert all("wall_clock_sec" in entry for entry in result["folds"])

    def test_deterministic_modulo_wall_clock(self):
        ds = quick_dataset()
        config = quick_config(seed=5)

        def stripped(result):
            for entry in result["folds"]:
                entry.pop("wall_clock_sec")
            return json.dumps(result, sort_keys=True)

        a = popgcn.run_baseline_cv(ds, config, BaselineKind.DENSE_NN)
        b = popgcn.run_baseline_cv(ds, config, BaselineKind.DENSE_NN)
        assert stripped(a) == stripped(b)

    def test_linear_separable_cohort(self):
        # class means 4 apart, so a linear map learns them from 30 training
        # nodes; at 2 apart its 3-fold mean here is only 0.49
        ds = quick_dataset(n_nodes=45, class_separation=4.0)
        result = popgcn.run_baseline_cv(
            ds, quick_config(max_total_epochs=150, phase1_epochs=20,
                             patience=30), BaselineKind.LINEAR)
        assert result["mean_acc"] >= 0.6
        for entry in result["folds"]:
            assert set(entry) >= {"accuracy", "per_class_accuracy",
                                  "confusion", "train_accuracy", "fold",
                                  "omega_raw", "omega_normalized",
                                  "best_epoch", "stopped_epoch"}
        # the confusion rows count each fold's test nodes
        assert sum(np.sum(entry["confusion"])
                   for entry in result["folds"]) == ds.n_nodes

    def test_linear_does_not_mutate_config(self):
        ds = quick_dataset()
        config = quick_config()
        popgcn.run_baseline_cv(ds, config, BaselineKind.LINEAR)
        assert dataclasses.asdict(config) == dataclasses.asdict(quick_config())

    @pytest.mark.parametrize("kind", [BaselineKind.LINEAR,
                                      BaselineKind.DENSE_NN],
                             ids=lambda kind: kind.value)
    def test_no_graph_reports_equal_explicit_identity(self, kind,
                                                      monkeypatch):
        # skipping the product with I is exact, so the reports must match
        # those of the same fold loop on a dense identity, bit for bit
        ds = quick_dataset()
        config = quick_config(hidden_dims=(12, 4))  # widens, then narrows

        def stripped(result):
            for entry in result["folds"]:
                entry.pop("wall_clock_sec")
            return json.dumps(result, sort_keys=True)

        skipped = popgcn.run_baseline_cv(ds, config, kind)
        monkeypatch.setattr(
            baselines_mod, "identity_propagation",
            lambda n: popgcn.PropagationMatrix(np.eye(n)))
        dense = popgcn.run_baseline_cv(ds, config, kind)
        assert stripped(skipped) == stripped(dense)

    def test_dense_nn_reports_architecture(self):
        # the layer widths are the echoed hidden_dims, then one per class
        ds = quick_dataset()
        result = popgcn.run_baseline_cv(ds, quick_config(hidden_dims=(7,)),
                                        BaselineKind.DENSE_NN)
        assert result["kind"] == "dense_nn"
        assert result["config"]["hidden_dims"] == [7]
        for entry in result["folds"]:
            assert "architecture" not in entry
            assert np.shape(entry["confusion"]) == (3, 3)

    def test_linear_echoes_the_config_it_trained(self):
        result = popgcn.run_baseline_cv(quick_dataset(), quick_config(),
                                        BaselineKind.LINEAR)
        assert result["config"]["hidden_dims"] == []
        assert result["config"]["dropout_rate"] == 0.0

    @pytest.mark.parametrize("kind", list(BaselineKind),
                             ids=lambda kind: kind.value)
    def test_kind_on_report_and_every_fold(self, kind):
        # the kind sits on the report; its folds have the cv shape, which
        # names no method
        result = popgcn.run_baseline_cv(quick_dataset(), quick_config(), kind)
        assert result["kind"] == kind.value
        assert not any("kind" in entry for entry in result["folds"])
        assert 0.0 <= result["mean_acc"] <= 1.0

    def test_uninformative_features_score_chance_level(self):
        ds = quick_dataset(n_nodes=45, class_separation=0.0)
        result = popgcn.run_baseline_cv(ds, quick_config(max_total_epochs=40,
                                                         phase1_epochs=10),
                                        BaselineKind.LINEAR)
        assert abs(result["mean_acc"] - 1.0 / 3.0) < 0.2
