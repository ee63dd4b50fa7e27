import dataclasses
import json

import numpy as np
import pytest

import popgcn
from popgcn import train as train_mod
from popgcn.train import TrainingError, _stratified_holdout
from helpers import quick_config, quick_dataset


class TestTrainConfig:
    def test_defaults_are_valid(self):
        config = popgcn.TrainConfig()
        assert config.hidden_dims == (16,)
        assert config.folds == 10

    @pytest.mark.parametrize("overrides", [
        {"hidden_dims": (0,)},
        {"dropout_rate": 1.0},
        {"dropout_rate": -0.1},
        {"l2_coeff": -1e-4},
        {"learning_rate": 0.0},
        {"phase1_epochs": 500, "max_total_epochs": 500},
        {"phase1_epochs": -1},
        {"patience": 0},
        {"val_fraction": 0.0},
        {"val_fraction": 1.0},
        {"folds": 1},
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            popgcn.TrainConfig(**overrides)

    @pytest.mark.parametrize("name", ["dropout_rate", "l2_coeff",
                                      "learning_rate", "val_fraction"])
    def test_rejects_non_finite_floats(self, name):
        # a NaN learning rate used to train until "non-finite validation
        # loss at epoch 0"; an infinite l2_coeff was accepted as well
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                popgcn.TrainConfig(**{name: value})


class TestAdam:
    def test_first_step_hand_oracle(self):
        # bias correction makes the first step lr * g / (|g| + eps)
        opt = popgcn.Adam(learning_rate=0.1)
        param = np.array([1.0])
        opt.update(("p",), param, np.array([3.0]))
        assert param[0] == pytest.approx(1.0 - 0.1 * 3.0 / (3.0 + 1e-8),
                                         rel=1e-12)

    def test_keys_have_independent_state(self):
        opt = popgcn.Adam(learning_rate=0.1)
        grad = np.array([2.0])
        first = np.array([0.0])
        for _ in range(5):
            opt.update(("a",), first, grad)
        late = np.array([0.0])
        opt.update(("b",), late, grad)
        fresh = popgcn.Adam(learning_rate=0.1)
        reference = np.array([0.0])
        fresh.update(("x",), reference, grad)
        assert late[0] == reference[0]

    def test_updates_in_place(self):
        opt = popgcn.Adam(learning_rate=0.5)
        param = np.array([[1.0, 2.0]])
        alias = param
        opt.update(("p",), param, np.array([[1.0, -1.0]]))
        assert alias is param
        assert alias[0, 0] < 1.0 and alias[0, 1] > 2.0


class TestMetrics:
    def test_accuracy_hand_case(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        assert popgcn.accuracy(probs, labels, np.arange(3)) == pytest.approx(2 / 3)
        assert popgcn.accuracy(probs, labels, np.array([2])) == 0.0

    def test_confusion_hand_case(self):
        labels = np.array([0, 1, 1])
        predictions = np.array([0, 1, 0])
        out = popgcn.confusion_matrix(labels, predictions, np.arange(3), 2)
        assert np.array_equal(out, [[1, 0], [1, 1]])


class TestStratifiedHoldout:
    def test_preserves_class_shares(self):
        labels = np.repeat([0, 1, 2], 10)
        rng = np.random.default_rng(0)
        opt_idx, val_idx = _stratified_holdout(labels, np.arange(30), 0.1, rng)
        assert val_idx.size == 3
        assert np.array_equal(np.sort(np.concatenate([opt_idx, val_idx])),
                              np.arange(30))
        for cls in range(3):
            assert np.sum(labels[val_idx] == cls) == 1
            assert np.sum(labels[opt_idx] == cls) == 9

    def test_rounding_to_empty_steals_one_node(self):
        labels = np.array([0, 0, 1])
        rng = np.random.default_rng(1)
        opt_idx, val_idx = _stratified_holdout(labels, np.arange(3), 0.1, rng)
        assert val_idx.size == 1
        assert opt_idx.size == 2
        assert np.unique(labels[opt_idx]).size == 2

    def test_singleton_classes_rejected(self):
        labels = np.array([0, 1])
        with pytest.raises(TrainingError, match="validation"):
            _stratified_holdout(labels, np.arange(2), 0.1,
                                np.random.default_rng(2))


class TestTrainModel:
    def test_bitwise_deterministic(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config()
        a = popgcn.train_model(ds, props, config, seed=3)
        b = popgcn.train_model(ds, props, config, seed=3)
        assert json.dumps(a.history) == json.dumps(b.history)
        assert np.array_equal(a.params.omega, b.params.omega)
        for wa, wb in zip(a.params.layers, b.params.layers):
            assert np.array_equal(wa, wb)

    def test_omega_frozen_through_first_phase(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config(phase1_epochs=5, max_total_epochs=12)
        model = popgcn.train_model(ds, props, config, seed=4)
        m = len(props)
        for entry in model.history[:5]:
            assert entry["phase"] == 1
            assert entry["omega"] == [1.0 / m] * m
        later = model.history[5:]
        assert all(entry["phase"] == 2 for entry in later)
        assert any(entry["omega"] != [1.0 / m] * m for entry in later)

    def test_best_epoch_is_first_validation_minimum(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        model = popgcn.train_model(ds, props, quick_config(), seed=5)
        val_losses = [entry["val_loss"] for entry in model.history]
        assert model.best_epoch == int(np.argmin(val_losses))
        assert model.stopped_epoch == len(model.history)

    def test_early_stopping_breaks_before_budget(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config(phase1_epochs=2, max_total_epochs=400,
                              patience=5, dropout_rate=0.0)
        model = popgcn.train_model(ds, props, config, seed=6)
        assert model.stopped_epoch < 400

    def test_labels_outside_training_mask_never_read(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config()
        folds = popgcn.stratified_kfold(ds.labels, 3, seed=0)
        fold = folds[0]
        tampered_labels = ds.labels.copy()
        tampered_labels[fold.test_idx] = (tampered_labels[fold.test_idx] + 1) % 3
        tampered = popgcn.Dataset(ds.features, tampered_labels,
                                  ds.demographics, ds.element_names, 3)
        a = popgcn.train_model(ds, props, config, seed=7,
                               train_idx=fold.train_idx)
        b = popgcn.train_model(tampered, props, config, seed=7,
                               train_idx=fold.train_idx)
        assert json.dumps(a.history) == json.dumps(b.history)
        assert np.array_equal(a.params.omega, b.params.omega)

    def test_non_finite_loss_aborts_with_epoch(self, monkeypatch):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        monkeypatch.setattr(train_mod, "weighted_cross_entropy",
                            lambda *args, **kwargs: float("nan"))
        with pytest.raises(TrainingError, match="epoch 0"):
            popgcn.train_model(ds, props, quick_config(), seed=8)

    def test_requires_propagation_matrices(self):
        ds = quick_dataset()
        with pytest.raises(TrainingError, match="at least one"):
            popgcn.train_model(ds, [], quick_config(), seed=0)

    def test_default_mask_is_all_nodes(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        model = popgcn.train_model(ds, props,
                                   quick_config(max_total_epochs=20,
                                                phase1_epochs=5), seed=9)
        assert len(model.history) <= 20
        assert model.best_epoch >= 0


class TestEvaluate:
    def _oracle_model(self):
        params = popgcn.ModelParams([np.eye(3)[None]], np.array([1.0]))
        props = [popgcn.PropagationMatrix(np.eye(3))]
        return popgcn.TrainedModel(params=params, props=props, history=[],
                                   stopped_epoch=0, best_epoch=-1)

    def _oracle_dataset(self):
        return popgcn.Dataset(np.eye(3) + 0.01, np.array([0, 1, 2]),
                              np.zeros((3, 1)), ("e",), 3)

    def test_perfect_predictions(self):
        result = popgcn.evaluate(self._oracle_model(), self._oracle_dataset(),
                                 np.array([0, 1, 2]))
        assert result["accuracy"] == 1.0
        assert result["per_class_accuracy"] == [1.0, 1.0, 1.0]
        assert result["confusion"] == np.eye(3, dtype=int).tolist()
        assert np.sum(result["confusion"]) == 3

    def test_train_accuracy_only_when_asked(self):
        model, dataset = self._oracle_model(), self._oracle_dataset()
        assert "train_accuracy" not in popgcn.evaluate(model, dataset, [0])
        result = popgcn.evaluate(model, dataset, [0], train_idx=[1, 2])
        assert result["train_accuracy"] == 1.0

    def test_absent_class_reports_none(self):
        result = popgcn.evaluate(self._oracle_model(), self._oracle_dataset(),
                                 np.array([0, 1]))
        assert result["per_class_accuracy"][2] is None
        assert np.sum(result["confusion"]) == 2


class TestCVPlumbing:
    def test_folds_and_seeds_deterministic(self):
        labels = np.arange(30) % 3
        config = quick_config()
        folds_a, seeds_a = popgcn.cv_folds_and_seeds(labels, config)
        folds_b, seeds_b = popgcn.cv_folds_and_seeds(labels, config)
        assert len(folds_a) == config.folds
        assert len(seeds_a) == config.folds
        for fa, fb in zip(folds_a, folds_b):
            assert np.array_equal(fa.test_idx, fb.test_idx)
        for sa, sb in zip(seeds_a, seeds_b):
            assert np.array_equal(np.random.default_rng(sa).integers(0, 100, 5),
                                  np.random.default_rng(sb).integers(0, 100, 5))

    def test_split_hash_tracks_partition(self):
        labels = np.arange(30) % 3
        folds_a, _ = popgcn.cv_folds_and_seeds(labels, quick_config(seed=0))
        folds_b, _ = popgcn.cv_folds_and_seeds(labels, quick_config(seed=0))
        folds_c, _ = popgcn.cv_folds_and_seeds(labels, quick_config(seed=1))
        assert popgcn.split_hash(folds_a) == popgcn.split_hash(folds_b)
        assert popgcn.split_hash(folds_a) != popgcn.split_hash(folds_c)

    def test_config_echo_includes_rules(self):
        config = quick_config()
        rules = (popgcn.EdgeRule("age", popgcn.THRESHOLD, 2.0),
                 popgcn.EdgeRule("gender", popgcn.EQUALITY))
        echo = popgcn.config_to_dict(
            dataclasses.replace(config, edge_rules=rules))
        assert echo["folds"] == 3
        assert echo["edge_rules"] == [
            {"element": "age", "kind": "threshold", "beta": 2.0},
            {"element": "gender", "kind": "equality", "beta": None},
        ]

    def test_report_validates_fold_count(self):
        with pytest.raises(ValueError, match="folds"):
            popgcn.CVReport(folds=[{}], mean_acc=0.5, std_acc=0.0,
                            config={"folds": 3}, split_hash="x")


class TestRunCV:
    def test_report_structure_and_aggregates(self):
        ds = quick_dataset()
        report = popgcn.run_cv(ds, quick_config())
        assert len(report.folds) == 3
        accs = [entry["accuracy"] for entry in report.folds]
        assert report.mean_acc == pytest.approx(np.mean(accs))
        assert report.std_acc == pytest.approx(np.std(accs))
        for entry in report.folds:
            assert set(entry) >= {"fold", "accuracy", "per_class_accuracy",
                                  "confusion", "train_accuracy", "omega_raw",
                                  "omega_normalized", "best_epoch",
                                  "stopped_epoch", "wall_clock_sec"}
            assert np.sum(np.abs(entry["omega_normalized"])) == \
                pytest.approx(1.0, rel=1e-9)

    def test_deterministic_modulo_wall_clock(self):
        ds = quick_dataset()
        config = quick_config(seed=2)

        def stripped(report):
            payload = report.to_dict()
            for entry in payload["folds"]:
                entry.pop("wall_clock_sec")
            return json.dumps(payload, sort_keys=True)

        assert stripped(popgcn.run_cv(ds, config)) == \
            stripped(popgcn.run_cv(ds, config))

    def test_separable_cohort_classified_well(self):
        ds = quick_dataset(n_nodes=45)
        report = popgcn.run_cv(ds, quick_config(max_total_epochs=60,
                                                phase1_epochs=20))
        assert report.mean_acc >= 0.7

    def test_explicit_rules_echoed(self):
        ds = quick_dataset()
        rules = (popgcn.EdgeRule("informative", popgcn.EQUALITY),)
        report = popgcn.run_cv(ds, quick_config(edge_rules=rules))
        assert report.config["edge_rules"] == [
            {"element": "informative", "kind": "equality", "beta": None}]

    def test_prebuilt_props_must_match_rules(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        with pytest.raises(ValueError, match="1 propagation matrices for 2"):
            popgcn.run_cv(ds, quick_config(), props[:1])

    def test_config_immutable_across_run(self):
        ds = quick_dataset()
        config = quick_config()
        popgcn.run_cv(ds, config)
        assert config == quick_config()
        assert dataclasses.asdict(config) == dataclasses.asdict(quick_config())
