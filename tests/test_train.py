import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import popgcn
from popgcn import train as train_mod
from popgcn.train import TrainingError, _stratified_holdout
from helpers import quick_config, quick_dataset, strip_wall_clock


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
        for value in (float("nan"), float("inf"), float("-inf"),
                      np.float64("nan"), 10 ** 400, 10 ** 5000):
            with pytest.raises(ValueError,
                               match="must be a finite number") as err:
                popgcn.TrainConfig(**{name: value})
            assert err.value.field == name

    @pytest.mark.parametrize("widths", [
        "16", (2.5, True), (16.0,), (True,), (np.float64(8.0),), ("8",),
        (np.bool_(True),), None, [16.0],
    ])
    def test_rejects_non_integer_widths(self, widths):
        # "16" used to become (1, 6) and (2.5, True) to become (2, 1)
        field = ("hidden_dims[0]" if isinstance(widths, (tuple, list))
                 else "hidden_dims")
        with pytest.raises(ValueError, match="must be") as err:
            popgcn.TrainConfig(hidden_dims=widths)
        assert err.value.field == field

    @pytest.mark.parametrize("overrides, field", [
        # a wrong type is refused by name, never converted or left to fail
        # later
        ({"hidden_dims": 16}, "hidden_dims"),
        ({"folds": 2.5}, "folds"),
        ({"seed": 1.5}, "seed"),
        ({"patience": True}, "patience"),
        ({"phase1_epochs": np.float64(5.0)}, "phase1_epochs"),
        ({"max_total_epochs": "70"}, "max_total_epochs"),
        ({"learning_rate": "0.1"}, "learning_rate"),
        ({"dropout_rate": np.bool_(False)}, "dropout_rate"),
        ({"val_fraction": None}, "val_fraction"),
        ({"edge_rules": "ab"}, "edge_rules"),
        ({"edge_rules": ({"element": "a"},)}, "edge_rules[0]"),
        ({"seed": 10 ** 5000}, "seed"),  # past the digit limit of str()
    ])
    def test_rejects_wrong_field_types(self, overrides, field):
        with pytest.raises(ValueError, match="must be") as err:
            popgcn.TrainConfig(**overrides)
        assert err.value.field == field

    def test_numpy_scalars_and_lists_stored_plain(self):
        config = popgcn.TrainConfig(
            hidden_dims=[np.int64(8)], seed=np.int32(3), folds=np.uint8(4),
            learning_rate=np.float32(0.5), l2_coeff=0, edge_rules=[])
        assert config == popgcn.TrainConfig(
            hidden_dims=(8,), seed=3, folds=4, learning_rate=0.5,
            l2_coeff=0.0)
        assert [type(v) for v in (config.seed, config.folds,
                                  config.learning_rate, config.l2_coeff)] \
            == [int, int, float, float]

    def test_accepts_numpy_integer_widths(self):
        config = popgcn.TrainConfig(hidden_dims=(np.int64(8), np.int32(4)))
        assert config.hidden_dims == (8, 4)
        assert all(type(h) is int for h in config.hidden_dims)


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

    def test_moments_kept_in_the_same_arrays(self):
        opt = popgcn.Adam(learning_rate=0.1)
        param = np.zeros((2, 3))
        opt.update(("p",), param, np.ones((2, 3)))
        m, v, _ = opt._state[("p",)]
        for step in range(3):
            opt.update(("p",), param, np.full((2, 3), step - 1.0))
            assert opt._state[("p",)][0] is m
            assert opt._state[("p",)][1] is v

    def test_steps_match_bias_corrected_formula_bit_for_bit(self):
        rng = np.random.default_rng(21)
        opt = popgcn.Adam(learning_rate=0.01)
        param = rng.standard_normal((2, 20, 16))
        expected = param.copy()
        m, v = np.zeros_like(param), np.zeros_like(param)
        for t in range(1, 51):
            grad = rng.standard_normal(param.shape)
            opt.update(("p",), param, grad)
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad * grad
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            expected -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(param, expected)

    def test_flat_update_matches_per_piece_updates_bit_for_bit(self):
        # Adam is elementwise, so one step on the concatenation equals a step
        # on each piece under its own key, as train_model relies on
        rng = np.random.default_rng(22)
        shapes = [(2, 20, 16), (2, 16, 3), (2,)]
        pieces = [rng.standard_normal(shape) for shape in shapes]
        flat = np.concatenate([piece.ravel() for piece in pieces])
        whole, apart = popgcn.Adam(0.01), popgcn.Adam(0.01)
        for _ in range(50):
            grads = [rng.standard_normal(shape) for shape in shapes]
            whole.update("all", flat, np.concatenate(
                [grad.ravel() for grad in grads]))
            for i, (piece, grad) in enumerate(zip(pieces, grads)):
                apart.update(("piece", i), piece, grad)
            assert np.array_equal(flat, np.concatenate(
                [piece.ravel() for piece in pieces]))


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


def _train_run(*args, **kwargs):
    """A ``train_model`` run and what it shows of its epochs: every loss in
    order (each epoch's training loss, then its validation loss),
    ``best_epoch`` and ``stopped_epoch``."""
    losses = []
    real = train_mod.weighted_cross_entropy

    def spy(*loss_args, **loss_kwargs):
        losses.append(real(*loss_args, **loss_kwargs))
        return losses[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train_mod, "weighted_cross_entropy", spy)
        model = popgcn.train_model(*args, **kwargs)
    return model, (losses, model.best_epoch, model.stopped_epoch)


class TestTrainModel:
    def test_bitwise_deterministic(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config()
        a, run_a = _train_run(ds, props, config, seed=3)
        b, run_b = _train_run(ds, props, config, seed=3)
        assert run_a == run_b
        assert np.array_equal(a.params.omega, b.params.omega)
        for wa, wb in zip(a.params.layers, b.params.layers):
            assert np.array_equal(wa, wb)

    def test_omega_frozen_through_first_phase(self, monkeypatch):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config(phase1_epochs=5, max_total_epochs=12)
        # omega at each call that evaluates an epoch, after its Adam step
        omegas = []
        real = train_mod.model_forward

        def spy(props, features, params, *args, training, **kwargs):
            if not training or kwargs.get("with_eval"):
                omegas.append(params.omega.tolist())
            return real(props, features, params, *args, training=training,
                        **kwargs)

        monkeypatch.setattr(train_mod, "model_forward", spy)
        model = popgcn.train_model(ds, props, config, seed=4)
        m = len(props)
        assert len(omegas) == model.stopped_epoch > 5
        for omega in omegas[:5]:
            assert omega == [1.0 / m] * m
        assert any(omega != [1.0 / m] * m for omega in omegas[5:])

    def test_one_filter_update_per_epoch_plus_omega_in_phase_two(
            self, monkeypatch):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config(hidden_dims=(6, 4), phase1_epochs=5,
                              max_total_epochs=12)
        sizes = []
        real = popgcn.Adam.update

        def spy(self, key, param, grad):
            sizes.append(param.size)
            return real(self, key, param, grad)

        monkeypatch.setattr(popgcn.Adam, "update", spy)
        model = popgcn.train_model(ds, props, config, seed=4)
        n_filters = sum(w.size for w in model.params.layers)
        m = len(props)
        assert model.stopped_epoch > config.phase1_epochs
        assert sizes == [n_filters] * config.phase1_epochs + \
            [n_filters, m] * (model.stopped_epoch - config.phase1_epochs)

    def test_best_epoch_is_first_validation_minimum(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        model, (losses, _, _) = _train_run(ds, props, quick_config(), seed=5)
        val_losses = losses[1::2]
        assert len(losses) == 2 * len(val_losses)
        assert model.best_epoch == int(np.argmin(val_losses))
        assert model.stopped_epoch == len(val_losses)

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
        a, run_a = _train_run(ds, props, config, seed=7,
                              train_idx=fold.train_idx)
        b, run_b = _train_run(tampered, props, config, seed=7,
                              train_idx=fold.train_idx)
        assert run_a == run_b
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
        assert model.stopped_epoch <= 20
        assert model.best_epoch >= 0


def _separate_forwards(dataset, props, config, seed):
    """``train_model`` with one training and one evaluation forward per
    epoch, in that order: best parameters, best and stopped epochs."""
    rng = np.random.default_rng(seed)
    labels, features = dataset.labels, dataset.features
    opt_idx, val_idx = _stratified_holdout(labels, np.arange(dataset.n_nodes),
                                           config.val_fraction, rng)
    params = popgcn.init_params(dataset.n_features, config.hidden_dims,
                                dataset.n_classes, len(props), rng)
    weights = popgcn.class_weights(labels, opt_idx)
    optimizer = popgcn.Adam(config.learning_rate)
    best_loss, best_params, best_epoch, stale = np.inf, params.copy(), -1, 0
    for epoch in range(config.max_total_epochs):
        phase2 = epoch >= config.phase1_epochs
        if epoch == config.phase1_epochs:
            stale = 0
        trace = popgcn.model_forward(props, features, params,
                                     config.dropout_rate, rng, training=True)
        grads = popgcn.compute_gradients(trace, labels, opt_idx, weights,
                                         config.l2_coeff, params)
        for i, (theta, grad) in enumerate(zip(params.layers, grads.layers)):
            optimizer.update(("theta", i), theta, grad)
        if phase2:
            optimizer.update(("omega",), params.omega, grads.omega)
        probs = popgcn.model_forward(props, features, params).probabilities
        val_loss = popgcn.weighted_cross_entropy(probs, labels, val_idx,
                                                 weights)
        if val_loss < best_loss:
            best_loss, best_params, best_epoch, stale = \
                val_loss, params.copy(), epoch, 0
        else:
            stale += 1
            if phase2 and stale >= config.patience:
                break
    return best_params, best_epoch, epoch + 1


# a fold that runs to its budget and one that stops early, both under dropout
SCHEDULES = [dict(phase1_epochs=5, max_total_epochs=20, patience=30),
             dict(phase1_epochs=2, max_total_epochs=400, patience=5)]
SCHEDULE_IDS = ["to_budget", "stops_early"]


class TestPairedSchedule:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
    def test_matches_separate_forwards(self, schedule):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config(hidden_dims=(12, 4), **schedule)
        model = popgcn.train_model(ds, props, config, seed=10)
        params, best_epoch, stopped_epoch = _separate_forwards(
            ds, props, config, seed=10)
        assert (model.best_epoch, model.stopped_epoch) == \
            (best_epoch, stopped_epoch)
        assert (stopped_epoch == config.max_total_epochs) == \
            (schedule is SCHEDULES[0])
        for got, want in zip([*model.params.layers, model.params.omega],
                             [*params.layers, params.omega]):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
    def test_operator_passes_per_branch(self, schedule, monkeypatch):
        # per layer: one pass in the fold's opening forward, then per epoch
        # one backward pass and one pass shared by its evaluation and the
        # next epoch's training forward
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config(hidden_dims=(12, 4), **schedule)
        applied = []
        real = popgcn.PropagationMatrix.apply

        def spy(prop, h):
            applied.append(prop)
            return real(prop, h)

        monkeypatch.setattr(popgcn.PropagationMatrix, "apply", spy)
        model = popgcn.train_model(ds, props, config, seed=10)
        n_layers = len(config.hidden_dims) + 1
        assert [sum(prop is p for p in applied) for prop in props] == \
            [n_layers * (2 * model.stopped_epoch + 1)] * len(props)

    @pytest.mark.parametrize("dropout_rate", [0.3, 0.0])
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
    def test_probabilities_are_those_of_best_params(self, schedule,
                                                    dropout_rate):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        config = quick_config(hidden_dims=(12, 4), dropout_rate=dropout_rate,
                              **schedule)
        model = popgcn.train_model(ds, props, config, seed=10)
        assert (model.stopped_epoch == config.max_total_epochs) == \
            (schedule is SCHEDULES[0])
        fresh = popgcn.model_forward(props, ds.features,
                                     model.params).probabilities
        np.testing.assert_allclose(model.probabilities, fresh, rtol=1e-12)
        assert np.array_equal(model.probabilities.argmax(axis=1),
                              fresh.argmax(axis=1))


class TestEvaluate:
    def _oracle_model(self):
        params = popgcn.ModelParams([np.eye(3)[None]], np.array([1.0]))
        probabilities = np.full((3, 3), 0.1) + 0.7 * np.eye(3)
        return popgcn.TrainedModel(params=params, probabilities=probabilities,
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

    def test_refuses_dataset_of_another_size(self):
        dataset = popgcn.Dataset(np.eye(4), np.array([0, 1, 2, 0]),
                                 np.zeros((4, 1)), ("e",), 3)
        with pytest.raises(ValueError, match="3 nodes, dataset has 4"):
            popgcn.evaluate(self._oracle_model(), dataset, [0])

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

    def test_runs_of_one_seed_and_fold_count_share_one_split(
            self, monkeypatch, serial_folds):
        # one report per run, each the report of that run alone, and one
        # split per distinct (seed, folds)
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        configs = [quick_config(), quick_config(hidden_dims=(4,)),
                   quick_config(seed=1), quick_config(folds=2)]
        alone = [_stripped(report) for config in configs
                 for report in train_mod.cross_validate(ds, [(config, props)])]
        splits = []
        real_split = train_mod.cv_folds_and_seeds

        def counted_split(labels, config):
            splits.append((config.seed, config.folds))
            return real_split(labels, config)

        monkeypatch.setattr(train_mod, "cv_folds_and_seeds", counted_split)
        reports = train_mod.cross_validate(
            ds, [(config, props) for config in configs])
        assert [_stripped(report) for report in reports] == alone
        assert splits == [(0, 3), (1, 3), (0, 2)]


def _stripped(report) -> str:
    """A report's JSON text with every ``wall_clock_sec`` removed."""
    payload = report.to_dict()
    for entry in payload["folds"]:
        entry.pop("wall_clock_sec")
    return json.dumps(payload, sort_keys=True)


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
        assert _stripped(popgcn.run_cv(ds, config)) == \
            _stripped(popgcn.run_cv(ds, config))

    def test_numpy_scalar_config_reports_as_plain_one(self):
        # the report echoes the config, so NumPy scalars must be stored as
        # the plain numbers json.dumps can write
        ds = quick_dataset()
        plain = quick_config(seed=1, folds=2, hidden_dims=(8,),
                             learning_rate=0.5)
        numpy = quick_config(seed=np.int64(1), folds=np.int64(2),
                             hidden_dims=(np.int32(8),),
                             learning_rate=np.float32(0.5))
        assert _stripped(popgcn.run_cv(ds, numpy)) == \
            _stripped(popgcn.run_cv(ds, plain))

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

    def test_accuracy_scored_only_by_evaluate(self, monkeypatch,
                                              serial_folds):
        # training keeps no per-epoch record, so it never scores accuracy;
        # evaluate scores the test and the training nodes of each fold
        callers = []
        real = train_mod.accuracy

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "accuracy", spy)
        config = quick_config()
        popgcn.run_cv(quick_dataset(), config)
        assert callers == ["evaluate"] * (2 * config.folds)

    def test_one_forward_per_epoch_plus_one_per_fold(self, monkeypatch,
                                                     serial_folds):
        # the fold's opening forward, then one per epoch; evaluate scores the
        # probabilities that chose the checkpoint and runs none
        callers, per_fold = [], []
        real_forward = train_mod.model_forward
        real_train = train_mod.train_model

        def forward_spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_forward(*args, **kwargs)

        def train_spy(*args, **kwargs):
            before = len(callers)
            model = real_train(*args, **kwargs)
            per_fold.append((len(callers) - before, model.stopped_epoch + 1))
            return model

        monkeypatch.setattr(train_mod, "model_forward", forward_spy)
        monkeypatch.setattr(train_mod, "train_model", train_spy)
        config = quick_config()
        popgcn.run_cv(quick_dataset(), config)
        assert len(per_fold) == config.folds
        assert all(calls == want for calls, want in per_fold)
        assert callers == ["train_model"] * sum(want for _, want in per_fold)

    def test_config_immutable_across_run(self):
        ds = quick_dataset()
        config = quick_config()
        popgcn.run_cv(ds, config)
        assert config == quick_config()
        assert dataclasses.asdict(config) == dataclasses.asdict(quick_config())


class TestFoldWorkers:
    """The rule that gives the CPUs either to BLAS threads or to folds."""

    @pytest.fixture
    def host(self, monkeypatch):
        """A main process of one thread that may fork, on a host with
        ``cpus`` CPUs and OpenBLAS on ``threads``."""
        def make(cpus, threads):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
            monkeypatch.setattr(train_mod, "_blas_threads", lambda: threads)
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["fork", "spawn", "forkserver"])
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: types.SimpleNamespace(daemon=False))
            monkeypatch.setattr(threading, "active_count", lambda: 1)
        return make

    def test_cpu_count_stands_in_where_sched_getaffinity_is_missing(
            self, host, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        host(cpus=8, threads=1)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert train_mod._fold_workers(10) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert train_mod._fold_workers(10) == 1

    @pytest.mark.parametrize("cpus, threads, folds, workers", [
        (8, 1, 3, 3),    # capped at the folds
        (8, 1, 10, 8),   # capped at the CPUs
        (8, 2, 10, 4),   # capped at the CPUs per BLAS thread
        (8, 3, 10, 2),
        (2, 1, 10, 2),   # 2 CPUs, BLAS pinned to one thread
        (2, 2, 10, 1),   # an unpinned OpenBLAS already uses every CPU
        (2, 4, 10, 1),   # more BLAS threads than CPUs
        (1, 1, 10, 1),
    ])
    def test_cpus_go_to_blas_threads_or_to_folds(self, host, cpus, threads,
                                                 folds, workers):
        host(cpus, threads)
        assert train_mod._fold_workers(folds) == workers

    def test_capped_at_the_folds_of_every_run(self, host, monkeypatch):
        # two runs of 3 folds are 6 jobs for one pool, not 3 for each of two
        host(8, 1)
        asked = []
        real_workers = train_mod._fold_workers

        def spy(n_jobs):
            asked.append((n_jobs, real_workers(n_jobs)))
            return 1  # train here: the host above is not this machine

        monkeypatch.setattr(train_mod, "_fold_workers", spy)
        ds = quick_dataset()
        config = quick_config(max_total_epochs=20, phase1_epochs=5)
        props = popgcn.build_propagation_matrices(ds)
        train_mod.cross_validate(ds, [(config, props), (config, props[:1])])
        assert asked == [(6, 6)]

    def test_no_openblas_runs_serially(self, host):
        host(8, None)
        assert train_mod._fold_workers(10) == 1

    def test_daemonic_process_runs_serially(self, host, monkeypatch):
        # a daemonic process may not start children
        host(8, 1)
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: types.SimpleNamespace(daemon=True))
        assert train_mod._fold_workers(10) == 1

    def test_no_fork_runs_serially(self, host, monkeypatch):
        host(8, 1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert train_mod._fold_workers(10) == 1

    def test_other_threads_run_serially(self, host, monkeypatch):
        host(8, 1)
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert train_mod._fold_workers(10) == 1

    def test_probe_reads_the_loaded_openblas(self):
        _skip_without_openblas()
        assert _run_python(
            "import popgcn.train; print(popgcn.train._blas_threads())"
        ).stdout.strip() == "1"


def _skip_without_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name")).lower():
        pytest.skip(f"NumPy uses {blas.get('name')}, not OpenBLAS")


# A run_cv report digest of the acceptance cohort, seed 1, with serial
# folds, and the OpenBLAS thread count before and after it.
BLAS_RECIPE = """
import hashlib, json
import popgcn, popgcn.train as train
from helpers import strip_wall_clock
train._fold_workers = lambda n_jobs: 1
dataset = popgcn.generate_synthetic(popgcn.SynthConfig(
    n_nodes=300, n_features=20, n_classes=3, class_separation=0.5,
    informative_elements=(("informative", 0.9),), noise_elements=("noise",),
    seed=1))
before = train._blas_threads()
report = popgcn.run_cv(dataset, popgcn.TrainConfig(
    seed=1, folds=5, phase1_epochs=40, max_total_epochs=70, patience=30))
text = json.dumps(strip_wall_clock(report.to_dict()), sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest(), before, train._blas_threads())
"""


def test_report_same_under_one_and_two_blas_threads():
    # two OpenBLAS threads round the similarity's product differently from
    # one, enough to move this recipe's omega in the 16th digit; the
    # product runs on one thread, and the setting is restored after it
    _skip_without_openblas()
    digests = []
    for threads in ("1", "2"):
        done = _run_python(BLAS_RECIPE, blas_threads=threads)
        assert done.returncode == 0, done.stderr
        digest, before, after = done.stdout.split()
        assert before == after
        digests.append(digest)
    assert digests[0] == digests[1]


SRC = Path(popgcn.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

# Runs folds with the worker count of argv[1] and records the pid of every
# train_model call in argv[2]/pids, and every process pool it starts in
# argv[2]/pools, one line naming the command that started it. With argv[3]
# "report" it writes a run_cv report and runs compare on the config argv[4];
# with "exit" or "raise" a fold worker dies or raises and cv runs on argv[4];
# with "baseline" every fold on the no-graph operator raises, in any
# process, and with "subset" a worker dies in its first fold of a one-graph
# subset; compare runs on argv[4]. With "daemon" run_cv runs inside a
# daemonic pool worker on a host whose rule gives 2 workers. With "group" or
# "parent" the first fold sends SIGINT to the process group or to the
# process that runs cv, then sleeps as if it trained on; cv runs, and with
# "parent" a bystander child is started first, and the exit code is 99 if
# the interrupt ended it too.
FORKED_RUN = """
import concurrent.futures, json, multiprocessing, os, signal, subprocess, sys
import time
import popgcn.cli
import popgcn.train as train
from helpers import quick_config, quick_dataset

workers, out, mode, config = sys.argv[1:]
parent = os.getpid()
real_train = train.train_model
real_pool = concurrent.futures.ProcessPoolExecutor
command = "cv"


class RecordedPool(real_pool):
    def __init__(self, *args, **kwargs):
        with open(os.path.join(out, "pools"), "a") as handle:
            handle.write(f"{command}\\n")
        super().__init__(*args, **kwargs)


def recorded(dataset, props, config, *args, **kwargs):
    with open(os.path.join(out, "pids"), "a") as handle:
        handle.write(f"{os.getpid()}\\n")
    if os.getpid() != parent and mode == "exit":
        os._exit(1)
    if os.getpid() != parent and mode == "raise":
        raise train.TrainingError("non-finite training loss at epoch 3")
    if mode == "baseline" and props[0].matrix is None:
        raise train.TrainingError("non-finite training loss at epoch 3 of "
                                  f"hidden_dims {config.hidden_dims}")
    if (os.getpid() != parent and mode == "subset"
            and len(config.edge_rules) == 1):
        os._exit(1)
    if mode in ("group", "parent"):
        if mode == "group":
            os.killpg(0, signal.SIGINT)
        else:
            os.kill(parent, signal.SIGINT)
        time.sleep(60)
    return real_train(dataset, props, config, *args, **kwargs)


def run_cv():
    return popgcn.run_cv(quick_dataset(), quick_config()).to_dict()


train.train_model = recorded
concurrent.futures.ProcessPoolExecutor = RecordedPool
if mode == "daemon":
    train._blas_threads = lambda: 1
    os.sched_getaffinity = lambda pid: {0, 1}
    with multiprocessing.get_context("fork").Pool(1) as pool:
        report = pool.apply(run_cv)
    sys.exit(0 if report["mean_acc"] > 0 else 1)
train._fold_workers = lambda n_jobs: min(int(workers), n_jobs)
if mode == "parent":
    bystander = subprocess.Popen([sys.executable, "-c",
                                  "import time; time.sleep(60)"])
    code = popgcn.cli.main(["cv", "--config", config])
    spared = bystander.poll() is None
    bystander.kill()
    bystander.wait()
    sys.exit(code if spared else 99)
if mode == "report":
    with open(os.path.join(out, "cv.json"), "w") as handle:
        json.dump(run_cv(), handle)
    command = "compare"
    sys.exit(popgcn.cli.main(["compare", "--config", config,
                              "--out", os.path.join(out, "compare.json")]))
if mode in ("baseline", "subset"):
    command = "compare"
    sys.exit(popgcn.cli.main(["compare", "--config", config]))
sys.exit(popgcn.cli.main(["cv", "--config", config]))
"""


def _run_python(code, *args, blas_threads="1"):
    """``code`` in a fresh interpreter with OpenBLAS on ``blas_threads``,
    by default one, so that a fork sees no BLAS thread, and with every
    warning an error. It leads a process group of its own, so a signal it
    sends to its group stays there; the group id is ``.pid`` of the
    result."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    with subprocess.Popen([sys.executable, "-W", "error", "-c", code,
                           *map(str, args)], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as process:
        try:
            stdout, stderr = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            raise
    done = subprocess.CompletedProcess(process.args, process.returncode,
                                       stdout, stderr)
    done.pid = process.pid
    return done


def _group_ends(group, seconds=5.0):
    """Whether no process of ``group`` is left within ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def _forked_run(tmp_path, workers, mode):
    out = tmp_path / f"{mode}{workers}"
    out.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"synth": {"n_nodes": 36, "n_features": 8, "n_classes": 3,
                           "class_separation": 2.0,
                           "informative_elements": [["informative", 0.9]],
                           "noise_elements": ["noise"], "seed": 11}},
        "train": {"hidden_dims": [8], "phase1_epochs": 5,
                  "max_total_epochs": 12, "patience": 5, "folds": 3}}))
    done = _run_python(FORKED_RUN, workers, out, mode, config)
    pids = [int(line) for line in (out / "pids").read_text().split()]
    return done, out, pids


def _pools(out):
    """The command that started each process pool of a forked run."""
    path = out / "pools"
    return path.read_text().split() if path.exists() else []


def _without_wall_clock(path):
    return json.dumps(strip_wall_clock(json.loads(path.read_text())),
                      sort_keys=True)


class TestForkedFolds:
    def test_reports_same_in_this_process_and_in_workers(self, tmp_path):
        runs = {}
        for workers in (1, 2):
            done, out, pids = _forked_run(tmp_path, workers, "report")
            assert done.returncode == 0, done.stderr
            runs[workers] = out, pids
        (serial, serial_pids), (forked, forked_pids) = runs[1], runs[2]
        for name in ("cv.json", "compare.json"):
            assert _without_wall_clock(serial / name) == \
                _without_wall_clock(forked / name)
        # one process trained every fold serially; with two workers no fold
        # trained in the process that started them
        assert len(set(serial_pids)) == 1
        assert len(forked_pids) == len(serial_pids)
        assert not set(forked_pids) & set(serial_pids)
        assert len(set(forked_pids)) > 1

    def test_run_cv_and_compare_each_start_one_pool(self, tmp_path):
        # the folds of every compare method train in one pool of workers
        done, out, _ = _forked_run(tmp_path, 2, "report")
        assert done.returncode == 0, done.stderr
        assert _pools(out) == ["cv", "compare"]
        done, out, _ = _forked_run(tmp_path, 1, "report")
        assert done.returncode == 0, done.stderr
        assert _pools(out) == []

    def test_killed_worker_is_one_error_line(self, tmp_path):
        done, _, pids = _forked_run(tmp_path, 2, "exit")
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: a fold worker exited without a result, for example "
            "because it was killed"]
        assert pids

    def test_training_error_in_worker_reaches_main_unchanged(self, tmp_path):
        done, _, pids = _forked_run(tmp_path, 2, "raise")
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: non-finite training loss at epoch 3"]
        assert pids

    def test_baseline_error_is_the_serial_line(self, tmp_path):
        # dense_nn and linear both fail; dense_nn comes first in the report,
        # so its error is the one line, whichever fold fails first
        lines = {}
        for workers in (1, 2):
            done, out, pids = _forked_run(tmp_path, workers, "baseline")
            assert done.returncode == 1
            lines[workers] = done.stderr.splitlines()
            assert pids
        assert lines[1] == lines[2] == [
            "error: non-finite training loss at epoch 3 of hidden_dims (8,)"]
        assert _pools(out) == ["compare"]

    def test_worker_dying_in_a_subset_fold_is_one_error_line(self, tmp_path):
        done, out, pids = _forked_run(tmp_path, 2, "subset")
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "error: a fold worker exited without a result, for example "
            "because it was killed"]
        assert _pools(out) == ["compare"]
        assert pids

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("target", ["group", "parent"])
    def test_interrupt_ends_every_process_with_one_line(self, tmp_path,
                                                        workers, target):
        # the interrupted fold would sleep for 60 s if it were left to run
        started = time.monotonic()
        done, _, pids = _forked_run(tmp_path, workers, target)
        assert time.monotonic() - started < 30
        assert done.returncode == 130
        assert done.stderr.splitlines() == ["error: interrupted"]
        assert _group_ends(done.pid)
        assert pids

    def test_result_waits_through_the_futures_timeout(self):
        # before Python 3.11 a future's timeout is not the builtin one
        from concurrent.futures import TimeoutError as FutureTimeout

        class Slow:
            waits = 0

            def result(self, timeout):
                self.waits += 1
                if self.waits < 3:
                    raise FutureTimeout
                return "entry"

        slow = Slow()
        assert train_mod._result(slow) == "entry" and slow.waits == 3

    def test_import_leaves_the_process_pool_unloaded(self):
        # the forked path imports these on first use, so that the time of
        # ``import popgcn`` does not grow with them
        done = _run_python("import sys, popgcn; print(*sys.modules)")
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "popgcn.train" in loaded
        assert not {"multiprocessing", "concurrent.futures"} & loaded

    def test_daemonic_worker_trains_its_folds_itself(self, tmp_path):
        # a forked pool would fail: daemonic processes may not have children
        done, _, pids = _forked_run(tmp_path, 2, "daemon")
        assert done.returncode == 0, done.stderr
        assert len(set(pids)) == 1 and len(pids) == quick_config().folds
