"""End-to-end checks of the package's headline guarantees.

Every test prints one ``criterion N: PASS|FAIL (...)`` line; the repo's
default pytest options (-rP) surface those lines for passing tests too.
The shared cohort experiment (criteria 5-7) is cached in session fixtures so
the three criteria read one set of cross-validation runs.
"""

import hashlib
import json
import time

import numpy as np
import pytest

import popgcn
from popgcn.baselines import BaselineKind
from popgcn.cli import ablate_graph_subsets, gradcheck_instances, main

ACC_SEED = 20260817


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _strip_wall_clock(payload):
    if isinstance(payload, dict):
        return {key: _strip_wall_clock(value)
                for key, value in payload.items() if key != "wall_clock_sec"}
    if isinstance(payload, list):
        return [_strip_wall_clock(item) for item in payload]
    return payload


@pytest.fixture(scope="session")
def cohort():
    """N=300 cohort with one label-correlated element and one noise element."""
    return popgcn.generate_synthetic(popgcn.SynthConfig(
        n_nodes=300, n_features=20, n_classes=3, class_separation=0.5,
        informative_elements=(("informative", 0.9),),
        noise_elements=("noise",), seed=ACC_SEED))


@pytest.fixture(scope="session")
def cohort_config():
    # the ridge is deliberately strong: features alone must not be enough to
    # memorize the training nodes, otherwise graph quality stops mattering
    # and the fusion weights carry no signal
    return popgcn.TrainConfig(seed=ACC_SEED, folds=10, l2_coeff=2e-2)


@pytest.fixture(scope="session")
def singleton_runs(cohort, cohort_config):
    started = time.perf_counter()
    reports = ablate_graph_subsets(cohort, cohort_config,
                                   [["informative"], ["noise"]])
    return reports, time.perf_counter() - started


@pytest.fixture(scope="session")
def proposed_run(cohort, cohort_config):
    started = time.perf_counter()
    report = popgcn.run_cv(cohort, cohort_config).to_dict()
    return report, time.perf_counter() - started


@pytest.fixture(scope="session")
def averaged_run(cohort, cohort_config):
    started = time.perf_counter()
    result = popgcn.run_baseline_cv(cohort, cohort_config,
                                    BaselineKind.AVERAGED_GRAPH_GCN)
    return result, time.perf_counter() - started


def test_criterion_1_gradients_match_finite_differences():
    started = time.perf_counter()
    results = gradcheck_instances(seed=ACC_SEED, instances=5)
    elapsed = time.perf_counter() - started
    worst = max(err for _, err in results)
    ok = len(results) == 5 and worst < 1e-5 and elapsed < 10.0
    _verdict(1, ok, f"max_rel_err={worst:.3e} over {len(results)} instances "
                    f"in {elapsed:.1f}s")


def test_criterion_2_fusion_collapses_to_single_branch():
    rng = np.random.default_rng(ACC_SEED)
    ds = popgcn.generate_synthetic(popgcn.SynthConfig(
        n_nodes=40, n_features=8, n_classes=3, class_separation=1.0,
        informative_elements=(("informative", 0.8),),
        noise_elements=("noise",), seed=ACC_SEED))
    prop = popgcn.build_propagation_matrices(ds)[0]
    layers = popgcn.init_params(ds.n_features, (16,), ds.n_classes, 1,
                                rng).layers
    single = popgcn.ModelParams(layers, np.array([1.0]))
    tied = popgcn.ModelParams([np.repeat(w, 3, axis=0) for w in layers],
                              np.array([0.2, 0.3, 0.5]))
    single_probs = popgcn.model_forward([prop], ds.features,
                                        single).probabilities
    tied_probs = popgcn.model_forward([prop] * 3, ds.features,
                                      tied).probabilities
    deviation = float(np.max(np.abs(tied_probs - single_probs)))
    _verdict(2, deviation <= 1e-12, f"max_abs_dev={deviation:.3e}")


def test_criterion_3_normalization_invariants():
    rng = np.random.default_rng(ACC_SEED)
    symmetric_ok = diagonal_ok = True
    worst_radius = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        density = rng.uniform(0.05, 0.6)
        upper = np.triu((rng.random((n, n)) < density) * rng.random((n, n)), 1)
        weights = upper + upper.T
        prop = popgcn.normalize_affinity(popgcn.AffinityMatrix(weights))
        degrees = weights.sum(axis=1) + 1.0
        symmetric_ok &= bool(np.array_equal(prop.matrix, prop.matrix.T))
        diagonal_ok &= bool(np.allclose(np.diagonal(prop.matrix),
                                        1.0 / degrees, rtol=1e-12, atol=0.0))
        worst_radius = max(worst_radius,
                           np.abs(np.linalg.eigvals(prop.matrix)).max())
    ok = symmetric_ok and diagonal_ok and worst_radius <= 1.0 + 1e-9
    _verdict(3, ok, f"100 graphs: symmetric={symmetric_ok} "
                    f"diag=1/deg={diagonal_ok} "
                    f"worst_radius={worst_radius:.12f}")


def test_criterion_4_permutation_equivariance():
    worst = 0.0
    for child in np.random.SeedSequence(ACC_SEED).spawn(20):
        rng = np.random.default_rng(child)
        n = int(rng.integers(10, 41))
        ds = popgcn.generate_synthetic(popgcn.SynthConfig(
            n_nodes=n, n_features=6, n_classes=3, class_separation=1.0,
            informative_elements=(("informative", 0.8),),
            noise_elements=("noise",), seed=int(rng.integers(0, 2 ** 31))))
        props = popgcn.build_propagation_matrices(ds)
        params = popgcn.init_params(ds.n_features, (8,), ds.n_classes,
                                    len(props), rng)
        base = popgcn.model_forward(props, ds.features, params).probabilities
        perm = rng.permutation(n)
        permuted_props = [popgcn.PropagationMatrix(p.matrix[np.ix_(perm, perm)])
                          for p in props]
        permuted = popgcn.model_forward(permuted_props, ds.features[perm],
                                        params).probabilities
        worst = max(worst, float(np.max(np.abs(permuted - base[perm]))))
    _verdict(4, worst < 1e-10, f"20 instances, max_abs_dev={worst:.3e}")


def test_criterion_5_informative_graph_outperforms_noise_graph(singleton_runs):
    reports, elapsed = singleton_runs
    informative = reports["informative"]["mean_acc"]
    noise = reports["noise"]["mean_acc"]
    gap = informative - noise
    ok = gap >= 0.05 and elapsed < 300.0
    _verdict(5, ok, f"informative={informative:.3f} noise={noise:.3f} "
                    f"gap={gap:.3f} in {elapsed:.0f}s")


def test_criterion_6_fused_model_beats_averaged_graphs(proposed_run,
                                                       averaged_run):
    proposed, proposed_sec = proposed_run
    averaged, averaged_sec = averaged_run
    paired = proposed["split_hash"] == averaged["split_hash"]
    wins = sum(p["accuracy"] >= a["accuracy"]
               for p, a in zip(proposed["folds"], averaged["folds"]))
    elapsed = proposed_sec + averaged_sec
    ok = (paired and proposed["mean_acc"] >= averaged["mean_acc"]
          and wins >= 7 and elapsed < 600.0)
    _verdict(6, ok, f"proposed={proposed['mean_acc']:.3f} "
                    f"averaged={averaged['mean_acc']:.3f} "
                    f"paired_wins={wins}/10 in {elapsed:.0f}s")


def test_criterion_7_informative_graph_gets_the_larger_fusion_weight(
        proposed_run, cohort):
    report, _ = proposed_run
    informative = cohort.element_index("informative")
    noise = cohort.element_index("noise")
    folds_won = sum(
        fold["omega_normalized"][informative] > fold["omega_normalized"][noise]
        for fold in report["folds"])
    _verdict(7, folds_won >= 8,
             f"informative weight larger in {folds_won}/10 folds")


def test_criterion_8_separable_cohort_is_memorized():
    ds = popgcn.generate_synthetic(popgcn.SynthConfig(
        n_nodes=30, n_features=20, n_classes=3, class_separation=4.0,
        informative_elements=(("informative", 0.9),),
        noise_elements=("noise",), seed=ACC_SEED))
    config = popgcn.TrainConfig(dropout_rate=0.0, max_total_epochs=500,
                                patience=500, seed=ACC_SEED)
    props = popgcn.build_propagation_matrices(ds)
    model = popgcn.train_model(ds, props, config, seed=ACC_SEED)
    probs = popgcn.model_forward(props, ds.features,
                                 model.params).probabilities
    train_acc = popgcn.accuracy(probs, ds.labels, np.arange(ds.n_nodes))
    ok = train_acc >= 0.99 and model.stopped_epoch <= 500
    _verdict(8, ok, f"train_acc={train_acc:.3f} "
                    f"within {model.stopped_epoch} epochs")


def test_criterion_9_cli_reports_are_deterministic(tmp_path, capsys):
    raw = {
        "data": {"synth": {"n_nodes": 60, "n_features": 8, "n_classes": 3,
                           "class_separation": 1.5,
                           "informative_elements": [["informative", 0.9]],
                           "noise_elements": ["noise"], "seed": ACC_SEED}},
        "train": {"folds": 3, "phase1_epochs": 20, "max_total_epochs": 60,
                  "patience": 10, "seed": ACC_SEED},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    digests = []
    codes = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        codes.append(main(["cv", "--config", str(config_path),
                           "--out", str(out)]))
        stable = _strip_wall_clock(json.loads(out.read_text()))
        digests.append(hashlib.sha256(
            json.dumps(stable, sort_keys=True).encode()).hexdigest())
    capsys.readouterr()
    ok = codes == [0, 0] and digests[0] == digests[1]
    _verdict(9, ok, f"sha256 {digests[0][:12]} vs {digests[1][:12]}")
