"""The benchmark's workloads: inputs made from a seed, one timed op, checks.

Each workload has ``cohorts``, the number of input sets a run cycles
through; ``setup(seed, tmp)``, which builds one cohort's inputs from a seed;
``op(state)``, the timed call into popgcn's public API; and
``summarize(state, output)``, which checks the output and returns the op's
``epoch_ms``, ``fold_s``, ``mean_acc``, ``digest`` and ``problems`` (an empty
list when every check passed). popgcn functions are looked up on the package
at call time, so a traced run sees the patched ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

import popgcn
import popgcn.cli

# Floor on the proposed model's mean CV accuracy in every cv_* and compare
# report. No op fell below it in runs with seeds 1-10, whose reported
# mean_acc ranged over 0.87-0.95.
ACC_FLOOR = 0.8


def _strip_wall_clock(value):
    if isinstance(value, dict):
        return {key: _strip_wall_clock(item) for key, item in value.items()
                if key != "wall_clock_sec"}
    if isinstance(value, list):
        return [_strip_wall_clock(item) for item in value]
    return value


def report_digest(report) -> str:
    """sha256 of a report with every ``wall_clock_sec`` removed."""
    text = json.dumps(_strip_wall_clock(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def acceptance_cohort(seed: int) -> popgcn.SynthConfig:
    """The acceptance cohort: N=300, d=20, K=3, one informative element."""
    return popgcn.SynthConfig(
        n_nodes=300, n_features=20, n_classes=3, class_separation=0.5,
        informative_elements=(("informative", 0.9),),
        noise_elements=("noise",), seed=seed)


def expected_split_hash(labels, config) -> str:
    folds, _ = popgcn.cv_folds_and_seeds(labels, config)
    return popgcn.split_hash(folds)


def _check_cv_report(report, n_nodes, folds, split, floor, where="") -> list:
    problems = []
    if len(report["folds"]) != folds:
        problems.append(f"{where}{len(report['folds'])} folds, expected {folds}")
    if report["split_hash"] != split:
        problems.append(f"{where}split_hash {report['split_hash']} != {split}")
    tested = sum(int(np.sum(fold["confusion"])) for fold in report["folds"])
    if tested != n_nodes:
        problems.append(f"{where}test folds cover {tested} of {n_nodes} nodes")
    if floor is not None and not report["mean_acc"] >= floor:
        problems.append(f"{where}mean_acc {report['mean_acc']:.4f} < {floor}")
    return problems


def _fold_s(reports) -> float:
    """Mean per-fold wall time. A mean, not a median: compare reports mix
    cheap baseline folds with full-model folds, and the median of such a
    mixture jumps between the two groups from seed to seed."""
    walls = [fold["wall_clock_sec"] for report in reports
             for fold in report["folds"]]
    return sum(walls) / len(walls)


def _epoch_ms(reports) -> float:
    folds = [fold for report in reports for fold in report["folds"]]
    epochs = sum(fold["stopped_epoch"] for fold in folds)
    return 1000.0 * sum(fold["wall_clock_sec"] for fold in folds) / epochs


class CrossValidation:
    """``run_cv`` on synthetic cohorts; ops cycle through ``cohorts`` of them."""

    def __init__(self, cohort, train, cohorts: int = 1):
        self.cohort = cohort
        self.train = train
        self.cohorts = cohorts

    def setup(self, seed: int, tmp: Path) -> dict:
        dataset = popgcn.generate_synthetic(self.cohort(seed))
        config = self.train(seed)
        return {"dataset": dataset, "config": config,
                "split_hash": expected_split_hash(dataset.labels, config)}

    def op(self, state):
        return popgcn.run_cv(state["dataset"], state["config"]).to_dict()

    def summarize(self, state, report) -> dict:
        problems = _check_cv_report(
            report, state["dataset"].n_nodes, state["config"].folds,
            state["split_hash"], ACC_FLOOR)
        return {"epoch_ms": _epoch_ms([report]),
                "fold_s": _fold_s([report]),
                "mean_acc": report["mean_acc"],
                "digest": report_digest(report), "problems": problems}


class GraphBuild:
    """Propagation operators plus the graph-stats path, no training.

    Its work does not depend on the seed, so one cohort is enough.

    ``epoch_ms`` here is the build time per operator and ``fold_s`` the time
    of the graph-stats half, since the op trains nothing. ``mean_acc`` is
    the mean leave-one-out accuracy of one propagation step of the labels
    over each operator: it changes only if the graphs change.
    """

    cohorts = 1

    def setup(self, seed: int, tmp: Path) -> dict:
        dataset = popgcn.generate_synthetic(popgcn.SynthConfig(
            n_nodes=2000, n_features=500, n_classes=3, class_separation=1.0,
            informative_elements=(("site", 0.9), ("sex", 0.7)),
            noise_elements=("score", "volume"), seed=seed))
        rules = popgcn.default_edge_rules(dataset)
        kinds = [rule.kind for rule in rules]
        if kinds != [popgcn.EQUALITY] * 2 + [popgcn.THRESHOLD] * 2:
            raise RuntimeError(f"graph_large expects 2 equality and 2 "
                               f"threshold rules, got {kinds}")
        return {"dataset": dataset, "rules": rules}

    def op(self, state):
        dataset, rules = state["dataset"], state["rules"]
        started = time.perf_counter()
        props = popgcn.build_propagation_matrices(dataset, rules)
        built = time.perf_counter()
        affinities = popgcn.build_affinity_matrices(dataset, rules)
        stats = {"n_nodes": dataset.n_nodes,
                 "graphs": [popgcn.graph_statistics(a) for a in affinities]}
        stats_s = time.perf_counter() - built
        return props, affinities, stats, built - started, stats_s

    def summarize(self, state, output) -> dict:
        props, affinities, stats, build_s, stats_s = output
        labels = state["dataset"].labels
        one_hot = state["dataset"].one_hot()
        problems, accs = [], []
        digest = hashlib.sha256(json.dumps(stats, sort_keys=True).encode())
        for m, (prop, affinity) in enumerate(zip(props, affinities)):
            matrix = prop.matrix
            digest.update(matrix.tobytes())
            if not np.all(np.isfinite(matrix)):
                problems.append(f"operator {m} is not finite")
            if not np.array_equal(matrix, matrix.T):
                problems.append(f"operator {m} is not exactly symmetric")
            degrees = affinity.weights.sum(axis=1) + 1.0
            if not np.allclose(np.diagonal(matrix), 1.0 / degrees,
                               rtol=1e-12, atol=0.0):
                problems.append(f"operator {m} diagonal is not 1/degree")
            scores = matrix @ one_hot - np.diagonal(matrix)[:, None] * one_hot
            accs.append(float(np.mean(scores.argmax(axis=1) == labels)))
        if len(props) != len(state["rules"]):
            problems.append(f"{len(props)} operators for "
                            f"{len(state['rules'])} rules")
        return {"epoch_ms": 1000.0 * build_s / len(props), "fold_s": stats_s,
                "mean_acc": float(np.mean(accs)),
                "digest": digest.hexdigest(), "problems": problems}


class Compare:
    """``popgcn compare`` through ``cli.main`` on CSVs of the acceptance
    cohort: 5 folds, all three baselines, the default subsets."""

    FOLDS = 5
    # Every fold trains exactly 70 epochs (patience outlasts phase two), so
    # the op's work does not depend on where early stopping falls for a
    # seed, and one op takes 3-5 s on a 2-vCPU Xeon. The default schedule
    # takes 7-11 s per op there, and its seed-dependent stops spread op_s
    # across seeds by more than the bound.
    SCHEDULE = {"phase1_epochs": 40, "max_total_epochs": 70, "patience": 30}
    cohorts = 1
    BASELINES = ("avg_gcn", "dense_nn", "linear")
    SUBSETS = ("informative", "informative+noise", "noise")

    def setup(self, seed: int, tmp: Path) -> dict:
        dataset = popgcn.generate_synthetic(acceptance_cohort(seed))
        paths = popgcn.save_dataset(dataset, tmp / "data")
        config_path = tmp / "run.json"
        config_path.write_text(json.dumps({
            "data": {key: str(path) for key, path in paths.items()},
            "train": {"seed": seed, "folds": self.FOLDS, **self.SCHEDULE},
            "compare": {"baselines": list(self.BASELINES)},
        }))
        train = popgcn.TrainConfig(seed=seed, folds=self.FOLDS,
                                   **self.SCHEDULE)
        return {"argv": ["compare", "--config", str(config_path),
                         "--out", str(tmp / "report.json")],
                "out": tmp / "report.json", "n_nodes": dataset.n_nodes,
                "split_hash": expected_split_hash(dataset.labels, train)}

    def op(self, state):
        state["out"].unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = popgcn.cli.main(state["argv"])
        return code, stderr.getvalue()

    def summarize(self, state, output) -> dict:
        code, stderr = output
        if code != 0:
            raise RuntimeError(f"compare exited {code}: {stderr.strip()}")
        report = json.loads(state["out"].read_text())
        problems = []
        sections = {"config", "split_hash", "proposed", "baselines", "subsets"}
        if set(report) != sections:
            problems.append(f"report sections {sorted(report)}")
        if sorted(report["baselines"]) != list(self.BASELINES):
            problems.append(f"baselines {sorted(report['baselines'])}")
        if sorted(report["subsets"]) != list(self.SUBSETS):
            problems.append(f"subsets {sorted(report['subsets'])}")
        if report["split_hash"] != state["split_hash"]:
            problems.append(f"split_hash {report['split_hash']} != "
                            f"{state['split_hash']}")
        methods = {"proposed": report["proposed"],
                   **{f"baselines.{k}": v
                      for k, v in report["baselines"].items()},
                   **{f"subsets.{k}": v for k, v in report["subsets"].items()}}
        for where, section in methods.items():
            floor = ACC_FLOOR if where == "proposed" else None
            problems += _check_cv_report(
                section, state["n_nodes"], self.FOLDS, state["split_hash"],
                floor, where=f"{where}: ")
        trained = [report["proposed"], *report["subsets"].values()]
        return {"epoch_ms": _epoch_ms(trained),
                "fold_s": _fold_s(methods.values()),
                "mean_acc": report["proposed"]["mean_acc"],
                "digest": report_digest(report), "problems": problems}


WORKLOADS = {
    # Early stopping makes cv_small's work vary by about 10% from cohort to
    # cohort; three cohorts per run average that out of op_s.
    "cv_small": CrossValidation(
        acceptance_cohort, lambda seed: popgcn.TrainConfig(seed=seed),
        cohorts=3),
    # Ten epochs per fold, none stopped early, keep one op near 3 s, so a run
    # holds about ten ops whatever the seed.
    "cv_wide": CrossValidation(
        lambda seed: popgcn.SynthConfig(
            n_nodes=1000, n_features=500, n_classes=3, class_separation=1.0,
            informative_elements=(("informative", 0.9),),
            noise_elements=("noise",), seed=seed),
        lambda seed: popgcn.TrainConfig(
            seed=seed, folds=2, phase1_epochs=6, max_total_epochs=10,
            patience=20)),
    "graph_large": GraphBuild(),
    "compare_small": Compare(),
}
