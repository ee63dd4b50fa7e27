"""The traced bench run patches popgcn by name; every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("home, attr", [(home, attr)
                                        for home, attr, _, _ in spans.TRACED])
def test_traced_name_resolves_in_its_home_module(home, attr):
    owner = importlib.import_module(home)
    for part in attr.split("."):  # "Adam.update" resolves on the class
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_modules_import():
    for name in spans.MODULES:
        importlib.import_module(name)


def _forward_counts(folds, config):
    """Training and evaluation forwards of a cross-validation run. Each fold
    opens with a training forward; each epoch then ends in one training
    forward that also evaluates it, except the last epoch of the budget,
    which evaluates alone. ``evaluate`` adds none."""
    stopped = [fold["stopped_epoch"] for fold in folds]
    full = sum(epochs == config.max_total_epochs for epochs in stopped)
    return sum(stopped) + len(stopped) - full, full


def test_traced_run_counts_one_span_per_call(serial_folds):
    # a model signature change that mislabels spans (e.g. training read from
    # the wrong argument) or a layer loop that runs per branch shows here
    import popgcn
    from helpers import quick_config, quick_dataset

    ds = quick_dataset()
    config = quick_config(folds=2, hidden_dims=(6, 4))
    with spans.Tracer().install() as tracer:
        report = popgcn.run_cv(ds, config)
    names = [span[0] for span in tracer.spans]
    epochs = sum(fold["stopped_epoch"] for fold in report.folds)
    forwards = names.count("model.forward_train") + \
        names.count("model.forward_eval")
    assert (names.count("model.forward_train"),
            names.count("model.forward_eval")) == \
        _forward_counts(report.folds, config)
    n_layers = len(config.hidden_dims) + 1
    assert names.count("model.layer") == n_layers * forwards
    # one Adam step for all filters each epoch, plus omega's in phase two
    phase2 = sum(max(0, fold["stopped_epoch"] - config.phase1_epochs)
                 for fold in report.folds)
    assert names.count("train.adam") == epochs + phase2


@pytest.mark.parametrize("kind", ["linear", "dense_nn"])
def test_traced_baseline_counts_one_layer_span_per_layer(kind, serial_folds):
    # the "no graph" operator skips its product inside gc_layer_forward, so
    # model.layer still counts every layer of every baseline forward
    import popgcn
    from popgcn.baselines import BaselineKind
    from helpers import quick_config, quick_dataset

    config = quick_config(folds=2, hidden_dims=(6, 4))
    with spans.Tracer().install() as tracer:
        report = popgcn.run_baseline_cv(quick_dataset(), config,
                                        BaselineKind(kind))
    names = [span[0] for span in tracer.spans]
    forwards = names.count("model.forward_train") + \
        names.count("model.forward_eval")
    n_layers = 1 if kind == "linear" else len(config.hidden_dims) + 1
    assert names.count("baselines.run") == 1
    assert (names.count("model.forward_train"),
            names.count("model.forward_eval")) == \
        _forward_counts(report["folds"], config)
    assert names.count("model.layer") == n_layers * forwards


def test_traced_threaded_build_counts_one_span_per_stage_call(
        monkeypatch, threaded_build):
    # the build threads call the stages through popgcn.graph's names, so the
    # patched ones: one similarity per build, one of each stage per element
    import popgcn
    from helpers import quick_dataset

    ds = quick_dataset(noise_elements=("noise", "site"))
    with spans.Tracer().install() as tracer:
        props = popgcn.build_propagation_matrices(ds)
    names = [span[0] for span in tracer.spans]
    assert len(props) == ds.n_elements == 3
    assert names.count("graph.similarity") == 1
    for stage in ("graph.edges", "graph.affinity", "graph.normalize"):
        assert names.count(stage) == ds.n_elements, stage
    # the Tracer's counts take no lock, so the byte total is checked on a
    # serial build only
    monkeypatch.setattr(popgcn.graph, "_build_threads", lambda n_elements: 1)
    with spans.Tracer().install() as tracer:
        popgcn.build_propagation_matrices(ds)
    assert tracer.counts["graph.operator_bytes"] == \
        ds.n_elements * ds.n_nodes ** 2 * 8
