"""Span tracing of popgcn's public functions, applied from outside the package.

A ``Tracer`` replaces each traced function with a wrapper that records one
span ``[name, start, end, parent]`` per call, in memory. Every module
attribute that names the original function is patched, so re-imports such as
``popgcn.train.model_forward`` and ``popgcn.baselines.model_forward`` are
traced too. ``per_layer_metrics`` turns the spans of one op into the
``<module>.<what>`` metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

MODULES = ("popgcn", "popgcn.data", "popgcn.graph", "popgcn.model",
           "popgcn.train", "popgcn.baselines", "popgcn.cli")


def _forward_name(args, kwargs) -> str:
    training = kwargs.get("training", args[5] if len(args) > 5 else False)
    return "model.forward_train" if training else "model.forward_eval"


def _count_operator_bytes(tracer, prop) -> None:
    tracer.counts["graph.operator_bytes"] += prop.matrix.nbytes


def _count_epochs(tracer, model) -> None:
    tracer.counts["train.epochs"] += model.stopped_epoch
    tracer.counts["train.useful_epochs"] += model.best_epoch + 1


# (home module, attribute, span name or namer, result hook)
TRACED = (
    ("popgcn.data", "generate_synthetic", "data.synth", None),
    ("popgcn.data", "load_dataset", "data.load", None),
    ("popgcn.data", "stratified_kfold", "data.kfold", None),
    ("popgcn.graph", "similarity_matrix", "graph.similarity", None),
    ("popgcn.graph", "build_edge_matrix", "graph.edges", None),
    ("popgcn.graph", "build_affinity", "graph.affinity", None),
    ("popgcn.graph", "normalize_affinity", "graph.normalize",
     _count_operator_bytes),
    ("popgcn.model", "model_forward", _forward_name, None),
    ("popgcn.model", "gc_layer_forward", "model.layer", None),
    ("popgcn.model", "compute_gradients", "model.backward", None),
    ("popgcn.train", "Adam.update", "train.adam", None),
    ("popgcn.train", "train_model", "train.loop", _count_epochs),
    ("popgcn.train", "evaluate", "train.evaluate", None),
    ("popgcn.train", "run_cv", "train.run_cv", None),
    ("popgcn.baselines", "run_baseline_cv", "baselines.run", None),
    ("popgcn.baselines", "averaged_propagation", "baselines.avg_prop", None),
    ("popgcn.cli", "main", "cli.main", None),
    ("popgcn.cli", "load_run_config", "cli.parse", None),
    ("popgcn.cli", "ablate_graph_subsets", "cli.ablate", None),
)

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "graph.similarity_s": "s", "graph.edges_s": "s", "graph.affinity_s": "s",
    "graph.normalize_s": "s", "graph.builds": "count",
    "graph.operator_bytes": "B",
    "model.forward_train_s": "s", "model.forward_train_calls": "count",
    "model.forward_eval_s": "s", "model.forward_eval_calls": "count",
    "model.layer_s": "s", "model.layer_calls": "count",
    "model.forward_self_s": "s", "model.backward_s": "s",
    "train.adam_s": "s", "train.adam_calls": "count",
    "train.loop_self_s": "s", "train.evaluate_s": "s",
    "train.epochs": "count", "train.useful_epoch_ratio": "ratio",
    "baselines.run_s": "s", "baselines.avg_prop_s": "s",
    "baselines.avg_prop_calls": "count",
    "cli.parse_s": "s", "cli.ablate_s": "s", "cli.self_s": "s",
    "data.load_s": "s", "data.kfold_calls": "count", "data.synth_s": "s",
    "trace.spans": "count", "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; ``install`` patches popgcn while active."""

    def __init__(self):
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh span list and counts, e.g. for the next op."""
        self.spans: list[list] = []
        self.counts = {"graph.operator_bytes": 0, "train.epochs": 0,
                       "train.useful_epochs": 0}

    def _wrap(self, fn, name, hook):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, clock(), 0.0, stack[-1] if stack else -1]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every traced function wherever a popgcn module names it."""
        self.reset()
        modules = [importlib.import_module(name) for name in MODULES]
        undo = []
        try:
            for home, attr, name, hook in TRACED:
                owner = importlib.import_module(home)
                if "." in attr:  # a method: patch it on its class
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    targets = [owner]
                else:
                    targets = modules
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name, hook)
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                            undo.append((target, key, original))
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)


def write_spans(path, ops) -> None:
    """Write the spans of every traced op as JSON lines: op, name, start,
    end, parent (an index into the same op's spans, -1 for none)."""
    with open(path, "w") as handle:
        for op, spans in enumerate(ops):
            for name, start, end, parent in spans:
                handle.write(json.dumps([op, name, start, end, parent]) + "\n")


def per_layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer totals of one op from its spans and result counts.

    Self time of a span is its duration minus the durations of its direct
    children; spans nest strictly because popgcn runs in one thread.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for name, start, end, parent in spans:
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration
        if parent >= 0:
            parent_name = spans[parent][0]
            self_time[parent_name] = self_time.get(parent_name, 0.0) - duration

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    forward = t("model.forward_train") + t("model.forward_eval")
    epochs = counts["train.epochs"]
    return {
        "graph.similarity_s": t("graph.similarity"),
        "graph.edges_s": t("graph.edges"),
        "graph.affinity_s": t("graph.affinity"),
        "graph.normalize_s": t("graph.normalize"),
        "graph.builds": n("graph.similarity"),
        "graph.operator_bytes": counts["graph.operator_bytes"],
        "model.forward_train_s": t("model.forward_train"),
        "model.forward_train_calls": n("model.forward_train"),
        "model.forward_eval_s": t("model.forward_eval"),
        "model.forward_eval_calls": n("model.forward_eval"),
        "model.layer_s": t("model.layer"),
        "model.layer_calls": n("model.layer"),
        "model.forward_self_s": forward - t("model.layer"),
        "model.backward_s": t("model.backward"),
        "train.adam_s": t("train.adam"),
        "train.adam_calls": n("train.adam"),
        "train.loop_self_s": self_time.get("train.loop", 0.0),
        "train.evaluate_s": t("train.evaluate"),
        "train.epochs": epochs,
        "train.useful_epoch_ratio": (counts["train.useful_epochs"] / epochs
                                     if epochs else 0.0),
        "baselines.run_s": t("baselines.run"),
        "baselines.avg_prop_s": t("baselines.avg_prop"),
        "baselines.avg_prop_calls": n("baselines.avg_prop"),
        "cli.parse_s": t("cli.parse"),
        "cli.ablate_s": t("cli.ablate"),
        "cli.self_s": sum(value for name, value in self_time.items()
                          if name.startswith("cli.")) + 0.0,
        "data.load_s": t("data.load"),
        "data.kfold_calls": n("data.kfold"),
        "trace.spans": len(spans),
    }
