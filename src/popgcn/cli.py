"""Command line: dataset synthesis, graph stats, cross-validation, comparisons.

Run configurations are JSON files with a ``data`` source (either the three CSV
paths or a ``synth`` recipe), optional ``train`` overrides, optional
``edge_rules`` overriding per-element defaults by name, an optional ``out``
path, and an optional ``compare`` block selecting baselines and graph subsets.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .baselines import BaselineKind, averaged_propagation, run_baseline_cv
from .data import (DataError, Dataset, SynthConfig, generate_synthetic,
                   load_dataset, save_dataset)
from .graph import (EdgeRule, GraphError, build_affinity_matrices,
                    build_propagation_matrices, default_edge_rules,
                    graph_statistics, normalize_affinity, rules_or_defaults)
from .model import finite_diff_check, init_params
from .train import TrainConfig, TrainingError, run_cv

GRADCHECK_TOLERANCE = 1e-5

_BASELINE_NAMES = {kind.value for kind in BaselineKind}
_DATA_PATHS = ("features", "labels", "demographics")
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


class ConfigError(ValueError):
    """Invalid run configuration; the message starts with the field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass
class RunConfig:
    """Parsed run configuration before the dataset is materialized."""

    synth: SynthConfig | None
    data_paths: dict[str, str] | None
    train: TrainConfig
    edge_rules: tuple[EdgeRule, ...]
    out: str | None
    baselines: list[str]
    subsets: list[list[str]] | None


def _typed(field: str, value, kind):
    """``value`` checked against the dataclass field type ``kind``: an int,
    float or str, an optional one that may be null, or a tuple of them
    written as a JSON list. A bool is never a number and a float never an
    int."""
    if get_origin(kind) is UnionType:  # "float | None"
        if value is None:
            return None
        kind = get_args(kind)[0]
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        variadic = kinds[-1] is Ellipsis
        if not isinstance(value, list) or not (variadic
                                                or len(value) == len(kinds)):
            size = "" if variadic else f" of {len(kinds)} items"
            raise ConfigError(field, f"must be a list{size}, "
                                     f"got {json.dumps(value)}")
        if variadic:
            kinds = kinds[:1] * len(value)
        return tuple(_typed(f"{field}[{i}]", item, item_kind)
                     for i, (item, item_kind) in enumerate(zip(value, kinds)))
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ConfigError(field, f"must be {_TYPE_NAMES[kind]}, "
                                 f"got {json.dumps(value)}")
    # NaN, the infinities and ints too large for a float fail this
    if kind is not str and not abs(value) <= sys.float_info.max:
        raise ConfigError(field, f"must be a finite number, "
                                 f"got {json.dumps(value)}")
    return value


def _check_keys(path: str, raw, keys) -> dict:
    """``raw``, checked to be a JSON object with no key outside ``keys``."""
    if not isinstance(raw, dict):
        raise ConfigError(path, "must be an object")
    unknown = sorted(set(raw) - set(keys), key=str)
    if unknown:
        prefix = "" if path == "$" else f"{path}."
        raise ConfigError(f"{prefix}{unknown[0]}", "unknown key")
    return raw


def _parse_dataclass(path: str, raw, cls, skip=()):
    """Build dataclass ``cls`` from a JSON object whose allowed keys and
    value types are the fields of ``cls`` not in ``skip``; a field with no
    default is required."""
    kinds = {name: kind for name, kind in get_type_hints(cls).items()
             if name not in skip}
    _check_keys(path, raw, kinds)
    for field in fields(cls):
        if field.default is MISSING and field.name not in raw:
            raise ConfigError(f"{path}.{field.name}", "missing")
    kwargs = {key: _typed(f"{path}.{key}", value, kinds[key])
              for key, value in raw.items()}
    try:
        return cls(**kwargs)
    except ValueError as err:  # an EdgeRule error names its field
        name = getattr(err, "field", None)
        raise ConfigError(f"{path}.{name}" if name else path,
                          str(err)) from None


def _parse_edge_rules(raw) -> tuple[EdgeRule, ...]:
    if not isinstance(raw, list):
        raise ConfigError("edge_rules", "must be a list")
    rules = []
    for i, entry in enumerate(raw):
        rule = _parse_dataclass(f"edge_rules[{i}]", entry, EdgeRule)
        if any(rule.element == earlier.element for earlier in rules):
            raise ConfigError(f"edge_rules[{i}].element",
                              f"a second rule for {rule.element!r}")
        rules.append(rule)
    return tuple(rules)


def _check_baselines(field: str, names) -> list:
    if not isinstance(names, list):
        raise ConfigError(field, "must be a list")
    for name in names:
        if not isinstance(name, str) or name not in _BASELINE_NAMES:
            raise ConfigError(field, f"unknown baseline {name!r}; "
                                     f"choose from {sorted(_BASELINE_NAMES)}")
    return names


def parse_run_config(raw) -> RunConfig:
    """Validate a raw config object; errors name the offending field."""
    _check_keys("$", raw, ("data", "train", "edge_rules", "compare", "out"))
    data = _check_keys("data", raw.get("data"), (*_DATA_PATHS, "synth"))
    has_synth = "synth" in data
    if has_synth == any(key in data for key in _DATA_PATHS):
        raise ConfigError(
            "data", "exactly one of csv paths or a synth recipe is required")
    synth = (_parse_dataclass("data.synth", data["synth"], SynthConfig)
             if has_synth else None)
    paths = (None if has_synth else
             {key: _typed(f"data.{key}", data.get(key), str)
              for key in _DATA_PATHS})
    # edge rules are the top-level "edge_rules" block, not a train key
    train = _parse_dataclass("train", raw.get("train", {}), TrainConfig,
                             skip=("edge_rules",))
    rules = _parse_edge_rules(raw.get("edge_rules", []))
    compare = _check_keys("compare", raw.get("compare", {}),
                          ("baselines", "subsets"))
    baselines = _check_baselines(
        "compare.baselines", compare.get("baselines", sorted(_BASELINE_NAMES)))
    subsets = compare.get("subsets")
    if subsets is not None:
        if (not isinstance(subsets, list)
                or not all(isinstance(s, list) and s for s in subsets)):
            raise ConfigError("compare.subsets",
                              "must be a list of non-empty name lists")
        for i, subset in enumerate(subsets):
            _typed(f"compare.subsets[{i}]", subset, tuple[str, ...])
    return RunConfig(synth=synth, data_paths=paths, train=train,
                     edge_rules=rules,
                     out=_typed("out", raw.get("out"), str | None),
                     baselines=list(baselines), subsets=subsets)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("$", f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except ValueError as err:  # also ints past the str conversion limit
        raise ConfigError("$", f"invalid JSON: {err}") from None
    return parse_run_config(raw)


def resolve_edge_rules(dataset: Dataset, overrides) -> list[EdgeRule]:
    """Per-element defaults, each replaced by the override for its element."""
    rules = {rule.element: rule for rule in default_edge_rules(dataset)}
    for i, rule in enumerate(overrides):
        if rule.element not in rules:
            raise ConfigError(f"edge_rules[{i}].element",
                              f"unknown element {rule.element!r}; "
                              f"available: {list(rules)}")
        rules[rule.element] = rule
    return list(rules.values())


def _resolve_subsets(dataset: Dataset, rules, subsets) -> dict:
    """Map each subset's report key to the positions of its rules in
    ``rules``; the key joins the names in dataset element order with "+"."""
    position = {rule.element: i for i, rule in enumerate(rules)}
    resolved = {}
    for subset in subsets:
        if not subset:
            raise ConfigError("compare.subsets", "empty graph subset")
        for name in subset:
            if name not in position:
                raise ConfigError("compare.subsets",
                                  f"unknown element {name!r}")
        names = [name for name in dataset.element_names if name in set(subset)]
        resolved["+".join(names)] = [position[name] for name in names]
    return resolved


def ablate_graph_subsets(dataset: Dataset, config: TrainConfig, subsets,
                         props=None, full_report=None) -> dict:
    """Cross-validate the model restricted to each requested graph subset.

    Subsets are lists of element names, all checked before any training;
    keys of the returned mapping join the names in dataset element order
    with "+". All subsets share the fold splits and per-fold seeds of
    ``config.seed``. Each subset trains on its slice of ``props``, the
    operators of the config's resolved edge rules (built here when omitted).
    A subset of every rule in order is the run of ``config`` itself: its
    report is ``full_report`` when one is given.
    """
    rules = rules_or_defaults(dataset, config.edge_rules)
    resolved = _resolve_subsets(dataset, rules, subsets)
    if props is None:
        props = build_propagation_matrices(dataset, rules)
    reports = {}
    for key, chosen in resolved.items():
        if chosen == list(range(len(rules))) and full_report is not None:
            reports[key] = full_report
        else:
            subset_config = replace(
                config, edge_rules=tuple(rules[i] for i in chosen))
            reports[key] = run_cv(dataset, subset_config,
                                  [props[i] for i in chosen]).to_dict()
    return reports


def _default_subsets(dataset: Dataset) -> list[list[str]]:
    singletons = [[name] for name in dataset.element_names]
    if dataset.n_elements > 1:
        return singletons + [list(dataset.element_names)]
    return singletons


def _write_report(report: dict, out_path: str | None) -> str | None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path is None:
        print(text)
        return None
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return str(path)


def _set_up(args) -> tuple[RunConfig, Dataset, TrainConfig]:
    """Load ``--config``, fold in the --seed, --folds, --out, --baselines and
    --subsets flags, materialize the dataset and resolve its edge rules into
    the train config."""
    run = load_run_config(args.config)
    if getattr(args, "seed", None) is not None:
        try:
            run.train = replace(run.train, seed=args.seed)
        except ValueError as err:
            raise ConfigError("train.seed", str(err)) from None
        if run.synth is not None:
            run.synth = replace(run.synth, seed=args.seed)
    if getattr(args, "folds", None) is not None:
        try:
            run.train = replace(run.train, folds=args.folds)
        except ValueError as err:
            raise ConfigError("train.folds", str(err)) from None
    run.out = getattr(args, "out", None) or run.out
    if getattr(args, "baselines", None) is not None:
        run.baselines = _check_baselines(
            "--baselines", [n for n in args.baselines.split(",") if n])
    if getattr(args, "subsets", None) is not None:
        run.subsets = [part.split("+")
                       for part in args.subsets.split(",") if part]
    paths = run.data_paths
    dataset = (generate_synthetic(run.synth) if paths is None
               else load_dataset(paths["features"], paths["labels"],
                                 paths["demographics"]))
    rules = resolve_edge_rules(dataset, run.edge_rules)
    return run, dataset, replace(run.train, edge_rules=tuple(rules))


def cmd_synth(args) -> int:
    given = {"n_nodes": args.nodes, "n_features": args.features,
             "n_classes": args.classes, "class_separation": args.separation,
             "informative_elements": args.informative and tuple(
                 _parse_informative_flag(spec) for spec in args.informative),
             "noise_elements": args.noise and tuple(args.noise),
             "seed": args.seed}
    config = SynthConfig(**{key: value for key, value in given.items()
                            if value is not None})
    paths = save_dataset(generate_synthetic(config), args.out)
    for name in ("features", "labels", "demographics"):
        print(f"{name}: {paths[name]}")
    return 0


def _parse_informative_flag(spec: str) -> tuple[str, float]:
    name, sep, corr = spec.rpartition(":")
    if not sep or not name:
        raise ConfigError("--informative", f"expected NAME:CORR, got {spec!r}")
    try:
        return name, float(corr)
    except ValueError:
        raise ConfigError("--informative",
                          f"correlation {corr!r} is not a number") from None


def cmd_graph_stats(args) -> int:
    run, dataset, config = _set_up(args)
    affinities = build_affinity_matrices(dataset, config.edge_rules)
    report = {"n_nodes": dataset.n_nodes,
              "graphs": [graph_statistics(a) for a in affinities]}
    written = _write_report(report, run.out)
    if written:
        print(f"graph-stats: {len(affinities)} graphs -> {written}")
    return 0


def cmd_cv(args) -> int:
    run, dataset, config = _set_up(args)
    report = run_cv(dataset, config).to_dict()
    written = _write_report(report, run.out)
    tail = f" -> {written}" if written else ""
    print(f"cv: mean_acc={report['mean_acc']:.4f} "
          f"std_acc={report['std_acc']:.4f} folds={config.folds}{tail}",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    run, dataset, config = _set_up(args)
    subsets = (_default_subsets(dataset) if run.subsets is None
               else run.subsets)
    _resolve_subsets(dataset, config.edge_rules, subsets)  # fail early
    affinities = build_affinity_matrices(dataset, config.edge_rules)
    props = [normalize_affinity(a) for a in affinities]
    # only avg_gcn reads the affinities: keep their average, not them
    averaged = (averaged_propagation(affinities)
                if "avg_gcn" in run.baselines else None)
    del affinities
    proposed = run_cv(dataset, config, props).to_dict()
    report = {
        "config": proposed["config"],
        "split_hash": proposed["split_hash"],
        "proposed": proposed,
        "baselines": {name: run_baseline_cv(dataset, config,
                                            BaselineKind(name), averaged)
                      for name in run.baselines},
        "subsets": ablate_graph_subsets(dataset, config, subsets, props,
                                        proposed),
    }
    written = _write_report(report, run.out)
    tail = f" -> {written}" if written else ""
    ranked = {name: entry["mean_acc"]
              for name, entry in report["baselines"].items()}
    ranked["proposed"] = proposed["mean_acc"]
    summary = " ".join(f"{name}={acc:.4f}"
                       for name, acc in sorted(ranked.items()))
    print(f"compare: {summary}{tail}", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    for flag, value, least in (("--seed", args.seed, 0),
                               ("--instances", args.instances, 1)):
        if value < least:
            raise ConfigError(flag, f"must be at least {least}, got {value}")
    results = gradcheck_instances(args.seed, args.instances)
    worst = 0.0
    for i, (n_nodes, err) in enumerate(results):
        print(f"instance {i}: n={n_nodes} max_rel_err={err:.3e}")
        worst = max(worst, err)
    print(f"max_relative_error={worst:.3e}")
    if worst < GRADCHECK_TOLERANCE:
        return 0
    print(f"error: gradient check failed: {worst:.3e} >= "
          f"{GRADCHECK_TOLERANCE:g}", file=sys.stderr)
    return 1


def gradcheck_instances(seed: int, instances: int) -> list[tuple[int, float]]:
    """Finite-difference checks of every coordinate on small random
    two-branch instances under the default ``TrainConfig``.

    Returns one (n_nodes, max_relative_error) pair per instance.
    """
    results = []
    config = TrainConfig()
    root = np.random.SeedSequence(seed)
    for child in root.spawn(instances):
        rng = np.random.default_rng(child)
        n_nodes = int(rng.integers(6, 13))
        synth = SynthConfig(
            n_nodes=n_nodes, n_features=4, n_classes=3, class_separation=1.5,
            informative_elements=(("informative", 0.8),),
            noise_elements=("noise",), seed=int(rng.integers(0, 2 ** 31)))
        dataset = generate_synthetic(synth)
        params = init_params(dataset.n_features, config.hidden_dims,
                             dataset.n_classes, dataset.n_elements, rng)
        err = finite_diff_check(dataset, params, config,
                                seed=int(rng.integers(0, 2 ** 31)))
        results.append((n_nodes, float(err)))
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popgcn",
        description="Multi-graph spectral GCN with attention-weighted fusion "
                    "for population-graph node classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic dataset as CSVs")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--nodes", type=int)
    synth.add_argument("--features", type=int)
    synth.add_argument("--classes", type=int)
    synth.add_argument("--separation", type=float)
    synth.add_argument("--informative", action="append", metavar="NAME:CORR",
                       help="informative element, repeatable "
                            "(default informative:0.9)")
    synth.add_argument("--noise", action="append", metavar="NAME",
                       help="noise element, repeatable (default noise)")
    synth.set_defaults(func=cmd_synth)

    stats = sub.add_parser("graph-stats",
                           help="per-element graph statistics as JSON")
    stats.add_argument("--config", required=True)
    stats.add_argument("--seed", type=int)
    stats.add_argument("--out")
    stats.set_defaults(func=cmd_graph_stats)

    cv = sub.add_parser("cv", help="stratified cross-validation report")
    cv.add_argument("--config", required=True)
    cv.add_argument("--seed", type=int)
    cv.add_argument("--folds", type=int)
    cv.add_argument("--out")
    cv.set_defaults(func=cmd_cv)

    compare = sub.add_parser(
        "compare", help="model vs baselines plus graph-subset ablations")
    compare.add_argument("--config", required=True)
    compare.add_argument("--seed", type=int)
    compare.add_argument("--folds", type=int)
    compare.add_argument("--out")
    compare.add_argument("--baselines", metavar="A,B,...",
                         help="comma list from linear,dense_nn,avg_gcn "
                              "(default all)")
    compare.add_argument("--subsets", metavar="A+B,C,...",
                         help="comma list of plus-joined element subsets "
                              "(default singletons plus the full set)")
    compare.set_defaults(func=cmd_compare)

    grad = sub.add_parser("gradcheck",
                          help="finite-difference gradient verification")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--instances", type=int, default=5)
    grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 1
    except (DataError, GraphError, TrainingError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
