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

import numpy as np

from .baselines import (BaselineKind, averaged_propagation, baseline_run,
                        subset_runs)
from .data import (DataError, Dataset, SynthConfig, _typed, _write_files,
                   generate_synthetic, load_dataset, save_dataset)
from .graph import (EdgeRule, GraphError, build_affinity_matrices,
                    build_propagation_matrices, default_edge_rules,
                    graph_statistics, normalize_affinity, rules_or_defaults)
from .model import finite_diff_check, init_params
from .train import TrainConfig, TrainingError, cross_validate

GRADCHECK_TOLERANCE = 1e-5

_BASELINE_NAMES = {kind.value for kind in BaselineKind}
_DATA_PATHS = ("features", "labels", "demographics")


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


class _JSONObject(dict):
    """A parsed JSON object; ``repeated`` is the first key it gave twice."""

    repeated = None


def _json_object(pairs) -> _JSONObject:
    """``json.loads`` object hook that keeps the last value of a key, as the
    default does, and records the first repeated key."""
    obj = _JSONObject(pairs)
    seen = set()
    for key, _ in pairs:
        if key in seen:
            obj.repeated = key
            break
        seen.add(key)
    return obj


def _check_keys(path: str, raw, keys) -> dict:
    """``raw``, checked to be a JSON object that repeats no key and has no
    key outside ``keys``."""
    if not isinstance(raw, dict):
        raise ConfigError(path, "must be an object")
    prefix = "" if path == "$" else f"{path}."
    repeated = getattr(raw, "repeated", None)
    if repeated is not None:
        raise ConfigError(f"{prefix}{repeated}", "repeated key")
    unknown = sorted(set(raw) - set(keys), key=str)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}", "unknown key")
    return raw


def _parse_dataclass(path: str, raw, cls, skip=()):
    """Build dataclass ``cls`` from a JSON object whose allowed keys are the
    fields of ``cls`` not in ``skip``; a field with no default is required.
    ``cls`` checks the values, and an error naming a field gets its path."""
    allowed = [field for field in fields(cls) if field.name not in skip]
    _check_keys(path, raw, [field.name for field in allowed])
    for field in allowed:
        if field.default is MISSING and field.name not in raw:
            raise ConfigError(f"{path}.{field.name}", "missing")
    return _checked(path, cls, **raw)


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a refusal names ``path`` and its field."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
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
    for i, name in enumerate(names):
        if not isinstance(name, str) or name not in _BASELINE_NAMES:
            raise ConfigError(field, f"unknown baseline {name!r}; "
                                     f"choose from {sorted(_BASELINE_NAMES)}")
        if name in names[:i]:
            raise ConfigError(field, f"repeated baseline {name!r}")
    return names


def _path(field: str, value, kind=str):
    """``value`` checked against ``kind``; a path, if given, is not empty."""
    value = _typed(field, value, kind, ConfigError)
    if value == "":
        raise ConfigError(field, "must not be an empty path")
    return value


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
             {key: _path(f"data.{key}", data.get(key)) for key in _DATA_PATHS})
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
            _typed(f"compare.subsets[{i}]", subset, tuple[str, ...],
                   ConfigError)
    return RunConfig(synth=synth, data_paths=paths, train=train,
                     edge_rules=rules,
                     out=_path("out", raw.get("out"), str | None),
                     baselines=list(baselines), subsets=subsets)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("$", f"config file not found: {path}")
    if path.is_dir():
        raise ConfigError("--config", f"{str(path)!r} is a directory")
    try:
        raw = json.loads(path.read_text(), object_pairs_hook=_json_object)
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


def ablate_graph_subsets(dataset: Dataset, config: TrainConfig,
                         subsets) -> dict:
    """Each subset's report by its key: the ``subset_runs`` runs trained in
    one ``cross_validate`` call, every subset checked before any build."""
    rules = rules_or_defaults(dataset, config.edge_rules)
    subset_runs(dataset, config, [None] * len(rules), subsets)  # refuse early
    props = build_propagation_matrices(dataset, rules)
    runs = subset_runs(dataset, config, props, subsets)
    reports = cross_validate(
        dataset, [run or (config, props) for run in runs.values()])
    return {key: report.to_dict() for key, report in zip(runs, reports)}


def _default_subsets(dataset: Dataset) -> list[list[str]]:
    names = list(dataset.element_names)
    return [[name] for name in names] + ([names] if len(names) > 1 else [])


def _write_report(report: dict, out_path: str | None) -> str:
    """Print or write ``report``; the summary line's `` -> path`` tail."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path is None:
        print(text)
        return ""
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_files([(path, lambda handle: handle.write(text + "\n"))])
    return f" -> {path}"


def _check_folder(field: str, folder: Path) -> None:
    """Refuse ``folder`` if the first of it and its parents to exist is not
    a directory: nothing could be written under it."""
    existing = [path for path in (folder, *folder.parents) if path.exists()]
    if existing and not existing[0].is_dir():
        raise ConfigError(field, f"{str(existing[0])!r} is not a directory")


def _set_up(args) -> tuple[RunConfig, Dataset, TrainConfig]:
    """Load ``--config`` with the flags folded in, materialize the dataset
    and resolve its edge rules into the train config."""
    run = load_run_config(args.config)
    given = {name: value for name in ("seed", "folds")
             if (value := getattr(args, name, None)) is not None}
    run.train = _checked("train", replace, run.train, **given)
    if run.synth is not None and "seed" in given:  # refused above if < 0
        run.synth = replace(run.synth, seed=given["seed"])
    if args.out is not None:
        run.out = _path("--out", args.out)
    if run.out is not None:  # refused before any work
        field = "out" if args.out is None else "--out"
        if Path(run.out).is_dir():
            raise ConfigError(field, f"{run.out!r} is a directory")
        _check_folder(field, Path(run.out).parent)
    if getattr(args, "baselines", None) is not None:
        run.baselines = _check_baselines("--baselines",
                                         args.baselines.split(","))
    if getattr(args, "subsets", None) is not None:
        run.subsets = [part.split("+") for part in args.subsets.split(",")]
    paths = run.data_paths
    dataset = (generate_synthetic(run.synth) if paths is None
               else load_dataset(paths["features"], paths["labels"],
                                 paths["demographics"]))
    rules = resolve_edge_rules(dataset, run.edge_rules)
    return run, dataset, replace(run.train, edge_rules=tuple(rules))


def cmd_synth(args) -> int:
    flags = {"n_nodes": args.nodes, "n_features": args.features,
             "n_classes": args.classes, "class_separation": args.separation,
             "informative_elements": args.informative and [
                 _parse_informative_flag(spec) for spec in args.informative],
             "noise_elements": args.noise, "seed": args.seed}
    given = {key: value for key, value in flags.items() if value is not None}
    config = _parse_dataclass("synth", given, SynthConfig)
    out = _path("--out", args.out)
    _check_folder("--out", Path(out))
    names = ("features", "labels", "demographics")
    for target in (Path(out) / f"{name}.csv" for name in names):
        if target.is_dir():  # refused before any file is written
            raise ConfigError("--out", f"{str(target)!r} is a directory")
    paths = save_dataset(generate_synthetic(config), out)
    for name in names:
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
    if tail := _write_report(report, run.out):
        print(f"graph-stats: {len(affinities)} graphs{tail}")
    return 0


def _cv_reports(dataset: Dataset, runs) -> list[dict]:
    """``cross_validate`` of ``runs`` as report dicts. A class with fewer
    members than the fold count is named as ``train.folds``, which
    ``--folds`` also sets."""
    try:
        return [report.to_dict() for report in cross_validate(dataset, runs)]
    except DataError as err:
        if err.field != "k":  # stratified_kfold's class-count rule
            raise
        raise ConfigError("train.folds", str(err)) from None


def cmd_cv(args) -> int:
    run, dataset, config = _set_up(args)
    props = build_propagation_matrices(dataset, config.edge_rules)
    report, = _cv_reports(dataset, [(config, props)])
    tail = _write_report(report, run.out)
    print(f"cv: mean_acc={report['mean_acc']:.4f} "
          f"std_acc={report['std_acc']:.4f} folds={config.folds}{tail}",
          file=sys.stderr)
    _warn_untrained_omega(report)
    return 0


def _warn_untrained_omega(report: dict) -> None:
    """Say on stderr how many folds of the ``cv`` report ``report`` took
    their checkpoint in phase one although phase two ran: each kept the
    1/M omega it was frozen at. Silent when none did."""
    phase1 = report["config"]["phase1_epochs"]
    folds = report["folds"]
    untrained = sum(fold["best_epoch"] < phase1 < fold["stopped_epoch"]
                    for fold in folds)
    if untrained:
        print(f"warning: omega untrained in {untrained}/{len(folds)} folds "
              "(checkpoint before phase two)", file=sys.stderr)


def cmd_compare(args) -> int:
    """The proposed model, each baseline and each graph subset, every fold
    of every method trained through one ``cross_validate`` call, so that
    they share one split and at most one pool of fold workers."""
    run, dataset, config = _set_up(args)
    subsets = (_default_subsets(dataset) if run.subsets is None
               else run.subsets)
    # refuse a bad subset before any build; None stands in for each operator
    _checked("compare", subset_runs, dataset, config,
             [None] * len(config.edge_rules), subsets)
    affinities = build_affinity_matrices(dataset, config.edge_rules)
    # only avg_gcn reads the affinities: average them before each becomes
    # its operator, in place
    averaged = (averaged_propagation(affinities)
                if "avg_gcn" in run.baselines else None)
    props = [normalize_affinity(a, out=a.weights) for a in affinities]
    # the full subset is the proposed run itself and reuses its report
    ablated = subset_runs(dataset, config, props, subsets)
    runs = [(config, props),
            *(baseline_run(dataset, config, BaselineKind(name), averaged)
              for name in run.baselines),
            *filter(None, ablated.values())]
    proposed, *reports = _cv_reports(dataset, runs)
    baselines = {name: {"kind": name, **section}
                 for name, section in zip(run.baselines, reports)}
    trained = iter(reports[len(run.baselines):])
    report = {
        "config": proposed["config"],
        "split_hash": proposed["split_hash"],
        "proposed": proposed,
        "baselines": baselines,
        "subsets": {key: proposed if entry is None else next(trained)
                    for key, entry in ablated.items()},
    }
    tail = _write_report(report, run.out)
    ranked = {name: entry["mean_acc"] for name, entry in baselines.items()}
    ranked["proposed"] = proposed["mean_acc"]
    summary = " ".join(f"{name}={acc:.4f}"
                       for name, acc in sorted(ranked.items()))
    print(f"compare: {summary}{tail}", file=sys.stderr)
    _warn_untrained_omega(proposed)
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

    run = argparse.ArgumentParser(add_help=False)  # of the run commands
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int)
    run.add_argument("--out")

    stats = sub.add_parser("graph-stats", parents=[run],
                           help="per-element graph statistics as JSON")
    stats.set_defaults(func=cmd_graph_stats)

    cv = sub.add_parser("cv", parents=[run],
                        help="stratified cross-validation report")
    cv.add_argument("--folds", type=int)
    cv.set_defaults(func=cmd_cv)

    compare = sub.add_parser(
        "compare", parents=[run],
        help="model vs baselines plus graph-subset ablations")
    compare.add_argument("--folds", type=int)
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
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
