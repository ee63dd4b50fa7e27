import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import popgcn
from popgcn import model as model_mod
from popgcn.cli import (ConfigError, RunConfig, _default_subsets,
                        ablate_graph_subsets, gradcheck_instances,
                        load_run_config, main, parse_run_config,
                        resolve_edge_rules)
from helpers import quick_dataset, strip_wall_clock

SYNTH_RECIPE = {
    "n_nodes": 36, "n_features": 8, "n_classes": 3, "class_separation": 2.0,
    "informative_elements": [["informative", 0.9]],
    "noise_elements": ["noise"], "seed": 11,
}

QUICK_TRAIN = {
    "hidden_dims": [8], "phase1_epochs": 5, "max_total_epochs": 12,
    "patience": 5, "folds": 2, "seed": 0,
}


def write_config(tmp_path, name="config.json", **extra):
    raw = {"data": {"synth": dict(SYNTH_RECIPE)}, "train": dict(QUICK_TRAIN)}
    raw.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestParseRunConfig:
    def test_minimal_synth_config(self):
        run = parse_run_config({"data": {"synth": dict(SYNTH_RECIPE)}})
        assert run.synth.n_nodes == 36
        assert run.data_paths is None
        assert run.train == popgcn.TrainConfig()
        assert run.baselines == ["avg_gcn", "dense_nn", "linear"]
        assert run.subsets is None

    def test_requires_exactly_one_data_source(self):
        with pytest.raises(ConfigError, match="^data:"):
            parse_run_config({"data": {}})
        both = {"features": "f", "labels": "l", "demographics": "d",
                "synth": dict(SYNTH_RECIPE)}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config({"data": both})

    def test_unknown_synth_key_names_field(self):
        raw = {"data": {"synth": {**SYNTH_RECIPE, "nodes": 5}}}
        with pytest.raises(ConfigError, match=r"data\.synth\.nodes"):
            parse_run_config(raw)

    def test_unknown_train_key_names_field(self):
        raw = {"data": {"synth": dict(SYNTH_RECIPE)}, "train": {"lr": 0.1}}
        with pytest.raises(ConfigError, match=r"train\.lr"):
            parse_run_config(raw)

    def test_invalid_train_value_reported(self):
        raw = {"data": {"synth": dict(SYNTH_RECIPE)},
               "train": {"dropout_rate": 1.5}}
        with pytest.raises(ConfigError,
                           match=r"^train\.dropout_rate: dropout_rate"):
            parse_run_config(raw)

    def test_edge_rule_validation(self):
        base = {"data": {"synth": dict(SYNTH_RECIPE)}}
        with pytest.raises(ConfigError, match=r"edge_rules\[0\]\.element"):
            parse_run_config({**base, "edge_rules": [{"kind": "equality"}]})
        with pytest.raises(ConfigError, match=r"edge_rules\[0\]\.kind"):
            parse_run_config({**base, "edge_rules": [
                {"element": "age", "kind": "fuzzy"}]})
        with pytest.raises(ConfigError, match=r"edge_rules\[1\]\.beta"):
            parse_run_config({**base, "edge_rules": [
                {"element": "age", "kind": "equality"},
                {"element": "iq", "kind": "threshold"}]})

    def test_unknown_baseline_rejected(self):
        raw = {"data": {"synth": dict(SYNTH_RECIPE)},
               "compare": {"baselines": ["svm"]}}
        with pytest.raises(ConfigError, match="unknown baseline 'svm'"):
            parse_run_config(raw)

    def test_malformed_subsets_rejected(self):
        raw = {"data": {"synth": dict(SYNTH_RECIPE)},
               "compare": {"subsets": [[]]}}
        with pytest.raises(ConfigError, match=r"compare\.subsets"):
            parse_run_config(raw)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)


@pytest.mark.parametrize("extra, field", [
    ({"compare": {"baselines": "linear"}}, "compare.baselines"),
    ({"compare": {"baselines": [{}]}}, "compare.baselines"),
    ({"edge_rules": [{"element": "age", "beta": "abc"}]}, "edge_rules[0].beta"),
    ({"train": {**QUICK_TRAIN, "hidden_dims": "16"}}, "train.hidden_dims"),
    ({"train": {**QUICK_TRAIN, "hidden_dims": 16}}, "train.hidden_dims"),
    ({"train": {**QUICK_TRAIN, "hidden_dims": [16.0]}},
     "train.hidden_dims[0]"),
    ({"train": {**QUICK_TRAIN, "dropout_rate": False}}, "train.dropout_rate"),
    ({"train": {**QUICK_TRAIN, "max_total_epochs": 20.5}},
     "train.max_total_epochs"),
    ({"train": {**QUICK_TRAIN, "seed": 1.5}}, "train.seed"),
    ({"data": {"synth": {**SYNTH_RECIPE, "informative_elements": 5}}},
     "data.synth.informative_elements"),
    ({"data": {"synth": {**SYNTH_RECIPE,
                         "informative_elements": [["a", 0.9, 1]]}}},
     "data.synth.informative_elements[0]"),
    ({"data": {"synth": {**SYNTH_RECIPE, "n_nodes": True}}},
     "data.synth.n_nodes"),
    # a range refusal names its field; these rows keep the ids they had
    # when it named only the section
    pytest.param({"train": {**QUICK_TRAIN, "seed": -1}}, "train.seed",
                 id="extra12-train"),
    pytest.param({"data": {"synth": {**SYNTH_RECIPE, "seed": -1}}},
                 "data.synth.seed", id="extra13-data.synth"),
    ({"train": {**QUICK_TRAIN, "learning_rate": math.nan}},
     "train.learning_rate"),
    ({"train": {**QUICK_TRAIN, "l2_coeff": math.inf}}, "train.l2_coeff"),
    ({"data": {"synth": {**SYNTH_RECIPE, "class_separation": math.nan}}},
     "data.synth.class_separation"),
    ({"edge_rules": [{"element": "noise", "beta": 10 ** 400}]},
     "edge_rules[0].beta"),
    ({"train": {**QUICK_TRAIN, "learning_rate": 10 ** 400}},
     "train.learning_rate"),
    ({"edge_rules": [{"element": "noise", "kind": "equality",
                      "beta": math.nan}]}, "edge_rules[0].beta"),
    ({"compare": {"baseline": ["linear"]}}, "compare.baseline"),
    ({"edge_rule": [{"element": "noise", "kind": "equality"}]}, "edge_rule"),
    ({"data": {"synth": dict(SYNTH_RECIPE), "featurs": "f.csv"}},
     "data.featurs"),
    ({"edge_rules": [{"element": "noise", "weight": 2.0}]},
     "edge_rules[0].weight"),
    ({"edge_rules": [{"element": 5, "kind": "equality"}]},
     "edge_rules[0].element"),
    ({"compare": {"subsets": [["informative"], [5]]}},
     "compare.subsets[1][0]"),
    ({"data": {"features": 1, "labels": "l.csv", "demographics": "d.csv"}},
     "data.features"),
    ({"out": 5}, "out"),
    ({"edge_rules": [{"element": "noise", "kind": "equality"},
                     {"element": "noise", "beta": 0.5}]},
     "edge_rules[1].element"),
    # integers outside int64 in float fields: the range checks see them
    pytest.param({"train": {**QUICK_TRAIN, "learning_rate": -2 ** 63 - 1}},
                 "train.learning_rate", id="extra29-train"),
    pytest.param({"data": {"synth": {**SYNTH_RECIPE,
                                     "class_separation": -2 ** 63 - 1}}},
                 "data.synth.class_separation", id="extra30-data.synth"),
    # sizes whose N x N graph or N x d features no array can hold
    pytest.param({"data": {"synth": {**SYNTH_RECIPE, "n_nodes": 10 ** 300}}},
                 "data.synth.n_nodes", id="extra31-data.synth"),
    pytest.param({"data": {"synth": {**SYNTH_RECIPE,
                                     "n_nodes": 4_000_000_000}}},
                 "data.synth.n_nodes", id="extra32-data.synth"),
    pytest.param({"data": {"synth": {**SYNTH_RECIPE, "n_features": 2 ** 62}}},
                 "data.synth.n_features", id="extra33-data.synth"),
    # empty paths are refused before the dataset is built
    ({"out": ""}, "out"),
    ({"data": {"features": "", "labels": "l.csv", "demographics": "d.csv"}},
     "data.features"),
    ({"data": {"features": "f.csv", "labels": "", "demographics": "d.csv"}},
     "data.labels"),
    ({"data": {"features": "f.csv", "labels": "l.csv", "demographics": ""}},
     "data.demographics"),
])
def test_malformed_field_named_through_main(tmp_path, capsys, extra, field):
    config = write_config(tmp_path, **extra)
    assert main(["compare", "--config", config]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: config: {field}: ")


@pytest.mark.parametrize("raised, line", [
    (MemoryError("Unable to allocate 8.00 GiB"),
     "error: out of memory: Unable to allocate 8.00 GiB"),
    (MemoryError(), "error: out of memory"),
])
def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch, raised,
                                  line):
    def exhausted(config):
        raise raised

    monkeypatch.setattr(popgcn.cli, "generate_synthetic", exhausted)
    assert main(["cv", "--config", write_config(tmp_path)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [line]


@pytest.mark.parametrize("argv", [
    ["cv", "--config", "CONFIG"], ["compare", "--config", "CONFIG"],
    ["graph-stats", "--config", "CONFIG"], ["synth"]])
def test_empty_out_flag_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path)
    argv = [config if arg == "CONFIG" else arg for arg in argv]
    assert main([*argv, "--out", ""]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: config: --out: must not be an empty path"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["cv", "compare", "graph-stats"])
@pytest.mark.parametrize("field", ["--out", "out"])
def test_out_naming_a_directory_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, field):
    # it was refused only when the report was written, after every fold
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(popgcn.cli, "generate_synthetic", no_work)
    monkeypatch.setattr(popgcn.graph, "similarity_matrix", no_work)
    if field == "--out":
        argv = ["--config", write_config(tmp_path), "--out", str(tmp_path)]
    else:
        argv = ["--config", write_config(tmp_path, out=str(tmp_path))]
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {field}: {str(tmp_path)!r} is a directory"]


@pytest.mark.parametrize("command", ["cv", "compare", "graph-stats"])
def test_config_naming_a_directory_is_one_config_line(tmp_path, capsys,
                                                      command):
    # reading it printed "error: [Errno 21] Is a directory"
    assert main([command, "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: --config: {str(tmp_path)!r} is a directory"]


@pytest.mark.parametrize("command", ["cv", "compare", "graph-stats"])
def test_missing_config_names_the_flag(tmp_path, capsys, command):
    # it named the document root "$", where a directory names --config
    missing = tmp_path / "nope.json"
    assert main([command, "--config", str(missing)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: --config: config file not found: {missing}"]


@pytest.mark.parametrize("command", ["cv", "compare", "graph-stats"])
@pytest.mark.parametrize("field", ["--out", "out"])
def test_out_under_a_file_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, field):
    # it was refused only when the report's folder was made, after every fold
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(popgcn.cli, "generate_synthetic", no_work)
    monkeypatch.setattr(popgcn.graph, "similarity_matrix", no_work)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = str(afile / "sub" / "report.json")
    if field == "--out":
        argv = ["--config", write_config(tmp_path), "--out", out]
    else:
        argv = ["--config", write_config(tmp_path, out=out)]
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: {field}: {str(afile)!r} is not a directory"]
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("key", ["features", "labels", "demographics"])
def test_data_path_naming_a_directory_is_one_line(tmp_path, capsys, key):
    # reading it printed "error: [Errno 21] Is a directory"
    paths = popgcn.save_dataset(quick_dataset(), tmp_path / "data")
    data = {name: str(path) for name, path in paths.items()}
    data[key] = str(tmp_path)
    config = write_config(tmp_path, data=data)
    for command in ("cv", "compare", "graph-stats"):
        assert main([command, "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path}: is a directory"]


def test_double_fault_named_alike_by_main_and_the_library(tmp_path, capsys):
    # a constant feature row and a finite column whose standard deviation
    # overflows: the commands and the library resolve the rules first
    ds = quick_dataset()
    ds.features[0] = 2.0
    noise = ds.demographics[:, ds.element_index("noise")]
    noise[2], noise[5] = 1e308, -1e308
    paths = popgcn.save_dataset(ds, tmp_path / "data")
    config = write_config(tmp_path, data={
        key: str(path) for key, path in paths.items()})
    message = ("element 'noise': the standard deviation of its column is "
               "not finite, so it has no default threshold")
    for command in ("cv", "compare", "graph-stats"):
        assert main([command, "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    loaded = popgcn.load_dataset(paths["features"], paths["labels"],
                                 paths["demographics"])
    for call in (lambda: popgcn.run_cv(loaded, popgcn.TrainConfig()),
                 lambda: popgcn.build_affinity_matrices(loaded),
                 lambda: popgcn.build_propagation_matrices(loaded)):
        with pytest.raises(popgcn.GraphError) as err:
            call()
        assert str(err.value) == message


# each setting refused once from its flag and once from the config file,
# with the same line; the ids name a row by its first two values
@pytest.mark.parametrize("command", ["cv", "compare"])
@pytest.mark.parametrize("flag, train, line", [
    (["--folds", "5"], QUICK_TRAIN,
     "train.folds: class 0 has 4 members, fewer than the 5 folds"),
    ([], {**QUICK_TRAIN, "folds": 5},
     "train.folds: class 0 has 4 members, fewer than the 5 folds"),
    (["--folds", "1"], QUICK_TRAIN, "train.folds: folds must be at least 2"),
    ([], {**QUICK_TRAIN, "folds": 1}, "train.folds: folds must be at least 2"),
    (["--seed", "-1"], QUICK_TRAIN, "train.seed: seed must be nonnegative"),
    ([], {**QUICK_TRAIN, "seed": -1}, "train.seed: seed must be nonnegative"),
], ids=[f"flag{i}-train{i}" for i in range(6)])
def test_too_many_folds_named_through_main(tmp_path, capsys, command, flag,
                                           train, line):
    # 12 nodes in 3 classes: 4 members each, too few for 5 folds
    config = write_config(tmp_path, train=train,
                          data={"synth": {**SYNTH_RECIPE, "n_nodes": 12}})
    assert main([command, "--config", config, *flag]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: config: {line}"]


def test_equality_rule_beta_refused_through_main(tmp_path, capsys):
    # equality edges ignore a beta, so a given one is refused, not echoed
    config = write_config(tmp_path, edge_rules=[
        {"element": "noise", "kind": "equality", "beta": 3.0}])
    assert main(["cv", "--config", config]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: config: edge_rules[0].beta: equality rules take no beta, "
        "got 3.0"]


# (keys down to the object that repeats a key, the key, its second value,
# field path); json.loads alone would keep the second value
@pytest.mark.parametrize("where, key, value, field", [
    ((), "out", "again.json", "out"),
    (("train",), "folds", 4, "train.folds"),
    (("data", "synth"), "seed", 12, "data.synth.seed"),
    (("edge_rules", 0), "kind", "equality", "edge_rules[0].kind"),
], ids=["root", "train", "data.synth", "edge_rules[0]"])
def test_repeated_key_named_through_main(tmp_path, capsys, monkeypatch, where,
                                         key, value, field):
    monkeypatch.chdir(tmp_path)
    raw = {"data": {"synth": dict(SYNTH_RECIPE)}, "train": dict(QUICK_TRAIN),
           "edge_rules": [{"element": "noise", "kind": "equality"}],
           "out": "report.json"}
    target = raw
    for step in where:
        target = target[step]
    assert key in target
    target["<repeat>"] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw).replace('"<repeat>"', json.dumps(key)))
    assert main(["cv", "--config", str(config)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: config: {field}: repeated key"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


# A config using every key; the CSV variant swaps in the three data paths.
FULL_CONFIG = {
    "data": {"synth": dict(SYNTH_RECIPE)},
    "train": {**QUICK_TRAIN, "dropout_rate": 0.3, "l2_coeff": 5e-4,
              "learning_rate": 0.01, "val_fraction": 0.1},
    "edge_rules": [{"element": "informative", "kind": "equality"},
                   {"element": "noise", "kind": "threshold", "beta": 0.2}],
    "compare": {"baselines": ["linear"],
                "subsets": [["informative"], ["informative", "noise"]]},
    "out": "report.json",
}
CSV_CONFIG = {**FULL_CONFIG, "data": {
    "features": "f.csv", "labels": "l.csv", "demographics": "d.csv"}}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["noise", "equality", "linear"]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6)


def _paths(value, prefix=()):
    """Every key path into a JSON value, its own empty path included."""
    yield prefix
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, (*prefix, key))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _mutants(base, value, key):
    """Copies of ``base``, one per path with ``value`` put there, and one
    per object with ``value`` added to it under the new ``key``."""
    for path in _paths(base):
        raw = copy.deepcopy(base)
        if not path:
            yield value
        else:
            _at(raw, path[:-1])[path[-1]] = value
            yield raw
    for path in _paths(base):
        raw = copy.deepcopy(base)
        target = _at(raw, path)
        if isinstance(target, dict) and key not in target:
            target[key] = value
            yield raw


@pytest.mark.parametrize("raw", [FULL_CONFIG, CSV_CONFIG])
def test_property_configs_are_valid(raw):
    assert isinstance(parse_run_config(copy.deepcopy(raw)), RunConfig)


@settings(max_examples=30, deadline=None)
@example(value=10 ** 400, key="x")
@example(value=-10 ** 400, key="x")
@example(value=math.nan, key="x")
@example(value=-math.inf, key="x")
@example(value=-2 ** 63 - 1, key="x")  # an int NumPy cannot hold
@given(value=JSON_VALUES, key=st.text(min_size=1, max_size=8))
def test_any_json_anywhere_parses_or_is_config_error(value, key):
    # parsing only: nothing is materialized, so no value can allocate much
    for base in (FULL_CONFIG, CSV_CONFIG):
        for raw in _mutants(base, value, key):
            try:
                assert isinstance(parse_run_config(raw), RunConfig)
            except ConfigError:
                pass


# a valid instance of each config dataclass, as constructor arguments
CONFIG_CLASSES = [(popgcn.TrainConfig, {}), (popgcn.SynthConfig, {}),
                  (popgcn.EdgeRule, {"element": "age", "beta": 2.0})]
# a rule between two fields names the one it bounds, not the one set
BOUNDED_BY = {"max_total_epochs": {"phase1_epochs"},
              "n_classes": {"n_nodes", "n_features"}, "kind": {"beta"}}


@settings(max_examples=30, deadline=None)
@example(value=10 ** 400)
@example(value=math.nan)
@example(value=[])
@given(value=JSON_VALUES)
def test_any_json_in_any_field_from_python_builds_or_names_it(value):
    for cls, base in CONFIG_CLASSES:
        for field in dataclasses.fields(cls):
            try:
                cls(**{**base, field.name: value})
            except ValueError as err:
                named = getattr(err, "field", None)
                if named is None:
                    # only the element-name rules involve no single
                    # field, and they see values of the field's type
                    assert field.name in ("informative_elements",
                                          "noise_elements")
                    assert not isinstance(value, (bool, dict, type(None)))
                else:
                    assert (named.startswith(field.name)
                            or named in BOUNDED_BY.get(field.name, ()))


class TestEdgeRuleResolution:
    def test_named_override_replaces_default(self):
        ds = quick_dataset()
        rules = resolve_edge_rules(ds, [
            popgcn.EdgeRule("noise", popgcn.EQUALITY)])
        assert rules[ds.element_index("noise")].kind == popgcn.EQUALITY
        defaults = popgcn.default_edge_rules(ds)
        informative = ds.element_index("informative")
        assert rules[informative] == defaults[informative]

    def test_unknown_element_names_field(self):
        ds = quick_dataset()
        with pytest.raises(ConfigError, match=r"edge_rules\[0\]\.element"):
            resolve_edge_rules(ds, [popgcn.EdgeRule("site", popgcn.EQUALITY)])

    def test_full_set_subset_is_the_model_run(self):
        ds = quick_dataset()
        config = popgcn.TrainConfig(**QUICK_TRAIN)
        reports = ablate_graph_subsets(ds, config, [["noise", "informative"]])
        assert list(reports) == ["informative+noise"]
        assert strip_wall_clock(reports["informative+noise"]) == \
            strip_wall_clock(popgcn.run_cv(ds, config).to_dict())

    def test_default_subsets_singletons_plus_full(self):
        ds = quick_dataset()
        assert _default_subsets(ds) == [["informative"], ["noise"],
                                        ["informative", "noise"]]


class TestSynthCommand:
    def _paths_from_stdout(self, out):
        return dict(line.split(": ", 1) for line in out.strip().splitlines())

    def test_writes_identical_files_for_same_seed(self, tmp_path, capsys):
        args = ["synth", "--seed", "5", "--nodes", "30", "--features", "6"]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        first = self._paths_from_stdout(capsys.readouterr().out)
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        second = self._paths_from_stdout(capsys.readouterr().out)
        assert set(first) == {"features", "labels", "demographics"}
        for key in first:
            with open(first[key], "rb") as fa, open(second[key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_custom_elements(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--nodes", "20",
                     "--informative", "site:0.7", "--noise", "scanner"])
        assert code == 0
        paths = self._paths_from_stdout(capsys.readouterr().out)
        with open(paths["demographics"]) as handle:
            header = handle.readline().strip()
        assert header == "site,scanner"

    def test_no_flags_writes_the_default_recipe(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
        written = self._paths_from_stdout(capsys.readouterr().out)
        expected = popgcn.save_dataset(
            popgcn.generate_synthetic(popgcn.SynthConfig()), tmp_path / "lib")
        assert set(written) == set(expected)
        for key, path in expected.items():
            assert Path(written[key]).read_bytes() == path.read_bytes()

    def test_bad_informative_flag(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--informative", "site"])
        assert code == 1
        assert "NAME:CORR" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--nodes", "4000000000"],
         "n_nodes 4000000000 makes an N x N graph of more than "),
        (["--classes", "1"], "n_classes must be at least 2"),
    ])
    def test_refused_recipe_is_one_config_line(self, tmp_path, capsys, flags,
                                               message):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), *flags]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        field = message.split()[0]  # each message opens with its field
        assert lines[0].startswith(f"error: config: synth.{field}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("flag, name", [
        ("--informative", "a,b"), ("--informative", 'a"b'),
        ("--informative", "a\nb"), ("--informative", "a\rb"),
        ("--noise", " scanner"), ("--noise", "scanner\t"), ("--noise", ""),
    ])
    def test_unreadable_element_name_writes_nothing(self, tmp_path, capsys,
                                                    flag, name):
        # the demographics header could not carry the name back, so the
        # files would fail or misread in every later command
        value = f"{name}:0.9" if flag == "--informative" else name
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), flag, value]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: element name {name!r} ")
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_out_at_or_under_a_file_refused_before_generating(
            self, tmp_path, capsys, monkeypatch, sub):
        # mkdir raised FileExistsError or NotADirectoryError, printed raw
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(popgcn.cli, "generate_synthetic", no_work)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main(["synth", "--out", str(afile / sub)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: --out: {str(afile)!r} is not a directory"]
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("name", ["features", "labels", "demographics"])
    def test_target_naming_a_directory_refused_before_writing(
            self, tmp_path, capsys, name):
        # the files before it were written, then IsADirectoryError printed raw
        target = tmp_path / f"{name}.csv"
        target.mkdir()
        assert main(["synth", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: --out: {str(target)!r} is a directory"]
        assert list(tmp_path.iterdir()) == [target]


    def test_failed_second_write_is_one_line_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        savetxt = np.savetxt
        calls = []

        def full_disk(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return savetxt(*args, **kwargs)

        monkeypatch.setattr(np, "savetxt", full_disk)
        assert main(["synth", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: [Errno 28] No space left on device"]
        assert list(tmp_path.iterdir()) == []


# so strong an L2 that each fold's best epoch comes before phase two, which
# then runs its patience out: the fold keeps the 1/M omega of phase one
COLLAPSING_TRAIN = {**QUICK_TRAIN, "phase1_epochs": 30,
                    "max_total_epochs": 80, "patience": 10, "l2_coeff": 5.0}
UNTRAINED_OMEGA = ("warning: omega untrained in 2/2 folds "
                   "(checkpoint before phase two)")


class TestCvCommand:
    @pytest.mark.parametrize("train, warned", [
        (QUICK_TRAIN, False), (COLLAPSING_TRAIN, True)],
        ids=["healthy", "collapsing"])
    def test_untrained_omega_is_one_more_stderr_line(
            self, tmp_path, capsys, train, warned):
        config = write_config(tmp_path, train=train)
        out = tmp_path / "report.json"
        assert main(["cv", "--config", config, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        phase1 = train["phase1_epochs"]
        assert [fold["best_epoch"] < phase1 < fold["stopped_epoch"]
                for fold in report["folds"]] == [warned, warned]
        summary = (f"cv: mean_acc={report['mean_acc']:.4f} "
                   f"std_acc={report['std_acc']:.4f} folds=2 -> {out}")
        assert capsys.readouterr().err.splitlines() == (
            [summary, UNTRAINED_OMEGA] if warned else [summary])

    def test_failed_report_write_keeps_the_old_report(
            self, tmp_path, capsys, monkeypatch):
        # the report used to be written in place: an interrupt or a full
        # disk mid-write left truncated JSON at its path
        config = write_config(tmp_path)
        out = tmp_path / "report.json"
        out.write_text("old\n")

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        assert main(["cv", "--config", config, "--out", str(out)]) == 130
        assert capsys.readouterr().err.splitlines() == ["error: interrupted"]
        assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json", out]
        assert out.read_text() == "old\n"

    def test_one_subject_is_one_error_line(self, tmp_path, capsys):
        assert main(["cv", "--config", _one_subject_config(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_report_written_and_deterministic(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["cv", "--config", config, "--out", str(out_a)]) == 0
        assert main(["cv", "--config", config, "--out", str(out_b)]) == 0
        report_a = json.loads(out_a.read_text())
        report_b = json.loads(out_b.read_text())
        assert strip_wall_clock(report_a) == strip_wall_clock(report_b)
        assert len(report_a["folds"]) == 2
        assert "mean_acc" in report_a and "split_hash" in report_a
        assert "cv: mean_acc=" in capsys.readouterr().err

    def test_report_to_stdout_without_out(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["cv", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["folds"] == 2

    def test_seed_flag_overrides_config_and_recipe(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["cv", "--config", config, "--seed", "123"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["seed"] == 123

    def test_folds_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["cv", "--config", config, "--folds", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["folds"]) == 3

    def test_csv_data_source(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "data"), "--nodes", "36",
                     "--features", "8", "--seed", "11",
                     "--separation", "2.0"]) == 0
        paths = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.strip().splitlines())
        config = write_config(tmp_path, data={
            "features": paths["features"], "labels": paths["labels"],
            "demographics": paths["demographics"]})
        assert main(["cv", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["folds"]) == 2

    @pytest.mark.parametrize("command", ["cv", "graph-stats"])
    def test_labels_with_a_gap_name_the_file(self, tmp_path, capsys, command):
        ds = quick_dataset()
        paths = popgcn.save_dataset(ds, tmp_path / "data")
        # classes {0, 2}: every label 1 becomes a 2
        np.savetxt(paths["labels"], np.where(ds.labels == 1, 2, ds.labels),
                   fmt="%d")
        config = write_config(tmp_path, data={
            key: str(path) for key, path in paths.items()})
        assert main([command, "--config", config]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {paths['labels']}: no row has label 1, "
            f"but labels run up to 2"]

    # (file, file line, column, cell text, error after the path); the
    # demographics file's line 0 is its header
    @pytest.mark.parametrize("file, line, col, text, message", [
        ("features", 3, 1, "nan", "non-finite value 'nan' at row 3, column 1"),
        ("labels", 5, 0, "-inf", "non-finite value '-inf' at row 5, column 0"),
        ("demographics", 2, 0, "inf",
         "non-finite value 'inf' at row 2, column 0"),
        ("labels", 0, 0, "1e20", "out-of-range (above 35) label 1e+20 at row 0"),
        ("labels", 4, 0, "-1e20", "negative label -1e+20 at row 4"),
        ("demographics", 0, 1, "informative",
         "repeated element name 'informative' in header column 1"),
        ("demographics", 0, 0, " ",
         "empty element name '' in header column 0"),
    ], ids=["nan-feature", "inf-label", "inf-demographic", "huge-label",
            "huge-negative-label", "repeated-name", "empty-name"])
    def test_bad_cell_is_one_error_line(self, tmp_path, capsys, file, line,
                                        col, text, message):
        paths = popgcn.save_dataset(quick_dataset(), tmp_path / "data")
        lines = paths[file].read_text().splitlines()
        cells = lines[line].split(",")
        cells[col] = text
        lines[line] = ",".join(cells)
        paths[file].write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, data={
            key: str(path) for key, path in paths.items()})
        assert main(["cv", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths[file]}: {message}"]

    # finite cells whose spread leaves float range: the run used to go on
    # after RuntimeWarnings, with a row's every similarity at 0 or 1, or end
    # in an error that named no element
    @pytest.mark.parametrize("scale, element, message", [
        (1e300, None, "feature row 4 has a centred sum of squares that is "
                      "not finite and positive, or is below 2.2e-308; "
                      "correlation undefined"),
        (1e-320, None, "feature row 4 has a centred sum of squares that is "
                       "not finite and positive, or is below 2.2e-308; "
                       "correlation undefined"),
        (1e308, "noise", "element 'noise': the standard deviation of its "
                         "column is not finite, so it has no default "
                         "threshold"),
    ], ids=["huge-features-row", "subnormal-features-row",
            "huge-demographic-spread"])
    def test_values_beyond_float_range_are_one_error_line(
            self, tmp_path, capsys, scale, element, message):
        ds = quick_dataset()
        if element is None:
            ds.features[4] *= scale
        else:
            ds.demographics[[2, 5], ds.element_index(element)] = (scale,
                                                                  -scale)
        paths = popgcn.save_dataset(ds, tmp_path / "data")
        config = write_config(tmp_path, data={
            key: str(path) for key, path in paths.items()})
        assert main(["cv", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("text, message", [
        ("7", "out-of-range (above 2) label 7.0 at row 3"),
        ("nan", "non-finite value 'nan' at row 3, column 0"),
        ("1,2", "row 3 has 2 columns, expected 1"),
    ], ids=["label-check", "reader", "width-check"])
    def test_bad_label_row_is_its_file_line(self, tmp_path, capsys, text,
                                            message):
        # labels "0, blank, 1, <bad>" for three nodes: every check names
        # the bad value's file line 3, the blank line 1 included
        ds = popgcn.Dataset(np.eye(3), [0, 1, 0], np.zeros((3, 1)), ("e",), 2)
        paths = popgcn.save_dataset(ds, tmp_path / "data")
        paths["labels"].write_text(f"0\n\n1\n{text}\n")
        config = write_config(tmp_path, data={
            key: str(path) for key, path in paths.items()})
        assert main(["graph-stats", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths['labels']}: {message}"]

    # (file, file line of the bad byte, nodes, least byte offset); the last
    # case puts the byte past the first 8 KB chunk a text reader decodes
    @pytest.mark.parametrize("file, line, n_nodes, offset", [
        ("features", 0, 36, 0), ("labels", 7, 36, 0),
        ("demographics", 3, 36, 0), ("features", 80, 90, 8192),
    ], ids=["features", "labels", "demographics", "features-past-8kb"])
    def test_non_utf8_byte_names_file_and_row(self, tmp_path, capsys, file,
                                              line, n_nodes, offset):
        paths = popgcn.save_dataset(quick_dataset(n_nodes=n_nodes),
                                    tmp_path / "data")
        lines = paths[file].read_bytes().splitlines(keepends=True)
        lines[line] = b"\xff" + lines[line]
        assert len(b"".join(lines[:line])) >= offset
        paths[file].write_bytes(b"".join(lines))
        config = write_config(tmp_path, data={
            key: str(path) for key, path in paths.items()})
        assert main(["cv", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths[file]}: not UTF-8 text at row {line}"]

    # (file, file line of the broken cell); line 0 of demographics is its
    # header, so a header cell is probed too
    @pytest.mark.parametrize("file, line", [
        ("features", 5), ("labels", 7), ("demographics", 0),
        ("demographics", 3),
    ], ids=["features", "labels", "demographics-header", "demographics"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_line_break_inside_a_cell_names_file_and_row(
            self, tmp_path, capsys, file, line, eol):
        paths = popgcn.save_dataset(quick_dataset(), tmp_path / "data")
        lines = paths[file].read_text().splitlines()
        cells = lines[line].split(",")
        cells[-1] = f'"{cells[-1]}{eol}"'
        lines[line] = ",".join(cells)
        paths[file].write_text(eol.join(lines) + eol, newline="")
        config = write_config(tmp_path, data={
            key: str(path) for key, path in paths.items()})
        assert main(["cv", "--config", config]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths[file]}: line break inside a cell at row {line}, "
            f"column {len(cells) - 1}"]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["cv", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config:")

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


def _one_subject_config(tmp_path) -> str:
    ds = popgcn.Dataset(np.array([[1.0, 2.0, 4.0]]), [0], np.array([[3.0]]),
                        ("e",), 2)
    paths = popgcn.save_dataset(ds, tmp_path / "data")
    return write_config(tmp_path, data={
        key: str(path) for key, path in paths.items()})


class TestGraphStatsCommand:
    def test_one_subject(self, tmp_path, capsys):
        # np.corrcoef's 0-d result for one row ended this in an IndexError
        assert main(["graph-stats", "--config",
                     _one_subject_config(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"n_nodes": 1, "graphs": [{
            "element": "e", "n_nodes": 1, "edge_count": 0, "density": 0.0,
            "degree_histogram": [1]}]}

    def test_stats_structure(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["graph-stats", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_nodes"] == 36
        assert [g["element"] for g in report["graphs"]] == \
            ["informative", "noise"]
        for graph in report["graphs"]:
            assert graph["edge_count"] >= 0
            assert 0.0 <= graph["density"] <= 1.0
            assert sum(graph["degree_histogram"]) == 36

    def test_edge_rule_override_changes_stats(self, tmp_path, capsys):
        base = write_config(tmp_path, name="base.json")
        assert main(["graph-stats", "--config", base]) == 0
        default_report = json.loads(capsys.readouterr().out)
        overridden = write_config(
            tmp_path, name="override.json",
            edge_rules=[{"element": "noise", "kind": "threshold",
                         "beta": 1000.0}])
        assert main(["graph-stats", "--config", overridden]) == 0
        wide_report = json.loads(capsys.readouterr().out)
        # an all-pairs edge rule still loses anti-correlated pairs to the
        # rectified similarity, so compare counts instead of expecting n(n-1)/2
        assert wide_report["graphs"][1]["edge_count"] > \
            default_report["graphs"][1]["edge_count"]
        assert wide_report["graphs"][0] == default_report["graphs"][0]


class TestCompareCommand:
    @pytest.mark.parametrize("train, warned", [
        (QUICK_TRAIN, False), (COLLAPSING_TRAIN, True)],
        ids=["healthy", "collapsing"])
    def test_untrained_omega_of_the_proposed_run_is_flagged(
            self, tmp_path, capsys, train, warned):
        config = write_config(tmp_path, train=train)
        assert main(["compare", "--config", config, "--baselines", "linear",
                     "--subsets", "informative"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        lines = captured.err.splitlines()
        assert lines[0] == (
            f"compare: linear={report['baselines']['linear']['mean_acc']:.4f}"
            f" proposed={report['proposed']['mean_acc']:.4f}")
        assert lines[1:] == ([UNTRAINED_OMEGA] if warned else [])

    def test_report_sections_share_splits(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "compare.json"
        code = main(["compare", "--config", config, "--out", str(out),
                     "--baselines", "linear", "--subsets", "informative"])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"config", "split_hash", "proposed", "baselines",
                               "subsets"}
        assert set(report["baselines"]) == {"linear"}
        assert set(report["subsets"]) == {"informative"}
        assert report["proposed"]["split_hash"] == report["split_hash"]
        assert report["baselines"]["linear"]["split_hash"] == \
            report["split_hash"]
        assert report["subsets"]["informative"]["split_hash"] == \
            report["split_hash"]
        assert "compare:" in capsys.readouterr().err

    def test_graphs_built_once_and_full_set_reuses_proposed(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        original = popgcn.graph.similarity_matrix

        def counted(features, **kwargs):
            calls.append(1)
            return original(features, **kwargs)

        monkeypatch.setattr(popgcn.graph, "similarity_matrix", counted)
        out = tmp_path / "compare.json"
        assert main(["compare", "--config", write_config(tmp_path),
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        report = json.loads(out.read_text())
        assert set(report["baselines"]) == {"avg_gcn", "dense_nn", "linear"}
        assert report["subsets"]["informative+noise"] == report["proposed"]

    def test_unknown_subset_element_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["compare", "--config", config, "--baselines", "linear",
                     "--subsets", "bogus"])
        assert code == 1
        assert "unknown element" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, extra", [
        (["--subsets", "informative,bogus"], {}),
        ([], {"compare": {"subsets": [["informative"], ["bogus"]]}}),
        (["--subsets", "informative+noise,noise+informative"], {}),
        ([], {"compare": {"subsets": [["informative", "noise"],
                                      ["noise", "informative"]]}}),
        (["--subsets", ""], {}),
        (["--subsets", ","], {}),
        (["--subsets", "informative,,noise"], {}),
    ])
    def test_unknown_subset_fails_before_training(self, tmp_path, capsys,
                                                  monkeypatch, flag, extra,
                                                  serial_folds):
        calls = []
        original = popgcn.train.train_model

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(popgcn.train, "train_model", counted)
        code = main(["compare", "--config", write_config(tmp_path, **extra),
                     *flag])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config: compare.subsets: ")
        assert calls == []

    @pytest.mark.parametrize("subsets", [
        "bogus", "informative+noise,noise+informative"])
    def test_bad_subset_refused_before_any_graph_is_built(
            self, tmp_path, capsys, monkeypatch, subsets):
        built = []
        for stage in ("similarity_matrix", "build_edge_matrix"):
            monkeypatch.setattr(popgcn.graph, stage,
                                lambda *args, **kwargs: built.append(1))
        code = main(["compare", "--config", write_config(tmp_path),
                     "--subsets", subsets])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: config: compare.subsets: ")
        with pytest.raises(popgcn.DataError, match="subset|element"):
            ablate_graph_subsets(quick_dataset(), popgcn.TrainConfig(),
                                 [part.split("+")
                                  for part in subsets.split(",")])
        assert built == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_library_reproduces_compare(self, tmp_path, capsys, monkeypatch,
                                        workers):
        # one cross_validate call over the runs compare trains gives the
        # sections of its report, folds trained here or in 2 forked workers
        monkeypatch.setattr(popgcn.train, "_fold_workers",
                            lambda n_jobs: min(workers, n_jobs))
        out = tmp_path / "compare.json"
        assert main(["compare", "--config", write_config(tmp_path),
                     "--out", str(out)]) == 0
        report = strip_wall_clock(json.loads(out.read_text()))
        dataset = popgcn.generate_synthetic(
            popgcn.SynthConfig(**SYNTH_RECIPE))
        config = popgcn.TrainConfig(**QUICK_TRAIN)
        props = popgcn.build_propagation_matrices(dataset)
        kinds = list(popgcn.BaselineKind)
        ablated = popgcn.subset_runs(dataset, config, props, [
            ["informative"], ["noise"], ["informative", "noise"]])
        proposed, *reports = [
            strip_wall_clock(cv.to_dict()) for cv in popgcn.cross_validate(
                dataset, [(config, props),
                          *(popgcn.baseline_run(dataset, config, kind)
                            for kind in kinds),
                          *(run for run in ablated.values() if run)])]
        assert report["proposed"] == proposed
        assert {name: {key: value for key, value in section.items()
                       if key != "kind"}
                for name, section in report["baselines"].items()} == \
            {kind.value: cv for kind, cv in zip(kinds, reports)}
        trained = iter(reports[len(kinds):])
        assert report["subsets"] == {
            key: proposed if run is None else next(trained)
            for key, run in ablated.items()}

    @pytest.mark.parametrize("flag, extra, line", [
        (["--baselines", "linear,linear"], {},
         "error: config: --baselines: repeated baseline 'linear'"),
        ([], {"compare": {"baselines": ["linear", "avg_gcn", "linear"]}},
         "error: config: compare.baselines: repeated baseline 'linear'"),
        (["--subsets", "informative+noise,noise+informative"], {},
         "error: config: compare.subsets: "
         "repeated subset 'informative+noise'"),
        # an empty entry of a flag's list is an unknown name, not skipped
        (["--baselines", ""], {},
         "error: config: --baselines: unknown baseline ''; "
         "choose from ['avg_gcn', 'dense_nn', 'linear']"),
        (["--baselines", "linear,,"], {},
         "error: config: --baselines: unknown baseline ''; "
         "choose from ['avg_gcn', 'dense_nn', 'linear']"),
        (["--subsets", ""], {},
         "error: config: compare.subsets: unknown element ''"),
        (["--subsets", "informative,,noise"], {},
         "error: config: compare.subsets: unknown element ''"),
        # one element named twice trained the subset of that element alone
        (["--subsets", "informative+informative"], {},
         "error: config: compare.subsets: repeated element 'informative'"),
        ([], {"compare": {"subsets": [["informative", "informative"]]}},
         "error: config: compare.subsets: repeated element 'informative'"),
    ])
    def test_repeated_entry_fails_before_training(self, tmp_path, capsys,
                                                  monkeypatch, flag, extra,
                                                  line, serial_folds):
        calls = []
        monkeypatch.setattr(popgcn.train, "train_model",
                            lambda *args, **kwargs: calls.append(1))
        code = main(["compare", "--config", write_config(tmp_path, **extra),
                     *flag])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [line]
        assert calls == []

    def test_affinities_averaged_once_before_training(self, tmp_path, capsys,
                                                      monkeypatch,
                                                      serial_folds):
        # the affinities are averaged right after the build, so that only
        # the operators stay alive while models train
        trained, averaged_at = [], []
        train_model = popgcn.train.train_model
        averaged_propagation = popgcn.cli.averaged_propagation

        def counted_train(*args, **kwargs):
            trained.append(1)
            return train_model(*args, **kwargs)

        def counted_average(affinities):
            averaged_at.append(len(trained))
            return averaged_propagation(affinities)

        monkeypatch.setattr(popgcn.train, "train_model", counted_train)
        monkeypatch.setattr(popgcn.cli, "averaged_propagation", counted_average)
        monkeypatch.setattr(popgcn.baselines, "averaged_propagation",
                            counted_average)
        out = tmp_path / "compare.json"
        assert main(["compare", "--config", write_config(tmp_path),
                     "--subsets", "informative", "--out", str(out)]) == 0
        assert averaged_at == [0]
        direct = popgcn.run_baseline_cv(
            popgcn.generate_synthetic(popgcn.SynthConfig(**SYNTH_RECIPE)),
            popgcn.TrainConfig(**QUICK_TRAIN),
            popgcn.BaselineKind.AVERAGED_GRAPH_GCN)
        report = json.loads(out.read_text())
        assert strip_wall_clock(report["baselines"]["avg_gcn"]) == \
            strip_wall_clock(direct)

    @pytest.mark.parametrize("flag, averaged", [
        ([], [2]), (["--baselines", "linear"], [])])
    def test_operators_normalized_in_place_after_averaging(
            self, tmp_path, capsys, monkeypatch, flag, averaged):
        # each operator is its affinity's own array, normalized once the
        # affinities are averaged: a compare run holds M + 1 N x N arrays
        events = []
        normalize = popgcn.cli.normalize_affinity
        average = popgcn.cli.averaged_propagation

        def spied_normalize(affinity, *, out=None):
            events.append(out is affinity.weights)
            return normalize(affinity, out=out)

        def spied_average(affinities):
            events.append(len(affinities))
            return average(affinities)

        monkeypatch.setattr(popgcn.cli, "normalize_affinity", spied_normalize)
        monkeypatch.setattr(popgcn.cli, "averaged_propagation", spied_average)
        assert main(["compare", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "compare.json"), *flag]) == 0
        assert events == [*averaged, True, True]

    def test_every_section_has_the_cv_fold_shape(self, tmp_path, capsys):
        out = tmp_path / "compare.json"
        assert main(["compare", "--config", write_config(tmp_path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        cv = popgcn.run_cv(
            popgcn.generate_synthetic(popgcn.SynthConfig(**SYNTH_RECIPE)),
            popgcn.TrainConfig(**QUICK_TRAIN)).to_dict()
        sections = [report["proposed"], *report["baselines"].values(),
                    *report["subsets"].values()]
        for section in sections:
            for entry in section["folds"]:
                assert set(entry) == set(cv["folds"][0])
        for name, section in report["baselines"].items():
            assert set(section) == set(cv) | {"kind"}
            assert section["kind"] == name

    def test_report_same_under_blas_thread_counts(self, tmp_path):
        config = write_config(
            tmp_path, data={"synth": {**SYNTH_RECIPE, "n_nodes": 300,
                                      "n_features": 20}})
        src = str(Path(popgcn.__file__).parents[1])
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": src}
            subprocess.run([sys.executable, "-m", "popgcn.cli", "compare",
                            "--config", config, "--out", str(out)],
                           env=env, check=True, capture_output=True,
                           timeout=300)
            reports.append(json.dumps(
                strip_wall_clock(json.loads(out.read_text())),
                sort_keys=True))
        assert reports[0] == reports[1]

    def test_unknown_baseline_flag_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["compare", "--config", config, "--baselines", "svm"])
        assert code == 1
        assert "unknown baseline" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_prints_per_instance(self, capsys):
        code = main(["gradcheck", "--instances", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "instance 0:" in out and "instance 1:" in out
        assert "max_relative_error=" in out

    def test_impossible_tolerance_fails(self, capsys, monkeypatch):
        # a gradient off by 0.5 in omega cannot meet the 1e-5 bound
        true_compute = model_mod.compute_gradients

        def corrupted(*args, **kwargs):
            grads = true_compute(*args, **kwargs)
            grads.omega = grads.omega + 0.5
            return grads

        monkeypatch.setattr(model_mod, "compute_gradients", corrupted)
        code = main(["gradcheck", "--instances", "1"])
        assert code == 1
        assert "gradient check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, flag", [
        (["--instances", "0"], "--instances"),
        (["--instances", "-1"], "--instances"),
        (["--seed", "-1"], "--seed"),
    ], ids=["no-instances", "negative-instances", "negative-seed"])
    def test_out_of_range_flag_is_one_error_line(self, capsys, flags, flag):
        assert main(["gradcheck", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: config: {flag}: ")

    def test_instances_deterministic(self):
        assert gradcheck_instances(seed=3, instances=2) == \
            gradcheck_instances(seed=3, instances=2)
