"""Dataset containers, CSV ingestion, synthetic cohorts, and stratified folds.

A dataset bundles the per-subject feature matrix, integer class labels, and a
demographic matrix whose columns each define one population graph.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np


class DataError(ValueError):
    """Malformed input files, violated dataset invariants, or a field of the
    wrong type; ``field`` names the offending field, when there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


_NUMBERS = {int: numbers.Integral, float: numbers.Real}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _typed(field: str, value, kind, error=DataError):
    """``value`` checked against the field annotation ``kind`` and stored
    plain: an int, float or str, a class, an optional one that may be None,
    or a tuple of them given as a list or a tuple. A bool is never a number
    and a float never an int; a NumPy number is stored as an int or float.
    A failure raises ``error(field=..., message=...)``, the field path
    running down to the failing index, as in ``hidden_dims[0]``.
    """
    if get_origin(kind) is UnionType:  # "float | None"
        if value is None:
            return None
        kind = get_args(kind)[0]
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        variadic = kinds[-1] is Ellipsis
        if isinstance(value, (list, tuple)) and (variadic
                                                 or len(value) == len(kinds)):
            kinds = kinds[:1] * len(value) if variadic else kinds
            return tuple(_typed(f"{field}[{i}]", item, k, error)
                         for i, (item, k) in enumerate(zip(value, kinds)))
        wanted = "a list" if variadic else f"a list of {len(kinds)} items"
    elif isinstance(value, (bool, np.bool_)) or not isinstance(
            value, _NUMBERS.get(kind, kind)):
        wanted = _TYPE_NAMES.get(kind, f"an instance of {kind.__name__}")
    elif kind not in _NUMBERS:
        return value
    else:
        number = (int(value) if isinstance(value, numbers.Integral)
                  else float(value))
        # NaN, the infinities and ints too large for a float fail this
        if abs(number) <= sys.float_info.max:
            return kind(number)
        wanted = "a finite number"
    try:
        try:
            shown = json.dumps(value)
        except TypeError:  # a NumPy integer or an object, given from Python
            shown = repr(value)
    except ValueError:  # an int past the digit limit of str(), maybe in a list
        shown = (f"an integer of {value.bit_length()} bits" if isinstance(
            value, int) else f"a {type(value).__name__} with a huge integer")
    raise error(field=field, message=f"must be {wanted}, got {shown}")


def _check_fields(instance, *names, error=DataError) -> None:
    """Store the fields ``names`` (all, by default) of the frozen dataclass
    ``instance`` as ``_typed`` returns them for their annotations."""
    kinds = get_type_hints(type(instance))
    for name in names or kinds:
        object.__setattr__(instance, name, _typed(
            name, getattr(instance, name), kinds[name], error))


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an int64 array. Booleans, floats and every other
    non-integer kind are refused, not cast: a boolean mask read as indices
    picks rows 0 and 1, and a float label is truncated. An empty array is
    taken whatever its kind, as NumPy makes ``[]`` float64."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise DataError(f"{name} must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Dataset:
    """Per-subject features, labels, and demographic elements.

    features: (N, d) float matrix, one row per subject.
    labels: (N,) integers in [0, n_classes).
    demographics: (N, M) float matrix, one column per demographic element.
    element_names: M unique names aligned with demographic columns.
    """

    features: np.ndarray
    labels: np.ndarray
    demographics: np.ndarray
    element_names: tuple[str, ...]
    n_classes: int

    def __post_init__(self):
        _check_fields(self, "element_names", "n_classes")
        features = np.asarray(self.features, dtype=np.float64)
        labels = _integers(self.labels, "labels")
        demographics = np.asarray(self.demographics, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise DataError("features must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite entries")
        n = features.shape[0]
        if labels.shape != (n,):
            raise DataError(
                f"labels shape {labels.shape} does not match {n} feature rows")
        if self.n_classes < 1:
            raise DataError("n_classes must be at least 1")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise DataError(f"labels must lie in [0, {self.n_classes})")
        if demographics.ndim != 2 or demographics.shape[0] != n:
            raise DataError(
                f"demographics must have {n} rows, got shape {demographics.shape}")
        if not np.all(np.isfinite(demographics)):
            raise DataError("demographics contain non-finite entries")
        if demographics.shape[1] != len(self.element_names):
            raise DataError(
                f"demographics has {demographics.shape[1]} columns but "
                f"{len(self.element_names)} element names")
        if len(set(self.element_names)) != len(self.element_names):
            raise DataError("element names must be unique")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "demographics", demographics)

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_elements(self) -> int:
        return self.demographics.shape[1]

    def one_hot(self) -> np.ndarray:
        """Labels as an (N, K) one-hot matrix."""
        out = np.zeros((self.n_nodes, self.n_classes))
        out[np.arange(self.n_nodes), self.labels] = 1.0
        return out

    def element_index(self, name: str) -> int:
        """Column index of a demographic element by name."""
        try:
            return self.element_names.index(name)
        except ValueError:
            raise DataError(
                f"unknown demographic element {name!r}; "
                f"available: {list(self.element_names)}") from None


@dataclass(frozen=True)
class FoldSplit:
    """One cross-validation fold: disjoint train/test index arrays."""

    train_idx: np.ndarray
    test_idx: np.ndarray
    fold_id: int

    def __post_init__(self):
        train = _integers(self.train_idx, "train_idx")
        test = _integers(self.test_idx, "test_idx")
        if train.size == 0 or test.size == 0:
            raise DataError(f"fold {self.fold_id}: empty train or test split")
        if np.intersect1d(train, test).size:
            raise DataError(f"fold {self.fold_id}: train and test indices overlap")
        object.__setattr__(self, "train_idx", train)
        object.__setattr__(self, "test_idx", test)


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a synthetic population cohort.

    Features are isotropic Gaussian clusters whose class means sit at pairwise
    distance ``class_separation`` (this placement needs n_features >=
    n_classes). Each informative element column copies the node's class index
    with probability equal to its class correlation, otherwise a uniformly
    random class; noise element columns are uniform on [0, 1).
    """

    n_nodes: int = 300
    n_features: int = 20
    n_classes: int = 3
    class_separation: float = 1.0
    informative_elements: tuple[tuple[str, float], ...] = (("informative", 0.9),)
    noise_elements: tuple[str, ...] = ("noise",)
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.n_classes < 2:
            raise DataError("n_classes must be at least 2", "n_classes")
        if self.n_nodes < self.n_classes:
            raise DataError("need at least one node per class", "n_nodes")
        if self.n_features < self.n_classes:
            raise DataError("class mean placement needs n_features >= "
                            "n_classes", "n_features")
        # NumPy cannot index an array with more entries than intp can count
        limit = np.iinfo(np.intp).max
        nodes, dims = self.n_nodes, self.n_features
        if nodes * nodes > limit:
            raise DataError(f"n_nodes {nodes} makes an N x N graph of more "
                            f"than {limit} entries", "n_nodes")
        if nodes * dims > limit:
            raise DataError(f"n_nodes x n_features = {nodes} x {dims} makes a "
                            f"feature matrix of more than {limit} entries",
                            "n_features")
        if self.class_separation < 0:
            raise DataError("class_separation must be nonnegative", "class_separation")
        if not self.informative_elements and not self.noise_elements:
            raise DataError("need at least one demographic element")
        for i, (name, corr) in enumerate(self.informative_elements):
            if not 0.0 <= corr <= 1.0:
                raise DataError(f"class correlation of {name!r} must be in [0, 1], "
                                f"got {corr}", f"informative_elements[{i}]")
        names = ([n for n, _ in self.informative_elements]
                 + list(self.noise_elements))
        if len(set(names)) != len(names):
            raise DataError("element names must be unique")
        if self.seed < 0:
            raise DataError("seed must be nonnegative", "seed")


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Draw a synthetic cohort; identical for identical seeds.

    Labels are balanced (class counts differ by at most one). Class means are
    scaled one-hot corners, so every pair of means is exactly
    ``class_separation`` apart under unit-variance Gaussian noise.
    """
    rng = np.random.default_rng(config.seed)
    labels = rng.permutation(np.arange(config.n_nodes) % config.n_classes)
    means = np.zeros((config.n_classes, config.n_features))
    np.fill_diagonal(means[:, : config.n_classes],
                     config.class_separation / np.sqrt(2.0))
    features = means[labels] + rng.standard_normal(
        (config.n_nodes, config.n_features))
    columns = []
    names = []
    for name, corr in config.informative_elements:
        faithful = rng.random(config.n_nodes) < corr
        scrambled = rng.integers(0, config.n_classes, config.n_nodes)
        columns.append(np.where(faithful, labels, scrambled).astype(np.float64))
        names.append(name)
    for name in config.noise_elements:
        columns.append(rng.random(config.n_nodes))
        names.append(name)
    return Dataset(features, labels, np.column_stack(columns), tuple(names),
                   config.n_classes)


def _read_csv_matrix(path, *, header: bool):
    """Parse a numeric CSV into (header_names, float matrix, line numbers).

    The file must be UTF-8 text; a byte-order mark and blank lines are
    skipped. A cell must be a finite number with no line break, so a record
    is one line. Each data row's 0-based file line (a header and blank lines
    count) is returned; errors about the file name a row by it and a column.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    if path.is_dir():
        raise DataError(f"{path}: is a directory")
    try:  # decoded whole, so the error's byte offset gives its line
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as err:
        # the line breaks before it, \n, \r\n or \r as the reader counts them
        line_no = len((err.object[:err.start] + b".").splitlines()) - 1
        raise DataError(f"{path}: not UTF-8 text at row {line_no}") from None
    names = None
    rows: list[list[float]] = []
    lines: list[int] = []
    for line_no, row in enumerate(csv.reader(io.StringIO(text, newline=""))):
        for col, cell in enumerate(row):
            if "\n" in cell or "\r" in cell:
                raise DataError(f"{path}: line break inside a cell at row "
                                f"{line_no}, column {col}")
        if not row or all(not cell.strip() for cell in row):
            continue
        if header and names is None:
            names = [cell.strip() for cell in row]
            continue
        values = []
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {cell.strip()!r} "
                    f"at row {line_no}, column {col}") from None
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: non-finite value {cell.strip()!r} "
                    f"at row {line_no}, column {col}")
            values.append(value)
        rows.append(values)
        lines.append(line_no)
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    for line_no, values in zip(lines, rows):
        if len(values) != width:
            raise DataError(f"{path}: row {line_no} has {len(values)} "
                            f"columns, expected {width}")
    return names, np.array(rows, dtype=np.float64), lines


def load_dataset(features_path, labels_path, demographics_path) -> Dataset:
    """Load a dataset from three CSV files.

    ``features`` and ``labels`` are headerless; the demographics file starts
    with a header naming each element once. Row counts must agree across files,
    and the labels must use every class id from 0 to their maximum.
    """
    _, features, _ = _read_csv_matrix(features_path, header=False)
    _, raw_labels, label_lines = _read_csv_matrix(labels_path, header=False)
    names, demographics, _ = _read_csv_matrix(demographics_path, header=True)
    if raw_labels.shape[1] != 1:
        raise DataError(
            f"{labels_path}: expected a single label column, "
            f"got {raw_labels.shape[1]}")
    n = features.shape[0]
    for path, data in ((labels_path, raw_labels),
                       (demographics_path, demographics)):
        if data.shape[0] != n:
            raise DataError(f"row-count mismatch: {features_path} has {n} "
                            f"rows, {path} has {data.shape[0]}")
    if names is None or len(names) != demographics.shape[1]:
        raise DataError(
            f"{demographics_path}: header names {0 if names is None else len(names)} "
            f"columns but rows have {demographics.shape[1]}")
    for col, name in enumerate(names):
        if not name or name in names[:col]:
            raise DataError(f"{demographics_path}: "
                            f"{'repeated' if name else 'empty'} element name "
                            f"{name!r} in header column {col}")
    column = raw_labels[:, 0]
    # checked on the floats, as the int64 cast of an out-of-range value is
    # undefined; with no gap, n rows hold labels 0 to n - 1 at most
    for kind, bad in (("non-integer", column != np.round(column)),
                      ("negative", column < 0),
                      (f"out-of-range (above {n - 1})", column > n - 1)):
        rows = np.flatnonzero(bad)
        if rows.size:
            raise DataError(f"{labels_path}: {kind} label "
                            f"{float(column[rows[0]])} "
                            f"at row {label_lines[rows[0]]}")
    labels = column.astype(np.int64)
    present = np.unique(labels)  # sorted, so a gap shifts ids past their index
    gaps = np.flatnonzero(present != np.arange(present.size))
    if gaps.size:
        raise DataError(f"{labels_path}: no row has label {int(gaps[0])}, "
                        f"but labels run up to {int(present[-1])}")
    return Dataset(features, labels, demographics, tuple(names),
                   int(present[-1]) + 1)


def save_dataset(dataset: Dataset, out_dir) -> dict[str, Path]:
    """Write features.csv, labels.csv, demographics.csv under ``out_dir``.

    Floats are written with 17 significant digits, so save -> load round-trips
    bitwise and identical datasets produce byte-identical files. An element
    name the header cannot carry back unchanged (an empty one, or one with a
    comma, a quote, a line break or surrounding whitespace) is refused
    before anything is written. The three files are written all or none:
    a failed write leaves every file under ``out_dir`` as it was.
    """
    for name in dataset.element_names:
        if (not name or name != name.strip()
                or any(c in name for c in ',"\r\n')):
            raise DataError(
                f"element name {name!r} would not read back from the "
                f"demographics header: a name must be non-empty, with no "
                f"comma, quote, line break or surrounding whitespace")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "features": out / "features.csv",
        "labels": out / "labels.csv",
        "demographics": out / "demographics.csv",
    }
    _write_files([
        (paths["features"], lambda handle: np.savetxt(
            handle, dataset.features, fmt="%.17g", delimiter=",")),
        (paths["labels"], lambda handle: np.savetxt(
            handle, dataset.labels.reshape(-1, 1), fmt="%d")),
        (paths["demographics"], lambda handle: np.savetxt(
            handle, dataset.demographics, fmt="%.17g", delimiter=",",
            header=",".join(dataset.element_names), comments="")),
    ])
    return paths


def _write_files(writes) -> None:
    """Write every file of ``writes``, a list of (target path, function
    filling an open text file) pairs, or none: each function fills a
    temporary file in its target's directory, and only once all are full
    does ``os.replace`` move each onto its target. A failure before then
    removes the temporaries and leaves every target as it was."""
    temps = []
    try:
        for target, write in writes:
            temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            with _named_as(target):
                handle = open(temp, "w")
            temps.append(temp)
            with handle:
                write(handle)
        for temp, (target, _) in zip(temps, writes):
            with _named_as(target):
                os.replace(temp, target)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _named_as(target):
    """Raise an ``OSError`` about a temporary file as one about its
    ``target``, the message a direct write to it would give."""
    try:
        yield
    except OSError as err:
        raise type(err)(err.errno, err.strerror, str(target)) from None


def stratified_kfold(labels, k: int, seed) -> list[FoldSplit]:
    """Partition indices into ``k`` stratified folds.

    Every index lands in exactly one test fold and each fold's class counts
    differ from an exact proportional split by at most one sample. A pure
    function of ``labels``, ``k``, and ``seed``.
    """
    labels = _integers(labels, "labels")
    n = labels.shape[0]
    if k < 2:
        raise DataError("k must be at least 2 (k=1 leaves an empty train fold)")
    if n == 0:
        raise DataError("no samples to split")
    rng = np.random.default_rng(seed)
    test_members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in range(int(labels.max()) + 1):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise DataError(f"class {cls} has {members.size} members, "
                            f"fewer than the {k} folds", field="k")
        chunks = np.array_split(rng.permutation(members), k)
        # rotate chunk-to-fold assignment per class so fold sizes stay balanced
        for j, chunk in enumerate(chunks):
            test_members[(j + cls) % k].append(chunk)
    everything = np.arange(n)
    folds = []
    for j in range(k):
        test = np.sort(np.concatenate(test_members[j]))
        folds.append(FoldSplit(train_idx=np.setdiff1d(everything, test),
                               test_idx=test, fold_id=j))
    return folds
