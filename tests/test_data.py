import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popgcn
from popgcn.data import DataError
from helpers import quick_dataset


class TestSynthetic:
    def test_same_seed_identical(self):
        a = popgcn.generate_synthetic(popgcn.SynthConfig(seed=4))
        b = popgcn.generate_synthetic(popgcn.SynthConfig(seed=4))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.demographics, b.demographics)
        assert a.element_names == b.element_names

    def test_labels_balanced_and_in_range(self):
        ds = popgcn.generate_synthetic(
            popgcn.SynthConfig(n_nodes=301, n_classes=3, seed=0))
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert ds.labels.min() >= 0 and ds.labels.max() < 3

    def test_perfect_correlation_copies_labels(self):
        ds = popgcn.generate_synthetic(popgcn.SynthConfig(
            informative_elements=(("el", 1.0),), seed=9))
        assert np.array_equal(ds.demographics[:, 0].astype(np.int64), ds.labels)

    def test_element_order_informative_then_noise(self):
        ds = popgcn.generate_synthetic(popgcn.SynthConfig(
            informative_elements=(("a", 0.5), ("b", 0.8)),
            noise_elements=("c", "d"), seed=1))
        assert ds.element_names == ("a", "b", "c", "d")
        assert ds.demographics.shape == (300, 4)

    def test_class_mean_distances(self):
        # statistical oracle: empirical class means of a large cohort sit
        # pairwise ~class_separation apart
        ds = popgcn.generate_synthetic(popgcn.SynthConfig(
            n_nodes=3000, n_features=10, n_classes=3, class_separation=3.0,
            seed=2))
        means = np.stack([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                dist = np.linalg.norm(means[i] - means[j])
                assert abs(dist - 3.0) < 0.25

    def test_noise_column_uniform_range(self):
        ds = popgcn.generate_synthetic(popgcn.SynthConfig(seed=3))
        noise = ds.demographics[:, 1]
        assert noise.min() >= 0.0 and noise.max() < 1.0

    def test_rejects_bad_configs(self):
        with pytest.raises(DataError):
            popgcn.SynthConfig(n_classes=1)
        with pytest.raises(DataError):
            popgcn.SynthConfig(n_features=2, n_classes=3)
        with pytest.raises(DataError):
            popgcn.SynthConfig(informative_elements=(("x", 1.5),))
        with pytest.raises(DataError):
            popgcn.SynthConfig(informative_elements=(), noise_elements=())
        with pytest.raises(DataError):
            popgcn.SynthConfig(informative_elements=(("dup", 0.5),),
                               noise_elements=("dup",))

    def test_rejects_sizes_no_array_can_hold(self):
        # construction allocates nothing, so the limits are probed exactly
        limit = np.iinfo(np.intp).max
        side = math.isqrt(limit)
        popgcn.SynthConfig(n_nodes=side, n_features=3)
        for nodes in (side + 1, 4_000_000_000, 10 ** 300):
            with pytest.raises(DataError, match=f"n_nodes {nodes} makes"):
                popgcn.SynthConfig(n_nodes=nodes, n_features=3)
        popgcn.SynthConfig(n_nodes=300, n_features=limit // 300)
        with pytest.raises(DataError, match="n_nodes x n_features"):
            popgcn.SynthConfig(n_nodes=300, n_features=limit // 300 + 1)

    def test_rejects_non_finite_class_separation(self):
        for value in (float("nan"), float("inf"), -float("inf"), 10 ** 400):
            with pytest.raises(DataError, match="must be a finite number") \
                    as err:
                popgcn.SynthConfig(class_separation=value)
            assert err.value.field == "class_separation"

    @pytest.mark.parametrize("overrides, field", [
        # a float never counts nodes, and a string is never split into names
        ({"n_nodes": 40.5}, "n_nodes"),
        ({"n_features": True}, "n_features"),
        ({"seed": "1"}, "seed"),
        ({"class_separation": None}, "class_separation"),
        ({"noise_elements": "ab", "informative_elements": ()},
         "noise_elements"),
        ({"noise_elements": ("a", None)}, "noise_elements[1]"),
        ({"informative_elements": "x"}, "informative_elements"),
        ({"informative_elements": (("a", 0.9, 1),)}, "informative_elements[0]"),
        ({"informative_elements": ((1, 0.9),)}, "informative_elements[0][0]"),
        ({"informative_elements": (("a", "0.9"),)},
         "informative_elements[0][1]"),
        ({"n_nodes": 10 ** 5000}, "n_nodes"),  # past the digit limit of str()
        ({"informative_elements": (("a", 0.9, 10 ** 5000),)},
         "informative_elements[0]"),
    ])
    def test_rejects_wrong_field_types(self, overrides, field):
        with pytest.raises(DataError, match="must be") as err:
            popgcn.SynthConfig(**overrides)
        assert err.value.field == field

    def test_numpy_scalars_and_lists_stored_plain(self):
        config = popgcn.SynthConfig(
            n_nodes=np.int64(30), class_separation=np.float32(2.0),
            informative_elements=[["a", 1]], noise_elements=[np.str_("b")])
        assert config == popgcn.SynthConfig(
            n_nodes=30, class_separation=2.0,
            informative_elements=(("a", 1.0),), noise_elements=("b",))
        assert type(config.n_nodes) is int
        assert type(config.informative_elements[0][1]) is float


class TestDataset:
    def test_one_hot(self):
        ds = popgcn.Dataset(np.eye(3), np.array([0, 2, 1]),
                            np.zeros((3, 1)), ("e",), 3)
        expected = np.array([[1., 0., 0.], [0., 0., 1.], [0., 1., 0.]])
        assert np.array_equal(ds.one_hot(), expected)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(DataError):
            popgcn.Dataset(np.eye(3), np.array([0, 1, 3]),
                           np.zeros((3, 1)), ("e",), 3)

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError):
            popgcn.Dataset(np.eye(3), np.array([0, 1]),
                           np.zeros((3, 1)), ("e",), 2)

    @pytest.mark.parametrize("names, n_classes, field", [
        # a string is not a tuple of names, 1 is not a name, and neither
        # True nor 2.5 is a class count
        ("e", 3, "element_names"),
        ((1,), 3, "element_names[0]"),
        (("e",), True, "n_classes"),
        (("e",), 2.5, "n_classes"),
    ])
    def test_rejects_wrong_field_types(self, names, n_classes, field):
        with pytest.raises(DataError, match="must be") as err:
            popgcn.Dataset(np.eye(3), np.array([0, 1, 0]),
                           np.zeros((3, 1)), names, n_classes)
        assert err.value.field == field

    def test_numpy_class_count_stored_plain(self):
        ds = popgcn.Dataset(np.eye(3), np.array([0, 1, 0]),
                            np.zeros((3, 1)), ["e"], np.int64(2))
        assert ds.element_names == ("e",)
        assert type(ds.n_classes) is int

    def test_rejects_duplicate_element_names(self):
        with pytest.raises(DataError):
            popgcn.Dataset(np.eye(3), np.array([0, 1, 2]),
                           np.zeros((3, 2)), ("e", "e"), 3)

    def test_element_index(self):
        ds = popgcn.Dataset(np.eye(3), np.array([0, 1, 2]),
                            np.zeros((3, 2)), ("age", "gender"), 3)
        assert ds.element_index("gender") == 1
        with pytest.raises(DataError, match="unknown demographic element"):
            ds.element_index("site")


class TestLoadSave:
    def test_round_trip_exact(self, tmp_path):
        original = popgcn.generate_synthetic(popgcn.SynthConfig(
            n_nodes=25, n_features=4, seed=6))
        paths = popgcn.save_dataset(original, tmp_path)
        loaded = popgcn.load_dataset(paths["features"], paths["labels"],
                                     paths["demographics"])
        assert np.array_equal(loaded.features, original.features)
        assert np.array_equal(loaded.labels, original.labels)
        assert np.array_equal(loaded.demographics, original.demographics)
        assert loaded.element_names == original.element_names
        assert loaded.n_classes == original.n_classes

    @pytest.mark.parametrize("failing", [1, 2, 3])
    @pytest.mark.parametrize("earlier", [False, True],
                             ids=["empty", "over_a_dataset"])
    def test_failed_write_leaves_no_new_file(self, tmp_path, monkeypatch,
                                             failing, earlier):
        # the files before the failing one used to stay behind, a dataset
        # no command could read back
        out = tmp_path / "data"
        if earlier:
            popgcn.save_dataset(quick_dataset(n_nodes=9), out)
        before = {path.name: path.read_bytes() for path in out.glob("*")}
        savetxt, calls = np.savetxt, []

        def full_disk(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing:
                raise OSError(28, "No space left on device")
            return savetxt(*args, **kwargs)

        monkeypatch.setattr(np, "savetxt", full_disk)
        with pytest.raises(OSError) as raised:
            popgcn.save_dataset(quick_dataset(), out)
        assert str(raised.value) == "[Errno 28] No space left on device"
        assert {path.name: path.read_bytes()
                for path in out.iterdir()} == before

    def test_hand_written_files(self, tmp_path):
        (tmp_path / "features.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        (tmp_path / "labels.csv").write_text("0\n2\n1\n")
        (tmp_path / "demographics.csv").write_text(
            "age,gender\n70,0\n75,1\n80,0\n")
        ds = popgcn.load_dataset(tmp_path / "features.csv",
                                 tmp_path / "labels.csv",
                                 tmp_path / "demographics.csv")
        assert ds.n_nodes == 3 and ds.n_classes == 3
        assert ds.element_names == ("age", "gender")
        assert np.array_equal(ds.demographics[:, 0], [70., 75., 80.])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet tools save CSVs with a UTF-8 BOM; kept, it would turn
        # "age" into another name without the age threshold, and make the
        # first feature cell non-numeric
        features = "1.0,2.0\n3.0,4.0\n5.0,6.0\n"
        for name, text in (("plain", features), ("bom", "\ufeff" + features)):
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
        (tmp_path / "labels.csv").write_text("0\n1\n0\n")
        (tmp_path / "demographics.csv").write_text(
            "\ufeffage,site\n70,0\n75,1\n80,0\n", encoding="utf-8")
        plain, bom = (popgcn.load_dataset(tmp_path / f"{name}.csv",
                                          tmp_path / "labels.csv",
                                          tmp_path / "demographics.csv")
                      for name in ("plain", "bom"))
        assert np.array_equal(bom.features, plain.features)
        assert bom.element_names == ("age", "site")
        assert popgcn.default_edge_rules(bom)[0] == popgcn.EdgeRule(
            "age", popgcn.THRESHOLD, 2.0)

    def test_row_count_mismatch_names_both_counts(self, tmp_path):
        (tmp_path / "features.csv").write_text("1,2\n3,4\n5,6\n7,8\n")
        (tmp_path / "labels.csv").write_text("0\n1\n0\n")
        (tmp_path / "demographics.csv").write_text("e\n1\n2\n3\n4\n")
        with pytest.raises(DataError, match="4.*3"):
            popgcn.load_dataset(tmp_path / "features.csv",
                                tmp_path / "labels.csv",
                                tmp_path / "demographics.csv")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        (tmp_path / "features.csv").write_text("1,2\n3,oops\n")
        (tmp_path / "labels.csv").write_text("0\n1\n")
        (tmp_path / "demographics.csv").write_text("e\n1\n2\n")
        with pytest.raises(DataError, match=r"row 1, column 1"):
            popgcn.load_dataset(tmp_path / "features.csv",
                                tmp_path / "labels.csv",
                                tmp_path / "demographics.csv")

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"],
                             ids=["lf", "crlf", "cr"])
    def test_undecodable_byte_row_follows_the_reader(self, tmp_path, eol):
        # a bad cell and a bad byte on the same line name the same row
        for cell, message in ((b"x5", r"non-numeric .* at row 3,"),
                              (b"\xff5", r"not UTF-8 text at row 3$")):
            path = tmp_path / "features.csv"
            path.write_bytes(eol.join([b"1,2", b"3,4", b"", cell + b",6",
                                       b""]))
            with pytest.raises(DataError, match=message):
                popgcn.load_dataset(path, path, path)

    def test_line_break_inside_a_cell_names_its_file_line(self, tmp_path):
        # float("4\n") reads 4.0; accepted, the quoted break would number
        # every later record one line low, so the bad cell on file line 4
        # would be named at row 3
        path = tmp_path / "features.csv"
        path.write_bytes(b'1,2\r3,"4\n"\r5,6\r7,x\r')
        with pytest.raises(DataError, match=r"line break inside a cell at "
                                            r"row 1, column 1$"):
            popgcn.load_dataset(path, path, path)

    def test_negative_label_rejected(self, tmp_path):
        (tmp_path / "features.csv").write_text("1,2\n3,4\n")
        (tmp_path / "labels.csv").write_text("0\n-1\n")
        (tmp_path / "demographics.csv").write_text("e\n1\n2\n")
        with pytest.raises(DataError, match="negative label"):
            popgcn.load_dataset(tmp_path / "features.csv",
                                tmp_path / "labels.csv",
                                tmp_path / "demographics.csv")

    def test_fractional_label_rejected(self, tmp_path):
        (tmp_path / "features.csv").write_text("1,2\n3,4\n")
        (tmp_path / "labels.csv").write_text("0\n1.5\n")
        (tmp_path / "demographics.csv").write_text("e\n1\n2\n")
        with pytest.raises(DataError, match="non-integer label"):
            popgcn.load_dataset(tmp_path / "features.csv",
                                tmp_path / "labels.csv",
                                tmp_path / "demographics.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="file not found"):
            popgcn.load_dataset(tmp_path / "nope.csv", tmp_path / "nope.csv",
                                tmp_path / "nope.csv")

    @pytest.mark.parametrize("which", range(3),
                             ids=["features", "labels", "demographics"])
    def test_directory_refused_as_a_file(self, tmp_path, which):
        # reading it raised IsADirectoryError
        ds = popgcn.generate_synthetic(popgcn.SynthConfig(n_nodes=10, seed=1))
        paths = list(popgcn.save_dataset(ds, tmp_path).values())
        paths[which] = tmp_path
        with pytest.raises(DataError) as err:
            popgcn.load_dataset(*paths)
        assert str(err.value) == f"{tmp_path}: is a directory"

    def test_save_is_deterministic(self, tmp_path):
        ds = popgcn.generate_synthetic(popgcn.SynthConfig(n_nodes=10, seed=1))
        first = popgcn.save_dataset(ds, tmp_path / "a")
        second = popgcn.save_dataset(ds, tmp_path / "b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()


class TestStratifiedKFold:
    def test_exact_small_case(self):
        labels = np.array([0] * 10 + [1] * 10)
        folds = popgcn.stratified_kfold(labels, 5, seed=3)
        assert len(folds) == 5
        for fold in folds:
            assert fold.test_idx.size == 4
            assert np.sum(labels[fold.test_idx] == 0) == 2
            assert np.sum(labels[fold.test_idx] == 1) == 2
        all_test = np.sort(np.concatenate([f.test_idx for f in folds]))
        assert np.array_equal(all_test, np.arange(20))

    def test_k1_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            popgcn.stratified_kfold(np.array([0, 1, 0, 1]), 1, seed=0)

    def test_small_class_names_class(self):
        labels = np.array([0] * 8 + [1] * 2)
        with pytest.raises(DataError, match="class 1 has 2 members"):
            popgcn.stratified_kfold(labels, 3, seed=0)

    def test_deterministic(self):
        labels = np.arange(30) % 3
        a = popgcn.stratified_kfold(labels, 5, seed=7)
        b = popgcn.stratified_kfold(labels, 5, seed=7)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.test_idx, fb.test_idx)
            assert np.array_equal(fa.train_idx, fb.train_idx)

    @settings(max_examples=25, deadline=None)
    @given(counts=st.tuples(st.integers(4, 12), st.integers(4, 12),
                            st.integers(4, 12)),
           seed=st.integers(0, 1000))
    def test_partition_properties(self, counts, seed):
        labels = np.repeat([0, 1, 2], counts)
        folds = popgcn.stratified_kfold(labels, 4, seed)
        all_test = np.sort(np.concatenate([f.test_idx for f in folds]))
        assert np.array_equal(all_test, np.arange(labels.size))
        for fold in folds:
            assert np.intersect1d(fold.train_idx, fold.test_idx).size == 0
            for cls in range(3):
                got = np.sum(labels[fold.test_idx] == cls)
                assert abs(got - counts[cls] / 4) <= 1
                # every class stays represented on the train side
                assert np.sum(labels[fold.train_idx] == cls) >= 1
