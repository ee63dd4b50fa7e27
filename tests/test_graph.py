import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popgcn
from popgcn.data import DataError
from popgcn.graph import GraphError
from helpers import quick_dataset


class TestEdgeRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(GraphError, match="unknown edge rule kind"):
            popgcn.EdgeRule("site", "similarity")

    def test_threshold_requires_positive_beta(self):
        with pytest.raises(GraphError):
            popgcn.EdgeRule("age", popgcn.THRESHOLD)
        with pytest.raises(GraphError):
            popgcn.EdgeRule("age", popgcn.THRESHOLD, -1.0)

    def test_equality_needs_no_beta(self):
        rule = popgcn.EdgeRule("site", popgcn.EQUALITY)
        assert rule.beta is None

    @pytest.mark.parametrize("kind", [popgcn.THRESHOLD, popgcn.EQUALITY])
    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, kind, beta):
        with pytest.raises(GraphError, match="finite") as err:
            popgcn.EdgeRule("age", kind, beta)
        assert err.value.field == "beta"

    def test_beta_stored_as_float(self):
        beta = popgcn.EdgeRule("age", popgcn.THRESHOLD, 2).beta
        assert type(beta) is float and beta == 2.0


class TestBuildEdgeMatrix:
    def test_threshold_hand_case(self):
        # |70-72| = 2 < 3 connects the first pair; the gaps to 80 do not
        ages = [70.0, 72.0, 80.0]
        rule = popgcn.EdgeRule("age", popgcn.THRESHOLD, 3.0)
        edges = popgcn.build_edge_matrix(ages, rule)
        expected = np.array([[0., 1., 0.], [1., 0., 0.], [0., 0., 0.]])
        assert np.array_equal(edges, expected)

    def test_threshold_is_strict(self):
        rule = popgcn.EdgeRule("age", popgcn.THRESHOLD, 2.0)
        edges = popgcn.build_edge_matrix([0.0, 2.0], rule)
        assert np.array_equal(edges, np.zeros((2, 2)))

    def test_equality_hand_case(self):
        rule = popgcn.EdgeRule("site", popgcn.EQUALITY)
        edges = popgcn.build_edge_matrix([1.0, 2.0, 1.0], rule)
        expected = np.array([[0., 0., 1.], [0., 0., 0.], [1., 0., 0.]])
        assert np.array_equal(edges, expected)

    def test_non_finite_value_names_row(self):
        rule = popgcn.EdgeRule("site", popgcn.EQUALITY)
        with pytest.raises(GraphError, match="row 2"):
            popgcn.build_edge_matrix([1.0, 2.0, np.nan], rule)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12),
           beta=st.floats(0.1, 10.0))
    def test_always_symmetric_binary_zero_diag(self, values, beta):
        rule = popgcn.EdgeRule("score", popgcn.THRESHOLD, beta)
        edges = popgcn.build_edge_matrix(values, rule)
        assert np.array_equal(edges, edges.T)
        assert np.all((edges == 0) | (edges == 1))
        assert np.all(np.diagonal(edges) == 0)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.integers(-50, 50), min_size=2, max_size=12),
           beta=st.integers(1, 5),
           shift=st.integers(-100, 100))
    def test_integer_threshold_shift_invariant(self, values, beta, shift):
        # small-integer differences are exact in float64, so translating the
        # column must leave the graph untouched
        rule = popgcn.EdgeRule("score", popgcn.THRESHOLD, float(beta))
        column = np.array(values, dtype=np.float64)
        assert np.array_equal(popgcn.build_edge_matrix(column, rule),
                              popgcn.build_edge_matrix(column + shift, rule))


class TestSimilarityMatrix:
    def test_perfectly_correlated_rows(self):
        sim = popgcn.similarity_matrix([[1., 2., 3.], [2., 4., 6.]])
        assert np.allclose(sim, 1.0)

    def test_anticorrelated_rows_rectified_to_zero(self):
        sim = popgcn.similarity_matrix([[1., 2., 3.], [3., 2., 1.]])
        assert sim[0, 1] == 0.0 and sim[1, 0] == 0.0
        assert sim[0, 0] == 1.0 and sim[1, 1] == 1.0

    def test_constant_row_names_row(self):
        with pytest.raises(GraphError, match="row 1"):
            popgcn.similarity_matrix([[1., 2., 3.], [4., 4., 4.]])

    def test_range_symmetry_diagonal(self):
        rng = np.random.default_rng(5)
        sim = popgcn.similarity_matrix(rng.standard_normal((20, 6)))
        assert np.all(sim >= 0.0) and np.all(sim <= 1.0)
        assert np.array_equal(sim, sim.T)
        assert np.all(np.diagonal(sim) == 1.0)

    def test_rejects_single_feature(self):
        with pytest.raises(GraphError, match="at least 2"):
            popgcn.similarity_matrix([[1.], [2.]])


class TestBuildAffinity:
    def test_entrywise_product(self):
        sim = np.array([[1.0, 0.8], [0.8, 1.0]])
        edges = np.array([[0.0, 1.0], [1.0, 0.0]])
        affinity = popgcn.build_affinity(sim, edges, "age")
        assert np.array_equal(affinity.weights,
                              np.array([[0.0, 0.8], [0.8, 0.0]]))
        assert affinity.element_name == "age"

    def test_edges_mask_out_similarity(self):
        sim = np.full((3, 3), 0.5)
        np.fill_diagonal(sim, 1.0)
        edges = np.zeros((3, 3))
        affinity = popgcn.build_affinity(sim, edges)
        assert np.array_equal(affinity.weights, np.zeros((3, 3)))

    def test_rejects_non_binary_edges(self):
        sim = np.eye(2)
        with pytest.raises(GraphError, match="binary"):
            popgcn.build_affinity(sim, np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphError, match="shape mismatch"):
            popgcn.build_affinity(np.eye(3), np.zeros((2, 2)))

    def test_rejects_asymmetric_edges_under_positive_similarity(self):
        sim = np.full((2, 2), 0.5)
        edges = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(GraphError,
                           match="affinity weights must be exactly symmetric"):
            popgcn.build_affinity(sim, edges)

    def test_rejects_edge_self_loop(self):
        sim = popgcn.similarity_matrix([[1., 2., 3.], [2., 1., 0.]])
        edges = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(GraphError, match="affinity diagonal must be zero"):
            popgcn.build_affinity(sim, edges)


class TestAffinityValidation:
    def test_rejects_asymmetric(self):
        bad = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(GraphError, match="symmetric"):
            popgcn.AffinityMatrix(bad)

    def test_rejects_negative(self):
        bad = np.array([[0.0, -0.5], [-0.5, 0.0]])
        with pytest.raises(GraphError, match="nonnegative"):
            popgcn.AffinityMatrix(bad)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(GraphError, match="diagonal"):
            popgcn.AffinityMatrix(np.eye(2))


class TestNormalizeAffinity:
    def test_two_node_hand_case(self):
        # W + I is all-ones, every degree is 2, so each entry becomes 1/2
        affinity = popgcn.AffinityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        prop = popgcn.normalize_affinity(affinity)
        assert np.allclose(prop.matrix, 0.5)

    def test_isolated_nodes_become_identity(self):
        affinity = popgcn.AffinityMatrix(np.zeros((4, 4)))
        prop = popgcn.normalize_affinity(affinity)
        assert np.array_equal(prop.matrix, np.eye(4))

    def test_weighted_hand_case(self):
        # degrees: 1 + 0.6 = 1.6 for both nodes; off-diagonal 0.6/1.6
        affinity = popgcn.AffinityMatrix(np.array([[0.0, 0.6], [0.6, 0.0]]))
        prop = popgcn.normalize_affinity(affinity)
        assert np.allclose(prop.matrix,
                           np.array([[1 / 1.6, 0.6 / 1.6], [0.6 / 1.6, 1 / 1.6]]))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            raw = rng.random((15, 15)) * (rng.random((15, 15)) < 0.4)
            weights = np.triu(raw, 1)
            weights = weights + weights.T
            prop = popgcn.normalize_affinity(popgcn.AffinityMatrix(weights))
            assert np.array_equal(prop.matrix, prop.matrix.T)

    def test_spectral_radius_bounded(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            raw = rng.random((25, 25)) * (rng.random((25, 25)) < 0.3)
            weights = np.triu(raw, 1)
            weights = weights + weights.T
            prop = popgcn.normalize_affinity(popgcn.AffinityMatrix(weights))
            assert popgcn.spectral_radius(prop.matrix) <= 1.0 + 1e-9


class TestSpectralRadius:
    def test_diagonal_matrix(self):
        assert abs(popgcn.spectral_radius(np.diag([3.0, 1.0])) - 3.0) < 1e-9

    def test_dominant_negative_eigenvalue(self):
        assert abs(popgcn.spectral_radius(np.diag([2.0, -5.0])) - 5.0) < 1e-9

    def test_zero_matrix(self):
        assert popgcn.spectral_radius(np.zeros((3, 3))) == 0.0


class TestDefaultEdgeRules:
    def _dataset(self, demographics, names):
        demographics = np.asarray(demographics, dtype=np.float64)
        n = demographics.shape[0]
        rng = np.random.default_rng(0)
        return popgcn.Dataset(rng.standard_normal((n, 4)),
                              np.arange(n) % 2, demographics, names, 2)

    def test_age_gets_fixed_threshold(self):
        ds = self._dataset([[70.5], [71.2], [80.1], [65.3]], ("Age",))
        rules = popgcn.default_edge_rules(ds)
        assert rules[0].kind == popgcn.THRESHOLD
        assert rules[0].beta == 2.0

    def test_few_level_integers_use_equality(self):
        ds = self._dataset([[0.], [1.], [1.], [0.]], ("gender",))
        assert popgcn.default_edge_rules(ds)[0].kind == popgcn.EQUALITY

    def test_constant_column_uses_equality(self):
        ds = self._dataset([[0.1], [0.1], [0.1], [0.1]], ("site",))
        assert popgcn.default_edge_rules(ds)[0].kind == popgcn.EQUALITY

    def test_continuous_column_gets_half_std(self):
        column = np.array([[0.3], [1.7], [2.9], [4.1]])
        ds = self._dataset(column, ("score",))
        rule = popgcn.default_edge_rules(ds)[0]
        assert rule.kind == popgcn.THRESHOLD
        assert rule.beta == pytest.approx(0.5 * column[:, 0].std())

    def test_many_level_integers_treated_continuous(self):
        column = np.arange(12.0).reshape(-1, 1)
        ds = self._dataset(column, ("iq",))
        rule = popgcn.default_edge_rules(ds)[0]
        assert rule.kind == popgcn.THRESHOLD
        assert rule.beta == pytest.approx(0.5 * column[:, 0].std())

    def test_one_rule_per_element_in_order(self):
        ds = quick_dataset()
        rules = popgcn.default_edge_rules(ds)
        assert [r.element for r in rules] == list(ds.element_names)


class TestBuildMatrices:
    def test_element_names_attached(self):
        ds = quick_dataset()
        affinities = popgcn.build_affinity_matrices(ds)
        assert tuple(a.element_name for a in affinities) == ds.element_names

    def test_rule_out_of_range_rejected(self):
        ds = quick_dataset()
        with pytest.raises(DataError,
                           match="unknown demographic element 'site'; "
                                 r"available: \['informative', 'noise'\]"):
            popgcn.build_affinity_matrices(
                ds, [popgcn.EdgeRule("site", popgcn.EQUALITY)])

    def test_propagation_matrices_well_formed(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(ds)
        assert len(props) == ds.n_elements
        for prop in props:
            assert prop.n_nodes == ds.n_nodes
            assert np.array_equal(prop.matrix, prop.matrix.T)
            assert popgcn.spectral_radius(prop.matrix) <= 1.0 + 1e-9

    def test_empty_rules_build_the_defaults(self):
        ds = quick_dataset()
        empty = popgcn.build_propagation_matrices(ds, ())
        default = popgcn.build_propagation_matrices(ds)
        assert len(empty) == len(default) == ds.n_elements
        for a, b in zip(empty, default):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_each_graph_array_scanned_for_symmetry_once(self, monkeypatch):
        # one scan per affinity and one per operator: the edge matrices are
        # symmetric by construction and are not scanned again
        ds = quick_dataset(noise_elements=("noise", "site"))
        calls = []
        array_equal = np.array_equal

        def counting(a, b, *args, **kwargs):
            calls.append(np.shape(a))
            return array_equal(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "array_equal", counting)
        props = popgcn.build_propagation_matrices(ds)
        assert len(props) == 3
        assert calls == [(ds.n_nodes, ds.n_nodes)] * 6

    def test_restricting_rules_restricts_graphs(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(
            ds, [popgcn.EdgeRule("noise", popgcn.THRESHOLD, 0.2)])
        assert len(props) == 1


class TestGraphStatistics:
    def test_path_graph_hand_case(self):
        weights = np.array([[0.0, 0.5, 0.0],
                            [0.5, 0.0, 0.5],
                            [0.0, 0.5, 0.0]])
        stats = popgcn.graph_statistics(popgcn.AffinityMatrix(weights, "age"))
        assert stats["element"] == "age"
        assert stats["n_nodes"] == 3
        assert stats["edge_count"] == 2
        assert stats["density"] == pytest.approx(2 / 3)
        # degrees are (1, 2, 1)
        assert stats["degree_histogram"] == [0, 2, 1]

    def test_empty_graph(self):
        stats = popgcn.graph_statistics(popgcn.AffinityMatrix(np.zeros((4, 4))))
        assert stats["edge_count"] == 0
        assert stats["density"] == 0.0
        assert stats["degree_histogram"] == [4]
