import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popgcn
from popgcn import graph, train
from popgcn.data import DataError
from popgcn.graph import GraphError
from helpers import quick_dataset

TILE = graph._SYMMETRY_TILE


def corrcoef_on_one_blas_thread(feats):
    """``np.corrcoef(feats)`` with OpenBLAS on one thread, as
    ``similarity_matrix`` runs its product: on more threads the product
    may round differently."""
    return graph._one_blas_thread(np.corrcoef, feats)


def _symmetric(n, seed=0):
    values = np.random.default_rng(seed).random((n, n))
    return values + values.T


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

    def test_equality_refuses_a_beta(self):
        # the edges would ignore it while every report echoed it
        with pytest.raises(GraphError, match=r"^equality rules take no beta, "
                           r"got 3\.0$") as err:
            popgcn.EdgeRule("informative", popgcn.EQUALITY, 3.0)
        assert err.value.field == "beta"

    @pytest.mark.parametrize("kind", [popgcn.THRESHOLD, popgcn.EQUALITY])
    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, kind, beta):
        with pytest.raises(GraphError, match="finite") as err:
            popgcn.EdgeRule("age", kind, beta)
        assert err.value.field == "beta"

    def test_beta_stored_as_float(self):
        for given in (2, np.int64(2), np.float32(2.0)):
            beta = popgcn.EdgeRule("age", popgcn.THRESHOLD, given).beta
            assert type(beta) is float and beta == 2.0

    @pytest.mark.parametrize("args, field", [
        # True is not a beta, nor 3 an element name
        (("age", popgcn.THRESHOLD, True), "beta"),
        (("age", popgcn.THRESHOLD, "2"), "beta"),
        (("age", popgcn.THRESHOLD, 10 ** 400), "beta"),
        ((3, popgcn.EQUALITY), "element"),
        (("age", 5), "kind"),
        (("age", popgcn.THRESHOLD, 10 ** 5000), "beta"),
    ])
    def test_rejects_wrong_field_types(self, args, field):
        with pytest.raises(GraphError, match="must be") as err:
            popgcn.EdgeRule(*args)
        assert err.value.field == field


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

    def test_overflowing_gap_is_no_edge_and_no_warning(self):
        # 1e308 - (-1e308) overflows to inf, a gap no beta bridges; tier-1
        # turns the RuntimeWarning the subtraction printed into a failure
        rule = popgcn.EdgeRule("s", popgcn.THRESHOLD, 1.0)
        edges = popgcn.build_edge_matrix([1e308, -1e308, 0.0], rule)
        assert edges.tobytes() == np.zeros((3, 3)).tobytes()

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


    @pytest.mark.parametrize("n", [TILE + 1, 600])
    @pytest.mark.parametrize("integers", [False, True])
    def test_threshold_matches_the_unfused_formula(self, n, integers):
        # integer values put many differences exactly at beta
        rng = np.random.default_rng(n)
        column = (rng.integers(0, 40, n).astype(np.float64) if integers
                  else rng.normal(50.0, 10.0, n))
        beta = 3.0 if integers else 0.5 * float(column.std())
        expected = (np.abs(column[:, None] - column[None, :]) < beta
                    ).astype(float)
        np.fill_diagonal(expected, 0.0)
        edges = popgcn.build_edge_matrix(
            column, popgcn.EdgeRule("score", popgcn.THRESHOLD, beta))
        assert edges.dtype == np.float64
        assert edges.tobytes() == expected.tobytes()


class TestSymmetryScan:
    @staticmethod
    def flip_sites(n):
        """Entries in the first diagonal tile, an off-diagonal tile, the
        last column of tiles (partial unless n is a multiple of the tile)
        and the last diagonal tile, each with its mirror."""
        if n < 2:
            return []
        sites = {(0, 1), (0, n - 1), (n - 1, n - 2)}
        if n > TILE:
            sites.add((1, TILE))
        return sorted(sites | {(j, i) for i, j in sites})

    @pytest.mark.parametrize("n", [1, 2, TILE - 1, TILE, TILE + 1,
                                   2 * TILE + 3])
    def test_verdict_is_the_full_comparison(self, n):
        array = _symmetric(n)
        assert graph._exactly_symmetric(array)
        assert np.array_equal(array, array.T)
        for i, j in self.flip_sites(n):
            flipped = array.copy()
            flipped[i, j] = np.nextafter(flipped[i, j], 3.0)
            assert not np.array_equal(flipped, flipped.T)
            assert not graph._exactly_symmetric(flipped), (i, j)

    @pytest.mark.parametrize("build", [popgcn.AffinityMatrix,
                                       popgcn.PropagationMatrix])
    def test_asymmetry_past_one_tile_rejected(self, build):
        n = TILE + 5
        weights = _symmetric(n)
        np.fill_diagonal(weights, 0.0)
        weights[1, n - 1] = np.nextafter(weights[1, n - 1], 3.0)
        with pytest.raises(GraphError, match="must be exactly symmetric"):
            build(weights)


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

    def test_one_row_is_its_own_perfect_match(self):
        # np.corrcoef squeezes one row's 1 x 1 result to a 0-d array
        sim = popgcn.similarity_matrix([[1., 2., 4.]])
        assert sim.dtype == np.float64
        assert sim.tobytes() == np.ones((1, 1)).tobytes()

    # x 1e300 overflows the row's centred sum of squares, which zeroed its
    # every similarity; x 1e-320 underflows it to 0, which gave 1.0 to
    # another subject. Tier-1 fails on the RuntimeWarnings either printed.
    @pytest.mark.parametrize("scale", [1e300, 1e-320, 1e155])
    def test_row_beyond_float_range_names_row(self, scale):
        feats = np.random.default_rng(0).standard_normal((60, 8))
        feats[4] *= scale
        with pytest.raises(GraphError, match="feature row 4 has a centred "
                           "sum of squares that is not finite and positive"):
            popgcn.similarity_matrix(feats)

    def test_row_whose_product_diagonal_underflows_names_row(self):
        # row 0's centred sum of squares is 2 subnormal ulps, but scaled by
        # 1/19 it rounds to 0; row 1's product with it is exactly 0, so
        # its correlation used to be 0/0, a NaN with RuntimeWarnings
        feats = np.random.default_rng(1).standard_normal((5, 20))
        feats[:2] = 0.0
        feats[0, :2] = 2e-162, -2e-162
        feats[1, 2:] = np.tile([1.0, -1.0], 9)
        with pytest.raises(GraphError, match="feature row 0 has a centred "
                           "sum of squares that is not finite and positive"):
            popgcn.similarity_matrix(feats)

    def test_constant_row_is_named_before_a_row_out_of_range(self):
        feats = np.random.default_rng(0).standard_normal((6, 4))
        feats[1] *= 1e300
        feats[3] = 2.0
        with pytest.raises(GraphError, match="feature row 3 is constant"):
            popgcn.similarity_matrix(feats)

    def test_peak_memory_is_the_result_plus_one_tile_per_thread(
            self, threaded_build):
        # 16 row blocks in 2 threads: beside the result, the centred rows
        # while the product runs, then per thread one block of mirror
        # entries (at most one tile's items) and ufunc iteration buffers
        n, d = 1000, 20
        feats = np.random.default_rng(0).standard_normal((n, d))
        per_thread = TILE * TILE * 8 + 3 * np.getbufsize() * 8
        bound = n * n * 8 + n * d * 8 + 2 * per_thread
        tracemalloc.start()
        try:
            popgcn.similarity_matrix(feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("threads", [1, 2, 6])
    def test_bits_whatever_the_thread_count(self, monkeypatch, threads):
        # 26 row blocks in 1, 2 or 6 threads, switching often: the threads
        # write disjoint rows of one array, and a write into another
        # thread's rows would change the bytes
        feats = np.random.default_rng(6).standard_normal((5 * TILE + 7, 9))
        sim = corrcoef_on_one_blas_thread(feats)
        expected = np.clip((sim + sim.T) / 2.0, 0.0, 1.0)
        np.fill_diagonal(expected, 1.0)
        monkeypatch.setattr(graph, "_build_threads",
                            lambda n_jobs: min(n_jobs, threads))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sim = popgcn.similarity_matrix(feats)
        finally:
            sys.setswitchinterval(interval)
        assert sim.tobytes() == expected.tobytes()

    # 1000 rows end in a partial block of 25
    @pytest.mark.parametrize("n", [3, TILE, TILE + 1, 2 * TILE + 3, 1000])
    def test_bits_of_the_full_matrix_formula(self, n):
        feats = np.random.default_rng(n).standard_normal((n, 7))
        feats[0] *= 1e150  # large but in range: still correlated exactly
        # correlations of exactly +-1, or a rounding past them, meet the
        # [-1, 1] clip
        tied = feats.copy()
        tied[n - 1], tied[n - 2] = tied[0], -tied[0]
        for cohort in (feats, tied):
            sim = corrcoef_on_one_blas_thread(cohort)
            expected = np.clip((sim + sim.T) / 2.0, 0.0, 1.0)
            np.fill_diagonal(expected, 1.0)
            assert (popgcn.similarity_matrix(cohort).tobytes()
                    == expected.tobytes())

    @pytest.mark.parametrize("d", [2, 7, 500])
    @pytest.mark.parametrize("n", [2, TILE + 1, 1000])
    def test_product_of_centred_rows_is_exactly_symmetric(self, n, d):
        # the walk reads each entry's mirror value off its own row; a NumPy
        # or BLAS whose a @ a.T rounds the two triangles apart fails here
        feats = np.random.default_rng(n * d).standard_normal((n, d))
        centred = feats - feats.mean(axis=1, keepdims=True)
        product = graph._one_blas_thread(np.matmul, centred, centred.T)
        assert np.array_equal(product, product.T)

    def test_pins_in_two_threads_restore_the_thread_count(self,
                                                          monkeypatch):
        # two builds pin OpenBLAS at once; without turns the later one
        # reads the earlier one's pin as the count to restore
        count, seen = [2], []
        monkeypatch.setattr(graph, "_openblas", lambda: (
            lambda: count[0], lambda threads: count.__setitem__(0, threads)))

        def product():
            seen.append(count[0])
            time.sleep(0.05)

        threads = [threading.Thread(target=graph._one_blas_thread,
                                    args=(product,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert (seen, count) == ([1, 1], [2])


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


class TestPropagationMatrix:
    @pytest.mark.parametrize("n_nodes, field", [
        (None, None), (0, None), (True, "n_nodes"), (np.bool_(True), "n_nodes"),
        (2.0, "n_nodes"),
    ])
    def test_no_graph_operator_needs_a_positive_integer(self, n_nodes, field):
        # a bool is not a node count
        with pytest.raises(GraphError) as err:
            popgcn.PropagationMatrix(matrix=None, n_nodes=n_nodes)
        assert err.value.field == field


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

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, TILE - 1, TILE, TILE + 1]),
           seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0),
           isolated=st.floats(0.0, 1.0),
           exponents=st.tuples(st.integers(-324, 300), st.integers(-324, 300)))
    def test_operator_passes_the_public_checks(self, n, seed, density,
                                               isolated, exponents):
        # the operator is not scanned when made; its affinity's checks prove
        # it finite and exactly symmetric, from subnormal weights to 1e300
        rng = np.random.default_rng(seed)
        low, high = sorted(exponents)
        values = 10.0 ** rng.uniform(low, high, (n, n))
        upper = np.triu(values * (rng.random((n, n)) < density), 1)
        alone = rng.random(n) < isolated
        upper[alone], upper[:, alone] = 0.0, 0.0
        affinity = popgcn.AffinityMatrix(upper + upper.T)
        prop = popgcn.normalize_affinity(affinity)
        assert popgcn.PropagationMatrix(matrix=prop.matrix.copy()).n_nodes == n
        degrees = affinity.weights.sum(axis=1) + 1.0
        assert np.allclose(np.diagonal(prop.matrix), 1.0 / degrees,
                           rtol=1e-12, atol=0.0)
        assert np.all(np.diagonal(prop.matrix)[alone] == 1.0)
        in_place = popgcn.normalize_affinity(affinity, out=affinity.weights)
        assert in_place.matrix is affinity.weights
        assert in_place.matrix.tobytes() == prop.matrix.tobytes()

    def test_spectral_radius_bounded(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            raw = rng.random((25, 25)) * (rng.random((25, 25)) < 0.3)
            weights = np.triu(raw, 1)
            weights = weights + weights.T
            prop = popgcn.normalize_affinity(popgcn.AffinityMatrix(weights))
            assert np.abs(np.linalg.eigvals(prop.matrix)).max() <= 1.0 + 1e-9


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

    def test_column_whose_spread_overflows_names_element(self):
        column = np.linspace(0.25, 3.75, 8)
        column[2], column[5] = 1e308, -1e308
        ds = self._dataset(column[:, None], ("score",))
        with pytest.raises(GraphError, match="element 'score': the standard "
                           "deviation of its column is not finite"):
            popgcn.default_edge_rules(ds)

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
            assert np.abs(np.linalg.eigvals(prop.matrix)).max() <= 1.0 + 1e-9

    def test_empty_rules_build_the_defaults(self):
        ds = quick_dataset()
        empty = popgcn.build_propagation_matrices(ds, ())
        default = popgcn.build_propagation_matrices(ds)
        assert len(empty) == len(default) == ds.n_elements
        for a, b in zip(empty, default):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    @pytest.mark.parametrize("n_nodes", [36, 2 * TILE + 3],
                             ids=["one_tile", "three_tiles"])
    @pytest.mark.parametrize("build", [popgcn.build_affinity_matrices,
                                       popgcn.build_propagation_matrices])
    def test_build_scans_no_array_it_made(self, monkeypatch, build, n_nodes):
        # the edges, the similarity and so each affinity and operator are
        # proven by their construction: no symmetry scan and no row scan
        # (binary edges, finite and nonnegative weights) on any of them
        ds = quick_dataset(n_nodes=n_nodes, noise_elements=("noise", "site"))
        calls = []

        def spy(name):
            scan = getattr(graph, name)

            def counting(*args):
                calls.append(name)
                return scan(*args)
            return counting

        for name in ("_exactly_symmetric", "_any_rows"):
            monkeypatch.setattr(graph, name, spy(name))
        assert len(build(ds)) == 3
        assert calls == []
        # the spies see the public constructor's scans
        popgcn.AffinityMatrix(np.zeros((n_nodes, n_nodes)))
        assert calls == ["_any_rows", "_exactly_symmetric", "_any_rows"]

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, TILE - 1, TILE + 1]),
           seed=st.integers(0, 2 ** 32 - 1),
           columns=st.lists(st.tuples(
               st.sampled_from(["tied", "constant", "continuous"]),
               st.sampled_from([popgcn.EQUALITY, popgcn.THRESHOLD]),
               st.floats(1e-3, 10.0)), min_size=1, max_size=3),
           threads=st.integers(1, 3),
           exponent=st.sampled_from([0, -161, -162, 150, 154]))
    def test_built_operators_pass_the_public_checks(self, n, seed, columns,
                                                    threads, exponent):
        # features near the ends of float range too, where a row's spread
        # may be refused: what is built is what the public checks accept
        rng = np.random.default_rng(seed)
        demographics = np.column_stack([
            rng.integers(0, 3, n) if values == "tied"
            else np.full(n, 4.0) if values == "constant"
            else rng.normal(50.0, 10.0, n)
            for values, _, _ in columns])
        names = tuple(f"e{k}" for k in range(len(columns)))
        rules = [popgcn.EdgeRule(name, kind,
                                 beta if kind == popgcn.THRESHOLD else None)
                 for name, (_, kind, beta) in zip(names, columns)]
        ds = popgcn.Dataset(rng.standard_normal((n, 4)) * 10.0 ** exponent,
                            np.arange(n) % 2, demographics, names, 2)
        with mock.patch.object(graph, "_build_threads",
                               lambda n_calls: min(n_calls, threads)):
            try:
                affinities = popgcn.build_affinity_matrices(ds, rules)
            except GraphError as err:
                assert "centred sum of squares" in str(err)
                return
            props = popgcn.build_propagation_matrices(ds, rules)
        assert len(affinities) == len(props) == len(rules)
        for affinity, prop, name in zip(affinities, props, names):
            checked = popgcn.AffinityMatrix(affinity.weights, name)
            assert checked.weights is affinity.weights
            assert affinity.element_name == name
            assert popgcn.PropagationMatrix(matrix=prop.matrix).n_nodes == n

    def test_operators_match_the_unfused_formulas(self):
        # an equality rule and two threshold rules on a graph of many tiles
        ds = quick_dataset(n_nodes=TILE + 44, n_features=12,
                           noise_elements=("noise", "site"))
        rules = popgcn.default_edge_rules(ds)
        assert {rule.kind for rule in rules} == {popgcn.EQUALITY,
                                                 popgcn.THRESHOLD}
        sim = popgcn.similarity_matrix(ds.features)
        props = popgcn.build_propagation_matrices(ds, rules)
        for rule, prop in zip(rules, props):
            column = ds.demographics[:, ds.element_index(rule.element)]
            if rule.kind == popgcn.THRESHOLD:
                edges = np.abs(column[:, None] - column[None, :]) < rule.beta
            else:
                edges = column[:, None] == column[None, :]
            edges = edges.astype(np.float64)
            np.fill_diagonal(edges, 0.0)
            augmented = sim * edges + np.eye(ds.n_nodes)
            scale = 1.0 / np.sqrt(augmented.sum(axis=1))
            expected = augmented * np.outer(scale, scale)
            assert prop.matrix.tobytes() == expected.tobytes()

    def test_restricting_rules_restricts_graphs(self):
        ds = quick_dataset()
        props = popgcn.build_propagation_matrices(
            ds, [popgcn.EdgeRule("noise", popgcn.THRESHOLD, 0.2)])
        assert len(props) == 1


def _three_element_dataset(n_nodes=TILE + 1):
    """Equality and threshold defaults on an N that is not a tile multiple."""
    ds = quick_dataset(n_nodes=n_nodes, n_features=12,
                       noise_elements=("noise", "site"))
    kinds = {rule.kind for rule in popgcn.default_edge_rules(ds)}
    assert kinds == {popgcn.EQUALITY, popgcn.THRESHOLD}
    return ds


def _no_call(*args, **kwargs):
    raise AssertionError("called")


def _graph_bytes(graphs) -> list:
    return [(g.weights if isinstance(g, popgcn.AffinityMatrix)
             else g.matrix).tobytes() for g in graphs]


class TestOutArguments:
    @pytest.fixture
    def parts(self):
        ds = _three_element_dataset()
        sim = popgcn.similarity_matrix(ds.features)
        return ds, sim, popgcn.default_edge_rules(ds)

    def test_edges_into_out(self, parts):
        ds, _, rules = parts
        for rule in rules:
            column = ds.demographics[:, ds.element_index(rule.element)]
            out = np.full((ds.n_nodes, ds.n_nodes), 7.0)
            edges = popgcn.build_edge_matrix(column, rule, out=out)
            assert edges is out
            assert out.tobytes() == \
                popgcn.build_edge_matrix(column, rule).tobytes()

    @pytest.mark.parametrize("into", ["new", "edges", "sim"])
    def test_affinity_into_out(self, parts, into):
        ds, sim, rules = parts
        column = ds.demographics[:, ds.element_index(rules[1].element)]
        edges = popgcn.build_edge_matrix(column, rules[1])
        expected = popgcn.build_affinity(sim, edges, "x").weights.tobytes()
        sim, edges = sim.copy(), edges.copy()
        out = {"new": np.empty_like(sim), "edges": edges, "sim": sim}[into]
        affinity = popgcn.build_affinity(sim, edges, "x", out=out)
        assert affinity.weights is out
        assert out.tobytes() == expected

    @pytest.mark.parametrize("alias", [False, True])
    def test_normalize_into_out(self, parts, alias):
        ds, sim, rules = parts
        affinities = popgcn.build_affinity_matrices(ds, rules)
        for affinity in affinities:
            expected = popgcn.normalize_affinity(affinity).matrix.tobytes()
            out = affinity.weights if alias else np.empty_like(sim)
            prop = popgcn.normalize_affinity(affinity, out=out)
            assert prop.matrix is out
            assert out.tobytes() == expected

    @pytest.mark.parametrize("out", [np.zeros((4, 4), dtype=np.float32),
                                     np.zeros((4, 5)), [[0.0] * 4] * 4])
    def test_out_must_be_float64_of_the_shape(self, out):
        rule = popgcn.EdgeRule("site", popgcn.EQUALITY)
        with pytest.raises(GraphError, match=r"out must be a float64 array "
                           r"of shape \(4, 4\)"):
            popgcn.build_edge_matrix([1.0, 2.0, 1.0, 3.0], rule, out=out)


class TestInThreads:
    def test_results_in_call_order_first_call_on_the_calling_thread(
            self, monkeypatch):
        monkeypatch.setattr(graph, "_build_threads", lambda n_calls: n_calls)
        calls = [lambda i=i: (i, threading.current_thread())
                 for i in range(6)]
        results = graph._in_threads(calls)
        assert [i for i, _ in results] == list(range(6))
        assert results[0][1] is threading.main_thread()

    def test_a_slow_failing_call_wins_over_a_later_fast_one(self,
                                                            monkeypatch):
        # call 2 fails while call 1, already taken, still runs: a serial
        # run raises call 1's error and never reaches call 2
        monkeypatch.setattr(graph, "_build_threads", lambda n_calls: n_calls)
        started = threading.Event()

        def slow():
            started.set()
            time.sleep(0.1)
            raise ValueError("call 1")

        def fast():
            assert started.wait(5.0)
            raise ValueError("call 2")

        with pytest.raises(ValueError, match="call 1"):
            graph._in_threads([lambda: 0, slow, fast])

    def test_no_call_starts_after_a_failure(self, monkeypatch):
        monkeypatch.setattr(graph, "_build_threads", lambda n_calls: 2)
        before, ran = threading.active_count(), []

        def first():
            # wait until the helper has failed and found nothing to take
            deadline = time.monotonic() + 5.0
            while (threading.active_count() > before
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            ran.append(0)

        def failing():
            ran.append(1)
            raise ValueError("call 1")

        calls = [first, failing] + [lambda i=i: ran.append(i)
                                    for i in range(2, 6)]
        with pytest.raises(ValueError, match="call 1"):
            graph._in_threads(calls)
        assert sorted(ran) == [0, 1]

    def test_interrupt_in_the_first_call_joins_and_runs_no_more(
            self, monkeypatch):
        monkeypatch.setattr(graph, "_build_threads", lambda n_calls: 2)
        before, ran = threading.active_count(), []
        started = threading.Event()

        def interrupted():
            assert started.wait(5.0)
            raise KeyboardInterrupt

        def taken():
            started.set()
            time.sleep(0.1)
            ran.append(1)

        calls = [interrupted, taken] + [lambda i=i: ran.append(i)
                                        for i in range(2, 5)]
        with pytest.raises(KeyboardInterrupt):
            graph._in_threads(calls)
        assert ran == [1]
        assert threading.active_count() == before

    def test_one_thread_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(graph, "_build_threads", lambda n_calls: 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was constructed")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert graph._in_threads([lambda i=i: i for i in range(4)]) == [
            0, 1, 2, 3]
        assert len(popgcn.build_propagation_matrices(quick_dataset())) == 2


class TestThreadedBuild:
    @pytest.mark.parametrize("build", [popgcn.build_affinity_matrices,
                                       popgcn.build_propagation_matrices])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_same_bytes_as_serial(self, monkeypatch, build, threads):
        ds = _three_element_dataset()
        monkeypatch.setattr(graph, "_build_threads", lambda n_elements: 1)
        serial = build(ds)
        monkeypatch.setattr(graph, "_build_threads",
                            lambda n_elements: threads)
        built = build(ds)
        assert len(built) == len(serial) == 3
        for a, b in zip(built, serial):
            assert type(a) is type(b)
            if isinstance(a, popgcn.AffinityMatrix):
                assert a.element_name == b.element_name
                a, b = a.weights, b.weights
            else:
                a, b = a.matrix, b.matrix
            assert a.tobytes() == b.tobytes()

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        # the threads share the similarity matrix and the dataset, read only;
        # a write through a shared array would show as changed bytes
        ds = quick_dataset(n_nodes=70, noise_elements=tuple(
            f"noise{k}" for k in range(7)))
        monkeypatch.setattr(graph, "_build_threads", lambda n_elements: 1)
        serial = popgcn.build_propagation_matrices(ds)
        monkeypatch.setattr(graph, "_build_threads",
                            lambda n_elements: n_elements)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                built = popgcn.build_propagation_matrices(ds)
                assert [p.matrix.tobytes() for p in built] == \
                    [p.matrix.tobytes() for p in serial]
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_one_thread_builds_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(graph, "_build_threads", lambda n_elements: 1)
        seen = []
        edges = graph.build_edge_matrix

        def spy(*args, **kwargs):
            seen.append(threading.current_thread())
            return edges(*args, **kwargs)

        monkeypatch.setattr(graph, "build_edge_matrix", spy)
        popgcn.build_propagation_matrices(quick_dataset())
        assert seen == [threading.main_thread()] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failing_rule_raises(self, monkeypatch, threads):
        # each named column holds a value the edge stage refuses, in its own
        # row; the last rule's edges build in the first round like the others
        rules = [popgcn.EdgeRule("informative", popgcn.EQUALITY),
                 popgcn.EdgeRule("site", popgcn.EQUALITY),
                 popgcn.EdgeRule("noise", popgcn.THRESHOLD, 0.5)]
        monkeypatch.setattr(graph, "_build_threads",
                            lambda n_elements: threads)
        before = threading.active_count()
        for bad, row in [({"noise": (5, np.nan), "site": (3, np.inf)}, 3),
                         ({"noise": (5, np.nan)}, 5)]:
            ds = quick_dataset(noise_elements=("noise", "site"))
            for element, (i, value) in bad.items():
                ds.demographics[i, ds.element_index(element)] = value
            with pytest.raises(GraphError) as err:
                popgcn.build_propagation_matrices(ds, rules)
            assert str(err.value) == \
                f"non-finite demographic value at row {row}"
            assert threading.active_count() == before

    @pytest.mark.parametrize("cpu_count", [None, 1, 4])
    def test_builds_where_sched_getaffinity_is_missing(self, monkeypatch,
                                                       cpu_count):
        # macOS and Windows have no os.sched_getaffinity; the CPU count,
        # which may be unknown, stands in for it
        ds = _three_element_dataset()
        monkeypatch.setattr(graph, "_build_threads", lambda n_elements: 1)
        serial = [p.matrix.tobytes()
                  for p in popgcn.build_propagation_matrices(ds)]
        monkeypatch.undo()
        monkeypatch.delattr(graph.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(graph.os, "cpu_count", lambda: cpu_count)
        assert graph._build_threads(3) == min(3, cpu_count or 1)
        assert [p.matrix.tobytes()
                for p in popgcn.build_propagation_matrices(ds)] == serial
        assert len(popgcn.build_affinity_matrices(ds)) == 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_column_named_before_a_constant_feature_row(
            self, monkeypatch, threads):
        # the rules resolve before any work, as through main: the default
        # rules' error comes first, and no similarity is computed for it
        ds = _three_element_dataset()
        ds.features[3] = 2.0
        noise = ds.demographics[:, ds.element_index("noise")]
        noise[2], noise[5] = 1e308, -1e308
        monkeypatch.setattr(graph, "_build_threads",
                            lambda n_jobs: min(n_jobs, threads))
        monkeypatch.setattr(graph, "similarity_matrix", _no_call)
        for build in (popgcn.build_affinity_matrices,
                      popgcn.build_propagation_matrices):
            with pytest.raises(GraphError) as err:
                build(ds)
            assert str(err.value) == (
                "element 'noise': the standard deviation of its column is "
                "not finite, so it has no default threshold")

    def test_rule_naming_no_element_refused_before_any_work(
            self, monkeypatch, threaded_build):
        # a constant feature row would fail the similarity, which the
        # unknown element's error comes before
        ds = _three_element_dataset()
        ds.features[3] = 2.0
        rules = [popgcn.EdgeRule("informative", popgcn.EQUALITY),
                 popgcn.EdgeRule("scanner", popgcn.EQUALITY)]
        monkeypatch.setattr(graph, "similarity_matrix", _no_call)
        monkeypatch.setattr(threading, "Thread", _no_call)
        for build in (popgcn.build_affinity_matrices,
                      popgcn.build_propagation_matrices):
            with pytest.raises(DataError) as err:
                build(ds, rules)
            assert type(err.value) is DataError
            assert str(err.value) == (
                "unknown demographic element 'scanner'; "
                "available: ['informative', 'noise', 'site']")

    @pytest.mark.parametrize("slow, first", [
        ("similarity_matrix", ["build_edge_matrix"] * 3 + [
            "similarity_matrix"]),
        ("build_edge_matrix", ["similarity_matrix"]),
    ], ids=["edges-finish-first", "similarity-finishes-first"])
    @pytest.mark.parametrize("build", [popgcn.build_affinity_matrices,
                                       popgcn.build_propagation_matrices])
    def test_same_bytes_whichever_stage_finishes_first(self, monkeypatch,
                                                       build, slow, first):
        ds = _three_element_dataset()
        monkeypatch.setattr(graph, "_build_threads", lambda n_jobs: 1)
        serial = _graph_bytes(build(ds))
        monkeypatch.setattr(graph, "_build_threads", lambda n_jobs: 2)
        finished = []

        def stage(name):
            original = getattr(graph, name)

            def timed(*args, **kwargs):
                if name == slow:
                    time.sleep(0.1)
                result = original(*args, **kwargs)
                finished.append(name)
                return result
            return timed

        for name in ("similarity_matrix", "build_edge_matrix"):
            monkeypatch.setattr(graph, name, stage(name))
        assert _graph_bytes(build(ds)) == serial
        # the edges of every rule build while the similarity does
        assert finished[:len(first)] == first
        assert sorted(finished) == ["build_edge_matrix"] * 3 + [
            "similarity_matrix"]

    def test_no_thread_left_when_the_similarity_fails_during_edges(
            self, monkeypatch, threaded_build):
        ds = _three_element_dataset()
        ds.features[4] = 1.0
        edges, similarity = graph.build_edge_matrix, graph.similarity_matrix
        running = threading.Event()

        def slow_edges(*args, **kwargs):
            running.set()
            time.sleep(0.2)
            return edges(*args, **kwargs)

        def similarity_while_edges_run(features, **kwargs):
            assert running.wait(5.0)
            return similarity(features, **kwargs)

        monkeypatch.setattr(graph, "build_edge_matrix", slow_edges)
        monkeypatch.setattr(graph, "similarity_matrix",
                            similarity_while_edges_run)
        before = threading.active_count()
        with pytest.raises(GraphError, match="feature row 4 is constant"):
            popgcn.build_propagation_matrices(ds)
        assert threading.active_count() == before

    def test_threads_are_joined_so_folds_may_fork(self, monkeypatch,
                                                  threaded_build):
        before = threading.active_count()
        popgcn.build_propagation_matrices(quick_dataset())
        assert threading.active_count() == before == 1
        monkeypatch.setattr(train, "_blas_threads", lambda: 1)
        monkeypatch.setattr(graph.os, "sched_getaffinity",
                            lambda pid: {0, 1})
        assert train._fold_workers(4) == 2

    @pytest.mark.parametrize("noise", [("noise",),
                                       ("noise", "site", "scanner")],
                             ids=["M=2", "M=4"])
    def test_peak_memory_is_one_array_per_element_plus_similarity(
            self, threaded_build, noise):
        # the operators, the similarity matrix, one block of rows per build
        # thread and copies of the features, among them the centred rows
        # held while every rule's edges build beside the product; the
        # full-matrix normalization held about 5 N x N arrays at M=2
        n, d = 1000, 20
        ds = quick_dataset(n_nodes=n, n_features=d, noise_elements=noise)
        square, block = n * n * 8, graph._SYMMETRY_TILE * n * 8
        bound = (ds.n_elements + 1) * square + 2 * block + 8 * n * d * 8
        tracemalloc.start()
        try:
            props = popgcn.build_propagation_matrices(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(props) == ds.n_elements == len(noise) + 1
        assert peak <= bound, (peak / square, bound / square)


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
