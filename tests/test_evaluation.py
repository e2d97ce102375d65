import math
import tracemalloc

import numpy as np
import pytest

from samvh.data import MultiViewDataset, train_test_split
from samvh.evaluation import (
    _RANK_CELLS,
    EmptySelectionError,
    FeatureMatrix,
    export_filter_images,
    extract_features,
    format_sweep_table,
    knn_classify,
    knn_sweep,
    line_mass_fraction,
    read_pgm,
    sweep_to_csv,
    write_pgm,
)
from samvh.expfam import Family
from samvh.model import (ShapeMismatchError, StructureKind, ViewConfig, check_views,
                         gated_weights, gates, make_tiny_model, posterior_hidden_mean_batch)
from samvh.training import reconstruction_error
from test_training import blocked_model


def dataset_for(params, rng, n):
    arrays = [(rng.random((n, v.dim)) < 0.5).astype(float) for v in params.views]
    labels = rng.integers(0, 3, size=n)
    return MultiViewDataset(list(params.views), arrays, labels)


def fm(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(values=values, column_indices=np.arange(values.shape[1]))


class TestExtractFeatures:
    def test_matches_naive_posterior(self, rng):
        params = make_tiny_model(rng, dims=(3, 2), J=4)
        data = dataset_for(params, rng, 6)
        feats = extract_features(params, data, "all")
        g = gates(params)
        for n in range(6):
            for j in range(4):
                eta = params.lam[j]
                for k in range(2):
                    for i in range(params.views[k].dim):
                        eta += g[k, j] * params.W[k][i, j] * data.view_arrays[k][n, i]
                want = 1.0 / (1.0 + math.exp(-eta))
                assert abs(feats.values[n, j] - want) < 1e-12

    def test_all_columns_in_order(self, rng):
        params = make_tiny_model(rng, J=5)
        data = dataset_for(params, rng, 3)
        feats = extract_features(params, data, "all")
        assert np.array_equal(feats.column_indices, np.arange(5))
        assert feats.values.shape == (3, 5)

    def test_dwh_shared_equals_all(self, rng):
        params = make_tiny_model(rng, kind=StructureKind.DWH)
        data = dataset_for(params, rng, 4)
        all_f = extract_features(params, data, "all")
        shared_f = extract_features(params, data, "shared")
        assert np.array_equal(all_f.values, shared_f.values)
        assert np.array_equal(all_f.column_indices, shared_f.column_indices)

    def test_category_selection(self, rng):
        params = make_tiny_model(rng, dims=(3, 3), J=4)
        # unit 0 shared, unit 1 view-0 specific, unit 2 view-1 specific, 3 dead
        params.s = np.array([[30.0, 30.0, -30.0, -30.0],
                             [30.0, -30.0, 30.0, -30.0]])
        data = dataset_for(params, rng, 5)
        assert list(extract_features(params, data, "shared").column_indices) == [0]
        assert list(extract_features(params, data, ("specific", 0)).column_indices) == [1]
        assert list(extract_features(params, data, ("specific", 1)).column_indices) == [2]

    def test_empty_selection_raises(self, rng):
        params = make_tiny_model(rng, kind=StructureKind.DWH)
        data = dataset_for(params, rng, 3)
        with pytest.raises(EmptySelectionError) as exc:
            extract_features(params, data, ("specific", 0))
        assert "specific(view 0)" in str(exc.value)

    def test_views_must_match_the_model(self, rng):
        params = make_tiny_model(rng, dims=(3, 2), J=4)
        data = dataset_for(params, rng, 5)
        extra = ViewConfig("extra", 2, Family.BERNOULLI)
        cases = {
            "missing view": MultiViewDataset(data.views[:1], data.view_arrays[:1]),
            "extra view": MultiViewDataset(data.views + [extra],
                                           data.view_arrays + [np.ones((5, 2))]),
            "wrong width": MultiViewDataset(
                [data.views[0], ViewConfig(params.views[1].name, 3, Family.BERNOULLI)],
                [data.view_arrays[0], np.ones((5, 3))]),
        }
        for bad in cases.values():
            with pytest.raises(ShapeMismatchError,
                               match=repr(params.views[-1].name)):
                extract_features(params, bad, "all")

    @pytest.mark.parametrize("selection", ["all", "shared"])
    def test_row_blocks_bit_equal_to_one_pass(self, selection):
        # 4 row blocks of 707 or 708 rows, written into one output. Each
        # block's GEMMs are large enough for the BLAS to round them as it
        # rounds the one-pass GEMM (see the next test for smaller ones).
        p, fv = blocked_model(np.random.default_rng(45))
        got = extract_features(p, MultiViewDataset(list(p.views), fv), selection)
        idx = got.column_indices
        assert (len(idx) == p.hidden_dim) == (selection == "all") and len(idx) > 0
        want = posterior_hidden_mean_batch(p, gated_weights(p.W, gates(p)), check_views(p, fv))
        assert np.array_equal(got.values, want[:, idx])

    def test_row_blocks_of_small_gemms_agree_to_rounding(self):
        # Two hidden units: a block's (rows, D_k) x (D_k, 2) GEMMs fall to
        # a BLAS' small-matrix kernel, which may round otherwise than the
        # one-pass GEMM does; the features still agree to float64 rounding.
        p = make_tiny_model(np.random.default_rng(46), dims=(300, 212), J=2, scale=0.05)
        data = dataset_for(p, np.random.default_rng(47), 2000)
        want = posterior_hidden_mean_batch(p, gated_weights(p.W, gates(p)),
                                           check_views(p, data.view_arrays))
        np.testing.assert_allclose(extract_features(p, data).values, want, rtol=1e-14, atol=0)

    def test_bad_selection(self, rng):
        params = make_tiny_model(rng)
        data = dataset_for(params, rng, 2)
        with pytest.raises(ValueError):
            extract_features(params, data, "sideways")
        with pytest.raises(IndexError):
            extract_features(params, data, ("specific", 9))


class TestKnn:
    def test_self_match_k1(self, rng):
        X = rng.standard_normal((10, 3))
        y = rng.integers(0, 4, size=10)
        assert knn_classify(fm(X), y, fm(X), y, k=1) == 1.0

    def test_constant_majority(self):
        X = fm(np.arange(6.0)[:, None])
        y = np.array([0, 0, 0, 0, 1, 1])
        # k = n: every query sees the same majority vote.
        acc = knn_classify(X, y, fm(np.array([[10.0], [0.0]])),
                           np.array([0, 1]), k=6)
        assert acc == 0.5

    def test_distance_tie_prefers_lower_train_index(self):
        X = fm(np.array([[0.0], [0.0]]))
        y = np.array([1, 0])
        assert knn_classify(X, y, fm(np.array([[0.0]])), np.array([1]), k=1) == 1.0

    def test_vote_tie_prefers_smallest_label(self):
        X = fm(np.array([[0.0], [1.0]]))
        y = np.array([1, 0])
        # Both neighbors vote once; the smaller label (0) wins.
        assert knn_classify(X, y, fm(np.array([[0.5]])), np.array([0]), k=2) == 1.0
        assert knn_classify(X, y, fm(np.array([[0.5]])), np.array([1]), k=2) == 0.0

    def test_matches_brute_force(self, rng):
        Xtr = rng.standard_normal((20, 4))
        ytr = rng.integers(0, 3, size=20)
        Xte = rng.standard_normal((15, 4))
        yte = rng.integers(0, 3, size=15)
        for k in (1, 3, 7):
            correct = 0
            for q, truth in zip(Xte, yte):
                d = np.array([np.linalg.norm(q - x) for x in Xtr])
                nearest = np.argsort(d, kind="stable")[:k]
                votes = np.bincount(ytr[nearest])
                correct += int(votes.argmax()) == truth
            want = correct / len(yte)
            got = knn_classify(fm(Xtr), ytr, fm(Xte), yte, k=k)
            assert got == pytest.approx(want)

    def test_matches_per_query_loop_with_ties(self, rng):
        # Integer features on a small grid give many distance ties, and five
        # labels among up to 8 neighbours give vote ties.
        Xtr = rng.integers(0, 3, size=(40, 2)).astype(float)
        ytr = rng.integers(0, 5, size=40)
        Xte = rng.integers(0, 3, size=(30, 2)).astype(float)
        yte = rng.integers(0, 5, size=30)
        d2 = (np.sum(Xte ** 2, axis=1)[:, None] - 2.0 * Xte @ Xtr.T
              + np.sum(Xtr ** 2, axis=1)[None, :])
        for k in range(1, 9):
            correct = 0
            for row, truth in zip(d2, yte):
                nearest = np.argsort(row, kind="stable")[:k]
                correct += int(np.bincount(ytr[nearest]).argmax()) == truth
            assert knn_classify(fm(Xtr), ytr, fm(Xte), yte, k) == correct / len(yte)

    def test_matches_stable_argsort_with_duplicated_rows(self, rng):
        # Each distinct training row appears several times, so many queries
        # have more than k candidates at the k-th distance: the rows whose
        # neighbours are re-ranked after the partial sort.
        base = rng.integers(0, 4, size=(12, 3)).astype(float)
        Xtr = base[rng.integers(0, 12, size=60)]
        ytr = rng.integers(0, 4, size=60)
        Xte = rng.integers(0, 4, size=(50, 3)).astype(float)
        d2 = Xte @ Xtr.T
        d2 *= -2.0
        d2 += np.sum(Xte ** 2, axis=1)[:, None]
        d2 += np.sum(Xtr ** 2, axis=1)[None, :]
        ranked = np.argsort(d2, axis=1, kind="stable")
        for k in (1, 7, 60):
            kth = np.take_along_axis(d2, ranked[:, k - 1:k], axis=1)
            if k < 60:
                assert np.count_nonzero(np.sum(d2 <= kth, axis=1) > k) >= 5
            # Accuracy 1 against the reference's predictions: every query agrees.
            want = [np.bincount(ytr[row[:k]]).argmax() for row in ranked]
            assert knn_classify(fm(Xtr), ytr, fm(Xte), want, k) == 1.0

    def test_peak_memory_at_pipeline_size(self, rng):
        # The (Q, N) distances and one row block's index, mask and vote
        # arrays (at most 32 bytes per ranked distance), with 10% to spare:
        # no (Q, N) index array and no second (Q, N) float array.
        X = fm(rng.random((1000, 60)))
        y = rng.integers(0, 10, size=1000)
        bound = 1.1 * (1000 * 1000 * 8 + 32 * _RANK_CELLS)
        for k in (10, 1000):
            tracemalloc.start()
            try:
                knn_classify(X, y, X, y, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (k, peak)

    def test_feature_rotation_invariant(self, rng):
        # Euclidean distances are invariant to orthogonal maps of the features.
        Xtr = rng.standard_normal((12, 3))
        ytr = rng.integers(0, 2, size=12)
        Xte = rng.standard_normal((8, 3))
        yte = rng.integers(0, 2, size=8)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = knn_classify(fm(Xtr), ytr, fm(Xte), yte, k=3)
        b = knn_classify(fm(Xtr @ q), ytr, fm(Xte @ q), yte, k=3)
        assert a == b

    def test_validation(self, rng):
        X = fm(rng.standard_normal((4, 2)))
        y = np.zeros(4, dtype=int)
        with pytest.raises(ValueError):
            knn_classify(X, y, fm(rng.standard_normal((2, 3))), [0, 0], k=1)
        with pytest.raises(ValueError):
            knn_classify(X, y, X, y, k=5)
        with pytest.raises(ValueError):
            knn_classify(X, y, X, y, k=0)
        with pytest.raises(ValueError, match="one label per feature row"):
            knn_classify(X, y, X, y[:3], k=1)

    def test_votes_over_distinct_labels(self, rng):
        # Relabelling {0, 1} as {-5, 10**9} keeps the order of the labels, so
        # every accuracy, vote ties (even k) included, stays as it was; votes
        # are counted per distinct label, not per value up to the largest.
        Xtr, Xte = fm(rng.standard_normal((30, 2))), fm(rng.standard_normal((20, 2)))
        ytr, yte = rng.integers(0, 2, size=30), rng.integers(0, 2, size=20)
        relabel = np.array([-5, 10 ** 9])
        for k in range(1, 31):
            assert knn_classify(Xtr, relabel[ytr], Xte, relabel[yte], k) == \
                knn_classify(Xtr, ytr, Xte, yte, k)

    def test_sweep_consistent_and_dedups(self, rng):
        X = fm(rng.standard_normal((9, 2)))
        y = rng.integers(0, 2, size=9)
        with pytest.warns(UserWarning, match="duplicate k=3"):
            rows = knn_sweep(X, y, X, y, [1, 3, 3, 5])
        assert [k for k, _ in rows] == [1, 3, 5]
        for k, acc in rows:
            assert acc == knn_classify(X, y, X, y, k)

    def test_sweep_equals_per_k_classify_with_ties(self, rng):
        # Duplicated rows on a small integer grid give exact distance ties at
        # every k, and five labels give vote ties. Each k's accuracy must be
        # that of knn_classify and of a full stable sort per query.
        base = rng.integers(0, 3, size=(10, 2)).astype(float)
        Xtr = base[rng.integers(0, 10, size=50)]
        ytr = rng.integers(0, 5, size=50)
        Xte = rng.integers(0, 3, size=(40, 2)).astype(float)
        yte = rng.integers(0, 5, size=40)
        d2 = Xte @ Xtr.T
        d2 *= -2.0
        d2 += np.sum(Xte ** 2, axis=1)[:, None]
        d2 += np.sum(Xtr ** 2, axis=1)[None, :]
        ranked = np.argsort(d2, axis=1, kind="stable")
        ks = [8, 1, 2, 3, 5, 13, 50, 4]
        with pytest.warns(UserWarning, match="duplicate k=5"):
            rows = knn_sweep(fm(Xtr), ytr, fm(Xte), yte, ks + [5])
        assert [k for k, _ in rows] == ks
        for k, acc in rows:
            want = [np.bincount(ytr[row[:k]]).argmax() for row in ranked]
            assert acc == knn_classify(fm(Xtr), ytr, fm(Xte), yte, k)
            assert acc == np.mean(np.asarray(want) == yte)

    def test_sweep_of_no_k_is_empty(self, rng):
        X = fm(rng.standard_normal((4, 2)))
        assert knn_sweep(X, [0, 1, 0, 1], X, [0, 1, 0, 1], []) == []

    def test_table_and_csv(self):
        rows = [(1, 1.0), (3, 0.625)]
        table = format_sweep_table(rows)
        assert "accuracy" in table.splitlines()[0]
        assert "0.6250" in table
        csv = sweep_to_csv(rows)
        assert csv.splitlines()[0] == "k,accuracy"
        assert csv.splitlines()[2] == "3,0.625"


class TestByteViews:
    @pytest.mark.parametrize("kind", list(StructureKind))
    def test_uint8_data_gives_the_float64_results(self, rng, kind):
        params = make_tiny_model(rng, kind, dims=(4, 3), J=5)
        floats = dataset_for(params, rng, 60)
        as_bytes = MultiViewDataset(
            floats.views, [a.astype(np.uint8) for a in floats.view_arrays], floats.labels)
        results = []
        for data in (floats, as_bytes):
            train_set, test_set = train_test_split(data, 0.5, seed=2)
            results.append((
                reconstruction_error(params, data.view_arrays).tobytes(),
                extract_features(params, data).values.tobytes(),
                knn_sweep(extract_features(params, train_set), train_set.labels,
                          extract_features(params, test_set), test_set.labels, [1, 3, 10])))
        assert results[0] == results[1]


class TestFilterImages:
    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
        path = str(tmp_path / "x.pgm")
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (5, 7)
        assert np.array_equal(back, img)

    def test_dwh_writes_only_shared(self, tmp_path, rng):
        params = make_tiny_model(rng, kind=StructureKind.DWH, dims=(4, 4), J=6)
        paths = export_filter_images(params, view=0, out_dir=str(tmp_path))
        assert len(paths) == 1
        assert paths[0].endswith("filters_view0_shared.pgm")

    def test_all_dead_writes_only_dead(self, tmp_path, rng):
        params = make_tiny_model(rng, dims=(4, 4), J=3)
        params.s = np.full((2, 3), -30.0)
        paths = export_filter_images(params, view=1, out_dir=str(tmp_path))
        assert [p.split("_")[-1] for p in paths] == ["dead.pgm"]

    def test_grid_geometry_and_padding(self, tmp_path, rng):
        # 10 tiles of side 2 in 4 columns: 3 rows, 1px black separators, and
        # two black padding slots at the end of the last row.
        params = make_tiny_model(rng, kind=StructureKind.DWH, dims=(4,), J=10)
        [path] = export_filter_images(params, view=0, out_dir=str(tmp_path),
                                      grid_cols=4)
        img = read_pgm(path)
        assert img.shape == (3 * 2 + 2, 4 * 2 + 3)
        assert np.all(img[2, :] == 0) and np.all(img[:, 2] == 0)
        assert np.all(img[6:, 6:] == 0)  # padding slots

    def test_constant_filter_is_midgray(self, tmp_path, rng):
        params = make_tiny_model(rng, kind=StructureKind.DWH, dims=(4,), J=1)
        params.W[0][:] = 3.7
        [path] = export_filter_images(params, view=0, out_dir=str(tmp_path),
                                      grid_cols=1)
        assert np.all(read_pgm(path) == 128)

    def test_non_square_view_rejected(self, rng, tmp_path):
        params = make_tiny_model(rng, dims=(3, 4), J=2)
        with pytest.raises(ValueError, match="perfect square"):
            export_filter_images(params, view=0, out_dir=str(tmp_path))

    def test_gate_scales_filters(self, tmp_path, rng):
        # Rescaling is per filter, so gate magnitude cancels and the image
        # depends only on the weight pattern; check via explicit values.
        params = make_tiny_model(rng, dims=(4,), J=1)
        params.s = np.array([[1.0]])  # gate 0.73: connected, and not 1
        params.W[0][:, 0] = np.array([0.0, 1.0, 2.0, 4.0])
        [path] = export_filter_images(params, view=0, out_dir=str(tmp_path),
                                      grid_cols=1)
        assert path.endswith("filters_view0_specific_view0.pgm")
        img = read_pgm(path)
        assert np.array_equal(img.ravel(), np.array([0, 64, 128, 255]))


class TestLineMassFraction:
    def test_single_column(self):
        img = np.zeros((4, 4))
        img[:, 2] = 5.0
        assert line_mass_fraction(img.ravel(), 4, "columns", 1) == 1.0
        assert line_mass_fraction(img.ravel(), 4, "rows", 1) == pytest.approx(0.25)

    def test_uniform(self):
        img = np.ones((5, 5))
        assert line_mass_fraction(img.ravel(), 5, "columns", 1) == pytest.approx(0.2)
        assert line_mass_fraction(img.ravel(), 5, "rows", 2) == pytest.approx(0.4)

    def test_sign_insensitive(self):
        img = np.zeros((3, 3))
        img[:, 0] = -2.0
        assert line_mass_fraction(img.ravel(), 3, "columns", 1) == 1.0

    def test_zero_filter(self):
        assert line_mass_fraction(np.zeros(9), 3, "columns", 1) == 0.0
