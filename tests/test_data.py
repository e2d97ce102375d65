import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from samvh.data import (
    CsvFormatError,
    MultiViewDataset,
    _parse_matrix,
    SynthConfig,
    generate_synthetic_paired,
    glyph_templates,
    load_multiview_csv,
    save_matrix_csv,
    save_multiview_csv,
    standardize_columns,
    train_test_split,
)
from samvh.expfam import Family
from samvh.model import ViewConfig


class TestGlyphTemplates:
    def test_ten_distinct_per_view(self):
        arabic, roman = glyph_templates()
        assert len(arabic) == len(roman) == 10
        for glyphs in (arabic, roman):
            flat = {g.tobytes() for g in glyphs}
            assert len(flat) == 10
            for g in glyphs:
                assert g.shape == (8, 8)
                assert set(np.unique(g)) <= {0.0, 1.0}
                assert g.sum() > 0


class TestGenerate:
    def test_pure_templates_without_noise(self):
        cfg = SynthConfig(seed=0, noise_lines_per_image=0, jitter=0,
                          samples_per_class=5)
        ds = generate_synthetic_paired(cfg)
        distinct = {row.tobytes() for row in ds.view_arrays[0]}
        assert len(distinct) == 10

    def test_class_balance_exact(self):
        ds = generate_synthetic_paired(SynthConfig(seed=1, samples_per_class=7))
        counts = np.bincount(ds.labels)
        assert np.array_equal(counts, np.full(10, 7))

    def test_binary_values(self):
        ds = generate_synthetic_paired(SynthConfig(seed=2, samples_per_class=3))
        for arr in ds.view_arrays:
            assert set(np.unique(arr)) <= {0.0, 1.0}

    def test_deterministic(self):
        a = generate_synthetic_paired(SynthConfig(seed=9, samples_per_class=4))
        b = generate_synthetic_paired(SynthConfig(seed=9, samples_per_class=4))
        for x, y in zip(a.view_arrays, b.view_arrays):
            assert x.tobytes() == y.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_noise_columns_uniform_chisquare(self):
        # Noise-line positions on the arabic view are uniform over columns;
        # chi-square goodness of fit at significance 1e-3 on ~1e4 samples.
        cfg = SynthConfig(seed=3, samples_per_class=1000, jitter=0)
        _, masks = generate_synthetic_paired(cfg, record_noise=True)
        cols = masks[0].reshape(-1, 12, 12).any(axis=1)  # per-sample noisy cols
        counts = cols.sum(axis=0)
        _, pvalue = chisquare(counts)
        assert pvalue > 1e-3

    def test_noise_orthogonal_between_views(self):
        cfg = SynthConfig(seed=4, samples_per_class=20)
        _, masks = generate_synthetic_paired(cfg, record_noise=True)
        # Arabic noise is full columns; roman noise full rows.
        a = masks[0].reshape(-1, 12, 12)
        r = masks[1].reshape(-1, 12, 12)
        assert np.all(a.any(axis=(1, 2)) == a.all(axis=1).any(axis=1))
        assert np.all(r.any(axis=(1, 2)) == r.all(axis=2).any(axis=1))

    def test_glyph_must_fit(self):
        with pytest.raises(ValueError):
            SynthConfig(seed=0, image_side=9, jitter=2)


class TestCsv:
    def test_shape_passthrough(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        open(p1, "w").write("1,2,3\n4,5,6\n7,8,9\n0,1,0\n2,2,2\n")
        open(p2, "w").write("1,0\n0,1\n1,1\n0,0\n0.5,0.5\n")
        ds = load_multiview_csv([p1, p2])
        assert ds.num_views == 2
        assert [v.dim for v in ds.views] == [3, 2]
        assert ds.num_samples == 5
        assert all(v.family is Family.GAUSSIAN_UNIT_VARIANCE for v in ds.views)

    def test_standardized_by_default(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        open(p1, "w").write("1,5\n3,5\n5,5\n")
        ds = load_multiview_csv([p1])
        np.testing.assert_allclose(ds.view_arrays[0][:, 0].mean(), 0, atol=1e-12)
        np.testing.assert_allclose(ds.view_arrays[0][:, 0].std(), 1, atol=1e-12)
        # Constant column maps to zeros, no division by zero.
        assert np.array_equal(ds.view_arrays[0][:, 1], np.zeros(3))

    def test_ragged_row_reported_with_location(self, tmp_path):
        # Line numbers count the blank lines the reader skips.
        p1 = str(tmp_path / "a.csv")
        for text, lineno in (("1,2\n3\n", 2), ("1,2\n\n3,4\n  \n5\n", 5)):
            open(p1, "w").write(text)
            with pytest.raises(CsvFormatError) as info:
                load_multiview_csv([p1])
            assert str(info.value) == f"{p1}:{lineno}: expected 2 columns, got 1"

    def test_non_numeric_cell_reported(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        for text, where in (("1,2\n3,oops\n", "2: column 2: non-numeric cell 'oops'"),
                            ("1,2\n\n3, \n", "3: column 2: non-numeric cell ''"),
                            ("#1,2\n", "1: column 1: non-numeric cell '#1'")):
            open(p1, "w").write(text)
            with pytest.raises(CsvFormatError) as info:
                load_multiview_csv([p1])
            assert str(info.value) == f"{p1}:{where}"

    def test_cell_float_accepts_but_reader_rejects(self, tmp_path):
        # Digit-group underscores parse with float() but not in numpy's
        # reader; the error still names the file and the cell.
        p1 = str(tmp_path / "a.csv")
        open(p1, "w").write("1,2\n1_0,3\n")
        with pytest.raises(CsvFormatError, match=rf"^{p1}: .*'1_0'"):
            load_multiview_csv([p1])

    def test_blank_lines_and_padded_cells(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        open(p1, "w").write("\n 1 ,\t2.5\n   \n\t\n-3e2 , 4 \n\n")
        ds = load_multiview_csv([p1], families=[Family.GAUSSIAN_UNIT_VARIANCE],
                                standardize=False)
        assert np.array_equal(ds.view_arrays[0], [[1.0, 2.5], [-300.0, 4.0]])

    def test_single_row_and_single_column_stay_2d(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        open(p1, "w").write("1,2,3\n")
        open(p2, "w").write("4\n")
        ds = load_multiview_csv([p1, p2], standardize=False)
        assert [a.shape for a in ds.view_arrays] == [(1, 3), (1, 1)]

    def test_empty_file_is_0x0_without_warning(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        for text in ("", "\n  \n\n"):
            open(p1, "w").write(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _parse_matrix(p1).shape == (0, 0)

    def test_row_count_mismatch(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        open(p1, "w").write("1\n2\n")
        open(p2, "w").write("1\n")
        with pytest.raises(CsvFormatError, match="rows"):
            load_multiview_csv([p1, p2])

    def test_round_trip(self, tmp_path, rng):
        views = [ViewConfig("x", 3, Family.GAUSSIAN_UNIT_VARIANCE),
                 ViewConfig("y", 2, Family.GAUSSIAN_UNIT_VARIANCE)]
        arrays = [standardize_columns(rng.standard_normal((6, 3))),
                  standardize_columns(rng.standard_normal((6, 2)))]
        labels = rng.integers(0, 3, size=6)
        ds = MultiViewDataset(views, arrays, labels)
        paths = [str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]
        lab = str(tmp_path / "lab.csv")
        save_multiview_csv(ds, paths, lab)
        back = load_multiview_csv(paths, lab)
        for a, b in zip(ds.view_arrays, back.view_arrays):
            np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.array_equal(ds.labels, back.labels)

    def test_round_trip_real_valued_bitwise(self, tmp_path, rng):
        arr = rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-300, 300, (9, 4))
        arr[0] = [5e-324, -0.0, np.pi, -1e-310]
        path = str(tmp_path / "m.csv")
        save_matrix_csv(path, arr)
        back = load_multiview_csv([path], standardize=False).view_arrays[0]
        assert np.array_equal(back, arr)
        assert back.tobytes() == arr.tobytes()  # keeps the sign of -0.0

    def test_matches_per_cell_float_reference(self, tmp_path):
        # The CSVs `gen-data` writes parse to the same bits as float() per cell.
        ds = generate_synthetic_paired(SynthConfig(seed=5, samples_per_class=20))
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "r.csv")]
        save_multiview_csv(ds, paths)
        back = load_multiview_csv(paths, families=[Family.BERNOULLI] * 2)
        for path, got in zip(paths, back.view_arrays):
            with open(path) as fh:
                want = np.array([[float(c) for c in line.split(",")]
                                 for line in fh if line.strip()])
            assert got.tobytes() == want.tobytes()

    def test_round_trip_binary_exact(self, tmp_path):
        ds = generate_synthetic_paired(SynthConfig(seed=5, samples_per_class=3))
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "r.csv")]
        save_multiview_csv(ds, paths)
        back = load_multiview_csv(paths,
                                  families=[Family.BERNOULLI, Family.BERNOULLI])
        for a, b in zip(ds.view_arrays, back.view_arrays):
            assert np.array_equal(a, b)

    def test_save_column_counts(self, tmp_path):
        ds = generate_synthetic_paired(SynthConfig(seed=5, samples_per_class=2))
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "r.csv")]
        save_multiview_csv(ds, paths)
        for path, v in zip(paths, ds.views):
            for line in open(path):
                assert len(line.strip().split(",")) == v.dim

    def test_save_matrix_bytes_equal_per_cell_format(self, tmp_path, rng):
        binary = (rng.random((7, 5)) < 0.5).astype(float)
        floats = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-30, 30, (7, 5))
        floats[0, :3] = [-0.0, 1e-310, np.pi]
        for arr in (binary, floats):
            path = str(tmp_path / "m.csv")
            save_matrix_csv(path, arr)
            want = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in arr)
            with open(path, "rb") as fh:
                assert fh.read() == want.encode()
            assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), arr)

    def test_save_empty_dataset(self, tmp_path):
        views = [ViewConfig("x", 2, Family.GAUSSIAN_UNIT_VARIANCE)]
        ds = MultiViewDataset(views, [np.zeros((0, 2))])
        path = str(tmp_path / "x.csv")
        save_multiview_csv(ds, [path])
        assert open(path).read() == ""


class TestSplit:
    def test_stratified_exact(self):
        views = [ViewConfig("x", 1, Family.GAUSSIAN_UNIT_VARIANCE)]
        ds = MultiViewDataset(views, [np.arange(10.0)[:, None]],
                              labels=np.repeat(np.arange(5), 2))
        tr, te = train_test_split(ds, 0.5, seed=0)
        assert np.array_equal(np.bincount(tr.labels), np.ones(5, dtype=int))
        assert np.array_equal(np.bincount(te.labels), np.ones(5, dtype=int))

    def test_deterministic(self):
        ds = generate_synthetic_paired(SynthConfig(seed=6, samples_per_class=5))
        a = train_test_split(ds, 0.3, seed=42)
        b = train_test_split(ds, 0.3, seed=42)
        for x, y in zip(a[0].view_arrays, b[0].view_arrays):
            assert np.array_equal(x, y)

    def test_partition_law(self):
        ds = generate_synthetic_paired(SynthConfig(seed=7, samples_per_class=5))
        tr, te = train_test_split(ds, 0.4, seed=1)
        assert tr.num_samples + te.num_samples == ds.num_samples
        all_rows = {r.tobytes() for r in ds.view_arrays[0]}
        split_rows = ([r.tobytes() for r in tr.view_arrays[0]]
                      + [r.tobytes() for r in te.view_arrays[0]])
        assert set(split_rows) <= all_rows
        assert len(split_rows) == ds.num_samples

    def test_degenerate_fraction(self):
        views = [ViewConfig("x", 1, Family.GAUSSIAN_UNIT_VARIANCE)]
        ds = MultiViewDataset(views, [np.zeros((3, 1))])
        with pytest.raises(ValueError):
            train_test_split(ds, 0.01, seed=0)
