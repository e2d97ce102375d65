import json
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit
from scipy.stats import chisquare

from samvh.data import (
    _BLOCK_CELLS,
    _CHECK_BYTES,
    CsvFormatError,
    MultiViewDataset,
    _digit_matrix,
    _g17_layout,
    _parse_matrix,
    _parse_text_matrix,
    SplitFractionError,
    SynthConfig,
    generate_synthetic_paired,
    glyph_templates,
    load_dataset_dir,
    load_multiview_csv,
    save_dataset_dir,
    save_matrix_csv,
    save_multiview_csv,
    train_test_split,
)
from samvh.expfam import Family
from samvh.model import MalformedDocumentError, ViewConfig


class TestDataset:
    def test_views_must_match_arrays_in_number(self):
        views = [ViewConfig("x", 1, Family.GAUSSIAN_UNIT_VARIANCE)]
        with pytest.raises(ValueError, match="1 view configs for 2 view arrays"):
            MultiViewDataset(views, [np.zeros((2, 1)), np.zeros((2, 1))])
        with pytest.raises(ValueError, match="2 view configs for 1 view arrays"):
            MultiViewDataset(views * 2, [np.zeros((2, 1))])


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

    # In these tests an 8x8 glyph sits inside a 12x12 image, so a full-height
    # arabic column or a full-width roman row can only be a noise line.

    def test_noise_columns_uniform_chisquare(self):
        # Noise-line positions on the arabic view are uniform over columns;
        # chi-square goodness of fit at significance 1e-3 on ~1e4 samples.
        cfg = SynthConfig(seed=3, samples_per_class=1000, jitter=0)
        ds = generate_synthetic_paired(cfg)
        cols = ds.view_arrays[0].reshape(-1, 12, 12).all(axis=1)  # per-sample noisy cols
        counts = cols.sum(axis=0)
        _, pvalue = chisquare(counts)
        assert pvalue > 1e-3

    def test_noise_orthogonal_between_views(self):
        cfg = SynthConfig(seed=4, samples_per_class=20)
        ds = generate_synthetic_paired(cfg)
        a, r = (v.reshape(-1, 12, 12).astype(bool) for v in ds.view_arrays)
        cols, rows = a.all(axis=1), r.all(axis=2)  # per-sample noise lines
        assert cols.any(axis=1).all() and rows.any(axis=1).all()
        assert cols.sum(axis=1).max() <= 2 and rows.sum(axis=1).max() <= 2
        # With jitter 1 no glyph reaches the first row or column, so there
        # the arabic view shows exactly its noise columns and the roman view
        # its noise rows; neither view has a line of the other's kind.
        assert np.array_equal(a[:, 0, :], cols) and np.array_equal(r[:, :, 0], rows)
        assert not a.all(axis=2).any() and not r.all(axis=1).any()

    def test_glyph_must_fit(self):
        with pytest.raises(ValueError):
            SynthConfig(seed=0, image_side=9, jitter=2)

    @pytest.mark.parametrize("cfg", [
        SynthConfig(seed=5, samples_per_class=6),
        SynthConfig(seed=6, samples_per_class=4, jitter=0),
        SynthConfig(seed=7, samples_per_class=4, noise_lines_per_image=0),
        SynthConfig(seed=8, samples_per_class=5, image_side=10),
        SynthConfig(seed=9, samples_per_class=5, image_side=8, jitter=0),
        SynthConfig(seed=10, num_classes=2, samples_per_class=9),
        SynthConfig(seed=11, num_classes=3, samples_per_class=3, image_side=24,
                    noise_lines_per_image=5, jitter=2),
        # The benchmark's datasets: 10 classes x 200 samples at sides 12 and 24.
        SynthConfig(seed=12),
        SynthConfig(seed=13, image_side=24)])
    def test_equals_per_sample_reference(self, cfg):
        ds = generate_synthetic_paired(cfg)
        want_images, want_labels = reference_generate(cfg)
        assert np.array_equal(ds.labels, want_labels)
        # The images are uint8 with the float64 reference's values.
        for got, want in zip(ds.view_arrays, want_images):
            assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_bounded_draws_share_one_stream(self):
        # The generator makes one call where the reference makes one per
        # sample and view. That is byte-identical only because numpy takes
        # bounded draws one 32-bit half at a time from the bit generator's
        # own buffer, whatever the call's size or bounds; if a numpy release
        # changes that, this test names the cause.
        rngs = [np.random.default_rng(17) for _ in range(3)]
        calls = np.concatenate([rngs[0].integers(0, 12, size=3) for _ in range(4)])
        one_call = rngs[1].integers(0, 12, size=12)
        bounds = rngs[2].integers(np.zeros(12, dtype=np.int64), np.full(12, 12))
        assert calls.tolist() == one_call.tolist() == bounds.tolist()
        states = [rng.bit_generator.state for rng in rngs]
        assert states[0] == states[1] == states[2]


def reference_generate(config: SynthConfig):
    """The generator as one loop over samples and views: the images and the
    labels that `generate_synthetic_paired` must match."""
    rng = np.random.default_rng(config.seed)
    arabic, roman = glyph_templates()
    side = config.image_side
    base = (side - 8) // 2
    n_total = config.num_classes * config.samples_per_class
    images = [np.zeros((n_total, side * side)), np.zeros((n_total, side * side))]
    labels = np.repeat(np.arange(config.num_classes), config.samples_per_class)
    for n, cls in enumerate(labels):
        for view, glyphs in enumerate((arabic, roman)):
            img = np.zeros((side, side))
            dy, dx = rng.integers(-config.jitter, config.jitter + 1, size=2)
            r0, c0 = base + dy, base + dx
            img[r0:r0 + 8, c0:c0 + 8] = glyphs[cls]
            noise = np.zeros((side, side), dtype=bool)
            lines = rng.integers(0, side, size=config.noise_lines_per_image)
            for pos in lines:
                if view == 0:
                    noise[:, pos] = True
                else:
                    noise[pos, :] = True
            img[noise] = 1.0
            images[view][n] = img.ravel()
    return images, labels


class TestCsv:
    def test_shape_passthrough(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        Path(p1).write_text("1,2,3\n4,5,6\n7,8,9\n0,1,0\n2,2,2\n")
        Path(p2).write_text("1,0\n0,1\n1,1\n0,0\n0.5,0.5\n")
        ds = load_gaussian_csv([p1, p2])
        assert ds.num_views == 2
        assert [v.dim for v in ds.views] == [3, 2]
        assert ds.num_samples == 5
        assert [v.name for v in ds.views] == ["view0", "view1"]
        assert all(v.family is Family.GAUSSIAN_UNIT_VARIANCE for v in ds.views)
        assert np.array_equal(ds.view_arrays[1][4], [0.5, 0.5])  # read, not rescaled

    def test_ragged_row_reported_with_location(self, tmp_path):
        # Line numbers count the blank lines the reader skips.
        p1 = str(tmp_path / "a.csv")
        for text, lineno in (("1,2\n3\n", 2), ("1,2\n\n3,4\n  \n5\n", 5)):
            Path(p1).write_text(text)
            with pytest.raises(CsvFormatError) as info:
                load_gaussian_csv([p1])
            assert str(info.value) == f"{p1}:{lineno}: expected 2 columns, got 1"

    def test_non_numeric_cell_reported(self, tmp_path):
        # A byte that is not UTF-8 reads as a lone surrogate (0xff: U+DCFF).
        p1 = str(tmp_path / "a.csv")
        for text, where in ((b"1,2\n3,oops\n", "2: column 2: non-numeric cell 'oops'"),
                            (b"1,2\n\n3, \n", "3: column 2: non-numeric cell ''"),
                            (b"#1,2\n", "1: column 1: non-numeric cell '#1'"),
                            (b"1,2\n3,4\xff\n", "2: column 2: non-numeric cell '4\\udcff'")):
            Path(p1).write_bytes(text)
            with pytest.raises(CsvFormatError) as info:
                load_gaussian_csv([p1])
            assert str(info.value) == f"{p1}:{where}"

    def test_label_byte_not_utf8_reported_with_location(self, tmp_path):
        p1, lab = str(tmp_path / "a.csv"), str(tmp_path / "lab.csv")
        Path(p1).write_bytes(b"1\n2\n")
        Path(lab).write_bytes(b"0\n\xff\n")
        with pytest.raises(CsvFormatError) as info:
            load_gaussian_csv([p1], lab)
        assert str(info.value) == f"{lab}:2: non-integer label '\\udcff'"

    def test_cell_float_accepts_but_reader_rejects(self, tmp_path):
        # Digit-group underscores parse with float() but not in numpy's
        # reader; the error still names the file and the cell.
        p1 = str(tmp_path / "a.csv")
        Path(p1).write_text("1,2\n1_0,3\n")
        with pytest.raises(CsvFormatError, match=rf"^{p1}: .*'1_0'"):
            load_gaussian_csv([p1])

    def test_blank_lines_and_padded_cells(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        Path(p1).write_text("\n 1 ,\t2.5\n   \n\t\n-3e2 , 4 \n\n")
        assert np.array_equal(_parse_matrix(p1), [[1.0, 2.5], [-300.0, 4.0]])

    def test_single_row_and_single_column_stay_2d(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        Path(p1).write_text("1,2,3\n")
        Path(p2).write_text("4\n")
        assert [_parse_matrix(p).shape for p in (p1, p2)] == [(1, 3), (1, 1)]

    def test_empty_file_is_0x0_without_warning(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        for text in ("", "\n  \n\n"):
            Path(p1).write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _parse_matrix(p1).shape == (0, 0)

    def test_label_beyond_int64_reported_with_location(self, tmp_path):
        # Python reads any integer; the labels are held as int64.
        p1, lab = str(tmp_path / "a.csv"), str(tmp_path / "lab.csv")
        Path(p1).write_text("1\n2\n3\n")
        for line in ("70000000000000000000000", str(2 ** 63), str(-2 ** 63 - 1)):
            Path(lab).write_text(f"0\n\n{line}\n1\n")
            with pytest.raises(CsvFormatError) as info:
                load_gaussian_csv([p1], lab)
            assert str(info.value) == f"{lab}:3: label {line} is outside int64"
        Path(lab).write_text(f"{2 ** 63 - 1}\n{-2 ** 63}\n0\n")
        assert load_gaussian_csv([p1], lab).labels.tolist() == [2 ** 63 - 1, -2 ** 63, 0]

    def test_row_count_mismatch(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        Path(p1).write_text("1\n2\n")
        Path(p2).write_text("1\n")
        with pytest.raises(CsvFormatError, match="rows"):
            load_gaussian_csv([p1, p2])

    def test_round_trip(self, tmp_path, rng):
        views = [ViewConfig("x", 3, Family.GAUSSIAN_UNIT_VARIANCE),
                 ViewConfig("y", 2, Family.GAUSSIAN_UNIT_VARIANCE)]
        arrays = [rng.standard_normal((6, 3)), rng.standard_normal((6, 2))]
        labels = rng.integers(0, 3, size=6)
        ds = MultiViewDataset(views, arrays, labels)
        paths = [str(tmp_path / "x.csv"), str(tmp_path / "y.csv")]
        lab = str(tmp_path / "lab.csv")
        save_multiview_csv(ds, paths, lab)
        back = load_gaussian_csv(paths, lab)
        for a, b in zip(ds.view_arrays, back.view_arrays):
            assert np.array_equal(a, b)
        assert np.array_equal(ds.labels, back.labels)

    def test_round_trip_real_valued_bitwise(self, tmp_path, rng):
        arr = rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-300, 300, (9, 4))
        arr[0] = [5e-324, -0.0, np.pi, -1e-310]
        path = str(tmp_path / "m.csv")
        save_matrix_csv(path, arr)
        back = _parse_matrix(path)
        assert np.array_equal(back, arr)
        assert back.tobytes() == arr.tobytes()  # keeps the sign of -0.0

    def test_matches_per_cell_float_reference(self, tmp_path):
        # The CSVs `gen-data` writes parse to uint8 with the values of
        # float() per cell.
        ds = generate_synthetic_paired(SynthConfig(seed=5, samples_per_class=20))
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "r.csv")]
        save_multiview_csv(ds, paths)
        back = load_multiview_csv(paths, families=[Family.BERNOULLI] * 2,
                                  names=["arabic", "roman"])
        for path, got in zip(paths, back.view_arrays):
            with open(path) as fh:
                want = np.array([[float(c) for c in line.split(",")]
                                 for line in fh if line.strip()])
            assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_round_trip_binary_exact(self, tmp_path):
        ds = generate_synthetic_paired(SynthConfig(seed=5, samples_per_class=3))
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "r.csv")]
        save_multiview_csv(ds, paths)
        back = load_multiview_csv(paths, families=[Family.BERNOULLI] * 2,
                                  names=["arabic", "roman"])
        for a, b in zip(ds.view_arrays, back.view_arrays):
            assert np.array_equal(a, b)

    def test_save_column_counts(self, tmp_path):
        ds = generate_synthetic_paired(SynthConfig(seed=5, samples_per_class=2))
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "r.csv")]
        save_multiview_csv(ds, paths)
        for path, v in zip(paths, ds.views):
            for line in Path(path).read_text().splitlines():
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

    @settings(max_examples=60, deadline=None)
    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                        max_side=12),
                          elements=st.integers(0, 9).map(float)),
           binary=st.booleans())
    def test_digit_matrix_bytes_and_array_equal_references(self, tmp_path_factory,
                                                            arr, binary):
        if binary:
            arr = arr % 2
        path = str(tmp_path_factory.mktemp("digits") / "m.csv")
        save_matrix_csv(path, arr)
        raw = read_bytes(path)
        assert raw == per_cell_bytes(arr)
        # The writer's bytes take the reader's byte path, to uint8 with the
        # same values.
        back = _digit_matrix(raw)
        assert back is not None and back.dtype == np.uint8 and np.array_equal(back, arr)
        got = _parse_matrix(path)
        assert got.dtype == np.uint8 and np.array_equal(got, per_cell_floats(path))

    @pytest.mark.parametrize("shape", [(5, 1), (1, 7), (1, 1)])
    def test_digit_matrix_one_row_or_column(self, tmp_path, rng, shape):
        arr = rng.integers(0, 10, size=shape).astype(float)
        path = str(tmp_path / "m.csv")
        save_matrix_csv(path, arr)
        assert read_bytes(path) == per_cell_bytes(arr)
        got = _parse_matrix(path)
        assert got.dtype == np.uint8 and np.array_equal(got, arr)

    @pytest.mark.parametrize("odd", [-0.0, 0.5, 10.0, np.nan, np.inf, -1.0])
    def test_values_outside_the_digits_take_the_template(self, tmp_path, rng, odd):
        arr = rng.integers(0, 10, size=(4, 3)).astype(float)
        arr[2, 1] = odd
        path = str(tmp_path / "m.csv")
        save_matrix_csv(path, arr)
        raw = read_bytes(path)
        assert raw == per_cell_bytes(arr)
        assert _digit_matrix(raw) is None
        assert _parse_matrix(path).tobytes() == arr.tobytes()

    @pytest.mark.parametrize("text", [
        "1,0\n0,1",           # no final newline
        "1,0\r\n0,1\r\n",    # CRLF
        "1,0\n0,1\n\n",       # trailing blank line
        "\n1,0\n0,1\n",       # leading blank line
        "1, 0\n0,1\n",        # padded cell
        " 1,0\n0,1\n",        # padded first cell
        "1,0\n0,1 \n",        # padded last cell
        "10,1\n2,1\n",        # multi-character cell
        "1;0\n0;1\n",         # not a comma
    ])
    def test_other_layouts_parse_as_before(self, tmp_path, text):
        path = str(tmp_path / "m.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert _digit_matrix(read_bytes(path)) is None
        try:
            want = per_cell_floats(path)
        except ValueError:
            with pytest.raises(CsvFormatError) as general:
                _parse_text_matrix(path)
            with pytest.raises(CsvFormatError) as got:
                _parse_matrix(path)
            assert str(got.value) == str(general.value)
        else:
            got = _parse_matrix(path)
            assert got.tobytes() == want.tobytes() == _parse_text_matrix(path).tobytes()

    @pytest.mark.parametrize("text,where", [
        ("1,0,1\n0,1\n", "2: expected 3 columns, got 2"),
        ("1,0,1\n0,1,1\n1,1\n0,0,0\n", "3: expected 3 columns, got 2"),
        ("1,0\n2,1x\n", "2: column 2: non-numeric cell '1x'"),
        # Same line length or same byte count as the fixed layout:
        ("1,0\n0,1,0,1\n", "2: expected 2 columns, got 4"),
        ("1,0\n0,x\n", "2: column 2: non-numeric cell 'x'"),
        ("1,0\n+,1\n", "2: column 1: non-numeric cell '+'"),
    ])
    def test_faulty_digit_files_keep_their_errors(self, tmp_path, text, where):
        path = str(tmp_path / "m.csv")
        Path(path).write_text(text)
        assert _digit_matrix(read_bytes(path)) is None
        for parse in (_parse_matrix, _parse_text_matrix):
            with pytest.raises(CsvFormatError) as info:
                parse(path)
            assert str(info.value) == f"{path}:{where}"

    def test_empty_file_takes_the_general_path(self, tmp_path):
        path = str(tmp_path / "m.csv")
        open(path, "w").close()
        assert _digit_matrix(read_bytes(path)) is None
        assert _parse_matrix(path).shape == (0, 0)

    def test_digit_check_runs_in_blocks(self, tmp_path):
        # More rows than one check block holds; a fault in the last block
        # still sends the file to the general reader and its error.
        rows = ["1,0"] * (_CHECK_BYTES // 4 + 100)
        path = str(tmp_path / "m.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        got = _digit_matrix(read_bytes(path))
        assert got.dtype == np.uint8 and np.array_equal(got, per_cell_floats(path))
        rows[-50] = "1,x"
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        assert _digit_matrix(read_bytes(path)) is None
        with pytest.raises(CsvFormatError, match=f":{len(rows) - 49}: column 2"):
            _parse_matrix(path)

    def test_save_empty_dataset(self, tmp_path):
        views = [ViewConfig("x", 2, Family.GAUSSIAN_UNIT_VARIANCE)]
        ds = MultiViewDataset(views, [np.zeros((0, 2))])
        path = str(tmp_path / "x.csv")
        save_multiview_csv(ds, [path])
        assert Path(path).read_text() == ""


def edge_values() -> np.ndarray:
    """Doubles where `%.17g` text is easiest to get wrong: every power of
    two, both neighbours of every power of ten, subnormals, signed zeros,
    NaN, infinities and the ends of the 17-digit range."""
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    subnormal = np.ldexp(np.arange(1.0, 4097.0), -1074) * 1.75
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e16 - 2, 1e16, 1e16 + 2,
               99999999999999999.0, 1e17, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.5, 1.0, 100.0, 1e-4, 1e-5]
    values = np.concatenate([pow2, pow10, np.nextafter(pow10, 0),
                             np.nextafter(pow10, np.inf), subnormal, special])
    return np.concatenate([values, -values])


class TestFloatText:
    """`save_matrix_csv` writes every cell as `'%.17g' % value`."""

    def save(self, tmp_path, arr) -> bytes:
        path = str(tmp_path / "m.csv")
        save_matrix_csv(path, arr)
        return read_bytes(path)

    @settings(max_examples=200, deadline=None)
    @given(bits=hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                       max_side=16)))
    def test_any_bit_pattern(self, tmp_path_factory, bits):
        arr = bits.view(np.float64)
        assert self.save(tmp_path_factory.mktemp("bits"), arr) == per_cell_bytes(arr)

    def test_edge_values(self, tmp_path):
        values = edge_values()
        arr = np.resize(values, (-(-values.size // 7), 7))
        assert self.save(tmp_path, arr) == per_cell_bytes(arr)

    def test_random_bits_across_blocks(self, tmp_path, rng):
        arr = rng.integers(0, 2 ** 64, size=(100, 333), dtype=np.uint64).view(np.float64)
        assert arr.size > 3 * _BLOCK_CELLS
        assert self.save(tmp_path, arr) == per_cell_bytes(arr)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 4), (1, 1), (1, 5000), (3, 5000)])
    def test_shapes(self, tmp_path, rng, shape):
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        assert self.save(tmp_path, arr) == per_cell_bytes(arr)

    @pytest.mark.parametrize("layout", ["fortran", "sliced", "float32", "int64"])
    def test_input_layouts(self, tmp_path, rng, layout):
        base = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-8, 8, (40, 30))
        arr = {"fortran": np.asfortranarray(base),
               "sliced": base[::3, 5:-2:2],
               "float32": base.astype(np.float32),
               "int64": (base * 1e10).astype(np.int64)}[layout]
        assert self.save(tmp_path, arr) == per_cell_bytes(arr)

    def test_sigmoid_features_take_no_per_cell_path(self, tmp_path, rng):
        # Posterior means from 1e-300 to exactly 1.0, as `extract` writes
        # them: the numpy path must handle every cell itself.
        arr = expit(rng.uniform(-690.0, 40.0, size=(300, 60)))
        assert arr.min() < 1e-295 and (arr == 1.0).any()
        assert not _g17_layout(arr.ravel())[2].any()
        assert self.save(tmp_path, arr) == per_cell_bytes(arr)

    def test_exact_ties_take_the_per_cell_path(self, tmp_path):
        # 1 + k 2**-17 for odd k has 18 significant digits ending in 5, an
        # exact tie at 17 digits that rounds half to even.
        arr = 1.0 + np.arange(1, 4000, 2).reshape(-1, 10) * 2.0 ** -17
        assert ("%.17g" % arr[0, 0]).endswith("2")  # 1.00000762939453125
        assert _g17_layout(arr.ravel())[2].all()
        assert self.save(tmp_path, arr) == per_cell_bytes(arr)


def load_gaussian_csv(paths: list[str], label_path: str | None = None) -> MultiViewDataset:
    """`load_multiview_csv` of Gaussian views named view0, view1, ...."""
    return load_multiview_csv(paths, label_path,
                              families=[Family.GAUSSIAN_UNIT_VARIANCE] * len(paths),
                              names=[f"view{k}" for k in range(len(paths))])


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def per_cell_bytes(arr: np.ndarray) -> bytes:
    """The CSV bytes of arr with every cell formatted by `%.17g` on its own."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in arr).encode()


def per_cell_floats(path: str) -> np.ndarray:
    """The matrix of a CSV file with every cell parsed by float() on its own."""
    with open(path) as fh:
        return np.array([[float(c) for c in line.split(",")]
                         for line in fh if line.strip()], dtype=np.float64, ndmin=2)


class TestManifest:
    @pytest.mark.parametrize("edit,view", [
        (lambda doc: doc["views"][1].update(dim=5), "'roman'"),
        (lambda doc: doc.update(num_samples=3), "'arabic'")])
    def test_dim_and_sample_count_must_match_files(self, tmp_path, edit, view):
        ds = generate_synthetic_paired(SynthConfig(seed=3, samples_per_class=2))
        save_multiview_csv(ds, [str(tmp_path / "a.csv"), str(tmp_path / "r.csv")])
        doc = {"views": [{"name": v.name, "dim": v.dim, "family": v.family.value}
                         for v in ds.views],
               "num_samples": ds.num_samples, "view_files": ["a.csv", "r.csv"]}
        assert load_dataset_dir_with(tmp_path, doc).num_samples == 20
        edit(doc)
        with pytest.raises(MalformedDocumentError, match=f"manifest.json: view {view}"):
            load_dataset_dir_with(tmp_path, doc)

    @pytest.mark.parametrize("keep", [1, 3])
    def test_views_must_match_view_files_in_number(self, tmp_path, keep):
        ds = generate_synthetic_paired(SynthConfig(seed=3, samples_per_class=2))
        save_multiview_csv(ds, [str(tmp_path / "a.csv"), str(tmp_path / "r.csv")])
        views = [{"name": v.name, "dim": v.dim, "family": v.family.value}
                 for v in ds.views]
        doc = {"views": (views * 2)[:keep], "num_samples": ds.num_samples,
               "view_files": ["a.csv", "r.csv"]}
        with pytest.raises(MalformedDocumentError,
                           match=f"manifest.json: {keep} views for 2 view_files"):
            load_dataset_dir_with(tmp_path, doc)

    @pytest.mark.parametrize("text,match", [
        ('{"views": [\n', "manifest.json: invalid JSON: "),
        ('{"views": [{"name": "a", "dim": 1, "family": "poisson"}], "num_samples": 1, '
         '"view_files": ["a.csv"]}',
         "manifest.json: ['views'][0]['family'] must be one of "
         "['bernoulli', 'gaussian_unit_variance'], got 'poisson'"),
        ('{"views": [], "num_samples": 1, "view_files": []}',
         "manifest.json: ['views'] must be a non-empty list, got []"),
        ('{"views": [5], "num_samples": 1, "view_files": ["a.csv"]}',
         "manifest.json: ['views'][0] must be an object, got 5"),
        (b'{"views": ["\xff"]}', "manifest.json: invalid JSON: 'utf-8' codec can't "
         "decode byte 0xff in position 12: invalid start byte")])
    def test_corrupt_manifest_names_the_file(self, tmp_path, text, match):
        (tmp_path / "a.csv").write_text("1\n")
        (tmp_path / "manifest.json").write_bytes(
            text if isinstance(text, bytes) else text.encode())
        with pytest.raises(MalformedDocumentError, match=re.escape(match)):
            load_dataset_dir(str(tmp_path))

    def test_save_dataset_dir_bytes(self, tmp_path):
        views = [ViewConfig("x", 2, Family.BERNOULLI)]
        ds = MultiViewDataset(views, [np.zeros((3, 2))], labels=np.arange(3))
        save_dataset_dir(ds, str(tmp_path / "d"), seed=4)
        manifest = (tmp_path / "d" / "manifest.json").read_text()
        assert manifest == (
            '{\n "views": [\n  {\n   "name": "x",\n   "dim": 2,\n'
            '   "family": "bernoulli"\n  }\n ],\n "num_samples": 3,\n'
            ' "labels_present": true,\n "seed": 4,\n "view_files": [\n  "x.csv"\n ],\n'
            ' "label_file": "labels.csv"\n}\n')
        doc = json.loads(manifest)
        assert sorted(os.listdir(tmp_path / "d")) == sorted(
            [*doc["view_files"], doc["label_file"], "manifest.json"])

    def test_unlabeled_dataset_dir_round_trip(self, tmp_path):
        views = [ViewConfig("x", 2, Family.BERNOULLI)]
        ds = MultiViewDataset(views, [np.eye(2)])
        save_dataset_dir(ds, str(tmp_path), seed=None)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert (doc["seed"], doc["labels_present"], doc["label_file"]) == (None, False, None)
        assert sorted(os.listdir(tmp_path)) == ["manifest.json", "x.csv"]
        back = load_dataset_dir(str(tmp_path))
        assert back.labels is None
        assert back.view_arrays[0].dtype == np.uint8
        assert np.array_equal(back.view_arrays[0], np.eye(2))

    def test_generated_dataset_dir_round_trip_keeps_uint8(self, tmp_path):
        ds = generate_synthetic_paired(SynthConfig(seed=3, samples_per_class=4))
        save_dataset_dir(ds, str(tmp_path), seed=3)
        for a, b in zip(ds.view_arrays, load_dataset_dir(str(tmp_path)).view_arrays):
            assert a.dtype == b.dtype == np.uint8 and np.array_equal(a, b)

    @pytest.mark.parametrize("names,message", [
        (["labels", "b"], "views ['labels', 'b'] do not name one file each"),
        (["a", "a"], "views ['a', 'a'] do not name one file each"),
        (["../escaped", "b"], "view files ['../escaped.csv', 'b.csv'] are not all plain "),
        (["a", "sub/x"], "view files ['a.csv', 'sub/x.csv'] are not all plain ")])
    def test_dataset_dir_views_need_a_file_each(self, tmp_path, names, message):
        views = [ViewConfig(n, 1, Family.BERNOULLI) for n in names]
        ds = MultiViewDataset(views, [np.ones((2, 1)), np.zeros((2, 1))], labels=np.arange(2))
        with pytest.raises(ValueError, match=re.escape(message)):
            save_dataset_dir(ds, str(tmp_path / "d"), seed=0)
        assert os.listdir(tmp_path) == []  # neither the directory nor a file next to it

    @pytest.mark.parametrize("key,name", [
        (["view_files", 0], "../outside.csv"), (["view_files", 0], None),
        (["label_file"], "../outside.csv"), (["label_file"], "."), (["view_files", 1], ".."),
        (["view_files", 1], "roman\0.csv")],
        ids=["view-parent", "view-absolute", "label-parent", "label-dot", "view-dotdot",
             "view-nul"])
    def test_manifest_files_stay_in_the_directory(self, tmp_path, key, name):
        # A copy of the named file next to the directory (None: by absolute
        # path) would read as a valid dataset if the manifest could leave it.
        ds = generate_synthetic_paired(SynthConfig(seed=3, samples_per_class=2))
        directory = tmp_path / "d"
        save_dataset_dir(ds, str(directory), seed=3)
        doc = json.loads((directory / "manifest.json").read_text())
        parent, last = (doc, key[0]) if len(key) == 1 else (doc[key[0]], key[1])
        shutil.copy(directory / parent[last], tmp_path / "outside.csv")
        parent[last] = str(tmp_path / "outside.csv") if name is None else name
        key_text = "".join(f"[{k!r}]" for k in key)
        with pytest.raises(MalformedDocumentError, match=re.escape(
                f"{directory / 'manifest.json'}: {key_text} must be a plain file name, "
                f"got {parent[last]!r:.40}")):
            load_dataset_dir_with(directory, doc)

    @pytest.mark.parametrize("families", [
        [Family.GAUSSIAN_UNIT_VARIANCE] * 2,
        [Family.GAUSSIAN_UNIT_VARIANCE, Family.BERNOULLI],
        [Family.BERNOULLI] * 2], ids=["all-gaussian", "mixed", "all-bernoulli"])
    def test_dataset_dir_round_trip_is_bitwise(self, tmp_path, rng, families):
        # Nothing is rescaled on load, so a Gaussian view's %.17g text reads
        # back to the same bits, and a uint8 Bernoulli view to the same bytes.
        def draw(k, fam):
            if fam is Family.BERNOULLI:
                return rng.integers(0, 2, (7, 3 + k), dtype=np.uint8)
            arr = rng.normal(5.0 - 7 * k, 3.0, (7, 3 + k)) * 10.0 ** rng.integers(
                -300, 300, (7, 3 + k))
            arr[0, :3] = [5e-324, -0.0, -1e-310]
            return arr

        arrays = [draw(k, fam) for k, fam in enumerate(families)]
        views = [ViewConfig(f"v{k}", a.shape[1], fam)
                 for k, (a, fam) in enumerate(zip(arrays, families))]
        ds = MultiViewDataset(views, arrays, labels=rng.integers(-5, 5, size=7))
        save_dataset_dir(ds, str(tmp_path), seed=0)
        back = load_dataset_dir(str(tmp_path))
        assert back.views == ds.views
        for got, want in zip(back.view_arrays, arrays):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(back.labels, ds.labels)


def load_dataset_dir_with(directory, manifest: dict):
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh)
    return load_dataset_dir(str(directory))


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

    def test_unlabeled_split_pinned(self):
        # Unlabeled rows are split as one class; these indices are the ones
        # the separate unlabeled branch of earlier versions picked.
        views = [ViewConfig("x", 1, Family.GAUSSIAN_UNIT_VARIANCE)]
        ds = MultiViewDataset(views, [np.arange(10.0)[:, None]])
        tr, te = train_test_split(ds, 0.3, seed=4)
        assert tr.view_arrays[0].ravel().tolist() == [2, 3, 4, 5, 6, 8, 9]
        assert te.view_arrays[0].ravel().tolist() == [0, 1, 7]
        assert tr.labels is None and te.labels is None

    def test_degenerate_fraction(self):
        views = [ViewConfig("x", 1, Family.GAUSSIAN_UNIT_VARIANCE)]
        ds = MultiViewDataset(views, [np.zeros((3, 1))])
        with pytest.raises(SplitFractionError, match="0.01 leaves one side"):
            train_test_split(ds, 0.01, seed=0)
