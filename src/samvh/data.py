"""Synthetic paired-glyph dataset generation and multi-view CSV I/O.

The generator produces two binary image views per sample sharing a class
identity: view "arabic" renders the digit glyph 0-9, view "roman" the
matching roman-numeral glyph I-X. Each view gets its own structured noise,
vertical lines on the arabic view and horizontal lines on the roman view,
so class content is shared across views while noise is view-specific.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .expfam import Family
from .model import (MalformedDocumentError, MissingKeyError, MultiViewSample, ViewConfig,
                    read_json, require_key, write_json)


class CsvFormatError(ValueError):
    """Malformed multi-view CSV input, with file/line/column context."""


@dataclass
class MultiViewDataset:
    views: list[ViewConfig]
    view_arrays: list[np.ndarray]  # per view, N x D_k
    labels: np.ndarray | None = None  # N ints

    def __post_init__(self):
        if len(self.views) != len(self.view_arrays):
            raise ValueError(f"{len(self.views)} view configs for "
                             f"{len(self.view_arrays)} view arrays")
        n = self.num_samples
        for cfg, arr in zip(self.views, self.view_arrays):
            if arr.ndim != 2 or arr.shape != (n, cfg.dim):
                raise ValueError(
                    f"view {cfg.name!r} array has shape {arr.shape}, "
                    f"want {(n, cfg.dim)}")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must equal sample count")

    @property
    def num_samples(self) -> int:
        return self.view_arrays[0].shape[0] if self.view_arrays else 0

    @property
    def num_views(self) -> int:
        return len(self.views)

    def sample(self, n: int) -> MultiViewSample:
        return MultiViewSample(
            values=[arr[n] for arr in self.view_arrays],
            label=None if self.labels is None else int(self.labels[n]))

    def samples(self) -> list[MultiViewSample]:
        return [self.sample(n) for n in range(self.num_samples)]

    def subset(self, idx: np.ndarray) -> "MultiViewDataset":
        return MultiViewDataset(
            views=list(self.views),
            view_arrays=[arr[idx] for arr in self.view_arrays],
            labels=None if self.labels is None else self.labels[idx])


@dataclass
class SynthConfig:
    seed: int
    num_classes: int = 10
    image_side: int = 12
    samples_per_class: int = 200
    noise_lines_per_image: int = 2
    jitter: int = 1

    def __post_init__(self):
        for name, ok, rule in (
                ("num_classes", 2 <= self.num_classes <= 10,
                 "in [2, 10] (10 glyphs available)"),
                ("samples_per_class", self.samples_per_class >= 1, ">= 1"),
                ("noise_lines_per_image", self.noise_lines_per_image >= 0, ">= 0"),
                ("jitter", self.jitter >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        side = _GLYPH_SIDE + 2 * self.jitter
        if self.image_side < side:
            raise ValueError(
                f"image_side must be >= {side} to fit {_GLYPH_SIDE}x{_GLYPH_SIDE} "
                f"glyphs with jitter {self.jitter}, got {self.image_side}")


# 8x8 binary glyphs. Row strings: '#' = on pixel.
_GLYPH_SIDE = 8

_ARABIC = [
    [".####...",
     "#....#..",
     "#...##..",
     "#..#.#..",
     "#.#..#..",
     "##...#..",
     ".####...",
     "........"],
    ["...#....",
     "..##....",
     ".#.#....",
     "...#....",
     "...#....",
     "...#....",
     ".#####..",
     "........"],
    [".####...",
     "#....#..",
     ".....#..",
     "...##...",
     "..#.....",
     ".#......",
     "######..",
     "........"],
    [".####...",
     "#....#..",
     ".....#..",
     "..###...",
     ".....#..",
     "#....#..",
     ".####...",
     "........"],
    ["....#...",
     "...##...",
     "..#.#...",
     ".#..#...",
     "######..",
     "....#...",
     "....#...",
     "........"],
    ["######..",
     "#.......",
     "#####...",
     ".....#..",
     ".....#..",
     "#....#..",
     ".####...",
     "........"],
    [".####...",
     "#.......",
     "#####...",
     "#....#..",
     "#....#..",
     "#....#..",
     ".####...",
     "........"],
    ["######..",
     ".....#..",
     "....#...",
     "...#....",
     "..#.....",
     "..#.....",
     "..#.....",
     "........"],
    [".####...",
     "#....#..",
     "#....#..",
     ".####...",
     "#....#..",
     "#....#..",
     ".####...",
     "........"],
    [".####...",
     "#....#..",
     "#....#..",
     ".#####..",
     ".....#..",
     ".....#..",
     ".####...",
     "........"],
]

_ROMAN = [
    ["..###...",  # I
     "...#....",
     "...#....",
     "...#....",
     "...#....",
     "...#....",
     "..###...",
     "........"],
    [".##.##..",  # II
     "..#..#..",
     "..#..#..",
     "..#..#..",
     "..#..#..",
     "..#..#..",
     ".##.##..",
     "........"],
    ["#.#.#...",  # III
     "#.#.#...",
     "#.#.#...",
     "#.#.#...",
     "#.#.#...",
     "#.#.#...",
     "#.#.#...",
     "........"],
    ["#..#..#.",  # IV
     "#..#..#.",
     "#..#..#.",
     "#...#.#.",
     "#...#.#.",
     "#....##.",
     "#.....#.",
     "........"],
    ["#.....#.",  # V
     "#.....#.",
     ".#...#..",
     ".#...#..",
     "..#.#...",
     "..#.#...",
     "...#....",
     "........"],
    ["#...#.#.",  # VI
     "#...#.#.",
     "#...#.#.",
     ".#.#..#.",
     ".#.#..#.",
     "..#...#.",
     "..#...#.",
     "........"],
    ["#..#.#.#",  # VII
     "#..#.#.#",
     "#..#.#.#",
     ".##..#.#",
     ".##..#.#",
     "..#..#.#",
     "..#..#.#",
     "........"],
    ["#.#.#.##",  # VIII (condensed)
     "#.#.#.##",
     "##..#.##",
     "##..#.##",
     "##..#.##",
     "#.#.#.##",
     "#.#.#.##",
     "........"],
    ["#..#...#",  # IX
     "#..#...#",
     "#...#.#.",
     "#....#..",
     "#....#..",
     "#...#.#.",
     "#..#...#",
     "........"],
    ["#.....#.",  # X
     ".#...#..",
     "..#.#...",
     "...#....",
     "..#.#...",
     ".#...#..",
     "#.....#.",
     "........"],
]


def _glyph_array(rows: list[str]) -> np.ndarray:
    return np.array([[1.0 if c == "#" else 0.0 for c in row] for row in rows])


def glyph_templates() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The ten fixed glyph bitmaps for each view."""
    return [_glyph_array(g) for g in _ARABIC], [_glyph_array(g) for g in _ROMAN]


def generate_synthetic_paired(config: SynthConfig, record_noise: bool = False):
    """Render the paired-glyph dataset.

    Per sample: place the class glyph in each view with independent +-jitter
    translation, then OR in `noise_lines_per_image` full-height vertical
    lines (arabic view) or full-width horizontal lines (roman view) at
    uniformly random positions. Deterministic given the seed.

    With record_noise=True also returns the per-view boolean noise masks,
    shape (N, side*side) each.
    """
    rng = np.random.default_rng(config.seed)
    side = config.image_side
    base = (side - _GLYPH_SIDE) // 2
    n_total = config.num_classes * config.samples_per_class
    labels = np.repeat(np.arange(config.num_classes), config.samples_per_class)

    # Two draws per sample and view, made one call at a time: each call
    # drops its leftover 32-bit half, so fewer, larger calls would change
    # the stream and every dataset.
    shifts = np.empty((n_total, 2, 2), dtype=np.int64)
    lines = np.empty((n_total, 2, config.noise_lines_per_image), dtype=np.int64)
    for n in range(n_total):
        for view in range(2):
            shifts[n, view] = rng.integers(-config.jitter, config.jitter + 1, size=2)
            lines[n, view] = rng.integers(0, side, size=config.noise_lines_per_image)

    samples = np.arange(n_total)
    offsets = np.arange(_GLYPH_SIDE)
    images, masks = [], []
    for view, glyphs in enumerate(glyph_templates()):
        img = np.zeros((n_total, side, side))
        r = base + shifts[:, view, 0, None, None] + offsets[:, None]  # (N, 8, 1)
        c = base + shifts[:, view, 1, None, None] + offsets  # (N, 1, 8)
        # Class by class, as the labels run in blocks: a glyph per sample
        # would be an (N, 8, 8) temporary.
        for cls in range(config.num_classes):
            block = slice(cls * config.samples_per_class,
                          (cls + 1) * config.samples_per_class)
            img[samples[block, None, None], r[block], c[block]] = glyphs[cls]
        hit = np.zeros((n_total, side), dtype=bool)
        hit[samples[:, None], lines[:, view]] = True
        # Arabic noise lines are columns, roman noise lines are rows.
        noise = np.zeros(img.shape, dtype=bool)
        noise |= hit[:, None, :] if view == 0 else hit[:, :, None]
        np.copyto(img, 1.0, where=noise)
        images.append(img.reshape(n_total, side * side))
        masks.append(noise.reshape(n_total, side * side))

    views = [ViewConfig("arabic", side * side, Family.BERNOULLI),
             ViewConfig("roman", side * side, Family.BERNOULLI)]
    dataset = MultiViewDataset(views=views, view_arrays=images, labels=labels)
    if record_noise:
        return dataset, masks
    return dataset


# ---------------------------------------------------------------------------
# CSV + manifest I/O
# ---------------------------------------------------------------------------

def _parse_matrix(path: str) -> np.ndarray:
    """Read a headerless comma-separated float matrix, skipping blank lines.

    A file in the fixed layout that `save_matrix_csv` writes for a matrix
    of single digits (lines of one length, each ending in a newline, with a
    digit 0-9 at every even byte offset and a comma at every other offset
    before the newline) is decoded from its bytes. Any other file is parsed
    by numpy's C reader, and a file that reader rejects is rescanned by
    `_locate_csv_fault` for an error that names the line and column. Both
    paths give the same array.
    """
    with open(path, "rb") as fh:
        matrix = _digit_matrix(fh.read())
    return _parse_text_matrix(path) if matrix is None else matrix


def _parse_text_matrix(path: str) -> np.ndarray:
    """`_parse_matrix` for a file of any layout."""
    with open(path) as fh:
        lines = (ln for ln in fh if ln.strip())
        first = next(lines, None)
        if first is None:
            return np.zeros((0, 0))
        try:
            return np.loadtxt(itertools.chain([first], lines), delimiter=",",
                              dtype=np.float64, ndmin=2, comments=None)
        except ValueError as exc:
            reason = str(exc)
    _locate_csv_fault(path)
    raise CsvFormatError(f"{path}: {reason}")


def _digit_matrix(text: bytes) -> np.ndarray | None:
    """The matrix that a file's bytes hold in the fixed single-digit layout,
    or None if the bytes have any other layout."""
    width = text.find(b"\n") + 1
    if width == 0 or width % 2 or len(text) % width:
        return None
    rows = np.frombuffer(text, dtype=np.uint8).reshape(-1, width)
    cells = rows[:, ::2]
    if ((cells - ord("0") <= 9).all()  # uint8: bytes below '0' wrap past 9
            and (rows[:, 1:-1:2] == ord(",")).all()
            and (rows[:, -1] == ord("\n")).all()):
        return np.subtract(cells, ord("0"), dtype=np.float64)
    return None


def _locate_csv_fault(path: str) -> None:
    """Raise a CsvFormatError at the first ragged row or non-numeric cell."""
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
            for col, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}:{lineno}: column {col}: "
                        f"non-numeric cell {cell.strip()!r}") from None


def standardize_columns(matrix: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per column; constant columns become all zero."""
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    std = matrix.std(axis=0, keepdims=True)
    out = np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)
    return out


def load_multiview_csv(paths: list[str], label_path: str | None = None,
                       families: list[Family] | None = None,
                       standardize: bool | None = None,
                       names: list[str] | None = None) -> MultiViewDataset:
    """Load one CSV matrix per view (no header, one row per sample).

    By default views are treated as real-valued Gaussian features and each
    column is standardized; pass explicit families (e.g. Bernoulli for
    binary data) to disable that.
    """
    if families is None:
        families = [Family.GAUSSIAN_UNIT_VARIANCE] * len(paths)
    if standardize is None:
        standardize = all(f is Family.GAUSSIAN_UNIT_VARIANCE for f in families)
    if names is None:
        names = [f"view{k}" for k in range(len(paths))]

    matrices = [_parse_matrix(p) for p in paths]
    n_rows = matrices[0].shape[0]
    for path, m in zip(paths, matrices):
        if m.shape[0] != n_rows:
            raise CsvFormatError(
                f"{path}: has {m.shape[0]} rows, other views have {n_rows}")
    if standardize:
        matrices = [standardize_columns(m) for m in matrices]

    labels = None
    if label_path is not None:
        raw = []
        with open(label_path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw.append(int(line))
                except ValueError:
                    raise CsvFormatError(
                        f"{label_path}:{lineno}: non-integer label {line!r}") from None
        if len(raw) != n_rows:
            raise CsvFormatError(
                f"{label_path}: has {len(raw)} labels, views have {n_rows} rows")
        labels = np.asarray(raw, dtype=np.int64)

    views = [ViewConfig(name, m.shape[1], fam)
             for name, m, fam in zip(names, matrices, families)]
    return MultiViewDataset(views=views, view_arrays=matrices, labels=labels)


def save_matrix_csv(path: str, arr: np.ndarray) -> None:
    """Write a 2-D array as CSV, one row per line, every value with 17
    significant digits (enough to read each double back exactly).

    An array of single digits (see `_digit_text`) is written from one byte
    buffer; its bytes are the same.
    """
    text = _digit_text(arr)
    if text is not None:
        with open(path, "wb") as fh:
            fh.write(text.data)
        return
    template = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w") as fh:
        for row in arr:  # row by row: a whole-array tolist() would cost ~40 B per cell
            fh.write(template % tuple(row.tolist()))


def _digit_text(arr: np.ndarray) -> np.ndarray | None:
    """The CSV bytes of a non-empty array whose values are all among 0.0,
    1.0, ..., 9.0 with the sign bit clear, so that each value's `%.17g` text
    is one digit, as an (N, 2 D) uint8 array; None for any other array."""
    if not arr.size or np.signbit(arr).any() or not (arr <= 9).all():
        return None
    digits = arr.astype(np.uint8)  # values in [0, 9] (NaN fails `<= 9`)
    if not (digits == arr).all():
        return None
    text = np.full((arr.shape[0], 2 * arr.shape[1]), ord(","), dtype=np.uint8)
    np.add(digits, ord("0"), out=text[:, ::2])
    text[:, -1] = ord("\n")
    return text


def save_multiview_csv(data: MultiViewDataset, paths: list[str],
                       label_path: str | None = None) -> None:
    """Write one CSV per view with 17 significant digits."""
    if len(paths) != data.num_views:
        raise ValueError("need exactly one output path per view")
    for path, arr in zip(paths, data.view_arrays):
        save_matrix_csv(path, arr)
    if label_path is not None:
        if data.labels is None:
            raise ValueError("dataset has no labels to save")
        with open(label_path, "w") as fh:
            for lab in data.labels:
                fh.write(f"{int(lab)}\n")


def save_manifest(data: MultiViewDataset, path: str, seed: int | None = None,
                  view_files: list[str] | None = None,
                  label_file: str | None = None) -> None:
    doc = {
        "views": [{"name": v.name, "dim": v.dim, "family": v.family.value}
                  for v in data.views],
        "num_samples": data.num_samples,
        "labels_present": data.labels is not None,
    }
    if seed is not None:
        doc["seed"] = seed
    if view_files is not None:
        doc["view_files"] = view_files
    if label_file is not None:
        doc["label_file"] = label_file
    write_json(doc, path)


def load_dataset_dir(directory: str) -> MultiViewDataset:
    """Load a dataset written by the CLI: manifest.json + per-view CSVs."""
    manifest = os.path.join(directory, "manifest.json")
    doc = read_json(manifest)
    try:
        views = require_key(doc, ["views"], manifest)
        families = [Family(require_key(views, [i, "family"], manifest))
                    for i in range(len(views))]
        names = [require_key(views, [i, "name"], manifest) for i in range(len(views))]
        dims = [require_key(views, [i, "dim"], manifest) for i in range(len(views))]
        num_samples = require_key(doc, ["num_samples"], manifest)
        paths = [os.path.join(directory, f)
                 for f in require_key(doc, ["view_files"], manifest)]
        label_path = (os.path.join(directory, doc["label_file"])
                      if doc.get("label_file") else None)
    except MissingKeyError:
        raise
    except (TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"{manifest}: malformed manifest: {exc}") from None
    if len(views) != len(paths):
        raise MalformedDocumentError(f"{manifest}: {len(views)} views for "
                                     f"{len(paths)} view_files")
    data = load_multiview_csv(paths, label_path, families=families, names=names)
    for path, cfg, dim in zip(paths, data.views, dims):
        if (cfg.dim, data.num_samples) != (dim, num_samples):
            raise MalformedDocumentError(
                f"{manifest}: view {cfg.name!r} should hold {num_samples} rows of "
                f"dim {dim}, but {path} holds {data.num_samples} rows of {cfg.dim}")
    return data


def train_test_split(data: MultiViewDataset, test_fraction: float,
                     seed: int) -> tuple[MultiViewDataset, MultiViewDataset]:
    """Deterministic split, stratified by label when labels are present."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = data.num_samples
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    rng = np.random.default_rng(seed)
    # Unlabeled data is split as one class.
    labels = np.zeros(n, dtype=np.int64) if data.labels is None else data.labels
    test_mask = np.zeros(n, dtype=bool)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        test_mask[members[:int(round(len(members) * test_fraction))]] = True
    if test_mask.all() or not test_mask.any():
        raise ValueError("test_fraction leaves one side of the split empty")
    return data.subset(~test_mask), data.subset(test_mask)
