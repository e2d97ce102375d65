"""Synthetic paired-glyph dataset generation and multi-view CSV I/O.

The generator produces two binary image views per sample sharing a class
identity: view "arabic" renders the digit glyph 0-9, view "roman" the
matching roman-numeral glyph I-X. Each view gets its own structured noise,
vertical lines on the arabic view and horizontal lines on the roman view,
so class content is shared across views while noise is view-specific.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .expfam import Family
from .model import MalformedDocumentError, MultiViewSample, ViewConfig, require_key


class CsvFormatError(ValueError):
    """Malformed multi-view CSV input, with file/line/column context."""


@dataclass
class MultiViewDataset:
    views: list[ViewConfig]
    view_arrays: list[np.ndarray]  # per view, N x D_k
    labels: np.ndarray | None = None  # N ints

    def __post_init__(self):
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

    @property
    def labels_present(self) -> bool:
        return self.labels is not None

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
        if self.num_classes < 2 or self.num_classes > 10:
            raise ValueError("num_classes must be in [2, 10] (10 glyphs available)")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if self.noise_lines_per_image < 0 or self.jitter < 0:
            raise ValueError("noise_lines_per_image and jitter must be >= 0")
        glyph = _GLYPH_SIDE
        if glyph + 2 * self.jitter > self.image_side:
            raise ValueError(
                f"{glyph}x{glyph} glyphs with jitter {self.jitter} do not fit "
                f"in a {self.image_side}x{self.image_side} image")


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
    arabic, roman = glyph_templates()
    side = config.image_side
    base = (side - _GLYPH_SIDE) // 2
    n_total = config.num_classes * config.samples_per_class

    images = [np.zeros((n_total, side * side)), np.zeros((n_total, side * side))]
    masks = [np.zeros((n_total, side * side), dtype=bool) for _ in range(2)]
    labels = np.repeat(np.arange(config.num_classes), config.samples_per_class)

    for n, cls in enumerate(labels):
        for view, glyphs in enumerate((arabic, roman)):
            img = np.zeros((side, side))
            dy, dx = rng.integers(-config.jitter, config.jitter + 1, size=2)
            r0, c0 = base + dy, base + dx
            img[r0:r0 + _GLYPH_SIDE, c0:c0 + _GLYPH_SIDE] = glyphs[cls]
            noise = np.zeros((side, side), dtype=bool)
            lines = rng.integers(0, side, size=config.noise_lines_per_image)
            for pos in lines:
                if view == 0:
                    noise[:, pos] = True
                else:
                    noise[pos, :] = True
            img[noise] = 1.0
            images[view][n] = img.ravel()
            masks[view][n] = noise.ravel()

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

    numpy's C reader parses the file; a file it rejects is rescanned by
    `_locate_csv_fault` for an error that names the line and column.
    """
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
    significant digits (enough to read each double back exactly)."""
    template = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w") as fh:
        for row in arr:  # row by row: a whole-array tolist() would cost ~40 B per cell
            fh.write(template % tuple(row.tolist()))


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
        "labels_present": data.labels_present,
    }
    if seed is not None:
        doc["seed"] = seed
    if view_files is not None:
        doc["view_files"] = view_files
    if label_file is not None:
        doc["label_file"] = label_file
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_dataset_dir(directory: str) -> MultiViewDataset:
    """Load a dataset written by the CLI: manifest.json + per-view CSVs."""
    manifest = os.path.join(directory, "manifest.json")
    with open(manifest) as fh:
        doc = json.load(fh)
    try:
        views = require_key(doc, ["views"], manifest)
        families = [Family(require_key(views, [i, "family"], manifest))
                    for i in range(len(views))]
        names = [require_key(views, [i, "name"], manifest) for i in range(len(views))]
        paths = [os.path.join(directory, f)
                 for f in require_key(doc, ["view_files"], manifest)]
        label_path = (os.path.join(directory, doc["label_file"])
                      if doc.get("label_file") else None)
    except TypeError as exc:
        raise MalformedDocumentError(f"{manifest}: malformed manifest: {exc}") from None
    return load_multiview_csv(paths, label_path, families=families, names=names)


def train_test_split(data: MultiViewDataset, test_fraction: float,
                     seed: int) -> tuple[MultiViewDataset, MultiViewDataset]:
    """Deterministic split, stratified by label when labels are present."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = data.num_samples
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    rng = np.random.default_rng(seed)

    if data.labels is not None:
        test_idx = []
        for cls in np.unique(data.labels):
            members = np.flatnonzero(data.labels == cls)
            members = members[rng.permutation(len(members))]
            n_test = int(round(len(members) * test_fraction))
            test_idx.extend(members[:n_test])
        test_mask = np.zeros(n, dtype=bool)
        test_mask[test_idx] = True
    else:
        perm = rng.permutation(n)
        n_test = int(round(n * test_fraction))
        test_mask = np.zeros(n, dtype=bool)
        test_mask[perm[:n_test]] = True

    if test_mask.all() or not test_mask.any():
        raise ValueError("test_fraction leaves one side of the split empty")
    return data.subset(~test_mask), data.subset(test_mask)
