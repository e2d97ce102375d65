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
from .model import (MalformedDocumentError, MultiViewSample, ViewConfig, key_path,
                    read_json, require_key, require_views, write_json)


class CsvFormatError(ValueError):
    """Malformed multi-view CSV input, with file/line/column context."""


class SplitFractionError(ValueError):
    """A test fraction outside (0, 1), or one that leaves a side empty."""


@dataclass
class MultiViewDataset:
    """Per-view N x D_k arrays with optional labels. Generated binary views,
    and those read in the single-digit CSV layout, are uint8; `train` and
    `extract_features` have check_views convert a batch or block at a time."""
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


def generate_synthetic_paired(config: SynthConfig) -> MultiViewDataset:
    """Render the paired-glyph dataset.

    Per sample: place the class glyph in each view with independent +-jitter
    translation, then OR in `noise_lines_per_image` full-height vertical
    lines (arabic view) or full-width horizontal lines (roman view) at
    uniformly random positions. Deterministic given the seed.

    The views are uint8 arrays of 0 and 1, shape (N, side*side) each.
    """
    rng = np.random.default_rng(config.seed)
    side = config.image_side
    base = (side - _GLYPH_SIDE) // 2
    n_total = config.num_classes * config.samples_per_class
    labels = np.repeat(np.arange(config.num_classes), config.samples_per_class)

    # One call with per-draw bounds, in the order of a loop over samples and
    # views that draws 2 shifts and then the noise lines: numpy takes each
    # bounded draw from the same 32-bit stream whatever the call's size.
    k = config.noise_lines_per_image
    low = np.repeat([-config.jitter, 0], [2, k])
    high = np.repeat([config.jitter + 1, side], [2, k])
    draws = rng.integers(low, high, size=(n_total, 2, 2 + k))
    shifts, lines = draws[..., :2], draws[..., 2:]

    samples = np.arange(n_total)
    offsets = np.arange(_GLYPH_SIDE)
    images = []
    for view, glyphs in enumerate(glyph_templates()):
        img = np.zeros((n_total, side, side), dtype=np.uint8)
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
        img |= hit[:, None, :] if view == 0 else hit[:, :, None]
        images.append(img.reshape(n_total, side * side))

    views = [ViewConfig("arabic", side * side, Family.BERNOULLI),
             ViewConfig("roman", side * side, Family.BERNOULLI)]
    return MultiViewDataset(views=views, view_arrays=images, labels=labels)


# ---------------------------------------------------------------------------
# CSV + manifest I/O
# ---------------------------------------------------------------------------

def _parse_matrix(path: str) -> np.ndarray:
    """Read a headerless comma-separated float matrix, skipping blank lines.

    A file in the fixed layout that `save_matrix_csv` writes for a matrix
    of single digits (lines of one length, each ending in a newline, with a
    digit 0-9 at every even byte offset and a comma at every other offset
    before the newline) is decoded from its bytes to uint8. Any other file
    is parsed by numpy's C reader to float64, and a file that reader rejects
    is rescanned by `_locate_csv_fault` for an error that names the line and
    column. Both paths give the same values.
    """
    with open(path, "rb") as fh:
        matrix = _digit_matrix(fh.read())
    return _parse_text_matrix(path) if matrix is None else matrix


def _parse_text_matrix(path: str) -> np.ndarray:
    """`_parse_matrix` for a file of any layout. Here and in a label file a
    byte that is not UTF-8 reads as a lone surrogate, which no number parses."""
    with open(path, errors="surrogateescape") as fh:
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


_CHECK_BYTES = 1 << 16  # bytes of a file that `_digit_matrix` checks at once


def _digit_matrix(text: bytes) -> np.ndarray | None:
    """The uint8 matrix that a file's bytes hold in the fixed single-digit
    layout, or None if the bytes have any other layout."""
    width = text.find(b"\n") + 1
    if width == 0 or width % 2 or len(text) % width:
        return None
    rows = np.frombuffer(text, dtype=np.uint8).reshape(-1, width)
    matrix = np.empty((rows.shape[0], width // 2), dtype=np.uint8)
    step = max(1, _CHECK_BYTES // width)
    # Block by block, so the check's temporaries stay small.
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        digits = np.subtract(block[:, ::2], ord("0"), out=matrix[start:start + step])
        if not ((digits <= 9).all()  # uint8: bytes below '0' wrap past 9
                and (block[:, 1:-1:2] == ord(",")).all()
                and (block[:, -1] == ord("\n")).all()):
            return None
    return matrix


def _locate_csv_fault(path: str) -> None:
    """Raise a CsvFormatError at the first ragged row or non-numeric cell."""
    width = None
    with open(path, errors="surrogateescape") as fh:
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


def load_multiview_csv(paths: list[str], label_path: str | None = None, *,
                       families: list[Family], names: list[str]) -> MultiViewDataset:
    """Load one CSV matrix per view (no header, one row per sample), view k
    named names[k] and of family families[k], with the values the files hold.

    A Bernoulli view is held as read: uint8 from a file of single digits,
    float64 from any other; a Gaussian view is float64. A file with no rows,
    or whose row count differs from the first file's, is a CsvFormatError
    that names it.
    """
    matrices = [_parse_matrix(p) for p in paths]
    n_rows = matrices[0].shape[0]
    for path, m in zip(paths, matrices):
        if m.shape[0] == 0:
            raise CsvFormatError(f"{path}: has no rows")
        if m.shape[0] != n_rows:
            raise CsvFormatError(
                f"{path}: has {m.shape[0]} rows, but {paths[0]} has {n_rows}")
    for k, fam in enumerate(families[:len(matrices)]):
        if fam is not Family.BERNOULLI:
            matrices[k] = matrices[k].astype(np.float64, copy=False)

    labels = None
    if label_path is not None:
        raw = []
        with open(label_path, errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw.append(int(line))
                except ValueError:
                    raise CsvFormatError(
                        f"{label_path}:{lineno}: non-integer label {line!r}") from None
                if not -2 ** 63 <= raw[-1] < 2 ** 63:
                    raise CsvFormatError(f"{label_path}:{lineno}: label {line} is outside int64")
        if len(raw) != n_rows:
            raise CsvFormatError(
                f"{label_path}: has {len(raw)} labels, views have {n_rows} rows")
        labels = np.asarray(raw, dtype=np.int64)

    views = [ViewConfig(name, m.shape[1], fam)
             for name, m, fam in zip(names, matrices, families)]
    return MultiViewDataset(views=views, view_arrays=matrices, labels=labels)


def save_matrix_csv(path: str, arr: np.ndarray) -> None:
    """Write a 2-D array as CSV, one row per line, each value as its
    `'%.17g' % value` text: at most 17 significant digits with trailing
    zeros dropped, so every double reads back exactly.

    An array of single digits (see `_digit_text`) is written from one byte
    buffer; any other array is formatted by `_g17_text` in blocks of
    `_BLOCK_CELLS` cells. The bytes are those of `%.17g` either way.
    """
    text = _digit_text(arr)
    with open(path, "wb") as fh:
        if text is not None:
            fh.write(text.data)
            return
        rows, cols = arr.shape
        if not cols:
            fh.write(b"\n" * rows)
            return
        flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
        for start in range(0, flat.size, _BLOCK_CELLS):
            fh.write(_g17_text(flat[start:start + _BLOCK_CELLS], cols, start))


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


# `%.17g` text of float64 cells in numpy. A finite nonzero |x| = f 2**e
# (frexp) with decimal exponent X, 10**X <= |x| < 10**(X+1), has the digits
# N = round-half-even(|x| 10**(16-X)), an integer in [1e16, 1e17] (1e17 is
# the digits 1e16 of exponent X+1). 10**(16-X) is held as (H + L) 2**k with
# H + L a double-double in (0.5, 2); Dekker's exact product gives
# f H = P + p, and
#   |x| 10**(16-X) = ldexp(P, e+k) + ldexp(p + f L, e+k) = big + t,
# where big is an integer-valued double (>= 2**53 once X is right) and the
# remainder t (|t| < 32) is off by less than 2**-45. N = big + rint(t) unless
# t lies within _TIE_MARGIN of a half-integer; those cells (exact 18-digit
# ties among them), NaN and +-inf take `'%.17g' %` one at a time (Loitsch,
# PLDI 2010: a fast path that knows when it may be wrong).
_BLOCK_CELLS = 1 << 13  # 64 KB per float64 temporary, ~1.5 MB per block in all
_TIE_MARGIN = 2.0 ** -32
_X_MIN, _X_MAX = -325, 309  # X from log10 of a double, one off either way
_SPLIT = 2.0 ** 27 + 1  # Dekker's split constant for 53-bit doubles


def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(H_hi, H_lo, L, k) at X - _X_MIN for X in [_X_MIN, _X_MAX]:
    10**(16-X) = (H + L) 2**k to within 2**-106 of H, from exact integer
    arithmetic, with H = H_hi + H_lo split in 26-bit halves."""
    H, L, K = [], [], []
    for X in range(_X_MIN, _X_MAX + 1):
        q = 16 - X
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        k = num.bit_length() - den.bit_length()
        if k >= 0:
            den <<= k
        else:
            num <<= -k
        h = num / den  # int / int rounds correctly
        a, b = h.as_integer_ratio()
        H.append(h)
        L.append((num * b - a * den) / (den * b))
        K.append(k)
    H = np.array(H)
    c = _SPLIT * H
    hi = c - (c - H)
    return hi, H - hi, np.array(L), np.array(K, dtype=np.int32)


_P10_HI, _P10_LO, _P10_L, _P10_K = _pow10_table()


def _scaled(f: np.ndarray, e: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(big, t) with big + t = f 2**e 10**(16-X) as described above."""
    i = X - _X_MIN
    c = _SPLIT * f
    f_hi = c - (c - f)
    f_lo = f - f_hi
    h_hi, h_lo = _P10_HI.take(i), _P10_LO.take(i)
    P = f * (h_hi + h_lo)
    p = ((f_hi * h_hi - P) + f_hi * h_lo + f_lo * h_hi) + f_lo * h_lo
    shift = e + _P10_K.take(i)
    return np.ldexp(P, shift), np.ldexp(p + f * _P10_L.take(i), shift)


# A cell's text in 32 fixed columns: a uint64 word of sign, "0.000", lead
# digit and "."; the 16 other digits as four uint32 words; a uint64 word of
# "e", exponent sign, three exponent digits, separator and pad.
# `_keep_table` says which columns a cell shows; a point that follows digit
# X > 0 instead of the lead digit is moved in place.
_LAYOUT = np.frombuffer(b"-0.0000." + b"0" * 16 + b"e+000,  ", dtype=np.uint8)
_HEAD = _LAYOUT[:8].view(np.uint64)[0]
_LEAD, _SEP = 6, 29


def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uint32 words of the 4-digit groups 0000-9999; the uint64 words
    "e+ddd," / "e-ddd," of the exponents -400..400; and end[i, g], the count
    of digits up to g's last nonzero one when g is group i (digits 4i+1 ..
    4i+4 of 17), 0 for 0000. Built in small dtypes: they stay resident."""
    g = np.arange(10000, dtype=np.int16)
    digits = np.empty((g.size, 4), dtype=np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        digits[:, i] = g // unit % 10 + ord("0")
    X = np.arange(-400, 401, dtype=np.int16)
    tail = np.tile(_LAYOUT[24:32], (X.size, 1))
    tail[:, 1] = np.where(X < 0, ord("-"), ord("+"))
    for i, unit in enumerate((100, 10, 1)):
        tail[:, 2 + i] = abs(X) // unit % 10 + ord("0")
    used = np.full(g.size, 4, dtype=np.int8) - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    end = np.where(g > 0, 1 + 4 * np.arange(4, dtype=np.int8)[:, None] + used, 0)
    return digits.view(np.uint32).ravel(), tail.view(np.uint64).ravel(), end


def _keep_table() -> np.ndarray:
    """keep[code]: the columns of the layout that a cell of this code shows,
    code = (form * 18 + nd) * 2 + sign bit. nd (1-17) counts the digits up
    to the last nonzero one; form is X + 4 for fixed notation (X in [-4,
    16]), 21 for an exponent of two digits, 22 of three, and 23 for a cell
    whose text is spliced in, which shows only its separator."""
    form, nd, neg = (a.ravel()[:, None] for a in
                     np.meshgrid(np.arange(24), np.arange(18), np.arange(2), indexing="ij"))
    sci = form >= 21
    X = form - 4
    point = np.where(sci | (X < 0), 0, X)  # the digit the point slot follows
    slot = np.arange(18)  # columns 6-23: digits 0..point, point slot, the rest
    keep = np.zeros((form.size, _LAYOUT.size), dtype=bool)
    keep[:, :1] = neg
    keep[:, 1:6] = np.arange(5) < np.where(~sci & (X < 0), 1 - X, 0)
    keep[:, 6:24] = ((slot <= point) | (slot > point + 1) & (slot <= nd)
                     | (slot == point + 1) & (nd > point + 1) & (sci | (X >= 0)))
    keep[:, 24:29] = sci
    keep[:, 26:27] &= form == 22
    keep[:, _SEP] = True
    keep[form[:, 0] == 23, :_SEP] = False
    return keep


def _point_moves() -> np.ndarray:
    """moves[X - 1]: the order of columns 6-23 that puts the point after
    digit X (1-16) instead of after the lead digit."""
    slot = np.arange(18)
    X = np.arange(1, 17)[:, None]
    return np.where(slot == 0, 0, np.where(slot <= X, slot + 1,
                                           np.where(slot == X + 1, 1, slot)))


_GROUP_TEXT, _TAIL_TEXT, _GROUP_END = _text_tables()
_KEEP, _POINT_MOVES = _keep_table(), _point_moves()


def _g17_layout(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(text, keep, slow) for a 1-D float64 array x: text[i][keep[i]] is
    `'%.17g' % x[i]` followed by the separator column, left as ",", for
    every cell but the `slow` ones, whose keep holds the separator alone."""
    n = x.size
    mag = np.abs(x)
    zero = mag == 0
    fast = (mag > 0) & (mag < np.inf)
    mag[~fast] = 1.0
    f, e = np.frexp(mag)
    X = np.floor(np.log10(mag)).astype(np.int32)
    big, t = _scaled(f, e, X)
    # log10 may miss the decade by one near a power of ten.
    below = (big - 1e16) + t < 0
    above = (big - 1e17) + t >= 0
    off = np.flatnonzero(below | above)
    if off.size:
        X[off] += above[off].astype(np.int32) - below[off]
        big[off], t[off] = _scaled(f[off], e[off], X[off])
    r = np.rint(t)
    N = big.astype(np.int64) + r.astype(np.int64)
    slow = ~(zero | fast & (np.abs(t - r) < 0.5 - _TIE_MARGIN)
             & (N >= 10 ** 16) & (N <= 10 ** 17))
    plain = zero | slow
    N[plain] = 10 ** 16
    X[plain] = 0
    top = N == 10 ** 17
    N[top] = 10 ** 16
    X[top] += 1

    lead = N // 10 ** 16
    rest = N - lead * 10 ** 16
    high = rest // 10 ** 8
    low = (rest - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    high_g, low_g = high // 10 ** 4, low // 10 ** 4
    groups = (high_g, high - high_g * 10 ** 4, low_g, low - low_g * 10 ** 4)
    text = np.empty((n, _LAYOUT.size), dtype=np.uint8)
    text.view(np.uint64)[:, 0] = _HEAD
    lead[zero] = 0
    text[:, _LEAD] = lead + ord("0")
    nd = np.ones(n, dtype=np.int8)  # digits up to the last nonzero one
    for i, g in enumerate(groups):
        _GROUP_TEXT.take(g, out=text.view(np.uint32)[:, 2 + i])
        np.maximum(nd, _GROUP_END[i].take(g), out=nd)
    _TAIL_TEXT.take(X + 400, out=text.view(np.uint64)[:, 3])
    moved = np.flatnonzero((X > 0) & (X <= 16))
    if moved.size:
        text[moved, 6:24] = np.take_along_axis(
            text[moved, 6:24], _POINT_MOVES[X[moved] - 1], axis=1)

    form = np.where((X < -4) | (X > 16), 21 + (np.abs(X) >= 100), X + 4)
    form[slow] = 23
    return text, _KEEP.take((form * 18 + nd) * 2 + np.signbit(x), axis=0), slow


def _g17_text(x: np.ndarray, cols: int, start: int) -> bytes:
    """The CSV bytes of the cells x of a row-major matrix with `cols`
    columns, x[0] being flat cell `start`: each cell's `%.17g` text, then
    "," or, after a row's last cell, a newline."""
    text, keep, slow = _g17_layout(x)
    text[cols - 1 - start % cols::cols, _SEP] = ord("\n")
    out = np.compress(keep.ravel(), text.ravel()).tobytes()
    if not slow.any():
        return out
    at = np.cumsum(keep.sum(axis=1)) - 1  # each cell's separator byte
    pieces, prev = [], 0
    for i in np.flatnonzero(slow):
        pieces += [out[prev:at[i]], b"%.17g" % x[i]]
        prev = at[i]
    pieces.append(out[prev:])
    return b"".join(pieces)


def save_multiview_csv(data: MultiViewDataset, paths: list[str],
                       label_path: str | None = None) -> None:
    """Write one CSV per view, each value as its `%.17g` text (see
    `save_matrix_csv`)."""
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


def _is_file_name(name: str) -> bool:
    """Whether name is a plain file name, one that joined to a directory
    stays inside it: not empty, . or .., and with no separator, drive or NUL."""
    return name not in ("", ".", "..") and "\0" not in name and os.path.basename(name) == name


def save_dataset_dir(data: MultiViewDataset, directory: str, seed: int | None) -> None:
    """Write what `load_dataset_dir` reads: `<view name>.csv` per view,
    `labels.csv` if labeled, and a `manifest.json` that names them."""
    view_files = [f"{v.name}.csv" for v in data.views]
    label_file = None if data.labels is None else "labels.csv"
    if len({*view_files, label_file}) <= len(view_files):  # two views alike, or "labels"
        raise ValueError(f"views {[v.name for v in data.views]} do not name one file each")
    if not all(map(_is_file_name, view_files)):
        raise ValueError(f"view files {view_files} are not all plain file names")
    os.makedirs(directory, exist_ok=True)
    save_multiview_csv(data, [os.path.join(directory, f) for f in view_files],
                       None if label_file is None else os.path.join(directory, label_file))
    write_json({
        "views": [{"name": v.name, "dim": v.dim, "family": v.family.value}
                  for v in data.views],
        "num_samples": data.num_samples,
        "labels_present": data.labels is not None,
        "seed": seed,
        "view_files": view_files,
        "label_file": label_file,
    }, os.path.join(directory, "manifest.json"))


def load_dataset_dir(directory: str) -> MultiViewDataset:
    """Load a dataset directory, as `save_dataset_dir` writes it. Each
    view_files entry and the label_file is a plain file name in the
    directory. A null or missing label_file leaves it unlabeled;
    labels_present and seed are informational."""
    manifest = os.path.join(directory, "manifest.json")
    doc = read_json(manifest)
    names, families = require_views(doc, manifest)
    dims = [require_key(doc, ["views", i, "dim"], manifest, int) for i in range(len(names))]
    num_samples = require_key(doc, ["num_samples"], manifest, int)

    def file_path(keys):
        name = require_key(doc, keys, manifest, str)
        if not _is_file_name(name):
            raise MalformedDocumentError(f"{manifest}: {key_path(keys)} must be a plain "
                                         f"file name, got {name!r:.40}")
        return os.path.join(directory, name)

    paths = [file_path(["view_files", i])
             for i in range(len(require_key(doc, ["view_files"], manifest, list)))]
    label_path = None if doc.get("label_file") is None else file_path(["label_file"])
    if len(names) != len(paths):
        raise MalformedDocumentError(f"{manifest}: {len(names)} views for "
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
        raise SplitFractionError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    # Unlabeled data is split as one class.
    labels = np.zeros(data.num_samples, dtype=np.int64) if data.labels is None else data.labels
    test_mask = np.zeros(len(labels), dtype=bool)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        test_mask[members[:int(round(len(members) * test_fraction))]] = True
    if test_mask.all() or not test_mask.any():  # always so below 2 samples
        raise SplitFractionError(
            f"test_fraction {test_fraction} leaves one side of the split empty")
    return data.subset(~test_mask), data.subset(test_mask)
