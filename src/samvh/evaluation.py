"""Feature extraction, kNN evaluation, and filter-image export."""
from __future__ import annotations

import logging
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .data import MultiViewDataset
from .model import (HarmoniumParams, check_views, gated_weights, gates,
                    posterior_hidden_mean_batch, row_blocks, structure_report)
# suff_stat is not called here, but the span tracer in bench/ rebinds it in
# this namespace and its tests require the name to be bound.
from .expfam import suff_stat  # noqa: F401

logger = logging.getLogger(__name__)


class EmptySelectionError(ValueError):
    """The requested hidden-unit category contains no units."""

    def __init__(self, category: str):
        super().__init__(f"no hidden units in category {category!r}")
        self.category = category


@dataclass
class FeatureMatrix:
    values: np.ndarray  # N x (selected units)
    column_indices: np.ndarray  # indices into the full hidden layer


def _selected_units(params: HarmoniumParams, selection) -> tuple[list[int], str]:
    if selection == "all":
        return list(range(params.hidden_dim)), "all"
    report = structure_report(params)
    if selection == "shared":
        return report.shared_units, "shared"
    if isinstance(selection, tuple) and len(selection) == 2 and selection[0] == "specific":
        k = selection[1]
        if not 0 <= k < params.num_views:
            raise IndexError(f"view index {k} out of range")
        return report.specific_units[k], f"specific(view {k})"
    raise ValueError(f"unknown selection {selection!r}")


def extract_features(params: HarmoniumParams, data: MultiViewDataset,
                     selection="all") -> FeatureMatrix:
    """Posterior hidden means per sample, restricted to a unit category.

    selection is "all", "shared", or ("specific", view_index); categories are
    taken from `model.structure_report`. Rows are checked in float64 and run
    a `model.row_blocks` block at a time, bitwise as one pass wherever the
    BLAS rounds a block's GEMMs as the whole's (see `row_blocks`).
    """
    units, category = _selected_units(params, selection)
    if not units:
        raise EmptySelectionError(category)
    wg = gated_weights(params.W, gates(params))
    idx = np.asarray(units, dtype=np.int64)
    out, start = np.empty((data.num_samples, idx.size)), 0
    for block in row_blocks(params, data.view_arrays):
        hmean = posterior_hidden_mean_batch(params, wg, check_views(params, block))
        out[start:start + len(hmean)] = hmean[:, idx]
        start += len(hmean)
    return FeatureMatrix(values=out, column_indices=idx)


_RANK_CELLS = 1 << 16  # distances that knn_classify ranks at once
# Up to this many distinct labels, knn_classify counts a block's votes as one
# float32 product of its neighbour mask with a one-hot label matrix: the
# product costs about the same from 1 to 16 labels and grows with them beyond,
# where one bincount over the chosen points' labels is cheaper.
_PRODUCT_LABELS = 16


def knn_classify(train: FeatureMatrix, train_labels, test: FeatureMatrix,
                 test_labels, k: int) -> float:
    """k-nearest-neighbor accuracy under Euclidean distance.

    Deterministic tie-breaks: equal distances prefer the lower training
    index; vote ties prefer the smallest label. Features must be finite;
    distances are taken in float64.
    """
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    X, Q = (np.asarray(m.values, dtype=np.float64) for m in (train, test))
    if X.shape[1] != Q.shape[1]:
        raise ValueError("train and test feature dimensions differ")
    if X.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("train and test sets must be nonempty")
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"k={k} must be in [1, {X.shape[0]}]")
    if len(train_labels) != X.shape[0] or len(test_labels) != Q.shape[0]:
        raise ValueError("need one label per feature row")
    for name, values in (("train", X), ("test", Q)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} features hold a non-finite value")

    # Squared distances preserve the Euclidean ordering. Per block of query
    # rows, |q|^2 - 2 q.x + |x|^2 in one buffer, rounded as if written out in
    # that order. Blocks are a row apart in size, as in `model.row_blocks`,
    # so a short last block takes no small-matrix GEMM kernel of its own.
    n = X.shape[0]
    x2 = np.sum(X ** 2, axis=1)
    classes, index = np.unique(train_labels, return_inverse=True)
    blocks = -(-Q.shape[0] // max(1, _RANK_CELLS // n))
    rows_max = -(-Q.shape[0] // blocks)
    dist, ranked = np.empty((rows_max, n)), np.empty((rows_max, n))
    # A vote count is a sum of at most k ones, exact in float32 to k = 2^24.
    if len(classes) <= _PRODUCT_LABELS and k <= 1 << 24:
        onehot = np.zeros((n, len(classes)), np.float32)
        onehot[np.arange(n), index] = 1
        mask = np.empty((rows_max, n), np.float32)
        votes = np.empty((rows_max, len(classes)), np.float32)
    else:
        onehot, mask = None, np.empty((rows_max, n), bool)
        labels = np.broadcast_to(index, (rows_max, n))
    correct = 0
    for i in range(blocks):
        rows = slice(i * Q.shape[0] // blocks, (i + 1) * Q.shape[0] // blocks)
        q = Q[rows]
        d, r, m = dist[:len(q)], ranked[:len(q)], mask[:len(q)]
        np.matmul(q, X.T, out=d)
        d *= -2.0
        d += np.sum(q ** 2, axis=1)[:, None]
        d += x2
        # Each row's k-th distance by value. At least k points of a row lie
        # at or below it; where exactly k do, they are its k nearest.
        np.copyto(r, d)
        r.partition(k - 1, axis=1)
        np.less_equal(d, r[:, k - 1:k], out=m)
        if onehot is not None:
            v = np.matmul(m, onehot, out=votes[:len(q)])
            ties = np.flatnonzero(v.sum(axis=1) != k)
            if ties.size:
                _keep_first_k(m, d, ties, k)
                v[ties] = m[ties] @ onehot
        else:
            # The labels of the chosen points, k per row in row order, and
            # the votes per (query, distinct label) from one bincount over
            # offset label indices.
            cells = labels[:len(q)][m]
            if cells.size != len(q) * k:
                _keep_first_k(m, d, np.flatnonzero(np.count_nonzero(m, axis=1) > k), k)
                cells = labels[:len(q)][m]
            cells = cells.reshape(len(q), k)
            cells += np.arange(len(q))[:, None] * len(classes)
            v = np.bincount(cells.ravel(), minlength=len(q) * len(classes))
            v = v.reshape(len(q), -1)
        # The labels are sorted, so argmax picks the smallest on vote ties.
        predicted = classes[v.argmax(axis=1)]
        correct += int(np.count_nonzero(predicted == test_labels[rows]))
    return correct / len(test_labels)  # a float, not np.float64: sweep_to_csv reprs it


def _keep_first_k(mask: np.ndarray, d: np.ndarray, ties: np.ndarray, k: int) -> None:
    """Set rows `ties` of `mask`, where more than k points tie at the k-th
    distance, to the first k of a stable sort of `d`: equal distances go to
    the lower training index."""
    nearest = np.argsort(d[ties], axis=1, kind="stable")[:, :k]
    mask[ties] = 0
    mask[ties[:, None], nearest] = 1


def knn_sweep(train: FeatureMatrix, train_labels, test: FeatureMatrix,
              test_labels, ks: list[int]) -> list[tuple[int, float]]:
    """Accuracy for each k; duplicate k values are dropped with a warning."""
    seen, unique_ks = set(), []
    for k in ks:
        if k in seen:
            warnings.warn(f"duplicate k={k} ignored in knn_sweep")
            continue
        seen.add(k)
        unique_ks.append(k)
    return [(k, knn_classify(train, train_labels, test, test_labels, k))
            for k in unique_ks]


def format_sweep_table(rows: list[tuple[int, float]]) -> str:
    lines = [f"{'k':>6}  {'accuracy':>8}"]
    for k, acc in rows:
        lines.append(f"{k:>6}  {acc:>8.4f}")
    return "\n".join(lines)


def sweep_to_csv(rows: list[tuple[int, float]]) -> str:
    return "k,accuracy\n" + "".join(f"{k},{repr(acc)}\n" for k, acc in rows)


# ---------------------------------------------------------------------------
# Filter images
# ---------------------------------------------------------------------------

def _rescale_to_gray(filt: np.ndarray) -> np.ndarray:
    lo, hi = filt.min(), filt.max()
    if hi == lo:
        return np.full(filt.shape, 128, dtype=np.uint8)
    scaled = (filt - lo) / (hi - lo) * 255.0
    return np.rint(scaled).astype(np.uint8)


def _tile_grid(tiles: list[np.ndarray], grid_cols: int) -> np.ndarray:
    side = tiles[0].shape[0]
    rows = (len(tiles) + grid_cols - 1) // grid_cols
    height = rows * side + (rows - 1)
    width = grid_cols * side + (grid_cols - 1)
    canvas = np.zeros((height, width), dtype=np.uint8)  # separators/padding black
    for idx, tile in enumerate(tiles):
        r, c = divmod(idx, grid_cols)
        y, x = r * (side + 1), c * (side + 1)
        canvas[y:y + side, x:x + side] = tile
    return canvas


def write_pgm(path: str, image: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255."""
    image = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """The image in a binary PGM file laid out as `write_pgm` writes it;
    any other file is a ValueError that names it."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM file")
        try:
            w, h = map(int, fh.readline().split())
            maxval = int(fh.readline())
        except ValueError:
            raise ValueError(f"{path}: unparsable PGM header") from None
        if maxval != 255:
            raise ValueError(f"{path}: unsupported maxval {maxval}")
        pixels = fh.read(w * h)
        if len(pixels) != w * h:
            raise ValueError(f"{path}: {len(pixels)} bytes of pixels, want {w * h}")
        return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def export_filter_images(params: HarmoniumParams, view: int, out_dir: str,
                         grid_cols: int = 8) -> list[str]:
    """Write one PGM grid per unit category (shared / specific / dead).

    Each tile is a hidden unit's effective incoming weights for the view,
    gate * W column, reshaped to a square image and rescaled per filter to
    [0, 255] (constant filters map to mid-gray). Categories with no units
    produce no file. Returns the written paths.
    """
    if not 0 <= view < params.num_views:
        raise IndexError(f"view index {view} out of range")
    if grid_cols < 1:
        raise ValueError("grid_cols must be positive")
    dim = params.views[view].dim
    side = int(round(dim ** 0.5))
    if side * side != dim:
        raise ValueError(
            f"view {params.views[view].name!r} dimension {dim} is not a "
            "perfect square; cannot render filters as images")

    report = structure_report(params)
    wg = gated_weights(params.W, gates(params))[view]
    categories = {"shared": report.shared_units, "dead": report.dead_units}
    for k in range(params.num_views):
        categories[f"specific_view{k}"] = report.specific_units[k]

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, units in categories.items():
        if not units:
            logger.info("view %d: no %s units, skipping image", view, name)
            continue
        tiles = [_rescale_to_gray(wg[:, j].reshape(side, side)) for j in units]
        path = os.path.join(out_dir, f"filters_view{view}_{name}.pgm")
        write_pgm(path, _tile_grid(tiles, grid_cols))
        written.append(path)
    return written


def line_mass_fraction(filter_vec: np.ndarray, side: int, axis: str,
                       num_lines: int) -> float:
    """Fraction of a filter's L1 mass lying in its `num_lines` heaviest full
    columns (axis='columns') or rows (axis='rows').

    Line-noise detectors concentrate mass in a few full lines, so this is
    high for noise filters and low for spatially spread glyph features.
    """
    img = np.abs(np.asarray(filter_vec, dtype=np.float64)).reshape(side, side)
    total = img.sum()
    if total == 0:
        return 0.0
    sums = img.sum(axis=0) if axis == "columns" else img.sum(axis=1)
    top = np.sort(sums)[::-1][:num_lines]
    return float(top.sum() / total)
