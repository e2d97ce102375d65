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


def knn_classify(train: FeatureMatrix, train_labels, test: FeatureMatrix,
                 test_labels, k: int) -> float:
    """k-nearest-neighbor accuracy under Euclidean distance.

    Deterministic tie-breaks: equal distances prefer the lower training
    index; vote ties prefer the smallest label.
    """
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    X, Q = train.values, test.values
    if X.shape[1] != Q.shape[1]:
        raise ValueError("train and test feature dimensions differ")
    if X.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("train and test sets must be nonempty")
    if not 1 <= k <= X.shape[0]:
        raise ValueError(f"k={k} must be in [1, {X.shape[0]}]")
    if len(train_labels) != X.shape[0] or len(test_labels) != Q.shape[0]:
        raise ValueError("need one label per feature row")

    # Squared distances preserve the Euclidean ordering. Built in one buffer:
    # |q|^2 - 2 q.x + |x|^2, rounded as if written out in that order. The
    # product is one call: blocks of it could round differently.
    q2, x2 = np.sum(Q ** 2, axis=1), np.sum(X ** 2, axis=1)
    d2 = Q @ X.T
    classes, index = np.unique(train_labels, return_inverse=True)
    correct = 0
    step = max(1, _RANK_CELLS // X.shape[0])
    # The rest goes a block of rows at a time, so that only one block's
    # index and vote arrays exist at once.
    for start in range(0, Q.shape[0], step):
        d = d2[start:start + step]
        d *= -2.0
        d += q2[start:start + step, None]
        d += x2
        # The k nearest in any order: the vote does not depend on their order.
        nearest = np.argpartition(d, k - 1, axis=1)[:, :k]
        # Where more than k points lie at or below the k-th distance, the
        # selection among the ties is arbitrary. Re-rank those rows with a
        # stable sort, so equal distances go to the lower training index.
        kth = np.take_along_axis(d, nearest[:, k - 1:], axis=1)
        ties = np.flatnonzero(np.count_nonzero(d <= kth, axis=1) > k)
        if ties.size:
            nearest[ties] = np.argsort(d[ties], axis=1, kind="stable")[:, :k]
        # Votes per (query, distinct label) from one bincount over offset
        # label indices. The labels are sorted, so argmax picks the smallest
        # on ties.
        cells = index[nearest]
        cells += np.arange(len(d))[:, None] * len(classes)
        votes = np.bincount(cells.ravel(), minlength=len(d) * len(classes))
        predicted = classes[votes.reshape(len(d), -1).argmax(axis=1)]
        correct += int(np.count_nonzero(predicted == test_labels[start:start + step]))
    return correct / len(test_labels)  # a float, not np.float64: sweep_to_csv reprs it


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
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM file")
        dims = fh.readline().split()
        maxval = int(fh.readline())
        if maxval != 255:
            raise ValueError(f"{path}: unsupported maxval {maxval}")
        w, h = int(dims[0]), int(dims[1])
        return np.frombuffer(fh.read(w * h), dtype=np.uint8).reshape(h, w)


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
