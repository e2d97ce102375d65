"""In-memory span tracing around samvh's public functions.

`Tracer` records one span per call of a wrapped function: its name, start,
end and parent span, plus one optional size figure (elements, bytes, rows,
flops) taken from the call's arguments or result. Spans live in flat
arrays while the program runs and are written out only at the end.

`traced(tracer)` installs the wrappers for the duration of a `with` block.
It rebinds the function in its defining module *and* every other name any
`samvh` module bound to it with `from ... import`, so calls made through an
imported name are traced too. Leaving the block restores every original.

`layer_metrics` turns the spans into the per-layer figures listed in
bench/README.md.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

TRAIN_SPAN = "training.train"
STEP_SPAN = "training.cd_gradient"
CLI_STAGES = ("gen_data", "train", "grad_check", "extract", "eval_knn", "render_filters")


def _nbytes(*paths) -> float:
    return float(sum(os.path.getsize(p) for p in paths if p is not None))


def _cd_flops(args, kwargs, result) -> float:
    """GEMM/GEMV flops of one cd_gradient call, computed from shapes.

    Per phase and view k: lam_hat needs 2*B*D_k*J, the weighted statistics
    f(v)^T (w*h) and f(v) W another 4*B*D_k*J, f(v)^T w 2*B*D_k. Each Gibbs
    step adds a hidden and a visible GEMM, 4*B*D_k*J. Summed over views and
    both phases: B*D*(J*(12 + 4*cd_steps) + 4).
    """
    params, batch = args[0], args[1]
    cd_steps = args[2] if len(args) > 2 else kwargs["cd_steps"]
    d_total = sum(v.dim for v in params.views)
    return float(len(batch) * d_total * (params.hidden_dim * (12 + 4 * cd_steps) + 4))


# (module, attribute, span name, size function). The size function gets
# (args, kwargs, result) and returns the figure stored with the span.
TARGETS = [
    ("samvh.expfam", "suff_stat", "expfam.suff_stat",
     lambda a, k, r: float(np.size(a[1]))),
    ("samvh.expfam", "sample", "expfam.sample", None),
    ("samvh.expfam", "mean", "expfam.mean", None),
    ("samvh.model", "gates", "model.gates", None),
    ("samvh.model", "hidden_shifted_batch", "model.hidden_shifted_batch", None),
    ("samvh.model", "visible_shifted_batch", "model.visible_shifted_batch", None),
    ("samvh.model", "posterior_hidden_mean_batch",
     "model.posterior_hidden_mean_batch", None),
    ("samvh.model", "gibbs_step_batch", "model.gibbs_step_batch", None),
    ("samvh.model", "exact_log_likelihood", "model.exact_log_likelihood", None),
    ("samvh.model", "exact_log_partition", "model.exact_log_partition",
     lambda a, k, r: float(2 ** sum(v.dim for v in a[0].views))),
    ("samvh.model", "save_checkpoint", "model.save_checkpoint",
     lambda a, k, r: _nbytes(a[1])),
    ("samvh.model", "load_checkpoint", "model.load_checkpoint", None),
    ("samvh.training", "train", TRAIN_SPAN, None),
    ("samvh.training", "cd_gradient", STEP_SPAN, _cd_flops),
    ("samvh.training", "reconstruction_error", "training.reconstruction_error", None),
    ("samvh.training", "exact_gradient", "training.exact_gradient", None),
    ("samvh.training", "finite_diff_gradient", "training.finite_diff_gradient", None),
    ("samvh.data", "generate_synthetic_paired", "data.generate_synthetic_paired", None),
    ("samvh.data", "save_multiview_csv", "data.save_multiview_csv",
     lambda a, k, r: _nbytes(*a[1], a[2] if len(a) > 2 else k.get("label_path"))),
    ("samvh.data", "load_multiview_csv", "data.load_multiview_csv",
     lambda a, k, r: _nbytes(*a[0], a[1] if len(a) > 1 else k.get("label_path"))),
    ("samvh.data", "train_test_split", "data.train_test_split", None),
    ("samvh.data", "MultiViewDataset.samples", "data.MultiViewDataset.samples",
     lambda a, k, r: float(len(r))),
    ("samvh.evaluation", "extract_features", "evaluation.extract_features",
     lambda a, k, r: float(r.values.shape[0])),
    ("samvh.evaluation", "knn_classify", "evaluation.knn_classify",
     lambda a, k, r: float(a[2].values.shape[0])),
    ("samvh.evaluation", "export_filter_images", "evaluation.export_filter_images", None),
] + [("samvh.cli", f"cmd_{stage}", f"cli.cmd_{stage}", None) for stage in CLI_STAGES]


class Tracer:
    """Flat, append-only span store. Parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: str, start: float, end: float, parent: int = -1,
            size: float = 0.0) -> int:
        """Append a finished span; returns its index."""
        idx = self._open(name, parent, start)
        self.end[idx] = end
        self.size[idx] = size
        return idx

    def _open(self, name: str, parent: int, start: float) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(start)
        self.size.append(0.0)
        return len(self.start) - 1

    def wrap(self, name: str, fn, size_fn=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, stack[-1], clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if size_fn is not None:
                self.size[idx] = size_fn(args, kwargs, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end,size\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                         f"{self.start[i]!r},{self.end[i]!r},{self.size[i]!r}\n")


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every TARGETS function and every samvh name bound to it."""
    import samvh.cli  # noqa: F401  (make sure every samvh module is loaded)

    modules = [m for name, m in list(sys.modules.items())
               if name == "samvh" or name.startswith("samvh.")]
    saved = []  # (namespace object, attribute, original)
    try:
        for module_name, attr, span_name, size_fn in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            original = owner.__dict__[leaf]
            wrapper = tracer.wrap(span_name, original, size_fn)
            for home in [owner, *(m for m in modules if m is not owner)]:
                for name, value in list(vars(home).items()):
                    if value is original:
                        saved.append((home, name, original))
                        setattr(home, name, wrapper)
        yield tracer
    finally:
        for home, name, original in reversed(saved):
            setattr(home, name, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(tracer: Tracer) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are counted once.
    """
    n = len(tracer)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = np.empty(n)
    for i in range(n):
        s, e = tracer.start[i], tracer.end[i]
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=tracer.start.__getitem__):
            lo, hi = max(tracer.start[c], reach), min(tracer.end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[i] = (e - s) - covered
    return out


def _inside(tracer: Tracer, name: str) -> np.ndarray:
    """Mask of spans that are, or descend from, a span called `name`."""
    target = tracer._ids.get(name, -2)
    mask = np.zeros(len(tracer), dtype=bool)
    for i in range(len(tracer)):
        p = tracer.parent[i]
        mask[i] = tracer.name_id[i] == target or (p >= 0 and mask[p])
    return mask


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures: name -> (value, unit). See bench/README.md."""
    ids = np.asarray(tracer.name_id, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    size = np.asarray(tracer.size)
    selft = self_times(tracer)
    in_train = _inside(tracer, TRAIN_SPAN)

    def sel(name, train_only=False):
        m = ids == tracer._ids.get(name, -1)
        return m & in_train if train_only else m

    steps = int(sel(STEP_SPAN, True).sum())
    epochs_total = int(sel("training.reconstruction_error", True).sum())
    out: dict[str, tuple[float, str]] = {}

    def ms_pct(mask, q):
        return float(np.percentile(dur[mask], q) * 1e3) if mask.any() else 0.0

    def per_call_ms(mask):
        return float(dur[mask].sum() * 1e3 / mask.sum()) if mask.any() else 0.0

    def per_step(count):
        return count / steps if steps else 0.0

    def rate(amount, mask):
        t = dur[mask].sum()
        return float(amount / t) if t > 0 else 0.0

    # expfam
    m = sel("expfam.suff_stat", True)
    out["expfam.suff_stat.calls_per_step"] = (per_step(m.sum()), "count")
    out["expfam.suff_stat.elements_per_step"] = (per_step(size[m].sum()), "count")
    out["expfam.sample.ms_p50"] = (ms_pct(sel("expfam.sample", True), 50), "ms")
    out["expfam.mean.calls_per_step"] = (per_step(sel("expfam.mean", True).sum()), "count")

    # model: hot path inside training.train
    out["model.hidden_shifted_batch.calls_per_step"] = (
        per_step(sel("model.hidden_shifted_batch", True).sum()), "count")
    out["model.hidden_shifted_batch.ms_p50"] = (
        ms_pct(sel("model.hidden_shifted_batch", True), 50), "ms")
    m = sel("model.gibbs_step_batch", True)
    out["model.gibbs_step_batch.ms_p50"] = (ms_pct(m, 50), "ms")
    out["model.gibbs_step_batch.ms_p99"] = (ms_pct(m, 99), "ms")
    for fn in ("visible_shifted_batch", "posterior_hidden_mean_batch", "gates"):
        out[f"model.{fn}.calls_per_step"] = (
            per_step(sel(f"model.{fn}", True).sum()), "count")

    # model: enumeration and checkpoints
    m = sel("model.exact_log_likelihood")
    out["model.exact_log_likelihood.calls"] = (float(m.sum()), "count")
    out["model.exact_log_likelihood.ms_per_call"] = (per_call_ms(m), "ms")
    m = sel("model.exact_log_partition")
    out["model.exact_log_partition.calls"] = (float(m.sum()), "count")
    out["model.exact_log_partition.states_enumerated"] = (float(size[m].sum()), "count")
    m = sel("model.save_checkpoint")
    out["model.save_checkpoint.ms"] = (ms_pct(m, 50), "ms")
    out["model.save_checkpoint.bytes"] = (
        float(np.median(size[m])) if m.any() else 0.0, "bytes")
    out["model.load_checkpoint.ms"] = (ms_pct(sel("model.load_checkpoint"), 50), "ms")

    # training
    m = sel(STEP_SPAN, True)
    out["training.cd_gradient.calls"] = (float(m.sum()), "count")
    out["training.cd_gradient.ms_p50"] = (ms_pct(m, 50), "ms")
    out["training.cd_gradient.ms_p99"] = (ms_pct(m, 99), "ms")
    out["training.cd_gradient.self_ms_p50"] = (
        float(np.median(selft[m]) * 1e3) if m.any() else 0.0, "ms")
    gflop = float(size[m].sum() / 1e9)
    out["training.cd_gradient.gflop_computed"] = (gflop, "gflop")
    out["training.cd_gradient.gflop_per_s"] = (rate(gflop, m), "gflop/s")
    m = sel(TRAIN_SPAN)
    out["training.train.self_ms_per_step"] = (
        float(selft[m].sum() * 1e3 / steps) if steps else 0.0, "ms")
    m = sel("training.reconstruction_error", True)
    out["training.reconstruction_error.ms_per_epoch"] = (
        float(dur[m].sum() * 1e3 / epochs_total) if epochs_total else 0.0, "ms")
    train_time = dur[sel(TRAIN_SPAN)].sum()
    out["training.reconstruction_error.share_of_train"] = (
        float(dur[m].sum() / train_time) if train_time > 0 else 0.0, "ratio")
    out["training.exact_gradient.ms_per_call"] = (
        per_call_ms(sel("training.exact_gradient")), "ms")
    out["training.finite_diff_gradient.ms_per_call"] = (
        per_call_ms(sel("training.finite_diff_gradient")), "ms")

    # data
    out["data.generate_synthetic_paired.ms"] = (
        ms_pct(sel("data.generate_synthetic_paired"), 50), "ms")
    m = sel("data.save_multiview_csv")
    out["data.save_multiview_csv.ms"] = (ms_pct(m, 50), "ms")
    out["data.save_multiview_csv.mb_per_s"] = (rate(size[m].sum() / 1e6, m), "MB/s")
    m = sel("data.load_multiview_csv")
    out["data.load_multiview_csv.calls"] = (float(m.sum()), "count")
    out["data.load_multiview_csv.ms_per_call"] = (per_call_ms(m), "ms")
    out["data.load_multiview_csv.mb_per_s"] = (rate(size[m].sum() / 1e6, m), "MB/s")
    out["data.train_test_split.ms"] = (ms_pct(sel("data.train_test_split"), 50), "ms")
    m = sel("data.MultiViewDataset.samples")
    out["data.MultiViewDataset.samples.calls"] = (float(m.sum()), "count")
    out["data.MultiViewDataset.samples.objects_built"] = (float(size[m].sum()), "count")

    # evaluation
    m = sel("evaluation.extract_features")
    out["evaluation.extract_features.ms"] = (ms_pct(m, 50), "ms")
    out["evaluation.extract_features.rows_per_s"] = (rate(size[m].sum(), m), "rows/s")
    m = sel("evaluation.knn_classify")
    out["evaluation.knn_classify.calls"] = (float(m.sum()), "count")
    out["evaluation.knn_classify.ms_per_call"] = (per_call_ms(m), "ms")
    out["evaluation.knn_classify.queries_per_s"] = (rate(size[m].sum(), m), "queries/s")
    out["evaluation.export_filter_images.ms"] = (
        ms_pct(sel("evaluation.export_filter_images"), 50), "ms")

    # cli: wall time of each stage, and its time outside the layer spans
    for stage in CLI_STAGES:
        m = sel(f"cli.cmd_{stage}")
        out[f"cli.cmd_{stage}.ms"] = (ms_pct(m, 50), "ms")
        out[f"cli.cmd_{stage}.self_ms"] = (
            float(np.median(selft[m]) * 1e3) if m.any() else 0.0, "ms")
    return out
