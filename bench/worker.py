"""One measuring process of the samvh benchmark.

bench/run.py starts this file in a fresh interpreter for every measurement,
so import time, input generation and peak memory belong to one workload:

    python3 bench/worker.py --workload train_sa --seed 1 --seconds 14 \
        --trace 0 --t0 <time.monotonic() at spawn> --out result.json

The process writes one JSON document to --out and nothing to stdout. It
drives samvh only through its public API (`samvh.data`, `samvh.model`,
`samvh.training`, `samvh.evaluation`) and through `samvh.cli.main`.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from samvh import cli, data, evaluation, model, training  # noqa: E402
from samvh.expfam import Family  # noqa: E402

import spans  # noqa: E402

NUM_CLASSES = 10
SAMPLES_PER_CLASS = 200
N_SAMPLES = NUM_CLASSES * SAMPLES_PER_CLASS
KNN_K = 10
CHANCE = 1.0 / NUM_CLASSES

# Timings are reported in reference seconds. On a shared host the CPU speed
# drifts by up to 1.6x in phases of seconds, so a run samples the fixed
# reference kernel below before and after every timed operation, and scales
# each operation's wall time by REF_NOMINAL_S / (median kernel time sampled
# within REF_WINDOW_S of it). The kernel slows with the host, so the scaled
# time follows the program and not the host. The kernel has a
# single-threaded part (Python bytecode and numpy elementwise work) and a
# part that runs the same elementwise work on REF_THREADS threads at once,
# because the program's BLAS calls use both CPUs of a 2-CPU host. It calls
# no samvh code and no BLAS routine, so neither a change to the program nor
# its BLAS thread count moves it. Raw wall times are kept in the record.
REF_NOMINAL_S = 0.003
REF_WINDOW_S = 3.0
REF_THREADS = min(2, len(os.sched_getaffinity(0)))
_REF_X = [np.linspace(-1.0, 1.0, 8192) for _ in range(REF_THREADS)]


def _ref_elementwise(y) -> float:
    for _ in range(16):
        y = np.tanh(y * 1.01) + 0.5 * np.exp(-y * y)
    return float(y[0])


def _ref_serial() -> float:
    total = 0
    for i in range(6000):
        total += (i * i) % 7
    return total + _ref_elementwise(_REF_X[0])


def _ref_parallel() -> None:
    threads = [threading.Thread(target=_ref_elementwise, args=(x,)) for x in _REF_X]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def ref_seconds(reps: int = 3) -> float:
    """Reference kernel time: the fastest of `reps` runs of each part, summed."""
    best = [float("inf"), float("inf")]
    for _ in range(reps):
        for i, part in enumerate((_ref_serial, _ref_parallel)):
            start = time.perf_counter()
            part()
            best[i] = min(best[i], time.perf_counter() - start)
    return sum(best)


@dataclass(frozen=True)
class Op:
    """One timed operation: its `time.perf_counter()` start and wall seconds."""
    start: float
    wall: float


class RefClock:
    """Times operations and scales them to reference seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, kernel seconds)

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), ref_seconds()))

    def time(self, fn):
        """Run fn() between two kernel samples; return (result, Op)."""
        self.sample()
        start = time.perf_counter()
        result = fn()
        op = Op(start, time.perf_counter() - start)
        self.sample()
        return result, op

    def scaled(self, op: Op) -> float:
        lo, hi = op.start - REF_WINDOW_S, op.start + op.wall + REF_WINDOW_S
        near = [k for t, k in self.samples if lo <= t <= hi]
        return op.wall * REF_NOMINAL_S / statistics.median(near)


@dataclass(frozen=True)
class Workload:
    """Problem shape plus the mix of operations in one run.

    A run first trains `quality_models` models of `quality_epochs` epochs
    each with `training.train`; the quality figures come from these (and,
    with `knn_from_cli`, from the first `quality_models` CLI pipelines), so
    they do not depend on machine speed. Then it makes rounds while another
    round still fits in --seconds, at least one and at least as many as the
    quality figures need. A round is `api_per_round` timed `training.train`
    calls of `api_epochs` epochs followed by one full CLI pipeline.
    """
    image_side: int
    hidden_dim: int
    batch_size: int
    cd_steps: int
    api_epochs: int
    api_per_round: int
    quality_epochs: int
    quality_models: int
    cli_epochs: int
    knn_from_cli: bool


WORKLOADS = {
    "train_sa": Workload(image_side=12, hidden_dim=60, batch_size=20, cd_steps=1,
                         api_epochs=2, api_per_round=6, quality_epochs=15,
                         quality_models=4, cli_epochs=2, knn_from_cli=False),
    "train_wide": Workload(image_side=24, hidden_dim=256, batch_size=100, cd_steps=3,
                           api_epochs=1, api_per_round=4, quality_epochs=1,
                           quality_models=3, cli_epochs=1, knn_from_cli=False),
    "pipeline_cli": Workload(image_side=12, hidden_dim=60, batch_size=20, cd_steps=1,
                             api_epochs=2, api_per_round=4, quality_epochs=15,
                             quality_models=3, cli_epochs=8, knn_from_cli=True),
}


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def model_rngs(seed: int, index: int):
    init_ss, cd_ss = np.random.SeedSequence([seed, index]).spawn(2)
    return np.random.default_rng(init_ss), np.random.default_rng(cd_ss)


def cli_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def blas_info() -> list[dict]:
    """Thread count and build string of every OpenBLAS numpy/scipy loaded."""
    found = []
    dirs = {os.path.dirname(os.path.dirname(m.__file__)) for m in (np, scipy)}
    for lib_dir in sorted(dirs):
        for path in sorted(glob.glob(os.path.join(lib_dir, "*.libs", "*openblas*"))):
            try:  # RTLD_NOLOAD: query a library only if it is already loaded
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            entry = {"lib": os.path.basename(path)}
            for suffix in ("64_", ""):
                for prefix in ("scipy_openblas", "openblas"):
                    getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if getter is not None and "threads" not in entry:
                        getter.restype = ctypes.c_int
                        entry["threads"] = getter()
                    if config is not None and "config" not in entry:
                        config.restype = ctypes.c_char_p
                        entry["config"] = config().decode()
            found.append(entry)
    return found


class Session:
    """Inputs, results and the operation tally of one workload run."""

    def __init__(self, wl: Workload, seed: int, workdir: str):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.clock = RefClock()
        self.api_ops: list[Op] = []
        self.api_recon: list[float] = []
        self.api_knn: list[float] = []
        self.pipeline_ops: list[dict[str, Op]] = []
        self.cli_knn: list[float] = []
        self.record: dict = {}
        self.api_index = 0
        self.cli_index = 0

        # Inputs: the dataset every API call trains on and the CLI config.
        self.dataset = data.generate_synthetic_paired(data.SynthConfig(
            seed=seed, num_classes=NUM_CLASSES, image_side=self.wl.image_side,
            samples_per_class=SAMPLES_PER_CLASS))
        self._split = None
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump({
                "synth": {"num_classes": NUM_CLASSES, "image_side": self.wl.image_side,
                          "samples_per_class": SAMPLES_PER_CLASS},
                "model": {"hidden_dim": self.wl.hidden_dim, "structure": "sa"},
                "train": {"epochs": self.wl.cli_epochs, "batch_size": self.wl.batch_size,
                          "cd_steps": self.wl.cd_steps},
            }, fh)

    def _operation(self, label: str, fn) -> None:
        """Run one operation; a failure is counted and reported, not fatal."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    # -- API training ------------------------------------------------------

    def api_call(self, quality: bool) -> None:
        """One `training.train` call: a quality model, or a timed call."""
        index = self.api_index
        self.api_index += 1
        epochs = self.wl.quality_epochs if quality else self.wl.api_epochs
        self._operation(f"train[{index}]",
                        lambda: self._api_call(index, epochs, quality))

    def _api_call(self, index: int, epochs: int, quality: bool) -> None:
        init_rng, cd_rng = model_rngs(self.seed, index)
        params0 = model.init_params(
            self.dataset.views, self.wl.hidden_dim, Family.BERNOULLI,
            model.StructureMode(model.StructureKind.SA), init_rng)
        config = training.TrainConfig(epochs=epochs,
                                      batch_size=self.wl.batch_size,
                                      cd_steps=self.wl.cd_steps)
        (params, log), op = self.clock.time(
            lambda: training.train(params0, self.dataset, config, rng=cd_rng))
        if not quality:
            self.api_ops.append(op)

        check_finite(params)
        if len(log.records) != epochs:
            raise CheckFailed(f"{len(log.records)} epoch records, want {epochs}")
        recon = float(np.mean(log.records[-1].recon_err))
        if not np.isfinite(recon):
            raise CheckFailed("non-finite reconstruction error")
        if index == 0:
            path = os.path.join(self.workdir, "api-checkpoint.json")
            model.save_checkpoint(params, path)
            self.record["api_checkpoint_sha256"] = sha256_file(path)
            self.record["api_structure"] = model.structure_report(params).summary_line()
        if quality:
            self.api_recon.append(recon)
        if quality and not self.wl.knn_from_cli:
            acc = self._knn(params)
            self.api_knn.append(acc)
            check_above_chance(acc)

    def _knn(self, params) -> float:
        if self._split is None:
            self._split = data.train_test_split(self.dataset, 0.5, self.seed)
        train_set, test_set = self._split
        return evaluation.knn_classify(
            evaluation.extract_features(params, train_set), train_set.labels,
            evaluation.extract_features(params, test_set), test_set.labels, KNN_K)

    # -- CLI pipeline ------------------------------------------------------

    def cli_iteration(self) -> None:
        index = self.cli_index
        quality = index < self.wl.quality_models
        self.cli_index += 1
        seed = str(cli_seed(self.seed, index))
        base = tempfile.mkdtemp(prefix=f"cli{index}-", dir=self.workdir)
        d = {k: os.path.join(base, k) for k in ("data", "run", "feat", "knn", "filters")}
        ckpt = os.path.join(d["run"], "checkpoint.json")
        stages = [
            ("gen_data", ["--seed", seed, "gen-data", "--out", d["data"]]),
            ("train", ["--seed", seed, "train", "--data", d["data"], "--out", d["run"]]),
            ("grad_check", ["grad-check"]),
            ("extract", ["extract", "--checkpoint", ckpt, "--data", d["data"],
                         "--out", d["feat"]]),
            ("eval_knn", ["eval-knn", "--checkpoint", ckpt, "--data", d["data"],
                          "--out", d["knn"]]),
            ("render_filters", ["render-filters", "--checkpoint", ckpt,
                                "--out", d["filters"]]),
        ]
        # A failed stage does not stop the pipeline: later stages run (and
        # fail on their own if they need its output), so every stage that
        # returned is timed.
        times: dict[str, Op] = {}
        for stage, argv in stages:
            self._operation(f"cli[{index}].{stage}",
                            lambda: self._run_stage(stage, argv, index, d, times, quality))
        self.pipeline_ops.append(times)
        shutil.rmtree(base, ignore_errors=True)

    def _run_stage(self, stage: str, argv: list[str], index: int, d: dict,
                   times: dict, quality: bool) -> None:
        out = io.StringIO()

        def run() -> int:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    return cli.main(["--config", self.config_path, *argv])
                except SystemExit as exc:
                    return exc.code

        rc, times[stage] = self.clock.time(run)
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {out.getvalue().strip()[-500:]}")
        self._check_stage(stage, index, d, out.getvalue(), quality)

    def _check_stage(self, stage: str, index: int, d: dict, stdout: str,
                     quality: bool) -> None:
        if stage == "gen_data":
            with open(os.path.join(d["data"], "manifest.json")) as fh:
                manifest = json.load(fh)
            if manifest["num_samples"] != N_SAMPLES:
                raise CheckFailed(f"manifest lists {manifest['num_samples']} samples")
            with open(os.path.join(d["data"], "labels.csv")) as fh:
                if sum(1 for _ in fh) != N_SAMPLES:
                    raise CheckFailed("labels.csv row count")
        elif stage == "train":
            ckpt = os.path.join(d["run"], "checkpoint.json")
            check_finite(model.load_checkpoint(ckpt))
            summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
            if not summary.startswith("shared="):
                raise CheckFailed(f"no structure summary line in {stdout!r}")
            if index == 0:
                self.record["cli_checkpoint_sha256"] = sha256_file(ckpt)
                self.record["cli_structure"] = summary
        elif stage == "grad_check":
            checked = [ln for ln in stdout.splitlines() if "max relative error" in ln]
            if len(checked) != 4:
                raise CheckFailed(f"grad-check reported {len(checked)} of 4 groups")
        elif stage == "extract":
            with open(os.path.join(d["feat"], "features.csv")) as fh:
                rows = fh.read().splitlines()
            if len(rows) != N_SAMPLES or len(rows[0].split(",")) != self.wl.hidden_dim:
                raise CheckFailed("features.csv shape")
        elif stage == "eval_knn":
            with open(os.path.join(d["knn"], "knn_accuracy.csv")) as fh:
                table = dict(line.split(",") for line in fh.read().splitlines()[1:])
            acc = float(table[str(KNN_K)])
            if not 0.0 <= acc <= 1.0:
                raise CheckFailed(f"accuracy {acc} outside [0, 1]")
            if self.wl.knn_from_cli:
                if quality:
                    self.cli_knn.append(acc)
                check_above_chance(acc)
        elif stage == "render_filters":
            if not glob.glob(os.path.join(d["filters"], "*.pgm")):
                raise CheckFailed("no filter image written")

    # -- runs --------------------------------------------------------------

    def round(self) -> None:
        for _ in range(self.wl.api_per_round):
            self.api_call(quality=False)
        self.cli_iteration()

    def measure(self, seconds: float) -> dict:
        """The quality models, then timed rounds; see Workload."""
        start = time.perf_counter()
        for _ in range(self.wl.quality_models):
            self.api_call(quality=True)
        rounds_start = time.perf_counter()
        rounds = 0
        quality_pipelines = self.wl.quality_models if self.wl.knn_from_cli else 0
        while (rounds < 1 or self.cli_index < quality_pipelines
               or (time.perf_counter() - start
                   + (time.perf_counter() - rounds_start) / rounds) <= seconds):
            self.round()
            rounds += 1
        scaled = self.clock.scaled
        api_seconds = [scaled(op) for op in self.api_ops]
        stage_seconds = {stage: [scaled(ops[stage]) for ops in self.pipeline_ops
                                 if stage in ops] for stage in spans.CLI_STAGES}
        pipeline_seconds = [sum(scaled(op) for op in ops.values())
                            for ops in self.pipeline_ops
                            if len(ops) == len(spans.CLI_STAGES)]
        self.record.update(
            rounds=rounds, api_seconds=api_seconds,
            api_wall_s=[op.wall for op in self.api_ops],
            pipeline_seconds=pipeline_seconds, stage_seconds=stage_seconds,
            stage_wall_s={stage: [ops[stage].wall for ops in self.pipeline_ops
                                  if stage in ops] for stage in spans.CLI_STAGES},
            ref_samples=self.clock.samples)
        knn = self.cli_knn if self.wl.knn_from_cli else self.api_knn
        if not (api_seconds and self.api_recon and knn and pipeline_seconds):
            raise SystemExit("error: too few operations completed to report figures:\n"
                             + "\n".join(self.errors))
        samples_per_s = [self.wl.api_epochs * N_SAMPLES / t for t in api_seconds]
        metrics = {
            "train_samples_per_s": (statistics.median(samples_per_s), "1/s"),
            "final_recon_err": (statistics.fmean(self.api_recon), "mse"),
            f"knn_acc_k{KNN_K}": (statistics.fmean(knn), "ratio"),
            "pipeline_s": (statistics.median(pipeline_seconds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        return metrics

    def trace(self, spans_path: str) -> dict:
        """Rounds of identical work (the first API model and the first CLI
        pipeline): an untraced warm-up, a traced round, an untraced round.
        The spans come from the traced round; the overhead is its wall time
        minus the second untraced round's."""
        def one_round() -> float:
            self.api_index = self.cli_index = 0
            start = time.perf_counter()
            self.api_call(quality=False)
            self.cli_iteration()
            return time.perf_counter() - start

        one_round()
        digests = dict(self.record)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced_s = one_round()
        traced_digests = dict(self.record)
        untraced_s = one_round()
        for key, value in digests.items():
            if traced_digests.get(key) != value:
                self.attempted += 1
                self.failed += 1
                self.errors.append(
                    f"tracing changed {key}: {value} -> {traced_digests.get(key)}")
        tracer.write_csv(spans_path)
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        self.record.update(spans=len(tracer), spans_csv=os.path.relpath(spans_path, ROOT),
                           untraced_round_s=untraced_s, traced_round_s=traced_s)
        return metrics


def check_above_chance(acc: float) -> None:
    if acc <= CHANCE:
        raise CheckFailed(f"knn_acc_k{KNN_K} {acc} not above chance {CHANCE}")


def check_finite(params) -> None:
    for arr in (*params.W, *params.xi, params.lam, params.s):
        if not np.all(np.isfinite(arr)):
            raise CheckFailed("trained parameters are not finite")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=os.devnull,
                        help="where a traced run writes its spans (CSV)")
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(args.out))
    try:
        session = Session(WORKLOADS[args.workload], args.seed, workdir)
        result = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            if args.trace:
                metrics = session.trace(args.spans)
            else:
                metrics = session.measure(args.seconds)
            session.record.update(
                workload=args.workload, seed=args.seed,
                python=sys.version.split()[0], numpy=np.__version__,
                scipy=scipy.__version__, blas=blas_info(),
                nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)))
            result.update(attempted=session.attempted, failed=session.failed,
                          errors=session.errors, record=session.record,
                          metrics={k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
