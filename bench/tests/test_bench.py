"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/tests
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import worker  # noqa: E402

import samvh  # noqa: E402
from samvh import model, training  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def installed_wrappers() -> list[str]:
    """Names in samvh modules or classes still bound to a tracing wrapper."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "samvh" or mod_name.startswith("samvh.")):
            continue
        for name, value in vars(module).items():
            if hasattr(value, "bench_span"):
                found.append(f"{mod_name}.{name}")
            if isinstance(value, type):
                found += [f"{mod_name}.{name}.{attr}"
                          for attr, member in vars(value).items()
                          if hasattr(member, "bench_span")]
    return found


def short_session(tmp_path):
    """train_sa with one epoch per train call."""
    wl = dataclasses.replace(worker.WORKLOADS["train_sa"], api_epochs=1, cli_epochs=1)
    return worker.Session(wl, seed=3, workdir=str(tmp_path))


def test_self_time_subtracts_merged_child_coverage():
    t = spans.Tracer()
    root = t.add("root", 0.0, 10.0)
    a = t.add("a", 1.0, 4.0, parent=root)
    t.add("a.x", 1.5, 2.0, parent=a)
    t.add("a.y", 3.0, 5.0, parent=a)  # runs past its parent: clipped to 4.0
    t.add("b", 3.5, 6.0, parent=root)  # overlaps a: counted once
    t.add("c", 8.0, 9.0, parent=root)
    self_t = spans.self_times(t)
    assert self_t[root] == pytest.approx(10.0 - (6.0 - 1.0) - 1.0)
    assert self_t[a] == pytest.approx(3.0 - 0.5 - 1.0)
    assert list(self_t[2:]) == pytest.approx([0.5, 2.0, 2.5, 1.0])


def test_ref_clock_scales_by_kernel_median_near_the_operation():
    clock = worker.RefClock()
    window = worker.REF_WINDOW_S
    clock.samples = [(0.0, 0.004), (10.0, 0.002), (10.5, 0.006), (11.0, 0.003),
                     (11.0 + window + 0.5, 0.009)]
    op = worker.Op(start=10.2, wall=0.6)  # sees the samples at 10.0, 10.5, 11.0
    assert clock.scaled(op) == pytest.approx(0.6 * worker.REF_NOMINAL_S / 0.003)


def test_wrappers_cover_imported_names_and_are_removed():
    originals = {
        (training, "gibbs_step_batch"): model.gibbs_step_batch,
        (training, "hidden_shifted_batch"): model.hidden_shifted_batch,
        (training, "suff_stat"): samvh.expfam.suff_stat,
        (model, "suff_stat"): samvh.expfam.suff_stat,
        (samvh.evaluation, "suff_stat"): samvh.expfam.suff_stat,
        (samvh, "train"): training.train,
        (samvh.data.MultiViewDataset, "samples"): samvh.data.MultiViewDataset.samples,
    }
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for (home, name), original in originals.items():
            bound = getattr(home, name)
            assert bound is not original and bound.bench_span, (home, name)
        assert installed_wrappers()
    assert installed_wrappers() == []
    for (home, name), original in originals.items():
        assert getattr(home, name) is original


def test_traced_run_matches_untraced_checkpoint(tmp_path):
    session = short_session(tmp_path)
    session.api_call(quality=False)
    untraced = session.record["api_checkpoint_sha256"]
    session.api_index = 0
    tracer = spans.Tracer()
    with spans.traced(tracer):
        session.api_call(quality=False)
    assert session.failed == 0, session.errors
    assert len(tracer) > 0
    assert session.record["api_checkpoint_sha256"] == untraced


def test_trace_reports_every_per_layer_metric(tmp_path):
    session = short_session(tmp_path)
    metrics = session.trace(str(tmp_path / "spans.csv"))
    assert session.failed == 0, session.errors
    assert installed_wrappers() == []
    for m in BENCHMARK["per_layer"]:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    # One train call of 1 epoch (100 steps) plus one CLI train of 1 epoch.
    assert metrics["training.cd_gradient.calls"][0] == 200
    assert metrics["data.load_multiview_csv.calls"][0] == 3
    assert metrics["evaluation.knn_classify.calls"][0] == 5


def test_run_fails_without_program_sources(tmp_path):
    """In a tree holding only the benchmark, run.py exits non-zero and
    prints no result line."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_sa", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
