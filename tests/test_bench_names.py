"""The samvh names the benchmark binds must stay bound.

`bench/spans.py` wraps every function in its `TARGETS` list, and
`bench/tests/test_bench.py` looks further names up in samvh's modules and
counts the calls `training.train` makes to `training.cd_gradient`. The
benchmark's own tests are in the pytest `testpaths` too; these checks name
the samvh binding that a deletion broke, rather than a failing
`bench/run.py --trace 1` session, and keep the traced energy kernels on the
CD step's path, so that their per-layer figures measure it. Both files are
only read here.
"""
import ast
import importlib
import importlib.util
import os

import numpy as np
import pytest

import samvh
from samvh import model, training
from samvh.data import MultiViewDataset

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(BENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def bench_test_lookups() -> list[tuple[str, str, str]]:
    """(home, attribute, original) expressions of the `originals` table in
    the benchmark's wrapper test, as source text."""
    with open(os.path.join(BENCH, "tests", "test_bench.py")) as fh:
        tree = ast.parse(fh.read())
    tables = [node.value for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and [ast.unparse(t) for t in node.targets] == ["originals"]]
    assert len(tables) == 1
    return [(ast.unparse(key.elts[0]), key.elts[1].value, ast.unparse(value))
            for key, value in zip(tables[0].keys, tables[0].values)]


def resolve(expr: str):
    """An attribute path as the benchmark's test writes it, e.g.
    `samvh.data.MultiViewDataset.samples` or `training.train`."""
    head, *rest = expr.split(".")
    obj = {"samvh": samvh, "model": model, "training": training}[head]
    for part in rest:
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module,attr", [(t[0], t[1]) for t in load_spans().TARGETS])
def test_span_targets_resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_bench_test_lookups_are_bound():
    lookups = bench_test_lookups()
    assert lookups
    for home, name, original in lookups:
        assert getattr(resolve(home), name) is resolve(original), (home, name)


def test_train_calls_cd_gradient_once_per_minibatch(monkeypatch):
    """The benchmark counts training steps as calls of the module-level name
    `samvh.training.cd_gradient`; `train` must look it up there, once per
    minibatch."""
    calls = []
    step = training.cd_gradient

    def counted(*args, **kwargs):
        calls.append(args[1][0].shape[0])
        return step(*args, **kwargs)

    monkeypatch.setattr(training, "cd_gradient", counted)
    rng = np.random.default_rng(5)
    params = model.make_tiny_model(rng)
    data = MultiViewDataset(views=list(params.views),
                            view_arrays=model.make_binary_data(params, rng, 13))
    training.train(params, data, training.TrainConfig(epochs=3, batch_size=5, seed=1))
    assert calls == [5, 5, 3] * 3


def test_cd_step_records_the_traced_kernels():
    """The energy kernels `bench/spans.py` traces are the ones the CD step
    runs, so their per-layer figures cannot read 0 while training runs."""
    spans = load_spans()
    rng = np.random.default_rng(5)
    params = model.make_tiny_model(rng)
    data = MultiViewDataset(views=list(params.views),
                            view_arrays=model.make_binary_data(params, rng, 10))
    tracer = spans.Tracer()
    with spans.traced(tracer):
        training.train(params, data, training.TrainConfig(epochs=1, batch_size=5, seed=1))

    def name(i):
        return tracer.names[tracer.name_id[i]]

    def in_step(i):
        while i >= 0 and name(i) != spans.STEP_SPAN:
            i = tracer.parent[i]
        return i >= 0

    recorded = {name(i) for i in range(len(tracer)) if in_step(tracer.parent[i])}
    for kernel in ("hidden_shifted_batch", "visible_shifted_batch",
                   "posterior_hidden_mean_batch", "gibbs_step_batch"):
        assert f"model.{kernel}" in recorded, kernel
