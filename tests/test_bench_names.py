"""The samvh names the benchmark binds must stay bound.

`bench/spans.py` wraps every function in its `TARGETS` list, and
`bench/tests/test_bench.py` looks further names up in samvh's modules. The
benchmark's own tests run separately (`python3 -m pytest -q bench/tests`),
so these checks keep a deletion in samvh from breaking `bench/run.py
--trace 1` unnoticed. Both files are only read here.
"""
import ast
import importlib
import importlib.util
import os

import pytest

import samvh
from samvh import model, training

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
