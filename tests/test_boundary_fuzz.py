"""Boundary fuzz of the CLI's file inputs.

Every field of a small format-2 checkpoint and of a dataset manifest is
mutated one at a time: set to a value of another JSON type, set out of
range, removed, or joined by an extra key. Each view CSV is emptied or
truncated. Each case runs through `cli.main` in process: `extract` for a
checkpoint, `train` for a manifest, and both for a view CSV. A rejected
input must exit 2 (bad input) or 3 (I/O), name the file on stderr (and a
removed key, or a wrong-typed value of a TYPED field, by its full key
path), and raise nothing. An accepted one must exit 0, and an extra key
must leave the output bytes as they were.
"""
import copy
import json
import os
import shutil

import numpy as np
import pytest

from samvh import cli

CONFIG = {
    "synth": {"num_classes": 4, "samples_per_class": 10, "image_side": 10},
    "model": {"hidden_dim": 3, "structure": "mvh", "mvh_mask": [[1, 0, 1], [1, 1, 0]]},
    "train": {"epochs": 1, "batch_size": 20},
}

# One value of each JSON type; a field gets every one whose type is not its own.
JSON_VALUES = [None, True, 7, 2.5, "x", [1], {"a": 1}]

# Values of the right type but out of range, by key path ("*" for any index).
OUT_OF_RANGE = {
    "checkpoint": {
        "format_version": [0, 3],
        "structure.kind": ["", "gated"],
        "structure.mask": [[], [[1, 0, 1]]],
        "structure.mask.*": [[1, 0]],
        "structure.mask.*.*": [2, -1],
        "views": [[]],
        "views.*.dim": [0, -1, 10 ** 6],
        "views.*.family": ["", "poisson"],
        "hidden.dim": [0, -1, 10 ** 6],
        "hidden.family": ["poisson"],
        "theta": ["", "@@@@"],
    },
    "manifest": {
        "views": [[]],
        "views.*.dim": [0, -1, 10 ** 6],
        "views.*.family": ["", "poisson"],
        "num_samples": [0, -1, 10 ** 6],
        "view_files": [[]],
        "view_files.*": ["nope.csv"],
        "label_file": ["nope.csv"],
    },
}

REMOVED = object()  # the mutation that deletes the key or list item

# Fields whose wrong-typed values stderr must name by their key path.
TYPED = {
    "checkpoint": {"views", "views.*.dim", "hidden.dim"},
    "manifest": {"views", "views.*.dim", "view_files", "view_files.*", "label_file"},
}


def accepted(doc_name, pattern, value):
    """Whether a mutation leaves a valid document: mask items may be true or
    false, a manifest's seed and labels_present are only informational, and
    a dataset without a label file is unlabeled."""
    if doc_name == "checkpoint":
        return pattern == "structure.mask.*.*" and value is True
    return pattern in ("seed", "labels_present") or (
        pattern == "label_file" and (value is None or value is REMOVED))


def json_type(value):
    return type(value) if value is None or isinstance(value, (bool, str, list, dict)) \
        else (int, float)


def key_paths(doc, path=()):
    """Every key path into a JSON document, parents before children."""
    if path:
        yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from key_paths(value, path + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutations(doc_name, doc):
    """(description, pattern, path, value, mutated document) for every
    mutation of every field of doc."""
    for path in key_paths(doc):
        pattern = ".".join("*" if isinstance(k, int) else k for k in path)
        values = [v for v in JSON_VALUES if json_type(v) != json_type(node_at(doc, path))]
        for value in [*values, *OUT_OF_RANGE[doc_name].get(pattern, []), REMOVED]:
            mutated = copy.deepcopy(doc)
            parent = node_at(mutated, path[:-1])
            if value is REMOVED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            what = "removed" if value is REMOVED else f"= {value!r}"
            yield f"{pattern} {what}", pattern, path, value, mutated


def with_extra_keys(doc):
    """(path, doc with an extra key in the object at path) for every object
    in doc, the root included."""
    for path in [(), *key_paths(doc)]:
        if isinstance(node_at(doc, path), dict):
            mutated = copy.deepcopy(doc)
            node_at(mutated, path)["extra"] = 1
            yield path, mutated


def run(argv, capsys):
    """cli.main's exit code and stderr; an exception is reported as code None."""
    try:
        code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        code, exc_text = None, f"{type(exc).__name__}: {exc}"
    else:
        exc_text = ""
    return code, capsys.readouterr().err + exc_text


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A config, a 40-sample dataset and an MVH checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = str(root / "config.json")
    with open(cfg, "w") as fh:
        json.dump(CONFIG, fh)
    data_dir, run_dir = str(root / "data"), str(root / "run")
    assert cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir]) == 0
    assert cli.main(["--config", cfg, "--seed", "1", "train", "--data", data_dir,
                     "--out", run_dir]) == 0
    return root, cfg, data_dir, os.path.join(run_dir, "checkpoint.json")


def named_key(doc_name, doc, pattern, path, value):
    """The key path that stderr must name, as in "['views'][0]['dim']", if
    the mutation removed a key (not a list item) or gave a TYPED field a
    value of another JSON type."""
    wrong_type = (value is not REMOVED and pattern in TYPED[doc_name]
                  and json_type(value) != json_type(node_at(doc, path)))
    if wrong_type or (value is REMOVED and isinstance(path[-1], str)):
        return "".join(f"[{key!r}]" for key in path)
    return None


def check_case(findings, case, code, err, named, key=None):
    """Append to findings what is wrong with a rejected case's outcome."""
    if code not in (cli.EXIT_CONFIG, cli.EXIT_IO):
        findings.append(f"{case}: exit {code}: {err.strip()!r}")
    elif "Traceback" in err or not any(name in err for name in named):
        findings.append(f"{case}: stderr names none of {named}: {err.strip()!r}")
    elif key is not None and key not in err:
        findings.append(f"{case}: stderr does not name {key}: {err.strip()!r}")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_json_doc(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def sweep_fields(doc_name, doc, target, argv, output, named, capsys):
    """Findings of running argv with target holding each mutation of doc;
    output is the file whose bytes an extra key must leave unchanged."""
    write_json_doc(doc, target)
    assert run(argv, capsys)[0] == cli.EXIT_OK
    want = read_bytes(output)
    findings, cases = [], 0
    for case, pattern, path, value, mutated in mutations(doc_name, doc):
        cases += 1
        write_json_doc(mutated, target)
        code, err = run(argv, capsys)
        if not accepted(doc_name, pattern, value):
            check_case(findings, case, code, err, named,
                       named_key(doc_name, doc, pattern, path, value))
        elif code != cli.EXIT_OK:
            findings.append(f"{case}: exit {code}: {err.strip()!r}")
    for path, mutated in with_extra_keys(doc):
        write_json_doc(mutated, target)
        code, err = run(argv, capsys)
        if code != cli.EXIT_OK or read_bytes(output) != want:
            findings.append(f"extra key under {path}: exit {code}: {err.strip()!r}")
    assert cases > 100
    return findings


def test_checkpoint_fields(fixture_dir, capsys):
    root, cfg, data_dir, ckpt = fixture_dir
    broken, out = str(root / "broken.json"), str(root / "feat")
    with open(ckpt) as fh:
        doc = json.load(fh)
    findings = sweep_fields(
        "checkpoint", doc, broken,
        ["--config", cfg, "extract", "--checkpoint", broken, "--data", data_dir,
         "--out", out],
        os.path.join(out, "features.csv"), [broken], capsys)
    assert not findings, "\n".join(findings)


def test_manifest_fields(fixture_dir, capsys):
    root, cfg, data_dir, ckpt = fixture_dir
    work, out = str(root / "manifest_case"), str(root / "trained")
    shutil.copytree(data_dir, work)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest) as fh:
        doc = json.load(fh)
    findings = sweep_fields(
        "manifest", doc, manifest,
        ["--config", cfg, "--seed", "1", "train", "--data", work, "--out", out],
        os.path.join(out, "checkpoint.json"),
        [manifest, os.path.join(work, "nope.csv")], capsys)
    assert not findings, "\n".join(findings)


def test_view_csv_bytes(fixture_dir, capsys):
    root, cfg, data_dir, ckpt = fixture_dir
    work = str(root / "csv_case")
    shutil.copytree(data_dir, work)
    rng = np.random.default_rng(0)
    findings = []
    for name in ("arabic.csv", "roman.csv"):
        path = os.path.join(work, name)
        text = read_bytes(path)
        width = text.index(b"\n") + 1
        edits = {"emptied": b"", "blank lines only": b"\n \n\n",
                 "last row dropped": text[:-width],
                 "last newline dropped": text[:-1]}
        for cut in rng.integers(1, len(text) - 1, size=4):
            edits[f"cut at byte {cut}"] = text[:cut]
        for edit, cut_text in edits.items():
            with open(path, "wb") as fh:
                fh.write(cut_text)
            for command, extra in (("train", []), ("extract", ["--checkpoint", ckpt])):
                code, err = run(["--config", cfg, "--seed", "1", command, *extra,
                                 "--data", work, "--out", str(root / "o")], capsys)
                if edit == "last newline dropped":  # the same rows, still valid
                    if code != cli.EXIT_OK:
                        findings.append(f"{name} {edit}, {command}: exit {code}: {err!r}")
                    continue
                check_case(findings, f"{name} {edit}, {command}", code, err, [path])
        with open(path, "wb") as fh:
            fh.write(text)
    assert not findings, "\n".join(findings)
