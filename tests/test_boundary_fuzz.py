"""Boundary fuzz of the CLI's file inputs.

Every field of a small format-2 checkpoint, of a format-1 checkpoint, of a
dataset manifest and of a config is mutated one at a time: set to a value
of another JSON type, set out of range, removed, or joined by an extra
key. Each view CSV is emptied or truncated. Each case runs through
`cli.main` in process: `extract`, `eval-knn` and `render-filters` for a
checkpoint (`extract` for format 1), `train` for a manifest, `train` and
`extract` for a view CSV, and for a config every command, except that a
value which only the data or a checkpoint can show to be wrong goes to
the commands that read those (DATA_DEPENDENT). A rejected input must exit
2 (bad input) or 3 (I/O), name the file on stderr (and a removed key, a
wrong-typed value of a TYPED field or any config fault, by its key path),
and raise nothing. An accepted one must exit 0, and an extra key in a
checkpoint or a manifest must leave the output bytes as they were; in a
config, an extra key is an error.
"""
import copy
import json
import os
import shutil
from enum import Enum

import numpy as np
import pytest

from samvh import cli

V1_CHECKPOINT = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoint_v1_sa.json")

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
        "views.*.name": [""],
        "views.*.dim": [0, -1, 10 ** 6],
        "views.*.family": ["", "poisson"],
        "hidden.dim": [0, -1, 10 ** 6],
        "hidden.family": ["poisson"],
        "theta": ["", "@@@@"],
    },
    "manifest": {
        "views": [[]],
        "views.*.name": [""],
        "views.*.dim": [0, -1, 10 ** 6],
        "views.*.family": ["", "poisson"],
        "num_samples": [0, -1, 10 ** 6],
        "view_files": [[]],
        "view_files.*": ["nope.csv"],
        "label_file": ["nope.csv"],
    },
    "config": {
        "model.structure": ["", "gated"],
        "model.hidden_family": ["poisson"],
        "model.mvh_mask": [[], [[1, 0, 1]], [[1, 0], [0, 1]]],
        "views": [[]],
        "views.*.name": [""],
        "views.*.dim": [0, -1, 3.0, 10 ** 6],
        "views.*.family": ["", "poisson"],
        "grad_check.structure": ["gated"],
        "grad_check.num_models": [0],
        "grad_check.step": [0, 1.0],
        "grad_check.tolerance": [0, -1e-5],
        "grad_check.seed": [-1],
        "synth.seed": [-1],
        "synth.num_classes": [1, 11],
        "synth.samples_per_class": [0],
        "synth.image_side": [9],
        "synth.noise_lines_per_image": [-1],
        "synth.jitter": [-1],
        "model.hidden_dim": [0, -1, 5],
        "train.seed": [-1],
        "train.epochs": [-1],
        "train.batch_size": [0],
        "train.learning_rate": [0],
        "train.momentum": [1.0, -0.5],
        "train.cd_steps": [0],
        "train.switch_lr_scale": [0],
        "train.weight_decay": [-0.5],
        "eval.ks": [[], [0], [10 ** 6]],
        "eval.test_fraction": [0, 1.5, 0.01],
        "eval.selection": ["", "specific:9"],
        "eval.knn_seed": [-1],
        "eval.grid_cols": [0],
        "eval.view": [9, -1],
    },
}
# A format-1 checkpoint also gets shapes that do not fit its arrays' data.
OUT_OF_RANGE["checkpoint_v1"] = dict(OUT_OF_RANGE["checkpoint"], **{
    f"arrays.{name}.shape": [[1, 2, 3], [10 ** 6], -1, 10 ** 9]
    for name in ("W0", "xi0", "W1", "xi1", "lam", "s")})

REMOVED = object()  # the mutation that deletes the key or list item

# Fields whose wrong-typed values stderr must name by their key path.
TYPED = {
    "checkpoint": {"views", "views.*.name", "views.*.dim", "views.*.family",
                   "structure.kind", "hidden.dim", "hidden.family"},
    "manifest": {"views", "views.*.name", "views.*.dim", "views.*.family",
                 "num_samples", "view_files", "view_files.*", "label_file"},
}
TYPED["checkpoint_v1"] = TYPED["checkpoint"]


def accepted(doc_name, pattern, value):
    """Whether a mutation leaves a valid document (True), an invalid one
    (False), or either (None). Mask items may be true or false; a manifest's
    seed and labels_present are only informational, and a dataset without a
    label file is unlabeled. A format-1 checkpoint's arrays may be read as
    float64 or not. A config key that is removed, or a nullable one set to
    null, takes its default (a seed then comes from --seed), which may or
    may not suit the other keys; any other change of a config is invalid,
    except leaving out a `views` record's dim."""
    if pattern.endswith("mask.*.*") and value is True:
        return True
    if doc_name.startswith("checkpoint"):
        return None if pattern.startswith("arrays.") else False
    if doc_name == "manifest":
        return pattern in ("seed", "labels_present") or (
            pattern == "label_file" and (value is None or value is REMOVED))
    if pattern.startswith("views."):
        return pattern == "views.*.dim" and value is REMOVED
    return None if value is REMOVED or (value is None and nullable(pattern)) else False


def nullable(pattern):
    """Whether a config key takes null for its default."""
    return pattern.split(".")[-1] in ("seed", "mvh_mask", "views")


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


def stderr_names(doc_name, pattern, value, named):
    """The names of which stderr must give one. Without a views section the
    config's raw CSVs are read as Gaussian features, which the fixture's
    Bernoulli checkpoint rejects, naming the view."""
    if doc_name == "config" and pattern == "views" and value in (None, REMOVED):
        return [*named, "view 'arabic'"]
    return named


def key_text(path):
    """A key path as errors give it, e.g. "['views'][0]['dim']"."""
    return "".join(f"[{key!r}]" for key in path)


def named_key(doc_name, pattern, path, value, wrong_type):
    """The key path that stderr must name: that of a removed key (not a list
    item; in a config, only a views record's keys are required) or of a
    TYPED field given a value of another JSON type; in a config, that of
    the changed key or views record field (a list value as a whole)."""
    removed_key = value is REMOVED and isinstance(path[-1], str) and (
        doc_name != "config" or path[0] == "views" and len(path) > 1)
    if removed_key or (wrong_type and pattern in TYPED.get(doc_name, ())):
        return key_text(path)
    if doc_name == "config" and value is not REMOVED and not (
            value is None and nullable(pattern)):
        return key_text(path if path[0] == "views" else path[:2])
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


def command(argv):
    """The subcommand of a CLI argv."""
    return next(arg for arg in argv if arg in (
        "gen-data", "train", "grad-check", "extract", "eval-knn", "render-filters"))


def run_fresh(argv, out, capsys):
    """run(argv) into an emptied out directory; the exit code, stderr and
    the bytes of each file written there."""
    shutil.rmtree(out, ignore_errors=True)
    code, err = run(argv, capsys)
    files = {} if not os.path.isdir(out) else {
        name: read_bytes(os.path.join(out, name)) for name in sorted(os.listdir(out))}
    return code, err, files


def sweep_fields(doc_name, doc, target, runs, named, capsys):
    """Findings of running, with target holding each mutation of doc, each
    (argv, out directory) of runs(pattern, value), the mutated key pattern
    and its new value (REMOVED, or None for the unmutated document or an
    extra key, whose pattern is ""). An extra key must leave what a run
    writes as it was, or, in a config, be rejected."""
    write_json_doc(doc, target)
    want = {}
    for argv, out in runs("", None):
        code, err, want[out] = run_fresh(argv, out, capsys)
        assert code == cli.EXIT_OK, (argv, err)
    findings, cases = [], 0
    for case, pattern, path, value, mutated in mutations(doc_name, doc):
        cases += 1
        wrong_type = value is not REMOVED and json_type(value) != json_type(node_at(doc, path))
        ok = accepted(doc_name, pattern, value)
        key = named_key(doc_name, pattern, path, value, wrong_type)
        write_json_doc(mutated, target)
        for argv, out in runs(pattern, value):
            code, err, _ = run_fresh(argv, out, capsys)
            if ok or (ok is None and code == cli.EXIT_OK):
                if code != cli.EXIT_OK:
                    findings.append(f"{case}, {command(argv)}: exit {code}: {err.strip()!r}")
            else:
                check_case(findings, f"{case}, {command(argv)}", code, err,
                           stderr_names(doc_name, pattern, value, named), key)
    for path, mutated in with_extra_keys(doc):
        write_json_doc(mutated, target)
        for argv, out in runs("", None):
            code, err, files = run_fresh(argv, out, capsys)
            case = f"extra key under {path}, {command(argv)}"
            if doc_name == "config":
                check_case(findings, case, code, err, named)
            elif code != cli.EXIT_OK or files != want[out]:
                findings.append(f"{case}: exit {code}: {err.strip()!r}")
    assert cases > 100
    return findings


def checkpoint_runs(root, cfg, data_dir, ckpt):
    """The (argv, out) of extract, eval-knn and render-filters on ckpt."""
    runs = [(["--config", cfg, name, "--checkpoint", ckpt, "--data", data_dir,
              "--out", str(root / name)], str(root / name))
            for name in ("extract", "eval-knn")]
    out = str(root / "filters")
    return [*runs, (["--config", cfg, "render-filters", "--checkpoint", ckpt,
                     "--out", out], out)]


def test_checkpoint_fields(fixture_dir, capsys):
    root, cfg, data_dir, ckpt = fixture_dir
    broken = str(root / "broken.json")
    with open(ckpt) as fh:
        doc = json.load(fh)
    runs = checkpoint_runs(root, cfg, data_dir, broken)
    findings = sweep_fields("checkpoint", doc, broken, lambda *_: runs, [broken], capsys)
    assert not findings, "\n".join(findings)


def test_format_1_checkpoint_fields(tmp_path, capsys):
    """The format-1 fixture, an SA model with views v0 and v1 of 3 pixels,
    through extract on two binary CSVs that a config's views describe."""
    csvs = []
    for name in ("v0", "v1"):
        csvs.append(str(tmp_path / f"{name}.csv"))
        with open(csvs[-1], "w") as fh:
            fh.write("1,0,1\n0,1,1\n0,0,0\n")
    cfg = str(tmp_path / "config.json")
    write_json_doc({"views": [{"name": name, "family": "bernoulli"} for name in ("v0", "v1")]},
                   cfg)
    broken, out = str(tmp_path / "broken.json"), str(tmp_path / "feat")
    with open(V1_CHECKPOINT) as fh:
        doc = json.load(fh)
    argv = ["--config", cfg, "extract", "--checkpoint", broken, "--data", ",".join(csvs),
            "--out", out]
    findings = sweep_fields("checkpoint_v1", doc, broken, lambda *_: [(argv, out)],
                            [broken], capsys)
    assert not findings, "\n".join(findings)


def test_manifest_fields(fixture_dir, capsys):
    root, cfg, data_dir, ckpt = fixture_dir
    work, out = str(root / "manifest_case"), str(root / "trained")
    shutil.copytree(data_dir, work)
    manifest = os.path.join(work, "manifest.json")
    with open(manifest) as fh:
        doc = json.load(fh)
    argv = ["--config", cfg, "--seed", "1", "train", "--data", work, "--out", out]
    findings = sweep_fields("manifest", doc, manifest, lambda *_: [(argv, out)],
                            [manifest, os.path.join(work, "nope.csv")], capsys)
    assert not findings, "\n".join(findings)


# The config mutations that only the data or a checkpoint shows to be wrong,
# by key pattern, and the commands that read them: a mask row count that is
# not the data's view count, a views list without an entry for each file or
# a dim that is not its file's column count, a view that the data or the
# checkpoint lacks, ks all above the training-set size, and a fraction that
# leaves a side of the split empty. Every other mutation goes to every command.
DATA_DEPENDENT = {
    "model.mvh_mask": ([[[1, 0, 1]]], ["train"]),
    "views.*": ([REMOVED], ["train", "extract", "eval-knn"]),
    "views.*.dim": ([10 ** 6], ["train", "extract", "eval-knn"]),
    "eval.selection": (["specific:9"], ["extract", "eval-knn"]),
    "eval.ks": ([[10 ** 6]], ["eval-knn"]),
    "eval.test_fraction": ([0.01], ["eval-knn"]),
    "eval.view": ([9, -1], ["render-filters"]),
}


def test_config_fields(fixture_dir, capsys):
    """A config with every key of every section, a mask and views records
    for the fixture dataset's CSVs. Every command checks the whole config
    when it reads it, so each mutation goes through every command, except
    the DATA_DEPENDENT ones."""
    root, _, data_dir, ckpt = fixture_dir
    with open(os.path.join(data_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    doc = {
        "synth": dict(CONFIG["synth"], noise_lines_per_image=2, jitter=1, seed=1),
        "model": dict(CONFIG["model"], hidden_family="bernoulli"),
        "views": manifest["views"],
        "train": dict(CONFIG["train"], learning_rate=0.1, momentum=0.9, cd_steps=1,
                      seed=1, switch_lr_scale=2.0, weight_decay=0.0),
        "eval": {"ks": [3, 5], "test_fraction": 0.5, "selection": "all",
                 "knn_seed": 0, "grid_cols": 2, "view": 0},
        "grad_check": {"num_models": 2, "step": 1e-5, "tolerance": 1e-5, "seed": 0,
                       "structure": "sa"},
    }
    cfg = str(root / "full_config.json")
    data = ["--data", ",".join(os.path.join(data_dir, name)
                               for name in manifest["view_files"]),
            "--labels", os.path.join(data_dir, manifest["label_file"])]
    argvs = {
        "gen-data": ["--seed", "1", "gen-data"],
        "train": ["--seed", "1", "train", *data],
        "grad-check": ["grad-check"],
        "extract": ["extract", "--checkpoint", ckpt, *data],
        "eval-knn": ["eval-knn", "--checkpoint", ckpt, *data],
        "render-filters": ["render-filters", "--checkpoint", ckpt],
    }

    def runs(pattern, value):
        values, commands = DATA_DEPENDENT.get(pattern, ([], argvs))
        return [(["--config", cfg, *argvs[c], *(["--out", str(root / c)]
                                                 if c != "grad-check" else [])],
                 str(root / c)) for c in (commands if value in values else argvs)]

    findings = sweep_fields("config", doc, cfg, runs, [cfg], capsys)
    assert not findings, "\n".join(findings)


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_malformed_views_record_exits_2(fixture_dir, capsys, command):
    """A views section is checked at load, also by the commands that read
    no raw CSVs; a dataset directory's manifest names its own views."""
    root, _, data_dir, _ = fixture_dir
    cfg, out = str(root / "bad_views.json"), str(root / "bad_views_out")
    write_json_doc(dict(CONFIG, views=[5, {"name": 7}]), cfg)
    argv = ["gen-data"] if command == "gen-data" else ["train", "--data", data_dir]
    code, err = run(["--config", cfg, "--seed", "1", *argv, "--out", out], capsys)
    assert (code, err) == (cli.EXIT_CONFIG,
                           f"error: {cfg}: ['views'][0] must be an object, got 5\n")
    assert not os.path.exists(out)


# Values of each JSON type that a range rule is likely to reject.
PROBES = {int: [-1, 0, 10 ** 9], float: [-1.0, 0.0, 1.0, 1e9], str: ["", "x"],
          list: [[], [0], [2]]}


def test_every_config_range_rule_is_fuzzed(tmp_path):
    """Each config key whose value load_config rejects for a probe of the
    right JSON type, by a rule of its own or of SynthConfig or TrainConfig,
    has values in OUT_OF_RANGE["config"], so test_config_fields runs it."""
    cases = [("views", {"views": probe}) for probe in PROBES[list]]
    for key, kind in (("name", str), ("dim", int), ("family", str)):
        cases += [(f"views.*.{key}", {"views": [{"name": "v", "family": "bernoulli",
                                                  key: probe}]}) for probe in PROBES[kind]]
    for section, values in cli.load_config(None).items():
        for key, default in (values or {}).items():
            kind = {"seed": int, "mvh_mask": list}.get(key) if default is None else (
                str if isinstance(default, Enum) else type(default))
            cases += [(f"{section}.{key}", {section: {key: probe}}) for probe in PROBES[kind]]
    cfg, ruled = str(tmp_path / "probe.json"), set()
    for pattern, doc in cases:
        write_json_doc(doc, cfg)
        try:
            cli.load_config(cfg)
        except ValueError:
            ruled.add(pattern)
    assert {"views.*.dim", "train.cd_steps", "eval.ks", "model.structure"} <= ruled
    missing = sorted(ruled - set(OUT_OF_RANGE["config"]))
    assert not missing, f"range rules without an OUT_OF_RANGE['config'] entry: {missing}"


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
