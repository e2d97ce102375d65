import base64
import hashlib
import json
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from samvh import cli
from samvh.data import MultiViewDataset, load_dataset_dir, save_dataset_dir, save_matrix_csv
from samvh.evaluation import extract_features
from samvh.expfam import Family
from samvh.model import (
    PARAM_GROUPS,
    StructureKind,
    StructureMode,
    ViewConfig,
    init_params,
    load_checkpoint,
    make_tiny_model,
    param_vector,
    save_checkpoint,
)


def write_config(tmp_path, doc, name="config.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


SMALL_SYNTH = {"num_classes": 4, "samples_per_class": 10, "image_side": 10}


def small_config(tmp_path, **overrides):
    doc = {
        "synth": SMALL_SYNTH,
        "model": {"hidden_dim": 8},
        "train": {"epochs": 3, "batch_size": 20},
    }
    doc.update(overrides)
    return write_config(tmp_path, doc)


def write_binary_csvs(tmp_path):
    """Two 0/1 CSV views of 4 rows: a.csv with 3 columns, b.csv with 2."""
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for path, rows in zip(paths, (["1,0,1", "0,1,1", "0,0,1", "1,1,0"],
                                  ["1,0", "0,1", "1,1", "0,0"])):
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return paths


def edit_doc(text, edit):
    """The JSON document text after edit(doc) changed it in place."""
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def set_theta(edit):
    """A text edit that replaces a checkpoint's theta payload bytes by edit(bytes)."""
    def apply(doc):
        doc["theta"] = base64.b64encode(edit(base64.b64decode(doc["theta"]))).decode()
    return lambda text: edit_doc(text, apply)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfig:
    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train": {"learning_rte": 0.1}})
        code = cli.main(["--config", cfg, "--seed", "0", "gen-data",
                         "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_CONFIG
        assert "learning_rte" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"optimizer": {}})
        code = cli.main(["--config", cfg, "--seed", "0", "gen-data",
                         "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_CONFIG
        assert "optimizer" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        Path(path).write_text("{not json")
        code = cli.main(["--config", path, "--seed", "0", "gen-data",
                         "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_value_of_wrong_type_named(self, tmp_path, capsys):
        cases = [
            ({"train": {"epochs": "ten"}}, "['train']['epochs'] must be an integer, got 'ten'"),
            ({"train": {"batch_size": True}},
             "['train']['batch_size'] must be an integer, got True"),
            ({"train": {"epochs": 3.0}}, "['train']['epochs'] must be an integer, got 3.0"),
            ({"synth": {"seed": "7"}}, "['synth']['seed'] must be an integer or null, got '7'"),
            ({"eval": {"ks": [10, "30"]}},
             "['eval']['ks'] must be a list of integers, got [10, '30']"),
            ({"eval": {"test_fraction": None}},
             "['eval']['test_fraction'] must be a number, got None"),
            ({"model": {"mvh_mask": "all"}},
             "['model']['mvh_mask'] must be a list or null, got 'all'"),
            ({"views": {"name": "a"}}, "['views'] must be a list or null, got {'name': 'a'}")]
        for doc, message in cases:
            cfg = write_config(tmp_path, doc)
            code = cli.main(["--config", cfg, "--seed", "0", "gen-data",
                             "--out", str(tmp_path / "d")])
            assert code == cli.EXIT_CONFIG, doc
            assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    def test_int_for_number_and_null_seed_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"synth": dict(SMALL_SYNTH, seed=None),
                                      "train": {"learning_rate": 1, "seed": None},
                                      "model": {"mvh_mask": None}})
        config = cli.load_config(cfg)
        assert config["train"]["learning_rate"] == 1
        assert cli.main(["--config", cfg, "--seed", "0", "gen-data",
                         "--out", str(tmp_path / "d")]) == cli.EXIT_OK

    def test_defaults(self):
        # The defaults as the CLI once spelled them out; synth and train now
        # come from SynthConfig and TrainConfig.
        assert cli.load_config(None) == {
            "synth": {"num_classes": 10, "image_side": 12, "samples_per_class": 200,
                      "noise_lines_per_image": 2, "jitter": 1, "seed": None},
            "model": {"hidden_dim": 60, "hidden_family": Family.BERNOULLI,
                      "structure": StructureKind.SA, "mvh_mask": None},
            "views": None,
            "train": {"learning_rate": 0.1, "momentum": 0.9, "cd_steps": 1,
                      "epochs": 150, "batch_size": 20, "seed": None,
                      "switch_lr_scale": 2.0, "weight_decay": 0.0},
            "eval": {"ks": [10, 30, 50, 70, 100], "test_fraction": 0.5,
                     "selection": "all", "knn_seed": 0, "grid_cols": 8, "view": 0},
            "grad_check": {"num_models": 20, "step": 1e-5, "tolerance": 1e-5,
                           "seed": 0, "structure": StructureKind.SA},
        }

    @pytest.mark.parametrize("section,key,value,command", [
        ("model", "structure", "gated", "train"),
        ("model", "hidden_family", "poisson", "train"),
        ("grad_check", "structure", "gated", "grad-check")])
    def test_unknown_choice_names_the_key(self, tmp_path, capsys, section, key,
                                          value, command):
        paths = write_binary_csvs(tmp_path)
        cfg = write_config(tmp_path, {section: {key: value}, "train": {"epochs": 1}})
        argv = ["--data", ",".join(paths), "--out", str(tmp_path / "r")]
        code = cli.main(["--config", cfg, "--seed", "1", command,
                         *(argv if command == "train" else [])])
        choices = {"structure": ["dwh", "mvh", "sa"],
                   "hidden_family": ["bernoulli", "gaussian_unit_variance"]}[key]
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {cfg}: [{section!r}][{key!r}] must be one of {choices}, "
            f"got {value!r}\n")
        assert not os.path.exists(str(tmp_path / "r"))

    @pytest.mark.parametrize("section,key,value,message", [
        ("train", "cd_steps", 0, "['train']['cd_steps'] must be >= 1, got 0"),
        ("train", "momentum", 1.0, "['train']['momentum'] must be in [0, 1), got 1.0"),
        ("train", "weight_decay", -0.5, "['train']['weight_decay'] must be >= 0, got -0.5"),
        ("model", "hidden_dim", 0, "['model']['hidden_dim'] must be >= 1, got 0"),
        ("model", "hidden_dim", -3, "['model']['hidden_dim'] must be >= 1, got -3"),
        ("synth", "jitter", -1, "['synth']['jitter'] must be >= 0, got -1"),
        ("synth", "image_side", 9,
         "['synth']['image_side'] must be >= 10 to fit 8x8 glyphs with jitter 1, got 9")])
    def test_value_out_of_range_names_the_key(self, tmp_path, capsys, section, key,
                                              value, message):
        # Every command checks every value at load, whichever section it reads.
        paths = write_binary_csvs(tmp_path)
        cfg = write_config(tmp_path, {section: {key: value}})
        for argv in (["gen-data", "--out", str(tmp_path / "r")],
                     ["train", "--data", ",".join(paths), "--out", str(tmp_path / "r")],
                     ["grad-check"]):
            code = cli.main(["--config", cfg, "--seed", "1", *argv])
            assert code == cli.EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
            assert not os.path.exists(str(tmp_path / "r"))

    def test_seed_required(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: a seed is required (config seed or --seed)\n"
        cfg = write_config(tmp_path, {"synth": {"seed": None}})
        code = cli.main(["--config", cfg, "gen-data", "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {cfg}: a seed is required (config seed or --seed)\n")

    @pytest.mark.parametrize("command,flag_seed,doc,message", [
        ("gen-data", "-1", {}, "--seed must be >= 0, got -1"),
        ("train", "-1", {}, "--seed must be >= 0, got -1"),
        ("grad-check", "-1", {}, "--seed must be >= 0, got -1"),
        ("extract", "-1", {}, "--seed must be >= 0, got -1"),
        ("eval-knn", "-1", {}, "--seed must be >= 0, got -1"),
        ("render-filters", "-1", {}, "--seed must be >= 0, got -1"),
        ("gen-data", None, {"synth": {"seed": -2}}, "['synth']['seed'] must be >= 0, got -2"),
        ("train", None, {"train": {"seed": -1}}, "['train']['seed'] must be >= 0, got -1"),
        ("grad-check", None, {"grad_check": {"seed": -1}},
         "['grad_check']['seed'] must be >= 0, got -1"),
        ("eval-knn", None, {"eval": {"knn_seed": -2}},
         "['eval']['knn_seed'] must be >= 0, got -2")])
    def test_negative_seed_names_its_source(self, tmp_path, capsys, command, flag_seed,
                                            doc, message):
        data_dir, ckpt = str(tmp_path / "d"), str(tmp_path / "run" / "checkpoint.json")
        base = small_config(tmp_path, train={"epochs": 0})
        assert cli.main(["--config", base, "--seed", "1", "gen-data",
                         "--out", data_dir]) == cli.EXIT_OK
        assert cli.main(["--config", base, "--seed", "1", "train", "--data", data_dir,
                         "--out", str(tmp_path / "run")]) == cli.EXIT_OK
        capsys.readouterr()
        out = str(tmp_path / "out")
        argv = {"gen-data": ["--out", out], "train": ["--data", data_dir, "--out", out],
                "grad-check": [],
                "extract": ["--checkpoint", ckpt, "--data", data_dir, "--out", out],
                "eval-knn": ["--checkpoint", ckpt, "--data", data_dir, "--out", out],
                "render-filters": ["--checkpoint", ckpt, "--out", out]}[command]
        cfg = write_config(tmp_path, {"synth": SMALL_SYNTH, **doc}, name="seed.json")
        code = cli.main(["--config", cfg, *(["--seed", flag_seed] if flag_seed else []),
                         command, *argv])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        # A negative --seed is not the config's fault.
        assert captured.err == f"error: {'' if flag_seed else cfg + ': '}{message}\n"
        assert captured.out == ""
        assert not os.path.exists(out)


class TestGenData:
    def test_writes_dataset(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = str(tmp_path / "d")
        assert cli.main(["--config", cfg, "--seed", "7", "gen-data",
                         "--out", out]) == cli.EXIT_OK
        assert "40 samples" in capsys.readouterr().out
        ds = load_dataset_dir(out)
        assert ds.num_samples == 40
        assert [v.name for v in ds.views] == ["arabic", "roman"]
        assert all(v.family is Family.BERNOULLI for v in ds.views)
        assert np.array_equal(np.bincount(ds.labels), np.full(4, 10))

    def test_byte_deterministic(self, tmp_path):
        cfg = small_config(tmp_path)
        outs = [str(tmp_path / "d1"), str(tmp_path / "d2")]
        for out in outs:
            assert cli.main(["--config", cfg, "--seed", "11", "gen-data",
                             "--out", out]) == cli.EXIT_OK
        for name in ("arabic.csv", "roman.csv", "labels.csv", "manifest.json"):
            assert read_bytes(os.path.join(outs[0], name)) == \
                read_bytes(os.path.join(outs[1], name))

    def test_golden_digests(self, tmp_path):
        # The bytes `--seed 7 gen-data` writes for SMALL_SYNTH, pinned so that
        # a change to the generator's rng stream or to the CSV writer shows.
        cfg = write_config(tmp_path, {"synth": SMALL_SYNTH})
        out = str(tmp_path / "d")
        assert cli.main(["--config", cfg, "--seed", "7", "gen-data",
                         "--out", out]) == cli.EXIT_OK
        want = {
            "arabic.csv": "8950cf4b86c54134eec3ceb8771a270355fb169c3fbc5a5d30d322ed158f4c41",
            "roman.csv": "d792573c329da646ab3385350acda5fc40deced7e4ceabdc3f34a6db521fc18e",
            "labels.csv": "6767bacb4b5099f60a06123275e7b6a5b117308532bb604afc14d6fdd80f0a03",
            "manifest.json": "8801634242d8f8f8bc9b6e1fc4b915446f2a26366a53b793d91e48f956f60d11",
        }
        got = {name: hashlib.sha256(read_bytes(os.path.join(out, name))).hexdigest()
               for name in want}
        assert got == want


    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_json_outputs_get_the_mode_of_csv_outputs(self, tmp_path, umask):
        # The manifest and the checkpoint are created as open(path, "w")
        # creates the CSVs beside them: mode 0o666 less the umask.
        cfg = small_config(tmp_path, train={"epochs": 1})
        data_dir, out = str(tmp_path / "d"), str(tmp_path / "run")
        old = os.umask(umask)
        try:
            assert cli.main(["--config", cfg, "--seed", "2", "gen-data",
                             "--out", data_dir]) == cli.EXIT_OK
            assert cli.main(["--config", cfg, "--seed", "2", "train",
                             "--data", data_dir, "--out", out]) == cli.EXIT_OK
        finally:
            os.umask(old)
        modes = {name: os.stat(os.path.join(folder, name)).st_mode & 0o777
                 for folder, names in ((data_dir, ("manifest.json", "arabic.csv")),
                                       (out, ("checkpoint.json", "trainlog.csv")))
                 for name in names}
        assert set(modes.values()) == {0o666 & ~umask}, modes


class TestTrain:
    def test_epochs_zero_checkpoint_equals_init(self, tmp_path):
        cfg = small_config(tmp_path, train={"epochs": 0})
        data_dir = str(tmp_path / "d")
        out = str(tmp_path / "run")
        assert cli.main(["--config", cfg, "--seed", "3", "gen-data",
                         "--out", data_dir]) == cli.EXIT_OK
        assert cli.main(["--config", cfg, "--seed", "3", "train",
                         "--data", data_dir, "--out", out]) == cli.EXIT_OK
        got = load_checkpoint(os.path.join(out, "checkpoint.json"))
        ds = load_dataset_dir(data_dir)
        want = init_params(views=ds.views, hidden_dim=8,
                           hidden_family=Family.BERNOULLI,
                           structure=StructureMode(StructureKind.SA),
                           rng=cli._substreams(3)["init"])
        for a, b in zip(got.W, want.W):
            assert np.array_equal(a, b)
        assert np.array_equal(got.s, want.s)

    @staticmethod
    def train_then_extract(tmp_path, cfg, data):
        """The checkpoint of `train` on data, and the features that `extract`
        writes for the same data."""
        run, feat = str(tmp_path / "run"), str(tmp_path / "feat")
        assert cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data, "--out", run]) == cli.EXIT_OK
        ckpt = os.path.join(run, "checkpoint.json")
        assert cli.main(["--config", cfg, "extract", "--checkpoint", ckpt,
                         "--data", data, "--out", feat]) == cli.EXIT_OK
        return (load_checkpoint(ckpt),
                np.loadtxt(os.path.join(feat, "features.csv"), delimiter=",", ndmin=2))

    def test_gaussian_dataset_dir_is_read_as_stored(self, tmp_path, rng):
        # A dataset directory is never standardized, whatever its families:
        # an untrained model's features are those of the saved arrays.
        views = [ViewConfig("a", 3, Family.GAUSSIAN_UNIT_VARIANCE),
                 ViewConfig("b", 2, Family.GAUSSIAN_UNIT_VARIANCE)]
        ds = MultiViewDataset(views, [rng.normal(5.0, 3.0, (12, 3)),
                                      rng.normal(-2.0, 0.5, (12, 2))])
        data_dir = str(tmp_path / "d")
        save_dataset_dir(ds, data_dir, seed=None)
        cfg = write_config(tmp_path, {"model": {"hidden_dim": 4},
                                      "train": {"epochs": 0, "batch_size": 4}})
        params, feats = self.train_then_extract(tmp_path, cfg, data_dir)
        assert np.array_equal(feats, extract_features(params, ds, "all").values)

    def test_raw_gaussian_csv_without_views_is_standardized(self, tmp_path):
        # Without a views section raw files are Gaussian views view0, view1,
        # ..., and all-Gaussian data is standardized column by column: the
        # column 1, 3, 5 becomes -r, 0, r with r = sqrt(1.5), and a constant
        # column becomes all zeros.
        path = str(tmp_path / "a.csv")
        Path(path).write_text("1,5\n3,5\n5,5\n")
        cfg = write_config(tmp_path, {"model": {"hidden_dim": 2},
                                      "train": {"epochs": 0, "batch_size": 3}})
        params, feats = self.train_then_extract(tmp_path, cfg, path)
        assert [(v.name, v.family) for v in params.views] == [
            ("view0", Family.GAUSSIAN_UNIT_VARIANCE)]
        r = np.sqrt(1.5)
        standardized = MultiViewDataset(params.views, [np.array([[-r, 0], [0, 0], [r, 0]])])
        np.testing.assert_allclose(
            feats, extract_features(params, standardized, "all").values, rtol=1e-12)

    @pytest.mark.parametrize("cell,message", [
        ("nan", "values must be finite"),  # standardizing made the column zeros
        ("1e300", "values too large to standardize in float64"),  # its square overflows
    ])
    def test_raw_gaussian_csv_fault_is_named(self, tmp_path, capsys, cell, message):
        path = str(tmp_path / "a.csv")
        Path(path).write_text(f"1,{cell}\n3,2\n5,4\n")
        cfg = write_config(tmp_path, {"model": {"hidden_dim": 2},
                                      "train": {"epochs": 1, "batch_size": 3}})
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", path, "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: view 'view0': {message}\n"
        assert not (tmp_path / "r").exists()

    def test_value_beyond_float32_range_exits_2(self, tmp_path, capsys):
        # 1e39 is finite in float64 but not in the CD chain's float32; it
        # is named before any step, with no overflow warning (warnings are
        # errors in this suite), and is not reported as divergence.
        (tmp_path / "g.csv").write_text("1e39,1\n2,3\n")
        (tmp_path / "b.csv").write_text("0,1\n1,0\n")
        cfg = write_config(tmp_path, {
            "views": [{"name": "g", "family": "gaussian_unit_variance"},
                      {"name": "b", "family": "bernoulli"}],
            "model": {"hidden_dim": 2}, "train": {"epochs": 1, "batch_size": 2}})
        code = cli.main(["--config", cfg, "--seed", "1", "train", "--data",
                         f"{tmp_path / 'g.csv'},{tmp_path / 'b.csv'}",
                         "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: view 'g': values must be within the float32 range\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4(self, tmp_path, capsys):
        path = str(tmp_path / "g.csv")
        save_matrix_csv(path, np.random.default_rng(1).standard_normal((8, 2)) * 5)
        cfg = write_config(tmp_path, {
            "views": [{"name": "g", "family": "gaussian_unit_variance"}],
            "model": {"hidden_dim": 2, "hidden_family": "gaussian_unit_variance"},
            "train": {"learning_rate": 5.0, "epochs": 400, "batch_size": 4}})
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", path, "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_DIVERGED
        groups = "|".join(PARAM_GROUPS)
        assert re.fullmatch(rf"error: non-finite values in parameter group '({groups})' "
                            r"at epoch \d+\n", capsys.readouterr().err)

    def test_train_outputs_and_determinism(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        assert cli.main(["--config", cfg, "--seed", "5", "gen-data",
                         "--out", data_dir]) == cli.EXIT_OK
        runs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
        for out in runs:
            assert cli.main(["--config", cfg, "--seed", "5", "train",
                             "--data", data_dir, "--out", out]) == cli.EXIT_OK
        assert "shared=" in capsys.readouterr().out
        for name in ("checkpoint.json", "trainlog.csv"):
            assert read_bytes(os.path.join(runs[0], name)) == \
                read_bytes(os.path.join(runs[1], name))
        log = Path(os.path.join(runs[0], "trainlog.csv")).read_text().splitlines()
        assert log[0].startswith("epoch,recon_err_")
        assert len(log) == 1 + 3

    def test_missing_data_is_io_error(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_IO

    def test_value_outside_support_is_config_error(self, tmp_path, capsys):
        # A 0.5 in a Bernoulli view is bad input, not training divergence.
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        for path, rows in zip(paths, (["1,0", "0.5,1", "0,0"], ["1", "0", "1"])):
            with open(path, "w") as fh:
                fh.write("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {
            "model": {"hidden_dim": 2},
            "views": [{"name": "a", "family": "bernoulli"},
                      {"name": "b", "family": "bernoulli"}],
            "train": {"epochs": 1, "batch_size": 2}})
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", ",".join(paths), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "Bernoulli support" in err and "'a'" in err
        assert "non-finite" not in err

    @pytest.mark.parametrize("family,cells,message", [
        ("bernoulli", ["nan"], "values must be finite"),
        ("bernoulli", ["inf"], "values must be finite"),
        ("bernoulli", ["-inf"], "values must be finite"),
        ("bernoulli", ["0.5"], "Bernoulli support is {0, 1}"),
        ("bernoulli", ["0.5", "nan"], "values must be finite"),
        ("gaussian_unit_variance", ["nan"], "values must be finite"),
    ])
    def test_bad_view_value_message(self, tmp_path, capsys, family, cells, message):
        paths = write_binary_csvs(tmp_path)
        with open(paths[0], "w") as fh:
            fh.write(",".join(cells + ["1"] * (3 - len(cells))) + "\n1,0,1\n0,1,1\n0,0,1\n")
        cfg = write_config(tmp_path, {
            "model": {"hidden_dim": 2},
            "views": [{"name": "a", "family": family}, {"name": "b", "family": "bernoulli"}],
            "train": {"epochs": 1, "batch_size": 2}})
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", ",".join(paths), "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: view 'a': {message}\n"

    @pytest.mark.parametrize("text", ["", "\n  \n\n"])
    @pytest.mark.parametrize("with_other_view", [False, True])
    def test_view_csv_without_rows_is_named(self, tmp_path, capsys, text,
                                            with_other_view):
        empty, other = write_binary_csvs(tmp_path)
        with open(empty, "w") as fh:
            fh.write(text)
        data = f"{empty},{other}" if with_other_view else empty
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["--seed", "1", "train", "--data", data,
                             "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {empty}: has no rows\n"
        assert caught == []

    def test_emptied_view_of_dataset_dir_is_named(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        arabic = os.path.join(data_dir, "arabic.csv")
        open(arabic, "w").close()
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data_dir, "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {arabic}: has no rows\n"

    def test_byte_outside_support_in_dataset_dir_is_config_error(self, tmp_path, capsys):
        # gen-data's views read back as uint8, and a 2 among those bytes gets
        # the message that a 2.0 in a float64 view gets.
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        assert [a.dtype for a in load_dataset_dir(data_dir).view_arrays] == [np.uint8] * 2
        arabic = os.path.join(data_dir, "arabic.csv")
        text = bytearray(read_bytes(arabic))
        text[2] = ord("2")
        with open(arabic, "wb") as fh:
            fh.write(text)
        capsys.readouterr()
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data_dir, "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: view 'arabic': Bernoulli support is {0, 1}\n"

    def test_manifest_without_view_files_is_config_error(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        manifest = os.path.join(data_dir, "manifest.json")
        with open(manifest) as fh:
            doc = json.load(fh)
        del doc["view_files"]
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data_dir, "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "manifest.json" in err and "'view_files'" in err

    def test_manifest_file_outside_the_directory_is_config_error(self, tmp_path, capsys):
        # outside.csv, next to the dataset directory, holds a valid view.
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        shutil.copy(os.path.join(data_dir, "arabic.csv"), tmp_path / "outside.csv")
        manifest = os.path.join(data_dir, "manifest.json")
        with open(manifest) as fh:
            doc = json.load(fh)
        doc["view_files"][0] = "../outside.csv"
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        out = str(tmp_path / "r")
        code = cli.main(["--config", cfg, "--seed", "1", "train", "--data", data_dir,
                         "--out", out])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {manifest}: ['view_files'][0] must be a plain file name, "
            "got '../outside.csv'\n")
        assert not os.path.exists(out)

    def test_manifest_value_of_wrong_type_is_config_error(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        manifest = os.path.join(data_dir, "manifest.json")
        with open(manifest) as fh:
            doc = json.load(fh)
        doc["view_files"] = 5
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data_dir, "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "manifest.json: ['view_files'] must be a non-empty list, got 5" in err

    def test_manifest_shape_must_match_view_files(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        manifest = os.path.join(data_dir, "manifest.json")
        with open(manifest) as fh:
            doc = json.load(fh)
        doc["views"][0]["dim"], doc["num_samples"] = 5, 3
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data_dir, "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "manifest.json: view 'arabic'" in err
        assert not os.path.exists(str(tmp_path / "r"))

    def test_views_entry_without_family_is_config_error(self, tmp_path, capsys):
        path = str(tmp_path / "a.csv")
        with open(path, "w") as fh:
            fh.write("1,0\n0,1\n")
        cfg = write_config(tmp_path, {"views": [{"name": "a"}]})
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", path, "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "views" in err and "'family'" in err

    @pytest.mark.parametrize("views,message", [
        ([{"name": "a", "family": "bernoulli", "dim": 5},
          {"name": "b", "family": "bernoulli", "dim": 7}],
         "['views'][0]['dim'] is 5, but {a} has 3 columns"),
        ([{"name": "a", "family": "bernoulli", "dim": 3},
          {"name": "b", "family": "bernoulli", "dim": 3}],
         "['views'][1]['dim'] is 3, but {b} has 2 columns"),
        # A record's fault is found at load, before the files are counted.
        ([{"name": "a", "family": "bernoulli"}] * 3 + [{"name": "c", "family": 5}],
         "['views'][3]['family'] must be one of ['bernoulli', "
         "'gaussian_unit_variance'], got 5"),
        ([{"name": "a", "family": "bernoulli"}],
         "['views'] has 1 entries for the 2 files {a},{b}"),
        ([{"name": "a", "family": "bernoulli"}, {"name": "b", "family": 5}],
         "['views'][1]['family'] must be one of ['bernoulli', "
         "'gaussian_unit_variance'], got 5"),
        ([{"name": 5, "family": "bernoulli"}, {"name": "b", "family": "bernoulli"}],
         "['views'][0]['name'] must be a non-empty string, got 5"),
        ([{"name": "a", "family": "bernoulli", "dim": 3.0},
          {"name": "b", "family": "bernoulli"}],
         "['views'][0]['dim'] must be a positive integer, got 3.0"),
        # A typo'd dim is not left out: a record takes name, dim and family only.
        ([{"name": "a", "family": "bernoulli"},
          {"name": "b", "family": "bernoulli", "dmi": 3}],
         "unknown key 'dmi' in ['views'][1]")])
    def test_views_entries_must_match_files(self, tmp_path, capsys, views, message):
        a, b = write_binary_csvs(tmp_path)

        def train(entries, out):
            cfg = write_config(tmp_path, {"views": entries, "model": {"hidden_dim": 2},
                                          "train": {"epochs": 1, "batch_size": 2}})
            return cfg, cli.main(["--config", cfg, "--seed", "1", "train",
                                  "--data", f"{a},{b}", "--out", str(tmp_path / out)])

        # One entry per file, with a dim that matches or none, is accepted.
        assert train([{"name": "a", "family": "bernoulli", "dim": 3},
                      {"name": "b", "family": "bernoulli"}], "ok")[1] == cli.EXIT_OK
        cfg, code = train(views, "r")
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {cfg}: {message.format(a=a, b=b)}\n")
        assert not os.path.exists(str(tmp_path / "r"))

    def test_mvh_mask_items_must_be_binary(self, tmp_path, capsys):
        cfg = small_config(
            tmp_path,
            model={"hidden_dim": 4, "structure": "mvh",
                   "mvh_mask": [["a", "", 1, 0], [2, None, 0, 1]]})
        data_dir = str(tmp_path / "d")
        for argv in (["gen-data", "--out", data_dir],
                     ["train", "--data", data_dir, "--out", str(tmp_path / "r")]):
            assert cli.main(["--config", cfg, "--seed", "1", *argv]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"error: {cfg}: ['model']['mvh_mask']: mask items must be 0, 1, true or "
                f"false, got 'a'\n")
        assert not os.path.exists(data_dir) and not os.path.exists(str(tmp_path / "r"))

    @pytest.mark.parametrize("mask,message", [
        # Columns against hidden_dim at load, so gen-data rejects it too.
        ([[1, 0], [0, 1]], "['model']['mvh_mask'] has 2 columns, but "
                           "['model']['hidden_dim'] is 8"),
        # Rows against the views, once train has read the data.
        ([[1] * 8], "['model']['mvh_mask'] has 1 rows for the 2 views of the data")])
    def test_bad_mvh_mask_shape(self, tmp_path, capsys, mask, message):
        cfg = small_config(
            tmp_path, model={"hidden_dim": 8, "structure": "mvh", "mvh_mask": mask})
        data_dir = str(tmp_path / "d")
        code = cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        assert code == (cli.EXIT_CONFIG if "columns" in message else cli.EXIT_OK)
        capsys.readouterr()
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data_dir, "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


# Default `grad-check` output per structure mode, recorded before the
# finite differences were batched: any change to the oracle's rounding
# shows here.
GRAD_CHECK_GOLDEN = {
    "sa": ["W: max relative error 6.014e-08",
           "xi: max relative error 4.771e-09",
           "lam: max relative error 4.766e-08",
           "s: max relative error 7.040e-08"],
    "dwh": ["W: max relative error 7.515e-08",
            "xi: max relative error 1.166e-08",
            "lam: max relative error 1.219e-07",
            "s: skipped (frozen structure)"],
    "mvh": ["W: max relative error 4.729e-08",
            "xi: max relative error 8.483e-08",
            "lam: max relative error 8.882e-08",
            "s: skipped (frozen structure)"],
}


class TestGradCheck:
    @pytest.mark.parametrize("structure", sorted(GRAD_CHECK_GOLDEN))
    def test_default_output_is_golden(self, tmp_path, capsys, structure):
        cfg = write_config(tmp_path, {"grad_check": {"structure": structure}})
        assert cli.main(["--config", cfg, "grad-check"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == GRAD_CHECK_GOLDEN[structure]

    @pytest.mark.parametrize("key,value", [
        ("num_models", 0), ("num_models", -3),
        ("tolerance", 0.0), ("tolerance", -1e-5),
        ("step", 1e-8), ("step", 1e-2), ("step", 0),
        ("structure", "gated"),
    ])
    def test_bad_settings_are_config_errors(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"grad_check": {key: value}})
        assert cli.main(["--config", cfg, "grad-check"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}: ['grad_check'][{key!r}] must be ")
        assert captured.out == ""

    def test_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grad_check": {"num_models": 3}})
        assert cli.main(["--config", cfg, "grad-check"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        for name in ("W", "xi", "lam", "s"):
            assert f"{name}: max relative error" in out

    def test_frozen_structure_skips_switch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grad_check": {"num_models": 2,
                                                     "structure": "dwh"}})
        assert cli.main(["--config", cfg, "grad-check"]) == cli.EXIT_OK
        assert "s: skipped" in capsys.readouterr().out

    def test_broken_sign_detected(self, tmp_path, capsys, monkeypatch):
        exact_gradient = cli.train_mod.exact_gradient

        def broken_sign(params, fv):
            grad = exact_gradient(params, fv)
            grad.dlam *= -1.0
            return grad

        monkeypatch.setattr(cli.train_mod, "exact_gradient", broken_sign)
        cfg = write_config(tmp_path, {"grad_check": {"num_models": 2}})
        code = cli.main(["--config", cfg, "grad-check"])
        assert code == cli.EXIT_CHECK_FAILED
        # Tiny models have views of 3 and 3 units and 4 hidden units, so W
        # takes theta[0:24], xi theta[24:30] and lam theta[30:34].
        assert capsys.readouterr().err.splitlines() == [
            "FAIL: worst offender: group lam, model 1, theta offset 30, "
            "relative error 2.000e+00"]


class TestEvalPipeline:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        run_dir = str(tmp_path / "run")
        assert cli.main(["--config", cfg, "--seed", "2", "gen-data",
                         "--out", data_dir]) == cli.EXIT_OK
        assert cli.main(["--config", cfg, "--seed", "2", "train",
                         "--data", data_dir, "--out", run_dir]) == cli.EXIT_OK
        return cfg, data_dir, os.path.join(run_dir, "checkpoint.json")

    def test_extract_then_knn(self, tmp_path, trained, capsys):
        cfg, data_dir, ckpt = trained
        feat_dir = str(tmp_path / "feat")
        assert cli.main(["--config", cfg, "extract", "--checkpoint", ckpt,
                         "--data", data_dir, "--out", feat_dir]) == cli.EXIT_OK
        feats = np.loadtxt(os.path.join(feat_dir, "features.csv"), delimiter=",")
        assert feats.shape == (40, 8)
        assert np.all((feats >= 0) & (feats <= 1))

        knn_dir = str(tmp_path / "knn")
        assert cli.main(["--config", cfg, "eval-knn", "--checkpoint", ckpt,
                         "--data", data_dir, "--out", knn_dir]) == cli.EXIT_OK
        lines = Path(os.path.join(knn_dir, "knn_accuracy.csv")).read_text().splitlines()
        assert lines[0] == "k,accuracy"
        assert lines[1].startswith("10,")
        assert "accuracy" in capsys.readouterr().out

    @staticmethod
    def relabeled(tmp_path, data_dir, label_file):
        """A copy of the dataset whose manifest has label_file set, or
        removed if it is ...; the copy's directory and manifest path."""
        work = str(tmp_path / "relabeled")
        shutil.copytree(data_dir, work)
        manifest = os.path.join(work, "manifest.json")
        with open(manifest) as fh:
            doc = json.load(fh)
        if label_file is ...:
            del doc["label_file"]
        else:
            doc["label_file"] = label_file
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        return work, manifest

    @pytest.mark.parametrize("label_file", ["", 0, False, [], {}, 7])
    def test_label_file_that_names_no_file_is_an_error(self, tmp_path, trained, capsys,
                                                       label_file):
        cfg, data_dir, ckpt = trained
        work, manifest = self.relabeled(tmp_path, data_dir, label_file)
        assert cli.main(["--config", cfg, "eval-knn", "--checkpoint", ckpt,
                         "--data", work, "--out", str(tmp_path / "knn")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {manifest}: ['label_file'] must be a non-empty string, "
            f"got {label_file!r}\n")

    @pytest.mark.parametrize("label_file", [None, ...])
    def test_null_or_missing_label_file_is_unlabeled(self, tmp_path, trained, capsys,
                                                     label_file):
        cfg, data_dir, ckpt = trained
        work, _ = self.relabeled(tmp_path, data_dir, label_file)
        assert load_dataset_dir(work).labels is None
        assert cli.main(["--config", cfg, "eval-knn", "--checkpoint", ckpt,
                         "--data", work, "--out", str(tmp_path / "knn")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: eval-knn requires a labeled dataset, but {work} has no labels\n")

    @pytest.mark.parametrize("command", ["train", "extract", "eval-knn"])
    def test_labels_flag_with_dataset_dir_is_an_error(self, tmp_path, trained, capsys,
                                                      command):
        # A dataset directory's labels are the ones its manifest names.
        cfg, data_dir, ckpt = trained
        out = str(tmp_path / "out")
        labels = str(tmp_path / "nonexistent.csv")
        argv = [] if command == "train" else ["--checkpoint", ckpt]
        assert cli.main(["--config", cfg, "--seed", "2", command, *argv, "--data", data_dir,
                         "--labels", labels, "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --labels {labels} cannot be given with the dataset directory "
            f"{data_dir}, whose manifest names its labels\n")
        assert not os.path.exists(out)

    # sha256 of the features.csv that `extract` writes, pinned so that a
    # change to the real-valued CSV writer shows: for the trained checkpoint,
    # and for the same checkpoint with W and lam scaled by 180, whose
    # features run from about 1e-108 to 1 - 1e-15 (three-digit exponents).
    # Like the training digests, they depend on numpy's SIMD `exp` and on
    # the BLAS kernels that trained the checkpoint.
    FEATURE_DIGESTS = {
        1.0: "04facd53c74a324bc88cd2a117563ebba0db4d1dab01a452a89e4ec1a8184a8b",
        180.0: "48fff111eb75f411b9ca878123c70c5c9985990366ec5fadfc34a88b7459c218",
    }

    @pytest.mark.parametrize("scale", sorted(FEATURE_DIGESTS))
    def test_features_golden_digest(self, tmp_path, trained, scale):
        cfg, data_dir, ckpt = trained
        params = load_checkpoint(ckpt)
        params.W = [scale * w for w in params.W]
        params.lam = scale * params.lam
        scaled = str(tmp_path / "scaled.json")
        save_checkpoint(params, scaled)
        feat_dir = str(tmp_path / "feat")
        assert cli.main(["--config", cfg, "extract", "--checkpoint", scaled,
                         "--data", data_dir, "--out", feat_dir]) == cli.EXIT_OK
        text = read_bytes(os.path.join(feat_dir, "features.csv"))
        assert hashlib.sha256(text).hexdigest() == self.FEATURE_DIGESTS[scale]

    @pytest.mark.parametrize("settings,message", [
        ({"ks": []}, "['eval']['ks'] must be a non-empty list of integers >= 1, got []"),
        ({"ks": [0]}, "['eval']['ks'] must be a non-empty list of integers >= 1, got [0]"),
        ({"ks": [10, -3]},
         "['eval']['ks'] must be a non-empty list of integers >= 1, got [10, -3]"),
        ({"ks": [21, 30]}, "['eval']['ks']: every k exceeds the training-set size 20"),
        ({"test_fraction": 0}, "['eval']['test_fraction'] must be in (0, 1), got 0"),
        ({"test_fraction": 1.5}, "['eval']['test_fraction'] must be in (0, 1), got 1.5"),
        # Inside (0, 1), but rounds to no test sample in any class of 10.
        ({"test_fraction": 0.01},
         "['eval']['test_fraction'] 0.01 leaves one side of the split empty")])
    def test_knn_range_error_names_the_key(self, tmp_path, trained, capsys, settings,
                                           message):
        _, data_dir, ckpt = trained
        cfg = write_config(tmp_path, {"eval": settings}, name="eval.json")
        out = str(tmp_path / "knn")
        assert cli.main(["--config", cfg, "eval-knn", "--checkpoint", ckpt,
                         "--data", data_dir, "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not os.path.exists(out)

    def test_default_ks_range_error(self, tmp_path, trained, capsys):
        # 4 classes of 4 samples leave 8 training rows, fewer than the default
        # ks' smallest, 10. A given config is named even though it left ks
        # at its default; without one, the path is left out.
        _, _, ckpt = trained
        small_dir = str(tmp_path / "small")
        synth_cfg = write_config(tmp_path, {"synth": dict(SMALL_SYNTH, samples_per_class=4)},
                                 name="small.json")
        assert cli.main(["--config", synth_cfg, "--seed", "2", "gen-data",
                         "--out", small_dir]) == cli.EXIT_OK
        capsys.readouterr()
        cfg = write_config(tmp_path, {"train": {"seed": 3}}, name="seed_only.json")
        message = "['eval']['ks']: every k exceeds the training-set size 8"
        for config, prefix in (["--config", cfg], f"{cfg}: "), ([], ""):
            out = str(tmp_path / "knn")
            assert cli.main([*config, "eval-knn", "--checkpoint", ckpt, "--data", small_dir,
                             "--out", out]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {prefix}{message}\n"
            assert not os.path.exists(out)

    @pytest.mark.parametrize("grid_cols", [0, -2])
    def test_grid_cols_range_error_names_the_key(self, tmp_path, trained, capsys,
                                                 grid_cols):
        cfg = write_config(tmp_path, {"eval": {"grid_cols": grid_cols}}, name="eval.json")
        out = str(tmp_path / "filters")
        assert cli.main(["--config", cfg, "render-filters", "--checkpoint", trained[2],
                         "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {cfg}: ['eval']['grid_cols'] must be >= 1, got {grid_cols}\n")
        assert not os.path.exists(out)

    def test_dataset_views_must_match_checkpoint(self, tmp_path, trained, capsys):
        cfg, data_dir, ckpt = trained
        # 12x12 glyphs against a checkpoint trained on 10x10.
        wide_dir = str(tmp_path / "wide")
        wide_cfg = write_config(tmp_path, {"synth": dict(SMALL_SYNTH, image_side=12)},
                                "wide.json")
        assert cli.main(["--config", wide_cfg, "--seed", "2", "gen-data",
                         "--out", wide_dir]) == cli.EXIT_OK
        one_view = os.path.join(data_dir, "arabic.csv")
        cases = [(["--data", wide_dir], "'arabic'"),
                 (["--data", one_view, "--labels",
                   os.path.join(data_dir, "labels.csv")], "'roman'")]
        for command in ("extract", "eval-knn"):
            for data_args, view in cases:
                code = cli.main(["--config", cfg, command, "--checkpoint", ckpt,
                                 *data_args, "--out", str(tmp_path / "o")])
                err = capsys.readouterr().err
                assert code == cli.EXIT_CONFIG, (command, data_args)
                assert view in err

    def test_render_filters(self, tmp_path, trained):
        cfg, _, ckpt = trained
        out = str(tmp_path / "imgs")
        assert cli.main(["--config", cfg, "render-filters",
                         "--checkpoint", ckpt, "--out", out]) == cli.EXIT_OK
        written = os.listdir(out)
        assert written
        assert all(w.startswith("filters_view0_") and w.endswith(".pgm")
                   for w in written)

    def test_empty_selection_is_config_error(self, tmp_path, trained, capsys):
        cfg, data_dir, _ = trained
        # A DWH checkpoint has no view-specific units to select.
        rng = np.random.default_rng(0)
        params = make_tiny_model(rng, kind=StructureKind.DWH, dims=(100, 100))
        ckpt = str(tmp_path / "dwh.json")
        save_checkpoint(params, ckpt)
        sel_cfg = write_config(
            tmp_path, {"eval": {"selection": "specific:arabic"}}, "sel.json")
        code = cli.main(["--config", sel_cfg, "extract", "--checkpoint", ckpt,
                         "--data", data_dir, "--out", str(tmp_path / "f")])
        assert code == cli.EXIT_CONFIG
        assert "no hidden units" in capsys.readouterr().err

    def test_checkpoint_without_theta_is_config_error(self, tmp_path, trained,
                                                      capsys):
        cfg, data_dir, ckpt = trained
        with open(ckpt) as fh:
            doc = json.load(fh)
        del doc["theta"]
        broken = str(tmp_path / "broken.json")
        with open(broken, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["--config", cfg, "extract", "--checkpoint", broken,
                         "--data", data_dir, "--out", str(tmp_path / "f")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "broken.json" in err and "'theta'" in err

    @pytest.mark.parametrize("name", ["config", "checkpoint", "manifest.json",
                                      "labels.csv", "arabic.csv"])
    def test_byte_not_utf8_names_the_file(self, tmp_path, trained, capsys, name):
        cfg, data_dir, ckpt = trained
        path = {"config": cfg, "checkpoint": ckpt}.get(name, os.path.join(data_dir, name))
        Path(path).write_bytes(b"\xff" + read_bytes(path))
        code = cli.main(["--config", cfg, "eval-knn", "--checkpoint", ckpt,
                         "--data", data_dir, "--out", str(tmp_path / "knn")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    @pytest.mark.parametrize("name", ["config", "checkpoint", "manifest.json"])
    def test_deeply_nested_document_names_the_file(self, tmp_path, trained, capsys, name):
        # Nesting past the JSON parser's recursion limit is invalid JSON too.
        cfg, data_dir, ckpt = trained
        path = {"config": cfg, "checkpoint": ckpt}.get(name, os.path.join(data_dir, name))
        Path(path).write_text("[" * 10 ** 5)
        code = cli.main(["--config", cfg, "eval-knn", "--checkpoint", ckpt,
                         "--data", data_dir, "--out", str(tmp_path / "knn")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: ")

    def test_checkpoint_value_of_wrong_type_is_config_error(self, tmp_path, trained,
                                                            capsys):
        cfg, data_dir, ckpt = trained
        with open(ckpt) as fh:
            doc = json.load(fh)
        doc["views"] = 5
        broken = str(tmp_path / "broken.json")
        with open(broken, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["--config", cfg, "extract", "--checkpoint", broken,
                         "--data", data_dir, "--out", str(tmp_path / "f")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "broken.json: ['views'] must be a non-empty list, got 5" in err

    @pytest.mark.parametrize("edit,message", [
        (lambda text: text[:12], "broken.json: invalid JSON: "),
        (lambda text: text.replace('"bernoulli"', '"poisson"', 1),
         "broken.json: ['views'][0]['family'] must be one of ['bernoulli', "
         "'gaussian_unit_variance'], got 'poisson'"),
        # The trained model: 2 views of 100 pixels, 8 hidden units, 1824 values.
        (lambda text: edit_doc(text, lambda doc: doc.update(theta="@@@@")),
         "broken.json: malformed checkpoint: theta is not valid base64"),
        (set_theta(lambda raw: raw[:-8]),
         "broken.json: malformed checkpoint: theta holds 14584 bytes, want 14592 "),
        (set_theta(lambda raw: raw + raw[:8]),
         "broken.json: malformed checkpoint: theta holds 14600 bytes, want 14592 "),
        # A payload for 7 hidden units: 1621 values.
        (set_theta(lambda raw: param_vector(make_tiny_model(
            np.random.default_rng(0), dims=(100, 100), J=7)).tobytes()),
         "broken.json: malformed checkpoint: theta holds 12968 bytes, want 14592 "),
        (lambda text: edit_doc(text, lambda doc: doc.pop("theta")),
         "broken.json: missing key ['theta']")])
    def test_corrupt_checkpoint_names_the_file(self, tmp_path, trained, capsys,
                                               edit, message):
        cfg, data_dir, ckpt = trained
        broken = tmp_path / "broken.json"
        broken.write_text(edit(Path(ckpt).read_text()))
        for command in ("extract", "eval-knn"):
            code = cli.main(["--config", cfg, command, "--checkpoint", str(broken),
                             "--data", data_dir, "--out", str(tmp_path / "f")])
            assert code == cli.EXIT_CONFIG
            assert capsys.readouterr().err.startswith(
                f"error: {os.path.join(str(tmp_path), message)}")

    @pytest.mark.parametrize("name", [5, None, []])
    def test_view_name_not_a_string_is_config_error(self, tmp_path, trained, capsys, name):
        cfg, data_dir, ckpt = trained
        manifest = os.path.join(data_dir, "manifest.json")
        with open(manifest) as fh:
            doc = json.load(fh)
        doc["views"][0]["name"] = name
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        for command, args in (("train", []), ("extract", ["--checkpoint", ckpt]),
                              ("eval-knn", ["--checkpoint", ckpt])):
            code = cli.main(["--config", cfg, "--seed", "2", command, *args,
                             "--data", data_dir, "--out", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG, command
            assert capsys.readouterr().err == (
                f"error: {manifest}: ['views'][0]['name'] must be a non-empty string, "
                f"got {name!r}\n")
        assert not os.path.exists(str(tmp_path / "o"))

    def test_corrupt_manifest_names_the_file(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data_dir = str(tmp_path / "d")
        cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        manifest = os.path.join(data_dir, "manifest.json")
        with open(manifest, "a") as fh:
            fh.write("}")
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data_dir, "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}: invalid JSON: Extra data")

    def test_checkpoint_mask_items_must_be_binary(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        ckpt = str(tmp_path / "mvh.json")
        save_checkpoint(make_tiny_model(rng, StructureKind.MVH), ckpt)
        with open(ckpt) as fh:
            doc = json.load(fh)
        doc["structure"]["mask"] = [["x", 1, 0, 1], [0, 1, 7, 0]]
        with open(ckpt, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["render-filters", "--checkpoint", ckpt,
                         "--out", str(tmp_path / "imgs")])
        assert code == cli.EXIT_CONFIG
        assert "mvh.json: malformed checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("selection", ["specific:5", "specific:-1",
                                           "specific:2", "specific:foo"])
    def test_selection_of_unknown_view_is_config_error(self, tmp_path, trained,
                                                       capsys, selection):
        cfg, data_dir, ckpt = trained
        sel_cfg = write_config(tmp_path, {"eval": {"selection": selection}},
                               "sel.json")
        for command in ("extract", "eval-knn"):
            code = cli.main(["--config", sel_cfg, command, "--checkpoint", ckpt,
                             "--data", data_dir, "--out", str(tmp_path / "f")])
            err = capsys.readouterr().err
            assert code == cli.EXIT_CONFIG, command
            assert err.startswith(f"error: {sel_cfg}: ['eval']['selection']: no view ")
            assert "0 'arabic', 1 'roman'" in err

    @pytest.mark.parametrize("view", [7, 2, -1])
    def test_render_unknown_view_is_config_error(self, tmp_path, trained,
                                                 capsys, view):
        _, _, ckpt = trained
        cfg = write_config(tmp_path, {"eval": {"view": view}}, "view.json")
        code = cli.main(["--config", cfg, "render-filters", "--checkpoint", ckpt,
                         "--out", str(tmp_path / "imgs")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"error: {cfg}: ['eval']['view']: no view {view}")
        assert "0 'arabic', 1 'roman'" in err
        assert not os.path.exists(str(tmp_path / "imgs"))

    def test_unknown_selection(self, tmp_path, trained, capsys):
        cfg, data_dir, ckpt = trained
        sel_cfg = write_config(tmp_path, {"eval": {"selection": "best"}},
                               "sel2.json")
        code = cli.main(["--config", sel_cfg, "extract", "--checkpoint", ckpt,
                         "--data", data_dir, "--out", str(tmp_path / "f")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {sel_cfg}: ['eval']['selection'] must be 'all', 'shared' or "
            f"'specific:<view>', got 'best'\n")

    def test_render_non_square_view(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        params = make_tiny_model(rng, dims=(3, 4))
        ckpt = str(tmp_path / "ns.json")
        save_checkpoint(params, ckpt)
        code = cli.main(["render-filters", "--checkpoint", ckpt,
                         "--out", str(tmp_path / "imgs")])
        assert code == cli.EXIT_CONFIG
        assert "perfect square" in capsys.readouterr().err


class TestExperiment:
    def test_recipe_runs(self, tmp_path, capsys):
        # README "Experiment": one gen-data, then train, eval-knn and
        # render-filters under an SA config and an all-shared DWH config; here
        # at 1 epoch and 8 hidden units, with ks 1 and 3, and each view's
        # filters rendered by setting eval.view.
        data_dir = str(tmp_path / "data")
        assert cli.main(["--seed", "5", "gen-data", "--out", data_dir]) == cli.EXIT_OK
        for name in ("sa", "dwh"):
            run_dir = tmp_path / "results" / name
            ckpt = str(run_dir / "checkpoint.json")
            doc = {"model": {"structure": name, "hidden_dim": 8}, "train": {"epochs": 1},
                   "eval": {"ks": [1, 3]}}
            cfg = write_config(tmp_path, doc, f"{name}.json")
            assert cli.main(["--config", cfg, "--seed", "5", "train", "--data", data_dir,
                             "--out", str(run_dir)]) == cli.EXIT_OK
            assert cli.main(["--config", cfg, "eval-knn", "--checkpoint", ckpt,
                             "--data", data_dir, "--out", str(run_dir)]) == cli.EXIT_OK
            for view in (0, 1):
                cfg = write_config(tmp_path, dict(doc, eval={"view": view}), f"{name}.json")
                assert cli.main(["--config", cfg, "render-filters", "--checkpoint", ckpt,
                                 "--out", str(run_dir)]) == cli.EXIT_OK
                assert list(run_dir.glob(f"filters_view{view}_*.pgm")), (name, view)
            for artifact in ("checkpoint.json", "trainlog.csv", "knn_accuracy.csv"):
                assert (run_dir / artifact).is_file(), (name, artifact)
            lines = (run_dir / "knn_accuracy.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines] == ["k", "1", "3"]
        assert "shared=" in capsys.readouterr().out
