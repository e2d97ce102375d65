import json
import os

import numpy as np
import pytest

from samvh import cli
from samvh.data import load_dataset_dir
from samvh.expfam import Family
from samvh.model import (
    StructureKind,
    StructureMode,
    init_params,
    load_checkpoint,
    make_tiny_model,
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
        open(path, "w").write("{not json")
        code = cli.main(["--config", path, "--seed", "0", "gen-data",
                         "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_value_of_wrong_type_named(self, tmp_path, capsys):
        cases = [({"train": {"epochs": "ten"}}, "train.epochs"),
                 ({"train": {"batch_size": True}}, "train.batch_size"),
                 ({"train": {"epochs": 3.0}}, "train.epochs"),
                 ({"synth": {"seed": "7"}}, "synth.seed"),
                 ({"eval": {"ks": [10, "30"]}}, "eval.ks"),
                 ({"eval": {"test_fraction": None}}, "eval.test_fraction"),
                 ({"model": {"mvh_mask": "all"}}, "model.mvh_mask"),
                 ({"views": {"name": "a"}}, "views")]
        for doc, where in cases:
            cfg = write_config(tmp_path, doc)
            code = cli.main(["--config", cfg, "--seed", "0", "gen-data",
                             "--out", str(tmp_path / "d")])
            assert code == cli.EXIT_CONFIG, doc
            assert f": {where}: expected " in capsys.readouterr().err

    def test_int_for_number_and_null_seed_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"synth": dict(SMALL_SYNTH, seed=None),
                                      "train": {"learning_rate": 1, "seed": None},
                                      "model": {"mvh_mask": None}})
        config = cli.load_config(cfg)
        assert config["train"]["learning_rate"] == 1
        assert cli.main(["--config", cfg, "--seed", "0", "gen-data",
                         "--out", str(tmp_path / "d")]) == cli.EXIT_OK

    def test_seed_required(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--out", str(tmp_path / "d")])
        assert code == cli.EXIT_CONFIG
        assert "seed" in capsys.readouterr().err


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
        log = open(os.path.join(runs[0], "trainlog.csv")).read().splitlines()
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
        assert "manifest.json: malformed manifest" in err

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

    def test_bad_mvh_mask_shape(self, tmp_path, capsys):
        cfg = small_config(
            tmp_path,
            model={"hidden_dim": 8, "structure": "mvh", "mvh_mask": [[1, 0]]})
        data_dir = str(tmp_path / "d")
        cli.main(["--config", cfg, "--seed", "1", "gen-data", "--out", data_dir])
        code = cli.main(["--config", cfg, "--seed", "1", "train",
                         "--data", data_dir, "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_CONFIG
        assert "mvh_mask" in capsys.readouterr().err


class TestGradCheck:
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

    def test_broken_sign_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grad_check": {"num_models": 2}})
        code = cli.main(["--config", cfg, "grad-check",
                         "--self-test-break-sign"])
        assert code == cli.EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().err


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
        lines = open(os.path.join(knn_dir, "knn_accuracy.csv")).read().splitlines()
        assert lines[0] == "k,accuracy"
        assert lines[1].startswith("10,")
        assert "accuracy" in capsys.readouterr().out

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

    def test_checkpoint_without_arrays_is_config_error(self, tmp_path, trained,
                                                       capsys):
        cfg, data_dir, ckpt = trained
        with open(ckpt) as fh:
            doc = json.load(fh)
        del doc["arrays"]
        broken = str(tmp_path / "broken.json")
        with open(broken, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["--config", cfg, "extract", "--checkpoint", broken,
                         "--data", data_dir, "--out", str(tmp_path / "f")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "broken.json" in err and "'arrays'" in err

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
        assert "broken.json: malformed checkpoint" in capsys.readouterr().err

    def test_unknown_selection(self, tmp_path, trained, capsys):
        cfg, data_dir, ckpt = trained
        sel_cfg = write_config(tmp_path, {"eval": {"selection": "best"}},
                               "sel2.json")
        code = cli.main(["--config", sel_cfg, "extract", "--checkpoint", ckpt,
                         "--data", data_dir, "--out", str(tmp_path / "f")])
        assert code == cli.EXIT_CONFIG

    def test_render_non_square_view(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        params = make_tiny_model(rng, dims=(3, 4))
        ckpt = str(tmp_path / "ns.json")
        save_checkpoint(params, ckpt)
        code = cli.main(["render-filters", "--checkpoint", ckpt,
                         "--out", str(tmp_path / "imgs")])
        assert code == cli.EXIT_CONFIG
        assert "perfect square" in capsys.readouterr().err
