"""Command-line interface for the full pipeline.

Subcommands: gen-data, train, grad-check, extract, eval-knn, render-filters.
Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 training
divergence, 5 gradient-check failure.

All randomness flows from one seed through named substreams (data, init,
cd), so every command is reproducible byte-for-byte.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from . import model as model_mod
from . import training as train_mod
from .expfam import Family

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_CHECK_FAILED = 5


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "synth": {
        "num_classes": 10,
        "image_side": 12,
        "samples_per_class": 200,
        "noise_lines_per_image": 2,
        "jitter": 1,
        "seed": None,
    },
    "model": {
        "hidden_dim": 60,
        "hidden_family": "bernoulli",
        "structure": "sa",
        "mvh_mask": None,
    },
    "views": None,  # optional list of {name, dim, family} for raw CSV input
    "train": {
        "learning_rate": 0.1,
        "momentum": 0.9,
        "cd_steps": 1,
        "epochs": 150,
        "batch_size": 20,
        "seed": None,
        "switch_lr_scale": 2.0,
        "weight_decay": 0.0,
    },
    "eval": {
        "ks": [10, 30, 50, 70, 100],
        "test_fraction": 0.5,
        "selection": "all",
        "knn_seed": 0,
        "grid_cols": 8,
        "view": 0,
    },
    "grad_check": {
        "num_models": 20,
        "step": 1e-5,
        "tolerance": 1e-5,
        "seed": 0,
        "structure": "sa",
    },
}


# Keys whose default is null, and the JSON type a non-null value must have.
_NULLABLE = {"seed": int, "mvh_mask": list, "views": list}
_JSON_NAMES = {int: "integer", float: "number", str: "string", list: "list"}


def _is_json_type(value, want: type) -> bool:
    """isinstance for JSON values: an integer is a number, a boolean is not
    an integer."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if want is float else want)


def _check_type(path: str, where: str, key: str, value, default) -> None:
    """Raise a ConfigError unless value has the JSON type of its default
    (for a list, the type of each of the default's items)."""
    if default is None:
        want = _NULLABLE[key]
        ok = value is None or _is_json_type(value, want)
        expected = f"{_JSON_NAMES[want]} or null"
    elif isinstance(default, list):
        item = type(default[0])
        ok = isinstance(value, list) and all(_is_json_type(v, item) for v in value)
        expected = f"list of {_JSON_NAMES[item]}s"
    else:
        ok = _is_json_type(value, type(default))
        expected = _JSON_NAMES[type(default)]
    if not ok:
        raise ConfigError(f"{path}: {where}: expected {expected}, got {value!r}")


def load_config(path: str | None) -> dict:
    """Merge a JSON config over the defaults; unknown keys and values whose
    type differs from the default's are an error."""
    merged = {sec: (dict(v) if isinstance(v, dict) else v)
              for sec, v in _DEFAULTS.items()}
    if path is None:
        return merged
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for section, values in user.items():
        if section not in merged:
            raise ConfigError(f"{path}: unknown config section {section!r}")
        if section == "views":
            _check_type(path, "views", "views", values, None)
            merged["views"] = values
            continue
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        for key, val in values.items():
            if key not in merged[section]:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in section {section!r}")
            _check_type(path, f"{section}.{key}", key, val, _DEFAULTS[section][key])
            merged[section][key] = val
    return merged


def _substreams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(3)
    return {name: np.random.default_rng(ss)
            for name, ss in zip(("data", "init", "cd"), children)}


def _require_seed(value, flag_seed):
    if flag_seed is not None:
        return int(flag_seed)
    if value is None:
        raise ConfigError("a seed is required (config seed or --seed)")
    return int(value)


def _structure_from_config(cfg: dict, num_views: int,
                           hidden_dim: int) -> model_mod.StructureMode:
    kind = cfg["structure"]
    if kind == "dwh":
        return model_mod.StructureMode(model_mod.StructureKind.DWH)
    if kind == "sa":
        return model_mod.StructureMode(model_mod.StructureKind.SA)
    if kind == "mvh":
        mask = cfg["mvh_mask"]
        if mask is None:
            raise ConfigError("structure 'mvh' requires model.mvh_mask")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (num_views, hidden_dim):
            raise ConfigError(
                f"mvh_mask shape {mask.shape} does not match "
                f"(views={num_views}, hidden_dim={hidden_dim})")
        return model_mod.StructureMode(model_mod.StructureKind.MVH, mask)
    raise ConfigError(f"unknown structure mode {kind!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    config = load_config(args.config)
    synth = dict(config["synth"])
    synth["seed"] = _require_seed(synth["seed"], args.seed)
    try:
        synth_cfg = data_mod.SynthConfig(**synth)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dataset = data_mod.generate_synthetic_paired(synth_cfg)

    os.makedirs(args.out, exist_ok=True)
    view_files = [f"{v.name}.csv" for v in dataset.views]
    paths = [os.path.join(args.out, f) for f in view_files]
    label_file = "labels.csv"
    data_mod.save_multiview_csv(dataset, paths,
                                os.path.join(args.out, label_file))
    data_mod.save_manifest(dataset, os.path.join(args.out, "manifest.json"),
                           seed=synth_cfg.seed, view_files=view_files,
                           label_file=label_file)
    print(f"wrote {dataset.num_samples} samples to {args.out}")
    return EXIT_OK


def _load_data_arg(args, config) -> data_mod.MultiViewDataset:
    if os.path.isdir(args.data):
        return data_mod.load_dataset_dir(args.data)
    # Comma-separated CSV paths; families from the optional views section.
    paths = args.data.split(",")
    views_cfg = config.get("views")
    families = names = None
    if views_cfg:
        source = f"{args.config}: section 'views'"
        families = [Family(model_mod.require_key(views_cfg, [i, "family"], source))
                    for i in range(len(views_cfg))]
        names = [model_mod.require_key(views_cfg, [i, "name"], source)
                 for i in range(len(views_cfg))]
    return data_mod.load_multiview_csv(paths, args.labels,
                                       families=families, names=names)


def cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = _load_data_arg(args, config)

    tr = dict(config["train"])
    tr["seed"] = _require_seed(tr["seed"], args.seed)
    train_cfg = train_mod.TrainConfig(**tr)
    streams = _substreams(train_cfg.seed)

    mcfg = config["model"]
    structure = _structure_from_config(mcfg, dataset.num_views, mcfg["hidden_dim"])
    params = model_mod.init_params(
        views=dataset.views,
        hidden_dim=mcfg["hidden_dim"],
        hidden_family=Family(mcfg["hidden_family"]),
        structure=structure,
        rng=streams["init"],
    )

    params, log = train_mod.train(params, dataset, train_cfg, rng=streams["cd"])

    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.json")
    model_mod.save_checkpoint(params, ckpt)
    with open(os.path.join(args.out, "trainlog.csv"), "w") as fh:
        fh.write(log.to_csv())
    report = model_mod.structure_report(params)
    print(report.summary_line())
    return EXIT_OK


def cmd_grad_check(args) -> int:
    config = load_config(args.config)
    gc = config["grad_check"]
    rng = np.random.default_rng(gc["seed"])
    tol = gc["tolerance"]

    kind = model_mod.StructureKind(gc["structure"])
    worst = {"W": 0.0, "xi": 0.0, "lam": 0.0, "s": 0.0}
    worst_coord = None
    skip_ds = kind is not model_mod.StructureKind.SA

    for trial in range(gc["num_models"]):
        params = model_mod.make_tiny_model(rng, kind)
        data = model_mod.make_binary_data(params, rng, n=6)
        exact = train_mod.exact_gradient(params, data)
        if args.self_test_break_sign:
            exact.dlam *= -1.0
        fd = train_mod.finite_diff_gradient(params, data, step=gc["step"])
        pairs = [("W", exact.dW, fd.dW), ("xi", exact.dxi, fd.dxi),
                 ("lam", [exact.dlam], [fd.dlam])]
        if not skip_ds:
            pairs.append(("s", [exact.ds], [fd.ds]))
        for name, a_list, b_list in pairs:
            for a, b in zip(a_list, b_list):
                denom = np.maximum(np.abs(b), 1e-3)
                rel = np.abs(a - b) / denom
                idx = int(np.argmax(rel))
                if rel.ravel()[idx] > worst[name]:
                    worst[name] = float(rel.ravel()[idx])
                    worst_coord = (name, trial, np.unravel_index(idx, np.asarray(a).shape))

    for name, err in worst.items():
        if name == "s" and skip_ds:
            print(f"{name}: skipped (frozen structure)")
        else:
            print(f"{name}: max relative error {err:.3e}")
    failed = any(err > tol for name, err in worst.items()
                 if not (name == "s" and skip_ds))
    if failed:
        print(f"FAIL: worst offender {worst_coord}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _load_eval_inputs(args, config):
    dataset = _load_data_arg(args, config)
    params = model_mod.load_checkpoint(args.checkpoint)
    return dataset, params


def _parse_selection(selection, dataset):
    if selection in ("all", "shared"):
        return selection
    if selection.startswith("specific:"):
        token = selection.split(":", 1)[1]
        names = [v.name for v in dataset.views]
        if token in names:
            return ("specific", names.index(token))
        return ("specific", int(token))
    raise ConfigError(f"unknown selection {selection!r}")


def cmd_extract(args) -> int:
    config = load_config(args.config)
    dataset, params = _load_eval_inputs(args, config)
    selection = _parse_selection(config["eval"]["selection"], dataset)
    features = eval_mod.extract_features(params, dataset, selection)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "features.csv")
    data_mod.save_matrix_csv(out_path, features.values)
    print(f"wrote {features.values.shape[0]}x{features.values.shape[1]} "
          f"features to {out_path}")
    return EXIT_OK


def cmd_eval_knn(args) -> int:
    config = load_config(args.config)
    dataset, params = _load_eval_inputs(args, config)
    if dataset.labels is None:
        raise ConfigError("eval-knn requires a labeled dataset")
    ecfg = config["eval"]
    selection = _parse_selection(ecfg["selection"], dataset)
    train_set, test_set = data_mod.train_test_split(
        dataset, ecfg["test_fraction"], ecfg["knn_seed"])
    tr_feat = eval_mod.extract_features(params, train_set, selection)
    te_feat = eval_mod.extract_features(params, test_set, selection)
    ks = [k for k in ecfg["ks"] if k <= tr_feat.values.shape[0]]
    if not ks:
        raise ConfigError("all k values exceed the training-set size")
    rows = eval_mod.knn_sweep(tr_feat, train_set.labels, te_feat,
                              test_set.labels, ks)
    print(eval_mod.format_sweep_table(rows))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "knn_accuracy.csv"), "w") as fh:
        fh.write(eval_mod.sweep_to_csv(rows))
    return EXIT_OK


def cmd_render_filters(args) -> int:
    config = load_config(args.config)
    params = model_mod.load_checkpoint(args.checkpoint)
    ecfg = config["eval"]
    try:
        written = eval_mod.export_filter_images(
            params, ecfg["view"], args.out, grid_cols=ecfg["grid_cols"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samvh",
        description="Structure-adapting multi-view harmonium pipeline")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic paired dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a harmonium")
    p.add_argument("--data", required=True,
                   help="dataset directory or comma-separated CSV paths")
    p.add_argument("--labels", default=None, help="label file for raw CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grad-check",
                       help="verify exact gradients against finite differences")
    p.add_argument("--self-test-break-sign", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_grad_check)

    for name, func in (("extract", cmd_extract), ("eval-knn", cmd_eval_knn)):
        p = sub.add_parser(name)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--labels", default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("render-filters", help="export learned filters as PGM grids")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render_filters)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except train_mod.TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
