"""Command-line interface for the full pipeline.

Subcommands: gen-data, train, grad-check, extract, eval-knn, render-filters.
Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 training
divergence, 5 gradient-check failure.

All randomness flows from one seed through named substreams (data, init,
cd), so every command is reproducible byte-for-byte.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from . import model as model_mod
from . import training as train_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_CHECK_FAILED = 5


class ConfigError(ValueError):
    def __init__(self, message: str, path: str | None = None):
        """message, after the path of the config file if one is given."""
        super().__init__(f"{path}: {message}" if path else message)


def _settings_defaults(cls) -> dict:
    """The field defaults of a settings dataclass, with seed null (see _settings)."""
    return {f.name: None if f.name == "seed" else f.default
            for f in dataclasses.fields(cls)}


_DEFAULTS = {
    "synth": _settings_defaults(data_mod.SynthConfig),
    "model": {
        "hidden_dim": 60,
        "hidden_family": "bernoulli",
        "structure": "sa",
        "mvh_mask": None,
    },
    "views": None,  # optional list of {name, family[, dim]}, one per raw CSV file
    "train": _settings_defaults(train_mod.TrainConfig),
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
        raise ConfigError(f"{where}: expected {expected}, got {value!r}", path)


def load_config(path: str | None) -> dict:
    """Merge a JSON config over the defaults; unknown keys and values whose
    type differs from the default's are an error."""
    merged = {sec: (dict(v) if isinstance(v, dict) else v)
              for sec, v in _DEFAULTS.items()}
    if path is None:
        return merged
    user = model_mod.read_json(path)
    if not isinstance(user, dict):
        raise ConfigError("top level must be an object", path)
    for section, values in user.items():
        if section not in merged:
            raise ConfigError(f"unknown config section {section!r}", path)
        if section == "views":
            _check_type(path, "views", "views", values, None)
            for i, record in enumerate(values or []):
                for key in record if isinstance(record, dict) else ():
                    if key not in ("name", "dim", "family"):
                        raise ConfigError(f"unknown key {key!r} in ['views'][{i}]", path)
            merged["views"] = values
            continue
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be an object", path)
        for key, val in values.items():
            if key not in merged[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section {section!r}", path)
            _check_type(path, f"{section}.{key}", key, val, _DEFAULTS[section][key])
            merged[section][key] = val
    return merged


def _substreams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(3)
    return {name: np.random.default_rng(ss)
            for name, ss in zip(("data", "init", "cd"), children)}


def _seed(path: str | None, source: str, seed: int) -> int:
    """seed, or a ConfigError naming its source (numpy takes no negative seed)."""
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}", path)
    return seed


def _settings(cls, path: str | None, config: dict, key: str, flag_seed):
    """A settings dataclass from the config section key. The seed comes from
    --seed, else from the config, and one is required. A range error names
    the config file and the key, e.g. `train.cd_steps must be >= 1, got 0`."""
    section = config[key]
    if flag_seed is not None:
        seed = _seed(None, "--seed", flag_seed)
    elif section["seed"] is None:
        raise ConfigError("a seed is required (config seed or --seed)", path)
    else:
        seed = _seed(path, f"{key}.seed", section["seed"])
    try:
        return cls(**{**section, "seed": seed})
    except ValueError as exc:
        raise ConfigError(f"{key}.{exc}", path) from None


def _structure_from_config(path: str | None, config: dict,
                           num_views: int) -> model_mod.StructureMode:
    """The model section's structure; a fault names the config file."""
    cfg = config["model"]
    kind = model_mod.require_key(config, ["model", "structure"], path, model_mod.StructureKind)
    if kind is not model_mod.StructureKind.MVH:
        return model_mod.StructureMode(kind)
    try:
        structure = model_mod.StructureMode(kind, cfg["mvh_mask"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.mvh_mask: {exc}", path) from None
    if structure.mask.shape != (num_views, cfg["hidden_dim"]):
        raise ConfigError(
            f"model.mvh_mask shape {structure.mask.shape} does not match "
            f"(views={num_views}, hidden_dim={cfg['hidden_dim']})", path)
    return structure


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    config = load_config(args.config)
    synth_cfg = _settings(data_mod.SynthConfig, args.config, config, "synth", args.seed)
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
    # Comma-separated CSV paths, each described by one entry of the optional
    # views section: a name, a family and, if given, the column count.
    paths, entries = args.data.split(","), config["views"]
    if entries is None:
        return data_mod.load_multiview_csv(paths, args.labels)
    if len(entries) != len(paths):
        raise ConfigError(f"['views'] has {len(entries)} entries for "
                          f"the {len(paths)} files {args.data}", args.config)
    names, families = model_mod.require_views(config, args.config)
    dims = [model_mod.require_key(config, ["views", i, "dim"], args.config, int)
            if "dim" in entry else None for i, entry in enumerate(entries)]
    dataset = data_mod.load_multiview_csv(paths, args.labels, families=families, names=names)
    for i, (dim, view) in enumerate(zip(dims, dataset.views)):
        if dim not in (None, view.dim):
            raise ConfigError(f"['views'][{i}]['dim'] is {dim}, but "
                              f"{paths[i]} has {view.dim} columns", args.config)
    return dataset


def cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = _load_data_arg(args, config)

    train_cfg = _settings(train_mod.TrainConfig, args.config, config, "train", args.seed)
    streams = _substreams(train_cfg.seed)

    mcfg = config["model"]
    if mcfg["hidden_dim"] < 1:
        raise ConfigError(f"model.hidden_dim must be >= 1, got {mcfg['hidden_dim']}",
                          args.config)
    structure = _structure_from_config(args.config, config, dataset.num_views)
    params = model_mod.init_params(
        views=dataset.views,
        hidden_dim=mcfg["hidden_dim"],
        hidden_family=model_mod.require_key(config, ["model", "hidden_family"], args.config,
                                            model_mod.Family),
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
    if gc["num_models"] < 1:
        raise ConfigError(f"grad_check.num_models must be >= 1, got {gc['num_models']}",
                          args.config)
    if not gc["tolerance"] > 0:
        raise ConfigError(f"grad_check.tolerance must be > 0, got {gc['tolerance']}",
                          args.config)
    lo, hi = train_mod.FD_STEP_MIN, train_mod.FD_STEP_MAX
    if not lo <= gc["step"] <= hi:
        raise ConfigError(f"grad_check.step must be in [{lo:g}, {hi:g}], got {gc['step']}",
                          args.config)
    kind = model_mod.require_key(config, ["grad_check", "structure"], args.config,
                                 model_mod.StructureKind)
    rng = np.random.default_rng(_seed(args.config, "grad_check.seed", gc["seed"]))
    worst = dict.fromkeys(model_mod.PARAM_GROUPS, 0.0)
    worst_at = {}  # group -> (model, theta offset)

    for trial in range(gc["num_models"]):
        params = model_mod.make_tiny_model(rng, kind)
        data = model_mod.make_binary_data(params, rng, n=6)
        exact = train_mod.exact_gradient(params, data)
        fd = train_mod.finite_diff_gradient(params, data, step=gc["step"])
        rel = np.abs(exact.vec - fd.vec) / np.maximum(np.abs(fd.vec), 1e-3)
        ends = model_mod.param_group_ends([v.dim for v in params.views],
                                          params.hidden_dim)
        for name, start, end in zip(model_mod.PARAM_GROUPS, [0, *ends], ends):
            i = start + int(np.argmax(rel[start:end]))
            if rel[i] > worst[name]:
                worst[name], worst_at[name] = float(rel[i]), (trial, i)

    if kind is not model_mod.StructureKind.SA:
        del worst["s"]  # the switch logits are frozen
    for name in model_mod.PARAM_GROUPS:
        print(f"{name}: max relative error {worst[name]:.3e}" if name in worst
              else f"{name}: skipped (frozen structure)")
    name = max(worst, key=worst.get)
    if worst[name] > gc["tolerance"]:
        trial, offset = worst_at[name]
        print(f"FAIL: worst offender: group {name}, model {trial}, theta offset "
              f"{offset}, relative error {worst[name]:.3e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _view_index(path: str | None, key: str, token, views) -> int:
    """The index of a view given by name or by index, or a ConfigError that
    names the config file and key and lists the views."""
    names = [v.name for v in views]
    if token in names:
        return names.index(token)
    if str(token).isdecimal() and int(token) < len(names):
        return int(token)
    listed = ", ".join(f"{i} {n!r}" for i, n in enumerate(names))
    raise ConfigError(f"{key}: no view {token!r}; the views are {listed}", path)


def _parse_selection(path: str | None, selection, dataset):
    if selection in ("all", "shared"):
        return selection
    if selection.startswith("specific:"):
        return ("specific", _view_index(path, "eval.selection", selection.split(":", 1)[1],
                                        dataset.views))
    raise ConfigError(f"eval.selection: unknown selection {selection!r}", path)


def cmd_extract(args) -> int:
    config = load_config(args.config)
    dataset = _load_data_arg(args, config)
    params = model_mod.load_checkpoint(args.checkpoint)
    selection = _parse_selection(args.config, config["eval"]["selection"], dataset)
    features = eval_mod.extract_features(params, dataset, selection)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "features.csv")
    data_mod.save_matrix_csv(out_path, features.values)
    print(f"wrote {features.values.shape[0]}x{features.values.shape[1]} "
          f"features to {out_path}")
    return EXIT_OK


def cmd_eval_knn(args) -> int:
    config = load_config(args.config)
    dataset = _load_data_arg(args, config)
    params = model_mod.load_checkpoint(args.checkpoint)
    if dataset.labels is None:
        raise ConfigError(f"eval-knn requires a labeled dataset, but {args.data} has no labels")
    ecfg = config["eval"]
    selection = _parse_selection(args.config, ecfg["selection"], dataset)
    if not ecfg["ks"]:
        raise ConfigError("eval.ks is empty", args.config)
    if min(ecfg["ks"]) < 1:
        raise ConfigError(f"eval.ks values must be >= 1, got {min(ecfg['ks'])}", args.config)
    seed = _seed(args.config, "eval.knn_seed", ecfg["knn_seed"])
    try:
        train_set, test_set = data_mod.train_test_split(dataset, ecfg["test_fraction"], seed)
    except data_mod.SplitFractionError as exc:  # names test_fraction and its value
        raise ConfigError(f"eval.{exc}", args.config) from None
    tr_feat = eval_mod.extract_features(params, train_set, selection)
    te_feat = eval_mod.extract_features(params, test_set, selection)
    ks = [k for k in ecfg["ks"] if k <= tr_feat.values.shape[0]]
    if not ks:
        raise ConfigError(f"eval.ks: every k exceeds the training-set size "
                          f"{tr_feat.values.shape[0]}", args.config)
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
    view = _view_index(args.config, "eval.view", ecfg["view"], params.views)
    if ecfg["grid_cols"] < 1:
        raise ConfigError(f"eval.grid_cols must be >= 1, got {ecfg['grid_cols']}", args.config)
    written = eval_mod.export_filter_images(
        params, view, args.out, grid_cols=ecfg["grid_cols"])
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
