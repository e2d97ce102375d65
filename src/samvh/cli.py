"""Command-line interface for the full pipeline.

Subcommands: gen-data, train, grad-check, extract, eval-knn, render-filters.
Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 training
divergence, 5 gradient-check failure.

Every command is reproducible byte-for-byte and rejects a negative --seed.
--seed overrides the config seed of gen-data (the generator's) and of train
(which spawns its init and cd substreams from it); grad-check and eval-knn
draw from their own config seeds, and extract and render-filters draw nothing.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from enum import Enum

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
        "hidden_family": model_mod.Family.BERNOULLI,
        "structure": model_mod.StructureKind.SA,
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
        "structure": model_mod.StructureKind.SA,
    },
}

# By key name, the range rule (as errors state it) and its test of each value
# that neither SynthConfig nor TrainConfig checks; a seed is >= 0 when set.
_RANGES = {
    "seed": (">= 0", lambda v: v >= 0),
    "hidden_dim": (">= 1", lambda v: v >= 1),
    "ks": ("a non-empty list of integers >= 1", lambda v: v != [] and min(v) >= 1),
    "test_fraction": ("in (0, 1)", lambda v: 0 < v < 1),
    "selection": ("'all', 'shared' or 'specific:<view>'",
                  lambda v: v in ("all", "shared") or v.startswith("specific:")),
    "knn_seed": (">= 0", lambda v: v >= 0),
    "grid_cols": (">= 1", lambda v: v >= 1),
    "num_models": (">= 1", lambda v: v >= 1),
    "step": (f"in [{train_mod.FD_STEP_MIN:g}, {train_mod.FD_STEP_MAX:g}]",
             lambda v: train_mod.FD_STEP_MIN <= v <= train_mod.FD_STEP_MAX),
    "tolerance": ("> 0", lambda v: v > 0),
}

# Keys whose default is null, and the JSON type a non-null value must have.
_NULLABLE = {"seed": int, "mvh_mask": list, "views": list}
_JSON_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), list: ("a list", "lists")}


def _is_json_type(value, want: type) -> bool:
    """isinstance for JSON values: an integer is a number, a boolean is not
    an integer."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if want is float else want)


def _check_value(path: str, keys: list, value, default) -> None:
    """Raise a ConfigError unless value has the JSON type of its default
    (for a list, the type of each of the default's items) and, unless null,
    keeps the range rule of its key."""
    if default is None:
        want = _NULLABLE[keys[-1]]
        ok = value is None or _is_json_type(value, want)
        expected = f"{_JSON_NAMES[want][0]} or null"
    elif isinstance(default, list):
        item = type(default[0])
        ok = isinstance(value, list) and all(_is_json_type(v, item) for v in value)
        expected = f"a list of {_JSON_NAMES[item][1]}"
    else:
        ok = _is_json_type(value, type(default))
        expected = _JSON_NAMES[type(default)][0]
    if not ok:
        raise ConfigError(f"{model_mod.key_path(keys)} must be {expected}, got {value!r}", path)
    rule, test = _RANGES.get(keys[-1], ("", None))
    if value is not None and test and not test(value):
        raise ConfigError(f"{model_mod.key_path(keys)} must be {rule}, got {value!r}", path)


def load_config(path: str | None) -> dict:
    """The defaults merged with a JSON config, after checking every rule that
    needs no data or checkpoint; a fault is a ConfigError naming the file and
    the key path. Enum names become members, and an MVH mask a bool array."""
    merged = {sec: (dict(v) if isinstance(v, dict) else v)
              for sec, v in _DEFAULTS.items()}
    user = {} if path is None else model_mod.read_json(path)
    if not isinstance(user, dict):
        raise ConfigError("top level must be an object", path)
    for section, values in user.items():
        if section not in merged:
            raise ConfigError(f"unknown config section {section!r}", path)
        if section == "views":
            _check_value(path, ["views"], values, None)
            merged["views"] = values
            continue
        if not isinstance(values, dict):
            raise ConfigError(f"{model_mod.key_path([section])} must be an object, "
                              f"got {values!r}", path)
        for key, val in values.items():
            if key not in merged[section]:
                raise ConfigError(
                    f"unknown key {key!r} in {model_mod.key_path([section])}", path)
            default = _DEFAULTS[section][key]
            if isinstance(default, Enum):  # the name of a member, which replaces it
                val = model_mod.require_key(user, [section, key], path, type(default))
            else:
                _check_value(path, [section, key], val, default)
            merged[section][key] = val

    for section, cls in (("synth", data_mod.SynthConfig), ("train", train_mod.TrainConfig)):
        try:
            cls(**merged[section])
        except ValueError as exc:  # whose message starts with the field's name
            field, _, rest = str(exc).partition(" ")
            raise ConfigError(f"{model_mod.key_path([section, field])} {rest}", path) from None

    model = merged["model"]
    if model["structure"] is model_mod.StructureKind.MVH:
        try:
            mask = model_mod.StructureMode(model["structure"], model["mvh_mask"]).mask
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"['model']['mvh_mask']: {exc}", path) from None
        if mask.shape[1] != model["hidden_dim"]:
            raise ConfigError(f"['model']['mvh_mask'] has {mask.shape[1]} columns, but "
                              f"['model']['hidden_dim'] is {model['hidden_dim']}", path)
        model["mvh_mask"] = mask

    if merged["views"] is not None:
        _, families = model_mod.require_views(merged, path)
        for i, record in enumerate(merged["views"]):
            unknown = sorted(record.keys() - {"name", "dim", "family"})
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r} in ['views'][{i}]", path)
            if "dim" in record:
                model_mod.require_key(merged, ["views", i, "dim"], path, int)
            record["family"] = families[i]
    return merged


def _substreams(seed: int) -> dict[str, np.random.Generator]:
    """train's init and cd generators: children 1 and 2 of three (0 is unused)."""
    _, init, cd = np.random.SeedSequence(seed).spawn(3)
    return {"init": np.random.default_rng(init), "cd": np.random.default_rng(cd)}


def _settings(cls, path: str | None, config: dict, key: str, flag_seed):
    """A settings dataclass from the config section key. The seed comes from
    --seed, else from the config, and one is required."""
    seed = config[key]["seed"] if flag_seed is None else flag_seed
    if seed is None:
        raise ConfigError("a seed is required (config seed or --seed)", path)
    return cls(**{**config[key], "seed": seed})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    config = load_config(args.config)
    synth_cfg = _settings(data_mod.SynthConfig, args.config, config, "synth", args.seed)
    dataset = data_mod.generate_synthetic_paired(synth_cfg)
    data_mod.save_dataset_dir(dataset, args.out, synth_cfg.seed)
    print(f"wrote {dataset.num_samples} samples to {args.out}")
    return EXIT_OK


def _load_data_arg(args, config) -> data_mod.MultiViewDataset:
    if os.path.isdir(args.data):
        if args.labels is not None:
            raise ConfigError(f"--labels {args.labels} cannot be given with the dataset "
                              f"directory {args.data}, whose manifest names its labels")
        return data_mod.load_dataset_dir(args.data)
    # Comma-separated CSV paths, each described by one entry of the views
    # section (a name, a family and, if given, the column count); without
    # one, Gaussian views named view0, view1, ....
    paths, entries = args.data.split(","), config["views"]
    if entries is None:
        entries = [{"name": f"view{k}", "family": model_mod.Family.GAUSSIAN_UNIT_VARIANCE}
                   for k in range(len(paths))]
    if len(entries) != len(paths):
        raise ConfigError(f"['views'] has {len(entries)} entries for "
                          f"the {len(paths)} files {args.data}", args.config)
    families = [e["family"] for e in entries]
    dataset = data_mod.load_multiview_csv(paths, args.labels, families=families,
                                          names=[e["name"] for e in entries])
    for i, (entry, view) in enumerate(zip(entries, dataset.views)):
        if entry.get("dim", view.dim) != view.dim:
            raise ConfigError(f"['views'][{i}]['dim'] is {entry['dim']}, but "
                              f"{paths[i]} has {view.dim} columns", args.config)
    # All-Gaussian data is standardized, each file by its own column statistics.
    if all(f is model_mod.Family.GAUSSIAN_UNIT_VARIANCE for f in families):
        dataset.view_arrays = [data_mod.standardize_columns(a) for a in dataset.view_arrays]
    return dataset


def cmd_train(args) -> int:
    config = load_config(args.config)
    dataset = _load_data_arg(args, config)

    train_cfg = _settings(train_mod.TrainConfig, args.config, config, "train", args.seed)
    streams = _substreams(train_cfg.seed)

    mcfg = config["model"]
    mask = mcfg["mvh_mask"] if mcfg["structure"] is model_mod.StructureKind.MVH else None
    if mask is not None and len(mask) != dataset.num_views:
        raise ConfigError(f"['model']['mvh_mask'] has {len(mask)} rows for the "
                          f"{dataset.num_views} views of the data", args.config)
    params = model_mod.init_params(
        views=dataset.views,
        hidden_dim=mcfg["hidden_dim"],
        hidden_family=mcfg["hidden_family"],
        structure=model_mod.StructureMode(mcfg["structure"], mask),
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
    kind = gc["structure"]
    rng = np.random.default_rng(gc["seed"])
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
    if not selection.startswith("specific:"):  # "all" or "shared" (see load_config)
        return selection
    return ("specific", _view_index(path, "['eval']['selection']",
                                    selection.split(":", 1)[1], dataset.views))


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
    try:
        train_set, test_set = data_mod.train_test_split(dataset, ecfg["test_fraction"],
                                                        ecfg["knn_seed"])
    except data_mod.SplitFractionError:  # in (0, 1) (see load_config), so a side is empty
        raise ConfigError(f"['eval']['test_fraction'] {ecfg['test_fraction']} leaves "
                          "one side of the split empty", args.config) from None
    tr_feat = eval_mod.extract_features(params, train_set, selection)
    te_feat = eval_mod.extract_features(params, test_set, selection)
    ks = [k for k in ecfg["ks"] if k <= tr_feat.values.shape[0]]
    if not ks:
        raise ConfigError(f"['eval']['ks']: every k exceeds the training-set size "
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
    view = _view_index(args.config, "['eval']['view']", ecfg["view"], params.views)
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
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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
