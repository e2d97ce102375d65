"""End-to-end acceptance checks for the whole package.

Each test prints one PASS/FAIL line (bypassing capture) so the suite output
doubles as an acceptance report. The heavy CD training runs are shared
between the structure, noise-localization, and kNN criteria via
module-scoped fixtures.
"""
import json
import os
import time

import numpy as np
import pytest

from samvh import cli
from samvh.data import (
    MultiViewDataset,
    SynthConfig,
    generate_synthetic_paired,
    train_test_split,
)
from samvh.evaluation import extract_features, knn_classify, line_mass_fraction
from samvh.expfam import Family
from samvh.model import (
    StructureKind,
    StructureMode,
    gates,
    init_params,
    make_binary_data,
    make_tiny_model,
    structure_report,
    unnormalized_log_joint,
)
from samvh.training import TrainConfig, exact_gradient, finite_diff_gradient, train
from test_model import hmean_of

SEEDS = (1, 2, 3, 4, 5)
HIDDEN = 60
KNN_SEED = 5  # the seed whose SA/DWH pair backs the feature-usefulness check


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _train_run(seed, kind):
    ds = generate_synthetic_paired(SynthConfig(seed=seed, samples_per_class=200))
    rng = np.random.default_rng(seed)
    params = init_params(ds.views, HIDDEN, Family.BERNOULLI,
                         StructureMode(kind), rng)
    params, _ = train(params, ds, TrainConfig(seed=seed), rng=rng)
    return ds, params


@pytest.fixture(scope="module")
def sa_runs():
    t0 = time.monotonic()
    runs = {seed: _train_run(seed, StructureKind.SA) for seed in SEEDS}
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def dwh_run():
    return _train_run(KNN_SEED, StructureKind.DWH)


def test_criterion_1_gradient_exactness(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    ok = True
    for _ in range(20):
        params = make_tiny_model(rng, StructureKind.SA, dims=(3, 3), J=4)
        data = make_binary_data(params, rng, 6)
        exact = exact_gradient(params, data)
        fd = finite_diff_gradient(params, data, step=1e-5)
        pairs = (list(zip(exact.dW, fd.dW)) + list(zip(exact.dxi, fd.dxi))
                 + [(exact.dlam, fd.dlam), (exact.ds, fd.ds)])
        for a, b in pairs:
            err = np.abs(a - b)
            tol = np.maximum(1e-8, 1e-5 * np.abs(b))
            ok &= bool(np.all(err <= tol))
            worst = max(worst, float((err / tol).max()))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(capsys, 1, "gradient exactness",
           ok, f"20 models, worst error {worst:.2e}x tolerance, {elapsed:.1f}s")


def test_criterion_2_likelihood_ascent(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    params = make_tiny_model(rng, StructureKind.SA, dims=(3, 3), J=4)
    data = MultiViewDataset(params.views, make_binary_data(params, rng, 12))
    cfg = TrainConfig(learning_rate=0.05, momentum=0.0, epochs=200,
                      batch_size=data.num_samples, switch_lr_scale=1.0)
    _, log = train(params, data, cfg, gradient_fn=exact_gradient)
    lls = np.array([rec.exact_ll for rec in log.records])
    drops = np.diff(lls)
    ok = bool(np.all(drops >= -1e-9))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(capsys, 2, "likelihood ascent", ok,
           f"200 epochs, min step {drops.min():.2e}, "
           f"final LL {lls[-1]:.4f}, {elapsed:.1f}s")


def test_criterion_3_structure_separation(capsys, sa_runs):
    runs, train_time = sa_runs
    good, details = 0, []
    for seed, (_, params) in runs.items():
        rep = structure_report(params)
        n_sh = len(rep.shared_units)
        n_sp = [len(u) for u in rep.specific_units]
        passed = n_sh >= 5 and all(n >= 3 for n in n_sp)
        good += passed
        details.append(f"seed {seed}: {n_sh}/{n_sp[0]}/{n_sp[1]}")
    ok = good >= 4 and train_time < 600.0
    report(capsys, 3, "structure separation", ok,
           f"{good}/5 seeds with >=5 shared and >=3 per-view specific "
           f"[{'; '.join(details)}], training {train_time:.0f}s")


def test_criterion_4_noise_localization(capsys, sa_runs):
    runs, _ = sa_runs
    good, details = 0, []
    side, lines = 12, 2
    for seed, (_, params) in runs.items():
        rep = structure_report(params)
        g = gates(params)
        spec, shared = [], []
        for view, axis in ((0, "columns"), (1, "rows")):
            for j in rep.specific_units[view]:
                spec.append(line_mass_fraction(
                    g[view, j] * params.W[view][:, j], side, axis, lines))
            for j in rep.shared_units:
                shared.append(line_mass_fraction(
                    g[view, j] * params.W[view][:, j], side, axis, lines))
        passed = bool(spec) and bool(shared) and np.mean(spec) > np.mean(shared)
        good += passed
        if spec and shared:
            details.append(f"seed {seed}: {np.mean(spec):.2f}>{np.mean(shared):.2f}")
        else:
            details.append(f"seed {seed}: empty category")
    ok = good >= 4
    report(capsys, 4, "noise localization", ok,
           f"{good}/5 seeds with specific-filter line mass above shared "
           f"[{'; '.join(details)}]")


def test_criterion_5_feature_usefulness(capsys, sa_runs, dwh_run):
    runs, _ = sa_runs
    ds, sa_params = runs[KNN_SEED]
    _, dwh_params = dwh_run
    tr, te = train_test_split(ds, 0.5, seed=KNN_SEED)
    accs = {}
    for name, params in (("sa", sa_params), ("dwh", dwh_params)):
        ftr = extract_features(params, tr, "all")
        fte = extract_features(params, te, "all")
        accs[name] = knn_classify(ftr, tr.labels, fte, te.labels, k=10)
    ok = accs["sa"] >= 0.60 and accs["sa"] >= accs["dwh"] - 0.02
    report(capsys, 5, "feature usefulness", ok,
           f"10-NN accuracy sa={accs['sa']:.3f} dwh={accs['dwh']:.3f}, "
           f"chance 0.10")


def test_criterion_6_mode_reductions(capsys):
    rng = np.random.default_rng(17)
    sa = make_tiny_model(rng, StructureKind.SA, dims=(3, 3), J=4)
    sa.s = np.full_like(sa.s, 30.0)
    data = make_binary_data(sa, rng, 8)

    def sibling(kind, mask=None):
        structure = StructureMode(kind, mask)
        other = sa.copy()
        other.structure = structure
        other.s = np.zeros_like(sa.s)
        return other

    dwh = sibling(StructureKind.DWH)
    mvh = sibling(StructureKind.MVH, np.ones_like(sa.s, dtype=bool))

    rows = [[a[n:n + 1] for a in data] for n in range(len(data[0]))]
    worst = 0.0
    for row in rows:
        worst = max(worst, float(np.abs(hmean_of(sa, row) - hmean_of(dwh, row)).max()))
        h = (rng.random((1, 4)) < 0.5).astype(float)
        worst = max(worst, float(np.abs(unnormalized_log_joint(sa, row, h)
                                        - unnormalized_log_joint(dwh, row, h)).max()))
    g_sa, g_dwh = exact_gradient(sa, data), exact_gradient(dwh, data)
    for a, b in (list(zip(g_sa.dW, g_dwh.dW)) + list(zip(g_sa.dxi, g_dwh.dxi))
                 + [(g_sa.dlam, g_dwh.dlam)]):
        worst = max(worst, float(np.abs(a - b).max()))
    ok = worst <= 1e-9

    exact_match = True
    for row in rows:
        exact_match &= np.array_equal(hmean_of(mvh, row), hmean_of(dwh, row))
    g_mvh = exact_gradient(mvh, data)
    for a, b in (list(zip(g_mvh.dW, g_dwh.dW)) + list(zip(g_mvh.dxi, g_dwh.dxi))
                 + [(g_mvh.dlam, g_dwh.dlam)]):
        exact_match &= np.array_equal(a, b)
    ok &= exact_match
    report(capsys, 6, "mode reductions", ok,
           f"saturated-gate max deviation {worst:.1e} <= 1e-9, "
           f"all-ones mask exact: {exact_match}")


def test_criterion_7_pipeline_determinism(capsys, tmp_path):
    cfg_doc = {
        "synth": {"num_classes": 10, "samples_per_class": 20},
        "model": {"hidden_dim": 16},
        "train": {"epochs": 5},
        "eval": {"ks": [5, 9]},
    }
    cfg = str(tmp_path / "config.json")
    with open(cfg, "w") as fh:
        json.dump(cfg_doc, fh)

    def run(root):
        d, r = os.path.join(root, "data"), os.path.join(root, "run")
        f, k, img = (os.path.join(root, n) for n in ("feat", "knn", "img"))
        ckpt = os.path.join(r, "checkpoint.json")
        base = ["--config", cfg, "--seed", "13"]
        assert cli.main(base + ["gen-data", "--out", d]) == 0
        assert cli.main(base + ["train", "--data", d, "--out", r]) == 0
        assert cli.main(base + ["extract", "--checkpoint", ckpt,
                                "--data", d, "--out", f]) == 0
        assert cli.main(base + ["eval-knn", "--checkpoint", ckpt,
                                "--data", d, "--out", k]) == 0
        assert cli.main(base + ["render-filters", "--checkpoint", ckpt,
                                "--out", img]) == 0
        out = {}
        for sub in ("data", "run", "feat", "knn", "img"):
            folder = os.path.join(root, sub)
            for name in sorted(os.listdir(folder)):
                with open(os.path.join(folder, name), "rb") as fh:
                    out[f"{sub}/{name}"] = fh.read()
        return out

    first = run(str(tmp_path / "a"))
    second = run(str(tmp_path / "b"))
    same_names = sorted(first) == sorted(second)
    same_bytes = same_names and all(first[n] == second[n] for n in first)
    n_pgm = sum(name.endswith(".pgm") for name in first)
    ok = (same_bytes and n_pgm >= 1
          and any(name.endswith(".csv") for name in first)
          and "run/checkpoint.json" in first)
    report(capsys, 7, "pipeline determinism", ok,
           f"{len(first)} artifacts byte-identical across reruns "
           f"({n_pgm} PGM grids)")
