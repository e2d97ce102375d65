import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import logit

from samvh import model as model_mod
from samvh import training as training_mod
from samvh.data import MultiViewDataset
from samvh.evaluation import extract_features
from samvh.expfam import DomainError, Family, NonFiniteError, mean, sample, suff_stat
from samvh.model import (
    PARAM_GROUPS,
    HarmoniumParams,
    ShapeMismatchError,
    StructureKind,
    StructureMode,
    ViewConfig,
    check_views,
    exact_log_likelihood,
    exact_visible_distribution,
    gates,
    init_params,
    make_binary_data,
    make_tiny_model,
    param_vector,
    posterior_hidden_mean_batch,
    save_checkpoint,
    visible_shifted_batch,
)
from samvh.training import (
    EpochRecord,
    GradientSet,
    TrainConfig,
    TrainLog,
    TrainingDivergedError,
    _contrast_stats,
    cd_gradient,
    exact_gradient,
    finite_diff_gradient,
    reconstruction_error,
    train,
)
from test_model import hmean_of, reference_log_likelihood, wg_of

# How check_views(..., np.float32) names a finite value beyond float32's range.
F32_RANGE = "^view 'g': values must be within the float32 range$"


def flatten(g: GradientSet) -> np.ndarray:
    return np.concatenate([a.ravel() for a in (*g.dW, *g.dxi, g.dlam, g.ds)])


def oracle_stats(params, values, hmean):
    """Naive index-loop reference for the per-sample statistics."""
    g = gates(params)
    sa = params.structure.kind is StructureKind.SA
    out = GradientSet.zeros_like(params)
    for j in range(params.hidden_dim):
        out.dlam[j] = hmean[j]
        for k, cfg in enumerate(params.views):
            sprime = g[k, j] * (1 - g[k, j]) if sa else 0.0
            acc = 0.0
            for i in range(cfg.dim):
                f = values[k][i]
                out.dW[k][i, j] = g[k, j] * f * hmean[j]
                acc += params.W[k][i, j] * f
            out.ds[k, j] = sprime * acc * hmean[j]
    for k, cfg in enumerate(params.views):
        for i in range(cfg.dim):
            out.dxi[k][i] = values[k][i]
    return out


def reference_chain(params, fv, cd_steps, rng, dtype=np.float32):
    """The two phases of CD-k computed view by view, as (fv, hidden means)
    of the data and of the final chain state: every product recomputes the
    gates and its view's gated weights. The chain runs in dtype: at float32
    it rounds the gated weights, lam, xi and fv once, as `cd_gradient` does."""
    hf = params.hidden_family
    lam, xi = params.lam.astype(dtype), [x.astype(dtype) for x in params.xi]

    def gated(k):
        return (params.W[k] * gates(params)[k][None, :]).astype(dtype)

    def hidden(fv):
        out = np.broadcast_to(lam, (fv[0].shape[0], params.hidden_dim)).copy()
        for k in range(params.num_views):
            out += fv[k] @ gated(k)
        return out

    fv = chain = [a.astype(dtype) for a in fv]
    for _ in range(cd_steps):
        gh = sample(hf, hidden(chain), rng)  # g(h) = h for both families
        chain = [sample(cfg.family, xi[k][None, :] + gh @ gated(k).T, rng)
                 for k, cfg in enumerate(params.views)]
    return (fv, mean(hf, hidden(fv))), (chain, mean(hf, hidden(chain)))


def reference_cd_gradient(params, fv, cd_steps, rng, dtype=np.float32):
    """CD-k as a flat vector laid out like `GradientSet.vec`, from the phases
    of `reference_chain` in dtype. The statistics stack both phases,
    F = [fv+; fv-] and H = [h+/B; -h-/B], and take each view's groups from
    one product stat = F' H, the switch statistic as g (1 - g) colsum(W * stat)."""
    (fv_pos, h_pos), (fv_neg, h_neg) = reference_chain(params, fv, cd_steps, rng, dtype)
    B = h_pos.shape[0]
    w = np.concatenate([np.full(B, 1.0 / B, dtype), -np.full(B, 1.0 / B, dtype)])
    H = np.concatenate([h_pos, h_neg]) * w[:, None]
    F = [np.concatenate([a, b]) for a, b in zip(fv_pos, fv_neg)]
    g = gates(params)
    sa = params.structure.kind is StructureKind.SA
    stat = [(F[k].T @ H).astype(np.float64) for k in range(params.num_views)]
    dW = [g[k][None, :] * stat[k] for k in range(params.num_views)]
    dxi = [F[k].T @ w for k in range(params.num_views)]
    ds = [g[k] * (1.0 - g[k]) * np.einsum("ij,ij->j", params.W[k], stat[k]) if sa
          else np.zeros(params.hidden_dim) for k in range(params.num_views)]
    return np.concatenate([a.ravel() for a in (*dW, *dxi, H.sum(axis=0, dtype=np.float64),
                                                *ds)])


def textbook_stats(params, fv, hmean, weights):
    """One phase's weighted statistics as the two-phase formula writes them:
    a product f(v)' (w h) per view, and the switch statistic from the
    product f(v) W, as sum_b ((f(v) W) * w h)_bj."""
    g = gates(params)
    sprime = g * (1.0 - g)
    if params.structure.kind is not StructureKind.SA:
        sprime[:] = 0.0
    wh = hmean * weights[:, None]
    dW = [g[k] * (fv[k].T @ wh) for k in range(params.num_views)]
    dxi = [fv[k].T @ weights for k in range(params.num_views)]
    ds = [sprime[k] * ((fv[k] @ params.W[k]) * wh).sum(axis=0)
          for k in range(params.num_views)]
    return np.concatenate([a.ravel() for a in (*dW, *dxi, wh.sum(axis=0), *ds)])


def assert_matches_textbook(got, want, tol=1e-12):
    """Equal to tol relative, elements near zero measured against the
    largest |want|: the two forms sum the same terms in different orders."""
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


# The tolerance of a CD gradient, whose chain runs in float32 (eps 1.2e-7),
# against a float64 computation: about 80 float32 ulps. Over 200 seeds of
# the tiny models below, the largest deviation was 4e-7 of the largest |want|.
F32_TOL = 1e-5


def reference_finite_diff_gradient(params, fv, step):
    """Central differences one coordinate at a time: each perturbed copy of
    the model gets its own single-model enumeration."""
    work = params.copy()
    out = GradientSet.zeros_like(params)

    def central(arr, darr):
        flat, dflat = arr.ravel(), darr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = reference_log_likelihood(work, fv)
            flat[i] = orig - step
            lo = reference_log_likelihood(work, fv)
            flat[i] = orig
            dflat[i] = (hi - lo) / (2.0 * step)

    for k in range(params.num_views):
        central(work.W[k], out.dW[k])
        central(work.xi[k], out.dxi[k])
    central(work.lam, out.dlam)
    central(work.s, out.ds)
    return out


def reference_train(params, data, config, gradient_fn=None):
    """Momentum ascent updating each parameter array on its own, as a loop of
    public calls: `gradient_fn(params, fv)`, or by default `cd_gradient`
    without a step state on the run's one rng stream. Returns the trained
    parameters and the log `train` documents (`reconstruction_error`, the
    mean gates and, where enumeration is feasible, `exact_log_likelihood`)."""
    rng = np.random.default_rng(config.seed)
    if gradient_fn is None:
        def gradient_fn(cur, fv):
            return cd_gradient(cur, fv, config.cd_steps, rng)
    log = TrainLog()
    cur = params.copy()
    lr, m = config.learning_rate, config.momentum
    vW = [np.zeros_like(w) for w in cur.W]
    vxi = [np.zeros_like(x) for x in cur.xi]
    vlam, vs = np.zeros_like(cur.lam), np.zeros_like(cur.s)
    n = data.num_samples
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            grad = gradient_fn(cur, [a[idx] for a in data.view_arrays])
            for k in range(cur.num_views):
                vW[k] = m * vW[k] + grad.dW[k]
                cur.W[k] += lr * vW[k] - lr * config.weight_decay * cur.W[k]
                vxi[k] = m * vxi[k] + grad.dxi[k]
                cur.xi[k] += lr * vxi[k]
            vlam = m * vlam + grad.dlam
            cur.lam += lr * vlam
            if cur.structure.kind is StructureKind.SA:
                vs = m * vs + grad.ds
                cur.s += lr * config.switch_lr_scale * vs
        try:
            exact_ll = exact_log_likelihood(cur, data.view_arrays)
        except ValueError:  # beyond the enumeration bounds, or a Gaussian family
            exact_ll = None
        log.records.append(EpochRecord(
            epoch, [float(e) for e in reconstruction_error(cur, data.view_arrays)],
            [float(g) for g in gates(cur).mean(axis=1)], exact_ll))
    return cur, log


def as_dataset(params, fv):
    return MultiViewDataset(views=list(params.views), view_arrays=fv)


def two_phase_stats(params, pos, neg):
    """`_contrast_stats` of two phases, each (fv, hmean, weights), stacked."""
    (fv_pos, h_pos, w_pos), (fv_neg, h_neg, w_neg) = pos, neg
    return _contrast_stats(params, gates(params),
                           [np.concatenate(f) for f in zip(fv_pos, fv_neg)],
                           np.concatenate([h_pos, h_neg]), np.concatenate([w_pos, -w_neg]))


def positive_stats(params, fv, hmean):
    """`_contrast_stats` of a batch weighted 1/B against an empty negative phase."""
    weights = np.full(hmean.shape[0], 1.0 / hmean.shape[0])
    return two_phase_stats(params, (fv, hmean, weights),
                           ([a[:0] for a in fv], hmean[:0], weights[:0]))


def sample_stats(params, fv):
    """Positive-phase statistics of a batch, at its posterior hidden means."""
    return positive_stats(params, fv, hmean_of(params, fv))


# ---------------------------------------------------------------------------
# Sufficient statistics
# ---------------------------------------------------------------------------

class TestSufficientStats:
    def test_ds_zero_when_w_zero(self, rng):
        p = make_tiny_model(rng)
        for w in p.W:
            w[:] = 0.0
        stats = sample_stats(p, make_binary_data(p, rng, 1))
        assert np.array_equal(stats.ds, np.zeros((2, 4)))

    def test_ds_zero_in_dwh(self, rng):
        p = make_tiny_model(rng, StructureKind.DWH)
        stats = sample_stats(p, make_binary_data(p, rng, 1))
        assert np.array_equal(stats.ds, np.zeros((2, 4)))

    def test_matches_naive_loop(self, rng):
        for kind in (StructureKind.SA, StructureKind.DWH):
            p = make_tiny_model(rng, kind)
            fv = make_binary_data(p, rng, 1)
            hmean = hmean_of(p, fv)
            got = positive_stats(p, fv, hmean)
            want = oracle_stats(p, [a[0] for a in fv], hmean[0])
            for a, b in zip(got.dW, want.dW):
                np.testing.assert_allclose(a, b, atol=1e-12)
            for a, b in zip(got.dxi, want.dxi):
                np.testing.assert_allclose(a, b, atol=1e-12)
            np.testing.assert_allclose(got.dlam, want.dlam, atol=1e-12)
            np.testing.assert_allclose(got.ds, want.ds, atol=1e-12)


class TestContrastStats:
    """`_contrast_stats`, which takes every statistic of both phases from one
    product per view, against the two-phase `textbook_stats`."""

    def test_switch_identity(self):
        # sum_b (F W)_bj H_bj = sum_i W_ij (F' H)_ij
        rng = np.random.default_rng(41)
        F, W, H = (rng.standard_normal(shape) for shape in ((13, 7), (7, 5), (13, 5)))
        np.testing.assert_allclose((W * (F.T @ H)).sum(axis=0),
                                   ((F @ W) * H).sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("kind", list(StructureKind))
    def test_phases_of_any_size_and_weight(self, kind):
        rng = np.random.default_rng(42)
        p = make_tiny_model(rng, kind, dims=(4, 3), J=5)
        pos = (make_binary_data(p, rng, 7), rng.random((7, 5)), rng.random(7))
        neg = (make_binary_data(p, rng, 11), rng.random((11, 5)), rng.random(11))
        got = two_phase_stats(p, pos, neg)
        assert_matches_textbook(flatten(got), textbook_stats(p, *pos) - textbook_stats(p, *neg))

    @staticmethod
    def check_cd(p, fv, cd_steps):
        got = cd_gradient(p, fv, cd_steps, np.random.default_rng(45))
        (fv_pos, h_pos), (fv_neg, h_neg) = reference_chain(
            p, fv, cd_steps, np.random.default_rng(45))
        w = np.full(h_pos.shape[0], 1.0 / h_pos.shape[0])
        want = textbook_stats(p, fv_pos, h_pos, w) - textbook_stats(p, fv_neg, h_neg, w)
        assert_matches_textbook(flatten(got), want, F32_TOL)

    @pytest.mark.parametrize("cd_steps", [1, 3])
    @pytest.mark.parametrize("kind", list(StructureKind))
    def test_cd_gradient(self, kind, cd_steps):
        rng = np.random.default_rng(43)
        p = make_tiny_model(rng, kind, dims=(4, 3), J=5)
        self.check_cd(p, make_binary_data(p, rng, 9), cd_steps)

    @pytest.mark.parametrize("cd_steps", [1, 3])
    @pytest.mark.parametrize("hidden_family", list(Family))
    def test_cd_gradient_gaussian_view(self, hidden_family, cd_steps):
        p, fv = gaussian_view_model(np.random.default_rng(44), hidden_family)
        self.check_cd(p, fv, cd_steps)

    @pytest.mark.parametrize("kind", list(StructureKind))
    def test_exact_gradient(self, kind):
        # Enumeration is all-Bernoulli; the negative phase is every visible
        # state weighted by its probability.
        rng = np.random.default_rng(46)
        p = make_tiny_model(rng, kind)
        fv = make_binary_data(p, rng, 6)
        fv_all, lam_all, probs = exact_visible_distribution(p, wg_of(p))
        want = (textbook_stats(p, fv, hmean_of(p, fv), np.full(6, 1 / 6))
                - textbook_stats(p, fv_all, mean(p.hidden_family, lam_all), probs))
        assert_matches_textbook(flatten(exact_gradient(p, fv)), want)


# ---------------------------------------------------------------------------
# CD gradient
# ---------------------------------------------------------------------------

class TestCdGradient:
    def test_deterministic_given_seed(self, rng):
        p = make_tiny_model(rng)
        batch = make_binary_data(p, rng, 8)
        g1 = cd_gradient(p, batch, 2, np.random.default_rng(5))
        g2 = cd_gradient(p, batch, 2, np.random.default_rng(5))
        assert np.array_equal(flatten(g1), flatten(g2))

    def test_calls_without_a_state_do_not_alias(self, rng):
        # Each call builds its own step state, so a second call leaves the
        # first call's gradient as it was.
        p = make_tiny_model(rng)
        first = cd_gradient(p, make_binary_data(p, rng, 8), 1, np.random.default_rng(5))
        kept = first.vec.copy()
        second = cd_gradient(p, make_binary_data(p, rng, 8), 1, np.random.default_rng(6))
        assert not np.shares_memory(first.vec, second.vec)
        assert np.array_equal(first.vec, kept) and not np.array_equal(first.vec, second.vec)

    def test_empty_batch(self, rng):
        with pytest.raises(ValueError):
            cd_gradient(make_tiny_model(rng), [np.zeros((0, 3))] * 2, 1, rng)

    def test_fixed_point_at_decoupled_model(self, rng):
        # W=0 and batch drawn from the model itself: expected dxi and dlam
        # are zero; check the empirical mean against 3 standard errors.
        p = make_tiny_model(rng, scale=0.0)
        p.s[:] = 0.0
        p.xi[0][:] = 0.4
        p.xi[1][:] = -0.7
        p.lam[:] = 0.2
        n = 10 ** 4
        draws = [[rng.random(3) < 1 / (1 + math.exp(-0.4)),
                  rng.random(3) < 1 / (1 + math.exp(0.7))] for _ in range(n)]
        fv = [np.array([d[k] for d in draws], dtype=float) for k in range(2)]
        g = cd_gradient(p, fv, 1, rng)
        for k, eta in enumerate((0.4, -0.7)):
            prob = 1 / (1 + math.exp(-eta))
            se = math.sqrt(2 * prob * (1 - prob) / n)  # data and model draws
            assert np.all(np.abs(g.dxi[k]) < 3 * se)
        se_lam = math.sqrt(2 * 0.25 / n)
        assert np.all(np.abs(g.dlam) < 3 * se_lam)

    @pytest.mark.parametrize("cd_steps", [1, 3])
    @pytest.mark.parametrize("kind", list(StructureKind))
    def test_equals_per_view_reference(self, kind, cd_steps):
        rng = np.random.default_rng(7)
        p = make_tiny_model(rng, kind, dims=(4, 3), J=5)
        fv = make_binary_data(p, rng, 9)
        got = cd_gradient(p, fv, cd_steps, np.random.default_rng(11))
        want = reference_cd_gradient(p, fv, cd_steps, np.random.default_rng(11))
        assert np.array_equal(flatten(got), want)

    @pytest.mark.parametrize("cd_steps", [1, 3])
    def test_equals_per_view_reference_gaussian_view(self, cd_steps):
        rng = np.random.default_rng(8)
        views = [ViewConfig("g", 3, Family.GAUSSIAN_UNIT_VARIANCE),
                 ViewConfig("b", 4, Family.BERNOULLI)]
        p = HarmoniumParams(
            views=views, hidden_dim=5, hidden_family=Family.BERNOULLI,
            W=[0.3 * rng.standard_normal((v.dim, 5)) for v in views],
            xi=[0.3 * rng.standard_normal(v.dim) for v in views],
            lam=0.3 * rng.standard_normal(5), s=rng.standard_normal((2, 5)),
            structure=StructureMode(StructureKind.SA))
        fv = [rng.standard_normal((9, 3)), (rng.random((9, 4)) < 0.5).astype(float)]
        got = cd_gradient(p, fv, cd_steps, np.random.default_rng(12))
        want = reference_cd_gradient(p, fv, cd_steps, np.random.default_rng(12))
        assert np.array_equal(flatten(got), want)

    @pytest.mark.parametrize("cd_steps", [1, 3])
    @pytest.mark.parametrize("model", [*StructureKind, *Family])
    def test_agrees_with_float64_reference(self, model, cd_steps):
        # The float32 chain takes the same draws as a float64 one, so the two
        # gradients differ by rounding only. A Family is a gaussian_view_model.
        rng = np.random.default_rng(9)
        if isinstance(model, Family):
            p, fv = gaussian_view_model(rng, model)
        else:
            p = make_tiny_model(rng, model, dims=(4, 3), J=5)
            fv = make_binary_data(p, rng, 9)
        got = cd_gradient(p, fv, cd_steps, np.random.default_rng(13))
        want = reference_cd_gradient(p, fv, cd_steps, np.random.default_rng(13), np.float64)
        assert_matches_textbook(flatten(got), want, F32_TOL)

    def test_chain_is_float32_and_train_returns_float64(self, monkeypatch):
        # Every array the traced energy kernels get or give inside a CD step,
        # the model's lam and xi and the out buffers included, is float32;
        # the trained parameters are float64. Only the rng's own draws
        # (`draws`) are float64.
        seen = {}

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                return [obj]
            if isinstance(obj, (list, tuple)):
                return [a for item in obj for a in arrays(item)]
            if isinstance(obj, HarmoniumParams):
                return [obj.lam, *obj.xi]
            return []

        def record(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.setdefault(name, set()).update(
                    a.dtype for a in arrays([args, kwargs.get("out"), out]))
                return out
            return wrapper

        kernels = ("hidden_shifted_batch", "visible_shifted_batch",
                   "posterior_hidden_mean_batch", "gibbs_step_batch")
        for name in kernels:
            wrapped = record(name, getattr(model_mod, name))
            for module in (model_mod, training_mod):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        rng = np.random.default_rng(3)
        p = make_tiny_model(rng)
        cd_gradient(p, make_binary_data(p, rng, 6), 2, rng)
        assert seen == {name: {np.dtype(np.float32)} for name in kernels}
        out, _ = train(p, as_dataset(p, make_binary_data(p, rng, 6)),
                       TrainConfig(epochs=1, batch_size=3, seed=1))
        assert {a.dtype for a in (*out.W, *out.xi, out.lam, out.s)} == {np.dtype(np.float64)}

    def test_value_beyond_float32_range_is_domain_error(self):
        # 1e39 is finite in float64 but not in the chain's float32: it is
        # named as out of range, not reported as an overflow.
        p, fv = gaussian_view_model(np.random.default_rng(9), Family.BERNOULLI)
        fv[0][3, 1] = 1e39
        with pytest.raises(DomainError, match=F32_RANGE):
            cd_gradient(p, fv, 1, np.random.default_rng(0))

    def test_direction_agrees_with_exact(self):
        rng = np.random.default_rng(99)
        hits = 0
        for _ in range(100):
            p = make_tiny_model(rng, scale=0.4)
            data = make_binary_data(p, rng, 40)
            exact = exact_gradient(p, data)
            cd = cd_gradient(p, data, 1, rng)
            if float(flatten(cd) @ flatten(exact)) > 0:
                hits += 1
        assert hits >= 95


# ---------------------------------------------------------------------------
# Exact gradient vs finite differences
# ---------------------------------------------------------------------------

def assert_gradients_close(a: GradientSet, b: GradientSet,
                           rel=1e-5, abs_tol=1e-8):
    for x, y in zip(flatten(a), flatten(b)):
        assert abs(x - y) <= max(abs_tol, rel * abs(y)), (x, y)


class TestExactGradient:
    def test_moment_matching_optimum(self, rng):
        p = make_tiny_model(rng, scale=0.0)
        p.s[:] = 0.0
        data = make_binary_data(p, rng, 20)
        # Guarantee empirical means strictly inside (0, 1).
        for a in data:
            a[0], a[1] = 0.0, 1.0
        emp = [a.mean(axis=0) for a in data]
        p.xi = [logit(e) for e in emp]
        # With W=0 the model mean is sigmoid(xi) = the empirical mean.
        g = exact_gradient(p, data)
        for k in range(2):
            np.testing.assert_allclose(g.dxi[k], 0.0, atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = make_tiny_model(rng)
            data = make_binary_data(p, rng, 6)
            assert_gradients_close(exact_gradient(p, data),
                                   finite_diff_gradient(p, data, 1e-5))

    def test_mvh_all_ones_equals_dwh(self, rng):
        p = make_tiny_model(rng, StructureKind.MVH,
                            mask=np.ones((2, 4), dtype=bool))
        q = p.copy()
        q.structure = StructureMode(StructureKind.DWH)
        data = make_binary_data(p, rng, 5)
        ga, gb = exact_gradient(p, data), exact_gradient(q, data)
        for a, b in zip(ga.dW, gb.dW):
            assert np.array_equal(a, b)

    def test_frozen_modes_zero_switch_gradient(self, rng):
        for kind in (StructureKind.DWH, StructureKind.MVH):
            p = make_tiny_model(rng, kind)
            data = make_binary_data(p, rng, 5)
            assert np.array_equal(exact_gradient(p, data).ds, np.zeros((2, 4)))
            assert np.array_equal(
                cd_gradient(p, data, 1, rng).ds, np.zeros((2, 4)))

    def test_switch_gradient_vanishes_at_saturation(self, rng):
        p = make_tiny_model(rng)
        p.s[:] = 30.0
        data = make_binary_data(p, rng, 5)
        assert np.max(np.abs(exact_gradient(p, data).ds)) <= 1e-10
        p.s[:] = -30.0
        assert np.max(np.abs(exact_gradient(p, data).ds)) <= 1e-10


class TestFiniteDiff:
    def test_symmetric_zero_model(self, rng):
        p = make_tiny_model(rng, scale=0.0)
        p.s[:] = 0.0
        g = finite_diff_gradient(p, [np.ones((1, 3))] * 2, 1e-5)
        assert np.allclose(g.dlam, g.dlam[0])

    def test_step_sensitivity(self, rng):
        p = make_tiny_model(rng)
        data = make_binary_data(p, rng, 4)
        g4 = finite_diff_gradient(p, data, 1e-4)
        g5 = finite_diff_gradient(p, data, 1e-5)
        assert np.max(np.abs(flatten(g4) - flatten(g5))) < 1e-6

    def test_step_validation(self, rng):
        p = make_tiny_model(rng)
        with pytest.raises(ValueError):
            finite_diff_gradient(p, make_binary_data(p, rng, 1), 1e-2)

    @pytest.mark.parametrize("kind", list(StructureKind))
    @pytest.mark.parametrize("dims,J", [((3, 3), 4), ((1, 2, 4), 3)])
    @pytest.mark.parametrize("step", [1e-5, 1e-4])
    def test_bitwise_equal_to_per_coordinate_loop(self, rng, kind, dims, J, step):
        for _ in range(2):
            p = make_tiny_model(rng, kind, dims=dims, J=J)
            data = make_binary_data(p, rng, 6)
            got = finite_diff_gradient(p, data, step)
            assert np.array_equal(got.vec, reference_finite_diff_gradient(p, data, step).vec)

    def test_many_chunks_bitwise_equal_and_bounded_memory(self, rng):
        # 264 perturbed rows x 4096 states x 8 hidden units is about 8.7M
        # values, several blocks of the stacked evaluator.
        p = make_tiny_model(rng, dims=(6, 6), J=8)
        data = make_binary_data(p, rng, 6)
        tracemalloc.start()
        try:
            got = finite_diff_gradient(p, data, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, peak
        assert np.array_equal(got.vec, reference_finite_diff_gradient(p, data, 1e-5).vec)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

class TestTrain:
    def test_zero_epochs_noop(self, rng):
        p = make_tiny_model(rng)
        data = as_dataset(p, make_binary_data(p, rng, 10))
        cfg = TrainConfig(epochs=0, seed=1)
        out, log = train(p, data, cfg)
        assert np.array_equal(out.W[0], p.W[0])
        assert np.array_equal(out.s, p.s)
        assert log.records == []

    def test_exact_gradient_ascent_monotone(self, rng):
        p = make_tiny_model(rng, scale=0.1)
        data = as_dataset(p, make_binary_data(p, rng, 12))
        cfg = TrainConfig(learning_rate=0.05, momentum=0.0, epochs=60,
                          batch_size=data.num_samples, seed=3)
        _, log = train(p, data, cfg, gradient_fn=exact_gradient)
        lls = [rec.exact_ll for rec in log.records]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_same_seed_identical(self, rng):
        p = make_tiny_model(rng)
        data = as_dataset(p, make_binary_data(p, rng, 16))
        cfg = TrainConfig(epochs=3, batch_size=4, seed=11)
        out1, log1 = train(p, data, cfg)
        out2, log2 = train(p, data, cfg)
        assert np.array_equal(out1.s, out2.s)
        assert np.array_equal(out1.W[0], out2.W[0])
        assert log1.to_csv() == log2.to_csv()

    def test_resume_equals_continuous(self, rng):
        # Two 3-epoch legs sharing one rng stream match a single 6-epoch run
        # (momentum 0: the velocity buffer is not part of a checkpoint).
        p = make_tiny_model(rng)
        data = as_dataset(p, make_binary_data(p, rng, 16))
        base = dict(learning_rate=0.1, momentum=0.0, batch_size=4, seed=21)
        rng_a = np.random.default_rng(21)
        mid, _ = train(p, data, TrainConfig(epochs=3, **base), rng=rng_a)
        end, _ = train(mid, data, TrainConfig(epochs=3, **base), rng=rng_a)
        full, _ = train(p, data, TrainConfig(epochs=6, **base),
                        rng=np.random.default_rng(21))
        assert np.array_equal(end.W[0], full.W[0])
        assert np.array_equal(end.s, full.s)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported(self, rng):
        views = [ViewConfig("g", 2, Family.GAUSSIAN_UNIT_VARIANCE)]
        p = HarmoniumParams(
            views=views, hidden_dim=2,
            hidden_family=Family.GAUSSIAN_UNIT_VARIANCE,
            W=[np.full((2, 2), 2.0)], xi=[np.zeros(2)], lam=np.zeros(2),
            s=np.zeros((1, 2)), structure=StructureMode(StructureKind.SA))
        data = as_dataset(p, [rng.standard_normal((8, 2)) * 5])
        cfg = TrainConfig(learning_rate=5.0, epochs=400, batch_size=4, seed=1)
        with pytest.raises(TrainingDivergedError) as exc:
            train(p, data, cfg)
        # The group and epoch follow the rounding of each step's sums, so
        # only their kind is pinned; the epochs before the failing one end
        # with every parameter finite.
        assert exc.value.group in PARAM_GROUPS and exc.value.epoch < 400
        before, _ = train(p, data, dataclasses.replace(cfg, epochs=exc.value.epoch))
        assert np.isfinite(param_vector(before)).all()

    @pytest.mark.parametrize("group", ["W", "xi", "lam", "s"])
    def test_overflow_reports_largest_group(self, rng, group):
        # A step whose activations overflow names the parameter group of
        # largest magnitude.
        p = make_tiny_model(rng, dims=(3, 2), J=3, scale=0.1)
        p.s[:] = 0.0
        arr = {"W": p.W[1], "xi": p.xi[0], "lam": p.lam, "s": p.s}[group]
        arr.flat[-1] = -50.0

        def overflow(q, fv):
            raise NonFiniteError("overflow")

        data = as_dataset(p, make_binary_data(p, rng, 4))
        with pytest.raises(TrainingDivergedError) as exc:
            train(p, data, TrainConfig(epochs=1), gradient_fn=overflow)
        assert (exc.value.group, exc.value.epoch) == (group, 0)

    def test_value_beyond_float32_range_rejected_before_any_step(self):
        p, fv = gaussian_view_model(np.random.default_rng(9), Family.BERNOULLI)
        fv[0][5, 2] = -1e39

        def no_step(q, fv):
            raise AssertionError("a step ran on a value beyond float32's range")

        for gradient_fn in (no_step, None):
            with pytest.raises(DomainError, match=F32_RANGE):
                train(p, as_dataset(p, fv), TrainConfig(epochs=1), gradient_fn=gradient_fn)

    def test_holds_no_float64_copy_of_the_dataset(self):
        # A dataset-dominated shape: two byte views of 400 over 4000 rows.
        # A float64 copy alone would reach the bound of 8 bytes a value
        # (train keeps no copy at all; see the test below).
        rng = np.random.default_rng(5)
        views = [ViewConfig(f"v{k}", 400, Family.BERNOULLI) for k in range(2)]
        p = init_params(views, 8, Family.BERNOULLI, StructureMode(StructureKind.SA), rng)
        data = MultiViewDataset(views, [(rng.random((4000, 400)) < 0.3).astype(np.uint8)
                                        for _ in views])
        tracemalloc.start()
        try:
            train(p, data, TrainConfig(epochs=2, batch_size=50, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4000 * 800, peak

    def test_peak_memory_does_not_grow_with_the_dataset(self):
        # One train and one extract_features call hold a block of checked
        # rows and its buffers, not the dataset: their peaks at 4000 and
        # 8000 rows differ by less than a float64 block (2 MB), and both stay
        # under 1.5 blocks (3.1 MB), below the 6.4 MB of bytes at 8000 rows
        # and the 12.8 MB a float32 copy of 4000 rows would take.
        block = 8 * model_mod.ROW_BLOCK_VALUES
        peaks = []
        for n in (4000, 8000):
            rng = np.random.default_rng(5)
            views = [ViewConfig(f"v{k}", 400, Family.BERNOULLI) for k in range(2)]
            p = init_params(views, 8, Family.BERNOULLI, StructureMode(StructureKind.SA), rng)
            data = MultiViewDataset(views, [(rng.random((n, 400)) < 0.3).astype(np.uint8)
                                            for _ in views])
            _, train_peak = traced_peak(
                lambda: train(p, data, TrainConfig(epochs=2, batch_size=50, seed=1)))
            feats, extract_peak = traced_peak(lambda: extract_features(p, data))
            peaks.append((train_peak, extract_peak - feats.values.nbytes))
        for small, large in zip(*peaks):
            assert abs(large - small) < block and max(small, large) < 1.5 * block, peaks

    @pytest.mark.parametrize("view,value,message", [
        ("b", 2, "view 'b': Bernoulli support is {0, 1}"),
        ("g", np.nan, "view 'g': values must be finite"),
        ("g", 1e39, "view 'g': values must be within the float32 range"),
    ], ids=["byte-2", "nan", "beyond-float32"])
    def test_bad_value_in_the_last_block_rejected_before_any_step(self, view, value, message):
        # The dataset is checked block by block, with the text of one
        # check over the whole dataset, before the first epoch draws its
        # permutation. extract_features checks in float64, where 1e39 is
        # a valid value.
        p, fv = blocked_model(np.random.default_rng(42))
        k = [v.name for v in p.views].index(view)
        fv[k][-1, -1] = value
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check_views(p, fv, np.float32)

        def no_step(q, fv):
            raise AssertionError("a step ran on a bad value")

        for gradient_fn in (no_step, None):
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                train(p, as_dataset(p, fv), TrainConfig(epochs=1), rng=rng,
                      gradient_fn=gradient_fn)
            assert rng.bit_generator.state == state
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            reconstruction_error(p, fv)
        if value != 1e39:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                extract_features(p, as_dataset(p, fv))

    def test_row_counts_named_before_blocking(self):
        # Views of different row counts, each over several blocks: the
        # error names the dataset's counts, not a block's. So does an
        # empty dataset's.
        p, fv = blocked_model(np.random.default_rng(43))
        n = len(fv[0])
        short = as_dataset(p, fv)
        short.view_arrays[1] = fv[1][:-1]
        empty = as_dataset(p, [a[:0] for a in fv])
        for data, rows in ((short, [n - 1, n]), (empty, [0])):
            for call in (lambda: train(p, data, TrainConfig(epochs=1)),
                         lambda: reconstruction_error(p, data.view_arrays),
                         lambda: extract_features(p, data)):
                with pytest.raises(ShapeMismatchError, match=re.escape(
                        f"every view needs the same nonzero number of rows, got {rows}")):
                    call()

    def test_bad_dataset_rejected_before_any_step(self, rng):
        p = make_tiny_model(rng)

        def no_step(q, fv):
            raise AssertionError("a step ran on a dataset that does not fit")

        wrong_count = make_tiny_model(rng, dims=(3,))
        wrong_dim = make_tiny_model(rng, dims=(3, 2))
        for other in (wrong_count, wrong_dim):
            data = as_dataset(other, make_binary_data(other, rng, 4))
            with pytest.raises(ShapeMismatchError):
                train(p, data, TrainConfig(epochs=1, seed=0), gradient_fn=no_step)

    @pytest.mark.parametrize("kind", [StructureKind.SA, StructureKind.DWH])
    def test_flat_update_equals_per_group_reference(self, rng, kind):
        p = make_tiny_model(rng, kind)
        data = as_dataset(p, make_binary_data(p, rng, 10))
        cfg = TrainConfig(learning_rate=0.2, momentum=0.9, epochs=4, batch_size=3,
                          seed=6, switch_lr_scale=2.0, weight_decay=0.01)
        got, _ = train(p, data, cfg, gradient_fn=exact_gradient)
        want, _ = reference_train(p, data, cfg, exact_gradient)
        for a, b in zip((*got.W, *got.xi, got.lam, got.s),
                        (*want.W, *want.xi, want.lam, want.s)):
            assert np.array_equal(a, b)

    def test_switch_frozen_outside_sa(self, rng):
        p = make_tiny_model(rng, StructureKind.DWH)
        data = as_dataset(p, make_binary_data(p, rng, 10))
        out, _ = train(p, data, TrainConfig(epochs=2, batch_size=5, seed=2))
        assert np.array_equal(out.s, p.s)

    @pytest.mark.parametrize("cd_steps", [1, 3])
    @pytest.mark.parametrize("model", [*StructureKind, Family.BERNOULLI])
    def test_equals_loop_of_public_calls(self, tmp_path, model, cd_steps):
        # train, with its one step state, writes the checkpoint and log bytes
        # of a loop that calls the public cd_gradient without one. 13 and
        # 24 rows in batches of 5 end each epoch on a short batch. A Family
        # is a gaussian_view_model; the tiny models' data is bytes.
        rng = np.random.default_rng(17)
        if isinstance(model, Family):
            p, fv = gaussian_view_model(rng, model)
        else:
            p = make_tiny_model(rng, model, dims=(4, 3), J=5)
            fv = [a.astype(np.uint8) for a in make_binary_data(p, rng, 13)]
        cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=5, cd_steps=cd_steps,
                          seed=8, weight_decay=0.01)
        outputs = []
        for params, log in (train(p, as_dataset(p, fv), cfg),
                            reference_train(p, as_dataset(p, fv), cfg)):
            save_checkpoint(params, str(tmp_path / "checkpoint.json"))
            outputs.append(((tmp_path / "checkpoint.json").read_bytes(), log.to_csv()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count("\n") == 4

    def test_step_buffers_built_once_per_call(self, monkeypatch):
        # One GradientSet (the step state's) for all 9 steps of 3 epochs;
        # every step gets the same state and returns its gradient.
        built, states, grads = [], set(), set()

        class CountedGradientSet(GradientSet):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        step = training_mod.cd_gradient

        def recorded(*args):
            states.add(id(args[4]))
            grad = step(*args)
            grads.add(id(grad))
            return grad

        monkeypatch.setattr(training_mod, "GradientSet", CountedGradientSet)
        monkeypatch.setattr(training_mod, "cd_gradient", recorded)
        rng = np.random.default_rng(6)
        p = make_tiny_model(rng)
        train(p, as_dataset(p, make_binary_data(p, rng, 13)),
              TrainConfig(epochs=3, batch_size=5, seed=1))
        assert (len(built), len(states), len(grads)) == (1, 1, 1)

    def test_exact_log_likelihood_memory_does_not_grow_with_the_dataset(self):
        # The epoch's exact log-likelihood takes the rows a block at a time.
        # 2 and 4 blocks of rows (sum_k D_k = 6) give peaks within one
        # float64 block (2 MB) of each other; each epoch's row permutation,
        # 8 bytes a row, is the one array that grows. Widened whole, the
        # rows cost about 120 bytes each, 10.5 MB more at 4 blocks.
        block_rows = model_mod.ROW_BLOCK_VALUES // 6
        peaks = []
        for n in (2 * block_rows, 4 * block_rows):
            rng = np.random.default_rng(5)
            p = make_tiny_model(rng, dims=(3, 3), J=4)
            data = as_dataset(p, [a.astype(np.uint8) for a in make_binary_data(p, rng, n)])
            _, peak = traced_peak(
                lambda: train(p, data, TrainConfig(epochs=1, batch_size=500, seed=1)))
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 8 * model_mod.ROW_BLOCK_VALUES, peaks


def gaussian_view_model(rng, hidden_family):
    """SA model with a Gaussian and a Bernoulli view, and 24 rows of data."""
    views = [ViewConfig("g", 3, Family.GAUSSIAN_UNIT_VARIANCE),
             ViewConfig("b", 4, Family.BERNOULLI)]
    p = HarmoniumParams(
        views=views, hidden_dim=5, hidden_family=hidden_family,
        W=[0.1 * rng.standard_normal((v.dim, 5)) for v in views],
        xi=[0.1 * rng.standard_normal(v.dim) for v in views],
        lam=0.1 * rng.standard_normal(5), s=rng.standard_normal((2, 5)),
        structure=StructureMode(StructureKind.SA))
    return p, [rng.standard_normal((24, 3)), (rng.random((24, 4)) < 0.5).astype(float)]


def blocked_model(rng):
    """SA model with a Gaussian view "g" and a byte Bernoulli view "b" of
    144 each (12x12 glyphs) and 60 hidden units: sum_k D_k = 288 values a
    row, so `model.row_blocks` takes up to 910 rows at a time. The data
    holds 3 such blocks and 100 rows more: 4 blocks of 707 or 708 rows."""
    views = [ViewConfig("g", 144, Family.GAUSSIAN_UNIT_VARIANCE),
             ViewConfig("b", 144, Family.BERNOULLI)]
    p = HarmoniumParams(
        views=views, hidden_dim=60, hidden_family=Family.BERNOULLI,
        W=[0.05 * rng.standard_normal((v.dim, 60)) for v in views],
        xi=[0.1 * rng.standard_normal(v.dim) for v in views],
        lam=0.1 * rng.standard_normal(60), s=2.0 * rng.standard_normal((2, 60)),
        structure=StructureMode(StructureKind.SA))
    n = 3 * (model_mod.ROW_BLOCK_VALUES // 288) + 100
    return p, [rng.standard_normal((n, 144)), (rng.random((n, 144)) < 0.5).astype(np.uint8)]


def traced_peak(fn):
    """fn()'s result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainGoldenDigests:
    """sha256 of the checkpoint bytes plus `TrainLog.to_csv()` of short CD
    runs with weight decay, pinned so that any change to the bits a training
    run produces (the CD step, its rng order, the update or the epoch-end
    metrics) shows. The bits also depend on the BLAS kernel (the CD chain's
    float32 sgemm among them) and on numpy's SIMD `exp`, which
    `expfam.sigmoid` uses (see README, Tests)."""

    DIGESTS = {
        ("sa", 1): "d4b86eeafa7b2705c02bff8e946fa799b2e90df3a30dbbb6eb03c1f8bb9e0025",
        ("sa", 3): "27eae9ecc418fc26be2bb802825dc60712d4882065708ccb48290e04f15a07b0",
        ("dwh", 1): "b25fe7ba5249b6b9961da96229f591ef773b9b21af44c9ed1fa37958263ea318",
        ("dwh", 3): "d2b06aaf870074f6e9400862e3a043ffebb4792711cf91e7b28e61fd2c9da596",
        ("mvh", 1): "3f419ef358e04b415dc3d826189b96aeaacefcaba42e6bb489040373a94bbf2d",
        ("mvh", 3): "29a75eca721796ed101171ade89e42a010ded44f7cc940e82df1291ecd24b96f",
        ("gaussian_view", "bernoulli"):
            "15a44b0e382adbeff47b1649c4f81b4073cbe75b15225cb0cf54a3745965928a",
        ("gaussian_view", "gaussian_unit_variance"):
            "8e41e0ad52983c9f93f783d800702c4bffb84f66899a57bb7c3ff1686f025e45",
    }

    @staticmethod
    def digest(tmp_path, p, fv, cd_steps):
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=5, cd_steps=cd_steps,
                          seed=4, weight_decay=0.01)
        out, log = train(p, as_dataset(p, fv), cfg)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(out, str(path))
        return hashlib.sha256(path.read_bytes() + log.to_csv().encode()).hexdigest()

    @pytest.mark.parametrize("cd_steps", [1, 3])
    @pytest.mark.parametrize("kind", list(StructureKind))
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8], ids=["float64", "uint8"])
    def test_all_bernoulli(self, tmp_path, kind, cd_steps, dtype):
        # The same data held as bytes trains to the same bits.
        rng = np.random.default_rng(31)
        p = make_tiny_model(rng, kind, dims=(4, 3), J=5)
        fv = [a.astype(dtype) for a in make_binary_data(p, rng, 24)]
        assert self.digest(tmp_path, p, fv, cd_steps) == self.DIGESTS[kind.value, cd_steps]

    @pytest.mark.parametrize("hidden_family", list(Family))
    def test_gaussian_view(self, tmp_path, hidden_family):
        p, fv = gaussian_view_model(np.random.default_rng(32), hidden_family)
        assert (self.digest(tmp_path, p, fv, 2)
                == self.DIGESTS["gaussian_view", hidden_family.value])


def one_shot_reconstruction_error(params, fv):
    """`reconstruction_error` as one `np.mean` over the whole batch."""
    chain, wg = training_mod._float32_chain(params, gates(params))
    fv = check_views(params, fv, np.float32)
    hmean = posterior_hidden_mean_batch(chain, wg, fv)
    return np.array([
        np.mean(np.square(fv[k] - mean(cfg.family, visible_shifted_batch(chain, wg, hmean, k))),
                dtype=np.float64) for k, cfg in enumerate(params.views)])


class TestReconstructionError:
    def test_one_block_bit_equal_to_one_mean_and_many_blocks_close(self):
        # Over one block the float64 sum of squares divided by the count
        # rounds as np.mean does; over several, the blocks' sums are added.
        p, fv = blocked_model(np.random.default_rng(44))
        one = [a[:model_mod.ROW_BLOCK_VALUES // 288] for a in fv]
        assert np.array_equal(reconstruction_error(p, one), one_shot_reconstruction_error(p, one))
        np.testing.assert_allclose(reconstruction_error(p, fv),
                                   one_shot_reconstruction_error(p, fv), rtol=1e-12, atol=0)

    def test_nonnegative(self, rng):
        p = make_tiny_model(rng)
        fv = make_binary_data(p, rng, 6)
        assert np.all(reconstruction_error(p, fv) >= 0)

    def test_w_zero_closed_form(self, rng):
        p = make_tiny_model(rng, scale=0.0)
        p.s[:] = 0.0
        p.xi[0][:] = 0.3
        p.xi[1][:] = -0.2
        fv = make_binary_data(p, rng, 50)
        got = reconstruction_error(p, fv)
        # Reconstruction is the constant prior mean, so the error is the
        # mean squared deviation of the data from it.
        for k, eta in enumerate((0.3, -0.2)):
            prior = 1 / (1 + math.exp(-eta))
            assert got[k] == pytest.approx(np.mean((fv[k] - prior) ** 2))

    def test_value_beyond_float32_range_is_domain_error(self):
        p, fv = gaussian_view_model(np.random.default_rng(9), Family.BERNOULLI)
        fv[0][0, 0] = 3.5e38
        with pytest.raises(DomainError, match=F32_RANGE):
            reconstruction_error(p, fv)

    def test_saturated_autoencoder(self):
        p = HarmoniumParams(
            views=[ViewConfig("v", 1, Family.BERNOULLI)],
            hidden_dim=1, hidden_family=Family.BERNOULLI,
            W=[np.array([[80.0]])], xi=[np.array([-40.0])],
            lam=np.array([-40.0]), s=np.array([[30.0]]),
            structure=StructureMode(StructureKind.SA))
        assert np.max(reconstruction_error(p, [np.array([[1.0], [0.0]])])) < 1e-9


class TestTrainLogCsv:
    def test_header_and_rows(self, rng):
        p = make_tiny_model(rng)
        data = as_dataset(p, make_binary_data(p, rng, 8))
        _, log = train(p, data, TrainConfig(epochs=2, batch_size=4, seed=5))
        lines = log.to_csv().strip().split("\n")
        assert lines[0] == ("epoch,recon_err_view0,recon_err_view1,"
                            "mean_gate_view0,mean_gate_view1,exact_ll")
        assert len(lines) == 3
        assert lines[1].startswith("0,")

    def test_exact_ll_empty_when_infeasible(self):
        rng = np.random.default_rng(0)
        p = make_tiny_model(rng, dims=(10, 10), J=4, scale=0.01)
        data = as_dataset(p, make_binary_data(p, rng, 8))
        _, log = train(p, data, TrainConfig(epochs=1, batch_size=4, seed=5,
                                            learning_rate=0.01))
        assert log.to_csv().strip().split("\n")[1].endswith(",")
