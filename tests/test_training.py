import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logit

from samvh.data import MultiViewDataset
from samvh.expfam import Family, NonFiniteError, mean, sample, suff_stat
from samvh.model import (
    PARAM_GROUPS,
    HarmoniumParams,
    ShapeMismatchError,
    StructureKind,
    StructureMode,
    ViewConfig,
    exact_visible_distribution,
    gates,
    make_binary_data,
    make_tiny_model,
    param_vector,
    save_checkpoint,
)
from samvh.training import (
    GradientSet,
    TrainConfig,
    TrainingDivergedError,
    _contrast_stats,
    cd_gradient,
    exact_gradient,
    finite_diff_gradient,
    reconstruction_error,
    train,
)
from test_model import hmean_of, reference_log_likelihood, wg_of


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


def reference_chain(params, fv, cd_steps, rng):
    """The two phases of CD-k computed view by view, as (fv, hidden means)
    of the data and of the final chain state: every product recomputes the
    gates and its view's gated weights."""
    hf = params.hidden_family

    def gated(k):
        return params.W[k] * gates(params)[k][None, :]

    def hidden(fv):
        out = np.broadcast_to(params.lam, (fv[0].shape[0], params.hidden_dim)).copy()
        for k in range(params.num_views):
            out += fv[k] @ gated(k)
        return out

    chain = fv
    for _ in range(cd_steps):
        gh = suff_stat(hf, sample(hf, hidden(chain), rng))
        chain = [sample(cfg.family, params.xi[k][None, :] + gh @ gated(k).T, rng)
                 for k, cfg in enumerate(params.views)]
    return (fv, mean(hf, hidden(fv))), (chain, mean(hf, hidden(chain)))


def reference_cd_gradient(params, fv, cd_steps, rng):
    """CD-k as a flat vector laid out like `GradientSet.vec`, from the phases
    of `reference_chain`. The statistics stack both phases, F = [fv+; fv-]
    and H = [h+/B; -h-/B], and take each view's groups from one product
    stat = F' H, the switch statistic as g (1 - g) colsum(W * stat)."""
    (fv_pos, h_pos), (fv_neg, h_neg) = reference_chain(params, fv, cd_steps, rng)
    B = h_pos.shape[0]
    w = np.concatenate([np.full(B, 1.0 / B), -np.full(B, 1.0 / B)])
    H = np.concatenate([h_pos, h_neg]) * w[:, None]
    F = [np.concatenate([a, b]) for a, b in zip(fv_pos, fv_neg)]
    g = gates(params)
    sa = params.structure.kind is StructureKind.SA
    stat = [F[k].T @ H for k in range(params.num_views)]
    dW = [g[k][None, :] * stat[k] for k in range(params.num_views)]
    dxi = [F[k].T @ w for k in range(params.num_views)]
    ds = [g[k] * (1.0 - g[k]) * np.einsum("ij,ij->j", params.W[k], stat[k]) if sa
          else np.zeros(params.hidden_dim) for k in range(params.num_views)]
    return np.concatenate([a.ravel() for a in (*dW, *dxi, H.sum(axis=0), *ds)])


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


def assert_matches_textbook(got, want):
    """Equal to 1e-12 relative, elements near zero measured against the
    largest |want|: the two forms sum the same terms in different orders."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


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


def reference_train(params, data, config, gradient_fn):
    """Momentum ascent updating each parameter array on its own."""
    rng = np.random.default_rng(config.seed)
    cur = params.copy()
    lr, m = config.learning_rate, config.momentum
    vW = [np.zeros_like(w) for w in cur.W]
    vxi = [np.zeros_like(x) for x in cur.xi]
    vlam, vs = np.zeros_like(cur.lam), np.zeros_like(cur.s)
    n = data.num_samples
    for _ in range(config.epochs):
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
    return cur


def as_dataset(params, fv):
    return MultiViewDataset(views=list(params.views), view_arrays=fv)


def positive_stats(params, fv, hmean):
    """`_contrast_stats` of a batch weighted 1/B against an empty negative phase."""
    weights = np.full(hmean.shape[0], 1.0 / hmean.shape[0])
    return _contrast_stats(params, gates(params), (fv, hmean, weights),
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
        got = _contrast_stats(p, gates(p), pos, neg)
        assert_matches_textbook(flatten(got), textbook_stats(p, *pos) - textbook_stats(p, *neg))

    @staticmethod
    def check_cd(p, fv, cd_steps):
        got = cd_gradient(p, fv, cd_steps, np.random.default_rng(45))
        (fv_pos, h_pos), (fv_neg, h_neg) = reference_chain(
            p, fv, cd_steps, np.random.default_rng(45))
        w = np.full(h_pos.shape[0], 1.0 / h_pos.shape[0])
        want = textbook_stats(p, fv_pos, h_pos, w) - textbook_stats(p, fv_neg, h_neg, w)
        assert_matches_textbook(flatten(got), want)

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
        want = reference_train(p, data, cfg, exact_gradient)
        for a, b in zip((*got.W, *got.xi, got.lam, got.s),
                        (*want.W, *want.xi, want.lam, want.s)):
            assert np.array_equal(a, b)

    def test_switch_frozen_outside_sa(self, rng):
        p = make_tiny_model(rng, StructureKind.DWH)
        data = as_dataset(p, make_binary_data(p, rng, 10))
        out, _ = train(p, data, TrainConfig(epochs=2, batch_size=5, seed=2))
        assert np.array_equal(out.s, p.s)


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


class TestTrainGoldenDigests:
    """sha256 of the checkpoint bytes plus `TrainLog.to_csv()` of short CD
    runs with weight decay, pinned so that any change to the bits a training
    run produces (the CD step, its rng order, the update or the epoch-end
    metrics) shows. The bits also depend on the BLAS kernel and on numpy's
    SIMD `exp`, which `expfam.sigmoid` uses (see README, Tests)."""

    DIGESTS = {
        ("sa", 1): "56edad63934fcf5edde96c83d51fbd98236666d573606caa916dbdc2025a0d0e",
        ("sa", 3): "f7365ceb047a05520fd4e7834d51b26275c797859fbe35ff4ccdbed7889b5a70",
        ("dwh", 1): "062ba04bef5a00b68ac8f26f90a6f0d95272ebb4486e4447c088e95ff27e2563",
        ("dwh", 3): "dbc34c46ea3eceb90a2d332382439203db538e3dff1054b96a5ab84c53a6991b",
        ("mvh", 1): "68b97aed9e3f32c4acb1ab44c2f0aff5563789b38b8e2a2665d0b11c2b3a0f57",
        ("mvh", 3): "03c96dcdb94103f043d66d6f8b92cd08a7cc4c2e4fe9f6be0a7ff6106c2138e7",
        ("gaussian_view", "bernoulli"):
            "c17f057cea9de98d5386b6b412d59b239299a7f9b7b5d8e15ee0e4091107ecee",
        ("gaussian_view", "gaussian_unit_variance"):
            "a420c5464d1dd55db55feaaf0ab9e7bd8f6693136fd395115f0aa3d9e4f6a849",
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


class TestReconstructionError:
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
