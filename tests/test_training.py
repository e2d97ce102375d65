import math

import numpy as np
import pytest
from scipy.special import logit

from samvh.data import MultiViewDataset
from samvh.expfam import Family, mean, sample, suff_stat
from samvh.model import (
    HarmoniumParams,
    ShapeMismatchError,
    StructureKind,
    StructureMode,
    ViewConfig,
    gates,
    make_binary_data,
    make_tiny_model,
    posterior_hidden_mean_batch,
)
from samvh.training import (
    GradientSet,
    TrainConfig,
    TrainingDivergedError,
    _batch_mean_stats,
    cd_gradient,
    exact_gradient,
    finite_diff_gradient,
    reconstruction_error,
    train,
)


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


def reference_cd_gradient(params, fv, cd_steps, rng):
    """CD-k computed view by view, as a flat vector laid out like
    `GradientSet.vec`: every product recomputes the gates and its view's gated
    weights, and each phase gets its own statistics."""
    hf = params.hidden_family
    sa = params.structure.kind is StructureKind.SA

    def gated(k):
        return params.W[k] * gates(params)[k][None, :]

    def hidden(fv):
        out = np.broadcast_to(params.lam, (fv[0].shape[0], params.hidden_dim)).copy()
        for k in range(params.num_views):
            out += fv[k] @ gated(k)
        return out

    def stats(fv, hmean):
        weights = np.full(hmean.shape[0], 1.0 / hmean.shape[0])
        g = gates(params)
        sprime = g * (1.0 - g) if sa else np.zeros_like(g)
        wh = hmean * weights[:, None]
        dW = [g[k][None, :] * (fv[k].T @ wh) for k in range(params.num_views)]
        dxi = [fv[k].T @ weights for k in range(params.num_views)]
        ds = [sprime[k] * ((fv[k] @ params.W[k]) * wh).sum(axis=0)
              for k in range(params.num_views)]
        return np.concatenate([a.ravel() for a in (*dW, *dxi, wh.sum(axis=0), *ds)])

    pos = stats(fv, mean(hf, hidden(fv)))
    chain = fv
    for _ in range(cd_steps):
        gh = suff_stat(hf, sample(hf, hidden(chain), rng))
        chain = [sample(cfg.family, params.xi[k][None, :] + gh @ gated(k).T, rng)
                 for k, cfg in enumerate(params.views)]
    return pos - stats(chain, mean(hf, hidden(chain)))


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


def sample_stats(params, fv):
    """Positive-phase statistics of a batch, at its posterior hidden means."""
    return _batch_mean_stats(params, fv, posterior_hidden_mean_batch(params, fv))


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
            hmean = posterior_hidden_mean_batch(p, fv)
            got = _batch_mean_stats(p, fv, hmean)
            want = oracle_stats(p, [a[0] for a in fv], hmean[0])
            for a, b in zip(got.dW, want.dW):
                np.testing.assert_allclose(a, b, atol=1e-12)
            for a, b in zip(got.dxi, want.dxi):
                np.testing.assert_allclose(a, b, atol=1e-12)
            np.testing.assert_allclose(got.dlam, want.dlam, atol=1e-12)
            np.testing.assert_allclose(got.ds, want.ds, atol=1e-12)


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
        # The switch logits are the first group to leave the finite range.
        assert (exc.value.group, exc.value.epoch) == ("s", 340)

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
