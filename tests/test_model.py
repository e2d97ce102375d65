import base64
import itertools
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from scipy.special import expit, logsumexp

from samvh import model as model_mod
from samvh.expfam import DomainError, Family
from samvh.model import (
    ROW_BLOCK_VALUES,
    EnumerationBoundError,
    HarmoniumParams,
    MalformedDocumentError,
    MissingKeyError,
    ShapeMismatchError,
    StructureKind,
    StructureMode,
    ViewConfig,
    _gates,
    _logsumexp,
    check_views,
    enumerate_binary_states,
    exact_log_likelihood,
    exact_log_partition,
    exact_visible_distribution,
    gated_weights,
    gates,
    gibbs_step_batch,
    hidden_shifted_batch,
    load_checkpoint,
    log_unnorm_marginal_batch,
    make_binary_data,
    make_tiny_model,
    param_group_ends,
    param_vector,
    posterior_hidden_mean_batch,
    row_blocks,
    save_checkpoint,
    split_param_vector,
    stacked_log_likelihood,
    structure_report,
    unnormalized_log_joint,
    visible_shifted_batch,
    write_json,
)

SIGMOID_2 = 0.88079707797788244405972914130239679520638429862897


def wg_of(params):
    return gated_weights(params.W, gates(params))


def lam_hat_of(params, fv):
    return hidden_shifted_batch(params.lam, wg_of(params), fv)


def hmean_of(params, fv):
    return posterior_hidden_mean_batch(params, wg_of(params), fv)


def gibbs_from(params, fv, rng):
    """One Gibbs sweep from the visible batch fv: h ~ p(h | v), then v'."""
    return gibbs_step_batch(params, wg_of(params), hmean_of(params, fv), rng)


def one_unit_model(W=2.0, s=0.0, xi=0.2, lam=0.3, kind=StructureKind.SA):
    return HarmoniumParams(
        views=[ViewConfig("v", 1, Family.BERNOULLI)],
        hidden_dim=1,
        hidden_family=Family.BERNOULLI,
        W=[np.array([[W]])],
        xi=[np.array([xi])],
        lam=np.array([lam]),
        s=np.array([[s]]),
        structure=StructureMode(kind),
    )


def rows(*values):
    """A B=1 batch: one (1, D_k) array per view."""
    return [np.asarray(v, dtype=float)[None, :] for v in values]


# ---------------------------------------------------------------------------
# Independent oracles (naive loops, no shared code with the implementation)
# ---------------------------------------------------------------------------

def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def oracle_gates(params):
    K, J = params.s.shape
    kind = params.structure.kind
    out = np.empty((K, J))
    for k in range(K):
        for j in range(J):
            if kind is StructureKind.DWH:
                out[k, j] = 1.0
            elif kind is StructureKind.MVH:
                out[k, j] = 1.0 if params.structure.mask[k, j] else 0.0
            else:
                out[k, j] = sigmoid(params.s[k, j])
    return out


def oracle_lam_hat(params, values):
    g = oracle_gates(params)
    out = np.array(params.lam, dtype=float, copy=True)
    for j in range(params.hidden_dim):
        for k, cfg in enumerate(params.views):
            for i in range(cfg.dim):
                out[j] += g[k, j] * params.W[k][i, j] * values[k][i]
    return out


def oracle_xi_hat(params, h, k):
    g = oracle_gates(params)
    out = np.array(params.xi[k], dtype=float, copy=True)
    for i in range(params.views[k].dim):
        for j in range(params.hidden_dim):
            out[i] += g[k, j] * params.W[k][i, j] * h[j]
    return out


def oracle_log_joint(params, values, h):
    g = oracle_gates(params)
    total = 0.0
    for j in range(params.hidden_dim):
        total += params.lam[j] * h[j]
    for k, cfg in enumerate(params.views):
        for i in range(cfg.dim):
            total += params.xi[k][i] * values[k][i]
            for j in range(params.hidden_dim):
                total += g[k, j] * params.W[k][i, j] * values[k][i] * h[j]
    return total


def oracle_probability_table(params):
    """Every (v, h) probability by direct summation (tiny models only)."""
    dims = [v.dim for v in params.views]
    total_v = sum(dims)
    table = {}
    z = 0.0
    for vbits in itertools.product([0.0, 1.0], repeat=total_v):
        values, pos = [], 0
        for d in dims:
            values.append(np.array(vbits[pos:pos + d]))
            pos += d
        for hbits in itertools.product([0.0, 1.0], repeat=params.hidden_dim):
            w = math.exp(oracle_log_joint(params, values, np.array(hbits)))
            table[(vbits, hbits)] = w
            z += w
    return {key: w / z for key, w in table.items()}


def oracle_log_likelihood(params, fv):
    table = oracle_probability_table(params)
    total = 0.0
    for row in np.concatenate(fv, axis=1):
        vbits = tuple(float(x) for x in row)
        p = sum(w for (vb, _), w in table.items() if vb == vbits)
        total += math.log(p)
    return total / len(fv[0])


def reference_log_partition(params):
    """log Z as one model's enumeration computes it: a scipy logsumexp over
    `log_unnorm_marginal_batch` of every visible state."""
    states = enumerate_binary_states(sum(v.dim for v in params.views))
    fv = np.split(states, np.cumsum([v.dim for v in params.views])[:-1], axis=1)
    return float(logsumexp(log_unnorm_marginal_batch(params.xi, fv, lam_hat_of(params, fv))))


def reference_log_likelihood(params, fv):
    log_p = log_unnorm_marginal_batch(params.xi, fv, lam_hat_of(params, fv))
    return float(np.mean(log_p)) - reference_log_partition(params)


def random_tiny_model(rng):
    """A tiny model of 1 to 3 views, 1 to 4 units each, and 1 to 12 hidden
    units, in a structure mode drawn at random."""
    dims = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 4)))
    kind = list(StructureKind)[rng.integers(3)]
    return make_tiny_model(rng, kind, dims=dims, J=int(rng.integers(1, 13)))


def oracle_posterior_mean(params, fv):
    """E[h | v] of a B=1 batch from the exact joint table."""
    table = oracle_probability_table(params)
    vbits = tuple(float(x) for arr in fv for x in arr[0])
    num = np.zeros(params.hidden_dim)
    den = 0.0
    for (vb, hb), w in table.items():
        if vb == vbits:
            num += w * np.array(hb)
            den += w
    return num / den


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

class TestGate:
    def test_sa_at_zero(self):
        assert gates(one_unit_model(s=0.0))[0, 0] == 0.5

    def test_dwh_always_one(self):
        assert gates(one_unit_model(s=-5.0, kind=StructureKind.DWH))[0, 0] == 1.0

    def test_sa_logistic(self):
        assert gates(one_unit_model(s=2.0))[0, 0] == pytest.approx(SIGMOID_2, abs=1e-12)

    def test_index_out_of_range(self, rng):
        # One gate per (view, hidden unit) and no more.
        g = gates(make_tiny_model(rng, dims=(3, 2, 1), J=5))
        assert g.shape == (3, 5)
        with pytest.raises(IndexError):
            g[3, 0]

    def test_mvh_mask(self, rng):
        mask = np.array([[True, False, True, False], [False, True, True, False]])
        p = make_tiny_model(rng, StructureKind.MVH, mask=mask)
        assert np.array_equal(gates(p), mask.astype(float))


class TestStructureMode:
    @pytest.mark.parametrize("mask", [
        np.array([[True, False, True]]), np.array([[1, 0, 1]], dtype=np.uint8),
        [[1, 0, 1]], [[True, False, 1]]])
    def test_binary_masks_accepted(self, mask):
        got = StructureMode(StructureKind.MVH, mask).mask
        assert got.dtype == bool
        assert got.tolist() == [[True, False, True]]

    @pytest.mark.parametrize("mask", [
        np.array([[0.3, 2.0, 0.0]]), np.array([[1.0, 0.0, 1.0]]),
        np.array([[1, 2, 0]]), np.array([1, 0, 1]), np.ones((1, 2, 2), dtype=bool),
        [[0.3, 2.0, 0.0]], [["x", "", None]], [[1, 0], [1]], [1, 0], [],
        (1, 0), ((1, 0),), "x", 7])
    def test_other_masks_are_type_errors(self, mask):
        # The rule the JSON boundaries apply holds for API callers too: no
        # truthy or falsy value other than 0, 1, true or false passes.
        with pytest.raises(TypeError, match="mask"):
            StructureMode(StructureKind.MVH, mask)

    def test_mask_only_in_mvh(self):
        with pytest.raises(ValueError, match="requires"):
            StructureMode(StructureKind.MVH)
        with pytest.raises(ValueError, match="only meaningful"):
            StructureMode(StructureKind.SA, [[1]])


class TestParamLayout:
    @pytest.mark.parametrize("dims,J", [((3, 3), 4), ((1, 2, 4), 3), ((5,), 1)])
    def test_group_ends_cut_theta_into_groups(self, rng, dims, J):
        p = make_tiny_model(rng, dims=dims, J=J)
        theta = param_vector(p)
        ends = param_group_ends(list(dims), J)
        assert ends[-1] == theta.size
        W, xi, lam, s = np.split(theta, ends[:-1])
        assert np.array_equal(W, np.concatenate([w.ravel() for w in p.W]))
        assert np.array_equal(xi, np.concatenate(p.xi))
        assert np.array_equal(lam, p.lam)
        assert np.array_equal(s, p.s.ravel())

    def test_strictly_increasing_in_s(self):
        vals = [gates(one_unit_model(s=s))[0, 0] for s in np.linspace(-4, 4, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Shifted parameters and posterior means
# ---------------------------------------------------------------------------

class TestShiftedParams:
    def test_zero_weights_hidden(self, rng):
        p = make_tiny_model(rng)
        for w in p.W:
            w[:] = 0.0
        fv = make_binary_data(p, rng, 1)
        assert np.array_equal(lam_hat_of(p, fv), p.lam[None, :])

    def test_zero_weights_visible(self, rng):
        p = make_tiny_model(rng)
        for w in p.W:
            w[:] = 0.0
        assert np.array_equal(visible_shifted_batch(p, wg_of(p), np.ones((1, 4)), 0),
                              p.xi[0][None, :])

    def test_hand_computed_one_term(self):
        p = one_unit_model(W=2.0, s=0.0, lam=0.1)
        assert lam_hat_of(p, rows([1.0]))[0, 0] == pytest.approx(1.1)

    def test_hand_computed_visible_mirror(self):
        p = one_unit_model(W=2.0, s=0.0, xi=0.2)
        got = visible_shifted_batch(p, wg_of(p), np.array([[1.0]]), 0)
        assert got[0, 0] == pytest.approx(0.2 + 0.5 * 2.0 * 1.0)

    def test_matches_naive_loop_oracle(self, rng):
        for _ in range(5):
            p = make_tiny_model(rng)
            fv = make_binary_data(p, rng, 1)
            np.testing.assert_allclose(
                lam_hat_of(p, fv)[0],
                oracle_lam_hat(p, [a[0] for a in fv]), atol=1e-12)
            h = (rng.random(p.hidden_dim) < 0.5).astype(float)
            for k in range(p.num_views):
                np.testing.assert_allclose(
                    visible_shifted_batch(p, wg_of(p), h[None, :], k)[0],
                    oracle_xi_hat(p, h, k), atol=1e-12)

    def test_shape_mismatch(self, rng):
        p = make_tiny_model(rng)
        h = np.zeros((1, 4))
        for bad in (rows(np.zeros(2), np.zeros(3)), rows(np.zeros(3)),
                    [np.zeros((1, 3)), np.zeros((2, 3))],
                    [np.zeros((0, 3)), np.zeros((0, 3))], [np.zeros(3), np.zeros(3)]):
            with pytest.raises(ShapeMismatchError):
                unnormalized_log_joint(p, bad, h)


class TestStackedKernels:
    """The energy kernels take an (R, ...) stack of parameters and give each
    run the bits of a single-model call."""

    @pytest.mark.parametrize("kind", list(StructureKind))
    def test_stack_equals_single_models(self, rng, kind):
        dims, J, R = (2, 3, 1), 5, 4
        models = [make_tiny_model(rng, kind, dims=dims, J=J)]
        models += [make_tiny_model(rng, kind, dims=dims, J=J, mask=models[0].structure.mask)
                   for _ in range(R - 1)]
        fv = make_binary_data(models[0], rng, 7)
        W, xi, lam, s = split_param_vector(
            np.stack([param_vector(q) for q in models]), list(dims), J)
        wg = gated_weights(W, _gates(models[0].structure, s))
        lam_hat = hidden_shifted_batch(lam, wg, fv)
        log_p = log_unnorm_marginal_batch(xi, fv, lam_hat.copy())
        assert lam_hat.shape == (R, 7, J) and log_p.shape == (R, 7)
        for r, q in enumerate(models):
            wg_q = wg_of(q)
            for a, b in zip(wg, wg_q):
                assert np.array_equal(a[r], b)
            lam_hat_q = hidden_shifted_batch(q.lam, wg_q, fv)
            assert np.array_equal(lam_hat[r], lam_hat_q)
            assert np.array_equal(log_p[r], log_unnorm_marginal_batch(q.xi, fv, lam_hat_q))

    def test_mvh_gates_are_one_mask_for_any_leading_axes(self, rng):
        p = make_tiny_model(rng, StructureKind.MVH, dims=(2, 3), J=4)
        for lead in ((), (3,), (2, 3)):
            g = _gates(p.structure, rng.standard_normal((*lead, 2, 4)))
            assert np.array_equal(g, p.structure.mask)

    def test_binary_data_draws_row_by_row_view_by_view(self, rng):
        p = make_tiny_model(rng, dims=(1, 3, 2))
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        got = make_binary_data(p, a, 6)
        draws = [[b.random(v.dim) < 0.5 for v in p.views] for _ in range(6)]
        for k, arr in enumerate(got):
            assert arr.flags.c_contiguous and arr.dtype == np.float64
            assert np.array_equal(arr, [row[k] for row in draws])
        assert a.bit_generator.state == b.bit_generator.state


def assert_same_bits(got, want):
    """got and want are of one type and shape and hold the same bytes."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestLogSumExp:
    """`_logsumexp` is scipy.special.logsumexp's algorithm for real input,
    bit for bit and without a warning, so that log Z, the gradient oracles
    and every golden that depends on them stay as they were."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_random_stacks_and_vectors(self, rng):
        for _ in range(300):
            a = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 200)))
            a *= rng.choice([0.1, 1.0, 30.0, 700.0])
            if rng.random() < 0.5:
                a = np.round(a)  # ties at the max
            assert_same_bits(_logsumexp(a, axis=1), logsumexp(a, axis=1))
            for row in a:
                assert_same_bits(_logsumexp(row), logsumexp(row))

    @pytest.mark.parametrize("row", [
        [2.0, 2.0, 1.0], [-3.5, -3.5, -3.5], [np.inf, 1.0, 2.0], [np.inf, np.inf, 0.0],
        [np.inf, -np.inf, 0.0], [np.nan, 1.0, 2.0], [np.inf, np.nan, 0.0],
        [-np.inf, -np.inf, -np.inf], [-np.inf, -np.inf, 3.0]])
    def test_ties_and_non_finite_rows(self, row):
        a = np.array(row)
        stack = np.stack([a, [0.0, 1.0, 2.0], a[::-1]])
        assert_same_bits(_logsumexp(stack, axis=1), logsumexp(stack, axis=1))
        assert_same_bits(_logsumexp(a), logsumexp(a))

    def test_vector_gives_a_float64_scalar(self):
        out = _logsumexp(np.array([0.0, math.log(3.0)]))
        assert type(out) is np.float64 and out == logsumexp([0.0, math.log(3.0)])


class TestCheckViews:
    """Which fault a bad value is reported as: a non-finite value in any
    view, before a finite value outside a Bernoulli view's support."""

    @staticmethod
    def model(first_family):
        views = [ViewConfig("a", 3, first_family), ViewConfig("b", 2, Family.BERNOULLI)]
        return HarmoniumParams(
            views=views, hidden_dim=2, hidden_family=Family.BERNOULLI,
            W=[np.zeros((v.dim, 2)) for v in views], xi=[np.zeros(v.dim) for v in views],
            lam=np.zeros(2), s=np.zeros((2, 2)), structure=StructureMode(StructureKind.SA))

    @pytest.mark.parametrize("family,cells,message", [
        (Family.BERNOULLI, [np.nan], "values must be finite"),
        (Family.BERNOULLI, [np.inf], "values must be finite"),
        (Family.BERNOULLI, [-np.inf], "values must be finite"),
        (Family.BERNOULLI, [0.5], "Bernoulli support is {0, 1}"),
        (Family.BERNOULLI, [0.5, np.nan], "values must be finite"),
        (Family.GAUSSIAN_UNIT_VARIANCE, [np.nan], "values must be finite"),
        (Family.GAUSSIAN_UNIT_VARIANCE, [-np.inf], "values must be finite"),
    ])
    def test_fault_message(self, family, cells, message):
        fv = [np.ones((3, 3)), np.zeros((3, 2))]
        fv[0].flat[:len(cells)] = cells
        with pytest.raises(DomainError) as info:
            check_views(self.model(family), fv)
        assert str(info.value) == f"view 'a': {message}"

    def test_second_view_is_named(self):
        fv = [np.ones((3, 3)), np.full((3, 2), 2.0)]
        with pytest.raises(DomainError, match="^view 'b': Bernoulli support"):
            check_views(self.model(Family.BERNOULLI), fv)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_byte_view_checked_and_widened(self, dtype):
        fv = [np.ones((3, 3), dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8)]
        out = check_views(self.model(Family.BERNOULLI), fv, dtype)
        assert [a.dtype for a in out] == [dtype] * 2
        assert all(np.array_equal(a, b) for a, b in zip(out, fv))
        fv[0][1, 2] = 2
        with pytest.raises(DomainError) as info:
            check_views(self.model(Family.BERNOULLI), fv, dtype)
        assert str(info.value) == "view 'a': Bernoulli support is {0, 1}"
        out = check_views(self.model(Family.GAUSSIAN_UNIT_VARIANCE), fv, dtype)
        assert out[0].dtype == dtype and out[0][1, 2] == 2.0

    def test_gaussian_view_takes_any_finite_value(self):
        fv = [np.full((3, 3), 0.5), np.zeros((3, 2))]
        out = check_views(self.model(Family.GAUSSIAN_UNIT_VARIANCE), fv)
        assert np.array_equal(out[0], fv[0])

    def test_float32_batch_is_not_copied(self):
        fv = [np.full((3, 3), 0.5, dtype=np.float32), np.ones((3, 2), dtype=np.float32)]
        out = check_views(self.model(Family.GAUSSIAN_UNIT_VARIANCE), fv, np.float32)
        assert all(np.shares_memory(a, b) for a, b in zip(out, fv))
        fv[1][0, 0] = 0.5
        with pytest.raises(DomainError, match="^view 'b': Bernoulli support"):
            check_views(self.model(Family.GAUSSIAN_UNIT_VARIANCE), fv, np.float32)

    @pytest.mark.parametrize("value", [1e39, -1e39, 1e300])
    def test_value_beyond_float32_range(self, value):
        # Finite in float64, so only a float32 check rejects it, by name and
        # without an overflow warning (warnings are errors in this suite).
        fv = [np.ones((3, 3)), np.zeros((3, 2))]
        fv[0][2, 1] = value
        model = self.model(Family.GAUSSIAN_UNIT_VARIANCE)
        assert check_views(model, fv)[0][2, 1] == value
        with pytest.raises(DomainError) as info:
            check_views(model, fv, np.float32)
        assert str(info.value) == "view 'a': values must be within the float32 range"
        fv[0][0, 0] = np.nan
        with pytest.raises(DomainError, match="^view 'a': values must be finite$"):
            check_views(model, fv, np.float32)


class TestPosteriorHiddenMean:
    def test_bernoulli_at_zero(self, rng):
        p = make_tiny_model(rng)
        for w in p.W:
            w[:] = 0.0
        p.lam[:] = 0.0
        fv = make_binary_data(p, rng, 1)
        assert np.array_equal(hmean_of(p, fv), np.full((1, 4), 0.5))

    def test_gaussian_identity(self, rng):
        p = make_tiny_model(rng)
        p = HarmoniumParams(
            views=p.views, hidden_dim=p.hidden_dim,
            hidden_family=Family.GAUSSIAN_UNIT_VARIANCE,
            W=p.W, xi=p.xi, lam=p.lam, s=p.s, structure=p.structure)
        fv = make_binary_data(p, rng, 1)
        np.testing.assert_array_equal(
            hmean_of(p, fv), lam_hat_of(p, fv))

    def test_matches_enumeration(self, rng):
        # Conditional expectation of each h_j from the exact joint table.
        p = make_tiny_model(rng, dims=(2, 2), J=3)
        fv = make_binary_data(p, rng, 1)
        np.testing.assert_allclose(hmean_of(p, fv)[0],
                                   oracle_posterior_mean(p, fv), atol=1e-10)


# ---------------------------------------------------------------------------
# Joint and exact likelihood
# ---------------------------------------------------------------------------

class TestLogJoint:
    def test_all_zero_params(self, rng):
        p = make_tiny_model(rng, scale=0.0)
        p.s[:] = 0.0
        fv = make_binary_data(p, rng, 1)
        assert unnormalized_log_joint(p, fv, np.ones((1, 4)))[0] == 0.0

    def test_hand_arithmetic_one_unit(self):
        # Plus convention on the bias terms: 0.5*1*1*1 + 0.2*1 + 0.3*1.
        p = one_unit_model(W=1.0, s=0.0, xi=0.2, lam=0.3)
        got = unnormalized_log_joint(p, rows([1.0]), np.array([[1.0]]))
        assert got[0] == pytest.approx(0.5 + 0.2 + 0.3)

    def test_matches_naive_oracle(self, rng):
        for _ in range(5):
            p = make_tiny_model(rng)
            fv = make_binary_data(p, rng, 1)
            h = (rng.random(4) < 0.5).astype(float)
            got = unnormalized_log_joint(p, fv, h[None, :])[0]
            want = oracle_log_joint(p, [a[0] for a in fv], h)
            assert got == pytest.approx(want, abs=1e-12)

    def test_normalization_over_state_space(self, rng):
        p = make_tiny_model(rng, dims=(2, 2), J=3)
        table = oracle_probability_table(p)
        # Normalizing exp(log joint) by the partition function sums to one.
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)
        # And the implementation's log joint reproduces the same table weights.
        # One batch holds every (v, h) pair of the table.
        vh = np.array([vb + hb for vb, hb in table])
        weights = np.exp(unnormalized_log_joint(p, [vh[:, :2], vh[:, 2:4]], vh[:, 4:]))
        probs = weights / weights.sum()
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(probs, list(table.values()), atol=1e-10)


class TestExactLogLikelihood:
    def test_zero_energy_model_uniform(self):
        p = HarmoniumParams(
            views=[ViewConfig("v", 2, Family.BERNOULLI)],
            hidden_dim=1, hidden_family=Family.BERNOULLI,
            W=[np.zeros((2, 1))], xi=[np.zeros(2)], lam=np.zeros(1),
            s=np.zeros((1, 1)), structure=StructureMode(StructureKind.SA))
        for v in ([0.0, 0.0], [1.0, 0.0], [1.0, 1.0]):
            ll = exact_log_likelihood(p, rows(v))
            assert ll == pytest.approx(-2 * math.log(2), abs=1e-12)

    def test_mean_over_data(self, rng):
        p = make_tiny_model(rng)
        fv = make_binary_data(p, rng, 1)
        twice = [np.concatenate([a, a]) for a in fv]
        assert exact_log_likelihood(p, twice) == pytest.approx(
            exact_log_likelihood(p, fv), abs=1e-12)

    def test_matches_probability_table_oracle(self, rng):
        for _ in range(3):
            p = make_tiny_model(rng, dims=(2, 2), J=3)
            data = make_binary_data(p, rng, 4)
            assert exact_log_likelihood(p, data) == pytest.approx(
                oracle_log_likelihood(p, data), abs=1e-10)

    def test_enumeration_bound(self, rng):
        p = make_tiny_model(rng, dims=(10, 10), J=4)
        with pytest.raises(EnumerationBoundError):
            exact_log_likelihood(p, make_binary_data(p, rng, 1))

    def test_non_bernoulli_rejected(self, rng):
        base = make_tiny_model(rng)
        p = HarmoniumParams(
            views=[ViewConfig("v0", 3, Family.GAUSSIAN_UNIT_VARIANCE),
                   base.views[1]],
            hidden_dim=4, hidden_family=Family.BERNOULLI,
            W=base.W, xi=base.xi, lam=base.lam, s=base.s,
            structure=StructureMode(StructureKind.SA))
        with pytest.raises(ValueError):
            exact_log_likelihood(p, make_binary_data(p, rng, 1))

    def test_bitwise_equal_to_single_model_enumeration(self, rng):
        for _ in range(300):
            p = random_tiny_model(rng)
            data = make_binary_data(p, rng, int(rng.integers(1, 30)))
            assert exact_log_partition(p) == reference_log_partition(p)
            assert exact_log_likelihood(p, data) == reference_log_likelihood(p, data)

    def test_stacked_rows_equal_their_own_models(self, rng):
        p = make_tiny_model(rng, StructureKind.SA, dims=(1, 2, 4), J=3)
        data = make_binary_data(p, rng, 5)
        models = [make_tiny_model(rng, StructureKind.SA, dims=(1, 2, 4), J=3)
                  for _ in range(4)]
        got = stacked_log_likelihood(p, np.stack([param_vector(q) for q in models]), data)
        assert got.shape == (4,)
        assert np.array_equal(got, [reference_log_likelihood(q, data) for q in models])

    def test_stacked_checks_each_row_block_once_per_chunk(self, rng, monkeypatch):
        # 6 visible units in blocks of 4 rows: 10 rows are 3 blocks. 64 states
        # and 4 hidden units in chunks of 3 thetas: 7 thetas are 3 chunks.
        # Each chunk checks each block as it converts it, and nothing else does.
        p = make_tiny_model(rng)
        data = make_binary_data(p, rng, 10)
        thetas = np.stack([param_vector(make_tiny_model(rng)) for _ in range(7)])
        want = stacked_log_likelihood(p, thetas, data)
        monkeypatch.setattr(model_mod, "ROW_BLOCK_VALUES", 4 * 6)
        monkeypatch.setattr(model_mod, "_STACK_BLOCK", 3 * 64 * 4)
        calls = []

        def counted(params, fv, *args, **kwargs):
            calls.append(len(fv[0]))
            return check_views(params, fv, *args, **kwargs)

        monkeypatch.setattr(model_mod, "check_views", counted)
        got = stacked_log_likelihood(p, thetas, data)
        assert calls == [3, 3, 4] * 3
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_stacked_rows_must_be_parameter_vectors(self, rng):
        p = make_tiny_model(rng)
        data = make_binary_data(p, rng, 2)
        theta = param_vector(p)
        for bad in (theta, np.stack([theta[:-1]] * 2), theta[None][:0]):
            with pytest.raises(ShapeMismatchError, match="thetas"):
                stacked_log_likelihood(p, bad, data)

    def test_hidden_permutation_invariance(self, rng):
        p = make_tiny_model(rng)
        data = make_binary_data(p, rng, 5)
        base = exact_log_likelihood(p, data)
        perm = rng.permutation(p.hidden_dim)
        q = p.copy()
        q.W = [w[:, perm] for w in q.W]
        q.lam = q.lam[perm]
        q.s = q.s[:, perm]
        assert exact_log_likelihood(q, data) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------

class TestGibbs:
    def test_decoupled_when_w_zero(self, rng):
        p = make_tiny_model(rng, scale=0.0)
        p.lam[:] = 3.0
        p.xi[0][:] = -3.0
        fv = make_binary_data(p, rng, 1)
        hs = np.array([gibbs_from(p, fv, rng)[0][0] for _ in range(2000)])
        vs = np.array([gibbs_from(p, fv, rng)[1][0][0] for _ in range(2000)])
        assert abs(hs.mean() - 1 / (1 + math.exp(-3))) < 0.03
        assert abs(vs.mean() - 1 / (1 + math.exp(3))) < 0.03

    def test_saturated_deterministic(self, rng):
        p = make_tiny_model(rng, scale=0.0)
        p.lam[:] = [1e9, -1e9, 1e9, -1e9]
        fv = make_binary_data(p, rng, 1)
        h, _ = gibbs_from(p, fv, rng)
        assert np.array_equal(h, [[1.0, 0.0, 1.0, 0.0]])

    def test_deterministic_given_rng(self, rng):
        p = make_tiny_model(rng)
        fv = make_binary_data(p, rng, 1)
        h1, v1 = gibbs_from(p, fv, np.random.default_rng(9))
        h2, v2 = gibbs_from(p, fv, np.random.default_rng(9))
        assert np.array_equal(h1, h2)
        for a, b in zip(v1, v2):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("hidden", list(Family))
    def test_equals_seeded_reference(self, hidden):
        # h ~ p(h|v), then each view ~ p(v^k|h) in view order, drawn from
        # one rng: Bernoulli as uniform < sigmoid, Gaussian as eta + normal.
        rng = np.random.default_rng(17)
        views = [ViewConfig("b", 4, Family.BERNOULLI),
                 ViewConfig("g", 3, Family.GAUSSIAN_UNIT_VARIANCE)]
        p = HarmoniumParams(
            views=views, hidden_dim=5, hidden_family=hidden,
            W=[0.5 * rng.standard_normal((v.dim, 5)) for v in views],
            xi=[0.5 * rng.standard_normal(v.dim) for v in views],
            lam=0.5 * rng.standard_normal(5), s=rng.standard_normal((2, 5)),
            structure=StructureMode(StructureKind.SA))
        fv = [(rng.random((6, 4)) < 0.5).astype(float), rng.standard_normal((6, 3))]

        def draw(family, eta, r):
            if family is Family.BERNOULLI:
                return (r.random(eta.shape) < expit(eta)).astype(float)
            return eta + r.standard_normal(eta.shape)

        ref = np.random.default_rng(4)
        wg = [w * gk for w, gk in zip(p.W, gates(p))]
        lam_hat = p.lam + fv[0] @ wg[0]
        lam_hat += fv[1] @ wg[1]
        h_want = draw(hidden, lam_hat, ref)
        v_want = [draw(v.family, h_want @ wg[k].T + p.xi[k], ref)
                  for k, v in enumerate(views)]
        got_rng = np.random.default_rng(4)
        h, v = gibbs_from(p, fv, got_rng)
        assert np.array_equal(h, h_want)
        for a, b in zip(v, v_want):
            assert np.array_equal(a, b)
        assert got_rng.bit_generator.state == ref.bit_generator.state

    def test_long_run_marginals_match_enumeration(self, rng):
        # 200 parallel chains x 500 sweeps = 1e5 post-burn-in states.
        p = make_tiny_model(rng, dims=(2, 2), J=3)
        _, _, probs = exact_visible_distribution(p, wg_of(p))
        from samvh.model import enumerate_binary_states
        states = enumerate_binary_states(4)
        exact_marginals = probs @ states

        n_chains, burn, keep = 200, 200, 500
        fv = [np.zeros((n_chains, 2)), np.zeros((n_chains, 2))]
        acc = np.zeros(4)
        count = 0
        for t in range(burn + keep):
            _, fv = gibbs_from(p, fv, rng)
            if t >= burn:
                acc += np.concatenate([fv[0].sum(0), fv[1].sum(0)])
                count += n_chains
        np.testing.assert_allclose(acc / count, exact_marginals, atol=0.02)


# ---------------------------------------------------------------------------
# Conditional consistency and DWH-as-limit
# ---------------------------------------------------------------------------

def test_conditional_consistency_50_draws():
    rng = np.random.default_rng(77)
    for _ in range(50):
        p = make_tiny_model(rng, dims=(2, 1), J=2)
        fv = make_binary_data(p, rng, 1)
        np.testing.assert_allclose(hmean_of(p, fv)[0],
                                   oracle_posterior_mean(p, fv), atol=1e-10)


def test_dwh_as_saturation_limit(rng):
    p = make_tiny_model(rng)
    p.s[:] = 30.0
    q = p.copy()
    q.structure = StructureMode(StructureKind.DWH)
    data = make_binary_data(p, rng, 5)
    first = [a[:1] for a in data]
    h = (rng.random((1, 4)) < 0.5).astype(float)
    assert np.max(np.abs(hmean_of(p, first) - hmean_of(q, first))) < 1e-9
    assert abs(unnormalized_log_joint(p, first, h)[0]
               - unnormalized_log_joint(q, first, h)[0]) < 1e-9
    assert abs(exact_log_likelihood(p, data) - exact_log_likelihood(q, data)) < 1e-9


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------

class TestRowBlocks:
    DIMS = (300, 212)  # 512 values a row: ROW_BLOCK_VALUES // 512 rows a block

    def model(self):
        return make_tiny_model(np.random.default_rng(0), dims=self.DIMS, J=3)

    @pytest.mark.parametrize("extra", [1, 100, 511, 512])
    def test_blocks_cover_the_rows_in_order(self, extra):
        # At most a block's rows each, as few blocks as that allows, and
        # sizes a row apart at most: no short last block.
        step = ROW_BLOCK_VALUES // 512
        fv = [np.arange((3 * step + extra) * d).reshape(-1, d) for d in self.DIMS]
        blocks = list(row_blocks(self.model(), fv))
        sizes = [len(b[0]) for b in blocks]
        assert len(blocks) == 4 and max(sizes) <= step and max(sizes) - min(sizes) <= 1
        assert all(len(b[1]) == len(b[0]) for b in blocks)
        for k in range(2):
            assert np.array_equal(np.concatenate([b[k] for b in blocks]), fv[k])

    @pytest.mark.parametrize("rows", [(1, 1), (512, 512), (0, 0), (2000, 1999), (1999, 2000)])
    def test_one_block_or_a_misfit_batch_is_yielded_whole(self, rows):
        fv = [np.zeros((n, d)) for d, n in zip(self.DIMS, rows)]
        blocks = list(row_blocks(self.model(), fv))
        assert len(blocks) == 1 and blocks[0] is fv

    def test_batch_of_other_views_is_yielded_whole(self):
        p = self.model()
        for fv in ([], [np.zeros((2000, 300))], [np.zeros((2000, 300)), np.zeros((2000, 9))],
                   [np.zeros(2000), np.zeros(2000)], [[[0.0] * 300] * 2000] * 2):
            assert [b is fv for b in row_blocks(p, fv)] == [True]


class TestStructureReport:
    def test_untrained_switches_are_dead(self, rng):
        p = make_tiny_model(rng)
        p.s[:] = 0.0  # gate exactly 0.5, not > GATE_THRESHOLD
        rep = structure_report(p)
        assert rep.num_dead == p.hidden_dim
        assert rep.num_shared == 0

    def test_dwh_all_shared(self, rng):
        p = make_tiny_model(rng, StructureKind.DWH)
        rep = structure_report(p)
        assert rep.num_shared == p.hidden_dim
        assert rep.num_dead == 0

    def test_reference_counts_with_synthetic_gates(self, rng):
        # K=2, J=200 with 95 shared, 47 view0-specific, 32 view1-specific,
        # 26 dead, via hand-set switch logits.
        J = 200
        s = np.full((2, J), -4.0)
        s[:, :95] = 4.0
        s[0, 95:142] = 4.0
        s[1, 142:174] = 4.0
        views = [ViewConfig("roman", 2, Family.BERNOULLI),
                 ViewConfig("arabic", 2, Family.BERNOULLI)]
        p = HarmoniumParams(
            views=views, hidden_dim=J, hidden_family=Family.BERNOULLI,
            W=[np.zeros((2, J)), np.zeros((2, J))],
            xi=[np.zeros(2), np.zeros(2)], lam=np.zeros(J), s=s,
            structure=StructureMode(StructureKind.SA))
        rep = structure_report(p)
        assert rep.num_shared == 95
        assert rep.num_specific == [47, 32]
        assert rep.num_dead == 26
        assert rep.summary_line() == (
            "shared=95 specific_view0=47 specific_view1=32 dead=26")

    def test_gates_near_the_threshold(self):
        # Gates 0.02 either side of GATE_THRESHOLD: a threshold moved to
        # 0.45 or to 0.55 reclassifies at least one of these units.
        gate = np.array([[0.52, 0.52, 0.48], [0.52, 0.48, 0.48]])
        views = [ViewConfig("a", 1, Family.BERNOULLI), ViewConfig("b", 1, Family.BERNOULLI)]
        p = HarmoniumParams(
            views=views, hidden_dim=3, hidden_family=Family.BERNOULLI,
            W=[np.zeros((1, 3)), np.zeros((1, 3))], xi=[np.zeros(1), np.zeros(1)],
            lam=np.zeros(3), s=np.log(gate / (1.0 - gate)),
            structure=StructureMode(StructureKind.SA))
        assert np.allclose(gates(p), gate, rtol=0, atol=1e-15)
        rep = structure_report(p)
        assert (rep.shared_units, rep.specific_units, rep.dead_units) == ([0], [[1], []], [2])
        assert rep.summary_line() == "shared=1 specific_view0=1 specific_view1=0 dead=1"


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def edit_doc(text: str, edit) -> str:
    """The JSON document text after edit(doc) changed it in place."""
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def edit_theta(edit):
    """An edit_doc edit that replaces the theta payload's bytes by edit(bytes)."""
    def apply(doc):
        raw = base64.b64decode(doc["theta"])
        doc["theta"] = base64.b64encode(edit(raw)).decode("ascii")
    return apply


# A tiny model (dims (3, 3), J=4) has 42 parameters: 336 payload bytes.
THETA_CORRUPTIONS = [
    pytest.param(lambda doc: doc.update(theta="not base64!"), MalformedDocumentError,
                 "ckpt.json: malformed checkpoint: theta is not valid base64",
                 id="not-base64"),
    pytest.param(lambda doc: doc.update(theta=[0.5] * 42), MalformedDocumentError,
                 "ckpt.json: malformed checkpoint: theta must be a base64 string",
                 id="not-a-string"),
    pytest.param(edit_theta(lambda raw: raw[:-8]), MalformedDocumentError,
                 "ckpt.json: malformed checkpoint: theta holds 328 bytes, want 336 ",
                 id="one-float-short"),
    pytest.param(edit_theta(lambda raw: raw + raw[:8]), MalformedDocumentError,
                 "ckpt.json: malformed checkpoint: theta holds 344 bytes, want 336 ",
                 id="one-float-long"),
    pytest.param(lambda doc: doc.update(theta=base64.b64encode(param_vector(
        make_tiny_model(np.random.default_rng(0), J=5)).tobytes()).decode("ascii")),
                 MalformedDocumentError,
                 "ckpt.json: malformed checkpoint: theta holds 408 bytes, want 336 ",
                 id="wrong-dims"),
    pytest.param(lambda doc: doc.pop("theta"), MissingKeyError,
                 r"ckpt.json: missing key \['theta'\]", id="missing"),
]


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        p = make_tiny_model(rng)
        # Exercise awkward but finite doubles.
        p.W[0][0, 0] = 1e-300
        p.W[0][0, 1] = math.pi
        p.lam[0] = -1.7976931348623157e308
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        for a, b in zip(p.W, q.W):
            assert np.array_equal(a, b)
        for a, b in zip(p.xi, q.xi):
            assert np.array_equal(a, b)
        assert np.array_equal(p.lam, q.lam)
        assert np.array_equal(p.s, q.s)
        assert q.structure.kind is p.structure.kind
        assert [v.name for v in q.views] == [v.name for v in p.views]

    def test_mvh_mask_round_trip(self, rng, tmp_path):
        p = make_tiny_model(rng, StructureKind.MVH)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert np.array_equal(p.structure.mask, q.structure.mask)

    @pytest.mark.parametrize("mask", ["x", 7, [[1, 0, 1, "x"], [0, 1, 0, 1]],
                                      [[1, 0, 1, 7], [0, 1, 0, 1]],
                                      [[1, 0, 1, None], [0, 1, 0, 1]],
                                      [[1, 0, 1, 0.5], [0, 1, 0, 1]]])
    def test_mvh_mask_items_must_be_binary(self, rng, tmp_path, mask):
        import json
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(make_tiny_model(rng, StructureKind.MVH), path)
        doc = json.loads(Path(path).read_text())
        doc["structure"]["mask"] = mask
        Path(path).write_text(json.dumps(doc))
        with pytest.raises(MalformedDocumentError, match="ckpt.json"):
            load_checkpoint(path)

    def test_mvh_mask_of_booleans_loads(self, rng, tmp_path):
        import json
        p = make_tiny_model(rng, StructureKind.MVH)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        doc = json.loads(Path(path).read_text())
        doc["structure"]["mask"] = p.structure.mask.tolist()
        Path(path).write_text(json.dumps(doc))
        assert np.array_equal(load_checkpoint(path).structure.mask, p.structure.mask)

    def test_version_check(self, rng, tmp_path):
        # Format 2 is the only format: format 1 (one JSON list per array) is
        # not read either.
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(make_tiny_model(rng), path)
        text = Path(path).read_text()
        for version in (99, 1):
            Path(path).write_text(edit_doc(text, lambda doc: doc.update(format_version=version)))
            with pytest.raises(MalformedDocumentError, match=re.escape(
                    f"{path}: malformed checkpoint: unsupported format version "
                    f"['format_version']: {version}")):
                load_checkpoint(path)
        Path(path).write_text("[]")  # not an object at all
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda text: text[:12], "ckpt.json: invalid JSON: "),
        (lambda text: text.replace('"bernoulli"', '"poisson"', 1),
         "ckpt.json: ['views'][0]['family'] must be one of "
         "['bernoulli', 'gaussian_unit_variance'], got 'poisson'"),
        (lambda text: text.replace('"sa"', '"gated"'),
         "ckpt.json: ['structure']['kind'] must be one of ['dwh', 'mvh', 'sa'], "
         "got 'gated'"),
        (lambda text: edit_doc(text, lambda doc: doc["views"][1].update(name=5)),
         "ckpt.json: ['views'][1]['name'] must be a non-empty string, got 5"),
        (lambda text: edit_doc(text, lambda doc: doc["views"].insert(0, 5)),
         "ckpt.json: ['views'][0] must be an object, got 5")])
    def test_corrupt_checkpoint_names_the_file(self, rng, tmp_path, edit, match):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_tiny_model(rng), str(path))
        path.write_text(edit(path.read_text()))
        with pytest.raises(MalformedDocumentError, match=re.escape(match)):
            load_checkpoint(str(path))

    def test_format_2_layout(self, rng, tmp_path):
        p = make_tiny_model(rng, StructureKind.MVH)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        doc = json.loads(Path(path).read_text())
        assert list(doc) == ["format_version", "structure", "views", "hidden", "theta"]
        assert doc["format_version"] == 2
        assert doc["structure"] == {"kind": "mvh",
                                    "mask": p.structure.mask.astype(int).tolist()}
        theta = np.frombuffer(base64.b64decode(doc["theta"]), dtype="<f8")
        assert theta.tobytes() == param_vector(p).tobytes()

    def test_loaded_arrays_are_writable_copies(self, rng, tmp_path):
        p = make_tiny_model(rng)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        for arr in (*q.W, *q.xi, q.lam, q.s):
            assert arr.flags.writeable
            arr += 1.0
        assert np.array_equal(load_checkpoint(path).lam, p.lam)

    @pytest.mark.parametrize("edit,error,match", THETA_CORRUPTIONS)
    def test_corrupt_theta_names_the_file(self, rng, tmp_path, edit, error, match):
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_tiny_model(rng), str(path))
        path.write_text(edit_doc(path.read_text(), edit))
        with pytest.raises(error, match=match):
            load_checkpoint(str(path))

    def test_payload_is_binary_sized(self, rng, tmp_path):
        # A train_wide-sized model: text floats would take 7.3 MB.
        p = make_tiny_model(rng, dims=(576, 576), J=256)
        n = param_group_ends([576, 576], 256)[-1]
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        assert os.path.getsize(path) <= math.ceil(8 * n / 3) * 4 + 4096

    def test_no_partial_file_on_failure(self, rng, tmp_path):
        # Atomic rename: the destination never holds a partial document.
        p = make_tiny_model(rng)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        before = Path(path).read_text()
        save_checkpoint(p, path)
        assert Path(path).read_text() == before

    def test_failed_write_leaves_target_and_directory_as_they_were(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json({"a": 1}, path)
        before = Path(path).read_text()
        with pytest.raises(TypeError):
            write_json({"a": object()}, path)
        assert Path(path).read_text() == before
        assert os.listdir(tmp_path) == ["doc.json"]
