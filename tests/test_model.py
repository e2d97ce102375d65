import itertools
import math

import numpy as np
import pytest

from samvh.expfam import Family
from samvh.model import (
    EnumerationBoundError,
    HarmoniumParams,
    ShapeMismatchError,
    StructureKind,
    StructureMode,
    ViewConfig,
    exact_log_likelihood,
    exact_visible_distribution,
    gates,
    gibbs_step_batch,
    hidden_shifted_batch,
    load_checkpoint,
    make_binary_data,
    make_tiny_model,
    posterior_hidden_mean_batch,
    save_checkpoint,
    structure_report,
    unnormalized_log_joint,
    visible_shifted_batch,
)

SIGMOID_2 = 0.88079707797788244405972914130239679520638429862897


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
        assert np.array_equal(hidden_shifted_batch(p, fv), p.lam[None, :])

    def test_zero_weights_visible(self, rng):
        p = make_tiny_model(rng)
        for w in p.W:
            w[:] = 0.0
        assert np.array_equal(visible_shifted_batch(p, np.ones((1, 4)), 0),
                              p.xi[0][None, :])

    def test_hand_computed_one_term(self):
        p = one_unit_model(W=2.0, s=0.0, lam=0.1)
        assert hidden_shifted_batch(p, rows([1.0]))[0, 0] == pytest.approx(1.1)

    def test_hand_computed_visible_mirror(self):
        p = one_unit_model(W=2.0, s=0.0, xi=0.2)
        got = visible_shifted_batch(p, np.array([[1.0]]), 0)
        assert got[0, 0] == pytest.approx(0.2 + 0.5 * 2.0 * 1.0)

    def test_matches_naive_loop_oracle(self, rng):
        for _ in range(5):
            p = make_tiny_model(rng)
            fv = make_binary_data(p, rng, 1)
            np.testing.assert_allclose(
                hidden_shifted_batch(p, fv)[0],
                oracle_lam_hat(p, [a[0] for a in fv]), atol=1e-12)
            h = (rng.random(p.hidden_dim) < 0.5).astype(float)
            for k in range(p.num_views):
                np.testing.assert_allclose(
                    visible_shifted_batch(p, h[None, :], k)[0],
                    oracle_xi_hat(p, h, k), atol=1e-12)

    def test_shape_mismatch(self, rng):
        p = make_tiny_model(rng)
        h = np.zeros((1, 4))
        for bad in (rows(np.zeros(2), np.zeros(3)), rows(np.zeros(3)),
                    [np.zeros((1, 3)), np.zeros((2, 3))],
                    [np.zeros((0, 3)), np.zeros((0, 3))], [np.zeros(3), np.zeros(3)]):
            with pytest.raises(ShapeMismatchError):
                unnormalized_log_joint(p, bad, h)


class TestPosteriorHiddenMean:
    def test_bernoulli_at_zero(self, rng):
        p = make_tiny_model(rng)
        for w in p.W:
            w[:] = 0.0
        p.lam[:] = 0.0
        fv = make_binary_data(p, rng, 1)
        assert np.array_equal(posterior_hidden_mean_batch(p, fv), np.full((1, 4), 0.5))

    def test_gaussian_identity(self, rng):
        p = make_tiny_model(rng)
        p = HarmoniumParams(
            views=p.views, hidden_dim=p.hidden_dim,
            hidden_family=Family.GAUSSIAN_UNIT_VARIANCE,
            W=p.W, xi=p.xi, lam=p.lam, s=p.s, structure=p.structure)
        fv = make_binary_data(p, rng, 1)
        np.testing.assert_array_equal(
            posterior_hidden_mean_batch(p, fv), hidden_shifted_batch(p, fv))

    def test_matches_enumeration(self, rng):
        # Conditional expectation of each h_j from the exact joint table.
        p = make_tiny_model(rng, dims=(2, 2), J=3)
        fv = make_binary_data(p, rng, 1)
        np.testing.assert_allclose(posterior_hidden_mean_batch(p, fv)[0],
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
        hs = np.array([gibbs_step_batch(p, fv, rng)[0][0] for _ in range(2000)])
        vs = np.array([gibbs_step_batch(p, fv, rng)[1][0][0] for _ in range(2000)])
        assert abs(hs.mean() - 1 / (1 + math.exp(-3))) < 0.03
        assert abs(vs.mean() - 1 / (1 + math.exp(3))) < 0.03

    def test_saturated_deterministic(self, rng):
        p = make_tiny_model(rng, scale=0.0)
        p.lam[:] = [1e9, -1e9, 1e9, -1e9]
        fv = make_binary_data(p, rng, 1)
        h, _ = gibbs_step_batch(p, fv, rng)
        assert np.array_equal(h, [[1.0, 0.0, 1.0, 0.0]])

    def test_deterministic_given_rng(self, rng):
        p = make_tiny_model(rng)
        fv = make_binary_data(p, rng, 1)
        h1, v1 = gibbs_step_batch(p, fv, np.random.default_rng(9))
        h2, v2 = gibbs_step_batch(p, fv, np.random.default_rng(9))
        assert np.array_equal(h1, h2)
        for a, b in zip(v1, v2):
            assert np.array_equal(a, b)

    def test_long_run_marginals_match_enumeration(self, rng):
        # 200 parallel chains x 500 sweeps = 1e5 post-burn-in states.
        p = make_tiny_model(rng, dims=(2, 2), J=3)
        _, probs = exact_visible_distribution(p)
        from samvh.model import enumerate_binary_states
        states = enumerate_binary_states(4)
        exact_marginals = probs @ states

        n_chains, burn, keep = 200, 200, 500
        fv = [np.zeros((n_chains, 2)), np.zeros((n_chains, 2))]
        acc = np.zeros(4)
        count = 0
        for t in range(burn + keep):
            _, fv = gibbs_step_batch(p, fv, rng)
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
        np.testing.assert_allclose(posterior_hidden_mean_batch(p, fv)[0],
                                   oracle_posterior_mean(p, fv), atol=1e-10)


def test_dwh_as_saturation_limit(rng):
    p = make_tiny_model(rng)
    p.s[:] = 30.0
    q = p.copy()
    q.structure = StructureMode(StructureKind.DWH)
    data = make_binary_data(p, rng, 5)
    first = [a[:1] for a in data]
    h = (rng.random((1, 4)) < 0.5).astype(float)
    assert np.max(np.abs(posterior_hidden_mean_batch(p, first)
                         - posterior_hidden_mean_batch(q, first))) < 1e-9
    assert abs(unnormalized_log_joint(p, first, h)[0]
               - unnormalized_log_joint(q, first, h)[0]) < 1e-9
    assert abs(exact_log_likelihood(p, data) - exact_log_likelihood(q, data)) < 1e-9


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------

class TestStructureReport:
    def test_untrained_switches_are_dead(self, rng):
        p = make_tiny_model(rng)
        p.s[:] = 0.0  # gate exactly 0.5, not > threshold
        rep = structure_report(p, threshold=0.5)
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

    def test_threshold_validation(self, rng):
        with pytest.raises(ValueError):
            structure_report(make_tiny_model(rng), threshold=1.5)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

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

    def test_version_check(self, rng, tmp_path):
        import json
        p = make_tiny_model(rng)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        doc = json.loads(open(path).read())
        doc["format_version"] = 99
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(ValueError):
            load_checkpoint(path)
        open(path, "w").write("[]")  # not an object at all
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(path)

    def test_no_partial_file_on_failure(self, rng, tmp_path):
        # Atomic rename: the destination never holds a partial document.
        p = make_tiny_model(rng)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(p, path)
        before = open(path).read()
        save_checkpoint(p, path)
        assert open(path).read() == before
