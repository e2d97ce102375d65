"""Gradient computation and the contrastive-divergence training loop.

Gradients are (data-expectation minus model-expectation) of the per-sample
sufficient statistics:

    dW^k_ij  : sigma(s_kj) f(v^k_i) B'(lam_hat_j)
    dxi^k_i  : f(v^k_i)
    dlam_j   : B'(lam_hat_j)
    ds_kj    : sigma'(s_kj) * sum_i W^k_ij f(v^k_i) * B'(lam_hat_j)

The model expectation is approximated by CD-k (Gibbs chains started from
data) in `cd_gradient` and computed exactly by visible-state enumeration in
`exact_gradient`. `finite_diff_gradient` differentiates the exact
log-likelihood numerically and is the oracle that pins down every sign and
the sum-over-i in the switch gradient.

Every function here takes a batch as `fv`, one (B, D_k) array per view, and
validates it with `model.check_views`. `train` takes a `MultiViewDataset`,
checks its view arrays once before the first step, and slices minibatches
out of them.

A gradient step computes the gates once and builds the gated weight matrix
sigma(s) W, stacked over views as (D_total, J), once; every product of the
step uses its per-view row blocks. The positive phase's lam_hat is also the
hidden natural parameter of the first Gibbs step, so each chain state's
lam_hat is computed once. A `GradientSet` is one flat vector laid out as in
`model.param_vector` (W^0..W^{K-1}, xi^0..xi^{K-1}, lam, s). `train` keeps
the parameters it updates as views into one such vector theta, with one
velocity vector beside it, so a step updates every group at once:

    vel = momentum * vel + grad
    theta += lr * vel - lr * weight_decay * theta   (decay on W only)

with lr * switch_lr_scale in place of lr on s. Outside SA mode the s segment
is left out of the update. One finiteness check over theta names the first
group (W, xi, lam, s) that went non-finite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MultiViewDataset
# suff_stat, gibbs_step_batch and hidden_shifted_batch are not called here,
# but the span tracer in bench/ rebinds them in this namespace and its tests
# look them up.
from .expfam import NonFiniteError, mean, suff_stat  # noqa: F401
from .model import (  # noqa: F401
    HarmoniumParams,
    StructureKind,
    _check_enum_bounds,
    _gibbs_step,
    _hidden_shifted,
    _visible_distribution,
    _visible_shifted,
    check_views,
    exact_log_likelihood,
    gated_weights,
    gates,
    gibbs_step_batch,
    hidden_shifted_batch,
    split_param_vector,
)


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, group: str):
        super().__init__(
            f"non-finite values in parameter group {group!r} at epoch {epoch}")
        self.epoch = epoch
        self.group = group


class GradientSet:
    """One value per parameter, held in one flat vector `vec` laid out as in
    `model.param_vector`. dW, dxi, dlam and ds are views into it, shaped like
    the model's W, xi, lam and s."""

    def __init__(self, vec: np.ndarray, dims: list[int], hidden_dim: int):
        self.vec = vec
        self.dW, self.dxi, self.dlam, self.ds = split_param_vector(vec, dims, hidden_dim)

    @staticmethod
    def zeros_like(params: HarmoniumParams) -> "GradientSet":
        dims, J = [v.dim for v in params.views], params.hidden_dim
        D = sum(dims)
        return GradientSet(np.zeros(D * J + D + J + len(dims) * J), dims, J)


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    cd_steps: int = 1
    epochs: int = 150
    batch_size: int = 20
    seed: int = 0
    switch_lr_scale: float = 2.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.cd_steps < 1 or self.epochs < 0 or self.batch_size < 1:
            raise ValueError("cd_steps, batch_size must be positive; epochs >= 0")
        if self.switch_lr_scale <= 0 or self.weight_decay < 0:
            raise ValueError("switch_lr_scale > 0 and weight_decay >= 0 required")


@dataclass
class EpochRecord:
    epoch: int
    recon_err: list[float]  # per view
    mean_gate: list[float]  # per view
    exact_ll: float | None


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        if not self.records:
            return ""
        K = len(self.records[0].recon_err)
        header = (["epoch"]
                  + [f"recon_err_view{k}" for k in range(K)]
                  + [f"mean_gate_view{k}" for k in range(K)]
                  + ["exact_ll"])
        lines = [",".join(header)]
        for rec in self.records:
            row = ([str(rec.epoch)]
                   + [repr(v) for v in rec.recon_err]
                   + [repr(v) for v in rec.mean_gate]
                   + ["" if rec.exact_ll is None else repr(rec.exact_ll)])
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _weighted_stats(params: HarmoniumParams, fv: list[np.ndarray],
                    hmean: np.ndarray, weights: np.ndarray,
                    g: np.ndarray | None = None) -> GradientSet:
    """Expectation of the sufficient statistics under the given sample weights
    (weights must sum to 1). g is gates(params), computed if not given. The
    switch statistic is left at zero outside SA mode, where s is frozen."""
    if g is None:
        g = gates(params)
    wh = hmean * weights[:, None]
    out = GradientSet.zeros_like(params)
    out.dlam[:] = wh.sum(axis=0)
    sa_mode = params.structure.kind is StructureKind.SA
    for k in range(params.num_views):
        np.multiply(g[k], fv[k].T @ wh, out=out.dW[k])
        out.dxi[k][:] = fv[k].T @ weights
        if sa_mode:
            sprime = g[k] * (1.0 - g[k])
            np.multiply(sprime, ((fv[k] @ params.W[k]) * wh).sum(axis=0), out=out.ds[k])
    return out


def _batch_mean_stats(params, fv, hmean, g=None) -> GradientSet:
    B = hmean.shape[0]
    return _weighted_stats(params, fv, hmean, np.full(B, 1.0 / B), g)


def cd_gradient(params: HarmoniumParams, fv: list[np.ndarray],
                cd_steps: int, rng: np.random.Generator) -> GradientSet:
    """Contrastive-divergence gradient estimate over a batch fv, one (B, D_k)
    array per view.

    The gates and the gated weights are computed once. The positive phase's
    lam_hat is also the first Gibbs step's hidden natural parameter, and each
    later chain state's lam_hat feeds the next step or the negative phase.
    The negative phase uses the posterior mean at the chain's final visible
    state rather than a sampled h (lower variance, same expectation).
    """
    fv = check_views(params, fv)
    g = gates(params)
    wg = gated_weights(params, g)
    hf = params.hidden_family
    lam_hat = _hidden_shifted(params, wg, fv)
    grad = _batch_mean_stats(params, fv, mean(hf, lam_hat), g)

    fv_chain = fv
    for _ in range(cd_steps):
        _, fv_chain = _gibbs_step(params, wg, lam_hat, rng)
        lam_hat = _hidden_shifted(params, wg, fv_chain)
    grad.vec -= _batch_mean_stats(params, fv_chain, mean(hf, lam_hat), g).vec
    return grad


def exact_gradient(params: HarmoniumParams, fv: list[np.ndarray]) -> GradientSet:
    """Exact likelihood gradient over the batch fv via enumeration of all
    visible states."""
    fv = check_views(params, fv)
    g = gates(params)
    wg = gated_weights(params, g)
    hf = params.hidden_family
    grad = _batch_mean_stats(params, fv, mean(hf, _hidden_shifted(params, wg, fv)), g)

    fv_all, lam_all, probs = _visible_distribution(params, wg)
    grad.vec -= _weighted_stats(params, fv_all, mean(hf, lam_all), probs, g).vec
    return grad


def finite_diff_gradient(params: HarmoniumParams, fv: list[np.ndarray],
                         step: float = 1e-5) -> GradientSet:
    """Central differences of the exact log-likelihood over every scalar
    parameter, including each switch logit."""
    if not 1e-7 <= step <= 1e-3:
        raise ValueError("step must be in [1e-7, 1e-3]")
    fv = check_views(params, fv)
    work = params.copy()
    out = GradientSet.zeros_like(params)

    def central(arr, darr):
        flat, dflat = arr.ravel(), darr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = exact_log_likelihood(work, fv)
            flat[i] = orig - step
            lo = exact_log_likelihood(work, fv)
            flat[i] = orig
            dflat[i] = (hi - lo) / (2.0 * step)

    for k in range(params.num_views):
        central(work.W[k], out.dW[k])
        central(work.xi[k], out.dxi[k])
    central(work.lam, out.dlam)
    central(work.s, out.ds)
    return out


def reconstruction_error(params: HarmoniumParams, fv: list[np.ndarray]) -> np.ndarray:
    """Per-view mean squared error of the one-step mean-field reconstruction
    of the batch fv."""
    fv = check_views(params, fv)
    wg = gated_weights(params, gates(params))
    hmean = mean(params.hidden_family, _hidden_shifted(params, wg, fv))
    errs = np.empty(params.num_views)
    for k, cfg in enumerate(params.views):
        # (fv - recon)^2 in recon's buffer, freed before the next view's
        # reconstruction is built: over a whole dataset these are the largest
        # arrays of a training run.
        diff = mean(cfg.family, _visible_shifted(params, wg, hmean, k))
        np.subtract(fv[k], diff, out=diff)
        errs[k] = np.mean(np.square(diff, out=diff))
        del diff
    return errs


def _enumeration_feasible(params: HarmoniumParams) -> bool:
    try:
        _check_enum_bounds(params)
    except ValueError:
        return False
    return True


def train(params: HarmoniumParams, data: MultiViewDataset, config: TrainConfig,
          rng: np.random.Generator | None = None,
          gradient_fn=None) -> tuple[HarmoniumParams, TrainLog]:
    """Minibatch gradient ascent with momentum. Deterministic given the seed.

    The dataset's view arrays are checked against the model once, before the
    first step; each minibatch is a row slice of them. `gradient_fn(params,
    fv)` may replace the CD estimator, e.g. with `exact_gradient` on tiny
    models.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    arrays = check_views(params, data.view_arrays)
    n = arrays[0].shape[0]

    cur, theta = params.flat_copy()
    sa_mode = cur.structure.kind is StructureKind.SA
    n_w = sum(w.size for w in cur.W)
    # Ends of the W, xi and lam segments of theta; s follows.
    group_ends = np.cumsum([n_w, sum(x.size for x in cur.xi), cur.lam.size])
    live = theta.size if sa_mode else group_ends[-1]  # s is frozen outside SA
    lr = config.learning_rate
    switch_lr = lr * config.switch_lr_scale
    decay = lr * config.weight_decay
    vel = np.zeros(live)
    # Work buffers reused by every step. Allocating them afresh each step
    # doubled the update's time at 24x24 glyphs and 256 hidden units.
    update, decayed = np.empty(live), np.empty(n_w)
    finite = np.empty(theta.size, dtype=bool)
    log = TrainLog()
    log_ll = _enumeration_feasible(cur)

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            fv = [a[idx] for a in arrays]
            try:
                if gradient_fn is None:
                    grad = cd_gradient(cur, fv, config.cd_steps, rng)
                else:
                    grad = gradient_fn(cur, fv)
            except NonFiniteError:
                # Overflowing activations before the parameters themselves
                # go non-finite; report the largest parameter group.
                biggest = max(
                    (("W", max(np.abs(w).max() for w in cur.W)),
                     ("xi", max(np.abs(x).max() for x in cur.xi)),
                     ("lam", np.abs(cur.lam).max()),
                     ("s", np.abs(cur.s).max())),
                    key=lambda t: t[1])[0]
                raise TrainingDivergedError(epoch, biggest) from None

            vel *= config.momentum
            vel += grad.vec[:live]
            np.multiply(vel, lr, out=update)
            np.multiply(vel[group_ends[-1]:], switch_lr, out=update[group_ends[-1]:])
            # lr*vel + (-decay)*W rounds exactly as lr*vel - decay*W. It is
            # applied at every weight_decay, so that even at 0 the update
            # keeps that rounding, down to the sign of a zero weight.
            update[:n_w] += np.multiply(theta[:n_w], -decay, out=decayed)
            theta[:live] += update
            if not np.isfinite(theta, out=finite).all():
                first_bad = int(np.argmin(finite))
                group = ("W", "xi", "lam", "s")[
                    int(np.searchsorted(group_ends, first_bad, side="right"))]
                raise TrainingDivergedError(epoch, group)
        g = gates(cur)
        log.records.append(EpochRecord(
            epoch=epoch,
            recon_err=[float(e) for e in reconstruction_error(cur, arrays)],
            mean_gate=[float(m) for m in g.mean(axis=1)],
            exact_ll=exact_log_likelihood(cur, arrays) if log_ll else None,
        ))
    return cur, log
