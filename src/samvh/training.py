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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MultiViewDataset
# suff_stat and hidden_shifted_batch are not called here, but the span tracer
# in bench/ rebinds them in this namespace and its tests look them up.
from .expfam import NonFiniteError, mean, suff_stat  # noqa: F401
from .model import (  # noqa: F401
    HarmoniumParams,
    StructureKind,
    _check_enum_bounds,
    _split_views,
    check_views,
    exact_log_likelihood,
    exact_visible_distribution,
    gates,
    gibbs_step_batch,
    hidden_shifted_batch,
    posterior_hidden_mean_batch,
    visible_shifted_batch,
)


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, group: str):
        super().__init__(
            f"non-finite values in parameter group {group!r} at epoch {epoch}")
        self.epoch = epoch
        self.group = group


@dataclass
class GradientSet:
    dW: list[np.ndarray]
    dxi: list[np.ndarray]
    dlam: np.ndarray
    ds: np.ndarray

    @staticmethod
    def zeros_like(params: HarmoniumParams) -> "GradientSet":
        return GradientSet(
            dW=[np.zeros_like(w) for w in params.W],
            dxi=[np.zeros_like(x) for x in params.xi],
            dlam=np.zeros_like(params.lam),
            ds=np.zeros_like(params.s),
        )

    def __sub__(self, other: "GradientSet") -> "GradientSet":
        return GradientSet(
            dW=[a - b for a, b in zip(self.dW, other.dW)],
            dxi=[a - b for a, b in zip(self.dxi, other.dxi)],
            dlam=self.dlam - other.dlam,
            ds=self.ds - other.ds,
        )


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


def _switch_derivative(params: HarmoniumParams) -> np.ndarray:
    """d gate / d s: sigmoid derivative in SA mode, zero for frozen modes."""
    if params.structure.kind is not StructureKind.SA:
        return np.zeros_like(params.s)
    g = gates(params)
    return g * (1.0 - g)


def _weighted_stats(params: HarmoniumParams, fv: list[np.ndarray],
                    hmean: np.ndarray, weights: np.ndarray) -> GradientSet:
    """Expectation of the sufficient statistics under the given sample weights
    (weights must sum to 1)."""
    g = gates(params)
    sprime = _switch_derivative(params)
    wh = hmean * weights[:, None]
    out = GradientSet.zeros_like(params)
    out.dlam = wh.sum(axis=0)
    for k in range(params.num_views):
        out.dW[k] = g[k][None, :] * (fv[k].T @ wh)
        out.dxi[k] = fv[k].T @ weights
        out.ds[k] = sprime[k] * ((fv[k] @ params.W[k]) * wh).sum(axis=0)
    return out


def _batch_mean_stats(params, fv, hmean) -> GradientSet:
    B = hmean.shape[0]
    return _weighted_stats(params, fv, hmean, np.full(B, 1.0 / B))


def cd_gradient(params: HarmoniumParams, fv: list[np.ndarray],
                cd_steps: int, rng: np.random.Generator) -> GradientSet:
    """Contrastive-divergence gradient estimate over a batch fv, one (B, D_k)
    array per view.

    The negative phase uses the posterior mean at the chain's final visible
    state rather than a sampled h (lower variance, same expectation).
    """
    fv = check_views(params, fv)
    pos_hmean = posterior_hidden_mean_batch(params, fv)
    pos = _batch_mean_stats(params, fv, pos_hmean)

    fv_chain = fv
    for _ in range(cd_steps):
        _, fv_chain = gibbs_step_batch(params, fv_chain, rng)
    neg_hmean = posterior_hidden_mean_batch(params, fv_chain)
    neg = _batch_mean_stats(params, fv_chain, neg_hmean)
    return pos - neg


def exact_gradient(params: HarmoniumParams, fv: list[np.ndarray]) -> GradientSet:
    """Exact likelihood gradient over the batch fv via enumeration of all
    visible states."""
    fv = check_views(params, fv)
    pos = _batch_mean_stats(params, fv, posterior_hidden_mean_batch(params, fv))

    states, probs = exact_visible_distribution(params)
    fv_all = _split_views(params, states)
    hmean_all = posterior_hidden_mean_batch(params, fv_all)
    neg = _weighted_stats(params, fv_all, hmean_all, probs)
    return pos - neg


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
    hmean = posterior_hidden_mean_batch(params, fv)
    errs = np.empty(params.num_views)
    for k, cfg in enumerate(params.views):
        recon = mean(cfg.family, visible_shifted_batch(params, hmean, k))
        errs[k] = np.mean((fv[k] - recon) ** 2)
    return errs


def _check_finite_params(params: HarmoniumParams, epoch: int):
    groups = {"W": params.W, "xi": params.xi, "lam": [params.lam], "s": [params.s]}
    for name, arrs in groups.items():
        for arr in arrs:
            if not np.all(np.isfinite(arr)):
                raise TrainingDivergedError(epoch, name)


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

    cur = params.copy()
    vel = GradientSet.zeros_like(cur)
    sa_mode = cur.structure.kind is StructureKind.SA
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

            lr = config.learning_rate
            for k in range(cur.num_views):
                vel.dW[k] = config.momentum * vel.dW[k] + grad.dW[k]
                cur.W[k] += lr * vel.dW[k] - lr * config.weight_decay * cur.W[k]
                vel.dxi[k] = config.momentum * vel.dxi[k] + grad.dxi[k]
                cur.xi[k] += lr * vel.dxi[k]
            vel.dlam = config.momentum * vel.dlam + grad.dlam
            cur.lam += lr * vel.dlam
            if sa_mode:
                vel.ds = config.momentum * vel.ds + grad.ds
                cur.s += lr * config.switch_lr_scale * vel.ds
            _check_finite_params(cur, epoch)
        g = gates(cur)
        log.records.append(EpochRecord(
            epoch=epoch,
            recon_err=[float(e) for e in reconstruction_error(cur, arrays)],
            mean_gate=[float(m) for m in g.mean(axis=1)],
            exact_ll=exact_log_likelihood(cur, arrays) if log_ll else None,
        ))
    return cur, log
