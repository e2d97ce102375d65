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
the sum-over-i in the switch gradient. It stacks the 2n perturbed parameter
vectors of a model and evaluates them in one `model.stacked_log_likelihood`
call, which enumerates the visible states once for all of them; one set of
energy kernels in `model` serves one model and such a stack alike.

Every function here takes a batch as `fv`, one (B, D_k) array per view, and
validates it with `model.check_views`. `train` keeps no copy of a
`MultiViewDataset`; it, `reconstruction_error` and `exact_log_likelihood`
take a dataset's rows a `model.row_blocks` block at a time.

A gradient step builds the gates and the gated weights sigma(s) W^k once
(`model.gated_weights`) and passes them to the energy kernels of `model`:
`posterior_hidden_mean_batch` (over `hidden_shifted_batch`),
`gibbs_step_batch` and `visible_shifted_batch`, and for the exact gradient
`exact_visible_distribution`. `cd_gradient` and `reconstruction_error` run
their Gibbs chain in float32 (`_float32_chain`): CD's sampling noise is far
above the rounding, and the GEMMs take half the float64 time. theta, its
update, the `GradientSet` and the exact oracles stay float64. Each
natural-parameter array is checked for finiteness once; Bernoulli means take
`expfam.sigmoid`, the package's one sigmoid. `train` builds one `_StepState`
per call: every array a CD step writes, among them the stacked phases from
which `_contrast_stats` takes both phases' statistics, one GEMM per view.
A `GradientSet` is one flat vector laid out as in `model.param_vector`
(W^0..W^{K-1}, xi^0..xi^{K-1}, lam, s). `train` keeps the parameters it
updates as views into one such vector theta, with one velocity vector
beside it, so a step updates every group at once:

    vel = momentum * vel + grad
    theta += lr * vel - lr * weight_decay * theta   (decay on W only)

with lr * switch_lr_scale in place of lr on s. Outside SA mode the s segment
is left out of the update. One finiteness check over theta names the first
group (W, xi, lam, s) that went non-finite.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .data import MultiViewDataset
# suff_stat and hidden_shifted_batch are not called here, but the span
# tracer in bench/ rebinds them in this namespace and its tests look them up.
from .expfam import NonFiniteError, mean, suff_stat  # noqa: F401
from .model import hidden_shifted_batch  # noqa: F401
from .model import (
    PARAM_GROUPS,
    HarmoniumParams,
    ShapeMismatchError,
    StructureKind,
    _check_enum_bounds,
    batch_rows,
    check_views,
    exact_log_likelihood,
    exact_visible_distribution,
    gated_weights,
    gates,
    gibbs_step_batch,
    param_group_ends,
    param_vector,
    posterior_hidden_mean_batch,
    row_blocks,
    split_param_vector,
    stacked_log_likelihood,
    visible_shifted_batch,
)


# Steps `finite_diff_gradient` accepts: rounding error grows below, truncation above.
FD_STEP_MIN, FD_STEP_MAX = 1e-7, 1e-3


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
        return GradientSet(np.zeros(param_group_ends(dims, J)[-1]), dims, J)


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
        for name, ok, rule in (
                ("learning_rate", self.learning_rate > 0, "> 0"),
                ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
                ("cd_steps", self.cd_steps >= 1, ">= 1"),
                ("epochs", self.epochs >= 0, ">= 0"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("switch_lr_scale", self.switch_lr_scale > 0, "> 0"),
                ("weight_decay", self.weight_decay >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


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


def _contrast_stats(params: HarmoniumParams, g: np.ndarray, F: list[np.ndarray],
                    H: np.ndarray, w: np.ndarray, out: GradientSet | None = None) -> GradientSet:
    """Weighted positive- minus negative-phase sums of the sufficient
    statistics into out, new if None (its ds zero outside SA mode); g is
    gates(params). With the phases stacked, F^k = [f(v+); f(v-)], H = [h+; h-]
    and one weight per row w = [w+; -w-], H is weighted in place and with
    one GEMM per view, stat^k = F^k' H (formed in dW^k's place):

        dW^k = g_k * stat^k        ds_k = g_k (1 - g_k) * colsum(W^k * stat^k)
        dlam = colsum(H)           dxi^k = F^k' w

    ds_k uses sum_b (F W)_bj H_bj = sum_i W_ij (F' H)_ij; outside SA mode,
    where s is frozen, it is left at zero."""
    out = GradientSet.zeros_like(params) if out is None else out
    H *= w[:, None]
    H.sum(axis=0, out=out.dlam)
    sa_mode = params.structure.kind is StructureKind.SA
    for k in range(params.num_views):
        stat = np.matmul(F[k].T, H, out=out.dW[k])
        np.matmul(F[k].T, w, out=out.dxi[k])
        if sa_mode:
            np.multiply(g[k] * (1.0 - g[k]), np.einsum("ij,ij->j", params.W[k], stat),
                        out=out.ds[k])
        stat *= g[k]
    return out


def _float32_chain(params: HarmoniumParams, g: np.ndarray, out: tuple | None = None) -> tuple:
    """The float32 operands of a Gibbs chain: a copy of params whose lam and
    xi are float32, and `gated_weights(params.W, g)` rounded to float32 as
    it is formed (3x faster than a cast afterwards); written into out, a
    pair this returned before, if one is given."""
    chain, wg = out or (copy.copy(params), [np.empty(w.shape, np.float32) for w in params.W])
    if out is None:
        chain.lam, chain.xi = np.float32(params.lam), [np.float32(x) for x in params.xi]
    np.copyto(chain.lam, params.lam)
    for k, w in enumerate(params.W):
        np.copyto(chain.xi[k], params.xi[k])
        np.multiply(w, g[k], out=wg[k])
    return chain, wg


class _StepState:
    """Every array a CD step writes, for batches of up to `rows` rows. A batch
    of B rows takes the leading 2B rows of the stacked phases F^k and H: its
    data, then its chain (draws, natural parameters and means in place)."""

    def __init__(self, params: HarmoniumParams, rows: int):
        dims, J = [v.dim for v in params.views], params.hidden_dim
        self.rows = rows
        self.chain = _float32_chain(params, gates(params))
        self.F = [np.empty((2 * rows, d), np.float32) for d in dims]
        self.H = np.empty((2 * rows, J), np.float32)
        self.w = np.empty(2 * rows, np.float32)
        self.draws = np.empty(rows * max(J, *dims))
        self.grad = GradientSet.zeros_like(params)


def cd_gradient(params: HarmoniumParams, fv: list[np.ndarray],
                cd_steps: int, rng: np.random.Generator,
                state: _StepState | None = None) -> GradientSet:
    """Contrastive-divergence gradient estimate over a batch fv, one (B, D_k)
    array per view, from a float32 chain (see `_float32_chain`).

    The gates and the gated weights are computed once, and so is each chain
    state's hidden mean (its lam_hat checked once): the data's drives the
    first Gibbs step, each later state's the next step, and the final
    state's the negative phase, which uses that mean rather than a sampled
    h (lower variance, same expectation). Both phases are weighted 1/B.
    The step writes only into state, a `_StepState` of at least B rows
    (built here from fv's shape if None), and returns its gradient; fv is
    checked once, as it is converted into the state. A batch of more rows
    than the state holds is a ShapeMismatchError.
    """
    rows = batch_rows(fv)
    if state is None:
        state = _StepState(params, rows)
    elif rows > state.rows:
        raise ShapeMismatchError(f"batch has {rows} rows, its step state holds {state.rows}")
    pos = check_views(params, fv, np.float32, state.F)
    B = len(pos[0])
    g = gates(params)
    chain, wg = _float32_chain(params, g, state.chain)
    F, H, w = [f[:2 * B] for f in state.F], state.H[:2 * B], state.w[:2 * B]
    neg = [f[B:] for f in F]
    hmean = posterior_hidden_mean_batch(chain, wg, pos, out=H[:B])
    for _ in range(cd_steps):
        gibbs_step_batch(chain, wg, hmean, rng, out=(H[B:], neg), draws=state.draws)
        hmean = posterior_hidden_mean_batch(chain, wg, neg, out=H[B:])
    w[:B], w[B:] = 1.0 / B, -1.0 / B
    return _contrast_stats(params, g, F, H, w, state.grad)


def exact_gradient(params: HarmoniumParams, fv: list[np.ndarray]) -> GradientSet:
    """Exact likelihood gradient over the batch fv (weights 1/B) against all
    enumerated visible states (weights p(v))."""
    fv = check_views(params, fv)
    g = gates(params)
    wg = gated_weights(params.W, g)
    h_data = posterior_hidden_mean_batch(params, wg, fv)
    fv_all, lam_all, probs = exact_visible_distribution(params, wg)
    return _contrast_stats(params, g, [np.concatenate(f) for f in zip(fv, fv_all)],
                           np.concatenate([h_data, mean(params.hidden_family, lam_all)]),
                           np.concatenate([np.full(len(h_data), 1.0 / len(h_data)), -probs]))


def finite_diff_gradient(params: HarmoniumParams, fv: list[np.ndarray],
                         step: float = 1e-5) -> GradientSet:
    """Central differences of the exact log-likelihood over every scalar
    parameter, including each switch logit.

    The 2n perturbed parameter vectors (theta_i + step, theta_i - step for
    each of the n coordinates) are evaluated in one call of
    `model.stacked_log_likelihood`, so the visible states are enumerated
    once; each difference equals that of perturbing a copy of the model.
    """
    if not FD_STEP_MIN <= step <= FD_STEP_MAX:
        raise ValueError(f"step must be in [{FD_STEP_MIN:g}, {FD_STEP_MAX:g}]")
    theta = param_vector(params)
    idx = np.arange(theta.size)
    thetas = np.tile(theta, (2 * theta.size, 1))
    thetas[2 * idx, idx] = theta + step
    thetas[2 * idx + 1, idx] = theta - step
    ll = stacked_log_likelihood(params, thetas, fv)
    return GradientSet((ll[0::2] - ll[1::2]) / (2.0 * step),
                       [v.dim for v in params.views], params.hidden_dim)


def reconstruction_error(params: HarmoniumParams, fv: list[np.ndarray], chain=None) -> np.ndarray:
    """Per-view mean squared error of the one-step mean-field reconstruction
    of the batch fv, run as `cd_gradient`'s float32 chain (in chain, a pair
    `_float32_chain` returned, if given) a `row_blocks` block at a time. Each
    view's squared errors are summed in float64 (over one block, np.mean's rounding)."""
    chain_params, wg = _float32_chain(params, gates(params), chain)
    sums = np.zeros(params.num_views)
    for block in row_blocks(params, fv):
        block = check_views(params, block, np.float32)
        hmean = posterior_hidden_mean_batch(chain_params, wg, block)
        for k, cfg in enumerate(params.views):
            # The mean and (fv - recon)^2 in the natural parameter's buffer.
            diff = visible_shifted_batch(chain_params, wg, hmean, k)
            np.subtract(block[k], mean(cfg.family, diff, out=diff), out=diff)
            sums[k] += np.sum(np.square(diff, out=diff), dtype=np.float64)
    return sums / (len(fv[0]) * np.array([v.dim for v in params.views]))


def train(params: HarmoniumParams, data: MultiViewDataset, config: TrainConfig,
          rng: np.random.Generator | None = None,
          gradient_fn=None) -> tuple[HarmoniumParams, TrainLog]:
    """Minibatch gradient ascent with momentum. Deterministic given the seed.

    The dataset is checked in float32 once, before the first step, a
    `row_blocks` block at a time, and not copied: minibatches are row slices
    of `data.view_arrays` (uint8 binary views stay uint8), converted into
    the one `_StepState` that all CD steps and each epoch's reconstruction
    share (a `gradient_fn(params, fv)` such as `exact_gradient` converts its own).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    arrays = data.view_arrays
    for block in row_blocks(params, arrays):
        check_views(params, block, np.float32)
    n = arrays[0].shape[0]

    cur, theta = params.flat_copy()
    ends = param_group_ends([v.dim for v in cur.views], cur.hidden_dim)
    n_w, s_start = ends[0], ends[2]
    # s is frozen outside SA mode.
    live = theta.size if cur.structure.kind is StructureKind.SA else s_start
    lr = config.learning_rate
    switch_lr = lr * config.switch_lr_scale
    decay = lr * config.weight_decay
    vel = np.zeros(live)
    # Work buffers reused by every step. Allocating them afresh each step
    # doubled the update's time at 24x24 glyphs and 256 hidden units.
    update, decayed = np.empty(live), np.empty(n_w)
    finite = np.empty(theta.size, dtype=bool)
    log = TrainLog()
    try:  # the epoch's exact log-likelihood, where enumeration is feasible
        _check_enum_bounds(cur)
        log_ll = True
    except ValueError:
        log_ll = False
    state = _StepState(cur, min(config.batch_size, n))

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            fv = [a[idx] for a in arrays]
            try:
                if gradient_fn is None:
                    grad = cd_gradient(cur, fv, config.cd_steps, rng, state)
                else:
                    grad = gradient_fn(cur, fv)
            except NonFiniteError:
                # Overflowing activations before the parameters themselves
                # go non-finite; report the largest parameter group.
                largest = [seg.max() for seg in np.split(np.abs(theta), ends[:-1])]
                raise TrainingDivergedError(
                    epoch, PARAM_GROUPS[int(np.argmax(largest))]) from None

            vel *= config.momentum
            vel += grad.vec[:live]
            np.multiply(vel, lr, out=update)
            np.multiply(vel[s_start:], switch_lr, out=update[s_start:])
            # lr*vel + (-decay)*W rounds exactly as lr*vel - decay*W. It is
            # applied at every weight_decay, so that even at 0 the update
            # keeps that rounding, down to the sign of a zero weight.
            update[:n_w] += np.multiply(theta[:n_w], -decay, out=decayed)
            theta[:live] += update
            if not np.isfinite(theta, out=finite).all():
                first_bad = int(np.argmin(finite))
                raise TrainingDivergedError(epoch, PARAM_GROUPS[
                    int(np.searchsorted(ends, first_bad, side="right"))])
        g = gates(cur)
        log.records.append(EpochRecord(
            epoch=epoch,
            recon_err=[float(e) for e in reconstruction_error(cur, arrays, state.chain)],
            mean_gate=[float(m) for m in g.mean(axis=1)],
            exact_ll=exact_log_likelihood(cur, arrays) if log_ll else None,
        ))
    return cur, log
