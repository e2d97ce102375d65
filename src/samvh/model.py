"""Multi-view harmonium with switch-gated connections.

Three structure modes share one parameterization:
  - DWH: every hidden unit connects to every view (gates fixed at 1).
  - MVH: connectivity frozen to a boolean mask; switch logits get no gradient.
  - SA:  switch logits are learned; the gate is their sigmoid.

The implemented unnormalized log-joint is

    sum_{k,i,j} sigma(s_kj) W^k_ij f(v^k_i) g(h_j)
      + sum_{k,i} xi^k_i f(v^k_i) + sum_j lam_j g(h_j)

with PLUS signs on both bias terms. This is the convention under which the
gradient statistics in `training` (positive phase f(v), B'(lam_hat), ...)
are the true gradients of the exact log-likelihood and under which the
hidden conditional's natural parameter equals the shifted parameter
lam_hat = lam + sum sigma(s) W f(v). A minus-bias variant would flip both,
breaking the finite-difference check, so the plus form is used throughout.

Each energy operation has one function: `hidden_shifted_batch` (lam_hat),
`visible_shifted_batch`, `posterior_hidden_mean_batch` (B'(lam_hat)),
`gibbs_step_batch`, `log_unnorm_marginal_batch` (log p_tilde(v), given
lam_hat) and `exact_visible_distribution`. Those that need the weights take
the gated weights wg = gated_weights(params.W, gates(params)), which the
caller builds once. The training step, the exact gradient, the feature
extractor and the enumeration all call these.
"""
from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .expfam import DomainError, Family, mean, sample_from_mean, sigmoid, suff_stat

# The one checkpoint format: a JSON header and theta as one base64 payload.
CHECKPOINT_FORMAT_VERSION = 2

# Exact enumeration is limited to models small enough to sum over all states.
MAX_ENUM_VISIBLE = 16
MAX_ENUM_HIDDEN = 12
# `stacked_log_likelihood` takes its rows in chunks whose (rows, states, J)
# blocks hold at most this many float64 values (8 MB). One row of the
# largest enumerable model, 2^16 states x 12 hidden units, fits in a block.
_STACK_BLOCK = 2 ** 20
# `row_blocks` yields a dataset's rows in blocks of at most this many values
# of sum_k D_k (2 MB in float64): 227 rows of two 24x24 views.
ROW_BLOCK_VALUES = 2 ** 18


class EnumerationBoundError(ValueError):
    """Model too large for exact enumeration."""


class ShapeMismatchError(ValueError):
    """Batch or vector incongruent with the model's shapes."""


@dataclass(frozen=True)
class ViewConfig:
    name: str
    dim: int
    family: Family

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"view name must be a string, got {self.name!r}")
        if self.dim < 1:
            raise ValueError(f"view {self.name!r}: dim must be >= 1")


class StructureKind(Enum):
    DWH = "dwh"
    MVH = "mvh"
    SA = "sa"


@dataclass
class StructureMode:
    """A structure mode, with its K x J connectivity mask in MVH mode. The
    mask is a 2-D array or a list of equally long lists whose items are each
    0, 1, true or false; anything else is a TypeError, so that no other
    truthy or falsy value passes for a connection."""
    kind: StructureKind
    mask: np.ndarray | None = None  # K x J booleans, MVH only

    def __post_init__(self):
        if self.kind is not StructureKind.MVH:
            if self.mask is not None:
                raise ValueError("mask is only meaningful in MVH mode")
            return
        if self.mask is None:
            raise ValueError("MVH mode requires a connectivity mask")
        mask = self.mask
        if isinstance(mask, list):  # ragged rows give a 1-D array of lists
            mask = np.array(mask, dtype=object)
        if not (isinstance(mask, np.ndarray) and mask.ndim == 2):
            raise TypeError(f"mask must be a 2-D array or a list of equally "
                            f"long lists, got {self.mask!r}")
        if mask.dtype != bool:
            for item in mask.flat:
                if not (isinstance(item, (bool, np.bool_)) or (
                        isinstance(item, (int, np.integer)) and item in (0, 1))):
                    raise TypeError(
                        f"mask items must be 0, 1, true or false, got {item!r}")
        self.mask = np.asarray(mask, dtype=bool)


@dataclass
class MultiViewSample:
    """One row of a dataset, for callers that want samples one at a time.
    Every computation takes per-view batch arrays instead. A uint8 binary
    view (see MultiViewDataset) must be widened before any signed
    arithmetic: 1 - v wraps around to 255 on bytes."""
    values: list[np.ndarray]  # one vector per view
    label: int | None = None


@dataclass
class HarmoniumParams:
    views: list[ViewConfig]
    hidden_dim: int
    hidden_family: Family
    W: list[np.ndarray]  # per view, D_k x J
    xi: list[np.ndarray]  # per view, D_k
    lam: np.ndarray  # J
    s: np.ndarray  # K x J switch logits
    structure: StructureMode

    def __post_init__(self):
        K, J = len(self.views), self.hidden_dim
        if J < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {J}")
        names = [v.name for v in self.views]
        if len(set(names)) != K:
            raise ValueError("view names must be unique")
        self.W = [np.asarray(w, dtype=np.float64) for w in self.W]
        self.xi = [np.asarray(x, dtype=np.float64) for x in self.xi]
        self.lam = np.asarray(self.lam, dtype=np.float64)
        self.s = np.asarray(self.s, dtype=np.float64)
        if len(self.W) != K or len(self.xi) != K:
            raise ShapeMismatchError("need one W and one xi per view")
        for v, w, x in zip(self.views, self.W, self.xi):
            if w.shape != (v.dim, J):
                raise ShapeMismatchError(
                    f"W for view {v.name!r} has shape {w.shape}, want {(v.dim, J)}")
            if x.shape != (v.dim,):
                raise ShapeMismatchError(
                    f"xi for view {v.name!r} has shape {x.shape}, want {(v.dim,)}")
        if self.lam.shape != (J,):
            raise ShapeMismatchError(f"lam has shape {self.lam.shape}, want {(J,)}")
        if self.s.shape != (K, J):
            raise ShapeMismatchError(f"s has shape {self.s.shape}, want {(K, J)}")
        if self.structure.kind is StructureKind.MVH and self.structure.mask.shape != (K, J):
            raise ShapeMismatchError("MVH mask shape must be K x J")
        for arr in (*self.W, *self.xi, self.lam, self.s):
            if not np.all(np.isfinite(arr)):
                raise ValueError("all parameters must be finite")

    @property
    def num_views(self) -> int:
        return len(self.views)

    def copy(self) -> "HarmoniumParams":
        return self.flat_copy()[0]

    def flat_copy(self) -> tuple["HarmoniumParams", np.ndarray]:
        """A copy whose W, xi, lam and s are views into one flat vector,
        laid out as in `param_vector`, returned with it."""
        theta = param_vector(self)
        W, xi, lam, s = split_param_vector(
            theta, [v.dim for v in self.views], self.hidden_dim)
        params = HarmoniumParams(
            views=list(self.views),
            hidden_dim=self.hidden_dim,
            hidden_family=self.hidden_family,
            W=W, xi=xi, lam=lam, s=s,
            structure=StructureMode(self.structure.kind,
                                    None if self.structure.mask is None
                                    else self.structure.mask.copy()),
        )
        return params, theta


# The parameter groups of a flat parameter vector theta, in their order.
PARAM_GROUPS = ("W", "xi", "lam", "s")


def param_group_ends(dims: list[int], hidden_dim: int) -> tuple[int, ...]:
    """End offsets in theta of the PARAM_GROUPS segments, for views of dims
    D_k and hidden_dim J; the last is the length of theta."""
    D, K, J = sum(dims), len(dims), hidden_dim
    return (D * J, D * J + D, D * J + D + J, D * J + D + J + K * J)


def param_vector(params: HarmoniumParams) -> np.ndarray:
    """Every parameter in one new flat vector theta: W^0 .. W^{K-1}, xi^0 ..
    xi^{K-1}, lam, s, each in C order."""
    return np.concatenate([a.ravel() for a in (*params.W, *params.xi, params.lam, params.s)])


def split_param_vector(vec: np.ndarray, dims: list[int], hidden_dim: int
                       ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray]:
    """Views (W, xi, lam, s) into a vector laid out as in `param_vector`, for
    views of dims D_k and hidden_dim J. A stack of such vectors, (..., n),
    gives views with the same leading axes."""
    J, lead = hidden_dim, vec.shape[:-1]
    W, xi, pos = [], [], 0
    for d in dims:
        W.append(vec[..., pos:pos + d * J].reshape(*lead, d, J))
        pos += d * J
    for d in dims:
        xi.append(vec[..., pos:pos + d])
        pos += d
    return W, xi, vec[..., pos:pos + J], vec[..., pos + J:].reshape(*lead, len(dims), J)


def init_params(views: list[ViewConfig], hidden_dim: int, hidden_family: Family,
                structure: StructureMode, rng: np.random.Generator) -> HarmoniumParams:
    """Fresh parameters: N(0, 0.01^2) weights, zero biases, zero switch logits."""
    return HarmoniumParams(
        views=views,
        hidden_dim=hidden_dim,
        hidden_family=hidden_family,
        W=[0.01 * rng.standard_normal((v.dim, hidden_dim)) for v in views],
        xi=[np.zeros(v.dim) for v in views],
        lam=np.zeros(hidden_dim),
        s=np.zeros((len(views), hidden_dim)),
        structure=structure,
    )


def make_tiny_model(rng: np.random.Generator, kind: StructureKind = StructureKind.SA,
                    dims=(3, 3), J: int = 4, scale: float = 0.5,
                    mask=None) -> HarmoniumParams:
    """Random small all-Bernoulli model, by default within the enumeration
    bounds. MVH masks are drawn (70% connected) unless given."""
    views = [ViewConfig(f"v{i}", d, Family.BERNOULLI) for i, d in enumerate(dims)]
    if kind is StructureKind.MVH and mask is None:
        mask = rng.random((len(dims), J)) < 0.7
    return HarmoniumParams(
        views=views,
        hidden_dim=J,
        hidden_family=Family.BERNOULLI,
        W=[scale * rng.standard_normal((d, J)) for d in dims],
        xi=[scale * rng.standard_normal(d) for d in dims],
        lam=scale * rng.standard_normal(J),
        s=rng.standard_normal((len(dims), J)),
        structure=StructureMode(kind, mask),
    )


def make_binary_data(params: HarmoniumParams, rng: np.random.Generator,
                     n: int) -> list[np.ndarray]:
    """n fair-coin rows per view, as (n, D_k) arrays, from one (n, sum D_k)
    draw of the rng: row by row, view by view."""
    dims = [v.dim for v in params.views]
    bits = rng.random((n, sum(dims))) < 0.5
    return [b.astype(np.float64) for b in np.split(bits, np.cumsum(dims)[:-1], axis=1)]


# ---------------------------------------------------------------------------
# Gates and shifted parameters
# ---------------------------------------------------------------------------

def gates(params: HarmoniumParams) -> np.ndarray:
    """Effective gate matrix, K x J."""
    return _gates(params.structure, params.s)


def _gates(structure: StructureMode, s: np.ndarray) -> np.ndarray:
    """Gates of switch logits s, (..., K, J), under a structure mode. An MVH
    mask is returned as one K x J matrix whatever the leading axes of s."""
    if structure.kind is StructureKind.DWH:
        return np.ones_like(s)
    if structure.kind is StructureKind.MVH:
        return structure.mask.astype(np.float64)
    return sigmoid(s)


@np.errstate(over="ignore")  # a value beyond dtype's range casts to inf, reported below
def check_views(params: HarmoniumParams, fv: list[np.ndarray],
                dtype: type = np.float64, out: list[np.ndarray] | None = None
                ) -> list[np.ndarray]:
    """Validate a batch against the model and return f(v) per view in dtype
    (float32 for the CD chain), the one place where a batch of any dtype (a
    dataset's uint8 binary views) is converted; a view in dtype is not copied.
    Given out, one array of dtype per view, each view goes into the leading
    rows of its own. A uint8 Bernoulli view's support is tested on its bytes.

    fv holds one (B, D_k) array per view with the same B >= 1 throughout,
    every value finite, inside its view's family support and dtype's range.
    """
    if len(fv) != params.num_views:
        raise ShapeMismatchError(
            f"batch has {len(fv)} views, model has {params.num_views}: "
            f"{', '.join(repr(v.name) for v in params.views)}")
    checked = []
    for k, (cfg, raw) in enumerate(zip(params.views, fv)):
        shape = np.shape(raw)
        if len(shape) != 2 or shape[1] != cfg.dim:
            raise ShapeMismatchError(
                f"view {cfg.name!r} batch has shape {shape}, want (B, {cfg.dim})")
        bits = cfg.family is Family.BERNOULLI and getattr(raw, "dtype", None) == np.uint8
        # The Bernoulli support test fails on NaN and inf too.
        try:
            if bits and raw.size and raw.max() > 1:
                raise DomainError("Bernoulli support is {0, 1}")
            arr = np.asarray(raw, dtype=dtype) if out is None else out[k][:shape[0]]
            if out is not None:
                arr[...] = raw
            if not bits and cfg.family is not Family.BERNOULLI and not np.isfinite(arr).all():
                raise DomainError(f"values must be within the {arr.dtype} range")
            checked.append(arr if bits else suff_stat(cfg.family, arr))
        except DomainError as exc:
            fault = exc if np.isfinite(np.asarray(raw, float)).all() else "values must be finite"
            raise DomainError(f"view {cfg.name!r}: {fault}") from None
    rows = {a.shape[0] for a in checked}
    if len(rows) != 1 or 0 in rows:
        raise ShapeMismatchError(
            f"every view needs the same nonzero number of rows, got {sorted(rows)}")
    return checked


def row_blocks(params: HarmoniumParams, fv: list[np.ndarray]):
    """Yield fv in row slices of at most ROW_BLOCK_VALUES values, at least
    one, a row apart in size: a short last block could take a BLAS' small-
    matrix GEMM kernel, which rounds otherwise. A batch that does not fit
    the model's shapes (0 rows, say) is yielded whole, for check_views."""
    shapes = [getattr(a, "shape", None) for a in fv]
    n = shapes[0][0] if shapes and shapes[0] else 0
    blocks = -(-n // max(1, ROW_BLOCK_VALUES // sum(v.dim for v in params.views)))
    if blocks <= 1 or shapes != [(n, v.dim) for v in params.views]:
        yield fv
        return
    for i in range(blocks):
        yield [a[i * n // blocks:(i + 1) * n // blocks] for a in fv]


# gated_weights, hidden_shifted_batch and log_unnorm_marginal_batch take one
# model's parameters or a stack with leading run axes, bit for bit per run.

def gated_weights(W: list[np.ndarray], g: np.ndarray) -> list[np.ndarray]:
    """sigma(s) W^k for every view, in view order, given the gates g, e.g.
    gated_weights(params.W, gates(params))."""
    return [w * g[..., k, None, :] for k, w in enumerate(W)]


def hidden_shifted_batch(lam: np.ndarray, wg: list[np.ndarray],
                         fv: list[np.ndarray], out=None) -> np.ndarray:
    """Natural parameter of p(h | v), lam_hat = lam + sum_k sigma(s) W^k f(v^k),
    for a batch: (..., B, J), or in out. fv[k] is f(v) for view k, shape (B, D_k)."""
    out = np.matmul(fv[0], wg[0], out=out)
    out += lam[..., None, :]
    for k in range(1, len(fv)):
        out += fv[k] @ wg[k]
    return out


def visible_shifted_batch(params: HarmoniumParams, wg: list[np.ndarray],
                          gh: np.ndarray, k: int, out=None) -> np.ndarray:
    """Natural parameter of p(v^k | h), xi^k + sigma(s) W^k g(h), over a batch
    of hidden statistics gh, shape (B, J), as a new array or in out."""
    out = np.matmul(gh, wg[k].T, out=out)
    out += params.xi[k]
    return out


def posterior_hidden_mean_batch(params: HarmoniumParams, wg: list[np.ndarray],
                                fv: list[np.ndarray], out=None) -> np.ndarray:
    """B'(lam_hat): the per-unit conditional mean, (B, J), used as the feature
    vector and as a Gibbs chain state's hidden mean; given out, lam_hat and
    then the mean are written there. lam_hat is checked for finiteness."""
    return mean(params.hidden_family, hidden_shifted_batch(params.lam, wg, fv, out), out=out)


def gibbs_step_batch(params: HarmoniumParams, wg: list[np.ndarray], hmean: np.ndarray,
                     rng: np.random.Generator, out=None, draws=None
                     ) -> tuple[np.ndarray, list[np.ndarray]]:
    """One block Gibbs sweep for a batch, from a chain state whose hidden mean
    hmean = `posterior_hidden_mean_batch` is already known: h is drawn from
    hmean and is its own sufficient statistic, then each view v'^k from
    p(v^k | h). Returns (h, v'), or fills out, an (h, v') pair of buffers
    (each view's natural parameter and mean too); draws as in `sample_from_mean`."""
    h, vs = (None, [None] * params.num_views) if out is None else out
    h = sample_from_mean(params.hidden_family, hmean, rng, h, draws)
    etas = [visible_shifted_batch(params, wg, h, k, v) for k, v in enumerate(vs)]
    return h, [sample_from_mean(cfg.family, mean(cfg.family, eta, out=eta), rng, eta, draws)
               for cfg, eta in zip(params.views, etas)]


# ---------------------------------------------------------------------------
# Joint, likelihood, sampling
# ---------------------------------------------------------------------------

def unnormalized_log_joint(params: HarmoniumParams, fv: list[np.ndarray],
                           h: np.ndarray) -> np.ndarray:
    """Log of the unnormalized joint of each row of a batch, shape (B,).

    See the module docstring for the sign convention (plus on both bias
    terms): the weight and hidden-bias terms together are lam_hat . g(h).
    """
    fv = check_views(params, fv)
    h = np.asarray(h, dtype=np.float64)
    want = (fv[0].shape[0], params.hidden_dim)
    if h.shape != want:
        raise ShapeMismatchError(f"h has shape {h.shape}, want {want}")
    gh = suff_stat(params.hidden_family, h)
    lam_hat = hidden_shifted_batch(params.lam, gated_weights(params.W, gates(params)), fv)
    total = np.sum(lam_hat * gh, axis=1)
    for k in range(params.num_views):
        total += fv[k] @ params.xi[k]
    return total


def _check_enum_bounds(params: HarmoniumParams):
    total_visible = sum(v.dim for v in params.views)
    if total_visible > MAX_ENUM_VISIBLE or params.hidden_dim > MAX_ENUM_HIDDEN:
        raise EnumerationBoundError(
            f"enumeration limited to {MAX_ENUM_VISIBLE} visible / "
            f"{MAX_ENUM_HIDDEN} hidden units "
            f"(got {total_visible} / {params.hidden_dim})")
    if params.hidden_family is not Family.BERNOULLI or any(
            v.family is not Family.BERNOULLI for v in params.views):
        raise ValueError("exact enumeration requires all-Bernoulli families")


def enumerate_binary_states(n: int) -> np.ndarray:
    """All 2^n binary vectors as a (2^n, n) float array."""
    idx = np.arange(2 ** n, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return bits.astype(np.float64)


def _visible_states(dims: list[int]) -> list[np.ndarray]:
    """Every binary visible state, one (2^sum D_k, D_k) array per view."""
    return np.split(enumerate_binary_states(sum(dims)), np.cumsum(dims)[:-1], axis=1)


def log_unnorm_marginal_batch(xi: list[np.ndarray], fv: list[np.ndarray],
                              lam_hat: np.ndarray) -> np.ndarray:
    """log sum_h p_tilde(v, h) for Bernoulli hidden units, shape (..., B),
    given lam_hat = `hidden_shifted_batch` of fv, which it overwrites.

    The hidden sum factorizes: each unit contributes log(1 + exp(lam_hat_j)).
    """
    total = np.sum(np.logaddexp(0.0, lam_hat, out=lam_hat), axis=-1)
    for k in range(len(fv)):
        total += (fv[k] @ xi[k][..., None])[..., 0]
    return total


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """log(sum(exp(a))) over axis (every axis if None; a float64 scalar
    then). The maxima are taken out of the sum and counted (m),
    s = sum(exp(a - max)) / m over the rest, and the result is
    log1p(s) + log(m) + max; where that is not finite (an all -inf row gives
    NaN), log(sum(exp(a))) is taken instead. These are the steps of the
    reference logsumexp that `tests/test_model.py` pins this to, bit for
    bit, so log Z and the goldens that depend on it do not move."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        at_max = a == a_max
        m = np.sum(at_max, axis=axis, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))[bad]
    return np.squeeze(out, axis=axis)[()]


def exact_log_partition(params: HarmoniumParams) -> float:
    """log Z by enumerating every visible state (tiny Bernoulli models only)."""
    _check_enum_bounds(params)
    return float(_stacked_enumeration(params, param_vector(params)[None])[0])


def exact_log_likelihood(params: HarmoniumParams, fv: list[np.ndarray]) -> float:
    """Mean over the rows of a batch of log p(v), by exact enumeration."""
    return float(stacked_log_likelihood(params, param_vector(params)[None], fv)[0])


def stacked_log_likelihood(params: HarmoniumParams, thetas: np.ndarray,
                           fv: list[np.ndarray]) -> np.ndarray:
    """`exact_log_likelihood` of the batch fv under every row of thetas, an
    (R, n) stack of parameter vectors laid out as in `param_vector`, with the
    views, hidden units and structure mode of params. Shape (R,).

    The visible states are enumerated once for all rows, and each row's
    result equals, bit for bit, that of a model holding its parameters.
    """
    _check_enum_bounds(params)
    for block in row_blocks(params, fv):
        check_views(params, block)
    thetas = np.asarray(thetas, dtype=np.float64)
    n = param_group_ends([v.dim for v in params.views], params.hidden_dim)[-1]
    if thetas.ndim != 2 or thetas.shape[1] != n:
        raise ShapeMismatchError(f"thetas has shape {thetas.shape}, want (R, {n})")
    return _stacked_enumeration(params, thetas, fv)


def _stacked_enumeration(params: HarmoniumParams, thetas: np.ndarray,
                         fv: list[np.ndarray] | None = None) -> np.ndarray:
    """Per row of thetas, log Z, or the mean log p(v) over the batch fv if
    one is given, summed a `row_blocks` block at a time (np.mean's bits over
    one block). The rows are taken in chunks whose (rows, states, J) and
    (rows, B, J) blocks hold at most _STACK_BLOCK values."""
    dims, J = [v.dim for v in params.views], params.hidden_dim
    states = _visible_states(dims)
    widest = max(states[0].shape[0], 0 if fv is None else len(fv[0]))
    chunk = max(1, _STACK_BLOCK // (widest * J))
    out = np.empty(thetas.shape[0])
    for start in range(0, out.size, chunk):
        rows = slice(start, start + chunk)
        W, xi, lam, s = split_param_vector(thetas[rows], dims, J)
        wg = gated_weights(W, _gates(params.structure, s))

        def log_marginal(batch):
            return log_unnorm_marginal_batch(xi, batch, hidden_shifted_batch(lam, wg, batch))

        log_z = _logsumexp(log_marginal(states), axis=1)
        out[rows] = log_z if fv is None else sum(
            np.sum(log_marginal(check_views(params, block)), axis=1)
            for block in row_blocks(params, fv)) / len(fv[0]) - log_z
    return out


def exact_visible_distribution(params: HarmoniumParams, wg: list[np.ndarray]
                               ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Every visible state as per-view arrays, with its lam_hat and its exact
    probability p(v) (tiny Bernoulli models only)."""
    _check_enum_bounds(params)
    fv = _visible_states([v.dim for v in params.views])
    lam_hat = hidden_shifted_batch(params.lam, wg, fv)
    logp = log_unnorm_marginal_batch(params.xi, fv, lam_hat.copy())
    logp -= _logsumexp(logp)
    return fv, lam_hat, np.exp(logp)


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------

# A hidden unit is connected to a view when its gate is strictly above this,
# so untrained switches (gate exactly 0.5) count as unconnected.
GATE_THRESHOLD = 0.5


@dataclass
class SwitchReport:
    connected: np.ndarray  # K x J booleans
    shared_units: list[int]
    specific_units: list[list[int]]  # per view
    dead_units: list[int]

    @property
    def num_shared(self) -> int:
        return len(self.shared_units)

    @property
    def num_specific(self) -> list[int]:
        return [len(u) for u in self.specific_units]

    @property
    def num_dead(self) -> int:
        return len(self.dead_units)

    def summary_line(self) -> str:
        parts = [f"shared={self.num_shared}"]
        parts += [f"specific_view{k}={n}" for k, n in enumerate(self.num_specific)]
        parts.append(f"dead={self.num_dead}")
        return " ".join(parts)


def structure_report(params: HarmoniumParams) -> SwitchReport:
    """Classify hidden units by gated connectivity: a unit is connected to a
    view when its gate is above GATE_THRESHOLD."""
    connected = gates(params) > GATE_THRESHOLD
    counts = connected.sum(axis=0)
    shared = [j for j in range(params.hidden_dim) if counts[j] >= 2]
    dead = [j for j in range(params.hidden_dim) if counts[j] == 0]
    specific = [[j for j in range(params.hidden_dim)
                 if counts[j] == 1 and connected[k, j]]
                for k in range(params.num_views)]
    return SwitchReport(connected=connected,
                        shared_units=shared, specific_units=specific,
                        dead_units=dead)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

class MalformedDocumentError(ValueError):
    """A JSON document (checkpoint, dataset manifest or config) is not valid
    JSON, lacks a key (a MissingKeyError) or holds a value of the wrong kind."""


class MissingKeyError(MalformedDocumentError):
    """A JSON document (checkpoint, dataset manifest or config) lacks a key."""


def read_json(path: str):
    """The JSON document in a file, or a MalformedDocumentError naming it
    if the file is not JSON in UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an over-long integer
            raise MalformedDocumentError(f"{path}: invalid JSON: {exc}") from None


def write_json(doc, path: str) -> None:
    """Write doc as indented JSON atomically (temp file + rename).

    The temp file is created with mode 0o666 less the umask, the mode that
    open(path, "w") gives a new file (tempfile.mkstemp would make it 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# What require_key's `kind` asks of a value: its name and its test.
_KINDS = {
    dict: ("an object", lambda v: isinstance(v, dict)),
    list: ("a non-empty list", lambda v: isinstance(v, list) and v != []),
    int: ("a positive integer", lambda v: type(v) is int and v >= 1),  # no bool
    str: ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
}


def key_path(path: list) -> str:
    return "".join(f"[{k!r}]" for k in path)


def require_key(doc, path: list, source: str, kind: type | None = None):
    """doc[path[0]][path[1]]..., or a MissingKeyError that names the source
    file and the key path. Given a kind (dict, list, int or str, as in
    _KINDS, or an Enum class, whose member is returned), a value not of that
    kind is a MalformedDocumentError that names the file, the key path and
    the value."""
    node = doc
    for i, key in enumerate(path):
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            raise MissingKeyError(f"{source}: missing key {key_path(path[:i + 1])}") from None
    if kind is None:
        return node
    if issubclass(kind, Enum):
        values = [member.value for member in kind]
        if isinstance(node, str) and node in values:
            return kind(node)
        wanted = f"one of {values}"
    elif _KINDS[kind][1](node):
        return node
    else:
        wanted = _KINDS[kind][0]
    raise MalformedDocumentError(f"{source}: {key_path(path)} must be {wanted}, "
                                 f"got {node!r:.40}")


def require_views(doc, source: str) -> tuple[list[str], list[Family]]:
    """The names (non-empty strings) and families of doc['views'], the list of
    {name, dim, family} objects that a checkpoint, a dataset manifest and a
    config share. Each reader checks the dims itself."""
    n = len(require_key(doc, ["views"], source, list))
    for i in range(n):
        require_key(doc, ["views", i], source, dict)
    return ([require_key(doc, ["views", i, "name"], source, str) for i in range(n)],
            [require_key(doc, ["views", i, "family"], source, Family) for i in range(n)])


def _decode_theta(text, dims: list[int], hidden_dim: int) -> np.ndarray:
    """The flat parameter vector of a format-2 `theta` payload: base64 of
    little-endian float64 values, exactly as many as views of dims D_k and
    hidden_dim J need. A new writable array, not a view of the bytes."""
    if not isinstance(text, str):
        raise TypeError(f"theta must be a base64 string, got {text!r:.40}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"theta is not valid base64: {exc}") from None
    n = param_group_ends(dims, hidden_dim)[-1]
    if len(raw) != 8 * n:
        raise ValueError(f"theta holds {len(raw)} bytes, want {8 * n} "
                         f"({n} float64 values for view dims {dims} and "
                         f"{hidden_dim} hidden units)")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def save_checkpoint(params: HarmoniumParams, path: str) -> None:
    """Write a format-2 checkpoint atomically (temp file + rename): a JSON
    header (format_version, structure, views, hidden) and `theta`, the
    base64 of `param_vector(params)` as little-endian float64, so every
    double survives save/load bit-exactly."""
    structure = {"kind": params.structure.kind.value}
    if params.structure.mask is not None:
        structure["mask"] = params.structure.mask.astype(int).tolist()
    write_json({
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "structure": structure,
        "views": [{"name": v.name, "dim": v.dim, "family": v.family.value}
                  for v in params.views],
        "hidden": {"dim": params.hidden_dim, "family": params.hidden_family.value},
        "theta": base64.b64encode(param_vector(params).astype("<f8").tobytes()).decode("ascii"),
    }, path)


def load_checkpoint(path: str) -> HarmoniumParams:
    """A checkpoint as `save_checkpoint` writes it. Any other format_version,
    and any other fault, is a MalformedDocumentError (a MissingKeyError for
    a missing key) that names the file."""
    doc = read_json(path)

    def get(*keys, kind=None):
        return require_key(doc, list(keys), path, kind)

    try:
        version = doc.get("format_version") if isinstance(doc, dict) else None
        if version != CHECKPOINT_FORMAT_VERSION or type(version) is not int:
            raise ValueError(f"unsupported format version ['format_version']: {version!r}")
        names, families = require_views(doc, path)
        views = [ViewConfig(name, get("views", i, "dim", kind=int), family)
                 for i, (name, family) in enumerate(zip(names, families))]
        kind = get("structure", "kind", kind=StructureKind)
        structure = StructureMode(kind, get("structure", "mask") if kind is StructureKind.MVH
                                  else get("structure").get("mask"))
        dims, J = [v.dim for v in views], get("hidden", "dim", kind=int)
        W, xi, lam, s = split_param_vector(_decode_theta(get("theta"), dims, J), dims, J)
        return HarmoniumParams(views=views, hidden_dim=J,
                               hidden_family=get("hidden", "family", kind=Family),
                               W=W, xi=xi, lam=lam, s=s, structure=structure)
    except MalformedDocumentError:
        raise
    except (TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"{path}: malformed checkpoint: {exc}") from None
