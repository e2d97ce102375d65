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
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit, logsumexp

from .expfam import DomainError, Family, mean, sample, suff_stat

CHECKPOINT_FORMAT_VERSION = 1

# Exact enumeration is limited to models small enough to sum over all states.
MAX_ENUM_VISIBLE = 16
MAX_ENUM_HIDDEN = 12


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
        if self.dim < 1:
            raise ValueError(f"view {self.name!r}: dim must be >= 1")


class StructureKind(Enum):
    DWH = "dwh"
    MVH = "mvh"
    SA = "sa"


@dataclass
class StructureMode:
    kind: StructureKind
    mask: np.ndarray | None = None  # K x J booleans, MVH only

    def __post_init__(self):
        if self.kind is StructureKind.MVH:
            if self.mask is None:
                raise ValueError("MVH mode requires a connectivity mask")
            self.mask = np.asarray(self.mask, dtype=bool)
        elif self.mask is not None:
            raise ValueError("mask is only meaningful in MVH mode")


@dataclass
class MultiViewSample:
    """One row of a dataset, for callers that want samples one at a time.
    Every computation takes per-view batch arrays instead."""
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
            raise ValueError("hidden_dim must be >= 1")
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


def param_vector(params: HarmoniumParams) -> np.ndarray:
    """Every parameter in one new flat vector: W^0 .. W^{K-1}, xi^0 ..
    xi^{K-1}, lam, s, each in C order."""
    return np.concatenate([a.ravel() for a in (*params.W, *params.xi, params.lam, params.s)])


def split_param_vector(vec: np.ndarray, dims: list[int], hidden_dim: int
                       ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray]:
    """Views (W, xi, lam, s) into a vector laid out as in `param_vector`, for
    views of dims D_k and hidden_dim J."""
    J = hidden_dim
    W, xi, pos = [], [], 0
    for d in dims:
        W.append(vec[pos:pos + d * J].reshape(d, J))
        pos += d * J
    for d in dims:
        xi.append(vec[pos:pos + d])
        pos += d
    return W, xi, vec[pos:pos + J], vec[pos + J:].reshape(len(dims), J)


def init_params(views: list[ViewConfig], hidden_dim: int, hidden_family: Family,
                structure: StructureMode, rng: np.random.Generator,
                weight_scale: float = 0.01) -> HarmoniumParams:
    """Fresh parameters: small random weights, zero biases, zero switch logits."""
    return HarmoniumParams(
        views=views,
        hidden_dim=hidden_dim,
        hidden_family=hidden_family,
        W=[weight_scale * rng.standard_normal((v.dim, hidden_dim)) for v in views],
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
    """n fair-coin rows per view, as (n, D_k) arrays. The rng is drawn row by
    row, view by view."""
    draws = [[rng.random(v.dim) < 0.5 for v in params.views] for _ in range(n)]
    return [np.array([row[k] for row in draws], dtype=np.float64)
            for k in range(params.num_views)]


# ---------------------------------------------------------------------------
# Gates and shifted parameters
# ---------------------------------------------------------------------------

def gates(params: HarmoniumParams) -> np.ndarray:
    """Effective gate matrix, K x J."""
    kind = params.structure.kind
    if kind is StructureKind.DWH:
        return np.ones_like(params.s)
    if kind is StructureKind.MVH:
        return params.structure.mask.astype(np.float64)
    return expit(params.s)


def check_views(params: HarmoniumParams, fv: list[np.ndarray]) -> list[np.ndarray]:
    """Validate a batch against the model and return f(v) per view.

    fv holds one (B, D_k) array per view with the same B >= 1 throughout,
    every value finite and inside its view's family support.
    """
    if len(fv) != params.num_views:
        raise ShapeMismatchError(
            f"batch has {len(fv)} views, model has {params.num_views}: "
            f"{', '.join(repr(v.name) for v in params.views)}")
    out = []
    for cfg, arr in zip(params.views, fv):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != cfg.dim:
            raise ShapeMismatchError(
                f"view {cfg.name!r} batch has shape {arr.shape}, want (B, {cfg.dim})")
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"view {cfg.name!r}: values must be finite")
        try:
            out.append(suff_stat(cfg.family, arr))
        except DomainError as exc:
            raise DomainError(f"view {cfg.name!r}: {exc}") from None
    rows = {a.shape[0] for a in out}
    if len(rows) != 1 or 0 in rows:
        raise ShapeMismatchError(
            f"every view needs the same nonzero number of rows, got {sorted(rows)}")
    return out


def gated_weights(params: HarmoniumParams, g: np.ndarray) -> list[np.ndarray]:
    """sigma(s) W^k for every view, given the gates g = gates(params): the
    row blocks of one (D_total, J) matrix, in view order."""
    stacked = np.empty((sum(v.dim for v in params.views), params.hidden_dim))
    blocks, start = [], 0
    for k, cfg in enumerate(params.views):
        blocks.append(np.multiply(params.W[k], g[k], out=stacked[start:start + cfg.dim]))
        start += cfg.dim
    return blocks


def _hidden_shifted(params: HarmoniumParams, wg: list[np.ndarray],
                    fv: list[np.ndarray]) -> np.ndarray:
    """`hidden_shifted_batch` given the gated weights wg."""
    out = params.lam + fv[0] @ wg[0]
    for k in range(1, params.num_views):
        out += fv[k] @ wg[k]
    return out


def _visible_shifted(params: HarmoniumParams, wg: list[np.ndarray],
                     gh: np.ndarray, k: int) -> np.ndarray:
    """`visible_shifted_batch` given the gated weights wg, adding xi in place."""
    out = gh @ wg[k].T
    out += params.xi[k]
    return out


def _gibbs_step(params: HarmoniumParams, wg: list[np.ndarray], lam_hat: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray]]:
    """One block Gibbs sweep from a chain state whose hidden natural parameter
    lam_hat is already known."""
    h = sample(params.hidden_family, lam_hat, rng)
    gh = suff_stat(params.hidden_family, h)
    fv_next = [sample(cfg.family, _visible_shifted(params, wg, gh, k), rng)
               for k, cfg in enumerate(params.views)]
    return h, fv_next


def hidden_shifted_batch(params: HarmoniumParams, fv: list[np.ndarray]) -> np.ndarray:
    """Natural parameter of p(h | v), lam_hat = lam + sum_k sigma(s) W^k f(v^k),
    for a batch: (B, J). fv[k] is f(v) for view k, shape (B, D_k)."""
    return _hidden_shifted(params, gated_weights(params, gates(params)), fv)


def visible_shifted_batch(params: HarmoniumParams, gh: np.ndarray, k: int) -> np.ndarray:
    """Natural parameter of p(v^k | h), xi^k + sigma(s) W^k g(h), over a batch
    of hidden statistics gh, shape (B, J)."""
    return _visible_shifted(params, gated_weights(params, gates(params)), gh, k)


def posterior_hidden_mean_batch(params: HarmoniumParams, fv: list[np.ndarray]) -> np.ndarray:
    """B'(lam_hat): the per-unit conditional mean, (B, J), used as the feature vector."""
    return mean(params.hidden_family, hidden_shifted_batch(params, fv))


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
    total = np.sum(hidden_shifted_batch(params, fv) * gh, axis=1)
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


def _split_views(params: HarmoniumParams, flat: np.ndarray) -> list[np.ndarray]:
    out, pos = [], 0
    for cfg in params.views:
        out.append(flat[:, pos:pos + cfg.dim])
        pos += cfg.dim
    return out


def log_unnorm_marginal_batch(params: HarmoniumParams, fv: list[np.ndarray]) -> np.ndarray:
    """log sum_h p_tilde(v, h) for Bernoulli hidden units, shape (B,).

    The hidden sum factorizes: each unit contributes log(1 + exp(lam_hat_j)).
    """
    return _log_unnorm_marginal(params, fv, hidden_shifted_batch(params, fv))


def _log_unnorm_marginal(params: HarmoniumParams, fv: list[np.ndarray],
                         lam_hat: np.ndarray) -> np.ndarray:
    """`log_unnorm_marginal_batch` given lam_hat of the batch."""
    total = np.sum(np.logaddexp(0.0, lam_hat), axis=1)
    for k in range(params.num_views):
        total += fv[k] @ params.xi[k]
    return total


def exact_log_partition(params: HarmoniumParams) -> float:
    """log Z by enumerating every visible state (tiny Bernoulli models only)."""
    _check_enum_bounds(params)
    total_visible = sum(v.dim for v in params.views)
    states = enumerate_binary_states(total_visible)
    fv = _split_views(params, states)
    return float(logsumexp(log_unnorm_marginal_batch(params, fv)))


def exact_log_likelihood(params: HarmoniumParams, fv: list[np.ndarray]) -> float:
    """Mean over the rows of a batch of log p(v), by exact enumeration."""
    _check_enum_bounds(params)
    fv = check_views(params, fv)
    log_z = exact_log_partition(params)
    return float(np.mean(log_unnorm_marginal_batch(params, fv))) - log_z


def exact_visible_distribution(params: HarmoniumParams) -> tuple[np.ndarray, np.ndarray]:
    """All visible states and their exact probabilities p(v)."""
    fv, _, probs = _visible_distribution(params, gated_weights(params, gates(params)))
    return np.concatenate(fv, axis=1), probs


def _visible_distribution(params: HarmoniumParams, wg: list[np.ndarray]
                          ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Every visible state as per-view arrays, with its lam_hat and its exact
    probability p(v)."""
    _check_enum_bounds(params)
    fv = _split_views(params, enumerate_binary_states(sum(v.dim for v in params.views)))
    lam_hat = _hidden_shifted(params, wg, fv)
    logp = _log_unnorm_marginal(params, fv, lam_hat)
    logp -= logsumexp(logp)
    return fv, lam_hat, np.exp(logp)


def gibbs_step_batch(params: HarmoniumParams, fv: list[np.ndarray],
                     rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray]]:
    """One block Gibbs sweep for a batch: h ~ p(h|v), then v' ~ p(v|h)."""
    wg = gated_weights(params, gates(params))
    return _gibbs_step(params, wg, _hidden_shifted(params, wg, fv), rng)


# ---------------------------------------------------------------------------
# Structure report
# ---------------------------------------------------------------------------

@dataclass
class SwitchReport:
    threshold: float
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


def structure_report(params: HarmoniumParams, threshold: float = 0.5) -> SwitchReport:
    """Classify hidden units by gated connectivity.

    A unit is connected to a view iff its gate is strictly greater than the
    threshold, so untrained switches (gate exactly 0.5) count as unconnected.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    connected = gates(params) > threshold
    counts = connected.sum(axis=0)
    shared = [j for j in range(params.hidden_dim) if counts[j] >= 2]
    dead = [j for j in range(params.hidden_dim) if counts[j] == 0]
    specific = [[j for j in range(params.hidden_dim)
                 if counts[j] == 1 and connected[k, j]]
                for k in range(params.num_views)]
    return SwitchReport(threshold=threshold, connected=connected,
                        shared_units=shared, specific_units=specific,
                        dead_units=dead)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _params_to_dict(params: HarmoniumParams) -> dict:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "structure": {"kind": params.structure.kind.value},
        "views": [{"name": v.name, "dim": v.dim, "family": v.family.value}
                  for v in params.views],
        "hidden": {"dim": params.hidden_dim, "family": params.hidden_family.value},
        "arrays": {},
    }
    if params.structure.mask is not None:
        doc["structure"]["mask"] = params.structure.mask.astype(int).tolist()

    def put(name, arr):
        doc["arrays"][name] = {"shape": list(arr.shape),
                               "data": arr.ravel(order="C").tolist()}

    for k in range(params.num_views):
        put(f"W{k}", params.W[k])
        put(f"xi{k}", params.xi[k])
    put("lam", params.lam)
    put("s", params.s)
    return doc


class MissingKeyError(ValueError):
    """A JSON document (checkpoint, dataset manifest or config) lacks a key."""


class MalformedDocumentError(ValueError):
    """A JSON document (checkpoint or dataset manifest) holds a value of the
    wrong type."""


def require_key(doc, path: list, source: str):
    """doc[path[0]][path[1]]..., or a MissingKeyError that names the source
    file and the key path."""
    node = doc
    for i, key in enumerate(path):
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            where = "".join(f"[{k!r}]" for k in path[:i + 1])
            raise MissingKeyError(f"{source}: missing key {where}") from None
    return node


def _params_from_dict(doc: dict, source: str) -> HarmoniumParams:
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {version}")

    def get(*path):
        return require_key(doc, list(path), source)

    views = [ViewConfig(get("views", i, "name"), get("views", i, "dim"),
                        Family(get("views", i, "family")))
             for i in range(len(get("views")))]
    kind = StructureKind(get("structure", "kind"))
    mask = get("structure").get("mask")
    structure = StructureMode(kind, None if mask is None else np.asarray(mask, dtype=bool))

    def array(name):
        return np.asarray(get("arrays", name, "data"), dtype=np.float64).reshape(
            get("arrays", name, "shape"))

    return HarmoniumParams(
        views=views,
        hidden_dim=get("hidden", "dim"),
        hidden_family=Family(get("hidden", "family")),
        W=[array(f"W{k}") for k in range(len(views))],
        xi=[array(f"xi{k}") for k in range(len(views))],
        lam=array("lam"),
        s=array("s"),
        structure=structure,
    )


def save_checkpoint(params: HarmoniumParams, path: str) -> None:
    """Write a checkpoint atomically (temp file + rename).

    JSON float serialization uses shortest round-trip repr, so finite doubles
    survive save/load bit-exactly.
    """
    doc = _params_to_dict(params)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> HarmoniumParams:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return _params_from_dict(doc, path)
    except TypeError as exc:
        raise MalformedDocumentError(f"{path}: malformed checkpoint: {exc}") from None
