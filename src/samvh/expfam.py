"""Exponential-family node distributions used by visible and hidden layers.

Each family is described by its sufficient statistic (identity for both
implemented families), log-partition function, mean map (the derivative of
the log-partition), and a sampler. All functions accept scalars or numpy
arrays and operate elementwise. `sigmoid`, built from numpy's vectorised
exp, is the package's one sigmoid: Bernoulli means and draws, switch gates.
A float32 array stays float32 (the training chain's dtype); every other
input is computed in float64.
"""
from __future__ import annotations

from enum import Enum

import numpy as np


class Family(Enum):
    BERNOULLI = "bernoulli"
    GAUSSIAN_UNIT_VARIANCE = "gaussian_unit_variance"


class DomainError(ValueError):
    """Value outside the support of the family."""


class NonFiniteError(ValueError):
    """Natural parameter overflowed to inf or nan."""


def _float_dtype(x) -> type:
    """float32 for a float32 array or scalar, float64 for anything else."""
    return np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64


def _check_finite(eta) -> np.ndarray:
    if not (isinstance(eta, np.ndarray) and eta.dtype in (np.float32, np.float64)):
        eta = np.asarray(eta, dtype=_float_dtype(eta))
    if not np.isfinite(eta).all():
        raise NonFiniteError("natural parameter must be finite")
    return eta


def suff_stat(family: Family, x):
    """Sufficient statistic f(x), the identity for both families; float32
    stays float32. Raises DomainError if a Bernoulli value is not in {0, 1}.
    """
    x = np.asarray(x, dtype=_float_dtype(x))
    if family is Family.BERNOULLI and not ((x == 0.0) | (x == 1.0)).all():
        raise DomainError("Bernoulli support is {0, 1}")
    return x if x.ndim else float(x)


def sigmoid(x, out=None) -> np.ndarray:
    """1 / (1 + exp(-x)) as a new array (0-d for a scalar), float32 for a
    float32 x and float64 otherwise, or in out, which may be x. Below
    x ~ -709.8 (float32: ~ -88.7) it is exactly 0, with no warning."""
    out = np.negative(x, out=np.empty(np.shape(x), _float_dtype(x)) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def log_partition(family: Family, eta):
    """Log-partition A(eta), stable for |eta| up to ~700."""
    eta = _check_finite(eta)
    if family is Family.BERNOULLI:
        out = np.logaddexp(0.0, eta)
    else:
        out = 0.5 * eta * eta
    return out if out.ndim else float(out)


def mean(family: Family, eta, out=None):
    """Mean map A'(eta): sigmoid for Bernoulli, identity for Gaussian, as a
    new array, or written into out if one is given (out may be eta itself)."""
    eta = _check_finite(eta)
    if family is Family.BERNOULLI:
        out = sigmoid(eta, out=out)
    elif out is not eta:  # the identity needs no pass over eta's own buffer
        out = np.positive(eta, out=out)
    return out if out.ndim else float(out)


def sample(family: Family, eta, rng: np.random.Generator):
    """Draw one value per entry of eta. Deterministic given the rng state."""
    eta = _check_finite(eta)
    out = sample_from_mean(family, sigmoid(eta) if family is Family.BERNOULLI else eta, rng)
    return out if out.ndim else float(out)


def sample_from_mean(family: Family, mu: np.ndarray, rng: np.random.Generator,
                     out=None, draws=None) -> np.ndarray:
    """`sample` given mu = `mean(family, eta)` of a checked eta; mu is not
    checked. The draws take mu's dtype, or go into out (which may be mu); the
    rng stream (float64) does not, and fills the start of draws if given."""
    out = np.empty(mu.shape, mu.dtype) if out is None else out
    draws = None if draws is None else draws[:mu.size].reshape(mu.shape)
    if family is Family.BERNOULLI:
        return np.less(rng.random(size=mu.shape, out=draws), mu, out=out)
    return np.add(mu, rng.standard_normal(size=mu.shape, out=draws), out=out)
