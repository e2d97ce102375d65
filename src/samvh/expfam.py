"""Exponential-family node distributions used by visible and hidden layers.

Each family is described by its sufficient statistic (identity for both
implemented families), log-partition function, mean map (the derivative of
the log-partition), and a sampler. All functions accept scalars or numpy
arrays and operate elementwise. `sigmoid`, built from numpy's vectorised
exp, is the package's one sigmoid: Bernoulli means and draws, switch gates.
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


def _check_finite(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=np.float64)
    if not np.isfinite(eta).all():
        raise NonFiniteError("natural parameter must be finite")
    return eta


def suff_stat(family: Family, x):
    """Sufficient statistic f(x). Identity for both families.

    Raises DomainError if a Bernoulli value is not in {0, 1}.
    """
    x = np.asarray(x, dtype=np.float64)
    if family is Family.BERNOULLI and not ((x == 0.0) | (x == 1.0)).all():
        raise DomainError("Bernoulli support is {0, 1}")
    return x if x.ndim else float(x)


def sigmoid(x, out=None) -> np.ndarray:
    """1 / (1 + exp(-x)) as a new float64 array (0-d for a scalar), or in
    out, which may be x. Below x ~ -709.8 it is exactly 0, with no warning."""
    out = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
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


def sample_from_mean(family: Family, mu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`sample` given mu = `mean(family, eta)` of a checked eta; mu is not checked."""
    if family is Family.BERNOULLI:
        return (rng.random(size=mu.shape) < mu).astype(np.float64)
    return mu + rng.standard_normal(size=mu.shape)
