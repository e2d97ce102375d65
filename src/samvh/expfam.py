"""Exponential-family node distributions used by visible and hidden layers.

Each family is described by its sufficient statistic (identity for both
implemented families), log-partition function, mean map (the derivative of
the log-partition), and a sampler. All functions accept scalars or numpy
arrays and operate elementwise.
"""
from __future__ import annotations

from enum import Enum

import numpy as np
from scipy.special import expit


class Family(Enum):
    BERNOULLI = "bernoulli"
    GAUSSIAN_UNIT_VARIANCE = "gaussian_unit_variance"


class DomainError(ValueError):
    """Value outside the support of the family."""


class NonFiniteError(ValueError):
    """Natural parameter overflowed to inf or nan."""


def _check_finite(eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=np.float64)
    if not np.all(np.isfinite(eta)):
        raise NonFiniteError("natural parameter must be finite")
    return eta


def suff_stat(family: Family, x):
    """Sufficient statistic f(x). Identity for both families.

    Raises DomainError if a Bernoulli value is not in {0, 1}.
    """
    x = np.asarray(x, dtype=np.float64)
    if family is Family.BERNOULLI and not np.all((x == 0.0) | (x == 1.0)):
        raise DomainError("Bernoulli support is {0, 1}")
    return x if x.ndim else float(x)


def log_partition(family: Family, eta):
    """Log-partition A(eta), stable for |eta| up to ~700."""
    eta = _check_finite(eta)
    if family is Family.BERNOULLI:
        out = np.logaddexp(0.0, eta)
    else:
        out = 0.5 * eta * eta
    return out if out.ndim else float(out)


def mean(family: Family, eta):
    """Mean map A'(eta): sigmoid for Bernoulli, identity for Gaussian."""
    eta = _check_finite(eta)
    out = expit(eta) if family is Family.BERNOULLI else eta
    return out if out.ndim else float(out)


def sample(family: Family, eta, rng: np.random.Generator):
    """Draw one value per entry of eta. Deterministic given the rng state."""
    eta = _check_finite(eta)
    if family is Family.BERNOULLI:
        p = expit(eta)
        out = (rng.random(size=eta.shape) < p).astype(np.float64)
    else:
        out = eta + rng.standard_normal(size=eta.shape)
    return out if out.ndim else float(out)
