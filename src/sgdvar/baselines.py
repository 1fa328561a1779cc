"""Reference and competitor covariance estimators.

batch_sigma evaluates the full reweighted double sum over a stored
trajectory exactly as written, in O(n^2); it exists as an independent
oracle for the streaming recursion, not as a production path. The other
three are the classical alternatives it is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schedule
from .schedule import StepParams


class SingularHessian(ValueError):
    """The averaged Hessian cannot be inverted without regularization."""


@dataclass
class Trajectory:
    """Stored iterate path: iterates[k] and the running means averages[k]."""

    iterates: np.ndarray
    averages: np.ndarray

    @classmethod
    def from_iterates(cls, iterates) -> "Trajectory":
        arr = np.asarray(iterates, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        counts = np.arange(1, arr.shape[0] + 1, dtype=float)[:, None]
        return cls(arr.copy(), np.cumsum(arr, axis=0) / counts)


def _check(traj: Trajectory) -> tuple[int, int]:
    n, d = traj.iterates.shape
    if traj.averages.shape != (n, d):
        raise ValueError("iterates and averages must have matching shape")
    if n < 1:
        raise ValueError("trajectory is empty")
    return n, d


def batch_sigma(traj: Trajectory, params: StepParams) -> np.ndarray:
    """Literal batch form of the covariance estimator.

    For each k the inner sum re-accumulates every past residual
    iterates[j] - averages[j] with weight exp(log_weight(j) - log_weight(k)),
    ascending in j; the outer prefactor combines the remaining
    exponentials of the k-th term in log-domain before exponentiating.
    """
    schedule.validate(params)
    _check(traj)
    return _reweighted_sum(traj.iterates - traj.averages, params)


def nonrecursive_sigma(traj: Trajectory, params: StepParams) -> np.ndarray:
    """Variant of batch_sigma anchored at the final average.

    Identical weighting, but every residual is taken against averages[n-1]
    instead of the running average alive at time j.
    """
    schedule.validate(params)
    _check(traj)
    return _reweighted_sum(traj.iterates - traj.averages[-1], params)


def _reweighted_sum(diffs: np.ndarray, params: StepParams) -> np.ndarray:
    """The reweighted double sum of batch_sigma over the residual rows diffs."""
    n, d = diffs.shape
    lw = np.array([schedule.log_weight(k, params) for k in range(1, n + 1)])
    one_minus_s = 1.0 - params.s
    power = params.delta + params.s + params.mu
    total = np.zeros((d, d))
    for k in range(1, n + 1):
        rel = np.exp(lw[:k] - lw[k - 1])
        inner = rel @ diffs[:k]
        log_pref = (
            -power * math.log(k)
            - float(k) ** one_minus_s / one_minus_s
            + 2.0 * lw[k - 1]
        )
        total += math.exp(log_pref) * np.outer(inner, inner)
    return (1.0 - params.delta) * float(n) ** -(1.0 - params.delta) * total


def pelletier_sigma(traj: Trajectory) -> np.ndarray:
    """Log-normalized scatter of the iterates about the final average."""
    n, _ = _check(traj)
    if n < 2:
        raise ValueError("log-window estimator requires at least 2 iterates")
    centered = traj.iterates - traj.averages[-1]
    scatter = centered.T @ centered / math.log(n)
    return 0.5 * (scatter + scatter.T)


def plugin_sandwich(gradient, hessian, data, h_ref, ridge: float | None = None) -> np.ndarray:
    """Naive sandwich estimate from empirical Hessian and gradient covariance.

    gradient(obs, h) and hessian(obs, h) are the per-sample oracles.
    Averages the per-sample Hessian and gradient outer products at h_ref,
    then applies the inverse Hessian on both sides through symmetric
    solves (no explicit inverse). ridge defaults to 1e-8 * trace / d; pass
    ridge=0 to fail on a singular Hessian instead.
    """
    h_ref = np.asarray(h_ref, dtype=float)
    d = h_ref.shape[0]
    gamma_hat = np.zeros((d, d))
    grad_cov = np.zeros((d, d))
    count = 0
    for obs in data:
        gamma_hat += hessian(obs, h_ref)
        grad = gradient(obs, h_ref)
        grad_cov += np.outer(grad, grad)
        count += 1
    if count == 0:
        raise ValueError("plugin sandwich requires at least one observation")
    gamma_hat /= count
    grad_cov /= count
    if ridge is None:
        ridge = 1e-8 * float(np.trace(gamma_hat)) / d
    regularized = gamma_hat + ridge * np.eye(d)
    try:
        half = np.linalg.solve(regularized, grad_cov)
        sandwich = np.linalg.solve(regularized, half.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularHessian(
            "averaged hessian is singular; pass a positive ridge"
        ) from exc
    return 0.5 * (sandwich + sandwich.T)
