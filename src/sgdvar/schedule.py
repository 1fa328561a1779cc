"""Step-size and weight schedules driving the averaged-SGD recursions.

All exponential weights live in log-domain: they grow like exp(n^(1-s))
and would overflow long before the streams of interest end, so callers
only ever see logarithms or ratios of consecutive weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConstraintViolation(ValueError):
    """A schedule parameter falls outside its admissible range."""


@dataclass(frozen=True)
class StepParams:
    """Exponents and scale of the step and weight sequences.

    c_gamma and alpha define the step size c_gamma * n**(-alpha); s, delta
    and mu shape the covariance estimator's weight and shrink sequences.
    """

    c_gamma: float = 1.0
    alpha: float = 2.0 / 3.0
    s: float = 0.9
    delta: float = 0.7
    mu: float = 0.0


def validate(params: StepParams) -> StepParams:
    """Return params unchanged if admissible, else raise ConstraintViolation.

    All inequalities are strict; boundary values are rejected.
    """
    c, a, s, d, mu = params.c_gamma, params.alpha, params.s, params.delta, params.mu
    if not c > 0:
        raise ConstraintViolation(f"c_gamma must satisfy c_gamma > 0, got {c}")
    if not 0.5 < a < 1.0:
        raise ConstraintViolation(f"alpha must satisfy 1/2 < alpha < 1, got {a}")
    if not (1.0 + a) / 2.0 < s < 1.0:
        raise ConstraintViolation(
            f"s must satisfy (1+alpha)/2 < s < 1, got s={s} with alpha={a}"
        )
    if not s / 2.0 < d < (1.0 + s) / 2.0:
        raise ConstraintViolation(
            f"delta must satisfy s/2 < delta < (1+s)/2, got delta={d} with s={s}"
        )
    if not mu >= 0:
        raise ConstraintViolation(f"mu must satisfy mu >= 0, got {mu}")
    return params


def step_size(n: int, params: StepParams) -> float:
    """Descent step c_gamma * n**(-alpha) for iterate index n >= 1."""
    return params.c_gamma * float(n) ** -params.alpha


def log_weight(n: int, params: StepParams) -> float:
    """Log of the covariance weight n^(mu/2) * exp(n^(1-s) / (2(1-s))).

    The weight itself is never materialized; consumers work with
    differences of log weights.
    """
    one_minus_s = 1.0 - params.s
    value = float(n) ** one_minus_s / (2.0 * one_minus_s)
    if params.mu != 0.0:
        value += 0.5 * params.mu * math.log(n)
    return value


def decay_ratio(n: int, params: StepParams) -> float:
    """Ratio weight(n) / weight(n+1), always in (0, 1).

    Computed from the log-weight difference written in a cancellation-free
    form: (n+1)^(1-s) - n^(1-s) = n^(1-s) * expm1((1-s) * log1p(1/n)), which
    stays accurate when the two weights are nearly equal at large n.
    """
    one_minus_s = 1.0 - params.s
    log_ratio = math.log1p(1.0 / n)
    growth = float(n) ** one_minus_s * math.expm1(one_minus_s * log_ratio)
    exponent = -growth / (2.0 * one_minus_s)
    if params.mu != 0.0:
        exponent -= 0.5 * params.mu * log_ratio
    return math.exp(exponent)
