import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdvar import schedule
from sgdvar.schedule import ConstraintViolation, StepParams


def log_weight_sq_sum(n: int, params: StepParams) -> float:
    """Log of sum_{k<=n} weight(k)^2, accumulated with log-sum-exp in O(n)."""
    total = 2.0 * schedule.log_weight(1, params)
    for k in range(2, n + 1):
        term = 2.0 * schedule.log_weight(k, params)
        high, low = (total, term) if total >= term else (term, total)
        total = high + math.log1p(math.exp(low - high))
    return total


def test_defaults_are_valid():
    params = StepParams()
    assert schedule.validate(params) is params
    assert params.c_gamma == 1.0
    assert params.alpha == pytest.approx(2.0 / 3.0)


def test_validate_examples():
    schedule.validate(StepParams(1.0, 2.0 / 3.0, 0.9, 0.7, 0.0))
    with pytest.raises(ConstraintViolation, match="s must"):
        schedule.validate(StepParams(1.0, 2.0 / 3.0, 0.8, 0.7, 0.0))
    with pytest.raises(ConstraintViolation, match="delta must"):
        schedule.validate(StepParams(1.0, 2.0 / 3.0, 0.9, 0.4, 0.0))
    with pytest.raises(ConstraintViolation, match="c_gamma"):
        schedule.validate(StepParams(0.0, 2.0 / 3.0, 0.9, 0.7, 0.0))
    with pytest.raises(ConstraintViolation, match="alpha"):
        schedule.validate(StepParams(1.0, 0.5, 0.9, 0.7, 0.0))
    with pytest.raises(ConstraintViolation, match="mu"):
        schedule.validate(StepParams(1.0, 2.0 / 3.0, 0.9, 0.7, -0.1))


def test_validate_rejects_boundaries():
    # strict inequalities: band edges are invalid (dyadic values, exact in floats)
    with pytest.raises(ConstraintViolation):
        schedule.validate(StepParams(1.0, 0.75, 0.875, 0.7, 0.0))
    with pytest.raises(ConstraintViolation):
        schedule.validate(StepParams(1.0, 0.75, 0.9375, 0.46875, 0.0))
    with pytest.raises(ConstraintViolation):
        schedule.validate(StepParams(1.0, 0.75, 0.9375, 0.96875, 0.0))
    with pytest.raises(ConstraintViolation):
        schedule.validate(StepParams(1.0, 1.0, 0.99, 0.7, 0.0))


def test_validate_matches_direct_inequalities():
    # sweep ~10^4 tuples against an independent check of the region
    c_grid = [-1.0, 0.0, 0.5, 2.0]
    a_grid = np.linspace(0.3, 1.1, 9)
    s_grid = np.linspace(0.6, 1.05, 10)
    d_grid = np.linspace(0.2, 1.05, 10)
    mu_grid = [-0.5, 0.0, 1.5]
    checked = 0
    for c in c_grid:
        for a in a_grid:
            for s in s_grid:
                for d in d_grid:
                    for mu in mu_grid:
                        params = StepParams(c, float(a), float(s), float(d), mu)
                        expected = (
                            c > 0 and 0.5 < a < 1.0 and (1 + a) / 2 < s < 1.0
                            and s / 2 < d < (1 + s) / 2 and mu >= 0
                        )
                        if expected:
                            assert schedule.validate(params) is params
                        else:
                            with pytest.raises(ConstraintViolation):
                                schedule.validate(params)
                        checked += 1
    assert checked == 10800


def test_step_size_values():
    assert schedule.step_size(1, StepParams()) == 1.0
    # 2 * 5**(-2/3) and 8**(-3/4), frozen from extended-precision evaluation
    assert schedule.step_size(5, StepParams(c_gamma=2.0)) == pytest.approx(
        0.6839903786706788, rel=1e-15)
    assert schedule.step_size(8, StepParams(alpha=0.75)) == pytest.approx(
        0.21022410381342864, rel=1e-15)


def test_step_size_strictly_decreasing():
    params = StepParams(c_gamma=1.7, alpha=0.51)
    grid = np.unique(np.geomspace(1, 10**6, 400).astype(int))
    values = [schedule.step_size(int(n), params) for n in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_log_weight_values():
    assert schedule.log_weight(1, StepParams()) == pytest.approx(5.0, rel=1e-15)
    # 1024**0.1 == 2 exactly in the exponent arithmetic
    assert schedule.log_weight(1024, StepParams()) == pytest.approx(10.0, rel=1e-14)
    # frozen from extended-precision evaluation of 100**0.1/0.2 + ln 100
    assert schedule.log_weight(100, StepParams(mu=2.0)) == pytest.approx(
        12.529636148293659, rel=1e-15)


def test_decay_ratio_values():
    # exp(-(2**0.1 - 1)/0.2) and exp(-(1024**0.1 - 1023**0.1)/0.2), frozen
    # from extended-precision evaluation
    assert schedule.decay_ratio(1, StepParams()) == pytest.approx(
        0.6984670229196224, rel=1e-14)
    assert schedule.decay_ratio(1023, StepParams()) == pytest.approx(
        0.9990234851821602, rel=1e-14)


def test_decay_ratio_matches_log_weight_difference():
    # same quantity through the two code paths
    for params in (StepParams(), StepParams(s=0.97, mu=1.5), StepParams(s=0.86, mu=0.2)):
        for n in (1, 2, 17, 1000, 10**6):
            direct = math.exp(schedule.log_weight(n, params)
                              - schedule.log_weight(n + 1, params))
            assert schedule.decay_ratio(n, params) == pytest.approx(direct, rel=1e-12)


def test_decay_ratio_in_unit_interval_and_increasing():
    params = StepParams()
    grid = np.unique(np.geomspace(1, 10**6, 500).astype(int))
    values = [schedule.decay_ratio(int(n), params) for n in grid]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


@st.composite
def admissible_params(draw):
    """(alpha, s, delta) anywhere in the open admissible region, mu in [0, 5]."""
    alpha = draw(st.floats(0.5, 0.999, exclude_min=True))
    s = draw(st.floats((1.0 + alpha) / 2.0, 1.0, exclude_min=True, exclude_max=True))
    delta = draw(st.floats(s / 2.0, (1.0 + s) / 2.0, exclude_min=True, exclude_max=True))
    mu = draw(st.floats(0.0, 5.0))
    return schedule.validate(StepParams(1.0, alpha, s, delta, mu))


@settings(max_examples=200, deadline=None)
@given(admissible_params(), st.integers(1, 10**12))
def test_decay_ratio_stays_in_unit_interval(params, n):
    # the ratio rounds to 1.0 above n ~ 4e15 (exp(-1/(2n)) with s near 1),
    # so the property is stated up to 10**12
    assert 0.0 < schedule.decay_ratio(n, params) < 1.0


@pytest.mark.parametrize("s", [0.85, 0.9, 0.95])
def test_weight_square_sum_sandwich(s):
    # sum of squared weights stays within a constant factor of
    # n**s * exp(n**(1-s)/(1-s)) over the whole range
    params = StepParams(s=s)
    ns = np.arange(1, 10**5 + 1, dtype=float)
    log_sq = ns ** (1.0 - s) / (1.0 - s)  # 2 * log_weight with mu=0
    cumulative = np.logaddexp.accumulate(log_sq)
    envelope = s * np.log(ns) + ns ** (1.0 - s) / (1.0 - s)
    ratio = cumulative[9:] - envelope[9:]  # n >= 10
    assert ratio.max() <= math.log(10.0)
    assert ratio.min() >= math.log(0.1)
    # spot check the vectorized accumulation against the scalar helper
    assert log_weight_sq_sum(500, params) == pytest.approx(
        float(cumulative[499]), rel=1e-12)
