import math
import statistics

import numpy as np
import pytest

from sgdvar import analysis, estimator
from sgdvar.analysis import (
    chi_square_quantile,
    confidence_ball,
    confidence_region,
    frobenius_error,
    ks_normal,
    normalize_average,
    normalize_iterate,
    sphere_references,
)
from sgdvar.problems import RandomSource
from sgdvar.schedule import StepParams


def test_sphere_references_closed_forms():
    refs = sphere_references(3)
    assert np.allclose(refs.hessian, (2.0 / 3.0) * np.eye(3), rtol=1e-15)
    refs = sphere_references(10)
    assert np.allclose(refs.average_covariance, (10.0 / 81.0) * np.eye(10), rtol=1e-15)
    assert np.allclose(refs.iterate_covariance, np.eye(10) / 18.0, rtol=1e-15)
    assert np.allclose(refs.gradient_covariance, np.eye(10) / 10.0, rtol=1e-15)
    with pytest.raises(ValueError):
        sphere_references(2)


@pytest.mark.parametrize("d", [3, 4, 10, 25])
def test_sphere_references_sandwich_identity(d):
    refs = sphere_references(d)
    inv_h = np.linalg.inv(refs.hessian)
    sandwich = inv_h @ refs.gradient_covariance @ inv_h
    rel = np.linalg.norm(sandwich - refs.average_covariance)
    rel /= np.linalg.norm(refs.average_covariance)
    assert rel < 1e-14


def test_normalize_iterate_values():
    params = StepParams()
    truth = np.zeros(10)
    point = truth.copy()
    point[0] = 0.01
    out = normalize_iterate(point, truth, 1000, 10, params)
    # sqrt(18) * 10 * 0.01, frozen from extended-precision arithmetic
    assert out[0] == pytest.approx(0.4242640687119285, rel=1e-14)
    assert not out[1:].any()
    assert not normalize_iterate(truth, truth, 1000, 10, params).any()
    # n -> 8n doubles the factor
    big = normalize_iterate(point, truth, 8000, 10, params)
    assert big[0] == pytest.approx(2.0 * out[0], rel=1e-12)


def test_normalize_iterate_refuses_other_schedules():
    with pytest.raises(ValueError):
        normalize_iterate(np.zeros(3), np.zeros(3), 10, 3, StepParams(alpha=0.75))
    with pytest.raises(ValueError):
        normalize_iterate(np.zeros(3), np.zeros(3), 10, 3, StepParams(c_gamma=2.0))


def test_normalize_average_values():
    truth = np.zeros(10)
    point = truth.copy()
    point[1] = 0.05
    out = normalize_average(point, truth, 400, 10)
    # 20 * (9/sqrt(10)) * 0.05, frozen from extended-precision arithmetic
    assert out[1] == pytest.approx(2.8460498941515414, rel=1e-14)
    quadrupled = normalize_average(point, truth, 1600, 10)
    assert quadrupled[1] == pytest.approx(2.0 * out[1], rel=1e-12)


def test_normalize_average_is_linear():
    gen = np.random.default_rng(4)
    a = gen.normal(size=5)
    b = gen.normal(size=5)
    truth = np.zeros(5)
    left = normalize_average(2.0 * a + b, truth, 123, 5)
    right = 2.0 * normalize_average(a, truth, 123, 5) + normalize_average(b, truth, 123, 5)
    assert np.allclose(left, right, rtol=1e-12)


def test_ks_single_point():
    result = ks_normal([0.0])
    assert result.statistic == pytest.approx(0.5, rel=1e-15)
    assert result.sample_size == 1


def test_ks_perfect_scores():
    n = 100
    scores = [statistics.NormalDist().inv_cdf((i - 0.5) / n) for i in range(1, n + 1)]
    result = ks_normal(scores)
    assert result.statistic == pytest.approx(0.5 / n, rel=1e-9)
    assert result.p_value > 0.999


def test_ks_statistic_bounds_and_shift_monotonicity():
    gen = np.random.default_rng(15)
    samples = gen.normal(size=200)
    base = ks_normal(samples)
    shifted = ks_normal(samples + 10.0)
    assert 0.0 <= base.statistic <= 1.0
    assert shifted.statistic > base.statistic
    assert shifted.statistic > 0.99
    assert shifted.p_value < 1e-10


def test_ks_errors():
    with pytest.raises(ValueError):
        ks_normal([])
    with pytest.raises(ValueError):
        ks_normal([np.nan])


def test_ks_p_value_calibrated_under_the_null():
    fails = 0
    for seed in range(100):
        draws = RandomSource(seed).normals(2000)
        if ks_normal(draws).p_value < 0.05:
            fails += 1
    assert fails <= 10


def test_kolmogorov_p_matches_reference_points():
    # frozen from an independent evaluation of the Kolmogorov distribution
    assert analysis._kolmogorov_p(1.0) == pytest.approx(0.26999967167735456, abs=1e-10)
    assert analysis._kolmogorov_p(0.5) == pytest.approx(0.9639452436648751, abs=1e-10)
    assert analysis._kolmogorov_p(2.0) == pytest.approx(0.0006709252557796953, abs=1e-12)
    assert analysis._kolmogorov_p(0.05) == 1.0


def test_frobenius_error_values():
    assert frobenius_error(np.eye(3), np.eye(3)) == 0.0
    assert frobenius_error(2 * np.eye(3), np.eye(3)) == pytest.approx(math.sqrt(3.0))
    est = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert frobenius_error(est, np.zeros((2, 2))) == pytest.approx(math.sqrt(10.0))
    with pytest.raises(ValueError):
        frobenius_error(np.eye(2), np.eye(3))


def test_chi_square_quantile_against_table():
    # frozen from an independent high-accuracy quantile evaluation
    table = [
        (1, 0.95, 3.841458820694124),
        (2, 0.99, 9.21034037197618),
        (5, 0.95, 11.070497693516351),
        (10, 0.90, 15.987179172105265),
        (10, 0.99, 23.209251158954356),
        (5, 0.05, 1.1454762260617692),
        (1, 0.50, 0.454936423119572),
        (50, 0.975, 71.42019518750642),
    ]
    for dof, level, expected in table:
        assert chi_square_quantile(level, dof) == pytest.approx(expected, abs=1e-6)
    with pytest.raises(ValueError):
        chi_square_quantile(1.0, 3)
    with pytest.raises(ValueError):
        chi_square_quantile(0.95, 0)
    for dof in (1, 2):  # 1 - 1e-17 rounds to 1: no tail to bisect against
        with pytest.raises(ValueError, match="level"):
            chi_square_quantile(1e-17, dof)


def test_chi_square_quantile_inverts_the_cdf():
    for dof in (1, 4, 9, 30):
        for level in (0.01, 0.3, 0.5, 0.9, 0.999):
            x = chi_square_quantile(level, dof)
            assert 1.0 - analysis._chi_square_sf(x, dof) == pytest.approx(level, abs=1e-10)


def test_chi_square_quantile_closed_forms():
    # dof 2 is exponential with mean 2, dof 1 the square of a standard normal;
    # below 1e-3 a level is held to 1e-15 / level, as the lower tail is 1 - sf
    for level in (1e-15, 1e-10, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                  0.95, 0.99, 0.999):
        rel = max(1e-12, 1e-15 / level)
        two = -2.0 * math.log1p(-level)
        assert abs(chi_square_quantile(level, 2) - two) <= rel * two, level
        one = statistics.NormalDist().inv_cdf((1.0 + level) / 2.0) ** 2
        assert abs(chi_square_quantile(level, 1) - one) <= rel * one, level


def test_chi_square_quantile_rejects_non_integer_dof():
    for dof in (2.5, 0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive integer"):
            chi_square_quantile(0.95, dof)
    assert chi_square_quantile(0.95, 3.0) == chi_square_quantile(0.95, 3)


def test_chi_square_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    levels = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    for dof in [*range(1, 31), 50, 100, 200, 500, 1000, 2000, 5000]:
        for level in levels:
            expected = stats.chi2.ppf(level, dof)
            got = chi_square_quantile.__wrapped__(level, dof)
            assert abs(got - expected) <= 1e-10 * expected, (dof, level)


def test_kolmogorov_tail_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    switch = 1.18  # _kolmogorov_p changes series here
    lams = [*np.linspace(0.05, 3.0, 296), np.nextafter(switch, 0.0), switch,
            np.nextafter(switch, 2.0), switch - 1e-6, switch + 1e-6]
    for lam in lams:
        assert abs(analysis._kolmogorov_p(float(lam)) - stats.kstwobign.sf(lam)) <= 1e-12, lam


def test_confidence_ball_unit_quadratic_form():
    n = 400
    center = np.array([1.0, 2.0, 3.0])
    ball = confidence_region(center, np.eye(3), n, level=0.95, ridge=0.0)
    point = center + np.array([1.0, 0.0, 0.0]) / math.sqrt(n)
    assert ball.statistic(point) == pytest.approx(1.0, rel=1e-12)
    assert ball.test(center)
    assert ball.statistic(center) == 0.0
    assert ball.mahalanobis_radius == pytest.approx(
        math.sqrt(chi_square_quantile(0.95, 3) / n))


def test_confidence_ball_level_one_dim_quantile():
    ball = confidence_region([0.0], [[1.0]], 100, level=0.95, ridge=0.0)
    assert ball.quantile == pytest.approx(3.841459, abs=1e-6)


def test_confidence_ball_translation_invariance():
    gen = np.random.default_rng(8)
    sigma = np.eye(2) + 0.3 * np.ones((2, 2))
    center = np.array([0.5, -0.5])
    ball = confidence_region(center, sigma, 250, level=0.9, ridge=0.0)
    shift = gen.normal(size=2)
    shifted_ball = confidence_region(center + shift, sigma, 250, level=0.9, ridge=0.0)
    for _ in range(20):
        point = gen.normal(size=2)
        assert ball.test(point) == shifted_ball.test(point + shift)


def test_confidence_ball_spherical_variant_is_conservative():
    sigma = np.diag([2.0, 0.5])
    ellipsoid = confidence_region(np.zeros(2), sigma, 100, level=0.95, ridge=0.0)
    sphere = confidence_region(np.zeros(2), sigma, 100, level=0.95, ridge=0.0, spherical=True)
    assert sphere.spherical_radius == pytest.approx(
        math.sqrt(ellipsoid.quantile * 2.0 / 100.0))
    gen = np.random.default_rng(17)
    for _ in range(100):
        point = 0.3 * gen.normal(size=2)
        if ellipsoid.test(point):
            assert sphere.test(point)


def test_confidence_ball_zero_sigma_requires_ridge():
    state = estimator.init(np.zeros(2), StepParams())
    with pytest.raises(ValueError):
        confidence_ball(state, ridge=0.0)
    ball = confidence_ball(state, ridge=1e-6)
    assert ball.test(np.zeros(2))


@pytest.mark.parametrize("spherical", [False, True])
def test_confidence_region_leaves_its_covariance_unchanged(spherical):
    gen = np.random.default_rng(23)
    root = gen.normal(size=(4, 4))
    sigma = root @ root.T
    before = sigma.tobytes()
    region = confidence_region(np.zeros(4), sigma, 50, ridge=0.5, spherical=spherical)
    assert sigma.tobytes() == before
    assert region.test(np.zeros(4))


def test_confidence_ball_is_the_region_of_the_state():
    gen = np.random.default_rng(4)
    state = estimator.init(np.zeros(3), StepParams())
    for _ in range(57):
        estimator.step(state, gen.normal(size=3))
    ball = confidence_ball(state, level=0.9)
    region = confidence_region(state.average, state.covariance, state.n, level=0.9)
    assert ball.center.tobytes() == region.center.tobytes()
    assert ball._chol.tobytes() == region._chol.tobytes()
    assert ball.quantile == region.quantile
    assert ball._n == region._n == state.n == 58
