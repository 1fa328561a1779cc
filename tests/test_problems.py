import math

import numpy as np
import pytest

from sgdvar import problems
from sgdvar.problems import (
    DataError,
    Observation,
    RandomSource,
    Singularity,
    csv_stream,
    logistic_gradient,
    logistic_hessian,
    logistic_sampler,
    quantile_direction,
    quantile_gradient,
    sphere_sampler,
)


def loss_logistic(x, y, h):
    # log(1 + exp(-y <x, h>)) evaluated stably for the finite-difference checks
    t = y * float(np.dot(x, h))
    if t > 0:
        return math.log1p(math.exp(-t))
    return -t + math.log1p(math.exp(t))


def test_logistic_gradient_at_zero():
    obs = Observation(np.array([1.0, -2.0]), 1)
    assert np.allclose(logistic_gradient(obs, np.zeros(2)), [-0.5, 1.0])
    obs = Observation(np.array([1.0, 0.0]), -1)
    assert np.allclose(logistic_gradient(obs, np.zeros(2)), [0.5, 0.0])


def test_logistic_gradient_large_margin_multiplier():
    # multiplier exp(-20)/(1+exp(-20)), frozen from extended precision
    obs = Observation(np.array([1.0, 0.0]), 1)
    h = np.array([20.0, 0.0])
    grad = logistic_gradient(obs, h)
    assert grad[0] == pytest.approx(-2.0611536181902037e-09, rel=1e-12)
    # no overflow at margins up to 1e3
    h = np.array([-1000.0, 0.0])
    grad = logistic_gradient(obs, h)
    assert np.isfinite(grad).all()
    assert grad[0] == pytest.approx(-1.0)


def test_logistic_ops_require_label():
    obs = Observation(np.array([1.0]))
    with pytest.raises(ValueError):
        logistic_gradient(obs, np.zeros(1))
    with pytest.raises(ValueError):
        logistic_hessian(obs, np.zeros(1))


def test_logistic_hessian_values():
    obs = Observation(np.array([2.0, 0.0]), 1)
    hess = logistic_hessian(obs, np.zeros(2))
    assert np.allclose(hess, [[1.0, 0.0], [0.0, 0.0]])
    # multiplier exp(-20)/(1+exp(-20))**2, frozen from extended precision,
    # and symmetric in the sign of the margin
    x = Observation(np.array([1.0]), 1)
    up = logistic_hessian(x, np.array([20.0]))[0, 0]
    down = logistic_hessian(x, np.array([-20.0]))[0, 0]
    assert up == pytest.approx(2.061153613941849e-09, rel=1e-12)
    assert up == down


def test_logistic_gradient_matches_finite_differences():
    gen = np.random.default_rng(2024)
    for _ in range(20):
        d = int(gen.integers(2, 6))
        x = gen.normal(size=d)
        y = int(gen.choice([-1, 1]))
        h = gen.normal(size=d)
        obs = Observation(x, y)
        grad = logistic_gradient(obs, h)
        eps = 1e-5 * (1.0 + float(np.linalg.norm(h)))
        for i in range(d):
            e = np.zeros(d)
            e[i] = eps
            fd = (loss_logistic(x, y, h + e) - loss_logistic(x, y, h - e)) / (2 * eps)
            assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-9)


def test_logistic_hessian_matches_gradient_differences():
    gen = np.random.default_rng(7)
    for _ in range(10):
        d = int(gen.integers(2, 5))
        x = gen.normal(size=d)
        obs = Observation(x, int(gen.choice([-1, 1])))
        h = gen.normal(size=d)
        hess = logistic_hessian(obs, h)
        eps = 1e-5 * (1.0 + float(np.linalg.norm(h)))
        for i in range(d):
            e = np.zeros(d)
            e[i] = eps
            fd = (logistic_gradient(obs, h + e) - logistic_gradient(obs, h - e)) / (2 * eps)
            assert np.allclose(fd, hess[:, i], rtol=1e-5, atol=1e-8)


def test_quantile_gradient_examples():
    obs = Observation(np.array([3.0, 4.0]))
    assert np.allclose(quantile_gradient(obs, np.zeros(2)), [-0.6, -0.8])
    v = quantile_direction([0.3, -0.2])
    grad = quantile_gradient(obs, np.zeros(2), v)
    assert np.allclose(grad, [-0.9, -0.6])
    assert np.linalg.norm(grad) <= 1.0 + np.linalg.norm(v)
    with pytest.raises(Singularity):
        quantile_gradient(Observation(np.array([1.0, 1.0])), np.array([1.0, 1.0]))


def test_quantile_gradient_norm_bound():
    gen = np.random.default_rng(3)
    v = quantile_direction(gen.uniform(-0.4, 0.4, size=3))
    for _ in range(50):
        obs = Observation(gen.normal(size=3))
        grad = quantile_gradient(obs, gen.normal(size=3), v)
        assert np.linalg.norm(grad) < 2.0


def test_quantile_gradient_matches_finite_differences():
    # objective ||x - h|| - <h, v> away from the singularity
    gen = np.random.default_rng(11)
    v = quantile_direction([0.2, -0.1, 0.25])
    for _ in range(20):
        x = gen.normal(size=3)
        h = gen.normal(size=3)
        if np.linalg.norm(x - h) < 0.1:
            continue
        grad = quantile_gradient(Observation(x), h, v)
        eps = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            fd = (
                np.linalg.norm(x - h - e) - float(np.dot(h + e, v))
                - np.linalg.norm(x - h + e) + float(np.dot(h - e, v))
            ) / (2 * eps)
            assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-8)


def test_quantile_direction_validation():
    with pytest.raises(ValueError):
        quantile_direction([1.0, 0.0])
    with pytest.raises(ValueError):
        quantile_direction([np.nan])
    assert np.allclose(quantile_direction([0.5, 0.5]), [0.5, 0.5])


def test_sphere_sampler_rejects_low_dimension():
    with pytest.raises(ValueError):
        next(sphere_sampler(2, seed=0))


def test_sphere_sampler_statistics():
    gen = sphere_sampler(10, seed=1)
    pts = np.array([next(gen).features for _ in range(100000)])
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    assert np.abs(pts.mean(axis=0)).max() < 5e-3
    second = pts.T @ pts / len(pts)
    assert np.abs(second - np.eye(10) / 10.0).max() < 0.01
    off_diag = second - np.diag(np.diag(second))
    assert np.abs(off_diag).max() < 0.01


def test_sphere_sampler_deterministic():
    a = np.array([next(sphere_sampler(6, seed=42)).features for _ in range(100)])
    b = np.array([next(sphere_sampler(6, seed=42)).features for _ in range(100)])
    c = np.array([next(sphere_sampler(6, seed=42, path=(1,))).features for _ in range(100)])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_logistic_sampler_fair_coin_at_zero():
    gen = logistic_sampler(np.zeros(3), seed=5)
    labels = [next(gen).label for _ in range(100000)]
    assert set(labels) == {-1, 1}
    assert abs(sum(l == 1 for l in labels) / len(labels) - 0.5) < 0.01


def test_logistic_sampler_strong_signal_follows_margin_sign():
    gen = logistic_sampler(np.full(3, 30.0), seed=9)
    agree = 0
    for _ in range(2000):
        obs = next(gen)
        margin = float(np.dot(obs.features, np.full(3, 30.0)))
        agree += (obs.label == 1) == (margin > 0)
    assert agree >= 1980


def test_logistic_sampler_uniform_cube_bounds():
    gen = logistic_sampler(np.zeros(4), feature_law="uniform_cube", seed=2)
    pts = np.array([next(gen).features for _ in range(2000)])
    assert np.abs(pts).max() <= 1.0
    assert np.abs(pts.mean(axis=0)).max() < 0.05
    with pytest.raises(ValueError):
        next(logistic_sampler(np.zeros(2), feature_law="gaussian", seed=0))


def test_logistic_sampler_deterministic():
    a = [next(logistic_sampler(np.ones(2), seed=3)) for _ in range(50)]
    b = [next(logistic_sampler(np.ones(2), seed=3)) for _ in range(50)]
    assert all(np.array_equal(x.features, y.features) and x.label == y.label
               for x, y in zip(a, b))


def test_random_source_block_boundaries():
    # the normal stream does not depend on how requests are partitioned
    whole = RandomSource(77).normals(1300)
    source = RandomSource(77)
    pieces = np.concatenate([source.normals(7), source.normals(500), source.normals(793)])
    assert np.array_equal(whole, pieces)


def test_csv_stream_basic(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,0.5,-0.2\n-1,0.1,0.9\n", encoding="utf-8")
    obs = list(csv_stream(path, label_column=0))
    assert len(obs) == 2
    assert obs[0].label == 1 and obs[1].label == -1
    assert np.allclose(obs[0].features, [0.5, -0.2])
    assert np.allclose(obs[1].features, [0.1, 0.9])


def test_csv_stream_unlabeled_and_column_selection(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.5,1.5,-1\n", encoding="utf-8")
    obs = list(csv_stream(path))
    assert obs[0].label is None and obs[0].features.shape == (3,)
    obs = list(csv_stream(path, label_column=2))
    assert obs[0].label == -1
    assert np.array_equal(obs[0].features, [0.5, 1.5])


def test_csv_stream_header_and_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("label,a,b\n1,0.5,-0.2\n\n-1,0.1,0.9\n", encoding="utf-8")
    obs = list(csv_stream(path, label_column=0, has_header=True))
    assert len(obs) == 2


def test_csv_stream_errors_name_the_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,NaN,0.2\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        list(csv_stream(path, label_column=0))
    path.write_text("1,0.5,0.2\n1,oops,0.2\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        list(csv_stream(path, label_column=0))
    path.write_text("1,0.5,0.2\n-1,0.1\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        list(csv_stream(path, label_column=0))
    path.write_text("2,0.5,0.2\n", encoding="utf-8")
    with pytest.raises(DataError, match="invalid label"):
        list(csv_stream(path, label_column=0))
    path.write_text("1,0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match="no column"):
        list(csv_stream(path, label_column=5))
    with pytest.raises(DataError, match="no column -1"):
        list(csv_stream(path, label_column=-1))


def test_csv_stream_empty_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("", encoding="utf-8")
    assert list(csv_stream(path)) == []


def test_csv_stream_zero_one_remap(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0,0.5\n1,0.6\n", encoding="utf-8")
    obs = list(csv_stream(path, label_column=0, remap_zero_one=True))
    assert [o.label for o in obs] == [-1, 1]
    with pytest.raises(DataError, match="invalid label"):
        list(csv_stream(path, label_column=0))


def test_generator_name_is_pinned():
    # recorded in run metadata; changing it silently would break
    # reproducibility claims
    assert problems.GENERATOR == "philox4x64+box-muller-512"
