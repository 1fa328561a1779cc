import numpy as np
import pytest

from sgdvar import baselines, estimator, problems
from sgdvar.baselines import (
    SingularHessian,
    Trajectory,
    batch_sigma,
    nonrecursive_sigma,
    pelletier_sigma,
    plugin_sandwich,
)
from sgdvar.problems import Observation, logistic_gradient, logistic_hessian
from sgdvar.schedule import ConstraintViolation, StepParams

from conftest import run_gradient_stream


def test_trajectory_from_iterates_running_means():
    traj = Trajectory.from_iterates([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
    assert np.allclose(traj.averages, [[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])


def test_batch_sigma_trivial_cases():
    constant = Trajectory.from_iterates(np.ones((6, 3)))
    assert not batch_sigma(constant, StepParams()).any()
    single = Trajectory.from_iterates(np.array([[2.0, -1.0]]))
    assert not batch_sigma(single, StepParams()).any()


def test_batch_sigma_rejects_invalid_params():
    traj = Trajectory.from_iterates(np.ones((4, 2)))
    with pytest.raises(ConstraintViolation):
        batch_sigma(traj, StepParams(s=0.2))


def test_batch_outputs_symmetric_psd():
    _, traj = run_gradient_stream(StepParams(), 150, 4, 8)
    for op in (batch_sigma, nonrecursive_sigma):
        matrix = op(traj, StepParams())
        assert np.array_equal(matrix, matrix.T)
        eig = np.linalg.eigvalsh(matrix)
        assert eig.min() >= -1e-12 * np.trace(matrix)
    matrix = pelletier_sigma(traj)
    assert np.array_equal(matrix, matrix.T)
    assert np.linalg.eigvalsh(matrix).min() >= -1e-12 * np.trace(matrix)


def test_nonrecursive_sigma_trivial_cases():
    constant = Trajectory.from_iterates(2.5 * np.ones((5, 2)))
    assert not nonrecursive_sigma(constant, StepParams()).any()
    single = Trajectory.from_iterates(np.array([[1.0]]))
    assert not nonrecursive_sigma(single, StepParams()).any()


def test_nonrecursive_close_to_batch_on_long_median_run():
    # the two anchorings agree as the average settles; modest tolerance
    # because this is an asymptotic statement at n=5000
    sampler = problems.sphere_sampler(10, seed=31)
    state = estimator.init(np.zeros(10), StepParams())
    iterates = [state.iterate.copy()]
    averages = [state.average.copy()]
    while state.n < 5000:
        obs = next(sampler)
        estimator.step(state, problems.quantile_gradient(obs, state.iterate))
        iterates.append(state.iterate.copy())
        averages.append(state.average.copy())
    traj = Trajectory(np.array(iterates), np.array(averages))
    batch = batch_sigma(traj, StepParams())
    anchored = nonrecursive_sigma(traj, StepParams())
    gap = np.linalg.norm(anchored - batch) / np.linalg.norm(batch)
    # loose scale agreement only: convergence of the anchored variant is slow
    assert gap < 0.5


def test_pelletier_sigma_values():
    assert not pelletier_sigma(Trajectory.from_iterates([4.0, 4.0, 4.0])).any()
    # {0, 1, 2} about mean 1: scatter 2, normalizer ln 3; frozen from
    # extended-precision arithmetic
    value = pelletier_sigma(Trajectory.from_iterates([0.0, 1.0, 2.0]))[0, 0]
    assert value == pytest.approx(1.8204784532536746, rel=1e-15)
    with pytest.raises(ValueError):
        pelletier_sigma(Trajectory.from_iterates([1.0]))


def gradient_is_features(obs, h):
    """Test double: the gradient is the observation itself."""
    return obs.features


def scaled_identity(scale):
    """Test double: a hand-picked hessian, a constant multiple of I."""
    return lambda obs, h: scale * np.eye(h.shape[0])


def test_plugin_sandwich_identity_hessian_returns_gradient_covariance():
    data = [Observation(np.array(v)) for v in ([1.0, 0.0], [0.0, 2.0], [1.0, 1.0])]
    expected = sum(np.outer(o.features, o.features) for o in data) / 3.0
    result = plugin_sandwich(gradient_is_features, scaled_identity(1.0), data,
                             np.zeros(2), ridge=0.0)
    assert np.allclose(result, expected, rtol=1e-12)


def test_plugin_sandwich_scalar_algebra():
    root2 = np.sqrt(2.0)
    data = [Observation(np.array([root2, 0.0])), Observation(np.array([0.0, root2]))]
    result = plugin_sandwich(gradient_is_features, scaled_identity(2.0), data,
                             np.zeros(2), ridge=0.0)
    assert np.allclose(result, 0.25 * np.eye(2), rtol=1e-12)


def test_plugin_sandwich_singular_and_contract_errors():
    data = [Observation(np.array([1.0, 0.0]))]
    with pytest.raises(SingularHessian):
        plugin_sandwich(gradient_is_features, scaled_identity(0.0), data,
                        np.zeros(2), ridge=0.0)
    with pytest.raises(ValueError):
        plugin_sandwich(gradient_is_features, scaled_identity(1.0), [], np.zeros(2))


def test_plugin_sandwich_logistic_monte_carlo():
    # theta*=0, standard normal features, h_ref=0: hessian -> I/4,
    # gradient covariance -> I/4, sandwich -> 4I
    gen = problems.logistic_sampler(np.zeros(2), seed=13)
    data = [next(gen) for _ in range(100000)]
    result = plugin_sandwich(logistic_gradient, logistic_hessian, data, np.zeros(2))
    assert abs(result[0, 0] - 4.0) < 0.4
    assert abs(result[1, 1] - 4.0) < 0.4
    assert abs(result[0, 1]) < 0.4


def test_plugin_sandwich_order_insensitive_within_rounding():
    gen = problems.logistic_sampler(np.array([0.5, -0.25]), seed=21)
    data = [next(gen) for _ in range(500)]
    h_ref = np.array([0.1, 0.2])
    forward = plugin_sandwich(logistic_gradient, logistic_hessian, data, h_ref)
    backward = plugin_sandwich(logistic_gradient, logistic_hessian, data[::-1], h_ref)
    assert np.allclose(forward, backward, rtol=1e-10)
    assert np.array_equal(forward, forward.T)
