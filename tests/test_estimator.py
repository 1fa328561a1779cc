import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdvar import baselines, estimator
from sgdvar.estimator import NumericError
from sgdvar.schedule import ConstraintViolation, StepParams

from conftest import run_gradient_stream, valid_params


def test_init_zero_point():
    state = estimator.init(np.zeros(3), StepParams())
    assert state.n == 1
    assert not state.iterate.any()
    assert not state.average.any()
    assert not state.residual_acc.any()
    assert not state.covariance.any()


def test_init_single_point_averages_to_itself():
    state = estimator.init([1.0, 2.0], StepParams())
    assert state.average.tolist() == [1.0, 2.0]
    assert not state.covariance.any()


def test_init_matches_batch_oracle_at_n1():
    state = estimator.init([0.3, -0.7], StepParams())
    traj = baselines.Trajectory.from_iterates([state.iterate.copy()])
    oracle = baselines.batch_sigma(traj, state.params)
    assert np.array_equal(state.covariance, oracle)


def test_init_rejects_bad_input():
    with pytest.raises(NumericError):
        estimator.init([np.nan, 0.0], StepParams())
    with pytest.raises(ConstraintViolation):
        estimator.init([0.0], StepParams(s=0.5))


def test_zero_gradient_is_fixed_point():
    state = estimator.init([1.0, -2.0, 0.5], StepParams())
    for _ in range(50):
        estimator.step(state, np.zeros(3))
    assert state.iterate.tolist() == [1.0, -2.0, 0.5]
    assert state.average.tolist() == [1.0, -2.0, 0.5]
    assert not state.covariance.any()


def test_step_hand_example():
    # d=1, m_1=0, gradient -1: m_2=1, avg=1/2, accumulator 1/2, and the
    # covariance update contributes 0.3 * 2**(-1.9) * 0.25; value frozen
    # from extended-precision evaluation
    state = estimator.init([0.0], StepParams())
    estimator.step(state, [-1.0])
    assert state.n == 2
    assert state.iterate[0] == 1.0
    assert state.average[0] == 0.5
    assert state.residual_acc[0] == 0.5
    assert state.covariance[0, 0] == pytest.approx(0.020095752422555497, rel=1e-13)


def test_step_rejects_non_finite_gradient_leaving_state_unchanged():
    state = estimator.init([1.0, 2.0], StepParams())
    estimator.step(state, [0.1, -0.2])
    before = estimator.snapshot(state)
    with pytest.raises(NumericError):
        estimator.step(state, [np.inf, 0.0])
    assert estimator.snapshot(state) == before


def test_step_rejects_shape_mismatch():
    state = estimator.init([1.0, 2.0], StepParams())
    with pytest.raises(ValueError):
        estimator.step(state, [1.0, 2.0, 3.0])


def test_recursion_matches_batch_oracle(rng):
    # includes mu > 0; the full 20-tuple sweep lives in the acceptance suite
    for seed in range(5):
        params = valid_params(rng)
        state, traj = run_gradient_stream(params, 300, 4, seed)
        oracle = baselines.batch_sigma(traj, params)
        err = np.linalg.norm(state.covariance - oracle) / np.linalg.norm(oracle)
        assert err < 1e-9


def test_covariance_symmetric_psd_along_run():
    state, _ = run_gradient_stream(StepParams(), 2, 4, 3)
    gen = np.random.default_rng(99)
    for _ in range(400):
        estimator.step(state, gen.normal(size=4))
        assert np.array_equal(state.covariance, state.covariance.T)
    eig = np.linalg.eigvalsh(state.covariance)
    assert eig.min() >= -1e-12 * np.trace(state.covariance)


def test_average_matches_direct_mean():
    state, traj = run_gradient_stream(StepParams(), 10**5, 3, 11)
    direct = traj.iterates.mean(axis=0)
    err = np.linalg.norm(state.average - direct) / np.linalg.norm(direct)
    assert err < 1e-10


def assert_symmetric_psd(sigma):
    assert np.array_equal(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma).min() >= -1e-12 * np.trace(sigma)


@st.composite
def stepped_states(draw):
    """1 to 5 states of one dimension, each stepped on its own gradients."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = []
    for steps in draw(st.lists(st.integers(1, 3 * estimator.FOLD_ROWS),
                               min_size=k, max_size=k)):
        state = estimator.init(gen.normal(size=d), StepParams())
        for _ in range(steps):
            estimator.step(state, gen.normal(size=d))
            assert_symmetric_psd(state.covariance)
        states.append(state)
    return states


@settings(max_examples=25, deadline=None)
@given(stepped_states(), st.data())
def test_merge_properties(states, data):
    k = len(states)
    covs = [st_.covariance for st_ in states]
    assert estimator.merge(states[:1]).tobytes() == covs[0].tobytes()
    raw = data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    weights = np.array(raw) / sum(raw)
    for w in (None, weights):
        merged = estimator.merge(states, weights=w)
        w = np.full(k, 1.0 / k) if w is None else w
        assert np.array_equal(merged, sum(wi * c for wi, c in zip(w, covs)))
        assert_symmetric_psd(merged)
        order = data.draw(st.permutations(range(k)))
        permuted = estimator.merge([states[i] for i in order], weights=w[list(order)])
        scale = np.linalg.norm(merged)
        assert np.linalg.norm(permuted - merged) <= 1e-14 * scale
        assert_symmetric_psd(permuted)


def test_merge_rejects_bad_inputs():
    a = estimator.init([0.0, 0.0], StepParams())
    b = estimator.init([0.0, 0.0, 0.0], StepParams())
    c = estimator.init([0.0, 0.0], StepParams(s=0.95))
    with pytest.raises(ValueError):
        estimator.merge([])
    with pytest.raises(ValueError):
        estimator.merge([a, b])
    with pytest.raises(ValueError):
        estimator.merge([a, c])
    with pytest.raises(ValueError):
        estimator.merge([a, a], weights=[0.5, 0.6])
    with pytest.raises(ValueError):
        estimator.merge([a, a], weights=[-0.5, 1.5])


def test_snapshot_round_trip_field_by_field(rng):
    params = valid_params(rng)
    state, _ = run_gradient_stream(params, 57, 6, 5)
    back = estimator.restore(estimator.snapshot(state))
    assert back.n == state.n
    assert back.params == state.params
    assert np.array_equal(back.iterate, state.iterate)
    assert np.array_equal(back.average, state.average)
    assert np.array_equal(back.residual_acc, state.residual_acc)
    assert np.array_equal(back.covariance, state.covariance)


def test_snapshot_resume_reproduces_uninterrupted_run():
    gen = np.random.default_rng(123)
    grads = gen.normal(size=(999, 3))
    full = estimator.init(np.ones(3), StepParams())
    for g in grads:
        estimator.step(full, g)
    half = estimator.init(np.ones(3), StepParams())
    for g in grads[:500]:
        estimator.step(half, g)
    resumed = estimator.restore(estimator.snapshot(half))
    for g in grads[500:]:
        estimator.step(resumed, g)
    assert resumed.n == full.n == 1000
    assert np.array_equal(resumed.covariance, full.covariance)
    assert np.array_equal(resumed.iterate, full.iterate)
    assert np.array_equal(resumed.average, full.average)


def test_restore_rejects_bad_bytes():
    state = estimator.init([1.0, 2.0], StepParams())
    blob = bytearray(estimator.snapshot(state))
    blob[4] ^= 0xFF  # version byte
    with pytest.raises(ValueError, match="version"):
        estimator.restore(bytes(blob))
    blob[4] ^= 0xFF
    blob[0] ^= 0xFF  # magic
    with pytest.raises(ValueError, match="magic"):
        estimator.restore(bytes(blob))
    with pytest.raises(ValueError, match="truncated"):
        estimator.restore(b"\x00\x01")
    with pytest.raises(ValueError, match="expected"):
        estimator.restore(estimator.snapshot(state) + b"\x00")


def test_step_cost_scales_quadratically():
    # per-step time at d=1000 should sit within 3x of the quadratic
    # extrapolation from d=100; generous bound to survive noisy machines
    def per_step(d, reps):
        state = estimator.init(np.zeros(d), StepParams())
        grads = np.random.default_rng(0).normal(size=(reps, d))
        for g in grads[:10]:
            estimator.step(state, g)
        t0 = time.perf_counter()
        for g in grads[10:]:
            estimator.step(state, g)
        return (time.perf_counter() - t0) / (reps - 10)

    t100 = per_step(100, 160)
    t1000 = per_step(1000, 60)
    assert t1000 / t100 < 3.0 * 100.0
