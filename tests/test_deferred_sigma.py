"""Property tests of the deferred covariance form and the query path.

The estimator keeps A_n = n^(1-delta) Sigma_n plus a buffer of pending
rows and builds Sigma_n on read. These tests pin that form against the
plain rank-one recursion, check that reads are exact and side-effect
free, that snapshots resume bit-exactly at every pending count, that
restore refuses invalid and version 1 blobs, that n and Sigma_n are
read-only, that a block of K streams holds bit for bit the states of K
single streams, and that the triangular solve of the confidence
ellipsoid matches a dense solve.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdvar import analysis, estimator, schedule
from sgdvar.estimator import FOLD_ROWS
from sgdvar.schedule import StepParams

SETTINGS = settings(max_examples=25, deadline=None)
V1_HEADER = struct.Struct("<4sBIQ5d")
V2_HEADER_SIZE = V1_HEADER.size + struct.calcsize("<QQI")


@st.composite
def admissible_params(draw):
    """(c_gamma, alpha, s, delta, mu) inside the open admissible region."""
    alpha = draw(st.floats(0.51, 0.95))
    s = draw(st.floats((1.0 + alpha) / 2.0 + 0.005, 0.995))
    delta = draw(st.floats(s / 2.0 + 0.005, (1.0 + s) / 2.0 - 0.005))
    mu = draw(st.floats(0.0, 3.0))
    c_gamma = draw(st.floats(0.1, 3.0))
    return schedule.validate(StepParams(c_gamma, alpha, s, delta, mu))


dims = st.integers(1, 5)
seeds = st.integers(0, 2**32 - 1)


def eager_path(params, n, iterate, average, acc, sigma, grads):
    """Sigma after each gradient, by the rank-one recursion with an explicit
    shrink of the whole matrix on every step (the form the estimator
    defers), started from the given fields at iterate index n."""
    iterate, average, acc, sigma = (np.array(a, dtype=float)
                                    for a in (iterate, average, acc, sigma))
    for k, grad in enumerate(grads, start=n):
        iterate -= schedule.step_size(k, params) * grad
        average += (iterate - average) / (k + 1)
        acc *= schedule.decay_ratio(k, params)
        acc += iterate - average
        sigma *= (k / (k + 1.0)) ** (1.0 - params.delta)
        sigma += (1.0 - params.delta) * float(k + 1) ** -(1.0 + params.s) * np.outer(acc, acc)
        yield sigma.copy()


def rel_err(a, b):
    scale = np.linalg.norm(b)
    return np.linalg.norm(a - b) / scale if scale else np.linalg.norm(a)


@SETTINGS
@given(admissible_params(), dims, seeds)
def test_deferred_matches_eager_recursion_at_every_n(params, d, seed):
    gen = np.random.default_rng(seed)
    m_init = gen.normal(size=d)
    grads = gen.normal(size=(3 * FOLD_ROWS + 5, d))
    state = estimator.init(m_init, params)
    path = eager_path(params, 1, m_init, m_init, np.zeros(d), np.zeros((d, d)), grads)
    for grad, reference in zip(grads, path):
        estimator.step(state, grad)
        sigma = state.covariance
        assert np.array_equal(sigma, sigma.T)
        assert rel_err(sigma, reference) < 1e-12


@SETTINGS
@given(admissible_params(), dims, seeds)
def test_reads_do_not_change_the_state(params, d, seed):
    gen = np.random.default_rng(seed)
    grads = gen.normal(size=(2 * FOLD_ROWS + 7, d))
    quiet = estimator.init(np.zeros(d), params)
    watched = estimator.init(np.zeros(d), params)
    for grad in grads:
        estimator.step(quiet, grad)
        estimator.step(watched, grad)
        watched.covariance  # noqa: B018 -- the read itself is under test
        estimator.merge([watched])
        estimator.snapshot(watched)
    assert estimator.snapshot(watched) == estimator.snapshot(quiet)
    assert watched.covariance.tobytes() == quiet.covariance.tobytes()


@settings(max_examples=10, deadline=None)
@given(admissible_params(), dims, seeds)
def test_snapshot_resume_is_exact_at_every_pending_count(params, d, seed):
    gen = np.random.default_rng(seed)
    grads = gen.normal(size=(4 * FOLD_ROWS, d))
    straight = estimator.init(np.zeros(d), params)
    blobs = {}
    for grad in grads:
        estimator.step(straight, grad)
        blobs[straight.n] = estimator.snapshot(straight)
    final = estimator.snapshot(straight)
    seen = set()
    for n in range(2 * FOLD_ROWS, 3 * FOLD_ROWS):
        resumed = estimator.restore(blobs[n])
        seen.add(resumed._pending)
        assert estimator.snapshot(resumed) == blobs[n]
        for grad in grads[n - 1:]:
            estimator.step(resumed, grad)
        assert estimator.snapshot(resumed) == final
    assert seen == set(range(FOLD_ROWS))


def v1_blob(n, params, iterate, average, acc, sigma):
    header = V1_HEADER.pack(b"SVAR", 1, iterate.size, n, params.c_gamma,
                            params.alpha, params.s, params.delta, params.mu)
    return header + b"".join(np.asarray(a, dtype="<f8").tobytes()
                             for a in (iterate, average, acc, sigma))


@SETTINGS
@given(admissible_params(), dims, seeds, st.integers(1, 10**6))
def test_hand_packed_v1_blob_is_rejected(params, d, seed, n):
    gen = np.random.default_rng(seed)
    iterate, average, acc = gen.normal(size=(3, d))
    root = gen.normal(size=(d, d))
    with pytest.raises(ValueError, match="^unsupported snapshot version 1$"):
        estimator.restore(v1_blob(n, params, iterate, average, acc, root @ root.T))


@SETTINGS
@given(admissible_params(), st.integers(1, 6), st.integers(1, 6), seeds,
       st.integers(2 * FOLD_ROWS, 4 * FOLD_ROWS))
def test_block_equals_single_streams_bit_for_bit(params, k, d, seed, steps):
    gen = np.random.default_rng(seed)
    m_init = gen.normal(size=(k, d))
    grads = gen.normal(size=(steps, k, d))
    block = estimator.init(m_init, params)
    singles = [estimator.init(m_init[i], params) for i in range(k)]
    views = estimator.views(block)
    for grad in grads:
        estimator.step(block, grad)
        for i, single in enumerate(singles):
            estimator.step(single, grad[i])
    for i, (view, single) in enumerate(zip(views, singles)):
        for name in ("iterate", "average", "residual_acc"):
            assert getattr(block, name)[i].tobytes() == getattr(single, name).tobytes()
            assert getattr(view, name).tobytes() == getattr(single, name).tobytes()
        assert view.n == single.n == steps + 1
        assert view.covariance.tobytes() == single.covariance.tobytes()
        assert estimator.snapshot(view) == estimator.snapshot(single)


@pytest.mark.parametrize("k, pending, d", [(1, FOLD_ROWS, 1), (3, FOLD_ROWS - 1, 5),
                                           (50, FOLD_ROWS, 10), (7, FOLD_ROWS, 20)])
def test_stacked_fold_equals_per_slice_fold(k, pending, d):
    # the batched R'R must run the per-slice syrk; this depends on the BLAS
    buffer = np.random.default_rng(k * d).normal(size=(k, FOLD_ROWS, d))
    rows = buffer[:, :pending, :]
    stacked = np.swapaxes(rows, -1, -2) @ rows
    for i in range(k):
        assert stacked[i].tobytes() == (rows[i].T @ rows[i]).tobytes()
        assert np.array_equal(stacked[i], stacked[i].T)


def test_views_follow_the_block_and_refuse_a_step():
    block = estimator.init(np.zeros((2, 3)), StepParams())
    views = estimator.views(block)
    gen = np.random.default_rng(5)
    for _ in range(FOLD_ROWS + 3):
        estimator.step(block, gen.normal(size=(2, 3)))
    assert [v.n for v in views] == [FOLD_ROWS + 4] * 2
    before = estimator.snapshot(views[0])
    with pytest.raises(ValueError, match="read-only"):
        estimator.step(views[0], np.ones(3))
    assert estimator.snapshot(views[0]) == before
    assert block.n == FOLD_ROWS + 4


def test_n_and_covariance_are_read_only():
    state = stepped_state(11)
    before = estimator.snapshot(state)
    with pytest.raises(AttributeError):
        state.n = 400
    with pytest.raises(AttributeError):
        state.covariance = 2.0 * np.eye(3)
    assert state.n == 12
    assert estimator.snapshot(state) == before


def stepped_state(steps, d=3, params=StepParams()):
    gen = np.random.default_rng(31)
    state = estimator.init(np.zeros(d), params)
    for _ in range(steps):
        estimator.step(state, gen.normal(size=d))
    return state


def test_restore_rejects_inadmissible_params():
    state = stepped_state(10)
    blob = bytearray(estimator.snapshot(state))
    struct.pack_into("<d", blob, 17, -5.0)  # c_gamma
    with pytest.raises(schedule.ConstraintViolation, match="c_gamma"):
        estimator.restore(bytes(blob))


@pytest.mark.parametrize("field", ["iterate", "average", "residual_acc", "a", "rows"])
def test_restore_rejects_non_finite_fields(field):
    state = stepped_state(FOLD_ROWS + 5)
    assert state._pending == 6
    d = 3
    start = {"iterate": 0, "average": d, "residual_acc": 2 * d, "a": 3 * d + 4,
             "rows": 3 * d + d * d + 2}[field]
    blob = bytearray(estimator.snapshot(state))
    struct.pack_into("<d", blob, V2_HEADER_SIZE + 8 * start, float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        estimator.restore(bytes(blob))


def test_restore_rejects_asymmetric_matrices():
    state = stepped_state(FOLD_ROWS, d=2)
    blob = bytearray(estimator.snapshot(state))
    struct.pack_into("<d", blob, V2_HEADER_SIZE + 8 * (3 * 2 + 1), 1.0)  # A[0, 1] only
    with pytest.raises(ValueError, match="symmetric"):
        estimator.restore(bytes(blob))


def test_restore_rejects_bad_counts():
    state = stepped_state(FOLD_ROWS - 2)
    assert state._pending == FOLD_ROWS - 2
    blob = estimator.snapshot(state)
    d = 3
    fields_end = V2_HEADER_SIZE + 8 * (3 * d + d * d)

    def with_counts(count, base, pending, rows, n=None):
        """The blob with n (default: count), count, base and pending rewritten."""
        head = bytearray(blob[:V2_HEADER_SIZE])
        struct.pack_into("<Q", head, 9, count if n is None else n)
        struct.pack_into("<QQI", head, V1_HEADER.size, count, base, pending)
        return bytes(head) + blob[V2_HEADER_SIZE:fields_end] + np.zeros((rows, d)).tobytes()

    assert with_counts(state.n, 1, FOLD_ROWS - 2, 0) == blob[:fields_end]
    estimator.restore(with_counts(state.n, 1, FOLD_ROWS - 2, FOLD_ROWS - 2))
    estimator.restore(with_counts(2 * FOLD_ROWS - 1, 1, FOLD_ROWS - 1, FOLD_ROWS - 1))
    estimator.restore(with_counts(2 * FOLD_ROWS + 5, 1, 5, 5))
    for count, pending in [(2 * FOLD_ROWS, FOLD_ROWS), (state.n, FOLD_ROWS - 3),
                           (2 * FOLD_ROWS + 1, 0)]:
        with pytest.raises(ValueError, match="pending"):
            estimator.restore(with_counts(count, 1, pending, pending))
    for count, base, pending, n in [(2 * FOLD_ROWS + 5, 2 * FOLD_ROWS + 2, 3, None),
                                    (5, 6, 0, None), (0, 0, 0, None), (0, 1, 0, None),
                                    (2 * FOLD_ROWS - 1, 1, FOLD_ROWS - 1, state.n),
                                    (state.n, 1, FOLD_ROWS - 2, state.n + 1)]:
        with pytest.raises(ValueError, match="inconsistent"):
            estimator.restore(with_counts(count, base, pending, pending, n))


@pytest.mark.parametrize("d", [1, 3, 25, 26, 100])
def test_ellipsoid_statistic_matches_dense_solve(d):
    gen = np.random.default_rng(d)
    root = gen.normal(size=(d, d))
    sigma = root @ root.T / d + 0.1 * np.eye(d)
    center = gen.normal(size=d)
    ball = analysis.confidence_region(center, sigma, 1000, level=0.95, ridge=0.0)
    for _ in range(5):
        point = center + gen.normal(size=d) / 30.0
        diff = center - point
        dense = 1000 * float(diff @ np.linalg.solve(sigma, diff))
        assert abs(ball.statistic(point) - dense) <= 1e-12 * dense


def test_chi_square_quantile_memo_keeps_the_bits():
    for level, dof in [(0.95, 100), (0.9, 3), (0.5, 1)]:
        first = analysis.chi_square_quantile(level, dof)
        assert first == analysis.chi_square_quantile.__wrapped__(level, dof)
        assert analysis.chi_square_quantile(level, dof) == first
    for _ in range(2):
        with pytest.raises(ValueError):
            analysis.chi_square_quantile(1.5, 3)
