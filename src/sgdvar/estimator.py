"""Streaming engine for averaged stochastic gradient descent.

One observation in, updated state out: the current iterate, its running
average, and a one-pass estimate of the asymptotic covariance of the
average, all in O(d^2) time and memory per step. Also provides the
split-and-average merge for parallel substreams and a versioned binary
snapshot format for checkpoint/resume.

The covariance estimate is held in deferred form. The shrink factors of
the recursion

    Sigma_{n+1} = (n/(n+1))^(1-delta) Sigma_n + (1-delta)(n+1)^-(1+s) W W'

telescope, so A_n = n^(1-delta) Sigma_n grows by pure rank-one terms,

    A_{n+1} = A_n + (1-delta)(n+1)^-(delta+s) W_{n+1} W_{n+1}'.

Each step writes the row sqrt((1-delta)(n+1)^-(delta+s)) W_{n+1} into a
(FOLD_ROWS, d) buffer. Whenever n reaches a multiple of FOLD_ROWS the
buffered rows R are folded into A with one R'R product, which numpy runs
as a BLAS syrk, so A stays exactly symmetric. Sigma_n is computed when
read and a read never changes A, so the state and its snapshots depend
only on the observations, not on when anyone looked. Only a new
observation moves the state: n and Sigma_n are read-only.

A block steps K streams at once. Its arrays carry one leading stream
axis: iterate, average and W are (K, d), A is (K, d, d) and the pending
rows are (K, FOLD_ROWS, d). The schedule is one Python float per n,
shared by all K streams, and every array operation of a step is either
elementwise or one R'R product per stream, so each stream of a block
holds bit for bit the state of that stream stepped alone. A block is
read through views(block), one single-stream state per stream.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import schedule
from .schedule import StepParams

SNAPSHOT_MAGIC = b"SVAR"
SNAPSHOT_VERSION = 2
FOLD_ROWS = 20
_HEADER = struct.Struct("<4sBIQ5dQQI")


class NumericError(ArithmeticError):
    """A non-finite value reached the estimator."""


class EstimatorState:
    """Full per-stream online state.

    n counts iterates, starting at 1 for the initial point; a state at
    index n has consumed n - 1 observations. residual_acc holds the
    exponentially reweighted sum of (iterate - average) residuals in its
    stabilized scaled form, so no field ever grows beyond the scale of
    the iterates themselves.

    covariance is Sigma_n, computed on each read from the deferred form
    Sigma = (1/n)^(1-delta) (A + R'R), where R holds the pending rows and A
    the folded ones. n and covariance are read-only; init and restore build
    states from A and the pending rows.
    """

    __slots__ = ("_n", "iterate", "average", "residual_acc", "params",
                 "_a", "_rows", "_pending")

    def __init__(self, n: int, iterate: np.ndarray, average: np.ndarray,
                 residual_acc: np.ndarray, a: np.ndarray, rows: np.ndarray,
                 params: StepParams):
        self._n = n
        self.iterate = iterate
        self.average = average
        self.residual_acc = residual_acc
        self.params = params
        self._a = a
        self._pending = rows.shape[-2]
        self._rows = np.zeros(iterate.shape[:-1] + (FOLD_ROWS, iterate.shape[-1]))
        self._rows[..., :self._pending, :] = rows

    @property
    def n(self) -> int:
        return self._n

    @property
    def covariance(self) -> np.ndarray:
        scale = (1 / self._n) ** (1.0 - self.params.delta)
        if not self._pending:
            return scale * self._a
        rows = self._rows[:self._pending]
        sigma = rows.T @ rows
        sigma += self._a
        sigma *= scale
        return sigma


def init(m_init, params: StepParams) -> EstimatorState:
    """Create a state at n=1 from the initial point.

    The average equals the single iterate, so the residual accumulator and
    the covariance estimate both start at zero. An m_init of shape (K, d)
    makes a block of K streams starting at its rows; any other shape is
    taken as one point.
    """
    schedule.validate(params)
    point = np.array(m_init, dtype=float)
    if point.ndim != 2:
        point = point.reshape(-1)
    if not np.isfinite(point).all():
        raise NumericError("initial point contains non-finite values")
    d = point.shape[-1]
    return EstimatorState(1, point.copy(), point.copy(), np.zeros(point.shape),
                          np.zeros(point.shape + (d,)), np.zeros(point.shape[:-1] + (0, d)),
                          params)


def step(state: EstimatorState, gradient) -> EstimatorState:
    """Advance the state in place by one observation and return it.

    gradient is the stochastic gradient evaluated at the current iterate.
    The covariance estimate shrinks the previous one by (n/(n+1))^(1-delta)
    and adds the outer product of the reweighted residual accumulator W
    with gain (1-delta) / (n+1)^(1+s); this is exactly the batch
    reweighting of all past residuals folded into a rank-1 recursion.
    The step carries it out in deferred form: it writes one scaled row
    of W into the pending buffer, and when n+1 is a multiple of FOLD_ROWS
    it folds the buffer into A (see the module docstring).

    For a block, gradient is (K, d): row k is the gradient of stream k.
    """
    grad = np.asarray(gradient, dtype=float)
    if grad.shape != state.iterate.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match state dimension {state.iterate.shape}"
        )
    if not np.isfinite(grad).all():
        raise NumericError("gradient contains non-finite values")

    n = state._n
    params = state.params
    state.iterate -= schedule.step_size(n, params) * grad
    state.average += (state.iterate - state.average) / (n + 1)

    state.residual_acc *= schedule.decay_ratio(n, params)
    state.residual_acc += state.iterate - state.average

    gain = (1.0 - params.delta) * float(n + 1) ** -(params.delta + params.s)
    pending = state._pending
    np.multiply(state.residual_acc, math.sqrt(gain), out=state._rows[..., pending, :])
    pending += 1
    n += 1
    if n % FOLD_ROWS == 0:
        rows = state._rows[..., :pending, :]
        state._a += np.swapaxes(rows, -1, -2) @ rows
        pending = 0
    state._pending = pending
    state._n = n
    return state


class _StreamView(EstimatorState):
    """Stream k of a block: read-only views of its arrays, at the block's n."""

    __slots__ = ("_block",)
    _n = property(lambda self: self._block._n)
    _pending = property(lambda self: self._block._pending)

    def __init__(self, block: EstimatorState, k: int):
        self._block = block
        self.params = block.params
        arrays = [arr[k] for arr in (block.iterate, block.average, block.residual_acc,
                                     block._a, block._rows)]
        for arr in arrays:
            arr.flags.writeable = False
        self.iterate, self.average, self.residual_acc, self._a, self._rows = arrays


def views(block: EstimatorState) -> list[EstimatorState]:
    """One single-stream state per stream of a block, sharing its arrays.

    A view always shows its stream as the block now stands, so views made
    once serve every later read: covariance, merge and snapshot take them
    like any state. They are read-only; step the block, not a view.
    """
    return [_StreamView(block, k) for k in range(block.iterate.shape[0])]


def merge(states, weights=None) -> np.ndarray:
    """Average the covariance estimates of parallel substreams.

    weights must be positive and sum to 1; default is uniform. All states
    must share the same dimension and parameters.
    """
    states = list(states)
    if not states:
        raise ValueError("merge requires at least one state")
    d = states[0].iterate.shape[0]
    params = states[0].params
    for st in states[1:]:
        if st.iterate.shape[0] != d:
            raise ValueError("merge requires states of identical dimension")
        if st.params != params:
            raise ValueError("merge requires states with identical params")
    if weights is None:
        weights = np.full(len(states), 1.0 / len(states))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(states),):
            raise ValueError("one weight per state required")
        if not (weights > 0).all():
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
    merged = np.zeros((d, d))
    for w, st in zip(weights, states):
        merged += w * st.covariance
    return merged


def snapshot(state: EstimatorState) -> bytes:
    """Serialize the state losslessly to bytes.

    Layout (version 2), all little-endian: magic, version byte,
    dimension d (u32), n (u64), the five schedule parameters (f64), the
    deferred form's count and anchor (u64 each, always n and 1) and the
    pending row count k (u32), then iterate, average, residual
    accumulator, A (d x d) and the k pending rows (k x d) as raw IEEE-754
    doubles.
    """
    p = state.params
    d = state.iterate.shape[0]
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, d, state._n,
        p.c_gamma, p.alpha, p.s, p.delta, p.mu, state._n, 1, state._pending,
    )
    body = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in (state.iterate, state.average, state.residual_acc,
                    state._a, state._rows[:state._pending])
    )
    return header + body


def restore(data: bytes) -> EstimatorState:
    """Rebuild a state from snapshot bytes; exact inverse of snapshot.

    Only version 2 is read; the version 1 format of the first releases is
    refused. Raises ValueError for a blob that does not hold a valid
    state: bad framing, inadmissible parameters, non-finite values, an
    asymmetric A, a count other than n or an anchor other than 1, or a
    pending row count that n does not imply.
    """
    if len(data) < _HEADER.size:
        raise ValueError("snapshot truncated: header incomplete")
    (magic, version, d, n, c_gamma, alpha, s, delta, mu,
     count, base, pending) = _HEADER.unpack_from(data)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError("not a snapshot: bad magic bytes")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    expected = _HEADER.size + 8 * (3 * d + d * d + pending * d)
    if len(data) != expected:
        raise ValueError(f"snapshot has {len(data)} bytes, expected {expected}")
    params = schedule.validate(StepParams(c_gamma, alpha, s, delta, mu))
    if n < 1 or count != n or base != 1:
        raise ValueError(f"snapshot counts are inconsistent: n={n}, count={count}, base={base}")
    # rows pend since the later of n = 1 and the last fold, so fewer than FOLD_ROWS
    implied = n - max(1, n - n % FOLD_ROWS)
    if pending != implied:
        raise ValueError(f"snapshot holds {pending} pending rows, its counts imply {implied}")
    flat = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).astype(float)
    if not np.isfinite(flat).all():
        raise ValueError("snapshot holds non-finite values")
    a = flat[3 * d:3 * d + d * d].reshape(d, d)
    if not np.array_equal(a, a.T):
        raise ValueError("snapshot covariance is not symmetric")
    return EstimatorState(n, flat[:d].copy(), flat[d:2 * d].copy(), flat[2 * d:3 * d].copy(),
                          a.copy(), flat[3 * d + d * d:].reshape(pending, d), params)
