"""Gradient and Hessian oracles, and seeded data sources.

Random streams are built on the counter-based Philox generator with
normal variates drawn by a fixed-consumption Box-Muller transform, so a
(seed, path) pair defines one bit-reproducible stream on any platform
and replications or parallel splits get independent substreams by path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GENERATOR = "philox4x64+box-muller-512"

# Normals are produced in fixed blocks; the block size is part of the
# stream definition and must never change.
_BLOCK = 512

_TWO_PI = 2.0 * math.pi


class Singularity(ValueError):
    """The gradient is undefined at this observation."""


class DataError(ValueError):
    """An input file row failed to parse or violated the schema."""


@dataclass
class Observation:
    """One data point: a feature vector plus an optional +/-1 label."""

    features: np.ndarray
    label: int | None = None


def _sigmoid(t: float) -> float:
    # Branch on sign so exp never overflows.
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def logistic_gradient(obs: Observation, h) -> np.ndarray:
    """Per-sample gradient of the logistic loss log(1 + exp(-y<x,h>))."""
    if obs.label is None:
        raise ValueError("logistic gradient requires a labeled observation")
    x = obs.features
    y = float(obs.label)
    t = y * float(np.dot(x, h))
    return (-_sigmoid(-t) * y) * x


def logistic_hessian(obs: Observation, h) -> np.ndarray:
    """Per-sample Hessian of the logistic loss: sig(t)(1-sig(t)) x xT."""
    if obs.label is None:
        raise ValueError("logistic hessian requires a labeled observation")
    x = obs.features
    t = abs(float(obs.label) * float(np.dot(x, h)))
    low = _sigmoid(-t)
    return (low * (1.0 - low)) * np.outer(x, x)


def quantile_direction(v) -> np.ndarray:
    """Validate a quantile direction: finite with Euclidean norm < 1."""
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError("direction contains non-finite values")
    if not np.linalg.norm(arr) < 1.0:
        raise ValueError("direction must have Euclidean norm strictly below 1")
    return arr


def quantile_gradient(obs: Observation, h, v=None) -> np.ndarray:
    """Gradient -( (x-h)/||x-h|| + v ) of the geometric quantile objective.

    v=None (or zero) gives the geometric median. Raises Singularity when
    the observation is within 1e-12 * (1 + ||h||) of the query point;
    continuous laws never hit this, but files may contain duplicates.
    """
    # sqrt(x.dot(x)) is what np.linalg.norm computes for a float vector,
    # without its dispatch cost
    diff = obs.features - h
    h = np.asarray(h, dtype=float)
    norm = math.sqrt(float(diff.dot(diff)))
    if norm < 1e-12 * (1.0 + math.sqrt(float(h.dot(h)))):
        raise Singularity("observation coincides with the current point")
    grad = diff / -norm
    if v is not None:
        grad = grad - v
    return grad


class RandomSource:
    """Deterministic uniform/normal stream for one (seed, path) pair.

    The stream is defined by the order of uniforms() and normals() calls;
    normals are cut from Box-Muller blocks of 512, two uniforms per pair
    of variates, with no rejection step.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF,) + tuple(int(p) for p in path)
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        self._buf = np.empty(0)
        self._pos = 0

    def uniforms(self, k: int) -> np.ndarray:
        """k variates uniform on [0, 1)."""
        return self._gen.random(k)

    def _refill(self):
        u = self._gen.random(_BLOCK)
        u1 = 1.0 - u[0::2]  # in (0, 1]: keeps the log finite
        u2 = u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        block = np.empty(_BLOCK)
        block[0::2] = radius * np.cos(_TWO_PI * u2)
        block[1::2] = radius * np.sin(_TWO_PI * u2)
        self._buf = block
        self._pos = 0

    def normals(self, k: int) -> np.ndarray:
        """k standard normal variates."""
        out = np.empty(k)
        filled = 0
        while filled < k:
            if self._pos == len(self._buf):
                self._refill()
            take = min(k - filled, len(self._buf) - self._pos)
            out[filled:filled + take] = self._buf[self._pos:self._pos + take]
            self._pos += take
            filled += take
        return out


def sphere_sampler(d: int, seed: int, path: tuple[int, ...] = ()):
    """Seeded stream of points uniform on the unit sphere in R^d, d >= 3."""
    if d < 3:
        raise ValueError("sphere sampler requires dimension >= 3")
    source = RandomSource(seed, path)
    while True:
        z = source.normals(d)
        norm = math.sqrt(float(z.dot(z)))
        if norm < 1e-12:  # never observed in practice; redraw to stay safe
            continue
        yield Observation(z / norm)


def logistic_sampler(theta_star, feature_law: str = "standard_normal",
                     seed: int = 0, path: tuple[int, ...] = ()):
    """Synthetic labeled stream with P(Y=1 | X) = sigmoid(<X, theta_star>).

    feature_law is "standard_normal" or "uniform_cube" (coordinates
    uniform on [-1, 1]).
    """
    theta = np.asarray(theta_star, dtype=float).reshape(-1)
    if not np.isfinite(theta).all():
        raise ValueError("theta_star contains non-finite values")
    if feature_law not in ("standard_normal", "uniform_cube"):
        raise ValueError(f"unknown feature law: {feature_law!r}")
    d = theta.shape[0]
    source = RandomSource(seed, path)
    while True:
        if feature_law == "standard_normal":
            x = source.normals(d)
        else:
            x = 2.0 * source.uniforms(d) - 1.0
        p = _sigmoid(float(np.dot(x, theta)))
        label = 1 if source.uniforms(1)[0] < p else -1
        yield Observation(x, label)


def csv_stream(path, label_column: int | None = None,
               has_header: bool = False, remap_zero_one: bool = False):
    """Stream observations from a CSV file in one pass with constant memory.

    label_column selects a 0-based column holding labels in {-1, +1}
    (or {0, 1} with remap_zero_one); the remaining columns become the
    feature vector. Parse failures, non-finite values, bad labels, and
    ragged rows raise DataError naming the offending line.
    """
    expected_dim = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if has_header and lineno == 1:
                continue
            line = raw.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            label = None
            if label_column is not None:
                if not 0 <= label_column < len(cells):
                    raise DataError(f"line {lineno}: no column {label_column}")
                label = _parse_label(cells.pop(label_column), remap_zero_one, lineno)
            values = []
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"line {lineno}: could not parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"line {lineno}: non-finite value {cell!r}")
                values.append(value)
            if expected_dim is None:
                expected_dim = len(values)
            elif len(values) != expected_dim:
                raise DataError(
                    f"line {lineno}: expected {expected_dim} features, got {len(values)}"
                )
            yield Observation(np.array(values), label)


def _parse_label(cell: str, remap_zero_one: bool, lineno: int) -> int:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"line {lineno}: could not parse label {cell!r}") from None
    if remap_zero_one and value in (0.0, 1.0):
        return 1 if value == 1.0 else -1
    if value in (-1.0, 1.0):
        return int(value)
    raise DataError(f"line {lineno}: invalid label {cell!r}")
