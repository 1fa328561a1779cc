"""Timing spans around sgdvar's public functions, and the per-layer table.

A traced benchmark process replaces module attributes of the package
(``setattr`` on ``sgdvar.problems``, ``estimator``, ``analysis``,
``experiments`` and ``cli``) with wrappers that record one span per
call; the package source is never edited. Spans stay in memory in flat
integer arrays and are dumped once, at the end of the process. The
per-layer table is computed from that dump: a layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array

import numpy as np

ROOT_SPAN = "workload"

# (module, attribute, span name) for every wrapped plain function. The two
# gradient oracles share one layer name; stream factories are listed apart.
FUNCTIONS = (
    ("problems", "quantile_gradient", "problems.gradient"),
    ("problems", "logistic_gradient", "problems.gradient"),
    ("estimator", "init", "estimator.init"),
    ("estimator", "step", "estimator.step"),
    ("estimator", "merge", "estimator.merge"),
    ("analysis", "sphere_references", "analysis.sphere_references"),
    ("analysis", "normalize_iterate", "analysis.normalize_iterate"),
    ("analysis", "normalize_average", "analysis.normalize_average"),
    ("analysis", "ks_normal", "analysis.ks_normal"),
    ("analysis", "frobenius_error", "analysis.frobenius_error"),
    ("analysis", "chi_square_quantile", "analysis.chi_square_quantile"),
    ("analysis", "confidence_ball", "analysis.confidence_ball"),
    ("experiments", "validate_config", "experiments.validate_config"),
    ("experiments", "run", "experiments.run"),
    ("cli", "main", "cli.main"),
)
SAMPLERS = ("sphere_sampler", "logistic_sampler")

_UNSET = object()


class Recorder:
    """In-memory span store for one process.

    Each span is one entry in four parallel arrays: name id, start and end
    in perf_counter nanoseconds, and the index of the enclosing span (-1
    for none). Counters hold byte totals measured at the same boundaries.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, name: str, fn, measure=None):
        """fn with a span per call; measure(result) is added to name.bytes."""
        nid = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                self.count(name + ".bytes", measure(result))
            return result

        return traced

    def wrap_sampler(self, factory):
        """Sampler factory whose call plus first draw is one problems.open span.

        The generators build their random source lazily, on the first draw,
        so construction cost only shows when that draw is inside the span.
        Every later draw is a problems.sample span.
        """
        open_id = self.name_index("problems.open")
        sample_id = self.name_index("problems.sample")

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            idx = self.open(open_id)
            try:
                gen = factory(*args, **kwargs)
                first = next(gen)
            finally:
                self.close(idx)
            return _TracedStream(self, sample_id, gen, first)

        return traced

    def wrap_rows(self, name: str, factory):
        """Stream factory with a span around every row drawn."""
        nid = self.name_index(name)

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return _TracedStream(self, nid, factory(*args, **kwargs))

        return traced

    def install(self, modules: dict) -> None:
        """Replace the traced attributes of the given sgdvar modules."""
        def replace(owner, attr, wrapped):
            self._installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

        for module, attr, name in FUNCTIONS:
            owner = modules[module]
            replace(owner, attr, self.wrap(name, getattr(owner, attr)))
        problems, estimator = modules["problems"], modules["estimator"]
        experiments, analysis = modules["experiments"], modules["analysis"]
        for attr in SAMPLERS:
            replace(problems, attr, self.wrap_sampler(getattr(problems, attr)))
        replace(problems, "csv_stream",
                self.wrap_rows("problems.csv_stream", problems.csv_stream))
        replace(estimator, "snapshot",
                self.wrap("estimator.snapshot", estimator.snapshot, len))
        replace(experiments, "emit",
                self.wrap("experiments.emit", experiments.emit,
                          lambda paths: sum(os.path.getsize(p) for p in paths)))
        ball = analysis.ConfidenceBall
        replace(ball, "test", self.wrap("analysis.ConfidenceBall.test", ball.test))

    def uninstall(self) -> None:
        """Put back every attribute install() replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every closed span, with names and counters, to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run_id=np.int64(self.run_id),
            counters=np.array(json.dumps(self.counters)),
        )


class _TracedStream:
    """Iterator that records a span around each draw of the wrapped stream."""

    def __init__(self, recorder: Recorder, name_id: int, it, first=_UNSET):
        self._rec = recorder
        self._nid = name_id
        self._it = it
        self._first = first

    def __iter__(self):
        return self

    def __next__(self):
        if self._first is not _UNSET:
            item, self._first = self._first, _UNSET
            return item
        idx = self._rec.open(self._nid)
        try:
            return next(self._it)
        finally:
            self._rec.close(idx)


def load(path) -> dict:
    """Read a dump written by Recorder.dump."""
    with np.load(path) as data:
        return {
            "names": [str(n) for n in data["names"]],
            "name_id": data["name_id"],
            "start": data["start"],
            "end": data["end"],
            "parent": data["parent"],
            "run_id": int(data["run_id"]),
            "counters": json.loads(str(data["counters"])),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other: the sum of their durations is exactly the
    part of the parent's interval they cover.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = (end - start).astype(float)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested],
                          minlength=duration.shape[0])
    return duration - covered


def layer_table(dump: dict) -> dict[str, dict]:
    """Per span name: number of calls and total self time in nanoseconds."""
    names = dump["names"]
    own = self_times(dump["start"], dump["end"], dump["parent"])
    calls = np.bincount(dump["name_id"], minlength=len(names))
    self_ns = np.bincount(dump["name_id"], weights=own, minlength=len(names))
    return {
        name: {"calls": int(calls[i]), "self_ns": float(self_ns[i])}
        for i, name in enumerate(names)
        if calls[i]
    }


def layer_metrics(table: dict[str, dict], wall_ns: float) -> dict[str, float]:
    """calls, self_us (per call), self_ms (total) and busy_share per layer."""
    metrics = {}
    for name, row in table.items():
        calls, self_ns = row["calls"], row["self_ns"]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_us"] = self_ns / calls / 1e3
        metrics[f"{name}.self_ms"] = self_ns / 1e6
        metrics[f"{name}.busy_share"] = self_ns / wall_ns
    return metrics
