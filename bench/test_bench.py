"""Tests of the benchmark's own arithmetic: span self times and compare verdicts.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import spans
import worker


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] (which holds g [20, 30]) and b [50, 60]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 60]
    parent = [-1, 0, 1, 0]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [60.0, 20.0, 10.0, 10.0]
    assert own.sum() == 100.0  # self times of a tree add up to the root


def test_layer_table_sums_calls_and_self_time_per_name():
    dump = {
        "names": ["root", "step", "sample"],
        "name_id": np.array([0, 1, 2, 1, 2]),
        "start": np.array([0, 5, 6, 20, 30]),
        "end": np.array([100, 15, 8, 26, 31]),
        "parent": np.array([-1, 0, 1, 0, 0]),
    }
    table = spans.layer_table(dump)
    assert table["root"] == {"calls": 1, "self_ns": 100.0 - 10 - 6 - 1}
    assert table["step"] == {"calls": 2, "self_ns": 8.0 + 6.0}
    assert table["sample"] == {"calls": 2, "self_ns": 3.0}
    metrics = spans.layer_metrics(table, 100.0)
    assert metrics["step.self_us"] == pytest.approx(7e-3)
    assert metrics["step.busy_share"] == pytest.approx(0.14)
    assert sum(metrics[f"{n}.busy_share"] for n in table) == pytest.approx(1.0)


def test_recorder_nests_wrapped_calls_and_round_trips_its_dump(tmp_path):
    rec = spans.Recorder(run_id=7)
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)), measure=lambda r: r)
    rows = rec.wrap_rows("rows", lambda: iter([1, 2]))
    root = rec.open(rec.name_index("root"))
    assert outer(1) == 3
    assert list(rows()) == [1, 2]
    rec.close(root)
    rec.dump(tmp_path / "spans.npz")
    dump = spans.load(tmp_path / "spans.npz")
    names = [dump["names"][i] for i in dump["name_id"]]
    # the rows stream records its exhausting draw as well
    assert names == ["root", "outer", "inner", "inner", "rows", "rows", "rows"]
    assert dump["parent"].tolist() == [-1, 0, 1, 1, 0, 0, 0]
    assert dump["run_id"] == 7
    assert dump["counters"] == {"outer.bytes": 3}
    own = spans.self_times(dump["start"], dump["end"], dump["parent"])
    assert (own >= 0).all()
    assert own.sum() == dump["end"][0] - dump["start"][0]


def test_sampler_wrapper_puts_construction_and_first_draw_in_open():
    rec = spans.Recorder(run_id=0)
    stream = rec.wrap_sampler(itertools.count)(1)
    assert [next(stream) for _ in range(3)] == [1, 2, 3]
    names = [rec.names[i] for i in rec.name_id]
    assert names == ["problems.open", "problems.sample", "problems.sample"]


@pytest.mark.parametrize("base, new, higher, expected", [
    # throughput up 10% with tight spread on both sides
    ([100, 101, 99, 100, 100], [110, 111, 109, 110, 110], True, "better"),
    # latency up 20% against a 10% bound
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], False, "worse"),
    # inside the bound and inside the base spread
    ([1.0, 1.02, 0.98, 1.0], [1.01, 1.03, 0.99, 1.01], False, "within bound"),
    # base spread wider than the bound and overlapping runs
    ([1.0, 1.5, 0.7, 1.2], [1.1, 1.4, 0.8, 1.0], False, "unresolved"),
    # wide spread, but every new run beats every base run
    ([2.0, 3.0, 2.5, 2.2], [1.0, 1.4, 1.2, 1.9], False, "better"),
    # a better median that wins too few pairs stays within bound
    ([100, 104, 96, 100], [103, 105, 97, 101], True, "within bound"),
])
def test_compare_verdicts(base, new, higher, expected):
    assert compare.verdict(base, new, 0.1, higher) == expected


def test_compare_table_uses_bounds_from_the_spec():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}],
            "per_layer": []}
    base = {"w": {"wall_s": [1.0, 1.0, 1.01, 0.99], "estimator.step.calls": [5, 5]}}
    new = {"w": {"wall_s": [1.3, 1.3, 1.31, 1.29], "estimator.step.calls": [5, 5]}}
    lines = compare.compare(base, new, spec)
    assert lines[0] == "== w"
    assert lines[2].split()[0] == "estimator.step.calls" and lines[2].endswith("-")
    assert lines[3].split()[0] == "wall_s" and lines[3].endswith("worse")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(worker.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in run.PER_LAYER}
