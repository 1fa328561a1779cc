"""Compare two sets of benchmark results, workload by workload and metric by metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by ``bench/run.py --record FILE``, one
JSON line per run, typically ten runs per workload on different seeds.
For every workload and metric found on both sides the table gives each
side's median and quartiles, the ratio new/base of the medians, and a
verdict. End-to-end metrics are judged against their bound in
BENCHMARK.json; per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9  # share of run pairs the new side must win to count as better


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, bound: float, higher_is_better: bool) -> str:
    """better, worse, unresolved or within bound, for one metric.

    - unresolved: either side's spread (quartile distance over median) is
      wider than the bound, unless every new run beats every base run,
      which is better;
    - worse: the new median is worse than the base median by more than
      the bound;
    - better: the new side wins at least WIN_SHARE of all (base, new) run
      pairs, ties counting for neither, and its median is better by more
      than the base side's own quartile distance;
    - within bound: anything else.
    """
    sign = 1.0 if higher_is_better else -1.0
    pairs = [(b, n) for b in base for n in new]
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    b_q1, b_med, b_q3 = quartiles(base)
    n_med = quartiles(new)[1]
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "better" if wins == len(pairs) else "unresolved"
    gain = sign * (n_med - b_med) / abs(b_med)
    if gain < -bound:
        return "worse"
    if wins >= WIN_SHARE * len(pairs) and sign * (n_med - b_med) > b_q3 - b_q1:
        return "better"
    return "within bound"


def load(path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over every record in the file."""
    runs: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                metrics = runs.setdefault(record["workload"], {})
                for name, value in record["metrics"].items():
                    metrics.setdefault(name, []).append(float(value))
    return runs


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    """Lines of the comparison table."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    for workload in sorted(set(base) & set(new)):
        lines.append(f"== {workload}")
        lines.append(f"  {'metric':<40} {'base median [q1, q3]':>34} "
                     f"{'new median [q1, q3]':>34} {'ratio':>7}  verdict")
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][name], new[workload][name]
            bq, nq = quartiles(b), quartiles(n)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            result = "-"
            if name in bounds:
                m = bounds[name]
                result = verdict(b, n, m["bound"], m["better"] == "higher")
            lines.append(
                f"  {name:<40} {_fmt(bq):>34} {_fmt(nq):>34} {ratio:7.3f}  {result}")
    return lines


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    for line in compare(load(argv[0]), load(argv[1]), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
