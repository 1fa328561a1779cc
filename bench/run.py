"""sgdvar benchmark: run one workload from a seed, check it, print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

A run starts one fresh interpreter after another (bench/worker.py), each
running the whole workload once, until S seconds have passed and at least
MIN_ROUNDS have run. One process at a time, one thread each, and BLAS and
OpenMP pinned to one thread: a closed loop with a single caller. With
--trace 0 every process is untraced and the end-to-end metrics are the
medians over them. With --trace 1 untraced and traced processes alternate
on the same seed, and the per-layer metrics come from the span dumps of
the traced ones. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --record appends the full
result, with the environment and every check, as one JSON line to FILE
(bench/compare.py reads such files).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import spans

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"

WORKLOADS = {
    "stream_query_d100":
        "one d=100 sphere stream with a query every 20 obs: d^2 work and "
        "reads beside writes, no batching possible",
    "replicated_sphere_d10":
        "experiments.run + emit, 16 sphere replications at d=10: per-call "
        "Python overhead of sampler, gradient and step dominates",
    "coverage_logistic_p10":
        "experiments.run + emit, logistic d=5 with 10 splits and ball "
        "regions: many stream opens, 10-state merges",
    "csv_cli_d20":
        "sgdvar.cli.main on a seeded d=20 CSV with 4 splits: csv parsing "
        "and the CLI path, no sampler",
}

END_TO_END = {
    "setup_s": "s",
    "obs_per_s": "obs/s",
    "wall_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics in the result line. Counts are listed for every layer;
# times only for the layers all four workloads exercise, since a layer a
# workload never calls would read 0 on every run. The full table, every
# layer with calls, self_us, self_ms and busy_share, is printed and
# recorded as well. Units follow from the name (unit_of).
PER_LAYER = (
    "problems.sample.calls",
    "problems.open.calls",
    "problems.csv_stream.rows",
    "problems.gradient.calls",
    "problems.gradient.self_us",
    "problems.gradient.busy_share",
    "problems.gradient.useful_ratio",
    "estimator.step.calls",
    "estimator.step.self_us",
    "estimator.step.busy_share",
    "estimator.snapshot.calls",
    "estimator.snapshot.bytes",
    "estimator.merge.calls",
    "analysis.confidence_ball.calls",
    "analysis.chi_square_quantile.calls",
    "analysis.ks_normal.calls",
    "analysis.frobenius_error.calls",
    "experiments.emit.bytes",
    "workload.self_share",
    "trace.overhead_share",
)

PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_ROUNDS = 3
TIME_LIMIT_S = 170.0
COVERAGE_TOL = 0.03  # self times must account for the traced wall within this


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", help="append the full result as a JSON line")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def spawn(spec: dict, root: Path, timeout: float) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, **PINNED)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)], cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s", "t_spawn": t_spawn}
    try:
        result = json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tail = proc.stderr.decode(errors="replace")[-2000:]
        result = {"error": f"worker exited with code {proc.returncode}: {tail}"}
    result["t_spawn"] = t_spawn
    result["traced"] = spec["trace"]
    result["trace_path"] = spec["trace_path"]
    return result


def run_rounds(args, root: Path, work: Path) -> list[dict]:
    """Start workers until args.seconds have passed and MIN_ROUNDS are done.

    A round is one untraced worker, or with --trace 1 one untraced and one
    traced worker, in alternating order.
    """
    started = time.monotonic()
    results = []
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - started < args.seconds:
        order = (0,) if not args.trace else ((0, 1) if rounds % 2 == 0 else (1, 0))
        for traced in order:
            i = len(results)
            spec = {
                "workload": args.workload, "seed": args.seed, "trace": traced,
                "run_id": i, "out_dir": str(work / f"out{i}"),
                "result_path": str(work / f"result{i}.json"),
                "trace_path": str(work / f"spans{i}.npz"),
                "csv_path": str(work / "data.csv"),
            }
            remaining = TIME_LIMIT_S - (time.monotonic() - started)
            results.append(spawn(spec, root, max(remaining, 1.0)))
            if "error" in results[-1]:
                return results
        rounds += 1
        if time.monotonic() - started > TIME_LIMIT_S / 2:
            break
    return results


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def worker_times(r: dict) -> dict:
    """setup_s, obs_per_s and wall_s of one worker."""
    return {
        "setup_s": r["t_ready"] - r["t_spawn"],
        "obs_per_s": r["obs"] / (r["t_run1"] - r["t_ready"]),
        "wall_s": r["t_done"] - r["t_spawn"],
    }


def end_to_end(untraced: list[dict]) -> dict:
    """Medians over the workers, except query_ms_p90.

    Query percentiles are taken per worker first. A burst of load from
    other processes on the machine lifts the tail of every query in the
    workers it overlaps, so query_ms_p90 is the lower quartile of the
    workers' p90s: it moves only when most workers' tails move.
    """
    times = [worker_times(r) for r in untraced]
    metrics = {name: statistics.median(t[name] for t in times)
               for name in ("setup_s", "obs_per_s", "wall_s")}
    metrics["query_ms_p50"] = statistics.median(
        quantile(r["latencies_ns"], 0.5) for r in untraced) / 1e6
    metrics["query_ms_p90"] = quantile(
        [quantile(r["latencies_ns"], 0.9) for r in untraced], 0.25) / 1e6
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_kb"] for r in untraced) / 1024.0
    return metrics


def traced_layers(result: dict) -> tuple[dict, float]:
    """Per-layer metrics of one traced worker and the share of its traced
    wall that the self times account for."""
    dump = spans.load(result["trace_path"])
    table = spans.layer_table(dump)
    wall = float(result["traced_wall_ns"])
    metrics = spans.layer_metrics(table, wall)
    counters = dump["counters"]
    calls = {name: row["calls"] for name, row in table.items()}
    metrics["problems.csv_stream.rows"] = calls.get("problems.csv_stream", 0)
    if calls.get("problems.gradient"):
        metrics["problems.gradient.useful_ratio"] = (
            calls.get("estimator.step", 0) / calls["problems.gradient"])
    metrics["estimator.snapshot.bytes"] = counters.get("estimator.snapshot.bytes", 0)
    metrics["experiments.emit.bytes"] = counters.get("experiments.emit.bytes", 0)
    if "experiments.run" in table:
        metrics["experiments.run.self_share"] = metrics["experiments.run.busy_share"]
    metrics["workload.self_share"] = metrics[f"{spans.ROOT_SPAN}.busy_share"]
    coverage = sum(row["self_ns"] for row in table.values()) / wall
    return metrics, coverage


def per_layer(results: list[dict]) -> tuple[dict, list[float]]:
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    layers = []
    coverages = []
    for r in traced:
        metrics, coverage = traced_layers(r)
        layers.append(metrics)
        coverages.append(coverage)
    names = sorted({name for m in layers for name in m})
    # median_low keeps counts whole when the number of traced workers is even
    table = {name: statistics.median_low(m.get(name, 0) for m in layers) for name in names}
    wall_u = statistics.median(worker_times(r)["wall_s"] for r in untraced)
    wall_t = statistics.median(worker_times(r)["wall_s"] for r in traced)
    table["trace.overhead_share"] = wall_t / wall_u - 1.0
    return table, coverages


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, to identify the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "threads_env": PINNED,
        "seed": seed,
        "commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


def account(results: list[dict], checks_ok: bool) -> tuple[int, int]:
    """Observations attempted and failed over every worker of the run.

    Skipped (Singularity) observations fail; a worker that raised loses all
    its planned observations, and if any check failed, every observation
    of the run counts as failed.
    """
    attempted = failed = 0
    for r in results:
        if "error" in r:
            planned = r.get("planned") or 1
            attempted += planned
            failed += planned
        else:
            attempted += r["obs"] + r["skipped"]
            failed += r["skipped"]
    return attempted, (failed if checks_ok else attempted)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sgdvar" / "__init__.py").is_file():
        print("bench: run from a checkout root holding src/sgdvar", file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "csv_cli_d20":
            inputs.write_csv(work / "data.csv", args.seed)
        started = time.monotonic()
        results = run_rounds(args, root, work)
        elapsed = time.monotonic() - started
        done = [r for r in results if "error" not in r]
        untraced = [r for r in done if not r["traced"]]
        if not untraced or (args.trace and len(done) == len(untraced)):
            for r in results:
                print(f"worker failed: {r.get('error')}\n{r.get('traceback', '')}",
                      file=sys.stderr)
            return 1
        checks = {}
        for name in done[0]["checks"]:
            checks[name] = all(r["checks"][name] for r in done)
        checks["no_worker_error"] = len(done) == len(results)
        checks["outputs_identical"] = len({r["digest"] for r in done}) == 1
        if args.trace:
            metrics, coverages = per_layer(done)
            checks["trace_accounts_for_wall"] = all(
                abs(c - 1.0) <= COVERAGE_TOL for c in coverages)
            reported = {name: metrics.get(name, 0) for name in PER_LAYER}
        else:
            metrics = end_to_end(untraced)
            reported = metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    correct = all(checks.values())
    attempted, failed = account(results, correct)
    env = environment(root, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workers {len(results)}  measured {elapsed:.1f} s")
    units = {name: unit_of(name) if args.trace else END_TO_END[name] for name in metrics}
    for name in sorted(metrics) if args.trace else metrics:
        print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    worst = max(r["oracle_rel_err"] for r in done)
    print("checks: " + "  ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in checks.items())
          + f"  (oracle max rel err {worst:.2e})")
    print(f"outputs sha256: {done[0]['digest']}")
    print("env: " + json.dumps(env))
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "env": env, "metrics": metrics,
            "units": units,
            "checks": checks, "oracle_rel_err": worst,
            "outputs_sha256": done[0]["digest"],
            "correct": correct, "attempted": attempted, "failed": failed,
            "workers": [worker_summary(r) for r in results],
        }
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": unit_of(name) if args.trace else END_TO_END[name]}
                    for name, value in reported.items()},
    }))
    return 0


def worker_summary(r: dict) -> dict:
    if "error" in r:
        return {"traced": r.get("traced"), "error": r["error"]}
    summary = {"traced": r["traced"], **worker_times(r)}
    if r.get("latencies_ns"):
        summary["query_ms_p50"] = quantile(r["latencies_ns"], 0.5) / 1e6
        summary["query_ms_p90"] = quantile(r["latencies_ns"], 0.9) / 1e6
    return summary


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "rows": "count", "self_us": "us", "self_ms": "ms",
            "bytes": "bytes", "useful_ratio": "ratio"}.get(suffix, "share")


if __name__ == "__main__":
    sys.exit(main())
