"""One benchmark process: set up one workload, run it once, check its outputs.

run.py starts this file in a fresh interpreter as
``python3 bench/worker.py SPEC`` where SPEC is a JSON object with keys
workload, seed, trace (0 or 1), run_id, out_dir, result_path,
trace_path and csv_path. The process writes one JSON result to
result_path. Its times are time.monotonic() readings; on Linux that is
CLOCK_MONOTONIC, the same clock the parent reads, so the parent can time
set-up from the moment it started this interpreter.

Everything after the last output is written (output checks, the query
probe, the span dump) lies outside every reported time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sgdvar  # noqa: E402
from sgdvar import (  # noqa: E402
    analysis, baselines, cli, estimator, experiments, problems, schedule,
)
from sgdvar.schedule import StepParams  # noqa: E402

import inputs  # noqa: E402

MODULES = {"problems": problems, "estimator": estimator, "analysis": analysis,
           "experiments": experiments, "cli": cli}

LEVEL = 0.95
QUERY_EVERY = 20         # observations between two mid-stream queries
PROBE_QUERIES = 1000     # queries in the probe of the experiment workloads
ORACLE_ITERATES = 200    # prefix of the first stream checked against batch_sigma
ORACLE_TOL = 1e-9        # acceptance-1 criterion
PSD_TOL = 1e-12          # times trace(Sigma)

STREAM_DIM = 100
STREAM_N = 50_000
SPHERE = dict(problem="sphere_median", dim=10, n_total=10_000,
              replications=16, points_per_decade=20, residuals=True)
THETA_STAR = (0.3, -0.2, 0.4, 0.1, -0.3)  # acceptance 7
LOGISTIC = dict(problem="logistic_synthetic", n_total=20_000, replications=10,
                splits=10, points_per_decade=5, region="ball")


def sphere_gradient(obs, h):
    return problems.quantile_gradient(obs, h)


def logistic_gradient(obs, h):
    return problems.logistic_gradient(obs, h)


def drive(stream, gradient, state, n_target, spherical, truth, latencies, outcomes):
    """Step state to n_target, querying it every QUERY_EVERY iterates.

    A query is snapshot + confidence_ball + test of the truth; its latency
    goes to latencies (ns) and its verdict to outcomes. Returns the number
    of observations skipped as Singularity.
    """
    skipped = 0
    while state.n < n_target:
        obs = next(stream)
        try:
            grad = gradient(obs, state.iterate)
        except problems.Singularity:
            skipped += 1
            continue
        estimator.step(state, grad)
        if state.n % QUERY_EVERY == 0:
            t0 = time.perf_counter_ns()
            estimator.snapshot(state)
            hit = analysis.confidence_ball(state, LEVEL, spherical=spherical).test(truth)
            latencies.append(time.perf_counter_ns() - t0)
            outcomes.append(hit)
    return skipped


class MergeCapture:
    """Stands in for estimator.merge and keeps what it saw for the output checks.

    Experiments and the CLI hand every checkpoint's states to merge, so
    this sees each final state and each merged covariance without a change
    to the package. Its cost is one extra call per merge.
    """

    def __init__(self):
        self._merge = estimator.merge
        self.states = {}
        self.merged = []
        estimator.merge = self

    def __call__(self, states, weights=None):
        states = list(states)
        merged = self._merge(states, weights)
        for st in states:
            self.states[id(st)] = st
        self.merged.append(merged)
        return merged


class StreamQuery:
    """One sphere_median stream at d=100, queried every QUERY_EVERY iterates."""

    dim = STREAM_DIM
    spherical = False

    def __init__(self, spec):
        self.seed = spec["seed"]
        self.out = Path(spec["out_dir"])
        self.params = schedule.validate(StepParams())
        self.truth = np.zeros(self.dim)
        self.gradient = sphere_gradient
        self.stream = self.first_stream()
        self.state = estimator.init(np.zeros(self.dim), self.params)
        self.planned = STREAM_N - 1

    def first_stream(self):
        return problems.sphere_sampler(self.dim, self.seed)

    def run(self):
        self.latencies, self.outcomes = [], []
        skipped = drive(self.stream, self.gradient, self.state, STREAM_N,
                        self.spherical, self.truth, self.latencies, self.outcomes)
        return self.state.n - 1, skipped

    def emit(self):
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "state.snap").write_bytes(estimator.snapshot(self.state))
        (self.out / "queries.txt").write_text(
            "".join("1" if hit else "0" for hit in self.outcomes) + "\n")

    def final_states(self):
        return [self.state], [self.state.covariance]

    def extra_checks(self):
        blob = estimator.snapshot(self.state)
        back = estimator.restore(blob)
        same = back.n == self.state.n and back.params == self.state.params and all(
            a.tobytes() == b.tobytes()
            for a, b in zip(state_arrays(back), state_arrays(self.state)))
        return {"snapshot_roundtrip": same}


class Experiment:
    """experiments.run + emit for one RunConfig."""

    def __init__(self, spec, config):
        self.seed = spec["seed"]
        self.config = experiments.validate_config(config)
        self.params = config.params
        self.dim = config.dim
        self.capture = MergeCapture()
        self.planned = config.replications * (config.n_total - config.splits)

    def run(self):
        self.result = experiments.run(self.config)
        return self.planned, self.result.skipped_singularities

    def emit(self):
        experiments.emit(self.result, self.config)

    def final_states(self):
        return list(self.capture.states.values()), self.capture.merged

    def extra_checks(self):
        return {"metrics_finite": metrics_finite(Path(self.config.output_path))}


class ReplicatedSphere(Experiment):
    """sphere_median at d=10, R replications, dense checkpoints, KS and residuals."""

    spherical = False

    def __init__(self, spec):
        super().__init__(spec, experiments.RunConfig(
            **SPHERE, seed=spec["seed"], output_path=spec["out_dir"]))
        self.truth = np.zeros(self.dim)
        self.gradient = sphere_gradient

    def first_stream(self):
        return problems.sphere_sampler(self.dim, self.seed, (0, 0))


class CoverageLogistic(Experiment):
    """logistic_synthetic at d=5, ten splits, spherical confidence ball."""

    spherical = True

    def __init__(self, spec):
        super().__init__(spec, experiments.RunConfig(
            **LOGISTIC, theta_star=np.array(THETA_STAR), params=StepParams(c_gamma=2.0),
            seed=spec["seed"], output_path=spec["out_dir"]))
        self.truth = self.config.theta_star
        self.gradient = logistic_gradient

    def first_stream(self):
        return problems.logistic_sampler(self.truth, self.config.feature_law,
                                         self.seed, (0, 0))


class CsvCli(Experiment):
    """sgdvar.cli.main on logistic_csv with four splits over a d=20 CSV."""

    spherical = False

    def __init__(self, spec):
        self.csv_path = spec["csv_path"]
        self.argv = ["--problem", "logistic_csv", "--input", self.csv_path,
                     "--n-total", str(inputs.CSV_N_TOTAL),
                     "--splits", str(inputs.CSV_SPLITS),
                     "--seed", str(spec["seed"]), "--output", spec["out_dir"]]
        super().__init__(spec, cli.build_config(cli.build_parser().parse_args(self.argv)))
        self.dim = inputs.CSV_DIM  # the run infers it from the file
        self.truth = inputs.csv_theta(self.seed)
        self.gradient = logistic_gradient

    def first_stream(self):
        # rows are dealt to the splits in turn, so split 0 reads every
        # CSV_SPLITS-th row from the first
        rows = problems.csv_stream(self.csv_path, label_column=0)
        return itertools.islice(rows, 0, None, inputs.CSV_SPLITS)

    def run(self):
        code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"sgdvar cli exited with code {code}")
        return self.planned, 0

    def emit(self):
        """cli.main has written every output already."""


WORKLOADS = {
    "stream_query_d100": StreamQuery,
    "replicated_sphere_d10": ReplicatedSphere,
    "coverage_logistic_p10": CoverageLogistic,
    "csv_cli_d20": CsvCli,
}


def peak_rss_kb() -> int:
    """High-water resident set of this process.

    VmHWM belongs to the address space made by exec; ru_maxrss would also
    count the parent's resident set at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def state_arrays(state):
    return state.iterate, state.average, state.residual_acc, state.covariance


def psd_ok(sigma) -> bool:
    """Symmetric and positive semi-definite within PSD_TOL * trace."""
    tol = PSD_TOL * abs(float(np.trace(sigma)))
    return (float(np.abs(sigma - sigma.T).max()) <= tol
            and float(np.linalg.eigvalsh(sigma)[0]) >= -tol)


def metrics_finite(out_dir: Path) -> bool:
    """Every number in the emitted metrics.jsonl is finite."""
    def finite(value):
        if isinstance(value, dict):
            return all(finite(v) for v in value.values())
        if isinstance(value, float):
            return math.isfinite(value)
        return True
    lines = (out_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    return bool(lines) and all(finite(json.loads(line)) for line in lines)


def oracle_error(workload) -> float:
    """Relative error of the recursion against batch_sigma on a prefix of
    the workload's own first stream."""
    stream = workload.first_stream()
    state = estimator.init(np.zeros(workload.dim), workload.params)
    iterates, averages = [state.iterate.copy()], [state.average.copy()]
    while state.n < ORACLE_ITERATES:
        try:
            grad = workload.gradient(next(stream), state.iterate)
        except problems.Singularity:
            continue
        estimator.step(state, grad)
        iterates.append(state.iterate.copy())
        averages.append(state.average.copy())
    traj = baselines.Trajectory(np.array(iterates), np.array(averages))
    reference = baselines.batch_sigma(traj, workload.params)
    return float(np.linalg.norm(state.covariance - reference) / np.linalg.norm(reference))


def output_digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every output file.

    meta.json enters without its wall-clock "timing" entry and without the
    output path, which differs per worker; the rest of it (the summary,
    which for a CSV run holds the final average and covariance) is as
    deterministic as the metric files.
    """
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "meta.json":
            meta = json.loads(data)
            del meta["timing"], meta["config"]["output_path"]
            data = json.dumps(meta, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest()


def check(workload) -> tuple[dict, float]:
    states, sigmas = workload.final_states()
    checks = {
        "finite": bool(states) and all(
            np.isfinite(arr).all() for st in states for arr in state_arrays(st)
        ) and all(np.isfinite(s).all() for s in sigmas),
        "psd": bool(sigmas) and all(psd_ok(s) for s in sigmas),
    }
    error = oracle_error(workload)
    checks["oracle"] = error < ORACLE_TOL
    checks.update(workload.extra_checks())
    return checks, error


def probe(workload) -> list[int]:
    """Query latencies on a fresh copy of the workload's first stream."""
    latencies = []
    state = estimator.init(np.zeros(workload.dim), workload.params)
    drive(workload.first_stream(), workload.gradient, state,
          PROBE_QUERIES * QUERY_EVERY + 1, workload.spherical, workload.truth,
          latencies, [])
    return latencies


def main(spec: dict, out: dict) -> None:
    """Run the workload once and fill out with times, counts and checks."""
    if Path(sgdvar.__file__).resolve().parent != SRC / "sgdvar":
        raise RuntimeError(f"imported sgdvar from {sgdvar.__file__}, not from {SRC}")
    recorder = None
    if spec["trace"]:
        import spans  # only traced workers pay for importing it
        recorder = spans.Recorder(spec["run_id"])
        recorder.install(MODULES)
        root = recorder.open(recorder.name_index(spans.ROOT_SPAN))
        wall0 = time.perf_counter_ns()
    workload = WORKLOADS[spec["workload"]](spec)
    out["planned"] = workload.planned
    out["t_ready"] = time.monotonic()
    out["obs"], out["skipped"] = workload.run()
    out["t_run1"] = time.monotonic()
    workload.emit()
    out["t_done"] = time.monotonic()
    if recorder is not None:
        recorder.close(root)
        out["traced_wall_ns"] = time.perf_counter_ns() - wall0
        recorder.uninstall()
        recorder.dump(spec["trace_path"])
    out["peak_rss_kb"] = peak_rss_kb()
    out["digest"] = output_digest(Path(spec["out_dir"]))
    out["checks"], out["oracle_rel_err"] = check(workload)
    if isinstance(workload, StreamQuery):
        out["latencies_ns"] = workload.latencies
    elif not spec["trace"]:
        out["latencies_ns"] = probe(workload)


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = {}
    try:
        main(spec, result)
    except Exception as exc:  # reported to the parent, which counts the run as failed
        result["error"] = f"{type(exc).__name__}: {exc}"
        result["traceback"] = traceback.format_exc()
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
