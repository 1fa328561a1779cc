"""Experiment runner: one problem table, one runner loop, output files.

PROBLEMS defines each problem once: its streams, gradient and known
truths. run() opens one stream per split and replication and steps all
streams of a group of replications in lock step, as one estimator block.
Synthetic split p of replication r draws from its own
substream of (seed, r, p), so runs are bit-reproducible and records do
not depend on execution order; the splits of a CSV run share the file's
row iterator, which deals row i to split i mod splits. Indices follow the
estimator convention: a checkpoint at n covers n iterates in total across
splits, i.e. each of the p substreams has reached iterate index n/p.
"""

from __future__ import annotations

import itertools
import json
import numbers
import statistics
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, analysis, estimator, problems, schedule
from .analysis import KsResult
from .schedule import StepParams

FEATURE_LAWS = ("standard_normal", "uniform_cube")

# p-value cutoff used for the KS pass fractions reported in summaries.
KS_PASS_LEVEL = 0.05

# Most floats of estimator state that one group of lock-stepped
# replications may hold (32 MiB); a replication that needs more runs alone.
GROUP_FLOATS = 2**22


class ConfigError(ValueError):
    """The run configuration is inconsistent or incomplete."""


@dataclass
class RunConfig:
    """Everything one experiment run depends on."""

    problem: str
    dim: int | None = None
    n_total: int = 0
    params: StepParams = field(default_factory=StepParams)
    seed: int = 0
    replications: int = 1
    splits: int = 1
    checkpoints: list[int] | None = None
    points_per_decade: int = 10
    direction: np.ndarray | None = None
    theta_star: np.ndarray | None = None
    feature_law: str = "standard_normal"
    input_path: str | None = None
    label_column: int = 0
    has_header: bool = False
    remap_zero_one: bool = False
    output_path: str = "out"
    output_format: str = "jsonl"
    residuals: bool = False
    m_init: np.ndarray | None = None
    level: float = 0.95
    region: str = "ellipsoid"


@dataclass
class MetricsRecord:
    """One (checkpoint, replication) row of an experiment run."""

    n: int
    replication: int
    frob_err_sq: float | None
    param_err_sq: float | None
    ks_rm: KsResult | None
    ks_avg: KsResult | None
    coverage_hit: bool | None


@dataclass
class RunResult:
    """Records plus aggregates of one run."""

    records: list[MetricsRecord]
    summary: dict
    residuals: dict[int, list[tuple[int, int, float, float]]]
    skipped_singularities: int
    total_wall_ms: float


def default_checkpoints(n_total: int, splits: int, points_per_decade: int) -> list[int]:
    """Geometric checkpoint grid, snapped to multiples of the split count."""
    grid = {n_total}
    i = points_per_decade  # start the grid at n = 10
    while True:
        value = round(10.0 ** (i / points_per_decade))
        if value >= n_total:
            break
        snapped = max(2 * splits, round(value / splits) * splits)
        if snapped <= n_total:
            grid.add(snapped)
        i += 1
    return sorted(grid)


def _standard_schedule(params: StepParams) -> bool:
    """c_gamma = 1 and alpha = 2/3, where the sphere's normal limit is known."""
    return abs(params.c_gamma - 1.0) <= 1e-12 and abs(params.alpha - 2.0 / 3.0) <= 1e-12


# Scalar RunConfig fields by the type they must hold; dim and input_path
# may also be None. Checked before any of them is compared or looked up.
# A bool only counts as a bool, not as the integer or number it also is.
_FIELD_TYPES = (
    ("an integer", numbers.Integral, ("dim", "n_total", "seed", "replications", "splits",
                                      "points_per_decade", "label_column")),
    ("a number", numbers.Real, ("level",)),
    ("a string", str, ("problem", "feature_law", "input_path", "output_path",
                       "output_format", "region")),
    ("true or false", bool, ("has_header", "remap_zero_one", "residuals")),
)


def validate_config(config: RunConfig) -> RunConfig:
    """Check cross-field consistency and fill derived defaults in place."""
    for kind, cls, names in _FIELD_TYPES:
        for name in names:
            value = getattr(config, name)
            wrong = isinstance(value, bool) != (cls is bool) or not isinstance(value, cls)
            if wrong and not (value is None and name in ("dim", "input_path")):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
    problem = PROBLEMS.get(config.problem)
    if problem is None:
        raise ConfigError(f"unknown problem {config.problem!r}; choose from {tuple(PROBLEMS)}")
    schedule.validate(config.params)
    for name, least in (("n_total", 2), ("replications", 1), ("splits", 1),
                        ("points_per_decade", 1), ("label_column", 0)):
        if getattr(config, name) < least:
            raise ConfigError(f"{name} must be >= {least}, got {getattr(config, name)}")
    if config.n_total % config.splits != 0:
        raise ConfigError(
            f"n_total={config.n_total} must be divisible by splits={config.splits}"
        )
    if config.n_total // config.splits < 2:
        raise ConfigError("each split needs at least 2 iterates")
    if not 0.0 < 1.0 - config.level < 1.0:
        raise ConfigError(
            "level must lie strictly between 0 and 1, and above ~1.1e-16 so that 1 - level < 1")
    if config.region not in ("ellipsoid", "ball"):
        raise ConfigError(f"unknown region shape {config.region!r}")
    if config.output_format not in ("jsonl", "csv"):
        raise ConfigError(f"unknown output format {config.output_format!r}")

    for name in ("direction", "theta_star", "input_path"):
        if (getattr(config, name) is None) == (name == problem.field):
            verb = "requires" if name == problem.field else "does not take"
            raise ConfigError(f"{config.problem} {verb} {name}")
    problem.check(config)

    if config.residuals:
        if not problem.ks or config.splits != 1:
            raise ConfigError("residual dumps require sphere_median with splits=1")
        if not _standard_schedule(config.params):
            raise ConfigError("residual dumps require c_gamma=1 and alpha=2/3")

    if config.checkpoints is None:
        config.checkpoints = default_checkpoints(
            config.n_total, config.splits, config.points_per_decade
        )
    else:
        try:
            cps = sorted(set(int(c) for c in config.checkpoints))
        except (TypeError, ValueError):
            raise ConfigError(f"could not parse checkpoints {config.checkpoints!r}") from None
        for cp in cps:
            if cp % config.splits != 0:
                raise ConfigError(f"checkpoint {cp} is not a multiple of splits")
            if not 2 * config.splits <= cp <= config.n_total:
                raise ConfigError(f"checkpoint {cp} outside [2*splits, n_total]")
        if not cps:
            raise ConfigError("checkpoints must not be empty")
        config.checkpoints = cps

    if config.m_init is not None:
        config.m_init = np.asarray(config.m_init, dtype=float).reshape(-1)
        if not np.isfinite(config.m_init).all():
            raise ConfigError("m_init contains non-finite values")
        if config.dim is not None and config.m_init.shape[0] != config.dim:
            raise ConfigError("m_init length does not match dim")
    return config


def _check_sphere(config: RunConfig) -> None:
    if config.dim is None or config.dim < 3:
        raise ConfigError(f"{config.problem} requires dim >= 3")


def _check_quantile(config: RunConfig) -> None:
    try:
        config.direction = problems.quantile_direction(config.direction)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _check_sphere(config)
    if config.direction.shape[0] != config.dim:
        raise ConfigError("direction length does not match dim")


def _check_logistic(config: RunConfig) -> None:
    config.theta_star = np.asarray(config.theta_star, dtype=float).reshape(-1)
    if not config.theta_star.size:
        raise ConfigError("theta_star must not be empty")
    if not np.isfinite(config.theta_star).all():
        raise ConfigError("theta_star contains non-finite values")
    if config.dim is None:
        config.dim = config.theta_star.shape[0]
    elif config.dim != config.theta_star.shape[0]:
        raise ConfigError("dim does not match the length of theta_star")
    if config.feature_law not in FEATURE_LAWS:
        raise ConfigError(f"unknown feature law {config.feature_law!r}")


def _check_csv(config: RunConfig) -> None:
    if config.replications != 1:
        raise ConfigError("logistic_csv runs a fixed file; replications must be 1")


def _per_split(sampler):
    """open() of a synthetic problem: sampler(config, (replication, p)) for split p."""
    return lambda config, rep: [sampler(config, (rep, p)) for p in range(config.splits)]


_open_spheres = _per_split(lambda c, path: problems.sphere_sampler(c.dim, c.seed, path))


def _input_ended(config: RunConfig, rows: int) -> problems.DataError:
    needed = config.n_total - config.splits  # observations for all splits
    return problems.DataError(
        f"input ended after {rows} rows; {needed} required for n_total={config.n_total}"
    )


def _open_csv(config: RunConfig, replication: int) -> list:
    """One row iterator shared by every split; the first row fixes the dimension."""
    try:
        rows = problems.csv_stream(
            config.input_path,
            label_column=config.label_column,
            has_header=config.has_header,
            remap_zero_one=config.remap_zero_one,
        )
        first = next(rows, None)
    except OSError as exc:
        raise problems.DataError(f"cannot read {config.input_path}: {exc}") from exc
    if first is None:
        raise _input_ended(config, 0)
    d = first.features.shape[0]
    if config.dim is None:
        config.dim = d
    elif config.dim != d:
        raise problems.DataError(f"file has {d} features but config.dim={config.dim}")
    if config.m_init is not None and config.m_init.shape[0] != d:
        raise ConfigError("m_init length does not match the file dimension")
    return [itertools.chain([first], rows)] * config.splits


def _quantile_gradient(config: RunConfig):
    direction = config.direction  # None for the median
    return lambda obs, h: problems.quantile_gradient(obs, h, direction)


def _logistic_gradient(config: RunConfig):
    # read from the module per run, so a wrapper installed there is called
    return problems.logistic_gradient


@dataclass(frozen=True)
class Problem:
    """One entry of PROBLEMS: field is the RunConfig field only this problem takes.

    open(config, replication) gives one observation iterator per split,
    gradient(config) the oracle g(obs, h), truths(config) the parameter and
    covariance truths (None where unknown). The flags add KS tests and residual
    dumps, coverage hits, and the final average and covariance to the outputs.
    """

    field: str | None
    check: Callable[[RunConfig], None]
    open: Callable[[RunConfig, int], list]
    gradient: Callable[[RunConfig], Callable]
    truths: Callable[[RunConfig], tuple] = lambda config: (None, None)
    ks: bool = False
    coverage: bool = False
    final_state: bool = False


PROBLEMS = {
    "sphere_median": Problem(
        None, _check_sphere, _open_spheres, _quantile_gradient,
        truths=lambda c: (
            np.zeros(c.dim), analysis.sphere_references(c.dim).average_covariance),
        ks=True,
    ),
    "geometric_quantile": Problem(
        "direction", _check_quantile, _open_spheres, _quantile_gradient,
    ),
    "logistic_synthetic": Problem(
        "theta_star", _check_logistic,
        _per_split(lambda c, path: problems.logistic_sampler(
            c.theta_star, c.feature_law, c.seed, path)),
        _logistic_gradient, truths=lambda c: (c.theta_star, None), coverage=True,
    ),
    "logistic_csv": Problem(
        "input_path", _check_csv, _open_csv, _logistic_gradient, final_state=True,
    ),
}


def _groups(config: RunConfig, problem: Problem):
    """Yield (replications, streams) for each group of lock-stepped replications.

    A group holds as many replications as fit in GROUP_FLOATS of state, and
    at least one; its streams are listed replication by replication, each in
    split order.
    """
    rep = 0
    while rep < config.replications:
        streams = problem.open(config, rep)  # fixes config.dim of a CSV run
        d = config.dim
        per_rep = config.splits * d * (d + estimator.FOLD_ROWS + 3)
        reps = range(rep, min(config.replications, rep + max(1, GROUP_FLOATS // per_rep)))
        for r in reps[1:]:
            streams += problem.open(config, r)
        yield reps, streams
        rep = reps.stop


def _advance(config: RunConfig, block, streams, target: int, gradient) -> int:
    """Step every stream of block to iterate index target; returns the skipped count.

    Each round gives one observation to each stream in stream order, so
    splits sharing one iterator get item i dealt to split i mod splits, and
    then steps the block once on the gathered gradients. A stream skips a
    singular observation and takes the next one from its stream in its turn.
    """
    skipped = 0
    grads = np.empty_like(block.iterate)
    turns = list(zip(streams, block.iterate, grads))
    for _ in range(target - block.n):
        for k, (stream, iterate, grad) in enumerate(turns):
            for obs in stream:
                try:
                    grad[:] = gradient(obs, iterate)
                except problems.Singularity:
                    skipped += 1
                    continue
                break
            else:
                raise _input_ended(config, (block.n - 1) * len(turns) + k)
        estimator.step(block, grads)
    return skipped


def run(config: RunConfig) -> RunResult:
    """Execute the configured experiment and collect records and summaries."""
    validate_config(config)
    problem = PROBLEMS[config.problem]
    gradient = problem.gradient(config)
    truth_point, truth_sigma = problem.truths(config)
    ks_ready = problem.ks and config.splits == 1 and _standard_schedule(config.params)
    records = []
    residual_rows: dict[int, list] = {cp: [] for cp in config.checkpoints}
    skipped = 0
    t_start = time.perf_counter()
    for reps, streams in _groups(config, problem):
        d = config.dim
        m_init = config.m_init if config.m_init is not None else np.zeros(d)
        block = estimator.init(np.tile(m_init, (len(streams), 1)), config.params)
        views = estimator.views(block)
        for cp in config.checkpoints:
            skipped += _advance(config, block, streams, cp // config.splits, gradient)
            for j, rep in enumerate(reps):
                states = views[j * config.splits:(j + 1) * config.splits]
                merged = estimator.merge(states)
                avg = np.mean([st.average for st in states], axis=0)
                frob_err_sq = None
                param_err_sq = None
                ks_rm = ks_avg = None
                coverage_hit = None
                if truth_sigma is not None:
                    frob_err_sq = analysis.frobenius_error(merged, truth_sigma) ** 2
                if truth_point is not None:
                    diff = avg - truth_point
                    param_err_sq = float(diff @ diff)
                if ks_ready:
                    solo = states[0]
                    q_rm = analysis.normalize_iterate(
                        solo.iterate, truth_point, solo.n, d, config.params
                    )
                    q_avg = analysis.normalize_average(solo.average, truth_point, solo.n, d)
                    ks_rm = analysis.ks_normal(q_rm)
                    ks_avg = analysis.ks_normal(q_avg)
                    if config.residuals:
                        residual_rows[cp].extend(
                            (rep, i, float(q_rm[i]), float(q_avg[i])) for i in range(d)
                        )
                if problem.coverage:
                    # the mean of split averages obeys the same limit law as
                    # one full-stream average at the pooled count cp
                    region = analysis.confidence_region(
                        avg, merged, cp, config.level, spherical=config.region == "ball"
                    )
                    coverage_hit = bool(region.test(truth_point))
                records.append(MetricsRecord(
                    n=cp,
                    replication=rep,
                    frob_err_sq=frob_err_sq,
                    param_err_sq=param_err_sq,
                    ks_rm=ks_rm,
                    ks_avg=ks_avg,
                    coverage_hit=coverage_hit,
                ))
    total_ms = (time.perf_counter() - t_start) * 1e3
    records.sort(key=lambda r: (r.replication, r.n))
    summary = _summarize(records, config)
    if problem.final_state:
        summary["final_average"] = [float(v) for v in avg]
        summary["final_covariance"] = [[float(v) for v in row] for row in merged]
    return RunResult(
        records=records,
        summary=summary,
        residuals=residual_rows if config.residuals else {},
        skipped_singularities=skipped,
        total_wall_ms=total_ms,
    )


def _summarize(records: list[MetricsRecord], config: RunConfig) -> dict:
    """Cross-replication aggregates per checkpoint, in sorted record order."""
    ordered = sorted(records, key=lambda r: (r.replication, r.n))
    by_n: dict[int, list[MetricsRecord]] = {}
    for rec in ordered:
        by_n.setdefault(rec.n, []).append(rec)
    rows = []
    for n in sorted(by_n):
        group = by_n[n]
        frob = [r.frob_err_sq for r in group if r.frob_err_sq is not None]
        param = [r.param_err_sq for r in group if r.param_err_sq is not None]
        ks_rm = [r.ks_rm.p_value for r in group if r.ks_rm is not None]
        ks_avg = [r.ks_avg.p_value for r in group if r.ks_avg is not None]
        hits = [r.coverage_hit for r in group if r.coverage_hit is not None]
        rows.append({
            "n": n,
            "replications": len(group),
            "mean_frob_err_sq": sum(frob) / len(frob) if frob else None,
            "median_frob_err_sq": statistics.median(frob) if frob else None,
            "mean_param_err_sq": sum(param) / len(param) if param else None,
            "ks_rm_pass_fraction":
                sum(p >= KS_PASS_LEVEL for p in ks_rm) / len(ks_rm) if ks_rm else None,
            "ks_avg_pass_fraction":
                sum(p >= KS_PASS_LEVEL for p in ks_avg) / len(ks_avg) if ks_avg else None,
            "coverage_rate": sum(hits) / len(hits) if hits else None,
        })
    return {"problem": config.problem, "checkpoints": rows}


def _fmt(value) -> str:
    """Fixed serialization: 17 significant digits, lossless round-trip."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _json_value(value) -> str:
    return "null" if value is None else _fmt(value)


def _record_json(rec: MetricsRecord) -> str:
    parts = [
        f'"n": {rec.n}',
        f'"replication": {rec.replication}',
        f'"frob_err_sq": {_json_value(rec.frob_err_sq)}',
        f'"param_err_sq": {_json_value(rec.param_err_sq)}',
    ]
    for name, ks in (("ks_rm", rec.ks_rm), ("ks_avg", rec.ks_avg)):
        if ks is None:
            parts.append(f'"{name}": null')
        else:
            parts.append(
                f'"{name}": {{"statistic": {_fmt(ks.statistic)}, '
                f'"p_value": {_fmt(ks.p_value)}, "sample_size": {ks.sample_size}}}'
            )
    parts.append(f'"coverage_hit": {_json_value(rec.coverage_hit)}')
    return "{" + ", ".join(parts) + "}"


_CSV_HEADER = (
    "n,replication,frob_err_sq,param_err_sq,"
    "ks_rm_statistic,ks_rm_p_value,ks_rm_sample_size,"
    "ks_avg_statistic,ks_avg_p_value,ks_avg_sample_size,coverage_hit"
)


def _record_csv(rec: MetricsRecord) -> str:
    cells = [str(rec.n), str(rec.replication), _fmt(rec.frob_err_sq), _fmt(rec.param_err_sq)]
    for ks in (rec.ks_rm, rec.ks_avg):
        if ks is None:
            cells.extend(["", "", ""])
        else:
            cells.extend([_fmt(ks.statistic), _fmt(ks.p_value), str(ks.sample_size)])
    cells.append(_fmt(rec.coverage_hit))
    return ",".join(cells)


def _config_dict(config: RunConfig) -> dict:
    raw = asdict(config)
    raw["params"] = asdict(config.params)
    for key in ("direction", "theta_star", "m_init"):
        if raw[key] is not None:
            raw[key] = [float(v) for v in raw[key]]
    return raw


def emit(result: RunResult, config: RunConfig, out_dir: str | None = None) -> list[str]:
    """Write metric, residual, and metadata files; returns the paths written.

    Metric and residual files are byte-identical across reruns of the
    same (config, seed): records are sorted by (replication, n), floats
    are printed with 17 significant digits, and timings stay out of them
    (wall-clock aggregates go to meta.json only).
    """
    out = Path(out_dir if out_dir is not None else config.output_path)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    ordered = sorted(result.records, key=lambda r: (r.replication, r.n))
    if config.output_format == "csv":
        metrics_path = out / "metrics.csv"
        lines = [_CSV_HEADER] + [_record_csv(r) for r in ordered]
    else:
        metrics_path = out / "metrics.jsonl"
        lines = [_record_json(r) for r in ordered]
    metrics_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(str(metrics_path))

    for cp in sorted(result.residuals):
        rows = sorted(result.residuals[cp])
        path = out / f"residuals_n{cp}.csv"
        body = ["replication,component,normalized_iterate,normalized_average"]
        body.extend(
            f"{rep},{comp},{_fmt(q_rm)},{_fmt(q_avg)}" for rep, comp, q_rm, q_avg in rows
        )
        path.write_text("\n".join(body) + "\n", encoding="utf-8")
        written.append(str(path))

    meta = {
        "package": "sgdvar",
        "version": __version__,
        "generator": problems.GENERATOR,
        "config": _config_dict(config),
        "summary": result.summary,
        "skipped_singularities": result.skipped_singularities,
        "timing": {"total_ms": result.total_wall_ms},
    }
    meta_path = out / "meta.json"
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    written.append(str(meta_path))
    return written
