"""Command-line front end.

A run is configured by an optional JSON file mirroring RunConfig plus
flags that override individual fields. Exit codes: 0 success, 2 bad
configuration, 3 bad or exhausted input data, 4 numeric failure, 5 I/O
failure while writing results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import experiments
from .estimator import NumericError
from .experiments import ConfigError, RunConfig, PROBLEMS, FEATURE_LAWS
from .problems import DataError
from .schedule import ConstraintViolation, StepParams

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

_PARAM_FIELDS = ("c_gamma", "alpha", "s", "delta", "mu")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdvar",
        description="Averaged SGD with streaming asymptotic-covariance estimation.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--problem", choices=tuple(PROBLEMS))
    parser.add_argument("--dim", type=int)
    parser.add_argument("--n-total", type=int)
    parser.add_argument("--c-gamma", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--s", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--replications", type=int)
    parser.add_argument("--splits", type=int)
    parser.add_argument("--checkpoints", help="comma-separated iterate counts")
    parser.add_argument("--points-per-decade", type=int)
    parser.add_argument("--direction", help="comma-separated quantile direction")
    parser.add_argument("--theta-star", help="comma-separated true parameter")
    parser.add_argument("--m-init", help="comma-separated starting point")
    parser.add_argument("--feature-law", choices=FEATURE_LAWS)
    parser.add_argument("--input", dest="input_path", help="CSV file for logistic_csv")
    parser.add_argument("--label-column", type=int)
    parser.add_argument("--has-header", action="store_true", default=None)
    parser.add_argument("--remap-01", dest="remap_zero_one", action="store_true",
                        default=None, help="accept {0,1} labels and map them to {-1,+1}")
    parser.add_argument("--residuals", action="store_true", default=None,
                        help="dump normalized residual components per checkpoint")
    parser.add_argument("--level", type=float, help="confidence level for coverage")
    parser.add_argument("--region", choices=("ellipsoid", "ball"),
                        help="confidence region shape used for coverage")
    parser.add_argument("--output", dest="output_path", help="output directory")
    parser.add_argument("--format", dest="output_format", choices=("jsonl", "csv"))
    return parser


def _parse_cells(text: str, convert, what: str) -> list:
    """The non-blank comma-separated cells of a flag, each passed to convert."""
    try:
        return [convert(cell) for cell in text.split(",") if cell.strip() != ""]
    except ValueError:
        raise ConfigError(f"could not parse {what} {text!r}") from None


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file values and CLI overrides into a RunConfig."""
    data = _load_config_file(args.config) if args.config else {}
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    try:
        params = {k: float(v) for k, v in dict(data.get("params") or {}).items()}
    except (TypeError, ValueError):
        raise ConfigError(f"could not parse params {data['params']!r}") from None
    bad = set(params) - set(_PARAM_FIELDS)
    if bad:
        raise ConfigError(f"unknown params keys: {sorted(bad)}")
    for name in _PARAM_FIELDS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value

    merged = dict(data)
    merged["params"] = StepParams(**params)
    for name in ("problem", "dim", "n_total", "seed", "replications", "splits",
                 "points_per_decade", "feature_law", "input_path", "label_column",
                 "has_header", "remap_zero_one", "residuals", "level", "region",
                 "output_path", "output_format"):
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    if args.checkpoints is not None:
        merged["checkpoints"] = _parse_cells(args.checkpoints, int, "checkpoints")
    for name in ("direction", "theta_star", "m_init"):
        value = getattr(args, name)
        if value is not None:
            merged[name] = np.array(_parse_cells(value, float, "vector"))
        elif merged.get(name) is not None:
            try:
                merged[name] = np.asarray(merged[name], dtype=float)
            except (TypeError, ValueError):
                raise ConfigError(f"could not parse {name} {merged[name]!r}") from None

    if "problem" not in merged:
        raise ConfigError("a problem must be given (--problem or config file)")
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        result = experiments.run(config)
        paths = experiments.emit(result, config)
    except (ConfigError, ConstraintViolation) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    for row in result.summary["checkpoints"]:
        parts = [f"n={row['n']}", f"replications={row['replications']}"]
        for key in ("mean_frob_err_sq", "median_frob_err_sq", "mean_param_err_sq",
                    "ks_rm_pass_fraction", "ks_avg_pass_fraction", "coverage_rate"):
            if row[key] is not None:
                parts.append(f"{key}={row[key]:.6g}")
        print("  ".join(parts))
    if result.skipped_singularities:
        print(f"skipped {result.skipped_singularities} singular observations")
    print("wrote: " + " ".join(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
