"""Seeded inputs that the benchmark writes before any timing starts."""

from __future__ import annotations

import numpy as np

CSV_DIM = 20
CSV_SPLITS = 4
CSV_N_TOTAL = 100_000
# each split starts from its initial point, so n_total - splits rows are read
CSV_ROWS = CSV_N_TOTAL - CSV_SPLITS


def csv_theta(seed: int) -> np.ndarray:
    """True parameter of the labeled CSV for this seed."""
    return np.random.default_rng([seed, 1]).normal(0.0, 0.4, CSV_DIM)


def write_csv(path, seed: int) -> None:
    """CSV_ROWS labeled rows: label in {-1, +1} in column 0, then CSV_DIM features.

    Features are standard normal, rounded to six decimals as written;
    P(label = +1 | x) = sigmoid(<x, csv_theta(seed)>).
    """
    gen = np.random.default_rng([seed, 2])
    x = np.round(gen.normal(size=(CSV_ROWS, CSV_DIM)), 6)
    p = 1.0 / (1.0 + np.exp(-(x @ csv_theta(seed))))
    labels = np.where(gen.random(CSV_ROWS) < p, 1, -1)
    np.savetxt(path, np.column_stack([labels, x]), delimiter=",",
               fmt=["%d"] + ["%.6f"] * CSV_DIM)
