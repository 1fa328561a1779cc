import json
import random

import numpy as np
import pytest

from sgdvar import analysis, cli, estimator, experiments, problems
from sgdvar.experiments import ConfigError, RunConfig
from sgdvar.schedule import StepParams


def sphere_config(**overrides):
    base = dict(problem="sphere_median", dim=3, n_total=200, seed=11,
                replications=1, checkpoints=[100, 200])
    base.update(overrides)
    return RunConfig(**base)


def test_default_checkpoints_geometric_grid():
    cps = experiments.default_checkpoints(1000, 1, 10)
    assert cps[0] >= 2
    assert cps[-1] == 1000
    assert cps == sorted(set(cps))
    assert 10 in cps and 100 in cps

    cps4 = experiments.default_checkpoints(1000, 4, 5)
    assert all(c % 4 == 0 for c in cps4)
    assert cps4[-1] == 1000
    assert all(c >= 8 for c in cps4)


def test_validate_config_rejects_inconsistent_fields():
    cases = [
        dict(problem="banana", dim=3, n_total=100),
        dict(problem="sphere_median", dim=3, n_total=1),
        dict(problem="sphere_median", dim=3, n_total=100, splits=3),
        dict(problem="sphere_median", dim=2, n_total=100),
        dict(problem="sphere_median", n_total=100),
        dict(problem="geometric_quantile", dim=3, n_total=100),
        dict(problem="sphere_median", dim=3, n_total=100,
             direction=np.array([0.1, 0.0, 0.0])),
        dict(problem="sphere_median", dim=3, n_total=100,
             theta_star=np.zeros(3)),
        dict(problem="logistic_csv", n_total=100),
        dict(problem="logistic_csv", n_total=100, input_path="x.csv",
             replications=2),
        dict(problem="sphere_median", dim=3, n_total=100, input_path="x.csv"),
        dict(problem="logistic_synthetic", n_total=100),
        dict(problem="logistic_synthetic", n_total=100,
             theta_star=np.array([0.1, 0.2]), dim=5),
        dict(problem="logistic_synthetic", n_total=100,
             theta_star=np.array([0.1, 0.2]), feature_law="cauchy"),
        dict(problem="geometric_quantile", dim=3, n_total=100,
             direction=np.array([0.1, 0.0, 0.0]), residuals=True),
        dict(problem="sphere_median", dim=3, n_total=100, residuals=True,
             params=StepParams(alpha=0.75)),
        dict(problem="sphere_median", dim=3, n_total=100, residuals=True,
             splits=2),
        dict(problem="sphere_median", dim=3, n_total=100, checkpoints=[50, 101]),
        dict(problem="sphere_median", dim=3, n_total=100, splits=2,
             checkpoints=[51]),
        dict(problem="sphere_median", dim=3, n_total=100, splits=2,
             checkpoints=[2]),
        dict(problem="sphere_median", dim=3, n_total=100, output_format="xml"),
        dict(problem="sphere_median", dim=3, n_total=100, level=1.0),
        dict(problem="sphere_median", dim=3, n_total=100, region="cube"),
        dict(problem="sphere_median", dim=3, n_total=100,
             m_init=np.zeros(4)),
    ]
    for kwargs in cases:
        with pytest.raises(ConfigError):
            experiments.validate_config(RunConfig(**kwargs))


def test_validate_config_fills_defaults():
    config = RunConfig(problem="sphere_median", dim=4, n_total=500)
    experiments.validate_config(config)
    assert config.checkpoints is not None
    assert config.checkpoints[-1] == 500

    config = RunConfig(problem="geometric_quantile", dim=3, n_total=100,
                       direction=np.array([3.0, 0.0, 0.0]), checkpoints=[100])
    with pytest.raises(ValueError):
        experiments.validate_config(config)  # direction norm must be < 1
    config = RunConfig(problem="geometric_quantile", dim=3, n_total=100,
                       direction=np.array([0.3, 0.0, 0.0]), checkpoints=[100])
    experiments.validate_config(config)
    assert config.direction.shape == (3,)

    config = RunConfig(problem="logistic_synthetic", n_total=100,
                       theta_star=np.array([0.2, -0.1]), checkpoints=[100])
    experiments.validate_config(config)
    assert config.dim == 2


def test_sphere_run_records_and_summary():
    config = sphere_config(replications=2)
    result = experiments.run(config)
    assert len(result.records) == 4
    assert sorted((r.replication, r.n) for r in result.records) == [
        (0, 100), (0, 200), (1, 100), (1, 200)]
    for rec in result.records:
        assert rec.frob_err_sq is not None and rec.frob_err_sq >= 0.0
        assert rec.param_err_sq is not None and rec.param_err_sq >= 0.0
        # default schedule keeps the normal limit usable, so KS fields fill
        assert rec.ks_rm is not None and 0.0 <= rec.ks_rm.p_value <= 1.0
        assert rec.ks_avg is not None
        assert rec.coverage_hit is None
    rows = result.summary["checkpoints"]
    assert [row["n"] for row in rows] == [100, 200]
    assert all(row["replications"] == 2 for row in rows)
    assert rows[0]["mean_frob_err_sq"] > 0.0
    assert rows[0]["coverage_rate"] is None


def test_split_run_matches_manual_merge():
    config = sphere_config(splits=2, checkpoints=[200], seed=3)
    result = experiments.run(config)
    rec = result.records[0]

    # replay the two substreams by hand: each split advances to 200/2 iterates
    states = []
    for p in range(2):
        stream = problems.sphere_sampler(3, seed=3, path=(0, p))
        state = estimator.init(np.zeros(3), config.params)
        while state.n < 100:
            estimator.step(state, problems.quantile_gradient(next(stream), state.iterate))
        states.append(state)
    merged = estimator.merge(states)
    refs = analysis.sphere_references(3)
    expected_frob = analysis.frobenius_error(merged, refs.average_covariance) ** 2
    assert rec.frob_err_sq == pytest.approx(expected_frob, rel=1e-12)
    avg = (states[0].average + states[1].average) / 2.0
    assert rec.param_err_sq == pytest.approx(float(avg @ avg), rel=1e-12)
    # splits disable the single-stream normal diagnostics
    assert rec.ks_rm is None and rec.ks_avg is None


def test_split_run_skips_singular_observations_per_split(monkeypatch):
    def gradient(obs, h, v=None):
        if obs.features[0] > 0.8:  # about 1 in 10 points of the sphere in R^3
            raise problems.Singularity("forced")
        return quantile_gradient(obs, h, v)

    quantile_gradient = problems.quantile_gradient
    monkeypatch.setattr(problems, "quantile_gradient", gradient)
    config = sphere_config(splits=2, checkpoints=[100, 200], seed=3)
    result = experiments.run(config)

    # replay: each split draws its own substream and skips the same points
    states, skipped = [], 0
    for p in range(2):
        stream = problems.sphere_sampler(3, seed=3, path=(0, p))
        state = estimator.init(np.zeros(3), config.params)
        while state.n < 100:
            try:
                estimator.step(state, gradient(next(stream), state.iterate))
            except problems.Singularity:
                skipped += 1
        states.append(state)
    assert result.skipped_singularities == skipped > 0
    avg = (states[0].average + states[1].average) / 2.0
    assert result.records[-1].param_err_sq == float(avg @ avg)


def test_ks_skipped_off_the_standard_schedule():
    config = sphere_config(params=StepParams(alpha=0.75, s=0.92))
    result = experiments.run(config)
    for rec in result.records:
        assert rec.ks_rm is None and rec.ks_avg is None
        assert rec.frob_err_sq is not None


def test_logistic_coverage_flag():
    theta = np.array([0.3, -0.2, 0.1])
    config = RunConfig(problem="logistic_synthetic", n_total=400, seed=5,
                       theta_star=theta, checkpoints=[400])
    result = experiments.run(config)
    assert isinstance(result.records[0].coverage_hit, bool)
    assert result.records[0].frob_err_sq is None  # no covariance truth here
    assert result.summary["checkpoints"][0]["coverage_rate"] in (0.0, 1.0)

    # split runs test the pooled average against the merged covariance
    config = RunConfig(problem="logistic_synthetic", n_total=400, seed=5,
                       theta_star=theta, splits=2, checkpoints=[400])
    result = experiments.run(config)
    assert isinstance(result.records[0].coverage_hit, bool)

    # the ball region contains the ellipsoid whenever the ellipsoid hits
    ell = RunConfig(problem="logistic_synthetic", n_total=400, seed=5,
                    theta_star=theta, checkpoints=[400])
    ball = RunConfig(problem="logistic_synthetic", n_total=400, seed=5,
                     theta_star=theta, checkpoints=[400], region="ball")
    hit_ell = experiments.run(ell).records[0].coverage_hit
    hit_ball = experiments.run(ball).records[0].coverage_hit
    assert isinstance(hit_ball, bool)
    if hit_ell:
        assert hit_ball


def test_emitted_files_are_byte_identical_across_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        config = sphere_config(replications=2, residuals=True,
                               checkpoints=[50, 100], n_total=100)
        result = experiments.run(config)
        experiments.emit(result, config, out_dir=str(out))
    for name in ("metrics.jsonl", "residuals_n50.csv", "residuals_n100.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    meta_a = json.loads((out_a / "meta.json").read_text())
    meta_b = json.loads((out_b / "meta.json").read_text())
    meta_a.pop("timing")
    meta_b.pop("timing")
    assert meta_a == meta_b


def emitted_bytes(config, out):
    """Every output file's bytes, meta.json without its wall-clock timing."""
    experiments.emit(experiments.run(config), config, out_dir=str(out))
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    meta = json.loads(files.pop("meta.json"))
    assert list(meta.pop("timing")) == ["total_ms"]
    return files, meta


@pytest.mark.parametrize("overrides", [
    dict(replications=3, residuals=True, checkpoints=[50, 100], n_total=100),
    dict(problem="logistic_synthetic", dim=None, theta_star=np.array([0.3, -0.2, 0.1]),
         replications=3, splits=2, n_total=400, checkpoints=[100, 400]),
], ids=["sphere_residuals", "logistic_splits"])
def test_one_replication_per_group_gives_the_same_bytes(tmp_path, monkeypatch, overrides):
    together = emitted_bytes(sphere_config(**overrides), tmp_path / "together")
    monkeypatch.setattr(experiments, "GROUP_FLOATS", 1)
    alone = emitted_bytes(sphere_config(**overrides), tmp_path / "alone")
    assert alone == together


@pytest.mark.parametrize("overrides, groups", [
    # acceptance 7 and acceptance 3 each run as one block
    (dict(problem="logistic_synthetic", dim=None, theta_star=np.zeros(5),
          replications=200, splits=10, n_total=50_000), 1),
    (dict(dim=10, replications=50, n_total=100_000), 1),
    (dict(dim=300, replications=2000, n_total=1000), 47),
], ids=["acceptance_7", "acceptance_3", "d300_r2000"])
def test_replication_groups_bound_the_state(overrides, groups):
    config = experiments.validate_config(sphere_config(**overrides, checkpoints=None))
    problem = experiments.PROBLEMS[config.problem]
    per_stream = config.dim * (config.dim + estimator.FOLD_ROWS + 3)
    seen = []
    for reps, streams in experiments._groups(config, problem):
        assert len(streams) == len(reps) * config.splits
        assert len(streams) * per_stream <= experiments.GROUP_FLOATS
        seen.append(reps)
    assert len(seen) == groups
    assert [rep for reps in seen for rep in reps] == list(range(config.replications))


def test_run_hands_merge_the_same_states_at_every_checkpoint(monkeypatch):
    merge = estimator.merge
    calls = []

    def recording_merge(states):
        calls.append([id(st) for st in states])
        return merge(states)

    monkeypatch.setattr(estimator, "merge", recording_merge)
    config = sphere_config(replications=3, splits=2, checkpoints=[50, 100, 200])
    experiments.run(config)
    assert len(calls) == 3 * 3 and all(len(ids) == 2 for ids in calls)
    per_checkpoint = [sorted(sum(calls[i:i + 3], [])) for i in range(0, 9, 3)]
    assert len(set(per_checkpoint[0])) == 3 * 2
    assert per_checkpoint[0] == per_checkpoint[1] == per_checkpoint[2]


def test_metrics_jsonl_rows_parse_and_are_sorted(tmp_path):
    config = sphere_config(replications=3, checkpoints=[100, 200])
    result = experiments.run(config)
    paths = experiments.emit(result, config, out_dir=str(tmp_path))
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [(r["replication"], r["n"]) for r in rows] == [
        (0, 100), (0, 200), (1, 100), (1, 200), (2, 100), (2, 200)]
    assert list(rows[0]) == ["n", "replication", "frob_err_sq", "param_err_sq",
                             "ks_rm", "ks_avg", "coverage_hit"]
    assert rows[0]["ks_rm"]["sample_size"] == 3
    assert "wall_time_ms" not in rows[0]
    assert str(tmp_path / "meta.json") in paths


def test_metrics_csv_layout(tmp_path):
    config = sphere_config(output_format="csv", checkpoints=[100])
    result = experiments.run(config)
    experiments.emit(result, config, out_dir=str(tmp_path))
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == ("n,replication,frob_err_sq,param_err_sq,"
                        "ks_rm_statistic,ks_rm_p_value,ks_rm_sample_size,"
                        "ks_avg_statistic,ks_avg_p_value,ks_avg_sample_size,"
                        "coverage_hit")
    cells = lines[1].split(",")
    assert cells[0] == "100" and cells[1] == "0"
    assert float(cells[2]) > 0.0
    assert cells[10] == ""  # no coverage on this problem


def test_summary_ignores_record_order():
    config = sphere_config(replications=3)
    result = experiments.run(config)
    shuffled = result.records[:]
    random.Random(0).shuffle(shuffled)
    assert experiments._summarize(shuffled, config) == result.summary


def test_residual_rows_cover_components(tmp_path):
    config = sphere_config(dim=4, n_total=100, replications=3,
                           residuals=True, checkpoints=[50, 100])
    result = experiments.run(config)
    assert set(result.residuals) == {50, 100}
    assert len(result.residuals[50]) == 3 * 4
    experiments.emit(result, config, out_dir=str(tmp_path))
    lines = (tmp_path / "residuals_n50.csv").read_text().splitlines()
    assert lines[0] == "replication,component,normalized_iterate,normalized_average"
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[2]); float(first[3])


def write_csv(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def csv_rows(k, d=2, seed=0):
    gen = np.random.default_rng(seed)
    rows = []
    for _ in range(k):
        x = gen.normal(size=d)
        y = 1 if gen.random() < 0.5 else -1
        rows.append(",".join([str(y)] + [f"{v:.6f}" for v in x]))
    return rows


def test_csv_run_infers_dim_and_reports_final_state(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(data, csv_rows(10))
    config = RunConfig(problem="logistic_csv", n_total=12, splits=2,
                       input_path=str(data), checkpoints=[4, 12])
    result = experiments.run(config)
    assert config.dim == 2
    assert [rec.n for rec in result.records] == [4, 12]
    assert len(result.summary["final_average"]) == 2
    cov = np.array(result.summary["final_covariance"])
    assert cov.shape == (2, 2)
    assert np.allclose(cov, cov.T)


def test_csv_run_fails_when_input_is_short(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(data, csv_rows(7))
    config = RunConfig(problem="logistic_csv", n_total=12, splits=2,
                       input_path=str(data), checkpoints=[4, 12])
    with pytest.raises(problems.DataError, match="input ended after 7 rows"):
        experiments.run(config)


def test_csv_run_rejects_dim_mismatch(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(data, csv_rows(10))
    config = RunConfig(problem="logistic_csv", dim=5, n_total=6,
                       input_path=str(data), checkpoints=[6])
    with pytest.raises(problems.DataError, match="features"):
        experiments.run(config)


def test_csv_run_deals_row_i_to_split_i_mod_splits(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(data, csv_rows(30, d=3, seed=4))
    config = RunConfig(problem="logistic_csv", n_total=21, splits=3,
                       input_path=str(data), checkpoints=[9, 21])
    result = experiments.run(config)

    # hand deal: each split starts at n=1, so 21 - 3 rows are read
    states = [estimator.init(np.zeros(3), config.params) for _ in range(3)]
    rows = problems.csv_stream(str(data), label_column=0)
    for i in range(18):
        state = states[i % 3]
        estimator.step(state, problems.logistic_gradient(next(rows), state.iterate))
    average = np.mean([s.average for s in states], axis=0)
    assert result.summary["final_average"] == [float(v) for v in average]
    assert result.summary["final_covariance"] == [
        [float(v) for v in row] for row in estimator.merge(states)]


def test_csv_run_reports_rows_read_when_input_ends_mid_round(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(data, csv_rows(7))
    config = RunConfig(problem="logistic_csv", n_total=12, splits=3,
                       input_path=str(data), checkpoints=[6, 12])
    # rows 0..6 reach the splits as 3, 2, 2; the eighth row is missing
    with pytest.raises(problems.DataError, match="input ended after 7 rows; 9 required"):
        experiments.run(config)


def test_csv_run_accepts_a_list_m_init(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(data, csv_rows(10))
    config = RunConfig(problem="logistic_csv", n_total=4, input_path=str(data),
                       checkpoints=[4], m_init=[0.5, -0.5])
    result = experiments.run(config)
    assert config.m_init.shape == (2,)
    assert len(result.summary["final_average"]) == 2

    config = RunConfig(problem="logistic_csv", n_total=4, input_path=str(data),
                       checkpoints=[4], m_init=[0.0] * 3)
    with pytest.raises(ConfigError, match="file dimension"):
        experiments.run(config)


def test_cli_sphere_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main([
        "--problem", "sphere_median", "--dim", "3", "--n-total", "100",
        "--seed", "2", "--checkpoints", "50,100", "--output", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "n=50" in captured.out and "n=100" in captured.out
    assert "wrote:" in captured.out
    assert (out / "metrics.jsonl").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["package"] == "sgdvar"
    assert meta["config"]["seed"] == 2
    assert meta["generator"] == problems.GENERATOR


def test_cli_rejects_bad_dimension(tmp_path, capsys):
    code = cli.main([
        "--problem", "sphere_median", "--dim", "2", "--n-total", "100",
        "--output", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_rejects_bad_schedule(tmp_path, capsys):
    code = cli.main([
        "--problem", "sphere_median", "--dim", "3", "--n-total", "100",
        "--alpha", "0.4", "--output", str(tmp_path / "x"),
    ])
    assert code == 2


def test_cli_rejects_non_finite_theta_star(tmp_path, capsys):
    code = cli.main([
        "--problem", "logistic_synthetic", "--theta-star", "nan,1",
        "--n-total", "100", "--output", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "theta_star" in capsys.readouterr().err


def test_cli_rejects_direction_outside_the_unit_ball(tmp_path, capsys):
    code = cli.main([
        "--problem", "geometric_quantile", "--dim", "3", "--direction", "0.9,0.9,0",
        "--n-total", "100", "--output", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "norm" in capsys.readouterr().err


def test_cli_rejects_points_per_decade_below_one(tmp_path, capsys):
    code = cli.main([
        "--problem", "sphere_median", "--dim", "3", "--n-total", "100",
        "--points-per-decade", "0", "--output", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "points_per_decade" in capsys.readouterr().err
    # explicit checkpoints, so a missing check fails here instead of
    # building a grid that never reaches n_total
    with pytest.raises(ConfigError, match="points_per_decade"):
        experiments.validate_config(sphere_config(points_per_decade=-5, checkpoints=[10]))
    code = cli.main([
        "--problem", "sphere_median", "--dim", "3", "--n-total", "100",
        "--points-per-decade", "-5", "--checkpoints", "10", "--output", str(tmp_path / "x"),
    ])
    assert code == 2


def test_cli_rejects_non_finite_m_init(tmp_path, capsys):
    code = cli.main([
        "--problem", "sphere_median", "--dim", "3", "--n-total", "100",
        "--m-init", "nan,0,0", "--output", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "m_init" in capsys.readouterr().err


# bad configurations that must exit with 2, not end in a traceback:
# id -> (flags, config file fields or None, word the message must name)
CONFIG_HOLES = {
    "empty_theta_star": (["--problem", "logistic_synthetic", "--theta-star", ",",
                          "--checkpoints", "100"], None, "theta_star"),
    "params_value": ([], {"params": {"alpha": "x"}}, "params"),
    "params_list": ([], {"params": [1]}, "params"),
    "problem_list": ([], {"problem": ["sphere_median"]}, "problem"),
    "level_string": ([], {"level": "0.9"}, "level"),
    "level_below_precision": ([], {"level": 1e-17}, "level"),
    "replications_string": ([], {"replications": "2"}, "replications"),
    "dim_float": ([], {"dim": 3.5}, "dim"),
    "checkpoints_strings": ([], {"checkpoints": ["a"]}, "checkpoints"),
    "checkpoints_number": ([], {"checkpoints": 5}, "checkpoints"),
    "theta_star_strings": ([], {"problem": "logistic_synthetic", "dim": None,
                                "theta_star": ["a"]}, "theta_star"),
    "label_column_null": ([], {"problem": "logistic_csv", "dim": None,
                               "input_path": "data.csv", "label_column": None},
                          "label_column"),
    "residuals_string": ([], {"residuals": "no"}, "residuals"),
    "has_header_string": ([], {"problem": "logistic_csv", "dim": None,
                               "input_path": "data.csv", "has_header": "no"}, "has_header"),
    "remap_zero_one_number": ([], {"problem": "logistic_csv", "dim": None,
                                   "input_path": "data.csv", "remap_zero_one": 1},
                              "remap_zero_one"),
}


@pytest.mark.parametrize("flags, fields, word", CONFIG_HOLES.values(), ids=CONFIG_HOLES.keys())
def test_cli_rejects_config_holes(tmp_path, monkeypatch, capsys, flags, fields, word):
    monkeypatch.chdir(tmp_path)
    write_csv(tmp_path / "data.csv", csv_rows(120))
    argv = ["--n-total", "100", "--output", "x", *flags]
    if fields is not None:
        config = {"problem": "sphere_median", "dim": 3, "checkpoints": [100], **fields}
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = ["--config", "run.json", *argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and word in err


def test_cli_rejects_negative_label_column(tmp_path, capsys):
    # three features with the label last: -1 must not train on the label
    data = tmp_path / "data.csv"
    write_csv(data, [",".join(row.split(",")[1:] + row.split(",")[:1])
                     for row in csv_rows(40, d=3)])
    argv = ["--problem", "logistic_csv", "--input", str(data), "--n-total", "30",
            "--checkpoints", "30", "--output", str(tmp_path / "x")]
    assert cli.main([*argv, "--label-column", "-1"]) == 2
    assert "label_column" in capsys.readouterr().err
    assert cli.main([*argv, "--label-column", "3"]) == 0
    assert json.loads((tmp_path / "x" / "meta.json").read_text())["config"]["dim"] == 3


def test_cli_missing_input_file(tmp_path, capsys):
    code = cli.main([
        "--problem", "logistic_csv", "--n-total", "10",
        "--input", str(tmp_path / "absent.csv"), "--output", str(tmp_path / "x"),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_cli_io_failure_on_blocked_output(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    code = cli.main([
        "--problem", "sphere_median", "--dim", "3", "--n-total", "20",
        "--checkpoints", "20", "--output", str(blocker / "sub"),
    ])
    assert code == 5
    assert "io error" in capsys.readouterr().err


def test_cli_config_file_with_flag_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "problem": "sphere_median",
        "dim": 3,
        "n_total": 100,
        "seed": 7,
        "checkpoints": [100],
        "params": {"s": 0.92},
        "output_path": str(out),
    }))
    code = cli.main(["--config", str(config_path), "--seed", "9", "--s", "0.95"])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["seed"] == 9
    assert meta["config"]["params"]["s"] == 0.95


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"problem": "sphere_median", "dims": 3}))
    assert cli.main(["--config", str(config_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    config_path.write_text(json.dumps({
        "problem": "sphere_median", "dim": 3, "n_total": 100,
        "params": {"beta": 1.0},
    }))
    assert cli.main(["--config", str(config_path)]) == 2


def test_cli_csv_format_flag(tmp_path):
    out = tmp_path / "out"
    code = cli.main([
        "--problem", "sphere_median", "--dim", "3", "--n-total", "50",
        "--checkpoints", "50", "--format", "csv", "--output", str(out),
    ])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert not (out / "metrics.jsonl").exists()


def test_cli_vector_flags(tmp_path):
    out = tmp_path / "out"
    code = cli.main([
        "--problem", "logistic_synthetic", "--n-total", "50",
        "--theta-star", "0.2,-0.1,0.3", "--checkpoints", "50",
        "--m-init", "0.1,0.1,0.1", "--region", "ball", "--output", str(out),
    ])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["dim"] == 3
    assert meta["config"]["theta_star"] == [0.2, -0.1, 0.3]
    assert meta["config"]["m_init"] == [0.1, 0.1, 0.1]
    assert meta["config"]["region"] == "ball"
