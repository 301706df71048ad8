"""Experiment runner: config round-trips, artifact schemas, determinism,
error paths, and the cross-section dump."""

import numpy as np
import pytest

from elfopt.cli import (
    ConfigError,
    RunConfig,
    build_problem,
    dump_cross_section,
    format_value,
    main,
    parse_value,
    run_experiment,
)
from elfopt.problems import empirical_loss
from elfopt.seeding import rng_streams

FAST_ELF = [
    "--set", "elf.line.k=2",
    "--set", "elf.line.n=30",
    "--set", "elf.line.min_window_size=10",
    "--set", "elf.window_size=40",
    "--set", "elf.grid_search_probe_steps=5",
    "--set", "quadratic.n_batches=20",
    "--set", "quadratic.dim=6",
]


def test_config_round_trip_is_lossless():
    config = RunConfig()
    config.set("elf.loss_improvement_factor", 0.1)
    config.set("seed", 17)
    config.set("elf.grid_search_candidates", (0.25, 1.5))
    config.set("elf.sample_from_validation", False)
    restored = RunConfig.deserialize(config.serialize())
    assert restored.values == config.values


def test_seventeen_digit_floats_round_trip():
    for value in (0.1, 1e-300, 2.0 / 3.0, 1.2345678901234567e17):
        assert float(format_value(value)) == value


def test_parse_value_types_and_errors():
    assert parse_value("steps", "123") == 123
    assert parse_value("elf.momentum_beta", "0.5") == 0.5
    assert parse_value("quiet", "true") is True
    assert parse_value("elf.grid_search_candidates", "0.1,1") == (0.1, 1.0)
    with pytest.raises(ConfigError):
        parse_value("steps", "abc")
    with pytest.raises(ConfigError):
        parse_value("nonexistent.key", "1")


def test_unknown_config_file_key_rejected():
    with pytest.raises(ConfigError):
        RunConfig.deserialize("not_a_key=1\n")


def test_cli_precedence_file_then_set_then_flags(tmp_path):
    config_file = tmp_path / "base.cfg"
    config_file.write_text("steps=100\nseed=1\nbatch_size=10\n")
    out = tmp_path / "run"
    code = main([
        "--config", str(config_file),
        "--set", "seed=2",
        "--set", "steps=200",
        "--steps", "300",
        "--out", str(out),
        "--optimizer", "sgd",
        "--problem", "quadratic",
        "--quiet",
    ] + FAST_ELF)
    assert code == 0
    snapshot = (out / "config.txt").read_text()
    assert "steps=300\n" in snapshot        # flag beats --set beats file
    assert "seed=2\n" in snapshot           # --set beats file
    assert "batch_size=10\n" in snapshot    # file beats default


def test_identical_configs_produce_byte_identical_artifacts(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["--optimizer", "elf", "--problem", "quadratic",
                     "--steps", "400", "--seed", "3", "--out", str(out), "--quiet"]
                    + FAST_ELF)
        assert code == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b
    for name in files_a:
        if name == "config.txt":
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a.replace(str(outs[0]).encode(), b"") == b.replace(str(outs[1]).encode(), b"")
        else:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_elf_run_emits_line_search_rows_and_fits(tmp_path):
    out = tmp_path / "run"
    code = main(["--optimizer", "elf", "--problem", "quadratic",
                 "--steps", "400", "--seed", "0", "--out", str(out), "--quiet"]
                + FAST_ELF)
    assert code == 0
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "step,event,train_loss,update_step,expected_improvement,real_improvement"
    events = [line.split(",")[1] for line in log_lines[1:]]
    assert "line_search" in events
    assert "grid_search" in events
    assert "sgd" in events

    fits = (out / "fits.csv").read_text().splitlines()
    assert fits[0].startswith("line_index,degree,c0,")
    n_searches = len(fits) - 1
    assert n_searches >= 3
    for i in range(n_searches):
        line_csv = (out / f"line_{i}.csv").read_text().splitlines()
        assert line_csv[0] == "round,s,loss"
        assert len(line_csv) - 1 == 2 * 30 + 1  # k*n + baseline


def test_budget_accounting_reconstructs_from_log(tmp_path):
    out = tmp_path / "run"
    assert main(["--optimizer", "elf", "--problem", "quadratic", "--steps", "500",
                 "--seed", "1", "--out", str(out), "--quiet"] + FAST_ELF) == 0
    rows = [line.split(",") for line in
            (out / "training_log.csv").read_text().splitlines()[1:]]
    total = len(rows)
    by_event = {name: sum(1 for r in rows if r[1] == name)
                for name in ("sgd", "line_search", "grid_search")}
    assert sum(by_event.values()) == total
    assert int(rows[-1][0]) == total
    searches = len([p for p in out.iterdir() if p.name.startswith("line_")])
    assert by_event["line_search"] == searches * (2 * 30 + 1)


def test_invalid_optimizer_exits_1_without_artifacts(tmp_path, capsys):
    out = tmp_path / "nothing"
    code = main(["--optimizer", "definitely_not_real", "--out", str(out), "--quiet"])
    assert code == 1
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_invalid_problem_exits_1(tmp_path):
    out = tmp_path / "nothing"
    assert main(["--problem", "rosenbrock", "--out", str(out), "--quiet"]) == 1
    assert not out.exists()


def test_unknown_set_key_exits_1(tmp_path):
    out = tmp_path / "nothing"
    assert main(["--set", "bogus=1", "--out", str(out), "--quiet"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("setting", ["elf.line.folds=1", "elf.line.max_degree=-1"])
def test_line_search_config_errors_exit_1_before_training(tmp_path, capsys, setting):
    out = tmp_path / "nothing"
    assert main([*FAST_ELF, "--set", setting, "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    assert "config error:" in capsys.readouterr().err


def test_sub_streams_do_not_perturb_each_other(tmp_path):
    # changing how much randomness the line search consumes must not change
    # the dataset, the initial parameters, or the batch order: the grid-search
    # baseline rows (written before any line search) stay identical
    logs = []
    for n in ("20", "40"):
        out = tmp_path / f"n{n}"
        assert main(["--optimizer", "elf", "--problem", "quadratic", "--steps", "300",
                     "--seed", "5", "--out", str(out), "--quiet",
                     "--set", f"elf.line.n={n}", "--set", "elf.line.k=2",
                     "--set", "elf.line.min_window_size=10",
                     "--set", "elf.grid_search_probe_steps=5",
                     "--set", "quadratic.n_batches=15", "--set", "quadratic.dim=5"]) == 0
        lines = (out / "training_log.csv").read_text().splitlines()[1:]
        logs.append([line for line in lines if ",grid_search," in line])
    assert logs[0] == logs[1]
    assert len(logs[0]) >= 5


def test_baseline_runs_produce_empty_fits(tmp_path):
    out = tmp_path / "sgd"
    code = main(["--optimizer", "sgd", "--problem", "quadratic", "--steps", "50",
                 "--seed", "0", "--out", str(out), "--quiet"] + FAST_ELF)
    assert code == 0
    fits = (out / "fits.csv").read_text().splitlines()
    assert len(fits) == 1  # header only
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert len(log_lines) - 1 == 50


# ---------------------------------------------------------------------------
# cross sections
# ---------------------------------------------------------------------------

def test_cross_section_default_grid_has_fifty_rows_per_series(tmp_path):
    out = tmp_path / "profile"
    code = main(["--dump-cross-section", "--problem", "quadratic",
                 "--set", "quadratic.n_batches=10", "--set", "quadratic.dim=4",
                 "--seed", "0", "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "cross_section.csv").read_text().splitlines()
    assert lines[0] == "series,s,loss"
    rows = [line.split(",") for line in lines[1:]]
    series = {}
    for r in rows:
        series.setdefault(r[0], []).append(r)
    # 8 train batches (20% of 10 held out) + mean + 3 quartiles
    assert len(series) == 8 + 4
    for name, entries in series.items():
        assert len(entries) == 50
    s_values = [float(r[1]) for r in series["mean"]]
    assert s_values[0] == -0.3 and s_values[-1] == 0.7


def test_cross_section_mean_matches_closed_form(tmp_path):
    out = tmp_path / "profile"
    config = RunConfig()
    config.set("problem", "quadratic")
    config.set("quadratic.n_batches", 10)
    config.set("quadratic.dim", 4)
    config.set("out", str(out))
    config.set("quiet", True)
    assert dump_cross_section(config) == 0

    streams = rng_streams(0)
    problem = build_problem(config, streams.data)
    theta0 = problem.initial_theta(streams.theta_init)
    g = problem.batch_gradient(theta0, problem.train_batches[0])
    d = -g / np.linalg.norm(g)

    lines = (out / "cross_section.csv").read_text().splitlines()[1:]
    mean_rows = [line.split(",") for line in lines if line.startswith("mean,")]
    for _, s_text, loss_text in mean_rows:
        s = float(s_text)
        expected = problem.closed_form_empirical(theta0 + s * d)
        assert abs(float(loss_text) - expected) < 1e-9


def test_cross_section_single_point_equals_empirical_loss(tmp_path):
    out = tmp_path / "profile"
    config = RunConfig()
    config.set("problem", "quadratic")
    config.set("quadratic.n_batches", 10)
    config.set("quadratic.dim", 4)
    config.set("cross_section.points", 1)
    config.set("cross_section.s_min", 0.0)
    config.set("out", str(out))
    config.set("quiet", True)
    assert dump_cross_section(config) == 0

    streams = rng_streams(0)
    problem = build_problem(config, streams.data)
    theta0 = problem.initial_theta(streams.theta_init)
    lines = (out / "cross_section.csv").read_text().splitlines()[1:]
    mean_rows = [line.split(",") for line in lines if line.startswith("mean,")]
    assert len(mean_rows) == 1
    assert abs(float(mean_rows[0][2]) - empirical_loss(problem, theta0)) < 1e-12
