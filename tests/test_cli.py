"""Experiment runner: config round-trips, artifact schemas, determinism,
error paths, and the cross-section dump."""

import errno
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfopt import cli
from elfopt.cli import (
    DEFAULTS,
    SECTIONS,
    ConfigError,
    RunConfig,
    build_parser,
    build_problem,
    config_from_args,
    dump_cross_section,
    format_value,
    main,
    parse_value,
    run_experiment,
    write_fits_csv,
    write_line_csvs,
    write_training_log,
)
from elfopt.controller import DivergenceError, LogRow, TrainingLog
from elfopt.linesearch import LineSearchResult
from elfopt.poly import Polynomial
from elfopt.problems import LogisticBlobs, MlpBlobs, cross_section_profile, empirical_loss
from elfopt.regression import FitReport, SampleSet
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

# config.txt of an all-default run: every key, its order and its default.
DEFAULT_SNAPSHOT = (
    "problem=quadratic\n"
    "optimizer=elf\n"
    "steps=2000\n"
    "batch_size=50\n"
    "seed=0\n"
    "out=run_out\n"
    "quiet=false\n"
    "quadratic.n_batches=100\n"
    "quadratic.dim=20\n"
    "logistic.n_train=2000\n"
    "logistic.n_val=500\n"
    "logistic.n_features=2\n"
    "logistic.separation=5\n"
    "logistic.cluster_std=0.69999999999999996\n"
    "mlp.n_train=2000\n"
    "mlp.n_val=500\n"
    "mlp.n_features=2\n"
    "mlp.n_classes=3\n"
    "mlp.hidden1=16\n"
    "mlp.hidden2=16\n"
    "mlp.separation=4\n"
    "mlp.cluster_std=0.69999999999999996\n"
    "elf.window_size=150\n"
    "elf.loss_improvement_factor=0.01\n"
    "elf.momentum_beta=0.40000000000000002\n"
    "elf.decrease_factor_delta=0.20000000000000001\n"
    "elf.lines_to_average=3\n"
    "elf.sample_from_validation=true\n"
    "elf.grid_search_candidates=0.0001,0.001,0.01,0.10000000000000001,1,10\n"
    "elf.grid_search_probe_steps=20\n"
    "elf.line.k=5\n"
    "elf.line.n=100\n"
    "elf.line.initial_interval_width=1\n"
    "elf.line.min_window_size=50\n"
    "elf.line.folds=5\n"
    "elf.line.max_degree=10\n"
    "sgd.learning_rate=0.01\n"
    "sgd.momentum=0.90000000000000002\n"
    "adam.learning_rate=0.001\n"
    "adam.beta1=0.90000000000000002\n"
    "adam.beta2=0.999\n"
    "adam.epsilon=1e-08\n"
    "schedule.milestones=0.5,0.75\n"
    "schedule.divisor=10\n"
    "cross_section.s_min=-0.29999999999999999\n"
    "cross_section.s_max=0.69999999999999996\n"
    "cross_section.points=50\n"
    "cross_section.direction=batch_gradient\n"
)


def test_config_round_trip_is_lossless():
    config = RunConfig()
    config.set("elf.loss_improvement_factor", "0.1")
    config.set("seed", "17")
    config.set("elf.grid_search_candidates", "0.25,1.5")
    config.set("elf.sample_from_validation", "false")
    restored = RunConfig.deserialize(config.serialize())
    assert restored.values == config.values


def test_default_snapshot_is_pinned():
    assert RunConfig().serialize() == "".join(DEFAULT_SNAPSHOT)


def test_every_section_key_defaults_to_the_field_it_sets():
    checked = 0
    for key, value in DEFAULTS.items():
        prefix, _, name = key.rpartition(".")
        if prefix in SECTIONS:
            cls, names = SECTIONS[prefix]
            assert name in names, key
            assert value == inspect.signature(cls).parameters[name].default, key
            checked += 1
    assert checked == sum(len(names) for _, names in SECTIONS.values())


def test_batch_size_defaults_to_the_problems_shared_batch_size():
    # batch_size reaches LogisticBlobs and MlpBlobs alike, so both must
    # declare the default it takes from LogisticBlobs.
    for cls in (LogisticBlobs, MlpBlobs):
        assert inspect.signature(cls).parameters["batch_size"].default == DEFAULTS["batch_size"]


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


def test_set_types_a_value_once_on_entry():
    config = RunConfig()
    config.set("steps", "100")
    config.set("sgd.learning_rate", "1")
    config.set("elf.grid_search_candidates", "1,0.5")
    config.set("quiet", "yes")
    assert config["steps"] == 100
    assert type(config["sgd.learning_rate"]) is float
    assert config["elf.grid_search_candidates"] == (1.0, 0.5)
    assert config["quiet"] is True
    for key, value in [("steps", 1.5), ("steps", True), ("quiet", 1), ("problem", 3),
                       ("elf.grid_search_candidates", 0.1), ("sgd.learning_rate", None),
                       ("sgd.learning_rate", 1), ("elf.grid_search_candidates", [1, 0.5]),
                       ("nonexistent.key", 1), ("steps", "abc")]:
        with pytest.raises(ConfigError):
            config.set(key, value)


def test_text_set_in_code_runs_like_the_command_line(tmp_path):
    config = RunConfig()
    for key, text in [("steps", "100"), ("quadratic.n_batches", "10"), ("quadratic.dim", "4"),
                      ("elf.line.n", "20"), ("elf.line.min_window_size", "10"),
                      ("out", str(tmp_path / "run")), ("quiet", "true")]:
        config.set(key, text)
    assert run_experiment(config) == 0
    assert len((tmp_path / "run" / "training_log.csv").read_text().splitlines()) > 100


def test_unknown_config_file_key_rejected():
    with pytest.raises(ConfigError):
        RunConfig.deserialize("not_a_key=1\n")


def test_a_malformed_item_names_where_it_came_from():
    with pytest.raises(ConfigError, match="line 3"):
        RunConfig.deserialize("steps=10\n# comment\nsteps 20\n")
    with pytest.raises(ConfigError, match="--set"):
        config_from_args(build_parser().parse_args(["--set", "steps"]))


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


def test_zero_valued_flag_overrides_the_config_file(tmp_path):
    config_file = tmp_path / "base.cfg"
    config_file.write_text("seed=5\nsteps=7\nquiet=true\n")
    config = config_from_args(build_parser().parse_args(["--config", str(config_file),
                                                         "--seed", "0"]))
    assert (config["seed"], config["steps"], config["quiet"]) == (0, 7, True)


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


def test_writers_bytes_are_pinned_on_a_hand_built_log(tmp_path):
    log = TrainingLog()
    log.record("grid_search", [0.1], 1e-4)
    log.record("line_search", [np.float64(2) / 3], 1.0)
    log.record("sgd", [1e-300], 0.5, -0.0, 12345.678)
    fit = FitReport(Polynomial(np.array([1.0, -0.25, 1 / 3])), 2, np.array([1.0, 0.5, 0.25]))
    log.line_searches.append(LineSearchResult(
        minimum_position=0.375, fit=fit,
        samples=SampleSet(np.array([0.0, 0.1, 0.7]), np.array([1.0, 0.95, 1 / 3])),
        rounds=np.array([0, 0, 1])))
    write_training_log(tmp_path / "training_log.csv", log)
    write_line_csvs(tmp_path, log)
    write_fits_csv(tmp_path / "fits.csv", log, max_degree=4)

    assert (tmp_path / "training_log.csv").read_text() == (
        "step,event,train_loss,update_step,expected_improvement,real_improvement\n"
        "1,grid_search,0.10000000000000001,0.0001,,\n"
        "2,line_search,0.66666666666666663,1,,\n"
        "3,sgd,1e-300,0.5,-0,12345.678\n"
    )
    assert (tmp_path / "line_0.csv").read_text() == (
        "round,s,loss\n"
        "0,0,1\n"
        "0,0.10000000000000001,0.94999999999999996\n"
        "1,0.69999999999999996,0.33333333333333331\n"
    )
    assert (tmp_path / "fits.csv").read_text() == (
        "line_index,degree,c0,c1,c2,c3,c4\n"
        "0,2,1,-0.25,0.33333333333333331,,\n"
    )


def _row_per_cell_csv(path, header, rows):
    """The reference writer: every cell of every row through format_value."""
    lines = [",".join(header)]
    lines.extend(",".join(map(format_value, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _assert_writers_match_the_row_per_cell_csv(out_dir, log=None,
                                               max_degree=DEFAULTS["elf.line.max_degree"],
                                               profile=None):
    """The bytes of the CSVs in out_dir against the reference writer's:
    training_log.csv, line_<i>.csv and fits.csv, which the writers write
    here for log, and the cross_section.csv of profile, which a dump wrote."""
    reference = out_dir / "reference"
    reference.mkdir(parents=True, exist_ok=True)
    if log is not None:
        write_training_log(out_dir / "training_log.csv", log)
        _row_per_cell_csv(reference / "training_log.csv", LogRow._fields, log.rows)
        write_line_csvs(out_dir, log)
        for index, search in enumerate(log.line_searches):
            _row_per_cell_csv(reference / f"line_{index}.csv", ("round", "s", "loss"),
                              zip(search.rounds.tolist(), search.samples.positions.tolist(),
                                  search.samples.losses.tolist()))
        assert len(list(out_dir.glob("line_*.csv"))) == len(log.line_searches)
        write_fits_csv(out_dir / "fits.csv", log, max_degree)
        rows = []
        for index, search in enumerate(log.line_searches):
            coef = search.fit.polynomial.coefficients.tolist()
            rows.append([index, search.fit.chosen_degree, *coef,
                         *[None] * (max_degree + 1 - len(coef))])
        _row_per_cell_csv(reference / "fits.csv",
                          ["line_index", "degree", *(f"c{i}" for i in range(max_degree + 1))],
                          rows)
    if profile is not None:
        series = [(f"batch_{i}", curve) for i, curve in enumerate(profile.per_batch)]
        series += [("mean", profile.mean), ("q1", profile.q1), ("q2", profile.q2),
                   ("q3", profile.q3)]
        _row_per_cell_csv(reference / "cross_section.csv", ("series", "s", "loss"),
                          [(name, s, loss) for name, curve in series
                           for s, loss in zip(profile.s_grid.tolist(), curve.tolist())])
    for name in sorted(path.name for path in reference.iterdir()):
        assert (out_dir / name).read_bytes() == (reference / name).read_bytes(), name


# The shared cells of a segment, (update_step, expected, real). The writer
# reuses a cell's text only for the same object, so the rows of equal values
# with other text (0.0 and -0.0, 1e17 and 10**17, 1 and True) must each keep
# their own.
_SHARED_CELLS = [(None, None, None), (0.0, None, None), (-0.0, None, None),
                 (1e17, None, None), (10**17, None, None), (1, None, None), (True, None, None),
                 (0.1, -0.0, 0.0), (0.1, 0.0, -0.0), (math.nan, math.inf, -math.inf),
                 (1e308, 5e-324, -0.0), (np.float64(2) / 3, None, 12345.678)]
_LOSS = st.floats() | st.sampled_from([-0.0, 1e308, 5e-324, -5e-324])
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e308,
                                                                             5e-324])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(calls=st.lists(st.tuples(
           st.sampled_from(["sgd", "line_search", "grid_search"]),
           st.sampled_from([0, 1, 1, 2, 100]).flatmap(
               lambda size: st.lists(_LOSS, min_size=size, max_size=size)),
           st.sampled_from(_SHARED_CELLS)),
           max_size=15),
       searches=st.lists(st.lists(st.tuples(st.integers(0, 9), _FINITE, _FINITE),
                                  min_size=1, max_size=30), max_size=3))
def test_writers_bytes_equal_the_row_per_cell_writer(tmp_path_factory, calls, searches):
    log = TrainingLog()
    for event, losses, cells in calls:
        try:
            log.record(event, losses, *cells)
        except DivergenceError:
            break     # the log ends on the first non-finite sgd or line_search loss
    for rows in searches:
        rounds, positions, losses = map(np.array, zip(*rows))
        fit = FitReport(Polynomial(np.array([1.0])), 0, np.array([1.0]))
        log.line_searches.append(LineSearchResult(None, fit, SampleSet(positions, losses), rounds))
    _assert_writers_match_the_row_per_cell_csv(tmp_path_factory.mktemp("out"), log)


def test_writers_write_what_write_csv_writes(tmp_path):
    # Segments with None and float tails, the float range's edge values, and
    # a segment spanning more than two format blocks.
    edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, np.float64(2) / 3]
    log = TrainingLog()
    log.record("grid_search", edge)
    log.record("grid_search", edge, 1e-4)
    log.record("grid_search", edge, 0.5, -0.0, 12345.678)
    log.record("grid_search", [i / 7 for i in range(2 * cli._BLOCK_ROWS + 3)], None, math.nan,
               -math.inf)
    log.record("sgd", [1.0, 2.0], 0.1, None, 5e-324)
    rows = [(0, 0.0, 1.0), (0, -0.0, 0.1), (1, 1e308, 5e-324), (1, 1 / 3, -1e308)]
    rounds, positions, losses = map(np.array, zip(*rows))
    fit = FitReport(Polynomial(np.array([0.5, -2.0])), 1, np.array([1.0, 0.5]))
    log.line_searches.append(LineSearchResult(0.5, fit, SampleSet(positions, losses), rounds))
    # A fit of fewer coefficients than max_degree + 1, and a log of no searches.
    _assert_writers_match_the_row_per_cell_csv(tmp_path / "full", log, max_degree=3)
    _assert_writers_match_the_row_per_cell_csv(tmp_path / "empty", TrainingLog())
    assert (tmp_path / "empty" / "training_log.csv").read_text() == ",".join(LogRow._fields) + "\n"
    assert (tmp_path / "full" / "fits.csv").read_text().splitlines()[1] == "0,1,0.5,-2,,"
    assert len((tmp_path / "empty" / "fits.csv").read_text().splitlines()) == 1


def test_cross_section_csv_is_what_the_row_per_cell_writer_writes(tmp_path, monkeypatch):
    profiles = []

    def capture(*args):
        profiles.append(cross_section_profile(*args))
        return profiles[-1]

    monkeypatch.setattr(cli, "cross_section_profile", capture)
    out = tmp_path / "dump"
    assert main(["--dump-cross-section", "--set", "cross_section.points=5", "--out", str(out),
                 "--quiet"]) == 0
    (profile,) = profiles
    assert profile.s_grid.size == 5
    _assert_writers_match_the_row_per_cell_csv(out, profile=profile)


@pytest.mark.parametrize("problem", ["quadratic", "logistic", "mlp"])
@pytest.mark.parametrize("optimizer", ["elf", "sgd", "adam"])
def test_cli_runs_write_the_row_per_cell_writers_bytes(tmp_path, monkeypatch, problem, optimizer):
    logs = []
    for name in ("run", "run_baseline"):
        train = getattr(cli, name)

        def capture(*args, train=train):
            result = train(*args)
            logs.append(result[1])
            return result

        monkeypatch.setattr(cli, name, capture)
    out = tmp_path / "run"
    assert main(["--problem", problem, "--optimizer", optimizer, "--steps", "700", "--seed", "2",
                 "--out", str(out), "--quiet"]) == 0
    (log,) = logs
    assert len(log) >= 700 and (optimizer != "elf" or log.line_searches)
    _assert_writers_match_the_row_per_cell_csv(out, log)


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


@pytest.mark.parametrize("args", [["--steps", "abc"], ["--bogus", "1"], ["--steps"]],
                         ids=["bad-value", "unknown-flag", "missing-value"])
def test_usage_errors_exit_1_before_writing(tmp_path, capsys, args):
    # Exit 2 means divergence, so a mistyped command line must not use it.
    out = tmp_path / "nothing"
    assert main(["--out", str(out), "--quiet", *args]) == 1
    assert not out.exists()
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["out-is-a-file", "out-below-a-file",
                                  "config-is-a-directory", "config-not-utf8"])
def test_bad_paths_are_config_errors_before_writing(tmp_path, capsys, case):
    file = tmp_path / "file"
    file.write_bytes(b"problem=quadr\xfftic\n")  # not UTF-8
    out = str(tmp_path / "nothing")
    argv = {"out-is-a-file": ["--out", str(file)],
            "out-below-a-file": ["--out", str(file / "sub")],
            "config-is-a-directory": ["--config", str(tmp_path), "--out", out],
            "config-not-utf8": ["--config", str(file), "--out", out]}[case]
    assert main([*argv, "--steps", "20", "--quiet", *FAST_ELF]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert list(tmp_path.iterdir()) == [file]


def test_a_reused_out_dir_holds_only_the_latest_run(tmp_path):
    out = tmp_path / "run"
    for steps in ("1500", "300"):
        assert main(["--steps", steps, "--out", str(out), "--quiet", *FAST_ELF]) == 0
    fits_rows = len((out / "fits.csv").read_text().splitlines()) - 1
    lines = {p.name for p in out.glob("line_*.csv")}
    assert fits_rows > 0 and lines == {f"line_{i}.csv" for i in range(fits_rows)}


@pytest.mark.parametrize("name", ["training_log.csv", "line_0.csv", "fits.csv"])
def test_an_unwritable_artifact_is_a_config_error_before_the_run(tmp_path, capsys,
                                                                 monkeypatch, name):
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)

    def no_run(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", no_run)
    assert main(["--steps", "20", "--out", str(out), "--quiet", *FAST_ELF]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize("writer, args", [
    ("write_training_log", []), ("write_line_csvs", []), ("write_fits_csv", []),
    ("_write_csv", ["--dump-cross-section", "--set", "cross_section.points=5"]),
])
def test_a_write_that_fails_after_the_run_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                            writer, args):
    # As when the disk fills or a file-size limit is hit after the budget
    # was spent: one line, exit 1, no traceback.
    def file_too_large(*_):
        raise OSError(errno.EFBIG, "File too large")

    monkeypatch.setattr(cli, writer, file_too_large)
    argv = ["--steps", "20", "--out", str(tmp_path / "run"), "--quiet", *FAST_ELF, *args]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "config error: cannot write the output directory: [Errno 27] File too large\n"


def test_a_write_cut_by_a_file_size_limit_leaves_no_partial_artifact(tmp_path):
    # An 8 KiB file-size limit, set in the child process only, fails the
    # training_log.csv write after the run. Python ignores SIGXFSZ, so the
    # write raises EFBIG instead of killing the process.
    out = tmp_path / "big"
    code = ("import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (8192, hard))\n"
            "from elfopt.cli import main\n"
            f"sys.exit(main(['--steps', '2000', '--quiet', '--out', {str(out)!r}]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert child.returncode == 1, child.stderr
    assert child.stderr.splitlines()[0].startswith("config error:")
    assert "Traceback" not in child.stderr
    assert [p.name for p in out.iterdir()] == ["config.txt"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--help"])
    assert raised.value.code == 0
    assert "usage: elfopt" in capsys.readouterr().out


@pytest.mark.parametrize("setting", ["elf.line.folds=1", "elf.line.max_degree=-1",
                                     "elf.line.initial_interval_width=nan",
                                     "elf.line.initial_interval_width=1e-200"])
def test_line_search_config_errors_exit_1_before_training(tmp_path, capsys, setting):
    out = tmp_path / "nothing"
    assert main([*FAST_ELF, "--set", setting, "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--problem", "logistic", "--set", "batch_size=5000"],
    ["--set", "quadratic.n_batches=0"],
    ["--problem", "logistic", "--set", "logistic.n_train=10"],
    ["--problem", "logistic", "--set", "batch_size=0"],
    ["--optimizer", "sgd", "--set", "schedule.divisor=0"],
    ["--set", "elf.grid_search_candidates=-1"],
    ["--set", "elf.grid_search_candidates=0"],
    ["--set", "elf.grid_search_candidates=nan"],
    ["--set", "elf.grid_search_candidates=1e-200"],
    ["--set", "elf.grid_search_candidates="],
    ["--set", "elf.grid_search_probe_steps=-1"],
    ["--set", "quadratic.dim=0"],
    ["--problem", "logistic", "--set", "logistic.n_train=-100"],
    ["--problem", "logistic", "--set", "logistic.n_features=0"],
    ["--problem", "mlp", "--set", "mlp.n_train=-100"],
    ["--problem", "mlp", "--set", "mlp.n_features=0"],
    ["--problem", "mlp", "--set", "mlp.hidden1=0"],
    ["--problem", "mlp", "--set", "mlp.hidden2=0"],
    ["--set", "elf.loss_improvement_factor=nan"],
    ["--optimizer", "sgd", "--set", "sgd.learning_rate=nan"],
    ["--optimizer", "adam", "--set", "adam.learning_rate=inf"],
    ["--optimizer", "adam", "--set", "adam.beta1=1"],
    ["--optimizer", "adam", "--set", "adam.beta1=nan"],
    ["--optimizer", "adam", "--set", "adam.epsilon=nan"],
    ["--optimizer", "adam", "--set", "adam.epsilon=-1"],
    ["--optimizer", "sgd", "--set", "schedule.divisor=nan"],
    ["--optimizer", "sgd", "--set", "schedule.milestones=nan"],
    ["--optimizer", "sgd", "--set", "schedule.milestones=-0.5"],
    ["--optimizer", "sgd", "--set", "schedule.milestones=1.5"],
    ["--problem", "mlp", "--set", "mlp.n_classes=0"],
    ["--problem", "logistic", "--set", "logistic.separation=nan"],
    ["--problem", "logistic", "--set", "logistic.cluster_std=nan"],
    ["--problem", "mlp", "--set", "mlp.separation=inf"],
    ["--dump-cross-section", "--set", "cross_section.s_max=inf"],
    ["--seed", "-1"],
    ["--seed", "-1", "--dump-cross-section"],
], ids=lambda args: args[-1])
def test_problem_and_schedule_errors_exit_1_before_writing(tmp_path, capsys, args):
    out = tmp_path / "nothing"
    assert main([*args, "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--optimizer", "adam", "--set", "schedule.divisor=1e200", "--steps", "100"],
    ["--optimizer", "sgd", "--set", "schedule.divisor=1e-200",
     "--set", "schedule.milestones=0.9,0.9", "--steps", "100"],
], ids=["overflow", "underflow"])
def test_a_decay_beyond_the_float_range_is_a_config_error(tmp_path, capsys, args):
    out = tmp_path / "nothing"
    assert main([*args, "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: divisor")


@pytest.mark.parametrize("args", [
    ["--set", "elf.grid_search_candidates=1e100", "--steps", "400"],
    ["--problem", "mlp", "--set", "elf.grid_search_candidates=1e200", "--steps", "400"],
], ids=["quadratic", "mlp"])
def test_fits_over_huge_steps_end_in_an_exit_code(tmp_path, args):
    # Both values validate. The fits' raw coefficients span more than the
    # float range, and the losses overflow the CV's squares.
    with np.errstate(all="ignore"):
        assert main([*args, "--out", str(tmp_path / "run"), "--quiet"]) in (0, 2)


def test_a_size_error_names_its_key(tmp_path, capsys):
    out = tmp_path / "nothing"
    assert main(["--problem", "mlp", "--set", "mlp.n_classes=0", "--out", str(out), "--quiet"]) == 1
    assert "n_classes" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["1000000000000000", "10000000000000000000"],
                         ids=["past-memory", "past-numpys-size-limit"])
def test_a_dump_grid_numpy_refuses_is_a_config_error(tmp_path, capsys, points):
    # numpy refuses both grids before allocating any of them: the first
    # asks for 7.11 PiB, the second for more elements than an array holds.
    out = tmp_path / "nothing"
    assert main(["--dump-cross-section", "--set", f"cross_section.points={points}",
                 "--out", str(out), "--quiet"]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"config error: cross_section.points={points}: ")


@pytest.mark.parametrize("args, rows, last_row", [
    (["--set", "elf.grid_search_candidates=1e300", "--steps", "400"], 42, "42,line_search,nan,"),
    (["--optimizer", "sgd", "--set", "sgd.learning_rate=1e300", "--steps", "50"], 2, "2,sgd,nan,"),
], ids=["elf", "sgd"])
def test_diverged_run_exits_2_and_keeps_its_log(tmp_path, capsys, args, rows, last_row):
    out = tmp_path / "run"
    # Both values validate; the overflow they cause is what the test is about.
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*args, "--out", str(out), "--quiet"]) == 2
    assert "divergence:" in capsys.readouterr().err
    lines = (out / "training_log.csv").read_text().splitlines()
    assert len(lines) - 1 == rows
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, rows + 1))
    assert lines[-1].startswith(last_row)


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
    config.set("quadratic.n_batches", "10")
    config.set("quadratic.dim", "4")
    config.set("out", str(out))
    config.set("quiet", "true")
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
    config.set("quadratic.n_batches", "10")
    config.set("quadratic.dim", "4")
    config.set("cross_section.points", "1")
    config.set("cross_section.s_min", "0.0")
    config.set("out", str(out))
    config.set("quiet", "true")
    assert dump_cross_section(config) == 0

    streams = rng_streams(0)
    problem = build_problem(config, streams.data)
    theta0 = problem.initial_theta(streams.theta_init)
    lines = (out / "cross_section.csv").read_text().splitlines()[1:]
    mean_rows = [line.split(",") for line in lines if line.startswith("mean,")]
    assert len(mean_rows) == 1
    assert abs(float(mean_rows[0][2]) - empirical_loss(problem, theta0)) < 1e-12
