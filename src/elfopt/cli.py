"""Experiment runner.

Configuration is a flat key=value namespace with defaults for every key;
values come from (lowest to highest precedence) defaults, a config file,
repeated --set overrides, and named command-line flags. Every value enters
as text, from any of these or from code, and parse_value gives it the type
of its key's default. All floats are serialized with 17 significant digits
so snapshots round-trip exactly and repeated runs of one configuration
produce byte-identical artifacts.

A key under a section prefix (quadratic, logistic, mlp, elf, elf.line, sgd,
adam, schedule) sets one field of the class that section builds, and its
default is that field's default in the class; batch_size takes LogisticBlobs's.
The other top-level keys and the cross_section keys carry a default of their own.

Artifacts written per run:
    config.txt          resolved configuration snapshot
    training_log.csv    one row per batch load, one column per LogRow field
    line_<i>.csv        sampled (round, s, loss) triples of line search i
    fits.csv            chosen fit per line search, coefficients empty-padded
    cross_section.csv   only in --dump-cross-section mode

Before a run, the artifacts an earlier run left in the output directory under
these names are removed, so the directory describes one run and an artifact
path that cannot be written is a configuration error, not a failure after
the run. A write that fails after the run, such as on a full disk, is the
same configuration error and cuts no artifact short: each is written to a
temporary file next to it, then moved into place.

Exit codes: 0 success, 1 configuration, usage or path error, 2 divergence.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .baselines import AdamConfig, SgdConfig, StepDecaySchedule, run_baseline
from .controller import DivergenceError, ElfConfig, LogRow, TrainingLog, run, unit_vector
from .linesearch import LineSearchConfig
from .problems import LogisticBlobs, MlpBlobs, NoisyQuadraticEnsemble, cross_section_profile
from .seeding import rng_streams


class ConfigError(ValueError):
    """Unknown keys or names, or values that do not parse."""


# Each config section builds one class: key prefix -> (class, the fields
# exposed under that prefix, in snapshot order). A key's default is the
# class's own default for that field.
SECTIONS: dict[str, tuple[type, tuple[str, ...]]] = {
    "quadratic": (NoisyQuadraticEnsemble, ("n_batches", "dim")),
    "logistic": (LogisticBlobs, ("n_train", "n_val", "n_features", "separation", "cluster_std")),
    "mlp": (MlpBlobs, ("n_train", "n_val", "n_features", "n_classes", "hidden1", "hidden2",
                       "separation", "cluster_std")),
    "elf": (ElfConfig, ("window_size", "loss_improvement_factor", "momentum_beta",
                        "decrease_factor_delta", "lines_to_average", "sample_from_validation",
                        "grid_search_candidates", "grid_search_probe_steps")),
    "elf.line": (LineSearchConfig, ("k", "n", "initial_interval_width", "min_window_size",
                                    "folds", "max_degree")),
    "sgd": (SgdConfig, ("learning_rate", "momentum")),
    "adam": (AdamConfig, ("learning_rate", "beta1", "beta2", "epsilon")),
    "schedule": (StepDecaySchedule, ("milestones", "divisor")),
}

DEFAULTS: dict[str, object] = {
    "problem": "quadratic",
    "optimizer": "elf",
    "steps": 2000,
    "batch_size": inspect.signature(LogisticBlobs).parameters["batch_size"].default,
    "seed": 0,
    "out": "run_out",
    "quiet": False,
    **{
        f"{prefix}.{name}": inspect.signature(cls).parameters[name].default
        for prefix, (cls, names) in SECTIONS.items()
        for name in names
    },
    # cross-section diagnostics
    "cross_section.s_min": -0.3,
    "cross_section.s_max": 0.7,
    "cross_section.points": 50,
    "cross_section.direction": "batch_gradient",
}

PROBLEM_NAMES = ("quadratic", "logistic", "mlp")
OPTIMIZER_NAMES = ("elf", "sgd", "adam")


# The one float format of every snapshot and artifact: 17 significant digits.
FLOAT_FORMAT = "%.17g"


def format_value(value) -> str:
    """The text of a config value or artifact cell; a float in FLOAT_FORMAT."""
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(FLOAT_FORMAT % v for v in value)
    return str(value)


def parse_value(key: str, text: str):
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            lowered = text.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, tuple):
            return tuple(float(part) for part in text.split(",") if part.strip())
        return text.strip()
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {text!r}") from exc


class RunConfig:
    """Resolved flat configuration; every key always present."""

    def __init__(self):
        self.values = dict(DEFAULTS)

    def __getitem__(self, key: str):
        return self.values[key]

    def set(self, key: str, text: str) -> None:
        """Set key to text typed by parse_value; any other value is an error."""
        if not isinstance(text, str):
            raise ConfigError(f"{key!r} is set from text, got {text!r}")
        self.values[key] = parse_value(key, text)

    def assign(self, item: str, where: str) -> None:
        """Set one KEY=VALUE item; where names its origin in a malformed item's error."""
        key, sep, text = item.partition("=")
        if not sep:
            raise ConfigError(f"{where}: expected KEY=VALUE, got {item!r}")
        self.set(key.strip(), text)

    def serialize(self) -> str:
        return "".join(f"{k}={format_value(v)}\n" for k, v in self.values.items())

    @classmethod
    def deserialize(cls, text: str) -> "RunConfig":
        config = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                config.assign(line, f"line {lineno}")
        return config


def build_section(config: RunConfig, prefix: str, **extra):
    """Build a section's class from its keys and the extra keyword arguments;
    a value the class rejects is a configuration error."""
    cls, names = SECTIONS[prefix]
    try:
        return cls(**{name: config[f"{prefix}.{name}"] for name in names}, **extra)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_streams(config: RunConfig):
    """The run's RNG streams; SeedSequence takes no negative seed."""
    if config["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    return rng_streams(config["seed"])


def build_problem(config: RunConfig, data_rng):
    name = config["problem"]
    if name not in PROBLEM_NAMES:
        raise ConfigError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    if name == "quadratic":
        return build_section(config, name, rng=data_rng)
    return build_section(config, name, batch_size=config["batch_size"], rng=data_rng)


def _write_file(path: Path, text: str) -> None:
    """Write text to a temporary file next to path, then move it to path, so
    path never holds part of text; an OSError removes the temporary file."""
    temporary = path.with_name(path.name + ".tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except OSError:
        temporary.unlink(missing_ok=True)
        raise


# Rows per % operation in _write_csv: this bounds the template and the values
# tuple each operation builds, whatever the artifact's length.
_BLOCK_ROWS = 1024


def _write_csv(path: Path, header, template: str, *columns) -> None:
    """Write a header of column names, then template % row for the rows of
    the equal-length columns, at most _BLOCK_ROWS rows per % operation. The
    template ends in a newline and has one conversion per column: %d for
    ints, FLOAT_FORMAT for floats, %s for text format_value wrote."""
    width, count = len(columns), len(columns[0])
    blocks = [",".join(header) + "\n"]
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        values = [None] * (width * (stop - start))
        for offset, column in enumerate(columns):
            values[offset::width] = column[start:stop]
        blocks.append((template * (stop - start)) % tuple(values))
    _write_file(path, "".join(blocks))


def write_training_log(path: Path, log: TrainingLog) -> None:
    """One row per LogRow of log.rows, built from its segments: each
    segment's event, and its update_step, expected and real cells formatted
    once, repeat over its losses (Python floats, as TrainingLog.record stores
    them)."""
    events, losses, tails = [], [], []
    for segment in log.segments:
        tail = ",".join(map(format_value, (segment.update_step, segment.expected_improvement,
                                           segment.real_improvement)))
        events += [segment.event] * len(segment.losses)
        tails += [tail] * len(segment.losses)
        losses += segment.losses
    _write_csv(path, LogRow._fields, f"%d,%s,{FLOAT_FORMAT},%s\n",
               range(1, len(losses) + 1), events, losses, tails)


def write_line_csvs(out_dir: Path, log: TrainingLog) -> None:
    """One line_<i>.csv of (round, s, loss) rows per line search."""
    template = f"%d,{FLOAT_FORMAT},{FLOAT_FORMAT}\n"
    for index, search in enumerate(log.line_searches):
        _write_csv(out_dir / f"line_{index}.csv", ("round", "s", "loss"), template,
                   search.rounds.tolist(), search.samples.positions.tolist(),
                   search.samples.losses.tolist())


def write_fits_csv(path: Path, log: TrainingLog, max_degree: int) -> None:
    """The chosen fit per line search: its degree, then its coefficients,
    empty-padded to max_degree + 1 cells."""
    cells = []
    for search in log.line_searches:
        coef = search.fit.polynomial.coefficients.tolist()
        cells.append(",".join(map(format_value, coef + [None] * (max_degree + 1 - len(coef)))))
    _write_csv(path, ["line_index", "degree", *(f"c{i}" for i in range(max_degree + 1))],
               "%d,%d,%s\n", range(len(cells)),
               [search.fit.chosen_degree for search in log.line_searches], cells)


@contextmanager
def _writing_out_dir():
    """Turn an OSError raised while writing the output directory into a
    ConfigError, which main reports as one line and exit code 1."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write the output directory: {exc}") from exc


def _open_out_dir(config: RunConfig, artifacts: tuple[str, ...]) -> Path:
    """Create the output directory, remove whatever an earlier run left under
    the names (glob patterns) of the artifacts this run writes, and write
    config.txt; call after validation. A path in the way is a ConfigError
    before the run, and the directory then describes one run."""
    out_dir = Path(config["out"])
    with _writing_out_dir():
        out_dir.mkdir(parents=True, exist_ok=True)
        for pattern in artifacts:
            for path in out_dir.glob(pattern):
                path.unlink()
        _write_file(out_dir / "config.txt", config.serialize())
    return out_dir


def run_experiment(config: RunConfig) -> int:
    """Run the configured optimizer on the configured problem and write all
    artifact files; nothing is written until the configuration validates."""
    optimizer = config["optimizer"]
    if optimizer not in OPTIMIZER_NAMES:
        raise ConfigError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZER_NAMES}")
    streams = build_streams(config)
    problem = build_problem(config, streams.data)
    steps = config["steps"]
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if optimizer == "elf":
        train = run
        train_config = build_section(config, "elf", line_search=build_section(config, "elf.line"))
    else:
        train = run_baseline
        train_config = build_section(config, optimizer, schedule=build_section(config, "schedule"))
    out_dir = _open_out_dir(config, ("training_log.csv", "line_[0-9]*.csv", "fits.csv"))

    exit_code = 0
    try:
        _, log = train(problem, train_config, steps, streams)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        log, exit_code = exc.log, 2

    with _writing_out_dir():
        write_training_log(out_dir / "training_log.csv", log)
        write_line_csvs(out_dir, log)
        write_fits_csv(out_dir / "fits.csv", log, config["elf.line.max_degree"])

    if not config["quiet"]:
        print(f"run complete: {len(log)} steps "
              f"(sgd={log.count('sgd')}, line_search={log.count('line_search')}, "
              f"grid_search={log.count('grid_search')}), "
              f"{len(log.line_searches)} line searches, artifacts in {out_dir}")
    return exit_code


def dump_cross_section(config: RunConfig) -> int:
    """Densely sample every training batch's loss along one direction from
    the initial parameters and write the profile CSV."""
    streams = build_streams(config)
    problem = build_problem(config, streams.data)
    theta0 = np.asarray(problem.initial_theta(streams.theta_init), dtype=float)

    mode = config["cross_section.direction"]
    if mode == "batch_gradient":
        direction = unit_vector(-problem.batch_gradient(theta0, problem.train_batches[0]))
        if direction is None:
            raise ConfigError(
                "zero or non-finite gradient at the initial parameters; use direction=random")
    elif mode == "random":
        direction = unit_vector(streams.line_search.normal(size=theta0.size))
    else:
        raise ConfigError(f"unknown cross_section.direction {mode!r}")

    points = config["cross_section.points"]
    if points < 1:
        raise ConfigError("cross_section.points must be >= 1")
    s_min, s_max = config["cross_section.s_min"], config["cross_section.s_max"]
    if not np.isfinite([s_min, s_max]).all():
        raise ConfigError("cross_section.s_min and cross_section.s_max must be finite")
    try:    # numpy refuses a grid or profile past memory or its size limit
        grid = np.linspace(s_min, s_max, points)
        profile = cross_section_profile(problem, theta0, direction, grid)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cross_section.points={points}: {exc}") from exc

    out_dir = _open_out_dir(config, ("cross_section.csv",))
    names = [f"batch_{i}" for i in range(len(profile.per_batch))] + ["mean", "q1", "q2", "q3"]
    curves = np.vstack([profile.per_batch, profile.mean, profile.q1, profile.q2, profile.q3])
    with _writing_out_dir():
        _write_csv(out_dir / "cross_section.csv", ("series", "s", "loss"),
                   f"%s,{FLOAT_FORMAT},{FLOAT_FORMAT}\n",
                   [name for name in names for _ in range(points)],
                   profile.s_grid.tolist() * len(names), curves.ravel().tolist())

    if not config["quiet"]:
        print(f"cross section written: {profile.per_batch.shape[0]} batches x "
              f"{points} points, artifacts in {out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors, so a
    mistyped command line exits 1 like any other bad value."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elfopt",
        description="Run a training experiment or dump a loss cross section.",
    )
    parser.add_argument("--config", type=str, default=None, help="config file (key=value lines)")
    # Each value flag sets its config key; parse_value types it like --set text.
    for key in ("problem", "optimizer", "steps", "batch_size", "seed", "out"):
        parser.add_argument("--" + key.replace("_", "-"), default=None)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key; repeatable")
    parser.add_argument("--dump-cross-section", action="store_true",
                        help="write a dense cross-section profile instead of training")
    parser.add_argument("--quiet", action="store_const", const="true")
    return parser


def config_from_args(args) -> RunConfig:
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
    config = RunConfig.deserialize(text)
    for item in args.set:
        config.assign(item, "--set")
    # Named flags share their config keys' names and hand over text; an
    # unset flag is None, so --seed 0 still overrides a file's seed.
    for key, value in vars(args).items():
        if key in DEFAULTS and value is not None:
            config.set(key, value)
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        if args.dump_cross_section:
            return dump_cross_section(config)
        return run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
