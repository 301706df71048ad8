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
default is that field's default in the class. Only the top-level keys, the
cross_section keys and adam.learning_rate carry a default of their own.

Artifacts written per run:
    config.txt          resolved configuration snapshot
    training_log.csv    one row per batch load, one column per LogRow field
    line_<i>.csv        sampled (round, s, loss) triples of line search i
    fits.csv            chosen fit per line search, coefficients empty-padded
    cross_section.csv   only in --dump-cross-section mode

Before a run, the artifacts an earlier run left in the output directory under
these names are removed, so the directory describes one run and an artifact
path that cannot be written is a configuration error, not a failure after
the run.

Exit codes: 0 success, 1 configuration, usage or path error, 2 divergence.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, StepDecaySchedule, run_baseline
from .controller import DivergenceError, ElfConfig, LogRow, TrainingLog, euclidean_norm, run
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
    "sgd": (BaselineConfig, ("learning_rate", "momentum")),
    "adam": (BaselineConfig, ("learning_rate", "beta1", "beta2", "epsilon")),
    "schedule": (StepDecaySchedule, ("milestones", "divisor")),
}

DEFAULTS: dict[str, object] = {
    "problem": "quadratic",
    "optimizer": "elf",
    "steps": 2000,
    "batch_size": 50,
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
# BaselineConfig's 0.01 suits SGD with momentum; Adam's customary step,
# which normalizes by the gradient scale, is ten times smaller.
DEFAULTS["adam.learning_rate"] = 0.001

PROBLEM_NAMES = ("quadratic", "logistic", "mlp")
OPTIMIZER_NAMES = ("elf", "sgd", "adam")


def format_value(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join("%.17g" % v for v in value)
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


def build_problem(config: RunConfig, data_rng):
    name = config["problem"]
    if name not in PROBLEM_NAMES:
        raise ConfigError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    if name == "quadratic":
        return build_section(config, name, rng=data_rng)
    return build_section(config, name, batch_size=config["batch_size"], rng=data_rng)


def _write_csv(path: Path, header, rows) -> None:
    """Write a header of column names, then each row's cells through format_value."""
    lines = [",".join(header)]
    lines.extend(",".join(map(format_value, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_training_log(path: Path, log: TrainingLog) -> None:
    _write_csv(path, LogRow._fields, log.rows)


def write_line_csvs(out_dir: Path, log: TrainingLog) -> None:
    for index, search in enumerate(log.line_searches):
        _write_csv(out_dir / f"line_{index}.csv", ("round", "s", "loss"),
                   zip(search.rounds.tolist(), search.samples.positions.tolist(),
                       search.samples.losses.tolist()))


def write_fits_csv(path: Path, log: TrainingLog, max_degree: int) -> None:
    rows = []
    for index, search in enumerate(log.line_searches):
        coef = search.fit.polynomial.coefficients.tolist()
        padding = [None] * (max_degree + 1 - len(coef))
        rows.append([index, search.fit.chosen_degree, *coef, *padding])
    _write_csv(path, ["line_index", "degree", *(f"c{i}" for i in range(max_degree + 1))], rows)


def _open_out_dir(config: RunConfig, artifacts: tuple[str, ...]) -> Path:
    """Create the output directory, remove whatever an earlier run left under
    the names (glob patterns) of the artifacts this run writes, and write
    config.txt; call after validation. A path in the way is a ConfigError
    before the run, and the directory then describes one run."""
    out_dir = Path(config["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for pattern in artifacts:
            for path in out_dir.glob(pattern):
                path.unlink()
        (out_dir / "config.txt").write_text(config.serialize(), encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write the output directory: {exc}") from exc
    return out_dir


def run_experiment(config: RunConfig) -> int:
    """Run the configured optimizer on the configured problem and write all
    artifact files; nothing is written until the configuration validates."""
    optimizer = config["optimizer"]
    if optimizer not in OPTIMIZER_NAMES:
        raise ConfigError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZER_NAMES}")
    streams = rng_streams(config["seed"])
    problem = build_problem(config, streams.data)
    steps = config["steps"]
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if optimizer == "elf":
        elf_config = build_section(config, "elf", line_search=build_section(config, "elf.line"))
    else:
        schedule = build_section(config, "schedule", total_steps=steps)
        baseline_config = build_section(config, optimizer, schedule=schedule)
    out_dir = _open_out_dir(config, ("training_log.csv", "line_[0-9]*.csv", "fits.csv"))

    exit_code = 0
    try:
        if optimizer == "elf":
            _, log = run(problem, elf_config, steps, streams)
        else:
            _, log = run_baseline(problem, optimizer, baseline_config, steps, streams)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        log, exit_code = exc.log, 2

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
    streams = rng_streams(config["seed"])
    problem = build_problem(config, streams.data)
    theta0 = np.asarray(problem.initial_theta(streams.theta_init), dtype=float)

    mode = config["cross_section.direction"]
    if mode == "batch_gradient":
        gradient = problem.batch_gradient(theta0, problem.train_batches[0])
        norm = euclidean_norm(gradient)
        if norm == 0.0:
            raise ConfigError("zero gradient at the initial parameters; use direction=random")
        direction = -gradient / norm
    elif mode == "random":
        vector = streams.line_search.normal(size=theta0.size)
        direction = vector / euclidean_norm(vector)
    else:
        raise ConfigError(f"unknown cross_section.direction {mode!r}")

    points = config["cross_section.points"]
    if points < 1:
        raise ConfigError("cross_section.points must be >= 1")
    s_min, s_max = config["cross_section.s_min"], config["cross_section.s_max"]
    if not np.isfinite([s_min, s_max]).all():
        raise ConfigError("cross_section.s_min and cross_section.s_max must be finite")
    profile = cross_section_profile(problem, theta0, direction, np.linspace(s_min, s_max, points))

    out_dir = _open_out_dir(config, ("cross_section.csv",))
    series = [(f"batch_{i}", curve) for i, curve in enumerate(profile.per_batch)]
    series += [("mean", profile.mean), ("q1", profile.q1), ("q2", profile.q2), ("q3", profile.q3)]
    _write_csv(out_dir / "cross_section.csv", ("series", "s", "loss"),
               [(name, s, loss) for name, curve in series
                for s, loss in zip(profile.s_grid.tolist(), curve.tolist())])

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
