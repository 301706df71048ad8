"""The benchmark's workloads and the correctness gate applied to every run.

A unit of work is one seed: one ``run()`` on the elf workloads, or the elf,
sgd and adam CLI runs on the CLI workload. A unit either returns an Outcome
or raises; ``CheckFailed`` means it finished but its output is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from elfopt import cli, controller, linesearch
from elfopt.controller import ElfConfig
from elfopt.problems import MlpBlobs, NoisyQuadraticEnsemble, empirical_loss
from elfopt.seeding import rng_streams

from tracing import TracedProblem, Tracer, patched

# final_loss is the mean train loss over this many trailing SGD rows.
FINAL_WINDOW = 150
CLI_OPTIMIZERS = ("elf", "sgd", "adam")
CLI_WRITERS = ("write_training_log", "write_line_csvs", "write_fits_csv")


class CheckFailed(Exception):
    """A run finished but its output failed the correctness gate."""


@dataclass(frozen=True)
class Outcome:
    setup_s: float
    train_s: float
    loads: int
    budgeted: int
    invalid_loads: int       # loads spent in searches without a valid minimum
    final_loss: float
    fingerprint: str         # identical across repeats of the same seed


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _valid(record) -> bool:
    return record.minimum_position is not None and record.minimum_position > 0.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _final_loss(sgd_losses) -> float:
    if not sgd_losses:
        raise CheckFailed("the run took no SGD step")
    return float(np.mean(sgd_losses[-FINAL_WINDOW:]))


def _check_elf_log(state, log):
    """Common gate on an elf run; returns (final_loss, invalid loads,
    decision fingerprint)."""
    if len(log.rows) != state.t:
        raise CheckFailed(f"log has {len(log.rows)} rows but state.t is {state.t}")
    if not all(math.isfinite(row.train_loss) for row in log.rows):
        raise CheckFailed("non-finite loss in the training log")
    final = _final_loss([row.train_loss for row in log.rows if row.event == "sgd"])
    decisions = [(r.fit.chosen_degree, _valid(r)) for r in log.line_searches]
    invalid = sum(len(r.samples) for r in log.line_searches if not _valid(r))
    return final, invalid, _sha(repr((decisions, state.t, final.hex())))


def _check_quadratic(problem, theta):
    empirical = empirical_loss(problem, theta)
    closed = problem.closed_form_empirical(theta)
    if not abs(empirical - closed) <= 1e-9 * abs(closed):
        raise CheckFailed(f"empirical loss {empirical!r} != closed form {closed!r}")
    optimum = problem.closed_form_empirical(problem.closed_form_minimizer())
    if empirical < optimum:
        raise CheckFailed(f"empirical loss {empirical!r} below the optimum {optimum!r}")


def _count_fit(counts, report):
    counts["degrees_tried"] += len(report.cv_test_errors)
    counts["chosen_degree_sum"] += report.chosen_degree


def _count_search(counts, result):
    if result.valid:
        counts["valid_searches"] += 1
    else:
        counts["invalid_loads"] += result.batches_consumed


def _count_run(counts, result):
    _, log = result
    counts["sgd_steps"] += log.count("sgd")
    counts["grid_loads"] += log.count("grid_search")


def instrumentation(tracer: Tracer):
    """Patches that trace each layer where its caller looks it up."""
    build_problem = cli.build_problem

    def traced_build_problem(config, data_rng):
        problem = tracer.call("problems.construct", build_problem, config, data_rng)
        return TracedProblem(problem, tracer)

    wrap = tracer.wrap
    return [
        (linesearch, "select_degree_and_fit",
         wrap("regression.select_degree_and_fit", linesearch.select_degree_and_fit, _count_fit)),
        (linesearch, "closest_minimum_to_zero",
         wrap("poly.closest_minimum_to_zero", linesearch.closest_minimum_to_zero)),
        (linesearch, "solve_for_value_nearest",
         wrap("poly.solve_for_value_nearest", linesearch.solve_for_value_nearest)),
        (controller, "elf_line_search",
         wrap("linesearch.elf_line_search", controller.elf_line_search, _count_search)),
        (controller, "apply_decrease_factor",
         wrap("controller.apply_decrease_factor", controller.apply_decrease_factor)),
        (controller, "initial_grid_search",
         wrap("controller.initial_grid_search", controller.initial_grid_search)),
        (controller, "trigger_line_searches",
         wrap("controller.trigger_line_searches", controller.trigger_line_searches)),
        (cli, "run", wrap("controller.run", cli.run, _count_run)),
        (cli, "run_baseline", wrap("baselines.run_baseline", cli.run_baseline)),
        (cli, "rng_streams", wrap("seeding.rng_streams", cli.rng_streams)),
        (cli, "build_problem", traced_build_problem),
        *[(cli, name, wrap(f"cli.{name}", getattr(cli, name))) for name in CLI_WRITERS],
    ]


@dataclass(frozen=True)
class ElfRunWorkload:
    """``run()`` with the default ElfConfig on one problem per seed."""

    make_problem: Callable
    budget: int          # loads given to each run
    panel: int           # distinct seeds per measured run
    trace_panel: int     # seeds per traced pass
    check_theta: Callable | None = None
    runs_per_unit = 1

    def unit(self, seed: int, tracer: Tracer | None = None) -> Outcome:
        call = tracer.call if tracer else _direct
        start = perf_counter()
        streams = call("seeding.rng_streams", rng_streams, seed)
        problem = call("problems.construct", self.make_problem, streams.data)
        setup_s = perf_counter() - start

        train = controller.run
        model = problem
        if tracer:
            train = tracer.wrap("controller.run", controller.run, _count_run)
            model = TracedProblem(problem, tracer)
        start = perf_counter()
        state, log = train(model, ElfConfig(), self.budget, streams)
        train_s = perf_counter() - start

        final, invalid, fingerprint = _check_elf_log(state, log)
        if self.check_theta is not None:
            self.check_theta(problem, state.theta)
        return Outcome(setup_s, train_s, state.t, self.budget, invalid, final, fingerprint)


def _read_training_log(path: Path) -> tuple[int, float | None]:
    """Gate on a training_log.csv; returns (rows, final_loss or None when
    the log has no SGD rows)."""
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    if [int(row["step"]) for row in rows] != list(range(1, len(rows) + 1)):
        raise CheckFailed(f"{path.name}: steps do not count 1..{len(rows)}")
    losses = [float(row["train_loss"]) for row in rows]
    if not all(math.isfinite(loss) for loss in losses):
        raise CheckFailed(f"{path.name}: non-finite loss")
    sgd = [loss for loss, row in zip(losses, rows) if row["event"] == "sgd"]
    return len(rows), (_final_loss(sgd) if sgd else None)


def _digest(directory: Path) -> tuple[str, int, int]:
    """(content digest, file count, byte count) of an artifact directory."""
    sha = hashlib.sha256()
    files = sorted(directory.iterdir())
    size = 0
    for path in files:
        data = path.read_bytes()
        size += len(data)
        sha.update(path.name.encode() + b"\0" + data + b"\0")
    return sha.hexdigest(), len(files), size


@dataclass(frozen=True)
class CliWorkload:
    """``elfopt.cli.main`` for elf, then sgd, then adam at one --steps and
    seed on the non-separable logistic problem; artifacts go to a temporary
    directory under work_dir that is removed after each seed."""

    budget: int          # --steps of each of the three runs
    panel: int
    trace_panel: int
    work_dir: Path
    runs_per_unit = len(CLI_OPTIMIZERS)

    def argv(self, seed: int, optimizer: str, out: Path) -> list[str]:
        return [
            "--problem", "logistic",
            "--set", "logistic.separation=1.0",
            "--set", "logistic.cluster_std=1.0",
            "--optimizer", optimizer,
            "--steps", str(self.budget),
            "--seed", str(seed),
            "--out", str(out),
            "--quiet",
        ]

    def setup_seconds(self, seed: int) -> float:
        """The set-up main() does before training, timed on its own."""
        args = cli.build_parser().parse_args(self.argv(seed, "elf", self.work_dir))
        config = cli.config_from_args(args)
        start = perf_counter()
        streams = cli.rng_streams(seed)
        cli.build_problem(config, streams.data)
        return perf_counter() - start

    def unit(self, seed: int, tracer: Tracer | None = None) -> Outcome:
        call = tracer.call if tracer else _direct
        setup_s = self.setup_seconds(seed) if tracer is None else 0.0
        # A fixed path per process: config.txt records it, and repeats of a
        # seed must write byte-identical artifacts.
        out = self.work_dir / f"cli-{os.getpid()}"
        shutil.rmtree(out, ignore_errors=True)
        try:
            captured = []
            inner = cli.run

            def capture(*args, **kwargs):
                result = inner(*args, **kwargs)
                captured.append(result)
                return result

            with patched([(cli, "run", capture)]):
                start = perf_counter()
                codes = [call("cli.main", cli.main, self.argv(seed, opt, out / opt))
                         for opt in CLI_OPTIMIZERS]
                train_s = perf_counter() - start
            if codes != [0] * len(CLI_OPTIMIZERS):
                raise CheckFailed(f"exit codes {codes}")

            state, log = captured[0]
            _, invalid, decisions = _check_elf_log(state, log)
            elf_rows, final = _read_training_log(out / "elf" / "training_log.csv")
            if elf_rows != state.t:
                raise CheckFailed(f"training_log.csv has {elf_rows} rows, state.t is {state.t}")
            loads = elf_rows
            for opt in CLI_OPTIMIZERS[1:]:
                rows, _ = _read_training_log(out / opt / "training_log.csv")
                if rows != self.budget:
                    raise CheckFailed(f"{opt} logged {rows} rows for --steps {self.budget}")
                loads += rows
            digests = [_digest(out / opt) for opt in CLI_OPTIMIZERS]
            if tracer:
                tracer.counts["files_written"] += sum(d[1] for d in digests)
                tracer.counts["bytes_written"] += sum(d[2] for d in digests)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        fingerprint = _sha(repr((decisions, [d[0] for d in digests])))
        return Outcome(setup_s, train_s, loads, self.budget * len(CLI_OPTIMIZERS),
                       invalid, final, fingerprint)


def workloads(work_dir: Path) -> dict:
    """The named workloads. On a 2-core machine one panel pass takes 22 to
    27 s of a 40 s run, and about 37 s on mlp-wide-elf, whose quality
    metrics vary most between seeds; see bench/README.md."""
    return {
        # Cheap 20-dim oracle: the fitting layer dominates.
        "quadratic-elf": ElfRunWorkload(
            make_problem=lambda rng: NoisyQuadraticEnsemble(n_batches=100, dim=20, rng=rng),
            budget=6000, panel=48, trace_panel=2, check_theta=_check_quadratic,
        ),
        # 256x256 hidden layers: the batch oracles dominate.
        "mlp-wide-elf": ElfRunWorkload(
            make_problem=lambda rng: MlpBlobs(
                n_train=20000, n_val=5000, hidden1=256, hidden2=256, rng=rng),
            budget=3000, panel=18, trace_panel=1,
        ),
        # Non-separable logistic data, where most elf searches are thrown
        # away, plus the baselines' gradient path and artifact writing.
        "logistic-hard-cli": CliWorkload(budget=6000, panel=16, trace_panel=1, work_dir=work_dir),
    }
