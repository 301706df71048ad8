"""The full step-size-measuring optimizer.

Training alternates between two phases. In the SGD phase each step loads one
batch and moves the parameters by a fixed scalar step along the normalized
negative batch gradient. Whenever the measured improvement over the last step
window falls below a fraction of the improvement the most recent line fit
promised, a search phase runs a few consecutive line searches, averages their
suggested step sizes, and training resumes with the new step.

Step accounting is strict: every batch load (SGD step, line-search sample,
grid-search probe) is written out where it happens as three statements: draw
the batches from their stream, measure them with the problem's oracle, and
call TrainingLog.record, which stores the call's losses in a segment and
numbers one row per load. Nothing else records a load, and the step counter
state.t is the log's row count, len(log). A line search's round oracle draws
one batch per step size and measures them all with one batch_losses_along
call on the problem; an SGD step or grid-search probe measures its batch's
loss and gradient with one batch_loss_and_gradient call and steps with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .linesearch import MIN_INTERVAL_WIDTH, LineSearchConfig, LineSearchResult, elf_line_search
from .poly import Polynomial, evaluate, real_roots_in
from .problems import BatchStream
from .seeding import RngStreams


class DivergenceError(RuntimeError):
    """Raised when a training loss stops being finite; log holds every load
    up to and including the non-finite one."""

    def __init__(self, message: str, log: TrainingLog):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class ElfConfig:
    window_size: int = 150
    loss_improvement_factor: float = 0.01
    momentum_beta: float = 0.4
    decrease_factor_delta: float = 0.2
    lines_to_average: int = 3
    line_search: LineSearchConfig = field(default_factory=LineSearchConfig)
    grid_search_candidates: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    grid_search_probe_steps: int = 20
    sample_from_validation: bool = True

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 <= self.loss_improvement_factor:
            raise ValueError("loss_improvement_factor must be >= 0")
        if not 0.0 <= self.momentum_beta < 1.0:
            raise ValueError("momentum_beta must lie in [0, 1)")
        if not 0.0 <= self.decrease_factor_delta < 1.0:
            raise ValueError("decrease_factor_delta must lie in [0, 1)")
        if self.lines_to_average < 1:
            raise ValueError("lines_to_average must be >= 1")
        if not self.grid_search_candidates:
            raise ValueError("grid_search_candidates must not be empty; "
                             "set grid_search_probe_steps=0 to skip the grid search")
        # The selected candidate becomes the line search's first interval width.
        if not all(MIN_INTERVAL_WIDTH <= c < math.inf for c in self.grid_search_candidates):
            raise ValueError(f"grid_search_candidates must lie in [{MIN_INTERVAL_WIDTH:g}, inf)")
        if self.grid_search_probe_steps < 0:
            raise ValueError("grid_search_probe_steps must be >= 0")


class LogRow(NamedTuple):
    step: int
    event: str                     # "sgd", "line_search", or "grid_search"
    train_loss: float
    update_step: float | None
    expected_improvement: float | None
    real_improvement: float | None


# Events whose non-finite loss ends the run, with the loss's name in the
# error; a grid-search probe that blows up only loses its comparison.
_DIVERGES = {"sgd": "training", "line_search": "line-search"}


class Segment(NamedTuple):
    """Consecutive loads from step first on, one per loss, that
    TrainingLog.record got with the same event and the same objects for the
    last three cells: one call's, or a run of calls' such as a baseline's
    steps at one rate."""

    first: int
    event: str
    losses: list[float]
    update_step: float | None
    expected_improvement: float | None
    real_improvement: float | None


class TrainingLog:
    """Every batch load of a run, and its line searches. record stores the
    loads as Segments; rows derives one LogRow per load from them."""

    def __init__(self):
        self.segments: list[Segment] = []
        self.line_searches: list[LineSearchResult] = []
        self._loads = 0

    def __len__(self) -> int:
        return self._loads

    @property
    def rows(self) -> list[LogRow]:
        return [LogRow(step, event, loss, update_step, expected, real)
                for first, event, losses, update_step, expected, real in self.segments
                for step, loss in enumerate(losses, start=first)]

    def count(self, event: str) -> int:
        return sum(len(segment.losses) for segment in self.segments if segment.event == event)

    def record(self, event, losses: list[float], update_step=None, expected=None,
               real=None) -> None:
        """Record losses (Python floats), numbered on from the log's length;
        the first non-finite sgd or line_search loss raises DivergenceError
        with the log ending on its row. The losses extend the last segment
        when it has this event and holds these very cell objects (compared
        by identity, so 0.0 and -0.0, or two nan objects, stay apart), and
        start a segment of their own, a copy of the list, otherwise."""
        diverged = event in _DIVERGES and not all(map(math.isfinite, losses))
        if diverged:
            losses = losses[: next(i for i, loss in enumerate(losses)
                                   if not math.isfinite(loss)) + 1]
        last = self.segments[-1] if self.segments else None
        if (last is not None and last.event == event and last.update_step is update_step
                and last.expected_improvement is expected and last.real_improvement is real):
            last.losses.extend(losses)
        else:
            self.segments.append(
                Segment(self._loads + 1, event, list(losses), update_step, expected, real))
        self._loads += len(losses)
        if diverged:
            raise DivergenceError(f"non-finite {_DIVERGES[event]} loss at step {self._loads}", self)


@dataclass
class OptimizerState:
    """A run's parameters, step size and trigger state. The step window's SGD
    losses are window_losses[:window_count]; run gives the buffer
    min(window_size, steps_to_train) + 1 slots: a window holds at most
    window_size + 1 losses between resets (search phases, boundaries), and
    never more than the run's steps_to_train SGD steps. momentum_buffer is
    the state's own float array, shaped as theta, which each search phase
    updates in place; theta is replaced, never written in place."""

    theta: np.ndarray
    momentum_buffer: np.ndarray
    update_step: float = 0.0
    window_losses: np.ndarray = field(default_factory=lambda: np.empty(0))
    window_count: int = 0
    last_mean_loss: float = 0.0
    t_of_last_update: int = -1
    expected_per_step_improvement: float = np.inf
    current_batch: object = None
    log: TrainingLog = field(default_factory=TrainingLog)

    @property
    def t(self) -> int:
        """Batch loads so far: the log's row count."""
        return len(self.log)

    def window_mean(self) -> float:
        """np.mean of the window's losses by its own sum and division; nan if empty."""
        k = self.window_count
        return float(np.add.reduce(self.window_losses[:k])) / k if k else math.nan


def unit_vector(vector: np.ndarray) -> np.ndarray | None:
    """vector / np.linalg.norm(vector) of a 1-D float array, bit for bit, or
    None where that norm is not positive (a zero vector, or a nan entry).
    Where the sum of squares overflows though every entry is finite (entries
    past about 1e154), the norm is taken of the vector over its largest
    |entry| and scaled back; where even that norm passes the float range,
    the scaled vector is divided by its own norm, so the result still has
    unit norm instead of being zero. np.vdot, unlike the dot np.linalg.norm
    takes, warns of no overflow."""
    norm = math.sqrt(np.vdot(vector, vector))
    if norm == math.inf and np.isfinite(vector).all():
        scale = float(np.max(np.abs(vector)))
        scaled = np.divide(vector, scale)
        scaled_norm = math.sqrt(np.vdot(scaled, scaled))
        norm = scale * scaled_norm
        if norm == math.inf:
            vector, norm = scaled, scaled_norm
    return vector / norm if norm > 0.0 else None


def trigger_terms(
    t: int,
    t_of_last_update: int,
    window_size: int,
    loss_improvement_factor: float,
    last_mean_loss: float,
    mean_window_loss: float,
    expected_per_step_improvement: float,
) -> tuple[bool, bool, float, float]:
    """Decide whether a new step size must be measured, and return the
    decision with the terms it is made from: (fires, on a window boundary,
    realized improvement, expected improvement).

    Fires only on window boundaries, and only when the realized improvement
    over the window is at most the improvement-factor fraction of the
    extrapolated expectation.
    """
    on_boundary = (t - t_of_last_update + 1) % (window_size + 1) == 0
    real = last_mean_loss - mean_window_loss
    expected = last_mean_loss - expected_per_step_improvement * (t - t_of_last_update)
    return on_boundary and real <= expected * loss_improvement_factor, on_boundary, real, expected


def apply_decrease_factor(
    fit: Polynomial,
    s_min: float,
    delta: float,
    bracket_end: float,
) -> float:
    """Back off from the fitted minimum to the smallest step past it whose
    fitted loss gives back a delta fraction of the improvement.

    Solves fit(s) = fit(s_min) + delta * (fit(0) - fit(s_min)) for the
    smallest real root s > s_min. Returns s_min itself when delta is zero or
    no such root exists before bracket_end.
    """
    if delta == 0.0 or bracket_end <= s_min:
        return s_min
    target = evaluate(fit, s_min) + delta * (evaluate(fit, 0.0) - evaluate(fit, s_min))
    roots = real_roots_in(fit - target, (s_min, bracket_end)).tolist()
    return next((root for root in roots if root > s_min), s_min)


def initial_grid_search(
    problem,
    config: ElfConfig,
    train_stream: BatchStream,
    state: OptimizerState,
) -> float:
    """Probe candidate step sizes from largest to smallest and keep the first
    (largest) whose probe losses beat standing still.

    Every probe runs unit-gradient SGD steps from the current parameters,
    which no step writes (each returns a new array), so none is copied; the
    baseline is the mean batch loss at the unmoved parameters over the same
    number of batches. Falls back to the smallest candidate.
    """
    probe = config.grid_search_probe_steps
    candidates = sorted(config.grid_search_candidates, reverse=True)
    theta0 = state.theta

    batches = train_stream.next_batches(probe)
    baseline_losses = [float(problem.batch_loss(theta0, batch)) for batch in batches]
    state.log.record("grid_search", baseline_losses)
    # The loss level at theta0 is the first search phase's reference level.
    baseline = state.last_mean_loss = float(np.mean(baseline_losses))

    for candidate in candidates:
        theta = theta0
        probe_losses = []
        for _ in range(probe):
            loss, theta = _unit_step(
                problem, train_stream, theta, candidate, state, "grid_search")
            probe_losses.append(loss)
        if float(np.mean(probe_losses)) < baseline:
            return candidate
    return candidates[-1]


def trigger_line_searches(
    state: OptimizerState,
    config: ElfConfig,
    problem,
    sample_stream: BatchStream,
    line_rng: np.random.Generator,
    cv_rng: np.random.Generator,
) -> None:
    """Measure a new step size with consecutive line searches.

    Each search folds the current batch gradient into the momentum buffer,
    searches along the normalized negative buffer, and immediately applies
    its own (decrease-factor adjusted) step, so successive lines start from
    moved parameters. The SGD step size becomes the mean over the valid
    suggestions; searches without a positive minimum are discarded, and when
    none are valid the step size keeps its previous value. Every line-search
    sample is drawn from sample_stream.

    Parameter-sized arrays: besides theta and the momentum buffer (updated
    in place), a search holds one direction, which becomes the next theta
    when its step is applied, and the round oracle one parameter buffer per
    round worker. A search's gradient lives only until it is folded into the
    buffer, and its direction and theta0 (theta itself, not a copy) are
    dropped before the next search's gradient.
    """
    applied_steps: list[float] = []
    improvements: list[float] = []
    applied_improvements: list[float] = []
    momentum = state.momentum_buffer
    for _ in range(config.lines_to_average):
        gradient = problem.batch_gradient(state.theta, state.current_batch)
        momentum *= config.momentum_beta
        momentum += gradient
        del gradient
        direction = unit_vector(momentum)
        if direction is None:
            continue
        # -unit_vector(momentum) is unit_vector(-momentum) bit for bit, as
        # norms are sign-blind; it is negated in unit_vector's fresh result.
        np.negative(direction, out=direction)
        theta0 = state.theta

        def oracle(s: np.ndarray) -> np.ndarray:
            batches = sample_stream.next_batches(s.size)
            losses = problem.batch_losses_along(theta0, direction, s, batches)
            state.log.record("line_search", losses.tolist(), state.update_step)
            return losses

        result = elf_line_search(oracle, config.line_search, line_rng, cv_rng)
        state.log.line_searches.append(result)
        if result.valid:
            s_target = apply_decrease_factor(
                result.fit.polynomial,
                result.minimum_position,
                config.decrease_factor_delta,
                float(result.samples.positions.max()),
            )
            # theta0 + s_target * direction, formed inside direction.
            direction *= s_target
            state.theta = np.add(theta0, direction, out=direction)
            applied_steps.append(s_target)
            improvements.append(result.expected_improvement)
            applied_improvements.append(
                evaluate(result.fit.polynomial, 0.0)
                - evaluate(result.fit.polynomial, s_target)
            )
        # The next search's gradient runs without this one's arrays.
        del direction, theta0, oracle

    if applied_steps:
        state.update_step = float(np.mean(applied_steps))
        state.expected_per_step_improvement = float(np.mean(improvements)) / config.window_size
    else:
        # No line produced a usable minimum: the step size keeps its previous
        # value, but the improvement expectation is re-measured as zero so an
        # infinite initial expectation cannot block every future trigger.
        state.expected_per_step_improvement = 0.0

    # Reference level for the next trigger evaluations: the loss level right
    # after this phase, estimated as the level before it minus the fitted
    # improvement the applied steps delivered. Anchoring to the post-phase
    # level makes real_improvement measure pure SGD-phase progress, which is
    # the only reading under which a later plateau can re-trigger a search.
    # A phase right after the grid search has no SGD losses yet; the grid
    # search left its baseline level in last_mean_loss.
    pre_level = state.window_mean() if state.window_count else state.last_mean_loss
    state.last_mean_loss = pre_level - float(np.sum(applied_improvements))
    state.window_count = 0
    state.t_of_last_update = state.t


def run(
    problem,
    config: ElfConfig,
    steps_to_train: int,
    streams: RngStreams,
) -> tuple[OptimizerState, TrainingLog]:
    """Train for steps_to_train batch loads and return (state, state.log).

    Start-up: an optional grid search, of at most steps_to_train probe steps
    per candidate, picks the largest workable step size (it seeds both the
    first SGD step and the line-search interval width), then one search
    phase measures the actual step. After that the trigger predicate
    decides on every window boundary whether to re-measure.
    """
    if steps_to_train < 1:
        raise ValueError("steps_to_train must be >= 1")
    theta = np.asarray(problem.initial_theta(streams.theta_init), dtype=float).copy()
    window_slots = min(config.window_size, steps_to_train) + 1
    state = OptimizerState(theta, np.zeros_like(theta), window_losses=np.empty(window_slots))
    train_stream = BatchStream(problem.train_batches, streams.train_order)
    sample_stream = (BatchStream(problem.validation_batches, streams.val_order)
                     if config.sample_from_validation else train_stream)

    if config.grid_search_probe_steps > 0:
        # A probe is cut to the run's budget, so a validated probe count
        # too large for memory still runs.
        probe = min(config.grid_search_probe_steps, steps_to_train)
        selected = initial_grid_search(
            problem, replace(config, grid_search_probe_steps=probe), train_stream, state)
        state.update_step = float(selected)
        config = replace(config, line_search=replace(
            config.line_search, initial_interval_width=float(selected)))
    if state.current_batch is None:
        _sgd_step(problem, state, train_stream)
    trigger_line_searches(
        state, config, problem, sample_stream,
        streams.line_search, streams.cv,
    )

    while state.t < steps_to_train:
        mean_window = state.window_mean()
        fires, on_boundary, real, expected = trigger_terms(
            state.t,
            state.t_of_last_update,
            config.window_size,
            config.loss_improvement_factor,
            state.last_mean_loss,
            mean_window,
            state.expected_per_step_improvement,
        )
        if fires:
            t_before = state.t
            trigger_line_searches(
                state, config, problem, sample_stream,
                streams.line_search, streams.cv,
            )
            if state.t > t_before:
                continue
            # unit_vector gave no search direction: no batch was loaded,
            # so take an SGD step to keep the run progressing.
        elif on_boundary:
            # Window boundary without a search: roll the reference level
            # so real_improvement keeps measuring progress over the most
            # recent step window (a plateau then reads as ~0).
            state.last_mean_loss = mean_window
            state.window_count = 0
        _sgd_step(problem, state, train_stream, expected, real)
    return state, state.log


def _sgd_step(problem, state, train_stream, expected=None, real=None):
    """One unit-gradient SGD step: the displacement norm equals update_step."""
    loss, state.theta = _unit_step(
        problem, train_stream, state.theta, state.update_step, state, "sgd", expected, real)
    state.window_losses[state.window_count] = loss
    state.window_count += 1


def _unit_step(problem, stream, theta, step, state, event, expected=None, real=None):
    """Load one batch into state.current_batch, record its loss at theta with
    step as the row's update_step, and return (loss, theta moved by step along
    the batch's normalized negative gradient, or theta itself when
    unit_vector gives none). The moved theta is theta - step * direction
    computed inside unit_vector's fresh result, so theta is left as it was
    and the step allocates no other parameter-sized array."""
    state.current_batch = stream.next_batch()
    loss, gradient = problem.batch_loss_and_gradient(theta, state.current_batch)
    state.log.record(event, [loss], step, expected, real)
    direction = unit_vector(gradient)
    if direction is None:
        return loss, theta
    direction *= step
    return loss, np.subtract(theta, direction, out=direction)
