"""Controller behavior: trigger predicate, decrease factor, search phases
with rigged oracles, grid search, step accounting, pinned run decisions and
config validation."""

import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import poly_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfopt import controller, linesearch, problems
from elfopt.baselines import AdamConfig, SgdConfig, StepDecaySchedule, run_baseline
from elfopt.controller import (
    DivergenceError,
    ElfConfig,
    LogRow,
    OptimizerState,
    TrainingLog,
    apply_decrease_factor,
    initial_grid_search,
    run,
    trigger_line_searches,
    trigger_terms,
    unit_vector,
)
from elfopt.linesearch import LineSearchConfig
from elfopt.poly import Polynomial, evaluate
from elfopt.regression import fit_polynomial
from elfopt.problems import (
    BatchStream,
    LogisticBlobs,
    MlpBlobs,
    NoisyQuadraticEnsemble,
    empirical_loss,
)
from elfopt.seeding import rng_streams


# ---------------------------------------------------------------------------
# trigger predicate
# ---------------------------------------------------------------------------

def _independent_predicate(t, t_last, ws, factor, last_mean, window_mean, per_step):
    """Deliberately separate re-statement of the trigger rule."""
    on_boundary = ((t - t_last + 1) % (ws + 1)) == 0
    real = last_mean - window_mean
    expected = last_mean - per_step * (t - t_last)
    return bool(on_boundary and real <= expected * factor)


def test_trigger_matches_independent_predicate_on_synthetic_scenarios():
    rng = np.random.default_rng(0)
    fired = 0
    for _ in range(1000):
        ws = int(rng.integers(1, 300))
        t_last = int(rng.integers(-1, 5000))
        t = t_last + int(rng.integers(0, 4 * ws + 3))
        factor = float(rng.choice([0.0, 0.01, 0.1, 1.0]))
        last_mean = float(rng.normal())
        window_mean = float(rng.normal())
        per_step = float(rng.choice([np.inf, abs(rng.normal()), 0.0]))
        ours = trigger_terms(t, t_last, ws, factor, last_mean, window_mean, per_step)[0]
        theirs = _independent_predicate(t, t_last, ws, factor, last_mean, window_mean, per_step)
        assert ours == theirs
        fired += ours
    assert fired > 0


def test_trigger_requires_window_boundary():
    assert not trigger_terms(10, 0, 150, 0.01, 1.0, 0.0, 0.001)[0]
    # boundary at t - t_last == window_size; improvement below 1% of the
    # expected level fires
    assert trigger_terms(150, 0, 150, 0.01, 1.0, 0.995, 1e-9)[0]
    assert not trigger_terms(150, 0, 150, 0.01, 1.0, 0.9, 1e-9)[0]


def test_factor_zero_fires_only_on_plateau():
    # finite expectation, zero factor: fires iff real improvement <= 0
    assert trigger_terms(150, 0, 150, 0.0, 1.0, 1.0, 1e-9)[0]       # real == 0
    assert trigger_terms(150, 0, 150, 0.0, 1.0, 1.2, 1e-9)[0]       # got worse
    assert not trigger_terms(150, 0, 150, 0.0, 1.0, 0.5, 1e-9)[0]   # improving


# ---------------------------------------------------------------------------
# decrease factor
# ---------------------------------------------------------------------------

def test_decrease_factor_on_parabola():
    fit = Polynomial([1.0, -2.0, 1.0])
    s = apply_decrease_factor(fit, 1.0, 0.2, 4.0)
    assert abs(s - (1.0 + np.sqrt(0.2))) < 1e-8
    assert abs(evaluate(fit, s) - 0.2) < 1e-8


def test_decrease_factor_zero_is_identity():
    fit = Polynomial([1.0, -2.0, 1.0])
    assert apply_decrease_factor(fit, 1.0, 0.0, 4.0) == 1.0


def test_decrease_factor_matches_dense_grid_oracle():
    rng = np.random.default_rng(2)
    coef = np.array([2.0, -3.0, 0.5, 0.4, 0.1]) + rng.normal(scale=0.05, size=5)
    fit = Polynomial(coef)
    from elfopt.poly import closest_minimum_to_zero

    s_min, f_min = closest_minimum_to_zero(fit, (0.0, 5.0))
    delta = 0.2
    target = f_min + delta * (evaluate(fit, 0.0) - f_min)
    s = apply_decrease_factor(fit, s_min, delta, 5.0)

    resolution = 1e-5
    grid = np.arange(s_min, 5.0, resolution)
    diff = evaluate(fit, grid) - target
    first = np.nonzero(diff[:-1] * diff[1:] <= 0.0)[0]
    assert first.size
    assert abs(s - grid[first[0]]) < 1e-4


def test_decrease_factor_monotone_in_delta():
    fit = Polynomial([2.0, -2.0, 1.0])  # convex, minimum at 1
    previous = 1.0
    for delta in (0.0, 0.1, 0.2, 0.4, 0.8):
        s = apply_decrease_factor(fit, 1.0, delta, 6.0)
        assert s >= previous - 1e-12
        previous = s


def test_decrease_factor_without_crossing_returns_minimum():
    fit = Polynomial([1.0, -2.0, 1.0])
    # bracket too short to reach the target value again
    assert apply_decrease_factor(fit, 1.0, 0.2, 1.1) == 1.0


# ---------------------------------------------------------------------------
# rigged line-search phases
# ---------------------------------------------------------------------------

class LoopOracles:
    """The round oracle as a batch_loss loop, and the fused oracle as
    batch_loss then batch_gradient: the references the problems' own
    oracles are checked against."""

    def batch_losses_along(self, theta0, direction, s, batches):
        return np.array([self.batch_loss(theta0 + step * direction, batch)
                         for step, batch in zip(s.tolist(), batches)], dtype=float)

    def batch_loss_and_gradient(self, theta, batch):
        return float(self.batch_loss(theta, batch)), self.batch_gradient(theta, batch)


class RiggedLineProblem(LoopOracles):
    """1-D landscape rewritten per line: the loss only depends on the
    distance walked from the point where the line's direction was taken.

    profiles[i](s) defines line i's loss at step size s. batch_gradient is
    called exactly once per line, which is what advances the line index.
    """

    def __init__(self, profiles):
        self.profiles = profiles
        self.dim = 1
        self.train_batches = [0]
        self.validation_batches = [0]
        self.line = -1
        self.anchor = None

    def initial_theta(self, rng):
        return np.zeros(1)

    def batch_gradient(self, theta, batch):
        self.line += 1
        self.anchor = theta.copy()
        return np.array([1.0])

    def batch_loss(self, theta, batch):
        s = float(np.linalg.norm(theta - self.anchor))
        return self.profiles[min(self.line, len(self.profiles) - 1)](s)


def _phase_state():
    return OptimizerState(theta=np.zeros(1), momentum_buffer=np.zeros(1),
                          current_batch=0)


def _run_phase(problem, config):
    state = _phase_state()
    streams = rng_streams(0)
    val = BatchStream(problem.validation_batches, streams.val_order)
    trigger_line_searches(state, config, problem, val, streams.line_search, streams.cv)
    return state, state.log


def test_single_line_noiseless_parabola_sets_update_step():
    problem = RiggedLineProblem([lambda s: (s - 1.0) ** 2])
    config = ElfConfig(lines_to_average=1, decrease_factor_delta=0.0, momentum_beta=0.0)
    state, log = _run_phase(problem, config)
    assert abs(state.update_step - 1.0) < 1e-3
    assert abs(abs(state.theta[0]) - state.update_step) < 1e-12
    assert state.t == 501
    assert state.t_of_last_update == state.t


def test_three_lines_average_their_step_sizes():
    problem = RiggedLineProblem([
        lambda s: (s - 0.9) ** 2,
        lambda s: (s - 1.0) ** 2,
        lambda s: (s - 1.1) ** 2,
    ])
    config = ElfConfig(lines_to_average=3, decrease_factor_delta=0.0, momentum_beta=0.0)
    state, log = _run_phase(problem, config)
    assert abs(state.update_step - 1.0) < 2e-3
    assert state.t == 3 * 501
    assert len(log.line_searches) == 3


def test_invalid_line_is_discarded_from_the_average():
    problem = RiggedLineProblem([
        lambda s: (s - 0.9) ** 2,
        lambda s: s + 1.0,          # monotone: no valid minimum
        lambda s: (s - 1.1) ** 2,
    ])
    config = ElfConfig(lines_to_average=3, decrease_factor_delta=0.0, momentum_beta=0.0)
    state, log = _run_phase(problem, config)
    assert abs(state.update_step - 1.0) < 2e-3
    assert len(log.line_searches) == 3
    assert log.line_searches[1].minimum_position is None


def test_all_lines_invalid_keeps_previous_update_step():
    problem = RiggedLineProblem([lambda s: s + 1.0] * 3)
    config = ElfConfig(lines_to_average=3, momentum_beta=0.0)
    state = _phase_state()
    state.update_step = 0.123
    streams = rng_streams(0)
    val = BatchStream(problem.validation_batches, streams.val_order)
    trigger_line_searches(state, config, problem, val, streams.line_search, streams.cv)
    assert state.update_step == 0.123
    assert (state.theta == 0.0).all()


def test_zero_momentum_direction_is_normalized_negative_gradient():
    captured = {}

    class Capture(RiggedLineProblem):
        def batch_gradient(self, theta, batch):
            out = super().batch_gradient(theta, batch)
            captured.setdefault("gradient", np.array([3.0]))
            return np.array([3.0])

        def batch_loss(self, theta, batch):
            captured.setdefault("first_positive_theta", None)
            if captured["first_positive_theta"] is None and not np.allclose(theta, 0.0):
                captured["first_positive_theta"] = theta.copy()
            s = float(np.linalg.norm(theta - self.anchor))
            return (s - 1.0) ** 2

    problem = Capture([None])
    config = ElfConfig(lines_to_average=1, decrease_factor_delta=0.0, momentum_beta=0.0)
    state, _ = _run_phase(problem, config)
    # direction must be -g/|g| = [-1]; samples step along it
    assert captured["first_positive_theta"][0] < 0.0
    assert state.theta[0] < 0.0


def test_a_search_phase_holds_a_direction_and_a_buffer_per_round_worker():
    """One trigger_line_searches call on a wide MLP allocates, past its
    start, the phase's new theta, one search direction and one parameter
    buffer per round worker, plus batch-sized activations: at most
    4 + 1.5 * (workers - 1) parameter vectors at its peak. The momentum
    buffer is updated in place, and theta0 is never copied."""
    streams = rng_streams(0)
    problem = MlpBlobs(n_train=1000, n_val=500, hidden1=256, hidden2=256, rng=streams.data)
    config = ElfConfig(line_search=LineSearchConfig(k=2, n=20))
    theta = problem.initial_theta(streams.theta_init)
    train = BatchStream(problem.train_batches, streams.train_order)
    state = OptimizerState(theta, np.zeros_like(theta), update_step=0.1,
                           current_batch=train.next_batch())
    val = BatchStream(problem.validation_batches, streams.val_order)
    momentum = state.momentum_buffer
    del theta
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trigger_line_searches(state, config, problem, val, streams.line_search, streams.cv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(state.log.line_searches) == config.lines_to_average
    assert state.momentum_buffer is momentum and momentum.any()
    workers = problems._round_workers(256 * 256)
    assert (peak - start) / (problem.dim * 8) <= 4.0 + 1.5 * (workers - 1)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

class OneDQuadratic(LoopOracles):
    def __init__(self, center=3.0, curvature=1.0):
        self.center = center
        self.curvature = curvature
        self.dim = 1
        self.train_batches = [0]
        self.validation_batches = [0]

    def initial_theta(self, rng):
        return np.zeros(1)

    def batch_loss(self, theta, batch):
        return float(0.5 * self.curvature * (theta[0] - self.center) ** 2)

    def batch_gradient(self, theta, batch):
        return np.array([self.curvature * (theta[0] - self.center)])


def _grid_select(problem, candidates, probe_steps=20, theta0=None):
    config = ElfConfig(grid_search_candidates=candidates,
                       grid_search_probe_steps=probe_steps)
    state = OptimizerState(
        theta=theta0 if theta0 is not None else np.zeros(1),
        momentum_buffer=np.zeros(1),
    )
    stream = BatchStream(problem.train_batches, rng_streams(0).train_order)
    return initial_grid_search(problem, config, stream, state), state, state.log


def _simulate_probe(problem, theta0, step, probe_steps):
    """Closed-form oracle of one probe: unit-gradient steps from theta0."""
    theta = theta0.copy()
    losses = []
    for _ in range(probe_steps):
        losses.append(problem.batch_loss(theta, 0))
        g = problem.batch_gradient(theta, 0)
        n = np.linalg.norm(g)
        if n > 0:
            theta = theta - step * g / n
    return float(np.mean(losses))


def test_grid_search_rejects_diverging_step():
    problem = OneDQuadratic(center=3.0)
    selected, state, log = _grid_select(problem, (10.0, 1.0))
    baseline = problem.batch_loss(np.zeros(1), 0)
    assert _simulate_probe(problem, np.zeros(1), 10.0, 20) >= baseline
    assert _simulate_probe(problem, np.zeros(1), 1.0, 20) < baseline
    assert selected == 1.0
    # baseline probe + two candidate probes, all logged
    assert state.t == len(log.rows) == 3 * 20


def test_grid_search_takes_largest_improving_candidate():
    problem = OneDQuadratic(center=30.0)
    selected, state, log = _grid_select(problem, (0.1, 0.01))
    assert selected == 0.1
    assert state.t == 2 * 20  # baseline + first candidate only


def test_grid_search_falls_back_to_smallest_candidate():
    problem = OneDQuadratic(center=0.0)  # already optimal; nothing improves
    selected, _, _ = _grid_select(problem, (1.0, 0.1, 0.01))
    assert selected == 0.01


# ---------------------------------------------------------------------------
# oracle calls per load
# ---------------------------------------------------------------------------

class CountingLogistic(LogisticBlobs):
    """LogisticBlobs counting each oracle call made from outside the class;
    batch_gradient's own fused call is not counted."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = Counter()

    def batch_loss(self, theta, batch):
        self.calls["batch_loss"] += 1
        return super().batch_loss_and_gradient(theta, batch)[0]

    def batch_gradient(self, theta, batch):
        self.calls["batch_gradient"] += 1
        return super().batch_loss_and_gradient(theta, batch)[1]

    def batch_loss_and_gradient(self, theta, batch):
        self.calls["batch_loss_and_gradient"] += 1
        return super().batch_loss_and_gradient(theta, batch)


def _counting_logistic(streams):
    return CountingLogistic(separation=1.0, cluster_std=1.0, rng=streams.data)


def test_each_sgd_step_and_grid_probe_makes_one_fused_oracle_call():
    streams = rng_streams(0)
    problem = _counting_logistic(streams)
    config = ElfConfig()
    state, log = run(problem, config, 2000, streams)
    baseline = config.grid_search_probe_steps
    probes = log.count("grid_search") - baseline
    assert probes > 0 and log.count("sgd") > 0
    # batch_loss measures only the grid search's baseline loads, and
    # batch_gradient only each search's direction.
    assert problem.calls == Counter(batch_loss=baseline,
                                    batch_gradient=len(log.line_searches),
                                    batch_loss_and_gradient=log.count("sgd") + probes)


@pytest.mark.parametrize("config", [SgdConfig(), AdamConfig()], ids=["sgd", "adam"])
def test_each_baseline_step_makes_one_fused_oracle_call(config):
    streams = rng_streams(0)
    problem = _counting_logistic(streams)
    _, log = run_baseline(problem, config, 300, streams)
    assert len(log.rows) == 300
    assert problem.calls == Counter(batch_loss_and_gradient=300)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_reduces_to_fixed_step_sgd_between_searches():
    streams = rng_streams(1)
    problem = NoisyQuadraticEnsemble(n_batches=20, dim=6, rng=streams.data)
    config = ElfConfig(window_size=500)  # too wide for further triggers
    state, log = run(problem, config, steps_to_train=1700, streams=streams)
    sgd_rows = [row for row in log.rows if row.event == "sgd"]
    assert len(log.line_searches) == 3
    steps_used = {row.update_step for row in sgd_rows}
    assert len(steps_used) == 1
    assert steps_used == {state.update_step}


def test_run_displacement_norm_equals_update_step():
    class Recording(NoisyQuadraticEnsemble):
        def __init__(self, **kw):
            super().__init__(**kw)
            self.gradient_thetas = []

        def batch_gradient(self, theta, batch):
            # the parent's batch_gradient calls the fused oracle, which
            # would record theta a second time
            self.gradient_thetas.append(np.asarray(theta, dtype=float).copy())
            return super().batch_loss_and_gradient(theta, batch)[1]

        def batch_loss_and_gradient(self, theta, batch):
            self.gradient_thetas.append(np.asarray(theta, dtype=float).copy())
            return super().batch_loss_and_gradient(theta, batch)

    streams = rng_streams(4)
    problem = Recording(n_batches=10, dim=5, rng=streams.data)
    # no grid search and a window too wide to retrigger: after one leading
    # SGD step and three search-direction gradients, every remaining gradient
    # call belongs to an SGD step
    config = ElfConfig(window_size=1000, grid_search_probe_steps=0)
    state, log = run(problem, config, steps_to_train=1800, streams=streams)
    assert len(log.line_searches) == 3
    assert state.update_step > 0

    sgd_thetas = problem.gradient_thetas[4:]
    assert len(sgd_thetas) > 100
    for before, after in zip(sgd_thetas[:-1], sgd_thetas[1:]):
        displacement = np.linalg.norm(after - before)
        assert abs(displacement - state.update_step) <= 1e-9 * state.update_step


def test_run_retriggers_on_plateau_with_factor_zero():
    streams = rng_streams(0)
    problem = NoisyQuadraticEnsemble(n_batches=16, dim=5, rng=streams.data)
    line = LineSearchConfig(k=3, n=40, min_window_size=20)
    config = ElfConfig(window_size=40, loss_improvement_factor=0.0, line_search=line,
                       lines_to_average=2, grid_search_probe_steps=10,
                       grid_search_candidates=(1.0, 0.1))
    state, log = run(problem, config, steps_to_train=6000, streams=streams)
    assert len(log.line_searches) > config.lines_to_average


def test_run_approaches_ensemble_optimum():
    # closed-form oracle: the averaged batch quadratic and its exact minimum
    streams = rng_streams(0)
    problem = NoisyQuadraticEnsemble(rng=streams.data)
    state, log = run(problem, ElfConfig(), steps_to_train=12_000, streams=streams)
    optimal = problem.closed_form_empirical(problem.closed_form_minimizer())
    final = empirical_loss(problem, state.theta)
    assert final <= 1.1 * optimal
    assert len(log.line_searches) > 3  # plateau re-triggers happened


def test_run_budget_accounting_is_exact():
    streams = rng_streams(2)
    problem = NoisyQuadraticEnsemble(n_batches=20, dim=6, rng=streams.data)
    line = LineSearchConfig(k=3, n=40, min_window_size=20)
    config = ElfConfig(window_size=60, line_search=line, lines_to_average=2,
                       grid_search_probe_steps=15)
    state, log = run(problem, config, steps_to_train=2000, streams=streams)

    assert state.t == len(log.rows)
    assert log.count("sgd") + log.count("line_search") + log.count("grid_search") == state.t
    per_search = 3 * 40 + 1
    assert log.count("line_search") == per_search * len(log.line_searches)
    assert [row.step for row in log.rows] == list(range(1, state.t + 1))


class CountingStream(BatchStream):
    """A BatchStream that counts the batches drawn from it."""

    made: list = []

    def __init__(self, batches, rng):
        super().__init__(batches, rng)
        self.drawn = 0
        CountingStream.made.append(self)

    def next_batches(self, count):
        self.drawn += count
        return super().next_batches(count)


@pytest.mark.parametrize("from_validation", [True, False])
@pytest.mark.parametrize("name", ["quadratic", "logistic-hard"])
def test_every_drawn_batch_is_recorded_exactly_once(monkeypatch, name, from_validation):
    monkeypatch.setattr(controller, "BatchStream", CountingStream)
    monkeypatch.setattr(CountingStream, "made", [])
    make_problem, _ = PINNED_DECISIONS[name]
    streams = rng_streams(0)
    state, log = run(make_problem(streams.data),
                     ElfConfig(sample_from_validation=from_validation), 2000, streams)
    train_rows = log.count("sgd") + log.count("grid_search")
    if from_validation:
        train, validation = CountingStream.made
        assert (train.drawn, validation.drawn) == (train_rows, log.count("line_search"))
        assert (train_rows, log.count("line_search")) == (210, 3006)
    else:
        (train,) = CountingStream.made
        assert train.drawn == train_rows + log.count("line_search") == state.t
        assert state.t == {"quadratic": 3216, "logistic-hard": 3367}[name]


class RowPerLoadLog:
    """The training log as one LogRow per load: the reference for
    TrainingLog's segments."""

    def __init__(self):
        self.rows = []

    def record(self, event, losses, update_step=None, expected=None, real=None):
        names = {"sgd": "training", "line_search": "line-search"}
        for step, loss in enumerate(losses, start=len(self.rows) + 1):
            self.rows.append(LogRow(step, event, loss, update_step, expected, real))
            if event in names and not math.isfinite(loss):
                raise DivergenceError(f"non-finite {names[event]} loss at step {step}", self)


_LOSS = st.floats(-1e3, 1e3) | st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e308])
_FIELD = st.none() | st.floats(allow_nan=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(calls=st.lists(st.tuples(st.sampled_from(["sgd", "line_search", "grid_search"]),
                                st.lists(_LOSS, max_size=12), _FIELD, _FIELD, _FIELD),
                      max_size=12))
def test_segment_log_equals_a_row_per_load_log(calls):
    log, ref = TrainingLog(), RowPerLoadLog()
    for event, losses, *fields in calls:
        outcomes = []
        for target in (log, ref):
            try:
                target.record(event, list(losses), *fields)
                outcomes.append(None)
            except DivergenceError as error:
                assert error.log is target
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
        assert repr(log.rows) == repr(ref.rows)
        assert len(log) == len(ref.rows)
        assert [row.step for row in log.rows] == list(range(1, len(log) + 1))
        for name in ("sgd", "line_search", "grid_search"):
            assert log.count(name) == sum(row.event == name for row in ref.rows)
        if outcomes[0] is not None:
            assert not math.isfinite(log.rows[-1].train_loss)
            break


# Shared-cell objects a run of record calls may pass: equal but distinct
# floats, both zeros and two nans, each made at run time so no two are one
# constant.
_CELL_POOL = [None, float("0.1"), float("0.1"), float("0.0"), float("-0.0"),
              float("nan"), float("nan"), float("1e308")]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(calls=st.lists(st.tuples(st.sampled_from(["sgd", "line_search", "grid_search"]),
                                st.lists(_LOSS, max_size=4),
                                st.tuples(*[st.integers(0, len(_CELL_POOL) - 1)] * 3)),
                      max_size=20))
def test_record_extends_a_segment_only_for_its_event_and_cell_objects(calls):
    log, ref = TrainingLog(), RowPerLoadLog()
    keys, given_lists = [], []
    for event, losses, picks in calls:
        cells = [_CELL_POOL[i] for i in picks]
        given_lists.append((list(losses), losses))
        try:
            log.record(event, losses, *cells)
        except DivergenceError:
            with pytest.raises(DivergenceError):
                ref.record(event, list(losses), *cells)
            keys.append((event, *map(id, cells)))
            break
        ref.record(event, list(losses), *cells)
        keys.append((event, *map(id, cells)))
    assert repr(log.rows) == repr(ref.rows)
    # A segment starts wherever the event or any cell's identity changes.
    assert len(log.segments) == sum(key != before for key, before in zip(keys, [None, *keys]))
    # No caller's list is a segment's, so extending a segment changes none.
    for copy, original in given_lists:
        assert repr(original) == repr(copy)
        assert all(original is not segment.losses for segment in log.segments)


def test_record_keeps_equal_but_distinct_cells_apart():
    log = TrainingLog()
    rate, same_value = float("0.1"), float("0.1")
    zero, negative_zero = float("0.0"), float("-0.0")
    first = [1.0]
    log.record("sgd", first, rate)
    for losses, cell in (([2.0, 3.0], rate), ([4.0], same_value), ([5.0], zero),
                         ([6.0], negative_zero), ([7.0], negative_zero)):
        log.record("sgd", losses, cell)
    log.record("line_search", [8.0], negative_zero)
    assert [(s.first, s.losses, s.update_step) for s in log.segments] == [
        (1, [1.0, 2.0, 3.0], rate), (4, [4.0], same_value), (5, [5.0], zero),
        (6, [6.0, 7.0], negative_zero), (8, [8.0], negative_zero)]
    assert [s.update_step for s in log.segments[1:4]] == [rate, 0.0, 0.0]
    assert math.copysign(1.0, log.rows[5].update_step) == -1.0
    assert first == [1.0] and len(log) == 8 and log.count("sgd") == 7


def test_unit_vector_is_the_numpy_quotient_on_ordinary_vectors():
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=size) * 10.0**exponent
               for size in (1, 2, 20, 451) for exponent in (-300, -150, -3, 0, 3, 150)]
    for vector in vectors:
        norm = np.linalg.norm(vector)
        if norm > 0.0:
            assert unit_vector(vector).tobytes() == (vector / norm).tobytes()
        else:   # the sum of squares underflows at 1e-300
            assert unit_vector(vector) is None
    # No direction where the norm is not positive, nor for its negation.
    for vector in (np.zeros(3), np.array([np.nan, 1.0])):
        assert unit_vector(vector) is None and unit_vector(-vector) is None


@pytest.mark.parametrize("vector", [
    np.random.default_rng(2).normal(size=451),
    np.random.default_rng(3).normal(size=50) * 1e250,      # entries past 1e154
    np.array([1.7e308, -1.7e308, 1e300]),                  # a norm past the float range
])
def test_unit_vector_of_a_negated_vector_is_the_negated_unit_vector(vector):
    # What trigger_line_searches rests on when it negates unit_vector's
    # result in place instead of normalizing a negated copy.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert unit_vector(-vector).tobytes() == (-unit_vector(vector)).tobytes()


def test_unit_vector_of_entries_past_1e154_warns_of_nothing():
    vector = np.full(20, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert unit_vector(vector).tobytes() == (
            vector / (1e200 * np.linalg.norm(vector / 1e200))).tobytes()
        mixed = np.random.default_rng(1).normal(size=50) * 1e250
        expected = mixed / (1e250 * np.linalg.norm(mixed / 1e250))
        np.testing.assert_allclose(unit_vector(mixed), expected, rtol=1e-15)


def test_unit_step_moves_its_step_along_a_gradient_past_1e154():
    class Steep:
        def batch_loss_and_gradient(self, theta, batch):
            return 1.0, np.array([3e200, -4e200])

    state = OptimizerState(theta=np.zeros(2), momentum_buffer=np.zeros(2))
    stream = BatchStream([0], np.random.default_rng(0))
    _, theta = controller._unit_step(Steep(), stream, state.theta, 0.5, state, "grid_search")
    np.testing.assert_allclose(theta, [-0.3, 0.4], rtol=1e-15)


@pytest.mark.parametrize("gradient", [np.full(20, 1e308), np.array([1.7e308, -1.7e308, 1e300])])
def test_unit_step_moves_its_step_along_a_gradient_whose_norm_passes_the_float_range(gradient):
    # The norm is inf though every entry is finite; the parent divided by it
    # and stood still.
    class Steepest:
        def batch_loss_and_gradient(self, theta, batch):
            return 1.0, gradient.copy()

    with np.errstate(over="ignore"):
        assert np.linalg.norm(gradient) == math.inf
    state = OptimizerState(theta=np.zeros(gradient.size), momentum_buffer=np.zeros(gradient.size))
    stream = BatchStream([0], np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, theta = controller._unit_step(Steepest(), stream, state.theta, 0.5, state, "sgd")
    scaled = gradient / np.max(np.abs(gradient))
    assert theta.tobytes() == (-0.5 * (scaled / np.linalg.norm(scaled))).tobytes()
    assert np.linalg.norm(theta) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("name", ["quadratic", "logistic-hard"])
def test_unit_step_leaves_its_theta_and_moves_by_step_times_unit_vector(monkeypatch, name):
    """Every grid probe and SGD step of a run leaves the theta it was given
    (the grid search's theta0 for each candidate's first probe) as it was, and
    returns a new array equal to theta - step * unit_vector(gradient)."""
    unit_step = controller._unit_step
    calls = []

    def checked(problem, stream, theta, step, state, event, *rest):
        before = theta.copy()
        loss, moved = unit_step(problem, stream, theta, step, state, event, *rest)
        assert theta.tobytes() == before.tobytes()
        _, gradient = problem.batch_loss_and_gradient(before, state.current_batch)
        assert moved.tobytes() == (before - step * unit_vector(gradient)).tobytes()
        assert not np.shares_memory(moved, theta)
        calls.append(event)
        return loss, moved

    monkeypatch.setattr(controller, "_unit_step", checked)
    make_problem, _ = PINNED_DECISIONS[name]
    streams = rng_streams(0)
    state, log = run(make_problem(streams.data), ElfConfig(), 2000, streams)
    # Every grid row but the baseline's is a probe step.
    probe = ElfConfig().grid_search_probe_steps
    assert Counter(calls) == {"grid_search": log.count("grid_search") - probe,
                              "sgd": log.count("sgd")}


@pytest.mark.parametrize("probe", [51, 10**12])
def test_a_probe_count_past_the_budget_runs_as_the_budget(probe):
    """The grid search probes at most steps_to_train steps per candidate: a
    count past the budget runs the budget's own probe count, bit for bit."""
    def one_run(probe_steps):
        streams = rng_streams(0)
        problem = NoisyQuadraticEnsemble(n_batches=8, dim=3, rng=streams.data)
        return run(problem, ElfConfig(grid_search_probe_steps=probe_steps), 50, streams)

    state, log = one_run(probe)
    ref_state, ref_log = one_run(50)
    # The baseline and each candidate probed take 50 loads each.
    assert log.count("grid_search") % 50 == 0 and log.count("grid_search") > 50
    assert [repr(row) for row in log.rows] == [repr(row) for row in ref_log.rows]
    assert state.theta.tobytes() == ref_state.theta.tobytes()


def test_unit_vector_is_the_plain_quotient_below_the_float_range():
    rng = np.random.default_rng(5)
    for exponent in (-150, -3, 0, 150, 300):
        vector = rng.normal(size=20) * 10.0**exponent
        scale = np.max(np.abs(vector)) if exponent == 300 else 1.0
        # Past 1e154 the norm is scale times the scaled vector's.
        norm = scale * np.linalg.norm(vector / scale)
        assert unit_vector(vector).tobytes() == (vector / norm).tobytes()
    # An infinite entry keeps the plain quotient, nan where inf / inf.
    vector = np.array([np.inf, 1.0])
    with np.errstate(invalid="ignore"):
        assert unit_vector(vector).tobytes() == (vector / np.inf).tobytes()


def test_run_aborts_on_divergence():
    class Exploding(OneDQuadratic):
        def batch_loss(self, theta, batch):
            if abs(theta[0]) > 1e3:
                return float("inf")
            return super().batch_loss(theta, batch)

        def batch_gradient(self, theta, batch):
            # force enormous unit steps by reporting a constant direction
            return np.array([-1.0])

    streams = rng_streams(0)
    problem = Exploding(center=1e9)
    config = ElfConfig(grid_search_candidates=(1e4,), grid_search_probe_steps=2,
                       line_search=LineSearchConfig(k=1, n=10, min_window_size=5),
                       lines_to_average=1, window_size=10)
    with pytest.raises(DivergenceError) as raised:
        run(problem, config, steps_to_train=2000, streams=streams)
    # The error carries every load up to and including the non-finite one.
    rows = raised.value.log.rows
    assert [row.step for row in rows] == list(range(1, len(rows) + 1))
    assert not np.isfinite(rows[-1].train_loss)
    assert str(raised.value).endswith(f"at step {len(rows)}")


class InfiniteBeyond(RiggedLineProblem):
    """A line whose loss is (s - 1)^2 up to s = 0.5 and infinite past it."""

    def __init__(self):
        super().__init__([lambda s: (s - 1.0) ** 2 if s <= 0.5 else float("inf")])


class StackedInfiniteBeyond(InfiniteBeyond):
    """The same line, measured a round at a time."""

    def batch_losses_along(self, theta0, direction, s, batches):
        return np.array([self.profiles[0](abs(step)) for step in s])


@pytest.mark.parametrize("make_problem", [InfiniteBeyond, StackedInfiniteBeyond])
def test_divergence_inside_a_round_keeps_the_log_up_to_the_first_non_finite_load(make_problem):
    problem = make_problem()
    config = ElfConfig(lines_to_average=1, momentum_beta=0.0,
                       line_search=LineSearchConfig(k=1, n=40, min_window_size=5))
    state = _phase_state()
    streams = rng_streams(0)
    stream = BatchStream(problem.train_batches, streams.val_order)
    with pytest.raises(DivergenceError) as raised:
        trigger_line_searches(state, config, problem, stream, streams.line_search, streams.cv)
    rows = raised.value.log.rows
    # The anchor and the round's first steps (up to 0.5) load; the round
    # stops at its first step past 0.5, partway through its 40 loads.
    assert 2 < len(rows) < 1 + 40
    assert [row.step for row in rows] == list(range(1, state.t + 1))
    assert all(np.isfinite(row.train_loss) for row in rows[:-1])
    assert not np.isfinite(rows[-1].train_loss)
    assert str(raised.value).endswith(f"at step {state.t}")


class Delegating:
    """Delegates every name to a problem."""

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        return getattr(self._problem, name)


class WithoutRoundOracle(Delegating):
    """Measures every line-search round with the batch_loss loop."""

    batch_losses_along = LoopOracles.batch_losses_along


class WithoutFusedOracle(Delegating):
    """Measures every SGD step and grid probe with batch_loss, then
    batch_gradient."""

    batch_loss_and_gradient = LoopOracles.batch_loss_and_gradient


@pytest.mark.parametrize("name", ["quadratic", "logistic-hard", "mlp"])
def test_round_oracle_and_batch_loss_loop_make_the_same_run(name):
    make_problem, _ = PINNED_DECISIONS[name]
    outcomes = []
    for wrap in (lambda problem: problem, WithoutRoundOracle):
        streams = rng_streams(0)
        problem = wrap(make_problem(streams.data))
        state, log = run(problem, ElfConfig(), 2000, streams)
        outcomes.append((state.t, [(s.fit.chosen_degree, s.valid) for s in log.line_searches],
                         np.array([row.train_loss for row in log.rows])))
    (t_stacked, stacked, losses_stacked), (t_loop, loop, losses_loop) = outcomes
    assert t_stacked == t_loop
    assert stacked == loop
    np.testing.assert_allclose(losses_stacked, losses_loop, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["quadratic", "logistic-hard", "mlp"])
def test_run_is_bit_identical_with_numpy_polynomial_root_finding(monkeypatch, name):
    # Both runs on this machine, so the comparison holds whatever rounding
    # its eigenvalue and BLAS routines do.
    make_problem, _ = PINNED_DECISIONS[name]

    def one_run():
        streams = rng_streams(0)
        return run(make_problem(streams.data), ElfConfig(), 2000, streams)

    state, log = one_run()
    for module in (linesearch, controller):
        for attr in ("evaluate", "derivative", "real_roots_in",
                     "closest_minimum_to_zero", "solve_for_value_nearest"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, getattr(poly_reference, attr))
    ref_state, ref_log = one_run()
    _assert_bit_identical_runs(state, log, ref_state, ref_log)


def _assert_bit_identical_runs(state, log, ref_state, ref_log):
    assert any(search.valid for search in log.line_searches)
    # Row reprs and integer views compare every bit and keep a failure's
    # report short: the first differing row, the differing entries.
    assert len(log.rows) == len(ref_log.rows)
    assert next((i for i, (row, ref) in enumerate(zip(log.rows, ref_log.rows))
                 if repr(row) != repr(ref)), None) is None
    assert np.flatnonzero(state.theta.view(np.int64) != ref_state.theta.view(np.int64)).size == 0
    assert len(log.line_searches) == len(ref_log.line_searches)
    for search, ref in zip(log.line_searches, ref_log.line_searches):
        coefficients = search.fit.polynomial.coefficients
        assert coefficients.tobytes() == ref.fit.polynomial.coefficients.tobytes()


@pytest.mark.parametrize("name", ["quadratic", "logistic-hard", "mlp"])
def test_run_is_bit_identical_with_the_per_call_paths(monkeypatch, name):
    """np.quantile for the window's third quartile, a refit on a design of
    its own, batch_loss then batch_gradient for each SGD load and
    np.linalg.norm for each direction make the same run, bit for bit."""
    make_problem, _ = PINNED_DECISIONS[name]

    def one_run(wrap):
        streams = rng_streams(0)
        return run(wrap(make_problem(streams.data)), ElfConfig(), 2000, streams)

    state, log = one_run(lambda problem: problem)
    select = linesearch.select_degree_and_fit

    def numpy_unit_vector(vector):
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0.0 else None

    def select_then_refit(samples, *args):
        report = select(samples, *args)
        return replace(report, polynomial=fit_polynomial(report.chosen_degree, samples))

    monkeypatch.setattr(linesearch, "select_degree_and_fit", select_then_refit)
    monkeypatch.setattr(linesearch, "third_quartile",
                        lambda values: float(np.quantile(np.asarray(values, dtype=float), 0.75)))
    monkeypatch.setattr(controller, "unit_vector", numpy_unit_vector)
    ref_state, ref_log = one_run(WithoutFusedOracle)
    _assert_bit_identical_runs(state, log, ref_state, ref_log)


def test_window_mean_is_np_mean_over_the_windows_losses(monkeypatch):
    """Replays the trigger's bookkeeping from the log: each sgd row's
    real_improvement is the reference level minus np.mean of the SGD losses
    since the last reset, and a search phase leaves the window's np.mean less
    the fitted improvements its steps applied. A window of 600 fills all 601
    slots of its buffer."""
    phases = {}
    trigger = controller.trigger_line_searches

    def spy(state, config, *args):
        rows, searches = state.t, len(state.log.line_searches)
        trigger(state, config, *args)
        phases[rows] = (state.t, state.log.line_searches[searches:], state.last_mean_loss)

    monkeypatch.setattr(controller, "trigger_line_searches", spy)
    config = ElfConfig(window_size=600)
    streams = rng_streams(0)
    problem = NoisyQuadraticEnsemble(n_batches=100, dim=20, rng=streams.data)
    state, log = run(problem, config, 7000, streams)
    rows = log.rows

    def same(a, b):
        return a == b or (np.isnan(a) and np.isnan(b))

    probe = config.grid_search_probe_steps
    level = float(np.mean([row.train_loss for row in rows[:probe]]))
    window, t_last, longest, rolls, i = [], None, 0, 0, 0
    while i < len(rows):
        if i in phases:
            end, searches, after = phases[i]
            assert end > i
            pre = float(np.mean(window)) if window else level
            applied = []
            for search in searches:
                if search.valid:
                    fit = search.fit.polynomial
                    s_target = apply_decrease_factor(
                        fit, search.minimum_position, config.decrease_factor_delta,
                        float(search.samples.positions.max()))
                    applied.append(evaluate(fit, 0.0) - evaluate(fit, s_target))
            assert same(after, pre - float(np.sum(applied)))
            level, window, t_last, i = after, [], end, end
            continue
        row = rows[i]
        if row.event == "sgd":
            assert t_last is not None
            assert same(row.real_improvement, level - (np.mean(window) if window else np.nan))
            if (i - t_last + 1) % (config.window_size + 1) == 0 and window:
                level, window, rolls = float(np.mean(window)), [], rolls + 1
            window.append(row.train_loss)
            longest = max(longest, len(window))
        i += 1
    assert longest == state.window_losses.size == config.window_size + 1
    assert rolls > 0 and len(phases) > 2


@pytest.mark.parametrize("grid_search", [True, False], ids=["grid", "no-grid"])
@pytest.mark.parametrize("window_size", [1, 2, 7, 150, 600])
@pytest.mark.parametrize("name", ["quadratic", "logistic-hard", "mlp"])
def test_a_run_keeps_its_window_in_one_buffer_of_window_size_plus_one(
        monkeypatch, name, window_size, grid_search):
    """Every SGD step leaves at most window_size + 1 losses in the window,
    in the buffer run started with, and every boundary finds the window
    non-empty, so its mean is never the empty window's nan."""
    seen = {"boundaries": 0}
    sgd_step, terms = controller._sgd_step, controller.trigger_terms

    def spy_step(problem, state, *args):
        buffer = seen.setdefault("buffer", state.window_losses)
        sgd_step(problem, state, *args)
        assert state.window_losses is buffer
        assert 1 <= state.window_count <= window_size + 1
        seen["state"] = state

    def spy_terms(*args):
        fires, on_boundary, real, expected = terms(*args)
        if on_boundary:
            seen["boundaries"] += 1
            assert seen["state"].window_count > 0
        return fires, on_boundary, real, expected

    monkeypatch.setattr(controller, "_sgd_step", spy_step)
    monkeypatch.setattr(controller, "trigger_terms", spy_terms)
    make_problem, _ = PINNED_DECISIONS[name]
    config = ElfConfig(window_size=window_size)
    if not grid_search:
        config = replace(config, grid_search_probe_steps=0)
    streams = rng_streams(0)
    state, _ = run(make_problem(streams.data), config, 6000, streams)
    assert state.window_losses is seen["buffer"]
    assert state.window_losses.size == window_size + 1
    assert seen["boundaries"] > 0


# ---------------------------------------------------------------------------
# pinned decisions
# ---------------------------------------------------------------------------

# Decisions of one default run per problem at seed 0 and 2000 loads, captured
# before the controller's four load paths were merged into one. A change that
# claims to keep behaviour must reproduce them exactly.
PINNED_DECISIONS = {
    "quadratic": (lambda rng: NoisyQuadraticEnsemble(rng=rng), [(2, True)] * 6),
    "logistic-hard": (
        lambda rng: LogisticBlobs(separation=1.0, cluster_std=1.0, rng=rng),
        [(3, True), (1, False), (2, True), (1, False), (2, False), (2, False)],
    ),
    "mlp": (
        lambda rng: MlpBlobs(rng=rng),
        [(6, True), (3, True), (1, False), (2, True), (1, False), (2, True)],
    ),
}


@pytest.mark.parametrize("name", PINNED_DECISIONS)
def test_default_run_decisions_are_pinned(name):
    make_problem, decisions = PINNED_DECISIONS[name]
    streams = rng_streams(0)
    state, log = run(make_problem(streams.data), ElfConfig(), 2000, streams)
    assert state.t == 3216
    assert [log.count(event) for event in ("sgd", "line_search", "grid_search")] == [150, 3006, 60]
    assert [(search.fit.chosen_degree, search.valid) for search in log.line_searches] == decisions


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    # 10**20 is a window no run's buffer could hold whole.
    window_size=st.integers(1, 40) | st.just(10**20),
    loss_improvement_factor=st.floats(0.0, 1.0),
    momentum_beta=st.floats(0.0, 0.99),
    decrease_factor_delta=st.floats(0.0, 0.99),
    lines_to_average=st.integers(1, 3),
    candidates=st.lists(st.floats(-1.0, 10.0) | st.sampled_from([np.nan, np.inf]),
                        max_size=3).map(tuple),
    # 10**12 probe steps per candidate is a draw no memory could hold.
    probe_steps=st.integers(-2, 6) | st.just(10**12),
    sample_from_validation=st.booleans(),
    k=st.integers(1, 3),
    n=st.integers(1, 30),
    width=st.floats(-1.0, 10.0) | st.sampled_from([np.nan, np.inf]),
    min_window_size=st.integers(1, 20),
    folds=st.integers(2, 6),
    max_degree=st.integers(0, 8),
)
def test_config_that_validates_never_crashes(
    window_size, loss_improvement_factor, momentum_beta, decrease_factor_delta,
    lines_to_average, candidates, probe_steps, sample_from_validation,
    k, n, width, min_window_size, folds, max_degree,
):
    try:
        config = ElfConfig(
            window_size=window_size,
            loss_improvement_factor=loss_improvement_factor,
            momentum_beta=momentum_beta,
            decrease_factor_delta=decrease_factor_delta,
            lines_to_average=lines_to_average,
            line_search=LineSearchConfig(k=k, n=n, initial_interval_width=width,
                                         min_window_size=min_window_size, folds=folds,
                                         max_degree=max_degree),
            grid_search_candidates=candidates,
            grid_search_probe_steps=probe_steps,
            sample_from_validation=sample_from_validation,
        )
    except ValueError:
        return
    streams = rng_streams(0)
    problem = NoisyQuadraticEnsemble(n_batches=8, dim=3, rng=streams.data)
    try:
        state, log = run(problem, config, steps_to_train=200, streams=streams)
    except DivergenceError:
        return
    assert len(log.rows) == state.t
    assert [row.step for row in log.rows] == list(range(1, state.t + 1))


# Small instances of the three problems, for the tests below that run many
# configurations on each.
SMALL_PROBLEMS = {
    "quadratic": lambda rng: NoisyQuadraticEnsemble(n_batches=8, dim=3, rng=rng),
    "logistic": lambda rng: LogisticBlobs(n_train=200, n_val=100, batch_size=20, rng=rng),
    "mlp": lambda rng: MlpBlobs(n_train=200, n_val=100, hidden1=4, hidden2=4, batch_size=20,
                                rng=rng),
}


def _log_scale(lo, hi):
    """Positive floats whose decimal exponents are uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


# Widths and step sizes up to 1e300: a fit over such steps has raw
# coefficients that span more than the float range.
_WIDTH = st.floats(-1.0, 10.0) | _log_scale(-20.0, 300.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    elf=st.fixed_dictionaries(dict(
        window_size=st.integers(1, 40),
        loss_improvement_factor=st.floats(0.0, 1.0),
        momentum_beta=st.floats(0.0, 0.99),
        decrease_factor_delta=st.floats(0.0, 0.99),
        lines_to_average=st.integers(1, 3),
        grid_search_candidates=st.lists(_WIDTH, max_size=3).map(tuple),
        grid_search_probe_steps=st.integers(0, 6),
        sample_from_validation=st.booleans(),
    )),
    line=st.fixed_dictionaries(dict(
        k=st.integers(1, 3),
        n=st.integers(6, 30),
        initial_interval_width=_WIDTH,
        min_window_size=st.integers(1, 20),
        folds=st.integers(2, 6),
        max_degree=st.integers(0, 8),
    )),
)
def test_config_that_validates_never_crashes_on_any_problem(elf, line):
    try:
        config = ElfConfig(**elf, line_search=LineSearchConfig(**line))
    except ValueError:
        return
    for make_problem in SMALL_PROBLEMS.values():
        streams = rng_streams(0)
        problem = make_problem(streams.data)
        # Huge steps overflow the losses; that is a divergence, not a crash.
        with np.errstate(all="ignore"):
            try:
                state, log = run(problem, config, steps_to_train=200, streams=streams)
            except DivergenceError:
                continue
        assert [row.step for row in log.rows] == list(range(1, state.t + 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    config_class=st.sampled_from([SgdConfig, AdamConfig]),
    learning_rate=_log_scale(-300.0, 300.0),
    divisor=_log_scale(-300.0, 300.0),
    milestones=st.lists(st.floats(0.0, 1.0), max_size=4).map(tuple),
)
def test_baseline_config_that_validates_never_crashes(config_class, learning_rate, divisor,
                                                      milestones):
    steps = 40
    try:
        config = config_class(learning_rate=learning_rate, schedule=StepDecaySchedule(
            milestones=milestones, divisor=divisor))
    except ValueError:
        return
    for make_problem in SMALL_PROBLEMS.values():
        streams = rng_streams(0)
        problem = make_problem(streams.data)
        with np.errstate(all="ignore"):
            try:
                _, log = run_baseline(problem, config, steps, streams)
            except DivergenceError:
                continue
        assert len(log.rows) == steps
