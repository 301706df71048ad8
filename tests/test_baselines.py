"""Baseline optimizer updates, the step-decay schedule, and reference
cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfopt.baselines import (
    AdamConfig,
    AdamState,
    SgdConfig,
    SgdState,
    StepDecaySchedule,
    adam_step,
    init_adam,
    init_sgd,
    run_baseline,
    sgd_step,
    step_rates,
)
from elfopt.controller import DivergenceError, TrainingLog
from elfopt.problems import (
    BatchStream,
    LogisticBlobs,
    MlpBlobs,
    NoisyQuadraticEnsemble,
    loss_and_gradient,
)
from elfopt.seeding import rng_streams

CONFIGS = {"sgd": SgdConfig, "adam": AdamConfig}


def test_each_config_takes_only_its_optimizers_fields():
    assert SgdConfig() == SgdConfig(learning_rate=0.01, momentum=0.9, schedule=None)
    assert AdamConfig() == AdamConfig(learning_rate=0.001, beta1=0.9, beta2=0.999,
                                      epsilon=1e-8, schedule=None)
    with pytest.raises(TypeError):
        SgdConfig(beta1=0.9)
    with pytest.raises(TypeError):
        AdamConfig(momentum=0.9)


@pytest.mark.parametrize("make_config, message", [
    (lambda: SgdConfig(learning_rate=0.0), "learning_rate must be positive and finite"),
    (lambda: SgdConfig(learning_rate=math.inf), "learning_rate must be positive and finite"),
    (lambda: SgdConfig(momentum=1.0), r"momentum must lie in \[0, 1\)"),
    (lambda: AdamConfig(learning_rate=math.nan), "learning_rate must be positive and finite"),
    (lambda: AdamConfig(beta1=-0.1), r"beta1 must lie in \[0, 1\)"),
    (lambda: AdamConfig(beta2=1.0), r"beta2 must lie in \(0, 1\)"),
    (lambda: AdamConfig(epsilon=0.0), "epsilon must be positive and finite"),
])
def test_each_config_checks_its_own_fields(make_config, message):
    with pytest.raises(ValueError, match=message):
        make_config()


@pytest.mark.parametrize("config", [StepDecaySchedule(), None, "sgd"])
def test_run_baseline_rejects_a_config_of_no_baseline(config):
    problem = NoisyQuadraticEnsemble(n_batches=10, dim=4, rng=np.random.default_rng(0))
    with pytest.raises(TypeError, match="no baseline optimizer"):
        run_baseline(problem, config, 10, rng_streams(0))


def test_plain_sgd_step():
    state = init_sgd(np.array([1.0, 1.0]))
    config = SgdConfig(learning_rate=0.1, momentum=0.0)
    sgd_step(state, np.array([1.0, 0.0]), config.learning_rate, config)
    np.testing.assert_allclose(state.theta, [0.9, 1.0])


def test_momentum_accumulates_geometrically():
    state = init_sgd(np.zeros(2))
    config = SgdConfig(learning_rate=0.1, momentum=0.9)
    g = np.array([1.0, -2.0])
    sgd_step(state, g, config.learning_rate, config)
    before = state.theta.copy()
    sgd_step(state, g, config.learning_rate, config)
    np.testing.assert_allclose(state.theta - before, -0.1 * 1.9 * g)


def _rate(config, step, steps):
    """The rate of step `step` of a steps-step run, looked up on its own."""
    if config.schedule is None:
        return config.learning_rate
    return config.schedule.learning_rate(config.learning_rate, step, steps)


def test_schedule_divides_by_ten_after_half_and_three_quarters():
    schedule = StepDecaySchedule()
    assert schedule.learning_rate(0.1, 0, 100) == 0.1
    assert schedule.learning_rate(0.1, 49, 100) == 0.1
    # the (T/2 + 1)-th step runs with lr0 / 10
    assert schedule.learning_rate(0.1, 50, 100) == 0.1 / 10
    assert schedule.learning_rate(0.1, 74, 100) == 0.1 / 10
    assert schedule.learning_rate(0.1, 75, 100) == 0.1 / 100
    assert schedule.learning_rate(0.1, 99, 100) == 0.1 / 100


@pytest.mark.parametrize("divisor, milestones", [
    (1e200, (0.5, 0.75)),     # 1e400 overflows, and a float ** raises
    (1e-200, (0.9, 0.9)),     # 1e-400 underflows to 0.0
    (2.0, (0.5,) * 1100),     # 2**1100 overflows
])
def test_schedule_rejects_a_decay_beyond_the_float_range(divisor, milestones):
    with pytest.raises(ValueError, match="divisor"):
        StepDecaySchedule(milestones=milestones, divisor=divisor)


def test_schedule_keeps_a_decay_at_the_edge_of_the_float_range():
    # 1e154**2 = 1e308 is still a float, so this schedule runs as before.
    schedule = StepDecaySchedule(milestones=(0.5, 0.75), divisor=1e154)
    assert schedule.learning_rate(1.0, 99, 100) == 1.0 / 1e154**2


def test_adam_first_step_bounded_by_learning_rate():
    lr = 0.01
    state = init_adam(np.zeros(4))
    config = AdamConfig(learning_rate=lr)
    adam_step(state, np.array([0.5, -2.0, 1e-3, 10.0]), config.learning_rate, config)
    assert (np.abs(state.theta) <= lr * (1.0 + 1e-6)).all()


def test_adam_zero_gradients_leave_theta_unchanged():
    state = init_adam(np.array([1.0, -2.0]))
    config = AdamConfig(learning_rate=0.01)
    for _ in range(10):
        adam_step(state, np.zeros(2), config.learning_rate, config)
    np.testing.assert_array_equal(state.theta, [1.0, -2.0])


def _reference_adam(theta, grads, lr, beta1, beta2, eps):
    """Straightforward textbook loop used as an independent oracle."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_adam_matches_reference_on_quadratic():
    a = np.array([2.0, 0.5, 1.0])
    theta0 = np.array([3.0, -4.0, 1.5])

    state = init_adam(theta0)
    config = AdamConfig(learning_rate=1e-2)
    losses = []
    grads = []
    theta_ref = theta0
    for _ in range(1000):
        losses.append(0.5 * float(state.theta @ (a * state.theta)))
        g = a * state.theta
        grads.append(g)
        adam_step(state, g, config.learning_rate, config)

    # loss decreases monotonically after burn-in
    burn = 50
    diffs = np.diff(losses[burn:])
    assert (diffs <= 1e-12).all()

    # replaying the recorded gradients through the reference gives the same point
    replay = _reference_adam(theta0, grads, 1e-2, 0.9, 0.999, 1e-8)
    np.testing.assert_allclose(state.theta, replay, rtol=1e-12, atol=1e-12)


def test_momentum_free_sgd_is_plain_gradient_descent():
    a = 0.8
    lr = 0.3
    state = init_sgd(np.array([2.0]))
    config = SgdConfig(learning_rate=lr, momentum=0.0)
    expected = 2.0
    for _ in range(20):
        sgd_step(state, np.array([a * state.theta[0]]), config.learning_rate, config)
        expected *= 1.0 - lr * a
        assert abs(state.theta[0] - expected) < 1e-12


def test_run_baseline_is_deterministic():
    problem = NoisyQuadraticEnsemble(n_batches=10, dim=4, rng=np.random.default_rng(0))
    config = SgdConfig(learning_rate=0.05, momentum=0.9, schedule=StepDecaySchedule())
    theta_a, log_a = run_baseline(problem, config, 200, rng_streams(3))
    theta_b, log_b = run_baseline(problem, config, 200, rng_streams(3))
    np.testing.assert_array_equal(theta_a, theta_b)
    assert log_a.rows == log_b.rows
    assert len(log_a.rows) == 200


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_each_row_logs_the_rate_its_step_applied(optimizer):
    problem = NoisyQuadraticEnsemble(n_batches=10, dim=4, rng=np.random.default_rng(0))
    config = CONFIGS[optimizer](learning_rate=0.05, schedule=StepDecaySchedule())
    theta, log = run_baseline(problem, config, 200, rng_streams(3))
    rates = [row.update_step for row in log.rows]
    assert rates == [_rate(config, i, 200) for i in range(200)]
    drops = [row.step for before, row in zip(log.rows, log.rows[1:])
             if row.update_step != before.update_step]
    assert drops == [101, 151]
    assert rates[100] == pytest.approx(rates[99] / 10, rel=1e-15)
    assert rates[150] == pytest.approx(rates[149] / 10, rel=1e-15)

    # Replaying the logged rates on the same batch order lands on the same
    # theta bit for bit: each row logs the rate its step applied.
    streams = rng_streams(3)
    init, step = (init_sgd, sgd_step) if optimizer == "sgd" else (init_adam, adam_step)
    state = init(problem.initial_theta(streams.theta_init))
    train_stream = BatchStream(problem.train_batches, streams.train_order)
    for rate in rates:
        _, gradient = loss_and_gradient(problem, state.theta, train_stream.next_batch())
        step(state, gradient, rate, config)
    np.testing.assert_array_equal(state.theta, theta)


def test_run_baseline_aborts_on_divergence():
    problem = NoisyQuadraticEnsemble(n_batches=10, dim=3, rng=np.random.default_rng(0))
    # The learning rate validates; the overflow it causes is what the test is about.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as raised:
        run_baseline(problem, SgdConfig(learning_rate=1e300), 50, rng_streams(0))
    # The error carries every load up to and including the non-finite one.
    rows = raised.value.log.rows
    assert [row.step for row in rows] == list(range(1, len(rows) + 1))
    assert not np.isfinite(rows[-1].train_loss)
    assert str(raised.value).endswith(f"at step {len(rows)}")


@pytest.mark.parametrize("steps", [0, -5])
def test_run_baseline_rejects_a_budget_below_one(steps):
    problem = NoisyQuadraticEnsemble(n_batches=10, dim=4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="steps_to_train"):
        run_baseline(problem, SgdConfig(), steps, rng_streams(0))


# ---------------------------------------------------------------------------
# in-place steps against the out-of-place formulas
# ---------------------------------------------------------------------------

def _reference_sgd_step(state, gradient, lr, config):
    """The out-of-place SGD update: new arrays for velocity and theta."""
    state.velocity = config.momentum * state.velocity + gradient
    state.theta = state.theta - lr * state.velocity
    return state


def _reference_adam_step(state, gradient, lr, config):
    """The out-of-place Adam update: new arrays for m, v and theta."""
    state.t += 1
    state.m = config.beta1 * state.m + (1.0 - config.beta1) * gradient
    state.v = config.beta2 * state.v + (1.0 - config.beta2) * gradient**2
    m_hat = state.m / (1.0 - config.beta1**state.t)
    v_hat = state.v / (1.0 - config.beta2**state.t)
    state.theta = state.theta - lr * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return state


def _state_bytes(state):
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value
            for name, value in vars(state).items()}


_ENTRY = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e200, -1e200, 5e-324])
_GRADIENT_ENTRY = _ENTRY | st.sampled_from([math.nan, math.inf])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(size=st.integers(1, 6), data=st.data(),
       lr=st.sampled_from([1e-3, 0.01, 0.5, 1e-300]) | st.floats(1e-6, 10.0),
       momentum=st.floats(0.0, 0.99), beta1=st.floats(0.0, 0.99),
       beta2=st.floats(0.01, 0.9999), epsilon=st.sampled_from([1e-8, 1e-3, 1e-300]),
       steps=st.integers(1, 4))
def test_in_place_steps_equal_the_out_of_place_formulas(size, data, lr, momentum, beta1, beta2,
                                                        epsilon, steps):
    def vector(entries):
        return np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))

    sgd_config = SgdConfig(learning_rate=0.01, momentum=momentum)
    adam_config = AdamConfig(learning_rate=0.01, beta1=beta1, beta2=beta2, epsilon=epsilon)
    theta = vector(_ENTRY)
    sgd, sgd_ref = init_sgd(theta), init_sgd(theta)
    adam, adam_ref = init_adam(theta), init_adam(theta)
    # Nonzero moments, as after earlier steps; v stays >= 0 as Adam keeps it.
    sgd.velocity[:] = sgd_ref.velocity[:] = vector(_ENTRY)
    adam.m[:] = adam_ref.m[:] = vector(_ENTRY)
    adam.v[:] = adam_ref.v[:] = np.abs(vector(_ENTRY))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            gradient = vector(_GRADIENT_ENTRY)
            before = gradient.tobytes()
            arrays = (sgd.theta, sgd.velocity, adam.theta, adam.m, adam.v)
            assert sgd_step(sgd, gradient, lr, sgd_config) is sgd
            assert adam_step(adam, gradient, lr, adam_config) is adam
            _reference_sgd_step(sgd_ref, gradient, lr, sgd_config)
            _reference_adam_step(adam_ref, gradient, lr, adam_config)
            assert _state_bytes(sgd) == _state_bytes(sgd_ref)
            assert _state_bytes(adam) == _state_bytes(adam_ref)
            # Updated in place, and the gradient is left as it was.
            assert all(new is old for new, old in zip(
                (sgd.theta, sgd.velocity, adam.theta, adam.m, adam.v), arrays))
            assert gradient.tobytes() == before


def _reference_run(problem, config, steps, streams):
    """run_baseline as a plain loop over the out-of-place formulas, each
    step's rate looked up on its own."""
    init, step = ((init_sgd, _reference_sgd_step) if isinstance(config, SgdConfig)
                  else (init_adam, _reference_adam_step))
    state = init(problem.initial_theta(streams.theta_init))
    train_stream = BatchStream(problem.train_batches, streams.train_order)
    rows = []
    for index in range(steps):
        loss, gradient = loss_and_gradient(problem, state.theta, train_stream.next_batch())
        rows.append((index + 1, "sgd", loss, _rate(config, index, steps), None, None))
        step(state, gradient, _rate(config, index, steps), config)
    return state.theta, rows


@pytest.mark.parametrize("make_problem", [
    lambda rng: NoisyQuadraticEnsemble(rng=rng),
    lambda rng: LogisticBlobs(separation=1.0, cluster_std=1.0, rng=rng),
    lambda rng: MlpBlobs(rng=rng),
], ids=["quadratic", "logistic-hard", "mlp"])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_run_baseline_is_bit_identical_to_the_out_of_place_loop(make_problem, optimizer):
    config = CONFIGS[optimizer](learning_rate=0.05 if optimizer == "sgd" else 0.005,
                                schedule=StepDecaySchedule(milestones=(0.3, 0.6, 0.6)))
    initial = []
    problem = make_problem(rng_streams(4).data)
    draw_theta = problem.initial_theta

    def recorded_initial_theta(rng):
        initial.append(draw_theta(rng))
        return initial[-1]

    problem.initial_theta = recorded_initial_theta
    theta, log = run_baseline(problem, config, 1000, rng_streams(4))
    (theta0,) = initial
    first = theta0.copy()
    ref_theta, ref_rows = _reference_run(problem, config, 1000, rng_streams(4))
    assert theta.tobytes() == ref_theta.tobytes()
    assert [repr(tuple(row)) for row in log.rows] == [repr(row) for row in ref_rows]
    # The returned theta is the run's own array: the problem's initial_theta
    # output is neither it nor changed by the run.
    assert not np.shares_memory(theta, theta0)
    assert theta0.tobytes() == first.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(steps=st.integers(0, 80),
       milestones=st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
                           max_size=4),
       divisor=st.sampled_from([10.0, 3.0, 0.5, 1e50]),
       base_lr=st.sampled_from([0.01, 1.0, 1e-300]))
def test_rates_are_lr_at_for_every_step(steps, milestones, divisor, base_lr):
    schedule = StepDecaySchedule(milestones=tuple(milestones), divisor=divisor)
    for config in (SgdConfig(learning_rate=base_lr, schedule=schedule),
                   AdamConfig(learning_rate=base_lr, schedule=schedule),
                   SgdConfig(learning_rate=base_lr), AdamConfig(learning_rate=base_lr)):
        rates = list(step_rates(config, steps))
        assert [rate.hex() for rate in rates] == [
            _rate(config, step, steps).hex() for step in range(steps)]


@pytest.mark.parametrize("schedule", [True, False], ids=["step-decay", "constant"])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_a_baseline_log_holds_one_segment_per_rate(optimizer, schedule):
    steps = 6000
    config = CONFIGS[optimizer](learning_rate=0.05 if optimizer == "sgd" else 0.005,
                                schedule=StepDecaySchedule() if schedule else None)
    problem = LogisticBlobs(separation=1.0, cluster_std=1.0, rng=rng_streams(6).data)
    _, log = run_baseline(problem, config, steps, rng_streams(6))
    _, ref_rows = _reference_run(problem, config, steps, rng_streams(6))
    assert [repr(tuple(row)) for row in log.rows] == [repr(row) for row in ref_rows]
    firsts = [1, 3001, 4501] if schedule else [1]
    assert [(segment.first, segment.update_step) for segment in log.segments] == [
        (first, _rate(config, first - 1, steps)) for first in firsts]
    assert [len(segment.losses) for segment in log.segments] == [
        end - first for first, end in zip(firsts, [*firsts[1:], steps + 1])]


# ---------------------------------------------------------------------------
# epoch draws against one next_batch call per step
# ---------------------------------------------------------------------------

def _per_step_run(problem, config, steps, streams):
    """run_baseline's loop with one next_batch call per step."""
    init, step = ((init_sgd, sgd_step) if isinstance(config, SgdConfig)
                  else (init_adam, adam_step))
    state = init(problem.initial_theta(streams.theta_init))
    log = TrainingLog()
    train_stream = BatchStream(problem.train_batches, streams.train_order)
    for lr in step_rates(config, steps):
        loss, gradient = loss_and_gradient(problem, state.theta, train_stream.next_batch())
        log.record("sgd", [loss], lr)
        step(state, gradient, lr, config)
    return state.theta, log


# Each problem has 40 training batches (the quadratic holds 10 of its 50 out
# for validation), so the budgets below end one load short of an epoch, on it,
# one past it, and within the 26th epoch.
EPOCH_PROBLEMS = {
    "quadratic": lambda rng: NoisyQuadraticEnsemble(n_batches=50, rng=rng),
    "logistic-hard": lambda rng: LogisticBlobs(separation=1.0, cluster_std=1.0, rng=rng),
    "mlp": lambda rng: MlpBlobs(rng=rng),
}


def _same_log(log, ref):
    assert [repr(tuple(row)) for row in log.rows] == [repr(tuple(row)) for row in ref.rows]
    assert [repr(segment) for segment in log.segments] == [repr(s) for s in ref.segments]


@pytest.mark.parametrize("name", sorted(EPOCH_PROBLEMS))
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("steps", [1, 39, 40, 41, 1001])
def test_epoch_draws_equal_one_next_batch_per_step(name, optimizer, steps):
    problem = EPOCH_PROBLEMS[name](rng_streams(5).data)
    assert len(problem.train_batches) == 40
    config = CONFIGS[optimizer](learning_rate=0.05 if optimizer == "sgd" else 0.005,
                                schedule=StepDecaySchedule())
    streams, ref_streams = rng_streams(5), rng_streams(5)
    theta, log = run_baseline(problem, config, steps, streams)
    ref_theta, ref_log = _per_step_run(problem, config, steps, ref_streams)
    assert theta.tobytes() == ref_theta.tobytes()
    _same_log(log, ref_log)
    # The run drew exactly its budget: the batch order's next draw is the same.
    assert streams.train_order.random() == ref_streams.train_order.random()


def test_a_diverging_run_with_epoch_draws_ends_on_its_first_non_finite_row():
    problem = NoisyQuadraticEnsemble(n_batches=50, dim=3, rng=np.random.default_rng(0))
    config = SgdConfig(learning_rate=1e300)
    streams, ref_streams = rng_streams(0), rng_streams(0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as raised:
            run_baseline(problem, config, 1001, streams)
        with pytest.raises(DivergenceError) as ref_raised:
            _per_step_run(problem, config, 1001, ref_streams)
    log, ref_log = raised.value.log, ref_raised.value.log
    _same_log(log, ref_log)
    assert not math.isfinite(log.rows[-1].train_loss)
    assert all(math.isfinite(row.train_loss) for row in log.rows[:-1])
    assert str(raised.value) == str(ref_raised.value)
    # Epochs are drawn as the steps reach them, so the stopped run drew no
    # epoch the per-step loop did not.
    assert streams.train_order.random() == ref_streams.train_order.random()
