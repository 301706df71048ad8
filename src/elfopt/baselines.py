"""Reference optimizers for the experiment harness: SGD with momentum and a
divide-by-10 step-decay schedule, and Adam with bias correction."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .controller import TrainingLog
from .problems import BatchStream, loss_and_gradient
from .seeding import RngStreams


@dataclass(frozen=True)
class StepDecaySchedule:
    """Divides the learning rate by `divisor` once each milestone fraction of
    the run's budget has been completed."""

    milestones: tuple[float, ...] = (0.5, 0.75)
    divisor: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.divisor < math.inf:
            raise ValueError("divisor must be positive and finite")
        if not all(0.0 <= m <= 1.0 for m in self.milestones):
            raise ValueError("milestones must lie in [0, 1]")
        # learning_rate's float ** raises OverflowError where numpy's ** is inf.
        with np.errstate(over="ignore", under="ignore"):
            if not 0.0 < np.float64(self.divisor) ** len(self.milestones) < math.inf:
                raise ValueError("divisor ** len(milestones) must be positive and finite")

    def learning_rate(self, base_lr: float, steps_taken: int, total_steps: int) -> float:
        passed = sum(1 for m in self.milestones if steps_taken >= int(m * total_steps))
        return base_lr / self.divisor**passed

    def learning_rates(self, base_lr: float, steps: int) -> Iterator[float]:
        """learning_rate(base_lr, step, steps) for each step in range(steps).
        The rate changes only at a milestone's step, so it is looked up at
        step 0 and at those steps, and the same float is yielded until it
        changes."""
        changes = {0, *(int(m * steps) for m in self.milestones)}
        for step in range(steps):
            if step in changes:
                rate = self.learning_rate(base_lr, step, steps)
            yield rate


@dataclass(frozen=True)
class BaselineConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9          # SGD only
    beta1: float = 0.9             # Adam only
    beta2: float = 0.999
    epsilon: float = 1e-8
    schedule: StepDecaySchedule | None = None

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")

    def rates(self, steps: int) -> Iterator[float]:
        """The rate of each step of a steps-step run: learning_rate, or the
        schedule's rates over that budget."""
        if self.schedule is None:
            return itertools.repeat(self.learning_rate, steps)
        return self.schedule.learning_rates(self.learning_rate, steps)


@dataclass
class SgdState:
    theta: np.ndarray
    velocity: np.ndarray


@dataclass
class AdamState:
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_sgd(theta: np.ndarray) -> SgdState:
    theta = np.asarray(theta, dtype=float).copy()
    return SgdState(theta=theta, velocity=np.zeros_like(theta))


def init_adam(theta: np.ndarray) -> AdamState:
    theta = np.asarray(theta, dtype=float).copy()
    return AdamState(theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta))


# The steps update the state's arrays in place, with the operations of
#   velocity = momentum * velocity + gradient; theta = theta - lr * velocity
# and of
#   m = beta1 * m + (1 - beta1) * gradient
#   v = beta2 * v + (1 - beta2) * gradient**2
#   theta = theta - lr * m_hat / (sqrt(v_hat) + epsilon)
# in the same order, so each element is rounded as these formulas round it.

def sgd_step(state: SgdState, gradient: np.ndarray, lr: float, config: BaselineConfig) -> SgdState:
    state.velocity *= config.momentum
    state.velocity += gradient
    state.theta -= lr * state.velocity
    return state


def adam_step(state: AdamState, gradient: np.ndarray, lr: float,
              config: BaselineConfig) -> AdamState:
    state.t += 1
    state.m *= config.beta1
    state.m += (1.0 - config.beta1) * gradient
    squared = gradient**2
    squared *= 1.0 - config.beta2
    state.v *= config.beta2
    state.v += squared
    step = state.m / (1.0 - config.beta1**state.t)
    step *= lr
    denominator = state.v / (1.0 - config.beta2**state.t)
    np.sqrt(denominator, out=denominator)
    denominator += config.epsilon
    step /= denominator
    state.theta -= step
    return state


def run_baseline(
    problem,
    optimizer: str,
    config: BaselineConfig,
    steps_to_train: int,
    streams: RngStreams,
) -> tuple[np.ndarray, TrainingLog]:
    """Train with a baseline optimizer; one batch load per step, measured
    with one loss_and_gradient call and recorded with TrainingLog.record
    like the line-search optimizer's loads. Each step's row logs the rate
    the step applies, from config.rates(steps_to_train). The returned theta
    is the run's own array, not the problem's initial_theta output."""
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown baseline optimizer {optimizer!r}")
    if steps_to_train < 1:
        raise ValueError("steps_to_train must be >= 1")
    theta0 = problem.initial_theta(streams.theta_init)
    state = init_sgd(theta0) if optimizer == "sgd" else init_adam(theta0)
    step_fn = sgd_step if optimizer == "sgd" else adam_step

    log = TrainingLog()
    train_stream = BatchStream(problem.train_batches, streams.train_order)
    for lr in config.rates(steps_to_train):
        loss, gradient = loss_and_gradient(problem, state.theta, train_stream.next_batch())
        log.record("sgd", [loss], lr)
        step_fn(state, gradient, lr, config)
    return state.theta, log
