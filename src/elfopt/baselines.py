"""Reference optimizers for the experiment harness: SGD with momentum and a
divide-by-10 step-decay schedule, and Adam with bias correction."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .controller import TrainingLog
from .problems import BatchStream
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


def step_rates(config: SgdConfig | AdamConfig, steps: int) -> Iterator[float]:
    """The rate of each step of a steps-step run: config.learning_rate, or
    config.schedule's rates over that budget."""
    if config.schedule is None:
        return itertools.repeat(config.learning_rate, steps)
    return config.schedule.learning_rates(config.learning_rate, steps)


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    schedule: StepDecaySchedule | None = None

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


@dataclass(frozen=True)
class AdamConfig:
    # Adam's customary step: it normalizes by the gradient scale.
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    schedule: StepDecaySchedule | None = None

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")


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

def sgd_step(state: SgdState, gradient: np.ndarray, lr: float, config: SgdConfig) -> SgdState:
    state.velocity *= config.momentum
    state.velocity += gradient
    state.theta -= lr * state.velocity
    return state


def adam_step(state: AdamState, gradient: np.ndarray, lr: float, config: AdamConfig) -> AdamState:
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


# Each baseline's config class -> (its state's init, its step).
_OPTIMIZERS = {SgdConfig: (init_sgd, sgd_step), AdamConfig: (init_adam, adam_step)}


def run_baseline(problem, config: SgdConfig | AdamConfig, steps_to_train: int,
                 streams: RngStreams) -> tuple[np.ndarray, TrainingLog]:
    """Train with the optimizer that the config's class configures. Each step
    loads one batch, measured by one problem.batch_loss_and_gradient call
    and recorded by TrainingLog.record like the line-search optimizer's
    loads; its row logs the rate the step applies, from step_rates(config,
    steps_to_train). The batches come from BatchStream.next_batches an epoch
    at a time, the last draw cut at steps_to_train, so they are next_batch's
    batches in its order and a finished run leaves streams.train_order as
    steps_to_train next_batch calls would. The returned theta is the run's
    own array, not initial_theta's output."""
    if type(config) not in _OPTIMIZERS:
        raise TypeError(f"no baseline optimizer is configured by {type(config).__name__}")
    if steps_to_train < 1:
        raise ValueError("steps_to_train must be >= 1")
    init, step = _OPTIMIZERS[type(config)]
    state = init(problem.initial_theta(streams.theta_init))

    log = TrainingLog()
    train_stream = BatchStream(problem.train_batches, streams.train_order)
    epoch = len(problem.train_batches)
    # A fresh stream starts an epoch, so each draw is one whole epoch; drawn
    # lazily, a diverging run draws no epoch past the one it stops in.
    batches = itertools.chain.from_iterable(
        train_stream.next_batches(min(epoch, steps_to_train - start))
        for start in range(0, steps_to_train, epoch))
    for lr, batch in zip(step_rates(config, steps_to_train), batches):
        loss, gradient = problem.batch_loss_and_gradient(state.theta, batch)
        log.record("sgd", [loss], lr)
        step(state, gradient, lr, config)
    return state.theta, log
