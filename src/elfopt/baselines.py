"""Reference optimizers for the experiment harness: SGD with momentum and a
divide-by-10 step-decay schedule, and Adam with bias correction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import TrainingLog
from .problems import BatchStream, loss_and_gradient
from .seeding import RngStreams


@dataclass(frozen=True)
class StepDecaySchedule:
    """Divides the learning rate by `divisor` once each milestone fraction of
    the total budget has been completed."""

    total_steps: int
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

    def learning_rate(self, base_lr: float, steps_taken: int) -> float:
        passed = sum(
            1 for m in self.milestones if steps_taken >= int(m * self.total_steps)
        )
        return base_lr / self.divisor**passed


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

    def lr_at(self, steps_taken: int) -> float:
        if self.schedule is None:
            return self.learning_rate
        return self.schedule.learning_rate(self.learning_rate, steps_taken)


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


def sgd_step(state: SgdState, gradient: np.ndarray, lr: float, config: BaselineConfig) -> SgdState:
    state.velocity = config.momentum * state.velocity + gradient
    state.theta = state.theta - lr * state.velocity
    return state


def adam_step(state: AdamState, gradient: np.ndarray, lr: float,
              config: BaselineConfig) -> AdamState:
    state.t += 1
    state.m = config.beta1 * state.m + (1.0 - config.beta1) * gradient
    state.v = config.beta2 * state.v + (1.0 - config.beta2) * gradient**2
    m_hat = state.m / (1.0 - config.beta1**state.t)
    v_hat = state.v / (1.0 - config.beta2**state.t)
    state.theta = state.theta - lr * m_hat / (np.sqrt(v_hat) + config.epsilon)
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
    like the line-search optimizer's loads. Each step looks its scheduled
    rate up once, and its row logs the rate the step applies."""
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown baseline optimizer {optimizer!r}")
    if steps_to_train < 1:
        raise ValueError("steps_to_train must be >= 1")
    theta0 = problem.initial_theta(streams.theta_init)
    state = init_sgd(theta0) if optimizer == "sgd" else init_adam(theta0)
    step_fn = sgd_step if optimizer == "sgd" else adam_step

    log = TrainingLog()
    train_stream = BatchStream(problem.train_batches, streams.train_order)
    for step in range(steps_to_train):
        loss, gradient = loss_and_gradient(problem, state.theta, train_stream.next_batch())
        lr = config.lr_at(step)
        log.record("sgd", [loss], lr)
        step_fn(state, gradient, lr, config)
    return state.theta, log
