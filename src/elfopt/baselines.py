"""Reference optimizers for the experiment harness: SGD with momentum and a
divide-by-10 step-decay schedule, and Adam with bias correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import DivergenceError, LogRow, TrainingLog
from .problems import BatchStream
from .seeding import RngStreams


@dataclass(frozen=True)
class StepDecaySchedule:
    """Divides the learning rate by `divisor` once each milestone fraction of
    the total budget has been completed."""

    total_steps: int
    milestones: tuple[float, ...] = (0.5, 0.75)
    divisor: float = 10.0

    def __post_init__(self):
        if self.divisor <= 0.0:
            raise ValueError("divisor must be positive")

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
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")

    def lr_at(self, steps_taken: int) -> float:
        if self.schedule is None:
            return self.learning_rate
        return self.schedule.learning_rate(self.learning_rate, steps_taken)


@dataclass
class SgdState:
    theta: np.ndarray
    velocity: np.ndarray
    t: int = 0


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


def sgd_step(state: SgdState, gradient: np.ndarray, config: BaselineConfig) -> SgdState:
    lr = config.lr_at(state.t)
    state.velocity = config.momentum * state.velocity + gradient
    state.theta = state.theta - lr * state.velocity
    state.t += 1
    return state


def adam_step(state: AdamState, gradient: np.ndarray, config: BaselineConfig) -> AdamState:
    lr = config.lr_at(state.t)
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
    """Train with a baseline optimizer; one batch load per step, same log
    row schema as the line-search optimizer."""
    if optimizer not in ("sgd", "adam"):
        raise ValueError(f"unknown baseline optimizer {optimizer!r}")
    theta0 = problem.initial_theta(streams.theta_init)
    state = init_sgd(theta0) if optimizer == "sgd" else init_adam(theta0)
    step_fn = sgd_step if optimizer == "sgd" else adam_step

    log = TrainingLog()
    train_stream = BatchStream(problem.train_batches, streams.train_order)
    for _ in range(steps_to_train):
        batch = train_stream.next_batch()
        loss = float(problem.batch_loss(state.theta, batch))
        lr = config.lr_at(state.t)
        log.rows.append(LogRow(state.t + 1, "sgd", loss, lr, None, None))
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite training loss at step {state.t + 1}")
        gradient = problem.batch_gradient(state.theta, batch)
        step_fn(state, gradient, config)
    return state.theta, log
