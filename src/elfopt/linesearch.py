"""Line search on the empirical loss: sample noisy batch losses along one
direction, fit a cross-validated polynomial, and step to its minimum.

The search runs k rounds. Each round draws n step sizes uniformly at random
from [0, interval_width], measures one batch loss per step size with a single
call of the round oracle, refits over all accumulated samples, and relocates
the minimum nearest the origin. From round 1 on the sampling interval is
re-chosen so the point cloud around the minimum stays wider than high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .poly import Polynomial, closest_minimum_to_zero, derivative, evaluate, solve_for_value_nearest
from .regression import FitReport, SampleSet, select_degree_and_fit

# The fitted minimum may be located up to one interval width beyond the
# sampled region; mild extrapolation lets the interval adaptation chase a
# minimum that lies past the current window.
EXTRAPOLATION_FACTOR = 2.0

# The narrowest first sampling interval. Steps below machine epsilon cannot
# move a parameter of order one, and the fit of a far narrower line (1e-160,
# say) overflows when mapped back to raw step sizes.
MIN_INTERVAL_WIDTH = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LineSearchConfig:
    k: int = 5                            # interval adaptations
    n: int = 100                          # losses sampled per adaptation
    initial_interval_width: float = 1.0
    min_window_size: int = 50
    folds: int = 5
    max_degree: int = 10

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.n < self.folds:
            raise ValueError("n must be >= folds")
        if not MIN_INTERVAL_WIDTH <= self.initial_interval_width < np.inf:
            raise ValueError(f"initial_interval_width must lie in [{MIN_INTERVAL_WIDTH:g}, inf)")
        if self.min_window_size < 1:
            raise ValueError("min_window_size must be >= 1")


@dataclass(frozen=True)
class LineSearchResult:
    """Outcome of one line search.

    minimum_position is None when the final fit has no minimum; the search is
    valid when that minimum lies at a positive step. rounds[i] records which
    adaptation round produced samples[i], and every sample is one batch load.
    """

    minimum_position: float | None
    fit: FitReport
    samples: SampleSet
    rounds: np.ndarray

    @property
    def valid(self) -> bool:
        return self.minimum_position is not None and self.minimum_position > 0.0

    @property
    def expected_improvement(self) -> float | None:
        """The fit's drop from step 0 to the minimum; None unless valid."""
        if not self.valid:
            return None
        poly = self.fit.polynomial
        return evaluate(poly, 0.0) - evaluate(poly, self.minimum_position)

    @property
    def batches_consumed(self) -> int:
        return len(self.samples)


def third_quartile(values: np.ndarray) -> float:
    """Q3 with linear interpolation between order statistics (R-7 rule):
    np.quantile(values, 0.75) bit for bit, by its steps on Python floats. Its
    np.partition call places tied 0.0 and -0.0 as np.quantile's does, and
    its _lerp works down from the upper statistic at weights >= 0.5."""
    values = np.array(values, dtype=float)
    index = 0.75 * (values.size - 1)
    below = math.floor(index) if index < values.size - 1 else -1
    above = below + 1 if below >= 0 else -1
    values.partition(sorted({0, -1, below, above}))
    last = values.item(-1)
    if math.isnan(last):
        return last
    lo, hi, weight = values.item(below), values.item(above), index - below
    diff = hi - lo
    return hi - diff * (1 - weight) if weight >= 0.5 else lo + diff * weight


def chose_sample_interval(
    minimum_position: float,
    samples: SampleSet,
    fit: Polynomial,
    min_window_size: int,
    current_width: float,
) -> float:
    """Pick the next sampling interval width around the located minimum.

    The window is every sample at position 0 <= m <= 2 * minimum_position,
    falling back to the min_window_size positions nearest the minimum when
    that strip is too thin. The new width is where |fit| returns to the
    window's third-quartile loss, nearest to the minimum; if the fit never
    reaches that level, twice the minimum position (or twice the smallest
    positive sample) is used.
    """
    in_strip = (samples.positions >= 0.0) & (samples.positions <= 2.0 * minimum_position)
    if int(in_strip.sum()) < min_window_size:
        order = np.argsort(np.abs(samples.positions - minimum_position), kind="stable")
        window = order[: min(min_window_size, len(samples))]
        window_losses = samples.losses[window]
    else:
        window_losses = samples.losses[in_strip]
    target_loss = third_quartile(window_losses)

    bracket_end = max(4.0 * minimum_position, current_width)
    width = None
    if bracket_end > 0.0:
        width = solve_for_value_nearest(fit, target_loss, minimum_position, (0.0, bracket_end))
    if width is None:
        positive = samples.positions[samples.positions > 0.0]
        smallest_positive = float(positive.min()) if positive.size else 0.0
        width = 2.0 * max(minimum_position, smallest_positive)
    return float(width)


def elf_line_search(
    oracle: Callable[[np.ndarray], np.ndarray],
    config: LineSearchConfig,
    rng: np.random.Generator,
    cv_rng: np.random.Generator | None = None,
) -> LineSearchResult:
    """Run the full adaptive-interval line search along one direction.

    oracle is a round oracle: it maps an array of step sizes to an array
    holding one batch loss per step size, each measured on a fresh batch in
    the order given. It is called once with [0.0], the baseline that anchors
    the fit's value at the origin, and once per round with that round's n
    sorted step sizes. Every loss is counted in batches_consumed.
    """
    if cv_rng is None:
        cv_rng = rng
    width = config.initial_interval_width
    # One slot per load, round r's in [1 + r*n, 1 + (r+1)*n); SampleSets view the filled prefix.
    positions = np.zeros(1 + config.k * config.n)
    losses = np.empty_like(positions)
    losses[:1] = _measure(oracle, positions[:1])
    report: FitReport | None = None
    minimum: float | None = None

    for r in range(config.k):
        if r != 0:
            if minimum is not None:
                adapted = chose_sample_interval(
                    minimum, samples, report.polynomial, config.min_window_size, width
                )
                width = adapted if adapted > 0.0 else width
            else:
                # No minimum yet: widen while the fit still descends at the
                # origin, otherwise shrink to resolve smaller steps.
                slope = evaluate(derivative(report.polynomial), 0.0)
                width = width * 2.0 if slope <= 0.0 else width * 0.5
        start, end = 1 + r * config.n, 1 + (r + 1) * config.n
        s = positions[start:end] = np.sort(rng.uniform(0.0, width, config.n))
        losses[start:end] = _measure(oracle, s)
        samples = SampleSet(positions[:end], losses[:end])
        report = select_degree_and_fit(samples, config.max_degree, config.folds, cv_rng)
        scan_end = EXTRAPOLATION_FACTOR * max(width, float(samples.positions.max()))
        found = closest_minimum_to_zero(report.polynomial, (0.0, scan_end))
        minimum = found[0] if found is not None else None

    rounds = np.concatenate(([0], np.repeat(np.arange(config.k), config.n)))
    return LineSearchResult(minimum_position=minimum, fit=report, samples=samples, rounds=rounds)


def _measure(oracle: Callable[[np.ndarray], np.ndarray], s: np.ndarray) -> np.ndarray:
    """One call of the round oracle, checked to return one loss per step size."""
    losses = np.asarray(oracle(s), dtype=float)
    if losses.shape != s.shape:
        raise ValueError(f"the oracle returned shape {losses.shape} for {s.size} step sizes")
    return losses
