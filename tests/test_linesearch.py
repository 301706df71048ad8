"""Adaptive-interval line search behavior on noiseless, noisy, and rigged
loss oracles."""

import numpy as np
import pytest

from elfopt.linesearch import (
    LineSearchConfig,
    chose_sample_interval,
    elf_line_search,
    third_quartile,
)
from elfopt.poly import Polynomial
from elfopt.regression import SampleSet


def test_noiseless_parabola_finds_vertex():
    rng = np.random.default_rng(0)
    result = elf_line_search(lambda s: (s - 1.0) ** 2, LineSearchConfig(), rng)
    assert result.valid
    assert abs(result.minimum_position - 1.0) < 1e-3
    assert abs(result.expected_improvement - 1.0) < 1e-3


def test_noiseless_vertex_found_regardless_of_seed():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        result = elf_line_search(lambda s: 0.3 + 2.0 * (s - 0.8) ** 2, LineSearchConfig(), rng)
        assert result.valid
        assert abs(result.minimum_position - 0.8) < 1e-3


def test_monotone_line_is_invalid():
    rng = np.random.default_rng(0)
    result = elf_line_search(lambda s: s + 1.0, LineSearchConfig(), rng)
    assert not result.valid
    assert result.minimum_position is None
    assert result.expected_improvement is None


def test_degree_sweep_capped_by_smallest_training_fold():
    # 6 samples in 5 folds: the largest test fold holds 2, so every degree
    # above 3 would be fitted on too few training samples.
    config = LineSearchConfig(k=1, n=5, folds=5)
    for seed in range(50):
        result = elf_line_search(lambda s: (s - 0.5) ** 4 - s, config, np.random.default_rng(seed))
        assert result.batches_consumed == 6
        assert result.fit.chosen_degree <= 3


@pytest.mark.parametrize("field", [{"folds": 1}, {"max_degree": -1}])
def test_config_rejects_too_few_folds_and_negative_max_degree(field):
    with pytest.raises(ValueError):
        LineSearchConfig(**field)


def test_noisy_batch_quadratics_match_average_curve_oracle():
    # per-batch quadratics a*(s-b)^2 + c; the true empirical curve is their
    # exact average, minimized here by brute force on a dense grid
    rng = np.random.default_rng(99)
    n_batches = 200
    a = rng.uniform(0.5, 1.5, n_batches)
    b = rng.uniform(0.8, 1.2, n_batches)
    c = rng.uniform(0.0, 0.1, n_batches)

    pick = np.random.default_rng(100)

    def oracle(s):
        i = pick.integers(n_batches)
        return a[i] * (s - b[i]) ** 2 + c[i]

    result = elf_line_search(oracle, LineSearchConfig(), np.random.default_rng(7))
    assert result.valid

    grid = np.arange(0.0, 4.0, 1e-4)
    mean_curve = np.mean(
        a[:, None] * (grid[None, :] - b[:, None]) ** 2 + c[:, None], axis=0
    )
    s_star = grid[np.argmin(mean_curve)]
    assert abs(result.minimum_position - s_star) / s_star < 0.05


def test_batch_accounting_counts_every_oracle_call():
    calls = {"n": 0}

    def oracle(s):
        calls["n"] += 1
        return (s - 1.0) ** 2

    config = LineSearchConfig(k=3, n=40, folds=5, min_window_size=10)
    result = elf_line_search(oracle, config, np.random.default_rng(1))
    assert result.batches_consumed == calls["n"] == 3 * 40 + 1


def test_sample_counts_per_round():
    config = LineSearchConfig(k=4, n=25, folds=5, min_window_size=10)
    result = elf_line_search(lambda s: (s - 0.5) ** 2, config, np.random.default_rng(3))
    rounds = result.rounds
    assert len(result.samples) == 4 * 25 + 1
    for r in range(4):
        assert int((rounds <= r).sum()) == (r + 1) * 25 + 1
    assert (result.samples.positions >= 0.0).all()


# ---------------------------------------------------------------------------
# interval adaptation
# ---------------------------------------------------------------------------

def test_quartile_convention():
    assert third_quartile(np.array([1.0, 2.0, 3.0, 4.0])) == 3.25


def test_interval_width_from_quartile_crossing():
    # fit (s-1)^2, window third quartile pinned at 0.25, minimum at 1:
    # |fit| = 0.25 nearest 1 ties at 0.5/1.5 and resolves to 1.5
    fit = Polynomial([1.0, -2.0, 1.0])
    positions = np.linspace(0.0, 2.0, 60)
    losses = np.linspace(0.0, 1.0 / 3.0, 60)
    width = chose_sample_interval(1.0, SampleSet(positions, losses), fit, 50, 2.0)
    assert abs(width - 1.5) < 1e-6
    assert third_quartile(losses) == 0.25


def test_nearest_window_fallback_uses_explicit_sort():
    rng = np.random.default_rng(4)
    positions = np.sort(rng.uniform(0.0, 4.0, 120))
    losses = (positions - 0.1) ** 2 + rng.normal(scale=0.01, size=120)
    samples = SampleSet(positions, losses)
    minimum = 0.1
    # strip [0, 0.2] holds far fewer than 50 samples, so the fallback window
    # is the 50 positions nearest the minimum; replicate it by explicit sort
    assert int(((positions >= 0) & (positions <= 2 * minimum)).sum()) < 50
    nearest = np.argsort(np.abs(positions - minimum), kind="stable")[:50]
    target = third_quartile(losses[nearest])

    fit = Polynomial([0.01, -0.2, 1.0])  # (s - 0.1)^2 + small offset
    from elfopt.poly import solve_for_value_nearest

    expected = solve_for_value_nearest(fit, target, minimum, (0.0, max(4 * minimum, 4.0)))
    width = chose_sample_interval(minimum, samples, fit, 50, 4.0)
    assert abs(width - expected) < 1e-9


def test_no_crossing_falls_back_to_twice_minimum():
    fit = Polynomial([0.0])  # |fit| == 0 never reaches the quartile
    positions = np.linspace(0.05, 2.0, 80)
    losses = np.full(80, 0.25)
    width = chose_sample_interval(1.0, SampleSet(positions, losses), fit, 50, 2.0)
    assert width == 2.0


def test_second_round_positions_stay_in_adapted_interval():
    # track the oracle's argument ranges per round via the rounds array
    config = LineSearchConfig(k=3, n=30, folds=5, min_window_size=10)
    result = elf_line_search(lambda s: (s - 1.0) ** 2, config, np.random.default_rng(9))
    for r in range(3):
        in_round = result.samples.positions[result.rounds == r]
        assert (in_round >= 0.0).all()
