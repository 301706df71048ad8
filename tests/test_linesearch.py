"""Adaptive-interval line search behavior on noiseless, noisy, and rigged
loss oracles."""

import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfopt.linesearch import (
    LineSearchConfig,
    chose_sample_interval,
    elf_line_search,
    third_quartile,
)
from elfopt.poly import Polynomial
from elfopt.problems import MlpBlobs
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


def _wrong_on_rounds(wrong):
    """A parabola oracle that measures the anchor right and returns
    wrong(losses) for each round."""
    def oracle(s):
        losses = (s - 1.0) ** 2
        return losses if s.size == 1 else wrong(losses)
    return oracle


def _mlp_one_batch_short():
    """MlpBlobs.batch_losses_along handed one batch fewer than each round's
    step sizes: it measures the batches it gets and raises nothing."""
    problem = MlpBlobs(n_train=300, n_val=100, batch_size=25, hidden1=8, hidden2=6,
                       rng=np.random.default_rng(3))
    theta0 = problem.initial_theta(np.random.default_rng(4))
    direction = np.full(problem.dim, problem.dim ** -0.5)

    def oracle(s):
        handed = max(1, s.size - 1)
        losses = problem.batch_losses_along(theta0, direction, s, problem.train_batches[:handed])
        assert losses.shape == (handed,)
        return losses
    return oracle


@pytest.mark.parametrize("make_oracle, n, shape", [
    (lambda: _wrong_on_rounds(lambda losses: losses[:-1]), 100, r"\(99,\)"),
    (lambda: _wrong_on_rounds(lambda losses: losses[:, None]), 100, r"\(100, 1\)"),
    (_mlp_one_batch_short, 5, r"\(4,\)"),
], ids=["one-loss-short", "column", "mlp-one-batch-short"])
def test_a_round_of_other_than_one_loss_per_step_size_raises(make_oracle, n, shape):
    with pytest.raises(ValueError, match=f"^the oracle returned shape {shape} for {n} step sizes$"):
        elf_line_search(make_oracle(), LineSearchConfig(n=n), np.random.default_rng(0))


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
        # one batch per sample, not one per round
        i = pick.integers(n_batches, size=s.size)
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
        calls["n"] += len(s)
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


_QUARTILE_VALUES = (
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan])
    | st.floats(-1e6, 1e6)
    | st.floats(allow_nan=True, allow_infinity=True)
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=st.lists(_QUARTILE_VALUES, min_size=1, max_size=500),
       ties=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_third_quartile_is_np_quantile_bit_for_bit(values, ties, seed):
    # Ties of 0.0 and -0.0 must land where np.quantile's partition puts
    # them, and an overflowing interpolation must give what it gives.
    rng = np.random.default_rng(seed)
    values = np.array(values)
    if ties:
        values = rng.choice(values[: ties + 1], size=values.size)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.quantile(values, 0.75)
    got = third_quartile(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == expected.tobytes()


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


# ---------------------------------------------------------------------------
# demo 03: its printed numbers, captured when the oracle still measured one
# step size per call
# ---------------------------------------------------------------------------

DEMO_03 = Path(__file__).resolve().parents[1] / "demos" / "03_single_line_search.py"
DEMO_03_OUTPUT = (
    "batches consumed: 501\n"
    "chosen fit degree: 3\n"
    "  round 0: 101 samples on [0, 0.997]\n"
    "  round 1: 100 samples on [0, 1.996]\n"
    "  round 2: 100 samples on [0, 3.619]\n"
    "  round 3: 100 samples on [0, 3.287]\n"
    "  round 4: 100 samples on [0, 3.139]\n"
    "fitted minimum: s = 1.8640, expected improvement = 1.7103\n"
    "brute-force minimizer: s = 1.8429 (1.15% away)\n"
)


def test_demo_03_output_is_pinned(capsys):
    runpy.run_path(str(DEMO_03), run_name="__main__")
    assert capsys.readouterr().out == DEMO_03_OUTPUT
