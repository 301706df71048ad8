"""Problem-suite oracles: analytic gradients vs finite differences, closed
forms of the quadratic ensemble, cross-section diagnostics, batch streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfopt.problems import (
    BatchStream,
    LogisticBlobs,
    MlpBlobs,
    NoisyQuadraticEnsemble,
    batch_losses_along,
    cross_section_profile,
    empirical_loss,
)


def _all_problems():
    rng = np.random.default_rng(0)
    return [
        NoisyQuadraticEnsemble(n_batches=12, dim=6, rng=np.random.default_rng(1)),
        LogisticBlobs(n_train=300, n_val=100, batch_size=25, rng=np.random.default_rng(2)),
        MlpBlobs(n_train=300, n_val=100, batch_size=25, hidden1=8, hidden2=6,
                 rng=np.random.default_rng(3)),
    ]


def test_gradients_match_central_differences():
    h = 1e-5
    for problem in _all_problems():
        rng = np.random.default_rng(17)
        for _ in range(20):
            theta = problem.initial_theta(rng) + rng.normal(scale=0.3, size=problem.dim)
            batch = problem.train_batches[int(rng.integers(len(problem.train_batches)))]
            grad = problem.batch_gradient(theta, batch)
            fd = np.empty_like(grad)
            for i in range(theta.size):
                e = np.zeros_like(theta)
                e[i] = h
                fd[i] = (problem.batch_loss(theta + e, batch)
                         - problem.batch_loss(theta - e, batch)) / (2.0 * h)
            scale = np.maximum(np.abs(fd), 1.0)
            np.testing.assert_array_less(np.abs(grad - fd) / scale, 1e-4)


def test_directional_derivative_consistency():
    h = 1e-6
    for problem in _all_problems():
        rng = np.random.default_rng(23)
        theta = problem.initial_theta(rng)
        batch = problem.train_batches[0]
        d = rng.normal(size=problem.dim)
        d /= np.linalg.norm(d)
        fd = (problem.batch_loss(theta + h * d, batch)
              - problem.batch_loss(theta - h * d, batch)) / (2.0 * h)
        assert abs(float(problem.batch_gradient(theta, batch) @ d) - fd) < 1e-5


@pytest.mark.parametrize("index", range(3), ids=["quadratic", "logistic", "mlp"])
def test_batch_losses_along_matches_the_batch_loss_loop(index):
    problem = _all_problems()[index]
    rng = np.random.default_rng(31)
    theta0 = problem.initial_theta(rng) + rng.normal(scale=0.3, size=problem.dim)
    d = rng.normal(size=problem.dim)
    d /= np.linalg.norm(d)
    # s = 0 twice, negative steps, and the first four samples on one batch
    s = np.concatenate([[0.0, -0.7, -1e-3, 0.0], rng.uniform(-2.0, 3.0, 40)])
    picks = rng.integers(len(problem.train_batches), size=s.size)
    picks[:4] = picks[0]
    batches = [problem.train_batches[i] for i in picks]
    looped = [problem.batch_loss(theta0 + step * d, batch) for step, batch in zip(s, batches)]
    along = batch_losses_along(problem, theta0, d, s, batches)
    np.testing.assert_allclose(along, looped, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError):
        batch_losses_along(problem, theta0, d, s, batches[:-1])


# ---------------------------------------------------------------------------
# quadratic ensemble closed forms
# ---------------------------------------------------------------------------

def test_identical_batches_give_the_batch_loss():
    problem = NoisyQuadraticEnsemble(n_batches=2, dim=4, rng=np.random.default_rng(0),
                                     center_spread=0.0, offset_range=(0.05, 0.05))
    # same generation parameters but different draws; force equality manually
    problem.matrices[1] = problem.matrices[0]
    problem.centers[1] = problem.centers[0]
    problem.offsets[1] = problem.offsets[0]
    theta = np.ones(4)
    assert empirical_loss(problem, theta) == problem.batch_loss(theta, 0)


def test_empirical_loss_matches_closed_form():
    problem = NoisyQuadraticEnsemble(n_batches=30, dim=8, rng=np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for _ in range(5):
        theta = rng.normal(size=8)
        assert abs(empirical_loss(problem, theta) - problem.closed_form_empirical(theta)) < 1e-9


def test_closed_form_minimizer_is_minimal():
    problem = NoisyQuadraticEnsemble(n_batches=30, dim=8, rng=np.random.default_rng(5))
    star = problem.closed_form_minimizer()
    base = empirical_loss(problem, star)
    rng = np.random.default_rng(7)
    for _ in range(100):
        assert base <= empirical_loss(problem, star + rng.normal(scale=0.1, size=8))


# ---------------------------------------------------------------------------
# cross sections
# ---------------------------------------------------------------------------

def test_cross_section_mean_matches_closed_form_line():
    problem = NoisyQuadraticEnsemble(n_batches=20, dim=6, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    theta0 = problem.initial_theta(rng)
    d = rng.normal(size=6)
    d /= np.linalg.norm(d)
    s_grid = np.linspace(-0.3, 0.7, 50)
    profile = cross_section_profile(problem, theta0, d, s_grid)
    closed = np.array([problem.closed_form_empirical(theta0 + s * d) for s in s_grid])
    np.testing.assert_allclose(profile.mean, closed, atol=1e-9)
    assert profile.per_batch.shape == (len(problem.train_batches), 50)


def test_single_batch_quartiles_collapse_onto_mean():
    problem = NoisyQuadraticEnsemble(n_batches=1, dim=4, rng=np.random.default_rng(10))
    theta0 = np.zeros(4)
    d = np.array([1.0, 0.0, 0.0, 0.0])
    profile = cross_section_profile(problem, theta0, d, np.linspace(0.0, 1.0, 11))
    np.testing.assert_array_equal(profile.q1, profile.mean)
    np.testing.assert_array_equal(profile.q2, profile.mean)
    np.testing.assert_array_equal(profile.q3, profile.mean)


def test_cross_section_at_zero_equals_empirical_loss():
    problem = NoisyQuadraticEnsemble(n_batches=15, dim=5, rng=np.random.default_rng(11))
    theta0 = problem.initial_theta(np.random.default_rng(12))
    d = np.zeros(5)
    d[0] = 1.0
    profile = cross_section_profile(problem, theta0, d, np.array([-0.1, 0.0, 0.1]))
    assert abs(profile.mean[1] - empirical_loss(problem, theta0)) < 1e-12


# ---------------------------------------------------------------------------
# batch streams and dataset determinism
# ---------------------------------------------------------------------------

def test_batch_stream_covers_each_epoch():
    stream = BatchStream(list(range(7)), np.random.default_rng(0))
    first_epoch = sorted(stream.next_batch() for _ in range(7))
    second_epoch = sorted(stream.next_batch() for _ in range(7))
    assert first_epoch == second_epoch == list(range(7))


def test_batch_stream_deterministic():
    a = BatchStream(list(range(10)), np.random.default_rng(42))
    b = BatchStream(list(range(10)), np.random.default_rng(42))
    assert [a.next_batch() for _ in range(25)] == [b.next_batch() for _ in range(25)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(size=st.integers(1, 30),
       counts=st.lists(st.integers(1, 200), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_next_batches_equals_repeated_next_batch(size, counts, seed):
    batches = [f"batch {i}" for i in range(size)]
    chunked = BatchStream(batches, np.random.default_rng(seed))
    single = BatchStream(batches, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    epochs = []
    while len(epochs) < sum(counts):
        epochs.extend(batches[i] for i in rng.permutation(size))
    drawn = []
    for count in counts:
        got = chunked.next_batches(count)
        assert len(got) == count
        assert got == [single.next_batch() for _ in range(count)]
        drawn.extend(got)
    # One fresh permutation per epoch, consumed in order.
    assert drawn == epochs[:len(drawn)]


def test_dataset_generation_is_seed_determined():
    p1 = LogisticBlobs(n_train=200, n_val=50, batch_size=25, rng=np.random.default_rng(3))
    p2 = LogisticBlobs(n_train=200, n_val=50, batch_size=25, rng=np.random.default_rng(3))
    for (xa, ya), (xb, yb) in zip(p1.train_batches, p2.train_batches):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)
    assert len(p1.validation_batches) == 2


def test_mlp_accuracy_improves_with_gradient_steps():
    problem = MlpBlobs(n_train=300, n_val=100, batch_size=50, hidden1=8, hidden2=6,
                       rng=np.random.default_rng(0))
    theta = problem.initial_theta(np.random.default_rng(1))
    before = problem.training_accuracy(theta)
    for _ in range(300):
        for batch in problem.train_batches:
            theta = theta - 0.5 * problem.batch_gradient(theta, batch)
    assert problem.training_accuracy(theta) > max(before, 0.9)
