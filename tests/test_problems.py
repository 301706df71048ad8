"""Problem-suite oracles: analytic gradients vs finite differences, closed
forms of the quadratic ensemble, cross-section diagnostics, batch streams."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfopt.problems import (
    BatchStream,
    LogisticBlobs,
    MlpBlobs,
    NoisyQuadraticEnsemble,
    _sigmoid,
    batch_losses_along,
    cross_section_profile,
    empirical_loss,
    loss_and_gradient,
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


@pytest.mark.parametrize("make_problem", [
    lambda: MlpBlobs(n_train=300, n_val=100, batch_size=25, hidden1=8, hidden2=6,
                     rng=np.random.default_rng(3)),
    lambda: MlpBlobs(n_train=400, n_val=100, hidden1=64, hidden2=48, n_classes=4,
                     rng=np.random.default_rng(5)),
], ids=["mlp", "mlp-wide"])
def test_mlp_round_oracle_is_bit_identical_to_the_batch_loss_loop(make_problem):
    problem = make_problem()
    assert hasattr(problem, "batch_losses_along")
    rng = np.random.default_rng(37)
    theta0 = problem.initial_theta(rng) + rng.normal(scale=0.3, size=problem.dim)
    d = rng.normal(size=problem.dim)
    d /= np.linalg.norm(d)
    # s = 0 twice, negative steps and steps whose losses near the float
    # range's top, the first four on one batch
    s = np.concatenate([[0.0, -0.7, 0.0, -1e-3, 1e200, -1e200, 1e300],
                        rng.uniform(-2.0, 3.0, 30)])
    picks = rng.integers(len(problem.train_batches), size=s.size)
    picks[:4] = picks[0]
    batches = [problem.train_batches[i] for i in picks]
    looped = np.array([problem.batch_loss(theta0 + step * d, batch)
                       for step, batch in zip(s.tolist(), batches)])
    assert np.all(np.isfinite(looped)) and looped[4:7].min() > 1e190
    for count in (s.size, 1, 0):   # a full round, a one-load round, an empty round
        along = problem.batch_losses_along(theta0, d, s[:count], batches[:count])
        assert along.shape == (count,) and along.tobytes() == looped[:count].tobytes()


# ---------------------------------------------------------------------------
# fused loss and gradient
# ---------------------------------------------------------------------------

def _masked_sigmoid(z):
    """The sigmoid as a boolean-mask scatter of its two stable branches."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_loss_and_gradient(problem, theta, batch):
    """LogisticBlobs' loss and gradient written as two separate passes."""
    x, y = batch
    z = x @ theta[:-1] + theta[-1]
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    residual = _masked_sigmoid(z) - y
    grad = np.empty(problem.dim)
    grad[:-1] = x.T @ residual / x.shape[0]
    grad[-1] = residual.mean()
    return loss, grad


def _mlp_loss_and_gradient(problem, theta, batch):
    """MlpBlobs' loss and gradient written as two separate passes, the
    gradient's layers concatenated at the end."""
    x, y = batch
    w1, b1, w2, b2, w3, b3 = problem._unpack(theta)

    def forward():
        h1 = np.tanh(x @ w1 + b1)
        h2 = np.tanh(h1 @ w2 + b2)
        logits = h2 @ w3 + b3
        logits = logits - logits.max(axis=1, keepdims=True)
        return h1, h2, logits, np.log(np.exp(logits).sum(axis=1, keepdims=True))

    _, _, logits, log_norm = forward()
    loss = float(np.mean(log_norm[:, 0] - logits[np.arange(x.shape[0]), y]))
    h1, h2, logits, log_norm = forward()
    m = x.shape[0]
    probs = np.exp(logits - log_norm)
    probs[np.arange(m), y] -= 1.0
    probs /= m
    dw3 = h2.T @ probs
    db3 = probs.sum(axis=0)
    dh2 = (probs @ w3.T) * (1.0 - h2**2)
    dw2 = h1.T @ dh2
    db2 = dh2.sum(axis=0)
    dh1 = (dh2 @ w2.T) * (1.0 - h1**2)
    dw1 = x.T @ dh1
    db1 = dh1.sum(axis=0)
    return loss, np.concatenate([g.ravel() for g in (dw1, db1, dw2, db2, dw3, db3)])


@pytest.mark.parametrize("make_problem, two_passes", [
    (lambda: LogisticBlobs(n_train=300, n_val=100, batch_size=25,
                           rng=np.random.default_rng(2)), _logistic_loss_and_gradient),
    (lambda: LogisticBlobs(n_train=300, n_val=100, n_features=7, separation=1.0,
                           cluster_std=1.0, rng=np.random.default_rng(4)),
     _logistic_loss_and_gradient),
    (lambda: MlpBlobs(n_train=300, n_val=100, batch_size=25, hidden1=8, hidden2=6,
                      rng=np.random.default_rng(3)), _mlp_loss_and_gradient),
    (lambda: MlpBlobs(n_train=400, n_val=100, hidden1=64, hidden2=48, n_classes=4,
                      rng=np.random.default_rng(5)), _mlp_loss_and_gradient),
], ids=["logistic", "logistic-hard", "mlp", "mlp-wide"])
def test_fused_loss_and_gradient_is_bit_identical_to_two_passes(make_problem, two_passes):
    problem = make_problem()
    rng = np.random.default_rng(41)
    for scale in (0.0, 0.3, 3.0, 30.0):
        for _ in range(5):
            theta = problem.initial_theta(rng) + rng.normal(scale=scale, size=problem.dim)
            batch = problem.train_batches[int(rng.integers(len(problem.train_batches)))]
            loss, grad = problem.batch_loss_and_gradient(theta, batch)
            want_loss, want_grad = two_passes(problem, theta, batch)
            assert type(loss) is float and loss.hex() == want_loss.hex()
            assert grad.shape == (problem.dim,) and grad.tobytes() == want_grad.tobytes()
            assert problem.batch_loss(theta, batch).hex() == loss.hex()
            assert problem.batch_gradient(theta, batch).tobytes() == grad.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_batches=st.integers(1, 12), dim=st.integers(1, 30),
       scale=st.sampled_from([0.0, 1e-150, 1e-3, 1.0, 1e3, 1e100]))
def test_quadratic_fused_oracle_is_bit_identical_to_its_two_oracles(seed, n_batches, dim, scale):
    rng = np.random.default_rng(seed)
    problem = NoisyQuadraticEnsemble(n_batches=n_batches, dim=dim, rng=rng)
    theta = rng.normal(scale=scale, size=dim)
    batch = int(rng.integers(n_batches))
    loss, grad = problem.batch_loss_and_gradient(theta, batch)
    assert type(loss) is float and loss.hex() == problem.batch_loss(theta, batch).hex()
    want_grad = problem.matrices[batch] @ (theta - problem.centers[batch])
    assert grad.tobytes() == want_grad.tobytes()
    assert problem.batch_gradient(theta, batch).tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("n_batches, dim, seed", [(1, 1, 0), (3, 2, 1), (12, 6, 2), (100, 20, 3),
                                                  (400, 20, 4), (3, 300, 5)])
def test_quadratic_matrices_equal_the_batch_by_batch_construction(n_batches, dim, seed):
    problem = NoisyQuadraticEnsemble(n_batches=n_batches, dim=dim, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for matrix in problem.matrices:
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eigs = rng.uniform(*NoisyQuadraticEnsemble.EIG_RANGE, size=dim)
        assert matrix.tobytes() == (q @ np.diag(eigs) @ q.T).tobytes()
    assert problem.centers.tobytes() == rng.normal(scale=0.15, size=(n_batches, dim)).tobytes()
    assert problem.offsets.tobytes() == rng.uniform(0.0, 0.1, size=n_batches).tobytes()


def test_sigmoid_matches_the_masked_formula_at_the_edges():
    rng = np.random.default_rng(43)
    z = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e308, -1e308,
         36.0, -36.0, 710.0, -710.0, 5e-324, -5e-324],
        rng.normal(scale=20.0, size=200),
    ])
    got = _sigmoid(z)
    want = _masked_sigmoid(z)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[4]) and got[2] == 1.0 and got[3] == 0.0


def test_loss_and_gradient_falls_back_to_the_two_oracles():
    quadratic = NoisyQuadraticEnsemble(n_batches=12, dim=6, rng=np.random.default_rng(1))
    problem = SimpleNamespace(batch_loss=quadratic.batch_loss,
                              batch_gradient=quadratic.batch_gradient)
    theta = np.random.default_rng(7).normal(size=6)
    loss, grad = loss_and_gradient(problem, theta, 3)
    assert type(loss) is float and loss == problem.batch_loss(theta, 3)
    assert grad.tobytes() == problem.batch_gradient(theta, 3).tobytes()


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
