"""Problem-suite oracles: analytic gradients vs finite differences, closed
forms of the quadratic ensemble, cross-section diagnostics, batch streams."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfopt import problems, rng_streams, run
from elfopt.controller import ElfConfig
from elfopt.problems import (
    BatchStream,
    LogisticBlobs,
    MlpBlobs,
    NoisyQuadraticEnsemble,
    _sigmoid,
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


@pytest.mark.parametrize("index", range(3), ids=["quadratic", "logistic", "mlp"])
def test_every_problem_defines_the_seven_interface_names(index):
    problem = _all_problems()[index]
    for name in ("batch_loss", "batch_gradient", "batch_loss_and_gradient",
                 "batch_losses_along", "initial_theta"):
        assert callable(getattr(problem, name, None)), name
    assert len(problem.train_batches) > 0 and len(problem.validation_batches) > 0


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
    along = problem.batch_losses_along(theta0, d, s, batches)
    np.testing.assert_allclose(along, looped, rtol=1e-12, atol=0.0)


def _wide_mlp():
    """An MlpBlobs whose rounds run on more than one CPU when BLAS is pinned."""
    problem = MlpBlobs(n_train=400, n_val=100, hidden1=160, hidden2=170, n_classes=4,
                       rng=np.random.default_rng(6))
    assert 160 * 170 >= MlpBlobs.PARALLEL_WIDTH
    return problem


def _force_round_workers(monkeypatch, workers):
    monkeypatch.setattr(problems, "_round_workers", lambda width: workers)


@pytest.mark.parametrize("make_problem", [
    lambda: MlpBlobs(n_train=300, n_val=100, batch_size=25, hidden1=8, hidden2=6,
                     rng=np.random.default_rng(3)),
    lambda: MlpBlobs(n_train=400, n_val=100, hidden1=64, hidden2=48, n_classes=4,
                     rng=np.random.default_rng(5)),
    _wide_mlp,
], ids=["mlp", "mlp-wide", "mlp-above-threshold"])
def test_mlp_round_oracle_is_bit_identical_to_the_batch_loss_loop(make_problem, monkeypatch):
    problem = make_problem()
    threads = threading.active_count()
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
    # A full round of 37 loads splits unevenly into 2 or 3 chunks; a round
    # with fewer loads than workers runs one load per chunk.
    for workers in (1, 2, 3):
        _force_round_workers(monkeypatch, workers)
        for count in (s.size, 2, 1, 0):
            along = problem.batch_losses_along(theta0, d, s[:count], batches[:count])
            assert along.shape == (count,) and along.tobytes() == looped[:count].tobytes()
        assert threading.active_count() == threads


def test_rounds_on_more_workers_than_cpus_keep_every_loss(monkeypatch):
    # Eight workers switching every microsecond: a buffer shared between
    # workers, or a row written by the wrong one, would change a loss.
    problem = _wide_mlp()
    _force_round_workers(monkeypatch, 8)
    threads = threading.active_count()
    rng = np.random.default_rng(47)
    theta0 = problem.initial_theta(rng)
    d = rng.normal(size=problem.dim)
    d /= np.linalg.norm(d)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            s = rng.uniform(-2.0, 2.0, 29)
            batches = [problem.train_batches[i]
                       for i in rng.integers(len(problem.train_batches), size=s.size)]
            looped = np.array([problem.batch_loss(theta0 + step * d, batch)
                               for step, batch in zip(s.tolist(), batches)])
            along = problem.batch_losses_along(theta0, d, s, batches)
            assert along.tobytes() == looped.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def _round_with(problem, bad_load, bad_step=None, bad_batch=None):
    """Ten loads on one line; load bad_load takes bad_step or bad_batch. The
    direction is not normalized, so a step of 1e308 overflows theta."""
    rng = np.random.default_rng(43)
    theta0 = problem.initial_theta(rng)
    d = rng.normal(size=problem.dim)
    s = rng.uniform(-1e-2, 1e-2, 10)
    batches = [problem.train_batches[i] for i in rng.integers(len(problem.train_batches), size=10)]
    if bad_step is not None:
        s[bad_load] = bad_step
    if bad_batch is not None:
        batches[bad_load] = bad_batch
    return theta0, d, s, batches


# Two workers split ten loads into 0-4, which the caller runs, and 5-9.
@pytest.mark.parametrize("bad_load", [2, 7], ids=["caller", "worker"])
def test_a_parallel_round_keeps_the_callers_error_handling(bad_load, monkeypatch):
    problem = _wide_mlp()
    _force_round_workers(monkeypatch, 2)
    threads = threading.active_count()
    theta0, d, s, batches = _round_with(problem, bad_load, bad_step=1e308)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        problem.batch_losses_along(theta0, d, s, batches)
    assert threading.active_count() == threads
    # Ignored, the same overflow neither raises nor warns (pytest turns a
    # RuntimeWarning into an error), and the round equals the loop.
    with np.errstate(all="ignore"):
        along = problem.batch_losses_along(theta0, d, s, batches)
        looped = np.array([problem.batch_loss(theta0 + step * d, batch)
                           for step, batch in zip(s.tolist(), batches)])
    assert not np.isfinite(along[bad_load]) and along.tobytes() == looped.tobytes()
    assert threading.active_count() == threads


def test_a_parallel_round_calls_the_callers_error_callback(monkeypatch):
    # The worker's chunk (loads 5-9) overflows, and its overflow reaches the
    # handler the caller set, called on the worker's thread.
    problem = _wide_mlp()
    _force_round_workers(monkeypatch, 2)
    threads = threading.active_count()
    theta0, d, s, batches = _round_with(problem, 7, bad_step=1e308)
    calls = []

    def handler(kind, flag):
        calls.append(threading.get_ident())

    with np.errstate(all="call", call=handler):
        along = problem.batch_losses_along(theta0, d, s, batches)
    with np.errstate(all="ignore"):
        looped = np.array([problem.batch_loss(theta0 + step * d, batch)
                           for step, batch in zip(s.tolist(), batches)])
    assert along.tobytes() == looped.tobytes()
    assert calls and threading.get_ident() not in calls
    assert threading.active_count() == threads


def test_a_parallel_round_re_raises_a_workers_exception(monkeypatch):
    problem = _wide_mlp()
    _force_round_workers(monkeypatch, 2)
    threads = threading.active_count()
    raised_in = []

    class OracleError(Exception):
        pass

    def failing_trunk(params, x, *buffers):
        if x is bad_x:
            raised_in.append(threading.get_ident())
            raise OracleError
        return MlpBlobs._trunk(params, x, *buffers)

    bad_x, bad_y = problem.train_batches[0]
    bad_x = bad_x.copy()
    theta0, d, s, batches = _round_with(problem, 7, bad_batch=(bad_x, bad_y))
    monkeypatch.setattr(problem, "_trunk", failing_trunk)
    with pytest.raises(OracleError):
        problem.batch_losses_along(theta0, d, s, batches)
    assert raised_in and raised_in[0] != threading.get_ident()
    assert threading.active_count() == threads
    # When two chunks fail, the first one's error is raised: the one the
    # batch_loss loop meets first. Three workers split ten loads into 0-2,
    # 3-5 and 6-9.
    monkeypatch.undo()
    for workers, bad_loads in [(2, (2, 7)), (3, (4, 8)), (3, (1, 8))]:
        _force_round_workers(monkeypatch, workers)
        round_batches = list(batches)
        for load, features in zip(bad_loads, (3, 5)):
            round_batches[load] = (np.ones((50, features)), bad_y)
        with pytest.raises(ValueError) as looped:
            [problem.batch_loss(theta0 + step * d, batch) for step, batch in zip(s, round_batches)]
        with pytest.raises(ValueError) as along:
            problem.batch_losses_along(theta0, d, s, round_batches)
        assert str(along.value) == str(looped.value)
        assert threading.active_count() == threads


@pytest.mark.parametrize("environment, pinned", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "4"}, False),
])
def test_blas_counts_as_pinned_in_openblas_order(environment, pinned, monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    assert problems._blas_pinned() is pinned


@pytest.mark.parametrize("pinned, cpus, width, workers", [
    (True, 2, MlpBlobs.PARALLEL_WIDTH, 2),
    (True, 3, 256 * 256, 2),
    (True, 64, 256 * 256, 2),
    (True, 2, MlpBlobs.PARALLEL_WIDTH - 1, 1),
    (True, 1, 256 * 256, 1),
    (False, 2, 256 * 256, 1),
])
def test_a_round_runs_on_up_to_two_usable_cpus_only_when_pinned_and_wide(pinned, cpus, width,
                                                                         workers, monkeypatch):
    monkeypatch.setattr(problems, "_BLAS_PINNED", pinned)
    monkeypatch.setattr(problems, "_usable_cpus", lambda: cpus)
    assert problems._round_workers(width) == workers


def test_a_wide_mlp_run_is_bit_identical_on_one_or_two_round_workers(monkeypatch):
    logs = []
    for workers in (1, 2):
        _force_round_workers(monkeypatch, workers)
        streams = rng_streams(11)
        state, log = run(MlpBlobs(n_train=400, n_val=100, hidden1=160, hidden2=160,
                                  rng=streams.data), ElfConfig(), 400, streams)
        assert log.count("line_search") >= 200
        logs.append((state.theta.tobytes(), repr(log.rows)))
    assert logs[0] == logs[1]


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


def test_logistic_labels_are_the_drawn_classes_stored_as_floats():
    problem = LogisticBlobs(n_train=200, n_val=50, batch_size=25, rng=np.random.default_rng(3))
    classes = np.random.default_rng(3).integers(0, 2, size=250)
    labels = np.concatenate([y for _, y in problem.train_batches + problem.validation_batches])
    assert labels.dtype == np.float64 and labels.tolist() == classes.tolist()
    mlp = MlpBlobs(n_train=200, n_val=50, batch_size=25, rng=np.random.default_rng(3))
    assert all(y.dtype == np.int64 for _, y in mlp.train_batches)   # they index the logits

    # Float labels give the bits integer labels gave, in every oracle.
    rng = np.random.default_rng(44)
    for scale in (0.0, 1.0, 30.0, 1e300):
        theta = rng.normal(scale=scale, size=problem.dim)
        for x, y in problem.train_batches[:3]:
            as_ints = (x, y.astype(np.int64))
            loss, grad = problem.batch_loss_and_gradient(theta, (x, y))
            want_loss, want_grad = _logistic_loss_and_gradient(problem, theta, as_ints)
            assert loss.hex() == want_loss.hex() and grad.tobytes() == want_grad.tobytes()
            assert problem.batch_loss(theta, (x, y)).hex() == problem.batch_loss(theta, as_ints).hex()
            s = np.array([0.0, 0.5, -2.0])
            assert (problem.batch_losses_along(theta, theta, s, [(x, y)] * 3).tobytes()
                    == problem.batch_losses_along(theta, theta, s, [as_ints] * 3).tobytes())
            assert problem.batch_accuracy(theta, (x, y)) == problem.batch_accuracy(theta, as_ints)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_batches=st.integers(1, 12), dim=st.integers(1, 30),
       scale=st.sampled_from([0.0, 1e-150, 1e-3, 1.0, 1e3, 1e100]))
def test_quadratic_fused_oracle_is_bit_identical_to_its_two_oracles(seed, n_batches, dim, scale):
    rng = np.random.default_rng(seed)
    problem = NoisyQuadraticEnsemble(n_batches=n_batches, dim=dim, rng=rng)
    theta = rng.normal(scale=scale, size=dim)
    batch = int(rng.integers(n_batches))
    loss, grad = problem.batch_loss_and_gradient(theta, batch)
    d = theta - problem.centers[batch]
    want_loss = float(0.5 * d @ problem.matrices[batch] @ d + problem.offsets[batch])
    assert type(loss) is float and loss.hex() == want_loss.hex()
    assert problem.batch_loss(theta, batch).hex() == want_loss.hex()
    want_grad = problem.matrices[batch] @ d
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_features=st.integers(1, 9),
       batch_size=st.integers(1, 60), exponent=st.floats(-3.0, 3.0),
       special=st.sampled_from([None, np.nan, np.inf, -np.inf]), at=st.integers(0, 9))
def test_dot_oracles_are_bit_identical_to_the_matmul_formulas(seed, n_features, batch_size,
                                                              exponent, special, at):
    """The ndarray.dot and one-divide oracles against np.matmul, masked
    sigmoid references, at thetas of scale 1e-3 to 1e3, some with a nan or
    an infinite entry."""
    rng = np.random.default_rng(seed)
    logistic = LogisticBlobs(n_train=2 * batch_size, n_val=batch_size, n_features=n_features,
                             separation=1.0, cluster_std=1.0, batch_size=batch_size, rng=rng)
    quadratic = NoisyQuadraticEnsemble(n_batches=3, dim=n_features, rng=rng)
    for problem, batch in ((logistic, logistic.train_batches[1]), (quadratic, 2)):
        theta = rng.normal(scale=10.0**exponent, size=problem.dim)
        if special is not None:
            theta[at % problem.dim] = special
        with np.errstate(invalid="ignore", over="ignore"):
            loss, grad = problem.batch_loss_and_gradient(theta, batch)
            alone = problem.batch_loss(theta, batch)
            if problem is logistic:
                want_loss, want_grad = _logistic_loss_and_gradient(problem, theta, batch)
            else:
                d = theta - quadratic.centers[batch]
                a = quadratic.matrices[batch]
                want_loss, want_grad = float(0.5 * d @ a @ d + quadratic.offsets[batch]), a @ d
        assert loss.hex() == want_loss.hex() and alone.hex() == want_loss.hex()
        assert grad.tobytes() == want_grad.tobytes()


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
