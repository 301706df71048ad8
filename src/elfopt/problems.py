"""Desk-scale stochastic problems with analytic batch gradients.

Every problem defines the same seven names, and callers call them as its
own methods:

- train_batches and validation_batches: finite batch collections;
- initial_theta(rng): a seeded initial parameter vector;
- batch_loss(theta, batch): a pure loss, for empirical_loss and the grid
  search's baseline losses;
- batch_gradient(theta, batch): its gradient, for line-search and dump
  directions;
- batch_loss_and_gradient(theta, batch): both from one forward pass, for
  every SGD step, grid-search probe and baseline step;
- batch_losses_along(theta0, direction, s, batches): given float arrays,
  the loss of batches[i] at theta0 + s[i] * direction for every i in one
  call, for line-search rounds and cross_section_profile.

Datasets are generated, never downloaded, so everything runs offline and
the empirical-loss geometry stays checkable against closed forms or brute
force. Each problem derives batch_gradient from batch_loss_and_gradient,
and the quadratic and logistic ones batch_loss too, so each loss has one
formula; MlpBlobs keeps a forward-only batch_loss, as its backprop costs
several forward passes. NoisyQuadraticEnsemble's loss and gradient share
only theta - center, which it computes once.

The quadratic and logistic batch_losses_along stack every load; MlpBlobs
runs its hidden layers per load and stacks only the softmax head, as
weights stacked per load in 3-D measured slower than the loop on wide
layers. A wide MlpBlobs may split a round's loads into contiguous chunks
(the rule is in the README): the caller runs the first chunk and a
ThreadPoolExecutor the others, each chunk with a parameter buffer and
activations of its own, writing its own rows of the round's logits. Each
load's arithmetic is the same in any thread, so every loss keeps its bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class BatchStream:
    """Cyclic stream over a finite batch collection, reshuffled each epoch."""

    def __init__(self, batches, rng: np.random.Generator):
        if len(batches) == 0:
            raise ValueError("batch collection is empty")
        # An object array, whatever a batch is, so that one fancy index by a
        # permutation reorders them all.
        self._batches = np.fromiter(batches, dtype=object, count=len(batches))
        self._rng = rng
        self._order = self._shuffled()
        self._cursor = 0

    def _shuffled(self) -> list:
        """The batches in a fresh permutation's order: one epoch."""
        return self._batches[self._rng.permutation(self._batches.size)].tolist()

    def next_batch(self):
        return self.next_batches(1)[0]

    def next_batches(self, count: int) -> list:
        """The next count batches: what count next_batch() calls return, in
        the same order and with the same epoch reshuffles. A draw that fits
        in the current epoch is one slice of it."""
        picked = self._order[self._cursor:self._cursor + count]
        self._cursor += len(picked)
        while len(picked) < count:
            self._order = self._shuffled()
            self._cursor = min(count - len(picked), len(self._order))
            picked += self._order[:self._cursor]
        return picked


def empirical_loss(problem, theta: np.ndarray) -> float:
    """Mean batch loss over every training batch."""
    return float(
        np.mean([problem.batch_loss(theta, b) for b in problem.train_batches])
    )


@dataclass(frozen=True)
class CrossSectionProfile:
    """Dense per-batch loss curves along one line, plus their mean and
    quartiles across batches at each step size."""

    s_grid: np.ndarray
    per_batch: np.ndarray      # shape (n_batches, len(s_grid))
    mean: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray


def cross_section_profile(problem, theta0, direction, s_grid) -> CrossSectionProfile:
    """Evaluate every training batch's loss at every step size on the line
    theta0 + s * direction."""
    s_grid = np.asarray(s_grid, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    per_batch = np.array([
        problem.batch_losses_along(theta0, direction, s_grid, [batch] * s_grid.size)
        for batch in problem.train_batches
    ])
    return CrossSectionProfile(
        s_grid=s_grid,
        per_batch=per_batch,
        mean=per_batch.mean(axis=0),
        q1=np.quantile(per_batch, 0.25, axis=0),
        q2=np.quantile(per_batch, 0.50, axis=0),
        q3=np.quantile(per_batch, 0.75, axis=0),
    )


class NoisyQuadraticEnsemble:
    """Per-batch quadratics 0.5*(theta-b)' A (theta-b) + c with SPD A.

    The empirical loss is the exact average quadratic, so its minimizer and
    any line restriction have closed forms.
    """

    EIG_RANGE = (0.5, 1.5)        # spectrum of every batch matrix
    VALIDATION_FRACTION = 0.2     # share of the batches held out for validation
    BLOCK_ENTRIES = 1 << 14       # matrix entries per block of the construction

    def __init__(
        self,
        n_batches: int = 100,
        dim: int = 20,
        center_spread: float = 0.15,
        offset_range: tuple[float, float] = (0.0, 0.1),
        *,
        rng: np.random.Generator,
    ):
        _check_sizes(n_batches=n_batches, dim=dim)
        self.dim = dim
        # Each batch draws its normal(dim, dim), then its uniform(dim). Each
        # Q diag(eigs) Q' then overwrites its normal draw, one stacked QR and
        # matmul per block of batches, as q * eigs equals q @ np.diag(eigs)
        # bit for bit; blocking keeps the QR's temporaries to a block's size.
        self.matrices = np.empty((n_batches, dim, dim))
        eigs = np.empty((n_batches, dim))
        for i in range(n_batches):
            self.matrices[i] = rng.normal(size=(dim, dim))
            eigs[i] = rng.uniform(*self.EIG_RANGE, size=dim)
        block = max(1, self.BLOCK_ENTRIES // dim**2)
        for lo in range(0, n_batches, block):
            rows = slice(lo, lo + block)
            q = np.linalg.qr(self.matrices[rows])[0]
            np.matmul(q * eigs[rows, None, :], q.transpose(0, 2, 1), out=self.matrices[rows])
        self.centers = rng.normal(scale=center_spread, size=(n_batches, dim))
        self.offsets = rng.uniform(*offset_range, size=n_batches)

        n_val = max(1, int(round(self.VALIDATION_FRACTION * n_batches))) if n_batches > 1 else 1
        indices = list(range(n_batches))
        self.train_batches = indices[: n_batches - n_val] if n_batches > 1 else indices
        self.validation_batches = indices[n_batches - n_val:] if n_batches > 1 else indices

    def batch_loss(self, theta, batch: int) -> float:
        return self.batch_loss_and_gradient(theta, batch)[0]

    def batch_gradient(self, theta, batch: int) -> np.ndarray:
        return self.batch_loss_and_gradient(theta, batch)[1]

    def batch_loss_and_gradient(self, theta, batch: int) -> tuple[float, np.ndarray]:
        # One theta - center for both. (0.5 d).dot(A).dot(d) sums as
        # 0.5 * d @ A @ d does, at less cost per call. At dim 1 ndarray.dot
        # multiplies directly and may keep a -0.0 that np.matmul's sum from
        # +0.0 does not; adding the offset, never -0.0, clears it, but the
        # gradient A @ d keeps np.matmul.
        d = np.asarray(theta, dtype=float) - self.centers[batch]
        a = self.matrices[batch]
        return float((0.5 * d).dot(a).dot(d) + self.offsets[batch]), a @ d

    def batch_losses_along(self, theta0, direction, s, batches) -> np.ndarray:
        # Stacked matmuls in batch_loss's order, (0.5 d'A) d, so each loss
        # is summed as batch_loss sums it.
        ids = np.asarray(batches, dtype=int)
        d = theta0 + s[:, None] * direction - self.centers[ids]
        half_da = np.matmul(0.5 * d[:, None, :], self.matrices[ids])
        return np.matmul(half_da, d[:, :, None])[:, 0, 0] + self.offsets[ids]

    def initial_theta(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(scale=0.5, size=self.dim)

    # Closed-form geometry of the averaged training quadratic, used as the
    # independent oracle in tests and demos.
    def mean_quadratic(self) -> tuple[np.ndarray, np.ndarray, float]:
        idx = self.train_batches
        a_bar = self.matrices[idx].mean(axis=0)
        ab_bar = np.mean(
            [self.matrices[i] @ self.centers[i] for i in idx], axis=0
        )
        const = float(
            np.mean(
                [
                    0.5 * self.centers[i] @ self.matrices[i] @ self.centers[i]
                    + self.offsets[i]
                    for i in idx
                ]
            )
        )
        return a_bar, ab_bar, const

    def closed_form_minimizer(self) -> np.ndarray:
        a_bar, ab_bar, _ = self.mean_quadratic()
        return np.linalg.solve(a_bar, ab_bar)

    def closed_form_empirical(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        a_bar, ab_bar, const = self.mean_quadratic()
        return float(0.5 * theta @ a_bar @ theta - theta @ ab_bar + const)


def _check_sizes(**sizes):
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be >= 1")


def _check_blob_spread(separation, cluster_std):
    if not np.isfinite(separation):
        raise ValueError("separation must be finite")
    if not 0.0 <= cluster_std < np.inf:
        raise ValueError("cluster_std must lie in [0, inf)")


def _blas_pinned() -> bool:
    """Whether the environment pins OpenBLAS to one thread. OpenBLAS reads
    OPENBLAS_NUM_THREADS, then GOTO_NUM_THREADS, then OMP_NUM_THREADS, and
    skips a variable that is unset or not a positive count; with none set it
    starts a thread per CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return count == 1
    return False


# A guess from the environment at elfopt's import, which the loaded BLAS may
# not obey; it only picks the faster path for a round, so no loss changes.
_BLAS_PINNED = _blas_pinned()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _round_workers(width: int) -> int:
    """How many threads a round of MlpBlobs loads runs on, for a network
    whose hidden1 * hidden2 is width. One unless BLAS is pinned: an unpinned
    BLAS already threads each product, and more threads on top of it
    measured slower."""
    if not _BLAS_PINNED or width < MlpBlobs.PARALLEL_WIDTH:
        return 1
    return min(_usable_cpus(), MlpBlobs.ROUND_WORKERS)


def _in_threads(work, chunks) -> None:
    """Call work(lo, hi) for every (lo, hi) in chunks: the first in the
    caller, each other on a ThreadPoolExecutor under the caller's
    floating-point error handling; one chunk starts no thread. Returns, or
    raises the exception of the first chunk that raised, only after every
    thread has joined."""
    handling = dict(np.geterr(), call=np.geterrcall())

    def run(lo, hi):
        with np.errstate(**handling):
            work(lo, hi)

    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(run, *chunk) for chunk in chunks[1:]]
        work(*chunks[0])
    for future in futures:
        future.result()


def _sigmoid(z):
    # e = exp(-|z|) <= 1 cannot overflow, and each branch is the stable form
    # for its sign, 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere: one
    # numerator picked per element over one shared 1 + e, so a single
    # unmasked divide does both. min(z, -z) is -|z| that keeps a nan's sign
    # bit.
    e = np.minimum(z, -z)
    np.exp(e, out=e)
    numerator = np.where(z >= 0.0, 1.0, e)
    e += 1.0
    return np.divide(numerator, e, out=numerator)


def _split_batches(x, y, batch_size):
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_full = x.shape[0] // batch_size
    if n_full == 0:
        raise ValueError(f"{x.shape[0]} samples cannot fill one batch of {batch_size}")
    return [
        (x[i * batch_size:(i + 1) * batch_size], y[i * batch_size:(i + 1) * batch_size])
        for i in range(n_full)
    ]


class _Blobs:
    """Seeded Gaussian blobs around the class centers, labels drawn before
    noise and stored in the batches as LABEL_DTYPE; subclasses define
    batch_loss_and_gradient and batch_accuracy."""

    LABEL_DTYPE = np.int64

    def __init__(self, n_train, n_val, centers, cluster_std, batch_size, rng):
        if n_train < 0 or n_val < 0:
            raise ValueError("n_train and n_val must be >= 0")
        n = n_train + n_val
        classes = rng.integers(0, centers.shape[0], size=n)
        x = centers[classes] + rng.normal(scale=cluster_std, size=(n, centers.shape[1]))
        labels = classes.astype(self.LABEL_DTYPE, copy=False)
        self.train_batches = _split_batches(x[:n_train], labels[:n_train], batch_size)
        self.validation_batches = _split_batches(x[n_train:], labels[n_train:], batch_size)

    def batch_loss(self, theta, batch) -> float:
        return self.batch_loss_and_gradient(theta, batch)[0]

    def batch_gradient(self, theta, batch) -> np.ndarray:
        return self.batch_loss_and_gradient(theta, batch)[1]

    def training_accuracy(self, theta) -> float:
        return float(np.mean([self.batch_accuracy(theta, b) for b in self.train_batches]))


class LogisticBlobs(_Blobs):
    """Binary logistic regression on two seeded Gaussian clusters.

    theta packs [weights..., bias]; the loss is the mean cross entropy of the
    batch under a sigmoid model. The 0/1 labels are stored as floats, the
    dtype the loss and gradient multiply and subtract them in, so no call
    casts them.
    """

    LABEL_DTYPE = np.float64

    def __init__(
        self,
        n_train: int = 2000,
        n_val: int = 500,
        n_features: int = 2,
        separation: float = 5.0,
        cluster_std: float = 0.7,
        batch_size: int = 50,
        *,
        rng: np.random.Generator,
    ):
        _check_sizes(n_features=n_features)
        _check_blob_spread(separation, cluster_std)
        self.dim = n_features + 1
        offset = 0.5 * separation / np.sqrt(n_features)
        centers = np.vstack([np.full(n_features, -offset), np.full(n_features, offset)])
        super().__init__(n_train, n_val, centers, cluster_std, batch_size, rng)

    def _logits(self, theta, x):
        # x.dot(w) is x @ w at less cost per call; for a 1 x 1 x it may give
        # -0.0 where x @ w gives 0.0, which no loss, gradient or accuracy
        # tells apart.
        theta = np.asarray(theta, dtype=float)
        z = x.dot(theta[:-1])
        z += theta[-1]
        return z

    def batch_losses_along(self, theta0, direction, s, batches) -> np.ndarray:
        # Per-sample parameters cost only len(s) x dim floats and keep
        # batch_loss's order of operations; the split x@w0 + s*(x@u) would
        # round differently.
        x = np.stack([batch[0] for batch in batches])
        y = np.stack([batch[1] for batch in batches])
        theta = theta0 + s[:, None] * direction
        z = np.matmul(x, theta[:, :-1, None])[:, :, 0] + theta[:, -1:]
        return np.mean(np.logaddexp(0.0, z) - y * z, axis=1)

    def batch_loss_and_gradient(self, theta, batch) -> tuple[float, np.ndarray]:
        # One set of logits for both. The loss is the mean of log(1 + e^z) -
        # y*z, computed stably; np.add.reduce(a) / a.size is np.mean's own
        # arithmetic on a 1-D array, without its call overhead.
        x, y = batch
        z = self._logits(theta, x)
        per_sample = np.logaddexp(0.0, z)
        per_sample -= y * z
        residual = _sigmoid(z)
        residual -= y
        grad = np.empty(self.dim)
        np.divide(x.T @ residual, x.shape[0], out=grad[:-1])
        grad[-1] = np.add.reduce(residual) / residual.size
        return float(np.add.reduce(per_sample)) / per_sample.size, grad

    def initial_theta(self, rng: np.random.Generator) -> np.ndarray:
        return 0.01 * rng.normal(size=self.dim)

    def batch_accuracy(self, theta, batch) -> float:
        x, y = batch
        return float(np.mean((self._logits(theta, x) > 0.0) == (y == 1)))


class MlpBlobs(_Blobs):
    """Two-hidden-layer tanh network with softmax cross entropy on seeded
    Gaussian blobs; gradients come from analytic backprop."""

    # Narrower loads are bound by numpy's per-call overhead, which holds the
    # GIL, and threads measured no faster than one core (CHANGES.md).
    PARALLEL_WIDTH = 160 * 160
    # Rounds were measured on 2 CPUs; how they scale past them is unmeasured.
    ROUND_WORKERS = 2

    def __init__(
        self,
        n_train: int = 2000,
        n_val: int = 500,
        n_features: int = 2,
        n_classes: int = 3,
        hidden1: int = 16,
        hidden2: int = 16,
        separation: float = 4.0,
        cluster_std: float = 0.7,
        batch_size: int = 50,
        *,
        rng: np.random.Generator,
    ):
        _check_sizes(n_features=n_features, n_classes=n_classes, hidden1=hidden1, hidden2=hidden2)
        _check_blob_spread(separation, cluster_std)
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers = np.zeros((n_classes, n_features))
        centers[:, 0] = 0.5 * separation * np.cos(angles)
        centers[:, 1 % n_features] = 0.5 * separation * np.sin(angles)
        super().__init__(n_train, n_val, centers, cluster_std, batch_size, rng)

        self.n_classes = n_classes
        self._width = hidden1 * hidden2
        # (offset, size, shape) of each weight and bias inside theta.
        self._layout = []
        self.dim = 0
        for shape in [(n_features, hidden1), (hidden1,),
                      (hidden1, hidden2), (hidden2,),
                      (hidden2, n_classes), (n_classes,)]:
            size = int(np.prod(shape))
            self._layout.append((self.dim, size, shape))
            self.dim += size

    def _unpack(self, theta):
        theta = np.asarray(theta, dtype=float)
        return [theta[offset:offset + size].reshape(shape)
                for offset, size, shape in self._layout]

    def initial_theta(self, rng: np.random.Generator) -> np.ndarray:
        chunks = []
        for _, _, shape in self._layout:
            if len(shape) == 2:
                chunks.append(rng.normal(scale=1.0 / np.sqrt(shape[0]), size=shape).ravel())
            else:
                chunks.append(np.zeros(shape))
        return np.concatenate(chunks)

    @staticmethod
    def _trunk(params, x, h1=None, h2=None, logits=None):
        """Both tanh layers' activations and the logits of the samples x under
        params, the unpacked theta; each is written into the array passed
        for it, or into a new one."""
        w1, b1, w2, b2, w3, b3 = params
        h1 = np.matmul(x, w1, out=h1)
        np.tanh(np.add(h1, b1, out=h1), out=h1)
        h2 = np.matmul(h1, w2, out=h2)
        np.tanh(np.add(h2, b2, out=h2), out=h2)
        logits = np.matmul(h2, w3, out=logits)
        np.add(logits, b3, out=logits)
        return h1, h2, logits

    @staticmethod
    def _cross_entropy(logits, y):
        """The mean softmax cross entropy of labels y over the samples axis,
        the last but one, and the log normalizer. Shifts logits in place by
        their max over classes, the last axis."""
        logits -= logits.max(axis=-1, keepdims=True)
        log_norm = np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        # Indexing the flattened samples costs less than np.take_along_axis.
        picked = logits.reshape(-1, logits.shape[-1])[np.arange(y.size), y.ravel()]
        return np.mean(log_norm[..., 0] - picked.reshape(y.shape), axis=-1), log_norm

    def batch_loss(self, theta, batch) -> float:
        # Forward only: at 256 x 256 the fused oracle's backprop costs
        # ~1,445 us a load against ~295 us for this.
        x, y = batch
        _, _, logits = self._trunk(self._unpack(theta), x)
        return float(self._cross_entropy(logits, y)[0])

    def batch_losses_along(self, theta0, direction, s, batches) -> np.ndarray:
        # The trunk runs per load, in one contiguous chunk of loads per
        # worker (_round_workers, _in_threads). Only the head runs stacked,
        # once, here. Weights stacked per load in 3-D measured slower than
        # the loop.
        if not batches:
            return np.empty(0)
        logits = np.empty((len(batches), batches[0][0].shape[0], self.n_classes))
        steps = s.tolist()
        chunks = min(_round_workers(self._width), len(batches))
        bounds = [len(batches) * i // chunks for i in range(chunks + 1)]
        _in_threads(lambda lo, hi: self._trunk_logits(
            theta0, direction, steps[lo:hi], batches[lo:hi], logits[lo:hi]),
            list(zip(bounds, bounds[1:])))
        return self._cross_entropy(logits, np.stack([y for _, y in batches]))[0]

    def _trunk_logits(self, theta0, direction, steps, batches, logits):
        """Write into logits[i] the logits of batches[i] at theta0 + steps[i]
        * direction, rounded as the batch_loss loop rounds it, reusing one
        parameter buffer and one set of activations across the loads."""
        theta = np.empty(self.dim)
        params = self._unpack(theta)
        h1 = h2 = None
        for step, (x, _), out in zip(steps, batches, logits):
            np.multiply(step, direction, out=theta)
            np.add(theta0, theta, out=theta)
            h1, h2, _ = self._trunk(params, x, h1, h2, out)

    def batch_loss_and_gradient(self, theta, batch) -> tuple[float, np.ndarray]:
        # One forward pass; backprop writes each layer's gradient straight
        # into its slice of the output vector.
        x, y = batch
        params = self._unpack(theta)
        _, _, w2, _, w3, _ = params
        h1, h2, logits = self._trunk(params, x)
        loss, log_norm = self._cross_entropy(logits, y)
        m = x.shape[0]
        grad = np.empty(self.dim)
        dw1, db1, dw2, db2, dw3, db3 = self._unpack(grad)
        probs = np.exp(logits - log_norm)
        probs[np.arange(m), y] -= 1.0
        probs /= m
        np.matmul(h2.T, probs, out=dw3)
        np.sum(probs, axis=0, out=db3)
        dh2 = (probs @ w3.T) * (1.0 - h2**2)
        np.matmul(h1.T, dh2, out=dw2)
        np.sum(dh2, axis=0, out=db2)
        dh1 = (dh2 @ w2.T) * (1.0 - h1**2)
        np.matmul(x.T, dh1, out=dw1)
        np.sum(dh1, axis=0, out=db1)
        return float(loss), grad

    def batch_accuracy(self, theta, batch) -> float:
        x, y = batch
        _, _, logits = self._trunk(self._unpack(theta), x)
        return float(np.mean(logits.argmax(axis=1) == y))
