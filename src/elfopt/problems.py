"""Desk-scale stochastic problems with analytic batch gradients.

Every problem exposes the same oracle surface: finite train/validation batch
collections, a pure batch_loss(theta, batch), its analytic gradient, and a
seeded initial parameter vector. Datasets are generated, never downloaded, so
everything runs offline and the empirical-loss geometry stays checkable
against closed forms or brute force.

A problem may also define two optional oracles, each with a module function
that uses it when present and falls back to the required ones otherwise:

- batch_losses_along(theta0, direction, s, batches) measures many (step size,
  batch) pairs on one line in one call; the fallback is a loop over
  batch_loss. All three problems define it. The quadratic and logistic ones
  stack every load; MlpBlobs runs its hidden layers per load in reused
  buffers and stacks only the softmax head, as weights stacked per load in
  3-D measured slower than the loop on wide layers.
- batch_loss_and_gradient(theta, batch) returns (loss, gradient) from one
  forward pass, for the loads that need both; the fallback is
  (float(batch_loss), batch_gradient). All three problems define it and
  derive batch_gradient from it; NoisyQuadraticEnsemble's loss and
  gradient share only theta - center, which it computes once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BatchStream:
    """Cyclic stream over a finite batch collection, reshuffled each epoch."""

    def __init__(self, batches, rng: np.random.Generator):
        if len(batches) == 0:
            raise ValueError("batch collection is empty")
        self._batches = list(batches)
        self._rng = rng
        self._order = rng.permutation(len(self._batches)).tolist()
        self._cursor = 0

    def next_batch(self):
        return self.next_batches(1)[0]

    def next_batches(self, count: int) -> list:
        """The next count batches: what count next_batch() calls return, in
        the same order and with the same epoch reshuffles."""
        picked = []
        while len(picked) < count:
            if self._cursor == len(self._order):
                self._order = self._rng.permutation(len(self._batches)).tolist()
                self._cursor = 0
            end = min(len(self._order), self._cursor + count - len(picked))
            picked += self._order[self._cursor:end]
            self._cursor = end
        return [self._batches[i] for i in picked]


def empirical_loss(problem, theta: np.ndarray) -> float:
    """Mean batch loss over every training batch."""
    return float(
        np.mean([problem.batch_loss(theta, b) for b in problem.train_batches])
    )


def batch_losses_along(problem, theta0, direction, s, batches) -> np.ndarray:
    """The loss of batches[i] at theta0 + s[i] * direction, for every i.

    Uses the problem's own batch_losses_along(theta0, direction, s, batches)
    when it has one, and a loop over batch_loss otherwise.
    """
    s = np.asarray(s, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if s.shape != (len(batches),):
        raise ValueError(f"{len(batches)} batches for step sizes of shape {s.shape}")
    along = getattr(problem, "batch_losses_along", None)
    if along is not None:
        return np.asarray(along(theta0, direction, s, batches), dtype=float)
    return np.array([problem.batch_loss(theta0 + step * direction, batch)
                     for step, batch in zip(s.tolist(), batches)], dtype=float)


def loss_and_gradient(problem, theta, batch) -> tuple[float, np.ndarray]:
    """The loss and gradient of batch at theta.

    Uses the problem's own batch_loss_and_gradient(theta, batch) when it has
    one, and batch_loss then batch_gradient otherwise.
    """
    fused = getattr(problem, "batch_loss_and_gradient", None)
    if fused is not None:
        return fused(theta, batch)
    return float(problem.batch_loss(theta, batch)), problem.batch_gradient(theta, batch)


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
    per_batch = np.array([
        batch_losses_along(problem, theta0, direction, s_grid, [batch] * s_grid.size)
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
        d = np.asarray(theta, dtype=float) - self.centers[batch]
        return float(0.5 * d @ self.matrices[batch] @ d + self.offsets[batch])

    def batch_gradient(self, theta, batch: int) -> np.ndarray:
        return self.batch_loss_and_gradient(theta, batch)[1]

    def batch_loss_and_gradient(self, theta, batch: int) -> tuple[float, np.ndarray]:
        # One theta - center for both; the loss is summed as batch_loss sums it.
        d = np.asarray(theta, dtype=float) - self.centers[batch]
        a = self.matrices[batch]
        return float(0.5 * d @ a @ d + self.offsets[batch]), a @ d

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


def _sigmoid(z):
    # e = exp(-|z|) <= 1 cannot overflow, and each branch is the stable form
    # for its sign; min(z, -z) is -|z| that keeps a nan's sign bit.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    noise; subclasses define batch_loss_and_gradient and batch_accuracy."""

    def __init__(self, n_train, n_val, centers, cluster_std, batch_size, rng):
        if n_train < 0 or n_val < 0:
            raise ValueError("n_train and n_val must be >= 0")
        n = n_train + n_val
        labels = rng.integers(0, centers.shape[0], size=n)
        x = centers[labels] + rng.normal(scale=cluster_std, size=(n, centers.shape[1]))
        self.train_batches = _split_batches(x[:n_train], labels[:n_train], batch_size)
        self.validation_batches = _split_batches(x[n_train:], labels[n_train:], batch_size)

    def batch_gradient(self, theta, batch) -> np.ndarray:
        return self.batch_loss_and_gradient(theta, batch)[1]

    def training_accuracy(self, theta) -> float:
        return float(np.mean([self.batch_accuracy(theta, b) for b in self.train_batches]))


class LogisticBlobs(_Blobs):
    """Binary logistic regression on two seeded Gaussian clusters.

    theta packs [weights..., bias]; the loss is the mean cross entropy of the
    batch under a sigmoid model.
    """

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
        theta = np.asarray(theta, dtype=float)
        return x @ theta[:-1] + theta[-1]

    def batch_loss(self, theta, batch) -> float:
        x, y = batch
        z = self._logits(theta, x)
        # log(1 + e^z) - y*z, computed stably
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

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
        # One set of logits for both; a.sum() / a.size is np.mean's own
        # arithmetic on a 1-D array, without its call overhead.
        x, y = batch
        z = self._logits(theta, x)
        per_sample = np.logaddexp(0.0, z) - y * z
        residual = _sigmoid(z) - y
        grad = np.empty(self.dim)
        grad[:-1] = x.T @ residual / x.shape[0]
        grad[-1] = residual.sum() / residual.size
        return float(per_sample.sum() / per_sample.size), grad

    def initial_theta(self, rng: np.random.Generator) -> np.ndarray:
        return 0.01 * rng.normal(size=self.dim)

    def batch_accuracy(self, theta, batch) -> float:
        x, y = batch
        return float(np.mean((self._logits(theta, x) > 0.0) == (y == 1)))


class MlpBlobs(_Blobs):
    """Two-hidden-layer tanh network with softmax cross entropy on seeded
    Gaussian blobs; gradients come from analytic backprop."""

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
        x, y = batch
        _, _, logits = self._trunk(self._unpack(theta), x)
        return float(self._cross_entropy(logits, y)[0])

    def batch_losses_along(self, theta0, direction, s, batches) -> np.ndarray:
        # Per load, one reused parameter buffer holds theta0 + step *
        # direction, rounded as the batch_loss loop rounds it, and the trunk
        # writes into reused activations; only the head runs stacked.
        # Weights stacked per load in 3-D measured slower than the loop.
        if not batches:
            return np.empty(0)
        theta = np.empty(self.dim)
        params = self._unpack(theta)
        logits = np.empty((len(batches), batches[0][0].shape[0], self.n_classes))
        h1 = h2 = None
        for step, (x, _), out in zip(s.tolist(), batches, logits):
            np.multiply(step, direction, out=theta)
            np.add(theta0, theta, out=theta)
            h1, h2, _ = self._trunk(params, x, h1, h2, out)
        return self._cross_entropy(logits, np.stack([y for _, y in batches]))[0]

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
