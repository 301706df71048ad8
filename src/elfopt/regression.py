"""Ordinary least-squares polynomial fitting with k-fold cross-validated
degree selection.

Positions are rescaled to [-1, 1] so that high-degree Vandermonde systems stay
well conditioned. Cross-validation factorizes the design matrix of all samples
(QR) and gets each training fold's fit of every degree from a Cholesky
downdate of that factor by the fold's test rows. The degrees are swept only
as far as the stop rule needs, on losses divided by a power of two that
brings the largest to about 1, and the sweep pays only for the columns it
reaches: it factorizes the first FIRST_BLOCK columns, and all of them only
when it runs past those. Chosen degrees and refits are those of a sweep that
factorizes every column at once; CV errors may differ from its errors by
rounding, and degree d's error does not depend on how far the sweep went.
Only the final refit maps its solution back to coefficients on raw
positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Iterator

import numpy as np

from .poly import Polynomial

# A CV error that does not fall by more than this fraction of mean(losses**2)
# counts as a rise; on exact-fit data smaller differences are rounding noise.
STOP_RULE_TOL = 1e-12

# A training fold cannot determine column j (degree j) when its downdated pivot
# is at most this: the squared norm that Q's column j, of unit norm over all
# samples, keeps on the fold's training rows once the lower columns are
# projected out there. A fold with m distinct positions, of more among all
# samples, has a zero pivot at column m; on real line searches the smallest
# pivot is about 0.15.
PIVOT_TOL = 1e-8

# The CV sweep first factorizes this many columns (degrees 0-4), enough to
# choose degree 3 or less; it refactorizes at full width only past them. On
# the default line search (5 folds, max degree 10) that happens in about 2%
# of the fits of a noisy quadratic's searches and 17% of a wide MLP's.
FIRST_BLOCK = 5

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SampleSet:
    """Parallel arrays of sampled (position, loss) pairs on one cross section."""

    positions: np.ndarray
    losses: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        loss = np.asarray(self.losses, dtype=float)
        if pos.ndim != 1 or loss.ndim != 1 or pos.size != loss.size or pos.size == 0:
            raise ValueError("positions and losses must be 1-D arrays of identical length >= 1")
        if not (np.isfinite(pos).all() and np.isfinite(loss).all()):
            raise ValueError("positions and losses must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "losses", loss)

    def __len__(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class FitReport:
    """Outcome of cross-validated degree selection.

    cv_test_errors holds the mean squared test error of each degree from 0 to
    the one that ended the sweep; chosen_degree always equals the refit
    polynomial's degree.
    """

    polynomial: Polynomial
    chosen_degree: int
    cv_test_errors: np.ndarray


def _rescaled(positions: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The positions mapped by s -> (s - mid) / half onto [-1, 1], and
    (mid, half) as Python floats; half falls back to 1 when all positions
    coincide."""
    lo, hi = float(np.minimum.reduce(positions)), float(np.maximum.reduce(positions))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    half = half if half > 0.0 else 1.0
    return (positions - mid) / half, mid, half


def _vander(x: np.ndarray, columns: int) -> np.ndarray:
    """The Vandermonde matrix of x with the given number of columns, at most
    one per position as more are dependent."""
    return np.vander(x, min(columns, x.size), increasing=True)


def _raw_coefficients(coef: np.ndarray, mid: float, half: float) -> np.ndarray:
    """Coefficients in s of q((s - mid) / half), where coef holds q's: Horner's
    rule on plain floats, raw <- raw * (a + b*s) + c_j with a = -mid/half and
    b = 1/half, from q's highest coefficient down. The result equals
    np.polynomial's composition of q with a + b*s bit for bit."""
    a, b = -mid / half, 1.0 / half
    raw = [0.0] * coef.size
    for c in coef[::-1].tolist():
        raw = [raw[0] * a + c] + [hi * a + lo * b for hi, lo in zip(raw[1:], raw)]
    # + 0.0 turns -0.0 into 0.0; np.polynomial's convolution sums start
    # from 0.0 and never return -0.0.
    return np.array(raw) + 0.0


def fit_polynomial(degree: int, samples: SampleSet) -> Polynomial:
    """Least-squares polynomial of the given degree through the samples.

    The solve uses an orthogonal decomposition (SVD-backed lstsq) on the
    rescaled basis, never bare normal equations. Coefficients are returned in
    raw-position units, mapped back by _raw_coefficients. Degree selection
    refits by the same solve, on the leading columns of its sweep's design.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if len(samples) < degree + 1:
        raise ValueError(f"need at least degree+1={degree + 1} samples, got {len(samples)}")
    x, mid, half = _rescaled(samples.positions)
    return _least_squares(_vander(x, degree + 1), mid, half, samples.losses)


def _least_squares(design: np.ndarray, mid: float, half: float, losses: np.ndarray) -> Polynomial:
    """The least-squares fit of the losses on the design's columns, in raw
    positions."""
    coef, *_ = np.linalg.lstsq(design, losses, rcond=None)
    return Polynomial(_raw_coefficients(coef, mid, half))


def _fold_indices(n: int, folds: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One seeded shuffle, then a contiguous near-equal split, the larger
    folds first (np.array_split's split). Returns each fold's test rows as a
    row of a (folds, smallest fold + 1) array, padded with n, and the fold
    sizes."""
    order = rng.permutation(n)
    size, larger = divmod(n, folds)
    cut = larger * (size + 1)
    test_rows = np.empty((folds, size + 1), dtype=order.dtype)
    test_rows[:larger] = order[:cut].reshape(larger, size + 1)
    test_rows[larger:, :size] = order[cut:].reshape(folds - larger, size)
    test_rows[larger:, size] = n
    return test_rows, np.array([size + 1] * larger + [size] * (folds - larger))


def _scaled(losses: np.ndarray) -> tuple[np.ndarray, int]:
    """losses / 2**e and e, 2**e being the smallest power of two above every
    |loss| (e = 0 when all are 0). The division is exact, so the CV errors
    and stop-rule tolerance of the scaled losses are 4**-e times those of
    the losses, bit for bit while both stay normal floats, and cannot
    overflow."""
    e = math.frexp(np.maximum.reduce(np.abs(losses)))[1]
    return np.ldexp(losses, -e), e


def _unscaled(errors, e: int) -> np.ndarray:
    """CV errors of losses scaled by _scaled, in the losses' own units; one
    past the float range reads inf."""
    with np.errstate(over="ignore"):
        return np.ldexp(errors, 2 * e)


def _cv_errors(
    x: np.ndarray, losses: np.ndarray, columns: int, folds: int, rng: np.random.Generator,
) -> Iterator[tuple[float, np.ndarray]]:
    """Yield each degree's CV error in turn, with the design it came from,
    from degree 0 up to degree columns - 1 or to the last degree the samples
    and every training fold determine: the mean over folds, in fold order,
    of the degree's mean squared test error. x holds the rescaled positions.

    Degrees below FIRST_BLOCK come from the design of the first FIRST_BLOCK
    columns, whatever columns is, and the sweep refactorizes the design of
    all columns only when it runs past them. The fold split is one shuffle,
    drawn before either and used by both. So degree d's error does not
    depend on how far the sweep went; below FIRST_BLOCK it does not depend
    on columns either.
    """
    test_rows, sizes = _fold_indices(x.size, folds, rng)
    first = _vander(x, FIRST_BLOCK)
    reached = yield from _block_errors(first, losses, test_rows, sizes, 0, columns)
    if reached == first.shape[1] < min(columns, x.size):
        yield from _block_errors(_vander(x, columns), losses, test_rows, sizes, reached, columns)


def _block_errors(
    design: np.ndarray, losses: np.ndarray, test_rows: np.ndarray, sizes: np.ndarray,
    start: int, columns: int,
) -> Generator[tuple[float, np.ndarray], None, int]:
    """Sweep the design's first columns (at most the given number) for the
    folds of _fold_indices, yielding (error, design) from column start on;
    return the number of columns swept before one the samples or a training
    fold cannot determine.

    The design V, of all samples on their rescaled basis, is factorized as
    V = QR. In Q's coordinates fold k's training Gram matrix is the downdate
    M = I - Q_t^T Q_t by Q's test rows Q_t, and its right-hand side is
    g = Q^T y - Q_t^T y_t. One column loop Cholesky-factorizes every fold's
    M = U^T U at once, carrying g and Q_t^T along: row j of the factor also
    holds z_j = (U^-T g)_j and column j of Q_t U^-1, and column j's step
    updates the whole trailing block (right-looking), which on these few
    columns takes two numpy calls where computing row j alone from the
    earlier rows (left-looking) takes 2j. Leading blocks nest, so degree d's
    test predictions are the running sum over j <= d of z_j times column j
    of Q_t U^-1; a last row carries the test residuals. The sweep stops at
    the first column from start on that the samples cannot determine: one
    within rounding of the span of the lower columns over all samples
    (|R_jj| <= n * eps * |V_j|, the tolerance of numpy's matrix_rank), or
    one on which some fold's downdated pivot is at most PIVOT_TOL. Columns
    below start passed those checks in an earlier sweep.
    """
    n, width = design.shape
    q, r = np.linalg.qr(design)
    # |V_j| = |R_:j|, as Q has orthonormal columns, summed as np.linalg.norm
    # sums it.
    rank_tol = n * EPS * np.sqrt(np.add.reduce(r * r, axis=0))
    dependent = (np.abs(r.diagonal()) <= rank_tol).tolist()
    # [Q_t | y_t] per fold, zero rows as padding, and from it every fold's
    # [[M, g, Q_t^T], [g^T, unused, y_t^T]].
    qy = np.zeros((n + 1, width + 1))
    qy[:n, :width], qy[:n, width] = q, losses
    test_t = qy[test_rows].transpose(0, 2, 1)
    head = np.eye(width + 1)
    head[:width, width] = head[width, :width] = q.T @ losses
    system = np.concatenate([head - test_t @ test_t.transpose(0, 2, 1), test_t], axis=2)
    residuals = system[:, width, width + 1 :]
    folds = sizes.size
    for j in range(min(width, columns)):
        pivot = system[:, j, j]
        if j >= start and (dependent[j] or pivot.min() <= PIVOT_TOL):
            return j
        row = system[:, j, j + 1 :] / np.sqrt(pivot)[:, None]
        system[:, j + 1 :, j + 1 :] -= row[:, : width - j, None] * row[:, None, :]
        if j >= start:
            yield sum((np.add.reduce(residuals**2, axis=1) / sizes).tolist()) / folds, design
    return min(width, columns)


def select_degree_and_fit(
    samples: SampleSet, max_degree: int, folds: int, rng: np.random.Generator
) -> FitReport:
    """Increase the degree until the CV test error rises, keep the second
    last degree, and refit it on all samples.

    All degrees share one fold assignment (a single seeded shuffle), and a
    fall of at most STOP_RULE_TOL * mean(losses**2) counts as a rise. The
    sweep ends at max_degree, or earlier at the last degree the samples and
    every training fold determine (see _cv_errors); with no rise by then,
    that last degree is selected. The sweep and the tolerance run on the
    losses scaled by _scaled, so that huge losses decide as their scaled
    copies do.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(samples) < folds:
        raise ValueError(f"need at least {folds} samples for {folds}-fold CV")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    x, mid, half = _rescaled(samples.positions)
    losses, e = _scaled(samples.losses)
    # np.mean's sum and division.
    tol = STOP_RULE_TOL * (float(np.add.reduce(losses**2)) / losses.size)
    errors: list[float] = []
    for error, design in _cv_errors(x, losses, max_degree + 1, folds, rng):
        errors.append(error)
        if len(errors) > 1 and error >= errors[-2] - tol:
            chosen = len(errors) - 2
            break
    else:
        chosen = len(errors) - 1
    # np.vander's columns are running products, so the first chosen + 1
    # columns of the design the sweep ended on are fit_polynomial's own
    # design, bit for bit.
    refit = _least_squares(design[:, : chosen + 1], mid, half, samples.losses)
    return FitReport(polynomial=refit, chosen_degree=chosen, cv_test_errors=_unscaled(errors, e))
