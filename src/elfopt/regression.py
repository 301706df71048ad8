"""Ordinary least-squares polynomial fitting with k-fold cross-validated
degree selection.

Positions are rescaled to [-1, 1] so that high-degree Vandermonde systems stay
well conditioned. Cross-validation reads every degree's fit off one QR factor
of each training fold's design matrix; only the final refit maps its solution
back to coefficients on raw positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial

# A CV error that does not fall by more than this fraction of mean(losses**2)
# counts as a rise; on exact-fit data smaller differences are rounding noise.
STOP_RULE_TOL = 1e-12


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
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(loss))):
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


def _rescaling(positions: np.ndarray) -> tuple[float, float]:
    """Affine map s -> (s - mid) / half onto [-1, 1]; half falls back to 1
    when all positions coincide."""
    lo, hi = positions.min(), positions.max()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid, (half if half > 0.0 else 1.0)


def fit_polynomial(degree: int, samples: SampleSet) -> Polynomial:
    """Least-squares polynomial of the given degree through the samples.

    The solve uses an orthogonal decomposition (SVD-backed lstsq) on the
    rescaled basis, never bare normal equations. Coefficients are returned in
    raw-position units. Degree selection calls this once, for its refit.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if len(samples) < degree + 1:
        raise ValueError(f"need at least degree+1={degree + 1} samples, got {len(samples)}")
    mid, half = _rescaling(samples.positions)
    design = np.vander((samples.positions - mid) / half, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(design, samples.losses, rcond=None)
    # Map q(u) back to raw s by composing with u = (s - mid) / half.
    q = np.polynomial.Polynomial(coef)
    raw = q(np.polynomial.Polynomial([-mid / half, 1.0 / half])).coef
    if raw.size < degree + 1:
        raw = np.pad(raw, (0, degree + 1 - raw.size))
    return Polynomial(raw)


def _fold_indices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One seeded shuffle, then a contiguous near-equal split."""
    return np.array_split(rng.permutation(n), folds)


def _max_determinable_degree(samples: SampleSet, fold_indices: list[np.ndarray]) -> int:
    """Fewest distinct positions in any training fold, minus one."""
    return min(np.unique(np.delete(samples.positions, t)).size for t in fold_indices) - 1


def _cv_errors(samples: SampleSet, max_degree: int, fold_indices: list[np.ndarray]) -> np.ndarray:
    """Mean over folds, in fold order, of each degree's mean squared test error.

    Each training fold's design matrix V, on the fold's own rescaled basis, is
    factorized once as V = QR. R is upper triangular, so degree d's fit solves
    R's leading (d+1)x(d+1) block against (Q^T y)[:d+1], and its prediction is
    the sum over j <= d of column j of V_test R^-1 times (Q^T y)[j].
    """
    total = np.zeros(max_degree + 1)
    for test_idx in fold_indices:
        mid, half = _rescaling(np.delete(samples.positions, test_idx))
        design = np.vander((samples.positions - mid) / half, max_degree + 1, increasing=True)
        q, r = np.linalg.qr(np.delete(design, test_idx, axis=0))
        weights = np.linalg.inv(r) * (q.T @ np.delete(samples.losses, test_idx))
        predictions = np.cumsum(design[test_idx] @ weights, axis=1)
        total += np.mean((predictions - samples.losses[test_idx, None]) ** 2, axis=0)
    return total / len(fold_indices)


def kfold_cv_error(
    degree: int, samples: SampleSet, folds: int, rng: np.random.Generator
) -> float:
    """k-fold cross-validation MSE for a polynomial of the given degree."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(samples) < folds:
        raise ValueError(f"need at least {folds} samples for {folds}-fold CV")
    fold_indices = _fold_indices(len(samples), folds, rng)
    highest = _max_determinable_degree(samples, fold_indices)
    if not 0 <= degree <= highest:
        raise ValueError(f"degree must be in 0..{highest}, as set by the training folds")
    return float(_cv_errors(samples, degree, fold_indices)[degree])


def select_degree_and_fit(
    samples: SampleSet, max_degree: int, folds: int, rng: np.random.Generator
) -> FitReport:
    """Increase the degree until the CV test error rises, keep the second
    last degree, and refit it on all samples.

    All degrees share one fold assignment (a single seeded shuffle), and a
    fall of at most STOP_RULE_TOL * mean(losses**2) counts as a rise. The
    sweep ends at max_degree, or earlier at the degree every training fold
    can determine (its distinct positions minus one); with no rise by then,
    that last degree is selected.
    """
    fold_indices = _fold_indices(len(samples), folds, rng)
    max_degree = min(max_degree, _max_determinable_degree(samples, fold_indices))
    errors = _cv_errors(samples, max_degree, fold_indices)
    tol = STOP_RULE_TOL * float(np.mean(samples.losses**2))
    chosen = next((d for d in range(max_degree) if errors[d + 1] >= errors[d] - tol), max_degree)
    refit = fit_polynomial(chosen, samples)
    return FitReport(polynomial=refit, chosen_degree=chosen, cv_test_errors=errors[: chosen + 2])
