"""Ordinary least-squares polynomial fitting with k-fold cross-validated
degree selection.

Positions are rescaled to [-1, 1] before the design matrix is built so that
high-degree Vandermonde systems stay well conditioned; the solution is mapped
back so returned coefficients always apply to raw positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial


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

    cv_test_errors holds the mean squared test error of every degree that was
    tried, in degree order; chosen_degree always equals the refit polynomial's
    degree.
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


def _design_matrix(scaled: np.ndarray, degree: int) -> np.ndarray:
    return np.vander(scaled, degree + 1, increasing=True)


def fit_polynomial(degree: int, samples: SampleSet) -> Polynomial:
    """Least-squares polynomial of the given degree through the samples.

    The solve uses an orthogonal decomposition (SVD-backed lstsq) on the
    rescaled basis, never bare normal equations. Coefficients are returned in
    raw-position units.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if len(samples) < degree + 1:
        raise ValueError(
            f"need at least degree+1={degree + 1} samples, got {len(samples)}"
        )
    mid, half = _rescaling(samples.positions)
    scaled = (samples.positions - mid) / half
    design = _design_matrix(scaled, degree)
    coef, *_ = np.linalg.lstsq(design, samples.losses, rcond=None)
    # Map q(u) back to raw s by composing with u = (s - mid) / half.
    q = np.polynomial.Polynomial(coef)
    raw = q(np.polynomial.Polynomial([-mid / half, 1.0 / half])).coef
    if raw.size < degree + 1:
        raw = np.pad(raw, (0, degree + 1 - raw.size))
    return Polynomial(raw)


def _fold_indices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One seeded shuffle, then a contiguous near-equal split."""
    perm = rng.permutation(n)
    return np.array_split(perm, folds)


def _cv_error(samples: SampleSet, degree: int, fold_indices: list[np.ndarray]) -> float:
    """Mean over folds of the mean squared test error, accumulated in fold
    order so results do not depend on evaluation order."""
    total = 0.0
    for test_idx in fold_indices:
        mask = np.ones(len(samples), dtype=bool)
        mask[test_idx] = False
        train = SampleSet(samples.positions[mask], samples.losses[mask])
        fit = fit_polynomial(degree, train)
        residual = fit(samples.positions[test_idx]) - samples.losses[test_idx]
        total += float(np.mean(residual**2))
    return total / len(fold_indices)


def kfold_cv_error(
    degree: int, samples: SampleSet, folds: int, rng: np.random.Generator
) -> float:
    """k-fold cross-validation MSE for a polynomial of the given degree."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(samples) < folds:
        raise ValueError(f"need at least {folds} samples for {folds}-fold CV")
    return _cv_error(samples, degree, _fold_indices(len(samples), folds, rng))


def select_degree_and_fit(
    samples: SampleSet,
    max_degree: int,
    folds: int,
    rng: np.random.Generator,
) -> FitReport:
    """Increase the degree until the CV test error rises, keep the second
    last degree, and refit it on all samples.

    All degrees share one fold assignment (a single seeded shuffle) so the
    stop rule compares errors on identical splits. The sweep ends at
    max_degree, or earlier at the degree the smallest training fold can
    still determine (its size minus one); if no increase occurs by then,
    that last degree is selected.
    """
    fold_indices = _fold_indices(len(samples), folds, rng)
    smallest_train = len(samples) - max(len(test_idx) for test_idx in fold_indices)
    max_degree = min(max_degree, smallest_train - 1)
    errors: list[float] = []
    last_error = np.inf
    chosen = max_degree
    for degree in range(max_degree + 1):
        error = _cv_error(samples, degree, fold_indices)
        errors.append(error)
        if last_error < error:
            chosen = degree - 1
            break
        if degree == max_degree:
            chosen = max_degree
            break
        last_error = error
    refit = fit_polynomial(chosen, samples)
    return FitReport(polynomial=refit, chosen_degree=chosen, cv_test_errors=np.array(errors))
