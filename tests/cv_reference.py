"""Full-width reference for elfopt.regression's CV sweep, used only by tests.

cv_errors factorizes the design of all max_degree + 1 columns once and
Cholesky-downdates it for every fold right-looking: each column's step
updates the whole trailing block. select_degree_and_fit runs the stop rule
on it and refits as elfopt.regression does. elfopt.regression must choose
the same degrees and refit the same bits as these on every input; its CV
errors may differ only by rounding.
"""

from __future__ import annotations

import numpy as np

from elfopt.regression import (
    PIVOT_TOL,
    STOP_RULE_TOL,
    FitReport,
    SampleSet,
    _fold_indices,
    _least_squares,
    _rescaled,
    _scaled,
    _unscaled,
    _vander,
)


def cv_errors(design: np.ndarray, losses: np.ndarray, folds: int, rng: np.random.Generator):
    n, columns = design.shape
    test_rows, sizes = _fold_indices(n, folds, rng)
    q, r = np.linalg.qr(design)
    rank_tol = n * np.finfo(float).eps * np.linalg.norm(r, axis=0)
    dependent = (np.abs(np.diag(r)) <= rank_tol).tolist()
    qy = np.zeros((n + 1, columns + 1))
    qy[:n, :columns], qy[:n, columns] = q, losses
    test_t = qy[test_rows].transpose(0, 2, 1)
    head = np.eye(columns + 1)
    head[:columns, columns] = head[columns, :columns] = q.T @ losses
    augmented = np.concatenate([head - test_t @ test_t.transpose(0, 2, 1), test_t], axis=2)
    for j in range(columns):
        pivot = augmented[:, j, j]
        if dependent[j] or pivot.min() <= PIVOT_TOL:
            return
        row = augmented[:, j, j + 1 :] / np.sqrt(pivot)[:, None]
        augmented[:, j + 1 :, j + 1 :] -= row[:, : columns - j, None] * row[:, None, :]
        residuals = augmented[:, columns, columns + 1 :]
        yield sum((np.sum(residuals**2, axis=1) / sizes).tolist()) / folds


def select_degree_and_fit(
    samples: SampleSet, max_degree: int, folds: int, rng: np.random.Generator
) -> FitReport:
    x, mid, half = _rescaled(samples.positions)
    design = _vander(x, max_degree + 1)
    losses, e = _scaled(samples.losses)
    tol = STOP_RULE_TOL * float(np.mean(losses**2))
    errors: list[float] = []
    for error in cv_errors(design, losses, folds, rng):
        errors.append(error)
        if len(errors) > 1 and error >= errors[-2] - tol:
            chosen = len(errors) - 2
            break
    else:
        chosen = len(errors) - 1
    refit = _least_squares(design[:, : chosen + 1], mid, half, samples.losses)
    return FitReport(polynomial=refit, chosen_degree=chosen, cv_test_errors=_unscaled(errors, e))
