"""numpy.polynomial-based reference for elfopt.poly, used only by tests.

evaluate, derivative and real_roots_in call npoly.polyval, npoly.polyder and
npoly.polyroots; real_roots_in drops, as elfopt.poly does, the top
coefficients whose terms on the bracket's power-of-two scale npoly.polytrim
cuts at NEGLIGIBLE_TERM of the largest, and an eigenvalue whose |p| is past
ROOT_VALUE_TOL of p's size on the bracket even after up to
NEWTON_RESCUE_STEPS more Newton steps, where npoly.polyroots alone would
return it. Where the raw coefficients' eigenvalues do not converge, it takes
those of the power-of-two-scaled ones, as elfopt.poly does.
closest_minimum_to_zero and solve_for_value_nearest read their answers off
those with whole-array numpy operations. elfopt.poly must return
the same bits as these on every input.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from elfopt.poly import (NEGLIGIBLE_TERM, NEWTON_POLISH_STEPS, NEWTON_RESCUE_STEPS, ROOT_IMAG_TOL,
                         ROOT_VALUE_TOL, TIE_TOL, Polynomial)


def evaluate(p: Polynomial, s):
    out = npoly.polyval(np.asarray(s, dtype=float), p.coefficients)
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def derivative(p: Polynomial) -> Polynomial:
    return Polynomial(npoly.polyder(p.coefficients))


def real_roots_in(p: Polynomial, bracket: tuple[float, float]) -> np.ndarray:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError(f"bracket must be a finite non-empty interval, got {bracket}")
    coef = p.coefficients
    if not coef.any():
        return np.empty(0)
    scale = int(np.frexp(max(abs(lo), abs(hi)))[1])
    shift = scale * np.arange(coef.size)
    scaled = np.ldexp(coef, shift - (np.frexp(coef)[1] + shift)[coef != 0].max())
    scaled = npoly.polytrim(scaled, NEGLIGIBLE_TERM * np.abs(scaled).max())
    if scaled.size == 1:
        return np.empty(0)
    coef = coef[: scaled.size]
    eigenvalues = None
    with np.errstate(over="ignore"):
        if np.isfinite(coef[:-1] / coef[-1]).all():
            try:
                eigenvalues = npoly.polyroots(coef)
            except np.linalg.LinAlgError:   # the eigenvalues did not converge
                pass
    exponent = 0
    if eigenvalues is None:
        exponent, coef = scale, scaled
        lo, hi = float(np.ldexp(lo, -exponent)), float(np.ldexp(hi, -exponent))
        eigenvalues = npoly.polyroots(coef)
    tolerance = ROOT_IMAG_TOL * max(abs(lo), abs(hi))
    roots = eigenvalues.real[np.abs(eigenvalues.imag) <= tolerance]
    roots = roots[(roots >= lo) & (roots <= hi)]

    powers = np.arange(coef.size)
    slope_coef = powers[1:] * coef[1:]

    def values_and_slopes(s):
        vander = s[:, None] ** powers
        return vander @ coef, vander[:, :-1] @ slope_coef

    values, slopes = values_and_slopes(roots)
    polished, polished_values = roots, values
    for _ in range(NEWTON_POLISH_STEPS):
        step = np.divide(polished_values, slopes, out=np.zeros_like(slopes), where=slopes != 0.0)
        polished = polished - step
        polished_values, slopes = values_and_slopes(polished)
    better = np.abs(polished_values) < np.abs(values)
    roots = np.where(better, polished, roots)
    residuals = np.abs(np.where(better, polished_values, values))
    with np.errstate(over="ignore"):
        limit = ROOT_VALUE_TOL * npoly.polyval(max(abs(lo), abs(hi)), np.abs(coef))
    misfit = (residuals > limit) & (residuals < np.inf)
    for i in np.flatnonzero(misfit):
        root, residual = roots[i:i + 1], residuals[i]
        value, slope = values_and_slopes(root)
        for _ in range(NEWTON_RESCUE_STEPS):
            if slope[0] == 0.0:
                break
            step = root - value / slope
            step_value, step_slope = values_and_slopes(step)
            if not abs(step_value[0]) < residual:
                break
            root, residual, value, slope = step, abs(step_value[0]), step_value, step_slope
        roots[i], residuals[i] = root[0], residual
    misfit = (residuals > limit) & (residuals < np.inf)
    roots = np.unique(roots[(roots >= lo) & (roots <= hi) & ~misfit])
    return np.ldexp(roots[np.diff(roots, prepend=-np.inf) > tolerance], exponent)


def closest_minimum_to_zero(p: Polynomial, bracket: tuple[float, float]):
    dp = derivative(p)
    roots = real_roots_in(dp, bracket)
    edges = np.concatenate(([float(bracket[0])], roots, [float(bracket[1])]))
    slopes = evaluate(dp, 0.5 * (edges[:-1] + edges[1:]))
    minima = roots[(slopes[:-1] < 0.0) & (slopes[1:] > 0.0)]
    if minima.size == 0:
        return None
    s_min = float(minima[np.argmin(np.abs(minima))])
    return s_min, evaluate(p, s_min)


def solve_for_value_nearest(p: Polynomial, target: float, anchor: float, bracket):
    candidates = np.union1d(
        real_roots_in(p - target, bracket), real_roots_in(p + target, bracket)
    )
    if target < 0.0 or candidates.size == 0:
        return None
    distance = np.abs(candidates - anchor)
    return float(candidates[distance <= distance.min() + TIE_TOL].max())
