"""Polynomials in one variable: evaluation, differentiation, and real roots
on bounded intervals, from which the bracketed minimum and |p(s)| = target
solves are read off."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

# A companion-matrix eigenvalue counts as real, and two real roots count as
# one, within this fraction of the bracket's scale: a double real root comes
# back as a conjugate pair or two reals about sqrt(machine epsilon) apart.
ROOT_IMAG_TOL = 1e-6
NEWTON_POLISH_STEPS = 2
# Two crossings whose anchor distances differ by less than this are a tie.
TIE_TOL = 1e-8


@dataclass(frozen=True)
class Polynomial:
    """Coefficients in ascending degree order: c0 + c1*s + c2*s**2 + ...

    The degree is structural (coefficient count minus one); trailing
    coefficients may be zero when a fit of fixed degree lands on a
    lower-degree curve.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coef = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if coef.ndim != 1 or coef.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(coef)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coef)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, s):
        return evaluate(self, s)

    def __add__(self, constant: float) -> Polynomial:
        """p + constant for a scalar constant: only c0 changes."""
        coef = self.coefficients.copy()
        coef[0] += constant
        return Polynomial(coef)

    def __sub__(self, constant: float) -> Polynomial:
        return self + (-constant)


def evaluate(p: Polynomial, s):
    """Evaluate p at s (scalar or array) by nested multiplication (Horner)."""
    out = npoly.polyval(np.asarray(s, dtype=float), p.coefficients)
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def derivative(p: Polynomial) -> Polynomial:
    """Formal derivative; a constant's is the zero polynomial, npoly.polyder's [0.]."""
    return Polynomial(npoly.polyder(p.coefficients))


def real_roots_in(p: Polynomial, bracket: tuple[float, float]) -> np.ndarray:
    """Sorted, distinct real roots of p inside the closed bracket [lo, hi].

    Roots are the eigenvalues of p's companion matrix. The near-real ones in
    the bracket are polished by Newton steps on p, and a polished root
    replaces its eigenvalue only where it shrinks |p|. A cluster of roots
    within the tolerance (a multiple root) is returned once, as its smallest.
    Constant polynomials, the zero polynomial included, have no roots here.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError(f"bracket must be a finite non-empty interval, got {bracket}")
    nonzero = np.flatnonzero(p.coefficients)
    if nonzero.size == 0 or nonzero[-1] == 0:
        return np.empty(0)
    coef = p.coefficients[: nonzero[-1] + 1]
    # Where the companion matrix, -coef[:-1] / coef[-1], would not be finite,
    # the roots are u = s / 2**e of p(2**e * u), 2**e the bracket's scale, on
    # coefficients rescaled by exact ldexp and cut to normal floats.
    exponent = 0
    with np.errstate(over="ignore"):
        if not np.isfinite(coef[:-1] / coef[-1]).all():
            exponent = int(np.frexp(max(abs(lo), abs(hi)))[1])
            shift = exponent * np.arange(coef.size)
            coef = np.ldexp(coef, shift - (np.frexp(coef)[1] + shift)[coef != 0].max())
            coef = coef[: np.flatnonzero(np.abs(coef) >= np.finfo(float).tiny)[-1] + 1]
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
    roots = np.where(np.abs(polished_values) < np.abs(values), polished, roots)
    roots = np.unique(roots[(roots >= lo) & (roots <= hi)])
    return np.ldexp(roots[np.diff(roots, prepend=-np.inf) > tolerance], exponent)


def closest_minimum_to_zero(
    p: Polynomial, bracket: tuple[float, float]
) -> tuple[float, float] | None:
    """Locate the local minimum of p inside the bracket with smallest |s|.

    Minima are the roots of p' where p' turns from negative to positive; the
    sign of p' is read between consecutive roots. Returns (s_min, p(s_min)),
    or None when no local minimum lies in the bracket (degree <= 1, or
    monotone there).
    """
    dp = derivative(p)
    roots = real_roots_in(dp, bracket)
    edges = np.concatenate(([float(bracket[0])], roots, [float(bracket[1])]))
    slopes = evaluate(dp, 0.5 * (edges[:-1] + edges[1:]))
    minima = roots[(slopes[:-1] < 0.0) & (slopes[1:] > 0.0)]
    if minima.size == 0:
        return None
    s_min = float(minima[np.argmin(np.abs(minima))])
    return s_min, evaluate(p, s_min)


def solve_for_value_nearest(
    p: Polynomial,
    target: float,
    anchor: float,
    bracket: tuple[float, float],
) -> float | None:
    """Find the s in the bracket closest to the anchor where |p(s)| == target.

    The candidates are the real roots of p - target and p + target. Ties (two
    crossings equidistant from the anchor) resolve to the larger s, which
    widens the sampling interval downstream. Returns None when |p| never
    attains the target inside the bracket.
    """
    candidates = np.union1d(
        real_roots_in(p - target, bracket), real_roots_in(p + target, bracket)
    )
    if target < 0.0 or candidates.size == 0:
        return None
    distance = np.abs(candidates - anchor)
    return float(candidates[distance <= distance.min() + TIE_TOL].max())
