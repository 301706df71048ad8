"""Polynomials in one variable: evaluation, differentiation, and real roots
on bounded intervals, from which the bracketed minimum and |p(s)| = target
solves are read off. evaluate, derivative and real_roots_in's eigenvalues
repeat numpy.polynomial's polyval, polyder and polyroots arithmetic bit for
bit without their per-call overhead; numpy.polynomial is used only by the
tests, as the reference."""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

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
        if not np.isfinite(coef).all():
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
    """Evaluate p at s (scalar or array) by polyval's Horner loop."""
    coef = p.coefficients.tolist()
    s = float(s) if isinstance(s, float) or np.ndim(s) == 0 else np.asarray(s, dtype=float)
    value = coef[-1] + s * 0
    for c in coef[-2::-1]:
        value = c + value * s
    return value


def derivative(p: Polynomial) -> Polynomial:
    """Formal derivative by polyder's products j * c[j]; a constant c's is [c * 0]."""
    c = p.coefficients
    return Polynomial(c[1:] * np.arange(1, c.size) if c.size > 1 else c[:1] * 0)


def real_roots_in(p: Polynomial, bracket: tuple[float, float]) -> np.ndarray:
    """Sorted, distinct real roots of p inside the closed bracket [lo, hi].

    Roots are the eigenvalues of p's companion matrix. The near-real ones in
    the bracket are polished by Newton steps on p, and a polished root
    replaces its eigenvalue only where it shrinks |p|. A cluster of roots
    within the tolerance (a multiple root) is returned once, as its smallest.
    Constant polynomials, the zero polynomial included, have no roots here.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"bracket must be a finite non-empty interval, got {bracket}")
    trimmed = p.coefficients.tolist()
    while len(trimmed) > 1 and trimmed[-1] == 0.0:
        trimmed.pop()
    coef = p.coefficients[: len(trimmed)]
    # Where the companion matrix, -coef[:-1] / coef[-1], would not be finite
    # (Python floats overflow to inf silently), the roots are u = s / 2**e of
    # p(2**e * u), 2**e the bracket's scale, on coefficients rescaled by
    # exact ldexp and cut to normal floats.
    exponent = 0
    if not all(math.isfinite(c / trimmed[-1]) for c in trimmed[:-1]):
        with np.errstate(over="ignore"):
            exponent = int(np.frexp(max(abs(lo), abs(hi)))[1])
            shift = exponent * np.arange(coef.size)
            coef = np.ldexp(coef, shift - (np.frexp(coef)[1] + shift)[coef != 0].max())
            coef = coef[: np.flatnonzero(np.abs(coef) >= np.finfo(float).tiny)[-1] + 1]
            lo, hi = float(np.ldexp(lo, -exponent)), float(np.ldexp(hi, -exponent))
        trimmed = coef.tolist()
    n = len(trimmed) - 1
    if n > 1:  # polyroots: the sorted eigenvalues of polycompanion's matrix
        matrix = np.zeros((n, n))
        matrix.reshape(-1)[n::n + 1] = 1
        matrix[:, -1] -= np.divide(trimmed[:-1], trimmed[-1])
        eigenvalues = np.sort(np.linalg.eigvals(matrix)).tolist()
    else:
        eigenvalues = [-trimmed[0] / trimmed[1]] if n else []
    tolerance = ROOT_IMAG_TOL * max(abs(lo), abs(hi))
    roots = [r.real for r in eigenvalues if abs(r.imag) <= tolerance and lo <= r.real <= hi]
    if not roots:
        return np.empty(0)
    powers = np.arange(coef.size)
    slope_coef = powers[1:] * coef[1:]
    # p's powers and terms, and the sums of p and p', stay finite at every
    # |s| <= reach, with a factor of 2 to spare for rounding. Past it (a root
    # near the float range's edge, or a Newton step thrown far by a nearly
    # flat slope) any overflow is silenced: an overflowed |p| is inf or nan,
    # which never beats the eigenvalue's, so that polish is dropped.
    reach = (0.5 * np.finfo(float).max / max(1.0, (n + 1) * sum(map(abs, trimmed)))) ** (1 / n)

    def values_and_slopes(s: list[float]):
        beyond = max(1.0, *map(abs, s)) > reach
        with np.errstate(over="ignore", invalid="ignore") if beyond else nullcontext():
            vander = np.array(s)[:, None] ** powers
            return vander @ coef, vander[:, :-1] @ slope_coef

    values, slopes = values_and_slopes(roots)
    polished, polished_values = roots, values
    for _ in range(NEWTON_POLISH_STEPS):
        # Python floats divide and subtract as np.divide and np.subtract do,
        # but overflow to inf without a warning.
        polished = [x - (v / d if d != 0.0 else 0.0) for x, v, d
                    in zip(polished, polished_values.tolist(), slopes.tolist())]
        polished_values, slopes = values_and_slopes(polished)
    roots = np.where(np.abs(polished_values) < np.abs(values), polished, roots)
    roots = sorted(root for root in roots.tolist() if lo <= root <= hi)
    distinct = [r for r, before in zip(roots, [-math.inf, *roots]) if r - before > tolerance]
    return np.ldexp(distinct, exponent) if exponent else np.array(distinct)


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
    roots = real_roots_in(dp, bracket).tolist()
    if not roots:
        return None
    edges = [float(bracket[0]), *roots, float(bracket[1])]
    slopes = [evaluate(dp, 0.5 * (a + b)) for a, b in zip(edges, edges[1:])]
    minima = [r for r, left, right in zip(roots, slopes, slopes[1:]) if left < 0.0 < right]
    if not minima:
        return None
    s_min = min(minima, key=abs)
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
    candidates = (real_roots_in(p - target, bracket).tolist()
                  + real_roots_in(p + target, bracket).tolist())
    if target < 0.0 or not candidates:
        return None
    cut = min(abs(c - anchor) for c in candidates) + TIE_TOL
    return float(max(c for c in candidates if abs(c - anchor) <= cut))
