"""Polynomials in one variable: evaluation, differentiation, and real roots
on bounded intervals, from which the bracketed minimum and |p(s)| = target
solves are read off. evaluate, derivative and real_roots_in's eigenvalues
repeat numpy.polynomial's polyval, polyder and polyroots arithmetic bit for
bit without their per-call overhead; numpy.polynomial is used only by the
tests, as the reference."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A companion-matrix eigenvalue counts as real, and two real roots count as
# one, within this fraction of the bracket's scale: a double real root comes
# back as a conjugate pair or two reals about sqrt(machine epsilon) apart.
ROOT_IMAG_TOL = 1e-6
NEWTON_POLISH_STEPS = 2
# A returned root must have |p| within this fraction of sum |c_k| B**k, p's
# size on the bracket (B its largest |end|), the scale ROOT_IMAG_TOL is read
# on too. A polished simple root lies a few machine epsilons from 0 on it,
# and a double root that comes back as a near-real pair about
# ROOT_IMAG_TOL**2 times a power of 2 in the degree. An eigenvalue that is
# no root, such as an exact 0 that rounding makes of a pair +-i, lies
# further out.
ROOT_VALUE_TOL = 1e-8
# A near-real eigenvalue in the bracket whose polish is still past
# ROOT_VALUE_TOL takes up to this many more Newton steps, each kept only
# while it shrinks |p|, before it is dropped. A far root can skew a real
# root's eigenvalue: at -1.16e15 it puts the root 0.0747 of p = -4.55e-12
# - 7.45e17 s + 9.97e18 s**2 + 8572 s**3 at 0.25, which the two polish
# steps take only to 0.0985, |p| at 8.7e-5 of p's size on [0, 5.15].
NEWTON_RESCUE_STEPS = 50
# A top coefficient whose term on the bracket is within this fraction of
# p's largest term is dropped before the eigenvalues are taken.
NEGLIGIBLE_TERM = float(np.finfo(float).eps)
FLOAT_MAX = float(np.finfo(float).max)
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
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim == 0:
            coef = coef.reshape(1)
        if coef.ndim != 1 or coef.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not all(map(math.isfinite, coef.tolist())):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coef)

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

    Roots are the eigenvalues of the companion matrix of p less its top
    coefficients whose terms are negligible on the bracket. The near-real
    ones in the bracket are polished by Newton steps on p, and a polished root
    replaces its eigenvalue only where it shrinks |p|. A root whose |p| is
    past ROOT_VALUE_TOL of p's size on the bracket is no root of p and is
    dropped. A cluster of roots within the tolerance (a multiple root) is
    returned once, as its smallest.
    Constant polynomials, the zero polynomial included, have no roots here.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"bracket must be a finite non-empty interval, got {bracket}")
    # p's terms c_k s**k on the bracket's power-of-two scale 2**e, e the
    # exponent of its largest |end|: c_k 2**(e k) over the largest such
    # term's power of two, by exact ldexp, so each is below 1 in size and
    # none overflows. The top coefficients whose term is negligible next to
    # the largest are dropped: the companion eigenvalues of such a tiny
    # leading coefficient lose p's roots to rounding.
    scale = math.frexp(max(abs(lo), abs(hi)))[1]
    raw = p.coefficients.tolist()
    top = max((math.frexp(c)[1] + scale * k for k, c in enumerate(raw) if c != 0.0), default=0)
    scaled = [math.ldexp(c, scale * k - top) for k, c in enumerate(raw)]
    negligible = NEGLIGIBLE_TERM * max(map(abs, scaled))
    while len(scaled) > 1 and abs(scaled[-1]) <= negligible:
        scaled.pop()
    n = len(scaled) - 1
    trimmed, coef = raw[: n + 1], p.coefficients[: n + 1]
    # Where the companion matrix, -coef[:-1] / coef[-1], would not be finite
    # (Python floats overflow to inf silently), or its eigenvalues do not
    # converge, the roots are u = s / 2**e of p(2**e * u), on the scaled
    # coefficients.
    eigenvalues = None
    if all(math.isfinite(c / trimmed[-1]) for c in trimmed[:-1]):
        try:
            eigenvalues = _eigenvalues(trimmed)
        except np.linalg.LinAlgError:
            pass
    exponent = 0
    if eigenvalues is None:
        exponent, trimmed, coef = scale, scaled, np.array(scaled)
        lo, hi = math.ldexp(lo, -exponent), math.ldexp(hi, -exponent)
        eigenvalues = _eigenvalues(trimmed)
    tolerance = ROOT_IMAG_TOL * max(abs(lo), abs(hi))
    roots = [r.real for r in eigenvalues if abs(r.imag) <= tolerance and lo <= r.real <= hi]
    if not roots:
        return np.empty(0)
    powers = np.arange(coef.size)
    slope_coef = powers[1:] * coef[1:]
    # p's powers and terms, and the sums of p and p', stay finite at every
    # |s| <= reach, with a factor of 2 to spare for rounding.
    reach = (0.5 * FLOAT_MAX / max(1.0, (n + 1) * sum(map(abs, trimmed)))) ** (1 / n)
    values, slopes = _values_and_slopes(roots, powers, coef, slope_coef, reach)
    polished, polished_values = roots, values
    for _ in range(NEWTON_POLISH_STEPS):
        # Python floats divide and subtract as np.divide and np.subtract do,
        # but overflow to inf without a warning.
        polished = [x - (v / d if d != 0.0 else 0.0)
                    for x, v, d in zip(polished, polished_values, slopes)]
        polished_values, slopes = _values_and_slopes(polished, powers, coef, slope_coef, reach)
    # Each root is its polish where that shrinks |p| (an |p| of nan never
    # does), with the |p| of the one kept as its residual.
    kept = [(x, abs(v)) if abs(v) < abs(w) else (r, abs(w))
            for r, w, x, v in zip(roots, values, polished, polished_values)]
    # p's size on the bracket, by Horner's rule on Python floats, which
    # overflow to inf without a warning. Only a finite misfit drops a root:
    # an |p| that overflowed (inf or nan) is no evidence against it. A
    # misfit is polished on first (NEWTON_RESCUE_STEPS).
    size, bound = 0.0, max(abs(lo), abs(hi))
    for c in reversed(trimmed):
        size = abs(c) + size * bound
    limit = ROOT_VALUE_TOL * size
    kept = [_polish_on(root, residual, powers, coef, slope_coef, reach)
            if limit < residual < math.inf else (root, residual) for root, residual in kept]
    roots = sorted(root for root, residual in kept
                   if lo <= root <= hi and not limit < residual < math.inf)
    distinct = [r for r, before in zip(roots, [-math.inf, *roots]) if r - before > tolerance]
    return np.ldexp(distinct, exponent) if exponent else np.array(distinct)


def _values_and_slopes(s: list[float], powers, coef, slope_coef, reach: float):
    """p and p' at each s, as lists of Python floats: the rows of s's
    Vandermonde matrix times p's coefficients and times p''s. Past reach (a
    root near the float range's edge, or a Newton step thrown far by a nearly
    flat slope) any overflow is silenced: an overflowed |p| is inf or nan,
    which never beats the eigenvalue's, so that polish is dropped."""
    if max(1.0, *map(abs, s)) > reach:
        with np.errstate(over="ignore", invalid="ignore"):
            return _values_and_slopes(s, powers, coef, slope_coef, math.inf)
    vander = np.array(s)[:, None] ** powers
    return (vander @ coef).tolist(), (vander[:, :-1] @ slope_coef).tolist()


def _polish_on(root: float, residual: float, powers, coef, slope_coef, reach: float):
    """(root, |p(root)|) after up to NEWTON_RESCUE_STEPS Newton steps from
    root, where residual is |p(root)|, stopping at the first step that does
    not shrink |p|."""
    (value,), (slope,) = _values_and_slopes([root], powers, coef, slope_coef, reach)
    for _ in range(NEWTON_RESCUE_STEPS):
        if slope == 0.0:
            break
        step = root - value / slope
        (step_value,), (step_slope,) = _values_and_slopes([step], powers, coef, slope_coef, reach)
        if not abs(step_value) < residual:
            break
        root, residual, value, slope = step, abs(step_value), step_value, step_slope
    return root, residual


def _eigenvalues(terms: list[float]) -> list[complex]:
    """polyroots of the ascending terms: the sorted eigenvalues of
    polycompanion's matrix, or the one root of a linear polynomial."""
    n = len(terms) - 1
    if n > 1:
        matrix = np.zeros((n, n))
        matrix.reshape(-1)[n::n + 1] = 1
        matrix[:, -1] -= np.divide(terms[:-1], terms[-1])
        return np.sort(np.linalg.eigvals(matrix)).tolist()
    return [-terms[0] / terms[1]] if n else []


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
