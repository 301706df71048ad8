"""Polynomial evaluation, calculus, and bracketed root/minimum location."""

import ast
import warnings
from pathlib import Path

import numpy as np
import poly_reference as reference
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import elfopt
from elfopt.poly import (
    Polynomial,
    closest_minimum_to_zero,
    derivative,
    evaluate,
    real_roots_in,
    solve_for_value_nearest,
)


def test_evaluate_constant():
    assert evaluate(Polynomial([1.0]), 7.0) == 1.0


def test_evaluate_square():
    assert evaluate(Polynomial([0.0, 0.0, 1.0]), 3.0) == 9.0


def test_evaluate_at_root():
    assert evaluate(Polynomial([1.0, -2.0, 1.0]), 1.0) == 0.0


def test_evaluate_array_input():
    p = Polynomial([1.0, -2.0, 1.0])
    np.testing.assert_allclose(evaluate(p, np.array([0.0, 1.0, 2.0])), [1.0, 0.0, 1.0])


def test_derivative_of_shifted_square():
    np.testing.assert_array_equal(derivative(Polynomial([1.0, -2.0, 1.0])).coefficients, [-2.0, 2.0])


def test_derivative_of_constant_is_zero_polynomial():
    np.testing.assert_array_equal(derivative(Polynomial([5.0])).coefficients, [0.0])


def test_derivative_of_cubic():
    np.testing.assert_array_equal(
        derivative(Polynomial([0.0, 0.0, 0.0, 1.0])).coefficients, [0.0, 0.0, 3.0]
    )


def test_invalid_coefficients_rejected():
    with pytest.raises(ValueError):
        Polynomial([])
    with pytest.raises(ValueError):
        Polynomial([1.0, np.nan])


# ---------------------------------------------------------------------------
# minimum location
# ---------------------------------------------------------------------------

def test_parabola_vertex():
    found = closest_minimum_to_zero(Polynomial([1.0, -2.0, 1.0]), (0.0, 10.0))
    assert found is not None
    s, value = found
    assert abs(s - 1.0) < 1e-9
    assert abs(value) < 1e-12


def test_linear_has_no_minimum():
    assert closest_minimum_to_zero(Polynomial([0.0, 1.0]), (0.0, 10.0)) is None


def test_constant_has_no_minimum():
    assert closest_minimum_to_zero(Polynomial([3.0]), (0.0, 10.0)) is None


def _dense_grid_local_minimum_nearest_zero(p, lo, hi, resolution=1e-5):
    """Independent brute force: scan p on a dense grid and return the local
    minimum with smallest |s|."""
    grid = np.arange(lo, hi + resolution, resolution)
    values = evaluate(p, grid)
    interior = np.nonzero((values[1:-1] < values[:-2]) & (values[1:-1] < values[2:]))[0] + 1
    if interior.size == 0:
        return None
    return grid[interior[np.argmin(np.abs(grid[interior]))]]


def test_quartic_minimum_matches_dense_grid_oracle():
    # Each case lists the roots of p'; the first is the minimum nearest zero.
    # (0.5, 2, 3.5): minima at 0.5 and 3.5, maximum at 2.
    # (0.50031, 0.50072, 3): a minimum and a maximum 4.1e-4 apart, closer
    # than one cell of a 10,000-cell scan of (0, 10).
    for derivative_roots in ((0.5, 2.0, 3.5), (0.50031, 0.50072, 3.0)):
        p = Polynomial(npoly.polyint(npoly.polyfromroots(derivative_roots)))
        dp = derivative(p)
        np.testing.assert_allclose(evaluate(dp, np.array(derivative_roots)), 0.0, atol=1e-12)

        oracle = _dense_grid_local_minimum_nearest_zero(p, 0.0, 10.0)
        found = closest_minimum_to_zero(p, (0.0, 10.0))
        assert found is not None
        assert abs(found[0] - oracle) < 1e-4
        assert abs(found[0] - derivative_roots[0]) < 1e-6


def test_minimum_skips_a_double_root_of_the_derivative():
    # p' = (s - r)^2 (s - 3) keeps its sign through r: a flat inflection of
    # p, not a minimum. The double root of (s - 1)^2 comes back as two reals
    # about 1e-8 apart, with rounding noise for the sign between them.
    for double_root in (1.0, 0.7):
        p = Polynomial(npoly.polyint(npoly.polyfromroots((double_root, double_root, 3.0))))
        found = closest_minimum_to_zero(p, (0.0, 5.0))
        assert found is not None
        assert found[0] == pytest.approx(3.0, abs=1e-9)


def test_minimum_is_rising_derivative_crossing_and_closest_to_zero():
    rng = np.random.default_rng(11)
    for _ in range(50):
        coef = rng.uniform(-3.0, 3.0, size=rng.integers(3, 7))
        p = Polynomial(coef)
        found = closest_minimum_to_zero(p, (0.0, 5.0))
        if found is None:
            continue
        s, _ = found
        dp = derivative(p)
        eps = 1e-6
        assert evaluate(dp, s - eps) < 0.0 < evaluate(dp, s + eps)
        # no rising crossing strictly between 0 and s
        grid = np.linspace(0.0, s - eps, 2000)
        dvals = evaluate(dp, grid)
        rising = (dvals[:-1] < 0.0) & (dvals[1:] >= 0.0)
        assert not rising.any()


# ---------------------------------------------------------------------------
# real roots
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    first=st.floats(-2.0, 7.0),
    gaps=st.lists(st.floats(0.5, 3.0), max_size=9),
    log_scale=st.floats(-3.0, 3.0),
)
def test_real_roots_in_returns_exactly_the_planted_roots(first, gaps, log_scale):
    planted = first + np.cumsum([0.0, *gaps])
    planted = planted[planted <= 7.0]
    # A root on a bracket end may round to either side of it.
    assume(np.all(np.minimum(np.abs(planted), np.abs(planted - 5.0)) > 1e-6))
    p = Polynomial(10.0**log_scale * npoly.polyfromroots(planted))

    found = real_roots_in(p, (0.0, 5.0))

    expected = planted[(planted >= 0.0) & (planted <= 5.0)]
    assert found.shape == expected.shape
    np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-8)


def test_real_roots_in_a_huge_bracket_whose_companion_matrix_overflows():
    # A fit over steps up to ~1e100 maps back to raw coefficients that span
    # ~400 orders of magnitude: here p(s) = 1e100 * q(s / 2**333) with q's
    # roots at 0.25, 0.75, 3 and -2, so -c[:-1] / c[-1] holds inf. The
    # pytest config turns any RuntimeWarning into an error.
    scale_exponent = 333
    q = npoly.polyfromroots([0.25, 0.75, 3.0, -2.0])
    coef = np.ldexp(1e100 * q, -scale_exponent * np.arange(q.size))
    with np.errstate(over="ignore"):
        assert not np.isfinite(coef[:-1] / coef[-1]).all()

    found = real_roots_in(Polynomial(coef), (0.0, np.ldexp(1.0, scale_exponent + 1)))

    np.testing.assert_allclose(np.ldexp(found, -scale_exponent), [0.25, 0.75], rtol=1e-12)


@pytest.mark.parametrize("coef, bracket", [
    ([1.0, 2.5e-251, 1.0, 6.5e-180], (0.0, 1.0)),
    ([-0.0, -9.3e-56, -8.7e-211], (-1.07e155, 0.0)),
], ids=["newton-step-to-4e250", "roots-near-1e155"])
def test_newton_polish_past_the_float_range_returns_the_roots_without_a_warning(coef, bracket):
    # The polish evaluates p at s**k: the first case's Newton step from its
    # eigenvalue lands near -4e250, the second's root lies near 1e155, and
    # both overflow there. numpy.polynomial's reference warns of it; the
    # kernel must not, and must return what the reference does.
    p = Polynomial(coef)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        roots = real_roots_in(p, bracket)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference.real_roots_in(p, bracket)
    assert roots.tobytes() == expected.tobytes()
    if coef[0] == 0.0:
        # p(s) = -s (9.3e-56 + 8.7e-211 s): roots at 0 and -9.3e-56 / 8.7e-211.
        np.testing.assert_allclose(roots, [-9.3e-56 / 8.7e-211, 0.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# |p(s)| = target solves
# ---------------------------------------------------------------------------

def test_solve_tie_breaks_to_larger_s():
    s = solve_for_value_nearest(Polynomial([1.0, -2.0, 1.0]), 0.25, 1.0, (0.0, 4.0))
    assert abs(s - 1.5) < 1e-8


def test_solve_square_root():
    s = solve_for_value_nearest(Polynomial([0.0, 0.0, 1.0]), 4.0, 0.0, (0.0, 10.0))
    assert abs(s - 2.0) < 1e-8


def test_solve_absent_when_unreachable():
    assert solve_for_value_nearest(Polynomial([0.0]), 1.0, 0.0, (0.0, 4.0)) is None


def test_solve_matches_dense_grid_oracle_on_fitted_cubic():
    from elfopt.regression import SampleSet, fit_polynomial

    rng = np.random.default_rng(5)
    positions = rng.uniform(0.0, 3.0, 400)
    losses = 0.1 + (positions - 1.0) ** 2 * (0.5 + 0.2 * positions)
    losses += rng.normal(scale=0.05, size=positions.size)
    fit = fit_polynomial(3, SampleSet(positions, losses))

    target = float(np.quantile(losses, 0.75))
    anchor = 1.0
    s = solve_for_value_nearest(fit, target, anchor, (0.0, 3.0))
    assert s is not None

    resolution = 1e-5
    grid = np.arange(0.0, 3.0 + resolution, resolution)
    residual = np.abs(evaluate(fit, grid)) - target
    crossings = grid[np.nonzero(residual[:-1] * residual[1:] <= 0.0)[0]]
    assert crossings.size
    distance = np.abs(crossings - anchor)
    best = crossings[distance <= distance.min() + resolution].max()
    assert abs(s - best) < 1e-4


def test_solve_value_accuracy_after_refinement():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(50):
        coef = rng.uniform(-2.0, 2.0, size=rng.integers(2, 6))
        p = Polynomial(coef)
        target = abs(float(evaluate(p, rng.uniform(0.0, 3.0)))) + 0.1
        s = solve_for_value_nearest(p, target, 0.5, (0.0, 3.0))
        if s is None:
            continue
        hits += 1
        assert abs(abs(evaluate(p, s)) - target) <= 1e-8
    assert hits > 10


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def _naive_power_sum(coef, s):
    return sum(c * s**i for i, c in enumerate(coef))


def test_horner_matches_naive_power_sum():
    rng = np.random.default_rng(42)
    for _ in range(200):
        coef = rng.uniform(-10.0, 10.0, size=rng.integers(1, 12))
        s = rng.uniform(-10.0, 10.0)
        expected = _naive_power_sum(coef, s)
        got = evaluate(Polynomial(coef), s)
        assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        coef = rng.uniform(-5.0, 5.0, size=rng.integers(1, 9))
        p = Polynomial(coef)
        dp = derivative(p)
        s = rng.uniform(-3.0, 3.0)
        fd = (evaluate(p, s + h) - evaluate(p, s - h)) / (2.0 * h)
        assert abs(evaluate(dp, s) - fd) <= 1e-5 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# bit identity with numpy.polynomial
# ---------------------------------------------------------------------------

@st.composite
def _coefficients_and_bracket(draw):
    """Plain coefficient lists of degree 0-10; products of planted roots,
    bracket ends and double roots among them; and the same products on a
    bracket of scale 2**e whose raw coefficients span past the float range,
    which takes real_roots_in's rescaled branch. Some get trailing zeros."""
    lo = draw(st.sampled_from([0.0, -1.0, 0.25]))
    hi = lo + draw(st.floats(0.5, 8.0))
    kind = draw(st.sampled_from(["plain", "roots", "span"]))
    if kind == "plain":
        coef = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=11)))
    else:
        roots = draw(st.lists(st.sampled_from([lo, hi]) | st.floats(lo - 1.0, hi + 1.0),
                              min_size=1, max_size=5))
        roots += draw(st.lists(st.sampled_from(roots), max_size=5))
        coef = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
        coef = coef * npoly.polyfromroots(roots)
        if kind == "span" and len(roots) > 1:
            # p(s) = 1e100 * q(s / 2**e) with the leading coefficient still a
            # float and the companion entries c[i] / c[-1] past it.
            e = -(-draw(st.integers(1030, 1300)) // len(roots))
            coef = np.ldexp(1e100 * coef, -e * np.arange(coef.size))
            lo, hi = np.ldexp(lo, e), np.ldexp(hi, e)
            with np.errstate(over="ignore"):
                assume(not np.isfinite(coef[:-1] / coef[-1]).all())
    coef = np.concatenate((coef, np.zeros(draw(st.integers(0, 2)))))
    return coef, (float(lo), float(hi))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_coefficients_and_bracket(), s=st.floats(-20.0, 20.0),
       target=st.floats(0.0, 5.0), anchor_share=st.floats(0.0, 1.0))
@example(case=(np.array([0.5, -2.0]), (0.0, 1.0)), s=-3.0, target=0.1, anchor_share=0.5)
@example(case=(np.array([1.0, -3.0, 2.0, 0.0, 0.0]), (0.0, 3.0)), s=2.5, target=0.5,
         anchor_share=0.0)
@example(case=(npoly.polyfromroots([0.0, 2.0, 2.0]), (0.0, 2.0)), s=-1.0, target=1.0,
         anchor_share=1.0)
@example(case=(np.ldexp(1e100 * npoly.polyfromroots([0.25, 0.75, 3.0, -2.0]),
                        -333 * np.arange(5)), (0.0, np.ldexp(1.0, 334))),
         s=7.0, target=0.0, anchor_share=0.3)
@example(case=(np.array([-5.0, 0.0]), (0.0, 1.0)), s=0.0, target=5.0, anchor_share=0.5)
def test_kernel_returns_numpy_polynomials_bits(case, s, target, anchor_share):
    coef, bracket = case
    p = Polynomial(coef)
    points = np.array([bracket[0], bracket[1], s, -s, 0.5 * (bracket[0] + bracket[1])])

    anchor = bracket[0] + anchor_share * (bracket[1] - bracket[0])
    # Inputs on which the reference itself overflows (an ill-conditioned
    # root's Newton step, say) are out of scope; on the rest, the kernel
    # must run without a warning too, as the pytest config makes it an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            roots = [reference.real_roots_in(q, bracket) for q in (p, derivative(p))]
            minimum = reference.closest_minimum_to_zero(p, bracket)
            solve = reference.solve_for_value_nearest(p, target, anchor, bracket)
        except RuntimeWarning:
            reject()

    assert derivative(p).coefficients.tobytes() == npoly.polyder(coef).tobytes()
    assert evaluate(p, s).hex() == float(npoly.polyval(s, coef)).hex()
    assert evaluate(p, -s).hex() == float(npoly.polyval(-s, coef)).hex()
    assert evaluate(p, points).tobytes() == npoly.polyval(points, coef).tobytes()
    for q, expected in zip((p, derivative(p)), roots):
        assert np.array_equal(real_roots_in(q, bracket), expected)
    assert closest_minimum_to_zero(p, bracket) == minimum
    assert solve_for_value_nearest(p, target, anchor, bracket) == solve


def test_solve_still_rejects_a_bad_bracket():
    with pytest.raises(ValueError):
        solve_for_value_nearest(Polynomial([1.0, 1.0]), -1.0, 0.0, (1.0, 1.0))


def test_no_module_of_the_package_imports_numpy_polynomial():
    paths = sorted(Path(elfopt.__file__).parent.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "polynomial":
                names = [f"{ast.unparse(node.value)}.polynomial"]
            else:
                continue
            offenders += [(path.name, name) for name in names
                          if name.split(".")[:2] in (["numpy", "polynomial"], ["np", "polynomial"])]
    assert offenders == []
