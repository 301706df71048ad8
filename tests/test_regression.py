"""Least-squares fitting and cross-validated degree selection, checked
against explicit normal-equations and materialized-fold oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfopt.regression import (
    SampleSet,
    _design,
    _least_squares,
    _raw_coefficients,
    fit_polynomial,
    kfold_cv_error,
    select_degree_and_fit,
)


def _rescale_like_fit(positions):
    lo, hi = positions.min(), positions.max()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if half == 0.0:
        half = 1.0
    return (positions - mid) / half, mid, half


def _normal_equations_fit(positions, losses, degree):
    """Independent oracle: explicit normal equations on the rescaled basis."""
    scaled, mid, half = _rescale_like_fit(positions)
    design = np.vander(scaled, degree + 1, increasing=True)
    gram = design.T @ design
    coef = np.linalg.solve(gram, design.T @ losses)
    return coef, design, gram, mid, half


def test_exact_quadratic_interpolation():
    positions = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    fit = fit_polynomial(2, SampleSet(positions, positions**2))
    np.testing.assert_allclose(fit.coefficients, [0.0, 0.0, 1.0], atol=1e-8)


def test_degree_zero_is_mean():
    fit = fit_polynomial(0, SampleSet(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(fit.coefficients, [2.0], atol=1e-12)


def test_rejects_nonfinite_and_underdetermined():
    with pytest.raises(ValueError):
        SampleSet(np.array([0.0, np.inf]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_polynomial(3, SampleSet(np.array([0.0, 1.0]), np.array([1.0, 2.0])))


def test_cubic_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(123)
    positions = rng.uniform(0.0, 3.0, 500)
    sigma = 0.05
    losses = 0.1 + (positions - 1.0) ** 2 * (0.5 + 0.2 * positions)
    losses += rng.normal(scale=sigma, size=positions.size)

    fit = fit_polynomial(3, SampleSet(positions, losses))
    oracle_coef, design, gram, mid, half = _normal_equations_fit(positions, losses, 3)

    # our raw-position polynomial mapped into the oracle's rescaled basis
    ours = np.polynomial.Polynomial(fit.coefficients)(
        np.polynomial.Polynomial([mid, half])
    ).coef
    ours = np.pad(ours, (0, 4 - ours.size))

    residual = design @ oracle_coef - losses
    dof = positions.size - 4
    sigma_hat2 = float(residual @ residual) / dof
    stderr = np.sqrt(sigma_hat2 * np.diag(np.linalg.inv(gram)))
    np.testing.assert_array_less(np.abs(ours - oracle_coef), 3.0 * stderr)


def test_residual_orthogonality():
    rng = np.random.default_rng(3)
    for degree in (1, 3, 5):
        positions = rng.uniform(-2.0, 4.0, 120)
        losses = rng.normal(size=120)
        fit = fit_polynomial(degree, SampleSet(positions, losses))
        scaled, _, _ = _rescale_like_fit(positions)
        design = np.vander(scaled, degree + 1, increasing=True)
        residual = fit(positions) - losses
        for j in range(degree + 1):
            col = design[:, j]
            inner = abs(float(residual @ col))
            assert inner <= 1e-6 * (np.linalg.norm(residual) * np.linalg.norm(col) + 1e-12)


def test_full_degree_interpolates():
    rng = np.random.default_rng(9)
    for n in (3, 5, 9):
        positions = np.sort(rng.uniform(-1.0, 2.0, n))
        losses = rng.uniform(-5.0, 5.0, n)
        fit = fit_polynomial(n - 1, SampleSet(positions, losses))
        np.testing.assert_allclose(fit(positions), losses, rtol=1e-6, atol=1e-6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    coef=st.lists(
        st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=11,
    ),
    zero_leading=st.booleans(),
    log_half=st.floats(-4.0, 3.0),
    offset_in_halves=st.sampled_from([0.0, -0.5, 3.0, 1e3, -1e3]),
    shift=st.floats(-1.0, 1.0),
)
def test_raw_mapping_matches_polynomial_composition(coef, zero_leading, log_half,
                                                    offset_in_halves, shift):
    # Reference: compose q with u = (s - mid) / half through np.polynomial,
    # padding the trailing zeros it trims. The Horner loop must agree bit
    # for bit, so that refits, and the decisions made on them, do not move.
    coef = np.array(coef)
    if zero_leading:
        coef[-1] = 0.0
    half = 10.0**log_half
    mid = half * (offset_in_halves + shift)
    u = np.polynomial.Polynomial([-mid / half, 1.0 / half])
    reference = np.polynomial.Polynomial(coef)(u).coef
    reference = np.pad(reference, (0, coef.size - reference.size))
    ours = _raw_coefficients(coef, mid, half)
    np.testing.assert_array_equal(ours, reference)
    np.testing.assert_array_equal(np.signbit(ours), np.signbit(reference))


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_perfect_linear_model_has_zero_cv_error():
    positions = np.linspace(0.0, 5.0, 60)
    losses = 2.0 * positions + 1.0
    err = kfold_cv_error(1, SampleSet(positions, losses), 5, np.random.default_rng(0))
    assert err < 1e-12


def test_underfit_has_positive_cv_error():
    positions = np.linspace(0.0, 5.0, 60)
    losses = 2.0 * positions + 1.0
    err = kfold_cv_error(0, SampleSet(positions, losses), 5, np.random.default_rng(0))
    assert err > 0.1


def _explicit_fold_cv(positions, losses, degree, folds, seed):
    """Materialize every fold explicitly and refit with the oracle solver."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(positions.size)
    parts = np.array_split(perm, folds)
    errors = []
    for test_idx in parts:
        train_mask = np.ones(positions.size, dtype=bool)
        train_mask[test_idx] = False
        p_train, l_train = positions[train_mask], losses[train_mask]
        coef, _, _, mid, half = _normal_equations_fit(p_train, l_train, degree)
        predictions = np.vander((positions[test_idx] - mid) / half, degree + 1, increasing=True) @ coef
        errors.append(float(np.mean((predictions - losses[test_idx]) ** 2)))
    return float(np.mean(errors))


def test_cv_errors_match_explicit_fold_oracle():
    rng = np.random.default_rng(21)
    positions = rng.uniform(0.0, 2.5, 500)
    losses = 0.3 - 0.8 * positions + 0.9 * positions**2 - 0.25 * positions**3
    losses += rng.normal(scale=0.05, size=positions.size)
    samples = SampleSet(positions, losses)
    for degree in range(9):
        ours = kfold_cv_error(degree, samples, 5, np.random.default_rng(degree + 100))
        oracle = _explicit_fold_cv(positions, losses, degree, 5, degree + 100)
        assert ours == pytest.approx(oracle, rel=1e-6)


def test_cv_precondition_errors():
    samples = SampleSet(np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError):
        kfold_cv_error(1, samples, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kfold_cv_error(1, samples, 5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# degree selection
# ---------------------------------------------------------------------------

def test_selects_quadratic_for_exact_parabola():
    rng = np.random.default_rng(0)
    positions = rng.uniform(-2.0, 2.0, 200)
    report = select_degree_and_fit(
        SampleSet(positions, (positions - 1.0) ** 2), 8, 5, np.random.default_rng(1)
    )
    assert report.chosen_degree == 2


def test_selects_constant_for_constant_losses():
    positions = np.linspace(0.0, 1.0, 100)
    report = select_degree_and_fit(
        SampleSet(positions, np.full(100, 3.5)), 8, 5, np.random.default_rng(1)
    )
    assert report.chosen_degree == 0


def _enumerate_stop_rule(positions, losses, max_degree, folds, seed):
    """Independent enumeration of the stop rule on the same fold split."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(positions.size)
    parts = np.array_split(perm, folds)

    def error_for(degree):
        errs = []
        for test_idx in parts:
            mask = np.ones(positions.size, dtype=bool)
            mask[test_idx] = False
            coef, _, _, mid, half = _normal_equations_fit(positions[mask], losses[mask], degree)
            pred = np.vander((positions[test_idx] - mid) / half, degree + 1, increasing=True) @ coef
            errs.append(float(np.mean((pred - losses[test_idx]) ** 2)))
        return float(np.mean(errs))

    last = np.inf
    for degree in range(max_degree + 1):
        err = error_for(degree)
        if last < err:
            return degree - 1
        if degree == max_degree:
            return max_degree
        last = err
    return max_degree


def test_chosen_degree_matches_rule_enumeration_oracle():
    rng = np.random.default_rng(77)
    positions = rng.uniform(0.0, 2.0, 400)
    true = 0.2 + 0.5 * positions - 1.1 * positions**2 + 0.8 * positions**3 \
        - 0.3 * positions**4 + 0.05 * positions**5
    losses = true + rng.normal(scale=0.03, size=positions.size)
    samples = SampleSet(positions, losses)
    for seed in range(5):
        report = select_degree_and_fit(samples, 10, 5, np.random.default_rng(seed))
        oracle = _enumerate_stop_rule(positions, losses, 10, 5, seed)
        assert report.chosen_degree == oracle
        assert report.cv_test_errors.size >= report.chosen_degree + 1


@pytest.mark.parametrize("n", [11, 60, 501])
def test_refit_on_the_sweeps_design_is_fit_polynomials_bit_for_bit(n):
    # np.vander's columns are running products, so the first d + 1 columns of
    # the sweep's 11-column design are fit_polynomial's own design.
    rng = np.random.default_rng(n)
    positions = rng.uniform(0.0, 3.0, n)
    losses = np.cos(2.0 * positions) + rng.normal(scale=0.1, size=n)
    samples = SampleSet(positions, losses)
    design, mid, half = _design(positions, 11)
    for degree in range(11):
        refit = _least_squares(design[:, : degree + 1], mid, half, losses)
        want = fit_polynomial(degree, samples)
        assert refit.coefficients.tobytes() == want.coefficients.tobytes()


def test_selection_refits_its_chosen_degree_as_fit_polynomial_does():
    rng = np.random.default_rng(5)
    chosen = set()
    for true_degree in range(9):
        positions = rng.uniform(0.0, 2.0, 300)
        losses = np.polynomial.polynomial.polyval(positions - 1.0, rng.normal(size=true_degree + 1))
        samples = SampleSet(positions, losses + rng.normal(scale=1e-3, size=positions.size))
        report = select_degree_and_fit(samples, 10, 5, rng)
        want = fit_polynomial(report.chosen_degree, samples)
        assert report.polynomial.coefficients.tobytes() == want.coefficients.tobytes()
        chosen.add(report.chosen_degree)
    assert len(chosen) > 5


def test_exact_polynomials_pick_their_true_degree():
    # 1 + s + ... + s^d on [0, 2]: each degree up to d fits clearly better
    # than the one below, and every degree from d up fits to rounding noise,
    # in which the stop rule must not read an order.
    positions = np.random.default_rng(0).uniform(0.0, 2.0, 200)
    for true_degree in range(5):
        losses = np.polynomial.polynomial.polyval(positions, np.ones(true_degree + 1))
        samples = SampleSet(positions, losses)
        chosen = [
            select_degree_and_fit(samples, 8, 5, np.random.default_rng(seed)).chosen_degree
            for seed in range(40)
        ]
        assert chosen == [true_degree] * 40


def test_all_equal_positions_give_the_mean():
    losses = np.random.default_rng(4).normal(size=20)
    report = select_degree_and_fit(SampleSet(np.zeros(20), losses), 10, 5, np.random.default_rng(0))
    assert report.chosen_degree == 0
    np.testing.assert_allclose(report.polynomial.coefficients, [losses.mean()], rtol=1e-12)


def test_degree_capped_by_distinct_positions():
    rng = np.random.default_rng(6)
    positions = np.tile([0.0, 0.5, 2.0], 10)
    losses = positions**3 + rng.normal(scale=0.1, size=positions.size)
    for seed in range(20):
        report = select_degree_and_fit(SampleSet(positions, losses), 10, 5, np.random.default_rng(seed))
        assert report.chosen_degree <= 2


def test_near_degenerate_samples_keep_the_reference_degrees():
    # Chosen degrees at fold seeds 0-19 from the previous implementation,
    # which factorized every training fold on its own and capped the sweep
    # by the distinct positions in the poorest training fold. Each set has a
    # column that some training fold, or all samples, can barely or not at
    # all determine.
    clusters = np.random.default_rng(0)
    sets = {
        "1 and 1+1e-15": (np.r_[np.zeros(30), np.ones(30), 1 + 1e-15, 0.5], "1" * 20),
        "1e-12-wide clusters": (np.r_[clusters.uniform(0.0, 1e-12, 30),
                                      1.0 + clusters.uniform(0.0, 1e-12, 30)],
                                "11111111211111113311"),
        "1e-9-wide cluster and one far point": (np.r_[np.linspace(0.0, 1e-9, 60), 1.0],
                                                "0" * 20),
        "all zero": (np.zeros(20), "0" * 20),
        "3 distinct repeated": (np.tile([0.0, 0.5, 2.0], 10), "2" * 20),
    }
    for name, (positions, expected) in sets.items():
        losses = positions**2 + 0.1 * np.random.default_rng(1).normal(size=positions.size)
        samples = SampleSet(positions, losses)
        chosen = "".join(
            str(select_degree_and_fit(samples, 10, 5, np.random.default_rng(seed)).chosen_degree)
            for seed in range(20)
        )
        assert chosen == expected, name


def test_selection_rejects_bad_fold_counts_and_negative_max_degree():
    samples = SampleSet(np.linspace(0.0, 1.0, 20), np.linspace(0.0, 1.0, 20) ** 2)
    for max_degree, folds in ((10, 1), (-1, 5), (10, 21)):
        with pytest.raises(ValueError):
            select_degree_and_fit(samples, max_degree, folds, np.random.default_rng(0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(5, 300),
    folds=st.integers(2, 10),
    max_degree=st.integers(0, 10),
    log_span=st.floats(-4.0, 3.0),
    offset_in_spans=st.sampled_from([0.0, -0.5, 3.0, 1e3]),
    noise=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**16),
)
def test_cv_errors_and_chosen_degree_match_oracles(
    n, folds, max_degree, log_span, offset_in_spans, noise, seed
):
    folds = min(folds, n)
    rng = np.random.default_rng(seed)
    span = 10.0**log_span
    unit = rng.uniform(0.0, 1.0, n)
    positions = span * (offset_in_spans + unit)
    curve = np.polynomial.polynomial.polyval(unit, rng.normal(size=rng.integers(1, 6)))
    losses = curve + noise * rng.normal(size=n)

    report = select_degree_and_fit(SampleSet(positions, losses), max_degree, folds,
                                   np.random.default_rng(seed))
    for degree, error in enumerate(report.cv_test_errors):
        assert error == pytest.approx(_explicit_fold_cv(positions, losses, degree, folds, seed),
                                      rel=1e-6)
    smallest_train = n - int(np.ceil(n / folds))   # positions are distinct
    capped = min(max_degree, smallest_train - 1)
    assert report.chosen_degree == _enumerate_stop_rule(positions, losses, capped, folds, seed)


@pytest.mark.parametrize("exponent", [-1000, -60, 0, 60, 700, 1000])
def test_losses_scaled_by_a_power_of_two_decide_alike(exponent):
    # Losses near the float range's top once overflowed the CV sweep, and
    # near its bottom underflowed it to zero errors.
    rng = np.random.default_rng(21)
    positions = rng.uniform(0.0, 2.0, 101)
    losses = 1.0 + (positions - 0.7) ** 2 + rng.normal(scale=0.05, size=101)
    scaled = SampleSet(positions, np.ldexp(losses, exponent))
    base = select_degree_and_fit(SampleSet(positions, losses), 10, 5, np.random.default_rng(3))
    report = select_degree_and_fit(scaled, 10, 5, np.random.default_rng(3))
    assert base.chosen_degree == 2 and report.chosen_degree == base.chosen_degree
    with np.errstate(over="ignore"):
        want = np.ldexp(base.cv_test_errors, 2 * exponent)
    assert report.cv_test_errors.tobytes() == want.tobytes()
    error = kfold_cv_error(2, scaled, 5, np.random.default_rng(3))
    assert error == want[2]


def test_selection_is_deterministic():
    rng = np.random.default_rng(5)
    positions = rng.uniform(0.0, 2.0, 150)
    losses = positions**2 + rng.normal(scale=0.1, size=150)
    samples = SampleSet(positions, losses)
    a = select_degree_and_fit(samples, 10, 5, np.random.default_rng(42))
    b = select_degree_and_fit(samples, 10, 5, np.random.default_rng(42))
    assert a.chosen_degree == b.chosen_degree
    np.testing.assert_array_equal(a.polynomial.coefficients, b.polynomial.coefficients)
    np.testing.assert_array_equal(a.cv_test_errors, b.cv_test_errors)


def test_training_error_nonincreasing_up_to_chosen_degree():
    rng = np.random.default_rng(13)
    positions = rng.uniform(0.0, 2.0, 300)
    losses = np.sin(positions * 2.0) + rng.normal(scale=0.05, size=300)
    samples = SampleSet(positions, losses)
    report = select_degree_and_fit(samples, 10, 5, np.random.default_rng(2))
    previous = np.inf
    for degree in range(report.chosen_degree + 1):
        fit = fit_polynomial(degree, samples)
        training_error = float(np.mean((fit(positions) - losses) ** 2))
        assert training_error <= previous + 1e-12
        previous = training_error
