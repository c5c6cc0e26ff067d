"""Bound engine: the universal constant, the bound formula, ordering search."""

from __future__ import annotations

import dataclasses
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nsbound import (
    SPECTRAL_CONSTANT,
    GaussianRational,
    LaurentPoly,
    PolyMatrix,
    analyze,
    best_ordering,
    bound_coefficient,
    ns_lower_bound,
    parse_matrix,
    parse_poly,
    width_profile,
)
from nsbound import matrices
from nsbound.matrices import ZeroMatrixError

from conftest import (
    EXAMPLE_MATRIX_TEXT,
    RANK3_LEFT,
    RANK3_RIGHT,
    count_swept_minors,
    matrix_product,
    random_poly,
)
from lemmas import decimal_bound, rescale_lambda


def _power_report(k: int, d: int, wd: int, lead_abs: float, b_l1: float):
    """The reference report with the minor and profile that give these constants.

    Its minor has k rows and ||B||_1 = b_l1, and its profile is that of
    lead_abs * z1^wd + 1 in d variables, wd >= 1: the widths
    (0, ..., 0, wd) give wd, the lead is lead_abs, and d is read from it.
    """
    p = LaurentPoly(d, {(wd,) + (0,) * (d - 1): Fraction(lead_abs), (0,) * d: 1})
    rep = analyze(parse_matrix(EXAMPLE_MATRIX_TEXT))
    rows = tuple(range(k))
    minor = dataclasses.replace(rep.minor, row_set=rows, col_set=rows, b_l1=b_l1)
    report = dataclasses.replace(rep, minor=minor, profile=width_profile(p))
    assert (report.k, report.dim, report.profile.wd, report.lead_abs) == (k, d, wd, lead_abs)
    return report


def test_constant_squared_relation():
    assert SPECTRAL_CONSTANT**2 * 47 == pytest.approx(192.0, rel=1e-12)
    # eight-digit enclosure of 8*sqrt(3)/sqrt(47)
    assert 2.0211645 <= SPECTRAL_CONSTANT <= 2.0211647


def test_cosine_chord_inequality():
    # (47/48) x^2 <= 2 - 2 cos(x) on [-1/2, 1/2], the estimate the constant
    # rests on; checked densely
    x = np.linspace(-0.5, 0.5, 100001)
    assert np.all(47.0 / 48.0 * x * x <= 2.0 - 2.0 * np.cos(x))


def test_matrix_bound_example_coefficient():
    params = dict(k=2, d=2, wd=2, lead_abs=2.0, b_l1=18.0)
    coeff = bound_coefficient(**params)
    assert coeff == pytest.approx(192.0 * math.sqrt(2.0) / math.sqrt(47.0), rel=1e-12)
    lam = 0.37
    assert _power_report(**params).bound_at(lam) == pytest.approx(coeff * lam**0.25, rel=1e-12)


def test_matrix_bound_zero_at_zero():
    assert _power_report(k=3, d=2, wd=4, lead_abs=1.5, b_l1=7.0).bound_at(0.0) == 0.0


def test_matrix_bound_trivial_prefactor():
    report = _power_report(k=1, d=1, wd=1, lead_abs=1.0, b_l1=123.0)
    assert report.bound_at(1.0) == pytest.approx(SPECTRAL_CONSTANT, rel=1e-12)


def test_matrix_bound_monotone_in_lambda():
    report = _power_report(k=2, d=3, wd=2, lead_abs=0.7, b_l1=3.0)
    lams = np.linspace(0, 5, 200)
    vals = [report.bound_at(x) for x in lams]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_matrix_bound_rejects_step_case():
    with pytest.raises(ValueError, match="step case"):
        bound_coefficient(k=1, d=1, wd=0, lead_abs=1.0, b_l1=1.0)


@pytest.mark.parametrize(
    "k, d, wd, lead_abs, b_l1, match",
    [
        (0, 1, 1, 1.0, 1.0, "k >= 1"),
        (1, 0, 1, 1.0, 1.0, "d >= 1"),
        (1, 1, -1, 1.0, 1.0, "wd >= 0"),
        (1, 1, 1, 0.0, 1.0, "lead_abs > 0"),
        (1, 1, 1, -2.0, 1.0, "lead_abs > 0"),
        (1, 1, 1, 1.0, -0.5, "b_l1 >= 0"),
    ],
)
def test_bound_coefficient_rejects_bad_constants(k, d, wd, lead_abs, b_l1, match):
    with pytest.raises(ValueError, match=match):
        bound_coefficient(k, d, wd, lead_abs, b_l1)


def _scalar_bound(d: int, wd: int, lead_abs: float, lam: float) -> float:
    """The bound for k = 1, through the library's one formula."""
    return bound_coefficient(1, d, wd, lead_abs, 1.0) * lam ** (1.0 / (d * wd))


def test_scalar_bound_linear_case():
    lam = 0.8
    assert _scalar_bound(1, 1, 1.0, lam) == pytest.approx(
        SPECTRAL_CONSTANT * lam, rel=1e-12
    )


def test_scalar_bound_power_case():
    for r in (1, 2, 3, 5):
        lam = 0.3
        assert _scalar_bound(1, r, 1.0, lam) == pytest.approx(
            SPECTRAL_CONSTANT * r * lam ** (1.0 / r), rel=1e-12
        )


def test_scalar_bound_at_lead():
    assert _scalar_bound(2, 3, 0.42, 0.42) == pytest.approx(
        SPECTRAL_CONSTANT * 6, rel=1e-12
    )


def test_ns_lower_bound_values():
    assert ns_lower_bound(2, 2) == 0.25
    assert ns_lower_bound(1, 1) == 1.0
    assert ns_lower_bound(3, 0) == math.inf


def test_rescale_lambda_values():
    assert rescale_lambda(1, 99.0, 0.7) == 0.7
    assert rescale_lambda(2, 18.0, 1.3) == pytest.approx(72 * 1.3, rel=1e-15)
    assert rescale_lambda(2, 1.0, 1.0) == 4.0


def test_constant_is_rounded_up():
    assert Fraction(SPECTRAL_CONSTANT) ** 2 >= Fraction(192, 47)
    assert Fraction(math.nextafter(SPECTRAL_CONSTANT, 0)) ** 2 < Fraction(192, 47)


positive = st.floats(1e-6, 1e6)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6), positive, st.integers(1, 5), st.integers(1, 60), positive,
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1e6, allow_subnormal=False)),
)
# (k^2*b1)^(k-1) / lead, about 8.1e401, leaves the float range; the coefficient does not
@example(3, 1e200, 3, 1, 1.0, 1e-300)
# the bound, near 3.2e-312, is subnormal: its one-ulp rounding steps are 5e-324
@example(1, 1.0, 1, 1, 14258.0, 2.2250738585072014e-308)
def test_bound_rounds_up_against_decimal_evaluation(k, b1, d, wd, lead, lam):
    coeff, bound = decimal_bound(k, b1, d, wd, lead, lam)
    got_coeff = Decimal(bound_coefficient(k, d, wd, lead, b1))
    got_bound = Decimal(_power_report(k, d, wd, lead, b1).bound_at(lam))
    # 1e-50 covers the decimal evaluation's own rounding; the excess is tiny,
    # except that a subnormal bound's rounding steps are absolute: two of the
    # smallest subnormal, for the product's rounding and the ulp above it
    assert coeff * (1 - Decimal("1e-50")) <= got_coeff <= coeff * (1 + Decimal("1e-12"))
    excess = bound * Decimal("1e-12") + 2 * Decimal(5e-324)
    assert bound * (1 - Decimal("1e-50")) <= got_bound <= bound + excess
    exact = k ** (2 * k - 2) * Fraction(b1) ** (k - 1) * Fraction(lam)
    up = rescale_lambda(k, b1, lam)
    assert Fraction(up) >= exact > Fraction(math.nextafter(up, -1.0)) or up == exact == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.lists(st.integers(1, 10**6), min_size=4, max_size=4))
def test_step_threshold_rounds_down(k, coeffs):
    # a diagonal of monomials: det(B) is a monomial, so the bound is a step
    rows = [
        ", ".join(f"{c}*z1^{i + 1}" if i == j else "0" for j in range(k))
        for i, c in enumerate(coeffs[:k])
    ]
    rep = analyze(parse_matrix("[[" + "], [".join(rows) + "]]"))
    assert rep.is_step and rep.k == k
    exact = Fraction(rep.lead_abs) / (k ** (2 * k - 2) * Fraction(rep.minor.b_l1) ** (k - 1))
    t = rep.step_threshold_matrix
    assert Fraction(t) <= exact < Fraction(math.nextafter(t, math.inf))


def test_matrix_bound_is_rescaled_scalar_bound():
    # the k = 1 closed form C * d * wd * (lam / lead)^(1/(d*wd)), times k, at
    # the rescaled argument
    rng = random.Random(42)
    for _ in range(1000):
        k = rng.randint(1, 5)
        d = rng.randint(1, 4)
        wd = rng.randint(1, 6)
        lead = rng.uniform(1e-3, 100)
        b1 = rng.uniform(1e-3, 50)
        lam = rng.uniform(0, 10)
        e = 1.0 / (d * wd)
        expected = k * SPECTRAL_CONSTANT * d * wd * (rescale_lambda(k, b1, lam) / lead) ** e
        assert bound_coefficient(k, d, wd, lead, b1) * lam**e == pytest.approx(expected, rel=1e-12)


def test_coefficient_scaling_covariance():
    # multiplying the polynomial by c scales lead_abs by |c| and leaves the
    # exponent untouched
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    A1 = parse_matrix("[[z1^3*z2 + 2*z1*z2^2 - 16]]")
    A2 = parse_matrix("[[3*z1^3*z2 + 6*z1*z2^2 - 48]]")
    r1 = analyze(A1)
    r2 = analyze(A2)
    assert r1.alpha_lower == r2.alpha_lower
    assert r1.profile.wd == r2.profile.wd
    assert r2.lead_abs == pytest.approx(3 * r1.lead_abs, rel=1e-12)


# -- ordering search -----------------------------------------------------------


def test_best_ordering_example_poly():
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    prof = best_ordering(p, "exhaustive")
    assert prof.order == (0, 1)
    assert prof.wd == 2


def test_best_ordering_monomial():
    p = parse_poly("7*z1^2*z2^-3")
    for mode in ("fixed", "exhaustive"):
        assert best_ordering(p, mode).wd == 0


def test_best_ordering_single_variable():
    p = parse_poly("z1^2 - z1^-1")
    prof = best_ordering(p, "exhaustive")
    assert prof.order == (0,)
    assert prof.wd == 3


def test_best_ordering_never_worse_than_fixed():
    rng = random.Random(17)
    for _ in range(100):
        p = random_poly(rng, rng.randint(1, 3), max_terms=6, exp_range=3)
        fixed = best_ordering(p, "fixed")
        ex = best_ordering(p, "exhaustive")
        assert ex.wd <= fixed.wd


def test_best_ordering_dimension_cap():
    p = LaurentPoly.const(9, 1) + LaurentPoly.variable(9, 0)
    with pytest.raises(ValueError):
        best_ordering(p, "exhaustive")


@pytest.mark.parametrize(
    "text, order",
    [
        # all six orders tie on wd and |lead|: the first permutation wins
        ("z1*z2*z3 + 1", (0, 1, 2)),
        # the later order has the smaller wd (1 against 2)
        ("z1 + z2^2 + 3*z1*z2", (1, 0)),
        # equal wd; the later order has the larger |lead| (3 against 1)
        ("3*z1^2 + z2^2", (1, 0)),
    ],
)
def test_best_ordering_tie_rules(text, order):
    assert best_ordering(parse_poly(text), "exhaustive").order == order


# -- analyze -----------------------------------------------------------------


def test_analyze_example(example_matrix):
    rep = analyze(example_matrix)
    assert rep.k == 2
    assert rep.profile.wd == 2
    assert rep.minor.b_l1 == 18.0
    assert rep.lead_abs == pytest.approx(2.0, rel=1e-12)
    assert rep.coefficient == pytest.approx(
        192 * math.sqrt(2) / math.sqrt(47), rel=1e-12
    )
    assert rep.alpha_lower == 0.25
    assert rep.f_zero == 1
    assert not rep.is_step


def test_analyze_monomial_1x1_is_step():
    rep = analyze(parse_matrix("[[(0 - 3i)*z1^4]]"))
    assert rep.is_step
    assert rep.alpha_lower == math.inf
    assert rep.coefficient is None
    assert rep.lead_abs == pytest.approx(3.0, rel=1e-12)
    # k = 1: the matrix-level threshold coincides with the scalar one
    assert rep.step_threshold_matrix == rep.lead_abs
    assert rep.bound_at(2.9) == 0.0
    assert rep.bound_at(3.1) == 1.0


def test_analyze_identity_2x2_step():
    rep = analyze(parse_matrix("[[1, 0], [0, 1]]"))
    assert rep.k == 2
    assert rep.minor.det == LaurentPoly.const(1, 1)
    assert rep.profile.wd == 0
    assert rep.is_step
    assert rep.lead_abs == pytest.approx(1.0, rel=1e-12)
    # the guarantee for the full matrix goes through the norm rescaling
    assert rep.step_threshold_matrix == pytest.approx(0.25, rel=1e-12)


def test_exact_lead_moduli_stay_exact(example_matrix):
    # sqrt(|lead|^2) moves down only when it lands above |lead|
    assert analyze(example_matrix).lead_abs == 2.0
    rep = analyze(parse_matrix("[[1, 0], [0, 1]]"))
    assert f"{rep.step_threshold_matrix:.17g}" == "0.25"


@settings(max_examples=200, deadline=None)
@given(st.fractions(max_denominator=10**9), st.fractions(max_denominator=10**9))
@example(Fraction(2), Fraction(0))
@example(Fraction(3, 7), Fraction(-4, 7))
@example(Fraction(1, 3), Fraction(0))
# the hypot of the rounded parts lands two ulps above |lead| here, and one
# ulp below the largest float <= |lead| in the next example
@example(Fraction(-218534, 773), Fraction(-69719, 262))
@example(Fraction(789079, 258), Fraction(644059, 252))
def test_lead_abs_is_the_largest_float_below_the_modulus(re, im):
    assume(re or im)
    lead = GaussianRational(re, im)
    rep = analyze(PolyMatrix([[LaurentPoly.monomial(1, (1,), lead)]]))
    f = rep.lead_abs
    assert Fraction(f) ** 2 <= lead.abs2() < Fraction(math.nextafter(f, math.inf)) ** 2


def test_step_bound_at_closed_threshold():
    # the step is closed on the left: F - F(0) may reach k at the threshold
    rep = analyze(parse_matrix("[[1, 0], [0, 1]]"))
    assert rep.bound_at(rep.step_threshold_matrix) == rep.k
    assert rep.bound_at(math.nextafter(rep.step_threshold_matrix, 0)) == 0


@pytest.mark.parametrize(
    "text,minor,want",
    [
        (EXAMPLE_MATRIX_TEXT, "first", 6.502057299201859e-06),  # J = {1, 2}, d*wd = 4
        (EXAMPLE_MATRIX_TEXT, "best", 0.015299479166666642),  # J = {2, 3}, d*wd = 2
        ("[[1, 0], [0, 1]]", "first", 0.25),  # a step: the threshold itself
    ],
    ids=["example-first", "example-best", "identity-step"],
)
def test_lambda_star_values(text, minor, want):
    rep = analyze(parse_matrix(text), minor=minor)
    assert rep.lambda_star == want
    if rep.is_step:
        assert rep.lambda_star == rep.step_threshold_matrix


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), positive, st.integers(1, 5), st.integers(1, 60), positive)
def test_lambda_star_is_the_ceiling_crossing_rounded_down(k, b1, d, wd, lead):
    rep = _power_report(k, d, wd, lead, b1)
    exact = (k / Fraction(rep.coefficient)) ** (d * wd)
    got = rep.lambda_star
    assert Fraction(got) <= exact < Fraction(math.nextafter(got, math.inf))


@pytest.mark.parametrize("mode", ["first", "best"])
def test_analyze_raises_when_the_lead_modulus_underflows(mode):
    # |lead| = 10^-400 rounds down to 0.0, which the bound cannot divide by
    p = parse_poly("1/1" + "0" * 400 + " * z1 + 1")
    with pytest.raises(OverflowError, match="underflows"):
        analyze(PolyMatrix([[p]]), minor=mode)


def test_best_minor_drops_a_candidate_whose_lead_modulus_underflows():
    # J = {2}'s |lead| = 10^-400 rounds down to 0.0, so only J = {1}, a step, has a bound
    tiny = parse_poly("1/1" + "0" * 400 + " * z1 + 1")
    A = PolyMatrix([[LaurentPoly.monomial(1, (1,), 1), tiny]])
    best = analyze(A, minor="best")
    assert best.minor.col_set == (0,) and best.is_step and best.lead_abs == 1.0
    assert best == analyze(A, minor="first")


@pytest.mark.parametrize(
    "first, second, message",
    [("huge", "tiny", "||B||_1 overflows a float"),
     ("tiny", "huge", "leading coefficient modulus underflows to zero")],
)
def test_best_minor_raises_the_first_candidates_error_when_none_is_bounded(
    first, second, message
):
    # 10^400*z1 + 1 has ||B||_1 and |lead| beyond the float range, and the norm
    # is checked first; 10^-400*z1 + 1 has a |lead| that underflows
    polys = {
        "huge": parse_poly("1" + "0" * 400 + " * z1 + 1"),
        "tiny": parse_poly("1/1" + "0" * 400 + " * z1 + 1"),
    }
    with pytest.raises(OverflowError) as excinfo:
        analyze(PolyMatrix([[polys[first], polys[second]]]), minor="best")
    assert str(excinfo.value) == message


def test_analyze_zero_matrix_rejected():
    with pytest.raises(ZeroMatrixError):
        analyze(parse_matrix("[[0, 0], [0, 0]]"))


def test_analyze_best_minor_not_worse(example_matrix):
    first = analyze(example_matrix, minor="first")
    best = analyze(example_matrix, minor="best")
    both_fine = not first.is_step and not best.is_step
    assert both_fine
    assert best.alpha_lower >= first.alpha_lower
    if best.alpha_lower == first.alpha_lower:
        assert best.coefficient <= first.coefficient


@pytest.mark.parametrize(
    "text, col, threshold",
    [
        # a step beats a power law, whichever comes first
        ("[[z1 + 1, 2*z1]]", 1, 2.0),
        ("[[2*z1, z1 + 1]]", 0, 2.0),
        # between steps the larger matrix-level threshold wins
        ("[[z1 + 1, 2*z1, 3*z1^-1]]", 2, 3.0),
        ("[[z1 + 1, 3*z1, 2*z1^-1]]", 1, 3.0),
    ],
)
def test_analyze_best_minor_prefers_steps_then_larger_thresholds(text, col, threshold):
    best = analyze(parse_matrix(text), minor="best")
    assert best.is_step and best.minor.col_set == (col,)
    assert best.alpha_lower == math.inf
    assert best.step_threshold_matrix == best.lead_abs == threshold


def test_analyze_best_minor_larger_threshold_over_larger_lead():
    # k = 2: the rescaling by (k^2 * ||B||_1)^(k-1) ranks the steps, not |lead|
    A = parse_matrix("[[1, 0, 3], [0, 1, 2]]")
    identity, other = (analyze(A.submatrix((0, 1), cols)) for cols in ((0, 1), (0, 2)))
    assert (identity.lead_abs, identity.step_threshold_matrix) == (1.0, 0.25)
    assert other.lead_abs == 2.0 and other.step_threshold_matrix < 0.25  # 2 / (4 * 3)
    assert analyze(A, minor="best").minor.col_set == (0, 1)


def test_analyze_best_minor_ties_keep_the_first_candidate():
    # the three 2x2 minors are (z1 + 1)^2 up to sign: equal wd, |lead| and
    # ||B||_1, so every key ties and the first row set wins
    A = parse_matrix("[[z1 + 1, 0], [0, z1 + 1], [z1 + 1, z1 + 1]]")
    reports = [analyze(A.submatrix(rows, (0, 1))) for rows in ((0, 1), (0, 2), (1, 2))]
    assert len({(r.alpha_lower, r.coefficient) for r in reports}) == 1
    assert analyze(A, minor="best").minor.row_set == (0, 1)


def test_analyze_best_minor_takes_a_strictly_better_later_candidate(example_matrix):
    # columns (0, 1) and (0, 2) tie at alpha 1/4; the last candidate, (1, 2),
    # has det -(z1 + 1)*z2 and alpha 1/2, so taking the first cannot pass
    first, best = analyze(example_matrix), analyze(example_matrix, minor="best")
    assert first.minor.col_set == (0, 1) and best.minor.col_set == (1, 2)
    assert best.alpha_lower == 0.5 > first.alpha_lower


def test_analyze_rejects_matrices_over_no_variables():
    with pytest.raises(ValueError, match="d >= 1"):
        analyze(PolyMatrix([[LaurentPoly.const(0, 3)]]))


def test_analyze_exhaustive_ordering_not_worse():
    A = parse_matrix("[[z1^5*z2 + z1^4, 0], [0, 1]]")
    fixed = analyze(A, ordering="fixed")
    ex = analyze(A, ordering="exhaustive")
    assert ex.profile.wd <= fixed.profile.wd


def test_analyze_best_minor_computes_each_minor_once(example_matrix, monkeypatch):
    # the reference matrix has three 2x2 minors; best mode forms each once,
    # in one sweep level, and runs no determinant
    calls = []
    real = matrices.determinant

    def counting(B):
        calls.append(B)
        return real(B)

    monkeypatch.setattr(matrices, "determinant", counting)
    swept = count_swept_minors(monkeypatch)
    analyze(example_matrix, minor="best")
    assert calls == [] and swept == [3]


@pytest.mark.parametrize(
    "A, k",
    [
        (parse_matrix(EXAMPLE_MATRIX_TEXT), 2),
        (matrix_product(parse_matrix(RANK3_LEFT), parse_matrix(RANK3_RIGHT)), 3),
    ],
    ids=["reference", "rank3-5x6"],
)
def test_analyze_first_minor_determinant_calls(A, k, monkeypatch):
    # one determinant, the certificate of the greedy pass, whether or not
    # the leading square minor vanishes; never an enumeration
    calls = []
    real = matrices.determinant

    def counting(B):
        calls.append(B)
        return real(B)

    monkeypatch.setattr(matrices, "determinant", counting)
    report = analyze(A, minor="first")
    assert len(calls) == 1
    assert report.k == k


def test_analyze_best_minor_skips_the_vanishing_sizes(monkeypatch):
    # every 5x5 minor vanishes, so the rank comes from one greedy pass
    # and the 4x4 minors are never enumerated
    A = matrix_product(parse_matrix(RANK3_LEFT), parse_matrix(RANK3_RIGHT))
    sizes = []
    real = matrices.iter_nonvanishing_minors

    def recording(A, size, cap):
        sizes.append(size)
        return real(A, size, cap)

    monkeypatch.setattr(matrices, "iter_nonvanishing_minors", recording)
    report = analyze(A, minor="best")
    assert sizes == [5, 3]
    assert report.k == 3
    assert report.minor in list(real(A, 3))


@pytest.mark.parametrize("kwargs", [{"ordering": "best"}, {"minor": "exhaustive"}])
def test_analyze_rejects_unknown_mode_before_any_determinant(
    example_matrix, monkeypatch, kwargs
):
    def refuse(B):
        raise AssertionError("determinant called")

    monkeypatch.setattr(matrices, "determinant", refuse)
    with pytest.raises(ValueError, match="unknown"):
        analyze(example_matrix, **kwargs)


def test_display_bound_clipped(example_matrix):
    # bound_at returns the raw formula value; nothing clips it at k
    rep = analyze(example_matrix)
    assert rep.bound_at(1.0) > rep.k
