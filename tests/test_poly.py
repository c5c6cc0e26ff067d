"""Polynomial layer: exact arithmetic, star, norms, width recursion."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsbound import (
    GaussianRational,
    LaurentPoly,
    lead_lex,
    parse_poly,
    q_plus_decompose,
    width_profile,
)
from nsbound.poly import DimensionMismatch, ZeroPolynomialError

from conftest import eval_at, random_poly

# -- strategies -------------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@st.composite
def gaussians(draw, real_only=False):
    re = draw(rationals)
    im = Fraction(0) if real_only else draw(rationals)
    return GaussianRational(re, im)


@st.composite
def polys(draw, max_dim=3, max_terms=8, exp_range=5, real_only=False):
    dim = draw(st.integers(1, max_dim))
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(
            draw(st.integers(-exp_range, exp_range)) for _ in range(dim)
        )
        terms[exp] = draw(gaussians(real_only=real_only))
    return LaurentPoly(dim, terms)


def nonzero(p: LaurentPoly) -> LaurentPoly:
    return p if not p.is_zero() else p + 1


# -- basic arithmetic --------------------------------------------------------


def test_add_cancellation():
    z = LaurentPoly.variable(1, 0)
    assert (z - 1) + LaurentPoly.const(1, 1) == z


def test_add_identity():
    p = parse_poly("z1^2 - 3*z2")
    assert p + LaurentPoly.zero(2) == p


def test_add_example_terms():
    a = parse_poly("z1^3*z2")
    b = parse_poly("2*z1*z2^2 - 16")
    assert a + b == parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")


def test_mul_one():
    p = parse_poly("z1^-2 + 5*z2")
    assert p * LaurentPoly.const(2, 1) == p


def test_mul_difference_of_squares():
    z = LaurentPoly.variable(1, 0)
    assert (z - 1) * (z + 1) == parse_poly("z1^2 - 1")


def test_mul_monomials():
    a = parse_poly("z1^3", expected_dim=2)
    b = parse_poly("z2")
    assert a * b.lift(2) == parse_poly("z1^3*z2")


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        parse_poly("z1") + parse_poly("z1 + z2")


# -- star --------------------------------------------------------------------


def test_star_by_definition():
    p = parse_poly("z1 - i")
    assert p.star() == parse_poly("z1^-1 + i")


def test_star_real_constant_fixed():
    c = LaurentPoly.const(1, 5)
    assert c.star() == c


def test_star_example_poly():
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    assert p.star() == parse_poly("z1^-3*z2^-1 + 2*z1^-1*z2^-2 - 16")


@settings(max_examples=150)
@given(polys())
def test_star_involution(p):
    assert p.star().star() == p


@settings(max_examples=100)
@given(polys())
def test_star_preserves_l1(p):
    assert p.star().l1_norm() == pytest.approx(p.l1_norm(), rel=1e-12, abs=1e-300)


# -- l1 norm ------------------------------------------------------------------


def test_l1_zero():
    assert LaurentPoly.zero(2).l1_norm() == 0.0


def test_l1_example_entry():
    assert parse_poly("2*z1*z2^2 - 16").l1_norm() == 18.0


def test_l1_gaussian_modulus():
    p = parse_poly("(3 + 4i)*z1")
    assert p.l1_norm() == pytest.approx(5.0, rel=1e-12)


@settings(max_examples=100)
@given(polys(real_only=True), polys(real_only=True))
def test_l1_submultiplicative_exact_for_real(p, q):
    if p.dim != q.dim:
        q = q.lift(p.dim) if q.dim < p.dim else q
        p = p.lift(q.dim)
    # with real coefficients the sums are exact rationals
    def exact_l1(r):
        return sum((abs(c.re) for c in r.terms.values()), Fraction(0))

    assert exact_l1(p * q) <= exact_l1(p) * exact_l1(q)


@settings(max_examples=100)
@given(polys(), polys())
def test_l1_submultiplicative_float(p, q):
    if p.dim != q.dim:
        q = q.lift(p.dim) if q.dim < p.dim else q
        p = p.lift(q.dim)
    assert (p * q).l1_norm() <= p.l1_norm() * q.l1_norm() * (1 + 1e-12) + 1e-300


# -- eval ---------------------------------------------------------------------


def test_eval_variable_at_zero_angle():
    z = LaurentPoly.variable(1, 0)
    assert eval_at(z, (0.0,)) == pytest.approx(1.0)


def test_eval_z_minus_one_at_pi():
    p = parse_poly("z1 - 1")
    assert eval_at(p, (math.pi,)) == pytest.approx(-2.0, abs=1e-12)


def test_eval_example_at_origin():
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    assert eval_at(p, (0.0, 0.0)) == pytest.approx(-13.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=5), polys(max_terms=5), st.randoms(use_true_random=False))
def test_eval_ring_homomorphism(p, q, rnd):
    if p.dim != q.dim:
        q = q.lift(p.dim) if q.dim < p.dim else q
        p = p.lift(q.dim)
    phi = tuple(rnd.uniform(0, 2 * math.pi) for _ in range(p.dim))
    lhs = eval_at(p * q, phi)
    rhs = eval_at(p, phi) * eval_at(q, phi)
    assert abs(lhs - rhs) <= 1e-9 * (1 + p.l1_norm() * q.l1_norm())


@settings(max_examples=100, deadline=None)
@given(polys(), st.randoms(use_true_random=False))
def test_eval_bounded_by_l1(p, rnd):
    phi = tuple(rnd.uniform(0, 2 * math.pi) for _ in range(p.dim))
    assert abs(eval_at(p, phi)) <= p.l1_norm() + 1e-9


@st.composite
def eval_polys(draw):
    # dims 0-3, the zero polynomial, constants, and exponents up to +-10^4
    dim = draw(st.integers(0, 3))
    exps = st.one_of(st.integers(-3, 3), st.integers(-(10**4), 10**4))
    terms = {
        tuple(draw(exps) for _ in range(dim)): draw(gaussians())
        for _ in range(draw(st.integers(0, 6)))
    }
    return LaurentPoly(dim, terms)


@settings(max_examples=200, deadline=None)
@given(eval_polys(), st.integers(0, 2**32 - 1))
def test_eval_block_matches_direct_sum(p, seed):
    theta = np.random.default_rng(seed).random((64, p.dim)) * (2 * math.pi)
    got = p.eval_block(np.exp(1j * theta))
    want = np.zeros(64, dtype=np.complex128)
    for exp, c in p.terms.items():
        want += complex(c) * np.exp(1j * (theta @ np.array(exp, dtype=np.float64)))
    # The oracle rounds its phase e.theta to about 9*pi*|e|*eps for d <= 3,
    # and the powers of z carry about d*|e|*eps: 64 covers both.
    max_e = max((abs(e) for exp in p.terms for e in exp), default=0)
    tol = 64 * np.finfo(np.float64).eps * p.l1_norm() * (1 + max_e)
    assert got.shape == (64,)
    assert np.all(np.abs(got - want) <= tol)


def test_eval_block_huge_exponent_stays_on_the_circle():
    # |z| = 1 only up to rounding; powering must not let that grow like
    # (1 + eps)^(10^18), which overflows
    theta = np.random.default_rng(3).random((1000, 2)) * (2 * math.pi)
    z = np.exp(1j * theta)
    big = 10**18
    mono = LaurentPoly.monomial(2, (big, -big))
    assert np.all(np.abs(np.abs(mono.eval_block(z)) - 1) <= 1e-9)
    p = parse_poly(f"z1^{big} - 2*z2^-{big} + 1")
    v = p.eval_block(z)
    assert np.all(np.isfinite(v)) and np.all(np.abs(v) <= 4 + 1e-9)


# -- q_plus_decompose ----------------------------------------------------------


def test_decompose_example_poly():
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    n_minus, n_plus, layers = q_plus_decompose(p, 1)
    assert (n_minus, n_plus) == (0, 2)
    assert n_plus - n_minus == 2
    assert layers[n_plus] == parse_poly("2*z1")


def test_decompose_monomial():
    p = parse_poly("5*z1^2")
    n_minus, n_plus, layers = q_plus_decompose(p, 0)
    assert n_minus == n_plus == 2
    assert layers[n_plus] == LaurentPoly.const(0, 5)


def test_decompose_factored():
    p = parse_poly("z1*z2 - z2 - z1 + 1")  # (z1-1)*z2 - (z1-1)
    n_minus, n_plus, layers = q_plus_decompose(p, 1)
    assert (n_minus, n_plus) == (0, 1)
    assert layers[n_plus] == parse_poly("z1 - 1")


def test_decompose_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        q_plus_decompose(LaurentPoly.zero(2), 0)


@settings(max_examples=150)
@given(polys())
def test_decompose_reassembles(p):
    p = nonzero(p)
    var = p.dim - 1
    n_minus, n_plus, layers = q_plus_decompose(p, var)
    assert n_minus <= n_plus
    rebuilt = LaurentPoly.zero(p.dim)
    for n, layer in layers.items():
        assert not layer.is_zero()
        lifted = LaurentPoly(
            p.dim,
            {e[:var] + (n,) + e[var:]: c for e, c in layer.terms.items()},
        )
        rebuilt = rebuilt + lifted
    assert rebuilt == p


# -- width profile --------------------------------------------------------------


def test_width_profile_example_identity_order():
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    prof = width_profile(p)
    assert prof.widths == (2, 0)
    assert prof.wd == 2
    assert prof.lead == GaussianRational(2)
    assert prof.tower[1] == parse_poly("2*z1")


def test_width_profile_monomial():
    p = parse_poly("(1/2)*z1^3*z2^-2*z3")
    prof = width_profile(p)
    assert prof.wd == 0
    assert prof.widths == (0, 0, 0)
    assert prof.lead == GaussianRational(Fraction(1, 2))


def test_width_profile_reversed_order():
    # eliminating z1 first: exponents of z1 span 0..3, then only z2 remains
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    prof = width_profile(p, (1, 0))
    assert prof.widths == (3, 0)
    assert prof.wd == 3
    assert prof.lead == GaussianRational(1)
    # the top z1-layer is the (renumbered) single variable to the first power
    assert prof.tower[1] == LaurentPoly(1, {(1,): GaussianRational(1)})


def test_width_profile_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        width_profile(LaurentPoly.zero(1))


@settings(max_examples=200)
@given(polys())
def test_width_profile_lead_matches_lead_lex(p):
    p = nonzero(p)
    assert width_profile(p).lead == lead_lex(p)


@settings(max_examples=150)
@given(polys())
def test_width_tower_monotone(p):
    p = nonzero(p)
    prof = width_profile(p)
    assert prof.lead
    # wd of each tower level under the induced ordering is the tail maximum
    for i, level in enumerate(prof.tower[:-1]):
        sub = width_profile(level)
        assert sub.wd == max(prof.widths[i:])
    tail_maxima = [max(prof.widths[i:]) for i in range(len(prof.widths))]
    assert all(a >= b for a, b in zip(tail_maxima, tail_maxima[1:]))


def test_lead_lex_examples():
    assert lead_lex(parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")) == GaussianRational(2)
    assert lead_lex(LaurentPoly.const(2, Fraction(7, 3))) == GaussianRational(
        Fraction(7, 3)
    )
    assert lead_lex(parse_poly("z1^5 - 7*z1^-3")) == GaussianRational(1)


def test_lead_equivalence_thousand_random():
    rng = random.Random(20250808)
    for _ in range(1000):
        p = random_poly(rng, rng.randint(1, 3), max_terms=8, exp_range=5)
        assert width_profile(p).lead == lead_lex(p)
