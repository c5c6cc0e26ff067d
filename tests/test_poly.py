"""Polynomial layer: exact arithmetic, star, norms, width recursion."""

from __future__ import annotations

import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsbound import (
    GaussianRational,
    LaurentPoly,
    parse_poly,
    width_profile,
)
from nsbound.poly import (
    DimensionMismatch,
    ZeroPolynomialError,
    _abs_down,
    _abs_up,
    _float_up,
    _power_table,
    _rows_drawn,
)

from conftest import eval_at, random_poly


def lead_lex(p: LaurentPoly) -> GaussianRational:
    """Coefficient of the last sorted term, whose exponent is maximal when
    the last coordinate is compared first."""
    return p.terms[next(reversed(p.terms))]

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


@pytest.mark.parametrize("exponent", [1.5, np.float64(2.7), 2.0])
def test_non_integral_exponent_rejected(exponent):
    # a float exponent is an error, not truncated to an int
    with pytest.raises(TypeError):
        LaurentPoly(1, {(exponent,): 1})


def test_numpy_integer_exponent_accepted():
    p = LaurentPoly(2, {(np.int64(3), np.int32(-1)): 1})
    assert p == parse_poly("z1^3*z2^-1")
    assert all(type(e) is int for exp in p.terms for e in exp)


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


# coefficients near 1, 1e200 and 1e-200: squares leave the float range
scaled_gaussians = st.builds(
    lambda re, im, scale: GaussianRational(re * scale, im * scale),
    st.fractions(-10**6, 10**6, max_denominator=10**6),
    st.fractions(-10**6, 10**6, max_denominator=10**6),
    st.sampled_from([1, 10**200, Fraction(1, 10**200)]),
).filter(bool)


@settings(max_examples=300, deadline=None)
@given(scaled_gaussians)
@example(GaussianRational(Fraction(-22409, 13992), Fraction(-335759, 831240)))
@example(GaussianRational(3, 4))
@example(GaussianRational(Fraction(-1, 3)))
@example(GaussianRational(int(sys.float_info.max)))
def test_abs_bounds_enclose_the_modulus_tightly(c):
    lo, hi = _abs_down(c), _abs_up(c)
    # lo is the largest float <= |c|; hi is |c| when that is rational (n/d
    # in lowest terms is a square exactly when n*d is), else just above it
    above = math.nextafter(lo, math.inf)
    assert Fraction(lo) ** 2 <= c.abs2()
    assert above == math.inf or c.abs2() < Fraction(above) ** 2
    assert c.abs2() <= hi**2 <= c.abs2() * (1 + Fraction(1, 2**98))
    n, d = c.abs2().as_integer_ratio()
    assert (hi**2 == c.abs2()) == (math.isqrt(n * d) ** 2 == n * d)


def test_float_up_raises_just_past_the_largest_float():
    # float() of the value just past it rounds down to the largest float, and
    # stepping up from there leaves the float range
    top = Fraction(sys.float_info.max)
    assert _float_up(top) == sys.float_info.max
    with pytest.raises(OverflowError):
        _float_up(top + 1)


def _decimal_l1(p: LaurentPoly) -> Decimal:
    """Sum of coefficient moduli to 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        squares = (c.abs2() for c in p.terms.values())
        return sum(((Decimal(a.numerator) / a.denominator).sqrt() for a in squares), Decimal(0))


@settings(max_examples=200, deadline=None)
@given(st.lists(scaled_gaussians, min_size=2, max_size=6))
@example(
    [
        GaussianRational(Fraction(-22409, 13992), Fraction(-335759, 831240)),
        GaussianRational(Fraction(776570, 607133), Fraction(873805, 966108)),
    ]
)
# the sum 1 + 1e-200 rounds to 1 in 60 digits, and its norm is the float after 1
@example([GaussianRational(0, 1), GaussianRational(0, Fraction(1, 10**200))])
def test_l1_norm_bounds_the_decimal_sum_from_above(coeffs):
    p = LaurentPoly(1, {(j,): c for j, c in enumerate(coeffs)})
    exact = _decimal_l1(p)
    f = p.l1_norm()
    # the smallest float above the sum, up to the 60-digit sum's and
    # _abs_up's relative errors, which are far below a float's 1e-16; the
    # tolerances are formed in 60 digits, since 1 + 1e-28 rounds to 1 in 28
    with localcontext() as ctx:
        ctx.prec = 60
        assert Decimal(f) >= exact * (1 - Decimal(10) ** -50)
        assert Decimal(math.nextafter(f, -math.inf)) < exact * (1 + Decimal(10) ** -28)


@settings(max_examples=200)
@given(polys(real_only=True))
def test_l1_real_is_the_smallest_float_above_the_exact_sum(p):
    exact = sum((abs(c.re) for c in p.terms.values()), Fraction(0))
    f = p.l1_norm()
    assert Fraction(math.nextafter(f, -math.inf)) < exact <= Fraction(f)


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


@st.composite
def shared_table_polys(draw):
    # several polynomials on one point set: negative exponents, exponents
    # above 2^16 (where squares are rescaled) and exponents only others use
    dim = draw(st.integers(1, 3))
    exps = st.one_of(
        st.integers(-3, 3), st.integers(-(10**4), 10**4), st.integers(-(2**40), 2**40)
    )
    polys = [
        LaurentPoly(
            dim,
            {
                tuple(draw(exps) for _ in range(dim)): draw(gaussians())
                for _ in range(draw(st.integers(0, 5)))
            },
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return polys


@settings(max_examples=200, deadline=None)
@given(shared_table_polys(), st.integers(0, 2**32 - 1))
@example(
    [parse_poly("z1^70000*z2^-3 - 2*z2^-70001 + 1"), parse_poly("z1^-5 + z2^65537")],
    0,
)
def test_eval_block_with_a_shared_table_is_bit_identical(polys, seed):
    theta = np.random.default_rng(seed).random((50, polys[0].dim)) * (2 * math.pi)
    z = np.exp(1j * theta)
    table = _power_table(z, polys)[0]
    for p in polys:
        alone = p.eval_block(z)
        assert np.array_equal(p.eval_block(z, table), alone)
        assert np.array_equal(p.eval_block(z, _power_table(z, polys[::-1])[0]), alone)


@settings(max_examples=200, deadline=None)
@given(shared_table_polys(), st.integers(0, 2**32 - 1))
@example([parse_poly("z1^70000*z2^-3 - 2*z2^-70001 + 1"), parse_poly("z1^-5 + z2^65537")], 0)
def test_power_table_draws_as_many_rows_for_one_point_as_for_forty(polys, seed):
    # the quadrature sizes its workspace by a run on one point
    theta = np.random.default_rng(seed).random((40, polys[0].dim)) * (2 * math.pi)
    drawn = count()
    _power_table(np.exp(1j * theta), polys, (np.empty(40, complex) for _ in drawn))
    assert _rows_drawn(polys) == next(drawn)


@settings(max_examples=100, deadline=None)
@given(shared_table_polys(), st.integers(0, 2**32 - 1))
def test_a_workspace_of_the_drawn_rows_suffices_and_one_row_fewer_fails(polys, seed):
    theta = np.random.default_rng(seed).random((40, polys[0].dim)) * (2 * math.pi)
    z = np.exp(1j * theta)
    need = _rows_drawn(polys)
    workspace = np.empty((need, 40), dtype=np.complex128)
    table, scratch = _power_table(z, polys, iter(workspace))
    assert len(scratch) == 2
    for p in polys:
        assert np.array_equal(p.eval_block(z, table, scratch=scratch), p.eval_block(z))
    with pytest.raises(StopIteration):
        _power_table(z, polys, iter(workspace[1:]))


def _fresh_powers(z, exponents):
    """Reference for ``_unit_powers``: the same binary powering, allocating."""
    mags = sorted({abs(e) for e in exponents if e})
    pos = {}
    sq = z
    for bit in range(mags[-1].bit_length() if mags else 0):
        if bit:
            sq = sq * sq
            if bit % 16 == 0:
                sq /= np.abs(sq)
        for m in mags:
            if m >> bit & 1:
                pos[m] = pos[m] * sq if m in pos else sq
    return {e: pos[e] if e > 0 else np.conj(pos[-e]) for e in exponents if e}


def _same_bits(a, b) -> bool:
    contiguous = np.ascontiguousarray
    return a.shape == b.shape and contiguous(a).tobytes() == contiguous(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(shared_table_polys(), st.integers(0, 2**32 - 1), st.integers(1, 40))
@example(
    [parse_poly("z1^70000*z2^-3 - 2*z2^-70001 + 1"), parse_poly("z1^-5 + z2^65537")],
    0,
    17,
)
def test_powers_written_into_reused_buffers_are_bit_identical(polys, seed, n):
    # a workspace for 40 points, laid out as in the quadrature (z stored by
    # coordinate), dirtied by a full chunk and then reused for n points
    dim = polys[0].dim
    theta = np.random.default_rng(seed).random((40, dim)) * (2 * math.pi)
    zbuf = np.empty((dim, 40), dtype=np.complex128)
    rows = np.full((_rows_drawn(polys), 40), np.nan, dtype=np.complex128)
    work = np.full((3, 40), np.nan, dtype=np.complex128)
    for size in (40, n):
        zbuf[:, :size] = np.exp(1j * theta[:size]).T
        z = zbuf[:, :size].T
        table = _power_table(z, polys, iter(rows[:, :size]))[0]
    for j, powers in enumerate(table):
        want = _fresh_powers(z[:, j], {e[j] for p in polys for e in p.terms})
        assert powers.keys() == want.keys()
        assert all(_same_bits(powers[e], want[e]) for e in want)
    for p in polys:
        got = p.eval_block(z, table, out=work[2, :n], scratch=work[:2, :n])
        assert _same_bits(got, p.eval_block(z))


def _zero_started_sum(p: LaurentPoly, table, npoints: int) -> np.ndarray:
    """Sum of c z^e from zeros in term order, each term's products left to right."""
    total = np.zeros(npoints, dtype=np.complex128)
    for exp, c in p.terms.items():
        factors = [pw[e] for pw, e in zip(table, exp) if e]
        if not factors:
            total += complex(c)
            continue
        term = np.multiply(complex(c), factors[0])
        for f in factors[1:]:
            term = np.multiply(term, f)
        total += term
    return total


@pytest.mark.parametrize(
    "text, first",
    [
        ("0", None),
        ("3 - 2i", (0, 0, 0)),
        ("(2 - 1i)*z1^3*z2^-2", (3, -2, 0)),
        ("z1^-1*z2^-1 + 3", (-1, -1, 0)),  # two factors, then the constant
        ("1 - z1 + 2*z1*z2^3*z3", (0, 0, 0)),  # the constant first
        ("z1^-2 + (1/3 + 1i) - 2*z1*z2^2*z3 + z2", (-2, 0, 0)),  # the constant inside
    ],
)
def test_eval_block_equals_the_zero_started_sum(text, first):
    # the first term is written into out, not added to zeros: the values
    # agree with == (so -0 equals +0) and no garbage left in out survives
    p = parse_poly(text).lift(3)
    assert next(iter(p.terms), None) == first
    theta = np.random.default_rng(7).random((37, 3)) * (2 * math.pi)
    theta[:3] = [[0.0, 0.0, 0.0], [math.pi, 0.0, math.pi], [0.0, math.pi / 2, 0.0]]
    z = np.exp(1j * theta)
    table = _power_table(z, [p])[0]
    want = _zero_started_sum(p, table, 37)
    assert np.all(p.eval_block(z, table) == want)
    out = np.full(37, complex(math.nan, math.inf))
    scratch = np.full((2, 37), complex(math.inf, math.nan))
    assert p.eval_block(z, table, out=out, scratch=scratch) is out
    assert np.all(out == want)


def test_eval_block_one_point_matches_longer_blocks():
    # numpy rounds an in-place complex product of one point without FMA, so
    # a term formed in place would give a one-point block other last bits
    p = parse_poly("z1^3*z2^2 + (2 - 1i)*z1*z2^-1 - 3")
    theta = np.random.default_rng(5).random((2001, 2)) * (2 * math.pi)
    z = np.exp(1j * theta)
    whole = p.eval_block(z)
    one = np.array([p.eval_block(z[i : i + 1])[0] for i in range(2000)])
    two = np.array([p.eval_block(z[i : i + 2])[0] for i in range(2000)])
    assert _same_bits(one, two)
    assert _same_bits(two, whole[:2000])


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


# -- top-layer decomposition ------------------------------------------------------
#
# One tower step keeps the top layer of p in the eliminated variable.


def test_decompose_example_poly():
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    prof = width_profile(p)
    assert prof.widths[0] == 2
    assert prof.tower[1] == parse_poly("2*z1")


def test_decompose_monomial():
    prof = width_profile(parse_poly("5*z1^2"))
    assert prof.widths == (0,)
    assert prof.lead == GaussianRational(5)
    assert prof.tower[1] == LaurentPoly.const(0, 5)


def test_decompose_factored():
    p = parse_poly("z1*z2 - z2 - z1 + 1")  # (z1-1)*z2 - (z1-1)
    prof = width_profile(p)
    assert prof.tower[1] == parse_poly("z1 - 1")
    assert prof.widths == (1, 1)


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


@settings(max_examples=100)
@given(polys())
def test_width_profile_every_ordering_property(p):
    # the lead is the coefficient of the exponent that is largest when the
    # coordinates are compared in elimination order, and the first width is
    # the spread of the first eliminated coordinate
    p = nonzero(p)
    for order in permutations(range(p.dim)):
        prof = width_profile(p, order)
        top = max(p.terms, key=lambda e: tuple(e[j] for j in reversed(order)))
        assert prof.lead == p.terms[top]
        spread = [e[order[-1]] for e in p.terms]
        assert prof.widths[0] == max(spread) - min(spread)


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
    for p, lead in [
        (parse_poly("z1^3*z2 + 2*z1*z2^2 - 16"), GaussianRational(2)),
        (LaurentPoly.const(2, Fraction(7, 3)), GaussianRational(Fraction(7, 3))),
        (parse_poly("z1^5 - 7*z1^-3"), GaussianRational(1)),
    ]:
        assert width_profile(p).lead == lead_lex(p) == lead


def test_lead_equivalence_thousand_random():
    rng = random.Random(20250808)
    for _ in range(1000):
        p = random_poly(rng, rng.randint(1, 3), max_terms=8, exp_range=5)
        assert width_profile(p).lead == lead_lex(p)
