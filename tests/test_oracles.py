"""Quadrature against exact values of F in d >= 2 and on non-diagonal grams.

Every oracle here is independent of the code under test: a closed form,
or a one-dimensional integral of one (scipy, imported only here).

* The product (z1 - 1)(z2 - 1): F(lam) = (1/pi) int_0^pi (2/pi)
  arcsin(min(1, lam / (4 sin(t/2)))) dt, integrating |z2 - 1| <= lam /
  |z1 - 1| over z1.
* Its images under unimodular changes of variables (GL_d(Z) acts
  unitarily on l^2(Z^d), so F does not change): z1*z2^a - 1 has the F of
  z - 1, (2/pi) arcsin(lam/2), and (z1*z2 - 1)(z2 - 1) that of the
  product.
* A = U diag(p_i) V with U and V rational orthogonal: A A* = U
  diag(|p_i|^2) U^T at every point, so F_A = sum F_{p_i}, and each
  p_i = z_j - c has the arc measure of ``conftest.arc_measure``.
* Degree one in z2, p = a(z1) + b(z1) z2: on the circle of z2 over each
  z1, |p|^2 = |a|^2 + |b|^2 + 2|a||b| cos(.), so {|p| <= lam} is one arc
  of length phi = 2 arccos((|a|^2 + |b|^2 - lam^2) / (2|a||b|)), clamped
  to [0, 2 pi], or all or nothing where a b = 0; F(lam) = (2 pi)^-2 int
  phi(theta1) dtheta1.
* Mahler measures (Smyth 1981), through the evaluation path rather than
  the counts: the midpoint mean of log|p| against m(1 + z1 + z2) =
  (3 sqrt 3 / 4 pi) L(chi_-3, 2) and m(1 + z1 + z2 + z3) = 7 zeta(3) /
  (2 pi^2), both from mpmath at 30 digits; Jensen's formula in one
  variable, with the roots from numpy; and m(3 + z1 + z2) = log 3 under
  unimodular changes of variables.
* The Laplacians Delta_1 = 2 - z - z^-1, with F(u) = (1/pi) arccos(1 -
  u/2), and Delta_2 = 4 - z1 - z1^-1 - z2 - z2^-1, whose F is a scipy
  integral of Delta_1's split at its kinks; and matrices whose grams are
  Delta_2 on each of their k non-zero eigenvalues, so that F(lam) =
  f_zero + k F_(Delta_2)(lam^2).  The cube Laplacian Delta_3 = 6 - sum_j
  (z_j + z_j^-1), whose F is a scipy integral of Delta_2's.
* The midpoint bracket: on a cell of half-width pi/N each singular value
  moves by at most delta = K pi / N (Weyl), with K from the coefficients,
  so F_hat_N(lam - delta) <= F(lam) <= F_hat_N(lam + delta), checked on
  members of the families above drawn with N.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsbound import GaussianRational, LaurentPoly, PolyMatrix, TorusGrid, matrix_density

from conftest import arc_measure, matrix_product

LAMBDAS = [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0]


def _poly(dim: int, terms: dict) -> LaurentPoly:
    return LaurentPoly(dim, {e: Fraction(c) for e, c in terms.items()})


def _product_density(lam: float) -> float:
    """F of (z1 - 1)(z2 - 1) at lam, to about 1e-12."""
    integrate = pytest.importorskip("scipy.integrate")
    kink = 2.0 * math.asin(min(1.0, lam / 4.0))  # below it |z2 - 1| <= lam / |z1 - 1| always

    def inner(t: float) -> float:
        return 2.0 / math.pi * math.asin(min(1.0, lam / (4.0 * math.sin(t / 2.0))))

    rest, _ = integrate.quad(inner, kink, math.pi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return (kink + rest) / math.pi


def _errors(p: LaurentPoly, want, grid: TorusGrid) -> list[float]:
    curve = matrix_density(PolyMatrix([[p]]), LAMBDAS, grid)
    return [abs(f - want(lam)) for lam, f in zip(LAMBDAS, curve.estimates)]


PRODUCT = _poly(2, {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})  # (z1 - 1)(z2 - 1)
SHEARED_PRODUCT = _poly(2, {(1, 2): 1, (1, 1): -1, (0, 1): -1, (0, 0): 1})  # (z1*z2 - 1)(z2 - 1)


@pytest.mark.parametrize("p", [PRODUCT, SHEARED_PRODUCT], ids=["product", "sheared"])
@pytest.mark.parametrize("n", [100, 300])
def test_product_density_matches_its_integral(p, n):
    grid = TorusGrid.midpoint(2, n)
    assert max(_errors(p, _product_density, grid)) <= grid.epsilon_quad()


def test_product_integral_is_the_exact_step_at_the_ends():
    # |(z1 - 1)(z2 - 1)| <= 4 on the whole torus, and F vanishes at 0
    assert _product_density(4.0) == pytest.approx(1.0, abs=1e-12)
    assert _product_density(1e-300) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a", [1, -2])
@pytest.mark.parametrize("n", [100, 301])
def test_sheared_circle_counts_within_one_arc_per_row(a, n):
    # each row of fixed theta2 is a shifted 1-d midpoint rule over one arc,
    # which misses its measure by less than one sample; one more sample
    # per row is allowed for rounding at a threshold
    p = _poly(2, {(1, a): 1, (0, 0): -1})  # z1 * z2^a - 1
    grid = TorusGrid.midpoint(2, n)
    errors = _errors(p, lambda lam: 2.0 / math.pi * math.asin(min(1.0, lam / 2.0)), grid)
    assert max(errors) <= 2.0 / n


# rational orthogonal matrices: a rotation and Householder reflections
ROTATION = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]


def _householder(v: list[int]) -> list[list[Fraction]]:
    """I - 2 v v^T / (v^T v)."""
    norm2 = sum(x * x for x in v)
    return [
        [int(i == j) - Fraction(2 * x * y, norm2) for j, y in enumerate(v)]
        for i, x in enumerate(v)
    ]


def _constant_matrix(rows: list[list[Fraction]], dim: int) -> PolyMatrix:
    return PolyMatrix([[LaurentPoly.const(dim, x) for x in row] for row in rows])


#: (U, V, [(variable, c), ...]): A = U diag(z_variable - c) V over 2 variables
SPECTRA = {
    "k2": (ROTATION, _householder([1, 2]), [(0, Fraction(1, 2)), (1, 2)]),
    "k3": (
        _householder([1, 2, 2]),
        [row + [0] for row in ROTATION] + [[0, 0, 1]],
        [(0, Fraction(1, 2)), (1, 2), (0, Fraction(-3, 2))],
    ),
}


def _spectrum_matrix(name: str) -> tuple[PolyMatrix, list[float]]:
    """A = U diag(p_i) V of ``SPECTRA[name]`` and the moduli |c| of its p_i."""
    U, V, factors = SPECTRA[name]
    k = len(factors)
    diag = [
        [_poly(2, {(int(j == 0), int(j == 1)): 1, (0, 0): -c}) if i == t else LaurentPoly.zero(2)
         for t in range(k)]
        for i, (j, c) in enumerate(factors)
    ]
    A = matrix_product(matrix_product(_constant_matrix(U, 2), PolyMatrix(diag)), _constant_matrix(V, 2))
    return A, [abs(float(c)) for _, c in factors]


def _spectrum_errors(name: str, grid: TorusGrid) -> list[float]:
    A, moduli = _spectrum_matrix(name)
    lams = [0.1 * 1.25**i for i in range(20)]  # 0.1 to 6.9: every arc opens and closes
    curve = matrix_density(A, lams, grid)
    assert curve.f_zero == 0
    return [
        abs(f - sum(arc_measure(r, lam) for r in moduli))
        for lam, f in zip(lams, curve.estimates)
    ]


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_spectrum_matrices_have_grams_that_are_not_diagonal(name):
    A, moduli = _spectrum_matrix(name)
    k = len(moduli)
    gram = [[sum((A[i, t] * A[j, t].star() for t in range(k)), LaurentPoly.zero(2))
             for j in range(k)] for i in range(k)]
    assert any(gram[i][j] for i in range(k) for j in range(k) if i != j)


@pytest.mark.parametrize("name", sorted(SPECTRA))
@pytest.mark.parametrize("n", [101, 301])
def test_spectrum_matrix_counts_within_one_arc_per_factor(name, n):
    # each |p_i| <= lam is one arc in one variable, which a midpoint rule
    # resolves to within 1/n
    grid = TorusGrid.midpoint(2, n)
    assert max(_spectrum_errors(name, grid)) <= len(SPECTRA[name][2]) / n


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_spectrum_matrix_on_a_coprime_lattice(name):
    grid = TorusGrid.lattice(2, 10007, seed=3)
    assert math.gcd(grid.generator[1], grid.total) == 1  # no collapsed axis
    assert max(_spectrum_errors(name, grid)) <= grid.epsilon_quad()


# -- degree one in z2 -----------------------------------------------------------

#: lam from 1e-3 to 6.3, past the largest |a| + |b| of the fixed cases
LINEAR_LAMBDAS = [1e-3, 1e-2] + [0.05 * 1.5**i for i in range(13)]


Linear = list[GaussianRational]  # [c0, c1] for c0 + c1 z1


def _linear_poly(a: Linear, b: Linear) -> LaurentPoly:
    """a(z1) + b(z1) z2."""
    return LaurentPoly(2, {(e1, e2): c for e2, cs in enumerate((a, b)) for e1, c in enumerate(cs)})


def _linear_density(a: Linear, b: Linear, lam: float) -> float:
    """F of a(z1) + b(z1) z2 at lam, integrating the arc length over theta1.

    ``quad`` is split at every kink of the integrand: the circle zeros of a
    and b, and the theta1 where ||a| - |b|| = lam or |a| + |b| = lam, found
    by sign changes on a fine grid and ``brentq``.
    """
    integrate = pytest.importorskip("scipy.integrate")
    optimize = pytest.importorskip("scipy.optimize")
    (a0, a1), (b0, b1) = [[complex(c) for c in cs] for cs in (a, b)]

    def moduli(t: float) -> tuple[float, float]:
        w = cmath.exp(1j * t)
        return abs(a0 + a1 * w), abs(b0 + b1 * w)

    def arc(t: float) -> float:
        ra, rb = moduli(t)
        if ra * rb == 0.0:
            return 2.0 * math.pi if max(ra, rb) <= lam else 0.0
        x = (ra * ra + rb * rb - lam * lam) / (2.0 * ra * rb)
        return 2.0 * math.acos(min(1.0, max(-1.0, x)))

    kinks = {0.0, 2.0 * math.pi}
    for c0, c1 in (a, b):
        if c1 and c0.abs2() == c1.abs2():  # a circle zero, decided exactly
            kinks.add(cmath.phase(-complex(c0 / c1)) % (2.0 * math.pi))
    edges = [
        lambda t: moduli(t)[0] - moduli(t)[1] - lam,
        lambda t: moduli(t)[1] - moduli(t)[0] - lam,
        lambda t: moduli(t)[0] + moduli(t)[1] - lam,
    ]
    ts = np.linspace(0.0, 2.0 * math.pi, 4097)
    for g in edges:
        vals = [g(t) for t in ts]
        for i in range(len(ts) - 1):
            if vals[i] * vals[i + 1] < 0.0:
                kinks.add(optimize.brentq(g, ts[i], ts[i + 1], xtol=1e-15))
    cuts = sorted(kinks)
    total = sum(
        integrate.quad(arc, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        for lo, hi in zip(cuts, cuts[1:])
    )
    return total / (2.0 * math.pi) ** 2


def _linear_errors(a: Linear, b: Linear, n: int) -> list[float]:
    grid = TorusGrid.midpoint(2, n)
    curve = matrix_density(PolyMatrix([[_linear_poly(a, b)]]), LINEAR_LAMBDAS, grid)
    return [abs(f - _linear_density(a, b, lam)) for lam, f in zip(LINEAR_LAMBDAS, curve.estimates)]


G = GaussianRational
#: (a, b) with p = a(z1) + b(z1) z2
LINEAR = {
    "1 + z1 + z2": ([G(1), G(1)], [G(1), G(0)]),
    "2 - z1 + z2 + i*z1*z2": ([G(2), G(-1)], [G(1), G(0, 1)]),  # b vanishes at theta1 = pi/2
    "z1 - 1/2 + z1*z2 + 3*z2": ([G(Fraction(-1, 2)), G(1)], [G(3), G(1)]),
}


@pytest.mark.parametrize("name", sorted(LINEAR))
@pytest.mark.parametrize("n", [100, 300, 1000])
def test_degree_one_in_z2_matches_its_arc_integral(name, n):
    assert max(_linear_errors(*LINEAR[name], n)) <= TorusGrid.midpoint(2, n).epsilon_quad()


def test_arc_integral_is_the_exact_step_at_the_ends():
    a, b = LINEAR["1 + z1 + z2"]
    assert _linear_density(a, b, 3.0 + 1e-9) == pytest.approx(1.0, abs=1e-12)
    assert _linear_density(a, b, 1e-300) == pytest.approx(0.0, abs=1e-12)


_GAUSSIAN = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=25, deadline=None)
@given(st.lists(_GAUSSIAN, min_size=4, max_size=4))
def test_degree_one_in_z2_random_members(coeffs):
    a, b = coeffs[:2], coeffs[2:]
    assume(any(coeffs))
    assert max(_linear_errors(a, b, 300)) <= TorusGrid.midpoint(2, 300).epsilon_quad()


# -- Mahler measures through the evaluation path ------------------------------


def _log_mean(p: LaurentPoly, grid: TorusGrid) -> float:
    """The midpoint-grid mean of log|p|, evaluated chunk by chunk."""
    total = 0.0
    for start, stop in grid.block_ranges():
        z = np.exp(1j * grid.angles(start, stop))
        total += float(np.log(np.abs(p.eval_block(z))).sum())
    return total / grid.total


def _mahler_constants() -> dict[int, float]:
    """m(1 + z1 + ... + zd) in closed form for d = 2 and 3 (Smyth 1981)."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        return {
            2: float(3 * mp.sqrt(3) / (4 * mp.pi) * mp.dirichlet(2, [0, 1, -1])),
            3: float(7 * mp.zeta(3) / (2 * mp.pi**2)),
        }


#: dimension -> (grid sizes, stated tolerance of |mean log|p| - m(p)|)
MAHLER = {2: ([100, 300, 1000], 1e-5), 3: ([50, 100, 200], 1e-3)}


@pytest.mark.parametrize("dim, n", [(d, n) for d, (ns, _) in MAHLER.items() for n in ns])
def test_mahler_measure_of_the_linear_sum(dim, n):
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    p = LaurentPoly(dim, {(0,) * dim: 1, **{e: 1 for e in units}})
    got = _log_mean(p, TorusGrid.midpoint(dim, n))
    assert abs(got - _mahler_constants()[dim]) <= MAHLER[dim][1]


def test_mahler_constants_match_their_decimals():
    want = _mahler_constants()
    assert want[2] == pytest.approx(0.3230659472, abs=1e-10)
    assert want[3] == pytest.approx(0.4262783988, abs=1e-10)


#: a x + b with its root -b/a at least 0.1 from the unit circle
_FAR_FACTOR = st.tuples(st.integers(1, 4), st.integers(-6, 6)).filter(
    lambda f: abs(abs(Fraction(f[1], f[0])) - 1) >= Fraction(1, 10)
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_FAR_FACTOR, min_size=1, max_size=5, unique_by=lambda f: Fraction(f[1], f[0])))
def test_mahler_measure_in_one_variable_is_jensens_formula(factors):
    # m(p) = log|lead| + sum over the roots of log max(1, |root|) (Jensen); with
    # every root 0.1 from the circle the midpoint rule converges like 0.9^N
    coeffs = np.array([1])
    for a, b in factors:
        coeffs = np.convolve(coeffs, [a, b])  # highest degree first, as numpy.roots reads it
    p = LaurentPoly(1, {(e,): int(c) for e, c in enumerate(reversed(coeffs.tolist()))})
    roots = np.roots(coeffs)
    assert min(abs(abs(roots) - 1.0)) >= 0.1 - 1e-9
    want = math.log(abs(coeffs[0])) + sum(math.log(max(1.0, abs(r))) for r in roots)
    assert abs(_log_mean(p, TorusGrid.midpoint(1, 1000)) - want) <= 1e-9


def _unimodular_image(p: LaurentPoly, U: list[list[int]]) -> LaurentPoly:
    """p with each exponent t sent to U t; F and m do not change for U in GL_d(Z)."""
    return LaurentPoly(p.dim, {
        tuple(sum(u * e for u, e in zip(row, t)) for row in U): c for t, c in p.terms.items()
    })


#: name: U; each image of 3 + z1 + z2 keeps m = log 3
UNIMODULAR = {"identity": [[1, 0], [0, 1]], "shear": [[1, 1], [0, 1]], "cat": [[2, 1], [1, 1]]}


@pytest.mark.parametrize("name", UNIMODULAR)
@pytest.mark.parametrize("n", [100, 300])
def test_mahler_measure_is_unimodular_invariant(name, n):
    # |z1 + z2| < 3 on the torus, so log|3 + z1 + z2| = log 3 + Re log(1 + (z1 + z2)/3),
    # whose mean is log 3 exactly; the image's aliases at N lie at total degree >= N
    p = _unimodular_image(_poly(2, {(0, 0): 3, (1, 0): 1, (0, 1): 1}), UNIMODULAR[name])
    assert abs(_log_mean(p, TorusGrid.midpoint(2, n)) - math.log(3.0)) <= 1e-9


# -- lattice Laplacians -------------------------------------------------------


def _laplacian(dim: int) -> LaurentPoly:
    """2d - sum_j (z_j + z_j^-1), real and in [0, 4d] on the torus."""
    units = [tuple(s * int(i == j) for i in range(dim)) for j in range(dim) for s in (1, -1)]
    return LaurentPoly(dim, {(0,) * dim: 2 * dim, **{e: -1 for e in units}})


def _circle_laplacian_density(u: float) -> float:
    """F of 2 - z - z^-1 = 2 - 2 cos(theta): the measure of |theta| <= arccos(1 - u/2)."""
    return math.acos(min(1.0, max(-1.0, 1.0 - u / 2.0))) / math.pi


def _square_laplacian_density(lam: float) -> float:
    """F of 4 - z1 - z1^-1 - z2 - z2^-1 at lam, to about 1e-12.

    Over theta1 the circle Laplacian in z2 must stay below lam - 2 + 2
    cos(theta1); the integrand has kinks where that bound is 0 or 4.
    """
    integrate = pytest.importorskip("scipy.integrate")
    kinks = [math.acos(x) for x in ((2.0 - lam) / 2.0, (6.0 - lam) / 2.0) if -1.0 < x < 1.0]

    def inner(t: float) -> float:
        return _circle_laplacian_density(lam - 2.0 + 2.0 * math.cos(t))

    value, _ = integrate.quad(
        inner, 0.0, math.pi, points=kinks or None, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    return value / math.pi


#: 12 lambdas across (0, 8), the spectrum of the square Laplacian
LAPLACIAN_LAMBDAS = [0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 3.0, 4.0, 5.5, 6.0, 7.0, 7.9]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [100, 300, 1000])
def test_laplacian_density_matches_its_closed_form(dim, n):
    want = _circle_laplacian_density if dim == 1 else _square_laplacian_density
    grid = TorusGrid.midpoint(dim, n)
    curve = matrix_density(PolyMatrix([[_laplacian(dim)]]), LAPLACIAN_LAMBDAS, grid)
    errors = [abs(f - want(lam)) for lam, f in zip(LAPLACIAN_LAMBDAS, curve.estimates)]
    assert max(errors) <= grid.epsilon_quad()


def test_square_laplacian_integral_is_symmetric_and_ends_exactly():
    # lam -> 8 - lam is theta -> theta + pi on both axes
    for lam in LAPLACIAN_LAMBDAS:
        assert _square_laplacian_density(8.0 - lam) == pytest.approx(
            1.0 - _square_laplacian_density(lam), abs=1e-12
        )
    assert _square_laplacian_density(8.0) == pytest.approx(1.0, abs=1e-12)
    assert _square_laplacian_density(1e-300) == pytest.approx(0.0, abs=1e-12)


def test_square_laplacian_small_lambda_law():
    # near 0 the Laplacian is |theta|^2, so F(lam) ~ pi lam / (2 pi)^2: alpha = d/2 = 1
    assert _square_laplacian_density(1e-3) * 4.0 * math.pi / 1e-3 == pytest.approx(1.0, abs=2e-4)


# -- Laplacian matrices: grams that are not 1x1 --------------------------------

_D1 = _poly(2, {(0, 0): 1, (1, 0): -1})  # 1 - z1
_D2 = _poly(2, {(0, 0): 1, (0, 1): -1})  # 1 - z2
#: (1 - z1, 1 - z2) and (z2^-1 - 1, 1 - z1^-1), each of squared norm Delta_2, orthogonal
_LAPLACIAN_ROWS = [[_D1, _D2], [-_D2.star(), _D1.star()]]
#: name: (A, k, f_zero); each of the k gram eigenvalues that are not 0 is Delta_2
LAPLACIAN_MATRICES = {
    "row": (PolyMatrix(_LAPLACIAN_ROWS[:1]), 1, 1),
    "column": (PolyMatrix([[_D1], [_D2]]), 1, 1),
    "diagonal": (PolyMatrix(_LAPLACIAN_ROWS), 2, 0),
}


def test_laplacian_rows_are_orthogonal_with_norm_delta_2():
    (a, b), (c, d) = _LAPLACIAN_ROWS
    assert (a * c.star() + b * d.star()).is_zero()  # so the 2x2 gram takes the exact diagonal path
    assert a * a.star() + b * b.star() == c * c.star() + d * d.star() == _laplacian(2)


@pytest.mark.parametrize("name", LAPLACIAN_MATRICES)
@pytest.mark.parametrize("n", [100, 300, 1000])
def test_laplacian_matrix_density_matches_the_square_laplacian(name, n):
    A, k, f_zero = LAPLACIAN_MATRICES[name]
    grid = TorusGrid.midpoint(2, n)
    curve = matrix_density(A, [math.sqrt(u) for u in LAPLACIAN_LAMBDAS], grid)
    assert curve.f_zero == f_zero
    want = [f_zero + k * _square_laplacian_density(u) for u in LAPLACIAN_LAMBDAS]
    assert max(abs(f - w) for f, w in zip(curve.estimates, want)) <= grid.epsilon_quad()


# -- the midpoint bracket -----------------------------------------------------


def _bracket_delta(A: PolyMatrix, n: int) -> float:
    """delta = K pi / n rounded up, K = sqrt(sum over entries of (sum_t |c_t| ||t||_1)^2).

    On a midpoint cell of half-width pi/n each entry moves by at most
    (pi/n) sum_t |c_t| ||t||_1, so A moves by at most delta in operator
    norm, and by Weyl's inequality so does each of its singular values.
    """
    k2 = sum(
        sum(abs(complex(c)) * sum(map(abs, t)) for t, c in p.terms.items()) ** 2
        for row in A.entries
        for p in row
    )
    return math.sqrt(k2) * math.pi / n * (1.0 + 1e-12)  # the margin covers the float steps


def _assert_bracketed(A: PolyMatrix, exact, lams: list[float], n: int) -> None:
    """F_hat_N(lam - delta) <= exact(lam) <= F_hat_N(lam + delta) at each lambda, N = n per axis.

    The lower end is f_zero where lam <= delta, since F never falls below F(0).
    """
    grid = TorusGrid.midpoint(A.dim, n)
    delta = _bracket_delta(A, n)
    upper = matrix_density(A, [lam + delta for lam in lams], grid)
    inside = [lam - delta for lam in lams if lam > delta]
    lower = [upper.f_zero] * (len(lams) - len(inside))
    if inside:
        lower += matrix_density(A, inside, grid).estimates
    for lam, lo, hi in zip(lams, lower, upper.estimates):
        assert lo <= exact(lam) <= hi, (lam, lo, exact(lam), hi)


#: name: (p, exact F, points per axis); z1^10 - 1 has the law of z - 1, and its
#: midpoint error at N = 100 (ten arcs per sublevel set) exceeds the declared epsilon
BRACKETED = {
    "product": (PRODUCT, _product_density, [100, 300, 1000]),
    "square-laplacian": (_laplacian(2), _square_laplacian_density, [100, 300]),
    "z1^10 - 1": (_poly(1, {(10,): 1, (0,): -1}), lambda lam: arc_measure(1.0, lam), [100]),
}


@pytest.mark.parametrize(
    "name, n", [(name, n) for name, (_, _, ns) in BRACKETED.items() for n in ns]
)
def test_midpoint_bracket_holds_the_exact_density(name, n):
    p, exact, _ = BRACKETED[name]
    _assert_bracketed(PolyMatrix([[p]]), exact, LAMBDAS, n)


@st.composite
def bracket_members(draw) -> tuple[str, PolyMatrix, object]:
    """(family, A, exact F) for one member of an oracle family above."""
    family = draw(st.sampled_from(
        ["product", "sheared-product", "z1*z2^a - 1", "degree-one", "laplacian",
         "laplacian-matrix", "spectrum"]
    ))
    if family == "product":
        return family, PolyMatrix([[PRODUCT]]), _product_density
    if family == "sheared-product":
        return family, PolyMatrix([[SHEARED_PRODUCT]]), _product_density
    if family == "z1*z2^a - 1":
        a = draw(st.integers(-3, 3))
        return family, PolyMatrix([[_poly(2, {(1, a): 1, (0, 0): -1})]]), (
            lambda lam: arc_measure(1.0, lam)
        )
    if family == "degree-one":
        a, b = LINEAR[draw(st.sampled_from(sorted(LINEAR)))]
        return family, PolyMatrix([[_linear_poly(a, b)]]), lambda lam: _linear_density(a, b, lam)
    if family == "laplacian":
        dim = draw(st.integers(1, 2))
        exact = _circle_laplacian_density if dim == 1 else _square_laplacian_density
        return family, PolyMatrix([[_laplacian(dim)]]), exact
    if family == "laplacian-matrix":
        A, k, f_zero = LAPLACIAN_MATRICES[draw(st.sampled_from(sorted(LAPLACIAN_MATRICES)))]
        return family, A, lambda lam: f_zero + k * _square_laplacian_density(lam * lam)
    A, moduli = _spectrum_matrix(draw(st.sampled_from(sorted(SPECTRA))))
    return family, A, lambda lam: sum(arc_measure(r, lam) for r in moduli)


@settings(max_examples=60, deadline=None)
@given(bracket_members(), st.integers(50, 300))
def test_midpoint_bracket_holds_on_random_family_members(member, n):
    _, A, exact = member
    _assert_bracketed(A, exact, LAMBDAS, n)


# -- the cube Laplacian -------------------------------------------------------


def _cube_laplacian_density(lam: float) -> float:
    """F of 6 - sum_j (z_j + z_j^-1) at lam, to about 1e-11.

    Over theta3 the square Laplacian must stay below lam - 2 + 2 cos(theta3),
    so F_3(lam) = (1/pi) int_0^pi F_2(lam - 2 + 2 cos t) dt; the integrand
    has kinks where that bound is 0, 4 or 8.
    """
    integrate = pytest.importorskip("scipy.integrate")
    cuts = ((2.0 - lam) / 2.0, (6.0 - lam) / 2.0, (10.0 - lam) / 2.0)
    kinks = [math.acos(x) for x in cuts if -1.0 < x < 1.0]

    def inner(t: float) -> float:
        u = lam - 2.0 + 2.0 * math.cos(t)
        return 0.0 if u <= 0.0 else 1.0 if u >= 8.0 else _square_laplacian_density(u)

    value, _ = integrate.quad(
        inner, 0.0, math.pi, points=kinks or None, epsabs=1e-12, epsrel=1e-10, limit=200
    )
    return value / math.pi


#: 11 lambdas across (0, 12), the spectrum of the cube Laplacian
CUBE_LAMBDAS = [0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 11.9]


@pytest.mark.parametrize("n", [50, 100])
def test_cube_laplacian_density_matches_its_integral(n):
    A = PolyMatrix([[_laplacian(3)]])
    grid = TorusGrid.midpoint(3, n)
    curve = matrix_density(A, CUBE_LAMBDAS, grid)
    want = [_cube_laplacian_density(lam) for lam in CUBE_LAMBDAS]
    assert max(abs(f - w) for f, w in zip(curve.estimates, want)) <= grid.epsilon_quad()
    _assert_bracketed(A, _cube_laplacian_density, CUBE_LAMBDAS, n)


def test_cube_laplacian_integral_is_symmetric_and_ends_exactly():
    # lam -> 12 - lam is theta -> theta + pi on all three axes
    for lam in CUBE_LAMBDAS:
        assert _cube_laplacian_density(12.0 - lam) == pytest.approx(
            1.0 - _cube_laplacian_density(lam), abs=1e-10
        )
    assert _cube_laplacian_density(12.0) == pytest.approx(1.0, abs=1e-12)
    assert _cube_laplacian_density(1e-300) == pytest.approx(0.0, abs=1e-12)


def test_cube_laplacian_small_lambda_law():
    # near 0 the Laplacian is |theta|^2, so F(lam) ~ (4/3) pi lam^(3/2) / (2 pi)^3: alpha = 3/2
    assert _cube_laplacian_density(1e-3) * 6.0 * math.pi**2 / 1e-3**1.5 == pytest.approx(
        1.0, abs=2e-4
    )
