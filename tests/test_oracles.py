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
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from nsbound import LaurentPoly, PolyMatrix, TorusGrid, matrix_density

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
    curve = matrix_density(PolyMatrix([[p]]), 1, LAMBDAS, grid)
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
    curve = matrix_density(A, len(moduli), lams, grid)
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
