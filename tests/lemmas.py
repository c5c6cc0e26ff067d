"""Quadrature checks of the two lemmas the bound rests on.

Each function returns the violations lhs - rhs of its inequality, one per
lambda, from density estimates on the given grid; an inequality holds up
to quadrature error when the largest violation is at most
``grid.epsilon_quad()``.
"""

from __future__ import annotations

from fractions import Fraction

from nsbound import (
    LaurentPoly,
    PolyMatrix,
    TorusGrid,
    determinant,
    matrix_density,
    scalar_density,
)
from nsbound.bounds import _norm_factor
from nsbound.poly import _float_up


def rescale_lambda(k: int, b_l1: float, lam: float) -> float:
    """(k^2 * b_l1)^(k-1) * lam, rounded up: the bound's argument change
    from matrix to scalar density."""
    return _float_up(_norm_factor(k, b_l1) * Fraction(lam))


def product_violations(
    q1: LaurentPoly, q2: LaurentPoly, s: float, lambdas: list[float], grid: TorusGrid
) -> list[float]:
    """F(q1*q2)(lam) - (F(q1)(lam^(1-s)) + F(q2)(lam^s)) for each lambda."""
    assert 0.0 < s < 1.0
    left = scalar_density(q1 * q2, lambdas, grid)
    right1 = scalar_density(q1, [x ** (1.0 - s) for x in lambdas], grid)
    right2 = scalar_density(q2, [x**s for x in lambdas], grid)
    return [l - (a + b) for l, a, b in zip(left.estimates, right1.estimates, right2.estimates)]


def det_domination_violations(
    B: PolyMatrix, lambdas: list[float], grid: TorusGrid
) -> list[float]:
    """F(B)(lam) - k * F(det B)((k^2 ||B||_1)^(k-1) lam) for each lambda.

    The operator-norm upper bound k^2 ||B||_1 stands in for the true norm,
    which only enlarges the right-hand side's argument.
    """
    k = B.rows
    left = matrix_density(B, k, lambdas, grid)
    scaled = [rescale_lambda(k, B.l1_norm(), x) for x in lambdas]
    right = scalar_density(determinant(B), scaled, grid)
    return [l - k * r for l, r in zip(left.estimates, right.estimates)]
