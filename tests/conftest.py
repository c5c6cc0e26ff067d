"""Shared generators and fixtures for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nsbound import GaussianRational, LaurentPoly, PolyMatrix, matrices, parse_matrix

EXAMPLE_MATRIX_TEXT = "[[z1^3, -1, 1], [2*z1*z2^2 - 16, z2, z1*z2]]"

#: factors of RANK3_LEFT @ RANK3_RIGHT, a rank-3 5x6 matrix whose leading
#: 3x3 minor does not vanish: enumerating minors in lex order meets 6 + 75
#: vanishing 5x5 and 4x4 minors first
RANK3_LEFT = "[[1, z1, 2], [z2, 1, -1], [3, 0, z1^-1], [1, 1, 1], [z1*z2, 2, 0]]"
RANK3_RIGHT = "[[1, 0, z2, 1, 2, -1], [0, 1, 1, z1, 0, 3], [z1, 2, 0, 1, 1, z2^-1]]"


@pytest.fixture
def example_matrix() -> PolyMatrix:
    return parse_matrix(EXAMPLE_MATRIX_TEXT)


def random_rational(rng: random.Random, bound: int = 9, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def random_gaussian(
    rng: random.Random, bound: int = 9, den: int = 6, real_only: bool = False
) -> GaussianRational:
    re = random_rational(rng, bound, den)
    im = Fraction(0) if real_only else random_rational(rng, bound, den)
    return GaussianRational(re, im)


def random_poly(
    rng: random.Random,
    dim: int,
    max_terms: int = 5,
    exp_range: int = 4,
    real_only: bool = False,
    nonzero: bool = True,
) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(-exp_range, exp_range) for _ in range(dim))
        terms[exp] = random_gaussian(rng, real_only=real_only)
    p = LaurentPoly(dim, terms)
    if nonzero and p.is_zero():
        return LaurentPoly.const(dim, 1) + p
    return p


def arc_measure(r: float, lam: float) -> float:
    """Closed-form density of z - a on the circle, r = |a| > 0.

    The set {phi : |e^{i phi} - r| <= lam} has normalized measure
    arccos((1 + r^2 - lam^2) / (2r)) / pi, clipped to [0, 1].
    """
    x = (1.0 + r * r - lam * lam) / (2.0 * r)
    return math.acos(min(1.0, max(-1.0, x))) / math.pi


def matrix_product(L: PolyMatrix, R: PolyMatrix) -> PolyMatrix:
    """The product L @ R over the Laurent ring."""
    zero = LaurentPoly.zero(max(L.dim, R.dim))
    return PolyMatrix(
        [
            [sum((L[i, t] * R[t, j] for t in range(L.cols)), zero) for j in range(R.cols)]
            for i in range(L.rows)
        ]
    )


def star_transpose(A: PolyMatrix) -> PolyMatrix:
    """Transpose combined with the star involution on every entry."""
    return PolyMatrix([[A[i, j].star() for i in range(A.rows)] for j in range(A.cols)])


def eval_at(p: LaurentPoly, angles) -> complex:
    """p at one torus point given by its angles, z_j = exp(i*angles[j])."""
    z = np.exp(1j * np.array([tuple(angles)], dtype=np.float64))
    return complex(p.eval_block(z)[0])


def count_swept_minors(monkeypatch) -> list[int]:
    """Record the minors the Laplace sweep forms: each level it expands
    appends C(cols, t), its number of t x t column sets, to the list."""
    formed: list[int] = []
    real = matrices._expand_level

    def counting(row, below, t):
        formed.append(math.comb(len(row), t))
        return real(row, below, t)

    monkeypatch.setattr(matrices, "_expand_level", counting)
    return formed
