"""Quadrature density estimates against closed forms and exact identities."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nsbound import (
    GaussianRational,
    LaurentPoly,
    PolyMatrix,
    TorusGrid,
    alpha_fit,
    matrix_density,
    parse_matrix,
    parse_poly,
    scalar_density,
)
from nsbound.density import (
    InsufficientDataError,
    default_fit_window,
    hermitian_eigenvalues,
)

from conftest import arc_measure, random_poly, star_transpose
from lemmas import det_domination_violations, product_violations


def random_hermitian_psd(rng, m, batch=1):
    G = rng.normal(size=(batch, m, m)) + 1j * rng.normal(size=(batch, m, m))
    return G @ np.conj(np.swapaxes(G, 1, 2))


# -- grids -------------------------------------------------------------------


def test_midpoint_grid_covers_evenly():
    g = TorusGrid.midpoint(2, 4)
    assert g.total == 16
    pts = g.angles(0, 16)
    assert pts.shape == (16, 2)
    # each dimension takes each of the 4 midpoint values 4 times
    for j in range(2):
        vals, counts = np.unique(np.round(pts[:, j], 12), return_counts=True)
        assert len(vals) == 4
        assert all(c == 4 for c in counts)
    assert g.epsilon_quad() == pytest.approx(2.0)


def test_lattice_grid_deterministic():
    g1 = TorusGrid.lattice(3, 1000, seed=5)
    g2 = TorusGrid.lattice(3, 1000, seed=5)
    assert np.array_equal(g1.angles(0, 1000), g2.angles(0, 1000))
    g3 = TorusGrid.lattice(3, 1000, seed=6)
    assert not np.array_equal(g1.angles(0, 1000), g3.angles(0, 1000))


def test_block_ranges_partition():
    g = TorusGrid.midpoint(1, 200000)
    ranges = g.block_ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == g.total
    assert all(a2 == b1 for (_, b1), (a2, _) in zip(ranges, ranges[1:]))


def test_lattice_density_agrees_with_midpoint():
    p = parse_poly("z1*z2 - 2")
    lams = [0.5, 1.0, 1.5, 2.5]
    mid = scalar_density(p, lams, TorusGrid.midpoint(2, 120))
    lat = scalar_density(p, lams, TorusGrid.lattice(2, 120 * 120, seed=1))
    for a, b in zip(mid.estimates, lat.estimates):
        assert a == pytest.approx(b, abs=0.02)


# -- eigensolver ----------------------------------------------------------------


def test_eigen_2x2_matches_eigvalsh():
    rng = np.random.default_rng(1)
    H = random_hermitian_psd(rng, 2, batch=200)
    eig = hermitian_eigenvalues(H)
    ref = np.linalg.eigvalsh(H)
    scale = np.maximum(1.0, np.abs(ref[:, 1:]))
    assert np.all(np.abs(eig - ref) <= 1e-10 * scale)


def test_eigen_trace_and_frobenius_identities():
    rng = np.random.default_rng(2)
    for m in range(1, 7):
        H = random_hermitian_psd(rng, m, batch=100)
        eig = hermitian_eigenvalues(H)
        traces = np.einsum("bii->b", H).real
        frob2 = (np.abs(H) ** 2).sum(axis=(1, 2))
        assert np.all(np.abs(eig.sum(axis=1) - traces) <= 1e-10 * traces)
        assert np.all(np.abs((eig**2).sum(axis=1) - frob2) <= 1e-10 * frob2)


def test_eigen_rank1_2x2_smallest_is_zero():
    # second row a complex multiple of the first: the gram is singular, and
    # the closed form must resolve its zero eigenvalue to round-off of trace
    rng = np.random.default_rng(4)
    batch = 500
    row = rng.normal(size=(batch, 3)) + 1j * rng.normal(size=(batch, 3))
    mult = 10.0 ** rng.uniform(-3, 3, batch) * np.exp(2j * np.pi * rng.random(batch))
    values = np.stack([row, mult[:, None] * row], axis=1)
    H = np.einsum("bik,bjk->bij", values, np.conj(values))
    eig = hermitian_eigenvalues(H)
    traces = np.einsum("bii->b", H).real
    assert np.all(np.abs(eig[:, 0]) <= 1e-12 * traces)
    assert np.all(np.abs(eig[:, 1] - traces) <= 1e-10 * traces)


def test_eigen_diagonal_input_sorted():
    H = np.zeros((1, 3, 3), dtype=np.complex128)
    H[0] = np.diag([3.0, 1.0, 2.0])
    eig = hermitian_eigenvalues(H)
    assert eig[0].tolist() == [1.0, 2.0, 3.0]


def test_eigen_example_corner_gram():
    # B(1,1) = [[1, -1], [-14, 1]] of the reference matrix has gram
    # [[2, -15], [-15, 197]]; its quadratic's roots are the oracle
    H = np.array([[[2.0, -15.0], [-15.0, 197.0]]], dtype=np.complex128)
    lo, hi = hermitian_eigenvalues(H)[0]
    assert lo == pytest.approx(0.8529017152557117, rel=1e-10)
    assert hi == pytest.approx(198.1470982847443, rel=1e-10)


# -- scalar density ----------------------------------------------------------------


def test_scalar_density_unit_variable_step():
    p = parse_poly("z1")
    g = TorusGrid.midpoint(1, 101)
    curve = scalar_density(p, [0.5, 0.999, 1.0, 1.5], g)
    assert curve.estimates == (0.0, 0.0, 1.0, 1.0)


def test_scalar_density_arc_oracle_z_minus_one():
    g = TorusGrid.midpoint(1, 30000)
    curve = scalar_density(parse_poly("z1 - 1"), [1.0], g)
    assert curve.estimates[0] == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_scalar_density_arc_oracle_general_radius():
    g = TorusGrid.midpoint(1, 30000)
    lams = np.linspace(0.05, 3.2, 40).tolist()
    for r in (0.5, 2.0):
        p = parse_poly(f"z1 - {Fraction(r)}")
        curve = scalar_density(p, lams, g)
        for lam, est in zip(lams, curve.estimates):
            assert est == pytest.approx(arc_measure(r, lam), abs=5e-4)


def test_scalar_density_complex_root_uses_modulus():
    # |z - i| is distributed like |z - 1|
    g = TorusGrid.midpoint(1, 20000)
    lams = [0.3, 0.8, 1.4]
    ci = scalar_density(parse_poly("z1 - i"), lams, g)
    for lam, est in zip(lams, ci.estimates):
        assert est == pytest.approx(arc_measure(1.0, lam), abs=5e-4)


def test_scalar_density_monomial_exact_step_any_grid():
    p = parse_poly("5*z1^2*z2^-1")
    for n in (3, 7, 20):
        g = TorusGrid.midpoint(2, n)
        curve = scalar_density(p, [4.999999, 5.0, 5.000001], g)
        assert curve.estimates == (0.0, 1.0, 1.0)
        assert curve.counts == (0, g.total, g.total)


def test_scalar_density_linear_domination_incl_complex_roots():
    # C*lambda dominates the density of z - a for real and complex a alike
    from nsbound import SPECTRAL_CONSTANT

    g = TorusGrid.midpoint(1, 20000)
    lams = np.linspace(0.0, 3.0, 31)[1:].tolist()
    cases = {
        "z1 - 1/2": None,
        "z1 - 1": None,
        "z1 - 2": None,
        "z1 - i": None,
        "z1 - (1 + i)": None,
    }
    for text in cases:
        curve = scalar_density(parse_poly(text), lams, g)
        for lam, est in zip(lams, curve.estimates):
            assert est <= SPECTRAL_CONSTANT * lam + g.epsilon_quad()


def test_scalar_density_monotone_and_bounded():
    rng = random.Random(8)
    g = TorusGrid.midpoint(1, 2048)
    for _ in range(10):
        p = random_poly(rng, 1, max_terms=5, exp_range=4)
        lams = sorted(rng.uniform(0, 4) for _ in range(12))
        curve = scalar_density(p, lams, g)
        assert all(b >= a for a, b in zip(curve.estimates, curve.estimates[1:]))
        assert all(0.0 <= e <= 1.0 for e in curve.estimates)


def test_scalar_density_scaling_identity_exact_counts():
    rng = random.Random(404)
    g = TorusGrid.midpoint(1, 4096)
    for _ in range(25):
        p = random_poly(rng, 1, max_terms=5, exp_range=4)
        if p.is_monomial():
            continue
        c = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )
        if not c:
            continue
        lams = sorted(rng.uniform(0.01, 5.0) for _ in range(16))
        scaled = scalar_density(p * c, lams, g)
        base = scalar_density(p, [x / abs(c) for x in lams], g)
        assert scaled.counts == base.counts


def test_scalar_density_errors():
    g = TorusGrid.midpoint(1, 16)
    with pytest.raises(ValueError):
        scalar_density(parse_poly("z1"), [], g)
    with pytest.raises(ValueError):
        scalar_density(parse_poly("z1"), [2.0, 1.0], g)
    with pytest.raises(ValueError):
        scalar_density(LaurentPoly.zero(1), [1.0], g)


def test_scalar_density_workers_bit_identical():
    p = parse_poly("z1^3 - 2*z1 + 1")
    g = TorusGrid.midpoint(1, 200000)
    lams = np.geomspace(1e-3, 3, 24).tolist()
    c1 = scalar_density(p, lams, g, workers=1)
    c2 = scalar_density(p, lams, g, workers=3)
    assert c1.counts == c2.counts
    assert c1.estimates == c2.estimates


# -- matrix density ------------------------------------------------------------------


def test_matrix_density_constant_step():
    A = parse_matrix("[[5]]")
    g = TorusGrid.midpoint(1, 50)
    curve = matrix_density(A, 1, [4.9, 5.0, 5.1], g)
    assert curve.estimates == (0.0, 1.0, 1.0)


def test_matrix_density_block_additivity_exact():
    rng = random.Random(19)
    g = TorusGrid.midpoint(1, 512)
    zero = LaurentPoly.zero(1)
    for trial in range(10):
        # leading coefficients forced to 1 so the scalar normalization is the
        # identity and the comparison is bit-exact
        p = random_poly(rng, 1, max_terms=4, exp_range=3, real_only=True) + LaurentPoly.monomial(1, (9,), 1)
        q = random_poly(rng, 1, max_terms=4, exp_range=3, real_only=True) + LaurentPoly.monomial(1, (9,), 1)
        if p.is_monomial() or q.is_monomial():
            continue
        A = PolyMatrix([[p, zero], [zero, q]])
        lams = sorted(rng.uniform(0.01, 6.0) for _ in range(10))
        both = matrix_density(A, 2, lams, g)
        cp = scalar_density(p, lams, g)
        cq = scalar_density(q, lams, g)
        assert both.counts == tuple(a + b for a, b in zip(cp.counts, cq.counts))


def test_matrix_density_example_f_zero(example_matrix):
    g = TorusGrid.midpoint(2, 40)
    curve = matrix_density(example_matrix, 2, [0.01, 0.5, 1.0], g)
    assert curve.f_zero == 1
    assert curve.estimates[0] == pytest.approx(1.0)
    assert all(1.0 <= e <= 3.0 for e in curve.estimates)


def test_matrix_density_wide_vs_tall_agree(example_matrix):
    # transposing (with star) preserves the non-zero spectrum pointwise, so
    # the counts relative to f_zero agree
    g = TorusGrid.midpoint(2, 25)
    lams = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    wide = matrix_density(example_matrix, 2, lams, g)
    tall = matrix_density(star_transpose(example_matrix), 2, lams, g)
    assert wide.f_zero == tall.f_zero == 1
    assert wide.counts == tall.counts


@pytest.mark.parametrize(
    "text, grid",
    [
        ("[[z1^3, -1, 1], [2*z1*z2^2 - 16, z2, z1*z2]]", TorusGrid.midpoint(2, 300)),
        ("[[z1 - z3, 2, z2^-1], [z1*z2, z3 - 3, 1], [z2, z1^2, z3]]",
         TorusGrid.lattice(3, 140_000, seed=4)),
    ],
    ids=["midpoint-90000", "lattice-140000"],
)
def test_matrix_density_workers_bit_identical_over_chunks(text, grid):
    A = parse_matrix(text)
    assert len(grid.block_ranges()) > 1
    lams = np.geomspace(1e-2, 30, 24).tolist()
    c1 = matrix_density(A, min(A.rows, A.cols), lams, grid, workers=1)
    c3 = matrix_density(A, min(A.rows, A.cols), lams, grid, workers=3)
    assert c1.counts == c3.counts


def _recount(A: PolyMatrix, lams, grid: TorusGrid) -> np.ndarray:
    """Counts on the larger side from entry-wise exp, a matmul gram and eigvalsh."""
    angles = grid.angles(0, grid.total)
    values = np.zeros((grid.total, A.rows, A.cols), dtype=np.complex128)
    for i, row in enumerate(A.entries):
        for j, p in enumerate(row):
            for exp, c in p.terms.items():
                values[:, i, j] += complex(c) * np.exp(1j * (angles @ np.array(exp, float)))
    if A.rows > A.cols:
        values = values.conj().transpose(0, 2, 1)
    eig = np.linalg.eigvalsh(values @ values.conj().transpose(0, 2, 1))
    lam2 = np.array(lams) ** 2
    extra = abs(A.rows - A.cols) * grid.total
    return (eig.reshape(-1)[:, None] <= lam2).sum(axis=0) + extra


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)])
@pytest.mark.parametrize(
    "grid", [TorusGrid.midpoint(2, 50), TorusGrid.lattice(3, 3001, seed=2)],
    ids=["midpoint", "lattice"],
)
def test_matrix_density_matches_plain_numpy_recount(shape, grid):
    # guards the gram's triangle filling and side choice beyond the 2x2 closed form
    rng = random.Random(f"{shape} {grid.scheme}")
    rows, cols = shape
    A = PolyMatrix(
        [[random_poly(rng, grid.dim, max_terms=3, exp_range=3) for _ in range(cols)]
         for _ in range(rows)]
    )
    lams = np.geomspace(0.05, 60, 40).tolist()
    curve = matrix_density(A, min(rows, cols), lams, grid)
    want = _recount(A, lams, grid)
    # eigenvalues within rounding of a threshold may fall on either side
    assert np.abs(np.array(curve.counts) - want).max() <= 2
    assert want[-1] - want[0] > grid.total  # the lambdas see the spectrum


# -- closed forms in d = 1 -----------------------------------------------------------
#
# A sublevel set made of m arcs holds, on the N-point midpoint rule, within
# one point of N times each arc's measure, so |F_hat - F| <= m / N exactly.


def _arcsine_density(mu: float) -> float:
    """Haar measure of |z - 1| <= mu on the circle."""
    return 2 / math.pi * math.asin(min(mu / 2, 1.0))


def _assert_midpoint_error(p: LaurentPoly, exact, arcs: int, n_points: int):
    grid = TorusGrid.midpoint(1, n_points)
    lams = np.geomspace(1e-3, 2.5, 50).tolist()
    for curve in (
        scalar_density(p, lams, grid),
        matrix_density(PolyMatrix([[p]]), 1, lams, grid),
    ):
        for lam, est in zip(lams, curve.estimates):
            assert abs(est - exact(lam)) <= arcs / n_points + 1e-12, lam


@pytest.mark.parametrize(
    "n, n_points",
    [(1, 101), (10, 100), (10, 30_011), (40, 200), (4001, 40_009), (4001, 200_003)],
)
@pytest.mark.parametrize("sign", [1, -1])
def test_z_power_minus_one_within_arc_count(n, n_points, sign):
    # |z^n - 1| has the law of |z - 1|; its sublevel sets are n arcs
    p = LaurentPoly(1, {(sign * n,): 1, (0,): -1})
    _assert_midpoint_error(p, _arcsine_density, n, n_points)


@pytest.mark.parametrize("r", [2, 3, 7])
def test_power_of_z_minus_one_within_one_arc(r):
    # |(z - 1)^r| <= lam  iff  |z - 1| <= lam^(1/r): one arc
    p = LaurentPoly(1, {(j,): math.comb(r, j) * (-1) ** (r - j) for j in range(r + 1)})
    _assert_midpoint_error(p, lambda lam: _arcsine_density(lam ** (1 / r)), 1, 1001)


# -- inequality checks ------------------------------------------------------------------


def test_product_inequality_unit_factor():
    g = TorusGrid.midpoint(1, 5000)
    violations = product_violations(
        parse_poly("z1 - 1"), parse_poly("1"), 0.5, [0.2, 0.7, 1.3], g
    )
    assert max(violations) <= 0.0 + g.epsilon_quad()


def test_product_inequality_squared_linear_factor():
    g = TorusGrid.midpoint(1, 20000)
    p = parse_poly("z1 - 1")
    lams = np.geomspace(1e-3, 2.0, 32).tolist()
    assert max(product_violations(p, p, 0.5, lams, g)) <= g.epsilon_quad()


def test_product_inequality_random_pairs():
    rng = random.Random(55)
    g = TorusGrid.midpoint(1, 20000)
    lams = np.geomspace(1e-3, 2.0, 24).tolist()
    for _ in range(10):
        q1 = random_poly(rng, 1, max_terms=4, exp_range=3)
        q2 = random_poly(rng, 1, max_terms=4, exp_range=3)
        assert max(product_violations(q1, q2, 0.5, lams, g)) <= g.epsilon_quad()


def test_det_domination_scalar_case_coincides():
    g = TorusGrid.midpoint(1, 4096)
    B = parse_matrix("[[z1^2 - z1 + 1]]")
    lams = np.geomspace(1e-2, 2.0, 16).tolist()
    # k = 1: both sides are the same density
    assert det_domination_violations(B, lams, g) == [0.0] * len(lams)


def test_det_domination_diagonal_closed_form():
    g = TorusGrid.midpoint(1, 20000)
    p = parse_poly("z1 - 1")
    zero = LaurentPoly.zero(1)
    B = PolyMatrix([[p, zero], [zero, p]])
    lams = np.geomspace(1e-3, 1.0, 24).tolist()
    assert max(det_domination_violations(B, lams, g)) <= g.epsilon_quad()


def test_det_domination_example_submatrix(example_matrix):
    B = example_matrix.submatrix([0, 1], [0, 1])
    g = TorusGrid.midpoint(2, 60)
    lams = np.geomspace(1e-3, 1.0, 16).tolist()
    assert max(det_domination_violations(B, lams, g)) <= g.epsilon_quad()


# -- alpha fit ----------------------------------------------------------------------------


def test_alpha_fit_linear_factor():
    g = TorusGrid.midpoint(1, 200000)
    lams = np.geomspace(1e-4, 1e-1, 40).tolist()
    curve = scalar_density(parse_poly("z1 - 1"), lams, g)
    a, r2 = alpha_fit(curve, (1e-4, 1e-1))
    assert a == pytest.approx(1.0, abs=0.03)
    assert r2 >= 0.99


def test_alpha_fit_squared_factor():
    g = TorusGrid.midpoint(1, 200000)
    lams = np.geomspace(1e-4, 1e-1, 40).tolist()
    p = parse_poly("z1^2 - 2*z1 + 1")  # (z-1)^2
    curve = scalar_density(p, lams, g)
    a, r2 = alpha_fit(curve, (1e-4, 1e-1))
    assert a == pytest.approx(0.5, abs=0.03)
    assert r2 >= 0.99


def test_alpha_fit_step_curve_rejected():
    g = TorusGrid.midpoint(2, 32)
    curve = scalar_density(parse_poly("5*z1^2*z2^-1"), [0.5, 1.0, 2.0, 3.0, 4.0, 4.9], g)
    with pytest.raises(InsufficientDataError):
        alpha_fit(curve, (0.5, 4.9))


def test_default_fit_window():
    g = TorusGrid.midpoint(1, 50000)
    lams = np.geomspace(1e-4, 1.0, 48).tolist()
    curve = scalar_density(parse_poly("z1 - 1"), lams, g)
    lo, hi = default_fit_window(curve)
    assert lo >= lams[0]
    assert hi <= lams[-1]
    a, _ = alpha_fit(curve, (lo, hi))
    assert a == pytest.approx(1.0, abs=0.1)
