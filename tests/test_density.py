"""Quadrature density estimates against closed forms and exact identities."""

from __future__ import annotations

import inspect
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsbound import (
    DensityCurve,
    GaussianRational,
    LaurentPoly,
    PolyMatrix,
    TorusGrid,
    alpha_fit,
    analyze,
    matrix_density,
    parse_matrix,
    parse_poly,
)
from nsbound import density
from nsbound._inertia import inertia_counts
from nsbound.density import (
    InsufficientDataError,
    default_fit_window,
    hermitian_eigenvalues,
)
from nsbound.matrices import ZeroMatrixError
from nsbound.poly import ZeroPolynomialError, _constant_abs2

from conftest import (
    EXAMPLE_MATRIX_TEXT,
    arc_measure,
    random_gaussian,
    random_poly,
    star_transpose,
)
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


def test_lattice_angles_exact_near_the_end_of_a_large_lattice():
    # idx * generator overflows int64 here; the angles must match Python ints
    m = 4_000_000_007
    g = TorusGrid.lattice(3, m, seed=0)
    got = g.angles(m - 3, m)
    want = [
        [2 * math.pi * ((i * gen % m / m + s) % 1.0) for gen, s in zip(g.generator, g.shift)]
        for i in range(m - 3, m)
    ]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.allclose(got[:, 1], [2.612, 0.212, 4.095], atol=1e-3)


def test_lattice_rejects_totals_beyond_exact_indexing():
    with pytest.raises(ValueError, match="2\\^61"):
        TorusGrid.lattice(2, 1 << 61)


def test_midpoint_rejects_totals_beyond_exact_indexing():
    # 3_000_000^3 > 2^63: its last angles would overflow an int64 index
    with pytest.raises(ValueError, match="2\\^61"):
        TorusGrid.midpoint(3, 3_000_000)
    with pytest.raises(ValueError, match="2\\^61"):
        TorusGrid.midpoint(1, 1 << 61)
    g = TorusGrid.midpoint(1, (1 << 61) - 1)
    assert g.angles(g.total - 2, g.total)[-1, 0] == pytest.approx(2 * math.pi)


def test_lattice_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="at least 0"):
        TorusGrid.lattice(3, 1000, seed=-1)
    with pytest.raises(TypeError):
        TorusGrid.lattice(3, 1000, seed=1.0)


def _numpy_shift(dim: int, seed: int) -> tuple[float, ...]:
    return tuple(np.random.default_rng(seed).random(dim).tolist())


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("dim", range(1, 9))
def test_lattice_shift_is_numpys(dim, seed):
    # seeds of one, two and three 32-bit words
    assert TorusGrid.lattice(dim, 1000, seed).shift == _numpy_shift(dim, seed)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**128 - 1))
def test_lattice_shift_is_numpys_for_any_seed(dim, seed):
    assert TorusGrid.lattice(dim, 7, seed).shift == _numpy_shift(dim, seed)


def test_block_ranges_partition():
    g = TorusGrid.midpoint(1, 200000)
    ranges = list(g.block_ranges())
    assert ranges[0][0] == 0 and ranges[-1][1] == g.total
    assert all(a2 == b1 for (_, b1), (a2, _) in zip(ranges, ranges[1:]))


def test_lattice_density_agrees_with_midpoint():
    p = parse_poly("z1*z2 - 2")
    lams = [0.5, 1.0, 1.5, 2.5]
    mid = matrix_density(PolyMatrix([[p]]), lams, TorusGrid.midpoint(2, 120))
    lat = matrix_density(PolyMatrix([[p]]), lams, TorusGrid.lattice(2, 120 * 120, seed=1))
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


_SCALES = st.sampled_from([2.0**-500, 1.0, 2.0**500])


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    c=st.floats(0.5, 2.0),
    ea=_SCALES,
    ec=_SCALES,
    r=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    phase=st.floats(0.0, 2 * math.pi),
    garbage=st.floats(allow_nan=True, allow_infinity=True),
)
def test_eigen_2x2_rows_in_a_callers_out_match_eigvalsh(a, c, ea, ec, r, phase, garbage):
    # a PSD gram [[a, b], [b*, c]] with |b| = r sqrt(ac): rank 1 at r = 1,
    # diagonal at r = 0, and entries 2^+-500 apart when the scales differ
    a, c = a * ea, c * ec
    H = np.array([[[a, 0], [0, c]]], dtype=np.complex128)
    H[0, 0, 1] = r * math.sqrt(a) * math.sqrt(c) * complex(math.cos(phase), math.sin(phase))
    H[0, 1, 0] = H[0, 0, 1].conjugate()
    out = np.full((3, 1), garbage)
    eig = hermitian_eigenvalues(H, out=out)
    assert np.shares_memory(eig, out) and eig.tolist() == [out[0].tolist() + out[1].tolist()]
    ref = np.linalg.eigvalsh(H)
    assert np.all(np.abs(eig - ref) <= 1e-10 * ref[:, 1:])
    assert hermitian_eigenvalues(H[0]).tolist() == eig[0].tolist()  # one matrix, no stack
    if r == 0:  # a diagonal gram's eigenvalues are its entries, exactly
        assert hermitian_eigenvalues(H, out=out, diagonal=True).tolist() == [sorted([a, c])]


def test_eigen_example_corner_gram():
    # B(1,1) = [[1, -1], [-14, 1]] of the reference matrix has gram
    # [[2, -15], [-15, 197]]; its quadratic's roots are the oracle
    H = np.array([[[2.0, -15.0], [-15.0, 197.0]]], dtype=np.complex128)
    lo, hi = hermitian_eigenvalues(H)[0]
    assert lo == pytest.approx(0.8529017152557117, rel=1e-10)
    assert hi == pytest.approx(198.1470982847443, rel=1e-10)


# -- polynomials as 1x1 matrices --------------------------------------------------


def test_poly_density_unit_variable_step():
    p = parse_poly("z1")
    g = TorusGrid.midpoint(1, 101)
    curve = matrix_density(PolyMatrix([[p]]), [0.5, 0.999, 1.0, 1.5], g)
    assert curve.estimates == (0.0, 0.0, 1.0, 1.0)


def test_poly_density_arc_oracle_z_minus_one():
    g = TorusGrid.midpoint(1, 30000)
    curve = matrix_density(PolyMatrix([[parse_poly("z1 - 1")]]), [1.0], g)
    assert curve.estimates[0] == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_poly_density_arc_oracle_general_radius():
    g = TorusGrid.midpoint(1, 30000)
    lams = np.linspace(0.05, 3.2, 40).tolist()
    for r in (0.5, 2.0):
        p = parse_poly(f"z1 - {Fraction(r)}")
        curve = matrix_density(PolyMatrix([[p]]), lams, g)
        for lam, est in zip(lams, curve.estimates):
            assert est == pytest.approx(arc_measure(r, lam), abs=5e-4)


def test_poly_density_complex_root_uses_modulus():
    # |z - i| is distributed like |z - 1|
    g = TorusGrid.midpoint(1, 20000)
    lams = [0.3, 0.8, 1.4]
    ci = matrix_density(PolyMatrix([[parse_poly("z1 - i")]]), lams, g)
    for lam, est in zip(lams, ci.estimates):
        assert est == pytest.approx(arc_measure(1.0, lam), abs=5e-4)


def test_poly_density_monomial_exact_step_any_grid():
    p = parse_poly("5*z1^2*z2^-1")
    for n in (3, 7, 20):
        g = TorusGrid.midpoint(2, n)
        curve = matrix_density(PolyMatrix([[p]]), [4.999999, 5.0, 5.000001], g)
        assert curve.estimates == (0.0, 1.0, 1.0)
        assert curve.counts == (0, g.total, g.total)


def test_poly_density_linear_domination_incl_complex_roots():
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
        curve = matrix_density(PolyMatrix([[parse_poly(text)]]), lams, g)
        for lam, est in zip(lams, curve.estimates):
            assert est <= SPECTRAL_CONSTANT * lam + g.epsilon_quad()


def test_poly_density_monotone_and_bounded():
    rng = random.Random(8)
    g = TorusGrid.midpoint(1, 2048)
    for _ in range(10):
        p = random_poly(rng, 1, max_terms=5, exp_range=4)
        lams = sorted(rng.uniform(0, 4) for _ in range(12))
        curve = matrix_density(PolyMatrix([[p]]), lams, g)
        assert all(b >= a for a, b in zip(curve.estimates, curve.estimates[1:]))
        assert all(0.0 <= e <= 1.0 for e in curve.estimates)


def test_poly_density_scaling_identity_exact_counts():
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
        scaled = matrix_density(PolyMatrix([[p * c]]), lams, g)
        base = matrix_density(PolyMatrix([[p]]), [x / abs(c) for x in lams], g)
        assert scaled.counts == base.counts


def test_poly_density_errors():
    g = TorusGrid.midpoint(1, 16)
    with pytest.raises(ValueError):
        matrix_density(PolyMatrix([[parse_poly("z1")]]), [], g)
    with pytest.raises(ValueError):
        matrix_density(PolyMatrix([[parse_poly("z1")]]), [2.0, 1.0], g)
    with pytest.raises(ValueError):
        matrix_density(PolyMatrix([[LaurentPoly.zero(1)]]), [1.0], g)


def test_zero_matrix_density_errors():
    # F is the constant max(rows, cols) on a zero matrix, which has no
    # non-vanishing minor; a zero 1x1 is a zero polynomial
    g = TorusGrid.midpoint(2, 10)
    lams = [0.0, 0.5, 1.0]
    zero = LaurentPoly.zero(2)
    with pytest.raises(ZeroPolynomialError):
        matrix_density(PolyMatrix([[zero]]), lams, g)
    for rows, cols in [(2, 2), (2, 3), (3, 1)]:
        with pytest.raises(ZeroMatrixError):
            matrix_density(PolyMatrix([[zero] * cols] * rows), lams, g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_lambdas_rejected(bad):
    g = TorusGrid.midpoint(1, 16)
    for text in ("[[z1 - 1]]", "[[z1]]", "[[z1, 1]]"):
        with pytest.raises(ValueError, match="finite"):
            matrix_density(parse_matrix(text), [0.5, bad], g)


def test_density_curve_rejects_decreasing_counts():
    with pytest.raises(ValueError, match="non-decreasing"):
        DensityCurve((1.0, 2.0), (3, 2), 4, 0)


@pytest.mark.parametrize(
    "lambdas, counts",
    [((1.0, 2.0), (1,)), ((1.0,), (1, 2)), ((1.0, 2.0), (1, 2, 3))],
)
def test_density_curve_rejects_length_mismatch(lambdas, counts):
    # alpha_fit and default_fit_window zip lambdas with the estimates, and would drop points
    with pytest.raises(ValueError, match="same length"):
        DensityCurve(lambdas, counts, 4, 0)


def _two_partitions(monkeypatch, grid: TorusGrid, chunk: int, run):
    """run() at the default ``CHUNK`` and at ``chunk``, two different block partitions."""
    default = list(grid.block_ranges())
    first = run()
    monkeypatch.setattr(density, "CHUNK", chunk)
    other = list(grid.block_ranges())
    assert len(default) > 1 and len(other) > 1 and default != other
    return first, run()


def test_poly_density_bit_identical_over_chunk_partitions(monkeypatch):
    p = parse_poly("z1^3 - 2*z1 + 1")
    g = TorusGrid.midpoint(1, 200000)
    lams = np.geomspace(1e-3, 3, 24).tolist()
    c1, c2 = _two_partitions(
        monkeypatch, g, 3001, lambda: matrix_density(PolyMatrix([[p]]), lams, g)
    )
    assert c1.counts == c2.counts
    assert c1.estimates == c2.estimates


# -- matrix density ------------------------------------------------------------------


def test_matrix_density_constant_step():
    A = parse_matrix("[[5]]")
    g = TorusGrid.midpoint(1, 50)
    curve = matrix_density(A, [4.9, 5.0, 5.1], g)
    assert curve.estimates == (0.0, 1.0, 1.0)


def test_matrix_density_block_additivity_exact():
    rng = random.Random(19)
    g = TorusGrid.midpoint(1, 512)
    zero = LaurentPoly.zero(1)
    for trial in range(10):
        # leading coefficients forced to 1 so the 1x1 normalization is the
        # identity and the comparison is bit-exact
        p = random_poly(rng, 1, max_terms=4, exp_range=3, real_only=True) + LaurentPoly.monomial(1, (9,), 1)
        q = random_poly(rng, 1, max_terms=4, exp_range=3, real_only=True) + LaurentPoly.monomial(1, (9,), 1)
        if p.is_monomial() or q.is_monomial():
            continue
        A = PolyMatrix([[p, zero], [zero, q]])
        lams = sorted(rng.uniform(0.01, 6.0) for _ in range(10))
        both = matrix_density(A, lams, g)
        cp = matrix_density(PolyMatrix([[p]]), lams, g)
        cq = matrix_density(PolyMatrix([[q]]), lams, g)
        assert both.counts == tuple(a + b for a, b in zip(cp.counts, cq.counts))


def test_matrix_density_example_f_zero(example_matrix):
    g = TorusGrid.midpoint(2, 40)
    curve = matrix_density(example_matrix, [0.01, 0.5, 1.0], g)
    assert curve.f_zero == 1
    assert curve.estimates[0] == pytest.approx(1.0)
    assert all(1.0 <= e <= 3.0 for e in curve.estimates)


def test_matrix_density_wide_vs_tall_agree(example_matrix):
    # transposing (with star) preserves the non-zero spectrum pointwise, so
    # the counts relative to f_zero agree
    g = TorusGrid.midpoint(2, 25)
    lams = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    wide = matrix_density(example_matrix, lams, g)
    tall = matrix_density(star_transpose(example_matrix), lams, g)
    assert wide.f_zero == tall.f_zero == 1
    assert wide.counts == tall.counts


def _rank3_matrix() -> PolyMatrix:
    """A 5x6 matrix whose rows 4 and 5 are monomial combinations of rows 1-3."""
    rows = [list(r) for r in parse_matrix(
        "[[z1, 2, z2^-1 - 1, 1, z1*z2, 3], [1, z2 - 2, 0, z1^-1, 1, z2],"
        " [z2^2, 1, z1, 2, -1, z1 + z2]]"
    ).entries]
    z1, z2 = LaurentPoly.monomial(2, (1, 0), 1), LaurentPoly.monomial(2, (0, 1), 1)
    for a, b, c in [(z1, LaurentPoly.const(2, -2), z2), (LaurentPoly.const(2, 3), z1 * z2, -z2)]:
        rows.append([a * x + b * y + c * w for x, y, w in zip(*rows[:3])])
    return PolyMatrix(rows)


@pytest.mark.parametrize("minor", ["first", "best"])
@pytest.mark.parametrize(
    "A, f_zero",
    [(_rank3_matrix(), 3), (parse_matrix(EXAMPLE_MATRIX_TEXT), 1), (parse_matrix("[[z1 - 1]]"), 0)],
    ids=["rank3-5x6", "reference", "1x1"],
)
def test_matrix_density_reads_f_zero_from_the_matrix(A, f_zero, minor):
    # F(0) = max(rows, cols) - rank A, the value analyze reports in either minor mode
    curve = matrix_density(A, [1.0], TorusGrid.midpoint(A.dim, 8))
    assert curve.f_zero == analyze(A, minor=minor).f_zero == f_zero


@st.composite
def rank_deficient_products(draw):
    """U @ V with random_poly entries: m x r times r x n, m <= 5, n <= 6, r <= 3."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m, n, dim = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 2))
    r = draw(st.integers(1, min(3, m, n)))
    U = [[random_poly(rng, dim, max_terms=2, exp_range=2) for _ in range(r)] for _ in range(m)]
    V = [[random_poly(rng, dim, max_terms=2, exp_range=2) for _ in range(n)] for _ in range(r)]
    zero = LaurentPoly.zero(dim)
    return [[sum((U[i][t] * V[t][j] for t in range(r)), zero) for j in range(n)] for i in range(m)]


@settings(max_examples=40, deadline=None)
@given(rank_deficient_products())
def test_matrix_density_f_zero_matches_analyze_on_products_property(entries):
    # each call gets its own PolyMatrix, so none reads a rank another found
    assume(not PolyMatrix(entries).is_zero())
    grid = TorusGrid.midpoint(PolyMatrix(entries).dim, 3)
    curve = matrix_density(PolyMatrix(entries), [1.0], grid)
    for minor in ("first", "best"):
        assert curve.f_zero == analyze(PolyMatrix(entries), minor=minor).f_zero


@pytest.mark.parametrize(
    "grid", [TorusGrid.midpoint(2, 60), TorusGrid.lattice(2, 5003, seed=7)],
    ids=["midpoint", "lattice"],
)
@pytest.mark.parametrize("rows, cols", [(4, 1), (4, 2), (5, 3), (6, 4)])
def test_matrix_density_transpose_agrees(rows, cols, grid):
    # A A* of the transpose is the entrywise conjugate of A* A, so a tall
    # matrix and its plain transpose count alike at every threshold
    rng = random.Random(rows * 10 + cols)
    tall = PolyMatrix(
        [[random_poly(rng, 2, max_terms=3) for _ in range(cols)] for _ in range(rows)]
    )
    wide = PolyMatrix(list(zip(*tall.entries)))
    lams = np.geomspace(0.05, 50, 12).tolist()
    a = matrix_density(tall, lams, grid)
    b = matrix_density(wide, lams, grid)
    assert a.counts == b.counts
    assert len(set(a.counts)) > 2


@pytest.mark.parametrize(
    "text, grid",
    [
        ("[[z1^3, -1, 1], [2*z1*z2^2 - 16, z2, z1*z2]]", TorusGrid.midpoint(2, 300)),
        ("[[z1 - z3, 2, z2^-1], [z1*z2, z3 - 3, 1], [z2, z1^2, z3]]",
         TorusGrid.lattice(3, 140_000, seed=4)),
    ],
    ids=["midpoint-90000", "lattice-140000"],
)
def test_matrix_density_bit_identical_over_chunk_partitions(monkeypatch, text, grid):
    A = parse_matrix(text)
    lams = np.geomspace(1e-2, 30, 24).tolist()
    c1, c2 = _two_partitions(
        monkeypatch, grid, 3001, lambda: matrix_density(A, lams, grid)
    )
    assert c1.counts == c2.counts


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
    curve = matrix_density(A, lams, grid)
    want = _recount(A, lams, grid)
    # eigenvalues within rounding of a threshold may fall on either side
    assert np.abs(np.array(curve.counts) - want).max() <= 2
    assert want[-1] - want[0] > grid.total  # the lambdas see the spectrum


def test_matrix_density_counts_grams_whose_squares_overflow():
    # gram entries near 1e161 are floats, but the sums of their squares that
    # the tridiagonal reduction forms are not unless each point is rescaled
    b3, b5, b7 = ("3" + "0" * 80), ("5" + "0" * 80), ("7" + "0" * 80)
    A = parse_matrix(
        f"[[{b3}*z1, {b3}, 2*z2], [{b3}*z2, {b7}*z1^-1 + 1, {b5}],"
        f" [1, {b7}*z1*z2, {b3}*z2^-1 - {b5}]]"
    )
    grid = TorusGrid.midpoint(2, 40)
    lams = np.geomspace(1e78, 1e83, 24).tolist()
    curve = matrix_density(A, lams, grid)
    want = _recount(A, lams, grid)
    assert np.abs(np.array(curve.counts) - want).max() <= 2
    assert want[0] == 0 and want[-1] == 3 * grid.total


@pytest.mark.parametrize(
    "text",
    [
        "[[1" + "0" * 200 + "*z1, 1], [1, z2]]",
        "[[1" + "0" * 200 + "*z1, 0], [0, z1*z2 - 1]]",
        "[[15" + "0" * 307 + "*z1 + 15" + "0" * 307 + ", 1], [1, z2]]",
        "[[(15" + "0" * 307 + " + 15" + "0" * 307 + "i)*z1 + 1, 1], [1, z2]]",
    ],
    ids=["coupled", "uncoupled", "entry", "complex-entry"],
)
def test_2x2_gram_overflow_raises(text):
    # |10^200 z1|^2 overflows: the coupled closed form's lo is NaN, while the
    # diagonal one keeps lo = |z1 z2 - 1|^2 finite and only hi infinite; an
    # entry of modulus past the float range overflows in its evaluation,
    # also when each part of its coefficient is a float
    with pytest.raises(OverflowError, match="a gram matrix entry overflows a float"):
        matrix_density(parse_matrix(text), [1.0], TorusGrid.midpoint(2, 8))


def test_3x3_gram_overflow_raises_in_a_partial_chunk(monkeypatch):
    # the k >= 3 mask shares the z and value rows; the last chunk of 64 points has one
    monkeypatch.setattr(density, "CHUNK", 7)
    A = parse_matrix("[[1" + "0" * 200 + "*z1, 1, 0], [0, z2, 1], [1, 0, z1]]")
    count_chunk = density._chunk_counter(A.entries, np.array([1.0]), TorusGrid.midpoint(2, 8))
    with pytest.raises(OverflowError, match="a gram matrix entry overflows a float"):
        count_chunk(63, 64)


def test_coefficients_convert_once_per_run(monkeypatch):
    # each term's complex coefficient is formed once, however many chunks
    A = parse_matrix(EXAMPLE_MATRIX_TEXT)
    calls = []
    convert = GaussianRational.__complex__
    monkeypatch.setattr(GaussianRational, "__complex__", lambda c: calls.append(c) or convert(c))
    monkeypatch.setattr(density, "CHUNK", 7)
    grid = TorusGrid.midpoint(2, 6)
    assert len(list(grid.block_ranges())) >= 3
    matrix_density(A, [1.0], grid)
    assert 0 < len(calls) <= sum(len(p) for row in A.entries for p in row)


@pytest.mark.parametrize("lattice", [False, True])
def test_diagonal_gram_beside_its_constant_eigenvalue(lattice):
    # the gram of [[z1, 0], [0, z1*z2 - 1]] is diag(1, |z1 z2 - 1|^2), and
    # |z1 z2 - 1| has the law of |z - 1|: F(1) = 1 + 1/3
    A = parse_matrix("[[z1, 0], [0, z1*z2 - 1]]")
    grid = TorusGrid.lattice(2, 50021) if lattice else TorusGrid.midpoint(2, 301)
    curve = matrix_density(A, [1.0], grid)
    assert abs(curve.estimates[0] - 4 / 3) <= grid.epsilon_quad()


def test_an_off_diagonal_that_cancels_as_a_polynomial_is_exactly_zero():
    # z1 z2 conj(z2) - z1 is zero as a polynomial, not in floats, and the
    # diagonal is exactly (2, 2): the eigenvalues are 2 at every point
    A = parse_matrix("[[z1*z2, z1], [z2, -1]]")
    lams = [math.nextafter(math.sqrt(2), 0), math.sqrt(2)]  # thresholds just below 2, and 2
    for grid in (TorusGrid.midpoint(2, 301), TorusGrid.lattice(2, 50021)):
        assert matrix_density(A, lams, grid).counts == (0, 2 * grid.total)


@pytest.mark.parametrize("text", [EXAMPLE_MATRIX_TEXT, "[[z1, 0], [0, z1*z2 - 1]]"])
def test_2x2_grams_never_call_hypot(monkeypatch, text):
    def hypot(*args, **kwargs):
        raise AssertionError("np.hypot called")

    monkeypatch.setattr(np, "hypot", hypot)
    curve = matrix_density(parse_matrix(text), [0.5, 1.0, 2.0], TorusGrid.midpoint(2, 200))
    assert curve.counts[-1] > 0


def test_gram_diagonal_constants_of_the_reference_matrix(example_matrix):
    # row 0 (z1^3, -1, 1) has three unit moduli; row 1 squares only
    # 2*z1*z2^2 - 16, since z2 and z1*z2 add 1 each
    assert [_constant_abs2(row) for row in example_matrix.entries] == [(3.0, []), (2.0, [0])]
    # an exact sum beyond the float range is inf, which the chunk rejects
    assert _constant_abs2(parse_matrix("[[1" + "0" * 200 + "*z1, z1 - 1, 3]]").entries[0]) == (
        math.inf, [1],
    )
    # |c|^2 = 1/10 lies between two floats and is rounded down, as thresholds are
    c = GaussianRational(Fraction(1, 10), Fraction(3, 10))
    assert _constant_abs2([LaurentPoly.monomial(1, [1], c)]) == (math.nextafter(0.1, 0), [])


ENTRY_KINDS = ("zero", "constant", "monomial", "general")


@st.composite
def mixed_matrices(draw):
    """Matrices whose entries are zero, constants, monomials or general
    polynomials, wide or tall with 1 to 4 rows on the wide side."""
    dim, k = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    cols = draw(st.integers(k, k + 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))

    def entry(kind: str) -> LaurentPoly:
        if kind == "general":
            return random_poly(rng, dim, max_terms=3, exp_range=3)
        c = random_gaussian(rng) if kind != "zero" else 0
        exp = [rng.randint(-3, 3) if kind == "monomial" else 0 for _ in range(dim)]
        return LaurentPoly.monomial(dim, exp, c)

    kinds = st.lists(st.sampled_from(ENTRY_KINDS), min_size=cols, max_size=cols)
    rows = [[entry(kind) for kind in draw(kinds)] for _ in range(k)]
    A = PolyMatrix(list(zip(*rows)) if draw(st.booleans(), label="tall") else rows)
    assume(not A.is_zero())
    return A


@settings(max_examples=80, deadline=None)
@given(mixed_matrices(), st.booleans(), st.integers(0, 2**16))
def test_matrix_density_of_mixed_entries_matches_plain_numpy_recount(A, lattice, seed):
    # the gram diagonal's exact constants of zero, constant and monomial
    # entries count as the float sum of all squared moduli does
    if lattice:
        grid = TorusGrid.lattice(A.dim, 401, seed=seed)
    else:
        grid = TorusGrid.midpoint(A.dim, 400 if A.dim == 1 else 20)
    lams = np.geomspace(0.0517, 61.3, 16).tolist()
    curve = matrix_density(A, lams, grid)
    want = _recount(A, lams, grid)
    assert np.abs(np.array(curve.counts) - want).max() <= 2


# -- chunking and memory ---------------------------------------------------------------
#
# Every per-point step (evaluation, gram, eigenvalues) and every count is
# exact per point or per matrix, so counts cannot depend on the chunk size.

CHUNK_MATRICES = {
    "tall": "[[z1 - 2*z2, 1], [z1^2*z2^-1, z2 + 3], [2, z1^-3 - z2], [z1*z2, 5*z2^2]]",
    "wide": "[[z1^3, -1, 1], [2*z1*z2^2 - 16, z2, z1*z2]]",
    "square": "[[z1 - 1, z2^-2 + 1, 3], [z1*z2, 2*z2 - z1^-1, z2], [1, z1^2, z1 - z2]]",
}


@pytest.mark.parametrize(
    "grid", [TorusGrid.midpoint(2, 151), TorusGrid.lattice(2, 30_011, seed=9)],
    ids=["midpoint", "lattice"],
)
def test_counts_do_not_depend_on_chunk_size(monkeypatch, grid):
    lams = np.geomspace(1e-2, 40, 32).tolist()
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 3*z2^-1 + 1")
    runs = []
    for chunk in (1000, density.CHUNK, grid.total):
        monkeypatch.setattr(density, "CHUNK", chunk)
        curves = [matrix_density(PolyMatrix([[p]]), lams, grid)]
        for text in CHUNK_MATRICES.values():
            A = parse_matrix(text)
            curves.append(matrix_density(A, lams, grid))
        runs.append([c.counts for c in curves])
    assert all(run == runs[0] for run in runs[1:])
    # the counts move over the lambdas, so equality says something
    assert all(counts[0] < counts[-1] for counts in runs[0])


def _chunk_points(grid: TorusGrid, start: int, stop: int) -> np.ndarray:
    """The unit points z, (stop - start, dim), that a chunk evaluates its entries at."""
    seen = []

    def spy(z, polys, rows):
        seen.append(z.copy())
        return real(z, polys, rows)

    real = density._power_table
    p = LaurentPoly(grid.dim, {(1,) * grid.dim: 1, (0,) * grid.dim: -1})
    with mock.patch.object(density, "_power_table", spy):
        density._chunk_counter([[p]], np.array([1.0]), grid)(start, stop)
    return seen[0]


def test_reference_workspace_keeps_twelve_rows():
    # 2 coordinates + 6 entries + max(4 power rows, k^2 = 4)
    A = parse_matrix(EXAMPLE_MATRIX_TEXT)
    count_chunk = density._chunk_counter(A.entries, np.array([1.0]), TorusGrid.midpoint(2, 50))
    count_chunk(0, 100)
    assert inspect.getclosurevars(count_chunk).nonlocals["work"].shape == (12, 2500)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.one_of(
        st.integers(1, 40),
        st.integers(1, density.CHUNK),
        st.sampled_from([density.CHUNK, density.CHUNK + 1]),
    ),
    st.data(),
)
def test_chunk_points_are_the_exp_of_the_angles_bit_for_bit(dim, n, data):
    # the table path (n <= CHUNK) and the exp path (n > CHUNK) give the same z
    grid = TorusGrid.midpoint(dim, n)
    if data.draw(st.booleans(), label="last chunk"):
        start, stop = (grid.total - 1) // density.CHUNK * density.CHUNK, grid.total
    else:
        start = data.draw(st.integers(0, grid.total - 1), label="start")
        stop = data.draw(st.integers(start + 1, min(start + density.CHUNK, grid.total)))
    want = np.exp(1j * grid.angles(start, stop))
    assert np.array_equal(_chunk_points(grid, start, stop).view(np.int64), want.view(np.int64))
    roots = density._midpoint_roots(grid)
    assert (roots is None) == (n > density.CHUNK)
    assert roots is None or len(roots) == n <= density.CHUNK


@pytest.mark.parametrize("dim", [6, 7])
def test_gather_in_many_dimensions_has_room_for_its_angles(dim):
    # a gather's d angle rows and its digits outnumber the value and power
    # rows of z1*...*zd - 1, so the workspace is sized up for them
    grid = TorusGrid.midpoint(dim, 3)
    want = np.exp(1j * grid.angles(0, grid.total))
    assert np.array_equal(_chunk_points(grid, 0, grid.total).view(np.int64), want.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.one_of(st.integers(1, 40), st.integers(1, density.CHUNK), st.integers(1, 10**6)),
    st.data(),
)
def test_midpoint_angles_are_the_digit_formula_bit_for_bit(dim, n, data):
    # coordinate j of point idx is (idx // n^j % n + 1/2) * (2 pi / n), with
    # the digit made a float, then 0.5 added, then the step multiplied
    grid = TorusGrid.midpoint(dim, n)
    if data.draw(st.booleans(), label="last chunk"):
        start, stop = (grid.total - 1) // density.CHUNK * density.CHUNK, grid.total
    else:
        start = data.draw(st.integers(0, grid.total - 1), label="start")
        stop = data.draw(st.integers(start + 1, min(start + density.CHUNK, grid.total)))
    idx = np.arange(start, stop, dtype=np.int64)
    want = np.empty((stop - start, dim))
    for j in range(dim):
        want[:, j] = idx // n**j % n
        want[:, j] += 0.5
        want[:, j] *= 2.0 * math.pi / n
    assert grid.angles(start, stop).tobytes() == want.tobytes()
    garbage = np.full((stop - start, dim), np.nan)
    assert grid.angles(start, stop, out=garbage).tobytes() == want.tobytes()


def test_lattice_grids_have_no_roots_table():
    assert density._midpoint_roots(TorusGrid.lattice(2, 1000, seed=1)) is None


@pytest.mark.parametrize("dim, n", [(1, 5000), (2, 90), (3, 23)])
def test_table_and_exp_paths_count_alike(monkeypatch, dim, n):
    grid = TorusGrid.midpoint(dim, n)
    A = PolyMatrix(
        [[random_poly(random.Random(f"{dim} {i} {j}"), dim, max_terms=3, exp_range=3)
          for j in range(3)] for i in range(2)]
    )
    lams = np.geomspace(1e-2, 40, 32).tolist()
    runs = []
    for chunk in (n - 1, n):  # the exp path, then the table path
        monkeypatch.setattr(density, "CHUNK", chunk)
        assert (density._midpoint_roots(grid) is None) == (chunk < n)
        runs.append(matrix_density(A, lams, grid).counts)
    assert runs[0] == runs[1]
    assert runs[0][0] < runs[0][-1]


@st.composite
def _count_blocks(draw):
    """Ascending thresholds, some repeated, and a block of rows of samples.

    Samples coincide with thresholds, include +-inf and NaN, and some rows
    are lifted wholly above the last threshold (a NaN stays NaN).
    """
    t = draw(st.lists(st.floats(0, 100), min_size=1, max_size=12))
    t = sorted(t + draw(st.lists(st.sampled_from(t), max_size=4)))
    sample = st.one_of(
        st.floats(-100, 200), st.sampled_from(t), st.sampled_from([math.inf, -math.inf, math.nan])
    )
    width = draw(st.integers(0, 10))
    rows = draw(st.lists(st.lists(sample, min_size=width, max_size=width), max_size=8))
    lifted = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    rows = [[t[-1] + abs(x) + 1 if up else x for x in r] for r, up in zip(rows, lifted)]
    return np.array(t), np.array(rows, dtype=np.float64).reshape(len(rows), width)


@settings(max_examples=300, deadline=None)
@given(_count_blocks())
def test_count_at_most_matches_sort_and_searchsorted(block):
    # thresholds may repeat and coincide with samples; NaN is never counted
    t, f = block
    want = np.searchsorted(np.sort(f.reshape(-1)), t, side="right")
    assert np.array_equal(density._count_at_most(f, t), want)


def test_count_at_most_skips_rows_above_the_last_threshold():
    t = np.array([1.0, 4.0])
    f = np.array([[0.5, 4.0, 9.0], [4.5, 198.0, math.inf], [math.nan, 5.0, 6.0]])
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
        assert density._count_at_most(f, t).tolist() == [1, 2]
    assert search.call_count == 2  # the middle row is never searched


def test_a_2x2_chunk_allocates_no_slot_array_at_the_mmap_threshold(example_matrix):
    # a full chunk of 2x2 grams has 2 * CHUNK eigenvalues, whose int64 slots
    # in one array would take 128 KiB, glibc's mmap threshold, every chunk
    grid = TorusGrid.midpoint(2, 1500)
    lams = np.geomspace(2e-4, 60, 64).tolist()
    thresholds = density._squared_thresholds(lams, Fraction(1))
    count = density._chunk_counter(example_matrix.entries, thresholds, grid)
    count(0, density.CHUNK)  # allocates the workspace
    tracemalloc.start()
    try:
        count(density.CHUNK, 2 * density.CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 10


def _inertia_counts(H: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Counts of the k >= 3 kernel for a (n, k, k) stack, laid out as a chunk lays it out."""
    n, k = H.shape[:2]
    stack = H.transpose(1, 2, 0).copy()  # the kernel consumes it
    rows = np.empty((k * k + 1, n), dtype=np.complex128)
    return inertia_counts(stack, thresholds, rows)


INERTIA_KINDS = ("random", "rank-deficient", "sparse", "tridiagonal", "diagonal", "identity")


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(3, 6),
    kind=st.sampled_from(INERTIA_KINDS),
    npoints=st.integers(1, 24),
    nthresholds=st.integers(1, 1000),
    scale=st.sampled_from([0, 900, -900]),
    with_zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_inertia_count_matches_eigvalsh(k, kind, npoints, nthresholds, scale, with_zero, seed):
    rng = np.random.default_rng(seed)
    exact = kind in ("diagonal", "identity")
    if exact:
        # eigenvalues known exactly, with ties, zeros and thresholds equal to them
        if kind == "diagonal":
            eig = rng.integers(0, 4, size=(npoints, k)) * rng.uniform(0.1, 10)
        else:
            eig = np.repeat(rng.integers(0, 3, size=(npoints, 1)) * rng.uniform(0.1, 10), k, 1)
        H = np.zeros((npoints, k, k), dtype=np.complex128)
        H[:, range(k), range(k)] = eig
    else:
        B = rng.normal(size=(npoints, k, k)) + 1j * rng.normal(size=(npoints, k, k))
        if kind == "rank-deficient":
            B[:, :, rng.integers(1, k) :] = 0
        elif kind == "sparse":  # exact zero gram entries, some at the top of a column
            B *= rng.random(B.shape) < 0.5
        elif kind == "tridiagonal":  # B lower bidiagonal, so B B* is tridiagonal
            B = np.tril(np.triu(B, -1))
        H = B @ B.conj().transpose(0, 2, 1)
        eig = np.linalg.eigvalsh(H)
    top = 1.25 * max(eig.max(), 1.0)
    thresholds = rng.uniform(0, top, size=nthresholds)
    if exact:
        picks = rng.integers(0, nthresholds, size=min(nthresholds, 2 * k))
        thresholds[picks] = rng.choice(eig.reshape(-1), size=len(picks))
    if with_zero:
        thresholds[0] = 0.0
    thresholds.sort()
    H *= 2.0**scale
    eig = eig * 2.0**scale
    thresholds *= 2.0**scale
    got = _inertia_counts(H, thresholds)

    def count(samples):
        return np.searchsorted(np.sort(samples.reshape(-1)), thresholds, side="right")

    if exact:
        assert np.array_equal(got, count(eig))
    else:
        # the count is exact for a matrix a few ulps away, eigvalsh's values are as close
        slack = 64 * k * np.finfo(np.float64).eps * np.trace(H, axis1=1, axis2=2).real
        assert np.all(count(eig + slack[:, None]) <= got)
        assert np.all(got <= count(eig - slack[:, None]))


def test_inertia_count_of_a_zero_gram_at_threshold_zero():
    assert _inertia_counts(np.zeros((5, 4, 4), np.complex128), np.array([0.0, 1.0])).tolist() == [
        20, 20,
    ]


# A 4x4 matrix over 3 variables with 1-3 terms per entry, like the
# k4-lattice-d3 benchmark input.
K4_TEXT = """[[3*z1*z3^-1, z2^2 - 4*z1^-1, z3 + 2*z1*z2 - 1, 7*z2^-2],
 [z1^2*z3 - 5, 6*z2*z3 + z1^-2*z2 - 2, 8*z3^-1, z1 - 9*z2^-1*z3],
 [z1^-1*z2^-1 + 4*z3^2 - z1, z2^-3, 5*z1*z3 + 2, 3*z1^2 - z2*z3^-1 + 6],
 [2*z3^3, z1*z2^-1 - 8, z2^2 + z1^-2 - 3*z3, 4*z1^-1*z2^2*z3]]"""


def test_matrix_density_memory_does_not_grow_with_the_grid():
    A = parse_matrix(K4_TEXT)
    lams = np.geomspace(1e-3, 100, 64).tolist()

    def peak(total: int) -> int:
        grid = TorusGrid.lattice(3, total, seed=3)
        tracemalloc.start()
        try:
            matrix_density(A, lams, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(50_000), peak(400_000)
    # chunks are fixed in size and streamed: the working set is one chunk's
    assert large <= small + (256 << 10)
    assert large <= 12 << 20


FAULTS_SCRIPT = """
import resource, sys
import numpy as np
from nsbound import TorusGrid, matrix_density, parse_matrix
A = parse_matrix(sys.argv[1])
lams = np.geomspace(1e-3, 100, 64).tolist()
matrix_density(A, lams, TorusGrid.midpoint(2, 20))
for n in (181, 572):  # 4 and 40 chunks of 8192 points, the last one partial
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    matrix_density(A, lams, TorusGrid.midpoint(2, n))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="minor faults as Linux counts them"
)
def test_chunks_do_not_fault_their_pages_back_in(example_matrix):
    # an 8192-point complex array is exactly glibc's 128 KiB mmap threshold,
    # so arrays allocated afresh per chunk fault their pages in every chunk
    assert density.CHUNK == 8192
    env = {**os.environ, "PYTHONPATH": str(Path(density.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT, EXAMPLE_MATRIX_TEXT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    four, forty = map(int, proc.stdout.split())
    assert forty - four < 36 * 50


# -- closed forms in d = 1 -----------------------------------------------------------
#
# A sublevel set made of m arcs holds, on the N-point midpoint rule, within
# one point of N times each arc's measure, so |F_hat - F| <= m / N exactly.


def _arcsine_density(mu: float) -> float:
    """Haar measure of |z - 1| <= mu on the circle."""
    return 2 / math.pi * math.asin(min(mu / 2, 1.0))


def _assert_midpoint_error(p: LaurentPoly | PolyMatrix, exact, arcs: int, n_points: int):
    A = p if isinstance(p, PolyMatrix) else PolyMatrix([[p]])
    grid = TorusGrid.midpoint(1, n_points)
    lams = np.geomspace(1e-3, 2.5, 50).tolist()
    curve = matrix_density(A, lams, grid)
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


@pytest.mark.parametrize("n_points", [50, 100, 200, 999, 1000])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 40])
def test_z_power_minus_one_within_arc_count_on_coarse_rules(n, n_points):
    # the bound is nearly attained: the worst error over these rules is 0.997 n / N
    p = LaurentPoly(1, {(n,): 1, (0,): -1})
    _assert_midpoint_error(p, _arcsine_density, n, n_points)


@pytest.mark.parametrize("n_points", [50, 101, 1000, 30_011])
def test_monomial_beside_an_arc_within_one_arc(n_points):
    # the gram of [[z1, 0], [0, z1 - 1]] is diag(1, |z - 1|^2): a step at 1
    # from the exact constant diagonal entry, plus the arcsine law
    A = parse_matrix("[[z1, 0], [0, z1 - 1]]")
    _assert_midpoint_error(A, lambda lam: (lam >= 1) + _arcsine_density(lam), 1, n_points)


@pytest.mark.parametrize("n_points", [50, 101, 1000, 30_011])
def test_monomial_beside_an_arc_at_its_constant_eigenvalue(n_points):
    # at lambda = 1 the threshold is the constant eigenvalue 1 itself, which
    # the diagonal gram returns exactly: F(1) = 1 + 1/3 within one arc
    A = parse_matrix("[[z1, 0], [0, z1 - 1]]")
    curve = matrix_density(A, [1.0], TorusGrid.midpoint(1, n_points))
    assert abs(curve.estimates[0] - 4 / 3) <= 1 / n_points + 1e-12


def _power_of_z_minus_one(r: int) -> LaurentPoly:
    return LaurentPoly(1, {(j,): math.comb(r, j) * (-1) ** (r - j) for j in range(r + 1)})


@pytest.mark.parametrize("r", [2, 3, 7])
def test_power_of_z_minus_one_within_one_arc(r):
    # |(z - 1)^r| <= lam  iff  |z - 1| <= lam^(1/r): one arc
    p = _power_of_z_minus_one(r)
    _assert_midpoint_error(p, lambda lam: _arcsine_density(lam ** (1 / r)), 1, 1001)


@pytest.mark.parametrize("n_points", [50, 100, 200, 999, 1000])
@pytest.mark.parametrize("r", [2, 3])
def test_power_of_z_minus_one_within_one_arc_on_coarse_rules(r, n_points):
    p = _power_of_z_minus_one(r)
    _assert_midpoint_error(p, lambda lam: _arcsine_density(lam ** (1 / r)), 1, n_points)


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
    curve = matrix_density(PolyMatrix([[parse_poly("z1 - 1")]]), lams, g)
    a, r2 = alpha_fit(curve, (1e-4, 1e-1))
    assert a == pytest.approx(1.0, abs=0.03)
    assert r2 >= 0.99


def test_alpha_fit_squared_factor():
    g = TorusGrid.midpoint(1, 200000)
    lams = np.geomspace(1e-4, 1e-1, 40).tolist()
    p = parse_poly("z1^2 - 2*z1 + 1")  # (z-1)^2
    curve = matrix_density(PolyMatrix([[p]]), lams, g)
    a, r2 = alpha_fit(curve, (1e-4, 1e-1))
    assert a == pytest.approx(0.5, abs=0.03)
    assert r2 >= 0.99


def test_alpha_fit_step_curve_rejected():
    g = TorusGrid.midpoint(2, 32)
    A = PolyMatrix([[parse_poly("5*z1^2*z2^-1")]])
    curve = matrix_density(A, [0.5, 1.0, 2.0, 3.0, 4.0, 4.9], g)
    with pytest.raises(InsufficientDataError):
        alpha_fit(curve, (0.5, 4.9))


def test_alpha_fit_equal_lambdas_rejected():
    # every usable point sits at lambda = 1: no slope, not a 0/0 slope of nan
    g = TorusGrid.midpoint(1, 10)
    curve = matrix_density(PolyMatrix([[parse_poly("z1 - 1")]]), [1.0] * 8, g)
    assert sum(est > curve.f_zero for est in curve.estimates) >= 5
    with pytest.raises(InsufficientDataError, match="distinct lambdas"):
        alpha_fit(curve, (1.0, 1.0))


def test_default_fit_window():
    g = TorusGrid.midpoint(1, 50000)
    lams = np.geomspace(1e-4, 1.0, 48).tolist()
    curve = matrix_density(PolyMatrix([[parse_poly("z1 - 1")]]), lams, g)
    lo, hi = default_fit_window(curve)
    assert lo >= lams[0]
    assert hi <= lams[-1]
    a, _ = alpha_fit(curve, (lo, hi))
    assert a == pytest.approx(1.0, abs=0.1)
