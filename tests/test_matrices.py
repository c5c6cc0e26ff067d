"""Matrix layer: determinants (two routes), minors, norms, star transpose."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsbound import (
    GaussianRational,
    LaurentPoly,
    PolyMatrix,
    TorusGrid,
    analyze,
    determinant,
    determinant_cofactor,
    format_poly,
    iter_nonvanishing_minors,
    matrix_density,
    max_nonvanishing_minor,
    minor,
    parse_matrix,
    parse_poly,
)
from nsbound import matrices
from nsbound.matrices import (
    MinorCertificate,
    MinorSearchCapExceeded,
    ZeroMatrixError,
    maximal_minors,
)

from conftest import (
    RANK3_LEFT,
    RANK3_RIGHT,
    count_entry_norms,
    count_swept_minors,
    matrix_product,
    random_poly,
    star_transpose,
)


def random_matrix(rng, rows, cols, dim=2, max_terms=2, real_only=False):
    return PolyMatrix(
        [
            [
                random_poly(rng, dim, max_terms=max_terms, exp_range=2, real_only=real_only, nonzero=False)
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


# Gaussian-rational coefficients, with the extremes 10^200 and 1/10^400
_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
coefficients = st.one_of(
    st.builds(GaussianRational, _rationals, _rationals),
    st.sampled_from(
        [
            GaussianRational(10**200),
            GaussianRational(0, -(10**200)),
            GaussianRational(Fraction(1, 10**400)),
            GaussianRational(3, Fraction(-1, 10**400)),
        ]
    ),
)


def laurent_polys(
    dim: int, min_terms: int = 0, max_terms: int = 3, exp_range: int = 3, coeffs=coefficients
):
    """Laurent polynomials with exponents in [-exp_range, exp_range] and at
    least ``min_terms`` terms.

    Without a lower bound a drawn coefficient may be zero, so zero entries occur.
    """
    exponents = st.tuples(*[st.integers(-exp_range, exp_range)] * dim)
    coeffs = coeffs.filter(bool) if min_terms else coeffs
    return st.dictionaries(
        exponents, coeffs, min_size=min_terms, max_size=max_terms
    ).map(lambda terms: LaurentPoly(dim, terms))


@st.composite
def square_matrices(draw, sizes=st.integers(1, 4), max_terms=3):
    n = draw(sizes)
    dim = draw(st.integers(1, 3))
    entry = laurent_polys(dim, max_terms=max_terms)
    return PolyMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@st.composite
def low_rank_matrices(draw):
    """(m x r) @ (r x n) with rows and columns shuffled, plus zero rows and columns.

    Tall, wide and square shapes with m, n <= 4 before the zero rows and
    columns, rank at most r, Gaussian-rational coefficients and exponents
    in [-2, 2] over 1 to 3 variables.
    """
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    m, n = {"tall": (max(a, b), min(a, b)), "wide": (min(a, b), max(a, b)), "square": (a, a)}[shape]
    r = draw(st.integers(1, min(m, n)))
    dim = draw(st.integers(1, 3))
    entry = laurent_polys(
        dim, max_terms=2, exp_range=2, coeffs=st.builds(GaussianRational, _rationals, _rationals)
    )
    L = PolyMatrix([[draw(entry) for _ in range(r)] for _ in range(m)])
    R = PolyMatrix([[draw(entry) for _ in range(n)] for _ in range(r)])
    zero = LaurentPoly.zero(dim)
    zero_rows, zero_cols = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    rows = [list(row) + [zero] * zero_cols for row in matrix_product(L, R).entries]
    A = PolyMatrix(rows + [[zero] * (n + zero_cols)] * zero_rows)
    row_order = draw(st.permutations(range(A.rows)))
    col_order = draw(st.permutations(range(A.cols)))
    return A.submatrix(row_order, col_order)


# -- determinants ---------------------------------------------------------------


def test_det_example_submatrix(example_matrix):
    B = example_matrix.submatrix([0, 1], [0, 1])
    assert determinant(B) == parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")


def test_det_identity():
    I3 = PolyMatrix(
        [[LaurentPoly.const(1, int(i == j)) for j in range(3)] for i in range(3)]
    )
    assert determinant(I3) == LaurentPoly.const(1, 1)


def test_det_rank_one_vanishes():
    A = parse_matrix("[[z1, 1], [1, z1^-1]]")
    assert determinant(A).is_zero()


def test_det_multiplicative():
    rng = random.Random(9)
    for _ in range(20):
        A = random_matrix(rng, 3, 3, dim=1)
        B = random_matrix(rng, 3, 3, dim=1)
        AB = PolyMatrix(
            [
                [
                    sum(
                        (A[i, t] * B[t, j] for t in range(3)),
                        LaurentPoly.zero(A.dim),
                    )
                    for j in range(3)
                ]
                for i in range(3)
            ]
        )
        assert determinant(AB) == determinant(A) * determinant(B)


def test_det_equals_cofactor_on_random_matrices():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n, dim=2)
        assert determinant(A) == determinant_cofactor(A)


def test_det_signs_with_zero_leading_entries_and_all_4x4_permutations():
    A = parse_matrix("[[0, 1, 2, 1], [1, 0, 1, 1], [0, 0, 0, 1], [1, 1, 0, 0]]")
    assert determinant(A) == determinant_cofactor(A)
    # the determinant of a permutation matrix is one signed product, so the
    # 24 permutations pin the sign of every term of the expansion
    for sigma in permutations(range(4)):
        entries = [[LaurentPoly.zero(2)] * 4 for _ in range(4)]
        for i, j in enumerate(sigma):
            entries[i][j] = LaurentPoly.monomial(2, (i + 1, j), i + 2)
        P = PolyMatrix(entries)
        assert determinant(P) == determinant_cofactor(P), sigma


def _same_poly(got: LaurentPoly, want: LaurentPoly) -> None:
    assert got == want
    assert format_poly(got) == format_poly(want)  # term order too


@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_det_matches_cofactor_property(A):
    _same_poly(determinant(A), determinant_cofactor(A))


@settings(max_examples=10, deadline=None)
@given(square_matrices(sizes=st.just(5), max_terms=2))
def test_det_matches_cofactor_5x5_property(A):
    _same_poly(determinant(A), determinant_cofactor(A))


@settings(max_examples=50, deadline=None)
@given(square_matrices(sizes=st.integers(3, 5), max_terms=2), st.data())
def test_det_rank_deficient_is_zero_property(A, data):
    # row r = m * row a + row b for a monomial m: the rows are dependent
    r, a, b = data.draw(st.permutations(range(A.rows)))[:3]
    m = data.draw(laurent_polys(A.dim, min_terms=1, max_terms=1))
    rows = [list(row) for row in A.entries]
    rows[r] = [m * x + y for x, y in zip(rows[a], rows[b])]
    B = PolyMatrix(rows)
    assert determinant(B).is_zero()
    _same_poly(determinant(B), determinant_cofactor(B))


#: a fixed 5x5 Gaussian-rational matrix and its cofactor determinant
FIXED_5X5 = """[[z1 + (1/2 + i), 0, 3/4*z2^-1, 1, -i*z1],
 [2, z1^-1 - 1/3, 0, (2 - 1/5i)*z2, 1],
 [0, i*z2, z1*z2 + 1, 0, -2/3],
 [1/7*z1^2, 1, -1, z1^-1*z2, 0],
 [3, 0, (1 + i)*z1, -z2^-1, z1 - 5/2i]]"""
FIXED_5X5_DET = (
    "(11/35+9/35i)*z1^4*z2^2 + (-2+1/5i)*z1^3*z2^2 + (-11/6-49/10i)*z1^2*z2^2"
    " + (-241/60+1/5i)*z1*z2^2 + (-29/6-10/3i)*z2^2 + (5/2-5/4i)*z1^-1*z2^2"
    " + 1/21*z1^4*z2 + (-3/140-10/21i)*z1^3*z2 + (-841/420-33/56i)*z1^2*z2"
    " + (-79/18-737/90i)*z1*z2 + (67/36+4/3i)*z2 + (37/12+2/3i)*z1^-1*z2"
    " + (5/2-5/4i)*z1^-2*z2 - 1/21i*z1^4 + (5/63+11/63i)*z1^3"
    " + (-26/21-31/14i)*z1^2 + (29/6-13/42i)*z1 + (5/3-29/5i) - 3/2*z1^-1"
    " - 3/2*z1^-2 - 1/21i*z1^3*z2^-1 + 1/28i*z1^2*z2^-1 + (-7/9-2i)*z1*z2^-1"
    " + (-19/18-7/9i)*z2^-1 + (-1/3-2/3i)*z1^-1*z2^-1 + 1/42*z1^2*z2^-2"
    " - 1/14*z1*z2^-2 + z2^-2"
)


def test_det_fixed_5x5_matches_stored_cofactor():
    A = parse_matrix(FIXED_5X5)
    assert determinant_cofactor(A) == parse_poly(FIXED_5X5_DET)


def test_det_runs_without_per_term_objects(monkeypatch):
    # the kernel multiplies plain int pairs; routing the sweep back
    # through LaurentPoly or GaussianRational products fails here
    A = parse_matrix(FIXED_5X5)
    want = parse_poly(FIXED_5X5_DET)

    def refuse(self, other):
        raise AssertionError("per-term product inside determinant")

    for cls in (LaurentPoly, GaussianRational):
        monkeypatch.setattr(cls, "__mul__", refuse)
        monkeypatch.setattr(cls, "__rmul__", refuse)
    got = determinant(A)
    monkeypatch.undo()
    assert got == want


def test_det_star_transpose_is_star_of_det(example_matrix):
    B = example_matrix.submatrix([0, 1], [0, 1])
    assert determinant(star_transpose(B)) == determinant(B).star()


# -- minors ----------------------------------------------------------------------


def test_minor_full_example(example_matrix):
    assert minor(example_matrix, [0, 1], [0, 1]) == parse_poly(
        "z1^3*z2 + 2*z1*z2^2 - 16"
    )


def test_minor_single_entry(example_matrix):
    assert minor(example_matrix, [1], [2]) == parse_poly("z1*z2")


def test_minor_second_pair(example_matrix):
    assert minor(example_matrix, [0, 1], [1, 2]) == parse_poly("-z1*z2 - z2")


def test_minor_shape_errors(example_matrix):
    with pytest.raises(ValueError):
        minor(example_matrix, [0, 1], [0])
    with pytest.raises(IndexError):
        minor(example_matrix, [0, 5], [0, 1])


def test_max_minor_example(example_matrix):
    cert = max_nonvanishing_minor(example_matrix)
    assert cert.size == 2
    assert cert.row_set == (0, 1)
    assert cert.col_set == (0, 1)
    assert not cert.det.is_zero()
    assert cert.b_l1 == 18.0


def test_max_minor_diagonal():
    z = parse_poly("z1")
    A = PolyMatrix([[z, LaurentPoly.zero(1)], [LaurentPoly.zero(1), z]])
    cert = max_nonvanishing_minor(A)
    assert cert.size == 2
    assert cert.det == parse_poly("z1^2")


def test_max_minor_rank_deficient():
    z = parse_poly("z1")
    A = PolyMatrix([[z, z], [z, z]])
    cert = max_nonvanishing_minor(A)
    assert cert.size == 1
    assert cert.det == z
    assert cert.row_set == (0,) and cert.col_set == (0,)


def test_max_minor_all_higher_minors_vanish():
    rng = random.Random(23)
    for _ in range(10):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), dim=1)
        if A.is_zero():
            continue
        cert = max_nonvanishing_minor(A)
        k = cert.size
        if k < min(A.rows, A.cols):
            for I in combinations(range(A.rows), k + 1):
                for J in combinations(range(A.cols), k + 1):
                    assert minor(A, I, J).is_zero()


def test_max_minor_zero_matrix_rejected():
    A = parse_matrix("[[0]]")
    with pytest.raises(ZeroMatrixError):
        max_nonvanishing_minor(A)


@settings(max_examples=100, deadline=None)
@given(low_rank_matrices())
def test_max_minor_is_first_enumerated_property(A):
    # the greedy pass returns the certificate the enumeration over
    # descending sizes meets first: the same row_set, col_set, det and
    # b_l1 (MinorCertificate equality compares every field)
    if A.is_zero():
        with pytest.raises(ZeroMatrixError):
            max_nonvanishing_minor(A)
        return
    first = next(
        cert
        for size in range(min(A.rows, A.cols), 0, -1)
        for cert in iter_nonvanishing_minors(A, size)
    )
    assert max_nonvanishing_minor(A) == first


def _wide_rank_profile_input() -> PolyMatrix:
    """3x40 with a vanishing leading minor: every column is a multiple of
    (1, z1, z1^2) except columns 17 and 39, which make the rank 3."""
    special = {17: ("1", "z2", "0"), 39: ("z1^-1", "0", "1")}
    cols = [
        special.get(j) or tuple(f"{j + 1}*z1^{i}*z2^{j % 3}" for i in range(3))
        for j in range(40)
    ]
    return parse_matrix("[" + ", ".join("[" + ", ".join(row) + "]" for row in zip(*cols)) + "]")


@pytest.mark.parametrize("shape", ["wide", "tall", "rank3-5x6"])
def test_rank_profile_forms_at_most_rows_plus_cols_times_2_to_the_min(shape, monkeypatch):
    # the greedy pass runs over the long side with levels keyed by subsets
    # of the short side, so the 3x40 and 40x3 cases never enumerate the
    # C(40, 3) = 9880 triples of the long side
    wide = _wide_rank_profile_input()
    A = {
        "wide": wide,
        "tall": PolyMatrix([list(col) for col in zip(*wide.entries)]),
        "rank3-5x6": matrix_product(parse_matrix(RANK3_LEFT), parse_matrix(RANK3_RIGHT)),
    }[shape]
    swept = count_swept_minors(monkeypatch)
    cert = max_nonvanishing_minor(A)
    assert 0 < sum(swept) <= (A.rows + A.cols) * 2 ** min(A.rows, A.cols)
    first = next(
        c for size in range(min(A.rows, A.cols), 0, -1) for c in _minors_by_determinant(A, size)
    )
    assert cert == first and cert.size == 3


def test_minor_search_cap():
    # rank one, so the one 6x6 minor vanishes and the best-minor search
    # goes straight to the rank, size 1, whose 36 candidates pass the cap
    z = parse_poly("z1")
    A = PolyMatrix([[z for _ in range(6)] for _ in range(6)])
    with pytest.raises(MinorSearchCapExceeded) as excinfo:
        analyze(A, minor="best", minor_cap=2)
    assert (excinfo.value.size, excinfo.value.candidates) == (1, 36)


# -- the Laplace sweep behind iter_nonvanishing_minors ------------------------------


def _minors_by_determinant(A, size):
    """The enumeration the sweep must reproduce: one cofactor determinant per
    candidate, so the oracle shares no code with the sweep."""
    for I in combinations(range(A.rows), size):
        for J in combinations(range(A.cols), size):
            sub = A.submatrix(I, J)
            det = determinant_cofactor(sub)
            if not det.is_zero():
                yield MinorCertificate(I, J, det, sub.l1_norm())


@st.composite
def rectangular_matrices(draw):
    """Wide, tall and square matrices up to 5x5, with rational or Gaussian
    coefficients (the Gaussian ones include 10^200 and 1/10^400)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    dim = draw(st.integers(1, 3))
    coeffs = draw(st.sampled_from([st.builds(GaussianRational, _rationals), coefficients]))
    entry = laurent_polys(dim, max_terms=2, exp_range=2, coeffs=coeffs)
    return PolyMatrix([[draw(entry) for _ in range(n)] for _ in range(m)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(rectangular_matrices(), low_rank_matrices()))
def test_sweep_matches_determinant_enumeration_property(A):
    # certificate for certificate (row_set, col_set, det, b_l1) and in
    # the same order, at every size
    for size in range(1, min(A.rows, A.cols) + 1):
        want = list(_minors_by_determinant(A, size))
        assert list(iter_nonvanishing_minors(A, size)) == want, size


@pytest.mark.parametrize(
    "m, n, size, formed",
    [
        # sum_{t=2..size} C(m - size + t, t) * C(n, t): each t x t level is
        # formed once per row prefix that some row set of the size extends
        (4, 6, 4, 50),
        (6, 4, 4, 91),
        (5, 6, 3, 290),
        (2, 3, 2, 3),
        (6, 6, 6, 57),
        (3, 7, 1, 0),  # entries are their own minors
    ],
)
def test_sweep_forms_each_prefix_level_once(m, n, size, formed, monkeypatch):
    A = random_matrix(random.Random(m * 100 + n * 10 + size), m, n)
    swept = count_swept_minors(monkeypatch)
    assert list(iter_nonvanishing_minors(A, size)) == list(_minors_by_determinant(A, size))
    assert sum(swept) == formed


def test_iter_minors_rejects_size_zero():
    with pytest.raises(ValueError):
        list(iter_nonvanishing_minors(parse_matrix("[[1, z1]]"), 0))


def _count_determinants(monkeypatch):
    calls = []
    real = matrices.determinant

    def counting(B):
        calls.append(B)
        return real(B)

    monkeypatch.setattr(matrices, "determinant", counting)
    return calls


#: a full-rank 4x6: fifteen non-vanishing 4x4 minors
MATRIX_4X6 = (
    "[[1, z1, 0, 2, z2, 1], [z2, 1, 1, 0, 3, z1^-1],"
    " [0, 2, z1*z2, 1, 1, 0], [1, 0, 1, z1, 0, z2]]"
)


def test_best_minor_4x6_sweeps_50_minors_and_runs_no_determinant(monkeypatch):
    # all fifteen 4x4 minors expand from the twenty 3x3 minors of rows 0-2
    A = parse_matrix(MATRIX_4X6)
    calls = _count_determinants(monkeypatch)
    swept = count_swept_minors(monkeypatch)
    report = analyze(A, minor="best")
    assert calls == [] and sum(swept) == 50 and report.k == 4


def test_best_minor_4x6_forms_each_entry_norm_once(monkeypatch):
    # the fifteen candidates read ||B||_1 off the 24 entry norms of A
    rows = parse_matrix(MATRIX_4X6).entries
    normed = count_entry_norms(monkeypatch)
    report = analyze(PolyMatrix(rows), minor="best")
    assert normed == [p for row in rows for p in row] and report.k == 4


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_sweep_builds_no_submatrix(monkeypatch, size):
    A = parse_matrix(MATRIX_4X6)
    built = []
    real = PolyMatrix.__init__

    def counting(self, entries):
        built.append(entries)
        real(self, entries)

    monkeypatch.setattr(PolyMatrix, "__init__", counting)
    certs = list(iter_nonvanishing_minors(A, size))
    assert built == [] and certs


def test_best_minor_6x6_sweeps_57_minors_and_runs_no_determinant(monkeypatch):
    # a lone 6x6 candidate: one prefix level per size, 2^6 - 6 - 1 minors
    A = PolyMatrix(
        [
            [parse_poly("z1" if i == j else "1" if j == i + 1 else "0") for j in range(6)]
            for i in range(6)
        ]
    )
    calls = _count_determinants(monkeypatch)
    swept = count_swept_minors(monkeypatch)
    report = analyze(A, minor="best")
    assert calls == [] and sum(swept) == 57 and report.k == 6


def test_maximal_minors_zero_matrix_rejected():
    with pytest.raises(ZeroMatrixError):
        maximal_minors(parse_matrix("[[0, 0]]"))


NO_MINOR = "the zero matrix has no non-vanishing minor"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda A: analyze(A, minor="first"), "cannot analyze the zero matrix"),
        (lambda A: analyze(A, minor="best"), "cannot analyze the zero matrix"),
        # every shape but 2x2 has more candidates than the cap: none is searched
        (lambda A: analyze(A, minor="best", minor_cap=1), "cannot analyze the zero matrix"),
        (max_nonvanishing_minor, NO_MINOR),
        (maximal_minors, NO_MINOR),
        (lambda A: matrix_density(A, [1.0], TorusGrid.midpoint(1, 4)), NO_MINOR),
    ],
    ids=["analyze-first", "analyze-best", "analyze-best-cap-1", "max_nonvanishing_minor",
         "maximal_minors", "matrix_density"],
)
@pytest.mark.parametrize("rows, cols", [(1, 2), (2, 2), (3, 1)])
def test_zero_matrix_raises_the_same_error_everywhere(call, message, rows, cols):
    # the greedy rank pass is the one zero test; analyze names itself in its message
    A = PolyMatrix([[LaurentPoly.zero(1)] * cols] * rows)
    with pytest.raises(ZeroMatrixError) as excinfo:
        call(A)
    assert (type(excinfo.value), str(excinfo.value)) == (ZeroMatrixError, message)


# -- norms -------------------------------------------------------------------------


def test_l1_example(example_matrix):
    assert example_matrix.l1_norm() == 18.0
    B = example_matrix.submatrix([0, 1], [0, 1])
    assert B.l1_norm() == 18.0


def test_l1_zero_matrix():
    assert parse_matrix("[[0]]").l1_norm() == 0.0


def test_l1_star_transpose_invariant():
    rng = random.Random(31)
    for _ in range(20):
        A = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert star_transpose(A).l1_norm() == pytest.approx(
            A.l1_norm(), rel=1e-12, abs=1e-300
        )

