"""Grammar, spans, canonical formatting, round trips."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsbound import (
    GaussianRational,
    LaurentPoly,
    ParseError,
    format_matrix,
    format_poly,
    parse_matrix,
    parse_poly,
)

from conftest import EXAMPLE_MATRIX_TEXT, random_poly


def test_parse_example_poly():
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    assert p.dim == 2
    assert p.terms == {
        (3, 1): GaussianRational(1),
        (1, 2): GaussianRational(2),
        (0, 0): GaussianRational(-16),
    }


def test_parse_zero():
    assert parse_poly("0").is_zero()
    assert parse_poly("0").dim == 1


def test_parse_complex_coefficient():
    p = parse_poly("(1/2 + 3/4i)*z1^-2")
    assert p.terms == {(-2,): GaussianRational(Fraction(1, 2), Fraction(3, 4))}


def test_parse_decimal_is_exact():
    p = parse_poly("0.25*z1")
    assert p.terms == {(1,): GaussianRational(Fraction(1, 4))}


def test_parse_unary_minus_binds_to_term():
    p = parse_poly("-z1*z2")
    assert p.terms == {(1, 1): GaussianRational(-1)}


def test_parse_comment_and_whitespace():
    p = parse_poly("z1   # trailing comment\n + 1  # another\n")
    assert p == parse_poly("z1 + 1")


def test_parse_repeated_variable_accumulates():
    assert parse_poly("z1*z1") == parse_poly("z1^2")


def test_parse_pure_imaginary_forms():
    assert parse_poly("i").terms == {(0,): GaussianRational(0, 1)}
    assert parse_poly("3/4i*z1").terms == {(1,): GaussianRational(0, Fraction(3, 4))}
    assert parse_poly("-i*z1") == parse_poly("(0 - i)*z1")


def test_parse_zero_exponent_beyond_dimension():
    # z_j^0 is 1 and does not raise the ambient dimension to j
    assert parse_poly("z2^0") == parse_poly("1")
    assert parse_poly("1 + z3^0") == parse_poly("1") * 2
    assert parse_matrix("[[z2^0, z1]]") == parse_matrix("[[1, z1]]")


def test_parse_expected_dim_embeds_and_rejects():
    p = parse_poly("z1 + 1", expected_dim=3)
    assert p.dim == 3
    with pytest.raises(ParseError) as exc:
        parse_poly("z1*z4", expected_dim=2)
    assert exc.value.kind == "dimension-mismatch"


LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "text,kind",
    [
        ("z1 +", "unexpected-token"),
        ("z1^x", "unexpected-token"),
        ("z1^i", "bad-exponent"),
        ("z1^1.5", "bad-exponent"),
        ("1/0", "bad-number"),
        ("z1 @ z2", "unexpected-token"),
        ("z100", "unexpected-token"),
        ("z0", "unexpected-token"),
        ("(1 + i", "unbalanced-bracket"),
        ("2*3", "unexpected-token"),
        ("", "unexpected-token"),
        # superscript digits pass str.isdigit but not int()
        ("²", "unexpected-token"),
        ("z1^²", "unexpected-token"),
        ("1/²", "unexpected-token"),
        # literals longer than the interpreter's int() digit limit
        pytest.param(LONG, "bad-number", id="long-coefficient"),
        pytest.param("1/" + LONG, "bad-number", id="long-denominator"),
        pytest.param("0." + LONG, "bad-number", id="long-decimal"),
        pytest.param("z1^" + LONG, "bad-exponent", id="long-exponent"),
        pytest.param("z" + LONG, "unexpected-token", id="long-variable-index"),
    ],
)
def test_parse_poly_errors(text, kind):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.kind == kind
    span = exc.value.span
    assert 0 <= span.start <= span.end <= len(text)


@pytest.mark.parametrize(
    "entry,text,expected_dim,message,span",
    [
        ("matrix", "[[z1, 1],\n [z2 + , 3]]", None,
         "unexpected-token at line 2, col 8: expected a term, found ','", (17, 18, 2, 8)),
        ("matrix", "[[z1],\n [z2],\n [z3 @ 1]]", None,
         "unexpected-token at line 3, col 6: unexpected character '@'", (19, 20, 3, 6)),
        ("matrix", "[[z1, 1],\r\n [2, z2^-]]", None,
         "bad-exponent at line 2, col 10: expected an integer exponent, found ']'",
         (20, 21, 2, 10)),
        ("matrix", "# header\n[[z1,\tz2],\t# first row\n\t[1/0, 2]]", None,
         "bad-number at line 3, col 5: zero denominator", (36, 37, 3, 5)),
        # a lone CR does not end a line
        ("matrix", "[[z1],\r[z2 z2]]", None,
         "unbalanced-bracket at line 1, col 12: expected ',' or ']' after an entry, found 'z2'",
         (11, 13, 1, 12)),
        ("matrix", "[[z1, z2]", None,
         "unbalanced-bracket at line 1, col 10: matrix bracket is never closed", (9, 9, 1, 10)),
        ("matrix", "[[z1, 1],\n [z2]]", None,
         "dimension-mismatch at line 2, col 2: ragged rows: row 2 has 1 entries, expected 2",
         (11, 12, 2, 2)),
        ("matrix", "[[1, 2],\r\n [3, 4],\r\n\t[5]]  # short row\n", None,
         "dimension-mismatch at line 3, col 2: ragged rows: row 3 has 1 entries, expected 2",
         (21, 22, 3, 2)),
        ("poly", "z1 +\n", None,
         "unexpected-token at line 2, col 1: expected a term, found end of input", (5, 5, 2, 1)),
        ("poly", "z1 +\n\t3.", None,
         "bad-number at line 2, col 2: decimal literal '3.' has no fractional digits",
         (6, 8, 2, 2)),
        ("poly", "1 +\r\n  z100", None,
         "unexpected-token at line 2, col 3: variable 'z100' out of the supported range z1..z99",
         (7, 11, 2, 3)),
        ("poly", "# only a comment", None,
         "unexpected-token at line 1, col 17: expected a term, found end of input",
         (16, 16, 1, 17)),
        ("poly", "\n  # comment\n  z1*z3", 2,
         "dimension-mismatch at line 3, col 3: polynomial uses z3 but only 2 variables are expected",
         (15, 17, 3, 3)),
        ("poly", "\u0663*z1 -\n\t(1 + 2i", None,
         "unbalanced-bracket at line 2, col 9: expected ')' closing a complex coefficient, "
         "found end of input", (15, 15, 2, 9)),
    ],
)
def test_error_positions(entry, text, expected_dim, message, span):
    with pytest.raises(ParseError) as exc:
        parse_matrix(text) if entry == "matrix" else parse_poly(text, expected_dim)
    s = exc.value.span
    assert str(exc.value) == message
    assert (s.start, s.end, s.line, s.column) == span


def test_parse_matrix_example(example_matrix):
    A = example_matrix
    assert (A.rows, A.cols, A.dim) == (2, 3, 2)
    assert A[0, 0] == parse_poly("z1^3", expected_dim=2)
    assert A[1, 0] == parse_poly("2*z1*z2^2 - 16")


def test_parse_matrix_zero_entry_ok():
    A = parse_matrix("[[0]]")
    assert (A.rows, A.cols) == (1, 1)
    assert A.is_zero()


def test_parse_matrix_ragged_rows():
    with pytest.raises(ParseError) as exc:
        parse_matrix("[[z1],[z1, z2]]")
    assert exc.value.kind == "dimension-mismatch"
    assert "ragged" in exc.value.message


def test_parse_matrix_unbalanced():
    with pytest.raises(ParseError) as exc:
        parse_matrix("[[z1], [z2]")
    assert exc.value.kind == "unbalanced-bracket"


def test_format_example_canonical_order():
    p = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    assert format_poly(p) == "2*z1*z2^2 + z1^3*z2 - 16"


def test_format_zero():
    assert format_poly(LaurentPoly.zero(2)) == "0"


def test_format_units_and_signs():
    assert format_poly(parse_poly("-z1 + 1")) == "-z1 + 1"
    assert format_poly(parse_poly("i*z1 - 2/3")) == "i*z1 - 2/3"
    assert format_poly(parse_poly("(1/2 - 3/4i)*z2^-1")) == "(1/2-3/4i)*z2^-1"


#: (dim, {exponent: (re, im)}, exact printed text).  A real or imaginary
#: coefficient gives its sign to the term; a complex one keeps its signs
#: inside the parentheses, so a leading "-" of the term is not pulled out.
PRINTED = [
    (1, {(1,): (-1, 0), (0,): (1, 0)}, "-z1 + 1"),
    (1, {(1,): (1, 0), (0,): (Fraction(-2, 3), 0)}, "z1 - 2/3"),
    (1, {(1,): (0, -1)}, "-i*z1"),
    (1, {(1,): (1, 0), (0,): (0, Fraction(-3, 4))}, "z1 - 3/4i"),
    (1, {(0,): (0, -1)}, "-i"),
    (1, {(1,): (1, 0), (0,): (Fraction(-1, 2), 1)}, "z1 + (-1/2+i)"),
    (1, {(0,): (-1, 0)}, "-1"),
    (2, {(-1, 1): (-1, 0), (0, 0): (Fraction(-1, 2), Fraction(3, 4))}, "-z1^-1*z2 + (-1/2+3/4i)"),
    (2, {(2, 1): (2, -1), (0, 1): (-1, 0), (0, 0): (Fraction(7, 3), 0)}, "(2-i)*z1^2*z2 - z2 + 7/3"),
]


@pytest.mark.parametrize("dim, terms, text", PRINTED, ids=[t for _, _, t in PRINTED])
def test_format_prints_each_sign_case_exactly(dim, terms, text):
    p = LaurentPoly(dim, {e: GaussianRational(re, im) for e, (re, im) in terms.items()})
    assert format_poly(p) == text


def test_format_matrix_round_trip(example_matrix):
    text = format_matrix(example_matrix)
    assert parse_matrix(text) == example_matrix


def test_round_trip_seeded_corpus():
    rng = random.Random(77)
    for _ in range(300):
        p = random_poly(rng, rng.randint(1, 3), max_terms=10, exp_range=9)
        assert parse_poly(format_poly(p), expected_dim=p.dim) == p


@st.composite
def poly_strategy(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(-9, 9)) for _ in range(dim))
        re = draw(st.fractions(max_denominator=10**4))
        im = draw(st.fractions(max_denominator=10**4))
        if abs(re.numerator) > 10**4 or abs(im.numerator) > 10**4:
            re, im = Fraction(1), Fraction(0)
        terms[exp] = GaussianRational(re, im)
    return LaurentPoly(dim, terms)


@settings(max_examples=200)
@given(poly_strategy())
def test_round_trip_property(p):
    assert parse_poly(format_poly(p), expected_dim=p.dim) == p


@settings(max_examples=200)
@given(poly_strategy(), poly_strategy())
def test_format_injective_on_canonical_forms(p, q):
    if p.dim == q.dim and p != q:
        assert format_poly(p) != format_poly(q)


@settings(max_examples=300)
@given(st.text(alphabet="z123[]()+-*/^i., \n#²", max_size=40))
def test_error_spans_stay_inside_input(text):
    try:
        parse_matrix(text) if text.lstrip().startswith("[") else parse_poly(text)
    except ParseError as exc:
        assert 0 <= exc.span.start <= exc.span.end <= len(text)
