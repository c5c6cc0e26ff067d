"""Text format for Laurent polynomials and matrices, with a canonical printer.

Grammar (space, tab, CR and LF are insignificant; a comment runs from ``#``
to the end of the line):

    input  := matrix | poly
    matrix := '[' row (',' row)* ']'
    row    := '[' poly (',' poly)* ']'
    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' ['-'] int)?
    var    := 'z' int           (value 1 to 99, so z01 names z1)
    coeff  := number | '(' ['-'] number (('+'|'-') number)* ')'
    number := int | int '/' int | decimal | imag   (non-zero denominator)
    imag   := number? 'i'

``int`` is a run of decimal digits and ``decimal`` is ``int '.' int``.
Decimal literals become exact rationals (0.25 parses as 1/4).  The printer
emits terms in descending lexicographic exponent order (last variable most
significant), so formatting is canonical and parse(format(p)) == p.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .poly import GaussianRational, LaurentPoly


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


class ParseError(ValueError):
    """A syntax or semantic error in polynomial/matrix text.

    ``kind`` is one of: unexpected-token, bad-exponent, dimension-mismatch,
    bad-number, unbalanced-bracket.
    """

    def __init__(self, kind: str, message: str, span: SourceSpan):
        super().__init__(f"{kind} at line {span.line}, col {span.column}: {message}")
        self.kind = kind
        self.message = message
        self.span = span


# One alternative per token kind.  ``\d`` matches exactly the Unicode decimal
# digits that int() accepts; a decimal with no fractional digits is matched so
# that it can be reported as such.
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<decimal>\d+\.\d*)"
    r"|(?P<int>\d+)"
    r"|(?P<var>z\d*)"
    r"|(?P<punct>[\[\](),+\-*^/i])"
    r"|(?P<bad>.)"  # any other character ('\n' is always skipped)
)


class _Token(NamedTuple):
    kind: str  # 'int', 'decimal', 'var', a punctuation character or 'i', 'eof'
    text: str
    start: int


def _found(tok: _Token) -> str:
    return repr(tok.text) if tok.text else "end of input"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # the whole input is tokenised first, so a bad character anywhere is
        # the error reported
        self.toks = [self._token(m) for m in _TOKEN.finditer(text) if m.lastgroup != "skip"]
        self.toks.append(_Token("eof", "", len(text)))
        self.k = 0

    def error(self, kind: str, message: str, tok: _Token) -> ParseError:
        """A ParseError spanning ``tok``; line and column are counted here only."""
        start = tok.start
        line = self.text.count("\n", 0, start) + 1
        column = start - self.text.rfind("\n", 0, start)
        return ParseError(kind, message, SourceSpan(start, start + len(tok.text), line, column))

    def _token(self, m: re.Match) -> _Token:
        kind = m.lastgroup
        tok = _Token(m.group() if kind == "punct" else kind, m.group(), m.start())
        if kind == "bad":
            raise self.error("unexpected-token", f"unexpected character {tok.text!r}", tok)
        if kind == "decimal" and tok.text.endswith("."):
            raise self.error(
                "bad-number", f"decimal literal {tok.text!r} has no fractional digits", tok
            )
        if kind == "var":
            if tok.text == "z":
                raise self.error(
                    "unexpected-token", "variable name 'z' needs an index (z1..z99)", tok
                )
            if not 1 <= self._value(tok, "unexpected-token", lambda s: int(s[1:])) <= 99:
                raise self.error(
                    "unexpected-token",
                    f"variable {tok.text!r} out of the supported range z1..z99",
                    tok,
                )
        return tok

    def _value(self, tok: _Token, kind: str, convert: Callable = int):
        """``convert(tok.text)``, where int() refuses a literal longer than
        ``sys.get_int_max_str_digits()`` digits."""
        try:
            return convert(tok.text)
        except ValueError:
            raise self.error(
                kind,
                f"literal of {len(tok.text)} characters exceeds the "
                f"{sys.get_int_max_str_digits()}-digit limit for integers",
                tok,
            ) from None

    def peek(self) -> _Token:
        return self.toks[self.k]

    def next(self) -> _Token:
        tok = self.toks[self.k]
        if tok.kind != "eof":
            self.k += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            err_kind = "unbalanced-bracket" if kind in ("]", ")") else "unexpected-token"
            raise self.error(err_kind, f"expected {what}, found {_found(tok)}", tok)
        return self.next()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error("unexpected-token", f"trailing input {tok.text!r}", tok)

    # -- shared loops --------------------------------------------------

    def bracketed(self, item: Callable, what: str, after: str) -> list:
        """'[' item (',' item)* ']' for a ``what`` whose items are ``after``."""
        self.expect("[", f"'[' opening a {what}")
        items = [item()]
        while (tok := self.next()).kind == ",":
            items.append(item())
        if tok.kind != "]":
            raise self.error(
                "unbalanced-bracket",
                f"expected ',' or ']' after {after}, found {tok.text!r}"
                if tok.text
                else f"{what} bracket is never closed",
                tok,
            )
        return items

    def _signed_sum(self, item: Callable) -> list[tuple[bool, object]]:
        """['-'] item (('+'|'-') item)*, as (negated, item) pairs."""
        negated = self.peek().kind == "-"
        if negated:
            self.next()
        out = []
        while True:
            out.append((negated, item()))
            kind = self.peek().kind
            if kind not in ("+", "-"):
                return out
            self.next()
            negated = kind == "-"

    # -- numbers -------------------------------------------------------

    def _exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "int":
            raise self.error(
                "bad-exponent", f"expected an integer exponent, found {_found(tok)}", tok
            )
        return sign * self._value(tok, "bad-exponent")

    def _number_magnitude(self) -> Fraction:
        """int, int/posint or decimal, without sign and without 'i'."""
        tok = self.next()
        if tok.kind == "decimal":
            return self._value(tok, "bad-number", Fraction)
        if tok.kind != "int":
            raise self.error("bad-number", f"expected a number, found {_found(tok)}", tok)
        value = Fraction(self._value(tok, "bad-number"))
        if self.peek().kind == "/":
            self.next()
            den_tok = self.next()
            if den_tok.kind != "int":
                raise self.error(
                    "bad-number", f"expected a denominator, found {den_tok.text!r}", den_tok
                )
            den = self._value(den_tok, "bad-number")
            if den == 0:
                raise self.error("bad-number", "zero denominator", den_tok)
            value = value / den
        return value

    def _simple_coeff(self) -> GaussianRational:
        """number or imag, starting at an int/decimal/'i' token."""
        if self.peek().kind == "i":
            self.next()
            return GaussianRational(0, 1)
        mag = self._number_magnitude()
        if self.peek().kind == "i":
            self.next()
            return GaussianRational(0, mag)
        return GaussianRational(mag)

    # -- polynomials ---------------------------------------------------

    def _factor(self) -> tuple[int, int]:
        """Returns (variable index 0-based, exponent)."""
        tok = self.expect("var", "a variable like z1")
        index = int(tok.text[1:]) - 1
        exponent = 1
        if self.peek().kind == "^":
            self.next()
            exponent = self._exponent()
        return index, exponent

    def _term(self) -> tuple[GaussianRational, dict[int, int]]:
        tok = self.peek()
        exps: dict[int, int] = {}
        if tok.kind in ("int", "decimal", "i"):
            coeff = self._simple_coeff()
        elif tok.kind == "(":
            self.next()
            parts = self._signed_sum(self._simple_coeff)
            coeff = sum((-part if neg else part for neg, part in parts), GaussianRational(0))
            self.expect(")", "')' closing a complex coefficient")
        elif tok.kind == "var":
            coeff = GaussianRational(1)
            idx, e = self._factor()
            exps[idx] = exps.get(idx, 0) + e
        else:
            raise self.error("unexpected-token", f"expected a term, found {_found(tok)}", tok)
        while self.peek().kind == "*":
            self.next()
            idx, e = self._factor()
            exps[idx] = exps.get(idx, 0) + e
        return coeff, exps

    def poly_body(self) -> list[tuple[GaussianRational, dict[int, int]]]:
        terms = self._signed_sum(self._term)
        return [(-coeff if neg else coeff, exps) for neg, (coeff, exps) in terms]

    def row(self) -> tuple[_Token, list]:
        """A row and its first token, which locates a ragged-row error."""
        return self.peek(), self.bracketed(self.poly_body, "row", "an entry")


def _build_poly(
    raw_terms: list[tuple[GaussianRational, dict[int, int]]],
    dim: int,
) -> LaurentPoly:
    terms = []
    for coeff, exps in raw_terms:
        exp = [0] * dim
        for idx, e in exps.items():
            if e:  # z_j^0 is 1; j may lie beyond the inferred dimension
                exp[idx] = e
        terms.append((tuple(exp), coeff))
    return LaurentPoly(dim, terms)


def _max_var_index(raw_terms) -> int:
    best = 0
    for _, exps in raw_terms:
        for idx, e in exps.items():
            if e != 0:
                best = max(best, idx + 1)
    return best


def parse_poly(text: str, expected_dim: int | None = None) -> LaurentPoly:
    """Parse one Laurent polynomial.

    The ambient dimension is the largest variable index that occurs (at
    least 1), unless ``expected_dim`` is given, in which case smaller
    indices embed and larger ones raise a dimension-mismatch ParseError.
    """
    parser = _Parser(text)
    start_tok = parser.peek()
    raw = parser.poly_body()
    parser.expect_eof()
    inferred = max(1, _max_var_index(raw))
    if expected_dim is not None:
        if inferred > expected_dim:
            raise parser.error(
                "dimension-mismatch",
                f"polynomial uses z{inferred} but only {expected_dim} variables are expected",
                start_tok,
            )
        inferred = expected_dim
    return _build_poly(raw, inferred)


def parse_matrix(text: str):
    """Parse ``input := matrix | poly``: a rectangular matrix of Laurent
    polynomials, or one polynomial, which is the 1x1 matrix ``[[p]]``.

    The first token decides: a text that opens with '[' is a matrix, any
    other is read by ``parse_poly``, errors included.  The ambient dimension
    is the largest variable index over all entries.  Ragged rows are
    rejected with the offending row's span.
    """
    from .matrices import PolyMatrix

    parser = _Parser(text)
    if parser.peek().kind != "[":
        return PolyMatrix([[parse_poly(text)]])
    rows = parser.bracketed(parser.row, "matrix", "a row")
    parser.expect_eof()
    ncols = len(rows[0][1])
    for r, (row_tok, row) in enumerate(rows):
        if len(row) != ncols:
            raise parser.error(
                "dimension-mismatch",
                f"ragged rows: row {r + 1} has {len(row)} entries, expected {ncols}",
                row_tok,
            )
    dim = max(1, max(_max_var_index(raw) for _, row in rows for raw in row))
    entries = [[_build_poly(raw, dim) for raw in row] for _, row in rows]
    return PolyMatrix(entries)


# -- canonical formatting --------------------------------------------------


def _sign_and_magnitude(c: GaussianRational) -> tuple[bool, str]:
    """Whether a term prints a minus sign, and its coefficient's text.

    A real or imaginary coefficient gives its sign to the term and prints
    its magnitude, '' for a (real) unit, which is elided in front of
    variables; a genuinely complex one keeps its signs in parentheses.
    """
    if c.im == 0:
        mag = abs(c.re)
        return c.re < 0, "" if mag == 1 else str(mag)
    mag = abs(c.im)
    im_s = ("" if mag == 1 else str(mag)) + "i"
    if c.re == 0:
        return c.im < 0, im_s
    op = "+" if c.im > 0 else "-"
    return False, f"({c.re}{op}{im_s})"


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form (descending exponent order, '*' and '^' explicit)."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exp in reversed(p.terms):
        minus, mag = _sign_and_magnitude(p.terms[exp])
        factors = [
            f"z{j + 1}" + (f"^{e}" if e != 1 else "")
            for j, e in enumerate(exp)
            if e != 0
        ]
        if factors:
            body = ("*".join(factors)) if not mag else mag + "*" + "*".join(factors)
        else:
            body = mag if mag else "1"
        if not parts:
            parts.append(("-" if minus else "") + body)
        else:
            parts.append((" - " if minus else " + ") + body)
    return "".join(parts)


def format_matrix(A) -> str:
    rows = ", ".join(
        "[" + ", ".join(format_poly(p) for p in row) + "]" for row in A.entries
    )
    return f"[{rows}]"
