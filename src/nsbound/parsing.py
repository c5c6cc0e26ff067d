"""Text format for Laurent polynomials and matrices, with a canonical printer.

Grammar (whitespace insignificant, ``#`` comments run to end of line):

    matrix := '[' row (',' row)* ']'
    row    := '[' poly (',' poly)* ']'
    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' int)?
    var    := 'z' posint          (z1 through z99)
    coeff  := number | '(' complex ')'
    number := int | int '/' posint | decimal | imag
    imag   := number? 'i'

Decimal literals become exact rationals (0.25 parses as 1/4).  The printer
emits terms in descending lexicographic exponent order (last variable most
significant), so formatting is canonical and parse(format(p)) == p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import GaussianRational, LaurentPoly


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start exceeds end")


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


_PUNCT = {"[", "]", "(", ")", ",", "+", "-", "*", "^", "/"}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'decimal', 'var', 'i', punct literal, 'eof'
    text: str
    span: SourceSpan


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _span(self, start: int, start_line: int, start_col: int) -> SourceSpan:
        return SourceSpan(start, self.pos, start_line, start_col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def tokens(self) -> list[_Token]:
        out = []
        text = self.text
        while True:
            while self.pos < len(text):
                ch = text[self.pos]
                if ch in " \t\r\n":
                    self._advance()
                elif ch == "#":
                    while self.pos < len(text) and text[self.pos] != "\n":
                        self._advance()
                else:
                    break
            if self.pos >= len(text):
                span = SourceSpan(self.pos, self.pos, self.line, self.col)
                out.append(_Token("eof", "", span))
                return out
            start, sl, sc = self.pos, self.line, self.col
            ch = text[self.pos]
            if ch in _PUNCT:
                self._advance()
                out.append(_Token(ch, ch, self._span(start, sl, sc)))
            elif ch.isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self._advance()
                if self.pos < len(text) and text[self.pos] == ".":
                    self._advance()
                    digits = 0
                    while self.pos < len(text) and text[self.pos].isdigit():
                        self._advance()
                        digits += 1
                    if digits == 0:
                        raise ParseError(
                            "bad-number",
                            f"decimal literal {text[start:self.pos]!r} has no fractional digits",
                            self._span(start, sl, sc),
                        )
                    out.append(_Token("decimal", text[start:self.pos], self._span(start, sl, sc)))
                else:
                    out.append(_Token("int", text[start:self.pos], self._span(start, sl, sc)))
            elif ch == "i":
                self._advance()
                out.append(_Token("i", "i", self._span(start, sl, sc)))
            elif ch == "z":
                self._advance()
                digits = 0
                while self.pos < len(text) and text[self.pos].isdigit():
                    self._advance()
                    digits += 1
                name = text[start : self.pos]
                if digits == 0:
                    raise ParseError(
                        "unexpected-token",
                        f"variable name {name!r} needs an index (z1..z99)",
                        self._span(start, sl, sc),
                    )
                index = int(name[1:])
                if not 1 <= index <= 99:
                    raise ParseError(
                        "unexpected-token",
                        f"variable {name!r} out of the supported range z1..z99",
                        self._span(start, sl, sc),
                    )
                out.append(_Token("var", name, self._span(start, sl, sc)))
            else:
                self._advance()
                raise ParseError(
                    "unexpected-token",
                    f"unexpected character {ch!r}",
                    self._span(start, sl, sc),
                )


class _Parser:
    def __init__(self, text: str):
        self.toks = _Lexer(text).tokens()
        self.k = 0

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
            raise ParseError(
                err_kind,
                f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}, found end of input",
                tok.span,
            )
        return self.next()

    # -- numbers -------------------------------------------------------

    def _posint(self, what: str) -> int:
        tok = self.expect("int", what)
        value = int(tok.text)
        if value <= 0:
            raise ParseError("bad-number", f"{what} must be positive, got {value}", tok.span)
        return value

    def _signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            sign = -1
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(
                "bad-exponent",
                f"expected an integer exponent, found {tok.text!r}" if tok.text else "expected an integer exponent, found end of input",
                tok.span,
            )
        self.next()
        return sign * int(tok.text)

    def _number_magnitude(self) -> Fraction:
        """int, int/posint or decimal, without sign and without 'i'."""
        tok = self.next()
        if tok.kind == "decimal":
            return Fraction(tok.text)
        if tok.kind != "int":
            raise ParseError(
                "bad-number",
                f"expected a number, found {tok.text!r}" if tok.text else "expected a number, found end of input",
                tok.span,
            )
        value = Fraction(int(tok.text))
        if self.peek().kind == "/":
            self.next()
            den_tok = self.peek()
            if den_tok.kind != "int":
                raise ParseError(
                    "bad-number",
                    f"expected a denominator, found {den_tok.text!r}",
                    den_tok.span,
                )
            self.next()
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("bad-number", "zero denominator", den_tok.span)
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

    def _paren_complex(self) -> GaussianRational:
        self.expect("(", "'('")
        total = GaussianRational(0)
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        while True:
            part = self._simple_coeff()
            total = total + (part * Fraction(sign))
            tok = self.peek()
            if tok.kind == "+":
                sign = 1
                self.next()
            elif tok.kind == "-":
                sign = -1
                self.next()
            else:
                break
        self.expect(")", "')' closing a complex coefficient")
        return total

    # -- polynomials ---------------------------------------------------

    def _factor(self) -> tuple[int, int]:
        """Returns (variable index 0-based, exponent)."""
        tok = self.expect("var", "a variable like z1")
        index = int(tok.text[1:]) - 1
        exponent = 1
        if self.peek().kind == "^":
            self.next()
            exponent = self._signed_int()
        return index, exponent

    def _term(self) -> tuple[GaussianRational, dict[int, int]]:
        tok = self.peek()
        exps: dict[int, int] = {}
        if tok.kind in ("int", "decimal", "i"):
            coeff = self._simple_coeff()
        elif tok.kind == "(":
            coeff = self._paren_complex()
        elif tok.kind == "var":
            coeff = GaussianRational(1)
            idx, e = self._factor()
            exps[idx] = exps.get(idx, 0) + e
        else:
            raise ParseError(
                "unexpected-token",
                f"expected a term, found {tok.text!r}" if tok.text else "expected a term, found end of input",
                tok.span,
            )
        while self.peek().kind == "*":
            self.next()
            idx, e = self._factor()
            exps[idx] = exps.get(idx, 0) + e
        return coeff, exps

    def parse_poly_body(self) -> list[tuple[GaussianRational, dict[int, int]]]:
        terms = []
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        while True:
            coeff, exps = self._term()
            terms.append((coeff * Fraction(sign), exps))
            tok = self.peek()
            if tok.kind == "+":
                sign = 1
                self.next()
            elif tok.kind == "-":
                sign = -1
                self.next()
            else:
                return terms

    def _row(self) -> list:
        self.expect("[", "'[' opening a row")
        entries = []
        while True:
            entries.append(self.parse_poly_body())
            tok = self.peek()
            if tok.kind == ",":
                self.next()
            elif tok.kind == "]":
                self.next()
                return entries
            else:
                raise ParseError(
                    "unbalanced-bracket",
                    f"expected ',' or ']' after an entry, found {tok.text!r}" if tok.text else "row bracket is never closed",
                    tok.span,
                )

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                "unexpected-token", f"trailing input {tok.text!r}", tok.span
            )


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
    raw = parser.parse_poly_body()
    parser.expect_eof()
    inferred = max(1, _max_var_index(raw))
    if expected_dim is not None:
        if inferred > expected_dim:
            raise ParseError(
                "dimension-mismatch",
                f"polynomial uses z{inferred} but only {expected_dim} variables are expected",
                start_tok.span,
            )
        inferred = expected_dim
    return _build_poly(raw, inferred)


def parse_matrix(text: str):
    """Parse a rectangular matrix of Laurent polynomials.

    The ambient dimension is the largest variable index over all entries.
    Ragged rows are rejected with the offending row's span.
    """
    from .matrices import PolyMatrix

    parser = _Parser(text)
    open_tok = parser.peek()
    row_start_spans = []
    # record row spans while parsing: re-lex cheaply by tracking token index
    rows_raw = []
    parser.expect("[", "'[' opening a matrix")
    while True:
        row_tok = parser.peek()
        row_start_spans.append(row_tok.span)
        rows_raw.append(parser._row())
        tok = parser.peek()
        if tok.kind == ",":
            parser.next()
        elif tok.kind == "]":
            parser.next()
            break
        else:
            raise ParseError(
                "unbalanced-bracket",
                f"expected ',' or ']' after a row, found {tok.text!r}" if tok.text else "matrix bracket is never closed",
                tok.span,
            )
    parser.expect_eof()
    if not rows_raw:
        raise ParseError("unexpected-token", "matrix has no rows", open_tok.span)
    ncols = len(rows_raw[0])
    for r, row in enumerate(rows_raw):
        if len(row) != ncols:
            raise ParseError(
                "dimension-mismatch",
                f"ragged rows: row {r + 1} has {len(row)} entries, expected {ncols}",
                row_start_spans[r],
            )
    dim = max(1, max(_max_var_index(raw) for row in rows_raw for raw in row))
    entries = [[_build_poly(raw, dim) for raw in row] for row in rows_raw]
    return PolyMatrix(entries)


# -- canonical formatting --------------------------------------------------


def _format_fraction(f: Fraction) -> str:
    return str(f)  # Fraction prints 'a' or 'a/b' with positive denominator


def _format_magnitude(c: GaussianRational) -> tuple[str, bool]:
    """Magnitude string for a coefficient whose sign is handled outside.

    Returns (text, needs_star) where ``text`` is '' for a (real) unit that
    can be elided in front of variables.
    """
    if c.im == 0:
        mag = abs(c.re)
        return ("" if mag == 1 else _format_fraction(mag)), mag != 1
    if c.re == 0:
        mag = abs(c.im)
        return ("i" if mag == 1 else _format_fraction(mag) + "i"), True
    # genuinely complex: parenthesized with internal signs, never split
    re_s = _format_fraction(c.re)
    im_mag = abs(c.im)
    im_s = ("" if im_mag == 1 else _format_fraction(im_mag)) + "i"
    op = "+" if c.im > 0 else "-"
    return f"({re_s}{op}{im_s})", True


def _term_sign(c: GaussianRational) -> int:
    """Sign pulled out in front of a term; complex coefficients keep theirs."""
    if c.im == 0:
        return -1 if c.re < 0 else 1
    if c.re == 0:
        return -1 if c.im < 0 else 1
    return 1


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form (descending exponent order, '*' and '^' explicit)."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for exp in reversed(p.terms):
        c = p.terms[exp]
        sign = _term_sign(c)
        mag, needs_star = _format_magnitude(c * sign if sign < 0 else c)
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
            parts.append(("-" if sign < 0 else "") + body)
        else:
            parts.append((" - " if sign < 0 else " + ") + body)
    return "".join(parts)


def format_matrix(A) -> str:
    rows = ", ".join(
        "[" + ", ".join(format_poly(p) for p in row) + "]" for row in A.entries
    )
    return f"[{rows}]"
