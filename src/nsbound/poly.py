"""Exact sparse Laurent polynomial arithmetic over Gaussian rationals.

A Laurent polynomial in d variables z1, ..., zd is stored as a sparse map
from exponent tuples (one signed integer per variable) to GaussianRational
coefficients.  All arithmetic is exact, which makes zero-testing of
determinants and leading coefficients fully reliable; floating point only
enters when a polynomial is evaluated on the torus or when a coefficient
modulus is reported as a float.

Terms are kept sorted in the lexicographic order that compares the *last*
coordinate first, so that printing is canonical and evaluation adds the
terms in one fixed order.

A power table draws its rows from a source the caller gives, and which
rows it draws depends only on the exponents, so one run on one point
counts them (``_rows_drawn``).  A width tower reads ``wd`` and its
leading constant from the tower and widths it stores.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Exponent = tuple[int, ...]

RationalLike = int | Fraction


class DimensionMismatch(ValueError):
    """Raised when two polynomials of different ambient dimension are combined."""


class ZeroPolynomialError(ValueError):
    """Raised by operations that require a non-zero polynomial."""


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: GaussianRational) -> GaussianRational:
        other = _coerce_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        other = _coerce_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> GaussianRational:
        return _coerce_gaussian(other) - self

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> GaussianRational:
        other = _coerce_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> GaussianRational:
        other = _coerce_gaussian(other)
        n = other.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def is_real(self) -> bool:
        return not self.im

    def __repr__(self) -> str:
        if not self.im:
            return f"GaussianRational({self.re!s})"
        return f"GaussianRational({self.re!s}, {self.im!s})"


def _coerce_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as GaussianRational")


ONE = GaussianRational(1)


def _lex_key(exponent: Exponent) -> Exponent:
    # Lexicographic order comparing the last coordinate first.
    return tuple(reversed(exponent))


def _float_up(x: Fraction) -> float:
    """Smallest float >= x; OverflowError beyond the float range."""
    f = float(x)
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
        if f == math.inf:
            raise OverflowError("rounding up leaves the float range")
    return f


def _float_down(x: Fraction) -> float:
    """Largest float <= x (so float compares reproduce exact comparisons).

    Beyond the float range the result is +-inf, which every finite float
    compares below or above in the same way as it does x.
    """
    try:
        f = float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    if Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return f


def _abs_down(c: GaussianRational) -> float:
    """Largest float <= |c|; OverflowError beyond the float range.

    ``abs`` is the ``hypot`` of the rounded parts: finite wherever |c| is,
    but up to two ulps from it on either side.  So it steps down one ulp
    at a time while its exact square exceeds |c|^2, then up while the next
    float's does not.
    """
    abs2 = c.abs2()
    f = abs(c)
    while Fraction(f) ** 2 > abs2:
        f = math.nextafter(f, 0.0)
    while (up := math.nextafter(f, math.inf)) < math.inf and Fraction(up) ** 2 <= abs2:
        f = up
    return f


def _abs_up(c: GaussianRational) -> Fraction:
    """A rational >= |c|: |c| itself when that is rational, else within 2^-99 of it.

    With |c|^2 = n/d, |c| = sqrt(n*d*4^s) / (d*2^s); s gives the integer
    square root at least 100 bits, and it is rounded up.  A float bound per
    term would round a sum up once per term: 10^200 + 1 would come out two
    ulps above it instead of one.
    """
    n, d = c.abs2().as_integer_ratio()
    s = max(0, 201 - (n * d).bit_length()) // 2
    m = n * d << 2 * s
    r = math.isqrt(m)
    return Fraction(r + (r * r < m), d << s)


class LaurentPoly:
    """A sparse Laurent polynomial with GaussianRational coefficients.

    ``dim`` is the ambient number of variables (0 is allowed and means a
    constant, which arises at the bottom of width towers).  ``terms`` maps
    exponent tuples of length ``dim`` to non-zero coefficients.  Instances
    are immutable by convention; no method mutates an existing polynomial.
    """

    __slots__ = ("dim", "_terms", "_floats")

    def __init__(self, dim: int, terms: Mapping[Exponent, GaussianRational] | Iterable):
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[Exponent, GaussianRational] = {}
        for exp, coeff in items:
            exp = tuple(map(operator.index, exp))
            if len(exp) != dim:
                raise DimensionMismatch(
                    f"exponent {exp} has length {len(exp)}, expected {dim}"
                )
            coeff = _coerce_gaussian(coeff)
            if exp in cleaned:
                coeff = cleaned[exp] + coeff
            if coeff:
                cleaned[exp] = coeff
            elif exp in cleaned:
                del cleaned[exp]
        self.dim = dim
        self._terms = dict(sorted(cleaned.items(), key=lambda kv: _lex_key(kv[0])))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim: int) -> LaurentPoly:
        return LaurentPoly(dim, {})

    @staticmethod
    def const(dim: int, c) -> LaurentPoly:
        return LaurentPoly(dim, {(0,) * dim: c})

    @staticmethod
    def variable(dim: int, index: int) -> LaurentPoly:
        """The polynomial z_{index+1} inside C[z1..zd]."""
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        exp = [0] * dim
        exp[index] = 1
        return LaurentPoly(dim, {tuple(exp): ONE})

    @staticmethod
    def monomial(dim: int, exponent: Iterable[int], coeff=1) -> LaurentPoly:
        return LaurentPoly(dim, {tuple(exponent): coeff})

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, GaussianRational]:
        """The term map, sorted ascending in last-coordinate-first lex order.

        Treat as read-only.
        """
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    __hash__ = None  # mutable-looking container; identity hashing would mislead

    def __repr__(self) -> str:
        from .parsing import format_poly

        return f"LaurentPoly({format_poly(self)!r}, dim={self.dim})"

    # -- ring operations ----------------------------------------------

    def _check_dim(self, other: LaurentPoly) -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other) -> LaurentPoly:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = LaurentPoly.const(self.dim, other)
        self._check_dim(other)
        return LaurentPoly(self.dim, [*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> LaurentPoly:
        return self + (-other if isinstance(other, LaurentPoly) else -_coerce_gaussian(other))

    def __rsub__(self, other) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, (int, Fraction, GaussianRational)):
            return LaurentPoly(self.dim, {e: v * other for e, v in self._terms.items()})
        self._check_dim(other)
        return LaurentPoly(
            self.dim,
            (
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self._terms.items()
                for e2, c2 in other._terms.items()
            ),
        )

    __rmul__ = __mul__

    def star(self) -> LaurentPoly:
        """Coefficient-wise conjugation combined with exponent negation."""
        return LaurentPoly(
            self.dim,
            {tuple(-e for e in exp): c.conjugate() for exp, c in self._terms.items()},
        )

    def lift(self, dim: int) -> LaurentPoly:
        """Embed into a ring with more variables (new exponents are zero)."""
        if dim < self.dim:
            raise DimensionMismatch(f"cannot lower dimension {self.dim} -> {dim}")
        if dim == self.dim:
            return self
        pad = (0,) * (dim - self.dim)
        return LaurentPoly(dim, {exp + pad: c for exp, c in self._terms.items()})

    # -- norms and evaluation -------------------------------------------

    def l1_norm(self) -> float:
        """Sum of coefficient moduli, rounded up to a float upper bound.

        A real coefficient adds |re|, a complex one ``_abs_up``, which is
        exact when its modulus is rational, and the sum is rounded up once,
        so with real coefficients the result is the smallest float >= the norm.
        """
        terms = self._terms.values()
        return _float_up(sum(abs(c.re) if c.is_real() else _abs_up(c) for c in terms))

    def eval_block(
        self,
        z: np.ndarray,
        powers: list[dict[int, np.ndarray]] | None = None,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate at a block of torus points given as unit complex numbers.

        ``z`` has shape (npoints, dim) with z[r, j] = exp(i*phi_j) at point
        r; returns complex128 values.  No exp is taken here: each monomial is
        a product of integer powers of the columns of z, with one array per
        distinct exponent and coordinate (see ``_unit_powers``), and a
        negative exponent is the conjugate of the positive power, as
        z^-1 = conj(z) on the torus.  The error of a value is of order
        eps * l1_norm * (1 + max |e|), the same as that of exp(i e.phi).

        ``powers`` is a table from ``_power_table`` over polynomials that
        include this one, shared by several evaluations on the same ``z``;
        without it the table of this polynomial alone is built in fresh
        rows.  A power does not depend on which other exponents its table
        holds, so the values are the same either way.  ``out`` receives
        the values, and ``scratch``, two rows, holds each term's products
        in turn, never in place (see ``_unit_powers``); all are complex
        arrays of npoints entries, allocated if missing.  The first term is written into
        ``out`` directly and the others are added to it, so the values are
        the sum started from zero up to the sign of a zero.
        """
        z = np.asarray(z, dtype=np.complex128)
        if z.shape[1] != self.dim:
            raise DimensionMismatch(
                f"point rows have length {z.shape[1]}, expected {self.dim}"
            )
        if powers is None:
            powers = _power_table(z, [self])[0]
        if out is None:
            out = np.empty(z.shape[0], dtype=np.complex128)
        if scratch is None:
            scratch = np.empty((2, z.shape[0]), dtype=np.complex128)
        if not self._terms:
            out.fill(0)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (powered, c) in enumerate(self._float_terms()):
                factors = [powers[j][e] for j, e in powered]
                if not factors:
                    if i:
                        out += c
                    else:
                        out.fill(c)
                    continue
                # the products alternate between two rows; the first term
                # starts in the row that makes its last product land in out
                term, spare = scratch if i else (out, scratch[0])
                if len(factors) % 2 == 0:
                    term, spare = spare, term
                np.multiply(c, factors[0], out=term)
                for f in factors[1:]:
                    term, spare = np.multiply(term, f, out=spare), term
                if i:
                    out += term
        return out

    def _float_terms(self) -> tuple:
        """((j, e) per non-zero exponent e of coordinate j, complex(c)) per term.

        Formed on first use and kept, as the polynomial never changes, so a
        run converts each coefficient once however many blocks it evaluates.
        A part of a coefficient beyond the float range raises ``OverflowError``.
        """
        try:
            return self._floats
        except AttributeError:
            try:
                terms = tuple(
                    (tuple((j, e) for j, e in enumerate(exp) if e), complex(c))
                    for exp, c in self._terms.items()
                )
            except OverflowError:
                raise OverflowError("a coefficient overflows a float") from None
            self._floats = terms
            return terms


def _power_table(
    z: np.ndarray, polys: list[LaurentPoly], rows: Iterator[np.ndarray] | None = None
) -> tuple[list[dict[int, np.ndarray]], list[np.ndarray]]:
    """(table, scratch): per coordinate j, z[:, j]**e for every non-zero e that ``polys`` use.

    The powers and the running products are written into complex rows of
    npoints entries drawn from ``rows`` one at a time, as they are needed,
    or into fresh rows without it.  ``scratch`` is two drawn rows that no
    power occupies, the scratch rows of ``eval_block``.  Which rows are
    drawn, and how many, depends only on the exponents, never on z or its
    length, so a run on one point counts the rows that any block draws.
    """
    if rows is None:
        rows = (np.empty(len(z), dtype=np.complex128) for _ in count())
    free = [next(rows), next(rows)]
    table = [
        _unit_powers(z[:, j], {exp[j] for p in polys for exp in p.terms}, rows, free)
        for j in range(z.shape[1])
    ]
    if len(free) < 2:  # the last square, once freed, leaves at least one
        free.append(next(rows))
    return table, free[:2]


def _rows_drawn(polys: list[LaurentPoly]) -> int:
    """Rows that ``_power_table`` draws over ``polys``, counted by a run on one point."""
    drawn = count()
    _power_table(np.ones((1, polys[0].dim), complex), polys, (np.empty(1, complex) for _ in drawn))
    return next(drawn)


def _constant_abs2(polys: Sequence[LaurentPoly]) -> tuple[float, list[int]]:
    """(s, rest): s sums |p|^2 over the ``polys`` of at most one term, rest indexes the others.

    A zero or a term c z^e has |c z^e|^2 = |c|^2 at every point of the
    torus, so s is formed exactly and rounded down as ``_float_down``
    rounds, to inf beyond the float range; the moduli of the polynomials
    at ``rest`` vary.
    """
    s = sum(c.abs2() for p in polys if len(p._terms) < 2 for c in p._terms.values())
    return _float_down(s), [i for i, p in enumerate(polys) if len(p._terms) > 1]


def _unit_powers(
    z: np.ndarray, exponents: set[int], rows: Iterator[np.ndarray], free: list[np.ndarray]
) -> dict[int, np.ndarray]:
    """z**e for each non-zero e in ``exponents``, for unit complex numbers z.

    Binary powering over one running square: each distinct |e| multiplies
    in the squares its bits select, so memory is one row per exponent
    whatever its size, and z**-e is conj(z**e), formed in place when z**e
    itself is not wanted.  Squaring doubles the rounding error of |z|,
    which would grow like (1 + eps)^e and overflow near e = 10^18, so
    every 16th square is scaled back to unit modulus: the relative drift
    of any square stays below about 2^16 * eps, and exponents below 2^16
    never pay for the scaling.

    z itself is never written.  Rows come from ``rows``, and ``free``
    holds those that no power occupies; it is handed on to the next
    coordinate.  Every product is written into a free row and frees the
    row it replaces, never in place: numpy rounds an in-place complex
    product of a single point differently, so chunks of one point would
    differ.
    """

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not free:
            free.append(next(rows))
        ab = np.multiply(a, b, out=free.pop())
        if a is not z:
            free.append(a)
        return ab

    mags = sorted({abs(e) for e in exponents if e})
    top = mags[-1].bit_length() if mags else 0
    modulus = next(rows).view(np.float64)[: len(z)] if top > 16 else None
    pos: dict[int, np.ndarray] = {}
    square = z
    for bit in range(top):
        if bit:
            square = product(square, square)
            if bit % 16 == 0:
                np.abs(square, out=modulus)
                np.true_divide(square, modulus, out=square)
        for m in mags:
            if m >> bit & 1:
                if m in pos:
                    pos[m] = product(pos[m], square)
                elif square is z:
                    pos[m] = z
                else:
                    pos[m] = next(rows)
                    pos[m][...] = square
    if square is not z:
        free.append(square)
    table = {e: pos[e] for e in exponents if e > 0}
    for e in exponents:
        if e < 0:
            dest = next(rows) if -e in exponents or pos[-e] is z else pos[-e]
            table[e] = np.conj(pos[-e], out=dest)
    return table


# -- width and leading coefficient ---------------------------------------


@dataclass(frozen=True)
class WidthProfile:
    """The tower obtained by repeatedly extracting top layers of p.

    ``order`` is the 0-based variable ordering used; variables are
    eliminated starting from the *last* entry of ``order``.  ``tower`` is
    [p_0, ..., p_d] with strictly decreasing ambient dimension (p_d is a
    constant) and ``widths`` records the exponent spread eliminated at
    each step.  The two numbers the bound rests on are read from these,
    not stored: ``wd`` and ``lead``.
    """

    order: tuple[int, ...]
    tower: tuple[LaurentPoly, ...]
    widths: tuple[int, ...]

    @property
    def wd(self) -> int:
        """The largest of the widths, 0 for a constant."""
        return max(self.widths, default=0)

    @property
    def lead(self) -> GaussianRational:
        """The constant at the bottom of the tower, never zero."""
        return next(iter(self.tower[-1].terms.values()))


def width_profile(p: LaurentPoly, order: Iterable[int] | None = None) -> WidthProfile:
    """Compute the width tower of p under a variable ordering.

    ``order`` is a permutation of range(p.dim); elimination proceeds from
    its last element backwards (the identity ordering therefore eliminates
    the last variable first).  Each step keeps the terms whose exponent in
    the eliminated variable is the largest, its top layer, and drops that
    coordinate; the width of the step is the largest minus the smallest of
    that exponent.  Both the widths and the leading constant depend on the
    ordering.
    """
    if p.is_zero():
        raise ZeroPolynomialError("width profile of the zero polynomial is undefined")
    d = p.dim
    order = tuple(order) if order is not None else tuple(range(d))
    if sorted(order) != list(range(d)):
        raise ValueError(f"order {order} is not a permutation of range({d})")
    active = list(range(d))  # active[j] = original index of current coordinate j
    tower = [p]
    widths: list[int] = []
    q = p
    for target in reversed(order):
        pos = active.index(target)
        active.pop(pos)
        exps = [e[pos] for e in q.terms]
        top = max(exps)
        widths.append(top - min(exps))
        q = LaurentPoly(
            q.dim - 1,
            {e[:pos] + e[pos + 1 :]: c for e, c in q.terms.items() if e[pos] == top},
        )
        tower.append(q)
    assert q.terms, "top layer of a non-zero polynomial is non-zero"
    return WidthProfile(order, tuple(tower), tuple(widths))
