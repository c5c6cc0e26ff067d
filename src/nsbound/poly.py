"""Exact sparse Laurent polynomial arithmetic over Gaussian rationals.

A Laurent polynomial in d variables z1, ..., zd is stored as a sparse map
from exponent tuples (one signed integer per variable) to GaussianRational
coefficients.  All arithmetic is exact, which makes zero-testing of
determinants and leading coefficients fully reliable; floating point only
enters when a polynomial is evaluated on the torus or when a coefficient
modulus is reported as a float.

Terms are kept sorted so that the last entry is the term whose exponent is
maximal in the lexicographic order that compares the *last* coordinate
first.  This makes the leading coefficient a constant-time lookup and makes
iteration order deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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
        return math.sqrt(float(self.abs2()))

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


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _lex_key(exponent: Exponent) -> Exponent:
    # Lexicographic order comparing the last coordinate first.
    return tuple(reversed(exponent))


def _float_up(x: Fraction) -> float:
    """Smallest-effort upward conversion: a float that is >= x."""
    f = float(x)
    if math.isinf(f):
        return f
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


class LaurentPoly:
    """A sparse Laurent polynomial with GaussianRational coefficients.

    ``dim`` is the ambient number of variables (0 is allowed and means a
    constant, which arises at the bottom of width towers).  ``terms`` maps
    exponent tuples of length ``dim`` to non-zero coefficients.  Instances
    are immutable by convention; no method mutates an existing polynomial.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Exponent, GaussianRational] | Iterable):
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[Exponent, GaussianRational] = {}
        for exp, coeff in items:
            exp = tuple(int(e) for e in exp)
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
        c = _coerce_gaussian(c)
        if not c:
            return LaurentPoly.zero(dim)
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
        return LaurentPoly(dim, {tuple(exponent): _coerce_gaussian(coeff)})

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
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, ZERO) + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return LaurentPoly(self.dim, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> LaurentPoly:
        return self + (-other if isinstance(other, LaurentPoly) else -_coerce_gaussian(other))

    def __rsub__(self, other) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce_gaussian(other)
            if not c:
                return LaurentPoly.zero(self.dim)
            return LaurentPoly(self.dim, {e: v * c for e, v in self._terms.items()})
        self._check_dim(other)
        out: dict[Exponent, GaussianRational] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return LaurentPoly(self.dim, out)

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
        """Sum of coefficient moduli, reported as a float upper bound.

        With real coefficients the sum is formed exactly and rounded up to
        the nearest float at the end.  With complex coefficients each
        modulus uses a double precision square root and the final sum is
        bumped by one ulp, so the result stays a valid upper bound up to
        ~1e-15 relative slack per term.
        """
        if not self._terms:
            return 0.0
        if all(c.is_real() for c in self._terms.values()):
            return _float_up(sum(abs(c.re) for c in self._terms.values()))
        total = math.fsum(abs(c) for c in self._terms.values())
        return math.nextafter(total, math.inf)

    def eval_block(self, z: np.ndarray) -> np.ndarray:
        """Evaluate at a block of torus points given as unit complex numbers.

        ``z`` has shape (npoints, dim) with z[r, j] = exp(i*phi_j) at point
        r; returns complex128 values.  No exp is taken here: each monomial is
        a product of integer powers of the columns of z, with one array per
        distinct exponent and coordinate (see ``_unit_powers``), and a
        negative exponent is the conjugate of the positive power, as
        z^-1 = conj(z) on the torus.  The error of a value is of order
        eps * l1_norm * (1 + max |e|), the same as that of exp(i e.phi).
        """
        z = np.asarray(z, dtype=np.complex128)
        if z.shape[1] != self.dim:
            raise DimensionMismatch(
                f"point rows have length {z.shape[1]}, expected {self.dim}"
            )
        powers = [
            _unit_powers(z[:, j], {exp[j] for exp in self._terms})
            for j in range(self.dim)
        ]
        out = np.zeros(z.shape[0], dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for exp, c in self._terms.items():
                factors = [pw[e] for pw, e in zip(powers, exp) if e]
                if not factors:
                    out += complex(c)
                    continue
                term = complex(c) * factors[0]
                for f in factors[1:]:
                    term *= f
                out += term
        return out


def _unit_powers(z: np.ndarray, exponents: set[int]) -> dict[int, np.ndarray]:
    """z**e for each non-zero e in ``exponents``, for unit complex numbers z.

    Binary powering over one running square: each distinct |e| accumulates
    the squares its bits select, so memory is one array per exponent
    whatever its size, and z**-e is conj(z**e).  Squaring doubles the
    rounding error of |z|, which would grow like (1 + eps)^e and overflow
    near e = 10^18, so every 16th square is scaled back to unit modulus:
    the relative drift of any square stays below about 2^16 * eps, and
    exponents below 2^16 never pay for the scaling.
    """
    mags = sorted({abs(e) for e in exponents if e})
    pos: dict[int, np.ndarray] = {}
    sq = z
    for bit in range(mags[-1].bit_length() if mags else 0):
        if bit:
            sq = sq * sq
            if bit % 16 == 0:
                sq /= np.abs(sq)
        for m in mags:
            if m >> bit & 1:
                pos[m] = pos[m] * sq if m in pos else sq
    return {e: pos[e] if e > 0 else np.conj(pos[-e]) for e in exponents if e}


# -- width and leading coefficient ---------------------------------------


def q_plus_decompose(
    p: LaurentPoly, var: int
) -> tuple[int, int, dict[int, LaurentPoly]]:
    """Split p into layers by the exponent of variable ``var`` (0-based).

    Returns (n_minus, n_plus, layers) with p = sum_n layers[n] * z_var^n,
    where layers maps each occurring exponent to a polynomial in one fewer
    variable (coordinate ``var`` removed) and both extreme layers are
    non-zero.  The width of p in this variable is n_plus - n_minus and the
    top-layer polynomial layers[n_plus] is the next element of the width
    tower.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    if not 0 <= var < p.dim:
        raise ValueError(f"variable index {var} out of range for dim {p.dim}")
    buckets: dict[int, dict[Exponent, GaussianRational]] = {}
    for exp, c in p.terms.items():
        n = exp[var]
        rest = exp[:var] + exp[var + 1 :]
        buckets.setdefault(n, {})[rest] = c
    layers = {
        n: LaurentPoly(p.dim - 1, terms) for n, terms in sorted(buckets.items())
    }
    n_minus = min(layers)
    n_plus = max(layers)
    return n_minus, n_plus, layers


@dataclass(frozen=True)
class WidthProfile:
    """The tower obtained by repeatedly extracting top layers of p.

    ``order`` is the 0-based variable ordering used; variables are
    eliminated starting from the *last* entry of ``order``.  ``tower`` is
    [p_0, ..., p_d] with strictly decreasing ambient dimension (p_d is a
    constant), ``widths`` records the exponent spread eliminated at each
    step, ``wd`` is their maximum and ``lead`` is the constant at the
    bottom of the tower (always non-zero).
    """

    order: tuple[int, ...]
    tower: tuple[LaurentPoly, ...]
    widths: tuple[int, ...]
    wd: int
    lead: GaussianRational


def width_profile(p: LaurentPoly, order: Iterable[int] | None = None) -> WidthProfile:
    """Compute the width tower of p under a variable ordering.

    ``order`` is a permutation of range(p.dim); elimination proceeds from
    its last element backwards (the identity ordering therefore eliminates
    the last variable first).  Both the widths and the leading constant
    depend on the ordering.
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
    for step in range(d):
        target = order[d - 1 - step]
        pos = active.index(target)
        n_minus, n_plus, layers = q_plus_decompose(q, pos)
        widths.append(n_plus - n_minus)
        q = layers[n_plus]
        tower.append(q)
        active.pop(pos)
    lead = next(iter(q.terms.values())) if q.terms else ZERO
    assert lead, "top layer of a non-zero polynomial is non-zero"
    wd = max(widths) if widths else 0
    return WidthProfile(order, tuple(tower), tuple(widths), wd, lead)


def lead_lex(p: LaurentPoly) -> GaussianRational:
    """Coefficient of the exponent that is lexicographically maximal.

    The comparison looks at the last coordinate first, so this agrees with
    the constant reached by the width tower under the identity ordering.
    """
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no leading coefficient")
    last_exp = next(reversed(p.terms))
    return p.terms[last_exp]
