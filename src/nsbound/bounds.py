"""Explicit spectral density bounds and Novikov-Shubin lower bounds.

Everything here is closed-form arithmetic on the invariants produced by the
polynomial and matrix layers.  The paper's bound is one formula,

    F(lambda) - F(0) <= C * k * d * wd
                        * (k^(2k-2) * b1^(k-1) * lambda / |lead|)^(1/(d*wd)),

with the universal constant C = 8*sqrt(3)/sqrt(47).  The scalar case is
k = 1.  :func:`_norm_factor` computes the factor (k^2 * b1)^(k-1),
:func:`bound_coefficient` the prefactor of lambda^(1/(d*wd)), and
:meth:`BoundReport.bound_at` evaluates the bound.  When the width vanishes
the determinant is a single monomial and the bound is a step at
|lead| / (k^2 * b1)^(k-1).  The module also searches variable orderings and
minors for the best certificate.

Every float here is rounded in the safe direction, so the bound stays an
upper bound: C, the rescaled lambda, the coefficient and the bound round
up, and the step threshold and |lead| round down.  Products and quotients
are formed exactly and rounded once, except the bound's last product,
which is moved up an ulp; the root x^(1/(d*wd)) goes through ``**``, with
margin for its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .matrices import (
    DEFAULT_MINOR_CAP,
    MinorCertificate,
    PolyMatrix,
    ZeroMatrixError,
    max_nonvanishing_minor,
    maximal_minors,
)
from .poly import LaurentPoly, WidthProfile, _float_down, _float_up, width_profile

#: 8*sqrt(3)/sqrt(47) = sqrt(192/47), rounded up: 2.0211646105596457.
SPECTRAL_CONSTANT = math.nextafter(8.0 * math.sqrt(3.0) / math.sqrt(47.0), math.inf)

#: Marker for "the spectral density is a step; the decay exponent is not finite".
INFINITE_TYPE = "infinite-type"

MAX_EXHAUSTIVE_DIM = 8


def ns_lower_bound(d: int, wd: int) -> float | str:
    """Lower bound 1/(d*wd) for the decay exponent, or the step marker."""
    if d < 1 or wd < 0:
        raise ValueError("need d >= 1 and wd >= 0")
    if wd == 0:
        return INFINITE_TYPE
    return 1.0 / (d * wd)


def _norm_factor(k: int, b_l1: float) -> Fraction:
    """(k^2 * b_l1)^(k-1) exactly, written k^(2k-2) * b_l1^(k-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k ** (2 * k - 2) * Fraction(b_l1) ** (k - 1)


def _root_up(x: float, n: int) -> float:
    """A float >= x^(1/n) for x >= 0.

    The exponent 1/n is rounded toward the larger power (up for x > 1, down
    for x < 1), and the result of ``**`` is moved up two ulps, which covers
    the error of the C library's pow (below one ulp on current glibc, musl
    and macOS).  The excess is below 1e-13 relative.  0 and 1 are their own
    roots, and n = 1 is exact.
    """
    if n == 1 or x in (0.0, 1.0):
        return x
    e = 1.0 / n
    if x > 1.0 and Fraction(e) < Fraction(1, n):
        e = math.nextafter(e, math.inf)
    elif x < 1.0 and Fraction(e) > Fraction(1, n):
        e = math.nextafter(e, 0.0)
    return math.nextafter(math.nextafter(x**e, math.inf), math.inf)


@dataclass(frozen=True)
class BoundParameters:
    """The constants entering the matrix bound."""

    k: int
    d: int
    wd: int
    lead_abs: float
    b_l1: float

    def __post_init__(self):
        if self.k < 1 or self.d < 1 or self.wd < 0:
            raise ValueError("need k >= 1, d >= 1, wd >= 0")
        if self.lead_abs <= 0 or self.b_l1 < 0:
            raise ValueError("need lead_abs > 0 and b_l1 >= 0")


def bound_coefficient(params: BoundParameters) -> float:
    """Prefactor so that the bound at lambda is coefficient * lambda^(1/(d*wd))."""
    p = params
    if p.wd < 1:
        raise ValueError("no power-law coefficient in the step case")
    n = p.d * p.wd
    inner = _float_up(_norm_factor(p.k, p.b_l1) / Fraction(p.lead_abs))
    return _float_up(Fraction(SPECTRAL_CONSTANT) * (p.k * n) * Fraction(_root_up(inner, n)))


def _lead_abs_down(profile: WidthProfile) -> float:
    """|lead| as a float no greater than it (it sits in a denominator).

    ``abs`` is the ``hypot`` of the rounded parts: finite wherever |lead|
    is, but up to two ulps from it on either side.  So it steps down one
    ulp at a time while its exact square exceeds |lead|^2, then up while
    the next float's does not, and returns the largest float <= |lead|.
    """
    abs2 = profile.lead.abs2()
    f = abs(profile.lead)
    if f == 0.0:
        raise OverflowError("leading coefficient modulus underflows to zero")
    while Fraction(f) ** 2 > abs2:
        f = math.nextafter(f, 0.0)
    while Fraction(up := math.nextafter(f, math.inf)) ** 2 <= abs2:
        f = up
    return f


def best_ordering(p: LaurentPoly, mode: str = "fixed") -> WidthProfile:
    """Width profile under the identity ordering, or the best over all d!.

    In exhaustive mode the profile minimizing d*wd (equivalently maximizing
    the decay-exponent lower bound) wins; ties prefer the larger |lead|,
    then the lexicographically smallest permutation.
    """
    if mode not in ("fixed", "exhaustive"):
        raise ValueError(f"unknown ordering mode {mode!r}")
    if mode == "fixed" or p.dim <= 1:
        return width_profile(p)
    if p.dim > MAX_EXHAUSTIVE_DIM:
        raise ValueError(
            f"exhaustive ordering search is limited to {MAX_EXHAUSTIVE_DIM} variables"
        )
    best = None
    for order in permutations(range(p.dim)):
        prof = width_profile(p, order)
        if best is None:
            best = prof
            continue
        if prof.wd < best.wd:
            best = prof
        elif prof.wd == best.wd and prof.lead.abs2() > best.lead.abs2():
            best = prof
    return best


@dataclass(frozen=True)
class BoundReport:
    """Everything the analysis produced, kept for auditability.

    For ``wd >= 1`` the bound is ``coefficient * lambda^exponent``; the raw
    formula value is kept even where it exceeds the trivial ceiling ``k``.
    For ``wd == 0`` the determinant's density is a step at ``step_threshold``
    and the matrix-level guarantee is a step at ``step_threshold_matrix``
    (the threshold shrinks through the norm rescaling when k > 1).
    """

    rows: int
    cols: int
    dim: int
    minor: MinorCertificate
    profile: WidthProfile
    params: BoundParameters
    is_step: bool
    coefficient: float | None
    exponent: float | None
    alpha_lower: float | str
    step_threshold: float | None
    step_threshold_matrix: float | None

    @property
    def k(self) -> int:
        return self.minor.size

    @property
    def f_zero(self) -> int:
        """Analytic density at 0: max(rows, cols) - k."""
        return max(self.rows, self.cols) - self.minor.size

    def bound_at(self, lam: float) -> float:
        """The bound on F(lambda) - F(0): the power law, or the step to k.

        The power law is rounded up, and is 0 at lambda = 0.
        """
        if self.is_step:
            return 0.0 if lam < self.step_threshold_matrix else float(self.k)
        if lam == 0.0:
            return 0.0
        root = _root_up(lam, self.params.d * self.params.wd)
        return math.nextafter(self.coefficient * root, math.inf)


def _report_for(A: PolyMatrix, cert: MinorCertificate, profile: WidthProfile) -> BoundReport:
    lead_abs = _lead_abs_down(profile)
    params = BoundParameters(
        k=cert.size, d=A.dim, wd=profile.wd, lead_abs=lead_abs, b_l1=cert.b_l1
    )
    is_step = profile.wd == 0
    return BoundReport(
        rows=A.rows,
        cols=A.cols,
        dim=A.dim,
        minor=cert,
        profile=profile,
        params=params,
        is_step=is_step,
        coefficient=None if is_step else bound_coefficient(params),
        exponent=None if is_step else 1.0 / (A.dim * profile.wd),
        alpha_lower=ns_lower_bound(A.dim, profile.wd),
        step_threshold=lead_abs if is_step else None,
        step_threshold_matrix=(
            _float_down(Fraction(lead_abs) / _norm_factor(cert.size, cert.b_l1))
            if is_step
            else None
        ),
    )


def _report_quality(r: BoundReport) -> tuple:
    """Sort key: larger is better, deterministic."""
    if r.is_step:
        return (1, r.step_threshold_matrix, 0.0)
    return (0, r.alpha_lower, -r.coefficient)


def analyze(
    A: PolyMatrix,
    ordering: str = "fixed",
    minor: str = "first",
    minor_cap: int = DEFAULT_MINOR_CAP,
) -> BoundReport:
    """Full pipeline: maximal minor, ordering search, bound construction.

    ``ordering`` is "fixed" or "exhaustive" (see :func:`best_ordering`).
    With ``minor="first"`` the lexicographically first maximal minor is
    used (see :func:`max_nonvanishing_minor`); with "best" every
    maximal-size minor is tried and the report with the best decay
    guarantee (largest alpha lower bound, then smallest coefficient) wins.
    ``minor_cap`` bounds the candidates at each size the "best" enumeration
    tries (see :func:`maximal_minors`), which raises MinorSearchCapExceeded
    beyond it; "first" enumerates nothing and ignores it.  The zero matrix
    is rejected.
    """
    if ordering not in ("fixed", "exhaustive"):
        raise ValueError(f"unknown ordering mode {ordering!r}")
    if minor not in ("first", "best"):
        raise ValueError(f"unknown minor mode {minor!r}")
    if A.is_zero():
        raise ZeroMatrixError("cannot analyze the zero matrix")
    if minor == "first":
        certs = [max_nonvanishing_minor(A)]
    else:
        certs = maximal_minors(A, minor_cap)
    best = None
    for cert in certs:
        report = _report_for(A, cert, best_ordering(cert.det, ordering))
        if best is None or _report_quality(report) > _report_quality(best):
            best = report
    return best
