"""Explicit spectral density bounds and Novikov-Shubin lower bounds.

Everything here is closed-form arithmetic on the invariants produced by the
polynomial and matrix layers.  The paper's bound is one formula,

    F(lambda) - F(0) <= C * k * d * wd
                        * (k^(2k-2) * b1^(k-1) * lambda / |lead|)^(1/(d*wd)),

with the universal constant C = 8*sqrt(3)/sqrt(47).  The scalar case is
k = 1.  :func:`_norm_factor` computes the factor (k^2 * b1)^(k-1),
:func:`bound_coefficient` the prefactor of lambda^(1/(d*wd)), and
:meth:`BoundReport.bound_at` evaluates the bound.  When the width vanishes
the determinant is a single monomial, the bound is a step at
|lead| / (k^2 * b1)^(k-1), and the decay exponent's lower bound
:func:`ns_lower_bound` is ``math.inf``.  The module also searches variable
orderings and minors for the best certificate.

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
from functools import cached_property
from itertools import permutations

from .matrices import (
    DEFAULT_MINOR_CAP,
    MinorCertificate,
    PolyMatrix,
    ZeroMatrixError,
    max_nonvanishing_minor,
    maximal_minors,
)
from .poly import LaurentPoly, WidthProfile, _abs_down, _float_down, _float_up, width_profile

#: 8*sqrt(3)/sqrt(47) = sqrt(192/47), rounded up: 2.0211646105596457.
SPECTRAL_CONSTANT = math.nextafter(8.0 * math.sqrt(3.0) / math.sqrt(47.0), math.inf)

MAX_EXHAUSTIVE_DIM = 8


def ns_lower_bound(d: int, wd: int) -> float:
    """Lower bound 1/(d*wd) for the decay exponent; ``math.inf`` for a step (wd = 0)."""
    if d < 1 or wd < 0:
        raise ValueError("need d >= 1 and wd >= 0")
    if wd == 0:
        return math.inf
    return 1.0 / (d * wd)


def _norm_factor(k: int, b_l1: float) -> Fraction:
    """(k^2 * b_l1)^(k-1) exactly, written k^(2k-2) * b_l1^(k-1), for k >= 1."""
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


def bound_coefficient(k: int, d: int, wd: int, lead_abs: float, b_l1: float) -> float:
    """Prefactor so that the bound at lambda is coefficient * lambda^(1/(d*wd)).

    The factor x = (k^2 * b_l1)^(k-1) / lead_abs under the root is exact;
    where it leaves the float range, 2^(n*s) (n = d*wd) is split off before
    the float root and 2^s multiplied back.  The coefficient is rounded up
    once, and an ``OverflowError`` names it when it leaves the float range.
    """
    if k < 1 or d < 1 or wd < 0:
        raise ValueError("need k >= 1, d >= 1, wd >= 0")
    if lead_abs <= 0 or b_l1 < 0:
        raise ValueError("need lead_abs > 0 and b_l1 >= 0")
    if wd < 1:
        raise ValueError("no power-law coefficient in the step case")
    n = d * wd
    x = _norm_factor(k, b_l1) / Fraction(lead_abs)
    # x < 2^(e + 1) and n*s >= e - 1022, so x / 2^(n*s) < 2^1023 fits a float
    e = x.numerator.bit_length() - x.denominator.bit_length()
    s = max(0, -((1022 - e) // n))
    root = Fraction(_root_up(_float_up(x / 2 ** (n * s)), n)) * 2**s
    try:
        return _float_up(Fraction(SPECTRAL_CONSTANT) * (k * n) * root)
    except OverflowError:
        raise OverflowError("the bound coefficient overflows a float") from None


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
    profiles = (width_profile(p, order) for order in permutations(range(p.dim)))
    return min(profiles, key=lambda prof: (prof.wd, -prof.lead.abs2()))


@dataclass(frozen=True)
class BoundReport:
    """Everything the analysis produced, kept for auditability.

    Only ``rows``, ``cols``, ``minor`` and ``profile`` are stored; the rest
    is derived, ``lead_abs``, ``coefficient`` and ``step_threshold_matrix``
    once, on first read.  ``lead_abs`` is the largest float <= |lead|; k,
    d, wd and ||B||_1 are ``minor.size``, ``dim`` (that of det B),
    ``profile.wd`` and ``minor.b_l1``.  For ``wd >= 1`` the bound is
    ``coefficient * lambda^alpha_lower``; the raw formula value is kept
    even where it exceeds the trivial ceiling ``k``.  For ``wd == 0`` the
    determinant's density is a step at ``lead_abs``, the matrix-level
    guarantee is a step at ``step_threshold_matrix`` (the threshold
    shrinks through the norm rescaling when k > 1), and ``alpha_lower`` is
    ``math.inf``.  ``coefficient`` is None in the step case and
    ``step_threshold_matrix`` None otherwise.
    """

    rows: int
    cols: int
    minor: MinorCertificate
    profile: WidthProfile

    @property
    def k(self) -> int:
        return self.minor.size

    @property
    def dim(self) -> int:
        return self.profile.tower[0].dim

    @cached_property
    def lead_abs(self) -> float:
        """The largest float <= |lead|: 0.0 where it underflows, and ``analyze`` drops the report."""
        try:
            return _abs_down(self.profile.lead)
        except OverflowError:
            raise OverflowError("|lead| overflows a float") from None

    @cached_property
    def coefficient(self) -> float | None:
        if self.is_step:
            return None
        return bound_coefficient(self.k, self.dim, self.profile.wd, self.lead_abs, self.minor.b_l1)

    @cached_property
    def step_threshold_matrix(self) -> float | None:
        if not self.is_step:
            return None
        return _float_down(Fraction(self.lead_abs) / _norm_factor(self.k, self.minor.b_l1))

    @cached_property
    def lambda_star(self) -> float:
        """Where coefficient * lambda^(1/(d*wd)) reaches k, or the step threshold.

        The largest float <= (k / coefficient)^(d*wd): the power is formed
        exactly, as d*wd is an integer, and rounded once.
        """
        if self.is_step:
            return self.step_threshold_matrix
        return _float_down((self.k / Fraction(self.coefficient)) ** (self.dim * self.profile.wd))

    @property
    def is_step(self) -> bool:
        return self.profile.wd == 0

    @property
    def alpha_lower(self) -> float:
        """Lower bound 1/(d*wd) for the decay exponent, ``math.inf`` for a step."""
        return ns_lower_bound(self.dim, self.profile.wd)

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
        root = _root_up(lam, self.dim * self.profile.wd)
        return math.nextafter(self.coefficient * root, math.inf)


def _report_quality(r: BoundReport) -> tuple[float, float]:
    """Sort key: larger is better, deterministic; a step's alpha is inf, so it wins.

    A report without a bound raises the ``OverflowError`` that names why:
    ||B||_1 or |lead| beyond the float range, |lead| underflowing to 0.0,
    or the bound coefficient overflowing, checked in that order.
    """
    if r.minor.b_l1 == math.inf:
        raise OverflowError("||B||_1 overflows a float")
    if r.lead_abs == 0.0:
        raise OverflowError("leading coefficient modulus underflows to zero")
    return (r.alpha_lower, r.step_threshold_matrix if r.is_step else -r.coefficient)


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
    guarantee wins: a step before a power law, the larger threshold between
    steps, and between power laws the larger alpha lower bound, then the
    smaller coefficient; a full tie keeps the first candidate.  A candidate
    without a bound (see :func:`_report_quality`) is dropped; when every
    candidate is, the first one's ``OverflowError`` is raised.
    ``minor_cap`` bounds the candidates at each size the "best" enumeration
    tries (see :func:`maximal_minors`), which raises MinorSearchCapExceeded
    beyond it; "first" enumerates nothing and ignores it.  The zero matrix
    is rejected.
    """
    if ordering not in ("fixed", "exhaustive"):
        raise ValueError(f"unknown ordering mode {ordering!r}")
    if minor not in ("first", "best"):
        raise ValueError(f"unknown minor mode {minor!r}")
    if A.dim < 1:
        raise ValueError("need a matrix over d >= 1 variables")
    try:
        certs = [max_nonvanishing_minor(A)] if minor == "first" else maximal_minors(A, minor_cap)
    except ZeroMatrixError:
        raise ZeroMatrixError("cannot analyze the zero matrix") from None
    ranked, unbounded = [], []
    for c in certs:
        report = BoundReport(A.rows, A.cols, c, best_ordering(c.det, ordering))
        try:
            ranked.append((_report_quality(report), report))
        except OverflowError as exc:
            unbounded.append(exc)
    if not ranked:
        raise unbounded[0]
    return max(ranked, key=lambda qr: qr[0])[1]
