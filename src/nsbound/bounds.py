"""Explicit spectral density bounds and Novikov-Shubin lower bounds.

Everything here is closed-form arithmetic on the invariants produced by the
polynomial and matrix layers.  The paper's bound is one formula,

    F(lambda) - F(0) <= C * k * d * wd
                        * (k^(2k-2) * b1^(k-1) * lambda / |lead|)^(1/(d*wd)),

with the universal constant C = 8*sqrt(3)/sqrt(47).  The scalar case is
k = 1.  :func:`rescale_lambda` computes the factor (k^2 * b1)^(k-1),
:func:`bound_coefficient` the prefactor of lambda^(1/(d*wd)), and
:meth:`BoundReport.bound_at` evaluates the bound.  When the width vanishes
the determinant is a single monomial and the bound is a step at
|lead| / (k^2 * b1)^(k-1).  The module also searches variable orderings and
minors for the best certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .matrices import (
    DEFAULT_MINOR_CAP,
    MinorCertificate,
    PolyMatrix,
    ZeroMatrixError,
    iter_nonvanishing_minors,
    max_nonvanishing_minor,
)
from .poly import LaurentPoly, WidthProfile, width_profile

#: 8*sqrt(3)/sqrt(47) = sqrt(192/47), approximately 2.0211646105596452.
SPECTRAL_CONSTANT = 8.0 * math.sqrt(3.0) / math.sqrt(47.0)

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


def rescale_lambda(k: int, b_l1: float, lam: float) -> float:
    """(k^2 * b_l1)^(k-1) * lam, written k^(2k-2) * b_l1^(k-1) * lam.

    This is the argument change from matrix to scalar density, with the
    operator-norm upper bound k^2 * b_l1 in place of the norm.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return k ** (2 * k - 2) * b_l1 ** (k - 1) * lam


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
    inner = rescale_lambda(p.k, p.b_l1, 1.0) / p.lead_abs
    return SPECTRAL_CONSTANT * p.k * p.d * p.wd * inner ** (1.0 / (p.d * p.wd))


def _lead_abs_down(profile: WidthProfile) -> float:
    """|lead| as a float rounded down one ulp (it sits in a denominator)."""
    f = math.sqrt(float(profile.lead.abs2()))
    if f == 0.0:
        raise OverflowError("leading coefficient modulus underflows to zero")
    return math.nextafter(f, 0.0)


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
        """The bound on F(lambda) - F(0): the power law, or the step to k."""
        if self.is_step:
            return 0.0 if lam < self.step_threshold_matrix else float(self.k)
        return self.coefficient * lam**self.exponent


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
            lead_abs / rescale_lambda(cert.size, cert.b_l1, 1.0) if is_step else None
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
    used; with "best" every maximal-size minor is tried and the report with
    the best decay guarantee (largest alpha lower bound, then smallest
    coefficient) wins.  ``minor_cap`` bounds the candidates per minor size.
    The zero matrix is rejected.
    """
    if ordering not in ("fixed", "exhaustive"):
        raise ValueError(f"unknown ordering mode {ordering!r}")
    if minor not in ("first", "best"):
        raise ValueError(f"unknown minor mode {minor!r}")
    if A.is_zero():
        raise ZeroMatrixError("cannot analyze the zero matrix")
    if minor == "first":
        certs = [max_nonvanishing_minor(A, minor_cap)]
    else:
        # Sizes descend; the first size with any non-vanishing minor is the
        # maximal one, and its minors are computed exactly once.
        for size in range(min(A.rows, A.cols), 0, -1):
            certs = list(iter_nonvanishing_minors(A, size, minor_cap))
            if certs:
                break
    best = None
    for cert in certs:
        report = _report_for(A, cert, best_ordering(cert.det, ordering))
        if best is None or _report_quality(report) > _report_quality(best):
            best = report
    return best
