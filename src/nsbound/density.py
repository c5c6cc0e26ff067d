"""Brute-force spectral density estimation over the d-torus.

The density of a polynomial p at lambda is the Haar measure of the set
where |p| <= lambda; for a matrix it is the average number of eigenvalues
of the pointwise gram matrix below lambda^2.  Both are estimated by
deterministic quadrature: a midpoint product grid by default, optionally a
rank-1 lattice with a seeded random shift for higher dimensions.

Exactness conventions that the tests rely on:

* Scalar densities normalize by the exact leading coefficient, so the
  float sample set of p and of c*p is literally identical, and thresholds
  are exact rationals rounded down to the nearest float.  The scaling
  identity F(c*p)(lambda) = F(p)(lambda/|c|) then holds at the level of
  integer sample counts.
* A one-term polynomial has constant modulus on the torus, so its density
  is an exact step; no quadrature is performed.
* Counting uses the closed condition (<=) throughout.

Grid evaluation is chunked; per-chunk integer counts are summed in fixed
chunk order, so results are bit-identical for any worker count.  A chunk
takes one complex exp per coordinate per point, z = exp(i*angles), and
every polynomial is evaluated from integer powers of z, with conjugates for
negative exponents (``LaurentPoly.eval_block``); no exp is taken per term.
The gram on the smaller side is summed entry by entry from those values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .matrices import PolyMatrix
from .poly import GaussianRational, LaurentPoly, ZeroPolynomialError, lead_lex

CHUNK = 1 << 16  # fixed; results must not depend on worker count


class InsufficientDataError(ValueError):
    """Too few usable points for the requested fit."""


@dataclass(frozen=True)
class TorusGrid:
    """A deterministic quadrature rule for the d-torus with equal weights."""

    dim: int
    scheme: str  # "midpoint" | "lattice-shift"
    total: int
    points_per_dim: int | None = None
    generator: tuple[int, ...] | None = None
    shift: tuple[float, ...] | None = None

    @staticmethod
    def midpoint(dim: int, n: int) -> TorusGrid:
        """Product of 1-d midpoint rules, n points per dimension."""
        if dim < 1 or n < 1:
            raise ValueError("need dim >= 1 and n >= 1")
        return TorusGrid(dim=dim, scheme="midpoint", total=n**dim, points_per_dim=n)

    @staticmethod
    def lattice(dim: int, total: int, seed: int = 0) -> TorusGrid:
        """Rank-1 Korobov lattice with a seeded random shift."""
        if dim < 1 or total < 1:
            raise ValueError("need dim >= 1 and total >= 1")
        a = max(1, int(total * (math.sqrt(5.0) - 1.0) / 2.0)) | 1
        gen = tuple(pow(a, j, total) if total > 1 else 0 for j in range(dim))
        shift = tuple(np.random.default_rng(seed).random(dim).tolist())
        return TorusGrid(
            dim=dim,
            scheme="lattice-shift",
            total=total,
            generator=gen,
            shift=shift,
        )

    def epsilon_quad(self) -> float:
        """Declared quadrature tolerance 4 * d / N, N = M^(1/d) on a lattice of M points."""
        n = self.points_per_dim if self.scheme == "midpoint" else self.total ** (1.0 / self.dim)
        return 4.0 * self.dim / n

    def block_ranges(self, chunk: int = CHUNK) -> list[tuple[int, int]]:
        return [(s, min(s + chunk, self.total)) for s in range(0, self.total, chunk)]

    def angles(self, start: int, stop: int) -> np.ndarray:
        """Angle rows for flat point indices [start, stop)."""
        idx = np.arange(start, stop, dtype=np.int64)
        out = np.empty((idx.size, self.dim), dtype=np.float64)
        if self.scheme == "midpoint":
            n = self.points_per_dim
            step = 2.0 * math.pi / n
            for j in range(self.dim):
                digits = (idx // n**j) % n
                out[:, j] = (digits + 0.5) * step
        else:
            for j in range(self.dim):
                frac = (idx * self.generator[j] % self.total) / self.total + self.shift[j]
                out[:, j] = 2.0 * math.pi * np.mod(frac, 1.0)
        return out


def _map_chunks(grid: TorusGrid, fn: Callable[[int, int], object], workers: int = 1):
    """Apply fn to every block range; results come back in block order."""
    ranges = grid.block_ranges()
    if workers <= 1 or len(ranges) <= 1:
        return [fn(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda ab: fn(*ab), ranges))


# -- Hermitian eigenvalues ---------------------------------------------------


def hermitian_eigenvalues(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, ascending per matrix.

    2x2 matrices use the closed form mid -+ hypot((a - c)/2, |b|): per call
    it is an order of magnitude faster than LAPACK at that size and as
    accurate near zero.  Every other size goes to ``np.linalg.eigvalsh``.
    Each result depends only on its own matrix, so chunking cannot change it.
    """
    if H.shape[-1] != 2:
        return np.linalg.eigvalsh(H)
    a = H[..., 0, 0].real
    c = H[..., 1, 1].real
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), np.abs(H[..., 0, 1]))
    return np.stack([mid - rad, mid + rad], axis=-1)


def _gram(values: list[list[np.ndarray]], rows: int, cols: int) -> np.ndarray:
    """Gram stack (npoints, k, k) on the smaller side, k = min(rows, cols).

    ``values[i][j]`` holds entry (i, j) over the block.  A A* (wide) or A* A
    (tall) has the same non-zero spectrum either way.  Each of the k(k+1)/2
    distinct entries is summed directly over the long side, and both
    triangles are written (``eigvalsh`` reads the lower one, the 2x2 closed
    form the upper).  The stack is a view of a (k, k, npoints) array, so
    every entry is written contiguously.  Overflowing products become inf
    or nan quietly; the caller rejects non-finite stacks.
    """
    wide = rows <= cols
    vecs = values if wide else list(zip(*values))
    k, npoints = len(vecs), len(vecs[0][0])
    gram = np.empty((k, k, npoints), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, y in enumerate(vecs):
            diag = np.zeros(npoints)
            for v in y:
                diag += v.real * v.real
                diag += v.imag * v.imag
            gram[j, j] = diag
            y_conj = [np.conj(v) for v in y] if j + 1 < k else []
            for i in range(j + 1, k):
                # s = sum x_i conj(x_j) is (A A*)_ij, or (A* A)_ji when tall
                at, mirror = ((i, j), (j, i)) if wide else ((j, i), (i, j))
                s = gram[at]
                np.multiply(vecs[i][0], y_conj[0], out=s)
                for x, yc in zip(vecs[i][1:], y_conj[1:]):
                    s += x * yc
                np.conj(s, out=gram[mirror])
    return gram.transpose(2, 0, 1)


# -- density curves ---------------------------------------------------------


@dataclass(frozen=True)
class DensityCurve:
    """Quadrature estimates of a spectral density on a lambda grid.

    ``counts[i]`` is the exact integer number of (point, eigenvalue) hits
    at or below ``lambdas[i]``; ``estimates[i]`` divides it by the grid's point count.
    ``f_zero`` is the analytic value at 0 (never estimated).
    """

    lambdas: tuple[float, ...]
    counts: tuple[int, ...]
    estimates: tuple[float, ...]
    f_zero: int

    def __post_init__(self):
        lam = self.lambdas
        if len(lam) == 0:
            raise ValueError("empty lambda list")
        if any(b < a for a, b in zip(lam, lam[1:])):
            raise ValueError("lambdas must be ascending")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise AssertionError("counts must be non-decreasing")


def _check_lambdas(lambdas: Sequence[float]) -> tuple[float, ...]:
    lam = tuple(float(x) for x in lambdas)
    if not lam:
        raise ValueError("empty lambda list")
    if any(x < 0 for x in lam):
        raise ValueError("lambda values must be >= 0")
    if any(b < a for a, b in zip(lam, lam[1:])):
        raise ValueError("lambdas must be ascending")
    return lam


def _float_down(x: Fraction) -> float:
    """Largest double <= x (so float compares reproduce exact comparisons)."""
    try:
        f = float(x)
    except OverflowError:
        return math.inf
    if math.isinf(f):
        return f if f > 0 else -math.inf
    if Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return f


def _squared_thresholds(lambdas: Iterable[float], scale2: Fraction) -> np.ndarray:
    """Floats t_i with (samples <= t_i) == (samples <= lambda_i^2 / scale2)."""
    return np.array(
        [_float_down(Fraction(lam) * Fraction(lam) / scale2) for lam in lambdas]
    )


def scalar_density(
    p: LaurentPoly,
    lambdas: Sequence[float],
    grid: TorusGrid,
    workers: int = 1,
) -> DensityCurve:
    """Fraction of the torus where |p| <= lambda, for each lambda.

    One evaluation pass is shared across all thresholds.  The polynomial is
    divided by its exact leading coefficient before evaluation, and the
    thresholds absorb the scale exactly, so densities of p and c*p agree
    count-for-count at corresponding lambdas.
    """
    if p.is_zero():
        raise ZeroPolynomialError("density of the zero polynomial is undefined")
    if grid.dim != p.dim:
        raise ValueError(f"grid dimension {grid.dim} != polynomial dimension {p.dim}")
    lam = _check_lambdas(lambdas)
    lead = lead_lex(p)
    if p.is_monomial():
        # |p| is constant |lead| on the torus: the density is an exact step.
        lead2 = lead.abs2()
        counts = tuple(
            grid.total if Fraction(x) * Fraction(x) >= lead2 else 0 for x in lam
        )
        estimates = tuple(c / grid.total for c in counts)
        return DensityCurve(lam, counts, estimates, 0)
    q = p * (GaussianRational(1) / lead)
    thresholds = _squared_thresholds(lam, lead.abs2())

    def count_chunk(start: int, stop: int) -> np.ndarray:
        v = q.eval_block(np.exp(1j * grid.angles(start, stop)))
        f = np.sort(v.real * v.real + v.imag * v.imag)
        return np.searchsorted(f, thresholds, side="right")

    totals = sum(_map_chunks(grid, count_chunk, workers))
    counts = tuple(int(c) for c in totals)
    estimates = tuple(c / grid.total for c in counts)
    return DensityCurve(lam, counts, estimates, 0)


def matrix_density(
    A: PolyMatrix,
    k: int,
    lambdas: Sequence[float],
    grid: TorusGrid,
    workers: int = 1,
) -> DensityCurve:
    """Average count of gram eigenvalues <= lambda^2 over the torus.

    The count is taken on the larger of the two gram sides, so it starts at
    max(rows, cols) - rank almost everywhere; only the smaller gram is
    diagonalized and the |rows - cols| exact zero eigenvalues are added as
    a constant.  ``k`` (the maximal non-vanishing minor size) fixes the
    analytic value f_zero = max(rows, cols) - k.
    """
    if grid.dim != A.dim:
        raise ValueError(f"grid dimension {grid.dim} != matrix dimension {A.dim}")
    lam = _check_lambdas(lambdas)
    small = min(A.rows, A.cols)
    extra_zeros = max(A.rows, A.cols) - small
    if not 1 <= k <= small:
        raise ValueError(f"minor size {k} out of range for a {A.rows}x{A.cols} matrix")
    thresholds = _squared_thresholds(lam, Fraction(1))

    def count_chunk(start: int, stop: int) -> np.ndarray:
        z = np.exp(1j * grid.angles(start, stop))
        values = [[p.eval_block(z) for p in row] for row in A.entries]
        gram = _gram(values, A.rows, A.cols)
        if not np.isfinite(gram).all():
            raise OverflowError("a gram matrix entry overflows a float")
        eig = hermitian_eigenvalues(gram)
        flat = np.sort(eig.reshape(-1))
        return np.searchsorted(flat, thresholds, side="right")

    totals = sum(_map_chunks(grid, count_chunk, workers))
    counts = tuple(int(c) + extra_zeros * grid.total for c in totals)
    estimates = tuple(c / grid.total for c in counts)
    return DensityCurve(lam, counts, estimates, max(A.rows, A.cols) - k)


# -- decay exponent fit -----------------------------------------------------


def alpha_fit(
    curve: DensityCurve, window: tuple[float, float]
) -> tuple[float, float]:
    """Least-squares slope of log(F - f_zero) against log(lambda).

    Only points inside the window with F strictly above f_zero are used; at
    least five are required.  Returns (slope, r_squared).
    """
    lo, hi = window
    xs, ys = [], []
    for lam, est in zip(curve.lambdas, curve.estimates):
        if lo <= lam <= hi and est > curve.f_zero and lam > 0:
            xs.append(math.log(lam))
            ys.append(math.log(est - curve.f_zero))
    if len(xs) < 5:
        raise InsufficientDataError(
            f"only {len(xs)} usable points in [{lo}, {hi}]; need at least 5"
            " (estimates at f_zero carry no decay information)"
        )
    x = np.array(xs)
    y = np.array(ys)
    xm = x - x.mean()
    slope = float((xm @ (y - y.mean())) / (xm @ xm))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return slope, r2


def default_fit_window(curve: DensityCurve) -> tuple[float, float]:
    """Lowest two decades of lambda that contain >= 5 usable points."""
    usable = [
        lam
        for lam, est in zip(curve.lambdas, curve.estimates)
        if est > curve.f_zero and lam > 0
    ]
    if len(usable) < 5:
        raise InsufficientDataError(
            f"only {len(usable)} points rise above f_zero = {curve.f_zero};"
            " the resolution is too coarse to see any decay"
        )
    lo = usable[0]
    hi = max(lo * 100.0, usable[4])
    return lo, min(hi, curve.lambdas[-1])
