"""Brute-force spectral density estimation over the d-torus.

The density of a polynomial p at lambda is the Haar measure of the set
where |p| <= lambda; for a matrix it is the average number of eigenvalues
of the pointwise gram matrix below lambda^2.  Both are estimated by
deterministic quadrature: a midpoint product grid by default, optionally a
rank-1 Korobov lattice shifted by numpy's ``default_rng(seed).random(d)``,
computed by ``_pcg64`` without importing ``numpy.random``.

Exactness conventions that the tests rely on:

* Scalar densities normalize by the exact leading coefficient, so the
  float sample set of p and of c*p is literally identical, and thresholds
  are exact rationals rounded down to the nearest float.  The scaling
  identity F(c*p)(lambda) = F(p)(lambda/|c|) then holds at the level of
  integer sample counts.
* A one-term polynomial has constant modulus on the torus, so its density
  is an exact step; no quadrature is performed.
* Counting uses the closed condition (<=) throughout.

Grid evaluation streams through chunks of ``CHUNK`` = 8192 points, a
fixed size at which one chunk's arrays stay in cache.  Every step works
point by point or matrix by matrix and every count is an exact integer, so
the counts are bit-identical for any chunk size and worker count.  A chunk
takes one complex exp per coordinate per point, z = exp(i*angles), and
builds one table of the integer powers of z that the entries use, with
conjugates for negative exponents; every entry is evaluated from that
shared table (``LaurentPoly.eval_block``), and no exp is taken per term.
The gram on the smaller side is summed entry by entry from those values,
and each chunk's samples are counted against the thresholds by binning,
without a sort.  Each worker thread allocates one workspace on its first
chunk and writes every later chunk into it (``_chunk_counter``), so memory
does not grow with the grid (about 4.4 MiB per worker for a 4x4 matrix
over three variables) and no chunk faults fresh pages in: a complex array
of 8192 points is exactly glibc's 128 KiB mmap threshold, so arrays
allocated afresh per chunk would be mapped and unmapped every chunk.
Scalar densities run through the same evaluator as 1x1 matrices.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .matrices import PolyMatrix
from .poly import (
    GaussianRational,
    LaurentPoly,
    ZeroPolynomialError,
    _float_down,
    _power_rows,
    _power_table,
    lead_lex,
)

CHUNK = 1 << 13  # points per chunk, sized so that a chunk's arrays stay in cache


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
        """Rank-1 Korobov lattice shifted by ``default_rng(seed).random(dim)``.

        The shift is computed bit for bit by ``_pcg64``, which never
        imports ``numpy.random``; ``seed`` is an integer >= 0.
        """
        seed = operator.index(seed)
        if dim < 1 or total < 1:
            raise ValueError("need dim >= 1 and total >= 1")
        if total >= 1 << 61:
            raise ValueError(f"a lattice needs fewer than 2^61 points, not {total}")
        if seed < 0:
            raise ValueError(f"a lattice shift seed must be at least 0, not {seed}")
        from ._pcg64 import uniform_floats  # only lattice runs load it

        a = max(1, int(total * (math.sqrt(5.0) - 1.0) / 2.0)) | 1
        gen = tuple(pow(a, j, total) if total > 1 else 0 for j in range(dim))
        shift = uniform_floats(seed, dim)
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

    def block_ranges(self, chunk: int = CHUNK) -> Iterator[tuple[int, int]]:
        """Consecutive [start, stop) ranges of ``chunk`` points covering the grid."""
        return ((s, min(s + chunk, self.total)) for s in range(0, self.total, chunk))

    def angles(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Angle rows for flat point indices [start, stop).

        ``out``, a float (stop - start, dim) array, receives them if given.
        Each column's integer digit (or lattice residue) is formed in an
        int64 view of that column's own memory before it becomes an angle,
        and column 0, done last, holds the indices meanwhile, so nothing is
        allocated.
        """
        if out is None:
            out = np.empty((stop - start, self.dim), dtype=np.float64)
        idx = out[:, 0].view(np.int64)
        idx.fill(1)
        idx[:1] = start
        np.cumsum(idx, out=idx)  # start, start + 1, ..., stop - 1
        n = self.points_per_dim
        for j in reversed(range(self.dim)):
            col = out[:, j]
            digits = col.view(np.int64)
            if self.scheme == "midpoint":
                np.floor_divide(idx, n**j, out=digits)
                np.remainder(digits, n, out=digits)
                np.copyto(col, digits, casting="unsafe")
                col += 0.5
                col *= 2.0 * math.pi / n
            else:
                _mul_mod(idx, self.generator[j], self.total, out=digits)
                np.copyto(col, digits, casting="unsafe")
                col /= self.total
                col += self.shift[j]
                np.mod(col, 1.0, out=col)
                col *= 2.0 * math.pi
        return out


def _mul_mod(idx: np.ndarray, g: int, m: int, out: np.ndarray) -> np.ndarray:
    """idx * g mod m exactly into ``out``, for int64 idx and g in [0, m), m < 2^61.

    The product is taken directly while (m - 1)^2 fits in int64.  Beyond
    that, g is split into b-bit digits with m * 2^b <= 2^62, and Horner's
    rule reduces after every digit, so no intermediate reaches 2^63.
    """
    if (m - 1) * (m - 1) < 1 << 63:
        np.multiply(idx, g, out=out)
        return np.remainder(out, m, out=out)
    b = 62 - m.bit_length()
    acc = np.zeros_like(idx)
    for shift in range((g.bit_length() - 1) // b * b, -1, -b):
        acc = (acc * (1 << b) + idx * (g >> shift & (1 << b) - 1)) % m
    out[...] = acc
    return out


def _sum_chunks(grid: TorusGrid, fn: Callable[[int, int], np.ndarray], workers: int = 1):
    """Sum of fn over the block ranges, added in block order.

    Ranges are produced one at a time, and at most 2 * workers chunks are
    in flight, so memory does not grow with the grid.
    """
    ranges = grid.block_ranges(CHUNK)
    if workers <= 1:
        return sum(fn(a, b) for a, b in ranges)
    # Imported here: a single-worker run never loads the executor machinery.
    from concurrent.futures import Future, ThreadPoolExecutor

    total = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque[Future] = deque()
        for a, b in ranges:
            if len(pending) == 2 * workers:
                total = total + pending.popleft().result()
            pending.append(pool.submit(fn, a, b))
        return sum((f.result() for f in pending), total)


# -- Hermitian eigenvalues ---------------------------------------------------


def hermitian_eigenvalues(H: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, ascending per matrix.

    1x1 matrices are their own eigenvalue, a view of H.  2x2 matrices use
    the closed form mid -+ hypot((a - c)/2, |b|): per call it is an order
    of magnitude faster than LAPACK at that size and as accurate near
    zero; it is written into ``out``, a float (npoints, 2) C-contiguous
    array, if given.  Every other size goes to ``np.linalg.eigvalsh``.
    Each result depends only on its own matrix, so chunking cannot change it.
    """
    if H.shape[-1] == 1:
        return H[..., 0].real
    if H.shape[-1] != 2:
        return np.linalg.eigvalsh(H)
    if out is None:
        out = np.empty(H.shape[:-1], dtype=np.float64)
    # Each row (lo, hi) of out, read as one complex number, first holds
    # mid + i*rad; times (1 + i) it becomes (mid - rad) + i*(mid + rad),
    # the products by 1 being exact, so each part is rounded once, as in
    # mid - rad and mid + rad.
    w = out.view(np.complex128)[..., 0]
    a = H[..., 0, 0].real
    c = H[..., 1, 1].real
    np.abs(H[..., 0, 1], out=w.real)
    np.subtract(a, c, out=w.imag)
    w.imag *= 0.5
    np.hypot(w.imag, w.real, out=w.imag)
    np.add(a, c, out=w.real)
    w.real *= 0.5
    w *= 1 + 1j
    return out


def _gram(
    values: np.ndarray, rows: int, cols: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Gram stack (npoints, k, k) on the smaller side, k = min(rows, cols).

    ``values[i * cols + j]`` holds entry (i, j) over the block.  The values
    are consumed: each row (wide) or column (tall) is conjugated in place
    once its diagonal entry is summed.  A A* (wide) or A* A (tall) has the
    same non-zero spectrum either way.  Each of the k(k+1)/2 distinct
    entries is summed directly over the long side, and both triangles are
    written (``eigvalsh`` reads the lower one, the 2x2 closed form the
    upper).  The stack is a view of ``out``, a complex (k, k, npoints)
    array, so every entry is written contiguously; ``scratch``, a complex
    array of npoints entries, holds the products.  Overflowing products
    become inf or nan quietly; the caller rejects non-finite stacks.
    """
    wide = rows <= cols
    if wide:
        vecs = [values[i * cols : (i + 1) * cols] for i in range(rows)]
    else:
        vecs = [values[j::cols] for j in range(cols)]
    k, npoints = len(vecs), values.shape[1]
    diag, square = scratch.view(np.float64)[:npoints], scratch.view(np.float64)[npoints:]
    with np.errstate(over="ignore", invalid="ignore"):
        for j, y in enumerate(vecs):
            diag.fill(0)
            for v in y:
                diag += np.multiply(v.real, v.real, out=square)
                diag += np.multiply(v.imag, v.imag, out=square)
            out[j, j] = diag
            if j + 1 < k:
                np.conj(y, out=y)
            for i in range(j + 1, k):
                # s = sum x_i conj(x_j) is (A A*)_ij, or (A* A)_ji when tall
                at, mirror = ((i, j), (j, i)) if wide else ((j, i), (i, j))
                s = out[at]
                np.multiply(vecs[i][0], y[0], out=s)
                for x, yc in zip(vecs[i][1:], y[1:]):
                    s += np.multiply(x, yc, out=scratch)
                np.conj(s, out=out[mirror])
    return out.transpose(2, 0, 1)


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


def _squared_thresholds(lambdas: Iterable[float], scale2: Fraction) -> np.ndarray:
    """Floats t_i with (samples <= t_i) == (samples <= lambda_i^2 / scale2)."""
    return np.array(
        [_float_down(Fraction(lam) * Fraction(lam) / scale2) for lam in lambdas]
    )


def _count_at_most(samples: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Number of samples <= each of the ascending thresholds, without a sort.

    Each sample falls into the slot of the first threshold it does not
    exceed, so a running sum of the slot sizes counts it at that threshold
    and every later one; the last slot holds the samples above them all
    (and NaN, which sorts last).
    """
    slot = np.searchsorted(thresholds, samples.reshape(-1), side="left")
    return np.cumsum(np.bincount(slot, minlength=len(thresholds) + 1)[:-1])


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
    totals = _sum_chunks(grid, _chunk_counter([[q]], thresholds, grid), workers)
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
    totals = _sum_chunks(grid, _chunk_counter(A.entries, thresholds, grid), workers)
    counts = tuple(int(c) + extra_zeros * grid.total for c in totals)
    estimates = tuple(c / grid.total for c in counts)
    return DensityCurve(lam, counts, estimates, max(A.rows, A.cols) - k)


def _chunk_counter(
    entries: Sequence[Sequence[LaurentPoly]], thresholds: np.ndarray, grid: TorusGrid
) -> Callable[[int, int], np.ndarray]:
    """count_chunk(start, stop): gram eigenvalues of ``entries`` <= each threshold.

    Each worker thread allocates one workspace on its first chunk, sized
    from ``CHUNK`` and these entries, and every later chunk reuses it, so
    no chunk pays the allocator for fresh pages.  Its complex rows of
    CHUNK points hold, in turn:

    * z, one row per coordinate, with the angles written into its
      imaginary parts and exponentiated in place; once the entries are
      evaluated, the first row is the gram's scratch row;
    * the entry values, one row each; once they are summed into the gram
      they hold the finiteness mask and the 2x2 eigenvalues;
    * the power table, two rows it leaves free being the evaluation's
      scratch rows; then the gram stack reuses its rows.
    """
    rows, cols = len(entries), len(entries[0])
    k = min(rows, cols)
    polys = [p for row in entries for p in row]
    size = min(CHUNK, grid.total)
    dim, nvals = grid.dim, len(polys)
    pool = max(_power_rows(polys), k * k)
    local = threading.local()

    def count_chunk(start: int, stop: int) -> np.ndarray:
        if not hasattr(local, "rows"):
            local.rows = np.empty((dim + nvals + pool, size), dtype=np.complex128)
        n = stop - start
        z, values, table = np.split(local.rows[:, :n], [dim, dim + nvals])
        grid.angles(start, stop, out=z.imag.T)
        z.real = 0.0
        np.exp(z, out=z)
        free: list[np.ndarray] = []
        powers = _power_table(z.T, polys, out=table, free=free)
        for p, v in zip(polys, values):
            p.eval_block(z.T, powers, out=v, scratch=free[:2])
        stack = local.rows[dim + nvals : dim + nvals + k * k].reshape(k, k, size)[..., :n]
        gram = _gram(values, rows, cols, stack, z[0])
        flags = local.rows[dim : dim + nvals].reshape(-1).view(np.bool_)
        if not np.isfinite(stack, out=flags[: stack.size].reshape(stack.shape)).all():
            raise OverflowError("a gram matrix entry overflows a float")
        eig = values[0].view(np.float64).reshape(n, 2) if k == 2 else None
        return _count_at_most(hermitian_eigenvalues(gram, out=eig), thresholds)

    return count_chunk


# -- decay exponent fit -----------------------------------------------------


def alpha_fit(
    curve: DensityCurve, window: tuple[float, float]
) -> tuple[float, float]:
    """Least-squares slope of log(F - f_zero) against log(lambda).

    Only points inside the window with F strictly above f_zero are used; at
    least five are required, at two or more distinct lambdas, since equal
    lambdas determine no slope.  Returns (slope, r_squared).
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
    if min(xs) == max(xs):
        raise InsufficientDataError(
            f"all {len(xs)} usable points share one lambda;"
            " a slope needs two distinct lambdas"
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
