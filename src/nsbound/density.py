"""Brute-force spectral density estimation over the d-torus.

The density of a matrix at lambda is the average number of eigenvalues of
the pointwise gram matrix below lambda^2; for a 1x1 matrix [[p]] it is the
Haar measure of the set where |p| <= lambda.  It is estimated by
deterministic quadrature: a midpoint product grid by default, optionally a
rank-1 Korobov lattice shifted by numpy's ``default_rng(seed).random(d)``,
computed by ``_pcg64`` without importing ``numpy.random``.

Exactness conventions that the tests rely on:

* A 1x1 matrix [[p]] is normalized by the exact leading coefficient of p,
  so the float sample set of p and of c*p is literally identical, and
  thresholds are exact rationals rounded down to the nearest float.  The
  scaling identity F(c*p)(lambda) = F(p)(lambda/|c|) then holds at the
  level of integer sample counts.
* A one-term 1x1 entry has constant modulus on the torus, so its density
  is an exact step; no quadrature is performed.
* Counting uses the closed condition (<=) throughout.

Grid evaluation streams through chunks of ``CHUNK`` = 8192 points, a
fixed size at which one chunk's arrays stay in cache.  Every step works
point by point or matrix by matrix and every count is an exact integer, so
the counts are bit-identical for any chunk size and worker count.  A
midpoint chunk with n <= 8192 points per axis gathers its points
z = exp(i*angles) from a table of the n roots; other grids take one
complex exp per coordinate per point; counts do not depend on which ran.
A chunk builds one table of the integer powers of z that the entries use,
with conjugates for negative exponents; every entry is evaluated from that
shared table (``LaurentPoly.eval_block``), and no exp is taken per term.
The gram A A* is summed entry by entry from those values; a tall matrix is
transposed once per run, so the gram is always formed on the wide side.
A monomial or zero entry c*z^e has |c*z^e|^2 = |c|^2 everywhere on the
torus, so each row's sum of these |c|^2 is formed in exact arithmetic once
per run; its gram diagonal entry starts from that constant, rounded down
to a float, and squares only the row's other entries.
A 1x1 or 2x2 gram's eigenvalues are taken in closed form
(``hermitian_eigenvalues``) and counted against the thresholds by binning,
without a sort.  A larger gram is never diagonalized: its eigenvalues at
or below each threshold are counted by inertia, from the pivot signs of
its Householder tridiagonal (``_inertia``), into the same bins.
Each worker thread allocates one workspace on its first chunk and writes
every later chunk into it (``_chunk_counter``), so memory does not grow
with the grid (about 4.4 MiB per worker for a 4x4 matrix over three
variables) and no chunk faults fresh pages in: a complex array of 8192
points is exactly glibc's 128 KiB mmap threshold, so arrays allocated
afresh per chunk would be mapped and unmapped every chunk.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .matrices import PolyMatrix, ZeroMatrixError
from .poly import (
    GaussianRational,
    LaurentPoly,
    _constant_abs2,
    _float_down,
    _power_rows,
    _power_table,
    width_profile,
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
        if n**dim >= 1 << 61:
            raise ValueError(f"a midpoint grid needs fewer than 2^61 points, not {n}^{dim}")
        return TorusGrid(dim=dim, scheme="midpoint", total=n**dim, points_per_dim=n)

    @staticmethod
    def lattice(dim: int, total: int, seed: int = 0) -> TorusGrid:
        """Rank-1 Korobov lattice shifted by ``default_rng(seed).random(dim)``.

        The shift is computed bit for bit by ``_pcg64``, which never
        imports ``numpy.random``; ``seed`` is an integer >= 0.
        """
        from ._lattice import lattice_fields  # only lattice runs load it

        return TorusGrid(scheme="lattice-shift", **lattice_fields(dim, total, seed))

    def epsilon_quad(self) -> float:
        """Declared quadrature tolerance 4 * d / N, N = M^(1/d) on a lattice of M points."""
        n = self.points_per_dim if self.scheme == "midpoint" else self.total ** (1.0 / self.dim)
        return 4.0 * self.dim / n

    def block_ranges(self) -> Iterator[tuple[int, int]]:
        """Consecutive [start, stop) ranges of ``CHUNK`` points covering the grid."""
        return ((s, min(s + CHUNK, self.total)) for s in range(0, self.total, CHUNK))

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
            if self.scheme == "midpoint":
                digits = col.view(np.int64)  # column 0's digits overwrite idx itself
                if j:
                    np.floor_divide(idx, n**j, out=digits)
                if j + 1 < self.dim:  # idx < n^dim keeps the last quotient below n
                    np.remainder(digits, n, out=digits)
                np.copyto(col, digits, casting="unsafe")
                col += 0.5
                col *= 2.0 * math.pi / n
            else:
                from ._lattice import lattice_angles  # only lattice runs load it

                lattice_angles(idx, self.generator[j], self.total, self.shift[j], out=col)
        return out


def _sum_chunks(grid: TorusGrid, fn: Callable[[int, int], np.ndarray], workers: int = 1):
    """Sum of fn over the block ranges, added in block order.

    Ranges are produced one at a time, and at most 2 * workers chunks are
    in flight, so memory does not grow with the grid.
    """
    ranges = grid.block_ranges()
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
    array, if given.  Every other size goes to ``np.linalg.eigvalsh``;
    ``matrix_density`` calls this only for 1x1 and 2x2 grams and counts
    larger ones by inertia without their eigenvalues (``_inertia``).
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
    values: np.ndarray, out: np.ndarray, scratch: np.ndarray, diagonal: list
) -> np.ndarray:
    """Gram stack A A* (npoints, k, k) of a wide block A, k = len(out).

    ``values`` holds A's entries over the block, row by row.  The values
    are consumed: each row is conjugated in place once its diagonal entry
    is summed.  ``diagonal[j]`` is ``poly._constant_abs2`` of row j:
    diagonal entry j starts from its constant, the exact |c|^2 of the
    row's monomial and zero entries, and adds the squared moduli of the
    entries at its indices only.  Each of the k(k-1)/2 off-diagonal
    entries is summed directly along the rows, over every entry, and both
    triangles are written (the 2x2 closed form reads the upper one, the
    count by inertia both).  The stack is a view of ``out``, a complex
    (k, k, npoints) array, so every entry is written contiguously;
    ``scratch``, a complex array of npoints entries, holds the products.
    Overflowing products become inf or nan quietly; the caller rejects
    non-finite stacks.
    """
    k, npoints = len(out), values.shape[1]
    vecs = values.reshape(k, -1, npoints)  # a view; vecs[i] is row i of A
    diag, square = scratch.view(np.float64)[:npoints], scratch.view(np.float64)[npoints:]
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (y, (constant, general)) in enumerate(zip(vecs, diagonal)):
            diag.fill(constant)
            for v in map(y.__getitem__, general):
                diag += np.multiply(v.real, v.real, out=square)
                diag += np.multiply(v.imag, v.imag, out=square)
            out[j, j] = diag
            if j + 1 < k:
                np.conj(y, out=y)
            for i in range(j + 1, k):
                s = out[i, j]  # sum x_i conj(x_j), (A A*)_ij
                np.multiply(vecs[i][0], y[0], out=s)
                for x, yc in zip(vecs[i][1:], y[1:]):
                    s += np.multiply(x, yc, out=scratch)
                np.conj(s, out=out[j, i])
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
        if not len(lam) == len(self.counts) == len(self.estimates):
            raise ValueError("lambdas, counts and estimates must have the same length")
        if any(b < a for a, b in zip(lam, lam[1:])):
            raise ValueError("lambdas must be ascending")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be non-decreasing")


def _check_lambdas(lambdas: Sequence[float]) -> tuple[float, ...]:
    lam = tuple(float(x) for x in lambdas)
    if not lam:
        raise ValueError("empty lambda list")
    if not all(math.isfinite(x) for x in lam):
        raise ValueError("lambda values must be finite")
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
    exceed (``_count_slots``); the last slot holds the samples above them
    all (and NaN, which sorts last).  The slots are found ``CHUNK``
    samples at a time: one slot array for a whole chunk of 2x2 grams
    would take 128 KiB, glibc's mmap threshold.
    """
    flat, counts = samples.reshape(-1), np.zeros(len(thresholds), dtype=np.int64)
    for start in range(0, len(flat), CHUNK):
        counts += _count_slots(
            np.searchsorted(thresholds, flat[start : start + CHUNK]), len(thresholds)
        )
    return counts


def _count_slots(slot: np.ndarray, nthresholds: int) -> np.ndarray:
    """Number of samples at or below each threshold, from each sample's slot.

    A running sum of the slot sizes counts each sample at its slot's
    threshold and every later one.
    """
    return np.cumsum(np.bincount(slot.reshape(-1), minlength=nthresholds + 1)[:-1])


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
    formed, A A* of A or of its transpose when A is tall, and the
    |rows - cols| exact zero eigenvalues are added as a constant.  ``k``
    (the maximal non-vanishing minor size) fixes the analytic value
    f_zero = max(rows, cols) - k; a zero matrix larger than 1x1 has no
    such k and raises ``ZeroMatrixError``.

    A 1x1 matrix [[p]] is the fraction of the torus where |p| <= lambda.
    A zero p raises ``ZeroPolynomialError``.  A one-term p is the exact
    step at |lead|, with no quadrature.  Any other p is divided by its
    exact leading coefficient, the lead of its width tower, and the
    thresholds absorb the scale exactly, so p and c*p agree count for
    count at corresponding lambdas.
    """
    if grid.dim != A.dim:
        raise ValueError(f"grid dimension {grid.dim} != matrix dimension {A.dim}")
    lam = _check_lambdas(lambdas)
    small = min(A.rows, A.cols)
    extra_zeros = max(A.rows, A.cols) - small
    if not 1 <= k <= small:
        raise ValueError(f"minor size {k} out of range for a {A.rows}x{A.cols} matrix")
    entries, scale2 = A.entries, Fraction(1)
    if A.rows == A.cols == 1:
        p = A[0, 0]
        lead = width_profile(p).lead
        scale2 = lead.abs2()
        if p.is_monomial():
            # |p| is constant |lead| on the torus: the density is an exact step.
            counts = tuple(grid.total if Fraction(x) ** 2 >= scale2 else 0 for x in lam)
            return DensityCurve(lam, counts, tuple(c / grid.total for c in counts), 0)
        entries = [[p * (GaussianRational(1) / lead)]]
    elif A.is_zero():
        raise ZeroMatrixError("the zero matrix has no non-vanishing minor")
    elif A.rows > A.cols:
        entries = tuple(zip(*entries))
    thresholds = _squared_thresholds(lam, scale2)
    totals = _sum_chunks(grid, _chunk_counter(entries, thresholds, grid), workers)
    counts = tuple(int(c) + extra_zeros * grid.total for c in totals)
    estimates = tuple(c / grid.total for c in counts)
    return DensityCurve(lam, counts, estimates, max(A.rows, A.cols) - k)


def _chunk_counter(
    entries: Sequence[Sequence[LaurentPoly]], thresholds: np.ndarray, grid: TorusGrid
) -> Callable[[int, int], np.ndarray]:
    """count_chunk(start, stop): gram eigenvalues of wide ``entries`` <= each threshold.

    The gram diagonal's constants, the exact |c|^2 of the monomial and
    zero entries (``poly._constant_abs2``), are formed once per run, so a
    chunk squares only the other entries.  Each worker thread allocates one
    workspace on its first chunk, sized from ``CHUNK`` and these entries,
    and every later chunk reuses it, so no chunk pays the allocator for
    fresh pages.  Its complex rows of CHUNK points hold, in turn:

    * z, one row per coordinate, with the angles written into its
      imaginary parts and then the points, gathered from the table of
      roots or exponentiated in place; once the entries are evaluated, the
      first row is the gram's scratch row;
    * the entry values, one row each, the first holding the digits of a
      gather; once the values are summed into the gram they hold the
      finiteness mask and then the 2x2 eigenvalues, or, together with
      the z rows, the intermediates of the count by inertia for k >= 3;
    * the power table, two rows it leaves free being the evaluation's
      scratch rows; then the gram stack reuses its rows.
    """
    k = len(entries)
    polys = [p for row in entries for p in row]
    size = min(CHUNK, grid.total)
    dim, nvals = grid.dim, len(polys)
    pool = max(_power_rows(polys), k * k)
    roots = _midpoint_roots(grid)
    diagonal = [_constant_abs2(row) for row in entries]
    local = threading.local()

    def count_chunk(start: int, stop: int) -> np.ndarray:
        if not hasattr(local, "rows"):
            local.rows = np.empty((dim + nvals + pool, size), dtype=np.complex128)
        n = stop - start
        z, values, table = np.split(local.rows[:, :n], [dim, dim + nvals])
        grid.angles(start, stop, out=z.imag.T)
        if roots is None:
            z.real = 0.0
            np.exp(z, out=z)
        else:
            # theta * n / (2 pi) is within 1e-11 of digit + 1/2, so truncation gives the digit
            digits = values[0].view(np.int64)[:n]
            for row in z:
                np.multiply(row.imag, len(roots) / (2.0 * math.pi), out=digits, casting="unsafe")
                np.take(roots, digits, out=row, mode="clip")  # "raise" would copy the row
        free: list[np.ndarray] = []
        powers = _power_table(z.T, polys, out=table, free=free)
        for p, v in zip(polys, values):
            p.eval_block(z.T, powers, out=v, scratch=free[:2])
        stack = local.rows[dim + nvals : dim + nvals + k * k].reshape(k, k, size)[..., :n]
        gram = _gram(values, stack, z[0], diagonal)
        flags = local.rows[dim : dim + nvals].reshape(-1).view(np.bool_)
        if not np.isfinite(stack, out=flags[: stack.size].reshape(stack.shape)).all():
            raise OverflowError("a gram matrix entry overflows a float")
        if k >= 3:  # the z and value rows, k^2 + 1 or more, are its workspace
            from ._inertia import inertia_counts  # only k >= 3 grams load it

            return inertia_counts(stack, thresholds, local.rows[: dim + nvals])
        eig = values[0].view(np.float64).reshape(n, 2) if k == 2 else None
        return _count_at_most(hermitian_eigenvalues(gram, out=eig), thresholds)

    return count_chunk


def _midpoint_roots(grid: TorusGrid) -> np.ndarray | None:
    """exp(i*theta) at the n angles of each midpoint axis; None on a lattice or past ``CHUNK``.

    The angles take the float steps of ``TorusGrid.angles``, so each entry
    is bitwise the exp a chunk would take.
    """
    n = grid.points_per_dim
    if grid.scheme != "midpoint" or n > CHUNK:
        return None
    theta = np.arange(n, dtype=np.float64)
    theta += 0.5
    theta *= 2.0 * math.pi / n
    return np.exp(1j * theta)


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
