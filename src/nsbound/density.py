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
the counts are bit-identical for any chunk size; the chunks are summed in
block order on the calling thread.  A midpoint chunk with n <= 8192 points
per axis gathers its points z = exp(i*angles) from a table of the n roots,
whose angles take the same float steps (``_midpoint_angles``); other
grids take one complex exp per coordinate per point.  The entries are
evaluated from one table of the integer powers of z
(``LaurentPoly.eval_block``) and summed into the gram A A* on the wide
side (``_gram``).  A 1x1 or 2x2 gram's eigenvalues are
taken in closed form (``hermitian_eigenvalues``) and binned against the
thresholds; a larger gram's are counted by inertia (``_inertia``).  Every
chunk is written into one workspace, allocated once per run, with as many
power rows as the table draws on one point (``_chunk_counter``), so memory
does not grow with the grid and no chunk faults fresh pages in: a complex
array of 8192 points is exactly glibc's 128 KiB mmap threshold.  What does
not depend on the chunk is formed once per run: the complex coefficients
(``LaurentPoly._float_terms``) and the workspace's blocks.
A gram entry that overflows raises ``OverflowError``.  For a k x k gram
with k <= 2 the check reads the eigenvalue rows that are counted, as a
non-finite entry leaves the lower or the upper eigenvalue non-finite; for
k >= 3 it reads the whole stack, as the count by inertia does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .matrices import PolyMatrix
from .poly import (
    GaussianRational,
    LaurentPoly,
    _constant_abs2,
    _float_down,
    _power_table,
    _rows_drawn,
    width_profile,
)

CHUNK = 1 << 13  # points per chunk, sized so that a chunk's arrays stay in cache


class InsufficientDataError(ValueError):
    """Too few usable points for the requested fit."""


@dataclass(frozen=True)
class TorusGrid:
    """A deterministic quadrature rule for the d-torus with equal weights."""

    dim: int
    total: int
    points_per_dim: int | None = None
    generator: tuple[int, ...] | None = None
    shift: tuple[float, ...] | None = None

    @property
    def scheme(self) -> str:
        """"midpoint", or "lattice-shift" for a grid with a ``generator``."""
        return "midpoint" if self.generator is None else "lattice-shift"

    @staticmethod
    def midpoint(dim: int, n: int) -> TorusGrid:
        """Product of 1-d midpoint rules, n points per dimension."""
        if dim < 1 or n < 1:
            raise ValueError("need dim >= 1 and n >= 1")
        if n**dim >= 1 << 61:
            raise ValueError(f"a midpoint grid needs fewer than 2^61 points, not {n}^{dim}")
        return TorusGrid(dim=dim, total=n**dim, points_per_dim=n)

    @staticmethod
    def lattice(dim: int, total: int, seed: int = 0) -> TorusGrid:
        """Rank-1 Korobov lattice shifted by ``default_rng(seed).random(dim)``.

        The shift is computed bit for bit by ``_pcg64``, which never
        imports ``numpy.random``; ``seed`` is an integer >= 0.
        """
        from ._lattice import lattice_fields  # only lattice runs load it

        return TorusGrid(**lattice_fields(dim, total, seed))

    def epsilon_quad(self) -> float:
        """Declared quadrature tolerance 4 * d / N, N = M^(1/d) on a lattice of M points."""
        n = self.points_per_dim or self.total ** (1.0 / self.dim)
        return 4.0 * self.dim / n

    def block_ranges(self) -> Iterator[tuple[int, int]]:
        """Consecutive [start, stop) ranges of ``CHUNK`` points covering the grid."""
        return ((s, min(s + CHUNK, self.total)) for s in range(0, self.total, CHUNK))

    def angles(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Angle rows for flat point indices [start, stop).

        ``out``, a float (stop - start, dim) array, receives them if given.
        The indices are one int64 ``arange`` (64 KiB for ``CHUNK`` points,
        below glibc's mmap threshold); each column's integer digit (or
        lattice residue) is formed in an int64 view of its own memory.
        Midpoint column j + 1 receives q_(j+1) = q_j // n, and column j's
        digit q_j - n*q_(j+1) is formed by multiplying column j + 1 by n,
        subtracting it from q_j and dividing it back.
        """
        if out is None:
            out = np.empty((stop - start, self.dim), dtype=np.float64)
        idx = np.arange(start, stop, dtype=np.int64)
        if self.scheme != "midpoint":
            from ._lattice import lattice_angles  # only lattice runs load it

            for j in range(self.dim):
                lattice_angles(idx, self.generator[j], self.total, self.shift[j], out=out[:, j])
            return out
        n = self.points_per_dim
        for j in range(self.dim):
            col = out[:, j]
            q = col.view(np.int64) if j else idx  # q_j = idx // n^j
            if j + 1 < self.dim:  # idx < n^dim keeps the last quotient below n
                above = out[:, j + 1].view(np.int64)
                np.floor_divide(q, n, out=above)
                above *= n
                q -= above
                above //= n
            np.copyto(col, q, casting="unsafe")
            _midpoint_angles(col, n)
        return out


# -- Hermitian eigenvalues ---------------------------------------------------


def hermitian_eigenvalues(H: np.ndarray, out: np.ndarray | None = None, diagonal=False):
    """Eigenvalues of a stack of Hermitian matrices, ascending per matrix.

    1x1 matrices are their own eigenvalue, a view of H.  2x2 matrices use
    the closed form mid -+ |(a - c)/2 + i|b||, each modulus one vectorised
    complex abs, ten times faster than LAPACK and as accurate near zero.
    Rows 0 and 1 of ``out``, a C-contiguous float (3, npoints) array whose
    row 2 is scratch, receive the lower and upper eigenvalues; the result
    is an (npoints, 2) view of them.  ``diagonal`` asserts that
    every b is zero: the eigenvalues are then a and c, exactly.  The
    closed form runs under ``np.errstate(over="ignore", invalid="ignore")``:
    a non-finite or huge entry gives a non-finite eigenvalue quietly, for
    the caller to reject.  Other sizes go to ``np.linalg.eigvalsh``.  Each
    result depends only on its own matrix, so chunking cannot change it.
    """
    if H.shape[-1] == 1:
        return H[..., 0].real
    if H.shape[-1] != 2:
        return np.linalg.eigvalsh(H)
    out = np.empty((3, *H.shape[:-2])) if out is None else out
    lo, hi, rad = out[0, ...], out[1, ...], out[2, ...]  # views even of one matrix
    a, c = H[..., 0, 0].real, H[..., 1, 1].real
    with np.errstate(over="ignore", invalid="ignore"):
        if diagonal:
            np.minimum(a, c, out=lo)
            np.maximum(a, c, out=hi)
        else:
            # rows 0 and 1 hold w = (a - c)/2 + i|b|, whose modulus lands in row 2
            w = out[:2].reshape(-1).view(np.complex128).reshape(rad.shape)
            np.abs(H[..., 0, 1], out=w.imag)
            np.subtract(a, c, out=w.real)
            w.real *= 0.5
            np.abs(w, out=rad)
            np.add(a, c, out=lo)
            lo *= 0.5  # mid; mid + rad and mid - rad are each rounded once
            np.add(lo, rad, out=hi)
            lo -= rad
    return out[:2].T


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
    triangles are written (the 2x2 closed form reads the upper one unless
    it vanishes as a polynomial, the count by inertia both).  The stack is
    a view of ``out``, a complex (k, k, npoints) array, so every entry is
    written contiguously; ``scratch``, a complex array of npoints entries,
    holds the products.
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
    at or below ``lambdas[i]`` among ``points`` grid points, and ``f_zero``
    the analytic value at 0 (never estimated).  These four are stored;
    ``estimates[i]`` is derived, ``counts[i] / points``.
    """

    lambdas: tuple[float, ...]
    counts: tuple[int, ...]
    points: int
    f_zero: int

    def __post_init__(self):
        _check_lambdas(self.lambdas)
        if len(self.lambdas) != len(self.counts):
            raise ValueError("lambdas and counts must have the same length")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be non-decreasing")

    @cached_property
    def estimates(self) -> tuple[float, ...]:
        return tuple(c / self.points for c in self.counts)


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

    ``samples`` is a block of rows, counted row by row.  Each sample falls
    into the slot of the first threshold it does not exceed
    (``_count_slots``).  The last slot, of the samples above them all (and
    NaN), is dropped, so a row whose least sample is above the last
    threshold is skipped.  A chunk's rows hold at most ``CHUNK`` samples,
    so no slot array reaches glibc's 128 KiB mmap threshold.
    """
    counts = np.zeros(len(thresholds), dtype=np.int64)
    for row in samples:
        if not row.min(initial=np.inf) > thresholds[-1]:
            counts += _count_slots(np.searchsorted(thresholds, row), len(thresholds))
    return counts


def _count_slots(slot: np.ndarray, nthresholds: int) -> np.ndarray:
    """Number of samples at or below each threshold, from each sample's slot.

    A running sum of the slot sizes counts each sample at its slot's
    threshold and every later one.
    """
    return np.cumsum(np.bincount(slot.reshape(-1), minlength=nthresholds + 1)[:-1])


def matrix_density(
    A: PolyMatrix,
    lambdas: Sequence[float],
    grid: TorusGrid,
) -> DensityCurve:
    """Average count of gram eigenvalues <= lambda^2 over the torus.

    The count is taken on the larger of the two gram sides, so it starts at
    max(rows, cols) - rank almost everywhere; only the smaller gram is
    formed, A A* of A or of its transpose when A is tall, and the
    |rows - cols| exact zero eigenvalues are added as a constant.  The
    analytic f_zero = max(rows, cols) - rank A reads the rank found once
    per matrix and shared with ``analyze`` (``PolyMatrix._first_basis``),
    which raises ``ZeroMatrixError`` for a zero matrix larger than 1x1.

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
    entries, scale2 = A.entries, Fraction(1)
    if A.rows == A.cols == 1:
        p = A[0, 0]
        lead = width_profile(p).lead
        scale2 = lead.abs2()
        if p.is_monomial():
            # |p| is constant |lead| on the torus: the density is an exact step.
            counts = tuple(grid.total if Fraction(x) ** 2 >= scale2 else 0 for x in lam)
            return DensityCurve(lam, counts, grid.total, 0)
        entries = [[p * (GaussianRational(1) / lead)]]
    elif A.rows > A.cols:
        entries = tuple(zip(*entries))
    rank = len(A._first_basis()[0])
    thresholds = _squared_thresholds(lam, scale2)
    count_chunk = _chunk_counter(entries, thresholds, grid)
    totals = sum(count_chunk(a, b) for a, b in grid.block_ranges())
    counts = tuple(int(c) + extra_zeros * grid.total for c in totals)
    return DensityCurve(lam, counts, grid.total, max(A.rows, A.cols) - rank)


def _chunk_counter(
    entries: Sequence[Sequence[LaurentPoly]], thresholds: np.ndarray, grid: TorusGrid
) -> Callable[[int, int], np.ndarray]:
    """count_chunk(start, stop): gram eigenvalues of wide ``entries`` <= each threshold.

    Once per run, the gram diagonal's constants (``poly._constant_abs2``)
    are formed, a 2x2 gram whose off-diagonal vanishes as a polynomial is
    marked diagonal (``uncoupled``), and the rows of the power table are
    counted on one point (``poly._rows_drawn``).  One workspace is
    allocated, sized from ``CHUNK``, the entries and that count, and every
    chunk reuses it, so no chunk pays for fresh pages.  Its complex rows of
    CHUNK points hold, in turn:

    * z, one row per coordinate: the points, gathered from the table of
      roots, or exponentiated in place from the angles copied into its
      imaginary parts; once the entries are evaluated, the first row is
      the gram's scratch row;
    * the entry values, one row each; once the values are summed into the
      gram they hold the 2x2 eigenvalue rows, or, together with the z
      rows, the intermediates of the count by inertia for k >= 3;
    * the power table, at least k^2 rows, two it leaves free being the
      evaluation's scratch rows; then the gram stack reuses its rows.

    Before the values, the value and table rows hold the angles, one
    contiguous float row per coordinate, and then a gather's digits; they
    are sized to hold d + 1 float rows.  The finiteness mask starts at the
    workspace's first byte: the eigenvalue rows' k*n bytes fall in z's
    first row, the stack's k^2*n in the z and value rows, as nvals >= k^2.
    The blocks are split once; a chunk of n points takes their first n columns.
    """
    k = len(entries)
    polys = [p for row in entries for p in row]
    size, dim, nvals = min(CHUNK, grid.total), grid.dim, len(polys)
    pool = max(_rows_drawn(polys), k * k, dim // 2 + 1 - nvals)
    roots = _midpoint_roots(grid)
    diagonal = [_constant_abs2(row) for row in entries]
    uncoupled = k == 2 and not sum(x * y.star() for x, y in zip(*entries))
    inertia_counts = None
    if k >= 3:
        from ._inertia import inertia_counts  # only k >= 3 grams load it
    work = np.empty((dim + nvals + pool, size), dtype=np.complex128)
    spare = work[dim:].reshape(-1).view(np.float64)  # the value and table rows, flat
    flags = work.reshape(-1).view(np.bool_)  # the finiteness mask, from the first byte
    blocks = np.split(work, [dim, dim + nvals])  # z, values and table

    def count_chunk(start: int, stop: int) -> np.ndarray:
        n = stop - start
        z, values, table = (b[:, :n] for b in blocks)
        angles = spare[: dim * n].reshape(dim, n)  # contiguous rows: strided digits cost more
        grid.angles(start, stop, out=angles.T)
        if roots is None:
            z.real = 0.0
            z.imag = angles
            np.exp(z, out=z)
        else:
            digits = spare[dim * n :][:n].view(np.int64)
            # theta * n / (2 pi) is within 1e-11 of digit + 1/2, so truncation gives the digit
            for theta, row in zip(angles, z):
                np.multiply(theta, len(roots) / (2.0 * math.pi), out=digits, casting="unsafe")
                np.take(roots, digits, out=row, mode="clip")  # "raise" would copy the row
        powers, scratch = _power_table(z.T, polys, iter(table))
        for p, v in zip(polys, values):
            p.eval_block(z.T, powers, out=v, scratch=scratch)
        stack = table[: k * k].reshape(k, k, n)  # a view: only the row axis is split
        gram = _gram(values, stack, z[0], diagonal)
        # the count by inertia reads every entry, a closed form's count its rows
        eig = spare[: 3 * n].reshape(3, n)
        read = stack if k >= 3 else hermitian_eigenvalues(gram, eig, uncoupled).T
        if not np.isfinite(read, out=flags[: read.size].reshape(read.shape)).all():
            raise OverflowError("a gram matrix entry overflows a float")
        if k >= 3:  # the z and value rows, k^2 + 1 or more, are its workspace
            return inertia_counts(stack, thresholds, work[: dim + nvals])
        return _count_at_most(read, thresholds)

    return count_chunk


def _midpoint_roots(grid: TorusGrid) -> np.ndarray | None:
    """exp(i*theta) at the n angles of each midpoint axis; None on a lattice or past ``CHUNK``.

    The angles come from ``_midpoint_angles``, as in ``TorusGrid.angles``,
    so each entry is bitwise the exp a chunk would take.
    """
    n = grid.points_per_dim
    if grid.scheme != "midpoint" or n > CHUNK:
        return None
    return np.exp(1j * _midpoint_angles(np.arange(n, dtype=np.float64), n))


def _midpoint_angles(digits, n):
    """(digits + 1/2) * (2 pi / n) in place, the float steps of every midpoint angle."""
    digits += 0.5
    digits *= 2.0 * math.pi / n
    return digits


# -- decay exponent fit -----------------------------------------------------


def _usable_points(curve: DensityCurve) -> list[tuple[float, float]]:
    """(lambda, estimate) pairs with lambda > 0 and the estimate above f_zero."""
    pairs = zip(curve.lambdas, curve.estimates)
    return [(lam, est) for lam, est in pairs if est > curve.f_zero and lam > 0]


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
    for lam, est in _usable_points(curve):
        if lo <= lam <= hi:
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
    usable = [lam for lam, _ in _usable_points(curve)]
    if len(usable) < 5:
        raise InsufficientDataError(
            f"only {len(usable)} points rise above f_zero = {curve.f_zero};"
            " the resolution is too coarse to see any decay"
        )
    lo = usable[0]
    hi = max(lo * 100.0, usable[4])
    return lo, min(hi, curve.lambdas[-1])
