"""Matrices over the Laurent polynomial ring: determinants, minors, norms.

The exact layer forms every minor one way, by division-free Laplace
expansion (:func:`_expand_level`): the t x t minors of a list of rows are
expanded along its last row from the (t-1) x (t-1) minors of the rows
before it, so each product is an entry times a minor and nothing is
divided.  It works on a small private kernel whose polynomials are plain
dicts of Gaussian-integer coefficient pairs (Python ints), each row first
scaled by the lcm of its coefficient denominators; ``LaurentPoly`` appears
only at the edges.  A ``PolyMatrix`` converts its entries to the kernel,
and forms their L1 norms, once, when it is built; every sweep, pass and
norm of it reads those.  A determinant is one sweep over its rows
(:func:`_laplace_levels`), and enumerating every minor of one size
(``--minor best``) is one sweep whose row sets share their prefixes.  The
first maximal minor behind ``--minor first`` comes from one greedy pass
built with the same step (:func:`_greedy_basis`): its kept vectors are one
index set and the first key of its last level the other, and one
determinant certifies it.  A matrix runs the pass at most once and keeps
it, so ``analyze`` and ``matrix_density`` share its rank.  The sweep forms
2^n - n - 1 minors for an n x n determinant, exponential in n but with no
quotients whose term counts outgrow the minors; cofactor expansion is kept
as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Iterable, Iterator, Sequence

from .poly import GaussianRational, LaurentPoly

DEFAULT_MINOR_CAP = 10**6


class ZeroMatrixError(ValueError):
    """The all-zero matrix has no non-vanishing minor."""


class MinorSearchCapExceeded(RuntimeError):
    """Minor enumeration would exceed the configured candidate budget."""

    def __init__(self, size: int, candidates: int, cap: int):
        super().__init__(
            f"minor search at size {size} needs {candidates} candidate index"
            f" pairs, beyond the cap of {cap}"
        )
        self.size = size
        self.candidates = candidates
        self.cap = cap


class PolyMatrix:
    """A rectangular matrix of LaurentPoly entries sharing one dimension.

    Building it forms, once, its row scales (the lcm of each row's
    denominators), its row-scaled kernel and its entry L1 norms (inf past floats).
    """

    __slots__ = ("rows", "cols", "dim", "entries", "_scales", "_kernel", "_norms", "_basis")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        dim = max(p.dim for r in rows for p in r)
        self.rows = len(rows)
        self.cols = ncols
        self.dim = dim
        self.entries = tuple(tuple(p.lift(dim) for p in r) for r in rows)
        self._scales = [
            math.lcm(*(x.denominator for p in r for c in p.terms.values() for x in (c.re, c.im)))
            for r in self.entries
        ]
        self._kernel = [[_to_kernel(p, s) for p in r] for r, s in zip(self.entries, self._scales)]
        self._norms = [[_norm(p) for p in r] for r in self.entries]

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"<PolyMatrix {self.rows}x{self.cols} over {self.dim} variables>"

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.entries for p in r)

    def _first_basis(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """:func:`_greedy_basis` of the matrix, found on first use and kept."""
        if not hasattr(self, "_basis"):
            self._basis = _greedy_basis(self)
        return self._basis

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> PolyMatrix:
        rows = list(rows)
        cols = list(cols)
        return PolyMatrix([[self.entries[i][j] for j in cols] for i in rows])

    def l1_norm(self) -> float:
        """Max over entries of the entry L1 norms: 0.0 for the zero matrix, inf past floats."""
        return _b_l1(self, range(self.rows), range(self.cols))


# -- the exact kernel ----------------------------------------------------------
#
# A kernel polynomial is a plain dict mapping an exponent tuple to an
# (re, im) coefficient pair; on a row-scaled matrix both parts are Python
# ints.

_KPoly = dict[tuple[int, ...], tuple]


def _scaled(x: Fraction, scale: int) -> int:
    """scale * x, for a ``scale`` that the denominator of x divides."""
    return x.numerator * (scale // x.denominator)


def _to_kernel(p: LaurentPoly, scale: int) -> _KPoly:
    return {e: (_scaled(c.re, scale), _scaled(c.im, scale)) for e, c in p.terms.items()}


def _norm(p: LaurentPoly) -> float:
    """``p.l1_norm()``, or ``math.inf`` where it leaves the float range."""
    try:
        return p.l1_norm()
    except OverflowError:
        return math.inf


def _from_kernel(dim: int, p: _KPoly, denominator: int) -> LaurentPoly:
    return LaurentPoly(
        dim,
        {
            e: GaussianRational(Fraction(re, denominator), Fraction(im, denominator))
            for e, (re, im) in p.items()
        },
    )


def _mul_acc(acc: _KPoly, p: _KPoly, q: _KPoly, sign: int) -> None:
    """acc += sign * p * q in place; cancelled terms stay as (0, 0)."""
    q_items = list(q.items())
    get = acc.get
    for e1, (a, b) in p.items():
        if sign < 0:
            a, b = -a, -b
        for e2, (c, d) in q_items:
            e = tuple(map(add, e1, e2))
            re = a * c - b * d
            im = a * d + b * c
            old = get(e)
            if old is not None:
                re += old[0]
                im += old[1]
            acc[e] = (re, im)


# -- determinants ----------------------------------------------------------------


def determinant_cofactor(B: PolyMatrix) -> LaurentPoly:
    """Determinant by recursive first-row expansion (exact, exponential).

    Kept as an independent oracle for the Laplace sweep.
    """
    if B.rows != B.cols:
        raise ValueError(f"determinant of a non-square {B.rows}x{B.cols} matrix")
    return _det_cofactor(B.entries, B.dim)


def _det_cofactor(rows: Sequence[Sequence[LaurentPoly]], dim: int) -> LaurentPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = LaurentPoly.zero(dim)
    for j, top in enumerate(rows[0]):
        if top.is_zero():
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        cof = top * _det_cofactor(sub, dim)
        total = total + cof if j % 2 == 0 else total - cof
    return total


def determinant(B: PolyMatrix) -> LaurentPoly:
    """Exact determinant of a square matrix, by one Laplace sweep.

    :func:`_laplace_levels` expands the rows of the row-scaled matrix in
    order, level t holding the non-zero t x t minors of the first t rows,
    so the last level holds det(S B) alone, or nothing when det B = 0; then
    det B = det(S B) / prod(s_r).  It forms 2^n - n - 1 minors and divides
    nothing.
    """
    if B.rows != B.cols:
        raise ValueError(f"determinant of a non-square {B.rows}x{B.cols} matrix")
    [(_, level)] = _laplace_levels(B._kernel, B.rows)
    return _from_kernel(B.dim, level.get(tuple(range(B.cols)), {}), math.prod(B._scales))


def minor(A: PolyMatrix, rows: Iterable[int], cols: Iterable[int]) -> LaurentPoly:
    """Determinant of the submatrix selected by 0-based row/column sets."""
    rows = sorted(set(rows))
    cols = sorted(set(cols))
    if len(rows) != len(cols):
        raise ValueError(f"row set of size {len(rows)} vs column set of size {len(cols)}")
    if not rows:
        raise ValueError("empty index sets")
    if rows[0] < 0 or rows[-1] >= A.rows or cols[0] < 0 or cols[-1] >= A.cols:
        raise IndexError("minor index out of range")
    return determinant(A.submatrix(rows, cols))


@dataclass(frozen=True)
class MinorCertificate:
    """A maximal non-vanishing minor: index sets, exact determinant.

    ``row_set`` and ``col_set`` are 0-based, and ``size`` is read from
    them.  ``b_l1`` is the L1 norm of the selected square submatrix,
    ``math.inf`` where it leaves the float range.
    """

    row_set: tuple[int, ...]
    col_set: tuple[int, ...]
    det: LaurentPoly
    b_l1: float

    @property
    def size(self) -> int:
        return len(self.row_set)


def _b_l1(A: PolyMatrix, rows: Iterable[int], cols: Sequence[int]) -> float:
    """||A[rows, cols]||_1, read off the entry norms of A."""
    return max(A._norms[i][j] for i in rows for j in cols)


def _size_guard(m: int, n: int, k: int, cap: int) -> None:
    candidates = math.comb(m, k) * math.comb(n, k)
    if candidates > cap:
        raise MinorSearchCapExceeded(k, candidates, cap)


def _laplace_levels(
    rows: Sequence[Sequence[_KPoly]], size: int
) -> Iterator[tuple[tuple[int, ...], dict[tuple[int, ...], _KPoly]]]:
    """Every non-zero size x size minor of a kernel matrix, by row set.

    Yields (I, minors) for each row set I in lexicographic order, where
    minors maps each column set J, in lexicographic order, to the non-zero
    det(rows[I, J]).  Level t holds the t x t minors of the row prefix
    I[:t] and is expanded along that prefix's last row from level t - 1
    (:func:`_expand_level`); level 1 is that row's non-zero entries.  Only
    the levels of the current row prefix are kept; row sets visited in
    lexicographic order share them.
    """
    path: list[tuple[int, dict[tuple[int, ...], _KPoly]]] = []
    for I in combinations(range(len(rows)), size):
        keep = next((t for t, (i, _) in enumerate(path) if i != I[t]), len(path))
        del path[keep:]
        for t in range(keep + 1, size + 1):
            below = path[-1][1] if path else {}
            path.append((I[t - 1], _expand_level(rows[I[t - 1]], below, t)))
        yield I, path[-1][1]


def _expand_level(
    row: Sequence[_KPoly], below: dict[tuple[int, ...], _KPoly], t: int
) -> dict[tuple[int, ...], _KPoly]:
    """The non-zero t x t minors of a row prefix ending in ``row``.

    Level 1 is the non-zero entries of ``row``, keyed ``(j,)``.  Above it,
    ``below`` holds the non-zero (t-1) x (t-1) minors of the prefix without
    ``row``.  Each of the C(len(row), t) column sets J is expanded along
    ``row``: M(J) = sum_p (-1)^(t-1+p) * row[J[p]] * below[J without J[p]],
    so every product is entry times minor and nothing is divided.
    """
    if t == 1:
        return {(j,): x for j, x in enumerate(row) if x}
    level = {}
    for J in combinations(range(len(row)), t):
        acc: _KPoly = {}
        for p, j in enumerate(J):
            sub = row[j] and below.get(J[:p] + J[p + 1 :])
            if sub:
                _mul_acc(acc, row[j], sub, -1 if (t - 1 + p) % 2 else 1)
        elt = {e: cf for e, cf in acc.items() if cf[0] or cf[1]}
        if elt:
            level[J] = elt
    return level


def iter_nonvanishing_minors(
    A: PolyMatrix, size: int, cap: int = DEFAULT_MINOR_CAP
):
    """Yield every non-vanishing minor certificate of the given size.

    Index sets are visited in lexicographic order (rows outer, columns
    inner), so the iteration order is deterministic.  The minors come from
    one Laplace sweep (:func:`_laplace_levels`) over the matrix's row-scaled
    kernel, and each ||B||_1 from its entry norms; no submatrix is built.
    """
    if size < 1:
        raise ValueError(f"minor size must be at least 1, got {size}")
    _size_guard(A.rows, A.cols, size, cap)
    for I, minors in _laplace_levels(A._kernel, size):
        scale = math.prod(A._scales[i] for i in I)
        for J, M in minors.items():
            yield MinorCertificate(I, J, _from_kernel(A.dim, M, scale), _b_l1(A, I, J))


def _greedy_basis(A: PolyMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column sets of the lexicographically first maximal minor of A.

    One greedy pass over the vectors of the long side of the matrix's
    row-scaled kernel keeps each vector whose level, the kept
    vectors' maximal minors extended along it (:func:`_expand_level`), is
    non-empty, forming at most (rows + cols) * 2^min(rows, cols) minors;
    the first vector's level is its non-zero entries.
    The kept vectors are the lexicographically first basis of the long side.
    The last level keys the non-zero maximal minors of the kept vectors by
    coordinate set in lexicographic order, and a set's minor is non-zero
    exactly when it is a basis of the short side restricted to the kept
    vectors, so its first key is the first such basis.  Restricting to a
    basis of the other side keeps every dependency, so the two sets are the
    first row basis and the first column basis of A.  The zero matrix keeps
    no vector and raises ``ZeroMatrixError``.
    """
    rows = A._kernel
    tall = A.rows >= A.cols
    kept: list[int] = []
    level: dict[tuple[int, ...], _KPoly] = {}
    for i, v in enumerate(rows if tall else list(zip(*rows))):
        extended = _expand_level(v, level, len(kept) + 1)
        if extended:
            kept.append(i)
            level = extended
            if len(kept) == len(v):
                break
    if not kept:
        raise ZeroMatrixError("the zero matrix has no non-vanishing minor")
    first = next(iter(level))
    return (tuple(kept), first) if tall else (first, tuple(kept))


def max_nonvanishing_minor(A: PolyMatrix) -> MinorCertificate:
    """The lexicographically first non-vanishing minor of maximal size.

    This is the minor that trying sizes in descending order, and index sets
    in lexicographic order within a size (rows outer, columns inner), would
    find first: I, the lexicographically first set of rank(A) independent
    rows, and J, the lexicographically first set of independent columns of
    A[I, :].  The matrix's greedy pass (:func:`_greedy_basis`) finds both
    and rejects the zero matrix; one determinant of A[I, J] certifies them.
    """
    rows, cols = A._first_basis()
    return MinorCertificate(rows, cols, minor(A, rows, cols), _b_l1(A, rows, cols))


def maximal_minors(A: PolyMatrix, cap: int = DEFAULT_MINOR_CAP) -> list[MinorCertificate]:
    """Every non-vanishing minor of maximal size, in enumeration order.

    The maximal size is min(rows, cols) unless all of those minors vanish;
    then it is rank(A), from the matrix's greedy pass, and no size in
    between is enumerated.  ``cap`` bounds the candidates at each size
    enumerated (see :func:`iter_nonvanishing_minors`).  The zero matrix is
    rejected first, so it is never enumerated and never meets the cap.
    """
    if A.is_zero():
        raise ZeroMatrixError("the zero matrix has no non-vanishing minor")
    certs = list(iter_nonvanishing_minors(A, min(A.rows, A.cols), cap))
    return certs or list(iter_nonvanishing_minors(A, len(A._first_basis()[0]), cap))
