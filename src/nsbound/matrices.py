"""Matrices over the Laurent polynomial ring: determinants, minors, norms.

The exact layer has one elimination, a fraction-free row-echelon pass
(:func:`_row_echelon`): each row is scaled by the lcm of its coefficient
denominators and reduced by the earlier pivot rows with the Bareiss step,
on a small private kernel whose polynomials are plain dicts of
Gaussian-integer coefficient pairs (Python ints), with the required exact
divisions done by leading-term polynomial division.  Every determinant and
the rank profile behind the lexicographically first maximal minor come from
that pass.  ``LaurentPoly`` appears only at the edges.  A failed division
indicates a bug, not bad input, and raises ExactDivisionError.  Cofactor
expansion is kept as an independent oracle.

Enumerating every minor of one size (``--minor best``) is the exception:
one division-free Laplace sweep (:func:`_laplace_levels`) forms them all
on the same kernel, expanding each t x t minor of a row prefix from the
(t-1) x (t-1) minors below it, so candidates that share rows share work.
A single determinant stays on elimination, which forms about n^3/3
entries where the sweep forms 2^n - n - 1 minors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add, neg, sub
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


class ExactDivisionError(ArithmeticError):
    """Internal error: a division that must be exact left a remainder."""


class PolyMatrix:
    """A rectangular matrix of LaurentPoly entries sharing one dimension."""

    __slots__ = ("rows", "cols", "dim", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        dim = max(p.dim for r in rows for p in r)
        lifted = [[p.lift(dim) for p in r] for r in rows]
        self.rows = len(rows)
        self.cols = ncols
        self.dim = dim
        self.entries = tuple(tuple(r) for r in lifted)

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

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> PolyMatrix:
        rows = list(rows)
        cols = list(cols)
        return PolyMatrix([[self.entries[i][j] for j in cols] for i in rows])

    def l1_norm(self) -> float:
        """Max over entries of the entry L1 norms (0.0 for the zero matrix)."""
        return max(p.l1_norm() for r in self.entries for p in r)


# -- the exact kernel ----------------------------------------------------------
#
# A kernel polynomial is a plain dict mapping an exponent tuple to an
# (re, im) coefficient pair.  Inside a determinant both parts are Python
# ints; a division whose quotient is not Gaussian-integral carries Fractions.

_KPoly = dict[tuple[int, ...], tuple]


def _lex_key(exp: tuple[int, ...]) -> tuple[int, ...]:
    # Heap key: the smallest key is the maximal exponent in the
    # lexicographic order that compares the last coordinate first.
    return tuple(map(neg, reversed(exp)))


def _scaled(x: Fraction, scale: int):
    """scale * x, as an int when scale clears the denominator of x."""
    q, r = divmod(scale, x.denominator)
    return x * scale if r else x.numerator * q


def _to_kernel(p: LaurentPoly, scale: int = 1) -> _KPoly:
    return {e: (_scaled(c.re, scale), _scaled(c.im, scale)) for e, c in p.terms.items()}


def _from_kernel(dim: int, p: _KPoly, denominator: int = 1) -> LaurentPoly:
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


def _shift_to_ordinary(p: _KPoly) -> tuple[_KPoly, tuple[int, ...]]:
    """Divide out the per-coordinate valuation so all exponents are >= 0.

    Normalizing both operands of a division to valuation exactly 0 makes
    the quotient an ordinary polynomial whenever the Laurent quotient
    exists, so plain leading-term division applies.
    """
    mins = tuple(map(min, zip(*p)))
    return {tuple(map(sub, e, mins)): c for e, c in p.items()}, mins


def _kdiv(a: _KPoly, b: _KPoly) -> _KPoly:
    """Exact quotient a / b of non-zero kernel polynomials in the Laurent ring.

    Leading-term division after shifting both operands to valuation 0.  A
    quotient term with a negative exponent, or one beyond the per-coordinate
    degree a quotient can have, means b does not divide a and raises
    ExactDivisionError; the quotient exponents lie in a finite box, so the
    loop always terminates.
    """
    ah, sa = _shift_to_ordinary(a)
    bh, sb = _shift_to_ordinary(b)
    top = tuple(map(sub, map(max, zip(*ah)), map(max, zip(*bh))))
    b_lead = min(bh, key=_lex_key)
    c, d = bh[b_lead]
    norm = c * c + d * d
    b_rest = [(e, cf) for e, cf in bh.items() if e != b_lead]
    rem = ah
    heap = [(_lex_key(e), e) for e in rem]
    heapify(heap)
    quotient: _KPoly = {}
    while heap:
        e = heappop(heap)[1]
        x, y = rem[e]
        if not (x or y):
            continue
        t = tuple(map(sub, e, b_lead))
        if any(ti < 0 or ti > hi for ti, hi in zip(t, top)):
            raise ExactDivisionError(
                "leading term is not divisible; quotient would not be exact"
            )
        re = x * c + y * d
        im = y * c - x * d
        qr, rr = divmod(re, norm)
        qi, ri = divmod(im, norm)
        if rr or ri:
            qr, qi = Fraction(re, norm), Fraction(im, norm)
        quotient[t] = (qr, qi)
        for e2, (u, v) in b_rest:
            e3 = tuple(map(add, t, e2))
            old = rem.get(e3)
            if old is None:
                rem[e3] = (qi * v - qr * u, -qr * v - qi * u)
                heappush(heap, (_lex_key(e3), e3))
            else:
                rem[e3] = (old[0] - qr * u + qi * v, old[1] - qr * v - qi * u)
    shift = tuple(map(sub, sa, sb))
    return {tuple(map(add, e, shift)): cf for e, cf in quotient.items()}


# -- determinants ----------------------------------------------------------------


def determinant_cofactor(B: PolyMatrix) -> LaurentPoly:
    """Determinant by recursive first-row expansion (exact, exponential).

    Kept as an independent oracle for the Bareiss kernel.
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


def _bareiss_entry(
    pivot: _KPoly, x: _KPoly, head: _KPoly, y: _KPoly, prev: _KPoly | None
) -> _KPoly:
    """One Bareiss update, (pivot * x - head * y) / prev; prev None means 1."""
    acc: _KPoly = {}
    _mul_acc(acc, pivot, x, 1)
    _mul_acc(acc, head, y, -1)
    elt = {e: cf for e, cf in acc.items() if cf[0] or cf[1]}
    return _kdiv(elt, prev) if prev is not None and elt else elt


def _row_scale(row: Sequence[LaurentPoly]) -> int:
    """The lcm of the coefficient denominators in a row."""
    return math.lcm(*(x.denominator for p in row for c in p.terms.values() for x in (c.re, c.im)))


def _row_echelon(A: PolyMatrix) -> Iterator[tuple[int | None, int, list[_KPoly]]]:
    """The one fraction-free elimination: reduce the rows of A in order.

    Row i is scaled by the lcm s of its denominators and reduced by the
    earlier pivot rows with the Bareiss step, skipping each pivot column,
    whose entry always cancels; its leftmost non-zero entry then becomes its
    pivot.  Yields (c, s, row) per row, with c the pivot column, or None when
    the row reduced to zero.  After t steps every entry of a reduced row is a
    (t+1)x(t+1) minor of the scaled matrix (Sylvester's identity), so the
    divisions are exact and a row reduces to zero exactly when it lies in the
    span of the earlier pivot rows.
    """
    pivots: list[tuple[int, _KPoly, list[_KPoly]]] = []
    for entries in A.entries:
        s = _row_scale(entries)
        row = [_to_kernel(p, s) for p in entries]
        prev: _KPoly | None = None
        for c, pivot, pivot_row in pivots:
            head = row[c]
            row = [
                {} if j == c else _bareiss_entry(pivot, x, head, y, prev)
                for j, (x, y) in enumerate(zip(row, pivot_row))
            ]
            prev = pivot
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            pivots.append((c, row[c], row))
        yield c, s, row


def determinant(B: PolyMatrix) -> LaurentPoly:
    """Exact determinant of a square matrix, from one row-echelon pass.

    :func:`_row_echelon` scales row r by the lcm s_r of its denominators, so
    the elimination never leaves the Gaussian integers.  When every row keeps
    a pivot, the pivot columns in pivot order form a permutation sigma and
    the last pivot is det(S B[:, sigma]) by Sylvester's identity, so
    det B = sign(sigma) * (last pivot) / prod(s_r).  The first row that
    reduces to zero proves det B = 0 and ends the pass.
    """
    if B.rows != B.cols:
        raise ValueError(f"determinant of a non-square {B.rows}x{B.cols} matrix")
    cols: list[int] = []
    scale = 1
    for c, s, row in _row_echelon(B):
        if c is None:
            return LaurentPoly.zero(B.dim)
        cols.append(c)
        scale *= s
    inversions = sum(a > b for a, b in combinations(cols, 2))
    return _from_kernel(B.dim, row[c], (-1) ** inversions * scale)


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
    """A maximal non-vanishing minor: index sets, size, exact determinant.

    ``row_set`` and ``col_set`` are 0-based.  ``b_l1`` is the L1 norm of
    the selected square submatrix.
    """

    row_set: tuple[int, ...]
    col_set: tuple[int, ...]
    size: int
    det: LaurentPoly
    b_l1: float


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
    (:func:`_expand_level`).  Only the levels of the current row prefix are
    kept; row sets visited in lexicographic order share them.
    """
    path: list[tuple[int, dict[tuple[int, ...], _KPoly]]] = []
    for I in combinations(range(len(rows)), size):
        keep = next((t for t, (i, _) in enumerate(path) if i != I[t]), len(path))
        del path[keep:]
        for t in range(keep + 1, size + 1):
            row = rows[I[t - 1]]
            if t == 1:
                level = {(j,): x for j, x in enumerate(row) if x}
            else:
                level = _expand_level(row, path[-1][1], t)
            path.append((I[t - 1], level))
        yield I, path[-1][1]


def _expand_level(
    row: Sequence[_KPoly], below: dict[tuple[int, ...], _KPoly], t: int
) -> dict[tuple[int, ...], _KPoly]:
    """The non-zero t x t minors of a row prefix ending in ``row``.

    ``below`` holds the non-zero (t-1) x (t-1) minors of the prefix without
    ``row``.  Each of the C(len(row), t) column sets J is expanded along
    ``row``: M(J) = sum_p (-1)^(t-1+p) * row[J[p]] * below[J without J[p]],
    so every product is entry times minor and nothing is divided.
    """
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
    one Laplace sweep (:func:`_laplace_levels`).  Each row is first scaled
    by the lcm of its denominators, as in :func:`_row_echelon`, so the
    sweep stays in the Gaussian integers; a minor of the scaled matrix is
    the minor of A times the scales of its rows.
    """
    if size < 1:
        raise ValueError(f"minor size must be at least 1, got {size}")
    _size_guard(A.rows, A.cols, size, cap)
    scales = [_row_scale(row) for row in A.entries]
    kernel = [[_to_kernel(p, s) for p in row] for row, s in zip(A.entries, scales)]
    for I, minors in _laplace_levels(kernel, size):
        scale = math.prod(scales[i] for i in I)
        for J, M in minors.items():
            det = _from_kernel(A.dim, M, scale)
            yield MinorCertificate(I, J, size, det, A.submatrix(I, J).l1_norm())


def _rank_profile(A: PolyMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy row basis I of A and the column rank profile J of A[I, :].

    The rows that keep a pivot in :func:`_row_echelon` form I, and their
    pivot columns, sorted, form J.
    """
    row_set: list[int] = []
    col_set: list[int] = []
    for i, (c, _, _) in enumerate(_row_echelon(A)):
        if c is None:
            continue
        row_set.append(i)
        col_set.append(c)
        if len(col_set) == A.cols:
            break
    return tuple(row_set), tuple(sorted(col_set))


def max_nonvanishing_minor(A: PolyMatrix) -> MinorCertificate:
    """The lexicographically first non-vanishing minor of maximal size.

    This is the minor that trying sizes in descending order, and index sets
    in lexicographic order within a size (rows outer, columns inner), would
    find first.  The leading min(rows, cols) minor is tried first, so a
    full-rank input whose leading minor is non-zero costs one determinant.
    Otherwise one rank-profile pass (:func:`_rank_profile`) finds I, the
    greedy row basis, which is the lexicographically first set of rank(A)
    independent rows, and J, the pivot columns of A[I, :].  Sorting the
    reduced pivot rows by pivot column gives a row echelon form of A[I, :],
    so J is its column rank profile, the lexicographically first set of
    independent columns of A[I, :].  One determinant of A[I, J] then gives
    the certificate.  The zero matrix is rejected.
    """
    if A.is_zero():
        raise ZeroMatrixError("the zero matrix has no non-vanishing minor")
    n = min(A.rows, A.cols)
    rows = cols = tuple(range(n))
    sub = A.submatrix(rows, cols)
    det = determinant(sub)
    if det.is_zero():
        rows, cols = _rank_profile(A)
        sub = A.submatrix(rows, cols)
        det = determinant(sub)
    return MinorCertificate(rows, cols, len(rows), det, sub.l1_norm())


def maximal_minors(A: PolyMatrix, cap: int = DEFAULT_MINOR_CAP) -> list[MinorCertificate]:
    """Every non-vanishing minor of maximal size, in enumeration order.

    The maximal size is min(rows, cols) unless all of those minors vanish;
    then it is rank(A), from one rank-profile pass (:func:`_rank_profile`),
    and no size in between is enumerated.  ``cap`` bounds the candidates at
    each size enumerated (see :func:`iter_nonvanishing_minors`).  The zero
    matrix is rejected.
    """
    if A.is_zero():
        raise ZeroMatrixError("the zero matrix has no non-vanishing minor")
    certs = list(iter_nonvanishing_minors(A, min(A.rows, A.cols), cap))
    if not certs:
        rank = len(_rank_profile(A)[0])
        certs = list(iter_nonvanishing_minors(A, rank, cap))
    return certs
