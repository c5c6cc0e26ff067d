"""Eigenvalue counts of Hermitian PSD stacks by inertia, without eigenvalues.

``density`` counts the eigenvalues of each k x k gram, k >= 3, at or
below each threshold from the pivot signs of its Householder tridiagonal,
where LAPACK's ``eigvalsh`` would diagonalize it.  Only such grams import
this module, so a 1x1 or 2x2 run never compiles or loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .density import _count_slots

_PIVMIN = 2.0**-400  # every pivot is lowered by this, so that a zero pivot counts
_NEGLIGIBLE = 2.0**-900  # squared norms below this count as zero; far below _PIVMIN^2


def _carve(work: np.ndarray, *parts: tuple[type, tuple[int, ...]]) -> list[np.ndarray]:
    """Contiguous arrays of the given dtypes and shapes laid end to end in ``work``.

    ``work`` is a flat float64 array; each part starts on a float boundary,
    and the rest of ``work`` follows as a last, flat float64 array.  A
    ``work`` too short for the parts fails the reshape.
    """
    out, start = [], 0
    for dtype, shape in parts:
        size = math.prod(shape)
        words = -(-size * np.dtype(dtype).itemsize // 8)
        out.append(work[start : start + words].view(dtype)[:size].reshape(shape))
        start += words
    out.append(work[start:])
    return out


def inertia_counts(stack: np.ndarray, thresholds: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of a stack of Hermitian PSD matrices <= each threshold.

    ``stack`` is a complex (k, k, n) stack, k >= 3, with both triangles
    written and every entry finite; it is consumed.  ``thresholds`` holds
    the P ascending thresholds.  ``rows``, a contiguous complex array of
    at least k^2 + 1 rows of n or more points, holds every intermediate,
    so no array of n points is created.

    Each eigenvalue's slot, the number of thresholds below it, is found
    and binned by ``density._count_slots``, as in ``_count_at_most``;
    nothing is diagonalized.  Each point's matrix is scaled by the power
    of two of its largest diagonal entry, which bounds every entry of a
    PSD matrix, and its thresholds by the same power, so no sum of squares
    overflows and the scaling is exact.  ``tridiagonalize`` then reduces it to a
    real symmetric tridiagonal T.  By Sylvester's law of inertia the number
    of eigenvalues <= t is the number of negative pivots of the LDL^T
    recurrence of T - t, with each pivot lowered by ``_PIVMIN`` as LAPACK's
    bisection lowers small ones: a zero pivot then counts, which is the
    closed count, and no pivot of size 2^-346 or more moves.  Each slot is
    found by bisection on the threshold index, one recurrence per step and
    L = bit_length(P) steps in all.  The count is exact for a matrix a few
    ulps from the given one.
    """
    k, n = stack.shape[0], stack.shape[2]
    exponent, e2, d, rest = _carve(
        rows.reshape(-1).view(np.float64), (np.int32, (n,)), (np.float64, (k - 1, n)),
        (np.float64, (k, n)),
    )
    scale, top, _ = _carve(rest, (np.complex128, (n,)), (np.float64, (n,)))
    np.maximum(stack[0, 0].real, stack[1, 1].real, out=top)
    for i in range(2, k):
        np.maximum(top, stack[i, i].real, out=top)
    np.frexp(top, out=(top, exponent))
    np.negative(exponent, out=exponent)
    np.minimum(exponent, 1022, out=exponent)  # 2^exponent stays finite
    scale.imag.fill(0.0)
    np.ldexp(1.0, exponent, out=scale.real)
    np.multiply(stack, scale, out=stack)
    tridiagonalize(stack, e2, d, rest)

    t, q, slot, probe, neg, count, _ = _carve(
        rest, (np.float64, (k, n)), (np.float64, (k, n)), (np.int64, (k, n)),
        (np.int64, (k, n)), (np.bool_, (k, n)), (np.int8, (k, n)),
    )
    flags = neg.view(np.int8)
    rank = np.arange(1, k + 1, dtype=np.int8)[:, None]
    slot.fill(0)
    with np.errstate(over="ignore", divide="ignore"):
        for level in reversed(range(len(thresholds).bit_length())):
            # slot holds the leading bits; row j takes the next bit 1 unless
            # the threshold it probes has j + 1 eigenvalues at or below it.
            # A probe past the last threshold reads the last one, which
            # differs from +inf only when every threshold is below the
            # eigenvalue; the slot is then all ones and clipped to P.
            step = 1 << level
            np.left_shift(slot, level + 1, out=probe)
            np.take(thresholds[step - 1 :], probe, out=t, mode="clip")
            np.ldexp(t, exponent, out=t)
            np.subtract(d[0], t, out=q)
            q -= _PIVMIN
            np.less(q, 0.0, out=neg)
            np.copyto(count, flags)
            for i in range(1, k):
                np.divide(e2[i - 1], q, out=q)
                np.subtract(d[i], q, out=q)
                q -= t
                q -= _PIVMIN
                np.less(q, 0.0, out=neg)
                count += flags
            np.less(count, rank, out=neg)
            slot += slot
            np.add(slot, neg, out=slot)
    np.minimum(slot, len(thresholds), out=slot)
    return _count_slots(slot, len(thresholds))


def tridiagonalize(stack: np.ndarray, e2: np.ndarray, d: np.ndarray, work: np.ndarray) -> None:
    """Write the diagonal ``d`` and squared off-diagonal ``e2`` of a tridiagonal similar to ``stack``.

    ``stack`` is a complex (k, k, n) stack of Hermitian PSD matrices whose
    entries are at most 1, with both triangles written; it is consumed.
    k - 2 Householder reflections H = I - beta u u* reduce each matrix
    (Demmel, Applied Numerical Linear Algebra, section 5.3.4); the phases
    of the off-diagonal never matter, so only their squared moduli are
    kept.  ``work`` is flat float64 scratch of at least (2 k + 5) n
    entries.  A column whose squared norm is below ``_NEGLIGIBLE`` is not
    reflected, and each entry of ``e2`` is raised to at least it.
    """
    k, n = stack.shape[0], stack.shape[2]
    w, scr, f, s, ax, mask, _ = _carve(
        work, (np.complex128, (k - 1, n)), (np.complex128, (n,)), (np.complex128, (n,)),
        (np.float64, (n,)), (np.float64, (n,)), (np.bool_, (n,)),
    )
    f.imag.fill(0.0)  # f multiplies complex rows by a real number per point
    # u = x + phase(x0) |x| e1 and beta = 1 / (|x| (|x| + |x0|)) map the
    # column x below the diagonal to a multiple of e1.  u is written over x
    # and conj(u) over the row beside it, and only the lower triangle of the
    # trailing block is updated, then mirrored.
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(k - 2):
            m = k - c - 1
            x, cu, A, wc = stack[c + 1 :, c], stack[c, c + 1 :], stack[c + 1 :, c + 1 :], w[:m]
            sq, x0, ec = wc.view(np.float64), x[0], e2[c]
            np.square(x.view(np.float64), out=sq)
            np.add(sq[0, 0::2], sq[0, 1::2], out=ax)
            np.add(sq[1, 0::2], sq[1, 1::2], out=ec)
            for row in sq[2:]:
                ec += row[0::2]
                ec += row[1::2]
            ec += ax
            np.sqrt(ax, out=ax)
            np.sqrt(ec, out=s)
            np.equal(ax, 0.0, out=mask)
            np.divide(x0.real, ax, out=x0.real)
            np.divide(x0.imag, ax, out=x0.imag)
            np.copyto(x0, 1.0, where=mask)  # the phase of x0, 1 if x0 = 0
            ax += s
            np.multiply(x0.real, ax, out=x0.real)
            np.multiply(x0.imag, ax, out=x0.imag)
            np.conj(x0, out=cu[0])
            s *= ax
            np.divide(1.0, s, out=f.real)
            np.less(ec, _NEGLIGIBLE, out=mask)
            np.copyto(f.real, 0.0, where=mask)
            for Ai, wi in zip(A, wc):  # w = beta A u
                np.multiply(Ai[0], x0, out=wi)
                for a, xj in zip(Ai[1:], x[1:]):
                    wi += np.multiply(a, xj, out=scr)
                wi *= f
            ax.fill(0.0)  # then w -= (beta u* w / 2) u
            for ui, wi in zip(cu, wc):
                ax += np.multiply(ui, wi, out=scr).real
            ax *= 0.5
            np.multiply(f.real, ax, out=f.real)
            for xi, wi in zip(x, wc):
                wi -= np.multiply(xi, f, out=scr)
            for i in range(m):  # A -= u w* + w u*
                aii = A[i, i].real
                np.multiply(cu[i], wc[i], out=scr)
                np.subtract(aii, np.add(scr.real, scr.real, out=ax), out=aii)
                for j in range(i):
                    a = A[i, j]
                    a -= np.conj(np.multiply(wc[j], cu[i], out=scr), out=scr)
                    a -= np.multiply(wc[i], cu[j], out=scr)
                    if c < k - 3:
                        np.conj(a, out=A[j, i])
    last = stack[k - 1, k - 2]
    np.add(np.square(last.real, out=e2[k - 2]), np.square(last.imag, out=s), out=e2[k - 2])
    # no 0 / 0 can arise in the pivots then, and e2 / _PIVMIN stays far below _PIVMIN
    np.maximum(e2, _NEGLIGIBLE, out=e2)
    for i in range(k):
        np.copyto(d[i], stack[i, i].real)
