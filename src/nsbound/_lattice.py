"""Integer arithmetic of rank-1 lattices: the generator and exact index products.

Only lattice grids import this module (``TorusGrid.lattice`` and
``TorusGrid.angles``), so a midpoint run never compiles or loads it.
Their checks and fields (``lattice_fields``) and their angles
(``lattice_angles``) live here too.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ._pcg64 import uniform_floats


def lattice_fields(dim: int, total: int, seed: int) -> dict:
    """The checked ``TorusGrid`` fields of ``TorusGrid.lattice(dim, total, seed)``."""
    seed = operator.index(seed)
    if dim < 1 or total < 1:
        raise ValueError("need dim >= 1 and total >= 1")
    if total >= 1 << 61:
        raise ValueError(f"a lattice needs fewer than 2^61 points, not {total}")
    if seed < 0:
        raise ValueError(f"a lattice shift seed must be at least 0, not {seed}")
    return {
        "dim": dim,
        "total": total,
        "generator": korobov_generator(dim, total),
        "shift": uniform_floats(seed, dim),
    }


def korobov_generator(dim: int, total: int) -> tuple[int, ...]:
    """(1, a, a^2, ...) mod total, a = floor(total * (sqrt(5) - 1) / 2) | 1."""
    a = max(1, int(total * (math.sqrt(5.0) - 1.0) / 2.0)) | 1
    return tuple(pow(a, j, total) if total > 1 else 0 for j in range(dim))


def mul_mod(idx: np.ndarray, g: int, m: int, out: np.ndarray) -> np.ndarray:
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


def lattice_angles(idx: np.ndarray, g: int, m: int, shift: float, out: np.ndarray) -> np.ndarray:
    """2 pi ((idx * g mod m) / m + shift mod 1) into the float column ``out``.

    The residue is formed exactly in an int64 view of ``out``'s own memory.
    """
    digits = out.view(np.int64)
    mul_mod(idx, g, m, out=digits)
    np.copyto(out, digits, casting="unsafe")
    out /= m
    out += shift
    np.mod(out, 1.0, out=out)
    out *= 2.0 * math.pi
    return out
