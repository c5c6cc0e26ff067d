"""Seeded inputs and command lines for the three benchmark workloads.

The program under test only ever sees the generated matrix text.  Every
random choice comes from one ``random.Random(seed)`` per workload, drawn
in a fixed order, so the same seed gives byte-identical files.

Run time must not depend much on the seed, and two choices keep it
steady while exponents and coefficients stay random:

* Term counts per entry follow a fixed cyclic pattern instead of being
  drawn.  The cost of an exact determinant grows steeply with the term
  counts of its pivots; with drawn counts one seed's 4x4 determinant took
  eight times as long as another's.
* ``exact-minors`` draws exponents from [-30, 30] rather than [-2, 2].
  With few exponent collisions, the term counts of every product and
  quotient in the elimination hardly depend on the seed; with [-2, 2]
  the summed ``analyze`` time of six seeds spread by a third of its
  median, with [-30, 30] by a tenth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from nsbound import LaurentPoly, PolyMatrix, format_matrix, parse_matrix

#: The paper's example; fixed, never generated.
REFERENCE_TEXT = "[[z1^3, -1, 1], [2*z1*z2^2 - 16, z2, z1*z2]]"

WORKLOAD_NAMES = ("ref-grid1500", "k4-lattice-d3", "exact-minors")

REF_GRID = 1500
K4_LATTICE = 150_000
MINORS_EXPONENTS = (-30, 30)


@dataclass(frozen=True)
class Workload:
    """Files to write and the ``nsbound`` argv lists that use them.

    ``commands`` hold ``{dir}`` placeholders for the directory the files
    are written to.  ``csv`` maps a command index to the CSV file that
    command writes with ``--out``; ``rank`` maps a command index to the
    minor size its input is built to have; ``inputs`` describes the
    generated files.
    """

    name: str
    seed: int
    files: dict[str, str]
    commands: tuple[tuple[str, ...], ...]
    csv: dict[int, str]
    inputs: dict[str, dict]
    rank: dict[int, int] = field(default_factory=dict)


def random_poly(
    rng: random.Random, dim: int, nterms: int, lo: int = -2, hi: int = 2, cmax: int = 9
) -> LaurentPoly:
    """``nterms`` distinct exponents in [lo, hi]^dim, integer coefficients in +-[1, cmax]."""
    terms: dict[tuple[int, ...], int] = {}
    while len(terms) < nterms:
        exp = tuple(rng.randint(lo, hi) for _ in range(dim))
        if exp in terms:
            continue
        terms[exp] = rng.randint(1, cmax) * rng.choice((-1, 1))
    return LaurentPoly(dim, terms)


def random_matrix(
    rng: random.Random, rows: int, cols: int, dim: int, counts: tuple[int, ...],
    lo: int = -2, hi: int = 2,
) -> PolyMatrix:
    """Entry (i, j) has ``counts[(i + j) % len(counts)]`` terms."""
    return PolyMatrix(
        [
            [random_poly(rng, dim, counts[(i + j) % len(counts)], lo, hi) for j in range(cols)]
            for i in range(rows)
        ]
    )


def rank3_matrix(rng: random.Random) -> PolyMatrix:
    """A 5x6 matrix over 2 variables whose rows 4 and 5 depend on rows 1-3.

    Each dependent row is a combination of the three random rows with
    random monomial multipliers, expanded exactly, because the parser
    cannot read parenthesised products.  Every 5x5 and 4x4 minor
    therefore vanishes while a generic 3x3 minor does not.
    """
    base = random_matrix(rng, 3, 6, 2, (1, 1, 2), *MINORS_EXPONENTS)
    rows = [list(r) for r in base.entries]
    for _ in range(2):
        mult = [random_poly(rng, 2, 1, -1, 1, 3) for _ in range(3)]
        rows.append(
            [
                mult[0] * rows[0][j] + mult[1] * rows[1][j] + mult[2] * rows[2][j]
                for j in range(6)
            ]
        )
    return PolyMatrix(rows)


def _describe(A: PolyMatrix) -> dict:
    return {
        "shape": [A.rows, A.cols],
        "variables": A.dim,
        "term_counts": [[len(p) for p in row] for row in A.entries],
    }


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs generated from ``seed``."""
    rng = random.Random(seed)
    if name == "ref-grid1500":
        return Workload(
            name,
            seed,
            files={"ref.mat": REFERENCE_TEXT},
            commands=(
                ("verify", "{dir}/ref.mat", "--grid", str(REF_GRID), "--workers", "1",
                 "--out", "{dir}/ref.csv"),
            ),
            csv={0: "ref.csv"},
            inputs={"ref.mat": {**_describe(parse_matrix(REFERENCE_TEXT)), "fixed": True}},
        )
    if name == "k4-lattice-d3":
        A = random_matrix(rng, 4, 4, 3, (1, 2, 3))
        return Workload(
            name,
            seed,
            files={"k4.mat": format_matrix(A)},
            commands=(
                ("verify", "{dir}/k4.mat", "--lattice", str(K4_LATTICE), "--seed", str(seed),
                 "--workers", "1", "--out", "{dir}/k4.csv"),
            ),
            csv={0: "k4.csv"},
            inputs={"k4.mat": _describe(A)},
        )
    if name == "exact-minors":
        A = random_matrix(rng, 4, 6, 3, (1, 1, 2), *MINORS_EXPONENTS)
        B = rank3_matrix(rng)
        return Workload(
            name,
            seed,
            files={"minors-a.mat": format_matrix(A), "minors-b.mat": format_matrix(B)},
            commands=(
                ("analyze", "{dir}/minors-a.mat", "--minor", "best", "--ordering", "exhaustive"),
                ("analyze", "{dir}/minors-b.mat", "--minor", "first"),
            ),
            csv={},
            inputs={"minors-a.mat": _describe(A), "minors-b.mat": _describe(B)},
            rank={1: 3},
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
