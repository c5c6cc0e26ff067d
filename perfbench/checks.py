"""Correctness checks on the outputs of the timed ``main(argv)`` calls.

They run after the timed phase and are not timed.  Each check returns a
list of problems; an empty list means the output is correct.

Sample counts of ``verify`` are checked against an independent
recomputation: the seed commit's quadrature (the same midpoint and rank-1
lattice points, the same counting on the larger gram side) written out
here with numpy, and LAPACK ``eigvalsh`` in place of the program's
eigensolver.  Eigenvalues that sit within rounding of a threshold may be
counted on either side by the two, so counts may differ by
``count_tolerance(points)`` per lambda.  On the reference matrix the counts
are also compared with those the seed commit printed, stored in
``reference/ref-grid1500.json``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from child import run_command
from nsbound import PolyMatrix, determinant_cofactor, parse_matrix, parse_poly

#: Relative sample tolerance on each count, with a floor of two samples.
COUNT_TOLERANCE = 1e-5

#: Points per block of the independent recomputation (bounds its memory).
REFERENCE_CHUNK = 1 << 17

REFERENCE_COUNTS = Path(__file__).resolve().parent / "reference" / "ref-grid1500.json"

#: The paper's invariants of the reference matrix.
REFERENCE_DET = "2*z1*z2^2 + z1^3*z2 - 16"


def count_tolerance(points: int) -> int:
    return max(2, math.ceil(COUNT_TOLERANCE * points))


# -- parsing the program's output ---------------------------------------------


def csv_counts(csv: str, points: int) -> tuple[list[float], list[int]]:
    """Lambdas and integer sample counts of a ``density``/``verify`` CSV."""
    lines = [line for line in csv.splitlines() if line]
    if not lines or lines[0] != "lambda,f_hat,f_zero,bound,margin":
        raise ValueError("CSV header missing")
    lambdas, counts = [], []
    for line in lines[1:]:
        lam, f_hat = line.split(",")[:2]
        lambdas.append(float(lam))
        counts.append(round(float(f_hat) * points))
    return lambdas, counts


def report_fields(stdout: str) -> dict[str, str]:
    """``name = value`` lines of an ``analyze`` report, keyed by name."""
    fields = {}
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            fields[name] = value
    return fields


def _index_set(text: str) -> list[int]:
    return [int(x) - 1 for x in re.findall(r"\d+", text)]


# -- independent quadrature ----------------------------------------------------


def grid_of(argv: list[str]) -> tuple[str, int, int]:
    """(scheme, size, lattice shift seed) of a ``verify`` command line."""
    def flag(name: str, default: int) -> int:
        return int(argv[argv.index(name) + 1]) if name in argv else default

    if "--lattice" in argv:
        return "lattice", flag("--lattice", 0), flag("--seed", 0)
    return "midpoint", flag("--grid", 500), 0


def grid_total(A: PolyMatrix, scheme: str, size: int) -> int:
    return size**A.dim if scheme == "midpoint" else size


def _angles(scheme: str, size: int, dim: int, shift_seed: int, start: int, stop: int):
    idx = np.arange(start, stop, dtype=np.int64)
    if scheme == "midpoint":
        cols = [(idx // size**j % size + 0.5) * (2.0 * math.pi / size) for j in range(dim)]
    else:
        a = max(1, int(size * (math.sqrt(5.0) - 1.0) / 2.0)) | 1
        shift = np.random.default_rng(shift_seed).random(dim)
        cols = [
            2.0 * math.pi * np.mod((idx * pow(a, j, size) % size) / size + shift[j], 1.0)
            for j in range(dim)
        ]
    return np.stack(cols, axis=1)


def reference_counts(
    A: PolyMatrix, scheme: str, size: int, shift_seed: int, lambdas: list[float]
) -> list[int]:
    """Counts of gram eigenvalues <= lambda^2 over all points, on the larger side."""
    total = grid_total(A, scheme, size)
    entries = [
        (
            np.array(list(p.terms), dtype=np.float64).reshape(len(p.terms), A.dim),
            np.array([complex(c) for c in p.terms.values()]),
        )
        for row in A.entries
        for p in row
    ]
    thresholds = np.array([lam * lam for lam in lambdas])
    counts = np.zeros(len(lambdas), dtype=np.int64)
    for start in range(0, total, REFERENCE_CHUNK):
        stop = min(start + REFERENCE_CHUNK, total)
        angles = _angles(scheme, size, A.dim, shift_seed, start, stop)
        values = np.empty((stop - start, A.rows * A.cols), dtype=np.complex128)
        for e, (exps, coeffs) in enumerate(entries):
            values[:, e] = np.exp(1j * (angles @ exps.T)) @ coeffs
        values = values.reshape(-1, A.rows, A.cols)
        if A.rows > A.cols:
            values = values.transpose(0, 2, 1)
        gram = values @ values.conj().transpose(0, 2, 1)
        eig = np.sort(np.linalg.eigvalsh(gram).reshape(-1))
        counts += np.searchsorted(eig, thresholds, side="right")
    extra = abs(A.rows - A.cols) * total
    return [int(c) + extra for c in counts]


# -- the checks ----------------------------------------------------------------


def call_failure(res: dict) -> list[str]:
    """An exception that escaped ``main`` or a non-zero exit code."""
    if res["error"]:
        return ["exception escaped main: " + res["error"].strip().splitlines()[-1]]
    if res["rc"] != 0:
        return [f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"]
    return []


def check_reference_report(stdout: str) -> list[str]:
    """``analyze`` on the reference matrix prints the paper's invariants."""
    f = report_fields(stdout)
    alpha = re.search(r"^alpha >= (\S+)$", stdout, re.M)
    try:
        found = {
            "k": f.get("k") == "2",
            "det(B)": parse_poly(f.get("det(B)", "")) == parse_poly(REFERENCE_DET),
            "widths": f.get("widths", "").endswith(", wd = 2"),
            "lead": f.get("lead", "").split(",")[0] == "2",
            "||B||_1": float(f.get("||B||_1", "nan")) == 18.0,
            "alpha": alpha is not None and float(alpha.group(1)) >= 0.25,
        }
    except ValueError as exc:
        return [f"unreadable reference report ({exc})"]
    return [f"reference {name}: got {f.get(name)!r}" for name, ok in found.items() if not ok]


def check_minor_report(A: PolyMatrix, stdout: str, want_k: int | None, cache: dict) -> list[str]:
    """The printed det(B) is the determinant of the printed submatrix."""
    f = report_fields(stdout)
    try:
        rows, cols = _index_set(f["rows I"]), _index_set(f["cols J"])
        det = parse_poly(f["det(B)"], expected_dim=A.dim)
    except (KeyError, ValueError) as exc:
        return [f"unreadable analyze report ({exc!r})"]
    problems = []
    if want_k is not None and f.get("k") != str(want_k):
        problems.append(f"k = {f.get('k')}, expected {want_k}")
    key = (tuple(rows), tuple(cols))
    if key not in cache:
        cache[key] = determinant_cofactor(A.submatrix(rows, cols))
    if det != cache[key]:
        problems.append(f"det(B) for rows {rows} cols {cols} differs from cofactor expansion")
    return problems


def check_counts(got: list[int], want: list[int], points: int, label: str) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} lambdas, expected {len(want)}"]
    tol = count_tolerance(points)
    worst = max(abs(g - w) for g, w in zip(got, want))
    if worst > tol:
        return [f"{label}: counts differ by up to {worst} samples (tolerance {tol})"]
    return []


def stored_reference_counts() -> list[int]:
    return json.loads(REFERENCE_COUNTS.read_text(encoding="utf-8"))["counts"]


def load_matrix(path: Path) -> PolyMatrix:
    return parse_matrix(path.read_text(encoding="utf-8"))


class Checker:
    """Checks the output of every call of one workload's commands."""

    def __init__(self, wl, work: Path, commands: list[list[str]]):
        self.wl = wl
        self.work = work
        self.commands = commands
        self.first_csv: dict[int, str] = {}
        self.expected: dict[int, tuple[list[int], int]] = {}
        self.det_cache: dict[int, dict] = {}

    def matrix(self, i: int) -> PolyMatrix:
        return load_matrix(Path(self.commands[i][1]))

    def verify_expectation(self, i: int, csv: str) -> tuple[list[int], int]:
        """(independent counts, points) for verify command i, computed once."""
        if i not in self.expected:
            A = self.matrix(i)
            scheme, size, shift_seed = grid_of(self.commands[i])
            points = grid_total(A, scheme, size)
            lambdas, _ = csv_counts(csv, points)
            self.expected[i] = (reference_counts(A, scheme, size, shift_seed, lambdas), points)
        return self.expected[i]

    def problems(self, i: int, res: dict) -> list[str]:
        """What is wrong with the result ``res`` of command i; empty if nothing."""
        found = call_failure(res)
        if found:
            return found
        if self.commands[i][0] == "analyze":
            return check_minor_report(
                self.matrix(i), res["stdout"], self.wl.rank.get(i), self.det_cache.setdefault(i, {})
            )
        csv = res["csv"]
        if csv is None:
            return ["verify wrote no CSV"]
        if csv != self.first_csv.setdefault(i, csv):
            return ["CSV differs from the first sample's"]
        if "bound check: ok" not in res["stdout"]:
            return ["verify did not report 'bound check: ok'"]
        try:
            expected, points = self.verify_expectation(i, csv)
            _, got = csv_counts(csv, points)
        except ValueError as exc:
            return [f"unreadable CSV: {exc}"]
        found = check_counts(got, expected, points, "counts vs independent quadrature")
        if self.wl.name == "ref-grid1500":
            found += check_counts(got, stored_reference_counts(), points, "counts vs seed commit")
        return found

    def extra_calls(self) -> list[tuple[str, list[str]]]:
        """Untimed calls: ``--workers 2`` identity and the paper's invariants."""
        calls = []
        for i, argv in enumerate(self.commands):
            if argv[0] != "verify" or i not in self.first_csv:
                continue
            two = list(argv)
            two[two.index("--workers") + 1] = "2"
            out = str(self.work / "workers2.csv")
            two[two.index("--out") + 1] = out
            calls.append(("--workers 2 (CSV must be bit-identical)",
                          self.problems(i, run_command(two, out))))
        if self.wl.name == "ref-grid1500":
            res = run_command(["analyze", self.commands[0][1]], None)
            found = call_failure(res) or check_reference_report(res["stdout"])
            calls.append(("paper invariants", found))
        return calls
