"""Command line front end: analyze, density, verify, example.

Data (CSV) goes to stdout or --out; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 parse error, invalid option, a number
beyond floating-point range or a file that cannot be read or written, 3 zero
matrix, 4 minor-search budget exceeded (``--minor best`` only), 5 quadrature
cost guard exceeded (``--max-points`` caps the grid points and the lambda
values alike).  ``main`` returns these codes, except that it lets an
``OSError`` reach its caller; the ``nsbound`` command maps that to exit 2
with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import BoundReport, analyze
from .density import (
    DensityCurve,
    InsufficientDataError,
    TorusGrid,
    alpha_fit,
    default_fit_window,
    matrix_density,
)
from .matrices import (
    DEFAULT_MINOR_CAP,
    MinorSearchCapExceeded,
    PolyMatrix,
    ZeroMatrixError,
)
from .parsing import ParseError, format_poly, parse_matrix, parse_poly

DEFAULT_MAX_POINTS = 10**8

EXAMPLE_MATRIX_TEXT = "[[z1^3, -1, 1], [2*z1*z2^2 - 16, z2, z1*z2]]"

#: One CSV row: lambda, f_hat, f_zero, bound, margin = bound - (f_hat - f_zero).
Row = tuple[float, float, int, float, float]


class CostGuardExceeded(RuntimeError):
    pass


def _read_matrix(path: str) -> PolyMatrix:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".poly"):
        return PolyMatrix([[parse_poly(text)]])
    if path.endswith(".mat"):
        return parse_matrix(text)
    stripped = "".join(
        line.split("#", 1)[0] for line in text.splitlines()
    ).strip()
    if stripped.startswith("["):
        return parse_matrix(text)
    return PolyMatrix([[parse_poly(text)]])


def _grid_for(args: argparse.Namespace, dim: int) -> TorusGrid:
    # the cost guard comes first: it outranks the grids' own size limits
    total = args.grid**dim if args.lattice is None else args.lattice
    if total > args.max_points:
        raise CostGuardExceeded(f"grid has {total} points, beyond the cap of {args.max_points}")
    if args.lattice is not None:
        return TorusGrid.lattice(dim, args.lattice, args.seed)
    return TorusGrid.midpoint(dim, args.grid)


def _lambda_grid(args: argparse.Namespace, report: BoundReport) -> list[float]:
    if args.points > args.max_points:
        raise CostGuardExceeded(f"--points {args.points} is beyond the cap of {args.max_points}")
    for flag, value in (("--lambda-min", args.lambda_min), ("--lambda-max", args.lambda_max)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, not {value}")
    scale = report.lead_abs
    lo = args.lambda_min if args.lambda_min is not None else 1e-4 * scale
    hi = args.lambda_max if args.lambda_max is not None else scale
    if hi <= 0 or hi < lo:
        raise ValueError(f"bad lambda range [{lo}, {hi}]")
    if not args.linear:
        if lo <= 0:
            raise ValueError("log-spaced lambda grids need lambda-min > 0")
        return np.geomspace(lo, hi, args.points).tolist()
    return np.linspace(lo, hi, args.points).tolist()


def _format_ordering(order: tuple[int, ...]) -> str:
    return "(" + ", ".join(f"z{i + 1}" for i in order) + ")"


def _format_index_set(ix: tuple[int, ...]) -> str:
    return "{" + ", ".join(str(i + 1) for i in ix) + "}"


def _print_report(report: BoundReport, args: argparse.Namespace) -> None:
    print(f"matrix: {report.rows}x{report.cols} over {report.dim} variable(s)")
    print(f"k = {report.k}")
    print(f"rows I = {_format_index_set(report.minor.row_set)}")
    print(f"cols J = {_format_index_set(report.minor.col_set)}")
    print(f"det(B) = {format_poly(report.minor.det)}")
    print(
        f"ordering = {_format_ordering(report.profile.order)} [{args.ordering},"
        f" minor mode {args.minor}]"
    )
    tower = ", ".join(f"p_{i} = {format_poly(q)}" for i, q in enumerate(report.profile.tower))
    print(f"width tower: {tower}")
    print(f"widths = {report.profile.widths}, wd = {report.profile.wd}")
    print(f"lead = {format_poly(report.profile.tower[-1])}, |lead| = {report.lead_abs:.17g}")
    print(f"||B||_1 = {report.minor.b_l1:.17g}")
    if report.is_step:
        print(
            f"det(B) is a monomial: its density is a step at |lead| = "
            f"{report.lead_abs:.17g}"
        )
        threshold = "threshold |lead| / (k^2*||B||_1)^(k-1)"
        if report.step_threshold_matrix > 0.0:
            print(
                "matrix-level guarantee: F - F(0) = 0 for lambda < "
                f"{report.step_threshold_matrix:.17g} ({threshold})"
            )
        else:
            print(f"matrix-level guarantee: none ({threshold} underflows to 0)")
        print("alpha: infinite-type")
    else:
        print(
            f"bound: F - F(0) <= {report.coefficient:.17g} * lambda^{report.alpha_lower:g}"
        )
        print(f"alpha >= {report.alpha_lower:.17g}")
    print(f"f_zero = F(0) = {report.f_zero}")


def _write_csv(rows: list[Row], out_path: str | None) -> None:
    lines = ["lambda,f_hat,f_zero,bound,margin"]
    for lam, f_hat, f_zero, bound, margin in rows:
        lines.append(
            f"{lam:.17g},{f_hat:.17g},{f_zero},{bound:.17g},{margin:.17g}"
        )
    data = "\r\n".join(lines) + "\r\n"
    if out_path:
        Path(out_path).write_text(data, encoding="utf-8")
    else:
        sys.stdout.write(data)


def _density_run(
    args: argparse.Namespace,
) -> tuple[BoundReport, TorusGrid, DensityCurve, list[Row]]:
    """Read, analyze, build the grid and lambdas, estimate, and make the rows."""
    A = _read_matrix(args.input)
    report = analyze(A, args.ordering, args.minor, args.minor_cap)
    grid = _grid_for(args, A.dim)
    lambdas = _lambda_grid(args, report)
    curve = matrix_density(A, lambdas, grid)
    rows = []
    for lam, est in zip(curve.lambdas, curve.estimates):
        bound = report.bound_at(lam)
        rows.append((lam, est, curve.f_zero, bound, bound - (est - curve.f_zero)))
    return report, grid, curve, rows


# -- subcommands ------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    A = _read_matrix(args.input)
    _print_report(analyze(A, args.ordering, args.minor, args.minor_cap), args)
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    _, _, _, rows = _density_run(args)
    _write_csv(rows, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report, grid, curve, rows = _density_run(args)
    if args.out:
        _write_csv(rows, args.out)
    eps = grid.epsilon_quad()
    worst = min(r[4] for r in rows)
    ok_bound = worst >= -eps
    print(f"points: {grid.total}, epsilon_quad = {eps:.6g}")
    print(f"worst margin (bound - (f_hat - f_zero)): {worst:.6g}")
    print(f"bound check: {'ok' if ok_bound else 'VIOLATED'}")
    if report.is_step:
        print("alpha: infinite-type (step case); no decay exponent to fit")
        ok_alpha = True
    else:
        try:
            a_hat, r2 = alpha_fit(curve, default_fit_window(curve))
            ok_alpha = a_hat >= report.alpha_lower - 0.05
            print(
                f"alpha fit: {a_hat:.4f} (r^2 = {r2:.4f}) vs lower bound "
                f"{report.alpha_lower:.4f}: {'ok' if ok_alpha else 'VIOLATED'}"
            )
        except InsufficientDataError as exc:
            # An empirical spectral gap: nothing decays in the window, which
            # cannot contradict any positive lower bound on the exponent.
            ok_alpha = True
            print(f"alpha fit: unavailable ({exc}); consistent with alpha >= "
                  f"{report.alpha_lower:.4f}")
    return 0 if (ok_bound and ok_alpha) else 1


def cmd_example(args: argparse.Namespace) -> int:
    """Run the built-in reference matrix and check every exact invariant."""
    A = parse_matrix(EXAMPLE_MATRIX_TEXT)
    report = analyze(A)
    checks: list[tuple[str, object, object]] = []
    p16 = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    checks.append(("k", report.k, 2))
    checks.append(("det(B)", format_poly(report.minor.det), format_poly(p16)))
    checks.append(
        ("p_1", format_poly(report.profile.tower[1]), "2*z1")
    )
    checks.append(("wd", report.profile.wd, 2))
    checks.append(("lead", format_poly(report.profile.tower[2]), "2"))
    checks.append(("||A||_1", A.l1_norm(), 18.0))
    checks.append(("||B||_1", report.minor.b_l1, 18.0))
    checks.append(("alpha lower bound", report.alpha_lower, 0.25))
    checks.append(("f_zero", report.f_zero, 1))
    ok = True
    for name, got, want in checks:
        good = got == want
        ok = ok and good
        print(f"{name}: {got}  (expected {want})  {'ok' if good else 'MISMATCH'}")
    # coefficient^2 * 47 / (192^2 * 2) must be 1 to 1e-12 relative
    ratio = report.coefficient**2 * 47.0 / (192.0**2 * 2.0)
    good = abs(ratio - 1.0) <= 1e-12
    ok = ok and good
    print(
        f"coefficient: {report.coefficient:.17g} "
        f"(coefficient^2*47/(192^2*2) = {ratio:.17g})  {'ok' if good else 'MISMATCH'}"
    )
    print("all exact checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


# -- argument parsing --------------------------------------------------------


def _add_analysis_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--ordering", choices=["fixed", "exhaustive"], default="fixed",
                    help="variable ordering search mode (default fixed)")
    sp.add_argument("--minor", choices=["first", "best"], default="first",
                    help="maximal minor selection mode (default first)")
    sp.add_argument("--minor-cap", type=int, default=DEFAULT_MINOR_CAP,
                    help="candidate budget per minor size for --minor best; exit 4 beyond it"
                    f" (default {DEFAULT_MINOR_CAP})")


def _add_density_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid", type=int, default=500, metavar="N",
                    help="midpoint points per dimension (default 500)")
    sp.add_argument("--lattice", type=int, default=None, metavar="M",
                    help="use a rank-1 lattice with M total points instead")
    sp.add_argument("--seed", type=int, default=0, help="lattice shift seed (default 0)")
    sp.add_argument("--lambda-min", type=float, default=None,
                    help="smallest lambda (default 1e-4 * |lead|)")
    sp.add_argument("--lambda-max", type=float, default=None,
                    help="largest lambda (default |lead|)")
    sp.add_argument("--points", type=int, default=64, metavar="K",
                    help="number of lambda values (default 64)")
    sp.add_argument("--linear", action="store_true",
                    help="linearly spaced lambdas (default log-spaced)")
    sp.add_argument("--workers", type=int, default=1,
                    help="accepted for compatibility and ignored: the grid is"
                    " summed on one thread (must be at least 1)")
    sp.add_argument("--out", default=None, metavar="FILE", help="write CSV here")
    sp.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS,
                    help="cost guard: cap on the grid points and on --points"
                    f" (default {DEFAULT_MAX_POINTS})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a parser per ``main`` call is cyclic garbage."""
    ap = argparse.ArgumentParser(
        prog="nsbound",
        description="Width invariants, spectral density bounds and torus "
        "quadrature for matrices over Laurent polynomial rings.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    a = sub.add_parser("analyze", help="exact invariants and the bound")
    a.add_argument("input", help="a .mat or .poly file")
    _add_analysis_flags(a)

    d = sub.add_parser("density", help="estimate the spectral density (CSV)")
    d.add_argument("input", help="a .mat or .poly file")
    _add_analysis_flags(d)
    _add_density_flags(d)

    v = sub.add_parser("verify", help="check the bound against the estimate")
    v.add_argument("input", help="a .mat or .poly file")
    _add_analysis_flags(v)
    _add_density_flags(v)

    sub.add_parser("example", help="run the built-in reference example")
    return ap


#: Smallest accepted value of each integer option, checked in this order.
_LEAST = {
    "grid": 2, "lattice": 1, "points": 2, "workers": 1, "max_points": 1, "minor_cap": 1, "seed": 0
}

_COMMANDS = {
    "analyze": cmd_analyze,
    "density": cmd_density,
    "verify": cmd_verify,
    "example": cmd_example,
}

#: Exit code of each error by its exact type; any other error exits 2.
_EXIT_CODES = {ZeroMatrixError: 3, MinorSearchCapExceeded: 4, CostGuardExceeded: 5}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, least in _LEAST.items():
            value = getattr(args, name, None)  # None: absent, or --lattice not given
            if value is not None and value < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {least}")
        return _COMMANDS[args.subcommand](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, MinorSearchCapExceeded, CostGuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)


def _console_main() -> int:
    """The ``nsbound`` command: ``main``, with a file error as exit 2."""
    try:
        return main()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(_console_main())
