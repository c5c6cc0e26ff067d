"""Command line front end: analyze, density, verify, example.

Data (CSV) goes to stdout or --out; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 parse error, invalid option or a
number beyond floating-point range, 3 zero matrix, 4 minor search budget
exceeded, 5 quadrature cost guard exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import AnalyzeOptions, BoundReport, analyze
from .density import (
    DensityCurve,
    InsufficientDataError,
    TorusGrid,
    alpha_fit,
    default_fit_window,
    matrix_density,
)
from .matrices import MinorSearchCapExceeded, PolyMatrix, ZeroMatrixError
from .parsing import ParseError, format_poly, parse_matrix, parse_poly

DEFAULT_MAX_POINTS = 10**8

EXAMPLE_MATRIX_TEXT = "[[z1^3, -1, 1], [2*z1*z2^2 - 16, z2, z1*z2]]"


class CostGuardExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    input_path: str | None = None
    grid_n: int = 500
    lattice_total: int | None = None
    lambda_min: float | None = None
    lambda_max: float | None = None
    lambda_count: int = 64
    log_spaced: bool = True
    ordering_mode: str = "fixed"
    minor_mode: str = "first"
    minor_cap: int = 10**6
    workers: int = 1
    out_path: str | None = None
    c_bnd: float = 4.0
    bound_scale: float = 1.0
    seed: int = 0
    max_points: int = DEFAULT_MAX_POINTS


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


def _grid_for(cfg: RunConfig, dim: int) -> TorusGrid:
    if cfg.lattice_total is not None:
        grid = TorusGrid.lattice(dim, cfg.lattice_total, cfg.seed)
    else:
        grid = TorusGrid.midpoint(dim, cfg.grid_n)
    if grid.total > cfg.max_points:
        raise CostGuardExceeded(
            f"grid has {grid.total} points, beyond the cap of {cfg.max_points}"
        )
    return grid


def _lambda_grid(cfg: RunConfig, report: BoundReport) -> list[float]:
    scale = report.params.lead_abs
    lo = cfg.lambda_min if cfg.lambda_min is not None else 1e-4 * scale
    hi = cfg.lambda_max if cfg.lambda_max is not None else scale
    if hi <= 0 or hi < lo:
        raise ValueError(f"bad lambda range [{lo}, {hi}]")
    if cfg.log_spaced:
        if lo <= 0:
            raise ValueError("log-spaced lambda grids need lambda-min > 0")
        return np.geomspace(lo, hi, cfg.lambda_count).tolist()
    return np.linspace(lo, hi, cfg.lambda_count).tolist()


def _format_ordering(order: tuple[int, ...]) -> str:
    return "(" + ", ".join(f"z{i + 1}" for i in order) + ")"


def _format_index_set(ix: tuple[int, ...]) -> str:
    return "{" + ", ".join(str(i + 1) for i in ix) + "}"


def _print_report(report: BoundReport, out=None) -> None:
    out = out if out is not None else sys.stdout
    p = report.params
    print(f"matrix: {report.rows}x{report.cols} over {report.dim} variable(s)", file=out)
    print(f"k = {report.k}", file=out)
    print(f"rows I = {_format_index_set(report.minor.row_set)}", file=out)
    print(f"cols J = {_format_index_set(report.minor.col_set)}", file=out)
    print(f"det(B) = {format_poly(report.minor.det)}", file=out)
    print(
        f"ordering = {_format_ordering(report.profile.order)} [{report.ordering_mode},"
        f" minor mode {report.minor_mode}]",
        file=out,
    )
    tower = ", ".join(f"p_{i} = {format_poly(q)}" for i, q in enumerate(report.profile.tower))
    print(f"width tower: {tower}", file=out)
    print(f"widths = {report.profile.widths}, wd = {p.wd}", file=out)
    print(f"lead = {format_poly(report.profile.tower[-1])}, |lead| = {p.lead_abs:.17g}", file=out)
    print(f"||B||_1 = {p.b_l1:.17g}", file=out)
    if report.is_step:
        print(
            f"det(B) is a monomial: its density is a step at |lead| = "
            f"{report.step_threshold:.17g}",
            file=out,
        )
        print(
            "matrix-level guarantee: F - F(0) = 0 for lambda < "
            f"{report.step_threshold_matrix:.17g}"
            f" (threshold |lead| / (k^2*||B||_1)^(k-1))",
            file=out,
        )
        print("alpha: infinite-type", file=out)
    else:
        print(
            f"bound: F - F(0) <= {report.coefficient:.17g} * lambda^{report.exponent:g}"
            f" (display value clipped at k = {report.k})",
            file=out,
        )
        print(f"alpha >= {report.alpha_lower:.17g}", file=out)
    print(f"f_zero = F(0) = {report.f_zero}", file=out)


def _write_csv(
    rows: list[tuple[float, float, int, float, float]], out_path: str | None
) -> None:
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


def _density_rows(
    curve: DensityCurve, report: BoundReport, bound_scale: float
) -> list[tuple[float, float, int, float, float]]:
    rows = []
    for lam, est in zip(curve.lambdas, curve.estimates):
        bound = report.bound_at(lam) * bound_scale
        margin = bound - (est - curve.f_zero)
        rows.append((lam, est, curve.f_zero, bound, margin))
    return rows


# -- subcommands ------------------------------------------------------------


def cmd_analyze(cfg: RunConfig) -> int:
    A = _read_matrix(cfg.input_path)
    report = analyze(A, AnalyzeOptions(cfg.ordering_mode, cfg.minor_mode, cfg.minor_cap))
    _print_report(report)
    return 0


def cmd_density(cfg: RunConfig) -> int:
    A = _read_matrix(cfg.input_path)
    report = analyze(A, AnalyzeOptions(cfg.ordering_mode, cfg.minor_mode, cfg.minor_cap))
    grid = _grid_for(cfg, A.dim)
    lambdas = _lambda_grid(cfg, report)
    curve = matrix_density(A, report.k, lambdas, grid, cfg.workers)
    _write_csv(_density_rows(curve, report, cfg.bound_scale), cfg.out_path)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    A = _read_matrix(cfg.input_path)
    report = analyze(A, AnalyzeOptions(cfg.ordering_mode, cfg.minor_mode, cfg.minor_cap))
    grid = _grid_for(cfg, A.dim)
    lambdas = _lambda_grid(cfg, report)
    curve = matrix_density(A, report.k, lambdas, grid, cfg.workers)
    rows = _density_rows(curve, report, cfg.bound_scale)
    if cfg.out_path:
        _write_csv(rows, cfg.out_path)
    eps = grid.epsilon_quad(cfg.c_bnd)
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


def cmd_example(cfg: RunConfig) -> int:
    """Run the built-in reference matrix and check every exact invariant."""
    A = parse_matrix(EXAMPLE_MATRIX_TEXT)
    report = analyze(A, AnalyzeOptions())
    checks: list[tuple[str, object, object]] = []
    p16 = parse_poly("z1^3*z2 + 2*z1*z2^2 - 16")
    checks.append(("k", report.k, 2))
    checks.append(("det(B)", format_poly(report.minor.det), format_poly(p16)))
    checks.append(
        ("p_1", format_poly(report.profile.tower[1]), "2*z1")
    )
    checks.append(("wd", report.params.wd, 2))
    checks.append(("lead", format_poly(report.profile.tower[2]), "2"))
    checks.append(("||A||_1", A.l1_norm(), 18.0))
    checks.append(("||B||_1", report.minor.b_l1, 18.0))
    checks.append(("alpha lower bound", report.alpha_lower, 0.25))
    checks.append(("exponent", report.exponent, 0.25))
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
    sp.add_argument("--minor-cap", type=int, default=10**6,
                    help="candidate budget for the minor search (default 10^6)")


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
                    help="worker threads for grid evaluation (default 1)")
    sp.add_argument("--out", default=None, metavar="FILE", help="write CSV here")
    sp.add_argument("--c-bnd", type=float, default=4.0,
                    help="quadrature tolerance constant in c*d/N (default 4)")
    sp.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS,
                    help=f"grid size cost guard (default {DEFAULT_MAX_POINTS})")


def build_parser() -> argparse.ArgumentParser:
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
    v.add_argument("--bound-scale", type=float, default=1.0,
                   help="test hook: scale the bound before comparing (default 1)")

    sub.add_parser("example", help="run the built-in reference example")
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = dict(
        subcommand=args.subcommand,
        input_path=getattr(args, "input", None),
        ordering_mode=getattr(args, "ordering", "fixed"),
        minor_mode=getattr(args, "minor", "first"),
        minor_cap=getattr(args, "minor_cap", 10**6),
    )
    if hasattr(args, "grid"):
        if args.grid < 2:
            raise ValueError("--grid must be at least 2")
        if args.points < 2:
            raise ValueError("--points must be at least 2")
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
        fields.update(
            grid_n=args.grid,
            lattice_total=args.lattice,
            lambda_min=args.lambda_min,
            lambda_max=args.lambda_max,
            lambda_count=args.points,
            log_spaced=not args.linear,
            workers=args.workers,
            out_path=args.out,
            c_bnd=args.c_bnd,
            seed=args.seed,
            max_points=args.max_points,
        )
    if hasattr(args, "bound_scale"):
        fields.update(bound_scale=args.bound_scale)
    return RunConfig(**fields)


_COMMANDS = {
    "analyze": cmd_analyze,
    "density": cmd_density,
    "verify": cmd_verify,
    "example": cmd_example,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.subcommand](cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ZeroMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MinorSearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CostGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
