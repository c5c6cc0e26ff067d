"""Command line behavior: exit codes, report content, CSV contract."""

from __future__ import annotations

import argparse
import gc
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nsbound
from nsbound import format_matrix, parse_matrix
from nsbound.bounds import BoundReport
from nsbound.density import TorusGrid
from nsbound.cli import main

from conftest import (
    EXAMPLE_MATRIX_TEXT,
    RANK3_LEFT,
    RANK3_RIGHT,
    count_entry_norms,
    count_greedy_passes,
    count_kernel_conversions,
    matrix_product,
)
from lemmas import decimal_bound


@pytest.fixture
def example_file(tmp_path):
    f = tmp_path / "example.mat"
    f.write_text("# reference example\n" + EXAMPLE_MATRIX_TEXT + "\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_example(capsys, example_file):
    code, out, err = run(capsys, "analyze", example_file)
    assert code == 0
    report = nsbound.analyze(nsbound.parse_matrix(EXAMPLE_MATRIX_TEXT))
    assert (
        f"bound: F - F(0) <= {report.coefficient:.17g} * lambda^{report.alpha_lower:g}"
        in out.splitlines()
    )
    assert "k = 2" in out
    assert "wd = 2" in out
    assert "||B||_1 = 18" in out
    assert "39.606575856337" in out
    assert "alpha >= 0.25" in out
    assert "det(B) = 2*z1*z2^2 + z1^3*z2 - 16" in out


def test_analyze_step_case(capsys, tmp_path):
    f = tmp_path / "mono.poly"
    f.write_text("(0 - 2i)*z1^3\n")
    code, out, _ = run(capsys, "analyze", str(f))
    assert code == 0
    assert "step" in out
    assert "infinite-type" in out


GOLDEN_ANALYZE_REFERENCE = """\
matrix: 2x3 over 2 variable(s)
k = 2
rows I = {1, 2}
cols J = {1, 2}
det(B) = 2*z1*z2^2 + z1^3*z2 - 16
ordering = (z1, z2) [fixed, minor mode first]
width tower: p_0 = 2*z1*z2^2 + z1^3*z2 - 16, p_1 = 2*z1, p_2 = 2
widths = (2, 0), wd = 2
lead = 2, |lead| = 2
||B||_1 = 18
bound: F - F(0) <= 39.606575856337685 * lambda^0.25
alpha >= 0.25
f_zero = F(0) = 1
"""

GOLDEN_ANALYZE_IDENTITY = """\
matrix: 2x2 over 1 variable(s)
k = 2
rows I = {1, 2}
cols J = {1, 2}
det(B) = 1
ordering = (z1) [fixed, minor mode first]
width tower: p_0 = 1, p_1 = 1
widths = (0,), wd = 0
lead = 1, |lead| = 1
||B||_1 = 1
det(B) is a monomial: its density is a step at |lead| = 1
matrix-level guarantee: F - F(0) = 0 for lambda < 0.25 (threshold |lead| / (k^2*||B||_1)^(k-1))
alpha: infinite-type
f_zero = F(0) = 0
"""

GOLDEN_ANALYZE_BEST_EXHAUSTIVE = """\
matrix: 2x3 over 2 variable(s)
k = 2
rows I = {1, 2}
cols J = {2, 3}
det(B) = -z1*z2 - z2
ordering = (z1, z2) [exhaustive, minor mode best]
width tower: p_0 = -z1*z2 - z2, p_1 = -z1 - 1, p_2 = -1
widths = (0, 1), wd = 1
lead = -1, |lead| = 1
||B||_1 = 1
bound: F - F(0) <= 16.169316884477176 * lambda^0.5
alpha >= 0.5
f_zero = F(0) = 1
"""

GOLDEN_EXAMPLE = """\
k: 2  (expected 2)  ok
det(B): 2*z1*z2^2 + z1^3*z2 - 16  (expected 2*z1*z2^2 + z1^3*z2 - 16)  ok
p_1: 2*z1  (expected 2*z1)  ok
wd: 2  (expected 2)  ok
lead: 2  (expected 2)  ok
||A||_1: 18.0  (expected 18.0)  ok
||B||_1: 18.0  (expected 18.0)  ok
alpha lower bound: 0.25  (expected 0.25)  ok
f_zero: 1  (expected 1)  ok
coefficient: 39.606575856337685 (coefficient^2*47/(192^2*2) = 1.0000000000000009)  ok
all exact checks passed
"""


@pytest.mark.parametrize(
    "text, argv, expected",
    [
        (EXAMPLE_MATRIX_TEXT, ["analyze"], GOLDEN_ANALYZE_REFERENCE),
        ("[[1, 0], [0, 1]]", ["analyze"], GOLDEN_ANALYZE_IDENTITY),
        (None, ["example"], GOLDEN_EXAMPLE),
        (
            EXAMPLE_MATRIX_TEXT,
            ["analyze", "--minor", "best", "--ordering", "exhaustive"],
            GOLDEN_ANALYZE_BEST_EXHAUSTIVE,
        ),
    ],
    ids=["analyze-reference", "analyze-identity", "example", "analyze-best-exhaustive"],
)
def test_report_text_is_pinned(capsys, tmp_path, text, argv, expected):
    # the whole stdout, byte for byte: every number and every line of the report
    if text is not None:
        f = tmp_path / "in.mat"
        f.write_text(text + "\n")
        argv = [*argv, str(f)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


def test_main_builds_its_parser_once(capsys):
    # a parser per call would be cyclic garbage, which survives while gc is off
    def parsers():
        return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

    assert main(["example"]) == 0
    gc.disable()
    try:
        before = parsers()
        assert main(["example"]) == 0
        after = parsers()
    finally:
        gc.enable()
    capsys.readouterr()
    assert after == before


def test_parse_error_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.mat"
    f.write_text("[[z1], [z1, z2]]")
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert out == ""
    assert "ragged" in err


#: one content per kind of input; a comment may hold a bracket
CONTENTS = {
    "matrix": "# reference example\n" + EXAMPLE_MATRIX_TEXT + "\n",
    "polynomial": "# not [[a matrix]]\n(1/2 - 3i)*z1^2*z2^-1 + z2 - 1\n",
    "empty": "# nothing here\n",
}


@pytest.mark.parametrize(
    "argv", [["analyze"], ["verify", "--grid", "8"]], ids=["analyze", "verify"]
)
@pytest.mark.parametrize("kind", CONTENTS)
def test_file_name_does_not_decide_the_input_kind(capsys, tmp_path, argv, kind):
    runs = []
    for name in ["input.mat", "input.poly", "input"]:
        f = tmp_path / name
        f.write_text(CONTENTS[kind])
        runs.append(run(capsys, *argv, str(f)))
    assert runs[0] == runs[1] == runs[2]
    code, out, err = runs[0]
    if kind == "empty":
        assert (code, out) == (2, "") and err.endswith("expected a term, found end of input\n")
    else:
        assert code in (0, 1) and out and err == ""


@pytest.mark.parametrize("minor", ["first", "best"])
def test_tiny_lead_candidate_drops_out_of_the_minor_choice(capsys, tmp_path, minor):
    # J = {2} has |lead| = 10^-400, which underflows; the step minor J = {1} is left
    f = tmp_path / "tiny.mat"
    f.write_text("[[z1, 1/1" + "0" * 400 + " * z1 + 1]]\n")
    code, out, err = run(capsys, "analyze", str(f), "--minor", minor)
    assert code == 0
    assert err == ""
    assert "cols J = {1}\n" in out and "alpha: infinite-type\n" in out


@pytest.mark.parametrize(
    "text, first, best_cols",
    [
        # J = {2}: 10^400*z1 + 1 puts ||B||_1 beyond the float range
        ("[[z1, 1" + "0" * 400 + "*z1 + 1]]\n", (0, ""), "{1}"),
        # J = {2}: k = d*wd = 1 and |lead| = 10^-308, so the coefficient is about 2*10^308
        ("[[z1 + 1, 1/1" + "0" * 308 + "*z1 + 1/1" + "0" * 308 + "]]\n", (0, ""), "{1}"),
        # J = {1, 2}: det(B)'s lead 10^400 does not fit a float; {1, 3} and {2, 3} tie as steps
        ("[[1" + "0" * 200 + "*z1, 0, 1], [0, 1" + "0" * 200 + "*z2, z1]]\n",
         (2, "error: |lead| overflows a float\n"), "{1, 3}"),
    ],
    ids=["huge-norm", "huge-coefficient", "huge-lead"],
)
def test_unboundable_candidates_drop_out_of_the_minor_choice(
    capsys, tmp_path, text, first, best_cols
):
    # --minor first keeps its one candidate's outcome; best bounds the others
    f = tmp_path / "unboundable.mat"
    f.write_text(text)
    code, out, err = run(capsys, "analyze", str(f), "--minor", "first")
    assert (code, err) == first
    code, out, err = run(capsys, "analyze", str(f), "--minor", "best")
    assert (code, err) == (0, "")
    assert f"cols J = {best_cols}\n" in out


#: diag(10^200*z1, 10^200*z2, e): k = 3 and ||B||_1 = 10^200 whatever e is
HUGE_NORM_DIAGONAL = "[[1" + "0" * 200 + "*z1, 0, 0], [0, 1" + "0" * 200 + "*z2, 0], [0, 0, {}]]\n"


@pytest.mark.parametrize(
    "name,text,command,message",
    [
        # the leading coefficient's modulus underflows to zero as a float
        ("tiny.poly", "1/1" + "0" * 400 + " * z1 + 1\n", ["analyze"],
         "leading coefficient modulus underflows to zero"),
        # the entry 10^400*z1 + 1 puts ||B||_1 beyond the float range
        ("huge.mat", "[[1" + "0" * 400 + "*z1 + 1, 1], [z1, 2]]\n", ["analyze"],
         "||B||_1 overflows a float"),
        # the gram entries overflow a float, so no eigenvalue can be trusted
        ("huge-gram.mat", "[[1, 1*z1, 1" + "0" * 200 + "]]\n", ["verify", "--grid", "8"],
         "a gram matrix entry overflows a float"),
        # each part fits a float, but the modulus 1.5*sqrt(2)*10^308 does not
        ("complex.mat", "[[(15" + "0" * 307 + " + 15" + "0" * 307 + " i)*z1 + 1, 1], [1, z2]]\n",
         ["analyze"], "||B||_1 overflows a float"),
        # every entry fits a float, but det(B)'s lead 10^400 does not
        ("huge-lead.mat", "[[1" + "0" * 200 + "*z1, 0], [0, 1" + "0" * 200 + "*z2]]\n",
         ["verify", "--grid", "8"], "|lead| overflows a float"),
        # k = d*wd = 1 and |lead| = 10^-308: the coefficient is C / |lead|, about 2*10^308
        ("huge-bound.poly", "1/1" + "0" * 308 + "*z1 + 1/1" + "0" * 308 + "\n",
         ["analyze"], "the bound coefficient overflows a float"),
        # the entry 10^400*z1 + 1 lies outside B = [[z1]], but the gram evaluates it
        ("huge-entry.mat", "[[z1, 1" + "0" * 400 + "*z1 + 1]]\n", ["verify", "--grid", "8"],
         "a coefficient overflows a float"),
        ("huge-entry.mat", "[[z1, 1" + "0" * 400 + "*z1 + 1]]\n",
         ["density", "--minor", "best", "--grid", "8"], "a coefficient overflows a float"),
    ],
    ids=[
        "tiny-lead", "huge-coefficient", "huge-gram", "complex-norm", "huge-lead", "huge-bound",
        "huge-entry-verify", "huge-entry-density-best",
    ],
)
def test_float_range_exit_2(capsys, tmp_path, name, text, command, message):
    f = tmp_path / name
    f.write_text(text)
    code, out, err = run(capsys, *command, str(f))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, f_above_one",
    [("1/1" + "0" * 300 + "*z1 + 1\n", 1), ("z1 + 1" + "0" * 300 + "\n", 0)],
    ids=["tiny-lead", "huge-constant"],
)
def test_coefficients_far_apart_stay_in_float_range(capsys, tmp_path, text, f_above_one):
    # divided by its lead alone, p would carry a coefficient 10^300, whose
    # square overflows; |p| is 1 or 10^300, up to 1, on the torus
    f = tmp_path / "wide.poly"
    f.write_text(text)
    lams = ["--lambda-min", "0.01", "--lambda-max", "100", "--points", "41"]
    code, out, err = run(capsys, "density", str(f), "--grid", "50", *lams)
    assert (code, err) == (0, "")
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 41
    assert all(f_hat == 0 for lam, f_hat, *_ in rows if lam <= 0.8)
    assert all(f_hat == f_above_one for lam, f_hat, *_ in rows if lam >= 1.25)
    assert run(capsys, "verify", str(f), "--grid", "50")[0] == 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP direction 11: below sigma near 1e-8 * ||A|| the 2x2 count reads float"
    " noise, so the fit sees no decay and reports a false VIOLATED",
)
def test_verify_below_the_float_floor_passes(capsys, tmp_path):
    # sigma_min of [[(z1 - 1)^3, 1], [0, 1]] decays with alpha = 1/3, the bound's exponent
    f = tmp_path / "cube.mat"
    f.write_text("[[z1^3 - 3*z1^2 + 3*z1 - 1, 1], [0, 1]]\n")
    lams = ["--lambda-min", "1e-12", "--lambda-max", "1e-6"]
    code, out, err = run(capsys, "verify", str(f), "--grid", "1000000", *lams)
    assert code == 0, out + err


def test_factor_beyond_the_float_range_still_gives_the_bound(capsys, tmp_path):
    # |lead| = 1 and ||B||_1 = 10^200, so (k^2*||B||_1)^(k-1) / |lead| is near 8.1*10^401,
    # but its cube root times C*k*d*wd, the coefficient, is near 1.7*10^135
    f = tmp_path / "huge-factor.mat"
    f.write_text(HUGE_NORM_DIAGONAL.format("1/1" + "0" * 400 + "*z3 + 1/1" + "0" * 400))
    code, out, err = run(capsys, "analyze", str(f))
    assert (code, err) == (0, "")
    b1 = 1.0000000000000001e200
    assert f"||B||_1 = {b1:.17g}\n" in out and "lead = 1, |lead| = 1\n" in out
    line = next(x for x in out.splitlines() if x.startswith("bound: "))
    assert line.endswith(" * lambda^0.333333")
    got = Decimal(float(line.split()[-3]))
    want, _ = decimal_bound(3, b1, 3, 1, 1.0, 0.0)
    assert want * (1 - Decimal("1e-50")) <= got <= want * (1 + Decimal("1e-12"))


def test_step_threshold_that_underflows_gives_no_guarantee(capsys, tmp_path):
    # det(B) = z1*z2*z3 is a step at |lead| = 1, but |lead| / (9 * 10^200)^2 is 0.0
    f = tmp_path / "tiny-step.mat"
    f.write_text(HUGE_NORM_DIAGONAL.format("1/1" + "0" * 400 + "*z3"))
    code, out, err = run(capsys, "analyze", str(f))
    assert (code, err) == (0, "")
    assert out == """\
matrix: 3x3 over 3 variable(s)
k = 3
rows I = {1, 2, 3}
cols J = {1, 2, 3}
det(B) = z1*z2*z3
ordering = (z1, z2, z3) [fixed, minor mode first]
width tower: p_0 = z1*z2*z3, p_1 = z1*z2, p_2 = z1, p_3 = 1
widths = (0, 0, 0), wd = 0
lead = 1, |lead| = 1
||B||_1 = 1.0000000000000001e+200
det(B) is a monomial: its density is a step at |lead| = 1
matrix-level guarantee: none (threshold |lead| / (k^2*||B||_1)^(k-1) underflows to 0)
alpha: infinite-type
f_zero = F(0) = 0
"""


#: 2x2 grams with an entry near 10^400: coupled, and diagonal with only hi infinite
HUGE_2X2_GRAMS = {
    "coupled": "[[1" + "0" * 200 + "*z1, 1], [1, z2]]\n",
    "uncoupled": "[[1" + "0" * 200 + "*z1, 0], [0, z1*z2 - 1]]\n",
}


@pytest.mark.parametrize("text", HUGE_2X2_GRAMS.values(), ids=HUGE_2X2_GRAMS.keys())
def test_2x2_gram_overflow_exit_2_without_a_warning(capsys, tmp_path, text):
    # the check reads the eigenvalue rows, which the closed form fills quietly
    f = tmp_path / "huge-gram.mat"
    f.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", str(f), "--grid", "8")
    assert [str(w.message) for w in caught] == []
    assert (code, out, err) == (2, "", "error: a gram matrix entry overflows a float\n")


@pytest.mark.parametrize("coefficient", ["1" + "0" * 200, "1" + "0" * 200 + "i"])
def test_coefficient_whose_square_leaves_the_float_range_exit_0(capsys, tmp_path, coefficient):
    # |c| = 10^200 is a float although |c|^2 is not
    f = tmp_path / "big.mat"
    f.write_text(f"[[{coefficient}*z1 + 1]]\n")
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 0
    assert err == ""
    assert "|lead| = 9.9999999999999997e+199" in out
    assert "||B||_1 = 1.0000000000000001e+200" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{tmp}/missing.mat"],
        ["analyze", "{tmp}"],
        ["verify", "{example}", "--grid", "8", "--out", "{tmp}/missing/x.csv"],
    ],
    ids=["missing-input", "directory-input", "unwritable-out"],
)
def test_file_errors_exit_2(tmp_path, example_file, argv):
    # the command maps the OSError; main() itself lets it reach the caller
    argv = [a.format(tmp=tmp_path, example=example_file) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(nsbound.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "nsbound.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(capsys, example_file, workers):
    code, out, err = run(capsys, "verify", example_file, "--grid", "8", "--workers", workers)
    assert code == 2
    assert out == ""
    assert err == "error: --workers must be at least 1\n"


@pytest.mark.parametrize("command", ["density", "verify"])
def test_seed_below_zero_exit_2(capsys, example_file, monkeypatch, command):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(TorusGrid, "lattice", no_grid)
    code, out, err = run(capsys, command, example_file, "--lattice", "1000", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be at least 0\n"


#: Runs main(argv) in a fresh interpreter, then prints its exit code and the
#: imported modules on one last line.
MODULES_SCRIPT = """
import sys
from nsbound.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


_OPTIONAL = {"nsbound._lattice", "nsbound._pcg64", "nsbound._inertia"}


def _loaded_modules(tmp_path, command, text, flags):
    """Runs the command in a fresh interpreter and returns the modules it imported.

    Also checks what every run shares: exit 0, no numpy.random and, whatever
    ``--workers`` says, no executor.
    """
    f = tmp_path / "in.mat"
    f.write_text(text + "\n")
    argv = [command, str(f), *flags, "--out", f"{tmp_path}/x.csv"]
    env = {**os.environ, "PYTHONPATH": str(Path(nsbound.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_SCRIPT, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "nsbound.density" in modules
    assert not [m for m in modules if m.split(".")[0] == "concurrent"]
    assert not [m for m in modules if m == "numpy.random" or m.startswith("numpy.random.")]
    return set(modules)


@pytest.mark.parametrize(
    "command, text, flags, loaded",
    [
        pytest.param(
            "verify", EXAMPLE_MATRIX_TEXT, ["--grid", "50", "--workers", "1"], set(),
            id="midpoint",
        ),
        pytest.param(
            "verify", EXAMPLE_MATRIX_TEXT, ["--grid", "50", "--workers", "4"], set(),
            id="midpoint-workers-4",
        ),
        pytest.param(
            "verify", "[[z1 - z2, 2, z2^-1], [z1*z2, z2 - 3, 1], [z2, z1^2, z1]]",
            ["--grid", "20"], {"nsbound._inertia"}, id="3x3",
        ),
    ],
)
def test_runs_load_only_the_modules_they_use(tmp_path, command, text, flags, loaded):
    # The lattice, its shift and the count by inertia for k >= 3 live in
    # modules of their own, so a run that needs none of them compiles none.
    modules = _loaded_modules(tmp_path, command, text, flags)
    assert _OPTIONAL & modules == loaded


@pytest.mark.parametrize("command", ["density", "verify"])
def test_lattice_runs_never_import_numpy_random(tmp_path, command):
    # The shift is drawn by nsbound._pcg64, so a lattice run loads it and the
    # lattice module, but never numpy.random.
    flags = ["--lattice", "1000", "--seed", "3"]
    modules = _loaded_modules(tmp_path, command, EXAMPLE_MATRIX_TEXT, flags)
    assert _OPTIONAL & modules == {"nsbound._lattice", "nsbound._pcg64"}


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--lambda-max", "inf"),
        ("--lambda-max", "nan"),
        ("--lambda-min", "nan"),
        ("--lambda-min", "-inf"),
    ],
)
def test_non_finite_lambda_exit_2(capsys, example_file, flag, value):
    code, out, err = run(capsys, "verify", example_file, "--grid", "20", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be finite, not {float(value)}\n"


@pytest.mark.parametrize("command", ["density", "verify"])
@pytest.mark.parametrize("lattice", ["0", "-3"])
def test_lattice_below_one_exit_2(capsys, example_file, command, lattice):
    code, out, err = run(capsys, command, example_file, "--lattice", lattice)
    assert code == 2
    assert out == ""
    assert err == "error: --lattice must be at least 1\n"


@pytest.mark.parametrize(
    "size",
    [["--lattice", "3000000000000000000"], ["--grid", "2000000000"]],
    ids=["lattice", "midpoint"],
)
def test_cost_guard_outranks_the_grid_size_limit(capsys, example_file, size):
    # both grids hold 2^61 points or more; the default cap stops them first
    code, out, err = run(capsys, "verify", example_file, *size)
    assert (code, out) == (5, "")
    assert err.startswith("error: grid has ") and "beyond the cap of 100000000" in err
    code, out, err = run(capsys, "verify", example_file, *size, "--max-points", str(10**19))
    assert (code, out) == (2, "")
    assert err.startswith("error: a ") and "fewer than 2^61 points" in err


@pytest.mark.parametrize("command", ["analyze", "density", "verify"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_minor_cap_below_one_exit_2(capsys, example_file, command, cap):
    code, out, err = run(capsys, command, example_file, "--minor-cap", cap)
    assert code == 2
    assert out == ""
    assert err == "error: --minor-cap must be at least 1\n"


@pytest.mark.parametrize("command", ["density", "verify"])
@pytest.mark.parametrize("max_points", ["0", "-5"])
def test_max_points_below_one_exit_2(capsys, example_file, command, max_points):
    code, out, err = run(capsys, command, example_file, "--max-points", max_points)
    assert code == 2
    assert out == ""
    assert err == "error: --max-points must be at least 1\n"


def test_zero_matrix_exit_3(capsys, tmp_path):
    f = tmp_path / "zero.mat"
    f.write_text("[[0, 0], [0, 0]]")
    code, out, err = run(capsys, "analyze", str(f))
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("minor", ["first", "best"])
@pytest.mark.parametrize("command", ["density", "verify"])
@pytest.mark.parametrize("shape", ["reference", "rank3-5x6"])
def test_run_makes_one_greedy_rank_pass(capsys, tmp_path, monkeypatch, shape, command, minor):
    # analyze and matrix_density share the matrix's rank: the reference matrix is
    # full rank, so best mode's sweep needs no pass until matrix_density asks
    A = {
        "reference": parse_matrix(EXAMPLE_MATRIX_TEXT),
        "rank3-5x6": matrix_product(parse_matrix(RANK3_LEFT), parse_matrix(RANK3_RIGHT)),
    }[shape]
    f = tmp_path / "A.mat"
    f.write_text(format_matrix(A))
    passes = count_greedy_passes(monkeypatch)
    code, out, err = run(capsys, command, str(f), "--minor", minor, "--grid", "8")
    assert code in (0, 1) and err == ""
    assert len(passes) == 1


@pytest.mark.parametrize("command", ["density", "verify"])
@pytest.mark.parametrize("shape", ["reference", "rank3-5x6"])
def test_best_minor_run_converts_each_entry_once(capsys, tmp_path, monkeypatch, shape, command):
    # the minor sweep, the rank pass and every ||B||_1 read the kernel and the
    # entry norms the matrix formed when it was parsed
    A = {
        "reference": parse_matrix(EXAMPLE_MATRIX_TEXT),
        "rank3-5x6": matrix_product(parse_matrix(RANK3_LEFT), parse_matrix(RANK3_RIGHT)),
    }[shape]
    f = tmp_path / "A.mat"
    f.write_text(format_matrix(A))
    converted = count_kernel_conversions(monkeypatch)
    normed = count_entry_norms(monkeypatch)
    code, out, err = run(capsys, command, str(f), "--minor", "best", "--grid", "8")
    assert code in (0, 1) and err == ""
    entries = [p for row in A.entries for p in row]
    assert converted == normed == entries


@pytest.fixture
def rank1_file(tmp_path):
    f = tmp_path / "rank1.mat"
    rows = ", ".join("[" + ", ".join("z1" for _ in range(8)) + "]" for _ in range(8))
    f.write_text(f"[{rows}]")
    return str(f)


def test_search_cap_exit_4(capsys, rank1_file):
    code, out, err = run(capsys, "analyze", rank1_file, "--minor", "best", "--minor-cap", "10")
    assert code == 4
    assert out == ""


def test_first_minor_ignores_search_cap(capsys, rank1_file):
    # --minor first enumerates no minors, so no candidate budget applies
    code, out, err = run(capsys, "analyze", rank1_file, "--minor", "first", "--minor-cap", "1")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert "k = 1" in lines
    assert "rows I = {1}" in lines
    assert "cols J = {1}" in lines


def test_cost_guard_exit_5(capsys, example_file):
    code, out, err = run(
        capsys, "density", example_file, "--grid", "20000", "--max-points", "1000000"
    )
    assert code == 5
    assert out == ""


@pytest.mark.parametrize("command", ["density", "verify"])
def test_lambda_count_beyond_the_cost_guard_exit_5(capsys, example_file, command, monkeypatch):
    # 10^12 lambdas would need 8 TB per array; the guard stops them before
    # any lambda array is built
    def refuse(*args, **kwargs):
        raise AssertionError("lambda array built")

    monkeypatch.setattr(np, "geomspace", refuse)
    monkeypatch.setattr(np, "linspace", refuse)
    for spacing in ([], ["--linear"]):
        code, out, err = run(
            capsys, command, example_file, "--grid", "10", "--points", "1000000000000", *spacing
        )
        assert (code, out) == (5, "")
        assert err == "error: --points 1000000000000 is beyond the cap of 100000000\n"
    monkeypatch.undo()
    code, out, err = run(capsys, command, example_file, "--grid", "8", "--points", "65",
                         "--max-points", "64")
    assert (code, out, err) == (5, "", "error: --points 65 is beyond the cap of 64\n")
    code, _, err = run(capsys, "density", example_file, "--grid", "8", "--points", "64",
                       "--max-points", "64")
    assert (code, err) == (0, "")


def test_density_csv_contract(capsys, tmp_path):
    f = tmp_path / "p.poly"
    f.write_text("z1 - 1\n")
    code, out, _ = run(
        capsys,
        "density",
        str(f),
        "--grid",
        "5000",
        "--lambda-min",
        "0.01",
        "--lambda-max",
        "1",
        "--points",
        "16",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].strip() == "lambda,f_hat,f_zero,bound,margin"
    rows = [line.strip().split(",") for line in lines[1:]]
    assert len(rows) == 16
    f_hats = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(f_hats, f_hats[1:]))
    assert all(r[2] == "0" for r in rows)
    margins = [float(r[4]) for r in rows]
    assert all(m >= -4.0 / 5000 for m in margins)


def test_density_default_lambda_range_scales_with_lead(capsys, tmp_path):
    f = tmp_path / "p.poly"
    f.write_text("4*z1 - 4\n")  # lead 4, so the default range is [4e-4, 4]
    code, out, _ = run(capsys, "density", str(f), "--grid", "1000")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 64
    lams = [float(r.split(",")[0]) for r in rows]
    assert lams[0] == pytest.approx(4e-4, rel=1e-6)
    assert lams[-1] == pytest.approx(4.0, rel=1e-6)


def test_density_two_valued_for_unit_variable(capsys, tmp_path):
    f = tmp_path / "z.poly"
    f.write_text("z1\n")
    code, out, _ = run(
        capsys, "density", str(f), "--grid", "100",
        "--lambda-min", "0.5", "--lambda-max", "1.5", "--points", "8", "--linear",
    )
    assert code == 0
    values = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
    assert values == {"0", "1"}


def test_density_of_one_term_poly_is_the_exact_step_at_lead(capsys, tmp_path):
    # the default range ends at |lead| = 5, where |5*z1^2| <= 5 on the whole torus
    f = tmp_path / "m.poly"
    f.write_text("5*z1^2\n")
    code, out, _ = run(capsys, "density", str(f), "--grid", "300")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[-1][:2] == ["5", "1"]
    assert {r[1] for r in rows} == {"0", "1"}


def test_csv_byte_identical_across_workers(tmp_path, example_file, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    common = [
        "density", example_file, "--grid", "40",
        "--lambda-min", "1e-3", "--lambda-max", "1", "--points", "12",
    ]
    assert main(common + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(common + ["--out", str(out2), "--workers", "4"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_linear_factor_ok(capsys, tmp_path):
    f = tmp_path / "p.poly"
    f.write_text("z1 - 1\n")
    code, out, _ = run(
        capsys, "verify", str(f), "--grid", "100000",
        "--lambda-min", "1e-4", "--lambda-max", "1", "--points", "48",
    )
    assert code == 0
    assert "bound check: ok" in out
    assert "alpha fit" in out


def test_verify_violated_bound_fails(capsys, tmp_path, monkeypatch):
    real = BoundReport.bound_at
    monkeypatch.setattr(BoundReport, "bound_at", lambda self, lam: 0.01 * real(self, lam))
    f = tmp_path / "p.poly"
    f.write_text("z1 - 1\n")
    code, out, _ = run(
        capsys, "verify", str(f), "--grid", "20000",
        "--lambda-min", "1e-2", "--lambda-max", "1", "--points", "24",
    )
    assert code == 1
    assert "VIOLATED" in out


@pytest.mark.parametrize("flag", [["--bound-scale", "0.5"], ["--c-bnd", "1"]])
def test_verify_rejects_verdict_loosening_flags(capsys, example_file, flag):
    # the verdict compares the bound itself against the fixed 4*d/N tolerance
    with pytest.raises(SystemExit) as exc:
        main(["verify", example_file, "--grid", "8", *flag])
    assert exc.value.code == 2


def test_verify_spectral_gap_is_consistent(capsys, example_file):
    # the reference matrix has no spectrum in (0, ~1.3), so nothing decays in
    # [1e-4, 1]; verify must report the gap and still exit 0
    code, out, _ = run(
        capsys, "verify", example_file, "--grid", "80",
        "--lambda-min", "1e-4", "--lambda-max", "1", "--points", "24",
    )
    assert code == 0
    assert "bound check: ok" in out
    assert "consistent with alpha" in out


def test_verify_equal_lambdas_not_violated(capsys, tmp_path):
    # --lambda-min = --lambda-max leaves no slope to fit; that is no evidence
    # against the bound, so verify reports the fit unavailable and exits 0
    f = tmp_path / "m.mat"
    f.write_text("[[z1 - 1]]\n")
    code, out, err = run(
        capsys, "verify", str(f), "--grid", "10", "--lambda-min", "1", "--lambda-max", "1",
    )
    assert code == 0
    assert "VIOLATED" not in out
    assert "alpha fit: unavailable (" in out
    assert err == ""


def test_example_command(capsys):
    code, out, _ = run(capsys, "example")
    assert code == 0
    assert "all exact checks passed" in out
    assert "2*z1" in out
    assert "18" in out
    # each invariant is checked once: alpha's lower bound is not repeated
    # under a second name
    names = [line.split(":")[0] for line in out.splitlines()[:-1]]
    assert len(names) == len(set(names)) == 10
    assert "exponent" not in names


# the exit codes that README and the cli module docstring list
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5}
COEFFICIENTS = [str(c) for c in range(1, 10)] + [
    "1" + "0" * 200,
    "1/1" + "0" * 400,
    "3/4i",
    "(1/2 + 3/4i)",
]


@st.composite
def matrix_texts(draw, max_vars=2, exp_range=3, coefficients=COEFFICIENTS):
    nvars = draw(st.integers(1, max_vars))

    def term():
        factors = [draw(st.sampled_from(coefficients))]
        for v in range(1, nvars + 1):
            if draw(st.booleans()):
                factors.append(f"z{v}^{draw(st.integers(-exp_range, exp_range))}")
        return "*".join(factors)

    def entry():
        text = draw(st.sampled_from(["", "-"])) + term()
        for _ in range(draw(st.integers(0, 2))):
            text += draw(st.sampled_from([" + ", " - "])) + term()
        return text

    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    return "[" + ", ".join(
        "[" + ", ".join(entry() for _ in range(cols)) + "]" for _ in range(rows)
    ) + "]"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix_texts(), st.sampled_from(["-1", "0", "1", "2"]))
def test_cli_never_escapes_on_random_small_inputs(tmp_path, text, workers):
    f = tmp_path / "random.mat"
    f.write_text(text)
    assert main(["analyze", str(f)]) in DOCUMENTED_EXIT_CODES
    code = main(["verify", str(f), "--grid", "8", "--workers", workers])
    assert code in DOCUMENTED_EXIT_CODES


#: COEFFICIENTS, with a complex 10^400 and more Fractions
WIDE_COEFFICIENTS = COEFFICIENTS + ["(1" + "0" * 400 + " + 2i)", "7/3", "(2/5 - 1/3i)"]


@st.composite
def cli_argvs(draw, path):
    """One ``main`` argv on ``path``: a command and a draw of its flags."""
    command = draw(st.sampled_from(["analyze", "density", "verify"]))
    argv = [command, path]

    def maybe(flag, values):
        value = draw(st.none() | values)
        if value is not None:
            argv.extend([flag, str(value)])

    maybe("--minor", st.sampled_from(["first", "best"]))
    maybe("--ordering", st.sampled_from(["fixed", "exhaustive"]))
    maybe("--minor-cap", st.integers(1, 40))
    if command != "analyze":
        if draw(st.booleans()):
            argv += ["--grid", str(draw(st.integers(2, 8)))]
        else:
            argv += ["--lattice", str(draw(st.integers(1, 200)))]
            maybe("--seed", st.integers(0, 99))
        maybe("--points", st.integers(2, 16))
        maybe("--lambda-min", st.sampled_from(["0", "5e-324", "1e308"]))
        maybe("--lambda-max", st.sampled_from(["0", "5e-324", "1e308"]))
        maybe("--max-points", st.sampled_from([1, 10, 100, 1000]))
        if draw(st.booleans()):
            argv.append("--linear")
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix_texts(max_vars=3, exp_range=40, coefficients=WIDE_COEFFICIENTS), st.data())
def test_every_failure_is_one_documented_error_line(capsys, tmp_path, text, data):
    # a run that fails prints nothing on stdout and one error line on stderr,
    # never a traceback, whatever the matrix and flags
    f = tmp_path / "random.mat"
    f.write_text(text)
    argv = data.draw(cli_argvs(str(f)))
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit:
        capsys.readouterr()
        return
    assert code in DOCUMENTED_EXIT_CODES
    if code >= 2:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(("error: ", "parse error: "))
