"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are fixed
here, not tuned at runtime; the heavy criteria state their time budgets and
the tests enforce them.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from nsbound import (
    GaussianRational,
    LaurentPoly,
    PolyMatrix,
    TorusGrid,
    alpha_fit,
    analyze,
    determinant,
    determinant_cofactor,
    format_poly,
    parse_matrix,
    parse_poly,
)
from nsbound.bounds import SPECTRAL_CONSTANT
from nsbound.cli import main
from nsbound.density import hermitian_eigenvalues, matrix_density
from conftest import EXAMPLE_MATRIX_TEXT, arc_measure, random_poly
from lemmas import det_domination_violations, product_violations


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_reference_example_exact(capsys):
    t0 = time.perf_counter()
    code = main(["example"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "all exact checks passed" in out
    # exact symbolic layer, re-checked here independently of the CLI
    rep = analyze(parse_matrix(EXAMPLE_MATRIX_TEXT))
    assert rep.k == 2
    assert format_poly(rep.minor.det) == "2*z1*z2^2 + z1^3*z2 - 16"
    assert rep.profile.tower[1] == parse_poly("2*z1")
    assert rep.profile.wd == 2
    assert rep.profile.lead == GaussianRational(2)
    assert parse_matrix(EXAMPLE_MATRIX_TEXT).l1_norm() == 18.0
    assert rep.minor.b_l1 == 18.0
    assert rep.alpha_lower == 0.25
    assert abs(rep.coefficient**2 * 47.0 / (192.0**2 * 2.0) - 1.0) <= 1e-12
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"reference example reproduced exactly in {elapsed:.3f}s")


def test_criterion_02_universal_constant(capsys):
    assert abs(SPECTRAL_CONSTANT**2 * 47.0 - 192.0) / 192.0 <= 1e-12
    # correct eight-digit enclosure of 8*sqrt(3)/sqrt(47); see the decisions
    # ledger for the discrepant decimal that circulated alongside the exact
    # relation, which the relation itself rules out
    assert 2.0211645 <= SPECTRAL_CONSTANT <= 2.0211647
    with capsys.disabled():
        _report(2, f"constant = {SPECTRAL_CONSTANT!r}, squared relation to 1e-12")


def test_criterion_03_linear_factor_oracle(capsys):
    t0 = time.perf_counter()
    n = 10**6
    grid = TorusGrid.midpoint(1, n)
    lams = np.linspace(0.0, 3.0, 65)[1:].tolist()
    worst_oracle = 0.0
    for a in (Fraction(1, 2), Fraction(1), Fraction(2)):
        p = LaurentPoly.variable(1, 0) - LaurentPoly.const(1, a)
        curve = matrix_density(PolyMatrix([[p]]), lams, grid)
        for lam, est in zip(lams, curve.estimates):
            worst_oracle = max(worst_oracle, abs(est - arc_measure(float(a), lam)))
            assert abs(est - arc_measure(float(a), lam)) <= 2e-3
            assert est <= SPECTRAL_CONSTANT * lam + 4.0 / n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        _report(3, f"arc oracle match (worst {worst_oracle:.2e}) and linear "
                   f"domination at N=1e6 in {elapsed:.1f}s")


def test_criterion_04_width_zero_exact_step(capsys):
    p = parse_poly("5*z1^2*z2^-1")
    for n in (2, 3, 10, 37):
        grid = TorusGrid.midpoint(2, n)
        lams = [4.0, 4.999999999, 5.0, 5.000000001, 7.0]
        curve = matrix_density(PolyMatrix([[p]]), lams, grid)
        assert curve.estimates == (0.0, 0.0, 1.0, 1.0, 1.0)
        assert curve.counts == (0, 0, grid.total, grid.total, grid.total)
    with capsys.disabled():
        _report(4, "monomial density is an exact 0/1 step at |lead| on every grid")


def test_criterion_05_scaling_identity_exact_counts(capsys):
    rng = random.Random(20250805)
    grid = TorusGrid.midpoint(1, 4096)
    checked = 0
    while checked < 100:
        p = random_poly(rng, 1, max_terms=5, exp_range=4)
        c = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )
        if not c:
            continue
        if rng.random() < 0.25:
            # also exercise exactly representable moduli
            c = GaussianRational(Fraction(2) ** rng.randint(-3, 3))
        lams = sorted(rng.uniform(0.01, 5.0) for _ in range(12))
        scaled = matrix_density(PolyMatrix([[p * c]]), lams, grid)
        base = matrix_density(PolyMatrix([[p]]), [x / abs(c) for x in lams], grid)
        assert scaled.counts == base.counts
        checked += 1
    with capsys.disabled():
        _report(5, "100 random (p, c) pairs: sample counts identical integer-for-integer")


def test_criterion_06_product_inequality(capsys):
    t0 = time.perf_counter()
    rng = random.Random(606)
    n = 10**5
    grid = TorusGrid.midpoint(1, n)
    eps = 4.0 * 1 / n
    lams = np.geomspace(1e-3, 2.0, 64).tolist()
    worst = -math.inf
    for _ in range(50):
        q1 = random_poly(rng, 1, max_terms=4, exp_range=3)
        q2 = random_poly(rng, 1, max_terms=4, exp_range=3)
        violation = max(product_violations(q1, q2, 0.5, lams, grid))
        worst = max(worst, violation)
        assert violation <= eps
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(6, f"50 random pairs, worst violation {worst:.2e} <= {eps:.0e} "
                   f"in {elapsed:.1f}s")


def _random_small_coeff(rng) -> GaussianRational:
    return rng.choice(
        [
            GaussianRational(1),
            GaussianRational(-1),
            GaussianRational(2),
            GaussianRational(-2),
            GaussianRational(0, 1),
            GaussianRational(0, -1),
        ]
    )


def test_criterion_07_determinant_domination(capsys):
    t0 = time.perf_counter()
    rng = random.Random(707)
    n = 10**5
    grid = TorusGrid.midpoint(1, n)
    eps = 4.0 / n
    lams = np.geomspace(1e-4, 1.0, 64).tolist()
    done = 0
    worst = -math.inf
    while done < 20:
        def entry():
            terms = {}
            for _ in range(rng.randint(1, 2)):
                terms[(rng.randint(-2, 2),)] = _random_small_coeff(rng)
            return LaurentPoly(1, terms)

        B = PolyMatrix([[entry(), entry()], [entry(), entry()]])
        if determinant(B).is_zero():
            continue
        violation = max(det_domination_violations(B, lams, grid))
        worst = max(worst, violation)
        assert violation <= eps
        done += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(7, f"20 random 2x2 dominations, worst violation {worst:.2e} <= "
                   f"{eps:.0e} in {elapsed:.1f}s")


def test_criterion_08_decay_exponent_tightness(capsys):
    t0 = time.perf_counter()
    n = 10**6
    grid = TorusGrid.midpoint(1, n)
    z = LaurentPoly.variable(1, 0)
    for r in (1, 2, 3):
        p = LaurentPoly.const(1, 1)
        for _ in range(r):
            p = p * (z - 1)
        lams = np.geomspace(1e-5, 1e-2, 48).tolist()
        curve = matrix_density(PolyMatrix([[p]]), lams, grid)
        a_hat, r2 = alpha_fit(curve, (1e-5, 1e-2))
        assert abs(a_hat - 1.0 / r) <= 0.05, (r, a_hat)
        assert r2 >= 0.99, (r, r2)
        assert analyze(PolyMatrix([[p]])).alpha_lower == 1.0 / r
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        _report(8, f"decay exponents 1, 1/2, 1/3 recovered within 0.05 "
                   f"(r^2 >= 0.99) in {elapsed:.1f}s")


def test_criterion_09_main_bound_verification(capsys, tmp_path):
    t0 = time.perf_counter()
    mat_file = tmp_path / "reference.mat"
    mat_file.write_text(EXAMPLE_MATRIX_TEXT)
    csv_file = tmp_path / "curve.csv"
    code = main(
        [
            "verify",
            str(mat_file),
            "--grid",
            "1500",
            "--lambda-min",
            "1e-4",
            "--lambda-max",
            "1",
            "--points",
            "64",
            "--out",
            str(csv_file),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    rows = [
        line.split(",") for line in csv_file.read_text().strip().splitlines()[1:]
    ]
    assert len(rows) == 64
    eps = 4.0 * 2 / 1500
    coeff = 192.0 * math.sqrt(2.0) / math.sqrt(47.0)
    for lam_s, f_hat_s, f_zero_s, bound_s, margin_s in rows:
        lam, f_hat = float(lam_s), float(f_hat_s)
        assert f_zero_s == "1"
        assert f_hat - 1.0 <= coeff * lam**0.25 + eps
        assert float(margin_s) >= -eps
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    with capsys.disabled():
        _report(9, f"bound verified on 2.25e6 grid points, verify exit 0, "
                   f"in {elapsed:.1f}s")


def test_criterion_10_determinant_oracle(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(200):
        A = PolyMatrix(
            [
                [
                    random_poly(rng, 2, max_terms=2, exp_range=2, nonzero=False)
                    for _ in range(4)
                ]
                for _ in range(4)
            ]
        )
        assert determinant(A) == determinant_cofactor(A)
    zero = LaurentPoly.zero(1)
    for _ in range(100):
        A = PolyMatrix(
            [
                [random_poly(rng, 1, max_terms=2, exp_range=2, nonzero=False) for _ in range(3)]
                for _ in range(3)
            ]
        )
        B = PolyMatrix(
            [
                [random_poly(rng, 1, max_terms=2, exp_range=2, nonzero=False) for _ in range(3)]
                for _ in range(3)
            ]
        )
        AB = PolyMatrix(
            [
                [sum((A[i, t] * B[t, j] for t in range(3)), zero) for j in range(3)]
                for i in range(3)
            ]
        )
        assert determinant_cofactor(AB) == determinant_cofactor(A) * determinant_cofactor(B)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(10, f"200 sweep/cofactor agreements and 100 multiplicativity "
                    f"identities, exact, in {elapsed:.1f}s")


def test_criterion_11_eigensolver(capsys):
    rng = np.random.default_rng(1111)
    total = 0
    while total < 500:
        m = int(rng.integers(1, 7))
        batch = min(50, 500 - total)
        G = rng.normal(size=(batch, m, m)) + 1j * rng.normal(size=(batch, m, m))
        H = G @ np.conj(np.swapaxes(G, 1, 2))
        eig = hermitian_eigenvalues(H)
        traces = np.einsum("bii->b", H).real
        frob2 = (np.abs(H) ** 2).sum(axis=(1, 2))
        assert np.all(
            np.abs(eig.sum(axis=1) - traces) <= 1e-10 * np.abs(traces)
        )
        assert np.all(np.abs((eig**2).sum(axis=1) - frob2) <= 1e-10 * frob2)
        if m == 2:
            ref = np.linalg.eigvalsh(H)
            scale = np.maximum(1.0, np.abs(ref[:, 1:]))
            assert np.all(np.abs(eig - ref) <= 1e-10 * scale)
        total += batch
    with capsys.disabled():
        _report(11, "500 eigen solves: trace and Frobenius identities to 1e-10 "
                    "and 2x2 agreement with LAPACK eigvalsh")


def test_criterion_12_parser_round_trip_and_pipeline(capsys, tmp_path):
    rng = random.Random(1212)
    for _ in range(1000):
        dim = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(0, 10)):
            exp = tuple(rng.randint(-9, 9) for _ in range(dim))
            terms[exp] = GaussianRational(
                Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4)),
                Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4)),
            )
        p = LaurentPoly(dim, terms)
        assert parse_poly(format_poly(p), expected_dim=dim) == p
    mat_file = tmp_path / "reference.mat"
    mat_file.write_text("# written by the acceptance suite\n" + EXAMPLE_MATRIX_TEXT)
    A = parse_matrix(mat_file.read_text())
    rep = analyze(A)
    assert rep.k == 2
    assert rep.profile.wd == 2
    assert rep.profile.lead == GaussianRational(2)
    assert rep.minor.b_l1 == 18.0
    assert rep.alpha_lower == 0.25
    assert abs(rep.coefficient**2 * 47.0 / (192.0**2 * 2.0) - 1.0) <= 1e-12
    with capsys.disabled():
        _report(12, "1000 exact round trips; parsed reference file reproduces "
                    "the criterion-1 analysis")
