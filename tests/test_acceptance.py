"""Acceptance gate: ten criteria, each one test, each printing a single
PASS/FAIL line (run with -s to see them). All comparisons are exact
integer equality; there is no tolerance anywhere.
"""

from __future__ import annotations

import random
import subprocess
import sys
from itertools import product

import pytest

from grassmult.arith import binom, factorial_superproduct
from grassmult.difference import check_difference_eq, check_shift_identity
from grassmult.indices import enumerate_indices, leq, validate
from grassmult.matrices import (
    build_shifted_vandermonde_matrix,
    determinant_bareiss,
    determinant_cofactor,
    vandermonde,
)
from grassmult.multiplicity import (
    mult_det,
    mult_product,
    mult_rec,
    mult_sum,
    mult_weyman,
)

SWEEP_MAX_N = 8
BOX = (-5, 6)


def _report(tag: str, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{tag}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """All pairs j <= i for 1 <= d <= n <= 8, with the three always-on
    routes evaluated once each."""
    rows = []
    for n in range(1, SWEEP_MAX_N + 1):
        for d in range(1, n + 1):
            indices = list(enumerate_indices(d, n))
            for j in indices:
                for i in indices:
                    if not leq(j, i):
                        continue
                    rows.append((n, d, i, j, mult_det(i, j), mult_rec(i, j), mult_sum(i, j)))
    return rows


def test_c01_route_equivalence_sweep(sweep):
    mismatches = [row for row in sweep if not (row[4] == row[5] == row[6])]
    _report(
        "C01",
        "determinant == recurrence == sum on every pair, n <= 8",
        not mismatches,
        f"pairs={len(sweep)} mismatches={len(mismatches)}",
    )


def test_c02_diagonal_normalization(sweep):
    diagonal = [row for row in sweep if row[2].entries == row[3].entries]
    bad = [row for row in diagonal if {row[4], row[5], row[6]} != {1}]
    for row in diagonal:
        i = row[2]
        if i.entries[-1] <= i.entries[0] and mult_product(i, i) != 1:
            bad.append(row)
        if i.entries == tuple(range(1, i.d + 1)) and mult_weyman(i) != 1:
            bad.append(row)
    ok = not bad and len(diagonal) == 502
    _report(
        "C02",
        "multiplicity 1 at i == j on every applicable route",
        ok,
        f"diagonal_pairs={len(diagonal)} violations={len(bad)}",
    )


def test_c03_separated_product_form(sweep):
    checked = 0
    bad = 0
    for n, d, i, j, det, _, _ in sweep:
        if j.entries[-1] > i.entries[0]:
            continue
        checked += 1
        quotient, remainder = divmod(vandermonde(i.entries), factorial_superproduct(d))
        if remainder != 0 or quotient != det:
            bad += 1
    witness = mult_product(validate((2, 4), 4), validate((1, 2), 4)) == 2
    _report(
        "C03",
        "separated pairs match the Vandermonde quotient",
        bad == 0 and witness and checked > 0,
        f"pairs={checked} violations={bad} witness_2_4_vs_1_2={'ok' if witness else 'bad'}",
    )


def test_c04_base_cell_determinant_agreement():
    checked = 0
    bad = 0
    n = 9
    for d in range(1, 5):
        base = validate(tuple(range(1, d + 1)), n)
        for i in enumerate_indices(d, n):
            checked += 1
            if mult_weyman(i) != mult_det(i, base):
                bad += 1
    _report(
        "C04",
        "partition-determinant route agrees at the base cell, d <= 4, n <= 9",
        bad == 0 and checked == 255,
        f"indices={checked} violations={bad}",
    )


def _shift_cases_for_difference_eq():
    cases = [(s,) for s in range(5)]
    cases += list(product(range(5), repeat=2))
    cases += list(product(range(5), repeat=3))
    rng = random.Random(8451)
    cases += rng.sample(sorted(product(range(5), repeat=4)), 48)
    return cases


def test_c05_difference_equation_on_boxes():
    cases = _shift_cases_for_difference_eq()
    failures = []
    points = 0
    for shifts in cases:
        report = check_difference_eq(shifts, BOX)
        points += report.points_checked
        if not report.ok:
            failures.append((shifts, report.witness))
    _report(
        "C05",
        "coordinate differences sum to zero on [-5,6]^d",
        not failures and len(cases) >= 200,
        f"cases={len(cases)} points={points} failures={len(failures)}",
    )


def _shift_cases_for_shift_identity():
    cases = [((s,), 1) for s in range(5)]
    for shifts in product(range(5), repeat=2):
        cases += [(shifts, 1), (shifts, 2)]
    rng = random.Random(2297)
    for shifts in rng.sample(sorted(product(range(5), repeat=3)), 64):
        cases += [(shifts, q) for q in (1, 2, 3)]
    for shifts in rng.sample(sorted(product(range(5), repeat=4)), 4):
        cases += [(shifts, q) for q in (1, 2, 3, 4)]
    return cases


def test_c06_shift_identity_on_boxes():
    cases = _shift_cases_for_shift_identity()
    failures = []
    points = 0
    for shifts, q in cases:
        report = check_shift_identity(shifts, q, BOX)
        points += report.points_checked
        if not report.ok:
            failures.append((shifts, q, report.witness))
    _report(
        "C06",
        "difference step equals the raised-shift family on [-5,6]^d",
        not failures and len(cases) >= 200,
        f"cases={len(cases)} points={points} failures={len(failures)}",
    )


def test_c07_identity_suites():
    rng = random.Random(424243)
    vform_failures = 0
    for _ in range(500):
        d = rng.randint(1, 5)
        t = [rng.randint(-8, 8) for _ in range(d)]
        k = [rng.randint(0, 4) for _ in range(d)]
        lhs = vandermonde([a + b for a, b in zip(t, k)])
        rhs = factorial_superproduct(d) * determinant_bareiss(
            build_shifted_vandermonde_matrix(t, k)
        )
        if lhs != rhs:
            vform_failures += 1
    alt_failures = 0
    for _ in range(500):
        s = rng.randint(0, 6)
        t = rng.randint(-10, 10)
        p = rng.randint(1, 6)
        lhs = sum((-1) ** k * binom(s, k) * binom(t + k, p - 1) for k in range(s + 1))
        if lhs != (-1) ** s * binom(t, p - 1 - s):
            alt_failures += 1
    _report(
        "C07",
        "Vandermonde-form and alternating binomial identities, 500 cases each",
        vform_failures == 0 and alt_failures == 0,
        f"vform_failures={vform_failures} alternating_failures={alt_failures}",
    )


def test_c08_integrality_and_positivity(sweep):
    # mult_rec and mult_sum divide through exact_div, which raises on any
    # remainder, so the sweep completing at all certifies integrality;
    # positivity is checked explicitly.
    low = min(min(row[4], row[5], row[6]) for row in sweep)
    _report(
        "C08",
        "every multiplicity over the n <= 8 sweep is an integer >= 1",
        low >= 1,
        f"pairs={len(sweep)} min_value={low}",
    )


def test_c09_determinant_cross_check():
    rng = random.Random(70921)
    bad = 0
    for _ in range(1000):
        order = rng.randint(1, 7)
        rows = [[rng.randint(-99, 99) for _ in range(order)] for _ in range(order)]
        if determinant_bareiss(rows) != determinant_cofactor(rows):
            bad += 1
    _report(
        "C09",
        "Bareiss matches cofactor expansion on 1000 random matrices",
        bad == 0,
        f"matrices=1000 mismatches={bad}",
    )


def test_c10_cli_contract(cli_env):
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "grassmult", *argv],
            capture_output=True,
            env=cli_env,
        )

    verify = run("verify", "--d", "2", "--n", "6")
    verify_ok = verify.returncode == 0 and b"pairs_checked=105" in verify.stdout

    bad_pair = run("compute", "--n", "4", "--i", "2,3", "--j", "1,4")
    bad_pair_ok = (
        bad_pair.returncode == 2
        and b"cell not contained in variety" in bad_pair.stderr
    )

    table_args = ("table", "--d", "2", "--n", "5", "--route", "all")
    first = run(*table_args)
    second = run(*table_args)
    parallel = run(*table_args, "--jobs", "4")
    table_ok = (
        first.returncode == second.returncode == parallel.returncode == 0
        and first.stdout == second.stdout == parallel.stdout
        and len(first.stdout) > 0
    )

    _report(
        "C10",
        "CLI verify/compute exit codes and byte-deterministic tables",
        verify_ok and bad_pair_ok and table_ok,
        f"verify_rc={verify.returncode} bad_pair_rc={bad_pair.returncode} "
        f"table_bytes={len(first.stdout)}",
    )
