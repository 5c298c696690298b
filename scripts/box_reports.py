"""Print the CheckReports of every box_identities case, one line per case
and a sha256 of those lines after them, twice: first with the package as
it is, then with a wrong binomial coefficient patched in, so that the
second section covers the failure path (witness, lhs and rhs).

    python3 scripts/box_reports.py [SRC]

Each of the 2 500 cases (shifts, q) of perfbench/child.py runs
check_difference_eq(shifts, (-5, 6)) and check_shift_identity(shifts, q,
(-5, 6)) with the package imported from SRC (default: src of this
checkout). The wrong binomial, wrong_binom below, replaces binom in both
grassmult.difference and grassmult.matrices, which covers the box
engine and the pointwise evaluator eval_poly alike. Two checkouts give
equal output when their box checks agree report for report.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def wrong_binom(binom):
    """binom off by one at k = 0 for n = 2 mod 5; the same wrong binomial
    as the failure-path test of tests/test_difference.py."""
    return lambda n, k: binom(n, k) + (k == 0 and n % 5 == 2)


def section() -> None:
    """Print one line per case and the sha256 of those lines."""
    from child import BOX, CASES

    from grassmult import check_difference_eq, check_shift_identity

    digest = hashlib.sha256()
    for shifts, q in CASES:
        reports = (check_difference_eq(shifts, BOX), check_shift_identity(shifts, q, BOX))
        fields = [(r.ok, r.points_checked, r.witness, r.lhs, r.rhs) for r in reports]
        line = f"{shifts} {q} {fields}"
        digest.update(line.encode() + b"\n")
        print(line)
    print(digest.hexdigest())


def main(argv: list[str]) -> int:
    sys.path[:0] = [argv[0] if argv else str(ROOT / "src"), str(ROOT / "perfbench")]
    from grassmult import difference, matrices

    section()
    difference.binom = matrices.binom = wrong_binom(matrices.binom)
    section()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
