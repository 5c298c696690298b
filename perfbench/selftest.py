"""Self-test of the benchmark's tracing: exact traced call counts for small
fixed sweeps.

    python3 perfbench/selftest.py

Runs ``table --d 2 --n 6 --route all`` traced with one and with two worker
processes, and one traced box_identities case, and compares every traced
call count with the pinned values below. A wrapper that stops seeing a
function (a new import path, a call through a stored reference, a worker
whose records are lost) changes a count and fails here instead of
reading zero in the benchmark. Exits 0 when all counts match.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer  # noqa: E402

TABLE_ARGV = ["table", "--d", "2", "--n", "6", "--route", "all"]

# 15 indices and 105 pairs for d=2, n=6; 35 pairs are separated
# (product route) and 15 sit on the base cell (weyman route).
TABLE_CALLS = {
    "arith.binom": 732,
    "arith.exact_div": 783,
    "arith.factorial_superproduct": 140,
    "cli._table_rows_for_index": 15,
    "cli.build_parser": 1,
    "cli.cmd_table": 1,
    "cli.main": 1,
    "cli.run_table": 1,
    "indices.enumerate_indices": 16,
    "indices.leq": 785,
    "indices.lower_neighbor_entries": 385,
    "matrices.build_binomial_matrix": 105,
    "matrices.determinant_bareiss": 119,
    "matrices.vandermonde": 210,
    "multiplicity.alternating_vandermonde_sum": 105,
    "multiplicity.frobenius_coordinates": 15,
    "multiplicity.mult_det": 105,
    "multiplicity.mult_product": 35,
    "multiplicity.mult_rec": 105,
    "multiplicity.mult_sum": 105,
    "multiplicity.mult_weyman": 15,
    "multiplicity.s_vector": 210,
}

TABLE_COUNTS = {
    "indices.leq.hits": 665,
    "matrices.build_binomial_matrix.cols": 210,
    "multiplicity.mult_rec.fills": 490,
    "multiplicity.mult_sum.terms": 175,
}

# Case 0 of seed 0, shifts (0, 1, 0, 3) and q = 3: three boxes of
# 13^4 = 28561 determinants, two checks of 12^4 = 20736 points each.
BOX_CALLS = {
    "arith.binom": 624,
    "arith.exact_div": 522,
    "difference.check_difference_eq": 1,
    "difference.check_shift_identity": 1,
    "matrices.determinant_bareiss": 85683,
}

BOX_COUNTS = {
    "difference.evals": 85683,
    "difference.points_checked": 41472,
}


def traced(tmp: Path, name: str, *args: str) -> tuple[bytes, dict]:
    report = str(tmp / f"{name}.json")
    proc = subprocess.run(
        run.child_cmd(report, *args, trace=True),
        capture_output=True, env=run.ENV, cwd=run.ROOT, timeout=120, check=True,
    )
    return proc.stdout, tracer.merge(report + ".trace")


def compare(label: str, got: dict, want: dict) -> list[str]:
    names = sorted(set(got) | set(want))
    return [
        f"{label} {name}: traced {got.get(name, 0)}, pinned {want.get(name, 0)}"
        for name in names
        if got.get(name, 0) != want.get(name, 0)
    ]


def main() -> int:
    errors = []
    plain = subprocess.run(
        run.grassmult(TABLE_ARGV), capture_output=True, env=run.ENV, cwd=run.ROOT,
        timeout=120, check=True,
    ).stdout
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for jobs in ("1", "2"):
            label = f"table jobs={jobs}"
            stdout, trace = traced(Path(tmp), f"table{jobs}", "cli", *TABLE_ARGV, "--jobs", jobs)
            if stdout != plain:
                errors.append(f"{label}: traced stdout differs from the untraced run")
            errors += compare(label, trace["calls"], TABLE_CALLS)
            errors += compare(label, trace["counts"], TABLE_COUNTS)
        _, trace = traced(Path(tmp), "box", "box", "--seed", "0")
        errors += compare("box seed=0", trace["calls"], BOX_CALLS)
        errors += compare("box seed=0", trace["counts"], BOX_COUNTS)
    for line in errors:
        print(line)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
