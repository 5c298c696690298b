"""One benchmark process: a grassmult CLI command or one case of the
box_identities workload, with optional tracing.

    python3 perfbench/child.py --report OUT [--trace] cli ARGS...
    python3 perfbench/child.py --report OUT [--trace] box --seed N [--case K]

``cli`` runs ``grassmult.cli.main(ARGS)`` in this process, so its stdout is
the command's stdout; OUT records the import time of the package, the
wall time of ``main`` and the peak resident set of the process tree.
``box`` runs the library checks for seeded box case number K and records
its wall and CPU time and reports. With --trace every layer function is
wrapped (see tracer.py) and the spans and counts go to OUT.trace, plus one
OUT.trace.w<pid>.json per pool worker.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

BOX = (-5, 6)
BOX_D = 4
SHIFT_MAX = 4


def zero_column(shifts) -> int:
    """Position of the first column that is zero at every point (a shift
    of BOX_D or more), or BOX_D when there is none. Bareiss stops at that
    column, so it sets most of a case's cost."""
    return next((q for q, s in enumerate(shifts) if s >= BOX_D), BOX_D)


def raised(shifts, q: int) -> tuple:
    return shifts[: q - 1] + (shifts[q - 1] + 1,) + shifts[q:]


CASES = tuple(
    (shifts, q)
    for shifts in product(range(SHIFT_MAX + 1), repeat=BOX_D)
    for q in range(1, BOX_D + 1)
)


# About len(CASES) / golden ratio, and coprime to len(CASES).
STEP = 1547


def box_case(seed: int, index: int) -> tuple:
    """Case number index of the seeded box_identities sequence: a shift
    vector from {0..4}^4 and a direction q in 1..4.

    The sequence is a permutation of all 2 500 (shifts, q) cases, so every
    shift vector is drawn equally often. The cases are sorted by where the
    first zero column sits in the shift vector and in the vector the shift
    check raises, ties broken in seeded order, and the sequence walks that
    list from a seeded start in steps of about len / golden ratio (coprime
    to len). Any run of consecutive cases then takes cheap and dear cases
    in about their share of the whole set, so a run's cost depends little
    on the seed.
    """
    rng = random.Random(seed)
    order = sorted(
        CASES,
        key=lambda c: (zero_column(c[0]), zero_column(raised(*c)), rng.random()),
    )
    start = rng.randrange(len(order))
    return order[(start + index * STEP) % len(order)]


def peak_rss_kb() -> int:
    """Peak resident set of this process and of the children it waited for.

    VmHWM covers this process image only; ru_maxrss of RUSAGE_SELF would
    also count the pages of the parent that started this process, which
    stay charged to a child until it calls exec.
    """
    hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
    except OSError:
        pass
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_box(args, grassmult) -> dict:
    shifts, q = box_case(args.seed, args.case)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    reports = [
        grassmult.check_difference_eq(shifts, BOX),
        grassmult.check_shift_identity(shifts, q, BOX),
    ]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return {
        "index": args.case,
        "shifts": shifts,
        "q": q,
        "wall_s": wall,
        "cpu_s": cpu,
        "reports": [[r.ok, r.points_checked] for r in reports],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    box = sub.add_parser("box")
    box.add_argument("--seed", type=int, required=True)
    box.add_argument("--case", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import grassmult
    import grassmult.cli

    report = {"import_s": time.perf_counter() - t0}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.report + ".trace")
        tracer.install()

    rc = 0
    if args.mode == "cli":
        t0 = time.perf_counter()
        try:
            rc = grassmult.cli.main(args.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        report["main_s"] = time.perf_counter() - t0
        sys.stdout.flush()
    else:
        report["op"] = run_box(args, grassmult)
    report["rc"] = rc
    report["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        tracer.write(tracer.path)
    Path(args.report).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
