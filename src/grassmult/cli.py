"""Command line for batch multiplicity work: single queries, full tables,
verification sweeps, and micro-benchmarks.

table --jobs N is checked (an int >= 1) and changes nothing: every sweep
runs in the one process, in cell order.

Exit codes: 0 success, 1 verification found a mismatch, 2 invalid input
(an option the parser refuses included) or output that cannot be
written, 3 requested route not applicable to the pair, 4 n exceeds the
size guard GUARD = 12 (override with --force), 5 internal error (any
exception that no input check raised, such as an exact division that
left a remainder or a value that broke an invariant), 6 out of memory,
130 interrupted (SIGINT), 141 stdout closed by its reader (as by
SIGPIPE). Exits 2 to 6 each write one stderr line and no stdout:
"error: <message>", or "internal error: <Type>: <message>" for exit 5.
"""

from __future__ import annotations

import argparse
import errno
import os
import random
import sys
import time
from collections import deque
from itertools import repeat
from math import comb
from operator import add

from .arith import _Memo, _require_int, binom, factorial_superproduct
from .difference import check_difference_eq, check_shift_identity
from .indices import _require_dims, enumerate_indices, validate
from .matrices import build_shifted_vandermonde_matrix, determinant_bareiss, vandermonde
from .multiplicity import (
    ROUTE_DETERMINANT,
    ROUTES,
    RouteInapplicableError,
    _evaluate,
    _refusal,
    _require_multiplicity,
    _require_pair,
    _sweep,
)

# Largest n a sweep runs without --force; sweeps grow like C(n, d)^2.
GUARD = 12
CSV_HEADER = "n,d,i,j,route,value\n"


_consume = deque(maxlen=0).extend  # runs an iterator to its end, keeping nothing


class GuardExceededError(ValueError):
    """The requested sweep is larger than the size guard allows."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises what it refuses as ValueError, so that
    main reports it as it reports any bad input; its subparsers share the
    class."""

    def error(self, message):
        raise ValueError(message)


# ---------------------------------------------------------------------------
# shared helpers


def _parse_entries(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"could not parse comma separated integers from {text!r}"
        ) from None


def _normalize_routes(route_args) -> tuple[str, ...] | None:
    """The routes that --route options name, each once in ROUTES order, or
    None when no --route is given."""
    if route_args:
        return tuple(r for r in ROUTES if r in route_args or "all" in route_args)
    return None


# A row's text in three parts, by format: a head per i, a tail per (j, route)
# and an end per value. Together they make a CSV line, or the object that
# json.dumps(rows, indent=2) writes for the row (no field needs escaping).
_ROWS = {
    "csv": ("{n},{d},{i},", "{j},{route},", "{}\n"),
    "json": ('  {{\n    "n": {n},\n    "d": {d},\n    "i": "{i}",\n',
             '    "j": "{j}",\n    "route": "{route}",\n    "value": "', '{}"\n  }}'),
}


def _document(chunks: list[str], fmt: str) -> list[str]:
    """Chunks of rows in order as the pieces of one CSV or JSON document.
    A JSON chunk holds its objects joined by ",\\n"; an empty chunk, of an
    index with no rows, adds nothing."""
    if fmt == "csv":
        return [CSV_HEADER, *chunks]
    body = [piece for chunk in chunks if chunk for piece in (",\n", chunk)][1:]
    return ["[\n", *body, "\n]\n"] if body else ["[]\n"]


def _emit(pieces: list[str], out_path: str | None) -> None:
    """Write pieces to stdout, or to out_path through a temp file beside it
    that is moved into place, so the path never holds a partial write. A
    failed write raises ValueError, except that a closed stdout raises
    BrokenPipeError."""
    try:
        if not out_path:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        elif os.path.exists(out_path) and not os.path.isfile(out_path):
            # A device or a pipe is written in place; replacing it would remove it.
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        else:
            tmp = f"{out_path}.{os.getpid()}.tmp"
            fh = open(tmp, "x", encoding="utf-8", newline="")
            try:
                with fh:
                    fh.writelines(pieces)
                os.replace(tmp, out_path)
            except BaseException:
                os.unlink(tmp)
                raise
    except OSError as exc:
        if not out_path:
            # The flush at shutdown goes to devnull, so no second error follows.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                raise
        raise ValueError(f"cannot write {out_path or 'stdout'}: {exc.strerror or exc}") from None


def _check_guard(d: int, n: int, force: bool) -> None:
    _require_dims(d, n)
    if not isinstance(force, bool):
        raise ValueError(f"--force must be True or False, got {force!r}")
    if n > GUARD and not force:
        raise GuardExceededError(
            f"n={n} exceeds the size guard {GUARD}; pass --force to run anyway"
        )


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    i = validate(_parse_entries(args.i), args.n)
    j = validate(_parse_entries(args.j), args.n)
    if j.d != i.d:
        raise ValueError(f"--i and --j must have the same length, got {i.d} and {j.d}")
    _require_pair(i, j)
    if not args.route or "all" in args.route:
        routes = tuple(r for r in ROUTES if not _refusal(r, i, j))
    else:
        routes = _normalize_routes(args.route)
        for route in routes:
            if refusal := _refusal(route, i, j):
                raise RouteInapplicableError(refusal)
    values = [_evaluate(r, i, j) for r in routes]
    _require_multiplicity(min(values))
    row = "".join(_ROWS[args.format])
    rows = [row.format(v, n=args.n, d=i.d, i=i, j=j, route=r) for r, v in zip(routes, values)]
    _emit(_document(rows, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# table


def run_table(
    d: int, n: int, routes: tuple[str, ...] = (ROUTE_DETERMINANT,), fmt: str = "csv",
    force: bool = False,
) -> list[str]:
    """The pieces of one CSV or JSON document: for every pair j <= i of
    I(d, n), lexicographic by i then j, one row per requested route that
    covers the pair, in route order. A sweep column covers the tail of its
    cell's ranks of its own length, and each value's text is filed under
    the i of that tail, made once per distinct value per call. The sweep
    hands out checked values only: a formula value was checked once, when
    its class was evaluated, and a recurrence column by its least value.
    The sweep runs in this process, in cell order."""
    _check_guard(d, n, force)
    if fmt not in _ROWS:
        raise ValueError(f"--format must be csv or json, got {fmt!r}")
    if not routes or not all(r in ROUTES for r in routes) or len(set(routes)) < len(routes):
        raise ValueError(f"--route needs one or more routes, none unknown or repeated, got {routes!r}")
    names = [str(i) for i in enumerate_indices(d, n)]
    # Each value's text is filed under its i with its (j, route) tail, in
    # cell order. Every j <= i precedes i in rank, so i's rows are all filed
    # once cell i is read: they are rendered then, as one chunk.
    head, tail, end = _ROWS[fmt]
    # filed[r]: tail, text, tail, text, ... of the rows of i = r so far
    filed, chunks, sep = [[] for _ in names], [], "" if fmt == "csv" else ",\n"
    texts = _Memo(end.format)  # each value's text, made once
    cells = _sweep(d, n, range(len(names)), routes)
    for c, (name, (ranks, columns)) in enumerate(zip(names, cells)):
        for route, column in zip(routes, columns):
            # the pairs that column covers: the tail of ranks of its length
            covered = ranks if len(column) == len(ranks) else ranks[len(ranks) - len(column):]
            pairs = zip(repeat(tail.format(j=name, route=route)), map(texts.__getitem__, column))
            _consume(map(list.extend, map(filed.__getitem__, covered), pairs))
        tails, ends, filed[c] = filed[c][::2], filed[c][1::2], None
        first = head.format(n=n, d=d, i=name)
        if tails:  # the head opens i's first row, and sep and the head every other
            tails[0] = first + tails[0]
        chunks.append((sep + first).join(map(add, tails, ends)))
    return _document(chunks, fmt)


def cmd_table(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    routes = _normalize_routes(args.route) or (ROUTE_DETERMINANT,)
    _emit(run_table(args.d, args.n, routes, args.format, args.force), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _difference_eq_case(rng: random.Random) -> bool:
    d = rng.randint(1, 3)
    shifts = tuple(rng.randint(0, 4) for _ in range(d))
    return check_difference_eq(shifts, (-3, 4)).ok


def _shift_identity_case(rng: random.Random) -> bool:
    d = rng.randint(1, 3)
    shifts = tuple(rng.randint(0, 3) for _ in range(d))
    return check_shift_identity(shifts, rng.randint(1, d), (-3, 4)).ok


def _vandermonde_form_case(rng: random.Random) -> bool:
    d = rng.randint(1, 5)
    t = [rng.randint(-8, 8) for _ in range(d)]
    k = [rng.randint(0, 4) for _ in range(d)]
    lhs = vandermonde([a + b for a, b in zip(t, k)])
    rhs = factorial_superproduct(d) * determinant_bareiss(build_shifted_vandermonde_matrix(t, k))
    return lhs == rhs


def _alternating_sum_case(rng: random.Random) -> bool:
    s, t, p = rng.randint(0, 6), rng.randint(-10, 10), rng.randint(1, 6)
    lhs = sum((-1) ** k * binom(s, k) * binom(t + k, p - 1) for k in range(s + 1))
    return lhs == (-1) ** s * binom(t, p - 1 - s)


# (name, one seeded case, cases); the order fixes which cases a seed draws.
_IDENTITY_SUITES = (
    ("difference_eq", _difference_eq_case, 30),
    ("shift_identity", _shift_identity_case, 30),
    ("vandermonde_form", _vandermonde_form_case, 200),
    ("alternating_sum", _alternating_sum_case, 200),
)


def _run_identity_suite(rng: random.Random, name: str, case, cases: int) -> dict:
    failures = sum(1 for _ in range(cases) if not case(rng))
    return {"name": name, "cases": cases, "failures": failures, "passed": failures == 0}


def run_verification(d: int, n: int, seed: int = 0, force: bool = False) -> dict:
    """Check the determinant against every other route that covers the
    pair, on every pair j <= i of I(d, n), then run the seeded random
    identity suites. The report is the dict that verify --format json
    writes. The sweep checks every value to be a multiplicity: a value
    below 1 raises InvariantError. Each route's column is compared whole
    with the tail of the determinant column that it covers, and a cell is
    walked pair by pair only when one differs, so mismatches come by j,
    then i, then route. Like run_table, it refuses n above GUARD unless
    force is set."""
    _check_guard(d, n, force)
    _require_int(seed, "--seed")
    start = time.perf_counter()
    names = [str(i) for i in enumerate_indices(d, n)]
    pairs_checked, mismatches = 0, []
    # ROUTES starts with the determinant, which covers every pair.
    for c, (ranks, (dets, *others)) in enumerate(_sweep(d, n, range(len(names)), ROUTES)):
        pairs_checked += len(ranks)
        if any(column != dets[len(dets) - len(column):] for column in others):
            # A pair that a route does not cover reads None in its column.
            padded = ([None] * (len(dets) - len(column)) + column for column in others)
            for r, det, *values in zip(ranks, dets, *padded):
                for route, value in zip(ROUTES[1:], values):
                    if value is not None and value != det:
                        mismatches.append(dict(
                            i=names[r], j=names[c], route_a=ROUTE_DETERMINANT,
                            value_a=str(det), route_b=route, value_b=str(value),
                        ))
    rng = random.Random(seed)
    identities = [_run_identity_suite(rng, *suite) for suite in _IDENTITY_SUITES]
    return {
        "d": d, "n": n, "seed": seed, "pairs_checked": pairs_checked,
        "mismatches": mismatches, "identities_checked": identities,
        "elapsed_seconds": time.perf_counter() - start,
        "ok": not mismatches and all(item["passed"] for item in identities),
    }


def _render_verify_text(report: dict) -> str:
    identity_bits = " ".join(
        f"{item['name']}={'pass' if item['passed'] else 'FAIL'}"
        for item in report["identities_checked"]
    )
    lines = [
        f"verify d={report['d']} n={report['n']} seed={report['seed']}: "
        f"pairs_checked={report['pairs_checked']} mismatches={len(report['mismatches'])} "
        f"{identity_bits} elapsed={report['elapsed_seconds']:.3f}s "
        f"status={'ok' if report['ok'] else 'FAIL'}"
    ]
    for item in report["mismatches"][:20]:
        lines.append(
            f"  mismatch i={item['i']} j={item['j']}: "
            f"{item['route_a']}={item['value_a']} vs {item['route_b']}={item['value_b']}"
        )
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    report = run_verification(args.d, args.n, args.seed, args.force)
    if args.format == "json":
        import json
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = _render_verify_text(report)
    _emit([text], args.out)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    _check_guard(args.d, args.n, args.force)
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    routes = _normalize_routes(args.route) or ROUTES
    cells = range(comb(args.n, args.d))
    lines = []
    for route in routes:
        start = time.perf_counter()
        for _ in range(args.reps):
            # One route's sweep walks only the pairs that route covers.
            pairs = sum(len(ranks) for ranks, _ in _sweep(args.d, args.n, cells, (route,)))
        elapsed = time.perf_counter() - start
        rate = pairs * args.reps / elapsed if elapsed > 0 else float("inf")
        lines.append(
            f"route={route} pairs={pairs} reps={args.reps} "
            f"seconds={elapsed:.4f} pairs_per_sec={rate:.1f}"
        )
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grassmult",
        description="Exact multiplicities of points on Schubert varieties in Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def route_option(command, help_text):
        command.add_argument("--route", action="append", choices=ROUTES + ("all",), help=help_text)

    compute = sub.add_parser("compute", help="multiplicity of one cell/variety pair")
    compute.add_argument("--n", type=int, required=True, help="ambient bound n")
    compute.add_argument("--i", required=True, help="variety index, comma separated (e.g. 2,4)")
    compute.add_argument("--j", required=True, help="cell index, comma separated")
    route_option(compute, "route to evaluate (repeatable); default: every route applicable to the pair")
    compute.add_argument("--format", choices=("csv", "json"), default="csv")
    compute.add_argument("--out", help="write to this path instead of stdout")
    compute.set_defaults(func=cmd_compute)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--d", type=int, required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--out", help="write to this path instead of stdout")
    sweep.add_argument("--force", action="store_true", help=f"run even when n exceeds {GUARD}")

    table = sub.add_parser("table", parents=[sweep], help="all pairs j <= i for one (d, n)")
    route_option(
        table,
        "repeatable; default: determinant. Pair/route combinations a route does not cover are omitted",
    )
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument(
        "--jobs", type=int, default=1, help="checked (an int >= 1); the sweep always runs in one process"
    )
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", parents=[sweep], help="route equivalence sweep plus identity suites")
    verify.add_argument("--seed", type=int, default=0, help="seed for the random identity suites")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", parents=[sweep], help="wall time per route over the full table")
    route_option(bench, "repeatable; default: all routes")
    bench.add_argument("--reps", type=int, default=1, help="repetitions of the full sweep")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = args.out
        if out == "":  # refused here, as _emit would write it to stdout
            raise ValueError("--out needs a path, got ''")
        if out:
            # A directory, or a path whose directory cannot be reached, is
            # refused before any work, with the line _emit would give after it.
            if os.path.isdir(out):
                raise ValueError(f"cannot write {out}: {os.strerror(errno.EISDIR)}")
            try:
                os.stat(os.path.join(os.path.dirname(out), "."))
            except OSError as exc:
                raise ValueError(f"cannot write {out}: {exc.strerror}") from None
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {GuardExceededError: 4, RouteInapplicableError: 3}.get(type(exc), 2)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 6
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:  # the reader closed stdout
        return 141
    except Exception as exc:  # any other escape is a bug, never bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
