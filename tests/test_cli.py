from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib
import inspect
import json
import os
import pickle
import resource
import shlex
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import grassmult
import grassmult.cli as cli
import grassmult.multiplicity as multiplicity
from grassmult.arith import InexactDivisionError
from grassmult.cli import (
    _render_verify_text,
    build_parser,
    main,
    run_table,
    run_verification,
)


def ignores_sigint(pids):
    """Whether one of pids is a live process whose /proc status shows
    SIGINT ignored."""
    for pid in pids:
        with contextlib.suppress(OSError):
            status = Path(f"/proc/{pid}/status").read_text()
            mask = int(status.split("SigIgn:")[1].split()[0], 16)
            if mask >> (signal.SIGINT - 1) & 1:
                return True
    return False


def memos(calls):
    """The distinct memo dicts that calls recorded by spy were handed, in first-use order."""
    return list({id(args["memo"]): args["memo"] for args, _ in calls}.values())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_all_applicable_routes(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--n", "4", "--i", "2,4", "--j", "1,2"
        )
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "n,d,i,j,route,value"
        routes = [line.split(",")[4] for line in lines[1:]]
        assert routes == ["determinant", "recurrence", "sum", "product", "weyman"]
        for line in lines[1:]:
            assert line.startswith("4,2,2-4,1-2,")
            assert line.endswith(",2")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--n", "4", "--i", "2,4", "--j", "1,2",
            "--route", "determinant", "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert records == [
            {"n": 4, "d": 2, "i": "2-4", "j": "1-2", "route": "determinant", "value": "2"}
        ]

    def test_explicit_routes_canonical_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--n", "4", "--i", "2,4", "--j", "1,2",
            "--route", "sum", "--route", "determinant", "--route", "sum",
        )
        assert code == 0
        routes = [line.split(",")[4] for line in out.splitlines()[1:]]
        assert routes == ["determinant", "sum"]

    def test_equal_indices(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--n", "5", "--i", "1,3", "--j", "1,3")
        assert code == 0
        lines = out.splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["determinant", "recurrence", "sum"]
        assert all(line.endswith(",1") for line in lines)

    def test_inapplicable_route_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys,
            "compute", "--n", "4", "--i", "2,4", "--j", "1,3", "--route", "product",
        )
        assert code == 3
        assert out == ""
        assert err == "error: route 'product' needs j_d <= i_1, got j_d=3 > i_1=2\n"

    def test_weyman_inapplicable(self, capsys):
        code, _, err = run_cli(
            capsys,
            "compute", "--n", "4", "--i", "2,4", "--j", "1,3", "--route", "weyman",
        )
        assert code == 3
        assert err == "error: route 'weyman' is defined only for j = (1..d), got j=1-3\n"

    def test_containment_violation(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--n", "4", "--i", "2,3", "--j", "1,4")
        assert code == 2
        assert "cell not contained in variety" in err

    def test_unparsable_entries(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--n", "4", "--i", "2;4", "--j", "1,2")
        assert code == 2
        assert "could not parse" in err

    def test_length_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--n", "4", "--i", "2,4", "--j", "1")
        assert code == 2
        assert "same length" in err

    def test_invalid_index(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--n", "4", "--i", "4,2", "--j", "1,2")
        assert code == 2
        assert "strictly increasing" in err

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(i, j):
            raise InexactDivisionError("7 is not divisible by 2")

        monkeypatch.setattr(multiplicity, "mult_det", broken)
        code, out, err = run_cli(
            capsys, "compute", "--n", "4", "--i", "2,4", "--j", "1,2", "--route", "determinant"
        )
        assert code == 5
        assert out == ""
        assert err.startswith("internal error:")

    @pytest.mark.parametrize("d, code", [(10, 6), (9, 0)])
    def test_out_of_memory_exit_code(self, cli_env, d, code):
        # The child caps its own address space, then runs the sum route on
        # i = (2, 4, ..., 2d), j = (1, 3, ..., 2d-1): its prefix terms
        # outgrow the cap at d = 10, and d = 9 fits under the same cap.
        child = (
            "import resource, sys\n"
            "from grassmult.cli import main\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (120 * 2**20, hard))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        i, j = range(2, 2 * d + 1, 2), range(1, 2 * d, 2)
        proc = subprocess.run(
            [sys.executable, "-c", child, "compute", "--n", str(2 * d), "--route", "sum",
             "--i", ",".join(map(str, i)), "--j", ",".join(map(str, j))],
            capture_output=True, text=True, env=cli_env, timeout=60,
        )
        assert proc.returncode == code
        if code:
            assert (proc.stdout, proc.stderr) == ("", "error: out of memory\n")
        else:
            row = f"{2 * d},{d},{'-'.join(map(str, i))},{'-'.join(map(str, j))},sum,1"
            assert (proc.stdout, proc.stderr) == (f"n,d,i,j,route,value\n{row}\n", "")

    def test_invalid_record_is_an_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(multiplicity, "mult_det", lambda i, j: 0)
        code, out, err = run_cli(
            capsys, "compute", "--n", "4", "--i", "2,4", "--j", "1,2", "--route", "determinant"
        )
        assert code == 5
        assert out == ""
        assert err == "internal error: multiplicity must be >= 1, got 0\n"


class TestTable:
    def test_single_route_counts(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--d", "1", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.endswith(",1") for line in lines[1:])

    def test_default_route_content(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--d", "2", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 21
        assert "4,2,2-4,1-2,determinant,2" in lines
        assert "\r" not in out

    def test_all_routes_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--d", "2", "--n", "4", "--route", "all")
        assert code == 0
        # 20 pairs x 3 always-on routes, 5 separated pairs, 6 base cells
        assert len(out.splitlines()) == 72

    def test_parallel_merge_keeps_bytes(self, capsys, monkeypatch, spy):
        # Measured with --jobs 1 and 2 before the sweep was dealt by cells.
        forks = spy("_fork_share", cli)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        code, out, _ = run_cli(
            capsys, "table", "--d", "4", "--n", "8", "--route", "all", "--jobs", "3"
        )
        assert code == 0
        # The parent works the first share, and forks a worker for each other.
        assert len(forks) == 2
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "6d29e80ebf78df02cac5a6b57382e2801acd7303e4059cc442b2820574a62edd"
        )

    def test_pool_payloads_hold_no_index_or_dict(self, monkeypatch, spy):
        # A worker's payload is _sweep's arguments, cells by rank: no index
        # object, map or list is handed to a worker. A worker sends back
        # _sweep's ranks and values, ints only, and no text. Three
        # workers write the same bytes as one, in either format.
        def holds(value, kinds):
            if isinstance(value, kinds):
                return True
            return isinstance(value, (tuple, list)) and any(holds(v, kinds) for v in value)

        def leaves(value):
            if isinstance(value, (tuple, list)):
                return [leaf for v in value for leaf in leaves(v)]
            return [value]

        forks, received = spy("_fork_share", cli), spy("load", pickle)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for fmt in ("csv", "json"):
            everything = dict(d=3, n=7, routes=multiplicity.ROUTES, fmt=fmt)
            assert run_table(**everything, jobs=3) == run_table(**everything)
        payloads = [args["payload"] for args, _ in forks]
        assert len(payloads) == 4
        assert not any(holds(p, (grassmult.GrassmannIndex, dict, list)) for p in payloads)
        returned = leaves([cell for _, cell in received])
        assert returned and all(type(leaf) is int for leaf in returned)

    def test_recurrence_fills_each_value_once(self, spy):
        # One lattice of the 35 indices serves every cell; each cell fills
        # the ranks of its up-set once.
        fills = spy("_recurrence", multiplicity)
        run_table(d=3, n=7, routes=("recurrence",))
        assert len(fills) == 35
        assert sum(len(args["ranks"]) for args, _ in fills) == 490
        assert len({id(args["lattice"]) for args, _ in fills}) == 1

    def test_determinant_op_counts(self, op_calls, spy):
        # One mult_det per pair would take 490 Bareiss and 4 410 binom calls.
        # The half minors take none, and hold 24 + 44 memo entries: columns
        # (v, s) and column prefixes of the left and the right half. No memo
        # outlives its sweep, so a second sweep does the same work.
        halves, counts = spy("_half_minors", multiplicity), []
        for _ in range(2):
            run_table(d=3, n=7)
            counts.append((len(op_calls["binom"]), [len(memo) for memo in memos(halves)]))
            op_calls["binom"].clear()
            halves.clear()
        assert op_calls["_bareiss"] == []
        assert counts == [(66, [24, 44])] * 2

    def test_no_containment_check_per_pair(self, op_calls):
        # Each up-set is built above its cell: one walk per cell for any
        # routes, with shift vectors only for the determinant or the sum,
        # and no leq call on any column, against 490 leq calls when each
        # pair is checked.
        for routes, keyed in (
            (("determinant",), True), (("recurrence",), False), (multiplicity.ROUTES, True)
        ):
            run_table(d=3, n=7, routes=routes)
            assert op_calls["leq"] == []
            assert [args["keyed"] for args, _ in op_calls["_walk"]] == [keyed] * 35
            op_calls["_walk"].clear()

    @pytest.mark.parametrize("jobs", ["2"])
    def test_invalid_row_is_an_internal_error(self, capsys, monkeypatch, jobs):
        # Forked workers inherit the patched division. One job takes the
        # path of test_every_sweep_command_checks_its_values[table].
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiplicity, "exact_div", lambda a, b: 0)
        code, out, err = run_cli(
            capsys, "table", "--d", "2", "--n", "4", "--route", "recurrence", "--jobs", jobs
        )
        assert code == 5
        assert out == ""
        assert err == "internal error: multiplicity must be >= 1, got 0\n"

    def test_worker_death_is_an_internal_error(self, capsys, monkeypatch):
        # A worker that ends before it sends all its cells ends the table
        # with exit 5 and its wait status, and leaves no child running.
        parent, recurrence = os.getpid(), multiplicity._recurrence

        def dies_in_the_worker(*args):
            if os.getpid() != parent:
                os._exit(9)
            return recurrence(*args)

        def hung(signum, frame):
            raise TimeoutError("the table still waits for a dead worker")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiplicity, "_recurrence", dies_in_the_worker)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)  # should the parent miss the worker's end
        try:
            result = run_cli(
                capsys, "table", "--d", "3", "--n", "6", "--route", "recurrence", "--jobs", "2"
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result == (
            5, "", "internal error: a --jobs worker ended before it sent all its cells "
            "(wait status 2304, exit code 9)\n",
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("broken", [False, True], ids=["ok", "exact_div-0"])
    def test_workers_leave_no_process_or_descriptor(self, monkeypatch, broken):
        # Every worker is reaped and every pipe closed, when the table is
        # made and when the parent's own share fails first.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if broken:
            monkeypatch.setattr(multiplicity, "exact_div", lambda a, b: 0)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(multiplicity.InvariantError) if broken else contextlib.nullcontext():
            run_table(3, 7, multiplicity.ROUTES, jobs=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == descriptors

    def test_worker_exception_is_raised_in_the_parent(self, capsys, monkeypatch):
        # An exception that ends a forked worker's sweep comes down its pipe
        # and is raised in the parent, which still reaps the worker and
        # closes its pipe. Only the worker's cells break, so the parent's
        # own share cannot fail first.
        parent, recurrence = os.getpid(), multiplicity._recurrence

        def breaks_in_the_worker(*args):
            if os.getpid() != parent:
                raise multiplicity.InvariantError("broken in the worker")
            return recurrence(*args)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiplicity, "_recurrence", breaks_in_the_worker)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        assert run_cli(
            capsys, "table", "--d", "3", "--n", "6", "--route", "recurrence", "--jobs", "2"
        ) == (5, "", "internal error: broken in the worker\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == descriptors

    def test_scope_tested_without_a_message(self, spy):
        # Each route's scope is read once per cell, as its floor, and never
        # per pair. The product and weyman engines take entry tuples: no
        # refusal is formatted and no index is built beyond the 35 cells.
        floors, refusals = spy("_floor", multiplicity), spy("_refusal", multiplicity)
        indices, walks = spy("__init__", grassmult.GrassmannIndex), spy("_walk", multiplicity)
        run_table(d=3, n=7, routes=multiplicity.ROUTES)
        assert Counter(args["route"] for args, _ in floors) == dict.fromkeys(multiplicity.ROUTES, 35)
        assert refusals == []
        assert len(indices) == 35
        # A product-only sweep walks the 28 separated pairs, and a
        # weyman-only sweep the base cell's 35 in one walk; a walk of every
        # up-set takes 490 keys.
        walks.clear()
        run_table(d=3, n=7, routes=("product",))
        assert sum(len(out) for _, out in walks) == 28
        walks.clear()
        run_table(d=3, n=7, routes=("weyman",))
        assert [len(out) for _, out in walks] == [35]

    def test_weyman_sweep_revalidates_nothing(self, spy):
        # The weyman engine builds each partition and each matrix itself, so
        # it reads its Frobenius coordinates and eliminates its matrices
        # unchecked: no entry passes the int rule, at any module binding.
        checks = spy("_require_int")
        for _ in multiplicity._sweep(5, 12, range(792), ("weyman",)):
            pass
        assert checks == []

    def test_product_sweep_revalidates_nothing(self, spy):
        # The product engine takes the walk's entries as they are: the
        # Vandermonde product and 1! ... 4! of the 56 i that its 286 pairs
        # at (5, 12) meet pass no entry through the int rule, at any module
        # binding. Each i is evaluated once, as its value is one class's.
        checks, pairs = spy("_require_int"), spy("_product", multiplicity)
        for _ in multiplicity._sweep(5, 12, range(792), ("product",)):
            pass
        assert (len(checks), len(pairs)) == (0, 56)

    def test_one_shift_vector_per_pair(self, spy):
        # The walk codes each pair's shift vector once, in its key, from
        # one table of n + 1 counts per cell: 280 bisections, against 1 470
        # when each pair's vector is counted on its own. The determinant and
        # sum columns share it. A key is rank * 3**3 + s_1 + 3 s_2 + 9 s_3.
        bisections, walks = spy("bisect_right", multiplicity), spy("_walk", multiplicity)
        run_table(d=3, n=7, routes=("determinant", "sum"))
        indices = list(grassmult.enumerate_indices(3, 7))
        walked = [
            (args["floor"], indices[key // 27], (key % 3, key // 3 % 3, key // 9 % 3))
            for args, out in walks for key in out
        ]
        assert len(bisections) == 35 * 8
        assert len(walked) == 490
        assert all(
            s == multiplicity.s_vector(i, grassmult.validate(floor, 7)) for floor, i, s in walked
        )

    def test_sum_memo_lives_for_one_cell(self, spy):
        # Each class (i, s) is summed once per sweep, so only the 15 cells
        # that meet a new class fill a prefix memo: 236 prefix terms,
        # against 2 044 offset vectors of one Vandermonde product each.
        sums, counts = spy("_vandermonde_sum", multiplicity), []
        for _ in range(2):
            run_table(d=3, n=7, routes=("sum",))
            cells = memos(sums)
            terms = sum(len(prefix) for memo in cells for prefix in memo.values())
            counts.append((len(cells), terms))
            sums.clear()
        assert counts == [(15, 236), (15, 236)]

    @pytest.mark.parametrize("d, n, products, weymans", [(3, 7, 10, 35), (4, 9, 15, 126)])
    def test_product_and_weyman_evaluated_once_per_i(self, spy, d, n, products, weymans):
        # A separated pair's class is (i, 0) and weyman has one cell, so each
        # route evaluates each i it covers once in an all-routes table:
        # product the C(n - d + 1, d) i >= (d, ..., 2d - 1), weyman every i.
        # One call per pair would make 28 and 45 product calls.
        product_calls = spy("_product", multiplicity)
        weyman_calls = spy("_weyman", multiplicity)
        run_table(d=d, n=n, routes=multiplicity.ROUTES)
        for calls, count in ((product_calls, products), (weyman_calls, weymans)):
            assert len({args["entries"] for args, _ in calls}) == len(calls) == count
        assert products == comb(n - d + 1, d) and weymans == comb(n, d)

    @pytest.mark.parametrize("d, n, classes", [(3, 7, 105), (4, 9, 771)])
    def test_each_class_evaluated_once(self, spy, d, n, classes):
        # The determinant and the sum fill their value dicts once per
        # distinct (i, s_vector(i, j)), however many pairs share it.
        cells = list(grassmult.enumerate_indices(d, n))
        expected = {
            (i.entries, multiplicity.s_vector(i, j))
            for j in cells for i in cells if grassmult.leq(j, i)
        }
        assert len(expected) == classes
        half_calls = spy("_half_minors", multiplicity)
        sum_calls = spy("_vandermonde_sum", multiplicity)
        run_table(d=d, n=n, routes=("determinant", "sum"))
        halves = [(args["values"], args["shifts"]) for args, _ in half_calls]
        dets = [(lt + rt, ls + rs) for (lt, ls), (rt, rs) in zip(halves[::2], halves[1::2])]
        sums = [(args["point"], args["shifts"]) for args, _ in sum_calls]
        for fills in (dets, sums):
            assert len(fills) == classes
            assert set(fills) == expected

    def test_values_are_checked_when_made(self, spy):
        # A formula route checks each value once, when its class is
        # evaluated, and the recurrence each column once, by its least
        # value: 105 determinant, 105 sum, 10 product and 35 weyman classes
        # plus 35 recurrence columns at (3, 7), and the 2 416 determinant
        # classes of 32 670 pairs at (4, 11). No check is made per pair.
        checks = spy("_require_multiplicity")
        run_table(3, 7, multiplicity.ROUTES)
        assert len(checks) == 105 + 105 + 10 + 35 + 35
        checks.clear()
        run_table(4, 11)
        assert len(checks) == 2416

    def test_table_det_digest(self):
        # The table_det gate of the layered benchmark.
        out = "".join(run_table(d=4, n=11))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "8a405cd26c88601df1ccdb3b00d1553230bf685418761b399f6d84f3db77e1db"
        )

    def test_table_rec_par_digest(self, monkeypatch):
        # The table_rec_par gate of the layered benchmark, run in one
        # process and with one forked worker beside the parent.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for jobs in (1, 2):
            out = "".join(run_table(d=4, n=10, routes=("recurrence",), jobs=jobs))
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
                "d2c144ed8dc7d17998d56260756c78fe0be06abc57ffe442ef51118ea9de4fbc"
            )

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="--jobs"):
            run_table(d=1, n=3, jobs=0)

    @pytest.mark.parametrize(
        "option, match",
        [
            ({"jobs": 2.0}, "--jobs"), ({"jobs": True}, "--jobs"), ({"fmt": "CSV"}, "--format"),
            ({"routes": ("determinant",) * 2}, "--route"), ({"routes": ("nope",)}, "unknown"),
            ({"force": "no", "n": 13}, "--force"),
        ],
        ids=["float-jobs", "bool-jobs", "upper-format", "repeated-route", "unknown-route", "str-force"],
    )
    def test_rejects_coerced_arguments(self, option, match):
        # A float or bool worker count is refused, never coerced, and so is
        # any format but csv or json, which would otherwise render as json.
        # A repeated route would write each of its rows twice. A force that
        # is not a bool, however truthy, would pass the size guard.
        with pytest.raises(ValueError, match=match):
            run_table(**{"d": 1, "n": 3, **option})

    @pytest.mark.parametrize("routes", [(), ("nope",), ("sum", "sum"), ("determinant", "nope")])
    def test_route_list_refused_before_any_work(self, monkeypatch, spy, routes):
        # The route list is checked once, before the lattice is built or
        # any worker is forked. An empty list would make a table of its
        # header alone.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        lattices, forks = spy("_lattice", multiplicity), spy("_fork_share", cli)
        with pytest.raises(ValueError, match="^--route .*unknown"):
            run_table(3, 7, routes, jobs=2)
        assert lattices == forks == []

    @pytest.mark.parametrize("routes", [(route,) for route in multiplicity.ROUTES] + [multiplicity.ROUTES])
    def test_only_a_recurrence_table_builds_a_lattice(self, spy, routes):
        # The covering moves serve the recurrence alone; a table of the
        # other routes reads the indices from a plain list.
        lattices = spy("_lattice", multiplicity)
        run_table(3, 7, routes)
        assert len(lattices) == ("recurrence" in routes)

    def test_guard_blocks_and_force_overrides(self, capsys):
        code, out, err = run_cli(capsys, "table", "--d", "1", "--n", "13")
        assert code == 4
        assert out == ""
        assert "size guard" in err
        code, out, err = run_cli(capsys, "table", "--d", "1", "--n", "13", "--force")
        assert code == 0
        assert len(out.splitlines()) == 1 + 91

    def test_bad_dims_exit_code(self, capsys):
        # The shape is checked before the size guard: n=13 exits 2, not 4.
        for n in ("3", "13"):
            code, _, err = run_cli(capsys, "table", "--d", "0", "--n", n)
            assert code == 2
            assert "need 1 <= d <= n" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "table", "--d", "1", "--n", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "n,d,i,j,route,value"
        assert len(text.splitlines()) == 4

    def test_out_unwritable(self, capsys, tmp_path):
        target = tmp_path / "missing" / "t.csv"
        code, out, err = run_cli(capsys, "table", "--d", "1", "--n", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert not target.exists()

    def test_out_failed_write_keeps_old_file(self, tmp_path, cli_env):
        target = tmp_path / "table.csv"
        target.write_text("old\n", encoding="utf-8")

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))

        # The table is far larger than the limit, so the write fails partway.
        argv = ["table", "--d", "3", "--n", "7", "--out", str(target)]
        proc = subprocess.run(
            [sys.executable, "-m", "grassmult", *argv],
            capture_output=True, text=True, env=cli_env, preexec_fn=limit_file_size, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_out_pipe_is_written_in_place(self, capsys, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(pipe.read_text("utf-8")), daemon=True
        )
        reader.start()
        code, out, _ = run_cli(capsys, "table", "--d", "1", "--n", "2", "--out", str(pipe))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0
        assert out == ""
        assert received[0].splitlines() == [
            "n,d,i,j,route,value",
            "2,1,1,1,determinant,1",
            "2,1,2,1,determinant,1",
            "2,1,2,2,determinant,1",
        ]
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    @pytest.mark.parametrize("exc, code, err", [
        (MemoryError, 6, "error: out of memory\n"), (KeyboardInterrupt, 130, ""),
    ])
    def test_resource_exits(self, capsys, monkeypatch, exc, code, err):
        def run_table(*args):
            raise exc

        monkeypatch.setattr(grassmult.cli, "run_table", run_table)
        assert run_cli(capsys, "table", "--d", "2", "--n", "4") == (code, "", err)

    def test_sigint_exits_without_traceback(self, cli_env):
        # Ctrl-C reaches the whole process group; the forked workers ignore
        # it and the parent ends the sweep. The signal is sent once the
        # parent has forked its worker and the worker ignores SIGINT, as
        # /proc shows, not after a fixed sleep.
        if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
            pytest.skip("needs /proc's children lists to see the worker")
        proc = subprocess.Popen(
            [sys.executable, "-m", "grassmult", "table", "--d", "6", "--n", "14", "--force",
             "--route", "recurrence", "--jobs", "2"],
            env=cli_env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            deadline = time.monotonic() + 10
            while not ignores_sigint(children.read_text().split()):
                assert time.monotonic() < deadline, "no worker ignoring SIGINT within 10 s"
                time.sleep(0.01)
            assert proc.poll() is None, "the sweep ended before it was interrupted"
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 130
            assert b"Traceback" not in err
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    @pytest.mark.parametrize(
        "env", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"]
    )
    def test_closed_stdout_exits_141(self, cli_env, env):
        # A reader that stops early, as `| head` does, ends the command
        # with 128 + SIGPIPE and nothing on stderr, stdout buffered or not.
        cli_env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "grassmult", "table", "--d", "4", "--n", "10"],
            env={**cli_env, **env}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.read(10) == b"n,d,i,j,ro"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            err = proc.stderr.read()
            assert b"Traceback" not in err and b"Exception ignored" not in err
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("d, n, routes", [
        (4, 9, multiplicity.ROUTES), (4, 10, ("recurrence",)), (4, 11, ("determinant",)),
    ])
    def test_peak_memory_is_bounded_by_the_output(self, monkeypatch, d, n, routes, jobs):
        # The table holds values until an index's rows are complete, then
        # renders them: its peak stays under 3x the output, where rows held
        # as texts until the end peaked near 6x. A worker's cells reach the
        # parent one at a time, as its own share does. The determinant
        # table peaks near 1.3x; filing each row's text in place of its
        # value peaked near 1.75x.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            pieces = run_table(d, n, routes, jobs=jobs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 1.5 if routes == ("determinant",) else 3
        assert peak < bound * len("".join(pieces).encode("utf-8"))

    def test_pool_size_clamps(self, monkeypatch, spy):
        started = spy("_fork_share", cli)
        # The parent is one of the workers, so it forks one process fewer.
        for d, n, jobs, cpus, fork, forks in [
            (2, 5, 4, 2, True, 1),  # at most one worker per CPU
            (1, 2, 3, 8, True, 1),  # at most one worker per cell
            (2, 5, 1, 8, True, 0),  # one job runs in process, with no fork
            (2, 5, 4, 8, False, 0),  # so does any job count where os has no fork
        ]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            if not fork:
                monkeypatch.delattr(os, "fork")
            assert run_table(d, n, jobs=jobs) == run_table(d, n)
            assert len(started) == forks
            started.clear()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("routes", [
        multiplicity.ROUTES, ("determinant",), ("recurrence", "product"), ("sum", "weyman"),
        ("product",),
    ], ids=["all", "determinant", "recurrence_product", "sum_weyman", "product"])
    def test_rows_match_a_reference_renderer(self, monkeypatch, routes, fmt):
        # The table against a document built pair by pair from the library's
        # evaluator and scope, with CSV rows spelled out and JSON written by
        # json.dumps, under one job and two.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for n in range(1, 7):
            for d in range(1, min(n, 3) + 1):
                cells = list(grassmult.enumerate_indices(d, n))
                rows = [
                    dict(n=n, d=d, i=str(i), j=str(j), route=route,
                         value=str(multiplicity._evaluate(route, i, j)))
                    for i in cells for j in cells if grassmult.leq(j, i)
                    for route in routes if multiplicity._refusal(route, i, j) is None
                ]
                if fmt == "csv":
                    expected = "n,d,i,j,route,value\n" + "".join(
                        f"{r['n']},{r['d']},{r['i']},{r['j']},{r['route']},{r['value']}\n"
                        for r in rows
                    )
                else:
                    expected = json.dumps(rows, indent=2) + "\n"
                for jobs in (1, 2):
                    assert "".join(run_table(d, n, routes, fmt, jobs)) == expected, (d, n, jobs)

    def test_json_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--d", "1", "--n", "2", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 3
        assert all(isinstance(r["value"], str) for r in records)


class TestVerify:
    # A report of one mismatch and one failed suite, as run_verification
    # builds it.
    FAILING = dict(
        d=2, n=4, seed=5, pairs_checked=1,
        mismatches=[dict(
            i="2-4", j="1-2", route_a="determinant", value_a="2", route_b="sum", value_b="3",
        )],
        identities_checked=[
            {"name": "alternating_sum", "cases": 200, "failures": 1, "passed": False}
        ],
        elapsed_seconds=0.0, ok=False,
    )

    def test_small_sweep_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n", "4")
        assert code == 0
        first = out.splitlines()[0]
        assert "pairs_checked=20" in first
        assert "mismatches=0" in first
        assert "status=ok" in first

    def test_small_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--d", "2", "--n", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["pairs_checked"] == 20
        assert payload["mismatches"] == []
        names = {item["name"] for item in payload["identities_checked"]}
        assert names == {
            "difference_eq",
            "shift_identity",
            "vandermonde_form",
            "alternating_sum",
        }
        assert all(item["failures"] == 0 for item in payload["identities_checked"])

    def test_run_verification_counts(self):
        assert run_verification(2, 5, seed=1)["pairs_checked"] == 50
        assert run_verification(1, 3, seed=1)["pairs_checked"] == 6

    def test_seed_changes_nothing_but_is_recorded(self):
        a = run_verification(1, 2, seed=7)
        assert a["seed"] == 7
        assert a["ok"] is True

    @pytest.mark.parametrize("seed", [1.5, True, "abc"])
    def test_rejects_a_seed_that_is_not_an_int(self, seed):
        # random.Random would hash any of these and the report echo it.
        with pytest.raises(ValueError, match="--seed"):
            run_verification(1, 3, seed=seed)

    def test_mismatch_renders_fail(self):
        text = _render_verify_text(self.FAILING)
        assert "status=FAIL" in text
        assert "mismatch i=2-4 j=1-2" in text

    def test_json_golden_bytes(self, capsys, monkeypatch):
        # sha256 of the document verify --format json writes: its key order
        # and nesting are output, so a change to how the report is built or
        # written shows here.
        passing = run_verification(3, 6, seed=1)
        passing["elapsed_seconds"] = 0.0
        digests = []
        for report, expected in ((passing, 0), (self.FAILING, 1)):
            monkeypatch.setattr(cli, "run_verification", lambda *args: report)
            code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n", "4", "--format", "json")
            assert code == expected
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert digests == [
            "c379a2db8b96b62adb93df3fb5fdca68608db2f1143ab02ac5ef81453fd3a0a7",
            "fd61c8a9184774c3b688d69895387dd6d8ce67808da9619707235ba1cd65ab7b",
        ]

    def test_single_column_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "1", "--n", "10")
        assert code == 0
        assert "pairs_checked=55" in out
        assert "mismatches=0" in out

    def test_route_table_catches_a_wrong_route(self, monkeypatch):
        true_sum = multiplicity._vandermonde_sum
        monkeypatch.setattr(
            multiplicity, "_vandermonde_sum", lambda memo, s, t: true_sum(memo, s, t) + 1
        )
        report = run_verification(2, 4)
        assert report["ok"] is False
        assert len(report["mismatches"]) == report["pairs_checked"] == 20
        assert {item["route_b"] for item in report["mismatches"]} == {"sum"}

    def test_route_table_catches_a_wrong_determinant(self, monkeypatch):
        # Doubling every half-minor vector makes each determinant 4x. The
        # sum keeps its own values by class, so it disagrees on every pair.
        true_half = multiplicity._half_minors
        monkeypatch.setattr(
            multiplicity, "_half_minors", lambda *args: [2 * m for m in true_half(*args)]
        )
        report = run_verification(2, 4)
        assert report["ok"] is False
        assert report["pairs_checked"] == 20
        by_route = Counter(item["route_b"] for item in report["mismatches"])
        assert by_route["sum"] == by_route["recurrence"] == 20
        assert len({(item["i"], item["j"]) for item in report["mismatches"]}) == 20
        assert all(
            int(item["value_a"]) == 4 * int(item["value_b"]) for item in report["mismatches"]
        )

    def test_mismatch_order_is_pinned(self, monkeypatch):
        # verify prints the first 20 mismatches, so their order is output:
        # by j, then i, then route.
        true_half = multiplicity._half_minors
        monkeypatch.setattr(
            multiplicity, "_half_minors", lambda *args: [2 * m for m in true_half(*args)]
        )
        order = [(m["i"], m["j"], m["route_b"]) for m in run_verification(2, 4)["mismatches"]]
        rec_sum, separated = "recurrence sum", "recurrence sum product"
        base, both = "recurrence sum weyman", "recurrence sum product weyman"
        assert order == [(i, j, route) for i, j, routes in [
            ("1-2", "1-2", base), ("1-3", "1-2", base), ("1-4", "1-2", base),
            ("2-3", "1-2", both), ("2-4", "1-2", both), ("3-4", "1-2", both),
            ("1-3", "1-3", rec_sum),
            ("1-4", "1-3", rec_sum), ("2-3", "1-3", rec_sum), ("2-4", "1-3", rec_sum),
            ("3-4", "1-3", separated), ("1-4", "1-4", rec_sum), ("2-4", "1-4", rec_sum),
            ("3-4", "1-4", rec_sum), ("2-3", "2-3", rec_sum), ("2-4", "2-3", rec_sum),
            ("3-4", "2-3", separated), ("2-4", "2-4", rec_sum), ("3-4", "2-4", rec_sum),
            ("3-4", "3-4", rec_sum),
        ] for route in routes.split()]

    @pytest.mark.parametrize("engine, broken", [
        ("_half_minors", lambda *args: [0]),  # the determinant
    ], ids=["determinant"])
    def test_invalid_value_is_an_internal_error(self, capsys, monkeypatch, engine, broken):
        # A value below 1 breaks an invariant of the code, so it is no
        # verification mismatch: exit 5 and no report. Every route is
        # broken alone, in table and bench, in
        # test_each_route_checks_its_values.
        monkeypatch.setattr(multiplicity, engine, broken)
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--n", "4")
        assert code == 5
        assert out == ""
        assert err == "internal error: multiplicity must be >= 1, got 0\n"

    def test_guard_applies(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--d", "1", "--n", "20")
        assert code == 4
        assert "size guard" in err

    def test_library_call_refuses_a_force_that_is_not_a_bool(self, spy):
        # A truthy force would run the 91 pairs past the size guard.
        sweeps = spy("_sweep")
        with pytest.raises(ValueError, match="--force must be True or False, got 1"):
            run_verification(1, 13, force=1)
        assert sweeps == []

    def test_library_call_checks_the_guard(self, spy):
        # As run_table does: refused before any sweep unless forced.
        sweeps = spy("_sweep")
        with pytest.raises(cli.GuardExceededError, match="size guard"):
            run_verification(1, 13)
        assert sweeps == []
        report = run_verification(1, 13, force=True)
        assert (report["pairs_checked"], report["ok"]) == (91, True)
        assert len(sweeps) == 1


class TestBench:
    def test_default_routes(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--d", "2", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("route=") for line in lines)
        assert all("pairs_per_sec=" in line for line in lines)
        assert "pairs=20" in lines[0]

    def test_pairs_per_route(self, capsys):
        # Each route's sweep counts the pairs it covers: every pair for
        # the first three, the separated pairs for product and the base
        # cell's up-set for weyman.
        code, out, _ = run_cli(capsys, "bench", "--d", "3", "--n", "7")
        assert code == 0
        counts = [line.split()[1] for line in out.splitlines()]
        assert counts == ["pairs=490"] * 3 + ["pairs=28", "pairs=35"]

    def test_reps_validation(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--d", "1", "--n", "2", "--reps", "0")
        assert code == 2
        assert "--reps" in err


@pytest.mark.parametrize("argv", [
    ("bench", "--d", "2", "--n", "4"),
    ("table", "--d", "2", "--n", "4", "--route", "all"),
    ("verify", "--d", "2", "--n", "4"),
], ids=lambda argv: argv[0])
def test_every_sweep_command_checks_its_values(capsys, monkeypatch, argv):
    # The sweep checks every value it hands out: a formula value once, when
    # its class is evaluated, and a recurrence column by its least value.
    # So bench, which only counts and times the columns, fails on a broken
    # route too.
    monkeypatch.setattr(multiplicity, "exact_div", lambda a, b: 0)
    assert run_cli(capsys, *argv) == (
        5, "", "internal error: multiplicity must be >= 1, got 0\n"
    )


@pytest.mark.parametrize("route, engine, broken", [
    ("determinant", "_half_minors", lambda *args: [0]),
    ("recurrence", "exact_div", lambda a, b: 0),
    ("sum", "_vandermonde_sum", lambda *args: 0),
    ("product", "_product", lambda *args: 0),
    ("weyman", "_weyman", lambda *args: 0),
], ids=multiplicity.ROUTES)
def test_each_route_checks_its_values(capsys, monkeypatch, route, engine, broken):
    # Each route's own engine is broken alone, so each route's check is
    # the one that fires: in one job, in a forked worker's share, and in
    # bench, which hands no value to any renderer.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiplicity, engine, broken)
    sweep = ("--d", "3", "--n", "6", "--route", route)
    for argv in (("table", *sweep, "--jobs", "1"), ("table", *sweep, "--jobs", "2"), ("bench", *sweep)):
        assert run_cli(capsys, *argv) == (
            5, "", "internal error: multiplicity must be >= 1, got 0\n"
        ), argv


@pytest.mark.parametrize("argv", [
    ("compute", "--n", "4", "--i", "2,4", "--j", "1,2"),
    ("table", "--d", "2", "--n", "4"),
    ("verify", "--d", "2", "--n", "4"),
    ("bench", "--d", "2", "--n", "4"),
], ids=lambda argv: argv[0])
def test_empty_out_is_refused(capsys, monkeypatch, spy, tmp_path, argv):
    # An empty --out names no file. It is refused before any work, and not
    # taken for stdout: exit 2, one line, no output and no file made.
    monkeypatch.chdir(tmp_path)
    sweeps, evaluations = spy("_sweep", cli), spy("_evaluate", cli)
    assert run_cli(capsys, *argv, "--out", "") == (2, "", "error: --out needs a path, got ''\n")
    assert sweeps == evaluations == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("compute", "--n", "4", "--i", "2,4", "--j", "1,2"),
    ("table", "--d", "2", "--n", "4"),
    ("verify", "--d", "2", "--n", "4"),
    ("bench", "--d", "2", "--n", "4"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target, reason", [
    ("made", "Is a directory"),
    ("made/", "Is a directory"),
    ("nosuch/dir/x.csv", "No such file or directory"),
    ("made/afile/x.csv", "Not a directory"),
], ids=["directory", "directory-slash", "missing-directory", "file-as-directory"])
def test_out_that_cannot_be_a_file_is_refused(
    capsys, monkeypatch, spy, tmp_path, argv, target, reason
):
    # A directory, or a path in a directory that does not exist, cannot
    # take the output. It is refused before any work, with the line that
    # the failed write after the work would give: exit 2, no output, and
    # nothing made.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "made").mkdir()
    (tmp_path / "made" / "afile").write_text("old\n", encoding="utf-8")
    sweeps, evaluations = spy("_sweep", cli), spy("_evaluate", cli)
    assert run_cli(capsys, *argv, "--out", target) == (
        2, "", f"error: cannot write {target}: {reason}\n"
    )
    assert sweeps == evaluations == []
    assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")) == [
        "made", "made/afile"
    ]
    assert (tmp_path / "made" / "afile").read_text(encoding="utf-8") == "old\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [
    ("table", "--d", "2", "--n", "4"), ("verify", "--d", "1", "--n", "2"),
], ids=lambda argv: argv[0])
def test_full_stdout_exits_2(cli_env, argv):
    # A stdout that takes no bytes is output that cannot be written, as an
    # --out path is: exit 2 and one line on stderr, not verify's exit 1
    # for a mismatch, and no traceback.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "grassmult", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env, timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write stdout: No space left on device\n"
    )


def test_readme_examples_run(tmp_path):
    # Each grassmult line of README's CLI block runs as written, with its
    # output sent into tmp_path: a renamed option fails here, not only in
    # the docs.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("grassmult ")]
    assert len(commands) == 7
    for k, argv in enumerate(commands):
        if "--out" not in argv:
            argv += ["--out", f"example{k}.txt"]
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, argv
        assert os.path.getsize(argv[at]) > 0, argv


# sha256 of the stdout bytes; any change to rows, order or rendering shows here.
GOLDEN = [
    (
        ("table", "--d", "3", "--n", "7", "--route", "all"),
        "c206e4a51df458342b8831982f7859dbce854a1f948d6c5d11a6a2b9e82566d3",
    ),
    (
        ("table", "--d", "3", "--n", "7", "--route", "all", "--format", "json"),
        "ad40b4345af6549e8164f073507907e4cd8ca042074d1d2aec657372d90ddbd6",
    ),
    (
        ("compute", "--n", "7", "--i", "3,5,7", "--j", "1,2,3", "--route", "all",
         "--format", "json"),
        "3fa115b08288a606c20c77a3503983acf86a9b1c4e77c6e0d8d5a52950df714e",
    ),
    (
        ("compute", "--n", "7", "--i", "3,5,7", "--j", "1,2,3", "--route", "all"),
        "97ff9bd6cec38cf03e97114d1ff8644dadb4b4a0882b5db39dd2d5a6d91b569c",
    ),
    (
        # No pair of I(3, 4) is separated, so the table has no rows.
        ("table", "--d", "3", "--n", "4", "--route", "product", "--format", "json"),
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ),
    (
        # An odd d with halves of 2 and 3 columns and base-5 shift codes.
        ("table", "--d", "5", "--n", "10", "--route", "all"),
        "85016246c85555370c2163e1927e2d2110396007e998671366f250cc32b0b464",
    ),
    (
        ("table", "--d", "5", "--n", "10", "--route", "all", "--format", "json"),
        "ea076bff8911b2df63d6d67ff69e2b6fdcc6953d0b69ecf8ad46d6c1f63034f6",
    ),
    (
        # 263 rows of an unkeyed walk feeding the product and weyman routes.
        ("table", "--d", "5", "--n", "10", "--route", "product", "--route", "weyman"),
        "08f49a92b42b8fda9058d806dfce9aa68e95e3fd8e16b4f5a0951c77ac315528",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN,
    ids=[
        "table_csv", "table_json", "compute_json", "compute_csv", "table_json_empty",
        "table_d5_csv", "table_d5_json", "table_d5_product_weyman_csv",
    ],
)
def test_golden_bytes(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_option_inventory():
    # Every long option of every subcommand: a new knob shows up as a diff here.
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    inventory = {
        name: {
            opt for action in sub._actions for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        for name, sub in subcommands.choices.items()
    }
    assert inventory == {
        "compute": {"--n", "--i", "--j", "--route", "--format", "--out"},
        "table": {"--d", "--n", "--route", "--format", "--out", "--jobs", "--force"},
        "verify": {"--d", "--n", "--seed", "--format", "--out", "--force"},
        "bench": {"--d", "--n", "--route", "--reps", "--out", "--force"},
    }


def test_single_pair_routes_take_the_pair_only():
    # A per-call option on a route shows up as a diff here, as a new
    # command line option does in test_option_inventory.
    def names(route):
        return list(inspect.signature(route).parameters)

    for route in ("mult_det", "mult_rec", "mult_sum", "mult_product"):
        assert names(getattr(multiplicity, route)) == ["i", "j"], route
    assert names(multiplicity.mult_weyman) == ["i"]


def test_import_set(cli_env):
    # The modules a compute process, a text verify process and a table
    # process with a forked worker load. -S skips site, so .pth files of a
    # given installation cannot load these first and hide an import.
    for argv in (
        ["compute", "--n", "1", "--i", "1", "--j", "1"],
        ["verify", "--d", "1", "--n", "2"],
        ["table", "--d", "2", "--n", "4", "--jobs", "2"],
    ):
        child = (
            "import os, sys\n"
            "os.cpu_count = lambda: 2\n"
            "from grassmult.cli import main\n"
            f"main({argv!r})\n"
            "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'multiprocessing', 'json')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", child],
            capture_output=True, text=True, env=cli_env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", argv


def test_public_surface():
    # The package re-exports its modules' __all__: a name made public or
    # dropped, or a helper leaked by a module without __all__, shows here.
    assert sorted(grassmult.__all__) == [
        "CheckReport", "FrobeniusCoordinates", "GrassmannIndex", "InexactDivisionError",
        "InvariantError", "ROUTES", "ROUTE_DETERMINANT",
        "ROUTE_PRODUCT", "ROUTE_RECURRENCE", "ROUTE_SUM", "ROUTE_WEYMAN",
        "RouteInapplicableError", "alternating_vandermonde_sum", "binom",
        "build_binomial_matrix", "build_shifted_vandermonde_matrix", "check_difference_eq",
        "check_shift_identity", "degree", "delta_eval", "determinant_bareiss",
        "determinant_cofactor", "enumerate_indices", "eval_poly", "exact_div",
        "factorial_superproduct", "frobenius_coordinates", "leq", "lower_neighbors",
        "mult_det", "mult_product", "mult_rec", "mult_sum", "mult_weyman", "s_vector",
        "validate", "vandermonde",
    ]
    assert len(set(grassmult.__all__)) == len(grassmult.__all__)
    submodules = {
        name for name, value in vars(grassmult).items()
        if inspect.ismodule(value) and value.__name__ == f"grassmult.{name}"
    }
    public = {name for name in vars(grassmult) if not name.startswith("_")}
    assert public == set(grassmult.__all__) | submodules


def test_traced_layer_functions_exist():
    # The benchmark's tracer refuses to run unless each function it names
    # is defined in its grassmult module; a rename shows here first.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    required = next(
        ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "REQUIRED"
    )
    assert required
    for name in required:
        layer, attr = name.split(".")
        module = importlib.import_module(f"grassmult.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_line_counts_script_adds_up():
    # Every size claim rests on this script: it exits 0 with one row per
    # module of the package, then one per module under tests/, and each
    # table's total row is the sum of the rows above it.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "line_counts.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    tables = [block.splitlines() for block in proc.stdout.split("\n\n")]
    for lines, directory in zip(tables, (root / "src" / "grassmult", root / "tests"), strict=True):
        header, *rows, total = [line.split() for line in lines]
        assert header == ["module", "total", "code"]
        assert [name for name, _, _ in rows] == sorted(path.name for path in directory.glob("*.py"))
        assert all(int(code) <= int(size) for _, size, code in rows)
        assert total == ["total", *(str(sum(int(row[k]) for row in rows)) for k in (1, 2))]
