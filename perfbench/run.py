"""Layered benchmark for grassmult.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` (nothing needs installing). Workloads and metrics are described in
NOTES.md next to this file.

The run pins itself, and so every process it starts, to as many CPUs as
the workload uses. It times the smallest ``compute`` query as set-up, then
repeats the workload's operation for S seconds. Timings of the reference
kernel (reference.py) on the same CPUs sit between operations, and a
set-up sample follows each one. Outputs are checked after the
timed region; an operation whose output is wrong counts as failed. One
more untraced operation runs through child.py for its peak memory and its
in-process ``main`` span. With --trace 1 a traced operation follows, and
the run reports the per-layer metrics instead of the end-to-end ones.

Standard output ends with two JSON lines: run metadata, then the result
``{"correct", "attempted", "failed", "metrics"}``. A full record, traced
spans included, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import io
import json
import multiprocessing
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path[:0] = [str(HERE), str(SRC)]
import child  # noqa: E402
import tracer  # noqa: E402
from reference import reference_s  # noqa: E402

OP_TIMEOUT_S = 90
SETUP_FIRST = 3

# Wall time of a bare interpreter start (``python -c pass``) on the 2-vCPU
# shared host the figures in NOTES.md come from, in a quiet phase. Set-up
# times are reported rescaled to it, so they read as seconds on that host.
BARE_START_S = 0.045
BARE_ARGV = [sys.executable, "-c", "pass"]
SAMPLE_ROWS = 48

SETUP_ARGV = ["compute", "--n", "1", "--i", "1", "--j", "1"]
SETUP_STDOUT = "".join(
    f"{line}\n"
    for line in ["n,d,i,j,route,value"]
    + [f"1,1,1,1,{route},1" for route in ("determinant", "recurrence", "sum", "product", "weyman")]
).encode()

# Table digests are the sha256 of stdout at the commit that introduced this
# benchmark; table output must stay byte-identical.
WORKLOADS = {
    "table_det": {
        "argv": ["table", "--d", "4", "--n", "11", "--jobs", "1"],
        "d": 4,
        "n": 11,
        "cpus": 1,
        "sha256": "8a405cd26c88601df1ccdb3b00d1553230bf685418761b399f6d84f3db77e1db",
        "recheck": "recurrence",
    },
    "table_rec_par": {
        "argv": ["table", "--d", "4", "--n", "10", "--route", "recurrence", "--jobs", "2"],
        "d": 4,
        "n": 10,
        "cpus": 2,
        "sha256": "d2c144ed8dc7d17998d56260756c78fe0be06abc57ffe442ef51118ea9de4fbc",
        "recheck": "determinant",
    },
    "box_identities": {"cpus": 1},
    "verify_all": {"argv": ["verify", "--d", "4", "--n", "9"], "d": 4, "n": 9, "cpus": 1},
}

END_TO_END = {
    "items_per_ref": "items/ref",
    "setup_s": "s",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "success_rate": "1",
}

PER_LAYER = {
    "arith.binom.calls": "count",
    "arith.binom.self_s": "s",
    "arith.exact_div.calls": "count",
    "matrices.build_binomial_matrix.calls": "count",
    "matrices.build_binomial_matrix.self_s": "s",
    "matrices.build_binomial_matrix.distinct_col_frac": "1",
    "matrices.determinant_bareiss.calls": "count",
    "matrices.determinant_bareiss.self_s": "s",
    "matrices.vandermonde.calls": "count",
    "matrices.vandermonde.self_s": "s",
    "indices.leq.calls": "count",
    "indices.leq.hit_frac": "1",
    "indices.lower_neighbor_entries.per_pair": "1",
    "multiplicity.mult_rec.calls": "count",
    "multiplicity.mult_rec.fills_per_pair": "1",
    "multiplicity.mult_det.self_s": "s",
    "multiplicity.s_vector.self_s": "s",
    "multiplicity.mult_rec.self_s": "s",
    "multiplicity.mult_sum.self_s": "s",
    "multiplicity.mult_sum.terms": "count",
    "difference.points_checked": "count",
    "difference.evals_per_point": "1",
    "cli.run_table.self_s": "s",
    "cli.run_verification.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.jobs.cpu_per_wall": "1",
    "setup.import_s": "s",
    "cli.process_overhead_s": "s",
    "trace.overhead_s": "s",
}

ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)


class Run:
    """Samples, outputs and failures of one benchmark run."""

    def __init__(self, workdir: Path, cpus: list[int]) -> None:
        self.workdir = workdir
        self.cpus = cpus
        self.ops: list[dict] = []
        self.outputs: dict[str, bytes] = {}
        self.setup: list[float] = []
        self.setup_nominal: list[float] = []
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def child_report(self, name: str) -> str:
        return str(self.workdir / name)

    def keep_output(self, res: dict) -> dict:
        """Replace a process's stdout by its digest, keeping one copy of
        each distinct output for the correctness gate."""
        stdout = res.pop("stdout")
        res["digest"] = hashlib.sha256(stdout).hexdigest()
        res["stdout_bytes"] = len(stdout)
        self.outputs.setdefault(res["digest"], stdout)
        return res


def cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_process(argv: list[str]) -> dict:
    """Run one process to completion; wall and process-tree CPU time.

    The process leads a session of its own, so that on a timeout its pool
    workers are killed with it before it is waited for.
    """
    cpu0 = cpu_children()
    t0 = time.perf_counter()
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, cwd=ROOT,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=OP_TIMEOUT_S)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
            rc, stderr = None, b"timeout"
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": cpu_children() - cpu0,
        "rc": rc,
        "stdout": stdout,
        "stderr": stderr,
    }


def grassmult(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "grassmult", *argv]


def child_cmd(report: str, *args: str, trace: bool = False) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "--report", report] + (
        ["--trace"] if trace else []
    ) + list(args)


def setup_sample(run: Run) -> None:
    """One set-up sample: its wall time, and the same rescaled to a host on
    which a bare interpreter start takes BARE_START_S, using a bare start
    timed just before it."""
    bare = run_process(BARE_ARGV)
    res = run_process(grassmult(SETUP_ARGV))
    if run.check(bare["rc"] == 0, "bare interpreter start") and run.check(
        res["rc"] == 0 and res["stdout"] == SETUP_STDOUT, "setup compute output"
    ):
        run.setup.append(res["wall_s"])
        run.setup_nominal.append(res["wall_s"] * BARE_START_S / bare["wall_s"])


@functools.lru_cache(maxsize=None)
def count_pairs(d: int, n: int) -> int:
    """Pairs j <= i of strictly increasing d-tuples from 1..n, counted
    without the package."""
    idx = list(combinations(range(1, n + 1), d))
    return sum(1 for i in idx for j in idx if all(a <= b for a, b in zip(j, i)))


# ---------------------------------------------------------------------------
# operations


def argv_for(workload: str, seed: int, op: int = 0) -> list[str]:
    """The command of operation number op. verify_all gives each operation
    its own identity-suite seed derived from the run's seed, so that a
    run averages over suite costs instead of drawing one."""
    argv = list(WORKLOADS[workload]["argv"])
    if workload == "verify_all":
        argv += ["--seed", str(seed * 1000 + op)]
    return argv


def cli_op(run: Run, argv: list[str]) -> dict:
    return run.keep_output(run_process(grassmult(argv)))


def box_op(run: Run, seed: int) -> dict | None:
    """Box case number len(run.ops), timed inside its own process."""
    case = len(run.ops)
    report = run.child_report(f"box-{case}.json")
    res = run_process(child_cmd(report, "box", "--seed", str(seed), "--case", str(case)))
    if not run.check(res["rc"] == 0, f"box case {case} exited {res['rc']}"):
        return None
    rep = json.loads(Path(report).read_text())
    run.peak_rss_kb = max(run.peak_rss_kb, rep["peak_rss_kb"])
    return rep["op"]


def measure(run: Run, workload: str, seed: int, seconds: float) -> None:
    """Operations for the given seconds. Reference timings sit between
    consecutive operations, so each one has a timing just before and just
    after it; a set-up sample follows each operation."""
    ref_before = reference_s(run.cpus)
    for _ in range(SETUP_FIRST):
        setup_sample(run)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not (run.ops or run.failed):
        start = time.perf_counter() - run.t0
        if workload == "box_identities":
            op = box_op(run, seed)
        else:
            op = cli_op(run, argv_for(workload, seed, len(run.ops)))
        ref_after = reference_s(run.cpus)
        if op is not None:
            op.update(
                start_s=start,
                ref_s=statistics.mean(ref_before + ref_after),
                ref_cpu_s=[ref_before, ref_after],
            )
            run.ops.append(op)
        setup_sample(run)
        ref_before = ref_after


def items(workload: str, op: dict) -> int:
    if workload == "box_identities":
        return sum(n for _, n in op["reports"])
    spec = WORKLOADS[workload]
    return count_pairs(spec["d"], spec["n"])


def throughput(run: Run, workload: str, duration) -> float:
    """Items of all operations over the sum of their durations. A ratio of
    totals, not a median of per-operation rates: box_identities cases
    differ in cost by up to 3x, and a median depends on which ones a run
    drew."""
    return sum(items(workload, op) for op in run.ops) / sum(duration(op) for op in run.ops)


# ---------------------------------------------------------------------------
# correctness gate, outside every timed region


def parse_index(text: str, n: int):
    from grassmult import validate

    return validate(tuple(int(e) for e in text.split("-")), n)


def recheck_rows(stdout: bytes, spec: dict, seed: int) -> list[str]:
    """Re-derive a seeded sample of table rows by another route."""
    from grassmult import mult_det, mult_rec

    route = {"recurrence": mult_rec, "determinant": mult_det}[spec["recheck"]]
    rows = list(csv.reader(io.StringIO(stdout.decode())))[1:]
    bad = []
    for row in random.Random(seed).sample(rows, min(SAMPLE_ROWS, len(rows))):
        n = int(row[0])
        i, j = parse_index(row[2], n), parse_index(row[3], n)
        if str(route(i, j)) != row[5]:
            bad.append(f"row {row} disagrees with {spec['recheck']}")
    return bad


def gate_table(run: Run, spec: dict, seed: int, outputs: list[dict]) -> None:
    rechecked: dict[str, list[str]] = {}
    for op in outputs:
        digest = op["digest"]
        ok = op["rc"] == 0 and not op["stderr"] and digest == spec["sha256"]
        if ok and digest not in rechecked:
            rechecked[digest] = recheck_rows(run.outputs[digest], spec, seed)
            run.failures.extend(rechecked[digest])
        ok = ok and not rechecked[digest]
        run.check(ok, f"table output rc={op['rc']} sha256={digest[:12]}")


VERIFY_LINE = re.compile(rb"pairs_checked=(\d+) mismatches=(\d+) .* status=ok\n\Z")


def gate_verify(run: Run, spec: dict, outputs: list[dict]) -> None:
    expected = count_pairs(spec["d"], spec["n"])
    for op in outputs:
        stdout = run.outputs[op["digest"]]
        m = VERIFY_LINE.search(stdout)
        ok = op["rc"] == 0 and m is not None
        ok = ok and int(m.group(1)) == expected and int(m.group(2)) == 0
        run.check(ok, f"verify rc={op['rc']} output {stdout[-200:]!r}")


def gate_box(run: Run, ops: list[dict]) -> None:
    points = (child.BOX[1] - child.BOX[0] + 1) ** child.BOX_D
    for op in ops:
        ok = all(r_ok and n == points for r_ok, n in op["reports"])
        run.check(ok, f"box case {op['index']} reports {op['reports']}")


def gate(run: Run, workload: str, seed: int, ops: list[dict]) -> None:
    spec = WORKLOADS[workload]
    if workload == "box_identities":
        gate_box(run, ops)
    elif workload == "verify_all":
        gate_verify(run, spec, ops)
    else:
        gate_table(run, spec, seed, ops)


# ---------------------------------------------------------------------------
# untraced and traced passes through child.py


def plain_pass(run: Run, workload: str, seed: int) -> dict:
    """One more untraced operation of a CLI workload, run by child.py: the
    in-process ``main`` span and the peak resident set of its process tree.
    (box_identities operations report their peak resident set themselves.)"""
    if workload == "box_identities":
        return {}
    report = run.child_report("plain.json")
    res = run_process(child_cmd(report, "cli", *argv_for(workload, seed)))
    gate(run, workload, seed, [run.keep_output(res)])
    rep = json.loads(Path(report).read_text())
    run.peak_rss_kb = max(run.peak_rss_kb, rep["peak_rss_kb"])
    return rep


def traced_pass(run: Run, workload: str, seed: int, plain: dict) -> dict:
    """Set-up timing and one traced operation; per-layer metrics from the
    merged trace."""
    out: dict = {}
    timing = []
    for k in range(3):
        report = run.child_report(f"setup-{k}.json")
        res = run_process(child_cmd(report, "cli", *SETUP_ARGV))
        if run.check(res["rc"] == 0 and res["stdout"] == SETUP_STDOUT, "timed setup compute"):
            rep = json.loads(Path(report).read_text())
            timing.append((rep["import_s"], res["wall_s"] - rep["main_s"]))
    out["setup.import_s"] = statistics.median(t[0] for t in timing)
    out["cli.process_overhead_s"] = statistics.median(t[1] for t in timing)

    report = run.child_report("traced.json")
    if workload == "box_identities":
        res = run_process(child_cmd(report, "box", "--seed", str(seed), trace=True))
        run.check(res["rc"] == 0, "traced box case")
        traced_op = json.loads(Path(report).read_text())["op"]
        gate_box(run, [traced_op])
        # The traced case is case 0, the first one the loop measured.
        out["trace.overhead_s"] = traced_op["wall_s"] - run.ops[0]["wall_s"]
    else:
        res = run_process(child_cmd(report, "cli", *argv_for(workload, seed), trace=True))
        gate(run, workload, seed, [run.keep_output(res)])
        out["trace.overhead_s"] = json.loads(Path(report).read_text())["main_s"] - plain["main_s"]
    trace = tracer.merge(report + ".trace")
    out.update(layer_metrics(trace))
    cli_ops = [op for op in run.ops if "stdout_bytes" in op]
    out["cli.stdout_bytes"] = statistics.median(op["stdout_bytes"] for op in cli_ops) if cli_ops else 0
    out["cli.jobs.cpu_per_wall"] = statistics.median(op["cpu_s"] / op["wall_s"] for op in run.ops)
    out["trace_record"] = {
        "processes": trace["processes"],
        "calls": dict(trace["calls"]),
        "self_s": dict(trace["self_s"]),
        "counts": dict(trace["counts"]),
        "spans_dropped": trace["spans_dropped"],
        "spans": trace["spans"],
    }
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0


def layer_metrics(trace: dict) -> dict:
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    out = {}
    for name in (
        "arith.binom", "arith.exact_div", "matrices.build_binomial_matrix",
        "matrices.determinant_bareiss", "matrices.vandermonde", "indices.leq",
        "multiplicity.mult_rec",
    ):
        out[f"{name}.calls"] = calls[name]
    for name in (
        "arith.binom", "matrices.build_binomial_matrix", "matrices.determinant_bareiss",
        "matrices.vandermonde", "multiplicity.mult_det", "multiplicity.s_vector",
        "multiplicity.mult_rec", "multiplicity.mult_sum", "cli.run_table",
        "cli.run_verification",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["matrices.build_binomial_matrix.distinct_col_frac"] = ratio(
        len(trace["distinct_cols"]), counts["matrices.build_binomial_matrix.cols"]
    )
    out["indices.leq.hit_frac"] = ratio(counts["indices.leq.hits"], calls["indices.leq"])
    pairs = calls["multiplicity.mult_rec"]
    out["indices.lower_neighbor_entries.per_pair"] = ratio(calls["indices.lower_neighbor_entries"], pairs)
    out["multiplicity.mult_rec.fills_per_pair"] = ratio(counts["multiplicity.mult_rec.fills"], pairs)
    out["multiplicity.mult_sum.terms"] = counts["multiplicity.mult_sum.terms"]
    out["difference.points_checked"] = counts["difference.points_checked"]
    out["difference.evals_per_point"] = ratio(counts["difference.evals"], counts["difference.points_checked"])
    return out


# ---------------------------------------------------------------------------
# metadata and result


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "grassmult").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, started_at: str, run: Run) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": started_at,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpus": run.cpus,
        "mp_start_method": multiprocessing.get_start_method(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "ops": len(run.ops),
        "setup_samples": len(run.setup),
        "failures": run.failures[:20],
        "wall_items_per_s": throughput(run, args.workload, lambda op: op["wall_s"]),
        "cpu_s": statistics.mean(op["cpu_s"] for op in run.ops),
        "ref_s": statistics.mean(op["ref_s"] for op in run.ops),
        "wall_setup_s": statistics.median(run.setup),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for grassmult.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grassmult" / "cli.py").is_file():
        print(f"error: no grassmult sources under {SRC}", file=sys.stderr)
        return 2

    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    cpus = sorted(os.sched_getaffinity(0))[: WORKLOADS[args.workload]["cpus"]]
    os.sched_setaffinity(0, cpus)
    workdir = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workdir, cpus)
    try:
        # Warm-up: the first process of a fresh checkout compiles bytecode.
        run_process(grassmult(SETUP_ARGV))
        measure(run, args.workload, args.seed, args.seconds)
        gate(run, args.workload, args.seed, run.ops)
        if not (run.ops and run.setup):
            print(f"error: nothing to measure: {run.failures[:5]}", file=sys.stderr)
            return 1
        plain = plain_pass(run, args.workload, args.seed)
        layer = traced_pass(run, args.workload, args.seed, plain) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = {name: layer[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "items_per_ref": throughput(run, args.workload, lambda op: op["wall_s"] / op["ref_s"]),
            "setup_s": statistics.median(run.setup_nominal),
            "cpu_ref": statistics.mean(op["cpu_s"] / op["ref_s"] for op in run.ops),
            "peak_rss_mb": run.peak_rss_kb / 1024,
            "success_rate": 1 - run.failed / run.attempted,
        }
        units = END_TO_END
    meta = metadata(args, started_at, run)
    if args.trace:
        meta["trace_overhead_s"] = layer["trace.overhead_s"]
    record = {
        "meta": meta,
        "ops": [{k: v for k, v in op.items() if k != "stderr"} for op in run.ops],
        "setup_s": run.setup,
        "setup_nominal_s": run.setup_nominal,
        "metrics": values,
        "trace": layer.get("trace_record"),
    }
    OUT.mkdir(exist_ok=True)
    stamp = started_at.replace(":", "").replace("+", "Z")[:17]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (OUT / name).write_text(json.dumps(record, default=str))
    print(json.dumps({"meta": meta}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
