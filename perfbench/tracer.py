"""In-memory span and count recorder for the grassmult layers.

install() replaces every public function of the layer modules, at every
module attribute that is bound to it (``from .arith import binom`` in
``matrices`` makes ``grassmult.matrices.binom`` a second binding of the same
function), with one counting wrapper. Each call records a span (id, name,
start, end, parent) and its self time, which is the span's duration minus
the time covered by its child spans. A few functions also feed named
counters through hooks (leq hits, binomial columns built, recurrence cache
fills, sum-route terms, box points certified, box evaluations).

Pool workers started by fork inherit the wrappers; their records are reset
in the child and written to a file of their own when the worker ends, so
that merge() can add them to the parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing.util as mp_util
import os
import signal
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("arith", "indices", "matrices", "multiplicity", "difference", "cli")

# Functions the per-layer metrics read. install() fails when one is missing,
# so a renamed or removed function shows as an error, not as a zero count.
REQUIRED = (
    "arith.binom",
    "arith.exact_div",
    "indices.leq",
    "indices.lower_neighbor_entries",
    "matrices.build_binomial_matrix",
    "matrices.determinant_bareiss",
    "matrices.vandermonde",
    "multiplicity.s_vector",
    "multiplicity.mult_det",
    "multiplicity.mult_rec",
    "multiplicity.mult_sum",
    "difference.check_difference_eq",
    "difference.check_shift_identity",
    "cli.main",
    "cli.run_table",
    "cli.run_verification",
)

# Private helper wrapped as well when present: the unit of work the table
# command hands to its worker pool.
OPTIONAL_PRIVATE = ("cli._table_rows_for_index",)

MAX_SPANS = 5000
BOX_CHECKS = ("difference.check_difference_eq", "difference.check_shift_identity")
SUM_ROUTE = ("multiplicity.mult_sum", "multiplicity.alternating_vandermonde_sum")


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _leq_post(tr, token, args, kwargs, result):
    if result:
        tr.counts["indices.leq.hits"] += 1


def _columns_post(tr, token, args, kwargs, result):
    values = _arg(args, kwargs, 0, "values")
    shifts = _arg(args, kwargs, 1, "shifts")
    tr.counts["matrices.build_binomial_matrix.cols"] += len(values)
    tr.distinct_cols.update(zip(values, shifts))


def _rec_pre(tr, args, kwargs):
    cache = _arg(args, kwargs, 2, "cache")
    return None if cache is None else (cache, len(cache))


def _rec_post(tr, token, args, kwargs, result):
    if token is not None:
        cache, before = token
        tr.counts["multiplicity.mult_rec.fills"] += len(cache) - before


def _vandermonde_post(tr, token, args, kwargs, result):
    # A term of the sum route is one Vandermonde product it evaluates.
    if any(frame[1] in SUM_ROUTE for frame in tr.stack):
        tr.counts["multiplicity.mult_sum.terms"] += 1


def _check_post(tr, token, args, kwargs, result):
    tr.counts["difference.points_checked"] += result.points_checked


def _bareiss_post(tr, token, args, kwargs, result):
    if any(frame[1] in BOX_CHECKS for frame in tr.stack):
        tr.counts["difference.evals"] += 1


HOOKS = {
    "indices.leq": (None, _leq_post),
    "matrices.build_binomial_matrix": (None, _columns_post),
    "multiplicity.mult_rec": (_rec_pre, _rec_post),
    "matrices.vandermonde": (None, _vandermonde_post),
    "difference.check_difference_eq": (None, _check_post),
    "difference.check_shift_identity": (None, _check_post),
    "matrices.determinant_bareiss": (None, _bareiss_post),
}


class Tracer:
    """Spans, self times and counters of one process."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.origin = time.perf_counter()
        self.worker_path: str | None = None
        self._reset()

    def _reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct_cols: set = set()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.stack: list[list] = []
        self.next_id = 0
        self.dumped = False

    def wrap(self, name, fn):
        pre, post = HOOKS.get(name, (None, None))
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.calls[name] += 1
            span_id = tr.next_id
            tr.next_id += 1
            parent = tr.stack[-1] if tr.stack else None
            frame = [span_id, name, 0.0]
            token = pre(tr, args, kwargs) if pre else None
            tr.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tr.stack.pop()
                duration = end - start
                tr.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(tr.spans) < MAX_SPANS:
                    tr.spans.append(
                        (span_id, name, start - tr.origin, end - tr.origin,
                         None if parent is None else parent[0])
                    )
                else:
                    tr.spans_dropped += 1
            if post:
                post(tr, token, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function at each binding in the package."""
        package = importlib.import_module("grassmult")
        modules = [package] + [
            importlib.import_module(f"grassmult.{layer}") for layer in LAYERS
        ]
        targets = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if not attr.startswith("_") or name in OPTIONAL_PRIVATE:
                    targets[value] = name
        missing = set(REQUIRED) - set(targets.values())
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        mp_util.register_after_fork(self, Tracer._in_worker)

    def _in_worker(self) -> None:
        self._reset()
        self.worker_path = f"{self.path}.w{os.getpid()}.json"
        # Pool.terminate() ends idle workers with SIGTERM; a worker that
        # exits normally runs the multiprocessing finalizers instead.
        signal.signal(signal.SIGTERM, self._dump_and_exit)
        mp_util.Finalize(self, self.dump_worker, exitpriority=100)

    def _dump_and_exit(self, signum, frame) -> None:
        self.dump_worker()
        os._exit(0)

    def dump_worker(self) -> None:
        # Pool.terminate() may signal a worker that is already exiting
        # normally; ignoring SIGTERM here lets the first dump finish.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if self.worker_path and not self.dumped:
            self.write(self.worker_path)

    def record(self) -> dict:
        return {
            "pid": os.getpid(),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "distinct_cols": sorted(self.distinct_cols),
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }

    def write(self, path: str) -> None:
        self.dumped = True
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.record(), fh)
        os.replace(tmp, path)


def merge(path: str) -> dict:
    """Add up the record at path and those of the workers it started."""
    base = Path(path)
    records = [json.loads(base.read_text())]
    for worker in sorted(base.parent.glob(base.name + ".w*.json")):
        records.append(json.loads(worker.read_text()))
    out = {
        "processes": len(records),
        "calls": Counter(),
        "self_s": defaultdict(float),
        "counts": Counter(),
        "distinct_cols": set(),
        "spans": [],
        "spans_dropped": 0,
    }
    for rec in records:
        out["calls"].update(rec["calls"])
        out["counts"].update(rec["counts"])
        for name, value in rec["self_s"].items():
            out["self_s"][name] += value
        out["distinct_cols"].update(tuple(col) for col in rec["distinct_cols"])
        out["spans"].extend([rec["pid"], *span] for span in rec["spans"])
        out["spans_dropped"] += rec["spans_dropped"]
    return out
