"""The five routes check one another only while each keeps its own
arithmetic. Read from the package source: the functions and classes each
route's engine reaches meet only in shared scaffolding."""

from __future__ import annotations

import ast
from itertools import combinations
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "grassmult"

# The determinant family has two evaluators: one Bareiss per point, and the
# half-minor engine of the table and the box checks.
ENGINES = {
    "determinant": ("difference._half_minors", "difference.eval_poly"),
    "recurrence": ("multiplicity._recurrence", "multiplicity._lattice"),
    "sum": ("multiplicity._vandermonde_sum",),
    "product": ("multiplicity._product",),
    "weyman": ("multiplicity._weyman",),
}

# Exact integer helpers and the elimination of the determinant that C09
# cross-checks. The _require_* input checks are scaffolding too.
SCAFFOLDING = {
    "arith.binom",
    "arith.exact_div",
    "arith._superproduct",
    "arith.InexactDivisionError",
    "matrices._bareiss",
}


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def references(sources: dict[str, str]) -> dict[str, set[str]]:
    """Each top-level function and class, as 'module.name', mapped to the
    package functions and classes its body names. A name resolves through
    its module's definitions and relative imports, re-exports followed."""
    aliases, bodies = {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                # 'from . import m' would hide m.name from this reading.
                assert node.level == 1 and node.module, f"{module}: unresolved import"
                for alias in node.names:
                    aliases[f"{module}.{alias.asname or alias.name}"] = f"{node.module}.{alias.name}"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[f"{module}.{node.name}"] = node

    def resolve(name: str) -> str:
        while name in aliases:
            name = aliases[name]
        return name

    return {
        qualname: {
            resolve(f"{qualname.split('.')[0]}.{name.id}")
            for name in ast.walk(node) if isinstance(name, ast.Name)
        } & bodies.keys()
        for qualname, node in bodies.items()
    }


def reach(graph: dict[str, set[str]], roots) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def shared_formulas(sources: dict[str, str]) -> dict[tuple[str, str], list[str]]:
    """Every pair of routes whose engines reach a common name outside the
    scaffolding, with those names."""
    graph = references(sources)
    reached = {route: reach(graph, roots) for route, roots in ENGINES.items()}
    shared = {
        (a, b): sorted(
            name for name in reached[a] & reached[b]
            if name not in SCAFFOLDING and not name.split(".")[1].startswith("_require_")
        )
        for a, b in combinations(ENGINES, 2)
    }
    return {pair: names for pair, names in shared.items() if names}


def test_routes_share_no_formula():
    sources = _sources()
    assert shared_formulas(sources) == {}
    # The reading sees through imports: it finds the scaffolding the
    # routes do share, and no input check, as only the determinant route's
    # pointwise evaluator checks what it is given.
    graph = references(sources)
    reached = [reach(graph, roots) for roots in ENGINES.values()]
    assert set().union(*(a & b for a, b in combinations(reached, 2))) == SCAFFOLDING


# Each call is spliced into the source text and only parsed, never run, so
# what is caught is the reference to the formula, whatever its arguments.
@pytest.mark.parametrize("call, shared", [
    ("_vandermonde(point)", {("sum", "product"): ["matrices._vandermonde"]}),
    ("_half_minors({}, point, shifts, [()], [1], 1)",
     {("determinant", "sum"): ["difference._column", "difference._half_minors"]}),
    # The recurrence's lattice takes its covering moves from indices, and
    # the reading follows it there.
    ("lower_neighbor_entries(point, point)", {("recurrence", "sum"): ["indices.lower_neighbor_entries"]}),
])
def test_a_borrowed_formula_is_caught(call, shared):
    sources = _sources()
    anchor = "    terms: list[tuple[tuple[int, ...], int]] = [((), 1)]\n"
    assert sources["multiplicity"].count(anchor) == 1
    sources["multiplicity"] = sources["multiplicity"].replace(anchor, f"    {call}\n{anchor}")
    assert shared_formulas(sources) == shared
